//! The copy-and-patch stitch-plan path must be **bit-identical** to the
//! interpretive directive-walking path: for each of the paper's five
//! kernels, running the full workload with plans on and off must produce
//! the same call results and the exact same stitched code words for every
//! region instance. Plans only change *how fast* the stitcher produces
//! code, never the code.

use dyncomp::{KernelSetup, Session};
use dyncomp_bench::kernels::spmv;
use dyncomp_bench::lattice::{self, Comp, Mode};
use std::sync::Arc;

/// Stitched history for every region: `(key, code words)` per instance,
/// plus the call results and the plan hit/miss totals.
#[allow(clippy::type_complexity)]
fn run(
    setup: &KernelSetup<'_>,
    comp: Comp,
    modes: &[Mode],
) -> (Vec<u64>, Vec<Vec<(Vec<u64>, Vec<u32>)>>, u32, u32) {
    let program = comp.compiler().compile(setup.src).expect("compiles");
    let mut session = Session::with_options(Arc::new(program), lattice::options(modes));
    let prepared = (setup.prepare)(&mut session);
    let results = (0..setup.iterations)
        .map(|i| {
            session
                .call(setup.func, &(setup.args)(i, &prepared))
                .expect("runs")
        })
        .collect();
    let mut instances = Vec::new();
    let (mut hits, mut misses) = (0, 0);
    for r in 0..session.program().region_count() {
        let stitched = session.stitched_instances(r).into_iter();
        instances.push(
            stitched
                .map(|(k, c)| (k.to_vec(), c.to_vec()))
                .collect::<Vec<_>>(),
        );
        let stats = session.region_report(r).stitch_stats;
        hits += stats.plan_hits;
        misses += stats.plan_misses;
    }
    (results, instances, hits, misses)
}

#[test]
fn plan_path_bit_identical_across_paper_kernels() {
    let plan = lattice::plan("plan_identity::paper");
    let (on, off) = (plan.reference.expect("plans on"), &plan.cells[0]);
    for k in &plan.programs {
        let (name, setup) = (k.name(), k.setup(plan.size));
        let (res_plan, inst_plan, hits, _misses) = run(&setup, on.comp, &on.modes);
        let (res_interp, inst_interp, ihits, imisses) = run(&setup, off.comp, &off.modes);
        assert_eq!(
            res_plan, res_interp,
            "{name}: call results differ with plans on"
        );
        assert_eq!(
            inst_plan.len(),
            inst_interp.len(),
            "{name}: region count differs"
        );
        for (r, (a, b)) in inst_plan.iter().zip(&inst_interp).enumerate() {
            assert_eq!(
                a, b,
                "{name}: region {r} stitched instances differ (keys or code words)"
            );
        }
        assert!(hits > 0, "{name}: expected at least one plan hit (got 0)");
        assert_eq!(
            (ihits, imisses),
            (0, 0),
            "{name}: plans-off run must never touch the plan path"
        );
    }
}

/// Keyed region whose key value is patched straight into the code: small
/// keys fit the 8-bit inline literal (and hit the recorded plan), larger
/// ones must fail the plan's applicability check and take the
/// interpretive path.
const ADVERSARIAL_LIT_SRC: &str = r#"
    int f(int k, int x) {
        dynamicRegion key(k) (k) {
            return x + k;
        }
    }
"#;

#[test]
fn plan_path_bit_identical_on_adversarial_literals() {
    // Crosses the 8-bit literal boundary (the old plan patcher truncated
    // `v as u8`), plus full-width and sign-bit-set values.
    let keys: [u64; 8] = [3, 200, 255, 256, 300, 70_000, 1 << 40, u64::MAX];
    let w = KernelSetup {
        src: ADVERSARIAL_LIT_SRC,
        func: "f",
        iterations: keys.len() as u64,
        prepare: Box::new(|_| vec![]),
        args: Box::new(move |i, _| vec![keys[i as usize], 10]),
    };
    let (res_plan, inst_plan, hits, misses) = run(&w, Comp::Dynamic, &[]);
    let (res_interp, inst_interp, _, _) = run(&w, Comp::Dynamic, &[Mode::PlansOff]);
    assert_eq!(res_plan, res_interp, "results differ with plans on");
    assert_eq!(inst_plan, inst_interp, "stitched code differs");
    // Expected semantics, independently: x + k wrapping.
    for (i, &k) in keys.iter().enumerate() {
        assert_eq!(res_plan[i], k.wrapping_add(10), "key {k}");
    }

    assert!(hits > 0, "small keys should hit the plan");
    assert!(
        misses > 0,
        "out-of-range keys must miss the plan, not truncate"
    );
}

#[test]
fn plan_path_bit_identical_beyond_displacement_range() {
    // A sparse matrix with well over 1024 distinct float values pushes
    // linearized-table offsets past the 14-bit displacement range
    // (±8 KiB), forcing the far-entry sequence — the old memdisp patcher
    // masked such offsets to 14 bits.
    let prepare = |e: &mut Session| {
        let m = spmv::gen_matrix(56, 28, 13);
        assert!(
            m.val.len() > 1100,
            "need >1024 distinct table values, got {}",
            m.val.len()
        );
        let (mp, xp, yp) = spmv::build(e, &m);
        vec![mp, xp, yp]
    };
    let w = KernelSetup {
        src: spmv::SRC,
        func: "spmv",
        iterations: 2,
        prepare: Box::new(prepare),
        args: Box::new(|_, p| vec![p[0], p[1], p[2]]),
    };
    let (res_plan, inst_plan, _, _) = run(&w, Comp::Dynamic, &[]);
    let (res_interp, inst_interp, _, _) = run(&w, Comp::Dynamic, &[Mode::PlansOff]);
    assert_eq!(res_plan, res_interp, "results differ with plans on");
    assert_eq!(inst_plan, inst_interp, "stitched code differs");
}
