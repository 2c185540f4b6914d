//! Differential gate for demand-driven inlining.
//!
//! For every kernel — the paper's five plus the two cross-function
//! inlining workloads — the dynamic version must produce bit-identical
//! checksums with the pass off and on (each measurement additionally
//! cross-checks against the static baseline inside the harness). The
//! paper kernels keep all work inside one function, so inlining must
//! find no demand there and leave the compiled artifact — and therefore
//! the committed `BENCH_table2.json` — byte-identical.

use dyncomp::{measure_kernel_full, Compiler};
use dyncomp_bench::lattice::{self, Comp};
use dyncomp_bench::{render_table2_json, run_all, Scale};
use std::sync::Arc;

/// The plan's reference and cell measured the Table 2 way (each against
/// the static baseline inside the harness) on every program: checksums
/// equal, and cycles equal when the pass finds no demand or better when
/// it does.
fn differential(key: &str) {
    let plan = lattice::plan(key);
    let (off, on) = (plan.reference.expect("inlining off"), &plan.cells[0]);
    for k in &plan.programs {
        let setup = k.setup(plan.size);
        let measure = |c: &lattice::Cell| {
            let options = lattice::options(&c.modes);
            measure_kernel_full(&setup, &c.comp.compiler(), options).unwrap()
        };
        let (off, on) = (measure(&off), measure(on));
        let name = k.name();
        assert_eq!(
            off.checksum, on.checksum,
            "inlining changed {name}'s results"
        );
        if plan.contract == lattice::Contract::CycleEqual {
            // No demand: the pass must be a perfect no-op, cycles included.
            assert_eq!(off.dynamic_cycles, on.dynamic_cycles, "{name}");
            assert_eq!(off.stitch_cycles, on.stitch_cycles, "{name}");
        } else {
            assert!(
                on.dynamic_cycles < off.dynamic_cycles,
                "{name}: inlining must improve cycles ({} vs {})",
                on.dynamic_cycles,
                off.dynamic_cycles
            );
        }
    }
}

#[test]
fn paper_kernels_checksums_unchanged_by_inlining() {
    differential("inline_differential::paper");
}

#[test]
fn inline_workloads_checksums_unchanged_and_cycles_improve() {
    differential("inline_differential::inline");
}

/// The paper kernels contain no region-crossing calls, so even with the
/// pass enabled the compiled artifact must be word-for-word identical —
/// this is what keeps the committed `BENCH_table2.json` byte-stable.
#[test]
fn paper_kernel_artifacts_identical_with_pass_enabled() {
    let plan = lattice::plan("inline_differential::artifacts");
    for k in &plan.programs {
        let (p0, p2) = (k.compiled(Comp::Dynamic), k.compiled(plan.cells[0].comp));
        assert!(p2.inline_sites.is_empty(), "{k:?}: unexpected demand");
        assert_eq!(
            p0.compiled.code, p2.compiled.code,
            "{k:?}: enabling the pass changed the compiled artifact"
        );
    }
}

/// The default compiler (depth 0) must keep the Table 2 rows exactly
/// reproducible — the smoke-scale analogue of CI's paper-scale
/// `bench table2 --check BENCH_table2.json` drift gate.
#[test]
fn default_mode_table2_rows_are_deterministic() {
    lattice::check("inline_differential::table2");
    let a = render_table2_json(&run_all(Scale::Smoke).unwrap());
    let b = render_table2_json(&run_all(Scale::Smoke).unwrap());
    assert_eq!(a, b);
}

/// The inliner and codegen number regions alike (`Module::region_bases`):
/// in every inline-depth-2 unit, each inline site's `region_index` names
/// a compiled region whose `EnterRegion` lies inside the code of the
/// function the call was inlined into. The last unit inlines into its
/// second function with a region, whose number is not its local one.
#[test]
fn inline_sites_name_a_region_of_their_function() {
    const LATER: &str = "
        int sq(int v) { return v * v; }
        int first(int c, int x) { dynamicRegion (c) { return x + c; } }
        int second(int c, int x) { dynamicRegion (c) { return sq(c) + x; } }
    ";
    let later = Compiler::with_inline_depth(2).compile(LATER).unwrap();
    let mut units: Vec<_> = lattice::Kernel::ALL
        .iter()
        .map(|k| (k.name(), k.compiled(Comp::Inline2)))
        .collect();
    units.push(("later", Arc::new(later)));
    for (name, p) in units {
        let m = &p.compiled;
        for site in &p.inline_sites {
            let f = site.func.index();
            let end = m.funcs.get(f + 1).map_or(m.code.len() as u32, |g| g.entry);
            let rc = &m.regions[usize::from(site.region_index)];
            assert!(
                (m.funcs[f].entry..end).contains(&rc.enter_pc),
                "{name}: site of `{}` names region {} at pc {}, outside `{}`",
                site.callee_name,
                site.region_index,
                rc.enter_pc,
                m.funcs[f].name
            );
        }
        assert!(
            name != "later" || p.inline_sites.iter().any(|s| s.region_index == 1),
            "the last unit inlines into region 1"
        );
    }
}
