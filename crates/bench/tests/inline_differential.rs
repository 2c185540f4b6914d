//! Differential gate for demand-driven inlining.
//!
//! For every kernel — the paper's five plus the two cross-function
//! inlining workloads — the dynamic version must produce bit-identical
//! checksums with the pass off and on (each measurement additionally
//! cross-checks against the static baseline inside the harness). The
//! paper kernels keep all work inside one function, so inlining must
//! find no demand there and leave the compiled artifact — and therefore
//! the committed `BENCH_table2.json` — byte-identical.

use dyncomp::{measure_kernel_full, measure_kernel_with, Compiler, EngineOptions, KernelSetup};
use dyncomp_bench::kernels::{calculator, dispatch, protomsg, queryexec, smatmul, sorter, spmv};
use dyncomp_bench::{render_table2_json, run_all, Scale};

const DEPTH: u32 = 2;

/// Checksums (and for the paper kernels, cycles) with inlining off vs on.
fn differential(setup: &KernelSetup<'_>, expect_sites: bool) {
    let off = measure_kernel_with(setup, EngineOptions::default()).unwrap();
    let on = measure_kernel_full(
        setup,
        &Compiler::with_inline_depth(DEPTH),
        EngineOptions::default(),
    )
    .unwrap();
    assert_eq!(
        off.checksum, on.checksum,
        "inlining changed {}'s results",
        setup.func
    );
    if !expect_sites {
        // No demand: the pass must be a perfect no-op, cycles included.
        assert_eq!(off.dynamic_cycles, on.dynamic_cycles, "{}", setup.func);
        assert_eq!(off.stitch_cycles, on.stitch_cycles, "{}", setup.func);
    } else {
        assert!(
            on.dynamic_cycles < off.dynamic_cycles,
            "{}: inlining must improve cycles ({} vs {})",
            setup.func,
            on.dynamic_cycles,
            off.dynamic_cycles
        );
    }
}

#[test]
fn paper_kernels_checksums_unchanged_by_inlining() {
    differential(&calculator::setup(60), false);
    differential(&smatmul::setup(8, 16, 8), false);
    differential(&spmv::setup(12, 3, 20), false);
    differential(&dispatch::setup(10, 50), false);
    differential(&sorter::setup(40, 4, 5), false);
}

#[test]
fn inline_workloads_checksums_unchanged_and_cycles_improve() {
    differential(&protomsg::setup(8, 40), true);
    differential(&queryexec::setup(6, 30, 5), true);
}

/// The paper kernels contain no region-crossing calls, so even with the
/// pass enabled the compiled artifact must be word-for-word identical —
/// this is what keeps the committed `BENCH_table2.json` byte-stable.
#[test]
fn paper_kernel_artifacts_identical_with_pass_enabled() {
    for (name, src) in [
        ("calculator", calculator::SRC),
        ("smatmul", smatmul::SRC),
        ("spmv", spmv::SRC),
        ("dispatch", dispatch::SRC),
        ("sorter", sorter::SRC),
    ] {
        let p0 = Compiler::new().compile(src).unwrap();
        let p2 = Compiler::with_inline_depth(DEPTH).compile(src).unwrap();
        assert!(p2.inline_sites.is_empty(), "{name}: unexpected demand");
        assert_eq!(
            p0.compiled.code, p2.compiled.code,
            "{name}: enabling the pass changed the compiled artifact"
        );
    }
}

/// The default compiler (depth 0) must keep the Table 2 rows exactly
/// reproducible — the smoke-scale analogue of CI's paper-scale
/// `bench table2 --check BENCH_table2.json` drift gate.
#[test]
fn default_mode_table2_rows_are_deterministic() {
    let a = render_table2_json(&run_all(Scale::Smoke).unwrap());
    let b = render_table2_json(&run_all(Scale::Smoke).unwrap());
    assert_eq!(a, b);
}
