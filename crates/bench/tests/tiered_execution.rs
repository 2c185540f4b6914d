//! Tiered-execution correctness and determinism suite.
//!
//! * Tiered runs compute bit-identical checksums to synchronous runs on
//!   every kernel (the fallback copy and the stitched code are the same
//!   program).
//! * Checksums are identical across 1/2/4-worker configurations, and full
//!   reports are identical across repeated runs of the same configuration
//!   (the virtual-clock overlap model is host-independent).
//! * Speculation pre-stitches smatmul's scalar sweep.

use dyncomp::measure::{run_session, KernelSetup, SessionOutcome};
use dyncomp::{Compiler, EngineOptions, TieredOptions};
use dyncomp_bench::kernels::{calculator, dispatch, smatmul, sorter, spmv};
use std::sync::Arc;

fn tiered_options(workers: usize, speculate: bool) -> EngineOptions {
    EngineOptions {
        tiered: Some(TieredOptions { workers, speculate }),
        ..EngineOptions::default()
    }
}

/// All kernels at smoke scale: (name, setup).
fn kernels() -> Vec<(&'static str, KernelSetup<'static>)> {
    vec![
        ("calculator", calculator::setup(60)),
        ("smatmul", smatmul::setup(12, 16, 12)),
        ("spmv", spmv::setup(24, 4, 40)),
        ("dispatch", dispatch::setup(10, 80)),
        ("sorter", sorter::setup(48, 4, 4)),
    ]
}

fn run(setup: &KernelSetup<'_>, tiered: bool, options: EngineOptions) -> SessionOutcome {
    let compiler = if tiered {
        Compiler::tiered()
    } else {
        Compiler::new()
    };
    let program = Arc::new(compiler.compile(setup.src).expect("compiles"));
    run_session(&program, setup, options).expect("runs")
}

#[test]
fn tiered_checksums_match_synchronous() {
    for (name, setup) in kernels() {
        let sync = run(&setup, false, EngineOptions::default());
        for speculate in [false, true] {
            let tiered = run(&setup, true, tiered_options(1, speculate));
            assert_eq!(
                sync.checksum, tiered.checksum,
                "{name}: tiered (speculate={speculate}) checksum differs from synchronous"
            );
        }
    }
}

#[test]
fn tiered_checksums_identical_across_worker_counts() {
    for (name, setup) in kernels() {
        let runs: Vec<SessionOutcome> = [1, 2, 4]
            .iter()
            .map(|&w| run(&setup, true, tiered_options(w, true)))
            .collect();
        assert_eq!(
            runs[0].checksum, runs[1].checksum,
            "{name}: 1-worker vs 2-worker checksum"
        );
        assert_eq!(
            runs[1].checksum, runs[2].checksum,
            "{name}: 2-worker vs 4-worker checksum"
        );
    }
}

#[test]
fn tiered_reports_deterministic_across_runs() {
    for (name, setup) in kernels() {
        for speculate in [false, true] {
            let a = run(&setup, true, tiered_options(2, speculate));
            let b = run(&setup, true, tiered_options(2, speculate));
            assert_eq!(
                a, b,
                "{name} (speculate={speculate}): repeated tiered runs differ"
            );
        }
    }
}

#[test]
fn tiered_runs_fallback_then_installs() {
    // The calculator region is unkeyed with substantial set-up: the first
    // entries must run the fallback copy, a later entry installs the
    // background stitch, and the trap is then patched away.
    let setup = calculator::setup(60);
    let out = run(&setup, true, tiered_options(1, false));
    let r = &out.reports[0];
    assert!(r.fallback_runs > 0, "no fallback runs: {r:?}");
    assert_eq!(r.bg_installs, 1, "expected one background install: {r:?}");
    assert_eq!(r.stitches, 0, "synchronous stitch in tiered mode: {r:?}");
    assert!(
        r.bg_setup_cycles > 0 && r.bg_stitch_cycles > 0,
        "background cycles unaccounted: {r:?}"
    );
    // Background cycles never leak into the synchronous accounting.
    assert_eq!(r.setup_cycles, 0);
    assert_eq!(r.stitch_cycles, 0);
}

#[test]
fn speculation_prestitches_key_sweeps() {
    // smatmul sweeps keys 1..=n: after the stride predictor locks on,
    // almost every key should be installed from a speculative stitch.
    let setup = smatmul::setup(12, 16, 12);
    let plain = run(&setup, true, tiered_options(1, false));
    let spec = run(&setup, true, tiered_options(1, true));
    let p = &plain.reports[0];
    let s = &spec.reports[0];
    // Without speculation no key ever repeats, so demand stitches are
    // never picked up: every entry runs the fallback.
    assert_eq!(p.spec_installs, 0);
    assert!(
        s.spec_installs >= 8,
        "speculation installed too few instances: {s:?}"
    );
    assert!(
        s.fallback_runs < p.fallback_runs,
        "speculation did not reduce fallback runs: spec {s:?} plain {p:?}"
    );
}

#[test]
fn tiered_mode_without_fallback_copy_stays_synchronous() {
    // A program compiled without tiered lowering has no fallback copies;
    // tiered engine options must degrade to plain synchronous stitching.
    let setup = calculator::setup(40);
    let sync = run(&setup, false, EngineOptions::default());
    let program = Arc::new(Compiler::new().compile(setup.src).expect("compiles"));
    let out = run_session(&program, &setup, tiered_options(2, true)).expect("runs");
    assert_eq!(sync.checksum, out.checksum);
    let r = &out.reports[0];
    assert_eq!(r.fallback_runs, 0);
    assert_eq!(r.bg_installs, 0);
    assert!(r.stitches > 0);
}
