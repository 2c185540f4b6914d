//! Tiered-execution correctness and determinism suite.
//!
//! * Tiered runs compute bit-identical checksums to synchronous runs on
//!   every kernel (the fallback copy and the stitched code are the same
//!   program).
//! * Checksums are identical across 1/2/4-worker configurations, and full
//!   reports are identical across repeated runs of the same configuration
//!   (the virtual-clock overlap model is host-independent).
//! * Speculation pre-stitches smatmul's scalar sweep.

use dyncomp::measure::{run_session, SessionOutcome};
use dyncomp_bench::lattice::{self, Comp, Kernel, Mode, Size};

#[test]
fn tiered_checksums_match_synchronous() {
    lattice::check("tiered_execution::sync");
}

#[test]
fn tiered_checksums_identical_across_worker_counts() {
    lattice::check("tiered_execution::workers");
}

#[test]
fn tiered_reports_deterministic_across_runs() {
    lattice::check("tiered_execution::repeat");
}

/// `k` at the suite's size on its tiered build, `workers` virtual
/// workers, speculating or not.
fn tiered(k: Kernel, workers: usize, speculate: bool) -> SessionOutcome {
    let options = lattice::options(&[Mode::Tiered(workers, speculate)]);
    let program = k.compiled(Comp::Tiered);
    run_session(&program, &k.setup(Size::Large), options).expect("runs")
}

#[test]
fn tiered_runs_fallback_then_installs() {
    // The calculator region is unkeyed with substantial set-up: the first
    // entries must run the fallback copy, a later entry installs the
    // background stitch, and the trap is then patched away.
    let out = tiered(Kernel::Calculator, 1, false);
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
    let plain = tiered(Kernel::Smatmul, 1, false);
    let spec = tiered(Kernel::Smatmul, 1, true);
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

/// A program compiled without tiered lowering has no fallback copies;
/// tiered engine options must degrade to plain synchronous stitching.
#[test]
fn tiered_mode_without_fallback_copy_stays_synchronous() {
    lattice::check_with("tiered_execution::no_fallback_copy", |_, _, got| {
        let r = &got[0].outcome.reports[0];
        assert_eq!(r.fallback_runs, 0);
        assert_eq!(r.bg_installs, 0);
        assert!(r.stitches > 0);
    });
}

/// A region the byte budget shut runs only its keyed-cache hits and its
/// fallback copy: nothing it enqueues could ever be installed, so no
/// entry of it speculates after the `BudgetDegrade` event.
#[test]
fn shut_region_stops_speculating() {
    use dyncomp::{Compiler, EngineOptions, EventKind, RecoveryPolicy, Session, TieredOptions};
    use std::sync::Arc;
    let src = "int f(int k, int x) { dynamicRegion key(k) (k) { return x * k + (k << 2); } }";
    let program = Arc::new(Compiler::tiered().compile(src).expect("compiles"));
    let options = EngineOptions {
        tiered: Some(TieredOptions {
            workers: 1,
            speculate: true,
        }),
        trace: true,
        recovery: RecoveryPolicy {
            code_budget_bytes: Some(64),
            ..RecoveryPolicy::default()
        },
        ..EngineOptions::default()
    };
    let mut session = Session::with_options(program, options);
    let keys = [
        [1u64, 2, 3].repeat(6),
        [1, 2, 3].repeat(20),
        [3, 2, 1].repeat(5),
        [1, 3].repeat(5),
    ];
    for k in keys.concat() {
        session.call("f", &[k, 7]).expect("runs");
    }
    let events: Vec<&EventKind> = session
        .trace()
        .expect("traced")
        .events()
        .map(|e| &e.kind)
        .collect();
    let degrade = events
        .iter()
        .position(|k| matches!(k, EventKind::BudgetDegrade { .. }))
        .expect("the budget degrades the region");
    let count = |pred: fn(&EventKind) -> bool| events[degrade..].iter().filter(|k| pred(k)).count();
    assert_eq!(count(|k| matches!(k, EventKind::BgInstall { .. })), 0);
    assert_eq!(
        count(|k| matches!(k, EventKind::SpeculateIssue { .. })),
        0,
        "a shut region kept speculating"
    );
}
