//! Background-job failures: a panicking stitch job must never abort the
//! session. The panic is caught (`catch_unwind`), the job resolves as
//! `Failed`, the region is pinned to its statically compiled fallback
//! copy permanently, a `BgFailed` event is traced, and the session's
//! results stay bit-identical to a synchronous run. A job that fails
//! with an ordinary error pins nothing: the entry runs set-up itself.

use dyncomp::measure::{run_session, SessionRun};
use dyncomp::{
    Compiler, EngineOptions, EventKind, FailureKind, FaultPlan, FaultPoint, Injection, Session,
    TieredOptions,
};
use dyncomp_bench::lattice::{self, Comp, Kernel, Mode, Size};
use std::sync::Arc;

/// A fault plan panicking the first background stitch job for `region`.
fn panic_plan(region: u16) -> FaultPlan {
    FaultPlan {
        seed: 0,
        injections: vec![Injection {
            region: Some(region),
            ..Injection::new(FaultPoint::WorkerPanic)
        }],
    }
}

/// Run the calculator workload traced on two virtual workers under
/// `faults`, on a session we can inspect afterwards; and the checksum of
/// a synchronous run.
fn run_inspectable(faults: Option<FaultPlan>) -> (u64, Session, u64) {
    let (k, setup) = (Kernel::Calculator, Kernel::Calculator.setup(Size::Smoke));
    let sync = run_session(&k.compiled(Comp::Dynamic), &setup, EngineOptions::default());
    let options = EngineOptions {
        faults,
        ..lattice::options(&[Mode::Traced, Mode::Tiered(2, false)])
    };
    let mut run = SessionRun::start(&k.compiled(Comp::Tiered), &setup, options);
    run.pass(|_, _| {})
        .expect("session must survive background failures");
    (
        run.outcome.checksum,
        run.session,
        sync.expect("runs").checksum,
    )
}

/// Messages of the `background` entries in the session's health ring.
fn background_failures(session: &Session) -> Vec<String> {
    let failures = session.health().failures.into_iter();
    failures
        .filter(|r| matches!(r.kind, FailureKind::Background { .. }))
        .map(|r| r.message)
        .collect()
}

#[test]
fn background_worker_panic_does_not_abort_the_session() {
    let (checksum, session, sync) = run_inspectable(Some(panic_plan(0)));
    assert_eq!(
        checksum, sync,
        "results must be bit-identical despite the worker panic"
    );

    // The region is pinned to the static fallback forever: no installs,
    // every entry runs the fallback copy.
    assert!(session.region_pinned(0), "region pinned after panic");
    let background = background_failures(&session);
    assert!(
        matches!(background.as_slice(), [msg] if msg.contains("injected background stitch panic")),
        "panic payload surfaced: {background:?}"
    );
    let report = session.region_report(0);
    assert_eq!(report.bg_installs, 0, "nothing installed from a dead path");
    assert_eq!(
        report.stitches, 0,
        "no synchronous re-stitch either: pinned"
    );
    assert!(
        report.fallback_runs >= Kernel::Calculator.setup(Size::Smoke).iterations,
        "every entry served by the fallback ({} runs)",
        report.fallback_runs
    );

    // The health log attributes the failure to the fault plan.
    let health = session.health();
    assert_eq!(health.total_failures, 1);
    assert_eq!(health.faults_injected, 1);
    let rec = &health.failures[0];
    assert_eq!(rec.region, 0);
    assert!(rec.injected, "failure marked as plan-injected");
    assert_eq!(rec.kind, FailureKind::Background { panicked: true });

    // The trace records exactly one BgFailed with panicked=true, stamped
    // on the session clock, and the aggregates agree with the reports.
    let t = session.trace().expect("tracing on");
    let panics = t
        .events()
        .filter(|e| matches!(e.kind, EventKind::BgFailed { panicked: true, .. }))
        .count();
    assert_eq!(panics, 1, "one failed job, one BgFailed event");
    assert_eq!(t.profiles()[0].bg_failed, 1);
    session.trace_self_check().expect("attribution still exact");
}

#[test]
fn panic_free_control_run_installs_background_code() {
    // Same workload without injection: the background path works, the
    // region is not pinned, and no failure is recorded.
    let (checksum, session, sync) = run_inspectable(None);
    assert_eq!(checksum, sync);
    assert!(!session.region_pinned(0));
    assert!(background_failures(&session).is_empty());
    let report = session.region_report(0);
    assert!(report.bg_installs > 0, "background install landed");
    let t = session.trace().expect("tracing on");
    assert_eq!(t.profiles()[0].bg_failed, 0);
    session.trace_self_check().expect("attribution exact");
}

/// Results of `f(tbl, key, 1)` over `keys` on a fresh session, with
/// `tbl = [5, 6]` at the bottom of the heap.
fn strided_table_calls(
    compiler: Compiler,
    options: EngineOptions,
    keys: &[u64],
) -> (Vec<u64>, Session) {
    let src =
        "int f(int *tbl, int i, int x) { dynamicRegion key(i) (tbl, i) { return tbl[i] + x; } }";
    let program = Arc::new(compiler.compile(src).expect("compiles"));
    let mut session = Session::with_options(program, options);
    let tbl = session.heap().array_u64(&[5, 6]).expect("fits");
    let results = keys
        .iter()
        .map(|&k| session.call("f", &[tbl, k, 1]).expect("session survives"))
        .collect();
    (results, session)
}

#[test]
fn background_error_falls_back_to_synchronous_set_up() {
    // Three keys 700,000 apart confirm a stride; the predicted keys then
    // load past the end of the 16 MiB data memory in their set-up, so
    // each speculative job fails with an ordinary error (no panic). The
    // failures are recorded and traced, the region stays on the
    // background path, and every demanded key still gets its value.
    let keys = [0, 700_000, 1_400_000, 1, 1, 1];
    let (sync, _) = strided_table_calls(Compiler::new(), EngineOptions::default(), &keys);
    let options = EngineOptions {
        trace: true,
        tiered: Some(TieredOptions {
            speculate: true,
            ..TieredOptions::default()
        }),
        ..EngineOptions::default()
    };
    let (tiered, session) = strided_table_calls(Compiler::tiered(), options, &keys);
    assert_eq!(sync, [6, 1, 1, 7, 7, 7]);
    assert_eq!(tiered, sync, "results equal a synchronous session");

    assert!(
        !session.region_pinned(0),
        "an error does not pin the region"
    );
    let health = session.health();
    let errors: Vec<_> = health
        .failures
        .iter()
        .filter(|r| r.kind == FailureKind::Background { panicked: false })
        .collect();
    assert_eq!(
        errors.len(),
        4,
        "one per failed speculative job: {errors:?}"
    );
    assert!(errors
        .iter()
        .all(|r| r.kind.name() == "background-error" && !r.injected));
    assert_eq!(health.total_failures, 4);

    let t = session.trace().expect("tracing on");
    let failed = t
        .events()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::BgFailed {
                    panicked: false,
                    ..
                }
            )
        })
        .count();
    assert_eq!(failed, 4, "one BgFailed event per failed job");
    session.trace_self_check().expect("attribution exact");
}
