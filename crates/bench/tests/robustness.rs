//! Policy-driven recovery under injected faults: quarantine pins failing
//! regions to their static fallback copy, the byte-budget degradation
//! ladder sheds stitching work, the bounded failure ring keeps records
//! for every failing region, and the shared cache respects a resident
//! byte budget — all while results stay bit-identical to fault-free
//! runs.

use dyncomp::{
    fold_checksum, Compiler, EngineOptions, FailureKind, FaultPlan, FaultPoint, RecoveryPolicy,
    Session, SharedCodeCache, SharedKey,
};
use dyncomp_bench::lattice::{self, Mode};
use std::sync::Arc;

const POLY: &str = "int poly(int c, int x) {
    dynamicRegion key(c) (c) {
        return c * x * x + c * x + c;
    }
}";

/// Drive `poly` over `keys` distinct key values, three calls each
/// (exercising both the cold path and keyed-cache re-entries).
fn drive(session: &mut Session, keys: u64) -> u64 {
    let mut checksum = 0u64;
    for rep in 0..3u64 {
        for c in 1..=keys {
            let r = session
                .call("poly", &[c, 10 + rep])
                .expect("faulted sessions must still answer");
            checksum = fold_checksum(checksum, r);
        }
    }
    checksum
}

fn run(options: EngineOptions, keys: u64) -> (u64, Session) {
    // Compiled with a static fallback copy so recovery has somewhere to
    // degrade to, but run on an ordinary synchronous session.
    let program = Arc::new(Compiler::tiered().compile(POLY).expect("compiles"));
    let mut session = Session::with_options(program, options);
    let checksum = drive(&mut session, keys);
    (checksum, session)
}

#[test]
fn quarantine_pins_failing_region_to_fallback() {
    let (clean, clean_session) = run(EngineOptions::default(), 6);

    // Every set-up attempt traps; no retries; two failures quarantine.
    let (checksum, session) = run(lattice::options(&[Mode::Quarantine(None)]), 6);
    assert_eq!(checksum, clean, "fallback path computes identical results");

    let health = session.health();
    assert_eq!(health.quarantined, vec![0], "region 0 quarantined");
    assert_eq!(
        health.faults_injected, 2,
        "injection stops at quarantine (the degraded path is trusted)"
    );
    assert!(health
        .failures
        .iter()
        .all(|f| f.kind == FailureKind::Setup && f.injected));

    let report = session.region_report(0);
    assert_eq!(
        report.stitches, 1,
        "one stitch survived before quarantine (first entry retries past \
         its single failure)"
    );
    assert!(
        report.fallback_runs > 0,
        "later cold keys served by the fallback copy"
    );
    assert_eq!(report.faults_injected, 2);
    assert_eq!(clean_session.region_report(0).fallback_runs, 0);
}

/// A trusted retry (injection suppressed once the retry cap is spent)
/// and a quarantined region without a fallback copy stitch as an
/// unfaulted session does: for every key, the same code words, table
/// reads and `StitchStats` (plan counters and cycles included), and the
/// same checksum over every call.
#[test]
fn trusted_and_quarantined_stitches_match_an_unfaulted_stitch() {
    const KEYS: u64 = 6;
    let program = Arc::new(Compiler::new().compile(POLY).expect("compiles"));
    let stitch = |modes: &[Mode]| {
        let cache = Arc::new(SharedCodeCache::new(1, 64));
        let options = EngineOptions {
            shared_cache: Some(Arc::clone(&cache)),
            ..lattice::options(modes)
        };
        let mut session = Session::with_options(Arc::clone(&program), options);
        let checksum = drive(&mut session, KEYS);
        let instances: Vec<_> = (1..=KEYS)
            .map(|c| {
                let key = SharedKey {
                    program: program.id(),
                    region: 0,
                    key: vec![c],
                };
                cache
                    .lookup(&key)
                    .expect("every key's instance is published")
            })
            .collect();
        (checksum, instances, session.health())
    };
    let (clean, reference, _) = stitch(&[]);
    let cases = [
        (
            Mode::Fault(FaultPoint::StitchBadTemplate, 3),
            "trusted retry",
        ),
        (Mode::Quarantine(None), "quarantined, no fallback copy"),
    ];
    for (mode, case) in cases {
        let (checksum, instances, health) = stitch(&[mode]);
        assert_eq!(checksum, clean, "{case}");
        match mode {
            Mode::Quarantine(_) => assert_eq!(health.quarantined, vec![0], "{case}"),
            _ => assert_eq!(health.faults_injected, 3, "{case}"),
        }
        for (c, (got, want)) in instances.iter().zip(&reference).enumerate() {
            assert_eq!(got.code, want.code, "{case}: key {} code words", c + 1);
            assert_eq!(got.reads, want.reads, "{case}: key {} table reads", c + 1);
            assert_eq!(got.stats, want.stats, "{case}: key {} stitch stats", c + 1);
        }
    }
}

#[test]
fn injected_stitch_faults_past_the_retry_cap_still_answer() {
    // An injected stitch fault models a transient optimized-path failure.
    // Once injected failures spend the retry cap (two by default), the
    // entry stitches once more with injection suppressed: the answer is
    // the clean one, the region is not quarantined, and a third fire
    // costs a failure record but no third retry.
    for point in [FaultPoint::StitchBadTemplate, FaultPoint::CodeCorruption] {
        for (tiered, compiler) in [(false, Compiler::new()), (true, Compiler::tiered())] {
            for fires in [2u32, 3] {
                let program = Arc::new(compiler.compile(POLY).expect("compiles"));
                let options = lattice::options(&[Mode::Fault(point, fires)]);
                let mut session = Session::with_options(program, options);
                let case = format!("{} x{fires}, fallback copy {tiered}", point.name());
                match session.call("poly", &[3, 10]) {
                    Ok(r) => assert_eq!(r, 333, "{case}"),
                    Err(e) => panic!("{case}: {e}"),
                }
                let health = session.health();
                assert_eq!(health.faults_injected, u64::from(fires), "{case}");
                assert_eq!(health.total_failures, u64::from(fires), "{case}");
                assert_eq!(health.retries, 2, "{case}");
                assert!(health.quarantined.is_empty(), "{case}");
            }
        }
    }

    // The `dyncc --fault-seed` plan spends the cap this way on some seeds.
    let (clean, _) = run(EngineOptions::default(), 16);
    for seed in [27, 52, 85] {
        let program = Arc::new(Compiler::tiered().compile(POLY).expect("compiles"));
        let options = EngineOptions {
            faults: Some(FaultPlan::seeded(seed)),
            ..EngineOptions::default()
        };
        let mut session = Session::with_options(program, options);
        assert_eq!(drive(&mut session, 16), clean, "seed {seed}");
    }
}

#[test]
fn failure_ring_keeps_records_for_every_failing_region() {
    // Regression for the single-slot failure record the health ring
    // replaced (PR 5): with two regions failing in the background, both
    // must appear in the log.
    let src = "int f(int a, int x) {
        dynamicRegion key(a) (a) { return a * x + a; }
    }
    int g(int b, int x) {
        dynamicRegion key(b) (b) { return b * x - b; }
    }";
    let program = Arc::new(Compiler::tiered().compile(src).expect("compiles"));
    let mut session = Session::with_options(
        Arc::clone(&program),
        lattice::options(&[Mode::Fault(FaultPoint::WorkerPanic, 2)]),
    );
    // Constant keys so the second entry resolves the (panicking) job.
    let mut checksum = 0u64;
    for i in 1..=4u64 {
        let a = session.call("f", &[3, 100 + i]).expect("f survives");
        let b = session.call("g", &[5, 200 + i]).expect("g survives");
        checksum = fold_checksum(fold_checksum(checksum, a), b);
    }

    // Fault-free reference on a plain session.
    let mut clean = Session::with_options(Arc::clone(&program), EngineOptions::default());
    let mut expect = 0u64;
    for i in 1..=4u64 {
        let a = clean.call("f", &[3, 100 + i]).expect("runs");
        let b = clean.call("g", &[5, 200 + i]).expect("runs");
        expect = fold_checksum(fold_checksum(expect, a), b);
    }
    assert_eq!(checksum, expect);

    let health = session.health();
    let failed_regions: Vec<u16> = health.failures.iter().map(|f| f.region).collect();
    assert!(
        failed_regions.contains(&0) && failed_regions.contains(&1),
        "both regions' failures retained, not just the last: {failed_regions:?}"
    );
    assert!(health.failures.iter().all(|f| {
        f.injected
            && f.kind == FailureKind::Background { panicked: true }
            && f.message.contains("injected background stitch panic")
    }));
    assert!(session.region_pinned(0) && session.region_pinned(1));
}

#[test]
fn code_budget_degrades_to_fallback_with_identical_results() {
    let (clean, clean_session) = run(EngineOptions::default(), 12);
    let clean_report = clean_session.region_report(0);
    assert_eq!(clean_report.stitches, 12, "one instance per key, no budget");

    // Enough budget for a few instances, then the ladder takes over.
    let budget = 4 * u64::from(clean_report.stitch_stats.words_emitted / 12 * 4);
    let options = EngineOptions {
        recovery: RecoveryPolicy {
            code_budget_bytes: Some(budget),
            ..RecoveryPolicy::default()
        },
        ..EngineOptions::default()
    };
    let (checksum, session) = run(options, 12);
    assert_eq!(checksum, clean, "degraded session computes the same");

    let health = session.health();
    assert_eq!(health.degradation_level, 2, "budget exhausted");
    assert_eq!(health.code_budget_bytes, Some(budget));
    assert!(health.code_bytes_installed >= budget);

    let report = session.region_report(0);
    assert!(
        report.stitches < clean_report.stitches,
        "budget stopped installs early ({} of {})",
        report.stitches,
        clean_report.stitches
    );
    assert!(
        report.fallback_runs > 0,
        "past-budget keys run the fallback"
    );
}

#[test]
fn shared_cache_byte_budget_evicts_under_pressure() {
    let program = Arc::new(Compiler::tiered().compile(POLY).expect("compiles"));
    // One shard, tiny byte budget: only a couple of instances resident.
    let mut probe = Session::with_options(Arc::clone(&program), EngineOptions::default());
    let _ = probe.call("poly", &[1, 10]).expect("runs");
    let instance_bytes = 4 * u64::from(probe.region_report(0).stitch_stats.words_emitted);
    let budget = instance_bytes * 2 + instance_bytes / 2;
    let cache = Arc::new(SharedCodeCache::with_byte_budget(1, 64, Some(budget)));

    let options = || EngineOptions {
        shared_cache: Some(Arc::clone(&cache)),
        ..EngineOptions::default()
    };
    let mut writer = Session::with_options(Arc::clone(&program), options());
    let from_writer = drive(&mut writer, 8);
    let (clean, _) = run(EngineOptions::default(), 8);
    assert_eq!(from_writer, clean, "byte-budgeted cache changes no result");

    assert!(cache.bytes() <= budget, "resident bytes respect the budget");
    assert!(
        cache.stats().evictions > 0,
        "publishing 8 instances into a ~2-instance budget evicts"
    );

    // A second session gets a hit for a resident survivor (the writer
    // published keys in order, so the highest keys are most recent).
    let mut reader = Session::with_options(Arc::clone(&program), options());
    let r = reader.call("poly", &[8, 10]).expect("runs");
    assert_eq!(r, 8 * 100 + 8 * 10 + 8);
    assert_eq!(
        reader.region_report(0).shared_hits,
        1,
        "survivor served from the shared cache, not re-stitched"
    );
    assert_eq!(reader.region_report(0).stitches, 0);
}

#[test]
fn native_arena_exhaustion_degrades_to_vm_backend() {
    let (clean, _) = run(EngineOptions::default(), 8);

    // Two injected arena exhaustions: those installs are declined with a
    // `backend-unavailable` health entry, the instances run on the VM,
    // and every result is bit-identical. The fault fires before the
    // availability check, so this holds on every host architecture.
    let options = lattice::options(&[Mode::Fault(FaultPoint::NativeArenaExhausted, 2)]);
    let (checksum, session) = run(options, 8);
    assert_eq!(checksum, clean, "exhausted arena changes no result");

    let health = session.health();
    assert_eq!(health.faults_injected, 2, "both injections fired");
    let recorded: Vec<_> = health
        .failures
        .iter()
        .filter(|f| f.kind == FailureKind::BackendUnavailable)
        .collect();
    assert_eq!(recorded.len(), 2, "one health entry per declined install");
    assert!(recorded
        .iter()
        .all(|f| f.injected && f.message.contains("native-arena exhaustion")));

    // The backend itself is not disabled: after the injections run out,
    // later installs proceed (on hosts that support the backend).
    let report = session.native_report();
    assert!(report.enabled);
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        assert!(
            report.active,
            "arena exhaustion must not disable the backend"
        );
        assert!(report.installs > 0, "post-injection installs proceed");
    }
}

#[test]
fn byte_budget_accounts_native_stub_bytes() {
    let (clean, vm_session) = run(EngineOptions::default(), 12);
    let vm_bytes = vm_session.health().code_bytes_installed;

    // Chaining off: the exact-surplus equality below pins the unchained
    // accounting, where every backend byte is a budget-charged install.
    // (The chained mode adds a whole-static-code snapshot that shows up
    // in `NativeReport::bytes` but is deliberately not budget-charged —
    // it is baseline code, not an optimized install.)
    let (checksum, native_session) = run(lattice::options(&[Mode::Native(false)]), 12);
    assert_eq!(checksum, clean, "native backend changes no result");
    let native_bytes = native_session.health().code_bytes_installed;

    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        // Installed stub bytes count against the same budget as the
        // stitched code words — exactly, not approximately.
        assert!(native_bytes > vm_bytes, "{native_bytes} vs {vm_bytes}");
        assert_eq!(
            native_bytes - vm_bytes,
            native_session.native_report().bytes,
            "the surplus is exactly the installed stub bytes"
        );

        // A budget sized for the VM-only footprint therefore exhausts
        // early under the native backend: the ladder sheds installs and
        // past-budget keys run the fallback, results unchanged.
        let options = EngineOptions {
            recovery: RecoveryPolicy {
                code_budget_bytes: Some(vm_bytes),
                ..RecoveryPolicy::default()
            },
            ..lattice::options(&[Mode::Native(false)])
        };
        let (budgeted, budget_session) = run(options, 12);
        assert_eq!(budgeted, clean, "degraded session computes the same");
        assert_eq!(budget_session.health().degradation_level, 2);
        let report = budget_session.region_report(0);
        assert!(
            report.stitches < 12,
            "budget stopped installs early ({} of 12)",
            report.stitches
        );
        assert!(report.fallback_runs > 0);

        // Published instances carry their native footprint, so byte-
        // budgeted shared-cache shards govern both backends.
        let program = Arc::new(Compiler::tiered().compile(POLY).expect("compiles"));
        let resident = |native: bool| {
            let cache = Arc::new(SharedCodeCache::new(1, 64));
            let mut s = Session::with_options(
                Arc::clone(&program),
                EngineOptions {
                    native,
                    shared_cache: Some(Arc::clone(&cache)),
                    ..EngineOptions::default()
                },
            );
            drive(&mut s, 4);
            cache.bytes()
        };
        assert!(
            resident(true) > resident(false),
            "published footprints include native stub bytes"
        );
    } else {
        assert_eq!(native_bytes, vm_bytes, "no backend, no extra bytes");
    }
}
