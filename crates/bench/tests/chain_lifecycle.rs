//! Lifecycle of direct-threaded native chains: instances that have been
//! chained into the dispatch web must be severable at any point —
//! keyed-cache eviction, quarantine, and byte-budget degradation all
//! tear down live chain targets mid-session — and the session must keep
//! computing bit-identical results through the slower surviving paths,
//! with no genuine fault ever recorded.
//!
//! The workload is a keyed specialization entered from a loop, so every
//! call bounces between the region instance and the enclosing static
//! code: exactly the pattern the chaining layer collapses (and therefore
//! the pattern whose links the teardown paths must sever correctly).

use dyncomp::{Compiler, EngineOptions, FaultPlan, FaultPoint, Injection, RecoveryPolicy, Session};
use std::sync::Arc;

/// A keyed region entered eight times per call: the enclosing loop makes
/// every `sweep` call re-dispatch into native code repeatedly, tripping
/// the bounce heuristic and chaining region exits, function returns, and
/// (guards permitting) region entries.
const KEYED_SWEEP: &str = "int poly(int c, int x) {
    dynamicRegion key(c) (c) {
        return c * x * x + c * x + c;
    }
}
int sweep(int c, int n) {
    int acc = 0;
    int i;
    for (i = 0; i < n; i++) {
        acc = acc * 31 + poly(c, 10 + i);
    }
    return acc;
}";

/// Drive `sweep` over `keys` distinct key values, three rounds each, so
/// chained instances are re-entered after later keys have installed (and
/// possibly evicted or severed) other instances.
fn drive(session: &mut Session, keys: u64) -> u64 {
    let mut checksum = 0u64;
    for _round in 0..3u64 {
        for c in 1..=keys {
            let r = session
                .call("sweep", &[c, 8])
                .expect("severed sessions must still answer");
            checksum = checksum.wrapping_mul(1099511628211).wrapping_add(r);
        }
    }
    checksum
}

fn run(options: EngineOptions, keys: u64) -> (u64, Session) {
    let program = Arc::new(Compiler::tiered().compile(KEYED_SWEEP).expect("compiles"));
    let mut session = Session::with_options(program, options);
    let checksum = drive(&mut session, keys);
    (checksum, session)
}

fn native_options() -> EngineOptions {
    EngineOptions {
        native: true,
        ..EngineOptions::default()
    }
}

/// On a supported host the workload must actually chain — otherwise the
/// teardown assertions below would pass vacuously.
fn assert_chained(session: &Session, what: &str) {
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        let n = session.native_report();
        assert!(n.active, "{what}: backend active: {n:?}");
        assert!(
            n.chained > 0,
            "{what}: the loop workload must chain before teardown: {n:?}"
        );
    }
}

/// Keyed-cache eviction severs the evicted instance's chains: with a
/// two-entry cache and four keys cycling, every round evicts live chain
/// targets, later rounds re-stitch and re-chain the same keys at fresh
/// bases, and no stale link ever outlives its target.
#[test]
fn chain_then_evict_keeps_results_identical() {
    let (clean, _) = run(EngineOptions::default(), 4);
    let options = EngineOptions {
        keyed_cache_capacity: Some(2),
        ..native_options()
    };
    let (checksum, session) = run(options, 4);
    assert_eq!(checksum, clean, "eviction-severed chains change no result");
    assert!(
        session.region_report(0).evictions > 0,
        "four keys through a two-entry cache must evict"
    );
    let health = session.health();
    assert_eq!(health.faults_injected, 0, "no plan armed");
    assert!(
        health.failures.is_empty(),
        "severing is routine bookkeeping, not a fault: {:?}",
        health.failures
    );
    assert_chained(&session, "evict");
}

/// Quarantine severs every chained instance of the condemned region:
/// the first key installs and chains, injected set-up traps on later
/// keys push the region over the quarantine threshold, and from then on
/// the static fallback copy serves — bit-identically.
#[test]
fn chain_then_quarantine_keeps_results_identical() {
    let (clean, _) = run(EngineOptions::default(), 6);
    let options = EngineOptions {
        faults: Some(FaultPlan {
            seed: 1,
            injections: vec![Injection {
                max_fires: u32::MAX,
                ..Injection::new(FaultPoint::SetupVmTrap)
            }],
        }),
        recovery: RecoveryPolicy {
            max_retries: 0,
            quarantine_after: 2,
            ..RecoveryPolicy::default()
        },
        ..native_options()
    };
    let (checksum, session) = run(options, 6);
    assert_eq!(
        checksum, clean,
        "quarantine-severed chains change no result"
    );
    let health = session.health();
    assert_eq!(health.quarantined, vec![0], "region 0 quarantined");
    assert!(
        health.failures.iter().all(|f| f.injected),
        "every recorded failure is injected, none genuine: {:?}",
        health.failures
    );
    assert!(
        session.region_report(0).fallback_runs > 0,
        "post-quarantine keys run the fallback copy"
    );
    assert_chained(&session, "quarantine");
}

/// Byte-budget degradation (ladder level 2) severs the region's native
/// instances: the budget is sized so early keys install and chain, a
/// later install crosses the full budget, and the remaining keys run
/// the fallback copy — bit-identically, with no failure recorded (the
/// ladder is policy, not a fault).
#[test]
fn chain_then_budget_degrade_keeps_results_identical() {
    let (clean, probe) = run(native_options(), 8);
    let installed = probe.health().code_bytes_installed;
    let (vm_clean, _) = run(EngineOptions::default(), 8);
    assert_eq!(clean, vm_clean, "native backend changes no result");

    let options = EngineOptions {
        recovery: RecoveryPolicy {
            code_budget_bytes: Some(installed / 2),
            ..RecoveryPolicy::default()
        },
        ..native_options()
    };
    let (checksum, session) = run(options, 8);
    assert_eq!(checksum, clean, "budget-severed chains change no result");
    let health = session.health();
    assert_eq!(health.degradation_level, 2, "half the footprint exhausts");
    assert!(
        health.failures.is_empty(),
        "degradation is policy, not a fault: {:?}",
        health.failures
    );
    assert!(
        session.region_report(0).fallback_runs > 0,
        "past-budget keys run the fallback copy"
    );
    assert_chained(&session, "budget");
}

/// Two keyed regions entered from one loop, each falling out into its
/// function instead of returning: a region exit is an exit blob
/// back-patched into the static-code instance, so both chain-patch kinds
/// are live (exit blobs in region instances, guard sleds in the static
/// instance), and severing one region's instances leaves the static
/// instance reachable through the other's.
const TWO_REGION_SWEEP: &str = "int poly(int c, int x) {
    int r = 0;
    dynamicRegion key(c) (c) {
        r = c * x * x + c * x + c;
    }
    return r + 1;
}
int scale(int k, int x) {
    int r = 0;
    dynamicRegion key(k) (k) {
        r = k * x + k;
    }
    return r - 1;
}
int sweep(int c, int n) {
    int acc = 0;
    int i;
    for (i = 0; i < n; i++) {
        acc = acc * 31 + poly(c, 10 + i) + scale(3, i);
    }
    return acc;
}";

/// Drive `src` like [`drive`], arming `Session::fail_native_reseals(n)`
/// just before call number `arm_at` (counting from 0 over all rounds;
/// never when out of range).
fn run_armed(src: &str, options: EngineOptions, keys: u64, arm_at: u64, n: u32) -> (u64, Session) {
    let program = Arc::new(Compiler::tiered().compile(src).expect("compiles"));
    let mut session = Session::with_options(program, options);
    let mut checksum = 0u64;
    let mut call = 0u64;
    for _round in 0..3u64 {
        for c in 1..=keys {
            if call == arm_at {
                session.fail_native_reseals(n);
            }
            call += 1;
            let r = session
                .call("sweep", &[c, 8])
                .expect("sessions with discarded holders must still answer");
            checksum = checksum.wrapping_mul(1099511628211).wrapping_add(r);
        }
    }
    (checksum, session)
}

/// A patch whose reseal fails leaves its holder writable and not
/// executable: one more dispatch into it would fault the process, and a
/// link it still holds into a released instance would jump into pages
/// recycled for someone else. The backend must remove every such holder
/// — and, transitively, every holder whose link into a removed instance
/// cannot be restored — before any page is released. Failures are armed
/// at every call of two workloads, for one patch batch and for all of
/// them: [`KEYED_SWEEP`], whose first patch is a guard sled, and
/// [`TWO_REGION_SWEEP`], whose first patches are exit blobs, each on the
/// chaining path (default options) and on the severing path (region 0
/// quarantined mid-session while any other region keeps running
/// natively). Every run must end bit-identical, without a crash and with
/// no genuine fault recorded.
#[test]
fn failed_reseals_discard_holders_and_keep_results_identical() {
    for src in [KEYED_SWEEP, TWO_REGION_SWEEP] {
        failed_reseals_keep_results_identical(src);
    }
}

fn failed_reseals_keep_results_identical(src: &str) {
    const KEYS: u64 = 6;
    let (clean, _) = run_armed(src, EngineOptions::default(), KEYS, u64::MAX, 0);
    let (native, reference) = run_armed(src, native_options(), KEYS, u64::MAX, 0);
    assert_eq!(native, clean, "native backend changes no result");
    let quarantine = EngineOptions {
        faults: Some(FaultPlan {
            seed: 1,
            injections: vec![Injection {
                region: Some(0),
                max_fires: u32::MAX,
                ..Injection::new(FaultPoint::SetupVmTrap)
            }],
        }),
        recovery: RecoveryPolicy {
            max_retries: 0,
            quarantine_after: 2,
            ..RecoveryPolicy::default()
        },
        ..native_options()
    };
    let (_, severed) = run_armed(src, quarantine.clone(), KEYS, u64::MAX, 0);
    assert_eq!(
        severed.health().quarantined,
        vec![0],
        "region 0 quarantined"
    );
    let mut discarded_somewhere = false;
    for options in [native_options(), quarantine] {
        for arm_at in 0..3 * KEYS {
            for n in [1, u32::MAX] {
                let (checksum, session) = run_armed(src, options.clone(), KEYS, arm_at, n);
                assert_eq!(
                    checksum, clean,
                    "reseal failures from call {arm_at} (n = {n}) change no result"
                );
                let health = session.health();
                assert!(
                    health.failures.iter().all(|f| f.injected),
                    "a discarded holder is not a fault: {:?}",
                    health.failures
                );
                discarded_somewhere |=
                    session.native_report().bytes < reference.native_report().bytes;
            }
        }
    }
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        assert_chained(&reference, "reference");
        assert!(
            discarded_somewhere,
            "some armed run must have discarded an installed holder"
        );
    }
}
