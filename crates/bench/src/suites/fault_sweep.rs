//! Fault-injection sweep: every [`FaultPoint`] against every paper
//! kernel, asserting the robustness invariant end to end — a session
//! under injected faults must produce **bit-identical checksums** to the
//! fault-free run (recovery may spend extra simulated cycles, never
//! change a result).
//!
//! For each kernel the harness first measures a fault-free reference,
//! then re-runs the full workload once per fault point with
//! `FaultPlan::single(point, 2)` armed (two fires, any region, default
//! recovery policy). Worker faults run in a tiered session; shared-cache
//! faults run against a pre-warmed [`SharedCodeCache`]. Every row
//! records the checksum, the fault/recovery counters, and whether the
//! checksum matched — any mismatch or unfired injection exits non-zero.
//!
//! Usage: `bench fault_sweep [--smoke] [--json <path>] [--check <path>]`
//!
//! Everything here is simulated-deterministic, so every field is gated:
//! CI checks the sweep against the committed reference, then runs it
//! again and diffs.

use crate::driver::{Args, Report};
use crate::kernel_workloads;
use crate::row::Row;
use dyncomp::{
    Compiler, EngineOptions, FaultPlan, FaultPoint, KernelSetup, PersistentCache, Program, Session,
    SessionRun, SharedCodeCache, TieredOptions,
};
use std::sync::Arc;

/// Run the workload twice over on a fresh session (two passes, so every
/// keyed region re-enters each key at least once — background jobs get
/// resolved and re-entry fault points get an opportunity) and keep the
/// session for health inspection.
fn run_twice(
    program: &Arc<Program>,
    setup: &KernelSetup<'_>,
    options: EngineOptions,
) -> (u64, Session) {
    let mut run = SessionRun::start(program, setup, options);
    for _pass in 0..2 {
        run.pass(|_, _| {})
            .unwrap_or_else(|e| panic!("session must survive injected faults: {e}"));
    }
    (run.outcome.checksum, run.session)
}

/// Engine options arming `point`: worker faults get a tiered session,
/// shared-cache faults get the pre-warmed cache, everything else runs
/// the default synchronous engine.
fn options_for(point: FaultPoint, warmed: &Arc<SharedCodeCache>) -> EngineOptions {
    let mut options = EngineOptions {
        faults: Some(FaultPlan::single(point, 2)),
        ..EngineOptions::default()
    };
    match point {
        FaultPoint::WorkerPanic | FaultPoint::WorkerSlow => {
            options.tiered = Some(TieredOptions {
                workers: 2,
                ..TieredOptions::default()
            });
        }
        FaultPoint::SharedCacheInstall | FaultPoint::SharedCachePoisonedShard => {
            options.shared_cache = Some(Arc::clone(warmed));
        }
        // The native arena can only be exhausted, and chain patches only
        // requested (chaining is on by default), with the native backend
        // requested. Both faults fire before any backend-availability
        // check, so these rows are exercised on every host.
        FaultPoint::NativeArenaExhausted | FaultPoint::NativeChainPatch => {
            options.native = true;
        }
        _ => {}
    }
    options
}

pub fn run(args: &Args) -> Report {
    let scale = args.scale;
    println!("Fault sweep: every fault point x every kernel ({scale:?} scale)");
    println!(
        "{:<12} | {:<24} | {:<20} | {:>7} | {:>7} | {:>8} | {:>6} | {:>8} | {:>8} | match",
        "kernel",
        "fault point",
        "checksum",
        "faults",
        "retries",
        "failures",
        "quar",
        "fallback",
        "stitches",
    );
    println!("{}", "-".repeat(132));

    let mut rows: Vec<Row> = Vec::new();
    let mut bad = 0u32;
    for w in kernel_workloads(scale) {
        // One program per kernel, compiled with static fallback copies so
        // quarantine and worker faults have somewhere to degrade to.
        let program = w.compile(&Compiler::tiered());
        let (reference, _) = run_twice(&program, &w.setup, EngineOptions::default());

        // Warm a shared cache for the shared-cache fault points, so the
        // faulted session actually probes populated shards.
        let warmed = Arc::new(SharedCodeCache::new(4, 64));
        let warm_options = EngineOptions {
            shared_cache: Some(Arc::clone(&warmed)),
            ..EngineOptions::default()
        };
        let (warm_checksum, _) = run_twice(&program, &w.setup, warm_options);
        assert_eq!(warm_checksum, reference, "warming changes no result");

        for point in FaultPoint::ALL {
            let mut options = options_for(point, &warmed);
            // Persist fault points need a real on-disk cache to fire:
            // the store-side points get a fresh directory (every stitch
            // then attempts a store), the load-side point gets a
            // directory pre-populated by a fault-free persist run (every
            // probe then hits, giving the injected corruption a victim).
            // Directories live under the OS temp dir, keyed by pid, and
            // are removed after the row.
            let persist_root = if matches!(
                point,
                FaultPoint::PersistWriteTorn
                    | FaultPoint::PersistLockContended
                    | FaultPoint::PersistLoadCorrupt
            ) {
                let root = std::env::temp_dir().join(format!(
                    "dyncomp-fault-sweep-{}-{}-{}",
                    std::process::id(),
                    w.kernel,
                    point.name()
                ));
                let _ = std::fs::remove_dir_all(&root);
                let cache = Arc::new(PersistentCache::open(&root).unwrap_or_else(|e| {
                    panic!(
                        "fault_sweep: cannot create persist dir {}: {e}",
                        root.display()
                    )
                }));
                if matches!(point, FaultPoint::PersistLoadCorrupt) {
                    let populate = EngineOptions {
                        persist: Some(Arc::clone(&cache)),
                        ..EngineOptions::default()
                    };
                    let (populate_checksum, _) = run_twice(&program, &w.setup, populate);
                    assert_eq!(
                        populate_checksum, reference,
                        "persist population changes no result"
                    );
                }
                options.persist = Some(cache);
                Some(root)
            } else {
                None
            };
            let (checksum, session) = run_twice(&program, &w.setup, options);
            if let Some(root) = &persist_root {
                let _ = std::fs::remove_dir_all(root);
            }
            let health = session.health();
            let fallback_runs: u64 = (0..program.region_count())
                .map(|i| session.region_report(i).fallback_runs)
                .sum();
            let stitches: u64 = (0..program.region_count())
                .map(|i| u64::from(session.region_report(i).stitches))
                .sum();
            let matches = checksum == reference;
            if !matches {
                bad += 1;
                eprintln!(
                    "fault_sweep: {} under {} drifted: {} != {}",
                    w.kernel,
                    point.name(),
                    checksum,
                    reference
                );
            }
            if health.faults_injected == 0 {
                bad += 1;
                eprintln!(
                    "fault_sweep: {} under {} never fired the injection",
                    w.kernel,
                    point.name()
                );
            }
            println!(
                "{:<12} | {:<24} | {:<20} | {:>7} | {:>7} | {:>8} | {:>6} | {:>8} | {:>8} | {}",
                w.kernel,
                point.name(),
                checksum,
                health.faults_injected,
                health.retries,
                health.total_failures,
                health.quarantined.len(),
                fallback_runs,
                stitches,
                if matches { "ok" } else { "DRIFT" },
            );
            rows.push(
                Row::new()
                    .field("kernel", w.kernel)
                    .field("point", point.name())
                    .field("checksum", checksum)
                    .field("matches_reference", matches)
                    .field("faults_injected", health.faults_injected)
                    .field("retries", health.retries)
                    .field("failures", health.total_failures)
                    .field("quarantined", health.quarantined.len())
                    .field("fallback_runs", fallback_runs)
                    .field("stitches", stitches),
            );
        }
    }

    Report {
        rows,
        violations: bad,
    }
}
