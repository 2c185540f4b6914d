//! Fault-injection sweep: every [`FaultPoint`] against every paper
//! kernel, asserting the robustness invariant end to end — a session
//! under injected faults must produce **bit-identical checksums** to the
//! fault-free run (recovery may spend extra simulated cycles, never
//! change a result).
//!
//! For each kernel the harness first measures a fault-free reference,
//! then re-runs the full workload once per fault point with
//! `FaultPlan::single(point, 2)` armed (two fires, any region, default
//! recovery policy). Worker faults run under a tiered pool; shared-cache
//! faults run against a pre-warmed [`SharedCodeCache`]. Every row
//! records the checksum, the fault/recovery counters, and whether the
//! checksum matched — any mismatch or unfired injection exits non-zero.
//!
//! Usage: `cargo run --release -p dyncomp-bench --bin fault_sweep
//! [--smoke] [--json <path>] [--check <path>]`
//!
//! `--check <path>` compares the rendered JSON byte-for-byte against a
//! committed reference (everything here is simulated-deterministic, so
//! CI runs the sweep twice and diffs).

use dyncomp::{
    Compiler, EngineOptions, FaultPlan, FaultPoint, KernelSetup, PersistentCache, Program, Session,
    SessionRun, SharedCodeCache, TieredOptions,
};
use dyncomp_bench::{json_str, kernel_workloads, render_json_array, Artifact, Scale};
use std::sync::Arc;

/// Run the workload twice over on a fresh session (two passes, so every
/// keyed region re-enters each key at least once — background jobs get
/// resolved and re-entry fault points get an opportunity) and keep the
/// session for health inspection.
fn run(program: &Arc<Program>, setup: &KernelSetup<'_>, options: EngineOptions) -> (u64, Session) {
    let mut run = SessionRun::start(program, setup, options);
    for _pass in 0..2 {
        run.pass(|_, _| {})
            .unwrap_or_else(|e| panic!("session must survive injected faults: {e}"));
    }
    (run.outcome.checksum, run.session)
}

/// Engine options arming `point`: worker faults get a tiered pool,
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
        // The native arena can only be exhausted with the native backend
        // requested; the fault fires before the availability check, so
        // this row is exercised on every host.
        FaultPoint::NativeArenaExhausted => {
            options.native = true;
        }
        // Chain-patch faults need chain requests, which need the native
        // backend requested (chaining is on by default). The fault fires
        // in `request_chain` before any backend-availability check, so
        // this row too is exercised on every host.
        FaultPoint::NativeChainPatch => {
            options.native = true;
        }
        _ => {}
    }
    options
}

struct Row {
    kernel: &'static str,
    point: FaultPoint,
    checksum: u64,
    matches: bool,
    faults_injected: u64,
    retries: u64,
    failures: u64,
    quarantined: usize,
    fallback_runs: u64,
    stitches: u64,
}

impl Row {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"kernel\": {}, \"point\": {}, \"checksum\": {}, ",
                "\"matches_reference\": {}, \"faults_injected\": {}, ",
                "\"retries\": {}, \"failures\": {}, \"quarantined\": {}, ",
                "\"fallback_runs\": {}, \"stitches\": {}}}"
            ),
            json_str(self.kernel),
            json_str(self.point.name()),
            self.checksum,
            self.matches,
            self.faults_injected,
            self.retries,
            self.failures,
            self.quarantined,
            self.fallback_runs,
            self.stitches,
        )
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let artifact = Artifact::from_args("fault_sweep", &args, "BENCH_fault_sweep.json");

    let scale = if smoke { Scale::Smoke } else { Scale::Paper };
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
        let program = Arc::new(
            Compiler::tiered()
                .compile(w.setup.src)
                .unwrap_or_else(|e| panic!("{} compiles: {e}", w.kernel)),
        );
        let (reference, _) = run(&program, &w.setup, EngineOptions::default());

        // Warm a shared cache for the shared-cache fault points, so the
        // faulted session actually probes populated shards.
        let warmed = Arc::new(SharedCodeCache::new(4, 64));
        let warm_options = EngineOptions {
            shared_cache: Some(Arc::clone(&warmed)),
            ..EngineOptions::default()
        };
        let (warm_checksum, _) = run(&program, &w.setup, warm_options);
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
                    let (populate_checksum, _) = run(&program, &w.setup, populate);
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
            let (checksum, session) = run(&program, &w.setup, options);
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
            rows.push(Row {
                kernel: w.kernel,
                point,
                checksum,
                matches,
                faults_injected: health.faults_injected,
                retries: health.retries,
                failures: health.total_failures,
                quarantined: health.quarantined.len(),
                fallback_runs,
                stitches,
            });
        }
    }

    let objects: Vec<String> = rows.iter().map(Row::json).collect();
    artifact.write_and_check(&render_json_array(&objects), None);
    if bad > 0 {
        eprintln!("fault_sweep: {bad} violation(s) of the robustness invariant");
        std::process::exit(1);
    }
}
