//! Persistent-cache warm-start bench: what the crash-safe on-disk
//! artifact and stitched-code cache buys a fresh process, per kernel.
//!
//! For each kernel the harness measures four configurations:
//!
//! * **static** — the statically compiled baseline (the breakeven
//!   reference);
//! * **baseline** — dynamic compilation with no persistent cache;
//! * **cold** — dynamic compilation against a freshly wiped persist
//!   directory: every probe misses, every stitch stores. Probes and
//!   stores are free in the simulated cost model, so this run must be
//!   **bit-identical** to the baseline — same checksum, same
//!   per-invocation cycle trace — or the bench exits non-zero;
//! * **warm** — a fresh session against a *reopened* cache on the same
//!   directory (a new [`PersistentCache`] instance, as a restarted
//!   process would build): the artifact loads without running the front
//!   end and every stitched instance reloads, re-verifies and installs
//!   without running set-up or the stitcher. The checksum must match
//!   the baseline bit-for-bit, the steady-state per-call cost must
//!   equal the baseline's, the first call must be strictly cheaper than
//!   the cold first call, and zero loads may be rejected.
//!
//! Everything is simulated-deterministic: CI runs the bench twice and
//! diffs the JSON (`--check`).
//!
//! Usage: `bench persist_bench [--smoke] [--json <path>] [--check <path>]
//! [--dir <path>]`
//!
//! `--dir` overrides the working directory for the on-disk cache
//! (default: a pid-keyed directory under the OS temp dir, wiped at
//! start and removed at exit).

use crate::driver::{Args, Report};
use crate::kernel_workloads;
use crate::row::Row;
use dyncomp::measure::run_session_trace;
use dyncomp::{Compiler, EngineOptions, PersistentCache, Program};
use std::sync::Arc;

fn persist_options(cache: &Arc<PersistentCache>) -> EngineOptions {
    EngineOptions {
        persist: Some(Arc::clone(cache)),
        ..EngineOptions::default()
    }
}

pub fn run(args: &Args) -> Report {
    let work_dir = args.value(
        "--dir",
        std::env::temp_dir().join(format!("dyncomp-persist-bench-{}", std::process::id())),
    );
    let scale = args.scale;
    println!("Persistent-cache warm start: cold populate vs reopened cache ({scale:?} scale)");
    println!(
        "{:<12} {:<5} | {:>12} | {:>9} | {:>20} | persist counters",
        "kernel", "mode", "1st result", "breakeven", "checksum",
    );
    println!("{}", "-".repeat(110));

    let mut rows: Vec<Row> = Vec::new();
    let mut bad = 0u32;
    for w in kernel_workloads(scale) {
        let compiler = Compiler::new();
        let static_prog = w.compile(&Compiler::static_baseline());
        let baseline_prog = w.compile(&compiler);
        let (kernel, setup) = (w.kernel, w.setup);
        let static_trace = run_session_trace(&static_prog, &setup, EngineOptions::default())
            .unwrap_or_else(|e| panic!("{kernel} static baseline runs: {e}"));

        let baseline = run_session_trace(&baseline_prog, &setup, EngineOptions::default())
            .unwrap_or_else(|e| panic!("{kernel} baseline runs: {e}"));

        // Cold: a wiped directory. Every probe misses; probes and
        // stores are free, so the run must be bit-identical to the
        // baseline.
        let root = work_dir.join(kernel);
        let _ = std::fs::remove_dir_all(&root);
        let cold_cache = Arc::new(
            PersistentCache::open(&root)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", root.display())),
        );
        let (cold_prog, cold_loaded) = cold_cache
            .load_or_compile(&compiler, setup.src)
            .unwrap_or_else(|e| panic!("{kernel} cold compile: {e}"));
        let cold_prog: Arc<Program> = Arc::new(cold_prog);
        let cold = run_session_trace(&cold_prog, &setup, persist_options(&cold_cache))
            .unwrap_or_else(|e| panic!("{kernel} cold run: {e}"));
        let cold_stats = cold_cache.stats();
        let cold_ok = cold.outcome.checksum == baseline.outcome.checksum
            && cold.per_call_cycles == baseline.per_call_cycles
            && !cold_loaded
            && cold_stats.instance_rejects == 0;
        if !cold_ok {
            bad += 1;
            eprintln!(
                "persist_bench: {kernel} cold run is not bit-identical to the \
                 no-persist baseline"
            );
        }

        // Warm: reopen the populated directory with a new cache
        // instance (as a restarted process would) and run a fresh
        // session against it.
        let warm_cache = Arc::new(
            PersistentCache::open(&root)
                .unwrap_or_else(|e| panic!("cannot reopen {}: {e}", root.display())),
        );
        let (warm_prog, warm_loaded) = warm_cache
            .load_or_compile(&compiler, setup.src)
            .unwrap_or_else(|e| panic!("{kernel} warm load: {e}"));
        let warm_prog: Arc<Program> = Arc::new(warm_prog);
        let warm = run_session_trace(&warm_prog, &setup, persist_options(&warm_cache))
            .unwrap_or_else(|e| panic!("{kernel} warm run: {e}"));
        let warm_stats = warm_cache.stats();
        let warm_first = warm.per_call_cycles.first().copied().unwrap_or(0);
        let cold_first = cold.per_call_cycles.first().copied().unwrap_or(0);
        // A warm call is either a pure re-entry (identical stitched
        // code, identical cost) or a first entry for its key, where the
        // cache install replaces set-up + stitching and must only get
        // cheaper — so the warm trace is elementwise ≤ the cold trace,
        // strictly cheaper on invocation 1.
        let warm_ok = warm.outcome.checksum == baseline.outcome.checksum
            && warm_loaded
            && warm_stats.instance_rejects == 0
            && warm_stats.instance_hits > 0
            && warm_first < cold_first
            && warm.per_call_cycles.len() == cold.per_call_cycles.len()
            && warm
                .per_call_cycles
                .iter()
                .zip(cold.per_call_cycles.iter())
                .all(|(w, c)| w <= c);
        if !warm_ok {
            bad += 1;
            eprintln!(
                "persist_bench: {kernel} warm start violated an invariant \
                 (first {warm_first} vs cold {cold_first}, {} hit(s), {} reject(s))",
                warm_stats.instance_hits, warm_stats.instance_rejects
            );
        }
        let _ = std::fs::remove_dir_all(&root);

        // `"cold"` populated the wiped directory; `"warm"` is the reopened
        // cache in a fresh session. `matches_baseline`: the checksum and
        // (for cold) the full cycle trace match the no-persist baseline.
        for (mode, trace, loaded, stats, ok) in [
            ("cold", &cold, cold_loaded, cold_stats, cold_ok),
            ("warm", &warm, warm_loaded, warm_stats, warm_ok),
        ] {
            let first = trace.per_call_cycles.first().copied().unwrap_or(0);
            let breakeven = trace.breakeven(&static_trace);
            println!(
                "{kernel:<12} {mode:<5} | {first:>12} | {:>9} | {:>20} | {:>5} hit {:>5} store {:>3} rej | {}",
                breakeven.map_or("never".to_string(), |x| x.to_string()),
                trace.outcome.checksum,
                stats.instance_hits,
                stats.instance_stores,
                stats.instance_rejects,
                if ok { "ok" } else { "DRIFT" },
            );
            rows.push(
                Row::new()
                    .field("kernel", kernel)
                    .field("mode", mode)
                    .field("iterations", trace.per_call_cycles.len())
                    .field("time_to_first_result", first)
                    .field("effective_breakeven", breakeven)
                    .field("checksum", trace.outcome.checksum)
                    .field("artifact_loaded", loaded)
                    .field("instance_hits", stats.instance_hits)
                    .field("instance_stores", stats.instance_stores)
                    .field("instance_rejects", stats.instance_rejects)
                    .field("matches_baseline", ok),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);

    Report {
        rows,
        violations: bad,
    }
}
