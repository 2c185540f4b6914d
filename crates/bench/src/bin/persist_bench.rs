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
//! Usage: `cargo run --release -p dyncomp-bench --bin persist_bench
//! [--smoke] [--json <path>] [--check <path>] [--dir <path>]`
//!
//! `--dir` overrides the working directory for the on-disk cache
//! (default: a pid-keyed directory under the OS temp dir, wiped at
//! start and removed at exit).

use dyncomp::measure::{run_session_trace, SessionTrace};
use dyncomp::{Compiler, EngineOptions, PersistentCache, Program};
use dyncomp_bench::{flag_value, json_str, kernel_workloads, render_json_array, Artifact, Scale};
use std::sync::Arc;

/// One kernel × mode row of `BENCH_persist.json`.
struct Row {
    kernel: &'static str,
    /// `"cold"` (populating a wiped directory) or `"warm"` (a reopened
    /// cache in a fresh session).
    mode: &'static str,
    iterations: u64,
    /// Cycles of invocation 1.
    time_to_first_result: u64,
    /// Least `n` where cumulative cycles drop to the static baseline's
    /// (`None`: not within the measured invocations).
    effective_breakeven: Option<u64>,
    checksum: u64,
    artifact_loaded: bool,
    instance_hits: u64,
    instance_stores: u64,
    instance_rejects: u64,
    /// Checksum and (for cold) the full cycle trace match the
    /// no-persist baseline.
    matches_baseline: bool,
}

impl Row {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"kernel\": {}, \"mode\": {}, \"iterations\": {}, ",
                "\"time_to_first_result\": {}, \"effective_breakeven\": {}, ",
                "\"checksum\": {}, \"artifact_loaded\": {}, ",
                "\"instance_hits\": {}, \"instance_stores\": {}, ",
                "\"instance_rejects\": {}, \"matches_baseline\": {}}}"
            ),
            json_str(self.kernel),
            json_str(self.mode),
            self.iterations,
            self.time_to_first_result,
            self.effective_breakeven
                .map_or("null".to_string(), |x| x.to_string()),
            self.checksum,
            self.artifact_loaded,
            self.instance_hits,
            self.instance_stores,
            self.instance_rejects,
            self.matches_baseline,
        )
    }

    fn table(&self) -> String {
        format!(
            "{:<12} {:<5} | {:>12} | {:>9} | {:>20} | {:>5} hit {:>5} store {:>3} rej | {}",
            self.kernel,
            self.mode,
            self.time_to_first_result,
            self.effective_breakeven
                .map_or("never".to_string(), |x| x.to_string()),
            self.checksum,
            self.instance_hits,
            self.instance_stores,
            self.instance_rejects,
            if self.matches_baseline { "ok" } else { "DRIFT" },
        )
    }
}

/// Least `n` with `Σ trace(1..=n) ≤ Σ static(1..=n)`.
fn breakeven(trace: &SessionTrace, static_trace: &SessionTrace) -> Option<u64> {
    let mut cum = 0u64;
    let mut cum_static = 0u64;
    for (i, (&c, &s)) in trace
        .per_call_cycles
        .iter()
        .zip(static_trace.per_call_cycles.iter())
        .enumerate()
    {
        cum += c;
        cum_static += s;
        if cum <= cum_static {
            return Some(i as u64 + 1);
        }
    }
    None
}

fn persist_options(cache: &Arc<PersistentCache>) -> EngineOptions {
    EngineOptions {
        persist: Some(Arc::clone(cache)),
        ..EngineOptions::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let artifact = Artifact::from_args("persist_bench", &args, "BENCH_persist.json");
    let work_dir = flag_value("persist_bench", &args, "--dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("dyncomp-persist-bench-{}", std::process::id()))
        });

    let scale = if smoke { Scale::Smoke } else { Scale::Paper };
    println!("Persistent-cache warm start: cold populate vs reopened cache ({scale:?} scale)");
    println!(
        "{:<12} {:<5} | {:>12} | {:>9} | {:>20} | persist counters",
        "kernel", "mode", "1st result", "breakeven", "checksum",
    );
    println!("{}", "-".repeat(110));

    let mut rows: Vec<Row> = Vec::new();
    let mut bad = 0u32;
    for w in kernel_workloads(scale) {
        let (kernel, setup) = (w.kernel, w.setup);
        let static_prog = Arc::new(
            Compiler::static_baseline()
                .compile(setup.src)
                .unwrap_or_else(|e| panic!("{kernel} compiles statically: {e}")),
        );
        let static_trace = run_session_trace(&static_prog, &setup, EngineOptions::default())
            .unwrap_or_else(|e| panic!("{kernel} static baseline runs: {e}"));

        let compiler = Compiler::new();
        let baseline_prog = Arc::new(
            compiler
                .compile(setup.src)
                .unwrap_or_else(|e| panic!("{kernel} compiles: {e}")),
        );
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

        for row in [
            Row {
                kernel,
                mode: "cold",
                iterations: cold.per_call_cycles.len() as u64,
                time_to_first_result: cold_first,
                effective_breakeven: breakeven(&cold, &static_trace),
                checksum: cold.outcome.checksum,
                artifact_loaded: cold_loaded,
                instance_hits: cold_stats.instance_hits,
                instance_stores: cold_stats.instance_stores,
                instance_rejects: cold_stats.instance_rejects,
                matches_baseline: cold_ok,
            },
            Row {
                kernel,
                mode: "warm",
                iterations: warm.per_call_cycles.len() as u64,
                time_to_first_result: warm_first,
                effective_breakeven: breakeven(&warm, &static_trace),
                checksum: warm.outcome.checksum,
                artifact_loaded: warm_loaded,
                instance_hits: warm_stats.instance_hits,
                instance_stores: warm_stats.instance_stores,
                instance_rejects: warm_stats.instance_rejects,
                matches_baseline: warm_ok,
            },
        ] {
            println!("{}", row.table());
            rows.push(row);
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);

    let objects: Vec<String> = rows.iter().map(Row::json).collect();
    artifact.write_and_check(&render_json_array(&objects), None);
    if bad > 0 {
        eprintln!("persist_bench: {bad} violation(s) of the warm-start invariants");
        std::process::exit(1);
    }
}
