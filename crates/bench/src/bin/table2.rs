//! Regenerate the paper's **Table 2**: speedup and breakeven point
//! results for the five kernels. Also writes the machine-readable
//! `BENCH_table2.json` next to the current directory so the perf
//! trajectory is tracked across commits.
//!
//! Usage: `cargo run --release -p dyncomp-bench --bin table2 [--smoke] [--json <path>] [--check <path>]`
//!
//! `--check <path>` compares the freshly rendered JSON against a
//! committed reference byte-for-byte and exits non-zero on any drift —
//! every field is simulated-deterministic, so CI uses this to catch
//! checksum or cycle-accounting regressions.
//!
//! `--trace` runs every kernel with the trace ring enabled. Tracing is
//! observation-only (zero simulated cycles), so the rendered table must
//! be byte-identical with or without it — CI runs the drift gate both
//! ways to enforce that.
//!
//! `--faults-idle` arms the full fault-injection machinery with a plan
//! whose every injection has zero probability: the plan is consulted at
//! every fault point but never fires, so the rendered table must stay
//! byte-identical — the robustness CI job uses this to prove the fault
//! plumbing itself is free.

use dyncomp::{EngineOptions, FaultPlan, TraceOptions};
use dyncomp_bench::{render_table2_json, run_all_with, table2_header, Artifact, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--smoke") {
        Scale::Smoke
    } else {
        Scale::Paper
    };
    let mut options = EngineOptions::default();
    if args.iter().any(|a| a == "--trace") {
        options.trace = Some(TraceOptions::default());
    }
    if args.iter().any(|a| a == "--faults-idle") {
        options.faults = Some(FaultPlan::idle());
    }
    let artifact = Artifact::from_args("table2", &args, "BENCH_table2.json");
    println!("Table 2: Speedup and Breakeven Point Results ({scale:?} scale)");
    println!("{}", table2_header());
    println!("{}", "-".repeat(180));
    let rows = run_all_with(scale, options).unwrap_or_else(|e| {
        eprintln!("benchmark failed: {e}");
        std::process::exit(1);
    });
    for row in &rows {
        println!("{}", row.table2_row());
    }
    println!();
    println!("Columns: speedup (static/dynamic cycles per execution), breakeven point,");
    println!("dynamic compilation overhead as set-up / stitcher cycles (thousands),");
    println!("and overhead cycles per stitched instruction (stitched instruction count).");
    artifact.write_and_check(&render_table2_json(&rows), None);
}
