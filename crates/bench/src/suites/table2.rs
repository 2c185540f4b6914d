//! Regenerate the paper's **Table 2**: speedup and breakeven point
//! results for the five kernels. Also writes the machine-readable
//! `BENCH_table2.json` in the current directory so the perf trajectory
//! is tracked across commits.
//!
//! Usage: `bench table2 [--smoke] [--trace] [--faults-idle] [--json <path>] [--check <path>]`
//!
//! Every field is simulated-deterministic, so `--check` against the
//! committed reference catches checksum or cycle-accounting regressions.
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

use crate::driver::{Args, Report};
use crate::{run_all_with, table2_header};
use dyncomp::{EngineOptions, FaultPlan};

pub fn run(args: &Args) -> Report {
    let scale = args.scale;
    let mut options = EngineOptions::default();
    if args.has("--trace") {
        options.trace = true;
    }
    if args.has("--faults-idle") {
        options.faults = Some(FaultPlan::idle());
    }
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
    Report {
        rows: rows.iter().map(crate::KernelResult::row).collect(),
        violations: 0,
    }
}
