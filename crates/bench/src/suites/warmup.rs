//! Warm-up latency analysis: what tiered execution buys before the
//! stitched code pays for itself.
//!
//! For each kernel this module runs the statically compiled baseline and
//! three dynamic configurations — synchronous (the paper's model), tiered,
//! and tiered + speculative — with per-invocation cycle traces, and
//! reports:
//!
//! * **time to first result** — cycles of invocation 1. Synchronous mode
//!   stalls the first invocation on set-up + stitching; tiered mode runs
//!   the statically compiled fallback immediately.
//! * **time to first fast execution** — cumulative cycles up to and
//!   including the first invocation that beats the static baseline (i.e.
//!   actually ran stitched code).
//! * **effective breakeven** — the least `n` with
//!   `Σ mode(1..=n) ≤ Σ static(1..=n)`: the empirical point where the
//!   dynamic configuration has paid for itself. (Table 2's breakeven is
//!   the asymptotic-formula equivalent for the synchronous mode.)
//!
//! The rows are written as `BENCH_warmup.json`.
//!
//! Usage: `bench warmup [--smoke] [--json <path>] [--check <path>]`

use crate::driver::{Args, Report};
use crate::lattice::{self, Mode};
use crate::row::Row;
use crate::{kernel_workloads, Scale};
use dyncomp::measure::{run_session_trace, SessionTrace};
use dyncomp::{Compiler, EngineOptions};

/// One kernel × mode: print its line of the report and return its
/// `BENCH_warmup.json` object.
fn row(kernel: &str, mode: &str, static_trace: &SessionTrace, trace: &SessionTrace) -> Row {
    assert_eq!(
        static_trace.outcome.checksum, trace.outcome.checksum,
        "{kernel}/{mode}: checksum diverged from the static baseline"
    );
    // 1-based index of the first invocation cheaper than the static
    // baseline's same invocation, and the cumulative cycles through it.
    let per_call = &trace.per_call_cycles;
    let mut calls = per_call.iter().zip(&static_trace.per_call_cycles);
    let first_fast = calls.position(|(c, s)| c < s);
    let first_fast_call = first_fast.map(|i| i as u64 + 1);
    let time_to_first_fast = first_fast.map(|i| per_call[..=i].iter().sum::<u64>());
    let effective_breakeven = trace.breakeven(static_trace);
    let sum = |f: &dyn Fn(&dyncomp::RegionReport) -> u64| trace.outcome.reports.iter().map(f).sum();
    let time_to_first_result = trace.per_call_cycles.first().copied().unwrap_or(0);
    // Fallback-copy runs and background installs (tiered modes), and
    // speculative installs (tiered + speculation).
    let (fallback_runs, bg_installs, spec_installs): (u64, u64, u64) = (
        sum(&|r| r.fallback_runs),
        sum(&|r| r.bg_installs),
        sum(&|r| r.spec_installs),
    );
    let never = |v: Option<u64>| v.map_or("never".to_string(), |x| x.to_string());
    println!(
        "{kernel:<18} {mode:<12} | {time_to_first_result:>12} | {:>6} | {:>12} | {:>9} | \
         {fallback_runs:>4} fb {bg_installs:>4} bg {spec_installs:>4} spec",
        never(first_fast_call),
        never(time_to_first_fast),
        never(effective_breakeven),
    );
    Row::new()
        .field("kernel", kernel)
        .field("mode", mode)
        .field("iterations", trace.per_call_cycles.len())
        .field("time_to_first_result", time_to_first_result)
        .field("first_fast_call", first_fast_call)
        .field("time_to_first_fast", time_to_first_fast)
        .field("effective_breakeven", effective_breakeven)
        .field("fallback_runs", fallback_runs)
        .field("bg_installs", bg_installs)
        .field("spec_installs", spec_installs)
        .field("checksum", trace.outcome.checksum)
}

pub fn run(args: &Args) -> Report {
    let scale = args.scale;
    let workers = 1;
    println!("Warm-up latency: sync vs tiered vs tiered+speculative ({scale:?} scale)");
    println!(
        "{:<18} {:<12} | {:>12} | {:>6} | {:>12} | {:>9} | tiered counters",
        "Kernel", "Mode", "1st result", "1st<st", "1st-fast cum", "breakeven",
    );
    println!("{}", "-".repeat(110));
    let mut rows = Vec::new();
    for w in kernel_workloads(scale) {
        if !rows.is_empty() {
            println!();
        }
        // `BENCH_warmup.json` names the two kernels Table 2 runs at two
        // sizes after the size measured here.
        let name = match (w.kernel, scale) {
            ("spmv", Scale::Smoke) => "spmv 12x12",
            ("spmv", Scale::Paper) => "spmv 200x200",
            ("sorter", _) => "sorter 4-key",
            (kernel, _) => kernel,
        };
        let trace = |program, options| {
            run_session_trace(program, &w.setup, options).unwrap_or_else(|e| {
                eprintln!("warmup bench failed: {e}");
                std::process::exit(1);
            })
        };
        // The static baseline every mode is compared against, then the
        // three dynamic modes (the tiered ones share one program with
        // fallback copies).
        let static_prog = w.compile(&Compiler::static_baseline());
        let static_trace = trace(&static_prog, EngineOptions::default());
        let (sync_prog, tiered_prog) =
            (w.compile(&Compiler::new()), w.compile(&Compiler::tiered()));
        let tiered = |speculate| lattice::options(&[Mode::Tiered(workers, speculate)]);
        for (mode, program, options) in [
            ("sync", &sync_prog, EngineOptions::default()),
            ("tiered", &tiered_prog, tiered(false)),
            ("tiered+spec", &tiered_prog, tiered(true)),
        ] {
            rows.push(row(name, mode, &static_trace, &trace(program, options)));
        }
    }
    println!();
    println!("Columns: cycles of invocation 1, first invocation cheaper than the static");
    println!("baseline (and cumulative cycles through it), and the least n where the");
    println!("mode's cumulative cycles drop to the static baseline's. Tiered modes run");
    println!("the statically compiled fallback while one background worker stitches");
    println!("under the deterministic virtual-clock model (see EXPERIMENTS.md).");
    Report {
        rows,
        violations: 0,
    }
}
