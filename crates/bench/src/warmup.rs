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
//! The results are rendered as `BENCH_warmup.json` by the `warmup` binary.

use dyncomp::measure::{run_session_trace, KernelSetup, SessionTrace};
use dyncomp::{Compiler, EngineOptions, Error, TieredOptions};
use std::sync::Arc;

use crate::json_str;

/// One kernel × mode warm-up row.
#[derive(Clone, Debug)]
pub struct WarmupRow {
    /// Kernel name.
    pub kernel: &'static str,
    /// `"sync"`, `"tiered"` or `"tiered+spec"`.
    pub mode: &'static str,
    /// Invocations measured.
    pub iterations: u64,
    /// Cycles of invocation 1 in this mode.
    pub time_to_first_result: u64,
    /// 1-based index of the first invocation cheaper than the static
    /// baseline's same invocation (`None`: never happened).
    pub first_fast_call: Option<u64>,
    /// Cumulative cycles up to and including that invocation.
    pub time_to_first_fast: Option<u64>,
    /// Least `n` where the mode's cumulative cycles drop to or below the
    /// static baseline's (`None`: not within the measured invocations).
    pub effective_breakeven: Option<u64>,
    /// Fallback-copy runs (tiered modes).
    pub fallback_runs: u64,
    /// Background installs (tiered modes).
    pub bg_installs: u64,
    /// Speculative installs (tiered + speculation).
    pub spec_installs: u64,
    /// Result checksum (must match the static baseline).
    pub checksum: u64,
}

impl WarmupRow {
    /// Render as one `BENCH_warmup.json` object.
    pub fn json_object(&self) -> String {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        format!(
            concat!(
                "{{\"kernel\": {}, \"mode\": {}, \"iterations\": {}, ",
                "\"time_to_first_result\": {}, \"first_fast_call\": {}, ",
                "\"time_to_first_fast\": {}, \"effective_breakeven\": {}, ",
                "\"fallback_runs\": {}, \"bg_installs\": {}, ",
                "\"spec_installs\": {}, \"checksum\": {}}}"
            ),
            json_str(self.kernel),
            json_str(self.mode),
            self.iterations,
            self.time_to_first_result,
            opt(self.first_fast_call),
            opt(self.time_to_first_fast),
            opt(self.effective_breakeven),
            self.fallback_runs,
            self.bg_installs,
            self.spec_installs,
            self.checksum,
        )
    }

    /// Render as one line of the human-readable report.
    pub fn table_row(&self) -> String {
        let opt = |v: Option<u64>| v.map_or("never".to_string(), |x| x.to_string());
        format!(
            "{:<18} {:<12} | {:>12} | {:>6} | {:>12} | {:>9} | {:>4} fb {:>4} bg {:>4} spec",
            self.kernel,
            self.mode,
            self.time_to_first_result,
            opt(self.first_fast_call),
            opt(self.time_to_first_fast),
            opt(self.effective_breakeven),
            self.fallback_runs,
            self.bg_installs,
            self.spec_installs,
        )
    }
}

/// The report header matching [`WarmupRow::table_row`].
pub fn warmup_header() -> String {
    format!(
        "{:<18} {:<12} | {:>12} | {:>6} | {:>12} | {:>9} | tiered counters",
        "Kernel", "Mode", "1st result", "1st<st", "1st-fast cum", "breakeven",
    )
}

fn tiered_engine(workers: usize, speculate: bool) -> EngineOptions {
    EngineOptions {
        tiered: Some(TieredOptions { workers, speculate }),
        ..EngineOptions::default()
    }
}

fn row(
    kernel: &'static str,
    mode: &'static str,
    static_trace: &SessionTrace,
    trace: &SessionTrace,
) -> WarmupRow {
    assert_eq!(
        static_trace.outcome.checksum, trace.outcome.checksum,
        "{kernel}/{mode}: checksum diverged from the static baseline"
    );
    let mut first_fast_call = None;
    let mut time_to_first_fast = None;
    let mut effective_breakeven = None;
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
        if first_fast_call.is_none() && c < s {
            first_fast_call = Some(i as u64 + 1);
            time_to_first_fast = Some(cum);
        }
        if effective_breakeven.is_none() && cum <= cum_static {
            effective_breakeven = Some(i as u64 + 1);
        }
    }
    let sum = |f: &dyn Fn(&dyncomp::RegionReport) -> u64| trace.outcome.reports.iter().map(f).sum();
    WarmupRow {
        kernel,
        mode,
        iterations: trace.per_call_cycles.len() as u64,
        time_to_first_result: trace.per_call_cycles.first().copied().unwrap_or(0),
        first_fast_call,
        time_to_first_fast,
        effective_breakeven,
        fallback_runs: sum(&|r| r.fallback_runs),
        bg_installs: sum(&|r| r.bg_installs),
        spec_installs: sum(&|r| r.spec_installs),
        checksum: trace.outcome.checksum,
    }
}

/// Measure one kernel in all three dynamic modes (plus the static
/// baseline they are compared against). `workers` is the tiered worker
/// count.
///
/// # Errors
/// Compilation or execution failure in any configuration.
pub fn measure_warmup(
    kernel: &'static str,
    setup: &KernelSetup<'_>,
    workers: usize,
) -> Result<Vec<WarmupRow>, Error> {
    let static_prog = Arc::new(Compiler::static_baseline().compile(setup.src)?);
    let static_trace = run_session_trace(&static_prog, setup, EngineOptions::default())?;

    let sync_prog = Arc::new(Compiler::new().compile(setup.src)?);
    let tiered_prog = Arc::new(Compiler::tiered().compile(setup.src)?);

    let sync = run_session_trace(&sync_prog, setup, EngineOptions::default())?;
    let tiered = run_session_trace(&tiered_prog, setup, tiered_engine(workers, false))?;
    let spec = run_session_trace(&tiered_prog, setup, tiered_engine(workers, true))?;

    Ok(vec![
        row(kernel, "sync", &static_trace, &sync),
        row(kernel, "tiered", &static_trace, &tiered),
        row(kernel, "tiered+spec", &static_trace, &spec),
    ])
}

/// Run the full warm-up suite at the given scale.
///
/// # Errors
/// Propagates the first kernel failure.
pub fn run_warmup(scale: crate::Scale) -> Result<Vec<WarmupRow>, Error> {
    let workers = 1;
    let mut rows = Vec::new();
    for w in crate::kernel_workloads(scale) {
        // `BENCH_warmup.json` names the two kernels Table 2 runs at two
        // sizes after the size measured here.
        let name = match (w.kernel, scale) {
            ("spmv", crate::Scale::Smoke) => "spmv 12x12",
            ("spmv", crate::Scale::Paper) => "spmv 200x200",
            ("sorter", _) => "sorter 4-key",
            (kernel, _) => kernel,
        };
        rows.extend(measure_warmup(name, &w.setup, workers)?);
    }
    Ok(rows)
}

/// Render the rows as the `BENCH_warmup.json` document.
pub fn render_warmup_json(rows: &[WarmupRow]) -> String {
    let objects: Vec<String> = rows.iter().map(WarmupRow::json_object).collect();
    crate::render_json_array(&objects)
}
