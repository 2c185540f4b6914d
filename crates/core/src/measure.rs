//! Measurement harness for the paper's §5 methodology.
//!
//! Compiles the same annotated source twice — once honoring annotations
//! (dynamic compilation) and once ignoring them (the statically compiled,
//! fully optimized baseline) — runs both on identical inputs, and reports
//! the quantities of the paper's Table 2: asymptotic speedup, dynamic
//! compilation overhead split into set-up and stitcher cycles, breakeven
//! point, and cycles per stitched instruction. The per-kernel optimization
//! profile of Table 3 comes from the specializer's and stitcher's
//! counters.

use crate::trace::RegionProfile;
use crate::{Compiler, EngineOptions, Error, Program, RegionReport, Session};
use dyncomp_specialize::SpecStats;
use dyncomp_stitcher::StitchStats;
use std::sync::Arc;

/// How to run one kernel for measurement.
///
/// The closures are `Send + Sync` so one setup can drive many concurrent
/// sessions over a shared `Arc<Program>` (the determinism suite and the
/// `concurrent_throughput` bench).
#[allow(clippy::type_complexity)]
pub struct KernelSetup<'a> {
    /// Annotated MiniC source (compiled both ways).
    pub src: &'a str,
    /// Function to invoke.
    pub func: &'a str,
    /// Executions to measure.
    pub iterations: u64,
    /// Build input data in VM memory; returns values (typically addresses)
    /// that [`KernelSetup::args`] may use.
    pub prepare: Box<dyn Fn(&mut Session) -> Vec<u64> + Send + Sync + 'a>,
    /// Arguments for invocation `i`, given the prepared values.
    pub args: Box<dyn Fn(u64, &[u64]) -> Vec<u64> + Send + Sync + 'a>,
}

/// Everything Table 2 needs for one kernel/configuration row.
#[derive(Clone, Debug)]
pub struct KernelMeasurement {
    /// Executions measured.
    pub iterations: u64,
    /// Statically compiled cycles per execution.
    pub static_cycles: f64,
    /// Dynamically compiled cycles per execution (set-up excluded).
    pub dynamic_cycles: f64,
    /// Asymptotic speedup (static / dynamic).
    pub speedup: f64,
    /// Set-up code cycles (VM-measured, first execution only).
    pub setup_cycles: u64,
    /// Stitcher cycles (cost-model accounted).
    pub stitch_cycles: u64,
    /// Breakeven point: least n where n·static ≥ overhead + n·dynamic
    /// (`None` when the dynamic version is never profitable).
    pub breakeven: Option<u64>,
    /// Instructions the stitcher emitted.
    pub instructions_stitched: u32,
    /// Total overhead cycles per stitched instruction.
    pub cycles_per_stitched_instruction: f64,
    /// Static-side planned-optimization counters (summed over regions).
    pub spec: SpecStats,
    /// Run-time stitcher counters (summed over regions).
    pub stitch: StitchStats,
    /// Sum of the results of every invocation (both versions must agree —
    /// checked by the harness).
    pub checksum: u64,
}

impl KernelMeasurement {
    /// The Table 3 row: which optimizations were applied dynamically.
    pub fn optimizations(&self) -> OptProfile {
        OptProfile {
            constant_folding: self.spec.const_insts_eliminated > 0,
            static_branch_elimination: self.stitch.const_branches_resolved > 0,
            load_elimination: self.spec.loads_eliminated > 0,
            dead_code_elimination: self.stitch.blocks_skipped > 0,
            complete_loop_unrolling: self.stitch.loop_iterations > 0,
            strength_reduction: self.stitch.strength_reductions > 0,
        }
    }
}

/// Which of the paper's Table 3 optimization categories fired (fields in
/// the table's column order).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptProfile {
    /// Run-time constant propagation and folding planned into set-up code.
    pub constant_folding: bool,
    /// Constant branches removed by the stitcher.
    pub static_branch_elimination: bool,
    /// Loads of run-time constants eliminated.
    pub load_elimination: bool,
    /// Unreachable template code skipped.
    pub dead_code_elimination: bool,
    /// Loops completely unrolled.
    pub complete_loop_unrolling: bool,
    /// Value-based peephole strength reduction.
    pub strength_reduction: bool,
}

/// Run one kernel both ways and measure: the static baseline, and the
/// dynamic version compiled by `dynamic_compiler` (analysis ablations,
/// inlining) and run under `engine_options` (ablations: peephole off,
/// fused cost model, register actions).
///
/// # Errors
/// Compilation or execution failure in either version.
///
/// # Panics
/// Panics when the static and dynamic versions disagree on any result —
/// a mismatch is a correctness bug, not an environmental error.
pub fn measure_kernel_full(
    setup: &KernelSetup<'_>,
    dynamic_compiler: &Compiler,
    engine_options: EngineOptions,
) -> Result<KernelMeasurement, Error> {
    let static_prog = Arc::new(Compiler::static_baseline().compile(setup.src)?);
    let static_run = run_session(&static_prog, setup, EngineOptions::default())?;
    let dyn_prog = Arc::new(dynamic_compiler.compile(setup.src)?);
    let dyn_run = run_session(&dyn_prog, setup, engine_options)?;
    assert_eq!(
        static_run.checksum, dyn_run.checksum,
        "static and dynamic versions disagree for {}",
        setup.func
    );

    let mut setup_cycles = 0u64;
    let mut stitch = StitchStats::default();
    for r in &dyn_run.reports {
        setup_cycles += r.setup_cycles;
        stitch += r.stitch_stats;
    }
    let (stitch_cycles, instructions_stitched) = (stitch.cycles, stitch.instructions_stitched);
    let mut spec = SpecStats::default();
    for (_, s) in &dyn_prog.spec_stats {
        spec += *s;
    }

    let n = setup.iterations.max(1) as f64;
    let static_cycles = static_run.call_cycles as f64 / n;
    // Exclude one-time set-up from the asymptotic dynamic cost.
    let dynamic_cycles = dyn_run.call_cycles.saturating_sub(setup_cycles) as f64 / n;
    let speedup = if dynamic_cycles > 0.0 {
        static_cycles / dynamic_cycles
    } else {
        f64::NAN
    };
    let overhead = setup_cycles + stitch_cycles;
    let breakeven = (static_cycles > dynamic_cycles)
        .then(|| (overhead as f64 / (static_cycles - dynamic_cycles)).ceil() as u64);
    let cycles_per_stitched_instruction = match instructions_stitched {
        0 => 0.0,
        n => overhead as f64 / f64::from(n),
    };

    Ok(KernelMeasurement {
        iterations: setup.iterations,
        static_cycles,
        dynamic_cycles,
        speedup,
        setup_cycles,
        stitch_cycles,
        breakeven,
        instructions_stitched,
        cycles_per_stitched_instruction,
        spec,
        stitch,
        checksum: dyn_run.checksum,
    })
}

/// Fold one invocation's result into a running checksum (FNV-style).
/// Every harness and the server fold with this one function, so a served
/// checksum and a harness checksum over the same results are equal by
/// construction.
pub fn fold_checksum(checksum: u64, result: u64) -> u64 {
    checksum.wrapping_mul(1099511628211).wrapping_add(result)
}

/// What one session produced running a kernel workload: everything the
/// determinism suite compares bit-for-bit across threads.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionOutcome {
    /// [`fold_checksum`] over every invocation's result, in order.
    pub checksum: u64,
    /// Simulated cycles spent inside the measured calls.
    pub call_cycles: u64,
    /// The session's final VM cycle counter (calls + data preparation).
    pub total_cycles: u64,
    /// Per-region measurement reports.
    pub reports: Vec<RegionReport>,
}

/// One kernel workload on one live session: a fresh [`Session`] with the
/// workload's data prepared, then any number of [`SessionRun::pass`]es
/// over its invocations. Every `run_session*` entry point is a projection
/// of this; harnesses that want the session afterwards (health, traces,
/// a second pass) use it directly.
pub struct SessionRun<'a> {
    /// The live session.
    pub session: Session,
    /// The outcome so far (cycle totals and reports as of the last pass).
    pub outcome: SessionOutcome,
    setup: &'a KernelSetup<'a>,
    prepared: Vec<u64>,
}

impl<'a> SessionRun<'a> {
    /// Create the session and build the workload's input data in it.
    pub fn start(
        program: &Arc<Program>,
        setup: &'a KernelSetup<'a>,
        options: EngineOptions,
    ) -> Self {
        let mut session = Session::with_options(Arc::clone(program), options);
        let prepared = (setup.prepare)(&mut session);
        SessionRun {
            session,
            outcome: SessionOutcome::default(),
            setup,
            prepared,
        }
    }

    /// Run every invocation of the workload once, in order: args → call →
    /// cycles delta → checksum fold. After each call `per_call` sees the
    /// session and the simulated cycles that call took.
    ///
    /// # Errors
    /// Execution failure (VM fault, stitch failure, unknown function).
    pub fn pass(&mut self, mut per_call: impl FnMut(&Session, u64)) -> Result<(), Error> {
        let (session, setup, out) = (&mut self.session, self.setup, &mut self.outcome);
        for i in 0..setup.iterations {
            let args = (setup.args)(i, &self.prepared);
            let before = session.cycles();
            let r = session.call(setup.func, &args)?;
            let cycles = session.cycles() - before;
            out.call_cycles += cycles;
            out.checksum = fold_checksum(out.checksum, r);
            per_call(session, cycles);
        }
        out.total_cycles = session.cycles();
        out.reports = (0..session.program().region_count())
            .map(|i| session.region_report(i))
            .collect();
        Ok(())
    }
}

/// Run one complete session of a kernel workload over a shared program:
/// fresh [`Session`], prepare data, run every invocation, collect region
/// reports. This is the unit the concurrency harnesses replicate across
/// threads — with default options every replica is bit-identical.
///
/// # Errors
/// As [`SessionRun::pass`], like every `run_session*` below.
pub fn run_session(
    program: &Arc<Program>,
    setup: &KernelSetup<'_>,
    options: EngineOptions,
) -> Result<SessionOutcome, Error> {
    let mut run = SessionRun::start(program, setup, options);
    run.pass(|_, _| {})?;
    Ok(run.outcome)
}

/// A [`run_session`] run with the per-invocation cycle trace kept: what
/// the warm-up/latency analyses consume (time to first result, time to
/// first fast execution, empirical breakeven).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionTrace {
    /// The ordinary session outcome (checksum, cycles, reports).
    pub outcome: SessionOutcome,
    /// Simulated cycles of each invocation, in call order.
    pub per_call_cycles: Vec<u64>,
}

impl SessionTrace {
    /// Effective breakeven against `static_trace`: the least `n` (1-based)
    /// whose cumulative cycles through invocation `n` are at or below the
    /// static baseline's (`None`: not within the measured invocations).
    pub fn breakeven(&self, static_trace: &SessionTrace) -> Option<u64> {
        let (mut cum, mut cum_static) = (0u64, 0u64);
        let mut calls = self
            .per_call_cycles
            .iter()
            .zip(&static_trace.per_call_cycles);
        let n = calls.position(|(&c, &s)| {
            cum += c;
            cum_static += s;
            cum <= cum_static
        })?;
        Some(n as u64 + 1)
    }
}

/// Like [`run_session`], but recording each invocation's cycle cost
/// individually.
///
/// Each invocation is charged the stitcher cycles its traps incurred:
/// synchronous stitching happens on the critical path, so the trace
/// reflects Table 2's overhead accounting (set-up runs on the VM clock
/// already; stitcher cycles are cost-model accounted). Background
/// stitches in tiered mode spend their cycles on worker clocks and are
/// correctly absent from the trace.
pub fn run_session_trace(
    program: &Arc<Program>,
    setup: &KernelSetup<'_>,
    options: EngineOptions,
) -> Result<SessionTrace, Error> {
    let mut run = SessionRun::start(program, setup, options);
    let stitched_so_far = |s: &Session| -> u64 {
        (0..s.program().region_count())
            .map(|i| s.region_report(i).stitch_cycles)
            .sum()
    };
    let mut stitched = stitched_so_far(&run.session);
    let mut per_call_cycles = Vec::with_capacity(setup.iterations as usize);
    run.pass(|session, cycles| {
        let now = stitched_so_far(session);
        per_call_cycles.push(cycles + now - stitched);
        stitched = now;
    })?;
    Ok(SessionTrace {
        outcome: run.outcome,
        per_call_cycles,
    })
}

/// A [`run_session`] run with tracing forced on and the attribution
/// self-check already passed: the observability artifacts the
/// `region_profile` bench and `dyncc --trace-out` consume.
#[derive(Clone, Debug)]
pub struct ProfiledSession {
    /// The ordinary session outcome (checksums, cycles, reports).
    pub outcome: SessionOutcome,
    /// Per-region trace aggregates.
    pub profiles: Vec<RegionProfile>,
    /// The sealed event trace as JSON Lines.
    pub jsonl: String,
    /// The sealed event trace in Chrome `trace_event` JSON.
    pub chrome: String,
    /// Events dropped from the bounded ring (aggregates are exact
    /// regardless).
    pub dropped: u64,
}

/// Like [`run_session`], with [`EngineOptions::trace`] forced on and the
/// cycle-attribution self-check run before returning.
///
/// # Errors
/// Additionally [`Error::Trace`] when the trace-event sums disagree with
/// the [`RegionReport`] counters.
pub fn run_session_profiled(
    program: &Arc<Program>,
    setup: &KernelSetup<'_>,
    mut options: EngineOptions,
) -> Result<ProfiledSession, Error> {
    options.trace = true;
    let mut run = SessionRun::start(program, setup, options);
    run.pass(|_, _| {})?;
    let session = &mut run.session;
    session.trace_self_check()?;
    let jsonl = session.trace_jsonl().expect("tracing forced on");
    let chrome = session.trace_chrome().expect("tracing forced on");
    let trace = session.trace().expect("tracing forced on");
    Ok(ProfiledSession {
        outcome: run.outcome,
        profiles: trace.profiles().to_vec(),
        dropped: trace.dropped(),
        jsonl,
        chrome,
    })
}

/// One backend's half of a [`run_session_differential`] run: the usual
/// session outcome plus host wall-clock and the native-backend counters
/// (all-zero for the VM half).
#[derive(Clone, Debug)]
pub struct BackendRun {
    /// Checksums, simulated cycles, region reports.
    pub outcome: SessionOutcome,
    /// Host nanoseconds spent inside the measured calls (excludes data
    /// preparation).
    pub wall_ns: u64,
    /// Native-backend counters ([`Session::native_report`]).
    pub native: crate::NativeReport,
}

/// A VM-oracle vs native-backend differential run
/// ([`run_session_differential`]). Published only when the two halves
/// agree bit-for-bit on checksum and simulated cycles.
#[derive(Clone, Debug)]
pub struct DifferentialOutcome {
    /// The VM-backend (oracle) half.
    pub vm: BackendRun,
    /// The native-backend half.
    pub native: BackendRun,
}

/// Run a kernel workload like [`run_session`], additionally timing the
/// measured calls in host nanoseconds and collecting the session's
/// native-backend counters.
pub fn run_session_timed(
    program: &Arc<Program>,
    setup: &KernelSetup<'_>,
    options: EngineOptions,
) -> Result<BackendRun, Error> {
    let mut run = SessionRun::start(program, setup, options);
    let start = std::time::Instant::now();
    run.pass(|_, _| {})?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    Ok(BackendRun {
        native: run.session.native_report(),
        outcome: run.outcome,
        wall_ns,
    })
}

/// Run the same kernel workload with [`EngineOptions::native`] off (the
/// VM cycle oracle) and on, over identical key streams, and require the
/// same checksum and the same simulated call and total cycles: the native
/// backend may only change *host* wall-clock. On hosts without the
/// backend the second half runs on the VM too (one `backend-unavailable`
/// health entry), so the comparison is a trivially-equal self-check.
///
/// # Errors
/// Additionally [`Error::Differential`] when the halves disagree.
pub fn run_session_differential(
    program: &Arc<Program>,
    setup: &KernelSetup<'_>,
    options: EngineOptions,
) -> Result<DifferentialOutcome, Error> {
    let with_native = |native| EngineOptions {
        native,
        ..options.clone()
    };
    let vm = run_session_timed(program, setup, with_native(false))?;
    let native = run_session_timed(program, setup, with_native(true))?;
    let simulated = |o: &SessionOutcome| (o.checksum, o.call_cycles, o.total_cycles);
    if simulated(&vm.outcome) != simulated(&native.outcome) {
        return Err(Error::Differential(format!(
            "vm {:?} vs native {:?} (checksum, call cycles, total cycles)",
            simulated(&vm.outcome),
            simulated(&native.outcome)
        )));
    }
    Ok(DifferentialOutcome { vm, native })
}
