//! # dyncomp
//!
//! A from-scratch reproduction of **"Fast, Effective Dynamic Compilation"**
//! (Auslander, Philipose, Chambers, Eggers, Bershad — PLDI 1996): staged
//! dynamic compilation for a C subset, targeting a simulated Alpha-like
//! machine with deterministic cycle accounting.
//!
//! The system has two halves, exactly as in the paper:
//!
//! * a **static compiler** ([`Compiler`]) that parses annotated MiniC,
//!   runs the run-time-constants + reachability analyses (§3.1), splits
//!   each `dynamicRegion` into set-up code and machine-code templates
//!   with holes (§3.2), optimizes (§3.3), and generates simalpha code and
//!   stitcher directives (§3.4); and
//! * a **run-time** ([`Session`]) that executes programs on the simulated
//!   machine: the first entry to a dynamic region runs its set-up code,
//!   then the **stitcher** (§4) instantiates the templates into optimized
//!   executable code, which is installed and (for unkeyed regions) wired
//!   in by patching the region entry into a direct branch — "the
//!   dynamically-compiled templates become part of the application".
//!   Regions annotated `key(…)` keep a keyed code cache instead.
//!
//! ## Quick start
//!
//! ```
//! use dyncomp::{Compiler, Session};
//! use std::sync::Arc;
//!
//! let program = Compiler::new().compile(
//!     "int poly(int c, int x) {
//!          dynamicRegion (c) {
//!              return c * x * x + c * x + c;
//!          }
//!      }",
//! )?;
//! let mut session = Session::new(Arc::new(program));
//! assert_eq!(session.call("poly", &[3, 10])?, 333);
//! assert_eq!(session.call("poly", &[3, 1])?, 9); // reuses stitched code
//! let report = session.region_report(0);
//! assert_eq!(report.stitches, 1);
//! // The entry was patched to a branch, so only the first call trapped.
//! assert_eq!(report.invocations, 1);
//! # Ok::<(), dyncomp::Error>(())
//! ```
//!
//! ## Many sessions, one program
//!
//! The compile artifact is immutable and `Send + Sync`: wrap it in an
//! [`Arc`](std::sync::Arc) and any number of [`Session`]s — on any
//! threads — execute it concurrently, each with its own VM and
//! deterministic cycle counts. An optional process-wide
//! [`SharedCodeCache`] lets sessions reuse each other's stitched code.
//!
//! ```
//! use dyncomp::{Compiler, Session};
//! use std::sync::Arc;
//!
//! let program = Arc::new(Compiler::new().compile(
//!     "int poly(int c, int x) {
//!          dynamicRegion (c) {
//!              return c * x * x + c * x + c;
//!          }
//!      }",
//! )?);
//! let results: Vec<u64> = std::thread::scope(|s| {
//!     let handles: Vec<_> = (0..4)
//!         .map(|_| {
//!             let program = Arc::clone(&program);
//!             s.spawn(move || Session::new(program).call("poly", &[3, 10]).unwrap())
//!         })
//!         .collect();
//!     handles.into_iter().map(|h| h.join().unwrap()).collect()
//! });
//! assert_eq!(results, vec![333; 4]);
//! # Ok::<(), dyncomp::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod advisor;
pub mod cache;
pub mod engine;
pub mod faults;
pub mod measure;
pub mod persist;
pub mod server;
pub mod tiered;
pub mod trace;

pub use advisor::{advise, FunctionAdvice, Hypothesis};
pub use cache::{SharedCacheStats, SharedCodeCache, SharedKey};
pub use engine::{EngineOptions, NativeReport, RegionReport, Session};
pub use faults::{
    FailureKind, FailureRecord, FaultPlan, FaultPoint, HealthReport, Injection, RecoveryPolicy,
};
pub use measure::{
    fold_checksum, measure_kernel_full, run_session, run_session_differential,
    run_session_profiled, run_session_timed, run_session_trace, BackendRun, DifferentialOutcome,
    KernelMeasurement, KernelSetup, OptProfile, ProfiledSession, SessionOutcome, SessionRun,
    SessionTrace,
};
pub use persist::{PersistIncident, PersistStats, PersistentCache};
pub use tiered::{KeyPredictor, TieredOptions};
pub use trace::{
    ClockDomain, CycleHistogram, EventKind, RegionProfile, TraceEvent, TraceState, TRACE_RING,
};

/// Region sentinel for native-backend trace events that belong to the
/// whole-static-code instance rather than any dynamic region (it has no
/// [`RegionReport`] row; per-region aggregation skips it).
pub const STATIC_REGION: u16 = u16::MAX;

use dyncomp_analysis::AnalysisConfig;
use dyncomp_codegen::CompiledModule;
use dyncomp_frontend::{FrontendError, LowerOptions, TypeTable};
use dyncomp_ir::{FuncId, Function, Module};
use dyncomp_machine::CycleModel;
use dyncomp_native::Artifact;
use dyncomp_opt::{OptOptions, OptStats};
use dyncomp_specialize::{RegionSpec, SpecError, SpecStats};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Any compilation or execution failure.
#[derive(Debug)]
pub enum Error {
    /// Front-end (parse or lowering) failure.
    Frontend(FrontendError),
    /// IR verification failure (an internal pipeline bug).
    Verify(dyncomp_ir::verify::VerifyError),
    /// Region specialization failure.
    Specialize(SpecError),
    /// Code generation failure.
    Codegen(dyncomp_codegen::CodegenError),
    /// Run-time stitching failure.
    Stitch(dyncomp_stitcher::StitchError),
    /// VM fault.
    Vm(dyncomp_machine::VmError),
    /// Unknown function name.
    NoSuchFunction(String),
    /// Trace self-check failure: cycle attribution summed over trace
    /// events disagrees with the [`RegionReport`] counters.
    Trace(String),
    /// Backend-differential failure: a native-backend run diverged from
    /// the VM oracle (checksum or cycle mismatch — see
    /// [`measure::run_session_differential`]).
    Differential(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Frontend(e) => e.fmt(f),
            Error::Verify(e) => e.fmt(f),
            Error::Specialize(e) => e.fmt(f),
            Error::Codegen(e) => e.fmt(f),
            Error::Stitch(e) => e.fmt(f),
            Error::Vm(e) => e.fmt(f),
            Error::NoSuchFunction(n) => write!(f, "no function named `{n}`"),
            Error::Trace(m) => write!(f, "trace self-check failed: {m}"),
            Error::Differential(m) => write!(f, "backend differential failed: {m}"),
        }
    }
}

impl std::error::Error for Error {}

macro_rules! from_err {
    ($var:ident, $ty:ty) => {
        impl From<$ty> for Error {
            fn from(e: $ty) -> Self {
                Error::$var(e)
            }
        }
    };
}
from_err!(Frontend, FrontendError);
from_err!(Verify, dyncomp_ir::verify::VerifyError);
from_err!(Specialize, SpecError);
from_err!(Codegen, dyncomp_codegen::CodegenError);
from_err!(Stitch, dyncomp_stitcher::StitchError);
from_err!(Vm, dyncomp_machine::VmError);

/// The inliner refuses callees with more placed instructions than this.
const INLINE_MAX_CALLEE_INSTS: usize = 512;
/// The inliner stops growing a function once this many instructions have
/// been cloned into it.
const INLINE_MAX_GROWTH: usize = 4096;

/// One call site the demand-driven inliner expanded (recorded on the
/// [`Program`] artifact for observability: the engine replays these as
/// `Inlined` trace events when the region's set-up code runs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InlineSite {
    /// Function the call site lived in.
    pub func: FuncId,
    /// Global region index (as used by [`Session::region_report`]).
    pub region_index: u16,
    /// The inlined callee.
    pub callee: FuncId,
    /// Callee name, for rendering.
    pub callee_name: String,
    /// Fixpoint round that expanded the site (1-based; bounded by
    /// [`CompileOptions::inline_depth`]).
    pub depth: u32,
    /// Number of instructions cloned into the caller.
    pub cloned_insts: usize,
}

/// Static-compiler configuration.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Honor `dynamicRegion`/`unrolled`/`dynamic` annotations. With
    /// `false`, the same source compiles as plain C — the statically
    /// compiled baseline of the paper's §5 measurements.
    pub dynamic: bool,
    /// Constants/reachability analysis configuration (§3.1 / ablation).
    pub analysis: AnalysisConfig,
    /// Lower a statically compiled fallback copy of each region body so a
    /// tiered engine can run it while set-up + stitching happen on a
    /// background worker ([`TieredOptions`]). Off by default: the default
    /// artifact stays bit-identical to the untiered compiler's output.
    pub tiered_fallback: bool,
    /// Demand-driven inlining through dynamic regions (ROADMAP item 4;
    /// Way & Pollock): the maximum inlining depth, in rounds of the
    /// demand-driven fixpoint.
    ///
    /// At `0` (the default) the pass is off and the pipeline is
    /// bit-identical to earlier releases: calls inside dynamic regions are
    /// compiled as template calls (or rejected if the callee itself
    /// contains regions). Above `0`, after the per-function prep passes
    /// the compiler repeatedly re-runs the run-time-constants analysis
    /// over every region and inlines any call whose arguments include a
    /// run-time constant — the *demand* — so specialization flows through
    /// the callee body. Each round only considers calls that existed
    /// before the round, so the depth bounds the transitive inlining
    /// depth.
    pub inline_depth: u32,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            dynamic: true,
            analysis: AnalysisConfig::default(),
            tiered_fallback: false,
            inline_depth: 0,
        }
    }
}

/// The static compiler.
#[derive(Clone, Debug, Default)]
pub struct Compiler {
    options: CompileOptions,
}

impl Compiler {
    /// A compiler with default options (annotations honored, optimizer on).
    pub fn new() -> Self {
        Compiler {
            options: CompileOptions::default(),
        }
    }

    /// A compiler with explicit options.
    pub fn with_options(options: CompileOptions) -> Self {
        Compiler { options }
    }

    /// A compiler for the static baseline (annotations ignored).
    pub fn static_baseline() -> Self {
        Compiler::with_options(CompileOptions {
            dynamic: false,
            ..Default::default()
        })
    }

    /// A compiler producing a tiered artifact: annotations honored, plus a
    /// statically compiled fallback copy per region for the tiered engine.
    pub fn tiered() -> Self {
        Compiler::with_options(CompileOptions {
            tiered_fallback: true,
            ..Default::default()
        })
    }

    /// A compiler with demand-driven inlining enabled at `depth`
    /// (otherwise default options).
    pub fn with_inline_depth(depth: u32) -> Self {
        Compiler::with_options(CompileOptions {
            inline_depth: depth,
            ..Default::default()
        })
    }

    /// The stable content hash identifying the artifact `compile` would
    /// produce for `src` under these options: FNV-1a-64 over the source
    /// bytes and every option that changes generated code. Unlike
    /// [`Program::id`] (a process-unique counter), this hash is stable
    /// across processes — it keys the [`persist`] on-disk cache.
    pub fn artifact_hash(&self, src: &str) -> u64 {
        let o = &self.options;
        let mut h = dyncomp_ir::fnv::Fnv::new();
        h.bytes(src.as_bytes());
        h.u8(u8::from(o.dynamic));
        // The global optimizer (§3.3) always runs, for the baseline and
        // for dynamic compilation alike, as in the paper; this byte stood
        // for a former on/off option and is hashed as its `true` so
        // persisted artifact ids do not move.
        h.u8(1);
        h.u8(u8::from(o.analysis.use_reachability));
        h.u8(u8::from(o.tiered_fallback));
        h.u64(u64::from(o.inline_depth));
        // Hashed although constant: persisted artifact ids must not move.
        h.u64(INLINE_MAX_CALLEE_INSTS as u64);
        h.u64(INLINE_MAX_GROWTH as u64);
        h.finish()
    }

    /// Compile MiniC source through the full static pipeline.
    ///
    /// # Errors
    /// Reports the first front-end, analysis, specialization or code
    /// generation failure.
    pub fn compile(&self, src: &str) -> Result<Program, Error> {
        self.compile_observed(src, &mut ())
    }

    /// [`Compiler::compile`], also reporting the host time each phase
    /// took (`dyncc --time-passes`).
    ///
    /// # Errors
    /// As [`Compiler::compile`].
    pub fn compile_timed(&self, src: &str) -> Result<(Program, PassTimes), Error> {
        let mut times = PassTimes::default();
        let t0 = Instant::now();
        let program = self.compile_observed(src, &mut times)?;
        times.total_ns = elapsed_ns(t0);
        Ok((program, times))
    }

    /// The static pipeline, with `observer` told of every pass it runs
    /// (see [`PassObserver`]). [`Compiler::compile`] is this with the
    /// no-op observer `()`.
    ///
    /// # Errors
    /// As [`Compiler::compile`].
    pub fn compile_observed<O: PassObserver>(
        &self,
        src: &str,
        observer: &mut O,
    ) -> Result<Program, Error> {
        let scratch = &mut Scratch::default();
        let (mut module, types) = self.lower_and_prep(src, observer, scratch)?;
        let mut specs: Vec<(FuncId, RegionSpec)> = Vec::new();

        // Phase 2: demand-driven inlining through dynamic regions (off at
        // depth 0, leaving phases 1+3 exactly the historical pipeline).
        let inline_sites = if self.options.dynamic && self.options.inline_depth > 0 {
            self.inline_fixpoint(&mut module, observer, scratch)?
        } else {
            Vec::new()
        };

        // Phase 3: per-region specialization and post-split optimization.
        let config = &self.options.analysis;
        for fid in module.funcs.ids() {
            let f = &mut module.funcs[fid];
            let mut template_scope = dyncomp_ir::IdSet::new();
            for rid in f.regions.ids() {
                let mut analysis = on(observer, Phase::Analysis, f, |f| {
                    dyncomp_analysis::analyze_region_with(f, rid, config, &mut scratch.analysis)
                });
                if on(observer, Phase::Specialize, f, |f| {
                    dyncomp_specialize::legalize_dynamic_switches(f, rid, &analysis)
                }) {
                    // New compare-chain blocks exist: restore the
                    // split-critical-edges invariant and refresh the
                    // analysis over the new CFG.
                    on(observer, Phase::CfgVerify, f, |f| {
                        dyncomp_ir::cfg::split_critical_edges(f);
                        dyncomp_ir::verify::verify_with(f, &mut scratch.verify)
                    })?;
                    analysis = on(observer, Phase::Analysis, f, |f| {
                        dyncomp_analysis::analyze_region_with(f, rid, config, &mut scratch.analysis)
                    });
                }
                let spec = on(observer, Phase::Specialize, f, |f| {
                    dyncomp_specialize::specialize_region_with(f, rid, &analysis, &mut scratch.spec)
                })?;
                on(observer, Phase::CfgVerify, f, |f| {
                    dyncomp_ir::verify::verify_with(f, &mut scratch.verify)
                })?;
                for &b in &spec.template_blocks {
                    template_scope.insert(b);
                }
                specs.push((fid, spec));
            }
            if !f.regions.is_empty() {
                // Post-split optimization with the hole barrier (§3.3).
                let opts = OptOptions {
                    cfg_simplify: false,
                    hole_scope: Some(template_scope),
                };
                optimize(observer, f, &opts, &mut scratch.opt);
                on(observer, Phase::CfgVerify, f, |f| {
                    dyncomp_ir::verify::verify_with(f, &mut scratch.verify)
                })?;
            }
        }

        let spec_stats: Vec<(FuncId, SpecStats)> =
            specs.iter().map(|(f, s)| (*f, s.stats)).collect();
        let compiled = pass(observer, Phase::Codegen, None, || {
            dyncomp_codegen::compile_module(&mut module, &specs)
        })?;
        Ok(Program {
            id: NEXT_PROGRAM_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            artifact_hash: self.artifact_hash(src),
            module,
            types,
            compiled,
            spec_stats,
            inline_sites,
            native_snapshots: NativeSnapshots::default(),
        })
    }

    /// The front end, then phase 1: per-function prep (SSA, global
    /// optimization, CFG invariants) of every function. Region-independent,
    /// so it runs for every function before any cross-function work. The
    /// advisor starts from this module too.
    fn lower_and_prep<O: PassObserver>(
        &self,
        src: &str,
        observer: &mut O,
        scratch: &mut Scratch,
    ) -> Result<(Module, TypeTable), Error> {
        let ast = pass(observer, Phase::Parse, None, || {
            dyncomp_frontend::parse(src)
        })
        .map_err(FrontendError::from)?;
        let lowered = pass(observer, Phase::Lower, None, || {
            dyncomp_frontend::lower(
                &ast,
                &LowerOptions {
                    honor_annotations: self.options.dynamic,
                    tiered_fallback: self.options.tiered_fallback,
                },
            )
        })
        .map_err(FrontendError::from)?;
        let mut module = lowered.module;
        for fid in module.funcs.ids() {
            prep_function(&mut module.funcs[fid], observer, scratch)?;
        }
        Ok((module, lowered.types))
    }

    /// Phase 2: the demand-driven inlining fixpoint.
    ///
    /// Per round, for every function with dynamic regions, re-run the
    /// run-time-constants analysis and inline any region call site whose
    /// arguments include a run-time constant (the *demand*: specialization
    /// is blocked at that call and would profit from seeing the callee).
    /// Only call sites that existed before the round are eligible, so
    /// [`CompileOptions::inline_depth`] bounds transitive depth; budgets bound
    /// callee size and total growth. After every step the prep invariants
    /// are re-established and the verifier runs, so a buggy clone fails
    /// compile-time, not stitch-time.
    fn inline_fixpoint<O: PassObserver>(
        &self,
        module: &mut Module,
        observer: &mut O,
        scratch: &mut Scratch,
    ) -> Result<Vec<InlineSite>, Error> {
        let mut sites: Vec<InlineSite> = Vec::new();
        // Instructions cloned into each function so far.
        let mut grown: dyncomp_ir::IndexVec<FuncId, usize> =
            module.funcs.iter().map(|_| 0).collect();
        let region_base = module.region_bases();

        for round in 1..=self.options.inline_depth {
            let mut any = false;
            for fid in module.funcs.ids().collect::<Vec<_>>() {
                if module.funcs[fid].regions.is_empty() {
                    continue;
                }
                // Snapshot: only calls that exist now are eligible this
                // round (clones introduced below wait for the next round).
                let eligible_max = module.funcs[fid].insts.len();
                let mut rejected: Vec<dyncomp_ir::InstId> = Vec::new();
                loop {
                    if grown[fid] >= INLINE_MAX_GROWTH {
                        break;
                    }
                    let Some((rid, block, call, callee)) = self.find_demand(
                        module,
                        fid,
                        eligible_max,
                        &rejected,
                        observer,
                        &mut scratch.analysis,
                    ) else {
                        break;
                    };
                    // The clone is dropped inside the pass too: all of it is
                    // the inliner's work.
                    observer.before(Phase::Inline, Some(&module.funcs[fid]));
                    let (callee_name, inlined) = {
                        let callee_fn = module.funcs[callee].clone();
                        let inlined = dyncomp_ir::inline_call(
                            &mut module.funcs[fid],
                            block,
                            call,
                            &callee_fn,
                        );
                        (callee_fn.name, inlined)
                    };
                    observer.after(Phase::Inline, Some(&module.funcs[fid]));
                    match inlined {
                        Ok(done) => {
                            grown[fid] += done.cloned_insts;
                            sites.push(InlineSite {
                                func: fid,
                                region_index: region_base[fid] + rid.index() as u16,
                                callee,
                                callee_name,
                                depth: round,
                                cloned_insts: done.cloned_insts,
                            });
                            prep_function(&mut module.funcs[fid], observer, scratch)?;
                            any = true;
                        }
                        Err(_refused) => {
                            // Refusals leave the caller untouched; remember
                            // the site so the search moves past it.
                            rejected.push(call);
                        }
                    }
                }
            }
            if !any {
                break;
            }
        }
        pass(observer, Phase::CfgVerify, None, || {
            dyncomp_ir::verify::verify_module(module)
        })?;
        Ok(sites)
    }

    /// Find one call site the region analysis demands inlined: a call
    /// placed in a region block, at least one argument a run-time constant,
    /// callee small enough, not the function itself, not already rejected.
    fn find_demand<O: PassObserver>(
        &self,
        module: &Module,
        fid: FuncId,
        eligible_max: usize,
        rejected: &[dyncomp_ir::InstId],
        observer: &mut O,
        scratch: &mut dyncomp_analysis::AnalysisScratch,
    ) -> Option<(
        dyncomp_ir::RegionId,
        dyncomp_ir::BlockId,
        dyncomp_ir::InstId,
        FuncId,
    )> {
        let f = &module.funcs[fid];
        for rid in f.regions.ids() {
            let analysis = pass(observer, Phase::Analysis, Some(f), || {
                dyncomp_analysis::analyze_region_with(f, rid, &self.options.analysis, scratch)
            });
            // The search, and dropping its analysis, are the inliner's work.
            let found = pass(observer, Phase::Inline, Some(f), || {
                let r = &f.regions[rid];
                for b in r.blocks.iter() {
                    for &i in &f.blocks[b].insts {
                        if i.index() >= eligible_max || rejected.contains(&i) {
                            continue;
                        }
                        let dyncomp_ir::InstKind::Call { callee, args } = f.kind(i) else {
                            continue;
                        };
                        if *callee == fid {
                            continue; // no self-inlining
                        }
                        let Some(target) = module.funcs.get(*callee) else {
                            continue;
                        };
                        if !target.regions.is_empty()
                            || target.placed_inst_count() > INLINE_MAX_CALLEE_INSTS
                        {
                            continue;
                        }
                        let demanded = args
                            .iter()
                            .any(|&a| analysis.is_const(a) || r.const_roots.contains(&a));
                        if demanded {
                            return Some((rid, b, i, *callee));
                        }
                    }
                }
                drop(analysis);
                None
            });
            if found.is_some() {
                return found;
            }
        }
        None
    }
}

/// Phase-1 prep for one function: into SSA, optimize, restore the
/// split-critical-edges invariant, canonicalize region roots, verify.
/// Also used to re-establish the invariants after each inline step.
fn prep_function<O: PassObserver>(
    f: &mut Function,
    observer: &mut O,
    scratch: &mut Scratch,
) -> Result<(), Error> {
    if !f.is_ssa {
        on(observer, Phase::Ssa, f, |f| {
            dyncomp_ir::ssa::construct_ssa_with(f, &mut scratch.ssa)
        });
    }
    let opts = OptOptions {
        cfg_simplify: true,
        hole_scope: None,
    };
    optimize(observer, f, &opts, &mut scratch.opt);
    on(observer, Phase::CfgVerify, f, |f| {
        dyncomp_ir::cfg::split_critical_edges(f);
        f.canonicalize_region_roots();
        dyncomp_ir::verify::verify_with(f, &mut scratch.verify)
    })?;
    Ok(())
}

/// Run `work` as one pass of `phase` over `f`, between the observer's
/// two calls.
fn on<O: PassObserver, T>(
    observer: &mut O,
    phase: Phase,
    f: &mut Function,
    work: impl FnOnce(&mut Function) -> T,
) -> T {
    observer.before(phase, Some(f));
    let out = work(f);
    observer.after(phase, Some(f));
    out
}

/// [`on`] for a pass that only reads `func`, or that works on the source
/// or the whole module (`None`).
fn pass<O: PassObserver, T>(
    observer: &mut O,
    phase: Phase,
    func: Option<&Function>,
    work: impl FnOnce() -> T,
) -> T {
    observer.before(phase, func);
    let out = work();
    observer.after(phase, func);
    out
}

/// One run of the global optimizer on `f`, reported to the observer with
/// its options and counters.
fn optimize<O: PassObserver>(
    observer: &mut O,
    f: &mut Function,
    opts: &OptOptions,
    scratch: &mut dyncomp_opt::OptScratch,
) {
    let stats = on(observer, Phase::Optimize, f, |f| {
        dyncomp_opt::optimize_with(f, opts, scratch)
    });
    observer.optimized(f, opts, &stats);
}

/// A phase of the static compiler, named as the host-time benchmark names
/// its layers (the benchmark times the front end as one
/// `frontend.compile` layer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Parse the source into an AST.
    Parse,
    /// Type-check and lower the AST to IR.
    Lower,
    /// SSA construction.
    Ssa,
    /// The global optimizer, before and after region splitting.
    Optimize,
    /// Edge splitting, root canonicalization and the IR verifier.
    CfgVerify,
    /// The inliner's own work in phase 2: searching for demanded call
    /// sites and cloning callees into them.
    Inline,
    /// The run-time-constants and reachability analyses.
    Analysis,
    /// Switch legalization and region specialization.
    Specialize,
    /// Out of SSA, register allocation and emission.
    Codegen,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 9] = [
        Phase::Parse,
        Phase::Lower,
        Phase::Ssa,
        Phase::Optimize,
        Phase::CfgVerify,
        Phase::Inline,
        Phase::Analysis,
        Phase::Specialize,
        Phase::Codegen,
    ];

    /// The phase's layer name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "frontend.parse",
            Phase::Lower => "frontend.lower",
            Phase::Ssa => "ir.ssa",
            Phase::Optimize => "opt.optimize",
            Phase::CfgVerify => "ir.cfg_verify",
            Phase::Inline => "core.inline",
            Phase::Analysis => "analysis.analyze_region",
            Phase::Specialize => "specialize.region",
            Phase::Codegen => "codegen.compile_module",
        }
    }
}

/// Watches [`Compiler::compile_observed`]: told of every pass the static
/// pipeline runs, the inliner's fixpoint included, in the order it runs
/// them. Every method does nothing by default.
///
/// A pass is one call of `before`, the pass's work, and one call of
/// `after`; nothing else runs between them. The function the pass works
/// on is lent to both, as the pass found it and as it left it; it is
/// `None` for the passes over the source or the whole module (the front
/// end, the module verifier after inlining, and code generation).
///
/// The observer owns none of the pipeline's state: the pass tables a
/// compile keeps stay the compiler's. `()` is the no-op observer
/// [`Compiler::compile`] runs; [`PassTimes`] is the one
/// [`Compiler::compile_timed`] runs.
pub trait PassObserver {
    /// A pass of `phase` is about to run on `func`.
    fn before(&mut self, phase: Phase, func: Option<&Function>) {
        let _ = (phase, func);
    }

    /// The pass of `phase` has run on `func`.
    fn after(&mut self, phase: Phase, func: Option<&Function>) {
        let _ = (phase, func);
    }

    /// A run of the global optimizer on `func` has ended (after its
    /// [`PassObserver::after`]), under `opts` and with counters `stats`.
    fn optimized(&mut self, func: &Function, opts: &OptOptions, stats: &OptStats) {
        let _ = (func, opts, stats);
    }
}

/// The no-op observer: [`Compiler::compile`] runs the pipeline with it,
/// and its calls compile to nothing.
impl PassObserver for () {}

/// Host time of one [`Compiler::compile_timed`], per [`Phase`].
#[derive(Clone, Debug, Default)]
pub struct PassTimes {
    ns: [u64; Phase::ALL.len()],
    total_ns: u64,
    /// Start of the pass under way.
    started: Option<Instant>,
}

impl PassTimes {
    /// Nanoseconds spent in `phase`.
    pub fn ns(&self, phase: Phase) -> u64 {
        self.ns[phase as usize]
    }

    /// Nanoseconds of the whole compile.
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Nanoseconds of the compile no phase accounts for (module
    /// bookkeeping).
    pub fn unattributed_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.ns.iter().sum())
    }
}

/// Charges each pass's host time to its phase.
impl PassObserver for PassTimes {
    fn before(&mut self, _: Phase, _: Option<&Function>) {
        self.started = Some(Instant::now());
    }

    fn after(&mut self, phase: Phase, _: Option<&Function>) {
        if let Some(t0) = self.started.take() {
            self.ns[phase as usize] += elapsed_ns(t0);
        }
    }
}

/// The tables SSA construction, the optimizer, the verifier, the analysis
/// and the specializer keep for one compile: made by `compile_observed`,
/// reset by each pass call and dropped with the compile, so a compile
/// allocates pass tables for its largest function only (DESIGN.md design
/// point 10).
#[derive(Default)]
struct Scratch {
    ssa: dyncomp_ir::ssa::SsaScratch,
    opt: dyncomp_opt::OptScratch,
    verify: dyncomp_ir::verify::VerifyScratch,
    analysis: dyncomp_analysis::AnalysisScratch,
    spec: dyncomp_specialize::SpecScratch,
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A panic payload's message, or `fallback` when it carries no string.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send), fallback: &str) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        fallback.to_string()
    }
}

/// Process-wide program identity source: every compile gets a distinct id
/// so [`SharedCodeCache`] entries from different programs never collide.
static NEXT_PROGRAM_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A fully statically compiled program, ready to run on a [`Session`].
///
/// The compiled artifact is immutable after compilation and `Send +
/// Sync`: wrap it in an `Arc` and any number of sessions — on any threads
/// — can execute it concurrently. All mutable run-time state lives in
/// [`Session`]. The one thing filled in later is a memo of what is a pure
/// function of the artifact: the native translation of its static code
/// ([`Program::native_snapshot`]), made by the first session that needs
/// it and shared by every later one.
#[derive(Debug)]
pub struct Program {
    /// Process-unique identity (see [`Program::id`]).
    id: u64,
    /// Cross-process content identity (see [`Program::artifact_hash`]).
    artifact_hash: u64,
    /// The final IR (post-SSA-destruction; for inspection).
    pub module: Module,
    /// Struct layouts for host-side data construction.
    pub types: TypeTable,
    /// The compiled machine code, templates and region metadata.
    pub compiled: CompiledModule,
    /// Per-region planned-optimization counters (Table 3's static half).
    pub spec_stats: Vec<(FuncId, SpecStats)>,
    /// Call sites expanded by the demand-driven inliner (empty unless
    /// [`CompileOptions::inline_depth`] > 0).
    pub inline_sites: Vec<InlineSite>,
    /// Memoized [`Program::native_snapshot`]s (never persisted).
    native_snapshots: NativeSnapshots,
}

/// The static-code translations made so far, one per (cycle model,
/// guards enabled); in practice one or two entries.
type NativeSnapshots = Mutex<Vec<(CycleModel, bool, Arc<Artifact>)>>;

impl Program {
    /// Entry address of a function (for advanced/VM-level use).
    pub fn entry_of(&self, name: &str) -> Option<u32> {
        self.compiled.entry_of(name)
    }

    /// Number of dynamic regions.
    pub fn region_count(&self) -> usize {
        self.compiled.regions.len()
    }

    /// Check that a session memory of `memory_bytes` holds this
    /// program's data image: its global initializers and float pool,
    /// [`CompiledModule::data_end`] bytes. [`Session::with_options`]
    /// panics on a memory that does not; a front door checks first.
    ///
    /// # Errors
    /// A message naming both sizes.
    pub fn check_memory(&self, memory_bytes: usize) -> Result<(), String> {
        let image = self.compiled.data_end;
        if image > memory_bytes as u64 {
            return Err(format!(
                "the program's data image needs {image} bytes; \
                 the session memory has {memory_bytes}"
            ));
        }
        Ok(())
    }

    /// Process-unique identity, part of every [`SharedKey`]: stitched code
    /// cached by sessions of one program is never served to another.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Stable content identity: a hash of the source and every
    /// code-shaping compile option, identical across processes for
    /// identical inputs. Keys the persistent on-disk cache
    /// ([`PersistentCache`]), where the process-unique [`Program::id`]
    /// would be meaningless.
    pub fn artifact_hash(&self) -> u64 {
        self.artifact_hash
    }

    /// Inline sites recorded for one global region index.
    pub fn inline_sites_for(&self, region_index: u16) -> impl Iterator<Item = &InlineSite> {
        self.inline_sites
            .iter()
            .filter(move |s| s.region_index == region_index)
    }

    /// The whole static code translated as one native instance, for
    /// direct threading: every block leader a dispatch point and chain
    /// target, `Jmp`/`Jsr` through the dispatch table, every region exit
    /// continuation a block leader (a patched exit can only land on a
    /// block head, where the block's fuel and cycles are charged), and,
    /// with `guards`, a patchable guard sled in front of every region's
    /// `EnterRegion`.
    ///
    /// The input is the program's code as compiled — never a session's
    /// live code space, where trap retirement may already have patched
    /// `EnterRegion` words into branches — plus `model` and `guards`, so
    /// the translation is made once per (model, guards) and shared: each
    /// session installs and patches its own copy of the bytes.
    pub fn native_snapshot(&self, model: &CycleModel, guards: bool) -> Arc<Artifact> {
        // Held across the translation: a second session wanting the same
        // snapshot waits for it instead of making the same bytes again.
        let mut memo = self
            .native_snapshots
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some((_, _, a)) = memo.iter().find(|(m, g, _)| m == model && *g == guards) {
            return Arc::clone(a);
        }
        let code = &self.compiled.code;
        let regions = &self.compiled.regions;
        let guards_at = regions
            .iter()
            .filter(|rc| guards && (rc.enter_pc as usize) < code.len())
            .map(|rc| dyncomp_native::GuardSpec {
                pc: rc.enter_pc,
                keys: rc.key_locs.iter().map(engine::keyslot).collect(),
            })
            .collect();
        let spec = dyncomp_native::ChainSpec {
            indirect: true,
            guards: guards_at,
            leaders: regions
                .iter()
                .flat_map(|rc| rc.exit_pcs.iter().copied())
                .collect(),
        };
        let artifact = Arc::new(dyncomp_native::translate_with(code, 0, model, &spec));
        memo.push((model.clone(), guards, Arc::clone(&artifact)));
        artifact
    }
}

// The compile artifact must stay thread-shareable; a non-Sync field
// sneaking into any of its component crates should fail compilation here,
// not at a distant `Arc<Program>` use site.
// Likewise an owned session must stay movable to (and shareable with) a
// worker thread: its VM data memory may be a raw mapping
// (`dyncomp_ir::zeroed`), whose `Send`/`Sync` are asserted by hand there
// and relied on here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Program>();
    assert_send_sync::<Session>();
};

#[cfg(test)]
mod tests;
