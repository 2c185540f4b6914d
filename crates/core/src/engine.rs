//! The run-time: executes compiled programs on the simulated machine,
//! servicing dynamic-compilation traps.
//!
//! The compile artifact ([`Program`]) is immutable and thread-shareable;
//! all mutable run-time state lives in a [`Session`] — its own VM (code
//! space, registers, data memory, cycle counter), per-region bookkeeping
//! and keyed code cache. Many sessions can therefore run the same
//! `Arc<Program>` concurrently, each with deterministic, bit-identical
//! simulated results. [`Engine`] is a thin compatibility alias
//! (`Session<&Program>`) for single-owner callers.
//!
//! On the first entry to a dynamic region the session redirects execution
//! to the region's set-up code (measured in VM cycles, like everything the
//! program itself runs); at the `EndSetup` trap it invokes the stitcher on
//! the filled constants table, installs the stitched code at the end of
//! the code space, and resumes there. Unkeyed regions then have their
//! `EnterRegion` instruction patched into a direct branch, so later
//! executions pay only a branch — the paper's "the dynamically-compiled
//! templates become part of the application". Keyed regions keep the trap
//! and pay a cache-lookup cost per entry, with one stitched instance per
//! distinct key tuple.
//!
//! # Mode interactions
//!
//! An entry the session's own cache cannot serve walks one ladder
//! (`probe_caches`): the process-wide [`SharedCodeCache`], the on-disk
//! [`PersistentCache`], then the session's own set-up + stitch. *Where*
//! it probes depends on what identifies an instance:
//!
//! | tier                           | keyed region        | unkeyed region                |
//! |--------------------------------|---------------------|-------------------------------|
//! | session cache                  | at the trap, by key | trap retired at first install |
//! | `shared_cache`, then `persist` | at the trap, by key | after set-up, reads replayed  |
//! | stitch (or background stitch)  | after set-up        | after set-up                  |
//!
//! A key tuple *is* the instance's identity, readable at the trap, so a
//! keyed hit skips set-up and stitching. An unkeyed region's identity is
//! the run-time constants its set-up code has yet to produce: an entry
//! filed under the empty key would alias instances specialized to
//! different constants across sessions (silently wrong results). Unkeyed
//! regions therefore probe at `EndSetup`, and accept a cached instance
//! only when replaying the publishing stitch's recorded table reads
//! ([`dyncomp_stitcher::Stitched::reads`]) against this session's memory
//! reproduces every value: a local stitch would then walk the same
//! template paths and bake in the same constants.
//!
//! Code this session did not stitch (either cache, a background stitch)
//! enters through one choke-point, `copy_install`: relocate, re-verify,
//! charge per word, append. A refusal degrades to the next rung, never to
//! an error. The other rules that couple two options:
//!
//! - A shared-cache probe charges [`SHARED_LOOKUP_CYCLES`], hit or miss;
//!   disk traffic is free and a persistent hit charges the shared-cache
//!   model, so cold runs are bit-identical with `persist` on or off.
//! - Tiering needs a fallback copy
//!   ([`crate::CompileOptions::tiered_fallback`]); regions without one
//!   stitch synchronously.
//! - A guard-sled hit bypasses the trap handler, so `native_chain`'s
//!   guards are off under tiering (the key predictor feeds on traps) and
//!   under a `keyed_cache_capacity` bound (hits touch the LRU).
//! - Persisted native bytes are position-dependent: reused only when
//!   installing at the publisher's base, re-translated otherwise.

use crate::cache::{LruOrder, SharedCodeCache, SharedKey};
use crate::faults::{
    FailureKind, FailureRecord, FaultPlan, FaultPoint, FaultState, HealthReport, RecoveryPolicy,
    RecoveryState,
};
use crate::persist::{InstanceProbe, PersistentCache, StoreOutcome};
use crate::tiered::{TierDecision, TieredOptions, TieredState};
use crate::trace::{ClockDomain, EventKind, RegionProfile, TraceOptions, TraceState};
use crate::{Error, Program};
use dyncomp_ir::eval::EvalError;
use dyncomp_ir::fxhash::FxHashMap;
use dyncomp_machine::heap::HeapBuilder;
use dyncomp_machine::isa::{decode, encode, Inst, Op, CTP, SP};
use dyncomp_machine::template::ValueLoc;
use dyncomp_machine::verify::verify_code;
use dyncomp_machine::vm::{Stop, Vm, VmError};
use dyncomp_stitcher::{StitchOptions, StitchStats, Stitched};
use std::borrow::Borrow;
use std::sync::Arc;
use std::time::Instant;

/// Session configuration.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Data memory size in bytes.
    pub memory_bytes: usize,
    /// Stitcher options (peephole, linearized table, cost model).
    pub stitch: StitchOptions,
    /// Maximum stitched instances kept per keyed region (`None` =
    /// unbounded, the paper's model). When the cache is full the
    /// least-recently-entered key is evicted: its mapping is dropped and
    /// the region re-stitches on the next entry with that key. Code space
    /// itself is append-only (stitched code "becomes part of the
    /// application"), so eviction reclaims cache slots, not code words.
    pub keyed_cache_capacity: Option<usize>,
    /// Process-wide stitched-code cache shared between sessions. `None`
    /// (the default) keeps today's per-session caching and its exact
    /// simulated-cycle accounting — the mode the paper tables are measured
    /// in. With a cache, an instance some other session already stitched
    /// is installed (bulk copy + relocation) instead of running the
    /// stitcher. Where keyed and unkeyed regions probe, and what each hit
    /// charges: module docs, "Mode interactions".
    pub shared_cache: Option<Arc<SharedCodeCache>>,
    /// Tiered execution: on a cold region entry, run the statically
    /// compiled fallback copy while a background worker stitches (see
    /// [`crate::tiered`]). `None` (the default) keeps fully synchronous
    /// set-up + stitching and bit-identical accounting to the paper
    /// tables. Needs a per-region fallback copy (module docs, "Mode
    /// interactions").
    pub tiered: Option<TieredOptions>,
    /// Structured tracing ([`crate::trace`]). `None` (the default) records
    /// nothing and allocates nothing. When set, every region-lifecycle
    /// transition is recorded as a cycle-stamped [`crate::TraceEvent`];
    /// tracing charges **zero** simulated cycles, so all cycle accounting
    /// is identical with it on or off.
    pub trace: Option<TraceOptions>,
    /// Deterministic fault-injection plan ([`crate::faults`]). `None`
    /// (the default) disables injection entirely — no state is allocated
    /// and no fault point costs anything, so the paper tables never see
    /// this machinery. A seeded plan makes every fallible layer fail on a
    /// deterministic, exactly repeatable schedule.
    pub faults: Option<FaultPlan>,
    /// Recovery policy: capped retry with virtual-cycle backoff,
    /// per-region quarantine, and the stitched-code byte-budget
    /// degradation ladder. Always present; with no failures and no byte
    /// budget it charges nothing.
    pub recovery: RecoveryPolicy,
    /// Host-native copy-and-patch backend: translate every installed
    /// instance to pre-assembled x86-64 stubs in an executable arena and
    /// dispatch region entries there, falling back to the VM for
    /// unsupported instructions (see `crates/native`). The VM remains the
    /// cycle oracle: native execution charges the *identical* simulated
    /// cycles and fuel, so checksums and cycle counts are bit-identical
    /// with this on or off — only host wall-clock changes. On hosts
    /// without the backend (non-x86-64, W^X mapping refused) the session
    /// records one `backend-unavailable` health entry and runs entirely
    /// on the VM. Off by default.
    pub native: bool,
    /// Crash-safe on-disk cache for stitched instances
    /// ([`crate::persist`]). `None` (the default) keeps everything
    /// in-process. When set, the rung below the shared cache is an
    /// instance published by an earlier *process*, and every freshly
    /// stitched instance is stored for the next one. Loaded files are
    /// untrusted: they re-pass `verify_code` before install, and any
    /// corruption degrades to a local stitch with a typed health entry.
    /// Probe points and accounting: module docs, "Mode interactions".
    pub persist: Option<Arc<PersistentCache>>,
    /// Direct-threaded native dispatch (only meaningful with `native`):
    /// the whole static code region is installed as one native instance,
    /// `Jmp`/`Jsr` lower through a pc → host-entry dispatch table, and
    /// after each install the exit blobs of covered instances are
    /// back-patched into direct jumps, so hot control flow transfers
    /// between native instances without bouncing through the VM loop.
    /// Keyed `EnterRegion` traps additionally get patchable monomorphic
    /// inline-cache guards (unless another option needs the trap — module
    /// docs, "Mode interactions"). Chained transfers charge *exactly* the
    /// simulated cycles and fuel the VM-dispatched path would, so all
    /// simulated quantities stay bit-identical. On by default; `false`
    /// reproduces the PR 6 one-instance-per-dispatch behaviour (the
    /// `--no-native-chain` ablation).
    pub native_chain: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            memory_bytes: 1 << 24,
            stitch: StitchOptions::default(),
            keyed_cache_capacity: None,
            shared_cache: None,
            tiered: None,
            trace: None,
            faults: None,
            recovery: RecoveryPolicy::default(),
            native: false,
            persist: None,
            native_chain: true,
        }
    }
}

// ---- The engine's share of the simulated clock ----
//
// Everything the program itself runs is priced by the VM's
// `dyncomp_machine::CycleModel`, and every stitcher action by
// `dyncomp_stitcher::StitchCost`. What is left — the work the run-time
// does between the two — is charged here and nowhere else. These are
// constants, not options: nothing ever measured a second value, and the
// committed `BENCH_*.json` artifacts pin these ones.

/// Cycles charged for an `EnterRegion` trap serviced by the runtime.
pub const TRAP_CYCLES: u64 = 18;
/// Cycles charged for a keyed code-cache lookup, on top of
/// [`PER_KEY_CYCLES`] per key word. Models the O(1) hashed lookup the
/// session implements (one hash-bucket probe plus an O(1) LRU splice);
/// see EXPERIMENTS.md for the recalibration from the earlier
/// linear-probe model.
pub const KEYED_LOOKUP_CYCLES: u64 = 16;
/// Per-key-word hash-and-compare cycles in the keyed lookup.
pub const PER_KEY_CYCLES: u64 = 4;
/// Cycles charged per shared-cache probe (hash + stripe lock + bucket
/// walk), hit or miss; a persistent-cache hit charges the same.
pub const SHARED_LOOKUP_CYCLES: u64 = 30;
/// Cycles charged per code word by `copy_install` (the bulk copy + patch
/// relocation of an instance this session did not stitch).
pub const SHARED_INSTALL_CYCLES_PER_WORD: u64 = 1;
/// Cycles the session is charged per background stitch job it enqueues
/// (snapshotting and queuing in the trap handler; [`crate::tiered`]).
pub const DISPATCH_CYCLES: u64 = 25;
/// Virtual-cycle backoff charged per retry, scaled linearly by the
/// attempt number (attempt `n` charges `n * RETRY_BACKOFF_CYCLES`).
pub const RETRY_BACKOFF_CYCLES: u64 = 200;

/// Native dispatches within a single `call` before the whole-static-code
/// instance is installed (chain mode). Kernels that bounce between
/// native instances and the VM loop cross this within their first
/// post-install call; kernels that enter native once per call never do,
/// and never pay the snapshot's one-time translate cost. Purely a
/// host-side heuristic: simulated cycles are identical either way.
const STATIC_CHAIN_THRESHOLD: u64 = 4;

/// Per-session state of the host-native backend (`Some` iff
/// [`EngineOptions::native`] was set). All counters are host-side
/// bookkeeping: nothing here charges simulated cycles.
#[derive(Default)]
struct NativeState {
    /// Installed instances and their executable arena.
    backend: dyncomp_native::Backend,
    /// Set after an install-layer failure (unsupported host, mapping
    /// refused): no further installs are attempted this session.
    disabled: bool,
    /// Whether the `backend-unavailable` health entry was recorded (it
    /// is recorded at most once per session).
    reported: bool,
    /// Artifact pre-translated by `end_setup` (so the published
    /// [`Stitched`] carries its native footprint), keyed by install base
    /// and consumed by `index_instance`.
    pending: Option<(u32, dyncomp_native::Artifact)>,
    /// The session-accumulated counters of [`Session::native_report`]
    /// (`enabled`, `active`, `chained` and `bytes` are read off the
    /// backend when the report is taken).
    counters: NativeReport,
    /// Whether the whole-static-code instance install was attempted
    /// (chain mode; tried once, lazily, when a single call shows
    /// repeated native dispatches — the VM-bounce pattern chaining
    /// exists to collapse).
    static_attempted: bool,
    /// Value of `counters.entries` when the current `call` started; the
    /// install heuristic compares against it to detect repeated
    /// dispatches within one call.
    call_entries: u64,
    /// pcs marked for native dispatch, per install base — retired when
    /// the instance is severed so the VM never bounces on a dead pc.
    marks: FxHashMap<u32, Vec<u32>>,
    /// Install base → owning region ([`crate::STATIC_REGION`] for the
    /// static-code instance), for attributing chained transfers.
    region_of: FxHashMap<u32, u16>,
    /// Direct transfers attributed to the static-code instance (it has
    /// no per-region report row).
    static_chained: u64,
}

/// Host-native backend counters ([`Session::native_report`]). All
/// wall-clock figures are host-side measurements; the simulated cycle
/// accounting is byte-identical with the backend on or off.
#[derive(Clone, Copy, Debug, Default)]
pub struct NativeReport {
    /// Whether the backend was requested ([`EngineOptions::native`]).
    pub enabled: bool,
    /// Whether it is serving dispatches (requested, host-supported, and
    /// not disabled by an install failure).
    pub active: bool,
    /// Instances installed into the executable arena.
    pub installs: u64,
    /// Instances declined because their entry instruction does not lower
    /// natively (they stay on the VM backend).
    pub declined: u64,
    /// Native dispatches served through the VM loop that made progress
    /// (a bail-out straight back to the dispatch pc does not count).
    pub entries: u64,
    /// Direct (chained) transfers between native instances: back-patched
    /// exit jumps, dispatch-table `Jmp`/`Jsr`, and guard hits. Zero when
    /// [`EngineOptions::native_chain`] is off.
    pub chained: u64,
    /// Host bytes currently installed in the arena.
    pub bytes: u64,
    /// Host nanoseconds spent translating instances.
    pub translate_ns: u64,
    /// SimAlpha instructions translated.
    pub translated_instructions: u64,
    /// Of those, how many lowered to native stubs (the rest route to the
    /// VM at run time).
    pub covered_instructions: u64,
}

/// A keyed-cache entry: where the instance was installed and which LRU
/// slot tracks its recency.
#[derive(Clone, Copy, Debug)]
struct CacheEntry {
    /// Code address of the stitched instance.
    base: u32,
    /// Index into the region's [`LruOrder`] (`usize::MAX` for unkeyed
    /// regions, which never take the lookup path after their trap is
    /// patched away).
    lru: usize,
}

/// Per-region run-time bookkeeping.
#[derive(Debug, Default)]
struct RegionState {
    /// Stitched instances by key tuple (unkeyed regions use the empty
    /// key). The key hash is computed once per entry; [`FxHashMap`] keeps
    /// the per-lookup constant small.
    cache: FxHashMap<Vec<u64>, CacheEntry>,
    /// Recency order over `cache` (for bounded caches).
    lru: LruOrder<Vec<u64>>,
    /// Constants-table address of every stitch performed, in stitch order
    /// (for [`Session::restitch_all`]). Instances installed from the
    /// shared cache have no constants table in this session and are not
    /// recorded here.
    tables: Vec<u64>,
    /// Every stitched instance ever installed: (key, code base, length in
    /// words). Survives eviction — code space is append-only.
    instances: Vec<(Vec<u64>, u32, u32)>,
    /// Key recorded at `EnterRegion`, consumed at `EndSetup`.
    pending_key: Option<Vec<u64>>,
    /// Cycle counter value when set-up started.
    setup_start: u64,
    /// Every per-region counter, kept in the shape it is reported in
    /// ([`Session::region_report`] is a copy).
    report: RegionReport,
}

/// Per-region measurement report (feeds Table 2 / Table 3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionReport {
    /// Region entries observed by the session.
    pub invocations: u64,
    /// Times the region was dynamically compiled *by this session*.
    pub stitches: u32,
    /// Instances installed from the shared cache instead of stitching.
    pub shared_hits: u64,
    /// Instances installed from the persistent on-disk cache instead of
    /// stitching (zero without [`EngineOptions::persist`]).
    pub persist_hits: u64,
    /// Persistent-cache probes that found nothing usable.
    pub persist_misses: u64,
    /// Persistent-cache files refused and degraded to a local stitch.
    pub persist_rejects: u64,
    /// VM cycles spent in set-up code.
    pub setup_cycles: u64,
    /// Simulated stitcher cycles.
    pub stitch_cycles: u64,
    /// Instructions the stitcher emitted.
    pub instructions_stitched: u32,
    /// Accumulated stitcher counters.
    pub stitch_stats: StitchStats,
    /// Keyed-cache entries evicted to respect
    /// [`EngineOptions::keyed_cache_capacity`].
    pub evictions: u64,
    /// Entries that ran the fallback copy while a background stitch was in
    /// flight (tiered mode; zero in synchronous mode).
    pub fallback_runs: u64,
    /// Instances installed from background workers (tiered mode).
    pub bg_installs: u64,
    /// Of `bg_installs`, those stitched speculatively from a predicted
    /// key.
    pub spec_installs: u64,
    /// Set-up cycles spent on background forks (worker virtual clocks;
    /// never added to `setup_cycles`).
    pub bg_setup_cycles: u64,
    /// Stitch cycles spent on background forks (never added to
    /// `stitch_cycles`).
    pub bg_stitch_cycles: u64,
    /// Faults the plan injected into this region (zero without a plan).
    pub faults_injected: u64,
    /// Recovery retries charged against this region.
    pub retries: u64,
    /// Compile-time inline sites replayed by this session's synchronous
    /// stitches ([`crate::Program::inline_sites`] × stitches).
    pub inlined_calls: u64,
    /// Direct (chained) native transfers taken by dispatches that entered
    /// through this region's instances (zero without `native_chain`).
    pub native_chained: u64,
}

/// One execution session over a shared, immutable [`Program`].
///
/// `P` is how the session holds the program: `Arc<Program>` (the default;
/// sessions on several threads share one artifact) or `&Program` (the
/// [`Engine`] compatibility alias). All mutable state — the VM, region
/// bookkeeping, the keyed code cache — is owned by the session, so
/// `Session<Arc<Program>>` is `Send` and sessions never contend except on
/// an explicitly configured [`SharedCodeCache`].
pub struct Session<P: Borrow<Program> = Arc<Program>> {
    program: P,
    /// The simulated machine (public for harnesses that need cycle counts
    /// or direct memory access).
    pub vm: Vm,
    options: EngineOptions,
    regions: Vec<RegionState>,
    /// Background stitch state; `Some` iff [`EngineOptions::tiered`] was
    /// configured.
    tiered: Option<TieredState>,
    /// Trace state; `Some` iff [`EngineOptions::trace`] was configured.
    /// Boxed: the common untraced path carries one pointer, not the ring.
    trace: Option<Box<TraceState>>,
    /// Fault-injection state; `Some` iff [`EngineOptions::faults`] was
    /// configured. Boxed for the same reason as `trace`.
    faults: Option<Box<FaultState>>,
    /// Recovery bookkeeping: the bounded failure ring, per-region
    /// quarantine, the byte-budget ladder.
    recovery: RecoveryState,
    /// Host-native backend state; `Some` iff [`EngineOptions::native`]
    /// was set. Boxed: the default VM-only path carries one pointer.
    native: Option<Box<NativeState>>,
    /// Set once the `engine-state` health entry for a lost native state
    /// has been recorded (it is recorded at most once per session).
    native_lost: bool,
}

/// Single-owner compatibility alias: a [`Session`] borrowing the program.
///
/// Existing `Engine::new(&program)` callers keep working unchanged;
/// multi-session callers migrate to `Session::new(Arc<Program>)`.
pub type Engine<'p> = Session<&'p Program>;

impl<P: Borrow<Program>> Session<P> {
    /// A session with default options.
    pub fn new(program: P) -> Self {
        Self::with_options(program, EngineOptions::default())
    }

    /// A session with explicit options.
    pub fn with_options(program: P, options: EngineOptions) -> Self {
        let p = program.borrow();
        let mut vm = Vm::new(options.memory_bytes);
        dyncomp_codegen::install(&p.compiled, &p.module, &mut vm);
        let regions = (0..p.compiled.regions.len())
            .map(|_| RegionState::default())
            .collect();
        let trace = options
            .trace
            .as_ref()
            .map(|t| Box::new(TraceState::new(t, p.compiled.regions.len())));
        let tiered = options
            .tiered
            .clone()
            .map(|t| TieredState::new(&p.compiled.regions, t, trace.is_some()));
        let faults = options
            .faults
            .as_ref()
            .map(|plan| Box::new(FaultState::new(plan)));
        let recovery = RecoveryState::new(options.recovery.clone(), p.compiled.regions.len());
        let native = options.native.then(Box::<NativeState>::default);
        Session {
            program,
            vm,
            options,
            regions,
            tiered,
            trace,
            faults,
            recovery,
            native,
            native_lost: false,
        }
    }

    /// The program this session executes.
    pub fn program(&self) -> &Program {
        self.program.borrow()
    }

    /// Build data structures in VM memory.
    pub fn heap(&mut self) -> HeapBuilder<'_> {
        HeapBuilder::new(&mut self.vm.mem)
    }

    /// Call a function by name with raw-bit arguments; returns `r0`.
    ///
    /// # Errors
    /// VM faults, stitching failures, unknown names.
    pub fn call(&mut self, name: &str, args: &[u64]) -> Result<u64, Error> {
        if let Some(ns) = self.native.as_deref_mut() {
            // Call boundary for the static-instance install heuristic:
            // only repeated dispatches *within* one call count as the
            // bounce pattern worth paying the snapshot translate for.
            ns.call_entries = ns.counters.entries;
        }
        let entry = self
            .program
            .borrow()
            .compiled
            .entry_of(name)
            .ok_or_else(|| Error::NoSuchFunction(name.to_string()))?;
        self.vm.setup_call(entry, args)?;
        self.run_to_halt()?;
        Ok(self.vm.reg(0))
    }

    /// Call a double-returning function; returns `f0`.
    ///
    /// # Errors
    /// Same as [`Session::call`].
    pub fn call_f(&mut self, name: &str, args: &[u64]) -> Result<f64, Error> {
        self.call(name, args)?;
        Ok(self.vm.freg(0))
    }

    /// Drive the VM until `Halt`, servicing dynamic-compilation traps.
    fn run_to_halt(&mut self) -> Result<(), Error> {
        loop {
            match self.vm.run()? {
                Stop::Halted => return Ok(()),
                Stop::EnterRegion { region, at } => self.enter_region(region, at)?,
                Stop::EndSetup { region } => self.end_setup(region)?,
                Stop::Native { at } => self.native_dispatch(at)?,
            }
        }
    }

    /// Checked accessor for the native-backend state at call sites whose
    /// surrounding control flow has already established it exists (the
    /// former `expect("checked above")` sites). A refactor slip that
    /// breaks the invariant must not abort the process — the session may
    /// be one of thousands multiplexed in a `dynccd` server — so a
    /// missing state records one typed `engine-state` health entry,
    /// retires every native dispatch mark (degrading this session to the
    /// pure-VM path), and returns `None` for the caller to skip the
    /// native-side work. Results stay correct either way: the VM is the
    /// oracle and native state is host-side bookkeeping only.
    fn native_checked(&mut self, region: u16) -> Option<&mut NativeState> {
        if self.native.is_none() {
            self.native_state_lost(region);
            return None;
        }
        self.native.as_deref_mut()
    }

    /// The "checked above" invariant broke: degrade this session to the
    /// VM path (clear every dispatch mark so the interpreter never traps
    /// into the missing backend again) and record one `engine-state`
    /// entry in the health ring. `region` is an attribution hint; the
    /// [`crate::STATIC_REGION`] sentinel is fine.
    #[cold]
    fn native_state_lost(&mut self, region: u16) {
        self.vm.clear_native_marks();
        if !self.native_lost {
            self.native_lost = true;
            self.record_failure(
                region,
                FailureKind::EngineState,
                false,
                "native-backend state missing at a checked dispatch site: \
                 session degraded to the VM path"
                    .to_string(),
            );
        }
    }

    /// Test hook: drop the native-backend state while leaving its VM
    /// dispatch marks armed — the exact state mismatch
    /// [`Session::native_checked`] exists to survive. The next dispatch
    /// must degrade this one session to the VM path (recording one
    /// `engine-state` health entry), never panic.
    #[doc(hidden)]
    pub fn force_native_state_loss(&mut self) {
        self.native = None;
    }

    /// Test hook: the next `n` native patch batches (chain links, guard
    /// sleds, and their restores on severing) land without resealing,
    /// leaving the holder's pages writable and not executable — what a
    /// refused `mprotect` leaves. The backend must discard every such
    /// holder, and whatever links into it, before the next dispatch.
    #[doc(hidden)]
    pub fn fail_native_reseals(&mut self, n: u32) {
        if let Some(ns) = self.native.as_deref_mut() {
            ns.backend.fail_next_reseals(n);
        }
    }

    /// Serve a [`Stop::Native`] dispatch: run the installed host
    /// instance, then resume the VM at the native exit pc (or surface
    /// the identical `VmError` the interpreter would have produced).
    ///
    /// A bail-out that made no progress — fuel too low to charge the
    /// first block, or an entry the translator could not cover — hands
    /// the pc back to the interpreter exactly once
    /// ([`Vm::skip_native_once`]), so execution always advances.
    fn native_dispatch(&mut self, at: u32) -> Result<(), Error> {
        let (out, delta, region) = {
            // Field-level borrow (not `native_checked`): the backend run
            // needs `&mut self.vm` alongside the state. The degrade path
            // is the same one the accessor takes.
            let Some(ns) = self.native.as_deref_mut() else {
                // A dispatch mark with no backend state behind it: the
                // "checked above" invariant broke. Record the mismatch,
                // retire every mark, and let the VM interpret this pc
                // (and all others) from here on.
                self.native_state_lost(crate::STATIC_REGION);
                return Ok(());
            };
            let before = ns.backend.chained();
            let out = ns.backend.run(at, &mut self.vm);
            let delta = ns.backend.chained() - before;
            let region = ns
                .backend
                .base_of(at)
                .and_then(|b| ns.region_of.get(&b).copied());
            (out, delta, region)
        };
        // An entry is a dispatch that made progress: a bail-out straight
        // back to the dispatch pc (fuel too short for the first block)
        // and a raced eviction are not entries.
        let progressed = match out {
            dyncomp_native::RunOutcome::Missing => false,
            dyncomp_native::RunOutcome::Exit { pc } => pc != at || delta > 0,
            _ => true,
        };
        if progressed {
            let mut bounce = false;
            if let Some(ns) = self.native_checked(region.unwrap_or(crate::STATIC_REGION)) {
                ns.counters.entries += 1;
                // The bounce heuristic: one call re-dispatching this
                // often is ping-ponging between native code and the VM
                // loop, so the one-time static-snapshot translate will
                // pay for itself. Kernels that enter native once per
                // call never trip it and never pay.
                bounce = !ns.static_attempted
                    && ns.counters.entries - ns.call_entries >= STATIC_CHAIN_THRESHOLD;
            }
            if bounce {
                self.install_static_native();
            }
        }
        if delta > 0 {
            match region {
                Some(r) if (r as usize) < self.regions.len() => {
                    self.regions[r as usize].report.native_chained += delta;
                    self.tr(EventKind::NativeChained {
                        region: r,
                        count: delta,
                    });
                }
                _ => {
                    if let Some(ns) = self.native_checked(crate::STATIC_REGION) {
                        ns.static_chained += delta;
                    }
                    self.tr(EventKind::NativeChained {
                        region: crate::STATIC_REGION,
                        count: delta,
                    });
                }
            }
        }
        match out {
            dyncomp_native::RunOutcome::Exit { pc } => {
                if pc == at {
                    self.vm.skip_native_once(at);
                }
                self.vm.pc = pc;
                Ok(())
            }
            dyncomp_native::RunOutcome::MemFault { addr } => {
                Err(Error::Vm(VmError::Mem(EvalError::OutOfBounds { addr })))
            }
            dyncomp_native::RunOutcome::DivFault { pc } => {
                Err(Error::Vm(VmError::DivideByZero { pc }))
            }
            dyncomp_native::RunOutcome::Missing => {
                self.vm.unmark_native(at);
                Ok(())
            }
        }
    }

    /// Fold one translation's host wall-clock and coverage into the
    /// session counters (skipped, via [`Session::native_checked`], if the
    /// state vanished between the caller's check and here).
    fn note_translation(&mut self, region: u16, start: Instant, a: &dyncomp_native::Artifact) {
        if let Some(ns) = self.native_checked(region) {
            ns.counters.translate_ns += start.elapsed().as_nanos() as u64;
            ns.counters.translated_instructions += u64::from(a.instructions);
            ns.counters.covered_instructions += u64::from(a.covered);
        }
    }

    /// Translate the `len` code words installed at `base` for the native
    /// backend.
    fn translate_native(&mut self, region: u16, base: u32, len: u32) -> dyncomp_native::Artifact {
        let start = Instant::now();
        let code = &self.vm.code[base as usize..(base as usize + len as usize)];
        // Chain mode lowers Jmp/Jsr through the dispatch table; region
        // instances carry no guard sleds (those live in the static-code
        // instance, in front of the EnterRegion traps themselves).
        let spec = dyncomp_native::ChainSpec {
            indirect: self.options.native_chain,
            guards: Vec::new(),
            leaders: Vec::new(),
        };
        let artifact = dyncomp_native::translate_with(code, base, &self.vm.model, &spec);
        self.note_translation(region, start, &artifact);
        artifact
    }

    /// Whether `EnterRegion` inline-cache guards may be patched (module
    /// docs, "Mode interactions").
    fn guards_enabled(&self) -> bool {
        self.options.native_chain
            && self.options.keyed_cache_capacity.is_none()
            && self.options.tiered.is_none()
    }

    /// Install the whole static code region as one native instance
    /// (chain mode): every supported block leader becomes a dispatch
    /// point and a published chain target, `Jmp`/`Jsr` thread through
    /// the dispatch table, and `EnterRegion` pcs reserve patchable guard
    /// sleds. Attempted once, lazily, when the bounce heuristic fires
    /// ([`STATIC_CHAIN_THRESHOLD`] dispatches within one call); a decline
    /// (nothing lowered, arena refused) leaves the session on the
    /// per-instance path. The translation is the program's
    /// ([`Program::native_snapshot`]), made from the code as compiled, so
    /// traps retired before the install still appear as `EnterRegion`
    /// words — their guard sleds are armed retroactively below.
    fn install_static_native(&mut self) {
        if !self.options.native_chain {
            return;
        }
        let Some(ns) = self.native.as_deref_mut() else {
            return;
        };
        if ns.static_attempted || ns.disabled {
            return;
        }
        ns.static_attempted = true;
        if !dyncomp_native::available() || self.program.borrow().compiled.code.is_empty() {
            // `maybe_install_native` reports host unavailability once.
            return;
        }
        let start = Instant::now();
        let artifact = self
            .program
            .borrow()
            .native_snapshot(&self.vm.model, self.guards_enabled());
        self.note_translation(crate::STATIC_REGION, start, &artifact);
        let Some(ns) = self.native_checked(crate::STATIC_REGION) else {
            return;
        };
        if ns.backend.install_any(0, &artifact).is_err() {
            return;
        }
        ns.counters.installs += 1;
        ns.region_of.insert(0, crate::STATIC_REGION);
        // Deliberately mark *no* VM dispatch pc for the static snapshot:
        // marking every leader would hand the VM off into many short
        // native runs (one per stretch between unsupported ops), and the
        // per-dispatch FFI overhead of those bounces costs more than the
        // VM interpreting the same stretch. The snapshot is reached only
        // through chained transfers — dispatch-table jumps and patched
        // exits from region instances, and patched entry guards — where
        // control is already native and the transfer is a bare `jmp`.
        ns.marks.insert(0, Vec::new());
        ns.backend.chain(0);
        self.retire_discarded_native();
        // Unkeyed regions whose trap retired before this install left
        // their guard sleds unarmed (retirement arms the guard, but the
        // sled did not exist yet). Arm them now; keyed guards re-arm on
        // the next cache hit without help.
        let retired: Vec<(u16, u32)> = self
            .program
            .borrow()
            .compiled
            .regions
            .iter()
            .enumerate()
            .filter(|(_, rc)| rc.key_locs.is_empty())
            .filter_map(|(i, _)| {
                let entry = self.regions[i].cache.get(&[] as &[u64])?;
                Some((i as u16, entry.base))
            })
            .collect();
        for (region, base) in retired {
            self.maybe_patch_guard(region, &[], base);
        }
    }

    /// Retire the dispatch marks of every instance the backend removed
    /// on its own because a patch on it, or on a link it held, failed:
    /// the VM must not bounce on a pc whose code is gone.
    fn retire_discarded_native(&mut self) {
        let Some(ns) = self.native.as_deref_mut() else {
            return;
        };
        for base in ns.backend.take_discarded() {
            ns.region_of.remove(&base);
            for pc in ns.marks.remove(&base).unwrap_or_default() {
                self.vm.unmark_native(pc);
            }
        }
    }

    /// Request direct threading for the freshly installed instance at
    /// `base`. The fault plan is consulted *before* any availability
    /// check — an injected chain-patch failure is exercised (and
    /// counted) on every host — and a declined request leaves the
    /// instance installed but unchained, excluded from chaining in both
    /// directions.
    fn request_chain(&mut self, region: u16, base: u32) {
        if self.native.is_none() || !self.options.native_chain {
            return;
        }
        if self.fire(FaultPoint::NativeChainPatch, region).is_some() {
            self.record_failure(
                region,
                FailureKind::BackendUnavailable,
                true,
                "injected native chain-patch failure: instance stays unchained".to_string(),
            );
            self.tr(EventKind::NativeUnchained { region });
            return;
        }
        let Some(ns) = self.native_checked(region) else {
            return;
        };
        if ns.disabled || !ns.backend.has(base) {
            return;
        }
        ns.backend.chain(base);
        self.retire_discarded_native();
    }

    /// Chain mode: patch the static instance's guard sled at this
    /// region's `EnterRegion` into a direct entry to the chained
    /// instance at `base`.
    ///
    /// Keyed regions (called on a keyed trap hit, `key` non-empty) get
    /// a monomorphic inline cache: the guard compares the live key
    /// locations against `key` and on a hit charges exactly what the
    /// trap path does (1 fuel; trap + lookup + per-key cycles). Unkeyed
    /// regions (called at trap retirement, `key` empty) get an
    /// unconditional entry charging what the VM pays interpreting the
    /// retirement `Br` it replaces (1 fuel; one taken branch). Any miss
    /// — different key, low fuel, unreadable frame slot — falls back to
    /// the VM path, uncharged. At most one guard per region is live at
    /// a time.
    fn maybe_patch_guard(&mut self, region: u16, key: &[u64], base: u32) {
        if !self.guards_enabled() {
            return;
        }
        let Some(ns) = self.native.as_deref() else {
            return;
        };
        if ns.disabled || !ns.backend.has(0) {
            return;
        }
        let rc = &self.program.borrow().compiled.regions[region as usize];
        let enter_pc = rc.enter_pc;
        let keys: Vec<(dyncomp_native::KeySlot, u64)> = rc
            .key_locs
            .iter()
            .zip(key)
            .map(|(l, &v)| (keyslot(l), v))
            .collect();
        let cycles = if key.is_empty() {
            self.vm.model.cost(Op::Br, true)
        } else {
            TRAP_CYCLES + KEYED_LOOKUP_CYCLES + PER_KEY_CYCLES * key.len() as u64
        };
        let Some(ns) = self.native_checked(region) else {
            return;
        };
        if ns.backend.patch_guard(0, enter_pc, &keys, SP, cycles, base) {
            // The guard lives and dies with its target: record the mark
            // under `base` so severing the instance retires it too.
            ns.marks.entry(base).or_default().push(enter_pc);
            self.vm.mark_native(enter_pc);
        }
        self.retire_discarded_native();
    }

    /// Tear down the native instance at `base` (evicted, quarantined,
    /// or shed by the byte-budget ladder): every chain link through it
    /// is severed before its pages are released, and its dispatch marks
    /// are retired so the VM never bounces on a dead pc. Chain mode
    /// only — the unchained backend keeps instances installed for the
    /// append-only code space, exactly as in PR 6.
    fn sever_native(&mut self, region: u16, base: u32) {
        if !self.options.native_chain {
            return;
        }
        let Some(ns) = self.native.as_deref_mut() else {
            return;
        };
        if !ns.backend.remove(base) {
            return;
        }
        ns.region_of.remove(&base);
        let marks = ns.marks.remove(&base).unwrap_or_default();
        for pc in marks {
            self.vm.unmark_native(pc);
        }
        self.retire_discarded_native();
        self.tr(EventKind::NativeUnchained { region });
    }

    /// Sever every native instance belonging to `region` (quarantine,
    /// budget degradation): stale chains must never outlive a target the
    /// session will not trust again.
    fn sever_region_native(&mut self, region: u16) {
        if self.native.is_none() || !self.options.native_chain {
            return;
        }
        let bases: Vec<u32> = self.regions[region as usize]
            .instances
            .iter()
            .map(|&(_, b, _)| b)
            .collect();
        for b in bases {
            self.sever_native(region, b);
        }
    }

    /// Attempt a native install for the instance at `base` (all three
    /// install paths funnel through [`Session::index_instance`], which
    /// calls this). Returns the host bytes actually installed, so the
    /// caller can fold them into the byte-budget ladder. Never fails the
    /// session: every degradation leaves the instance running on the VM
    /// backend, recorded as a `backend-unavailable` health entry.
    fn maybe_install_native(&mut self, region: u16, base: u32, len: u32) -> u64 {
        if self.native.is_none() {
            return 0;
        }
        // Consult the fault plan before the availability checks, so an
        // injected arena exhaustion is exercised (and counted) even on
        // hosts where the real backend cannot run.
        if self
            .fire(FaultPoint::NativeArenaExhausted, region)
            .is_some()
        {
            self.record_failure(
                region,
                FailureKind::BackendUnavailable,
                true,
                "injected native-arena exhaustion: instance stays on the VM backend".to_string(),
            );
            return 0;
        }
        let Some(ns) = self.native_checked(region) else {
            return 0;
        };
        if ns.disabled {
            return 0;
        }
        let pending = ns.pending.take();
        if !dyncomp_native::available() {
            ns.disabled = true;
            if !std::mem::replace(&mut ns.reported, true) {
                self.record_failure(
                    region,
                    FailureKind::BackendUnavailable,
                    false,
                    "native backend unsupported on this host: session runs on the VM backend"
                        .to_string(),
                );
            }
            return 0;
        }
        let artifact = match pending {
            Some((b, a)) if b == base => a,
            _ => self.translate_native(region, base, len),
        };
        if !artifact.entry_supported {
            if let Some(ns) = self.native_checked(region) {
                ns.counters.declined += 1;
            }
            return 0;
        }
        let bytes = artifact.bytes.len() as u64;
        let chain = self.options.native_chain;
        let Some(ns) = self.native_checked(region) else {
            return 0;
        };
        match ns.backend.install(base, &artifact) {
            Ok(()) => {
                ns.counters.installs += 1;
                ns.region_of.insert(base, region);
                // Chain mode marks every dispatchable leader, so the VM
                // re-enters native code mid-instance after any exit;
                // unchained mode keeps the PR 6 base-only mark.
                let marks: Vec<u32> = if chain {
                    artifact.entries.iter().map(|&(pc, _)| pc).collect()
                } else {
                    vec![base]
                };
                ns.marks.insert(base, marks.clone());
                for pc in marks {
                    self.vm.mark_native(pc);
                }
                bytes
            }
            Err(e) => {
                ns.disabled = true;
                self.record_failure(
                    region,
                    FailureKind::BackendUnavailable,
                    false,
                    format!("native install failed: {e}; session runs on the VM backend"),
                );
                0
            }
        }
    }

    /// Read a region's key tuple from the trap-point value locations.
    ///
    /// # Errors
    /// A faulting frame-slot read propagates as [`Error::Vm`]: a bad stack
    /// state must not silently alias distinct cache keys.
    pub(crate) fn read_key(&self, locs: &[ValueLoc]) -> Result<Vec<u64>, Error> {
        let mut key = Vec::with_capacity(locs.len());
        for l in locs {
            key.push(match *l {
                ValueLoc::Reg(r) => self.vm.reg(r),
                ValueLoc::FReg(r) => self.vm.freg(r).to_bits(),
                ValueLoc::Frame(off) => self
                    .vm
                    .mem
                    .read_u64(self.vm.reg(SP).wrapping_add(off as i64 as u64))
                    .map_err(|e| Error::Vm(e.into()))?,
            });
        }
        Ok(key)
    }

    /// Record a trace event stamped with the session clock (a no-op
    /// without [`EngineOptions::trace`]; the `kind` argument is only
    /// constructed at traced call sites).
    #[inline]
    fn tr(&mut self, kind: EventKind) {
        if let Some(t) = self.trace.as_mut() {
            t.emit(self.vm.cycles, ClockDomain::Session, kind);
        }
    }

    /// Relay resolution-point events recorded inside the tiered state
    /// (BgReady stamps live on virtual worker clocks the engine never
    /// sees directly), and fold background failures into the health log.
    fn relay_tiered_events(&mut self) {
        let Some(tiered) = self.tiered.as_mut() else {
            return;
        };
        let events = tiered.take_events();
        let failures = tiered.take_failures();
        if let Some(t) = self.trace.as_mut() {
            for e in events {
                t.emit(e.at, e.clock, e.kind);
            }
        }
        for f in failures {
            self.record_failure(
                f.region,
                FailureKind::Background {
                    panicked: f.panicked,
                },
                f.injected,
                f.message,
            );
        }
    }

    /// Consult the fault plan at an opportunity for `point` in `region`,
    /// returning the injection's magnitude when it fires. Quarantined
    /// regions are exempt: the degraded path they run is trusted
    /// (injected faults model optimized-path failures). A no-op without
    /// [`EngineOptions::faults`].
    fn fire(&mut self, point: FaultPoint, region: u16) -> Option<u64> {
        if self.recovery.is_quarantined(region) {
            return None;
        }
        let magnitude = self.faults.as_mut()?.fire(point, region)?;
        self.drain_injected();
        Some(magnitude)
    }

    /// Fold fires logged inside [`FaultState`] (including ones the tiered
    /// state triggered while the session was borrowed elsewhere) into the
    /// per-region counters and the trace.
    fn drain_injected(&mut self) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        for (point, region) in f.drain_pending() {
            self.regions[region as usize].report.faults_injected += 1;
            self.recovery.note_fault();
            self.tr(EventKind::FaultInjected { region, point });
        }
    }

    /// Record a failure (injected or genuine) into the bounded health
    /// ring, quarantining the region if it crossed the policy threshold.
    fn record_failure(&mut self, region: u16, kind: FailureKind, injected: bool, message: String) {
        let rec = FailureRecord {
            at: self.vm.cycles,
            region,
            kind,
            injected,
            message,
        };
        if self.recovery.record(rec) {
            self.tr(EventKind::Quarantined { region });
            // The quarantined region's optimized instances will never be
            // trusted again: sever any chains into them before the
            // session degrades to set-up or fallback execution.
            self.sever_region_native(region);
        }
    }

    /// Charge the deterministic retry backoff for attempt `attempt`
    /// (linear in the attempt number) and count the retry.
    fn charge_retry(&mut self, region: u16, attempt: u32) {
        let backoff = RETRY_BACKOFF_CYCLES * u64::from(attempt);
        self.vm.cycles += backoff;
        self.regions[region as usize].report.retries += 1;
        self.recovery.note_retry();
        self.tr(EventKind::RecoveryRetry {
            region,
            attempt,
            backoff,
        });
    }

    /// Serve an entry from the region's statically compiled fallback copy
    /// (quarantine, budget exhaustion, or a failed background install).
    fn run_fallback(&mut self, region: u16, fallback_pc: u32) {
        self.regions[region as usize].report.fallback_runs += 1;
        self.tr(EventKind::FallbackRun { region });
        self.vm.pc = fallback_pc;
    }

    fn enter_region(&mut self, region: u16, _at: u32) -> Result<(), Error> {
        let rc = &self.program.borrow().compiled.regions[region as usize];
        let key = self.read_key(&rc.key_locs)?;
        let keyed = !rc.key_locs.is_empty();
        let (setup_pc, fallback_pc, key_len) = (rc.setup_pc, rc.fallback_pc, rc.key_locs.len());
        self.regions[region as usize].report.invocations += 1;
        self.vm.cycles += TRAP_CYCLES;
        self.tr(EventKind::RegionEnter { region, keyed });
        if keyed {
            self.vm.cycles += KEYED_LOOKUP_CYCLES + PER_KEY_CYCLES * key_len as u64;
        }
        let cached = self.regions[region as usize].cache.get(&key).copied();
        if keyed {
            self.tr(EventKind::KeyedLookup {
                region,
                hit: cached.is_some(),
            });
        }
        match cached {
            Some(entry) => {
                if keyed {
                    self.regions[region as usize].lru.touch(entry.lru);
                    self.maybe_patch_guard(region, &key, entry.base);
                }
                self.vm.pc = entry.base;
                self.speculate_after(region, &key);
            }
            None => {
                // Quarantined or budget-exhausted regions with a static
                // fallback copy never attempt the optimized path again.
                if let Some(fb) = fallback_pc {
                    if self.recovery.is_quarantined(region) || self.recovery.level() >= 2 {
                        self.run_fallback(region, fb);
                        return Ok(());
                    }
                }
                // Not stitched here yet. Keyed regions walk the cache
                // ladder at the trap; unkeyed regions only in `end_setup`
                // (module docs, "Mode interactions").
                if keyed && self.probe_caches(region, &key, false)? {
                    self.speculate_after(region, &key);
                } else if let (true, Some(fallback)) = (self.tiered.is_some(), fallback_pc) {
                    self.tiered_miss(region, key, fallback, setup_pc)?;
                } else {
                    self.begin_setup(region, key, setup_pc, fallback_pc);
                }
            }
        }
        Ok(())
    }

    /// Redirect to the region's set-up code, pre-flighting injected
    /// set-up traps under the recovery policy. A trap is modeled on a
    /// probe fork of the VM with a small instruction budget
    /// ([`crate::faults::Injection::magnitude`]); the attempt's cycles
    /// are charged to the session, the failure is recorded, and set-up is
    /// retried — or, once the region is quarantined, its fallback copy
    /// (when the artifact has one) serves the entry.
    fn begin_setup(&mut self, region: u16, key: Vec<u64>, setup_pc: u32, fallback_pc: Option<u32>) {
        let mut attempt = 0u32;
        while let Some(fuel) = self.fire(FaultPoint::SetupVmTrap, region) {
            let mut fork = self.vm.clone();
            // The probe fork has no native dispatcher; let it interpret.
            fork.clear_native_marks();
            fork.pc = setup_pc;
            fork.cycles = 0;
            fork.fuel = fuel.max(1);
            let msg = match fork.run() {
                Err(e) => format!("injected VM trap during set-up: {e}"),
                Ok(_) => "injected VM trap during set-up (probe exhausted)".to_string(),
            };
            self.vm.cycles += fork.cycles;
            self.record_failure(region, FailureKind::Setup, true, msg);
            if self.recovery.is_quarantined(region) {
                if let Some(fb) = fallback_pc {
                    self.run_fallback(region, fb);
                    return;
                }
            }
            attempt += 1;
            if attempt > self.recovery.policy().max_retries {
                break;
            }
            self.charge_retry(region, attempt);
        }
        self.start_setup(region, key, setup_pc);
    }

    /// Enter set-up code, leaving the key and the clock for `end_setup`.
    /// Called directly, skipping [`Session::begin_setup`]'s `SetupVmTrap`
    /// pre-flight, when a failed background job degrades a tiered entry.
    fn start_setup(&mut self, region: u16, key: Vec<u64>, setup_pc: u32) {
        let st = &mut self.regions[region as usize];
        st.pending_key = Some(key);
        st.setup_start = self.vm.cycles;
        self.vm.pc = setup_pc;
        self.tr(EventKind::SetupStart { region });
    }

    /// Tiered mode, cold entry: install a finished background stitch, run
    /// the fallback copy while one is in flight, or (if the background run
    /// failed) stitch synchronously. The jobs-map probe piggybacks on the
    /// trap / keyed-lookup charges already paid by the caller; enqueued
    /// jobs are charged [`DISPATCH_CYCLES`] each.
    fn tiered_miss(
        &mut self,
        region: u16,
        key: Vec<u64>,
        fallback_pc: u32,
        setup_pc: u32,
    ) -> Result<(), Error> {
        let Some(tiered) = self.tiered.as_mut() else {
            // The caller checked `tiered.is_some()`; if the state is
            // gone anyway, degrade to the synchronous set-up path
            // rather than aborting the process.
            self.begin_setup(region, key, setup_pc, Some(fallback_pc));
            return Ok(());
        };
        let (decision, enqueued) = tiered.decide(
            &self.vm,
            region,
            &key,
            &self.options.stitch,
            self.vm.cycles,
            self.faults.as_deref_mut(),
        );
        self.vm.cycles += enqueued * DISPATCH_CYCLES;
        self.drain_injected();
        self.relay_tiered_events();
        for _ in 0..enqueued {
            self.tr(EventKind::TierDispatch { region });
        }
        match decision {
            TierDecision::Install {
                stitched,
                setup_cycles,
                stitch_cycles,
                speculative,
            } => {
                self.arena_backoff(region, "installing background stitch");
                // A relocation failure or a verifier reject consumes the
                // job and degrades this entry to the fallback copy; the
                // next entry re-enqueues.
                let (base, len) = match self.copy_install(region, "background", &stitched) {
                    Ok(at) => at,
                    Err(f) => {
                        let (kind, msg) = f.split(FailureKind::Install);
                        self.record_failure(region, kind, false, msg);
                        self.run_fallback(region, fallback_pc);
                        self.speculate_after(region, &key);
                        return Ok(());
                    }
                };
                let st = &mut self.regions[region as usize];
                st.report.bg_installs += 1;
                if speculative {
                    st.report.spec_installs += 1;
                }
                st.report.bg_setup_cycles += setup_cycles;
                st.report.bg_stitch_cycles += stitch_cycles;
                self.tr(EventKind::BgInstall {
                    region,
                    words: len,
                    speculative,
                    setup_cycles,
                    stitch_cycles,
                });
                if speculative {
                    self.tr(EventKind::SpeculateHit { region });
                }
                self.publish_shared(region, &key, Arc::clone(&stitched));
                self.persist_store(region, &key, &stitched, base);
                self.index_instance(region, key.clone(), base, len)?;
                self.speculate_after(region, &key);
            }
            TierDecision::Fallback => {
                self.run_fallback(region, fallback_pc);
                self.speculate_after(region, &key);
            }
            TierDecision::Synchronous => self.start_setup(region, key, setup_pc),
        }
        Ok(())
    }

    /// Tiered mode: feed the region's key predictor and enqueue predicted
    /// keys (bounded by the in-flight cap), charging dispatch cycles per
    /// job. No-op when tiering or speculation is off, or the region is
    /// unkeyed.
    fn speculate_after(&mut self, region: u16, key: &[u64]) {
        let Some(tiered) = self.tiered.as_mut().filter(|_| !key.is_empty()) else {
            return;
        };
        let cache = &self.regions[region as usize].cache;
        let is_cached = |k: &[u64]| cache.contains_key(k);
        let enqueued = tiered.observe_and_speculate(
            &self.vm,
            region,
            key,
            &is_cached,
            &self.options.stitch,
            self.vm.cycles,
            self.faults.as_deref_mut(),
        );
        self.vm.cycles += enqueued * DISPATCH_CYCLES;
        self.drain_injected();
        for _ in 0..enqueued {
            self.tr(EventKind::SpeculateIssue { region });
        }
    }

    /// The cache ladder below the session's own cache: the shared cache,
    /// then the persistent cache. `Ok(true)`: an instance was installed
    /// and the VM resumes in it. `Ok(false)`: nothing usable — the caller
    /// goes on to the session's own set-up + stitch path.
    ///
    /// Keyed regions call this at the trap with `validate_reads: false`;
    /// unkeyed regions after set-up with `true`, which admits a candidate
    /// only if [`Session::replay_reads`] passes (module docs, "Mode
    /// interactions").
    ///
    /// # Errors
    /// Only install-side errors ([`Session::index_instance`]); anything
    /// wrong with a cached instance degrades to a miss.
    fn probe_caches(
        &mut self,
        region: u16,
        key: &[u64],
        validate_reads: bool,
    ) -> Result<bool, Error> {
        Ok(self.shared_probe(region, key, validate_reads)?
            || self.persist_probe(region, key, validate_reads)?)
    }

    /// Replay the publishing stitch's recorded table reads against this
    /// session's memory, charging the stitcher's per-read cost.
    fn replay_reads(&mut self, stitched: &Stitched) -> bool {
        self.vm.cycles += self.options.stitch.cost.table_read * stitched.reads.len() as u64;
        stitched.reads_match(&self.vm.mem)
    }

    /// The one way code this session did not stitch enters its code
    /// space: relocate to the end of it, re-verify (the words came from
    /// another session, process or thread), charge the per-word copy and
    /// append. Returns `(base, len)`; counters, trace events and
    /// [`Session::index_instance`] stay with the caller. On a refusal
    /// nothing was installed or charged, and the caller picks the failure
    /// sink; `origin` names the source in the message.
    fn copy_install(
        &mut self,
        region: u16,
        origin: &str,
        stitched: &Stitched,
    ) -> Result<(u32, u32), CopyFailure> {
        let base = self.vm.code.len() as u32;
        let (code, _lin_addr) = stitched.relocate(base, &mut self.vm.mem).map_err(|e| {
            CopyFailure::Relocate(format!("{origin} instance failed to relocate: {e}"))
        })?;
        if let Err(e) = verify_code(&code, base) {
            self.tr(EventKind::VerifyReject { region });
            return Err(CopyFailure::Verify(format!(
                "{origin} instance rejected by pre-install verification: {e}"
            )));
        }
        self.vm.cycles += SHARED_INSTALL_CYCLES_PER_WORD * code.len() as u64;
        self.vm.append_code(&code);
        Ok((base, code.len() as u32))
    }

    /// Injected code-arena exhaustion: back off deterministically (the
    /// simulated arena grows) before an install. `when` finishes the
    /// health-ring message.
    fn arena_backoff(&mut self, region: u16, when: &str) {
        let mut attempt = 0u32;
        while self.fire(FaultPoint::CodeArenaExhausted, region).is_some() {
            let msg = format!("injected code-arena exhaustion {when}");
            self.record_failure(region, FailureKind::Install, true, msg);
            attempt += 1;
            if attempt > self.recovery.policy().max_retries {
                break;
            }
            self.charge_retry(region, attempt);
        }
    }

    /// This session's name for `(region, key)` in the process-wide cache.
    fn shared_key(&self, region: u16, key: &[u64]) -> SharedKey {
        SharedKey {
            program: self.program.borrow().id(),
            region,
            key: key.to_vec(),
        }
    }

    /// Publish an instance to the process-wide cache (when configured) so
    /// other sessions can skip set-up and stitching for this
    /// `(region, key)`.
    fn publish_shared(&mut self, region: u16, key: &[u64], stitched: impl Into<Arc<Stitched>>) {
        let Some(cache) = &self.options.shared_cache else {
            return;
        };
        let evicted = cache.insert(self.shared_key(region, key), stitched.into());
        if evicted > 0 {
            self.tr(EventKind::CacheEvict {
                region,
                count: evicted as u64,
            });
        }
    }

    /// Shared-cache rung: probe the process-wide cache (when configured),
    /// charging the probe cost hit or miss, and install another session's
    /// stitched instance. `Ok(false)` on a miss, an injected fault (a
    /// poisoned shard abandons the probe), stale reads, or a refused
    /// install: any failure is recorded and the ladder moves on.
    fn shared_probe(
        &mut self,
        region: u16,
        key: &[u64],
        validate_reads: bool,
    ) -> Result<bool, Error> {
        let Some(cache) = self.options.shared_cache.as_ref().map(Arc::clone) else {
            return Ok(false);
        };
        self.vm.cycles += SHARED_LOOKUP_CYCLES;
        let poisoned = self
            .fire(FaultPoint::SharedCachePoisonedShard, region)
            .is_some();
        let hit = if poisoned {
            let msg = "injected poisoned shared-cache shard: probe abandoned";
            self.record_failure(region, FailureKind::SharedCache, true, msg.to_string());
            None
        } else {
            cache.lookup(&self.shared_key(region, key))
        };
        self.tr(EventKind::CacheLookup {
            region,
            hit: hit.is_some(),
        });
        let Some(stitched) = hit else {
            return Ok(false);
        };
        if validate_reads && !self.replay_reads(&stitched) {
            return Ok(false);
        }
        if self.fire(FaultPoint::SharedCacheInstall, region).is_some() {
            let msg = "injected shared-cache install failure";
            self.record_failure(region, FailureKind::SharedCache, true, msg.to_string());
            return Ok(false);
        }
        let (base, len) = match self.copy_install(region, "shared-cache", &stitched) {
            Ok(at) => at,
            Err(f) => {
                let (kind, msg) = f.split(FailureKind::SharedCache);
                self.record_failure(region, kind, false, msg);
                return Ok(false);
            }
        };
        self.regions[region as usize].report.shared_hits += 1;
        self.tr(EventKind::CacheInstall { region, words: len });
        self.index_instance(region, key.to_vec(), base, len)?;
        Ok(true)
    }

    /// Bookkeeping for a refused persistent-cache load: the per-region
    /// counter, a [`EventKind::PersistReject`] trace event, and a typed
    /// `persist` health entry. The ladder falls through to the session's
    /// own set-up + stitch path, whose store then overwrites the bad
    /// file — corruption is self-healing and never fatal.
    fn persist_reject(&mut self, region: u16, injected: bool, message: String) {
        self.regions[region as usize].report.persist_rejects += 1;
        self.tr(EventKind::PersistReject { region });
        self.record_failure(region, FailureKind::Persist, injected, message);
    }

    /// Persistent-cache rung: probe the on-disk cache (when configured)
    /// for this `(region, key)` and install a valid instance. Disk
    /// traffic charges zero simulated cycles; a hit charges the
    /// shared-cache model (lookup + per-word copy). Any refusal degrades
    /// through [`Session::persist_reject`] and returns `Ok(false)`.
    fn persist_probe(
        &mut self,
        region: u16,
        key: &[u64],
        validate_reads: bool,
    ) -> Result<bool, Error> {
        let Some(cache) = self.options.persist.as_ref().map(Arc::clone) else {
            return Ok(false);
        };
        let hash = self.program.borrow().artifact_hash();
        let inst = match cache.load_instance(hash, region, key) {
            InstanceProbe::Miss => {
                self.regions[region as usize].report.persist_misses += 1;
                self.tr(EventKind::PersistLookup { region, hit: false });
                return Ok(false);
            }
            InstanceProbe::Reject(reason) => {
                let msg = format!("persistent instance refused: {reason}");
                self.persist_reject(region, false, msg);
                return Ok(false);
            }
            InstanceProbe::Hit(inst) => inst,
        };
        if self.fire(FaultPoint::PersistLoadCorrupt, region).is_some() {
            let msg = "injected persist load corruption: cached instance discarded";
            cache.note_injected_instance_reject(msg);
            self.persist_reject(region, true, msg.to_string());
            return Ok(false);
        }
        if validate_reads && !self.replay_reads(&inst.stitched) {
            let msg = "persistent instance stale: recorded table reads do not replay";
            self.persist_reject(region, false, msg.to_string());
            return Ok(false);
        }
        let (base, len) = match self.copy_install(region, "persistent", &inst.stitched) {
            Ok(at) => at,
            Err(f) => {
                let (_, msg) = f.split(FailureKind::Persist);
                self.persist_reject(region, false, msg);
                return Ok(false);
            }
        };
        self.vm.cycles += SHARED_LOOKUP_CYCLES;
        // Native stub bytes are reusable only at the publisher's base
        // (module docs); otherwise `index_instance` re-translates.
        if inst.install_base == base {
            if let (Some(ns), Some(artifact)) = (self.native.as_deref_mut(), inst.native) {
                ns.pending = Some((base, artifact));
            }
        }
        self.regions[region as usize].report.persist_hits += 1;
        self.tr(EventKind::PersistLookup { region, hit: true });
        self.tr(EventKind::PersistInstall { region, words: len });
        self.index_instance(region, key.to_vec(), base, len)?;
        Ok(true)
    }

    /// Store a freshly stitched instance in the persistent cache (when
    /// configured), so the next *process* can skip the work. Host-side
    /// only — zero simulated cycles — and never fatal: lock contention
    /// skips the store (the competing writer's bytes are equivalent),
    /// an injected torn write deliberately leaves a truncated file for
    /// the next load to refuse, and an I/O failure records one typed
    /// `persist` health entry.
    fn persist_store(&mut self, region: u16, key: &[u64], stitched: &Stitched, base: u32) {
        let Some(cache) = self.options.persist.as_ref().map(Arc::clone) else {
            return;
        };
        if self
            .fire(FaultPoint::PersistLockContended, region)
            .is_some()
        {
            cache.note_lock_skip();
            self.record_failure(
                region,
                FailureKind::Persist,
                true,
                "injected persist lock contention: store skipped".to_string(),
            );
            return;
        }
        let torn = self.fire(FaultPoint::PersistWriteTorn, region).is_some();
        if torn {
            self.record_failure(
                region,
                FailureKind::Persist,
                true,
                "injected torn persist write: truncated file left for the next load to refuse"
                    .to_string(),
            );
        }
        let hash = self.program.borrow().artifact_hash();
        let outcome = {
            // Persist the native stubs only when `end_setup` pre-translated
            // this very base (`index_instance` has not consumed it yet) and
            // the translation can actually serve entries.
            let native = self.native.as_deref().and_then(|ns| match &ns.pending {
                Some((b, a)) if *b == base && a.entry_supported => Some(a),
                _ => None,
            });
            cache.store_instance(hash, region, key, stitched, base, native, torn)
        };
        if let StoreOutcome::Failed(reason) = outcome {
            self.record_failure(
                region,
                FailureKind::Persist,
                false,
                format!("persist store failed: {reason}"),
            );
        }
    }

    /// One stitch attempt for `region` at code address `base`: consult
    /// the fault plan (injected bad template, post-stitch corruption),
    /// degrade to interpretive stitching when the budget ladder or
    /// quarantine demands it, and run the pre-install verifier over the
    /// result. Never installs anything.
    fn stitch_once(
        &mut self,
        region: u16,
        table: u64,
        base: u32,
    ) -> Result<Stitched, StitchFailure> {
        if self.fire(FaultPoint::StitchBadTemplate, region).is_some() {
            return Err(StitchFailure::Retryable(
                FailureKind::Stitch,
                true,
                "injected stitch failure: malformed template".to_string(),
            ));
        }
        // Recording plan patches is host-side bookkeeping only (no stats,
        // no cycles); request it only when there is a trace to feed. The
        // degradation ladder's first step (and quarantine without a
        // fallback copy) turns copy-and-patch plans off — interpretive
        // stitching, bit-identical output, no plan bookkeeping.
        let record = self.trace.is_some() && !self.options.stitch.record_patches;
        let degrade_plans = self.options.stitch.plans
            && (self.recovery.level() >= 1 || self.recovery.is_quarantined(region));
        let stitch_opts = if record || degrade_plans {
            let mut o = self.options.stitch.clone();
            o.record_patches = o.record_patches || record;
            o.plans = o.plans && !degrade_plans;
            Some(o)
        } else {
            None
        };
        let rc = &self.program.borrow().compiled.regions[region as usize];
        let mut stitched = dyncomp_stitcher::stitch(
            rc,
            table,
            &mut self.vm.mem,
            base,
            stitch_opts.as_ref().unwrap_or(&self.options.stitch),
        )
        .map_err(StitchFailure::Fatal)?;
        let mut corrupted = false;
        if self.fire(FaultPoint::CodeCorruption, region).is_some() && !stitched.code.is_empty() {
            // Flip an instruction-start word (never an `Ldiw` payload,
            // which no decoder could fault on) to a value nothing
            // decodes: the pre-install verifier must catch it. A fault
            // just fired, so the plan state exists; if it vanished
            // anyway, skip the corruption rather than panic.
            if let Some(f) = self.faults.as_mut() {
                let starts = instruction_starts(&stitched.code);
                let pick = f.draw_below(starts.len() as u64) as usize;
                stitched.code[starts[pick]] = 0xFF00_0000;
                corrupted = true;
            }
        }
        if let Err(e) = verify_code(&stitched.code, base) {
            self.tr(EventKind::VerifyReject { region });
            return Err(StitchFailure::Retryable(
                FailureKind::Verify,
                corrupted,
                format!("pre-install verification rejected instance: {e}"),
            ));
        }
        Ok(stitched)
    }

    fn end_setup(&mut self, region: u16) -> Result<(), Error> {
        let table = self.vm.reg(CTP);
        let setup_delta = self.vm.cycles - self.regions[region as usize].setup_start;
        self.tr(EventKind::SetupEnd {
            region,
            cycles: setup_delta,
        });
        // Unkeyed regions walk the cache ladder here, now that set-up has
        // produced the constants that identify the instance (module docs,
        // "Mode interactions"); a hit skips only the stitch.
        let unkeyed = self.program.borrow().compiled.regions[region as usize]
            .key_locs
            .is_empty();
        if unkeyed && self.probe_caches(region, &[], true)? {
            let st = &mut self.regions[region as usize];
            st.report.setup_cycles += setup_delta;
            st.pending_key = None;
            return Ok(());
        }
        // Stitch under the recovery policy: injected stitch failures and
        // verifier rejects (corrupted instances) are retried with a
        // deterministic backoff up to the policy cap; a genuine stitcher
        // error propagates unchanged, exactly as before this layer
        // existed.
        let mut attempt = 0u32;
        let (mut stitched, base) = loop {
            self.tr(EventKind::StitchStart { region });
            let base = self.vm.code.len() as u32;
            match self.stitch_once(region, table, base) {
                Ok(s) => break (s, base),
                Err(StitchFailure::Fatal(e)) => {
                    self.record_failure(region, FailureKind::Stitch, false, e.to_string());
                    return Err(Error::Stitch(e));
                }
                Err(StitchFailure::Retryable(kind, injected, msg)) => {
                    self.record_failure(region, kind, injected, msg.clone());
                    attempt += 1;
                    if attempt > self.recovery.policy().max_retries {
                        return Err(Error::Stitch(dyncomp_stitcher::StitchError::BadTemplate(
                            msg,
                        )));
                    }
                    self.charge_retry(region, attempt);
                }
            }
        };
        self.arena_backoff(region, "during install");
        self.vm.append_code(&stitched.code);
        let code_len = stitched.code.len() as u32;

        // Pre-translate for the native backend so the instance published
        // to the shared cache carries its native footprint (byte-budgeted
        // shards then govern both backends). The artifact is stashed for
        // `index_instance`, which performs the actual install.
        if self.native.is_some() {
            let artifact = self.translate_native(region, base, code_len);
            stitched.native_bytes = if artifact.entry_supported {
                artifact.bytes.len() as u64
            } else {
                0
            };
            if let Some(ns) = self.native_checked(region) {
                ns.pending = Some((base, artifact));
            }
        }

        let st = &mut self.regions[region as usize];
        st.report.setup_cycles += setup_delta;
        st.report.stitches += 1;
        st.report.stitch_stats += stitched.stats;
        st.report.stitch_cycles = st.report.stitch_stats.cycles;
        st.report.instructions_stitched = st.report.stitch_stats.instructions_stitched;
        st.tables.push(table);
        let key = st.pending_key.take().unwrap_or_default();
        let s = &stitched.stats;
        self.tr(EventKind::StitchEnd {
            region,
            cycles: s.cycles,
            instructions: s.instructions_stitched,
            holes_inline: s.holes_inline,
            holes_big: s.holes_big,
            const_branches: s.const_branches_resolved,
            loop_iterations: s.loop_iterations,
            plan_hits: s.plan_hits,
            plan_misses: s.plan_misses,
        });
        for p in &stitched.plan_patches {
            self.tr(EventKind::PlanPatch {
                region,
                word: p.at,
                value: p.value,
            });
        }
        // Replay the compile-time inline sites this instance benefits
        // from: one event per site per synchronous stitch, mirrored in
        // the report counter so `trace_self_check` covers the pass.
        let inlined: Vec<(u32, u32)> = self
            .program
            .borrow()
            .inline_sites_for(region)
            .map(|s| (s.callee.index() as u32, s.depth))
            .collect();
        for (callee, depth) in inlined {
            self.regions[region as usize].report.inlined_calls += 1;
            self.tr(EventKind::Inlined {
                region,
                callee,
                depth,
            });
        }

        // Store to the on-disk cache so the next *process* can skip the
        // work (host-side, zero simulated cycles).
        self.persist_store(region, &key, &stitched, base);

        self.publish_shared(region, &key, stitched);
        self.index_instance(region, key, base, code_len)?;
        Ok(())
    }

    /// Record a freshly installed instance (stitched here or copied from
    /// the shared cache): instance history, keyed cache + LRU (with
    /// capacity eviction), unkeyed trap retirement, and resume at `base`.
    ///
    /// # Errors
    /// [`Error::Vm`] if the unkeyed trap-retirement branch does not encode
    /// or the trap site is out of code range (a code space grown past the
    /// branch displacement range, not an internal invariant).
    fn index_instance(
        &mut self,
        region: u16,
        key: Vec<u64>,
        base: u32,
        len: u32,
    ) -> Result<(), Error> {
        // Offer the instance to the native backend first: the host bytes
        // it actually installs count against the same byte budget as the
        // stitched code words, so `with_byte_budget` and the degradation
        // ladder govern both backends.
        let native_bytes = self.maybe_install_native(region, base, len);
        // Then request direct threading for it: publish its blocks in
        // the dispatch table and back-patch every exit blob that now has
        // a native continuation (its own and other chained instances').
        self.request_chain(region, base);
        // Account the installed bytes against the session's code budget;
        // crossing a ladder step is a trace event (the step itself takes
        // effect at the next stitch / entry). At level 2 the ladder
        // sheds optimized execution for the region, so its native
        // instances are severed — a stale chain must not outlive them.
        let mut degraded = false;
        if let Some(level) = self.recovery.add_bytes(4 * u64::from(len) + native_bytes) {
            self.tr(EventKind::BudgetDegrade { region, level });
            degraded = level >= 2;
        }
        let rc = &self.program.borrow().compiled.regions[region as usize];
        let (keyed, enter_pc) = (!rc.key_locs.is_empty(), rc.enter_pc);
        let st = &mut self.regions[region as usize];
        st.instances.push((key.clone(), base, len));
        let mut evicted = 0u64;
        let mut evicted_bases: Vec<u32> = Vec::new();
        let lru = if keyed {
            if let Some(cap) = self.options.keyed_cache_capacity {
                while st.cache.len() >= cap.max(1) {
                    match st.lru.pop_lru() {
                        Some(victim) => {
                            if let Some(e) = st.cache.remove(&victim) {
                                evicted_bases.push(e.base);
                            }
                            st.report.evictions += 1;
                            evicted += 1;
                        }
                        None => break,
                    }
                }
            }
            st.lru.insert(key.clone())
        } else {
            usize::MAX // unkeyed: the trap is patched away below
        };
        st.cache.insert(key, CacheEntry { base, lru });
        for _ in 0..evicted {
            self.tr(EventKind::KeyedEvict { region });
        }
        // Sever chains into evicted instances *before* anything can
        // dispatch again: their keys are gone from the cache, so the
        // next entry with them re-stitches at a fresh base.
        for b in evicted_bases {
            self.sever_native(region, b);
        }
        if degraded {
            self.sever_region_native(region);
        }

        // Unkeyed regions: retire the trap — patch EnterRegion into a
        // direct branch to the stitched code (§1: the templates "become
        // part of the application").
        if !keyed {
            let disp = base as i64 - (enter_pc as i64 + 1);
            let (w, _) = encode(&Inst::branch(
                Op::Br,
                dyncomp_machine::isa::ZERO,
                disp as i32,
            ))
            .map_err(|e| {
                Error::Stitch(dyncomp_stitcher::StitchError::BadTemplate(format!(
                    "trap-retirement branch to stitched code does not encode \
                     (region {region}, base {base}, enter_pc {enter_pc}): {e}"
                )))
            })?;
            self.vm.patch_code(enter_pc, w)?;
            // The static snapshot still holds the stale `EnterRegion` at
            // this pc; patch its guard sled into an unconditional entry
            // so chained control need not bounce through the VM to take
            // the retired branch.
            self.maybe_patch_guard(region, &[], base);
        }

        self.vm.pc = base;
        Ok(())
    }

    /// Measurement report for region `index`.
    pub fn region_report(&self, index: usize) -> RegionReport {
        self.regions[index].report
    }

    /// Total VM cycles so far.
    pub fn cycles(&self) -> u64 {
        self.vm.cycles
    }

    /// The trace state, when [`EngineOptions::trace`] was configured.
    pub fn trace(&self) -> Option<&TraceState> {
        self.trace.as_deref()
    }

    /// Whether `region`'s background stitch path panicked and the region
    /// is permanently pinned to its static fallback copy. Always `false`
    /// without tiered execution.
    pub fn region_pinned(&self, region: u16) -> bool {
        self.tiered.as_ref().is_some_and(|t| t.is_pinned(region))
    }

    /// A snapshot of the session's robustness state: the bounded failure
    /// log, quarantined regions, injected-fault and retry counts, and the
    /// degradation-ladder level. Cheap; safe to poll.
    pub fn health(&self) -> HealthReport {
        self.recovery.report()
    }

    /// Host-native backend counters. All-zero (with `enabled: false`)
    /// when [`EngineOptions::native`] was not set.
    pub fn native_report(&self) -> NativeReport {
        match self.native.as_deref() {
            None => NativeReport::default(),
            Some(ns) => NativeReport {
                enabled: true,
                active: !ns.disabled && dyncomp_native::available(),
                chained: ns.backend.chained(),
                bytes: ns.backend.bytes(),
                ..ns.counters
            },
        }
    }

    /// Per-region trace aggregates ([`RegionProfile`]), when tracing.
    pub fn region_profiles(&self) -> Option<&[RegionProfile]> {
        self.trace.as_ref().map(|t| t.profiles())
    }

    /// Seal the trace (synthesizing `SpeculateWaste` events once) and
    /// render it as JSON Lines. `None` when tracing is off.
    pub fn trace_jsonl(&mut self) -> Option<String> {
        let now = self.vm.cycles;
        self.trace.as_mut().map(|t| {
            t.seal(now);
            t.render_jsonl()
        })
    }

    /// Seal the trace and render it in Chrome `trace_event` JSON.
    /// `None` when tracing is off.
    pub fn trace_chrome(&mut self) -> Option<String> {
        let now = self.vm.cycles;
        self.trace.as_mut().map(|t| {
            t.seal(now);
            t.render_chrome()
        })
    }

    /// Assert that cycle attribution summed over trace events equals the
    /// per-region [`RegionReport`] counters exactly. `Ok(())` when tracing
    /// is off (nothing to check).
    ///
    /// # Errors
    /// [`Error::Trace`] naming the first mismatching counter.
    pub fn trace_self_check(&self) -> Result<(), Error> {
        let Some(t) = self.trace.as_ref() else {
            return Ok(());
        };
        let reports: Vec<RegionReport> = self.regions.iter().map(|st| st.report).collect();
        t.self_check(&reports).map_err(Error::Trace)
    }

    /// Re-run the stitcher over every `(region, constants table)` pair
    /// stitched so far, under `opts`, without installing the result —
    /// the set-up code's tables are still live in data memory, so this
    /// re-measures pure stitching work (for throughput benches and
    /// ablations). Returns the accumulated stats of the extra runs; the
    /// session's own per-region reports are unaffected.
    ///
    /// # Errors
    /// Stitching failures (same as the original stitches).
    pub fn restitch_all(&mut self, opts: &StitchOptions) -> Result<StitchStats, Error> {
        let mut total = StitchStats::default();
        let base = self.vm.code.len() as u32;
        let program = self.program.borrow();
        for (idx, rc) in program.compiled.regions.iter().enumerate() {
            for &table in &self.regions[idx].tables {
                let s = dyncomp_stitcher::stitch(rc, table, &mut self.vm.mem, base, opts)?;
                total += s.stats;
            }
        }
        Ok(total)
    }

    /// Every stitched instance region `index` has produced so far, as
    /// `(key, code)` pairs in stitch order. Unkeyed regions use the empty
    /// key. Instances survive cache eviction (code space is append-only),
    /// so this is the full history, not the current cache contents.
    pub fn stitched_instances(&self, index: usize) -> Vec<(&[u64], &[u32])> {
        self.regions[index]
            .instances
            .iter()
            .map(|(key, base, len)| {
                (
                    key.as_slice(),
                    &self.vm.code[*base as usize..(*base + *len) as usize],
                )
            })
            .collect()
    }
}

/// A failed stitch attempt: retryable under the recovery policy, or a
/// genuine stitcher error propagated unchanged.
enum StitchFailure {
    /// `(kind, injected, message)` — retried with backoff up to the cap.
    Retryable(FailureKind, bool, String),
    /// A real [`dyncomp_stitcher::StitchError`]: deterministic, so
    /// retrying cannot help; the caller propagates it as-is.
    Fatal(dyncomp_stitcher::StitchError),
}

/// Why [`Session::copy_install`] refused an instance; each variant
/// carries the health-ring message.
enum CopyFailure {
    /// Relocation failed (the linearized constants table did not fit).
    Relocate(String),
    /// The pre-install verifier rejected the relocated code.
    Verify(String),
}

impl CopyFailure {
    /// The health-ring entry for this refusal: a verifier reject is
    /// always `verify`, a relocation failure takes the caller's kind.
    fn split(self, relocate: FailureKind) -> (FailureKind, String) {
        match self {
            CopyFailure::Relocate(msg) => (relocate, msg),
            CopyFailure::Verify(msg) => (FailureKind::Verify, msg),
        }
    }
}

/// Mirror a region-key [`ValueLoc`] into the native translator's
/// [`dyncomp_native::KeySlot`] (same kinds, crate-local type).
pub(crate) fn keyslot(l: &ValueLoc) -> dyncomp_native::KeySlot {
    match *l {
        ValueLoc::Reg(r) => dyncomp_native::KeySlot::Reg(r),
        ValueLoc::FReg(r) => dyncomp_native::KeySlot::FReg(r),
        ValueLoc::Frame(off) => dyncomp_native::KeySlot::Frame(off),
    }
}

/// Word positions in `code` that begin an instruction (never an `Ldiw`
/// payload word — corrupting a payload is invisible to any decoder).
fn instruction_starts(code: &[u32]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        starts.push(i);
        let wide = decode(code[i], code.get(i + 1).copied())
            .map(|inst| inst.is_wide())
            .unwrap_or(false);
        i += if wide { 2 } else { 1 };
    }
    starts
}
