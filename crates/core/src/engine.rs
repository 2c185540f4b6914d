//! The run-time: executes compiled programs on the simulated machine,
//! servicing dynamic-compilation traps.
//!
//! The compile artifact ([`Program`]) is immutable and thread-shareable;
//! all mutable run-time state lives in a [`Session`] — its own VM (code
//! space, registers, data memory, cycle counter), per-region bookkeeping
//! and keyed code cache. Many sessions can therefore run the same
//! `Arc<Program>` concurrently, each with deterministic, bit-identical
//! simulated results.
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
//! # The probe ladder
//!
//! An entry the session's own cache cannot serve walks a ladder: the
//! process-wide [`SharedCodeCache`], the on-disk [`PersistentCache`], a
//! background stitch, the session's own set-up + stitch, the region's
//! static fallback copy. The ladder is data — one rung list per kind of
//! entry, walked by one loop — and every rung that declines says why, in
//! one sink that writes the health record, counter and trace event. The
//! rung lists, the decline table, and the rules that couple two options
//! (probe accounting, tiering's fallback copy, guard sleds, persisted
//! native bytes) are in DESIGN.md § "Engine: one miss path…"; a unit test
//! holds the rung table to the code.
//!
//! Code this session did not stitch (either cache, a background stitch)
//! enters through one choke-point, `copy_install`: relocate, re-verify,
//! charge per word, append. A refusal is a decline, never an error.

use crate::cache::{LruOrder, SharedCodeCache, SharedKey};
use crate::faults::{
    FailureKind, FailureRecord, FaultPlan, FaultPoint, FaultState, HealthReport, RecoveryPolicy,
    RecoveryState,
};
use crate::persist::{InstanceProbe, PersistentCache, StoreOutcome};
use crate::tiered::{Job, Resolved, TierDecision, TieredOptions, TieredState};
use crate::trace::{ClockDomain, EventKind, RegionProfile, TraceState};
use crate::{Error, Program};
use dyncomp_ir::fxhash::FxHashMap;
use dyncomp_machine::heap::HeapBuilder;
use dyncomp_machine::isa::{branch_word, walk, Op, CTP, SP, ZERO};
use dyncomp_machine::template::ValueLoc;
use dyncomp_machine::verify::{verify_code, CodeVerifyError};
use dyncomp_machine::vm::{Stop, Vm, VmError};
use dyncomp_stitcher::{StitchError, StitchOptions, StitchStats, Stitched};
use std::sync::Arc;

mod native;
pub(crate) use native::keyslot;
use native::NativeState;

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
    /// charges: DESIGN.md § "Engine: one miss path…".
    pub shared_cache: Option<Arc<SharedCodeCache>>,
    /// Tiered execution: on a cold region entry, run the statically
    /// compiled fallback copy while a background worker stitches (see
    /// [`crate::tiered`]). `None` (the default) keeps fully synchronous
    /// set-up + stitching and bit-identical accounting to the paper
    /// tables. Needs a per-region fallback copy; regions without one
    /// stitch synchronously.
    pub tiered: Option<TieredOptions>,
    /// Structured tracing ([`crate::trace`]). Off (the default) records
    /// nothing and allocates nothing. On, every region-lifecycle
    /// transition is recorded as a cycle-stamped [`crate::TraceEvent`] in
    /// a ring of [`crate::trace::TRACE_RING`] events; tracing charges
    /// **zero** simulated cycles, so all cycle accounting is identical
    /// with it on or off.
    pub trace: bool,
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
    /// Probe points and accounting: DESIGN.md § "Engine: one miss path…".
    pub persist: Option<Arc<PersistentCache>>,
    /// Direct-threaded native dispatch (only meaningful with `native`):
    /// the whole static code region is installed as one native instance,
    /// `Jmp`/`Jsr` lower through a pc → host-entry dispatch table, and
    /// after each install the exit blobs of covered instances are
    /// back-patched into direct jumps, so hot control flow transfers
    /// between native instances without bouncing through the VM loop.
    /// Keyed `EnterRegion` traps additionally get patchable monomorphic
    /// inline-cache guards (unless another option needs the trap: see
    /// DESIGN.md § "Engine: one miss path…"). Chained transfers charge
    /// *exactly* the simulated cycles and fuel the VM-dispatched path would,
    /// so all simulated quantities stay bit-identical. On by default; `false`
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
            trace: false,
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
/// Sessions on several threads share one `Arc<Program>`. All mutable
/// state — the VM, region bookkeeping, the keyed code cache — is owned by
/// the session, so a `Session` is `Send` and sessions never contend
/// except on an explicitly configured [`SharedCodeCache`].
pub struct Session {
    program: Arc<Program>,
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
    /// The host-native backend facet ([`native`]); `Some` iff
    /// [`EngineOptions::native`] was set. Boxed: the default VM-only path
    /// carries one pointer.
    native: Option<Box<NativeState>>,
}

impl Session {
    /// A session with default options.
    pub fn new(program: Arc<Program>) -> Self {
        Self::with_options(program, EngineOptions::default())
    }

    /// A session with explicit options.
    ///
    /// # Panics
    /// If `options.memory_bytes` cannot hold the program's data image
    /// ([`Program::check_memory`] says so without panicking).
    pub fn with_options(program: Arc<Program>, options: EngineOptions) -> Self {
        let p = &*program;
        let mut vm = Vm::new(options.memory_bytes);
        dyncomp_codegen::install(&p.compiled, &p.module, &mut vm);
        let regions = (0..p.compiled.regions.len())
            .map(|_| RegionState::default())
            .collect();
        let trace = options
            .trace
            .then(|| Box::new(TraceState::new(p.compiled.regions.len())));
        let tiered = options
            .tiered
            .clone()
            .map(|t| TieredState::new(p.compiled.regions.len(), t));
        let faults = options
            .faults
            .as_ref()
            .map(|plan| Box::new(FaultState::new(plan)));
        let recovery = RecoveryState::new(options.recovery.clone(), p.compiled.regions.len());
        let native = options.native.then(|| Box::new(NativeState::new(&options)));
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
        }
    }

    /// The program this session executes.
    pub fn program(&self) -> &Program {
        &self.program
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
            ns.begin_call();
        }
        let entry = self
            .program
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

    /// Test hook: drop the native facet while leaving its VM dispatch
    /// marks armed. The next dispatch must degrade this one session to
    /// the VM path (recording one `engine-state` health entry), never
    /// panic.
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
            ns.fail_reseals(n);
        }
    }

    /// Serve a [`Stop::Native`] dispatch through the native facet and
    /// book the direct transfers it took.
    ///
    /// A dispatch mark with no facet behind it is the one reachable state
    /// loss ([`Session::force_native_state_loss`]): it clears every mark,
    /// so the VM interprets this pc and all others from here on, and
    /// records one `engine-state` entry. Only the facet arms marks, so
    /// none comes back to record a second.
    fn native_dispatch(&mut self, at: u32) -> Result<(), Error> {
        let Some(ns) = self.native.as_deref_mut() else {
            self.vm.clear_native_marks();
            self.record_failure(
                crate::STATIC_REGION,
                FailureKind::EngineState,
                false,
                "native-backend state missing at a checked dispatch site: \
                 session degraded to the VM path"
                    .to_string(),
            );
            return Ok(());
        };
        let retired = self.regions.iter().enumerate().filter_map(|(i, st)| {
            let entry = st.cache.get(&[] as &[u64])?;
            Some((i as u16, entry.base))
        });
        let (region, count, resume) = ns.dispatch(at, &mut self.vm, &self.program, retired);
        if count > 0 {
            if let Some(st) = self.regions.get_mut(usize::from(region)) {
                st.report.native_chained += count;
            }
            self.tr(EventKind::NativeChained { region, count });
        }
        Ok(resume?)
    }

    /// The served sink's native step for the instance just installed at
    /// `base`: install, then chain, each behind its fault point (consulted
    /// on every host, so injected faults are exercised where the backend
    /// cannot run). A declined chain leaves the instance unchained. The
    /// facet is looked up after each fault point, whose record may
    /// quarantine the region and sever through it. Returns the host bytes
    /// installed, which count against the byte budget.
    fn install_native(&mut self, region: u16, base: u32, len: u32) -> u64 {
        let Some(chains) = self.native.as_deref().map(NativeState::chains) else {
            return 0;
        };
        let exhausted = self.injected(FaultPoint::NativeArenaExhausted, region);
        let installed = match self.native.as_deref_mut() {
            Some(ns) if !exhausted => ns.install(&mut self.vm, region, base, len),
            _ => Ok(0),
        };
        let bytes = installed.unwrap_or_else(|msg| {
            self.record_failure(region, FailureKind::BackendUnavailable, false, msg);
            0
        });
        if chains && self.injected(FaultPoint::NativeChainPatch, region) {
            self.tr(EventKind::NativeUnchained { region });
        } else if let Some(ns) = self.native.as_deref_mut() {
            ns.chain(&mut self.vm, base);
        }
        bytes
    }

    /// The one sever sink: tear down `region`'s native instances at
    /// `bases` (evicted keys, or every instance of a region that
    /// quarantine or the byte budget shut), one `NativeUnchained` event
    /// per instance the facet held.
    fn sever_native(&mut self, region: u16, bases: Vec<u32>) {
        let native = self.native.as_deref_mut();
        let severed = native.map_or(0, |ns| ns.sever(&mut self.vm, bases));
        for _ in 0..severed {
            self.tr(EventKind::NativeUnchained { region });
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

    /// Consult the fault plan at an opportunity for `point` in `region`,
    /// returning the injection's magnitude when it fires. Quarantined
    /// regions are exempt: what they run — their fallback copy or,
    /// without one, the same stitch as any region — is trusted (injected
    /// faults model optimized-path failures). Every fire is counted and
    /// traced here, the one fire site. A no-op without
    /// [`EngineOptions::faults`].
    fn fire(&mut self, point: FaultPoint, region: u16) -> Option<u64> {
        if self.recovery.is_quarantined(region) {
            return None;
        }
        let magnitude = self.faults.as_mut()?.fire(point, region)?;
        self.regions[region as usize].report.faults_injected += 1;
        self.tr(EventKind::FaultInjected { region, point });
        Some(magnitude)
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
            let st = &self.regions[region as usize];
            let bases = st.instances.iter().map(|&(_, b, _)| b).collect();
            self.sever_native(region, bases);
        }
    }

    /// Charge the deterministic retry backoff for attempt `attempt`
    /// (linear in the attempt number) and count the retry.
    fn charge_retry(&mut self, region: u16, attempt: u32) {
        let backoff = RETRY_BACKOFF_CYCLES * u64::from(attempt);
        self.vm.cycles += backoff;
        self.regions[region as usize].report.retries += 1;
        self.tr(EventKind::RecoveryRetry {
            region,
            attempt,
            backoff,
        });
    }

    fn enter_region(&mut self, region: u16, _at: u32) -> Result<(), Error> {
        let rc = &self.program.compiled.regions[region as usize];
        let key = self.read_key(&rc.key_locs)?;
        let (keyed, fallback) = (!rc.key_locs.is_empty(), rc.fallback_pc);
        self.regions[region as usize].report.invocations += 1;
        self.vm.cycles += TRAP_CYCLES;
        self.tr(EventKind::RegionEnter { region, keyed });
        self.walk(region, key, fallback, None)
    }

    fn end_setup(&mut self, region: u16) -> Result<(), Error> {
        let st = &mut self.regions[region as usize];
        let (key, cycles) = (st.pending_key.take(), self.vm.cycles - st.setup_start);
        self.tr(EventKind::SetupEnd { region, cycles });
        let table = self.vm.reg(CTP);
        self.walk(region, key.unwrap_or_default(), None, Some((table, cycles)))
    }

    /// The one ladder walk: try the rungs of the entry's ladder in order.
    /// Each rung books its own serve; [`Session::served`] books what all
    /// serves share, [`Session::decline`] every decline before it. A rung
    /// whose option is off is not on the ladder, and a region quarantine
    /// or the byte budget shut declines all but its fallback copy.
    fn walk(
        &mut self,
        region: u16,
        key: Vec<u64>,
        fallback: Option<u32>,
        setup: Option<(u64, u64)>,
    ) -> Result<(), Error> {
        let keyed = !self.program.compiled.regions[region as usize]
            .key_locs
            .is_empty();
        let shut = fallback.is_some()
            && (self.recovery.is_quarantined(region) || self.recovery.level() >= 2);
        let tiered = self.tiered.is_some() && fallback.is_some();
        let mut e = Entry {
            region,
            key,
            fallback,
            shut,
            setup,
        };
        for &rung in ladder(keyed, tiered, setup.is_some()) {
            let outcome = match rung {
                Rung::Session => self.session_rung(&e, keyed),
                Rung::Fallback => self.fallback_rung(&e),
                _ if shut => Err(Decline::Degraded),
                Rung::Shared => match self.options.shared_cache.clone() {
                    Some(cache) => self.shared_rung(&e, &cache),
                    None => continue,
                },
                Rung::Persist => match self.options.persist.clone() {
                    Some(cache) => self.persist_rung(&e, &cache),
                    None => continue,
                },
                Rung::Background => self.background_rung(&mut e),
                Rung::Setup => self.setup_rung(&mut e),
                Rung::Stitch => self.stitch_rung(&e),
            };
            match outcome {
                Ok(served) => return self.served(rung, served, e),
                Err(d) => {
                    self.decline(region, rung, &d);
                    if let Decline::Stitch(err) = d {
                        return Err(Error::Stitch(err));
                    }
                }
            }
        }
        let msg = format!("region {region}: every rung declined the entry");
        Err(Error::Stitch(StitchError::BadTemplate(msg)))
    }

    /// The one served sink: index anything newly installed (booking the
    /// set-up behind it), resume, and feed the key predictor with entries
    /// served at the trap — except a shut region's (nothing it enqueues
    /// could be installed) and a set-up, which took the key along.
    fn served(&mut self, rung: Rung, served: Served, mut e: Entry) -> Result<(), Error> {
        match served {
            Served::Resume(pc) => {
                // A keyed hit in this session's cache re-arms its guard sled
                // (an unkeyed hit means its trap never retired: no guard).
                let hit = rung == Rung::Session && !e.key.is_empty();
                if let Some(ns) = self.native.as_deref_mut().filter(|_| hit) {
                    ns.guard(&mut self.vm, &self.program, e.region, &e.key, pc);
                }
                self.vm.pc = pc;
            }
            Served::Installed(base, len) => {
                // At the trap the key still feeds the predictor below.
                let key = match e.setup {
                    Some((_, cycles)) => {
                        self.regions[e.region as usize].report.setup_cycles += cycles;
                        std::mem::take(&mut e.key)
                    }
                    None => e.key.clone(),
                };
                self.index_instance(e.region, key, base, len)?;
            }
        }
        if e.setup.is_none() && !e.shut {
            self.speculate_after(e.region, &e.key);
        }
        Ok(())
    }

    /// Session rung: this session's own cache. A keyed region pays the
    /// hashed lookup (and re-arms its guard sled); an unkeyed one traps
    /// only until its first install retires the trap.
    fn session_rung(&mut self, e: &Entry, keyed: bool) -> Result<Served, Decline> {
        let region = e.region;
        if !keyed {
            let cached = self.regions[region as usize].cache.get(&e.key);
            return cached
                .map(|hit| Served::Resume(hit.base))
                .ok_or(Decline::Miss);
        }
        self.vm.cycles += KEYED_LOOKUP_CYCLES + PER_KEY_CYCLES * e.key.len() as u64;
        let cached = self.regions[region as usize].cache.get(&e.key).copied();
        let hit = cached.is_some();
        self.tr(EventKind::KeyedLookup { region, hit });
        let hit = cached.ok_or(Decline::Miss)?;
        self.regions[region as usize].lru.touch(hit.lru);
        Ok(Served::Resume(hit.base))
    }

    /// Shared rung: another session's instance from the process-wide
    /// cache. The probe charges [`SHARED_LOOKUP_CYCLES`], hit or miss;
    /// after set-up the instance must also replay its table reads.
    fn shared_rung(&mut self, e: &Entry, cache: &SharedCodeCache) -> Result<Served, Decline> {
        let region = e.region;
        self.vm.cycles += SHARED_LOOKUP_CYCLES;
        self.inject(FaultPoint::SharedCachePoisonedShard, region)?;
        let found = cache.lookup(&self.shared_key(region, &e.key));
        let hit = found.is_some();
        self.tr(EventKind::CacheLookup { region, hit });
        let stitched = found.ok_or(Decline::Miss)?;
        if e.setup.is_some() && !self.replay_reads(&stitched) {
            return Err(Decline::ReadsMismatch);
        }
        self.inject(FaultPoint::SharedCacheInstall, region)?;
        let (base, words) = self.copy_install(&stitched)?;
        self.regions[region as usize].report.shared_hits += 1;
        self.tr(EventKind::CacheInstall { region, words });
        Ok(Served::Installed(base, words))
    }

    /// Persist rung: an instance an earlier process stored on disk. Disk
    /// traffic is free; a hit charges the shared-cache model (lookup +
    /// per-word copy), so cold runs are identical with `persist` on or
    /// off. Its stubs are reused only at the publisher's base.
    fn persist_rung(&mut self, e: &Entry, cache: &PersistentCache) -> Result<Served, Decline> {
        let region = e.region;
        let hash = self.program.artifact_hash();
        let inst = match cache.load_instance(hash, region, &e.key) {
            InstanceProbe::Hit(inst) => inst,
            InstanceProbe::Reject(reason) => return Err(Decline::PersistReject(reason)),
            InstanceProbe::Miss => {
                self.regions[region as usize].report.persist_misses += 1;
                self.tr(EventKind::PersistLookup { region, hit: false });
                return Err(Decline::Miss);
            }
        };
        if let Err(d) = self.inject(FaultPoint::PersistLoadCorrupt, region) {
            if let Some((_, msg)) = FaultPoint::PersistLoadCorrupt.failure() {
                cache.note_injected_instance_reject(msg);
            }
            return Err(d);
        }
        if e.setup.is_some() && !self.replay_reads(&inst.stitched) {
            return Err(Decline::ReadsMismatch);
        }
        let (base, words) = self.copy_install(&inst.stitched)?;
        self.vm.cycles += SHARED_LOOKUP_CYCLES;
        if let Some(ns) = self.native.as_deref_mut() {
            ns.carry(base, inst.install_base, inst.native);
        }
        self.regions[region as usize].report.persist_hits += 1;
        self.tr(EventKind::PersistLookup { region, hit: true });
        self.tr(EventKind::PersistInstall { region, words });
        Ok(Served::Installed(base, words))
    }

    /// Background rung (tiered): install a finished background stitch,
    /// publishing and storing it. Jobs the visit resolves are booked
    /// first: their `WorkerSlow` fires, their events, then the failed
    /// ones' health records. A job still in flight (or just enqueued,
    /// [`DISPATCH_CYCLES`] each) is a miss; a failed one hands the entry
    /// to set-up, skipping the set-up rung's trap pre-flight.
    fn background_rung(&mut self, e: &mut Entry) -> Result<Served, Decline> {
        let region = e.region;
        // Lifted out of the session while it resolves, so that each
        // finished job's delay is drawn through `fire`.
        let (mut tiered, now) = (self.tiered.take().ok_or(Decline::Miss)?, self.vm.cycles);
        let slow = |r| self.fire(FaultPoint::WorkerSlow, r).unwrap_or(0);
        let (decision, resolved) = tiered.decide(region, &e.key, now, slow);
        self.tiered = Some(tiered);
        if let Some(t) = self.trace.as_mut() {
            for r in &resolved {
                match *r {
                    Resolved::Ready {
                        region,
                        worker,
                        ready_at,
                        speculative,
                    } => t.emit(
                        ready_at,
                        ClockDomain::Worker(worker),
                        EventKind::BgReady {
                            region,
                            speculative,
                        },
                    ),
                    Resolved::Failed {
                        region,
                        at,
                        panicked,
                        ..
                    } => t.emit(
                        at,
                        ClockDomain::Session,
                        EventKind::BgFailed { region, panicked },
                    ),
                }
            }
        }
        for r in resolved {
            if let Resolved::Failed {
                region,
                panicked,
                injected,
                message,
                ..
            } = r
            {
                let kind = FailureKind::Background { panicked };
                self.record_failure(region, kind, injected, message);
            }
        }
        match decision {
            TierDecision::Enqueue => {
                self.vm.cycles += DISPATCH_CYCLES;
                self.enqueue_job(region, e.key.clone(), self.vm.cycles, false);
                self.tr(EventKind::TierDispatch { region });
                Err(Decline::Miss)
            }
            TierDecision::Fallback => Err(Decline::Miss),
            TierDecision::Synchronous => Ok(self.start_setup(e)),
            TierDecision::Install {
                stitched,
                setup_cycles,
                stitch_cycles,
                speculative,
            } => {
                self.arena_backoff(region, Rung::Background)?;
                let (base, words) = self.copy_install(&stitched)?;
                let report = &mut self.regions[region as usize].report;
                report.bg_installs += 1;
                report.spec_installs += u64::from(speculative);
                report.bg_setup_cycles += setup_cycles;
                report.bg_stitch_cycles += stitch_cycles;
                self.tr(EventKind::BgInstall {
                    region,
                    words,
                    speculative,
                    setup_cycles,
                    stitch_cycles,
                });
                if speculative {
                    self.tr(EventKind::SpeculateHit { region });
                }
                self.publish_shared(region, &e.key, Arc::clone(&stitched));
                self.persist_store(region, &e.key, &stitched, base);
                Ok(Served::Installed(base, words))
            }
        }
    }

    /// Setup rung: enter the region's set-up code, pre-flighting injected
    /// set-up traps. A trap is modeled on a probe fork of the VM with a
    /// small instruction budget ([`crate::faults::Injection::magnitude`]);
    /// the attempt's cycles are charged and set-up is retried — or, once
    /// the region is quarantined, declined for its fallback copy.
    fn setup_rung(&mut self, e: &mut Entry) -> Result<Served, Decline> {
        let region = e.region;
        let setup_pc = self.program.compiled.regions[region as usize].setup_pc;
        self.retrying(region, Rung::Setup, e.fallback.is_some(), |s, trusted| {
            let fired = (!trusted).then(|| s.fire(FaultPoint::SetupVmTrap, region));
            let Some(fuel) = fired.flatten() else {
                return Ok(());
            };
            let mut fork = s.vm.clone();
            // The probe fork has no native dispatcher; let it interpret.
            fork.clear_native_marks();
            fork.pc = setup_pc;
            fork.cycles = 0;
            fork.fuel = fuel.max(1);
            let trap = fork.run().err();
            s.vm.cycles += fork.cycles;
            Err(Decline::Injected(FaultPoint::SetupVmTrap, trap))
        })?;
        Ok(self.start_setup(e))
    }

    /// Enter set-up code, leaving the key and the clock for `end_setup`.
    fn start_setup(&mut self, e: &mut Entry) -> Served {
        let st = &mut self.regions[e.region as usize];
        st.pending_key = Some(std::mem::take(&mut e.key));
        st.setup_start = self.vm.cycles;
        self.tr(EventKind::SetupStart { region: e.region });
        Served::Resume(self.program.compiled.regions[e.region as usize].setup_pc)
    }

    /// Stitch rung: stitch the filled constants table under the recovery
    /// policy, append it (after any injected arena backoff), store and
    /// publish it. The native backend pre-translates it first, so the
    /// published instance carries its native footprint (byte-budgeted
    /// shards then govern both backends).
    fn stitch_rung(&mut self, e: &Entry) -> Result<Served, Decline> {
        let (region, table) = (e.region, e.setup.map_or(0, |(table, _)| table));
        let mut stitched = self.retrying(region, Rung::Stitch, false, |s, trusted| {
            s.tr(EventKind::StitchStart { region });
            s.stitch_once(region, table, trusted)
        })?;
        self.arena_backoff(region, Rung::Stitch)?;
        let (base, len) = (self.vm.code.len() as u32, stitched.code.len() as u32);
        self.vm.append_code(&stitched.code);
        if let Some(ns) = self.native.as_deref_mut() {
            stitched.native_bytes = ns.pretranslate(&self.vm, base, len);
        }
        let st = &mut self.regions[region as usize];
        st.report.stitches += 1;
        st.report.stitch_stats += stitched.stats;
        st.report.stitch_cycles = st.report.stitch_stats.cycles;
        st.report.instructions_stitched = st.report.stitch_stats.instructions_stitched;
        st.tables.push(table);
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
        for p in std::mem::take(&mut stitched.plan_patches) {
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
        self.persist_store(region, &e.key, &stitched, base);
        self.publish_shared(region, &e.key, stitched);
        Ok(Served::Installed(base, len))
    }

    /// Fallback rung: the region's statically compiled copy.
    fn fallback_rung(&mut self, e: &Entry) -> Result<Served, Decline> {
        let pc = e.fallback.ok_or(Decline::Miss)?;
        self.regions[e.region as usize].report.fallback_runs += 1;
        self.tr(EventKind::FallbackRun { region: e.region });
        Ok(Served::Resume(pc))
    }

    /// The one decline sink: turn why `rung` declined into exactly its
    /// health record, counter and trace event (DESIGN.md § "Engine: one
    /// miss path…" tabulates them). A refused persistent file is counted
    /// and traced before its record; the store after the local stitch
    /// overwrites it, so corruption heals itself.
    fn decline(&mut self, region: u16, rung: Rung, d: &Decline) {
        let (origin, relocate) = match rung {
            Rung::Shared => ("shared-cache", FailureKind::SharedCache),
            Rung::Persist => ("persistent", FailureKind::Persist),
            _ => ("background", FailureKind::Install),
        };
        let (kind, injected, message) = match d {
            Decline::Miss | Decline::Degraded | Decline::Exhausted => return,
            // A shared instance whose reads do not replay is a silent miss.
            Decline::ReadsMismatch if rung == Rung::Shared => return,
            Decline::ReadsMismatch => (
                FailureKind::Persist,
                false,
                "persistent instance stale: recorded table reads do not replay".to_string(),
            ),
            Decline::PersistReject(reason) => (
                FailureKind::Persist,
                false,
                format!("persistent instance refused: {reason}"),
            ),
            Decline::Injected(point, trap) => {
                let Some((kind, msg)) = point.failure() else {
                    return;
                };
                let message = match (point, trap) {
                    (FaultPoint::SetupVmTrap, Some(e)) => format!("{msg}: {e}"),
                    (FaultPoint::SetupVmTrap, None) => format!("{msg} (probe exhausted)"),
                    (FaultPoint::CodeArenaExhausted, _) if rung == Rung::Background => {
                        format!("{msg} installing background stitch")
                    }
                    (FaultPoint::CodeArenaExhausted, _) => format!("{msg} during install"),
                    _ => msg.to_string(),
                };
                (kind, true, message)
            }
            Decline::Relocate(e) => (
                relocate,
                false,
                format!("{origin} instance failed to relocate: {e}"),
            ),
            Decline::Verify(e, corrupted) => {
                self.tr(EventKind::VerifyReject { region });
                let message = match rung {
                    Rung::Stitch => format!("pre-install verification rejected instance: {e}"),
                    _ => format!("{origin} instance rejected by pre-install verification: {e}"),
                };
                let kind = match rung {
                    Rung::Persist => FailureKind::Persist,
                    _ => FailureKind::Verify,
                };
                (kind, *corrupted, message)
            }
            Decline::Stitch(e) => (FailureKind::Stitch, false, e.to_string()),
        };
        if rung == Rung::Persist {
            self.regions[region as usize].report.persist_rejects += 1;
            self.tr(EventKind::PersistReject { region });
        }
        self.record_failure(region, kind, injected, message);
        if let Decline::Injected(FaultPoint::SharedCachePoisonedShard, _) = d {
            self.tr(EventKind::CacheLookup { region, hit: false });
        }
    }

    /// The one retry loop: run `attempt` until it succeeds. Each failure
    /// goes through the decline sink; the first
    /// [`RecoveryPolicy::max_retries`] are retried after a linear
    /// backoff, and once the cap is spent one last attempt runs `trusted`
    /// (injection suppressed). That attempt's failure, like a genuine
    /// stitcher error, returns for the walk's sink. A `degradable`
    /// attempt (set-up with a fallback copy) stops at quarantine.
    fn retrying<T>(
        &mut self,
        region: u16,
        rung: Rung,
        degradable: bool,
        mut attempt: impl FnMut(&mut Self, bool) -> Result<T, Decline>,
    ) -> Result<T, Decline> {
        let mut failures = 0u32;
        loop {
            let trusted = failures > self.recovery.policy().max_retries;
            let d = match attempt(self, trusted) {
                Ok(done) => return Ok(done),
                Err(d) if trusted || matches!(d, Decline::Stitch(_)) => return Err(d),
                Err(d) => d,
            };
            self.decline(region, rung, &d);
            if degradable && self.recovery.is_quarantined(region) {
                return Err(Decline::Degraded);
            }
            failures += 1;
            if failures > self.recovery.policy().max_retries {
                self.decline(region, rung, &Decline::Exhausted);
            } else {
                self.charge_retry(region, failures);
            }
        }
    }

    /// Injected code-arena exhaustion before an install: back off under
    /// the recovery policy (the simulated arena grows). Never declines.
    fn arena_backoff(&mut self, region: u16, rung: Rung) -> Result<(), Decline> {
        self.retrying(region, rung, false, |s, trusted| match trusted {
            true => Ok(()),
            false => s.inject(FaultPoint::CodeArenaExhausted, region),
        })
    }

    /// A fault point on the ladder: a fire is the rung's decline.
    fn inject(&mut self, point: FaultPoint, region: u16) -> Result<(), Decline> {
        let fired = self.fire(point, region);
        fired.map_or(Ok(()), |_| Err(Decline::Injected(point, None)))
    }

    /// A fault point off the ladder (native install, chain request,
    /// persist store), where a fire declines no entry: it is recorded
    /// from [`FaultPoint::failure`], and `true` tells the caller to skip
    /// or degrade the step.
    fn injected(&mut self, point: FaultPoint, region: u16) -> bool {
        let fired = self.inject(point, region).is_err();
        if let Some((kind, msg)) = point.failure().filter(|_| fired) {
            self.record_failure(region, kind, true, msg.to_string());
        }
        fired
    }

    /// Tiered mode: feed the region's key predictor and enqueue the
    /// predicted keys it chooses, all their [`DISPATCH_CYCLES`] charged
    /// before the first is fired and enqueued. No-op when tiering or
    /// speculation is off, or the region is unkeyed.
    fn speculate_after(&mut self, region: u16, key: &[u64]) {
        let Some(tiered) = self.tiered.as_mut() else {
            return;
        };
        let cache = &self.regions[region as usize].cache;
        let keys = tiered.speculate(region, key, |k| cache.contains_key(k));
        let (now, n) = (self.vm.cycles, keys.len() as u64);
        self.vm.cycles += n * DISPATCH_CYCLES;
        for (i, key) in (1..).zip(keys) {
            self.enqueue_job(region, key, now + i * DISPATCH_CYCLES, true);
        }
        for _ in 0..n {
            self.tr(EventKind::SpeculateIssue { region });
        }
    }

    /// Enqueue the stitch job `(region, key)` stamped `at`, drawing its
    /// [`FaultPoint::WorkerPanic`] first.
    fn enqueue_job(&mut self, region: u16, key: Vec<u64>, at: u64, speculative: bool) {
        let inject_panic = self.fire(FaultPoint::WorkerPanic, region).is_some();
        let rc = &self.program.compiled.regions[region as usize];
        if let Some(t) = self.tiered.as_mut() {
            let job = Job {
                region,
                key,
                at,
                speculative,
                inject_panic,
            };
            t.enqueue(&self.vm, rc, &self.options.stitch, job);
        }
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
    /// append. Returns `(base, len)`; on a refusal nothing was installed
    /// or charged.
    fn copy_install(&mut self, stitched: &Stitched) -> Result<(u32, u32), Decline> {
        let base = self.vm.code.len() as u32;
        let (code, _lin_addr) = stitched
            .relocate(base, &mut self.vm.mem)
            .map_err(Decline::Relocate)?;
        verify_code(&code, base).map_err(|e| Decline::Verify(e, false))?;
        self.vm.cycles += SHARED_INSTALL_CYCLES_PER_WORD * code.len() as u64;
        self.vm.append_code(&code);
        Ok((base, code.len() as u32))
    }

    /// This session's name for `(region, key)` in the process-wide cache.
    fn shared_key(&self, region: u16, key: &[u64]) -> SharedKey {
        SharedKey {
            program: self.program.id(),
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
        if self.injected(FaultPoint::PersistLockContended, region) {
            cache.note_lock_skip();
            return;
        }
        let torn = self.injected(FaultPoint::PersistWriteTorn, region);
        let hash = self.program.artifact_hash();
        // The native stubs go along when the stitch rung pre-translated
        // this very base and they can serve entries.
        let native = self.native.as_deref().and_then(|ns| ns.held(base));
        let outcome = cache.store_instance(hash, region, key, stitched, base, native, torn);
        if let StoreOutcome::Failed(reason) = outcome {
            self.record_failure(
                region,
                FailureKind::Persist,
                false,
                format!("persist store failed: {reason}"),
            );
        }
    }

    /// One stitch attempt for `region` at the end of the code space:
    /// consult the fault plan (injected bad template, post-stitch
    /// corruption) unless `trusted`, and run the pre-install verifier over
    /// the result. A trusted attempt differs in nothing else, and a
    /// quarantined region stitches as any other (its fires are
    /// suppressed). Never installs anything.
    fn stitch_once(&mut self, region: u16, table: u64, trusted: bool) -> Result<Stitched, Decline> {
        if !trusted {
            self.inject(FaultPoint::StitchBadTemplate, region)?;
        }
        let base = self.vm.code.len() as u32;
        let rc = &self.program.compiled.regions[region as usize];
        let mut stitched =
            dyncomp_stitcher::stitch(rc, table, &mut self.vm.mem, base, &self.options.stitch)
                .map_err(Decline::Stitch)?;
        let mut corrupted = false;
        if !trusted
            && self.fire(FaultPoint::CodeCorruption, region).is_some()
            && !stitched.code.is_empty()
        {
            // Flip an instruction-start word (never an `Ldiw` payload,
            // which no decoder could fault on) to a value nothing
            // decodes: the pre-install verifier must catch it. A fault
            // just fired, so the plan state exists; if it vanished
            // anyway, skip the corruption rather than panic.
            if let Some(f) = self.faults.as_mut() {
                let starts: Vec<usize> = walk(&stitched.code).map(|step| step.at).collect();
                let pick = f.draw_below(starts.len() as u64) as usize;
                stitched.code[starts[pick]] = 0xFF00_0000;
                corrupted = true;
            }
        }
        verify_code(&stitched.code, base).map_err(|e| Decline::Verify(e, corrupted))?;
        Ok(stitched)
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
        // Native first: `with_byte_budget` and the ladder govern both backends.
        let native_bytes = self.install_native(region, base, len);
        // Account the installed bytes against the session's code budget;
        // reaching the budget is a trace event (the step itself takes
        // effect at the next entry). There the ladder sheds optimized
        // execution for the region, so its native instances are
        // severed — a stale chain must not outlive them.
        let degraded = self
            .recovery
            .add_bytes(4 * u64::from(len) + native_bytes)
            .inspect(|&level| self.tr(EventKind::BudgetDegrade { region, level }))
            .is_some();
        let rc = &self.program.compiled.regions[region as usize];
        let (keyed, enter_pc) = (!rc.key_locs.is_empty(), rc.enter_pc);
        let st = &mut self.regions[region as usize];
        st.instances.push((key.clone(), base, len));
        let mut evicted = 0u64;
        let mut severed: Vec<u32> = Vec::new();
        let lru = if keyed {
            if let Some(cap) = self.options.keyed_cache_capacity {
                while st.cache.len() >= cap.max(1) {
                    let Some(victim) = st.lru.pop_lru() else {
                        break;
                    };
                    severed.extend(st.cache.remove(&victim).map(|e| e.base));
                    st.report.evictions += 1;
                    evicted += 1;
                }
            }
            st.lru.insert(key.clone())
        } else {
            usize::MAX // unkeyed: the trap is patched away below
        };
        st.cache.insert(key, CacheEntry { base, lru });
        if degraded {
            severed.extend(st.instances.iter().map(|&(_, b, _)| b));
        }
        for _ in 0..evicted {
            self.tr(EventKind::KeyedEvict { region });
        }
        // Sever chains into evicted instances (and, degraded, into every
        // instance of the region) *before* anything can dispatch again:
        // their keys are gone from the cache, so the next entry with them
        // re-stitches at a fresh base.
        self.sever_native(region, severed);

        // Unkeyed regions: retire the trap — patch EnterRegion into a
        // direct branch to the stitched code (§1: the templates "become
        // part of the application").
        if !keyed {
            let w = branch_word(Op::Br, ZERO, enter_pc.into(), base.into()).map_err(|e| {
                Error::Stitch(StitchError::BadTemplate(format!(
                    "trap-retirement branch to stitched code does not encode \
                     (region {region}, base {base}, enter_pc {enter_pc}): {e}"
                )))
            })?;
            self.vm.patch_code(enter_pc, w)?;
            // The static snapshot still holds the stale `EnterRegion` at
            // this pc; patch its guard sled into an unconditional entry
            // so chained control need not bounce through the VM to take
            // the retired branch.
            if let Some(ns) = self.native.as_deref_mut() {
                ns.guard(&mut self.vm, &self.program, region, &[], base);
            }
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
        let sum =
            |count: fn(&RegionReport) -> u64| self.regions.iter().map(|r| count(&r.report)).sum();
        self.recovery
            .report(sum(|r| r.faults_injected), sum(|r| r.retries))
    }

    /// Host-native backend counters. All-zero (with `enabled: false`)
    /// when [`EngineOptions::native`] was not set.
    pub fn native_report(&self) -> NativeReport {
        let native = self.native.as_deref();
        native.map_or_else(NativeReport::default, NativeState::report)
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
        let program = &*self.program;
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

/// A rung of the probe ladder: one way to serve a region entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rung {
    /// The session's own cache.
    Session,
    /// The process-wide [`SharedCodeCache`].
    Shared,
    /// The on-disk [`PersistentCache`].
    Persist,
    /// Tiered: a finished background stitch.
    Background,
    /// Set-up code; the entry walks on from `EndSetup`.
    Setup,
    /// This session's own stitch of the filled constants table.
    Stitch,
    /// The region's statically compiled fallback copy.
    Fallback,
}

/// The rungs an entry walks, in order. DESIGN.md § "Engine: one miss
/// path…" tabulates these slices (a unit test holds it to them): a keyed
/// region's instance is named by its key, readable at the trap; an
/// unkeyed one's by the constants its set-up has yet to produce, so it
/// probes the caches only after set-up, replaying the publisher's reads.
fn ladder(keyed: bool, tiered: bool, after_setup: bool) -> &'static [Rung] {
    use Rung::*;
    match (after_setup, keyed, tiered) {
        (false, true, false) => &[Session, Shared, Persist, Setup, Fallback],
        (false, true, true) => &[Session, Shared, Persist, Background, Fallback],
        (false, false, false) => &[Session, Setup, Fallback],
        (false, false, true) => &[Session, Background, Fallback],
        (true, true, _) => &[Stitch],
        (true, false, _) => &[Shared, Persist, Stitch],
    }
}

/// Why a rung did not serve an entry; [`Session::decline`] books each.
enum Decline {
    /// Nothing under this identity (a background job: not finished yet).
    Miss,
    /// The publisher's recorded table reads do not replay here.
    ReadsMismatch,
    /// The persistent cache refused its file.
    PersistReject(String),
    /// The fault plan fired here; a set-up trap carries what its probe
    /// fork hit (`None`: the probe finished).
    Injected(FaultPoint, Option<VmError>),
    /// The instance does not relocate into this session.
    Relocate(StitchError),
    /// The pre-install verifier refused the code (`true`: the fault plan
    /// corrupted it).
    Verify(CodeVerifyError, bool),
    /// Quarantine or the byte budget shut the region's optimized path.
    Degraded,
    /// Failures spent the retry cap; one trusted attempt follows.
    Exhausted,
    /// A genuine stitcher error: recorded, then propagated.
    Stitch(StitchError),
}

/// A region entry on its way down its ladder.
struct Entry {
    region: u16,
    key: Vec<u64>,
    /// The static fallback copy (trap walks only).
    fallback: Option<u32>,
    /// Quarantine or the byte budget shut the optimized path.
    shut: bool,
    /// After set-up: the filled constants table and the set-up cycles.
    setup: Option<(u64, u64)>,
}

/// How a rung served an entry.
enum Served {
    /// Resume at this pc: a cached instance, set-up, the fallback copy.
    Resume(u32),
    /// Resume in the instance just installed at `base` (`len` words).
    Installed(u32, u32),
}

#[cfg(test)]
mod tests {
    use super::ladder;

    /// DESIGN.md's ladder table is these slices, row for row.
    #[test]
    fn design_ladder_table_is_the_code() {
        let mut table = String::from("| entry | rungs, in walk order |\n|---|---|\n");
        for (after_setup, keyed, tiered) in [
            (false, true, false),
            (false, true, true),
            (false, false, false),
            (false, false, true),
            (true, true, false),
            (true, false, false),
        ] {
            let rungs: Vec<String> = ladder(keyed, tiered, after_setup)
                .iter()
                .map(|r| format!("{r:?}").to_lowercase())
                .collect();
            table += &format!(
                "| {}, {}{} | {} |\n",
                if keyed { "keyed" } else { "unkeyed" },
                if after_setup {
                    "after set-up"
                } else {
                    "at the trap"
                },
                if tiered { ", tiered" } else { "" },
                rungs.join(" → ")
            );
        }
        let design = include_str!("../../../DESIGN.md");
        assert!(
            design.contains(&table),
            "DESIGN.md drifted; the code says:\n{table}"
        );
    }
}
