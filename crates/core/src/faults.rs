//! Deterministic fault injection and policy-driven recovery.
//!
//! The paper's premise is that dynamic compilation is a *transparent*
//! optimization: a region that cannot be stitched must still compute the
//! same answer through some slower path. This module makes that property
//! testable. A [`FaultPlan`] arms named [`FaultPoint`]s threaded through
//! every fallible layer of the runtime — the stitcher, the shared cache,
//! tiered background jobs, and set-up code itself — and a seeded
//! [`SplitMix64`] decides, deterministically, when each armed point
//! fires. Because every decision is driven by simulated state (region
//! numbers, fire counts, a fixed seed) and never by host time or
//! scheduling, a faulted run is exactly repeatable: same plan, same
//! seed, same fires, same recovery, same checksums.
//!
//! Recovery is governed by a [`RecoveryPolicy`]:
//!
//! * **capped retry** — a failed set-up, stitch or install is retried up
//!   to [`RecoveryPolicy::max_retries`] times, charging a deterministic
//!   virtual-cycle backoff per attempt; once injected failures spend the
//!   cap, the operation runs once more with injection suppressed and
//!   nothing else changed, so an injected fault never fails a call —
//!   only a genuine error does;
//! * **per-region quarantine** — after
//!   [`RecoveryPolicy::quarantine_after`] failures a region stops
//!   retrying the optimized path: artifacts with a static fallback copy
//!   serve it permanently, others keep stitching as any region does, with
//!   injection suppressed (what a quarantined region runs is trusted —
//!   injected faults model *optimized-path* failures);
//! * **degradation ladder** — under a configurable stitched-code byte
//!   budget ([`RecoveryPolicy::code_budget_bytes`]) the session sheds
//!   the code the budget counts: at full budget regions with a fallback
//!   copy stop installing new code entirely (ladder level 2). There is
//!   no earlier step: turning copy-and-patch plans off would shed no
//!   byte the budget counts, since plans emit bit-identical words.
//!
//! Every failure is recorded in a bounded ring surfaced through
//! [`crate::Session::health`], and every injection, retry, quarantine
//! and degradation step is a typed trace event. With no plan armed the
//! framework costs nothing: no allocation, no cycles, no events — the
//! default-mode benchmark tables are byte-identical.

use dyncomp_ir::prng::SplitMix64;

/// A named place in the runtime where a fault can be injected. Each
/// point models a distinct real-world failure in the layer it lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// The stitcher reports a malformed template (`BadTemplate`).
    StitchBadTemplate,
    /// Installing stitched code finds the code arena exhausted; the
    /// install is retried after a backoff (the simulated arena grows).
    CodeArenaExhausted,
    /// A bit flips in stitched code before the pre-install verifier
    /// runs, exercising the verifier end-to-end: the corrupt instance is
    /// rejected and a clean re-stitch recovers.
    CodeCorruption,
    /// Installing a shared-cache hit fails; the session degrades to its
    /// own set-up + stitch path.
    SharedCacheInstall,
    /// A shared-cache shard is poisoned: the probe is abandoned and
    /// treated as a miss.
    SharedCachePoisonedShard,
    /// A background stitch job panics inside the worker (the
    /// `catch_unwind` hardening path; the region is pinned to its
    /// fallback copy).
    WorkerPanic,
    /// A background job's virtual completion time slips by
    /// [`Injection::magnitude`] cycles (default
    /// [`Injection::DEFAULT_SLOW_CYCLES`]): the session keeps running
    /// the fallback copy longer.
    WorkerSlow,
    /// Set-up code traps mid-run (modeled as an instruction budget of
    /// [`Injection::magnitude`], default
    /// [`Injection::DEFAULT_TRAP_FUEL`], on a probe fork); the attempt's
    /// cycles are charged and set-up is retried.
    SetupVmTrap,
    /// The native backend's executable arena cannot be mapped (mmap /
    /// mprotect failure): the install is declined, a
    /// [`FailureKind::BackendUnavailable`] record is logged once, and
    /// the region keeps running on the VM backend.
    NativeArenaExhausted,
    /// A chain request after a native install is declined (modeling an
    /// mprotect refusal mid-back-patch): the instance stays unchained
    /// and every entry keeps bouncing through the VM dispatch loop,
    /// exercising the severed-link/unchained path on any host.
    NativeChainPatch,
    /// A persistent-cache store is torn mid-write (modeling a crash
    /// between write and fsync): a deterministically truncated payload
    /// lands on disk under a valid-looking header, so the *next* load
    /// of that file fails its checksum and degrades to recompile.
    PersistWriteTorn,
    /// A persistent-cache load comes back corrupt (bit-rot, version
    /// skew): the file is treated as poisoned, the session recompiles,
    /// and the fresh result overwrites the bad file.
    PersistLoadCorrupt,
    /// The persistent cache's advisory write lock is contended: the
    /// store is skipped (some other process is presumed to be writing
    /// the same key) and the session continues unpersisted.
    PersistLockContended,
}

impl FaultPoint {
    /// Every fault point, in a stable order (the `fault_sweep` bench
    /// enumerates these).
    pub const ALL: [FaultPoint; 13] = [
        FaultPoint::StitchBadTemplate,
        FaultPoint::CodeArenaExhausted,
        FaultPoint::CodeCorruption,
        FaultPoint::SharedCacheInstall,
        FaultPoint::SharedCachePoisonedShard,
        FaultPoint::WorkerPanic,
        FaultPoint::WorkerSlow,
        FaultPoint::SetupVmTrap,
        FaultPoint::NativeArenaExhausted,
        FaultPoint::NativeChainPatch,
        FaultPoint::PersistWriteTorn,
        FaultPoint::PersistLoadCorrupt,
        FaultPoint::PersistLockContended,
    ];

    /// Stable name (trace events, `BENCH_fault_sweep.json` rows).
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::StitchBadTemplate => "StitchBadTemplate",
            FaultPoint::CodeArenaExhausted => "CodeArenaExhausted",
            FaultPoint::CodeCorruption => "CodeCorruption",
            FaultPoint::SharedCacheInstall => "SharedCacheInstall",
            FaultPoint::SharedCachePoisonedShard => "SharedCachePoisonedShard",
            FaultPoint::WorkerPanic => "WorkerPanic",
            FaultPoint::WorkerSlow => "WorkerSlow",
            FaultPoint::SetupVmTrap => "SetupVmTrap",
            FaultPoint::NativeArenaExhausted => "NativeArenaExhausted",
            FaultPoint::NativeChainPatch => "NativeChainPatch",
            FaultPoint::PersistWriteTorn => "PersistWriteTorn",
            FaultPoint::PersistLoadCorrupt => "PersistLoadCorrupt",
            FaultPoint::PersistLockContended => "PersistLockContended",
        }
    }

    /// The health record one fire of this point leaves: its kind and
    /// message (injected, always). The engine appends what only the fire
    /// site knows: what a set-up probe fork hit, and which install an
    /// exhausted arena stalled. `None` for the points whose failure is
    /// recorded by what they break: a corrupted instance by the
    /// verifier's reject, a worker panic by the background failure it
    /// causes; a slowed worker records nothing.
    pub(crate) fn failure(self) -> Option<(FailureKind, &'static str)> {
        use {FailureKind as K, FaultPoint as P};
        Some(match self {
            P::StitchBadTemplate => (K::Stitch, "injected stitch failure: malformed template"),
            P::CodeArenaExhausted => (K::Install, "injected code-arena exhaustion"),
            P::SharedCacheInstall => (K::SharedCache, "injected shared-cache install failure"),
            P::SharedCachePoisonedShard => (
                K::SharedCache,
                "injected poisoned shared-cache shard: probe abandoned",
            ),
            P::SetupVmTrap => (K::Setup, "injected VM trap during set-up"),
            P::NativeArenaExhausted => (
                K::BackendUnavailable,
                "injected native-arena exhaustion: instance stays on the VM backend",
            ),
            P::NativeChainPatch => (
                K::BackendUnavailable,
                "injected native chain-patch failure: instance stays unchained",
            ),
            P::PersistWriteTorn => (
                K::Persist,
                "injected torn persist write: truncated file left for the next load to refuse",
            ),
            P::PersistLoadCorrupt => (
                K::Persist,
                "injected persist load corruption: cached instance discarded",
            ),
            P::PersistLockContended => (
                K::Persist,
                "injected persist lock contention: store skipped",
            ),
            P::CodeCorruption | P::WorkerPanic | P::WorkerSlow => return None,
        })
    }
}

/// One armed injection: a fault point, an optional region filter, a fire
/// budget and an optional probability.
#[derive(Clone, Debug)]
pub struct Injection {
    /// Where to inject.
    pub point: FaultPoint,
    /// Only fire for this region (`None`: any region).
    pub region: Option<u16>,
    /// Stop firing after this many fires.
    pub max_fires: u32,
    /// Fire with probability `num/den` per opportunity, drawn from the
    /// plan's seeded PRNG (`None`: fire at every opportunity until
    /// `max_fires` is exhausted). `Some((0, 1))` arms the point without
    /// ever firing — the zero-cost-when-idle proof configuration.
    pub chance: Option<(u64, u64)>,
    /// Point-specific magnitude; `0` selects the point's default
    /// ([`Injection::DEFAULT_SLOW_CYCLES`] for [`FaultPoint::WorkerSlow`],
    /// [`Injection::DEFAULT_TRAP_FUEL`] for [`FaultPoint::SetupVmTrap`];
    /// other points ignore it).
    pub magnitude: u64,
}

impl Injection {
    /// Default virtual-cycle delay for [`FaultPoint::WorkerSlow`].
    pub const DEFAULT_SLOW_CYCLES: u64 = 50_000;
    /// Default probe-fork instruction budget for
    /// [`FaultPoint::SetupVmTrap`].
    pub const DEFAULT_TRAP_FUEL: u64 = 6;

    /// An injection at `point` firing once, for any region,
    /// unconditionally, with the default magnitude.
    pub fn new(point: FaultPoint) -> Self {
        Injection {
            point,
            region: None,
            max_fires: 1,
            chance: None,
            magnitude: 0,
        }
    }

    /// Same, firing up to `max_fires` times.
    pub fn times(point: FaultPoint, max_fires: u32) -> Self {
        Injection {
            max_fires,
            ..Injection::new(point)
        }
    }

    /// The effective magnitude for this injection's point.
    fn effective_magnitude(&self) -> u64 {
        if self.magnitude != 0 {
            return self.magnitude;
        }
        match self.point {
            FaultPoint::WorkerSlow => Injection::DEFAULT_SLOW_CYCLES,
            FaultPoint::SetupVmTrap => Injection::DEFAULT_TRAP_FUEL,
            _ => 0,
        }
    }
}

/// A deterministic fault plan: a PRNG seed plus the armed injections.
/// Installed via [`crate::EngineOptions::faults`]; `None` there disables
/// injection entirely (and is the default — the paper tables never see
/// this machinery).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for the plan's [`SplitMix64`] (probability draws and
    /// corruption positions).
    pub seed: u64,
    /// The armed injections, consulted in order at each opportunity.
    pub injections: Vec<Injection>,
}

impl FaultPlan {
    /// A plan with one injection: `point` fires `max_fires` times, any
    /// region, unconditionally.
    pub fn single(point: FaultPoint, max_fires: u32) -> Self {
        FaultPlan {
            seed: 0,
            injections: vec![Injection::times(point, max_fires)],
        }
    }

    /// A seeded chaos plan arming every fault point at probability 1/8
    /// with a small fire budget each (the `dyncc --fault-seed` plan).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            injections: FaultPoint::ALL
                .iter()
                .map(|&p| Injection {
                    chance: Some((1, 8)),
                    ..Injection::times(p, 4)
                })
                .collect(),
        }
    }

    /// A plan arming every fault point with zero probability: the full
    /// injection machinery is consulted at every opportunity but never
    /// fires. Used to prove the armed-but-idle configuration changes no
    /// simulated result.
    pub fn idle() -> Self {
        FaultPlan {
            seed: 0,
            injections: FaultPoint::ALL
                .iter()
                .map(|&p| Injection {
                    chance: Some((0, 1)),
                    max_fires: u32::MAX,
                    ..Injection::new(p)
                })
                .collect(),
        }
    }
}

/// Live injection state owned by a session: the plan, per-injection fire
/// counts and the seeded PRNG. The session counts and traces each fire.
#[derive(Debug)]
pub(crate) struct FaultState {
    injections: Vec<Injection>,
    fired: Vec<u32>,
    rng: SplitMix64,
}

impl FaultState {
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        FaultState {
            fired: vec![0; plan.injections.len()],
            injections: plan.injections.clone(),
            rng: SplitMix64::new(plan.seed),
        }
    }

    /// Consult the plan at an opportunity for `point` in `region`.
    /// Returns the injection's effective magnitude when it fires.
    pub(crate) fn fire(&mut self, point: FaultPoint, region: u16) -> Option<u64> {
        for (i, inj) in self.injections.iter().enumerate() {
            if inj.point != point || self.fired[i] >= inj.max_fires {
                continue;
            }
            if let Some(r) = inj.region {
                if r != region {
                    continue;
                }
            }
            let roll = match inj.chance {
                None => true,
                Some((num, den)) => self.rng.chance(num, den.max(1)),
            };
            if roll {
                self.fired[i] += 1;
                return Some(inj.effective_magnitude());
            }
        }
        None
    }

    /// A deterministic draw below `n` (corruption word positions).
    pub(crate) fn draw_below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }
}

/// How the session responds to failures — injected or genuine. Always
/// present on [`crate::EngineOptions`]; with no failures and no byte
/// budget it costs nothing (backoff cycles are only charged when a
/// retry actually happens).
#[derive(Clone, Debug)]
pub struct RecoveryPolicy {
    /// Retries per failed operation (stitch, install, set-up), each
    /// charged a linear backoff. A spent cap is not a failed call: the
    /// failure after the last retry is recorded, and the operation then
    /// runs once more with injection suppressed. Only a genuine failure
    /// on that run reaches the caller.
    pub max_retries: u32,
    /// Failures recorded against a region before it is quarantined:
    /// pinned to its static fallback copy when the artifact has one,
    /// otherwise stitched as any region is, with injection suppressed.
    pub quarantine_after: u32,
    /// Stitched-code byte budget for this session (`None`: unbounded,
    /// the paper's model). At the full budget, regions with a fallback
    /// copy stop installing new code.
    pub code_budget_bytes: Option<u64>,
}

/// Capacity of the bounded failure ring behind
/// [`crate::Session::health`]; older records are dropped (counted).
pub const FAILURE_LOG: usize = 64;

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            quarantine_after: 4,
            code_budget_bytes: None,
        }
    }
}

/// What kind of operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The stitcher failed.
    Stitch,
    /// The pre-install verifier rejected an instance.
    Verify,
    /// Installing stitched code failed (arena exhaustion).
    Install,
    /// A shared-cache probe or install failed.
    SharedCache,
    /// Set-up code trapped.
    Setup,
    /// A background stitch job failed.
    Background {
        /// Whether the worker panicked (vs. an ordinary error).
        panicked: bool,
    },
    /// The native backend declined (unsupported host, or the W^X arena
    /// could not be mapped); the session continues on the VM backend.
    BackendUnavailable,
    /// An engine-internal state invariant broke (e.g. the native-backend
    /// state vanished at a site whose control flow had established it
    /// exists). The session degrades — never the process: one entry is
    /// recorded here and execution continues on the pure-VM path.
    EngineState,
    /// A persistent-cache load or store failed (corrupt file, torn
    /// write, lock contention): the session recompiles or continues
    /// unpersisted. Never fatal — the on-disk cache is purely an
    /// accelerator.
    Persist,
}

impl FailureKind {
    /// Stable name for rendering.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Stitch => "stitch",
            FailureKind::Verify => "verify",
            FailureKind::Install => "install",
            FailureKind::SharedCache => "shared-cache",
            FailureKind::Setup => "setup",
            FailureKind::Background { panicked: true } => "background-panic",
            FailureKind::Background { panicked: false } => "background-error",
            FailureKind::BackendUnavailable => "backend-unavailable",
            FailureKind::EngineState => "engine-state",
            FailureKind::Persist => "persist",
        }
    }
}

/// One recorded failure.
#[derive(Clone, Debug)]
pub struct FailureRecord {
    /// Session cycle stamp when the failure was recorded.
    pub at: u64,
    /// The region involved.
    pub region: u16,
    /// What failed.
    pub kind: FailureKind,
    /// Whether the failure was injected by the fault plan (vs. genuine).
    pub injected: bool,
    /// Human-readable diagnostic.
    pub message: String,
}

/// A snapshot of the session's robustness state
/// ([`crate::Session::health`]).
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// The retained failure records, oldest first (bounded by
    /// [`FAILURE_LOG`]).
    pub failures: Vec<FailureRecord>,
    /// Total failures ever recorded (including dropped records).
    pub total_failures: u64,
    /// Records dropped from the ring to respect its capacity.
    pub dropped: u64,
    /// Regions currently quarantined, ascending.
    pub quarantined: Vec<u16>,
    /// Faults injected by the plan so far.
    pub faults_injected: u64,
    /// Retries performed so far.
    pub retries: u64,
    /// Stitched-code bytes installed so far (all install paths).
    pub code_bytes_installed: u64,
    /// The configured byte budget, if any.
    pub code_budget_bytes: Option<u64>,
    /// Current degradation-ladder level: 0 = full stitching, 2 =
    /// fallback only (regions with a static fallback copy stop
    /// installing new code). Level 1 is not used: turning plans off
    /// would shed nothing the budget counts, since plans emit the same
    /// words.
    pub degradation_level: u8,
}

/// Mutable recovery bookkeeping owned by a session.
#[derive(Debug)]
pub(crate) struct RecoveryState {
    policy: RecoveryPolicy,
    ring: std::collections::VecDeque<FailureRecord>,
    dropped: u64,
    total: u64,
    per_region: Vec<u32>,
    quarantined: Vec<bool>,
    bytes_installed: u64,
}

impl RecoveryState {
    pub(crate) fn new(policy: RecoveryPolicy, regions: usize) -> Self {
        RecoveryState {
            policy,
            ring: std::collections::VecDeque::new(),
            dropped: 0,
            total: 0,
            per_region: vec![0; regions],
            quarantined: vec![false; regions],
            bytes_installed: 0,
        }
    }

    pub(crate) fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// Record a failure into the bounded ring, bump the region's failure
    /// count, and quarantine the region once it crosses the threshold.
    /// Returns `true` when this record newly quarantined the region.
    pub(crate) fn record(&mut self, rec: FailureRecord) -> bool {
        let region = rec.region as usize;
        self.total += 1;
        if self.ring.len() >= FAILURE_LOG {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(rec);
        // Failures attributed to no particular region (the static-region
        // sentinel, engine-state entries) still land in the ring but have
        // no per-region quarantine row.
        if region >= self.per_region.len() {
            return false;
        }
        self.per_region[region] += 1;
        if !self.quarantined[region] && self.per_region[region] >= self.policy.quarantine_after {
            self.quarantined[region] = true;
            return true;
        }
        false
    }

    pub(crate) fn is_quarantined(&self, region: u16) -> bool {
        self.quarantined
            .get(region as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Account installed code bytes against the budget. Returns the new
    /// degradation level when this installation crossed a ladder step.
    pub(crate) fn add_bytes(&mut self, bytes: u64) -> Option<u8> {
        let before = self.level();
        self.bytes_installed += bytes;
        let after = self.level();
        (after > before).then_some(after)
    }

    /// Current degradation-ladder level (see
    /// [`HealthReport::degradation_level`]).
    pub(crate) fn level(&self) -> u8 {
        match self.policy.code_budget_bytes {
            Some(budget) if self.bytes_installed >= budget => 2,
            _ => 0,
        }
    }

    /// The health snapshot, with the fault and retry totals the session
    /// sums from its per-region reports.
    pub(crate) fn report(&self, faults_injected: u64, retries: u64) -> HealthReport {
        HealthReport {
            failures: self.ring.iter().cloned().collect(),
            total_failures: self.total,
            dropped: self.dropped,
            quarantined: (0..self.quarantined.len())
                .filter(|&i| self.quarantined[i])
                .map(|i| i as u16)
                .collect(),
            faults_injected,
            retries,
            code_bytes_installed: self.bytes_installed,
            code_budget_bytes: self.policy.code_budget_bytes,
            degradation_level: self.level(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_fires_deterministically_and_respects_budget() {
        let plan = FaultPlan::single(FaultPoint::StitchBadTemplate, 2);
        let mut a = FaultState::new(&plan);
        let mut b = FaultState::new(&plan);
        let mut fires = 0;
        for _ in 0..5 {
            let fired = a.fire(FaultPoint::StitchBadTemplate, 0);
            assert_eq!(fired, b.fire(FaultPoint::StitchBadTemplate, 0));
            fires += usize::from(fired.is_some());
        }
        assert_eq!(fires, 2, "max_fires caps the fires");
        assert!(a.fire(FaultPoint::WorkerPanic, 0).is_none(), "unarmed");
    }

    #[test]
    fn region_filter_and_magnitude_default() {
        let plan = FaultPlan {
            seed: 7,
            injections: vec![Injection {
                region: Some(1),
                ..Injection::new(FaultPoint::WorkerSlow)
            }],
        };
        let mut f = FaultState::new(&plan);
        assert!(f.fire(FaultPoint::WorkerSlow, 0).is_none());
        assert_eq!(
            f.fire(FaultPoint::WorkerSlow, 1),
            Some(Injection::DEFAULT_SLOW_CYCLES)
        );
    }

    #[test]
    fn idle_plan_never_fires() {
        let mut f = FaultState::new(&FaultPlan::idle());
        for p in FaultPoint::ALL {
            for r in 0..4 {
                assert!(f.fire(p, r).is_none());
            }
        }
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let plan = FaultPlan::seeded(42);
        let mut a = FaultState::new(&plan);
        let mut b = FaultState::new(&plan);
        let seq_a: Vec<_> = (0..64)
            .map(|i| a.fire(FaultPoint::ALL[i % 8], (i % 3) as u16))
            .collect();
        let seq_b: Vec<_> = (0..64)
            .map(|i| b.fire(FaultPoint::ALL[i % 8], (i % 3) as u16))
            .collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn recovery_ring_is_bounded_and_quarantines() {
        let mut r = RecoveryState::new(
            RecoveryPolicy {
                quarantine_after: 3,
                ..RecoveryPolicy::default()
            },
            2,
        );
        let rec = |region| FailureRecord {
            at: 0,
            region,
            kind: FailureKind::Stitch,
            injected: true,
            message: String::new(),
        };
        assert!(!r.record(rec(0)));
        assert!(!r.record(rec(0)));
        assert!(r.record(rec(0)), "third failure quarantines");
        assert!(!r.record(rec(0)), "only the crossing reports true");
        assert!(r.is_quarantined(0));
        assert!(!r.is_quarantined(1));
        // One record more than the ring holds: the oldest is dropped.
        for _ in 4..=FAILURE_LOG {
            r.record(rec(0));
        }
        let h = r.report(0, 0);
        assert_eq!(h.failures.len(), FAILURE_LOG);
        assert_eq!(h.total_failures, FAILURE_LOG as u64 + 1);
        assert_eq!(h.dropped, 1);
        assert_eq!(h.quarantined, vec![0]);
    }

    #[test]
    fn degradation_ladder_levels() {
        let mut r = RecoveryState::new(
            RecoveryPolicy {
                code_budget_bytes: Some(100),
                ..RecoveryPolicy::default()
            },
            1,
        );
        assert_eq!(r.level(), 0);
        assert_eq!(r.add_bytes(75), None, "3/4 budget sheds nothing");
        assert_eq!(r.add_bytes(24), None);
        assert_eq!(r.level(), 0);
        assert_eq!(r.add_bytes(1), Some(2), "full budget: fallback only");
        assert_eq!(r.add_bytes(1000), None, "no re-report past the top");
    }

    #[test]
    fn no_budget_means_level_zero_forever() {
        let mut r = RecoveryState::new(RecoveryPolicy::default(), 1);
        assert_eq!(r.add_bytes(u64::MAX / 2), None);
        assert_eq!(r.level(), 0);
    }
}
