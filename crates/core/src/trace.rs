//! Deterministic structured tracing and per-region metrics.
//!
//! Behind [`crate::EngineOptions::trace`] the session records every
//! region-lifecycle transition as a typed [`TraceEvent`] — region entry,
//! set-up, stitching (with per-category hole/branch/unroll counts), plan
//! patches, shared-cache traffic, tier dispatch/fallback/install,
//! speculation, keyed-cache lookups and evictions, plus the robustness
//! lifecycle (fault injections, recovery retries, quarantines, verifier
//! rejections, budget degradations) — into a bounded
//! per-session ring buffer, while a never-dropping [`RegionProfile`]
//! aggregator accumulates per-region totals, cycle histograms and ratios.
//!
//! # Clock domains
//!
//! Every stamp is read from a *simulated* clock, never from host time:
//!
//! * [`ClockDomain::Session`] — the session's VM cycle counter, stamped
//!   after the charges the event describes were applied.
//! * [`ClockDomain::Worker`] — a virtual background-worker clock from the
//!   tiered overlap model ([`crate::tiered`]); used for `BgReady`, whose
//!   completion time is decided on worker clocks.
//!
//! Because no stamp depends on wall-clock time or host scheduling, a
//! trace is bit-identical across runs and host thread counts; see
//! DESIGN.md ("Observability") for which configurations are additionally
//! invariant across virtual-worker counts.
//!
//! Tracing is observation only: it charges **zero** simulated cycles even
//! when enabled, so cycle accounting (and every benchmark table) is
//! unchanged whether tracing is on or off.
//!
//! # Self-check
//!
//! The aggregates double as an *attribution oracle*:
//! [`TraceState::self_check`] asserts that cycle attribution summed over
//! trace events equals the engine's [`crate::RegionReport`] counters
//! exactly — any drift between the scattered accounting sites (engine,
//! shared cache, tiered jobs) and the event stream is an error.

use crate::faults::FaultPoint;
use crate::RegionReport;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Capacity in events of a session's trace ring
/// ([`crate::EngineOptions::trace`]). When full, the oldest events are
/// dropped (counted in [`TraceState::dropped`]); the [`RegionProfile`]
/// aggregates are exact regardless.
pub const TRACE_RING: usize = 1 << 16;

/// Which simulated clock an event stamp was read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockDomain {
    /// The session's VM cycle counter.
    Session,
    /// Virtual background worker `n` of the tiered overlap model.
    Worker(u16),
}

/// A typed, cycle-stamped trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle stamp on `clock`.
    pub at: u64,
    /// The clock domain `at` was read from.
    pub clock: ClockDomain,
    /// What happened.
    pub kind: EventKind,
}

/// How a field of an event prints as a JSON value.
trait FieldJson {
    fn write_json(&self, out: &mut String);
}

macro_rules! field_json_display {
    ($($ty:ty),*) => {
        $(impl FieldJson for $ty {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        })*
    };
}

field_json_display!(bool, u8, u32, u64);

impl FieldJson for FaultPoint {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", self.name());
    }
}

/// Declare the event list once: each `Name { region, fields… }` row
/// becomes an [`EventKind`] variant, its arm of [`EventKind::region`] and
/// [`EventKind::name`] (the variant's name, verbatim), and its arm of
/// [`event_fields`] — the `,"region":N,"field":value…` pairs, in
/// declaration order, that the JSONL and Chrome exports share. What an
/// event *means* is not a list and stays hand-written:
/// `TraceState::aggregate`, and Chrome's two span cases.
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $name:ident {
            $(#[$region_doc:meta])*
            region: u16
            $(, $(#[$field_doc:meta])* $field:ident: $ty:ty)* $(,)?
        }
    ),* $(,)?) => {
        /// The event taxonomy: one variant per region-lifecycle transition.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum EventKind {
            $(
                $(#[$doc])*
                $name {
                    $(#[$region_doc])*
                    region: u16,
                    $($(#[$field_doc])* $field: $ty,)*
                }
            ),*
        }

        impl EventKind {
            /// The region this event belongs to.
            pub fn region(&self) -> u16 {
                match *self {
                    $(EventKind::$name { region, .. } => region),*
                }
            }

            /// Stable event name (JSONL `event` field, Chrome `name`).
            pub fn name(&self) -> &'static str {
                match self {
                    $(EventKind::$name { .. } => stringify!($name)),*
                }
            }
        }

        /// Append the `,"key":value` pairs specific to the event kind.
        fn event_fields(kind: &EventKind, out: &mut String) {
            match *kind {
                $(EventKind::$name { region $(, $field)* } => {
                    let _ = write!(out, ",\"region\":{region}");
                    $(
                        let _ = write!(out, ",\"{}\":", stringify!($field));
                        $field.write_json(out);
                    )*
                })*
            }
        }
    };
}

events! {
    /// An `EnterRegion` trap was serviced (patched-away unkeyed entries
    /// bypass the trap and are deliberately not traced — they are plain
    /// branches, invisible to the runtime).
    RegionEnter {
        /// Region number.
        region: u16,
        /// Whether the region has a key tuple.
        keyed: bool,
    },
    /// A keyed code-cache lookup (stamped after the lookup charge).
    KeyedLookup {
        /// Region number.
        region: u16,
        /// Whether a stitched instance was found.
        hit: bool,
    },
    /// A keyed-cache entry was evicted to respect
    /// [`crate::EngineOptions::keyed_cache_capacity`].
    KeyedEvict {
        /// Region number.
        region: u16,
    },
    /// Execution was redirected into the region's set-up code.
    SetupStart {
        /// Region number.
        region: u16,
    },
    /// Set-up code reached its `EndSetup` trap.
    SetupEnd {
        /// Region number.
        region: u16,
        /// VM cycles the set-up run consumed.
        cycles: u64,
    },
    /// The stitcher was invoked on the filled constants table.
    StitchStart {
        /// Region number.
        region: u16,
    },
    /// The stitcher finished one instance (per-category counts are for
    /// this stitch alone, not accumulated).
    StitchEnd {
        /// Region number.
        region: u16,
        /// Cost-model stitcher cycles for this stitch.
        cycles: u64,
        /// Instructions emitted.
        instructions: u32,
        /// Holes patched inline into literal fields.
        holes_inline: u32,
        /// Holes satisfied via the linearized table / inline construction.
        holes_big: u32,
        /// Constant branches resolved.
        const_branches: u32,
        /// Loop iterations unrolled.
        loop_iterations: u32,
        /// Blocks charged the copy-and-patch price.
        plan_hits: u32,
        /// Blocks the plan rule admitted that the walk had to expand.
        plan_misses: u32,
    },
    /// A call site inside the region was inlined at compile time by the
    /// demand-driven pass; replayed once per synchronous stitch so the
    /// trace shows which cross-function specialization each instance
    /// benefited from.
    Inlined {
        /// Region number.
        region: u16,
        /// Function id of the inlined callee.
        callee: u32,
        /// Inlining round that pulled the callee in (1-based).
        depth: u32,
    },
    /// One copy-and-patch plan patch was applied (recorded by the
    /// stitcher when tracing is on).
    PlanPatch {
        /// Region number.
        region: u16,
        /// Output word position patched, relative to the instance base.
        word: u32,
        /// The constant value patched in.
        value: u64,
    },
    /// A process-wide shared-cache probe (stamped after the probe charge).
    CacheLookup {
        /// Region number.
        region: u16,
        /// Whether another session's instance was found.
        hit: bool,
    },
    /// A shared-cache hit was installed (bulk copy + relocation).
    CacheInstall {
        /// Region number.
        region: u16,
        /// Code words installed.
        words: u32,
    },
    /// Publishing to the shared cache evicted older instances.
    CacheEvict {
        /// Region number whose publication triggered the eviction.
        region: u16,
        /// Instances evicted by this publication.
        count: u64,
    },
    /// A demand stitch job was enqueued to the background pool.
    TierDispatch {
        /// Region number.
        region: u16,
    },
    /// The entry ran the statically compiled fallback copy.
    FallbackRun {
        /// Region number.
        region: u16,
    },
    /// A background job resolved successfully onto a virtual worker
    /// (stamped with the worker-clock completion time `ready_at`).
    BgReady {
        /// Region number.
        region: u16,
        /// Whether the job was enqueued speculatively.
        speculative: bool,
    },
    /// A background job failed (stamped with the job's enqueue cycles on
    /// the session clock — a failed job never advances a worker clock).
    BgFailed {
        /// Region number.
        region: u16,
        /// Whether the worker panicked (the region is then pinned to its
        /// fallback copy) rather than returning an ordinary error.
        panicked: bool,
    },
    /// A finished background instance was installed into the session.
    BgInstall {
        /// Region number.
        region: u16,
        /// Code words installed.
        words: u32,
        /// Whether the job was enqueued speculatively.
        speculative: bool,
        /// Fork-measured set-up cycles (worker clock; reporting only).
        setup_cycles: u64,
        /// Fork-measured stitch cycles (worker clock; reporting only).
        stitch_cycles: u64,
    },
    /// A speculative stitch job was enqueued from a key prediction.
    SpeculateIssue {
        /// Region number.
        region: u16,
    },
    /// A speculative instance was installed on demand (the prediction
    /// paid off).
    SpeculateHit {
        /// Region number.
        region: u16,
    },
    /// Synthesized once when the trace is sealed for export: speculative
    /// jobs issued that were never installed.
    SpeculateWaste {
        /// Region number.
        region: u16,
        /// Issued-but-never-installed speculative jobs so far.
        wasted: u64,
    },
    /// The fault plan injected a fault ([`crate::FaultPlan`]).
    FaultInjected {
        /// Region number.
        region: u16,
        /// Which fault point fired.
        point: FaultPoint,
    },
    /// A failed operation is being retried after a virtual-cycle backoff
    /// (stamped after the backoff charge).
    RecoveryRetry {
        /// Region number.
        region: u16,
        /// Attempt number (1-based).
        attempt: u32,
        /// Backoff cycles charged for this attempt.
        backoff: u64,
    },
    /// The region crossed [`crate::RecoveryPolicy::quarantine_after`]
    /// failures and is quarantined: served by its static fallback copy
    /// when the artifact has one, otherwise degraded to stitching
    /// priced without plans.
    Quarantined {
        /// Region number.
        region: u16,
    },
    /// The pre-install verifier rejected a stitched instance; nothing
    /// was installed.
    VerifyReject {
        /// Region number.
        region: u16,
    },
    /// Installed code crossed a step of the byte-budget degradation
    /// ladder ([`crate::RecoveryPolicy::code_budget_bytes`]).
    BudgetDegrade {
        /// Region whose installation crossed the step.
        region: u16,
        /// The new ladder level (2 = fallback only).
        level: u8,
    },
    /// A native dispatch took `count` direct (chained) transfers —
    /// back-patched exits, dispatch-table jumps, or guard hits — without
    /// bouncing through the VM loop.
    NativeChained {
        /// Region of the dispatched instance ([`crate::STATIC_REGION`]
        /// for static-code instances).
        region: u16,
        /// Direct transfers taken during the dispatch.
        count: u64,
    },
    /// A native instance was installed (or kept) without direct
    /// threading: a chain request was declined by a fault or by
    /// `--no-native-chain`, so its entries bounce through the VM loop.
    NativeUnchained {
        /// Region of the unchained instance ([`crate::STATIC_REGION`]
        /// for static-code instances).
        region: u16,
    },
    /// A persistent-cache probe for a stitched instance (stamped after
    /// any validation-replay charge; probes themselves are free).
    PersistLookup {
        /// Region number.
        region: u16,
        /// Whether a valid instance was loaded from disk.
        hit: bool,
    },
    /// A persistent-cache hit was installed (relocate + verify + copy,
    /// charged on the shared-cache install model).
    PersistInstall {
        /// Region number.
        region: u16,
        /// Code words installed.
        words: u32,
    },
    /// A persistent-cache file was rejected (bad header, checksum
    /// mismatch, truncation, failed verification or stale reads): the
    /// session recompiles and overwrites it.
    PersistReject {
        /// Region number.
        region: u16,
    },
}

/// Log₂-bucketed cycle histogram: bucket 0 counts zero-cycle samples,
/// bucket *i* counts samples in `[2^(i-1), 2^i)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleHistogram {
    /// Bucket counts.
    pub buckets: [u64; 33],
}

impl Default for CycleHistogram {
    fn default() -> Self {
        CycleHistogram { buckets: [0; 33] }
    }
}

impl CycleHistogram {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket(v)] += 1;
    }

    /// The bucket a sample of `v` falls in.
    pub fn bucket(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()).min(32) as usize
        }
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Index of the highest non-empty bucket (`None` when empty) — lets
    /// renderers trim trailing zeros deterministically.
    pub fn last_nonzero(&self) -> Option<usize> {
        (0..self.buckets.len()).rev().find(|&i| self.buckets[i] > 0)
    }
}

/// Per-region aggregates accumulated from the event stream. Unlike the
/// ring buffer these never drop, so they remain exact oracles for the
/// self-check however long the session runs.
#[derive(Clone, Debug, Default)]
pub struct RegionProfile {
    /// Region number.
    pub region: u16,
    /// `EnterRegion` traps serviced.
    pub invocations: u64,
    /// Keyed-cache lookups performed.
    pub keyed_lookups: u64,
    /// Keyed-cache lookups that hit.
    pub keyed_hits: u64,
    /// Keyed-cache entries evicted.
    pub keyed_evictions: u64,
    /// Set-up runs completed.
    pub setup_runs: u64,
    /// VM cycles spent in set-up code (sum over `SetupEnd`).
    pub setup_cycles: u64,
    /// Histogram of per-run set-up cycles.
    pub setup_hist: CycleHistogram,
    /// Stitches completed.
    pub stitches: u64,
    /// Cost-model stitcher cycles (sum over `StitchEnd`).
    pub stitch_cycles: u64,
    /// Instructions stitched (sum over `StitchEnd`).
    pub instructions_stitched: u64,
    /// Histogram of per-stitch cycles.
    pub stitch_hist: CycleHistogram,
    /// Inlined-call replays (sum over `Inlined`: one per compile-time
    /// inline site per synchronous stitch).
    pub inlined_calls: u64,
    /// Plan patches recorded.
    pub plan_patches: u64,
    /// Shared-cache probes.
    pub shared_lookups: u64,
    /// Shared-cache probes that hit.
    pub shared_cache_hits: u64,
    /// Shared-cache instances installed (equals the engine's
    /// `shared_hits` counter: every hit is installed).
    pub shared_installs: u64,
    /// Shared-cache instances this session's publications evicted.
    pub shared_evictions: u64,
    /// Demand stitch jobs dispatched to the background pool.
    pub dispatches: u64,
    /// Entries that ran the fallback copy.
    pub fallback_runs: u64,
    /// Background jobs that resolved successfully.
    pub bg_ready: u64,
    /// Background jobs that failed (error or panic).
    pub bg_failed: u64,
    /// Background instances installed.
    pub bg_installs: u64,
    /// Fork-measured set-up cycles of installed background instances.
    pub bg_setup_cycles: u64,
    /// Fork-measured stitch cycles of installed background instances.
    pub bg_stitch_cycles: u64,
    /// Speculative jobs issued.
    pub spec_issued: u64,
    /// Speculative instances installed on demand.
    pub spec_installs: u64,
    /// Faults injected by the fault plan.
    pub faults_injected: u64,
    /// Retries performed after failures.
    pub retries: u64,
    /// Times this region was quarantined (0 or 1 per session).
    pub quarantines: u64,
    /// Instances the pre-install verifier rejected.
    pub verify_rejects: u64,
    /// Byte-budget ladder steps this region's installs crossed.
    pub budget_degrades: u64,
    /// Native direct (chained) transfers attributed to this region.
    pub native_chained: u64,
    /// Persistent-cache probes that loaded a valid instance.
    pub persist_hits: u64,
    /// Persistent-cache probes that found nothing usable on disk.
    pub persist_misses: u64,
    /// Persistent-cache files rejected as corrupt, stale or unverifiable.
    pub persist_rejects: u64,
    /// First session-cycle stamp at which stitched code for this region
    /// became available to run (first install or first keyed hit): the
    /// crossing point after which every entry proceeds at the asymptotic
    /// rate. `None` while the region only ever ran set-up or fallback.
    pub first_stitched_at: Option<u64>,
}

impl RegionProfile {
    /// Keyed-cache hit ratio (0 when no lookups).
    pub fn keyed_hit_ratio(&self) -> f64 {
        ratio(self.keyed_hits, self.keyed_lookups)
    }

    /// Shared-cache hit ratio (0 when no probes).
    pub fn shared_hit_ratio(&self) -> f64 {
        ratio(self.shared_cache_hits, self.shared_lookups)
    }

    /// Fraction of issued speculative jobs that were installed on demand
    /// (0 when none were issued).
    pub fn speculation_accuracy(&self) -> f64 {
        ratio(self.spec_installs, self.spec_issued)
    }

    /// Speculative jobs issued but never installed (so far).
    pub fn spec_wasted(&self) -> u64 {
        self.spec_issued.saturating_sub(self.spec_installs)
    }
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The per-session trace: bounded event ring plus exact per-region
/// aggregates. Owned by [`crate::Session`] when tracing is enabled.
#[derive(Debug)]
pub struct TraceState {
    ring: VecDeque<TraceEvent>,
    dropped: u64,
    profiles: Vec<RegionProfile>,
    sealed: bool,
}

impl TraceState {
    /// Fresh state for `regions` regions.
    pub(crate) fn new(regions: usize) -> Self {
        TraceState {
            ring: VecDeque::new(),
            dropped: 0,
            profiles: (0..regions)
                .map(|i| RegionProfile {
                    region: i as u16,
                    ..RegionProfile::default()
                })
                .collect(),
            sealed: false,
        }
    }

    /// Record an event: update the aggregates, then push into the ring
    /// (dropping the oldest event when full).
    pub(crate) fn emit(&mut self, at: u64, clock: ClockDomain, kind: EventKind) {
        self.aggregate(at, &kind);
        if self.ring.len() == TRACE_RING {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceEvent { at, clock, kind });
    }

    fn aggregate(&mut self, at: u64, kind: &EventKind) {
        // Native events can carry the static-region sentinel
        // (`crate::STATIC_REGION`), which has no profile row; aggregate
        // them nowhere rather than indexing out of range.
        let Some(p) = self.profiles.get_mut(kind.region() as usize) else {
            return;
        };
        match *kind {
            EventKind::RegionEnter { .. } => p.invocations += 1,
            EventKind::KeyedLookup { hit, .. } => {
                p.keyed_lookups += 1;
                if hit {
                    p.keyed_hits += 1;
                    p.first_stitched_at.get_or_insert(at);
                }
            }
            EventKind::KeyedEvict { .. } => p.keyed_evictions += 1,
            EventKind::SetupStart { .. } => {}
            EventKind::SetupEnd { cycles, .. } => {
                p.setup_runs += 1;
                p.setup_cycles += cycles;
                p.setup_hist.record(cycles);
            }
            EventKind::StitchStart { .. } => {}
            EventKind::StitchEnd {
                cycles,
                instructions,
                ..
            } => {
                p.stitches += 1;
                p.stitch_cycles += cycles;
                p.instructions_stitched += u64::from(instructions);
                p.stitch_hist.record(cycles);
                p.first_stitched_at.get_or_insert(at);
            }
            EventKind::Inlined { .. } => p.inlined_calls += 1,
            EventKind::PlanPatch { .. } => p.plan_patches += 1,
            EventKind::CacheLookup { hit, .. } => {
                p.shared_lookups += 1;
                if hit {
                    p.shared_cache_hits += 1;
                }
            }
            EventKind::CacheInstall { .. } => {
                p.shared_installs += 1;
                p.first_stitched_at.get_or_insert(at);
            }
            EventKind::CacheEvict { count, .. } => p.shared_evictions += count,
            EventKind::TierDispatch { .. } => p.dispatches += 1,
            EventKind::FallbackRun { .. } => p.fallback_runs += 1,
            EventKind::BgReady { .. } => p.bg_ready += 1,
            EventKind::BgFailed { .. } => p.bg_failed += 1,
            EventKind::BgInstall {
                speculative,
                setup_cycles,
                stitch_cycles,
                ..
            } => {
                p.bg_installs += 1;
                p.bg_setup_cycles += setup_cycles;
                p.bg_stitch_cycles += stitch_cycles;
                if speculative {
                    p.spec_installs += 1;
                }
                p.first_stitched_at.get_or_insert(at);
            }
            EventKind::SpeculateIssue { .. } => p.spec_issued += 1,
            EventKind::SpeculateHit { .. } => {}
            EventKind::SpeculateWaste { .. } => {}
            EventKind::FaultInjected { .. } => p.faults_injected += 1,
            EventKind::RecoveryRetry { .. } => p.retries += 1,
            EventKind::Quarantined { .. } => p.quarantines += 1,
            EventKind::VerifyReject { .. } => p.verify_rejects += 1,
            EventKind::BudgetDegrade { .. } => p.budget_degrades += 1,
            EventKind::NativeChained { count, .. } => p.native_chained += count,
            EventKind::NativeUnchained { .. } => {}
            EventKind::PersistLookup { hit, .. } => {
                if hit {
                    p.persist_hits += 1;
                } else {
                    p.persist_misses += 1;
                }
            }
            EventKind::PersistInstall { .. } => {
                p.first_stitched_at.get_or_insert(at);
            }
            EventKind::PersistReject { .. } => p.persist_rejects += 1,
        }
    }

    /// Seal the trace for export: synthesize one `SpeculateWaste` event
    /// per region with outstanding speculative work, stamped `now`.
    /// Idempotent — later calls are no-ops, so repeated exports of the
    /// same trace are byte-identical.
    pub(crate) fn seal(&mut self, now: u64) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        let waste: Vec<(u16, u64)> = self
            .profiles
            .iter()
            .filter(|p| p.spec_wasted() > 0)
            .map(|p| (p.region, p.spec_wasted()))
            .collect();
        for (region, wasted) in waste {
            self.emit(
                now,
                ClockDomain::Session,
                EventKind::SpeculateWaste { region, wasted },
            );
        }
    }

    /// Events currently held in the ring (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Events dropped from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-region aggregates.
    pub fn profiles(&self) -> &[RegionProfile] {
        &self.profiles
    }

    /// Verify that cycle attribution summed over trace events equals the
    /// engine's per-region [`RegionReport`] counters exactly.
    ///
    /// # Errors
    /// The first mismatching counter, with both values.
    pub fn self_check(&self, reports: &[RegionReport]) -> Result<(), String> {
        if reports.len() != self.profiles.len() {
            return Err(format!(
                "trace self-check: {} regions reported, {} profiled",
                reports.len(),
                self.profiles.len()
            ));
        }
        for (i, (r, p)) in reports.iter().zip(self.profiles.iter()).enumerate() {
            let checks: [(&str, u64, u64); 19] = [
                ("invocations", r.invocations, p.invocations),
                ("stitches", u64::from(r.stitches), p.stitches),
                (
                    "instructions_stitched",
                    u64::from(r.instructions_stitched),
                    p.instructions_stitched,
                ),
                ("setup_cycles", r.setup_cycles, p.setup_cycles),
                ("stitch_cycles", r.stitch_cycles, p.stitch_cycles),
                ("shared_hits", r.shared_hits, p.shared_installs),
                ("evictions", r.evictions, p.keyed_evictions),
                ("fallback_runs", r.fallback_runs, p.fallback_runs),
                ("bg_installs", r.bg_installs, p.bg_installs),
                ("spec_installs", r.spec_installs, p.spec_installs),
                ("bg_setup_cycles", r.bg_setup_cycles, p.bg_setup_cycles),
                ("bg_stitch_cycles", r.bg_stitch_cycles, p.bg_stitch_cycles),
                ("faults_injected", r.faults_injected, p.faults_injected),
                ("retries", r.retries, p.retries),
                ("inlined_calls", r.inlined_calls, p.inlined_calls),
                ("native_chained", r.native_chained, p.native_chained),
                ("persist_hits", r.persist_hits, p.persist_hits),
                ("persist_misses", r.persist_misses, p.persist_misses),
                ("persist_rejects", r.persist_rejects, p.persist_rejects),
            ];
            for (name, reported, traced) in checks {
                if reported != traced {
                    return Err(format!(
                        "trace self-check: region {i} {name}: report says {reported}, \
                         trace events sum to {traced}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Render the ring as JSON Lines, one event per line, with a stable
    /// key order — byte-identical across runs for deterministic
    /// configurations.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.ring {
            jsonl_line(e, &mut out);
            out.push('\n');
        }
        out
    }

    /// Render the ring in Chrome `trace_event` JSON (load via
    /// `chrome://tracing` or Perfetto). Set-up and stitch phases become
    /// complete (`"X"`) spans; everything else is an instant event. The
    /// `tid` encodes the clock domain: 0 = session, 1 = stitcher cost
    /// model, 1000+n = virtual worker n.
    pub fn render_chrome(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for e in &self.ring {
            if !first {
                out.push(',');
            }
            first = false;
            chrome_event(e, &mut out);
        }
        out.push_str("]}");
        out
    }
}

fn clock_label(c: ClockDomain, out: &mut String) {
    match c {
        ClockDomain::Session => out.push_str("\"session\""),
        ClockDomain::Worker(w) => {
            let _ = write!(out, "\"w{w}\"");
        }
    }
}

fn chrome_tid(c: ClockDomain, kind: &EventKind) -> u32 {
    match c {
        ClockDomain::Worker(w) => 1000 + u32::from(w),
        ClockDomain::Session => match kind {
            // The stitcher's cycles are cost-model accounted, not spent on
            // the session clock, so its spans get their own lane.
            EventKind::StitchEnd { .. } | EventKind::StitchStart { .. } => 1,
            _ => 0,
        },
    }
}

fn jsonl_line(e: &TraceEvent, out: &mut String) {
    let _ = write!(out, "{{\"at\":{},\"clock\":", e.at);
    clock_label(e.clock, out);
    let _ = write!(out, ",\"event\":\"{}\"", e.kind.name());
    event_fields(&e.kind, out);
    out.push('}');
}

fn chrome_event(e: &TraceEvent, out: &mut String) {
    let tid = chrome_tid(e.clock, &e.kind);
    match e.kind {
        // Set-up ran on the session clock for `cycles` ending at `at`.
        EventKind::SetupEnd { region, cycles } => {
            let _ = write!(
                out,
                "{{\"name\":\"setup\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{},\
                 \"dur\":{cycles},\"args\":{{\"region\":{region}}}}}",
                e.at.saturating_sub(cycles)
            );
        }
        // The stitcher's cost-model cycles occupy their own lane starting
        // at the stamp (the session clock does not advance during them).
        EventKind::StitchEnd { region, cycles, .. } => {
            let _ = write!(
                out,
                "{{\"name\":\"stitch\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{},\
                 \"dur\":{cycles},\"args\":{{\"region\":{region}}}}}",
                e.at
            );
        }
        _ => {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\"ts\":{}\
                 ,\"args\":{{",
                e.kind.name(),
                e.at
            );
            // Reuse the JSONL field renderer, dropping its leading comma.
            let mut fields = String::new();
            event_fields(&e.kind, &mut fields);
            out.push_str(fields.strip_prefix(',').unwrap_or(&fields));
            out.push_str("}}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = CycleHistogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        h.record(u64::MAX);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2..3
        assert_eq!(h.buckets[3], 1); // 4..7
        assert_eq!(h.buckets[32], 1); // clamped tail
        assert_eq!(h.total(), 6);
        assert_eq!(h.last_nonzero(), Some(32));
    }

    #[test]
    fn ring_drops_oldest_but_profiles_stay_exact() {
        let mut t = TraceState::new(1);
        for i in 0..TRACE_RING as u64 + 3 {
            t.emit(
                i,
                ClockDomain::Session,
                EventKind::RegionEnter {
                    region: 0,
                    keyed: false,
                },
            );
        }
        assert_eq!(t.events().count(), TRACE_RING);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.profiles()[0].invocations, TRACE_RING as u64 + 3);
    }

    #[test]
    fn jsonl_has_stable_shape() {
        let mut t = TraceState::new(1);
        t.emit(
            7,
            ClockDomain::Session,
            EventKind::KeyedLookup {
                region: 0,
                hit: true,
            },
        );
        t.emit(
            9,
            ClockDomain::Worker(2),
            EventKind::BgReady {
                region: 0,
                speculative: false,
            },
        );
        let s = t.render_jsonl();
        assert_eq!(
            s,
            "{\"at\":7,\"clock\":\"session\",\"event\":\"KeyedLookup\",\"region\":0,\"hit\":true}\n\
             {\"at\":9,\"clock\":\"w2\",\"event\":\"BgReady\",\"region\":0,\"speculative\":false}\n"
        );
        assert_eq!(t.profiles()[0].keyed_hit_ratio(), 1.0);
        assert_eq!(t.profiles()[0].first_stitched_at, Some(7));
    }

    #[test]
    fn seal_is_idempotent_and_emits_waste() {
        let mut t = TraceState::new(1);
        for _ in 0..3 {
            t.emit(
                1,
                ClockDomain::Session,
                EventKind::SpeculateIssue { region: 0 },
            );
        }
        t.seal(50);
        t.seal(60);
        let rendered = t.render_jsonl();
        let lines: Vec<&str> = rendered.lines().map(|l| l.trim()).collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[3].contains("\"SpeculateWaste\""));
        assert!(lines[3].contains("\"wasted\":3"));
        assert!(lines[3].contains("\"at\":50"));
        assert_eq!(t.profiles()[0].speculation_accuracy(), 0.0);
    }

    #[test]
    fn self_check_catches_drift() {
        let mut t = TraceState::new(1);
        t.emit(
            1,
            ClockDomain::Session,
            EventKind::RegionEnter {
                region: 0,
                keyed: false,
            },
        );
        let mut report = RegionReport {
            invocations: 1,
            ..RegionReport::default()
        };
        assert!(t.self_check(&[report]).is_ok());
        report.invocations = 2;
        let err = t.self_check(&[report]).unwrap_err();
        assert!(err.contains("invocations"), "{err}");
    }
}
