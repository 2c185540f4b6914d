//! Tiered execution: background stitch jobs and speculative
//! pre-stitching of predicted keys.
//!
//! In tiered mode a session entering a cold dynamic region does not stall
//! for set-up + stitching: it enqueues a *stitch job* — a forked snapshot
//! of the whole simulated machine — and immediately resumes in the
//! region's statically compiled fallback copy (lowered behind a
//! [`dyncomp_ir::Intrinsic::TierProbe`] guard, entered by redirecting the
//! `EnterRegion` trap to `RegionCode::fallback_pc`). The job runs the
//! region's set-up code on the fork, stitches into the fork's detached
//! memory, and keeps a relocatable [`Stitched`] artifact; a later entry
//! installs it via the same bulk-copy + patch relocation path the shared
//! cache uses.
//!
//! "Background" is a property of the cycle model, not of the host: the
//! job body runs on the session's own thread, at enqueue, and only its
//! result is kept (a fork is a whole [`Vm`], data memory included, and
//! some jobs are never resolved).
//!
//! # Deterministic overlap model
//!
//! *When* a stitched instance becomes visible to the session is decided
//! purely on virtual clocks, so tiered runs are exactly repeatable:
//!
//! * Jobs are numbered in enqueue order, stamped with the session's cycle
//!   counter at enqueue time (after the trap/lookup/dispatch charges).
//! * Each of the `workers` *virtual* workers owns a clock starting at 0.
//!   Jobs are assigned strictly in enqueue order to the virtual worker
//!   with the smallest clock (ties: lowest index); the job's completion
//!   time is `max(worker_clock, enqueue_cycles) + setup_cycles +
//!   stitch_cycles`, both measured on the fork, and the worker's clock
//!   advances to it.
//! * An entry picks up a finished job only once the session's own cycle
//!   counter has passed that completion time (`ready_at`); until then it
//!   keeps running the fallback.
//!
//! The session is charged [`crate::engine::DISPATCH_CYCLES`] per
//! enqueued job and [`crate::engine::SHARED_INSTALL_CYCLES_PER_WORD`] per
//! installed word; the job's set-up and stitch cycles are spent on a
//! virtual worker's clock, never the session's.
//!
//! # A facet of the session
//!
//! Like the native backend ([`crate::engine`]'s `native` facet),
//! [`TieredState`] writes nothing but its own state. Its methods borrow
//! the VM, the region's [`RegionCode`] and the stitch options beside it,
//! and return what happened: the keys to enqueue, and the jobs resolved.
//! The session charges every dispatch, draws every
//! [`WorkerPanic`](crate::FaultPoint::WorkerPanic) and
//! [`WorkerSlow`](crate::FaultPoint::WorkerSlow) through the one fire
//! site its quarantine exemption guards, and writes every trace event
//! and health record.
//!
//! # Speculative pre-stitching
//!
//! Keyed regions feed every observed key tuple to a per-region
//! [`KeyPredictor`] (element-wise stride + bounded frequency table). With
//! [`TieredOptions::speculate`] on, predicted keys are enqueued before they
//! are demanded (`SPECULATE_DEPTH` keys ahead, at most `MAX_INFLIGHT`
//! unresolved speculative jobs), so e.g. a
//! `1..100` scalar sweep has key *k+1* stitched by the time it arrives.
//! Speculation relies on the same invariant the keyed cache already
//! assumes: the key tuple (together with the region's other run-time
//! constants, which are taken from the forked snapshot) fully determines
//! the stitched code.

use dyncomp_ir::fxhash::FxHashMap;
use dyncomp_machine::isa::{CTP, SP};
use dyncomp_machine::template::{RegionCode, ValueLoc};
use dyncomp_machine::vm::{Stop, Vm};
use dyncomp_stitcher::{StitchOptions, Stitched};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Tiered-mode configuration ([`crate::EngineOptions::tiered`]).
#[derive(Clone, Debug)]
pub struct TieredOptions {
    /// Number of virtual background stitch workers: the width of the
    /// overlap model's clock set (see the module docs). Jobs themselves
    /// run on the session's thread.
    pub workers: usize,
    /// Enqueue predicted keys ahead of demand.
    pub speculate: bool,
}

impl Default for TieredOptions {
    fn default() -> Self {
        TieredOptions {
            workers: 1,
            speculate: false,
        }
    }
}

/// How many keys ahead the stride predictor enqueues per entry.
const SPECULATE_DEPTH: usize = 4;
/// Cap on outstanding (unresolved) speculative jobs per session; no
/// unbounded queue growth regardless of the key stream.
const MAX_INFLIGHT: usize = 8;
/// Instruction budget for each background fork (a runaway set-up loop
/// fails the job instead of hanging the session).
const JOB_FUEL: u64 = 2_000_000_000;

/// Lightweight per-region key predictor: element-wise stride over the last
/// two keys plus a bounded frequency table. All arithmetic wraps, so
/// adversarial key streams cannot panic.
#[derive(Debug, Default)]
pub struct KeyPredictor {
    last: Option<Vec<u64>>,
    stride: Option<Vec<u64>>,
    /// A stride is only predicted from once it has repeated (two equal
    /// consecutive deltas); an alternating key stream therefore falls
    /// through to the frequency table instead of chasing a bogus stride.
    stride_confirmed: bool,
    freq: FxHashMap<Vec<u64>, u32>,
}

/// Bound on the frequency table; beyond it new keys are not tracked.
const FREQ_CAP: usize = 256;

impl KeyPredictor {
    /// Record an observed key tuple.
    pub fn observe(&mut self, key: &[u64]) {
        if let Some(last) = &self.last {
            if last.len() == key.len() {
                let stride: Vec<u64> = key
                    .iter()
                    .zip(last.iter())
                    .map(|(a, b)| a.wrapping_sub(*b))
                    .collect();
                self.stride_confirmed = self.stride.as_ref() == Some(&stride);
                self.stride = Some(stride);
            } else {
                self.stride = None;
                self.stride_confirmed = false;
            }
        }
        self.last = Some(key.to_vec());
        if self.freq.len() < FREQ_CAP || self.freq.contains_key(key) {
            *self.freq.entry(key.to_vec()).or_insert(0) += 1;
        }
    }

    /// Predict up to `depth` likely-next key tuples, most likely first:
    /// the stride sequence continued from the last key, then the most
    /// frequent previously seen keys. Deterministic for a given history.
    pub fn predict(&self, depth: usize) -> Vec<Vec<u64>> {
        let mut out: Vec<Vec<u64>> = Vec::new();
        if let (Some(last), Some(stride)) = (&self.last, &self.stride) {
            if self.stride_confirmed && stride.iter().any(|&s| s != 0) {
                let mut k = last.clone();
                for _ in 0..depth {
                    for (x, s) in k.iter_mut().zip(stride.iter()) {
                        *x = x.wrapping_add(*s);
                    }
                    out.push(k.clone());
                }
            }
        }
        // Frequency fallback: recurring keys not already predicted (covers
        // alternating patterns the single stride misses).
        if out.len() < depth {
            let mut by_freq: Vec<(&Vec<u64>, u32)> =
                self.freq.iter().map(|(k, &c)| (k, c)).collect();
            by_freq.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
            for (k, c) in by_freq {
                if out.len() >= depth {
                    break;
                }
                if c < 2 || Some(k) == self.last.as_ref() || out.iter().any(|o| o == k) {
                    continue;
                }
                out.push(k.clone());
            }
        }
        out
    }
}

/// What a finished job produces.
struct JobOutput {
    stitched: Stitched,
    setup_cycles: u64,
}

/// Why a background job did not produce an instance.
enum JobFailure {
    /// The fork reported an ordinary error (bad set-up, stitch error).
    /// The entry retries synchronously so a real failure reproduces
    /// deterministically on the session.
    Error(String),
    /// The job body panicked. The panic is caught (`catch_unwind`), the
    /// region is pinned to its static fallback permanently, and the
    /// session keeps running.
    Panic(String),
}

type JobReply = Result<JobOutput, JobFailure>;

/// Run one stitch job on `fork`, detached from the session: write
/// `key_override` (speculative jobs) over the key locations, run the
/// region's set-up, and stitch into the fork's memory. `inject_panic`
/// (the session fired `WorkerPanic`) panics at the top of the body,
/// exercising the `catch_unwind` hardening path.
fn run_job(
    mut fork: Vm,
    rc: &RegionCode,
    stitch_opts: &StitchOptions,
    key_override: Option<&[u64]>,
    inject_panic: bool,
) -> Result<JobOutput, String> {
    if inject_panic {
        panic!("injected background stitch panic (fault plan)");
    }
    if let Some(key) = key_override {
        for (loc, &v) in rc.key_locs.iter().zip(key.iter()) {
            match *loc {
                ValueLoc::Reg(r) => fork.set_reg(r, v),
                ValueLoc::FReg(r) => fork.set_freg(r, f64::from_bits(v)),
                ValueLoc::Frame(off) => fork
                    .mem
                    .write_u64(fork.reg(SP).wrapping_add(off as i64 as u64), v)
                    .map_err(|e| format!("speculative key spill: {e}"))?,
            }
        }
    }
    fork.pc = rc.setup_pc;
    fork.cycles = 0;
    fork.fuel = JOB_FUEL;
    match fork.run() {
        Ok(Stop::EndSetup { region }) if region == rc.region_index => {}
        Ok(stop) => return Err(format!("unexpected stop in background set-up: {stop:?}")),
        Err(e) => return Err(format!("background set-up failed: {e}")),
    }
    let setup_cycles = fork.cycles;
    let table = fork.reg(CTP);
    // Stitch into the fork's detached code space / memory; the linearized
    // table is rebuilt in the installing session by `Stitched::relocate`.
    let base = fork.code.len() as u32;
    let stitched = dyncomp_stitcher::stitch(rc, table, &mut fork.mem, base, stitch_opts)
        .map_err(|e| format!("background stitch failed: {e}"))?;
    Ok(JobOutput {
        stitched,
        setup_cycles,
    })
}

/// State of one enqueued job, keyed by `(region, key)`.
enum JobState {
    /// Enqueued; not yet resolved against the virtual worker clocks.
    Pending,
    /// Finished: installable once the session clock reaches `ready_at`.
    Ready {
        stitched: Arc<Stitched>,
        ready_at: u64,
        setup_cycles: u64,
        stitch_cycles: u64,
        speculative: bool,
    },
    /// The background run failed; the entry falls back to synchronous
    /// set-up so the failure (if real) reproduces deterministically.
    Failed,
}

/// A stitch job as the session enqueues it.
pub(crate) struct Job {
    /// The region the job stitches.
    pub(crate) region: u16,
    /// The key tuple it stitches for.
    pub(crate) key: Vec<u64>,
    /// The session cycle counter it is stamped with (after its dispatch
    /// charge).
    pub(crate) at: u64,
    /// Enqueued ahead of demand, for a predicted key.
    pub(crate) speculative: bool,
    /// The fault plan fired `WorkerPanic` for it: its body
    /// panics, and the failure is recorded as injected.
    pub(crate) inject_panic: bool,
}

/// A job resolved against the virtual worker clocks, for the session to
/// book.
pub(crate) enum Resolved {
    /// Finished at `ready_at` on virtual worker `worker`'s clock.
    Ready {
        region: u16,
        worker: u16,
        ready_at: u64,
        speculative: bool,
    },
    /// The body failed at enqueue cycle `at`; a panic pinned the region.
    Failed {
        region: u16,
        at: u64,
        panicked: bool,
        injected: bool,
        message: String,
    },
}

/// Result of asking the tiered state how to handle a cold keyed entry.
pub(crate) enum TierDecision {
    /// A finished instance is ready: install it.
    Install {
        /// The relocatable instance.
        stitched: Arc<Stitched>,
        /// Fork-measured set-up cycles (reporting only).
        setup_cycles: u64,
        /// Fork-measured stitch cycles (reporting only).
        stitch_cycles: u64,
        /// Whether the job was enqueued speculatively.
        speculative: bool,
    },
    /// No job for this key yet: enqueue a demand job and run the
    /// fallback copy.
    Enqueue,
    /// Keep running the fallback copy (job in flight, or region pinned).
    Fallback,
    /// No background path (job failed): run set-up synchronously.
    Synchronous,
}

/// Per-session tiered run-time state: virtual worker clocks, outstanding
/// jobs and per-region key predictors.
pub(crate) struct TieredState {
    opts: TieredOptions,
    /// Virtual worker clocks (cycle model; see module docs).
    clocks: Vec<u64>,
    /// Unresolved jobs, strictly in enqueue order, each with the reply
    /// its body produced at enqueue.
    queue: VecDeque<(Job, JobReply)>,
    /// All jobs ever enqueued and not yet consumed, by `(region, key)`.
    jobs: FxHashMap<(u16, Vec<u64>), JobState>,
    /// Per-region key predictors.
    predictors: Vec<KeyPredictor>,
    /// Outstanding (unresolved) speculative jobs.
    spec_inflight: usize,
    /// Regions whose background path panicked: permanently served by the
    /// static fallback copy, never re-enqueued.
    pinned: Vec<bool>,
}

impl TieredState {
    pub(crate) fn new(regions: usize, opts: TieredOptions) -> Self {
        let workers = opts.workers.max(1);
        TieredState {
            opts,
            clocks: vec![0; workers],
            queue: VecDeque::new(),
            jobs: FxHashMap::default(),
            predictors: (0..regions).map(|_| KeyPredictor::default()).collect(),
            spec_inflight: 0,
            pinned: vec![false; regions],
        }
    }

    /// Whether `region`'s background path panicked and the region is
    /// permanently pinned to its static fallback.
    pub(crate) fn is_pinned(&self, region: u16) -> bool {
        self.pinned[region as usize]
    }

    /// Enqueue `job` on a fork of `vm`, running its body on `rc` (the
    /// region's code) now and keeping the reply. A speculative job
    /// writes its key over the key locations first.
    pub(crate) fn enqueue(
        &mut self,
        vm: &Vm,
        rc: &RegionCode,
        stitch_opts: &StitchOptions,
        job: Job,
    ) {
        let mut fork = vm.clone();
        // Background jobs interpret only; native dispatch marks belong to
        // the foreground session.
        fork.clear_native_marks();
        let key_override = job.speculative.then_some(job.key.as_slice());
        let reply = match catch_unwind(AssertUnwindSafe(|| {
            run_job(fork, rc, stitch_opts, key_override, job.inject_panic)
        })) {
            Ok(r) => r.map_err(JobFailure::Error),
            // `&*payload`, not `&payload`: a `&Box<dyn Any>` would itself
            // coerce to `&dyn Any` and the downcast would always miss.
            Err(payload) => Err(JobFailure::Panic(crate::panic_message(
                &*payload,
                "background stitch worker panicked",
            ))),
        };
        self.jobs
            .insert((job.region, job.key.clone()), JobState::Pending);
        self.spec_inflight += usize::from(job.speculative);
        self.queue.push_back((job, reply));
    }

    /// Resolve unresolved jobs against the virtual worker clocks, in
    /// enqueue order, up to and including the job `id`, appending each to
    /// `resolved`, and return that job's state (the others go back into
    /// `jobs`). `slow` draws each finished job's
    /// `WorkerSlow` delay before its `ready_at` is set.
    fn resolve_until(
        &mut self,
        id: &(u16, Vec<u64>),
        mut slow: impl FnMut(u16) -> u64,
        resolved: &mut Vec<Resolved>,
    ) -> JobState {
        while let Some((job, reply)) = self.queue.pop_front() {
            self.spec_inflight -= usize::from(job.speculative);
            let state = match reply {
                Ok(out) => {
                    let stitch_cycles = out.stitched.stats.cycles;
                    // Min-clock virtual worker assignment (ties: lowest
                    // index) — deterministic, host-independent.
                    let w = (0..self.clocks.len())
                        .min_by_key(|&i| self.clocks[i])
                        .expect("at least one worker");
                    let ready_at = self.clocks[w].max(job.at)
                        + out.setup_cycles
                        + stitch_cycles
                        + slow(job.region);
                    self.clocks[w] = ready_at;
                    resolved.push(Resolved::Ready {
                        region: job.region,
                        worker: w as u16,
                        ready_at,
                        speculative: job.speculative,
                    });
                    JobState::Ready {
                        stitched: Arc::new(out.stitched),
                        ready_at,
                        setup_cycles: out.setup_cycles,
                        stitch_cycles,
                        speculative: job.speculative,
                    }
                }
                Err(failure) => {
                    let (panicked, message) = match failure {
                        JobFailure::Error(m) => (false, m),
                        JobFailure::Panic(m) => (true, m),
                    };
                    // A panicking job body means the background path
                    // cannot be trusted for this region: pin it to the
                    // statically compiled fallback permanently.
                    self.pinned[job.region as usize] |= panicked;
                    resolved.push(Resolved::Failed {
                        region: job.region,
                        at: job.at,
                        panicked,
                        injected: job.inject_panic && panicked,
                        message,
                    });
                    JobState::Failed
                }
            };
            if job.region == id.0 && job.key == id.1 {
                return state;
            }
            self.jobs.insert((job.region, job.key), state);
        }
        JobState::Pending
    }

    /// Decide how a cold entry to `(region, key)` proceeds at session
    /// cycle `now`. A pending job is resolved first, with every job
    /// enqueued before it (`slow` as in `resolve_until`). Returns the
    /// decision and the jobs resolved, in resolution order.
    pub(crate) fn decide(
        &mut self,
        region: u16,
        key: &[u64],
        now: u64,
        slow: impl FnMut(u16) -> u64,
    ) -> (TierDecision, Vec<Resolved>) {
        let mut resolved = Vec::new();
        if self.pinned[region as usize] {
            return (TierDecision::Fallback, resolved);
        }
        let id = (region, key.to_vec());
        let state = match self.jobs.remove(&id) {
            None => return (TierDecision::Enqueue, resolved),
            Some(JobState::Pending) => self.resolve_until(&id, slow, &mut resolved),
            Some(state) => state,
        };
        let decision = match state {
            JobState::Ready {
                stitched,
                ready_at,
                setup_cycles,
                stitch_cycles,
                speculative,
            } if ready_at <= now => TierDecision::Install {
                stitched,
                setup_cycles,
                stitch_cycles,
                speculative,
            },
            JobState::Ready { .. } | JobState::Pending => {
                self.jobs.insert(id, state);
                TierDecision::Fallback
            }
            // Resolution may just have pinned the region (a panicking
            // job): stay on the fallback copy forever.
            JobState::Failed if self.pinned[region as usize] => TierDecision::Fallback,
            JobState::Failed => TierDecision::Synchronous,
        };
        (decision, resolved)
    }

    /// Feed the predictor for `region` with an observed key and, with
    /// speculation enabled, choose the predicted keys to enqueue: neither
    /// the observed key, cached (`is_cached`) nor already jobbed, up to
    /// the in-flight cap.
    pub(crate) fn speculate(
        &mut self,
        region: u16,
        key: &[u64],
        is_cached: impl Fn(&[u64]) -> bool,
    ) -> Vec<Vec<u64>> {
        let mut keys = Vec::new();
        if key.is_empty() || self.pinned[region as usize] {
            return keys;
        }
        self.predictors[region as usize].observe(key);
        if !self.opts.speculate {
            return keys;
        }
        for pk in self.predictors[region as usize].predict(SPECULATE_DEPTH) {
            if self.spec_inflight + keys.len() >= MAX_INFLIGHT {
                break;
            }
            let id = (region, pk);
            if id.1 == key
                || is_cached(&id.1)
                || keys.contains(&id.1)
                || self.jobs.contains_key(&id)
            {
                continue;
            }
            keys.push(id.1);
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_follows_strides() {
        let mut p = KeyPredictor::default();
        for k in 1..=5u64 {
            p.observe(&[k, 100]);
        }
        let pred = p.predict(3);
        assert_eq!(pred[..3], [vec![6, 100], vec![7, 100], vec![8, 100]]);
    }

    #[test]
    fn predictor_constant_repeats_predict_nothing_new() {
        let mut p = KeyPredictor::default();
        for _ in 0..10 {
            p.observe(&[42]);
        }
        // Zero stride and the only frequent key is the last one: nothing
        // useful to pre-stitch.
        assert!(p.predict(4).is_empty());
    }

    #[test]
    fn predictor_alternating_uses_frequency() {
        let mut p = KeyPredictor::default();
        for i in 0..10u64 {
            p.observe(&[if i % 2 == 0 { 7 } else { 9 }]);
        }
        // Stride alternates ±2; the frequency table still knows both keys.
        let pred = p.predict(4);
        assert!(pred.contains(&vec![7]) || pred.contains(&vec![9]));
    }

    #[test]
    fn predictor_survives_adversarial_streams() {
        // Wrapping arithmetic + bounded tables: no panics, no unbounded
        // growth, whatever the stream.
        let mut p = KeyPredictor::default();
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..10_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mix lengths and extreme values.
            match i % 4 {
                0 => p.observe(&[x]),
                1 => p.observe(&[u64::MAX, 0, x]),
                2 => p.observe(&[]),
                _ => p.observe(&[x, x.wrapping_mul(i)]),
            }
            let _ = p.predict(4);
        }
        assert!(p.freq.len() <= FREQ_CAP);
    }

    #[test]
    fn predictor_wrapping_stride_at_extremes() {
        let mut p = KeyPredictor::default();
        p.observe(&[u64::MAX - 2]);
        p.observe(&[u64::MAX - 1]);
        p.observe(&[u64::MAX]);
        let pred = p.predict(2);
        assert_eq!(pred[..2], [vec![0], vec![1]]); // wraps, no panic
    }
}
