//! The server's execution budget: run slots for request frames and a
//! zero-dependency work-stealing thread pool for detached jobs.
//!
//! A pool of `workers` bounds how much runs at once, in two ways:
//!
//! * [`WorkPool::run`] is the request path. The job runs on the calling
//!   thread — for `dynccd`, the connection thread that read the frame —
//!   under one of `workers` slots, so at most `workers` frames execute at
//!   once however many connections are open, and a frame costs what its
//!   work costs: no boxing, no queue, no hand-off to another thread and
//!   back (two futex wake-ups per frame: measured in the server, 57 of
//!   a 66 µs round trip when six threads share two cores).
//! * [`WorkPool::spawn`] is fire-and-forget (the load generator's path).
//!   Jobs are distributed round-robin across per-worker deques; an idle
//!   worker first drains its own deque (LIFO, for cache warmth), then
//!   steals from siblings (FIFO, taking the oldest job so stolen work is
//!   the work least likely to be cache-warm anywhere). A shared
//!   [`Condvar`] parks idle workers. The worker threads are started by
//!   the first `spawn`: a pool that only ever `run`s keeps none.
//!
//! The pool never observes job panics: callers that need containment
//! wrap the job body in `catch_unwind` (the server does — see
//! `super::state`). A `run` job that unwinds gives its slot back on the
//! way; a worker that sees a panic unwinds its thread without poisoning
//! the shared queues, and the remaining workers keep serving. Both are
//! defense in depth, not the primary containment.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    /// One deque per worker. A `Mutex` per deque (not one global lock)
    /// keeps injection and stealing mostly contention-free.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Parks idle workers; notified on every enqueue and at shutdown.
    idle: Condvar,
    /// Guard for [`PoolShared::idle`] (the condvar needs *a* mutex; the
    /// boolean tracks "work may exist" to absorb missed notifications).
    idle_guard: Mutex<bool>,
    /// Round-robin injection cursor.
    next: AtomicUsize,
    /// Jobs started, pool-wide: counted when a worker picks one up or a
    /// `run` caller takes its slot.
    executed: AtomicU64,
    /// Of those, jobs a worker stole from a sibling's deque.
    stolen: AtomicU64,
    /// Jobs not yet started: enqueued and not picked up, or `run`
    /// callers waiting for a slot.
    inflight: AtomicU64,
    /// Set by [`WorkPool::shutdown`]; workers exit once their queues are
    /// drained.
    stop: AtomicBool,
}

/// Pool-wide counters, exported on the metrics endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// The pool's width: `run` slots, and worker threads once `spawn`
    /// has started them.
    pub workers: usize,
    /// Jobs started so far (counted at pickup or slot acquisition).
    pub executed: u64,
    /// Of those, jobs stolen across worker deques.
    pub stolen: u64,
    /// Jobs not yet started: queued, or waiting for a slot.
    pub inflight: u64,
}

/// The slots-and-workers pool.
pub struct WorkPool {
    shared: Arc<PoolShared>,
    /// Free [`WorkPool::run`] slots, of `workers`.
    free_slots: Mutex<usize>,
    /// Wakes one `run` caller waiting on [`WorkPool::free_slots`].
    slot_freed: Condvar,
    /// The worker threads, started by the first [`WorkPool::spawn`].
    workers: OnceLock<Vec<JoinHandle<()>>>,
}

/// One taken `run` slot; dropping it — on return or unwind — frees it.
struct Slot<'a>(&'a WorkPool);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let pool = self.0;
        *pool.free_slots.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        pool.slot_freed.notify_one();
    }
}

impl WorkPool {
    /// A pool `workers` wide (clamped to at least 1). No thread is
    /// started until the first [`WorkPool::spawn`].
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        WorkPool {
            shared: Arc::new(PoolShared {
                queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
                idle: Condvar::new(),
                idle_guard: Mutex::new(false),
                next: AtomicUsize::new(0),
                executed: AtomicU64::new(0),
                stolen: AtomicU64::new(0),
                inflight: AtomicU64::new(0),
                stop: AtomicBool::new(false),
            }),
            free_slots: Mutex::new(workers),
            slot_freed: Condvar::new(),
            workers: OnceLock::new(),
        }
    }

    /// Start one worker thread per deque. Thread spawning can fail under
    /// host resource pressure; a pool that comes up with fewer workers
    /// (even zero) still serves — `spawn` degrades to inline execution
    /// when no worker thread exists — so the caller never aborts on a
    /// failed spawn.
    fn start_workers(shared: &Arc<PoolShared>) -> Vec<JoinHandle<()>> {
        (0..shared.queues.len())
            .filter_map(|me| {
                let shared = Arc::clone(shared);
                std::thread::Builder::new()
                    .name(format!("dynccd-worker-{me}"))
                    .spawn(move || worker_loop(me, &shared))
                    .ok()
            })
            .collect()
    }

    /// Enqueue a job (round-robin over worker deques) and return
    /// immediately. With no live workers (degraded pool) the job runs
    /// inline on the calling thread instead of queueing forever.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let shared = &self.shared;
        let workers = self.workers.get_or_init(|| Self::start_workers(shared));
        if workers.is_empty() {
            shared.executed.fetch_add(1, Ordering::Relaxed);
            job();
            return;
        }
        let n = shared.queues.len();
        let slot = shared.next.fetch_add(1, Ordering::Relaxed) % n;
        shared.inflight.fetch_add(1, Ordering::Relaxed);
        {
            let mut q = shared.queues[slot]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            q.push_back(Box::new(job));
        }
        let mut pending = shared.idle_guard.lock().unwrap_or_else(|e| e.into_inner());
        *pending = true;
        drop(pending);
        shared.idle.notify_one();
    }

    /// Run one job on the calling thread under one of the pool's
    /// `workers` slots, waiting for a slot if all are taken, and return
    /// its value. The building block for request/response dispatch: the
    /// thread that read the frame does the frame's work, and the pool
    /// only bounds how many do so at once.
    pub fn run<T>(&self, job: impl FnOnce() -> T) -> T {
        let _slot = self.take_slot();
        job()
    }

    fn take_slot(&self) -> Slot<'_> {
        let shared = &self.shared;
        let mut free = self.free_slots.lock().unwrap_or_else(|e| e.into_inner());
        if *free == 0 {
            shared.inflight.fetch_add(1, Ordering::Relaxed);
            while *free == 0 {
                free = self
                    .slot_freed
                    .wait(free)
                    .unwrap_or_else(|e| e.into_inner());
            }
            shared.inflight.fetch_sub(1, Ordering::Relaxed);
        }
        *free -= 1;
        shared.executed.fetch_add(1, Ordering::Relaxed);
        Slot(self)
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.shared.queues.len(),
            executed: self.shared.executed.load(Ordering::Relaxed),
            stolen: self.shared.stolen.load(Ordering::Relaxed),
            inflight: self.shared.inflight.load(Ordering::Relaxed),
        }
    }

    /// Drain remaining jobs and join every worker.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        let Some(workers) = self.workers.take() else {
            return; // never spawned
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        {
            let mut pending = self
                .shared
                .idle_guard
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            *pending = true;
        }
        self.shared.idle.notify_all();
        for h in workers {
            let _ = h.join();
        }
    }
}

fn worker_loop(me: usize, shared: &PoolShared) {
    loop {
        // Own deque first (LIFO: the most recently pushed job is the most
        // cache-warm), then steal round the ring (FIFO).
        let mut job: Option<Job> = {
            let mut q = shared.queues[me].lock().unwrap_or_else(|e| e.into_inner());
            q.pop_back()
        };
        if job.is_none() {
            let n = shared.queues.len();
            for d in 1..n {
                let victim = (me + d) % n;
                let stolen = {
                    let mut q = shared.queues[victim]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    q.pop_front()
                };
                if stolen.is_some() {
                    shared.stolen.fetch_add(1, Ordering::Relaxed);
                    job = stolen;
                    break;
                }
            }
        }
        match job {
            Some(job) => {
                // Account at dispatch, not completion: a completing job's
                // last action may be waking a `run()` caller, who must
                // then observe settled counters — and a job that panics
                // (workers unwind without poisoning the queues) must not
                // leak an `inflight` increment forever.
                shared.executed.fetch_add(1, Ordering::Relaxed);
                shared.inflight.fetch_sub(1, Ordering::Relaxed);
                job();
            }
            None => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                let mut pending = shared.idle_guard.lock().unwrap_or_else(|e| e.into_inner());
                // Re-check under the guard so an enqueue between our scan
                // and this lock is not slept through.
                if !*pending {
                    let (p, _timeout) = shared
                        .idle
                        .wait_timeout(pending, std::time::Duration::from_millis(50))
                        .unwrap_or_else(|e| e.into_inner());
                    pending = p;
                }
                *pending = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_values_and_counts() {
        let pool = WorkPool::new(4);
        let results: Vec<u64> = (0..64u64).map(|i| pool.run(move || i * i)).collect();
        assert_eq!(results, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
        let stats = pool.stats();
        assert_eq!(stats.executed, 64);
        assert_eq!(stats.inflight, 0);
        pool.shutdown();
    }

    #[test]
    fn spawned_jobs_all_execute_across_workers() {
        let pool = WorkPool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        let total = 200;
        for _ in 0..total {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), total);
    }

    #[test]
    fn concurrent_run_callers_do_not_interleave_results() {
        let pool = Arc::new(WorkPool::new(4));
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || (0..50).map(|j| pool.run(move || i * 1000 + j)).sum())
            })
            .collect();
        let sums: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, sum) in sums.iter().enumerate() {
            let expect: u64 = (0..50).map(|j| i as u64 * 1000 + j).sum();
            assert_eq!(*sum, expect);
        }
    }

    #[test]
    fn run_executes_on_the_calling_thread() {
        let pool = WorkPool::new(2);
        let me = std::thread::current().id();
        assert_eq!(pool.run(|| std::thread::current().id()), me);
        // ...so it can borrow from the caller's stack.
        let local = [1u64, 2, 3];
        assert_eq!(pool.run(|| local.iter().sum::<u64>()), 6);
    }

    #[test]
    fn run_never_exceeds_the_pool_width() {
        let pool = Arc::new(WorkPool::new(2));
        let running = Arc::new(AtomicU64::new(0));
        let most = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let (pool, running, most) =
                    (Arc::clone(&pool), Arc::clone(&running), Arc::clone(&most));
                std::thread::spawn(move || {
                    (0..50)
                        .map(|j| {
                            pool.run(|| {
                                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                                most.fetch_max(now, Ordering::SeqCst);
                                std::thread::yield_now();
                                running.fetch_sub(1, Ordering::SeqCst);
                                i * 1000 + j
                            })
                        })
                        .sum::<u64>()
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let expect: u64 = (0..50).map(|j| i as u64 * 1000 + j).sum();
            assert_eq!(h.join().unwrap(), expect);
        }
        assert!(most.load(Ordering::SeqCst) <= 2);
        let stats = pool.stats();
        assert_eq!((stats.executed, stats.inflight), (400, 0));
    }

    #[test]
    fn a_panicking_run_job_gives_its_slot_back() {
        let pool = WorkPool::new(1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|| std::panic::panic_any("job panic (slot release check)"))
        }));
        assert!(caught.is_err());
        assert_eq!(*pool.free_slots.lock().unwrap(), 1);
        assert_eq!(pool.run(|| 7), 7);
    }

    #[test]
    fn no_thread_is_started_before_the_first_spawn() {
        let pool = WorkPool::new(3);
        assert_eq!(pool.run(|| 1), 1);
        assert!(pool.workers.get().is_none());
        pool.spawn(|| {});
        assert_eq!(pool.workers.get().map(Vec::len), Some(3));
        pool.shutdown();
    }
}
