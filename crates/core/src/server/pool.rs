//! The server's execution budget: run slots for request frames.
//!
//! A pool of `workers` bounds how much runs at once. [`WorkPool::run`] is
//! the request path: the job runs on the calling thread — for `dynccd`,
//! the connection thread that read the frame — under one of `workers`
//! slots, so at most `workers` frames execute at once however many
//! connections are open, and a frame costs what its work costs: no
//! boxing, no queue, no hand-off to another thread and back (two futex
//! wake-ups per frame: measured in the server, 57 of a 66 µs round trip
//! when six threads share two cores). The pool owns no thread.
//!
//! The pool never observes job panics: callers that need containment
//! wrap the job body in `catch_unwind` (the server does — see
//! `super::state`). A `run` job that unwinds gives its slot back on the
//! way, as defense in depth, not the primary containment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Pool-wide counters, exported on the metrics endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// The pool's width: how many `run` slots it has.
    pub workers: usize,
    /// Jobs started so far (counted at slot acquisition).
    pub executed: u64,
    /// `run` callers waiting for a slot.
    pub inflight: u64,
}

/// The slot pool.
pub struct WorkPool {
    workers: usize,
    /// Free [`WorkPool::run`] slots, of `workers`.
    free_slots: Mutex<usize>,
    /// Wakes one `run` caller waiting on [`WorkPool::free_slots`].
    slot_freed: Condvar,
    /// Jobs started: counted when a `run` caller takes its slot.
    executed: AtomicU64,
    /// `run` callers waiting for a slot.
    inflight: AtomicU64,
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
    /// A pool `workers` wide (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        WorkPool {
            workers,
            free_slots: Mutex::new(workers),
            slot_freed: Condvar::new(),
            executed: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
        }
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
        let mut free = self.free_slots.lock().unwrap_or_else(|e| e.into_inner());
        if *free == 0 {
            self.inflight.fetch_add(1, Ordering::Relaxed);
            while *free == 0 {
                free = self
                    .slot_freed
                    .wait(free)
                    .unwrap_or_else(|e| e.into_inner());
            }
            self.inflight.fetch_sub(1, Ordering::Relaxed);
        }
        *free -= 1;
        self.executed.fetch_add(1, Ordering::Relaxed);
        Slot(self)
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers,
            executed: self.executed.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
        }
    }

    /// End the pool's life. It owns no thread, so this only drops it;
    /// the server calls it once every connection thread has been joined.
    pub fn shutdown(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
}
