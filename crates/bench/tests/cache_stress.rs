//! Concurrency stress for the process-wide stitched-code cache under a
//! per-shard byte budget: eight threads hammer one shard with installs
//! whose footprints force continuous eviction, and at quiesce the stats
//! must reconcile exactly — no resident-byte drift, no lost entries.
//!
//! This is the satellite to the `dynccd` server work: every tenant gets
//! a byte-budgeted `SharedCodeCache` as its quota, so a stats/byte drift
//! under contention would silently corrupt tenant accounting.

use dyncomp::{fold_checksum, Compiler, EngineOptions, Session, SharedCodeCache};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const THREADS: usize = 8;
const KEYS_PER_THREAD: u64 = 64;

/// Eight threads, one shard, a byte budget sized to hold only a handful
/// of instances: installs and evictions interleave on a single shard
/// lock. At quiesce the flow equation and a full recount must both hold.
#[test]
fn concurrent_install_evict_reconciles_on_one_shard() {
    let src = r#"
        int f(int k, int x) {
            dynamicRegion key(k) (k) {
                return k * x * x + k * x + k;
            }
        }
    "#;
    let program = Arc::new(Compiler::new().compile(src).unwrap());
    // One shard, tiny byte budget: a few instances fit, the rest evict.
    let cache = Arc::new(SharedCodeCache::with_byte_budget(1, 16, Some(512)));
    let checksum = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let program = Arc::clone(&program);
            let cache = Arc::clone(&cache);
            let checksum = &checksum;
            s.spawn(move || {
                let mut session = Session::with_options(
                    program,
                    EngineOptions {
                        shared_cache: Some(cache),
                        ..EngineOptions::default()
                    },
                );
                let mut local = 0u64;
                for i in 0..KEYS_PER_THREAD {
                    // Overlapping key ranges across threads: some installs
                    // are replacements, some are fresh, all contend.
                    let k = (t as u64 * KEYS_PER_THREAD) / 2 + i;
                    let r = session.call("f", &[k, 10]).unwrap();
                    assert_eq!(r, k * 100 + k * 10 + k, "wrong result for key {k}");
                    local = fold_checksum(local, r);
                }
                checksum.fetch_xor(local, Ordering::Relaxed);
            });
        }
    });

    // Quiesce: every counter settled. The flow equation must balance …
    let stats = cache.stats();
    assert_eq!(cache.shard_count(), 1);
    assert!(stats.insertions > 0, "stress never installed anything");
    assert!(stats.evictions > 0, "budget never forced an eviction");
    assert_eq!(
        stats.insertions - stats.replacements - stats.evictions,
        cache.len() as u64,
        "install/evict flow does not balance the resident count: {stats:?}"
    );
    // … and the O(1)-maintained aggregates must agree with a full walk.
    assert_eq!(
        cache.recount(),
        (cache.len(), cache.bytes()),
        "resident-byte accounting drifted from a full recount: {stats:?}"
    );
    // The budget is per shard and was respected at quiesce.
    assert!(
        cache.bytes() <= 512,
        "resident bytes {} exceed the 512-byte shard budget",
        cache.bytes()
    );
}

/// Same stress with several shards and a shared byte budget per shard:
/// reconciliation is per-cache (sums over shards), so the same equations
/// must hold.
#[test]
fn concurrent_install_evict_reconciles_across_shards() {
    let src = r#"
        int g(int k, int x) {
            dynamicRegion key(k) (k) {
                return k * x + (k << 2);
            }
        }
    "#;
    let program = Arc::new(Compiler::new().compile(src).unwrap());
    let cache = Arc::new(SharedCodeCache::with_byte_budget(4, 8, Some(1024)));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let program = Arc::clone(&program);
            let cache = Arc::clone(&cache);
            s.spawn(move || {
                let mut session = Session::with_options(
                    program,
                    EngineOptions {
                        shared_cache: Some(cache),
                        ..EngineOptions::default()
                    },
                );
                for i in 0..KEYS_PER_THREAD {
                    let k = (t as u64 % 4) * KEYS_PER_THREAD + i;
                    let r = session.call("g", &[k, 7]).unwrap();
                    assert_eq!(r, k * 7 + (k << 2));
                }
            });
        }
    });

    let stats = cache.stats();
    assert_eq!(
        stats.insertions - stats.replacements - stats.evictions,
        cache.len() as u64,
        "flow equation broken: {stats:?}"
    );
    assert_eq!(cache.recount(), (cache.len(), cache.bytes()));
}
