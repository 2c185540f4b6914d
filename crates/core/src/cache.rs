//! Keyed-region code caching: the per-session LRU order and the
//! process-wide **sharded stitched-code cache**.
//!
//! Every session keeps its own keyed-region cache (the paper's model —
//! one stitched instance per distinct key tuple, per region). With many
//! sessions running the same [`crate::Program`], that means every session
//! re-stitches code some other session already produced. The
//! [`SharedCodeCache`] removes that duplicated work: a process-wide map
//! from `(program, region, key)` to the stitched instance, split into N
//! lock-striped shards (FxHash over the key picks the shard) with an O(1)
//! per-shard LRU, so concurrent sessions contend only when they hash to
//! the same shard. A hit hands back an [`Arc<Stitched>`]; the session
//! installs it with a bulk copy plus base/table relocation
//! ([`dyncomp_stitcher::Stitched::relocate`]) instead of running set-up
//! code and the stitcher.
//!
//! The shared cache is **opt-in**
//! ([`crate::EngineOptions::shared_cache`]). The default (per-session
//! caching only) preserves the exact simulated-cycle accounting of the
//! paper's tables; the shared mode charges its own deterministic probe
//! and install costs instead of set-up + stitching, so its cycle counts
//! are deliberately *not* comparable to the paper model. Cross-session
//! reuse also assumes sessions are replicas (same program, identically
//! laid-out session memory) — see [`dyncomp_stitcher::Stitched::relocate`].

use dyncomp_ir::fxhash::{FxHashMap, FxHasher};
use dyncomp_stitcher::Stitched;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Doubly-linked recency order over a cache's entries: O(1) touch-on-hit,
/// push, and least-recently-used eviction, independent of cache size.
/// Slot indices are stable (freed slots recycle through a free list), so
/// the `lru` index a cache entry stores stays valid until eviction.
#[derive(Debug)]
pub(crate) struct LruOrder<K> {
    slots: Vec<LruSlot<K>>,
    /// Least recently used end (eviction victim).
    head: Option<usize>,
    /// Most recently used end.
    tail: Option<usize>,
    free: Vec<usize>,
}

impl<K> Default for LruOrder<K> {
    fn default() -> Self {
        LruOrder {
            slots: Vec::new(),
            head: None,
            tail: None,
            free: Vec::new(),
        }
    }
}

#[derive(Debug)]
struct LruSlot<K> {
    key: Option<K>,
    prev: Option<usize>,
    next: Option<usize>,
}

impl<K> LruOrder<K> {
    fn unlink(&mut self, i: usize) {
        let (p, n) = (self.slots[i].prev, self.slots[i].next);
        match p {
            Some(p) => self.slots[p].next = n,
            None => self.head = n,
        }
        match n {
            Some(n) => self.slots[n].prev = p,
            None => self.tail = p,
        }
        self.slots[i].prev = None;
        self.slots[i].next = None;
    }

    fn push_back(&mut self, i: usize) {
        self.slots[i].prev = self.tail;
        self.slots[i].next = None;
        match self.tail {
            Some(t) => self.slots[t].next = Some(i),
            None => self.head = Some(i),
        }
        self.tail = Some(i);
    }

    /// Append `key` at the most-recently-used end; returns its slot.
    pub(crate) fn insert(&mut self, key: K) -> usize {
        let slot = LruSlot {
            key: Some(key),
            prev: None,
            next: None,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.push_back(i);
        i
    }

    /// Move slot `i` to the most-recently-used end.
    pub(crate) fn touch(&mut self, i: usize) {
        if self.tail != Some(i) {
            self.unlink(i);
            self.push_back(i);
        }
    }

    /// Remove and return the least-recently-used key.
    pub(crate) fn pop_lru(&mut self) -> Option<K> {
        let i = self.head?;
        self.unlink(i);
        self.free.push(i);
        self.slots[i].key.take()
    }
}

/// Identity of one stitched instance in the process-wide cache.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SharedKey {
    /// The owning program's process-unique id ([`crate::Program::id`]).
    pub program: u64,
    /// Region number within the program.
    pub region: u16,
    /// The region's key tuple. Empty for unkeyed regions: their entry is
    /// filed under the empty key, but because the cached code's identity
    /// is the set-up constants (which the key does not capture), a
    /// consuming session must validate the entry against its own memory
    /// via [`Stitched::reads_match`] before installing it. The engine's
    /// `end_setup` path does exactly that; keyed entries need no
    /// validation because the key determines the stitched code.
    pub key: Vec<u64>,
}

/// One shard: a hash map plus its recency order and resident byte count.
#[derive(Default)]
struct Shard {
    map: FxHashMap<SharedKey, ShardEntry>,
    lru: LruOrder<SharedKey>,
    /// Sum of [`ShardEntry::bytes`] over `map` (for the byte budget).
    bytes: u64,
}

struct ShardEntry {
    code: Arc<Stitched>,
    lru: usize,
    /// [`Stitched::footprint_bytes`] at insertion (cached so eviction
    /// never re-walks the artifact).
    bytes: u64,
}

/// Counters for one [`SharedCodeCache`] (monotonic, process lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups that found an instance.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Instances published (including re-publications after a race).
    pub insertions: u64,
    /// Of [`SharedCacheStats::insertions`], publications that replaced an
    /// existing entry for the same key (a race between sessions): they
    /// add no resident instance. At quiesce,
    /// `insertions - replacements - evictions == len()` always holds.
    pub replacements: u64,
    /// Instances evicted to respect the per-shard capacity.
    pub evictions: u64,
}

/// The process-wide sharded stitched-code cache. See the module docs.
///
/// Shared between sessions as an `Arc<SharedCodeCache>` via
/// [`crate::EngineOptions::shared_cache`]; all methods take `&self`.
pub struct SharedCodeCache {
    shards: Box<[Mutex<Shard>]>,
    shard_mask: u64,
    per_shard_capacity: usize,
    /// Byte budget per shard (`None`: entry count only). Insertions evict
    /// LRU entries until both the capacity and the budget hold.
    per_shard_byte_budget: Option<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    replacements: AtomicU64,
    evictions: AtomicU64,
}

impl SharedCodeCache {
    /// Most lock stripes a cache will allocate; larger requests saturate
    /// here (every stripe is allocated up front, and `next_power_of_two`
    /// overflows near `usize::MAX`).
    pub const MAX_SHARDS: usize = 1 << 16;

    /// A cache with `shards` lock stripes (rounded up to a power of two,
    /// between 1 and [`SharedCodeCache::MAX_SHARDS`]) and at most
    /// `per_shard_capacity` instances per shard (minimum 1; evictions are
    /// LRU within the shard).
    pub fn new(shards: usize, per_shard_capacity: usize) -> Self {
        SharedCodeCache::with_byte_budget(shards, per_shard_capacity, None)
    }

    /// Same, additionally bounding each shard to `byte_budget` resident
    /// bytes ([`Stitched::footprint_bytes`] per instance): a publication
    /// evicts LRU entries until the budget holds again, so degraded
    /// deployments can cap stitched-code memory instead of instance
    /// counts. An instance larger than the whole budget still resides
    /// alone (the cache never refuses a publication outright).
    pub fn with_byte_budget(
        shards: usize,
        per_shard_capacity: usize,
        byte_budget: Option<u64>,
    ) -> Self {
        let n = shards.clamp(1, Self::MAX_SHARDS).next_power_of_two();
        SharedCodeCache {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            shard_mask: n as u64 - 1,
            per_shard_capacity: per_shard_capacity.max(1),
            per_shard_byte_budget: byte_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            replacements: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &SharedKey) -> &Mutex<Shard> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() & self.shard_mask) as usize]
    }

    /// Look up a stitched instance, refreshing its recency on a hit.
    pub fn lookup(&self, key: &SharedKey) -> Option<Arc<Stitched>> {
        let mut shard = self.shard(key).lock().expect("shard lock poisoned");
        match shard.map.get(key) {
            Some(e) => {
                let (slot, code) = (e.lru, Arc::clone(&e.code));
                shard.lru.touch(slot);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(code)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publish a stitched instance. When two sessions race on the same
    /// key, the later publication wins (both are valid — same key, same
    /// code under the replica assumption). Evicts LRU entries as needed
    /// to respect the shard capacity; returns how many this publication
    /// evicted (0 on replacement).
    pub fn insert(&self, key: SharedKey, code: Arc<Stitched>) -> usize {
        let bytes = code.footprint_bytes();
        let mut shard = self.shard(&key).lock().expect("shard lock poisoned");
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if let Some(e) = shard.map.get_mut(&key) {
            let (slot, old_bytes) = (e.lru, e.bytes);
            e.code = code;
            e.bytes = bytes;
            shard.lru.touch(slot);
            shard.bytes = shard.bytes - old_bytes + bytes;
            self.replacements.fetch_add(1, Ordering::Relaxed);
            // A replacement can grow the resident footprint (the racing
            // session stitched a bigger instance); re-establish the byte
            // budget exactly like a fresh publication would. The replaced
            // key is the MRU tail, so it is evicted only if it alone
            // exceeds the budget — in which case it resides alone.
            return self.evict_to_budget(&mut shard, 0);
        }
        // Budget pressure only evicts while something else resides: an
        // oversized instance still publishes alone.
        let mut evicted = 0;
        while shard.map.len() >= self.per_shard_capacity
            || self
                .per_shard_byte_budget
                .is_some_and(|b| !shard.map.is_empty() && shard.bytes.saturating_add(bytes) > b)
        {
            match shard.lru.pop_lru() {
                Some(victim) => {
                    if let Some(e) = shard.map.remove(&victim) {
                        shard.bytes -= e.bytes;
                    }
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    evicted += 1;
                }
                None => break,
            }
        }
        let slot = shard.lru.insert(key.clone());
        shard.bytes += bytes;
        shard.map.insert(
            key,
            ShardEntry {
                code,
                lru: slot,
                bytes,
            },
        );
        evicted
    }

    /// Evict LRU entries until the shard's resident bytes fit the budget
    /// again, leaving at least one entry resident (an oversized instance
    /// resides alone). Returns `evicted` plus the victims counted here.
    fn evict_to_budget(&self, shard: &mut Shard, mut evicted: usize) -> usize {
        while self
            .per_shard_byte_budget
            .is_some_and(|b| shard.map.len() > 1 && shard.bytes > b)
        {
            match shard.lru.pop_lru() {
                Some(victim) => {
                    if let Some(e) = shard.map.remove(&victim) {
                        shard.bytes -= e.bytes;
                    }
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }

    /// Walk every shard and recount residency from the entries
    /// themselves: `(instances, bytes)` with bytes re-derived from
    /// [`Stitched::footprint_bytes`], not the cached per-entry figure.
    /// For tests that reconcile [`SharedCodeCache::stats`],
    /// [`SharedCodeCache::len`] and [`SharedCodeCache::bytes`] against
    /// ground truth at quiesce.
    #[doc(hidden)]
    pub fn recount(&self) -> (usize, u64) {
        let mut instances = 0usize;
        let mut bytes = 0u64;
        for s in self.shards.iter() {
            let shard = s.lock().expect("shard lock poisoned");
            instances += shard.map.len();
            bytes += shard
                .map
                .values()
                .map(|e| e.code.footprint_bytes())
                .sum::<u64>();
        }
        (instances, bytes)
    }

    /// Instances currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").map.len())
            .sum()
    }

    /// Whether the cache holds no instances.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes ([`Stitched::footprint_bytes`] summed), across all
    /// shards.
    pub fn bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").bytes)
            .sum()
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            replacements: self.replacements.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl Default for SharedCodeCache {
    /// 16 shards × 256 instances: enough striping for the 8-thread
    /// benchmarks with a bounded footprint.
    fn default() -> Self {
        SharedCodeCache::new(16, 256)
    }
}

impl fmt::Debug for SharedCodeCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedCodeCache")
            .field("shards", &self.shards.len())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(words: usize) -> Arc<Stitched> {
        Arc::new(Stitched {
            code: vec![0; words],
            lin_table_addr: 0,
            lin_words: Vec::new(),
            lin_addr_patches: Vec::new(),
            lin_far_addr_patches: Vec::new(),
            exit_patches: Vec::new(),
            plan_patches: Vec::new(),
            stats: Default::default(),
            native_bytes: 0,
            reads: Vec::new(),
        })
    }

    fn key(k: u64) -> SharedKey {
        SharedKey {
            program: 1,
            region: 0,
            key: vec![k],
        }
    }

    #[test]
    fn lookup_miss_then_hit() {
        let c = SharedCodeCache::new(4, 8);
        assert!(c.lookup(&key(1)).is_none());
        c.insert(key(1), entry(3));
        let got = c.lookup(&key(1)).expect("hit");
        assert_eq!(got.code.len(), 3);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn single_shard_lru_evicts_least_recent() {
        let c = SharedCodeCache::new(1, 2);
        c.insert(key(1), entry(1));
        c.insert(key(2), entry(2));
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(c.lookup(&key(1)).is_some());
        c.insert(key(3), entry(3));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup(&key(1)).is_some(), "recently used survives");
        assert!(c.lookup(&key(2)).is_none(), "LRU evicted");
        assert!(c.lookup(&key(3)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_is_per_shard() {
        let c = SharedCodeCache::new(8, 1);
        assert_eq!(c.shard_count(), 8);
        for k in 0..64 {
            c.insert(key(k), entry(1));
        }
        // Each shard holds exactly one instance; the rest were evicted.
        assert_eq!(c.len(), c.shard_count().min(64));
        assert_eq!(c.stats().evictions, 64 - c.len() as u64);
    }

    #[test]
    fn byte_budget_evicts_by_resident_bytes() {
        // 10-word entries are 40 bytes each; a 100-byte shard holds two.
        let c = SharedCodeCache::with_byte_budget(1, 64, Some(100));
        c.insert(key(1), entry(10));
        c.insert(key(2), entry(10));
        assert_eq!(c.bytes(), 80);
        assert!(c.lookup(&key(1)).is_some(), "key 1 made most recent");
        c.insert(key(3), entry(10));
        assert_eq!(c.stats().evictions, 1, "budget forced an eviction");
        assert!(c.lookup(&key(2)).is_none(), "LRU victim under pressure");
        assert!(c.lookup(&key(1)).is_some());
        assert!(c.lookup(&key(3)).is_some());
        assert_eq!(c.bytes(), 80);
    }

    #[test]
    fn oversized_instance_resides_alone() {
        let c = SharedCodeCache::with_byte_budget(1, 64, Some(100));
        c.insert(key(1), entry(10));
        // 200 words = 800 bytes, over the whole budget: everything else
        // is evicted but the publication itself is never refused.
        c.insert(key(2), entry(200));
        assert!(c.lookup(&key(1)).is_none());
        assert!(c.lookup(&key(2)).is_some());
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 800);
    }

    #[test]
    fn replacement_adjusts_resident_bytes() {
        let c = SharedCodeCache::with_byte_budget(1, 64, Some(1000));
        c.insert(key(1), entry(10));
        c.insert(key(1), entry(3));
        assert_eq!(c.bytes(), 12, "replacement swaps footprints");
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn replacement_over_budget_re_evicts() {
        // 10-word entries are 40 bytes; budget 100.
        let c = SharedCodeCache::with_byte_budget(1, 64, Some(100));
        c.insert(key(1), entry(10));
        c.insert(key(2), entry(10));
        // Replace key 2 with an 80-byte instance: 40 + 80 > 100, so the
        // LRU victim (key 1) must go — the budget holds after *every*
        // publication, replacements included.
        c.insert(key(2), entry(20));
        assert!(c.lookup(&key(1)).is_none(), "budget re-established");
        assert!(c.lookup(&key(2)).is_some());
        assert_eq!(c.bytes(), 80);
        let s = c.stats();
        assert_eq!(s.replacements, 1);
        assert_eq!(s.insertions - s.replacements - s.evictions, c.len() as u64);
        assert_eq!(c.recount(), (c.len(), c.bytes()));
    }

    #[test]
    fn oversized_replacement_resides_alone() {
        let c = SharedCodeCache::with_byte_budget(1, 64, Some(100));
        c.insert(key(1), entry(10));
        c.insert(key(2), entry(10));
        // 200 words = 800 bytes replacing key 2: everything else is
        // evicted, but the replacement itself survives alone.
        c.insert(key(2), entry(200));
        assert_eq!(c.len(), 1);
        assert!(c.lookup(&key(2)).is_some());
        assert_eq!(c.bytes(), 800);
    }

    #[test]
    fn racing_insert_replaces_without_eviction() {
        let c = SharedCodeCache::new(1, 4);
        c.insert(key(1), entry(1));
        c.insert(key(1), entry(9));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.lookup(&key(1)).unwrap().code.len(), 9);
    }

    #[test]
    fn distinct_programs_do_not_alias() {
        let c = SharedCodeCache::default();
        let a = SharedKey {
            program: 1,
            region: 0,
            key: vec![7],
        };
        let b = SharedKey {
            program: 2,
            region: 0,
            key: vec![7],
        };
        c.insert(a.clone(), entry(1));
        assert!(c.lookup(&b).is_none());
        assert!(c.lookup(&a).is_some());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(SharedCodeCache::new(0, 1).shard_count(), 1);
        assert_eq!(SharedCodeCache::new(3, 1).shard_count(), 4);
        assert_eq!(SharedCodeCache::new(16, 1).shard_count(), 16);
    }

    #[test]
    fn concurrent_publish_and_lookup() {
        let c = Arc::new(SharedCodeCache::new(8, 64));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let k = key(i % 32);
                        if c.lookup(&k).is_none() {
                            c.insert(k, entry((t + i) as usize % 7 + 1));
                        }
                    }
                });
            }
        });
        assert_eq!(c.len(), 32);
        let s = c.stats();
        assert!(s.hits > 0 && s.insertions >= 32);
    }
}
