//! Sharded LRU result cache keyed by canonical [`Digest`]s.
//!
//! The cache is `N` independent LRU shards, each behind its own mutex;
//! a request's shard is picked from the low digest bits, so contention
//! scales with core count instead of serializing on one lock. Eviction is
//! strict least-recently-used per shard via an index-linked list over a
//! slab — no per-access allocation, `O(1)` get/insert/evict.
//!
//! Hit/miss/insert/evict counters are process-wide atomics, cheap enough
//! to keep always-on and exposed through the server's `stats` op.

use crate::digest::Digest;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters of cache behaviour (plus the live byte gauge).
#[derive(Default, Debug)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    /// Live gauge: the summed byte cost of every stored entry, as
    /// declared by [`ShardedCache::insert_costed`] callers.
    bytes: AtomicU64,
}

/// A point-in-time copy of [`CacheStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups that returned a stored value.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Values stored.
    pub insertions: u64,
    /// Values dropped to make room.
    pub evictions: u64,
    /// Approximate bytes held right now (a gauge, not a counter): the
    /// summed per-entry cost declared at insertion. Entries inserted
    /// without a cost count as zero.
    pub bytes: u64,
}

impl CacheStats {
    fn snapshot(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

const NIL: usize = usize::MAX;

struct Slot<V> {
    key: u128,
    value: V,
    /// Declared byte cost of the value (0 for cost-free inserts).
    cost: u64,
    prev: usize,
    next: usize,
}

/// One LRU shard: hash map for lookup, slab-linked list for recency.
struct LruShard<V> {
    map: HashMap<u128, usize>,
    slots: Vec<Slot<V>>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
    capacity: usize,
}

impl<V: Clone> LruShard<V> {
    fn new(capacity: usize) -> Self {
        LruShard {
            map: HashMap::with_capacity(capacity.min(1024)),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    fn get(&mut self, key: u128) -> Option<V> {
        let &i = self.map.get(&key)?;
        self.unlink(i);
        self.push_front(i);
        Some(self.slots[i].value.clone())
    }

    /// Inserts with a declared byte cost; returns `(evicted, freed,
    /// displaced)` where `freed` is the summed cost of entries this insert
    /// displaced (the refreshed old value and/or the evicted LRU entry), so
    /// the caller can keep the byte gauge exact, and `displaced` is the
    /// value it pushed out, for the caller to drop once the shard is
    /// unlocked.
    fn insert(&mut self, key: u128, value: V, cost: u64) -> (bool, u64, Option<V>) {
        if let Some(&i) = self.map.get(&key) {
            // Refresh both value and recency (recompute race: last wins).
            let freed = self.slots[i].cost;
            let old = std::mem::replace(&mut self.slots[i].value, value);
            self.slots[i].cost = cost;
            self.unlink(i);
            self.push_front(i);
            return (false, freed, Some(old));
        }
        let mut evicted = false;
        let mut freed = 0;
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "capacity >= 1 and map non-empty");
            self.unlink(lru);
            self.map.remove(&self.slots[lru].key);
            freed = self.slots[lru].cost;
            self.free.push(lru);
            evicted = true;
        }
        let (i, displaced) = match self.free.pop() {
            Some(i) => {
                self.slots[i].key = key;
                self.slots[i].cost = cost;
                (i, Some(std::mem::replace(&mut self.slots[i].value, value)))
            }
            None => {
                self.slots.push(Slot {
                    key,
                    value,
                    cost,
                    prev: NIL,
                    next: NIL,
                });
                (self.slots.len() - 1, None)
            }
        };
        self.push_front(i);
        self.map.insert(key, i);
        (evicted, freed, displaced)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Visits every live entry from least- to most-recently used without
    /// touching recency.
    fn for_each(&self, mut f: impl FnMut(u128, &V)) {
        let mut i = self.tail;
        while i != NIL {
            let slot = &self.slots[i];
            f(slot.key, &slot.value);
            i = slot.prev;
        }
    }
}

/// The sharded cache. `V` is cheaply cloneable (the scheduler stores
/// `Arc`ed results).
///
/// # Examples
///
/// ```
/// use antlayer_service::{Digest, ShardedCache};
///
/// let cache: ShardedCache<&str> = ShardedCache::new(1024, 8);
/// let key = Digest { hi: 7, lo: 9 };
/// assert_eq!(cache.get(key), None);
/// cache.insert(key, "layering bits");
/// assert_eq!(cache.get(key), Some("layering bits"));
/// assert_eq!(cache.counters().hits, 1);
/// ```
pub struct ShardedCache<V> {
    shards: Vec<Mutex<LruShard<V>>>,
    /// Power-of-two mask over the shard index bits.
    mask: u64,
    stats: CacheStats,
}

impl<V: Clone> ShardedCache<V> {
    /// A cache holding at most ~`capacity` values across `shards` shards
    /// (each shard gets the rounded-up share). `shards` is rounded up to
    /// a power of two; both are clamped to at least 1.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = capacity.max(1).div_ceil(shards);
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruShard::new(per_shard)))
                .collect(),
            mask: shards as u64 - 1,
            stats: CacheStats::default(),
        }
    }

    fn shard(&self, digest: Digest) -> &Mutex<LruShard<V>> {
        // hi bits feed the in-shard HashMap; lo bits pick the shard.
        &self.shards[(digest.lo & self.mask) as usize]
    }

    /// Looks a digest up, refreshing its recency.
    pub fn get(&self, digest: Digest) -> Option<V> {
        let got = self.shard(digest).lock().get(digest.as_u128());
        match got {
            Some(v) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Like [`get`](Self::get) — recency is refreshed — but without
    /// touching the hit/miss counters. For internal resolutions (e.g.
    /// `layout_delta` base lookups) that are not responses served from
    /// the cache; counting them would make `cache_hits` overstate how
    /// much compute the cache absorbed.
    pub fn peek(&self, digest: Digest) -> Option<V> {
        self.shard(digest).lock().get(digest.as_u128())
    }

    /// Stores a value, evicting the shard's LRU entry when full. The
    /// entry counts zero bytes toward [`bytes`](Self::bytes); use
    /// [`insert_costed`](Self::insert_costed) when memory accounting
    /// matters.
    pub fn insert(&self, digest: Digest, value: V) {
        self.insert_costed(digest, value, 0);
    }

    /// Stores a value with a declared byte cost; the cache maintains
    /// the exact sum of live entries' costs in [`bytes`](Self::bytes)
    /// (costs of refreshed and evicted entries leave the gauge).
    ///
    /// A value this insert displaces is dropped after the shard's lock is
    /// released: freeing a large result can take milliseconds, and lookups
    /// on the shard must not wait for it.
    pub fn insert_costed(&self, digest: Digest, value: V, bytes: u64) {
        let (evicted, freed, displaced) =
            self.shard(digest)
                .lock()
                .insert(digest.as_u128(), value, bytes);
        drop(displaced);
        self.stats.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted {
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        // Add before sub could transiently overshoot; sub-then-add could
        // transiently underflow the unsigned gauge. Do the net change in
        // one step.
        if bytes >= freed {
            self.stats.bytes.fetch_add(bytes - freed, Ordering::Relaxed);
        } else {
            self.stats.bytes.fetch_sub(freed - bytes, Ordering::Relaxed);
        }
    }

    /// Approximate bytes held right now (see
    /// [`insert_costed`](Self::insert_costed)).
    pub fn bytes(&self) -> u64 {
        self.stats.bytes.load(Ordering::Relaxed)
    }

    /// Number of currently stored values.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counters.
    pub fn counters(&self) -> CacheCounters {
        self.stats.snapshot()
    }

    /// Visits every live entry, shard by shard, least- to most-recently
    /// used within each shard. Recency and counters are untouched; each
    /// shard's lock is held only while that shard is walked. Used by the
    /// persistence layer to snapshot live entries for compaction, where
    /// the LRU-first order means a replay of the snapshot reconstructs
    /// the same per-shard recency order.
    pub fn for_each(&self, mut f: impl FnMut(Digest, &V)) {
        for shard in &self.shards {
            shard.lock().for_each(|key, value| {
                let digest = Digest {
                    hi: (key >> 64) as u64,
                    lo: key as u64,
                };
                f(digest, value);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u64) -> Digest {
        // Spread across shards via lo; unique via hi.
        Digest { hi: i, lo: i }
    }

    #[test]
    fn get_after_insert_hits() {
        let c: ShardedCache<u32> = ShardedCache::new(8, 2);
        assert_eq!(c.get(d(1)), None);
        c.insert(d(1), 10);
        assert_eq!(c.get(d(1)), Some(10));
        let counters = c.counters();
        assert_eq!(
            (counters.hits, counters.misses, counters.insertions),
            (1, 1, 1)
        );
    }

    #[test]
    fn evicts_least_recently_used_per_shard() {
        // One shard, capacity 2: inserting a third key evicts the LRU.
        let c: ShardedCache<u32> = ShardedCache::new(2, 1);
        c.insert(d(1), 1);
        c.insert(d(2), 2);
        assert_eq!(c.get(d(1)), Some(1)); // 2 is now LRU
        c.insert(d(3), 3);
        assert_eq!(c.get(d(2)), None, "LRU entry must be evicted");
        assert_eq!(c.get(d(1)), Some(1));
        assert_eq!(c.get(d(3)), Some(3));
        assert_eq!(c.counters().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let c: ShardedCache<u32> = ShardedCache::new(2, 1);
        c.insert(d(1), 1);
        c.insert(d(2), 2);
        c.insert(d(1), 11); // refresh, no eviction
        assert_eq!(c.counters().evictions, 0);
        c.insert(d(3), 3); // evicts 2, the LRU
        assert_eq!(c.get(d(2)), None);
        assert_eq!(c.get(d(1)), Some(11));
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let c: ShardedCache<u8> = ShardedCache::new(100, 3);
        assert_eq!(c.shards.len(), 4);
        let c: ShardedCache<u8> = ShardedCache::new(100, 0);
        assert_eq!(c.shards.len(), 1);
    }

    #[test]
    fn many_keys_across_shards() {
        let c: ShardedCache<u64> = ShardedCache::new(1024, 8);
        for i in 0..1000 {
            c.insert(d(i), i);
        }
        for i in 0..1000 {
            assert_eq!(c.get(d(i)), Some(i));
        }
        assert_eq!(c.len(), 1000);
    }

    #[test]
    fn byte_gauge_tracks_inserts_refreshes_and_evictions() {
        let c: ShardedCache<u32> = ShardedCache::new(2, 1);
        c.insert_costed(d(1), 1, 100);
        c.insert_costed(d(2), 2, 50);
        assert_eq!(c.bytes(), 150);
        // Refresh replaces the old cost, not adds to it.
        c.insert_costed(d(1), 11, 70);
        assert_eq!(c.bytes(), 120);
        // Eviction (of LRU entry 2) releases its cost.
        c.insert_costed(d(3), 3, 10);
        assert_eq!(c.bytes(), 80);
        assert_eq!(c.counters().bytes, 80);
        // Cost-free insert paths leave the gauge untouched.
        c.insert(d(4), 4);
        assert_eq!(c.bytes(), 80 - 70, "evicting 1 released its 70 bytes");
    }

    #[test]
    fn for_each_visits_live_entries_lru_first() {
        let c: ShardedCache<u64> = ShardedCache::new(2, 1);
        c.insert(d(1), 1);
        c.insert(d(2), 2);
        c.insert(d(3), 3); // evicts 1
        let mut seen = Vec::new();
        c.for_each(|digest, &v| seen.push((digest, v)));
        assert_eq!(seen, vec![(d(2), 2), (d(3), 3)], "LRU first, evictee gone");
        // Iteration must not disturb recency: 2 is still the LRU.
        c.insert(d(4), 4);
        assert_eq!(c.get(d(2)), None);
        assert_eq!(c.get(d(3)), Some(3));
    }

    /// A value whose drop probes the cache from another thread and
    /// reports whether the probe finished within the timeout.
    struct ProbeOnDrop {
        probe: Option<Box<dyn FnOnce() + Send + Sync>>,
    }

    impl Drop for ProbeOnDrop {
        fn drop(&mut self) {
            if let Some(probe) = self.probe.take() {
                probe();
            }
        }
    }

    #[test]
    fn displaced_values_drop_outside_the_shard_lock() {
        use std::sync::{mpsc, Arc};
        use std::time::Duration;
        type Cache = ShardedCache<Arc<ProbeOnDrop>>;
        let cache: Arc<Cache> = Arc::new(ShardedCache::new(1, 1));
        let (done_tx, done_rx) = mpsc::channel::<bool>();
        let probing = |cache: &Arc<Cache>, done: mpsc::Sender<bool>| {
            let cache = Arc::downgrade(cache);
            Arc::new(ProbeOnDrop {
                probe: Some(Box::new(move || {
                    let (tx, rx) = mpsc::channel();
                    std::thread::spawn(move || {
                        if let Some(cache) = cache.upgrade() {
                            drop(cache.get(d(99)));
                        }
                        let _ = tx.send(());
                    });
                    let unblocked = rx.recv_timeout(Duration::from_secs(5)).is_ok();
                    let _ = done.send(unblocked);
                })),
            })
        };
        let quiet = || Arc::new(ProbeOnDrop { probe: None });

        // Eviction: inserting key 2 pushes key 1 out of the one slot.
        cache.insert(d(1), probing(&cache, done_tx.clone()));
        cache.insert(d(2), quiet());
        // Refresh: re-inserting key 2 replaces its value.
        cache.insert(d(2), probing(&cache, done_tx));
        cache.insert(d(2), quiet());
        for what in ["evicted", "refreshed"] {
            let unblocked = done_rx.recv_timeout(Duration::from_secs(10));
            assert_eq!(
                unblocked,
                Ok(true),
                "{what} value dropped under the shard lock"
            );
        }
    }

    #[test]
    fn eviction_pressure_keeps_len_bounded() {
        let c: ShardedCache<u64> = ShardedCache::new(64, 4);
        for i in 0..10_000 {
            c.insert(d(i), i);
        }
        assert!(c.len() <= 64, "len {} exceeds capacity", c.len());
        assert!(c.counters().evictions >= 10_000 - 64);
    }
}
