//! The generic building block: an N-way sharded, weighted, TTL'd LRU
//! cache behind `parking_lot` mutexes.
//!
//! Concurrency model: keys hash to one of N shards; each shard is an
//! independent `Mutex<Shard>` so readers of different keys rarely
//! contend. Within a shard, recency is tracked by a monotonically
//! increasing tick: the entry map stores each key's current tick and a
//! `BTreeMap<tick, key>` orders keys oldest-first, giving O(log n) touch
//! and strict-LRU eviction.

use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::charge::{MemoryCharger, NoopCharger};
use crate::stats::{CacheCounters, CacheStats};

/// Shape and limits of one cache.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Number of independently locked shards.
    pub shards: usize,
    /// Total weighted capacity in bytes, split evenly across shards.
    pub capacity_bytes: u64,
    /// Entries older than this are expired on access; `None` = no TTL.
    pub ttl: Option<Duration>,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            shards: 8,
            capacity_bytes: 64 << 20,
            ttl: None,
        }
    }
}

impl CacheConfig {
    pub fn with_capacity(capacity_bytes: u64) -> CacheConfig {
        CacheConfig {
            capacity_bytes,
            ..CacheConfig::default()
        }
    }
}

struct Entry<V> {
    value: V,
    weight: u64,
    /// Key into the shard's LRU order map.
    tick: u64,
    expires_at: Option<Instant>,
}

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    /// tick → key, oldest first. Ticks are unique within a shard.
    lru: BTreeMap<u64, K>,
    next_tick: u64,
    bytes: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Shard<K, V> {
        Shard {
            map: HashMap::new(),
            lru: BTreeMap::new(),
            next_tick: 0,
            bytes: 0,
        }
    }
}

/// A sharded concurrent cache with per-entry byte weights, capacity + TTL
/// eviction, explicit invalidation, and hit/miss/eviction counters.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    shard_capacity: u64,
    ttl: Option<Duration>,
    stats: Arc<CacheStats>,
    charger: RwLock<Arc<dyn MemoryCharger>>,
}

impl<K, V> ShardedCache<K, V>
where
    K: Hash + Eq + Clone,
    V: Clone,
{
    pub fn new(config: CacheConfig) -> ShardedCache<K, V> {
        let shards = config.shards.max(1);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: config.capacity_bytes / shards as u64,
            ttl: config.ttl,
            stats: Arc::new(CacheStats::default()),
            charger: RwLock::new(Arc::new(NoopCharger)),
        }
    }

    /// Install the memory-accounting hook; the current retained bytes are
    /// charged immediately so the pool sees pre-existing entries.
    pub fn set_charger(&self, charger: Arc<dyn MemoryCharger>) {
        let bytes = self.total_bytes() as i64;
        let previous = {
            let mut slot = self.charger.write();
            std::mem::replace(&mut *slot, charger)
        };
        // Transfer the accounted balance from the old charger to the new.
        previous.charge(-bytes);
        self.charger.read().charge(bytes);
    }

    fn shard_for(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    fn charge(&self, delta: i64) {
        if delta != 0 {
            self.stats.add_bytes(delta);
            self.charger.read().charge(delta);
        }
    }

    /// Look up `key`, refreshing its recency. Expired entries are removed
    /// and count as misses.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut freed: i64 = 0;
        let result = {
            let mut shard = self.shard_for(key).lock();
            match shard.map.get(key) {
                None => None,
                Some(entry) if entry.expires_at.is_some_and(|at| Instant::now() >= at) => {
                    let tick = entry.tick;
                    let weight = entry.weight;
                    shard.lru.remove(&tick);
                    shard.map.remove(key);
                    shard.bytes -= weight;
                    freed = weight as i64;
                    self.stats.record_expiration();
                    None
                }
                Some(_) => {
                    // Touch: move to the newest tick.
                    let new_tick = shard.next_tick;
                    shard.next_tick += 1;
                    let entry = shard.map.get_mut(key).expect("entry present");
                    let old_tick = entry.tick;
                    entry.tick = new_tick;
                    let value = entry.value.clone();
                    shard.lru.remove(&old_tick);
                    shard.lru.insert(new_tick, key.clone());
                    Some(value)
                }
            }
        };
        self.charge(-freed);
        match &result {
            Some(_) => self.stats.record_hit(),
            None => self.stats.record_miss(),
        }
        result
    }

    /// Insert `key` with a given byte weight, evicting LRU entries until it
    /// fits. Entries heavier than a whole shard's capacity are not cached.
    pub fn insert(&self, key: K, value: V, weight: u64) {
        if weight > self.shard_capacity {
            // Would evict the entire shard and still violate capacity.
            return;
        }
        let mut delta: i64 = 0;
        let mut evicted = 0u64;
        {
            let mut shard = self.shard_for(&key).lock();
            // Replace an existing entry in place.
            if let Some(old) = shard.map.remove(&key) {
                shard.lru.remove(&old.tick);
                shard.bytes -= old.weight;
                delta -= old.weight as i64;
            }
            // Evict oldest-first until the new entry fits.
            while shard.bytes + weight > self.shard_capacity {
                let Some((&oldest_tick, _)) = shard.lru.iter().next() else {
                    break;
                };
                let victim = shard
                    .lru
                    .remove(&oldest_tick)
                    .expect("lru tick just observed");
                if let Some(old) = shard.map.remove(&victim) {
                    shard.bytes -= old.weight;
                    delta -= old.weight as i64;
                    evicted += 1;
                }
            }
            let tick = shard.next_tick;
            shard.next_tick += 1;
            let expires_at = self.ttl.map(|ttl| Instant::now() + ttl);
            shard.lru.insert(tick, key.clone());
            shard.map.insert(
                key,
                Entry {
                    value,
                    weight,
                    tick,
                    expires_at,
                },
            );
            shard.bytes += weight;
            delta += weight as i64;
        }
        for _ in 0..evicted {
            self.stats.record_eviction();
        }
        self.stats.record_insert();
        self.charge(delta);
    }

    /// Remove one entry; returns whether it was present.
    pub fn invalidate(&self, key: &K) -> bool {
        let mut freed: i64 = 0;
        let removed = {
            let mut shard = self.shard_for(key).lock();
            match shard.map.remove(key) {
                Some(old) => {
                    shard.lru.remove(&old.tick);
                    shard.bytes -= old.weight;
                    freed = old.weight as i64;
                    true
                }
                None => false,
            }
        };
        if removed {
            self.stats.record_invalidation();
            self.charge(-freed);
        }
        removed
    }

    /// Remove every entry whose key matches `pred`; returns how many were
    /// dropped. Used for prefix invalidation (all footers under a table's
    /// directory, all listings of one table).
    pub fn invalidate_if(&self, pred: impl Fn(&K) -> bool) -> usize {
        let mut removed = 0usize;
        for locked in &self.shards {
            let mut freed: i64 = 0;
            {
                let mut shard = locked.lock();
                let victims: Vec<K> = shard.map.keys().filter(|k| pred(k)).cloned().collect();
                for key in victims {
                    if let Some(old) = shard.map.remove(&key) {
                        shard.lru.remove(&old.tick);
                        shard.bytes -= old.weight;
                        freed += old.weight as i64;
                        removed += 1;
                    }
                }
            }
            self.charge(-freed);
        }
        for _ in 0..removed {
            self.stats.record_invalidation();
        }
        removed
    }

    /// Drop everything.
    pub fn clear(&self) {
        self.invalidate_if(|_| true);
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current weighted bytes across all shards.
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Total capacity actually enforced (capacity rounds down per shard).
    pub fn capacity_bytes(&self) -> u64 {
        self.shard_capacity * self.shards.len() as u64
    }

    pub fn stats(&self) -> Arc<CacheStats> {
        Arc::clone(&self.stats)
    }

    pub fn counters(&self) -> CacheCounters {
        self.stats.counters()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn one_shard(capacity: u64) -> ShardedCache<u64, String> {
        ShardedCache::new(CacheConfig {
            shards: 1,
            capacity_bytes: capacity,
            ttl: None,
        })
    }

    #[test]
    fn hit_miss_and_counters() {
        let c = one_shard(1000);
        assert_eq!(c.get(&1), None);
        c.insert(1, "a".into(), 10);
        assert_eq!(c.get(&1).as_deref(), Some("a"));
        let counters = c.counters();
        assert_eq!(
            (counters.hits, counters.misses, counters.inserts),
            (1, 1, 1)
        );
        assert_eq!(counters.bytes, 10);
    }

    #[test]
    fn lru_eviction_order_is_strict() {
        let c = one_shard(30);
        c.insert(1, "a".into(), 10);
        c.insert(2, "b".into(), 10);
        c.insert(3, "c".into(), 10);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(&1).is_some());
        c.insert(4, "d".into(), 10);
        assert!(c.get(&2).is_none(), "least-recently-used entry evicted");
        assert!(c.get(&1).is_some());
        assert!(c.get(&3).is_some());
        assert!(c.get(&4).is_some());
        assert_eq!(c.counters().evictions, 1);
    }

    #[test]
    fn weighted_capacity_never_exceeded() {
        let c = one_shard(100);
        for i in 0..50 {
            c.insert(i, "x".repeat(i as usize % 30), 7 + i % 23);
            assert!(c.total_bytes() <= 100);
        }
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let c = one_shard(100);
        c.insert(1, "big".into(), 101);
        assert!(c.get(&1).is_none());
        assert_eq!(c.total_bytes(), 0);
    }

    #[test]
    fn replacement_reclaims_old_weight() {
        let c = one_shard(100);
        c.insert(1, "a".into(), 60);
        c.insert(1, "b".into(), 50);
        assert_eq!(c.total_bytes(), 50);
        assert_eq!(c.get(&1).as_deref(), Some("b"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn ttl_expires_entries() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(CacheConfig {
            shards: 2,
            capacity_bytes: 1000,
            ttl: Some(Duration::from_millis(20)),
        });
        c.insert(1, 11, 8);
        assert_eq!(c.get(&1), Some(11));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(c.get(&1), None, "expired on access");
        assert_eq!(c.total_bytes(), 0);
        assert!(c.counters().evictions >= 1, "expiry counts as eviction");
    }

    #[test]
    fn invalidate_and_prefix_invalidate() {
        let c: ShardedCache<(String, u64), u64> =
            ShardedCache::new(CacheConfig::with_capacity(10_000));
        for i in 0..10 {
            c.insert(("t1".into(), i), i, 10);
            c.insert(("t2".into(), i), i, 10);
        }
        assert!(c.invalidate(&("t1".into(), 3)));
        assert!(!c.invalidate(&("t1".into(), 3)));
        assert_eq!(c.invalidate_if(|k| k.0 == "t1"), 9);
        assert_eq!(c.len(), 10);
        assert_eq!(c.total_bytes(), 100);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.total_bytes(), 0);
    }

    #[test]
    fn charger_sees_every_delta() {
        use std::sync::atomic::{AtomicI64, Ordering};
        struct Ledger(AtomicI64);
        impl MemoryCharger for Ledger {
            fn charge(&self, delta: i64) {
                self.0.fetch_add(delta, Ordering::Relaxed);
            }
        }
        let c = one_shard(100);
        c.insert(1, "pre-existing".into(), 30);
        let ledger = Arc::new(Ledger(AtomicI64::new(0)));
        c.set_charger(ledger.clone());
        assert_eq!(
            ledger.0.load(Ordering::Relaxed),
            30,
            "installation charges retained bytes"
        );
        c.insert(2, "b".into(), 50);
        assert_eq!(ledger.0.load(Ordering::Relaxed), 80);
        c.insert(3, "c".into(), 40); // evicts 1 (30) to fit
        assert_eq!(ledger.0.load(Ordering::Relaxed), 90);
        c.clear();
        assert_eq!(ledger.0.load(Ordering::Relaxed), 0);
        assert_eq!(c.counters().bytes, 0);
    }
}
