//! Hit/miss/eviction/insert counters, shared by every cache layer.

use presto_common::counter_set;
use std::sync::atomic::Ordering;

counter_set! {
    /// A point-in-time copy of a cache's counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheCounters[json, columns, atomic(CacheCells)] {
        hits: u64,
        misses: u64,
        /// Capacity evictions (LRU) plus TTL expirations.
        evictions: u64,
        inserts: u64,
        invalidations: u64,
        /// Weighted bytes currently retained.
        bytes: u64,
    }
}

impl CacheCounters {
    /// Hit fraction in [0, 1]; 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Live counters for one cache. Cheap to share (`Arc`), lock-free to
/// update; telemetry snapshots them via [`CacheStats::counters`].
#[derive(Debug, Default)]
pub struct CacheStats(CacheCells);

impl CacheStats {
    pub fn record_hit(&self) {
        self.0.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_miss(&self) {
        self.0.misses.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_eviction(&self) {
        self.0.evictions.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_expiration(&self) {
        self.record_eviction();
    }

    pub fn record_insert(&self) {
        self.0.inserts.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_invalidation(&self) {
        self.0.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Deltas land outside the shard lock, so a removal can be counted
    /// before the insertion it undoes: the cell holds a two's-complement
    /// balance and reads clamp it at zero.
    pub fn add_bytes(&self, delta: i64) {
        self.0.bytes.fetch_add(delta as u64, Ordering::Relaxed);
    }

    pub fn counters(&self) -> CacheCounters {
        let mut counters = self.0.snapshot();
        counters.bytes = (counters.bytes as i64).max(0) as u64;
        counters
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot_and_merge() {
        let s = CacheStats::default();
        s.record_hit();
        s.record_hit();
        s.record_miss();
        s.record_insert();
        s.record_eviction();
        s.record_expiration();
        s.add_bytes(100);
        s.add_bytes(-40);
        let c = s.counters();
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 1);
        assert_eq!(c.evictions, 2, "evictions fold in TTL expirations");
        assert_eq!(c.bytes, 60);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        let merged = c.merge(&c);
        assert_eq!(merged.hits, 4);
        assert_eq!(merged.bytes, 120);
    }
}
