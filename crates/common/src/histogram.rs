//! Log-bucketed latency histograms (§VII, and the latency tables of §VI).
//!
//! An HDR-style histogram with no dependencies: values (nanoseconds) land
//! in log-linear buckets — each power-of-two octave is split into 16
//! linear sub-buckets — so quantile estimates carry at most ~6.25%
//! relative error while the whole structure is a fixed ~8KB of atomic
//! counters. Recording is one atomic increment (plus a max update), so
//! histograms can sit on the query hot path; merging is element-wise
//! addition, so per-class histograms roll up into cluster totals.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: 2^4 = 16 linear buckets per octave.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the linear range cover the full u64 domain.
const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB;

/// Bucket index for a value: exact below 16, log-linear above.
fn bucket_index(v: u64) -> usize {
    let msb = 63 - (v | 1).leading_zeros();
    if msb < SUB_BITS {
        v as usize
    } else {
        let octave = (msb - SUB_BITS) as usize;
        let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        (octave + 1) * SUB + sub
    }
}

/// Smallest value mapping to `index` (the bucket's lower bound).
fn bucket_floor(index: usize) -> u64 {
    if index < SUB {
        index as u64
    } else {
        let octave = (index / SUB - 1) as u32;
        let sub = (index % SUB) as u64;
        (1u64 << (octave + SUB_BITS)) | (sub << octave)
    }
}

crate::counter_set! {
    /// Derived percentiles of one histogram, cheap to copy and serialize.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LatencySummary[json] {
        count: u64,
        p50_nanos: u64,
        p95_nanos: u64,
        p99_nanos: u64,
        max_nanos: u64,
    }
}

/// A mergeable, constant-memory, lock-free latency histogram.
pub struct LatencyHistogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation (nanoseconds).
    pub fn record(&self, nanos: u64) {
        self.counts[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (mean = sum / count).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The value at quantile `q` in [0, 1]: the lower bound of the bucket
    /// holding the q-th observation, clamped to the recorded max (so
    /// `quantile(1.0)` is exact). Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        if rank >= total {
            // The top-ranked observation is the max itself; returning the
            // bucket floor here would understate it by up to one bucket.
            return self.max();
        }
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_floor(i).min(self.max());
            }
        }
        self.max()
    }

    /// Fold another histogram's observations into this one.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter().zip(other.counts.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// count / p50 / p95 / p99 / max in one pass-ish snapshot.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count(),
            p50_nanos: self.quantile(0.50),
            p95_nanos: self.quantile(0.95),
            p99_nanos: self.quantile(0.99),
            max_nanos: self.max(),
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.summary();
        f.debug_struct("LatencyHistogram")
            .field("count", &s.count)
            .field("p50_nanos", &s.p50_nanos)
            .field("p95_nanos", &s.p95_nanos)
            .field("p99_nanos", &s.p99_nanos)
            .field("max_nanos", &s.max_nanos)
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = LatencyHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.max(), 15);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
    }

    #[test]
    fn bucket_floor_inverts_bucket_index() {
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            100,
            1_000,
            123_456,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            let floor = bucket_floor(i);
            assert!(floor <= v, "floor({i}) = {floor} > {v}");
            // The next bucket starts above v.
            if i + 1 < BUCKETS {
                assert!(bucket_floor(i + 1) > v, "v {v} not inside bucket {i}");
            }
        }
        // Indices are monotone in value.
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_within_bucket_error() {
        let h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1_000); // 1µs .. 10ms
        }
        let p50 = h.quantile(0.5) as f64;
        let p99 = h.quantile(0.99) as f64;
        // Log-linear bucketing: ≤ 1/16 relative error, from below.
        assert!((4_400_000.0..=5_000_000.0).contains(&p50), "p50 {p50}");
        assert!((9_200_000.0..=9_900_000.0).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(1.0), 10_000_000);
    }

    #[test]
    fn merge_combines_distributions() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for v in 0..100u64 {
            a.record(v);
            b.record(v + 1_000_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.max(), 1_000_099);
        assert!(a.quantile(0.25) < 100);
        assert!(a.quantile(0.75) >= 1_000_000 * 15 / 16);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = LatencyHistogram::new().summary();
        assert_eq!(s, LatencySummary::default());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 80_000);
        assert_eq!(h.max(), 7 * 1_000 + 9_999);
    }
}
