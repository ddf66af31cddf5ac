//! Cluster telemetry (§VII "Effortless instrumentation").
//!
//! "The median Presto worker node exports ~10,000 real-time performance
//! counters" — here a compact set of the counters the benchmarks need,
//! all cluster-lifetime totals: per-worker busy time (CPU utilization),
//! query lifecycle gauges, per-phase latency histograms, error counters by
//! code, cache counters, and dynamic-filter, fusion, spill and shuffle
//! totals.
//! Nothing here is kept per query; each query's own record lives in
//! [`crate::history::QueryHistory`].

use parking_lot::Mutex;
use presto_cache::{CacheCounters, CacheStats};
use presto_common::{counter_set, LatencyHistogram, LatencySummary};
pub use presto_connector::DynamicFilterMetrics;
use presto_connector::DynamicFilterTotals;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::{ShuffleMetrics, ShuffleTotals};

/// Shared counters, cheap to clone.
#[derive(Clone)]
pub struct ClusterTelemetry {
    started_at: Instant,
    inner: Arc<Inner>,
}

/// Everything starts at zero, so a new counter set is one field here.
#[derive(Default)]
struct Inner {
    /// Busy nanoseconds per worker.
    worker_busy_nanos: Vec<AtomicU64>,
    gauges: QueryGaugeCells,
    /// Errors by code tag.
    errors: Mutex<HashMap<&'static str, u64>>,
    /// Cache-layer counters registered at cluster start: each entry is a
    /// named layer ("porc_footer", "metastore_stats", …) exporting its
    /// live [`CacheStats`] handle.
    caches: Mutex<Vec<(&'static str, Arc<CacheStats>)>>,
    /// Dynamic-filtering totals, rolled in per query after it finishes.
    dynamic_filters: DynamicFilterTotals,
    /// Pipeline-fusion totals, rolled in per query after it finishes.
    fusion: FusionTotals,
    /// Spill totals (§IV-F2), rolled in per spilling query after it
    /// finishes, and the config echo, noted per spill-enabled query.
    spill: Mutex<SpillMetrics>,
    /// What ended queries' exchange clients received, rolled in per query.
    shuffle: ShuffleTotals,
    /// Per-phase wall-time histograms across all finished queries (§VI
    /// latency tables): queue wait, planning, and execution.
    queued_hist: LatencyHistogram,
    planning_hist: LatencyHistogram,
    execution_hist: LatencyHistogram,
}

counter_set! {
    /// Query lifecycle gauges. Invariant (asserted by the telemetry stress
    /// test): `queued + running + finished + failed == submitted`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct QueryGauges[json, atomic(QueryGaugeCells)] {
        /// Every query ever submitted.
        submitted: u64,
        queued: u64,
        running: u64,
        finished: u64,
        failed: u64,
    }

    /// Percentile summaries of the per-phase latency histograms, exported in
    /// [`crate::metrics::ClusterSnapshot`] and `system.runtime` views.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct QueryLatencyMetrics[json] {
        queued: LatencySummary,
        planning: LatencySummary,
        execution: LatencySummary,
    }

    /// Cluster-lifetime pipeline-fusion counters: how much data flowed
    /// through fused scan→filter→project[→partial-agg] loops, across all
    /// queries. Row counts are per fused stage, so the scan→filter→project
    /// cascade shows the selectivity the fused loop exploited.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FusionMetrics[json, atomic(FusionTotals)] {
        /// Fused pipeline instances (one per task-pipeline that ran fused).
        pipelines: u64,
        /// Rows read from splits by fused scan stages.
        scan_rows: u64,
        /// Rows surviving fused filter stages.
        filter_rows: u64,
        /// Rows emitted by fused projection stages.
        project_rows: u64,
        /// Rows fed into fused partial-aggregation stages.
        agg_rows: u64,
        /// Rows produced downstream by fused pipelines.
        rows_produced: u64,
    }

    /// Cluster-lifetime spill counters (§IV-F2): how much revocable state
    /// (grace-join builds, aggregation hash tables, sort runs) was written
    /// to disk under memory pressure, across all queries, plus the effective
    /// spill configuration — the `spill_dir`/`spill_max_bytes` session knobs
    /// of the most recent spill-enabled query (empty/zero until one runs).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct SpillMetrics[json] {
        /// Queries that spilled at least once.
        queries_spilled: u64,
        /// Bytes written to spill run files.
        spilled_bytes: u64,
        /// Individual spill episodes (revocations and overflow flushes).
        spill_events: u64,
        /// Directory run files were written to ("" until a spill-enabled
        /// query ran; the OS temp dir when the session left it unset).
        spill_dir: String,
        /// Per-task disk budget in bytes (0 = unlimited).
        spill_max_bytes: u64,
    }
}

impl ClusterTelemetry {
    pub fn new(workers: usize) -> ClusterTelemetry {
        ClusterTelemetry {
            started_at: Instant::now(),
            inner: Arc::new(Inner {
                worker_busy_nanos: (0..workers).map(|_| AtomicU64::new(0)).collect(),
                ..Inner::default()
            }),
        }
    }

    pub fn record_worker_busy(&self, worker: usize, elapsed: Duration) {
        self.inner.worker_busy_nanos[worker]
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Total busy time per worker since startup.
    pub fn worker_busy(&self) -> Vec<Duration> {
        self.inner
            .worker_busy_nanos
            .iter()
            .map(|n| Duration::from_nanos(n.load(Ordering::Relaxed)))
            .collect()
    }

    pub fn uptime(&self) -> Duration {
        self.started_at.elapsed()
    }

    /// Record an admitted query's explicit per-phase wall times (queue
    /// wait, planning, execution — the latter two summed across retry
    /// attempts) into the cluster latency histograms.
    pub fn record_query_phases(&self, queued: Duration, planning: Duration, executing: Duration) {
        self.inner.queued_hist.record(queued.as_nanos() as u64);
        self.inner.planning_hist.record(planning.as_nanos() as u64);
        self.inner
            .execution_hist
            .record(executing.as_nanos() as u64);
    }

    /// Percentile summaries of the per-phase latency histograms.
    pub fn latency_metrics(&self) -> QueryLatencyMetrics {
        QueryLatencyMetrics {
            queued: self.inner.queued_hist.summary(),
            planning: self.inner.planning_hist.summary(),
            execution: self.inner.execution_hist.summary(),
        }
    }

    pub fn query_queued(&self) {
        self.inner.gauges.submitted.fetch_add(1, Ordering::SeqCst);
        self.inner.gauges.queued.fetch_add(1, Ordering::SeqCst);
    }

    pub fn query_started(&self) {
        self.inner.gauges.queued.fetch_sub(1, Ordering::SeqCst);
        self.inner.gauges.running.fetch_add(1, Ordering::SeqCst);
    }

    /// Settle an ended query's gauges. A query that fails while still
    /// queued (parse error, admission rejection) never incremented the
    /// running gauge, and decrementing it anyway would wrap the counter, so
    /// the caller says which gauge the query is in.
    pub fn query_finished(&self, started: bool, failed: bool) {
        let g = &self.inner.gauges;
        let left = if started { &g.running } else { &g.queued };
        left.fetch_sub(1, Ordering::SeqCst);
        let entered = if failed { &g.failed } else { &g.finished };
        entered.fetch_add(1, Ordering::SeqCst);
    }

    pub fn record_error(&self, tag: &'static str) {
        *self.inner.errors.lock().entry(tag).or_insert(0) += 1;
    }

    /// The query lifecycle gauges, each read on its own.
    pub fn query_gauges(&self) -> QueryGauges {
        self.inner.gauges.snapshot()
    }

    pub fn submitted_queries(&self) -> u64 {
        self.inner.gauges.submitted.load(Ordering::SeqCst)
    }

    pub fn running_queries(&self) -> u64 {
        self.inner.gauges.running.load(Ordering::SeqCst)
    }

    pub fn queued_queries(&self) -> u64 {
        self.inner.gauges.queued.load(Ordering::SeqCst)
    }

    pub fn finished_queries(&self) -> u64 {
        self.inner.gauges.finished.load(Ordering::SeqCst)
    }

    pub fn failed_queries(&self) -> u64 {
        self.inner.gauges.failed.load(Ordering::SeqCst)
    }

    pub fn errors(&self) -> HashMap<&'static str, u64> {
        self.inner.errors.lock().clone()
    }

    /// Accumulate one query's dynamic-filtering totals into the
    /// cluster-lifetime counters.
    pub fn record_dynamic_filters(&self, totals: DynamicFilterMetrics) {
        self.inner.dynamic_filters.add(&totals);
    }

    pub fn dynamic_filter_metrics(&self) -> DynamicFilterMetrics {
        self.inner.dynamic_filters.snapshot()
    }

    /// Accumulate one query's pipeline-fusion totals into the
    /// cluster-lifetime counters.
    pub fn record_fusion(&self, totals: FusionMetrics) {
        self.inner.fusion.add(&totals);
    }

    pub fn fusion_metrics(&self) -> FusionMetrics {
        self.inner.fusion.snapshot()
    }

    /// Note the effective spill configuration of a spill-enabled query
    /// (called at admission, so the snapshot reflects it while the query
    /// is still running).
    pub fn record_spill_config(&self, dir: String, max_bytes: u64) {
        let mut spill = self.inner.spill.lock();
        spill.spill_dir = dir;
        spill.spill_max_bytes = max_bytes;
    }

    /// Accumulate one query's spill totals into the cluster-lifetime
    /// counters.
    pub fn record_spill(&self, spilled_bytes: u64, spill_events: u64) {
        let mut spill = self.inner.spill.lock();
        spill.queries_spilled += 1;
        spill.spilled_bytes += spilled_bytes;
        spill.spill_events += spill_events;
    }

    /// Accumulate what one ended query's exchange clients received into
    /// the cluster-lifetime counters.
    pub fn record_shuffle(&self, received: ShuffleMetrics) {
        self.inner.shuffle.add(&received);
    }

    /// Cluster-lifetime shuffle totals of ended queries (the buffered and
    /// in-flight gauges read zero).
    pub fn shuffle_metrics(&self) -> ShuffleMetrics {
        self.inner.shuffle.snapshot()
    }

    pub fn spill_metrics(&self) -> SpillMetrics {
        self.inner.spill.lock().clone()
    }

    /// Export a cache layer's live counters under `name`.
    pub fn register_cache(&self, name: &'static str, stats: Arc<CacheStats>) {
        self.inner.caches.lock().push((name, stats));
    }

    /// Merged counters across every registered cache layer.
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache_counters_by_layer()
            .iter()
            .fold(CacheCounters::default(), |total, (_, c)| total.merge(c))
    }

    /// Counter snapshot per registered cache layer.
    pub fn cache_counters_by_layer(&self) -> Vec<(&'static str, CacheCounters)> {
        self.inner
            .caches
            .lock()
            .iter()
            .map(|(name, stats)| (*name, stats.counters()))
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn query_lifecycle() {
        let t = ClusterTelemetry::new(2);
        t.query_queued();
        assert_eq!(t.queued_queries(), 1);
        t.query_started();
        assert_eq!((t.queued_queries(), t.running_queries()), (0, 1));
        t.query_finished(true, false);
        assert_eq!((t.running_queries(), t.finished_queries()), (0, 1));
        assert_eq!(t.failed_queries(), 0);
    }

    #[test]
    fn busy_time_accumulates_per_worker() {
        let t = ClusterTelemetry::new(2);
        t.record_worker_busy(0, Duration::from_millis(10));
        t.record_worker_busy(0, Duration::from_millis(5));
        t.record_worker_busy(1, Duration::from_millis(1));
        let busy = t.worker_busy();
        assert_eq!(busy[0], Duration::from_millis(15));
        assert_eq!(busy[1], Duration::from_millis(1));
    }

    #[test]
    fn fusion_totals_accumulate() {
        let t = ClusterTelemetry::new(1);
        let per_query = FusionMetrics {
            pipelines: 2,
            scan_rows: 1000,
            filter_rows: 100,
            project_rows: 100,
            agg_rows: 100,
            rows_produced: 7,
        };
        t.record_fusion(per_query);
        t.record_fusion(per_query);
        let got = t.fusion_metrics();
        assert_eq!(got.pipelines, 4);
        assert_eq!(got.scan_rows, 2000);
        assert_eq!(got.rows_produced, 14);
    }

    #[test]
    fn spill_totals_accumulate_and_config_echoes() {
        let t = ClusterTelemetry::new(1);
        assert_eq!(t.spill_metrics(), SpillMetrics::default());
        t.record_spill_config("/tmp/presto-spill".to_string(), 1 << 30);
        t.record_spill(4096, 2);
        t.record_spill(1024, 1);
        let got = t.spill_metrics();
        assert_eq!(got.queries_spilled, 2);
        assert_eq!(got.spilled_bytes, 5120);
        assert_eq!(got.spill_events, 3);
        assert_eq!(got.spill_dir, "/tmp/presto-spill");
        assert_eq!(got.spill_max_bytes, 1 << 30);
    }

    #[test]
    fn phases_recorded_into_histograms() {
        let t = ClusterTelemetry::new(1);
        for i in 1..=10u64 {
            t.record_query_phases(
                Duration::from_micros(i * 10),
                Duration::from_micros(i * 100),
                Duration::from_millis(i),
            );
        }
        let lat = t.latency_metrics();
        assert_eq!(lat.queued.count, 10);
        assert_eq!(lat.execution.max_nanos, 10_000_000);
        assert!(lat.execution.p50_nanos >= 4_000_000);
        assert!(lat.planning.p99_nanos <= lat.planning.max_nanos);
    }

    #[test]
    fn errors_tallied_by_tag() {
        let t = ClusterTelemetry::new(1);
        t.record_error("EXTERNAL_TRANSIENT");
        t.record_error("EXTERNAL_TRANSIENT");
        assert_eq!(t.errors()["EXTERNAL_TRANSIENT"], 2);
    }

    /// Regression: a query that fails while still queued (parse error,
    /// admission rejection) must settle the *queued* gauge. Decrementing
    /// the running gauge — which it never incremented — wrapped it to
    /// u64::MAX.
    #[test]
    fn failure_while_queued_settles_queued_gauge() {
        let t = ClusterTelemetry::new(1);
        t.query_queued();
        t.query_finished(false, true);
        assert_eq!(t.queued_queries(), 0);
        assert_eq!(t.running_queries(), 0, "running gauge must not underflow");
        assert_eq!(t.failed_queries(), 1);
    }

    /// The gauge invariant under concurrent lifecycle churn:
    /// queued + running + finished + failed == submitted, both while
    /// threads are racing and after they join.
    #[test]
    fn concurrent_lifecycle_preserves_gauge_invariant() {
        let t = ClusterTelemetry::new(1);
        let threads = 8u64;
        let per_thread = 200u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        t.query_queued();
                        match i % 3 {
                            // Finishes normally.
                            0 => {
                                t.query_started();
                                t.query_finished(true, false);
                            }
                            // Fails mid-run.
                            1 => {
                                t.query_started();
                                t.query_finished(true, true);
                                t.record_error("EXCEEDED_MEMORY_LIMIT");
                            }
                            // Fails while still queued.
                            _ => {
                                t.query_finished(false, true);
                                t.record_error("SYNTAX_ERROR");
                            }
                        }
                    }
                });
            }
            // Sample the invariant while the writers are racing. Gauges are
            // separate atomics, so read a consistent-enough view by checking
            // the sum never exceeds submissions and never underflows into
            // u64::MAX territory.
            for _ in 0..50 {
                let (queued, running) = (t.queued_queries(), t.running_queries());
                assert!(queued < u64::MAX / 2, "queued gauge underflowed");
                assert!(running < u64::MAX / 2, "running gauge underflowed");
                std::thread::yield_now();
            }
        });
        let total = threads * per_thread;
        assert_eq!(t.submitted_queries(), total);
        assert_eq!(t.queued_queries(), 0);
        assert_eq!(t.running_queries(), 0);
        assert_eq!(
            t.queued_queries() + t.running_queries() + t.finished_queries() + t.failed_queries(),
            total
        );
        // 1-in-3 finish clean, 2-in-3 fail (mid-run or queued).
        let clean = threads * per_thread.div_ceil(3);
        assert_eq!(t.finished_queries(), clean);
        assert_eq!(t.failed_queries(), total - clean);
    }
}
