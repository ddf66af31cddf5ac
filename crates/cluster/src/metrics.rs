//! Runtime metrics export (§VII "Effortless instrumentation").
//!
//! "The median Presto worker node exports ~10,000 real-time performance
//! counters" — [`ClusterSnapshot`] gathers the cluster's live runtime
//! state into one serializable value, queryable mid-flight: per-worker
//! MLFQ occupancy and demotions, memory-pool usage and peaks, shuffle
//! gauges, cache counters, and the query lifecycle gauges. The structs
//! here are declared once through [`counter_set!`], which derives their
//! JSON shape ([`CacheLayerMetrics`], a label beside the cache crate's own
//! set, is the one written by hand); serialization round-trips through
//! [`presto_common::json`] so snapshots can be shipped, diffed, and
//! re-parsed without third-party crates.

use presto_cache::CacheCounters;
use presto_common::counters::{self, JsonCodec};
use presto_common::json::Json;
use presto_common::{counter_set, Result, TraceBuffer};
use presto_shuffle::ExchangeClient;
use std::sync::Arc;

use crate::memory::PoolSnapshot;
use crate::mlfq::SchedulerSnapshot;
pub use crate::telemetry::QueryGauges;
use crate::telemetry::{
    ClusterTelemetry, DynamicFilterMetrics, FusionMetrics, QueryLatencyMetrics, SpillMetrics,
};
use crate::worker::{WakeupSnapshot, Worker};

counter_set! {
    /// One worker's runtime state.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WorkerMetrics[json] {
        node: u32,
        /// Lifecycle state: "active", "draining", "lost", or "shutdown"
        /// (§IV-G).
        state: String,
        /// Executor busy time since startup, in nanoseconds.
        busy_nanos: u64,
        /// Drivers executing a quantum right now.
        running_drivers: u64,
        /// Drivers parked on a blocked condition.
        blocked_drivers: u64,
        /// Drivers waiting in the scheduling queue.
        queued_drivers: u64,
        scheduler: SchedulerSnapshot,
        /// How blocked drivers waited: parked on events, re-polled on a timer,
        /// and — zero unless there is a bug — lost wakeups.
        wakeups: WakeupSnapshot,
        memory: PoolSnapshot,
    }

    /// Shuffle data plane: buffered bytes and in-flight requests are gauges
    /// over tasks still running; retries, bytes received and local pages
    /// are totals since startup. Framed (cross-worker) traffic and local
    /// hand-overs are counted apart.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ShuffleMetrics[json, atomic(ShuffleTotals)] {
        /// Bytes parked in live tasks' output buffers right now.
        output_buffered_bytes: u64,
        /// Bytes parked in live exchange-client input buffers right now.
        exchange_buffered_bytes: u64,
        /// Exchange requests currently in flight.
        in_flight_requests: u64,
        /// Transient decode failures retried by exchange clients.
        retries: u64,
        /// Framed (possibly compressed) bytes pulled from upstream tasks on
        /// other workers.
        wire_bytes_received: u64,
        /// Uncompressed logical bytes of the same pages.
        logical_bytes_received: u64,
        /// Pages handed over unserialized by upstream tasks on the
        /// consumer's own worker.
        local_pages: u64,
        /// In-memory bytes of those pages.
        local_bytes: u64,
    }

    /// A point-in-time view of the whole cluster's runtime counters.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ClusterSnapshot[json] {
        uptime_nanos: u64,
        workers: Vec<WorkerMetrics>,
        shuffle: ShuffleMetrics,
        queries: QueryGauges,
        /// Dynamic-filtering savings accumulated across finished queries.
        dynamic_filters: DynamicFilterMetrics,
        /// Pipeline-fusion totals accumulated across finished queries.
        fusion: FusionMetrics,
        /// Spill totals accumulated across finished queries, plus the
        /// effective `spill_dir`/`spill_max_bytes` knobs (§IV-F2).
        spill: SpillMetrics,
        caches: Vec<CacheLayerMetrics>,
        /// p50/p95/p99 of queue/planning/execution wall time across finished
        /// queries, from the log-bucketed latency histograms (§VII).
        latency: QueryLatencyMetrics,
        /// Events recorded into the trace timeline so far (0 when disabled).
        trace_events: u64,
        /// Events lost to ring overwrites so far — nonzero means the timeline
        /// is no longer complete from the start (silent loss made visible).
        trace_overwritten: u64,
    }
}

impl ShuffleMetrics {
    /// Add what `client` has received so far.
    pub(crate) fn add_received(&mut self, client: &ExchangeClient) {
        let received = client.received();
        self.retries += received.retries;
        self.wire_bytes_received += received.wire_bytes;
        self.logical_bytes_received += received.logical_bytes;
        self.local_pages += received.local_pages;
        self.local_bytes += received.local_bytes;
    }

    /// Logical/wire expansion of exchanged data (1.0 when nothing moved
    /// or nothing compressed).
    pub fn compression_ratio(&self) -> f64 {
        if self.wire_bytes_received == 0 {
            1.0
        } else {
            self.logical_bytes_received as f64 / self.wire_bytes_received as f64
        }
    }
}

/// One registered cache layer's counters. The counters are the cache
/// crate's own set; `Deref` keeps `layer.hits` reading as it did when this
/// struct spelled every counter out again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheLayerMetrics {
    pub layer: String,
    pub counters: CacheCounters,
}

impl std::ops::Deref for CacheLayerMetrics {
    type Target = CacheCounters;

    fn deref(&self) -> &CacheCounters {
        &self.counters
    }
}

/// On the wire a layer is its counters plus a `layer` key, in one object.
impl JsonCodec for CacheLayerMetrics {
    fn to_json(&self) -> Json {
        let mut v = self.counters.to_json();
        if let Json::Obj(fields) = &mut v {
            fields.insert("layer".to_string(), self.layer.to_json());
        }
        v
    }

    fn from_json(v: &Json) -> Result<CacheLayerMetrics> {
        Ok(CacheLayerMetrics {
            layer: counters::field(v, "layer")?,
            counters: CacheCounters::from_json(v)?,
        })
    }
}

impl ClusterSnapshot {
    /// Gather the current state. Cheap enough to call mid-query: every
    /// source is either an atomic counter or a short-lived lock.
    pub fn collect(
        workers: &[Arc<Worker>],
        telemetry: &ClusterTelemetry,
        trace: Option<&TraceBuffer>,
    ) -> ClusterSnapshot {
        let busy = telemetry.worker_busy();
        // Ended queries' totals, plus the running queries' share below.
        let mut shuffle = telemetry.shuffle_metrics();
        let worker_metrics = workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                for handle in w.live_tasks() {
                    shuffle.output_buffered_bytes += handle.task.output.retained_bytes() as u64;
                    let running = !handle.query_state.is_retired();
                    for e in &handle.task.exchanges {
                        shuffle.exchange_buffered_bytes += e.client.buffered_bytes() as u64;
                        shuffle.in_flight_requests += e.client.in_flight() as u64;
                        if running {
                            shuffle.add_received(&e.client);
                        }
                    }
                }
                WorkerMetrics {
                    node: w.node.0,
                    state: w.state().as_str().to_string(),
                    busy_nanos: busy.get(i).map_or(0, |d| d.as_nanos() as u64),
                    running_drivers: w.running_drivers() as u64,
                    blocked_drivers: w.blocked_drivers() as u64,
                    queued_drivers: w.scheduler_queue().len() as u64,
                    scheduler: w.scheduler_queue().snapshot(),
                    wakeups: w.wakeups(),
                    memory: w.pool.snapshot(),
                }
            })
            .collect();
        ClusterSnapshot {
            uptime_nanos: telemetry.uptime().as_nanos() as u64,
            workers: worker_metrics,
            shuffle,
            queries: telemetry.query_gauges(),
            dynamic_filters: telemetry.dynamic_filter_metrics(),
            fusion: telemetry.fusion_metrics(),
            spill: telemetry.spill_metrics(),
            caches: telemetry
                .cache_counters_by_layer()
                .into_iter()
                .map(|(name, counters)| CacheLayerMetrics {
                    layer: name.to_string(),
                    counters,
                })
                .collect(),
            latency: telemetry.latency_metrics(),
            trace_events: trace.map_or(0, |t| t.recorded()),
            trace_overwritten: trace.map_or(0, |t| t.overwritten_events()),
        }
    }

    /// Drivers, cluster-wide, that slept to their safety-net deadline
    /// through an event nothing woke them for. A lost wakeup stalls a query
    /// instead of hanging it, so this count is the only place one shows;
    /// tests hold it at zero.
    pub fn lost_wakeups(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.wakeups.safety_net_fires)
            .sum()
    }

    pub fn to_json(&self) -> Json {
        JsonCodec::to_json(self)
    }

    pub fn from_json(v: &Json) -> Result<ClusterSnapshot> {
        JsonCodec::from_json(v)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::mlfq::LevelSnapshot;
    use presto_common::LatencySummary;

    fn sample() -> ClusterSnapshot {
        ClusterSnapshot {
            uptime_nanos: 12_345_678,
            workers: vec![WorkerMetrics {
                node: 0,
                state: "active".to_string(),
                busy_nanos: 999,
                running_drivers: 2,
                blocked_drivers: 1,
                queued_drivers: 3,
                scheduler: SchedulerSnapshot {
                    levels: vec![LevelSnapshot {
                        occupancy: 3,
                        used_nanos: 17,
                        entries: 9,
                        quanta_granted: 6,
                    }],
                    demotions: 2,
                    promotions: 0,
                },
                wakeups: WakeupSnapshot {
                    parks: 40,
                    event_wakeups: 38,
                    timed_repolls: 5,
                    safety_net_fires: 0,
                },
                memory: PoolSnapshot {
                    general_used: 1024,
                    reserved_used: 0,
                    system_used: 77,
                    peak_general: 2048,
                    peak_reserved: 0,
                    general_limit: 1 << 29,
                    reserved_limit: 1 << 27,
                    blocked_reservations: 1,
                    revocation_requests: 1,
                    active_queries: 1,
                },
            }],
            shuffle: ShuffleMetrics {
                output_buffered_bytes: 4096,
                exchange_buffered_bytes: 512,
                in_flight_requests: 2,
                retries: 1,
                wire_bytes_received: 100,
                logical_bytes_received: 250,
                local_pages: 3,
                local_bytes: 300,
            },
            queries: QueryGauges {
                submitted: 10,
                queued: 1,
                running: 2,
                finished: 6,
                failed: 1,
            },
            dynamic_filters: DynamicFilterMetrics {
                filters_published: 2,
                splits_pruned: 7,
                stripes_pruned: 11,
                rows_filtered: 5000,
                wait_nanos: 1_250_000,
            },
            fusion: FusionMetrics {
                pipelines: 3,
                scan_rows: 60_000,
                filter_rows: 900,
                project_rows: 900,
                agg_rows: 900,
                rows_produced: 12,
            },
            spill: SpillMetrics {
                queries_spilled: 2,
                spilled_bytes: 1 << 20,
                spill_events: 5,
                spill_dir: "/tmp/presto-spill".to_string(),
                spill_max_bytes: 1 << 30,
            },
            caches: vec![CacheLayerMetrics {
                layer: "porc_footer".to_string(),
                counters: CacheCounters {
                    hits: 5,
                    misses: 2,
                    evictions: 0,
                    inserts: 2,
                    invalidations: 0,
                    bytes: 333,
                },
            }],
            latency: QueryLatencyMetrics {
                queued: LatencySummary {
                    count: 7,
                    p50_nanos: 1_000,
                    p95_nanos: 9_000,
                    p99_nanos: 9_500,
                    max_nanos: 10_000,
                },
                planning: LatencySummary {
                    count: 7,
                    p50_nanos: 52_000,
                    p95_nanos: 90_000,
                    p99_nanos: 96_000,
                    max_nanos: 100_000,
                },
                execution: LatencySummary {
                    count: 7,
                    p50_nanos: 4_100_000,
                    p95_nanos: 9_300_000,
                    p99_nanos: 9_900_000,
                    max_nanos: 10_000_000,
                },
            },
            trace_events: 42,
            trace_overwritten: 3,
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let snap = sample();
        let text = snap.to_json().to_string();
        let back = ClusterSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    /// `sample().to_json().to_string()` as the hand-written serializer
    /// produced it before the structs were declared through `counter_set!`:
    /// key names, nesting and integer rendering are a wire contract.
    const SAMPLE_JSON: &str = r#"{"caches":[{"bytes":333,"evictions":0,"hits":5,"inserts":2,"invalidations":0,"layer":"porc_footer","misses":2}],"dynamic_filters":{"filters_published":2,"rows_filtered":5000,"splits_pruned":7,"stripes_pruned":11,"wait_nanos":1250000},"fusion":{"agg_rows":900,"filter_rows":900,"pipelines":3,"project_rows":900,"rows_produced":12,"scan_rows":60000},"latency":{"execution":{"count":7,"max_nanos":10000000,"p50_nanos":4100000,"p95_nanos":9300000,"p99_nanos":9900000},"planning":{"count":7,"max_nanos":100000,"p50_nanos":52000,"p95_nanos":90000,"p99_nanos":96000},"queued":{"count":7,"max_nanos":10000,"p50_nanos":1000,"p95_nanos":9000,"p99_nanos":9500}},"queries":{"failed":1,"finished":6,"queued":1,"running":2,"submitted":10},"shuffle":{"exchange_buffered_bytes":512,"in_flight_requests":2,"local_bytes":300,"local_pages":3,"logical_bytes_received":250,"output_buffered_bytes":4096,"retries":1,"wire_bytes_received":100},"spill":{"queries_spilled":2,"spill_dir":"/tmp/presto-spill","spill_events":5,"spill_max_bytes":1073741824,"spilled_bytes":1048576},"trace_events":42,"trace_overwritten":3,"uptime_nanos":12345678,"workers":[{"blocked_drivers":1,"busy_nanos":999,"memory":{"active_queries":1,"blocked_reservations":1,"general_limit":536870912,"general_used":1024,"peak_general":2048,"peak_reserved":0,"reserved_limit":134217728,"reserved_used":0,"revocation_requests":1,"system_used":77},"node":0,"queued_drivers":3,"running_drivers":2,"scheduler":{"demotions":2,"levels":[{"entries":9,"occupancy":3,"quanta_granted":6,"used_nanos":17}],"promotions":0},"state":"active","wakeups":{"event_wakeups":38,"parks":40,"safety_net_fires":0,"timed_repolls":5}}]}"#;

    #[test]
    fn json_is_byte_identical_to_the_hand_written_serializer() {
        assert_eq!(sample().to_json().to_string(), SAMPLE_JSON);
        assert_eq!(sample().caches[0].hits, 5, "layer counters read through");
    }

    #[test]
    fn compression_ratio() {
        assert_eq!(ShuffleMetrics::default().compression_ratio(), 1.0);
        assert_eq!(sample().shuffle.compression_ratio(), 2.5);
    }

    #[test]
    fn gauge_invariant_holds_in_sample() {
        let q = sample().queries;
        assert_eq!(q.queued + q.running + q.finished + q.failed, q.submitted);
    }
}
