//! Runtime metrics export (§VII "Effortless instrumentation").
//!
//! "The median Presto worker node exports ~10,000 real-time performance
//! counters" — [`ClusterSnapshot`] gathers the cluster's live runtime
//! state into one serializable value, queryable mid-flight: per-worker
//! MLFQ occupancy and demotions, memory-pool usage and peaks, shuffle
//! gauges, cache counters, and the query lifecycle gauges. Serialization
//! round-trips through [`presto_common::json`] so snapshots can be
//! shipped, diffed, and re-parsed without third-party crates.

use presto_common::json::Json;
use presto_common::{LatencySummary, Result, TraceBuffer};
use std::sync::Arc;

use crate::memory::PoolSnapshot;
use crate::mlfq::{LevelSnapshot, SchedulerSnapshot};
use crate::telemetry::{
    ClusterTelemetry, DynamicFilterMetrics, FusionMetrics, QueryLatencyMetrics, SpillMetrics,
};
use crate::worker::{WakeupSnapshot, Worker};

/// One worker's runtime state.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerMetrics {
    pub node: u32,
    /// Lifecycle state: "active", "draining", "lost", or "shutdown"
    /// (§IV-G).
    pub state: String,
    /// Executor busy time since startup, in nanoseconds.
    pub busy_nanos: u64,
    /// Drivers executing a quantum right now.
    pub running_drivers: u64,
    /// Drivers parked on a blocked condition.
    pub blocked_drivers: u64,
    /// Drivers waiting in the scheduling queue.
    pub queued_drivers: u64,
    pub scheduler: SchedulerSnapshot,
    /// How blocked drivers waited: parked on events, re-polled on a timer,
    /// and — zero unless there is a bug — lost wakeups.
    pub wakeups: WakeupSnapshot,
    pub memory: PoolSnapshot,
}

/// Shuffle data-plane gauges, aggregated over tasks still running.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleMetrics {
    /// Bytes parked in live tasks' output buffers right now.
    pub output_buffered_bytes: u64,
    /// Bytes parked in live exchange-client input buffers right now.
    pub exchange_buffered_bytes: u64,
    /// Exchange requests currently in flight.
    pub in_flight_requests: u64,
    /// Transient decode failures retried by live exchange clients.
    pub retries: u64,
    /// Serialized (possibly compressed) bytes pulled from upstream tasks.
    pub wire_bytes_received: u64,
    /// Uncompressed logical bytes of the same pages.
    pub logical_bytes_received: u64,
}

impl ShuffleMetrics {
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

/// Query lifecycle gauges. Invariant (asserted by the telemetry stress
/// test): `queued + running + finished + failed == submitted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryGauges {
    pub submitted: u64,
    pub queued: u64,
    pub running: u64,
    pub finished: u64,
    pub failed: u64,
}

/// One registered cache layer's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheLayerMetrics {
    pub layer: String,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub inserts: u64,
    pub invalidations: u64,
    pub bytes: u64,
}

/// A point-in-time view of the whole cluster's runtime counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSnapshot {
    pub uptime_nanos: u64,
    pub workers: Vec<WorkerMetrics>,
    pub shuffle: ShuffleMetrics,
    pub queries: QueryGauges,
    /// Dynamic-filtering savings accumulated across finished queries.
    pub dynamic_filters: DynamicFilterMetrics,
    /// Pipeline-fusion totals accumulated across finished queries.
    pub fusion: FusionMetrics,
    /// Spill totals accumulated across finished queries, plus the
    /// effective `spill_dir`/`spill_max_bytes` knobs (§IV-F2).
    pub spill: SpillMetrics,
    pub caches: Vec<CacheLayerMetrics>,
    /// p50/p95/p99 of queue/planning/execution wall time across finished
    /// queries, from the log-bucketed latency histograms (§VII).
    pub latency: QueryLatencyMetrics,
    /// Events recorded into the trace timeline so far (0 when disabled).
    pub trace_events: u64,
    /// Events lost to ring overwrites so far — nonzero means the timeline
    /// is no longer complete from the start (silent loss made visible).
    pub trace_overwritten: u64,
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
        let mut shuffle = ShuffleMetrics::default();
        let worker_metrics = workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                for handle in w.live_tasks() {
                    shuffle.output_buffered_bytes += handle.task.output.retained_bytes() as u64;
                    for e in &handle.task.exchanges {
                        shuffle.exchange_buffered_bytes += e.client.buffered_bytes() as u64;
                        shuffle.in_flight_requests += e.client.in_flight() as u64;
                        shuffle.retries += e.client.retries();
                        shuffle.wire_bytes_received += e.client.bytes_received();
                        shuffle.logical_bytes_received += e.client.logical_bytes_received();
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
            queries: QueryGauges {
                submitted: telemetry.submitted_queries(),
                queued: telemetry.queued_queries(),
                running: telemetry.running_queries(),
                finished: telemetry.finished_queries(),
                failed: telemetry.failed_queries(),
            },
            dynamic_filters: telemetry.dynamic_filter_metrics(),
            fusion: telemetry.fusion_metrics(),
            spill: telemetry.spill_metrics(),
            caches: telemetry
                .cache_counters_by_layer()
                .into_iter()
                .map(|(name, c)| CacheLayerMetrics {
                    layer: name.to_string(),
                    hits: c.hits,
                    misses: c.misses,
                    evictions: c.evictions,
                    inserts: c.inserts,
                    invalidations: c.invalidations,
                    bytes: c.bytes,
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
        Json::obj([
            ("uptime_nanos", int(self.uptime_nanos)),
            (
                "workers",
                Json::Arr(self.workers.iter().map(worker_to_json).collect()),
            ),
            (
                "shuffle",
                Json::obj([
                    ("output_buffered_bytes", int(self.shuffle.output_buffered_bytes)),
                    (
                        "exchange_buffered_bytes",
                        int(self.shuffle.exchange_buffered_bytes),
                    ),
                    ("in_flight_requests", int(self.shuffle.in_flight_requests)),
                    ("retries", int(self.shuffle.retries)),
                    ("wire_bytes_received", int(self.shuffle.wire_bytes_received)),
                    (
                        "logical_bytes_received",
                        int(self.shuffle.logical_bytes_received),
                    ),
                ]),
            ),
            (
                "queries",
                Json::obj([
                    ("submitted", int(self.queries.submitted)),
                    ("queued", int(self.queries.queued)),
                    ("running", int(self.queries.running)),
                    ("finished", int(self.queries.finished)),
                    ("failed", int(self.queries.failed)),
                ]),
            ),
            (
                "dynamic_filters",
                Json::obj([
                    ("filters_published", int(self.dynamic_filters.filters_published)),
                    ("splits_pruned", int(self.dynamic_filters.splits_pruned)),
                    ("stripes_pruned", int(self.dynamic_filters.stripes_pruned)),
                    ("rows_filtered", int(self.dynamic_filters.rows_filtered)),
                    ("wait_nanos", int(self.dynamic_filters.wait_nanos)),
                ]),
            ),
            (
                "fusion",
                Json::obj([
                    ("pipelines", int(self.fusion.pipelines)),
                    ("scan_rows", int(self.fusion.scan_rows)),
                    ("filter_rows", int(self.fusion.filter_rows)),
                    ("project_rows", int(self.fusion.project_rows)),
                    ("agg_rows", int(self.fusion.agg_rows)),
                    ("rows_produced", int(self.fusion.rows_produced)),
                ]),
            ),
            (
                "spill",
                Json::obj([
                    ("queries_spilled", int(self.spill.queries_spilled)),
                    ("spilled_bytes", int(self.spill.spilled_bytes)),
                    ("spill_events", int(self.spill.spill_events)),
                    ("spill_dir", Json::Str(self.spill.spill_dir.clone())),
                    ("spill_max_bytes", int(self.spill.spill_max_bytes)),
                ]),
            ),
            (
                "caches",
                Json::Arr(
                    self.caches
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("layer", Json::Str(c.layer.clone())),
                                ("hits", int(c.hits)),
                                ("misses", int(c.misses)),
                                ("evictions", int(c.evictions)),
                                ("inserts", int(c.inserts)),
                                ("invalidations", int(c.invalidations)),
                                ("bytes", int(c.bytes)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "latency",
                Json::obj([
                    ("queued", summary_to_json(&self.latency.queued)),
                    ("planning", summary_to_json(&self.latency.planning)),
                    ("execution", summary_to_json(&self.latency.execution)),
                ]),
            ),
            ("trace_events", int(self.trace_events)),
            ("trace_overwritten", int(self.trace_overwritten)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<ClusterSnapshot> {
        let shuffle = v.field("shuffle")?;
        let queries = v.field("queries")?;
        let df = v.field("dynamic_filters")?;
        let fusion = v.field("fusion")?;
        Ok(ClusterSnapshot {
            uptime_nanos: v.field_u64("uptime_nanos")?,
            workers: v
                .field_arr("workers")?
                .iter()
                .map(worker_from_json)
                .collect::<Result<Vec<_>>>()?,
            shuffle: ShuffleMetrics {
                output_buffered_bytes: shuffle.field_u64("output_buffered_bytes")?,
                exchange_buffered_bytes: shuffle.field_u64("exchange_buffered_bytes")?,
                in_flight_requests: shuffle.field_u64("in_flight_requests")?,
                retries: shuffle.field_u64("retries")?,
                wire_bytes_received: shuffle.field_u64("wire_bytes_received")?,
                logical_bytes_received: shuffle.field_u64("logical_bytes_received")?,
            },
            queries: QueryGauges {
                submitted: queries.field_u64("submitted")?,
                queued: queries.field_u64("queued")?,
                running: queries.field_u64("running")?,
                finished: queries.field_u64("finished")?,
                failed: queries.field_u64("failed")?,
            },
            dynamic_filters: DynamicFilterMetrics {
                filters_published: df.field_u64("filters_published")?,
                splits_pruned: df.field_u64("splits_pruned")?,
                stripes_pruned: df.field_u64("stripes_pruned")?,
                rows_filtered: df.field_u64("rows_filtered")?,
                wait_nanos: df.field_u64("wait_nanos")?,
            },
            fusion: FusionMetrics {
                pipelines: fusion.field_u64("pipelines")?,
                scan_rows: fusion.field_u64("scan_rows")?,
                filter_rows: fusion.field_u64("filter_rows")?,
                project_rows: fusion.field_u64("project_rows")?,
                agg_rows: fusion.field_u64("agg_rows")?,
                rows_produced: fusion.field_u64("rows_produced")?,
            },
            spill: {
                let spill = v.field("spill")?;
                SpillMetrics {
                    queries_spilled: spill.field_u64("queries_spilled")?,
                    spilled_bytes: spill.field_u64("spilled_bytes")?,
                    spill_events: spill.field_u64("spill_events")?,
                    spill_dir: spill.field_str("spill_dir")?.to_string(),
                    spill_max_bytes: spill.field_u64("spill_max_bytes")?,
                }
            },
            caches: v
                .field_arr("caches")?
                .iter()
                .map(|c| {
                    Ok(CacheLayerMetrics {
                        layer: c.field_str("layer")?.to_string(),
                        hits: c.field_u64("hits")?,
                        misses: c.field_u64("misses")?,
                        evictions: c.field_u64("evictions")?,
                        inserts: c.field_u64("inserts")?,
                        invalidations: c.field_u64("invalidations")?,
                        bytes: c.field_u64("bytes")?,
                    })
                })
                .collect::<Result<Vec<_>>>()?,
            latency: {
                let lat = v.field("latency")?;
                QueryLatencyMetrics {
                    queued: summary_from_json(lat.field("queued")?)?,
                    planning: summary_from_json(lat.field("planning")?)?,
                    execution: summary_from_json(lat.field("execution")?)?,
                }
            },
            trace_events: v.field_u64("trace_events")?,
            trace_overwritten: v.field_u64("trace_overwritten")?,
        })
    }
}

fn summary_to_json(s: &LatencySummary) -> Json {
    Json::obj([
        ("count", int(s.count)),
        ("p50_nanos", int(s.p50_nanos)),
        ("p95_nanos", int(s.p95_nanos)),
        ("p99_nanos", int(s.p99_nanos)),
        ("max_nanos", int(s.max_nanos)),
    ])
}

fn summary_from_json(v: &Json) -> Result<LatencySummary> {
    Ok(LatencySummary {
        count: v.field_u64("count")?,
        p50_nanos: v.field_u64("p50_nanos")?,
        p95_nanos: v.field_u64("p95_nanos")?,
        p99_nanos: v.field_u64("p99_nanos")?,
        max_nanos: v.field_u64("max_nanos")?,
    })
}

/// u64 → JSON integer. Counters beyond `i64::MAX` saturate (a physical
/// impossibility for byte/event counts; saturation beats panicking).
fn int(v: u64) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn worker_to_json(w: &WorkerMetrics) -> Json {
    Json::obj([
        ("node", int(w.node as u64)),
        ("state", Json::Str(w.state.clone())),
        ("busy_nanos", int(w.busy_nanos)),
        ("running_drivers", int(w.running_drivers)),
        ("blocked_drivers", int(w.blocked_drivers)),
        ("queued_drivers", int(w.queued_drivers)),
        (
            "scheduler",
            Json::obj([
                (
                    "levels",
                    Json::Arr(
                        w.scheduler
                            .levels
                            .iter()
                            .map(|l| {
                                Json::obj([
                                    ("occupancy", int(l.occupancy as u64)),
                                    ("used_nanos", int(l.used_nanos)),
                                    ("entries", int(l.entries)),
                                    ("quanta_granted", int(l.quanta_granted)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("demotions", int(w.scheduler.demotions)),
                ("promotions", int(w.scheduler.promotions)),
            ]),
        ),
        (
            "wakeups",
            Json::obj([
                ("parks", int(w.wakeups.parks)),
                ("event_wakeups", int(w.wakeups.event_wakeups)),
                ("timed_repolls", int(w.wakeups.timed_repolls)),
                ("safety_net_fires", int(w.wakeups.safety_net_fires)),
            ]),
        ),
        (
            "memory",
            Json::obj([
                ("general_used", Json::Int(w.memory.general_used)),
                ("reserved_used", Json::Int(w.memory.reserved_used)),
                ("system_used", Json::Int(w.memory.system_used)),
                ("peak_general", Json::Int(w.memory.peak_general)),
                ("peak_reserved", Json::Int(w.memory.peak_reserved)),
                ("general_limit", Json::Int(w.memory.general_limit)),
                ("reserved_limit", Json::Int(w.memory.reserved_limit)),
                (
                    "blocked_reservations",
                    Json::Int(w.memory.blocked_reservations),
                ),
                (
                    "revocation_requests",
                    Json::Int(w.memory.revocation_requests),
                ),
                ("active_queries", int(w.memory.active_queries as u64)),
            ]),
        ),
    ])
}

fn worker_from_json(v: &Json) -> Result<WorkerMetrics> {
    let scheduler = v.field("scheduler")?;
    let wakeups = v.field("wakeups")?;
    let memory = v.field("memory")?;
    Ok(WorkerMetrics {
        node: v.field_u64("node")? as u32,
        state: v.field_str("state")?.to_string(),
        busy_nanos: v.field_u64("busy_nanos")?,
        running_drivers: v.field_u64("running_drivers")?,
        blocked_drivers: v.field_u64("blocked_drivers")?,
        queued_drivers: v.field_u64("queued_drivers")?,
        scheduler: SchedulerSnapshot {
            levels: scheduler
                .field_arr("levels")?
                .iter()
                .map(|l| {
                    Ok(LevelSnapshot {
                        occupancy: l.field_u64("occupancy")? as usize,
                        used_nanos: l.field_u64("used_nanos")?,
                        entries: l.field_u64("entries")?,
                        quanta_granted: l.field_u64("quanta_granted")?,
                    })
                })
                .collect::<Result<Vec<_>>>()?,
            demotions: scheduler.field_u64("demotions")?,
            promotions: scheduler.field_u64("promotions")?,
        },
        wakeups: WakeupSnapshot {
            parks: wakeups.field_u64("parks")?,
            event_wakeups: wakeups.field_u64("event_wakeups")?,
            timed_repolls: wakeups.field_u64("timed_repolls")?,
            safety_net_fires: wakeups.field_u64("safety_net_fires")?,
        },
        memory: PoolSnapshot {
            general_used: memory.field_i64("general_used")?,
            reserved_used: memory.field_i64("reserved_used")?,
            system_used: memory.field_i64("system_used")?,
            peak_general: memory.field_i64("peak_general")?,
            peak_reserved: memory.field_i64("peak_reserved")?,
            general_limit: memory.field_i64("general_limit")?,
            reserved_limit: memory.field_i64("reserved_limit")?,
            blocked_reservations: memory.field_i64("blocked_reservations")?,
            revocation_requests: memory.field_i64("revocation_requests")?,
            active_queries: memory.field_u64("active_queries")? as usize,
        },
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

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
                hits: 5,
                misses: 2,
                evictions: 0,
                inserts: 2,
                invalidations: 0,
                bytes: 333,
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
