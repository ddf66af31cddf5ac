//! Observability end-to-end tests (§VII): EXPLAIN ANALYZE, runtime
//! metrics snapshots, and the Chrome trace timeline.

#![allow(clippy::unwrap_used)]

use presto_cluster::metrics::{CacheLayerMetrics, ClusterSnapshot, QueryGauges, ShuffleMetrics, WorkerMetrics};
use presto_cluster::memory::PoolSnapshot;
use presto_cluster::mlfq::{LevelSnapshot, SchedulerSnapshot};
use presto_cluster::worker::WakeupSnapshot;
use presto_cluster::{Cluster, ClusterConfig, DynamicFilterMetrics, FusionMetrics, QueryLatencyMetrics, SpillMetrics};
use presto_common::json::Json;
use presto_common::{DataType, LatencySummary, Schema, Session, Value};
use presto_connector::CatalogManager;
use presto_connectors::MemoryConnector;
use proptest::prelude::*;
use std::sync::Arc;

fn cluster() -> Cluster {
    let mem = MemoryConnector::new();
    let orders_schema = Schema::of(&[
        ("orderkey", DataType::Bigint),
        ("custkey", DataType::Bigint),
        ("totalprice", DataType::Double),
    ]);
    let orders: Vec<Vec<Value>> = (0..1000)
        .map(|i| {
            vec![
                Value::Bigint(i),
                Value::Bigint(i % 100),
                Value::Double((i % 500) as f64),
            ]
        })
        .collect();
    let pages: Vec<presto_page::Page> = orders
        .chunks(100)
        .map(|chunk| presto_page::Page::from_rows(&orders_schema, chunk))
        .collect();
    mem.load_table("orders", orders_schema, pages);
    let lineitem_schema = Schema::of(&[("orderkey", DataType::Bigint), ("tax", DataType::Double)]);
    let lineitem: Vec<Vec<Value>> = (0..5000)
        .map(|i| vec![Value::Bigint(i % 1000), Value::Double(0.05)])
        .collect();
    let pages: Vec<presto_page::Page> = lineitem
        .chunks(500)
        .map(|chunk| presto_page::Page::from_rows(&lineitem_schema, chunk))
        .collect();
    mem.load_table("lineitem", lineitem_schema, pages);
    mem.analyze("orders").unwrap();
    mem.analyze("lineitem").unwrap();
    let mut catalogs = CatalogManager::new();
    catalogs.register(
        "memory",
        Arc::clone(&mem) as Arc<dyn presto_connector::Connector>,
    );
    Cluster::start(ClusterConfig::test(), catalogs).unwrap()
}

#[test]
fn explain_analyze_join_agg_has_populated_stats() {
    let c = cluster();
    let out = c
        .execute(
            "EXPLAIN ANALYZE SELECT o.custkey, COUNT(*), SUM(l.tax) \
             FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey \
             GROUP BY o.custkey",
        )
        .unwrap();
    let text = out.rows()[0][0].as_str().unwrap().to_string();
    // The fragment tree is annotated with stage and operator stats.
    assert!(text.contains("Query"), "{text}");
    assert!(text.contains("Fragment"), "{text}");
    assert!(text.contains("Stage:"), "{text}");
    assert!(text.contains("Pipeline"), "{text}");
    for op in ["ScanFilterProject", "HashBuilder", "LookupJoin", "Aggregate"] {
        assert!(text.contains(op), "missing operator {op} in:\n{text}");
    }
    // Row counts reconcile with the data: the scans emit exactly the
    // loaded table cardinalities, and the probe side flows them into the
    // join.
    assert!(text.contains("out 5000 rows"), "{text}");
    assert!(text.contains("out 1000 rows"), "{text}");
    // CPU was measured somewhere (the driver timing hooks ran).
    assert!(!text.contains("cpu 0ns, wall"), "{text}");
    // Blocked/memory columns render.
    assert!(text.contains("blocked"), "{text}");
    assert!(text.contains("peak mem"), "{text}");
}

#[test]
fn explain_analyze_row_counts_reconcile_across_exchange() {
    let c = cluster();
    let out = c
        .execute("EXPLAIN ANALYZE SELECT custkey, COUNT(*) FROM orders GROUP BY custkey")
        .unwrap();
    let text = out.rows()[0][0].as_str().unwrap().to_string();
    // Partial aggregation emits one row per (driver, group) ≥ 100 groups;
    // the final aggregation outputs exactly the 100 groups.
    assert!(text.contains("Aggregate"), "{text}");
    assert!(text.contains("out 100 rows"), "{text}");
    // Operator-specific counters surface (group-by hash table counters).
    assert!(text.contains("="), "{text}");
}

/// Acceptance: EXPLAIN ANALYZE of a fusable scan→filter→agg query renders
/// the fused chain with per-stage row counts, and the cluster snapshot
/// accumulates the fusion totals after the query finishes.
#[test]
fn explain_analyze_fused_chain_shows_per_stage_rows() {
    let c = cluster();
    let out = c
        .execute("EXPLAIN ANALYZE SELECT SUM(totalprice) FROM orders WHERE custkey < 10")
        .unwrap();
    let text = out.rows()[0][0].as_str().unwrap().to_string();
    // The chain compiled into the fused operator, not discrete ones.
    assert!(text.contains("FusedPipeline"), "{text}");
    // Per-stage row counters: 1000 rows scanned, custkey < 10 keeps
    // i % 100 < 10 → exactly 100 rows into the partial aggregation.
    assert!(text.contains("fused_scan_rows=1000"), "{text}");
    assert!(text.contains("fused_filter_rows=100"), "{text}");
    assert!(text.contains("fused_agg_rows=100"), "{text}");
    assert!(text.contains("fused_stages="), "{text}");
    // The plan-level fusion summary renders the chain and its verdict.
    assert!(text.contains("Fused pipelines:"), "{text}");
    assert!(text.contains("[fused]"), "{text}");
    // The per-query totals rolled into the cluster-lifetime counters.
    let snap = c.metrics_snapshot();
    assert_eq!(snap.lost_wakeups(), 0);
    let fusion = snap.fusion;
    assert!(fusion.pipelines >= 1, "{fusion:?}");
    assert_eq!(fusion.scan_rows, 1000, "{fusion:?}");
    assert_eq!(fusion.filter_rows, 100, "{fusion:?}");
}

/// Disabling the session knob falls back to discrete operators with the
/// same answer.
#[test]
fn fusion_knob_off_runs_discrete_operators() {
    let c = cluster();
    let sql = "SELECT SUM(totalprice) FROM orders WHERE custkey < 10";
    let fused = c.execute(sql).unwrap();
    let mut session = Session::default();
    session.pipeline_fusion = false;
    let unfused = c.execute_with_session(sql, &session).unwrap();
    assert_eq!(fused.rows(), unfused.rows());
    let text = c
        .execute_with_session(
            "EXPLAIN ANALYZE SELECT SUM(totalprice) FROM orders WHERE custkey < 10",
            &session,
        )
        .unwrap()
        .rows()[0][0]
        .as_str()
        .unwrap()
        .to_string();
    assert!(!text.contains("FusedPipeline"), "{text}");
    assert!(text.contains("ScanFilterProject"), "{text}");
}

#[test]
fn metrics_snapshot_changes_across_mid_query_samples() {
    let c = cluster();
    let handle = c.submit(
        "SELECT COUNT(*) FROM orders o1 CROSS JOIN orders o2 \
         WHERE o1.orderkey + o2.orderkey > 0",
        Session::default(),
    );
    let snap1 = c.metrics_snapshot();
    std::thread::sleep(std::time::Duration::from_millis(30));
    let snap2 = c.metrics_snapshot();
    assert!(snap2.uptime_nanos > snap1.uptime_nanos);
    assert_ne!(snap1, snap2);
    let busy = |s: &ClusterSnapshot| s.workers.iter().map(|w| w.busy_nanos).sum::<u64>();
    assert!(busy(&snap2) >= busy(&snap1));
    assert!(snap2.queries.submitted >= 1);
    handle.join().unwrap().unwrap();
    // After completion the gauges settle and the invariant holds.
    let end = c.metrics_snapshot();
    assert_eq!(end.lost_wakeups(), 0);
    assert_eq!(end.queries.queued, 0);
    assert_eq!(end.queries.running, 0);
    assert_eq!(
        end.queries.finished + end.queries.failed,
        end.queries.submitted
    );
    assert!(
        busy(&end) > 0,
        "executors accumulated busy time running the query"
    );
    assert!(
        end.workers.iter().any(|w| w
            .scheduler
            .levels
            .iter()
            .any(|l| l.entries > 0 && l.quanta_granted > 0)),
        "the MLFQ dispatched quanta"
    );
}

#[test]
fn collected_snapshot_round_trips_through_json() {
    let c = cluster();
    c.execute("SELECT COUNT(*) FROM orders").unwrap();
    let snap = c.metrics_snapshot();
    assert_eq!(snap.lost_wakeups(), 0);
    let text = snap.to_json().to_string();
    let back = ClusterSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, snap);
}

#[test]
fn chrome_trace_export_is_structurally_valid() {
    let c = cluster();
    c.execute("SELECT custkey, COUNT(*) FROM orders GROUP BY custkey")
        .unwrap();
    let trace = c.trace().expect("tracing on by default in test config");
    assert!(trace.recorded() > 0, "queries emit trace events");
    let json = Json::parse(&trace.to_chrome_trace()).unwrap();
    let events = json.field_arr("traceEvents").unwrap();
    assert!(!events.is_empty());
    let mut saw_span = false;
    for e in events {
        let ph = e.field_str("ph").unwrap();
        assert!(ph == "X" || ph == "i", "unexpected phase {ph}");
        assert!(!e.field_str("name").unwrap().is_empty());
        assert!(e.field_f64("ts").unwrap() >= 0.0);
        e.field_u64("pid").unwrap();
        e.field_u64("tid").unwrap();
        if ph == "X" {
            saw_span = true;
            e.field_f64("dur").unwrap();
        }
    }
    assert!(saw_span, "driver quanta export as complete-span events");
}

#[test]
fn tracing_can_be_disabled() {
    let mem = MemoryConnector::new();
    let schema = Schema::of(&[("x", DataType::Bigint)]);
    mem.load_table(
        "t",
        schema.clone(),
        vec![presto_page::Page::from_rows(
            &schema,
            &[vec![Value::Bigint(1)]],
        )],
    );
    let mut catalogs = CatalogManager::new();
    catalogs.register("memory", mem as Arc<dyn presto_connector::Connector>);
    let config = ClusterConfig {
        trace_capacity: 0,
        ..ClusterConfig::test()
    };
    let c = Cluster::start(config, catalogs).unwrap();
    c.execute("SELECT * FROM t").unwrap();
    assert!(c.trace().is_none());
    assert_eq!(c.metrics_snapshot().trace_events, 0);
}

#[test]
fn failed_queries_settle_gauges_and_tag_errors() {
    let c = cluster();
    assert!(c.execute("SELECT nosuch FROM orders").is_err());
    assert!(c.execute("not even sql").is_err());
    let snap = c.metrics_snapshot();
    assert_eq!(snap.lost_wakeups(), 0);
    assert_eq!(snap.queries.queued, 0);
    assert_eq!(snap.queries.running, 0);
    assert_eq!(snap.queries.failed, 2);
    assert_eq!(snap.queries.submitted, 2);
    // Every failure carries an error-code tag on its record.
    for (_, record) in c.telemetry().all_query_records() {
        assert!(record.failed);
        assert!(record.error_tag.is_some());
    }
}

/// Satellite: a *collected* (not hand-built) snapshot with populated
/// `dynamic_filters` and `fusion` sections must round-trip through JSON,
/// and the latency histograms must carry every finished query.
#[test]
fn populated_snapshot_round_trips_with_df_fusion_and_latency() {
    let c = cluster();
    // Fusable scan→filter→agg query populates the fusion totals.
    c.execute("SELECT SUM(totalprice) FROM orders WHERE custkey < 10")
        .unwrap();
    // Selective join publishes a dynamic filter from the build side.
    let mut session = Session::default();
    session.dynamic_filter_wait = std::time::Duration::from_secs(5);
    c.execute_with_session(
        "SELECT COUNT(*) FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey \
         WHERE o.custkey < 3",
        &session,
    )
    .unwrap();
    let snap = c.metrics_snapshot();
    assert_eq!(snap.lost_wakeups(), 0);
    assert!(snap.fusion.pipelines >= 1, "{:?}", snap.fusion);
    assert!(snap.fusion.scan_rows >= 1000, "{:?}", snap.fusion);
    assert!(
        snap.dynamic_filters.filters_published >= 1,
        "{:?}",
        snap.dynamic_filters
    );
    // Phase histograms saw both queries.
    assert_eq!(snap.latency.execution.count, 2, "{:?}", snap.latency);
    assert!(snap.latency.execution.p50_nanos > 0);
    assert!(snap.latency.execution.p99_nanos >= snap.latency.execution.p50_nanos);
    let text = snap.to_json().to_string();
    let back = ClusterSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, snap);
}

/// Satellite: scraping `ClusterSnapshot` while 8 threads run queries must
/// never panic, wrap a gauge, or produce a snapshot that fails to
/// serialize — the §VII "counters are always on" property under load.
#[test]
fn concurrent_scrape_under_load_is_consistent() {
    let c = cluster();
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let mut runners = Vec::new();
        for i in 0..8 {
            let c = &c;
            runners.push(s.spawn(move || {
                for round in 0..6 {
                    let sql = if (i + round) % 2 == 0 {
                        "SELECT custkey, COUNT(*) FROM orders GROUP BY custkey".to_string()
                    } else {
                        format!("SELECT SUM(totalprice) FROM orders WHERE custkey < {}", 10 + i)
                    };
                    c.execute(&sql).unwrap();
                }
            }));
        }
        // Scrape continuously while the runners churn.
        let mut scrapes = 0u64;
        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
            let snap = c.metrics_snapshot();
            let q = &snap.queries;
            assert!(q.queued < u64::MAX / 2, "queued gauge underflowed");
            assert!(q.running < u64::MAX / 2, "running gauge underflowed");
            assert!(q.queued + q.running + q.finished + q.failed <= q.submitted);
            let text = snap.to_json().to_string();
            let back = ClusterSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, snap);
            scrapes += 1;
            if runners.iter().all(|r| r.is_finished()) {
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            }
        }
        for r in runners {
            r.join().unwrap();
        }
        assert!(scrapes > 0);
    });
    // Settled: every query accounted for, histograms saw all 48.
    let end = c.metrics_snapshot();
    assert_eq!(end.lost_wakeups(), 0);
    assert_eq!(end.queries.finished, 48);
    assert_eq!(end.latency.execution.count, 48);
    assert_eq!(
        end.queries.finished + end.queries.failed,
        end.queries.submitted
    );
}

// --- proptest: serialization round-trip over arbitrary snapshots ---

fn counter() -> impl Strategy<Value = u64> {
    // JSON integers are i64; collected counters never exceed that.
    any::<u64>().prop_map(|v| v >> 1)
}

fn arb_level() -> impl Strategy<Value = LevelSnapshot> {
    (0..100_000usize, counter(), counter(), counter()).prop_map(
        |(occupancy, used_nanos, entries, quanta_granted)| LevelSnapshot {
            occupancy,
            used_nanos,
            entries,
            quanta_granted,
        },
    )
}

fn arb_worker() -> impl Strategy<Value = WorkerMetrics> {
    (
        (any::<u32>(), counter(), counter(), counter(), counter()),
        (
            proptest::collection::vec(arb_level(), 0..6),
            counter(),
            counter(),
        ),
        (counter(), counter(), counter(), counter()),
        (
            proptest::collection::vec(any::<i64>(), 9..10),
            0..100_000usize,
            0..4usize,
        ),
    )
        .prop_map(
            |(
                (node, busy_nanos, running_drivers, blocked_drivers, queued_drivers),
                (levels, demotions, promotions),
                (parks, event_wakeups, timed_repolls, safety_net_fires),
                (mem, active_queries, state),
            )| WorkerMetrics {
                node,
                state: ["active", "draining", "lost", "shutdown"][state].to_string(),
                busy_nanos,
                running_drivers,
                blocked_drivers,
                queued_drivers,
                scheduler: SchedulerSnapshot {
                    levels,
                    demotions,
                    promotions,
                },
                wakeups: WakeupSnapshot {
                    parks,
                    event_wakeups,
                    timed_repolls,
                    safety_net_fires,
                },
                memory: PoolSnapshot {
                    general_used: mem[0],
                    reserved_used: mem[1],
                    system_used: mem[2],
                    peak_general: mem[3],
                    peak_reserved: mem[4],
                    general_limit: mem[5],
                    reserved_limit: mem[6],
                    blocked_reservations: mem[7],
                    revocation_requests: mem[8],
                    active_queries,
                },
            },
        )
}

fn arb_cache() -> impl Strategy<Value = CacheLayerMetrics> {
    ("[a-z_]{1,12}", proptest::collection::vec(counter(), 6..7)).prop_map(|(layer, vals)| {
        CacheLayerMetrics {
            layer,
            hits: vals[0],
            misses: vals[1],
            evictions: vals[2],
            inserts: vals[3],
            invalidations: vals[4],
            bytes: vals[5],
        }
    })
}

fn arb_summary() -> impl Strategy<Value = LatencySummary> {
    proptest::collection::vec(counter(), 5..6).prop_map(|v| LatencySummary {
        count: v[0],
        p50_nanos: v[1],
        p95_nanos: v[2],
        p99_nanos: v[3],
        max_nanos: v[4],
    })
}

fn arb_snapshot() -> impl Strategy<Value = ClusterSnapshot> {
    (
        counter(),
        proptest::collection::vec(arb_worker(), 0..4),
        proptest::collection::vec(counter(), 6..7),
        (
            proptest::collection::vec(counter(), 5..6),
            proptest::collection::vec(counter(), 5..6),
            proptest::collection::vec(counter(), 6..7),
            (proptest::collection::vec(counter(), 4..5), "[a-z/_-]{0,16}"),
        ),
        proptest::collection::vec(arb_cache(), 0..3),
        ((arb_summary(), arb_summary(), arb_summary()), counter(), counter()),
    )
        .prop_map(
            |(uptime_nanos, workers, shuffle, (queries, df, fu, (sp, spill_dir)), caches, ((lq, lp, le), trace_events, trace_overwritten))| ClusterSnapshot {
                uptime_nanos,
                workers,
                shuffle: ShuffleMetrics {
                    output_buffered_bytes: shuffle[0],
                    exchange_buffered_bytes: shuffle[1],
                    in_flight_requests: shuffle[2],
                    retries: shuffle[3],
                    wire_bytes_received: shuffle[4],
                    logical_bytes_received: shuffle[5],
                },
                queries: QueryGauges {
                    submitted: queries[0],
                    queued: queries[1],
                    running: queries[2],
                    finished: queries[3],
                    failed: queries[4],
                },
                dynamic_filters: DynamicFilterMetrics {
                    filters_published: df[0],
                    splits_pruned: df[1],
                    stripes_pruned: df[2],
                    rows_filtered: df[3],
                    wait_nanos: df[4],
                },
                fusion: FusionMetrics {
                    pipelines: fu[0],
                    scan_rows: fu[1],
                    filter_rows: fu[2],
                    project_rows: fu[3],
                    agg_rows: fu[4],
                    rows_produced: fu[5],
                },
                spill: SpillMetrics {
                    queries_spilled: sp[0],
                    spilled_bytes: sp[1],
                    spill_events: sp[2],
                    spill_dir,
                    spill_max_bytes: sp[3],
                },
                caches,
                latency: QueryLatencyMetrics {
                    queued: lq,
                    planning: lp,
                    execution: le,
                },
                trace_events,
                trace_overwritten,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_json_round_trip(snap in arb_snapshot()) {
        let text = snap.to_json().to_string();
        let back = ClusterSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back, snap);
    }
}
