//! Observability end-to-end tests (§VII): EXPLAIN ANALYZE, runtime
//! metrics snapshots, and the Chrome trace timeline.

#![allow(clippy::unwrap_used)]

use presto_cache::CacheCounters;
use presto_cluster::memory::PoolSnapshot;
use presto_cluster::metrics::{
    CacheLayerMetrics, ClusterSnapshot, QueryGauges, ShuffleMetrics, WorkerMetrics,
};
use presto_cluster::mlfq::{LevelSnapshot, SchedulerSnapshot};
use presto_cluster::worker::WakeupSnapshot;
use presto_cluster::{
    ClusterConfig, DynamicFilterMetrics, FusionMetrics, QueryLatencyMetrics, SpillMetrics,
};
use presto_common::counters::JsonCodec;
use presto_common::json::Json;
use presto_common::{DataType, LatencySummary, Schema, Session, Value};
use presto_testkit::{memory_catalog, orders_and_lineitem, TestCluster};
use proptest::prelude::*;

fn cluster() -> TestCluster {
    TestCluster::start(ClusterConfig::test(), orders_and_lineitem())
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
    for op in ["FusedPipeline", "HashBuilder", "LookupJoin", "Aggregate"] {
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

/// Disabling the session knob leaves the partial aggregate out of the leaf
/// operator: it runs as a discrete operator, with the same answer.
#[test]
fn fusion_knob_off_runs_discrete_operators() {
    let c = cluster();
    let sql = "SELECT SUM(totalprice) FROM orders WHERE custkey < 10";
    let fused = c.execute(sql).unwrap();
    let session = Session {
        pipeline_fusion: false,
        ..Default::default()
    };
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
    assert!(text.contains("FusedPipeline"), "{text}");
    assert!(text.contains("AggregatePartial: in"), "{text}");
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
    let schema = Schema::of(&[("x", DataType::Bigint)]);
    let (catalogs, _) = memory_catalog()
        .table("t", schema, &[vec![Value::Bigint(1)]], 1)
        .build();
    let config = ClusterConfig {
        trace_capacity: 0,
        ..ClusterConfig::test()
    };
    let c = TestCluster::start(config, catalogs);
    c.execute("SELECT * FROM t").unwrap();
    assert!(c.trace().is_none());
    assert_eq!(c.metrics_snapshot().trace_events, 0);
}

#[test]
fn failed_queries_settle_gauges_and_tag_errors() {
    let c = cluster();
    let planning = c.execute("SELECT nosuch FROM orders").unwrap_err();
    let parse = c.execute("not even sql").unwrap_err();
    let snap = c.metrics_snapshot();
    assert_eq!(snap.lost_wakeups(), 0);
    assert_eq!(snap.queries.queued, 0);
    assert_eq!(snap.queries.running, 0);
    assert_eq!(snap.queries.failed, 2);
    assert_eq!(snap.queries.submitted, 2);
    // Every failure carries its error-code tag and cause on its record,
    // and the tag is tallied cluster-wide.
    let history = c.query_history();
    assert_eq!(history.live_len(), 0);
    for err in [&planning, &parse] {
        let entry = history.get(err.query).unwrap();
        let tag = err.error.code.tag();
        assert_eq!(entry.state, "failed");
        assert_eq!(entry.error_tag, Some(tag));
        assert_eq!(
            entry.error_message.as_deref(),
            Some(err.error.message.as_str())
        );
        assert!(c.telemetry().errors()[tag] >= 1);
    }
    // The parse failure ended while queued: it never executed.
    let queued = history.get(parse.query).unwrap();
    assert_eq!(
        (queued.attempts, queued.wall),
        (0, std::time::Duration::ZERO)
    );
    assert_eq!(history.get(planning.query).unwrap().attempts, 1);
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
    let session = Session {
        dynamic_filter_wait: std::time::Duration::from_secs(5),
        ..Default::default()
    };
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
                        format!(
                            "SELECT SUM(totalprice) FROM orders WHERE custkey < {}",
                            10 + i
                        )
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

/// An arbitrary value of any flat declared set, generated from the
/// declaration itself: the keys of `T::default().to_json()` are its fields,
/// a string leaf takes an arbitrary string, and an integer leaf takes any
/// value the field's type accepts (signed where `from_json` takes -1,
/// otherwise a counter). Checks on the way that every generated field
/// survives `from_json` → `to_json`, so a field a codec dropped shows here.
fn arb_set<T: JsonCodec + Default + 'static>() -> impl Strategy<Value = T> {
    let Json::Obj(template) = T::default().to_json() else {
        panic!("a declared set serializes as an object");
    };
    let fields: Vec<BoxedStrategy<(String, Json)>> = template
        .iter()
        .map(|(name, leaf)| {
            let name = name.clone();
            if matches!(leaf, Json::Str(_)) {
                return "[a-z/_-]{0,16}"
                    .prop_map(move |s| (name.clone(), Json::Str(s)))
                    .boxed();
            }
            let mut probe = template.clone();
            probe.insert(name.clone(), Json::Int(-1));
            if T::from_json(&Json::Obj(probe)).is_ok() {
                any::<i64>()
                    .prop_map(move |v| (name.clone(), Json::Int(v)))
                    .boxed()
            } else {
                counter()
                    .prop_map(move |v| (name.clone(), Json::Int(v as i64)))
                    .boxed()
            }
        })
        .collect();
    fields.prop_map(|fields| {
        let object = Json::Obj(fields.into_iter().collect());
        let set = T::from_json(&object).unwrap();
        assert_eq!(set.to_json(), object);
        set
    })
}

fn arb_worker() -> impl Strategy<Value = WorkerMetrics> {
    (
        (any::<u32>(), 0..4usize),
        proptest::collection::vec(counter(), 4..5),
        (
            proptest::collection::vec(arb_set::<LevelSnapshot>(), 0..6),
            counter(),
            counter(),
        ),
        arb_set::<WakeupSnapshot>(),
        arb_set::<PoolSnapshot>(),
    )
        .prop_map(
            |((node, state), drivers, (levels, demotions, promotions), wakeups, memory)| {
                WorkerMetrics {
                    node,
                    state: ["active", "draining", "lost", "shutdown"][state].to_string(),
                    busy_nanos: drivers[0],
                    running_drivers: drivers[1],
                    blocked_drivers: drivers[2],
                    queued_drivers: drivers[3],
                    scheduler: SchedulerSnapshot {
                        levels,
                        demotions,
                        promotions,
                    },
                    wakeups,
                    memory,
                }
            },
        )
}

fn arb_cache() -> impl Strategy<Value = CacheLayerMetrics> {
    ("[a-z_]{1,12}", arb_set::<CacheCounters>())
        .prop_map(|(layer, counters)| CacheLayerMetrics { layer, counters })
}

fn arb_snapshot() -> impl Strategy<Value = ClusterSnapshot> {
    (
        (counter(), counter(), counter()),
        proptest::collection::vec(arb_worker(), 0..4),
        (arb_set::<ShuffleMetrics>(), arb_set::<QueryGauges>()),
        (
            arb_set::<DynamicFilterMetrics>(),
            arb_set::<FusionMetrics>(),
            arb_set::<SpillMetrics>(),
        ),
        proptest::collection::vec(arb_cache(), 0..3),
        (
            arb_set::<LatencySummary>(),
            arb_set::<LatencySummary>(),
            arb_set::<LatencySummary>(),
        ),
    )
        .prop_map(
            |(
                (uptime_nanos, trace_events, trace_overwritten),
                workers,
                (shuffle, queries),
                (dynamic_filters, fusion, spill),
                caches,
                (queued, planning, execution),
            )| ClusterSnapshot {
                uptime_nanos,
                workers,
                shuffle,
                queries,
                dynamic_filters,
                fusion,
                spill,
                caches,
                latency: QueryLatencyMetrics {
                    queued,
                    planning,
                    execution,
                },
                trace_events,
                trace_overwritten,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Walks every set declared with a JSON shape: each is a field of the
    /// snapshot, generated over its own declaration by `arb_set`.
    #[test]
    fn snapshot_json_round_trip(snap in arb_snapshot()) {
        let text = snap.to_json().to_string();
        let back = ClusterSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back, snap);
    }
}
