//! End-to-end cluster tests: SQL in, rows out, across multiple workers.

#![allow(clippy::unwrap_used)]

use presto_cluster::ClusterConfig;
use presto_common::chaos::{Effect, FaultPlane, Site, Trigger};
use presto_common::{DataType, Schema, Session, Value};
use presto_connector::CatalogManager;
use presto_connector::ConnectorMetadata;
use presto_connectors::{MemoryConnector, RaptorConnector, ShardedSqlConnector};
use presto_testkit::{memory_catalog, run_sorted, sorted, ScratchDir, TestCluster, GRACE};
use std::sync::Arc;
use std::time::Duration;

fn test_catalogs() -> (CatalogManager, Arc<MemoryConnector>) {
    let orders: Vec<Vec<Value>> = (0..1000)
        .map(|i| {
            vec![
                Value::Bigint(i),
                Value::Bigint(i % 100),
                Value::Double((i % 500) as f64),
                Value::varchar(if i % 2 == 0 { "O" } else { "F" }),
            ]
        })
        .collect();
    let lineitem: Vec<Vec<Value>> = (0..5000)
        .map(|i| {
            vec![
                Value::Bigint(i % 1000),
                Value::Double(0.05),
                Value::Double((i % 10) as f64),
            ]
        })
        .collect();
    // Several pages per table, so scans parallelize.
    let orders_schema = Schema::of(&[
        ("orderkey", DataType::Bigint),
        ("custkey", DataType::Bigint),
        ("totalprice", DataType::Double),
        ("orderstatus", DataType::Varchar),
    ]);
    let lineitem_schema = Schema::of(&[
        ("orderkey", DataType::Bigint),
        ("tax", DataType::Double),
        ("discount", DataType::Double),
    ]);
    memory_catalog()
        .table("orders", orders_schema, &orders, 100)
        .table("lineitem", lineitem_schema, &lineitem, 500)
        .build()
}

fn cluster() -> (TestCluster, Arc<MemoryConnector>) {
    let (catalogs, mem) = test_catalogs();
    (TestCluster::start(ClusterConfig::test(), catalogs), mem)
}

#[test]
fn select_star_returns_all_rows() {
    let (c, _) = cluster();
    let out = c.execute("SELECT * FROM orders").unwrap();
    assert_eq!(out.row_count(), 1000);
    assert_eq!(out.schema.len(), 4);
}

#[test]
fn filter_and_projection() {
    let (c, _) = cluster();
    let out = c
        .execute("SELECT orderkey, totalprice * 2.0 AS doubled FROM orders WHERE orderkey < 5")
        .unwrap();
    let rows = sorted(out.rows());
    assert_eq!(rows.len(), 5);
    assert_eq!(rows[3], vec![Value::Bigint(3), Value::Double(6.0)]);
    assert_eq!(out.schema.field(1).name, "doubled");
}

#[test]
fn global_aggregation() {
    let (c, _) = cluster();
    let out = c
        .execute("SELECT COUNT(*), SUM(totalprice), MIN(orderkey), MAX(orderkey) FROM orders")
        .unwrap();
    let rows = out.rows();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::Bigint(1000));
    let expected_sum: f64 = (0..1000).map(|i| (i % 500) as f64).sum();
    assert_eq!(rows[0][1], Value::Double(expected_sum));
    assert_eq!(rows[0][2], Value::Bigint(0));
    assert_eq!(rows[0][3], Value::Bigint(999));
}

#[test]
fn group_by_aggregation() {
    let (c, _) = cluster();
    let out = c
        .execute(
            "SELECT orderstatus, COUNT(*) AS n, AVG(totalprice) FROM orders GROUP BY orderstatus",
        )
        .unwrap();
    let rows = sorted(out.rows());
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Value::varchar("F"));
    assert_eq!(rows[0][1], Value::Bigint(500));
    assert_eq!(rows[1][0], Value::varchar("O"));
}

#[test]
fn the_paper_example_query() {
    // §IV-B3's running example (Fig. 2/3), adapted to the test data.
    let (c, _) = cluster();
    let out = c
        .execute(
            "SELECT orders.orderkey, SUM(tax) \
             FROM orders \
             LEFT JOIN lineitem ON orders.orderkey = lineitem.orderkey \
             WHERE discount = 0 \
             GROUP BY orders.orderkey",
        )
        .unwrap();
    // lineitem rows with discount = 0: i % 10 == 0 → 500 rows over orderkeys
    // (i % 1000) ∈ {0, 10, ..., 990}; WHERE filters the join so only
    // matching orders survive the (filtered) left join… with WHERE on the
    // right side the left join degenerates to inner semantics for non-null
    // rows, leaving 500 distinct orderkeys × SUM(tax).
    assert_eq!(out.row_count(), 100);
    for row in out.rows() {
        assert_eq!(row[1], Value::Double(0.05 * 5.0));
    }
}

#[test]
fn inner_join_with_aggregation() {
    let (c, _) = cluster();
    let out = c
        .execute(
            "SELECT o.orderstatus, COUNT(*) AS n \
             FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey \
             GROUP BY o.orderstatus ORDER BY o.orderstatus",
        )
        .unwrap();
    let rows = out.rows();
    assert_eq!(rows.len(), 2);
    // 5000 lineitem rows, each matching exactly one order.
    let total: i64 = rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
    assert_eq!(total, 5000);
    // ORDER BY respected.
    assert_eq!(rows[0][0], Value::varchar("F"));
}

#[test]
fn order_by_and_limit() {
    let (c, _) = cluster();
    let out = c
        .execute("SELECT orderkey, totalprice FROM orders ORDER BY orderkey DESC LIMIT 3")
        .unwrap();
    let rows = out.rows();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0][0], Value::Bigint(999));
    assert_eq!(rows[1][0], Value::Bigint(998));
    assert_eq!(rows[2][0], Value::Bigint(997));
}

#[test]
fn distinct_and_in_list() {
    let (c, _) = cluster();
    let out = c
        .execute("SELECT DISTINCT orderstatus FROM orders WHERE custkey IN (1, 2, 3)")
        .unwrap();
    let rows = sorted(out.rows());
    assert_eq!(rows.len(), 2);
}

#[test]
fn window_functions() {
    let (c, _) = cluster();
    let out = c
        .execute(
            "SELECT orderkey, orderstatus, \
             row_number() OVER (PARTITION BY orderstatus ORDER BY orderkey) AS rn \
             FROM orders WHERE orderkey < 10",
        )
        .unwrap();
    let mut rows = out.rows();
    rows.sort_by_key(|r| r[0].as_i64());
    assert_eq!(rows.len(), 10);
    // orderkey 0 is the first "O"; orderkey 1 the first "F".
    assert_eq!(rows[0][2], Value::Bigint(1));
    assert_eq!(rows[1][2], Value::Bigint(1));
    assert_eq!(rows[2][2], Value::Bigint(2));
}

#[test]
fn union_all_combines() {
    let (c, _) = cluster();
    let out = c
        .execute(
            "SELECT orderkey FROM orders WHERE orderkey < 3 \
             UNION ALL SELECT orderkey FROM orders WHERE orderkey >= 997",
        )
        .unwrap();
    assert_eq!(out.row_count(), 6);
}

#[test]
fn insert_into_select() {
    let (c, mem) = cluster();
    mem.create_table(
        "orders_copy",
        &Schema::of(&[
            ("orderkey", DataType::Bigint),
            ("custkey", DataType::Bigint),
            ("totalprice", DataType::Double),
            ("orderstatus", DataType::Varchar),
        ]),
    )
    .unwrap();
    let out = c
        .execute("INSERT INTO orders_copy SELECT * FROM orders")
        .unwrap();
    assert_eq!(out.rows()[0][0], Value::Bigint(1000));
    assert_eq!(mem.row_count("orders_copy"), 1000);
    // And the copy is queryable.
    let check = c.execute("SELECT COUNT(*) FROM orders_copy").unwrap();
    assert_eq!(check.rows()[0][0], Value::Bigint(1000));
}

#[test]
fn explain_returns_plan_text() {
    let (c, _) = cluster();
    let out = c
        .execute("EXPLAIN SELECT custkey, COUNT(*) FROM orders GROUP BY custkey")
        .unwrap();
    let text = out.rows()[0][0].as_str().unwrap().to_string();
    assert!(text.contains("Fragment"), "{text}");
    assert!(text.contains("Aggregate"), "{text}");
}

#[test]
fn user_errors_are_reported() {
    let (c, _) = cluster();
    for sql in [
        "SELECT nosuch FROM orders",
        "SELECT * FROM missing_table",
        "this is not sql",
        "SELECT orderkey / 0 FROM orders",
    ] {
        let err = c.execute(sql).unwrap_err();
        assert_eq!(err.error.code, presto_common::ErrorCode::User, "{sql}");
    }
    // The cluster still works afterwards.
    assert_eq!(
        c.execute("SELECT 1").unwrap().rows()[0][0],
        Value::Bigint(1)
    );
}

#[test]
fn concurrent_queries() {
    let (c, _) = cluster();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            c.submit(
                format!("SELECT COUNT(*) FROM orders WHERE custkey = {}", i % 5),
                Session::default(),
            )
        })
        .collect();
    for h in handles {
        let out = h.join().unwrap().unwrap();
        assert_eq!(out.rows()[0][0], Value::Bigint(10));
    }
    assert_eq!(c.telemetry().finished_queries(), 8);
}

#[test]
fn transient_connector_failures_recovered_by_retries() {
    let (catalogs, _) = test_catalogs();
    // Every 2nd split open fails.
    let plane =
        Arc::new(FaultPlane::new(0).rule(Site::SplitOpen, Trigger::Every(2), Effect::Transient));
    let c = TestCluster::start(faulty_config(&plane), catalogs);
    let out = c.execute("SELECT COUNT(*) FROM orders").unwrap();
    assert_eq!(out.rows()[0][0], Value::Bigint(1000));
    assert!(plane.fired(Site::SplitOpen) > 0, "chaos should have fired");
}

fn faulty_config(plane: &Arc<FaultPlane>) -> ClusterConfig {
    ClusterConfig {
        faults: Some(Arc::clone(plane)),
        ..ClusterConfig::test()
    }
}

/// Exchange retries and bytes received are cluster-lifetime totals: a
/// query that healed through decode retries still shows them once it has
/// returned and its tasks have retired.
#[test]
fn shuffle_counters_outlive_the_query() {
    let (catalogs, _) = test_catalogs();
    let plane =
        Arc::new(FaultPlane::new(0).rule(Site::FrameDecode, Trigger::First(2), Effect::Transient));
    let c = TestCluster::start(faulty_config(&plane), catalogs);
    let out = c
        .execute("SELECT custkey, COUNT(*) FROM orders GROUP BY custkey")
        .unwrap();
    assert_eq!(out.row_count(), 100);
    assert_eq!(plane.fired(Site::FrameDecode), 2);
    c.quiescent_within(GRACE);
    let shuffle = c.metrics_snapshot().shuffle;
    assert!(shuffle.retries >= 2, "{shuffle:?}");
    assert!(shuffle.wire_bytes_received > 0, "{shuffle:?}");
    assert!(shuffle.logical_bytes_received > 0, "{shuffle:?}");
    assert_eq!(shuffle.exchange_buffered_bytes, 0, "{shuffle:?}");
    assert_eq!(shuffle.in_flight_requests, 0, "{shuffle:?}");
}

/// Same-worker edges hand pages over and cross-worker edges frame them. A
/// partitioned join on two workers takes both paths; on one worker every
/// edge is local. Both return the rows of the all-off reference (one
/// worker, no fusion, no dynamic filters, interpreted expressions).
#[test]
fn hash_join_rows_hold_across_local_and_framed_edges() {
    let sql = "SELECT o.custkey, COUNT(*), SUM(l.orderkey) FROM orders o \
               JOIN lineitem l ON o.orderkey = l.orderkey GROUP BY o.custkey";
    let partitioned = Session {
        join_distribution: presto_common::session::JoinDistribution::Partitioned,
        ..Session::default()
    };
    let reference = Session {
        pipeline_fusion: false,
        dynamic_filtering: false,
        compiled_expressions: false,
        ..partitioned.clone()
    };
    // (sorted rows, framed pages and handed-over pages between stages).
    let run = |workers: usize, session: &Session| {
        let (catalogs, _) = test_catalogs();
        let config = ClusterConfig {
            workers,
            ..ClusterConfig::test()
        };
        let c = TestCluster::start(config, catalogs);
        let out = c.execute_with_session(sql, session).unwrap();
        let mut rows = out.rows();
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        c.quiescent_within(GRACE);
        let entry = c.query_history().get(out.query).unwrap();
        // The root stage's output is the result drain, framed by design.
        let root = entry.tasks.iter().map(|t| t.stage).max();
        let edges = entry.tasks.iter().filter(|t| Some(t.stage) != root);
        let (framed, local) =
            edges.fold((0, 0), |(f, l), t| (f + t.output_pages, l + t.local_pages));
        (rows, framed, local)
    };
    let (want, _, _) = run(1, &reference);
    assert_eq!(want.len(), 100);
    let (two, framed, local) = run(2, &partitioned);
    assert!(framed > 0 && local > 0, "framed={framed} local={local}");
    assert_eq!(two, want, "two workers");
    let (one, framed, local) = run(1, &partitioned);
    assert!(framed == 0 && local > 0, "framed={framed} local={local}");
    assert_eq!(one, want, "one worker");
}

/// A permanent split-open fault fails the query at once with a
/// non-retryable error: neither the scan's low-level retry nor the
/// coordinator's query retry runs it again.
#[test]
fn permanent_split_failure_fails_the_query_without_retries() {
    let (catalogs, _) = test_catalogs();
    let plane =
        Arc::new(FaultPlane::new(0).rule(Site::SplitOpen, Trigger::First(1), Effect::Permanent));
    let c = TestCluster::start(faulty_config(&plane), catalogs);
    let session = Session {
        query_retry_attempts: 2,
        ..Session::default()
    };
    let err = c
        .execute_with_session("SELECT COUNT(*) FROM orders", &session)
        .unwrap_err();
    assert!(!err.error.is_retryable(), "{err}");
    assert!(err.error.message.contains("injected permanent"), "{err}");
    assert_eq!(plane.fired(Site::SplitOpen), 1);
    assert_eq!(c.query_history().get(err.query).unwrap().attempts, 1);
    c.assert_no_lost_wakeups();
}

#[test]
fn worker_crash_fails_running_queries() {
    let (catalogs, _) = test_catalogs();
    let c = TestCluster::start(ClusterConfig::test(), catalogs);
    // A long-running-ish query stream.
    let handle = c.submit(
        "SELECT o1.orderkey FROM orders o1 CROSS JOIN orders o2 WHERE o1.orderkey + o2.orderkey = 100000",
        Session::default(),
    );
    std::thread::sleep(std::time::Duration::from_millis(20));
    c.kill_worker(0);
    // The query either failed with the retryable worker-loss error, or had
    // already raced to completion (acceptable).
    if let Err(e) = handle.join().unwrap() {
        assert!(
            matches!(e.error.code, presto_common::ErrorCode::WorkerFailed),
            "{e}"
        );
        assert!(e.error.is_retryable(), "worker loss must be retryable");
    }
    // New queries on remaining workers still work? (Dead node keeps its
    // tasks failing; the cluster has no resurrection, matching the paper.)
}

#[test]
fn memory_limit_kills_query() {
    let (catalogs, _) = test_catalogs();
    let c = TestCluster::start(ClusterConfig::test(), catalogs);
    let session = Session {
        query_max_memory_per_node: 1, // absurd: first reservation dies
        ..Session::default()
    };
    let err = c
        .execute_with_session(
            "SELECT custkey, COUNT(*) FROM orders GROUP BY custkey",
            &session,
        )
        .unwrap_err();
    assert_eq!(
        err.error.code,
        presto_common::ErrorCode::InsufficientResources
    );
}

#[test]
fn spill_enables_memory_constrained_aggregation() {
    let (catalogs, _) = test_catalogs();
    let c = TestCluster::start(ClusterConfig::test(), catalogs);
    let session = Session {
        spill_enabled: true,
        ..Session::default()
    };
    let out = c
        .execute_with_session(
            "SELECT custkey, COUNT(*) FROM orders GROUP BY custkey",
            &session,
        )
        .unwrap();
    assert_eq!(out.row_count(), 100);
}

/// A cluster whose node pools are small enough that any sizeable hash
/// build or aggregation exhausts them, forcing §IV-F2 revocation + spill.
fn tiny_memory_config() -> ClusterConfig {
    ClusterConfig {
        node_memory_bytes: 8 << 10,
        reserved_pool_bytes: 8 << 10,
        ..ClusterConfig::test()
    }
}

/// Catalogs with one more table, `events`, whose `GROUP BY k` state no
/// pool of [`tiny_memory_config`] can hold: 8 000 distinct keys are ≈ 2 000
/// groups (tens of KB) per final-aggregation task against 8 KiB pools. The
/// 1 000 groups of `orders` squeeze into the reserved pool when the query
/// is promoted before any driver has published revocable bytes and its
/// tasks happen not to overlap, and then nothing spills; here a final
/// aggregation must spill to finish, whatever order drivers run in.
fn catalogs_with_unholdable_groups() -> CatalogManager {
    let (catalogs, mem) = test_catalogs();
    let schema = Schema::of(&[("k", DataType::Bigint), ("v", DataType::Double)]);
    let rows: Vec<Vec<Value>> = (0..8000)
        .map(|i| vec![Value::Bigint(i), Value::Double(1.0)])
        .collect();
    let pages = rows
        .chunks(100)
        .map(|chunk| presto_page::Page::from_rows(&schema, chunk))
        .collect();
    mem.load_table("events", schema, pages);
    catalogs
}

const UNHOLDABLE_GROUPS_SQL: &str = "SELECT k, COUNT(*), SUM(v) FROM events GROUP BY k";

/// The acceptance scenario: under a memory budget far below the working
/// set, a spilling query produces results identical to an unconstrained
/// run, the snapshot reports the spill totals and the session knobs, and
/// normal completion leaves zero run files in the spill directory.
#[test]
fn spilling_query_matches_unconstrained_run_and_cleans_up() {
    let dir = ScratchDir::new("spill-agg-join");
    let sql = "SELECT o.orderkey, COUNT(*), SUM(l.tax) FROM orders o \
               JOIN lineitem l ON o.orderkey = l.orderkey \
               GROUP BY o.orderkey";
    let (catalogs, _) = test_catalogs();
    let c = TestCluster::start(tiny_memory_config(), catalogs);
    let session = Session {
        spill_enabled: true,
        spill_dir: Some(dir.to_path_buf()),
        spill_max_bytes: 64 << 20,
        ..Session::default()
    };
    let constrained = c.execute_with_session(sql, &session).unwrap();
    let (reference_catalogs, _) = test_catalogs();
    let unconstrained = TestCluster::start(ClusterConfig::test(), reference_catalogs);
    let reference = unconstrained.execute(sql).unwrap();
    assert_eq!(
        sorted(constrained.rows()),
        sorted(reference.rows()),
        "spilled results must match the unconstrained run"
    );

    let snap = c.metrics_snapshot();
    assert_eq!(snap.lost_wakeups(), 0);
    assert!(snap.spill.spilled_bytes > 0, "query should have spilled");
    assert!(snap.spill.spill_events > 0);
    assert!(snap.spill.queries_spilled >= 1);
    // Satellite: the session's spill knobs echo through the snapshot.
    assert_eq!(snap.spill.spill_dir, dir.display().to_string());
    assert_eq!(snap.spill.spill_max_bytes, 64 << 20);
    // Revocation-before-promotion leaves its audit trail on the pools.
    let requests: i64 = snap
        .workers
        .iter()
        .map(|w| w.memory.revocation_requests)
        .sum();
    assert!(requests >= 0);
    // Normal completion re-ingested or deleted every run file.
    assert_eq!(dir.file_count(), 0, "no run files may remain");
}

/// Chaos: spill writes fail transiently — every one, or every third, so
/// that some run files exist when the failure lands. The query must surface
/// a retryable error (§IV-G), not hang or corrupt results, and leave no
/// file behind.
#[test]
fn spill_write_failure_surfaces_retryable_error() {
    for every in [1, 3] {
        let dir = ScratchDir::new(&format!("spill-chaos-write-{every}"));
        let plane = Arc::new(FaultPlane::new(0).rule(
            Site::SpillWrite,
            Trigger::Every(every),
            Effect::Transient,
        ));
        let config = ClusterConfig {
            faults: Some(Arc::clone(&plane)),
            ..tiny_memory_config()
        };
        let c = TestCluster::start(config, catalogs_with_unholdable_groups());
        let session = Session {
            spill_enabled: true,
            spill_dir: Some(dir.to_path_buf()),
            ..Session::default()
        };
        let err = c
            .execute_with_session(UNHOLDABLE_GROUPS_SQL, &session)
            .unwrap_err();
        assert!(
            err.error.is_retryable(),
            "spill write failure should be retryable, got {:?}",
            err.error
        );
        assert!(plane.fired(Site::SpillWrite) > 0);
        c.quiescent_within(GRACE);
        assert_eq!(dir.file_count(), 0, "failed query must clean up");
    }
}

/// Cancelling a spilling query while one of its run files is on disk
/// ends quiescent: every worker's spill-file gauge reads zero again and the
/// spill directory is empty. A run that finishes before any file appears
/// is repeated, up to 20 times.
#[test]
fn cancelled_spilling_query_leaves_no_spill_files() {
    let dir = ScratchDir::new("spill-cancel");
    let (catalogs, _) = test_catalogs();
    let c = TestCluster::start(tiny_memory_config(), catalogs);
    let session = Session {
        spill_enabled: true,
        spill_dir: Some(dir.to_path_buf()),
        ..Session::default()
    };
    let sql = "SELECT o.orderkey, COUNT(*), SUM(l.tax) FROM orders o \
               JOIN lineitem l ON o.orderkey = l.orderkey \
               GROUP BY o.orderkey";
    let mut cancelled_mid_spill = false;
    for _ in 0..20 {
        let handle = c.submit(sql, session.clone());
        while !handle.is_finished() {
            if c.worker_spill_files().iter().any(|&n| n > 0) {
                let live = c.active_queries();
                cancelled_mid_spill = live.iter().any(|&q| c.cancel_query(q));
                break;
            }
            std::thread::yield_now();
        }
        if let Err(e) = handle.join().unwrap() {
            assert_eq!(e.error.code, presto_common::ErrorCode::Killed, "{e}");
        }
        c.quiescent_within(GRACE);
        assert_eq!(dir.file_count(), 0, "spill files left in {:?}", &*dir);
        if cancelled_mid_spill {
            break;
        }
    }
    assert!(
        cancelled_mid_spill,
        "no cancel landed while a run file was live"
    );
}

#[test]
fn phased_scheduling_produces_same_results() {
    let (c, _) = cluster();
    let mut session = Session::default();
    session.scheduling_policy = presto_common::session::SchedulingPolicy::Phased;
    let phased = c
        .execute_with_session(
            "SELECT o.orderstatus, COUNT(*) FROM orders o JOIN lineitem l \
             ON o.orderkey = l.orderkey GROUP BY o.orderstatus",
            &session,
        )
        .unwrap();
    let allatonce = c
        .execute(
            "SELECT o.orderstatus, COUNT(*) FROM orders o JOIN lineitem l \
             ON o.orderkey = l.orderkey GROUP BY o.orderstatus",
        )
        .unwrap();
    assert_eq!(sorted(phased.rows()), sorted(allatonce.rows()));
}

#[test]
fn raptor_co_located_join_end_to_end() {
    let dir = ScratchDir::new("raptor-e2e");
    let nodes: Vec<presto_common::NodeId> = (0..2).map(presto_common::NodeId).collect();
    let raptor = RaptorConnector::new(&dir, nodes).unwrap();
    let schema = Schema::of(&[("uid", DataType::Bigint), ("v", DataType::Bigint)]);
    raptor
        .create_bucketed_table("exposure", &schema, vec![0], 4)
        .unwrap();
    raptor
        .create_bucketed_table("conversion", &schema, vec![0], 4)
        .unwrap();
    let rows: Vec<Vec<Value>> = (0..200)
        .map(|i| vec![Value::Bigint(i % 50), Value::Bigint(i)])
        .collect();
    raptor
        .load_table("exposure", &[presto_page::Page::from_rows(&schema, &rows)])
        .unwrap();
    raptor
        .load_table(
            "conversion",
            &[presto_page::Page::from_rows(&schema, &rows)],
        )
        .unwrap();
    let mut catalogs = CatalogManager::new();
    catalogs.register("raptor", raptor as Arc<dyn presto_connector::Connector>);
    let c = TestCluster::start(ClusterConfig::test(), catalogs);
    let session = Session::for_catalog("raptor");
    let out = c
        .execute_with_session(
            "SELECT COUNT(*) FROM exposure e JOIN conversion c ON e.uid = c.uid",
            &session,
        )
        .unwrap();
    // Each uid occurs 4 times in each table → 50 uids × 16 pairs.
    assert_eq!(out.rows()[0][0], Value::Bigint(800));
}

#[test]
fn sharded_sql_index_join_end_to_end() {
    let sharded = ShardedSqlConnector::new(4);
    let ads_schema = Schema::of(&[("ad_id", DataType::Bigint), ("clicks", DataType::Bigint)]);
    let rows: Vec<Vec<Value>> = (0..10_000)
        .map(|i| vec![Value::Bigint(i % 100), Value::Bigint(1)])
        .collect();
    sharded.load_table("ads", ads_schema, 0, &rows);
    let (catalogs, mem) = test_catalogs();
    let mut catalogs = catalogs;
    catalogs.register("sharded", sharded as Arc<dyn presto_connector::Connector>);
    mem.load_rows(
        "targets",
        Schema::of(&[("id", DataType::Bigint)]),
        &[vec![Value::Bigint(7)], vec![Value::Bigint(9)]],
    );
    mem.analyze("targets").unwrap();
    let c = TestCluster::start(ClusterConfig::test(), catalogs);
    let out = c
        .execute("SELECT SUM(a.clicks) FROM targets t JOIN sharded.ads a ON t.id = a.ad_id")
        .unwrap();
    // Each ad_id occurs 100 times with clicks = 1.
    assert_eq!(out.rows()[0][0], Value::Bigint(200));
}

#[test]
fn queue_policy_limits_concurrency() {
    let (catalogs, _) = test_catalogs();
    let config = ClusterConfig {
        max_concurrent_queries: 1,
        ..ClusterConfig::test()
    };
    let c = TestCluster::start(config, catalogs);
    let handles: Vec<_> = (0..4)
        .map(|_| c.submit("SELECT COUNT(*) FROM orders", Session::default()))
        .collect();
    for h in handles {
        assert!(h.join().unwrap().is_ok());
    }
    // With concurrency 1, at least some queries queued before running.
    let entries = c.query_history().snapshot();
    assert!(entries
        .iter()
        .any(|e| e.queued > std::time::Duration::from_micros(50)));
}

#[test]
fn case_cast_and_functions_end_to_end() {
    let (c, _) = cluster();
    let out = c
        .execute(
            "SELECT CASE WHEN orderstatus = 'O' THEN upper('open') ELSE 'final' END AS label, \
             CAST(orderkey AS varchar) AS key_text, \
             abs(totalprice - 100.0) AS dist \
             FROM orders WHERE orderkey = 2",
        )
        .unwrap();
    let rows = out.rows();
    assert_eq!(rows[0][0], Value::varchar("OPEN"));
    assert_eq!(rows[0][1], Value::varchar("2"));
    assert_eq!(rows[0][2], Value::Double(98.0));
}

#[test]
fn having_filters_groups() {
    let (c, _) = cluster();
    let out = c
        .execute("SELECT custkey, COUNT(*) AS n FROM orders GROUP BY custkey HAVING COUNT(*) >= 10")
        .unwrap();
    assert_eq!(out.row_count(), 100, "every custkey has exactly 10 orders");
    let out = c
        .execute("SELECT custkey, COUNT(*) AS n FROM orders GROUP BY custkey HAVING COUNT(*) > 10")
        .unwrap();
    assert_eq!(out.row_count(), 0);
}

/// Dynamic filtering end-to-end (tentpole): a selective dimension build
/// side narrows a Hive fact scan. The filtered run must return exactly the
/// rows of the unfiltered run while pruning work at the split, stripe, or
/// row level, and the filter publication must reach cluster telemetry.
#[test]
fn dynamic_filtering_prunes_and_matches_baseline() {
    use presto_connectors::HiveConnector;
    let dir = ScratchDir::new("df-cluster");
    let hive = HiveConnector::new(&dir).unwrap();
    let fact_schema = Schema::of(&[("k", DataType::Bigint), ("v", DataType::Bigint)]);
    // Clustered ascending on k so stripe min/max summaries are narrow.
    let fact: Vec<Vec<Value>> = (0..20_000i64)
        .map(|i| vec![Value::Bigint(i / 4), Value::Bigint(i)])
        .collect();
    let pages: Vec<presto_page::Page> = fact
        .chunks(1000)
        .map(|c| presto_page::Page::from_rows(&fact_schema, c))
        .collect();
    hive.load_table("fact", fact_schema, &pages).unwrap();
    let dim_schema = Schema::of(&[("k", DataType::Bigint)]);
    let dim: Vec<Vec<Value>> = (4900..5000i64).map(|k| vec![Value::Bigint(k)]).collect();
    hive.load_table(
        "dim",
        dim_schema.clone(),
        &[presto_page::Page::from_rows(&dim_schema, &dim)],
    )
    .unwrap();
    let mut catalogs = CatalogManager::new();
    catalogs.register(
        "hive",
        Arc::clone(&hive) as Arc<dyn presto_connector::Connector>,
    );
    let c = TestCluster::start(ClusterConfig::test(), catalogs);
    let sql = "SELECT f.v FROM fact f JOIN dim d ON f.k = d.k";
    let mut off = Session::for_catalog("hive");
    off.dynamic_filtering = false;
    let mut on = Session::for_catalog("hive");
    on.dynamic_filter_wait = std::time::Duration::from_secs(5);
    let baseline = c.execute_with_session(sql, &off).unwrap();
    let before = c.telemetry().dynamic_filter_metrics();
    assert_eq!(
        before.filters_published, 0,
        "disabled run publishes nothing"
    );
    let filtered = c.execute_with_session(sql, &on).unwrap();
    let expect = sorted(baseline.rows());
    let got = sorted(filtered.rows());
    assert_eq!(got.len(), 400, "100 dim keys x 4 fact rows each");
    assert_eq!(got, expect, "dynamic filtering must not change results");
    let m = c.telemetry().dynamic_filter_metrics();
    assert!(m.filters_published >= 1, "join build published a filter");
    assert!(
        m.splits_pruned + m.stripes_pruned + m.rows_filtered > 0,
        "filter pruned at some level: {m:?}"
    );
}

/// Dynamic filtering cuts what a Hive/PORC probe scan reads: a fact table
/// clustered on the join key (8 rows per key, a padded varchar column)
/// joins a dimension holding 1 % of the keys, and with filtering on the
/// scan reads at most a third of the bytes it reads with filtering off.
#[test]
fn dynamic_filtering_cuts_hive_scan_bytes_threefold() {
    use presto_connectors::HiveConnector;
    use presto_page::Page;
    let dir = ScratchDir::new("df-bytes");
    let hive = HiveConnector::new(&dir).unwrap();
    let fact_schema = Schema::of(&[
        ("fk", DataType::Bigint),
        ("v", DataType::Bigint),
        ("pad", DataType::Varchar),
    ]);
    let fact: Vec<Vec<Value>> = (0..120_000i64)
        .map(|i| {
            let pad = format!("row-{i:012}-padding-padding-padding");
            vec![Value::Bigint(i / 8), Value::Bigint(i), Value::varchar(pad)]
        })
        .collect();
    let pages: Vec<Page> = fact
        .chunks(1000)
        .map(|c| Page::from_rows(&fact_schema, c))
        .collect();
    hive.load_table("fact", fact_schema, &pages).unwrap();
    let dim_schema = Schema::of(&[("k", DataType::Bigint)]);
    let dim: Vec<Vec<Value>> = (13_500..13_650i64)
        .map(|k| vec![Value::Bigint(k)])
        .collect();
    let dim_page = Page::from_rows(&dim_schema, &dim);
    hive.load_table("dim", dim_schema, &[dim_page]).unwrap();
    let mut catalogs = CatalogManager::new();
    catalogs.register(
        "hive",
        Arc::clone(&hive) as Arc<dyn presto_connector::Connector>,
    );
    let c = TestCluster::start(ClusterConfig::test(), catalogs);
    let sql = "SELECT f.v FROM fact f JOIN dim d ON f.fk = d.k";
    let scan = |dynamic_filtering: bool| {
        let session = Session {
            dynamic_filtering,
            dynamic_filter_wait: Duration::from_secs(5),
            ..Session::for_catalog("hive")
        };
        let before = hive.io_stats().snapshot().0;
        let rows = run_sorted(&c, sql, &session);
        (rows, hive.io_stats().snapshot().0 - before)
    };
    let (rows_off, bytes_off) = scan(false);
    let (rows_on, bytes_on) = scan(true);
    assert_eq!(rows_on.len(), 1200, "150 dim keys x 8 fact rows each");
    assert_eq!(
        rows_on, rows_off,
        "dynamic filtering must not change results"
    );
    assert!(
        bytes_on * 3 <= bytes_off,
        "scan bytes {bytes_on} with filtering, {bytes_off} without"
    );
}

/// Dynamic filtering on every key type: a Hive fact table joins a small
/// dimension on a varchar (`''` and multi-byte keys), double (`-0.0` in the
/// dimension meets `0.0` in the fact table), date, timestamp and bigint
/// (from 2^53, where `f64` stops holding every integer) key. The fact
/// keys cycle through 200 values, so every stripe spans them all and only
/// the row check can prune. Filtered and unfiltered runs return the same
/// rows, and each key type's filter drops rows.
#[test]
fn dynamic_filtering_checks_rows_on_every_key_type() {
    use presto_connectors::HiveConnector;
    use presto_page::Page;
    let dir = ScratchDir::new("df-types");
    let hive = HiveConnector::new(&dir).unwrap();
    let day0 = presto_common::time::days_from_civil(2021, 1, 1);
    // Key `j` of each type, as the fact table holds it.
    let keys = |j: i64| {
        let text = match j {
            0 => String::new(),
            _ if j % 2 == 1 => format!("日本{j}"),
            _ => format!("é{j}"),
        };
        vec![
            Value::varchar(text),
            Value::Double(j as f64 * 0.5),
            Value::Date(day0 + j),
            Value::Timestamp((day0 + j) * 86_400_000 + j * 3_600_000),
            Value::Bigint((1 << 53) + j),
        ]
    };
    let columns = [
        ("kv", DataType::Varchar),
        ("kd", DataType::Double),
        ("kdt", DataType::Date),
        ("kts", DataType::Timestamp),
        ("kb", DataType::Bigint),
    ];
    let fact_schema = Schema::of(&[&columns[..], &[("v", DataType::Bigint)]].concat());
    let fact: Vec<Vec<Value>> = (0..4000i64)
        .map(|i| [keys(i % 200), vec![Value::Bigint(i)]].concat())
        .collect();
    let pages: Vec<Page> = fact
        .chunks(500)
        .map(|c| Page::from_rows(&fact_schema, c))
        .collect();
    hive.load_table("fact", fact_schema, &pages).unwrap();
    // 21 dimension keys: 0, 1 and every tenth.
    let dim_keys: Vec<i64> = [0, 1].into_iter().chain((10..200).step_by(10)).collect();
    for (c, (name, data_type)) in columns.iter().enumerate() {
        let schema = Schema::of(&[("k", *data_type)]);
        let rows: Vec<Vec<Value>> = dim_keys
            .iter()
            .map(|&j| match keys(j).swap_remove(c) {
                Value::Double(0.0) => vec![Value::Double(-0.0)],
                key => vec![key],
            })
            .collect();
        let table = format!("dim_{name}");
        hive.load_table(&table, schema.clone(), &[Page::from_rows(&schema, &rows)])
            .unwrap();
    }
    let mut catalogs = CatalogManager::new();
    catalogs.register(
        "hive",
        Arc::clone(&hive) as Arc<dyn presto_connector::Connector>,
    );
    let c = TestCluster::start(ClusterConfig::test(), catalogs);
    let mut off = Session::for_catalog("hive");
    off.dynamic_filtering = false;
    let mut on = Session::for_catalog("hive");
    on.dynamic_filter_wait = Duration::from_secs(5);
    for (name, _) in columns {
        let sql = format!("SELECT f.v FROM fact f JOIN dim_{name} d ON f.{name} = d.k");
        let expect = run_sorted(&c, &sql, &off);
        let before = c.telemetry().dynamic_filter_metrics();
        let got = run_sorted(&c, &sql, &on);
        let after = c.telemetry().dynamic_filter_metrics();
        assert_eq!(got.len(), 21 * 20, "{name}: 21 keys x 20 fact rows each");
        assert_eq!(
            got, expect,
            "{name}: dynamic filtering must not change results"
        );
        assert!(
            after.rows_filtered > before.rows_filtered,
            "{name}: the row check dropped rows: {after:?}"
        );
    }
}
