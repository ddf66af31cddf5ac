//! End-to-end tests for the self-describing `system` catalog (§VII):
//! after a mixed workload, the `system.runtime.*` tables must be
//! scannable with plain SQL — filters, aggregations, and joins between
//! system tables — and agree with the out-of-band `ClusterSnapshot` and
//! query-history store.

#![allow(clippy::unwrap_used)]

use parking_lot::Mutex;
use presto_cluster::{Cluster, ClusterConfig};
use presto_common::{ErrorCode, QueryId, Session, Value};
use presto_connector::{ScanOptions, TupleDomain};
use presto_connectors::system::SystemTable;
use presto_testkit::{orders_and_lineitem, TestCluster};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn cluster() -> TestCluster {
    cluster_with(ClusterConfig::test())
}

fn cluster_with(config: ClusterConfig) -> TestCluster {
    TestCluster::start(config, orders_and_lineitem())
}

fn i64_at(row: &[Value], col: usize) -> i64 {
    row[col]
        .as_i64()
        .unwrap_or_else(|| panic!("non-bigint at column {col}: {row:?}"))
}

/// Every runtime table is mounted and scannable with `SELECT *` through
/// the ordinary three-part name path (`system.runtime.queries` resolves to
/// catalog `system`, table `runtime.queries`).
#[test]
fn every_system_table_scans() {
    let c = cluster();
    c.execute("SELECT custkey, COUNT(*) FROM orders GROUP BY custkey")
        .unwrap();
    for table in [
        "queries",
        "tasks",
        "operators",
        "memory_pools",
        "caches",
        "dynamic_filters",
        "trace_events",
    ] {
        let out = c
            .execute(&format!("SELECT * FROM system.runtime.{table}"))
            .unwrap();
        // `SELECT *` shows the row type's declared columns, in order.
        let declared = SystemTable::from_name(&format!("runtime.{table}"))
            .unwrap()
            .schema();
        assert_eq!(out.schema.fields(), declared.fields(), "{table}");
        assert!(out.rows().iter().all(|r| r.len() == declared.len()));
        // Every table but the per-query ones is populated even on an idle
        // cluster; after one query they all have rows except (possibly)
        // operators of still-draining tasks.
        match table {
            "queries" | "memory_pools" | "caches" | "dynamic_filters" | "trace_events" => {
                assert!(!out.rows().is_empty(), "{table} came back empty");
            }
            _ => {}
        }
    }
    // Unknown tables fail with a user error, not a panic.
    assert!(c.execute("SELECT * FROM system.runtime.nope").is_err());
}

/// The acceptance scenario: run a background workload (successes,
/// failures, a join that publishes a dynamic filter), then interrogate the
/// cluster *through SQL* and check the answers against the out-of-band
/// `ClusterSnapshot` and `QueryHistory` APIs.
#[test]
fn system_tables_agree_with_snapshot_after_workload() {
    let c = cluster();

    // -- Workload: 6 concurrent group-bys, one selective join (publishes a
    // dynamic filter), and 2 failures (one planning error, one parse
    // error).
    let mut max_id = 0u64;
    let handles: Vec<_> = (0..6)
        .map(|i| {
            c.submit(
                format!(
                    "SELECT custkey, COUNT(*) FROM orders WHERE custkey < {} GROUP BY custkey",
                    20 + i
                ),
                Session::default(),
            )
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let out = h.join().unwrap().unwrap();
        assert_eq!(out.rows().len(), 20 + i);
        max_id = max_id.max(out.query.0);
    }
    let session = Session {
        dynamic_filter_wait: std::time::Duration::from_secs(5),
        ..Default::default()
    };
    let join = c
        .execute_with_session(
            "SELECT COUNT(*) FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey \
             WHERE o.custkey < 3",
            &session,
        )
        .unwrap();
    max_id = max_id.max(join.query.0);
    let planning_err = c.execute("SELECT no_such_column FROM orders").unwrap_err();
    max_id = max_id.max(planning_err.query.0);
    let parse_err = c.execute("SELEKT broken !!").unwrap_err();
    max_id = max_id.max(parse_err.query.0);

    let snap = c.metrics_snapshot();
    assert_eq!(snap.lost_wakeups(), 0);
    assert_eq!(snap.queries.finished, 7);
    assert_eq!(snap.queries.failed, 2);
    let history = c.query_history();
    assert_eq!(history.len(), 9);
    assert_eq!(history.evicted(), 0);

    // Later introspection queries land in history themselves, so every
    // agreement query pins the workload with `query_id <= max_id`.

    // -- Dynamic filters first (the system-⋈-system query below may
    // publish filters of its own): the single row must equal telemetry.
    let df = c
        .execute("SELECT * FROM system.runtime.dynamic_filters")
        .unwrap();
    let df_rows = df.rows();
    assert_eq!(df_rows.len(), 1);
    assert!(i64_at(&df_rows[0], 0) >= 1, "join published no filter");
    assert_eq!(
        i64_at(&df_rows[0], 0) as u64,
        snap.dynamic_filters.filters_published
    );
    assert_eq!(
        i64_at(&df_rows[0], 3) as u64,
        snap.dynamic_filters.rows_filtered
    );

    // -- Aggregation over queries: states and returned-row totals. The
    // 6 group-bys return 20..=25 rows (135), the join returns 1.
    let out = c
        .execute(&format!(
            "SELECT state, COUNT(*), SUM(rows_returned) FROM system.runtime.queries \
             WHERE query_id <= {max_id} GROUP BY state"
        ))
        .unwrap();
    let by_state: HashMap<String, (i64, i64)> = out
        .rows()
        .iter()
        .map(|r| {
            (
                r[0].as_str().unwrap().to_string(),
                (i64_at(r, 1), i64_at(r, 2)),
            )
        })
        .collect();
    assert_eq!(by_state.len(), 2, "{by_state:?}");
    assert_eq!(by_state["finished"], (7, 135 + 1), "{by_state:?}");
    assert_eq!(by_state["failed"].0, 2, "{by_state:?}");
    assert_eq!(by_state["finished"].0 as u64, snap.queries.finished);
    assert_eq!(by_state["failed"].0 as u64, snap.queries.failed);

    // -- Filters on history-only columns: the parse error never reached
    // execution (attempts = 0), the planning error was admitted once.
    let failed = c
        .execute(&format!(
            "SELECT query_id, error_tag, attempts, retries FROM system.runtime.queries \
             WHERE query_id <= {max_id} AND state = 'failed'"
        ))
        .unwrap();
    let failed_rows = failed.rows();
    assert_eq!(failed_rows.len(), 2);
    for row in &failed_rows {
        let id = i64_at(row, 0) as u64;
        let tag = row[1].as_str().unwrap();
        if id == parse_err.query.0 {
            assert_eq!(i64_at(row, 2), 0, "parse failure has no attempts");
        } else {
            assert_eq!(id, planning_err.query.0);
            assert_eq!(i64_at(row, 2), 1);
        }
        assert!(!tag.is_empty());
        assert_eq!(i64_at(row, 3), 0, "no retries in this workload");
    }

    // -- Phase columns agree with the histograms: total executed nanos of
    // finished queries is positive and every finished query spent more
    // wall than execution-phase time never exceeds wall.
    let phases = c
        .execute(&format!(
            "SELECT COUNT(*) FROM system.runtime.queries \
             WHERE query_id <= {max_id} AND state = 'finished' \
             AND execution_nanos > 0 AND wall_nanos >= execution_nanos"
        ))
        .unwrap();
    assert_eq!(i64_at(&phases.rows()[0], 0), 7);
    // Every admitted query records phases (parse failures never reach
    // admission): 7 successes + the planning failure.
    assert_eq!(snap.latency.execution.count, 8);

    // -- Tasks: SQL count equals the history rollup, task CPU totals are
    // consistent with per-query CPU.
    let expected_tasks: i64 = history
        .snapshot()
        .iter()
        .filter(|e| e.query.0 <= max_id)
        .map(|e| e.tasks.len() as i64)
        .sum();
    assert!(expected_tasks > 0);
    let tasks = c
        .execute(&format!(
            "SELECT COUNT(*) FROM system.runtime.tasks WHERE query_id <= {max_id}"
        ))
        .unwrap();
    assert_eq!(i64_at(&tasks.rows()[0], 0), expected_tasks);

    // -- Memory pools: one row per (worker, pool), limits equal to the
    // snapshot's per-worker general-pool limits.
    let pools = c
        .execute("SELECT pool, COUNT(*), SUM(limit_bytes) FROM system.runtime.memory_pools GROUP BY pool")
        .unwrap();
    let by_pool: HashMap<String, (i64, i64)> = pools
        .rows()
        .iter()
        .map(|r| {
            (
                r[0].as_str().unwrap().to_string(),
                (i64_at(r, 1), i64_at(r, 2)),
            )
        })
        .collect();
    let workers = snap.workers.len() as i64;
    assert_eq!(by_pool.len(), 3, "{by_pool:?}");
    for pool in ["general", "reserved", "system"] {
        assert_eq!(by_pool[pool].0, workers, "{by_pool:?}");
    }
    let general_limit: i64 = snap.workers.iter().map(|w| w.memory.general_limit).sum();
    assert_eq!(by_pool["general"].1, general_limit);

    // -- Caches: one row per registered layer.
    let caches = c
        .execute("SELECT COUNT(*) FROM system.runtime.caches")
        .unwrap();
    assert_eq!(i64_at(&caches.rows()[0], 0), snap.caches.len() as i64);

    // -- Trace events: bounded by the ring, carrying the overwrite count.
    let trace = c
        .execute("SELECT COUNT(*), MAX(overwritten_events) FROM system.runtime.trace_events")
        .unwrap();
    let trace_rows = trace.rows();
    let retained = i64_at(&trace_rows[0], 0);
    assert!(retained > 0);
    assert!(retained <= c.config().trace_capacity as i64);
    assert!(i64_at(&trace_rows[0], 1) >= snap.trace_overwritten as i64);

    // -- The operators table keeps every retained operator summary (the
    // queries-table and join floors are the per-state and per-query
    // agreements above and below).
    let retained_ops: i64 = history
        .snapshot()
        .iter()
        .flat_map(|e| &e.tasks)
        .map(|t| t.operators.len() as i64)
        .sum();
    let operators = c
        .execute("SELECT COUNT(*) FROM system.runtime.operators")
        .unwrap();
    assert!(i64_at(&operators.rows()[0], 0) >= retained_ops);

    // -- The tentpole: a join BETWEEN two system tables. Per finished
    // workload query, roll up the operator stats and compare row counts
    // against the history store.
    let joined = c
        .execute(&format!(
            "SELECT q.query_id, COUNT(*), SUM(o.output_rows) \
             FROM system.runtime.queries q \
             JOIN system.runtime.operators o ON q.query_id = o.query_id \
             WHERE q.state = 'finished' AND q.query_id <= {max_id} \
             GROUP BY q.query_id"
        ))
        .unwrap();
    let joined_rows = joined.rows();
    assert_eq!(
        joined_rows.len(),
        7,
        "one group per finished workload query"
    );
    let by_query: HashMap<u64, (i64, i64)> = joined_rows
        .iter()
        .map(|r| (i64_at(r, 0) as u64, (i64_at(r, 1), i64_at(r, 2))))
        .collect();
    for e in history.snapshot() {
        if e.query.0 > max_id || e.state != "finished" {
            continue;
        }
        let ops: i64 = e.tasks.iter().map(|t| t.operators.len() as i64).sum();
        let out_rows: i64 = e
            .tasks
            .iter()
            .flat_map(|t| &t.operators)
            .map(|o| o.output_rows as i64)
            .sum();
        let (sql_ops, sql_rows) = by_query[&e.query.0];
        assert_eq!(sql_ops, ops, "operator count mismatch for {:?}", e.query);
        assert_eq!(sql_rows, out_rows, "output_rows mismatch for {:?}", e.query);
        assert!(sql_ops >= 1);
    }
}

/// Live queries are visible: while background threads keep the cluster
/// busy, `system.runtime.queries` shows in-flight rows (state queued or
/// running, history columns NULL). Load keeps running until the poller
/// has seen them, so the test is not timing-dependent.
#[test]
fn live_queries_appear_in_system_tables() {
    let c = cluster();
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let c = &c;
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    c.execute(
                        "SELECT o.custkey, COUNT(*), SUM(l.tax) \
                         FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey \
                         GROUP BY o.custkey",
                    )
                    .unwrap();
                }
            });
        }
        // The introspection query itself is one live row; with 4 load
        // threads churning, a scan observing >= 2 in-flight queries proves
        // the live (telemetry-backed) path populates the table.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let mut seen_live = 0usize;
        while std::time::Instant::now() < deadline {
            let out = c
                .execute(
                    "SELECT query_id, error_tag, queued_nanos FROM system.runtime.queries \
                     WHERE state = 'running' OR state = 'queued'",
                )
                .unwrap();
            let rows = out.rows();
            if rows.len() >= 2 {
                for row in &rows {
                    assert!(row[0].as_i64().is_some());
                    // History-only columns are NULL on live rows.
                    assert_eq!(row[1], Value::Null);
                    assert!(i64_at(row, 2) >= 0);
                }
                seen_live = rows.len();
                break;
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(seen_live >= 2, "never observed in-flight queries via SQL");
    });
}

/// `system.runtime.queries` read straight from the `system` connector,
/// sorted by query id. No query is admitted to read it, so this works
/// while every run slot is taken.
fn scan_queries(c: &Cluster) -> Vec<Vec<Value>> {
    let system = c.catalogs().catalog("system").unwrap();
    let table = SystemTable::Queries;
    let mut splits = system
        .split_source(table.table_name(), "", &TupleDomain::all())
        .unwrap();
    let schema = table.schema();
    let options = ScanOptions {
        columns: (0..schema.len()).collect(),
        predicate: TupleDomain::all(),
        dynamic_filter: None,
        lazy: false,
        target_page_rows: 1024,
    };
    let mut rows = Vec::new();
    for split in splits.next_batch(16).unwrap() {
        let factory = system.page_source_factory();
        let mut source = factory.create_source(&split, &options).unwrap();
        while let Some(page) = source.next_page().unwrap() {
            rows.extend(page.to_rows(&schema));
        }
    }
    rows.sort_by_key(|r| i64_at(r, 0));
    rows
}

/// Poll [`scan_queries`] until `done` holds of its rows.
fn scan_until(c: &Cluster, what: &str, done: impl Fn(&[Vec<Value>]) -> bool) -> Vec<Vec<Value>> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let rows = scan_queries(c);
        if done(&rows) {
            return rows;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting until {what}: {rows:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A live query's state comes from its one record: with one run slot and
/// every worker hung, A holds the slot (`running`) while B waits
/// (`queued`), both with the history-only columns NULL; once the workers
/// resume, each shows exactly once, `finished`.
#[test]
fn live_states_come_from_the_one_record() {
    let c = cluster_with(ClusterConfig {
        max_concurrent_queries: 1,
        liveness_timeout: Duration::ZERO,
        ..ClusterConfig::test()
    });
    let sql = "SELECT COUNT(*) FROM orders";
    (0..c.worker_count()).for_each(|w| c.hang_worker(w));
    let a = c.submit(sql, Session::default());
    let rows = scan_until(&c, "A runs its tasks", |rows| {
        rows.len() == 1 && !c.active_queries().is_empty()
    });
    let a_id = i64_at(&rows[0], 0) as u64;
    assert_eq!(rows[0][1], Value::varchar("running"));
    assert_eq!(c.active_queries(), vec![QueryId(a_id)]);
    let b = c.submit(sql, Session::default());
    let rows = scan_until(&c, "B queues", |rows| rows.len() == 2);
    let states: Vec<(u64, &str)> = rows
        .iter()
        .map(|r| (i64_at(r, 0) as u64, r[1].as_str().unwrap()))
        .collect();
    let b_id = states[1].0;
    assert_eq!(states, vec![(a_id, "running"), (b_id, "queued")]);
    for row in &rows {
        // error_tag, error_message, then planning_nanos … rows_returned.
        for col in [2, 3].into_iter().chain(5..row.len()) {
            assert_eq!(row[col], Value::Null, "column {col} of {row:?}");
        }
    }
    assert!(
        !c.cancel_query(QueryId(b_id)),
        "a queued query has no attempt to cancel"
    );
    (0..c.worker_count()).for_each(|w| c.resume_worker(w));
    assert_eq!(a.join().unwrap().unwrap().query.0, a_id);
    assert_eq!(b.join().unwrap().unwrap().query.0, b_id);
    let rows = scan_queries(&c);
    let states: Vec<(u64, &str)> = rows
        .iter()
        .map(|r| (i64_at(r, 0) as u64, r[1].as_str().unwrap()))
        .collect();
    assert_eq!(states, vec![(a_id, "finished"), (b_id, "finished")]);
    assert_eq!(c.query_history().live_len(), 0);
    assert!(
        !c.cancel_query(QueryId(a_id)),
        "a finished query is no longer running"
    );
}

/// The queue bound counts only queries that must wait. With one run slot
/// and workers hung so that a query holds it: at `max_queued_queries: 0` an
/// idle cluster still runs a query and the next arrival is rejected; at
/// `1` the second query waits and the third is rejected.
#[test]
fn queue_bound_counts_only_waiting_queries() {
    let sql = "SELECT COUNT(*) FROM orders";
    for max_queued_queries in [0, 1] {
        let c = cluster_with(ClusterConfig {
            max_concurrent_queries: 1,
            max_queued_queries,
            liveness_timeout: Duration::ZERO,
            ..ClusterConfig::test()
        });
        c.execute(sql)
            .expect("an idle cluster admits a query at once");
        (0..c.worker_count()).for_each(|w| c.hang_worker(w));
        let mut admitted = vec![c.submit(sql, Session::default())];
        scan_until(&c, "the first query holds the run slot", |_| {
            !c.active_queries().is_empty()
        });
        if max_queued_queries == 1 {
            admitted.push(c.submit(sql, Session::default()));
            scan_until(&c, "the second query queues", |rows| {
                rows.iter().any(|r| r[1] == Value::varchar("queued"))
            });
        }
        let rejected = c.execute(sql).expect_err("the queue is full");
        assert_eq!(rejected.error.code, ErrorCode::InsufficientResources);
        assert!(
            rejected.error.message.contains("query queue is full"),
            "{rejected}"
        );
        (0..c.worker_count()).for_each(|w| c.resume_worker(w));
        for query in admitted {
            query.join().unwrap().unwrap();
        }
    }
}

/// Sets the flag when dropped, so load threads stop even if the test
/// body panics.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Under churn, every scan of `system.runtime.queries` lists each query
/// once — never twice, and never zero times while it ends: a query whose
/// result a client already holds is `finished` in every later scan.
#[test]
fn every_scan_lists_each_query_exactly_once() {
    let c = cluster_with(ClusterConfig {
        query_history_capacity: 1 << 16,
        ..ClusterConfig::test()
    });
    let received = Mutex::new(Vec::<u64>::new());
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let _stop = StopOnDrop(&stop);
        for _ in 0..4 {
            let (c, stop, received) = (&c, &stop, &received);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let out = c
                        .execute(
                            "SELECT o.custkey, COUNT(*), SUM(l.tax) \
                             FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey \
                             GROUP BY o.custkey",
                        )
                        .unwrap();
                    received.lock().push(out.query.0);
                }
            });
        }
        for scan in 0..200 {
            let before = received.lock().clone();
            let out = c
                .execute("SELECT query_id, state FROM system.runtime.queries")
                .unwrap();
            let mut states = HashMap::new();
            for row in out.rows() {
                let id = i64_at(&row, 0) as u64;
                let state = row[1].as_str().unwrap().to_string();
                assert!(
                    states.insert(id, state).is_none(),
                    "scan {scan} lists query {id} twice"
                );
            }
            for id in &before {
                assert_eq!(
                    states.get(id).map(String::as_str),
                    Some("finished"),
                    "scan {scan}, query {id}"
                );
            }
            received.lock().push(out.query.0);
        }
    });
}
