//! `system.runtime` self-inspection benchmark: what SQL-on-itself costs.
//!
//! The §VII system catalog serves live cluster state by snapshotting
//! telemetry/history/worker structures at split-enumeration time and
//! streaming the rows out as engine pages. This run measures that
//! snapshot-to-page path end to end:
//!
//! 1. **Populate** — a workload of group-by/filter queries fills the
//!    query-history ring with per-task operator summaries.
//! 2. **Scan cost** — `SELECT COUNT(*)` over `runtime.queries` and the
//!    much wider `runtime.operators` (the full snapshot is materialized
//!    per scan regardless of projection), best-of-N wall time and
//!    effective rows/sec.
//! 3. **Aggregation + self-join** — a GROUP BY over operators and a
//!    queries ⋈ operators join, i.e. the dashboard-style queries the
//!    tables exist for.
//!
//! ```sh
//! cargo run --release -p presto-bench --bin systables_bench [-- --smoke]
//! ```
//!
//! Emits `BENCH_systables.json` in the working directory.

use presto_bench::report::BenchReport;
use presto_bench::{bench_config, ms};
use presto_cluster::Cluster;
use presto_common::json::Json;
use presto_common::{DataType, Schema, Session, Value};
use presto_connector::{CatalogManager, Connector};
use presto_connectors::MemoryConnector;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn load_orders(mem: &MemoryConnector, rows: usize) {
    let schema = Schema::of(&[
        ("orderkey", DataType::Bigint),
        ("custkey", DataType::Bigint),
        ("totalprice", DataType::Bigint),
    ]);
    let data: Vec<Vec<Value>> = (0..rows as i64)
        .map(|i| {
            vec![
                Value::Bigint(i),
                Value::Bigint(i % 100),
                Value::Bigint(i % 500),
            ]
        })
        .collect();
    let pages: Vec<presto_page::Page> = data
        .chunks(4096)
        .map(|c| presto_page::Page::from_rows(&schema, c))
        .collect();
    mem.load_table("orders", schema, pages);
    mem.analyze("orders").expect("analyze");
}

/// Best-of-N wall time for one SQL statement; returns (wall, first row).
fn best_of(cluster: &Cluster, session: &Session, sql: &str, n: usize) -> (Duration, Vec<Value>) {
    let mut best = Duration::MAX;
    let mut row = Vec::new();
    for _ in 0..n {
        let t = Instant::now();
        let out = cluster.execute_with_session(sql, session).expect("query");
        best = best.min(t.elapsed());
        row = out.rows().into_iter().next().unwrap_or_default();
    }
    (best, row)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let table_rows: usize = if smoke { 10_000 } else { 200_000 };
    let workload: usize = if smoke { 12 } else { 160 };
    let iters: usize = if smoke { 3 } else { 15 };

    println!("system.runtime scan cost: snapshot-to-page path over {workload} retained queries");
    println!("paper: §VII \"SQL on itself\" — runtime state as ordinary tables\n");

    let mem = MemoryConnector::new();
    load_orders(&mem, table_rows);
    let mut catalogs = CatalogManager::new();
    catalogs.register("memory", Arc::clone(&mem) as Arc<dyn Connector>);
    let cluster = Cluster::start(bench_config(), catalogs).expect("cluster");
    let session = Session::for_catalog("memory");

    // Populate: alternating shapes so history holds both fused single-stage
    // pipelines and multi-stage grouped aggregations.
    for i in 0..workload {
        let sql = if i % 2 == 0 {
            format!(
                "SELECT custkey, COUNT(*) FROM orders WHERE custkey < {} GROUP BY custkey",
                20 + i % 60
            )
        } else {
            format!(
                "SELECT SUM(totalprice) FROM orders WHERE custkey < {}",
                10 + i % 80
            )
        };
        cluster
            .execute_with_session(&sql, &session)
            .expect("workload");
    }
    let history = cluster.query_history();
    assert_eq!(
        history.recorded(),
        workload as u64,
        "history missed queries"
    );
    let retained_ops: u64 = history
        .snapshot()
        .iter()
        .flat_map(|e| &e.tasks)
        .map(|t| t.operators.len() as u64)
        .sum();
    assert!(retained_ops > 0, "workload produced no operator summaries");

    // Scan cost: COUNT(*) forces a full snapshot + page stream of the
    // table, and the count itself cross-checks the history rollup.
    let (q_wall, q_row) = best_of(
        &cluster,
        &session,
        "SELECT COUNT(*) FROM system.runtime.queries",
        iters,
    );
    let queries_rows = q_row[0].as_i64().expect("count");
    assert!(
        queries_rows >= workload as i64,
        "queries table lost workload rows"
    );
    let (o_wall, o_row) = best_of(
        &cluster,
        &session,
        "SELECT COUNT(*) FROM system.runtime.operators",
        iters,
    );
    let operators_rows = o_row[0].as_i64().expect("count");
    assert!(
        operators_rows >= retained_ops as i64,
        "operators table ({operators_rows}) lost retained summaries ({retained_ops})"
    );
    let ops_per_sec = operators_rows as f64 / o_wall.as_secs_f64().max(1e-9);
    println!(
        "system-table scan: queries {queries_rows} rows in {}, operators {operators_rows} rows in {} ({:.2} Mrows/s)",
        ms(q_wall), ms(o_wall), ops_per_sec / 1e6
    );

    // Dashboard shapes: aggregation over operators; queries ⋈ operators.
    let (agg_wall, _) = best_of(
        &cluster,
        &session,
        "SELECT operator, COUNT(*), SUM(output_rows) FROM system.runtime.operators GROUP BY operator",
        iters,
    );
    let (join_wall, join_row) = best_of(
        &cluster,
        &session,
        "SELECT COUNT(*) FROM system.runtime.queries q \
         JOIN system.runtime.operators o ON q.query_id = o.query_id \
         WHERE q.state = 'finished'",
        iters,
    );
    assert!(
        join_row[0].as_i64().expect("count") >= retained_ops as i64,
        "system-⋈-system join dropped operator rows"
    );
    println!(
        "system-⋈-system join: {} per run, operator GROUP BY {} per run",
        ms(join_wall),
        ms(agg_wall)
    );

    BenchReport::new("systables")
        .config(
            "mode",
            Json::Str(if smoke { "smoke" } else { "full" }.into()),
        )
        .config("table_rows", Json::Int(table_rows as i64))
        .config("workload_queries", Json::Int(workload as i64))
        .config(
            "history_capacity",
            Json::Int(cluster.config().query_history_capacity as i64),
        )
        .config("iterations", Json::Int(iters as i64))
        .metric("queries_rows", Json::Int(queries_rows))
        .metric("operators_rows", Json::Int(operators_rows))
        .metric("queries_scan_ms", Json::Num(q_wall.as_secs_f64() * 1e3))
        .metric("operators_scan_ms", Json::Num(o_wall.as_secs_f64() * 1e3))
        .metric("operators_mrows_per_sec", Json::Num(ops_per_sec / 1e6))
        .metric(
            "operator_group_by_ms",
            Json::Num(agg_wall.as_secs_f64() * 1e3),
        )
        .metric("self_join_ms", Json::Num(join_wall.as_secs_f64() * 1e3))
        .write();
    println!("systables_bench: ok");
}
