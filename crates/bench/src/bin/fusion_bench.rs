//! Whole-pipeline fused compiled execution on TPC-H-shaped scans.
//!
//! Two scan-heavy pipelines, both of the shape the fusion pass targets
//! (scan → filter → project → partial aggregation):
//!
//! * **q6** — a TPC-H Q6-shaped selective filter feeding a global
//!   aggregate. The fused loop evaluates the filter into a selection
//!   vector, gathers only the channels the projection needs, and feeds
//!   the aggregation through the zero-group fast path that never touches
//!   the group hash table.
//! * **q1** — a TPC-H Q1-shaped weakly-selective filter feeding a
//!   grouped aggregation, exercising the pre-hashed group-by path.
//!
//! Each query runs with `pipeline_fusion` on and off on the same
//! cluster; results are diffed row for row (fusion is an optimization,
//! never a semantic change — measures are integer cents/basis-points so
//! sums are bit-deterministic), wall times compared best-of-N.
//!
//! ```sh
//! cargo run --release -p presto-bench --bin fusion_bench
//! cargo run -p presto-bench --bin fusion_bench -- --smoke
//! ```

use presto_bench::{bench_config, ms, worker_count};
use presto_cluster::Cluster;
use presto_common::{DataType, Schema, Session, Value};
use presto_connector::{CatalogManager, Connector};
use presto_connectors::MemoryConnector;
use presto_page::Page;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Rows per page as loaded into the memory connector; the scan serves
/// pages at this granularity.
const PAGE_ROWS: usize = 4096;

/// TPC-H Q6 shape: multi-predicate range filter (keeps ~30% of rows),
/// arithmetic projection, global SUM. Prices are cents and discounts
/// basis points so the aggregate is exact integer arithmetic. The range
/// bounds are tuned so the aggregation — the stage fusion bypasses
/// entirely via the zero-group fast path — dominates over the filter
/// work both paths share.
const Q6: &str = "SELECT SUM(extendedprice * discount) FROM lineitem \
                  WHERE shipdate >= 365 AND shipdate < 1825 \
                  AND discount >= 2 AND discount <= 8 AND quantity < 43";

/// TPC-H Q1 shape: weak filter, grouped aggregation over a varchar key.
const Q1: &str = "SELECT returnflag, COUNT(*), SUM(extendedprice), SUM(quantity * discount) \
                  FROM lineitem WHERE shipdate < 2300 \
                  GROUP BY returnflag";

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rows: usize = if smoke { 40_000 } else { 2_000_000 };
    let iterations = if smoke { 1 } else { 5 };

    println!(
        "pipeline-fusion reproduction: fused vs discrete scan pipelines, lineitem {rows} rows, {} workers",
        worker_count()
    );
    println!("paper: §IV-B \"operations are fused within a single loop\" (monomorphized compiled pipelines)\n");

    let memory = MemoryConnector::new();
    load_lineitem(&memory, rows);
    let mut catalogs = CatalogManager::new();
    catalogs.register("memory", Arc::clone(&memory) as Arc<dyn Connector>);
    let cluster = Cluster::start(bench_config(), catalogs).expect("cluster");

    let on = Session::for_catalog("memory");
    assert!(on.pipeline_fusion, "fusion should default on");
    let mut off = Session::for_catalog("memory");
    off.pipeline_fusion = false;

    // `--explain` dumps the annotated plans instead of benchmarking —
    // the raw material for digging into a regression.
    if std::env::args().any(|a| a == "--explain") {
        let probes = ["SELECT COUNT(*) FROM lineitem", Q6, Q1];
        for (label, session) in [("fusion on", &on), ("fusion off", &off)] {
            for sql in probes {
                let out = cluster
                    .execute_with_session(&format!("EXPLAIN ANALYZE {sql}"), session)
                    .expect("explain");
                println!(
                    "=== {label}: {sql}\n{}",
                    out.rows()[0][0].as_str().expect("text")
                );
            }
        }
        return;
    }

    let fused_before = cluster.telemetry().fusion_metrics();
    let q6 = compare(
        &cluster,
        "q6 selective filter + global agg",
        Q6,
        &on,
        &off,
        iterations,
    );
    let fused_after = cluster.telemetry().fusion_metrics();
    assert!(
        fused_after.pipelines > fused_before.pipelines,
        "fusion-on run did not execute any fused pipeline"
    );
    assert!(
        fused_after.scan_rows >= fused_before.scan_rows + rows as u64,
        "fused scan stage did not account the scanned rows"
    );
    let q1 = compare(
        &cluster,
        "q1 weak filter + grouped agg",
        Q1,
        &on,
        &off,
        iterations,
    );

    let q6_speedup = q6.speedup();
    let q1_speedup = q1.speedup();
    println!("\nfused vs discrete (best of {iterations}):");
    println!(
        "  {:<36} {:>12} {:>12} {:>9}",
        "", "fusion_off", "fusion_on", "speedup"
    );
    for (name, r) in [("q6 wall_ms", &q6), ("q1 wall_ms", &q1)] {
        println!(
            "  {:<36} {:>12} {:>12} {:>8.2}x",
            name,
            ms(r.off_wall),
            ms(r.on_wall),
            r.speedup()
        );
    }
    if !smoke {
        assert!(
            q6_speedup >= 2.0,
            "q6 fused speedup {q6_speedup:.2}x below the 2x target"
        );
        // Parity-or-better: grouped partial aggregation is already
        // vectorized unfused, so the fused win is small — guard against
        // regression with headroom for scheduler noise.
        assert!(
            q1_speedup >= 0.9,
            "q1 fused pipeline slower than discrete ({q1_speedup:.2}x)"
        );
    }

    println!("\nfusion_bench: ok");
}

struct Comparison {
    off_wall: Duration,
    on_wall: Duration,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.off_wall.as_secs_f64() / self.on_wall.as_secs_f64().max(1e-9)
    }
}

fn compare(
    cluster: &Cluster,
    name: &str,
    sql: &str,
    on: &Session,
    off: &Session,
    iterations: usize,
) -> Comparison {
    // Warm both paths once (metadata cache, compilation).
    let warm_off = run_once(cluster, sql, off);
    let warm_on = run_once(cluster, sql, on);
    assert_eq!(
        warm_off.1, warm_on.1,
        "{name}: fusion changed the query result"
    );
    println!(
        "{name}: results identical, {} rows both ways (zero diffs)",
        warm_on.1.len()
    );
    let mut off_wall = warm_off.0;
    let mut on_wall = warm_on.0;
    for _ in 0..iterations {
        let (w, rows) = run_once(cluster, sql, off);
        assert_eq!(rows, warm_on.1, "{name}: fusion-off result drifted");
        off_wall = off_wall.min(w);
        let (w, rows) = run_once(cluster, sql, on);
        assert_eq!(rows, warm_on.1, "{name}: fusion-on result drifted");
        on_wall = on_wall.min(w);
    }
    Comparison { off_wall, on_wall }
}

/// Run once; rows come back sorted and rendered so the differential
/// check is an exact byte comparison.
fn run_once(cluster: &Cluster, sql: &str, session: &Session) -> (Duration, Vec<String>) {
    let out = cluster.execute_with_session(sql, session).expect("query");
    let mut rows: Vec<String> = out.rows().iter().map(|r| format!("{r:?}")).collect();
    rows.sort_unstable();
    (out.wall_time, rows)
}

/// Lineitem with exact-integer measures: prices in cents, discounts in
/// basis points, dates as day numbers — the warehouse-typical encoding
/// that keeps aggregate results bit-deterministic for the diff.
fn load_lineitem(memory: &MemoryConnector, rows: usize) {
    let schema = Schema::of(&[
        ("shipdate", DataType::Bigint),
        ("quantity", DataType::Bigint),
        ("discount", DataType::Bigint),
        ("extendedprice", DataType::Bigint),
        ("returnflag", DataType::Varchar),
    ]);
    let mut rng = StdRng::seed_from_u64(0x5EED_F05E);
    let mut pages = Vec::with_capacity(rows.div_ceil(PAGE_ROWS));
    let mut chunk: Vec<Vec<Value>> = Vec::with_capacity(PAGE_ROWS);
    for _ in 0..rows {
        let flag = ["A", "N", "R"][rng.gen_range(0..3)];
        chunk.push(vec![
            Value::Bigint(rng.gen_range(0..2557)),
            Value::Bigint(rng.gen_range(1..51)),
            Value::Bigint(rng.gen_range(0..11)),
            Value::Bigint(rng.gen_range(10_000..1_000_000)),
            Value::varchar(flag),
        ]);
        if chunk.len() == PAGE_ROWS {
            pages.push(Page::from_rows(&schema, &chunk));
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        pages.push(Page::from_rows(&schema, &chunk));
    }
    memory.load_table("lineitem", schema, pages);
}
