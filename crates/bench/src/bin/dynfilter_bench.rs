//! Runtime dynamic filtering on a Fig. 6-style star-schema join.
//!
//! A selective dimension table joins a large fact table stored in Hive,
//! clustered (as warehouse fact tables are) on the join key. With dynamic
//! filtering the build side's observed key domain reaches the probe-side
//! scan and prunes whole splits and stripes before their bytes are
//! fetched; without it every stripe pays the simulated remote-read
//! latency. The benchmark runs the same query both ways, diffs the
//! results row for row (they must be identical — the filter is an
//! optimization, never a semantic change), and reports scan bytes, wall
//! time, and the pruning counters.
//!
//! ```sh
//! cargo run --release -p presto-bench --bin dynfilter_bench
//! cargo run -p presto-bench --bin dynfilter_bench -- --smoke
//! ```
//!
//! Emits `BENCH_dynfilter.json` in the working directory.

use presto_bench::report::BenchReport;
use presto_bench::{bench_config, ms, scratch_dir, worker_count};
use presto_cluster::{Cluster, DynamicFilterMetrics};
use presto_common::json::Json;
use presto_common::{DataType, Schema, Session, Value};
use presto_connector::{CatalogManager, Connector};
use presto_connectors::HiveConnector;
use presto_page::Page;
use std::sync::Arc;
use std::time::Duration;

/// Rows per fact key; the dimension selects ~1% of the key range.
const FANOUT: i64 = 8;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let fact_rows: i64 = if smoke { 24_000 } else { 240_000 };
    let keys = fact_rows / FANOUT;
    let dim_lo = keys * 9 / 10;
    let dim_hi = dim_lo + (keys / 100).max(1);

    let dir = scratch_dir("dynfilter");
    let config = bench_config();
    println!(
        "dynamic-filter reproduction: star-schema join, fact {fact_rows} rows / dim {} rows, {} workers",
        dim_hi - dim_lo,
        worker_count()
    );
    println!("paper: §IV-B predicate pushdown, applied at runtime from the join build side\n");

    let hive = HiveConnector::new(dir.join("hive")).expect("hive");
    load_star_schema(&hive, fact_rows, dim_lo, dim_hi);
    hive.set_read_latency(Duration::from_micros(if smoke { 50 } else { 300 }));
    let io = hive.io_stats();

    let mut catalogs = CatalogManager::new();
    catalogs.register("hive", Arc::clone(&hive) as Arc<dyn Connector>);
    let cluster = Cluster::start(config, catalogs).expect("cluster");

    let mut off = Session::for_catalog("hive");
    off.dynamic_filtering = false;
    let mut on = Session::for_catalog("hive");
    on.dynamic_filtering = true;
    on.dynamic_filter_wait = Duration::from_secs(2);

    let sql = "SELECT f.v FROM fact f JOIN dim d ON f.fk = d.k";
    let iterations = if smoke { 1 } else { 3 };

    // Warm both paths once so metadata-cache misses don't skew either side.
    run_once(&cluster, sql, &off, &io);
    run_once(&cluster, sql, &on, &io);

    println!("star-schema join: SELECT f.v FROM fact JOIN dim ON f.fk = d.k");
    let mut best_off: Option<Run> = None;
    let mut best_on: Option<Run> = None;
    for _ in 0..iterations {
        let r_off = run_once(&cluster, sql, &off, &io);
        let r_on = run_once(&cluster, sql, &on, &io);
        best_off = Some(best_off.map_or(r_off.clone(), |b| b.faster(r_off)));
        best_on = Some(best_on.map_or(r_on.clone(), |b| b.faster(r_on)));
    }
    let r_off = best_off.expect("off run");
    let r_on = best_on.expect("on run");

    // Differential check: dynamic filtering must not change the result.
    assert_eq!(
        r_off.values, r_on.values,
        "dynamic filtering changed the query result"
    );
    println!(
        "  results identical: {} rows both ways (zero diffs)",
        r_on.values.len()
    );

    let df = cluster.telemetry().dynamic_filter_metrics();
    assert!(df.filters_published >= 1, "no dynamic filter was published");
    assert!(
        r_on.df.splits_pruned + r_on.df.stripes_pruned + r_on.df.rows_filtered > 0,
        "dynamic filtering pruned nothing"
    );
    assert!(
        r_on.bytes < r_off.bytes,
        "dynamic filtering did not reduce scan bytes ({} vs {})",
        r_on.bytes,
        r_off.bytes
    );

    let bytes_ratio = r_off.bytes as f64 / r_on.bytes.max(1) as f64;
    let speedup = r_off.wall.as_secs_f64() / r_on.wall.as_secs_f64().max(1e-9);
    println!("\ndynamic filtering off vs on (best of {iterations}):");
    println!("  {:<22} {:>12} {:>14}", "", "df_off", "df_on");
    println!(
        "  {:<22} {:>12} {:>14}",
        "wall_ms",
        ms(r_off.wall),
        ms(r_on.wall)
    );
    println!(
        "  {:<22} {:>12} {:>14}",
        "scan_bytes", r_off.bytes, r_on.bytes
    );
    println!(
        "  scan-bytes reduction   {bytes_ratio:>11.2}x\n  wall-clock speedup     {speedup:>11.2}x"
    );
    println!(
        "  pruned: {} splits, {} stripes, {} rows; waited {:.2} ms for filters",
        r_on.df.splits_pruned,
        r_on.df.stripes_pruned,
        r_on.df.rows_filtered,
        r_on.df.wait_nanos as f64 / 1e6,
    );

    if !smoke {
        assert!(
            bytes_ratio >= 3.0,
            "scan-bytes reduction {bytes_ratio:.2}x below the 3x target"
        );
        assert!(
            speedup >= 1.5,
            "wall-clock speedup {speedup:.2}x below the 1.5x target"
        );
    }

    println!();
    BenchReport::new("dynfilter")
        .config(
            "mode",
            Json::Str(if smoke { "smoke" } else { "full" }.into()),
        )
        .config("fact_rows", Json::Int(fact_rows))
        .config("dim_rows", Json::Int(dim_hi - dim_lo))
        .metric("result_rows", Json::Int(r_on.values.len() as i64))
        .metric("wall_ms_off", Json::Num(r_off.wall.as_secs_f64() * 1e3))
        .metric("wall_ms_on", Json::Num(r_on.wall.as_secs_f64() * 1e3))
        .metric("scan_bytes_off", Json::Int(r_off.bytes as i64))
        .metric("scan_bytes_on", Json::Int(r_on.bytes as i64))
        .metric("bytes_reduction", Json::Num(bytes_ratio))
        .metric("speedup", Json::Num(speedup))
        .metric("filters_published", Json::Int(df.filters_published as i64))
        .metric("splits_pruned", Json::Int(r_on.df.splits_pruned as i64))
        .metric("stripes_pruned", Json::Int(r_on.df.stripes_pruned as i64))
        .metric("rows_filtered", Json::Int(r_on.df.rows_filtered as i64))
        .metric("wait_ms", Json::Num(r_on.df.wait_nanos as f64 / 1e6))
        .write();
    println!("dynfilter_bench: ok");
    std::fs::remove_dir_all(&dir).ok();
}

#[derive(Clone)]
struct Run {
    wall: Duration,
    bytes: u64,
    values: Vec<i64>,
    df: DynamicFilterMetrics,
}

impl Run {
    fn faster(self, other: Run) -> Run {
        if other.wall < self.wall {
            other
        } else {
            self
        }
    }
}

fn run_once(cluster: &Cluster, sql: &str, session: &Session, io: &presto_porc::IoStats) -> Run {
    let bytes_before = io.snapshot().0;
    let df_before = cluster.telemetry().dynamic_filter_metrics();
    let out = cluster.execute_with_session(sql, session).expect("query");
    let df_after = cluster.telemetry().dynamic_filter_metrics();
    let mut values: Vec<i64> = out
        .rows()
        .iter()
        .map(|r| match r[0] {
            Value::Bigint(v) => v,
            ref other => panic!("unexpected value {other:?}"),
        })
        .collect();
    values.sort_unstable();
    Run {
        wall: out.wall_time,
        bytes: io.snapshot().0 - bytes_before,
        values,
        df: DynamicFilterMetrics {
            filters_published: df_after.filters_published - df_before.filters_published,
            splits_pruned: df_after.splits_pruned - df_before.splits_pruned,
            stripes_pruned: df_after.stripes_pruned - df_before.stripes_pruned,
            rows_filtered: df_after.rows_filtered - df_before.rows_filtered,
            wait_nanos: df_after.wait_nanos - df_before.wait_nanos,
        },
    }
}

/// Fact table clustered ascending on the join key (tight per-stripe
/// min/max footers, as a date- or key-partitioned warehouse table would
/// have) plus a narrow dimension selecting ~1% of the key range.
fn load_star_schema(hive: &HiveConnector, fact_rows: i64, dim_lo: i64, dim_hi: i64) {
    let fact_schema = Schema::of(&[
        ("fk", DataType::Bigint),
        ("v", DataType::Bigint),
        ("pad", DataType::Varchar),
    ]);
    let rows: Vec<Vec<Value>> = (0..fact_rows)
        .map(|i| {
            vec![
                Value::Bigint(i / FANOUT),
                Value::Bigint(i),
                Value::varchar(format!("row-{i:012}-padding-padding-padding")),
            ]
        })
        .collect();
    let pages: Vec<Page> = rows
        .chunks(1000)
        .map(|c| Page::from_rows(&fact_schema, c))
        .collect();
    hive.load_table("fact", fact_schema, &pages).expect("fact");

    let dim_schema = Schema::of(&[("k", DataType::Bigint), ("name", DataType::Varchar)]);
    let rows: Vec<Vec<Value>> = (dim_lo..dim_hi)
        .map(|k| vec![Value::Bigint(k), Value::varchar(format!("dim-{k}"))])
        .collect();
    let pages: Vec<Page> = rows
        .chunks(1000)
        .map(|c| Page::from_rows(&dim_schema, c))
        .collect();
    hive.load_table("dim", dim_schema, &pages).expect("dim");
}
