//! Metadata-cache benchmark: cold vs warm plan + first-split latency.
//!
//! §IV-B: "The coordinator caches table metadata and statistics"; §V-C:
//! footer indexes are consulted at both planning and enumeration time. A
//! query over a many-file Hive table pays one simulated remote round trip
//! per footer on the first run; the second run plans from the metastore
//! cache and enumerates from the footer cache, so it should be at least
//! 2x faster and fetch zero footers.
//!
//! ```sh
//! cargo run --release -p presto-bench --bin metadata_cache
//! ```
//!
//! Emits `BENCH_metadata_cache.json` in the working directory.

use presto_bench::report::BenchReport;
use presto_bench::{bench_config, print_cache_summary, scale_factor, scratch_dir};
use presto_cache::MetadataCache;
use presto_cluster::Cluster;
use presto_common::json::Json;
use presto_common::{DataType, Schema, Session, Value};
use presto_connector::{CatalogManager, Connector, ConnectorMetadata, PageSinkFactory};
use presto_connectors::HiveConnector;
use presto_page::Page;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let scale = scale_factor();
    let files = ((6400.0 * scale) as usize).max(64);
    let rows_per_file = 2048usize;
    println!(
        "metadata cache: cold vs warm plan + split enumeration ({files} files, {} rows)\n",
        files * rows_per_file
    );
    let dir = scratch_dir("metadata-cache");
    let config = bench_config();
    let cache = MetadataCache::new(config.cache.clone());
    let hive = HiveConnector::with_cache(dir.join("hive"), Arc::clone(&cache)).expect("hive");

    // Many small files: one footer round trip each, like a day of hourly
    // ETL partitions. Each sink writes its own file (§IV-E3).
    let schema = Schema::of(&[("id", DataType::Bigint), ("v", DataType::Bigint)]);
    hive.create_table("events", &schema).expect("create");
    for f in 0..files {
        let rows: Vec<Vec<Value>> = (0..rows_per_file)
            .map(|i| {
                vec![
                    Value::Bigint((f * rows_per_file + i) as i64),
                    Value::Bigint((i % 97) as i64),
                ]
            })
            .collect();
        let mut sink = hive.create_sink("events").expect("sink");
        sink.append(&Page::from_rows(&schema, &rows))
            .expect("append");
        sink.finish().expect("finish");
    }
    // Every footer fetch now costs a simulated remote round trip; cache
    // hits skip it (the latency is paid inside the miss path only).
    hive.set_read_latency(Duration::from_millis(2));

    let mut catalogs = CatalogManager::new();
    catalogs.register("hive", Arc::clone(&hive) as Arc<dyn Connector>);
    let cluster = Cluster::start_with_cache(config, catalogs, cache).expect("cluster");

    let sql = "SELECT count(v) FROM events WHERE v = 13";
    let session = Session::for_catalog("hive");
    let run = || {
        let t = Instant::now();
        cluster.execute_with_session(sql, &session).expect("query");
        t.elapsed()
    };
    let base = hive.io_stats().footer_reads();
    let cold = run();
    let cold_footers = hive.io_stats().footer_reads() - base;
    let warm = run();
    let warm_footers = hive.io_stats().footer_reads() - base - cold_footers;
    let hits = cluster.telemetry().cache_counters().hits;
    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);

    println!(
        "{:<18} {:>10} {:>14} {:>12}",
        "run", "latency", "footer reads", "cache hits"
    );
    println!(
        "{:<18} {:>8.1}ms {:>14} {:>12}",
        "cold (first)",
        cold.as_secs_f64() * 1000.0,
        cold_footers,
        "-"
    );
    println!(
        "{:<18} {:>8.1}ms {:>14} {:>12}",
        "warm (second)",
        warm.as_secs_f64() * 1000.0,
        warm_footers,
        hits
    );
    println!("\nwarm speedup: {speedup:.1}x\n");
    print_cache_summary(&cluster);

    assert!(cold_footers > 0, "cold run must fetch footers");
    assert_eq!(warm_footers, 0, "warm run must fetch zero footers");
    assert!(hits > 0, "warm run must hit the cache");
    assert!(
        speedup >= 2.0,
        "warm run should be at least 2x faster (got {speedup:.1}x)"
    );
    std::fs::remove_dir_all(&dir).ok();

    BenchReport::new("metadata_cache")
        .config("files", Json::Int(files as i64))
        .config("rows_per_file", Json::Int(rows_per_file as i64))
        .metric("cold_ms", Json::Num(cold.as_secs_f64() * 1e3))
        .metric("warm_ms", Json::Num(warm.as_secs_f64() * 1e3))
        .metric("speedup", Json::Num(speedup))
        .metric("cold_footer_reads", Json::Int(cold_footers as i64))
        .metric("warm_footer_reads", Json::Int(warm_footers as i64))
        .metric("cache_hits", Json::Int(hits as i64))
        .write();
}
