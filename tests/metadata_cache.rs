#![allow(clippy::unwrap_used)]
//! End-to-end metadata-cache integration (§IV-B metastore, §V-C footers).
//!
//! A second run of the same query against the Hive connector must parse
//! zero PORC footers (everything comes from the footer cache), and writes
//! must invalidate the cached footer, listing, and statistics entries so
//! readers never see stale metadata.

use presto::cache::MetadataCache;
use presto::cluster::ClusterConfig;
use presto::common::{DataType, Schema, Session, Value};
use presto::connector::{CatalogManager, Connector};
use presto::connectors::HiveConnector;
use presto::page::Page;
use presto_testkit::{ScratchDir, TestCluster};
use std::sync::Arc;

/// The cluster, its Hive connector, and the connector's directory, which
/// goes when dropped.
fn fixture(name: &str) -> (TestCluster, Arc<HiveConnector>, ScratchDir) {
    let dir = ScratchDir::new(&format!("metacache-{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    let config = ClusterConfig::test();
    let cache = MetadataCache::new(config.cache.clone());
    let hive = HiveConnector::with_cache(dir.join("hive"), Arc::clone(&cache)).unwrap();
    let schema = Schema::of(&[("uid", DataType::Bigint), ("amount", DataType::Double)]);
    let rows: Vec<Vec<Value>> = (0..500)
        .map(|i| vec![Value::Bigint(i % 50), Value::Double(i as f64)])
        .collect();
    hive.load_table("events", schema.clone(), &[Page::from_rows(&schema, &rows)])
        .unwrap();
    hive.load_table(
        "staging",
        schema.clone(),
        &[Page::from_rows(&schema, &rows)],
    )
    .unwrap();
    let mut catalogs = CatalogManager::new();
    catalogs.register("hive", Arc::clone(&hive) as Arc<dyn Connector>);
    let cluster = TestCluster::start_with_cache(config, catalogs, cache);
    (cluster, hive, dir)
}

#[test]
fn warm_query_parses_zero_footers() {
    let (cluster, hive, _dir) = fixture("warm");
    let session = Session::for_catalog("hive");
    let sql = "SELECT COUNT(*) FROM events";
    let out = cluster.execute_with_session(sql, &session).unwrap();
    assert_eq!(out.rows()[0][0], Value::Bigint(500));
    let cold_footers = hive.io_stats().footer_reads();
    assert!(cold_footers > 0, "cold run fetches footers");
    let out = cluster.execute_with_session(sql, &session).unwrap();
    assert_eq!(out.rows()[0][0], Value::Bigint(500));
    assert_eq!(
        hive.io_stats().footer_reads(),
        cold_footers,
        "warm run parses zero footers"
    );
    assert!(
        cluster.telemetry().cache_counters().hits > 0,
        "warm run is served from the cache"
    );
}

#[test]
fn insert_invalidates_footer_and_stats_entries() {
    let (cluster, hive, _dir) = fixture("insert");
    let session = Session::for_catalog("hive");
    // Warm every cache layer: stats, listing, footers.
    let stats = hive.metadata().table_statistics("events");
    assert_eq!(stats.row_count.value(), Some(500.0));
    let out = cluster
        .execute_with_session("SELECT COUNT(*) FROM events", &session)
        .unwrap();
    assert_eq!(out.rows()[0][0], Value::Bigint(500));
    // The INSERT adds a new data file; the listing, footer, and statistics
    // caches must all drop their entries for the table.
    cluster
        .execute_with_session(
            "INSERT INTO events SELECT uid, amount FROM staging",
            &session,
        )
        .unwrap();
    let out = cluster
        .execute_with_session("SELECT COUNT(*) FROM events", &session)
        .unwrap();
    assert_eq!(out.rows()[0][0], Value::Bigint(1000), "new file is visible");
    let stats = hive.metadata().table_statistics("events");
    assert_eq!(
        stats.row_count.value(),
        Some(1000.0),
        "statistics recomputed after the write"
    );
}
