//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every figure and table in the paper's evaluation (§VI) and the §V-B/D/E
//! claims have a binary in `src/bin/` that regenerates them, as do the
//! `hash_kernels` and `fusion_bench` kernel comparisons; see EXPERIMENTS.md
//! for the index. Other mechanisms are checked by tier-1 tests and measured
//! by the `bench/` ledger. This module provides the common cluster fixture
//! (the four Table I connectors) and small stats helpers.

use presto_cache::MetadataCache;
use presto_cluster::{Cluster, ClusterConfig};
use presto_common::NodeId;
use presto_connector::{CatalogManager, Connector};
use presto_connectors::{HiveConnector, MemoryConnector, RaptorConnector, ShardedSqlConnector};
use presto_workload::TpchGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

pub mod kernels;

/// Scale factor for benchmark data; override with `PRESTO_SF`.
pub fn scale_factor() -> f64 {
    std::env::var("PRESTO_SF")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.01)
}

/// Worker count; override with `PRESTO_WORKERS`.
pub fn worker_count() -> usize {
    std::env::var("PRESTO_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

pub fn bench_config() -> ClusterConfig {
    ClusterConfig {
        workers: worker_count(),
        threads_per_worker: 2,
        leaf_parallelism: 2,
        ..Default::default()
    }
}

/// A scratch directory under the target dir, wiped per run.
pub fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("presto-bench-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The evaluation fixture: all four Table I connectors loaded and mounted.
pub struct BenchCluster {
    pub cluster: Cluster,
    pub hive: Arc<HiveConnector>,
    dir: std::path::PathBuf,
}

impl BenchCluster {
    /// Build the full fixture at the given TPC-H scale.
    pub fn new(name: &str, scale: f64) -> BenchCluster {
        let dir = scratch_dir(name);
        let config = bench_config();
        let generator = TpchGenerator::new(scale);

        let memory = MemoryConnector::new();
        generator.load_memory(&memory);

        // One engine-wide metadata cache, shared by every connector and
        // charged against the cluster's worker pools at start.
        let cache = MetadataCache::new(config.cache.clone());

        let hive = HiveConnector::with_cache(dir.join("hive"), Arc::clone(&cache)).expect("hive");
        generator.load_hive(&hive).expect("load hive");

        let nodes: Vec<NodeId> = (0..config.workers as u32).map(NodeId).collect();
        let raptor = RaptorConnector::with_cache(dir.join("raptor"), nodes, Arc::clone(&cache))
            .expect("raptor");
        generator
            .load_raptor(&raptor, config.workers * 2)
            .expect("load raptor");
        load_abtest_tables(&raptor, scale);

        let sharded = ShardedSqlConnector::with_cache(8, Arc::clone(&cache));
        load_ads_table(&sharded, scale);

        let mut catalogs = CatalogManager::new();
        catalogs.register("memory", memory as Arc<dyn Connector>);
        catalogs.register("hive", Arc::clone(&hive) as Arc<dyn Connector>);
        catalogs.register("raptor", raptor as Arc<dyn Connector>);
        catalogs.register("sharded", sharded as Arc<dyn Connector>);
        let cluster = Cluster::start_with_cache(config, catalogs, cache).expect("cluster");
        BenchCluster { cluster, hive, dir }
    }
}

impl Drop for BenchCluster {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// exposure/conversion tables for the A/B Testing use case, bucketed on
/// uid in Raptor so joins run co-located (§II-C).
fn load_abtest_tables(raptor: &RaptorConnector, scale: f64) {
    use presto_common::{DataType, Schema, Value};
    let schema = Schema::of(&[
        ("uid", DataType::Bigint),
        ("test_id", DataType::Bigint),
        ("v", DataType::Double),
    ]);
    let users = ((200_000.0 * scale) as i64).max(2_000);
    let rows_exposure = users * 10;
    let mut rng = StdRng::seed_from_u64(77);
    for table in ["exposure", "conversion"] {
        raptor
            .create_bucketed_table(table, &schema, vec![0], 8)
            .expect("bucketed");
        let n = if table == "exposure" {
            rows_exposure
        } else {
            rows_exposure / 3
        };
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| {
                vec![
                    Value::Bigint(rng.gen_range(0..users)),
                    Value::Bigint(rng.gen_range(0..20)),
                    Value::Double(rng.gen_range(0.0..10.0)),
                ]
            })
            .collect();
        let pages: Vec<presto_page::Page> = rows
            .chunks(8192)
            .map(|c| presto_page::Page::from_rows(&schema, c))
            .collect();
        raptor.load_table(table, &pages).expect("load");
    }
}

/// ads table for the Developer/Advertiser Analytics use case, sharded on
/// advertiser_id (§II-D).
fn load_ads_table(sharded: &ShardedSqlConnector, scale: f64) {
    use presto_common::{DataType, Schema, Value};
    let schema = Schema::of(&[
        ("ad_id", DataType::Bigint),
        ("advertiser_id", DataType::Bigint),
        ("clicks", DataType::Bigint),
        ("spend", DataType::Double),
        ("day", DataType::Bigint),
    ]);
    let n = ((500_000.0 * scale) as i64).max(2_000);
    let mut rng = StdRng::seed_from_u64(99);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            vec![
                Value::Bigint(i % (n / 10).max(1)),
                Value::Bigint(rng.gen_range(0..50)),
                Value::Bigint(rng.gen_range(0..10)),
                Value::Double(rng.gen_range(0.0..5.0)),
                Value::Bigint(rng.gen_range(0..30)),
            ]
        })
        .collect();
    sharded.load_table("ads", schema, 1, &rows);
}

/// Percentile of a sorted duration slice.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Geometric mean of ratios.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Fixed-width milliseconds for tables.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1000.0)
}

/// One summary line per metadata-cache layer, from cluster telemetry.
pub fn print_cache_summary(cluster: &Cluster) {
    let telemetry = cluster.telemetry();
    let total = [("TOTAL", telemetry.cache_counters())];
    for (name, c) in telemetry.cache_counters_by_layer().into_iter().chain(total) {
        println!(
            "cache {name:<16} hits {:>6}  misses {:>6}  hit_rate {:>5.1}%  evictions {:>4}  bytes {:>9}",
            c.hits,
            c.misses,
            c.hit_rate() * 100.0,
            c.evictions,
            c.bytes,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_geomean() {
        let d: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&d, 0.5), Duration::from_millis(51));
        assert_eq!(percentile(&d, 1.0), Duration::from_millis(100));
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
    }
}
