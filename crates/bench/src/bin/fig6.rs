//! Figure 6: "Query runtimes for a subset of TPC-DS" across three
//! connector configurations — Raptor, Hive/HDFS without statistics, and
//! Hive/HDFS with table/column statistics.
//!
//! The paper's message: one unmodified Presto cluster adapts to connector
//! characteristics. Raptor (local flash, always-fresh statistics) is
//! fastest; Hive with statistics closes much of the gap via cost-based
//! join re-ordering and distribution selection; Hive without statistics is
//! slowest. The queries here are the DESIGN.md stand-ins (TPC-H tables,
//! TPC-DS-shaped queries, labels preserved).
//!
//! One pass's geomean moves more than the gap it reports, so the whole
//! query set runs [`PASSES`] times per configuration: the table shows each
//! query's median, and the summary the median geomean ratio with its
//! min–max over the passes.
//!
//! ```sh
//! cargo run --release -p presto-bench --bin fig6
//! ```

use presto_bench::{
    bench_config, geomean, ms, print_cache_summary, scale_factor, scratch_dir, worker_count,
};
use presto_cache::MetadataCache;
use presto_cluster::Cluster;
use presto_common::{NodeId, Session};
use presto_connector::{CatalogManager, Connector};
use presto_connectors::{HiveConnector, RaptorConnector};
use presto_workload::{TpchGenerator, FIG6_QUERIES};
use std::sync::Arc;
use std::time::Duration;

/// Runs of the whole query set per configuration.
const PASSES: usize = 5;

/// The median of `values` and their range, as `1.23x (1.10–1.40x)`.
fn median_with_range(mut values: Vec<f64>) -> String {
    values.sort_by(f64::total_cmp);
    let median = values[values.len() / 2];
    let (min, max) = (values[0], values[values.len() - 1]);
    format!("{median:.2}x ({min:.2}–{max:.2}x)")
}

fn main() {
    let scale = scale_factor();
    let dir = scratch_dir("fig6");
    let config = bench_config();
    println!(
        "Figure 6 reproduction: TPC-DS-shaped query runtimes (SF {scale}, {} workers)",
        worker_count()
    );
    println!("paper: Fig. 6 — Raptor < Hive+stats < Hive(no stats)\n");

    let generator = TpchGenerator::new(scale);
    let cache = MetadataCache::new(config.cache.clone());
    // Raptor: shared-nothing local storage, bucketed on join keys.
    let raptor = RaptorConnector::with_cache(
        dir.join("raptor"),
        (0..config.workers as u32).map(NodeId).collect::<Vec<_>>(),
        Arc::clone(&cache),
    )
    .expect("raptor");
    generator
        .load_raptor(&raptor, config.workers * 2)
        .expect("load raptor");
    // Hive: shared storage with simulated remote-read latency.
    let hive = HiveConnector::with_cache(dir.join("hive"), Arc::clone(&cache)).expect("hive");
    generator.load_hive(&hive).expect("load hive");
    hive.set_read_latency(Duration::from_micros(300));

    let mut catalogs = CatalogManager::new();
    catalogs.register("raptor", Arc::clone(&raptor) as Arc<dyn Connector>);
    catalogs.register("hive", Arc::clone(&hive) as Arc<dyn Connector>);
    let cluster = Cluster::start_with_cache(config, catalogs, cache).expect("cluster");

    // A failed query has no runtime to plot: stop, naming it.
    let run = |label: &str, config: &str, sql: &str, session: &Session| -> Duration {
        match cluster.execute_with_session(sql, session) {
            Ok(out) => out.wall_time,
            Err(e) => {
                eprintln!("fig6: {label} failed on {config}: {e}");
                std::fs::remove_dir_all(&dir).ok();
                std::process::exit(1);
            }
        }
    };

    // Three configurations, as in the paper.
    let raptor_session = Session::for_catalog("raptor");
    let mut hive_nostats = Session::for_catalog("hive");
    hive_nostats.join_reordering = true; // CBO on, but stats are hidden
    let hive_stats = Session::for_catalog("hive");

    // Per pass, per query: (raptor, hive no stats, hive stats).
    let passes: Vec<Vec<[Duration; 3]>> = (0..PASSES)
        .map(|_| {
            (FIG6_QUERIES.iter())
                .map(|(label, sql)| {
                    // Warm the Raptor path once so first-run effects don't
                    // skew q09.
                    let r = {
                        let a = run(label, "raptor", sql, &raptor_session);
                        let b = run(label, "raptor", sql, &raptor_session);
                        a.min(b)
                    };
                    hive.set_statistics_enabled(false);
                    let hn = run(label, "hive (no stats)", sql, &hive_nostats);
                    hive.set_statistics_enabled(true);
                    let hs = run(label, "hive (stats)", sql, &hive_stats);
                    [r, hn, hs]
                })
                .collect()
        })
        .collect();

    println!("median of {PASSES} passes:");
    println!(
        "{:<6} {:>12} {:>18} {:>16}",
        "query", "raptor_ms", "hive_nostats_ms", "hive_stats_ms"
    );
    for (q, (label, _)) in FIG6_QUERIES.iter().enumerate() {
        let median = |config: usize| {
            let mut times: Vec<Duration> = passes.iter().map(|p| p[q][config]).collect();
            times.sort();
            ms(times[PASSES / 2])
        };
        println!(
            "{label:<6} {:>12} {:>18} {:>16}",
            median(0),
            median(1),
            median(2)
        );
    }
    // One geomean per pass and configuration.
    let ratios = |config: usize| -> Vec<f64> {
        (passes.iter())
            .map(|pass| {
                let per_query: Vec<f64> = (pass.iter())
                    .map(|t| t[config].as_secs_f64() / t[0].as_secs_f64())
                    .collect();
                geomean(&per_query)
            })
            .collect()
    };
    println!("\ngeomean slowdown vs Raptor, median of {PASSES} passes (min–max):");
    println!(
        "  Hive/HDFS (no stats):          {}",
        median_with_range(ratios(1))
    );
    println!(
        "  Hive/HDFS (table/column stats): {}",
        median_with_range(ratios(2))
    );
    println!("\nexpected shape (paper): Raptor fastest; statistics close much of the gap.");
    println!();
    print_cache_summary(&cluster);
    std::fs::remove_dir_all(&dir).ok();
}
