//! The Interactive Analytics use case (§II-A): many concurrent ad-hoc
//! queries over a Hive-style warehouse, with the MLFQ scheduler keeping
//! cheap queries fast while heavier ones run.
//!
//! ```sh
//! cargo run --release --example interactive_analytics
//! ```

use presto::cluster::{Cluster, ClusterConfig};
use presto::connector::{CatalogManager, Connector};
use presto::connectors::HiveConnector;
use presto::workload::usecases::{UseCase, WorkloadGenerator};
use presto::workload::TpchGenerator;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let warehouse = std::env::temp_dir().join("presto-example-warehouse");
    std::fs::remove_dir_all(&warehouse).ok();
    let hive = HiveConnector::new(&warehouse)?;
    println!("generating TPC-H data (scale 0.01) into the warehouse…");
    TpchGenerator::new(0.01).load_hive(&hive)?;

    let mut catalogs = CatalogManager::new();
    catalogs.register("hive", Arc::clone(&hive) as Arc<dyn Connector>);
    let cluster = Cluster::start(
        ClusterConfig {
            workers: 4,
            threads_per_worker: 2,
            ..Default::default()
        },
        catalogs,
    )?;

    // Fire 20 concurrent ad-hoc queries, like a busy dashboard hour.
    let mut generator = WorkloadGenerator::new(UseCase::Interactive, 42);
    let session = UseCase::Interactive.session();
    let handles: Vec<_> = (0..20)
        .map(|_| cluster.submit(generator.next_query(), session.clone()))
        .collect();
    let mut times = Vec::new();
    for h in handles {
        let out = h.join().expect("query thread panicked")?;
        times.push(out.wall_time);
    }
    times.sort();
    println!("ran {} queries concurrently on 4 workers", times.len());
    println!("  p50 {:>10.2?}", times[times.len() / 2]);
    println!("  p90 {:>10.2?}", times[times.len() * 9 / 10]);
    println!("  max {:>10.2?}", times[times.len() - 1]);
    let busy: std::time::Duration = cluster.telemetry().worker_busy().iter().sum();
    println!("aggregate worker CPU: {busy:.2?}");
    std::fs::remove_dir_all(&warehouse).ok();
    Ok(())
}
