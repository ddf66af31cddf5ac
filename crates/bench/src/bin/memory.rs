//! §IV-F2: memory arbitration under overcommit.
//!
//! "It is generally safe to overcommit the memory of the cluster as long
//! as mechanisms exist to keep the cluster healthy when nodes are low on
//! memory. There are two such mechanisms in Presto — spilling, and
//! reserved pools." This bench runs memory-hungry concurrent aggregations
//! against a deliberately small pool under three policies and reports
//! completion counts and wall time.
//!
//! ```sh
//! cargo run --release -p presto-bench --bin memory
//! ```

use presto_cluster::{Cluster, ClusterConfig};
use presto_common::Session;
use presto_connector::{CatalogManager, Connector};
use presto_connectors::MemoryConnector;
use presto_workload::TpchGenerator;
use std::sync::Arc;
use std::time::Instant;

const HUNGRY: &str = "SELECT orderkey, partkey, COUNT(*), SUM(extendedprice), AVG(quantity) \
                      FROM lineitem GROUP BY orderkey, partkey";

fn run_policy(label: &str, pool_bytes: u64, kill: bool, spill: bool, concurrency: usize) {
    let mem = MemoryConnector::new();
    TpchGenerator::new(0.005).load_memory(&mem);
    let mut catalogs = CatalogManager::new();
    catalogs.register("memory", mem as Arc<dyn Connector>);
    let cluster = Cluster::start(
        ClusterConfig {
            workers: 2,
            threads_per_worker: 2,
            node_memory_bytes: pool_bytes,
            reserved_pool_bytes: pool_bytes,
            kill_on_memory_exhausted: kill,
            ..Default::default()
        },
        catalogs,
    )
    .expect("cluster");
    let session = Session {
        spill_enabled: spill,
        ..Session::default()
    };
    let start = Instant::now();
    let handles: Vec<_> = (0..concurrency)
        .map(|_| cluster.submit(HUNGRY, session.clone()))
        .collect();
    let mut ok = 0;
    let mut killed = 0;
    for h in handles {
        match h.join().expect("query thread") {
            Ok(_) => ok += 1,
            Err(_) => killed += 1,
        }
    }
    println!(
        "{label:<34} completed={ok:<3} killed={killed:<3} wall={:>8.2?}",
        start.elapsed()
    );
}

fn main() {
    println!("§IV-F2 reproduction: memory arbitration policies under overcommit\n");
    let concurrency = 6;
    // Pool sized so one query fits but six do not.
    let pool = 2u64 << 20;
    run_policy("reserved-pool promotion", pool, false, false, concurrency);
    run_policy("kill-largest policy", pool, true, false, concurrency);
    run_policy("spill-to-disk", pool, false, true, concurrency);
    run_policy(
        "ample memory (baseline)",
        1 << 30,
        false,
        false,
        concurrency,
    );
    println!("\nexpected shape (paper): with the reserved pool every query eventually");
    println!("completes (serialized through promotion); the kill policy sacrifices");
    println!("queries to keep the node healthy; spilling completes under the limit.");
}
