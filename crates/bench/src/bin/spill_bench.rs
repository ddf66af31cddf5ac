//! §IV-F2 graceful-degradation benchmark: a hash join + aggregation whose
//! build side exceeds the task memory budget must complete by spilling —
//! with results byte-identical to an unconstrained run — instead of being
//! killed.
//!
//! Two clusters run the same query over the same data:
//!
//! - **constrained**: 8 KB general + 8 KB reserved pool, spill enabled.
//!   Memory arbitration requests revocation, operators spill run files,
//!   and the query completes.
//! - **reference**: default pools, no spill.
//!
//! The benchmark asserts the sorted result sets are identical, that the
//! constrained run actually spilled (`spilled_bytes > 0`), and that no
//! run file outlives the query. Timings and spill totals are recorded so
//! the degradation cost is visible across commits.
//!
//! ```sh
//! cargo run --release -p presto-bench --bin spill_bench [-- --smoke]
//! ```
//!
//! Emits `BENCH_spill.json` in the working directory.
#![deny(clippy::unwrap_used)]

use presto_bench::report::BenchReport;
use presto_cluster::{Cluster, ClusterConfig};
use presto_common::json::Json;
use presto_common::{DataType, Schema, Session, Value};
use presto_connector::{CatalogManager, Connector};
use presto_connectors::MemoryConnector;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

struct Sizing {
    orders_rows: i64,
    lineitem_rows: i64,
}

fn sizing(smoke: bool) -> Sizing {
    if smoke {
        Sizing {
            orders_rows: 1_000,
            lineitem_rows: 5_000,
        }
    } else {
        Sizing {
            orders_rows: 5_000,
            lineitem_rows: 40_000,
        }
    }
}

/// orders ⋈ lineitem with a wide GROUP BY: the join build side and the
/// aggregation table both dwarf an 8 KB pool, so both operators must
/// degrade through the spill path.
const QUERY: &str = "SELECT o.orderkey, o.custkey, COUNT(*), SUM(l.tax), SUM(l.discount) \
                     FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey \
                     GROUP BY o.orderkey, o.custkey";

fn catalogs(sz: &Sizing) -> CatalogManager {
    let mem = MemoryConnector::new();
    let orders = Schema::of(&[
        ("orderkey", DataType::Bigint),
        ("custkey", DataType::Bigint),
        ("totalprice", DataType::Double),
    ]);
    let rows: Vec<Vec<Value>> = (0..sz.orders_rows)
        .map(|i| {
            vec![
                Value::Bigint(i),
                Value::Bigint(i % 100),
                Value::Double(i as f64 * 1.5), // dyadic, exact in f64
            ]
        })
        .collect();
    let pages: Vec<presto_page::Page> = rows
        .chunks(200)
        .map(|chunk| presto_page::Page::from_rows(&orders, chunk))
        .collect();
    mem.load_table("orders", orders, pages);

    let lineitem = Schema::of(&[
        ("orderkey", DataType::Bigint),
        ("tax", DataType::Double),
        ("discount", DataType::Double),
    ]);
    let rows: Vec<Vec<Value>> = (0..sz.lineitem_rows)
        .map(|i| {
            // Dyadic values: every partial sum is exact in f64, so the
            // result is independent of accumulation order and the
            // byte-identical assertion is meaningful (spilling reorders
            // additions; with inexact addends both runs would be "right"
            // yet differ in the last ulp).
            vec![
                Value::Bigint(i % sz.orders_rows),
                Value::Double((i % 7) as f64 * 0.25),
                Value::Double((i % 11) as f64 * 0.125),
            ]
        })
        .collect();
    let pages: Vec<presto_page::Page> = rows
        .chunks(200)
        .map(|chunk| presto_page::Page::from_rows(&lineitem, chunk))
        .collect();
    mem.load_table("lineitem", lineitem, pages);
    mem.analyze("orders").expect("analyze orders");
    mem.analyze("lineitem").expect("analyze lineitem");

    let connector: Arc<dyn Connector> = mem;
    let mut catalogs = CatalogManager::new();
    catalogs.register("memory", connector);
    catalogs
}

fn spill_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("presto-spill-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn spill_files(dir: &PathBuf) -> usize {
    std::fs::read_dir(dir).map_or(0, |rd| rd.count())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sz = sizing(smoke);
    println!(
        "spill_bench mode={} orders={} lineitem={}",
        if smoke { "smoke" } else { "full" },
        sz.orders_rows,
        sz.lineitem_rows
    );

    // Reference: unconstrained pools, no spill.
    let reference = Cluster::start(ClusterConfig::test(), catalogs(&sz)).expect("cluster");
    let started = Instant::now();
    let expected = reference.execute(QUERY).expect("reference query");
    let reference_wall = started.elapsed();

    // Constrained: pools far below the build-side footprint; the query
    // can only finish by revoking memory and spilling.
    let dir = spill_dir();
    let config = ClusterConfig {
        node_memory_bytes: 8 << 10,
        reserved_pool_bytes: 8 << 10,
        ..ClusterConfig::test()
    };
    let constrained = Cluster::start(config, catalogs(&sz)).expect("cluster");
    let session = Session {
        spill_enabled: true,
        spill_dir: Some(dir.clone()),
        spill_max_bytes: 256 << 20,
        ..Session::default()
    };
    let started = Instant::now();
    let actual = constrained
        .execute_with_session(QUERY, &session)
        .expect("constrained query must degrade gracefully, not die");
    let constrained_wall = started.elapsed();

    // The acceptance bar: byte-identical results, real spill activity,
    // zero residue on disk.
    let mut expected_rows = expected.rows();
    let mut actual_rows = actual.rows();
    expected_rows.sort();
    actual_rows.sort();
    assert_eq!(
        format!("{expected_rows:?}"),
        format!("{actual_rows:?}"),
        "memory-limited run must be byte-identical to the unconstrained run"
    );
    let snap = constrained.metrics_snapshot();
    assert!(
        snap.spill.spilled_bytes > 0,
        "constrained run never spilled"
    );
    assert!(snap.spill.spill_events > 0);
    assert!(snap.spill.queries_spilled >= 1);
    let leftover = spill_files(&dir);
    assert_eq!(leftover, 0, "{leftover} spill files leaked in {dir:?}");
    std::fs::remove_dir_all(&dir).ok();
    let revocations: i64 = snap
        .workers
        .iter()
        .map(|w| w.memory.revocation_requests)
        .sum();

    println!(
        "rows={} identical=true spilled_bytes={} spill_events={} revocations={}",
        actual_rows.len(),
        snap.spill.spilled_bytes,
        snap.spill.spill_events,
        revocations
    );
    println!(
        "reference={reference_wall:>8.2?} constrained={constrained_wall:>8.2?} slowdown={:.2}x",
        constrained_wall.as_secs_f64() / reference_wall.as_secs_f64().max(1e-9)
    );

    BenchReport::new("spill")
        .config(
            "mode",
            Json::Str(if smoke { "smoke" } else { "full" }.into()),
        )
        .config("orders_rows", Json::Int(sz.orders_rows))
        .config("lineitem_rows", Json::Int(sz.lineitem_rows))
        .config("node_memory_bytes", Json::Int(8 << 10))
        .metric("rows", Json::Int(actual_rows.len() as i64))
        .metric("identical", Json::Bool(true))
        .metric("spilled_bytes", Json::Int(snap.spill.spilled_bytes as i64))
        .metric("spill_events", Json::Int(snap.spill.spill_events as i64))
        .metric("revocation_requests", Json::Int(revocations))
        .metric(
            "reference_ms",
            Json::Num(reference_wall.as_secs_f64() * 1e3),
        )
        .metric(
            "constrained_ms",
            Json::Num(constrained_wall.as_secs_f64() * 1e3),
        )
        .metric(
            "slowdown",
            Json::Num(constrained_wall.as_secs_f64() / reference_wall.as_secs_f64().max(1e-9)),
        )
        .write();
    println!("spill_bench: ok");
}
