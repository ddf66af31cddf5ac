#![allow(clippy::unwrap_used)]
//! Differential correctness: the same query must produce identical results
//! under every engine configuration — compiled vs interpreted expressions,
//! lazy vs eager loading, compressed vs decoded processing, 1 vs 4 workers,
//! broadcast vs partitioned joins, all-at-once vs phased scheduling, spill
//! on vs off, compressed vs uncompressed shuffle pages, 1 vs 4 leaf drivers.
//! This pins the semantics all the §V/§VI ablations rely on.

use presto::cluster::{Cluster, ClusterConfig};
use presto::common::{Session, Value};
use presto::connector::{CatalogManager, Connector};
use presto::connectors::MemoryConnector;
use presto::workload::TpchGenerator;
use std::sync::Arc;

fn make_cluster(workers: usize, leaf_parallelism: usize) -> Cluster {
    let mem = MemoryConnector::new();
    TpchGenerator::new(0.002).load_memory(&mem);
    let mut catalogs = CatalogManager::new();
    catalogs.register("memory", mem as Arc<dyn Connector>);
    Cluster::start(
        ClusterConfig {
            workers,
            threads_per_worker: 2,
            leaf_parallelism,
            ..ClusterConfig::test()
        },
        catalogs,
    )
    .unwrap()
}

const QUERIES: &[&str] = &[
    "SELECT returnflag, linestatus, COUNT(*), SUM(quantity), AVG(extendedprice) \
     FROM lineitem GROUP BY returnflag, linestatus",
    "SELECT o.orderpriority, COUNT(*) FROM orders o \
     JOIN lineitem l ON o.orderkey = l.orderkey \
     WHERE l.discount < 0.03 GROUP BY o.orderpriority",
    "SELECT c.mktsegment, SUM(o.totalprice) FROM customer c \
     JOIN orders o ON c.custkey = o.custkey GROUP BY c.mktsegment",
    "SELECT suppkey, COUNT(*) AS n FROM lineitem GROUP BY suppkey \
     HAVING COUNT(*) > 5 ORDER BY n DESC, suppkey LIMIT 20",
    "SELECT shipmode, \
     SUM(CASE WHEN quantity > 25 THEN 1 ELSE 0 END) AS big, \
     SUM(CASE WHEN quantity <= 25 THEN 1 ELSE 0 END) AS small \
     FROM lineitem GROUP BY shipmode",
    "SELECT COUNT(DISTINCT partkey) FROM lineitem WHERE discount = 0.05",
    // Every expression form lowers the same over an aggregation or a window
    // as over a plain scan.
    "SELECT orderkey, COUNT(*) FROM lineitem GROUP BY orderkey HAVING COUNT(*) IN (3, 4)",
    "SELECT shipmode, shipmode LIKE '%AIR%', COUNT(*) FROM lineitem GROUP BY shipmode",
    "SELECT orderkey, CAST(rank() OVER (ORDER BY orderkey) AS varchar), \
     -rank() OVER (ORDER BY orderkey), \
     CASE WHEN rank() OVER (ORDER BY orderkey) = 1 THEN 'first' ELSE 'rest' END \
     FROM orders WHERE orderkey < 100",
];

fn run_sorted(cluster: &Cluster, sql: &str, session: &Session) -> Vec<Vec<Value>> {
    let mut rows = cluster.execute_with_session(sql, session).unwrap().rows();
    rows.sort();
    rows
}

/// Equality modulo floating-point summation order: distributed plans sum
/// doubles in different orders, so compare with a relative tolerance.
fn rows_equal(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(x, y)| match (x, y) {
                    (Value::Double(p), Value::Double(q)) => {
                        let scale = p.abs().max(q.abs()).max(1.0);
                        (p - q).abs() <= scale * 1e-9
                    }
                    _ => x == y,
                })
        })
}

#[test]
fn results_invariant_across_configurations() {
    let reference_cluster = make_cluster(1, 2);
    let wide_cluster = make_cluster(4, 2);
    let base = Session::for_catalog("memory");

    // Configuration axes.
    let mut sessions: Vec<(String, Session)> = Vec::new();
    sessions.push(("baseline".into(), base.clone()));
    let mut s = base.clone();
    s.compiled_expressions = false;
    sessions.push(("interpreted".into(), s));
    let mut s = base.clone();
    s.lazy_loading = false;
    sessions.push(("eager".into(), s));
    let mut s = base.clone();
    s.process_compressed = false;
    sessions.push(("decoded".into(), s));
    let mut s = base.clone();
    s.join_distribution = presto::common::session::JoinDistribution::Broadcast;
    sessions.push(("broadcast".into(), s));
    let mut s = base.clone();
    s.join_distribution = presto::common::session::JoinDistribution::Partitioned;
    sessions.push(("partitioned".into(), s));
    let mut s = base.clone();
    s.scheduling_policy = presto::common::session::SchedulingPolicy::Phased;
    sessions.push(("phased".into(), s));
    let mut s = base.clone();
    s.spill_enabled = true;
    sessions.push(("spill".into(), s));
    let mut s = base.clone();
    s.join_reordering = false;
    sessions.push(("no-cbo".into(), s));
    let mut s = base.clone();
    s.shuffle_compression_min_bytes = usize::MAX;
    sessions.push(("uncompressed".into(), s));

    for sql in QUERIES {
        let expected = run_sorted(&reference_cluster, sql, &base);
        assert!(!expected.is_empty(), "reference produced no rows for {sql}");
        for (name, session) in &sessions {
            let narrow = run_sorted(&reference_cluster, sql, session);
            assert!(
                rows_equal(&narrow, &expected),
                "config '{name}' on 1 worker diverged for: {sql}\n{narrow:?}\nvs\n{expected:?}"
            );
            let wide = run_sorted(&wide_cluster, sql, session);
            assert!(
                rows_equal(&wide, &expected),
                "config '{name}' on 4 workers diverged for: {sql}\n{wide:?}\nvs\n{expected:?}"
            );
        }
    }
}

/// Leaf parallelism (§IV-C4) only changes how many drivers of a task share
/// its splits: grouped scans return the same rows at 1 and at 4 drivers.
#[test]
fn grouped_scans_invariant_across_leaf_parallelism() {
    let serial = make_cluster(2, 1);
    let parallel = make_cluster(2, 4);
    let session = Session::for_catalog("memory");
    for sql in [QUERIES[0], QUERIES[4], QUERIES[5]] {
        let expected = run_sorted(&serial, sql, &session);
        assert!(!expected.is_empty(), "no rows for {sql}");
        let rows = run_sorted(&parallel, sql, &session);
        assert!(
            rows_equal(&rows, &expected),
            "leaf_parallelism 4 diverged from 1 for: {sql}\n{rows:?}\nvs\n{expected:?}"
        );
    }
}
