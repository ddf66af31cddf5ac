#![allow(clippy::unwrap_used)]
//! Differential correctness: the same query must produce identical results
//! under every engine configuration — compiled vs interpreted expressions,
//! lazy vs eager loading, compressed vs decoded processing, 1 vs 4 workers,
//! broadcast vs partitioned joins, all-at-once vs phased scheduling, spill
//! on vs off, shuffle frames with and without LZ, 1 vs 4 leaf drivers.
//! This pins the semantics all the §V/§VI ablations rely on. The memory
//! connector yields only flat blocks, so the same axes also run over a
//! Hive/PORC fixture, whose low-cardinality varchar columns arrive as
//! dictionary blocks and constant columns as RLE blocks (§V-E).

use presto::cluster::{Cluster, ClusterConfig};
use presto::common::{DataType, Schema, Session, Value};
use presto::connector::{CatalogManager, Connector, ConnectorMetadata};
use presto::connectors::HiveConnector;
use presto::page::Page;
use presto::workload::TpchGenerator;
use presto_testkit::{
    memory_catalog, rows_equal, run_sorted, tpch_catalog, ScratchDir, TestCluster,
};
use std::sync::Arc;

fn make_cluster(workers: usize, leaf_parallelism: usize) -> TestCluster {
    start(tpch_catalog(0.002), workers, leaf_parallelism)
}

fn start(catalogs: CatalogManager, workers: usize, leaf_parallelism: usize) -> TestCluster {
    let config = ClusterConfig {
        workers,
        threads_per_worker: 2,
        leaf_parallelism,
        ..ClusterConfig::test()
    };
    TestCluster::start(config, catalogs)
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

#[test]
fn results_invariant_across_configurations() {
    let (reference, wide) = (make_cluster(1, 2), make_cluster(4, 2));
    assert_invariant(&reference, &wide, &Session::for_catalog("memory"), QUERIES);
}

/// Queries whose inputs arrive dictionary- or RLE-encoded from PORC.
const PORC_QUERIES: &[&str] = &[
    // IN and <> on dictionary columns.
    "SELECT shipmode, COUNT(*), SUM(extendedprice) FROM lineitem \
     WHERE shipmode IN ('AIR', 'RAIL') AND returnflag <> 'N' GROUP BY shipmode",
    "SELECT COUNT(*) FROM orders WHERE orderstatus <> 'F' OR orderpriority IN ('1-URGENT')",
    // CASE ... BETWEEN on doubles (integer literals widened to double).
    "SELECT SUM(CASE WHEN quantity BETWEEN 1 AND 10 THEN extendedprice ELSE 0.0 END), \
     SUM(CASE WHEN quantity BETWEEN 11 AND 25 THEN extendedprice ELSE 0.0 END), \
     SUM(CASE WHEN quantity > 25 THEN 1 ELSE 0 END) FROM lineitem",
    // Two dictionary keys.
    "SELECT returnflag, linestatus, SUM(quantity), AVG(discount), COUNT(*) FROM lineitem \
     WHERE shipdate <= DATE '1998-09-01' GROUP BY returnflag, linestatus",
    "SELECT orderstatus, orderpriority, COUNT(*), SUM(totalprice) FROM orders \
     GROUP BY orderstatus, orderpriority",
    // NULLs in a dictionary column: `d.s` is a dictionary in its first
    // stripe and flat with NULLs in its second; the CASE makes a
    // dictionary with a NULL entry.
    "SELECT s, COUNT(*), SUM(k) FROM d GROUP BY s",
    "SELECT COUNT(*), SUM(k) FROM d WHERE s <> 'b' AND s IN ('a', 'c', 'z')",
    "SELECT CASE WHEN s <> 'a' THEN s END, COUNT(*) FROM d \
     GROUP BY CASE WHEN s <> 'a' THEN s END",
    // `x IN (..., NULL)` is NULL, not FALSE, for a non-member.
    "SELECT shipmode IN ('AIR', NULL) AS m, COUNT(*) FROM lineitem \
     GROUP BY shipmode IN ('AIR', NULL)",
    "SELECT COUNT(*) FROM lineitem WHERE shipmode NOT IN ('AIR', NULL)",
    // A varchar-key join: the probe key `x.s` is a dictionary in `d`'s
    // first stripe (the dictionary probe) and flat with NULLs in its second
    // (the general probe); NULL keys join nothing.
    "SELECT x.s, COUNT(*), SUM(y.n) FROM d x \
     JOIN (SELECT s, COUNT(*) AS n FROM d GROUP BY s) y ON x.s = y.s GROUP BY x.s",
    // A two-key join mixing a bigint and a dictionary varchar key.
    "SELECT o.orderstatus, COUNT(*), SUM(o.totalprice) FROM orders o \
     JOIN (SELECT orderkey, orderstatus AS st FROM orders WHERE orderpriority = '1-URGENT') u \
     ON o.orderkey = u.orderkey AND o.orderstatus = u.st GROUP BY o.orderstatus",
    // A per-entry CAST fails on an entry ('x') that no selected row holds.
    "SELECT SUM(CAST(s AS BIGINT)) FROM t WHERE s <> 'x'",
];

/// The TPC-H tables plus `t` (4 000 rows of `s` alternating 'x' and '5')
/// and `d` (two stripes of `k`, `s`; the second with NULL `s`) in PORC.
fn porc_fixture(dir: &std::path::Path) -> Arc<HiveConnector> {
    let hive = HiveConnector::new(dir).unwrap();
    TpchGenerator::new(0.002).load_hive(&hive).unwrap();
    let t = Schema::of(&[("s", DataType::Varchar)]);
    let rows: Vec<Vec<Value>> = (0..4000)
        .map(|i| vec![Value::varchar(if i % 2 == 0 { "x" } else { "5" })])
        .collect();
    hive.load_table("t", t.clone(), &[Page::from_rows(&t, &rows)])
        .unwrap();
    let d = Schema::of(&[("k", DataType::Bigint), ("s", DataType::Varchar)]);
    let rows: Vec<Vec<Value>> = (0..16_384i64)
        .map(|i| {
            let s = match i % 4 {
                3 if i >= 8192 => Value::Null,
                n => Value::varchar(["a", "b", "c", "d"][n as usize]),
            };
            vec![Value::Bigint(i % 7), s]
        })
        .collect();
    hive.load_table("d", d.clone(), &[Page::from_rows(&d, &rows)])
        .unwrap();
    hive
}

#[test]
fn porc_results_invariant_across_configurations() {
    let dir = ScratchDir::new("differential");
    let hive = porc_fixture(&dir);
    let cluster = |workers| {
        let mut catalogs = CatalogManager::new();
        catalogs.register("hive", Arc::clone(&hive) as Arc<dyn Connector>);
        start(catalogs, workers, 2)
    };
    let (reference, wide) = (cluster(1), cluster(4));
    let base = Session::for_catalog("hive");
    assert_eq!(
        run_sorted(&reference, PORC_QUERIES[PORC_QUERIES.len() - 1], &base),
        vec![vec![Value::Bigint(10_000)]]
    );
    let queries: Vec<&str> = QUERIES.iter().chain(PORC_QUERIES).copied().collect();
    assert_invariant(&reference, &wide, &base, &queries);
}

/// `INSERT INTO` a fresh Hive table, from a select whose columns reach the
/// PORC writer as a dictionary (a scanned varchar), an RLE run (a
/// constant), NULL-bearing lanes (`CASE` without `ELSE`), and plain bigint,
/// double, date and boolean lanes. Reading the table back returns the
/// select's rows on 1 and 4 workers, and a range outside the written
/// stripes' min/max reads no stripe.
#[test]
fn insert_round_trips_through_porc() {
    let dir = ScratchDir::new("differential-insert");
    let hive = porc_fixture(&dir);
    let select = "SELECT returnflag, 'etl' AS tag, \
                  CASE WHEN quantity > 25 THEN shipmode END AS big_mode, \
                  CASE WHEN quantity > 25 THEN extendedprice END AS big_price, \
                  orderkey, extendedprice, shipdate, quantity > 25 AS big \
                  FROM lineitem";
    let schema = Schema::of(&[
        ("returnflag", DataType::Varchar),
        ("tag", DataType::Varchar),
        ("big_mode", DataType::Varchar),
        ("big_price", DataType::Double),
        ("orderkey", DataType::Bigint),
        ("extendedprice", DataType::Double),
        ("shipdate", DataType::Date),
        ("big", DataType::Boolean),
    ]);
    let session = Session::for_catalog("hive");
    for workers in [1, 4] {
        let mut catalogs = CatalogManager::new();
        catalogs.register("hive", Arc::clone(&hive) as Arc<dyn Connector>);
        let cluster = start(catalogs, workers, 2);
        let table = format!("written_{workers}");
        hive.create_table(&table, &schema).unwrap();
        let expected = run_sorted(&cluster, select, &session);
        assert!(
            expected.iter().any(|r| r[2].is_null()),
            "the CASE column holds NULLs"
        );
        let inserted = cluster
            .execute_with_session(&format!("INSERT INTO {table} {select}"), &session)
            .unwrap();
        assert_eq!(
            inserted.rows(),
            vec![vec![Value::Bigint(expected.len() as i64)]]
        );
        let read_back = run_sorted(&cluster, &format!("SELECT * FROM {table}"), &session);
        assert!(
            read_back == expected,
            "{workers} workers: the written table differs from the select"
        );

        let io = hive.io_stats();
        let (_, _, pruned_before, read_before) = io.snapshot();
        for predicate in ["orderkey > 1000000", "big_price > 1e12"] {
            let rows = run_sorted(
                &cluster,
                &format!("SELECT COUNT(*) FROM {table} WHERE {predicate}"),
                &session,
            );
            assert_eq!(rows, vec![vec![Value::Bigint(0)]], "{predicate}");
        }
        let (_, _, pruned, read) = io.snapshot();
        assert!(
            pruned > pruned_before,
            "{workers} workers: no stripe pruned"
        );
        assert_eq!(
            read, read_before,
            "{workers} workers: a stripe outside the range was read"
        );
        let low = run_sorted(
            &cluster,
            &format!("SELECT COUNT(*) FROM {table} WHERE orderkey < 100"),
            &session,
        );
        let want = expected
            .iter()
            .filter(|r| r[4].as_i64().is_some_and(|k| k < 100))
            .count();
        assert_eq!(
            low,
            vec![vec![Value::Bigint(want as i64)]],
            "{workers} workers: pruning dropped rows"
        );
    }
}

/// Every query returns the same rows as `base` on `reference` under every
/// configuration axis, on `reference` (1 worker) and `wide` (4 workers).
fn assert_invariant(
    reference_cluster: &Cluster,
    wide_cluster: &Cluster,
    base: &Session,
    queries: &[&str],
) {
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
    s.shuffle_compression_min_bytes = 0;
    sessions.push(("lz-frames".into(), s));

    for sql in queries {
        let expected = run_sorted(reference_cluster, sql, base);
        assert!(!expected.is_empty(), "reference produced no rows for {sql}");
        for (name, session) in &sessions {
            let narrow = run_sorted(reference_cluster, sql, session);
            assert!(
                rows_equal(&narrow, &expected),
                "config '{name}' on 1 worker diverged for: {sql}\n{narrow:?}\nvs\n{expected:?}"
            );
            let wide = run_sorted(wide_cluster, sql, session);
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

/// `SUM(bigint)` is exact — it does not round through `f64` — and its
/// overflow is an error, on the default session and on the all-off one
/// (`bench/`'s oracle session).
#[test]
fn bigint_sum_is_exact_and_overflow_fails() {
    let schema = Schema::of(&[("v", DataType::Bigint)]);
    let rows = |values: [i64; 2]| values.map(|v| vec![Value::Bigint(v)]);
    let (catalogs, _) = memory_catalog()
        .table(
            "exact",
            schema.clone(),
            &rows([9_007_199_254_740_993, 1]),
            2,
        )
        .table("over", schema, &rows([i64::MAX, 1]), 2)
        .build();
    let cluster = start(catalogs, 2, 2);
    let base = Session::for_catalog("memory");
    let all_off = Session {
        pipeline_fusion: false,
        dynamic_filtering: false,
        compiled_expressions: false,
        spill_enabled: false,
        ..base.clone()
    };
    for session in [&base, &all_off] {
        assert_eq!(
            run_sorted(&cluster, "SELECT SUM(v) FROM exact", session),
            vec![vec![Value::Bigint(9_007_199_254_740_994)]]
        );
        let err = cluster
            .execute_with_session("SELECT SUM(v) FROM over", session)
            .unwrap_err();
        assert!(
            format!("{err:?}").contains("bigint addition overflow"),
            "{err:?}"
        );
    }
}
