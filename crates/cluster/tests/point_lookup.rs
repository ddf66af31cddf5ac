//! Point lookups on a sharded source (§II-D Developer/Advertiser
//! Analytics): a query whose key predicate pins one shard runs as one task
//! with no exchange, and answers what the single-worker reference engine
//! answers. Lookups that can touch several buckets, or whose layout pins
//! data to nodes, stay distributed.

#![allow(clippy::unwrap_used)]

use presto_cluster::ClusterConfig;
use presto_common::{DataType, Schema, Session, Value};
use presto_connector::{CatalogManager, Connector, Domain, TupleDomain};
use presto_connectors::{RaptorConnector, ShardedSqlConnector};
use presto_testkit::{
    memory_catalog, rows_equal, run_sorted, sorted, MemoryCatalog, ScratchDir, TestCluster,
};
use std::sync::Arc;

const SHARDS: usize = 4;
/// `ads.advertiser_id`, the sharding key.
const KEY: usize = 1;

fn ads_schema() -> Schema {
    Schema::of(&[
        ("ad_id", DataType::Bigint),
        ("advertiser_id", DataType::Bigint),
        ("clicks", DataType::Bigint),
        ("spend", DataType::Double),
        ("day", DataType::Bigint),
    ])
}

/// 2 000 rows over 50 advertisers, 200 ads and 30 days.
fn ads_rows() -> Vec<Vec<Value>> {
    (0..2000i64)
        .map(|i| {
            vec![
                Value::Bigint(i % 200),
                Value::Bigint(i * 7 % 50),
                Value::Bigint(i % 10),
                Value::Double((i % 37) as f64 * 0.5),
                Value::Bigint(i % 30),
            ]
        })
        .collect()
}

/// Adds a 30-row `days` table in three pages, so its scan has several
/// splits.
fn with_days(catalog: MemoryCatalog) -> MemoryCatalog {
    let schema = Schema::of(&[("day", DataType::Bigint), ("weekend", DataType::Boolean)]);
    let rows: Vec<Vec<Value>> = (0..30i64)
        .map(|d| vec![Value::Bigint(d), Value::Boolean(d % 7 >= 5)])
        .collect();
    catalog.table("days", schema, &rows, 10)
}

struct Fixture {
    /// Four workers; `ads` (and `sparse`, all of whose rows sit in one
    /// shard) in the sharded catalog, `days` in memory.
    cluster: TestCluster,
    sharded: Arc<ShardedSqlConnector>,
    /// One worker over the same rows in the memory catalog, with every
    /// optimisation that must never change an answer switched off.
    oracle: TestCluster,
}

impl Fixture {
    fn new() -> Fixture {
        let rows = ads_rows();
        let sharded = ShardedSqlConnector::new(SHARDS);
        sharded.load_table("ads", ads_schema(), KEY, &rows);
        let sparse: Vec<Vec<Value>> = rows
            .iter()
            .filter(|r| r[KEY] == Value::Bigint(7))
            .cloned()
            .collect();
        sharded.load_table("sparse", ads_schema(), KEY, &sparse);
        let (mut catalogs, _) = with_days(memory_catalog()).build();
        catalogs.register("sharded", Arc::clone(&sharded) as Arc<dyn Connector>);
        let config = ClusterConfig {
            workers: 4,
            ..ClusterConfig::test()
        };
        let cluster = TestCluster::start(config, catalogs);

        let reference = memory_catalog()
            .table("ads", ads_schema(), &rows, rows.len())
            .table("sparse", ads_schema(), &sparse, sparse.len());
        let config = ClusterConfig {
            workers: 1,
            ..ClusterConfig::test()
        };
        let oracle = TestCluster::start(config, with_days(reference).build().0);
        Fixture {
            cluster,
            sharded,
            oracle,
        }
    }

    /// Shards a scan of `table` under `advertiser_id IN keys` reads, with
    /// the rows each holds.
    fn shards_read(&self, table: &str, keys: &[i64]) -> Vec<u64> {
        let mut predicate = TupleDomain::all();
        predicate.constrain(
            KEY,
            Domain::Set(keys.iter().map(|&k| Value::Bigint(k)).collect()),
        );
        let mut source = self
            .sharded
            .split_source(table, "sharded", &predicate)
            .unwrap();
        source
            .next_batch(SHARDS + 1)
            .unwrap()
            .iter()
            .map(|s| s.estimated_rows)
            .collect()
    }

    /// Run `sql` on the sharded cluster; return its rows and how many
    /// tasks and exchange operators it ran, from the query history.
    fn run(&self, sql: &str) -> (Vec<Vec<Value>>, usize, usize) {
        let out = self
            .cluster
            .execute_with_session(sql, &Session::for_catalog("sharded"))
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        let entry = self.cluster.query_history().get(out.query).unwrap();
        let exchanges = entry
            .tasks
            .iter()
            .flat_map(|t| &t.operators)
            .filter(|op| op.name == "ExchangeSource")
            .count();
        (sorted(out.rows()), entry.tasks.len(), exchanges)
    }

    /// The distributed plan of `sql`: (fragments, remote sources).
    fn explain(&self, sql: &str) -> (usize, usize) {
        let out = self
            .cluster
            .execute_with_session(&format!("EXPLAIN {sql}"), &Session::for_catalog("sharded"))
            .unwrap();
        let Value::Varchar(text) = &out.rows()[0][0] else {
            panic!("EXPLAIN returned no text");
        };
        (
            text.matches("Fragment ").count(),
            text.matches("RemoteSource").count(),
        )
    }

    fn assert_matches_reference(&self, sql: &str, rows: &[Vec<Value>]) {
        let session = Session {
            pipeline_fusion: false,
            dynamic_filtering: false,
            compiled_expressions: false,
            spill_enabled: false,
            ..Session::for_catalog("memory")
        };
        let want = run_sorted(&self.oracle, sql, &session);
        assert!(rows_equal(rows, &want), "{sql}\n{rows:?}\nvs\n{want:?}");
    }
}

/// The three query shapes of the `point_lookup` workload.
const POINT_LOOKUPS: [&str; 3] = [
    "SELECT day, SUM(clicks), SUM(spend) FROM ads WHERE advertiser_id = 7 \
     GROUP BY day ORDER BY day",
    "SELECT COUNT(*), AVG(spend) FROM ads WHERE advertiser_id = 7 AND clicks > 3",
    "SELECT ad_id, c, rank() OVER (ORDER BY c DESC) AS r \
     FROM (SELECT ad_id, SUM(clicks) AS c FROM ads WHERE advertiser_id = 7 GROUP BY ad_id) t \
     ORDER BY c DESC, ad_id LIMIT 20",
];

#[test]
fn point_lookups_run_as_one_task_without_exchanges() {
    let f = Fixture::new();
    assert_eq!(f.shards_read("ads", &[7]).len(), 1);
    for sql in POINT_LOOKUPS {
        let (rows, tasks, exchanges) = f.run(sql);
        assert_eq!((tasks, exchanges), (1, 0), "{sql}");
        assert_eq!(f.explain(sql), (1, 0), "{sql}");
        assert!(!rows.is_empty(), "{sql}");
        f.assert_matches_reference(sql, &rows);
    }
}

#[test]
fn lookups_that_may_touch_several_buckets_stay_distributed() {
    let f = Fixture::new();
    let other = (8..50)
        .find(|&k| f.shards_read("ads", &[7, k]).len() == 2)
        .unwrap();
    for sql in [
        format!(
            "SELECT day, SUM(clicks) FROM ads WHERE advertiser_id IN (7, {other}) GROUP BY day"
        ),
        "SELECT day, SUM(clicks) FROM ads WHERE advertiser_id < 10 GROUP BY day".to_string(),
    ] {
        let (rows, tasks, exchanges) = f.run(&sql);
        assert!(tasks > 1 && exchanges > 0, "{sql}: {tasks} tasks");
        let (fragments, remote) = f.explain(&sql);
        assert!(fragments > 1 && remote > 0, "{sql}");
        f.assert_matches_reference(&sql, &rows);
    }
}

#[test]
fn a_pin_on_a_node_local_layout_stays_distributed() {
    let dir = ScratchDir::new("raptor-pin");
    let nodes = (0..2).map(presto_common::NodeId).collect();
    let raptor = RaptorConnector::new(&dir, nodes).unwrap();
    let schema = Schema::of(&[("uid", DataType::Bigint), ("v", DataType::Bigint)]);
    raptor
        .create_bucketed_table("t", &schema, vec![0], 4)
        .unwrap();
    let rows: Vec<Vec<Value>> = (0..200)
        .map(|i| vec![Value::Bigint(i % 50), Value::Bigint(i)])
        .collect();
    raptor
        .load_table("t", &[presto_page::Page::from_rows(&schema, &rows)])
        .unwrap();
    let mut catalogs = CatalogManager::new();
    catalogs.register("raptor", raptor as Arc<dyn Connector>);
    let c = TestCluster::start(ClusterConfig::test(), catalogs);
    let out = c
        .execute_with_session(
            "SELECT SUM(v) FROM t WHERE uid = 3",
            &Session::for_catalog("raptor"),
        )
        .unwrap();
    // uid 3 holds v = 3, 53, 103, 153.
    assert_eq!(out.rows(), vec![vec![Value::Bigint(312)]]);
    let tasks = c.query_history().get(out.query).unwrap().tasks.len();
    assert!(tasks > 1, "{tasks} tasks");
}

#[test]
fn pinned_queries_match_the_reference_engine() {
    let f = Fixture::new();
    let empty = (100..200)
        .find(|&k| f.shards_read("sparse", &[k]) == [0])
        .unwrap();
    let queries = [
        // Aggregate with and without grouping keys.
        "SELECT ad_id, COUNT(*), SUM(spend), MIN(day), MAX(clicks) FROM ads \
         WHERE advertiser_id = 13 GROUP BY ad_id"
            .to_string(),
        "SELECT COUNT(DISTINCT day), SUM(clicks) FROM ads WHERE advertiser_id = 13".to_string(),
        // Window + TopN.
        "SELECT ad_id, day, row_number() OVER (PARTITION BY day ORDER BY ad_id) AS n \
         FROM ads WHERE advertiser_id = 21 ORDER BY day, n LIMIT 15"
            .to_string(),
        // A join against a multi-split table, on a key other than the pin.
        "SELECT d.weekend, SUM(a.clicks), COUNT(*) FROM ads a JOIN memory.days d \
         ON a.day = d.day WHERE a.advertiser_id = 7 GROUP BY d.weekend"
            .to_string(),
        // Pinned to a shard that holds no rows at all.
        format!("SELECT COUNT(*), SUM(clicks) FROM sparse WHERE advertiser_id = {empty}"),
        format!("SELECT day, SUM(clicks) FROM sparse WHERE advertiser_id = {empty} GROUP BY day"),
    ];
    for sql in &queries {
        let (rows, _, _) = f.run(sql);
        f.assert_matches_reference(sql, &rows);
    }
    // The lookup on the empty shard is still one task, and still returns
    // the one row of an empty global aggregate.
    let (rows, tasks, _) = f.run(&queries[4]);
    assert_eq!(rows, vec![vec![Value::Bigint(0), Value::Null]]);
    assert_eq!(tasks, 1);
}
