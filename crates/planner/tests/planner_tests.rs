#![allow(clippy::unwrap_used)]

//! End-to-end planner tests: SQL text → logical plan → fragments.

use presto_common::{DataType, Schema, Session, Value};
use presto_connector::CatalogManager;
use presto_connectors::{MemoryConnector, RaptorConnector, ShardedSqlConnector};
use presto_planner::plan::PlanNode;
use presto_planner::{
    plan_logical, plan_statement, AggregateStep, FragmentPartitioning, JoinDistribution,
    OutputPartitioning,
};
use presto_sql::parse_statement;
use std::sync::Arc;

fn setup() -> (CatalogManager, Session, Arc<MemoryConnector>) {
    let mem = MemoryConnector::new();
    let orders_schema = Schema::of(&[
        ("orderkey", DataType::Bigint),
        ("custkey", DataType::Bigint),
        ("totalprice", DataType::Double),
        ("orderstatus", DataType::Varchar),
    ]);
    let orders: Vec<Vec<Value>> = (0..1000)
        .map(|i| {
            vec![
                Value::Bigint(i),
                Value::Bigint(i % 100),
                Value::Double(i as f64),
                Value::varchar(if i % 2 == 0 { "O" } else { "F" }),
            ]
        })
        .collect();
    mem.load_rows("orders", orders_schema, &orders);
    let lineitem_schema = Schema::of(&[
        ("orderkey", DataType::Bigint),
        ("tax", DataType::Double),
        ("discount", DataType::Double),
    ]);
    let lineitem: Vec<Vec<Value>> = (0..5000)
        .map(|i| {
            vec![
                Value::Bigint(i % 1000),
                Value::Double(0.05),
                Value::Double((i % 10) as f64 / 100.0),
            ]
        })
        .collect();
    mem.load_rows("lineitem", lineitem_schema, &lineitem);
    mem.analyze("orders").unwrap();
    mem.analyze("lineitem").unwrap();
    let mut catalogs = CatalogManager::new();
    catalogs.register(
        "memory",
        Arc::clone(&mem) as Arc<dyn presto_connector::Connector>,
    );
    (catalogs, Session::default(), mem)
}

fn logical(sql: &str) -> PlanNode {
    let (catalogs, session, _) = setup();
    plan_logical(&parse_statement(sql).unwrap(), &session, &catalogs).unwrap()
}

fn count_nodes(plan: &PlanNode, pred: &dyn Fn(&PlanNode) -> bool) -> usize {
    let mut n = usize::from(pred(plan));
    for c in plan.children() {
        n += count_nodes(c, pred);
    }
    n
}

#[test]
fn paper_example_plans() {
    // The running example of §IV-B3 (Fig. 2).
    let plan = logical(
        "SELECT orders.orderkey, SUM(tax) \
         FROM orders \
         LEFT JOIN lineitem ON orders.orderkey = lineitem.orderkey \
         WHERE discount = 0 \
         GROUP BY orders.orderkey",
    );
    let text = plan.explain();
    assert!(text.contains("LeftJoin"), "{text}");
    assert!(text.contains("Aggregate"), "{text}");
    // Equi keys extracted from the ON clause.
    assert_eq!(
        count_nodes(
            &plan,
            &|n| matches!(n, PlanNode::Join { left_keys, .. } if !left_keys.is_empty())
        ),
        1,
        "{text}"
    );
}

#[test]
fn predicate_pushdown_reaches_scan() {
    let plan = logical("SELECT totalprice FROM orders WHERE orderkey = 7 AND totalprice > 3.5");
    // The filter should sit directly above the scan with extracted domains.
    let mut found = false;
    fn find_scan(plan: &PlanNode, found: &mut bool) {
        if let PlanNode::TableScan { predicate, .. } = plan {
            if !predicate.is_all() {
                *found = true;
            }
        }
        for c in plan.children() {
            find_scan(c, found);
        }
    }
    find_scan(&plan, &mut found);
    assert!(
        found,
        "scan should carry pushed-down domains:\n{}",
        plan.explain()
    );
}

fn scan_width(plan: &PlanNode) -> Option<usize> {
    if let PlanNode::TableScan { columns, .. } = plan {
        return Some(columns.len());
    }
    plan.children().into_iter().find_map(scan_width)
}

#[test]
fn column_pruning_narrows_scan() {
    let plan = logical("SELECT orderstatus FROM orders WHERE orderkey < 10");
    // Only orderkey + orderstatus should be read.
    assert_eq!(scan_width(&plan), Some(2), "{}", plan.explain());
}

#[test]
fn column_pruning_reaches_through_window() {
    let dir = std::env::temp_dir().join(format!("raptor-window-{}", std::process::id()));
    let catalogs = corpus_catalogs(&dir);
    let sql = "SELECT orderkey, partkey, extendedprice, \
               rank() OVER (ORDER BY extendedprice DESC) FROM lineitem";
    let plan = plan_logical(
        &parse_statement(sql).unwrap(),
        &Session::for_catalog("tpch"),
        &catalogs,
    )
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    // The selected columns only; the window reads no other.
    assert_eq!(scan_width(&plan), Some(3), "{}", plan.explain());
}

#[test]
fn constant_folding() {
    let plan = logical("SELECT orderkey + (1 + 2) FROM orders");
    let text = plan.explain();
    assert!(text.contains("+ 3)"), "constant folded:\n{text}");
}

#[test]
fn small_build_side_broadcasts_with_stats() {
    let (catalogs, session, _) = setup();
    // lineitem (5000) joined with a tiny filtered orders side.
    let stmt = parse_statement(
        "SELECT l.tax FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey WHERE o.orderkey = 1",
    )
    .unwrap();
    let plan = plan_logical(&stmt, &session, &catalogs).unwrap();
    let broadcasts = count_nodes(&plan, &|n| {
        matches!(
            n,
            PlanNode::Join {
                distribution: Some(JoinDistribution::Replicated),
                ..
            }
        )
    });
    assert_eq!(broadcasts, 1, "{}", plan.explain());
}

#[test]
fn unknown_stats_default_to_partitioned() {
    let mem = MemoryConnector::new();
    let schema = Schema::of(&[("k", DataType::Bigint)]);
    mem.load_rows("a", schema.clone(), &[vec![Value::Bigint(1)]]);
    mem.load_rows("b", schema, &[vec![Value::Bigint(1)]]);
    // no analyze(): stats unknown
    let mut catalogs = CatalogManager::new();
    catalogs.register("memory", mem as Arc<dyn presto_connector::Connector>);
    let session = Session::default();
    let stmt = parse_statement("SELECT * FROM a JOIN b ON a.k = b.k").unwrap();
    let plan = plan_logical(&stmt, &session, &catalogs).unwrap();
    let partitioned = count_nodes(&plan, &|n| {
        matches!(
            n,
            PlanNode::Join {
                distribution: Some(JoinDistribution::Partitioned),
                ..
            }
        )
    });
    assert_eq!(partitioned, 1, "{}", plan.explain());
}

#[test]
fn fragmentation_of_aggregate_produces_partial_final() {
    let (catalogs, session, _) = setup();
    let stmt = parse_statement("SELECT custkey, COUNT(*) FROM orders GROUP BY custkey").unwrap();
    let plan = plan_statement(&stmt, &session, &catalogs).unwrap();
    // Expect: source fragment with partial agg → hash exchange → final agg
    // → gather → output.
    assert!(plan.fragments.len() >= 3, "{}", plan.explain());
    let mut partials = 0;
    let mut finals = 0;
    for f in &plan.fragments {
        partials += count_nodes(&f.root, &|n| {
            matches!(
                n,
                PlanNode::Aggregate {
                    step: AggregateStep::Partial,
                    ..
                }
            )
        });
        finals += count_nodes(&f.root, &|n| {
            matches!(
                n,
                PlanNode::Aggregate {
                    step: AggregateStep::Final,
                    ..
                }
            )
        });
    }
    assert_eq!((partials, finals), (1, 1), "{}", plan.explain());
    // The partial fragment is source-partitioned and hash-outputs.
    let partial_frag = plan
        .fragments
        .iter()
        .find(|f| {
            count_nodes(&f.root, &|n| {
                matches!(
                    n,
                    PlanNode::Aggregate {
                        step: AggregateStep::Partial,
                        ..
                    }
                )
            }) > 0
        })
        .unwrap();
    assert!(matches!(
        partial_frag.partitioning,
        FragmentPartitioning::Source { .. }
    ));
    assert!(matches!(
        partial_frag.output,
        OutputPartitioning::Hash { .. }
    ));
}

#[test]
fn co_located_join_elides_all_shuffles() {
    // Two Raptor tables bucketed identically on the join key (§IV-C3: "the
    // engine takes advantage of the fact that both tables participating in
    // the join are partitioned on the same column, and uses a co-located
    // join strategy to eliminate a resource-intensive shuffle").
    let dir = std::env::temp_dir().join(format!("raptor-colo-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let nodes: Vec<presto_common::NodeId> = (0..2).map(presto_common::NodeId).collect();
    let raptor = RaptorConnector::new(&dir, nodes).unwrap();
    let schema = Schema::of(&[("uid", DataType::Bigint), ("v", DataType::Double)]);
    raptor
        .create_bucketed_table("exposure", &schema, vec![0], 4)
        .unwrap();
    raptor
        .create_bucketed_table("conversion", &schema, vec![0], 4)
        .unwrap();
    let rows: Vec<Vec<Value>> = (0..100)
        .map(|i| vec![Value::Bigint(i), Value::Double(i as f64)])
        .collect();
    raptor
        .load_table("exposure", &[presto_page::Page::from_rows(&schema, &rows)])
        .unwrap();
    raptor
        .load_table(
            "conversion",
            &[presto_page::Page::from_rows(&schema, &rows)],
        )
        .unwrap();
    let mut catalogs = CatalogManager::new();
    catalogs.register("raptor", raptor as Arc<dyn presto_connector::Connector>);
    let session = Session::for_catalog("raptor");
    let stmt = parse_statement(
        "SELECT e.uid, e.v + c.v FROM exposure e JOIN conversion c ON e.uid = c.uid",
    )
    .unwrap();
    let plan = plan_statement(&stmt, &session, &catalogs).unwrap();
    // One source fragment with the join + one root gather = exactly 1
    // shuffle (the final gather), compared with 3 for the naive plan.
    assert_eq!(plan.fragments.len(), 2, "{}", plan.explain());
    let join_frag = &plan.fragments[0];
    assert_eq!(
        count_nodes(&join_frag.root, &|n| matches!(n, PlanNode::Join { .. })),
        1
    );
    assert_eq!(
        join_frag.partitioning,
        FragmentPartitioning::Source {
            bucket_count: Some(4)
        },
        "{}",
        plan.explain()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bucketed_aggregation_elides_shuffle() {
    let dir = std::env::temp_dir().join(format!("raptor-agg-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let raptor = RaptorConnector::new(&dir, vec![presto_common::NodeId(0)]).unwrap();
    let schema = Schema::of(&[("uid", DataType::Bigint), ("v", DataType::Double)]);
    raptor
        .create_bucketed_table("t", &schema, vec![0], 4)
        .unwrap();
    let rows: Vec<Vec<Value>> = (0..100)
        .map(|i| vec![Value::Bigint(i % 10), Value::Double(1.0)])
        .collect();
    raptor
        .load_table("t", &[presto_page::Page::from_rows(&schema, &rows)])
        .unwrap();
    let mut catalogs = CatalogManager::new();
    catalogs.register("raptor", raptor as Arc<dyn presto_connector::Connector>);
    let session = Session::for_catalog("raptor");
    let stmt = parse_statement("SELECT uid, SUM(v) FROM t GROUP BY uid").unwrap();
    let plan = plan_statement(&stmt, &session, &catalogs).unwrap();
    // Aggregation happens in the source fragment (single step, no partial).
    let mut singles = 0;
    for f in &plan.fragments {
        singles += count_nodes(&f.root, &|n| {
            matches!(
                n,
                PlanNode::Aggregate {
                    step: AggregateStep::Single,
                    ..
                }
            )
        });
    }
    assert_eq!(singles, 1, "{}", plan.explain());
    assert_eq!(
        plan.fragments.len(),
        2,
        "only the output gather:\n{}",
        plan.explain()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn index_join_selected_for_indexed_connector() {
    let sharded = ShardedSqlConnector::new(4);
    let schema = Schema::of(&[("ad_id", DataType::Bigint), ("clicks", DataType::Bigint)]);
    let rows: Vec<Vec<Value>> = (0..100_000)
        .map(|i| vec![Value::Bigint(i % 1000), Value::Bigint(i)])
        .collect();
    sharded.load_table("ads", schema, 0, &rows);
    let mem = MemoryConnector::new();
    let probe_schema = Schema::of(&[("id", DataType::Bigint)]);
    mem.load_rows(
        "probe",
        probe_schema,
        &[vec![Value::Bigint(3)], vec![Value::Bigint(5)]],
    );
    mem.analyze("probe").unwrap();
    let mut catalogs = CatalogManager::new();
    catalogs.register("memory", mem as Arc<dyn presto_connector::Connector>);
    catalogs.register("sharded", sharded as Arc<dyn presto_connector::Connector>);
    let session = Session::default();
    let stmt =
        parse_statement("SELECT p.id, a.clicks FROM probe p JOIN sharded.ads a ON p.id = a.ad_id")
            .unwrap();
    let plan = plan_logical(&stmt, &session, &catalogs).unwrap();
    assert_eq!(
        count_nodes(&plan, &|n| matches!(n, PlanNode::IndexJoin { .. })),
        1,
        "{}",
        plan.explain()
    );
}

#[test]
fn join_reordering_puts_small_side_on_build() {
    let (catalogs, session, _) = setup();
    // orders (1000 rows) JOIN lineitem (5000 rows): build should be orders.
    let stmt = parse_statement(
        "SELECT o.orderkey FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey",
    )
    .unwrap();
    let plan = plan_logical(&stmt, &session, &catalogs).unwrap();
    fn find_join(plan: &PlanNode) -> Option<(&PlanNode, &PlanNode)> {
        if let PlanNode::Join { left, right, .. } = plan {
            return Some((left, right));
        }
        plan.children().into_iter().find_map(find_join)
    }
    let (_, right) = find_join(&plan).expect("join in plan");
    // Build (right) side should be the orders table.
    fn scans_table(plan: &PlanNode, t: &str) -> bool {
        if let PlanNode::TableScan { table, .. } = plan {
            return table == t;
        }
        plan.children().into_iter().any(|c| scans_table(c, t))
    }
    assert!(scans_table(right, "orders"), "{}", plan.explain());
}

#[test]
fn analyzer_rejects_bad_queries() {
    let (catalogs, session, _) = setup();
    for sql in [
        "SELECT nosuch FROM orders",
        "SELECT * FROM nosuchtable",
        "SELECT orderkey FROM orders WHERE orderstatus + 1 = 2",
        "SELECT orderkey, SUM(tax) FROM orders, lineitem",
        "SELECT custkey FROM orders GROUP BY orderkey",
        "SELECT orderkey FROM orders ORDER BY 99",
        "SELECT sum(totalprice) FROM orders WHERE sum(totalprice) > 1",
    ] {
        let stmt = parse_statement(sql).unwrap();
        assert!(
            plan_logical(&stmt, &session, &catalogs).is_err(),
            "expected analysis error for: {sql}"
        );
    }
}

#[test]
fn analyzer_errors_name_the_misplaced_expression() {
    let (catalogs, session, _) = setup();
    for (sql, error) in [
        (
            "SELECT custkey FROM orders GROUP BY orderkey",
            "column 'custkey' must appear in GROUP BY or inside an aggregate",
        ),
        (
            "SELECT orderstatus, COUNT(*) FROM orders GROUP BY orderstatus HAVING custkey > 1",
            "column 'custkey' must appear in GROUP BY or inside an aggregate",
        ),
        (
            "SELECT orderkey FROM orders WHERE rank() OVER (ORDER BY orderkey) = 1",
            "window functions are not allowed here",
        ),
        (
            "SELECT orderstatus, COUNT(*) FROM orders GROUP BY orderstatus \
             HAVING rank() OVER (ORDER BY orderstatus) = 1",
            "window functions are not allowed here",
        ),
        (
            "SELECT sum(totalprice) FROM orders WHERE sum(totalprice) > 1",
            "WHERE clause cannot contain aggregates",
        ),
        (
            "SELECT * FROM orders o JOIN lineitem l ON COUNT(*) = 1",
            "aggregate 'count' is not allowed in this context",
        ),
    ] {
        let stmt = parse_statement(sql).unwrap();
        let err = plan_logical(&stmt, &session, &catalogs).unwrap_err();
        assert!(err.to_string().contains(error), "{sql}: {err}");
    }
}

#[test]
fn insert_plan_has_writer_fragment() {
    let (catalogs, session, mem) = setup();
    mem.create_table("orders_copy", &mem.table_schema("orders").unwrap())
        .unwrap();
    let stmt = parse_statement("INSERT INTO orders_copy SELECT * FROM orders").unwrap();
    let plan = plan_statement(&stmt, &session, &catalogs).unwrap();
    assert!(
        plan.fragments.iter().any(|f| f.has_writer()),
        "{}",
        plan.explain()
    );
    assert_eq!(plan.output_schema().field(0).name, "rows");
}

#[test]
fn topn_split_into_partial_and_final() {
    let (catalogs, session, _) = setup();
    let stmt = parse_statement(
        "SELECT orderkey, totalprice FROM orders ORDER BY totalprice DESC LIMIT 10",
    )
    .unwrap();
    let plan = plan_statement(&stmt, &session, &catalogs).unwrap();
    let mut topns = 0;
    for f in &plan.fragments {
        topns += count_nodes(&f.root, &|n| matches!(n, PlanNode::TopN { .. }));
    }
    assert_eq!(topns, 2, "partial + final TopN:\n{}", plan.explain());
}

/// The fragment holding a scan of `table`.
fn scan_fragment<'a>(
    plan: &'a presto_planner::PhysicalPlan,
    table: &str,
) -> &'a presto_planner::PlanFragment {
    plan.fragments
        .iter()
        .find(|f| {
            count_nodes(
                &f.root,
                &|n| matches!(n, PlanNode::TableScan { table: t, .. } if t == table),
            ) > 0
        })
        .unwrap_or_else(|| panic!("no scan of {table}:\n{}", plan.explain()))
}

#[test]
fn scan_pinned_to_one_bucket_plans_as_one_fragment() {
    let dir = std::env::temp_dir().join(format!("raptor-pinned-{}", std::process::id()));
    let catalogs = corpus_catalogs(&dir);
    let plan_of = |catalog: &str, sql: &str| {
        plan_statement(
            &parse_statement(sql).unwrap(),
            &Session::for_catalog(catalog),
            &catalogs,
        )
        .unwrap()
    };
    // Every sharding column fixed to one value: one bucket, one fragment,
    // the aggregate and window kept in it as single steps.
    for sql in [
        "SELECT clicks FROM ads WHERE ad_id = 42",
        "SELECT ad_id, SUM(clicks) FROM ads WHERE ad_id = 7 GROUP BY ad_id",
        "SELECT clicks, rank() OVER (ORDER BY clicks DESC) FROM ads WHERE ad_id = 7 ORDER BY clicks LIMIT 3",
    ] {
        let plan = plan_of("sharded", sql);
        assert_eq!(plan.fragments.len(), 1, "{sql}:\n{}", plan.explain());
        assert_eq!(plan.fragments[0].partitioning, FragmentPartitioning::Single);
    }
    // Two buckets, a range, and a pin on a node-local layout stay
    // distributed.
    for (catalog, sql) in [
        ("sharded", "SELECT clicks FROM ads WHERE ad_id IN (1, 2)"),
        ("sharded", "SELECT clicks FROM ads WHERE ad_id < 10"),
        ("raptor", "SELECT v FROM t WHERE uid = 3"),
    ] {
        let plan = plan_of(catalog, sql);
        assert!(plan.fragments.len() > 1, "{sql}:\n{}", plan.explain());
        assert!(matches!(
            plan.fragment(0).partitioning,
            FragmentPartitioning::Source { .. }
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_task_join_side_does_not_funnel_its_partner() {
    // A pinned scan is a single-task side. Matching it on the join keys
    // would force the lineitem side into one task too.
    let dir = std::env::temp_dir().join(format!("raptor-funnel-{}", std::process::id()));
    let catalogs = corpus_catalogs(&dir);
    let session = Session {
        join_distribution: presto_common::session::JoinDistribution::Partitioned,
        ..Session::for_catalog("memory")
    };
    let sql = "SELECT l.tax, a.clicks FROM lineitem l JOIN sharded.ads a \
               ON l.orderkey = a.clicks WHERE a.ad_id = 42";
    let plan = plan_statement(&parse_statement(sql).unwrap(), &session, &catalogs).unwrap();
    assert_eq!(
        scan_fragment(&plan, "ads").partitioning,
        FragmentPartitioning::Single,
        "{}",
        plan.explain()
    );
    assert!(matches!(
        scan_fragment(&plan, "lineitem").partitioning,
        FragmentPartitioning::Source { bucket_count: None }
    ));
    let join = plan
        .fragments
        .iter()
        .find(|f| count_nodes(&f.root, &|n| matches!(n, PlanNode::Join { .. })) > 0)
        .unwrap();
    assert!(
        matches!(join.partitioning, FragmentPartitioning::Hash { count } if count >= 2),
        "{}",
        plan.explain()
    );
    // Two single-task sides still join in place, in one task.
    let sql = "SELECT a.clicks, b.clicks FROM sharded.ads a JOIN sharded.ads b \
               ON a.clicks = b.clicks WHERE a.ad_id = 42 AND b.ad_id = 7";
    let plan = plan_statement(&parse_statement(sql).unwrap(), &session, &catalogs).unwrap();
    assert_eq!(plan.fragments.len(), 1, "{}", plan.explain());
    std::fs::remove_dir_all(&dir).ok();
}

/// Every catalog the plan-identity corpus reads: `setup()`'s `memory`
/// tables plus an INSERT target and an index-join probe, a TPC-H-shaped
/// `tpch`, an unanalyzed `nostats`, a bucketed `raptor` under `raptor_dir`
/// and a 4-shard `sharded`.
fn corpus_catalogs(raptor_dir: &std::path::Path) -> CatalogManager {
    let (mut catalogs, _, mem) = setup();
    mem.create_table("orders_copy", &mem.table_schema("orders").unwrap())
        .unwrap();
    mem.load_rows(
        "probe",
        Schema::of(&[("id", DataType::Bigint)]),
        &[vec![Value::Bigint(3)], vec![Value::Bigint(5)]],
    );
    mem.analyze("probe").unwrap();

    let tpch = MemoryConnector::new();
    let pick = |names: &[&str], i: i64| Value::varchar(names[i as usize % names.len()]);
    let load = |name: &str, schema: Schema, rows: i64, row: &dyn Fn(i64) -> Vec<Value>| {
        let rows: Vec<Vec<Value>> = (0..rows).map(row).collect();
        tpch.load_rows(name, schema, &rows);
        tpch.analyze(name).unwrap();
    };
    load(
        "customer",
        Schema::of(&[
            ("custkey", DataType::Bigint),
            ("name", DataType::Varchar),
            ("mktsegment", DataType::Varchar),
        ]),
        150,
        &|i| {
            vec![
                Value::Bigint(i),
                Value::varchar(format!("c{i}")),
                pick(&["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY"], i),
            ]
        },
    );
    load(
        "orders",
        Schema::of(&[
            ("orderkey", DataType::Bigint),
            ("custkey", DataType::Bigint),
            ("orderstatus", DataType::Varchar),
            ("totalprice", DataType::Double),
            ("orderpriority", DataType::Varchar),
        ]),
        1500,
        &|i| {
            vec![
                Value::Bigint(i),
                Value::Bigint(i % 150),
                pick(&["O", "F", "P"], i),
                Value::Double((i * 7 % 1000) as f64),
                pick(&["1-URGENT", "2-HIGH", "3-MEDIUM", "5-LOW"], i),
            ]
        },
    );
    load(
        "lineitem",
        Schema::of(&[
            ("orderkey", DataType::Bigint),
            ("partkey", DataType::Bigint),
            ("suppkey", DataType::Bigint),
            ("quantity", DataType::Double),
            ("extendedprice", DataType::Double),
            ("discount", DataType::Double),
            ("tax", DataType::Double),
            ("returnflag", DataType::Varchar),
            ("linestatus", DataType::Varchar),
            ("shipmode", DataType::Varchar),
        ]),
        6000,
        &|i| {
            vec![
                Value::Bigint(i % 1500),
                Value::Bigint(i % 200),
                Value::Bigint(i % 10),
                Value::Double((i % 50 + 1) as f64),
                Value::Double((i % 1000) as f64 * 1.5),
                Value::Double((i % 11) as f64 / 100.0),
                Value::Double((i % 9) as f64 / 100.0),
                pick(&["A", "N", "R"], i),
                pick(&["O", "F"], i),
                pick(&["AIR", "MAIL", "RAIL", "SHIP", "TRUCK", "REG AIR"], i),
            ]
        },
    );
    load(
        "supplier",
        Schema::of(&[
            ("suppkey", DataType::Bigint),
            ("name", DataType::Varchar),
            ("nationkey", DataType::Bigint),
        ]),
        10,
        &|i| {
            vec![
                Value::Bigint(i),
                Value::varchar(format!("s{i}")),
                Value::Bigint(i % 5),
            ]
        },
    );
    load(
        "nation",
        Schema::of(&[
            ("nationkey", DataType::Bigint),
            ("name", DataType::Varchar),
            ("regionkey", DataType::Bigint),
        ]),
        5,
        &|i| {
            vec![
                Value::Bigint(i),
                Value::varchar(format!("n{i}")),
                Value::Bigint(i % 2),
            ]
        },
    );
    catalogs.register("tpch", tpch as Arc<dyn presto_connector::Connector>);

    let nostats = MemoryConnector::new();
    let k = Schema::of(&[("k", DataType::Bigint)]);
    nostats.load_rows("a", k.clone(), &[vec![Value::Bigint(1)]]);
    nostats.load_rows("b", k, &[vec![Value::Bigint(1)]]);
    catalogs.register("nostats", nostats as Arc<dyn presto_connector::Connector>);

    std::fs::remove_dir_all(raptor_dir).ok();
    let nodes = (0..2).map(presto_common::NodeId).collect();
    let raptor = RaptorConnector::new(raptor_dir, nodes).unwrap();
    let uv = Schema::of(&[("uid", DataType::Bigint), ("v", DataType::Double)]);
    let rows: Vec<Vec<Value>> = (0..100)
        .map(|i| vec![Value::Bigint(i % 10), Value::Double(i as f64)])
        .collect();
    for table in ["exposure", "conversion", "t"] {
        raptor
            .create_bucketed_table(table, &uv, vec![0], 4)
            .unwrap();
        raptor
            .load_table(table, &[presto_page::Page::from_rows(&uv, &rows)])
            .unwrap();
    }
    catalogs.register("raptor", raptor as Arc<dyn presto_connector::Connector>);

    let sharded = ShardedSqlConnector::new(4);
    let rows: Vec<Vec<Value>> = (0..10_000)
        .map(|i| vec![Value::Bigint(i % 1000), Value::Bigint(i)])
        .collect();
    let ads = Schema::of(&[("ad_id", DataType::Bigint), ("clicks", DataType::Bigint)]);
    sharded.load_table("ads", ads, 0, &rows);
    catalogs.register("sharded", sharded as Arc<dyn presto_connector::Connector>);
    catalogs
}

/// FNV-1a over every fragment's plan text, partitioning and output.
fn plan_fingerprint(plan: &presto_planner::PhysicalPlan) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &plan.fragments {
        let text = format!("{:?}|{:?}|{}", f.partitioning, f.output, f.root.explain());
        for byte in text.bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// (session catalog, SQL, plan fingerprint, dynamic filters, fused chains),
/// recorded before the planner's walks were unified. A changed plan fails
/// here until its entry is re-recorded on purpose.
#[rustfmt::skip]
const PLAN_CORPUS: &[(&str, &str, u64, usize, usize)] = &[
    // planner_tests.rs
    ("memory", "SELECT orders.orderkey, SUM(tax) FROM orders LEFT JOIN lineitem ON orders.orderkey = lineitem.orderkey WHERE discount = 0 GROUP BY orders.orderkey", 0x379b5caef5ac3ee2, 0, 0),
    ("memory", "SELECT totalprice FROM orders WHERE orderkey = 7 AND totalprice > 3.5", 0x045b990b32a0b34f, 0, 1),
    ("memory", "SELECT orderstatus FROM orders WHERE orderkey < 10", 0x8c6414cf6b5f9e17, 0, 1),
    ("memory", "SELECT orderkey + (1 + 2) FROM orders", 0x3c48c1ef6dcb01e7, 0, 1),
    ("memory", "SELECT l.tax FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey WHERE o.orderkey = 1", 0x97464347f2b73c05, 1, 1),
    ("nostats", "SELECT * FROM a JOIN b ON a.k = b.k", 0x1429141a5cc28dbf, 1, 0),
    ("memory", "SELECT custkey, COUNT(*) FROM orders GROUP BY custkey", 0x39225530bd72c59f, 0, 1),
    ("raptor", "SELECT e.uid, e.v + c.v FROM exposure e JOIN conversion c ON e.uid = c.uid", 0xfebfe794282bc410, 1, 0),
    ("raptor", "SELECT uid, SUM(v) FROM t GROUP BY uid", 0x2cd4f0080f4fff31, 0, 1),
    ("memory", "SELECT p.id, a.clicks FROM probe p JOIN sharded.ads a ON p.id = a.ad_id", 0x6f19d5df0720b76c, 0, 0),
    ("memory", "SELECT o.orderkey FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey", 0x155ef51eceae2a95, 1, 0),
    ("memory", "INSERT INTO orders_copy SELECT * FROM orders", 0xd4b143601fbf89b3, 0, 1),
    ("memory", "SELECT orderkey, totalprice FROM orders ORDER BY totalprice DESC LIMIT 10", 0xb9ea9b88fa1b72cc, 0, 1),
    // tests/differential.rs
    ("tpch", "SELECT returnflag, linestatus, COUNT(*), SUM(quantity), AVG(extendedprice) FROM lineitem GROUP BY returnflag, linestatus", 0x360a54c9c2af9437, 0, 1),
    ("tpch", "SELECT o.orderpriority, COUNT(*) FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey WHERE l.discount < 0.03 GROUP BY o.orderpriority", 0xd67d9dc256e20110, 1, 1),
    ("tpch", "SELECT c.mktsegment, SUM(o.totalprice) FROM customer c JOIN orders o ON c.custkey = o.custkey GROUP BY c.mktsegment", 0xbcd032f479f7f5b4, 1, 0),
    ("tpch", "SELECT suppkey, COUNT(*) AS n FROM lineitem GROUP BY suppkey HAVING COUNT(*) > 5 ORDER BY n DESC, suppkey LIMIT 20", 0x6da56e5b719b949b, 0, 1),
    ("tpch", "SELECT shipmode, SUM(CASE WHEN quantity > 25 THEN 1 ELSE 0 END) AS big, SUM(CASE WHEN quantity <= 25 THEN 1 ELSE 0 END) AS small FROM lineitem GROUP BY shipmode", 0x5001943ba5e959e6, 0, 1),
    ("tpch", "SELECT COUNT(DISTINCT partkey) FROM lineitem WHERE discount = 0.05", 0xa8829aee145a607f, 0, 1),
    // Joins: multi-way reordering, residual filters, outer and cross joins.
    ("tpch", "SELECT c.mktsegment, COUNT(*) FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey JOIN customer c ON o.custkey = c.custkey WHERE o.orderpriority <> '1-URGENT' GROUP BY c.mktsegment", 0x4a32c46a66701f19, 2, 1),
    ("tpch", "SELECT n.name, SUM(l.extendedprice) AS rev FROM lineitem l JOIN supplier s ON l.suppkey = s.suppkey JOIN nation n ON s.nationkey = n.nationkey WHERE l.returnflag <> 'R' GROUP BY n.name ORDER BY rev DESC", 0x82dc5d846f31f605, 2, 1),
    ("tpch", "SELECT o.orderpriority, COUNT(*) FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey WHERE l.quantity >= o.totalprice AND l.returnflag <> 'A' GROUP BY o.orderpriority", 0xf5f6c51b66f3b63e, 1, 1),
    ("memory", "SELECT * FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey JOIN orders o2 ON o.orderkey = o2.orderkey WHERE o.custkey > 1 AND o.totalprice > 2.0 AND l.tax > 0.0 AND o2.orderstatus = 'O'", 0xc25b59f038f7edca, 2, 3),
    ("memory", "SELECT * FROM orders o RIGHT JOIN lineitem l ON o.orderkey = l.orderkey WHERE l.tax > 0.01", 0x4e7fe7ea71d3136f, 0, 1),
    ("memory", "SELECT o.orderkey, l.tax FROM orders o CROSS JOIN lineitem l WHERE o.orderkey = l.orderkey AND o.totalprice > 10.0", 0xcc05e9cab93ee859, 1, 1),
    // Aggregates, HAVING, DISTINCT, derived tables.
    ("memory", "SELECT * FROM (SELECT custkey, COUNT(*) AS c FROM orders GROUP BY custkey) t WHERE custkey > 5 AND c > 1", 0x731e8bc9cbd63ade, 0, 1),
    ("memory", "SELECT orderstatus, COUNT(*) FROM orders GROUP BY orderstatus HAVING COUNT(*) > 10 ORDER BY 2 DESC", 0xebea6451e02ed037, 0, 1),
    ("memory", "SELECT DISTINCT orderstatus FROM orders", 0xb417b967d0ad4b5e, 0, 1),
    ("memory", "SELECT CASE WHEN totalprice > 500 THEN 'hi' ELSE 'lo' END, COUNT(*) FROM orders GROUP BY 1", 0x2dcad4bfab65889a, 0, 1),
    ("tpch", "SELECT COUNT(*), SUM(total) / SUM(cnt), SUM(cnt) FROM (SELECT partkey, COUNT(*) AS cnt, SUM(extendedprice) AS total FROM lineitem WHERE quantity < 20 GROUP BY partkey) t", 0xf31b57737208a0fd, 0, 1),
    // Unions.
    ("memory", "SELECT orderkey FROM orders UNION ALL SELECT orderkey FROM lineitem", 0xaf2132c43650f8b2, 0, 2),
    ("memory", "SELECT * FROM (SELECT orderkey FROM lineitem UNION ALL SELECT * FROM (SELECT orderkey FROM orders UNION ALL SELECT orderkey FROM orders UNION ALL SELECT orderkey FROM orders UNION ALL SELECT orderkey FROM orders) d WHERE orderkey > 1) t WHERE orderkey < 100", 0xcd644470efe8b937, 0, 5),
    ("tpch", "SELECT returnflag, COUNT(*) FROM lineitem WHERE quantity > 30 GROUP BY returnflag UNION ALL SELECT orderstatus, COUNT(*) FROM orders GROUP BY orderstatus", 0x01b0884e5f54215f, 0, 2),
    // Windows.
    ("memory", "SELECT orderkey, rank() OVER (PARTITION BY custkey ORDER BY totalprice DESC) FROM orders", 0xb85559434af57b67, 0, 1),
    ("memory", "SELECT orderkey, SUM(totalprice) OVER (PARTITION BY orderstatus) FROM orders", 0x9b52cbde6d6018bf, 0, 1),
    ("memory", "SELECT custkey, row_number() OVER (ORDER BY custkey) + 1 FROM orders", 0xc20878a433bd2b61, 0, 1),
    // Scalar shapes, LIMIT, no FROM, INSERT … SELECT.
    ("memory", "SELECT upper(orderstatus), coalesce(NULL, custkey) FROM orders WHERE NOT (orderkey IS NULL)", 0xc8d4a6f853417be8, 0, 1),
    ("memory", "SELECT COUNT(*) FROM orders WHERE orderstatus IN ('O', 'F') AND totalprice BETWEEN 10 AND 20", 0x4019335196d384cd, 0, 1),
    ("memory", "SELECT * FROM orders LIMIT 5", 0xa1069fb1b9f6b171, 0, 0),
    ("memory", "SELECT 1 + 2, 'x'", 0x2bbe4584e11b4248, 0, 0),
    ("memory", "INSERT INTO orders_copy SELECT orderkey, custkey, totalprice * 2, orderstatus FROM orders WHERE custkey < 5", 0x8388e6fa50b186a5, 0, 1),
    // Index and sharded lookups.
    ("sharded", "SELECT clicks FROM ads WHERE ad_id = 42", 0x6f7233aa54794dbd, 0, 1),
    ("sharded", "SELECT COUNT(*), SUM(clicks) FROM ads WHERE ad_id IN (1, 2, 3)", 0x3844a907f07bb7da, 0, 1),
    ("sharded", "SELECT ad_id, c, rank() OVER (ORDER BY c DESC) AS r FROM (SELECT ad_id, SUM(clicks) AS c FROM ads WHERE ad_id < 10 GROUP BY ad_id) t", 0x8a2ee7cdd36cae69, 0, 1),
];

#[test]
fn plan_corpus_is_unchanged() {
    let dir = std::env::temp_dir().join(format!("raptor-corpus-{}", std::process::id()));
    let catalogs = corpus_catalogs(&dir);
    let mut changed = Vec::new();
    for &(catalog, sql, fingerprint, dynamic_filters, fused_chains) in PLAN_CORPUS {
        let session = Session::for_catalog(catalog);
        let plan = plan_statement(&parse_statement(sql).unwrap(), &session, &catalogs)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        let got = (
            plan_fingerprint(&plan),
            plan.dynamic_filters.len(),
            plan.fused_chains.len(),
        );
        if got != (fingerprint, dynamic_filters, fused_chains) {
            changed.push(format!(
                "    ({catalog:?}, {sql:?}, {:#018x}, {}, {}),\n{}",
                got.0,
                got.1,
                got.2,
                plan.explain()
            ));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(changed.is_empty(), "plans changed:\n{}", changed.join("\n"));
}

/// Dynamic filters, operator stats and fused chains are keyed by plan-node
/// id. The corpus includes a UNION ALL whose filter is pushed into it
/// inside another such union, and a three-way join whose WHERE conjuncts are
/// pushed into the same join twice.
#[test]
fn plan_node_ids_are_distinct() {
    fn collect(node: &PlanNode, ids: &mut Vec<u32>) {
        ids.push(node.id().0);
        for c in node.children() {
            collect(c, ids);
        }
    }
    let dir = std::env::temp_dir().join(format!("raptor-ids-{}", std::process::id()));
    let catalogs = corpus_catalogs(&dir);
    for &(catalog, sql, ..) in PLAN_CORPUS {
        let session = Session::for_catalog(catalog);
        let plan = plan_statement(&parse_statement(sql).unwrap(), &session, &catalogs).unwrap();
        let mut ids = Vec::new();
        for f in &plan.fragments {
            collect(&f.root, &mut ids);
        }
        let nodes = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), nodes, "{sql}:\n{}", plan.explain());
    }
    std::fs::remove_dir_all(&dir).ok();
}

use presto_connector::ConnectorMetadata;
