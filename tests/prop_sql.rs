#![allow(clippy::unwrap_used)]
//! Cluster-level property test: randomly generated SQL over a shared
//! dataset must return identical results on a 1-worker and a 4-worker
//! cluster, under default and ablated sessions. This catches distribution
//! bugs (partial/final aggregation, shuffle routing, join sides) that no
//! fixed query list would.

use presto::cluster::ClusterConfig;
use presto::common::Session;
use presto_testkit::{run_sorted, tpch_catalog, TestCluster, GRACE};
use proptest::prelude::*;
use std::sync::LazyLock;

/// Built once per process and never dropped, so each case checks
/// quiescence itself.
fn build_cluster(workers: usize) -> TestCluster {
    let config = ClusterConfig {
        workers,
        threads_per_worker: 2,
        ..ClusterConfig::test()
    };
    TestCluster::start(config, tpch_catalog(0.001))
}

static NARROW: LazyLock<TestCluster> = LazyLock::new(|| build_cluster(1));
static WIDE: LazyLock<TestCluster> = LazyLock::new(|| build_cluster(4));

#[derive(Debug, Clone)]
struct GeneratedQuery {
    sql: String,
}

fn arb_query() -> impl Strategy<Value = GeneratedQuery> {
    let filter = prop_oneof![
        Just(String::new()),
        (1i64..50).prop_map(|n| format!("WHERE quantity < {n}.5 ")),
        (0i64..8).prop_map(|d| format!("WHERE discount = 0.0{d} ")),
        Just("WHERE returnflag = 'R' ".to_string()),
        (0i64..1000).prop_map(|k| format!("WHERE orderkey % 7 = {} ", k % 7)),
    ];
    let agg = prop_oneof![
        Just("COUNT(*)"),
        Just("SUM(quantity)"),
        Just("MIN(extendedprice)"),
        Just("MAX(orderkey)"),
        Just("COUNT(DISTINCT suppkey)"),
    ];
    let group = prop_oneof![
        Just(""),
        Just("returnflag"),
        Just("shipmode"),
        Just("returnflag, linestatus"),
    ];
    (filter, agg, group).prop_map(|(filter, agg, group)| {
        let sql = if group.is_empty() {
            format!("SELECT {agg} FROM lineitem {filter}")
        } else {
            format!("SELECT {group}, {agg} FROM lineitem {filter}GROUP BY {group}")
        };
        GeneratedQuery { sql }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn distributed_results_match_single_worker(q in arb_query()) {
        let base = Session::default();
        let expected = run_sorted(&NARROW, &q.sql, &base);
        let wide = run_sorted(&WIDE, &q.sql, &base);
        prop_assert_eq!(&wide, &expected, "4-worker diverged: {}", q.sql);
        // Ablations on the wide cluster.
        let mut interpreted = base.clone();
        interpreted.compiled_expressions = false;
        prop_assert_eq!(
            &run_sorted(&WIDE, &q.sql, &interpreted),
            &expected,
            "interpreted diverged: {}",
            q.sql
        );
        let mut eager = base.clone();
        eager.lazy_loading = false;
        eager.process_compressed = false;
        prop_assert_eq!(
            &run_sorted(&WIDE, &q.sql, &eager),
            &expected,
            "eager/decoded diverged: {}",
            q.sql
        );
        NARROW.quiescent_within(GRACE);
        WIDE.quiescent_within(GRACE);
    }
}
