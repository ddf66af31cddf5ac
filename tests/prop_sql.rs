#![allow(clippy::unwrap_used)]
//! Cluster-level property test: randomly generated SQL over a shared
//! dataset must return identical results on a 1-worker and a 4-worker
//! cluster, under default and ablated sessions. This catches distribution
//! bugs (partial/final aggregation, shuffle routing, join sides) that no
//! fixed query list would.

use once_cell_lite::Lazy;
use presto::cluster::{Cluster, ClusterConfig};
use presto::common::{Session, Value};
use presto::connector::{CatalogManager, Connector};
use presto::connectors::MemoryConnector;
use presto::workload::TpchGenerator;
use proptest::prelude::*;
use std::sync::Arc;

/// Tiny once-cell so the clusters build once per process.
mod once_cell_lite {
    use std::sync::OnceLock;

    pub struct Lazy<T> {
        cell: OnceLock<T>,
        init: fn() -> T,
    }

    impl<T> Lazy<T> {
        pub const fn new(init: fn() -> T) -> Lazy<T> {
            Lazy {
                cell: OnceLock::new(),
                init,
            }
        }

        pub fn get(&self) -> &T {
            self.cell.get_or_init(self.init)
        }
    }
}

fn build_cluster(workers: usize) -> Cluster {
    let mem = MemoryConnector::new();
    TpchGenerator::new(0.001).load_memory(&mem);
    let mut catalogs = CatalogManager::new();
    catalogs.register("memory", mem as Arc<dyn Connector>);
    Cluster::start(
        ClusterConfig {
            workers,
            threads_per_worker: 2,
            ..ClusterConfig::test()
        },
        catalogs,
    )
    .unwrap()
}

static NARROW: Lazy<Cluster> = Lazy::new(|| build_cluster(1));
static WIDE: Lazy<Cluster> = Lazy::new(|| build_cluster(4));

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

fn run_sorted(cluster: &Cluster, sql: &str, session: &Session) -> Vec<Vec<Value>> {
    let mut rows = cluster
        .execute_with_session(sql, session)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .rows();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn distributed_results_match_single_worker(q in arb_query()) {
        let base = Session::default();
        let expected = run_sorted(NARROW.get(), &q.sql, &base);
        let wide = run_sorted(WIDE.get(), &q.sql, &base);
        prop_assert_eq!(&wide, &expected, "4-worker diverged: {}", q.sql);
        // Ablations on the wide cluster.
        let mut interpreted = base.clone();
        interpreted.compiled_expressions = false;
        prop_assert_eq!(
            &run_sorted(WIDE.get(), &q.sql, &interpreted),
            &expected,
            "interpreted diverged: {}",
            q.sql
        );
        let mut eager = base.clone();
        eager.lazy_loading = false;
        eager.process_compressed = false;
        prop_assert_eq!(
            &run_sorted(WIDE.get(), &q.sql, &eager),
            &expected,
            "eager/decoded diverged: {}",
            q.sql
        );
    }
}
