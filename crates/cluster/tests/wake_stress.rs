//! Wake-protocol stress: thousands of short queries whose every hand-off —
//! split queue, exchange long-poll, output-buffer space, join build, the
//! coordinator's drain — is an event wakeup, with the things that end
//! waits from outside (pause, cancel, kill, drain) landing in between.
//!
//! Every query returns the right rows or an error the disturbance
//! explains, the cluster is quiescent after every round, and no driver
//! ever slept through an event (`safety_net_fires == 0`): a lost wakeup
//! does not hang this engine, it stalls it for 20 ms, so only the counter
//! can see one.

#![allow(clippy::unwrap_used)]

use presto_cluster::{Cluster, ClusterConfig, QueryError, QueryResult};
use presto_common::{DataType, ErrorCode, Schema, Session, Value};
use presto_connector::{CatalogManager, Connector};
use presto_connectors::ShardedSqlConnector;
use presto_testkit::{memory_catalog, sorted, ScratchDir, TestCluster};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const ROUNDS: usize = 10;
const CLIENTS: usize = 2;
const LOOKUPS_PER_CLIENT: usize = 260;

const ADS: i64 = 2000;
const AD_KEYS: i64 = 500;
const ORDERS: i64 = 1000;
const CUSTOMERS: i64 = 100;
const LINEITEMS: i64 = 5000;

/// `sharded.ads(ad_id, clicks)`, `orders(orderkey, custkey)` and
/// `lineitem(orderkey, qty)`, every cell a function of its row number so
/// expected results are arithmetic.
fn catalogs() -> CatalogManager {
    let bigint = |names: [&'static str; 2]| {
        Schema::of(&[(names[0], DataType::Bigint), (names[1], DataType::Bigint)])
    };
    let rows = |n: i64, f: fn(i64) -> (i64, i64)| -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| vec![Value::Bigint(f(i).0), Value::Bigint(f(i).1)])
            .collect()
    };
    let sharded = ShardedSqlConnector::new(8);
    sharded.load_table(
        "ads",
        bigint(["ad_id", "clicks"]),
        0,
        &rows(ADS, |i| (i % AD_KEYS, i)),
    );
    let orders = rows(ORDERS, |i| (i, i % CUSTOMERS));
    let lineitem = rows(LINEITEMS, |j| (j % ORDERS, j % 7));
    let (mut catalogs, _) = memory_catalog()
        .table("orders", bigint(["orderkey", "custkey"]), &orders, 250)
        .table("lineitem", bigint(["orderkey", "qty"]), &lineitem, 250)
        .build();
    catalogs.register("sharded", sharded as Arc<dyn Connector>);
    catalogs
}

fn bigints(row: &[i64]) -> Vec<Value> {
    row.iter().copied().map(Value::Bigint).collect()
}

/// The `n`-th query of a client and the rows it must return.
fn lookup(n: usize) -> (String, Vec<Vec<Value>>) {
    let k = (n as i64 * 37) % AD_KEYS;
    let clicks = |k: i64| (0..ADS / AD_KEYS).map(move |m| k + AD_KEYS * m);
    match n % 3 {
        0 => (
            format!("SELECT SUM(clicks), COUNT(*) FROM sharded.ads WHERE ad_id = {k}"),
            vec![bigints(&[clicks(k).sum(), ADS / AD_KEYS])],
        ),
        1 => {
            let other = (k + 11) % AD_KEYS;
            let mut all: Vec<i64> = clicks(k).chain(clicks(other)).collect();
            all.sort_unstable();
            (
                format!(
                    "SELECT clicks FROM sharded.ads WHERE ad_id IN ({k}, {other}) ORDER BY clicks"
                ),
                all.iter().map(|&c| bigints(&[c])).collect(),
            )
        }
        _ => {
            let key = (n as i64 * 13) % ORDERS;
            (
                format!("SELECT custkey FROM orders WHERE orderkey = {key}"),
                vec![bigints(&[key % CUSTOMERS])],
            )
        }
    }
}

/// One customer's orders joined to their line items.
fn join(n: usize) -> (String, Vec<Vec<Value>>) {
    let c = n as i64 % CUSTOMERS;
    let items = || (0..LINEITEMS).filter(move |j| (j % ORDERS) % CUSTOMERS == c);
    (
        format!(
            "SELECT COUNT(*), SUM(l.qty) FROM orders o JOIN lineitem l \
             ON o.orderkey = l.orderkey WHERE o.custkey = {c}"
        ),
        vec![bigints(&[
            items().count() as i64,
            items().map(|j| j % 7).sum(),
        ])],
    )
}

/// What happens to the cluster while a round's queries run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Disturbance {
    Nothing,
    PauseAndResume,
    CancelQueries,
    KillWorker,
    DrainWorker,
}

impl Disturbance {
    fn of_round(round: usize) -> Disturbance {
        use Disturbance::*;
        [
            Nothing,
            PauseAndResume,
            CancelQueries,
            KillWorker,
            DrainWorker,
        ][round % 5]
    }

    fn run(self, c: &Cluster, done: &AtomicBool) {
        let nap = |d: Duration| std::thread::sleep(d);
        match self {
            Disturbance::Nothing => {}
            Disturbance::PauseAndResume => {
                for turn in 0.. {
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                    let worker = turn % c.worker_count();
                    c.hang_worker(worker);
                    nap(Duration::from_millis(2));
                    c.resume_worker(worker);
                    nap(Duration::from_millis(5));
                }
            }
            Disturbance::CancelQueries => {
                while !done.load(Ordering::SeqCst) {
                    if let Some(&query) = c.active_queries().first() {
                        c.cancel_query(query);
                    }
                    nap(Duration::from_millis(4));
                }
            }
            Disturbance::KillWorker => {
                nap(Duration::from_millis(40));
                c.kill_worker(1);
            }
            Disturbance::DrainWorker => {
                nap(Duration::from_millis(40));
                c.drain_worker(1, Duration::from_secs(20)).unwrap();
            }
        }
    }

    /// Whether a query may end in `error` under this disturbance.
    fn explains(self, error: &QueryError) -> bool {
        error.error.is_retryable()
            || (self == Disturbance::CancelQueries && error.error.code == ErrorCode::Killed)
    }
}

/// Right rows, or an error the disturbance explains. Returns whether the
/// query succeeded.
fn check(
    sql: &str,
    want: &[Vec<Value>],
    got: Result<QueryResult, QueryError>,
    disturbance: Disturbance,
) -> bool {
    match got {
        Ok(out) => {
            assert_eq!(
                out.rows(),
                want,
                "wrong answer under {disturbance:?}: {sql}"
            );
            true
        }
        Err(e) => {
            assert!(disturbance.explains(&e), "{e} under {disturbance:?}: {sql}");
            false
        }
    }
}

/// How long a round's cluster may take to become quiescent: its queries
/// ran under injected pauses, cancels, kills and drains.
const STRESS_GRACE: Duration = Duration::from_secs(20);

/// Quiescent within [`STRESS_GRACE`] with no lost wakeup. Returns the
/// drivers parked on events so far.
fn quiescent_parks(c: &TestCluster) -> u64 {
    c.quiescent_within(STRESS_GRACE);
    c.assert_no_lost_wakeups();
    let snap = c.metrics_snapshot();
    for w in &snap.workers {
        assert!(w.wakeups.event_wakeups <= w.wakeups.parks, "{w:?}");
    }
    snap.workers.iter().map(|w| w.wakeups.parks).sum()
}

#[test]
fn no_wakeup_is_lost_under_mixed_load_and_disturbance() {
    let succeeded = AtomicUsize::new(0);
    let mut parks = 0;
    for round in 0..ROUNDS {
        let disturbance = Disturbance::of_round(round);
        let config = ClusterConfig {
            workers: 2,
            threads_per_worker: 2,
            ..ClusterConfig::test()
        };
        eprintln!("round {round} ({disturbance:?})");
        let c = TestCluster::start(config, catalogs());
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let (c, succeeded) = (&c, &succeeded);
                    scope.spawn(move || {
                        for i in 0..LOOKUPS_PER_CLIENT {
                            let n = (round * CLIENTS + client) * LOOKUPS_PER_CLIENT + i;
                            let (sql, want) = lookup(n);
                            if check(&sql, &want, c.execute(&sql), disturbance) {
                                succeeded.fetch_add(1, Ordering::Relaxed);
                            }
                            if client == 0 && i == LOOKUPS_PER_CLIENT / 2 {
                                let (sql, want) = join(n);
                                check(&sql, &want, c.execute(&sql), disturbance);
                            }
                        }
                    })
                })
                .collect();
            scope.spawn(|| disturbance.run(&c, &done));
            // Stop the disturbance before reporting a client's panic, or
            // the scope would wait on its loop for ever.
            let results: Vec<_> = clients.into_iter().map(|c| c.join()).collect();
            done.store(true, Ordering::SeqCst);
            for result in results {
                result.unwrap();
            }
        });
        parks += quiescent_parks(&c);
    }
    // The disturbances fail some queries; most must get through, and the
    // evented path must have carried them.
    let attempted = ROUNDS * CLIENTS * LOOKUPS_PER_CLIENT;
    assert!(attempted >= 5000);
    let succeeded = succeeded.load(Ordering::Relaxed);
    assert!(
        succeeded * 10 >= attempted * 8,
        "{succeeded} of {attempted} lookups succeeded"
    );
    assert!(
        parks as usize >= succeeded,
        "{parks} parks for {succeeded} lookups"
    );
}

/// The same under memory pressure: node pools far below the join's build
/// side, so drivers wait on memory (a timed re-poll, no event), are asked
/// to spill while parked on something else, and lookups queue behind them.
#[test]
fn no_wakeup_is_lost_while_a_tiny_pool_query_spills() {
    let dir = ScratchDir::new("wake-stress");
    let config = ClusterConfig {
        workers: 2,
        threads_per_worker: 2,
        node_memory_bytes: 8 << 10,
        reserved_pool_bytes: 8 << 10,
        ..ClusterConfig::test()
    };
    let c = TestCluster::start(config, catalogs());
    let spilling = Session {
        spill_enabled: true,
        spill_dir: Some(dir.to_path_buf()),
        ..Session::default()
    };
    std::thread::scope(|scope| {
        let lookups = scope.spawn(|| {
            for n in 0..30 {
                let (sql, want) = lookup(n);
                assert!(check(&sql, &want, c.execute(&sql), Disturbance::Nothing));
            }
        });
        let out = c
            .execute_with_session(
                "SELECT o.orderkey, COUNT(*), SUM(l.qty) FROM orders o JOIN lineitem l \
                 ON o.orderkey = l.orderkey GROUP BY o.orderkey",
                &spilling,
            )
            .unwrap();
        let rows = sorted(out.rows());
        let want: Vec<Vec<Value>> = (0..ORDERS)
            .map(|o| {
                let items = || (0..LINEITEMS).filter(move |j| j % ORDERS == o);
                bigints(&[o, items().count() as i64, items().map(|j| j % 7).sum()])
            })
            .collect();
        assert_eq!(rows, want);
        lookups.join().unwrap();
    });
    quiescent_parks(&c);
    let snap = c.metrics_snapshot();
    assert!(snap.spill.spilled_bytes > 0, "the join must have spilled");
    let timed: u64 = snap.workers.iter().map(|w| w.wakeups.timed_repolls).sum();
    assert!(timed > 0, "memory waits are timed re-polls");
    assert_eq!(dir.file_count(), 0, "no spill file may remain");
}
