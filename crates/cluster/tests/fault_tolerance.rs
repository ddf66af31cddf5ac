//! Fault-tolerance invariants (§IV-G): whatever kills a query — user
//! cancellation, worker crash, memory limits, a hung scheduler — teardown
//! must be *clean*: every task retires, every memory-pool byte returns, no
//! peer blocks forever on a dead exchange source.

#![allow(clippy::unwrap_used)]

use presto_cluster::{ChaosProfile, ChaosSchedule, ClusterConfig, WorkerState};
use presto_common::chaos::{seed_from_env, Effect, FaultPlane, Site, Trigger, CHAOS_SEED_ENV};
use presto_common::{DataType, ErrorCode, Schema, Session, Value};
use presto_connector::{
    CatalogManager, Connector, ConnectorMetadata, PageSourceFactory, Split, SplitSource,
    TupleDomain,
};
use presto_testkit::{memory_catalog, sorted_rows, ScratchDir, TestCluster};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Slow enough to still be mid-flight when a fault lands: a 4000×4000
/// cross join (16M pairs). Matching pairs `(k, 3999-k)` number exactly
/// 4000.
const SLOW_JOIN: &str = "SELECT o1.orderkey FROM orders o1 CROSS JOIN orders o2 \
     WHERE o1.orderkey + o2.orderkey = 3999";

/// `orders(orderkey, custkey)` with keys `0..rows`, in 50-row pages.
fn orders_catalogs(rows: i64) -> CatalogManager {
    let schema = Schema::of(&[
        ("orderkey", DataType::Bigint),
        ("custkey", DataType::Bigint),
    ]);
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![Value::Bigint(i), Value::Bigint(i % 100)])
        .collect();
    memory_catalog()
        .table("orders", schema, &rows, 50)
        .build()
        .0
}

/// A cluster over 4 000 orders. Each test ends with the clean-teardown
/// invariant: no fault, though each ends waits from outside, was slept
/// through ([`TestCluster::assert_no_lost_wakeups`]), and the cluster is
/// quiescent.
fn start(config: ClusterConfig) -> TestCluster {
    TestCluster::start(config, orders_catalogs(4000))
}

#[test]
fn mid_query_cancel_releases_everything() {
    let c = start(ClusterConfig::test());
    let handle = c.submit(SLOW_JOIN, Session::default());
    // Wait until the query is registered and has had a moment to reserve.
    let deadline = Instant::now() + Duration::from_secs(2);
    let query = loop {
        if let Some(q) = c.active_queries().first().copied() {
            break q;
        }
        assert!(Instant::now() < deadline, "query never became active");
        std::thread::sleep(Duration::from_millis(1));
    };
    std::thread::sleep(Duration::from_millis(10));
    assert!(c.cancel_query(query), "cancel must find the running query");
    match handle.join().unwrap() {
        Err(e) => assert_eq!(e.error.code, ErrorCode::Killed, "{e}"),
        Ok(_) => panic!("cancelled query must not succeed"),
    }
    assert!(!c.cancel_query(query), "finished query is no longer active");
    c.assert_no_lost_wakeups();
}

#[test]
fn worker_crash_releases_everything() {
    let c = start(ClusterConfig::test());
    let handle = c.submit(SLOW_JOIN, Session::default());
    std::thread::sleep(Duration::from_millis(15));
    c.kill_worker(1);
    // Crash mid-run fails the query with the retryable worker-loss code;
    // racing to completion first is acceptable.
    if let Err(e) = handle.join().unwrap() {
        assert_eq!(e.error.code, ErrorCode::WorkerFailed, "{e}");
    }
    assert_eq!(c.worker_states()[1], WorkerState::Lost);
    c.assert_no_lost_wakeups();
}

#[test]
fn memory_kill_releases_everything() {
    let c = start(ClusterConfig::test());
    let session = Session {
        query_max_memory_per_node: 1,
        ..Session::default()
    };
    let err = c
        .execute_with_session(
            "SELECT custkey, COUNT(*) FROM orders GROUP BY custkey",
            &session,
        )
        .unwrap_err();
    assert_eq!(err.error.code, ErrorCode::InsufficientResources);
    c.assert_no_lost_wakeups();
}

/// Eight threads hammering the cluster while cancels and a worker crash
/// land mid-flight: every query terminates, nothing leaks.
#[test]
fn stress_mixed_faults_leave_no_residue() {
    let config = ClusterConfig {
        workers: 3,
        ..ClusterConfig::test()
    };
    let c = Arc::new(start(config));
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    for t in 0..8 {
        let c = Arc::clone(&c);
        threads.push(std::thread::spawn(move || {
            let mut outcomes = (0u32, 0u32); // (ok, failed)
            for i in 0..6 {
                let sql = if (t + i) % 2 == 0 {
                    "SELECT custkey, COUNT(*) FROM orders GROUP BY custkey"
                } else {
                    SLOW_JOIN
                };
                match c.execute(sql) {
                    Ok(_) => outcomes.0 += 1,
                    Err(e) => {
                        // Only fault-induced failures are acceptable.
                        assert!(
                            matches!(e.error.code, ErrorCode::Killed | ErrorCode::WorkerFailed),
                            "unexpected failure: {e}"
                        );
                        outcomes.1 += 1;
                    }
                }
            }
            outcomes
        }));
    }
    // Chaos thread: cancel whatever is running, then crash a worker.
    let chaos = {
        let c = Arc::clone(&c);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for round in 0..30 {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
                if round == 10 {
                    c.kill_worker(2);
                }
                if round % 3 == 0 {
                    for q in c.active_queries() {
                        c.cancel_query(q);
                    }
                }
            }
        })
    };
    let mut ok = 0;
    let mut failed = 0;
    for t in threads {
        let (o, f) = t.join().unwrap();
        ok += o;
        failed += f;
    }
    stop.store(true, Ordering::SeqCst);
    chaos.join().unwrap();
    assert_eq!(ok + failed, 48, "every query must terminate");
    c.assert_no_lost_wakeups();
}

/// A seeded [`ChaosSchedule`] (two hang blips, a permanent hang, a crash)
/// replayed against a concurrent workload while the fault plane fails
/// split opens, delays page reads and corrupts shuffle frames: every query
/// terminates with rows or a fault-shaped error, none is still active
/// after `liveness_timeout` + grace, and nothing leaks. The seed is
/// `PRESTO_CHAOS_SEED`, 42 when unset.
#[test]
fn seeded_chaos_storm_ends_every_query() {
    let seed = seed_from_env(42);
    let liveness = Duration::from_millis(150);
    let grace = Duration::from_secs(10);
    let workers = 4;
    let plane = FaultPlane::new(seed)
        .rule(Site::SplitOpen, Trigger::Chance(0.05), Effect::Transient)
        .rule(
            Site::PageRead,
            Trigger::Chance(0.10),
            Effect::Delay(Duration::from_micros(500)),
        )
        // Every 97th decode fails; the period exceeds the largest
        // re-fetched batch (1200 rows / 50 per page = 24 frames), so the
        // client's retry absorbs it and the fault stays transient.
        .rule(Site::FrameDecode, Trigger::Every(97), Effect::Transient);
    let config = ClusterConfig {
        workers,
        liveness_timeout: liveness,
        faults: Some(Arc::new(plane)),
        ..ClusterConfig::test()
    };
    // A smaller `orders` than the other tests, so the storm's cross joins
    // are mid-flight, not minutes long, when its faults land.
    let c = Arc::new(TestCluster::start(config, orders_catalogs(1200)));
    let profile = ChaosProfile {
        span: Duration::from_millis(400),
        blips: 2,
        blip_max: Duration::from_millis(40),
        permanent_hang: true,
        crash: true,
    };
    let schedule = ChaosSchedule::generate(seed, workers, &profile);
    let stop = Arc::new(AtomicBool::new(false));
    let storm = {
        let (c, stop, schedule) = (Arc::clone(&c), Arc::clone(&stop), schedule.clone());
        std::thread::spawn(move || schedule.run(&c, &stop))
    };
    // A grouped scan and a cross join scanning 1.44M pairs, alternating.
    const QUERIES: [&str; 2] = [
        "SELECT custkey, COUNT(*) FROM orders GROUP BY custkey",
        "SELECT o1.orderkey FROM orders o1 CROSS JOIN orders o2 \
         WHERE o1.orderkey + o2.orderkey = 1199",
    ];
    let clients: Vec<_> = (0..4)
        .map(|t| {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let session = Session {
                    query_retry_attempts: 3,
                    query_retry_backoff: Duration::from_millis(10),
                    ..Session::default()
                };
                for i in 0..3 {
                    let sql = QUERIES[(t + i) % 2];
                    if let Err(e) = c.execute_with_session(sql, &session) {
                        assert!(
                            matches!(
                                e.error.code,
                                ErrorCode::Killed
                                    | ErrorCode::WorkerFailed
                                    | ErrorCode::External { .. }
                            ),
                            "seed {seed}: the storm caused a non-fault error: {e}"
                        );
                    }
                }
            })
        })
        .collect();
    // Every client returning is every query terminating.
    clients.into_iter().for_each(|t| t.join().unwrap());
    stop.store(true, Ordering::SeqCst);
    storm.join().unwrap();
    let quiet = Instant::now() + liveness + grace;
    while !c.active_queries().is_empty() {
        assert!(
            Instant::now() < quiet,
            "seed {seed}: queries still active after liveness_timeout + grace"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    c.assert_no_lost_wakeups();
}

/// Opt-in coordinator retry (§IV-G deviation knob): a query that loses a
/// worker mid-run succeeds transparently on the second attempt, placed on
/// the survivors.
#[test]
fn query_retry_recovers_from_worker_loss() {
    let config = ClusterConfig {
        workers: 3,
        ..ClusterConfig::test()
    };
    let c = start(config);
    let session = Session {
        query_retry_attempts: 2,
        query_retry_backoff: Duration::from_millis(5),
        ..Session::default()
    };
    let handle = c.submit(SLOW_JOIN, session);
    std::thread::sleep(Duration::from_millis(15));
    c.kill_worker(2);
    let out = handle
        .join()
        .unwrap()
        .expect("retry must recover the query on surviving workers");
    assert_eq!(out.row_count(), 4000);
    // Queries after the loss keep working without the retry knob, too.
    assert!(c.execute("SELECT COUNT(*) FROM orders").is_ok());
    c.assert_no_lost_wakeups();
}

/// The failure detector: a hung scheduler stops heartbeating and is
/// declared lost within the liveness timeout; its queries fail with
/// `WorkerFailed` instead of hanging forever.
#[test]
fn liveness_detector_declares_hung_worker_lost() {
    let config = ClusterConfig {
        workers: 2,
        liveness_timeout: Duration::from_millis(100),
        ..ClusterConfig::test()
    };
    let c = start(config);
    let handle = c.submit(SLOW_JOIN, Session::default());
    std::thread::sleep(Duration::from_millis(15));
    c.hang_worker(1);
    // Detection latency: timeout + detector interval + slack.
    let deadline = Instant::now() + Duration::from_secs(3);
    while c.worker_states()[1] != WorkerState::Lost {
        assert!(
            Instant::now() < deadline,
            "detector never declared the hung worker lost: {:?}",
            c.worker_states()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    if let Err(e) = handle.join().unwrap() {
        assert_eq!(e.error.code, ErrorCode::WorkerFailed, "{e}");
    }
    c.assert_no_lost_wakeups();
}

/// A short hang (GC-pause blip) under the liveness timeout must NOT get
/// the worker killed.
#[test]
fn short_hang_below_timeout_is_tolerated() {
    let config = ClusterConfig {
        workers: 2,
        liveness_timeout: Duration::from_millis(500),
        ..ClusterConfig::test()
    };
    let c = start(config);
    c.hang_worker(1);
    std::thread::sleep(Duration::from_millis(60));
    c.resume_worker(1);
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(c.worker_states()[1], WorkerState::Active);
    assert!(c.execute("SELECT COUNT(*) FROM orders").is_ok());
    c.assert_no_lost_wakeups();
}

/// Graceful drain (§IV-G "shutting down"): mid-workload, a drained worker
/// finishes its tasks and stops — with zero query failures.
#[test]
fn drain_worker_mid_workload_fails_nothing() {
    let config = ClusterConfig {
        workers: 3,
        ..ClusterConfig::test()
    };
    let c = Arc::new(start(config));
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    for _ in 0..4 {
        let c = Arc::clone(&c);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let mut ran = 0u32;
            while !stop.load(Ordering::SeqCst) {
                c.execute("SELECT custkey, COUNT(*) FROM orders GROUP BY custkey")
                    .expect("drain must not fail queries");
                ran += 1;
            }
            ran
        }));
    }
    std::thread::sleep(Duration::from_millis(50));
    c.drain_worker(2, Duration::from_secs(10))
        .expect("drain must complete");
    assert_eq!(c.worker_states()[2], WorkerState::Shutdown);
    // The reduced cluster keeps serving.
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::SeqCst);
    let ran: u32 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(ran > 0, "workload should have made progress");
    c.assert_no_lost_wakeups();
}

/// Regression: a cross join whose predicate becomes a residual filter is
/// planned as an inner join with no equi keys; the keyed probe path hashes
/// zero columns and silently matched nothing. It must take the full-pairing
/// path and find all 4000 `(k, 3999-k)` pairs.
#[test]
fn cross_join_residual_filter_finds_all_matches() {
    let config = ClusterConfig {
        workers: 3,
        ..ClusterConfig::test()
    };
    let c = start(config);
    let out = c.execute(SLOW_JOIN).unwrap();
    assert_eq!(out.row_count(), 4000);
    c.assert_no_lost_wakeups();
}

/// Dynamic filtering under faults: the worker building the join's hash
/// table (the filter publisher) hangs past the probe scan's
/// `dynamic_filter_wait` deadline. The scan must degrade to an unpruned
/// read and the query must still return the exact result once the worker
/// resumes — a late (or absent) filter is a lost optimization, never a
/// correctness or liveness problem.
#[test]
fn dynamic_filter_publisher_hang_degrades_to_unpruned_scan() {
    let config = ClusterConfig {
        workers: 2,
        // Generous liveness budget: the hang must expire the filter wait,
        // not get the worker declared lost.
        liveness_timeout: Duration::from_secs(10),
        ..ClusterConfig::test()
    };
    let c = start(config);
    let session = Session {
        dynamic_filter_wait: Duration::from_millis(1),
        ..Session::default()
    };
    // Probe: full orders scan; build: the 10 smallest orderkeys. Each
    // custkey value 0..100 appears 40 times, so keys 0..10 match 400 rows.
    let sql = "SELECT COUNT(*) FROM orders f JOIN \
               (SELECT orderkey FROM orders WHERE orderkey < 10) d \
               ON f.custkey = d.orderkey";
    let handle = c.submit(sql, session.clone());
    c.hang_worker(1);
    std::thread::sleep(Duration::from_millis(50));
    c.resume_worker(1);
    let out = handle.join().unwrap().expect("query survives the hang");
    assert_eq!(out.rows()[0][0], Value::Bigint(400));
    // Same query, no faults, for reference: identical answer.
    let out = c.execute_with_session(sql, &session).unwrap();
    assert_eq!(out.rows()[0][0], Value::Bigint(400));
    c.assert_no_lost_wakeups();
}

/// Worker loss mid-flight through a *fused* pipeline (§V-B whole-pipeline
/// compiled execution): the monomorphized scan→filter→partial-agg loop
/// holds selection vectors, group states, and reserved memory inside one
/// operator, and all of it must still unwind through the normal teardown
/// path when the worker under it dies.
#[test]
fn worker_crash_mid_fused_pipeline_releases_everything() {
    use presto_page::blocks::LongBlock;
    use presto_page::{Block, Page};

    // A table large enough that the fused scan+filter+SUM is still running
    // when the crash lands, built from blocks directly so setup stays fast.
    let mem = presto_connectors::MemoryConnector::new();
    let schema = Schema::of(&[("k", DataType::Bigint), ("v", DataType::Bigint)]);
    const ROWS: i64 = 2_000_000;
    const PAGE: i64 = 4096;
    let pages: Vec<Page> = (0..ROWS)
        .step_by(PAGE as usize)
        .map(|start| {
            let n = PAGE.min(ROWS - start);
            let k: Vec<i64> = (start..start + n).collect();
            let v: Vec<i64> = (start..start + n).map(|i| i % 1000).collect();
            Page::new(vec![
                Block::from(LongBlock::from_values(k)),
                Block::from(LongBlock::from_values(v)),
            ])
        })
        .collect();
    mem.load_table("big", schema, pages);
    mem.analyze("big").unwrap();
    let mut catalogs = CatalogManager::new();
    catalogs.register("memory", mem as Arc<dyn presto_connector::Connector>);
    let c = TestCluster::start(ClusterConfig::test(), catalogs);

    // `pipeline_fusion` defaults on; prove this plan actually takes the
    // fused path by running it to completion once and watching the fused
    // pipeline counter move.
    let sql = "SELECT SUM(v) FROM big WHERE k < 1900000";
    let before = c.telemetry().fusion_metrics();
    let out = c.execute(sql).unwrap();
    assert_eq!(out.rows()[0][0], Value::Bigint(949_050_000));
    let after = c.telemetry().fusion_metrics();
    assert!(
        after.pipelines > before.pipelines,
        "query must run fused ({} -> {} pipelines)",
        before.pipelines,
        after.pipelines
    );

    // Same query again, but kill a worker while the fused loops are busy.
    let handle = c.submit(sql, Session::default());
    std::thread::sleep(Duration::from_millis(10));
    c.kill_worker(1);
    match handle.join().unwrap() {
        // Racing to completion first is acceptable; a loss mid-run must
        // surface the retryable worker-failure code, never hang or corrupt.
        Ok(out) => assert_eq!(out.rows()[0][0], Value::Bigint(949_050_000)),
        Err(e) => assert_eq!(e.error.code, ErrorCode::WorkerFailed, "{e}"),
    }
    assert_eq!(c.worker_states()[1], WorkerState::Lost);
    c.assert_no_lost_wakeups();
}

/// The seeded sweep's faults: a transient-failure chance per site, low
/// enough that most queries heal through their retries.
const SWEEP_FAULTS: [(Site, f64); 4] = [
    (Site::SplitOpen, 0.05),
    (Site::PageRead, 0.005),
    (Site::FrameDecode, 0.02),
    (Site::SpillWrite, 0.002),
];

/// A grouped scan and a join, both across shuffles.
const SWEEP_QUERIES: [&str; 2] = [
    "SELECT custkey, COUNT(*), SUM(orderkey) FROM orders GROUP BY custkey",
    "SELECT o1.custkey, COUNT(*), SUM(o2.orderkey) FROM orders o1 \
     JOIN orders o2 ON o1.custkey = o2.orderkey GROUP BY o1.custkey",
];

/// A join whose build side no 8 KiB pool holds: it spills.
const SWEEP_SPILL_QUERY: &str = "SELECT o1.custkey, COUNT(*), SUM(o2.custkey) FROM orders o1 \
     JOIN orders o2 ON o1.orderkey = o2.orderkey GROUP BY o1.custkey";

/// Under a seeded fault plane that draws transient faults at every site,
/// every query returns the fault-free rows or a retryable error, and each
/// cluster ends quiescent with no spill file left. Seeds 0..10, or only
/// `PRESTO_CHAOS_SEED` when it is set; every failure names its seed.
#[test]
fn seeded_fault_sweep_returns_reference_rows_or_retryable_errors() {
    let replay = std::env::var_os(CHAOS_SEED_ENV).is_some();
    let seeds = match replay {
        true => seed_from_env(0)..seed_from_env(0) + 1,
        false => 0..10,
    };
    let reference_cluster = start(ClusterConfig::test());
    let plain = Session::default();
    let mut reference: Vec<Vec<Vec<Value>>> = SWEEP_QUERIES
        .iter()
        .map(|sql| sorted_rows(&reference_cluster, sql, &plain).unwrap())
        .collect();
    reference.push(sorted_rows(&reference_cluster, SWEEP_SPILL_QUERY, &plain).unwrap());
    drop(reference_cluster);
    let (mut answered, mut reached, mut fired, mut decode_faults) = (0, [0; 4], 0, 0);
    for seed in seeds {
        let plane = Arc::new(
            SWEEP_FAULTS
                .iter()
                .fold(FaultPlane::new(seed), |p, &(site, chance)| {
                    p.rule(site, Trigger::Chance(chance), Effect::Transient)
                }),
        );
        eprintln!("seed {seed}");
        let dir = ScratchDir::new(&format!("fault-sweep-{seed}"));
        let session = Session {
            query_retry_attempts: 2,
            query_retry_backoff: Duration::from_millis(1),
            spill_enabled: true,
            spill_dir: Some(dir.to_path_buf()),
            ..Session::default()
        };
        let tiny_pool = ClusterConfig {
            node_memory_bytes: 8 << 10,
            reserved_pool_bytes: 8 << 10,
            ..ClusterConfig::test()
        };
        let runs = [
            (ClusterConfig::test(), &SWEEP_QUERIES[..], &reference[..2]),
            (tiny_pool, &[SWEEP_SPILL_QUERY][..], &reference[2..]),
        ];
        for (config, queries, want) in runs {
            let config = ClusterConfig {
                faults: Some(Arc::clone(&plane)),
                ..config
            };
            let c = start(config);
            for (sql, want) in queries.iter().zip(want) {
                match sorted_rows(&c, sql, &session) {
                    Ok(rows) => {
                        assert_eq!(&rows, want, "seed {seed}: wrong answer: {sql}");
                        answered += 1;
                    }
                    Err(e) => assert!(e.error.is_retryable(), "seed {seed}: {e}: {sql}"),
                }
            }
            c.assert_no_lost_wakeups();
        }
        assert_eq!(dir.file_count(), 0, "seed {seed}: spill files left");
        for (i, (site, _)) in SWEEP_FAULTS.into_iter().enumerate() {
            reached[i] += plane.hits(site);
            fired += plane.fired(site);
        }
        decode_faults += plane.fired(Site::FrameDecode);
    }
    // One seed may fail every query before some site is reached; the sweep
    // as a whole must answer, inject, and reach every site.
    if !replay {
        assert!(
            answered > 0 && fired > 0,
            "{answered} answers, {fired} faults"
        );
        assert!(reached.iter().all(|&n| n > 0), "hits per site: {reached:?}");
        // Same-worker edges skip the codec; the cross-worker ones must
        // still carry enough frames for decode faults to fire.
        assert!(decode_faults > 0, "no frame decode fault fired");
    }
}

/// Wraps a connector, but its split enumeration panics: a connector bug.
/// Early, it panics at its first batch, on the coordinator's query thread,
/// after the scan's tasks are running. Late, it hands out the table's
/// splits and panics when they run out, on the scan's split-feeder thread.
struct PanickingSplits {
    inner: Arc<dyn Connector>,
    late: bool,
}

/// Panics at once, or once `.0` has no splits left.
struct PanickingSource(Option<Box<dyn SplitSource>>);

impl SplitSource for PanickingSource {
    fn next_batch(&mut self, max: usize) -> presto_common::Result<Vec<Split>> {
        let batch = match &mut self.0 {
            Some(inner) => inner.next_batch(max)?,
            None => Vec::new(),
        };
        if batch.is_empty() {
            panic!("split enumeration panicked");
        }
        Ok(batch)
    }

    fn is_finished(&self) -> bool {
        false
    }
}

impl Connector for PanickingSplits {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn metadata(&self) -> &dyn ConnectorMetadata {
        self.inner.metadata()
    }

    fn split_source(
        &self,
        table: &str,
        layout: &str,
        predicate: &TupleDomain,
    ) -> presto_common::Result<Box<dyn SplitSource>> {
        let inner = match self.late {
            true => Some(self.inner.split_source(table, layout, predicate)?),
            false => None,
        };
        Ok(Box::new(PanickingSource(inner)))
    }

    fn page_source_factory(&self) -> &dyn PageSourceFactory {
        self.inner.page_source_factory()
    }
}

/// A panic in a connector ends the query like any failure, on whichever
/// thread it unwinds. On the query's own thread it reaches the submitter;
/// on a split feeder's thread it fails the query. Either way the query is
/// recorded as an internal failure and the cluster is left quiescent.
#[test]
fn panicking_split_source_leaves_the_cluster_quiescent() {
    for late in [false, true] {
        let inner = orders_catalogs(4000).catalog("memory").unwrap();
        let mut catalogs = CatalogManager::new();
        catalogs.register("memory", Arc::new(PanickingSplits { inner, late }));
        // One split per batch and per task queue: the inline feeding pass
        // fills the queues, and a feeder thread enumerates the rest.
        let config = ClusterConfig {
            split_batch_size: 1,
            max_queued_splits_per_task: 1,
            ..ClusterConfig::test()
        };
        let c = TestCluster::start(config, catalogs);
        let handle = c.submit(
            "SELECT custkey, COUNT(*) FROM orders GROUP BY custkey",
            Session::default(),
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while !handle.is_finished() {
            assert!(
                Instant::now() < deadline,
                "late={late}: the query never ended"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        match handle.join() {
            Err(_) => assert!(!late, "a feeder's panic must not reach the submitter"),
            Ok(result) => {
                assert!(late, "the query thread's panic reaches the submitter");
                let err = result.expect_err("a panicked split source fails the query");
                assert_eq!(err.error.code, ErrorCode::Internal, "{err}");
            }
        }
        let history = c.query_history().snapshot();
        let entry = history.last().expect("the query is recorded");
        assert_eq!(
            (entry.state, entry.error_tag),
            ("failed", Some(ErrorCode::Internal.tag())),
            "late={late}"
        );
        assert!(c.active_queries().is_empty());
    }
}
