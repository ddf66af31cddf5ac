//! §IV-G fault-injection benchmark: the failure detector, clean teardown,
//! and coordinator retry under a seeded chaos schedule.
//!
//! Three scenarios, all driven from one seed (`--seed N` or the
//! `PRESTO_CHAOS_SEED` environment variable; default 42):
//!
//! 1. **Detection**: hang a worker's scheduler mid-query and measure the
//!    latency until the liveness detector declares it lost. The query must
//!    terminate within `liveness_timeout + grace`.
//! 2. **Teardown / retry**: crash a worker mid-query, repeatedly. Measures
//!    teardown latency (crash → every task retired and every pool byte
//!    returned) and the coordinator-retry success rate (the opt-in §IV-G
//!    deviation knob: the query re-runs on the survivors).
//! 3. **Chaos run**: a multi-threaded workload under a seeded
//!    [`ChaosSchedule`] (blips, a permanent hang, a crash) with faults from
//!    the cluster's fault plane (transient split failures, straggling page
//!    reads, corrupt shuffle frames).
//!    Invariants: every query terminates, only fault-shaped errors occur,
//!    and after the storm no task and no pool byte leaks.
//!
//! ```sh
//! cargo run --release -p presto-bench --bin chaos_bench [-- --smoke] [-- --seed N]
//! ```
//!
//! Emits `BENCH_chaos.json` in the working directory.

use presto_bench::report::BenchReport;
use presto_cluster::{ChaosProfile, ChaosSchedule, Cluster, ClusterConfig, WorkerState};
use presto_common::chaos::{seed_from_env, Effect, FaultPlane, Site, Trigger};
use presto_common::json::Json;
use presto_common::{DataType, ErrorCode, Schema, Session, Value};
use presto_connector::{CatalogManager, Connector};
use presto_connectors::MemoryConnector;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Sizing {
    /// Rows in the orders table; the probe query cross-joins it with
    /// itself, so work grows quadratically.
    rows: i64,
    /// Crash/retry iterations in scenario 2.
    retry_trials: usize,
    /// Workload threads × queries per thread in scenario 3.
    threads: usize,
    queries_per_thread: usize,
}

fn sizing(smoke: bool) -> Sizing {
    if smoke {
        Sizing {
            rows: 1200,
            retry_trials: 2,
            threads: 4,
            queries_per_thread: 3,
        }
    } else {
        Sizing {
            rows: 4000,
            retry_trials: 8,
            threads: 8,
            queries_per_thread: 6,
        }
    }
}

/// A query slow enough to still be mid-flight when a fault lands: a
/// self cross join with a residual filter (`rows²` pairs scanned).
fn slow_join(rows: i64) -> String {
    format!(
        "SELECT o1.orderkey FROM orders o1 CROSS JOIN orders o2 \
         WHERE o1.orderkey + o2.orderkey = {}",
        rows - 1
    )
}

fn orders_connector(rows: i64) -> Arc<MemoryConnector> {
    let mem = MemoryConnector::new();
    let schema = Schema::of(&[
        ("orderkey", DataType::Bigint),
        ("custkey", DataType::Bigint),
    ]);
    let all: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![Value::Bigint(i), Value::Bigint(i % 100)])
        .collect();
    let pages: Vec<presto_page::Page> = all
        .chunks(50)
        .map(|chunk| presto_page::Page::from_rows(&schema, chunk))
        .collect();
    mem.load_table("orders", schema, pages);
    mem.analyze("orders").expect("analyze orders");
    mem
}

fn catalogs_of(connector: Arc<dyn Connector>) -> CatalogManager {
    let mut catalogs = CatalogManager::new();
    catalogs.register("memory", connector);
    catalogs
}

/// Scenario 1: hung-worker detection latency and bounded query failure.
fn bench_detection(sz: &Sizing) -> Json {
    let liveness = Duration::from_millis(100);
    let grace = Duration::from_secs(5);
    let config = ClusterConfig {
        workers: 2,
        liveness_timeout: liveness,
        ..ClusterConfig::test()
    };
    let cluster = Cluster::start(config, catalogs_of(orders_connector(sz.rows))).expect("cluster");
    let handle = cluster.submit(slow_join(sz.rows), Session::default());
    std::thread::sleep(Duration::from_millis(10));
    let hung_at = Instant::now();
    cluster.hang_worker(1);
    while cluster.worker_states()[1] != WorkerState::Lost {
        assert!(
            hung_at.elapsed() < liveness + grace,
            "detector never declared the hung worker lost"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let detection = hung_at.elapsed();
    if let Err(e) = handle.join().expect("query thread") {
        assert_eq!(e.error.code, ErrorCode::WorkerFailed, "{e}");
    }
    let terminated = hung_at.elapsed();
    assert!(
        terminated < liveness + grace,
        "query outlived liveness_timeout + grace: {terminated:?}"
    );
    let teardown = cluster.await_quiescent(grace).expect("teardown leaked");
    println!(
        "detection       liveness={liveness:>8.2?} detect={detection:>8.2?} \
         query_end={terminated:>8.2?} clean={teardown:>8.2?}"
    );
    Json::obj([
        ("liveness_ms", Json::Num(liveness.as_secs_f64() * 1e3)),
        ("detect_ms", Json::Num(detection.as_secs_f64() * 1e3)),
        ("query_end_ms", Json::Num(terminated.as_secs_f64() * 1e3)),
        ("clean_ms", Json::Num(teardown.as_secs_f64() * 1e3)),
    ])
}

/// Scenario 2: crash teardown latency and coordinator-retry success rate.
fn bench_teardown_retry(sz: &Sizing) -> Json {
    let grace = Duration::from_secs(10);
    let mut teardown_total = Duration::ZERO;
    let mut recovered = 0usize;
    for trial in 0..sz.retry_trials {
        let config = ClusterConfig {
            workers: 3,
            ..ClusterConfig::test()
        };
        let cluster =
            Cluster::start(config, catalogs_of(orders_connector(sz.rows))).expect("cluster");
        let session = Session {
            query_retry_attempts: 2,
            query_retry_backoff: Duration::from_millis(5),
            ..Session::default()
        };
        let handle = cluster.submit(slow_join(sz.rows), session);
        // Stagger the crash across trials so it lands in different phases.
        std::thread::sleep(Duration::from_millis(5 + 7 * trial as u64));
        cluster.kill_worker(2);
        let killed_at = Instant::now();
        match handle.join().expect("query thread") {
            Ok(out) => {
                assert_eq!(
                    out.row_count(),
                    sz.rows as usize,
                    "retry must not lose rows"
                );
                recovered += 1;
            }
            Err(e) => assert_eq!(e.error.code, ErrorCode::WorkerFailed, "{e}"),
        }
        teardown_total += cluster.await_quiescent(grace).expect("teardown leaked");
        let _ = killed_at;
    }
    println!(
        "teardown/retry  trials={:<3} recovered={:<3} rate={:>5.2} avg_clean={:>8.2?}",
        sz.retry_trials,
        recovered,
        recovered as f64 / sz.retry_trials as f64,
        teardown_total / sz.retry_trials as u32,
    );
    Json::obj([
        ("trials", Json::Int(sz.retry_trials as i64)),
        ("recovered", Json::Int(recovered as i64)),
        (
            "retry_rate",
            Json::Num(recovered as f64 / sz.retry_trials as f64),
        ),
        (
            "avg_clean_ms",
            Json::Num(teardown_total.as_secs_f64() * 1e3 / sz.retry_trials as f64),
        ),
    ])
}

/// Scenario 3: seeded chaos storm over a concurrent workload.
fn bench_chaos_run(sz: &Sizing, seed: u64) -> Json {
    let liveness = Duration::from_millis(150);
    let grace = Duration::from_secs(10);
    let workers = 4;
    let plane = Arc::new(
        FaultPlane::new(seed)
            .rule(Site::SplitOpen, Trigger::Chance(0.05), Effect::Transient)
            .rule(
                Site::PageRead,
                Trigger::Chance(0.10),
                Effect::Delay(Duration::from_micros(500)),
            )
            // Shuffle-frame corruption: every 97th exchange decode fails
            // transiently; the client's backoff retry absorbs it. The period
            // must exceed the largest re-fetched batch (rows/50 frames) or
            // the batch could never fully decode and the fault would be
            // permanent rather than transient.
            .rule(Site::FrameDecode, Trigger::Every(97), Effect::Transient),
    );
    let config = ClusterConfig {
        workers,
        liveness_timeout: liveness,
        faults: Some(Arc::clone(&plane)),
        ..ClusterConfig::test()
    };
    let cluster =
        Arc::new(Cluster::start(config, catalogs_of(orders_connector(sz.rows))).expect("cluster"));
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
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        let schedule = schedule.clone();
        std::thread::spawn(move || schedule.run(&cluster, &stop))
    };
    let started = Instant::now();
    let per_thread = sz.queries_per_thread;
    let mut threads = Vec::new();
    for t in 0..sz.threads {
        let cluster = Arc::clone(&cluster);
        let sql = slow_join(sz.rows);
        threads.push(std::thread::spawn(move || {
            let session = Session {
                query_retry_attempts: 3,
                query_retry_backoff: Duration::from_millis(10),
                ..Session::default()
            };
            let mut ok = 0u32;
            let mut failed = 0u32;
            let mut slowest = Duration::ZERO;
            for i in 0..per_thread {
                let q = if (t + i) % 2 == 0 {
                    "SELECT custkey, COUNT(*) FROM orders GROUP BY custkey".to_string()
                } else {
                    sql.clone()
                };
                let at = Instant::now();
                match cluster.execute_with_session(&q, &session) {
                    Ok(_) => ok += 1,
                    Err(e) => {
                        assert!(
                            matches!(
                                e.error.code,
                                ErrorCode::Killed
                                    | ErrorCode::WorkerFailed
                                    | ErrorCode::External { .. }
                            ),
                            "fault storm produced a non-fault error: {e}"
                        );
                        failed += 1;
                    }
                }
                slowest = slowest.max(at.elapsed());
            }
            (ok, failed, slowest)
        }));
    }
    let mut ok = 0u32;
    let mut failed = 0u32;
    let mut slowest = Duration::ZERO;
    for t in threads {
        let (o, f, s) = t.join().expect("workload thread");
        ok += o;
        failed += f;
        slowest = slowest.max(s);
    }
    stop.store(true, Ordering::SeqCst);
    storm.join().expect("storm thread");
    let total = (sz.threads * sz.queries_per_thread) as u32;
    assert_eq!(ok + failed, total, "every query must terminate");
    // After the storm, nothing may remain active for longer than the
    // detector needs to clear the wreckage.
    let quiet = Instant::now() + liveness + grace;
    while !cluster.active_queries().is_empty() {
        assert!(
            Instant::now() < quiet,
            "queries still active after liveness_timeout + grace"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let teardown = cluster.await_quiescent(grace).expect("teardown leaked");
    println!(
        "chaos run       queries={total:<3} ok={ok:<3} failed={failed:<3} \
         events={:<2} split_faults={:<4} stragglers={:<4} slowest={slowest:>8.2?} \
         clean={teardown:>8.2?} wall={:>8.2?}",
        schedule.events.len(),
        plane.fired(Site::SplitOpen),
        plane.fired(Site::PageRead),
        started.elapsed(),
    );
    Json::obj([
        ("queries", Json::Int(total as i64)),
        ("ok", Json::Int(ok as i64)),
        ("failed", Json::Int(failed as i64)),
        ("chaos_events", Json::Int(schedule.events.len() as i64)),
        (
            "split_faults",
            Json::Int(plane.fired(Site::SplitOpen) as i64),
        ),
        ("stragglers", Json::Int(plane.fired(Site::PageRead) as i64)),
        ("slowest_ms", Json::Num(slowest.as_secs_f64() * 1e3)),
        ("clean_ms", Json::Num(teardown.as_secs_f64() * 1e3)),
        ("wall_ms", Json::Num(started.elapsed().as_secs_f64() * 1e3)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| seed_from_env(42));
    let sz = sizing(smoke);
    println!(
        "chaos_bench seed={seed} mode={}",
        if smoke { "smoke" } else { "full" }
    );
    let detection = bench_detection(&sz);
    let teardown = bench_teardown_retry(&sz);
    let chaos_run = bench_chaos_run(&sz, seed);
    BenchReport::new("chaos")
        .config(
            "mode",
            Json::Str(if smoke { "smoke" } else { "full" }.into()),
        )
        .config("seed", Json::Int(seed as i64))
        .metric("detection", detection)
        .metric("teardown_retry", teardown)
        .metric("chaos_run", chaos_run)
        .write();
    println!("chaos_bench: ok");
}
