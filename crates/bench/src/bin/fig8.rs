//! Figure 8: "Cluster avg. CPU utilization and concurrency over a 4-hour
//! period".
//!
//! The paper shows an Interactive Analytics cluster holding ~90% worker
//! CPU utilization while demand swings from 44 concurrent queries down to
//! 8 and back, with new cheap queries getting CPU within milliseconds
//! (§IV-F1's multi-level feedback queue). We compress the 4-hour trace
//! into a configurable window (default 60 s) and replay the same demand
//! shape, sampling utilization and concurrency every second.
//!
//! ```sh
//! cargo run --release -p presto-bench --bin fig8
//! ```

use presto_bench::{scale_factor, BenchCluster};
use presto_workload::arrivals::DemandCurve;
use presto_workload::usecases::{UseCase, WorkloadGenerator};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

fn main() {
    let scale = scale_factor();
    let window: u64 = std::env::var("PRESTO_FIG8_SECONDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    let peak: usize = std::env::var("PRESTO_FIG8_PEAK")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);
    let trough = (peak / 5).max(2);
    println!(
        "Figure 8 reproduction: CPU utilization vs concurrency over a {window}s window \
         (demand {peak} -> {trough} -> {peak}; paper: 44 -> 8 over 4h, ~90% CPU)\n"
    );
    let fixture = BenchCluster::new("fig8", scale);
    let threads = fixture.cluster.config().workers * fixture.cluster.config().threads_per_worker;
    let curve = DemandCurve {
        peak,
        trough,
        period: Duration::from_secs(window),
    };
    let mut generator = WorkloadGenerator::new(UseCase::Interactive, 4242);
    let session = UseCase::Interactive.session();

    let start = Instant::now();
    let mut handles: VecDeque<std::thread::JoinHandle<_>> = VecDeque::new();
    let mut last_busy: Duration = fixture.cluster.telemetry().worker_busy().iter().sum();
    let mut last_sample = Instant::now();
    println!(
        "{:>6} {:>18} {:>14} {:>12}",
        "t(s)", "target_concurrency", "running", "cpu_util%"
    );
    let mut utils = Vec::new();
    while start.elapsed() < Duration::from_secs(window) {
        // Reap finished queries.
        while let Some(h) = handles.front() {
            if h.is_finished() {
                let _ = handles.pop_front().expect("front checked").join();
            } else {
                break;
            }
        }
        // Top up to the demand target.
        let target = curve.target_at(start.elapsed());
        while handles.len() < target {
            handles.push_back(
                fixture
                    .cluster
                    .submit(generator.next_query(), session.clone()),
            );
        }
        // Sample once per second.
        if last_sample.elapsed() >= Duration::from_secs(1) {
            let busy: Duration = fixture.cluster.telemetry().worker_busy().iter().sum();
            let wall = last_sample.elapsed();
            let util = (busy - last_busy).as_secs_f64() / (wall.as_secs_f64() * threads as f64);
            utils.push(util);
            println!(
                "{:>6} {:>18} {:>14} {:>12.0}",
                start.elapsed().as_secs(),
                target,
                fixture.cluster.telemetry().running_queries(),
                util * 100.0
            );
            last_busy = busy;
            last_sample = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for h in handles {
        let _ = h.join();
    }
    let avg = utils.iter().sum::<f64>() / utils.len().max(1) as f64;
    let peak_avg = {
        let edge: Vec<f64> = utils[..utils.len() / 4]
            .iter()
            .chain(&utils[utils.len() * 3 / 4..])
            .copied()
            .collect();
        edge.iter().sum::<f64>() / edge.len().max(1) as f64
    };
    let trough_avg = {
        let mid = &utils[utils.len() / 3..utils.len() * 2 / 3];
        mid.iter().sum::<f64>() / mid.len().max(1) as f64
    };
    println!("\naverage CPU utilization:          {:.0}%", avg * 100.0);
    println!("utilization at demand peak:       {:.0}%", peak_avg * 100.0);
    println!(
        "utilization during demand trough: {:.0}%",
        trough_avg * 100.0
    );
    println!(
        "concurrency dropped {:.0}x peak->trough; utilization only {:.2}x",
        peak as f64 / trough as f64,
        peak_avg / trough_avg.max(1e-9)
    );
    println!(
        "queries completed: {} (failed {})",
        fixture.cluster.telemetry().finished_queries(),
        fixture.cluster.telemetry().failed_queries()
    );
    println!("\nexpected shape (paper): utilization stays high (~90%) even as demand");
    println!("drops to the trough, because the MLFQ keeps workers saturated.");
}
