//! Figure 7: "Query runtime distribution for selected use cases".
//!
//! The paper plots CDFs of production query runtimes for the four Table I
//! use cases, spanning ~20 ms web queries to multi-hour ETL. We replay the
//! four workload generators against their Table I connectors and print the
//! CDF series. Absolute times are scaled to the simulated data; the
//! *ordering* (Dev/Advertiser ≪ A/B ≪ Interactive ≪ ETL) is the result.
//!
//! ```sh
//! cargo run --release -p presto-bench --bin fig7
//! ```

use presto_bench::{percentile, print_cache_summary, scale_factor, BenchCluster};
use presto_workload::usecases::{UseCase, WorkloadGenerator};
use std::time::Duration;

fn main() {
    let scale = scale_factor();
    let queries_per_case: usize = std::env::var("PRESTO_FIG7_QUERIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    println!("Figure 7 reproduction: query runtime CDF per use case (SF {scale})\n");
    let fixture = BenchCluster::new("fig7", scale);
    // Shared storage is slower than local flash.
    fixture.hive.set_read_latency(Duration::from_micros(300));

    let mut series: Vec<(&'static str, Vec<Duration>)> = Vec::new();
    for use_case in UseCase::all() {
        let mut generator = WorkloadGenerator::new(use_case, 2024);
        let session = use_case.session();
        // Table I concurrency, scaled down: issue small concurrent batches.
        let batch = match use_case {
            UseCase::DeveloperAdvertiser => 4,
            UseCase::AbTesting => 4,
            UseCase::Interactive => 4,
            UseCase::BatchEtl => 2,
        };
        let mut times = Vec::new();
        let mut remaining = queries_per_case;
        while remaining > 0 {
            let n = batch.min(remaining);
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    fixture
                        .cluster
                        .submit(generator.next_query(), session.clone())
                })
                .collect();
            for h in handles {
                match h.join().expect("query thread") {
                    Ok(out) => times.push(out.wall_time),
                    Err(e) => eprintln!("{}: {e}", use_case.label()),
                }
            }
            remaining -= n;
        }
        times.sort();
        series.push((use_case.label(), times));
    }

    // CDF table, log-spaced buckets like the paper's x-axis.
    let buckets: Vec<Duration> = [
        1u64, 2, 4, 8, 16, 32, 64, 125, 250, 500, 1_000, 2_000, 4_000, 8_000, 16_000, 60_000,
    ]
    .iter()
    .map(|&ms| Duration::from_millis(ms))
    .collect();
    print!("{:<12}", "runtime<=");
    for (label, _) in &series {
        print!("{label:>28}");
    }
    println!();
    for b in &buckets {
        print!("{:<12}", format!("{}ms", b.as_millis()));
        for (_, times) in &series {
            let frac = times.iter().filter(|t| **t <= *b).count() as f64 / times.len() as f64;
            print!("{:>27.0}%", frac * 100.0);
        }
        println!();
    }
    println!("\npercentiles:");
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>10}",
        "use case", "p25", "p50", "p90", "max"
    );
    for (label, times) in &series {
        println!(
            "{label:<28} {:>10.2?} {:>10.2?} {:>10.2?} {:>10.2?}",
            percentile(times, 0.25),
            percentile(times, 0.50),
            percentile(times, 0.90),
            percentile(times, 1.0),
        );
    }
    println!("\nexpected shape (paper): Dev/Advertiser fastest, then A/B Testing,");
    println!("then Interactive Analytics, with Batch ETL slowest by a wide margin.");
    println!();
    print_cache_summary(&fixture.cluster);
}
