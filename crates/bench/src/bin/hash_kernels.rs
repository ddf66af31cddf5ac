//! §V-E hash-kernel benchmark: flat-table join build+probe and group-by
//! against the previous HashMap-based kernels, across input encodings.
//!
//! Reports rows/sec per kernel and the flat/baseline speedup. Expected
//! shape: the flat kernels ≥ 2× the baselines on flat input, with
//! dictionary input faster than flat input (entry-level match caching) and
//! RLE input fastest (one probe per page).
//!
//! ```sh
//! cargo run --release -p presto-bench --bin hash_kernels [-- --smoke]
//! ```

use presto_bench::kernels::{
    baseline_group_by, baseline_join, flat_group_by, flat_join, make_pages, KernelRun, KeyEncoding,
};

fn mrps(r: &KernelRun) -> String {
    format!("{:8.2} Mrows/s", r.rows_per_sec() / 1e6)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Smoke mode runs the same paths at trivial sizes so the suite can be
    // exercised from `cargo test -q` (tier-1) without release-build timing.
    let (build_rows, probe_rows, group_rows, reps) = if smoke {
        (2_000, 4_000, 4_000, 1)
    } else {
        (500_000, 2_000_000, 4_000_000, 3)
    };
    // Join keys are near-unique on the build side (~1 match per probe row)
    // so the measurement is the hash build + probe, not output
    // materialization, which costs the same in both kernels.
    let join_cardinality = build_rows;
    // High-cardinality grouping: the table no longer fits in cache, so the
    // kernels are bound by layout locality rather than per-row arithmetic.
    let group_cardinality = 1_000_000.min(group_rows / 4).max(16);
    println!(
        "hash_kernels: build {build_rows} probe {probe_rows} group {group_rows} rows, \
         join cardinality {join_cardinality}, group cardinality {group_cardinality}{}",
        if smoke { " (smoke)" } else { "" }
    );

    println!("\njoin build+probe (inner, bigint key):");
    for encoding in [KeyEncoding::Flat, KeyEncoding::Dictionary, KeyEncoding::Rle] {
        let build = make_pages(build_rows, join_cardinality, KeyEncoding::Flat);
        let probe = make_pages(probe_rows, join_cardinality, encoding);
        let mut base_best: Option<KernelRun> = None;
        let mut flat_best: Option<KernelRun> = None;
        for _ in 0..reps {
            let b = baseline_join(&build, &probe);
            let f = flat_join(&build, &probe);
            assert_eq!(b.output_rows, f.output_rows, "kernels must agree");
            if base_best.as_ref().is_none_or(|x| b.elapsed < x.elapsed) {
                base_best = Some(b);
            }
            if flat_best.as_ref().is_none_or(|x| f.elapsed < x.elapsed) {
                flat_best = Some(f);
            }
        }
        let (b, f) = (
            base_best.expect("baseline run"),
            flat_best.expect("flat run"),
        );
        let speedup = b.elapsed.as_secs_f64() / f.elapsed.as_secs_f64().max(1e-9);
        println!(
            "  {:<5} baseline {}  flat {}  speedup {:4.2}x  ({} out rows)",
            encoding.label(),
            mrps(&b),
            mrps(&f),
            speedup,
            f.output_rows,
        );
    }

    println!("\ngroup-by (bigint key):");
    for encoding in [KeyEncoding::Flat, KeyEncoding::Dictionary, KeyEncoding::Rle] {
        let pages = make_pages(group_rows, group_cardinality, encoding);
        let mut base_best: Option<KernelRun> = None;
        let mut flat_best: Option<KernelRun> = None;
        for _ in 0..reps {
            let b = baseline_group_by(&pages);
            let f = flat_group_by(&pages);
            assert_eq!(b.output_rows, f.output_rows, "group counts must agree");
            if base_best.as_ref().is_none_or(|x| b.elapsed < x.elapsed) {
                base_best = Some(b);
            }
            if flat_best.as_ref().is_none_or(|x| f.elapsed < x.elapsed) {
                flat_best = Some(f);
            }
        }
        let (b, f) = (
            base_best.expect("baseline run"),
            flat_best.expect("flat run"),
        );
        let speedup = b.elapsed.as_secs_f64() / f.elapsed.as_secs_f64().max(1e-9);
        println!(
            "  {:<5} baseline {}  flat {}  speedup {:4.2}x  ({} groups)",
            encoding.label(),
            mrps(&b),
            mrps(&f),
            speedup,
            f.output_rows,
        );
    }

    println!("\nhash_kernels: ok");
}
