//! Tier-1 smoke coverage for the benchmark suite: the `hash_kernels` and
//! `fusion_bench` binaries run end to end in `--smoke` mode and their
//! stdout markers are checked, the kernel library's two paths agree at
//! smoke sizes, and tiny fig4/fig6-style join and aggregation queries run,
//! so `cargo test -q` exercises the measured code paths without
//! release-build timing runs.
#![allow(clippy::unwrap_used)]

use presto_bench::kernels::{
    baseline_group_by, baseline_join, flat_group_by, flat_join, make_pages, KeyEncoding,
};
use presto_cluster::ClusterConfig;
use presto_common::{Session, Value};
use presto_testkit::{tpch_catalog, TestCluster};

/// Run one benchmark binary in `--smoke` mode and assert that it exits
/// cleanly and prints the given stdout markers.
fn run_smoke(exe: &str, name: &str, markers: &[&str]) {
    let out = std::process::Command::new(exe)
        .arg("--smoke")
        .output()
        .unwrap_or_else(|e| panic!("run {name} --smoke: {e}"));
    assert!(
        out.status.success(),
        "{name} --smoke failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for marker in markers {
        assert!(
            stdout.contains(marker),
            "{name}: missing \"{marker}\" in:\n{stdout}"
        );
    }
}

#[test]
fn hash_kernels_smoke_mode_runs() {
    // Asserts internally that baseline and flat kernels agree on every
    // encoding.
    run_smoke(
        env!("CARGO_BIN_EXE_hash_kernels"),
        "hash_kernels",
        &["join build+probe", "group-by", "hash_kernels: ok"],
    );
}

#[test]
fn kernel_library_paths_agree_at_smoke_sizes() {
    for encoding in [KeyEncoding::Flat, KeyEncoding::Dictionary, KeyEncoding::Rle] {
        let build = make_pages(1_500, 64, KeyEncoding::Flat);
        let probe = make_pages(2_500, 64, encoding);
        let b = baseline_join(&build, &probe);
        let f = flat_join(&build, &probe);
        assert_eq!(b.output_rows, f.output_rows, "{encoding:?} join");
        assert_eq!(
            baseline_group_by(&probe).output_rows,
            flat_group_by(&probe).output_rows,
            "{encoding:?} group-by"
        );
    }
}

#[test]
fn fusion_bench_smoke_mode_runs() {
    // The pipeline-fusion benchmark: asserts internally that fused and
    // discrete pipelines return byte-identical rows on both query shapes
    // and that the fused telemetry counters accounted for every scanned
    // row.
    run_smoke(
        env!("CARGO_BIN_EXE_fusion_bench"),
        "fusion_bench",
        &["zero diffs", "fused vs discrete", "fusion_bench: ok"],
    );
}

fn smoke_cluster() -> TestCluster {
    TestCluster::start(ClusterConfig::test(), tpch_catalog(0.001))
}

#[test]
fn fig4_style_join_query_runs_on_new_kernels() {
    // The fig4/fig6 benchmarks' core shape: a distributed hash join whose
    // build side goes through the partitioned flat-table path.
    let cluster = smoke_cluster();
    let out = cluster
        .execute(
            "SELECT COUNT(*), SUM(l.extendedprice) \
             FROM orders o, lineitem l WHERE o.orderkey = l.orderkey",
        )
        .unwrap();
    assert!(matches!(out.rows()[0][0], Value::Bigint(n) if n > 0));
}

#[test]
fn fig6_style_aggregation_runs_on_flat_group_by() {
    let cluster = smoke_cluster();
    let out = cluster
        .execute_with_session(
            "SELECT orderkey, COUNT(*), SUM(extendedprice) \
             FROM lineitem GROUP BY orderkey",
            &Session::default(),
        )
        .unwrap();
    assert!(out.rows().len() > 1, "multiple groups out");
}
