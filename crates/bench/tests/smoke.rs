//! Tier-1 smoke coverage for the benchmark suite: every binary with a
//! `--smoke` mode runs end to end in its own scratch directory, its
//! stdout markers are checked, and the `BENCH_<name>.json` it emits is
//! validated against the required-keys report schema
//! (`presto_bench::report`) — plus tiny fig4/fig6-style join and
//! aggregation queries, so `cargo test -q` exercises the measured code
//! paths without release-build timing runs.
#![allow(clippy::unwrap_used)]

use presto_bench::kernels::{
    baseline_group_by, baseline_join, flat_group_by, flat_join, make_pages, KeyEncoding,
};
use presto_cluster::{Cluster, ClusterConfig};
use presto_common::{Session, Value};
use presto_connector::{CatalogManager, Connector};
use presto_connectors::MemoryConnector;
use presto_workload::TpchGenerator;
use std::sync::Arc;

/// Run one benchmark binary in `--smoke` mode inside a fresh scratch
/// directory, assert the given stdout markers, and validate the
/// `BENCH_<name>.json` it emits against the report schema.
fn run_smoke_and_validate(exe: &str, name: &str, markers: &[&str]) {
    let dir = std::env::temp_dir().join(format!("presto-smoke-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let out = std::process::Command::new(exe)
        .arg("--smoke")
        .current_dir(&dir)
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
    let path = dir.join(format!("BENCH_{name}.json"));
    let report = presto_bench::report::validate_file(&path)
        .unwrap_or_else(|e| panic!("{name} emitted an invalid report: {e}"));
    assert_eq!(report.field_str("name").unwrap(), name);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hash_kernels_smoke_mode_runs() {
    // Asserts internally that baseline and flat kernels agree on every
    // encoding.
    run_smoke_and_validate(
        env!("CARGO_BIN_EXE_hash_kernels"),
        "hash_kernels",
        &["join build+probe", "group-by"],
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
fn shuffle_bench_smoke_mode_runs() {
    // The §IV-E2 shuffle data-plane benchmark: asserts internally that the
    // shatter baseline and the coalescing writer agree on rows and key
    // checksums, that coalesced pages reach at least half the target row
    // count, and that both fetch clients deliver every row.
    run_smoke_and_validate(
        env!("CARGO_BIN_EXE_shuffle_bench"),
        "shuffle",
        &["hash-partitioned sink", "exchange fetch"],
    );
}

#[test]
fn telemetry_bench_smoke_mode_runs() {
    // The §VII telemetry benchmark: asserts internally that the
    // per-operator stats hooks cost under 3% on the group-by pipeline,
    // that metrics snapshots round-trip through JSON, that the Chrome
    // trace export parses with events present, and measures the per-query
    // history/histogram bookkeeping cost.
    run_smoke_and_validate(
        env!("CARGO_BIN_EXE_telemetry_bench"),
        "telemetry",
        &[
            "stats overhead",
            "trace timeline",
            "per-query bookkeeping",
            "telemetry_bench: ok",
        ],
    );
}

#[test]
fn dynfilter_bench_smoke_mode_runs() {
    // The runtime dynamic-filtering benchmark: asserts internally that the
    // filtered and unfiltered runs return identical rows, that at least
    // one filter is published, and that split/stripe/row pruning reduced
    // scan bytes.
    run_smoke_and_validate(
        env!("CARGO_BIN_EXE_dynfilter_bench"),
        "dynfilter",
        &[
            "star-schema join",
            "zero diffs",
            "scan-bytes reduction",
            "dynfilter_bench: ok",
        ],
    );
}

#[test]
fn fusion_bench_smoke_mode_runs() {
    // The pipeline-fusion benchmark: asserts internally that fused and
    // discrete pipelines return byte-identical rows on both query shapes
    // and that the fused telemetry counters accounted for every scanned
    // row.
    run_smoke_and_validate(
        env!("CARGO_BIN_EXE_fusion_bench"),
        "fusion",
        &["zero diffs", "fused vs discrete", "fusion_bench: ok"],
    );
}

fn smoke_cluster() -> Cluster {
    let mem = MemoryConnector::new();
    TpchGenerator::new(0.001).load_memory(&mem);
    let mut catalogs = CatalogManager::new();
    catalogs.register("memory", mem as Arc<dyn Connector>);
    Cluster::start(ClusterConfig::test(), catalogs).unwrap()
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

#[test]
fn chaos_bench_smoke_mode_runs() {
    // The §IV-G fault-injection benchmark: asserts internally that a hung
    // worker is detected within the liveness timeout, that crash teardown
    // leaves zero live tasks and zero pool bytes, and that every query
    // under the seeded chaos storm terminates with a fault-shaped outcome.
    run_smoke_and_validate(
        env!("CARGO_BIN_EXE_chaos_bench"),
        "chaos",
        &[
            "detection",
            "teardown/retry",
            "chaos run",
            "chaos_bench: ok",
        ],
    );
}

#[test]
fn systables_bench_smoke_mode_runs() {
    // The §VII system-catalog benchmark: asserts internally that the
    // `system.runtime` tables retain the whole workload, that the
    // queries ⋈ operators self-join covers every retained operator row,
    // and measures the snapshot-to-page scan cost.
    run_smoke_and_validate(
        env!("CARGO_BIN_EXE_systables_bench"),
        "systables",
        &[
            "system-table scan",
            "system-⋈-system join",
            "systables_bench: ok",
        ],
    );
}

#[test]
fn spill_bench_smoke_mode_runs() {
    // The §IV-F2 graceful-degradation benchmark: asserts internally that
    // a join+aggregation under an 8 KB memory pool completes by spilling
    // with results byte-identical to the unconstrained run, and that no
    // spill run file outlives the query.
    run_smoke_and_validate(
        env!("CARGO_BIN_EXE_spill_bench"),
        "spill",
        &["identical=true", "slowdown", "spill_bench: ok"],
    );
}
