//! The kit's own guarantees: a test cluster that drops with a query still
//! running fails its test, a test that fails on its own keeps its own
//! panic, and no integration test builds a cluster around the kit.

#![allow(clippy::unwrap_used)]

use presto_cluster::ClusterConfig;
use presto_common::{DataType, Schema, Session, Value};
use presto_testkit::{memory_catalog, TestCluster};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A 30 000 × 30 000 cross join with no match: minutes of work in any
/// build, so it is still running when the cluster drops.
const SLOW_JOIN: &str = "SELECT COUNT(*) FROM t a CROSS JOIN t b WHERE a.k + b.k < 0";

/// A cluster running [`SLOW_JOIN`].
fn cluster_mid_query() -> TestCluster {
    let schema = Schema::of(&[("k", DataType::Bigint)]);
    let rows: Vec<Vec<Value>> = (0..30_000).map(|i| vec![Value::Bigint(i)]).collect();
    // Small pages keep each probe page's pairs small.
    let (catalogs, _) = memory_catalog().table("t", schema, &rows, 10).build();
    let c = TestCluster::start(ClusterConfig::test(), catalogs);
    drop(c.submit(SLOW_JOIN, Session::default()));
    let deadline = Instant::now() + Duration::from_secs(5);
    while c.worker_live_tasks().iter().sum::<usize>() == 0 {
        assert!(Instant::now() < deadline, "the join never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    c
}

#[test]
#[should_panic(expected = "not quiescent")]
fn dropping_a_cluster_mid_query_fails_the_test() {
    drop(cluster_mid_query());
}

#[test]
fn a_test_that_panics_keeps_its_own_panic() {
    let payload = std::panic::catch_unwind(|| {
        let _c = cluster_mid_query();
        panic!("the test's own failure");
    })
    .unwrap_err();
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"the test's own failure")
    );
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether `line` starts a `Cluster` itself (`Cluster::start` or
/// `Cluster::start_with_cache`) rather than through [`TestCluster`].
fn starts_a_bare_cluster(line: &str) -> bool {
    line.match_indices("Cluster::start").any(|(at, _)| {
        !(line[..at].chars().next_back()).is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

#[test]
fn integration_tests_build_clusters_only_through_the_kit() {
    assert!(starts_a_bare_cluster(
        "let c = Cluster::start(config, catalogs);"
    ));
    assert!(starts_a_bare_cluster(
        "presto::cluster::Cluster::start_with_cache("
    ));
    assert!(!starts_a_bare_cluster(
        "TestCluster::start(config, catalogs)"
    ));

    let kit = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = kit.join("../..");
    let mut files = Vec::new();
    rust_files(&root.join("tests"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        if !krate.ends_with("testkit") {
            rust_files(&krate.join("tests"), &mut files);
        }
    }
    assert!(files.len() >= 20, "found only {files:?}");
    let mut bare = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        for (n, line) in text.lines().enumerate() {
            if starts_a_bare_cluster(line) {
                bare.push(format!("{}:{}", file.display(), n + 1));
            }
        }
    }
    assert!(
        bare.is_empty(),
        "build test clusters with presto_testkit::TestCluster: {bare:?}"
    );
}
