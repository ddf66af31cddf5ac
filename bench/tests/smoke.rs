//! Runs `bench --smoke` and checks that the binary prints exactly the
//! metrics `BENCHMARK.json` lists; then checks `bench compare`.

use presto::common::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

const BENCH: &str = env!("CARGO_BIN_EXE_bench");

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(doc: &Json, list: &str) -> BTreeMap<String, String> {
    doc.field_arr(list)
        .expect(list)
        .iter()
        .map(|m| {
            (
                m.field_str("name").expect("name").to_string(),
                m.field_str("unit").expect("unit").to_string(),
            )
        })
        .collect()
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn smoke_prints_exactly_the_declared_metrics() {
    let started = std::time::Instant::now();
    let out = Command::new(BENCH)
        .arg("--smoke")
        .output()
        .expect("run bench --smoke");
    assert!(
        out.status.success(),
        "bench --smoke failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        started.elapsed().as_secs() < 15,
        "--smoke took {:?}; it must stay under 15 s",
        started.elapsed()
    );

    let doc = benchmark_json();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    assert!(end_to_end.len() <= 16 && per_layer.len() <= 128);
    assert_eq!(end_to_end.get("setup_s").map(String::as_str), Some("s"));
    let workloads: BTreeSet<String> = doc
        .field_arr("workloads")
        .expect("workloads")
        .iter()
        .map(|w| w.field_str("name").expect("name").to_string())
        .collect();

    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut seen: BTreeSet<(String, i64)> = BTreeSet::new();
    for line in stdout.lines() {
        let line = Json::parse(line).unwrap_or_else(|e| panic!("not JSON: {line}: {e}"));
        let workload = line.field_str("workload").expect("workload").to_string();
        let trace = line.field_i64("trace").expect("trace");
        let result = line.field("result").expect("result");
        let Json::Obj(keys) = result else {
            panic!("result is not an object")
        };
        assert_eq!(
            keys.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
        assert_eq!(result.field_i64("failed").expect("failed"), 0, "{workload}");
        assert!(result.field_i64("attempted").expect("attempted") >= 1);

        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("metrics is not an object")
        };
        let want = if trace == 1 { &per_layer } else { &end_to_end };
        assert_eq!(
            metrics.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>(),
            "{workload} --trace {trace} prints other names than BENCHMARK.json lists"
        );
        for (name, metric) in metrics {
            assert!(is_name(name), "bad metric name {name}");
            let unit = metric.field_str("unit").expect("unit");
            assert!(is_unit(unit), "{name}: bad unit {unit:?}");
            assert_eq!(unit, want[name], "{name}: unit differs from BENCHMARK.json");
            let value = metric.field_f64("value").expect("value");
            assert!(value.is_finite(), "{name} is not finite");
            if trace == 0 {
                assert!(
                    value > 0.0,
                    "{workload}: end-to-end metric {name} must never be 0"
                );
            }
        }
        seen.insert((workload, trace));
    }
    let expected: BTreeSet<(String, i64)> = workloads
        .iter()
        .flat_map(|w| [(w.clone(), 0), (w.clone(), 1)])
        .collect();
    assert_eq!(seen, expected, "one line per workload and pass");
}

/// A set of reports as `--all` writes them: for every workload, one timed
/// report per entry of `throughputs` (every other end-to-end metric reads
/// 10) and as many traced ones (every per-layer metric reads 2.5), each
/// timed one with `failed` failed ops.
fn write_set(dir: &Path, name: &str, throughputs: &[f64], failed: i64) -> PathBuf {
    let doc = benchmark_json();
    let mut reports = Vec::new();
    for workload in doc.field_arr("workloads").expect("workloads") {
        let workload = workload.field_str("name").expect("name");
        for throughput in throughputs {
            let metrics: Vec<String> = declared(&doc, "end_to_end")
                .keys()
                .map(|m| match m.as_str() {
                    "throughput_qps" => format!("\"{m}\":{throughput}"),
                    _ => format!("\"{m}\":10.0"),
                })
                .collect();
            reports.push(format!(
                "{{\"workload\":\"{workload}\",\"trace\":0,\"attempted\":50,\"failed\":{failed},\"metrics\":{{{}}}}}",
                metrics.join(",")
            ));
            let counts: Vec<String> = declared(&doc, "per_layer")
                .keys()
                .map(|m| format!("\"{m}\":2.5"))
                .collect();
            reports.push(format!(
                "{{\"workload\":\"{workload}\",\"trace\":1,\"attempted\":8,\"failed\":0,\"metrics\":{{{}}}}}",
                counts.join(",")
            ));
        }
    }
    let path = dir.join(name);
    std::fs::write(&path, format!("[{}]", reports.join(","))).expect("write report set");
    path
}

#[test]
fn compare_tells_ok_from_regressed_from_unresolved() {
    let dir = manifest_dir()
        .join("out")
        .join(format!("compare-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let base = write_set(&dir, "a.json", &[100.0, 101.0, 99.0, 100.5], 0);
    // (set B, exit code, row to read, its verdict)
    let cases = [
        (
            write_set(&dir, "same.json", &[99.5, 100.0, 101.5, 100.0], 0),
            0,
            "throughput_qps",
            "ok",
        ),
        (
            write_set(&dir, "slower.json", &[70.0, 70.5, 69.5, 70.0], 0),
            2,
            "throughput_qps",
            "regressed",
        ),
        (
            write_set(&dir, "noisy.json", &[60.0, 100.0, 140.0, 90.0], 0),
            2,
            "throughput_qps",
            "unresolved",
        ),
        (
            write_set(&dir, "two-runs.json", &[100.0, 100.0], 0),
            2,
            "throughput_qps",
            "unresolved",
        ),
        (
            write_set(&dir, "no-runs.json", &[], 0),
            2,
            "setup_s",
            "unresolved",
        ),
        (
            write_set(&dir, "failing.json", &[99.5, 100.0, 101.5, 100.0], 1),
            2,
            "failed ops",
            "regressed",
        ),
    ];
    for (b, code, row, verdict) in cases {
        let out = Command::new(BENCH)
            .arg("compare")
            .args([&base, &b])
            .output()
            .expect("run bench compare");
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        let line = text
            .lines()
            .find(|l| l.starts_with("star_join") && l.contains(row))
            .unwrap_or_else(|| panic!("no {row} row: {text}"));
        assert_eq!(
            (out.status.code(), line.split_whitespace().last()),
            (Some(code), Some(verdict)),
            "{}: {text}",
            b.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The committed baselines are two sets of runs of one commit: the
/// benchmark's own A/A check must pass on them.
#[test]
fn baselines_agree_with_each_other() {
    let out = Command::new(BENCH)
        .arg("compare")
        .args(["seed1.json", "seed2.json"].map(|f| manifest_dir().join("baselines").join(f)))
        .output()
        .expect("run bench compare");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
