//! Run records: the result line the driver reads, the report files under
//! `bench/out/`, and `bench compare`.

use crate::fixture::{self, out_dir, Size};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::workloads::Workload;
use presto::common::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

pub struct RunRecord {
    pub workload: Workload,
    pub trace: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: BTreeMap<&'static str, f64>,
    pub clients: usize,
    pub setup_reps: usize,
    pub wall_s: f64,
    /// `(template, samples, median latency ms)`.
    pub templates: Vec<(&'static str, usize, f64)>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .copied()
        .chain(PER_LAYER.iter().map(|(n, unit, _)| (*n, *unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn object(entries: impl IntoIterator<Item = (String, Json)>) -> Json {
    Json::Obj(entries.into_iter().collect())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

impl RunRecord {
    /// The line the driver parses: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(name, value)| {
            (
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit_of(name).into())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", object(metrics)),
        ])
        .to_string()
    }

    /// The full report: the result plus everything needed to judge
    /// whether two reports are comparable.
    pub fn report(&self, seed: u64, seconds: f64, size: &Size) -> Json {
        let exact: Vec<Json> = PER_LAYER
            .iter()
            .filter(|(_, _, exact_on)| self.trace && exact_on.contains(&self.workload.name()))
            .map(|(name, _, _)| Json::Str((*name).into()))
            .collect();
        let templates = self.templates.iter().map(|(name, samples, p50)| {
            (
                name.to_string(),
                Json::obj([
                    ("samples", Json::Int(*samples as i64)),
                    ("p50_ms", Json::Num(*p50)),
                ]),
            )
        });
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| (name.to_string(), Json::Num(*value)));
        let units = self
            .metrics
            .keys()
            .map(|name| (name.to_string(), Json::Str(unit_of(name).into())));
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        Json::obj([
            ("workload", Json::Str(self.workload.name().into())),
            ("trace", Json::Int(self.trace as i64)),
            ("seed", Json::Int(seed as i64)),
            ("seconds", Json::Num(seconds)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("clients", Json::Int(self.clients as i64)),
            ("pass_wall_s", Json::Num(self.wall_s)),
            ("metrics", object(metrics)),
            ("units", object(units)),
            ("exact", Json::Arr(exact)),
            ("templates", object(templates)),
            (
                "environment",
                Json::obj([
                    ("available_parallelism", Json::Int(parallelism as i64)),
                    ("workers", Json::Int(fixture::WORKERS as i64)),
                    (
                        "threads_per_worker",
                        Json::Int(fixture::THREADS_PER_WORKER as i64),
                    ),
                    (
                        "leaf_parallelism",
                        Json::Int(fixture::LEAF_PARALLELISM as i64),
                    ),
                    ("scale_hive", Json::Num(size.scale_hive)),
                    ("scale_etl", Json::Num(size.scale_etl)),
                    ("scale_spill", Json::Num(size.scale_spill)),
                    ("ads_rows", Json::Int(size.ads_rows as i64)),
                    ("spill_pool_bytes", Json::Int(size.spill_pool_bytes as i64)),
                    ("setup_reps", Json::Int(self.setup_reps as i64)),
                    (
                        "trace_ops",
                        Json::Int((self.workload.trace_ops() / size.trace_ops_divisor) as i64),
                    ),
                    (
                        "git_commit",
                        Json::Str(command_line("git", &["rev-parse", "HEAD"])),
                    ),
                    ("rustc", Json::Str(command_line("rustc", &["-V"]))),
                ]),
            ),
        ])
    }

    /// Write the report to `bench/out/<workload>.json` (timed pass) or
    /// `bench/out/<workload>.layers.json` (traced pass).
    pub fn write(&self, seed: u64, seconds: f64, size: &Size) -> Result<(), String> {
        let suffix = if self.trace { "layers.json" } else { "json" };
        let path = out_dir().join(format!("{}{}.{suffix}", size.label, self.workload.name()));
        std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
        std::fs::write(&path, self.report(seed, seconds, size).to_string() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

// ---- bench compare ----

/// Fewest runs of a (workload, pass) in a set for its row to be judged.
const MIN_RUNS: usize = 3;

/// Reports in a file: one report object or an array of them.
fn load_reports(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    match Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))? {
        Json::Arr(items) => Ok(items),
        one => Ok(vec![one]),
    }
}

/// `(name, lower is better, bound)` of every end-to-end metric, from
/// `BENCHMARK.json`: the bounds have one home.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = load_reports(&path)?.remove(0);
    let err = |e: presto::common::PrestoError| format!("{}: {e}", path.display());
    doc.field_arr("end_to_end")
        .map_err(err)?
        .iter()
        .map(|m| {
            Ok((
                m.field_str("name").map_err(err)?.to_string(),
                m.field_str("better").map_err(err)? == "lower",
                m.field_f64("bound").map_err(err)?,
            ))
        })
        .collect()
}

/// The runs of one workload and pass in a set.
fn runs<'a>(reports: &'a [Json], workload: &str, trace: i64) -> Vec<&'a Json> {
    reports
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Json::as_i64) == Some(trace))
        .collect()
}

fn metric(runs: &[&Json], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.as_f64())
        .collect()
}

fn sum(runs: &[&Json], field: &str) -> i64 {
    runs.iter()
        .filter_map(|r| r.get(field)?.as_i64())
        .sum::<i64>()
}

/// Quartile distance as a share of the median (Python's
/// `statistics.quantiles(values, n=4)`, exclusive method); the range when
/// there are too few runs for quartiles.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = median(v.clone());
    if v.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let quantile = |k: usize| {
        let pos = (k * (v.len() + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let iqr = if v.len() >= 4 {
        quantile(3) - quantile(1)
    } else {
        v[v.len() - 1] - v[0]
    };
    iqr.abs() / m.abs()
}

/// Per workload: one row per end-to-end metric (both medians, the ratio
/// with its base, the bound, the wider spread), one for failed ops and one
/// for the counts that must repeat exactly within a set. A row is
/// `unresolved` when either set has fewer than `MIN_RUNS` runs of it, a
/// spread wider than the bound, or an exact count that does not repeat.
/// There is no combined score. Returns whether every row is `ok`.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (base, change) = (load_reports(a)?, load_reports(b)?);
    let bounds = bounds()?;
    println!(
        "{:<13} {:<17} {:>12} {:>12} {:>16} {:>6} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A (base A)", "bound", "spread"
    );
    let mut all_ok = true;
    for workload in crate::workloads::ALL_WORKLOADS {
        let name = workload.name();
        let (timed_a, timed_b) = (runs(&base, name, 0), runs(&change, name, 0));
        let enough = timed_a.len() >= MIN_RUNS && timed_b.len() >= MIN_RUNS;
        for (metric_name, lower_is_better, bound) in &bounds {
            let (va, vb) = (metric(&timed_a, metric_name), metric(&timed_b, metric_name));
            let (ma, mb) = (median(va.clone()), median(vb.clone()));
            let ratio = mb / ma;
            let worse_by = if *lower_is_better {
                ratio - 1.0
            } else {
                1.0 - ratio
            };
            let widest = spread(&va).max(spread(&vb));
            let verdict = if va.len() < MIN_RUNS || vb.len() < MIN_RUNS || widest > *bound {
                "unresolved"
            } else if worse_by > *bound {
                "regressed"
            } else {
                "ok"
            };
            all_ok &= verdict == "ok";
            println!(
                "{name:<13} {metric_name:<17} {ma:>12.4} {mb:>12.4} {ratio:>9.4} of {ma:<8.4} {:>5.0}% {:>6.1}%  {verdict}",
                bound * 100.0,
                widest * 100.0
            );
        }

        // Any failed op in B is a regression, whatever A did.
        let (traced_a, traced_b) = (runs(&base, name, 1), runs(&change, name, 1));
        let both = |x: &[&Json], y: &[&Json], field| sum(x, field) + sum(y, field);
        let failed_b = both(&timed_b, &traced_b, "failed");
        let verdict = match (enough, failed_b) {
            (false, _) => "unresolved",
            (true, 0) => "ok",
            _ => "regressed",
        };
        all_ok &= verdict == "ok";
        println!(
            "{name:<13} {:<17} {:>6} of {:<7} {:>4} of {:<7}  {verdict}",
            "failed ops",
            both(&timed_a, &traced_a, "failed"),
            both(&timed_a, &traced_a, "attempted"),
            failed_b,
            both(&timed_b, &traced_b, "attempted"),
        );

        // Counts flagged `exact` must read the same in every traced run of
        // a set; a change may move them between the sets, and that is
        // listed, not judged.
        let exact: Vec<&str> = PER_LAYER
            .iter()
            .filter(|(_, _, exact_on)| exact_on.contains(&name))
            .map(|(count, _, _)| *count)
            .collect();
        let repeats = |set: &[&Json], count: &str| {
            let v = metric(set, count);
            v.len() == set.len() && v.iter().all(|x| *x == v[0])
        };
        let (mut wavering, mut moved) = (Vec::new(), Vec::new());
        for count in &exact {
            if !repeats(&traced_a, count) || !repeats(&traced_b, count) {
                wavering.push(*count);
            } else if metric(&traced_a, count).first() != metric(&traced_b, count).first() {
                moved.push(*count);
            }
        }
        let enough = traced_a.len() >= MIN_RUNS && traced_b.len() >= MIN_RUNS;
        let verdict = if enough && wavering.is_empty() {
            "ok"
        } else {
            "unresolved"
        };
        all_ok &= verdict == "ok";
        println!(
            "{name:<13} {:<17} {} of {} repeat in {}+{} traced runs; not repeating: [{}]; differ between A and B: [{}]  {verdict}",
            "exact counts",
            exact.len() - wavering.len(),
            exact.len(),
            traced_a.len(),
            traced_b.len(),
            wavering.join(" "),
            moved.join(" "),
        );
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_pythons_quartile_distance_over_the_median() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 11, 12, 13], n=4) == [10.25, 11.5, 12.75]
        assert!((spread(&[13.0, 10.0, 12.0, 11.0]) - 2.5 / 11.5).abs() < 1e-12);
        // Too few runs for quartiles: the range.
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
