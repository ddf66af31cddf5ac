//! `bench`: the end-to-end perf ledger of presto-rs. See `README.md`.
//!
//! ```text
//! bench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! bench --all [--seed <n>] [--seconds <s>]
//! bench --smoke [--seed <n>]
//! bench compare <A.json> <B.json>
//! ```

mod check;
mod fixture;
mod layers;
mod report;
mod run;
mod spec;
mod workloads;

use fixture::{out_dir, FULL, SMOKE};
use presto::common::json::Json;
use report::RunRecord;
use run::Prepared;
use std::path::Path;
use std::process::ExitCode;
use workloads::{Workload, ALL_WORKLOADS};

/// `--seconds` of the smoke pass: at the tiny scale its op count runs in a
/// fraction of this, yet long enough to span several 10 ms CPU ticks, so
/// `cpu_ms_per_query` never reads 0.
const SMOKE_SECONDS: f64 = 1.0;

const USAGE: &str = "usage: bench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\
                     \x20      bench --all [--seed <n>] [--seconds <s>]\n\
                     \x20      bench --smoke [--seed <n>]\n\
                     \x20      bench compare <A.json> <B.json>";

/// One workload, one pass, in this process.
fn run_one(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<RunRecord, String> {
    let record = if trace {
        layers::traced_pass(&Prepared::new(workload, seed, &FULL, 1)?, &FULL)?
    } else {
        let prepared = Prepared::new(workload, seed, &FULL, workload.setup_reps())?;
        run::timed_pass(&prepared, seconds)?
    };
    record.write(seed, seconds, &FULL)?;
    Ok(record)
}

/// All five workloads at tiny counts, both passes, in this process. Each
/// line is `{"workload", "trace", "result"}`; the package tests read them.
fn smoke(seed: u64) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in ALL_WORKLOADS {
        let prepared = Prepared::new(workload, seed, &SMOKE, 2)?;
        let timed = run::timed_pass(&prepared, SMOKE_SECONDS)?;
        let traced = layers::traced_pass(&prepared, &SMOKE)?;
        for record in [timed, traced] {
            record.write(seed, SMOKE_SECONDS, &SMOKE)?;
            all_correct &= record.failed == 0;
            println!(
                "{{\"workload\":\"{}\",\"trace\":{},\"result\":{}}}",
                workload.name(),
                record.trace as u8,
                record.result_line()
            );
        }
    }
    Ok(all_correct)
}

/// Every workload and pass, each in its own process, added to
/// `out/ledger.seed<n>.json`: the form `bench compare` and the baselines
/// use. The ledger keeps the runs it already holds, so calling this three
/// times makes the three runs a comparison needs.
fn all(seed: u64, seconds: f64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = out_dir().join(format!("ledger.seed{seed}.json"));
    let mut reports = match std::fs::read_to_string(&path) {
        Ok(text) => match Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))? {
            Json::Arr(runs) => runs,
            _ => return Err(format!("{}: not an array of reports", path.display())),
        },
        Err(_) => Vec::new(),
    };
    let held = reports.len();
    for workload in ALL_WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", trace])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .status()
                .map_err(|e| e.to_string())?;
            if !status.success() {
                return Err(format!("{} --trace {trace}: {status}", workload.name()));
            }
            let suffix = if trace == "1" { "layers.json" } else { "json" };
            let report = out_dir().join(format!("{}.{suffix}", workload.name()));
            let text = std::fs::read_to_string(&report)
                .map_err(|e| format!("{}: {e}", report.display()))?;
            reports.push(Json::parse(&text).map_err(|e| e.to_string())?);
        }
    }
    let all_correct = reports[held..]
        .iter()
        .all(|r| r.get("failed").and_then(Json::as_i64) == Some(0));
    let lines: Vec<String> = reports.iter().map(Json::to_string).collect();
    std::fs::write(&path, format!("[\n{}\n]\n", lines.join(",\n"))).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    all: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        smoke: false,
        all: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--all" => parsed.all = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main_inner(args: &[String]) -> Result<bool, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err(USAGE.into());
        };
        return report::compare(Path::new(a), Path::new(b));
    }
    let parsed = parse_args(args)?;
    if parsed.smoke {
        return smoke(parsed.seed);
    }
    if parsed.all {
        return all(parsed.seed, parsed.seconds);
    }
    let name = parsed.workload.ok_or(USAGE)?;
    let workload = Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?;
    let record = run_one(workload, parsed.seed, parsed.seconds, parsed.trace)?;
    // Last line of stdout: the result the driver reads. Failed ops are
    // reported in it, not through the exit code.
    println!("{}", record.result_line());
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
