//! One workload, one process: set-up, oracle check and warm-up, then the
//! timed pass (tracing off) or the traced pass, then the quiescence check.

use crate::check::{same_rows, Fingerprint};
use crate::fixture::{check_fingerprint, Fixture, Oracle, SetupTimes, Size};
use crate::report::{median, RunRecord};
use crate::spec::END_TO_END;
use crate::workloads::{Op, Workload};
use presto::cluster::{QueryError, QueryResult};
use presto::common::{QueryId, Schema};
use presto::connector::ConnectorMetadata;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A fixture that passed the oracle check, ready for a pass.
pub struct Prepared {
    pub fixture: Fixture,
    pub ops: Vec<Op>,
    /// Oracle fingerprint per distinct `Op::select`.
    pub expected: HashMap<String, Fingerprint>,
    /// Median over the `setup_reps` set-ups made, phase by phase and in
    /// total.
    pub setup: SetupTimes,
    pub setup_reps: usize,
    pub verify_s: f64,
    next_target: AtomicUsize,
}

/// One op of a pass as it is sent: the statement, and for an INSERT the
/// target table made for it.
pub struct Call<'a> {
    /// Position in the pass.
    pub index: usize,
    pub op: &'a Op,
    pub sql: Cow<'a, str>,
    pub target: Option<String>,
}

/// What a client observed for one call.
pub struct Sample {
    /// `Call::index` of the call.
    pub call: usize,
    pub template: &'static str,
    pub latency: Duration,
    /// When the reply arrived.
    pub finished: Instant,
    pub ok: bool,
    /// The engine's id for the query, when it ran to completion.
    pub query: Option<QueryId>,
}

impl Prepared {
    /// Sets up `setup_reps` times (one set-up is too short to time
    /// steadily, so `setup_s` is the median of several) and keeps the last
    /// fixture.
    pub fn new(
        workload: Workload,
        seed: u64,
        size: &Size,
        setup_reps: usize,
    ) -> Result<Prepared, String> {
        let mut fixture = Fixture::build(workload, size)?;
        let mut all = vec![fixture.times];
        while all.len() < setup_reps {
            drop(fixture);
            fixture = Fixture::build(workload, size)?;
            all.push(fixture.times);
        }
        let phase = |f: fn(&SetupTimes) -> f64| median(all.iter().map(f).collect());
        let setup = SetupTimes {
            datagen_s: phase(|t| t.datagen_s),
            load_s: phase(|t| t.load_s),
            cluster_start_s: phase(|t| t.cluster_start_s),
            total_s: phase(|t| t.total_s),
        };

        let started = Instant::now();
        check_fingerprint(&fixture)?;
        let mut prepared = Prepared {
            ops: workload.cycle(seed),
            expected: HashMap::new(),
            setup,
            setup_reps: all.len(),
            verify_s: 0.0,
            next_target: AtomicUsize::new(0),
            fixture,
        };
        prepared.verify()?;
        prepared.verify_s = started.elapsed().as_secs_f64();
        Ok(prepared)
    }

    /// Run every distinct query once on the oracle and once on the
    /// fixture (which also warms caches), and compare sorted rows.
    fn verify(&mut self) -> Result<(), String> {
        let oracle = Oracle::build(std::mem::take(&mut self.fixture.tables))?;
        let mut expected = HashMap::new();
        for op in &self.ops {
            if expected.contains_key(&op.select) {
                continue;
            }
            let want = oracle
                .cluster
                .execute_with_session(&op.select, &oracle.session)
                .map_err(|e| format!("oracle: {e}: {}", op.select))?;
            let call = self.calls([op])?.remove(0);
            let got = self
                .fixture
                .cluster
                .execute_with_session(&call.sql, &self.fixture.session)
                .map_err(|e| format!("warm-up: {e}: {}", call.sql))?;
            let got = match &call.target {
                Some(table) => self.read_back(table)?,
                None => got,
            };
            same_rows(got.rows(), want.rows()).map_err(|e| format!("{e}: {}", call.sql))?;
            expected.insert(op.select.clone(), Fingerprint::of(&want));
        }
        self.expected = expected;
        Ok(())
    }

    /// The statements to send for `ops`. Every INSERT gets a fresh, empty
    /// target table, created here: harness work, done before a pass starts.
    pub fn calls<'a>(
        &self,
        ops: impl IntoIterator<Item = &'a Op>,
    ) -> Result<Vec<Call<'a>>, String> {
        ops.into_iter()
            .enumerate()
            .map(|(index, op)| {
                let Some(columns) = op.target else {
                    let sql = Cow::Borrowed(op.select.as_str());
                    return Ok(Call {
                        index,
                        op,
                        sql,
                        target: None,
                    });
                };
                let table = format!("etl_{}", self.next_target.fetch_add(1, Ordering::Relaxed));
                let hive = self
                    .fixture
                    .hive
                    .as_ref()
                    .ok_or("INSERT without a hive fixture")?;
                hive.create_table(&table, &Schema::of(columns))
                    .map_err(|e| e.to_string())?;
                Ok(Call {
                    index,
                    op,
                    sql: Cow::Owned(format!("INSERT INTO {table} {}", op.select)),
                    target: Some(table),
                })
            })
            .collect()
    }

    fn read_back(&self, table: &str) -> Result<QueryResult, String> {
        self.fixture
            .cluster
            .execute_with_session(&format!("SELECT * FROM {table}"), &self.fixture.session)
            .map_err(|e| format!("read-back of {table}: {e}"))
    }

    /// Execute one call as a client would and check what came back.
    pub fn execute(&self, call: &Call) -> Sample {
        let started = Instant::now();
        let result = self
            .fixture
            .cluster
            .execute_with_session(&call.sql, &self.fixture.session);
        self.check(call, result, started)
    }

    /// The sample for a call that began at `started` and has just returned
    /// `result`: `ok` when the result matches the oracle. An INSERT returns
    /// its row count; its rows are read back after the pass.
    pub fn check(
        &self,
        call: &Call,
        result: Result<QueryResult, QueryError>,
        started: Instant,
    ) -> Sample {
        let finished = Instant::now();
        let want = &self.expected[&call.op.select];
        let (query, failure) = match &result {
            Err(e) => (None, Some(e.to_string())),
            Ok(out) => {
                let ok = match call.target {
                    Some(_) => {
                        out.rows().first().and_then(|r| r[0].as_i64()) == Some(want.rows as i64)
                    }
                    None => Fingerprint::of(out).matches(want),
                };
                let differs = || "result differs from the oracle".to_string();
                (Some(out.query), (!ok).then(differs))
            }
        };
        if let Some(why) = &failure {
            eprintln!("failed op ({}): {why}: {}", call.op.template, call.sql);
        }
        Sample {
            call: call.index,
            template: call.op.template,
            latency: finished - started,
            finished,
            ok: failure.is_none(),
            query,
        }
    }

    /// Read back the target of every INSERT that reported success and
    /// count those that differ from the oracle's rows for the same SELECT.
    pub fn count_bad_targets(&self, calls: &[Call], samples: &[Sample]) -> Result<usize, String> {
        let mut bad = 0;
        for call in samples.iter().filter(|s| s.ok).map(|s| &calls[s.call]) {
            let Some(table) = &call.target else { continue };
            let want = &self.expected[&call.op.select];
            if !Fingerprint::of(&self.read_back(table)?).matches(want) {
                eprintln!("failed op: {table} read back differs: {}", call.sql);
                bad += 1;
            }
        }
        Ok(bad)
    }

    pub fn spilled_queries(&self) -> u64 {
        self.fixture
            .cluster
            .metrics_snapshot()
            .spill
            .queries_spilled
    }
}

/// What must be zero once a workload's queries have ended.
#[derive(Default, Debug)]
pub struct Quiescence {
    pub leaked_tasks: u64,
    pub leaked_pool_bytes: u64,
    pub spill_files_left: u64,
    pub running_or_queued: u64,
}

impl Quiescence {
    /// Drivers retire asynchronously after their query returns, so allow
    /// them a bounded moment before calling anything a leak.
    pub fn wait(fixture: &Fixture) -> Quiescence {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let q = Quiescence::read(fixture);
            if q.is_clean() || Instant::now() >= deadline {
                return q;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn read(fixture: &Fixture) -> Quiescence {
        let snapshot = fixture.cluster.metrics_snapshot();
        Quiescence {
            leaked_tasks: fixture.cluster.worker_live_tasks().iter().sum::<usize>() as u64,
            // `general_used` excludes the metadata cache's system bytes,
            // so the quiescent baseline is zero.
            leaked_pool_bytes: snapshot
                .workers
                .iter()
                .map(|w| (w.memory.general_used + w.memory.reserved_used).unsigned_abs())
                .sum(),
            spill_files_left: count_files(&fixture.spill_dir),
            running_or_queued: snapshot.queries.running + snapshot.queries.queued,
        }
    }

    pub fn is_clean(&self) -> bool {
        self.leaked_tasks + self.leaked_pool_bytes + self.spill_files_left + self.running_or_queued
            == 0
    }
}

fn count_files(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                count_files(&path)
            } else {
                1
            }
        })
        .sum()
}

/// User + system CPU of this process, from `/proc/self/stat` (fields 14
/// and 15, in clock ticks of 1/100 s on Linux).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The timed pass: `clients` closed-loop threads pull calls off the shared
/// sequence until its fixed count is done. Tracing is off.
///
/// The sandbox's CPU is shared and stalls for seconds at a time, so the
/// pass is cut into windows of about a second and each timing metric is
/// the median over windows of that window's value: a stall spoils the
/// windows it covers and leaves the result alone.
pub fn timed_pass(prepared: &Prepared, seconds: f64) -> Result<RunRecord, String> {
    let workload = prepared.fixture.workload;
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = workload.clients().min(parallelism);
    let n = ((workload.ops_per_second() * seconds).round() as usize).max(clients);
    let calls = prepared.calls(prepared.ops.iter().cycle().take(n))?;
    let next = AtomicUsize::new(0);
    let spilled_before = prepared.spilled_queries();
    let cpu_before = process_cpu_s();
    let started = Instant::now();
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    while let Some(call) = calls.get(next.fetch_add(1, Ordering::Relaxed)) {
                        samples.push(prepared.execute(call));
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu_before;
    let peak_rss = peak_rss_mb();
    let samples: Vec<Sample> = per_client.into_iter().flatten().collect();

    // Counted before the read-backs below, which are queries too.
    let spilled = (prepared.spilled_queries() - spilled_before) as usize;
    let mut failed = samples.iter().filter(|s| !s.ok).count();
    failed += prepared.count_bad_targets(&calls, &samples)?;
    if workload == Workload::SpillJoin && spilled < n {
        // Every op must degrade through the spill path; one that did not
        // measured something else.
        eprintln!("failed ops: {} of {n} did not spill", n - spilled);
        failed += n - spilled;
    }
    let quiescence = Quiescence::wait(&prepared.fixture);
    if !quiescence.is_clean() {
        return Err(format!(
            "cluster not quiescent after the timed pass: {quiescence:?}"
        ));
    }

    // Latencies go to the window the op completed in. Work is shared out:
    // an op that spans a boundary counts in each window by the share of
    // its time spent there, so window throughput is not quantised to whole
    // ops.
    let windows = (wall as usize).max(1);
    let width = wall / windows as f64;
    let mut by_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let mut work = vec![0.0f64; windows];
    for s in &samples {
        let end = s.finished.duration_since(started).as_secs_f64();
        let begin = end - s.latency.as_secs_f64();
        let last = ((end / width) as usize).min(windows - 1);
        by_window[last].push(s.latency.as_secs_f64() * 1e3);
        for (w, share) in work.iter_mut().enumerate().take(last + 1) {
            let overlap = end.min((w + 1) as f64 * width) - begin.max(w as f64 * width);
            if overlap > 0.0 {
                *share += overlap / (end - begin);
            }
        }
    }
    let (mut qps, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    for (latencies, work) in by_window.iter_mut().zip(&work) {
        if latencies.is_empty() {
            continue;
        }
        latencies.sort_by(f64::total_cmp);
        qps.push(work / width);
        p50.push(percentile(latencies, 0.5));
        p90.push(percentile(latencies, 0.9));
    }
    let values = [
        prepared.setup.total_s,
        median(qps),
        median(p50),
        median(p90),
        cpu_s * 1e3 / n as f64,
        peak_rss,
    ];
    let metrics: BTreeMap<&'static str, f64> = END_TO_END.iter().map(|m| m.0).zip(values).collect();

    let mut by_template: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in &samples {
        by_template
            .entry(s.template)
            .or_default()
            .push(s.latency.as_secs_f64() * 1e3);
    }
    let templates = by_template
        .into_iter()
        .map(|(name, v)| (name, v.len(), median(v)))
        .collect();

    Ok(RunRecord {
        workload,
        trace: false,
        attempted: n,
        failed: failed.min(n),
        metrics,
        clients,
        setup_reps: prepared.setup_reps,
        wall_s: wall,
        templates,
    })
}
