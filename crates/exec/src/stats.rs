//! Statistics rollup: driver → pipeline → task → stage → query (§VII).
//!
//! "Presto collects and stores operator level statistics … for every
//! query" — every [`crate::driver::Driver`] keeps uniform
//! [`OperatorStats`] per operator; when a driver completes (or is
//! cancelled) the worker records its [`DriverStatsReport`] into the
//! task's [`TaskStatsCollector`]. The coordinator snapshots tasks into
//! an immutable [`QueryStats`] tree that EXPLAIN ANALYZE renders.

use parking_lot::Mutex;
use presto_common::{QueryId, TaskId};
use presto_shuffle::OutputTotals;
use std::time::Duration;

use crate::operator::OperatorStats;

/// One operator's merged statistics, tagged with its telemetry name.
#[derive(Debug, Clone)]
pub struct OperatorStatsEntry {
    pub name: &'static str,
    pub stats: OperatorStats,
}

/// What one driver contributes when it finishes: which pipeline it ran,
/// the thread time it consumed, and its per-operator counters.
#[derive(Debug, Clone)]
pub struct DriverStatsReport {
    pub pipeline: usize,
    pub cpu_time: Duration,
    pub operators: Vec<OperatorStatsEntry>,
}

/// All drivers of one pipeline, merged. Sibling drivers run identical
/// operator chains, so operators merge positionally.
#[derive(Debug, Clone)]
pub struct PipelineStats {
    pub pipeline: usize,
    pub description: String,
    pub driver_count: usize,
    /// Drivers that have completed and reported; equals `driver_count`
    /// once the pipeline fully drains.
    pub drivers_reported: usize,
    pub cpu_time: Duration,
    pub operators: Vec<OperatorStatsEntry>,
}

/// One task's statistics: its pipelines plus the task-level data-plane
/// counters (kept here, not per-driver, because the output buffer and
/// exchange clients are shared across all of the task's drivers).
#[derive(Debug, Clone)]
pub struct TaskStats {
    pub task: TaskId,
    pub cpu_time: Duration,
    pub pipelines: Vec<PipelineStats>,
    /// What the task's output buffer gave its consumers: framed pages for
    /// other workers, handed-over pages for its own.
    pub output: OutputTotals,
    /// Framed bytes this task's exchange clients pulled from upstream tasks.
    pub exchange_bytes_received: u64,
}

/// All tasks of one stage (plan fragment).
#[derive(Debug, Clone)]
pub struct StageStats {
    pub stage: u32,
    pub tasks: Vec<TaskStats>,
}

impl StageStats {
    pub fn cpu_time(&self) -> Duration {
        self.tasks.iter().map(|t| t.cpu_time).sum()
    }

    /// The stage's output totals, summed over its tasks.
    pub fn output(&self) -> OutputTotals {
        let tasks = self.tasks.iter().map(|t| t.output);
        tasks.fold(OutputTotals::default(), |sum, t| sum.merge(&t))
    }

    /// Merge pipelines across tasks (all tasks of a fragment compile to
    /// the same pipeline structure), positionally by pipeline index.
    pub fn pipelines_merged(&self) -> Vec<PipelineStats> {
        let mut merged: Vec<PipelineStats> = Vec::new();
        for task in &self.tasks {
            for pipeline in &task.pipelines {
                match merged.iter_mut().find(|p| p.pipeline == pipeline.pipeline) {
                    Some(existing) => {
                        existing.driver_count += pipeline.driver_count;
                        existing.drivers_reported += pipeline.drivers_reported;
                        existing.cpu_time += pipeline.cpu_time;
                        for (slot, entry) in
                            existing.operators.iter_mut().zip(pipeline.operators.iter())
                        {
                            slot.stats.merge(&entry.stats);
                        }
                    }
                    None => merged.push(pipeline.clone()),
                }
            }
        }
        merged.sort_by_key(|p| p.pipeline);
        merged
    }

    /// Find the merged stats of the first operator with `name` (e.g.
    /// "LookupJoin") across every task of the stage.
    pub fn operator(&self, name: &str) -> Option<OperatorStats> {
        let mut found: Option<OperatorStats> = None;
        for pipeline in self.pipelines_merged() {
            for entry in &pipeline.operators {
                if entry.name == name {
                    match &mut found {
                        Some(acc) => acc.merge(&entry.stats),
                        None => found = Some(entry.stats.clone()),
                    }
                }
            }
        }
        found
    }
}

/// Explicit wall-time phase measurements for one query, recorded on the
/// coordinator (§VII): time spent waiting for admission, planning, and
/// executing. For retried queries planning/execution sum over attempts,
/// while queued time covers only the admission wait — retry backoff is
/// execution-side, so retries no longer masquerade as queueing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryPhases {
    pub queued: Duration,
    pub planning: Duration,
    pub execution: Duration,
    /// 1 + retries; 0 when phases were never measured.
    pub attempts: u32,
}

/// The immutable per-query statistics tree assembled on the coordinator
/// when the query completes (or fails).
#[derive(Debug, Clone)]
pub struct QueryStats {
    pub query: QueryId,
    pub stages: Vec<StageStats>,
    /// Total thread time across every driver of every task.
    pub total_cpu: Duration,
    /// Coordinator-observed wall time (admission to completion).
    pub wall_time: Duration,
    /// Coordinator-measured wall-time phases.
    pub phases: QueryPhases,
}

impl QueryStats {
    pub fn stage(&self, id: u32) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.stage == id)
    }
}

/// Per-pipeline metadata the collector needs up front.
#[derive(Debug, Clone)]
pub struct PipelineMeta {
    pub description: String,
    pub driver_count: usize,
}

/// Accumulates [`DriverStatsReport`]s as the worker retires drivers.
/// Lives on [`crate::task::Task`]; safe to snapshot mid-flight.
pub struct TaskStatsCollector {
    pipelines: Vec<PipelineMeta>,
    reports: Mutex<Vec<DriverStatsReport>>,
}

impl TaskStatsCollector {
    pub fn new(pipelines: Vec<PipelineMeta>) -> TaskStatsCollector {
        TaskStatsCollector {
            pipelines,
            reports: Mutex::new(Vec::new()),
        }
    }

    pub fn record(&self, report: DriverStatsReport) {
        self.reports.lock().push(report);
    }

    pub fn drivers_reported(&self) -> usize {
        self.reports.lock().len()
    }

    /// Merge everything recorded so far into per-pipeline rollups.
    pub fn pipelines(&self) -> Vec<PipelineStats> {
        let mut out: Vec<PipelineStats> = self
            .pipelines
            .iter()
            .enumerate()
            .map(|(i, meta)| PipelineStats {
                pipeline: i,
                description: meta.description.clone(),
                driver_count: meta.driver_count,
                drivers_reported: 0,
                cpu_time: Duration::ZERO,
                operators: Vec::new(),
            })
            .collect();
        for report in self.reports.lock().iter() {
            let Some(pipeline) = out.get_mut(report.pipeline) else {
                continue;
            };
            pipeline.drivers_reported += 1;
            pipeline.cpu_time += report.cpu_time;
            if pipeline.operators.is_empty() {
                pipeline.operators = report.operators.clone();
            } else {
                for (slot, entry) in pipeline.operators.iter_mut().zip(report.operators.iter()) {
                    slot.stats.merge(&entry.stats);
                }
            }
        }
        out
    }
}

/// `1234567` → `"1.23M"`; keeps EXPLAIN ANALYZE lines short.
pub fn fmt_count(n: u64) -> String {
    match n {
        0..=9_999 => n.to_string(),
        10_000..=9_999_999 => format!("{:.2}K", n as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.2}M", n as f64 / 1e6),
        _ => format!("{:.2}B", n as f64 / 1e9),
    }
}

/// `1536` → `"1.50KB"`.
pub fn fmt_bytes(n: u64) -> String {
    const KB: f64 = 1024.0;
    let n = n as f64;
    if n < KB {
        format!("{n:.0}B")
    } else if n < KB * KB {
        format!("{:.2}KB", n / KB)
    } else if n < KB * KB * KB {
        format!("{:.2}MB", n / (KB * KB))
    } else {
        format!("{:.2}GB", n / (KB * KB * KB))
    }
}

/// `Duration` → `"12.34ms"` with a unit that keeps 2 decimals meaningful.
pub fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.2}us", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2}s", nanos as f64 / 1e9)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn entry(name: &'static str, rows: u64) -> OperatorStatsEntry {
        let mut stats = OperatorStats {
            output_rows: rows,
            ..Default::default()
        };
        stats.add_counter("hits", rows);
        OperatorStatsEntry { name, stats }
    }

    #[test]
    fn collector_merges_sibling_drivers() {
        let collector = TaskStatsCollector::new(vec![PipelineMeta {
            description: "Scan -> Output".to_string(),
            driver_count: 2,
        }]);
        for rows in [3, 4] {
            collector.record(DriverStatsReport {
                pipeline: 0,
                cpu_time: Duration::from_millis(5),
                operators: vec![entry("ScanFilterProject", rows)],
            });
        }
        let pipelines = collector.pipelines();
        assert_eq!(pipelines.len(), 1);
        assert_eq!(pipelines[0].drivers_reported, 2);
        assert_eq!(pipelines[0].cpu_time, Duration::from_millis(10));
        assert_eq!(pipelines[0].operators[0].stats.output_rows, 7);
        assert_eq!(pipelines[0].operators[0].stats.counter("hits"), Some(7));
    }

    #[test]
    fn stage_merges_across_tasks() {
        use presto_common::{StageId, TaskId};
        let task = |t: u32, rows: u64| TaskStats {
            task: TaskId {
                stage: StageId {
                    query: QueryId(1),
                    stage: 0,
                },
                task: t,
            },
            cpu_time: Duration::from_millis(1),
            pipelines: vec![PipelineStats {
                pipeline: 0,
                description: "p".to_string(),
                driver_count: 1,
                drivers_reported: 1,
                cpu_time: Duration::from_millis(1),
                operators: vec![entry("Aggregate", rows)],
            }],
            output: OutputTotals {
                pages: 1,
                wire_bytes: 10,
                logical_bytes: 20,
                local_pages: 1,
                local_bytes: 30,
            },
            exchange_bytes_received: 0,
        };
        let stage = StageStats {
            stage: 0,
            tasks: vec![task(0, 5), task(1, 6)],
        };
        assert_eq!(stage.operator("Aggregate").unwrap().output_rows, 11);
        assert_eq!(stage.output().wire_bytes, 20);
        assert_eq!(stage.output().local_bytes, 60);
        let merged = stage.pipelines_merged();
        assert_eq!(merged[0].driver_count, 2);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_count(950), "950");
        assert_eq!(fmt_count(12_345), "12.35K");
        assert_eq!(fmt_bytes(1536), "1.50KB");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50ms");
    }
}
