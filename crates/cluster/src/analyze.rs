//! EXPLAIN ANALYZE rendering (§VII): the distributed fragment tree
//! annotated with the per-operator statistics collected while the query
//! ran — rows, bytes, thread time, blocked time by reason, peak memory,
//! and operator-specific counters.

use crate::telemetry::QueryLatencyMetrics;
use presto_common::LatencySummary;
use presto_exec::stats::{fmt_bytes, fmt_count, fmt_duration, PipelineStats, QueryStats};
use presto_planner::PhysicalPlan;
use std::fmt::Write as _;
use std::time::Duration;

/// Render the annotated plan. Fragments print in the same root-first
/// order as [`PhysicalPlan::explain`], each followed by its stage's
/// pipeline and operator statistics. `latency` carries the cluster-wide
/// phase histograms so the header places this query among its peers.
pub fn render_explain_analyze(
    plan: &PhysicalPlan,
    stats: &QueryStats,
    latency: &QueryLatencyMetrics,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Query {}: cpu {}, wall {}",
        stats.query,
        fmt_duration(stats.total_cpu),
        fmt_duration(stats.wall_time),
    );
    let p = &stats.phases;
    let _ = writeln!(
        out,
        "Phases: queued {}, planning {}, execution {} ({} attempt{})",
        fmt_duration(p.queued),
        fmt_duration(p.planning),
        fmt_duration(p.execution),
        p.attempts,
        if p.attempts == 1 { "" } else { "s" },
    );
    // Cluster context: where this query's phases sit against the log-
    // bucketed latency histograms of every query the cluster has run.
    if latency.execution.count > 0 {
        let _ = writeln!(
            out,
            "Cluster latency: queued {}, planning {}, execution {} (p50/p95/p99 over {} queries)",
            fmt_percentiles(&latency.queued),
            fmt_percentiles(&latency.planning),
            fmt_percentiles(&latency.execution),
            latency.execution.count,
        );
    }
    out.push('\n');
    for f in plan.fragments.iter().rev() {
        let _ = writeln!(
            out,
            "Fragment {} [{:?}] output={:?}\n{}",
            f.id,
            f.partitioning,
            f.output,
            f.root.explain()
        );
        if let Some(stage) = stats.stage(f.id) {
            let exchange_in: u64 = stage.tasks.iter().map(|t| t.exchange_bytes_received).sum();
            let output = stage.output();
            let _ = writeln!(
                out,
                "  Stage: {} tasks, cpu {}, output {} wire / {} logical + {} local, exchange in {}",
                stage.tasks.len(),
                fmt_duration(stage.cpu_time()),
                fmt_bytes(output.wire_bytes),
                fmt_bytes(output.logical_bytes),
                fmt_bytes(output.local_bytes),
                fmt_bytes(exchange_in),
            );
            for pipeline in stage.pipelines_merged() {
                render_pipeline(&mut out, &pipeline);
            }
        }
        out.push('\n');
    }
    // Which chains ran as one leaf operator; the per-stage row counts
    // themselves print as fused_* counters on the FusedPipeline operator
    // lines above.
    out.push_str(&presto_planner::fusion::explain_fused_chains(
        &plan.fused_chains,
    ));
    out
}

fn render_pipeline(out: &mut String, p: &PipelineStats) {
    let _ = writeln!(
        out,
        "  Pipeline {} [{}]: {}/{} drivers reported, cpu {}",
        p.pipeline,
        p.description,
        p.drivers_reported,
        p.driver_count,
        fmt_duration(p.cpu_time)
    );
    for entry in &p.operators {
        let s = &entry.stats;
        let blocked = s.blocked_total();
        let busy = s.cpu.as_nanos() + blocked.as_nanos();
        let blocked_pct = (blocked.as_nanos() * 100).checked_div(busy).unwrap_or(0) as u64;
        let _ = writeln!(
            out,
            "    {}: in {} rows / {}, out {} rows / {}, cpu {}, blocked {} ({blocked_pct}%{}), peak mem {}",
            entry.name,
            fmt_count(s.input_rows),
            fmt_bytes(s.input_bytes),
            fmt_count(s.output_rows),
            fmt_bytes(s.output_bytes),
            fmt_duration(s.cpu),
            fmt_duration(blocked),
            blocked_breakdown(s.blocked_on_input, s.blocked_on_output, s.blocked_on_memory),
            fmt_bytes(s.peak_user_memory_bytes + s.peak_system_memory_bytes),
        );
        if !s.counters.is_empty() {
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(name, value)| format!("{name}={}", fmt_count(*value)))
                .collect();
            let _ = writeln!(out, "      {}", counters.join(", "));
        }
    }
}

/// `"1.00ms/2.50ms/4.00ms"` — p50/p95/p99 of one phase histogram.
fn fmt_percentiles(s: &LatencySummary) -> String {
    format!(
        "{}/{}/{}",
        fmt_duration(Duration::from_nanos(s.p50_nanos)),
        fmt_duration(Duration::from_nanos(s.p95_nanos)),
        fmt_duration(Duration::from_nanos(s.p99_nanos)),
    )
}

/// `" input"` / `" output"` / `" memory"` naming the dominant blocked
/// reason, or empty when nothing blocked.
fn blocked_breakdown(input: Duration, output: Duration, memory: Duration) -> &'static str {
    let max = input.max(output).max(memory);
    if max == Duration::ZERO {
        ""
    } else if max == input {
        " input"
    } else if max == output {
        " output"
    } else {
        " memory"
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn blocked_breakdown_names_dominant_reason() {
        let ms = Duration::from_millis;
        assert_eq!(blocked_breakdown(ms(0), ms(0), ms(0)), "");
        assert_eq!(blocked_breakdown(ms(5), ms(1), ms(0)), " input");
        assert_eq!(blocked_breakdown(ms(1), ms(5), ms(0)), " output");
        assert_eq!(blocked_breakdown(ms(1), ms(2), ms(5)), " memory");
    }
}
