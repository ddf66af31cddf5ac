//! The cluster side of the `system` catalog (§VII): implements
//! [`SystemStateProvider`] over live workers, telemetry, the trace ring,
//! and the query-history store, so `system.runtime.*` tables can be
//! scanned with ordinary SQL.
//!
//! Each table's rows are built as the connector's row type for it, field
//! by name, so layout and schema come from one declaration. `queries`
//! reads live (queued/running) and retained (finished/failed) queries from
//! the query-history store in one snapshot; `tasks` and `operators` show
//! live task snapshots (worker attributed) plus retained summaries of
//! completed queries (worker NULL — task placement is not kept after
//! completion).

use presto_common::counters::Row;
use presto_common::{TraceBuffer, Value};
use presto_connectors::system::{
    CacheRow, MemoryPoolRow, OperatorRow, QueryRow, SystemStateProvider, SystemTable, TaskRow,
    TraceEventRow,
};
use std::sync::Arc;
use std::time::Duration;

use crate::history::{self, QueryHistory, TaskSummary};
use crate::telemetry::ClusterTelemetry;
use crate::worker::Worker;

/// Everything the system tables read from.
pub struct ClusterSystemState {
    workers: Vec<Arc<Worker>>,
    telemetry: ClusterTelemetry,
    history: Arc<QueryHistory>,
    trace: Option<Arc<TraceBuffer>>,
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

impl ClusterSystemState {
    pub fn new(
        workers: Vec<Arc<Worker>>,
        telemetry: ClusterTelemetry,
        history: Arc<QueryHistory>,
        trace: Option<Arc<TraceBuffer>>,
    ) -> Arc<ClusterSystemState> {
        Arc::new(ClusterSystemState {
            workers,
            telemetry,
            history,
            trace,
        })
    }

    /// `system.runtime.queries`: live queries, then finished/failed ones,
    /// each exactly once.
    fn queries(&self) -> Vec<Vec<Value>> {
        let (live, ended) = self.history.scan();
        let mut rows = Vec::with_capacity(live.len() + ended.len());
        for (query, q) in live {
            let live = QueryRow {
                query_id: query.0,
                state: if q.started { "running" } else { "queued" },
                // Still in flight: queued time is "so far".
                queued_nanos: nanos(q.queued_at.elapsed()),
                ..QueryRow::default()
            };
            rows.push(live.row());
        }
        for e in ended {
            let ended = QueryRow {
                query_id: e.query.0,
                state: e.state,
                error_tag: e.error_tag,
                error_message: e.error_message.clone(),
                queued_nanos: nanos(e.queued),
                planning_nanos: Some(nanos(e.planning)),
                execution_nanos: Some(nanos(e.executing)),
                cpu_nanos: Some(nanos(e.cpu)),
                wall_nanos: Some(nanos(e.wall)),
                attempts: Some(e.attempts),
                retries: Some(e.retries()),
                peak_memory_bytes: Some(e.peak_memory_bytes),
                rows_returned: Some(e.rows_returned),
            };
            rows.push(ended.row());
        }
        rows
    }

    /// Every task the tables show, as `f(query, worker, state, task)`:
    /// live tasks per worker, summarised the way history will retain them,
    /// then the retained tasks of completed queries.
    fn for_each_task(&self, mut f: impl FnMut(u64, Option<u32>, &'static str, &TaskSummary)) {
        for w in &self.workers {
            for handle in w.live_tasks() {
                let task = history::summarize_task(&handle.task.stats_snapshot());
                f(handle.id.stage.query.0, Some(w.node.0), "running", &task);
            }
        }
        for e in self.history.snapshot() {
            for task in &e.tasks {
                f(e.query.0, None, e.state, task);
            }
        }
    }

    /// `system.runtime.tasks`.
    fn tasks(&self) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        self.for_each_task(|query_id, worker, state, t| {
            let task = TaskRow {
                query_id,
                stage: t.stage,
                task: t.task,
                worker,
                state,
                cpu_nanos: nanos(t.cpu),
                output_pages: t.output_pages,
                output_wire_bytes: t.output_wire_bytes,
                output_logical_bytes: t.output_logical_bytes,
                exchange_bytes_received: t.exchange_bytes_received,
            };
            rows.push(task.row());
        });
        rows
    }

    /// `system.runtime.operators`: the per-operator stats rollup.
    fn operators(&self) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        self.for_each_task(|query_id, _, _, t| {
            for op in &t.operators {
                let operator = OperatorRow {
                    query_id,
                    stage: t.stage,
                    task: t.task,
                    pipeline: op.pipeline,
                    operator: op.name,
                    input_rows: op.input_rows,
                    input_bytes: op.input_bytes,
                    output_rows: op.output_rows,
                    output_bytes: op.output_bytes,
                    cpu_nanos: nanos(op.cpu),
                    blocked_nanos: nanos(op.blocked),
                    peak_memory_bytes: op.peak_memory_bytes,
                    spilled_bytes: op.spilled_bytes,
                    spill_events: op.spill_events,
                };
                rows.push(operator.row());
            }
        });
        rows
    }

    /// `system.runtime.memory_pools`: one row per (worker, pool).
    fn memory_pools(&self) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for w in &self.workers {
            let p = w.pool.snapshot();
            for (pool, used_bytes, peak_bytes, limit_bytes) in [
                ("general", p.general_used, p.peak_general, p.general_limit),
                (
                    "reserved",
                    p.reserved_used,
                    p.peak_reserved,
                    p.reserved_limit,
                ),
                ("system", p.system_used, 0, 0),
            ] {
                let row = MemoryPoolRow {
                    worker: w.node.0,
                    pool,
                    used_bytes,
                    peak_bytes,
                    limit_bytes,
                    blocked_reservations: p.blocked_reservations,
                    revocation_requests: p.revocation_requests,
                    active_queries: p.active_queries,
                };
                rows.push(row.row());
            }
        }
        rows
    }

    /// `system.runtime.caches`: one row per registered cache layer.
    fn caches(&self) -> Vec<Vec<Value>> {
        self.telemetry
            .cache_counters_by_layer()
            .into_iter()
            .map(|(layer, counters)| CacheRow { layer, counters }.row())
            .collect()
    }

    /// `system.runtime.trace_events`: the retained trace ring, one row per
    /// event. Empty when tracing is disabled.
    fn trace_events(&self) -> Vec<Vec<Value>> {
        let Some(trace) = &self.trace else {
            return Vec::new();
        };
        let overwritten_events = trace.overwritten_events();
        trace
            .snapshot()
            .into_iter()
            .map(|e| {
                let event = TraceEventRow {
                    kind: e.kind.name(),
                    ts_nanos: e.ts_nanos,
                    dur_nanos: e.dur_nanos,
                    pid: e.pid,
                    tid: e.tid,
                    a: e.a,
                    b: e.b,
                    overwritten_events,
                };
                event.row()
            })
            .collect()
    }
}

impl SystemStateProvider for ClusterSystemState {
    fn rows(&self, table: SystemTable) -> Vec<Vec<Value>> {
        match table {
            SystemTable::Queries => self.queries(),
            SystemTable::Tasks => self.tasks(),
            SystemTable::Operators => self.operators(),
            SystemTable::MemoryPools => self.memory_pools(),
            SystemTable::Caches => self.caches(),
            // One row of cluster-lifetime totals.
            SystemTable::DynamicFilters => vec![self.telemetry.dynamic_filter_metrics().row()],
            SystemTable::TraceEvents => self.trace_events(),
        }
    }
}
