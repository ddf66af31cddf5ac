//! Bounded query-history store (§VII): lifecycle and final statistics of
//! the last N queries, so `system.runtime.queries` (and tasks/operators)
//! cover finished queries, not just live ones.
//!
//! The store is lock-cheap by construction: the coordinator records one
//! fully-built [`QueryHistoryEntry`] per finished query under a short
//! mutex push (the expensive part — summarizing the `QueryStats` tree —
//! happens outside the lock), and readers clone `Arc`s out. Retention is
//! a ring: once `capacity` entries are held, recording the next evicts
//! the oldest, and the eviction count is exported so truncation is never
//! silent.

use parking_lot::Mutex;
use presto_common::QueryId;
use presto_exec::{QueryStats, TaskStats};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One state transition, stamped in nanoseconds since cluster start (the
/// [`crate::telemetry::ClusterTelemetry::now_nanos`] domain). States:
/// "queued", "started", "retry" (one per retry attempt, with chaos/fault
/// retries included), "finished", "failed".
#[derive(Debug, Clone)]
pub struct LifecycleEvent {
    pub state: &'static str,
    pub at_nanos: u64,
}

/// One operator's final counters within a task.
#[derive(Debug, Clone)]
pub struct OperatorSummary {
    pub pipeline: u32,
    pub name: &'static str,
    pub input_rows: u64,
    pub input_bytes: u64,
    pub output_rows: u64,
    pub output_bytes: u64,
    pub cpu: Duration,
    pub blocked: Duration,
    pub peak_memory_bytes: u64,
    /// Bytes this operator wrote to spill run files (§IV-F2).
    pub spilled_bytes: u64,
    /// Spill episodes (revocations and overflow flushes).
    pub spill_events: u64,
}

/// One task's final counters (per-stage rows/bytes roll up from these).
#[derive(Debug, Clone)]
pub struct TaskSummary {
    pub stage: u32,
    pub task: u32,
    pub cpu: Duration,
    pub output_pages: u64,
    pub output_wire_bytes: u64,
    pub output_logical_bytes: u64,
    pub exchange_bytes_received: u64,
    pub operators: Vec<OperatorSummary>,
}

/// Everything retained about one finished (or failed) query.
#[derive(Debug, Clone)]
pub struct QueryHistoryEntry {
    pub query: QueryId,
    /// "finished" or "failed".
    pub state: &'static str,
    pub error_tag: Option<&'static str>,
    pub error_message: Option<String>,
    /// Explicit phase wall times (planning/executing summed over retries).
    pub queued: Duration,
    pub planning: Duration,
    pub executing: Duration,
    pub cpu: Duration,
    pub wall: Duration,
    /// 1 + retries.
    pub attempts: u32,
    /// Sum of per-operator memory high-water marks — an upper-bound-ish
    /// account of what the query held at peak.
    pub peak_memory_bytes: u64,
    pub rows_returned: u64,
    pub tasks: Vec<TaskSummary>,
    /// State transitions with timestamps, retries and fault events
    /// included.
    pub events: Vec<LifecycleEvent>,
    /// When the terminal state was recorded, nanos since cluster start.
    pub finished_at_nanos: u64,
}

impl QueryHistoryEntry {
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }
}

/// Summarize one task's stats — final, or live for `system.runtime` — into
/// retained form.
pub fn summarize_task(t: &TaskStats) -> TaskSummary {
    let operators = t
        .pipelines
        .iter()
        .flat_map(|p| p.operators.iter().map(move |op| (p.pipeline, op)))
        .map(|(pipeline, op)| {
            let s = &op.stats;
            OperatorSummary {
                pipeline: pipeline as u32,
                name: op.name,
                input_rows: s.input_rows,
                input_bytes: s.input_bytes,
                output_rows: s.output_rows,
                output_bytes: s.output_bytes,
                cpu: s.cpu,
                blocked: s.blocked_total(),
                peak_memory_bytes: s.peak_user_memory_bytes + s.peak_system_memory_bytes,
                spilled_bytes: s.counter("spilled_bytes").unwrap_or(0),
                spill_events: s.counter("spill_events").unwrap_or(0),
            }
        })
        .collect();
    TaskSummary {
        stage: t.task.stage.stage,
        task: t.task.task,
        cpu: t.cpu_time,
        output_pages: t.output_pages,
        output_wire_bytes: t.output_wire_bytes,
        output_logical_bytes: t.output_logical_bytes,
        exchange_bytes_received: t.exchange_bytes_received,
        operators,
    }
}

/// Summarize a final [`QueryStats`] tree into per-task retained form,
/// returning the task summaries and the summed peak-memory account.
pub fn summarize_stats(stats: &QueryStats) -> (Vec<TaskSummary>, u64) {
    let tasks: Vec<TaskSummary> = stats
        .stages
        .iter()
        .flat_map(|stage| &stage.tasks)
        .map(summarize_task)
        .collect();
    let peak = tasks
        .iter()
        .flat_map(|t| &t.operators)
        .map(|op| op.peak_memory_bytes)
        .sum();
    (tasks, peak)
}

/// The bounded ring of retained queries.
pub struct QueryHistory {
    capacity: usize,
    entries: Mutex<VecDeque<Arc<QueryHistoryEntry>>>,
    recorded: AtomicU64,
    evicted: AtomicU64,
}

impl QueryHistory {
    /// `capacity` 0 disables retention entirely (records become no-ops).
    pub fn new(capacity: usize) -> Arc<QueryHistory> {
        Arc::new(QueryHistory {
            capacity,
            entries: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            recorded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        })
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queries recorded over the cluster lifetime (≥ `len`).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Entries dropped to stay within capacity.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Record a finished query. The entry should be fully built before the
    /// call; the lock is held only for the ring push. Returns the query
    /// this one pushed out of the ring, if any: the ring is the one
    /// retention policy, so whoever keeps other per-query state drops it
    /// for that query too.
    pub fn record(&self, entry: QueryHistoryEntry) -> Option<QueryId> {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        if self.capacity == 0 {
            self.evicted.fetch_add(1, Ordering::Relaxed);
            return Some(entry.query);
        }
        let entry = Arc::new(entry);
        let mut entries = self.entries.lock();
        let evicted = if entries.len() >= self.capacity {
            self.evicted.fetch_add(1, Ordering::Relaxed);
            entries.pop_front().map(|e| e.query)
        } else {
            None
        };
        entries.push_back(entry);
        evicted
    }

    /// Every retained entry, oldest first.
    pub fn snapshot(&self) -> Vec<Arc<QueryHistoryEntry>> {
        self.entries.lock().iter().cloned().collect()
    }

    /// The retained entry for one query, if it has not been evicted.
    pub fn get(&self, query: QueryId) -> Option<Arc<QueryHistoryEntry>> {
        self.entries
            .lock()
            .iter()
            .find(|e| e.query == query)
            .cloned()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn entry(id: u64) -> QueryHistoryEntry {
        QueryHistoryEntry {
            query: QueryId(id),
            state: "finished",
            error_tag: None,
            error_message: None,
            queued: Duration::from_micros(5),
            planning: Duration::from_micros(50),
            executing: Duration::from_millis(2),
            cpu: Duration::from_millis(1),
            wall: Duration::from_millis(3),
            attempts: 1,
            peak_memory_bytes: 1024,
            rows_returned: 10,
            tasks: Vec::new(),
            events: vec![
                LifecycleEvent {
                    state: "queued",
                    at_nanos: id * 100,
                },
                LifecycleEvent {
                    state: "finished",
                    at_nanos: id * 100 + 50,
                },
            ],
            finished_at_nanos: id * 100 + 50,
        }
    }

    #[test]
    fn retains_last_n_and_counts_evictions() {
        let h = QueryHistory::new(3);
        for i in 0..10 {
            let evicted = h.record(entry(i));
            assert_eq!(evicted, i.checked_sub(3).map(QueryId), "oldest goes first");
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.recorded(), 10);
        assert_eq!(h.evicted(), 7);
        let ids: Vec<u64> = h.snapshot().iter().map(|e| e.query.0).collect();
        assert_eq!(ids, vec![7, 8, 9], "oldest evicted first");
        assert!(h.get(QueryId(9)).is_some());
        assert!(h.get(QueryId(0)).is_none());
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let h = QueryHistory::new(0);
        assert_eq!(h.record(entry(1)), Some(QueryId(1)), "never retained");
        assert!(h.is_empty());
        assert_eq!(h.recorded(), 1);
        assert_eq!(h.evicted(), 1);
    }

    #[test]
    fn concurrent_recording_respects_bound() {
        let h = QueryHistory::new(16);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..500 {
                        h.record(entry(t * 1000 + i));
                    }
                });
            }
        });
        assert_eq!(h.len(), 16);
        assert_eq!(h.recorded(), 4000);
        assert_eq!(h.evicted(), 4000 - 16);
    }
}
