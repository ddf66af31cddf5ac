//! The per-query record store (§VII): every query's lifecycle, live from
//! submission and retained with its final statistics after it ends, so
//! `system.runtime.queries` (and tasks/operators) cover both from one
//! place.
//!
//! The coordinator opens a query at submission, marks it started at
//! admission, attaches the running attempt's [`QueryState`] while tasks may
//! be live (for cancellation), and closes it by recording one fully-built
//! [`QueryHistoryEntry`]. Closing moves the query from the live set to the
//! retained ring under one lock, so every scan sees each query exactly
//! once. The expensive part — summarizing the `QueryStats` tree — happens
//! before the lock, and readers clone `Arc`s out. Retention is a ring:
//! once `capacity` entries are held, recording the next evicts the
//! oldest, and the eviction count is exported so truncation is never
//! silent.

use parking_lot::Mutex;
use presto_common::QueryId;
use presto_exec::{QueryStats, TaskStats};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::worker::QueryState;

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
    /// Framed pages and their wire and logical bytes (cross-worker edges
    /// and the result drain).
    pub output_pages: u64,
    pub output_wire_bytes: u64,
    pub output_logical_bytes: u64,
    /// Pages handed over unserialized, and their in-memory bytes
    /// (same-worker edges).
    pub local_pages: u64,
    pub local_bytes: u64,
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
    /// The failure's message: a cancelled or worker-failed query keeps
    /// *why* it died (§IV-G).
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
        output_pages: t.output.pages,
        output_wire_bytes: t.output.wire_bytes,
        output_logical_bytes: t.output.logical_bytes,
        local_pages: t.output.local_pages,
        local_bytes: t.output.local_bytes,
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

/// A query that has been opened and not yet recorded.
#[derive(Clone)]
pub struct LiveQuery {
    pub queued_at: Instant,
    /// Admitted: planning or running, no longer waiting for a slot.
    pub started: bool,
    /// The running attempt, from task creation until its teardown.
    attempt: Option<Arc<QueryState>>,
}

struct Queries {
    live: BTreeMap<QueryId, LiveQuery>,
    retained: VecDeque<Arc<QueryHistoryEntry>>,
}

/// Live queries plus the bounded ring of retained ones.
pub struct QueryHistory {
    capacity: usize,
    queries: Mutex<Queries>,
    recorded: AtomicU64,
    evicted: AtomicU64,
}

impl QueryHistory {
    /// `capacity` 0 disables retention entirely (records become no-ops).
    pub fn new(capacity: usize) -> Arc<QueryHistory> {
        Arc::new(QueryHistory {
            capacity,
            queries: Mutex::new(Queries {
                live: BTreeMap::new(),
                retained: VecDeque::with_capacity(capacity.min(1024)),
            }),
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

    /// Retained (ended) queries.
    pub fn len(&self) -> usize {
        self.queries.lock().retained.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queries.lock().retained.is_empty()
    }

    /// Queries opened and not yet recorded.
    pub fn live_len(&self) -> usize {
        self.queries.lock().live.len()
    }

    /// A query was submitted at `queued_at`.
    pub(crate) fn open(&self, query: QueryId, queued_at: Instant) {
        let live = LiveQuery {
            queued_at,
            started: false,
            attempt: None,
        };
        self.queries.lock().live.insert(query, live);
    }

    /// Admission let the query start.
    pub(crate) fn start(&self, query: QueryId) {
        if let Some(q) = self.queries.lock().live.get_mut(&query) {
            q.started = true;
        }
    }

    /// Attach the running attempt's state (`None` once it is torn down).
    pub(crate) fn set_attempt(&self, query: QueryId, attempt: Option<Arc<QueryState>>) {
        if let Some(q) = self.queries.lock().live.get_mut(&query) {
            q.attempt = attempt;
        }
    }

    /// The state of the query's running attempt, if it has one.
    pub(crate) fn attempt(&self, query: QueryId) -> Option<Arc<QueryState>> {
        self.queries.lock().live.get(&query)?.attempt.clone()
    }

    /// Queries with a running attempt, in id order.
    pub(crate) fn running(&self) -> Vec<QueryId> {
        let queries = self.queries.lock();
        let running = queries.live.iter().filter(|(_, q)| q.attempt.is_some());
        running.map(|(query, _)| *query).collect()
    }

    /// Close a query: it leaves the live set and its entry, built in full
    /// before the call, joins the ring, both under one lock.
    pub fn record(&self, entry: QueryHistoryEntry) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(entry);
        let mut queries = self.queries.lock();
        queries.live.remove(&entry.query);
        // At capacity 0 this counts every entry evicted on arrival.
        if queries.retained.len() >= self.capacity {
            self.evicted.fetch_add(1, Ordering::Relaxed);
            queries.retained.pop_front();
        }
        if self.capacity > 0 {
            queries.retained.push_back(entry);
        }
    }

    /// Every query, from one instant: the live ones in id order, then the
    /// retained ones, oldest first.
    pub fn scan(&self) -> (Vec<(QueryId, LiveQuery)>, Vec<Arc<QueryHistoryEntry>>) {
        let queries = self.queries.lock();
        let live = queries.live.iter().map(|(q, l)| (*q, l.clone())).collect();
        (live, queries.retained.iter().cloned().collect())
    }

    /// Every retained entry, oldest first.
    pub fn snapshot(&self) -> Vec<Arc<QueryHistoryEntry>> {
        self.queries.lock().retained.iter().cloned().collect()
    }

    /// The retained entry for one query, if it has not been evicted.
    pub fn get(&self, query: QueryId) -> Option<Arc<QueryHistoryEntry>> {
        let queries = self.queries.lock();
        queries.retained.iter().find(|e| e.query == query).cloned()
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
        }
    }

    #[test]
    fn retains_last_n_and_counts_evictions() {
        let h = QueryHistory::new(3);
        for i in 0..10 {
            h.record(entry(i));
            let oldest = h.snapshot()[0].query.0;
            assert_eq!(oldest, i.saturating_sub(2), "oldest goes first");
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
        h.open(QueryId(1), Instant::now());
        h.record(entry(1));
        assert!(h.is_empty(), "never retained");
        assert_eq!(h.live_len(), 0, "but closed");
        assert_eq!(h.recorded(), 1);
        assert_eq!(h.evicted(), 1);
    }

    /// One record per query: open, start and attach show on the live
    /// side; recording moves the query to the ring in one step.
    #[test]
    fn a_query_is_live_until_recorded_then_retained() {
        let h = QueryHistory::new(4);
        let q = QueryId(5);
        h.open(q, Instant::now());
        let (live, ended) = h.scan();
        assert_eq!((live.len(), live[0].0, live[0].1.started), (1, q, false));
        assert!(ended.is_empty());
        h.start(q);
        assert!(h.scan().0[0].1.started);
        assert!(h.running().is_empty(), "no attempt while planning");
        h.set_attempt(q, Some(QueryState::new(q, &Arc::default())));
        assert_eq!(h.running(), vec![q]);
        assert!(h.attempt(q).is_some());
        h.set_attempt(q, None);
        assert!(h.attempt(q).is_none());
        h.record(entry(5));
        let (live, ended) = h.scan();
        assert!(live.is_empty());
        assert_eq!(ended.len(), 1);
        assert_eq!(ended[0].query, q);
        assert!(h.get(q).is_some());
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
