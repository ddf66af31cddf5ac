//! The embedding facade: start a cluster, run SQL.

use presto_cache::MetadataCache;
use presto_common::{NodeId, QueryId, Result, Session, TraceBuffer};
use presto_connector::CatalogManager;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::config::ClusterConfig;
use crate::coordinator::{Coordinator, QueryError, QueryOutput};
use crate::history::QueryHistory;
use crate::memory::{NodeMemoryPool, PoolSystemCharger, ReservedPoolLock};
use crate::system_provider::ClusterSystemState;
use crate::telemetry::ClusterTelemetry;
use crate::worker::{Worker, WorkerState};
use presto_connectors::SystemConnector;

/// Re-exported result type.
pub type QueryResult = QueryOutput;

/// A running simulated cluster: one coordinator, N workers.
pub struct Cluster {
    coordinator: Arc<Coordinator>,
    workers: Vec<Arc<Worker>>,
    cache: Arc<MetadataCache>,
    trace: Option<Arc<TraceBuffer>>,
    monitor_stop: Arc<AtomicBool>,
    monitor: parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// Coordinator-side failure detector (§IV-G): "The coordinator monitors
/// worker heartbeats and removes nodes that fail to respond." Each worker's
/// executor threads bump a heartbeat counter between quanta; if the counter
/// stops advancing for `liveness_timeout`, the worker is declared lost —
/// its queries fail with the retryable `WorkerFailed` code and placement
/// excludes it from then on.
fn run_liveness_monitor(
    workers: Vec<Arc<Worker>>,
    telemetry: ClusterTelemetry,
    timeout: Duration,
    stop: Arc<AtomicBool>,
) {
    let interval = (timeout / 4).clamp(Duration::from_millis(5), Duration::from_millis(250));
    let mut last: Vec<(u64, Instant)> = workers
        .iter()
        .map(|w| (w.heartbeat(), Instant::now()))
        .collect();
    while !stop.load(Ordering::SeqCst) {
        // Sleep in small chunks so shutdown is prompt even with long
        // liveness timeouts.
        let wake = Instant::now() + interval;
        while Instant::now() < wake && !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(2).min(interval));
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        for (i, w) in workers.iter().enumerate() {
            if w.is_dead() || !matches!(w.state(), WorkerState::Active | WorkerState::Draining) {
                continue;
            }
            let beat = w.heartbeat();
            if beat != last[i].0 {
                last[i] = (beat, Instant::now());
            } else if last[i].1.elapsed() > timeout {
                w.kill_with(&format!(
                    "lost: no heartbeat for {:?} (liveness timeout {timeout:?})",
                    last[i].1.elapsed()
                ));
                telemetry.record_error("WORKER_LOST");
            }
        }
    }
}

impl Cluster {
    /// Start a cluster with the given catalogs mounted. The metadata cache
    /// is built from `config.cache`; connectors that should share it must
    /// be constructed with the same cache — use
    /// [`start_with_cache`](Self::start_with_cache) for that.
    pub fn start(config: ClusterConfig, catalogs: CatalogManager) -> Result<Cluster> {
        let cache = MetadataCache::new(config.cache.clone());
        Self::start_with_cache(config, catalogs, cache)
    }

    /// Start a cluster around an existing [`MetadataCache`] (typically the
    /// one the connectors were built with). The cache's retained bytes are
    /// charged as system memory against every worker's general pool, and
    /// its per-layer counters are registered with cluster telemetry.
    pub fn start_with_cache(
        config: ClusterConfig,
        mut catalogs: CatalogManager,
        cache: Arc<MetadataCache>,
    ) -> Result<Cluster> {
        config.validate()?;
        let telemetry = ClusterTelemetry::new(config.workers);
        let reserved = ReservedPoolLock::new();
        let trace = (config.trace_capacity > 0).then(|| TraceBuffer::new(config.trace_capacity));
        let workers: Vec<Arc<Worker>> = (0..config.workers)
            .map(|i| {
                let pool = NodeMemoryPool::new(
                    NodeId(i as u32),
                    config.node_memory_bytes,
                    config.reserved_pool_bytes,
                    config.kill_on_memory_exhausted,
                    Arc::clone(&reserved),
                );
                if let Some(trace) = &trace {
                    pool.set_trace(Arc::clone(trace));
                }
                Worker::start(
                    NodeId(i as u32),
                    i,
                    config.threads_per_worker,
                    pool,
                    telemetry.clone(),
                    trace.clone(),
                )
            })
            .collect();
        // Wire cache memory into the worker pools and its counters into
        // telemetry. `set_charger` transfers the balance already retained.
        cache.set_charger(Arc::new(PoolSystemCharger::new(
            workers.iter().map(|w| Arc::clone(&w.pool)).collect(),
        )));
        for (name, stats) in cache.stats_handles() {
            telemetry.register_cache(name, stats);
        }
        let monitor_stop = Arc::new(AtomicBool::new(false));
        let monitor = (config.liveness_timeout > Duration::ZERO).then(|| {
            let workers = workers.clone();
            let telemetry = telemetry.clone();
            let timeout = config.liveness_timeout;
            let stop = Arc::clone(&monitor_stop);
            std::thread::Builder::new()
                .name("liveness-monitor".to_string())
                .spawn(move || run_liveness_monitor(workers, telemetry, timeout, stop))
                .expect("spawn liveness monitor")
        });
        // The self-describing `system` catalog (§VII): live runtime state
        // and the bounded query history as SQL tables. Skipped if the
        // embedder mounted its own "system" catalog.
        let history = QueryHistory::new(config.query_history_capacity);
        if !catalogs.catalog_names().iter().any(|c| c == "system") {
            let provider = ClusterSystemState::new(
                workers.clone(),
                telemetry.clone(),
                Arc::clone(&history),
                trace.clone(),
            );
            catalogs.register("system", SystemConnector::new(provider));
        }
        let coordinator = Arc::new(Coordinator::new(
            config,
            catalogs,
            workers.clone(),
            telemetry,
            reserved,
            history,
            trace.clone(),
        ));
        Ok(Cluster {
            coordinator,
            workers,
            cache,
            trace,
            monitor_stop,
            monitor: parking_lot::Mutex::new(monitor),
        })
    }

    /// The shared trace timeline, if tracing is enabled
    /// (`config.trace_capacity > 0`). Export with
    /// [`TraceBuffer::to_chrome_trace`].
    pub fn trace(&self) -> Option<&Arc<TraceBuffer>> {
        self.trace.as_ref()
    }

    /// A point-in-time snapshot of runtime metrics across the cluster:
    /// scheduler occupancy, memory pools, shuffle, and query gauges (§VII).
    pub fn metrics_snapshot(&self) -> crate::metrics::ClusterSnapshot {
        crate::metrics::ClusterSnapshot::collect(
            &self.workers,
            self.telemetry(),
            self.trace.as_deref(),
        )
    }

    /// The metadata cache shared by this cluster (and any connectors built
    /// around the same instance).
    pub fn metadata_cache(&self) -> &Arc<MetadataCache> {
        &self.cache
    }

    /// Per-worker node-level system memory (cache retention), in bytes.
    pub fn worker_system_memory(&self) -> Vec<i64> {
        self.workers.iter().map(|w| w.pool.system_bytes()).collect()
    }

    /// Execute SQL with the default session, blocking until completion.
    pub fn execute(&self, sql: &str) -> std::result::Result<QueryOutput, QueryError> {
        self.execute_with_session(sql, &Session::default())
    }

    /// Execute SQL under a specific session.
    pub fn execute_with_session(
        &self,
        sql: &str,
        session: &Session,
    ) -> std::result::Result<QueryOutput, QueryError> {
        self.coordinator.execute(sql, session)
    }

    /// Submit a query on a background thread (concurrent workloads).
    pub fn submit(
        &self,
        sql: impl Into<String>,
        session: Session,
    ) -> std::thread::JoinHandle<std::result::Result<QueryOutput, QueryError>> {
        let coordinator = Arc::clone(&self.coordinator);
        let sql = sql.into();
        std::thread::spawn(move || coordinator.execute(&sql, &session))
    }

    pub fn telemetry(&self) -> &ClusterTelemetry {
        &self.coordinator.telemetry
    }

    /// The query-history store backing `system.runtime.queries`: live
    /// queries, and a bounded ring of finished/failed ones with their
    /// per-task summaries.
    pub fn query_history(&self) -> &Arc<QueryHistory> {
        &self.coordinator.history
    }

    pub fn catalogs(&self) -> &CatalogManager {
        &self.coordinator.catalogs
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.coordinator.config
    }

    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Simulate a worker crash (§IV-G): queries with tasks there fail with
    /// the retryable `WorkerFailed` code, and peers never block on exchange
    /// fetch from the dead node (its output buffers abort).
    pub fn kill_worker(&self, index: usize) {
        self.workers[index].kill();
    }

    /// Chaos hook: hang a worker's scheduler — its executor threads stop
    /// taking quanta and stop heartbeating. The liveness detector will
    /// declare it lost after `liveness_timeout`.
    pub fn hang_worker(&self, index: usize) {
        self.workers[index].set_paused(true);
    }

    /// Undo [`hang_worker`](Self::hang_worker) (if the detector has not
    /// already declared the worker lost).
    pub fn resume_worker(&self, index: usize) {
        self.workers[index].set_paused(false);
    }

    /// Lifecycle state of each worker, by index.
    pub fn worker_states(&self) -> Vec<WorkerState> {
        self.workers.iter().map(|w| w.state()).collect()
    }

    /// Unretired tasks per worker. Every entry must drain to zero once the
    /// queries that created them terminate — a nonzero count after teardown
    /// is a stuck task (one of the §IV-G invariants
    /// [`await_quiescent`](Self::await_quiescent) checks).
    pub fn worker_live_tasks(&self) -> Vec<usize> {
        self.workers.iter().map(|w| w.live_tasks().len()).collect()
    }

    /// Live spill run files per worker: zero once every spilling task has
    /// retired (another invariant [`await_quiescent`](Self::await_quiescent)
    /// checks).
    pub fn worker_spill_files(&self) -> Vec<usize> {
        self.workers
            .iter()
            .map(|w| w.spill_files.load(Ordering::Relaxed))
            .collect()
    }

    /// Wait until no query has anything left in the cluster: no live task,
    /// no general or reserved pool byte, no query registered with a node
    /// pool (usage, limits or revocable memory), no running or queued query, no
    /// live history record, no byte parked in an output buffer or an
    /// exchange client nor a request in flight, no spill run file, and no
    /// query state still alive. Returns how long that took, or names the
    /// residue once `grace` has passed.
    pub fn await_quiescent(&self, grace: Duration) -> std::result::Result<Duration, String> {
        let started = Instant::now();
        loop {
            let live = self.worker_live_tasks();
            let spill_files = self.worker_spill_files();
            let snap = self.metrics_snapshot();
            let pools: Vec<(i64, i64)> = snap
                .workers
                .iter()
                .map(|w| (w.memory.general_used, w.memory.reserved_used))
                .collect();
            let registered: Vec<usize> = self
                .workers
                .iter()
                .map(|w| w.pool.registered_queries())
                .collect();
            let queries = (
                snap.queries.running,
                snap.queries.queued,
                self.query_history().live_len(),
                self.coordinator.live_query_states(),
            );
            let shuffle = (
                snap.shuffle.output_buffered_bytes,
                snap.shuffle.exchange_buffered_bytes,
                snap.shuffle.in_flight_requests,
            );
            if live.iter().all(|&n| n == 0)
                && pools.iter().all(|&p| p == (0, 0))
                && registered.iter().all(|&n| n == 0)
                && queries == (0, 0, 0, 0)
                && shuffle == (0, 0, 0)
                && spill_files.iter().all(|&n| n == 0)
            {
                return Ok(started.elapsed());
            }
            if started.elapsed() >= grace {
                return Err(format!(
                    "not quiescent after {grace:?}: live_tasks={live:?} (general,reserved)={pools:?} \
                     registered_queries={registered:?} \
                     (running,queued,live_queries,live_query_states)={queries:?} \
                     (output_buffered_bytes,exchange_buffered_bytes,in_flight_requests)={shuffle:?} \
                     spill_files={spill_files:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Gracefully drain a worker (§IV-G "shutting down"): stop placing new
    /// tasks on it, wait for in-flight placements and running tasks to
    /// finish, then stop its threads. Returns an error if the drain does
    /// not complete within `timeout`.
    pub fn drain_worker(&self, index: usize, timeout: Duration) -> Result<()> {
        let w = &self.workers[index];
        w.begin_drain();
        let deadline = Instant::now() + timeout;
        loop {
            let quiesced = w.leases() == 0 && w.live_tasks().is_empty() && w.backlog() == 0;
            if quiesced && w.state() == WorkerState::Draining {
                // No coordinator is mid-placement (any lease taken after
                // begin_drain observes Draining and excludes this worker),
                // and nothing is running or queued — safe to stop.
                w.shutdown();
                return Ok(());
            }
            if w.is_dead() {
                return Err(presto_common::PrestoError::worker_failed(format!(
                    "worker {} died during drain",
                    w.node
                )));
            }
            if Instant::now() >= deadline {
                return Err(presto_common::PrestoError::internal(format!(
                    "drain of worker {} timed out after {timeout:?} \
                     (leases={}, live_tasks={}, backlog={})",
                    w.node,
                    w.leases(),
                    w.live_tasks().len(),
                    w.backlog()
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Queries currently registered with the coordinator (admitted, not yet
    /// finished).
    pub fn active_queries(&self) -> Vec<QueryId> {
        self.coordinator.active_queries()
    }

    /// Cancel a running query: all its tasks across all workers stop, its
    /// memory returns to the pools, and the submitter gets a `Killed`
    /// error.
    pub fn cancel_query(&self, query: QueryId) -> bool {
        self.coordinator.cancel_query(query)
    }

    /// Stop all worker threads. Queries in flight are cancelled.
    pub fn shutdown(&self) {
        // Stop the failure detector first so it cannot observe workers we
        // are deliberately stopping and "declare them lost".
        self.monitor_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.monitor.lock().take() {
            let _ = h.join();
        }
        for w in &self.workers {
            w.shutdown();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::{DataType, Schema, Value};
    use presto_connectors::MemoryConnector;
    use std::sync::Weak;

    /// What a finished query leaves behind is bounded: its state and tasks
    /// are freed (they used to keep each other alive until process exit,
    /// ≈ 20 KB a query), and nothing outside the history ring keeps a
    /// per-query entry.
    #[test]
    fn finished_queries_are_freed_and_their_records_bounded_by_the_history_ring() {
        let mem = MemoryConnector::new();
        let schema = Schema::of(&[("k", DataType::Bigint)]);
        let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Bigint(i)]).collect();
        mem.load_rows("t", schema, &rows);
        let mut catalogs = CatalogManager::new();
        catalogs.register("memory", mem as Arc<dyn presto_connector::Connector>);
        let config = ClusterConfig {
            query_history_capacity: 4,
            ..ClusterConfig::test()
        };
        let c = Cluster::start(config, catalogs).unwrap();
        let eventually = |what: &str, cond: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(20);
            while !cond() {
                assert!(Instant::now() < deadline, "timed out waiting until {what}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        // Hold the first query in flight — its workers hung — to get at its
        // state and tasks.
        (0..c.worker_count()).for_each(|w| c.hang_worker(w));
        let first = c.submit("SELECT COUNT(*) FROM t", Session::default());
        eventually("every worker has a task of it", &|| {
            c.worker_live_tasks().iter().all(|&n| n > 0)
        });
        let live: Vec<_> = c.workers.iter().flat_map(|w| w.live_tasks()).collect();
        let states: Vec<Weak<_>> = live
            .iter()
            .map(|h| Arc::downgrade(&h.query_state))
            .collect();
        let tasks: Vec<Weak<_>> = live.iter().map(|h| Arc::downgrade(&h.task)).collect();
        let handles: Vec<Weak<_>> = live.iter().map(Arc::downgrade).collect();
        drop(live);
        (0..c.worker_count()).for_each(|w| c.resume_worker(w));
        assert_eq!(first.join().unwrap().unwrap().row_count(), 1);

        for _ in 0..8 {
            c.execute("SELECT COUNT(*) FROM t").unwrap();
        }
        eventually("the first query is freed", &|| {
            states.iter().all(|s| s.upgrade().is_none())
                && tasks.iter().all(|t| t.upgrade().is_none())
                && handles.iter().all(|h| h.upgrade().is_none())
        });
        assert_eq!(c.query_history().len(), 4);
        assert_eq!(c.query_history().evicted(), 5);
        assert_eq!(c.query_history().live_len(), 0, "no live query");
        assert!(c.active_queries().is_empty(), "no running attempt");
    }
}
