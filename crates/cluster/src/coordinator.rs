//! The coordinator: admission, planning, and query orchestration (§III).

use parking_lot::{Condvar, Mutex};
use presto_common::id::QueryIdGenerator;
use presto_common::wake::{Watcher, SAFETY_NET};
use presto_common::{
    DataType, PrestoError, QueryId, Result, Schema, Session, TaskId, TraceBuffer, Value,
};
use presto_connector::CatalogManager;
use presto_exec::task::{create_task, TaskContext};
use presto_exec::{QueryPhases, QueryStats, StageStats};
use presto_page::Page;
use presto_planner::{OutputPartitioning, PhysicalPlan};
use presto_sql::ast::Statement;
use presto_sql::parse_statement;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::config::ClusterConfig;
use crate::history::{self, QueryHistory, QueryHistoryEntry};
use crate::memory::{QueryMemoryLimits, ReservedPoolLock};
use crate::scheduler::{build_side_sources, place_fragments, Feed, Placement, SplitFeeder};
use crate::telemetry::ClusterTelemetry;
use crate::worker::{QueryState, TaskHandle, Worker};

/// A failed query: the error plus its id.
#[derive(Debug, Clone)]
pub struct QueryError {
    pub query: QueryId,
    pub error: PrestoError,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query {} failed: {}", self.query, self.error)
    }
}

impl std::error::Error for QueryError {}

/// Successful query result.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    pub query: QueryId,
    pub schema: Schema,
    pub pages: Vec<Page>,
    pub wall_time: Duration,
    pub queued_time: Duration,
    pub cpu_time: Duration,
}

impl QueryOutput {
    pub fn rows(&self) -> Vec<Vec<Value>> {
        self.pages
            .iter()
            .flat_map(|p| p.to_rows(&self.schema))
            .collect()
    }

    pub fn row_count(&self) -> usize {
        self.pages.iter().map(Page::row_count).sum()
    }
}

/// Output-buffer utilization above which a round-robin producer activates
/// one more writer task (§IV-E3).
const WRITER_SCALE_UP_THRESHOLD: f64 = 0.5;

/// FIFO admission gate ("queue policies", §III). Blocks until a run slot
/// frees; rejects outright above the queue bound.
struct Admission {
    state: Mutex<(usize, usize)>, // (running, waiting)
    cv: Condvar,
    max_running: usize,
    max_waiting: usize,
}

impl Admission {
    fn new(max_running: usize, max_waiting: usize) -> Admission {
        Admission {
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
            max_running,
            max_waiting,
        }
    }

    fn acquire(&self) -> Result<()> {
        let mut state = self.state.lock();
        // Only a query that must wait counts against the queue bound.
        if state.0 >= self.max_running {
            if state.1 >= self.max_waiting {
                return Err(PrestoError::resources(format!(
                    "query queue is full ({} queued)",
                    state.1
                )));
            }
            state.1 += 1;
            while state.0 >= self.max_running {
                self.cv.wait(&mut state);
            }
            state.1 -= 1;
        }
        state.0 += 1;
        Ok(())
    }

    fn release(&self) {
        let mut state = self.state.lock();
        state.0 -= 1;
        self.cv.notify_one();
    }
}

/// The coordinator node.
pub struct Coordinator {
    pub config: ClusterConfig,
    pub catalogs: CatalogManager,
    pub workers: Vec<Arc<Worker>>,
    pub telemetry: ClusterTelemetry,
    pub reserved: Arc<ReservedPoolLock>,
    /// Every query's record (§VII): live ones, with their running attempt
    /// for cancellation, and a bounded ring of ended ones, read by
    /// `system.runtime.queries`/`tasks`/`operators`.
    pub history: Arc<QueryHistory>,
    trace: Option<Arc<TraceBuffer>>,
    ids: QueryIdGenerator,
    admission: Admission,
    /// Query states not yet freed, one per attempt (see [`QueryState`]).
    live_query_states: Arc<AtomicUsize>,
}

impl Coordinator {
    pub fn new(
        config: ClusterConfig,
        catalogs: CatalogManager,
        workers: Vec<Arc<Worker>>,
        telemetry: ClusterTelemetry,
        reserved: Arc<ReservedPoolLock>,
        history: Arc<QueryHistory>,
        trace: Option<Arc<TraceBuffer>>,
    ) -> Coordinator {
        let admission = Admission::new(config.max_concurrent_queries, config.max_queued_queries);
        Coordinator {
            config,
            catalogs,
            workers,
            telemetry,
            reserved,
            history,
            trace,
            ids: QueryIdGenerator::new(),
            admission,
            live_query_states: Arc::default(),
        }
    }

    /// Query states still alive. Zero once every query has ended and
    /// nothing holds an ended query's state.
    pub(crate) fn live_query_states(&self) -> usize {
        self.live_query_states.load(Ordering::Relaxed)
    }

    /// Queries currently executing (admitted, planned, tasks possibly
    /// live).
    pub fn active_queries(&self) -> Vec<QueryId> {
        self.history.running()
    }

    /// Administratively cancel a running query (§IV-G clean teardown):
    /// every task across every worker stops, exchange buffers drain, and
    /// the query's memory returns to the pools. Returns `false` if the
    /// query is not currently running.
    pub fn cancel_query(&self, query: QueryId) -> bool {
        match self.history.attempt(query) {
            Some(state) => {
                state.fail(PrestoError::killed("query cancelled by administrator"));
                true
            }
            None => false,
        }
    }

    /// Execute a SQL statement to completion on the calling thread. The
    /// query's guard ends it on every exit, an unwinding one included.
    pub fn execute(
        &self,
        sql: &str,
        session: &Session,
    ) -> std::result::Result<QueryOutput, QueryError> {
        let mut query = QueryGuard::open(self);
        let result = self.run_query(&mut query, sql, session);
        query.end(result)
    }

    /// Parse, admit and run a statement, retrying it as the session allows.
    fn run_query(
        &self,
        query: &mut QueryGuard<'_>,
        sql: &str,
        session: &Session,
    ) -> Result<(Schema, Vec<Page>)> {
        // Parse before admission so syntax errors fail fast. Either failure
        // ends the query while still queued: it never started running.
        let admitted = parse_statement(sql).and_then(|s| self.admission.acquire().map(|()| s));
        query.run.queued = query.queued_at.elapsed();
        let statement = admitted?;
        query.admitted();
        let (id, run) = (query.id, &mut query.run);
        // Coordinator-level query retry (§IV-G). The paper leaves whole-query
        // retry to external clients; sessions opt in via
        // `query_retry_attempts` for retryable failures (worker loss,
        // exhausted transient externals). Each attempt replans and replaces
        // tasks — a lost worker is excluded the second time around.
        loop {
            match self.run_attempt(id, &statement, session, run) {
                Err(e) if e.is_retryable() && run.attempts <= session.query_retry_attempts => {
                    self.telemetry.record_error("QUERY_RETRY");
                    let backoff = retry_backoff(session.query_retry_backoff, run.attempts, id.0);
                    // Backoff counts as execution-side wall so retried
                    // queries do not inflate the queueing numbers.
                    run.executing += backoff;
                    std::thread::sleep(backoff);
                }
                other => return other,
            }
        }
    }

    /// One attempt at an admitted statement. Its CPU, planning and
    /// execution wall time and, when it got as far as running tasks, its
    /// final statistics accumulate into `run` — failures included (§VII: a
    /// query killed after burning CPU shows the spend).
    fn run_attempt(
        &self,
        query: QueryId,
        statement: &Statement,
        session: &Session,
        run: &mut Progress,
    ) -> Result<(Schema, Vec<Page>)> {
        let attempt_started = Instant::now();
        run.attempts += 1;
        // EXPLAIN returns the distributed plan as text, without running.
        // Everything else runs. EXPLAIN ANALYZE executes the inner
        // statement, discards its rows, and renders the fragment tree
        // annotated with the statistics collected while it ran.
        let (explain, analyze, statement) = match statement {
            Statement::Explain(inner) => (true, false, inner.as_ref()),
            Statement::ExplainAnalyze(inner) => (false, true, inner.as_ref()),
            other => (false, false, other),
        };
        let plan = presto_planner::plan_statement(statement, session, &self.catalogs);
        let planning = attempt_started.elapsed();
        let result = match plan {
            Ok(plan) if explain => Ok(plan_page(plan.explain())),
            Ok(plan) => self.execute_plan(query, &plan, session, analyze, planning, run),
            Err(e) => Err(e),
        };
        run.planning += planning;
        run.executing += attempt_started.elapsed().saturating_sub(planning);
        result
    }

    /// Run a planned statement: its CPU and, when it ran to the end, its
    /// final statistics accumulate into `run`.
    fn execute_plan(
        &self,
        query: QueryId,
        plan: &PhysicalPlan,
        session: &Session,
        analyze: bool,
        planning: Duration,
        run: &mut Progress,
    ) -> Result<(Schema, Vec<Page>)> {
        let mut attempt = Attempt::start(self, query, session);
        let result = self.run_tasks(plan, session, &mut attempt, analyze);
        run.cpu += attempt.state.cpu();
        let (pages, mut stats) = result?;
        stats.phases = QueryPhases {
            queued: run.queued,
            planning,
            execution: stats.wall_time,
            attempts: run.attempts,
        };
        let output = if analyze {
            let metrics = self.telemetry.latency_metrics();
            plan_page(crate::analyze::render_explain_analyze(
                plan, &stats, &metrics,
            ))
        } else {
            (plan.output_schema(), pages)
        };
        run.stats = Some(stats);
        Ok(output)
    }

    fn run_tasks(
        &self,
        plan: &PhysicalPlan,
        session: &Session,
        attempt: &mut Attempt<'_>,
        drain_for_stats: bool,
    ) -> Result<(Vec<Page>, QueryStats)> {
        let started = Instant::now();
        let (state, handles) = (&attempt.state, &mut attempt.tasks);
        let query = state.query;
        // Lease every worker for the placement-to-submission window, THEN
        // read availability. Ordering matters: a graceful drain first flips
        // the worker to Draining, then waits for leases to reach zero — so
        // any lease taken after the flip observes Draining and excludes the
        // worker, and any lease taken before delays the drain until the
        // tasks have actually been submitted. Either way, no task can land
        // on a worker whose threads have stopped.
        let lease = PlacementLease::new(&self.workers);
        let available = lease.available();
        if available.is_empty() {
            return Err(PrestoError::resources(
                "no workers available for placement (all draining, lost, or shut down)",
            ));
        }
        let placements = place_fragments(plan, query, &available);
        // Echo the effective spill knobs into telemetry so `ClusterSnapshot`
        // reports where spill runs land and under what disk budget while
        // the query is still running (§IV-F2).
        if session.spill_enabled {
            let dir = session.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
            self.telemetry
                .record_spill_config(dir.display().to_string(), session.spill_max_bytes);
        }
        // Dynamic filtering (§IV-B2): one registry per query routes
        // build-side key domains from join builds to probe-side scans.
        // Partitioned builds complete a filter after every join-stage task
        // reports its shard; replicated (broadcast) builds see the full
        // build side in every task, so the first report wins.
        let dyn_filters =
            (session.dynamic_filtering && !plan.dynamic_filters.is_empty()).then(|| {
                let registry = presto_exec::DynamicFilterRegistry::new();
                for spec in &plan.dynamic_filters {
                    let expected = if spec.broadcast {
                        1
                    } else {
                        placements[spec.join_fragment as usize].tasks.len()
                    };
                    registry.register(spec.join, expected);
                }
                presto_exec::TaskDynamicFilters::new(registry, plan.dynamic_filters.clone())
            });
        // Create every task (compiled, not yet running).
        let mut tasks: Vec<Vec<presto_exec::Task>> = Vec::with_capacity(plan.fragments.len());
        for fragment in &plan.fragments {
            let placement = &placements[fragment.id as usize];
            // Where each consumer task runs; the root's one consumer is the
            // coordinator's result drain, which stays framed.
            let consumers: Vec<Option<usize>> = if fragment.id == plan.root {
                vec![None]
            } else {
                let consumer = crate::scheduler::consumer_of(plan, fragment.id);
                placements[consumer as usize]
                    .tasks
                    .iter()
                    .copied()
                    .map(Some)
                    .collect()
            };
            let mut fragment_tasks = Vec::new();
            for (task_index, &worker_index) in placement.tasks.iter().enumerate() {
                let ctx = TaskContext {
                    task_id: TaskId {
                        stage: query.stage(fragment.id),
                        task: task_index as u32,
                    },
                    session: session.clone(),
                    catalogs: self.catalogs.clone(),
                    memory_pool: Arc::clone(&self.workers[worker_index].pool)
                        as Arc<dyn presto_exec::MemoryPool>,
                    local_consumers: consumers.iter().map(|&w| w == Some(worker_index)).collect(),
                    leaf_parallelism: self.config.leaf_parallelism,
                    trace: self.trace.clone(),
                    dynamic_filters: dyn_filters.clone(),
                    faults: self.config.faults.clone(),
                    spill_files: Arc::clone(&self.workers[worker_index].spill_files),
                };
                fragment_tasks.push(create_task(fragment, &ctx)?);
            }
            tasks.push(fragment_tasks);
        }
        // Wire exchanges: consumer clients subscribe to producer buffers.
        for fragment_tasks in &tasks {
            for (consumer_index, task) in fragment_tasks.iter().enumerate() {
                for exchange in &task.exchanges {
                    let producers = &tasks[exchange.source_fragment as usize];
                    for producer in producers {
                        exchange
                            .client
                            .add_source(Arc::clone(&producer.output), consumer_index);
                    }
                    exchange.no_more_sources.store(true, Ordering::SeqCst);
                }
            }
        }
        // Writer scaling: round-robin producers start with one active
        // partition; the monitor below raises it under backpressure.
        let mut scaling_buffers = Vec::new();
        for (fid, fragment) in plan.fragments.iter().enumerate() {
            if fragment.output == OutputPartitioning::RoundRobin {
                for task in &tasks[fid] {
                    task.output.set_active_partitions(1);
                    scaling_buffers.push(Arc::clone(&task.output));
                }
            }
        }
        // Submission order: all-at-once, or phased (build sides first).
        let order = match session.scheduling_policy {
            presto_common::session::SchedulingPolicy::AllAtOnce => {
                (0..plan.fragments.len() as u32).collect::<Vec<_>>()
            }
            presto_common::session::SchedulingPolicy::Phased => phased_order(plan),
        };
        // Handles per fragment, for phased waiting.
        handles.resize_with(plan.fragments.len(), Vec::new);
        // Pre-compute phased dependencies.
        let deps: Vec<Vec<u32>> = plan.fragments.iter().map(build_side_sources).collect();
        let phased = session.scheduling_policy == presto_common::session::SchedulingPolicy::Phased;
        // We must take tasks out in submission order.
        let mut task_slots: Vec<Option<Vec<presto_exec::Task>>> =
            tasks.into_iter().map(Some).collect();
        for fid in order {
            if phased {
                // Wait for build-side source fragments to finish first.
                let mut watcher = Watcher::new();
                for &dep in &deps[fid as usize] {
                    loop {
                        let seen = watcher.arm(|w| {
                            state.on_cancel(w);
                            state.on_task_done(w);
                        });
                        if state.is_cancelled() {
                            break;
                        }
                        let done = handles[dep as usize].iter().all(|h| h.is_done())
                            && !handles[dep as usize].is_empty();
                        if done {
                            break;
                        }
                        watcher.wait(seen, SAFETY_NET);
                    }
                }
            }
            let fragment_tasks = task_slots[fid as usize].take().expect("unsubmitted");
            let placement: &Placement = &placements[fid as usize];
            for (i, task) in fragment_tasks.into_iter().enumerate() {
                let worker = &self.workers[placement.tasks[i]];
                let handle = worker.submit_task(task, Arc::clone(state));
                handles[fid as usize].push(handle);
            }
            // Feed splits for this fragment's scans.
            self.feed_fragment_splits(
                fid,
                placement,
                &handles[fid as usize],
                state,
                session,
                dyn_filters.as_ref(),
            )?;
        }
        // All tasks are submitted; drains may proceed (running tasks still
        // hold the worker via live_tasks()).
        drop(lease);
        // Drive: long-poll the root output (§IV-E2), monitor writer scaling,
        // watch errors. The poll is held on the root buffer's data event
        // and the query's failure event, not re-issued on a timer.
        let root_handles = &handles[plan.root as usize];
        let root_output = Arc::clone(&root_handles[0].task.output);
        let mut pages = Vec::new();
        let mut token = 0u64;
        let mut watcher = Watcher::new();
        // Writer scaling samples buffer utilization, which announces
        // nothing: while there is a buffer to sample, keep its tick.
        let tick = if scaling_buffers.is_empty() {
            SAFETY_NET
        } else {
            Duration::from_micros(200)
        };
        loop {
            let seen = watcher.arm(|w| {
                root_output.on_data(0, w);
                state.on_cancel(w);
            });
            if let Some(e) = state.error() {
                return Err(e);
            }
            let response = root_output.poll(0, token, 1 << 20);
            token = response.next_token;
            let idle = response.pages.is_empty();
            for payload in response.pages {
                pages.push(payload.into_page()?);
            }
            if response.finished {
                break;
            }
            // Adaptive writer scaling (§IV-E3).
            for buffer in &scaling_buffers {
                if buffer.utilization() > WRITER_SCALE_UP_THRESHOLD {
                    let active = buffer.active_partitions();
                    if active < buffer.consumer_count() {
                        buffer.set_active_partitions(active + 1);
                    }
                }
            }
            if idle {
                watcher.wait(seen, tick);
            }
        }
        if let Some(e) = state.error() {
            return Err(e);
        }
        // Roll this query's dynamic-filtering savings into the
        // cluster-lifetime counters exported by `ClusterSnapshot`.
        if let Some(df) = &dyn_filters {
            self.telemetry
                .record_dynamic_filters(df.registry.totals().snapshot());
        }
        if drain_for_stats {
            // Give in-flight drivers a moment to retire so their final
            // reports land in the rollup. Bounded: LIMIT-style plans leave
            // leaf drivers running until cancellation, and those report
            // whatever they had when cancelled.
            let deadline = Instant::now() + Duration::from_millis(500);
            let mut watcher = Watcher::new();
            loop {
                let seen = watcher.arm(|w| state.on_task_done(w));
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() || handles.iter().flatten().all(|h| h.is_done()) {
                    break;
                }
                watcher.wait(seen, left.min(SAFETY_NET));
            }
        }
        // Final statistics are always assembled (§VII: "Presto collects
        // and stores operator level statistics … for every query") — they
        // feed the query-history store behind `system.runtime.*` and, for
        // EXPLAIN ANALYZE, the rendered plan. Best-effort for plain
        // queries (drivers retire asynchronously); stats-bearing queries
        // waited for the drain above.
        let stats = QueryStats {
            query,
            stages: handles
                .iter()
                .enumerate()
                .map(|(fid, hs)| StageStats {
                    stage: fid as u32,
                    tasks: hs.iter().map(|h| h.task.stats_snapshot()).collect(),
                })
                .collect(),
            total_cpu: state.cpu(),
            wall_time: started.elapsed(),
            phases: QueryPhases::default(),
        };
        // Roll this query's pipeline-fusion and spill totals into the
        // cluster-lifetime counters exported by `ClusterSnapshot`. Fused
        // operators export their per-stage row counts, and every spilling
        // operator (grace-join build/probe, agg, sort) its
        // `spilled_bytes`/`spill_events`, as uniform OperatorStats
        // counters, so one pass over the same snapshot sums both.
        let mut fusion = crate::telemetry::FusionMetrics::default();
        let (mut spilled_bytes, mut spill_events) = (0u64, 0u64);
        for op in stats
            .stages
            .iter()
            .flat_map(|s| &s.tasks)
            .flat_map(|t| &t.pipelines)
            .flat_map(|p| &p.operators)
        {
            let c = |n: &str| op.stats.counter(n).unwrap_or(0);
            spilled_bytes += c("spilled_bytes");
            spill_events += c("spill_events");
            if op.name == "FusedPipeline" {
                fusion.pipelines += 1;
                fusion.scan_rows += c("fused_scan_rows");
                fusion.filter_rows += c("fused_filter_rows");
                fusion.project_rows += c("fused_project_rows");
                fusion.agg_rows += c("fused_agg_rows");
                fusion.rows_produced += op.stats.output_rows;
            }
        }
        if fusion.pipelines > 0 {
            self.telemetry.record_fusion(fusion);
        }
        if spill_events > 0 || spilled_bytes > 0 {
            self.telemetry.record_spill(spilled_bytes, spill_events);
        }
        Ok((pages, stats))
    }

    /// Feed the splits of every scan of a fragment (§IV-D3). Each scan is
    /// fed inline until its source is finished or its task queues are
    /// full; only a scan left with full queues continues on a feeder
    /// thread of its own. The inline pass never waits, so (a) co-located
    /// fragments with two scans cannot deadlock on bounded split queues,
    /// and (b) queries start returning results before enumeration of a
    /// large source completes.
    fn feed_fragment_splits(
        &self,
        fid: u32,
        placement: &Placement,
        handles: &[Arc<TaskHandle>],
        state: &Arc<QueryState>,
        session: &Session,
        dyn_filters: Option<&Arc<presto_exec::TaskDynamicFilters>>,
    ) -> Result<()> {
        let Some(first) = handles.first() else {
            return Ok(());
        };
        for (scan_idx, scan) in first.task.scans.iter().enumerate() {
            let queues = handles
                .iter()
                .zip(&placement.tasks)
                .map(|(h, &w)| {
                    (
                        self.workers[w].node,
                        Arc::clone(&h.task.scans[scan_idx].queue),
                    )
                })
                .collect();
            // Feeder-side consumer handle when a dynamic filter targets
            // this scan: prunes still-unassigned splits once the filter
            // arrives, within the same bounded wait the operators use.
            let scan_filter = dyn_filters.and_then(|df| {
                let specs = df.specs_for_scan(scan.node_id);
                (!specs.is_empty()).then(|| {
                    presto_exec::ScanDynamicFilter::new(
                        Arc::clone(&df.registry),
                        specs,
                        session.dynamic_filter_wait,
                    )
                })
            });
            let source = self.catalogs.catalog(&scan.catalog)?.split_source(
                &scan.table,
                &scan.layout,
                &scan.predicate,
            )?;
            let mut feeder = SplitFeeder::new(
                source,
                queues,
                placement.bucketed,
                scan_filter,
                &self.config,
            );
            match feeder.feed(state) {
                Ok(Feed::Done) => continue,
                Ok(Feed::Full) => {}
                Err(e) => {
                    // Unblock scan drivers waiting for splits.
                    feeder.close();
                    return Err(e);
                }
            }
            let state = Arc::clone(state);
            std::thread::Builder::new()
                .name(format!("split-feed-{fid}-{scan_idx}"))
                .spawn(move || {
                    // A connector that panics here fails the query like
                    // one that returns an error; nothing else would end it.
                    let fed = std::panic::catch_unwind(AssertUnwindSafe(|| feeder.run(&state)));
                    let panicked = || PrestoError::internal("split enumeration panicked");
                    if let Err(e) = fed.unwrap_or_else(|_| Err(panicked())) {
                        state.fail(e);
                        feeder.close();
                    }
                })
                .map_err(|e| PrestoError::internal(format!("spawn split feeder: {e}")))?;
        }
        Ok(())
    }
}

/// What a query has accumulated by the time it ends; its guard turns it
/// into the history entry. Explicit phase measurements (§VII): queued is
/// measured once, at admission; planning, executing and CPU sum over
/// attempts.
#[derive(Default)]
struct Progress {
    queued: Duration,
    /// Set at admission; `None` for a query that never started.
    started_at: Option<Instant>,
    planning: Duration,
    executing: Duration,
    cpu: Duration,
    /// 1 + retries; 0 for a query that never started.
    attempts: u32,
    /// The last attempt's final statistics, when one ran tasks.
    stats: Option<QueryStats>,
}

impl Progress {
    fn wall(&self) -> Duration {
        self.started_at.map_or(Duration::ZERO, |s| s.elapsed())
    }
}

/// A query from submission to its end. It owns the query's open history
/// record, its place in the queued or running gauge and, once admitted, its
/// admission slot; its `Drop` gives all three back and records how the
/// query ended. A query whose thread unwinds before [`end`](Self::end) is
/// recorded as an internal failure, so a return, an error and a panic all
/// end a query the same way.
struct QueryGuard<'a> {
    coordinator: &'a Coordinator,
    id: QueryId,
    queued_at: Instant,
    run: Progress,
    /// Set by `end`: the wall time and the rows returned, or the error.
    outcome: Option<(Duration, Result<u64>)>,
}

impl<'a> QueryGuard<'a> {
    fn open(coordinator: &'a Coordinator) -> QueryGuard<'a> {
        let id = coordinator.ids.next_id();
        let queued_at = Instant::now();
        coordinator.telemetry.query_queued();
        coordinator.history.open(id, queued_at);
        QueryGuard {
            coordinator,
            id,
            queued_at,
            run: Progress::default(),
            outcome: None,
        }
    }

    /// The query took an admission slot: it runs from now on, and the
    /// guard gives the slot back.
    fn admitted(&mut self) {
        self.coordinator.telemetry.query_started();
        self.coordinator.history.start(self.id);
        self.run.started_at = Some(Instant::now());
    }

    /// Close the query with its result, which the caller gets back.
    fn end(
        mut self,
        result: Result<(Schema, Vec<Page>)>,
    ) -> std::result::Result<QueryOutput, QueryError> {
        let (query, wall) = (self.id, self.run.wall());
        let rows = result
            .as_ref()
            .map(|(_, pages)| pages.iter().map(Page::row_count).sum::<usize>() as u64);
        self.outcome = Some((wall, rows.map_err(PrestoError::clone)));
        match result {
            Ok((schema, pages)) => Ok(QueryOutput {
                query,
                schema,
                pages,
                wall_time: wall,
                queued_time: self.run.queued,
                cpu_time: self.run.cpu,
            }),
            Err(error) => Err(QueryError { query, error }),
        }
    }
}

impl Drop for QueryGuard<'_> {
    fn drop(&mut self) {
        let (c, run) = (self.coordinator, &self.run);
        let (wall, outcome) = self.outcome.take().unwrap_or_else(|| {
            let panicked = PrestoError::internal("the query's thread panicked");
            (run.wall(), Err(panicked))
        });
        let started = run.started_at.is_some();
        if started {
            c.admission.release();
            c.telemetry
                .record_query_phases(run.queued, run.planning, run.executing);
        }
        let error = outcome.as_ref().err();
        let failed = error.is_some();
        if let Some(e) = error {
            c.telemetry.record_error(e.code.tag());
        }
        let (tasks, peak_memory_bytes) = run
            .stats
            .as_ref()
            .map(history::summarize_stats)
            .unwrap_or_default();
        c.history.record(QueryHistoryEntry {
            query: self.id,
            state: if failed { "failed" } else { "finished" },
            error_tag: error.map(|e| e.code.tag()),
            error_message: error.map(|e| e.message.clone()),
            queued: run.queued,
            planning: run.planning,
            executing: run.executing,
            cpu: run.cpu,
            wall,
            attempts: run.attempts,
            peak_memory_bytes,
            rows_returned: *outcome.as_ref().unwrap_or(&0),
            tasks,
        });
        c.telemetry.query_finished(started, failed);
    }
}

/// One attempt at running a planned query, from task creation to its end.
/// It owns the attempt's [`QueryState`] (attached to the history record, so
/// the query can be cancelled), the query's registration in every worker's
/// memory pool, its claim on the reserved pool, and a handle on every task
/// it submitted. Its `Drop` ends the attempt on return, error and unwind
/// alike.
struct Attempt<'a> {
    coordinator: &'a Coordinator,
    state: Arc<QueryState>,
    /// The submitted tasks, by fragment.
    tasks: Vec<Vec<Arc<TaskHandle>>>,
}

impl<'a> Attempt<'a> {
    fn start(c: &'a Coordinator, query: QueryId, session: &Session) -> Attempt<'a> {
        let state = QueryState::new(query, &c.live_query_states);
        c.history.set_attempt(query, Some(Arc::clone(&state)));
        let limits = QueryMemoryLimits::new(
            query,
            session.query_max_memory,
            session.query_max_memory_per_node,
            session.query_max_total_memory_per_node,
        );
        for w in &c.workers {
            w.pool.register_query(Arc::clone(&limits));
        }
        Attempt {
            coordinator: c,
            state,
            tasks: Vec::new(),
        }
    }
}

impl Drop for Attempt<'_> {
    fn drop(&mut self) {
        let (c, query) = (self.coordinator, self.state.query);
        // Cancel first so stragglers (e.g. leaf drivers of a LIMIT query
        // that finished early) stop before their memory registration
        // disappears.
        self.state.retire();
        // Roll the query's exchange traffic into the cluster-lifetime
        // shuffle counters; from here on snapshots no longer count its
        // tasks as running.
        let mut received = crate::metrics::ShuffleMetrics::default();
        for e in self.tasks.iter().flatten().flat_map(|t| &t.task.exchanges) {
            received.add_received(&e.client);
        }
        c.telemetry.record_shuffle(received);
        c.history.set_attempt(query, None);
        for w in &c.workers {
            w.pool.unregister_query(query);
        }
        // Only once no node holds the query's balance: a node that still
        // did could promote the ended query again.
        c.reserved.release(query);
    }
}

/// RAII guard over the placement-to-submission window: holds one lease on
/// every worker so a graceful drain cannot stop threads between "placement
/// computed" and "tasks submitted" (see `run_tasks` for the ordering
/// argument).
struct PlacementLease<'a> {
    workers: &'a [Arc<Worker>],
}

impl<'a> PlacementLease<'a> {
    fn new(workers: &'a [Arc<Worker>]) -> PlacementLease<'a> {
        for w in workers {
            w.lease();
        }
        PlacementLease { workers }
    }

    /// Indices of workers placement may use, read *after* the leases are
    /// held.
    fn available(&self) -> Vec<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.is_available())
            .map(|(i, _)| i)
            .collect()
    }
}

impl Drop for PlacementLease<'_> {
    fn drop(&mut self) {
        for w in self.workers {
            w.release_lease();
        }
    }
}

/// A one-row result holding `text`, as EXPLAIN returns it.
fn plan_page(text: String) -> (Schema, Vec<Page>) {
    let schema = Schema::of(&[("plan", DataType::Varchar)]);
    let page = Page::from_rows(&schema, &[vec![Value::varchar(text)]]);
    (schema, vec![page])
}

/// Exponential backoff with deterministic jitter for coordinator-level
/// query retry: attempt `n` (1-based) sleeps `base * 2^(n-1)` plus up to
/// 50% jitter derived from the query id, so queries retried after the same
/// worker loss do not stampede in lockstep.
fn retry_backoff(base: Duration, attempt: u32, salt: u64) -> Duration {
    let base_ns = base.as_nanos() as u64;
    let step = base_ns.saturating_mul(1u64 << attempt.saturating_sub(1).min(20));
    let jitter = presto_common::chaos::mix(salt ^ u64::from(attempt)) % (step / 2 + 1);
    Duration::from_nanos(step.saturating_add(jitter))
}

/// Topological order of fragments, children first.
fn phased_order(plan: &PhysicalPlan) -> Vec<u32> {
    let mut order = Vec::new();
    let mut visited = vec![false; plan.fragments.len()];
    fn visit(plan: &PhysicalPlan, id: u32, visited: &mut [bool], out: &mut Vec<u32>) {
        if visited[id as usize] {
            return;
        }
        visited[id as usize] = true;
        for child in plan.fragment(id).source_fragments() {
            visit(plan, child, visited, out);
        }
        out.push(id);
    }
    visit(plan, plan.root, &mut visited, &mut order);
    // Any unreachable fragments (none expected) appended for safety.
    for f in 0..plan.fragments.len() as u32 {
        if !visited[f as usize] {
            order.push(f);
        }
    }
    order
}
