//! Worker nodes: cooperative multitasking executor threads (§IV-F1).
//!
//! "Presto schedules many concurrent tasks on every worker node to achieve
//! multi-tenancy and uses a cooperative multi-tasking model. Any given
//! split is only allowed to run on a thread for a maximum quanta of one
//! second, after which it must relinquish the thread and return to the
//! queue. When output buffers are full … input buffers are empty … or the
//! system is out of memory, the local scheduler simply switches to
//! processing another task."

use parking_lot::Mutex;
use presto_common::wake::{Bell, WakeList, Waker, SAFETY_NET};
use presto_common::{counter_set, NodeId, PrestoError, QueryId, TaskId, TraceBuffer, TraceKind};
use presto_exec::{BlockedReason, Driver, DriverState, Task};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crate::memory::NodeMemoryPool;
use crate::mlfq::MultilevelQueue;
use crate::telemetry::ClusterTelemetry;

/// Maximum uninterrupted run of one split on a thread (§IV-F1; the paper
/// uses one second, scaled down for the simulated cluster).
const QUANTA: Duration = Duration::from_millis(10);

/// Lifecycle of a worker node, exported by `ClusterSnapshot` (§IV-G).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Healthy: accepts new task placement.
    Active = 0,
    /// Graceful drain ("shutting down" in the paper): no new placement,
    /// running tasks finish.
    Draining = 1,
    /// Crashed or declared dead by the liveness detector; tasks failed.
    Lost = 2,
    /// Threads stopped cleanly (drain completed or cluster shutdown).
    Shutdown = 3,
}

impl WorkerState {
    pub fn as_str(&self) -> &'static str {
        match self {
            WorkerState::Active => "active",
            WorkerState::Draining => "draining",
            WorkerState::Lost => "lost",
            WorkerState::Shutdown => "shutdown",
        }
    }

    pub fn parse(s: &str) -> Option<WorkerState> {
        Some(match s {
            "active" => WorkerState::Active,
            "draining" => WorkerState::Draining,
            "lost" => WorkerState::Lost,
            "shutdown" => WorkerState::Shutdown,
            _ => return None,
        })
    }

    fn from_u8(v: u8) -> WorkerState {
        match v {
            1 => WorkerState::Draining,
            2 => WorkerState::Lost,
            3 => WorkerState::Shutdown,
            _ => WorkerState::Active,
        }
    }
}

/// Shared, cluster-wide state of one query (error slot + cancellation).
pub struct QueryState {
    pub query: QueryId,
    error: Mutex<Option<PrestoError>>,
    cancelled: AtomicBool,
    /// Set by [`retire`](Self::retire): the query has ended.
    retired: AtomicBool,
    cpu_nanos: AtomicU64,
    /// The query's tasks, for the cancel fan-out. Weak: each task holds
    /// this state, and the coordinator's attempt owns the tasks.
    tasks: Mutex<Vec<Weak<TaskHandle>>>,
    /// Threads that must hear of the query's end (the coordinator's drain,
    /// split feeders): fired by a failure or cancel.
    cancel_waiters: WakeList,
    /// Threads waiting for tasks to complete (the phased-stage wait, the
    /// stats drain): fired by each task that does.
    task_done_waiters: WakeList,
    /// The cluster's count of live query states, moved here and in `drop`:
    /// quiescence requires it at zero, so nothing may keep an ended
    /// query's state alive.
    live: Arc<AtomicUsize>,
}

impl QueryState {
    pub fn new(query: QueryId, live: &Arc<AtomicUsize>) -> Arc<QueryState> {
        live.fetch_add(1, Ordering::Relaxed);
        Arc::new(QueryState {
            query,
            error: Mutex::new(None),
            cancelled: AtomicBool::new(false),
            retired: AtomicBool::new(false),
            cpu_nanos: AtomicU64::new(0),
            tasks: Mutex::new(Vec::new()),
            cancel_waiters: WakeList::new(),
            task_done_waiters: WakeList::new(),
            live: Arc::clone(live),
        })
    }

    /// `waker` fires when the query fails or is cancelled. Look at the
    /// state again after registering.
    pub fn on_cancel(&self, waker: &Waker) {
        self.cancel_waiters.register(waker);
    }

    /// `waker` fires whenever one of the query's tasks completes. Look at
    /// the tasks again after registering.
    pub fn on_task_done(&self, waker: &Waker) {
        self.task_done_waiters.register(waker);
    }

    /// Record a failure and cancel every task of the query. First error
    /// wins.
    pub fn fail(&self, error: PrestoError) {
        {
            let mut slot = self.error.lock();
            if slot.is_none() {
                *slot = Some(error);
            }
        }
        self.cancel();
    }

    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        for task in self.tasks.lock().iter().filter_map(Weak::upgrade) {
            task.cancel();
        }
        self.cancel_waiters.wake_all();
    }

    /// End of the query: cancel whatever still runs.
    pub fn retire(&self) {
        self.retired.store(true, Ordering::SeqCst);
        self.cancel();
    }

    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::SeqCst)
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    pub fn error(&self) -> Option<PrestoError> {
        self.error.lock().clone()
    }

    pub fn add_cpu(&self, d: Duration) {
        self.cpu_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn cpu(&self) -> Duration {
        Duration::from_nanos(self.cpu_nanos.load(Ordering::Relaxed))
    }
}

impl Drop for QueryState {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One task as the worker sees it.
pub struct TaskHandle {
    pub id: TaskId,
    pub query_state: Arc<QueryState>,
    /// The compiled task (output buffer, scan queues, exchange inputs) —
    /// the coordinator wires exchanges and feeds splits through this.
    pub task: Arc<Task>,
    cpu_nanos: AtomicU64,
    remaining_drivers: AtomicUsize,
    cancelled: AtomicBool,
    done: AtomicBool,
    /// The bell of the worker running this task: a cancel must reach its
    /// parked drivers.
    bell: Arc<Bell>,
}

impl TaskHandle {
    pub fn cpu(&self) -> Duration {
        Duration::from_nanos(self.cpu_nanos.load(Ordering::Relaxed))
    }

    /// Clean teardown (§IV-G): stop the task's drivers, release the output
    /// buffer's retained wire bytes (consumers observe a clean
    /// end-of-stream), and stop this task's own exchange fetches/retries
    /// immediately. Called for every sibling task when a query fails, is
    /// cancelled, or completes early (LIMIT).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        self.task.output.close();
        for e in &self.task.exchanges {
            e.client.cancel();
        }
        // Every query ends by cancelling its tasks; only one that still
        // has drivers has any to call back.
        if !self.is_done() {
            self.bell.ring();
        }
    }

    /// Forced teardown for tasks on a crashed or lost worker: like
    /// [`cancel`](Self::cancel), but the output buffer is *aborted* so
    /// remote consumers surface `WorkerFailed` instead of a clean
    /// end-of-stream, and the task is marked done immediately — its queued
    /// drivers will never run, so nothing else would ever retire it.
    pub fn abort(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        self.task.output.abort();
        for e in &self.task.exchanges {
            e.client.cancel();
        }
        if !self.done.swap(true, Ordering::SeqCst) {
            self.query_state.task_done_waiters.wake_all();
        }
        self.bell.ring();
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }

    /// Retire one driver, folding its statistics into the task rollup.
    /// Every retirement path (finished, failed, cancelled) comes through
    /// here so the §VII counters survive the driver itself.
    fn driver_done(&self, driver: Option<&Driver>) {
        if let Some(driver) = driver {
            self.task.stats.record(driver.stats_report());
        }
        if self.remaining_drivers.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.done.store(true, Ordering::SeqCst);
            self.query_state.task_done_waiters.wake_all();
        }
    }
}

/// One queued unit of work: a driver plus its task. Public in name only —
/// it appears in [`Worker::scheduler_queue`]'s type, but its fields and
/// construction stay private to this module.
pub struct DriverRun {
    driver: Driver,
    task: Arc<TaskHandle>,
    /// The waker registered for the wait this driver is in, with the
    /// operators it covers ([`Driver::blocked_on`]). Set when a `Blocked`
    /// return arms it; the driver sleeps on it only if the quantum after
    /// that blocks on the same operators with the waker still silent.
    armed: Option<(Waker, u64)>,
    /// Re-admitted because its safety-net deadline passed, not because its
    /// waker fired: progress now means an event went missing.
    overslept: bool,
}

/// A driver off the run queue until `deadline` — or, when it is
/// [`armed`](DriverRun::armed), until its waker fires.
struct Parked {
    deadline: Instant,
    run: DriverRun,
}

/// Re-poll interval of a wait no event announces: memory, injected
/// exchange latency, retry backoff, the dynamic-filter deadline.
const TIMED_REPOLL: Duration = Duration::from_micros(200);

/// Longest an executor thread sleeps with nothing to do. It heartbeats
/// each time round, so this must stay well under any `liveness_timeout`.
const IDLE_WAIT: Duration = Duration::from_millis(10);

counter_set! {
    /// How this worker's drivers have waited, since startup (§IV-F1).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct WakeupSnapshot[json, atomic(WakeupCounters)] {
        /// Drivers put to sleep on an event.
        parks: u64,
        /// Sleeping drivers brought back by their event.
        event_wakeups: u64,
        /// Waits no event announces, re-polled on a timer.
        timed_repolls: u64,
        /// Drivers that slept to their safety-net deadline and could then make
        /// progress although nothing had woken them: lost wakeups. Zero unless
        /// there is a bug.
        safety_net_fires: u64,
    }
}

/// A worker node: N executor threads over a multilevel feedback queue.
pub struct Worker {
    pub node: NodeId,
    pub pool: Arc<NodeMemoryPool>,
    /// Live spill run files of every task placed here (§IV-F2); each task's
    /// spill manager keeps it in step with its own count.
    pub spill_files: Arc<AtomicUsize>,
    queue: Arc<MultilevelQueue<DriverRun>>,
    blocked: Arc<Mutex<VecDeque<Parked>>>,
    /// What idle executor threads sleep on. Rung once per driver that
    /// becomes runnable (a submit, a re-queue, a fired waker) and for
    /// everything else that ends a wait: cancel, kill, resume, shutdown.
    bell: Arc<Bell>,
    wakeups: WakeupCounters,
    shutdown: Arc<AtomicBool>,
    dead: Arc<AtomicBool>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    telemetry: ClusterTelemetry,
    worker_index: usize,
    /// Tasks currently known to this worker (for kill()).
    tasks: Mutex<Vec<Arc<TaskHandle>>>,
    running_drivers: Arc<AtomicUsize>,
    trace: Option<Arc<TraceBuffer>>,
    /// Lifecycle state ([`WorkerState`] as u8), exported to snapshots and
    /// consulted by placement.
    state: AtomicU8,
    /// Monotone liveness counter, bumped by executor threads between quanta
    /// (and while idle). The coordinator's failure detector declares the
    /// worker lost when it stops advancing for `liveness_timeout`.
    heartbeat: AtomicU64,
    /// Chaos hook: a paused worker's scheduler stops taking quanta (and
    /// stops heartbeating) — the injected "hung worker" fault.
    paused: AtomicBool,
    /// Coordinators mid-placement hold a lease so a graceful drain cannot
    /// stop the threads between placement and task submission.
    leases: AtomicUsize,
}

impl Worker {
    pub fn start(
        node: NodeId,
        worker_index: usize,
        threads: usize,
        pool: Arc<NodeMemoryPool>,
        telemetry: ClusterTelemetry,
        trace: Option<Arc<TraceBuffer>>,
    ) -> Arc<Worker> {
        let worker = Arc::new(Worker {
            node,
            pool,
            spill_files: Arc::default(),
            queue: Arc::new(MultilevelQueue::new()),
            blocked: Arc::new(Mutex::new(VecDeque::new())),
            bell: Bell::new(),
            wakeups: WakeupCounters::default(),
            shutdown: Arc::new(AtomicBool::new(false)),
            dead: Arc::new(AtomicBool::new(false)),
            threads: Mutex::new(Vec::new()),
            telemetry,
            worker_index,
            tasks: Mutex::new(Vec::new()),
            running_drivers: Arc::new(AtomicUsize::new(0)),
            trace,
            state: AtomicU8::new(WorkerState::Active as u8),
            heartbeat: AtomicU64::new(0),
            paused: AtomicBool::new(false),
            leases: AtomicUsize::new(0),
        });
        let mut handles = Vec::new();
        for t in 0..threads {
            let w = Arc::clone(&worker);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("worker-{}-{t}", node.0))
                    .spawn(move || w.run_executor(t as u32))
                    .expect("spawn worker thread"),
            );
        }
        *worker.threads.lock() = handles;
        worker
    }

    /// Accept a compiled task: its drivers enter the scheduling queue.
    pub fn submit_task(&self, task: Task, query_state: Arc<QueryState>) -> Arc<TaskHandle> {
        let drivers = std::mem::take(&mut *task.drivers.lock());
        let handle = Arc::new(TaskHandle {
            id: task.id,
            query_state: Arc::clone(&query_state),
            task: Arc::new(task),
            cpu_nanos: AtomicU64::new(0),
            remaining_drivers: AtomicUsize::new(drivers.len().max(1)),
            cancelled: AtomicBool::new(false),
            done: AtomicBool::new(drivers.is_empty()),
            bell: Arc::clone(&self.bell),
        });
        query_state.tasks.lock().push(Arc::downgrade(&handle));
        // A dead or stopped worker will never run these drivers; fail the
        // query promptly instead of letting the task hang forever.
        if self.is_dead() || self.state() == WorkerState::Shutdown {
            query_state.fail(PrestoError::worker_failed(format!(
                "worker {} is not accepting tasks ({})",
                self.node,
                self.state().as_str()
            )));
            handle.abort();
            return handle;
        }
        if !handle.is_done() {
            self.tasks.lock().push(Arc::clone(&handle));
        }
        for driver in drivers {
            self.enqueue(
                DriverRun {
                    driver,
                    task: Arc::clone(&handle),
                    armed: None,
                    overslept: false,
                },
                Duration::ZERO,
            );
        }
        // Close the race with a concurrent kill(): if the worker died while
        // we were enqueuing, the kill may have drained the queue before (or
        // while) our drivers landed — abort them here so the task retires.
        if self.is_dead() {
            query_state.fail(PrestoError::worker_failed(format!(
                "worker {} crashed",
                self.node
            )));
            drop(self.queue.drain());
            self.blocked.lock().clear();
            handle.abort();
            self.tasks.lock().retain(|t| !t.is_done());
        }
        handle
    }

    /// Pending work (runnable + parked drivers).
    pub fn backlog(&self) -> usize {
        self.queue.len() + self.blocked.lock().len()
    }

    /// Drivers currently executing a quantum on this worker's threads.
    pub fn running_drivers(&self) -> usize {
        self.running_drivers.load(Ordering::Relaxed)
    }

    /// Drivers parked on a blocked condition (backoff pending).
    pub fn blocked_drivers(&self) -> usize {
        self.blocked.lock().len()
    }

    /// How drivers have waited on this worker, for metrics snapshots.
    pub fn wakeups(&self) -> WakeupSnapshot {
        self.wakeups.snapshot()
    }

    /// The worker's MLFQ, for metrics snapshots.
    pub fn scheduler_queue(&self) -> &MultilevelQueue<DriverRun> {
        &self.queue
    }

    /// Tasks submitted to this worker that have not completed yet (the
    /// source of the mid-flight shuffle gauges in metrics snapshots).
    pub fn live_tasks(&self) -> Vec<Arc<TaskHandle>> {
        self.tasks
            .lock()
            .iter()
            .filter(|t| !t.is_done())
            .cloned()
            .collect()
    }

    /// Simulated crash (§IV-G): every task on this worker fails with the
    /// retryable `WorkerFailed` code; the node stops processing.
    pub fn kill(&self) {
        self.kill_with("crashed");
    }

    /// Crash / declare-lost implementation shared by [`kill`](Self::kill)
    /// and the liveness detector. In-flight tasks fail their queries
    /// promptly (peers must not block on exchange fetch from a dead
    /// source), queued drivers are aborted so no task lingers half-retired,
    /// and the worker's task memory returns to the pool.
    pub fn kill_with(&self, why: &str) {
        if self.dead.swap(true, Ordering::SeqCst) {
            return;
        }
        self.set_state(WorkerState::Lost);
        let tasks = std::mem::take(&mut *self.tasks.lock());
        for task in tasks {
            if !task.is_done() {
                task.query_state.fail(PrestoError::worker_failed(format!(
                    "worker {} {why}",
                    self.node
                )));
                task.abort();
            }
        }
        drop(self.queue.drain());
        self.blocked.lock().clear();
        self.bell.ring_all();
    }

    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Current lifecycle state.
    pub fn state(&self) -> WorkerState {
        WorkerState::from_u8(self.state.load(Ordering::SeqCst))
    }

    fn set_state(&self, state: WorkerState) {
        self.state.store(state as u8, Ordering::SeqCst);
    }

    /// Healthy and accepting new placement: `Active`, not dead, not paused
    /// into oblivion (a hung worker stays nominally available until the
    /// detector declares it lost — exactly the window the paper's
    /// heartbeat monitoring closes).
    pub fn is_available(&self) -> bool {
        self.state() == WorkerState::Active && !self.is_dead()
    }

    /// Enter graceful drain ("shutting down", §IV-G): placement skips this
    /// worker from now on; running tasks continue to completion.
    pub fn begin_drain(&self) {
        let _ = self.state.compare_exchange(
            WorkerState::Active as u8,
            WorkerState::Draining as u8,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// Liveness counter; advances while executor threads are taking (or
    /// waiting for) quanta. Frozen when hung or dead.
    pub fn heartbeat(&self) -> u64 {
        self.heartbeat.load(Ordering::Relaxed)
    }

    /// Chaos hook: pause/unpause the scheduler loop. A paused worker stops
    /// taking quanta and stops heartbeating — indistinguishable from a hung
    /// process to the failure detector.
    pub fn set_paused(&self, paused: bool) {
        self.paused.store(paused, Ordering::SeqCst);
        self.bell.ring_all();
    }

    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::SeqCst)
    }

    /// Take a placement lease. While any coordinator holds one, a graceful
    /// drain must keep the worker's threads running: the lease closes the
    /// race between "placement computed" and "tasks submitted".
    pub fn lease(&self) {
        self.leases.fetch_add(1, Ordering::SeqCst);
    }

    pub fn release_lease(&self) {
        self.leases.fetch_sub(1, Ordering::SeqCst);
    }

    pub fn leases(&self) -> usize {
        self.leases.load(Ordering::SeqCst)
    }

    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if self.state() != WorkerState::Lost {
            self.set_state(WorkerState::Shutdown);
        }
        self.bell.ring_all();
        let handles = std::mem::take(&mut *self.threads.lock());
        for h in handles {
            let _ = h.join();
        }
    }

    /// Make a driver runnable and call one executor thread to it.
    fn enqueue(&self, run: DriverRun, task_cpu: Duration) {
        self.queue.push(run, task_cpu);
        self.bell.ring();
    }

    /// Take a blocked driver off the run queue until its waker fires (when
    /// it is armed) or `wait` passes.
    fn park(&self, run: DriverRun, wait: Duration) {
        let timed = run.armed.is_none();
        self.blocked.lock().push_back(Parked {
            deadline: Instant::now() + wait,
            run,
        });
        if timed {
            // Idle threads sized their sleep before this deadline existed.
            self.bell.ring();
        }
    }

    /// Move every parked driver that was woken, is cancelled or is due
    /// back to the run queue. Returns the earliest deadline still pending.
    fn readmit_parked(&self) -> Option<Instant> {
        let mut blocked = self.blocked.lock();
        if blocked.is_empty() {
            return None;
        }
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        let mut readmitted = 0usize;
        for _ in 0..blocked.len() {
            let Some(mut parked) = blocked.pop_front() else {
                break;
            };
            let run = &mut parked.run;
            let woken = run.armed.as_ref().is_some_and(|(w, _)| w.is_woken());
            let cancelled = run.task.is_cancelled() || run.task.query_state.is_cancelled();
            if !woken && !cancelled && parked.deadline > now {
                next = Some(next.map_or(parked.deadline, |d| d.min(parked.deadline)));
                blocked.push_back(parked);
                continue;
            }
            if woken {
                self.wakeups.event_wakeups.fetch_add(1, Ordering::Relaxed);
            }
            run.overslept = !woken && !cancelled && run.armed.is_some();
            self.queue.push(parked.run, Duration::ZERO);
            readmitted += 1;
        }
        drop(blocked);
        // The caller runs one of them; each other one needs a thread too.
        for _ in 1..readmitted {
            self.bell.ring();
        }
        next
    }

    /// Retire one of `run`'s drivers. The worker keeps only live tasks:
    /// once a task's last driver is done, the task, and with it its
    /// query's state and buffers, is let go.
    fn driver_done(&self, run: &DriverRun) {
        run.task.driver_done(Some(&run.driver));
        if run.task.is_done() {
            self.tasks.lock().retain(|t| !t.is_done());
        }
    }

    fn run_executor(&self, thread_index: u32) {
        while !self.shutdown.load(Ordering::SeqCst) {
            // Read before looking for work: a ring from here on ends the
            // wait below at once.
            let seen = self.bell.seq();
            // A dead worker runs nothing: its tasks were aborted, so it
            // drops what a thread still mid-quantum at the kill queued
            // after it. A hung scheduler (chaos injection) stops taking
            // quanta AND stops heartbeating — the detector must notice.
            let dead = self.dead.load(Ordering::SeqCst);
            if dead {
                drop(self.queue.drain());
                self.blocked.lock().clear();
            }
            if dead || self.paused.load(Ordering::SeqCst) {
                self.bell.wait(seen, IDLE_WAIT);
                continue;
            }
            self.heartbeat.fetch_add(1, Ordering::Relaxed);
            let next_deadline = self.readmit_parked();
            let Some(run) = self.queue.pop() else {
                let idle = next_deadline.map_or(IDLE_WAIT, |at| {
                    at.saturating_duration_since(Instant::now()).min(IDLE_WAIT)
                });
                self.bell.wait(seen, idle);
                continue;
            };
            self.run_driver(run, thread_index);
        }
    }

    /// Give `run` a quantum and act on how it ends. A driver that blocks
    /// gets a waker registered with what it waits for and a second quantum
    /// right away: only if that one blocks on the same operators with the
    /// waker still silent does it sleep on the event.
    fn run_driver(&self, mut run: DriverRun, thread_index: u32) {
        for look in 0..2 {
            if run.task.is_cancelled() || run.task.query_state.is_cancelled() {
                return self.driver_done(&run);
            }
            self.running_drivers.fetch_add(1, Ordering::Relaxed);
            let cpu_before = run.task.cpu();
            let started = Instant::now();
            // Operator panics (engine bugs, storage I/O panics in lazy
            // loaders) must fail the query, never kill the executor thread.
            let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run.driver.process(QUANTA)
            })) {
                Ok(r) => r,
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "worker task panicked".to_string());
                    Err(PrestoError::internal(format!("task panicked: {msg}")))
                }
            };
            let elapsed = started.elapsed();
            self.running_drivers.fetch_sub(1, Ordering::Relaxed);
            // Charge actual thread time to the task (§IV-F1).
            run.task
                .cpu_nanos
                .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
            run.task.query_state.add_cpu(elapsed);
            self.queue.charge(cpu_before, elapsed);
            self.telemetry
                .record_worker_busy(self.worker_index, elapsed);
            if let Some(trace) = &self.trace {
                trace.record_span(
                    TraceKind::DriverQuantum,
                    elapsed.as_nanos() as u64,
                    self.node.0,
                    thread_index,
                    run.task.id.stage.query.0,
                    run.task.id.stage.stage as u64,
                );
            }
            let task_cpu = cpu_before + elapsed;
            // The waker of the previous look stays only if this one sleeps
            // on it.
            let armed = run.armed.take().filter(|(waker, _)| !waker.is_woken());
            let overslept = std::mem::take(&mut run.overslept) && armed.is_some();
            let stuck =
                matches!(result, Ok(DriverState::Blocked(_))) && !run.driver.made_progress();
            if overslept && !stuck {
                // Nothing woke this driver, yet it had work: a lost wakeup.
                self.wakeups
                    .safety_net_fires
                    .fetch_add(1, Ordering::Relaxed);
            }
            let reason = match result {
                Ok(DriverState::Blocked(reason)) => reason,
                Ok(DriverState::Ready) => return self.enqueue(run, task_cpu),
                Ok(DriverState::Finished) => return self.driver_done(&run),
                Err(e) => {
                    run.task.query_state.fail(e);
                    return self.driver_done(&run);
                }
            };
            if reason == BlockedReason::Memory {
                // Revoke (spill) and retry immediately (§IV-F2); only an
                // operator given a spill manager has anything to revoke.
                match run.driver.revoke_memory() {
                    Ok(freed) if freed > 0 => return self.enqueue(run, task_cpu),
                    Ok(_) => {}
                    Err(e) => {
                        run.task.query_state.fail(e);
                        return self.driver_done(&run);
                    }
                }
            }
            // Sleep only on what was registered: the waker must cover the
            // operators blocked now, and must not have fired since.
            let covers = run.driver.blocked_on(reason);
            if armed
                .as_ref()
                .is_some_and(|(_, covered)| *covered == covers)
            {
                if !overslept {
                    self.wakeups.parks.fetch_add(1, Ordering::Relaxed);
                }
                run.armed = armed;
                return self.park(run, SAFETY_NET);
            }
            let waker = Waker::new(&self.bell);
            if !run.driver.park(covers, &waker) {
                // On a clock (or on memory): no event to sleep on.
                self.wakeups.timed_repolls.fetch_add(1, Ordering::Relaxed);
                return self.park(run, TIMED_REPOLL);
            }
            // Registered after the driver's last look, so it looks again
            // before it sleeps: now, or from the queue once it has had its
            // turn.
            run.armed = Some((waker, covers));
            if look == 1 {
                return self.enqueue(run, task_cpu);
            }
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::memory::ReservedPoolLock;
    use presto_common::wake::Watcher;
    use presto_common::{DataType, Result, Schema, Value};
    use presto_exec::stats::{PipelineMeta, TaskStatsCollector};
    use presto_exec::{Operator, SpillManager, TaskMemoryContext, UnlimitedPool};
    use presto_page::Page;
    use presto_shuffle::OutputBuffer;

    /// A condition a test operator waits on: a flag, and the list fired
    /// when it is set.
    #[derive(Default)]
    struct Gate {
        open: AtomicBool,
        waiters: WakeList,
    }

    impl Gate {
        fn open(&self) {
            self.open.store(true, Ordering::SeqCst);
            self.waiters.wake_all();
        }

        fn is_open(&self) -> bool {
            self.open.load(Ordering::SeqCst)
        }
    }

    /// How a test operator answers [`Operator::park`].
    #[derive(Clone)]
    enum OnPark {
        /// Register with the gate's list.
        Register,
        /// The gate opens in the window between the driver's last look and
        /// the registration: nobody is registered yet, so nothing fires.
        OpenThenRegister,
        /// The wait is on a clock: no event, re-poll on a timer.
        Decline,
    }

    /// Emits one row once its gate is open, then finishes.
    struct GatedSource {
        gate: Arc<Gate>,
        on_park: OnPark,
        done: bool,
    }

    impl Operator for GatedSource {
        fn name(&self) -> &'static str {
            "GatedSource"
        }
        fn needs_input(&self) -> bool {
            false
        }
        fn add_input(&mut self, _page: Page) -> Result<()> {
            unreachable!("source")
        }
        fn finish(&mut self) {}
        fn output(&mut self) -> Result<Option<Page>> {
            if self.done || !self.gate.is_open() {
                return Ok(None);
            }
            self.done = true;
            let schema = Schema::of(&[("x", DataType::Bigint)]);
            Ok(Some(Page::from_rows(&schema, &[vec![Value::Bigint(1)]])))
        }
        fn is_finished(&self) -> bool {
            self.done
        }
        fn blocked(&self) -> Option<BlockedReason> {
            (!self.done && !self.gate.is_open()).then_some(BlockedReason::WaitingForInput)
        }
        fn park(&self, waker: &Waker) -> bool {
            match self.on_park {
                OnPark::Register => self.gate.waiters.register(waker),
                OnPark::OpenThenRegister => {
                    self.gate.open();
                    self.gate.waiters.register(waker);
                }
                OnPark::Decline => return false,
            }
            true
        }
    }

    /// A sink whose output is full until its gate opens — from the start,
    /// or only once `full_once` has opened.
    struct GatedSink {
        gate: Arc<Gate>,
        full_once: Option<Arc<Gate>>,
        done: bool,
    }

    impl GatedSink {
        fn full(&self) -> bool {
            !self.gate.is_open() && self.full_once.as_ref().is_none_or(|g| g.is_open())
        }
    }

    impl Operator for GatedSink {
        fn name(&self) -> &'static str {
            "GatedSink"
        }
        fn needs_input(&self) -> bool {
            !self.done && !self.full()
        }
        fn add_input(&mut self, _page: Page) -> Result<()> {
            Ok(())
        }
        fn finish(&mut self) {
            self.done = true;
        }
        fn output(&mut self) -> Result<Option<Page>> {
            Ok(None)
        }
        fn is_finished(&self) -> bool {
            self.done
        }
        fn blocked(&self) -> Option<BlockedReason> {
            (!self.done && self.full()).then_some(BlockedReason::OutputFull)
        }
        fn park(&self, waker: &Waker) -> bool {
            self.gate.waiters.register(waker);
            true
        }
    }

    struct Rig {
        worker: Arc<Worker>,
        state: Arc<QueryState>,
    }

    impl Rig {
        fn new() -> Rig {
            let pool =
                NodeMemoryPool::new(NodeId(0), 1 << 30, 1 << 30, false, ReservedPoolLock::new());
            Rig {
                worker: Worker::start(NodeId(0), 0, 2, pool, ClusterTelemetry::new(1), None),
                state: QueryState::new(QueryId(1), &Arc::default()),
            }
        }

        /// One task of one driver: `source` feeding `sink`.
        fn submit(&self, source: GatedSource, sink: GatedSink) -> Arc<TaskHandle> {
            let id = TaskId {
                stage: QueryId(1).stage(0),
                task: 0,
            };
            let memory = TaskMemoryContext::new(QueryId(1), Arc::new(UnlimitedPool));
            let driver = Driver::new(vec![Box::new(source), Box::new(sink)], memory);
            let task = Task {
                id,
                output: OutputBuffer::new(1, 1 << 20),
                scans: Vec::new(),
                exchanges: Vec::new(),
                drivers: Mutex::new(vec![driver]),
                spill: SpillManager::new(None, 0),
                stats: TaskStatsCollector::new(vec![PipelineMeta {
                    description: "test".to_string(),
                    driver_count: 1,
                }]),
            };
            self.worker.submit_task(task, Arc::clone(&self.state))
        }
    }

    impl Drop for Rig {
        fn drop(&mut self) {
            self.worker.shutdown();
        }
    }

    fn open_gate() -> Arc<Gate> {
        let gate = Arc::new(Gate::default());
        gate.open();
        gate
    }

    fn source(gate: &Arc<Gate>, on_park: OnPark) -> GatedSource {
        GatedSource {
            gate: Arc::clone(gate),
            on_park,
            done: false,
        }
    }

    fn sink(gate: &Arc<Gate>) -> GatedSink {
        GatedSink {
            gate: Arc::clone(gate),
            full_once: None,
            done: false,
        }
    }

    /// Poll `cond` until it holds; panics after a generous bound.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    #[test]
    fn parked_driver_wakes_on_its_event() {
        let rig = Rig::new();
        let gate = Arc::new(Gate::default());
        let handle = rig.submit(source(&gate, OnPark::Register), sink(&open_gate()));
        eventually("the driver parks", || rig.worker.blocked_drivers() == 1);
        let parked = rig.worker.wakeups();
        assert_eq!((parked.parks, parked.timed_repolls), (1, 0));
        gate.open();
        eventually("the task finishes", || handle.is_done());
        let end = rig.worker.wakeups();
        assert_eq!((end.parks, end.event_wakeups), (1, 1));
        assert_eq!(end.safety_net_fires, 0);
        assert!(rig.state.error().is_none());
    }

    /// Hazard 1: a waker registered after the driver's last look loses
    /// whatever happened in between — unless the driver looks again before
    /// it sleeps.
    #[test]
    fn event_between_the_last_look_and_the_registration_is_not_lost() {
        let rig = Rig::new();
        let gate = Arc::new(Gate::default());
        let handle = rig.submit(source(&gate, OnPark::OpenThenRegister), sink(&open_gate()));
        eventually("the task finishes", || handle.is_done());
        let end = rig.worker.wakeups();
        assert_eq!(end.parks, 0, "the second look saw the gate open");
        assert_eq!(end.safety_net_fires, 0);
    }

    /// Hazard 2: armed on its input, the driver next blocks on its output.
    /// It must sleep on what the output registers, not on the input waker
    /// it happens to hold.
    #[test]
    fn driver_sleeps_only_on_a_waker_that_covers_what_blocks_it() {
        let rig = Rig::new();
        let (input, output) = (Arc::new(Gate::default()), Arc::new(Gate::default()));
        // First look: input closed, armed on it — and it opens before the
        // registration, so that waker stays silent. Second look: the source
        // has its page, and with it the sink is full.
        let full_sink = GatedSink {
            full_once: Some(Arc::clone(&input)),
            ..sink(&output)
        };
        let handle = rig.submit(source(&input, OnPark::OpenThenRegister), full_sink);
        eventually("the driver parks on the output", || {
            rig.worker.blocked_drivers() == 1 && !output.waiters.is_empty()
        });
        output.open();
        eventually("the task finishes", || handle.is_done());
        let end = rig.worker.wakeups();
        assert_eq!(end.safety_net_fires, 0, "woken by the output event");
        assert_eq!((end.parks, end.event_wakeups), (1, 1));
    }

    /// Hazard 3: a wait no event announces stays a timed re-poll.
    #[test]
    fn wait_on_a_clock_is_repolled_not_parked() {
        let rig = Rig::new();
        let gate = Arc::new(Gate::default());
        let handle = rig.submit(source(&gate, OnPark::Decline), sink(&open_gate()));
        eventually("it has been re-polled a few times", || {
            rig.worker.wakeups().timed_repolls >= 3
        });
        gate.open();
        eventually("the task finishes", || handle.is_done());
        let end = rig.worker.wakeups();
        assert_eq!(
            (end.parks, end.event_wakeups, end.safety_net_fires),
            (0, 0, 0)
        );
    }

    /// The counter the other tests hold at zero does count: an operator
    /// whose event never fires its list is found by the safety net.
    #[test]
    fn lost_wakeup_is_caught_by_the_safety_net_and_counted() {
        let rig = Rig::new();
        let gate = Arc::new(Gate::default());
        let handle = rig.submit(source(&gate, OnPark::Register), sink(&open_gate()));
        eventually("the driver parks", || rig.worker.blocked_drivers() == 1);
        gate.open.store(true, Ordering::SeqCst); // state changes, nobody rings
        eventually("the task finishes", || handle.is_done());
        let end = rig.worker.wakeups();
        assert_eq!((end.safety_net_fires, end.event_wakeups), (1, 0));
    }

    /// A long wait is not a lost wakeup: the safety net looks, finds
    /// nothing, and the driver sleeps on the same waker again — and the
    /// whole of it is charged to the operator that waited, as it was when
    /// the wait was a string of re-polls.
    #[test]
    fn long_wait_passes_the_safety_net_without_firing_it() {
        let rig = Rig::new();
        let gate = Arc::new(Gate::default());
        let handle = rig.submit(source(&gate, OnPark::Register), sink(&open_gate()));
        eventually("the driver parks", || rig.worker.blocked_drivers() == 1);
        // Open the gate between two safety-net looks, not on one: a look
        // that lands between the gate's store and its wake finds progress
        // under a silent waker, which is what the counter counts.
        std::thread::sleep(SAFETY_NET * 7 / 2);
        assert_eq!(gate.waiters.len(), 1, "re-parked on the waker it had");
        gate.open();
        eventually("the task finishes", || handle.is_done());
        let stats = handle.task.stats_snapshot();
        let source = &stats.pipelines[0].operators[0];
        assert_eq!(source.name, "GatedSource");
        assert!(source.stats.blocked_on_input >= SAFETY_NET * 3);
        assert_eq!(source.stats.blocked_on_output, Duration::ZERO);
        let end = rig.worker.wakeups();
        assert_eq!(
            (end.parks, end.event_wakeups, end.safety_net_fires),
            (1, 1, 0)
        );
    }

    /// Hazard 4: everything that ends a wait rings the worker's bell.
    #[test]
    fn cancel_abort_kill_resume_and_shutdown_ring_the_bell() {
        let rig = Rig::new();
        let gate = Arc::new(Gate::default());
        let rung_by = |what: &str, act: &dyn Fn()| {
            let seen = rig.worker.bell.seq();
            act();
            assert_ne!(rig.worker.bell.seq(), seen, "{what} must ring");
        };
        let a = rig.submit(source(&gate, OnPark::Register), sink(&open_gate()));
        let b = rig.submit(source(&gate, OnPark::Register), sink(&open_gate()));
        eventually("both drivers park", || rig.worker.blocked_drivers() == 2);
        rung_by("cancel", &|| a.cancel());
        eventually("the cancelled task retires", || a.is_done());
        assert_eq!(
            rig.worker.blocked_drivers(),
            1,
            "only the cancelled one left"
        );
        rung_by("abort", &|| b.abort());
        rung_by("pause", &|| rig.worker.set_paused(true));
        rung_by("resume", &|| rig.worker.set_paused(false));
        rung_by("kill", &|| rig.worker.kill());
        rung_by("shutdown", &|| rig.worker.shutdown());
        assert_eq!(rig.worker.wakeups().safety_net_fires, 0);
    }

    /// Hazard 4, seen from outside: a cancelled query's parked drivers
    /// retire at once, not at their safety-net deadline.
    #[test]
    fn query_cancel_retires_parked_drivers_and_wakes_watchers() {
        let rig = Rig::new();
        let gate = Arc::new(Gate::default());
        let handle = rig.submit(source(&gate, OnPark::Register), sink(&open_gate()));
        eventually("the driver parks", || rig.worker.blocked_drivers() == 1);
        let (mut ended, mut task_done) = (Watcher::new(), Watcher::new());
        let seen = task_done.arm(|w| rig.state.on_task_done(w));
        let cancelled = ended.arm(|w| rig.state.on_cancel(w));
        rig.state.fail(PrestoError::killed("test"));
        assert!(ended.wait(cancelled, Duration::from_secs(20)));
        assert!(task_done.wait(seen, Duration::from_secs(20)));
        eventually("the task retires", || handle.is_done());
        assert_eq!(rig.worker.blocked_drivers(), 0);
    }

    /// Hazard 5: an idle worker keeps heartbeating from its bounded idle
    /// wait; a paused one stops.
    #[test]
    fn idle_worker_heartbeats_and_paused_worker_does_not() {
        let rig = Rig::new();
        let start = rig.worker.heartbeat();
        eventually("an idle worker heartbeats", || {
            rig.worker.heartbeat() >= start + 4
        });
        rig.worker.set_paused(true);
        // Each thread may have been past the pause check once.
        std::thread::sleep(IDLE_WAIT * 3);
        let frozen = rig.worker.heartbeat();
        std::thread::sleep(IDLE_WAIT * 5);
        assert_eq!(
            rig.worker.heartbeat(),
            frozen,
            "a hung worker must look hung"
        );
        rig.worker.set_paused(false);
        eventually("it resumes", || rig.worker.heartbeat() > frozen);
    }
}
