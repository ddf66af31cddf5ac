//! The driver loop (§IV-E1).
//!
//! "Once a split is assigned to a thread, it is executed by the driver
//! loop … It is much more amenable to cooperative multi-tasking, since
//! operators can be quickly brought to a known state before yielding the
//! thread instead of blocking indefinitely … Every iteration of the loop
//! moves data between all pairs of operators that can make progress."

use presto_common::wake::Waker;
use presto_common::{PrestoError, Result};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::memory::{ReservationResult, TaskMemoryContext};
use crate::operator::{BlockedReason, Operator, OperatorStats};

/// Outcome of one driver quanta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverState {
    /// Made progress and can run again immediately (quanta expired).
    Ready,
    /// Cannot progress until the given condition clears.
    Blocked(BlockedReason),
    /// All operators finished.
    Finished,
}

/// A linear chain of operators executed by one thread at a time.
pub struct Driver {
    operators: Vec<Box<dyn Operator>>,
    finish_notified: Vec<bool>,
    memory: Arc<TaskMemoryContext>,
    stats: Vec<OperatorStats>,
    cpu_time: Duration,
    /// Index of the owning pipeline inside the task (for rollup grouping).
    pipeline: usize,
    /// When false the per-operator timing hooks are skipped entirely (no
    /// extra clock reads on the page-transfer path); flow counters are
    /// always kept — they are just integer adds.
    stats_enabled: bool,
    /// Set when `process` returns Blocked: the park began then, for this
    /// reason, attributable to this operator. Charged on the next entry.
    last_block: Option<(Instant, BlockedReason, usize)>,
    /// Whether the last quantum moved a page or finished an operator.
    progressed: bool,
}

impl Driver {
    pub fn new(operators: Vec<Box<dyn Operator>>, memory: Arc<TaskMemoryContext>) -> Driver {
        assert!(!operators.is_empty());
        let n = operators.len();
        Driver {
            operators,
            finish_notified: vec![false; n],
            memory,
            stats: vec![OperatorStats::default(); n],
            cpu_time: Duration::ZERO,
            pipeline: 0,
            stats_enabled: true,
            last_block: None,
            progressed: false,
        }
    }

    /// Tag this driver with its pipeline index within the task.
    pub fn with_pipeline(mut self, pipeline: usize) -> Driver {
        self.pipeline = pipeline;
        self
    }

    pub fn pipeline(&self) -> usize {
        self.pipeline
    }

    /// Toggle the per-operator CPU/blocked timing hooks (used by the
    /// overhead benchmark; defaults to on).
    pub fn set_stats_enabled(&mut self, enabled: bool) {
        self.stats_enabled = enabled;
    }

    /// Total thread time this driver has consumed (the scheduler's
    /// accounting input, §IV-F1).
    pub fn cpu_time(&self) -> Duration {
        self.cpu_time
    }

    /// Per-operator statistics (name, counters), with each operator's live
    /// [`Operator::counters`] folded in.
    pub fn operator_stats(&self) -> Vec<(&'static str, OperatorStats)> {
        self.operators
            .iter()
            .zip(self.stats.iter())
            .map(|(op, stats)| {
                let mut stats = stats.clone();
                for (name, value) in op.counters() {
                    stats.add_counter(name, value);
                }
                (op.name(), stats)
            })
            .collect()
    }

    /// Snapshot this driver's contribution for the task-level rollup.
    pub fn stats_report(&self) -> crate::stats::DriverStatsReport {
        crate::stats::DriverStatsReport {
            pipeline: self.pipeline,
            cpu_time: self.cpu_time,
            operators: self
                .operator_stats()
                .into_iter()
                .map(|(name, stats)| crate::stats::OperatorStatsEntry { name, stats })
                .collect(),
        }
    }

    pub fn is_finished(&self) -> bool {
        self.operators
            .last()
            .map(|o| o.is_finished())
            .unwrap_or(true)
    }

    /// Run for up to `quanta`, then yield (§IV-F1: "Any given split is only
    /// allowed to run on a thread for a maximum quanta of one second").
    pub fn process(&mut self, quanta: Duration) -> Result<DriverState> {
        let start = Instant::now();
        // Attribute the time we spent parked since the last Blocked return
        // to the operator that caused it.
        if let Some((since, reason, op)) = self.last_block.take() {
            if self.stats_enabled {
                self.stats[op].record_blocked(reason, start.duration_since(since));
            }
        }
        // Service a pending revocation request first: the arbiter flagged
        // this driver's revocable reservation to unblock someone else
        // (possibly another query), so spill before making more progress.
        if self.memory.revocation().take_request() {
            self.revoke_memory()?;
        }
        self.progressed = false;
        let result = self.process_until(start, quanta);
        self.cpu_time += start.elapsed();
        if let Ok(DriverState::Blocked(reason)) = &result {
            self.last_block = Some((Instant::now(), *reason, self.blocked_operator(*reason)));
        }
        result
    }

    /// Which operator to blame for a Blocked return: the memory hog for
    /// memory waits, the operator reporting blocked otherwise, the source
    /// as a fallback.
    fn blocked_operator(&self, reason: BlockedReason) -> usize {
        if reason == BlockedReason::Memory {
            return (0..self.operators.len())
                .max_by_key(|&i| {
                    self.operators[i].user_memory_bytes() + self.operators[i].system_memory_bytes()
                })
                .unwrap_or(0);
        }
        self.operators
            .iter()
            .position(|op| op.blocked() == Some(reason))
            .unwrap_or(0)
    }

    /// Whether the last quantum moved a page or finished an operator. A
    /// driver that does so after a wait nothing woke it from had an event
    /// go missing.
    pub fn made_progress(&self) -> bool {
        self.progressed
    }

    /// The operators a `Blocked(reason)` return waits on, as a bit mask
    /// over the chain: every operator that reports [`Operator::blocked`],
    /// whatever its reason — a source that waits for input while the sink
    /// is full must hear of both. Zero when no operator event ends the
    /// wait: memory (the pool announces no release) or a dry source that
    /// reports nothing.
    pub fn blocked_on(&self, reason: BlockedReason) -> u64 {
        if reason == BlockedReason::Memory || self.operators.len() > u64::BITS as usize {
            return 0;
        }
        self.operators
            .iter()
            .enumerate()
            .filter(|(_, op)| op.blocked().is_some())
            .fold(0, |mask, (i, _)| mask | 1 << i)
    }

    /// Register `waker` with every operator in `mask` (from
    /// [`blocked_on`](Self::blocked_on)) and with a revocation request for
    /// this driver's spillable memory. False when some operator's wait is
    /// on a clock and the driver must be re-polled on a timer. Run one more
    /// quantum after this before sleeping on the waker.
    pub fn park(&self, mask: u64, waker: &Waker) -> bool {
        if self.memory.revocation().bytes() > 0 {
            self.memory.revocation().on_request(waker);
        }
        let mut evented = mask != 0;
        for (i, op) in self.operators.iter().enumerate() {
            if mask & (1 << i) != 0 {
                evented &= op.park(waker);
            }
        }
        evented
    }

    /// Transfer one page from operator `i` to `i+1`, timing both sides
    /// when stats are enabled. Returns whether a page moved.
    fn transfer(&mut self, i: usize) -> Result<bool> {
        let (upstream, downstream) = {
            let (a, b) = self.operators.split_at_mut(i + 1);
            (&mut a[i], &mut b[0])
        };
        if self.stats_enabled {
            let t0 = Instant::now();
            let page = upstream.output()?;
            let t1 = Instant::now();
            self.stats[i].cpu += t1 - t0;
            let Some(page) = page else { return Ok(false) };
            self.stats[i].record_output(&page);
            self.stats[i + 1].record_input(&page);
            downstream.add_input(page)?;
            self.stats[i + 1].cpu += t1.elapsed();
        } else {
            let Some(page) = upstream.output()? else {
                return Ok(false);
            };
            self.stats[i].record_output(&page);
            self.stats[i + 1].record_input(&page);
            downstream.add_input(page)?;
        }
        Ok(true)
    }

    fn process_until(&mut self, start: Instant, quanta: Duration) -> Result<DriverState> {
        loop {
            if self.is_finished() {
                return Ok(DriverState::Finished);
            }
            let mut progressed = false;
            let n = self.operators.len();
            // Move pages between every adjacent pair that can progress.
            for i in 0..n - 1 {
                if self.operators[i + 1].needs_input() && !self.operators[i].is_finished() {
                    progressed |= self.transfer(i)?;
                }
                // Drain remaining output even after the upstream finished
                // accepting input.
                if self.operators[i].is_finished() && !self.finish_notified[i + 1] {
                    // One more drain attempt before propagating finish.
                    if self.operators[i + 1].needs_input() && self.transfer(i)? {
                        progressed = true;
                        continue;
                    }
                    self.operators[i + 1].finish();
                    self.finish_notified[i + 1] = true;
                    progressed = true;
                }
            }
            // Let the sink flush (e.g. TableWriter commit happens in
            // output(); PartitionedOutput returns None immediately).
            let sink_t0 = self.stats_enabled.then(Instant::now);
            let sink_page = self.operators[n - 1].output()?;
            if let Some(t0) = sink_t0 {
                self.stats[n - 1].cpu += t0.elapsed();
            }
            if let Some(page) = sink_page {
                // The last operator should be a sink; any page it produces
                // has nowhere to go — that is a pipeline construction bug.
                return Err(PrestoError::internal(format!(
                    "sink operator {} produced a page of {} rows",
                    self.operators[n - 1].name(),
                    page.row_count()
                )));
            }
            self.progressed |= progressed;
            // Reconcile memory with the pool, tracking per-operator peaks
            // and publishing how much of the reservation is revocable
            // (spillable) so the pool's arbiter can request spill instead
            // of promoting or killing (§IV-F2).
            let mut user = 0usize;
            let mut system = 0usize;
            let mut revocable = 0u64;
            for (op, stats) in self.operators.iter().zip(self.stats.iter_mut()) {
                let u = op.user_memory_bytes();
                let s = op.system_memory_bytes();
                user += u;
                system += s;
                if op.can_revoke_memory() {
                    revocable += u as u64;
                }
                stats.peak_user_memory_bytes = stats.peak_user_memory_bytes.max(u as u64);
                stats.peak_system_memory_bytes = stats.peak_system_memory_bytes.max(s as u64);
            }
            self.memory.revocation().set_bytes(revocable);
            if self.memory.update(user, system)? == ReservationResult::Blocked {
                return Ok(DriverState::Blocked(BlockedReason::Memory));
            }
            if !progressed {
                // Determine why we are stuck.
                if self.is_finished() {
                    return Ok(DriverState::Finished);
                }
                for op in &self.operators {
                    if let Some(reason) = op.blocked() {
                        return Ok(DriverState::Blocked(reason));
                    }
                }
                // No operator reports blocked but nothing moved: the source
                // is dry but unfinished — treat as waiting for input.
                return Ok(DriverState::Blocked(BlockedReason::WaitingForInput));
            }
            if start.elapsed() >= quanta {
                return Ok(DriverState::Ready);
            }
        }
    }

    /// Spill revocable state, largest consumer first (§IV-F2 revocation).
    /// Returns bytes freed.
    pub fn revoke_memory(&mut self) -> Result<u64> {
        let mut order: Vec<usize> = (0..self.operators.len())
            .filter(|&i| self.operators[i].can_revoke_memory())
            .collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.operators[i].user_memory_bytes()));
        let mut freed = 0;
        for i in order {
            freed += self.operators[i].revoke_memory()?;
        }
        // Refresh the published revocable balance so the arbiter does not
        // request again based on the pre-spill figure.
        let remaining: u64 = self
            .operators
            .iter()
            .filter(|op| op.can_revoke_memory())
            .map(|op| op.user_memory_bytes() as u64)
            .sum();
        self.memory.revocation().set_bytes(remaining);
        Ok(freed)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::filter::{LimitOperator, ValuesOperator};
    use crate::memory::UnlimitedPool;
    use presto_common::{DataType, QueryId, Schema, Value};
    use presto_page::Page;

    /// Test sink collecting pages into shared storage.
    pub struct CollectorSink {
        pub pages: Arc<parking_lot::Mutex<Vec<Page>>>,
        done: bool,
    }

    impl CollectorSink {
        pub fn new() -> (CollectorSink, Arc<parking_lot::Mutex<Vec<Page>>>) {
            let pages = Arc::new(parking_lot::Mutex::new(Vec::new()));
            (
                CollectorSink {
                    pages: Arc::clone(&pages),
                    done: false,
                },
                pages,
            )
        }
    }

    impl crate::operator::Operator for CollectorSink {
        fn name(&self) -> &'static str {
            "Collector"
        }
        fn needs_input(&self) -> bool {
            !self.done
        }
        fn add_input(&mut self, page: Page) -> Result<()> {
            self.pages.lock().push(page);
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
    }

    fn page(n: i64) -> Page {
        let schema = Schema::of(&[("x", DataType::Bigint)]);
        Page::from_rows(
            &schema,
            &(0..n).map(|i| vec![Value::Bigint(i)]).collect::<Vec<_>>(),
        )
    }

    fn memory() -> Arc<TaskMemoryContext> {
        TaskMemoryContext::new(QueryId(0), Arc::new(UnlimitedPool))
    }

    #[test]
    fn runs_pipeline_to_completion() {
        let (sink, pages) = CollectorSink::new();
        let mut driver = Driver::new(
            vec![
                Box::new(ValuesOperator::new(vec![page(10), page(5)])),
                Box::new(LimitOperator::new(12)),
                Box::new(sink),
            ],
            memory(),
        );
        let state = driver.process(Duration::from_secs(1)).unwrap();
        assert_eq!(state, DriverState::Finished);
        let total: usize = pages.lock().iter().map(Page::row_count).sum();
        assert_eq!(total, 12);
        assert!(driver.is_finished());
        assert!(driver.cpu_time() > Duration::ZERO);
    }

    #[test]
    fn yields_on_quanta_expiry() {
        // Many pages + zero quanta: the driver must yield Ready, not finish.
        let (sink, _) = CollectorSink::new();
        let mut driver = Driver::new(
            vec![
                Box::new(ValuesOperator::new((0..1000).map(|_| page(10)).collect())),
                Box::new(sink),
            ],
            memory(),
        );
        let state = driver.process(Duration::ZERO).unwrap();
        assert_eq!(state, DriverState::Ready);
        // Keep running; it finishes eventually.
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 100_000);
            match driver.process(Duration::from_millis(1)).unwrap() {
                DriverState::Finished => break,
                DriverState::Ready => continue,
                b => panic!("unexpected {b:?}"),
            }
        }
    }

    #[test]
    fn operator_stats_flow() {
        let (sink, _) = CollectorSink::new();
        let mut driver = Driver::new(
            vec![Box::new(ValuesOperator::new(vec![page(7)])), Box::new(sink)],
            memory(),
        );
        driver.process(Duration::from_secs(1)).unwrap();
        let stats = driver.operator_stats();
        assert_eq!(stats[0].1.output_rows, 7);
        assert_eq!(stats[1].1.input_rows, 7);
    }

    /// A source with nothing to give and a sink with no room, each with a
    /// list its `park` registers on.
    struct Stuck {
        reason: BlockedReason,
        waiters: Arc<presto_common::wake::WakeList>,
        evented: bool,
    }

    impl crate::operator::Operator for Stuck {
        fn name(&self) -> &'static str {
            "Stuck"
        }
        fn needs_input(&self) -> bool {
            false
        }
        fn add_input(&mut self, _page: Page) -> Result<()> {
            Ok(())
        }
        fn finish(&mut self) {}
        fn output(&mut self) -> Result<Option<Page>> {
            Ok(None)
        }
        fn is_finished(&self) -> bool {
            false
        }
        fn blocked(&self) -> Option<BlockedReason> {
            Some(self.reason)
        }
        fn user_memory_bytes(&self) -> usize {
            64
        }
        fn can_revoke_memory(&self) -> bool {
            true
        }
        fn park(&self, waker: &Waker) -> bool {
            self.waiters.register(waker);
            self.evented
        }
    }

    #[test]
    fn park_covers_every_blocked_operator_and_a_revocation_request() {
        use presto_common::wake::{Bell, WakeList};
        let lists = [Arc::new(WakeList::new()), Arc::new(WakeList::new())];
        let stuck = |i: usize, reason, evented| {
            Box::new(Stuck {
                reason,
                waiters: Arc::clone(&lists[i]),
                evented,
            }) as Box<dyn crate::operator::Operator>
        };
        let memory = memory();
        let mut driver = Driver::new(
            vec![
                stuck(0, BlockedReason::WaitingForInput, true),
                Box::new(LimitOperator::new(1)),
                stuck(1, BlockedReason::OutputFull, true),
            ],
            Arc::clone(&memory),
        );
        let state = driver.process(Duration::from_secs(1)).unwrap();
        assert_eq!(state, DriverState::Blocked(BlockedReason::WaitingForInput));
        assert!(!driver.made_progress());
        // The source waits for input *and* the sink is full: whichever
        // clears, the driver must hear of it.
        assert_eq!(driver.blocked_on(BlockedReason::WaitingForInput), 0b101);
        // Memory has no event: nothing to sleep on.
        assert_eq!(driver.blocked_on(BlockedReason::Memory), 0);
        let bell = Bell::new();
        let waker = Waker::new(&bell);
        assert!(driver.park(0b101, &waker));
        assert_eq!((lists[0].len(), lists[1].len()), (1, 1));
        // The arbiter asking this driver to spill wakes it as well.
        memory.revocation().request();
        assert!(waker.is_woken());
        assert!(!driver.park(0, &Waker::new(&bell)), "no operator, no event");

        // One operator on a clock makes the whole wait a timed one.
        let driver = Driver::new(
            vec![
                stuck(0, BlockedReason::WaitingForInput, true),
                stuck(1, BlockedReason::OutputFull, false),
            ],
            memory,
        );
        assert!(!driver.park(0b11, &Waker::new(&bell)));
    }
}
