//! The operator interface.
//!
//! "A pipeline consists of a chain of operators, each of which performs a
//! single, well-defined computation on the data" (§IV-D). Operators are
//! page-in/page-out state machines; the driver moves pages between them and
//! reacts to blocked states without parking threads.

use presto_common::wake::Waker;
use presto_common::Result;
use presto_page::Page;
use std::time::Duration;

/// Rows per page that operators produce: scans ask connectors for pages
/// this size, and the hash builder and partitioned output coalesce to it.
pub const TARGET_PAGE_ROWS: usize = 1024;

/// Why an operator cannot currently make progress. The driver propagates
/// the reason so the worker scheduler can account for it (§IV-F1: "When
/// output buffers are full … input buffers are empty … or the system is out
/// of memory, the local scheduler simply switches to processing another
/// task").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedReason {
    /// Downstream cannot absorb output (full output buffer).
    OutputFull,
    /// Upstream has produced nothing yet (empty exchange, no splits).
    WaitingForInput,
    /// Waiting on a sibling pipeline (e.g. hash-join build).
    WaitingForBuild,
    /// Memory pool exhausted.
    Memory,
}

/// One computation in a pipeline.
pub trait Operator: Send {
    /// Short name for telemetry ("ScanFilterProject", "LookupJoin", …).
    fn name(&self) -> &'static str;

    /// Whether the operator can accept a page right now.
    fn needs_input(&self) -> bool;

    /// Feed one page. Only valid when [`Operator::needs_input`] is true.
    fn add_input(&mut self, page: Page) -> Result<()>;

    /// Signal that no more input will arrive.
    fn finish(&mut self);

    /// Produce an output page if one is ready.
    fn output(&mut self) -> Result<Option<Page>>;

    /// Fully done: no more output will ever be produced.
    fn is_finished(&self) -> bool;

    /// If the operator cannot progress, why.
    fn blocked(&self) -> Option<BlockedReason> {
        None
    }

    /// Arrange for `waker` to fire once the condition
    /// [`blocked`](Self::blocked) reports may have cleared, and return
    /// true. Return false — the default — when no event announces that
    /// (the wait is on a clock: a deadline, a backoff), so the scheduler
    /// re-polls on a timer instead. The scheduler runs the operator once
    /// more after this call, so an event just before the registration is
    /// not lost.
    fn park(&self, _waker: &Waker) -> bool {
        false
    }

    /// *User* memory retained (proportional to data, §IV-F2): hash tables,
    /// sort buffers, group state.
    fn user_memory_bytes(&self) -> usize {
        0
    }

    /// *System* memory retained (implementation byproduct): shuffle and
    /// I/O buffers.
    fn system_memory_bytes(&self) -> usize {
        0
    }

    /// Whether this operator can free memory by spilling.
    fn can_revoke_memory(&self) -> bool {
        false
    }

    /// Spill revocable state to disk; returns bytes freed (§IV-F2
    /// "Revocation is processed by spilling state to disk").
    fn revoke_memory(&mut self) -> Result<u64> {
        Ok(0)
    }

    /// Operator-specific counters (flathash RLE hits, spill bytes, splits
    /// processed, …), snapshotted by the driver into [`OperatorStats`].
    /// Counter values are cumulative; names should be stable identifiers.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// Uniform per-operator counters every driver keeps, merged upward to
/// pipeline, task, and stage level (§VII "we collect and store operator
/// level statistics … for every query").
#[derive(Debug, Default, Clone)]
pub struct OperatorStats {
    pub input_rows: u64,
    pub input_bytes: u64,
    pub input_pages: u64,
    pub output_rows: u64,
    pub output_bytes: u64,
    pub output_pages: u64,
    /// Thread time spent inside this operator's `output`/`add_input`
    /// (measured by the driver's timing hooks).
    pub cpu: Duration,
    /// Time the driver sat parked because this operator was starved of
    /// upstream input (WaitingForInput / WaitingForBuild).
    pub blocked_on_input: Duration,
    /// Time parked because this operator's downstream sink was full.
    pub blocked_on_output: Duration,
    /// Time parked waiting for a memory-pool grant.
    pub blocked_on_memory: Duration,
    /// High-water user-memory reservation observed for this operator.
    pub peak_user_memory_bytes: u64,
    /// High-water system-memory reservation observed for this operator.
    pub peak_system_memory_bytes: u64,
    /// Operator-specific counters ([`Operator::counters`]); merged by name.
    pub counters: Vec<(&'static str, u64)>,
}

impl OperatorStats {
    pub fn record_input(&mut self, page: &Page) {
        self.input_rows += page.row_count() as u64;
        self.input_bytes += page.size_in_bytes() as u64;
        self.input_pages += 1;
    }

    pub fn record_output(&mut self, page: &Page) {
        self.output_rows += page.row_count() as u64;
        self.output_bytes += page.size_in_bytes() as u64;
        self.output_pages += 1;
    }

    /// Total parked time, all causes.
    pub fn blocked_total(&self) -> Duration {
        self.blocked_on_input + self.blocked_on_output + self.blocked_on_memory
    }

    /// Add a blocked interval attributed to `reason`.
    pub fn record_blocked(&mut self, reason: BlockedReason, elapsed: Duration) {
        match reason {
            BlockedReason::WaitingForInput | BlockedReason::WaitingForBuild => {
                self.blocked_on_input += elapsed;
            }
            BlockedReason::OutputFull => self.blocked_on_output += elapsed,
            BlockedReason::Memory => self.blocked_on_memory += elapsed,
        }
    }

    /// Fold an operator-specific counter in by name.
    pub fn add_counter(&mut self, name: &'static str, value: u64) {
        if let Some(slot) = self.counters.iter_mut().find(|(n, _)| *n == name) {
            slot.1 += value;
        } else {
            self.counters.push((name, value));
        }
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Merge a sibling instance (another driver of the same pipeline, or
    /// the same operator on another task). Flows and counters add; memory
    /// peaks add as well — concurrent drivers reserve simultaneously, so
    /// the pipeline-level high-water mark is bounded by the sum.
    pub fn merge(&mut self, other: &OperatorStats) {
        self.input_rows += other.input_rows;
        self.input_bytes += other.input_bytes;
        self.input_pages += other.input_pages;
        self.output_rows += other.output_rows;
        self.output_bytes += other.output_bytes;
        self.output_pages += other.output_pages;
        self.cpu += other.cpu;
        self.blocked_on_input += other.blocked_on_input;
        self.blocked_on_output += other.blocked_on_output;
        self.blocked_on_memory += other.blocked_on_memory;
        self.peak_user_memory_bytes += other.peak_user_memory_bytes;
        self.peak_system_memory_bytes += other.peak_system_memory_bytes;
        for (name, value) in &other.counters {
            self.add_counter(name, *value);
        }
    }
}
