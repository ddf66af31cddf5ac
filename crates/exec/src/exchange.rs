//! Exchange operators: the task-side ends of a shuffle.

use presto_common::wake::Waker;
use presto_common::{Result, TraceBuffer, TraceKind};
use presto_page::Page;
use presto_shuffle::{ExchangeClient, OutputBuffer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::operator::{BlockedReason, Operator, TARGET_PAGE_ROWS};
use crate::partitioned_output::PagePartitioner;

/// Bytes per shuffle page: hash-partitioned output coalesces rows until an
/// accumulator reaches [`TARGET_PAGE_ROWS`] or this many bytes, whichever
/// comes first (§IV-E2).
pub const SHUFFLE_TARGET_PAGE_BYTES: usize = 1 << 20;

/// Source side: pulls pages from upstream task buffers via an
/// [`ExchangeClient`]. The client is shared (lock-free: all its methods
/// take `&self`) so the coordinator can attach new upstream tasks as they
/// are scheduled and N exchange drivers can poll concurrently.
pub struct ExchangeSourceOperator {
    client: Arc<ExchangeClient>,
    /// Set once the coordinator has registered every upstream task.
    no_more_sources: Arc<std::sync::atomic::AtomicBool>,
    /// Optional timeline: (buffer, pid, tid) for PageDequeue events.
    trace: Option<(Arc<TraceBuffer>, u32, u32)>,
}

impl ExchangeSourceOperator {
    pub fn new(
        client: Arc<ExchangeClient>,
        no_more_sources: Arc<std::sync::atomic::AtomicBool>,
    ) -> ExchangeSourceOperator {
        ExchangeSourceOperator {
            client,
            no_more_sources,
            trace: None,
        }
    }

    pub fn with_trace(mut self, trace: Arc<TraceBuffer>, pid: u32, tid: u32) -> Self {
        self.trace = Some((trace, pid, tid));
        self
    }
}

impl Operator for ExchangeSourceOperator {
    fn name(&self) -> &'static str {
        "ExchangeSource"
    }

    fn needs_input(&self) -> bool {
        false
    }

    fn add_input(&mut self, _page: Page) -> Result<()> {
        unreachable!("exchange sources take no local input")
    }

    fn finish(&mut self) {}

    fn output(&mut self) -> Result<Option<Page>> {
        let page = match self.client.next_page() {
            Some(p) => Some(p),
            None => {
                self.client.poll_progress()?;
                self.client.next_page()
            }
        };
        if let (Some(p), Some((trace, pid, tid))) = (&page, &self.trace) {
            trace.record(
                TraceKind::PageDequeue,
                *pid,
                *tid,
                p.row_count() as u64,
                p.size_in_bytes() as u64,
            );
        }
        Ok(page)
    }

    fn is_finished(&self) -> bool {
        self.no_more_sources.load(Ordering::SeqCst) && self.client.is_finished()
    }

    fn blocked(&self) -> Option<BlockedReason> {
        if self.is_finished() {
            None
        } else {
            Some(BlockedReason::WaitingForInput)
        }
    }

    fn park(&self, waker: &Waker) -> bool {
        self.client.park(waker)
    }

    fn system_memory_bytes(&self) -> usize {
        // The client's input buffer is system memory (shuffle buffers,
        // §IV-F2): charge the bytes actually held, not a token.
        self.client.buffered_bytes()
    }
}

/// How the sink routes pages to consumer partitions.
#[derive(Debug, Clone)]
pub enum OutputRouting {
    /// Everything to partition 0.
    Gather,
    /// Hash-partition rows on these channels.
    Hash { channels: Vec<usize> },
    /// Replicate every page to all partitions.
    Broadcast,
    /// Rotate whole pages across partitions.
    RoundRobin,
}

/// Sink side: writes pages into this task's [`OutputBuffer`]. Hash routing
/// goes through a coalescing [`PagePartitioner`] so consumers receive
/// target-sized pages instead of per-input-page fragments.
pub struct PartitionedOutputOperator {
    buffer: Arc<OutputBuffer>,
    routing: OutputRouting,
    round_robin_next: u64,
    input_done: bool,
    rows_out: Arc<AtomicU64>,
    /// Coalescing accumulator for hash routing (lazy: built on first page).
    partitioner: Option<PagePartitioner>,
    /// Flush accumulators at this many rows per partition…
    target_rows: usize,
    /// …or this many bytes, whichever comes first.
    target_bytes: usize,
    /// When several drivers share the buffer, only the last one to finish
    /// closes it.
    close_group: Option<Arc<std::sync::atomic::AtomicUsize>>,
    /// How many sinks share `buffer` (for the memory-accounting split).
    buffer_share: usize,
    /// Optional timeline: (buffer, pid, tid) for PageEnqueue events.
    trace: Option<(Arc<TraceBuffer>, u32, u32)>,
}

impl PartitionedOutputOperator {
    pub fn new(buffer: Arc<OutputBuffer>, routing: OutputRouting) -> PartitionedOutputOperator {
        PartitionedOutputOperator {
            buffer,
            routing,
            round_robin_next: 0,
            input_done: false,
            rows_out: Arc::new(AtomicU64::new(0)),
            partitioner: None,
            target_rows: TARGET_PAGE_ROWS,
            target_bytes: SHUFFLE_TARGET_PAGE_BYTES,
            close_group: None,
            buffer_share: 1,
            trace: None,
        }
    }

    pub fn with_trace(mut self, trace: Arc<TraceBuffer>, pid: u32, tid: u32) -> Self {
        self.trace = Some((trace, pid, tid));
        self
    }

    /// Override the per-partition flush thresholds (by default
    /// [`TARGET_PAGE_ROWS`] / [`SHUFFLE_TARGET_PAGE_BYTES`]).
    pub fn with_targets(mut self, target_rows: usize, target_bytes: usize) -> Self {
        self.target_rows = target_rows.max(1);
        self.target_bytes = target_bytes.max(1);
        self
    }

    /// Share the buffer across a group of sink instances (one per driver);
    /// the buffer closes when the whole group has finished.
    pub fn with_close_group(
        mut self,
        group: Arc<std::sync::atomic::AtomicUsize>,
    ) -> PartitionedOutputOperator {
        self.buffer_share = group.load(Ordering::SeqCst).max(1);
        self.close_group = Some(group);
        self
    }

    pub fn rows_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.rows_out)
    }
}

impl Operator for PartitionedOutputOperator {
    fn name(&self) -> &'static str {
        "PartitionedOutput"
    }

    fn needs_input(&self) -> bool {
        !self.input_done && self.buffer.can_add()
    }

    fn add_input(&mut self, page: Page) -> Result<()> {
        self.rows_out
            .fetch_add(page.row_count() as u64, Ordering::Relaxed);
        if let Some((trace, pid, tid)) = &self.trace {
            trace.record(
                TraceKind::PageEnqueue,
                *pid,
                *tid,
                page.row_count() as u64,
                page.size_in_bytes() as u64,
            );
        }
        let consumers = self.buffer.consumer_count();
        match &self.routing {
            OutputRouting::Gather => self.buffer.enqueue(0, page),
            OutputRouting::Broadcast => self.buffer.broadcast(page),
            OutputRouting::RoundRobin => {
                // Route only to currently-active partitions so writer tasks
                // can be added dynamically (§IV-E3).
                let active = self.buffer.active_partitions() as u64;
                let p = (self.round_robin_next % active) as usize;
                self.round_robin_next += 1;
                self.buffer.enqueue(p, page);
            }
            OutputRouting::Hash { channels } => {
                if consumers == 1 {
                    self.buffer.enqueue(0, page);
                    return Ok(());
                }
                let partitioner = self.partitioner.get_or_insert_with(|| {
                    PagePartitioner::new(
                        channels.clone(),
                        consumers,
                        self.target_rows,
                        self.target_bytes,
                    )
                });
                for (p, out) in partitioner.route(page) {
                    self.buffer.enqueue(p, out);
                }
            }
        }
        Ok(())
    }

    fn finish(&mut self) {
        if !self.input_done {
            self.input_done = true;
            // Flush rows still sitting in the coalescing accumulators.
            if let Some(partitioner) = &mut self.partitioner {
                for (p, out) in partitioner.finish() {
                    self.buffer.enqueue(p, out);
                }
            }
            match &self.close_group {
                None => self.buffer.set_no_more_pages(),
                Some(group) => {
                    if group.fetch_sub(1, Ordering::SeqCst) == 1 {
                        self.buffer.set_no_more_pages();
                    }
                }
            }
        }
    }

    fn output(&mut self) -> Result<Option<Page>> {
        Ok(None) // sink
    }

    fn is_finished(&self) -> bool {
        self.input_done
    }

    fn blocked(&self) -> Option<BlockedReason> {
        if !self.input_done && !self.buffer.can_add() {
            Some(BlockedReason::OutputFull)
        } else {
            None
        }
    }

    fn park(&self, waker: &Waker) -> bool {
        self.buffer.on_space(waker);
        true
    }

    fn system_memory_bytes(&self) -> usize {
        // Retained shuffle output is system memory (§IV-F2's example):
        // rows accumulating in this sink's partitioner, plus this sink's
        // share of the bytes the shared buffer retains.
        let pending = self
            .partitioner
            .as_ref()
            .map_or(0, PagePartitioner::retained_bytes);
        pending + self.buffer.retained_bytes() / self.buffer_share
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::{DataType, Schema, Value};
    use std::time::Duration;

    fn page(vals: &[i64]) -> Page {
        let schema = Schema::of(&[("x", DataType::Bigint)]);
        Page::from_rows(
            &schema,
            &vals
                .iter()
                .map(|&v| vec![Value::Bigint(v)])
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn hash_routing_is_deterministic_and_complete() {
        let buffer = OutputBuffer::new(4, 1 << 20);
        let mut sink = PartitionedOutputOperator::new(
            Arc::clone(&buffer),
            OutputRouting::Hash { channels: vec![0] },
        );
        sink.add_input(page(&(0..100).collect::<Vec<_>>())).unwrap();
        sink.finish();
        // All 100 rows arrive across the 4 partitions; same key → same part.
        let mut total = 0;
        for p in 0..4 {
            let r = buffer.poll(p, 0, usize::MAX);
            for payload in r.pages {
                total += payload.into_page().unwrap().row_count();
            }
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn hash_routing_coalesces_across_input_pages() {
        let buffer = OutputBuffer::new(4, 1 << 20);
        let mut sink = PartitionedOutputOperator::new(
            Arc::clone(&buffer),
            OutputRouting::Hash { channels: vec![0] },
        )
        .with_targets(64, usize::MAX);
        // 64 pages of 16 rows each: the old path would emit ~256 fragments
        // of ~4 rows; coalescing emits ~16 pages of ~64 rows.
        for i in 0..64 {
            sink.add_input(page(&(i * 16..(i + 1) * 16).collect::<Vec<_>>()))
                .unwrap();
        }
        assert!(
            sink.system_memory_bytes() > 0,
            "pending accumulator rows must be charged to the system pool"
        );
        sink.finish();
        let mut total_rows = 0usize;
        let mut total_pages = 0usize;
        for p in 0..4 {
            for payload in buffer.poll(p, 0, usize::MAX).pages {
                let decoded = payload.into_page().unwrap();
                total_rows += decoded.row_count();
                total_pages += 1;
            }
        }
        assert_eq!(total_rows, 1024);
        assert!(
            total_pages <= 24,
            "expected coalesced pages, got {total_pages}"
        );
        let mean = total_rows / total_pages;
        assert!(mean >= 32, "mean delivered page rows {mean} < target/2");
    }

    #[test]
    fn sink_blocks_on_full_buffer() {
        let buffer = OutputBuffer::new(1, 32);
        let mut sink = PartitionedOutputOperator::new(Arc::clone(&buffer), OutputRouting::Gather);
        while sink.needs_input() {
            sink.add_input(page(&[1, 2, 3])).unwrap();
        }
        assert_eq!(sink.blocked(), Some(BlockedReason::OutputFull));
        // Draining unblocks.
        let r = buffer.poll(0, 0, usize::MAX);
        buffer.poll(0, r.next_token, usize::MAX);
        assert!(sink.needs_input());
    }

    #[test]
    fn exchange_source_streams_until_finished() {
        let upstream = OutputBuffer::new(1, 1 << 20);
        upstream.enqueue(0, page(&[1]));
        upstream.enqueue(0, page(&[2]));
        upstream.set_no_more_pages();
        let client = Arc::new(ExchangeClient::new(1 << 20, Duration::ZERO));
        client.add_source(upstream, 0);
        let no_more = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let mut src = ExchangeSourceOperator::new(client, no_more);
        let mut rows = 0;
        while !src.is_finished() {
            if let Some(p) = src.output().unwrap() {
                rows += p.row_count();
            }
        }
        assert_eq!(rows, 2);
    }

    #[test]
    fn round_robin_spreads_pages() {
        let buffer = OutputBuffer::new(3, 1 << 20);
        let mut sink =
            PartitionedOutputOperator::new(Arc::clone(&buffer), OutputRouting::RoundRobin);
        for _ in 0..6 {
            sink.add_input(page(&[1])).unwrap();
        }
        sink.finish();
        for p in 0..3 {
            assert_eq!(buffer.poll(p, 0, usize::MAX).pages.len(), 2);
        }
    }

    /// A consumer on the producer's worker gets the page itself, so an
    /// unloaded lazy column must be loaded by the producer before the
    /// hand-over: the consumer never runs the producer's loader.
    #[test]
    fn lazy_columns_are_loaded_before_hand_over() {
        use presto_page::{Block, LazyBlock, LongBlock};
        use presto_shuffle::Payload;
        use std::sync::atomic::AtomicUsize;
        let loads = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&loads);
        let lazy = Block::Lazy(LazyBlock::new(3, move || {
            counter.fetch_add(1, Ordering::SeqCst);
            Block::from(LongBlock::from_values(vec![7, 8, 9]))
        }));
        assert!(lazy.is_lazy_unloaded());
        let buffer = OutputBuffer::with_placement(vec![true], 1 << 20, usize::MAX);
        let mut sink = PartitionedOutputOperator::new(Arc::clone(&buffer), OutputRouting::Gather);
        sink.add_input(Page::new(vec![lazy])).unwrap();
        assert_eq!(loads.load(Ordering::SeqCst), 1, "loaded on the producer");
        let r = buffer.poll(0, 0, usize::MAX);
        let Payload::Page { page, bytes } = &r.pages[0] else {
            panic!("a local consumer is handed the page");
        };
        assert!(
            matches!(page.block(0), Block::Long(_)),
            "no lazy block crosses"
        );
        assert_eq!(*bytes, page.size_in_bytes());
        assert_eq!(page.block(0).i64_at(2), 9);
        assert_eq!(loads.load(Ordering::SeqCst), 1);
    }
}
