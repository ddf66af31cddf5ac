//! The producer-side output buffer.

use bytes::Bytes;
use parking_lot::Mutex;
use presto_common::counter_set;
use presto_common::wake::{WakeList, Waker};
use presto_common::{PrestoError, Result};
use presto_page::{decode_framed_page, frame_page, framed_payload_len, Page};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// One page as a consumer receives it.
#[derive(Debug, Clone)]
pub enum Payload {
    /// The page serialized and framed (`presto_page::frame`), for a consumer
    /// on another worker.
    Frame(Bytes),
    /// The page itself, loaded, for a consumer on the producer's worker.
    /// `bytes` is its in-memory size, what the buffers charge for it.
    Page { page: Arc<Page>, bytes: usize },
}

impl Payload {
    /// Bytes this payload occupies in a buffer: a frame's wire length, a
    /// handed-over page's in-memory size.
    pub fn bytes(&self) -> usize {
        match self {
            Payload::Frame(frame) => frame.len(),
            Payload::Page { bytes, .. } => *bytes,
        }
    }

    /// The page: a frame is validated and decoded; a handed-over page is
    /// taken as is, or copied while another partition (a broadcast) still
    /// shares it.
    pub fn into_page(self) -> Result<Page> {
        match self {
            Payload::Frame(frame) => decode(&frame),
            Payload::Page { page, .. } => Ok(Arc::unwrap_or_clone(page)),
        }
    }
}

/// Result of one long-poll request.
#[derive(Debug, Clone)]
pub struct PollResponse {
    /// Pages in order: frames for a remote partition, pages for a local one.
    pub pages: Vec<Payload>,
    /// Token to send with the next request (acknowledges these pages).
    pub next_token: u64,
    /// True when no further data will ever arrive for this partition.
    pub finished: bool,
}

/// Buffer lifecycle, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferState {
    Open,
    NoMorePages,
    Finished,
}

counter_set! {
    /// What one output buffer has given its consumers since it was created.
    /// Framed pages (the wire) and handed-over pages are counted apart, so
    /// `wire_bytes / pages` stays bytes per wire page.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct OutputTotals[atomic(OutputCounters)] {
        /// Pages framed for consumers on other workers.
        pages: u64,
        /// Serialized (possibly compressed) bytes of those frames.
        wire_bytes: u64,
        /// Uncompressed serialized bytes of the same frames.
        logical_bytes: u64,
        /// Pages handed over unserialized to consumers on the producer's
        /// worker.
        local_pages: u64,
        /// In-memory bytes of those pages.
        local_bytes: u64,
    }
}

#[derive(Debug, Default)]
struct Partition {
    /// (sequence, payload) pairs retained until acknowledged.
    pages: VecDeque<(u64, Payload)>,
    /// Sequence number of the next page appended.
    next_seq: u64,
}

/// A partitioned, bounded, token-acknowledged page buffer owned by one
/// producing task.
///
/// Each partition is fixed at creation as *remote* or *local*. A remote
/// partition's consumer runs on another worker: its pages are framed
/// ([`presto_page::frame`]) at enqueue, and the buffer retains and serves
/// wire bytes. A local partition's consumer shares the producer's worker:
/// it is handed the loaded page itself, with no codec on either side. Both
/// kinds go through the same sequence/token/ack, capacity, wake-up, close
/// and abort protocol, and capacity, utilization and the backpressure
/// signal count what actually sits in memory awaiting acknowledgement —
/// wire bytes for frames, in-memory bytes for pages.
pub struct OutputBuffer {
    partitions: Vec<Mutex<Partition>>,
    /// `local[p]`: partition `p`'s consumer runs on the producer's worker.
    local: Vec<bool>,
    /// Bytes currently retained (pending + unacknowledged).
    buffered_bytes: AtomicUsize,
    /// Soft capacity; producers stall above it.
    capacity_bytes: usize,
    /// Frames at least this long get LZ-compressed (`usize::MAX` disables).
    compression_min_bytes: usize,
    no_more_pages: AtomicBool,
    /// Set when the producing task's worker crashed or was declared lost:
    /// consumers must surface `WorkerFailed` instead of treating the
    /// (cleared) buffer as a clean end-of-stream.
    aborted: AtomicBool,
    /// Partitions currently accepting round-robin traffic (§IV-E3 adaptive
    /// writer scaling: consumers activate as the engine adds writer tasks).
    active_partitions: AtomicUsize,
    /// Everything ever enqueued, for telemetry.
    totals: OutputCounters,
    /// Consumers holding a long-poll on one partition (§IV-E2): fired when
    /// a page lands there or the stream ends, cleanly or not.
    data_waiters: Vec<WakeList>,
    /// Producers stalled on a full buffer: fired when an acknowledgement
    /// or a teardown brings it back under capacity.
    space_waiters: WakeList,
}

impl OutputBuffer {
    /// A buffer whose consumers are all remote, with compression off.
    pub fn new(consumer_count: usize, capacity_bytes: usize) -> Arc<OutputBuffer> {
        Self::with_placement(vec![false; consumer_count], capacity_bytes, usize::MAX)
    }

    /// Build a buffer with one partition per entry of `local` (true where
    /// that consumer runs on the producer's worker) that compresses frames
    /// at least `compression_min_bytes` long (`usize::MAX` disables
    /// compression).
    pub fn with_placement(
        local: Vec<bool>,
        capacity_bytes: usize,
        compression_min_bytes: usize,
    ) -> Arc<OutputBuffer> {
        let consumer_count = local.len();
        assert!(
            consumer_count > 0,
            "output buffer needs at least one consumer"
        );
        Arc::new(OutputBuffer {
            partitions: (0..consumer_count)
                .map(|_| Mutex::new(Partition::default()))
                .collect(),
            local,
            buffered_bytes: AtomicUsize::new(0),
            capacity_bytes,
            compression_min_bytes,
            no_more_pages: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            active_partitions: AtomicUsize::new(consumer_count),
            totals: OutputCounters::default(),
            data_waiters: (0..consumer_count).map(|_| WakeList::new()).collect(),
            space_waiters: WakeList::new(),
        })
    }

    /// Hold a long-poll on `partition`: `waker` fires when a page is
    /// enqueued there or the buffer finishes, closes or aborts. Poll again
    /// after registering.
    pub fn on_data(&self, partition: usize, waker: &Waker) {
        self.data_waiters[partition].register(waker);
    }

    /// Wait for room: `waker` fires when [`can_add`](Self::can_add) turns
    /// true again. Check it again after registering.
    pub fn on_space(&self, waker: &Waker) {
        self.space_waiters.register(waker);
    }

    pub fn consumer_count(&self) -> usize {
        self.partitions.len()
    }

    /// Partitions that round-robin routing may target. Starts at
    /// `consumer_count`; the writer-scaling monitor lowers it at creation
    /// and raises it as writer tasks are added (§IV-E3).
    pub fn active_partitions(&self) -> usize {
        self.active_partitions
            .load(Ordering::SeqCst)
            .clamp(1, self.partitions.len())
    }

    pub fn set_active_partitions(&self, n: usize) {
        self.active_partitions
            .store(n.clamp(1, self.partitions.len()), Ordering::SeqCst);
    }

    /// Current fill fraction; ≥ 1.0 means producers must stall. This is the
    /// signal the engine monitors to lower split concurrency (§IV-E2).
    pub fn utilization(&self) -> f64 {
        self.buffered_bytes.load(Ordering::Relaxed) as f64 / self.capacity_bytes.max(1) as f64
    }

    /// Whether a producer may append more data.
    pub fn can_add(&self) -> bool {
        self.buffered_bytes.load(Ordering::Relaxed) < self.capacity_bytes
    }

    /// Append a page to one partition. The caller should check
    /// [`OutputBuffer::can_add`] first and yield when full; `enqueue` itself
    /// never blocks (buffers are soft-bounded so a page in flight always
    /// lands). On the producer's thread, the page is framed for a remote
    /// partition, or loaded and handed over for a local one.
    pub fn enqueue(&self, partition: usize, page: Page) {
        let payload = if self.local[partition] {
            hand_over(page)
        } else {
            Payload::Frame(frame_page(&page, self.compression_min_bytes))
        };
        self.push(partition, payload);
    }

    /// Broadcast a page to every partition (replicated joins). The page is
    /// framed once for all remote partitions (`Bytes` clones share the
    /// allocation) and handed over once, shared, to all local ones.
    pub fn broadcast(&self, page: Page) {
        let frame = self
            .local
            .contains(&false)
            .then(|| Payload::Frame(frame_page(&page, self.compression_min_bytes)));
        let local = self.local.contains(&true).then(|| hand_over(page));
        for (partition, &is_local) in self.local.iter().enumerate() {
            let payload = if is_local { &local } else { &frame };
            self.push(partition, payload.clone().expect("built for this kind"));
        }
    }

    fn push(&self, partition: usize, payload: Payload) {
        // A cancelled task closes the buffer while producers may still be
        // mid-quanta; their trailing pages are dropped, not an error.
        if self.no_more_pages.load(Ordering::SeqCst) {
            return;
        }
        let bytes = payload.bytes();
        let counted = match &payload {
            Payload::Frame(frame) => OutputTotals {
                pages: 1,
                wire_bytes: bytes as u64,
                logical_bytes: framed_payload_len(frame) as u64,
                ..OutputTotals::default()
            },
            Payload::Page { .. } => OutputTotals {
                local_pages: 1,
                local_bytes: bytes as u64,
                ..OutputTotals::default()
            },
        };
        let mut p = self.partitions[partition].lock();
        let seq = p.next_seq;
        p.next_seq += 1;
        p.pages.push_back((seq, payload));
        // Count the bytes before unlocking: whoever can see the page can
        // free it, and a subtraction that overtook this addition would wrap
        // the counter (read back as `retained_bytes() / share`, ≈ 2^63
        // bytes of system memory, which kills the query on its per-node
        // limit).
        self.buffered_bytes.fetch_add(bytes, Ordering::Relaxed);
        drop(p);
        self.totals.add(&counted);
        self.data_waiters[partition].wake_all();
    }

    /// Declare that no further pages will be enqueued.
    pub fn set_no_more_pages(&self) {
        self.no_more_pages.store(true, Ordering::SeqCst);
        for waiters in &self.data_waiters {
            waiters.wake_all();
        }
    }

    /// Teardown: stop accepting pages and release every retained page
    /// (§IV-G clean teardown — unacknowledged pages must not outlive their
    /// query). Consumers observe a clean end-of-stream.
    pub fn close(&self) {
        self.set_no_more_pages();
        let mut freed = 0usize;
        for partition in &self.partitions {
            let mut p = partition.lock();
            freed += p.pages.iter().map(|(_, page)| page.bytes()).sum::<usize>();
            p.pages.clear();
        }
        if freed > 0 {
            self.buffered_bytes.fetch_sub(freed, Ordering::Relaxed);
        }
        self.space_waiters.wake_all();
    }

    /// Source-lost teardown: like [`close`](Self::close), but consumers must
    /// treat this buffer as a failed upstream (`WorkerFailed`), not a clean
    /// end-of-stream — the producer died mid-stream and data may be missing.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        self.close();
    }

    /// Whether the producing task was lost mid-stream.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    pub fn state(&self) -> BufferState {
        if !self.no_more_pages.load(Ordering::SeqCst) {
            return BufferState::Open;
        }
        let drained = self.partitions.iter().all(|p| p.lock().pages.is_empty());
        if drained {
            BufferState::Finished
        } else {
            BufferState::NoMorePages
        }
    }

    /// Long-poll one partition. `token` acknowledges everything before it
    /// (the implicit-ack protocol); up to `max_bytes` of pages are returned.
    pub fn poll(&self, partition: usize, token: u64, max_bytes: usize) -> PollResponse {
        let mut p = self.partitions[partition].lock();
        self.release(&mut p, token);
        // Collect the next batch (without removing: retained until acked).
        let mut pages = Vec::new();
        let mut size = 0usize;
        let mut next_token = token;
        for (seq, payload) in p.pages.iter() {
            if *seq < token {
                continue;
            }
            let bytes = payload.bytes();
            if !pages.is_empty() && size + bytes > max_bytes {
                break;
            }
            pages.push(payload.clone());
            size += bytes;
            next_token = seq + 1;
        }
        let finished = self.no_more_pages.load(Ordering::SeqCst)
            && p.pages.iter().all(|(seq, _)| *seq < next_token);
        PollResponse {
            pages,
            next_token,
            finished,
        }
    }

    /// Acknowledge everything before `token` without fetching more (the
    /// consumer's explicit acknowledgement once a batch is safely in hand).
    /// The buffer lets go of those pages now instead of at the next poll,
    /// so the consumer holds the only reference to a handed-over page.
    pub fn acknowledge(&self, partition: usize, token: u64) {
        self.release(&mut self.partitions[partition].lock(), token);
    }

    /// Drop `p`'s pages acknowledged by `token`.
    fn release(&self, p: &mut Partition, token: u64) {
        let mut freed = 0usize;
        while let Some((seq, payload)) = p.pages.front() {
            if *seq >= token {
                break;
            }
            freed += payload.bytes();
            p.pages.pop_front();
        }
        if freed > 0 {
            self.buffered_bytes.fetch_sub(freed, Ordering::Relaxed);
            if self.can_add() {
                self.space_waiters.wake_all();
            }
        }
    }

    /// Pages and bytes ever enqueued, framed and handed over.
    pub fn totals(&self) -> OutputTotals {
        self.totals.snapshot()
    }

    /// Bytes currently retained (pending + unacknowledged). This is what
    /// the producing task's operators charge to the system memory pool.
    pub fn retained_bytes(&self) -> usize {
        self.buffered_bytes.load(Ordering::Relaxed)
    }
}

/// Validate and decode one frame.
pub(crate) fn decode(frame: &[u8]) -> Result<Page> {
    decode_framed_page(frame).map_err(|e| {
        // A malformed shuffle payload is transient from the engine's view:
        // re-fetching may succeed (the paper's low-level retries).
        PrestoError::transient(format!("exchange decode failed: {e}"))
    })
}

/// A page for a consumer on the producer's worker: lazy columns are loaded
/// here, on the producer, so the consumer never runs a producer's loader.
fn hand_over(page: Page) -> Payload {
    let page = page.into_loaded();
    Payload::Page {
        bytes: page.size_in_bytes(),
        page: Arc::new(page),
    }
}

impl std::fmt::Debug for OutputBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutputBuffer")
            .field("consumers", &self.partitions.len())
            .field("utilization", &self.utilization())
            .field("state", &self.state())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::{DataType, Schema, Value};

    fn page(v: i64) -> Page {
        Page::from_rows(
            &Schema::of(&[("x", DataType::Bigint)]),
            &[vec![Value::Bigint(v)]],
        )
    }

    /// A consumer can free a page the moment it can see it, so the page's
    /// bytes must be counted by then: a release that overtook the charge
    /// would wrap `retained_bytes` (and, read through a sink's share of it,
    /// kill the query on its memory limit).
    #[test]
    fn bytes_are_counted_before_the_page_is_visible() {
        const PAGES: usize = 50_000;
        let buf = OutputBuffer::new(1, usize::MAX);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..PAGES {
                    buf.enqueue(0, page(i as i64));
                }
            });
            let (mut token, mut seen) = (0, 0);
            while seen < PAGES {
                let r = buf.poll(0, token, usize::MAX);
                let held: usize = r.pages.iter().map(Payload::bytes).sum();
                assert!(buf.retained_bytes() >= held, "visible page not yet counted");
                seen += r.pages.len();
                token = r.next_token;
            }
        });
    }

    #[test]
    fn poll_with_token_acknowledges() {
        let buf = OutputBuffer::new(1, 1 << 20);
        buf.enqueue(0, page(1));
        buf.enqueue(0, page(2));
        let r1 = buf.poll(0, 0, usize::MAX);
        assert_eq!(r1.pages.len(), 2);
        assert!(!r1.finished);
        // Same token: data retained, same response (at-least-once).
        let r1b = buf.poll(0, 0, usize::MAX);
        assert_eq!(r1b.pages.len(), 2);
        // Advancing the token releases buffer space.
        let used_before = buf.utilization();
        let r2 = buf.poll(0, r1.next_token, usize::MAX);
        assert!(r2.pages.is_empty());
        assert!(buf.utilization() < used_before);
        buf.set_no_more_pages();
        assert!(buf.poll(0, r1.next_token, usize::MAX).finished);
        assert_eq!(buf.state(), BufferState::Finished);
    }

    #[test]
    fn max_bytes_paginates_but_returns_at_least_one() {
        let buf = OutputBuffer::new(1, 1 << 20);
        for i in 0..10 {
            buf.enqueue(0, page(i));
        }
        let r = buf.poll(0, 0, 1); // tiny budget: still one page
        assert_eq!(r.pages.len(), 1);
        assert_eq!(r.next_token, 1);
    }

    #[test]
    fn utilization_and_backpressure() {
        let buf = OutputBuffer::new(1, 64);
        assert!(buf.can_add());
        for i in 0..10 {
            buf.enqueue(0, page(i));
        }
        assert!(!buf.can_add(), "past capacity the producer must stall");
        assert!(buf.utilization() >= 1.0);
        // Consumer drains; producer unblocks.
        let r = buf.poll(0, 0, usize::MAX);
        buf.poll(0, r.next_token, usize::MAX);
        assert!(buf.can_add());
    }

    #[test]
    fn broadcast_replicates_to_all_partitions() {
        let buf = OutputBuffer::new(3, 1 << 20);
        buf.broadcast(page(42));
        buf.set_no_more_pages();
        for partition in 0..3 {
            let r = buf.poll(partition, 0, usize::MAX);
            assert_eq!(r.pages.len(), 1);
            assert!(r.finished);
        }
        assert_eq!(buf.totals().pages, 3);
    }

    #[test]
    fn wire_bytes_drive_accounting_and_compression_is_tracked() {
        use presto_page::frame_info;
        // Highly repetitive page: compresses well once framed. (512 equal
        // rows would be a width-0 lane, below the 64-byte threshold; a
        // period of four takes a byte a row and repeats every four.)
        let rows: Vec<Vec<Value>> = (0..512).map(|i| vec![Value::Bigint(i % 4)]).collect();
        let big = Page::from_rows(&Schema::of(&[("x", DataType::Bigint)]), &rows);
        let buf = OutputBuffer::with_placement(vec![false], 1 << 20, 64);
        buf.enqueue(0, big);
        let r = buf.poll(0, 0, usize::MAX);
        assert_eq!(r.pages.len(), 1);
        let Payload::Frame(frame) = &r.pages[0] else {
            panic!("a remote partition serves frames");
        };
        let info = frame_info(frame).expect("valid frame");
        assert!(info.compressed, "512 rows of period four must compress");
        // Retained bytes are the wire size of the frame, not the logical
        // serialized size — the backpressure signal sees real memory.
        assert_eq!(buf.retained_bytes(), frame.len());
        let OutputTotals {
            wire_bytes: wire,
            logical_bytes: logical,
            ..
        } = buf.totals();
        assert_eq!(wire as usize, frame.len());
        assert_eq!(logical as usize, info.uncompressed_len);
        assert!(wire < logical, "wire {wire} should be < logical {logical}");
        // Acknowledging frees exactly the wire bytes.
        buf.poll(0, r.next_token, usize::MAX);
        assert_eq!(buf.retained_bytes(), 0);
    }

    #[test]
    fn close_releases_retained_bytes() {
        let buf = OutputBuffer::new(2, 1 << 20);
        for i in 0..8 {
            buf.enqueue(0, page(i));
            buf.enqueue(1, page(i));
        }
        assert!(buf.retained_bytes() > 0);
        buf.close();
        assert_eq!(buf.retained_bytes(), 0, "teardown must free wire bytes");
        assert!(!buf.is_aborted());
        assert_eq!(buf.state(), BufferState::Finished);
        // Late producer pages (cancelled task mid-quanta) are dropped.
        buf.enqueue(0, page(99));
        assert_eq!(buf.retained_bytes(), 0);
        // Consumers see a clean end-of-stream.
        let r = buf.poll(0, 0, usize::MAX);
        assert!(r.pages.is_empty() && r.finished);
    }

    #[test]
    fn abort_marks_source_lost() {
        let buf = OutputBuffer::new(1, 1 << 20);
        buf.enqueue(0, page(1));
        buf.abort();
        assert!(buf.is_aborted());
        assert_eq!(buf.retained_bytes(), 0);
    }

    #[test]
    fn partitions_are_independent() {
        let buf = OutputBuffer::new(2, 1 << 20);
        buf.enqueue(0, page(1));
        assert_eq!(buf.poll(0, 0, usize::MAX).pages.len(), 1);
        assert_eq!(buf.poll(1, 0, usize::MAX).pages.len(), 0);
    }

    fn waker() -> Waker {
        Waker::new(&presto_common::wake::Bell::new())
    }

    #[test]
    fn long_poll_fires_on_data_finish_close_and_abort() {
        type End = fn(&OutputBuffer);
        let ends: [(&str, End); 4] = [
            ("enqueue", |b| b.enqueue(0, page(1))),
            ("no more pages", |b| b.set_no_more_pages()),
            ("close", |b| b.close()),
            ("abort", |b| b.abort()),
        ];
        for (what, end) in ends {
            let buf = OutputBuffer::new(2, 1 << 20);
            let held = waker();
            buf.on_data(0, &held);
            // Another partition's data is not this consumer's event.
            buf.enqueue(1, page(7));
            assert!(!held.is_woken(), "{what}: partition 1 is someone else's");
            end(&buf);
            assert!(held.is_woken(), "{what} must end the long-poll");
        }
    }

    #[test]
    fn stalled_producer_is_woken_when_an_ack_or_a_close_makes_room() {
        let buf = OutputBuffer::new(1, 64);
        for i in 0..10 {
            buf.enqueue(0, page(i));
        }
        assert!(!buf.can_add());
        let stalled = waker();
        buf.on_space(&stalled);
        // Fetching without acknowledging frees nothing.
        let r = buf.poll(0, 0, usize::MAX);
        assert!(!stalled.is_woken());
        buf.poll(0, r.next_token, usize::MAX);
        assert!(buf.can_add() && stalled.is_woken(), "the ack made room");
        for i in 0..10 {
            buf.enqueue(0, page(i));
        }
        let stalled = waker();
        buf.on_space(&stalled);
        buf.close();
        assert!(stalled.is_woken(), "teardown frees the producer too");
    }

    /// Partition 0 remote, partition 1 local (its consumer shares the
    /// producer's worker).
    fn mixed(capacity_bytes: usize) -> Arc<OutputBuffer> {
        OutputBuffer::with_placement(vec![false, true], capacity_bytes, usize::MAX)
    }

    fn local_page(payload: &Payload) -> &Arc<Page> {
        match payload {
            Payload::Page { page, .. } => page,
            Payload::Frame(_) => panic!("a local partition hands pages over"),
        }
    }

    #[test]
    fn local_partition_hands_pages_over_and_counts_them_apart() {
        let buf = mixed(1 << 20);
        buf.enqueue(0, page(1));
        buf.enqueue(1, page(2));
        let remote = buf.poll(0, 0, usize::MAX);
        assert!(matches!(remote.pages[..], [Payload::Frame(_)]));
        let local = buf.poll(1, 0, usize::MAX);
        assert_eq!(local_page(&local.pages[0]).block(0).i64_at(0), 2);
        let totals = buf.totals();
        assert_eq!((totals.pages, totals.local_pages), (1, 1));
        assert_eq!(totals.local_bytes as usize, page(2).size_in_bytes());
        assert_eq!(
            buf.retained_bytes(),
            remote.pages[0].bytes() + local.pages[0].bytes()
        );
    }

    #[test]
    fn repoll_with_an_unacked_token_returns_the_same_local_pages() {
        let buf = mixed(1 << 20);
        buf.enqueue(1, page(1));
        buf.enqueue(1, page(2));
        let first = buf.poll(1, 0, usize::MAX);
        let again = buf.poll(1, 0, usize::MAX);
        assert_eq!(first.pages.len(), 2);
        assert_eq!(first.next_token, again.next_token);
        for (a, b) in first.pages.iter().zip(&again.pages) {
            assert!(
                Arc::ptr_eq(local_page(a), local_page(b)),
                "same page, not a copy"
            );
        }
        // The acknowledgement lets go: the consumer's handle is the last.
        buf.acknowledge(1, first.next_token);
        drop(again);
        assert_eq!(buf.retained_bytes(), 0);
        for payload in first.pages {
            assert_eq!(Arc::strong_count(local_page(&payload)), 1);
        }
    }

    #[test]
    fn backpressure_counts_the_bytes_of_local_pages() {
        let one = page(0).size_in_bytes();
        let buf = mixed(4 * one);
        for i in 0..4 {
            assert!(buf.can_add(), "page {i} fits");
            buf.enqueue(1, page(i));
        }
        assert_eq!(buf.retained_bytes(), 4 * one);
        assert!(!buf.can_add(), "local pages fill the buffer too");
        let stalled = waker();
        buf.on_space(&stalled);
        let r = buf.poll(1, 0, usize::MAX);
        assert!(!stalled.is_woken(), "fetched is not acknowledged");
        buf.acknowledge(1, r.next_token);
        assert!(buf.can_add() && stalled.is_woken(), "the ack made room");
    }

    #[test]
    fn close_and_abort_free_local_pages() {
        for abort in [false, true] {
            let buf = mixed(1 << 20);
            for i in 0..4 {
                buf.enqueue(0, page(i));
                buf.enqueue(1, page(i));
            }
            let held = buf.poll(1, 0, usize::MAX);
            if abort {
                buf.abort();
            } else {
                buf.close();
            }
            assert_eq!(buf.retained_bytes(), 0, "abort={abort}");
            for payload in &held.pages {
                assert_eq!(Arc::strong_count(local_page(payload)), 1, "abort={abort}");
            }
            assert_eq!(buf.is_aborted(), abort);
            buf.enqueue(1, page(9));
            assert_eq!(buf.retained_bytes(), 0, "late pages are dropped");
        }
    }

    #[test]
    fn consumers_of_an_aborted_mixed_buffer_get_worker_failed() {
        use crate::ExchangeClient;
        use presto_common::ErrorCode;
        use std::time::Duration;
        let buf = mixed(1 << 20);
        buf.enqueue(0, page(1));
        buf.enqueue(1, page(2));
        for partition in 0..2 {
            let client = ExchangeClient::new(1 << 20, Duration::ZERO);
            client.add_source(Arc::clone(&buf), partition);
            assert!(client.poll_progress().unwrap(), "partition {partition}");
            assert!(client.next_page().is_some());
        }
        buf.abort();
        for partition in 0..2 {
            let client = ExchangeClient::new(1 << 20, Duration::ZERO);
            client.add_source(Arc::clone(&buf), partition);
            let err = client.poll_progress().unwrap_err();
            assert_eq!(err.code, ErrorCode::WorkerFailed, "partition {partition}");
        }
    }

    #[test]
    fn broadcast_frames_once_for_remote_and_hands_over_to_local() {
        let buf = OutputBuffer::with_placement(vec![false, true, false, true], 1 << 20, usize::MAX);
        buf.broadcast(page(42));
        buf.set_no_more_pages();
        let polls: Vec<PollResponse> = (0..4).map(|p| buf.poll(p, 0, usize::MAX)).collect();
        let (Payload::Frame(a), Payload::Frame(b)) = (&polls[0].pages[0], &polls[2].pages[0])
        else {
            panic!("remote partitions get frames");
        };
        assert!(std::ptr::eq(a.as_ptr(), b.as_ptr()), "framed once, shared");
        let (x, y) = (
            local_page(&polls[1].pages[0]),
            local_page(&polls[3].pages[0]),
        );
        assert!(Arc::ptr_eq(x, y), "handed over once, shared");
        assert_eq!(x.block(0).i64_at(0), 42);
        assert!(polls.iter().all(|r| r.finished));
        let totals = buf.totals();
        assert_eq!((totals.pages, totals.local_pages), (2, 2));
    }
}
