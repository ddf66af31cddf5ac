//! The producer-side output buffer.

use bytes::Bytes;
use parking_lot::Mutex;
use presto_common::wake::{WakeList, Waker};
use presto_page::{frame_payload, serialize_page, Page};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Result of one long-poll request.
#[derive(Debug, Clone)]
pub struct PollResponse {
    /// Framed serialized pages, in order (see `presto_page::frame`).
    pub pages: Vec<Bytes>,
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

#[derive(Debug, Default)]
struct Partition {
    /// (sequence, framed page) pairs retained until acknowledged.
    pages: VecDeque<(u64, Bytes)>,
    /// Sequence number of the next page appended.
    next_seq: u64,
}

/// A partitioned, bounded, token-acknowledged page buffer owned by one
/// producing task.
///
/// Pages are framed ([`presto_page::frame`]) at enqueue time: the buffer
/// retains and serves *wire* bytes, so capacity, utilization, and the
/// backpressure signal all reflect what actually sits in memory awaiting
/// acknowledgement. The pre-compression (logical) byte count is tracked
/// separately for telemetry.
pub struct OutputBuffer {
    partitions: Vec<Mutex<Partition>>,
    /// Wire bytes currently retained (pending + unacknowledged).
    buffered_bytes: AtomicUsize,
    /// Soft capacity; producers stall above it.
    capacity_bytes: usize,
    /// Frames at least this long get LZ-compressed (`usize::MAX` disables).
    compression_min_bytes: usize,
    no_more_pages: std::sync::atomic::AtomicBool,
    /// Set when the producing task's worker crashed or was declared lost:
    /// consumers must surface `WorkerFailed` instead of treating the
    /// (cleared) buffer as a clean end-of-stream.
    aborted: std::sync::atomic::AtomicBool,
    /// Partitions currently accepting round-robin traffic (§IV-E3 adaptive
    /// writer scaling: consumers activate as the engine adds writer tasks).
    active_partitions: AtomicUsize,
    /// Total pages/bytes ever enqueued, for telemetry.
    total_pages: AtomicU64,
    total_wire_bytes: AtomicU64,
    total_logical_bytes: AtomicU64,
    /// Consumers holding a long-poll on one partition (§IV-E2): fired when
    /// a frame lands there or the stream ends, cleanly or not.
    data_waiters: Vec<WakeList>,
    /// Producers stalled on a full buffer: fired when an acknowledgement
    /// or a teardown brings it back under capacity.
    space_waiters: WakeList,
}

impl OutputBuffer {
    pub fn new(consumer_count: usize, capacity_bytes: usize) -> Arc<OutputBuffer> {
        Self::with_compression(consumer_count, capacity_bytes, usize::MAX)
    }

    /// Build a buffer that compresses frames at least `compression_min_bytes`
    /// long (`usize::MAX` disables compression).
    pub fn with_compression(
        consumer_count: usize,
        capacity_bytes: usize,
        compression_min_bytes: usize,
    ) -> Arc<OutputBuffer> {
        assert!(
            consumer_count > 0,
            "output buffer needs at least one consumer"
        );
        Arc::new(OutputBuffer {
            partitions: (0..consumer_count)
                .map(|_| Mutex::new(Partition::default()))
                .collect(),
            buffered_bytes: AtomicUsize::new(0),
            capacity_bytes,
            compression_min_bytes,
            no_more_pages: std::sync::atomic::AtomicBool::new(false),
            aborted: std::sync::atomic::AtomicBool::new(false),
            active_partitions: AtomicUsize::new(consumer_count),
            total_pages: AtomicU64::new(0),
            total_wire_bytes: AtomicU64::new(0),
            total_logical_bytes: AtomicU64::new(0),
            data_waiters: (0..consumer_count).map(|_| WakeList::new()).collect(),
            space_waiters: WakeList::new(),
        })
    }

    /// Hold a long-poll on `partition`: `waker` fires when a frame is
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
    /// lands). The page is serialized and framed here, on the producer's
    /// thread.
    pub fn enqueue(&self, partition: usize, page: &Page) {
        let payload = serialize_page(page);
        let logical = payload.len();
        let frame = frame_payload(&payload, self.compression_min_bytes);
        self.enqueue_frame(partition, frame, logical);
    }

    /// Append an already-framed page (used by broadcast to serialize and
    /// frame once, then share the allocation across partitions).
    /// `logical_len` is the pre-compression payload length, for telemetry.
    pub fn enqueue_frame(&self, partition: usize, frame: Bytes, logical_len: usize) {
        // A cancelled task closes the buffer while producers may still be
        // mid-quanta; their trailing pages are dropped, not an error.
        if self.no_more_pages.load(Ordering::SeqCst) {
            return;
        }
        let wire_len = frame.len();
        let mut p = self.partitions[partition].lock();
        let seq = p.next_seq;
        p.next_seq += 1;
        p.pages.push_back((seq, frame));
        // Count the bytes before unlocking: whoever can see the page can
        // free it, and a subtraction that overtook this addition would wrap
        // the counter (read back as `retained_bytes() / share`, ≈ 2^63
        // bytes of system memory, which kills the query on its per-node
        // limit).
        self.buffered_bytes.fetch_add(wire_len, Ordering::Relaxed);
        drop(p);
        self.total_pages.fetch_add(1, Ordering::Relaxed);
        self.total_wire_bytes
            .fetch_add(wire_len as u64, Ordering::Relaxed);
        self.total_logical_bytes
            .fetch_add(logical_len as u64, Ordering::Relaxed);
        self.data_waiters[partition].wake_all();
    }

    /// Broadcast a page to every partition (replicated joins). The page is
    /// serialized and framed once; `Bytes` clones share the allocation.
    pub fn broadcast(&self, page: &Page) {
        let payload = serialize_page(page);
        let logical = payload.len();
        let frame = frame_payload(&payload, self.compression_min_bytes);
        for partition in 0..self.partitions.len() {
            self.enqueue_frame(partition, frame.clone(), logical);
        }
    }

    /// Declare that no further pages will be enqueued.
    pub fn set_no_more_pages(&self) {
        self.no_more_pages.store(true, Ordering::SeqCst);
        for waiters in &self.data_waiters {
            waiters.wake_all();
        }
    }

    /// Teardown: stop accepting pages and release every retained frame
    /// (§IV-G clean teardown — unacknowledged wire bytes must not outlive
    /// their query). Consumers observe a clean end-of-stream.
    pub fn close(&self) {
        self.set_no_more_pages();
        let mut freed = 0usize;
        for partition in &self.partitions {
            let mut p = partition.lock();
            freed += p.pages.iter().map(|(_, b)| b.len()).sum::<usize>();
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
        // Drop acknowledged pages.
        let mut freed = 0usize;
        while let Some((seq, bytes)) = p.pages.front() {
            if *seq < token {
                freed += bytes.len();
                p.pages.pop_front();
            } else {
                break;
            }
        }
        if freed > 0 {
            self.buffered_bytes.fetch_sub(freed, Ordering::Relaxed);
            if self.can_add() {
                self.space_waiters.wake_all();
            }
        }
        // Collect the next batch (without removing: retained until acked).
        let mut pages = Vec::new();
        let mut size = 0usize;
        let mut next_token = token;
        for (seq, bytes) in p.pages.iter() {
            if *seq < token {
                continue;
            }
            if !pages.is_empty() && size + bytes.len() > max_bytes {
                break;
            }
            pages.push(bytes.clone());
            size += bytes.len();
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

    /// (pages, wire bytes) ever enqueued.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.total_pages.load(Ordering::Relaxed),
            self.total_wire_bytes.load(Ordering::Relaxed),
        )
    }

    /// (wire bytes, logical pre-compression bytes) ever enqueued; their
    /// ratio is the shuffle compression factor.
    pub fn byte_totals(&self) -> (u64, u64) {
        (
            self.total_wire_bytes.load(Ordering::Relaxed),
            self.total_logical_bytes.load(Ordering::Relaxed),
        )
    }

    /// Wire bytes currently retained (pending + unacknowledged). This is
    /// what the producing task's operators charge to the system memory pool.
    pub fn retained_bytes(&self) -> usize {
        self.buffered_bytes.load(Ordering::Relaxed)
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
                    buf.enqueue(0, &page(i as i64));
                }
            });
            let (mut token, mut seen) = (0, 0);
            while seen < PAGES {
                let r = buf.poll(0, token, usize::MAX);
                let held: usize = r.pages.iter().map(|b| b.len()).sum();
                assert!(buf.retained_bytes() >= held, "visible page not yet counted");
                seen += r.pages.len();
                token = r.next_token;
            }
        });
    }

    #[test]
    fn poll_with_token_acknowledges() {
        let buf = OutputBuffer::new(1, 1 << 20);
        buf.enqueue(0, &page(1));
        buf.enqueue(0, &page(2));
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
            buf.enqueue(0, &page(i));
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
            buf.enqueue(0, &page(i));
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
        buf.broadcast(&page(42));
        buf.set_no_more_pages();
        for partition in 0..3 {
            let r = buf.poll(partition, 0, usize::MAX);
            assert_eq!(r.pages.len(), 1);
            assert!(r.finished);
        }
        let (pages, _) = buf.totals();
        assert_eq!(pages, 3);
    }

    #[test]
    fn wire_bytes_drive_accounting_and_compression_is_tracked() {
        use presto_page::frame_info;
        // Highly repetitive page: compresses well once framed.
        let rows: Vec<Vec<Value>> = (0..512).map(|_| vec![Value::Bigint(7)]).collect();
        let big = Page::from_rows(&Schema::of(&[("x", DataType::Bigint)]), &rows);
        let buf = OutputBuffer::with_compression(1, 1 << 20, 64);
        buf.enqueue(0, &big);
        let r = buf.poll(0, 0, usize::MAX);
        assert_eq!(r.pages.len(), 1);
        let frame = &r.pages[0];
        let info = frame_info(frame).expect("valid frame");
        assert!(info.compressed, "512 identical rows must compress");
        // Retained bytes are the wire size of the frame, not the logical
        // serialized size — the backpressure signal sees real memory.
        assert_eq!(buf.retained_bytes(), frame.len());
        let (wire, logical) = buf.byte_totals();
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
            buf.enqueue(0, &page(i));
            buf.enqueue(1, &page(i));
        }
        assert!(buf.retained_bytes() > 0);
        buf.close();
        assert_eq!(buf.retained_bytes(), 0, "teardown must free wire bytes");
        assert!(!buf.is_aborted());
        assert_eq!(buf.state(), BufferState::Finished);
        // Late producer pages (cancelled task mid-quanta) are dropped.
        buf.enqueue(0, &page(99));
        assert_eq!(buf.retained_bytes(), 0);
        // Consumers see a clean end-of-stream.
        let r = buf.poll(0, 0, usize::MAX);
        assert!(r.pages.is_empty() && r.finished);
    }

    #[test]
    fn abort_marks_source_lost() {
        let buf = OutputBuffer::new(1, 1 << 20);
        buf.enqueue(0, &page(1));
        buf.abort();
        assert!(buf.is_aborted());
        assert_eq!(buf.retained_bytes(), 0);
    }

    #[test]
    fn partitions_are_independent() {
        let buf = OutputBuffer::new(2, 1 << 20);
        buf.enqueue(0, &page(1));
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
            ("enqueue", |b| b.enqueue(0, &page(1))),
            ("no more pages", |b| b.set_no_more_pages()),
            ("close", |b| b.close()),
            ("abort", |b| b.abort()),
        ];
        for (what, end) in ends {
            let buf = OutputBuffer::new(2, 1 << 20);
            let held = waker();
            buf.on_data(0, &held);
            // Another partition's data is not this consumer's event.
            buf.enqueue(1, &page(7));
            assert!(!held.is_woken(), "{what}: partition 1 is someone else's");
            end(&buf);
            assert!(held.is_woken(), "{what} must end the long-poll");
        }
    }

    #[test]
    fn stalled_producer_is_woken_when_an_ack_or_a_close_makes_room() {
        let buf = OutputBuffer::new(1, 64);
        for i in 0..10 {
            buf.enqueue(0, &page(i));
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
            buf.enqueue(0, &page(i));
        }
        let stalled = waker();
        buf.on_space(&stalled);
        buf.close();
        assert!(stalled.is_woken(), "teardown frees the producer too");
    }
}
