//! The consumer-side exchange client.
//!
//! §IV-E2: "the engine monitors the moving average of data transferred per
//! request to compute a target HTTP request concurrency that keeps the
//! input buffers populated while not exceeding their capacity. This
//! backpressure causes upstream tasks to slow down as their buffers fill
//! up."
//!
//! The client is shared by every exchange driver of a consuming task, so it
//! never sleeps or decodes while holding a shared lock. Each upstream
//! source carries its own tiny mutex plus a `busy` flag (at most one
//! in-flight request per source, claimed by compare-and-swap), simulated
//! network latency is modelled as a per-request *deadline* rather than a
//! `thread::sleep`, and decoded pages are handed to operators through a
//! lock-free queue. N drivers polling N sources therefore overlap their
//! virtual round trips instead of convoying behind one client mutex.

use crossbeam::queue::SegQueue;
use parking_lot::{Mutex, RwLock};
use presto_common::chaos::{key_of, mix, FaultPlane, Site};
use presto_common::counter_set;
use presto_common::wake::{WakeList, Waker};
use presto_common::{ErrorCode, PrestoError, Result};
use presto_page::Page;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::buffer::{decode, OutputBuffer, Payload};

counter_set! {
    /// What one exchange client has received since it was created. Frames
    /// (the wire) and handed-over pages are counted apart.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ReceivedTotals[atomic(ReceivedCounters)] {
        /// Framed (possibly compressed) bytes fetched from producers on
        /// other workers.
        wire_bytes: u64,
        /// In-memory bytes of the pages decoded from those frames (wire vs
        /// logical gives the realized shuffle compression ratio).
        logical_bytes: u64,
        /// Pages handed over by producers on this client's worker.
        local_pages: u64,
        /// In-memory bytes of those pages.
        local_bytes: u64,
        /// Transient decode failures retried (token not advanced).
        retries: u64,
    }
}

/// Process-unique client numbers, the seed of each client's retry jitter.
static NEXT_CLIENT: AtomicU64 = AtomicU64::new(0);

/// Per-source mutable state, behind the source's own lock.
struct SourceProgress {
    /// Next poll token. Only advanced after the *entire* response batch has
    /// decoded successfully — a mid-batch decode failure must leave the
    /// token untouched so the producer's retained pages can be re-fetched
    /// (at-least-once).
    token: u64,
    finished: bool,
    /// Deadline of the virtual in-flight request (simulated network
    /// latency). `None` means no request is outstanding.
    in_flight_until: Option<Instant>,
    /// Consecutive transient decode failures; reset on success.
    consecutive_failures: u32,
    /// Earliest instant the next retry of this source may fetch: set after
    /// a transient failure to `base * 2^(failures-1)` plus deterministic
    /// jitter, so retries back off instead of hammering the producer.
    retry_after: Option<Instant>,
}

/// One upstream producer this client reads from.
struct Source {
    /// Position among the client's sources (part of a decode's fault key).
    index: usize,
    buffer: Arc<OutputBuffer>,
    /// Which partition of the producer's buffer belongs to this consumer.
    partition: usize,
    /// Claimed by CAS so at most one driver works a source at a time;
    /// other drivers skip to the next source instead of blocking.
    busy: AtomicBool,
    progress: Mutex<SourceProgress>,
}

/// Outcome of working one source for one round.
enum PollOutcome {
    /// Pages (or a finished flag) were delivered.
    Delivered,
    /// A virtual request was issued or is still in flight; data may arrive
    /// once its deadline passes.
    Pending,
    /// Nothing to do (source already finished, or empty non-final response).
    Idle,
}

/// Pulls pages from all upstream task buffers feeding one consumer task.
///
/// All methods take `&self`: clone the `Arc<ExchangeClient>` into as many
/// exchange drivers as the task runs.
pub struct ExchangeClient {
    sources: RwLock<Vec<Arc<Source>>>,
    /// Pages ready for operators, with the bytes each one occupied (wire
    /// length of a frame, size of a handed-over page) so `next_page`
    /// releases exactly what `poll` charged.
    ready: SegQueue<(Page, usize)>,
    /// Bytes currently held in `ready`.
    buffered_bytes: AtomicUsize,
    /// Input buffer capacity; polls stop while it is exceeded.
    capacity_bytes: usize,
    /// Exponential moving average of bytes per poll response (f64 bits).
    avg_bits: AtomicU64,
    /// Simulated network latency per poll (models the HTTP round trip).
    poll_latency: Duration,
    /// Round-robin cursor over sources.
    cursor: AtomicUsize,
    /// Sources not yet finished.
    open: AtomicUsize,
    /// Upper bound on polls issued per `poll_progress` round.
    concurrency_cap: usize,
    /// Give up after this many consecutive decode failures on one source.
    max_retries: u32,
    /// Everything received so far, for telemetry.
    received: ReceivedCounters,
    /// Virtual requests currently outstanding (issued, deadline not yet
    /// reached).
    in_flight: AtomicUsize,
    /// The cluster's fault plane, consulted before every frame decode.
    faults: Option<Arc<FaultPlane>>,
    /// Fixed per client, so concurrent consumers' retries de-synchronize.
    jitter_salt: u64,
    /// Set when the owning query was cancelled or failed: polling stops
    /// immediately (no retry runs to exhaustion for a dead query) and the
    /// client reports finished so exchange drivers retire.
    cancelled: AtomicBool,
    /// Base of the per-source exponential retry backoff, in nanoseconds.
    retry_backoff_nanos: AtomicU64,
    /// Exchange drivers parked on this client: fired when one of them
    /// changes what the others would see — pages delivered to `ready`, a
    /// source finished, added or put into retry backoff, or a cancel.
    waiters: WakeList,
}

impl ExchangeClient {
    pub fn new(capacity_bytes: usize, poll_latency: Duration) -> ExchangeClient {
        Self::with_config(capacity_bytes, poll_latency, 8, 3)
    }

    /// `concurrency_cap` bounds polls per round (the engine passes its
    /// `EXCHANGE_CONCURRENCY` constant); `max_retries` bounds consecutive
    /// transient decode failures per source before the error propagates.
    pub fn with_config(
        capacity_bytes: usize,
        poll_latency: Duration,
        concurrency_cap: usize,
        max_retries: u32,
    ) -> ExchangeClient {
        ExchangeClient {
            sources: RwLock::new(Vec::new()),
            ready: SegQueue::new(),
            buffered_bytes: AtomicUsize::new(0),
            capacity_bytes,
            avg_bits: AtomicU64::new(0f64.to_bits()),
            poll_latency,
            cursor: AtomicUsize::new(0),
            open: AtomicUsize::new(0),
            concurrency_cap: concurrency_cap.max(1),
            max_retries: max_retries.max(1),
            received: ReceivedCounters::default(),
            in_flight: AtomicUsize::new(0),
            faults: None,
            jitter_salt: mix(NEXT_CLIENT.fetch_add(1, Ordering::Relaxed)),
            cancelled: AtomicBool::new(false),
            retry_backoff_nanos: AtomicU64::new(200_000), // 200µs
            waiters: WakeList::new(),
        }
    }

    /// Subscribe to `partition` of an upstream task's buffer. May be called
    /// as upstream tasks are scheduled (tasks stream as soon as data is
    /// available; new sources attach dynamically).
    pub fn add_source(&self, buffer: Arc<OutputBuffer>, partition: usize) {
        self.open.fetch_add(1, Ordering::SeqCst);
        let mut sources = self.sources.write();
        let index = sources.len();
        sources.push(Arc::new(Source {
            index,
            buffer,
            partition,
            busy: AtomicBool::new(false),
            progress: Mutex::new(SourceProgress {
                token: 0,
                finished: false,
                in_flight_until: None,
                consecutive_failures: 0,
                retry_after: None,
            }),
        }));
        drop(sources);
        self.waiters.wake_all();
    }

    /// Park a driver that found nothing to take: registers `waker` with
    /// every unfinished source's long-poll and with this client, and
    /// returns true when an event will announce the next page. Returns
    /// false when the wait is on a clock instead — injected request
    /// latency or a retry backoff — and the caller must re-poll on a timer.
    /// Either way, poll once more after calling.
    pub fn park(&self, waker: &Waker) -> bool {
        self.waiters.register(waker);
        let mut evented = self.poll_latency.is_zero();
        for source in self.sources.read().iter() {
            // A source another driver is working holds its lock through the
            // decode; that driver fires `waiters` if what it finds matters.
            if !source.busy.load(Ordering::Acquire) {
                let progress = source.progress.lock();
                if progress.finished {
                    continue;
                }
                evented &= progress.retry_after.is_none();
            }
            source.buffer.on_data(source.partition, waker);
        }
        evented
    }

    /// Number of sources still producing.
    pub fn open_sources(&self) -> usize {
        self.open.load(Ordering::SeqCst)
    }

    /// Consult `faults` before every frame decode: flaky transport below
    /// the retry layer.
    pub fn set_faults(&mut self, faults: Option<Arc<FaultPlane>>) {
        self.faults = faults;
    }

    /// Override the base retry backoff (tests shorten or lengthen it to
    /// observe the schedule).
    pub fn set_retry_backoff(&self, base: Duration) {
        self.retry_backoff_nanos
            .store(base.as_nanos() as u64, Ordering::SeqCst);
    }

    /// Cancel the client: the owning query was cancelled or failed. Stops
    /// all polling and retrying immediately, reports finished so exchange
    /// drivers retire, and releases the locally buffered pages.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        while let Some((_page, wire_len)) = self.ready.pop() {
            self.buffered_bytes.fetch_sub(wire_len, Ordering::SeqCst);
        }
        self.waiters.wake_all();
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Deterministic jitter for the `attempt`-th retry: up to half the
    /// backoff step, derived from the client's salt and the attempt so
    /// concurrent consumers de-synchronize without shared randomness.
    fn retry_delay(&self, attempt: u32) -> Duration {
        let base = self.retry_backoff_nanos.load(Ordering::Relaxed).max(1);
        let step = base.saturating_mul(1u64 << (attempt.saturating_sub(1)).min(10));
        let jitter = mix(self.jitter_salt ^ u64::from(attempt)) % (step / 2 + 1);
        Duration::from_nanos(step + jitter)
    }

    fn avg_bytes_per_request(&self) -> f64 {
        f64::from_bits(self.avg_bits.load(Ordering::Relaxed))
    }

    fn observe_response(&self, bytes: usize) {
        // EMA with alpha = 0.2, like a smoothed per-request size. Benign
        // race: concurrent updates may drop an observation, never corrupt.
        let old = self.avg_bytes_per_request();
        let new = 0.8 * old + 0.2 * bytes as f64;
        self.avg_bits.store(new.to_bits(), Ordering::Relaxed);
    }

    /// Target concurrent in-flight requests, derived from the moving
    /// average response size so the input buffer stays populated without
    /// overflowing (§IV-E2). Bounds how many sources one `poll_progress`
    /// call touches.
    pub fn target_concurrency(&self) -> usize {
        let n = self.sources.read().len();
        let avg = self.avg_bytes_per_request();
        if avg <= 0.0 {
            return n.clamp(1, self.concurrency_cap);
        }
        let headroom = (self.capacity_bytes as f64
            - self.buffered_bytes.load(Ordering::Relaxed) as f64)
            .max(0.0);
        ((headroom / avg).ceil() as usize).clamp(1, n.max(1).min(self.concurrency_cap))
    }

    /// Whether the client's own input buffer has room (when false, polling
    /// pauses and upstream buffers fill — backpressure).
    pub fn has_capacity(&self) -> bool {
        self.buffered_bytes.load(Ordering::Relaxed) < self.capacity_bytes
    }

    /// Bytes currently buffered locally (pages not yet taken by operators).
    /// This is what `ExchangeSourceOperator` charges to the §IV-F2 system
    /// memory pool.
    pub fn buffered_bytes(&self) -> usize {
        self.buffered_bytes.load(Ordering::Relaxed)
    }

    /// Poll some sources, moving available pages into the local buffer.
    /// Returns true if any pages were delivered or a source finished.
    /// Never sleeps and never holds a client-wide lock while decoding.
    pub fn poll_progress(&self) -> Result<bool> {
        // A cancelled query stops retrying (and fetching) immediately —
        // retry budgets must not keep dead queries alive.
        if self.is_cancelled() {
            return Ok(false);
        }
        if !self.has_capacity() {
            return Ok(false);
        }
        let sources: Vec<Arc<Source>> = self.sources.read().clone();
        if sources.is_empty() {
            return Ok(false);
        }
        let budget = self.target_concurrency();
        let mut progressed = false;
        let mut engaged = 0usize;
        for _ in 0..sources.len() {
            if engaged >= budget || !self.has_capacity() {
                break;
            }
            let idx = self.cursor.fetch_add(1, Ordering::Relaxed) % sources.len();
            let source = &sources[idx];
            // Claim the source; if another driver is already on it, move on
            // instead of waiting (this is what kills the convoy).
            if source
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let outcome = self.poll_one(source);
            source.busy.store(false, Ordering::Release);
            match outcome? {
                PollOutcome::Delivered => {
                    engaged += 1;
                    progressed = true;
                }
                PollOutcome::Pending => engaged += 1,
                PollOutcome::Idle => {}
            }
        }
        Ok(progressed)
    }

    /// Work one claimed source: honor the virtual request deadline, fetch,
    /// decode the whole batch, then commit the token.
    fn poll_one(&self, source: &Source) -> Result<PollOutcome> {
        let mut progress = source.progress.lock();
        if progress.finished {
            return Ok(PollOutcome::Idle);
        }
        // A crashed/lost producer is not an end-of-stream: surface the loss
        // as the retryable `WorkerFailed` instead of silently spending the
        // decode-retry budget against a buffer that will never recover.
        if source.buffer.is_aborted() {
            return Err(PrestoError::new(
                ErrorCode::WorkerFailed,
                "exchange source lost: producing task's worker crashed or was declared dead",
            ));
        }
        // Honor the post-failure backoff window.
        if let Some(at) = progress.retry_after {
            if Instant::now() < at {
                return Ok(PollOutcome::Pending);
            }
            progress.retry_after = None;
        }
        // Latency injection via per-request deadlines: the first touch
        // "issues" the request and returns immediately; data is delivered
        // by whichever driver touches the source after the deadline. N
        // outstanding requests therefore overlap in wall-clock time.
        if !self.poll_latency.is_zero() {
            match progress.in_flight_until {
                None => {
                    progress.in_flight_until = Some(Instant::now() + self.poll_latency);
                    self.in_flight.fetch_add(1, Ordering::Relaxed);
                    return Ok(PollOutcome::Pending);
                }
                Some(deadline) if Instant::now() < deadline => {
                    return Ok(PollOutcome::Pending);
                }
                Some(_) => {
                    progress.in_flight_until = None;
                    self.in_flight.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        let headroom = self
            .capacity_bytes
            .saturating_sub(self.buffered_bytes.load(Ordering::Relaxed))
            .max(1);
        let response = source
            .buffer
            .poll(source.partition, progress.token, headroom);
        // Decode the entire batch BEFORE advancing the token. A failure on
        // page k must not commit pages 0..k: the producer retains the whole
        // batch until the next token acknowledges it, so the retry below
        // re-fetches everything exactly once. Only frames are decoded (and
        // can fail); handed-over pages wait for the acknowledgement below.
        let mut batch: Vec<(Arc<Page>, usize)> = Vec::with_capacity(response.pages.len());
        let mut received = ReceivedTotals::default();
        for (i, payload) in response.pages.into_iter().enumerate() {
            let frame = match payload {
                Payload::Frame(frame) => frame,
                Payload::Page { page, bytes } => {
                    received.local_pages += 1;
                    received.local_bytes += bytes as u64;
                    batch.push((page, bytes));
                    continue;
                }
            };
            let injected = match &self.faults {
                Some(faults) => {
                    let key = (
                        source.index,
                        progress.token,
                        progress.consecutive_failures,
                        i,
                    );
                    faults.hit(Site::FrameDecode, key_of(key))
                }
                None => Ok(()),
            };
            match injected.and_then(|()| decode(&frame)) {
                Ok(page) => {
                    received.wire_bytes += frame.len() as u64;
                    received.logical_bytes += page.size_in_bytes() as u64;
                    batch.push((Arc::new(page), frame.len()));
                }
                Err(e) => {
                    progress.consecutive_failures += 1;
                    self.received.retries.fetch_add(1, Ordering::Relaxed);
                    if progress.consecutive_failures >= self.max_retries {
                        // Exhausted low-level retries: a page-transport
                        // fault, not an engine bug. Surface it as the
                        // retryable worker-failure class so the query fails
                        // with a fault-shaped error the coordinator (or the
                        // client) may retry, per §IV-G.
                        return Err(PrestoError::new(
                            ErrorCode::WorkerFailed,
                            format!(
                                "exchange source failed {} consecutive decodes: {e}",
                                progress.consecutive_failures
                            ),
                        ));
                    }
                    // Transient: token not advanced, nothing buffered; the
                    // next poll of this source re-fetches the same batch —
                    // after a jittered exponential backoff.
                    progress.retry_after =
                        Some(Instant::now() + self.retry_delay(progress.consecutive_failures));
                    drop(progress);
                    // This source is on a clock now: whoever parked on its
                    // long-poll must come back and re-poll on a timer.
                    self.waiters.wake_all();
                    return Ok(PollOutcome::Idle);
                }
            }
        }
        progress.consecutive_failures = 0;
        progress.token = response.next_token;
        let newly_finished = response.finished && !progress.finished;
        progress.finished = response.finished;
        drop(progress);
        if newly_finished {
            self.open.fetch_sub(1, Ordering::SeqCst);
        }
        let delivered = !batch.is_empty();
        if delivered {
            // The batch is in hand: let the producer drop it now, so each
            // handed-over page below is this client's alone and moves out
            // of its `Arc` without a copy.
            source
                .buffer
                .acknowledge(source.partition, response.next_token);
            let batch_bytes = batch.iter().map(|(_, bytes)| bytes).sum();
            self.received.add(&received);
            // Publish bytes before pages so `has_capacity` can only
            // over-estimate fullness, never under-account.
            self.buffered_bytes.fetch_add(batch_bytes, Ordering::SeqCst);
            self.observe_response(batch_bytes);
            for (page, bytes) in batch {
                self.ready.push((Arc::unwrap_or_clone(page), bytes));
            }
        }
        if delivered || newly_finished {
            self.waiters.wake_all();
            Ok(PollOutcome::Delivered)
        } else {
            Ok(PollOutcome::Idle)
        }
    }

    /// Take the next buffered page, if any. Releases the bytes the page
    /// occupied (tracked per page — a decoded page's size differs from its
    /// wire size, and mixing them corrupts the backpressure signal).
    pub fn next_page(&self) -> Option<Page> {
        let (page, wire_len) = self.ready.pop()?;
        self.buffered_bytes.fetch_sub(wire_len, Ordering::SeqCst);
        Some(page)
    }

    /// All sources finished and the local buffer is drained (or the owning
    /// query was cancelled — exchange drivers must retire immediately).
    pub fn is_finished(&self) -> bool {
        self.is_cancelled() || (self.ready.is_empty() && self.open.load(Ordering::SeqCst) == 0)
    }

    /// Everything received so far: framed and handed-over pages, retries.
    pub fn received(&self) -> ReceivedTotals {
        self.received.snapshot()
    }

    /// Virtual requests currently outstanding.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::chaos::{Effect, Trigger};
    use presto_common::{DataType, Schema, Value};

    fn decode_faults(trigger: Trigger) -> Option<Arc<FaultPlane>> {
        let plane = FaultPlane::new(0).rule(Site::FrameDecode, trigger, Effect::Transient);
        Some(Arc::new(plane))
    }

    fn page(v: i64) -> Page {
        Page::from_rows(
            &Schema::of(&[("x", DataType::Bigint)]),
            &[vec![Value::Bigint(v)]],
        )
    }

    #[test]
    fn streams_from_multiple_sources() {
        let a = OutputBuffer::new(1, 1 << 20);
        let b = OutputBuffer::new(1, 1 << 20);
        a.enqueue(0, page(1));
        b.enqueue(0, page(2));
        a.set_no_more_pages();
        b.set_no_more_pages();
        let client = ExchangeClient::new(1 << 20, Duration::ZERO);
        client.add_source(a, 0);
        client.add_source(b, 0);
        let mut values = Vec::new();
        while !client.is_finished() {
            client.poll_progress().unwrap();
            while let Some(p) = client.next_page() {
                values.push(p.block(0).i64_at(0));
            }
        }
        values.sort();
        assert_eq!(values, vec![1, 2]);
        assert!(client.received().wire_bytes > 0);
    }

    #[test]
    fn full_input_buffer_stops_polling() {
        let a = OutputBuffer::new(1, 1 << 20);
        for i in 0..100 {
            a.enqueue(0, page(i));
        }
        a.set_no_more_pages();
        // Tiny input buffer: fills after a few pages.
        let client = ExchangeClient::new(48, Duration::ZERO);
        client.add_source(Arc::clone(&a), 0);
        while client.has_capacity() {
            client.poll_progress().unwrap();
        }
        // Now over capacity: further polls are no-ops (backpressure).
        assert!(!client.has_capacity());
        assert!(!client.poll_progress().unwrap());
        // Upstream still holds the unacknowledged remainder.
        assert!(a.utilization() > 0.0);
        // Draining locally resumes polling.
        while client.next_page().is_some() {}
        assert!(client.has_capacity());
        assert!(client.poll_progress().unwrap());
    }

    #[test]
    fn target_concurrency_tracks_response_sizes() {
        let client = ExchangeClient::new(1 << 16, Duration::ZERO);
        for _ in 0..4 {
            let b = OutputBuffer::new(1, 1 << 20);
            b.enqueue(0, page(1));
            b.set_no_more_pages();
            client.add_source(b, 0);
        }
        assert!(client.target_concurrency() >= 1);
        client.poll_progress().unwrap();
        // After observing small responses, concurrency stays within bounds.
        let c = client.target_concurrency();
        assert!((1..=4).contains(&c));
    }

    #[test]
    fn empty_client_reports_finished() {
        let client = ExchangeClient::new(1024, Duration::ZERO);
        assert!(client.is_finished());
    }

    #[test]
    fn buffered_bytes_returns_to_zero_after_drain() {
        // The satellite fix: wire bytes in, the same wire bytes out. The
        // old client subtracted the *decoded* size, so the counter drifted.
        let a = OutputBuffer::new(1, 1 << 20);
        for i in 0..20 {
            a.enqueue(0, page(i));
        }
        a.set_no_more_pages();
        let client = ExchangeClient::new(1 << 20, Duration::ZERO);
        client.add_source(a, 0);
        while !client.is_finished() {
            client.poll_progress().unwrap();
            while let Some(_p) = client.next_page() {}
        }
        assert_eq!(client.buffered_bytes(), 0, "no accounting drift");
    }

    #[test]
    fn transient_decode_failure_refetches_without_loss_or_dup() {
        let a = OutputBuffer::new(1, 1 << 20);
        for i in 0..50 {
            a.enqueue(0, page(i));
        }
        a.set_no_more_pages();
        // Small input buffer keeps batches to a frame or two, so a batch
        // that hits an injected failure succeeds on its re-fetch.
        let mut client = ExchangeClient::with_config(64, Duration::ZERO, 8, 5);
        client.set_retry_backoff(Duration::ZERO);
        client.add_source(a, 0);
        // Fail every 3rd decode attempt: batches get retried, and because
        // the token only advances after a full-batch decode, every page
        // arrives exactly once.
        client.set_faults(decode_faults(Trigger::Every(3)));
        let mut values = Vec::new();
        let mut rounds = 0;
        while !client.is_finished() {
            rounds += 1;
            assert!(rounds < 10_000, "retry loop must converge");
            client.poll_progress().unwrap();
            while let Some(p) = client.next_page() {
                for row in 0..p.row_count() {
                    values.push(p.block(0).i64_at(row));
                }
            }
        }
        values.sort();
        assert_eq!(values, (0..50).collect::<Vec<i64>>());
    }

    #[test]
    fn persistent_decode_failure_eventually_propagates() {
        let a = OutputBuffer::new(1, 1 << 20);
        a.enqueue(0, page(1));
        a.set_no_more_pages();
        let mut client = ExchangeClient::with_config(1 << 20, Duration::ZERO, 8, 3);
        client.set_retry_backoff(Duration::ZERO);
        client.add_source(a, 0);
        client.set_faults(decode_faults(Trigger::Every(1))); // every decode fails
        let mut err = None;
        for _ in 0..10 {
            match client.poll_progress() {
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        let err = err.expect("exhausted retries must surface an error");
        // The low-level retry budget is spent, but the failure stays
        // fault-shaped: the coordinator (or client) may retry the whole
        // query on fresh exchanges.
        assert_eq!(err.code, presto_common::ErrorCode::WorkerFailed);
        assert!(err.is_retryable(), "transport exhaustion is a worker fault");
    }

    #[test]
    fn aborted_source_surfaces_worker_failed() {
        let a = OutputBuffer::new(1, 1 << 20);
        a.enqueue(0, page(1));
        let client = ExchangeClient::new(1 << 20, Duration::ZERO);
        client.add_source(Arc::clone(&a), 0);
        a.abort();
        let err = client.poll_progress().expect_err("lost source must error");
        assert_eq!(err.code, presto_common::ErrorCode::WorkerFailed);
        assert!(
            err.is_retryable(),
            "worker loss is retryable at query level"
        );
    }

    #[test]
    fn cancel_stops_retrying_and_finishes() {
        let a = OutputBuffer::new(1, 1 << 20);
        for i in 0..10 {
            a.enqueue(0, page(i));
        }
        let mut client = ExchangeClient::with_config(1 << 20, Duration::ZERO, 8, 1000);
        client.set_retry_backoff(Duration::ZERO);
        client.add_source(a, 0);
        client.set_faults(decode_faults(Trigger::Every(1))); // every decode fails: retry forever
        for _ in 0..5 {
            client.poll_progress().unwrap();
        }
        let retries_before = client.received().retries;
        assert!(retries_before > 0, "chaos must have forced retries");
        client.cancel();
        assert!(client.is_finished(), "cancelled client reports finished");
        for _ in 0..20 {
            assert!(!client.poll_progress().unwrap());
        }
        assert_eq!(
            client.received().retries,
            retries_before,
            "a cancelled query must stop retrying immediately"
        );
        assert_eq!(client.buffered_bytes(), 0, "cancel releases buffered bytes");
        assert!(client.next_page().is_none());
    }

    #[test]
    fn transient_failure_backs_off_before_retrying() {
        let a = OutputBuffer::new(1, 1 << 20);
        a.enqueue(0, page(1));
        a.set_no_more_pages();
        let mut client = ExchangeClient::with_config(1 << 20, Duration::ZERO, 8, 100);
        client.set_retry_backoff(Duration::from_millis(30));
        client.add_source(a, 0);
        // Fail the first decode, then let the retry through.
        client.set_faults(decode_faults(Trigger::First(1)));
        client.poll_progress().unwrap();
        assert_eq!(client.received().retries, 1);
        // Inside the backoff window no new decode is attempted.
        for _ in 0..10 {
            client.poll_progress().unwrap();
        }
        assert!(client.next_page().is_none(), "no fetch inside the backoff");
        // After the window (30ms base + ≤15ms jitter) the re-fetch succeeds.
        std::thread::sleep(Duration::from_millis(50));
        let deadline = Instant::now() + Duration::from_secs(2);
        while client.next_page().is_none() {
            assert!(Instant::now() < deadline, "retry must happen post-backoff");
            client.poll_progress().unwrap();
        }
        assert_eq!(client.received().retries, 1, "exactly one retry was needed");
    }

    #[test]
    fn retry_delay_grows_exponentially_with_jitter_bound() {
        let client = ExchangeClient::new(1 << 20, Duration::ZERO);
        client.set_retry_backoff(Duration::from_millis(10));
        let mut last = Duration::ZERO;
        for attempt in 1..=5u32 {
            let d = client.retry_delay(attempt);
            let step = Duration::from_millis(10) * 2u32.pow(attempt - 1);
            assert!(d >= step, "attempt {attempt}: {d:?} < base step {step:?}");
            assert!(d <= step + step / 2, "attempt {attempt}: jitter beyond 50%");
            assert!(d > last, "backoff must grow");
            last = d;
        }
    }

    /// The jitter is salted per client: two consumers that fail together
    /// do not retry in lockstep.
    #[test]
    fn fresh_clients_jitter_their_retries_differently() {
        let (a, b) = (
            ExchangeClient::new(1 << 20, Duration::ZERO),
            ExchangeClient::new(1 << 20, Duration::ZERO),
        );
        a.set_retry_backoff(Duration::from_millis(10));
        b.set_retry_backoff(Duration::from_millis(10));
        assert_ne!(a.retry_delay(1), b.retry_delay(1));
    }

    #[test]
    fn latency_injection_does_not_sleep() {
        // With 50ms injected latency, issuing requests to 4 sources must
        // return immediately (deadlines, not sleeps).
        let client = ExchangeClient::new(1 << 20, Duration::from_millis(50));
        for _ in 0..4 {
            let b = OutputBuffer::new(1, 1 << 20);
            b.enqueue(0, page(1));
            b.set_no_more_pages();
            client.add_source(b, 0);
        }
        let start = Instant::now();
        client.poll_progress().unwrap();
        assert!(
            start.elapsed() < Duration::from_millis(40),
            "poll_progress must not sleep for the injected latency"
        );
        // The data still arrives once deadlines pass.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = 0;
        while !client.is_finished() {
            assert!(Instant::now() < deadline, "sources must finish");
            client.poll_progress().unwrap();
            while client.next_page().is_some() {
                got += 1;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(got, 4);
    }

    fn waker() -> Waker {
        Waker::new(&presto_common::wake::Bell::new())
    }

    #[test]
    fn parked_driver_is_woken_by_upstream_data_and_end_of_stream() {
        let (a, b) = (OutputBuffer::new(2, 1 << 20), OutputBuffer::new(2, 1 << 20));
        let client = ExchangeClient::new(1 << 20, Duration::ZERO);
        client.add_source(Arc::clone(&a), 1);
        client.add_source(Arc::clone(&b), 1);
        assert!(!client.poll_progress().unwrap());
        let parked = waker();
        assert!(client.park(&parked), "nothing is on a clock");
        a.enqueue(0, page(1));
        assert!(!parked.is_woken(), "partition 0 feeds another consumer");
        b.enqueue(1, page(2));
        assert!(parked.is_woken());
        assert!(client.poll_progress().unwrap());
        assert!(client.next_page().is_some());
        // End of stream is an event too, and a finished source is no
        // longer waited on.
        let parked = waker();
        assert!(client.park(&parked));
        a.set_no_more_pages();
        assert!(parked.is_woken());
    }

    #[test]
    fn delivery_and_cancel_wake_parked_siblings() {
        let a = OutputBuffer::new(1, 1 << 20);
        let client = ExchangeClient::new(1 << 20, Duration::ZERO);
        client.add_source(Arc::clone(&a), 0);
        // The sibling parked after the pages were enqueued: only the
        // delivering driver can tell it.
        a.enqueue(0, page(1));
        a.enqueue(0, page(2));
        let sibling = waker();
        client.waiters.register(&sibling);
        assert!(client.poll_progress().unwrap());
        assert!(sibling.is_woken(), "pages were delivered");
        let parked = waker();
        client.park(&parked);
        client.cancel();
        assert!(parked.is_woken(), "a cancelled client reports finished");
    }

    /// Timed conditions stay timed: injected latency and retry backoff are
    /// deadlines no event announces.
    #[test]
    fn park_declines_while_a_request_or_a_retry_is_on_a_clock() {
        let w = waker();
        let slow = ExchangeClient::new(1 << 20, Duration::from_millis(50));
        slow.add_source(OutputBuffer::new(1, 1 << 20), 0);
        assert!(!slow.park(&w), "injected latency is a deadline");

        let a = OutputBuffer::new(1, 1 << 20);
        a.enqueue(0, page(1));
        let mut client = ExchangeClient::with_config(1 << 20, Duration::ZERO, 8, 100);
        client.set_retry_backoff(Duration::from_millis(20));
        client.add_source(a, 0);
        client.set_faults(decode_faults(Trigger::First(1)));
        let parked = waker();
        assert!(client.park(&parked));
        client.poll_progress().unwrap();
        assert_eq!(client.received().retries, 1);
        assert!(parked.is_woken(), "a backoff recalls parked drivers");
        assert!(!client.park(&w), "the backoff is a deadline");
        let deadline = Instant::now() + Duration::from_secs(5);
        while client.next_page().is_none() {
            assert!(Instant::now() < deadline, "retry must happen post-backoff");
            client.poll_progress().unwrap();
        }
        assert!(client.park(&w), "on events again after the retry");
    }
}
