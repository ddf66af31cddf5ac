//! Fragment → pipelines compilation (Fig. 4).
//!
//! "A task may have multiple pipelines within it … a task performing a
//! hash-join must contain at least two pipelines; one to build the hash
//! table (build pipeline), and one to stream data from the probe side and
//! perform the join (probe pipeline). When the optimizer determines that
//! part of a pipeline would benefit from increased local parallelism, it
//! can split up the pipeline and parallelize that part independently."
//!
//! Pipelines are described as *operator factories* so that a pipeline can
//! be instantiated once per driver: leaf (split-driven) pipelines run
//! [`Pipeline::driver_count`] parallel drivers sharing the split queue —
//! the intra-node parallelism of §IV-C4.

use parking_lot::Mutex;
use presto_common::wake::{WakeList, Waker};
use presto_common::Result;
use presto_page::Page;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::operator::{BlockedReason, Operator};

/// Builds one operator instance for one driver.
pub type OpFactory = Arc<dyn Fn() -> Result<Box<dyn Operator>> + Send + Sync>;

/// One pipeline: a chain of operator factories plus its parallelism.
pub struct Pipeline {
    pub factories: Vec<OpFactory>,
    pub driver_count: usize,
    /// Human-readable chain, for EXPLAIN ANALYZE-style output.
    pub description: String,
}

impl Pipeline {
    /// Instantiate the operator chain for one driver.
    pub fn instantiate(&self) -> Result<Vec<Box<dyn Operator>>> {
        self.factories.iter().map(|f| f()).collect()
    }
}

/// A local, in-task page queue linking pipelines (the "local shuffle" of
/// Fig. 4 and the merge point for UNION ALL).
pub struct LocalQueue {
    pages: Mutex<VecDeque<Page>>,
    producers: AtomicUsize,
    bytes: AtomicUsize,
    capacity: usize,
    /// The source driver, waiting for a page or the last producer.
    readers: WakeList,
    /// Sink drivers, waiting for the queue to drop under capacity.
    writers: WakeList,
}

impl LocalQueue {
    pub fn new(producers: usize, capacity: usize) -> Arc<LocalQueue> {
        Arc::new(LocalQueue {
            pages: Mutex::new(VecDeque::new()),
            producers: AtomicUsize::new(producers.max(1)),
            bytes: AtomicUsize::new(0),
            capacity,
            readers: WakeList::new(),
            writers: WakeList::new(),
        })
    }

    fn push(&self, page: Page) {
        self.bytes
            .fetch_add(page.size_in_bytes(), Ordering::Relaxed);
        self.pages.lock().push_back(page);
        self.readers.wake_all();
    }

    fn pop(&self) -> Option<Page> {
        let page = self.pages.lock().pop_front()?;
        self.bytes
            .fetch_sub(page.size_in_bytes(), Ordering::Relaxed);
        if self.has_capacity() {
            self.writers.wake_all();
        }
        Some(page)
    }

    fn has_capacity(&self) -> bool {
        self.bytes.load(Ordering::Relaxed) < self.capacity
    }

    fn producer_done(&self) {
        self.producers.fetch_sub(1, Ordering::SeqCst);
        self.readers.wake_all();
    }

    fn all_producers_done(&self) -> bool {
        self.producers.load(Ordering::SeqCst) == 0
    }
}

/// Sink writing into a [`LocalQueue`].
pub struct LocalQueueSink {
    queue: Arc<LocalQueue>,
    done: bool,
}

impl LocalQueueSink {
    pub fn new(queue: Arc<LocalQueue>) -> LocalQueueSink {
        LocalQueueSink { queue, done: false }
    }
}

impl Operator for LocalQueueSink {
    fn name(&self) -> &'static str {
        "LocalQueueSink"
    }

    fn needs_input(&self) -> bool {
        !self.done && self.queue.has_capacity()
    }

    fn add_input(&mut self, page: Page) -> Result<()> {
        self.queue.push(page);
        Ok(())
    }

    fn finish(&mut self) {
        if !self.done {
            self.done = true;
            self.queue.producer_done();
        }
    }

    fn output(&mut self) -> Result<Option<Page>> {
        Ok(None)
    }

    fn is_finished(&self) -> bool {
        self.done
    }

    fn blocked(&self) -> Option<BlockedReason> {
        if !self.done && !self.queue.has_capacity() {
            Some(BlockedReason::OutputFull)
        } else {
            None
        }
    }

    fn park(&self, waker: &Waker) -> bool {
        self.queue.writers.register(waker);
        true
    }
}

/// Source reading from a [`LocalQueue`].
pub struct LocalQueueSource {
    queue: Arc<LocalQueue>,
}

impl LocalQueueSource {
    pub fn new(queue: Arc<LocalQueue>) -> LocalQueueSource {
        LocalQueueSource { queue }
    }
}

impl Operator for LocalQueueSource {
    fn name(&self) -> &'static str {
        "LocalQueueSource"
    }

    fn needs_input(&self) -> bool {
        false
    }

    fn add_input(&mut self, _page: Page) -> Result<()> {
        unreachable!("local queue sources take no direct input")
    }

    fn finish(&mut self) {}

    fn output(&mut self) -> Result<Option<Page>> {
        Ok(self.queue.pop())
    }

    fn is_finished(&self) -> bool {
        self.queue.all_producers_done() && self.queue.pages.lock().is_empty()
    }

    fn blocked(&self) -> Option<BlockedReason> {
        if self.is_finished() {
            None
        } else {
            Some(BlockedReason::WaitingForInput)
        }
    }

    fn park(&self, waker: &Waker) -> bool {
        self.queue.readers.register(waker);
        true
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

    #[test]
    fn queue_links_producers_to_consumer() {
        let q = LocalQueue::new(2, 1 << 20);
        let mut s1 = LocalQueueSink::new(Arc::clone(&q));
        let mut s2 = LocalQueueSink::new(Arc::clone(&q));
        let mut src = LocalQueueSource::new(Arc::clone(&q));
        s1.add_input(page(1)).unwrap();
        s2.add_input(page(2)).unwrap();
        s1.finish();
        assert!(!src.is_finished(), "still one producer open");
        s2.finish();
        let mut got = Vec::new();
        while let Some(p) = src.output().unwrap() {
            got.push(p.block(0).i64_at(0));
        }
        assert_eq!(got.len(), 2);
        assert!(src.is_finished());
    }

    #[test]
    fn queue_backpressure() {
        let q = LocalQueue::new(1, 16);
        let mut sink = LocalQueueSink::new(Arc::clone(&q));
        while sink.needs_input() {
            sink.add_input(page(7)).unwrap();
        }
        assert_eq!(sink.blocked(), Some(BlockedReason::OutputFull));
        q.pop();
        // Draining below capacity unblocks eventually.
        while q.pop().is_some() {}
        assert!(sink.needs_input());
    }

    #[test]
    fn parked_ends_of_the_queue_are_woken_by_the_other_end() {
        use presto_common::wake::Bell;
        let bell = Bell::new();
        let q = LocalQueue::new(2, 16);
        let mut sink = LocalQueueSink::new(Arc::clone(&q));
        let mut last = LocalQueueSink::new(Arc::clone(&q));
        let mut src = LocalQueueSource::new(Arc::clone(&q));
        // Reader first: a page wakes it, and so does the last producer.
        let reader = Waker::new(&bell);
        assert!(src.park(&reader));
        sink.add_input(page(1)).unwrap();
        assert!(reader.is_woken());
        // Writer: parked on a full queue, woken when a pop makes room.
        while sink.needs_input() {
            sink.add_input(page(7)).unwrap();
        }
        let writer = Waker::new(&bell);
        assert!(sink.park(&writer));
        while !q.has_capacity() {
            assert!(!writer.is_woken(), "still full");
            src.output().unwrap();
        }
        assert!(writer.is_woken());
        while src.output().unwrap().is_some() {}
        let reader = Waker::new(&bell);
        src.park(&reader);
        sink.finish();
        assert!(reader.is_woken(), "each producer that ends may be the last");
        last.finish();
        assert!(src.is_finished());
    }
}
