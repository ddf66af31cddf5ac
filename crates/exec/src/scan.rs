//! The table-scan operator: split-driven, fused with filter + projection.
//!
//! Profiling in the paper (§IV-D2) shows most CPU goes to "decompressing,
//! decoding, filtering and applying transformations to data read from
//! connectors" — so the scan operator fuses the connector read with the
//! page processor (the `ScanFilterHash`/`ScanFilterProject` fusion of
//! Fig. 4), and leaf pipelines run many drivers sharing one
//! [`SplitQueue`].

use crossbeam::queue::SegQueue;
use presto_common::wake::{WakeList, Waker};
use presto_common::{Result, Session};
use presto_connector::{Connector, ScanOptions, Split};
use presto_expr::{Expr, PageProcessor};
use presto_page::Page;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::dynfilter::{split_pruned, ScanDynamicFilter};
use crate::operator::{BlockedReason, Operator};

/// Shared queue of splits assigned to a task. The coordinator appends
/// batches as the connector enumerates them (§IV-D3); scan drivers pull.
#[derive(Debug, Default)]
pub struct SplitQueue {
    splits: SegQueue<Split>,
    no_more: AtomicBool,
    queued: AtomicUsize,
    /// Completed split count + CPU, reported to the coordinator for the
    /// shortest-queue assignment heuristic.
    completed: AtomicU64,
    /// Scan drivers waiting for a split or for the end of enumeration.
    split_waiters: WakeList,
    /// The split feeder, waiting for this queue to shorten.
    space_waiters: WakeList,
}

impl SplitQueue {
    pub fn new() -> Arc<SplitQueue> {
        Arc::new(SplitQueue::default())
    }

    pub fn add(&self, split: Split) {
        // Note: retried splits may be re-added after no_more_splits; the
        // re-add happens before the exhaustion check, so no split is lost.
        self.splits.push(split);
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.split_waiters.wake_all();
    }

    pub fn no_more_splits(&self) {
        self.no_more.store(true, Ordering::SeqCst);
        self.split_waiters.wake_all();
    }

    pub fn pop(&self) -> Option<Split> {
        let s = self.splits.pop();
        if s.is_some() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            self.space_waiters.wake_all();
        }
        s
    }

    /// `waker` fires when a split is added or enumeration ends. Look at the
    /// queue again after registering.
    pub fn on_split(&self, waker: &Waker) {
        self.split_waiters.register(waker);
    }

    /// `waker` fires when a split is taken. Look at
    /// [`queued_len`](Self::queued_len) again after registering.
    pub fn on_space(&self, waker: &Waker) {
        self.space_waiters.register(waker);
    }

    /// Splits waiting to run — the coordinator assigns new splits to the
    /// task with the shortest queue (§IV-D3).
    pub fn queued_len(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    pub fn is_exhausted(&self) -> bool {
        self.no_more.load(Ordering::SeqCst) && self.splits.is_empty()
    }

    pub fn mark_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }
}

/// [`Operator::park`] of a split-driven source: sleep on the queue — unless
/// it is still waiting for a dynamic filter, which ends on a deadline
/// (`dynamic_filter_wait`), not only on publication, and so stays a timed
/// re-poll.
pub(crate) fn park_on_splits(
    queue: &SplitQueue,
    dyn_filter: Option<&ScanDynamicFilter>,
    waker: &Waker,
) -> bool {
    if dyn_filter.is_some_and(|df| !df.ready()) {
        return false;
    }
    queue.on_split(waker);
    true
}

/// Fused scan → filter → project operator.
pub struct ScanOperator {
    connector: Arc<dyn Connector>,
    queue: Arc<SplitQueue>,
    options: ScanOptions,
    processor: PageProcessor,
    current: Option<Box<dyn presto_connector::PageSource>>,
    current_split: Option<Split>,
    retries_remaining: u32,
    max_retries: u32,
    finished: bool,
    rows_produced: u64,
    splits_processed: u64,
    /// Optional timeline: (buffer, pid, tid) for split start/finish events.
    trace: Option<(Arc<presto_common::TraceBuffer>, u32, u32)>,
    /// Join build-side domains pushed into this scan (dynamic filtering).
    dyn_filter: Option<Arc<ScanDynamicFilter>>,
}

impl ScanOperator {
    /// `filter`/`projections` operate over the scanned columns (the scan
    /// output channel space).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        connector: Arc<dyn Connector>,
        queue: Arc<SplitQueue>,
        columns: Vec<usize>,
        predicate: presto_connector::TupleDomain,
        filter: Option<&Expr>,
        projections: &[Expr],
        session: &Session,
    ) -> ScanOperator {
        let options = ScanOptions {
            columns,
            predicate,
            lazy: session.lazy_loading,
            target_page_rows: session.target_page_rows,
            dynamic_filter: None,
        };
        ScanOperator {
            connector,
            queue,
            options,
            processor: PageProcessor::new(filter, projections, session),
            current: None,
            current_split: None,
            retries_remaining: session.max_transient_retries,
            max_retries: session.max_transient_retries,
            finished: false,
            rows_produced: 0,
            splits_processed: 0,
            trace: None,
            dyn_filter: None,
        }
    }

    /// Attach a dynamic filter: the scan waits (bounded) for the join
    /// build-side domains, prunes splits/stripes/rows against them, and
    /// forwards the filter to the connector for stripe-level re-checks.
    pub fn with_dynamic_filter(mut self, filter: Arc<ScanDynamicFilter>) -> ScanOperator {
        self.options.dynamic_filter =
            Some(Arc::clone(&filter) as Arc<dyn presto_connector::DynamicFilter>);
        self.dyn_filter = Some(filter);
        self
    }

    pub fn with_trace(
        mut self,
        trace: Arc<presto_common::TraceBuffer>,
        pid: u32,
        tid: u32,
    ) -> ScanOperator {
        self.trace = Some((trace, pid, tid));
        self
    }

    pub fn rows_produced(&self) -> u64 {
        self.rows_produced
    }

    fn trace_split(&self, kind: presto_common::TraceKind) {
        if let Some((trace, pid, tid)) = &self.trace {
            trace.record(kind, *pid, *tid, self.splits_processed, 0);
        }
    }

    fn open_next_split(&mut self) -> Result<bool> {
        let split = loop {
            let Some(split) = self.queue.pop() else {
                return Ok(false);
            };
            // Re-prune assigned splits against the dynamic domain: filters
            // that arrived after split assignment still skip whole files.
            if let (Some(df), Some(summary)) = (&self.dyn_filter, &split.domain) {
                if let Some(dynamic) = df.table_domain() {
                    if split_pruned(&dynamic, summary) {
                        self.queue.mark_completed();
                        self.splits_processed += 1;
                        df.note_splits_pruned(1);
                        continue;
                    }
                }
            }
            break split;
        };
        match self
            .connector
            .page_source_factory()
            .create_source(&split, &self.options)
        {
            Ok(source) => {
                self.current = Some(source);
                self.current_split = Some(split);
                self.retries_remaining = self.max_retries;
                self.trace_split(presto_common::TraceKind::SplitStart);
                Ok(true)
            }
            Err(e) if e.is_retryable() && self.retries_remaining > 0 => {
                // Low-level retry (§IV-G): requeue the split and try again.
                self.retries_remaining -= 1;
                self.queue.add(split);
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }
}

impl Operator for ScanOperator {
    fn name(&self) -> &'static str {
        "ScanFilterProject"
    }

    fn needs_input(&self) -> bool {
        false // source operator: driven by splits, not pages
    }

    fn add_input(&mut self, _page: Page) -> Result<()> {
        unreachable!("scan operators take no input")
    }

    fn finish(&mut self) {
        // Sources finish when the split queue is exhausted.
    }

    fn output(&mut self) -> Result<Option<Page>> {
        loop {
            if self.finished {
                return Ok(None);
            }
            if let Some(df) = &self.dyn_filter {
                if !df.ready() {
                    // Bounded wait for build-side domains; blocked() keeps
                    // the driver polling, so an expired deadline simply
                    // resumes the scan unpruned.
                    return Ok(None);
                }
                if df.provably_empty() {
                    // Empty build side: the join emits nothing, so drain
                    // the queue without reading a byte.
                    while self.queue.pop().is_some() {
                        self.queue.mark_completed();
                        self.splits_processed += 1;
                        df.note_splits_pruned(1);
                    }
                    self.current = None;
                    self.current_split = None;
                    if self.queue.is_exhausted() {
                        self.finished = true;
                    }
                    return Ok(None);
                }
            }
            if self.current.is_none() && !self.open_next_split()? {
                if self.queue.is_exhausted() {
                    self.finished = true;
                }
                return Ok(None);
            }
            let source = self.current.as_mut().expect("split open");
            match source.next_page() {
                Ok(Some(page)) => {
                    let page = match &self.dyn_filter {
                        // Row-level membership check before any downstream
                        // work (filter/project, shuffle, probe).
                        Some(df) => df.prune_rows(page),
                        None => page,
                    };
                    if page.row_count() == 0 {
                        continue;
                    }
                    let processed = self.processor.process(&page)?;
                    if processed.is_empty() && processed.column_count() > 0 {
                        continue; // fully filtered; pull the next page
                    }
                    if processed.row_count() == 0 {
                        continue;
                    }
                    self.rows_produced += processed.row_count() as u64;
                    return Ok(Some(processed));
                }
                Ok(None) => {
                    self.current = None;
                    self.current_split = None;
                    self.queue.mark_completed();
                    self.splits_processed += 1;
                    self.trace_split(presto_common::TraceKind::SplitFinish);
                    continue;
                }
                Err(e) if e.is_retryable() && self.retries_remaining > 0 => {
                    // Retry the whole split from scratch.
                    self.retries_remaining -= 1;
                    let split = self.current_split.take().expect("split open");
                    self.current = None;
                    self.queue.add(split);
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn is_finished(&self) -> bool {
        self.finished
    }

    fn blocked(&self) -> Option<BlockedReason> {
        if !self.finished {
            if let Some(df) = &self.dyn_filter {
                if !df.ready() {
                    return Some(BlockedReason::WaitingForInput);
                }
            }
        }
        if !self.finished && self.current.is_none() && self.queue.queued_len() == 0 {
            Some(BlockedReason::WaitingForInput)
        } else {
            None
        }
    }

    fn park(&self, waker: &Waker) -> bool {
        park_on_splits(&self.queue, self.dyn_filter.as_deref(), waker)
    }

    fn system_memory_bytes(&self) -> usize {
        // Connector read buffers: charge a token per open source.
        if self.current.is_some() {
            64 * 1024
        } else {
            0
        }
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut counters = vec![
            ("splits_processed", self.splits_processed),
            ("rows_produced", self.rows_produced),
        ];
        if let Some(df) = &self.dyn_filter {
            counters.extend(df.counters());
        }
        counters
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::{DataType, Schema, Value};
    use presto_connectors::{ChaosConnector, MemoryConnector};
    use presto_expr::CmpOp;

    fn data_connector(rows: i64) -> Arc<MemoryConnector> {
        let c = MemoryConnector::new();
        let schema = Schema::of(&[("k", DataType::Bigint), ("v", DataType::Bigint)]);
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| vec![Value::Bigint(i), Value::Bigint(i * 10)])
            .collect();
        // several pages so the split queue has multiple entries
        let pages: Vec<Page> = data
            .chunks(100)
            .map(|chunk| Page::from_rows(&schema, chunk))
            .collect();
        c.load_table("t", schema, pages);
        c
    }

    fn feed_splits(c: &dyn Connector, queue: &SplitQueue) {
        let mut src = c
            .split_source("t", "default", &presto_connector::TupleDomain::all())
            .unwrap();
        while !src.is_finished() {
            for s in src.next_batch(16).unwrap() {
                queue.add(s);
            }
        }
        queue.no_more_splits();
    }

    #[test]
    fn scans_and_filters() {
        let c = data_connector(1000);
        let queue = SplitQueue::new();
        feed_splits(c.as_ref(), &queue);
        let session = Session::default();
        let filter = Expr::cmp(
            CmpOp::Ge,
            Expr::column(0, DataType::Bigint),
            Expr::literal(990i64),
        );
        let proj = vec![Expr::column(1, DataType::Bigint)];
        let mut scan = ScanOperator::new(
            c as Arc<dyn Connector>,
            queue,
            vec![0, 1],
            presto_connector::TupleDomain::all(),
            Some(&filter),
            &proj,
            &session,
        );
        let mut rows = 0;
        while !scan.is_finished() {
            if let Some(page) = scan.output().unwrap() {
                rows += page.row_count();
                assert!(page.block(0).i64_at(0) >= 9900);
            }
        }
        assert_eq!(rows, 10);
    }

    #[test]
    fn transient_failures_are_retried() {
        let c = data_connector(2000); // several pages → several splits
        let chaos = ChaosConnector::new(c as Arc<dyn Connector>, 2, 0);
        let queue = SplitQueue::new();
        feed_splits(chaos.as_ref(), &queue);
        let session = Session::default();
        let proj = vec![Expr::column(0, DataType::Bigint)];
        let mut scan = ScanOperator::new(
            Arc::clone(&chaos) as Arc<dyn Connector>,
            queue,
            vec![0],
            presto_connector::TupleDomain::all(),
            None,
            &proj,
            &session,
        );
        let mut rows = 0;
        let mut guard = 0;
        while !scan.is_finished() {
            guard += 1;
            assert!(guard < 10_000, "scan did not converge");
            if let Some(page) = scan.output().unwrap() {
                rows += page.row_count();
            }
        }
        assert_eq!(rows, 2000, "all rows survive injected transient failures");
        assert!(chaos.injected_failures() > 0);
    }

    #[test]
    fn blocked_until_splits_arrive() {
        let c = data_connector(10);
        let queue = SplitQueue::new();
        let session = Session::default();
        let proj = vec![Expr::column(0, DataType::Bigint)];
        let mut scan = ScanOperator::new(
            Arc::clone(&c) as Arc<dyn Connector>,
            Arc::clone(&queue),
            vec![0],
            presto_connector::TupleDomain::all(),
            None,
            &proj,
            &session,
        );
        assert!(scan.output().unwrap().is_none());
        assert_eq!(scan.blocked(), Some(BlockedReason::WaitingForInput));
        assert!(!scan.is_finished());
        feed_splits(c.as_ref(), &queue);
        let mut rows = 0;
        while !scan.is_finished() {
            if let Some(p) = scan.output().unwrap() {
                rows += p.row_count();
            }
        }
        assert_eq!(rows, 10);
    }

    use presto_common::PlanNodeId;

    fn scan_spec(join: PlanNodeId) -> presto_planner::DynamicFilterSpec {
        presto_planner::DynamicFilterSpec {
            join,
            join_fragment: 0,
            scan: PlanNodeId(2),
            scan_fragment: 1,
            broadcast: false,
            keys: vec![Some(presto_planner::DynamicFilterKey {
                key_index: 0,
                scan_channel: 0,
                table_column: 0,
                data_type: DataType::Bigint,
            })],
        }
    }

    fn report_build_keys(
        registry: &crate::dynfilter::DynamicFilterRegistry,
        join: PlanNodeId,
        keys: &[i64],
    ) {
        use crate::dynfilter::DomainCollector;
        let schema = Schema::of(&[("k", DataType::Bigint)]);
        let rows: Vec<Vec<Value>> = keys.iter().map(|&k| vec![Value::Bigint(k)]).collect();
        let mut collector = DomainCollector::new(vec![0], vec![DataType::Bigint], 100);
        if !rows.is_empty() {
            let page = Page::from_rows(&schema, &rows);
            let hashes = presto_page::hash::hash_columns(&page, &[0]);
            for (i, &h) in hashes.iter().enumerate() {
                collector.add_row(&page, i, h);
            }
        }
        registry.report(join, collector.finish());
    }

    #[test]
    fn dynamic_filter_gates_then_prunes_rows() {
        use crate::dynfilter::{DynamicFilterRegistry, ScanDynamicFilter};
        use presto_common::PlanNodeId;
        let c = data_connector(1000);
        let queue = SplitQueue::new();
        feed_splits(c.as_ref(), &queue);
        let session = Session::default();
        let registry = DynamicFilterRegistry::new();
        let join = PlanNodeId(1);
        registry.register(join, 1);
        let df = ScanDynamicFilter::new(
            Arc::clone(&registry),
            vec![scan_spec(join)],
            std::time::Duration::from_secs(5),
        );
        let proj = vec![Expr::column(0, DataType::Bigint)];
        let mut scan = ScanOperator::new(
            c as Arc<dyn Connector>,
            queue,
            vec![0, 1],
            presto_connector::TupleDomain::all(),
            None,
            &proj,
            &session,
        )
        .with_dynamic_filter(Arc::clone(&df));
        // Gate: domains not published yet → the scan yields, blocked.
        assert!(scan.output().unwrap().is_none());
        assert_eq!(scan.blocked(), Some(BlockedReason::WaitingForInput));
        assert!(!scan.is_finished());
        report_build_keys(&registry, join, &[5, 42]);
        let mut rows = 0;
        while !scan.is_finished() {
            if let Some(p) = scan.output().unwrap() {
                rows += p.row_count();
            }
        }
        assert_eq!(rows, 2, "only build-side keys survive the scan");
        let counters = scan.counters();
        let filtered = counters
            .iter()
            .find(|(n, _)| *n == "df_rows_filtered")
            .map(|&(_, v)| v);
        assert_eq!(filtered, Some(998));
    }

    #[test]
    fn empty_build_side_makes_scan_noop() {
        use crate::dynfilter::{DynamicFilterRegistry, ScanDynamicFilter};
        use presto_common::PlanNodeId;
        let c = data_connector(500);
        let queue = SplitQueue::new();
        feed_splits(c.as_ref(), &queue);
        let splits = queue.queued_len() as u64;
        assert!(splits > 0);
        let session = Session::default();
        let registry = DynamicFilterRegistry::new();
        let join = PlanNodeId(1);
        registry.register(join, 1);
        report_build_keys(&registry, join, &[]);
        let df = ScanDynamicFilter::new(
            Arc::clone(&registry),
            vec![scan_spec(join)],
            std::time::Duration::from_secs(5),
        );
        let proj = vec![Expr::column(0, DataType::Bigint)];
        let mut scan = ScanOperator::new(
            Arc::clone(&c) as Arc<dyn Connector>,
            Arc::clone(&queue),
            vec![0, 1],
            presto_connector::TupleDomain::all(),
            None,
            &proj,
            &session,
        )
        .with_dynamic_filter(Arc::clone(&df));
        while !scan.is_finished() {
            assert!(scan.output().unwrap().is_none(), "no page is ever read");
        }
        assert_eq!(queue.completed(), splits, "splits completed without reads");
        let counters = scan.counters();
        let pruned = counters
            .iter()
            .find(|(n, _)| *n == "df_splits_pruned")
            .map(|&(_, v)| v);
        assert_eq!(pruned, Some(splits));
    }

    #[test]
    fn expired_wait_deadline_scans_unpruned() {
        use crate::dynfilter::{DynamicFilterRegistry, ScanDynamicFilter};
        use presto_common::PlanNodeId;
        let c = data_connector(100);
        let queue = SplitQueue::new();
        feed_splits(c.as_ref(), &queue);
        let session = Session::default();
        let registry = DynamicFilterRegistry::new();
        let join = PlanNodeId(1);
        registry.register(join, 1); // never reported: the "failed worker" case
        let df = ScanDynamicFilter::new(
            Arc::clone(&registry),
            vec![scan_spec(join)],
            std::time::Duration::from_millis(20),
        );
        let proj = vec![Expr::column(0, DataType::Bigint)];
        let mut scan = ScanOperator::new(
            c as Arc<dyn Connector>,
            queue,
            vec![0, 1],
            presto_connector::TupleDomain::all(),
            None,
            &proj,
            &session,
        )
        .with_dynamic_filter(df);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut rows = 0;
        while !scan.is_finished() {
            if let Some(p) = scan.output().unwrap() {
                rows += p.row_count();
            }
        }
        assert_eq!(rows, 100, "deadline expiry falls back to a full scan");
    }

    #[test]
    fn shortest_queue_metric() {
        let queue = SplitQueue::new();
        assert_eq!(queue.queued_len(), 0);
        let c = data_connector(300);
        feed_splits(c.as_ref(), &queue);
        assert!(queue.queued_len() > 0);
    }

    #[test]
    fn split_queue_wakes_scans_on_add_and_end_and_the_feeder_on_pop() {
        use presto_common::wake::Bell;
        let bell = Bell::new();
        let c = data_connector(10);
        let queue = SplitQueue::new();
        let scan = Waker::new(&bell);
        queue.on_split(&scan);
        feed_splits(c.as_ref(), &queue);
        assert!(scan.is_woken(), "a split arrived");
        let feeder = Waker::new(&bell);
        queue.on_space(&feeder);
        assert!(queue.pop().is_some());
        assert!(feeder.is_woken(), "a split was taken");
        while queue.pop().is_some() {}
        let scan = Waker::new(&bell);
        queue.on_split(&scan);
        queue.no_more_splits();
        assert!(scan.is_woken(), "end of enumeration finishes the scan");
    }
}
