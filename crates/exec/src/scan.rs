//! The leaf operator: split-driven scan → filter → project [→ partial
//! aggregate] in one loop.
//!
//! Profiling in the paper (§IV-D2) shows most CPU goes to "decompressing,
//! decoding, filtering and applying transformations to data read from
//! connectors" — so every leaf chain runs as one operator (the
//! `ScanFilterHash`/`ScanFilterProject` fusion of Fig. 4): the connector
//! read feeds the page processor directly, and with `pipeline_fusion` on a
//! partial group-by above the chain is absorbed too: each projected page
//! goes straight into that [`HashAggregationOperator`], whose
//! [`GroupByHash::group_ids`](crate::agg::GroupByHash::group_ids) is the
//! one group-id path of the discrete operator as well. No intermediate page
//! crosses a driver-visible operator boundary. Leaf pipelines run many
//! drivers sharing one [`SplitQueue`].

use crossbeam::queue::SegQueue;
use presto_common::chaos::{key_of, mix, FaultPlane, Site};
use presto_common::wake::{WakeList, Waker};
use presto_common::{DataType, Result, Session};
use presto_connector::{Connector, ScanOptions, Split};
use presto_expr::{Expr, PageProcessor};
use presto_page::Page;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::agg::{AggPhase, AggSpec, HashAggregationOperator};
use crate::dynfilter::{split_pruned, ScanDynamicFilter};
use crate::operator::{BlockedReason, Operator, TARGET_PAGE_ROWS};

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

/// The partial-aggregation stage a leaf absorbs. Channels index the
/// projection output (the aggregate's input schema).
pub struct FusedAggStage {
    pub group_channels: Vec<usize>,
    pub group_types: Vec<DataType>,
    pub specs: Vec<AggSpec>,
}

/// The leaf source operator. One split lifecycle — dynamic-filter gating and
/// split pruning, transient retries, tracing — around one per-page body:
/// [`PageProcessor::process`], then emit the page or feed the absorbed
/// partial aggregate.
pub struct ScanOperator {
    connector: Arc<dyn Connector>,
    queue: Arc<SplitQueue>,
    options: ScanOptions,
    processor: PageProcessor,
    /// The absorbed partial aggregate.
    agg: Option<HashAggregationOperator>,
    stage_count: u64,
    current: Option<Box<dyn presto_connector::PageSource>>,
    current_split: Option<Split>,
    /// Whether rows of the open split have left the operator (emitted, or
    /// absorbed into the aggregate). From then on a failed read cannot
    /// re-run the split without duplicating them.
    split_emitted: bool,
    retries_remaining: u32,
    max_retries: u32,
    finished: bool,
    scan_rows: u64,
    /// Rows surviving the filter (and so projected).
    filter_rows: u64,
    rows_produced: u64,
    splits_processed: u64,
    /// Optional timeline: (buffer, pid, tid) for split start/finish events.
    trace: Option<(Arc<presto_common::TraceBuffer>, u32, u32)>,
    /// Join build-side domains pushed into this scan (dynamic filtering).
    dyn_filter: Option<Arc<ScanDynamicFilter>>,
    /// The cluster's fault plane, consulted before every split open and
    /// page read.
    faults: Option<Arc<FaultPlane>>,
    /// Key of the last hit on the plane: the open split and its attempt,
    /// advanced once per page read.
    fault_key: u64,
}

impl ScanOperator {
    /// `filter`/`projections` operate over the scanned columns (the scan
    /// output channel space).
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
            target_page_rows: TARGET_PAGE_ROWS,
            dynamic_filter: None,
        };
        ScanOperator {
            connector,
            queue,
            options,
            processor: PageProcessor::new(filter, projections, session),
            agg: None,
            // Scan and project always run; the filter when there is one.
            stage_count: 2 + u64::from(filter.is_some()),
            current: None,
            current_split: None,
            split_emitted: false,
            retries_remaining: session.max_transient_retries,
            max_retries: session.max_transient_retries,
            finished: false,
            scan_rows: 0,
            filter_rows: 0,
            rows_produced: 0,
            splits_processed: 0,
            trace: None,
            dyn_filter: None,
            faults: None,
            fault_key: 0,
        }
    }

    /// Consult `faults` before every split open and page read. A split's
    /// attempt is the retries this operator has spent since its last
    /// successful open, so a retried split draws afresh.
    pub fn set_faults(&mut self, faults: Option<Arc<FaultPlane>>) {
        self.faults = faults;
    }

    /// Absorb a partial aggregation over the projected pages: the operator
    /// then emits the aggregate's partial output instead of the pages.
    pub fn with_partial_aggregation(mut self, stage: &FusedAggStage) -> ScanOperator {
        self.stage_count += 1;
        self.agg = Some(HashAggregationOperator::new(
            AggPhase::Partial,
            stage.group_channels.clone(),
            stage.group_types.clone(),
            stage.specs.clone(),
            None,
        ));
        self
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
        let injected = match &self.faults {
            Some(faults) => {
                self.fault_key = key_of((&split.info, self.max_retries - self.retries_remaining));
                faults.hit(Site::SplitOpen, self.fault_key)
            }
            None => Ok(()),
        };
        match injected.and_then(|()| {
            self.connector
                .page_source_factory()
                .create_source(&split, &self.options)
        }) {
            Ok(source) => {
                self.current = Some(source);
                self.current_split = Some(split);
                self.split_emitted = false;
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

    /// The split queue is exhausted: finish, or flush the absorbed
    /// aggregate, whose output then drains through [`Self::output`]'s loop
    /// head (a global aggregate still emits its empty-input row).
    fn end_of_input(&mut self) {
        match self.agg.as_mut() {
            Some(agg) => agg.finish(),
            None => self.finished = true,
        }
    }

    /// The per-page body: filter and project, then emit the page or feed the
    /// absorbed aggregate. Returns a page only when no aggregate absorbs it.
    fn process_page(&mut self, page: Page) -> Result<Option<Page>> {
        self.scan_rows += page.row_count() as u64;
        let processed = self.processor.process(&page)?;
        // Free the scanned blocks before the aggregate allocates: the
        // allocator then hands the still-cached memory straight back.
        drop(page);
        let rows = processed.row_count();
        self.filter_rows += rows as u64;
        if rows == 0 {
            return Ok(None);
        }
        self.split_emitted = true;
        match self.agg.as_mut() {
            Some(agg) => {
                agg.add_input(processed)?;
                Ok(None)
            }
            None => {
                self.rows_produced += rows as u64;
                Ok(Some(processed))
            }
        }
    }
}

impl Operator for ScanOperator {
    fn name(&self) -> &'static str {
        "FusedPipeline"
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
            // Drain the absorbed aggregate first: adaptive partial flushes
            // mid-stream and the final flush after the queue exhausts.
            if let Some(agg) = self.agg.as_mut() {
                if let Some(p) = agg.output()? {
                    self.rows_produced += p.row_count() as u64;
                    return Ok(Some(p));
                }
                if agg.is_finished() {
                    self.finished = true;
                    return Ok(None);
                }
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
                        self.end_of_input();
                        continue;
                    }
                    return Ok(None);
                }
            }
            if self.current.is_none() && !self.open_next_split()? {
                if self.queue.is_exhausted() {
                    self.end_of_input();
                    continue;
                }
                return Ok(None);
            }
            let injected = match &self.faults {
                Some(faults) => {
                    self.fault_key = mix(self.fault_key);
                    faults.hit(Site::PageRead, self.fault_key)
                }
                None => Ok(()),
            };
            let source = self.current.as_mut().expect("split open");
            match injected.and_then(|()| source.next_page()) {
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
                    if let Some(out) = self.process_page(page)? {
                        return Ok(Some(out));
                    }
                }
                Ok(None) => {
                    self.current = None;
                    self.current_split = None;
                    self.queue.mark_completed();
                    self.splits_processed += 1;
                    self.trace_split(presto_common::TraceKind::SplitFinish);
                }
                // Retry the whole split from scratch — but only while none
                // of its rows have left; otherwise the connector's error
                // (still retryable) fails the query, which may be rerun.
                Err(e) if e.is_retryable() && !self.split_emitted && self.retries_remaining > 0 => {
                    self.retries_remaining -= 1;
                    let split = self.current_split.take().expect("split open");
                    self.current = None;
                    self.queue.add(split);
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

    /// Sleep on the split queue — unless still waiting for a dynamic
    /// filter, which ends on a deadline (`dynamic_filter_wait`), not only on
    /// publication, and so stays a timed re-poll.
    fn park(&self, waker: &Waker) -> bool {
        if self.dyn_filter.as_ref().is_some_and(|df| !df.ready()) {
            return false;
        }
        self.queue.on_split(waker);
        true
    }

    fn user_memory_bytes(&self) -> usize {
        self.agg.as_ref().map_or(0, |a| a.user_memory_bytes())
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
            ("fused_stages", self.stage_count),
            ("fused_scan_rows", self.scan_rows),
            ("fused_filter_rows", self.filter_rows),
            ("fused_project_rows", self.filter_rows),
            ("splits_processed", self.splits_processed),
            ("rows_produced", self.rows_produced),
        ];
        if let Some(agg) = &self.agg {
            counters.push(("fused_agg_rows", self.filter_rows));
            counters.extend(agg.counters());
        }
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
    use presto_common::chaos::{Effect, Trigger};
    use presto_common::{Schema, Value};
    use presto_connector::TupleDomain;
    use presto_connectors::MemoryConnector;
    use presto_expr::{AggregateFunction, AggregateKind, CmpOp};

    /// Table `t(k, v)` of `rows` rows, `row(i)` giving row `i`, in pages of
    /// 100 rows so the split queue has multiple entries.
    fn table(rows: i64, row: fn(i64) -> (i64, i64)) -> Arc<MemoryConnector> {
        let c = MemoryConnector::new();
        let schema = Schema::of(&[("k", DataType::Bigint), ("v", DataType::Bigint)]);
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                let (k, v) = row(i);
                vec![Value::Bigint(k), Value::Bigint(v)]
            })
            .collect();
        let pages: Vec<Page> = data
            .chunks(100)
            .map(|chunk| Page::from_rows(&schema, chunk))
            .collect();
        c.load_table("t", schema, pages);
        c
    }

    fn data_connector(rows: i64) -> Arc<MemoryConnector> {
        table(rows, |i| (i, i * 10))
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

    fn drain(op: &mut ScanOperator) -> Vec<Page> {
        let mut out = Vec::new();
        let mut guard = 0;
        while !op.is_finished() {
            guard += 1;
            assert!(guard < 100_000, "scan did not converge");
            if let Some(p) = op.output().unwrap() {
                out.push(p);
            }
        }
        out
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
        let plane = faults(Site::SplitOpen, Trigger::Every(2), Effect::Transient);
        let queue = SplitQueue::new();
        feed_splits(c.as_ref(), &queue);
        let session = Session::default();
        let proj = vec![Expr::column(0, DataType::Bigint)];
        let mut scan = ScanOperator::new(
            c as Arc<dyn Connector>,
            queue,
            vec![0],
            presto_connector::TupleDomain::all(),
            None,
            &proj,
            &session,
        );
        scan.set_faults(Some(Arc::clone(&plane)));
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
        assert!(plane.fired(Site::SplitOpen) > 0);
    }

    fn faults(site: Site, trigger: Trigger, effect: Effect) -> Arc<FaultPlane> {
        Arc::new(FaultPlane::new(0).rule(site, trigger, effect))
    }

    #[test]
    fn delayed_splits_still_produce_all_rows() {
        let c = data_connector(2000);
        let delay = Effect::Delay(std::time::Duration::from_micros(100));
        let plane = Arc::new(
            FaultPlane::new(7)
                .rule(Site::SplitOpen, Trigger::Chance(0.5), delay)
                .rule(Site::PageRead, Trigger::Chance(0.5), delay),
        );
        let queue = SplitQueue::new();
        feed_splits(c.as_ref(), &queue);
        let mut scan = ScanOperator::new(
            c as Arc<dyn Connector>,
            queue,
            vec![0],
            TupleDomain::all(),
            None,
            &[Expr::column(0, DataType::Bigint)],
            &Session::default(),
        );
        scan.set_faults(Some(Arc::clone(&plane)));
        let rows: usize = drain(&mut scan).iter().map(Page::row_count).sum();
        assert_eq!(rows, 2000);
        assert!(plane.fired(Site::SplitOpen) > 0 && plane.fired(Site::PageRead) > 0);
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
        let mut collector = DomainCollector::new(vec![0], &[DataType::Bigint], 100);
        if !rows.is_empty() {
            let page = Page::from_rows(&schema, &rows);
            let hashes = presto_page::hash::hash_columns(&page, &[0]);
            let rows: Vec<u32> = (0..rows.len() as u32).collect();
            collector.add_rows(&page, &rows, &hashes);
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

    #[test]
    fn filter_project_without_agg() {
        let c = table(1000, |i| (i % 7, i));
        let queue = SplitQueue::new();
        feed_splits(c.as_ref(), &queue);
        let filter = Expr::cmp(
            CmpOp::Ge,
            Expr::column(1, DataType::Bigint),
            Expr::literal(990i64),
        );
        let mut op = ScanOperator::new(
            c as Arc<dyn Connector>,
            queue,
            vec![0, 1],
            TupleDomain::all(),
            Some(&filter),
            &[Expr::column(1, DataType::Bigint)],
            &Session::default(),
        );
        let pages = drain(&mut op);
        let rows: usize = pages.iter().map(Page::row_count).sum();
        assert_eq!(rows, 10);
        for p in &pages {
            assert_eq!(p.column_count(), 1);
            assert!(p.block(0).i64_at(0) >= 990);
        }
        let counters = op.counters();
        let get = |n: &str| {
            counters
                .iter()
                .find(|(c, _)| *c == n)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert_eq!(get("fused_scan_rows"), 1000);
        assert_eq!(get("fused_filter_rows"), 10);
        assert_eq!(get("fused_project_rows"), 10);
    }

    #[test]
    fn grouped_partial_aggregation_matches_discrete() {
        let c = table(1000, |i| (i % 7, i));
        let queue = SplitQueue::new();
        feed_splits(c.as_ref(), &queue);
        let filter = Expr::cmp(
            CmpOp::Lt,
            Expr::column(1, DataType::Bigint),
            Expr::literal(700i64),
        );
        let projections = [
            Expr::column(0, DataType::Bigint),
            Expr::column(1, DataType::Bigint),
        ];
        let agg = FusedAggStage {
            group_channels: vec![0],
            group_types: vec![DataType::Bigint],
            specs: vec![AggSpec {
                function: AggregateFunction::new(AggregateKind::Sum, Some(DataType::Bigint))
                    .unwrap(),
                input: Some(1),
            }],
        };
        let mut op = ScanOperator::new(
            c as Arc<dyn Connector>,
            queue,
            vec![0, 1],
            TupleDomain::all(),
            Some(&filter),
            &projections,
            &Session::default(),
        )
        .with_partial_aggregation(&agg);
        let pages = drain(&mut op);
        let mut got: Vec<(i64, i64)> = pages
            .iter()
            .flat_map(|p| (0..p.row_count()).map(|i| (p.block(0).i64_at(i), p.block(1).i64_at(i))))
            .collect();
        got.sort_unstable();
        // Reference: plain iteration.
        let mut want = std::collections::BTreeMap::new();
        for i in 0..700i64 {
            *want.entry(i % 7).or_insert(0) += i;
        }
        let want: Vec<(i64, i64)> = want.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn global_aggregate_emits_one_row_even_when_empty() {
        let c = table(100, |i| (i % 7, i));
        let queue = SplitQueue::new();
        feed_splits(c.as_ref(), &queue);
        // Filter that drops every row.
        let filter = Expr::cmp(
            CmpOp::Lt,
            Expr::column(1, DataType::Bigint),
            Expr::literal(-1i64),
        );
        let agg = FusedAggStage {
            group_channels: vec![],
            group_types: vec![],
            specs: vec![AggSpec {
                function: AggregateFunction::new(AggregateKind::Count, None).unwrap(),
                input: None,
            }],
        };
        let mut op = ScanOperator::new(
            c as Arc<dyn Connector>,
            queue,
            vec![0, 1],
            TupleDomain::all(),
            Some(&filter),
            &[
                Expr::column(0, DataType::Bigint),
                Expr::column(1, DataType::Bigint),
            ],
            &Session::default(),
        )
        .with_partial_aggregation(&agg);
        let pages = drain(&mut op);
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].row_count(), 1);
        assert_eq!(pages[0].block(0).i64_at(0), 0, "COUNT of nothing is 0");
    }

    /// 2 000 rows in 20 pages, 4-page memory splits, and every 7th page read
    /// failing transiently: the failures land mid-split, after rows of that
    /// split have already left the operator.
    fn mid_split_failures() -> (
        Arc<MemoryConnector>,
        Arc<FaultPlane>,
        Arc<SplitQueue>,
        Session,
    ) {
        let c = data_connector(2000);
        let plane = faults(Site::PageRead, Trigger::Every(7), Effect::Transient);
        let queue = SplitQueue::new();
        feed_splits(c.as_ref(), &queue);
        let session = Session {
            max_transient_retries: 100,
            ..Session::default()
        };
        (c, plane, queue, session)
    }

    /// Drain `op` up to its first error.
    fn drain_until_error(op: &mut ScanOperator) -> (Vec<Page>, Result<()>) {
        let mut out = Vec::new();
        for _ in 0..100_000 {
            if op.is_finished() {
                return (out, Ok(()));
            }
            match op.output() {
                Ok(Some(p)) => out.push(p),
                Ok(None) => {}
                Err(e) => return (out, Err(e)),
            }
        }
        panic!("scan did not converge");
    }

    #[test]
    fn mid_split_read_failure_never_duplicates_emitted_rows() {
        let (c, plane, queue, session) = mid_split_failures();
        let mut scan = ScanOperator::new(
            c as Arc<dyn Connector>,
            queue,
            vec![0],
            TupleDomain::all(),
            None,
            &[Expr::column(0, DataType::Bigint)],
            &session,
        );
        scan.set_faults(Some(Arc::clone(&plane)));
        let (pages, result) = drain_until_error(&mut scan);
        assert!(plane.fired(Site::PageRead) > 0);
        let mut keys: Vec<i64> = pages
            .iter()
            .flat_map(|p| (0..p.row_count()).map(|i| p.block(0).i64_at(i)))
            .collect();
        let emitted = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), emitted, "a row was emitted twice");
        match result {
            Ok(()) => assert_eq!(emitted, 2000),
            Err(e) => assert!(e.is_retryable(), "{e}"),
        }
    }

    #[test]
    fn mid_split_read_failure_never_double_counts_an_absorbed_sum() {
        let (c, plane, queue, session) = mid_split_failures();
        let sum = FusedAggStage {
            group_channels: vec![],
            group_types: vec![],
            specs: vec![AggSpec {
                function: AggregateFunction::new(AggregateKind::Sum, Some(DataType::Bigint))
                    .unwrap(),
                input: Some(0),
            }],
        };
        let mut scan = ScanOperator::new(
            c as Arc<dyn Connector>,
            queue,
            vec![0, 1],
            TupleDomain::all(),
            None,
            &[Expr::column(1, DataType::Bigint)],
            &session,
        )
        .with_partial_aggregation(&sum);
        scan.set_faults(Some(Arc::clone(&plane)));
        let (pages, result) = drain_until_error(&mut scan);
        assert!(plane.fired(Site::PageRead) > 0);
        match result {
            Ok(()) => {
                let total: i64 = pages
                    .iter()
                    .flat_map(|p| (0..p.row_count()).map(|i| p.block(0).i64_at(i)))
                    .sum();
                assert_eq!(total, (0..2000i64).map(|i| i * 10).sum::<i64>());
            }
            Err(e) => assert!(e.is_retryable(), "{e}"),
        }
    }
}
