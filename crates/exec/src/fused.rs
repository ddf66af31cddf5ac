//! Whole-pipeline fused compiled execution.
//!
//! [`FusedPipelineOperator`] runs a planner-marked `TableScan → Filter →
//! Project [→ partial Aggregate]` chain (see `presto_planner::fusion`) as
//! one operator: the compiled filter produces a selection vector, the
//! monomorphized gather kernels below compact only the channels the
//! projections need, projections evaluate over surviving rows, and the
//! partial group-by is fed pages whose key hashes were computed while the
//! gathered values were still hot — via
//! [`GroupByHash::group_ids_prehashed`](crate::agg::GroupByHash::group_ids_prehashed).
//! No intermediate page ever crosses a driver-visible operator boundary,
//! and the selection/hash/id scratch buffers are reused across pages (one
//! allocation per split instead of one per page).
//!
//! Eligibility is decided by `presto_planner::fusion::chain_fallback`,
//! shared with the task compiler: chains the fused loop does not support
//! fall back to the discrete operators, so fusion is never
//! correctness-bearing (same discipline as dynamic filtering). The gather
//! kernels in [`kernels`] are the stage-kernel seam: a SIMD or accelerator
//! backend replaces these per-physical-type loops without touching the
//! split lifecycle or the aggregation hand-off.

use presto_common::{DataType, Result, Session};
use presto_connector::{Connector, ScanOptions, Split, TupleDomain};
use presto_expr::{CompiledExpr, Expr, PageProcessor};
use presto_page::hash::{hash_block_into, DictionaryHashCache};
use presto_page::{Block, Page};
use std::sync::Arc;

use crate::agg::{AggPhase, AggSpec, HashAggregationOperator};
use crate::dynfilter::{split_pruned, ScanDynamicFilter};
use crate::operator::{BlockedReason, Operator};
use crate::scan::SplitQueue;

/// The expressions of one fused chain, in the scan's channel space.
/// `projections` is never empty of meaning: chains without an explicit
/// projection node pass identity projections over the scan schema and set
/// `explicit_project` false (stage accounting only).
pub struct FusedChain {
    pub filter: Option<Expr>,
    pub projections: Vec<Expr>,
    pub explicit_project: bool,
    pub agg: Option<FusedAggStage>,
}

/// The partial-aggregation stage of a fused chain. Channels index the
/// projection output (the aggregate's input schema).
pub struct FusedAggStage {
    pub group_channels: Vec<usize>,
    pub group_types: Vec<DataType>,
    pub specs: Vec<AggSpec>,
}

/// Monomorphized gather kernels: one tight per-physical-type loop moving
/// surviving rows into a compacted block. Encoded blocks keep their
/// encoding — dictionaries gather ids and share the dictionary, RLE runs
/// re-wrap with the surviving count, lazy blocks compose position lists
/// without loading — so downstream dictionary/RLE fast paths (projection
/// speculation, group-by entry caches) still fire.
mod kernels {
    use presto_page::blocks::{
        BoolBlock, DoubleBlock, LongBlock, NullMask, RleBlock, VarcharBlock,
    };
    use presto_page::Block;
    use std::sync::Arc;

    fn gather_nulls(mask: &NullMask, sel: &[u32]) -> NullMask {
        let m = mask.as_ref()?;
        let mut out = Vec::with_capacity(sel.len());
        let mut any = false;
        for &p in sel {
            let n = m[p as usize];
            any |= n;
            out.push(n);
        }
        if any {
            Some(out)
        } else {
            None
        }
    }

    /// One monomorphized value loop per flat block type.
    macro_rules! gather_flat {
        ($b:expr, $sel:expr, $variant:ident, $Block:ident) => {{
            let mut values = Vec::with_capacity($sel.len());
            for &p in $sel {
                values.push($b.values[p as usize]);
            }
            Block::$variant($Block {
                values,
                nulls: gather_nulls(&$b.nulls, $sel),
            })
        }};
    }

    pub fn gather_block(block: &Block, sel: &[u32]) -> Block {
        match block {
            Block::Long(b) => gather_flat!(b, sel, Long, LongBlock),
            Block::Double(b) => gather_flat!(b, sel, Double, DoubleBlock),
            Block::Bool(b) => gather_flat!(b, sel, Bool, BoolBlock),
            Block::Varchar(b) => {
                let mut offsets = Vec::with_capacity(sel.len() + 1);
                let mut bytes = Vec::new();
                offsets.push(0u32);
                for &p in sel {
                    let (s, e) = (
                        b.offsets[p as usize] as usize,
                        b.offsets[p as usize + 1] as usize,
                    );
                    bytes.extend_from_slice(&b.bytes[s..e]);
                    offsets.push(bytes.len() as u32);
                }
                Block::Varchar(VarcharBlock {
                    offsets,
                    bytes,
                    nulls: gather_nulls(&b.nulls, sel),
                })
            }
            Block::Rle(r) => Block::Rle(RleBlock {
                value: Arc::clone(&r.value),
                count: sel.len(),
            }),
            Block::Dictionary(d) => Block::Dictionary(d.filter(sel)),
            Block::Lazy(l) => Block::Lazy(l.filter_lazy(sel)),
        }
    }
}

/// Embedded partial-aggregation stage state.
struct FusedAgg {
    op: HashAggregationOperator,
    key_channels: Vec<usize>,
    /// Reused per-page row-hash buffer (keys hashed right after the gather,
    /// while the compacted blocks are hot).
    hash_buf: Vec<u64>,
    /// Reused all-zeros id buffer for the global-aggregation fast path: a
    /// group-by over no keys skips the hash table entirely.
    zero_ids: Vec<u32>,
    hash_cache: DictionaryHashCache,
    rows_in: u64,
}

/// Source operator executing a whole fused chain. Split lifecycle, dynamic
/// filtering, transient retries, and tracing mirror
/// [`ScanOperator`](crate::scan::ScanOperator) exactly; the per-page inner
/// loop replaces the discrete operator hand-offs.
pub struct FusedPipelineOperator {
    connector: Arc<dyn Connector>,
    queue: Arc<SplitQueue>,
    options: ScanOptions,
    filter: Option<CompiledExpr>,
    /// Scan channels referenced by the projections, ascending.
    needed: Vec<usize>,
    /// Whether `needed` is exactly `0..scan_columns` (gather is a move).
    needed_is_identity: bool,
    /// Projections remapped into the gathered channel space; evaluated by
    /// the page processor so its dictionary/RLE fast paths apply.
    projector: PageProcessor,
    agg: Option<FusedAgg>,
    /// Reused selection buffer.
    sel_buf: Vec<u32>,
    stage_count: u64,
    current: Option<Box<dyn presto_connector::PageSource>>,
    current_split: Option<Split>,
    retries_remaining: u32,
    max_retries: u32,
    finished: bool,
    scan_rows: u64,
    filter_rows: u64,
    project_rows: u64,
    rows_produced: u64,
    splits_processed: u64,
    trace: Option<(Arc<presto_common::TraceBuffer>, u32, u32)>,
    dyn_filter: Option<Arc<ScanDynamicFilter>>,
}

impl FusedPipelineOperator {
    pub fn new(
        connector: Arc<dyn Connector>,
        queue: Arc<SplitQueue>,
        columns: Vec<usize>,
        predicate: TupleDomain,
        chain: &FusedChain,
        session: &Session,
    ) -> FusedPipelineOperator {
        let scan_width = columns.len();
        let options = ScanOptions {
            columns,
            predicate,
            lazy: session.lazy_loading,
            target_page_rows: session.target_page_rows,
            dynamic_filter: None,
        };
        // Channels the projections actually read; filter-only channels are
        // never gathered.
        let mut needed: Vec<usize> = chain
            .projections
            .iter()
            .flat_map(|e| e.referenced_columns())
            .collect();
        needed.sort_unstable();
        needed.dedup();
        let mut map = vec![usize::MAX; scan_width];
        for (compact, &c) in needed.iter().enumerate() {
            map[c] = compact;
        }
        let remapped: Vec<Expr> = chain
            .projections
            .iter()
            .map(|e| e.remap_columns(&|c| map[c]))
            .collect();
        let needed_is_identity = needed.len() == scan_width;
        let stage_count = 1
            + u64::from(chain.filter.is_some())
            + u64::from(chain.explicit_project)
            + u64::from(chain.agg.is_some());
        let agg = chain.agg.as_ref().map(|a| FusedAgg {
            op: HashAggregationOperator::new(
                AggPhase::Partial,
                a.group_channels.clone(),
                a.group_types.clone(),
                a.specs.clone(),
                false,
            ),
            key_channels: a.group_channels.clone(),
            hash_buf: Vec::new(),
            zero_ids: Vec::new(),
            hash_cache: DictionaryHashCache::new(),
            rows_in: 0,
        });
        FusedPipelineOperator {
            connector,
            queue,
            options,
            filter: chain.filter.as_ref().map(CompiledExpr::compile),
            needed,
            needed_is_identity,
            projector: PageProcessor::new(None, &remapped, session),
            agg,
            sel_buf: Vec::new(),
            stage_count,
            current: None,
            current_split: None,
            retries_remaining: session.max_transient_retries,
            max_retries: session.max_transient_retries,
            finished: false,
            scan_rows: 0,
            filter_rows: 0,
            project_rows: 0,
            rows_produced: 0,
            splits_processed: 0,
            trace: None,
            dyn_filter: None,
        }
    }

    /// See [`ScanOperator::with_dynamic_filter`](crate::scan::ScanOperator::with_dynamic_filter).
    pub fn with_dynamic_filter(mut self, filter: Arc<ScanDynamicFilter>) -> FusedPipelineOperator {
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
    ) -> FusedPipelineOperator {
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
                self.retries_remaining -= 1;
                self.queue.add(split);
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Compact `page` to the needed channels under the current selection.
    /// `survivors == rows` moves blocks instead of gathering.
    fn compact(&self, page: Page, survivors: usize) -> Page {
        let rows = page.row_count();
        if self.needed.is_empty() {
            return Page::zero_column(survivors);
        }
        if survivors == rows {
            if self.needed_is_identity {
                return page;
            }
            let mut blocks: Vec<Option<Block>> =
                page.into_blocks().into_iter().map(Some).collect();
            return Page::new(
                self.needed
                    .iter()
                    .map(|&c| blocks[c].take().expect("each channel gathered once"))
                    .collect(),
            );
        }
        Page::new(
            self.needed
                .iter()
                .map(|&c| kernels::gather_block(page.block(c), &self.sel_buf))
                .collect(),
        )
    }

    /// The fused inner loop: filter → gather → project → partial aggregate.
    /// Returns a page only for chains without an aggregation stage; the
    /// aggregate's output is drained from [`Self::output`]'s loop head.
    fn process_page(&mut self, page: Page) -> Result<Option<Page>> {
        let rows = page.row_count();
        self.scan_rows += rows as u64;
        let survivors = match &self.filter {
            Some(f) => {
                f.eval_selection_into(&page, &mut self.sel_buf)?;
                self.sel_buf.len()
            }
            None => rows,
        };
        self.filter_rows += survivors as u64;
        if survivors == 0 {
            return Ok(None);
        }
        let compacted = self.compact(page, survivors);
        let projected = self.projector.process(&compacted)?;
        self.project_rows += projected.row_count() as u64;
        let Some(agg) = self.agg.as_mut() else {
            if projected.row_count() == 0 {
                return Ok(None);
            }
            self.rows_produced += projected.row_count() as u64;
            return Ok(Some(projected));
        };
        let agg_rows = projected.row_count();
        agg.rows_in += agg_rows as u64;
        if agg.key_channels.is_empty() {
            // Global aggregation: every row is group 0; skip the hash table.
            agg.zero_ids.clear();
            agg.zero_ids.resize(agg_rows, 0);
            agg.op.add_input_grouped(&projected, &agg.zero_ids)?;
        } else {
            // Hash the keys now, while the gathered blocks are hot, and
            // hand the hashes straight to the group-by (one sweep saved).
            agg.hash_buf.clear();
            agg.hash_buf.resize(agg_rows, 0);
            for &c in &agg.key_channels {
                hash_block_into(projected.block(c), &mut agg.hash_buf, &mut agg.hash_cache);
            }
            agg.op.add_input_prehashed(&projected, &agg.hash_buf)?;
        }
        Ok(None)
    }
}

impl Operator for FusedPipelineOperator {
    fn name(&self) -> &'static str {
        "FusedPipeline"
    }

    fn needs_input(&self) -> bool {
        false // source operator: driven by splits, not pages
    }

    fn add_input(&mut self, _page: Page) -> Result<()> {
        unreachable!("fused pipeline operators take no input")
    }

    fn finish(&mut self) {
        // Sources finish when the split queue is exhausted.
    }

    fn output(&mut self) -> Result<Option<Page>> {
        loop {
            if self.finished {
                return Ok(None);
            }
            // Drain the aggregation stage first: adaptive partial flushes
            // mid-stream and the final flush after the queue exhausts.
            if let Some(agg) = self.agg.as_mut() {
                if let Some(p) = agg.op.output()? {
                    self.rows_produced += p.row_count() as u64;
                    return Ok(Some(p));
                }
                if agg.op.is_finished() {
                    self.finished = true;
                    return Ok(None);
                }
            }
            if let Some(df) = &self.dyn_filter {
                if !df.ready() {
                    return Ok(None);
                }
                if df.provably_empty() {
                    while self.queue.pop().is_some() {
                        self.queue.mark_completed();
                        self.splits_processed += 1;
                        df.note_splits_pruned(1);
                    }
                    self.current = None;
                    self.current_split = None;
                    if self.queue.is_exhausted() {
                        match self.agg.as_mut() {
                            // A global aggregate still emits its empty-input
                            // row: flush through the loop head.
                            Some(agg) => {
                                agg.op.finish();
                                continue;
                            }
                            None => self.finished = true,
                        }
                    }
                    return Ok(None);
                }
            }
            if self.current.is_none() && !self.open_next_split()? {
                if self.queue.is_exhausted() {
                    match self.agg.as_mut() {
                        Some(agg) => {
                            agg.op.finish();
                            continue;
                        }
                        None => self.finished = true,
                    }
                }
                return Ok(None);
            }
            let source = self.current.as_mut().expect("split open");
            match source.next_page() {
                Ok(Some(page)) => {
                    let page = match &self.dyn_filter {
                        Some(df) => df.prune_rows(page),
                        None => page,
                    };
                    if page.row_count() == 0 {
                        continue;
                    }
                    if let Some(out) = self.process_page(page)? {
                        return Ok(Some(out));
                    }
                    continue;
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

    fn park(&self, waker: &presto_common::wake::Waker) -> bool {
        crate::scan::park_on_splits(&self.queue, self.dyn_filter.as_deref(), waker)
    }

    fn user_memory_bytes(&self) -> usize {
        self.agg.as_ref().map_or(0, |a| a.op.user_memory_bytes())
    }

    fn system_memory_bytes(&self) -> usize {
        let source = if self.current.is_some() { 64 * 1024 } else { 0 };
        let scratch = self.sel_buf.capacity() * 4
            + self.agg.as_ref().map_or(0, |a| {
                a.hash_buf.capacity() * 8 + a.zero_ids.capacity() * 4
            });
        source + scratch
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut counters = vec![
            ("fused_stages", self.stage_count),
            ("fused_scan_rows", self.scan_rows),
            ("fused_filter_rows", self.filter_rows),
            ("fused_project_rows", self.project_rows),
            ("splits_processed", self.splits_processed),
            ("rows_produced", self.rows_produced),
        ];
        if let Some(agg) = &self.agg {
            counters.push(("fused_agg_rows", agg.rows_in));
            counters.extend(agg.op.counters());
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
    use presto_common::{Schema, Value};
    use presto_connectors::MemoryConnector;
    use presto_expr::{AggregateFunction, AggregateKind, CmpOp};

    fn data_connector(rows: i64) -> Arc<MemoryConnector> {
        let c = MemoryConnector::new();
        let schema = Schema::of(&[("k", DataType::Bigint), ("v", DataType::Bigint)]);
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| vec![Value::Bigint(i % 7), Value::Bigint(i)])
            .collect();
        let pages: Vec<Page> = data
            .chunks(100)
            .map(|chunk| Page::from_rows(&schema, chunk))
            .collect();
        c.load_table("t", schema, pages);
        c
    }

    fn feed_splits(c: &dyn Connector, queue: &SplitQueue) {
        let mut src = c
            .split_source("t", "default", &TupleDomain::all())
            .unwrap();
        while !src.is_finished() {
            for s in src.next_batch(16).unwrap() {
                queue.add(s);
            }
        }
        queue.no_more_splits();
    }

    fn drain(op: &mut FusedPipelineOperator) -> Vec<Page> {
        let mut out = Vec::new();
        let mut guard = 0;
        while !op.is_finished() {
            guard += 1;
            assert!(guard < 100_000, "fused pipeline did not converge");
            if let Some(p) = op.output().unwrap() {
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn filter_project_without_agg() {
        let c = data_connector(1000);
        let queue = SplitQueue::new();
        feed_splits(c.as_ref(), &queue);
        let chain = FusedChain {
            filter: Some(Expr::cmp(
                CmpOp::Ge,
                Expr::column(1, DataType::Bigint),
                Expr::literal(990i64),
            )),
            projections: vec![Expr::column(1, DataType::Bigint)],
            explicit_project: true,
            agg: None,
        };
        let mut op = FusedPipelineOperator::new(
            c as Arc<dyn Connector>,
            queue,
            vec![0, 1],
            TupleDomain::all(),
            &chain,
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
        let c = data_connector(1000);
        let queue = SplitQueue::new();
        feed_splits(c.as_ref(), &queue);
        let chain = FusedChain {
            filter: Some(Expr::cmp(
                CmpOp::Lt,
                Expr::column(1, DataType::Bigint),
                Expr::literal(700i64),
            )),
            projections: vec![
                Expr::column(0, DataType::Bigint),
                Expr::column(1, DataType::Bigint),
            ],
            explicit_project: true,
            agg: Some(FusedAggStage {
                group_channels: vec![0],
                group_types: vec![DataType::Bigint],
                specs: vec![AggSpec {
                    function: AggregateFunction::new(
                        AggregateKind::Sum,
                        Some(DataType::Bigint),
                    )
                    .unwrap(),
                    input: Some(1),
                }],
            }),
        };
        let mut op = FusedPipelineOperator::new(
            c as Arc<dyn Connector>,
            queue,
            vec![0, 1],
            TupleDomain::all(),
            &chain,
            &Session::default(),
        );
        let pages = drain(&mut op);
        let mut got: Vec<(i64, i64)> = pages
            .iter()
            .flat_map(|p| {
                (0..p.row_count()).map(|i| (p.block(0).i64_at(i), p.block(1).i64_at(i)))
            })
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
        let c = data_connector(100);
        let queue = SplitQueue::new();
        feed_splits(c.as_ref(), &queue);
        let chain = FusedChain {
            // Filter that drops every row.
            filter: Some(Expr::cmp(
                CmpOp::Lt,
                Expr::column(1, DataType::Bigint),
                Expr::literal(-1i64),
            )),
            projections: vec![
                Expr::column(0, DataType::Bigint),
                Expr::column(1, DataType::Bigint),
            ],
            explicit_project: false,
            agg: Some(FusedAggStage {
                group_channels: vec![],
                group_types: vec![],
                specs: vec![AggSpec {
                    function: AggregateFunction::new(AggregateKind::Count, None).unwrap(),
                    input: None,
                }],
            }),
        };
        let mut op = FusedPipelineOperator::new(
            c as Arc<dyn Connector>,
            queue,
            vec![0, 1],
            TupleDomain::all(),
            &chain,
            &Session::default(),
        );
        let pages = drain(&mut op);
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].row_count(), 1);
        assert_eq!(pages[0].block(0).i64_at(0), 0, "COUNT of nothing is 0");
    }
}
