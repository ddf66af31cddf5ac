//! Hash joins (build + probe pipelines, Fig. 4) and index joins.
//!
//! The build side is partitioned and parallel (§V-E): every
//! [`HashBuilderOperator`] pre-hashes and radix-partitions its pages as they
//! arrive — off the bridge lock — and once all builders are done, the
//! per-partition flat tables are built by whichever build drivers are
//! available, each claiming partitions from a shared queue. The probe side
//! is batched: one vectorized hash pass per page, one index-vector gather
//! per side, with dictionary and RLE fast paths that resolve each distinct
//! key once per page instead of once per row.

use parking_lot::Mutex;
use presto_common::wake::{WakeList, Waker};
use presto_common::{DataType, Schema, Value};
use presto_common::{PrestoError, Result};
use presto_expr::{CompiledExpr, Expr};
use presto_page::hash::{combine_hashes, hash_cell, hash_columns_cached, DictionaryHashCache};
use presto_page::{Block, Page};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::dynfilter::{CollectedDomains, DomainCollector, DynamicFilterSource};
use crate::flathash::FlatHashTable;
use crate::operator::{BlockedReason, Operator};
use crate::spill::{SpillManager, SpillRun};

/// Pick the radix partition for a row hash. Partitions use the *high* bits;
/// the flat tables bucket by the low bits, so the two never alias.
#[inline]
fn partition_of(hash: u64, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        (hash >> (64 - bits)) as usize
    }
}

/// Grace-join recursion: sub-partition an oversized spilled partition by
/// the *next* radix bits of the same row hash (the parent consumed the top
/// `consumed_bits`).
#[inline]
fn sub_partition_of(hash: u64, consumed_bits: u32, bits: u32) -> usize {
    ((hash << consumed_bits) >> (64 - bits)) as usize
}

/// Sub-partitions per grace-join recursion level.
const GRACE_BITS: u32 = 3;
/// Maximum grace-join recursion depth. Beyond this the partition is built
/// in memory whatever its size (pathological single-key skew cannot be
/// split by hash anyway).
const GRACE_MAX_DEPTH: u32 = 4;
/// Default in-memory build size above which a spilled partition-pair is
/// recursively sub-partitioned rather than built directly.
const GRACE_PARTITION_LIMIT: usize = 64 << 20;

/// One radix partition of the completed build side: its row addresses plus
/// a flat hash table whose entry `i` describes `rows[i]`.
struct PartitionTable {
    rows: Vec<(u32, u32)>,
    table: FlatHashTable,
}

impl PartitionTable {
    fn build(input: PartitionInput) -> PartitionTable {
        let mut rows = Vec::with_capacity(input.len);
        let mut table = FlatHashTable::with_capacity(input.len);
        for (page, entries) in input.chunks {
            for (row, hash) in entries {
                table.insert(hash);
                rows.push((page, row));
            }
        }
        PartitionTable { rows, table }
    }

    /// Cross joins keep every build row with no hash table.
    fn cross(pages: &[Page]) -> PartitionTable {
        let mut rows = Vec::new();
        for (pi, page) in pages.iter().enumerate() {
            for ri in 0..page.row_count() {
                rows.push((pi as u32, ri as u32));
            }
        }
        PartitionTable {
            rows,
            table: FlatHashTable::new(),
        }
    }

    fn memory_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<(u32, u32)>() + self.table.memory_bytes()
    }
}

/// The completed build side of a hash join.
pub struct JoinHashTable {
    /// Build pages, fully loaded (shared with the finalize state).
    pages: Arc<Vec<Page>>,
    partitions: Vec<PartitionTable>,
    partition_bits: u32,
    key_channels: Vec<usize>,
    memory_bytes: usize,
    row_count: usize,
    /// Grace join: bit `p` set means partition `p` was spilled under memory
    /// revocation. Its in-memory [`PartitionTable`] is empty; its build rows
    /// live in `build_runs[p]`. ≤ 64 partitions by construction.
    spilled_mask: u64,
    /// Spilled build-side runs, readable by every probe operator
    /// (non-consuming reads; files removed when the table drops).
    build_runs: Vec<Option<Mutex<SpillRun>>>,
}

impl JoinHashTable {
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Did any build partition spill? Probes must run the grace path.
    pub fn has_spill(&self) -> bool {
        self.spilled_mask != 0
    }

    #[inline]
    fn is_spilled(&self, partition: usize) -> bool {
        (self.spilled_mask >> partition) & 1 == 1
    }

    /// Read back one spilled partition's build pages (checksummed decode;
    /// the run file stays for other probe operators).
    fn spilled_build_pages(&self, partition: usize) -> Result<Vec<Page>> {
        match self.build_runs.get(partition).and_then(|r| r.as_ref()) {
            Some(run) => run.lock().read_pages(),
            None => Ok(Vec::new()),
        }
    }

    /// Build an in-memory table over one restored grace partition (or
    /// recursion leaf). Single partition: the row hashes already agreed on
    /// the consumed radix bits, so further partitioning is pointless.
    fn for_grace_partition(pages: Vec<Page>, key_channels: Vec<usize>) -> JoinHashTable {
        let mut input = PartitionInput::default();
        let mut cache = DictionaryHashCache::new();
        for (pi, page) in pages.iter().enumerate() {
            let hashes = hash_columns_cached(page, &key_channels, &mut cache);
            let mut entries: Vec<(u32, u64)> = Vec::new();
            for (ri, &h) in hashes.iter().enumerate() {
                if key_channels.iter().any(|&c| page.block(c).is_null(ri)) {
                    continue;
                }
                entries.push((ri as u32, h));
            }
            input.len += entries.len();
            input.chunks.push((pi as u32, entries));
        }
        let part = PartitionTable::build(input);
        let page_bytes: usize = pages.iter().map(Page::size_in_bytes).sum();
        let layout_bytes = part.memory_bytes();
        let row_count = part.rows.len();
        JoinHashTable {
            pages: Arc::new(pages),
            partitions: vec![part],
            partition_bits: 0,
            key_channels,
            memory_bytes: page_bytes + layout_bytes,
            row_count,
            spilled_mask: 0,
            build_runs: Vec::new(),
        }
    }

    /// Exact retained bytes: page data plus every partition's row-address
    /// vector and flat-table arrays.
    pub fn memory_bytes(&self) -> usize {
        self.memory_bytes
    }

    /// Bytes of hash-lookup structure (everything beyond the page data).
    pub fn hash_layout_bytes(&self) -> usize {
        self.partitions.iter().map(PartitionTable::memory_bytes).sum()
    }

    /// All build rows in partition order (cross joins, diagnostics).
    pub fn iter_rows(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.partitions.iter().flat_map(|p| p.rows.iter().copied())
    }

    pub fn pages(&self) -> &[Page] {
        &self.pages
    }

    pub fn page(&self, i: u32) -> &Page {
        &self.pages[i as usize]
    }

    /// The partition a hash routes to.
    #[inline]
    fn partition(&self, hash: u64) -> &PartitionTable {
        &self.partitions[partition_of(hash, self.partition_bits)]
    }

    /// Candidate build-row addresses for a probe hash; the caller must
    /// verify key equality (hash collisions).
    fn candidates(&self, hash: u64) -> impl Iterator<Item = (u32, u32)> + '_ {
        let p = self.partition(hash);
        p.table.probe(hash).map(move |e| p.rows[e as usize])
    }

    /// Compare the build keys at `addr` against `key_blocks[i]` at `row`
    /// (the probe page's key columns, or a dictionary block).
    fn keys_match(&self, addr: (u32, u32), key_blocks: &[&Block], row: usize) -> bool {
        let build_page = &self.pages[addr.0 as usize];
        self.key_channels
            .iter()
            .zip(key_blocks)
            .all(|(&bc, pb)| build_page.block(bc).eq_at(addr.1 as usize, pb, row))
    }
}

/// Pre-partitioned build input: per partition, a list of page chunks with
/// their (row, hash) entries. Appending a chunk is O(1), so builders only
/// ever hold the bridge lock for a vector move.
#[derive(Default)]
struct PartitionInput {
    chunks: Vec<(u32, Vec<(u32, u64)>)>,
    len: usize,
}

/// Work queue for the parallel finalize: partitions are claimed by index
/// and built entirely outside the bridge's state lock.
struct FinalizeState {
    pages: Arc<Vec<Page>>,
    key_channels: Vec<usize>,
    partition_bits: u32,
    inputs: Vec<Mutex<PartitionInput>>,
    built: Vec<Mutex<Option<PartitionTable>>>,
    next: AtomicUsize,
    remaining: AtomicUsize,
    built_bytes: AtomicUsize,
    /// Spilled-partition state carried through to the assembled table.
    spill: Mutex<Option<BuildSpill>>,
}

/// Grace-join spill state on the build side. Present only when the bridge
/// was armed with [`JoinBridge::enable_spill`] (keyed joins with spill on).
struct BuildSpill {
    manager: Arc<SpillManager>,
    /// Bit `p`: partition `p` has been revoked to disk.
    spilled_mask: u64,
    /// One run per spilled partition (`None` until that partition spills).
    runs: Vec<Option<SpillRun>>,
}

struct BuildState {
    pages: Vec<Page>,
    /// Accumulated input bytes (pages + partition entries).
    bytes: usize,
    /// Build drivers still running.
    pending_builders: usize,
    key_channels: Vec<usize>,
    partition_bits: u32,
    partitions: Vec<PartitionInput>,
    finalize: Option<Arc<FinalizeState>>,
    table: Option<Arc<JoinHashTable>>,
    /// Dynamic-filter publication config + merged builder contributions.
    df_source: Option<DynamicFilterSource>,
    df_collected: Option<CollectedDomains>,
    /// Grace-join spill state (None: spill not armed; build never spills).
    spill: Option<BuildSpill>,
}

/// One radix partition's compacted rows from a single input page: the
/// partition index, the compacted page, and its (row, hash) entries.
type PartitionedPage = (usize, Page, Vec<(u32, u64)>);

/// Shared hand-off between the build pipeline and probe drivers.
pub struct JoinBridge {
    state: Mutex<BuildState>,
    /// Distinct operators that built at least one partition during
    /// finalize (observability: > 1 means the build used > 1 thread).
    finalize_participants: AtomicUsize,
    /// Build-side bytes written to spill runs / spill operations, for
    /// operator counters (survives the BuildSpill → table hand-off).
    spill_written: AtomicU64,
    spill_events: AtomicU64,
    /// Drivers waiting on the build: finished builders (woken when the
    /// finalize work queue appears, so they join the parallel partition
    /// build) and probes (woken when the table publishes).
    waiters: WakeList,
}

impl JoinBridge {
    pub fn new(key_channels: Vec<usize>, builder_count: usize) -> Arc<JoinBridge> {
        // Cross joins (no keys) need no partitioning; keyed builds use a few
        // partitions per builder so work-stealing balances skew.
        let partition_count = if key_channels.is_empty() {
            1
        } else {
            (builder_count.max(1) * 4).next_power_of_two().clamp(8, 64)
        };
        let partition_bits = partition_count.trailing_zeros();
        Arc::new(JoinBridge {
            state: Mutex::new(BuildState {
                pages: Vec::new(),
                bytes: 0,
                pending_builders: builder_count.max(1),
                key_channels,
                partition_bits,
                partitions: (0..partition_count).map(|_| PartitionInput::default()).collect(),
                finalize: None,
                table: None,
                df_source: None,
                df_collected: None,
                spill: None,
            }),
            finalize_participants: AtomicUsize::new(0),
            spill_written: AtomicU64::new(0),
            spill_events: AtomicU64::new(0),
            waiters: WakeList::new(),
        })
    }

    /// `waker` fires when finalize work appears and when the table
    /// publishes. Look at the bridge again after registering.
    fn on_progress(&self, waker: &Waker) {
        self.waiters.register(waker);
    }

    /// Arm grace-join spill: under memory revocation the build side can
    /// move whole radix partitions to disk through `manager`. Cross joins
    /// (no keys) are ineligible — they keep the non-spilling path, so spill
    /// is never correctness-bearing there. Must be called before the
    /// builder operators are instantiated (they snapshot the config).
    pub fn enable_spill(&self, manager: Arc<SpillManager>) {
        let mut s = self.state.lock();
        if s.key_channels.is_empty() {
            return;
        }
        let count = s.partitions.len();
        s.spill = Some(BuildSpill {
            manager,
            spilled_mask: 0,
            runs: (0..count).map(|_| None).collect(),
        });
    }

    /// Is grace spill armed on this bridge?
    fn spill_armed(&self) -> bool {
        self.state.lock().spill.is_some()
    }

    /// Build bytes that a revocation could free right now (0 once the
    /// finalize has started — partitions are being consumed then).
    fn revocable_build_bytes(&self) -> usize {
        let s = self.state.lock();
        if s.spill.is_some() && s.finalize.is_none() && s.table.is_none() {
            s.bytes
        } else {
            0
        }
    }

    /// Spilled bytes / events so far (operator counters; one builder
    /// reports them, mirroring `build_bytes`).
    fn spill_counters(&self) -> (u64, u64) {
        (
            self.spill_written.load(Ordering::Relaxed),
            self.spill_events.load(Ordering::Relaxed),
        )
    }

    /// The finished hash table, once all builders are done and every
    /// partition is built.
    pub fn table(&self) -> Option<Arc<JoinHashTable>> {
        self.state.lock().table.clone()
    }

    /// Key channels and radix width, fixed at creation (builders partition
    /// their input against these without taking the lock per row).
    fn partitioning(&self) -> (Vec<usize>, u32) {
        let s = self.state.lock();
        (s.key_channels.clone(), s.partition_bits)
    }

    /// Arm build-side dynamic-filter collection. Must be called before the
    /// builder operators are instantiated (they snapshot the config).
    pub fn enable_dynamic_filter(&self, source: DynamicFilterSource) {
        self.state.lock().df_source = Some(source);
    }

    /// A fresh per-builder collector when dynamic filtering is armed.
    fn df_collector(&self) -> Option<DomainCollector> {
        let s = self.state.lock();
        s.df_source.as_ref().map(|src| {
            DomainCollector::new(
                s.key_channels.clone(),
                src.key_types.clone(),
                src.max_values,
            )
        })
    }

    pub fn build_bytes(&self) -> usize {
        let s = self.state.lock();
        if let Some(t) = &s.table {
            return t.memory_bytes();
        }
        let finalize_bytes = s
            .finalize
            .as_ref()
            .map_or(0, |f| f.built_bytes.load(Ordering::Relaxed));
        s.bytes + finalize_bytes
    }

    /// Number of distinct operators that built ≥ 1 partition.
    pub fn finalize_participants(&self) -> usize {
        self.finalize_participants.load(Ordering::Relaxed)
    }

    fn note_finalize_participant(&self) {
        self.finalize_participants.fetch_add(1, Ordering::Relaxed);
    }

    /// Accept one pre-hashed, pre-partitioned page. Only vector moves
    /// happen under the lock.
    fn add_page(&self, page: Page, parts: Vec<Vec<(u32, u64)>>) {
        let entry_size = std::mem::size_of::<(u32, u64)>();
        let mut s = self.state.lock();
        s.bytes += page.size_in_bytes();
        let pi = s.pages.len() as u32;
        s.pages.push(page);
        for (p, entries) in parts.into_iter().enumerate() {
            if entries.is_empty() {
                continue;
            }
            s.bytes += entries.capacity() * entry_size;
            s.partitions[p].len += entries.len();
            s.partitions[p].chunks.push((pi, entries));
        }
    }

    /// Spill-mode ingest: each element is one partition's compacted rows
    /// from a single input page (so a later revocation can move the whole
    /// partition to disk page-by-page). Partitions already on disk are
    /// appended straight to their run; returns the bytes written that way.
    fn add_partitioned(&self, parts: Vec<PartitionedPage>) -> Result<u64> {
        let entry_size = std::mem::size_of::<(u32, u64)>();
        let mut s = self.state.lock();
        let mut direct = 0u64;
        for (p, page, entries) in parts {
            let spilled = s
                .spill
                .as_ref()
                .is_some_and(|sp| (sp.spilled_mask >> p) & 1 == 1);
            if spilled {
                let sp = s.spill.as_mut().expect("spilled implies armed");
                let manager = Arc::clone(&sp.manager);
                let run = sp.runs[p].get_or_insert_with(|| manager.create_run("join-build"));
                direct += run.append(&page)?;
            } else {
                s.bytes += page.size_in_bytes() + entries.capacity() * entry_size;
                let pi = s.pages.len() as u32;
                s.pages.push(page);
                s.partitions[p].len += entries.len();
                s.partitions[p].chunks.push((pi, entries));
            }
        }
        if direct > 0 {
            self.spill_written.fetch_add(direct, Ordering::Relaxed);
        }
        Ok(direct)
    }

    /// Memory revocation: spill the largest in-memory partitions until at
    /// least half the accumulated build bytes are freed. Returns the bytes
    /// freed in memory (0 when nothing is revocable — finalize started,
    /// table published, or everything already spilled).
    fn revoke_build_memory(&self) -> Result<u64> {
        let mut guard = self.state.lock();
        let s = &mut *guard;
        if s.finalize.is_some() || s.table.is_some() || s.spill.is_none() {
            return Ok(0);
        }
        let entry_size = std::mem::size_of::<(u32, u64)>();
        let spilled_mask = s.spill.as_ref().map_or(0, |sp| sp.spilled_mask);
        // Size up every still-resident partition, biggest first.
        let mut sizes: Vec<(usize, usize)> = s
            .partitions
            .iter()
            .enumerate()
            .filter(|&(p, part)| (spilled_mask >> p) & 1 == 0 && part.len > 0)
            .map(|(p, part)| {
                let bytes: usize = part
                    .chunks
                    .iter()
                    .map(|(pi, e)| {
                        s.pages[*pi as usize].size_in_bytes() + e.capacity() * entry_size
                    })
                    .sum();
                (p, bytes)
            })
            .collect();
        sizes.sort_unstable_by_key(|&(_, bytes)| std::cmp::Reverse(bytes));
        if sizes.is_empty() {
            return Ok(0);
        }
        let target = s.bytes / 2;
        let mut freed = 0usize;
        let mut written = 0u64;
        let mut events = 0u64;
        for (p, bytes) in sizes {
            let sp = s.spill.as_mut().expect("checked above");
            sp.spilled_mask |= 1 << p;
            let manager = Arc::clone(&sp.manager);
            let run = sp.runs[p].get_or_insert_with(|| manager.create_run("join-build"));
            let chunks = std::mem::take(&mut s.partitions[p].chunks);
            s.partitions[p].len = 0;
            for (pi, entries) in chunks {
                // Replace with an empty placeholder so u32 page indices of
                // other partitions stay valid while this page's memory goes.
                let page = std::mem::replace(&mut s.pages[pi as usize], Page::zero_column(0));
                written += run.append(&page)?;
                drop(entries);
            }
            freed += bytes;
            events += 1;
            if freed >= target {
                break;
            }
        }
        s.bytes -= freed.min(s.bytes);
        drop(guard);
        self.spill_written.fetch_add(written, Ordering::Relaxed);
        self.spill_events.fetch_add(events, Ordering::Relaxed);
        Ok(freed as u64)
    }

    /// A builder is done, optionally handing in its dynamic-filter
    /// contribution. The last one moves the accumulated input into the
    /// finalize work queue — it does NOT build under the lock; partitions
    /// are built by [`JoinBridge::claim_and_build_one`] callers. It also
    /// publishes the merged dynamic-filter domains *before* the partition
    /// build starts, so probe scans begin pruning while the hash table is
    /// still being laid out.
    fn builder_finished_with(&self, df: Option<DomainCollector>) {
        let mut s = self.state.lock();
        if let Some(collector) = df {
            let collected = collector.finish();
            s.df_collected = Some(match s.df_collected.take() {
                Some(prev) => prev.merge(collected),
                None => collected,
            });
        }
        s.pending_builders -= 1;
        if s.pending_builders > 0 || s.table.is_some() || s.finalize.is_some() {
            return;
        }
        let publish = s.df_source.take().map(|src| {
            let collected = match s.df_collected.take() {
                Some(c) => c,
                None => CollectedDomains::empty(s.key_channels.len(), src.max_values),
            };
            (src, collected)
        });
        let pages = Arc::new(std::mem::take(&mut s.pages));
        let partitions = std::mem::take(&mut s.partitions);
        let spill = s.spill.take();
        let count = partitions.len();
        s.finalize = Some(Arc::new(FinalizeState {
            pages,
            key_channels: s.key_channels.clone(),
            partition_bits: s.partition_bits,
            inputs: partitions.into_iter().map(Mutex::new).collect(),
            built: (0..count).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(count),
            built_bytes: AtomicUsize::new(0),
            spill: Mutex::new(spill),
        }));
        drop(s);
        self.waiters.wake_all();
        if let Some((src, collected)) = publish {
            src.registry.report(src.join, collected);
        }
    }

    /// Claim and build one pending partition, off the bridge lock. Returns
    /// false when there is nothing (left) to claim. The builder of the last
    /// partition assembles and publishes the [`JoinHashTable`].
    pub fn claim_and_build_one(&self) -> bool {
        let finalize = self.state.lock().finalize.clone();
        let Some(fin) = finalize else { return false };
        let idx = fin.next.fetch_add(1, Ordering::Relaxed);
        if idx >= fin.inputs.len() {
            return false;
        }
        let input = std::mem::take(&mut *fin.inputs[idx].lock());
        let part = if fin.key_channels.is_empty() {
            PartitionTable::cross(&fin.pages)
        } else {
            PartitionTable::build(input)
        };
        fin.built_bytes.fetch_add(part.memory_bytes(), Ordering::Relaxed);
        *fin.built[idx].lock() = Some(part);
        if fin.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.assemble(&fin);
        }
        true
    }

    fn assemble(&self, fin: &FinalizeState) {
        let partitions: Vec<PartitionTable> = fin
            .built
            .iter()
            .map(|slot| slot.lock().take().expect("all partitions built"))
            .collect();
        let page_bytes: usize = fin.pages.iter().map(Page::size_in_bytes).sum();
        let layout_bytes: usize = partitions.iter().map(PartitionTable::memory_bytes).sum();
        let row_count = partitions.iter().map(|p| p.rows.len()).sum();
        let (spilled_mask, build_runs) = match fin.spill.lock().take() {
            Some(sp) => (
                sp.spilled_mask,
                sp.runs.into_iter().map(|r| r.map(Mutex::new)).collect(),
            ),
            None => (0, Vec::new()),
        };
        let table = Arc::new(JoinHashTable {
            pages: Arc::clone(&fin.pages),
            partitions,
            partition_bits: fin.partition_bits,
            key_channels: fin.key_channels.clone(),
            memory_bytes: page_bytes + layout_bytes,
            row_count,
            spilled_mask,
            build_runs,
        });
        let mut s = self.state.lock();
        s.bytes = 0;
        s.finalize = None;
        s.table = Some(table);
        drop(s);
        self.waiters.wake_all();
    }
}

/// Build-side sink operator: radix-partitions pages into the bridge and
/// participates in the parallel partition build once its input is done.
pub struct HashBuilderOperator {
    bridge: Arc<JoinBridge>,
    key_channels: Vec<usize>,
    partition_bits: u32,
    hash_cache: DictionaryHashCache,
    /// Per-builder dynamic-filter collector, filled off the bridge lock.
    df_collector: Option<DomainCollector>,
    /// Snapshot of [`JoinBridge::spill_armed`]: input is compacted per
    /// partition so a revocation can move whole partitions to disk.
    spill_mode: bool,
    finished: bool,
    partitions_built: u64,
    counted_as_participant: bool,
}

impl HashBuilderOperator {
    pub fn new(bridge: Arc<JoinBridge>) -> HashBuilderOperator {
        let (key_channels, partition_bits) = bridge.partitioning();
        let df_collector = bridge.df_collector();
        let spill_mode = bridge.spill_armed();
        HashBuilderOperator {
            bridge,
            key_channels,
            partition_bits,
            hash_cache: DictionaryHashCache::new(),
            df_collector,
            spill_mode,
            finished: false,
            partitions_built: 0,
            counted_as_participant: false,
        }
    }

    /// Partitions this operator built during finalize (observability).
    pub fn partitions_built(&self) -> u64 {
        self.partitions_built
    }

    fn drain_finalize(&mut self) {
        let mut built = 0;
        while self.bridge.claim_and_build_one() {
            built += 1;
        }
        if built > 0 {
            self.partitions_built += built;
            if !self.counted_as_participant {
                self.counted_as_participant = true;
                self.bridge.note_finalize_participant();
            }
        }
    }
}

impl Operator for HashBuilderOperator {
    fn name(&self) -> &'static str {
        "HashBuilder"
    }

    fn needs_input(&self) -> bool {
        !self.finished
    }

    fn add_input(&mut self, page: Page) -> Result<()> {
        let page = page.load_all();
        if self.key_channels.is_empty() {
            self.bridge.add_page(page, Vec::new());
            return Ok(());
        }
        // Hash + partition off the bridge lock; the hash pass is
        // dictionary/RLE-aware and the cache persists across pages.
        let hashes = hash_columns_cached(&page, &self.key_channels, &mut self.hash_cache);
        let part_count = 1usize << self.partition_bits;
        if self.spill_mode {
            // Grace mode: compact each partition's rows into their own
            // sub-page so the bridge can later spill a partition without
            // touching the others. The dynamic filter still sees every
            // build row *before* any spill decision, so DF publication is
            // unaffected by memory pressure. NULL-key rows are dropped
            // outright (never match, and build rows are never padded).
            let mut rows: Vec<Vec<u32>> = vec![Vec::new(); part_count];
            let mut row_hashes: Vec<Vec<u64>> = vec![Vec::new(); part_count];
            for (ri, &h) in hashes.iter().enumerate() {
                if self.key_channels.iter().any(|&c| page.block(c).is_null(ri)) {
                    continue;
                }
                if let Some(collector) = &mut self.df_collector {
                    collector.add_row(&page, ri, h);
                }
                let p = partition_of(h, self.partition_bits);
                rows[p].push(ri as u32);
                row_hashes[p].push(h);
            }
            let mut parts: Vec<PartitionedPage> = Vec::new();
            for p in 0..part_count {
                if rows[p].is_empty() {
                    continue;
                }
                let sub = page.filter(&rows[p]);
                let entries: Vec<(u32, u64)> = row_hashes[p]
                    .iter()
                    .enumerate()
                    .map(|(i, &h)| (i as u32, h))
                    .collect();
                parts.push((p, sub, entries));
            }
            self.bridge.add_partitioned(parts)?;
            return Ok(());
        }
        let mut parts: Vec<Vec<(u32, u64)>> = (0..part_count).map(|_| Vec::new()).collect();
        for (ri, &h) in hashes.iter().enumerate() {
            // NULL keys never join (SQL equality).
            if self.key_channels.iter().any(|&c| page.block(c).is_null(ri)) {
                continue;
            }
            if let Some(collector) = &mut self.df_collector {
                collector.add_row(&page, ri, h);
            }
            parts[partition_of(h, self.partition_bits)].push((ri as u32, h));
        }
        self.bridge.add_page(page, parts);
        Ok(())
    }

    fn finish(&mut self) {
        if !self.finished {
            self.finished = true;
            self.bridge.builder_finished_with(self.df_collector.take());
            self.drain_finalize();
        }
    }

    fn output(&mut self) -> Result<Option<Page>> {
        // Finished builders keep helping with the partition build until the
        // table is published (parallel finalize).
        if self.finished && self.bridge.table().is_none() {
            self.drain_finalize();
        }
        Ok(None)
    }

    fn is_finished(&self) -> bool {
        self.finished && self.bridge.table().is_some()
    }

    fn blocked(&self) -> Option<BlockedReason> {
        if self.finished && self.bridge.table().is_none() {
            Some(BlockedReason::WaitingForBuild)
        } else {
            None
        }
    }

    fn park(&self, waker: &Waker) -> bool {
        self.bridge.on_progress(waker);
        true
    }

    fn user_memory_bytes(&self) -> usize {
        // Charged once by the (single) build pipeline driver.
        self.bridge.build_bytes()
    }

    fn can_revoke_memory(&self) -> bool {
        self.spill_mode && self.bridge.revocable_build_bytes() > 0
    }

    fn revoke_memory(&mut self) -> Result<u64> {
        self.bridge.revoke_build_memory()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let (spilled_bytes, spill_events) = self.bridge.spill_counters();
        vec![
            ("spilled_bytes", spilled_bytes),
            ("spill_events", spill_events),
        ]
    }
}

/// Entry → build-row matches memo for dictionary-keyed probes, retained
/// while consecutive pages share one dictionary (§V-E). Matches live in one
/// contiguous arena addressed by per-entry `(start, len)` slots, so a cache
/// hit costs one array read — no per-row allocation or refcount traffic.
struct DictProbeCache {
    dict_id: u64,
    /// Entry → (start, len) into `matches`; `len == UNRESOLVED` means the
    /// entry has not been probed yet.
    slots: Vec<(u32, u32)>,
    matches: Vec<(u32, u32)>,
}

impl DictProbeCache {
    const UNRESOLVED: u32 = u32::MAX;

    fn new(dict_id: u64, entries: usize) -> DictProbeCache {
        DictProbeCache {
            dict_id,
            slots: vec![(0, Self::UNRESOLVED); entries],
            matches: Vec::new(),
        }
    }
}


/// Join semantics the probe operator implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeJoinType {
    Inner,
    Left,
    Cross,
}

/// Probe-side grace-join state: rows whose partition spilled on the build
/// side are diverted to per-partition disk runs; after input ends each
/// (build run, probe run) pair is restored and joined, recursing on the
/// next radix bits when a pair's build side is still too large.
struct GraceProbe {
    spill: Arc<SpillManager>,
    /// Build-side key channels (for hashing restored build pages).
    build_keys: Vec<usize>,
    /// Partition → this operator's diverted probe rows.
    probe_runs: HashMap<usize, SpillRun>,
    /// Spilled partitions left to join once input is done.
    pair_queue: Vec<usize>,
    pairs_started: bool,
    outputs: VecDeque<Page>,
    /// Build bytes above which a restored pair is sub-partitioned.
    partition_limit: usize,
    spilled_bytes: u64,
    spill_events: u64,
}

/// Probe-side operator: streams probe pages against the hash table.
///
/// Probing is batched per page: one vectorized hash pass, one pass
/// collecting (probe index, build address) match vectors, then block-level
/// gathers materialize both sides at once. A dictionary-keyed page probes
/// each distinct entry once (the entry → matches array is retained while
/// pages share a dictionary); an RLE key probes once per page.
pub struct LookupJoinOperator {
    bridge: Arc<JoinBridge>,
    join_type: ProbeJoinType,
    probe_keys: Vec<usize>,
    probe_schema: Schema,
    build_schema: Schema,
    build_types: Vec<DataType>,
    /// Residual non-equi condition over the concatenated output schema.
    filter: Option<CompiledExpr>,
    pending: Option<Page>,
    input_done: bool,
    rows_out: u64,
    hash_cache: DictionaryHashCache,
    /// Entry → build matches memo, retained across pages (§V-E).
    dict_probe: Option<DictProbeCache>,
    dict_probe_hits: u64,
    rle_probe_rows: u64,
    /// Grace-join probe state; present iff the bridge armed spill.
    grace: Option<GraceProbe>,
}

impl LookupJoinOperator {
    pub fn new(
        bridge: Arc<JoinBridge>,
        join_type: ProbeJoinType,
        probe_keys: Vec<usize>,
        probe_schema: Schema,
        build_schema: Schema,
        filter: Option<&Expr>,
    ) -> LookupJoinOperator {
        let build_types = build_schema.fields().iter().map(|f| f.data_type).collect();
        LookupJoinOperator {
            bridge,
            join_type,
            probe_keys,
            probe_schema,
            build_schema,
            build_types,
            filter: filter.map(CompiledExpr::compile),
            pending: None,
            input_done: false,
            rows_out: 0,
            hash_cache: DictionaryHashCache::new(),
            dict_probe: None,
            dict_probe_hits: 0,
            rle_probe_rows: 0,
            grace: None,
        }
    }

    /// Arm the grace-probe path (must match the bridge's
    /// [`JoinBridge::enable_spill`]; each probe operator diverts its own
    /// probe rows through `spill`).
    pub fn with_spill(mut self, spill: Arc<SpillManager>) -> LookupJoinOperator {
        let (build_keys, _) = self.bridge.partitioning();
        self.grace = Some(GraceProbe {
            spill,
            build_keys,
            probe_runs: HashMap::new(),
            pair_queue: Vec::new(),
            pairs_started: false,
            outputs: VecDeque::new(),
            partition_limit: GRACE_PARTITION_LIMIT,
            spilled_bytes: 0,
            spill_events: 0,
        });
        self
    }

    /// Override the recursion threshold (tests force tiny pairs).
    pub fn with_grace_partition_limit(mut self, bytes: usize) -> LookupJoinOperator {
        if let Some(g) = &mut self.grace {
            g.partition_limit = bytes;
        }
        self
    }

    /// Probe rows resolved through the per-dictionary-entry match cache.
    pub fn dict_probe_hits(&self) -> u64 {
        self.dict_probe_hits
    }

    /// Probe rows resolved through the RLE one-probe-per-page fast path.
    pub fn rle_probe_rows(&self) -> u64 {
        self.rle_probe_rows
    }

    /// Collect matches for a keyed probe page into index vectors.
    fn probe_keyed(
        &mut self,
        table: &JoinHashTable,
        probe: &Page,
        probe_idx: &mut Vec<u32>,
        build_addrs: &mut Vec<(u32, u32)>,
        match_counts: &mut [u32],
    ) {
        if let [channel] = self.probe_keys[..] {
            match probe.block(channel).loaded() {
                Block::Rle(rle) => {
                    // One probe for the whole page.
                    let value = Arc::clone(&rle.value);
                    self.rle_probe_rows += probe.row_count() as u64;
                    if value.is_null(0) {
                        return;
                    }
                    let hash = combine_hashes(0, hash_cell(&value, 0));
                    let matches: Vec<(u32, u32)> = table
                        .candidates(hash)
                        .filter(|&addr| table.keys_match(addr, &[&value], 0))
                        .collect();
                    if matches.is_empty() {
                        return;
                    }
                    for (row, count) in match_counts.iter_mut().enumerate() {
                        for &addr in &matches {
                            probe_idx.push(row as u32);
                            build_addrs.push(addr);
                        }
                        *count += matches.len() as u32;
                    }
                    return;
                }
                Block::Dictionary(d) => {
                    // One probe per distinct dictionary entry; the entry →
                    // matches arena survives across pages sharing the
                    // dictionary. Entries new to the memo are resolved with
                    // the same batched breadth-first walk as the general
                    // path, then every row expands via one slot read.
                    let dictionary = Arc::clone(&d.dictionary);
                    let dict_id = d.dictionary_id;
                    let ids = d.ids.clone();
                    let valid = matches!(&self.dict_probe, Some(c) if c.dict_id == dict_id);
                    if !valid {
                        self.dict_probe = Some(DictProbeCache::new(dict_id, dictionary.len()));
                    }
                    let Some(cache) = &mut self.dict_probe else {
                        unreachable!("dict_probe set above")
                    };
                    const EMPTY: u32 = FlatHashTable::EMPTY;
                    const PENDING: u32 = u32::MAX - 1;
                    let mut to_resolve: Vec<u32> = Vec::new();
                    for &entry in &ids {
                        if dictionary.is_null(entry as usize) {
                            continue;
                        }
                        if cache.slots[entry as usize].1 == DictProbeCache::UNRESOLVED {
                            cache.slots[entry as usize] = (0, PENDING);
                            to_resolve.push(entry);
                        }
                    }
                    if !to_resolve.is_empty() {
                        let entry_hashes: Vec<u64> = to_resolve
                            .iter()
                            .map(|&e| combine_hashes(0, hash_cell(&dictionary, e as usize)))
                            .collect();
                        let mut cursors: Vec<(u32, u32)> =
                            Vec::with_capacity(to_resolve.len());
                        for (i, &hash) in entry_hashes.iter().enumerate() {
                            let head = table.partition(hash).table.head(hash);
                            if head != EMPTY {
                                cursors.push((i as u32, head));
                            }
                        }
                        let mut pairs: Vec<(u32, (u32, u32))> = Vec::new();
                        let mut next_round: Vec<(u32, u32)> =
                            Vec::with_capacity(cursors.len() / 4 + 1);
                        while !cursors.is_empty() {
                            next_round.clear();
                            for &(i, e) in &cursors {
                                let hash = entry_hashes[i as usize];
                                let part = table.partition(hash);
                                let (stored, next) = part.table.entry_at(e);
                                if stored == hash {
                                    pairs.push((i, part.rows[e as usize]));
                                }
                                if next != EMPTY {
                                    next_round.push((i, next));
                                }
                            }
                            std::mem::swap(&mut cursors, &mut next_round);
                        }
                        pairs.retain(|&(i, addr)| {
                            table.keys_match(addr, &[&dictionary], to_resolve[i as usize] as usize)
                        });
                        // Group each entry's matches contiguously in the arena.
                        pairs.sort_unstable_by_key(|&(i, _)| i);
                        let mut pos = 0;
                        for (i, &entry) in to_resolve.iter().enumerate() {
                            let start = cache.matches.len() as u32;
                            while pos < pairs.len() && pairs[pos].0 == i as u32 {
                                cache.matches.push(pairs[pos].1);
                                pos += 1;
                            }
                            cache.slots[entry as usize] =
                                (start, cache.matches.len() as u32 - start);
                        }
                    }
                    // Expansion: one slot read per row.
                    let mut nonnull_rows = 0u64;
                    for (row, &entry) in ids.iter().enumerate() {
                        if dictionary.is_null(entry as usize) {
                            continue;
                        }
                        nonnull_rows += 1;
                        let (start, len) = cache.slots[entry as usize];
                        for i in start..start + len {
                            probe_idx.push(row as u32);
                            build_addrs.push(cache.matches[i as usize]);
                        }
                        match_counts[row] += len;
                    }
                    // A "hit" is a row served by an already-resolved entry,
                    // exactly as when rows resolved one at a time.
                    self.dict_probe_hits += nonnull_rows - to_resolve.len() as u64;
                    return;
                }
                _ => {}
            }
        }
        // General path: one vectorized hash pass, then a batched
        // breadth-first chain walk. Each stage issues one independent memory
        // access per row, so the cache misses of different rows overlap
        // instead of chaining serially (head → entry → row → page data).
        let hashes = hash_columns_cached(probe, &self.probe_keys, &mut self.hash_cache);
        let key_blocks: Vec<&Block> = self.probe_keys.iter().map(|&c| probe.block(c)).collect();
        const EMPTY: u32 = FlatHashTable::EMPTY;
        // Stage 1: bucket heads.
        let mut cursors: Vec<(u32, u32)> = Vec::with_capacity(hashes.len());
        for (row, &hash) in hashes.iter().enumerate() {
            if key_blocks.iter().any(|b| b.is_null(row)) {
                continue;
            }
            let head = table.partition(hash).table.head(hash);
            if head != EMPTY {
                cursors.push((row as u32, head));
            }
        }
        // Stage 2: walk all live chains one step per round, collecting
        // hash-equal entries as (probe row, build addr) candidates.
        let mut candidates: Vec<(u32, (u32, u32))> = Vec::new();
        let mut next_round: Vec<(u32, u32)> = Vec::with_capacity(cursors.len() / 4 + 1);
        while !cursors.is_empty() {
            next_round.clear();
            for &(row, e) in &cursors {
                let hash = hashes[row as usize];
                let part = table.partition(hash);
                let (stored, next) = part.table.entry_at(e);
                if stored == hash {
                    candidates.push((row, part.rows[e as usize]));
                }
                if next != EMPTY {
                    next_round.push((row, next));
                }
            }
            std::mem::swap(&mut cursors, &mut next_round);
        }
        // Stage 3: verify keys and emit matches.
        for &(row, addr) in &candidates {
            if table.keys_match(addr, &key_blocks, row as usize) {
                probe_idx.push(row);
                build_addrs.push(addr);
                match_counts[row as usize] += 1;
            }
        }
    }

    fn join_page(&mut self, table: &JoinHashTable, probe: &Page) -> Result<Page> {
        let probe_rows = probe.row_count();
        let probe_width = self.probe_schema.len();
        let build_width = self.build_schema.len();
        // Match vectors: probe row index and build address per output row.
        let mut probe_idx: Vec<u32> = Vec::new();
        let mut build_addrs: Vec<(u32, u32)> = Vec::new();
        // For LEFT joins: how many matches each probe row found.
        let mut match_counts = vec![0u32; probe_rows];
        match self.join_type {
            ProbeJoinType::Cross => {
                for row in 0..probe_rows as u32 {
                    for addr in table.iter_rows() {
                        probe_idx.push(row);
                        build_addrs.push(addr);
                        match_counts[row as usize] += 1;
                    }
                }
            }
            _ => self.probe_keyed(table, probe, &mut probe_idx, &mut build_addrs, &mut match_counts),
        }
        // Materialize both sides with block-level gathers: the probe gather
        // preserves dictionary/RLE structure, the build gather fills each
        // output block in one column-major pass.
        let probe_side = probe.filter(&probe_idx);
        let build_side = Page::gather_rows(table.pages(), &build_addrs, &self.build_types);
        let mut combined = if build_width == 0 {
            probe_side
        } else if probe_width == 0 {
            build_side
        } else {
            probe_side.append_columns(&build_side)
        };
        // Residual filter.
        let mut surviving_probe_matches = match_counts;
        if let Some(filter) = &self.filter {
            let selection = filter.eval_selection(&combined)?;
            if selection.len() != combined.row_count() {
                // Recompute per-probe match counts for LEFT semantics.
                if self.join_type == ProbeJoinType::Left {
                    surviving_probe_matches = vec![0; probe_rows];
                    for &s in &selection {
                        surviving_probe_matches[probe_idx[s as usize] as usize] += 1;
                    }
                }
                combined = combined.filter(&selection);
            }
        }
        // LEFT join: append null-padded rows for unmatched probe rows.
        if self.join_type == ProbeJoinType::Left {
            let unmatched: Vec<u32> = (0..probe_rows as u32)
                .filter(|&r| surviving_probe_matches[r as usize] == 0)
                .collect();
            if !unmatched.is_empty() {
                let mut blocks = probe.filter(&unmatched).into_blocks();
                for f in self.build_schema.fields() {
                    // Null build columns as RLE runs: no per-row appends.
                    blocks.push(Block::rle(
                        Block::single(f.data_type, &Value::Null),
                        unmatched.len(),
                    ));
                }
                let nulls = if blocks.is_empty() {
                    Page::zero_column(unmatched.len())
                } else {
                    Page::new(blocks)
                };
                combined = Page::concat(&[combined, nulls]);
            }
        }
        Ok(combined)
    }

    /// Grace-mode ingest: divert rows whose partition spilled on the build
    /// side to per-partition probe runs, join the rest against the resident
    /// partitions as usual. Each row goes to exactly one side, so LEFT-join
    /// padding happens exactly once per unmatched row.
    fn add_input_grace(&mut self, table: &JoinHashTable, page: Page) -> Result<()> {
        let page = page.load_all();
        let hashes = hash_columns_cached(&page, &self.probe_keys, &mut self.hash_cache);
        let mut resident: Vec<u32> = Vec::with_capacity(hashes.len());
        let mut diverted: HashMap<usize, Vec<u32>> = HashMap::new();
        for (ri, &h) in hashes.iter().enumerate() {
            // NULL keys hash arbitrarily but never match; keep them
            // resident so LEFT padding happens in the streaming phase.
            if self.probe_keys.iter().any(|&c| page.block(c).is_null(ri)) {
                resident.push(ri as u32);
                continue;
            }
            let p = partition_of(h, table.partition_bits);
            if table.is_spilled(p) {
                diverted.entry(p).or_default().push(ri as u32);
            } else {
                resident.push(ri as u32);
            }
        }
        for (p, rows) in diverted {
            let sub = page.filter(&rows);
            let grace = self.grace.as_mut().expect("grace armed (caller checked)");
            let manager = Arc::clone(&grace.spill);
            let run = grace
                .probe_runs
                .entry(p)
                .or_insert_with(|| manager.create_run("join-probe"));
            grace.spilled_bytes += run.append(&sub)?;
            grace.spill_events += 1;
        }
        // Undisturbed pages keep their dictionary/RLE probe fast paths.
        let out = if resident.len() == page.row_count() {
            self.join_page(table, &page)?
        } else if resident.is_empty() {
            return Ok(());
        } else {
            let filtered = page.filter(&resident);
            self.join_page(table, &filtered)?
        };
        if out.row_count() > 0 {
            self.rows_out += out.row_count() as u64;
            self.pending = Some(out);
        }
        Ok(())
    }

    /// Join one spilled (build, probe) partition pair from disk.
    fn process_pair(&mut self, table: &JoinHashTable, partition: usize) -> Result<()> {
        let run = match self.grace.as_mut().and_then(|g| g.probe_runs.remove(&partition)) {
            Some(run) => run,
            // No probe rows ever hit this partition: nothing to join (the
            // build run is cleaned up when the table drops).
            None => return Ok(()),
        };
        let probe_pages = run.into_pages()?;
        let build_pages = table.spilled_build_pages(partition)?;
        self.join_grace_pair(build_pages, probe_pages, table.partition_bits, 0)
    }

    /// Join restored pages, sub-partitioning by the next radix bits while
    /// the build side exceeds the grace partition limit.
    fn join_grace_pair(
        &mut self,
        build: Vec<Page>,
        probe: Vec<Page>,
        consumed_bits: u32,
        depth: u32,
    ) -> Result<()> {
        if probe.iter().map(Page::row_count).sum::<usize>() == 0 {
            return Ok(());
        }
        let grace = self.grace.as_ref().expect("grace armed (caller checked)");
        let limit = grace.partition_limit;
        let build_keys = grace.build_keys.clone();
        let build_bytes: usize = build.iter().map(Page::size_in_bytes).sum();
        if build_bytes > limit
            && depth < GRACE_MAX_DEPTH
            && consumed_bits + GRACE_BITS < 64
        {
            let sub_build = split_by_hash(&build, &build_keys, consumed_bits, GRACE_BITS);
            let sub_probe = split_by_hash(&probe, &self.probe_keys, consumed_bits, GRACE_BITS);
            drop(build);
            drop(probe);
            for (b, p) in sub_build.into_iter().zip(sub_probe) {
                self.join_grace_pair(b, p, consumed_bits + GRACE_BITS, depth + 1)?;
            }
            return Ok(());
        }
        // Leaf: build an in-memory table over this pair and stream the
        // probe pages through the normal (LEFT-aware) join path.
        let sub_table = JoinHashTable::for_grace_partition(build, build_keys);
        // The dictionary-probe memo is table-specific; never reuse entries
        // resolved against a different table.
        self.dict_probe = None;
        for page in probe {
            if page.row_count() == 0 {
                continue;
            }
            let out = self.join_page(&sub_table, &page)?;
            if out.row_count() > 0 {
                self.rows_out += out.row_count() as u64;
                let grace = self.grace.as_mut().expect("grace armed");
                grace.outputs.push_back(out);
            }
        }
        self.dict_probe = None;
        Ok(())
    }
}

/// Split pages by the next `bits` radix bits of their key hash (the parent
/// level already consumed the top `consumed_bits`).
fn split_by_hash(
    pages: &[Page],
    keys: &[usize],
    consumed_bits: u32,
    bits: u32,
) -> Vec<Vec<Page>> {
    let parts = 1usize << bits;
    let mut out: Vec<Vec<Page>> = (0..parts).map(|_| Vec::new()).collect();
    let mut cache = DictionaryHashCache::new();
    for page in pages {
        let hashes = hash_columns_cached(page, keys, &mut cache);
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); parts];
        for (ri, &h) in hashes.iter().enumerate() {
            rows[sub_partition_of(h, consumed_bits, bits)].push(ri as u32);
        }
        for (s, r) in rows.into_iter().enumerate() {
            if !r.is_empty() {
                out[s].push(page.filter(&r));
            }
        }
    }
    out
}

impl Operator for LookupJoinOperator {
    fn name(&self) -> &'static str {
        "LookupJoin"
    }

    fn needs_input(&self) -> bool {
        !self.input_done && self.pending.is_none() && self.bridge.table().is_some()
    }

    fn add_input(&mut self, page: Page) -> Result<()> {
        let table = self
            .bridge
            .table()
            .ok_or_else(|| PrestoError::internal("probe before build finished"))?;
        if table.has_spill() {
            if self.grace.is_none() {
                return Err(PrestoError::internal(
                    "build side spilled but probe has no spill manager",
                ));
            }
            return self.add_input_grace(&table, page);
        }
        let out = self.join_page(&table, &page)?;
        if out.row_count() > 0 {
            self.rows_out += out.row_count() as u64;
            self.pending = Some(out);
        }
        Ok(())
    }

    fn finish(&mut self) {
        self.input_done = true;
    }

    fn output(&mut self) -> Result<Option<Page>> {
        if let Some(p) = self.pending.take() {
            return Ok(Some(p));
        }
        if !self.input_done {
            return Ok(None);
        }
        // Grace pair phase: once streaming input is done, join the spilled
        // (build, probe) partition pairs, one partition per pass.
        let Some(grace) = &mut self.grace else {
            return Ok(None);
        };
        if let Some(p) = grace.outputs.pop_front() {
            return Ok(Some(p));
        }
        if !grace.pairs_started {
            grace.pairs_started = true;
            let mut queue: Vec<usize> = grace.probe_runs.keys().copied().collect();
            queue.sort_unstable();
            // Popped back-to-front; sort descending so low partitions go
            // first (determinism only — any order is correct).
            queue.reverse();
            grace.pair_queue = queue;
        }
        loop {
            let next = match self.grace.as_mut().expect("grace set above").pair_queue.pop() {
                Some(p) => p,
                None => return Ok(None),
            };
            let table = self
                .bridge
                .table()
                .ok_or_else(|| PrestoError::internal("pair phase before build finished"))?;
            self.process_pair(&table, next)?;
            let grace = self.grace.as_mut().expect("grace set above");
            if let Some(p) = grace.outputs.pop_front() {
                return Ok(Some(p));
            }
        }
    }

    fn is_finished(&self) -> bool {
        self.input_done
            && self.pending.is_none()
            && self.grace.as_ref().is_none_or(|g| {
                g.outputs.is_empty()
                    && g.pair_queue.is_empty()
                    && (g.pairs_started || g.probe_runs.is_empty())
            })
    }

    fn blocked(&self) -> Option<BlockedReason> {
        if self.bridge.table().is_none() {
            Some(BlockedReason::WaitingForBuild)
        } else {
            None
        }
    }

    fn park(&self, waker: &Waker) -> bool {
        self.bridge.on_progress(waker);
        true
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let (spilled_bytes, spill_events) = self
            .grace
            .as_ref()
            .map_or((0, 0), |g| (g.spilled_bytes, g.spill_events));
        vec![
            ("dict_probe_hits", self.dict_probe_hits),
            ("rle_probe_rows", self.rle_probe_rows),
            ("spilled_bytes", spilled_bytes),
            ("spill_events", spill_events),
        ]
    }
}

/// Index-nested-loop join (§IV-B3-3): probe rows look up a connector index.
pub struct IndexJoinOperator {
    index: Box<dyn presto_connector::IndexSource>,
    probe_keys: Vec<usize>,
    probe_schema: Schema,
    pending: Option<Page>,
    input_done: bool,
}

impl IndexJoinOperator {
    pub fn new(
        index: Box<dyn presto_connector::IndexSource>,
        probe_keys: Vec<usize>,
        probe_schema: Schema,
    ) -> IndexJoinOperator {
        IndexJoinOperator {
            index,
            probe_keys,
            probe_schema,
            pending: None,
            input_done: false,
        }
    }
}

impl Operator for IndexJoinOperator {
    fn name(&self) -> &'static str {
        "IndexJoin"
    }

    fn needs_input(&self) -> bool {
        !self.input_done && self.pending.is_none()
    }

    fn add_input(&mut self, page: Page) -> Result<()> {
        // Project the probe keys into the lookup page.
        let keys = page.project(&self.probe_keys);
        let (matches, key_indices) = self.index.lookup(&keys)?;
        if matches.row_count() == 0 {
            return Ok(());
        }
        // Gather probe columns for each matched output row.
        let probe_side = page.filter(&key_indices);
        let combined = probe_side.append_columns(&matches);
        debug_assert_eq!(
            combined.column_count(),
            self.probe_schema.len() + matches.column_count()
        );
        self.pending = Some(combined);
        Ok(())
    }

    fn finish(&mut self) {
        self.input_done = true;
    }

    fn output(&mut self) -> Result<Option<Page>> {
        Ok(self.pending.take())
    }

    fn is_finished(&self) -> bool {
        self.input_done && self.pending.is_none()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::Value;

    fn kv_page(rows: &[(i64, &str)]) -> Page {
        let schema = Schema::of(&[("k", DataType::Bigint), ("s", DataType::Varchar)]);
        Page::from_rows(
            &schema,
            &rows
                .iter()
                .map(|&(k, s)| vec![Value::Bigint(k), Value::varchar(s)])
                .collect::<Vec<_>>(),
        )
    }

    fn build_table(rows: &[(i64, &str)]) -> Arc<JoinBridge> {
        let bridge = JoinBridge::new(vec![0], 1);
        let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
        b.add_input(kv_page(rows)).unwrap();
        b.finish();
        bridge
    }

    fn schema() -> Schema {
        Schema::of(&[("k", DataType::Bigint), ("s", DataType::Varchar)])
    }

    fn drain_rows(op: &mut LookupJoinOperator) -> Vec<(i64, String, i64, String)> {
        let mut out = Vec::new();
        while let Some(p) = op.output().unwrap() {
            for i in 0..p.row_count() {
                out.push((
                    p.block(0).i64_at(i),
                    p.block(1).str_at(i).to_string(),
                    if p.block(2).is_null(i) {
                        -1
                    } else {
                        p.block(2).i64_at(i)
                    },
                    if p.block(3).is_null(i) {
                        "-".into()
                    } else {
                        p.block(3).str_at(i).to_string()
                    },
                ));
            }
        }
        out.sort();
        out
    }

    #[test]
    fn inner_join_matches_keys() {
        let bridge = build_table(&[(1, "a"), (2, "b"), (2, "b2")]);
        let mut probe = LookupJoinOperator::new(
            bridge,
            ProbeJoinType::Inner,
            vec![0],
            schema(),
            schema(),
            None,
        );
        probe.add_input(kv_page(&[(2, "x"), (3, "y")])).unwrap();
        let rows = drain_rows(&mut probe);
        // key 2 matches both build rows; key 3 matches none.
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.0 == 2 && r.2 == 2));
        probe.finish();
        assert!(probe.is_finished());
    }

    #[test]
    fn left_join_pads_unmatched() {
        let bridge = build_table(&[(1, "a")]);
        let mut probe = LookupJoinOperator::new(
            bridge,
            ProbeJoinType::Left,
            vec![0],
            schema(),
            schema(),
            None,
        );
        probe.add_input(kv_page(&[(1, "x"), (9, "z")])).unwrap();
        let rows = drain_rows(&mut probe);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], (1, "x".into(), 1, "a".into()));
        assert_eq!(rows[1], (9, "z".into(), -1, "-".into()));
    }

    #[test]
    fn null_keys_never_match_but_survive_left_join() {
        let bridge = build_table(&[(1, "a")]);
        let mut probe = LookupJoinOperator::new(
            bridge,
            ProbeJoinType::Left,
            vec![0],
            schema(),
            schema(),
            None,
        );
        let schema2 = schema();
        let p = Page::from_rows(
            &schema2,
            &[
                vec![Value::Null, Value::varchar("n")],
                vec![Value::Bigint(1), Value::varchar("m")],
            ],
        );
        probe.add_input(p).unwrap();
        let rows = drain_rows(&mut probe);
        assert_eq!(rows.len(), 2);
        // NULL key row survives null-padded.
        assert!(rows.iter().any(|r| r.1 == "n" && r.2 == -1));
    }

    #[test]
    fn null_build_keys_never_match() {
        let bridge = JoinBridge::new(vec![0], 1);
        let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
        let s = schema();
        b.add_input(Page::from_rows(
            &s,
            &[
                vec![Value::Null, Value::varchar("null-build")],
                vec![Value::Bigint(7), Value::varchar("seven")],
            ],
        ))
        .unwrap();
        b.finish();
        let mut probe = LookupJoinOperator::new(
            bridge,
            ProbeJoinType::Inner,
            vec![0],
            schema(),
            schema(),
            None,
        );
        // A NULL probe key must not meet the NULL build key.
        let p = Page::from_rows(
            &s,
            &[
                vec![Value::Null, Value::varchar("null-probe")],
                vec![Value::Bigint(7), Value::varchar("x")],
            ],
        );
        probe.add_input(p).unwrap();
        let rows = drain_rows(&mut probe);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].3, "seven");
    }

    #[test]
    fn residual_filter_applies_to_pairs() {
        let bridge = build_table(&[(1, "keep"), (1, "drop")]);
        // filter: build.s = 'keep' (channel 3 of the combined schema)
        let filter = Expr::cmp(
            presto_expr::CmpOp::Eq,
            Expr::column(3, DataType::Varchar),
            Expr::literal("keep"),
        );
        let mut probe = LookupJoinOperator::new(
            bridge,
            ProbeJoinType::Inner,
            vec![0],
            schema(),
            schema(),
            Some(&filter),
        );
        probe.add_input(kv_page(&[(1, "x")])).unwrap();
        let rows = drain_rows(&mut probe);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].3, "keep");
    }

    #[test]
    fn probe_blocks_until_build_done() {
        let bridge = JoinBridge::new(vec![0], 1);
        let probe = LookupJoinOperator::new(
            Arc::clone(&bridge),
            ProbeJoinType::Inner,
            vec![0],
            schema(),
            schema(),
            None,
        );
        assert_eq!(probe.blocked(), Some(BlockedReason::WaitingForBuild));
        assert!(!probe.needs_input());
        let mut b = HashBuilderOperator::new(bridge);
        b.finish();
        assert!(probe.blocked().is_none());
        assert!(probe.needs_input());
    }

    #[test]
    fn cross_join_produces_product() {
        let bridge = JoinBridge::new(vec![], 1);
        let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
        b.add_input(kv_page(&[(10, "a"), (20, "b")])).unwrap();
        b.finish();
        let mut probe = LookupJoinOperator::new(
            bridge,
            ProbeJoinType::Cross,
            vec![],
            schema(),
            schema(),
            None,
        );
        probe
            .add_input(kv_page(&[(1, "x"), (2, "y"), (3, "z")]))
            .unwrap();
        let rows = drain_rows(&mut probe);
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn multiple_builders_merge() {
        let bridge = JoinBridge::new(vec![0], 2);
        let mut b1 = HashBuilderOperator::new(Arc::clone(&bridge));
        let mut b2 = HashBuilderOperator::new(Arc::clone(&bridge));
        b1.add_input(kv_page(&[(1, "a")])).unwrap();
        b2.add_input(kv_page(&[(2, "b")])).unwrap();
        b1.finish();
        assert!(bridge.table().is_none(), "waits for all builders");
        assert!(!b1.is_finished(), "builder waits for the table");
        assert_eq!(b1.blocked(), Some(BlockedReason::WaitingForBuild));
        b2.finish();
        assert_eq!(bridge.table().unwrap().row_count(), 2);
        assert!(b1.is_finished() && b2.is_finished());
    }

    #[test]
    fn finalize_runs_off_the_bridge_lock() {
        // builder_finished() must only queue work: the table appears only
        // after claim_and_build_one() calls, and table() polls in between
        // return instantly with None instead of blocking on a finalize
        // critical section.
        let bridge = JoinBridge::new(vec![0], 1);
        let rows: Vec<(i64, String)> = (0..100).map(|i| (i, format!("v{i}"))).collect();
        let borrowed: Vec<(i64, &str)> = rows.iter().map(|(k, s)| (*k, s.as_str())).collect();
        let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
        b.add_input(kv_page(&borrowed)).unwrap();
        // A finished builder parked on the bridge is called back when the
        // work queue appears — to help build — and a probe when the table
        // publishes.
        let bell = presto_common::wake::Bell::new();
        let helper = Waker::new(&bell);
        bridge.on_progress(&helper);
        // Go through the bridge directly so no operator drains the queue.
        bridge.builder_finished_with(None);
        assert!(helper.is_woken(), "finalize work is an event");
        assert!(bridge.table().is_none(), "nothing built under the lock");
        let probe = Waker::new(&bell);
        bridge.on_progress(&probe);
        let mut built = 0;
        while bridge.claim_and_build_one() {
            built += 1;
            if bridge.table().is_none() {
                // Poll mid-finalize: must not deadlock or publish early.
                assert!(built < 64 + 1);
                assert!(!probe.is_woken(), "not before the table exists");
            }
        }
        assert!(built >= 8, "keyed builds use multiple partitions");
        assert_eq!(bridge.table().unwrap().row_count(), 100);
        assert!(probe.is_woken(), "publication is an event");
    }

    #[test]
    fn parallel_finalize_uses_multiple_threads() {
        // Two threads each claim at least one partition: the partition work
        // queue serves claimants concurrently (> 1 thread finalize).
        let bridge = JoinBridge::new(vec![0], 2);
        let rows: Vec<(i64, String)> = (0..256).map(|i| (i, format!("v{i}"))).collect();
        let borrowed: Vec<(i64, &str)> = rows.iter().map(|(k, s)| (*k, s.as_str())).collect();
        let mut b1 = HashBuilderOperator::new(Arc::clone(&bridge));
        let mut b2 = HashBuilderOperator::new(Arc::clone(&bridge));
        b1.add_input(kv_page(&borrowed[..128])).unwrap();
        b2.add_input(kv_page(&borrowed[128..])).unwrap();
        // Finish via the bridge so the operators don't drain the queue
        // single-threadedly first.
        bridge.builder_finished_with(None);
        bridge.builder_finished_with(None);
        let barrier = std::sync::Barrier::new(2);
        let claims: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let bridge = Arc::clone(&bridge);
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        bridge.claim_and_build_one()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            claims.iter().all(|&c| c),
            "both threads claimed a partition: {claims:?}"
        );
        // Drain the rest and verify the table.
        while bridge.claim_and_build_one() {}
        assert_eq!(bridge.table().unwrap().row_count(), 256);
        drop((b1, b2));
    }

    #[test]
    fn exact_memory_accounting_from_flat_layout() {
        let rows: Vec<(i64, String)> = (0..1000).map(|i| (i % 100, format!("s{i}"))).collect();
        let borrowed: Vec<(i64, &str)> = rows.iter().map(|(k, s)| (*k, s.as_str())).collect();
        let bridge = build_table(&borrowed);
        let table = bridge.table().unwrap();
        // memory_bytes is the exact sum of page bytes and the per-partition
        // flat layouts — no estimate constants.
        let page_bytes: usize = table.pages().iter().map(Page::size_in_bytes).sum();
        let layout: usize = table
            .partitions
            .iter()
            .map(|p| p.rows.capacity() * 8 + p.table.memory_bytes())
            .sum();
        assert_eq!(table.memory_bytes(), page_bytes + layout);
        assert_eq!(table.hash_layout_bytes(), layout);
        // The bridge reports the table's exact size once built.
        assert_eq!(bridge.build_bytes(), table.memory_bytes());
        // Every row is addressable.
        assert_eq!(table.iter_rows().count(), 1000);
    }

    #[test]
    fn dictionary_probe_caches_entry_matches() {
        use presto_page::blocks::{DictionaryBlock, VarcharBlock};
        let bridge = JoinBridge::new(vec![0], 1);
        let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
        let s = Schema::of(&[("k", DataType::Varchar), ("v", DataType::Bigint)]);
        b.add_input(Page::from_rows(
            &s,
            &[
                vec![Value::varchar("a"), Value::Bigint(1)],
                vec![Value::varchar("b"), Value::Bigint(2)],
            ],
        ))
        .unwrap();
        b.finish();
        let mut probe = LookupJoinOperator::new(
            bridge,
            ProbeJoinType::Inner,
            vec![0],
            Schema::of(&[("k", DataType::Varchar)]),
            s,
            None,
        );
        let dict = Arc::new(Block::from(VarcharBlock::from_strs(&["a", "b", "zz"])));
        // 6 rows over 3 entries; repeats hit the cache.
        let p1 = Page::new(vec![Block::Dictionary(DictionaryBlock::new(
            Arc::clone(&dict),
            vec![0, 1, 2, 0, 1, 2],
        ))]);
        probe.add_input(p1).unwrap();
        let out = probe.output().unwrap().unwrap();
        assert_eq!(out.row_count(), 4, "a and b match twice each");
        assert_eq!(probe.dict_probe_hits(), 3);
        // Second page sharing the dictionary: all rows served by the cache.
        let p2 = Page::new(vec![Block::Dictionary(DictionaryBlock::new(
            Arc::clone(&dict),
            vec![1, 1, 0],
        ))]);
        probe.add_input(p2).unwrap();
        assert_eq!(probe.output().unwrap().unwrap().row_count(), 3);
        assert_eq!(probe.dict_probe_hits(), 6);
    }

    #[test]
    fn rle_probe_resolves_once_per_page() {
        let bridge = build_table(&[(5, "five"), (6, "six")]);
        let mut probe = LookupJoinOperator::new(
            bridge,
            ProbeJoinType::Inner,
            vec![0],
            Schema::of(&[("k", DataType::Bigint)]),
            schema(),
            None,
        );
        let rle = Page::new(vec![Block::rle(
            Block::single(DataType::Bigint, &Value::Bigint(5)),
            4,
        )]);
        probe.add_input(rle).unwrap();
        let out = probe.output().unwrap().unwrap();
        assert_eq!(out.row_count(), 4);
        assert!((0..4).all(|i| out.block(2).str_at(i) == "five"));
        assert_eq!(probe.rle_probe_rows(), 4);
        // An RLE run of NULLs matches nothing.
        let null_rle = Page::new(vec![Block::rle(
            Block::single(DataType::Bigint, &Value::Null),
            3,
        )]);
        probe.add_input(null_rle).unwrap();
        assert!(probe.output().unwrap().is_none());
    }

    #[test]
    fn build_publishes_dynamic_filter() {
        use crate::dynfilter::{DynamicFilterRegistry, DynamicFilterSource};
        let registry = DynamicFilterRegistry::new();
        let join = presto_common::PlanNodeId(42);
        let bridge = JoinBridge::new(vec![0], 1);
        bridge.enable_dynamic_filter(DynamicFilterSource {
            join,
            registry: Arc::clone(&registry),
            key_types: vec![DataType::Bigint],
            max_values: 100,
        });
        let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
        let s = schema();
        // A NULL key must not widen the published domain.
        b.add_input(Page::from_rows(
            &s,
            &[
                vec![Value::Bigint(5), Value::varchar("a")],
                vec![Value::Null, Value::varchar("n")],
                vec![Value::Bigint(9), Value::varchar("b")],
            ],
        ))
        .unwrap();
        b.finish();
        let f = registry.completed(join).unwrap();
        assert_eq!(f.rows, 2, "null-key rows are not collected");
        match &f.domains[0] {
            Some(presto_connector::Domain::Set(v)) => {
                assert_eq!(v, &vec![Value::Bigint(5), Value::Bigint(9)]);
            }
            other => panic!("expected set, got {other:?}"),
        }
        // The table itself still builds normally.
        assert_eq!(bridge.table().unwrap().row_count(), 2);
    }

    /// Invert the splitmix64 finalizer used by `presto_page::hash` so the
    /// test can manufacture genuine 64-bit hash collisions.
    fn inv_mix(mut h: u64) -> u64 {
        fn unshift(mut v: u64, s: u32) -> u64 {
            // Invert v ^= v >> s by reapplying until all bits recovered.
            let mut r = v;
            while v > 0 {
                v >>= s;
                r ^= v;
            }
            r
        }
        fn mul_inverse(a: u64) -> u64 {
            // Newton iteration: works for any odd multiplier mod 2^64.
            let mut x = a;
            for _ in 0..6 {
                x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
            }
            x
        }
        h = unshift(h, 31);
        h = h.wrapping_mul(mul_inverse(0x94D0_49BB_1331_11EB));
        h = unshift(h, 27);
        h = h.wrapping_mul(mul_inverse(0xBF58_476D_1CE4_E5B9));
        unshift(h, 30)
    }

    /// Two distinct (a, b) bigint key pairs with identical row hashes.
    fn collision_pair() -> ((i64, i64), (i64, i64)) {
        use presto_page::hash::hash_i64;
        let (a1, a2) = (0i64, 1i64);
        let (b1, _) = (42i64, ());
        // Row hash is mix(mix(hash(a)) * SEED ^ hash(b)); solve for b2 so
        // the pre-mix values collide.
        const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
        let c1 = combine_hashes(0, hash_i64(a1)).wrapping_mul(SEED);
        let c2 = combine_hashes(0, hash_i64(a2)).wrapping_mul(SEED);
        let b2 = inv_mix(hash_i64(b1) ^ c1 ^ c2) as i64;
        ((a1, b1), (a2, b2))
    }

    #[test]
    fn hash_collisions_do_not_cross_join() {
        use presto_page::hash::hash_columns;
        let ((a1, b1), (a2, b2)) = collision_pair();
        assert_ne!((a1, b1), (a2, b2));
        let s = Schema::of(&[("a", DataType::Bigint), ("b", DataType::Bigint)]);
        let build = Page::from_rows(&s, &[vec![Value::Bigint(a1), Value::Bigint(b1)]]);
        let probe_page = Page::from_rows(&s, &[vec![Value::Bigint(a2), Value::Bigint(b2)]]);
        // Verify this really is a full 64-bit collision.
        assert_eq!(
            hash_columns(&build, &[0, 1])[0],
            hash_columns(&probe_page, &[0, 1])[0],
            "constructed keys collide"
        );
        let bridge = JoinBridge::new(vec![0, 1], 1);
        let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
        b.add_input(build).unwrap();
        b.finish();
        let mut probe = LookupJoinOperator::new(
            Arc::clone(&bridge),
            ProbeJoinType::Inner,
            vec![0, 1],
            s.clone(),
            s.clone(),
            None,
        );
        probe.add_input(probe_page).unwrap();
        assert!(
            probe.output().unwrap().is_none(),
            "colliding but unequal keys must not join"
        );
        // The equal key still joins.
        let mut probe2 = LookupJoinOperator::new(
            bridge,
            ProbeJoinType::Inner,
            vec![0, 1],
            s.clone(),
            s.clone(),
            None,
        );
        probe2
            .add_input(Page::from_rows(
                &s,
                &[vec![Value::Bigint(a1), Value::Bigint(b1)]],
            ))
            .unwrap();
        assert_eq!(probe2.output().unwrap().unwrap().row_count(), 1);
    }

    /// A spill-armed bridge + probe joined over `build`/`probe` rows with a
    /// forced revocation after `revoke_after` build pages; returns the
    /// drained rows plus the total memory freed by revocations.
    fn grace_run(
        build: &[Vec<(i64, &str)>],
        probe_pages: &[Vec<(i64, &str)>],
        join_type: ProbeJoinType,
        revoke: bool,
    ) -> (Vec<(i64, String, i64, String)>, u64) {
        let dir = std::env::temp_dir().join(format!(
            "presto-grace-test-{}-{}",
            std::process::id(),
            NEXT_TEST_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let manager = SpillManager::new(Some(dir.clone()), 0);
        let bridge = JoinBridge::new(vec![0], 1);
        if revoke {
            bridge.enable_spill(Arc::clone(&manager));
        }
        let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
        let mut freed_total = 0;
        for rows in build {
            b.add_input(kv_page(rows)).unwrap();
            if revoke {
                assert!(b.can_revoke_memory());
                let freed = b.revoke_memory().unwrap();
                assert!(freed > 0, "revocation frees build memory");
                freed_total += freed;
            }
        }
        b.finish();
        let mut op = LookupJoinOperator::new(
            Arc::clone(&bridge),
            join_type,
            vec![0],
            schema(),
            schema(),
            None,
        )
        .with_spill(Arc::clone(&manager))
        .with_grace_partition_limit(1); // force recursion on every pair
        let mut rows = Vec::new();
        let drain = |op: &mut LookupJoinOperator, out: &mut Vec<_>| {
            while let Some(p) = op.output().unwrap() {
                for i in 0..p.row_count() {
                    out.push((
                        p.block(0).i64_at(i),
                        p.block(1).str_at(i).to_string(),
                        if p.block(2).is_null(i) {
                            -1
                        } else {
                            p.block(2).i64_at(i)
                        },
                        if p.block(3).is_null(i) {
                            "-".into()
                        } else {
                            p.block(3).str_at(i).to_string()
                        },
                    ));
                }
            }
        };
        for page_rows in probe_pages {
            op.add_input(kv_page(page_rows)).unwrap();
            drain(&mut op, &mut rows);
        }
        op.finish();
        drain(&mut op, &mut rows);
        rows.sort();
        assert!(op.is_finished());
        drop(op);
        drop(bridge);
        manager.remove_all();
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "no spill files leaked"
        );
        std::fs::remove_dir_all(&dir).ok();
        (rows, freed_total)
    }

    static NEXT_TEST_DIR: AtomicUsize = AtomicUsize::new(0);

    #[test]
    fn grace_join_matches_in_memory_inner_and_left() {
        // Enough distinct keys to populate many radix partitions; probe
        // includes matching, non-matching, and repeated keys.
        let build: Vec<Vec<(i64, String)>> = (0..4)
            .map(|c| (0..200).map(|i| (c * 200 + i, format!("b{c}_{i}"))).collect())
            .collect();
        let probe: Vec<Vec<(i64, String)>> = (0..3)
            .map(|c| {
                (0..150)
                    .map(|i| (c * 137 + i * 7 % 900, format!("p{c}_{i}")))
                    .collect()
            })
            .collect();
        let build_ref: Vec<Vec<(i64, &str)>> = build
            .iter()
            .map(|v| v.iter().map(|(k, s)| (*k, s.as_str())).collect())
            .collect();
        let probe_ref: Vec<Vec<(i64, &str)>> = probe
            .iter()
            .map(|v| v.iter().map(|(k, s)| (*k, s.as_str())).collect())
            .collect();
        for join_type in [ProbeJoinType::Inner, ProbeJoinType::Left] {
            let (spilled, freed) = grace_run(&build_ref, &probe_ref, join_type, true);
            let (plain, _) = grace_run(&build_ref, &probe_ref, join_type, false);
            assert!(freed > 0);
            assert_eq!(spilled, plain, "{join_type:?} grace join identical");
        }
    }

    #[test]
    fn grace_join_hash_collisions_do_not_cross_join() {
        let ((a1, b1), (a2, b2)) = collision_pair();
        // Single-column collision is impossible to manufacture here, so use
        // the two-key collision with both channels as keys and spill.
        let s = Schema::of(&[("a", DataType::Bigint), ("b", DataType::Bigint)]);
        let manager = SpillManager::new(None, 0);
        let bridge = JoinBridge::new(vec![0, 1], 1);
        bridge.enable_spill(Arc::clone(&manager));
        let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
        b.add_input(Page::from_rows(
            &s,
            &[vec![Value::Bigint(a1), Value::Bigint(b1)]],
        ))
        .unwrap();
        assert!(b.revoke_memory().unwrap() > 0, "whole build spills");
        b.finish();
        let table = bridge.table().unwrap();
        assert!(table.has_spill());
        assert_eq!(table.row_count(), 0, "all rows on disk");
        let mut probe = LookupJoinOperator::new(
            Arc::clone(&bridge),
            ProbeJoinType::Inner,
            vec![0, 1],
            s.clone(),
            s.clone(),
            None,
        )
        .with_spill(Arc::clone(&manager));
        probe
            .add_input(Page::from_rows(
                &s,
                &[
                    vec![Value::Bigint(a2), Value::Bigint(b2)],
                    vec![Value::Bigint(a1), Value::Bigint(b1)],
                ],
            ))
            .unwrap();
        probe.finish();
        let mut rows = 0;
        while let Some(p) = probe.output().unwrap() {
            for i in 0..p.row_count() {
                assert_eq!(p.block(0).i64_at(i), a1);
                assert_eq!(p.block(1).i64_at(i), b1);
            }
            rows += p.row_count();
        }
        assert_eq!(rows, 1, "colliding but unequal keys must not join");
        assert!(probe.is_finished());
    }

    #[test]
    fn revocation_is_a_noop_after_finalize_starts() {
        let manager = SpillManager::new(None, 0);
        let bridge = JoinBridge::new(vec![0], 1);
        bridge.enable_spill(Arc::clone(&manager));
        let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
        b.add_input(kv_page(&[(1, "a"), (2, "b")])).unwrap();
        b.finish();
        assert!(bridge.table().is_some());
        assert!(!b.can_revoke_memory());
        assert_eq!(b.revoke_memory().unwrap(), 0);
        assert!(!bridge.table().unwrap().has_spill());
    }

    #[test]
    fn cross_join_bridge_never_arms_spill() {
        let manager = SpillManager::new(None, 0);
        let bridge = JoinBridge::new(vec![], 1);
        bridge.enable_spill(Arc::clone(&manager));
        assert!(!bridge.spill_armed(), "cross joins are spill-ineligible");
    }
}
