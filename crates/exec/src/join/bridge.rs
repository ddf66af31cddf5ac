//! The build pipeline: [`HashBuilderOperator`]s scatter their input by
//! radix partition into a shared [`JoinBridge`], which spills partitions
//! under revocation, runs the parallel partition build and publishes the
//! [`JoinHashTable`].

use parking_lot::Mutex;
use presto_common::wake::{WakeList, Waker};
use presto_common::{PrestoError, Result};
use presto_page::hash::{hash_columns_cached, DictionaryHashCache};
use presto_page::Page;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use super::partition::{scatter, BuildInput, Partition};
use super::table::{BuiltPartition, JoinHashTable};
use crate::dynfilter::{CollectedDomains, DomainCollector, DynamicFilterSource};
use crate::operator::{BlockedReason, Operator, TARGET_PAGE_ROWS};
use crate::partitioned_output::PageBuffer;
use crate::spill::{SpillManager, SpillTally};

/// A full page bound for one partition, with one key hash per row (none
/// for a cross join).
type Flushed = (usize, Page, Vec<u64>);

/// Work queue for the parallel finalize: partitions are claimed by index
/// and built entirely outside the bridge's state lock.
struct FinalizeState {
    key_channels: Vec<usize>,
    inputs: Vec<Mutex<Option<Partition<BuildInput>>>>,
    built: Vec<Mutex<Option<BuiltPartition>>>,
    next: AtomicUsize,
    remaining: AtomicUsize,
    /// Resident input bytes when the finalize started, and table bytes
    /// built since.
    input_bytes: usize,
    built_bytes: AtomicUsize,
}

struct BuildState {
    partitions: Vec<Partition<BuildInput>>,
    /// Build drivers still running.
    pending_builders: usize,
    key_channels: Vec<usize>,
    finalize: Option<Arc<FinalizeState>>,
    table: Option<Arc<JoinHashTable>>,
    /// Dynamic-filter publication config + merged builder contributions.
    df_source: Option<DynamicFilterSource>,
    df_collected: Option<CollectedDomains>,
}

impl BuildState {
    /// Bytes of the resident partitions' pages and hash vectors.
    fn resident_bytes(&self) -> usize {
        let resident = self.partitions.iter().filter_map(Partition::resident);
        resident.map(|input| input.bytes).sum()
    }

    /// Take in flushed pages: a resident partition keeps its page in
    /// memory, a spilled one appends it to its run.
    fn ingest(&mut self, pages: Vec<Flushed>, written: &mut SpillTally) -> Result<()> {
        for (p, page, hashes) in pages {
            match &mut self.partitions[p] {
                Partition::Resident(input) => input.push(page, hashes),
                Partition::Spilled(run) => written.append(run, &page)?,
            }
        }
        Ok(())
    }
}

/// Shared hand-off between the build pipeline and probe drivers.
pub struct JoinBridge {
    state: Mutex<BuildState>,
    /// Set once by [`JoinBridge::enable_spill`].
    spill: OnceLock<Arc<SpillManager>>,
    /// Bytes held in the builders' coalescing buffers.
    buffered: AtomicUsize,
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
        Arc::new(JoinBridge {
            state: Mutex::new(BuildState {
                partitions: (0..partition_count)
                    .map(|_| Partition::Resident(BuildInput::default()))
                    .collect(),
                pending_builders: builder_count.max(1),
                key_channels,
                finalize: None,
                table: None,
                df_source: None,
                df_collected: None,
            }),
            spill: OnceLock::new(),
            buffered: AtomicUsize::new(0),
            waiters: WakeList::new(),
        })
    }

    /// `waker` fires when finalize work appears and when the table
    /// publishes. Look at the bridge again after registering.
    pub(super) fn on_progress(&self, waker: &Waker) {
        self.waiters.register(waker);
    }

    /// Arm spill: under memory revocation the build moves whole radix
    /// partitions to disk through `manager`, and probes divert their rows
    /// for those partitions the same way. Cross joins (no keys) ignore the
    /// call — they never spill, so spill is never correctness-bearing there.
    pub fn enable_spill(&self, manager: Arc<SpillManager>) {
        if !self.state.lock().key_channels.is_empty() {
            let _ = self.spill.set(manager);
        }
    }

    /// Resident build bytes while the build still takes input; `None` once
    /// the finalize has started.
    fn building_bytes(&self) -> Option<usize> {
        let s = self.state.lock();
        (s.finalize.is_none() && s.table.is_none()).then(|| s.resident_bytes())
    }

    /// The finished hash table, once all builders are done and every
    /// partition is built.
    pub fn table(&self) -> Option<Arc<JoinHashTable>> {
        self.state.lock().table.clone()
    }

    /// Arm build-side dynamic-filter collection. Must be called before the
    /// builder operators are instantiated (they snapshot the config).
    pub fn enable_dynamic_filter(&self, source: DynamicFilterSource) {
        self.state.lock().df_source = Some(source);
    }

    /// What a new builder snapshots: the key channels and partition count,
    /// fixed at creation (so it partitions without taking the lock per
    /// row), and a fresh dynamic-filter collector when filtering is armed.
    fn builder_config(&self) -> (Vec<usize>, usize, Option<DomainCollector>) {
        let s = self.state.lock();
        let keys = s.key_channels.clone();
        let df = (s.df_source.as_ref())
            .map(|src| DomainCollector::new(keys.clone(), &src.key_types, src.max_values));
        (keys, s.partitions.len(), df)
    }

    pub fn build_bytes(&self) -> usize {
        let s = self.state.lock();
        if let Some(t) = &s.table {
            return t.memory_bytes();
        }
        let finalize_bytes = s
            .finalize
            .as_ref()
            .map_or(0, |f| f.input_bytes + f.built_bytes.load(Ordering::Relaxed));
        s.resident_bytes() + finalize_bytes + self.buffered.load(Ordering::Relaxed)
    }

    /// Memory revocation for one builder: take in its drained buffers, then
    /// spill the largest resident partitions until at least half the
    /// resident bytes are freed. Returns the bytes freed, the builder's
    /// `buffered` bytes included.
    fn revoke(
        &self,
        drained: Vec<Flushed>,
        buffered: usize,
        written: &mut SpillTally,
    ) -> Result<u64> {
        let Some(manager) = self.spill.get() else {
            return Ok(0);
        };
        let mut guard = self.state.lock();
        let s = &mut *guard;
        let before = s.resident_bytes() + buffered;
        s.ingest(drained, written)?;
        // Size up every non-empty resident partition, biggest first.
        let mut sizes: Vec<(usize, usize)> = s
            .partitions
            .iter()
            .enumerate()
            .filter_map(|(p, part)| part.resident().map(|input| (p, input.bytes)))
            .filter(|&(_, bytes)| bytes > 0)
            .collect();
        sizes.sort_unstable_by_key(|&(_, bytes)| std::cmp::Reverse(bytes));
        let target = s.resident_bytes() / 2;
        let mut freed = 0;
        for (p, bytes) in sizes {
            if freed >= target {
                break;
            }
            let mut run = manager.create_run("join-build");
            if let Partition::Resident(input) = &s.partitions[p] {
                for page in &input.pages {
                    written.append(&mut run, page)?;
                }
            }
            s.partitions[p] = Partition::Spilled(run);
            freed += bytes;
        }
        Ok(before.saturating_sub(s.resident_bytes()) as u64)
    }

    /// A builder is done, optionally handing in its dynamic-filter
    /// contribution. The last one moves the accumulated input into the
    /// finalize work queue — it does NOT build under the lock; partitions
    /// are built by [`JoinBridge::claim_and_build_one`] callers. It also
    /// publishes the merged dynamic-filter domains *before* the partition
    /// build starts, so probe scans begin pruning while the hash table is
    /// still being laid out.
    pub(super) fn builder_finished_with(&self, df: Option<DomainCollector>) {
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
                None => CollectedDomains::empty(&src.key_types, src.max_values),
            };
            (src, collected)
        });
        let input_bytes = s.resident_bytes();
        let partitions = std::mem::take(&mut s.partitions);
        let count = partitions.len();
        s.finalize = Some(Arc::new(FinalizeState {
            key_channels: s.key_channels.clone(),
            inputs: partitions
                .into_iter()
                .map(|p| Mutex::new(Some(p)))
                .collect(),
            built: (0..count).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(count),
            input_bytes,
            built_bytes: AtomicUsize::new(0),
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
        let input = fin.inputs[idx]
            .lock()
            .take()
            .expect("each partition is claimed once");
        let part = input.map(BuildInput::build);
        if let Some((_, table)) = part.resident() {
            fin.built_bytes
                .fetch_add(table.memory_bytes(), Ordering::Relaxed);
        }
        *fin.built[idx].lock() = Some(part);
        if fin.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let partitions = fin.built.iter().map(|slot| slot.lock().take());
            let partitions = partitions
                .map(|p| p.expect("all partitions built"))
                .collect();
            let table = JoinHashTable::new(partitions, fin.key_channels.clone());
            let mut s = self.state.lock();
            s.finalize = None;
            s.table = Some(Arc::new(table));
            drop(s);
            self.waiters.wake_all();
        }
        true
    }
}

/// Build-side sink operator: scatters its input by radix partition into
/// per-partition buffers that reach the bridge as full pages, and
/// participates in the parallel partition build once its input is done.
pub struct HashBuilderOperator {
    bridge: Arc<JoinBridge>,
    key_channels: Vec<usize>,
    hash_cache: DictionaryHashCache,
    /// Per-builder dynamic-filter collector, filled off the bridge lock.
    df_collector: Option<DomainCollector>,
    /// Per partition: a coalescing buffer, flushed at `TARGET_PAGE_ROWS`, and
    /// the key hash of each buffered row.
    buffers: Vec<(PageBuffer, Vec<u64>)>,
    /// Per-partition row selections, reused across pages.
    positions: Vec<Vec<u32>>,
    /// This builder's share of the bridge's `buffered` bytes.
    buffered: usize,
    spilled: SpillTally,
    /// A failed flush at `finish`, surfaced by the next `output`.
    error: Option<PrestoError>,
    finished: bool,
}

impl HashBuilderOperator {
    pub fn new(bridge: Arc<JoinBridge>) -> HashBuilderOperator {
        let (key_channels, partitions, df_collector) = bridge.builder_config();
        HashBuilderOperator {
            bridge,
            key_channels,
            hash_cache: DictionaryHashCache::new(),
            df_collector,
            buffers: (0..partitions).map(|_| Default::default()).collect(),
            positions: vec![Vec::new(); partitions],
            buffered: 0,
            spilled: SpillTally::default(),
            error: None,
            finished: false,
        }
    }

    /// Every non-empty buffer as a page, emptying them.
    fn drain_buffers(&mut self) -> Vec<Flushed> {
        let buffers = self.buffers.iter_mut().enumerate();
        let drained = buffers.map(|(p, (buffer, hashes))| {
            buffer.take().map(|page| (p, page, std::mem::take(hashes)))
        });
        drained.flatten().collect()
    }

    /// Hand every buffered row to the bridge (end of input).
    pub(super) fn flush_buffers(&mut self) -> Result<()> {
        let drained = self.drain_buffers();
        self.flush(drained)
    }

    /// Hand full pages to the bridge, then republish this builder's
    /// buffered bytes.
    fn flush(&mut self, pages: Vec<Flushed>) -> Result<()> {
        if !pages.is_empty() {
            self.bridge.state.lock().ingest(pages, &mut self.spilled)?;
        }
        self.publish_buffered();
        Ok(())
    }

    fn publish_buffered(&mut self) {
        let buffers = self.buffers.iter();
        let now: usize = buffers
            .map(|(b, hashes)| b.bytes() + hashes.len() * 8)
            .sum();
        // Wrapping add of the (possibly negative) delta.
        let delta = now.wrapping_sub(self.buffered);
        self.bridge.buffered.fetch_add(delta, Ordering::Relaxed);
        self.buffered = now;
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
        if page.is_empty() {
            return Ok(());
        }
        let page = page.load_all();
        if self.key_channels.is_empty() {
            // Cross join: one partition, nothing to hash or scatter.
            return self.flush(vec![(0, page, Vec::new())]);
        }
        // Hash + scatter off the bridge lock; the hash pass is
        // dictionary/RLE-aware and the cache persists across pages.
        let hashes = hash_columns_cached(&page, &self.key_channels, &mut self.hash_cache);
        // NULL-key rows are dropped outright: they never match, and build
        // rows are never padded.
        scatter(&page, &self.key_channels, &hashes, 0, &mut self.positions);
        // The dynamic filter sees every joinable build row before any spill
        // decision, so its publication is unaffected by memory pressure.
        if let Some(collector) = &mut self.df_collector {
            let rows: Vec<u32> = self.positions.iter().flatten().copied().collect();
            collector.add_rows(&page, &rows, &hashes);
        }
        // A page whose every row goes to one partition (an RLE key, say)
        // passes through whole, to be decoded once at the partition build;
        // the rest coalesces per partition.
        if let Some(p) = self
            .positions
            .iter()
            .position(|rows| rows.len() == page.row_count())
        {
            return self.flush(vec![(p, page, hashes)]);
        }
        let mut full = Vec::new();
        for (p, rows) in self.positions.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let (buffer, buffered_hashes) = &mut self.buffers[p];
            buffer.append(&page, rows, 0);
            buffered_hashes.extend(rows.iter().map(|&r| hashes[r as usize]));
            if buffer.rows() >= TARGET_PAGE_ROWS {
                full.extend(
                    buffer
                        .take()
                        .map(|page| (p, page, std::mem::take(buffered_hashes))),
                );
            }
        }
        self.flush(full)
    }

    fn finish(&mut self) {
        if !self.finished {
            self.finished = true;
            if let Err(e) = self.flush_buffers() {
                self.error = Some(e);
                return;
            }
            self.bridge.builder_finished_with(self.df_collector.take());
            while self.bridge.claim_and_build_one() {}
        }
    }

    fn output(&mut self) -> Result<Option<Page>> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        // Finished builders keep helping with the partition build until the
        // table is published (parallel finalize).
        if self.finished {
            while self.bridge.claim_and_build_one() {}
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
        self.bridge.spill.get().is_some()
            && self
                .bridge
                .building_bytes()
                .is_some_and(|bytes| bytes + self.buffered > 0)
    }

    fn revoke_memory(&mut self) -> Result<u64> {
        if !self.can_revoke_memory() {
            return Ok(0);
        }
        // This builder's buffers go first: their rows become revocable, or
        // go straight to the runs of already-spilled partitions.
        let drained = self.drain_buffers();
        let freed = self
            .bridge
            .revoke(drained, self.buffered, &mut self.spilled)?;
        self.publish_buffered();
        Ok(freed)
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.spilled.counters().to_vec()
    }
}
