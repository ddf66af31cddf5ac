//! The probe pipeline: [`LookupJoinOperator`] streams probe pages against
//! the published table, diverts the rows of spilled partitions to disk, and
//! joins those (build, probe) partition pairs once its input is done.

use presto_common::wake::Waker;
use presto_common::{DataType, PrestoError, Result, Schema, Value};
use presto_expr::{CompiledExpr, Expr};
use presto_page::hash::{combine_hashes, hash_cell, hash_columns_cached, DictionaryHashCache};
use presto_page::{Block, Page};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use super::bridge::JoinBridge;
use super::partition::{nullable_keys, scatter, BuildInput, Partition};
use super::table::JoinHashTable;
use crate::operator::{BlockedReason, Operator};
use crate::spill::{SpillRun, SpillTally};

/// Sub-partitions per grace-join recursion level.
const GRACE_BITS: u32 = 3;
/// Maximum grace-join recursion depth. Beyond this the partition is built
/// in memory whatever its size (pathological single-key skew cannot be
/// split by hash anyway).
const GRACE_MAX_DEPTH: u32 = 4;
/// Default in-memory build size above which a spilled partition-pair is
/// recursively sub-partitioned rather than built directly.
const GRACE_PARTITION_LIMIT: usize = 64 << 20;

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

/// Probe-side operator: streams probe pages against the hash table.
///
/// Probing is batched per page: one vectorized hash pass, one pass
/// collecting (probe index, build address) match vectors, then block-level
/// gathers materialize both sides at once. A dictionary-keyed page probes
/// each distinct entry once (the entry → matches array is retained while
/// pages share a dictionary); an RLE key probes once per page.
///
/// When build partitions spilled, the rows that route to them are diverted
/// to per-partition runs; after input ends each (build run, probe run) pair
/// is restored and joined, recursing on the next radix bits while a pair's
/// build side is still too large.
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
    hash_cache: DictionaryHashCache,
    /// Entry → build matches memo, retained across pages (§V-E).
    dict_probe: Option<DictProbeCache>,
    dict_probe_hits: u64,
    rle_probe_rows: u64,
    /// Partition → this operator's diverted probe rows, each run created on
    /// the first row diverted to it; joined lowest partition first.
    probe_runs: BTreeMap<usize, SpillRun>,
    /// Output of the partition pairs joined so far.
    pair_outputs: VecDeque<Page>,
    /// Build bytes above which a restored pair is sub-partitioned.
    grace_partition_limit: usize,
    spilled: SpillTally,
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
            hash_cache: DictionaryHashCache::new(),
            dict_probe: None,
            dict_probe_hits: 0,
            rle_probe_rows: 0,
            probe_runs: BTreeMap::new(),
            pair_outputs: VecDeque::new(),
            grace_partition_limit: GRACE_PARTITION_LIMIT,
            spilled: SpillTally::default(),
        }
    }

    /// Override the recursion threshold (tests force tiny pairs).
    pub fn with_grace_partition_limit(mut self, bytes: usize) -> LookupJoinOperator {
        self.grace_partition_limit = bytes;
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
                    self.rle_probe_rows += probe.row_count() as u64;
                    let value = &*rle.value;
                    let hash = combine_hashes(0, hash_cell(value, 0));
                    let matches = table.matches(&[hash], |_| value.is_null(0), &[value], |_| 0);
                    for (row, count) in match_counts.iter_mut().enumerate() {
                        for &(_, addr) in &matches {
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
                    // the same batched chain walk as the general path, then
                    // every row expands via one slot read.
                    let (dictionary, ids, dict_id) = (&*d.dictionary, &d.ids, d.dictionary_id);
                    if !matches!(&self.dict_probe, Some(c) if c.dict_id == dict_id) {
                        self.dict_probe = Some(DictProbeCache::new(dict_id, dictionary.len()));
                    }
                    let Some(cache) = &mut self.dict_probe else {
                        unreachable!("dict_probe set above")
                    };
                    const PENDING: u32 = u32::MAX - 1;
                    let mut to_resolve: Vec<u32> = Vec::new();
                    for &entry in ids {
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
                            .map(|&e| combine_hashes(0, hash_cell(dictionary, e as usize)))
                            .collect();
                        let mut pairs = table.matches(
                            &entry_hashes,
                            |_| false,
                            &[dictionary],
                            |i| to_resolve[i as usize] as usize,
                        );
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
        // General path: one vectorized hash pass, the batched chain walk
        // over the rows with non-NULL keys, then key verification.
        let hashes = hash_columns_cached(probe, &self.probe_keys, &mut self.hash_cache);
        let key_blocks: Vec<&Block> = self.probe_keys.iter().map(|&c| probe.block(c)).collect();
        let nullable = nullable_keys(probe, &self.probe_keys);
        let null = |row: usize| nullable.iter().any(|b| b.is_null(row));
        for (row, addr) in table.matches(&hashes, null, &key_blocks, |row| row as usize) {
            probe_idx.push(row);
            build_addrs.push(addr);
            match_counts[row as usize] += 1;
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
            _ => self.probe_keyed(
                table,
                probe,
                &mut probe_idx,
                &mut build_addrs,
                &mut match_counts,
            ),
        }
        // Materialize both sides with block-level gathers: the probe gather
        // preserves dictionary/RLE structure, the build gather fills each
        // output block in one typed loop over the flat build lanes.
        let probe_side = probe.filter(&probe_idx);
        let build_side = table.gather(&build_addrs, &self.build_types);
        let mut combined = if build_width == 0 {
            probe_side
        } else if probe_width == 0 {
            build_side
        } else {
            probe_side.append_columns(build_side)
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

    /// Divert the rows whose build partition spilled to this operator's
    /// probe runs and return the rest, to join now — the page itself when
    /// nothing was diverted, so it keeps its dictionary/RLE fast paths. Each
    /// row goes to exactly one side, so LEFT-join padding happens exactly
    /// once per unmatched row; NULL-key rows never match and stay, so they
    /// are padded in the streaming phase.
    fn divert(&mut self, table: &JoinHashTable, page: Page) -> Result<Option<Page>> {
        let page = page.load_all();
        let hashes = hash_columns_cached(&page, &self.probe_keys, &mut self.hash_cache);
        let mut parts = vec![Vec::new(); table.partitions.len()];
        let mut stay = scatter(&page, &self.probe_keys, &hashes, 0, &mut parts);
        for (p, rows) in parts.iter().enumerate() {
            match &table.partitions[p] {
                Partition::Resident(_) => stay.extend_from_slice(rows),
                Partition::Spilled(_) if rows.is_empty() => {}
                Partition::Spilled(build_run) => {
                    let run = self
                        .probe_runs
                        .entry(p)
                        .or_insert_with(|| build_run.manager().create_run("join-probe"));
                    self.spilled.append(run, &page.filter(rows))?;
                }
            }
        }
        Ok(if stay.len() == page.row_count() {
            Some(page)
        } else if stay.is_empty() {
            None
        } else {
            stay.sort_unstable();
            Some(page.filter(&stay))
        })
    }

    /// Join restored pages, splitting both sides by the next radix bits
    /// while the build side exceeds the grace partition limit.
    fn join_grace_pair(
        &mut self,
        build_keys: &[usize],
        build: Vec<Page>,
        probe: Vec<Page>,
        consumed: u32,
        depth: u32,
    ) -> Result<()> {
        if probe.iter().all(Page::is_empty) {
            return Ok(());
        }
        let build_bytes: usize = build.iter().map(Page::size_in_bytes).sum();
        if build_bytes > self.grace_partition_limit
            && depth < GRACE_MAX_DEPTH
            && consumed + GRACE_BITS < 64
        {
            // Restored rows all have non-NULL keys, so every row lands in
            // a sub-partition.
            let split = |pages: &[Page], keys: &[usize]| {
                let mut parts = vec![Vec::new(); 1 << GRACE_BITS];
                let mut out = vec![Vec::new(); 1 << GRACE_BITS];
                let mut cache = DictionaryHashCache::new();
                for page in pages {
                    let hashes = hash_columns_cached(page, keys, &mut cache);
                    scatter(page, keys, &hashes, consumed, &mut parts);
                    for (sub, rows) in out.iter_mut().zip(&parts) {
                        if !rows.is_empty() {
                            sub.push(page.filter(rows));
                        }
                    }
                }
                out
            };
            let sub_build = split(&build, build_keys);
            let sub_probe = split(&probe, &self.probe_keys);
            drop((build, probe));
            for (b, p) in sub_build.into_iter().zip(sub_probe) {
                self.join_grace_pair(build_keys, b, p, consumed + GRACE_BITS, depth + 1)?;
            }
            return Ok(());
        }
        // Leaf: a one-partition table over this pair, built like any
        // other, with the probe pages streamed through the normal
        // (LEFT-aware) join path.
        let mut input = BuildInput::default();
        let mut cache = DictionaryHashCache::new();
        for page in build {
            let hashes = hash_columns_cached(&page, build_keys, &mut cache);
            input.push(page, hashes);
        }
        let table = JoinHashTable::new(
            vec![Partition::Resident(input.build())],
            build_keys.to_vec(),
        );
        // The dictionary-probe memo is table-specific; never reuse entries
        // resolved against a different table.
        self.dict_probe = None;
        for page in probe {
            if page.is_empty() {
                continue;
            }
            let out = self.join_page(&table, &page)?;
            if out.row_count() > 0 {
                self.pair_outputs.push_back(out);
            }
        }
        self.dict_probe = None;
        Ok(())
    }
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
        let page = if table.has_spill() {
            match self.divert(&table, page)? {
                Some(rest) => rest,
                None => return Ok(()),
            }
        } else {
            page
        };
        let out = self.join_page(&table, &page)?;
        if out.row_count() > 0 {
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
        // Pair phase: once streaming input is done, join the spilled
        // (build, probe) partition pairs, one partition per pass.
        loop {
            if let Some(p) = self.pair_outputs.pop_front() {
                return Ok(Some(p));
            }
            let Some((partition, probe)) = self.probe_runs.pop_first() else {
                return Ok(None);
            };
            let table = self
                .bridge
                .table()
                .ok_or_else(|| PrestoError::internal("pair phase before build finished"))?;
            // The build run stays on disk for the other probe operators.
            let build = match &table.partitions[partition] {
                Partition::Spilled(run) => run.read_pages()?,
                Partition::Resident(_) => Vec::new(),
            };
            let consumed = table.partitions.len().trailing_zeros();
            self.join_grace_pair(&table.key_channels, build, probe.into_pages()?, consumed, 0)?;
        }
    }

    fn is_finished(&self) -> bool {
        self.input_done
            && self.pending.is_none()
            && self.pair_outputs.is_empty()
            && self.probe_runs.is_empty()
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
        let mut counters = vec![
            ("dict_probe_hits", self.dict_probe_hits),
            ("rle_probe_rows", self.rle_probe_rows),
        ];
        counters.extend(self.spilled.counters());
        counters
    }
}
