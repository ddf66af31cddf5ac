//! Hash-kernel micro-benchmarks (§V-E): the vectorized flat-table join and
//! group-by kernels against the pre-flat baseline implementations
//! (`HashMap<u64, Vec<u32>>` join table, `HashMap<Vec<u8>, u32>` group-by),
//! over flat, dictionary-encoded and RLE inputs.
//!
//! The baselines reproduce the engine's previous kernels faithfully —
//! per-key `Vec` allocations, per-row builder appends on the probe — so the
//! `hash_kernels` binary measures exactly the delta the flat layout buys.

use presto_common::{DataType, Schema};
use presto_exec::agg::GroupByHash;
use presto_exec::join::{HashBuilderOperator, JoinBridge, LookupJoinOperator, ProbeJoinType};
use presto_exec::Operator;
use presto_page::blocks::{DictionaryBlock, LongBlock};
use presto_page::hash::hash_columns;
use presto_page::{Block, BlockBuilder, Page};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const PAGE_ROWS: usize = 4096;

/// How the generated key column is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyEncoding {
    Flat,
    Dictionary,
    Rle,
}

impl KeyEncoding {
    pub fn label(self) -> &'static str {
        match self {
            KeyEncoding::Flat => "flat",
            KeyEncoding::Dictionary => "dict",
            KeyEncoding::Rle => "rle",
        }
    }
}

pub fn kv_schema() -> Schema {
    Schema::of(&[("k", DataType::Bigint), ("v", DataType::Bigint)])
}

/// Deterministic keyed pages: `rows` total rows, keys in `0..cardinality`.
/// Dictionary pages share one dictionary `Arc` (and therefore one
/// dictionary id) across all pages; RLE pages hold one run per page.
pub fn make_pages(rows: usize, cardinality: usize, encoding: KeyEncoding) -> Vec<Page> {
    let cardinality = cardinality.max(1);
    let dictionary = Arc::new(Block::from(LongBlock::from_values(
        (0..cardinality as i64).collect(),
    )));
    let mut pages = Vec::new();
    let mut produced = 0usize;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    while produced < rows {
        let n = PAGE_ROWS.min(rows - produced);
        let keys: Block = match encoding {
            KeyEncoding::Flat => {
                let values: Vec<i64> = (0..n)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state % cardinality as u64) as i64
                    })
                    .collect();
                Block::from(LongBlock::from_values(values))
            }
            KeyEncoding::Dictionary => {
                let ids: Vec<u32> = (0..n)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state % cardinality as u64) as u32
                    })
                    .collect();
                Block::Dictionary(DictionaryBlock::new(Arc::clone(&dictionary), ids))
            }
            KeyEncoding::Rle => {
                let key = (produced / PAGE_ROWS) % cardinality;
                Block::rle(Block::from(LongBlock::from_values(vec![key as i64])), n)
            }
        };
        let payload = Block::from(LongBlock::from_values(
            (produced as i64..(produced + n) as i64).collect(),
        ));
        pages.push(Page::new(vec![keys, payload]));
        produced += n;
    }
    pages
}

/// One measured kernel run.
pub struct KernelRun {
    pub rows: usize,
    pub output_rows: usize,
    pub elapsed: Duration,
}

impl KernelRun {
    pub fn rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// The engine's previous join kernel, replicated from the pre-flat
/// `JoinBridge`/`LookupJoinOperator`: single-threaded finalize into a
/// `HashMap<u64, Vec<u32>>` with per-key `Vec` chains, then a probe that
/// re-hashes each page with a fresh dictionary cache, accumulates
/// `(probe row, build addr)` pairs, and materializes them in a second
/// per-row `append_from` pass.
pub fn baseline_join(build: &[Page], probe: &[Page]) -> KernelRun {
    let start = Instant::now();
    let mut rows: Vec<(u32, u32)> = Vec::new();
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    for (pi, page) in build.iter().enumerate() {
        let hashes = hash_columns(page, &[0]);
        for (ri, &h) in hashes.iter().enumerate() {
            if page.block(0).is_null(ri) {
                continue;
            }
            let idx = rows.len() as u32;
            rows.push((pi as u32, ri as u32));
            map.entry(h).or_default().push(idx);
        }
    }
    let mut output_rows = 0usize;
    for page in probe {
        // The old probe called `hash_columns` per page: dictionary entry
        // hashes were recomputed for every page, not cached across pages.
        let hashes = hash_columns(page, &[0]);
        let mut pairs: Vec<(u32, (u32, u32))> = Vec::new();
        let mut candidate_of_probe = vec![0u32; page.row_count()];
        for (row, &h) in hashes.iter().enumerate() {
            if page.block(0).is_null(row) {
                continue;
            }
            for &idx in map.get(&h).map(Vec::as_slice).unwrap_or(&[]) {
                let (bp, br) = rows[idx as usize];
                let build_page = &build[bp as usize];
                if build_page.block(0).eq_at(br as usize, page.block(0), row) {
                    pairs.push((row as u32, (bp, br)));
                    candidate_of_probe[row] += 1;
                }
            }
        }
        let mut builders: Vec<BlockBuilder> = (0..4)
            .map(|_| BlockBuilder::with_capacity(DataType::Bigint, pairs.len()))
            .collect();
        for &(prow, (bp, br)) in &pairs {
            let build_page = &build[bp as usize];
            builders[0].append_from(page.block(0), prow as usize);
            builders[1].append_from(page.block(1), prow as usize);
            builders[2].append_from(build_page.block(0), br as usize);
            builders[3].append_from(build_page.block(1), br as usize);
        }
        let out = Page::new(builders.into_iter().map(BlockBuilder::finish).collect());
        output_rows += out.row_count();
    }
    let total: usize = build.iter().chain(probe).map(Page::row_count).sum();
    KernelRun {
        rows: total,
        output_rows,
        elapsed: start.elapsed(),
    }
}

/// The flat partitioned kernel driven through the real operators.
pub fn flat_join(build: &[Page], probe: &[Page]) -> KernelRun {
    let start = Instant::now();
    let bridge = JoinBridge::new(vec![0], 1);
    let mut builder = HashBuilderOperator::new(Arc::clone(&bridge));
    for page in build {
        builder.add_input(page.clone()).expect("build input");
    }
    builder.finish();
    let mut join = LookupJoinOperator::new(
        bridge,
        ProbeJoinType::Inner,
        vec![0],
        kv_schema(),
        kv_schema(),
        None,
    );
    let mut output_rows = 0usize;
    for page in probe {
        join.add_input(page.clone()).expect("probe input");
        while let Some(out) = join.output().expect("join output") {
            output_rows += out.row_count();
        }
    }
    let total: usize = build.iter().chain(probe).map(Page::row_count).sum();
    KernelRun {
        rows: total,
        output_rows,
        elapsed: start.elapsed(),
    }
}

/// Byte encoding of one bigint cell, as the byte-keyed group-by wrote it.
fn baseline_encode(block: &Block, row: usize, out: &mut Vec<u8>) {
    out.clear();
    if block.is_null(row) {
        out.push(0);
    } else {
        out.push(1);
        out.extend_from_slice(&block.i64_at(row).to_le_bytes());
    }
}

/// The engine's previous group-by kernel, replicated from the pre-flat
/// `GroupByHash`: `HashMap<Vec<u8>, u32>` with a fresh key encoding and
/// map lookup per row, a cloned `Vec<u8>` per new group, and the
/// dictionary entry → group cache that operator already carried.
pub fn baseline_group_by(pages: &[Page]) -> KernelRun {
    let start = Instant::now();
    let mut map: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut key_builder = BlockBuilder::new(DataType::Bigint);
    let mut dict_cache: Option<(u64, Vec<i64>)> = None;
    let mut key = Vec::with_capacity(16);
    for page in pages {
        // Dictionary fast path, as in the old operator: resolve per entry,
        // memoized across pages sharing one dictionary.
        if let Block::Dictionary(d) = page.block(0).loaded() {
            let valid = matches!(&dict_cache, Some((id, _)) if *id == d.dictionary_id);
            if !valid {
                dict_cache = Some((d.dictionary_id, vec![-1; d.dictionary.len()]));
            }
            let mut out = Vec::with_capacity(d.ids.len());
            for &entry in &d.ids {
                let cached = match &dict_cache {
                    Some((_, groups)) => groups[entry as usize],
                    None => -1,
                };
                if cached >= 0 {
                    out.push(cached as u32);
                    continue;
                }
                baseline_encode(&d.dictionary, entry as usize, &mut key);
                let group = match map.get(key.as_slice()) {
                    Some(&id) => id,
                    None => {
                        let id = map.len() as u32;
                        map.insert(key.clone(), id);
                        key_builder.append_from(&d.dictionary, entry as usize);
                        id
                    }
                };
                if let Some((_, groups)) = &mut dict_cache {
                    groups[entry as usize] = group as i64;
                }
                out.push(group);
            }
            continue;
        }
        let block = page.block(0);
        let mut ids: Vec<u32> = Vec::with_capacity(page.row_count());
        for row in 0..page.row_count() {
            baseline_encode(block, row, &mut key);
            let id = match map.get(key.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = map.len() as u32;
                    map.insert(key.clone(), id);
                    key_builder.append_from(block, row);
                    id
                }
            };
            ids.push(id);
        }
    }
    let total: usize = pages.iter().map(Page::row_count).sum();
    KernelRun {
        rows: total,
        output_rows: map.len(),
        elapsed: start.elapsed(),
    }
}

/// The engine's group-by kernel: the flat table, with hash-equal candidates
/// checked against the typed group-key columns, which are also its output.
pub fn flat_group_by(pages: &[Page]) -> KernelRun {
    let start = Instant::now();
    let mut hash = GroupByHash::new(vec![0], vec![DataType::Bigint]);
    for page in pages {
        let _ = hash.group_ids(page);
    }
    let total: usize = pages.iter().map(Page::row_count).sum();
    KernelRun {
        rows: total,
        output_rows: hash.group_count(),
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn baseline_and_flat_kernels_agree() {
        for encoding in [KeyEncoding::Flat, KeyEncoding::Dictionary, KeyEncoding::Rle] {
            let build = make_pages(2_000, 64, KeyEncoding::Flat);
            let probe = make_pages(3_000, 64, encoding);
            let a = baseline_join(&build, &probe);
            let b = flat_join(&build, &probe);
            assert_eq!(a.output_rows, b.output_rows, "{encoding:?} join output");
            let g1 = baseline_group_by(&probe);
            let g2 = flat_group_by(&probe);
            assert_eq!(g1.output_rows, g2.output_rows, "{encoding:?} group count");
        }
    }
}
