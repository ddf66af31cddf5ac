//! Coalescing page partitioner for hash-routed shuffle output, and the
//! per-partition [`PageBuffer`] it shares with the hash-join build.
//!
//! The naive hash route shatters every input page into up to `consumers`
//! fragments and serializes each immediately, so downstream operators see
//! pages of `rows / consumers` rows — at 64 consumers, slivers. The
//! [`PagePartitioner`] instead scatters rows into per-partition
//! [`BlockBuilder`]s that accumulate *across* input pages and flush only at
//! a target row/byte size, so the wire carries full-size pages again and
//! the per-page costs (frame header, serialization setup, downstream
//! dispatch) amortize (§IV-E2; PAPERS.md identifies the exchange and
//! serialization path as the dominant overhead once operators are fast).
//!
//! One encoding-aware hash pass per page ([`hash_columns_cached`] reuses
//! dictionary entry hashes and hashes RLE runs once), then a selection-
//! vector scatter per destination. Two fast paths skip row copies:
//! RLE-keyed pages route whole to one partition, and any single-destination
//! page that is already target-size passes through untouched.

use presto_page::hash::{hash_columns_cached, DictionaryHashCache};
use presto_page::{BlockBuilder, Page};

/// One partition's coalescing buffer: rows scattered out of input pages
/// accumulate here, one [`BlockBuilder`] per column, until a page's worth
/// is ready.
#[derive(Default)]
pub struct PageBuffer {
    /// Empty until the first rows reveal the physical column types.
    columns: Vec<BlockBuilder>,
    rows: usize,
}

impl PageBuffer {
    /// Append the rows of `page` at `positions`; `capacity` pre-sizes the
    /// builders of an empty buffer.
    pub fn append(&mut self, page: &Page, positions: &[u32], capacity: usize) {
        if self.columns.is_empty() {
            self.columns = page
                .blocks()
                .iter()
                .map(|b| BlockBuilder::for_physical(b.physical_type(), capacity))
                .collect();
        }
        for (column, block) in self.columns.iter_mut().zip(page.blocks()) {
            column.append_filtered(block, positions);
        }
        self.rows += positions.len();
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bytes retained, for §IV-F2 memory accounting.
    pub fn bytes(&self) -> usize {
        self.columns.iter().map(BlockBuilder::size_in_bytes).sum()
    }

    /// The buffered rows as one page, emptying the buffer.
    pub fn take(&mut self) -> Option<Page> {
        let rows = std::mem::take(&mut self.rows);
        let columns = std::mem::take(&mut self.columns);
        match rows {
            0 => None,
            _ if columns.is_empty() => Some(Page::zero_column(rows)),
            _ => Some(Page::new(
                columns.into_iter().map(BlockBuilder::finish).collect(),
            )),
        }
    }
}

/// Scatters input pages into per-partition accumulators; yields
/// `(partition, page)` pairs as accumulators reach the target size.
pub struct PagePartitioner {
    channels: Vec<usize>,
    consumers: usize,
    /// Flush a partition's accumulator at this many rows…
    target_rows: usize,
    /// …or this many retained bytes, whichever comes first.
    target_bytes: usize,
    buffers: Vec<PageBuffer>,
    /// Reused per-partition selection vectors (cleared each page).
    positions: Vec<Vec<u32>>,
    /// Dictionary hash memo, persistent across pages from the same source.
    cache: DictionaryHashCache,
}

impl PagePartitioner {
    pub fn new(
        channels: Vec<usize>,
        consumers: usize,
        target_rows: usize,
        target_bytes: usize,
    ) -> PagePartitioner {
        assert!(consumers > 0, "partitioner needs at least one consumer");
        PagePartitioner {
            channels,
            consumers,
            target_rows: target_rows.max(1),
            target_bytes: target_bytes.max(1),
            buffers: (0..consumers).map(|_| PageBuffer::default()).collect(),
            positions: vec![Vec::new(); consumers],
            cache: DictionaryHashCache::new(),
        }
    }

    /// Route one input page. Returns the partitions whose accumulators
    /// crossed the flush threshold, as ready-to-enqueue pages.
    pub fn route(&mut self, page: Page) -> Vec<(usize, Page)> {
        if page.is_empty() {
            return Vec::new();
        }
        if self.consumers == 1 || page.column_count() == 0 {
            // Degenerate routes: nothing to scatter, forward whole pages.
            return vec![(0, page)];
        }
        let hashes = hash_columns_cached(&page, &self.channels, &mut self.cache);
        for v in &mut self.positions {
            v.clear();
        }
        for (i, h) in hashes.iter().enumerate() {
            self.positions[(h % self.consumers as u64) as usize].push(i as u32);
        }
        // Single-destination page (RLE keys, or skewed/pre-partitioned
        // data): if the destination is empty and the page already meets the
        // target, pass it through without touching a row.
        let rows = page.row_count();
        if let Some(only) = self.positions.iter().position(|v| v.len() == rows) {
            if self.buffers[only].rows() == 0 && rows * 2 >= self.target_rows {
                return vec![(only, page)];
            }
        }
        let capacity = self.target_rows.min(64 * 1024);
        let mut flushed = Vec::new();
        for (p, buffer) in self.buffers.iter_mut().enumerate() {
            if self.positions[p].is_empty() {
                continue;
            }
            buffer.append(&page, &self.positions[p], capacity);
            if buffer.rows() >= self.target_rows || buffer.bytes() >= self.target_bytes {
                flushed.extend(buffer.take().map(|out| (p, out)));
            }
        }
        flushed
    }

    /// Flush every non-empty accumulator (end of input).
    pub fn finish(&mut self) -> Vec<(usize, Page)> {
        let buffers = self.buffers.iter_mut().enumerate();
        buffers
            .filter_map(|(p, b)| b.take().map(|page| (p, page)))
            .collect()
    }

    /// Bytes retained across all accumulators, for §IV-F2 memory accounting.
    pub fn retained_bytes(&self) -> usize {
        self.buffers.iter().map(PageBuffer::bytes).sum()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::{DataType, Schema, Value};
    use presto_page::{Block, DictionaryBlock, LongBlock, VarcharBlock};
    use std::sync::Arc;

    fn key_page(keys: &[i64]) -> Page {
        let schema = Schema::of(&[("k", DataType::Bigint)]);
        Page::from_rows(
            &schema,
            &keys
                .iter()
                .map(|&k| vec![Value::Bigint(k)])
                .collect::<Vec<_>>(),
        )
    }

    fn drain_rows(parts: Vec<(usize, Page)>) -> usize {
        parts.iter().map(|(_, p)| p.row_count()).sum()
    }

    #[test]
    fn coalesces_small_pages_into_target_sized_flushes() {
        let mut part = PagePartitioner::new(vec![0], 4, 100, usize::MAX);
        let mut flushed = 0usize;
        let mut fed = 0usize;
        // 50 pages of 20 rows: naive routing would emit ~200 fragments of
        // ~5 rows; coalescing emits ~10 pages of ~100 rows.
        let mut emitted_pages = 0usize;
        for i in 0..50 {
            let page = key_page(&(0..20).map(|j| i * 20 + j).collect::<Vec<_>>());
            fed += page.row_count();
            let out = part.route(page);
            for (_, p) in &out {
                assert!(
                    p.row_count() >= 100,
                    "flushes must be at least target-sized"
                );
            }
            emitted_pages += out.len();
            flushed += drain_rows(out);
        }
        let tail = part.finish();
        emitted_pages += tail.len();
        flushed += drain_rows(tail);
        assert_eq!(flushed, fed, "no rows lost or duplicated");
        assert!(
            emitted_pages <= 14,
            "got {emitted_pages} pages for {fed} rows"
        );
        assert_eq!(part.retained_bytes(), 0);
    }

    /// 160 000 rows in 128-row pages, spread over 4, 16 and 64 consumers:
    /// the pages delivered average at least half the 1 024-row target, and
    /// every row arrives once.
    #[test]
    fn coalesced_pages_average_at_least_half_the_target() {
        let target = 1024;
        let pages: Vec<Page> = (0..1250i64)
            .map(|p| {
                Page::new(vec![Block::from(LongBlock::from_values(
                    (0..128).map(|r| p * 128 + r).collect(),
                ))])
            })
            .collect();
        for consumers in [4, 16, 64] {
            let mut part = PagePartitioner::new(vec![0], consumers, target, usize::MAX);
            let mut out: Vec<(usize, Page)> = Vec::new();
            for page in &pages {
                out.extend(part.route(page.clone()));
            }
            out.extend(part.finish());
            let delivered = out.len();
            let rows = drain_rows(out);
            assert_eq!(rows, 160_000, "{consumers} consumers");
            let mean = rows / delivered;
            assert!(
                mean >= target / 2,
                "{consumers} consumers: mean {mean} rows per page"
            );
        }
    }

    #[test]
    fn routing_matches_naive_hash_partitioning() {
        use presto_page::hash::hash_columns;
        let consumers = 4;
        let page = key_page(&(0..257).collect::<Vec<_>>());
        let hashes = hash_columns(&page, &[0]);
        let mut part = PagePartitioner::new(vec![0], consumers, 8, usize::MAX);
        let mut out = part.route(page.clone());
        out.extend(part.finish());
        // Every value lands in the partition its hash names.
        for (p, flushed) in &out {
            for row in 0..flushed.row_count() {
                let v = flushed.block(0).i64_at(row);
                let expected = (hashes[v as usize] % consumers as u64) as usize;
                assert_eq!(*p, expected, "value {v} in wrong partition");
            }
        }
        assert_eq!(out.iter().map(|(_, p)| p.row_count()).sum::<usize>(), 257);
    }

    #[test]
    fn rle_keys_pass_through_without_rebuild() {
        // A page whose key column is RLE hashes identically for every row →
        // single destination; a big page passes through structurally intact.
        let page = Page::new(vec![Block::rle(
            Block::from(LongBlock::from_values(vec![42])),
            1000,
        )]);
        let mut part = PagePartitioner::new(vec![0], 8, 100, usize::MAX);
        let out = part.route(page);
        assert_eq!(out.len(), 1);
        let (_, routed) = &out[0];
        assert!(
            matches!(routed.block(0), Block::Rle(_)),
            "pass-through must preserve the RLE encoding"
        );
        assert_eq!(routed.row_count(), 1000);
        assert!(part.finish().is_empty());
    }

    #[test]
    fn dictionary_and_varchar_columns_scatter_correctly() {
        let dict = Arc::new(Block::from(VarcharBlock::from_strs(&["x", "yy", "zzz"])));
        let keys: Vec<i64> = (0..30).collect();
        let page = Page::new(vec![
            Block::from(LongBlock::from_values(keys.clone())),
            Block::Dictionary(DictionaryBlock::new(
                dict,
                (0..30u32).map(|i| i % 3).collect(),
            )),
        ]);
        let mut part = PagePartitioner::new(vec![0], 3, 1000, usize::MAX);
        part.route(page);
        let out = part.finish();
        let mut seen = 0;
        for (_, p) in &out {
            for row in 0..p.row_count() {
                let k = p.block(0).i64_at(row);
                assert_eq!(p.block(1).str_at(row), ["x", "yy", "zzz"][(k % 3) as usize]);
                seen += 1;
            }
        }
        assert_eq!(seen, 30);
    }

    #[test]
    fn byte_target_also_triggers_flush() {
        let mut part = PagePartitioner::new(vec![0], 2, usize::MAX, 256);
        let mut total = 0usize;
        let mut out = Vec::new();
        for i in 0..20 {
            let page = key_page(&(0..16).map(|j| i * 16 + j).collect::<Vec<_>>());
            total += page.row_count();
            out.extend(part.route(page));
        }
        assert!(!out.is_empty(), "byte threshold must flush before finish");
        out.extend(part.finish());
        assert_eq!(drain_rows(out), total);
    }
}
