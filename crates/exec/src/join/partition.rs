//! Radix partitioning of join rows by key hash, and the partition state
//! every stage of a hash join shares.
//!
//! A join's build side is cut into `2^bits` radix partitions by the top
//! bits of each row's key hash. Each partition is either resident in memory
//! or spilled to a run file; the in-memory join is simply the case where no
//! partition spilled. One scatter serves every caller: build ingest, probe
//! rows diverted to spilled partitions, and grace recursion (which splits a
//! partition by the next bits of the same hash).

use presto_page::{Block, Page};

use crate::flathash::FlatHashTable;
use crate::partitioned_output::PageBuffer;
use crate::spill::SpillRun;

/// The radix partition of `hash`: the `bits` bits below the top `consumed`
/// ones. Partitions use the *high* bits; the flat tables bucket by the low
/// bits, so the two never alias.
#[inline]
pub(super) fn radix(hash: u64, consumed: u32, bits: u32) -> usize {
    // Zero bits name the one partition (a shift by 64 would overflow).
    (hash << consumed).checked_shr(64 - bits).unwrap_or(0) as usize
}

/// The one radix scatter: clears `parts` (a power-of-two count), then
/// appends each row's position to the partition its key hash names below
/// the top `consumed` bits. Rows with a NULL key never join, so they go to
/// no partition; their positions are returned, in order.
pub(super) fn scatter(
    page: &Page,
    keys: &[usize],
    hashes: &[u64],
    consumed: u32,
    parts: &mut [Vec<u32>],
) -> Vec<u32> {
    let bits = parts.len().trailing_zeros();
    for rows in parts.iter_mut() {
        rows.clear();
    }
    let nullable = nullable_keys(page, keys);
    let mut nulls = Vec::new();
    for (row, &hash) in hashes.iter().enumerate() {
        if nullable.iter().any(|b| b.is_null(row)) {
            nulls.push(row as u32);
        } else {
            parts[radix(hash, consumed, bits)].push(row as u32);
        }
    }
    nulls
}

/// The key columns of `page` that can hold a NULL, decided once per page
/// from their encodings; when none can, no row needs a NULL check.
pub(super) fn nullable_keys<'a>(page: &'a Page, keys: &[usize]) -> Vec<&'a Block> {
    let blocks = keys.iter().map(|&c| page.block(c));
    blocks.filter(|b| b.may_hold_null()).collect()
}

/// One radix partition of a hash join's build side, from ingest through
/// probe: resident in memory, or spilled to a run file by a revocation.
/// The resident payload is the stage's own — build pages while the build
/// runs, a flat table once it is published.
pub(super) enum Partition<T> {
    Resident(T),
    Spilled(SpillRun),
}

impl<T> Partition<T> {
    pub(super) fn map<U>(self, f: impl FnOnce(T) -> U) -> Partition<U> {
        match self {
            Partition::Resident(t) => Partition::Resident(f(t)),
            Partition::Spilled(run) => Partition::Spilled(run),
        }
    }

    pub(super) fn resident(&self) -> Option<&T> {
        match self {
            Partition::Resident(t) => Some(t),
            Partition::Spilled(_) => None,
        }
    }
}

/// A resident partition's build input: its pages, each with one key hash
/// per row — or none, for a cross join, which never probes by hash.
#[derive(Default)]
pub(super) struct BuildInput {
    pub(super) pages: Vec<Page>,
    hashes: Vec<Vec<u64>>,
    /// Page bytes plus hash-vector bytes.
    pub(super) bytes: usize,
}

impl BuildInput {
    pub(super) fn push(&mut self, page: Page, hashes: Vec<u64>) {
        self.bytes += page.size_in_bytes() + hashes.capacity() * std::mem::size_of::<u64>();
        self.pages.push(page);
        self.hashes.push(hashes);
    }

    /// The one constructor of a partition's table, for the finalize and
    /// the grace leaf alike: the partition's rows as one flat page, and a
    /// flat hash table whose entry `i` describes row `i` of it (so a match
    /// is addressed by partition and entry). Dictionary, RLE and lazy
    /// columns are decoded here, once, so the probe's key check and gather
    /// read typed lanes. A cross join's table stays empty.
    pub(super) fn build(self) -> (Page, FlatHashTable) {
        let rows = self.pages.iter().map(Page::row_count).sum();
        let mut table = FlatHashTable::with_capacity(self.hashes.iter().map(Vec::len).sum());
        for hash in self.hashes.into_iter().flatten() {
            table.insert(hash);
        }
        let page = match <[Page; 1]>::try_from(self.pages) {
            Ok([page]) => page.into_flat(),
            Err(pages) => {
                let mut merged = PageBuffer::default();
                for page in &pages {
                    merged.append(
                        page,
                        &(0..page.row_count() as u32).collect::<Vec<_>>(),
                        rows,
                    );
                }
                merged.take().unwrap_or_else(Page::empty)
            }
        };
        (page, table)
    }
}
