//! The published build side: one partition per radix slot, each a page of
//! build rows with its flat hash table or a spilled run, plus the batched
//! chain walk every probe path uses.

use presto_page::{Block, Page};

use super::partition::{radix, Partition};
use crate::flathash::FlatHashTable;

/// A partition as the finalize leaves it: its rows as one page with their
/// flat table, or a spilled run.
pub(super) type BuiltPartition = Partition<(Page, FlatHashTable)>;

/// The completed build side of a hash join.
pub struct JoinHashTable {
    /// Partition `p`'s build rows (empty when it spilled); a match is
    /// addressed `(p, row)`.
    pages: Vec<Page>,
    /// Partition `p`'s table: entry `i` describes row `i` of `pages[p]`.
    pub(super) partitions: Vec<Partition<FlatHashTable>>,
    partition_bits: u32,
    pub(super) key_channels: Vec<usize>,
}

impl JoinHashTable {
    pub(super) fn new(partitions: Vec<BuiltPartition>, key_channels: Vec<usize>) -> JoinHashTable {
        let partition_bits = partitions.len().trailing_zeros();
        let (pages, partitions) = partitions
            .into_iter()
            .map(|p| match p {
                Partition::Resident((page, table)) => (page, Partition::Resident(table)),
                Partition::Spilled(run) => (Page::empty(), Partition::Spilled(run)),
            })
            .unzip();
        JoinHashTable {
            pages,
            partitions,
            partition_bits,
            key_channels,
        }
    }

    /// Build rows held in memory (spilled partitions are not counted).
    pub fn row_count(&self) -> usize {
        self.pages.iter().map(Page::row_count).sum()
    }

    /// Did any build partition spill? Probes then divert its rows to disk.
    pub fn has_spill(&self) -> bool {
        self.partitions.iter().any(|p| p.resident().is_none())
    }

    /// Exact retained bytes: page data plus every partition's flat-table
    /// arrays.
    pub fn memory_bytes(&self) -> usize {
        self.pages.iter().map(Page::size_in_bytes).sum::<usize>() + self.hash_layout_bytes()
    }

    /// Bytes of hash-lookup structure (everything beyond the page data).
    pub fn hash_layout_bytes(&self) -> usize {
        let tables = self.partitions.iter().filter_map(Partition::resident);
        tables.map(FlatHashTable::memory_bytes).sum()
    }

    /// All resident build rows in partition order (cross joins,
    /// diagnostics).
    pub fn iter_rows(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let pages = self.pages.iter().enumerate();
        pages.flat_map(|(p, page)| (0..page.row_count() as u32).map(move |row| (p as u32, row)))
    }

    pub fn pages(&self) -> &[Page] {
        &self.pages
    }

    /// Matching build rows for a batch of probes: the one chain walk,
    /// shared by the general, dictionary and RLE probes. Probe `i` (unless
    /// `skip(i)`) has hash `hashes[i]` and its keys at row `row_of(i)` of
    /// `keys`; returns `(i, build address)` per match. The walk runs
    /// breadth-first — each round advances every live chain one step — so
    /// the cache misses of different rows overlap instead of chaining
    /// serially (head → entry → page data); keys are compared after it,
    /// since distinct keys can share a hash.
    pub(super) fn matches(
        &self,
        hashes: &[u64],
        skip: impl Fn(usize) -> bool,
        keys: &[&Block],
        row_of: impl Fn(u32) -> usize,
    ) -> Vec<(u32, (u32, u32))> {
        const EMPTY: u32 = FlatHashTable::EMPTY;
        let partition_of = |hash: u64| radix(hash, 0, self.partition_bits);
        // Stage 1: bucket heads.
        let mut cursors: Vec<(u32, u32)> = Vec::with_capacity(hashes.len());
        for (i, &hash) in hashes.iter().enumerate() {
            if skip(i) {
                continue;
            }
            let i = i as u32;
            if let Partition::Resident(table) = &self.partitions[partition_of(hash)] {
                let head = table.head(hash);
                if head != EMPTY {
                    cursors.push((i, head));
                }
            }
        }
        // Stage 2: walk all live chains one step per round, collecting
        // hash-equal entries.
        let mut found = Vec::new();
        let mut next_round: Vec<(u32, u32)> = Vec::with_capacity(cursors.len() / 4 + 1);
        while !cursors.is_empty() {
            next_round.clear();
            for &(i, e) in &cursors {
                let hash = hashes[i as usize];
                let p = partition_of(hash);
                let Partition::Resident(table) = &self.partitions[p] else {
                    continue;
                };
                let (stored, next) = table.entry_at(e);
                if stored == hash {
                    found.push((i, (p as u32, e)));
                }
                if next != EMPTY {
                    next_round.push((i, next));
                }
            }
            std::mem::swap(&mut cursors, &mut next_round);
        }
        // Stage 3: verify keys.
        found.retain(|&(i, (p, row))| {
            let build_keys = self
                .key_channels
                .iter()
                .map(|&c| self.pages[p as usize].block(c));
            build_keys
                .zip(keys)
                .all(|(b, k)| b.eq_at(row as usize, k, row_of(i)))
        });
        found
    }
}
