//! The published build side: one partition per radix slot, each a page of
//! build rows with its flat hash table or a spilled run, plus the batched
//! chain walk every probe path uses.

use presto_common::DataType;
use presto_page::blocks::{flat, Lanes, NullMask};
use presto_page::{Block, BoolBlock, DoubleBlock, LongBlock, Page, PhysicalType, VarcharBlock};

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
        // Stage 3: verify keys, one typed pass per key column. Stage 1
        // skipped NULL probe keys and the build holds none, so the lanes
        // compare directly with SQL `=`: doubles by `==` (-0.0 = 0.0, NaN
        // matches nothing), varchars by bytes.
        for (&c, key) in self.key_channels.iter().zip(keys) {
            match key.physical_type() {
                PhysicalType::Long => self.keep_equal::<LongBlock>(&mut found, c, key, &row_of),
                PhysicalType::Double => self.keep_equal::<DoubleBlock>(&mut found, c, key, &row_of),
                PhysicalType::Bool => self.keep_equal::<BoolBlock>(&mut found, c, key, &row_of),
                PhysicalType::Varchar => {
                    let loaded = key.loaded();
                    let decoded = (!matches!(loaded, Block::Varchar(_))).then(|| loaded.decode());
                    let probe = varchar_cells(decoded.as_ref().unwrap_or(loaded));
                    let build = self.column(c, varchar_cells);
                    found.retain(|&(i, (p, row))| {
                        cell(build[p as usize], row as usize) == cell(probe, row_of(i))
                    });
                }
            }
        }
        found
    }

    /// Keep the matches whose build key lane in column `c` equals the
    /// probe key's lane at `row_of(i)`.
    fn keep_equal<L: Lanes>(
        &self,
        found: &mut Vec<(u32, (u32, u32))>,
        c: usize,
        key: &Block,
        row_of: impl Fn(u32) -> usize,
    ) where
        L::Lane: PartialEq,
    {
        let probe = flat::<L>(key);
        let probe = probe.lanes();
        let build = self.column(c, |b| build_lanes::<L>(b).lanes());
        found.retain(|&(i, (p, row))| build[p as usize][row as usize] == probe[row_of(i)]);
    }

    /// Build column `c` of every partition through `view`; a partition
    /// without rows (or spilled) gives the view's empty default.
    fn column<'a, T: Default>(&'a self, c: usize, view: impl Fn(&'a Block) -> T) -> Vec<T> {
        let pages = self.pages.iter();
        pages
            .map(|page| page.blocks().get(c).map_or_else(T::default, &view))
            .collect()
    }

    /// The build rows at `addrs`, as one flat page of `types`: each column
    /// filled in one typed loop over the `(partition, row)` addresses.
    pub(super) fn gather(&self, addrs: &[(u32, u32)], types: &[DataType]) -> Page {
        if types.is_empty() {
            return Page::zero_column(addrs.len());
        }
        let blocks = types
            .iter()
            .enumerate()
            .map(|(c, &t)| match PhysicalType::of(t) {
                PhysicalType::Long => self.gather_lanes::<LongBlock>(c, addrs),
                PhysicalType::Double => self.gather_lanes::<DoubleBlock>(c, addrs),
                PhysicalType::Bool => self.gather_lanes::<BoolBlock>(c, addrs),
                PhysicalType::Varchar => {
                    let build = self.column(c, varchar_cells);
                    let mut offsets = Vec::with_capacity(addrs.len() + 1);
                    let mut bytes = Vec::new();
                    offsets.push(0);
                    for &(p, row) in addrs {
                        bytes.extend_from_slice(cell(build[p as usize], row as usize));
                        offsets.push(bytes.len() as u32);
                    }
                    let nulls = self.gather_nulls(c, addrs, varchar_nulls);
                    Block::Varchar(VarcharBlock {
                        offsets,
                        bytes,
                        nulls,
                    })
                }
            });
        Page::new(blocks.collect())
    }

    fn gather_lanes<L: Lanes>(&self, c: usize, addrs: &[(u32, u32)]) -> Block {
        let build = self.column(c, |b| build_lanes::<L>(b).lanes());
        let values = addrs
            .iter()
            .map(|&(p, row)| build[p as usize][row as usize]);
        let nulls = self.gather_nulls(c, addrs, |b| build_lanes::<L>(b).null_mask());
        L::build(values.collect(), nulls)
    }

    /// The NULL mask of column `c` (each partition's read by `mask_of`)
    /// at `addrs`; `None` when no gathered cell is NULL.
    fn gather_nulls<'a>(
        &'a self,
        c: usize,
        addrs: &[(u32, u32)],
        mask_of: impl Fn(&'a Block) -> &'a NullMask,
    ) -> NullMask {
        let masks = self.column(c, |b| mask_of(b).as_deref());
        if masks.iter().all(Option::is_none) {
            return None;
        }
        let nulls: Vec<bool> = addrs
            .iter()
            .map(|&(p, row)| masks[p as usize].is_some_and(|m| m[row as usize]))
            .collect();
        nulls.contains(&true).then_some(nulls)
    }
}

/// A flat build column as its lanes. Build pages are flat
/// ([`BuildInput::build`](super::partition::BuildInput::build) decodes them).
fn build_lanes<L: Lanes>(block: &Block) -> &L {
    L::of(block).expect("build pages are flat")
}

fn varchar_nulls(block: &Block) -> &NullMask {
    match block {
        Block::Varchar(b) => &b.nulls,
        _ => unreachable!("build pages are flat"),
    }
}

/// A flat varchar column as its offsets and bytes.
fn varchar_cells(block: &Block) -> (&[u32], &[u8]) {
    match block {
        Block::Varchar(b) => (&b.offsets, &b.bytes),
        _ => unreachable!("build pages are flat"),
    }
}

/// The bytes of string `i` of a varchar column.
#[inline]
fn cell<'a>((offsets, bytes): (&[u32], &'a [u8]), i: usize) -> &'a [u8] {
    &bytes[offsets[i] as usize..offsets[i + 1] as usize]
}
