//! Shared vectorized flat hash-table layout for the join and aggregation
//! kernels (§V-E).
//!
//! The paper's hottest loops — hash-join probe and group-by lookup — win by
//! avoiding per-key allocations: the table is a power-of-two bucket array
//! (`heads`) over one flat entry array. Every entry stores its full 64-bit
//! hash next to its chain link, so each chain step costs a single random
//! memory access and skips non-matching entries with one integer compare
//! before any key comparison runs. Collisions chain through `next` (array
//! chaining), so inserting N keys costs N appends to two flat vectors — no
//! `Vec<u32>` per key, no node allocations.
//!
//! The table holds hashes only. Each user keeps its keys as typed columns
//! indexed by entry — the join its build pages, the group-by its group-key
//! columns — and checks hash-equal candidates against them on their lanes.

/// Sentinel for "no entry" in `heads` / `next`.
const EMPTY: u32 = u32::MAX;

/// Minimum bucket count (power of two).
const MIN_BUCKETS: usize = 16;

/// One table entry: the stored hash and the chain link, interleaved so a
/// chain walk touches one cache line per step.
#[derive(Debug, Clone, Copy)]
struct Entry {
    hash: u64,
    /// Next entry in the same bucket, `EMPTY` at chain end.
    next: u32,
}

/// A flat, append-only hash table: entries are dense indices `0..len`, each
/// with a stored 64-bit hash, chained per bucket through flat arrays.
#[derive(Debug, Default)]
pub struct FlatHashTable {
    /// Bucket array (power-of-two length); holds the entry index of the
    /// chain head or `EMPTY`.
    heads: Vec<u32>,
    /// Entry index → (stored hash, chain link).
    entries: Vec<Entry>,
}

impl FlatHashTable {
    /// Public sentinel for "no entry", for callers driving batched
    /// (breadth-first) chain walks through [`head`](Self::head) /
    /// [`entry_at`](Self::entry_at).
    pub const EMPTY: u32 = EMPTY;

    pub fn new() -> FlatHashTable {
        FlatHashTable::with_capacity(0)
    }

    /// A table pre-sized for `entries` insertions without rehashing.
    pub fn with_capacity(entries: usize) -> FlatHashTable {
        let buckets = Self::buckets_for(entries);
        FlatHashTable {
            heads: vec![EMPTY; buckets],
            entries: Vec::with_capacity(entries),
        }
    }

    fn buckets_for(entries: usize) -> usize {
        // Keep the load factor under 3/4 so chains stay short.
        ((entries * 4 / 3).max(MIN_BUCKETS)).next_power_of_two()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Exact retained bytes (memory-arbitration accounting).
    pub fn memory_bytes(&self) -> usize {
        self.heads.capacity() * 4 + self.entries.capacity() * std::mem::size_of::<Entry>()
    }

    #[inline]
    fn bucket(&self, hash: u64) -> usize {
        // Buckets index by the mixed low bits; partitioned layouts use the
        // *high* bits to pick a partition, so the two never alias.
        (hash as usize) & (self.heads.len() - 1)
    }

    /// Append a new entry with `hash`, returning its dense entry index.
    /// The caller owns the mapping from entry index to payload (a build-row
    /// address, a group id, …).
    #[inline]
    pub fn insert(&mut self, hash: u64) -> u32 {
        if self.entries.len() * 4 >= self.heads.len() * 3 {
            self.grow();
        }
        let entry = self.entries.len() as u32;
        let bucket = self.bucket(hash);
        self.entries.push(Entry {
            hash,
            next: self.heads[bucket],
        });
        self.heads[bucket] = entry;
        entry
    }

    /// All entries whose stored hash equals `hash`, newest first. Callers
    /// must still verify key equality — distinct keys can share a hash.
    #[inline]
    pub fn probe(&self, hash: u64) -> ProbeIter<'_> {
        ProbeIter {
            table: self,
            hash,
            entry: self.heads[self.bucket(hash)],
        }
    }

    /// First entry matching `hash` for which `eq` holds.
    #[inline]
    pub fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        self.probe(hash).find(|&e| eq(e))
    }

    /// The first entry matching `hash` for which `eq` holds, else a new
    /// entry with `hash`; `true` when the entry is new.
    #[inline]
    pub fn find_or_insert(&mut self, hash: u64, eq: impl FnMut(u32) -> bool) -> (u32, bool) {
        match self.find(hash, eq) {
            Some(e) => (e, false),
            None => (self.insert(hash), true),
        }
    }

    /// Chain-head entry index for `hash`'s bucket ([`Self::EMPTY`] if the
    /// bucket is empty). With [`entry_at`](Self::entry_at) this lets batch
    /// probes walk many chains breadth-first, so the per-step cache misses
    /// of different rows overlap instead of serializing.
    #[inline]
    pub fn head(&self, hash: u64) -> u32 {
        self.heads[self.bucket(hash)]
    }

    /// `(stored hash, next link)` of entry `e`.
    #[inline]
    pub fn entry_at(&self, e: u32) -> (u64, u32) {
        let slot = self.entries[e as usize];
        (slot.hash, slot.next)
    }

    fn grow(&mut self) {
        let buckets = (self.heads.len() * 2).max(MIN_BUCKETS);
        self.heads.clear();
        self.heads.resize(buckets, EMPTY);
        // Relink every entry; chains rebuild in reverse insertion order,
        // which preserves the newest-first probe order.
        for (i, e) in self.entries.iter_mut().enumerate() {
            let bucket = (e.hash as usize) & (buckets - 1);
            e.next = self.heads[bucket];
            self.heads[bucket] = i as u32;
        }
    }
}

/// Iterator over hash-matching entries of one bucket chain.
pub struct ProbeIter<'a> {
    table: &'a FlatHashTable,
    hash: u64,
    entry: u32,
}

impl Iterator for ProbeIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.entry != EMPTY {
            let e = self.entry;
            let slot = self.table.entries[e as usize];
            self.entry = slot.next;
            if slot.hash == self.hash {
                return Some(e);
            }
        }
        None
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_probe_round_trip() {
        let mut t = FlatHashTable::new();
        let keys: Vec<u64> = (0..1000).map(|i| i * 0x9E37_79B9).collect();
        for &k in &keys {
            t.insert(k);
        }
        assert_eq!(t.len(), 1000);
        for (i, &k) in keys.iter().enumerate() {
            let found: Vec<u32> = t.probe(k).collect();
            assert!(found.contains(&(i as u32)), "entry {i} reachable");
        }
    }

    #[test]
    fn equal_hashes_chain_and_stay_distinct() {
        let mut t = FlatHashTable::new();
        // Three entries with an identical hash must all surface on probe.
        let h = 0xDEAD_BEEF_u64;
        let a = t.insert(h);
        let b = t.insert(h);
        let c = t.insert(h);
        let found: Vec<u32> = t.probe(h).collect();
        assert_eq!(found, vec![c, b, a], "newest first, all present");
        // find() resolves by caller-side equality, not by hash alone.
        assert_eq!(t.find(h, |e| e == b), Some(b));
        assert_eq!(t.find(h, |_| false), None);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut t = FlatHashTable::with_capacity(4);
        for i in 0..10_000u64 {
            t.insert(i.wrapping_mul(0x100_0000_01B3));
        }
        for i in 0..10_000u64 {
            let h = i.wrapping_mul(0x100_0000_01B3);
            assert!(t.probe(h).next().is_some(), "entry {i} survives growth");
        }
    }

    #[test]
    fn probe_skips_different_hashes_in_same_bucket() {
        let mut t = FlatHashTable::with_capacity(4);
        // Same bucket (low bits equal), different full hashes.
        let h1 = 0x0000_0000_0000_0001_u64;
        let h2 = 0x1000_0000_0000_0001_u64;
        t.insert(h1);
        t.insert(h2);
        assert_eq!(t.probe(h1).count(), 1);
        assert_eq!(t.probe(h2).count(), 1);
    }

    #[test]
    fn memory_bytes_reflects_capacity() {
        let t = FlatHashTable::with_capacity(100);
        let expected = t.heads.capacity() * 4 + t.entries.capacity() * std::mem::size_of::<Entry>();
        assert_eq!(t.memory_bytes(), expected);
        assert!(t.memory_bytes() >= 128 * 4 + 100 * 12);
    }
}
