//! Dictionary-aware row hashing.
//!
//! Hash computation underlies shuffles (hash partitioning), hash joins and
//! hash aggregations. Per §V-E the engine exploits block structure: for a
//! dictionary block the hash of each distinct dictionary entry is computed
//! once and looked up per row; for an RLE block the single value is hashed
//! once for the whole run. The [`DictionaryHashCache`] reproduces the
//! paper's "records hash table locations for every dictionary entry in an
//! array … when successive blocks share the same dictionary, the page
//! processor retains the array".

use crate::block::{Block, PhysicalType};
use crate::blocks::NullMask;

/// Seed for combining multiple columns into one row hash.
const COLUMN_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
/// Hash used for NULL cells; any fixed odd constant works.
pub const NULL_HASH: u64 = 0x7FFF_FFFF_FFFF_FFC5;

#[inline]
fn mix(mut h: u64) -> u64 {
    // Stafford variant 13 of the splitmix64 finalizer: fast, well mixed.
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[inline]
pub fn hash_i64(v: i64) -> u64 {
    mix(v as u64)
}

#[inline]
pub fn hash_f64(v: f64) -> u64 {
    // Normalize -0.0 to 0.0 so equal SQL values hash equally.
    let v = if v == 0.0 { 0.0 } else { v };
    mix(v.to_bits())
}

#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    // FNV-1a, then mixed; strings on the hash path are short (keys).
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix(h)
}

/// Hash a single cell of a flat-decodable block.
pub fn hash_cell(block: &Block, i: usize) -> u64 {
    if block.is_null(i) {
        return NULL_HASH;
    }
    match block.physical_type() {
        PhysicalType::Long => hash_i64(block.i64_at(i)),
        PhysicalType::Double => hash_f64(block.f64_at(i)),
        PhysicalType::Bool => hash_i64(block.bool_at(i) as i64),
        PhysicalType::Varchar => hash_bytes(block.str_at(i).as_bytes()),
    }
}

/// Per-dictionary memo of entry hashes, reused while consecutive blocks
/// share the same dictionary (§V-E).
#[derive(Debug, Default)]
pub struct DictionaryHashCache {
    dictionary_id: u64,
    entry_hashes: Vec<u64>,
}

impl DictionaryHashCache {
    pub fn new() -> Self {
        Self::default()
    }

    fn entries_for(&mut self, dict_block: &crate::blocks::DictionaryBlock) -> &[u64] {
        if self.dictionary_id != dict_block.dictionary_id || self.entry_hashes.is_empty() {
            let dict = &dict_block.dictionary;
            self.entry_hashes = (0..dict.len()).map(|i| hash_cell(dict, i)).collect();
            self.dictionary_id = dict_block.dictionary_id;
        }
        &self.entry_hashes
    }

    /// Number of cached entries (observability / tests).
    pub fn cached_entries(&self) -> usize {
        self.entry_hashes.len()
    }
}

/// Combine the hash of `block` into `hashes` (one slot per row), exploiting
/// RLE and dictionary structure. `cache` carries dictionary memos across
/// calls.
pub fn hash_block_into(block: &Block, hashes: &mut [u64], cache: &mut DictionaryHashCache) {
    assert_eq!(block.len(), hashes.len());
    match block.loaded() {
        Block::Rle(rle) => {
            // One hash for the whole run.
            let h = hash_cell(&rle.value, 0);
            for slot in hashes.iter_mut() {
                *slot = combine(*slot, h);
            }
        }
        Block::Dictionary(d) => {
            let entries = cache.entries_for(d);
            for (slot, &id) in hashes.iter_mut().zip(&d.ids) {
                *slot = combine(*slot, entries[id as usize]);
            }
        }
        Block::Long(b) => fold_cells(hashes, b.values.iter().copied(), &b.nulls, hash_i64),
        Block::Double(b) => fold_cells(hashes, b.values.iter().copied(), &b.nulls, hash_f64),
        Block::Bool(b) => fold_cells(hashes, b.values.iter(), &b.nulls, |&v| hash_i64(v as i64)),
        Block::Varchar(b) => fold_cells(hashes, b.offsets.windows(2), &b.nulls, |w| {
            hash_bytes(&b.bytes[w[0] as usize..w[1] as usize])
        }),
        Block::Lazy(_) => unreachable!("loaded() resolves lazy blocks"),
    }
}

/// Fold one flat block's cell hashes into `hashes` in one typed loop:
/// `hash` of each non-NULL cell, [`NULL_HASH`] for a NULL one — bit for
/// bit what [`hash_cell`] gives.
#[inline]
fn fold_cells<T>(
    hashes: &mut [u64],
    cells: impl Iterator<Item = T>,
    nulls: &NullMask,
    hash: impl Fn(T) -> u64,
) {
    match nulls {
        None => {
            for (slot, cell) in hashes.iter_mut().zip(cells) {
                *slot = combine(*slot, hash(cell));
            }
        }
        Some(mask) => {
            for ((slot, cell), &null) in hashes.iter_mut().zip(cells).zip(mask) {
                *slot = combine(*slot, if null { NULL_HASH } else { hash(cell) });
            }
        }
    }
}

/// Fold one cell hash into a row-hash accumulator (start from 0). Exposed
/// so single-key fast paths (RLE/dictionary probes) can reproduce exactly
/// what [`hash_columns`] computes for one channel.
#[inline]
pub fn combine_hashes(acc: u64, h: u64) -> u64 {
    mix(acc.wrapping_mul(COLUMN_SEED) ^ h)
}

#[inline]
fn combine(acc: u64, h: u64) -> u64 {
    combine_hashes(acc, h)
}

/// Hash the given columns of a page into one u64 per row.
pub fn hash_columns(page: &crate::page::Page, channels: &[usize]) -> Vec<u64> {
    let mut cache = DictionaryHashCache::new();
    hash_columns_cached(page, channels, &mut cache)
}

/// Like [`hash_columns`], but with a caller-retained [`DictionaryHashCache`]
/// so operators that see many pages sharing one dictionary (§V-E) hash each
/// dictionary entry once per dictionary, not once per page.
pub fn hash_columns_cached(
    page: &crate::page::Page,
    channels: &[usize],
    cache: &mut DictionaryHashCache,
) -> Vec<u64> {
    let mut hashes = vec![0u64; page.row_count()];
    for &c in channels {
        hash_block_into(page.block(c), &mut hashes, cache);
    }
    hashes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{DictionaryBlock, LongBlock, VarcharBlock};
    use crate::page::Page;
    use presto_common::{DataType, Value};
    use std::sync::Arc;

    #[test]
    fn equal_rows_hash_equal_across_encodings() {
        // "COD" as flat varchar vs via dictionary must hash identically.
        let flat = Block::from(VarcharBlock::from_strs(&["COD", "NONE"]));
        let dict = Arc::new(Block::from(VarcharBlock::from_strs(&["NONE", "COD"])));
        let encoded = Block::Dictionary(DictionaryBlock::new(dict, vec![1, 0]));
        let mut cache = DictionaryHashCache::new();
        let mut h1 = vec![0u64; 2];
        let mut h2 = vec![0u64; 2];
        hash_block_into(&flat, &mut h1, &mut cache);
        hash_block_into(&encoded, &mut h2, &mut cache);
        assert_eq!(h1, h2);
    }

    #[test]
    fn rle_hash_matches_flat() {
        let rle = Block::rle(Block::from(LongBlock::from_values(vec![5])), 3);
        let flat = Block::from(LongBlock::from_values(vec![5, 5, 5]));
        let mut cache = DictionaryHashCache::new();
        let mut h1 = vec![0u64; 3];
        let mut h2 = vec![0u64; 3];
        hash_block_into(&rle, &mut h1, &mut cache);
        hash_block_into(&flat, &mut h2, &mut cache);
        assert_eq!(h1, h2);
    }

    #[test]
    fn dictionary_cache_reused_across_blocks() {
        let dict = Arc::new(Block::from(VarcharBlock::from_strs(&["a", "b", "c"])));
        let b1 = Block::Dictionary(DictionaryBlock::new(Arc::clone(&dict), vec![0, 1]));
        let b2 = Block::Dictionary(DictionaryBlock::new(Arc::clone(&dict), vec![2, 2]));
        let mut cache = DictionaryHashCache::new();
        let mut h = vec![0u64; 2];
        hash_block_into(&b1, &mut h, &mut cache);
        let id = match (&b1, &b2) {
            (Block::Dictionary(x), Block::Dictionary(y)) => {
                assert_eq!(x.dictionary_id, y.dictionary_id);
                x.dictionary_id
            }
            _ => unreachable!(),
        };
        assert_eq!(cache.dictionary_id, id);
        assert_eq!(cache.cached_entries(), 3);
    }

    #[test]
    fn multi_column_hash_is_order_sensitive() {
        let schema = presto_common::Schema::of(&[("a", DataType::Bigint), ("b", DataType::Bigint)]);
        let p = Page::from_rows(&schema, &[vec![Value::Bigint(1), Value::Bigint(2)]]);
        let h_ab = hash_columns(&p, &[0, 1]);
        let h_ba = hash_columns(&p, &[1, 0]);
        assert_ne!(h_ab, h_ba);
    }

    #[test]
    fn nulls_hash_consistently() {
        let b = Block::from_values(DataType::Bigint, &[Value::Null, Value::Null]);
        let mut cache = DictionaryHashCache::new();
        let mut h = vec![0u64; 2];
        hash_block_into(&b, &mut h, &mut cache);
        assert_eq!(h[0], h[1]);
    }

    #[test]
    fn negative_zero_matches_zero() {
        assert_eq!(hash_f64(0.0), hash_f64(-0.0));
    }
}
