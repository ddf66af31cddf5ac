//! Concrete block encodings.
//!
//! Flat blocks store values in plain vectors with an optional null mask
//! (absent when the column has no nulls, which keeps the common case
//! branch-light). Structured blocks — RLE, dictionary, lazy — wrap other
//! blocks, mirroring Fig. 5 of the paper.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::block::Block;

/// Optional null mask; `None` means "no nulls". `true` marks a NULL cell.
pub type NullMask = Option<Vec<bool>>;

fn mask_is_null(mask: &NullMask, i: usize) -> bool {
    mask.as_ref().is_some_and(|m| m[i])
}

fn filter_mask(mask: &NullMask, positions: &[u32]) -> NullMask {
    mask.as_ref().and_then(|m| {
        let filtered: Vec<bool> = positions.iter().map(|&p| m[p as usize]).collect();
        if filtered.iter().any(|&n| n) {
            Some(filtered)
        } else {
            None
        }
    })
}

/// Flat block of 64-bit integer lanes (bigint, date, timestamp).
#[derive(Debug, Clone, PartialEq)]
pub struct LongBlock {
    pub values: Vec<i64>,
    pub nulls: NullMask,
}

impl LongBlock {
    pub fn new(values: Vec<i64>, nulls: NullMask) -> Self {
        debug_assert!(nulls.as_ref().is_none_or(|m| m.len() == values.len()));
        LongBlock { values, nulls }
    }

    pub fn from_values(values: Vec<i64>) -> Self {
        LongBlock {
            values,
            nulls: None,
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn is_null(&self, i: usize) -> bool {
        mask_is_null(&self.nulls, i)
    }

    pub fn filter(&self, positions: &[u32]) -> LongBlock {
        LongBlock {
            values: positions.iter().map(|&p| self.values[p as usize]).collect(),
            nulls: filter_mask(&self.nulls, positions),
        }
    }

    pub fn size_in_bytes(&self) -> usize {
        self.values.len() * 8 + self.nulls.as_ref().map_or(0, |m| m.len())
    }
}

/// Flat block of doubles.
#[derive(Debug, Clone, PartialEq)]
pub struct DoubleBlock {
    pub values: Vec<f64>,
    pub nulls: NullMask,
}

impl DoubleBlock {
    pub fn new(values: Vec<f64>, nulls: NullMask) -> Self {
        debug_assert!(nulls.as_ref().is_none_or(|m| m.len() == values.len()));
        DoubleBlock { values, nulls }
    }

    pub fn from_values(values: Vec<f64>) -> Self {
        DoubleBlock {
            values,
            nulls: None,
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn is_null(&self, i: usize) -> bool {
        mask_is_null(&self.nulls, i)
    }

    pub fn filter(&self, positions: &[u32]) -> DoubleBlock {
        DoubleBlock {
            values: positions.iter().map(|&p| self.values[p as usize]).collect(),
            nulls: filter_mask(&self.nulls, positions),
        }
    }

    pub fn size_in_bytes(&self) -> usize {
        self.values.len() * 8 + self.nulls.as_ref().map_or(0, |m| m.len())
    }
}

/// Flat block of booleans.
#[derive(Debug, Clone, PartialEq)]
pub struct BoolBlock {
    pub values: Vec<bool>,
    pub nulls: NullMask,
}

impl BoolBlock {
    pub fn new(values: Vec<bool>, nulls: NullMask) -> Self {
        debug_assert!(nulls.as_ref().is_none_or(|m| m.len() == values.len()));
        BoolBlock { values, nulls }
    }

    pub fn from_values(values: Vec<bool>) -> Self {
        BoolBlock {
            values,
            nulls: None,
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn is_null(&self, i: usize) -> bool {
        mask_is_null(&self.nulls, i)
    }

    pub fn filter(&self, positions: &[u32]) -> BoolBlock {
        BoolBlock {
            values: positions.iter().map(|&p| self.values[p as usize]).collect(),
            nulls: filter_mask(&self.nulls, positions),
        }
    }

    pub fn size_in_bytes(&self) -> usize {
        self.values.len() + self.nulls.as_ref().map_or(0, |m| m.len())
    }
}

/// Flat block of UTF-8 strings, stored as one contiguous byte buffer plus an
/// offsets array — no per-string allocation, so tight loops do no pointer
/// chasing (§V-C).
#[derive(Debug, Clone, PartialEq)]
pub struct VarcharBlock {
    /// `offsets.len() == len + 1`; string `i` is `bytes[offsets[i]..offsets[i+1]]`.
    pub offsets: Vec<u32>,
    pub bytes: Vec<u8>,
    pub nulls: NullMask,
}

impl VarcharBlock {
    pub fn from_strs<S: AsRef<str>>(values: &[S]) -> Self {
        let mut offsets = Vec::with_capacity(values.len() + 1);
        let mut bytes = Vec::new();
        offsets.push(0);
        for v in values {
            bytes.extend_from_slice(v.as_ref().as_bytes());
            offsets.push(bytes.len() as u32);
        }
        VarcharBlock {
            offsets,
            bytes,
            nulls: None,
        }
    }

    /// Build from optional strings, producing a null mask when needed.
    pub fn from_options<S: AsRef<str>>(values: &[Option<S>]) -> Self {
        let mut offsets = Vec::with_capacity(values.len() + 1);
        let mut bytes = Vec::new();
        let mut nulls = vec![false; values.len()];
        let mut any_null = false;
        offsets.push(0);
        for (i, v) in values.iter().enumerate() {
            match v {
                Some(s) => bytes.extend_from_slice(s.as_ref().as_bytes()),
                None => {
                    nulls[i] = true;
                    any_null = true;
                }
            }
            offsets.push(bytes.len() as u32);
        }
        VarcharBlock {
            offsets,
            bytes,
            nulls: if any_null { Some(nulls) } else { None },
        }
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_null(&self, i: usize) -> bool {
        mask_is_null(&self.nulls, i)
    }

    pub fn value(&self, i: usize) -> &str {
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        // The writer only appends whole UTF-8 strings at offset boundaries.
        unsafe { std::str::from_utf8_unchecked(&self.bytes[start..end]) }
    }

    pub fn filter(&self, positions: &[u32]) -> VarcharBlock {
        let mut offsets = Vec::with_capacity(positions.len() + 1);
        let mut bytes = Vec::new();
        offsets.push(0u32);
        for &p in positions {
            let (s, e) = (
                self.offsets[p as usize] as usize,
                self.offsets[p as usize + 1] as usize,
            );
            bytes.extend_from_slice(&self.bytes[s..e]);
            offsets.push(bytes.len() as u32);
        }
        VarcharBlock {
            offsets,
            bytes,
            nulls: filter_mask(&self.nulls, positions),
        }
    }

    pub fn size_in_bytes(&self) -> usize {
        self.bytes.len() + self.offsets.len() * 4 + self.nulls.as_ref().map_or(0, |m| m.len())
    }
}

/// A flat block of fixed-width lanes plus its null mask — the form tight
/// loops read instead of calling [`Block`]'s per-row accessors.
pub trait Lanes: Clone {
    type Lane: Copy;
    /// The lanes when `block` is already this flat variant.
    fn of(block: &Block) -> Option<&Self>;
    /// Take the lanes out of a block of this flat variant.
    fn take(block: Block) -> Option<Self>;
    fn lanes(&self) -> &[Self::Lane];
    fn null_mask(&self) -> &NullMask;
    fn build(values: Vec<Self::Lane>, nulls: NullMask) -> Block;
}

macro_rules! lanes {
    ($block:ident, $variant:ident, $lane:ty) => {
        impl Lanes for $block {
            type Lane = $lane;
            fn of(block: &Block) -> Option<&Self> {
                match block {
                    Block::$variant(b) => Some(b),
                    _ => None,
                }
            }
            fn take(block: Block) -> Option<Self> {
                match block {
                    Block::$variant(b) => Some(b),
                    _ => None,
                }
            }
            fn lanes(&self) -> &[$lane] {
                &self.values
            }
            fn null_mask(&self) -> &NullMask {
                &self.nulls
            }
            fn build(values: Vec<$lane>, nulls: NullMask) -> Block {
                Block::$variant($block::new(values, nulls))
            }
        }
    };
}

lanes!(LongBlock, Long, i64);
lanes!(DoubleBlock, Double, f64);
lanes!(BoolBlock, Bool, bool);

/// Borrow `block`'s flat lanes, decoding once when it is RLE, dictionary
/// or lazy. Panics if the block's physical type is not `L`'s.
pub fn flat<L: Lanes>(block: &Block) -> std::borrow::Cow<'_, L> {
    let loaded = block.loaded();
    match L::of(loaded) {
        Some(l) => std::borrow::Cow::Borrowed(l),
        None => std::borrow::Cow::Owned(L::take(loaded.decode()).unwrap_or_else(|| {
            panic!("{:?} block read as the wrong lanes", loaded.physical_type())
        })),
    }
}

/// Run-length encoding: a single-position block repeated `count` times.
#[derive(Debug, Clone)]
pub struct RleBlock {
    /// A block of exactly one position holding the repeated value.
    pub value: Arc<Block>,
    pub count: usize,
}

impl RleBlock {
    pub fn new(value: Block, count: usize) -> Self {
        debug_assert_eq!(value.len(), 1, "RLE value block must have one position");
        RleBlock {
            value: Arc::new(value),
            count,
        }
    }

    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn size_in_bytes(&self) -> usize {
        self.value.size_in_bytes() + 8
    }
}

/// Dictionary encoding: distinct values in a shared dictionary block plus a
/// flat index array. The dictionary is behind an `Arc` so that many blocks
/// (e.g. all pages cut from one ORC stripe) can share it (§V-C).
#[derive(Debug, Clone)]
pub struct DictionaryBlock {
    pub dictionary: Arc<Block>,
    pub ids: Vec<u32>,
    /// Identity of the dictionary, used by operators to notice that
    /// successive blocks share a dictionary and reuse per-entry work
    /// (§V-E: retained hash-location arrays). Two blocks get the same id iff
    /// they were built from the same live `Arc`; the id is never the raw
    /// allocation address, because a freed dictionary's address can be
    /// recycled for a different dictionary and an address-based id would
    /// then serve stale cached entry work for the new contents.
    pub dictionary_id: u64,
}

/// Next [`DictionaryBlock::dictionary_id`]; 0 is never issued so caches
/// can use it as "empty".
static NEXT_DICTIONARY_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Live-dictionary registry: allocation address -> (liveness witness, id).
/// An entry is only trusted while its `Weak` still upgrades, i.e. while the
/// original `Arc` allocation is alive; once it drops, a recycled address
/// fails the liveness check and gets a fresh id, which is what makes
/// [`DictionaryBlock::dictionary_id`] ABA-safe.
static DICTIONARY_IDS: OnceLock<Mutex<DictionaryRegistry>> = OnceLock::new();

type DictionaryRegistry = HashMap<usize, (Weak<Block>, u64)>;

fn dictionary_identity(dictionary: &Arc<Block>) -> u64 {
    let registry = DICTIONARY_IDS.get_or_init(|| Mutex::new(HashMap::new()));
    let key = Arc::as_ptr(dictionary) as usize;
    let mut map = match registry.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some((witness, id)) = map.get(&key) {
        if witness.strong_count() > 0 {
            return *id;
        }
    }
    // Dead entries linger until their address is recycled; sweep them once
    // the registry gets large so it tracks live dictionaries, not history.
    if map.len() >= 1024 {
        map.retain(|_, (witness, _)| witness.strong_count() > 0);
    }
    let id = NEXT_DICTIONARY_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    map.insert(key, (Arc::downgrade(dictionary), id));
    id
}

impl DictionaryBlock {
    pub fn new(dictionary: Arc<Block>, ids: Vec<u32>) -> Self {
        let dictionary_id = dictionary_identity(&dictionary);
        debug_assert!(ids.iter().all(|&id| (id as usize) < dictionary.len()));
        DictionaryBlock {
            dictionary,
            ids,
            dictionary_id,
        }
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    pub fn filter(&self, positions: &[u32]) -> DictionaryBlock {
        // Filtering only touches the index array; the dictionary is shared.
        DictionaryBlock {
            dictionary: Arc::clone(&self.dictionary),
            ids: positions.iter().map(|&p| self.ids[p as usize]).collect(),
            dictionary_id: self.dictionary_id,
        }
    }

    pub fn size_in_bytes(&self) -> usize {
        // The shared dictionary is charged once per holder; good enough for
        // buffer accounting.
        self.dictionary.size_in_bytes() + self.ids.len() * 4
    }
}

/// Shared core of a [`LazyBlock`]: the loader thunk and its memoized result.
struct LazyInner {
    len: usize,
    loader: Box<dyn Fn() -> Block + Send + Sync>,
    loaded: OnceLock<Block>,
}

impl LazyInner {
    fn load(&self) -> &Block {
        self.loaded.get_or_init(|| {
            let block = (self.loader)();
            assert_eq!(
                block.len(),
                self.len,
                "lazy loader produced wrong row count"
            );
            block
        })
    }
}

/// A block whose contents are produced on first access (§V-D).
///
/// Connectors wrap column reads in a `LazyBlock`; if a filter on other
/// columns drops every row, the loader never runs and the bytes are never
/// fetched or decoded. Loaders run at most once; the result is memoized and
/// shared by all clones. Filtering a lazy block composes a position list
/// instead of forcing the load, so selective filters keep their savings.
#[derive(Clone)]
pub struct LazyBlock {
    inner: Arc<LazyInner>,
    /// Positions of the source block this view exposes; `None` = identity.
    positions: Option<Arc<Vec<u32>>>,
    /// Memoized filtered view (source block filtered to `positions`).
    view: Arc<OnceLock<Block>>,
}

impl LazyBlock {
    pub fn new(len: usize, loader: impl Fn() -> Block + Send + Sync + 'static) -> Self {
        LazyBlock {
            inner: Arc::new(LazyInner {
                len,
                loader: Box::new(loader),
                loaded: OnceLock::new(),
            }),
            positions: None,
            view: Arc::new(OnceLock::new()),
        }
    }

    pub fn len(&self) -> usize {
        match &self.positions {
            Some(p) => p.len(),
            None => self.inner.len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the underlying loader has run.
    pub fn is_loaded(&self) -> bool {
        self.inner.loaded.get().is_some()
    }

    /// A lazy view of this block restricted to `positions`; does not load.
    pub fn filter_lazy(&self, positions: &[u32]) -> LazyBlock {
        let composed = match &self.positions {
            Some(existing) => positions.iter().map(|&p| existing[p as usize]).collect(),
            None => positions.to_vec(),
        };
        LazyBlock {
            inner: Arc::clone(&self.inner),
            positions: Some(Arc::new(composed)),
            view: Arc::new(OnceLock::new()),
        }
    }

    /// Materialize (at most once) and return the underlying block, filtered
    /// to this view's positions.
    pub fn load(&self) -> &Block {
        self.view.get_or_init(|| {
            let source = self.inner.load();
            match &self.positions {
                Some(p) => source.filter(p),
                None => source.clone(),
            }
        })
    }
}

impl std::fmt::Debug for LazyBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyBlock")
            .field("len", &self.len())
            .field("loaded", &self.is_loaded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varchar_flat_layout() {
        let b = VarcharBlock::from_strs(&["ab", "", "cde"]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.value(0), "ab");
        assert_eq!(b.value(1), "");
        assert_eq!(b.value(2), "cde");
        assert_eq!(b.bytes.len(), 5);
    }

    #[test]
    fn varchar_with_nulls() {
        let b = VarcharBlock::from_options(&[Some("x"), None, Some("y")]);
        assert!(!b.is_null(0));
        assert!(b.is_null(1));
        assert_eq!(b.value(2), "y");
    }

    #[test]
    fn filter_drops_all_null_mask_when_possible() {
        let b = LongBlock::new(vec![1, 2, 3], Some(vec![false, true, false]));
        let f = b.filter(&[0, 2]);
        assert_eq!(f.values, vec![1, 3]);
        assert!(f.nulls.is_none(), "mask elided when no nulls survive");
    }

    #[test]
    fn dictionary_filter_shares_dictionary() {
        let dict = Arc::new(Block::from(VarcharBlock::from_strs(&["a", "b"])));
        let d = DictionaryBlock::new(Arc::clone(&dict), vec![0, 1, 0, 1]);
        let f = d.filter(&[1, 3]);
        assert_eq!(f.ids, vec![1, 1]);
        assert_eq!(f.dictionary_id, d.dictionary_id);
    }

    #[test]
    fn lazy_loads_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        let lazy = LazyBlock::new(2, move || {
            c.fetch_add(1, Ordering::SeqCst);
            Block::from(LongBlock::from_values(vec![7, 8]))
        });
        assert!(!lazy.is_loaded());
        assert_eq!(lazy.load().len(), 2);
        assert_eq!(lazy.load().len(), 2);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "wrong row count")]
    fn lazy_loader_length_mismatch_panics() {
        let lazy = LazyBlock::new(3, || Block::from(LongBlock::from_values(vec![1])));
        lazy.load();
    }
}
