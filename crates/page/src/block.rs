//! The [`Block`] enum: one column's worth of data in one of several
//! encodings, with encoding-transparent accessors.

use std::borrow::Cow;
use std::sync::Arc;

use presto_common::{DataType, Value};

use crate::blocks::{
    BoolBlock, DictionaryBlock, DoubleBlock, LazyBlock, LongBlock, RleBlock, VarcharBlock,
};

/// Physical representation of a column after full decoding. Several SQL
/// types share one physical type (bigint/date/timestamp are all `Long`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhysicalType {
    Long,
    Double,
    Bool,
    Varchar,
}

impl PhysicalType {
    /// The physical lane used to store a SQL type.
    pub fn of(data_type: DataType) -> PhysicalType {
        match data_type {
            DataType::Bigint | DataType::Date | DataType::Timestamp => PhysicalType::Long,
            DataType::Double => PhysicalType::Double,
            DataType::Boolean => PhysicalType::Bool,
            DataType::Varchar => PhysicalType::Varchar,
        }
    }
}

/// One column of a [`crate::Page`], in any encoding.
#[derive(Debug, Clone)]
pub enum Block {
    Long(LongBlock),
    Double(DoubleBlock),
    Bool(BoolBlock),
    Varchar(VarcharBlock),
    Rle(RleBlock),
    Dictionary(DictionaryBlock),
    Lazy(LazyBlock),
}

impl Block {
    /// Number of rows (positions).
    pub fn len(&self) -> usize {
        match self {
            Block::Long(b) => b.len(),
            Block::Double(b) => b.len(),
            Block::Bool(b) => b.len(),
            Block::Varchar(b) => b.len(),
            Block::Rle(b) => b.len(),
            Block::Dictionary(b) => b.len(),
            Block::Lazy(b) => b.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolve lazy indirection (forcing a load) without flattening RLE or
    /// dictionary structure.
    pub fn loaded(&self) -> &Block {
        match self {
            Block::Lazy(b) => b.load().loaded(),
            other => other,
        }
    }

    /// Whether accessing this block's cells costs a decode (lazy, unloaded).
    pub fn is_lazy_unloaded(&self) -> bool {
        matches!(self, Block::Lazy(b) if !b.is_loaded())
    }

    /// Physical type after decoding.
    pub fn physical_type(&self) -> PhysicalType {
        match self.loaded() {
            Block::Long(_) => PhysicalType::Long,
            Block::Double(_) => PhysicalType::Double,
            Block::Bool(_) => PhysicalType::Bool,
            Block::Varchar(_) => PhysicalType::Varchar,
            Block::Rle(b) => b.value.physical_type(),
            Block::Dictionary(b) => b.dictionary.physical_type(),
            Block::Lazy(_) => unreachable!("loaded() resolves lazy blocks"),
        }
    }

    /// NULL test, transparent across encodings.
    pub fn is_null(&self, i: usize) -> bool {
        match self.loaded() {
            Block::Long(b) => b.is_null(i),
            Block::Double(b) => b.is_null(i),
            Block::Bool(b) => b.is_null(i),
            Block::Varchar(b) => b.is_null(i),
            Block::Rle(b) => b.value.is_null(0),
            Block::Dictionary(b) => b.dictionary.is_null(b.ids[i] as usize),
            Block::Lazy(_) => unreachable!(),
        }
    }

    /// Raw i64 lane access (bigint/date/timestamp). The cell must not be
    /// NULL-sensitive: callers check [`Block::is_null`] first; NULL slots
    /// hold an unspecified placeholder.
    pub fn i64_at(&self, i: usize) -> i64 {
        match self.loaded() {
            Block::Long(b) => b.values[i],
            Block::Rle(b) => b.value.i64_at(0),
            Block::Dictionary(b) => b.dictionary.i64_at(b.ids[i] as usize),
            other => panic!("i64_at on {:?} block", other.physical_type()),
        }
    }

    pub fn f64_at(&self, i: usize) -> f64 {
        match self.loaded() {
            Block::Double(b) => b.values[i],
            Block::Rle(b) => b.value.f64_at(0),
            Block::Dictionary(b) => b.dictionary.f64_at(b.ids[i] as usize),
            other => panic!("f64_at on {:?} block", other.physical_type()),
        }
    }

    pub fn bool_at(&self, i: usize) -> bool {
        match self.loaded() {
            Block::Bool(b) => b.values[i],
            Block::Rle(b) => b.value.bool_at(0),
            Block::Dictionary(b) => b.dictionary.bool_at(b.ids[i] as usize),
            other => panic!("bool_at on {:?} block", other.physical_type()),
        }
    }

    pub fn str_at(&self, i: usize) -> &str {
        match self.loaded() {
            Block::Varchar(b) => b.value(i),
            Block::Rle(b) => b.value.str_at(0),
            Block::Dictionary(b) => b.dictionary.str_at(b.ids[i] as usize),
            other => panic!("str_at on {:?} block", other.physical_type()),
        }
    }

    /// Extract one cell as a typed [`Value`], given the column's SQL type.
    pub fn value_at(&self, data_type: DataType, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match data_type {
            DataType::Bigint | DataType::Date | DataType::Timestamp => {
                Value::from_i64(data_type, self.i64_at(i))
            }
            DataType::Double => Value::Double(self.f64_at(i)),
            DataType::Boolean => Value::Boolean(self.bool_at(i)),
            DataType::Varchar => Value::varchar(self.str_at(i)),
        }
    }

    /// Keep only `positions`, preserving structure: dictionary blocks filter
    /// their index array, RLE blocks shrink their count. This is how filters
    /// operate on compressed data without decoding (§V-E).
    pub fn filter(&self, positions: &[u32]) -> Block {
        match self.loaded() {
            Block::Long(b) => Block::Long(b.filter(positions)),
            Block::Double(b) => Block::Double(b.filter(positions)),
            Block::Bool(b) => Block::Bool(b.filter(positions)),
            Block::Varchar(b) => Block::Varchar(b.filter(positions)),
            Block::Rle(b) => Block::Rle(RleBlock {
                value: Arc::clone(&b.value),
                count: positions.len(),
            }),
            Block::Dictionary(b) => Block::Dictionary(b.filter(positions)),
            Block::Lazy(_) => unreachable!(),
        }
    }

    /// Like [`Block::filter`], but preserves laziness: filtering an unloaded
    /// lazy block composes the position list without running the loader.
    pub fn filter_lazy_aware(&self, positions: &[u32]) -> Block {
        match self {
            Block::Lazy(b) => Block::Lazy(b.filter_lazy(positions)),
            other => other.filter(positions),
        }
    }

    /// Fully decode to a flat block, materializing RLE/dictionary structure.
    pub fn decode(&self) -> Block {
        let loaded = self.loaded();
        match loaded {
            Block::Long(_) | Block::Double(_) | Block::Bool(_) | Block::Varchar(_) => {
                loaded.clone()
            }
            Block::Rle(b) => {
                let positions = vec![0u32; b.count];
                b.value.decode().filter(&positions)
            }
            Block::Dictionary(b) => b.dictionary.decode().filter(&b.ids),
            Block::Lazy(_) => unreachable!(),
        }
    }

    /// This block as a flat variant: a flat block moves as it is, an RLE,
    /// dictionary or lazy one is decoded.
    pub fn into_flat(self) -> Block {
        match self {
            Block::Rle(_) | Block::Dictionary(_) | Block::Lazy(_) => self.decode(),
            flat => flat,
        }
    }

    /// This block as a flat variant: borrowed when it is one, decoded once
    /// when it is RLE, dictionary or lazy.
    pub fn as_flat(&self) -> Cow<'_, Block> {
        match self.loaded() {
            Block::Rle(_) | Block::Dictionary(_) => Cow::Owned(self.decode()),
            flat => Cow::Borrowed(flat),
        }
    }

    /// Whether any cell can be NULL, decided from the encoding without
    /// visiting the rows: false for a flat block with no null mask, an RLE
    /// run of a non-NULL value, or a dictionary over such a block.
    pub fn may_hold_null(&self) -> bool {
        match self.loaded() {
            Block::Long(b) => b.nulls.is_some(),
            Block::Double(b) => b.nulls.is_some(),
            Block::Bool(b) => b.nulls.is_some(),
            Block::Varchar(b) => b.nulls.is_some(),
            Block::Rle(b) => b.value.is_null(0),
            Block::Dictionary(b) => b.dictionary.may_hold_null(),
            Block::Lazy(_) => unreachable!(),
        }
    }

    /// Approximate retained size, used for memory accounting and buffer
    /// utilization tracking.
    pub fn size_in_bytes(&self) -> usize {
        match self {
            Block::Long(b) => b.size_in_bytes(),
            Block::Double(b) => b.size_in_bytes(),
            Block::Bool(b) => b.size_in_bytes(),
            Block::Varchar(b) => b.size_in_bytes(),
            Block::Rle(b) => b.size_in_bytes(),
            Block::Dictionary(b) => b.size_in_bytes(),
            // An unloaded lazy block retains only its thunk; charge a token
            // amount. Loading moves the real bytes into the cache.
            Block::Lazy(b) => {
                if b.is_loaded() {
                    b.load().size_in_bytes()
                } else {
                    64
                }
            }
        }
    }

    /// SQL equality (`=`) between two cells; NULL never equals anything.
    pub fn eq_at(&self, i: usize, other: &Block, j: usize) -> bool {
        if self.is_null(i) || other.is_null(j) {
            return false;
        }
        match self.physical_type() {
            PhysicalType::Long => self.i64_at(i) == other.i64_at(j),
            PhysicalType::Double => self.f64_at(i) == other.f64_at(j),
            PhysicalType::Bool => self.bool_at(i) == other.bool_at(j),
            PhysicalType::Varchar => self.str_at(i) == other.str_at(j),
        }
    }

    /// Wrap in an RLE block repeating cell 0 of `value` `count` times.
    pub fn rle(value: Block, count: usize) -> Block {
        Block::Rle(RleBlock::new(value, count))
    }

    /// A single-cell block holding `value` with the given SQL type. NULL
    /// cells are representable for every type.
    pub fn single(data_type: DataType, value: &Value) -> Block {
        let null = value.is_null();
        let mask = if null { Some(vec![true]) } else { None };
        match PhysicalType::of(data_type) {
            PhysicalType::Long => {
                Block::Long(LongBlock::new(vec![value.as_i64().unwrap_or(0)], mask))
            }
            PhysicalType::Double => {
                Block::Double(DoubleBlock::new(vec![value.as_f64().unwrap_or(0.0)], mask))
            }
            PhysicalType::Bool => {
                Block::Bool(BoolBlock::new(vec![value.as_bool().unwrap_or(false)], mask))
            }
            PhysicalType::Varchar => {
                let s = value.as_str().unwrap_or("");
                let mut b = VarcharBlock::from_strs(&[s]);
                b.nulls = mask;
                Block::Varchar(b)
            }
        }
    }

    /// Build a flat block from typed values.
    pub fn from_values(data_type: DataType, values: &[Value]) -> Block {
        let mut nulls = vec![false; values.len()];
        let mut any_null = false;
        for (i, v) in values.iter().enumerate() {
            if v.is_null() {
                nulls[i] = true;
                any_null = true;
            }
        }
        let mask = if any_null { Some(nulls) } else { None };
        match PhysicalType::of(data_type) {
            PhysicalType::Long => Block::Long(LongBlock::new(
                values.iter().map(|v| v.as_i64().unwrap_or(0)).collect(),
                mask,
            )),
            PhysicalType::Double => Block::Double(DoubleBlock::new(
                values.iter().map(|v| v.as_f64().unwrap_or(0.0)).collect(),
                mask,
            )),
            PhysicalType::Bool => Block::Bool(BoolBlock::new(
                values
                    .iter()
                    .map(|v| v.as_bool().unwrap_or(false))
                    .collect(),
                mask,
            )),
            PhysicalType::Varchar => {
                let mut b = VarcharBlock::from_strs(
                    &values
                        .iter()
                        .map(|v| v.as_str().unwrap_or(""))
                        .collect::<Vec<_>>(),
                );
                b.nulls = mask;
                Block::Varchar(b)
            }
        }
    }
}

impl From<LongBlock> for Block {
    fn from(b: LongBlock) -> Block {
        Block::Long(b)
    }
}

impl From<DoubleBlock> for Block {
    fn from(b: DoubleBlock) -> Block {
        Block::Double(b)
    }
}

impl From<BoolBlock> for Block {
    fn from(b: BoolBlock) -> Block {
        Block::Bool(b)
    }
}

impl From<VarcharBlock> for Block {
    fn from(b: VarcharBlock) -> Block {
        Block::Varchar(b)
    }
}

impl From<RleBlock> for Block {
    fn from(b: RleBlock) -> Block {
        Block::Rle(b)
    }
}

impl From<DictionaryBlock> for Block {
    fn from(b: DictionaryBlock) -> Block {
        Block::Dictionary(b)
    }
}

impl From<LazyBlock> for Block {
    fn from(b: LazyBlock) -> Block {
        Block::Lazy(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict_block() -> Block {
        let dict = Arc::new(Block::from(VarcharBlock::from_strs(&[
            "IN PERSON",
            "COD",
            "NONE",
        ])));
        Block::Dictionary(DictionaryBlock::new(dict, vec![0, 1, 2, 1, 0]))
    }

    #[test]
    fn accessors_see_through_encodings() {
        let b = dict_block();
        assert_eq!(b.len(), 5);
        assert_eq!(b.str_at(0), "IN PERSON");
        assert_eq!(b.str_at(3), "COD");
        let rle = Block::rle(Block::from(LongBlock::from_values(vec![42])), 4);
        assert_eq!(rle.len(), 4);
        assert_eq!(rle.i64_at(3), 42);
    }

    #[test]
    fn decode_flattens() {
        let b = dict_block();
        let flat = b.decode();
        assert!(matches!(flat, Block::Varchar(_)));
        for i in 0..b.len() {
            assert_eq!(flat.str_at(i), b.str_at(i));
        }
        let rle = Block::rle(Block::from(DoubleBlock::from_values(vec![1.5])), 3);
        let flat = rle.decode();
        assert!(matches!(flat, Block::Double(_)));
        assert_eq!(flat.len(), 3);
        assert_eq!(flat.f64_at(2), 1.5);
    }

    #[test]
    fn filter_preserves_structure() {
        let b = dict_block();
        let f = b.filter(&[0, 2, 4]);
        assert!(
            matches!(f, Block::Dictionary(_)),
            "dictionary structure kept"
        );
        assert_eq!(f.str_at(1), "NONE");
        let rle = Block::rle(Block::from(BoolBlock::from_values(vec![true])), 10);
        let f = rle.filter(&[1, 2]);
        assert!(matches!(f, Block::Rle(_)));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn lazy_blocks_resolve_transparently() {
        let lazy = Block::Lazy(LazyBlock::new(3, || {
            Block::from(LongBlock::from_values(vec![1, 2, 3]))
        }));
        assert!(lazy.is_lazy_unloaded());
        assert_eq!(lazy.i64_at(1), 2);
        assert!(!lazy.is_lazy_unloaded());
    }

    #[test]
    fn typed_value_extraction() {
        let b = Block::from(LongBlock::from_values(vec![10]));
        assert_eq!(b.value_at(DataType::Bigint, 0), Value::Bigint(10));
        assert_eq!(b.value_at(DataType::Date, 0), Value::Date(10));
        let n = Block::single(DataType::Varchar, &Value::Null);
        assert_eq!(n.value_at(DataType::Varchar, 0), Value::Null);
    }

    #[test]
    fn from_values_round_trip() {
        let vals = vec![Value::Bigint(1), Value::Null, Value::Bigint(3)];
        let b = Block::from_values(DataType::Bigint, &vals);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&b.value_at(DataType::Bigint, i), v);
        }
    }

    #[test]
    fn eq_semantics() {
        let a = Block::from_values(DataType::Bigint, &[Value::Bigint(1), Value::Null]);
        let b = Block::from_values(DataType::Bigint, &[Value::Bigint(1), Value::Null]);
        assert!(a.eq_at(0, &b, 0));
        assert!(!a.eq_at(1, &b, 1), "NULL != NULL under SQL equality");
    }

    #[test]
    fn rle_of_null() {
        let b = Block::rle(Block::single(DataType::Double, &Value::Null), 5);
        assert!(b.is_null(4));
    }
}
