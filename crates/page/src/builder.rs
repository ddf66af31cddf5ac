//! Incremental block construction for operators that produce output row by
//! row (joins, aggregations, sorts).

use presto_common::{DataType, Value};

use crate::block::{Block, PhysicalType};
use crate::blocks::{BoolBlock, DoubleBlock, LongBlock, VarcharBlock};

/// Appends cells of one physical type and finishes into a flat [`Block`].
#[derive(Debug)]
pub enum BlockBuilder {
    Long {
        values: Vec<i64>,
        nulls: Vec<bool>,
        any_null: bool,
    },
    Double {
        values: Vec<f64>,
        nulls: Vec<bool>,
        any_null: bool,
    },
    Bool {
        values: Vec<bool>,
        nulls: Vec<bool>,
        any_null: bool,
    },
    Varchar {
        offsets: Vec<u32>,
        bytes: Vec<u8>,
        nulls: Vec<bool>,
        any_null: bool,
    },
}

impl BlockBuilder {
    pub fn new(data_type: DataType) -> BlockBuilder {
        Self::with_capacity(data_type, 0)
    }

    pub fn with_capacity(data_type: DataType, capacity: usize) -> BlockBuilder {
        Self::for_physical(PhysicalType::of(data_type), capacity)
    }

    /// Build for a physical type directly (used when the schema is only
    /// known from a sample block, e.g. the partitioned-output scatter).
    pub fn for_physical(physical: PhysicalType, capacity: usize) -> BlockBuilder {
        match physical {
            PhysicalType::Long => BlockBuilder::Long {
                values: Vec::with_capacity(capacity),
                nulls: Vec::with_capacity(capacity),
                any_null: false,
            },
            PhysicalType::Double => BlockBuilder::Double {
                values: Vec::with_capacity(capacity),
                nulls: Vec::with_capacity(capacity),
                any_null: false,
            },
            PhysicalType::Bool => BlockBuilder::Bool {
                values: Vec::with_capacity(capacity),
                nulls: Vec::with_capacity(capacity),
                any_null: false,
            },
            PhysicalType::Varchar => BlockBuilder::Varchar {
                offsets: {
                    let mut o = Vec::with_capacity(capacity + 1);
                    o.push(0);
                    o
                },
                bytes: Vec::new(),
                nulls: Vec::with_capacity(capacity),
                any_null: false,
            },
        }
    }

    pub fn len(&self) -> usize {
        match self {
            BlockBuilder::Long { values, .. } => values.len(),
            BlockBuilder::Double { values, .. } => values.len(),
            BlockBuilder::Bool { values, .. } => values.len(),
            BlockBuilder::Varchar { offsets, .. } => offsets.len() - 1,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn push_i64(&mut self, v: i64) {
        match self {
            BlockBuilder::Long { values, nulls, .. } => {
                values.push(v);
                nulls.push(false);
            }
            _ => panic!("push_i64 on non-long builder"),
        }
    }

    pub fn push_f64(&mut self, v: f64) {
        match self {
            BlockBuilder::Double { values, nulls, .. } => {
                values.push(v);
                nulls.push(false);
            }
            _ => panic!("push_f64 on non-double builder"),
        }
    }

    pub fn push_bool(&mut self, v: bool) {
        match self {
            BlockBuilder::Bool { values, nulls, .. } => {
                values.push(v);
                nulls.push(false);
            }
            _ => panic!("push_bool on non-bool builder"),
        }
    }

    pub fn push_str(&mut self, v: &str) {
        match self {
            BlockBuilder::Varchar {
                offsets,
                bytes,
                nulls,
                ..
            } => {
                bytes.extend_from_slice(v.as_bytes());
                offsets.push(bytes.len() as u32);
                nulls.push(false);
            }
            _ => panic!("push_str on non-varchar builder"),
        }
    }

    pub fn push_null(&mut self) {
        match self {
            BlockBuilder::Long {
                values,
                nulls,
                any_null,
            } => {
                values.push(0);
                nulls.push(true);
                *any_null = true;
            }
            BlockBuilder::Double {
                values,
                nulls,
                any_null,
            } => {
                values.push(0.0);
                nulls.push(true);
                *any_null = true;
            }
            BlockBuilder::Bool {
                values,
                nulls,
                any_null,
            } => {
                values.push(false);
                nulls.push(true);
                *any_null = true;
            }
            BlockBuilder::Varchar {
                offsets,
                nulls,
                any_null,
                bytes,
            } => {
                offsets.push(bytes.len() as u32);
                nulls.push(true);
                *any_null = true;
            }
        }
    }

    /// Append a typed [`Value`] (must match the builder's physical type).
    pub fn push_value(&mut self, v: &Value) {
        if v.is_null() {
            return self.push_null();
        }
        match self {
            BlockBuilder::Long { .. } => self.push_i64(v.as_i64().expect("long value")),
            BlockBuilder::Double { .. } => self.push_f64(v.as_f64().expect("double value")),
            BlockBuilder::Bool { .. } => self.push_bool(v.as_bool().expect("bool value")),
            BlockBuilder::Varchar { .. } => self.push_str(v.as_str().expect("varchar value")),
        }
    }

    /// Copy cell `i` of `block` (any encoding) into this builder.
    pub fn append_from(&mut self, block: &Block, i: usize) {
        if block.is_null(i) {
            return self.push_null();
        }
        match self {
            BlockBuilder::Long { .. } => self.push_i64(block.i64_at(i)),
            BlockBuilder::Double { .. } => self.push_f64(block.f64_at(i)),
            BlockBuilder::Bool { .. } => self.push_bool(block.bool_at(i)),
            BlockBuilder::Varchar { .. } => self.push_str(block.str_at(i)),
        }
    }

    /// Append the cells of `block` at `positions`, in order — the scatter
    /// kernel behind coalescing partitioned output. Equivalent to calling
    /// [`BlockBuilder::append_from`] per position, with vectorized fast
    /// paths for flat blocks (no per-cell encoding dispatch), one-lookup
    /// paths for RLE, and id-indirection for dictionaries.
    pub fn append_filtered(&mut self, block: &Block, positions: &[u32]) {
        if positions.is_empty() {
            return;
        }
        match (self, block) {
            (
                BlockBuilder::Long {
                    values,
                    nulls,
                    any_null,
                },
                Block::Long(b),
            ) => {
                values.extend(positions.iter().map(|&p| b.values[p as usize]));
                append_null_run(nulls, any_null, &b.nulls, positions);
            }
            (
                BlockBuilder::Double {
                    values,
                    nulls,
                    any_null,
                },
                Block::Double(b),
            ) => {
                values.extend(positions.iter().map(|&p| b.values[p as usize]));
                append_null_run(nulls, any_null, &b.nulls, positions);
            }
            (
                BlockBuilder::Bool {
                    values,
                    nulls,
                    any_null,
                },
                Block::Bool(b),
            ) => {
                values.extend(positions.iter().map(|&p| b.values[p as usize]));
                append_null_run(nulls, any_null, &b.nulls, positions);
            }
            (
                BlockBuilder::Varchar {
                    offsets,
                    bytes,
                    nulls,
                    any_null,
                },
                Block::Varchar(b),
            ) => {
                for &p in positions {
                    let (start, end) = (
                        b.offsets[p as usize] as usize,
                        b.offsets[p as usize + 1] as usize,
                    );
                    bytes.extend_from_slice(&b.bytes[start..end]);
                    offsets.push(bytes.len() as u32);
                }
                append_null_run(nulls, any_null, &b.nulls, positions);
            }
            (this, Block::Rle(b)) => {
                // One decode of the single value, repeated for the run.
                let value = b.value.loaded();
                for _ in 0..positions.len() {
                    this.append_from(value, 0);
                }
            }
            (this, Block::Dictionary(b)) => {
                // Map positions through the id array, then scatter out of
                // the (flat) dictionary.
                let ids: Vec<u32> = positions.iter().map(|&p| b.ids[p as usize]).collect();
                this.append_filtered(b.dictionary.loaded(), &ids);
            }
            (this, Block::Lazy(b)) => this.append_filtered(b.load().loaded(), positions),
            // Type-mismatched pairs: defer to append_from, which panics
            // with the precise push_* message (a planner bug, not data).
            (this, block) => {
                for &p in positions {
                    this.append_from(block, p as usize);
                }
            }
        }
    }

    /// Bytes currently retained; used by operators for memory accounting.
    pub fn size_in_bytes(&self) -> usize {
        match self {
            BlockBuilder::Long { values, nulls, .. } => values.len() * 8 + nulls.len(),
            BlockBuilder::Double { values, nulls, .. } => values.len() * 8 + nulls.len(),
            BlockBuilder::Bool { values, nulls, .. } => values.len() + nulls.len(),
            BlockBuilder::Varchar {
                offsets,
                bytes,
                nulls,
                ..
            } => offsets.len() * 4 + bytes.len() + nulls.len(),
        }
    }

    pub fn finish(self) -> Block {
        match self {
            BlockBuilder::Long {
                values,
                nulls,
                any_null,
            } => Block::Long(LongBlock::new(values, any_null.then_some(nulls))),
            BlockBuilder::Double {
                values,
                nulls,
                any_null,
            } => Block::Double(DoubleBlock::new(values, any_null.then_some(nulls))),
            BlockBuilder::Bool {
                values,
                nulls,
                any_null,
            } => Block::Bool(BoolBlock::new(values, any_null.then_some(nulls))),
            BlockBuilder::Varchar {
                offsets,
                bytes,
                nulls,
                any_null,
            } => Block::Varchar(VarcharBlock {
                offsets,
                bytes,
                nulls: any_null.then_some(nulls),
            }),
        }
    }
}

/// Extend `nulls` with the source mask gathered at `positions` (dense when
/// the source has no mask).
fn append_null_run(
    nulls: &mut Vec<bool>,
    any_null: &mut bool,
    source: &Option<Vec<bool>>,
    positions: &[u32],
) {
    match source {
        None => nulls.resize(nulls.len() + positions.len(), false),
        Some(mask) => {
            for &p in positions {
                let null = mask[p as usize];
                nulls.push(null);
                *any_null |= null;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_each_type() {
        let mut b = BlockBuilder::new(DataType::Bigint);
        b.push_i64(1);
        b.push_null();
        b.push_i64(3);
        let block = b.finish();
        assert_eq!(block.len(), 3);
        assert_eq!(block.i64_at(0), 1);
        assert!(block.is_null(1));

        let mut b = BlockBuilder::new(DataType::Varchar);
        b.push_str("hello");
        b.push_null();
        b.push_str("world");
        let block = b.finish();
        assert_eq!(block.str_at(2), "world");
        assert!(block.is_null(1));
    }

    #[test]
    fn no_null_mask_when_dense() {
        let mut b = BlockBuilder::new(DataType::Double);
        b.push_f64(1.0);
        let block = b.finish();
        match block {
            Block::Double(d) => assert!(d.nulls.is_none()),
            _ => panic!(),
        }
    }

    #[test]
    fn append_from_copies_across_encodings() {
        use crate::blocks::{DictionaryBlock, VarcharBlock};
        use std::sync::Arc;
        let dict = Arc::new(Block::from(VarcharBlock::from_strs(&["x", "y"])));
        let src = Block::Dictionary(DictionaryBlock::new(dict, vec![1, 0]));
        let mut b = BlockBuilder::new(DataType::Varchar);
        b.append_from(&src, 0);
        b.append_from(&src, 1);
        let out = b.finish();
        assert_eq!(out.str_at(0), "y");
        assert_eq!(out.str_at(1), "x");
    }

    #[test]
    fn append_filtered_matches_append_from_across_encodings() {
        use crate::blocks::{DictionaryBlock, LongBlock, VarcharBlock};
        use std::sync::Arc;
        let flat = Block::Long(LongBlock::new(
            (0..20).collect(),
            Some((0..20).map(|i| i % 5 == 0).collect()),
        ));
        let dict = Block::Dictionary(DictionaryBlock::new(
            Arc::new(Block::from(VarcharBlock::from_strs(&["a", "bb", "ccc"]))),
            (0..20).map(|i| i % 3).collect(),
        ));
        let rle = Block::rle(Block::from(LongBlock::from_values(vec![7])), 20);
        let positions: Vec<u32> = vec![19, 0, 3, 3, 11, 5];
        for block in [&flat, &dict, &rle] {
            let mut fast = BlockBuilder::for_physical(block.physical_type(), 0);
            fast.append_filtered(block, &positions);
            let mut slow = BlockBuilder::for_physical(block.physical_type(), 0);
            for &p in &positions {
                slow.append_from(block, p as usize);
            }
            let (fast, slow) = (fast.finish(), slow.finish());
            assert_eq!(fast.len(), slow.len());
            for i in 0..fast.len() {
                assert_eq!(fast.is_null(i), slow.is_null(i));
                if !fast.is_null(i) {
                    match block.physical_type() {
                        PhysicalType::Varchar => assert_eq!(fast.str_at(i), slow.str_at(i)),
                        _ => assert_eq!(fast.i64_at(i), slow.i64_at(i)),
                    }
                }
            }
        }
    }

    #[test]
    fn push_value_round_trip() {
        let mut b = BlockBuilder::new(DataType::Boolean);
        b.push_value(&Value::Boolean(true));
        b.push_value(&Value::Null);
        let block = b.finish();
        assert_eq!(block.value_at(DataType::Boolean, 0), Value::Boolean(true));
        assert_eq!(block.value_at(DataType::Boolean, 1), Value::Null);
    }
}
