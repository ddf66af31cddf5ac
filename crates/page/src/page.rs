//! [`Page`]: the unit of data moved between operators by the driver loop.

use std::borrow::Cow;

use presto_common::{Schema, Value};

use crate::block::Block;
use crate::blocks::{BoolBlock, DoubleBlock, Lanes, LongBlock, NullMask, VarcharBlock};

/// A columnar batch of rows: one [`Block`] per column, all the same length.
#[derive(Debug, Clone)]
pub struct Page {
    blocks: Vec<Block>,
    row_count: usize,
}

impl Page {
    /// Build a page from equal-length blocks. Panics on length mismatch —
    /// producing ragged pages is an engine bug, not a recoverable error.
    pub fn new(blocks: Vec<Block>) -> Page {
        let row_count = blocks.first().map_or(0, Block::len);
        for b in &blocks {
            assert_eq!(b.len(), row_count, "ragged page");
        }
        Page { blocks, row_count }
    }

    /// A page with rows but no columns — produced by `SELECT COUNT(*)`-style
    /// scans that need cardinality only.
    pub fn zero_column(row_count: usize) -> Page {
        Page {
            blocks: Vec::new(),
            row_count,
        }
    }

    pub fn empty() -> Page {
        Page {
            blocks: Vec::new(),
            row_count: 0,
        }
    }

    pub fn row_count(&self) -> usize {
        self.row_count
    }

    pub fn is_empty(&self) -> bool {
        self.row_count == 0
    }

    pub fn column_count(&self) -> usize {
        self.blocks.len()
    }

    pub fn block(&self, i: usize) -> &Block {
        &self.blocks[i]
    }

    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    pub fn into_blocks(self) -> Vec<Block> {
        self.blocks
    }

    /// Total size of all blocks, for buffer accounting.
    pub fn size_in_bytes(&self) -> usize {
        self.blocks.iter().map(Block::size_in_bytes).sum()
    }

    /// Keep only the given row positions in every column. Unloaded lazy
    /// blocks stay lazy: the position list is composed into the view, so a
    /// selective filter never forces unreferenced columns to decode (§V-D).
    pub fn filter(&self, positions: &[u32]) -> Page {
        Page {
            blocks: self
                .blocks
                .iter()
                .map(|b| b.filter_lazy_aware(positions))
                .collect(),
            row_count: positions.len(),
        }
    }

    /// Keep only the given columns, in order.
    pub fn project(&self, columns: &[usize]) -> Page {
        Page {
            blocks: columns.iter().map(|&c| self.blocks[c].clone()).collect(),
            row_count: self.row_count,
        }
    }

    /// Append the columns of `other` (same row count) to this page; both
    /// pages' blocks move, none is copied.
    pub fn append_columns(mut self, other: Page) -> Page {
        assert_eq!(
            self.row_count, other.row_count,
            "column append row mismatch"
        );
        self.blocks.extend(other.blocks);
        self
    }

    /// First `n` rows.
    pub fn truncate(&self, n: usize) -> Page {
        if n >= self.row_count {
            return self.clone();
        }
        let positions: Vec<u32> = (0..n as u32).collect();
        self.filter(&positions)
    }

    /// Force every lazy block to materialize. Used before pages cross task
    /// boundaries (serialization) or get retained in operator state.
    pub fn load_all(&self) -> Page {
        Page {
            blocks: self.blocks.iter().map(|b| b.loaded().clone()).collect(),
            row_count: self.row_count,
        }
    }

    /// [`load_all`](Self::load_all) for an owned page: loaded blocks move
    /// as they are and only lazy ones are materialized, so a page that
    /// crosses a task boundary unserialized is not copied on the way.
    pub fn into_loaded(self) -> Page {
        let blocks = self.blocks.into_iter();
        Page {
            blocks: blocks
                .map(|b| match b {
                    Block::Lazy(_) => b.loaded().clone(),
                    b => b,
                })
                .collect(),
            row_count: self.row_count,
        }
    }

    /// Every column as a flat block ([`Block::into_flat`]): RLE,
    /// dictionary and lazy columns are decoded once, flat ones move.
    pub fn into_flat(self) -> Page {
        Page {
            blocks: self.blocks.into_iter().map(Block::into_flat).collect(),
            row_count: self.row_count,
        }
    }

    /// Extract one row as typed values, given the page's schema.
    pub fn row(&self, schema: &Schema, i: usize) -> Vec<Value> {
        self.blocks
            .iter()
            .zip(schema.fields())
            .map(|(b, f)| b.value_at(f.data_type, i))
            .collect()
    }

    /// Build a page from row-oriented values (test / client convenience).
    pub fn from_rows(schema: &Schema, rows: &[Vec<Value>]) -> Page {
        let blocks = (0..schema.len())
            .map(|c| {
                let column: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
                Block::from_values(schema.data_type(c), &column)
            })
            .collect();
        Page {
            blocks,
            row_count: rows.len(),
        }
    }

    /// Materialize all rows as typed values (test / client convenience).
    pub fn to_rows(&self, schema: &Schema) -> Vec<Vec<Value>> {
        (0..self.row_count).map(|i| self.row(schema, i)).collect()
    }

    /// Concatenate pages (all with the same column layout) into one flat
    /// page: each column's parts, decoded once when not flat, are copied
    /// end to end on their lanes. A NULL cell holds the lane's default.
    pub fn concat(pages: &[Page]) -> Page {
        match pages {
            [] => Page::empty(),
            [single] => single.clone(),
            _ => Page {
                blocks: (0..pages[0].column_count())
                    .map(|c| {
                        let parts: Vec<Cow<Block>> =
                            pages.iter().map(|p| p.block(c).as_flat()).collect();
                        match parts[0].as_ref() {
                            Block::Long(_) => concat_lanes::<LongBlock>(&parts),
                            Block::Double(_) => concat_lanes::<DoubleBlock>(&parts),
                            Block::Bool(_) => concat_lanes::<BoolBlock>(&parts),
                            _ => concat_varchars(&parts),
                        }
                    })
                    .collect(),
                row_count: pages.iter().map(Page::row_count).sum(),
            },
        }
    }
}

/// The null masks of `parts` end to end; `None` when no cell is NULL.
fn concat_nulls(parts: &[(&NullMask, usize)]) -> NullMask {
    let any = parts
        .iter()
        .any(|(m, _)| m.as_ref().is_some_and(|m| m.contains(&true)));
    any.then(|| {
        let masks = parts
            .iter()
            .map(|&(m, len)| m.clone().unwrap_or_else(|| vec![false; len]));
        masks.flatten().collect()
    })
}

/// Flat `parts` of the lanes `L`, end to end.
fn concat_lanes<L: Lanes>(parts: &[Cow<Block>]) -> Block
where
    L::Lane: Default,
{
    let parts: Vec<&L> = parts
        .iter()
        .map(|p| L::of(p).expect("parts of one type"))
        .collect();
    let masks: Vec<_> = parts
        .iter()
        .map(|l| (l.null_mask(), l.lanes().len()))
        .collect();
    let nulls = concat_nulls(&masks);
    let values = parts.iter().flat_map(|l| l.lanes().iter().copied());
    let values = match &nulls {
        Some(mask) => values
            .zip(mask)
            .map(|(v, &null)| if null { L::Lane::default() } else { v })
            .collect(),
        None => values.collect(),
    };
    L::build(values, nulls)
}

/// Flat varchar `parts`, end to end.
fn concat_varchars(parts: &[Cow<Block>]) -> Block {
    let parts: Vec<&VarcharBlock> = parts
        .iter()
        .map(|p| match p.as_ref() {
            Block::Varchar(v) => v,
            _ => unreachable!("parts of one type"),
        })
        .collect();
    let masks: Vec<_> = parts.iter().map(|v| (&v.nulls, v.len())).collect();
    let mut out = VarcharBlock::from_strs::<&str>(&[]);
    for v in &parts {
        for i in 0..v.len() {
            if !v.is_null(i) {
                out.bytes.extend_from_slice(v.value(i).as_bytes());
            }
            out.offsets.push(out.bytes.len() as u32);
        }
    }
    out.nulls = concat_nulls(&masks);
    Block::Varchar(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{DoubleBlock, LongBlock, VarcharBlock};
    use presto_common::DataType;

    fn schema() -> Schema {
        Schema::of(&[
            ("k", DataType::Bigint),
            ("v", DataType::Double),
            ("s", DataType::Varchar),
        ])
    }

    fn page() -> Page {
        Page::new(vec![
            Block::from(LongBlock::from_values(vec![1, 2, 3])),
            Block::from(DoubleBlock::from_values(vec![0.1, 0.2, 0.3])),
            Block::from(VarcharBlock::from_strs(&["a", "b", "c"])),
        ])
    }

    #[test]
    #[should_panic(expected = "ragged page")]
    fn ragged_page_panics() {
        Page::new(vec![
            Block::from(LongBlock::from_values(vec![1])),
            Block::from(LongBlock::from_values(vec![1, 2])),
        ]);
    }

    #[test]
    fn rows_round_trip() {
        let s = schema();
        let rows = vec![
            vec![Value::Bigint(1), Value::Double(0.5), Value::varchar("x")],
            vec![Value::Null, Value::Double(1.5), Value::Null],
        ];
        let p = Page::from_rows(&s, &rows);
        assert_eq!(p.to_rows(&s), rows);
    }

    #[test]
    fn filter_and_project() {
        let p = page().filter(&[2, 0]).project(&[2, 0]);
        assert_eq!(p.row_count(), 2);
        assert_eq!(p.block(0).str_at(0), "c");
        assert_eq!(p.block(1).i64_at(1), 1);
    }

    #[test]
    fn concat_mixed_nulls() {
        let s = Schema::of(&[("x", DataType::Bigint)]);
        let a = Page::from_rows(&s, &[vec![Value::Bigint(1)]]);
        let b = Page::from_rows(&s, &[vec![Value::Null], vec![Value::Bigint(3)]]);
        let c = Page::concat(&[a, b]);
        assert_eq!(
            c.to_rows(&s),
            vec![
                vec![Value::Bigint(1)],
                vec![Value::Null],
                vec![Value::Bigint(3)]
            ]
        );
    }

    #[test]
    fn zero_column_page_carries_cardinality() {
        let p = Page::zero_column(10);
        assert_eq!(p.row_count(), 10);
        assert_eq!(p.column_count(), 0);
        assert_eq!(p.truncate(4).row_count(), 4);
    }

    #[test]
    fn truncate_noop_when_larger() {
        let p = page();
        assert_eq!(p.truncate(100).row_count(), 3);
    }

    #[test]
    fn append_columns() {
        let p = page();
        let extra = Page::new(vec![Block::from(LongBlock::from_values(vec![9, 9, 9]))]);
        let combined = p.append_columns(extra);
        assert_eq!(combined.column_count(), 4);
        assert_eq!(combined.block(3).i64_at(0), 9);
    }
}
