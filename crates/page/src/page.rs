//! [`Page`]: the unit of data moved between operators by the driver loop.

use presto_common::{Schema, Value};

use crate::block::Block;

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

    /// Concatenate pages (all with the same column layout) into one flat page.
    pub fn concat(pages: &[Page]) -> Page {
        match pages {
            [] => Page::empty(),
            [single] => single.clone(),
            _ => {
                let columns = pages[0].column_count();
                let total: usize = pages.iter().map(Page::row_count).sum();
                let blocks = (0..columns)
                    .map(|c| {
                        // Decode-and-copy concat; only used off the hot path
                        // (final result assembly, spill merge, tests).
                        let mut out: Option<ConcatBuilder> = None;
                        for p in pages {
                            let b = p.block(c).decode();
                            out.get_or_insert_with(|| ConcatBuilder::for_block(&b))
                                .push(&b);
                        }
                        out.expect("non-empty page list").finish()
                    })
                    .collect();
                Page {
                    blocks,
                    row_count: total,
                }
            }
        }
    }
}

/// Helper that appends decoded flat blocks of one physical type.
struct ConcatBuilder {
    template: Block,
    parts: Vec<Block>,
}

impl ConcatBuilder {
    fn for_block(b: &Block) -> ConcatBuilder {
        ConcatBuilder {
            template: b.clone(),
            parts: Vec::new(),
        }
    }

    fn push(&mut self, b: &Block) {
        self.parts.push(b.clone());
    }

    fn finish(self) -> Block {
        use crate::blocks::*;
        let total: usize = self.parts.iter().map(Block::len).sum();
        let any_null = self
            .parts
            .iter()
            .any(|p| (0..p.len()).any(|i| p.is_null(i)));
        let mut nulls = if any_null {
            Some(Vec::with_capacity(total))
        } else {
            None
        };
        macro_rules! gather {
            ($get:ident, $default:expr) => {{
                let mut values = Vec::with_capacity(total);
                for p in &self.parts {
                    for i in 0..p.len() {
                        let null = p.is_null(i);
                        if let Some(mask) = nulls.as_mut() {
                            mask.push(null);
                        }
                        values.push(if null { $default } else { p.$get(i) });
                    }
                }
                values
            }};
        }
        match self.template.physical_type() {
            crate::block::PhysicalType::Long => {
                let values = gather!(i64_at, 0);
                Block::Long(LongBlock::new(values, nulls))
            }
            crate::block::PhysicalType::Double => {
                let values = gather!(f64_at, 0.0);
                Block::Double(DoubleBlock::new(values, nulls))
            }
            crate::block::PhysicalType::Bool => {
                let values = gather!(bool_at, false);
                Block::Bool(BoolBlock::new(values, nulls))
            }
            crate::block::PhysicalType::Varchar => {
                let mut strs: Vec<Option<String>> = Vec::with_capacity(total);
                for p in &self.parts {
                    for i in 0..p.len() {
                        strs.push(if p.is_null(i) {
                            None
                        } else {
                            Some(p.str_at(i).to_string())
                        });
                    }
                }
                Block::Varchar(VarcharBlock::from_options(&strs))
            }
        }
    }
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
