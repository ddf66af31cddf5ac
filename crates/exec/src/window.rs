//! The window operator: partitions, sorts, and evaluates window functions.

use presto_common::Result;
use presto_page::{Block, Page};
use presto_planner::plan::WindowFnSpec;
use presto_planner::SortKey;
use std::collections::VecDeque;

use crate::operator::Operator;
use crate::sort::{compare_rows, sort_page};

/// Accumulates its input (one hash partition of the data), then sorts by
/// (partition keys, order keys) and evaluates each function per partition.
pub struct WindowOperator {
    partition_by: Vec<usize>,
    order_by: Vec<SortKey>,
    functions: Vec<WindowFnSpec>,
    buffered: Vec<Page>,
    buffered_bytes: usize,
    input_done: bool,
    outputs: VecDeque<Page>,
    produced: bool,
}

impl WindowOperator {
    pub fn new(
        partition_by: Vec<usize>,
        order_by: Vec<SortKey>,
        functions: Vec<WindowFnSpec>,
    ) -> WindowOperator {
        WindowOperator {
            partition_by,
            order_by,
            functions,
            buffered: Vec::new(),
            buffered_bytes: 0,
            input_done: false,
            outputs: VecDeque::new(),
            produced: false,
        }
    }

    fn compute(&mut self) -> Result<()> {
        let all = Page::concat(&std::mem::take(&mut self.buffered));
        self.buffered_bytes = 0;
        if all.row_count() == 0 {
            return Ok(());
        }
        // Sort by partition keys then order keys.
        let mut keys: Vec<SortKey> = self
            .partition_by
            .iter()
            .map(|&c| SortKey {
                channel: c,
                ascending: true,
                nulls_first: false,
            })
            .collect();
        keys.extend(self.order_by.iter().copied());
        let sorted = sort_page(&all, &keys);
        let rows = sorted.row_count();
        // Partition boundaries.
        let partition_keys: Vec<SortKey> = self
            .partition_by
            .iter()
            .map(|&c| SortKey {
                channel: c,
                ascending: true,
                nulls_first: false,
            })
            .collect();
        let mut boundaries = vec![0usize];
        for i in 1..rows {
            if compare_rows(&sorted, i - 1, &sorted, i, &partition_keys)
                != std::cmp::Ordering::Equal
            {
                boundaries.push(i);
            }
        }
        boundaries.push(rows);
        // Peer groups within partitions (equal order keys).
        let mut fn_columns: Vec<Vec<Block>> = vec![Vec::new(); self.functions.len()];
        for w in boundaries.windows(2) {
            let (start, end) = (w[0], w[1]);
            let len = end - start;
            let mut peers = vec![0u32; len];
            let mut group = 0u32;
            for (i, peer) in peers.iter_mut().enumerate().skip(1) {
                if compare_rows(&sorted, start + i - 1, &sorted, start + i, &self.order_by)
                    != std::cmp::Ordering::Equal
                {
                    group += 1;
                }
                *peer = group;
            }
            let positions: Vec<u32> = (start as u32..end as u32).collect();
            for (fi, f) in self.functions.iter().enumerate() {
                let input = f.input.map(|c| sorted.block(c).filter(&positions));
                let block = f.function.evaluate_partition(len, &peers, input.as_ref())?;
                fn_columns[fi].push(block);
            }
        }
        // Assemble output: sorted input columns + one appended column per fn.
        let mut blocks: Vec<Block> = sorted.blocks().to_vec();
        for cols in fn_columns {
            // Concatenate this function's per-partition blocks in order.
            let pages: Vec<Page> = cols.into_iter().map(|b| Page::new(vec![b])).collect();
            let merged = Page::concat(&pages);
            blocks.push(merged.block(0).clone());
        }
        self.outputs.push_back(Page::new(blocks));
        Ok(())
    }
}

impl Operator for WindowOperator {
    fn name(&self) -> &'static str {
        "Window"
    }

    fn needs_input(&self) -> bool {
        !self.input_done
    }

    fn add_input(&mut self, page: Page) -> Result<()> {
        self.buffered_bytes += page.size_in_bytes();
        self.buffered.push(page.load_all());
        Ok(())
    }

    fn finish(&mut self) {
        self.input_done = true;
    }

    fn output(&mut self) -> Result<Option<Page>> {
        if let Some(p) = self.outputs.pop_front() {
            return Ok(Some(p));
        }
        if !self.input_done || self.produced {
            return Ok(None);
        }
        self.produced = true;
        self.compute()?;
        Ok(self.outputs.pop_front())
    }

    fn is_finished(&self) -> bool {
        self.input_done && self.produced && self.outputs.is_empty()
    }

    fn user_memory_bytes(&self) -> usize {
        self.buffered_bytes
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::{DataType, Schema, Value};
    use presto_expr::WindowFunction;

    fn sales_page() -> Page {
        let schema = Schema::of(&[("region", DataType::Varchar), ("amount", DataType::Bigint)]);
        Page::from_rows(
            &schema,
            &[
                vec![Value::varchar("east"), Value::Bigint(10)],
                vec![Value::varchar("west"), Value::Bigint(30)],
                vec![Value::varchar("east"), Value::Bigint(20)],
                vec![Value::varchar("west"), Value::Bigint(30)],
                vec![Value::varchar("west"), Value::Bigint(5)],
            ],
        )
    }

    #[test]
    fn rank_per_partition() {
        let mut op = WindowOperator::new(
            vec![0],
            vec![SortKey {
                channel: 1,
                ascending: false,
                nulls_first: false,
            }],
            vec![WindowFnSpec {
                function: WindowFunction::Rank,
                input: None,
                name: "r".into(),
            }],
        );
        op.add_input(sales_page()).unwrap();
        op.finish();
        let p = op.output().unwrap().unwrap();
        assert_eq!(p.column_count(), 3);
        // Collect (region, amount, rank) triples.
        let mut rows: Vec<(String, i64, i64)> = (0..p.row_count())
            .map(|i| {
                (
                    p.block(0).str_at(i).to_string(),
                    p.block(1).i64_at(i),
                    p.block(2).i64_at(i),
                )
            })
            .collect();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                ("east".into(), 10, 2),
                ("east".into(), 20, 1),
                ("west".into(), 5, 3),
                ("west".into(), 30, 1),
                ("west".into(), 30, 1), // ties share a rank
            ]
        );
    }

    #[test]
    fn cumulative_sum_over_partition() {
        let mut op = WindowOperator::new(
            vec![0],
            vec![SortKey {
                channel: 1,
                ascending: true,
                nulls_first: false,
            }],
            vec![WindowFnSpec {
                function: WindowFunction::Aggregate(
                    presto_expr::AggregateFunction::new(
                        presto_expr::AggregateKind::Sum,
                        Some(DataType::Bigint),
                    )
                    .unwrap(),
                ),
                input: Some(1),
                name: "s".into(),
            }],
        );
        op.add_input(sales_page()).unwrap();
        op.finish();
        let p = op.output().unwrap().unwrap();
        let mut rows: Vec<(String, i64, i64)> = (0..p.row_count())
            .map(|i| {
                (
                    p.block(0).str_at(i).to_string(),
                    p.block(1).i64_at(i),
                    p.block(2).i64_at(i),
                )
            })
            .collect();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                ("east".into(), 10, 10),
                ("east".into(), 20, 30),
                ("west".into(), 5, 5),
                ("west".into(), 30, 65), // peers (30, 30) share the total
                ("west".into(), 30, 65),
            ]
        );
    }

    #[test]
    fn empty_input_produces_nothing() {
        let mut op = WindowOperator::new(vec![], vec![], vec![]);
        op.finish();
        assert!(op.output().unwrap().is_none());
        assert!(op.is_finished());
    }
}
