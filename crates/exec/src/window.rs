//! The window operator: a [`SortOperator`] on (partition keys, order
//! keys), then each function evaluated per partition of the sorted rows.

use presto_common::Result;
use presto_page::{Block, Page};
use presto_planner::plan::WindowFnSpec;
use presto_planner::SortKey;
use std::cmp::Ordering;
use std::sync::Arc;

use crate::operator::Operator;
use crate::sort::{SortKeys, SortOperator};
use crate::spill::SpillManager;

/// Sorts its input (one hash partition of the data) by the partition keys
/// (ASC NULLS LAST), then the order keys, and evaluates each function per
/// partition. Buffering, memory accounting and spill are the sort's.
pub struct WindowOperator {
    sort: SortOperator,
    /// How many of the sort keys are partition keys; the rest order rows
    /// within a partition.
    partition_keys: usize,
    functions: Vec<WindowFnSpec>,
}

impl WindowOperator {
    pub fn new(
        partition_by: Vec<usize>,
        order_by: Vec<SortKey>,
        functions: Vec<WindowFnSpec>,
    ) -> WindowOperator {
        let partition_keys = partition_by.len();
        let partitions = partition_by.into_iter().map(|channel| SortKey {
            channel,
            ascending: true,
            nulls_first: false,
        });
        WindowOperator {
            sort: SortOperator::new(partitions.chain(order_by).collect(), None),
            partition_keys,
            functions,
        }
    }

    /// Spill sorted runs through `spill` when memory is revoked.
    pub fn with_spill(mut self, spill: Option<Arc<SpillManager>>) -> WindowOperator {
        self.sort.spill = spill;
        self
    }
}

/// Each function's column over `sorted`, which is sorted on `keys`, whose
/// first `partition_keys` are the partition keys.
fn function_columns(
    sorted: &Page,
    keys: &[SortKey],
    partition_keys: usize,
    functions: &[WindowFnSpec],
) -> Result<Vec<Block>> {
    let rows = sorted.row_count();
    let (partition_by, order_by) = keys.split_at(partition_keys);
    let partitions = SortKeys::new(sorted, partition_by);
    let peers_by = SortKeys::new(sorted, order_by);
    let mut boundaries = vec![0usize];
    let starts = (1..rows).filter(|&i| partitions.cmp(i - 1, &partitions, i) != Ordering::Equal);
    boundaries.extend(starts);
    boundaries.push(rows);
    let mut fn_columns: Vec<Vec<Page>> = vec![Vec::new(); functions.len()];
    for w in boundaries.windows(2) {
        let (start, end) = (w[0], w[1]);
        // Peer groups within the partition (equal order keys).
        let new_group =
            |i: usize| i > start && peers_by.cmp(i - 1, &peers_by, i) != Ordering::Equal;
        let peers: Vec<u32> = (start..end)
            .scan(0, |group, i| {
                *group += u32::from(new_group(i));
                Some(*group)
            })
            .collect();
        let positions: Vec<u32> = (start as u32..end as u32).collect();
        for (fi, f) in functions.iter().enumerate() {
            let input = f.input.map(|c| sorted.block(c).filter(&positions));
            let block = f
                .function
                .evaluate_partition(end - start, &peers, input.as_ref())?;
            fn_columns[fi].push(Page::new(vec![block]));
        }
    }
    // Concatenate each function's per-partition blocks in order.
    let columns = fn_columns
        .iter()
        .flat_map(|parts| Page::concat(parts).into_blocks());
    Ok(columns.collect())
}

impl Operator for WindowOperator {
    fn name(&self) -> &'static str {
        "Window"
    }

    fn needs_input(&self) -> bool {
        self.sort.needs_input()
    }

    fn add_input(&mut self, page: Page) -> Result<()> {
        self.sort.add_input(page)
    }

    fn finish(&mut self) {
        self.sort.finish();
    }

    fn output(&mut self) -> Result<Option<Page>> {
        let (partition_keys, functions) = (self.partition_keys, &self.functions);
        self.sort.output_with(|sorted, keys| {
            let columns = function_columns(&sorted, keys, partition_keys, functions)?;
            let mut blocks = sorted.into_blocks();
            blocks.extend(columns);
            Ok(Page::new(blocks))
        })
    }

    fn is_finished(&self) -> bool {
        self.sort.is_finished()
    }

    fn user_memory_bytes(&self) -> usize {
        self.sort.user_memory_bytes()
    }

    fn can_revoke_memory(&self) -> bool {
        self.sort.can_revoke_memory()
    }

    fn revoke_memory(&mut self) -> Result<u64> {
        self.sort.revoke_memory()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.sort.counters()
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
