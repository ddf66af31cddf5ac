//! Window function definitions.
//!
//! The Developer/Advertiser Analytics use case (§II-D) relies on window
//! functions ("Most query shapes contain joins, aggregations or window
//! functions"). We implement the ranking family plus aggregate-over-window
//! with the standard default frame (range between unbounded preceding and
//! current row). Evaluation lives in the window operator in `presto-exec`;
//! this module defines signatures and per-partition computation.

use presto_common::{DataType, PrestoError, Result};
use presto_page::{Block, BlockBuilder};

use crate::agg::{AggregateFunction, AggregateKind, Groups};

/// A resolved window function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowFunction {
    RowNumber,
    Rank,
    DenseRank,
    /// An aggregate evaluated cumulatively over the default frame.
    Aggregate(AggregateFunction),
}

impl WindowFunction {
    /// Resolve by SQL name; aggregates fall through to the aggregate registry.
    pub fn resolve(name: &str, arg_type: Option<DataType>) -> Result<WindowFunction> {
        match name.to_ascii_lowercase().as_str() {
            "row_number" => Ok(WindowFunction::RowNumber),
            "rank" => Ok(WindowFunction::Rank),
            "dense_rank" => Ok(WindowFunction::DenseRank),
            other => {
                let kind = AggregateKind::resolve(other, arg_type.is_some(), false)?;
                Ok(WindowFunction::Aggregate(AggregateFunction::new(
                    kind, arg_type,
                )?))
            }
        }
    }

    pub fn output_type(&self) -> DataType {
        match self {
            WindowFunction::RowNumber | WindowFunction::Rank | WindowFunction::DenseRank => {
                DataType::Bigint
            }
            WindowFunction::Aggregate(f) => f.output_type(),
        }
    }

    /// Whether the function needs an ORDER BY to be meaningful. Ranking
    /// functions without ORDER BY are a user error in the analyzer.
    pub fn requires_order(&self) -> bool {
        matches!(self, WindowFunction::Rank | WindowFunction::DenseRank)
    }

    /// Evaluate this function over one partition.
    ///
    /// `rows` are partition-local row indices of the *sorted* partition in
    /// the source page; `peer_groups[i]` is the index of the ORDER BY peer
    /// group row `i` belongs to (rows with equal sort keys are peers);
    /// `input` is the argument column for aggregates.
    pub fn evaluate_partition(
        &self,
        rows: usize,
        peer_groups: &[u32],
        input: Option<&Block>,
    ) -> Result<Block> {
        if peer_groups.len() != rows {
            return Err(PrestoError::internal(
                "window: peer group vector length mismatch",
            ));
        }
        let mut out = BlockBuilder::with_capacity(self.output_type(), rows);
        match self {
            WindowFunction::RowNumber => {
                for i in 0..rows {
                    out.push_i64(i as i64 + 1);
                }
            }
            WindowFunction::Rank => {
                // Rank = 1 + number of rows strictly before this peer group.
                let mut rank = 1i64;
                let mut group_start = 0usize;
                for i in 0..rows {
                    if i > 0 && peer_groups[i] != peer_groups[i - 1] {
                        rank += (i - group_start) as i64;
                        group_start = i;
                    }
                    out.push_i64(rank);
                }
            }
            WindowFunction::DenseRank => {
                let mut rank = 0i64;
                for i in 0..rows {
                    if i == 0 || peer_groups[i] != peer_groups[i - 1] {
                        rank += 1;
                    }
                    out.push_i64(rank);
                }
            }
            WindowFunction::Aggregate(f) => {
                // Default frame: cumulative up to the end of the current peer
                // group. Compute per-peer-group prefixes by accumulating rows
                // group by group and emitting the running result.
                let mut acc = f.create_accumulator();
                let mut i = 0usize;
                let mut results: Vec<(usize, usize)> = Vec::new(); // (start, end) of group
                while i < rows {
                    let mut j = i;
                    while j < rows && peer_groups[j] == peer_groups[i] {
                        j += 1;
                    }
                    results.push((i, j));
                    i = j;
                }
                for &(start, end) in &results {
                    // Add this group's rows to the running accumulator...
                    match input {
                        Some(block) => {
                            let positions: Vec<u32> = (start as u32..end as u32).collect();
                            let slice = block.filter(&positions);
                            acc.add_input(Some(&slice), Groups::Global(end - start))?;
                        }
                        None => acc.add_input(None, Groups::Global(end - start))?,
                    }
                    // ...then every row in the group sees the cumulative value.
                    let value_block = acc.write_final();
                    for _ in start..end {
                        out.append_from(&value_block, 0);
                    }
                }
            }
        }
        Ok(out.finish())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_page::blocks::LongBlock;

    #[test]
    fn resolve_names() {
        assert_eq!(
            WindowFunction::resolve("ROW_NUMBER", None).unwrap(),
            WindowFunction::RowNumber
        );
        assert!(matches!(
            WindowFunction::resolve("sum", Some(DataType::Bigint)).unwrap(),
            WindowFunction::Aggregate(_)
        ));
        assert!(WindowFunction::resolve("no_such", None).is_err());
    }

    #[test]
    fn ranking_functions() {
        // Sorted partition with peer groups: [a, a, b, c, c, c]
        let peers = vec![0, 0, 1, 2, 2, 2];
        let rn = WindowFunction::RowNumber
            .evaluate_partition(6, &peers, None)
            .unwrap();
        assert_eq!(
            (0..6).map(|i| rn.i64_at(i)).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5, 6]
        );
        let rank = WindowFunction::Rank
            .evaluate_partition(6, &peers, None)
            .unwrap();
        assert_eq!(
            (0..6).map(|i| rank.i64_at(i)).collect::<Vec<_>>(),
            vec![1, 1, 3, 4, 4, 4]
        );
        let dense = WindowFunction::DenseRank
            .evaluate_partition(6, &peers, None)
            .unwrap();
        assert_eq!(
            (0..6).map(|i| dense.i64_at(i)).collect::<Vec<_>>(),
            vec![1, 1, 2, 3, 3, 3]
        );
    }

    #[test]
    fn cumulative_sum_respects_peer_groups() {
        let f = AggregateFunction::new(AggregateKind::Sum, Some(DataType::Bigint)).unwrap();
        let w = WindowFunction::Aggregate(f);
        let input = Block::from(LongBlock::from_values(vec![10, 20, 30, 40]));
        // Two middle rows are peers: they share the cumulative value.
        let peers = vec![0, 1, 1, 2];
        let out = w.evaluate_partition(4, &peers, Some(&input)).unwrap();
        assert_eq!(
            (0..4).map(|i| out.i64_at(i)).collect::<Vec<_>>(),
            vec![10, 60, 60, 100]
        );
    }

    #[test]
    fn row_number_needs_no_order() {
        assert!(!WindowFunction::RowNumber.requires_order());
        assert!(WindowFunction::Rank.requires_order());
    }
}
