//! The Data Location API: splits and lazy split enumeration.
//!
//! A split is "an opaque handle to an addressable chunk of data in an
//! external storage system" (§III). Enumeration is *lazy and batched*
//! (§IV-D3): the coordinator asks the connector for small batches so that
//! query start-up does not wait for full enumeration, LIMIT-style queries
//! can finish before enumeration completes, and coordinator memory stays
//! bounded.

use crate::domain::TupleDomain;
use presto_common::{NodeId, Result};
use std::sync::Arc;

/// Connector-specific split payload. In-process connectors downcast it;
/// the engine never looks inside.
pub type SplitPayload = Arc<dyn std::any::Any + Send + Sync>;

/// One unit of leaf work.
#[derive(Clone)]
pub struct Split {
    /// Catalog this split belongs to.
    pub catalog: String,
    /// Table this split reads.
    pub table: String,
    /// Opaque connector payload (file/stripe range, shard id, …).
    pub payload: SplitPayload,
    /// Nodes that can serve this split locally; empty = any node. Used for
    /// shared-nothing placement and rack-local preferences (§IV-D2).
    pub addresses: Vec<NodeId>,
    /// Estimated rows in the split, for progress and skew heuristics.
    pub estimated_rows: u64,
    /// Bucket index for bucketed layouts; the scheduler routes same-bucket
    /// splits (across co-partitioned tables) to the same task, enabling
    /// co-located joins (§IV-C3).
    pub bucket: Option<usize>,
    /// Value summary over table-schema column indices (e.g. per-column
    /// min/max across the split's stripes). Lets the scheduler re-prune
    /// still-unassigned splits when a dynamic filter narrows the predicate
    /// after enumeration.
    pub domain: Option<TupleDomain>,
    /// Human-readable description for telemetry.
    pub info: String,
}

impl std::fmt::Debug for Split {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Split")
            .field("catalog", &self.catalog)
            .field("table", &self.table)
            .field("addresses", &self.addresses)
            .field("info", &self.info)
            .finish()
    }
}

/// Lazily enumerates splits in batches.
pub trait SplitSource: Send {
    /// Up to `max` (at least 1) more splits. A source with none ready yet
    /// waits until it has some: an empty batch means enumeration is over,
    /// and [`SplitSource::is_finished`] is then true. The scheduler fails
    /// the query on an empty batch from an unfinished source.
    fn next_batch(&mut self, max: usize) -> Result<Vec<Split>>;

    /// Whether enumeration is complete.
    fn is_finished(&self) -> bool;
}

/// A [`SplitSource`] over a pre-computed split list, batching on demand.
/// Most embedded connectors use this; the Hive-like connector implements
/// its own source that walks files incrementally.
pub struct FixedSplitSource {
    splits: std::vec::IntoIter<Split>,
    finished: bool,
}

impl FixedSplitSource {
    pub fn new(splits: Vec<Split>) -> FixedSplitSource {
        let finished = splits.is_empty();
        FixedSplitSource {
            splits: splits.into_iter(),
            finished,
        }
    }
}

impl SplitSource for FixedSplitSource {
    fn next_batch(&mut self, max: usize) -> Result<Vec<Split>> {
        let batch: Vec<Split> = self.splits.by_ref().take(max).collect();
        if batch.len() < max {
            self.finished = true;
        }
        Ok(batch)
    }

    fn is_finished(&self) -> bool {
        self.finished
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn split(i: usize) -> Split {
        Split {
            catalog: "test".into(),
            table: "t".into(),
            payload: Arc::new(i),
            addresses: vec![],
            estimated_rows: 1,
            bucket: None,
            domain: None,
            info: format!("split-{i}"),
        }
    }

    #[test]
    fn fixed_source_batches() {
        let mut src = FixedSplitSource::new((0..5).map(split).collect());
        assert!(!src.is_finished());
        assert_eq!(src.next_batch(2).unwrap().len(), 2);
        assert_eq!(src.next_batch(2).unwrap().len(), 2);
        assert!(!src.is_finished());
        assert_eq!(src.next_batch(2).unwrap().len(), 1);
        assert!(src.is_finished());
        assert!(src.next_batch(2).unwrap().is_empty());
    }

    #[test]
    fn batches_are_empty_only_once_finished() {
        for n in [0, 1, 3, 4, 8] {
            for max in [1, 2, 4] {
                let mut src = FixedSplitSource::new((0..n).map(split).collect());
                let mut seen = 0;
                loop {
                    let batch = src.next_batch(max).unwrap();
                    if batch.is_empty() {
                        assert!(src.is_finished(), "{n} splits, batches of {max}");
                        break;
                    }
                    seen += batch.len();
                }
                assert_eq!(seen, n);
            }
        }
    }

    #[test]
    fn empty_source_is_immediately_finished() {
        let src = FixedSplitSource::new(vec![]);
        assert!(src.is_finished());
    }

    #[test]
    fn payload_downcasts() {
        let s = split(7);
        assert_eq!(*s.payload.downcast_ref::<usize>().unwrap(), 7);
    }
}
