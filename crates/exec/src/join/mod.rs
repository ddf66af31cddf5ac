//! Hash joins (build + probe pipelines, Fig. 4) and index joins.
//!
//! Every hash join runs one partitioned path (§V-E, §IV-F2). Each
//! [`HashBuilderOperator`] hashes its pages and scatters their rows by radix
//! partition — off the bridge lock — into per-partition buffers that reach
//! the [`JoinBridge`] as full pages. A partition is either resident or, once
//! a memory revocation spilled it, a run file that later rows append to.
//! When all builders are done, the resident partitions' flat tables are
//! built by whichever build drivers are available, each claiming partitions
//! from a shared queue. The in-memory join is the case where no partition
//! spilled.
//!
//! The probe side is batched: one vectorized hash pass per page, one
//! index-vector gather per side, with dictionary and RLE fast paths that
//! resolve each distinct key once per page instead of once per row. Probe
//! rows of spilled partitions go to disk too, and each (build, probe) pair
//! is joined after the probe input ends (the grace join).

mod bridge;
mod index;
mod partition;
mod probe;
mod table;

pub use bridge::{HashBuilderOperator, JoinBridge};
pub use index::IndexJoinOperator;
pub use probe::{LookupJoinOperator, ProbeJoinType};
pub use table::JoinHashTable;

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests;
