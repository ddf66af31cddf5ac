//! Built-in connectors.
//!
//! Table I of the paper maps each production use case to a connector; this
//! crate provides working equivalents of each:
//!
//! * [`memory::MemoryConnector`] — in-memory tables; the default catalog
//!   for quickstarts and tests.
//! * [`hive::HiveConnector`] — the "Hive/HDFS" shared-storage warehouse:
//!   PORC files under a directory tree, an embedded metastore, lazy batched
//!   split enumeration, stripe pruning, lazy column loads, optional table
//!   statistics (the Fig. 6 stats/no-stats toggle), and a configurable
//!   per-read latency to model remote storage.
//! * [`raptor::RaptorConnector`] — the shared-nothing storage engine built
//!   for Presto (§IV-D2): shards pinned to nodes (`node_local` layouts,
//!   splits with addresses), optional bucketing for co-located joins,
//!   metadata in an embedded store standing in for MySQL.
//! * [`sharded::ShardedSqlConnector`] — the "sharded MySQL" analogue from
//!   the Developer/Advertiser Analytics use case (§IV-B3-2): point/range
//!   predicates are pushed into shards so only matching data is read, and
//!   key columns expose an index for index-nested-loop joins.
//! * [`system::SystemConnector`] — the engine's own runtime state
//!   (`system.runtime.*`, §VII): queries, tasks, operators, memory pools,
//!   caches, dynamic filters, and the trace timeline as SQL tables, backed
//!   by a [`system::SystemStateProvider`] the cluster implements.

pub mod hive;
pub mod memory;
pub mod raptor;
pub mod sharded;
pub mod system;

pub use hive::HiveConnector;
pub use memory::MemoryConnector;
pub use raptor::RaptorConnector;
pub use sharded::ShardedSqlConnector;
pub use system::{SystemConnector, SystemStateProvider, SystemTable};
