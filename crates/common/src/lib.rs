//! Shared foundation types for the presto-rs engine.
//!
//! This crate holds everything the rest of the workspace agrees on: the SQL
//! [`types::DataType`] system, single-row [`value::Value`]s, table
//! [`schema::Schema`]s, strongly-typed identifiers for queries / stages /
//! tasks / splits, the [`error::PrestoError`] hierarchy (with the
//! user/internal/resource/external classification the coordinator uses for
//! retry decisions), per-query [`session::Session`] configuration, and the
//! statistics model ([`stats`]) shared by connectors and the cost-based
//! optimizer.

pub mod chaos;
pub mod counters;
pub mod error;
pub mod histogram;
pub mod id;
pub mod json;
pub mod schema;
pub mod session;
pub mod stats;
pub mod time;
pub mod trace;
pub mod types;
pub mod value;
pub mod wake;

pub use error::{ErrorCode, PrestoError, Result};
pub use histogram::{LatencyHistogram, LatencySummary};
pub use id::{NodeId, PlanNodeId, QueryId, StageId, TaskId};
pub use schema::{Field, Schema};
pub use session::Session;
pub use stats::{ColumnStatistics, Estimate, TableStatistics};
pub use trace::{TraceBuffer, TraceEvent, TraceKind};
pub use types::DataType;
pub use value::Value;
