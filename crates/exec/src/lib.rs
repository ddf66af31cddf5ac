//! Query execution: operators, pipelines, and the driver loop (§IV-E).
//!
//! A plan fragment compiles into a [`task::Task`]: one or more
//! [`pipeline::Pipeline`]s of [`operator::Operator`]s linked by in-memory
//! bridges (Fig. 4). Leaf pipelines can run many parallel drivers sharing a
//! split queue (intra-node parallelism, §IV-C4); a hash join splits into a
//! build pipeline and a probe pipeline joined by a
//! [`join::JoinBridge`].
//!
//! The [`driver::Driver`] implements the paper's driver loop: "more complex
//! than the popular Volcano (pull) model … operators can be quickly brought
//! to a known state before yielding the thread instead of blocking
//! indefinitely. Every iteration of the loop moves data between all pairs
//! of operators that can make progress." Drivers yield on quanta expiry,
//! full output buffers, empty exchange inputs, and memory-pool exhaustion —
//! the cooperative multitasking substrate the worker scheduler (in
//! `presto-cluster`) relies on.

pub mod agg;
pub mod driver;
pub mod dynfilter;
pub mod exchange;
pub mod filter;
pub mod flathash;
pub mod join;
pub mod memory;
pub mod operator;
pub mod partitioned_output;
pub mod pipeline;
pub mod scan;
pub mod sort;
pub mod spill;
pub mod stats;
pub mod task;
pub mod window;
pub mod writer;

pub use driver::{Driver, DriverState};
pub use dynfilter::{
    DynamicFilterRegistry, PublishedFilter, ScanDynamicFilter, TaskDynamicFilters,
};
pub use memory::{MemoryPool, RevocationHandle, TaskMemoryContext, UnlimitedPool};
pub use operator::{BlockedReason, Operator, OperatorStats};
pub use pipeline::Pipeline;
pub use spill::{SpillManager, SpillRun};
pub use stats::{
    DriverStatsReport, OperatorStatsEntry, PipelineStats, QueryPhases, QueryStats, StageStats,
    TaskStats, TaskStatsCollector,
};
pub use task::{Task, TaskContext};
