//! Strongly-typed identifiers for the moving parts of a distributed query.
//!
//! A query is decomposed into *stages*; each stage runs as one or more
//! *tasks* placed on worker *nodes*; leaf tasks are fed *splits*. The
//! hierarchy mirrors §III/§IV-D of the paper: identifiers nest so that a
//! `TaskId` names its stage and a `StageId` names its query, which makes
//! telemetry and shuffle addressing unambiguous.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cluster-unique identifier for one admitted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// One stage (plan fragment) of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StageId {
    pub query: QueryId,
    pub stage: u32,
}

/// One task: the unit of work the coordinator places on a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId {
    pub stage: StageId,
    pub task: u32,
}

/// A worker node in the cluster. The coordinator is not a `NodeId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier for a node of a logical or physical query plan. Assigned by the
/// planner; stable across optimization so rules can be traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanNodeId(pub u32);

impl QueryId {
    /// Produce the stage id for fragment `stage` of this query.
    pub fn stage(self, stage: u32) -> StageId {
        StageId { query: self, stage }
    }
}

impl StageId {
    /// Produce the task id for task `task` of this stage.
    pub fn task(self, task: u32) -> TaskId {
        TaskId { stage: self, task }
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.query, self.stage)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.stage, self.task)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

impl fmt::Display for PlanNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Monotonic generator for [`QueryId`]s, used by the coordinator.
#[derive(Debug, Default)]
pub struct QueryIdGenerator {
    next: AtomicU64,
}

impl QueryIdGenerator {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn next_id(&self) -> QueryId {
        QueryId(self.next.fetch_add(1, Ordering::Relaxed))
    }
}

/// Monotonic generator for [`PlanNodeId`]s, owned by a single planning pass.
#[derive(Debug, Default)]
pub struct PlanNodeIdAllocator {
    next: u32,
}

impl PlanNodeIdAllocator {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn next_id(&mut self) -> PlanNodeId {
        let id = PlanNodeId(self.next);
        self.next += 1;
        id
    }

    /// Never hand out `id` or any id below it: the ids of a plan the
    /// caller is about to extend.
    pub fn skip_past(&mut self, id: PlanNodeId) {
        self.next = self.next.max(id.0 + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_display() {
        let q = QueryId(7);
        let s = q.stage(2);
        let t = s.task(3);
        assert_eq!(t.stage.query, q);
        assert_eq!(format!("{t}"), "q7.2.3");
        assert_eq!(format!("{}", NodeId(4)), "node-4");
    }

    #[test]
    fn generators_are_monotonic() {
        let g = QueryIdGenerator::new();
        assert!(g.next_id() < g.next_id());
        let mut a = PlanNodeIdAllocator::new();
        assert!(a.next_id() < a.next_id());
        a.skip_past(PlanNodeId(9));
        assert_eq!(a.next_id(), PlanNodeId(10));
        a.skip_past(PlanNodeId(3));
        assert_eq!(a.next_id(), PlanNodeId(11));
    }

    #[test]
    fn ids_order_hierarchically() {
        // Tasks sort first by query, then stage, then task index — useful for
        // deterministic telemetry output.
        let a = QueryId(1).stage(0).task(5);
        let b = QueryId(1).stage(1).task(0);
        let c = QueryId(2).stage(0).task(0);
        assert!(a < b && b < c);
    }
}
