//! Query planning: analysis, optimization, and fragmentation.
//!
//! The pipeline mirrors §IV-B/§IV-C of the paper:
//!
//! 1. [`analyzer::Analyzer`] resolves names/types and lowers the AST into a
//!    logical [`plan::PlanNode`] tree (Fig. 2);
//! 2. [`optimizer::optimize`] applies the greedy rule set — constant
//!    folding, predicate/limit pushdown, connector-domain extraction,
//!    column pruning — plus the cost-based rules in [`cbo`] (join
//!    re-ordering, join distribution selection, index joins);
//! 3. [`fragment::fragment_plan`] cuts the plan into distributable
//!    [`fragment::PlanFragment`]s, inserting shuffles only where the plan's
//!    data-layout properties do not already satisfy the requirement
//!    (Fig. 3 and the §IV-C3 shuffle-elision discussion).

pub mod analyzer;
pub mod cbo;
pub mod dynfilter;
pub mod fragment;
pub mod fusion;
pub mod optimizer;
pub mod plan;
pub mod stats;

use presto_common::id::PlanNodeIdAllocator;
use presto_common::{Result, Session};
use presto_connector::CatalogManager;
use presto_sql::ast::Statement;

pub use dynfilter::{DynamicFilterKey, DynamicFilterSpec};
pub use fragment::{FragmentPartitioning, OutputPartitioning, PhysicalPlan, PlanFragment};
pub use fusion::{FusedChainSpec, FusedStage};
pub use plan::{AggregateStep, JoinDistribution, JoinType, PlanNode, SortKey};

/// Plan a parsed statement end-to-end: analyze → optimize → fragment.
pub fn plan_statement(
    statement: &Statement,
    session: &Session,
    catalogs: &CatalogManager,
) -> Result<PhysicalPlan> {
    let mut analyzer = analyzer::Analyzer::new(catalogs, session);
    let logical = analyzer.analyze(statement)?;
    let optimized =
        optimizer::optimize(logical, session, catalogs, &mut PlanNodeIdAllocator::new())?;
    fragment::fragment_plan(optimized, session, catalogs)
}

/// Analyze + optimize only (for EXPLAIN and tests).
pub fn plan_logical(
    statement: &Statement,
    session: &Session,
    catalogs: &CatalogManager,
) -> Result<PlanNode> {
    let mut analyzer = analyzer::Analyzer::new(catalogs, session);
    let logical = analyzer.analyze(statement)?;
    optimizer::optimize(logical, session, catalogs, &mut PlanNodeIdAllocator::new())
}
