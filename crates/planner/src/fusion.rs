//! Leaf chains (whole-pipeline compiled execution).
//!
//! The compiled expression engine (§V-B) fuses one expression tree; the
//! leaf operator goes further and runs a whole `TableScan → [Filter] →
//! [Project] [→ partial Aggregate]` chain as one loop (the Fig. 4
//! `ScanFilterProject` fusion): selection vectors flow between stages
//! instead of materialized pages, projections evaluate only surviving rows,
//! and the partial group-by is fed pre-computed hashes. [`peel_leaf_chain`]
//! is the one definition of that shape, shared by the exec-side compiler
//! and the `EXPLAIN` summary collected here, so the plan annotation and the
//! runtime lowering cannot disagree about what runs as one operator.

use presto_common::PlanNodeId;
use presto_expr::Expr;
use std::fmt::Write as _;

use crate::fragment::PhysicalPlan;
use crate::plan::{AggregateSpec, AggregateStep, PlanNode};

/// One stage of a fused chain, scan first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedStage {
    Scan,
    Filter,
    Project,
    PartialAggregate,
}

impl FusedStage {
    pub fn name(&self) -> &'static str {
        match self {
            FusedStage::Scan => "Scan",
            FusedStage::Filter => "Filter",
            FusedStage::Project => "Project",
            FusedStage::PartialAggregate => "AggregatePartial",
        }
    }
}

/// The parts of one leaf chain, borrowed from the plan.
pub struct LeafChain<'a> {
    /// The `TableScan` leaf.
    pub scan: &'a PlanNode,
    pub filter: Option<&'a Expr>,
    pub projections: Option<&'a [Expr]>,
    /// `(group_by, aggregates)` of the absorbed partial aggregation.
    pub partial_agg: Option<(&'a [usize], &'a [AggregateSpec])>,
}

impl LeafChain<'_> {
    /// Stages in execution (scan-first) order.
    pub fn stages(&self) -> Vec<FusedStage> {
        let mut stages = vec![FusedStage::Scan];
        if self.filter.is_some() {
            stages.push(FusedStage::Filter);
        }
        if self.projections.is_some() {
            stages.push(FusedStage::Project);
        }
        if self.partial_agg.is_some() {
            stages.push(FusedStage::PartialAggregate);
        }
        stages
    }
}

/// Peel `[partial Aggregate] → [Project] → [Filter] → TableScan` off `node`,
/// or `None` when `node` is not the top of such a chain. The partial
/// aggregate is absorbed only when `absorb_partial_agg` (the session's
/// `pipeline_fusion`); otherwise it runs as its own operator above the
/// chain.
pub fn peel_leaf_chain(node: &PlanNode, absorb_partial_agg: bool) -> Option<LeafChain<'_>> {
    let (partial_agg, below) = match node {
        PlanNode::Aggregate {
            input,
            group_by,
            aggregates,
            step: AggregateStep::Partial,
            ..
        } if absorb_partial_agg => (
            Some((group_by.as_slice(), aggregates.as_slice())),
            input.as_ref(),
        ),
        other => (None, other),
    };
    let (projections, below) = match below {
        PlanNode::Project {
            input, expressions, ..
        } => (Some(expressions.as_slice()), input.as_ref()),
        other => (None, other),
    };
    let (filter, scan) = match below {
        PlanNode::Filter {
            input, predicate, ..
        } => (Some(predicate), input.as_ref()),
        other => (None, other),
    };
    matches!(scan, PlanNode::TableScan { .. }).then_some(LeafChain {
        scan,
        filter,
        projections,
        partial_agg,
    })
}

/// A leaf chain found in one fragment, for `EXPLAIN` and plan digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedChainSpec {
    /// Fragment containing the chain.
    pub fragment: u32,
    /// Topmost node of the chain.
    pub top: PlanNodeId,
    /// The leaf table scan.
    pub scan: PlanNodeId,
    /// Stages in execution (scan-first) order; always starts with `Scan`.
    pub stages: Vec<FusedStage>,
}

impl FusedChainSpec {
    /// Always `true`: every leaf chain runs as one operator. Kept so
    /// callers that count fused chains read the same number as before.
    pub fn fused(&self) -> bool {
        true
    }
}

/// Record every leaf chain of a fragmented plan that has a stage above its
/// scan (a bare scan has nothing to fuse). Run after fragmentation, like
/// dynamic-filter collection: only then is the partial/final aggregation
/// split final.
pub fn collect_fused_chains(plan: &PhysicalPlan, absorb_partial_agg: bool) -> Vec<FusedChainSpec> {
    let mut specs = Vec::new();
    for fragment in &plan.fragments {
        walk(fragment.id, &fragment.root, absorb_partial_agg, &mut specs);
    }
    // Deterministic order for plan digests and tests.
    specs.sort_by_key(|s| (s.fragment, s.top.0));
    specs
}

fn walk(fragment: u32, node: &PlanNode, absorb_partial_agg: bool, specs: &mut Vec<FusedChainSpec>) {
    if let Some(chain) = peel_leaf_chain(node, absorb_partial_agg) {
        // The chain is a straight line down to its scan leaf; nothing
        // below it needs visiting.
        let stages = chain.stages();
        if stages.len() > 1 {
            specs.push(FusedChainSpec {
                fragment,
                top: node.id(),
                scan: chain.scan.id(),
                stages,
            });
        }
        return;
    }
    for child in node.children() {
        walk(fragment, child, absorb_partial_agg, specs);
    }
}

/// Plan-digest rendering, appended to `EXPLAIN` output.
pub fn explain_fused_chains(specs: &[FusedChainSpec]) -> String {
    let mut out = String::new();
    if specs.is_empty() {
        return out;
    }
    out.push_str("Fused pipelines:\n");
    for s in specs {
        let stages: Vec<&str> = s.stages.iter().map(FusedStage::name).collect();
        let _ = writeln!(
            out,
            "  fragment {}: {} (scan {}) [fused]",
            s.fragment,
            stages.join(" → "),
            s.scan,
        );
    }
    out
}
