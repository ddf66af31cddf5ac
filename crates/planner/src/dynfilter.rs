//! Dynamic-filter annotation (runtime predicate pushdown).
//!
//! Static predicate pushdown (§IV-B3-2) only exploits constants known at
//! plan time. For selective hash joins most probe-side bytes are read only
//! to be discarded at the join; the build side's observed key domain is a
//! predicate the planner cannot know but the runtime can. This pass runs
//! *after fragmentation* (broadcast-vs-partitioned is only final then) and
//! records, for every inner hash join whose probe side reaches a table
//! scan, how each equi-join key maps onto a scan column. At runtime the
//! join build publishes its key domain through the coordinator's
//! `DynamicFilterRegistry` and the annotated scans consume it.

use presto_common::PlanNodeId;
use presto_expr::Expr;
use std::fmt::Write as _;

use crate::fragment::PhysicalPlan;
use crate::plan::{JoinDistribution, JoinType, PlanNode};

/// How one equi-join key lands on the probe-side scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicFilterKey {
    /// Index into the join's equi-key lists.
    pub key_index: usize,
    /// Channel of the scan's projected output carrying the key.
    pub scan_channel: usize,
    /// Column index in the scan's table schema (the split/stripe
    /// statistics are keyed by table columns).
    pub table_column: usize,
}

/// One (join, probe-side scan) dynamic-filter channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicFilterSpec {
    /// The hash join whose build side produces the filter.
    pub join: PlanNodeId,
    /// Fragment containing the join.
    pub join_fragment: u32,
    /// The probe-side scan that consumes the filter.
    pub scan: PlanNodeId,
    /// Fragment containing the scan.
    pub scan_fragment: u32,
    /// Build side replicated: every join task observes the complete build
    /// domain, so the first published filter is final (no cross-task merge).
    pub broadcast: bool,
    /// Per equi-key mapping; `None` for keys that do not trace to a column
    /// of this scan.
    pub keys: Vec<Option<DynamicFilterKey>>,
}

impl DynamicFilterSpec {
    /// Key mappings that resolved, in key order.
    pub fn mapped_keys(&self) -> impl Iterator<Item = &DynamicFilterKey> {
        self.keys.iter().flatten()
    }
}

/// Where one join-key channel of the probe subtree bottoms out.
struct Traced {
    fragment: u32,
    scan: PlanNodeId,
    scan_channel: usize,
    table_column: usize,
}

/// Annotate every eligible join of a fragmented plan. Only `Inner` joins
/// with equi-keys are eligible: outer and cross joins keep probe rows that
/// match no build row, so pruning by the build domain would be unsound.
pub fn collect_dynamic_filters(plan: &PhysicalPlan) -> Vec<DynamicFilterSpec> {
    let mut specs = Vec::new();
    for fragment in &plan.fragments {
        walk(plan, fragment.id, &fragment.root, &mut specs);
    }
    // Deterministic order for plan digests and tests.
    specs.sort_by_key(|s| (s.join.0, s.scan.0));
    specs
}

fn walk(plan: &PhysicalPlan, fragment: u32, node: &PlanNode, specs: &mut Vec<DynamicFilterSpec>) {
    if let PlanNode::Join {
        id,
        left,
        join_type: JoinType::Inner,
        left_keys,
        distribution,
        ..
    } = node
    {
        if !left_keys.is_empty() {
            let broadcast = *distribution == Some(JoinDistribution::Replicated);
            // Trace each probe key independently; group hits by scan so a
            // probe side that is itself a join can feed several scans.
            let mut traced: Vec<(usize, Traced)> = Vec::new();
            for (key_index, &channel) in left_keys.iter().enumerate() {
                if let Some(t) = trace(plan, fragment, left, channel) {
                    traced.push((key_index, t));
                }
            }
            let mut scans: Vec<PlanNodeId> = traced.iter().map(|(_, t)| t.scan).collect();
            scans.sort();
            scans.dedup();
            for scan in scans {
                let mut keys: Vec<Option<DynamicFilterKey>> = vec![None; left_keys.len()];
                let mut scan_fragment = fragment;
                for (key_index, t) in traced.iter().filter(|(_, t)| t.scan == scan) {
                    scan_fragment = t.fragment;
                    keys[*key_index] = Some(DynamicFilterKey {
                        key_index: *key_index,
                        scan_channel: t.scan_channel,
                        table_column: t.table_column,
                    });
                }
                specs.push(DynamicFilterSpec {
                    join: *id,
                    join_fragment: fragment,
                    scan,
                    scan_fragment,
                    broadcast,
                    keys,
                });
            }
        }
    }
    for child in node.children() {
        walk(plan, fragment, child, specs);
    }
}

/// Follow one output channel of `node` down to a table-scan column, through
/// the shapes that preserve row values one-to-one: filters, column-identity
/// projections, exchanges, and the value-preserving sides of nested joins.
/// Stops (returns `None`) at anything that synthesizes or reorders values
/// (aggregates, limits, sorts, unions, expressions).
fn trace(plan: &PhysicalPlan, fragment: u32, node: &PlanNode, channel: usize) -> Option<Traced> {
    match node {
        PlanNode::TableScan { id, columns, .. } => {
            let table_column = *columns.get(channel)?;
            Some(Traced {
                fragment,
                scan: *id,
                scan_channel: channel,
                table_column,
            })
        }
        PlanNode::Filter { input, .. } => trace(plan, fragment, input, channel),
        PlanNode::Project {
            input, expressions, ..
        } => match expressions.get(channel)? {
            Expr::Column { index, .. } => trace(plan, fragment, input, *index),
            _ => None,
        },
        PlanNode::RemoteSource {
            fragment: source, ..
        } => {
            // Exchanges route pages but never reorder columns.
            trace(plan, *source, &plan.fragment(*source).root, channel)
        }
        PlanNode::Join {
            left,
            right,
            join_type,
            ..
        } => {
            let left_width = left.output_schema().len();
            if channel < left_width {
                // Left-side values survive every join type verbatim; rows
                // the nested join drops could not have matched upstream
                // either, so pruning below is sound.
                trace(plan, fragment, left, channel)
            } else if matches!(join_type, JoinType::Inner | JoinType::Cross) {
                // Right-side values survive verbatim unless null-padded
                // (outer joins), which would make pruning unsound.
                trace(plan, fragment, right, channel - left_width)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Plan-digest rendering, appended to `EXPLAIN` output.
pub fn explain_dynamic_filters(specs: &[DynamicFilterSpec]) -> String {
    let mut out = String::new();
    if specs.is_empty() {
        return out;
    }
    out.push_str("Dynamic filters:\n");
    for s in specs {
        let keys: Vec<String> = s
            .keys
            .iter()
            .enumerate()
            .map(|(i, k)| match k {
                Some(k) => format!("key{}→col{}@ch{}", i, k.table_column, k.scan_channel),
                None => format!("key{i}→∅"),
            })
            .collect();
        let _ = writeln!(
            out,
            "  join {} (fragment {}) → scan {} (fragment {}){} [{}]",
            s.join,
            s.join_fragment,
            s.scan,
            s.scan_fragment,
            if s.broadcast { " broadcast" } else { "" },
            keys.join(", ")
        );
    }
    out
}
