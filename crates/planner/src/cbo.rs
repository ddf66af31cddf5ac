//! Cost-based optimizations (§IV-C): join re-ordering, join distribution
//! selection, and index-join selection.
//!
//! All three degrade gracefully without statistics — re-ordering keeps the
//! syntactic order, distribution defaults to partitioned, and index joins
//! require a known-small probe — which is exactly what separates the
//! "Hive/HDFS (no stats)" and "Hive/HDFS (table/column stats)" lines of
//! Fig. 6.

use presto_common::id::PlanNodeIdAllocator;
use presto_common::{Result, Session};
use presto_connector::CatalogManager;
use presto_expr::{CmpOp, Expr};

use crate::plan::{JoinDistribution, JoinType, PlanNode};
use crate::stats::estimate;

/// Probe-row threshold below which an index join is considered.
const INDEX_JOIN_PROBE_THRESHOLD: f64 = 100_000.0;

/// Build sides estimated at or below this many rows are broadcast when
/// the session's `join_distribution` is `Automatic`.
const BROADCAST_THRESHOLD_ROWS: f64 = 10_000.0;

// ---- join reordering ----

/// Re-order chains of inner equi-joins using cardinality estimates: flatten
/// the join tree into sources + equality edges, then greedily rebuild
/// left-deep, always joining in the source that minimizes the estimated
/// intermediate size. A final projection restores the original column order
/// so the rest of the plan is unaffected.
pub fn reorder_joins(
    node: PlanNode,
    session: &Session,
    catalogs: &CatalogManager,
    ids: &mut PlanNodeIdAllocator,
) -> Result<PlanNode> {
    // Bottom-up: rewrite children first so nested chains collapse.
    let node = node.map_children(|c| reorder_joins(c, session, catalogs, ids))?;
    if !session.join_reordering {
        return Ok(node);
    }
    let PlanNode::Join {
        join_type: JoinType::Inner,
        ..
    } = &node
    else {
        return Ok(node);
    };
    // Flatten the maximal inner-join chain.
    let mut sources: Vec<PlanNode> = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new(); // global channel pairs
    let mut residuals: Vec<Expr> = Vec::new();
    flatten(node.clone(), &mut sources, &mut edges, &mut residuals);
    if sources.len() < 3 {
        // A two-way join gains nothing from reordering; build-side choice
        // is handled by distribution selection (which may flip).
        return Ok(flip_small_build(node, catalogs, ids));
    }
    // Need cardinalities for every source; otherwise keep syntactic order.
    let rows: Vec<f64> = match sources
        .iter()
        .map(|s| estimate(s, catalogs).rows.value())
        .collect::<Option<Vec<f64>>>()
    {
        Some(r) => r,
        None => return Ok(node),
    };
    // Source channel offsets in the ORIGINAL order.
    let widths: Vec<usize> = sources.iter().map(|s| s.output_schema().len()).collect();
    let mut original_offset = vec![0usize; sources.len()];
    for i in 1..sources.len() {
        original_offset[i] = original_offset[i - 1] + widths[i - 1];
    }
    let total_width: usize = widths.iter().sum();
    let source_of = |global: usize| -> (usize, usize) {
        for (i, &off) in original_offset.iter().enumerate() {
            if global >= off && global < off + widths[i] {
                return (i, global - off);
            }
        }
        unreachable!("channel {global} out of range")
    };

    // Greedy order: start from the pair with the smallest estimated output.
    let connected = |a: usize, b: usize| -> bool {
        edges.iter().any(|&(x, y)| {
            let (sx, _) = source_of(x);
            let (sy, _) = source_of(y);
            (sx == a && sy == b) || (sx == b && sy == a)
        })
    };
    let mut in_tree = vec![false; sources.len()];
    let mut order: Vec<usize> = Vec::new();
    // Seed: smallest source that has at least one edge.
    let seed = (0..sources.len())
        .filter(|&i| (0..sources.len()).any(|j| j != i && connected(i, j)))
        .min_by(|&a, &b| rows[a].total_cmp(&rows[b]));
    let Some(seed) = seed else { return Ok(node) };
    order.push(seed);
    in_tree[seed] = true;
    while order.len() < sources.len() {
        // Prefer connected sources, smallest first (cheap surrogate for
        // smallest intermediate result under the FK assumption).
        let next = (0..sources.len())
            .filter(|&i| !in_tree[i])
            .min_by(|&a, &b| {
                let ca = order.iter().any(|&t| connected(t, a));
                let cb = order.iter().any(|&t| connected(t, b));
                match (ca, cb) {
                    (true, false) => std::cmp::Ordering::Less,
                    (false, true) => std::cmp::Ordering::Greater,
                    _ => rows[a].total_cmp(&rows[b]),
                }
            })
            .expect("order.len() < sources.len(), so a source remains");
        order.push(next);
        in_tree[next] = true;
    }
    if order.iter().copied().eq(0..sources.len()) {
        // Already in the best order found; avoid churn.
        return Ok(node);
    }

    // Rebuild in the new order, remapping channels. `layout` tracks which
    // source occupies which output slot of the current tree; each new
    // source joins as the *build* (right) side only when it is the smaller
    // relation, otherwise the tree becomes the build and the new source
    // probes (the classic put-the-big-table-on-the-probe-side rule).
    let mut edge_used = vec![false; edges.len()];
    let mut tree: Option<PlanNode> = None;
    let mut layout: Vec<usize> = Vec::new();
    let offset_in = |layout: &[usize], widths: &[usize], source: usize| -> usize {
        let mut off = 0;
        for &t in layout {
            if t == source {
                break;
            }
            off += widths[t];
        }
        off
    };
    for &s in &order {
        let source = sources[s].clone();
        match tree.take() {
            None => {
                tree = Some(source);
                layout.push(s);
            }
            Some(current) => {
                // Keys: edges between the tree and this source, expressed as
                // (tree channel, source-local channel).
                let mut tree_keys = Vec::new();
                let mut source_keys = Vec::new();
                for (ei, &(a, b)) in edges.iter().enumerate() {
                    if edge_used[ei] {
                        continue;
                    }
                    let (sa, wa) = source_of(a);
                    let (sb, wb) = source_of(b);
                    let (tree_side, new_side) = if layout.contains(&sa) && sb == s {
                        ((sa, wa), wb)
                    } else if layout.contains(&sb) && sa == s {
                        ((sb, wb), wa)
                    } else {
                        continue;
                    };
                    tree_keys.push(offset_in(&layout, &widths, tree_side.0) + tree_side.1);
                    source_keys.push(new_side);
                    edge_used[ei] = true;
                }
                let join_type = if tree_keys.is_empty() {
                    JoinType::Cross
                } else {
                    JoinType::Inner
                };
                let tree_rows = estimate(&current, catalogs).rows.or(f64::MAX);
                let source_rows = rows[s];
                if source_rows <= tree_rows || join_type == JoinType::Cross {
                    // Source is the build side.
                    tree = Some(PlanNode::Join {
                        id: ids.next_id(),
                        left: Box::new(current),
                        right: Box::new(source),
                        join_type,
                        left_keys: tree_keys,
                        right_keys: source_keys,
                        filter: None,
                        distribution: None,
                    });
                    layout.push(s);
                } else {
                    // The accumulated tree is smaller: make it the build and
                    // let the big new source stream as the probe.
                    tree = Some(PlanNode::Join {
                        id: ids.next_id(),
                        left: Box::new(source),
                        right: Box::new(current),
                        join_type,
                        left_keys: source_keys,
                        right_keys: tree_keys,
                        filter: None,
                        distribution: None,
                    });
                    layout.insert(0, s);
                }
            }
        }
    }
    // Final output slots, derived from the layout.
    let mut new_offset_of_source = vec![0usize; sources.len()];
    {
        let mut off = 0usize;
        for &s in &layout {
            new_offset_of_source[s] = off;
            off += widths[s];
        }
    }
    let global_to_new = |global: usize| -> usize {
        let (s, within) = source_of(global);
        new_offset_of_source[s] + within
    };
    let mut result = tree.expect("non-empty join order built a tree");
    // Unused edges (cycles in the join graph) become residual filters.
    let mut residual_conjuncts: Vec<Expr> = residuals
        .into_iter()
        .map(|e| e.remap_columns(&global_to_new))
        .collect();
    let result_schema = result.output_schema();
    for (ei, &(a, b)) in edges.iter().enumerate() {
        if !edge_used[ei] {
            let (na, nb) = (global_to_new(a), global_to_new(b));
            residual_conjuncts.push(Expr::cmp(
                CmpOp::Eq,
                Expr::column(na, result_schema.data_type(na)),
                Expr::column(nb, result_schema.data_type(nb)),
            ));
        }
    }
    if !residual_conjuncts.is_empty() {
        result = PlanNode::Filter {
            id: ids.next_id(),
            input: Box::new(result),
            predicate: Expr::and(residual_conjuncts),
        };
    }
    // Restore the original column order.
    let schema = result.output_schema();
    let exprs: Vec<Expr> = (0..total_width)
        .map(|orig| {
            let new = global_to_new(orig);
            Expr::column(new, schema.data_type(new))
        })
        .collect();
    let names: Vec<String> = {
        // Original names, source by source in original order.
        let mut names = Vec::with_capacity(total_width);
        for s in &sources {
            for f in s.output_schema().fields() {
                names.push(f.name.clone());
            }
        }
        names
    };
    Ok(PlanNode::Project {
        id: ids.next_id(),
        input: Box::new(result),
        expressions: exprs,
        names,
    })
}

/// Flatten a tree of inner equi-joins (no residual filters interleaved
/// except as collected residuals) into sources + global-channel equality
/// edges.
fn flatten(
    node: PlanNode,
    sources: &mut Vec<PlanNode>,
    edges: &mut Vec<(usize, usize)>,
    residuals: &mut Vec<Expr>,
) {
    match node {
        PlanNode::Join {
            left,
            right,
            join_type: JoinType::Inner,
            left_keys,
            right_keys,
            filter,
            ..
        } => {
            let base = current_width(sources);
            let lwidth = left.output_schema().len();
            flatten(*left, sources, edges, residuals);
            let right_base = current_width(sources);
            flatten(*right, sources, edges, residuals);
            for (&lk, &rk) in left_keys.iter().zip(&right_keys) {
                edges.push((base + lk, right_base + rk));
            }
            if let Some(f) = filter {
                residuals.push(f.remap_columns(&|c| {
                    if c < lwidth {
                        base + c
                    } else {
                        right_base + (c - lwidth)
                    }
                }));
            }
        }
        other => sources.push(other),
    }
}

fn current_width(sources: &[PlanNode]) -> usize {
    sources.iter().map(|s| s.output_schema().len()).sum()
}

/// For a two-way inner join with known stats, make the smaller side the
/// build (right) side.
fn flip_small_build(
    node: PlanNode,
    catalogs: &CatalogManager,
    ids: &mut PlanNodeIdAllocator,
) -> PlanNode {
    match node {
        PlanNode::Join {
            id,
            left,
            right,
            join_type: JoinType::Inner,
            left_keys,
            right_keys,
            filter,
            distribution,
        } => {
            let lrows = estimate(&left, catalogs).rows.value();
            let rrows = estimate(&right, catalogs).rows.value();
            if let (Some(l), Some(r)) = (lrows, rrows) {
                if l < r {
                    // Swap sides; output order is restored by a projection.
                    let lwidth = left.output_schema().len();
                    let rwidth = right.output_schema().len();
                    let new_filter = filter.map(|f| {
                        f.remap_columns(&|c| if c < lwidth { rwidth + c } else { c - lwidth })
                    });
                    let join = PlanNode::Join {
                        id,
                        left: right,
                        right: left,
                        join_type: JoinType::Inner,
                        left_keys: right_keys,
                        right_keys: left_keys,
                        filter: new_filter,
                        distribution,
                    };
                    let schema = join.output_schema();
                    let exprs: Vec<Expr> = (0..lwidth + rwidth)
                        .map(|i| {
                            let src = if i < lwidth { rwidth + i } else { i - lwidth };
                            Expr::column(src, schema.data_type(src))
                        })
                        .collect();
                    let names: Vec<String> = (0..lwidth + rwidth)
                        .map(|i| {
                            let src = if i < lwidth { rwidth + i } else { i - lwidth };
                            schema.field(src).name.clone()
                        })
                        .collect();
                    return PlanNode::Project {
                        id: ids.next_id(),
                        input: Box::new(join),
                        expressions: exprs,
                        names,
                    };
                }
            }
            PlanNode::Join {
                id,
                left,
                right,
                join_type: JoinType::Inner,
                left_keys,
                right_keys,
                filter,
                distribution,
            }
        }
        other => other,
    }
}

// ---- join distribution ----

/// Choose replicated vs partitioned distribution per join (§IV-C "join
/// strategy selection"). Cross joins always replicate the right side.
pub fn select_join_distribution(
    node: PlanNode,
    session: &Session,
    catalogs: &CatalogManager,
) -> Result<PlanNode> {
    let node = node.map_children(|c| select_join_distribution(c, session, catalogs))?;
    Ok(match node {
        PlanNode::Join {
            id,
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            filter,
            distribution: None,
        } => {
            let distribution = if join_type == JoinType::Cross || left_keys.is_empty() {
                JoinDistribution::Replicated
            } else {
                match session.join_distribution {
                    presto_common::session::JoinDistribution::Broadcast => {
                        JoinDistribution::Replicated
                    }
                    presto_common::session::JoinDistribution::Partitioned => {
                        JoinDistribution::Partitioned
                    }
                    presto_common::session::JoinDistribution::Automatic => {
                        let build_rows = estimate(&right, catalogs).rows;
                        match build_rows.value() {
                            Some(r) if r <= BROADCAST_THRESHOLD_ROWS => {
                                JoinDistribution::Replicated
                            }
                            // Unknown build size: partitioned is the safe
                            // choice (broadcasting an unexpectedly huge
                            // build side runs the cluster out of memory).
                            _ => JoinDistribution::Partitioned,
                        }
                    }
                }
            };
            PlanNode::Join {
                id,
                left,
                right,
                join_type,
                left_keys,
                right_keys,
                filter,
                distribution: Some(distribution),
            }
        }
        other => other,
    })
}

// ---- index join selection ----

/// Replace hash joins with index joins when the inner side is a bare scan
/// of a table whose layout indexes the join keys and the probe side is
/// known-small (§IV-B3-3).
pub fn select_index_joins(node: PlanNode, catalogs: &CatalogManager) -> Result<PlanNode> {
    let node = node.map_children(|c| select_index_joins(c, catalogs))?;
    match node {
        PlanNode::Join {
            id,
            left,
            right,
            join_type: JoinType::Inner,
            left_keys,
            right_keys,
            filter: None,
            distribution,
        } if !left_keys.is_empty() => {
            if let PlanNode::TableScan {
                catalog,
                table,
                table_schema,
                columns,
                predicate,
                ..
            } = right.as_ref()
            {
                if predicate.is_all() {
                    // Keys in table-column coordinates.
                    let table_keys: Vec<usize> = right_keys.iter().map(|&k| columns[k]).collect();
                    let indexed = catalogs
                        .catalog(catalog)
                        .map(|c| {
                            c.metadata()
                                .table_layouts(table)
                                .iter()
                                .any(|l| l.has_index_on(&table_keys))
                        })
                        .unwrap_or(false);
                    let probe_small = estimate(&left, catalogs)
                        .rows
                        .value()
                        .is_some_and(|r| r <= INDEX_JOIN_PROBE_THRESHOLD);
                    if indexed && probe_small {
                        return Ok(PlanNode::IndexJoin {
                            id,
                            probe: left,
                            catalog: catalog.clone(),
                            table: table.clone(),
                            table_schema: table_schema.clone(),
                            probe_keys: left_keys,
                            index_keys: table_keys,
                            output_columns: columns.clone(),
                        });
                    }
                }
            }
            Ok(PlanNode::Join {
                id,
                left,
                right,
                join_type: JoinType::Inner,
                left_keys,
                right_keys,
                filter: None,
                distribution,
            })
        }
        other => Ok(other),
    }
}
