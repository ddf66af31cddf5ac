//! Rule-based plan optimization (§IV-C).
//!
//! "The process works by evaluating a set of transformation rules greedily
//! until a fixed point is reached … Presto contains several rules,
//! including well-known optimizations such as predicate and limit
//! pushdown, column pruning, and decorrelation." This module implements
//! the syntactic rules (constant folding, predicate pushdown with
//! equi-join-key extraction, pushdown into connectors as
//! [`TupleDomain`]s, limit pushdown, column pruning); the cost-based rules
//! (join reordering, join distribution, index joins) live in [`crate::cbo`].

use presto_common::id::PlanNodeIdAllocator;
use presto_common::{Result, Session, Value};
use presto_connector::{CatalogManager, Domain};
use presto_expr::interpreter::evaluate_row;
use presto_expr::{CmpOp, Expr};
use presto_page::Page;
use std::collections::BTreeSet;

use crate::cbo;
use crate::plan::{JoinType, PlanNode, SortKey};

/// Run all optimization passes over `plan`. Nodes they add take ids from
/// `ids` above every id already in `plan`.
pub fn optimize(
    plan: PlanNode,
    session: &Session,
    catalogs: &CatalogManager,
    ids: &mut PlanNodeIdAllocator,
) -> Result<PlanNode> {
    ids.skip_past(plan.max_id());
    let plan = fold_constants(plan)?;
    let plan = push_filters(plan, ids)?;
    // A second pass reaches filters uncovered by the first (e.g. conjuncts
    // that crossed a project).
    let plan = push_filters(plan, ids)?;
    let plan = push_limits(plan)?;
    // Index joins match before reordering can flip the indexed side away.
    let plan = cbo::select_index_joins(plan, catalogs)?;
    let plan = cbo::reorder_joins(plan, session, catalogs, ids)?;
    let plan = cbo::select_join_distribution(plan, session, catalogs)?;
    let plan = extract_scan_domains(plan)?;
    let required: BTreeSet<usize> = (0..plan.output_schema().len()).collect();
    let (plan, _) = prune_columns(plan, &required, ids)?;
    Ok(plan)
}

// ---- constant folding ----

/// Fold constant sub-expressions throughout the plan.
pub fn fold_constants(node: PlanNode) -> Result<PlanNode> {
    Ok(node.map_children(fold_constants)?.map_exprs(fold_expr))
}

/// Evaluate constant subtrees; leave anything that errors (e.g. division
/// by zero) for runtime so error semantics are preserved.
pub fn fold_expr(expr: Expr) -> Expr {
    expr.transform_up(&mut |e| match e {
        // A literal TRUE drops out of an AND, a FALSE decides it (dually
        // for OR).
        Expr::And(es) => Expr::and(fold_junction(es, true)),
        Expr::Or(es) => Expr::or(fold_junction(es, false)),
        e if !matches!(e, Expr::Literal { .. }) && e.is_constant() && e.is_deterministic() => {
            let dummy = Page::zero_column(1);
            match evaluate_row(&e, &dummy, 0) {
                Ok(v) => Expr::typed_literal(v, e.data_type()),
                Err(_) => e,
            }
        }
        e => e,
    })
}

/// The folded operands of an AND (`identity` true) or OR (`identity`
/// false): operands equal to the identity drop out; one equal to its
/// negation replaces them all.
fn fold_junction(operands: Vec<Expr>, identity: bool) -> Vec<Expr> {
    let mut kept = Vec::with_capacity(operands.len());
    for e in operands {
        match e {
            Expr::Literal {
                value: Value::Boolean(b),
                ..
            } if b == identity => {}
            Expr::Literal {
                value: Value::Boolean(_),
                ..
            } => return vec![Expr::literal(!identity)],
            other => kept.push(other),
        }
    }
    kept
}

// ---- predicate pushdown ----

/// Push filters toward the leaves and normalize joins (single-side ON
/// conjuncts into inputs, cross-side equalities into equi-join keys).
pub fn push_filters(node: PlanNode, ids: &mut PlanNodeIdAllocator) -> Result<PlanNode> {
    match node {
        PlanNode::Filter {
            id,
            input,
            predicate,
        } => {
            let input = push_filters(*input, ids)?;
            push_filter_into(input, predicate.conjuncts(), id, ids)
        }
        PlanNode::Join {
            id,
            left,
            right,
            join_type,
            mut left_keys,
            mut right_keys,
            filter,
            distribution,
        } => {
            let lwidth = left.output_schema().len();
            let mut left = push_filters(*left, ids)?;
            let mut right = push_filters(*right, ids)?;
            let mut residual: Vec<Expr> = Vec::new();
            let mut join_type = join_type;
            if let Some(f) = filter {
                for conjunct in f.conjuncts() {
                    match classify(&conjunct, lwidth) {
                        Side::Left if join_type != JoinType::Left => {
                            left = filter_node(left, conjunct, ids);
                        }
                        Side::Right => {
                            let remapped = conjunct.remap_columns(&|c| c - lwidth);
                            right = filter_node(right, remapped, ids);
                        }
                        Side::Both => {
                            if let Some((lk, rk)) = as_equi_key(&conjunct, lwidth) {
                                left_keys.push(lk);
                                right_keys.push(rk - lwidth);
                                if join_type == JoinType::Cross {
                                    join_type = JoinType::Inner;
                                }
                            } else {
                                residual.push(conjunct);
                            }
                        }
                        _ => residual.push(conjunct),
                    }
                }
            }
            Ok(PlanNode::Join {
                id,
                left: Box::new(left),
                right: Box::new(right),
                join_type,
                left_keys,
                right_keys,
                filter: if residual.is_empty() {
                    None
                } else {
                    Some(Expr::and(residual))
                },
                distribution,
            })
        }
        other => other.map_children(|child| push_filters(child, ids)),
    }
}

/// Where a conjunct's column references fall relative to a join boundary.
enum Side {
    None,
    Left,
    Right,
    Both,
}

fn classify(expr: &Expr, lwidth: usize) -> Side {
    let cols = expr.referenced_columns();
    if cols.is_empty() {
        return Side::None;
    }
    let any_left = cols.iter().any(|&c| c < lwidth);
    let any_right = cols.iter().any(|&c| c >= lwidth);
    match (any_left, any_right) {
        (true, false) => Side::Left,
        (false, true) => Side::Right,
        (true, true) => Side::Both,
        (false, false) => Side::None,
    }
}

/// `left.col = right.col` conjuncts become hash-join keys when both columns
/// have one type: the join compares key lanes, while a pair of types
/// (bigint = double, date = timestamp) compares by SQL rules, in a filter.
fn as_equi_key(expr: &Expr, lwidth: usize) -> Option<(usize, usize)> {
    if let Expr::Cmp {
        op: CmpOp::Eq,
        left,
        right,
    } = expr
    {
        if let (Expr::Column { index: a, .. }, Expr::Column { index: b, .. }) =
            (left.as_ref(), right.as_ref())
        {
            let same_type = left.data_type() == right.data_type();
            if same_type && *a < lwidth && *b >= lwidth {
                return Some((*a, *b));
            }
            if same_type && *b < lwidth && *a >= lwidth {
                return Some((*b, *a));
            }
        }
    }
    None
}

fn filter_node(input: PlanNode, predicate: Expr, ids: &mut PlanNodeIdAllocator) -> PlanNode {
    PlanNode::Filter {
        id: ids.next_id(),
        input: Box::new(input),
        predicate,
    }
}

/// Push a set of conjuncts into `input`, keeping whatever cannot sink as a
/// Filter at this level.
fn push_filter_into(
    input: PlanNode,
    conjuncts: Vec<Expr>,
    id: presto_common::PlanNodeId,
    ids: &mut PlanNodeIdAllocator,
) -> Result<PlanNode> {
    match input {
        PlanNode::Project {
            id: pid,
            input: pin,
            expressions,
            names,
        } => {
            // Rewrite conjuncts through the projection (each column becomes
            // the expression it projects) and sink below.
            let rewritten: Vec<Expr> = conjuncts
                .into_iter()
                .map(|c| {
                    c.transform_up(&mut |e| match e {
                        Expr::Column { index, .. } => expressions[index].clone(),
                        other => other,
                    })
                })
                .collect();
            let filtered = PlanNode::Filter {
                id,
                input: pin,
                predicate: Expr::and(rewritten),
            };
            Ok(PlanNode::Project {
                id: pid,
                input: Box::new(filtered),
                expressions,
                names,
            })
        }
        PlanNode::Filter {
            id: fid,
            input: fin,
            predicate,
        } => {
            let mut all = predicate.conjuncts();
            all.extend(conjuncts);
            Ok(PlanNode::Filter {
                id: fid,
                input: fin,
                predicate: Expr::and(all),
            })
        }
        PlanNode::Join {
            id: jid,
            left,
            right,
            join_type,
            mut left_keys,
            mut right_keys,
            filter,
            distribution,
        } => {
            let lwidth = left.output_schema().len();
            let mut left = *left;
            let mut right = *right;
            let mut keep: Vec<Expr> = Vec::new();
            let mut join_type = join_type;
            let mut residual: Vec<Expr> = filter.map(|f| f.conjuncts()).unwrap_or_default();
            for conjunct in conjuncts {
                match classify(&conjunct, lwidth) {
                    Side::Left => left = filter_node(left, conjunct, ids),
                    Side::Right if join_type != JoinType::Left => {
                        let remapped = conjunct.remap_columns(&|c| c - lwidth);
                        right = filter_node(right, remapped, ids);
                    }
                    Side::Both if join_type != JoinType::Left => {
                        if let Some((lk, rk)) = as_equi_key(&conjunct, lwidth) {
                            left_keys.push(lk);
                            right_keys.push(rk - lwidth);
                            if join_type == JoinType::Cross {
                                join_type = JoinType::Inner;
                            }
                        } else if join_type == JoinType::Cross {
                            join_type = JoinType::Inner;
                            residual.push(conjunct);
                        } else {
                            residual.push(conjunct);
                        }
                    }
                    _ => keep.push(conjunct),
                }
            }
            let join = PlanNode::Join {
                id: jid,
                left: Box::new(left),
                right: Box::new(right),
                join_type,
                left_keys,
                right_keys,
                filter: if residual.is_empty() {
                    None
                } else {
                    Some(Expr::and(residual))
                },
                distribution,
            };
            if keep.is_empty() {
                Ok(join)
            } else {
                Ok(PlanNode::Filter {
                    id,
                    input: Box::new(join),
                    predicate: Expr::and(keep),
                })
            }
        }
        PlanNode::Union { id: uid, inputs } => {
            let predicate = Expr::and(conjuncts);
            let inputs = inputs
                .into_iter()
                .map(|input| filter_node(input, predicate.clone(), ids))
                .collect();
            Ok(PlanNode::Union { id: uid, inputs })
        }
        PlanNode::Aggregate {
            id: aid,
            input: ain,
            group_by,
            aggregates,
            step,
        } => {
            // Conjuncts over group-key outputs sink below the aggregation.
            let group_output_count = group_by.len();
            let mut below = Vec::new();
            let mut above = Vec::new();
            for c in conjuncts {
                if c.referenced_columns()
                    .iter()
                    .all(|&col| col < group_output_count)
                {
                    below.push(c.remap_columns(&|col| group_by[col]));
                } else {
                    above.push(c);
                }
            }
            let mut input_node = *ain;
            if !below.is_empty() {
                input_node = filter_node(input_node, Expr::and(below), ids);
            }
            let agg = PlanNode::Aggregate {
                id: aid,
                input: Box::new(input_node),
                group_by,
                aggregates,
                step,
            };
            if above.is_empty() {
                Ok(agg)
            } else {
                Ok(PlanNode::Filter {
                    id,
                    input: Box::new(agg),
                    predicate: Expr::and(above),
                })
            }
        }
        PlanNode::Sort {
            id: sid,
            input: sin,
            keys,
        } => {
            let filtered = PlanNode::Filter {
                id,
                input: sin,
                predicate: Expr::and(conjuncts),
            };
            Ok(PlanNode::Sort {
                id: sid,
                input: Box::new(filtered),
                keys,
            })
        }
        other => Ok(PlanNode::Filter {
            id,
            input: Box::new(other),
            predicate: Expr::and(conjuncts),
        }),
    }
}

// ---- limit pushdown ----

/// `Limit(Sort)` → `TopN`; `Limit(Project)` → `Project(Limit)`.
pub fn push_limits(node: PlanNode) -> Result<PlanNode> {
    let node = match node {
        PlanNode::Limit { id, input, count } => match *input {
            PlanNode::Sort {
                input: sin, keys, ..
            } => PlanNode::TopN {
                id,
                input: sin,
                keys,
                count,
            },
            PlanNode::Project {
                id: pid,
                input: pin,
                expressions,
                names,
            } => PlanNode::Project {
                id: pid,
                input: Box::new(PlanNode::Limit {
                    id,
                    input: pin,
                    count,
                }),
                expressions,
                names,
            },
            other => PlanNode::Limit {
                id,
                input: Box::new(other),
                count,
            },
        },
        other => other,
    };
    node.map_children(push_limits)
}

// ---- scan domain extraction ----

/// For filters directly above scans, extract per-column [`Domain`]s and
/// push them into the connector (§IV-B3-2). The engine keeps the residual
/// filter; connectors apply domains best-effort.
pub fn extract_scan_domains(node: PlanNode) -> Result<PlanNode> {
    let node = match node {
        PlanNode::Filter {
            id,
            input,
            predicate,
        } => match *input {
            PlanNode::TableScan {
                id: sid,
                catalog,
                table,
                layout,
                table_schema,
                columns,
                predicate: mut domain,
            } => {
                for conjunct in predicate.conjuncts() {
                    // Conjunct channels index the scan output; map to table
                    // column indices for the connector.
                    if let Some((channel, d)) = conjunct_domain(&conjunct) {
                        domain.constrain(columns[channel], d);
                    }
                }
                let scan = PlanNode::TableScan {
                    id: sid,
                    catalog,
                    table,
                    layout,
                    table_schema,
                    columns,
                    predicate: domain,
                };
                // The engine re-applies the filter: connector enforcement is
                // best-effort (PORC prunes stripes, not rows).
                PlanNode::Filter {
                    id,
                    input: Box::new(scan),
                    predicate,
                }
            }
            other => PlanNode::Filter {
                id,
                input: Box::new(other),
                predicate,
            },
        },
        other => other,
    };
    node.map_children(extract_scan_domains)
}

/// Translate one conjunct into a column domain, when possible.
fn conjunct_domain(expr: &Expr) -> Option<(usize, Domain)> {
    match expr {
        Expr::Cmp { op, left, right } => {
            let (channel, value, op) = match (left.as_ref(), right.as_ref()) {
                (Expr::Column { index, .. }, Expr::Literal { value, .. }) => {
                    (*index, value.clone(), *op)
                }
                (Expr::Literal { value, .. }, Expr::Column { index, .. }) => {
                    (*index, value.clone(), op.flip())
                }
                _ => return None,
            };
            if value.is_null() {
                return None;
            }
            let domain = match op {
                CmpOp::Eq => Domain::point(value),
                CmpOp::Gt | CmpOp::Ge => Domain::at_least(value),
                CmpOp::Lt | CmpOp::Le => Domain::at_most(value),
                CmpOp::Ne => return None,
            };
            Some((channel, domain))
        }
        Expr::InList { expr, list } => match expr.as_ref() {
            Expr::Column { index, .. } if !list.iter().any(Value::is_null) => {
                Some((*index, Domain::Set(list.clone())))
            }
            _ => None,
        },
        _ => None,
    }
}

// ---- column pruning ----

/// Prune unused columns throughout the plan. `required` holds the output
/// channels the parent needs; returns the rewritten node plus the mapping
/// old-channel → new-channel for every retained channel.
pub fn prune_columns(
    node: PlanNode,
    required: &BTreeSet<usize>,
    ids: &mut PlanNodeIdAllocator,
) -> Result<(PlanNode, Vec<(usize, usize)>)> {
    match node {
        PlanNode::TableScan {
            id,
            catalog,
            table,
            layout,
            table_schema,
            columns,
            predicate,
        } => {
            let kept: Vec<usize> = (0..columns.len())
                .filter(|c| required.contains(c))
                .collect();
            // Never prune to zero columns: keep the first so pages carry
            // cardinality cheaply.
            let kept = if kept.is_empty() && !columns.is_empty() {
                vec![0]
            } else {
                kept
            };
            let mapping: Vec<(usize, usize)> = kept
                .iter()
                .enumerate()
                .map(|(new, &old)| (old, new))
                .collect();
            let new_columns: Vec<usize> = kept.iter().map(|&c| columns[c]).collect();
            Ok((
                PlanNode::TableScan {
                    id,
                    catalog,
                    table,
                    layout,
                    table_schema,
                    columns: new_columns,
                    predicate,
                },
                mapping,
            ))
        }
        PlanNode::Values { id, schema, rows } => {
            let width = schema.len();
            let mapping: Vec<(usize, usize)> = (0..width).map(|c| (c, c)).collect();
            Ok((PlanNode::Values { id, schema, rows }, mapping))
        }
        PlanNode::Filter {
            id,
            input,
            predicate,
        } => {
            let mut child_required: BTreeSet<usize> = required.clone();
            child_required.extend(predicate.referenced_columns());
            let (new_input, mapping) = prune_columns(*input, &child_required, ids)?;
            let predicate = {
                let lookup = mapping_fn(&mapping);
                predicate.remap_columns(&lookup)
            };
            Ok((
                PlanNode::Filter {
                    id,
                    input: Box::new(new_input),
                    predicate,
                },
                mapping,
            ))
        }
        PlanNode::Project {
            id,
            input,
            expressions,
            names,
        } => {
            let kept: Vec<usize> = (0..expressions.len())
                .filter(|c| required.contains(c))
                .collect();
            let kept = if kept.is_empty() && !expressions.is_empty() {
                vec![0]
            } else {
                kept
            };
            let mut child_required = BTreeSet::new();
            for &k in &kept {
                child_required.extend(expressions[k].referenced_columns());
            }
            if child_required.is_empty() {
                // Keep one channel so row counts flow (e.g. COUNT(*) plans).
                if let Some(first) = input.output_schema().fields().first().map(|_| 0) {
                    child_required.insert(first);
                }
            }
            let (new_input, child_mapping) = prune_columns(*input, &child_required, ids)?;
            let lookup = mapping_fn(&child_mapping);
            let new_exprs: Vec<Expr> = kept
                .iter()
                .map(|&k| expressions[k].remap_columns(&lookup))
                .collect();
            let new_names: Vec<String> = kept.iter().map(|&k| names[k].clone()).collect();
            let mapping: Vec<(usize, usize)> = kept
                .iter()
                .enumerate()
                .map(|(new, &old)| (old, new))
                .collect();
            Ok((
                PlanNode::Project {
                    id,
                    input: Box::new(new_input),
                    expressions: new_exprs,
                    names: new_names,
                },
                mapping,
            ))
        }
        PlanNode::Aggregate {
            id,
            input,
            group_by,
            aggregates,
            step,
        } => {
            let group_count = group_by.len();
            // Group keys always survive; aggregates only if required.
            let kept_aggs: Vec<usize> = (0..aggregates.len())
                .filter(|i| required.contains(&(group_count + i)))
                .collect();
            let mut child_required: BTreeSet<usize> = group_by.iter().copied().collect();
            for &a in &kept_aggs {
                if let Some(c) = aggregates[a].input {
                    child_required.insert(c);
                }
            }
            if child_required.is_empty() {
                child_required.insert(0);
            }
            let (new_input, child_mapping) = prune_columns(*input, &child_required, ids)?;
            let lookup = mapping_fn(&child_mapping);
            let new_group_by: Vec<usize> = group_by.iter().map(|&g| lookup(g)).collect();
            let new_aggs: Vec<_> = kept_aggs
                .iter()
                .map(|&a| {
                    let mut spec = aggregates[a].clone();
                    spec.input = spec.input.map(&lookup);
                    spec
                })
                .collect();
            let mut mapping: Vec<(usize, usize)> = (0..group_count).map(|g| (g, g)).collect();
            for (new_i, &old_a) in kept_aggs.iter().enumerate() {
                mapping.push((group_count + old_a, group_count + new_i));
            }
            Ok((
                PlanNode::Aggregate {
                    id,
                    input: Box::new(new_input),
                    group_by: new_group_by,
                    aggregates: new_aggs,
                    step,
                },
                mapping,
            ))
        }
        PlanNode::Join {
            id,
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            filter,
            distribution,
        } => {
            let lwidth = left.output_schema().len();
            let mut left_required: BTreeSet<usize> = left_keys.iter().copied().collect();
            let mut right_required: BTreeSet<usize> = right_keys.iter().copied().collect();
            for &r in required {
                if r < lwidth {
                    left_required.insert(r);
                } else {
                    right_required.insert(r - lwidth);
                }
            }
            if let Some(f) = &filter {
                for c in f.referenced_columns() {
                    if c < lwidth {
                        left_required.insert(c);
                    } else {
                        right_required.insert(c - lwidth);
                    }
                }
            }
            if left_required.is_empty() {
                left_required.insert(0);
            }
            if right_required.is_empty() {
                right_required.insert(0);
            }
            let (new_left, lmap) = prune_columns(*left, &left_required, ids)?;
            let (new_right, rmap) = prune_columns(*right, &right_required, ids)?;
            let new_lwidth = new_left.output_schema().len();
            let llookup = mapping_fn(&lmap);
            let rlookup = mapping_fn(&rmap);
            let new_left_keys: Vec<usize> = left_keys.iter().map(|&k| llookup(k)).collect();
            let new_right_keys: Vec<usize> = right_keys.iter().map(|&k| rlookup(k)).collect();
            let combined = |c: usize| -> usize {
                if c < lwidth {
                    llookup(c)
                } else {
                    new_lwidth + rlookup(c - lwidth)
                }
            };
            let new_filter = filter.map(|f| f.remap_columns(&combined));
            let mut mapping: Vec<(usize, usize)> = Vec::new();
            for &(old, new) in &lmap {
                mapping.push((old, new));
            }
            for &(old, new) in &rmap {
                mapping.push((lwidth + old, new_lwidth + new));
            }
            Ok((
                PlanNode::Join {
                    id,
                    left: Box::new(new_left),
                    right: Box::new(new_right),
                    join_type,
                    left_keys: new_left_keys,
                    right_keys: new_right_keys,
                    filter: new_filter,
                    distribution,
                },
                mapping,
            ))
        }
        PlanNode::IndexJoin {
            id,
            probe,
            catalog,
            table,
            table_schema,
            probe_keys,
            index_keys,
            output_columns,
        } => {
            let pwidth = probe.output_schema().len();
            let mut probe_required: BTreeSet<usize> = probe_keys.iter().copied().collect();
            for &r in required {
                if r < pwidth {
                    probe_required.insert(r);
                }
            }
            if probe_required.is_empty() {
                probe_required.insert(0);
            }
            let (new_probe, pmap) = prune_columns(*probe, &probe_required, ids)?;
            let plookup = mapping_fn(&pmap);
            let new_probe_keys: Vec<usize> = probe_keys.iter().map(|&k| plookup(k)).collect();
            let new_pwidth = new_probe.output_schema().len();
            let mut mapping: Vec<(usize, usize)> = pmap.clone();
            for i in 0..output_columns.len() {
                mapping.push((pwidth + i, new_pwidth + i));
            }
            Ok((
                PlanNode::IndexJoin {
                    id,
                    probe: Box::new(new_probe),
                    catalog,
                    table,
                    table_schema,
                    probe_keys: new_probe_keys,
                    index_keys,
                    output_columns,
                },
                mapping,
            ))
        }
        PlanNode::Sort { id, input, keys } => {
            let mut child_required = required.clone();
            child_required.extend(keys.iter().map(|k| k.channel));
            let (new_input, mapping) = prune_columns(*input, &child_required, ids)?;
            let keys = {
                let lookup = mapping_fn(&mapping);
                remap_keys(&keys, &lookup)
            };
            Ok((
                PlanNode::Sort {
                    id,
                    input: Box::new(new_input),
                    keys,
                },
                mapping,
            ))
        }
        PlanNode::TopN {
            id,
            input,
            keys,
            count,
        } => {
            let mut child_required = required.clone();
            child_required.extend(keys.iter().map(|k| k.channel));
            let (new_input, mapping) = prune_columns(*input, &child_required, ids)?;
            let keys = {
                let lookup = mapping_fn(&mapping);
                remap_keys(&keys, &lookup)
            };
            Ok((
                PlanNode::TopN {
                    id,
                    input: Box::new(new_input),
                    keys,
                    count,
                },
                mapping,
            ))
        }
        PlanNode::Limit { id, input, count } => {
            let (new_input, mapping) = prune_columns(*input, required, ids)?;
            Ok((
                PlanNode::Limit {
                    id,
                    input: Box::new(new_input),
                    count,
                },
                mapping,
            ))
        }
        PlanNode::Window {
            id,
            input,
            partition_by,
            order_by,
            functions,
        } => {
            // Keep the required pass-through channels and what the window
            // reads: partition, order and kept function-input channels.
            let input_width = input.output_schema().len();
            let kept_fns: Vec<usize> = (0..functions.len())
                .filter(|i| required.contains(&(input_width + i)))
                .collect();
            let mut child_required: BTreeSet<usize> =
                required.range(..input_width).copied().collect();
            child_required.extend(partition_by.iter().copied());
            child_required.extend(order_by.iter().map(|k| k.channel));
            child_required.extend(kept_fns.iter().filter_map(|&i| functions[i].input));
            if child_required.is_empty() {
                // Keep one channel so row counts flow.
                child_required.insert(0);
            }
            let (new_input, child_mapping) = prune_columns(*input, &child_required, ids)?;
            let lookup = mapping_fn(&child_mapping);
            let new_partition: Vec<usize> = partition_by.iter().map(|&c| lookup(c)).collect();
            let new_order = remap_keys(&order_by, &lookup);
            let new_fns: Vec<_> = kept_fns
                .iter()
                .map(|&i| {
                    let mut f = functions[i].clone();
                    f.input = f.input.map(&lookup);
                    f
                })
                .collect();
            let new_width = new_input.output_schema().len();
            let mut mapping = child_mapping.clone();
            for (new_i, &old_i) in kept_fns.iter().enumerate() {
                mapping.push((input_width + old_i, new_width + new_i));
            }
            Ok((
                PlanNode::Window {
                    id,
                    input: Box::new(new_input),
                    partition_by: new_partition,
                    order_by: new_order,
                    functions: new_fns,
                },
                mapping,
            ))
        }
        PlanNode::Union { id, inputs } => {
            // Union requires positional consistency: prune the same channels
            // from every input.
            let width = inputs[0].output_schema().len();
            let kept: Vec<usize> = (0..width).filter(|c| required.contains(c)).collect();
            let kept = if kept.is_empty() { vec![0] } else { kept };
            let child_required: BTreeSet<usize> = kept.iter().copied().collect();
            let mut new_inputs = Vec::new();
            for input in inputs {
                let (pruned, child_map) = prune_columns(input, &child_required, ids)?;
                // Re-project to the kept channels in order so all inputs agree.
                let lookup = mapping_fn(&child_map);
                let schema = pruned.output_schema();
                let exprs: Vec<Expr> = kept
                    .iter()
                    .map(|&c| Expr::column(lookup(c), schema.data_type(lookup(c))))
                    .collect();
                let names: Vec<String> = kept.iter().map(|&c| format!("_u{c}")).collect();
                // Skip the re-projection when it is an identity.
                let identity = exprs
                    .iter()
                    .enumerate()
                    .all(|(i, e)| matches!(e, Expr::Column { index, .. } if *index == i))
                    && exprs.len() == schema.len();
                if identity {
                    new_inputs.push(pruned);
                } else {
                    new_inputs.push(PlanNode::Project {
                        id: ids.next_id(),
                        input: Box::new(pruned),
                        expressions: exprs,
                        names,
                    });
                }
            }
            let mapping: Vec<(usize, usize)> = kept
                .iter()
                .enumerate()
                .map(|(new, &old)| (old, new))
                .collect();
            Ok((
                PlanNode::Union {
                    id,
                    inputs: new_inputs,
                },
                mapping,
            ))
        }
        PlanNode::TableWrite {
            id,
            input,
            catalog,
            table,
        } => {
            // Writers need every input column.
            let width = input.output_schema().len();
            let all: BTreeSet<usize> = (0..width).collect();
            let (new_input, _) = prune_columns(*input, &all, ids)?;
            Ok((
                PlanNode::TableWrite {
                    id,
                    input: Box::new(new_input),
                    catalog,
                    table,
                },
                vec![(0, 0)],
            ))
        }
        PlanNode::Output { id, input, names } => {
            let width = input.output_schema().len();
            let all: BTreeSet<usize> = (0..width).collect();
            let (new_input, _) = prune_columns(*input, &all, ids)?;
            let mapping: Vec<(usize, usize)> = (0..width).map(|c| (c, c)).collect();
            Ok((
                PlanNode::Output {
                    id,
                    input: Box::new(new_input),
                    names,
                },
                mapping,
            ))
        }
        PlanNode::RemoteSource {
            id,
            fragment,
            schema,
        } => {
            let width = schema.len();
            let mapping: Vec<(usize, usize)> = (0..width).map(|c| (c, c)).collect();
            Ok((
                PlanNode::RemoteSource {
                    id,
                    fragment,
                    schema,
                },
                mapping,
            ))
        }
    }
}

fn mapping_fn(mapping: &[(usize, usize)]) -> impl Fn(usize) -> usize + '_ {
    move |old| {
        mapping
            .iter()
            .find(|(o, _)| *o == old)
            .map(|(_, n)| *n)
            .unwrap_or_else(|| panic!("column {old} pruned while still referenced"))
    }
}

fn remap_keys(keys: &[SortKey], lookup: &dyn Fn(usize) -> usize) -> Vec<SortKey> {
    keys.iter()
        .map(|k| SortKey {
            channel: lookup(k.channel),
            ..*k
        })
        .collect()
}
