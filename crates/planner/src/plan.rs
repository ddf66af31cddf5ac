//! The logical/physical plan IR.
//!
//! The analyzer produces a tree of [`PlanNode`]s; optimizer rules rewrite
//! it; the fragmenter cuts it into per-stage fragments at exchange
//! boundaries. Nodes are "purely logical" at first (§IV-B3) — join
//! distribution and exchanges appear during optimization, mirroring the
//! paper's Figure 2 → Figure 3 progression.

use presto_common::{DataType, Field, PlanNodeId, Result, Schema, Value};
use presto_connector::TupleDomain;
use presto_expr::{AggregateFunction, Expr, WindowFunction};
use std::fmt::Write as _;

/// Join types after analysis. RIGHT joins are normalized to LEFT by
/// swapping inputs, so execution only sees these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    Left,
    Cross,
}

/// How a join's build side is distributed (§IV-C "join strategy selection").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinDistribution {
    /// Both sides hash-partitioned on the join keys.
    Partitioned,
    /// Build side replicated to every probe task.
    Replicated,
}

/// One ORDER BY key over input channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    pub channel: usize,
    pub ascending: bool,
    pub nulls_first: bool,
}

/// One aggregate in an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateSpec {
    pub function: AggregateFunction,
    /// Input channel; `None` for `COUNT(*)`.
    pub input: Option<usize>,
    /// Output column name.
    pub name: String,
}

/// Phase of a distributed aggregation (Fig. 3: AggregatePartial /
/// AggregateFinal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateStep {
    Single,
    Partial,
    Final,
}

/// One window function in a Window node.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowFnSpec {
    pub function: WindowFunction,
    /// Argument channel, for aggregate window functions.
    pub input: Option<usize>,
    pub name: String,
}

/// A plan node. Children are boxed; every node can derive its output
/// schema from its children.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Leaf: scan `columns` of `catalog.table` under `layout`, with
    /// `predicate` pushed into the connector.
    TableScan {
        id: PlanNodeId,
        catalog: String,
        table: String,
        layout: String,
        /// Full table schema (for column-index bookkeeping).
        table_schema: Schema,
        /// Projected column indices into `table_schema`, in output order.
        columns: Vec<usize>,
        /// Predicate pushed down to the connector (over table schema
        /// indices). The engine re-applies any residual filter above.
        predicate: TupleDomain,
    },
    /// Inline literal rows.
    Values {
        id: PlanNodeId,
        schema: Schema,
        rows: Vec<Vec<Value>>,
    },
    Filter {
        id: PlanNodeId,
        input: Box<PlanNode>,
        predicate: Expr,
    },
    Project {
        id: PlanNodeId,
        input: Box<PlanNode>,
        expressions: Vec<Expr>,
        names: Vec<String>,
    },
    Aggregate {
        id: PlanNodeId,
        input: Box<PlanNode>,
        /// Grouping key channels of the input.
        group_by: Vec<usize>,
        aggregates: Vec<AggregateSpec>,
        step: AggregateStep,
    },
    Join {
        id: PlanNodeId,
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        join_type: JoinType,
        /// Equi-join key channels (empty for cross joins).
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        /// Residual non-equi condition over the concatenated (left ++
        /// right) schema.
        filter: Option<Expr>,
        /// Chosen by the optimizer; `None` until then.
        distribution: Option<JoinDistribution>,
    },
    /// Index-nested-loop join (§IV-B3-3): probe rows look up an indexed
    /// connector table.
    IndexJoin {
        id: PlanNodeId,
        probe: Box<PlanNode>,
        catalog: String,
        table: String,
        table_schema: Schema,
        /// Probe-side key channels.
        probe_keys: Vec<usize>,
        /// Indexed columns of the table (parallel to `probe_keys`).
        index_keys: Vec<usize>,
        /// Table columns appended to the probe output.
        output_columns: Vec<usize>,
    },
    Sort {
        id: PlanNodeId,
        input: Box<PlanNode>,
        keys: Vec<SortKey>,
    },
    TopN {
        id: PlanNodeId,
        input: Box<PlanNode>,
        keys: Vec<SortKey>,
        count: u64,
    },
    Limit {
        id: PlanNodeId,
        input: Box<PlanNode>,
        count: u64,
    },
    Window {
        id: PlanNodeId,
        input: Box<PlanNode>,
        partition_by: Vec<usize>,
        order_by: Vec<SortKey>,
        functions: Vec<WindowFnSpec>,
    },
    /// UNION ALL.
    Union {
        id: PlanNodeId,
        inputs: Vec<PlanNode>,
    },
    /// INSERT target; output is a single row count.
    TableWrite {
        id: PlanNodeId,
        input: Box<PlanNode>,
        catalog: String,
        table: String,
    },
    /// Root: names the final output columns.
    Output {
        id: PlanNodeId,
        input: Box<PlanNode>,
        names: Vec<String>,
    },
    /// Fragment boundary (inserted by the fragmenter): reads the output of
    /// another fragment.
    RemoteSource {
        id: PlanNodeId,
        fragment: u32,
        schema: Schema,
    },
}

impl PlanNode {
    pub fn id(&self) -> PlanNodeId {
        match self {
            PlanNode::TableScan { id, .. }
            | PlanNode::Values { id, .. }
            | PlanNode::Filter { id, .. }
            | PlanNode::Project { id, .. }
            | PlanNode::Aggregate { id, .. }
            | PlanNode::Join { id, .. }
            | PlanNode::IndexJoin { id, .. }
            | PlanNode::Sort { id, .. }
            | PlanNode::TopN { id, .. }
            | PlanNode::Limit { id, .. }
            | PlanNode::Window { id, .. }
            | PlanNode::Union { id, .. }
            | PlanNode::TableWrite { id, .. }
            | PlanNode::Output { id, .. }
            | PlanNode::RemoteSource { id, .. } => *id,
        }
    }

    /// Immutable children, in order.
    pub fn children(&self) -> Vec<&PlanNode> {
        match self {
            PlanNode::TableScan { .. }
            | PlanNode::Values { .. }
            | PlanNode::RemoteSource { .. } => vec![],
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::TopN { input, .. }
            | PlanNode::Limit { input, .. }
            | PlanNode::Window { input, .. }
            | PlanNode::TableWrite { input, .. }
            | PlanNode::Output { input, .. } => vec![input],
            PlanNode::IndexJoin { probe, .. } => vec![probe],
            PlanNode::Join { left, right, .. } => vec![left, right],
            PlanNode::Union { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// The largest id in this subtree.
    pub fn max_id(&self) -> PlanNodeId {
        self.children()
            .iter()
            .map(|c| c.max_id())
            .fold(self.id(), PlanNodeId::max)
    }

    /// This node with each child replaced by `f(child)`, in `children()`
    /// order. Children are rewritten in place: no node is reallocated.
    pub fn map_children(
        mut self,
        mut f: impl FnMut(PlanNode) -> Result<PlanNode>,
    ) -> Result<PlanNode> {
        let mut rewrite = |slot: &mut PlanNode| -> Result<()> {
            // A childless stand-in that owns no heap memory.
            let stand_in = PlanNode::Union {
                id: PlanNodeId(0),
                inputs: Vec::new(),
            };
            *slot = f(std::mem::replace(slot, stand_in))?;
            Ok(())
        };
        match &mut self {
            PlanNode::TableScan { .. }
            | PlanNode::Values { .. }
            | PlanNode::RemoteSource { .. } => {}
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::TopN { input, .. }
            | PlanNode::Limit { input, .. }
            | PlanNode::Window { input, .. }
            | PlanNode::TableWrite { input, .. }
            | PlanNode::Output { input, .. }
            | PlanNode::IndexJoin { probe: input, .. } => rewrite(input)?,
            PlanNode::Join { left, right, .. } => {
                rewrite(left)?;
                rewrite(right)?;
            }
            PlanNode::Union { inputs, .. } => inputs.iter_mut().try_for_each(rewrite)?,
        }
        Ok(self)
    }

    /// This node with each of its own expressions (the `Filter` predicate,
    /// the `Project` expressions, the `Join` filter) replaced by `f(expr)`.
    /// Children are left alone.
    pub fn map_exprs(mut self, mut f: impl FnMut(Expr) -> Expr) -> PlanNode {
        let mut apply = |e: &mut Expr| *e = f(e.take());
        match &mut self {
            PlanNode::Filter { predicate, .. } => apply(predicate),
            PlanNode::Project { expressions, .. } => expressions.iter_mut().for_each(apply),
            PlanNode::Join {
                filter: Some(filter),
                ..
            } => apply(filter),
            _ => {}
        }
        self
    }

    /// Output schema, derived recursively.
    pub fn output_schema(&self) -> Schema {
        match self {
            PlanNode::TableScan {
                table_schema,
                columns,
                ..
            } => table_schema.project(columns),
            PlanNode::Values { schema, .. } => schema.clone(),
            PlanNode::Filter { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::TopN { input, .. }
            | PlanNode::Limit { input, .. } => input.output_schema(),
            PlanNode::Project {
                expressions, names, ..
            } => names
                .iter()
                .zip(expressions)
                .map(|(n, e)| Field::new(n.clone(), e.data_type()))
                .collect(),
            PlanNode::Aggregate {
                input,
                group_by,
                aggregates,
                step,
                ..
            } => {
                let input_schema = input.output_schema();
                let mut fields: Vec<Field> = group_by
                    .iter()
                    .map(|&c| input_schema.field(c).clone())
                    .collect();
                for agg in aggregates {
                    match step {
                        AggregateStep::Partial => {
                            for (i, t) in agg.function.intermediate_types().iter().enumerate() {
                                fields.push(Field::new(format!("{}${i}", agg.name), *t));
                            }
                        }
                        _ => fields.push(Field::new(agg.name.clone(), agg.function.output_type())),
                    }
                }
                Schema::new(fields)
            }
            PlanNode::Join {
                left,
                right,
                join_type,
                ..
            } => match join_type {
                JoinType::Inner | JoinType::Left | JoinType::Cross => {
                    left.output_schema().join(&right.output_schema())
                }
            },
            PlanNode::IndexJoin {
                probe,
                table_schema,
                output_columns,
                ..
            } => probe
                .output_schema()
                .join(&table_schema.project(output_columns)),
            PlanNode::Window {
                input, functions, ..
            } => {
                let mut fields = input.output_schema().fields().to_vec();
                for f in functions {
                    fields.push(Field::new(f.name.clone(), f.function.output_type()));
                }
                Schema::new(fields)
            }
            PlanNode::Union { inputs, .. } => inputs[0].output_schema(),
            PlanNode::TableWrite { .. } => Schema::of(&[("rows", DataType::Bigint)]),
            PlanNode::Output { input, names, .. } => {
                let input_schema = input.output_schema();
                names
                    .iter()
                    .zip(input_schema.fields())
                    .map(|(n, f)| Field::new(n.clone(), f.data_type))
                    .collect()
            }
            PlanNode::RemoteSource { schema, .. } => schema.clone(),
        }
    }

    /// Pretty-printed plan (the `EXPLAIN` output).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            PlanNode::TableScan {
                catalog,
                table,
                columns,
                predicate,
                ..
            } => {
                let _ = write!(
                    out,
                    "{pad}- TableScan[{catalog}.{table} columns={columns:?}"
                );
                if !predicate.is_all() {
                    let _ = write!(out, " pushed={}", predicate.columns().count());
                }
                let _ = writeln!(out, "]");
            }
            PlanNode::Values { rows, .. } => {
                let _ = writeln!(out, "{pad}- Values[{} rows]", rows.len());
            }
            PlanNode::Filter { predicate, .. } => {
                let _ = writeln!(out, "{pad}- Filter[{predicate}]");
            }
            PlanNode::Project { expressions, .. } => {
                let exprs: Vec<String> = expressions.iter().map(|e| e.to_string()).collect();
                let _ = writeln!(out, "{pad}- Project[{}]", exprs.join(", "));
            }
            PlanNode::Aggregate {
                group_by,
                aggregates,
                step,
                ..
            } => {
                let aggs: Vec<String> = aggregates
                    .iter()
                    .map(|a| format!("{}({:?})", a.name, a.input))
                    .collect();
                let _ = writeln!(
                    out,
                    "{pad}- Aggregate[{step:?} group_by={group_by:?} aggs=[{}]]",
                    aggs.join(", ")
                );
            }
            PlanNode::Join {
                join_type,
                left_keys,
                right_keys,
                distribution,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "{pad}- {join_type:?}Join[{left_keys:?} = {right_keys:?} dist={distribution:?}]"
                );
            }
            PlanNode::IndexJoin {
                catalog,
                table,
                probe_keys,
                index_keys,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "{pad}- IndexJoin[{catalog}.{table} probe={probe_keys:?} index={index_keys:?}]"
                );
            }
            PlanNode::Sort { keys, .. } => {
                let _ = writeln!(out, "{pad}- Sort[{keys:?}]");
            }
            PlanNode::TopN { keys, count, .. } => {
                let _ = writeln!(out, "{pad}- TopN[{count} by {keys:?}]");
            }
            PlanNode::Limit { count, .. } => {
                let _ = writeln!(out, "{pad}- Limit[{count}]");
            }
            PlanNode::Window {
                partition_by,
                functions,
                ..
            } => {
                let names: Vec<&str> = functions.iter().map(|f| f.name.as_str()).collect();
                let _ = writeln!(
                    out,
                    "{pad}- Window[partition_by={partition_by:?} fns={names:?}]"
                );
            }
            PlanNode::Union { inputs, .. } => {
                let _ = writeln!(out, "{pad}- Union[{} inputs]", inputs.len());
            }
            PlanNode::TableWrite { catalog, table, .. } => {
                let _ = writeln!(out, "{pad}- TableWrite[{catalog}.{table}]");
            }
            PlanNode::Output { names, .. } => {
                let _ = writeln!(out, "{pad}- Output[{}]", names.join(", "));
            }
            PlanNode::RemoteSource { fragment, .. } => {
                let _ = writeln!(out, "{pad}- RemoteSource[fragment {fragment}]");
            }
        }
        for child in self.children() {
            child.explain_into(out, depth + 1);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::PlanNodeId;
    use presto_expr::{AggregateKind, CmpOp};

    fn scan() -> PlanNode {
        PlanNode::TableScan {
            id: PlanNodeId(0),
            catalog: "memory".into(),
            table: "t".into(),
            layout: "default".into(),
            table_schema: Schema::of(&[
                ("a", DataType::Bigint),
                ("b", DataType::Double),
                ("c", DataType::Varchar),
            ]),
            columns: vec![2, 0],
            predicate: TupleDomain::all(),
        }
    }

    #[test]
    fn scan_schema_respects_projection() {
        let s = scan().output_schema();
        assert_eq!(s.field(0).name, "c");
        assert_eq!(s.field(1).name, "a");
    }

    #[test]
    fn aggregate_schema_by_step() {
        let agg = AggregateSpec {
            function: AggregateFunction::new(AggregateKind::Avg, Some(DataType::Bigint)).unwrap(),
            input: Some(1),
            name: "avg_a".into(),
        };
        let single = PlanNode::Aggregate {
            id: PlanNodeId(1),
            input: Box::new(scan()),
            group_by: vec![0],
            aggregates: vec![agg.clone()],
            step: AggregateStep::Single,
        };
        let s = single.output_schema();
        assert_eq!(s.len(), 2);
        assert_eq!(s.field(1).data_type, DataType::Double);
        let partial = PlanNode::Aggregate {
            id: PlanNodeId(2),
            input: Box::new(scan()),
            group_by: vec![0],
            aggregates: vec![agg],
            step: AggregateStep::Partial,
        };
        // avg partial state = (sum double, count bigint)
        let s = partial.output_schema();
        assert_eq!(s.len(), 3);
        assert_eq!(s.field(1).data_type, DataType::Double);
        assert_eq!(s.field(2).data_type, DataType::Bigint);
    }

    #[test]
    fn join_schema_concatenates() {
        let j = PlanNode::Join {
            id: PlanNodeId(3),
            left: Box::new(scan()),
            right: Box::new(scan()),
            join_type: JoinType::Inner,
            left_keys: vec![1],
            right_keys: vec![1],
            filter: None,
            distribution: None,
        };
        assert_eq!(j.output_schema().len(), 4);
    }

    #[test]
    fn explain_renders_tree() {
        let f = PlanNode::Filter {
            id: PlanNodeId(4),
            input: Box::new(scan()),
            predicate: Expr::cmp(
                CmpOp::Gt,
                Expr::column(1, DataType::Bigint),
                Expr::literal(0i64),
            ),
        };
        let text = f.explain();
        assert!(text.contains("Filter"));
        assert!(text.contains("TableScan"));
        assert!(text.find("Filter").unwrap() < text.find("TableScan").unwrap());
    }
}
