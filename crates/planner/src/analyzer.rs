//! The analyzer: resolves names, checks types, and lowers the untyped AST
//! into a logical [`PlanNode`] tree (§IV-B2: "The analyzer uses this tree
//! to determine types and coercions, resolve functions and scopes, and
//! extracts logical components, such as subqueries, aggregations, and
//! window functions").

use presto_common::id::PlanNodeIdAllocator;
use presto_common::{DataType, PrestoError, Result, Schema, Session, Value};
use presto_connector::{CatalogManager, TupleDomain};
use presto_expr::{
    AggregateFunction, AggregateKind, ArithOp, CmpOp, Expr, ScalarFn, WindowFunction,
};
use presto_sql::ast::{
    AstExpr, BinaryOp, JoinKind, OrderItem, QualifiedName, Query, Select, SelectItem, Statement,
    TableRef, WindowSpec,
};

use crate::plan::{AggregateSpec, AggregateStep, JoinType, PlanNode, SortKey, WindowFnSpec};

/// One visible column during analysis.
#[derive(Debug, Clone)]
struct ScopeColumn {
    /// Relation alias the column is reachable through (`t` in `t.x`).
    relation: Option<String>,
    name: String,
    data_type: DataType,
}

/// A name-resolution scope: the columns produced by a FROM clause (or by a
/// node mid-pipeline).
#[derive(Debug, Clone, Default)]
struct Scope {
    columns: Vec<ScopeColumn>,
}

impl Scope {
    fn from_schema(schema: &Schema, relation: Option<&str>) -> Scope {
        Scope {
            columns: schema
                .fields()
                .iter()
                .map(|f| ScopeColumn {
                    relation: relation.map(str::to_string),
                    name: f.name.clone(),
                    data_type: f.data_type,
                })
                .collect(),
        }
    }

    fn join(&self, other: &Scope) -> Scope {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Scope { columns }
    }

    /// Resolve a possibly-qualified identifier to (channel, type).
    fn resolve(&self, name: &QualifiedName) -> Result<(usize, DataType)> {
        let (relation, column) = match name.parts.as_slice() {
            [c] => (None, c.as_str()),
            [r, c] => (Some(r.as_str()), c.as_str()),
            _ => {
                return Err(PrestoError::user(format!(
                    "unsupported qualified name '{name}'"
                )))
            }
        };
        let mut matches = self.columns.iter().enumerate().filter(|(_, col)| {
            col.name.eq_ignore_ascii_case(column)
                && relation.is_none_or(|r| {
                    col.relation
                        .as_deref()
                        .is_some_and(|cr| cr.eq_ignore_ascii_case(r))
                })
        });
        match (matches.next(), matches.next()) {
            (Some((i, col)), None) => Ok((i, col.data_type)),
            (Some(_), Some(_)) => Err(PrestoError::user(format!("column '{name}' is ambiguous"))),
            (None, _) => Err(PrestoError::user(format!(
                "column '{name}' cannot be resolved"
            ))),
        }
    }
}

/// What an AST expression lowers against: the scope its columns resolve
/// in, the sub-trees a node below has already computed (group keys and
/// aggregate calls over an Aggregate, window calls over a Window) with the
/// channel reference each becomes, and whether a bare column must be one
/// of those group keys.
struct Lowering<'a> {
    scope: &'a Scope,
    computed: &'a [(AstExpr, Expr)],
    grouped: bool,
}

/// Analyzer entry point.
pub struct Analyzer<'a> {
    catalogs: &'a CatalogManager,
    session: &'a Session,
    ids: PlanNodeIdAllocator,
}

impl<'a> Analyzer<'a> {
    pub fn new(catalogs: &'a CatalogManager, session: &'a Session) -> Analyzer<'a> {
        Analyzer {
            catalogs,
            session,
            ids: PlanNodeIdAllocator::new(),
        }
    }

    /// Analyze a statement into a plan rooted at Output (queries) or
    /// TableWrite→Output (INSERT).
    pub fn analyze(&mut self, statement: &Statement) -> Result<PlanNode> {
        match statement {
            Statement::Query(q) => {
                let (node, scope) = self.analyze_query(q)?;
                let names = scope.columns.iter().map(|c| c.name.clone()).collect();
                Ok(PlanNode::Output {
                    id: self.ids.next_id(),
                    input: Box::new(node),
                    names,
                })
            }
            Statement::Insert { table, query } => {
                let (catalog, table_name) = self.resolve_table_name(table)?;
                let connector = self.catalogs.catalog(&catalog)?;
                let target_schema = connector.metadata().table_schema(&table_name)?;
                let (node, scope) = self.analyze_query(query)?;
                if scope.columns.len() != target_schema.len() {
                    return Err(PrestoError::user(format!(
                        "INSERT has {} columns but '{table_name}' has {}",
                        scope.columns.len(),
                        target_schema.len()
                    )));
                }
                // Coerce the query output to the target schema.
                let mut exprs = Vec::new();
                let mut names = Vec::new();
                for (i, field) in target_schema.fields().iter().enumerate() {
                    let have = scope.columns[i].data_type;
                    let want = field.data_type;
                    let col = Expr::column(i, have);
                    let expr = if have == want {
                        col
                    } else if have.coerces_to(want) {
                        Expr::Cast {
                            expr: Box::new(col),
                            data_type: want,
                        }
                    } else {
                        return Err(PrestoError::user(format!(
                            "INSERT column {} has type {have}, expected {want}",
                            field.name
                        )));
                    };
                    exprs.push(expr);
                    names.push(field.name.clone());
                }
                let projected = PlanNode::Project {
                    id: self.ids.next_id(),
                    input: Box::new(node),
                    expressions: exprs,
                    names,
                };
                let write = PlanNode::TableWrite {
                    id: self.ids.next_id(),
                    input: Box::new(projected),
                    catalog,
                    table: table_name,
                };
                Ok(PlanNode::Output {
                    id: self.ids.next_id(),
                    input: Box::new(write),
                    names: vec!["rows".to_string()],
                })
            }
            Statement::Explain(inner) | Statement::ExplainAnalyze(inner) => self.analyze(inner),
        }
    }

    fn resolve_table_name(&self, name: &QualifiedName) -> Result<(String, String)> {
        match name.parts.as_slice() {
            [t] => Ok((self.session.catalog.clone(), t.clone())),
            [c, t] => Ok((c.clone(), t.clone())),
            // catalog.schema.table: connectors that expose schemas (the
            // system catalog's "runtime" schema) receive "schema.table" as
            // their table name.
            [c, s, t] => Ok((c.clone(), format!("{s}.{t}"))),
            _ => Err(PrestoError::user(format!("invalid table name '{name}'"))),
        }
    }

    fn analyze_query(&mut self, query: &Query) -> Result<(PlanNode, Scope)> {
        let mut terms = Vec::new();
        for term in &query.terms {
            terms.push(self.analyze_select(term)?);
        }
        let (mut node, scope) = {
            let mut it = terms.into_iter();
            let (first_node, first_scope) = it.next().expect("parser guarantees ≥1 term");
            let mut acc_inputs = vec![first_node];
            let scope = first_scope;
            for (n, s) in it {
                if s.columns.len() != scope.columns.len() {
                    return Err(PrestoError::user(
                        "UNION ALL inputs have different column counts",
                    ));
                }
                // Coerce mismatched columns to the first term's types.
                let mut exprs = Vec::new();
                let mut needs_cast = false;
                for (i, (a, b)) in scope.columns.iter().zip(&s.columns).enumerate() {
                    let col = Expr::column(i, b.data_type);
                    if a.data_type == b.data_type {
                        exprs.push(col);
                    } else if b.data_type.coerces_to(a.data_type) {
                        needs_cast = true;
                        exprs.push(Expr::Cast {
                            expr: Box::new(col),
                            data_type: a.data_type,
                        });
                    } else {
                        return Err(PrestoError::user(format!(
                            "UNION ALL column {i} types {} and {} are incompatible",
                            a.data_type, b.data_type
                        )));
                    }
                }
                if needs_cast {
                    let names = scope.columns.iter().map(|c| c.name.clone()).collect();
                    acc_inputs.push(PlanNode::Project {
                        id: self.ids.next_id(),
                        input: Box::new(n),
                        expressions: exprs,
                        names,
                    });
                } else {
                    acc_inputs.push(n);
                }
            }
            if acc_inputs.len() == 1 {
                let only = acc_inputs.pop().expect("len checked above");
                (only, scope)
            } else {
                (
                    PlanNode::Union {
                        id: self.ids.next_id(),
                        inputs: acc_inputs,
                    },
                    scope,
                )
            }
        };

        // ORDER BY over the query output.
        if !query.order_by.is_empty() {
            let keys = self.resolve_order_keys(&query.order_by, &scope)?;
            node = match query.limit {
                Some(n) => PlanNode::TopN {
                    id: self.ids.next_id(),
                    input: Box::new(node),
                    keys,
                    count: n,
                },
                None => PlanNode::Sort {
                    id: self.ids.next_id(),
                    input: Box::new(node),
                    keys,
                },
            };
            if query.limit.is_some() {
                return Ok((node, scope));
            }
        } else if let Some(n) = query.limit {
            node = PlanNode::Limit {
                id: self.ids.next_id(),
                input: Box::new(node),
                count: n,
            };
        }
        Ok((node, scope))
    }

    /// ORDER BY keys: ordinals, output names, or (for simple cases) any
    /// expression over output columns that reduces to a column.
    fn resolve_order_keys(&self, items: &[OrderItem], scope: &Scope) -> Result<Vec<SortKey>> {
        let mut keys = Vec::new();
        for item in items {
            let channel = match &item.expr {
                AstExpr::Literal(Value::Bigint(n)) => {
                    let i = *n as usize;
                    if i == 0 || i > scope.columns.len() {
                        return Err(PrestoError::user(format!(
                            "ORDER BY position {n} is out of range"
                        )));
                    }
                    i - 1
                }
                AstExpr::Identifier(name) => match scope.resolve(name) {
                    Ok((c, _)) => c,
                    // Qualified names (`o.col`) resolve by bare column name
                    // against the query output, which drops qualifiers.
                    Err(e) => {
                        let bare = QualifiedName::single(
                            name.parts.last().expect("nonempty name").clone(),
                        );
                        scope.resolve(&bare).map_err(|_| e)?.0
                    }
                },
                other => {
                    // Allow arbitrary expressions only when they reduce to a
                    // column reference after rewriting.
                    let e = Lowering::over(scope).rewrite_expr(other)?;
                    match e {
                        Expr::Column { index, .. } => index,
                        _ => {
                            return Err(PrestoError::user(
                                "ORDER BY expressions must reference output columns",
                            ))
                        }
                    }
                }
            };
            keys.push(SortKey {
                channel,
                ascending: item.ascending,
                nulls_first: item.nulls_first,
            });
        }
        Ok(keys)
    }

    fn analyze_select(&mut self, select: &Select) -> Result<(PlanNode, Scope)> {
        // FROM
        let (mut node, scope) = match &select.from {
            Some(t) => self.analyze_table_ref(t)?,
            None => (
                // SELECT without FROM: one empty row.
                PlanNode::Values {
                    id: self.ids.next_id(),
                    schema: Schema::default(),
                    rows: vec![vec![]],
                },
                Scope::default(),
            ),
        };
        // WHERE
        if let Some(w) = &select.where_ {
            if contains_aggregate(w) {
                return Err(PrestoError::user("WHERE clause cannot contain aggregates"));
            }
            let predicate = Lowering::over(&scope).rewrite_boolean(w, "WHERE")?;
            node = PlanNode::Filter {
                id: self.ids.next_id(),
                input: Box::new(node),
                predicate,
            };
        }

        // Expand wildcards into explicit items.
        let items = expand_items(&select.items, &scope)?;

        let has_aggregates = !select.group_by.is_empty()
            || items.iter().any(|(e, _)| contains_aggregate(e))
            || select.having.is_some();
        let has_windows = items.iter().any(|(e, _)| contains_window(e));
        if has_aggregates && has_windows {
            return Err(PrestoError::user(
                "mixing window functions and aggregates in one SELECT is not supported",
            ));
        }

        let (node, scope) = if has_aggregates {
            self.plan_aggregation(node, scope, &items, select)?
        } else if has_windows {
            self.plan_window(node, scope, &items)?
        } else {
            // Plain projection.
            let lowering = Lowering::over(&scope);
            let mut exprs = Vec::new();
            let mut names = Vec::new();
            for (ast, name) in &items {
                exprs.push(lowering.rewrite_expr(ast)?);
                names.push(name.clone());
            }
            let schema: Schema = names
                .iter()
                .zip(&exprs)
                .map(|(n, e)| presto_common::Field::new(n.clone(), e.data_type()))
                .collect();
            let project = PlanNode::Project {
                id: self.ids.next_id(),
                input: Box::new(node),
                expressions: exprs,
                names,
            };
            (project, Scope::from_schema(&schema, None))
        };

        // DISTINCT = group by every output column.
        if select.distinct {
            let n = scope.columns.len();
            let agg = PlanNode::Aggregate {
                id: self.ids.next_id(),
                input: Box::new(node),
                group_by: (0..n).collect(),
                aggregates: vec![],
                step: AggregateStep::Single,
            };
            return Ok((agg, scope));
        }
        Ok((node, scope))
    }

    fn analyze_table_ref(&mut self, table: &TableRef) -> Result<(PlanNode, Scope)> {
        match table {
            TableRef::Table { name, alias } => {
                let (catalog, table_name) = self.resolve_table_name(name)?;
                let connector = self.catalogs.catalog(&catalog)?;
                let schema = connector.metadata().table_schema(&table_name)?;
                let relation = alias.clone().unwrap_or_else(|| table_name.clone());
                let scan = PlanNode::TableScan {
                    id: self.ids.next_id(),
                    catalog,
                    table: table_name,
                    layout: "default".to_string(),
                    columns: (0..schema.len()).collect(),
                    table_schema: schema.clone(),
                    predicate: TupleDomain::all(),
                };
                Ok((scan, Scope::from_schema(&schema, Some(&relation))))
            }
            TableRef::Derived { query, alias } => {
                let (node, scope) = self.analyze_query(query)?;
                let columns = scope
                    .columns
                    .into_iter()
                    .map(|c| ScopeColumn {
                        relation: Some(alias.clone()),
                        ..c
                    })
                    .collect();
                Ok((node, Scope { columns }))
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let (lnode, lscope) = self.analyze_table_ref(left)?;
                let (rnode, rscope) = self.analyze_table_ref(right)?;
                let joined_scope = lscope.join(&rscope);
                let filter = match on {
                    Some(cond) => {
                        Some(Lowering::over(&joined_scope).rewrite_boolean(cond, "JOIN ON")?)
                    }
                    None => None,
                };
                // RIGHT JOIN → LEFT JOIN with swapped inputs: remap the
                // filter's channels and present the scope in original order
                // via a projection.
                let (node, scope) = match kind {
                    JoinKind::Right => {
                        let lwidth = lscope.columns.len();
                        let rwidth = rscope.columns.len();
                        let remapped = filter.map(|f| {
                            f.remap_columns(&|c| {
                                if c < lwidth {
                                    rwidth + c
                                } else {
                                    c - lwidth
                                }
                            })
                        });
                        let join = PlanNode::Join {
                            id: self.ids.next_id(),
                            left: Box::new(rnode),
                            right: Box::new(lnode),
                            join_type: JoinType::Left,
                            left_keys: vec![],
                            right_keys: vec![],
                            filter: remapped,
                            distribution: None,
                        };
                        // Restore column order (left columns first).
                        let swapped_scope = rscope.join(&lscope);
                        let exprs: Vec<Expr> = (0..lwidth + rwidth)
                            .map(|i| {
                                let src = if i < lwidth { rwidth + i } else { i - lwidth };
                                Expr::column(src, swapped_scope.columns[src].data_type)
                            })
                            .collect();
                        let names = joined_scope
                            .columns
                            .iter()
                            .map(|c| c.name.clone())
                            .collect();
                        let project = PlanNode::Project {
                            id: self.ids.next_id(),
                            input: Box::new(join),
                            expressions: exprs,
                            names,
                        };
                        (project, joined_scope)
                    }
                    _ => {
                        let join_type = match kind {
                            JoinKind::Inner => JoinType::Inner,
                            JoinKind::Left => JoinType::Left,
                            JoinKind::Cross => JoinType::Cross,
                            JoinKind::Right => unreachable!(),
                        };
                        let join = PlanNode::Join {
                            id: self.ids.next_id(),
                            left: Box::new(lnode),
                            right: Box::new(rnode),
                            join_type,
                            left_keys: vec![],
                            right_keys: vec![],
                            filter,
                            distribution: None,
                        };
                        (join, joined_scope)
                    }
                };
                Ok((node, scope))
            }
        }
    }

    /// Plan GROUP BY / aggregate selects.
    fn plan_aggregation(
        &mut self,
        input: PlanNode,
        scope: Scope,
        items: &[(AstExpr, String)],
        select: &Select,
    ) -> Result<(PlanNode, Scope)> {
        // Resolve GROUP BY expressions (ordinals allowed).
        let mut group_asts: Vec<AstExpr> = Vec::new();
        for g in &select.group_by {
            let ast = match g {
                AstExpr::Literal(Value::Bigint(n)) => {
                    let i = *n as usize;
                    if i == 0 || i > items.len() {
                        return Err(PrestoError::user(format!(
                            "GROUP BY position {n} is out of range"
                        )));
                    }
                    items[i - 1].0.clone()
                }
                other => other.clone(),
            };
            group_asts.push(ast);
        }
        // Collect aggregate calls from SELECT and HAVING.
        let mut agg_calls: Vec<AstExpr> = Vec::new();
        for (e, _) in items {
            collect_aggregates(e, &mut agg_calls);
        }
        if let Some(h) = &select.having {
            collect_aggregates(h, &mut agg_calls);
        }
        dedup_asts(&mut agg_calls);

        // Pre-projection: group expressions then aggregate arguments.
        let lowering = Lowering::over(&scope);
        let mut pre_exprs: Vec<Expr> = Vec::new();
        let mut pre_names: Vec<String> = Vec::new();
        for (i, g) in group_asts.iter().enumerate() {
            let e = lowering.rewrite_expr(g)?;
            pre_names.push(match g {
                AstExpr::Identifier(q) => match q.parts.last() {
                    Some(part) => part.clone(),
                    None => format!("_group{i}"),
                },
                _ => format!("_group{i}"),
            });
            pre_exprs.push(e);
        }
        let mut agg_specs: Vec<AggregateSpec> = Vec::new();
        for (i, call) in agg_calls.iter().enumerate() {
            let AstExpr::Call {
                name,
                args,
                distinct,
                wildcard,
                ..
            } = call
            else {
                unreachable!()
            };
            let (input_channel, input_type) = if *wildcard || args.is_empty() {
                (None, None)
            } else {
                if args.len() != 1 {
                    return Err(PrestoError::user(format!(
                        "aggregate {name} expects one argument"
                    )));
                }
                let e = lowering.rewrite_expr(&args[0])?;
                let t = e.data_type();
                pre_exprs.push(e);
                pre_names.push(format!("_aggarg{i}"));
                (Some(pre_exprs.len() - 1), Some(t))
            };
            let kind = AggregateKind::resolve(name, input_channel.is_some(), *distinct)?;
            let function = AggregateFunction::new(kind, input_type)?;
            agg_specs.push(AggregateSpec {
                function,
                input: input_channel,
                name: format!("_agg{i}"),
            });
        }
        // COUNT(*) with no grouping would otherwise project zero columns;
        // keep a constant so page cardinality flows.
        if pre_exprs.is_empty() {
            pre_exprs.push(Expr::literal(1i64));
            pre_names.push("_one".to_string());
        }
        let pre_project = PlanNode::Project {
            id: self.ids.next_id(),
            input: Box::new(input),
            expressions: pre_exprs,
            names: pre_names,
        };
        let group_count = group_asts.len();
        let agg_node = PlanNode::Aggregate {
            id: self.ids.next_id(),
            input: Box::new(pre_project),
            group_by: (0..group_count).collect(),
            aggregates: agg_specs,
            step: AggregateStep::Single,
        };
        // Above the aggregation, group expressions and aggregate calls are
        // its output channels and any other column is an error.
        let agg_schema = agg_node.output_schema();
        let computed: Vec<(AstExpr, Expr)> = group_asts
            .into_iter()
            .chain(agg_calls)
            .enumerate()
            .map(|(i, ast)| (ast, Expr::column(i, agg_schema.data_type(i))))
            .collect();
        let lowering = Lowering {
            scope: &scope,
            computed: &computed,
            grouped: true,
        };

        // HAVING
        let mut node = agg_node;
        if let Some(h) = &select.having {
            let predicate = lowering.rewrite_expr(h)?;
            if predicate.data_type() != DataType::Boolean {
                return Err(PrestoError::user("HAVING clause must be boolean"));
            }
            node = PlanNode::Filter {
                id: self.ids.next_id(),
                input: Box::new(node),
                predicate,
            };
        }
        // Final projection.
        let mut exprs = Vec::new();
        let mut names = Vec::new();
        for (ast, name) in items {
            exprs.push(lowering.rewrite_expr(ast)?);
            names.push(name.clone());
        }
        let schema: Schema = names
            .iter()
            .zip(&exprs)
            .map(|(n, e)| presto_common::Field::new(n.clone(), e.data_type()))
            .collect();
        let project = PlanNode::Project {
            id: self.ids.next_id(),
            input: Box::new(node),
            expressions: exprs,
            names,
        };
        Ok((project, Scope::from_schema(&schema, None)))
    }

    /// Plan window-function selects.
    fn plan_window(
        &mut self,
        input: PlanNode,
        scope: Scope,
        items: &[(AstExpr, String)],
    ) -> Result<(PlanNode, Scope)> {
        // Collect window calls; require a single window specification.
        let mut calls: Vec<AstExpr> = Vec::new();
        for (e, _) in items {
            collect_windows(e, &mut calls);
        }
        dedup_asts(&mut calls);
        let spec: &WindowSpec = match &calls[0] {
            AstExpr::Call { over: Some(s), .. } => s,
            _ => unreachable!(),
        };
        for c in &calls {
            let AstExpr::Call { over: Some(s), .. } = c else {
                unreachable!()
            };
            if s != spec {
                return Err(PrestoError::user(
                    "multiple distinct window specifications are not supported",
                ));
            }
        }
        // Pre-project: all input columns + partition keys + order keys +
        // window args (appended so originals stay addressable).
        let width = scope.columns.len();
        let mut pre_exprs: Vec<Expr> = (0..width)
            .map(|i| Expr::column(i, scope.columns[i].data_type))
            .collect();
        let mut pre_names: Vec<String> = scope.columns.iter().map(|c| c.name.clone()).collect();
        let lowering = Lowering::over(&scope);
        let mut partition_by = Vec::new();
        for (i, p) in spec.partition_by.iter().enumerate() {
            let e = lowering.rewrite_expr(p)?;
            match e {
                Expr::Column { index, .. } => partition_by.push(index),
                other => {
                    pre_exprs.push(other);
                    pre_names.push(format!("_part{i}"));
                    partition_by.push(pre_exprs.len() - 1);
                }
            }
        }
        let mut order_by = Vec::new();
        for (i, o) in spec.order_by.iter().enumerate() {
            let e = lowering.rewrite_expr(&o.expr)?;
            let channel = match e {
                Expr::Column { index, .. } => index,
                other => {
                    pre_exprs.push(other);
                    pre_names.push(format!("_ord{i}"));
                    pre_exprs.len() - 1
                }
            };
            order_by.push(SortKey {
                channel,
                ascending: o.ascending,
                nulls_first: o.nulls_first,
            });
        }
        let mut functions = Vec::new();
        for (i, call) in calls.iter().enumerate() {
            let AstExpr::Call {
                name,
                args,
                wildcard,
                ..
            } = call
            else {
                unreachable!()
            };
            let input_channel = if *wildcard || args.is_empty() {
                None
            } else {
                let e = lowering.rewrite_expr(&args[0])?;
                match e {
                    Expr::Column { index, .. } => Some(index),
                    other => {
                        pre_exprs.push(other);
                        pre_names.push(format!("_warg{i}"));
                        Some(pre_exprs.len() - 1)
                    }
                }
            };
            let arg_type = input_channel.map(|c| pre_exprs[c].data_type());
            let function = WindowFunction::resolve(name, arg_type)?;
            if function.requires_order() && order_by.is_empty() {
                return Err(PrestoError::user(format!("{name}() requires ORDER BY")));
            }
            functions.push(WindowFnSpec {
                function,
                input: input_channel,
                name: format!("_win{i}"),
            });
        }
        let pre_project = PlanNode::Project {
            id: self.ids.next_id(),
            input: Box::new(input),
            expressions: pre_exprs,
            names: pre_names,
        };
        let window = PlanNode::Window {
            id: self.ids.next_id(),
            input: Box::new(pre_project),
            partition_by,
            order_by,
            functions: functions.clone(),
        };
        let window_schema = window.output_schema();
        let fn_base = window_schema.len() - functions.len();

        // Final projection: window calls → appended channels; everything
        // else resolves against the pass-through prefix of the window
        // output, which has the original scope's channels.
        let computed: Vec<(AstExpr, Expr)> = calls
            .into_iter()
            .enumerate()
            .map(|(i, ast)| {
                let channel = fn_base + i;
                (ast, Expr::column(channel, window_schema.data_type(channel)))
            })
            .collect();
        let lowering = Lowering {
            scope: &scope,
            computed: &computed,
            grouped: false,
        };
        let mut exprs = Vec::new();
        let mut names = Vec::new();
        for (ast, name) in items {
            exprs.push(lowering.rewrite_expr(ast)?);
            names.push(name.clone());
        }
        let schema: Schema = names
            .iter()
            .zip(&exprs)
            .map(|(n, e)| presto_common::Field::new(n.clone(), e.data_type()))
            .collect();
        let project = PlanNode::Project {
            id: self.ids.next_id(),
            input: Box::new(window),
            expressions: exprs,
            names,
        };
        Ok((project, Scope::from_schema(&schema, None)))
    }
}

impl<'a> Lowering<'a> {
    /// Lowering against `scope` alone: nothing computed below, no grouping.
    fn over(scope: &'a Scope) -> Self {
        Lowering {
            scope,
            computed: &[],
            grouped: false,
        }
    }

    /// Rewrite a boolean-typed expression, with a clause name for errors.
    fn rewrite_boolean(&self, ast: &AstExpr, clause: &str) -> Result<Expr> {
        let e = self.rewrite_expr(ast)?;
        if e.data_type() != DataType::Boolean {
            return Err(PrestoError::user(format!(
                "{clause} expression must be boolean, got {}",
                e.data_type()
            )));
        }
        Ok(e)
    }

    /// Lower an AST expression to an [`Expr`]. A sub-tree that a node below
    /// already computed becomes a reference to its channel; everything else
    /// lowers here, so aggregate, window and plain contexts accept the same
    /// SQL.
    fn rewrite_expr(&self, ast: &AstExpr) -> Result<Expr> {
        if let Some((_, computed)) = self.computed.iter().find(|(a, _)| a == ast) {
            return Ok(computed.clone());
        }
        match ast {
            AstExpr::Identifier(name) if self.grouped => Err(PrestoError::user(format!(
                "column '{name}' must appear in GROUP BY or inside an aggregate"
            ))),
            AstExpr::Identifier(name) => {
                let (channel, dt) = self.scope.resolve(name)?;
                Ok(Expr::column(channel, dt))
            }
            AstExpr::Literal(v) => Ok(literal_expr(v)),
            AstExpr::Binary { op, left, right } => {
                let l = self.rewrite_expr(left)?;
                let r = self.rewrite_expr(right)?;
                binary_expr(*op, l, r)
            }
            AstExpr::Unary { minus, expr } => {
                let e = self.rewrite_expr(expr)?;
                if *minus {
                    negate(e)
                } else {
                    Ok(e)
                }
            }
            AstExpr::Not(e) => {
                let e = self.rewrite_expr(e)?;
                if e.data_type() != DataType::Boolean {
                    return Err(PrestoError::user("NOT operand must be boolean"));
                }
                Ok(Expr::Not(Box::new(e)))
            }
            AstExpr::IsNull { expr, negated } => {
                let e = self.rewrite_expr(expr)?;
                let is_null = Expr::IsNull(Box::new(e));
                Ok(if *negated {
                    Expr::Not(Box::new(is_null))
                } else {
                    is_null
                })
            }
            AstExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let e = self.rewrite_expr(expr)?;
                let lo = self.rewrite_expr(low)?;
                let hi = self.rewrite_expr(high)?;
                between(e, lo, hi, *negated)
            }
            AstExpr::InList {
                expr,
                list,
                negated,
            } => {
                let e = self.rewrite_expr(expr)?;
                let mut values = Vec::new();
                for item in list {
                    let item_expr = self.rewrite_expr(item)?;
                    match item_expr {
                        Expr::Literal { value, data_type } => {
                            // Coerce list literals to the tested type.
                            let target = e.data_type();
                            if data_type == target {
                                values.push(value);
                            } else if let Some(v) = value.coerce_to(target) {
                                values.push(v);
                            } else {
                                return Err(PrestoError::user(format!(
                                    "IN list item type {data_type} does not match {target}"
                                )));
                            }
                        }
                        _ => return Err(PrestoError::user("IN lists must contain literals")),
                    }
                }
                let in_list = Expr::InList {
                    expr: Box::new(e),
                    list: values,
                };
                Ok(if *negated {
                    Expr::Not(Box::new(in_list))
                } else {
                    in_list
                })
            }
            AstExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let e = self.rewrite_expr(expr)?;
                let p = self.rewrite_expr(pattern)?;
                if e.data_type() != DataType::Varchar || p.data_type() != DataType::Varchar {
                    return Err(PrestoError::user("LIKE requires varchar operands"));
                }
                let call = Expr::Call {
                    function: ScalarFn::Like,
                    args: vec![e, p],
                    data_type: DataType::Boolean,
                };
                Ok(if *negated {
                    Expr::Not(Box::new(call))
                } else {
                    call
                })
            }
            AstExpr::Case {
                operand,
                branches,
                otherwise,
            } => self.rewrite_case(operand, branches, otherwise),
            AstExpr::Cast { expr, type_name } => {
                let e = self.rewrite_expr(expr)?;
                cast_expr(e, type_name)
            }
            AstExpr::Call { over: Some(_), .. } => {
                Err(PrestoError::user("window functions are not allowed here"))
            }
            AstExpr::Call {
                name,
                args,
                distinct,
                wildcard,
                over: None,
            } => {
                if *distinct || *wildcard {
                    return Err(PrestoError::user(format!(
                        "aggregate '{name}' is not allowed in this context"
                    )));
                }
                // Aggregate names that are not scalar functions fail in
                // ScalarFn::resolve below with a clear message.
                let mut rewritten = Vec::new();
                for a in args {
                    rewritten.push(self.rewrite_expr(a)?);
                }
                scalar_call(name, rewritten)
            }
        }
    }

    /// Shared CASE lowering: operand form desugars to searched form; branch
    /// results coerce to a common type.
    fn rewrite_case(
        &self,
        operand: &Option<Box<AstExpr>>,
        branches: &[(AstExpr, AstExpr)],
        otherwise: &Option<Box<AstExpr>>,
    ) -> Result<Expr> {
        let operand_expr = match operand {
            Some(op) => Some(self.rewrite_expr(op)?),
            None => None,
        };
        let mut conds = Vec::new();
        let mut results = Vec::new();
        for (when, then) in branches {
            let cond = match &operand_expr {
                Some(op) => {
                    let when_e = self.rewrite_expr(when)?;
                    comparison(CmpOp::Eq, op.clone(), when_e)?
                }
                None => {
                    let c = self.rewrite_expr(when)?;
                    if c.data_type() != DataType::Boolean {
                        return Err(PrestoError::user("CASE condition must be boolean"));
                    }
                    c
                }
            };
            conds.push(cond);
            results.push(self.rewrite_expr(then)?);
        }
        let otherwise_expr = match otherwise {
            Some(e) => Some(self.rewrite_expr(e)?),
            None => None,
        };
        // Common result type.
        let mut result_type: Option<DataType> = None;
        for r in results.iter().chain(otherwise_expr.iter()) {
            result_type = Some(match result_type {
                None => r.data_type(),
                Some(t) => DataType::common_super_type(t, r.data_type())
                    .ok_or_else(|| PrestoError::user("CASE branches have incompatible types"))?,
            });
        }
        let result_type = result_type.unwrap_or(DataType::Boolean);
        let coerce = |e: Expr| -> Expr {
            if e.data_type() == result_type {
                e
            } else {
                Expr::Cast {
                    expr: Box::new(e),
                    data_type: result_type,
                }
            }
        };
        Ok(Expr::Case {
            branches: conds
                .into_iter()
                .zip(results.into_iter().map(coerce))
                .collect(),
            otherwise: otherwise_expr.map(|e| Box::new(coerce(e))),
            data_type: result_type,
        })
    }
}

// ---- free helpers ----

fn literal_expr(v: &Value) -> Expr {
    let data_type = v.data_type().unwrap_or(DataType::Boolean);
    Expr::typed_literal(v.clone(), data_type)
}

fn negate(e: Expr) -> Result<Expr> {
    match e {
        Expr::Literal {
            value: Value::Bigint(v),
            ..
        } => Ok(Expr::literal(-v)),
        Expr::Literal {
            value: Value::Double(v),
            ..
        } => Ok(Expr::literal(-v)),
        other if other.data_type().is_numeric() => {
            Ok(Expr::arith(ArithOp::Sub, Expr::literal(0i64), other))
        }
        _ => Err(PrestoError::user("unary minus requires a numeric operand")),
    }
}

fn binary_expr(op: BinaryOp, l: Expr, r: Expr) -> Result<Expr> {
    match op {
        BinaryOp::And | BinaryOp::Or => {
            if l.data_type() != DataType::Boolean || r.data_type() != DataType::Boolean {
                return Err(PrestoError::user(format!(
                    "logical operator requires boolean operands, got {} and {}",
                    l.data_type(),
                    r.data_type()
                )));
            }
            Ok(if op == BinaryOp::And {
                Expr::and(vec![l, r])
            } else {
                Expr::or(vec![l, r])
            })
        }
        BinaryOp::Eq => comparison(CmpOp::Eq, l, r),
        BinaryOp::Ne => comparison(CmpOp::Ne, l, r),
        BinaryOp::Lt => comparison(CmpOp::Lt, l, r),
        BinaryOp::Le => comparison(CmpOp::Le, l, r),
        BinaryOp::Gt => comparison(CmpOp::Gt, l, r),
        BinaryOp::Ge => comparison(CmpOp::Ge, l, r),
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            if !l.data_type().is_numeric() || !r.data_type().is_numeric() {
                return Err(PrestoError::user(format!(
                    "arithmetic requires numeric operands, got {} and {}",
                    l.data_type(),
                    r.data_type()
                )));
            }
            let aop = match op {
                BinaryOp::Add => ArithOp::Add,
                BinaryOp::Sub => ArithOp::Sub,
                BinaryOp::Mul => ArithOp::Mul,
                BinaryOp::Div => ArithOp::Div,
                _ => ArithOp::Mod,
            };
            Ok(Expr::arith(aop, l, r))
        }
    }
}

fn comparison(op: CmpOp, l: Expr, r: Expr) -> Result<Expr> {
    let (lt, rt) = (l.data_type(), r.data_type());
    if DataType::common_super_type(lt, rt).is_none() {
        return Err(PrestoError::user(format!("cannot compare {lt} with {rt}")));
    }
    Ok(Expr::cmp(op, l, r))
}

fn between(e: Expr, lo: Expr, hi: Expr, negated: bool) -> Result<Expr> {
    let range = Expr::and(vec![
        comparison(CmpOp::Ge, e.clone(), lo)?,
        comparison(CmpOp::Le, e, hi)?,
    ]);
    Ok(if negated {
        Expr::Not(Box::new(range))
    } else {
        range
    })
}

fn cast_expr(e: Expr, type_name: &str) -> Result<Expr> {
    let target = DataType::parse(type_name)
        .ok_or_else(|| PrestoError::user(format!("unknown type '{type_name}'")))?;
    Ok(Expr::Cast {
        expr: Box::new(e),
        data_type: target,
    })
}

fn scalar_call(name: &str, args: Vec<Expr>) -> Result<Expr> {
    // Untyped NULL literals adopt the common type of the other arguments
    // (`coalesce(NULL, 7)` is bigint), matching ANSI coercion.
    let mut args = args;
    let common = args
        .iter()
        .filter(|a| {
            !matches!(
                a,
                Expr::Literal {
                    value: Value::Null,
                    ..
                }
            )
        })
        .map(Expr::data_type)
        .try_fold(None, |acc: Option<DataType>, t| match acc {
            None => Some(Some(t)),
            Some(prev) => DataType::common_super_type(prev, t).map(Some),
        })
        .flatten();
    if let Some(t) = common {
        for a in args.iter_mut() {
            if let Expr::Literal {
                value: Value::Null,
                data_type,
            } = a
            {
                *data_type = t;
            }
        }
    }
    let types: Vec<DataType> = args.iter().map(Expr::data_type).collect();
    let (function, data_type) = ScalarFn::resolve(name, &types)?;
    Ok(Expr::Call {
        function,
        args,
        data_type,
    })
}

/// Expand `*` and `alias.*` into explicit (expression, name) items.
fn expand_items(items: &[SelectItem], scope: &Scope) -> Result<Vec<(AstExpr, String)>> {
    let mut out = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                if scope.columns.is_empty() {
                    return Err(PrestoError::user("SELECT * requires a FROM clause"));
                }
                for c in &scope.columns {
                    let ast = match &c.relation {
                        Some(r) => AstExpr::qualified(r.clone(), c.name.clone()),
                        None => AstExpr::ident(c.name.clone()),
                    };
                    out.push((ast, c.name.clone()));
                }
            }
            SelectItem::QualifiedWildcard(relation) => {
                let mut any = false;
                for c in &scope.columns {
                    if c.relation
                        .as_deref()
                        .is_some_and(|r| r.eq_ignore_ascii_case(relation))
                    {
                        out.push((
                            AstExpr::qualified(relation.clone(), c.name.clone()),
                            c.name.clone(),
                        ));
                        any = true;
                    }
                }
                if !any {
                    return Err(PrestoError::user(format!(
                        "relation '{relation}' not found for wildcard"
                    )));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| match expr {
                    AstExpr::Identifier(q) => match q.parts.last() {
                        Some(part) => part.clone(),
                        None => format!("_col{}", out.len()),
                    },
                    _ => format!("_col{}", out.len()),
                });
                out.push((expr.clone(), name));
            }
        }
    }
    Ok(out)
}

fn contains_aggregate(ast: &AstExpr) -> bool {
    let mut found = false;
    walk(ast, &mut |e| {
        if let AstExpr::Call {
            name,
            over: None,
            wildcard,
            args,
            distinct,
        } = e
        {
            let has_arg = *wildcard || !args.is_empty();
            if AggregateKind::resolve(name, has_arg, *distinct).is_ok() {
                // min/max are ambiguous with scalar functions only when the
                // name also resolves as scalar; treat call with one arg and
                // aggregate-resolvable name as aggregate.
                found = true;
            }
        }
    });
    found
}

fn collect_aggregates(ast: &AstExpr, out: &mut Vec<AstExpr>) {
    walk(ast, &mut |e| {
        if let AstExpr::Call {
            name,
            over: None,
            wildcard,
            args,
            distinct,
        } = e
        {
            let has_arg = *wildcard || !args.is_empty();
            if AggregateKind::resolve(name, has_arg, *distinct).is_ok() {
                out.push(e.clone());
            }
        }
    });
}

fn contains_window(ast: &AstExpr) -> bool {
    let mut found = false;
    walk(ast, &mut |e| {
        if matches!(e, AstExpr::Call { over: Some(_), .. }) {
            found = true;
        }
    });
    found
}

fn collect_windows(ast: &AstExpr, out: &mut Vec<AstExpr>) {
    walk(ast, &mut |e| {
        if matches!(e, AstExpr::Call { over: Some(_), .. }) {
            out.push(e.clone());
        }
    });
}

fn dedup_asts(list: &mut Vec<AstExpr>) {
    let mut seen: Vec<AstExpr> = Vec::new();
    list.retain(|e| {
        if seen.contains(e) {
            false
        } else {
            seen.push(e.clone());
            true
        }
    });
}

/// Pre-order AST walk. Does not descend into nested window specs' order
/// keys (they are handled by the window planner).
fn walk(ast: &AstExpr, f: &mut impl FnMut(&AstExpr)) {
    f(ast);
    match ast {
        AstExpr::Identifier(_) | AstExpr::Literal(_) => {}
        AstExpr::Binary { left, right, .. } => {
            walk(left, f);
            walk(right, f);
        }
        AstExpr::Unary { expr, .. } | AstExpr::Not(expr) => walk(expr, f),
        AstExpr::IsNull { expr, .. } => walk(expr, f),
        AstExpr::Between {
            expr, low, high, ..
        } => {
            walk(expr, f);
            walk(low, f);
            walk(high, f);
        }
        AstExpr::InList { expr, list, .. } => {
            walk(expr, f);
            for e in list {
                walk(e, f);
            }
        }
        AstExpr::Like { expr, pattern, .. } => {
            walk(expr, f);
            walk(pattern, f);
        }
        AstExpr::Case {
            operand,
            branches,
            otherwise,
        } => {
            if let Some(op) = operand {
                walk(op, f);
            }
            for (c, r) in branches {
                walk(c, f);
                walk(r, f);
            }
            if let Some(e) = otherwise {
                walk(e, f);
            }
        }
        AstExpr::Cast { expr, .. } => walk(expr, f),
        AstExpr::Call { args, .. } => {
            for a in args {
                walk(a, f);
            }
        }
    }
}
