//! The typed scalar expression IR.
//!
//! Expressions are produced by the analyzer (which resolves names to input
//! channel indices and checks types) and consumed by the two evaluators and
//! the optimizer. Every node knows its result [`DataType`].

use presto_common::{DataType, Value};
use std::fmt;

use crate::functions::ScalarFn;

/// Binary arithmetic operators over numeric types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl ArithOp {
    pub fn symbol(&self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        }
    }
}

/// Comparison operators; result is boolean (three-valued under NULL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flip(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Evaluate against an [`std::cmp::Ordering`].
    pub fn matches(&self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

/// A typed scalar expression over the channels of an input page.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to input column `index`.
    Column {
        index: usize,
        data_type: DataType,
    },
    /// A constant.
    Literal {
        value: Value,
        data_type: DataType,
    },
    /// Binary arithmetic; operands are already coerced to `data_type`
    /// (bigint or double) by the analyzer.
    Arith {
        op: ArithOp,
        left: Box<Expr>,
        right: Box<Expr>,
        data_type: DataType,
    },
    /// Comparison; operands share a comparable type.
    Cmp {
        op: CmpOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// N-ary conjunction with SQL three-valued logic and short-circuiting.
    And(Vec<Expr>),
    /// N-ary disjunction.
    Or(Vec<Expr>),
    Not(Box<Expr>),
    IsNull(Box<Expr>),
    /// Searched CASE: the first branch whose condition is true wins.
    Case {
        branches: Vec<(Expr, Expr)>,
        otherwise: Option<Box<Expr>>,
        data_type: DataType,
    },
    /// Explicit cast.
    Cast {
        expr: Box<Expr>,
        data_type: DataType,
    },
    /// `expr IN (v1, v2, ...)` against a literal list.
    InList {
        expr: Box<Expr>,
        list: Vec<Value>,
    },
    /// Scalar function call.
    Call {
        function: ScalarFn,
        args: Vec<Expr>,
        data_type: DataType,
    },
}

impl Expr {
    pub fn column(index: usize, data_type: DataType) -> Expr {
        Expr::Column { index, data_type }
    }

    pub fn literal(value: impl Into<Value>) -> Expr {
        let value = value.into();
        let data_type = value.data_type().unwrap_or(DataType::Boolean);
        Expr::Literal { value, data_type }
    }

    pub fn typed_literal(value: Value, data_type: DataType) -> Expr {
        Expr::Literal { value, data_type }
    }

    pub fn cmp(op: CmpOp, left: Expr, right: Expr) -> Expr {
        Expr::Cmp {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    pub fn arith(op: ArithOp, left: Expr, right: Expr) -> Expr {
        let data_type =
            if left.data_type() == DataType::Double || right.data_type() == DataType::Double {
                DataType::Double
            } else {
                DataType::Bigint
            };
        Expr::Arith {
            op,
            left: Box::new(left),
            right: Box::new(right),
            data_type,
        }
    }

    pub fn and(exprs: Vec<Expr>) -> Expr {
        match exprs.len() {
            0 => Expr::literal(true),
            1 => match exprs.into_iter().next() {
                Some(e) => e,
                None => unreachable!("len checked"),
            },
            _ => Expr::And(exprs),
        }
    }

    pub fn or(exprs: Vec<Expr>) -> Expr {
        match exprs.len() {
            0 => Expr::literal(false),
            1 => match exprs.into_iter().next() {
                Some(e) => e,
                None => unreachable!("len checked"),
            },
            _ => Expr::Or(exprs),
        }
    }

    /// The result type of this expression.
    pub fn data_type(&self) -> DataType {
        match self {
            Expr::Column { data_type, .. }
            | Expr::Literal { data_type, .. }
            | Expr::Arith { data_type, .. }
            | Expr::Case { data_type, .. }
            | Expr::Cast { data_type, .. }
            | Expr::Call { data_type, .. } => *data_type,
            Expr::Cmp { .. }
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::IsNull(_)
            | Expr::InList { .. } => DataType::Boolean,
        }
    }

    /// Call `f` on each direct child, in order.
    fn for_each_child(&self, mut f: impl FnMut(&Expr)) {
        match self {
            Expr::Column { .. } | Expr::Literal { .. } => {}
            Expr::Arith { left, right, .. } | Expr::Cmp { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::And(es) | Expr::Or(es) | Expr::Call { args: es, .. } => es.iter().for_each(f),
            Expr::Not(e)
            | Expr::IsNull(e)
            | Expr::Cast { expr: e, .. }
            | Expr::InList { expr: e, .. } => f(e),
            Expr::Case {
                branches,
                otherwise,
                ..
            } => {
                for (c, v) in branches {
                    f(c);
                    f(v);
                }
                if let Some(e) = otherwise {
                    f(e);
                }
            }
        }
    }

    /// This node with each direct child replaced by `f(child)`, in order.
    /// Children are rewritten in place: no node is reallocated.
    fn map_children(mut self, mut f: impl FnMut(Expr) -> Expr) -> Expr {
        let mut apply = |e: &mut Expr| *e = f(e.take());
        match &mut self {
            Expr::Column { .. } | Expr::Literal { .. } => {}
            Expr::Arith { left, right, .. } | Expr::Cmp { left, right, .. } => {
                apply(left);
                apply(right);
            }
            Expr::And(es) | Expr::Or(es) | Expr::Call { args: es, .. } => {
                es.iter_mut().for_each(apply)
            }
            Expr::Not(e)
            | Expr::IsNull(e)
            | Expr::Cast { expr: e, .. }
            | Expr::InList { expr: e, .. } => apply(e),
            Expr::Case {
                branches,
                otherwise,
                ..
            } => {
                for (c, v) in branches {
                    apply(c);
                    apply(v);
                }
                if let Some(e) = otherwise {
                    apply(e);
                }
            }
        }
        self
    }

    /// Rewrite the whole tree bottom-up: children first, then `f` on the
    /// node they were rebuilt into.
    pub fn transform_up(self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        let node = self.map_children(|c| c.transform_up(f));
        f(node)
    }

    /// Move this expression out, leaving a constant in its place.
    pub fn take(&mut self) -> Expr {
        std::mem::replace(
            self,
            Expr::Literal {
                value: Value::Null,
                data_type: DataType::Boolean,
            },
        )
    }

    /// Call `f` on this node and on every node below it, parents first.
    fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        self.for_each_child(|c| c.walk(f));
    }

    /// All input channels referenced by this expression, deduplicated.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column { index, .. } = e {
                cols.push(*index);
            }
        });
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Rewrite column references through `mapping` (old index → new index).
    /// Used when projections reorder/prune channels. Panics on unmapped
    /// columns — that is a planner bug.
    pub fn remap_columns(&self, mapping: &dyn Fn(usize) -> usize) -> Expr {
        self.clone().transform_up(&mut |e| match e {
            Expr::Column { index, data_type } => Expr::Column {
                index: mapping(index),
                data_type,
            },
            other => other,
        })
    }

    /// Whether this expression is free of column references (a constant
    /// expression foldable at plan time).
    pub fn is_constant(&self) -> bool {
        let mut constant = true;
        self.walk(&mut |e| constant &= !matches!(e, Expr::Column { .. }));
        constant
    }

    /// Whether the expression is deterministic. All built-in functions here
    /// are; the hook matches Presto's optimizer guard for pushdown rules.
    pub fn is_deterministic(&self) -> bool {
        true
    }

    /// Split a conjunction into its factors (`a AND b AND c` → `[a, b, c]`).
    pub fn conjuncts(&self) -> Vec<Expr> {
        match self {
            Expr::And(es) => es.iter().flat_map(|e| e.conjuncts()).collect(),
            other => vec![other.clone()],
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { index, .. } => write!(f, "${index}"),
            Expr::Literal { value, .. } => match value {
                Value::Varchar(s) => write!(f, "'{s}'"),
                v => write!(f, "{v}"),
            },
            Expr::Arith {
                op, left, right, ..
            } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Cmp { op, left, right } => write!(f, "({left} {} {right})", op.symbol()),
            Expr::And(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Or(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::IsNull(e) => write!(f, "({e} IS NULL)"),
            Expr::Case {
                branches,
                otherwise,
                ..
            } => {
                write!(f, "CASE")?;
                for (c, v) in branches {
                    write!(f, " WHEN {c} THEN {v}")?;
                }
                if let Some(e) = otherwise {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Cast { expr, data_type } => write!(f, "CAST({expr} AS {data_type})"),
            Expr::InList { expr, list } => {
                write!(f, "({expr} IN (")?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "))")
            }
            Expr::Call { function, args, .. } => {
                write!(f, "{}(", function.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn data_type_inference() {
        let e = Expr::arith(
            ArithOp::Add,
            Expr::column(0, DataType::Bigint),
            Expr::column(1, DataType::Double),
        );
        assert_eq!(e.data_type(), DataType::Double);
        let e = Expr::cmp(CmpOp::Lt, Expr::literal(1i64), Expr::literal(2i64));
        assert_eq!(e.data_type(), DataType::Boolean);
    }

    #[test]
    fn referenced_columns_dedup() {
        let e = Expr::and(vec![
            Expr::cmp(
                CmpOp::Eq,
                Expr::column(3, DataType::Bigint),
                Expr::literal(1i64),
            ),
            Expr::cmp(
                CmpOp::Eq,
                Expr::column(1, DataType::Bigint),
                Expr::column(3, DataType::Bigint),
            ),
        ]);
        assert_eq!(e.referenced_columns(), vec![1, 3]);
    }

    #[test]
    fn remap_columns() {
        let e = Expr::column(2, DataType::Bigint);
        let r = e.remap_columns(&|i| i + 10);
        assert_eq!(r.referenced_columns(), vec![12]);
    }

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let a = Expr::cmp(
            CmpOp::Eq,
            Expr::column(0, DataType::Bigint),
            Expr::literal(1i64),
        );
        let b = Expr::IsNull(Box::new(Expr::column(1, DataType::Bigint)));
        let c = Expr::literal(true);
        let e = Expr::and(vec![a.clone(), Expr::and(vec![b.clone(), c.clone()])]);
        assert_eq!(e.conjuncts(), vec![a, b, c]);
    }

    #[test]
    fn and_or_collapse_trivial_cases() {
        assert_eq!(Expr::and(vec![]), Expr::literal(true));
        let single = Expr::literal(false);
        assert_eq!(Expr::or(vec![single.clone()]), single);
    }

    #[test]
    fn cmp_flip() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
        assert!(CmpOp::Le.matches(std::cmp::Ordering::Equal));
        assert!(!CmpOp::Ne.matches(std::cmp::Ordering::Equal));
    }

    #[test]
    fn display_round_readable() {
        let e = Expr::cmp(
            CmpOp::Eq,
            Expr::column(0, DataType::Varchar),
            Expr::literal("x"),
        );
        assert_eq!(e.to_string(), "($0 = 'x')");
    }
}
