//! The row-at-a-time expression interpreter.
//!
//! This is the reference implementation of expression semantics: simple,
//! obviously correct, and — exactly as §V-B says of Presto's interpreter —
//! "much too slow for production use evaluating billions of rows". The
//! compiled evaluator in [`crate::compiled`] must agree with it on every
//! input; the property tests in that module enforce the equivalence.

use presto_common::{DataType, PrestoError, Result, Value};
use presto_page::Page;

use crate::expr::{ArithOp, Expr};

/// Evaluate `expr` against row `row` of `page`.
pub fn evaluate_row(expr: &Expr, page: &Page, row: usize) -> Result<Value> {
    match expr {
        Expr::Column { index, data_type } => Ok(page.block(*index).value_at(*data_type, row)),
        Expr::Literal { value, .. } => Ok(value.clone()),
        Expr::Arith {
            op,
            left,
            right,
            data_type,
        } => {
            let l = evaluate_row(left, page, row)?;
            let r = evaluate_row(right, page, row)?;
            eval_arith(*op, &l, &r, *data_type)
        }
        Expr::Cmp { op, left, right } => {
            let l = evaluate_row(left, page, row)?;
            let r = evaluate_row(right, page, row)?;
            Ok(match l.sql_cmp(&r) {
                None => Value::Null,
                Some(ord) => Value::Boolean(op.matches(ord)),
            })
        }
        Expr::And(exprs) => {
            // Three-valued AND with short-circuit on FALSE.
            let mut saw_null = false;
            for e in exprs {
                match evaluate_row(e, page, row)? {
                    Value::Boolean(false) => return Ok(Value::Boolean(false)),
                    Value::Boolean(true) => {}
                    Value::Null => saw_null = true,
                    other => {
                        return Err(PrestoError::internal(format!(
                            "AND operand evaluated to non-boolean {other}"
                        )))
                    }
                }
            }
            Ok(if saw_null {
                Value::Null
            } else {
                Value::Boolean(true)
            })
        }
        Expr::Or(exprs) => {
            let mut saw_null = false;
            for e in exprs {
                match evaluate_row(e, page, row)? {
                    Value::Boolean(true) => return Ok(Value::Boolean(true)),
                    Value::Boolean(false) => {}
                    Value::Null => saw_null = true,
                    other => {
                        return Err(PrestoError::internal(format!(
                            "OR operand evaluated to non-boolean {other}"
                        )))
                    }
                }
            }
            Ok(if saw_null {
                Value::Null
            } else {
                Value::Boolean(false)
            })
        }
        Expr::Not(e) => Ok(match evaluate_row(e, page, row)? {
            Value::Boolean(b) => Value::Boolean(!b),
            Value::Null => Value::Null,
            other => {
                return Err(PrestoError::internal(format!(
                    "NOT operand evaluated to non-boolean {other}"
                )))
            }
        }),
        Expr::IsNull(e) => Ok(Value::Boolean(evaluate_row(e, page, row)?.is_null())),
        Expr::Case {
            branches,
            otherwise,
            ..
        } => {
            for (cond, result) in branches {
                if evaluate_row(cond, page, row)? == Value::Boolean(true) {
                    return evaluate_row(result, page, row);
                }
            }
            match otherwise {
                Some(e) => evaluate_row(e, page, row),
                None => Ok(Value::Null),
            }
        }
        Expr::Cast { expr, data_type } => {
            let v = evaluate_row(expr, page, row)?;
            cast_value(&v, *data_type)
        }
        Expr::InList { expr, list } => {
            let v = evaluate_row(expr, page, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                match v.sql_cmp(item) {
                    Some(std::cmp::Ordering::Equal) => return Ok(Value::Boolean(true)),
                    Some(_) => {}
                    None => saw_null = true,
                }
            }
            Ok(if saw_null {
                Value::Null
            } else {
                Value::Boolean(false)
            })
        }
        Expr::Call { function, args, .. } => {
            let values: Result<Vec<Value>> =
                args.iter().map(|a| evaluate_row(a, page, row)).collect();
            function.eval(&values?)
        }
    }
}

/// Arithmetic with SQL semantics: NULL propagation, division-by-zero as a
/// user error, bigint overflow wrapping (matching the compiled kernels).
pub fn eval_arith(op: ArithOp, l: &Value, r: &Value, result: DataType) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match result {
        DataType::Bigint => {
            let (a, b) = (
                l.as_i64().expect("bigint operand"),
                r.as_i64().expect("bigint operand"),
            );
            Ok(Value::Bigint(match op {
                ArithOp::Add => a.wrapping_add(b),
                ArithOp::Sub => a.wrapping_sub(b),
                ArithOp::Mul => a.wrapping_mul(b),
                ArithOp::Div => {
                    if b == 0 {
                        return Err(PrestoError::user("division by zero"));
                    }
                    a.wrapping_div(b)
                }
                ArithOp::Mod => {
                    if b == 0 {
                        return Err(PrestoError::user("division by zero"));
                    }
                    a.wrapping_rem(b)
                }
            }))
        }
        DataType::Double => {
            let (a, b) = (
                l.as_f64().expect("numeric operand"),
                r.as_f64().expect("numeric operand"),
            );
            Ok(Value::Double(match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => a / b,
                ArithOp::Mod => a % b,
            }))
        }
        other => Err(PrestoError::internal(format!(
            "arithmetic with result type {other}"
        ))),
    }
}

/// Explicit CAST semantics.
pub fn cast_value(v: &Value, target: DataType) -> Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    if v.data_type() == Some(target) {
        return Ok(v.clone());
    }
    match (v, target) {
        (Value::Bigint(x), DataType::Double) => Ok(Value::Double(*x as f64)),
        (Value::Double(x), DataType::Bigint) => {
            if x.is_finite() {
                Ok(Value::Bigint(*x as i64))
            } else {
                Err(PrestoError::user(format!("cannot cast {x} to bigint")))
            }
        }
        (Value::Boolean(b), DataType::Bigint) => Ok(Value::Bigint(*b as i64)),
        (Value::Bigint(x), DataType::Boolean) => Ok(Value::Boolean(*x != 0)),
        (Value::Varchar(s), DataType::Bigint) => s
            .trim()
            .parse::<i64>()
            .map(Value::Bigint)
            .map_err(|_| PrestoError::user(format!("cannot cast '{s}' to bigint"))),
        (Value::Varchar(s), DataType::Double) => s
            .trim()
            .parse::<f64>()
            .map(Value::Double)
            .map_err(|_| PrestoError::user(format!("cannot cast '{s}' to double"))),
        (Value::Varchar(s), DataType::Boolean) => match s.trim().to_ascii_lowercase().as_str() {
            "true" | "t" | "1" => Ok(Value::Boolean(true)),
            "false" | "f" | "0" => Ok(Value::Boolean(false)),
            _ => Err(PrestoError::user(format!("cannot cast '{s}' to boolean"))),
        },
        (v, DataType::Varchar) => Ok(Value::varchar(v.to_string())),
        (Value::Date(d), DataType::Timestamp) => Ok(Value::Timestamp(d * 86_400_000)),
        (Value::Timestamp(ms), DataType::Date) => Ok(Value::Date(ms.div_euclid(86_400_000))),
        (Value::Bigint(x), DataType::Date) => Ok(Value::Date(*x)),
        (Value::Bigint(x), DataType::Timestamp) => Ok(Value::Timestamp(*x)),
        (Value::Date(d), DataType::Bigint) => Ok(Value::Bigint(*d)),
        (Value::Timestamp(ms), DataType::Bigint) => Ok(Value::Bigint(*ms)),
        (v, t) => Err(PrestoError::user(format!("cannot cast {v} to {t}"))),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use presto_common::Schema;
    use presto_page::Page;

    fn test_page() -> (Schema, Page) {
        let schema = Schema::of(&[
            ("a", DataType::Bigint),
            ("b", DataType::Double),
            ("s", DataType::Varchar),
        ]);
        let page = Page::from_rows(
            &schema,
            &[
                vec![Value::Bigint(10), Value::Double(0.5), Value::varchar("hi")],
                vec![Value::Null, Value::Double(2.0), Value::Null],
            ],
        );
        (schema, page)
    }

    #[test]
    fn column_and_literal() {
        let (_, page) = test_page();
        let e = Expr::column(0, DataType::Bigint);
        assert_eq!(evaluate_row(&e, &page, 0).unwrap(), Value::Bigint(10));
        assert_eq!(evaluate_row(&e, &page, 1).unwrap(), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        let (_, page) = test_page();
        let null_cmp = Expr::cmp(
            CmpOp::Eq,
            Expr::column(0, DataType::Bigint),
            Expr::literal(1i64),
        );
        // row 1: a is NULL → comparison is NULL
        assert_eq!(evaluate_row(&null_cmp, &page, 1).unwrap(), Value::Null);
        // NULL AND FALSE = FALSE
        let e = Expr::and(vec![null_cmp.clone(), Expr::literal(false)]);
        assert_eq!(evaluate_row(&e, &page, 1).unwrap(), Value::Boolean(false));
        // NULL AND TRUE = NULL
        let e = Expr::and(vec![null_cmp.clone(), Expr::literal(true)]);
        assert_eq!(evaluate_row(&e, &page, 1).unwrap(), Value::Null);
        // NULL OR TRUE = TRUE
        let e = Expr::or(vec![null_cmp, Expr::literal(true)]);
        assert_eq!(evaluate_row(&e, &page, 1).unwrap(), Value::Boolean(true));
    }

    #[test]
    fn division_by_zero_is_user_error() {
        let (_, page) = test_page();
        let e = Expr::arith(
            ArithOp::Div,
            Expr::column(0, DataType::Bigint),
            Expr::literal(0i64),
        );
        let err = evaluate_row(&e, &page, 0).unwrap_err();
        assert_eq!(err.code, presto_common::ErrorCode::User);
        // Double division by zero is IEEE infinity, not an error.
        let e = Expr::arith(
            ArithOp::Div,
            Expr::column(1, DataType::Double),
            Expr::literal(0.0f64),
        );
        assert_eq!(
            evaluate_row(&e, &page, 0).unwrap(),
            Value::Double(f64::INFINITY)
        );
    }

    #[test]
    fn case_expression() {
        let (_, page) = test_page();
        let e = Expr::Case {
            branches: vec![(
                Expr::cmp(
                    CmpOp::Gt,
                    Expr::column(0, DataType::Bigint),
                    Expr::literal(5i64),
                ),
                Expr::literal("big"),
            )],
            otherwise: Some(Box::new(Expr::literal("small"))),
            data_type: DataType::Varchar,
        };
        assert_eq!(evaluate_row(&e, &page, 0).unwrap(), Value::varchar("big"));
        // NULL condition falls through to ELSE.
        assert_eq!(evaluate_row(&e, &page, 1).unwrap(), Value::varchar("small"));
    }

    #[test]
    fn in_list_with_null_semantics() {
        let (_, page) = test_page();
        let e = Expr::InList {
            expr: Box::new(Expr::column(0, DataType::Bigint)),
            list: vec![Value::Bigint(1), Value::Bigint(10)],
        };
        assert_eq!(evaluate_row(&e, &page, 0).unwrap(), Value::Boolean(true));
        assert_eq!(evaluate_row(&e, &page, 1).unwrap(), Value::Null);
        // Value not in list, but list contains NULL → NULL (unknown).
        let e = Expr::InList {
            expr: Box::new(Expr::column(0, DataType::Bigint)),
            list: vec![Value::Bigint(1), Value::Null],
        };
        assert_eq!(evaluate_row(&e, &page, 0).unwrap(), Value::Null);
    }

    #[test]
    fn casts() {
        assert_eq!(
            cast_value(&Value::varchar("42"), DataType::Bigint).unwrap(),
            Value::Bigint(42)
        );
        assert_eq!(
            cast_value(&Value::Bigint(42), DataType::Varchar).unwrap(),
            Value::varchar("42")
        );
        assert!(cast_value(&Value::varchar("x"), DataType::Bigint).is_err());
        assert!(cast_value(&Value::Double(f64::NAN), DataType::Bigint).is_err());
    }

    #[test]
    fn is_null() {
        let (_, page) = test_page();
        let e = Expr::IsNull(Box::new(Expr::column(2, DataType::Varchar)));
        assert_eq!(evaluate_row(&e, &page, 0).unwrap(), Value::Boolean(false));
        assert_eq!(evaluate_row(&e, &page, 1).unwrap(), Value::Boolean(true));
    }
}
