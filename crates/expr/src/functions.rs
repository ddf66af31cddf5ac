//! Built-in scalar functions.
//!
//! The registry maps SQL names and argument types to a [`ScalarFn`] plus a
//! return type; both evaluators dispatch on the same enum so semantics stay
//! identical. Functions are deliberately a plain `Copy` enum rather than
//! trait objects: the compiled evaluator monomorphizes on them, matching the
//! "no virtual calls in tight loops" guidance of §V-C.

use presto_common::{DataType, PrestoError, Result, Value};

/// A built-in scalar function identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarFn {
    // numeric
    Abs,
    Sqrt,
    Ln,
    Exp,
    Power,
    Floor,
    Ceil,
    Round,
    // varchar
    Lower,
    Upper,
    Length,
    Substr,
    Concat,
    Trim,
    Like,
    StrPos,
    // generic
    Coalesce,
    Greatest,
    Least,
    // temporal (date = days since epoch, timestamp = millis since epoch)
    Year,
    Month,
    Day,
    DateDiffDays,
}

impl ScalarFn {
    pub fn name(&self) -> &'static str {
        match self {
            ScalarFn::Abs => "abs",
            ScalarFn::Sqrt => "sqrt",
            ScalarFn::Ln => "ln",
            ScalarFn::Exp => "exp",
            ScalarFn::Power => "power",
            ScalarFn::Floor => "floor",
            ScalarFn::Ceil => "ceil",
            ScalarFn::Round => "round",
            ScalarFn::Lower => "lower",
            ScalarFn::Upper => "upper",
            ScalarFn::Length => "length",
            ScalarFn::Substr => "substr",
            ScalarFn::Concat => "concat",
            ScalarFn::Trim => "trim",
            ScalarFn::Like => "like",
            ScalarFn::StrPos => "strpos",
            ScalarFn::Coalesce => "coalesce",
            ScalarFn::Greatest => "greatest",
            ScalarFn::Least => "least",
            ScalarFn::Year => "year",
            ScalarFn::Month => "month",
            ScalarFn::Day => "day",
            ScalarFn::DateDiffDays => "date_diff_days",
        }
    }

    /// Resolve a function by name and argument types, producing the function
    /// and its return type. This is the analyzer's entry point.
    pub fn resolve(name: &str, args: &[DataType]) -> Result<(ScalarFn, DataType)> {
        use DataType::*;
        let lname = name.to_ascii_lowercase();
        let f = match lname.as_str() {
            "abs" => ScalarFn::Abs,
            "sqrt" => ScalarFn::Sqrt,
            "ln" => ScalarFn::Ln,
            "exp" => ScalarFn::Exp,
            "power" | "pow" => ScalarFn::Power,
            "floor" => ScalarFn::Floor,
            "ceil" | "ceiling" => ScalarFn::Ceil,
            "round" => ScalarFn::Round,
            "lower" => ScalarFn::Lower,
            "upper" => ScalarFn::Upper,
            "length" => ScalarFn::Length,
            "substr" | "substring" => ScalarFn::Substr,
            "concat" => ScalarFn::Concat,
            "trim" => ScalarFn::Trim,
            "like" => ScalarFn::Like,
            "strpos" => ScalarFn::StrPos,
            "coalesce" => ScalarFn::Coalesce,
            "greatest" => ScalarFn::Greatest,
            "least" => ScalarFn::Least,
            "year" => ScalarFn::Year,
            "month" => ScalarFn::Month,
            "day" => ScalarFn::Day,
            "date_diff_days" => ScalarFn::DateDiffDays,
            _ => return Err(PrestoError::user(format!("unknown function '{name}'"))),
        };
        let check = |ok: bool, expected: &str| -> Result<()> {
            if ok {
                Ok(())
            } else {
                Err(PrestoError::user(format!(
                    "function {lname} expects {expected}, got ({})",
                    args.iter().map(|t| t.name()).collect::<Vec<_>>().join(", ")
                )))
            }
        };
        let ret = match f {
            ScalarFn::Abs => {
                check(
                    args.len() == 1 && args[0].is_numeric(),
                    "one numeric argument",
                )?;
                args[0]
            }
            ScalarFn::Sqrt | ScalarFn::Ln | ScalarFn::Exp => {
                check(
                    args.len() == 1 && args[0].is_numeric(),
                    "one numeric argument",
                )?;
                Double
            }
            ScalarFn::Power => {
                check(
                    args.len() == 2 && args.iter().all(|t| t.is_numeric()),
                    "two numeric arguments",
                )?;
                Double
            }
            ScalarFn::Floor | ScalarFn::Ceil | ScalarFn::Round => {
                check(
                    args.len() == 1 && args[0].is_numeric(),
                    "one numeric argument",
                )?;
                match args[0] {
                    Bigint => Bigint,
                    _ => Double,
                }
            }
            ScalarFn::Lower | ScalarFn::Upper | ScalarFn::Trim => {
                check(
                    args.len() == 1 && args[0] == Varchar,
                    "one varchar argument",
                )?;
                Varchar
            }
            ScalarFn::Length => {
                check(
                    args.len() == 1 && args[0] == Varchar,
                    "one varchar argument",
                )?;
                Bigint
            }
            ScalarFn::Substr => {
                check(
                    (args.len() == 2 || args.len() == 3)
                        && args[0] == Varchar
                        && args[1..].iter().all(|t| *t == Bigint),
                    "(varchar, bigint[, bigint])",
                )?;
                Varchar
            }
            ScalarFn::Concat => {
                check(
                    !args.is_empty() && args.iter().all(|t| *t == Varchar),
                    "varchar arguments",
                )?;
                Varchar
            }
            ScalarFn::Like => {
                check(
                    args.len() == 2 && args.iter().all(|t| *t == Varchar),
                    "(varchar, varchar)",
                )?;
                Boolean
            }
            ScalarFn::StrPos => {
                check(
                    args.len() == 2 && args.iter().all(|t| *t == Varchar),
                    "(varchar, varchar)",
                )?;
                Bigint
            }
            ScalarFn::Coalesce | ScalarFn::Greatest | ScalarFn::Least => {
                check(!args.is_empty(), "at least one argument")?;
                let mut t = args[0];
                for &a in &args[1..] {
                    t = DataType::common_super_type(t, a).ok_or_else(|| {
                        PrestoError::user(format!("function {lname}: incompatible argument types"))
                    })?;
                }
                t
            }
            ScalarFn::Year | ScalarFn::Month | ScalarFn::Day => {
                check(
                    args.len() == 1 && matches!(args[0], Date | Timestamp),
                    "one date/timestamp argument",
                )?;
                Bigint
            }
            ScalarFn::DateDiffDays => {
                check(
                    args.len() == 2 && args.iter().all(|t| matches!(t, Date | Timestamp)),
                    "two date/timestamp arguments",
                )?;
                Bigint
            }
        };
        Ok((f, ret))
    }

    /// Row-at-a-time evaluation over [`Value`]s (interpreter semantics, also
    /// the scalar kernel used by the compiled evaluator for varchar paths).
    /// NULL arguments yield NULL except for `coalesce`.
    pub fn eval(&self, args: &[Value]) -> Result<Value> {
        if *self == ScalarFn::Coalesce {
            return Ok(args
                .iter()
                .find(|v| !v.is_null())
                .cloned()
                .unwrap_or(Value::Null));
        }
        if args.iter().any(Value::is_null) {
            return Ok(Value::Null);
        }
        Ok(match self {
            ScalarFn::Abs => match &args[0] {
                Value::Bigint(v) => Value::Bigint(v.wrapping_abs()),
                v => Value::Double(v.as_f64().expect("numeric argument").abs()),
            },
            ScalarFn::Sqrt => Value::Double(args[0].as_f64().expect("numeric argument").sqrt()),
            ScalarFn::Ln => Value::Double(args[0].as_f64().expect("numeric argument").ln()),
            ScalarFn::Exp => Value::Double(args[0].as_f64().expect("numeric argument").exp()),
            ScalarFn::Power => Value::Double(
                args[0]
                    .as_f64()
                    .expect("numeric argument")
                    .powf(args[1].as_f64().expect("numeric argument")),
            ),
            ScalarFn::Floor => match &args[0] {
                Value::Bigint(v) => Value::Bigint(*v),
                v => Value::Double(v.as_f64().expect("numeric argument").floor()),
            },
            ScalarFn::Ceil => match &args[0] {
                Value::Bigint(v) => Value::Bigint(*v),
                v => Value::Double(v.as_f64().expect("numeric argument").ceil()),
            },
            ScalarFn::Round => match &args[0] {
                Value::Bigint(v) => Value::Bigint(*v),
                v => Value::Double(v.as_f64().expect("numeric argument").round()),
            },
            ScalarFn::Lower => {
                Value::varchar(args[0].as_str().expect("varchar argument").to_lowercase())
            }
            ScalarFn::Upper => {
                Value::varchar(args[0].as_str().expect("varchar argument").to_uppercase())
            }
            ScalarFn::Length => {
                Value::Bigint(args[0].as_str().expect("varchar argument").chars().count() as i64)
            }
            ScalarFn::Substr => {
                let s = args[0].as_str().expect("varchar argument");
                let start = args[1].as_i64().expect("bigint argument");
                let len = args
                    .get(2)
                    .map(|v| v.as_i64().expect("bigint argument").max(0) as usize);
                Value::varchar(substr(s, start, len))
            }
            ScalarFn::Concat => {
                let mut out = String::new();
                for a in args {
                    out.push_str(a.as_str().expect("varchar argument"));
                }
                Value::varchar(out)
            }
            ScalarFn::Trim => Value::varchar(args[0].as_str().expect("varchar argument").trim()),
            ScalarFn::Like => Value::Boolean(like_match(
                args[0].as_str().expect("varchar argument"),
                args[1].as_str().expect("varchar argument"),
            )),
            ScalarFn::StrPos => {
                let hay = args[0].as_str().expect("varchar argument");
                let needle = args[1].as_str().expect("varchar argument");
                Value::Bigint(match hay.find(needle) {
                    Some(byte_pos) => (hay[..byte_pos].chars().count() + 1) as i64,
                    None => 0,
                })
            }
            ScalarFn::Coalesce => unreachable!("handled above"),
            ScalarFn::Greatest => args
                .iter()
                .max_by(|a, b| a.sql_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
                .cloned()
                .expect("non-empty argument list"),
            ScalarFn::Least => args
                .iter()
                .min_by(|a, b| a.sql_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
                .cloned()
                .expect("non-empty argument list"),
            ScalarFn::Year => Value::Bigint(civil_from_value(&args[0]).0),
            ScalarFn::Month => Value::Bigint(civil_from_value(&args[0]).1),
            ScalarFn::Day => Value::Bigint(civil_from_value(&args[0]).2),
            ScalarFn::DateDiffDays => {
                let a = days_of(&args[0]);
                let b = days_of(&args[1]);
                Value::Bigint(b - a)
            }
        })
    }
}

/// SQL `substr` semantics: 1-based start, negative counts from the end.
fn substr(s: &str, start: i64, len: Option<usize>) -> String {
    let chars: Vec<char> = s.chars().collect();
    let n = chars.len() as i64;
    let begin = if start > 0 {
        start - 1
    } else if start < 0 {
        (n + start).max(0)
    } else {
        return String::new();
    };
    if begin >= n {
        return String::new();
    }
    let begin = begin as usize;
    let end = match len {
        Some(l) => (begin + l).min(chars.len()),
        None => chars.len(),
    };
    chars[begin..end].iter().collect()
}

/// SQL LIKE matcher: `%` matches any run, `_` matches one char. Iterative
/// two-pointer algorithm with backtracking on the last `%`.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_s = si;
            pi += 1;
        } else if star_p != usize::MAX {
            pi = star_p + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

fn days_of(v: &Value) -> i64 {
    match v {
        Value::Date(d) => *d,
        Value::Timestamp(ms) => ms.div_euclid(86_400_000),
        _ => 0,
    }
}

pub use presto_common::time::{civil_from_days, days_from_civil};

fn civil_from_value(v: &Value) -> (i64, i64, i64) {
    civil_from_days(days_of(v))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn resolve_checks_types() {
        assert!(ScalarFn::resolve("lower", &[DataType::Varchar]).is_ok());
        assert!(ScalarFn::resolve("lower", &[DataType::Bigint]).is_err());
        assert!(ScalarFn::resolve("no_such_fn", &[]).is_err());
        let (_, t) = ScalarFn::resolve("sqrt", &[DataType::Bigint]).unwrap();
        assert_eq!(t, DataType::Double);
        let (_, t) = ScalarFn::resolve("coalesce", &[DataType::Bigint, DataType::Double]).unwrap();
        assert_eq!(t, DataType::Double);
    }

    #[test]
    fn null_propagation() {
        assert_eq!(ScalarFn::Abs.eval(&[Value::Null]).unwrap(), Value::Null);
        assert_eq!(
            ScalarFn::Coalesce
                .eval(&[Value::Null, Value::Bigint(2), Value::Bigint(3)])
                .unwrap(),
            Value::Bigint(2)
        );
    }

    #[test]
    fn string_functions() {
        assert_eq!(
            ScalarFn::Substr
                .eval(&[Value::varchar("hello"), Value::Bigint(2), Value::Bigint(3)])
                .unwrap(),
            Value::varchar("ell")
        );
        assert_eq!(
            ScalarFn::Substr
                .eval(&[Value::varchar("hello"), Value::Bigint(-3)])
                .unwrap(),
            Value::varchar("llo")
        );
        assert_eq!(
            ScalarFn::StrPos
                .eval(&[Value::varchar("abcdef"), Value::varchar("cd")])
                .unwrap(),
            Value::Bigint(3)
        );
        assert_eq!(
            ScalarFn::Concat
                .eval(&[Value::varchar("a"), Value::varchar("b")])
                .unwrap(),
            Value::varchar("ab")
        );
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%l%"));
        assert!(!like_match("hello", "h_l"));
        assert!(!like_match("hello", "%x%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%%%abc%%"));
    }

    #[test]
    fn civil_calendar_round_trip() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(days_from_civil(2000, 2, 29)), (2000, 2, 29));
        for days in [-1000, 0, 365, 10_000, 20_000] {
            let (y, m, d) = civil_from_days(days);
            assert_eq!(days_from_civil(y, m, d), days);
        }
    }

    #[test]
    fn temporal_functions() {
        let date = Value::Date(days_from_civil(1995, 3, 17));
        assert_eq!(
            ScalarFn::Year.eval(std::slice::from_ref(&date)).unwrap(),
            Value::Bigint(1995)
        );
        assert_eq!(
            ScalarFn::Month.eval(std::slice::from_ref(&date)).unwrap(),
            Value::Bigint(3)
        );
        assert_eq!(ScalarFn::Day.eval(&[date]).unwrap(), Value::Bigint(17));
    }

    #[test]
    fn greatest_least() {
        assert_eq!(
            ScalarFn::Greatest
                .eval(&[Value::Bigint(1), Value::Bigint(5)])
                .unwrap(),
            Value::Bigint(5)
        );
        assert_eq!(
            ScalarFn::Least
                .eval(&[Value::Double(1.5), Value::Bigint(2)])
                .unwrap(),
            Value::Double(1.5)
        );
    }
}
