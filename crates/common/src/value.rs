//! Single scalar values.
//!
//! [`Value`] is the row-oriented representation used at the edges of the
//! engine: literals in the AST, constant folding in the optimizer, result
//! rows handed to clients, and statistics min/max bounds. The hot path never
//! touches `Value` — operators work on columnar blocks — so this type
//! optimizes for convenience and total ordering rather than speed.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::types::DataType;

/// A single, possibly-NULL scalar value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Boolean(bool),
    Bigint(i64),
    Double(f64),
    Varchar(Arc<str>),
    /// Days since the epoch.
    Date(i64),
    /// Milliseconds since the epoch.
    Timestamp(i64),
}

impl Value {
    /// Build a varchar value from anything string-like.
    pub fn varchar(s: impl AsRef<str>) -> Value {
        Value::Varchar(Arc::from(s.as_ref()))
    }

    /// The data type of this value, or `None` for NULL (whose type is
    /// context-dependent).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Boolean(_) => Some(DataType::Boolean),
            Value::Bigint(_) => Some(DataType::Bigint),
            Value::Double(_) => Some(DataType::Double),
            Value::Varchar(_) => Some(DataType::Varchar),
            Value::Date(_) => Some(DataType::Date),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// The value of a date's, a timestamp's or else a bigint's `i64` lane.
    pub fn from_i64(data_type: DataType, v: i64) -> Value {
        match data_type {
            DataType::Date => Value::Date(v),
            DataType::Timestamp => Value::Timestamp(v),
            _ => Value::Bigint(v),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret this value as the i64 lane used by the columnar layer.
    /// Booleans become 0/1. Returns `None` for NULL, doubles and varchars.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Bigint(v) | Value::Date(v) | Value::Timestamp(v) => Some(*v),
            Value::Boolean(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Numeric view widening bigint to double; used by arithmetic folding.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Double(v) => Some(*v),
            Value::Bigint(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Varchar(s) => Some(s),
            _ => None,
        }
    }

    /// Implicitly coerce to `target` per [`DataType::coerces_to`]; identity
    /// when already of the target type; NULL coerces to anything.
    pub fn coerce_to(&self, target: DataType) -> Option<Value> {
        match (self, target) {
            (Value::Null, _) => Some(Value::Null),
            (v, t) if v.data_type() == Some(t) => Some(v.clone()),
            (Value::Bigint(v), DataType::Double) => Some(Value::Double(*v as f64)),
            // A date at midnight, in milliseconds.
            (Value::Date(d), DataType::Timestamp) => {
                Some(Value::Timestamp(d * 24 * 60 * 60 * 1000))
            }
            _ => None,
        }
    }

    /// SQL comparison semantics: NULL compares as unknown (`None`); two
    /// bigints compare exactly, and numbers compare across bigint/double.
    /// Non-comparable types return `None`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Boolean(a), Value::Boolean(b)) => Some(a.cmp(b)),
            (Value::Bigint(a), Value::Bigint(b)) => Some(a.cmp(b)),
            (Value::Varchar(a), Value::Varchar(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (Value::Timestamp(a), Value::Timestamp(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Timestamp(b)) => Some((a * 86_400_000).cmp(b)),
            (Value::Timestamp(a), Value::Date(b)) => Some(a.cmp(&(b * 86_400_000))),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }
}

/// Total equality, with NULL == NULL and NaN == NaN, so `Value` can key hash
/// maps (e.g. GROUP BY state in tests, metadata maps). SQL `=` semantics use
/// [`Value::sql_cmp`] instead.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Boolean(a), Value::Boolean(b)) => a == b,
            (Value::Bigint(a), Value::Bigint(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Varchar(a), Value::Varchar(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            (Value::Timestamp(a), Value::Timestamp(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Boolean(b) => b.hash(state),
            Value::Bigint(v) | Value::Date(v) | Value::Timestamp(v) => v.hash(state),
            Value::Double(v) => v.to_bits().hash(state),
            Value::Varchar(s) => s.hash(state),
        }
    }
}

/// Total order used for min/max statistics and ORDER BY on materialized
/// values: NULLs sort last, NaN sorts after all numbers, mismatched types
/// order by type tag. SQL comparisons should use [`Value::sql_cmp`].
impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Boolean(_) => 0,
                Value::Bigint(_) | Value::Double(_) => 1,
                Value::Varchar(_) => 2,
                Value::Date(_) => 3,
                Value::Timestamp(_) => 4,
                Value::Null => 5,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            _ => self
                .sql_cmp(other)
                .unwrap_or_else(|| rank(self).cmp(&rank(other))),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::Bigint(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Varchar(s) => f.write_str(s),
            Value::Date(d) => write!(f, "date({d})"),
            Value::Timestamp(t) => write!(f, "timestamp({t})"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Bigint(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::varchar(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::varchar(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagates_in_sql_cmp() {
        assert_eq!(Value::Null.sql_cmp(&Value::Bigint(1)), None);
        assert_eq!(Value::Bigint(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(
            Value::Bigint(2).sql_cmp(&Value::Double(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Double(3.0).sql_cmp(&Value::Bigint(3)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn bigints_compare_exactly_beyond_f64_precision() {
        // 2^53 and 2^53 + 1 are one f64; as bigints they differ.
        let (a, b) = (Value::Bigint(1 << 53), Value::Bigint((1 << 53) + 1));
        assert_eq!(a.sql_cmp(&b), Some(Ordering::Less));
        assert_eq!(b.sql_cmp(&a), Some(Ordering::Greater));
        assert_eq!(a.cmp(&b), Ordering::Less);
        let (lo, hi) = (Value::Bigint(i64::MAX - 1), Value::Bigint(i64::MAX));
        assert_eq!(lo.sql_cmp(&hi), Some(Ordering::Less));
    }

    #[test]
    fn date_timestamp_comparison() {
        let d = Value::Date(1); // 1970-01-02
        let t = Value::Timestamp(86_400_000);
        assert_eq!(d.sql_cmp(&t), Some(Ordering::Equal));
    }

    #[test]
    fn total_order_puts_null_last() {
        let mut vs = vec![Value::Null, Value::Bigint(3), Value::Bigint(1)];
        vs.sort();
        assert_eq!(vs, vec![Value::Bigint(1), Value::Bigint(3), Value::Null]);
    }

    #[test]
    fn nan_is_self_equal_for_hashing() {
        let a = Value::Double(f64::NAN);
        let b = Value::Double(f64::NAN);
        assert_eq!(a, b);
    }

    #[test]
    fn coercion() {
        assert_eq!(
            Value::Bigint(2).coerce_to(DataType::Double),
            Some(Value::Double(2.0))
        );
        assert_eq!(
            Value::Date(1).coerce_to(DataType::Timestamp),
            Some(Value::Timestamp(86_400_000))
        );
        assert_eq!(Value::varchar("x").coerce_to(DataType::Bigint), None);
        assert_eq!(Value::Null.coerce_to(DataType::Bigint), Some(Value::Null));
    }

    #[test]
    fn boolean_as_i64_lane() {
        assert_eq!(Value::Boolean(true).as_i64(), Some(1));
        assert_eq!(Value::Boolean(false).as_i64(), Some(0));
    }
}
