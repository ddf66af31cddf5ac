//! One declaration per counter set (§VII "Effortless instrumentation").
//!
//! [`counter_set!`](crate::counter_set) turns a single list of
//! `name: type` fields into every rendering the engine gives a counter: the
//! plain snapshot struct, its lock-free accumulator twin, `merge`, the JSON
//! codec and the `system.runtime` columns. Adding a counter is declaring
//! the field and incrementing it; nothing else spells its name.
//!
//! ```
//! presto_common::counter_set! {
//!     /// What a cache did.
//!     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
//!     pub struct Lookups[json, columns, atomic(LookupTotals)] {
//!         /// Served from memory.
//!         hits: u64,
//!         misses: u64,
//!     }
//! }
//! use presto_common::counters::{JsonCodec, Row};
//! use std::sync::atomic::Ordering::Relaxed;
//!
//! let totals = LookupTotals::default();
//! totals.hits.fetch_add(2, Relaxed);
//! totals.add(&Lookups { hits: 1, misses: 4 });
//! let snap = totals.snapshot();
//! assert_eq!(snap, Lookups { hits: 3, misses: 4 });
//! assert_eq!(snap.to_json().to_string(), r#"{"hits":3,"misses":4}"#);
//! assert_eq!(Lookups::columns().len(), snap.row().len());
//! ```
//!
//! The capabilities in brackets pick what is derived, because each
//! asks something of the field types: `json` wants [`JsonCodec`] (integers,
//! `String`, other sets, `Vec`s of those), `columns` wants [`Column`]
//! (integers, strings, `Option`s of those), `atomic(Twin)` wants every field
//! to be a `u64`.

use crate::json::Json;
use crate::{DataType, PrestoError, Result, Value};

/// The JSON shape of a field. Declared sets implement it too, so they nest.
pub trait JsonCodec: Sized {
    fn to_json(&self) -> Json;
    fn from_json(v: &Json) -> Result<Self>;
}

/// A field that is one `system.runtime` column.
pub trait Column {
    const TYPE: DataType;
    fn value(&self) -> Value;
}

/// A set rendered as a `system.runtime` row: `columns()` and `row()` come
/// from the same field list, so they cannot disagree in width or order.
pub trait Row {
    fn columns() -> Vec<(&'static str, DataType)>;
    fn row(&self) -> Vec<Value>;
}

/// Decode field `name` of object `v`, naming the field on failure.
pub fn field<T: JsonCodec>(v: &Json, name: &str) -> Result<T> {
    T::from_json(v.field(name)?)
        .map_err(|e| PrestoError::internal(format!("json: field '{name}': {}", e.message)))
}

macro_rules! integer_fields {
    ($($ty:ty),*) => {$(
        impl JsonCodec for $ty {
            fn to_json(&self) -> Json {
                Json::Int(saturating_i64(*self))
            }

            fn from_json(v: &Json) -> Result<$ty> {
                v.as_i64()
                    .and_then(|v| <$ty>::try_from(v).ok())
                    .ok_or_else(|| PrestoError::internal(concat!("not a ", stringify!($ty))))
            }
        }

        impl Column for $ty {
            const TYPE: DataType = DataType::Bigint;

            fn value(&self) -> Value {
                Value::Bigint(saturating_i64(*self))
            }
        }
    )*};
}

integer_fields!(u64, i64, usize, u32);

/// JSON and SQL integers are i64. Counters beyond `i64::MAX` saturate (a
/// physical impossibility for byte/event counts; saturation beats
/// panicking).
fn saturating_i64<T: TryInto<i64>>(v: T) -> i64 {
    v.try_into().unwrap_or(i64::MAX)
}

impl JsonCodec for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }

    fn from_json(v: &Json) -> Result<String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| PrestoError::internal("not a string"))
    }
}

impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }

    fn from_json(v: &Json) -> Result<Vec<T>> {
        v.as_arr()
            .ok_or_else(|| PrestoError::internal("not an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl Column for String {
    const TYPE: DataType = DataType::Varchar;

    fn value(&self) -> Value {
        Value::varchar(self)
    }
}

impl Column for &'static str {
    const TYPE: DataType = DataType::Varchar;

    fn value(&self) -> Value {
        Value::varchar(self)
    }
}

/// A nullable column: `None` is SQL NULL.
impl<T: Column> Column for Option<T> {
    const TYPE: DataType = T::TYPE;

    fn value(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::value)
    }
}

/// Declare counter sets, each once; see the [module docs](crate::counters).
#[macro_export]
macro_rules! counter_set {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident [$($caps:tt)+] {
            $($(#[$fmeta:meta])* $field:ident : $ty:ty),* $(,)?
        }
    )+) => {$(
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty),*
        }
        $crate::counter_set!(@caps $name [$($field: $ty),*] $($caps)+);
    )+};
    (@caps $name:ident $fields:tt $cap:ident $(($twin:ident))? $(, $($rest:tt)*)?) => {
        $crate::counter_set!(@$cap $name $(($twin))? $fields);
        $crate::counter_set!(@caps $name $fields $($($rest)*)?);
    };
    (@caps $name:ident $fields:tt) => {};
    (@json $name:ident [$($field:ident : $ty:ty),*]) => {
        impl $crate::counters::JsonCodec for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj([
                    $((stringify!($field), $crate::counters::JsonCodec::to_json(&self.$field))),*
                ])
            }

            fn from_json(v: &$crate::json::Json) -> $crate::Result<$name> {
                Ok($name {
                    $($field: $crate::counters::field(v, stringify!($field))?),*
                })
            }
        }
    };
    (@columns $name:ident [$($field:ident : $ty:ty),*]) => {
        impl $crate::counters::Row for $name {
            fn columns() -> Vec<(&'static str, $crate::DataType)> {
                vec![$((stringify!($field), <$ty as $crate::counters::Column>::TYPE)),*]
            }

            fn row(&self) -> Vec<$crate::Value> {
                vec![$($crate::counters::Column::value(&self.$field)),*]
            }
        }
    };
    (@atomic $name:ident ($twin:ident) [$($field:ident : $ty:ty),*]) => {
        #[doc = concat!("Lock-free accumulator twin of [`", stringify!($name), "`]: one atomic per field.")]
        #[derive(Debug, Default)]
        pub struct $twin {
            $(pub $field: std::sync::atomic::AtomicU64),*
        }

        impl $twin {
            /// Add a snapshot's worth to every counter (no allocation).
            /// Statistics publish no other data, so the adds are relaxed.
            pub fn add(&self, s: &$name) {
                $(self.$field.fetch_add(s.$field, std::sync::atomic::Ordering::Relaxed);)*
            }

            /// Loads are SeqCst because some sets (the query gauges) are
            /// updated SeqCst at their sites and read back for invariants.
            pub fn snapshot(&self) -> $name {
                $name {
                    $($field: self.$field.load(std::sync::atomic::Ordering::SeqCst)),*
                }
            }
        }

        impl $name {
            /// Field-wise sum.
            pub fn merge(&self, other: &$name) -> $name {
                $name {
                    $($field: self.$field + other.$field),*
                }
            }
        }
    };
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    counter_set! {
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct Inner[json] {
            label: String,
            signed: i64,
        }
    }

    counter_set! {
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct Outer[json] {
            node: u32,
            inners: Vec<Inner>,
        }
    }

    counter_set! {
        #[derive(Debug, Clone, Default)]
        pub struct Line[columns] {
            id: u64,
            state: &'static str,
            error: Option<String>,
            worker: Option<usize>,
        }
    }

    #[test]
    fn sets_nest_in_json_and_errors_name_the_field() {
        let outer = Outer {
            node: 3,
            inners: vec![Inner {
                label: "a".to_string(),
                signed: -9,
            }],
        };
        let text = outer.to_json().to_string();
        assert_eq!(text, r#"{"inners":[{"label":"a","signed":-9}],"node":3}"#);
        let back = Outer::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, outer);
        let bad = Json::parse(r#"{"inners":[],"node":-1}"#).unwrap();
        let message = Outer::from_json(&bad).unwrap_err().message;
        assert!(message.contains("'node'"), "{message}");
        assert!(message.contains("u32"), "{message}");
        assert!(Outer::from_json(&Json::parse(r#"{"node":1}"#).unwrap()).is_err());
    }

    #[test]
    fn counters_saturate_at_i64_max() {
        assert_eq!(u64::MAX.to_json(), Json::Int(i64::MAX));
        assert!(matches!(u64::MAX.value(), Value::Bigint(i64::MAX)));
    }

    #[test]
    fn columns_and_row_come_from_one_list() {
        let cols = Line::columns();
        assert_eq!(
            cols,
            vec![
                ("id", DataType::Bigint),
                ("state", DataType::Varchar),
                ("error", DataType::Varchar),
                ("worker", DataType::Bigint),
            ]
        );
        let row = Line {
            id: 7,
            state: "running",
            error: None,
            worker: Some(2),
        }
        .row();
        assert_eq!(row.len(), cols.len());
        assert_eq!(row[0].as_i64(), Some(7));
        assert_eq!(row[1].as_str(), Some("running"));
        assert!(row[2].is_null());
        assert_eq!(row[3].as_i64(), Some(2));
    }
}
