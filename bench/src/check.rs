//! Result checking against the oracle. A full sorted-row comparison runs
//! once per distinct query before timing; every timed op is then checked
//! against a cheap order-insensitive fingerprint.

use presto::cluster::QueryResult;
use presto::common::{DataType, Value};
use std::hash::{Hash, Hasher};

/// Relative tolerance on doubles: parallel partial aggregation adds in a
/// different order from the single-worker oracle.
const TOLERANCE: f64 = 1e-9;

/// Row count, an order-insensitive hash of every non-double cell, and per
/// double column the sum of its values (with the sum of magnitudes as the
/// scale of the tolerance).
#[derive(Clone, Debug)]
pub struct Fingerprint {
    pub rows: u64,
    exact: u64,
    sums: Vec<(f64, f64)>,
}

impl Fingerprint {
    pub fn of(out: &QueryResult) -> Fingerprint {
        let fields = out.schema.fields();
        let mut fp = Fingerprint {
            rows: 0,
            exact: 0,
            sums: vec![(0.0, 0.0); fields.len()],
        };
        for page in &out.pages {
            let n = page.row_count();
            fp.rows += n as u64;
            let mut row_hashes = vec![std::collections::hash_map::DefaultHasher::new(); n];
            for (c, field) in fields.iter().enumerate() {
                let block = page.block(c);
                for (i, h) in row_hashes.iter_mut().enumerate() {
                    if block.is_null(i) {
                        (c, 0u8).hash(h);
                        continue;
                    }
                    match field.data_type {
                        DataType::Double => {
                            let v = block.f64_at(i);
                            fp.sums[c].0 += v;
                            fp.sums[c].1 += v.abs();
                        }
                        DataType::Boolean => (c, block.bool_at(i)).hash(h),
                        DataType::Varchar => (c, block.str_at(i)).hash(h),
                        DataType::Bigint | DataType::Date | DataType::Timestamp => {
                            (c, block.i64_at(i)).hash(h)
                        }
                    }
                }
            }
            for h in row_hashes {
                fp.exact = fp.exact.wrapping_add(h.finish());
            }
        }
        fp
    }

    pub fn matches(&self, other: &Fingerprint) -> bool {
        self.rows == other.rows
            && self.exact == other.exact
            && self.sums.len() == other.sums.len()
            && self
                .sums
                .iter()
                .zip(&other.sums)
                .all(|(a, b)| (a.0 - b.0).abs() <= TOLERANCE * a.1.max(b.1).max(f64::MIN_POSITIVE))
    }
}

fn close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => {
            x == y || (x - y).abs() <= TOLERANCE * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

/// Sorted rows equal up to `TOLERANCE` on doubles. Templates put their key
/// columns first, so sorting by the total order on `Value` lines the two
/// results up even when a trailing double differs in its last bits.
pub fn same_rows(mut a: Vec<Vec<Value>>, mut b: Vec<Vec<Value>>) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} rows, oracle has {}", a.len(), b.len()));
    }
    a.sort();
    b.sort();
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        if x.len() != y.len() || !x.iter().zip(y).all(|(p, q)| close(p, q)) {
            return Err(format!("sorted row {i}: {x:?}, oracle has {y:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(key: i64, x: f64) -> Vec<Value> {
        vec![Value::Bigint(key), Value::Double(x)]
    }

    #[test]
    fn rows_compare_in_any_order_up_to_float_rounding() {
        let a = vec![row(1, 0.1 + 0.2), row(2, 5.0)];
        let b = vec![row(2, 5.0), row(1, 0.3)];
        assert!(same_rows(a.clone(), b).is_ok());
        assert!(same_rows(a.clone(), vec![row(1, 0.3), row(2, 5.001)]).is_err());
        assert!(same_rows(a.clone(), vec![row(1, 0.3), row(3, 5.0)]).is_err());
        assert!(same_rows(a, vec![row(1, 0.3)]).is_err());
    }
}
