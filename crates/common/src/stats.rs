//! Statistics model shared by connectors and the cost-based optimizer.
//!
//! §IV-C of the paper: "Presto already supports two cost-based optimizations
//! that take table and column statistics into account — join strategy
//! selection and join re-ordering." Connectors report [`TableStatistics`]
//! through the Metadata API; the optimizer propagates them through plan
//! nodes using the classic selectivity heuristics implemented in the planner
//! crate. Statistics are estimates, so every quantity is an [`Estimate`] that
//! can be *unknown* — the optimizer must degrade gracefully (Fig. 6's
//! "Hive/HDFS (no stats)" configuration is exactly the all-unknown case).

use crate::value::Value;

/// A possibly-unknown non-negative estimate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Estimate(Option<f64>);

impl Estimate {
    pub const UNKNOWN: Estimate = Estimate(None);

    pub fn exact(v: f64) -> Estimate {
        debug_assert!(v >= 0.0);
        Estimate(Some(v))
    }

    pub fn unknown() -> Estimate {
        Estimate(None)
    }

    pub fn value(&self) -> Option<f64> {
        self.0
    }

    pub fn is_known(&self) -> bool {
        self.0.is_some()
    }

    /// Map the underlying value, preserving unknown-ness.
    pub fn map(self, f: impl FnOnce(f64) -> f64) -> Estimate {
        Estimate(self.0.map(|v| f(v).max(0.0)))
    }

    /// Combine two estimates; unknown is contagious.
    pub fn zip(self, other: Estimate, f: impl FnOnce(f64, f64) -> f64) -> Estimate {
        match (self.0, other.0) {
            (Some(a), Some(b)) => Estimate(Some(f(a, b).max(0.0))),
            _ => Estimate(None),
        }
    }

    /// The estimate value, or `default` when unknown.
    pub fn or(self, default: f64) -> f64 {
        self.0.unwrap_or(default)
    }
}

/// Per-column statistics, as collected by `ANALYZE`-style passes in the
/// connectors at write time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnStatistics {
    /// Number of distinct non-null values.
    pub distinct_count: Estimate,
    /// Fraction of rows that are NULL, in `[0, 1]`.
    pub null_fraction: Estimate,
    /// Minimum non-null value, when the type is orderable and data nonempty.
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
    /// Average size in bytes of one value (used for buffer sizing estimates).
    pub avg_size: Estimate,
}

impl ColumnStatistics {
    /// Statistics for a column about which nothing is known.
    pub fn unknown() -> ColumnStatistics {
        ColumnStatistics::default()
    }

    /// Selectivity of an equality predicate against this column under the
    /// uniform-distribution assumption: `1 / NDV`, unknown when NDV is.
    pub fn equality_selectivity(&self) -> Estimate {
        self.distinct_count
            .map(|ndv| if ndv > 0.0 { 1.0 / ndv } else { 1.0 })
    }

    /// Selectivity of `col <op> literal` for a range operator, estimated from
    /// the min/max bounds when both are numeric.
    pub fn range_selectivity(&self, lo: Option<&Value>, hi: Option<&Value>) -> Estimate {
        let (min, max) = match (&self.min, &self.max) {
            (Some(min), Some(max)) => (min, max),
            _ => return Estimate::unknown(),
        };
        let (min, max) = match (min.as_f64(), max.as_f64()) {
            (Some(a), Some(b)) if b > a => (a, b),
            // Degenerate or non-numeric domain: fall back to a fixed guess.
            _ => return Estimate::exact(0.25),
        };
        let lo = lo.and_then(|v| v.as_f64()).unwrap_or(min).max(min);
        let hi = hi.and_then(|v| v.as_f64()).unwrap_or(max).min(max);
        let fraction = ((hi - lo) / (max - min)).clamp(0.0, 1.0);
        Estimate::exact(fraction)
    }
}

/// Whole-table statistics, the unit reported by the connector Metadata API.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStatistics {
    pub row_count: Estimate,
    /// Parallel to the table schema; empty when no column stats exist.
    pub columns: Vec<ColumnStatistics>,
}

impl TableStatistics {
    pub fn unknown() -> TableStatistics {
        TableStatistics::default()
    }

    pub fn with_row_count(rows: f64) -> TableStatistics {
        TableStatistics {
            row_count: Estimate::exact(rows),
            columns: Vec::new(),
        }
    }

    pub fn column(&self, index: usize) -> ColumnStatistics {
        self.columns.get(index).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn unknown_is_contagious() {
        let known = Estimate::exact(10.0);
        let unknown = Estimate::unknown();
        assert!(!known.zip(unknown, |a, b| a + b).is_known());
        assert_eq!(
            known.zip(Estimate::exact(2.0), |a, b| a * b).value(),
            Some(20.0)
        );
    }

    #[test]
    fn map_clamps_negative() {
        assert_eq!(Estimate::exact(1.0).map(|v| v - 5.0).value(), Some(0.0));
    }

    #[test]
    fn equality_selectivity_from_ndv() {
        let stats = ColumnStatistics {
            distinct_count: Estimate::exact(100.0),
            ..Default::default()
        };
        assert_eq!(stats.equality_selectivity().value(), Some(0.01));
        assert!(!ColumnStatistics::unknown()
            .equality_selectivity()
            .is_known());
    }

    #[test]
    fn range_selectivity_interpolates() {
        let stats = ColumnStatistics {
            min: Some(Value::Bigint(0)),
            max: Some(Value::Bigint(100)),
            ..Default::default()
        };
        // col >= 75 keeps the top quarter of the domain.
        let sel = stats.range_selectivity(Some(&Value::Bigint(75)), None);
        assert!((sel.value().unwrap() - 0.25).abs() < 1e-9);
        // Bounds outside the domain clamp to [0, 1].
        let sel = stats.range_selectivity(Some(&Value::Bigint(-50)), None);
        assert_eq!(sel.value(), Some(1.0));
    }

    #[test]
    fn range_selectivity_unknown_without_bounds() {
        assert!(!ColumnStatistics::unknown()
            .range_selectivity(Some(&Value::Bigint(1)), None)
            .is_known());
    }
}
