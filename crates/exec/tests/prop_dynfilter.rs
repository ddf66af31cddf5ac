#![allow(clippy::unwrap_used)]
//! Dynamic-filter soundness properties: a published filter must NEVER drop
//! a probe row that would have joined, whatever form the filter takes —
//! exact value set, overflowed min/max range, or Bloom membership — and
//! whatever the key types, including NULLs on either side and
//! non-self-comparable doubles (NaN).

use presto_common::{DataType, PlanNodeId, Schema, Value};
use presto_connector::{Domain, TupleDomain};
use presto_exec::dynfilter::{split_pruned, DomainCollector, DynamicFilterRegistry};
use presto_exec::ScanDynamicFilter;
use presto_page::hash::hash_columns;
use presto_page::Page;
use presto_planner::{DynamicFilterKey, DynamicFilterSpec};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const JOIN: PlanNodeId = PlanNodeId(7);
const SCAN: PlanNodeId = PlanNodeId(3);

/// SQL join equality: NULL joins nothing; NaN joins nothing (f64 `==`).
fn sql_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => false,
        (Value::Double(x), Value::Double(y)) => x == y,
        _ => a == b,
    }
}

/// A probe row joins iff some build row (with fully non-null keys) matches
/// on every key.
fn joins(probe_keys: &[Value], build_rows: &[Vec<Value>]) -> bool {
    build_rows.iter().any(|b| {
        b.iter().all(|v| !v.is_null()) && probe_keys.iter().zip(b).all(|(p, q)| sql_eq(p, q))
    })
}

/// Collect the build side exactly as `HashBuilderOperator` does — combined
/// key hash per row, rows with any NULL key skipped — and publish it.
fn publish_build(
    registry: &Arc<DynamicFilterRegistry>,
    build: &Page,
    channels: &[usize],
    types: &[DataType],
    max_values: usize,
) {
    let hashes = hash_columns(build, channels);
    let mut collector = DomainCollector::new(channels.to_vec(), types, max_values);
    let non_null = |row: usize| {
        (channels.iter().zip(types))
            .all(|(&ch, &dt)| !build.block(ch).loaded().value_at(dt, row).is_null())
    };
    let rows: Vec<u32> = (0..build.row_count() as u32)
        .filter(|&row| non_null(row as usize))
        .collect();
    collector.add_rows(build, &rows, &hashes);
    registry.report(JOIN, collector.finish());
}

/// One spec whose key `i` maps build key `i` onto probe channel `i` /
/// table column `i` (every key mapped, so the Bloom path is active).
fn spec(types: &[DataType]) -> DynamicFilterSpec {
    DynamicFilterSpec {
        join: JOIN,
        join_fragment: 1,
        scan: SCAN,
        scan_fragment: 0,
        broadcast: false,
        keys: types
            .iter()
            .enumerate()
            .map(|(i, _)| {
                Some(DynamicFilterKey {
                    key_index: i,
                    scan_channel: i,
                    table_column: i,
                })
            })
            .collect(),
    }
}

/// The property: filter the probe page through a freshly published filter
/// and check every joining row survived (and nothing foreign appeared).
fn assert_sound(
    build_rows: Vec<Vec<Value>>,
    probe_rows: Vec<Vec<Value>>,
    types: &[DataType],
    max_values: usize,
) -> std::result::Result<(), TestCaseError> {
    let key_count = types.len();
    let fields: Vec<(String, DataType)> = types
        .iter()
        .enumerate()
        .map(|(i, &dt)| (format!("k{i}"), dt))
        .collect();
    let named: Vec<(&str, DataType)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::of(&named);
    let channels: Vec<usize> = (0..key_count).collect();
    let registry = DynamicFilterRegistry::new();
    let build = Page::from_rows(&schema, &build_rows);
    publish_build(&registry, &build, &channels, types, max_values);
    let filter = ScanDynamicFilter::new(
        Arc::clone(&registry),
        vec![spec(types)],
        Duration::from_secs(5),
    );
    prop_assert!(filter.ready(), "completed filter must be ready");
    let probe = Page::from_rows(&schema, &probe_rows);
    let kept = filter.prune_rows(probe).to_rows(&schema);
    // Soundness: every row that joins survives the filter.
    let mut kept_iter = kept.iter();
    for row in &probe_rows {
        if joins(row, &build_rows) {
            prop_assert!(
                kept_iter.any(|k| k == row),
                "filter dropped joining row {row:?} (build {build_rows:?})"
            );
        }
    }
    // Sanity: the filter only removes rows, never invents or reorders.
    let mut probe_iter = probe_rows.iter();
    for k in &kept {
        prop_assert!(kept.len() <= probe_rows.len());
        prop_assert!(probe_iter.any(|p| p == k), "foreign row {k:?}");
    }
    Ok(())
}

fn arb_bigint() -> impl Strategy<Value = Value> {
    prop_oneof![
        6 => (0i64..25).prop_map(Value::Bigint),
        1 => Just(Value::Null),
    ]
}

/// Bigints from 2^53, where `f64` stops holding every integer (2^53 and
/// 2^53 + 1 are one double), plus NULL.
fn arb_large_bigint() -> impl Strategy<Value = Value> {
    prop_oneof![
        6 => (0i64..4).prop_map(|d| Value::Bigint((1 << 53) + d)),
        1 => Just(Value::Null),
    ]
}

fn arb_double() -> impl Strategy<Value = Value> {
    // Integer-valued doubles plus NaN and NULL. (-0.0 is deliberately not
    // generated: SQL equality pools it with 0.0 but bit-level hashing does
    // not, and the engine's writers never produce it.)
    prop_oneof![
        5 => (0i64..20).prop_map(|v| Value::Double(v as f64)),
        1 => Just(Value::Double(f64::NAN)),
        1 => Just(Value::Null),
    ]
}

fn arb_varchar() -> impl Strategy<Value = Value> {
    prop_oneof![
        5 => "[a-d]{1,3}".prop_map(Value::varchar),
        1 => Just(Value::Null),
    ]
}

fn rows_of(v: impl Strategy<Value = Value>, max: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec(v.prop_map(|x| vec![x]), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Small build sides publish exact value sets.
    #[test]
    fn value_set_filter_is_sound(
        build in rows_of(arb_bigint(), 30),
        probe in rows_of(arb_bigint(), 60),
    ) {
        assert_sound(build, probe, &[DataType::Bigint], 1000)?;
    }

    /// `max_values = 2` forces the set to overflow into a min/max range.
    #[test]
    fn range_filter_is_sound(
        build in rows_of(arb_bigint(), 30),
        probe in rows_of(arb_bigint(), 60),
    ) {
        assert_sound(build, probe, &[DataType::Bigint], 2)?;
    }

    /// Bigints past 2^53 through the set and the range: the bounds and the
    /// per-row check compare them exactly, whatever order they arrive in.
    #[test]
    fn large_bigint_filter_is_sound(
        build in rows_of(arb_large_bigint(), 30),
        probe in rows_of(arb_large_bigint(), 60),
        max_values in prop_oneof![Just(1usize), Just(2usize), Just(1000usize)],
    ) {
        assert_sound(build, probe, &[DataType::Bigint], max_values)?;
    }

    /// Doubles, including NaN build keys: NaN escalates the domain to
    /// "unconstrained" (min/max cannot summarize it), never to a wrong
    /// range.
    #[test]
    fn double_filter_with_nan_is_sound(
        build in rows_of(arb_double(), 30),
        probe in rows_of(arb_double(), 60),
        max_values in prop_oneof![Just(2usize), Just(1000usize)],
    ) {
        assert_sound(build, probe, &[DataType::Double], max_values)?;
    }

    /// Varchar keys through both the set and range representations.
    #[test]
    fn varchar_filter_is_sound(
        build in rows_of(arb_varchar(), 30),
        probe in rows_of(arb_varchar(), 60),
        max_values in prop_oneof![Just(2usize), Just(1000usize)],
    ) {
        assert_sound(build, probe, &[DataType::Varchar], max_values)?;
    }

    /// Composite (bigint, varchar) keys: every key maps, so the combined-
    /// hash Bloom filter participates alongside the per-key domains.
    #[test]
    fn composite_key_bloom_filter_is_sound(
        build in proptest::collection::vec((arb_bigint(), arb_varchar()), 0..30),
        probe in proptest::collection::vec((arb_bigint(), arb_varchar()), 0..60),
        max_values in prop_oneof![Just(2usize), Just(1000usize)],
    ) {
        let build: Vec<Vec<Value>> = build.into_iter().map(|(a, b)| vec![a, b]).collect();
        let probe: Vec<Vec<Value>> = probe.into_iter().map(|(a, b)| vec![a, b]).collect();
        assert_sound(build, probe, &[DataType::Bigint, DataType::Varchar], max_values)?;
    }

    /// Split-level pruning: a split whose min/max summary covers any
    /// joining probe row must never be discarded.
    #[test]
    fn split_pruning_never_drops_a_joining_split(
        build in proptest::collection::vec(0i64..25, 0..30),
        split_rows in proptest::collection::vec(0i64..40, 1..40),
        max_values in prop_oneof![Just(2usize), Just(1000usize)],
    ) {
        let schema = Schema::of(&[("k0", DataType::Bigint)]);
        let build_rows: Vec<Vec<Value>> =
            build.iter().map(|&v| vec![Value::Bigint(v)]).collect();
        let registry = DynamicFilterRegistry::new();
        let page = Page::from_rows(&schema, &build_rows);
        publish_build(&registry, &page, &[0], &[DataType::Bigint], max_values);
        let filter = ScanDynamicFilter::new(
            Arc::clone(&registry),
            vec![spec(&[DataType::Bigint])],
            Duration::from_secs(5),
        );
        prop_assert!(filter.ready());
        let table_domain = filter.table_domain().expect("filter completed");
        // The split's footer summary: min/max of its rows on column 0.
        let (min, max) = (
            *split_rows.iter().min().unwrap(),
            *split_rows.iter().max().unwrap(),
        );
        let mut split_domain = TupleDomain::all();
        split_domain.constrain(
            0,
            Domain::Range {
                min: Some(Value::Bigint(min)),
                max: Some(Value::Bigint(max)),
            },
        );
        let any_joins = split_rows.iter().any(|&v| build.contains(&v));
        if any_joins {
            prop_assert!(
                !split_pruned(&table_domain, &split_domain),
                "pruned a split holding joining key(s): build={build:?} split=[{min},{max}]"
            );
        }
    }

    /// An all-NULL (or empty) build side proves the join is empty: the
    /// filter may drop every probe row, and `provably_empty` must say so.
    #[test]
    fn empty_build_side_proves_empty_probe(probe in rows_of(arb_bigint(), 40)) {
        let schema = Schema::of(&[("k0", DataType::Bigint)]);
        let build_rows: Vec<Vec<Value>> = vec![vec![Value::Null]; 5];
        let registry = DynamicFilterRegistry::new();
        let page = Page::from_rows(&schema, &build_rows);
        publish_build(&registry, &page, &[0], &[DataType::Bigint], 1000);
        let filter = ScanDynamicFilter::new(
            Arc::clone(&registry),
            vec![spec(&[DataType::Bigint])],
            Duration::from_secs(5),
        );
        prop_assert!(filter.ready());
        prop_assert!(filter.provably_empty());
        let kept = filter.prune_rows(Page::from_rows(&schema, &probe));
        prop_assert_eq!(kept.row_count(), 0);
    }
}
