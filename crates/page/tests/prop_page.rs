//! Property tests for the columnar page layer: codec round-trips, encoding
//! equivalence, and dictionary-aware and lane-wise hashing.
#![allow(clippy::unwrap_used)]

use presto_common::{DataType, Field, Schema, Value};
use presto_page::blocks::{DictionaryBlock, VarcharBlock};
use presto_page::hash::{
    combine_hashes, hash_block_into, hash_cell, hash_columns, DictionaryHashCache,
};
use presto_page::{deserialize_page, serialize_page, Block, Page};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_value(dt: DataType) -> BoxedStrategy<Value> {
    match dt {
        DataType::Bigint => prop_oneof![
            3 => any::<i64>().prop_map(Value::Bigint),
            1 => Just(Value::Null),
        ]
        .boxed(),
        DataType::Double => prop_oneof![
            3 => any::<f64>().prop_filter("finite", |v| v.is_finite()).prop_map(Value::Double),
            1 => Just(Value::Null),
        ]
        .boxed(),
        DataType::Boolean => prop_oneof![
            3 => any::<bool>().prop_map(Value::Boolean),
            1 => Just(Value::Null),
        ]
        .boxed(),
        DataType::Varchar => prop_oneof![
            3 => "[a-zA-Z0-9 ]{0,12}".prop_map(Value::varchar),
            1 => Just(Value::Null),
        ]
        .boxed(),
        DataType::Date => any::<i32>().prop_map(|d| Value::Date(d as i64)).boxed(),
        DataType::Timestamp => any::<i64>().prop_map(Value::Timestamp).boxed(),
    }
}

fn arb_schema() -> impl Strategy<Value = Schema> {
    proptest::collection::vec(
        prop_oneof![
            Just(DataType::Bigint),
            Just(DataType::Double),
            Just(DataType::Boolean),
            Just(DataType::Varchar),
            Just(DataType::Date),
        ],
        1..5,
    )
    .prop_map(|types| {
        Schema::new(
            types
                .into_iter()
                .enumerate()
                .map(|(i, t)| Field::new(format!("c{i}"), t))
                .collect(),
        )
    })
}

fn arb_page() -> impl Strategy<Value = (Schema, Page)> {
    arb_schema().prop_flat_map(|schema| {
        let row_strategies: Vec<BoxedStrategy<Value>> = schema
            .fields()
            .iter()
            .map(|f| arb_value(f.data_type))
            .collect();
        let schema2 = schema.clone();
        proptest::collection::vec(row_strategies, 0..40)
            .prop_map(move |rows| (schema2.clone(), Page::from_rows(&schema2, &rows)))
    })
}

/// Values of one physical type, with the cells hashing must treat
/// specially: NULL, -0.0 beside 0.0, NaN and infinities, the empty string.
fn arb_hash_value(dt: DataType) -> BoxedStrategy<Value> {
    let value = match dt {
        DataType::Double => prop_oneof![
            3 => any::<f64>().prop_map(Value::Double),
            1 => Just(Value::Double(0.0)),
            1 => Just(Value::Double(-0.0)),
            1 => Just(Value::Double(f64::NAN)),
            1 => Just(Value::Double(f64::NEG_INFINITY)),
        ]
        .boxed(),
        DataType::Varchar => prop_oneof![
            3 => "[a-c]{0,4}".prop_map(Value::varchar),
            1 => Just(Value::varchar("")),
        ]
        .boxed(),
        other => arb_value(other),
    };
    prop_oneof![4 => value, 1 => Just(Value::Null)].boxed()
}

/// A flat column of one of the four physical types, and `0..40` ids into it.
fn arb_hash_column() -> impl Strategy<Value = (Block, Vec<u32>)> {
    let types = prop_oneof![
        Just(DataType::Bigint),
        Just(DataType::Double),
        Just(DataType::Boolean),
        Just(DataType::Varchar),
    ];
    types.prop_flat_map(|dt| {
        let values = proptest::collection::vec(arb_hash_value(dt), 1..30);
        let ids = proptest::collection::vec(any::<u32>(), 0..40);
        (values, ids).prop_map(move |(values, ids)| {
            let n = values.len() as u32;
            let ids = ids.into_iter().map(|id| id % n).collect();
            (Block::from_values(dt, &values), ids)
        })
    })
}

/// `hash_block_into` over `block`, folded into `seeds`, against one
/// `hash_cell` per row.
fn check_lane_hash(block: &Block, seeds: &[u64]) -> Result<(), TestCaseError> {
    let mut lane = seeds.to_vec();
    hash_block_into(block, &mut lane, &mut DictionaryHashCache::new());
    let cells = seeds.iter().enumerate();
    let per_cell: Vec<u64> = cells
        .map(|(i, &s)| combine_hashes(s, hash_cell(block, i)))
        .collect();
    prop_assert_eq!(lane, per_cell);
    Ok(())
}

proptest! {
    #[test]
    fn lane_hash_equals_cell_hash((flat, ids) in arb_hash_column(), seed in any::<u64>()) {
        let seeds: Vec<u64> = (0..flat.len() as u64).map(|i| seed.wrapping_mul(i)).collect();
        check_lane_hash(&flat, &seeds)?;
        let dictionary = Block::Dictionary(DictionaryBlock::new(Arc::new(flat.clone()), ids));
        let seeds: Vec<u64> = (0..dictionary.len() as u64).map(|i| seed ^ i).collect();
        check_lane_hash(&dictionary, &seeds)?;
        // Equal SQL values hash equally whatever their encoding.
        let mut flat_hashes = vec![0; dictionary.len()];
        hash_block_into(&dictionary.decode(), &mut flat_hashes, &mut DictionaryHashCache::new());
        let mut dict_hashes = vec![0; dictionary.len()];
        hash_block_into(&dictionary, &mut dict_hashes, &mut DictionaryHashCache::new());
        prop_assert_eq!(flat_hashes, dict_hashes);
        for row in [0, flat.len() - 1] {
            let rle = Block::rle(flat.filter(&[row as u32]), 5);
            check_lane_hash(&rle, &[seed; 5])?;
            check_lane_hash(&rle.decode(), &[seed; 5])?;
        }
    }

    #[test]
    fn codec_round_trips_any_page((schema, page) in arb_page()) {
        let decoded = deserialize_page(&serialize_page(&page)).unwrap();
        prop_assert_eq!(decoded.to_rows(&schema), page.to_rows(&schema));
    }

    #[test]
    fn filter_then_decode_equals_decode_then_select(
        (schema, page) in arb_page(),
        selector in proptest::collection::vec(any::<bool>(), 0..40),
    ) {
        let positions: Vec<u32> = (0..page.row_count())
            .filter(|&i| *selector.get(i).unwrap_or(&false))
            .map(|i| i as u32)
            .collect();
        let filtered = page.filter(&positions);
        let expected: Vec<Vec<Value>> = positions
            .iter()
            .map(|&p| page.row(&schema, p as usize))
            .collect();
        prop_assert_eq!(filtered.to_rows(&schema), expected);
    }

    #[test]
    fn hashing_is_encoding_invariant(strings in proptest::collection::vec("[a-c]{1,3}", 1..50)) {
        // Build the same logical column flat and dictionary-encoded.
        let flat = Page::new(vec![Block::from(VarcharBlock::from_strs(&strings))]);
        let mut distinct: Vec<String> = strings.clone();
        distinct.sort();
        distinct.dedup();
        let ids: Vec<u32> = strings
            .iter()
            .map(|s| distinct.iter().position(|d| d == s).unwrap() as u32)
            .collect();
        let dict = Arc::new(Block::from(VarcharBlock::from_strs(&distinct)));
        let encoded = Page::new(vec![Block::Dictionary(DictionaryBlock::new(dict, ids))]);
        prop_assert_eq!(hash_columns(&flat, &[0]), hash_columns(&encoded, &[0]));
    }

    #[test]
    fn concat_preserves_rows((schema, page) in arb_page()) {
        let doubled = Page::concat(&[page.clone(), page.clone()]);
        let mut expected = page.to_rows(&schema);
        expected.extend(page.to_rows(&schema));
        prop_assert_eq!(doubled.to_rows(&schema), expected);
    }

    #[test]
    fn truncate_is_prefix((schema, page) in arb_page(), n in 0usize..50) {
        let truncated = page.truncate(n);
        let expected: Vec<_> = page.to_rows(&schema).into_iter().take(n).collect();
        prop_assert_eq!(truncated.to_rows(&schema), expected);
    }
}
