#![allow(clippy::unwrap_used)]
//! Property tests for execution operators against simple references:
//! sorting vs `slice::sort`, aggregation vs a HashMap fold, TopN vs
//! sort+truncate, joins vs nested loops, and partial/final vs single-phase.

use presto_common::{DataType, Schema, Value};
use presto_exec::agg::{AggPhase, AggSpec, HashAggregationOperator};
use presto_exec::join::{HashBuilderOperator, JoinBridge, LookupJoinOperator, ProbeJoinType};
use presto_exec::sort::{SortOperator, TopNOperator};
use presto_exec::{Operator, SpillManager};
use presto_expr::{AggregateFunction, AggregateKind};
use presto_page::{Block, Page, PhysicalType};
use presto_planner::SortKey;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

fn kv_schema() -> Schema {
    Schema::of(&[("k", DataType::Bigint), ("v", DataType::Bigint)])
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<(Option<i64>, i64)>> {
    proptest::collection::vec(
        (
            prop_oneof![4 => (0i64..20).prop_map(Some), 1 => Just(None)],
            -50i64..50,
        ),
        0..max,
    )
}

fn page_of(rows: &[(Option<i64>, i64)]) -> Page {
    Page::from_rows(
        &kv_schema(),
        &rows
            .iter()
            .map(|(k, v)| {
                vec![
                    k.map(Value::Bigint).unwrap_or(Value::Null),
                    Value::Bigint(*v),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

fn drain(op: &mut dyn Operator) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    while let Some(p) = op.output().unwrap() {
        out.extend(p.to_rows(&kv_schema()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sort_matches_reference(rows in arb_rows(60), chunks in 1usize..4, spill in any::<bool>()) {
        let keys = vec![SortKey { channel: 0, ascending: true, nulls_first: false },
                        SortKey { channel: 1, ascending: false, nulls_first: false }];
        let mut op = SortOperator::new(keys, spill.then(|| SpillManager::new(None, 0)));
        let chunk = (rows.len() / chunks).max(1);
        for (i, piece) in rows.chunks(chunk).enumerate() {
            op.add_input(page_of(piece)).unwrap();
            if spill && i % 2 == 0 {
                op.revoke_memory().unwrap();
            }
        }
        op.finish();
        let got = drain(&mut op);
        // Reference: stable total order — key asc (nulls last), value desc.
        let mut expected = rows.clone();
        expected.sort_by(|a, b| {
            let ka = a.0.map(|v| (0, v)).unwrap_or((1, 0));
            let kb = b.0.map(|v| (0, v)).unwrap_or((1, 0));
            ka.cmp(&kb).then(b.1.cmp(&a.1))
        });
        let expected_rows: Vec<Vec<Value>> = expected
            .iter()
            .map(|(k, v)| vec![k.map(Value::Bigint).unwrap_or(Value::Null), Value::Bigint(*v)])
            .collect();
        prop_assert_eq!(got, expected_rows);
    }

    #[test]
    fn topn_equals_sort_truncate(rows in arb_rows(60), n in 0u64..20) {
        let keys = vec![SortKey { channel: 1, ascending: false, nulls_first: false }];
        let mut top = TopNOperator::new(keys.clone(), n);
        for piece in rows.chunks(7) {
            top.add_input(page_of(piece)).unwrap();
        }
        top.finish();
        let got: Vec<i64> = drain(&mut top)
            .into_iter()
            .map(|r| r[1].as_i64().unwrap())
            .collect();
        let mut values: Vec<i64> = rows.iter().map(|(_, v)| *v).collect();
        values.sort_by(|a, b| b.cmp(a));
        values.truncate(n as usize);
        prop_assert_eq!(got, values);
    }

    #[test]
    fn grouped_sum_matches_hashmap(rows in arb_rows(80)) {
        let f = AggregateFunction::new(AggregateKind::Sum, Some(DataType::Bigint)).unwrap();
        let mut op = HashAggregationOperator::new(
            AggPhase::Single,
            vec![0],
            vec![DataType::Bigint],
            vec![AggSpec { function: f, input: Some(1) }],
            None,
        );
        for piece in rows.chunks(9) {
            op.add_input(page_of(piece)).unwrap();
        }
        op.finish();
        let mut got: Vec<(Option<i64>, i64)> = Vec::new();
        while let Some(p) = op.output().unwrap() {
            for i in 0..p.row_count() {
                let key = if p.block(0).is_null(i) { None } else { Some(p.block(0).i64_at(i)) };
                got.push((key, p.block(1).i64_at(i)));
            }
        }
        got.sort();
        let mut reference: HashMap<Option<i64>, i64> = HashMap::new();
        for (k, v) in &rows {
            *reference.entry(*k).or_insert(0) += v;
        }
        let mut expected: Vec<(Option<i64>, i64)> = reference.into_iter().collect();
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn partial_final_equals_single_phase(rows in arb_rows(80), split_at in 0usize..80) {
        let f = AggregateFunction::new(AggregateKind::Avg, Some(DataType::Bigint)).unwrap();
        let split = split_at.min(rows.len());
        // Two partials over disjoint halves, merged by a final.
        let mut finals = HashAggregationOperator::new(
            AggPhase::Final,
            vec![0],
            vec![DataType::Bigint],
            vec![AggSpec { function: f, input: Some(1) }],
            None,
        );
        for half in [&rows[..split], &rows[split..]] {
            let mut partial = HashAggregationOperator::new(
                AggPhase::Partial,
                vec![0],
                vec![DataType::Bigint],
                vec![AggSpec { function: f, input: Some(1) }],
                None,
            );
            if !half.is_empty() {
                partial.add_input(page_of(half)).unwrap();
            }
            partial.finish();
            while let Some(p) = partial.output().unwrap() {
                finals.add_input(p).unwrap();
            }
        }
        finals.finish();
        // Single phase.
        let mut single = HashAggregationOperator::new(
            AggPhase::Single,
            vec![0],
            vec![DataType::Bigint],
            vec![AggSpec { function: f, input: Some(1) }],
            None,
        );
        if !rows.is_empty() {
            single.add_input(page_of(&rows)).unwrap();
        }
        single.finish();
        let collect = |op: &mut HashAggregationOperator| {
            let mut out: Vec<(Option<i64>, Option<String>)> = Vec::new();
            while let Some(p) = op.output().unwrap() {
                for i in 0..p.row_count() {
                    let key =
                        if p.block(0).is_null(i) { None } else { Some(p.block(0).i64_at(i)) };
                    let avg = if p.block(1).is_null(i) {
                        None
                    } else {
                        Some(format!("{:.9}", p.block(1).f64_at(i)))
                    };
                    out.push((key, avg));
                }
            }
            out.sort();
            out
        };
        prop_assert_eq!(collect(&mut finals), collect(&mut single));
    }

    #[test]
    fn hash_join_matches_nested_loop(
        build in arb_rows(30),
        probe in arb_rows(30),
    ) {
        let bridge = JoinBridge::new(vec![0], 1);
        let mut builder = HashBuilderOperator::new(Arc::clone(&bridge));
        if !build.is_empty() {
            builder.add_input(page_of(&build)).unwrap();
        }
        builder.finish();
        let mut join = LookupJoinOperator::new(
            bridge,
            ProbeJoinType::Inner,
            vec![0],
            kv_schema(),
            kv_schema(),
            None,
        );
        let mut got: Vec<(i64, i64, i64, i64)> = Vec::new();
        for piece in probe.chunks(11) {
            join.add_input(page_of(piece)).unwrap();
            while let Some(p) = join.output().unwrap() {
                for i in 0..p.row_count() {
                    got.push((
                        p.block(0).i64_at(i),
                        p.block(1).i64_at(i),
                        p.block(2).i64_at(i),
                        p.block(3).i64_at(i),
                    ));
                }
            }
        }
        got.sort();
        let mut expected: Vec<(i64, i64, i64, i64)> = Vec::new();
        for (pk, pv) in &probe {
            for (bk, bv) in &build {
                if let (Some(pk), Some(bk)) = (pk, bk) {
                    if pk == bk {
                        expected.push((*pk, *pv, *bk, *bv));
                    }
                }
            }
        }
        expected.sort();
        prop_assert_eq!(got, expected);
    }
}

// Model check for the flat-table group-by (§V-E): group ids must equal a
// BTreeMap reference that assigns first-seen ordinals to distinct keys,
// regardless of page chunking, NULLs, or multi-column varchar keys.
fn arb_keyed_rows(max: usize) -> impl Strategy<Value = Vec<(Option<i64>, Option<u8>)>> {
    proptest::collection::vec(
        (
            prop_oneof![4 => (0i64..15).prop_map(Some), 1 => Just(None)],
            prop_oneof![4 => (0u8..5).prop_map(Some), 1 => Just(None)],
        ),
        0..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flat_group_by_matches_btreemap_model(rows in arb_keyed_rows(120), chunk in 1usize..17) {
        use presto_exec::agg::GroupByHash;
        use std::collections::BTreeMap;
        let schema = Schema::of(&[("k", DataType::Bigint), ("s", DataType::Varchar)]);
        let pages: Vec<Page> = rows
            .chunks(chunk)
            .map(|piece| {
                Page::from_rows(
                    &schema,
                    &piece
                        .iter()
                        .map(|(k, s)| {
                            vec![
                                k.map(Value::Bigint).unwrap_or(Value::Null),
                                s.map(|c| Value::varchar(format!("s{c}")))
                                    .unwrap_or(Value::Null),
                            ]
                        })
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut hash = GroupByHash::new(vec![0, 1], vec![DataType::Bigint, DataType::Varchar]);
        let mut got: Vec<u32> = Vec::new();
        for p in &pages {
            got.extend(hash.group_ids(p));
        }
        // Reference model: first-seen ordinal per distinct key (NULL is a
        // key value of its own).
        let mut model: BTreeMap<(Option<i64>, Option<u8>), u32> = BTreeMap::new();
        let mut expected: Vec<u32> = Vec::new();
        for &key in &rows {
            let next = model.len() as u32;
            expected.push(*model.entry(key).or_insert(next));
        }
        prop_assert_eq!(got, expected);
        prop_assert_eq!(hash.group_count(), model.len());
        // Exact accounting stays queryable mid-stream.
        prop_assert!(rows.is_empty() || hash.memory_bytes() > 0);
    }

    #[test]
    fn group_ids_match_byte_key_model_on_every_type_and_encoding(
        types in proptest::collection::vec(0usize..KEY_TYPES.len(), 1..4),
        cells in proptest::collection::vec(proptest::collection::vec(0usize..8, 3..4), 0..120),
        encodings in proptest::collection::vec(0usize..4, 1..16),
        chunk in 1usize..25,
    ) {
        use presto_exec::agg::GroupByHash;
        use presto_page::blocks::{DictionaryBlock, LazyBlock};
        use presto_page::Block;
        let types: Vec<DataType> = types.iter().map(|&t| KEY_TYPES[t]).collect();
        let palettes: Vec<Vec<Value>> = types.iter().map(|&t| key_palette(t)).collect();
        // One dictionary per key column, shared by every page.
        let dictionaries: Vec<Arc<Block>> = types
            .iter()
            .zip(&palettes)
            .map(|(&t, p)| Arc::new(Block::from_values(t, p)))
            .collect();
        let channels: Vec<usize> = (0..types.len()).collect();
        let mut hash = GroupByHash::new(channels, types.clone());
        let mut model: HashMap<Vec<u8>, u32> = HashMap::new();
        let mut model_keys: Vec<Vec<u8>> = Vec::new();
        // The first key column alone, which a flat bigint, date or double
        // column sends through the typed single-key pass. It first sees a
        // one-row page of a non-NULL key, so any NULL key is first seen on
        // a later page.
        let mut single = GroupByHash::new(vec![0], vec![types[0]]);
        let mut single_model: HashMap<Vec<u8>, u32> = HashMap::new();
        let lead = Block::from_values(types[0], &palettes[0][1..2]);
        let mut lead_key = Vec::new();
        byte_key(&lead, types[0], 0, &mut lead_key);
        single_model.insert(lead_key, 0);
        prop_assert_eq!(single.group_ids(&Page::new(vec![lead])), vec![0]);
        for (p, piece) in cells.chunks(chunk).enumerate() {
            let mut blocks = Vec::new();
            let mut reference = Vec::new();
            for (c, &t) in types.iter().enumerate() {
                let palette = &palettes[c];
                let mut ids: Vec<u32> = piece.iter().map(|r| (r[c] % palette.len()) as u32).collect();
                let encoding = encodings[(p * 3 + c) % encodings.len()];
                if encoding == 2 {
                    // RLE: the page's first key, repeated.
                    ids = vec![ids[0]; ids.len()];
                }
                let values: Vec<Value> = ids.iter().map(|&i| palette[i as usize].clone()).collect();
                let flat = Block::from_values(t, &values);
                blocks.push(match encoding {
                    0 => poison_nulls(flat.clone()),
                    1 => Block::Dictionary(DictionaryBlock::new(Arc::clone(&dictionaries[c]), ids)),
                    2 => Block::rle(Block::from_values(t, &values[..1]), values.len()),
                    _ => {
                        let loaded = poison_nulls(flat.clone());
                        Block::Lazy(LazyBlock::new(values.len(), move || loaded.clone()))
                    }
                });
                reference.push(flat);
            }
            let expected: Vec<u32> = (0..piece.len())
                .map(|row| {
                    let mut key = Vec::new();
                    for (block, &t) in reference.iter().zip(&types) {
                        byte_key(block, t, row, &mut key);
                    }
                    let next = model.len() as u32;
                    *model.entry(key.clone()).or_insert_with(|| {
                        model_keys.push(key);
                        next
                    })
                })
                .collect();
            let single_expected: Vec<u32> = (0..piece.len())
                .map(|row| {
                    let mut key = Vec::new();
                    byte_key(&reference[0], types[0], row, &mut key);
                    let next = single_model.len() as u32;
                    *single_model.entry(key).or_insert(next)
                })
                .collect();
            prop_assert_eq!(single.group_ids(&Page::new(vec![blocks[0].clone()])), single_expected);
            prop_assert_eq!(hash.group_ids(&Page::new(blocks)), expected);
        }
        prop_assert_eq!(hash.group_count(), model.len());
        prop_assert_eq!(single.group_count(), single_model.len());
        // Group g's stored key is the key the model numbered g.
        let keys = hash.take_key_blocks();
        for (g, expected) in model_keys.iter().enumerate() {
            let mut key = Vec::new();
            for (block, &t) in keys.iter().zip(&types) {
                byte_key(block, t, g, &mut key);
            }
            prop_assert_eq!(&key, expected);
        }
    }
}

const KEY_TYPES: [DataType; 5] = [
    DataType::Bigint,
    DataType::Date,
    DataType::Double,
    DataType::Boolean,
    DataType::Varchar,
];

/// The keys a column of type `t` draws from: NULL, and the values grouping
/// must merge (`0.0`, `-0.0`) or keep apart (NaNs, infinities, `''`,
/// multi-byte strings, one composed and one decomposed `é`).
fn key_palette(t: DataType) -> Vec<Value> {
    let mut palette = vec![Value::Null];
    palette.extend(match t {
        DataType::Bigint => [0, -1, i64::MIN, i64::MAX].map(Value::Bigint).to_vec(),
        DataType::Date => [0, -719_528, 20_000].map(Value::Date).to_vec(),
        DataType::Double => [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
        ]
        .map(Value::Double)
        .to_vec(),
        DataType::Boolean => [true, false].map(Value::Boolean).to_vec(),
        _ => ["", "é", "e\u{301}", "日本", "a"]
            .map(Value::varchar)
            .to_vec(),
    });
    palette
}

/// One cell's byte key: the model group-by keys rows by these bytes, so
/// NULL groups with NULL, `-0.0` with `0.0`, doubles otherwise by bits and
/// varchars by bytes.
/// `block` with a value other than the default under each NULL, as a
/// computed column may hold: a NULL key must group by its NULL flag alone.
fn poison_nulls(block: presto_page::Block) -> presto_page::Block {
    use presto_page::Block;
    let nulls: Vec<bool> = (0..block.len()).map(|r| block.is_null(r)).collect();
    fn under<T: Copy>(values: &mut [T], nulls: &[bool], v: T) {
        for (slot, &null) in values.iter_mut().zip(nulls) {
            if null {
                *slot = v;
            }
        }
    }
    match block {
        Block::Long(mut b) => {
            under(&mut b.values, &nulls, 42);
            Block::Long(b)
        }
        Block::Double(mut b) => {
            under(&mut b.values, &nulls, f64::NAN);
            Block::Double(b)
        }
        Block::Bool(mut b) => {
            under(&mut b.values, &nulls, true);
            Block::Bool(b)
        }
        Block::Varchar(b) => {
            let mut poisoned = presto_page::blocks::VarcharBlock::from_strs(
                &(0..b.len())
                    .map(|r| if nulls[r] { "zz" } else { b.value(r) })
                    .collect::<Vec<_>>(),
            );
            poisoned.nulls = b.nulls;
            Block::Varchar(poisoned)
        }
        other => other,
    }
}

fn byte_key(block: &presto_page::Block, t: DataType, row: usize, out: &mut Vec<u8>) {
    use presto_page::PhysicalType;
    if block.is_null(row) {
        out.push(0);
        return;
    }
    out.push(1);
    match PhysicalType::of(t) {
        PhysicalType::Long => out.extend_from_slice(&block.i64_at(row).to_le_bytes()),
        PhysicalType::Double => {
            let v = block.f64_at(row);
            let v = if v == 0.0 { 0.0 } else { v };
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        PhysicalType::Bool => out.push(block.bool_at(row) as u8),
        PhysicalType::Varchar => {
            let s = block.str_at(row);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// The row order the sort-like operators must produce, kept here only as
/// the model: rows compared one pair at a time through `Block`'s
/// encoding-transparent accessors.
fn compare_rows(a: &Page, arow: usize, b: &Page, brow: usize, keys: &[SortKey]) -> Ordering {
    for k in keys {
        let (ab, bb) = (a.block(k.channel), b.block(k.channel));
        let ord = match (ab.is_null(arow), bb.is_null(brow)) {
            (true, true) => Ordering::Equal,
            (true, false) if k.nulls_first => Ordering::Less,
            (true, false) => Ordering::Greater,
            (false, true) if k.nulls_first => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) if k.ascending => compare_at(ab, arow, bb, brow),
            (false, false) => compare_at(ab, arow, bb, brow).reverse(),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Two non-NULL cells of one physical type in their natural order.
fn compare_at(a: &Block, i: usize, b: &Block, j: usize) -> Ordering {
    match a.physical_type() {
        PhysicalType::Long => a.i64_at(i).cmp(&b.i64_at(j)),
        PhysicalType::Double => a.f64_at(i).total_cmp(&b.f64_at(j)),
        PhysicalType::Bool => a.bool_at(i).cmp(&b.bool_at(j)),
        PhysicalType::Varchar => a.str_at(i).cmp(b.str_at(j)),
    }
}

/// The model's row order of `page` under `keys`: a stable sort.
fn model_order(page: &Page, keys: &[SortKey]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..page.row_count()).collect();
    order.sort_by(|&a, &b| compare_rows(page, a, page, b, keys));
    order
}

/// One cell exactly: NULL flag, then the value's bits (`-0.0` and `0.0`,
/// and every NaN, apart).
fn cell_bytes(block: &Block, t: DataType, row: usize, out: &mut Vec<u8>) {
    if block.is_null(row) {
        out.push(0);
        return;
    }
    out.push(1);
    match PhysicalType::of(t) {
        PhysicalType::Long => out.extend_from_slice(&block.i64_at(row).to_le_bytes()),
        PhysicalType::Double => out.extend_from_slice(&block.f64_at(row).to_bits().to_le_bytes()),
        PhysicalType::Bool => out.push(block.bool_at(row) as u8),
        PhysicalType::Varchar => {
            let s = block.str_at(row);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn row_bytes(page: &Page, types: &[DataType], row: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for (c, &t) in types.iter().enumerate() {
        cell_bytes(page.block(c), t, row, &mut out);
    }
    out
}

/// Every output row of `op`, as bytes.
fn drain_bytes(op: &mut dyn Operator, types: &[DataType]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    while let Some(p) = op.output().unwrap() {
        out.extend((0..p.row_count()).map(|r| row_bytes(&p, types, r)));
    }
    out
}

/// Input for the sort-like operators: key columns of the given types drawn
/// from their palettes (so keys tie), a row id, and a nullable bigint
/// value. Returns the column types, the input cut into pages of `chunk`
/// rows with each key column encoded flat (NULL slots poisoned),
/// dictionary, RLE or lazy, and the same rows as one flat page.
fn sort_input(
    key_types: &[DataType],
    cells: &[Vec<usize>],
    encodings: &[usize],
    chunk: usize,
) -> (Vec<DataType>, Vec<Page>, Page) {
    use presto_page::blocks::{DictionaryBlock, LazyBlock};
    let mut types = key_types.to_vec();
    types.extend([DataType::Bigint, DataType::Bigint]);
    let palettes: Vec<Vec<Value>> = key_types.iter().map(|&t| key_palette(t)).collect();
    let dictionaries: Vec<Arc<Block>> = key_types
        .iter()
        .zip(&palettes)
        .map(|(&t, p)| Arc::new(Block::from_values(t, p)))
        .collect();
    let mut pages = Vec::new();
    let mut reference = Vec::new();
    for (p, piece) in cells.chunks(chunk).enumerate() {
        let base = reference.len();
        let mut rows: Vec<Vec<Value>> = vec![Vec::new(); piece.len()];
        let mut blocks = Vec::new();
        for (c, &t) in key_types.iter().enumerate() {
            let palette = &palettes[c];
            let mut ids: Vec<u32> = piece
                .iter()
                .map(|r| (r[c] % palette.len()) as u32)
                .collect();
            let encoding = encodings[(p * 3 + c) % encodings.len()];
            if encoding == 2 {
                ids = vec![ids[0]; ids.len()];
            }
            let values: Vec<Value> = ids.iter().map(|&i| palette[i as usize].clone()).collect();
            for (row, v) in rows.iter_mut().zip(&values) {
                row.push(v.clone());
            }
            let flat = Block::from_values(t, &values);
            blocks.push(match encoding {
                0 => poison_nulls(flat),
                1 => Block::Dictionary(DictionaryBlock::new(Arc::clone(&dictionaries[c]), ids)),
                2 => Block::rle(Block::from_values(t, &values[..1]), values.len()),
                _ => {
                    let loaded = poison_nulls(flat);
                    Block::Lazy(LazyBlock::new(values.len(), move || loaded.clone()))
                }
            });
        }
        for (i, (row, cell)) in rows.iter_mut().zip(piece).enumerate() {
            row.push(Value::Bigint((base + i) as i64));
            row.push(match cell[3] % 8 {
                0 => Value::Null,
                v => Value::Bigint(v as i64 - 4),
            });
        }
        let ids: Vec<Value> = rows.iter().map(|r| r[key_types.len()].clone()).collect();
        let vals: Vec<Value> = rows
            .iter()
            .map(|r| r[key_types.len() + 1].clone())
            .collect();
        blocks.push(Block::from_values(DataType::Bigint, &ids));
        blocks.push(poison_nulls(Block::from_values(DataType::Bigint, &vals)));
        pages.push(Page::new(blocks));
        reference.extend(rows);
    }
    let schema = Schema::new(
        types
            .iter()
            .enumerate()
            .map(|(c, &t)| presto_common::Field::new(format!("c{c}"), t))
            .collect(),
    );
    (types, pages, Page::from_rows(&schema, &reference))
}

/// A key per column of `key_types`, with the drawn direction and NULL
/// placement.
fn sort_keys(key_types: &[DataType], dirs: &[(bool, bool)]) -> Vec<SortKey> {
    (0..key_types.len())
        .map(|channel| SortKey {
            channel,
            ascending: dirs[channel].0,
            nulls_first: dirs[channel].1,
        })
        .collect()
}

/// Feed `pages` to `op`, revoking its memory after every other page when
/// `spill` is set, then finish it.
fn feed(op: &mut dyn Operator, pages: Vec<Page>, spill: bool) {
    for (i, page) in pages.into_iter().enumerate() {
        op.add_input(page).unwrap();
        if spill && i % 2 == 0 {
            op.revoke_memory().unwrap();
        }
    }
    op.finish();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sort_and_topn_match_the_row_comparator_model(
        key_types in proptest::collection::vec(0usize..KEY_TYPES.len(), 1..4),
        dirs in proptest::collection::vec((any::<bool>(), any::<bool>()), 3..4),
        cells in proptest::collection::vec(proptest::collection::vec(0usize..8, 4..5), 0..120),
        encodings in proptest::collection::vec(0usize..4, 1..16),
        chunk in 1usize..40,
        spill in any::<bool>(),
        n in 0u64..30,
    ) {
        let key_types: Vec<DataType> = key_types.iter().map(|&t| KEY_TYPES[t]).collect();
        let keys = sort_keys(&key_types, &dirs);
        let (types, pages, reference) = sort_input(&key_types, &cells, &encodings, chunk);
        let expected: Vec<Vec<u8>> = model_order(&reference, &keys)
            .into_iter()
            .map(|r| row_bytes(&reference, &types, r))
            .collect();

        let manager = spill.then(|| SpillManager::new(None, 0));
        let mut sort = SortOperator::new(keys.clone(), manager);
        feed(&mut sort, pages.clone(), spill);
        prop_assert_eq!(drain_bytes(&mut sort, &types), expected.clone());

        let mut top = TopNOperator::new(keys, n);
        feed(&mut top, pages, false);
        let mut expected = expected;
        expected.truncate(n as usize);
        prop_assert_eq!(drain_bytes(&mut top, &types), expected);
    }

    #[test]
    fn window_matches_the_row_comparator_model(
        key_types in proptest::collection::vec(0usize..KEY_TYPES.len(), 1..4),
        partition_keys in 0usize..4,
        dirs in proptest::collection::vec((any::<bool>(), any::<bool>()), 3..4),
        cells in proptest::collection::vec(proptest::collection::vec(0usize..8, 4..5), 0..120),
        encodings in proptest::collection::vec(0usize..4, 1..16),
        chunk in 1usize..40,
        spill in any::<bool>(),
    ) {
        use presto_exec::window::WindowOperator;
        use presto_expr::WindowFunction;
        use presto_planner::plan::WindowFnSpec;
        let key_types: Vec<DataType> = key_types.iter().map(|&t| KEY_TYPES[t]).collect();
        let (types, pages, reference) = sort_input(&key_types, &cells, &encodings, chunk);
        // The first keys partition (the window sorts them ASC NULLS LAST),
        // the rest order rows within a partition.
        let partition_keys = partition_keys.min(key_types.len());
        let partition_by: Vec<usize> = (0..partition_keys).collect();
        let order_by = sort_keys(&key_types, &dirs).split_off(partition_keys);
        let value = key_types.len() + 1;
        let sum = AggregateFunction::new(AggregateKind::Sum, Some(DataType::Bigint)).unwrap();
        let functions = [
            (WindowFunction::Rank, None),
            (WindowFunction::DenseRank, None),
            (WindowFunction::RowNumber, None),
            (WindowFunction::Aggregate(sum), Some(value)),
        ]
        .into_iter()
        .map(|(function, input)| WindowFnSpec { function, input, name: "f".into() })
        .collect();
        let manager = spill.then(|| SpillManager::new(None, 0));
        let mut window = WindowOperator::new(partition_by.clone(), order_by.clone(), functions)
            .with_spill(manager);
        feed(&mut window, pages, spill);
        let mut out_types = types.clone();
        out_types.extend([DataType::Bigint; 4]);
        let got = drain_bytes(&mut window, &out_types);

        // The model: a stable sort on (partition keys, order keys); a new
        // partition where the partition keys differ from the row before,
        // a new peer group where the order keys do.
        let partition_sort: Vec<SortKey> = partition_by
            .iter()
            .map(|&channel| SortKey { channel, ascending: true, nulls_first: false })
            .collect();
        let mut all_keys = partition_sort.clone();
        all_keys.extend(order_by.iter().copied());
        let order = model_order(&reference, &all_keys);
        let differs = |keys: &[SortKey], a: usize, b: usize| {
            compare_rows(&reference, a, &reference, b, keys) != Ordering::Equal
        };
        let mut expected = Vec::new();
        let mut start = 0;
        while start < order.len() {
            let mut end = start + 1;
            while end < order.len() && !differs(&partition_sort, order[end - 1], order[end]) {
                end += 1;
            }
            let mut peer_start = start;
            let mut groups = 0;
            let mut total: Option<i64> = None;
            while peer_start < end {
                let mut peer_end = peer_start + 1;
                while peer_end < end && !differs(&order_by, order[peer_end - 1], order[peer_end]) {
                    peer_end += 1;
                }
                groups += 1;
                for &r in &order[peer_start..peer_end] {
                    let v = reference.block(value);
                    if !v.is_null(r) {
                        total = Some(total.unwrap_or(0) + v.i64_at(r));
                    }
                }
                for (i, &r) in order.iter().enumerate().take(peer_end).skip(peer_start) {
                    let mut row = row_bytes(&reference, &types, r);
                    let computed = [
                        Value::Bigint((peer_start - start + 1) as i64),
                        Value::Bigint(groups),
                        Value::Bigint((i - start + 1) as i64),
                        total.map_or(Value::Null, Value::Bigint),
                    ];
                    for v in &computed {
                        cell_bytes(&Block::single(DataType::Bigint, v), DataType::Bigint, 0, &mut row);
                    }
                    expected.push(row);
                }
                peer_start = peer_end;
            }
            start = end;
        }
        prop_assert_eq!(got, expected);
    }
}
