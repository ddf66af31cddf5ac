#![allow(clippy::unwrap_used)]
//! Property tests for the PORC file format: write→read round trips across
//! stripe boundaries, stripe pruning never drops matching rows, and the
//! writer's files match, byte for byte, those of a per-`Value` model writer.

use presto_common::{DataType, Schema, Value};
use presto_connector::{Domain, TupleDomain};
use presto_page::blocks::{BoolBlock, DictionaryBlock, DoubleBlock, LazyBlock, LongBlock};
use presto_page::{Block, Page, VarcharBlock};
use presto_porc::{FileMeta, IoStats, PorcReader, PorcWriter, WriterOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn arb_rows() -> impl Strategy<Value = Vec<(Option<i64>, Option<String>, f64)>> {
    proptest::collection::vec(
        (
            prop_oneof![5 => (-100i64..100).prop_map(Some), 1 => Just(None)],
            prop_oneof![5 => "[a-d]{1,3}".prop_map(Some), 1 => Just(None)],
            -100.0f64..100.0,
        ),
        0..300,
    )
}

fn schema() -> Schema {
    Schema::of(&[
        ("k", DataType::Bigint),
        ("s", DataType::Varchar),
        ("x", DataType::Double),
    ])
}

fn to_page(rows: &[(Option<i64>, Option<String>, f64)]) -> Page {
    Page::from_rows(
        &schema(),
        &rows
            .iter()
            .map(|(k, s, x)| {
                vec![
                    k.map(Value::Bigint).unwrap_or(Value::Null),
                    s.clone().map(Value::varchar).unwrap_or(Value::Null),
                    Value::Double(*x),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

fn temp_file(tag: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("porc-prop-{}-{tag}.porc", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn write_read_round_trip(rows in arb_rows(), stripe_rows in 1usize..64, tag in any::<u64>()) {
        let path = temp_file(tag);
        let mut writer = PorcWriter::create(
            &path,
            schema(),
            WriterOptions { stripe_rows },
        )
        .unwrap();
        let page = to_page(&rows);
        if page.row_count() > 0 {
            writer.append(&page).unwrap();
        }
        let meta = writer.finish().unwrap();
        prop_assert_eq!(meta.row_count as usize, rows.len());
        let reader = PorcReader::open(&path, Arc::new(IoStats::new())).unwrap();
        let mut got: Vec<Vec<Value>> = Vec::new();
        for s in 0..reader.stripe_count() {
            let p = reader.read_stripe(s, &[0, 1, 2], false).unwrap();
            got.extend(p.to_rows(&schema()));
        }
        prop_assert_eq!(got, page.to_rows(&schema()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stripe_pruning_never_drops_matches(
        rows in arb_rows(),
        probe in -100i64..100,
        tag in any::<u64>(),
    ) {
        let path = temp_file(tag.wrapping_add(1));
        let mut writer = PorcWriter::create(
            &path,
            schema(),
            WriterOptions { stripe_rows: 16 },
        )
        .unwrap();
        let page = to_page(&rows);
        if page.row_count() > 0 {
            writer.append(&page).unwrap();
        }
        writer.finish().unwrap();
        let reader = PorcReader::open(&path, Arc::new(IoStats::new())).unwrap();
        let mut predicate = TupleDomain::all();
        predicate.constrain(0, Domain::point(Value::Bigint(probe)));
        // Count matches surviving pruning…
        let mut surviving = 0usize;
        for s in reader.select_stripes(&predicate) {
            let p = reader.read_stripe(s, &[0], false).unwrap();
            for i in 0..p.row_count() {
                if !p.block(0).is_null(i) && p.block(0).i64_at(i) == probe {
                    surviving += 1;
                }
            }
        }
        // …must equal the true count (no false negatives from min/max or
        // Bloom statistics).
        let expected = rows.iter().filter(|(k, _, _)| *k == Some(probe)).count();
        prop_assert_eq!(surviving, expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lazy_and_eager_reads_agree(rows in arb_rows(), tag in any::<u64>()) {
        let path = temp_file(tag.wrapping_add(2));
        let mut writer = PorcWriter::create(
            &path,
            schema(),
            WriterOptions { stripe_rows: 32 },
        )
        .unwrap();
        let page = to_page(&rows);
        if page.row_count() > 0 {
            writer.append(&page).unwrap();
        }
        writer.finish().unwrap();
        let reader = PorcReader::open(&path, Arc::new(IoStats::new())).unwrap();
        for s in 0..reader.stripe_count() {
            let lazy = reader.read_stripe(s, &[1, 0], true).unwrap();
            let eager = reader.read_stripe(s, &[1, 0], false).unwrap();
            let projected = Schema::of(&[("s", DataType::Varchar), ("k", DataType::Bigint)]);
            prop_assert_eq!(lazy.to_rows(&projected), eager.to_rows(&projected));
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The writer `PorcWriter` replaced, kept as the model its files must match:
/// a stripe is cut from the concatenated buffered pages, and every cell is
/// read as a `Value` for statistics, NDV and the encoding choice.
mod model {
    use bytes::BufMut;
    use presto_common::{DataType, Schema, Value};
    use presto_page::blocks::{DictionaryBlock, VarcharBlock};
    use presto_page::hash::hash_cell;
    use presto_page::{serialize_block, Block, BlockBuilder, Page};
    use presto_porc::bloom::BloomFilter;
    use presto_porc::format::{encode_footer, FileColumnStats};
    use presto_porc::{ColumnChunkMeta, FileMeta, StripeMeta, PORC_MAGIC};
    use std::cmp::Ordering;
    use std::collections::{HashMap, HashSet};
    use std::sync::Arc;

    const DICTIONARY_RATIO: usize = 4;
    const NDV_CAP: usize = 100_000;

    struct FileStatsAcc {
        min: Option<Value>,
        max: Option<Value>,
        null_count: u64,
        distinct: HashSet<Value>,
        distinct_overflow: bool,
    }

    /// The file bytes and footer the model writes for `pages`.
    pub fn write(schema: &Schema, pages: &[Page], stripe_rows: usize) -> (Vec<u8>, FileMeta) {
        let mut out = Vec::new();
        let mut stripes = Vec::new();
        let mut file_stats: Vec<FileStatsAcc> = (0..schema.len())
            .map(|_| FileStatsAcc {
                min: None,
                max: None,
                null_count: 0,
                distinct: HashSet::new(),
                distinct_overflow: false,
            })
            .collect();
        let mut buffered: Vec<Page> = Vec::new();
        let mut buffered_rows = 0;
        let mut row_count = 0u64;
        for page in pages {
            buffered_rows += page.row_count();
            row_count += page.row_count() as u64;
            buffered.push(page.load_all());
            while buffered_rows >= stripe_rows {
                flush_stripe(
                    schema,
                    &mut buffered,
                    &mut buffered_rows,
                    stripe_rows,
                    &mut out,
                    &mut stripes,
                    &mut file_stats,
                );
            }
        }
        if buffered_rows > 0 {
            let rows = buffered_rows;
            flush_stripe(
                schema,
                &mut buffered,
                &mut buffered_rows,
                rows,
                &mut out,
                &mut stripes,
                &mut file_stats,
            );
        }
        let meta = FileMeta {
            schema: schema.clone(),
            stripes,
            row_count,
            column_stats: file_stats
                .iter()
                .map(|s| FileColumnStats {
                    min: s.min.clone(),
                    max: s.max.clone(),
                    null_count: s.null_count,
                    distinct_count: s.distinct.len() as u64,
                })
                .collect(),
        };
        let footer = encode_footer(&meta);
        out.extend_from_slice(&footer);
        out.put_u32_le(footer.len() as u32);
        out.extend_from_slice(PORC_MAGIC);
        (out, meta)
    }

    fn flush_stripe(
        schema: &Schema,
        buffered: &mut Vec<Page>,
        buffered_rows: &mut usize,
        rows: usize,
        out: &mut Vec<u8>,
        stripes: &mut Vec<StripeMeta>,
        file_stats: &mut [FileStatsAcc],
    ) {
        let combined = Page::concat(buffered);
        let (stripe_page, rest) = if combined.row_count() > rows {
            let head: Vec<u32> = (0..rows as u32).collect();
            let tail: Vec<u32> = (rows as u32..combined.row_count() as u32).collect();
            (combined.filter(&head), Some(combined.filter(&tail)))
        } else {
            (combined, None)
        };
        *buffered = rest.into_iter().collect();
        *buffered_rows -= rows;
        let position = out.len() as u64;
        let mut columns = Vec::new();
        let mut offset = 0u32;
        for (col, acc) in file_stats.iter_mut().enumerate() {
            let (block, mut chunk) =
                encode_column(schema.data_type(col), stripe_page.block(col), acc);
            let bytes = serialize_block(&block);
            chunk.offset = offset;
            chunk.length = bytes.len() as u32;
            offset += bytes.len() as u32;
            out.extend_from_slice(&bytes);
            columns.push(chunk);
        }
        stripes.push(StripeMeta {
            offset: position,
            length: out.len() as u64 - position,
            row_count: rows as u32,
            columns,
        });
    }

    fn encode_column(
        dt: DataType,
        block: &Block,
        file_acc: &mut FileStatsAcc,
    ) -> (Block, ColumnChunkMeta) {
        let rows = block.len();
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        let mut null_count = 0u32;
        let mut bloom = (dt != DataType::Double).then(BloomFilter::new);
        let mut distinct: HashMap<Value, u32> = HashMap::new();
        let mut ids: Vec<u32> = Vec::with_capacity(rows);
        for i in 0..rows {
            if block.is_null(i) {
                null_count += 1;
                file_acc.null_count += 1;
                ids.push(u32::MAX);
                continue;
            }
            let v = block.value_at(dt, i);
            if min
                .as_ref()
                .is_none_or(|m| v.sql_cmp(m) == Some(Ordering::Less))
            {
                min = Some(v.clone());
            }
            if max
                .as_ref()
                .is_none_or(|m| v.sql_cmp(m) == Some(Ordering::Greater))
            {
                max = Some(v.clone());
            }
            if let Some(b) = bloom.as_mut() {
                b.insert(hash_cell(block, i));
            }
            if !file_acc.distinct_overflow {
                if file_acc.distinct.len() >= NDV_CAP {
                    file_acc.distinct_overflow = true;
                } else {
                    file_acc.distinct.insert(v.clone());
                }
            }
            let next = distinct.len() as u32;
            let id = *distinct.entry(v).or_insert(next);
            ids.push(id);
        }
        if max.as_ref().is_some_and(|m| {
            file_acc
                .max
                .as_ref()
                .is_none_or(|fm| m.sql_cmp(fm) == Some(Ordering::Greater))
        }) {
            file_acc.max = max.clone();
        }
        if min.as_ref().is_some_and(|m| {
            file_acc
                .min
                .as_ref()
                .is_none_or(|fm| m.sql_cmp(fm) == Some(Ordering::Less))
        }) {
            file_acc.min = min.clone();
        }
        let chunk = ColumnChunkMeta {
            offset: 0,
            length: 0,
            min,
            max,
            null_count,
            bloom,
        };
        let ndv = distinct.len();
        if ndv == 1 && null_count == 0 {
            if let Some(value) = distinct.keys().next() {
                return (Block::rle(Block::single(dt, value), rows), chunk);
            }
        }
        if ndv > 0 && null_count == 0 && ndv * DICTIONARY_RATIO < rows && dt == DataType::Varchar {
            let mut entries = vec![""; ndv];
            for (v, &id) in &distinct {
                entries[id as usize] = v.as_str().unwrap_or_default();
            }
            let dict = Block::from(VarcharBlock::from_strs(&entries));
            return (
                Block::Dictionary(DictionaryBlock::new(Arc::new(dict), ids)),
                chunk,
            );
        }
        let mut b = BlockBuilder::with_capacity(dt, rows);
        for i in 0..rows {
            b.append_from(block, i);
        }
        (b.finish(), chunk)
    }
}

/// Write `pages` with `PorcWriter` and with the model; the files and the
/// returned footers must be identical.
fn assert_matches_model(
    schema: &Schema,
    pages: &[Page],
    stripe_rows: usize,
    tag: &str,
) -> Result<(), TestCaseError> {
    let path = std::env::temp_dir().join(format!("porc-model-{}-{tag}.porc", std::process::id()));
    let mut writer =
        PorcWriter::create(&path, schema.clone(), WriterOptions { stripe_rows }).unwrap();
    for page in pages {
        writer.append(page).unwrap();
    }
    let meta: FileMeta = writer.finish().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let (model_bytes, model_meta) = model::write(schema, pages, stripe_rows);
    prop_assert_eq!(meta, model_meta);
    prop_assert!(
        bytes == model_bytes,
        "{tag}: file bytes differ from the model's"
    );
    Ok(())
}

const TYPES: [DataType; 6] = [
    DataType::Bigint,
    DataType::Double,
    DataType::Boolean,
    DataType::Varchar,
    DataType::Date,
    DataType::Timestamp,
];

const DOUBLES: [f64; 9] = [
    f64::NAN,
    -0.0,
    0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.5,
    -2.25,
    1e300,
    f64::MIN_POSITIVE,
];

const STRINGS: [&str; 8] = ["", "a", "b", "ab", "é", "日本語", "zz", "\u{1F600}x"];

/// One random non-NULL cell of `dt` drawn from `pool` distinct choices
/// (`pool == 0` means unbounded).
fn random_value(rng: &mut StdRng, dt: DataType, pool: u64) -> Value {
    let pick = |rng: &mut StdRng, n: u64| {
        if pool == 0 {
            rng.gen_range(0..n)
        } else {
            rng.gen_range(0..pool.min(n))
        }
    };
    match dt {
        DataType::Double => match pick(rng, 12) {
            i @ 0..=8 => Value::Double(DOUBLES[i as usize]),
            _ => Value::Double(rng.gen_range(-1000.0..1000.0)),
        },
        DataType::Boolean => Value::Boolean(pick(rng, 2) == 1),
        DataType::Varchar => match pick(rng, 12) {
            i @ 0..=7 => Value::varchar(STRINGS[i as usize]),
            _ => Value::varchar(format!("s{}é", rng.gen_range(0..1000u32))),
        },
        _ => {
            let v = match pick(rng, 8) {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => 1 << 53,
                3 => (1 << 53) + 1,
                _ => rng.gen_range(-1000i64..1000),
            };
            match dt {
                DataType::Date => Value::Date(v),
                DataType::Timestamp => Value::Timestamp(v),
                _ => Value::Bigint(v),
            }
        }
    }
}

/// A flat block of `values` whose NULL slots hold a random non-NULL
/// placeholder (as expression output may), not the builder's zero.
fn flat_block(rng: &mut StdRng, dt: DataType, values: &[Value]) -> Block {
    let nulls: Vec<bool> = values.iter().map(Value::is_null).collect();
    let mask = nulls.iter().any(|&n| n).then_some(nulls);
    let cells: Vec<Value> = values
        .iter()
        .map(|v| {
            if v.is_null() {
                random_value(rng, dt, 0)
            } else {
                v.clone()
            }
        })
        .collect();
    match dt {
        DataType::Double => Block::Double(DoubleBlock::new(
            cells.iter().map(|v| v.as_f64().unwrap()).collect(),
            mask,
        )),
        DataType::Boolean => Block::Bool(BoolBlock::new(
            cells.iter().map(|v| v.as_bool().unwrap()).collect(),
            mask,
        )),
        DataType::Varchar => {
            let strs: Vec<&str> = cells.iter().map(|v| v.as_str().unwrap()).collect();
            let mut b = VarcharBlock::from_strs(&strs);
            b.nulls = mask;
            Block::Varchar(b)
        }
        _ => Block::Long(LongBlock::new(
            cells.iter().map(|v| v.as_i64().unwrap()).collect(),
            mask,
        )),
    }
}

/// `rows` cells of `dt` in a random encoding: flat, dictionary (possibly
/// with a NULL entry), RLE (possibly of NULL), or lazy over one of those.
fn random_block(rng: &mut StdRng, dt: DataType, rows: usize) -> Block {
    let pool = [1, 2, 3, 0][rng.gen_range(0..4)];
    let null_rate = [0.0, 0.0, 0.2, 1.0][rng.gen_range(0..4)];
    let cell = |rng: &mut StdRng| {
        if rng.gen_bool(null_rate) {
            Value::Null
        } else {
            random_value(rng, dt, pool)
        }
    };
    let block = match rng.gen_range(0..3) {
        0 => {
            let values: Vec<Value> = (0..rows).map(|_| cell(rng)).collect();
            flat_block(rng, dt, &values)
        }
        1 => {
            let entries: Vec<Value> = (0..rng.gen_range(1..5)).map(|_| cell(rng)).collect();
            let ids = (0..rows)
                .map(|_| rng.gen_range(0..entries.len() as u32))
                .collect();
            let dictionary = flat_block(rng, dt, &entries);
            Block::Dictionary(DictionaryBlock::new(Arc::new(dictionary), ids))
        }
        _ => {
            let value = cell(rng);
            Block::rle(Block::single(dt, &value), rows)
        }
    };
    if rng.gen_bool(0.25) {
        Block::Lazy(LazyBlock::new(rows, move || block.clone()))
    } else {
        block
    }
}

/// A random schema over all six types, pages whose sizes straddle
/// `stripe_rows`, and that stripe size.
fn random_case(seed: u64) -> (Schema, Vec<Page>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let columns: Vec<(String, DataType)> = (0..rng.gen_range(1..5))
        .map(|i| (format!("c{i}"), TYPES[rng.gen_range(0..TYPES.len())]))
        .collect();
    let named: Vec<(&str, DataType)> = columns.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::of(&named);
    let stripe_rows = rng.gen_range(1..40);
    let pages = (0..rng.gen_range(0..6))
        .map(|_| {
            let rows = rng.gen_range(0..2 * stripe_rows + 3);
            let blocks = named
                .iter()
                .map(|&(_, dt)| random_block(&mut rng, dt, rows))
                .collect();
            Page::new(blocks)
        })
        .collect();
    (schema, pages, stripe_rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_matches_value_model(seed in any::<u64>()) {
        let (schema, pages, stripe_rows) = random_case(seed);
        assert_matches_model(&schema, &pages, stripe_rows, &format!("prop-{seed}"))?;
    }
}

#[test]
fn distinct_values_past_the_ndv_cap_match_model() {
    let schema = Schema::of(&[
        ("k", DataType::Bigint),
        ("s", DataType::Varchar),
        ("x", DataType::Double),
    ]);
    let pages: Vec<Page> = (0..13)
        .map(|p| {
            let rows: Vec<Vec<Value>> = (p * 8000..(p + 1) * 8000)
                .map(|i| {
                    vec![
                        Value::Bigint(i),
                        Value::varchar(format!("v{i}")),
                        Value::Double(i as f64 / 3.0),
                    ]
                })
                .collect();
            Page::from_rows(&schema, &rows)
        })
        .collect();
    assert_matches_model(&schema, &pages, 8192, "ndv-cap").unwrap();
}

#[test]
fn tpch_tables_match_model() {
    let generator = presto_workload::TpchGenerator::new(0.01);
    for (name, schema, pages) in generator.all_tables() {
        assert_matches_model(&schema, &pages, 8192, name).unwrap();
    }
}
