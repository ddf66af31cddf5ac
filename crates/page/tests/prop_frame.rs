//! Property tests for the framed wire codec (§IV-E2): round-trips across
//! every block encoding × null masks × compression settings, bit-exact
//! round-trips of every lane width and double scale, and detection of
//! arbitrary single-byte corruption as a *retryable* error.
#![allow(clippy::unwrap_used)]

use presto_common::{DataType, Field, Schema, Value};
use presto_page::blocks::{DictionaryBlock, NullMask, VarcharBlock};
use presto_page::frame::{lz_compress, lz_decompress};
use presto_page::{
    decode_framed_page, deserialize_block, frame_info, frame_page, serialize_block, Block,
    BoolBlock, DoubleBlock, LongBlock, Page,
};
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
        _ => prop_oneof![
            3 => "[a-zA-Z0-9 ]{0,12}".prop_map(Value::varchar),
            1 => Just(Value::Null),
        ]
        .boxed(),
    }
}

fn arb_schema() -> impl Strategy<Value = Schema> {
    proptest::collection::vec(
        prop_oneof![
            Just(DataType::Bigint),
            Just(DataType::Double),
            Just(DataType::Boolean),
            Just(DataType::Varchar),
        ],
        1..4,
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

/// Flat pages over every type, with proptest-driven null masks.
fn arb_flat_page() -> BoxedStrategy<(Schema, Page)> {
    arb_schema()
        .prop_flat_map(|schema| {
            let cols: Vec<BoxedStrategy<Value>> = schema
                .fields()
                .iter()
                .map(|f| arb_value(f.data_type))
                .collect();
            let schema2 = schema.clone();
            proptest::collection::vec(cols, 0..48)
                .prop_map(move |rows| (schema2.clone(), Page::from_rows(&schema2, &rows)))
        })
        .boxed()
}

/// A single-column RLE page: one repeated (possibly null) value.
fn arb_rle_page() -> BoxedStrategy<(Schema, Page)> {
    (arb_value(DataType::Bigint), 1usize..200)
        .prop_map(|(v, count)| {
            let schema = Schema::of(&[("k", DataType::Bigint)]);
            let single = Page::from_rows(&schema, &[vec![v]]);
            let page = Page::new(vec![Block::rle(single.block(0).clone(), count)]);
            (schema, page)
        })
        .boxed()
}

/// A dictionary-encoded varchar column with proptest-chosen ids.
fn arb_dict_page() -> BoxedStrategy<(Schema, Page)> {
    (
        proptest::collection::vec("[a-z]{1,6}", 1..8),
        proptest::collection::vec(any::<u64>(), 1..64),
    )
        .prop_map(|(dict, picks)| {
            let schema = Schema::of(&[("s", DataType::Varchar)]);
            let strs: Vec<&str> = dict.iter().map(String::as_str).collect();
            let dictionary = Arc::new(Block::from(VarcharBlock::from_strs(&strs)));
            let ids: Vec<u32> = picks
                .iter()
                .map(|p| (p % dict.len() as u64) as u32)
                .collect();
            let page = Page::new(vec![Block::Dictionary(DictionaryBlock::new(
                dictionary, ids,
            ))]);
            (schema, page)
        })
        .boxed()
}

fn arb_any_page() -> impl Strategy<Value = (Schema, Page)> {
    prop_oneof![
        4 => arb_flat_page(),
        1 => arb_rle_page(),
        1 => arb_dict_page(),
    ]
}

proptest! {
    #[test]
    fn framed_codec_round_trips_every_encoding(
        (schema, page) in arb_any_page(),
        compress in any::<bool>(),
    ) {
        // Threshold 0 forces the compressor on every payload; usize::MAX
        // disables it. Both must round-trip the logical rows exactly.
        let threshold = if compress { 0 } else { usize::MAX };
        let frame = frame_page(&page, threshold);
        let info = frame_info(&frame).unwrap();
        prop_assert_eq!(info.wire_len + 17, frame.len());
        let decoded = decode_framed_page(&frame).unwrap();
        prop_assert_eq!(decoded.row_count(), page.row_count());
        prop_assert_eq!(decoded.to_rows(&schema), page.to_rows(&schema));
    }

    #[test]
    fn any_single_byte_flip_is_detected_and_retryable(
        (_, page) in arb_any_page(),
        compress in any::<bool>(),
        pos in any::<u64>(),
        bit in 0u32..8,
    ) {
        let threshold = if compress { 0 } else { usize::MAX };
        let mut bad = frame_page(&page, threshold).to_vec();
        let i = (pos % bad.len() as u64) as usize;
        bad[i] ^= 1 << bit;
        // Header fields are validated, the body is checksummed, and raw
        // frames must satisfy uncompressed_len == wire_len — every flip is
        // caught, and always as a transient (re-fetchable) error.
        let err = decode_framed_page(&bad).unwrap_err();
        prop_assert!(err.is_retryable(), "corruption must be retryable: {err}");
    }

    #[test]
    fn truncation_is_detected((_, page) in arb_any_page(), cut in any::<u64>()) {
        let frame = frame_page(&page, 0);
        let keep = (cut % frame.len() as u64) as usize;
        prop_assert!(decode_framed_page(&frame[..keep]).is_err());
    }
}

/// xorshift bytes: no four-byte sequence repeats within reach, so the
/// compressor misses at nearly every position.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

fn lz_round_trip(data: &[u8]) -> Vec<u8> {
    let mut packed = Vec::new();
    lz_compress(data, &mut packed);
    lz_decompress(&packed, data.len()).unwrap()
}

proptest! {
    /// Incompressible stretches are crossed with a growing stride (the
    /// miss acceleration); whatever is skipped must still arrive as
    /// literals, and a match after the stretch must still be found.
    #[test]
    fn incompressible_input_round_trips(
        seed in any::<u64>(),
        len in 0usize..20_000,
        tail in 0usize..2_000,
    ) {
        let mut data = noise(seed, len);
        data.extend(std::iter::repeat_n(7u8, tail));
        prop_assert_eq!(lz_round_trip(&data), data);
    }

    /// Short periods make matches whose offset is smaller than their
    /// length: the decoder copies them in growing slices of what it has
    /// already written.
    #[test]
    fn self_overlapping_matches_round_trip(
        period in proptest::collection::vec(any::<u32>().prop_map(|b| b as u8), 1..9),
        repeats in 1usize..600,
        prefix in proptest::collection::vec(any::<u32>().prop_map(|b| b as u8), 0..40),
    ) {
        let mut data = prefix;
        for _ in 0..repeats {
            data.extend_from_slice(&period);
        }
        prop_assert_eq!(lz_round_trip(&data), data);
    }

    /// A page of random longs frames raw even when compression is asked
    /// for, and decodes from the frame in place. (Below 98 rows the header
    /// is a match worth taking: the 8 bytes after its first byte repeat 5
    /// bytes on, which saves 5 bytes until the literal run after it needs a
    /// fourth length byte, at 780 bytes.)
    #[test]
    fn incompressible_page_frames_raw(seed in any::<u64>(), rows in 98usize..2_000) {
        let bytes = noise(seed, rows * 8);
        let values: Vec<i64> = bytes
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let page = Page::new(vec![Block::from(LongBlock::from_values(values.clone()))]);
        let frame = frame_page(&page, 0);
        prop_assert!(!frame_info(&frame).unwrap().compressed);
        let decoded = decode_framed_page(&frame).unwrap();
        let back: Vec<i64> = (0..rows).map(|r| decoded.block(0).i64_at(r)).collect();
        prop_assert_eq!(back, values);
    }
}

/// A hand-built stream: literals "ab", then a match at offset 2 for 20
/// bytes — ten times its own offset — then an empty final sequence.
#[test]
fn overlapping_match_replicates_the_window() {
    // Token 0x2F: 2 literals, match length 15 + 1 (extra byte) + 4 = 20.
    let stream = [0x2F, b'a', b'b', 2, 0, 1, 0x00];
    let out = lz_decompress(&stream, 22).unwrap();
    assert_eq!(out, b"ab".repeat(11));
}

/// Malformed streams are rejected exactly as before the wide copies:
/// every one is an error, never a panic or an overread.
#[test]
fn malformed_streams_are_rejected() {
    let cases: [(&[u8], usize, &str); 6] = [
        (&[], 4, "empty"),
        (&[0x10], 4, "literal past end"),
        (&[0x10, b'a', 0], 8, "truncated offset"),
        (&[0x10, b'a', 0, 0], 8, "offset zero"),
        (&[0x10, b'a', 2, 0], 8, "offset beyond output"),
        (
            &[0x1F, b'a', 1, 0, 255, 255, 0],
            64,
            "match overruns length",
        ),
    ];
    for (stream, expected, what) in cases {
        let err = lz_decompress(stream, expected).unwrap_err();
        assert!(err.is_retryable(), "{what}: {err}");
    }
}

// --- Lane encodings -----------------------------------------------------

/// Spans at the edges of the i64 lane widths: 1, 2 and 4 bytes and past.
const SPANS: [u64; 6] = [0xFF, 0x100, 0xFFFF, 0x1_0000, 0xFFFF_FFFF, 0x1_0000_0000];

/// Doubles that must never be scaled: each keeps its exact bits.
const SPECIAL_DOUBLES: [f64; 12] = [
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    f64::from_bits(0x7FF0_0000_0000_0001), // signalling NaN
    f64::from_bits(0x7FF8_0000_0000_0BAD), // NaN with a payload
    f64::from_bits(1),                     // the smallest subnormal
    -f64::MIN_POSITIVE / 4.0,
    f64::MAX,
    f64::MIN,
    0.1 + 0.2,
];

/// `k / 10^e`, the decimal a scale-`e` lane holds.
fn decimal(k: i64, e: usize) -> f64 {
    k as f64 / 10f64.powi(e as i32)
}

/// A null mask drawn from `seed`: none at all one time in four.
fn nulls_from(seed: u64, rows: usize) -> NullMask {
    (!seed.is_multiple_of(4)).then(|| (0..rows).map(|i| (seed >> (i % 61)) & 3 == 0).collect())
}

fn arb_longs() -> BoxedStrategy<Vec<i64>> {
    let extremes = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    prop_oneof![
        proptest::collection::vec(any::<i64>(), 0..200),
        proptest::collection::vec(0usize..extremes.len(), 0..200)
            .prop_map(move |picks| picks.iter().map(|&i| extremes[i]).collect()),
        // All equal: a width-0 lane.
        (any::<i64>(), 0usize..200).prop_map(|(v, n)| vec![v; n]),
        // Exactly a boundary span, both ends present, at any base.
        (
            any::<i64>(),
            0usize..SPANS.len(),
            proptest::collection::vec(any::<u64>(), 0..200)
        )
            .prop_map(|(base, s, picks)| {
                let span = SPANS[s];
                let mut values = vec![base, base.wrapping_add(span as i64)];
                values.extend(
                    picks
                        .iter()
                        .map(|p| base.wrapping_add((p % (span + 1)) as i64)),
                );
                values
            }),
    ]
    .boxed()
}

fn arb_doubles() -> BoxedStrategy<Vec<f64>> {
    prop_oneof![
        // Decimals at each scale.
        (
            0usize..5,
            proptest::collection::vec(-10_000_000i64..10_000_000, 0..200)
        )
            .prop_map(|(e, ks)| ks.iter().map(|&k| decimal(k, e)).collect()),
        // Decimals whose last row alone needs a finer scale, or no scale.
        (
            0usize..5,
            proptest::collection::vec(-100_000i64..100_000, 0..200),
            0..SPECIAL_DOUBLES.len() + 1,
        )
            .prop_map(|(e, ks, last)| {
                let mut values: Vec<f64> = ks.iter().map(|&k| decimal(k, e)).collect();
                values.push(match SPECIAL_DOUBLES.get(last) {
                    Some(&special) => special,
                    None => decimal(10 * ks.len() as i64 + 7, e + 1),
                });
                values
            }),
        proptest::collection::vec(any::<f64>(), 0..100),
    ]
    .boxed()
}

/// Strings whose bytes total just below or at a u32 lane boundary, so the
/// last offset needs 1, 2 or 4 bytes.
fn arb_varchar() -> BoxedStrategy<Block> {
    (
        0usize..6,
        proptest::collection::vec(any::<u64>(), 0..12),
        any::<u64>(),
    )
        .prop_map(|(t, cuts, seed)| {
            let total = [0usize, 255, 256, 65_535, 65_536, 65_537][t];
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % (total + 1)).collect();
            cuts.push(total);
            cuts.sort_unstable();
            let text: String = (0..total)
                .map(|i| (b'a' + (i % 26) as u8) as char)
                .collect();
            let mut start = 0;
            let strs: Vec<&str> = cuts
                .iter()
                .map(|&end| {
                    let s = &text[start..end];
                    start = end;
                    s
                })
                .collect();
            let mut block = VarcharBlock::from_strs(&strs);
            block.nulls = nulls_from(seed, strs.len());
            Block::from(block)
        })
        .boxed()
}

/// Dictionary ids whose largest sits at a u32 lane boundary.
fn arb_dictionary_ids() -> BoxedStrategy<Block> {
    (0usize..4, proptest::collection::vec(any::<u32>(), 0..100))
        .prop_map(|(d, picks)| {
            let size = [256u32, 257, 65_536, 65_537][d];
            let dictionary = Arc::new(Block::from(LongBlock::from_values(
                (0..i64::from(size)).map(|v| v * 3 - 1_000).collect(),
            )));
            let mut ids: Vec<u32> = picks.iter().map(|p| p % size).collect();
            ids.push(size - 1);
            Block::Dictionary(DictionaryBlock::new(dictionary, ids))
        })
        .boxed()
}

fn arb_lane_block() -> BoxedStrategy<Block> {
    prop_oneof![
        3 => (arb_longs(), any::<u64>()).prop_map(|(values, seed)| {
            let nulls = nulls_from(seed, values.len());
            Block::from(LongBlock::new(values, nulls))
        }),
        3 => (arb_doubles(), any::<u64>()).prop_map(|(values, seed)| {
            let nulls = nulls_from(seed, values.len());
            Block::from(DoubleBlock::new(values, nulls))
        }),
        1 => (proptest::collection::vec(any::<bool>(), 0..100), any::<u64>()).prop_map(
            |(values, seed)| {
                let nulls = nulls_from(seed, values.len());
                Block::from(BoolBlock::new(values, nulls))
            }
        ),
        1 => arb_varchar(),
        1 => arb_dictionary_ids(),
    ]
    .boxed()
}

/// Every bit a block holds: its null mask, then every value slot, null
/// slots included, doubles by `to_bits`.
fn image(block: &Block) -> Vec<u64> {
    fn mask(nulls: &NullMask) -> Vec<u64> {
        match nulls {
            None => vec![0],
            Some(m) => std::iter::once(1)
                .chain(m.iter().map(|&n| n as u64))
                .collect(),
        }
    }
    match block {
        Block::Long(b) => [mask(&b.nulls), b.values.iter().map(|&v| v as u64).collect()].concat(),
        Block::Double(b) => [
            mask(&b.nulls),
            b.values.iter().map(|v| v.to_bits()).collect(),
        ]
        .concat(),
        Block::Bool(b) => [mask(&b.nulls), b.values.iter().map(|&v| v as u64).collect()].concat(),
        Block::Varchar(b) => [
            mask(&b.nulls),
            b.offsets.iter().map(|&o| u64::from(o)).collect(),
            b.bytes.iter().map(|&c| u64::from(c)).collect(),
        ]
        .concat(),
        Block::Dictionary(b) => [
            b.ids.iter().map(|&id| u64::from(id)).collect(),
            image(&b.dictionary),
        ]
        .concat(),
        other => panic!("no lane block: {other:?}"),
    }
}

/// `block` comes back with the same [`image`] from the block codec and
/// from frames with LZ on and off.
fn assert_round_trips(block: Block) {
    let want = image(&block);
    let back = deserialize_block(&serialize_block(&block)).unwrap();
    assert_eq!(image(&back), want);
    let page = Page::new(vec![block]);
    for lz_min_bytes in [0, usize::MAX] {
        let page = decode_framed_page(&frame_page(&page, lz_min_bytes)).unwrap();
        assert_eq!(image(page.block(0)), want, "LZ from {lz_min_bytes}");
    }
}

proptest! {
    /// Every lane width and double scale round-trips bit for bit, through
    /// the block codec and through frames with LZ on and off.
    #[test]
    fn lanes_round_trip_bit_exactly(block in arb_lane_block()) {
        assert_round_trips(block);
    }

    /// A double that no scale holds keeps its bits among decimals of any
    /// scale, wherever it sits in the column.
    #[test]
    fn special_doubles_keep_their_bits(
        special in 0..SPECIAL_DOUBLES.len(),
        e in 0usize..5,
        ks in proptest::collection::vec(-100_000i64..100_000, 0..100),
        at in any::<u64>(),
    ) {
        let mut values: Vec<f64> = ks.iter().map(|&k| decimal(k, e)).collect();
        values.insert(at as usize % (values.len() + 1), SPECIAL_DOUBLES[special]);
        assert_round_trips(Block::from(DoubleBlock::new(values, None)));
    }

    /// A decimal column travels as a scaled integer lane, not as raw
    /// doubles: 10^7 at scale 4 needs at most 4 bytes a row.
    #[test]
    fn decimal_columns_take_integer_lanes(
        e in 0usize..5,
        ks in proptest::collection::vec(-10_000_000i64..10_000_000, 1..200),
    ) {
        let values: Vec<f64> = ks.iter().map(|&k| decimal(k, e)).collect();
        let block = Block::from(DoubleBlock::new(values, None));
        // tag, rows, null flag, scale, width, base, then the lane.
        let bound = 1 + 4 + 1 + 1 + 1 + 8 + 4 * ks.len();
        prop_assert!(serialize_block(&block).len() <= bound);
    }
}
