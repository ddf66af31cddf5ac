//! Property tests for the framed wire codec (§IV-E2): round-trips across
//! every block encoding × null masks × compression settings, and detection
//! of arbitrary single-byte corruption as a *retryable* error.
#![allow(clippy::unwrap_used)]

use presto_common::{DataType, Field, Schema, Value};
use presto_page::blocks::{DictionaryBlock, VarcharBlock};
use presto_page::frame::{lz_compress, lz_decompress};
use presto_page::{decode_framed_page, frame_info, frame_page, Block, LongBlock, Page};
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
    /// for, and decodes from the frame in place. (Below 64 rows the header's
    /// repeated row count is a match worth taking.)
    #[test]
    fn incompressible_page_frames_raw(seed in any::<u64>(), rows in 64usize..2_000) {
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
