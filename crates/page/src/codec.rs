//! Page wire format.
//!
//! Pages are serialized when they cross task boundaries (shuffles), when
//! revocable state spills to disk, and as PORC column chunks; all three go
//! through this one codec. The format preserves RLE and dictionary
//! structure so that the receiving side can keep operating on compressed
//! data — the paper's shuffle ships pages, not decoded rows. Lazy blocks are
//! forced before encoding (data leaving a task is, by definition, accessed).
//!
//! Layout (little-endian): `u32 column_count`, `u32 row_count`, then each
//! block: `u8 tag` followed by a tag-specific body. Null masks are encoded
//! as a presence byte plus a packed bitset. Values travel in lanes sized to
//! the column's data, the type-aware encodings of §V-E:
//!
//! * an **i64 lane** is `u8 width`, `i64 base`, then every value minus
//!   `base` in `width` bytes: the narrowest of {0, 1, 2, 4} that holds the
//!   column's span (frame of reference; an all-equal column costs no bytes
//!   per row). A span that needs width 8 sends the values as they are,
//!   with no base;
//! * a **u32 lane** (dictionary ids, varchar offsets) is `u8 width`, then
//!   every value in the narrowest of {1, 2, 4} bytes that holds the largest;
//! * **booleans** are bit-packed like null masks;
//! * a **double** column is `u8 scale`, then either an i64 lane of `k` with
//!   every value `== k / 10^scale` bit for bit (the smallest `scale` ≤ 4 at
//!   which that holds for every slot, null slots included), or, for scale
//!   `0xFF`, the raw 8-byte IEEE bits. −0.0, NaN and ±∞ never
//!   divide back to their own bits, so a column holding one stays raw.
//!
//! These encodings are what keep frames small: the byte-level LZ stage in
//! [`crate::frame`] is opt-in.

use bytes::{Buf, BufMut, Bytes};
use presto_common::{PrestoError, Result};
use std::sync::Arc;

use crate::block::Block;
use crate::blocks::{
    BoolBlock, DictionaryBlock, DoubleBlock, LongBlock, NullMask, RleBlock, VarcharBlock,
};
use crate::page::Page;

const TAG_LONG: u8 = 0;
const TAG_DOUBLE: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_VARCHAR: u8 = 3;
const TAG_RLE: u8 = 4;
const TAG_DICTIONARY: u8 = 5;

/// The scale byte of a double column sent as raw IEEE bits.
const RAW_DOUBLES: u8 = 0xFF;
/// Decimal scales a double column may take: `10^0 ..= 10^4`.
const POW10: [f64; 5] = [1.0, 10.0, 100.0, 1_000.0, 10_000.0];
/// Rows a decoded block may claim. A width-0 lane holds no bytes per row,
/// so its length must be bounded before it is allocated.
const MAX_BLOCK_ROWS: usize = 1 << 24;

/// Serialize a page, preserving block encodings.
pub fn serialize_page(page: &Page) -> Bytes {
    let mut buf = Vec::with_capacity(page.size_in_bytes() + 64);
    encode_page(page, &mut buf);
    Bytes::from(buf)
}

/// Append the serialized page to `buf` (the frame codec writes it straight
/// after a frame header, with no intermediate payload buffer).
pub fn encode_page(page: &Page, buf: &mut Vec<u8>) {
    buf.put_u32_le(page.column_count() as u32);
    buf.put_u32_le(page.row_count() as u32);
    for block in page.blocks() {
        encode_block(block.loaded(), buf);
    }
}

/// Serialize a single block (used by the PORC file format to store columns
/// independently addressable within a stripe).
pub fn serialize_block(block: &Block) -> Bytes {
    let mut buf = Vec::with_capacity(block.size_in_bytes() + 16);
    encode_block(block.loaded(), &mut buf);
    Bytes::from(buf)
}

/// Deserialize a block produced by [`serialize_block`].
pub fn deserialize_block(bytes: &[u8]) -> Result<Block> {
    let mut buf = bytes;
    decode_block(&mut buf)
}

/// Deserialize a page produced by [`serialize_page`].
pub fn deserialize_page(bytes: &[u8]) -> Result<Page> {
    let mut buf = bytes;
    let columns = read_u32(&mut buf)? as usize;
    let rows = read_u32(&mut buf)? as usize;
    let mut blocks = Vec::with_capacity(columns);
    for _ in 0..columns {
        let block = decode_block(&mut buf)?;
        if block.len() != rows {
            return Err(PrestoError::internal(
                "page codec: block row count mismatch",
            ));
        }
        blocks.push(block);
    }
    if columns == 0 {
        return Ok(Page::zero_column(rows));
    }
    Ok(Page::new(blocks))
}

fn encode_null_mask(mask: &NullMask, buf: &mut Vec<u8>) {
    match mask {
        None => buf.put_u8(0),
        Some(mask) => {
            buf.put_u8(1);
            buf.put_u32_le(mask.len() as u32);
            put_bits(buf, mask);
        }
    }
}

fn decode_null_mask(buf: &mut &[u8], rows: usize) -> Result<NullMask> {
    match read_u8(buf)? {
        0 => Ok(None),
        1 => {
            let len = read_u32(buf)? as usize;
            if len != rows {
                return Err(PrestoError::internal(
                    "page codec: null mask length differs from the block's",
                ));
            }
            Ok(Some(get_bits(buf, len)?))
        }
        t => Err(PrestoError::internal(format!(
            "page codec: bad null-mask tag {t}"
        ))),
    }
}

fn encode_block(block: &Block, buf: &mut Vec<u8>) {
    match block {
        Block::Long(b) => {
            buf.put_u8(TAG_LONG);
            buf.put_u32_le(b.len() as u32);
            encode_null_mask(&b.nulls, buf);
            put_i64_lane(buf, &b.values);
        }
        Block::Double(b) => {
            buf.put_u8(TAG_DOUBLE);
            buf.put_u32_le(b.len() as u32);
            encode_null_mask(&b.nulls, buf);
            put_f64_lane(buf, &b.values);
        }
        Block::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u32_le(b.len() as u32);
            encode_null_mask(&b.nulls, buf);
            put_bits(buf, &b.values);
        }
        Block::Varchar(b) => {
            buf.put_u8(TAG_VARCHAR);
            buf.put_u32_le(b.len() as u32);
            encode_null_mask(&b.nulls, buf);
            put_u32_lane(buf, &b.offsets);
            buf.put_u32_le(b.bytes.len() as u32);
            buf.put_slice(&b.bytes);
        }
        Block::Rle(b) => {
            buf.put_u8(TAG_RLE);
            buf.put_u32_le(b.count as u32);
            encode_block(b.value.loaded(), buf);
        }
        Block::Dictionary(b) => {
            buf.put_u8(TAG_DICTIONARY);
            buf.put_u32_le(b.ids.len() as u32);
            put_u32_lane(buf, &b.ids);
            encode_block(b.dictionary.loaded(), buf);
        }
        Block::Lazy(b) => encode_block(b.load().loaded(), buf),
    }
}

/// Decode one block and check it: the result upholds every invariant the
/// block types assume (PORC chunks carry no checksum, so this is where file
/// input is validated).
fn decode_block(buf: &mut &[u8]) -> Result<Block> {
    let tag = read_u8(buf)?;
    match tag {
        TAG_LONG => {
            let len = read_len(buf)?;
            let nulls = decode_null_mask(buf, len)?;
            let values = get_i64_lane(buf, len, |v| v)?;
            Ok(Block::Long(LongBlock::new(values, nulls)))
        }
        TAG_DOUBLE => {
            let len = read_len(buf)?;
            let nulls = decode_null_mask(buf, len)?;
            let values = get_f64_lane(buf, len)?;
            Ok(Block::Double(DoubleBlock::new(values, nulls)))
        }
        TAG_BOOL => {
            let len = read_len(buf)?;
            let nulls = decode_null_mask(buf, len)?;
            let values = get_bits(buf, len)?;
            Ok(Block::Bool(BoolBlock::new(values, nulls)))
        }
        TAG_VARCHAR => {
            let len = read_len(buf)?;
            let nulls = decode_null_mask(buf, len)?;
            let offsets = get_u32_lane(buf, len + 1)?;
            let nbytes = read_u32(buf)? as usize;
            let bytes = take_bytes(buf, nbytes)?;
            let text = std::str::from_utf8(bytes)
                .map_err(|_| PrestoError::internal("page codec: invalid utf-8"))?;
            // Each string is `text[offsets[i]..offsets[i + 1]]`, read
            // unchecked by `VarcharBlock::value`.
            let starts_at_zero = offsets.first() == Some(&0);
            let ends_at_len = offsets.last() == Some(&(nbytes as u32));
            let ascending = offsets.windows(2).all(|w| w[0] <= w[1]);
            let on_chars = offsets.iter().all(|&o| text.is_char_boundary(o as usize));
            if !(starts_at_zero && ends_at_len && ascending && on_chars) {
                return Err(PrestoError::internal("page codec: bad varchar offsets"));
            }
            Ok(Block::Varchar(VarcharBlock {
                offsets,
                bytes: bytes.to_vec(),
                nulls,
            }))
        }
        TAG_RLE => {
            let count = read_u32(buf)? as usize;
            let value = decode_block(buf)?;
            if value.len() != 1 {
                return Err(PrestoError::internal(
                    "page codec: RLE value must be single-row",
                ));
            }
            Ok(Block::Rle(RleBlock {
                value: Arc::new(value),
                count,
            }))
        }
        TAG_DICTIONARY => {
            let len = read_len(buf)?;
            let ids = get_u32_lane(buf, len)?;
            let dictionary = decode_block(buf)?;
            if ids.iter().any(|&id| id as usize >= dictionary.len()) {
                return Err(PrestoError::internal(
                    "page codec: dictionary id out of range",
                ));
            }
            Ok(Block::Dictionary(DictionaryBlock::new(
                Arc::new(dictionary),
                ids,
            )))
        }
        t => Err(PrestoError::internal(format!(
            "page codec: unknown block tag {t}"
        ))),
    }
}

/// The narrowest lane width in {0, 1, 2, 4, 8} bytes that holds `max`.
fn lane_width(max: u64) -> u8 {
    match max {
        0 => 0,
        1..=0xFF => 1,
        0x100..=0xFFFF => 2,
        0x1_0000..=0xFFFF_FFFF => 4,
        _ => 8,
    }
}

/// Append `values` as an i64 lane: `u8 width`, `i64 base` (the minimum),
/// then every `value - base` in `width` bytes. A width-8 lane is the values
/// themselves, with no base: a span that needs eight bytes gains nothing
/// from one.
fn put_i64_lane(buf: &mut Vec<u8>, values: &[i64]) {
    let (base, max) = values
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let (base, width) = if values.is_empty() {
        (0, 0)
    } else {
        (base, lane_width(max.wrapping_sub(base) as u64))
    };
    buf.put_u8(width);
    if width == 8 {
        return put_le(buf, values, i64::to_le_bytes);
    }
    buf.put_i64_le(base);
    let delta = |v: i64| v.wrapping_sub(base);
    match width {
        0 => {}
        1 => put_le(buf, values, |v| (delta(v) as u8).to_le_bytes()),
        2 => put_le(buf, values, |v| (delta(v) as u16).to_le_bytes()),
        _ => put_le(buf, values, |v| (delta(v) as u32).to_le_bytes()),
    }
}

/// Read an `n`-value i64 lane written by [`put_i64_lane`], mapping each
/// value through `to` as it lands.
fn get_i64_lane<T: Clone>(buf: &mut &[u8], n: usize, to: impl Fn(i64) -> T) -> Result<Vec<T>> {
    let width = read_u8(buf)?;
    if width == 8 {
        return get_le(buf, n, |b| to(i64::from_le_bytes(b)));
    }
    let base = read_i64(buf)?;
    let at = |delta: u32| to(base.wrapping_add(delta.into()));
    match width {
        0 => Ok(vec![to(base); n]),
        1 => get_le(buf, n, |b| at(u8::from_le_bytes(b).into())),
        2 => get_le(buf, n, |b| at(u16::from_le_bytes(b).into())),
        4 => get_le(buf, n, |b| at(u32::from_le_bytes(b))),
        w => Err(PrestoError::internal(format!(
            "page codec: bad i64 lane width {w}"
        ))),
    }
}

/// Append `values` as a u32 lane: `u8 width`, then every value in `width`
/// bytes, the narrowest of {1, 2, 4} that holds the largest.
fn put_u32_lane(buf: &mut Vec<u8>, values: &[u32]) {
    let max = values.iter().copied().max().unwrap_or(0);
    let width = lane_width(max.into()).max(1);
    buf.put_u8(width);
    match width {
        1 => put_le(buf, values, |v| (v as u8).to_le_bytes()),
        2 => put_le(buf, values, |v| (v as u16).to_le_bytes()),
        _ => put_le(buf, values, u32::to_le_bytes),
    }
}

/// Read an `n`-value u32 lane written by [`put_u32_lane`].
fn get_u32_lane(buf: &mut &[u8], n: usize) -> Result<Vec<u32>> {
    match read_u8(buf)? {
        1 => get_le(buf, n, |b| u8::from_le_bytes(b).into()),
        2 => get_le(buf, n, |b| u16::from_le_bytes(b).into()),
        4 => get_le(buf, n, u32::from_le_bytes),
        w => Err(PrestoError::internal(format!(
            "page codec: bad u32 lane width {w}"
        ))),
    }
}

/// Append a double column: `u8 scale`, then the i64 lane of
/// [`decimal_lane`], or [`RAW_DOUBLES`] and the raw IEEE bits.
fn put_f64_lane(buf: &mut Vec<u8>, values: &[f64]) {
    match decimal_lane(values) {
        Some((scale, lane)) => {
            buf.put_u8(scale);
            put_i64_lane(buf, &lane);
        }
        None => {
            buf.put_u8(RAW_DOUBLES);
            put_le(buf, values, f64::to_le_bytes);
        }
    }
}

/// Read an `n`-value double column written by [`put_f64_lane`].
fn get_f64_lane(buf: &mut &[u8], n: usize) -> Result<Vec<f64>> {
    match read_u8(buf)? {
        RAW_DOUBLES => get_le(buf, n, f64::from_le_bytes),
        scale => {
            let &p = POW10.get(scale as usize).ok_or_else(|| {
                PrestoError::internal(format!("page codec: bad double scale {scale}"))
            })?;
            get_i64_lane(buf, n, |k| k as f64 / p)
        }
    }
}

/// The smallest scale `e` at which every value is `k / 10^e` bit for bit,
/// with those `k`; `None` when no scale in [`POW10`] holds for all. A value
/// that fails scale `e` moves the search straight to the first scale that
/// value passes, so a decimal column costs one pass.
fn decimal_lane(values: &[f64]) -> Option<(u8, Vec<i64>)> {
    let mut lane = Vec::with_capacity(values.len());
    let mut e = 0;
    'scales: loop {
        lane.clear();
        for &v in values {
            match scaled(v, POW10[e]) {
                Some(k) => lane.push(k),
                None => {
                    e = (e + 1..POW10.len()).find(|&s| scaled(v, POW10[s]).is_some())?;
                    continue 'scales;
                }
            }
        }
        return Some((e as u8, lane));
    }
}

/// `v` as `k` with `k / p` giving back `v`'s exact bits, the expression
/// [`get_f64_lane`] decodes with.
#[inline]
fn scaled(v: f64, p: f64) -> Option<i64> {
    let k = (v * p).round() as i64;
    ((k as f64 / p).to_bits() == v.to_bits()).then_some(k)
}

/// Pack `bits` eight to a byte, least significant bit first.
fn put_bits(buf: &mut Vec<u8>, bits: &[bool]) {
    buf.extend(bits.chunks(8).map(|byte| {
        byte.iter()
            .rev()
            .fold(0u8, |packed, &bit| (packed << 1) | bit as u8)
    }));
}

/// Unpack `n` bits written by [`put_bits`].
fn get_bits(buf: &mut &[u8], n: usize) -> Result<Vec<bool>> {
    let bytes = take_bytes(buf, n.div_ceil(8))?;
    let mut bits = vec![false; n];
    for (out, &byte) in bits.chunks_mut(8).zip(bytes) {
        for (i, bit) in out.iter_mut().enumerate() {
            *bit = byte & (1 << i) != 0;
        }
    }
    Ok(bits)
}

/// Append the `W`-byte little-endian encodings of `values` in one resize.
fn put_le<T: Copy, const W: usize>(buf: &mut Vec<u8>, values: &[T], to_le: impl Fn(T) -> [u8; W]) {
    let start = buf.len();
    buf.resize(start + W * values.len(), 0);
    for (out, &v) in buf[start..].chunks_exact_mut(W).zip(values) {
        out.copy_from_slice(&to_le(v));
    }
}

/// Read `n` `W`-byte little-endian values: all of them, or a truncation
/// error when fewer remain. `from_le` inlines into the loop, which then
/// runs at copy speed.
fn get_le<T, const W: usize>(
    buf: &mut &[u8],
    n: usize,
    from_le: impl Fn([u8; W]) -> T,
) -> Result<Vec<T>> {
    let bytes = take_bytes(buf, n.checked_mul(W).ok_or_else(truncated)?)?;
    Ok(bytes
        .chunks_exact(W)
        .map(|c| from_le(c.try_into().expect("chunks are W bytes")))
        .collect())
}

/// The next `n` bytes of `buf`, or a truncation error when fewer remain.
fn take_bytes<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if n > buf.len() {
        return Err(truncated());
    }
    let (bytes, rest) = buf.split_at(n);
    *buf = rest;
    Ok(bytes)
}

fn truncated() -> PrestoError {
    PrestoError::internal("page codec: truncated input")
}

fn read_u8(buf: &mut &[u8]) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(truncated());
    }
    Ok(buf.get_u8())
}

fn read_u32(buf: &mut &[u8]) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(truncated());
    }
    Ok(buf.get_u32_le())
}

fn read_i64(buf: &mut &[u8]) -> Result<i64> {
    if buf.remaining() < 8 {
        return Err(truncated());
    }
    Ok(buf.get_i64_le())
}

/// A block's row count, bounded by [`MAX_BLOCK_ROWS`].
fn read_len(buf: &mut &[u8]) -> Result<usize> {
    let len = read_u32(buf)? as usize;
    if len > MAX_BLOCK_ROWS {
        return Err(PrestoError::internal(format!(
            "page codec: block of {len} rows exceeds {MAX_BLOCK_ROWS}"
        )));
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::{DataType, Schema, Value};

    fn round_trip(page: &Page) -> Page {
        deserialize_page(&serialize_page(page)).expect("round trip")
    }

    #[test]
    fn flat_page_round_trip() {
        let schema = Schema::of(&[
            ("a", DataType::Bigint),
            ("b", DataType::Double),
            ("c", DataType::Varchar),
            ("d", DataType::Boolean),
        ]);
        let rows = vec![
            vec![
                Value::Bigint(1),
                Value::Double(1.5),
                Value::varchar("x"),
                Value::Boolean(true),
            ],
            vec![Value::Null, Value::Null, Value::Null, Value::Null],
            vec![
                Value::Bigint(-7),
                Value::Double(f64::MIN),
                Value::varchar(""),
                Value::Boolean(false),
            ],
        ];
        let page = Page::from_rows(&schema, &rows);
        assert_eq!(round_trip(&page).to_rows(&schema), rows);
    }

    #[test]
    fn structured_encodings_survive() {
        let dict = Arc::new(Block::from(VarcharBlock::from_strs(&["F", "O"])));
        let page = Page::new(vec![
            Block::Dictionary(DictionaryBlock::new(dict, vec![0, 1, 0])),
            Block::rle(Block::from(LongBlock::from_values(vec![9])), 3),
        ]);
        let decoded = round_trip(&page);
        assert!(matches!(decoded.block(0), Block::Dictionary(_)));
        assert!(matches!(decoded.block(1), Block::Rle(_)));
        assert_eq!(decoded.block(0).str_at(2), "F");
        assert_eq!(decoded.block(1).i64_at(1), 9);
    }

    #[test]
    fn zero_column_page() {
        let page = Page::zero_column(42);
        assert_eq!(round_trip(&page).row_count(), 42);
    }

    #[test]
    fn corrupt_input_is_an_error_not_a_panic() {
        assert!(deserialize_page(&[]).is_err());
        assert!(deserialize_page(&[1, 0, 0, 0]).is_err());
        let good = serialize_page(&Page::new(vec![Block::from(LongBlock::from_values(vec![
            1, 2,
        ]))]));
        let mut bad = good.to_vec();
        bad.truncate(bad.len() - 3);
        assert!(deserialize_page(&bad).is_err());
    }

    /// A varchar block body: `rows`, no null mask, `offsets` in a 4-byte
    /// lane, `bytes`.
    fn varchar_block(rows: u32, offsets: &[u32], bytes: &[u8]) -> Vec<u8> {
        let mut buf = vec![TAG_VARCHAR];
        buf.put_u32_le(rows);
        buf.put_u8(0);
        buf.put_u8(4);
        for &o in offsets {
            buf.put_u32_le(o);
        }
        buf.put_u32_le(bytes.len() as u32);
        buf.put_slice(bytes);
        buf
    }

    /// A block body of `tag`: `rows`, no null mask, then `lane`.
    fn lane_block(tag: u8, rows: u32, lane: &[u8]) -> Vec<u8> {
        let mut buf = vec![tag];
        buf.put_u32_le(rows);
        buf.put_u8(0);
        buf.put_slice(lane);
        buf
    }

    /// An i64 lane header: `width`, then `base`.
    fn i64_lane(width: u8, base: i64) -> Vec<u8> {
        let mut lane = vec![width];
        lane.put_i64_le(base);
        lane
    }

    #[test]
    fn crafted_blocks_are_errors_not_undefined_behaviour() {
        let e_acute = "é".as_bytes();
        assert!(deserialize_block(&varchar_block(2, &[0, 2, 2], e_acute)).is_ok());
        // Offsets that split "é" would hand half a character to
        // `from_utf8_unchecked`.
        assert!(deserialize_block(&varchar_block(2, &[0, 1, 2], e_acute)).is_err());
        // An offset past the bytes would panic on first access.
        assert!(deserialize_block(&varchar_block(2, &[0, 9, 2], e_acute)).is_err());
        assert!(deserialize_block(&varchar_block(1, &[0, 9], e_acute)).is_err());
        // Offsets that do not start at 0 or end at the byte length.
        assert!(deserialize_block(&varchar_block(1, &[1, 2], e_acute)).is_err());
        assert!(deserialize_block(&varchar_block(1, &[0, 0], e_acute)).is_err());
        // A null mask longer than its block.
        let mut long = vec![TAG_LONG];
        long.put_u32_le(1);
        long.put_u8(1);
        long.put_u32_le(9);
        long.put_slice(&[0, 0]);
        long.put_slice(&i64_lane(0, 7));
        assert!(deserialize_block(&long).is_err());

        // Lanes: a well-formed one first, then each field broken.
        let mut two = i64_lane(1, -3);
        two.put_slice(&[0, 5]);
        let ok = deserialize_block(&lane_block(TAG_LONG, 2, &two)).expect("well-formed lane");
        assert_eq!((ok.i64_at(0), ok.i64_at(1)), (-3, 2));
        // An unknown width, in an i64 lane and in a u32 lane.
        for width in [3u8, 5, 9, 0xFF] {
            let mut bad = i64_lane(width, 0);
            bad.put_slice(&[0; 32]);
            assert!(deserialize_block(&lane_block(TAG_LONG, 2, &bad)).is_err());
        }
        for width in [0u8, 3, 8] {
            let mut dict = vec![TAG_DICTIONARY];
            dict.put_u32_le(1);
            dict.put_slice(&[width, 0, 0, 0, 0, 0, 0, 0, 0]);
            dict.put_slice(&serialize_block(&Block::from(LongBlock::from_values(
                vec![1],
            ))));
            assert!(deserialize_block(&dict).is_err());
        }
        // An unknown double scale: 5 is past 10^4, and only 0xFF is raw.
        for scale in [5u8, 6, 0xFE] {
            let mut bad = vec![scale];
            bad.put_slice(&i64_lane(0, 1));
            assert!(deserialize_block(&lane_block(TAG_DOUBLE, 1, &bad)).is_err());
        }
        // Truncated lanes: a missing base, a short body, a short bitset.
        assert!(deserialize_block(&lane_block(TAG_LONG, 2, &[1, 0, 0])).is_err());
        let mut short = i64_lane(2, 0);
        short.put_slice(&[1, 0, 2]);
        assert!(deserialize_block(&lane_block(TAG_LONG, 2, &short)).is_err());
        assert!(deserialize_block(&lane_block(TAG_BOOL, 9, &[0xFF])).is_err());
        let mut raw = vec![RAW_DOUBLES];
        raw.put_slice(&[0; 15]);
        assert!(deserialize_block(&lane_block(TAG_DOUBLE, 2, &raw)).is_err());
        // A width-0 lane claiming more rows than any block may hold.
        let huge = lane_block(TAG_LONG, MAX_BLOCK_ROWS as u32 + 1, &i64_lane(0, 0));
        assert!(deserialize_block(&huge).is_err());
        // A dictionary id past its dictionary, in a 1-byte lane.
        let dictionary = serialize_block(&Block::from(LongBlock::from_values(vec![1, 2])));
        for id in [1u8, 2] {
            let mut dict = vec![TAG_DICTIONARY];
            dict.put_u32_le(1);
            dict.put_slice(&[1, id]);
            dict.put_slice(&dictionary);
            assert_eq!(deserialize_block(&dict).is_ok(), id < 2, "id {id}");
        }
    }

    #[test]
    fn lanes_take_the_narrowest_width() {
        let body = |block: Block| serialize_block(&block).len();
        // tag, rows, null flag, then the lane.
        let head = 1 + 4 + 1;
        let longs = |values: Vec<i64>| body(Block::from(LongBlock::from_values(values)));
        assert_eq!(longs(vec![i64::MIN; 100]), head + 9);
        assert_eq!(longs((1000..1100).collect()), head + 9 + 100);
        assert_eq!(longs((-200..300).collect()), head + 9 + 2 * 500);
        assert_eq!(longs(vec![i64::MIN, i64::MAX]), head + 1 + 16);
        let doubles = |values: Vec<f64>| body(Block::from(DoubleBlock::new(values, None)));
        // Cents at scale 2 make one-byte deltas; a third decimal needs 10^3.
        assert_eq!(doubles(vec![0.07, 1.5, 0.99]), head + 1 + 9 + 3);
        assert_eq!(doubles(vec![0.07, 0.001]), head + 1 + 9 + 2);
        assert_eq!(doubles(vec![0.5, -0.0]), head + 1 + 16);
        assert_eq!(doubles(vec![1e300, 2.5]), head + 1 + 16);
        let bools = body(Block::from(BoolBlock::new(vec![true; 17], None)));
        assert_eq!(bools, head + 3);
        let dict = Arc::new(Block::from(LongBlock::from_values((0..300).collect())));
        let ids = body(Block::Dictionary(DictionaryBlock::new(dict, vec![299; 10])));
        assert_eq!(ids, 1 + 4 + 1 + 2 * 10 + head + 9 + 2 * 300);
    }

    #[test]
    fn bool_lanes_and_null_masks_round_trip() {
        for rows in [0usize, 1, 7, 8, 9, 64, 1000] {
            let values: Vec<bool> = (0..rows).map(|i| i % 3 == 1).collect();
            let nulls: Vec<bool> = (0..rows).map(|i| i % 5 == 2).collect();
            let block = Block::from(BoolBlock::new(values, Some(nulls)));
            let decoded = deserialize_block(&serialize_block(&block)).expect("round trip");
            for i in 0..rows {
                assert_eq!(decoded.is_null(i), block.is_null(i), "row {i} of {rows}");
                if !block.is_null(i) {
                    assert_eq!(decoded.bool_at(i), block.bool_at(i), "row {i} of {rows}");
                }
            }
        }
    }

    #[test]
    fn large_null_mask_round_trip() {
        let values: Vec<Value> = (0..1000)
            .map(|i| {
                if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::Bigint(i)
                }
            })
            .collect();
        let schema = Schema::of(&[("x", DataType::Bigint)]);
        let page = Page::from_rows(
            &schema,
            &values.iter().map(|v| vec![v.clone()]).collect::<Vec<_>>(),
        );
        assert_eq!(round_trip(&page).to_rows(&schema), page.to_rows(&schema));
    }
}
