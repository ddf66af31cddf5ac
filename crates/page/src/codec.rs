//! Page wire format.
//!
//! Pages are serialized when they cross task boundaries (shuffles) and when
//! revocable state spills to disk. The format preserves RLE and dictionary
//! structure so that the receiving side can keep operating on compressed
//! data — the paper's shuffle ships pages, not decoded rows. Lazy blocks are
//! forced before encoding (data leaving a task is, by definition, accessed).
//!
//! Layout (little-endian): `u32 column_count`, `u32 row_count`, then each
//! block: `u8 tag` followed by a tag-specific body. Null masks are encoded
//! as a presence byte plus a packed bitset.

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
            let mut byte = 0u8;
            for (i, &null) in mask.iter().enumerate() {
                if null {
                    byte |= 1 << (i % 8);
                }
                if i % 8 == 7 {
                    buf.put_u8(byte);
                    byte = 0;
                }
            }
            if mask.len() % 8 != 0 {
                buf.put_u8(byte);
            }
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
            let bits = take_bytes(buf, len.div_ceil(8))?;
            let mut mask = vec![false; len];
            for (nulls, &byte) in mask.chunks_mut(8).zip(bits) {
                for (bit, null) in nulls.iter_mut().enumerate() {
                    *null = byte & (1 << bit) != 0;
                }
            }
            Ok(Some(mask))
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
            put_le(buf, &b.values, i64::to_le_bytes);
        }
        Block::Double(b) => {
            buf.put_u8(TAG_DOUBLE);
            buf.put_u32_le(b.len() as u32);
            encode_null_mask(&b.nulls, buf);
            put_le(buf, &b.values, f64::to_le_bytes);
        }
        Block::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u32_le(b.len() as u32);
            encode_null_mask(&b.nulls, buf);
            for &v in &b.values {
                buf.put_u8(v as u8);
            }
        }
        Block::Varchar(b) => {
            buf.put_u8(TAG_VARCHAR);
            buf.put_u32_le(b.len() as u32);
            encode_null_mask(&b.nulls, buf);
            put_le(buf, &b.offsets, u32::to_le_bytes);
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
            put_le(buf, &b.ids, u32::to_le_bytes);
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
            let len = read_u32(buf)? as usize;
            let nulls = decode_null_mask(buf, len)?;
            let values = get_le(buf, len, i64::from_le_bytes)?;
            Ok(Block::Long(LongBlock::new(values, nulls)))
        }
        TAG_DOUBLE => {
            let len = read_u32(buf)? as usize;
            let nulls = decode_null_mask(buf, len)?;
            let values = get_le(buf, len, f64::from_le_bytes)?;
            Ok(Block::Double(DoubleBlock::new(values, nulls)))
        }
        TAG_BOOL => {
            let len = read_u32(buf)? as usize;
            let nulls = decode_null_mask(buf, len)?;
            let values = take_bytes(buf, len)?.iter().map(|&b| b != 0).collect();
            Ok(Block::Bool(BoolBlock::new(values, nulls)))
        }
        TAG_VARCHAR => {
            let len = read_u32(buf)? as usize;
            let nulls = decode_null_mask(buf, len)?;
            let offsets = get_le(buf, len + 1, u32::from_le_bytes)?;
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
            let len = read_u32(buf)? as usize;
            let ids = get_le(buf, len, u32::from_le_bytes)?;
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

    /// A varchar block body: `rows`, no null mask, `offsets`, `bytes`.
    fn varchar_block(rows: u32, offsets: &[u32], bytes: &[u8]) -> Vec<u8> {
        let mut buf = vec![TAG_VARCHAR];
        buf.put_u32_le(rows);
        buf.put_u8(0);
        for &o in offsets {
            buf.put_u32_le(o);
        }
        buf.put_u32_le(bytes.len() as u32);
        buf.put_slice(bytes);
        buf
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
        long.put_i64_le(7);
        assert!(deserialize_block(&long).is_err());
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
