//! Framed wire format for pages crossing worker boundaries.
//!
//! The raw page codec ([`crate::codec`]) is deliberately trusting: it is
//! also used for PORC stripes where the bytes come from local disk. Shuffle
//! traffic between workers models a network hop (§IV-E2), so pages on the
//! wire get a small frame around the serialized payload (spill runs reuse
//! it for its checksum):
//!
//! ```text
//! u8  flags              bit 0: payload is LZ-compressed
//! u32 uncompressed_len   payload length before compression
//! u32 wire_len           length of the body that follows the checksum
//! u64 checksum           XXH64 of the body bytes
//! [wire_len bytes]       body: raw or compressed payload
//! ```
//!
//! The checksum covers the body as it travels, so a receiver can validate a
//! frame *without* decompressing or decoding it — a corrupted frame is
//! detected cheaply and surfaces as a retryable error (the producer retains
//! the page until the token acknowledges it, so a re-fetch can succeed).
//!
//! The payload is already compact: the codec writes every column in lanes
//! sized to its data (§V-E), so a frame normally costs one pass that writes
//! the lanes and one that checksums them. A byte-level LZ stage is opt-in:
//! an in-crate, dependency-free LZ77 variant using the LZ4 block layout
//! (token / extended lengths / little-endian u16 offsets, minimum match 4),
//! applied only at or above a caller-chosen threshold (`usize::MAX`, the
//! shuffle's and spill's default, turns it off) and kept only when it
//! actually shrinks the payload.

use bytes::{Buf, Bytes};
use presto_common::{PrestoError, Result};

use crate::codec::{deserialize_page, encode_page};
use crate::page::Page;

const FLAG_COMPRESSED: u8 = 1;
/// flags + uncompressed_len + wire_len + checksum.
pub const FRAME_HEADER_BYTES: usize = 1 + 4 + 4 + 8;

/// Decoded frame header, for telemetry and cheap validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    pub compressed: bool,
    /// Payload length before compression (the logical serialized size).
    pub uncompressed_len: usize,
    /// Body length on the wire (after compression, without the header).
    pub wire_len: usize,
    pub checksum: u64,
}

/// Serialize a page and frame it, compressing when the payload is at least
/// `compression_min_bytes` long and compression actually helps. Pass
/// `usize::MAX` to disable compression.
///
/// The page is serialized straight after a reserved header and the
/// compressor writes straight after another, so no body is copied between
/// buffers: the raw frame is the serialization buffer itself.
pub fn frame_page(page: &Page, compression_min_bytes: usize) -> Bytes {
    Bytes::from(framed(page, compression_min_bytes))
}

/// [`frame_page`]'s buffer. Its capacity is its length: a retained frame
/// holds only the bytes the shuffle's buffer accounting charges for it.
fn framed(page: &Page, compression_min_bytes: usize) -> Vec<u8> {
    let mut raw = Vec::with_capacity(FRAME_HEADER_BYTES + page.size_in_bytes() + 64);
    raw.resize(FRAME_HEADER_BYTES, 0);
    encode_page(page, &mut raw);
    let payload_len = raw.len() - FRAME_HEADER_BYTES;
    if payload_len >= compression_min_bytes {
        let mut packed = Vec::with_capacity(FRAME_HEADER_BYTES + payload_len / 2 + 16);
        packed.resize(FRAME_HEADER_BYTES, 0);
        lz_compress(&raw[FRAME_HEADER_BYTES..], &mut packed);
        if packed.len() < raw.len() {
            return seal(packed, FLAG_COMPRESSED, payload_len);
        }
    }
    seal(raw, 0, payload_len)
}

/// The payload length before compression that a frame's header declares,
/// unvalidated: telemetry on frames [`frame_page`] just built.
pub fn framed_payload_len(frame: &[u8]) -> usize {
    read_u32(&frame[1..]) as usize
}

/// Fill the reserved header of `frame` for the body that follows it, and
/// give back the capacity past its end (the reservation is sized for the
/// page in memory, which lanes often shrink to a fraction).
fn seal(mut frame: Vec<u8>, flags: u8, uncompressed_len: usize) -> Vec<u8> {
    frame.shrink_to_fit();
    let (header, body) = frame.split_at_mut(FRAME_HEADER_BYTES);
    header[0] = flags;
    header[1..5].copy_from_slice(&(uncompressed_len as u32).to_le_bytes());
    header[5..9].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[9..].copy_from_slice(&xxh64(body, 0).to_le_bytes());
    frame
}

/// Parse and checksum-validate a frame header without decompressing.
pub fn frame_info(bytes: &[u8]) -> Result<FrameInfo> {
    let mut buf = bytes;
    if buf.remaining() < FRAME_HEADER_BYTES {
        return Err(corrupt("truncated frame header"));
    }
    let flags = buf.get_u8();
    if flags & !FLAG_COMPRESSED != 0 {
        return Err(corrupt(format!("unknown frame flags {flags:#x}")));
    }
    let uncompressed_len = buf.get_u32_le() as usize;
    let wire_len = buf.get_u32_le() as usize;
    let checksum = buf.get_u64_le();
    if buf.remaining() != wire_len {
        return Err(corrupt(format!(
            "frame body length mismatch: header says {wire_len}, got {}",
            buf.remaining()
        )));
    }
    if xxh64(buf, 0) != checksum {
        return Err(corrupt("frame checksum mismatch"));
    }
    let compressed = flags & FLAG_COMPRESSED != 0;
    if !compressed && uncompressed_len != wire_len {
        return Err(corrupt("uncompressed frame length mismatch"));
    }
    Ok(FrameInfo {
        compressed,
        uncompressed_len,
        wire_len,
        checksum,
    })
}

/// Validate, unwrap, and decode a framed page. A raw body is decoded where
/// it lies; only a compressed one is inflated into a scratch buffer first.
pub fn decode_framed_page(bytes: &[u8]) -> Result<Page> {
    let info = frame_info(bytes)?;
    let body = &bytes[FRAME_HEADER_BYTES..];
    if !info.compressed {
        return deserialize_page(body);
    }
    let payload = lz_decompress(body, info.uncompressed_len)?;
    if payload.len() != info.uncompressed_len {
        return Err(corrupt(format!(
            "decompressed {} bytes, frame promised {}",
            payload.len(),
            info.uncompressed_len
        )));
    }
    deserialize_page(&payload)
}

fn corrupt(msg: impl Into<String>) -> PrestoError {
    // Frame corruption models a network-level fault: transient from the
    // engine's view, because the producer still retains the page (the token
    // has not acknowledged it) and a re-fetch may deliver it intact.
    PrestoError::transient(format!("page frame: {}", msg.into()))
}

// --- XXH64 ------------------------------------------------------------

const PRIME1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME5: u64 = 0x27D4_EB2F_1656_67C5;

// Always inlined: with `match_length` as a second caller, `xxh64` stopped
// inlining these and ran at a fifth of its speed.
#[inline(always)]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

#[inline(always)]
fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME2))
        .rotate_left(31)
        .wrapping_mul(PRIME1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val))
        .wrapping_mul(PRIME1)
        .wrapping_add(PRIME4)
}

/// The standard XXH64 hash (reference layout), used as the frame checksum.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut h: u64;
    let mut rest = data;
    if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME1).wrapping_add(PRIME2);
        let mut v2 = seed.wrapping_add(PRIME2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME1);
        while rest.len() >= 32 {
            v1 = round(v1, read_u64(&rest[0..]));
            v2 = round(v2, read_u64(&rest[8..]));
            v3 = round(v3, read_u64(&rest[16..]));
            v4 = round(v4, read_u64(&rest[24..]));
            rest = &rest[32..];
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME5);
    }
    h = h.wrapping_add(len as u64);
    while rest.len() >= 8 {
        h = (h ^ round(0, read_u64(rest)))
            .rotate_left(27)
            .wrapping_mul(PRIME1)
            .wrapping_add(PRIME4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h = (h ^ u64::from(read_u32(rest)).wrapping_mul(PRIME1))
            .rotate_left(23)
            .wrapping_mul(PRIME2)
            .wrapping_add(PRIME3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(PRIME5))
            .rotate_left(11)
            .wrapping_mul(PRIME1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME3);
    h ^= h >> 32;
    h
}

// --- LZ77 compressor (LZ4 block layout) -------------------------------

const MIN_MATCH: usize = 4;
/// Stop match search this far from the end (reference LZ4 margin: the last
/// sequence must be literal-only and matches may not reach the final bytes).
const END_MARGIN: usize = 12;
const HASH_LOG: usize = 13;
/// LZ4's miss acceleration: the search step grows by one byte after every
/// `2^SKIP_TRIGGER` consecutive misses, so incompressible stretches are
/// crossed in strides instead of probed at every byte.
const SKIP_TRIGGER: u32 = 6;

#[inline]
fn seq_hash(v: u32) -> usize {
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_LOG)) as usize
}

fn put_length(out: &mut Vec<u8>, mut len: usize) {
    while len >= 255 {
        out.push(255);
        len -= 255;
    }
    out.push(len as u8);
}

/// Greedy LZ4-block-style compression, appended to `out`. Always produces a
/// valid stream for [`lz_decompress`]; callers compare output length
/// against the input to decide whether to keep it.
pub fn lz_compress(src: &[u8], out: &mut Vec<u8>) {
    let n = src.len();
    if n < END_MARGIN + MIN_MATCH {
        // Too short to contain a legal match: one literal-only sequence.
        emit_sequence(out, src, 0, 0);
        return;
    }
    let mut table = vec![0u32; 1 << HASH_LOG]; // position + 1, 0 = empty
    let mut anchor = 0usize; // start of pending literals
    let mut i = 0usize;
    let mut attempts = 1usize << SKIP_TRIGGER;
    let search_end = n - END_MARGIN;
    while i < search_end {
        let cur = read_u32(&src[i..]);
        let slot = seq_hash(cur);
        let candidate = table[slot] as usize;
        table[slot] = (i + 1) as u32;
        let matched = candidate > 0
            && i - (candidate - 1) <= u16::MAX as usize
            && read_u32(&src[candidate - 1..]) == cur;
        if !matched {
            i += attempts >> SKIP_TRIGGER;
            attempts += 1;
            continue;
        }
        attempts = 1 << SKIP_TRIGGER;
        let m = candidate - 1;
        // Extend the match forward (the last 5 bytes stay literal).
        let len = match_length(src, m, i, n.saturating_sub(5) - i);
        emit_sequence(out, &src[anchor..i], i - m, len);
        i += len;
        anchor = i;
    }
    // Trailing literals.
    emit_sequence(out, &src[anchor..], 0, 0);
}

/// Length of the match at `i` against the earlier `m`, whose first
/// [`MIN_MATCH`] bytes are known equal, capped at `limit`: eight bytes per
/// compare, the first differing byte found from the XOR's trailing zeros.
#[inline]
fn match_length(src: &[u8], m: usize, i: usize, limit: usize) -> usize {
    let mut len = MIN_MATCH;
    while len + 8 <= limit {
        let diff = read_u64(&src[m + len..]) ^ read_u64(&src[i + len..]);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && src[m + len] == src[i + len] {
        len += 1;
    }
    len
}

/// Emit one sequence: literals, then (when `match_len > 0`) an offset and
/// match length. `match_len == 0` marks the final literal-only sequence.
fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], offset: usize, match_len: usize) {
    let lit_len = literals.len();
    let ml = if match_len > 0 {
        debug_assert!(match_len >= MIN_MATCH);
        match_len - MIN_MATCH
    } else {
        0
    };
    let token = ((lit_len.min(15) as u8) << 4) | (ml.min(15) as u8);
    out.push(token);
    if lit_len >= 15 {
        put_length(out, lit_len - 15);
    }
    out.extend_from_slice(literals);
    if match_len > 0 {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if ml >= 15 {
            put_length(out, ml - 15);
        }
    }
}

fn get_length(src: &[u8], pos: &mut usize, base: usize) -> Result<usize> {
    let mut len = base;
    if base == 15 {
        loop {
            let b = *src
                .get(*pos)
                .ok_or_else(|| corrupt("truncated length in compressed block"))?;
            *pos += 1;
            len += b as usize;
            if b != 255 {
                break;
            }
        }
    }
    Ok(len)
}

/// Decompress an [`lz_compress`] stream. All offsets and lengths are bounds
/// checked; malformed input is an error, never a panic or overread.
pub fn lz_decompress(src: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(expected_len);
    let mut pos = 0usize;
    loop {
        let token = *src
            .get(pos)
            .ok_or_else(|| corrupt("truncated compressed block"))?;
        pos += 1;
        let lit_len = get_length(src, &mut pos, (token >> 4) as usize)?;
        let lit_end = pos
            .checked_add(lit_len)
            .ok_or_else(|| corrupt("literal length overflow"))?;
        if lit_end > src.len() {
            return Err(corrupt("literal run past end of compressed block"));
        }
        out.extend_from_slice(&src[pos..lit_end]);
        pos = lit_end;
        if pos == src.len() {
            return Ok(out); // final literal-only sequence
        }
        if pos + 2 > src.len() {
            return Err(corrupt("truncated match offset"));
        }
        let offset = u16::from_le_bytes([src[pos], src[pos + 1]]) as usize;
        pos += 2;
        if offset == 0 || offset > out.len() {
            return Err(corrupt("match offset out of range"));
        }
        let match_len = get_length(src, &mut pos, (token & 0x0F) as usize)? + MIN_MATCH;
        if out.len() + match_len > expected_len {
            return Err(corrupt("match overruns expected length"));
        }
        // Overlapping matches (offset < len) are legal and repeat the last
        // `offset` bytes: copy what already exists in one slice, and the
        // window that can be copied doubles with every round.
        let start = out.len() - offset;
        let mut left = match_len;
        while left > 0 {
            let chunk = left.min(out.len() - start);
            out.extend_from_within(start..start + chunk);
            left -= chunk;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::blocks::LongBlock;
    use presto_common::{DataType, Schema, Value};

    #[test]
    fn xxh64_reference_vectors() {
        // Reference values from the xxHash spec/test suite.
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"abcdefghijklmnopqrstuvwxyz0123456789", 0),
            0x64F2_3ECF_1609_B766
        );
    }

    #[test]
    fn lz_round_trips_patterns() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            b"short".to_vec(),
            vec![0u8; 10_000],
            (0..10_000u32).map(|i| (i % 7) as u8).collect(),
            (0..5_000u32).flat_map(|i| i.to_le_bytes()).collect(),
            (0..255u8).cycle().take(70_000).collect(),
        ];
        for case in cases {
            let mut c = Vec::new();
            lz_compress(&case, &mut c);
            let d = lz_decompress(&c, case.len()).unwrap();
            assert_eq!(d, case);
        }
    }

    #[test]
    fn compressible_data_shrinks() {
        let data = vec![42u8; 64 << 10];
        let mut c = Vec::new();
        lz_compress(&data, &mut c);
        assert!(c.len() < data.len() / 20, "{} vs {}", c.len(), data.len());
    }

    #[test]
    fn frame_round_trip_compressed_and_raw() {
        let schema = Schema::of(&[("x", DataType::Bigint)]);
        let rows: Vec<Vec<Value>> = (0..2_000).map(|i| vec![Value::Bigint(i % 5)]).collect();
        let page = Page::from_rows(&schema, &rows);
        for threshold in [0usize, usize::MAX] {
            let framed = frame_page(&page, threshold);
            let info = frame_info(&framed).unwrap();
            assert_eq!(info.compressed, threshold == 0);
            let decoded = decode_framed_page(&framed).unwrap();
            assert_eq!(decoded.to_rows(&schema), rows);
        }
        // Compression actually pays on this page.
        assert!(frame_page(&page, 0).len() < frame_page(&page, usize::MAX).len());
    }

    #[test]
    fn a_frame_holds_only_the_bytes_it_is_charged_for() {
        // Narrow lanes encode this page far below its in-memory size.
        let page = Page::new(vec![Block::from(LongBlock::from_values(
            (0..4_000).map(|i| i % 100).collect::<Vec<i64>>(),
        ))]);
        for threshold in [0usize, usize::MAX] {
            let frame = framed(&page, threshold);
            assert!(frame.len() * 4 < page.size_in_bytes());
            assert_eq!(frame.capacity(), frame.len(), "threshold {threshold}");
        }
    }

    #[test]
    fn corrupted_frames_error_out() {
        let page = Page::new(vec![Block::from(LongBlock::from_values(
            (0..500).collect::<Vec<i64>>(),
        ))]);
        for threshold in [0usize, usize::MAX] {
            let good = frame_page(&page, threshold);
            // Flip one byte anywhere: header fields or body.
            for pos in [0, 3, 9, 13, FRAME_HEADER_BYTES + 5, good.len() - 1] {
                let mut bad = good.to_vec();
                bad[pos] ^= 0x40;
                let err = decode_framed_page(&bad).unwrap_err();
                assert!(err.is_retryable(), "corruption must be transient: {err}");
            }
            // Truncation too.
            assert!(decode_framed_page(&good[..good.len() - 2]).is_err());
            assert!(frame_info(&good[..FRAME_HEADER_BYTES - 1]).is_err());
        }
    }

    #[test]
    fn incompressible_payload_stays_raw() {
        // Pseudo-random values: compression cannot help, frame stays raw
        // even with a zero threshold.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let values: Vec<i64> = (0..512)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as i64
            })
            .collect();
        let page = Page::new(vec![Block::from(LongBlock::from_values(values.clone()))]);
        let framed = frame_page(&page, 0);
        let info = frame_info(&framed).unwrap();
        assert!(!info.compressed);
        let decoded = decode_framed_page(&framed).unwrap();
        assert_eq!(decoded.block(0).i64_at(511), values[511]);
    }
}
