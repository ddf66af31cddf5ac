//! On-disk metadata structures and footer codec.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use presto_common::{DataType, Field, PrestoError, Result, Schema, Value};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::bloom::BloomFilter;

/// Trailing magic bytes.
pub const PORC_MAGIC: &[u8; 4] = b"PORC";

/// Per-column, per-stripe metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnChunkMeta {
    /// Byte offset of this column's serialized block within the stripe body.
    pub offset: u32,
    /// Serialized length in bytes.
    pub length: u32,
    /// Minimum non-null value in the chunk (absent when all-null).
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
    /// Number of NULL cells.
    pub null_count: u32,
    /// Bloom filter over non-null value hashes; `None` for double columns
    /// (range stats serve them better).
    pub bloom: Option<BloomFilter>,
}

/// Per-stripe metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct StripeMeta {
    /// Byte offset of the stripe body within the file.
    pub offset: u64,
    /// Stripe body length in bytes.
    pub length: u64,
    pub row_count: u32,
    /// Parallel to the schema.
    pub columns: Vec<ColumnChunkMeta>,
}

/// File-level column statistics, fed to the optimizer via the connector
/// Metadata API.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileColumnStats {
    pub min: Option<Value>,
    pub max: Option<Value>,
    pub null_count: u64,
    /// Exact up to a cap, then a lower bound; good enough for CBO.
    pub distinct_count: u64,
}

/// Decoded file footer.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMeta {
    pub schema: Schema,
    pub stripes: Vec<StripeMeta>,
    pub row_count: u64,
    pub column_stats: Vec<FileColumnStats>,
}

fn value_weight(v: &Option<Value>) -> u64 {
    match v {
        Some(Value::Varchar(s)) => 24 + s.len() as u64,
        _ => 16,
    }
}

impl FileMeta {
    /// Rough retained-heap size of the decoded footer, used as the entry
    /// weight by the footer cache. Dominated by per-stripe column chunks
    /// (each carries min/max values and an optional Bloom filter).
    pub fn approx_weight(&self) -> u64 {
        let schema: u64 = 48
            + self
                .schema
                .fields()
                .iter()
                .map(|f| 40 + f.name.len() as u64)
                .sum::<u64>();
        let stripes: u64 = self
            .stripes
            .iter()
            .map(|s| {
                48 + s
                    .columns
                    .iter()
                    .map(|c| {
                        48 + value_weight(&c.min)
                            + value_weight(&c.max)
                            + c.bloom
                                .as_ref()
                                .map_or(0, |_| BloomFilter::ENCODED_LEN as u64)
                    })
                    .sum::<u64>()
            })
            .sum();
        let file_cols: u64 = self
            .column_stats
            .iter()
            .map(|c| 32 + value_weight(&c.min) + value_weight(&c.max))
            .sum();
        schema + stripes + file_cols
    }
}

/// Shared I/O counters: the instrumentation behind the §V-D lazy-loading
/// experiment ("lazy loading reduces data fetched by 78%, cells loaded by
/// 22% and total CPU time by 14%").
#[derive(Debug, Default)]
pub struct IoStats {
    /// Bytes actually fetched from storage.
    pub bytes_read: AtomicU64,
    /// Cells decoded into blocks.
    pub cells_loaded: AtomicU64,
    /// Stripes skipped via min/max or Bloom statistics.
    pub stripes_pruned: AtomicU64,
    /// Stripes read (at least one column fetched).
    pub stripes_read: AtomicU64,
    /// Footers fetched from storage and decoded. A footer cache turns
    /// repeat opens of the same immutable file into zero footer reads.
    pub footer_reads: AtomicU64,
}

impl IoStats {
    pub fn new() -> IoStats {
        IoStats::default()
    }

    pub fn add_bytes(&self, n: u64) {
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_footer_read(&self) {
        self.footer_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub fn footer_reads(&self) -> u64 {
        self.footer_reads.load(Ordering::Relaxed)
    }

    pub fn add_cells(&self, n: u64) {
        self.cells_loaded.fetch_add(n, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.bytes_read.load(Ordering::Relaxed),
            self.cells_loaded.load(Ordering::Relaxed),
            self.stripes_pruned.load(Ordering::Relaxed),
            self.stripes_read.load(Ordering::Relaxed),
        )
    }
}

// ---- value / footer codec ----

pub(crate) fn encode_value(v: &Option<Value>, buf: &mut BytesMut) {
    match v {
        None | Some(Value::Null) => buf.put_u8(0),
        Some(Value::Boolean(b)) => {
            buf.put_u8(1);
            buf.put_u8(*b as u8);
        }
        Some(Value::Bigint(x)) => {
            buf.put_u8(2);
            buf.put_i64_le(*x);
        }
        Some(Value::Double(x)) => {
            buf.put_u8(3);
            buf.put_f64_le(*x);
        }
        Some(Value::Varchar(s)) => {
            buf.put_u8(4);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Some(Value::Date(x)) => {
            buf.put_u8(5);
            buf.put_i64_le(*x);
        }
        Some(Value::Timestamp(x)) => {
            buf.put_u8(6);
            buf.put_i64_le(*x);
        }
    }
}

pub(crate) fn decode_value(buf: &mut &[u8]) -> Result<Option<Value>> {
    let corrupt = || PrestoError::external("porc: corrupt footer");
    if buf.remaining() < 1 {
        return Err(corrupt());
    }
    Ok(match buf.get_u8() {
        0 => None,
        1 => {
            if buf.remaining() < 1 {
                return Err(corrupt());
            }
            Some(Value::Boolean(buf.get_u8() != 0))
        }
        tag @ (2 | 5 | 6) => {
            if buf.remaining() < 8 {
                return Err(corrupt());
            }
            let v = buf.get_i64_le();
            Some(match tag {
                2 => Value::Bigint(v),
                5 => Value::Date(v),
                _ => Value::Timestamp(v),
            })
        }
        3 => {
            if buf.remaining() < 8 {
                return Err(corrupt());
            }
            Some(Value::Double(f64::from_bits(buf.get_u64_le())))
        }
        4 => {
            if buf.remaining() < 4 {
                return Err(corrupt());
            }
            let len = buf.get_u32_le() as usize;
            if buf.remaining() < len {
                return Err(corrupt());
            }
            let s = std::str::from_utf8(&buf[..len])
                .map_err(|_| corrupt())?
                .to_string();
            buf.advance(len);
            Some(Value::varchar(s))
        }
        t => return Err(PrestoError::external(format!("porc: bad value tag {t}"))),
    })
}

/// Encode the footer, returning its bytes (caller appends length + magic).
pub fn encode_footer(meta: &FileMeta) -> Bytes {
    let mut buf = BytesMut::new();
    // schema
    buf.put_u32_le(meta.schema.len() as u32);
    for f in meta.schema.fields() {
        buf.put_u32_le(f.name.len() as u32);
        buf.put_slice(f.name.as_bytes());
        buf.put_u8(type_tag(f.data_type));
    }
    buf.put_u64_le(meta.row_count);
    // file column stats
    for cs in &meta.column_stats {
        encode_value(&cs.min, &mut buf);
        encode_value(&cs.max, &mut buf);
        buf.put_u64_le(cs.null_count);
        buf.put_u64_le(cs.distinct_count);
    }
    // stripes
    buf.put_u32_le(meta.stripes.len() as u32);
    for s in &meta.stripes {
        buf.put_u64_le(s.offset);
        buf.put_u64_le(s.length);
        buf.put_u32_le(s.row_count);
        for c in &s.columns {
            buf.put_u32_le(c.offset);
            buf.put_u32_le(c.length);
            encode_value(&c.min, &mut buf);
            encode_value(&c.max, &mut buf);
            buf.put_u32_le(c.null_count);
            match &c.bloom {
                Some(b) => {
                    buf.put_u8(1);
                    b.encode(&mut buf);
                }
                None => buf.put_u8(0),
            }
        }
    }
    buf.freeze()
}

pub(crate) fn decode_footer(mut buf: &[u8]) -> Result<FileMeta> {
    let corrupt = || PrestoError::external("porc: corrupt footer");
    if buf.remaining() < 4 {
        return Err(corrupt());
    }
    let ncols = buf.get_u32_le() as usize;
    let mut fields = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        if buf.remaining() < 4 {
            return Err(corrupt());
        }
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len + 1 {
            return Err(corrupt());
        }
        let name = std::str::from_utf8(&buf[..len])
            .map_err(|_| corrupt())?
            .to_string();
        buf.advance(len);
        let dt = type_from_tag(buf.get_u8())?;
        fields.push(Field::new(name, dt));
    }
    let schema = Schema::new(fields);
    if buf.remaining() < 8 {
        return Err(corrupt());
    }
    let row_count = buf.get_u64_le();
    let mut column_stats = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let min = decode_tagged_value(&mut buf)?;
        let max = decode_tagged_value(&mut buf)?;
        if buf.remaining() < 16 {
            return Err(corrupt());
        }
        let null_count = buf.get_u64_le();
        let distinct_count = buf.get_u64_le();
        column_stats.push(FileColumnStats {
            min,
            max,
            null_count,
            distinct_count,
        });
    }
    if buf.remaining() < 4 {
        return Err(corrupt());
    }
    let nstripes = buf.get_u32_le() as usize;
    let mut stripes = Vec::with_capacity(nstripes);
    for _ in 0..nstripes {
        if buf.remaining() < 20 {
            return Err(corrupt());
        }
        let offset = buf.get_u64_le();
        let length = buf.get_u64_le();
        let rows = buf.get_u32_le();
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            if buf.remaining() < 8 {
                return Err(corrupt());
            }
            let coff = buf.get_u32_le();
            let clen = buf.get_u32_le();
            let min = decode_tagged_value(&mut buf)?;
            let max = decode_tagged_value(&mut buf)?;
            if buf.remaining() < 5 {
                return Err(corrupt());
            }
            let null_count = buf.get_u32_le();
            let bloom = match buf.get_u8() {
                0 => None,
                1 => {
                    if buf.remaining() < BloomFilter::ENCODED_LEN {
                        return Err(corrupt());
                    }
                    Some(BloomFilter::decode(&mut buf))
                }
                _ => return Err(corrupt()),
            };
            columns.push(ColumnChunkMeta {
                offset: coff,
                length: clen,
                min,
                max,
                null_count,
                bloom,
            });
        }
        stripes.push(StripeMeta {
            offset,
            length,
            row_count: rows,
            columns,
        });
    }
    Ok(FileMeta {
        schema,
        stripes,
        row_count,
        column_stats,
    })
}

/// Alias kept for readability at call sites.
fn decode_tagged_value(buf: &mut &[u8]) -> Result<Option<Value>> {
    decode_value(buf)
}

fn type_tag(t: DataType) -> u8 {
    match t {
        DataType::Boolean => 0,
        DataType::Bigint => 1,
        DataType::Double => 2,
        DataType::Varchar => 3,
        DataType::Date => 4,
        DataType::Timestamp => 5,
    }
}

fn type_from_tag(t: u8) -> Result<DataType> {
    Ok(match t {
        0 => DataType::Boolean,
        1 => DataType::Bigint,
        2 => DataType::Double,
        3 => DataType::Varchar,
        4 => DataType::Date,
        5 => DataType::Timestamp,
        _ => return Err(PrestoError::external(format!("porc: bad type tag {t}"))),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn footer_round_trip() {
        let schema = Schema::of(&[("k", DataType::Bigint), ("s", DataType::Varchar)]);
        let mut bloom = BloomFilter::new();
        bloom.insert(123);
        let meta = FileMeta {
            schema: schema.clone(),
            row_count: 100,
            column_stats: vec![
                FileColumnStats {
                    min: Some(Value::Bigint(0)),
                    max: Some(Value::Bigint(99)),
                    null_count: 3,
                    distinct_count: 97,
                },
                FileColumnStats {
                    min: Some(Value::varchar("a")),
                    max: Some(Value::varchar("z")),
                    null_count: 0,
                    distinct_count: 26,
                },
            ],
            stripes: vec![StripeMeta {
                offset: 0,
                length: 512,
                row_count: 100,
                columns: vec![
                    ColumnChunkMeta {
                        offset: 0,
                        length: 256,
                        min: Some(Value::Bigint(0)),
                        max: Some(Value::Bigint(99)),
                        null_count: 3,
                        bloom: Some(bloom),
                    },
                    ColumnChunkMeta {
                        offset: 256,
                        length: 256,
                        min: None,
                        max: None,
                        null_count: 100,
                        bloom: None,
                    },
                ],
            }],
        };
        let encoded = encode_footer(&meta);
        let decoded = decode_footer(&encoded).unwrap();
        assert_eq!(decoded, meta);
    }

    #[test]
    fn corrupt_footer_is_external_error() {
        let err = decode_footer(&[1, 2, 3]).unwrap_err();
        assert!(matches!(
            err.code,
            presto_common::ErrorCode::External { .. }
        ));
    }

    #[test]
    fn value_codec_all_types() {
        for v in [
            None,
            Some(Value::Boolean(true)),
            Some(Value::Bigint(-5)),
            Some(Value::Double(1.5)),
            Some(Value::varchar("hi")),
            Some(Value::Date(100)),
            Some(Value::Timestamp(1_000_000)),
        ] {
            let mut buf = BytesMut::new();
            encode_value(&v, &mut buf);
            let bytes = buf.freeze();
            let mut slice: &[u8] = &bytes;
            assert_eq!(decode_tagged_value(&mut slice).unwrap(), v);
        }
    }

    #[test]
    fn io_stats_accumulate() {
        let s = IoStats::new();
        s.add_bytes(10);
        s.add_bytes(5);
        s.add_cells(7);
        let (b, c, _, _) = s.snapshot();
        assert_eq!((b, c), (15, 7));
    }
}
