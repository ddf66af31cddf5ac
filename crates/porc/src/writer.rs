//! PORC file writer.
//!
//! Appended pages are copied once into one [`BlockBuilder`] per column, and
//! a stripe is cut every `stripe_rows` rows. Each stripe column is encoded
//! in one pass over its flat lanes and null mask: the pass collects
//! min/max/null statistics, builds a Bloom filter, and chooses an encoding
//! (RLE for constant columns, dictionary when the distinct count is small
//! relative to the rows, plain otherwise) so that readers hand the engine
//! compressed blocks directly (§V-E). `Value`s are built once per chunk,
//! for the statistics only.

use bytes::BufMut;
use presto_common::{DataType, PrestoError, Result, Schema, Value};
use presto_page::blocks::{
    BoolBlock, DictionaryBlock, DoubleBlock, Lanes, LongBlock, NullMask, VarcharBlock,
};
use presto_page::hash::{hash_bytes, hash_f64, hash_i64};
use presto_page::{serialize_block, Block, BlockBuilder, Page};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use crate::bloom::BloomFilter;
use crate::format::{
    encode_footer, ColumnChunkMeta, FileColumnStats, FileMeta, StripeMeta, PORC_MAGIC,
};

/// Default rows per stripe.
const STRIPE_ROWS: usize = 8192;
/// Dictionary-encode a varchar chunk when `distinct * DICTIONARY_RATIO < rows`.
const DICTIONARY_RATIO: usize = 4;
/// Cap on exact NDV tracking per column (beyond it, NDV is a floor).
const NDV_CAP: usize = 100_000;

/// Writer knobs.
#[derive(Debug, Clone)]
pub struct WriterOptions {
    /// Rows per stripe; must be positive.
    pub stripe_rows: usize,
}

impl Default for WriterOptions {
    fn default() -> Self {
        WriterOptions {
            stripe_rows: STRIPE_ROWS,
        }
    }
}

/// Streaming PORC writer.
pub struct PorcWriter {
    schema: Schema,
    options: WriterOptions,
    out: std::io::BufWriter<std::fs::File>,
    position: u64,
    /// The open stripe: one builder per column, `buffered_rows` rows each.
    columns: Vec<BlockBuilder>,
    buffered_rows: usize,
    stripes: Vec<StripeMeta>,
    row_count: u64,
    file_stats: Vec<FileStatsAcc>,
}

#[derive(Default)]
struct FileStatsAcc {
    min: Option<Value>,
    max: Option<Value>,
    null_count: u64,
    /// Distinct non-NULL cells, exact up to [`NDV_CAP`]. Fixed-width lanes
    /// are keyed by bit pattern, as `Value` equality compares doubles;
    /// varchar cells by bytes.
    lanes: CellSet<u64>,
    strings: CellSet<Box<[u8]>>,
}

/// Hashes NDV and dictionary keys with the engine's cell hashes, which are
/// cheaper than SipHash and need no protection from adversarial keys here.
#[derive(Default)]
struct CellHasher(u64);

impl Hasher for CellHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        self.0 ^= hash_bytes(bytes);
    }
    fn write_u64(&mut self, v: u64) {
        self.0 ^= hash_i64(v as i64);
    }
    fn write_usize(&mut self, v: usize) {
        self.0 ^= hash_i64(v as i64).rotate_left(32);
    }
}

type CellSet<K> = HashSet<K, BuildHasherDefault<CellHasher>>;

impl FileStatsAcc {
    fn add_lane(&mut self, bits: u64) {
        if self.lanes.len() < NDV_CAP {
            self.lanes.insert(bits);
        }
    }

    fn add_string(&mut self, s: &[u8]) {
        if self.strings.len() < NDV_CAP && !self.strings.contains(s) {
            self.strings.insert(s.into());
        }
    }

    /// Fold one chunk's min, max and NULL count into the file's.
    fn merge(&mut self, chunk: &ColumnChunkMeta) {
        self.null_count += chunk.null_count as u64;
        if chunk.max.as_ref().is_some_and(|m| {
            self.max
                .as_ref()
                .is_none_or(|fm| m.sql_cmp(fm) == Some(Ordering::Greater))
        }) {
            self.max = chunk.max.clone();
        }
        if chunk.min.as_ref().is_some_and(|m| {
            self.min
                .as_ref()
                .is_none_or(|fm| m.sql_cmp(fm) == Some(Ordering::Less))
        }) {
            self.min = chunk.min.clone();
        }
    }
}

impl PorcWriter {
    /// Create a writer for `path`, truncating any existing file.
    pub fn create(
        path: impl AsRef<Path>,
        schema: Schema,
        options: WriterOptions,
    ) -> Result<PorcWriter> {
        if options.stripe_rows == 0 {
            return Err(PrestoError::user("porc: stripe_rows must be positive"));
        }
        let file = std::fs::File::create(path)?;
        let file_stats = (0..schema.len()).map(|_| FileStatsAcc::default()).collect();
        let columns = (0..schema.len())
            .map(|col| stripe_builder(schema.data_type(col), &options))
            .collect();
        Ok(PorcWriter {
            schema,
            options,
            out: std::io::BufWriter::new(file),
            position: 0,
            columns,
            buffered_rows: 0,
            stripes: Vec::new(),
            row_count: 0,
            file_stats,
        })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Append a page; flushes full stripes as they fill.
    pub fn append(&mut self, page: &Page) -> Result<()> {
        assert_eq!(
            page.column_count(),
            self.schema.len(),
            "page/schema column mismatch"
        );
        let rows = page.row_count();
        self.row_count += rows as u64;
        let mut start = 0;
        while start < rows {
            let take = (self.options.stripe_rows - self.buffered_rows).min(rows - start);
            let positions: Vec<u32> = (start as u32..(start + take) as u32).collect();
            for (builder, block) in self.columns.iter_mut().zip(page.blocks()) {
                builder.append_filtered(block, &positions);
            }
            self.buffered_rows += take;
            start += take;
            if self.buffered_rows == self.options.stripe_rows {
                self.flush_stripe()?;
            }
        }
        Ok(())
    }

    /// Flush remaining rows and write the footer. Must be called last.
    pub fn finish(mut self) -> Result<FileMeta> {
        if self.buffered_rows > 0 {
            self.flush_stripe()?;
        }
        let column_stats = self
            .file_stats
            .iter()
            .map(|s| FileColumnStats {
                min: s.min.clone(),
                max: s.max.clone(),
                null_count: s.null_count,
                distinct_count: (s.lanes.len() + s.strings.len()) as u64,
            })
            .collect();
        let meta = FileMeta {
            schema: self.schema.clone(),
            stripes: std::mem::take(&mut self.stripes),
            row_count: self.row_count,
            column_stats,
        };
        let footer = encode_footer(&meta);
        self.out.write_all(&footer)?;
        let mut tail = Vec::with_capacity(8);
        tail.put_u32_le(footer.len() as u32);
        tail.extend_from_slice(PORC_MAGIC);
        self.out.write_all(&tail)?;
        self.out.flush()?;
        Ok(meta)
    }

    /// Encode and write the open stripe, leaving empty builders behind.
    fn flush_stripe(&mut self) -> Result<()> {
        let rows = std::mem::take(&mut self.buffered_rows);
        let mut chunks: Vec<ColumnChunkMeta> = Vec::with_capacity(self.schema.len());
        let mut stripe_len = 0u64;
        for (col, builder) in self.columns.iter_mut().enumerate() {
            let dt = self.schema.data_type(col);
            let block = std::mem::replace(builder, stripe_builder(dt, &self.options)).finish();
            let (encoded, mut chunk) = encode_column(dt, block, &mut self.file_stats[col]);
            let bytes = serialize_block(&encoded);
            self.out.write_all(&bytes)?;
            chunk.offset = stripe_len as u32;
            chunk.length = bytes.len() as u32;
            stripe_len += bytes.len() as u64;
            chunks.push(chunk);
        }
        self.stripes.push(StripeMeta {
            offset: self.position,
            length: stripe_len,
            row_count: rows as u32,
            columns: chunks,
        });
        self.position += stripe_len;
        Ok(())
    }
}

/// An empty builder for one stripe column.
fn stripe_builder(dt: DataType, options: &WriterOptions) -> BlockBuilder {
    BlockBuilder::with_capacity(dt, options.stripe_rows.min(STRIPE_ROWS))
}

/// Choose an encoding and compute chunk statistics for one flat stripe
/// column, folding them into the file's. The chunk's offset and length are
/// left for the caller.
fn encode_column(dt: DataType, block: Block, file: &mut FileStatsAcc) -> (Block, ColumnChunkMeta) {
    let (encoded, chunk) = match block {
        Block::Long(b) => encode_lanes::<LongBlock>(dt, b.values, b.nulls, file),
        Block::Double(b) => encode_lanes::<DoubleBlock>(dt, b.values, b.nulls, file),
        Block::Bool(b) => encode_lanes::<BoolBlock>(dt, b.values, b.nulls, file),
        Block::Varchar(b) => encode_varchar(b, file),
        _ => unreachable!("a finished builder is flat"),
    };
    file.merge(&chunk);
    (encoded, chunk)
}

/// A fixed-width lane, as the encode loop sees it.
trait Lane: Copy + PartialOrd {
    /// The placeholder a [`BlockBuilder`] stores under a NULL; a plain chunk
    /// holds it in every NULL slot, whatever the input held there.
    const NULL: Self;
    /// Identity for NDV and RLE: `Value` equality compares these bits.
    fn bits(self) -> u64;
    /// The cell's hash, as the engine's hash kernels compute it.
    fn hash(self) -> u64;
    fn value(self, dt: DataType) -> Value;
}

impl Lane for i64 {
    const NULL: i64 = 0;
    fn bits(self) -> u64 {
        self as u64
    }
    fn hash(self) -> u64 {
        hash_i64(self)
    }
    fn value(self, dt: DataType) -> Value {
        Value::from_i64(dt, self)
    }
}

impl Lane for f64 {
    const NULL: f64 = 0.0;
    fn bits(self) -> u64 {
        self.to_bits()
    }
    fn hash(self) -> u64 {
        hash_f64(self)
    }
    fn value(self, _: DataType) -> Value {
        Value::Double(self)
    }
}

impl Lane for bool {
    const NULL: bool = false;
    fn bits(self) -> u64 {
        self as u64
    }
    fn hash(self) -> u64 {
        hash_i64(self as i64)
    }
    fn value(self, _: DataType) -> Value {
        Value::Boolean(self)
    }
}

/// One pass over a fixed-width chunk. Min and max are seeded by the first
/// non-NULL cell and replaced only by a strictly smaller or greater one, so
/// NaN never replaces, as under `Value::sql_cmp`. RLE when every cell is
/// non-NULL and bit-equal to the first; plain otherwise.
fn encode_lanes<L: Lanes>(
    dt: DataType,
    mut values: Vec<L::Lane>,
    nulls: NullMask,
    file: &mut FileStatsAcc,
) -> (Block, ColumnChunkMeta)
where
    L::Lane: Lane,
{
    let (mut min, mut max) = (None::<L::Lane>, None::<L::Lane>);
    let mut null_count = 0u32;
    // Doubles get no Bloom filter: range stats serve them better.
    let mut bloom = (dt != DataType::Double).then(BloomFilter::new);
    let first = values.first().map(|v| v.bits());
    let mut constant = true;
    for (i, cell) in values.iter_mut().enumerate() {
        if nulls.as_ref().is_some_and(|m| m[i]) {
            *cell = Lane::NULL;
            null_count += 1;
            continue;
        }
        let v = *cell;
        if min.is_none_or(|m| v < m) {
            min = Some(v);
        }
        if max.is_none_or(|m| v > m) {
            max = Some(v);
        }
        if let Some(b) = bloom.as_mut() {
            b.insert(v.hash());
        }
        file.add_lane(v.bits());
        constant &= Some(v.bits()) == first;
    }
    let chunk = ColumnChunkMeta {
        offset: 0,
        length: 0,
        min: min.map(|v| v.value(dt)),
        max: max.map(|v| v.value(dt)),
        null_count,
        bloom,
    };
    let block = match values.first() {
        Some(&v) if constant && null_count == 0 => {
            Block::rle(L::build(vec![v], None), values.len())
        }
        _ => L::build(values, nulls),
    };
    (block, chunk)
}

/// One pass over a varchar chunk: statistics as for [`encode_lanes`] on the
/// cells' bytes, plus the distinct strings in first-seen order while a
/// dictionary or RLE is still possible.
fn encode_varchar(b: VarcharBlock, file: &mut FileStatsAcc) -> (Block, ColumnChunkMeta) {
    let rows = b.len();
    let (mut min, mut max) = (None::<&str>, None::<&str>);
    let mut null_count = 0u32;
    let mut bloom = BloomFilter::new();
    // Whether a NULL slot holds bytes, which a plain chunk must not keep.
    let mut null_bytes = false;
    let mut dictionary: HashMap<&str, u32, BuildHasherDefault<CellHasher>> = HashMap::default();
    let mut entries: Vec<&str> = Vec::new();
    let mut ids: Vec<u32> = Vec::with_capacity(rows);
    for i in 0..rows {
        if b.is_null(i) {
            null_count += 1;
            null_bytes |= b.offsets[i] != b.offsets[i + 1];
            continue;
        }
        let s = b.value(i);
        if min.is_none_or(|m| s < m) {
            min = Some(s);
        }
        if max.is_none_or(|m| s > m) {
            max = Some(s);
        }
        bloom.insert(hash_bytes(s.as_bytes()));
        file.add_string(s.as_bytes());
        // Stop counting once neither RLE nor a dictionary can win.
        if entries.len() <= 1 || entries.len() * DICTIONARY_RATIO < rows {
            let next = entries.len() as u32;
            ids.push(*dictionary.entry(s).or_insert_with(|| {
                entries.push(s);
                next
            }));
        }
    }
    let chunk = ColumnChunkMeta {
        offset: 0,
        length: 0,
        min: min.map(Value::varchar),
        max: max.map(Value::varchar),
        null_count,
        bloom: Some(bloom),
    };
    let ndv = entries.len();
    let block = if null_count == 0 && ndv == 1 {
        Block::rle(Block::from(VarcharBlock::from_strs(&entries)), rows)
    } else if null_count == 0 && ndv * DICTIONARY_RATIO < rows {
        let dictionary = Block::from(VarcharBlock::from_strs(&entries));
        Block::Dictionary(DictionaryBlock::new(Arc::new(dictionary), ids))
    } else if null_bytes {
        let mut plain = BlockBuilder::with_capacity(DataType::Varchar, rows);
        for i in 0..rows {
            if b.is_null(i) {
                plain.push_null();
            } else {
                plain.push_str(b.value(i));
            }
        }
        plain.finish()
    } else {
        Block::from(b)
    };
    (block, chunk)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::Field;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("porc-writer-test-{}-{name}", std::process::id()));
        p
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Bigint),
            Field::new("status", DataType::Varchar),
        ])
    }

    fn sample_page(n: usize) -> Page {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    Value::Bigint(i as i64),
                    Value::varchar(if i % 2 == 0 { "OK" } else { "FAIL" }),
                ]
            })
            .collect();
        Page::from_rows(&schema(), &rows)
    }

    #[test]
    fn writes_stripes_and_footer() {
        let path = temp_path("basic");
        let mut w =
            PorcWriter::create(&path, schema(), WriterOptions { stripe_rows: 100 }).unwrap();
        w.append(&sample_page(250)).unwrap();
        let meta = w.finish().unwrap();
        assert_eq!(meta.row_count, 250);
        assert_eq!(meta.stripes.len(), 3); // 100 + 100 + 50
        assert_eq!(meta.stripes[2].row_count, 50);
        // Column stats captured.
        assert_eq!(meta.column_stats[0].min, Some(Value::Bigint(0)));
        assert_eq!(meta.column_stats[0].max, Some(Value::Bigint(249)));
        assert_eq!(meta.column_stats[1].distinct_count, 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn zero_stripe_rows_is_rejected() {
        let path = temp_path("zero-stripe");
        let err = PorcWriter::create(&path, schema(), WriterOptions { stripe_rows: 0 });
        assert!(
            err.is_err(),
            "stripe_rows 0 would cut empty stripes forever"
        );
        assert!(!path.exists(), "no file is created for rejected options");
    }

    #[test]
    fn stripe_stats_are_per_stripe() {
        let path = temp_path("stats");
        let mut w =
            PorcWriter::create(&path, schema(), WriterOptions { stripe_rows: 100 }).unwrap();
        w.append(&sample_page(200)).unwrap();
        let meta = w.finish().unwrap();
        assert_eq!(meta.stripes[0].columns[0].max, Some(Value::Bigint(99)));
        assert_eq!(meta.stripes[1].columns[0].min, Some(Value::Bigint(100)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn low_cardinality_varchar_gets_dictionary() {
        let path = temp_path("dict");
        let mut w = PorcWriter::create(&path, schema(), WriterOptions::default()).unwrap();
        w.append(&sample_page(1000)).unwrap();
        let meta = w.finish().unwrap();
        // Verify by reading the chunk back as a block.
        let bytes = std::fs::read(&path).unwrap();
        let chunk = &meta.stripes[0].columns[1];
        let start = meta.stripes[0].offset as usize + chunk.offset as usize;
        let block =
            presto_page::deserialize_block(&bytes[start..start + chunk.length as usize]).unwrap();
        assert!(
            matches!(block, Block::Dictionary(_)),
            "status column should be dict-encoded"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn constant_column_gets_rle() {
        let path = temp_path("rle");
        let s = Schema::of(&[("c", DataType::Bigint)]);
        let mut w = PorcWriter::create(&path, s.clone(), WriterOptions::default()).unwrap();
        let rows: Vec<Vec<Value>> = (0..500).map(|_| vec![Value::Bigint(7)]).collect();
        w.append(&Page::from_rows(&s, &rows)).unwrap();
        let meta = w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let chunk = &meta.stripes[0].columns[0];
        let start = meta.stripes[0].offset as usize + chunk.offset as usize;
        let block =
            presto_page::deserialize_block(&bytes[start..start + chunk.length as usize]).unwrap();
        assert!(matches!(block, Block::Rle(_)));
        std::fs::remove_file(path).ok();
    }
}
