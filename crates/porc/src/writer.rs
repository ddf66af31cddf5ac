//! PORC file writer.
//!
//! Buffers appended pages into stripes; for each stripe column it collects
//! min/max/null statistics, builds a Bloom filter, and chooses an encoding
//! (RLE for constant columns, dictionary when the distinct count is small
//! relative to the rows, plain otherwise) so that readers hand the engine
//! compressed blocks directly (§V-E).

use bytes::BufMut;
use presto_common::{DataType, Result, Schema, Value};
use presto_page::blocks::{DictionaryBlock, VarcharBlock};
use presto_page::hash::hash_cell;
use presto_page::{serialize_block, Block, BlockBuilder, Page};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use crate::bloom::BloomFilter;
use crate::format::{
    encode_footer, ColumnChunkMeta, FileColumnStats, FileMeta, StripeMeta, PORC_MAGIC,
};

/// Writer knobs.
#[derive(Debug, Clone)]
pub struct WriterOptions {
    /// Rows per stripe.
    pub stripe_rows: usize,
    /// Dictionary-encode a column when `distinct * dictionary_ratio < rows`.
    pub dictionary_ratio: usize,
    /// Cap on exact NDV tracking per column (beyond it, NDV is a floor).
    pub ndv_cap: usize,
}

impl Default for WriterOptions {
    fn default() -> Self {
        WriterOptions {
            stripe_rows: 8192,
            dictionary_ratio: 4,
            ndv_cap: 100_000,
        }
    }
}

/// Streaming PORC writer.
pub struct PorcWriter {
    schema: Schema,
    options: WriterOptions,
    out: std::io::BufWriter<std::fs::File>,
    position: u64,
    buffered: Vec<Page>,
    buffered_rows: usize,
    stripes: Vec<StripeMeta>,
    row_count: u64,
    file_stats: Vec<FileStatsAcc>,
}

struct FileStatsAcc {
    min: Option<Value>,
    max: Option<Value>,
    null_count: u64,
    distinct: std::collections::HashSet<Value>,
    distinct_overflow: bool,
}

impl FileStatsAcc {
    fn new() -> FileStatsAcc {
        FileStatsAcc {
            min: None,
            max: None,
            null_count: 0,
            distinct: std::collections::HashSet::new(),
            distinct_overflow: false,
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
        let file = std::fs::File::create(path)?;
        let file_stats = (0..schema.len()).map(|_| FileStatsAcc::new()).collect();
        Ok(PorcWriter {
            schema,
            options,
            out: std::io::BufWriter::new(file),
            position: 0,
            buffered: Vec::new(),
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
        self.buffered_rows += page.row_count();
        self.row_count += page.row_count() as u64;
        self.buffered.push(page.load_all());
        while self.buffered_rows >= self.options.stripe_rows {
            self.flush_stripe(self.options.stripe_rows)?;
        }
        Ok(())
    }

    /// Flush remaining rows and write the footer. Must be called last.
    pub fn finish(mut self) -> Result<FileMeta> {
        if self.buffered_rows > 0 {
            let rows = self.buffered_rows;
            self.flush_stripe(rows)?;
        }
        let column_stats = self
            .file_stats
            .iter()
            .map(|s| FileColumnStats {
                min: s.min.clone(),
                max: s.max.clone(),
                null_count: s.null_count,
                distinct_count: s.distinct.len() as u64,
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

    /// Cut a stripe of exactly `rows` rows from the front of the buffer.
    fn flush_stripe(&mut self, rows: usize) -> Result<()> {
        let rows = rows.min(self.buffered_rows);
        // Assemble the stripe rows into one page per column.
        let combined = Page::concat(&self.buffered);
        let (stripe_page, rest) = if combined.row_count() > rows {
            let head: Vec<u32> = (0..rows as u32).collect();
            let tail: Vec<u32> = (rows as u32..combined.row_count() as u32).collect();
            (combined.filter(&head), Some(combined.filter(&tail)))
        } else {
            (combined, None)
        };
        self.buffered = rest.into_iter().collect();
        self.buffered_rows -= rows;

        let mut chunk_bytes: Vec<bytes::Bytes> = Vec::with_capacity(self.schema.len());
        let mut chunks: Vec<ColumnChunkMeta> = Vec::with_capacity(self.schema.len());
        let mut offset = 0u32;
        for col in 0..self.schema.len() {
            let dt = self.schema.data_type(col);
            let block = stripe_page.block(col);
            let (encoded_block, stats) = self.encode_column(dt, block, col);
            let bytes = serialize_block(&encoded_block);
            chunks.push(ColumnChunkMeta {
                offset,
                length: bytes.len() as u32,
                min: stats.0,
                max: stats.1,
                null_count: stats.2,
                bloom: stats.3,
            });
            offset += bytes.len() as u32;
            chunk_bytes.push(bytes);
        }
        let stripe_len: u64 = chunk_bytes.iter().map(|b| b.len() as u64).sum();
        for b in &chunk_bytes {
            self.out.write_all(b)?;
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

    /// Choose an encoding and compute chunk statistics for one column.
    #[allow(clippy::type_complexity)]
    fn encode_column(
        &mut self,
        dt: DataType,
        block: &Block,
        col: usize,
    ) -> (
        Block,
        (Option<Value>, Option<Value>, u32, Option<BloomFilter>),
    ) {
        let rows = block.len();
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        let mut null_count = 0u32;
        let mut bloom = (dt != DataType::Double).then(BloomFilter::new);
        // Distinct values of this chunk, for dictionary encoding.
        let mut distinct: HashMap<Value, u32> = HashMap::new();
        let mut ids: Vec<u32> = Vec::with_capacity(rows);
        let file_acc = &mut self.file_stats[col];
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
                .is_none_or(|m| v.sql_cmp(m) == Some(std::cmp::Ordering::Less))
            {
                min = Some(v.clone());
            }
            if max
                .as_ref()
                .is_none_or(|m| v.sql_cmp(m) == Some(std::cmp::Ordering::Greater))
            {
                max = Some(v.clone());
            }
            if let Some(b) = bloom.as_mut() {
                b.insert(hash_cell(block, i));
            }
            if !file_acc.distinct_overflow {
                if file_acc.distinct.len() >= self.options.ndv_cap {
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
                .is_none_or(|fm| m.sql_cmp(fm) == Some(std::cmp::Ordering::Greater))
        }) {
            file_acc.max = max.clone();
        }
        if min.as_ref().is_some_and(|m| {
            file_acc
                .min
                .as_ref()
                .is_none_or(|fm| m.sql_cmp(fm) == Some(std::cmp::Ordering::Less))
        }) {
            file_acc.min = min.clone();
        }
        let stats = (min, max, null_count, bloom);
        // Encoding choice.
        let ndv = distinct.len();
        if ndv == 1 && null_count == 0 {
            if let Some(value) = distinct.keys().next() {
                return (Block::rle(Block::single(dt, value), rows), stats);
            }
        }
        let dictionary_worthwhile = ndv > 0
            && null_count == 0
            && ndv * self.options.dictionary_ratio < rows
            && matches!(dt, DataType::Varchar);
        if dictionary_worthwhile {
            // Build the dictionary in first-seen order so ids map directly.
            let mut entries = vec![""; ndv];
            for (v, &id) in &distinct {
                entries[id as usize] = v.as_str().unwrap_or_default();
            }
            let dict = Block::from(VarcharBlock::from_strs(&entries));
            return (
                Block::Dictionary(DictionaryBlock::new(Arc::new(dict), ids)),
                stats,
            );
        }
        // Plain: re-encode via builder to shed any input encoding.
        let mut b = BlockBuilder::with_capacity(dt, rows);
        for i in 0..rows {
            b.append_from(block, i);
        }
        (b.finish(), stats)
    }
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
        let mut w = PorcWriter::create(
            &path,
            schema(),
            WriterOptions {
                stripe_rows: 100,
                ..Default::default()
            },
        )
        .unwrap();
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
    fn stripe_stats_are_per_stripe() {
        let path = temp_path("stats");
        let mut w = PorcWriter::create(
            &path,
            schema(),
            WriterOptions {
                stripe_rows: 100,
                ..Default::default()
            },
        )
        .unwrap();
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
