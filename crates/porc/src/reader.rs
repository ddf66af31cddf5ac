//! PORC file reader with stripe skipping and lazy column loads.

use presto_common::{PrestoError, Result, TableStatistics, Value};
use presto_connector::{Domain, TupleDomain};
use presto_page::blocks::LazyBlock;
use presto_page::hash::{hash_bytes, hash_f64, hash_i64};
use presto_page::{deserialize_block, Block, Page};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::format::{FileMeta, IoStats, StripeMeta};

/// A reader over one PORC file.
#[derive(Debug)]
pub struct PorcReader {
    file: Arc<File>,
    path: PathBuf,
    meta: Arc<FileMeta>,
    stats: Arc<IoStats>,
}

impl PorcReader {
    /// Open `path`, validating magic and decoding the footer.
    pub fn open(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<PorcReader> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let len = file.metadata()?.len();
        if len < 8 {
            return Err(PrestoError::external(format!(
                "{}: not a PORC file",
                path.display()
            )));
        }
        let mut tail = [0u8; 8];
        file.read_exact_at(&mut tail, len - 8)?;
        if &tail[4..] != crate::format::PORC_MAGIC {
            return Err(PrestoError::external(format!(
                "{}: bad magic",
                path.display()
            )));
        }
        let footer_len = u64::from(u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]));
        if footer_len + 8 > len {
            return Err(PrestoError::external(format!(
                "{}: corrupt footer length",
                path.display()
            )));
        }
        let mut footer = vec![0u8; footer_len as usize];
        file.read_exact_at(&mut footer, len - 8 - footer_len)?;
        stats.add_bytes(footer_len + 8);
        stats.add_footer_read();
        let meta = Arc::new(crate::format::decode_footer(&footer)?);
        Ok(PorcReader {
            file: Arc::new(file),
            path,
            meta,
            stats,
        })
    }

    /// Open `path` reusing an already-decoded footer (from a metadata
    /// cache): no footer bytes are fetched and nothing is parsed.
    pub fn open_with_meta(
        path: impl AsRef<Path>,
        stats: Arc<IoStats>,
        meta: Arc<FileMeta>,
    ) -> Result<PorcReader> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        Ok(PorcReader {
            file: Arc::new(file),
            path,
            meta,
            stats,
        })
    }

    pub fn meta(&self) -> &FileMeta {
        &self.meta
    }

    /// Shared handle to the decoded footer, for caching.
    pub fn meta_arc(&self) -> Arc<FileMeta> {
        Arc::clone(&self.meta)
    }

    pub fn stripe_count(&self) -> usize {
        self.meta.stripes.len()
    }

    /// Optimizer-facing statistics assembled from the footer.
    pub fn table_statistics(&self) -> TableStatistics {
        let rows = self.meta.row_count as f64;
        TableStatistics {
            row_count: presto_common::Estimate::exact(rows),
            columns: self
                .meta
                .column_stats
                .iter()
                .map(|cs| presto_common::ColumnStatistics {
                    distinct_count: presto_common::Estimate::exact(cs.distinct_count as f64),
                    null_fraction: presto_common::Estimate::exact(if rows > 0.0 {
                        cs.null_count as f64 / rows
                    } else {
                        0.0
                    }),
                    min: cs.min.clone(),
                    max: cs.max.clone(),
                    avg_size: presto_common::Estimate::unknown(),
                })
                .collect(),
        }
    }

    /// Whether `stripe` can contain rows matching `predicate` (over
    /// table-schema column indices), judged from min/max and Bloom stats.
    pub fn stripe_matches(&self, stripe: usize, predicate: &TupleDomain) -> bool {
        if predicate.is_none() {
            return false;
        }
        let meta = &self.meta.stripes[stripe];
        for col in predicate.columns() {
            let Some(domain) = predicate.domain(col) else {
                continue;
            };
            let Some(chunk) = meta.columns.get(col) else {
                continue;
            };
            // All-null chunk can never match a pushdown predicate.
            if chunk.min.is_none() && chunk.null_count as usize == meta.row_count as usize {
                return false;
            }
            if !domain.overlaps(chunk.min.as_ref(), chunk.max.as_ref()) {
                return false;
            }
            // Bloom filters refute point lookups.
            if let (Domain::Set(values), Some(bloom)) = (domain, &chunk.bloom) {
                let any_maybe = values.iter().any(|v| {
                    let hash = match v {
                        Value::Bigint(x) | Value::Date(x) | Value::Timestamp(x) => hash_i64(*x),
                        Value::Boolean(b) => hash_i64(*b as i64),
                        Value::Double(d) => hash_f64(*d),
                        Value::Varchar(s) => hash_bytes(s.as_bytes()),
                        Value::Null => return false,
                    };
                    bloom.might_contain(hash)
                });
                if !any_maybe {
                    return false;
                }
            }
        }
        true
    }

    /// Per-column min/max summary of a contiguous stripe range. Connectors
    /// attach this to splits so the scheduler can re-prune still-unassigned
    /// splits when a dynamic filter narrows the predicate after enumeration.
    pub fn stripes_domain(&self, first_stripe: usize, stripe_count: usize) -> TupleDomain {
        use std::cmp::Ordering;
        let mut summary = TupleDomain::all();
        let columns = self.meta.schema.len();
        for col in 0..columns {
            let mut min: Option<Value> = None;
            let mut max: Option<Value> = None;
            let mut any = false;
            for s in first_stripe..(first_stripe + stripe_count).min(self.meta.stripes.len()) {
                let Some(chunk) = self.meta.stripes[s].columns.get(col) else {
                    continue;
                };
                // All-null chunks contribute no comparable values.
                let (Some(cmin), Some(cmax)) = (&chunk.min, &chunk.max) else {
                    continue;
                };
                if min
                    .as_ref()
                    .is_none_or(|m| cmin.sql_cmp(m) == Some(Ordering::Less))
                {
                    min = Some(cmin.clone());
                }
                if max
                    .as_ref()
                    .is_none_or(|m| cmax.sql_cmp(m) == Some(Ordering::Greater))
                {
                    max = Some(cmax.clone());
                }
                any = true;
            }
            if any {
                summary.constrain(col, Domain::Range { min, max });
            }
        }
        summary
    }

    /// Indices of stripes surviving predicate pruning; prunes are counted
    /// in the shared [`IoStats`].
    pub fn select_stripes(&self, predicate: &TupleDomain) -> Vec<usize> {
        (0..self.meta.stripes.len())
            .filter(|&i| {
                let keep = self.stripe_matches(i, predicate);
                if !keep {
                    self.stats
                        .stripes_pruned
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                keep
            })
            .collect()
    }

    /// Read the given columns of one stripe.
    ///
    /// With `lazy` set, each column is a [`LazyBlock`] whose loader fetches
    /// and decodes the chunk on first access; otherwise columns are read
    /// eagerly. Either way, loads are tallied in [`IoStats`].
    pub fn read_stripe(&self, stripe: usize, columns: &[usize], lazy: bool) -> Result<Page> {
        let smeta: &StripeMeta = &self.meta.stripes[stripe];
        self.stats
            .stripes_read
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let rows = smeta.row_count as usize;
        let mut blocks = Vec::with_capacity(columns.len());
        for &col in columns {
            let chunk = smeta.columns.get(col).ok_or_else(|| {
                PrestoError::internal(format!(
                    "porc: column {col} out of range in {}",
                    self.path.display()
                ))
            })?;
            let file = Arc::clone(&self.file);
            let stats = Arc::clone(&self.stats);
            let offset = smeta.offset + chunk.offset as u64;
            let length = chunk.length as usize;
            let path = self.path.clone();
            let loader = move || -> Block {
                let mut buf = vec![0u8; length];
                // Loaders cannot return Result; surface read errors as
                // panics carrying context (engine converts to query failure
                // at the task boundary).
                file.read_exact_at(&mut buf, offset)
                    .unwrap_or_else(|e| panic!("porc read {}: {e}", path.display()));
                stats.add_bytes(length as u64);
                let block = deserialize_block(&buf)
                    .unwrap_or_else(|e| panic!("porc decode {}: {e}", path.display()));
                stats.add_cells(block.len() as u64);
                block
            };
            if lazy {
                blocks.push(Block::Lazy(LazyBlock::new(rows, loader)));
            } else {
                blocks.push(loader());
            }
        }
        if blocks.is_empty() {
            return Ok(Page::zero_column(rows));
        }
        Ok(Page::new(blocks))
    }

    pub fn io_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::writer::{PorcWriter, WriterOptions};
    use presto_common::{DataType, Schema};

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("porc-reader-test-{}-{name}", std::process::id()));
        p
    }

    fn write_sample(path: &Path, rows: usize, stripe_rows: usize) -> Schema {
        let schema = Schema::of(&[
            ("k", DataType::Bigint),
            ("v", DataType::Double),
            ("status", DataType::Varchar),
        ]);
        let mut w =
            PorcWriter::create(path, schema.clone(), WriterOptions { stripe_rows }).unwrap();
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                vec![
                    Value::Bigint(i as i64),
                    Value::Double(i as f64 / 10.0),
                    Value::varchar(if i % 3 == 0 { "A" } else { "B" }),
                ]
            })
            .collect();
        w.append(&Page::from_rows(&schema, &data)).unwrap();
        w.finish().unwrap();
        schema
    }

    #[test]
    fn full_scan_round_trip() {
        let path = temp_path("roundtrip");
        let schema = write_sample(&path, 1000, 256);
        let reader = PorcReader::open(&path, Arc::new(IoStats::new())).unwrap();
        assert_eq!(reader.meta().row_count, 1000);
        let mut total = 0usize;
        for s in 0..reader.stripe_count() {
            let page = reader.read_stripe(s, &[0, 1, 2], false).unwrap();
            for i in 0..page.row_count() {
                let k = page.block(0).i64_at(i);
                assert_eq!(page.block(1).f64_at(i), k as f64 / 10.0);
            }
            total += page.row_count();
        }
        assert_eq!(total, 1000);
        let _ = schema;
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn min_max_pruning() {
        let path = temp_path("prune");
        write_sample(&path, 1000, 100);
        let stats = Arc::new(IoStats::new());
        let reader = PorcReader::open(&path, Arc::clone(&stats)).unwrap();
        // k >= 950 → only the last stripe.
        let mut predicate = TupleDomain::all();
        predicate.constrain(0, Domain::at_least(Value::Bigint(950)));
        let stripes = reader.select_stripes(&predicate);
        assert_eq!(stripes, vec![9]);
        assert_eq!(stats.snapshot().2, 9, "nine stripes pruned");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bloom_pruning_on_point_lookup() {
        let path = temp_path("bloom");
        write_sample(&path, 1000, 100);
        let reader = PorcReader::open(&path, Arc::new(IoStats::new())).unwrap();
        // A value that is inside the global min/max range of stripe 0 for
        // column k, but not present: range stats cannot prune it, bloom can.
        let mut predicate = TupleDomain::all();
        predicate.constrain(2, Domain::point(Value::varchar("ZZZ")));
        let stripes = reader.select_stripes(&predicate);
        assert!(
            stripes.is_empty(),
            "bloom should refute the lookup everywhere"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn lazy_columns_fetch_only_on_access() {
        let path = temp_path("lazy");
        write_sample(&path, 1000, 1000);
        let stats = Arc::new(IoStats::new());
        let reader = PorcReader::open(&path, Arc::clone(&stats)).unwrap();
        let baseline = stats.snapshot().0; // footer bytes
        let page = reader.read_stripe(0, &[0, 1, 2], true).unwrap();
        assert_eq!(stats.snapshot().0, baseline, "no data read until access");
        // Touch only column 0.
        assert_eq!(page.block(0).i64_at(5), 5);
        let after_one = stats.snapshot().0;
        assert!(after_one > baseline);
        let cells = stats.snapshot().1;
        assert_eq!(cells, 1000, "only one column's cells loaded");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn projected_reads_skip_columns() {
        let path = temp_path("project");
        write_sample(&path, 100, 100);
        let stats = Arc::new(IoStats::new());
        let reader = PorcReader::open(&path, Arc::clone(&stats)).unwrap();
        let page = reader.read_stripe(0, &[2], false).unwrap();
        assert_eq!(page.column_count(), 1);
        assert_eq!(page.block(0).str_at(0), "A");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn stripes_domain_summarizes_min_max() {
        let path = temp_path("stripesdomain");
        write_sample(&path, 1000, 100);
        let reader = PorcReader::open(&path, Arc::new(IoStats::new())).unwrap();
        // Stripes 2..5 hold k in [200, 499].
        let summary = reader.stripes_domain(2, 3);
        let d = summary.domain(0).unwrap();
        assert!(!d.contains(&Value::Bigint(199)));
        assert!(d.contains(&Value::Bigint(200)));
        assert!(d.contains(&Value::Bigint(499)));
        assert!(!d.contains(&Value::Bigint(500)));
        // Every column with values is summarized.
        assert_eq!(summary.columns().count(), 3);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn open_rejects_non_porc_files() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"this is not a porc file").unwrap();
        let err = PorcReader::open(&path, Arc::new(IoStats::new())).unwrap_err();
        assert!(matches!(
            err.code,
            presto_common::ErrorCode::External { .. }
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn open_with_meta_skips_footer_io() {
        let path = temp_path("cachedmeta");
        write_sample(&path, 1000, 256);
        let cold_stats = Arc::new(IoStats::new());
        let cold = PorcReader::open(&path, Arc::clone(&cold_stats)).unwrap();
        assert_eq!(cold_stats.footer_reads(), 1);
        let warm_stats = Arc::new(IoStats::new());
        let warm =
            PorcReader::open_with_meta(&path, Arc::clone(&warm_stats), cold.meta_arc()).unwrap();
        assert_eq!(warm_stats.snapshot().0, 0, "no footer bytes fetched");
        assert_eq!(warm_stats.footer_reads(), 0);
        let page = warm.read_stripe(0, &[0], false).unwrap();
        assert_eq!(page.block(0).i64_at(3), 3);
        assert!(warm.meta().approx_weight() > 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn footer_statistics_feed_optimizer() {
        let path = temp_path("stats");
        write_sample(&path, 500, 250);
        let reader = PorcReader::open(&path, Arc::new(IoStats::new())).unwrap();
        let ts = reader.table_statistics();
        assert_eq!(ts.row_count.value(), Some(500.0));
        assert_eq!(ts.columns[0].min, Some(Value::Bigint(0)));
        assert_eq!(ts.columns[0].max, Some(Value::Bigint(499)));
        assert_eq!(ts.columns[2].distinct_count.value(), Some(2.0));
        std::fs::remove_file(path).ok();
    }
}
