//! Hive/HDFS-style shared-storage warehouse connector.
//!
//! Models the "Facebook data warehouse" configuration of §II-A / §VI-A:
//! data lives in PORC files under a directory per table ("HDFS"), metadata
//! in an embedded metastore ("Hive metastore service"). Key behaviours
//! reproduced:
//!
//! * **Lazy, batched split enumeration** (§IV-D3): one split per file
//!   stripe-range; the split source walks the file list incrementally so
//!   queries start before enumeration finishes.
//! * **Stripe skipping** (§V-C): pushed-down predicates prune stripes via
//!   footer min/max and Bloom statistics before any data is read.
//! * **Lazy column loads** (§V-D): scans materialize only accessed cells.
//! * **Optional statistics**: `set_statistics_enabled(false)` models the
//!   Fig. 6 "Hive/HDFS (no stats)" configuration.
//! * **Simulated remote-storage latency**: a configurable per-read delay
//!   models shared-storage reads being slower than local flash (Raptor).

use parking_lot::RwLock;
use presto_cache::MetadataCache;
use presto_common::{PrestoError, Result, Schema, TableStatistics};
use presto_connector::{
    Connector, ConnectorMetadata, PageSink, PageSinkFactory, PageSource, PageSourceFactory,
    ScanOptions, Split, SplitSource, TupleDomain,
};
use presto_page::Page;
use presto_porc::{IoStats, PorcReader, PorcWriter, WriterOptions};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Embedded metastore entry.
#[derive(Debug, Clone)]
struct HiveTable {
    schema: Schema,
    directory: PathBuf,
}

#[derive(Default)]
struct Metastore {
    tables: HashMap<String, HiveTable>,
}

/// The connector. Cheap to clone via `Arc`.
pub struct HiveConnector {
    root: PathBuf,
    metastore: RwLock<Metastore>,
    io: Arc<IoStats>,
    /// Report footer statistics to the optimizer?
    statistics_enabled: std::sync::atomic::AtomicBool,
    /// Simulated per-read latency of the remote filesystem.
    read_latency: RwLock<Duration>,
    /// Per-file write counter for unique file names.
    file_seq: AtomicU64,
    /// The shared metadata cache: metastore statistics/schemas, PORC
    /// footers, and split listings (replaces the old ad-hoc stats map).
    cache: Arc<MetadataCache>,
    /// Namespaces this connector's entries in the shared cache.
    catalog_key: String,
    /// How many stripes one split covers.
    stripes_per_split: usize,
}

impl HiveConnector {
    /// Create a connector rooted at `root` (created if missing) with a
    /// private metadata cache.
    pub fn new(root: impl AsRef<Path>) -> Result<Arc<HiveConnector>> {
        Self::with_cache(root, MetadataCache::with_defaults())
    }

    /// Create a connector sharing `cache` with the rest of the cluster.
    pub fn with_cache(
        root: impl AsRef<Path>,
        cache: Arc<MetadataCache>,
    ) -> Result<Arc<HiveConnector>> {
        std::fs::create_dir_all(root.as_ref())?;
        let root = root.as_ref().to_path_buf();
        let catalog_key = format!("hive:{}", root.display());
        Ok(Arc::new(HiveConnector {
            root,
            metastore: RwLock::new(Metastore::default()),
            io: Arc::new(IoStats::new()),
            statistics_enabled: std::sync::atomic::AtomicBool::new(true),
            read_latency: RwLock::new(Duration::ZERO),
            file_seq: AtomicU64::new(0),
            cache,
            catalog_key,
            stripes_per_split: 4,
        }))
    }

    /// The metadata cache this connector reads through.
    pub fn metadata_cache(&self) -> &Arc<MetadataCache> {
        &self.cache
    }

    /// Open a PORC file through the footer cache; the simulated
    /// remote-read latency is paid only on a cold footer fetch.
    fn porc_reader(&self, path: &Path) -> Result<PorcReader> {
        let latency = *self.read_latency.read();
        self.cache.porc_reader(path, Arc::clone(&self.io), || {
            if !latency.is_zero() {
                std::thread::sleep(latency);
            }
        })
    }

    /// Toggle optimizer-visible statistics (Fig. 6's two Hive variants).
    pub fn set_statistics_enabled(&self, enabled: bool) {
        self.statistics_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Simulated remote-read latency applied per storage read.
    pub fn set_read_latency(&self, latency: Duration) {
        *self.read_latency.write() = latency;
    }

    /// Shared I/O counters (drives the §V-D experiment).
    pub fn io_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.io)
    }

    fn table(&self, name: &str) -> Result<HiveTable> {
        self.metastore
            .read()
            .tables
            .get(name)
            .cloned()
            .ok_or_else(|| PrestoError::user(format!("table '{name}' does not exist")))
    }

    /// The table's data files, through the split-listing cache: the walk
    /// of the "remote filesystem" happens once per table until a write
    /// invalidates the listing.
    fn data_files(&self, name: &str, table: &HiveTable) -> Result<Arc<Vec<PathBuf>>> {
        let directory = table.directory.clone();
        self.cache.listing(&self.catalog_key, name, move || {
            let mut files: Vec<PathBuf> = std::fs::read_dir(&directory)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "porc"))
                .collect();
            files.sort();
            Ok(files)
        })
    }

    /// Bulk-load pages into a table via the sink (test/loader convenience).
    pub fn load_table(&self, name: &str, schema: Schema, pages: &[Page]) -> Result<()> {
        self.create_table(name, &schema)?;
        let mut sink = self.create_sink(name)?;
        for p in pages {
            sink.append(p)?;
        }
        sink.finish()?;
        Ok(())
    }
}

/// Split payload: a file plus a stripe range.
#[derive(Debug)]
struct HiveSplit {
    file: PathBuf,
    first_stripe: usize,
    stripe_count: usize,
}

/// Lazy split source: walks files one at a time, opening footers only as
/// batches are requested — queries can start (and finish) before the full
/// file list is enumerated.
struct HiveSplitSource {
    cache: Arc<MetadataCache>,
    io: Arc<IoStats>,
    read_latency: Duration,
    table: String,
    files: std::vec::IntoIter<PathBuf>,
    predicate: TupleDomain,
    pending: Vec<Split>,
    finished: bool,
    stripes_per_split: usize,
}

impl SplitSource for HiveSplitSource {
    fn next_batch(&mut self, max: usize) -> Result<Vec<Split>> {
        while self.pending.len() < max {
            let Some(file) = self.files.next() else {
                self.finished = true;
                break;
            };
            // The footer cache makes warm enumeration free: the remote-read
            // latency and the footer parse happen only on a miss.
            let latency = self.read_latency;
            let reader = self.cache.porc_reader(&file, Arc::clone(&self.io), || {
                if !latency.is_zero() {
                    std::thread::sleep(latency);
                }
            })?;
            // Predicate-driven stripe pruning at enumeration time.
            let stripes = reader.select_stripes(&self.predicate);
            let mut i = 0usize;
            while i < stripes.len() {
                // Consecutive surviving stripes coalesce into one split.
                let mut end = i + 1;
                while end < stripes.len()
                    && end - i < self.stripes_per_split
                    && stripes[end] == stripes[end - 1] + 1
                {
                    end += 1;
                }
                let rows: u64 = stripes[i..end]
                    .iter()
                    .map(|&s| reader.meta().stripes[s].row_count as u64)
                    .sum();
                self.pending.push(Split {
                    catalog: "hive".into(),
                    table: self.table.clone(),
                    payload: Arc::new(HiveSplit {
                        file: file.clone(),
                        first_stripe: stripes[i],
                        stripe_count: end - i,
                    }),
                    addresses: vec![],
                    estimated_rows: rows,
                    bucket: None,
                    // Footer min/max summary lets the scheduler re-prune
                    // this split if a dynamic filter lands before it is
                    // assigned.
                    domain: Some(reader.stripes_domain(stripes[i], end - i)),
                    info: format!(
                        "{}[{}..{}]",
                        file.file_name().unwrap_or_default().to_string_lossy(),
                        stripes[i],
                        stripes[i] + (end - i)
                    ),
                });
                i = end;
            }
        }
        let take = self.pending.len().min(max);
        Ok(self.pending.drain(..take).collect())
    }

    fn is_finished(&self) -> bool {
        self.finished && self.pending.is_empty()
    }
}

impl ConnectorMetadata for HiveConnector {
    fn list_tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self.metastore.read().tables.keys().cloned().collect();
        names.sort();
        names
    }

    fn table_schema(&self, table: &str) -> Result<Schema> {
        self.cache
            .schema(&self.catalog_key, table, || Ok(self.table(table)?.schema))
    }

    fn table_statistics(&self, table: &str) -> TableStatistics {
        if !self.statistics_enabled.load(Ordering::Relaxed) {
            // Stats-off is a configuration, not a cacheable fact (Fig. 6's
            // "no stats" variant); bypass the cache entirely.
            return TableStatistics::unknown();
        }
        self.cache
            .statistics(&self.catalog_key, table, || self.compute_statistics(table))
    }

    fn create_table(&self, table: &str, schema: &Schema) -> Result<()> {
        let mut store = self.metastore.write();
        if store.tables.contains_key(table) {
            return Err(PrestoError::user(format!("table '{table}' already exists")));
        }
        let directory = self.root.join(table);
        std::fs::create_dir_all(&directory)?;
        store.tables.insert(
            table.to_string(),
            HiveTable {
                schema: schema.clone(),
                directory,
            },
        );
        Ok(())
    }
}

impl HiveConnector {
    /// Merge per-file footer statistics into table statistics (the cold
    /// path behind the metastore cache).
    fn compute_statistics(&self, table: &str) -> TableStatistics {
        let Ok(t) = self.table(table) else {
            return TableStatistics::unknown();
        };
        let Ok(files) = self.data_files(table, &t) else {
            return TableStatistics::unknown();
        };
        let mut merged = TableStatistics::unknown();
        let mut rows = 0.0f64;
        let mut columns: Vec<presto_common::ColumnStatistics> =
            vec![presto_common::ColumnStatistics::unknown(); t.schema.len()];
        let mut nulls = vec![0.0f64; t.schema.len()];
        let mut ndv = vec![0.0f64; t.schema.len()];
        for file in files.iter() {
            let Ok(reader) = self.porc_reader(file) else {
                return TableStatistics::unknown();
            };
            let stats = reader.table_statistics();
            rows += stats.row_count.or(0.0);
            for (c, cs) in stats.columns.iter().enumerate().take(columns.len()) {
                nulls[c] += cs.null_fraction.or(0.0) * stats.row_count.or(0.0);
                // NDV merged as max across files: a lower bound.
                ndv[c] = ndv[c].max(cs.distinct_count.or(0.0));
                let col = &mut columns[c];
                if let Some(min) = &cs.min {
                    if col
                        .min
                        .as_ref()
                        .is_none_or(|m| min.sql_cmp(m) == Some(std::cmp::Ordering::Less))
                    {
                        col.min = Some(min.clone());
                    }
                }
                if let Some(max) = &cs.max {
                    if col
                        .max
                        .as_ref()
                        .is_none_or(|m| max.sql_cmp(m) == Some(std::cmp::Ordering::Greater))
                    {
                        col.max = Some(max.clone());
                    }
                }
            }
        }
        for (c, col) in columns.iter_mut().enumerate() {
            col.distinct_count = presto_common::Estimate::exact(ndv[c]);
            col.null_fraction =
                presto_common::Estimate::exact(if rows > 0.0 { nulls[c] / rows } else { 0.0 });
        }
        merged.row_count = presto_common::Estimate::exact(rows);
        merged.columns = columns;
        merged
    }
}

impl Connector for HiveConnector {
    fn name(&self) -> &str {
        "hive"
    }

    fn metadata(&self) -> &dyn ConnectorMetadata {
        self
    }

    fn split_source(
        &self,
        table: &str,
        _layout: &str,
        predicate: &TupleDomain,
    ) -> Result<Box<dyn SplitSource>> {
        let t = self.table(table)?;
        let files = self.data_files(table, &t)?;
        Ok(Box::new(HiveSplitSource {
            cache: Arc::clone(&self.cache),
            io: Arc::clone(&self.io),
            read_latency: *self.read_latency.read(),
            table: table.to_string(),
            files: files.as_ref().clone().into_iter(),
            predicate: predicate.clone(),
            pending: Vec::new(),
            finished: false,
            stripes_per_split: self.stripes_per_split,
        }))
    }

    fn page_source_factory(&self) -> &dyn PageSourceFactory {
        self
    }

    fn page_sink_factory(&self) -> Option<&dyn PageSinkFactory> {
        Some(self)
    }
}

impl PageSourceFactory for HiveConnector {
    fn create_source(&self, split: &Split, options: &ScanOptions) -> Result<Box<dyn PageSource>> {
        let payload = split
            .payload
            .downcast_ref::<HiveSplit>()
            .ok_or_else(|| PrestoError::internal("hive: foreign split"))?;
        let reader = self.porc_reader(&payload.file)?;
        Ok(Box::new(HivePageSource {
            reader,
            stripes: (payload.first_stripe..payload.first_stripe + payload.stripe_count)
                .collect::<Vec<_>>()
                .into_iter(),
            options: options.clone(),
            read_latency: *self.read_latency.read(),
            rows: 0,
        }))
    }
}

struct HivePageSource {
    reader: PorcReader,
    stripes: std::vec::IntoIter<usize>,
    options: ScanOptions,
    read_latency: Duration,
    rows: u64,
}

impl PageSource for HivePageSource {
    fn next_page(&mut self) -> Result<Option<Page>> {
        for stripe in self.stripes.by_ref() {
            // Re-check pruning: the predicate may be tighter than at
            // enumeration.
            if !self.reader.stripe_matches(stripe, &self.options.predicate) {
                continue;
            }
            // Dynamic filters narrow the predicate while the scan runs:
            // re-check the stripe against the build-side key domain before
            // paying the storage read. An empty domain prunes everything.
            if let Some(df) = &self.options.dynamic_filter {
                if let Some(dynamic) = df.domain() {
                    if !self.reader.stripe_matches(stripe, &dynamic) {
                        df.record_stripes_pruned(1);
                        continue;
                    }
                }
            }
            if !self.read_latency.is_zero() {
                std::thread::sleep(self.read_latency);
            }
            let page = self
                .reader
                .read_stripe(stripe, &self.options.columns, self.options.lazy)?;
            self.rows += page.row_count() as u64;
            return Ok(Some(page));
        }
        Ok(None)
    }

    fn bytes_read(&self) -> u64 {
        self.reader.io_stats().snapshot().0
    }

    fn rows_read(&self) -> u64 {
        self.rows
    }
}

impl PageSinkFactory for HiveConnector {
    fn create_sink(&self, table: &str) -> Result<Box<dyn PageSink>> {
        let t = self.table(table)?;
        // Writes invalidate cached statistics, listings, and footers.
        self.cache
            .invalidate_table(&self.catalog_key, table, Some(&t.directory));
        let seq = self.file_seq.fetch_add(1, Ordering::Relaxed);
        // Like concurrent S3 writers (§IV-E3), each sink writes its own file.
        let path = t.directory.join(format!("part-{seq:06}.porc"));
        let writer = PorcWriter::create(&path, t.schema, WriterOptions::default())?;
        Ok(Box::new(HiveSink {
            writer: Some(writer),
            rows: 0,
            cache: Arc::clone(&self.cache),
            catalog_key: self.catalog_key.clone(),
            table: table.to_string(),
            directory: t.directory,
        }))
    }
}

struct HiveSink {
    writer: Option<PorcWriter>,
    rows: u64,
    cache: Arc<MetadataCache>,
    catalog_key: String,
    table: String,
    directory: PathBuf,
}

impl PageSink for HiveSink {
    fn append(&mut self, page: &Page) -> Result<()> {
        self.rows += page.row_count() as u64;
        self.writer
            .as_mut()
            .ok_or_else(|| PrestoError::internal("hive: sink already finished"))?
            .append(page)
    }

    fn finish(&mut self) -> Result<u64> {
        if let Some(w) = self.writer.take() {
            w.finish()?;
            // Invalidate again at commit: anything cached between sink
            // creation and the file landing (a concurrent reader's listing,
            // a recomputed statistic) is stale now.
            self.cache
                .invalidate_table(&self.catalog_key, &self.table, Some(&self.directory));
        }
        Ok(self.rows)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::{DataType, Value};
    use presto_connector::Domain;

    fn temp_root(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hive-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn loaded_connector(root: &Path) -> Arc<HiveConnector> {
        let c = HiveConnector::new(root).unwrap();
        let schema = Schema::of(&[("k", DataType::Bigint), ("s", DataType::Varchar)]);
        let rows: Vec<Vec<Value>> = (0..10_000)
            .map(|i| {
                vec![
                    Value::Bigint(i),
                    Value::varchar(if i % 2 == 0 { "E" } else { "O" }),
                ]
            })
            .collect();
        c.load_table("t", schema.clone(), &[Page::from_rows(&schema, &rows)])
            .unwrap();
        c
    }

    #[test]
    fn write_then_scan() {
        let root = temp_root("scan");
        let c = loaded_connector(&root);
        let mut src = c.split_source("t", "default", &TupleDomain::all()).unwrap();
        let mut rows = 0usize;
        loop {
            let batch = src.next_batch(2).unwrap();
            if batch.is_empty() && src.is_finished() {
                break;
            }
            for split in batch {
                let mut source = c
                    .create_source(
                        &split,
                        &ScanOptions {
                            columns: vec![0, 1],
                            ..Default::default()
                        },
                    )
                    .unwrap();
                while let Some(page) = source.next_page().unwrap() {
                    rows += page.row_count();
                }
            }
        }
        assert_eq!(rows, 10_000);
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn predicate_prunes_splits() {
        let root = temp_root("prune");
        let c = loaded_connector(&root);
        let mut predicate = TupleDomain::all();
        predicate.constrain(0, Domain::at_least(Value::Bigint(9_900)));
        let mut src = c.split_source("t", "default", &predicate).unwrap();
        let mut all = Vec::new();
        while !src.is_finished() {
            all.extend(src.next_batch(16).unwrap());
        }
        // 10k rows in 8192-row stripes → 2 stripes; only the last survives.
        assert_eq!(all.len(), 1);
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn batches_are_empty_only_once_finished() {
        // Three files; the predicate prunes every stripe of the middle one,
        // so enumeration must walk past it rather than return nothing.
        let root = temp_root("contract");
        let c = HiveConnector::new(&root).unwrap();
        let schema = Schema::of(&[("x", DataType::Bigint)]);
        c.create_table("m", &schema).unwrap();
        for x in [1, 100, 2] {
            let mut sink = c.create_sink("m").unwrap();
            sink.append(&Page::from_rows(&schema, &[vec![Value::Bigint(x)]]))
                .unwrap();
            sink.finish().unwrap();
        }
        let mut predicate = TupleDomain::all();
        predicate.constrain(0, Domain::at_most(Value::Bigint(50)));
        let mut src = c.split_source("m", "default", &predicate).unwrap();
        let mut splits = 0;
        loop {
            let batch = src.next_batch(1).unwrap();
            if batch.is_empty() {
                assert!(src.is_finished());
                break;
            }
            splits += batch.len();
        }
        assert_eq!(splits, 2);
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn statistics_toggle() {
        let root = temp_root("stats");
        let c = loaded_connector(&root);
        let stats = c.table_statistics("t");
        assert_eq!(stats.row_count.value(), Some(10_000.0));
        assert_eq!(stats.columns[1].distinct_count.value(), Some(2.0));
        c.set_statistics_enabled(false);
        assert!(!c.table_statistics("t").row_count.is_known());
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn each_sink_writes_its_own_file() {
        let root = temp_root("sinks");
        let c = HiveConnector::new(&root).unwrap();
        let schema = Schema::of(&[("x", DataType::Bigint)]);
        c.create_table("w", &schema).unwrap();
        let page = Page::from_rows(&schema, &[vec![Value::Bigint(1)]]);
        let mut s1 = c.create_sink("w").unwrap();
        let mut s2 = c.create_sink("w").unwrap();
        s1.append(&page).unwrap();
        s2.append(&page).unwrap();
        s1.finish().unwrap();
        s2.finish().unwrap();
        let t = c.table("w").unwrap();
        assert_eq!(c.data_files("w", &t).unwrap().len(), 2);
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn warm_enumeration_reads_no_footers() {
        let root = temp_root("warmsplits");
        let c = loaded_connector(&root);
        let enumerate = || {
            let mut src = c.split_source("t", "default", &TupleDomain::all()).unwrap();
            let mut n = 0;
            while !src.is_finished() {
                n += src.next_batch(16).unwrap().len();
            }
            n
        };
        let cold = enumerate();
        let footers_after_cold = c.io_stats().footer_reads();
        assert!(footers_after_cold > 0);
        let warm = enumerate();
        assert_eq!(cold, warm);
        assert_eq!(
            c.io_stats().footer_reads(),
            footers_after_cold,
            "warm enumeration parses zero footers"
        );
        assert!(c.metadata_cache().footer_counters().hits > 0);
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn writes_invalidate_cached_statistics() {
        let root = temp_root("invalidate");
        let c = loaded_connector(&root);
        assert_eq!(c.table_statistics("t").row_count.value(), Some(10_000.0));
        // Cached now: recomputation would change nothing.
        assert_eq!(c.table_statistics("t").row_count.value(), Some(10_000.0));
        let schema = c.table_schema("t").unwrap();
        let mut sink = c.create_sink("t").unwrap();
        sink.append(&Page::from_rows(
            &schema,
            &[vec![Value::Bigint(10_000), Value::varchar("E")]],
        ))
        .unwrap();
        sink.finish().unwrap();
        assert_eq!(
            c.table_statistics("t").row_count.value(),
            Some(10_001.0),
            "INSERT invalidated the stats and listing caches"
        );
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn lazy_scan_counts_io() {
        let root = temp_root("lazy");
        let c = loaded_connector(&root);
        let mut src = c.split_source("t", "default", &TupleDomain::all()).unwrap();
        let splits = src.next_batch(16).unwrap();
        let before = c.io_stats().snapshot().1;
        // Read with lazy=true but never touch the data: no cells load.
        for split in &splits {
            let mut source = c
                .create_source(
                    split,
                    &ScanOptions {
                        columns: vec![1],
                        ..Default::default()
                    },
                )
                .unwrap();
            while let Some(_page) = source.next_page().unwrap() {}
        }
        assert_eq!(c.io_stats().snapshot().1, before);
        std::fs::remove_dir_all(root).ok();
    }
}
