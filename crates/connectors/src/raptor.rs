//! Raptor: the shared-nothing storage engine built for Presto.
//!
//! §IV-D2: "Raptor is a storage engine optimized for Presto with a
//! shared-nothing architecture that stores ORC files on flash disks and
//! metadata in MySQL." Here: PORC shards on local paths, each pinned to a
//! worker node; shard metadata in an embedded store. Tables may be
//! *bucketed* on a column set — bucketed tables report a partitioned,
//! node-local layout, which lets the optimizer plan co-located joins and
//! the scheduler place leaf tasks next to their data (the A/B Testing use
//! case, §II-C / §IV-C3).

use parking_lot::RwLock;
use presto_cache::MetadataCache;
use presto_common::{NodeId, PrestoError, Result, Schema, TableStatistics};
use presto_connector::{
    Connector, ConnectorMetadata, DataLayout, FixedSplitSource, PageSink, PageSinkFactory,
    PageSource, PageSourceFactory, Partitioning, ScanOptions, Split, SplitSource, TupleDomain,
};
use presto_page::hash::hash_columns;
use presto_page::Page;
use presto_porc::{IoStats, PorcReader, PorcWriter, WriterOptions};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One shard: a PORC file pinned to a node.
#[derive(Debug, Clone)]
struct Shard {
    path: PathBuf,
    node: NodeId,
    bucket: usize,
    rows: u64,
}

/// Metastore entry (the "MySQL metadata" of the paper).
#[derive(Debug, Clone)]
struct RaptorTable {
    schema: Schema,
    /// Bucketing columns (empty = random distribution).
    bucket_columns: Vec<usize>,
    bucket_count: usize,
    shards: Vec<Shard>,
    stats: TableStatistics,
}

#[derive(Default)]
struct Metastore {
    tables: HashMap<String, RaptorTable>,
}

/// The Raptor connector.
pub struct RaptorConnector {
    root: PathBuf,
    /// Worker nodes shards may be pinned to.
    nodes: Vec<NodeId>,
    metastore: RwLock<Metastore>,
    io: Arc<IoStats>,
    /// Footer cache shared with the rest of the cluster. Schemas and
    /// statistics live in Raptor's own metastore ("metadata in MySQL") and
    /// need no extra cache layer, but shard footers are parsed per split
    /// and benefit like any PORC reader.
    cache: Arc<MetadataCache>,
    /// Namespaces this connector's entries in the shared cache.
    catalog_key: String,
    /// Self-reference so sinks created through the SPI can commit via
    /// `load_table` on finish.
    self_ref: std::sync::Weak<RaptorConnector>,
}

impl RaptorConnector {
    pub fn new(root: impl AsRef<Path>, nodes: Vec<NodeId>) -> Result<Arc<RaptorConnector>> {
        Self::with_cache(root, nodes, MetadataCache::with_defaults())
    }

    /// Create a connector sharing `cache` with the rest of the cluster.
    pub fn with_cache(
        root: impl AsRef<Path>,
        nodes: Vec<NodeId>,
        cache: Arc<MetadataCache>,
    ) -> Result<Arc<RaptorConnector>> {
        assert!(!nodes.is_empty(), "raptor needs at least one node");
        std::fs::create_dir_all(root.as_ref())?;
        let root = root.as_ref().to_path_buf();
        let catalog_key = format!("raptor:{}", root.display());
        Ok(Arc::new_cyclic(|weak| RaptorConnector {
            root,
            nodes,
            metastore: RwLock::new(Metastore::default()),
            io: Arc::new(IoStats::new()),
            cache,
            catalog_key,
            self_ref: weak.clone(),
        }))
    }

    pub fn io_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.io)
    }

    /// The metadata cache this connector reads footers through.
    pub fn metadata_cache(&self) -> &Arc<MetadataCache> {
        &self.cache
    }

    /// Create a bucketed table: data will be hash-partitioned on
    /// `bucket_columns` into `bucket_count` shards, bucket `i` pinned to
    /// node `i % nodes`.
    pub fn create_bucketed_table(
        &self,
        table: &str,
        schema: &Schema,
        bucket_columns: Vec<usize>,
        bucket_count: usize,
    ) -> Result<()> {
        let mut store = self.metastore.write();
        if store.tables.contains_key(table) {
            return Err(PrestoError::user(format!("table '{table}' already exists")));
        }
        std::fs::create_dir_all(self.root.join(table))?;
        store.tables.insert(
            table.to_string(),
            RaptorTable {
                schema: schema.clone(),
                bucket_columns,
                bucket_count,
                shards: Vec::new(),
                stats: TableStatistics::unknown(),
            },
        );
        Ok(())
    }

    /// Load pages, bucketing rows when the table is bucketed. Computes
    /// statistics as a side effect (Raptor always has stats — part of why
    /// the Fig. 6 Raptor line is fastest).
    pub fn load_table(&self, table: &str, pages: &[Page]) -> Result<()> {
        let (schema, bucket_columns, bucket_count) = {
            let store = self.metastore.read();
            let t = store
                .tables
                .get(table)
                .ok_or_else(|| PrestoError::user(format!("table '{table}' does not exist")))?;
            (t.schema.clone(), t.bucket_columns.clone(), t.bucket_count)
        };
        // Partition rows into buckets.
        let buckets = if bucket_columns.is_empty() {
            self.nodes.len().max(1)
        } else {
            bucket_count
        };
        let mut per_bucket: Vec<Vec<Page>> = vec![Vec::new(); buckets];
        for page in pages {
            let page = page.load_all();
            if bucket_columns.is_empty() {
                // Random distribution: deal rows round-robin across shards.
                let mut positions: Vec<Vec<u32>> = vec![Vec::new(); buckets];
                for i in 0..page.row_count() {
                    positions[i % buckets].push(i as u32);
                }
                for (b, pos) in positions.iter().enumerate() {
                    if !pos.is_empty() {
                        per_bucket[b].push(page.filter(pos));
                    }
                }
            } else {
                let hashes = hash_columns(&page, &bucket_columns);
                let mut positions: Vec<Vec<u32>> = vec![Vec::new(); buckets];
                for (i, h) in hashes.iter().enumerate() {
                    positions[(h % buckets as u64) as usize].push(i as u32);
                }
                for (b, pos) in positions.iter().enumerate() {
                    if !pos.is_empty() {
                        per_bucket[b].push(page.filter(pos));
                    }
                }
            }
        }
        // Write one shard per bucket, pinned to a node.
        let mut shards = Vec::new();
        let mut all_stats: Vec<presto_porc::FileMeta> = Vec::new();
        for (b, bucket_pages) in per_bucket.iter().enumerate() {
            if bucket_pages.is_empty() {
                continue;
            }
            let path = self.root.join(table).join(format!("shard-{b:04}.porc"));
            let mut w = PorcWriter::create(&path, schema.clone(), WriterOptions::default())?;
            for p in bucket_pages {
                w.append(p)?;
            }
            let meta = w.finish()?;
            shards.push(Shard {
                path,
                node: self.nodes[b % self.nodes.len()],
                bucket: b,
                rows: meta.row_count,
            });
            all_stats.push(meta);
        }
        // Reloads overwrite shard files in place; a same-length overwrite
        // would otherwise satisfy the (path, len) footer key with stale
        // stripe statistics.
        self.cache
            .invalidate_table(&self.catalog_key, table, Some(&self.root.join(table)));
        // Merge footer statistics into table statistics.
        let stats = merge_stats(&schema, &all_stats);
        let mut store = self.metastore.write();
        let t = store
            .tables
            .get_mut(table)
            .expect("table registered before shard write");
        t.shards = shards;
        t.stats = stats;
        Ok(())
    }
}

fn merge_stats(schema: &Schema, metas: &[presto_porc::FileMeta]) -> TableStatistics {
    use presto_common::{ColumnStatistics, Estimate};
    let rows: u64 = metas.iter().map(|m| m.row_count).sum();
    let mut columns = vec![ColumnStatistics::unknown(); schema.len()];
    for meta in metas {
        for (c, cs) in meta.column_stats.iter().enumerate().take(columns.len()) {
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
            let ndv = col.distinct_count.or(0.0).max(cs.distinct_count as f64);
            col.distinct_count = Estimate::exact(ndv);
            let nulls = col.null_fraction.or(0.0) * rows as f64 + cs.null_count as f64;
            col.null_fraction = Estimate::exact(if rows > 0 {
                (nulls / rows as f64).min(1.0)
            } else {
                0.0
            });
        }
    }
    TableStatistics {
        row_count: Estimate::exact(rows as f64),
        columns,
    }
}

#[derive(Debug)]
struct RaptorSplit {
    path: PathBuf,
    /// Kept for shard-level diagnostics; routing uses `Split::bucket`.
    #[allow(dead_code)]
    bucket: usize,
}

impl ConnectorMetadata for RaptorConnector {
    fn list_tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self.metastore.read().tables.keys().cloned().collect();
        names.sort();
        names
    }

    fn table_schema(&self, table: &str) -> Result<Schema> {
        self.metastore
            .read()
            .tables
            .get(table)
            .map(|t| t.schema.clone())
            .ok_or_else(|| PrestoError::user(format!("table '{table}' does not exist")))
    }

    fn table_statistics(&self, table: &str) -> TableStatistics {
        self.metastore
            .read()
            .tables
            .get(table)
            .map(|t| t.stats.clone())
            .unwrap_or_else(TableStatistics::unknown)
    }

    fn table_layouts(&self, table: &str) -> Vec<DataLayout> {
        let store = self.metastore.read();
        let Some(t) = store.tables.get(table) else {
            return vec![DataLayout::unpartitioned()];
        };
        let partitioning = (!t.bucket_columns.is_empty()).then(|| Partitioning {
            columns: t.bucket_columns.clone(),
            bucket_count: t.bucket_count,
        });
        vec![DataLayout {
            name: "default".into(),
            partitioning,
            sorted_by: vec![],
            indexes: vec![],
            node_local: true,
        }]
    }

    fn create_table(&self, table: &str, schema: &Schema) -> Result<()> {
        self.create_bucketed_table(table, schema, Vec::new(), 0)
    }
}

impl Connector for RaptorConnector {
    fn name(&self) -> &str {
        "raptor"
    }

    fn metadata(&self) -> &dyn ConnectorMetadata {
        self
    }

    fn split_source(
        &self,
        table: &str,
        _layout: &str,
        _predicate: &TupleDomain,
    ) -> Result<Box<dyn SplitSource>> {
        let store = self.metastore.read();
        let t = store
            .tables
            .get(table)
            .ok_or_else(|| PrestoError::user(format!("table '{table}' does not exist")))?;
        let splits = t
            .shards
            .iter()
            .map(|s| Split {
                catalog: "raptor".into(),
                table: table.to_string(),
                payload: Arc::new(RaptorSplit {
                    path: s.path.clone(),
                    bucket: s.bucket,
                }),
                addresses: vec![s.node],
                estimated_rows: s.rows,
                bucket: Some(s.bucket),
                domain: None,
                info: format!("{table}/bucket-{}@{}", s.bucket, s.node),
            })
            .collect();
        Ok(Box::new(FixedSplitSource::new(splits)))
    }

    fn page_source_factory(&self) -> &dyn PageSourceFactory {
        self
    }

    fn page_sink_factory(&self) -> Option<&dyn PageSinkFactory> {
        Some(self)
    }
}

impl PageSourceFactory for RaptorConnector {
    fn create_source(&self, split: &Split, options: &ScanOptions) -> Result<Box<dyn PageSource>> {
        let payload = split
            .payload
            .downcast_ref::<RaptorSplit>()
            .ok_or_else(|| PrestoError::internal("raptor: foreign split"))?;
        let reader = self
            .cache
            .porc_reader(&payload.path, Arc::clone(&self.io), || {})?;
        let stripes = reader.select_stripes(&options.predicate).into_iter();
        Ok(Box::new(RaptorPageSource {
            reader,
            stripes,
            options: options.clone(),
            rows: 0,
        }))
    }
}

struct RaptorPageSource {
    reader: PorcReader,
    stripes: std::vec::IntoIter<usize>,
    options: ScanOptions,
    rows: u64,
}

impl PageSource for RaptorPageSource {
    fn next_page(&mut self) -> Result<Option<Page>> {
        match self.stripes.next() {
            Some(stripe) => {
                let page =
                    self.reader
                        .read_stripe(stripe, &self.options.columns, self.options.lazy)?;
                self.rows += page.row_count() as u64;
                Ok(Some(page))
            }
            None => Ok(None),
        }
    }

    fn rows_read(&self) -> u64 {
        self.rows
    }
}

impl PageSinkFactory for RaptorConnector {
    fn create_sink(&self, table: &str) -> Result<Box<dyn PageSink>> {
        // Sinks buffer pages and route them through load_table on finish so
        // bucketing and statistics stay consistent.
        self.table_schema(table)?;
        let connector = self
            .self_ref
            .upgrade()
            .ok_or_else(|| PrestoError::internal("raptor: connector dropped"))?;
        Ok(Box::new(RaptorSink {
            connector,
            table: table.to_string(),
            buffered: Vec::new(),
            rows: 0,
        }))
    }
}

struct RaptorSink {
    connector: Arc<RaptorConnector>,
    table: String,
    buffered: Vec<Page>,
    rows: u64,
}

impl PageSink for RaptorSink {
    fn append(&mut self, page: &Page) -> Result<()> {
        self.rows += page.row_count() as u64;
        self.buffered.push(page.load_all());
        Ok(())
    }

    fn finish(&mut self) -> Result<u64> {
        let pages = std::mem::take(&mut self.buffered);
        self.connector.load_table(&self.table, &pages)?;
        Ok(self.rows)
    }

    fn buffered_bytes(&self) -> u64 {
        self.buffered.iter().map(|p| p.size_in_bytes() as u64).sum()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::{DataType, Value};

    fn temp_root(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("raptor-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn bucketed_load_pins_shards_to_nodes() {
        let root = temp_root("bucketed");
        let c = RaptorConnector::new(&root, nodes(4)).unwrap();
        let schema = Schema::of(&[("uid", DataType::Bigint), ("v", DataType::Double)]);
        c.create_bucketed_table("events", &schema, vec![0], 8)
            .unwrap();
        let rows: Vec<Vec<Value>> = (0..1000)
            .map(|i| vec![Value::Bigint(i % 100), Value::Double(i as f64)])
            .collect();
        c.load_table("events", &[Page::from_rows(&schema, &rows)])
            .unwrap();

        let layouts = c.table_layouts("events");
        assert!(layouts[0].node_local);
        assert_eq!(layouts[0].partitioning.as_ref().unwrap().columns, vec![0]);

        let mut src = c
            .split_source("events", "default", &TupleDomain::all())
            .unwrap();
        let splits = src.next_batch(64).unwrap();
        assert!(!splits.is_empty() && splits.len() <= 8);
        // Every split is pinned to exactly one node.
        for s in &splits {
            assert_eq!(s.addresses.len(), 1);
        }
        // All rows come back, each from the bucket its key hashes to.
        let mut total = 0usize;
        for split in &splits {
            let mut source = c
                .create_source(
                    split,
                    &ScanOptions {
                        columns: vec![0],
                        ..Default::default()
                    },
                )
                .unwrap();
            while let Some(page) = source.next_page().unwrap() {
                total += page.row_count();
            }
        }
        assert_eq!(total, 1000);
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn same_key_lands_in_same_bucket_across_tables() {
        // Co-located joins depend on identical bucketing for identical keys.
        let root = temp_root("cojoin");
        let c = RaptorConnector::new(&root, nodes(2)).unwrap();
        let schema = Schema::of(&[("k", DataType::Bigint)]);
        c.create_bucketed_table("a", &schema, vec![0], 4).unwrap();
        c.create_bucketed_table("b", &schema, vec![0], 4).unwrap();
        let rows: Vec<Vec<Value>> = (0..50).map(|i| vec![Value::Bigint(i)]).collect();
        c.load_table("a", &[Page::from_rows(&schema, &rows)])
            .unwrap();
        c.load_table("b", &[Page::from_rows(&schema, &rows)])
            .unwrap();
        // Bucket contents must be identical per bucket index.
        let collect = |table: &str| -> HashMap<usize, Vec<i64>> {
            let mut out: HashMap<usize, Vec<i64>> = HashMap::new();
            let mut src = c
                .split_source(table, "default", &TupleDomain::all())
                .unwrap();
            for split in src.next_batch(64).unwrap() {
                let payload = split.payload.downcast_ref::<RaptorSplit>().unwrap();
                let mut source = c
                    .create_source(
                        &split,
                        &ScanOptions {
                            columns: vec![0],
                            ..Default::default()
                        },
                    )
                    .unwrap();
                let mut keys = Vec::new();
                while let Some(page) = source.next_page().unwrap() {
                    for i in 0..page.row_count() {
                        keys.push(page.block(0).i64_at(i));
                    }
                }
                keys.sort();
                out.insert(payload.bucket, keys);
            }
            out
        };
        assert_eq!(collect("a"), collect("b"));
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn statistics_always_available() {
        let root = temp_root("stats");
        let c = RaptorConnector::new(&root, nodes(2)).unwrap();
        let schema = Schema::of(&[("k", DataType::Bigint)]);
        c.create_table("t", &schema).unwrap();
        let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Bigint(i)]).collect();
        c.load_table("t", &[Page::from_rows(&schema, &rows)])
            .unwrap();
        let stats = c.table_statistics("t");
        assert_eq!(stats.row_count.value(), Some(100.0));
        assert_eq!(stats.columns[0].min, Some(Value::Bigint(0)));
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn reload_invalidates_cached_footers() {
        let root = temp_root("reload");
        let c = RaptorConnector::new(&root, nodes(1)).unwrap();
        let schema = Schema::of(&[("k", DataType::Bigint)]);
        c.create_table("t", &schema).unwrap();
        let load = |v: i64| {
            let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Bigint(v + i)]).collect();
            c.load_table("t", &[Page::from_rows(&schema, &rows)])
                .unwrap();
        };
        let scan_min = || {
            let mut src = c.split_source("t", "default", &TupleDomain::all()).unwrap();
            let mut min = i64::MAX;
            for split in src.next_batch(64).unwrap() {
                let mut source = c
                    .create_source(
                        &split,
                        &ScanOptions {
                            columns: vec![0],
                            ..Default::default()
                        },
                    )
                    .unwrap();
                while let Some(page) = source.next_page().unwrap() {
                    for i in 0..page.row_count() {
                        min = min.min(page.block(0).i64_at(i));
                    }
                }
            }
            min
        };
        load(0);
        assert_eq!(scan_min(), 0);
        // Same row count → same shard file length: only explicit
        // invalidation protects the (path, len) footer key.
        load(1_000);
        assert_eq!(scan_min(), 1_000, "no stale footer after reload");
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn sink_commits_through_connector() {
        let root = temp_root("sink");
        let c = RaptorConnector::new(&root, nodes(2)).unwrap();
        let schema = Schema::of(&[("k", DataType::Bigint)]);
        c.create_table("t", &schema).unwrap();
        let mut sink = c.create_sink("t").unwrap();
        sink.append(&Page::from_rows(&schema, &[vec![Value::Bigint(5)]]))
            .unwrap();
        assert_eq!(sink.finish().unwrap(), 1);
        assert_eq!(c.table_statistics("t").row_count.value(), Some(1.0));
        std::fs::remove_dir_all(root).ok();
    }
}
