//! The production facade: metastore, PORC footer, and split-listing caches
//! bundled behind one handle.
//!
//! One [`MetadataCache`] is shared by every connector mounted on a cluster
//! (coordinator-side schema/statistics lookups, worker-side footer opens),
//! so a table warmed by one query stays warm for every later query until a
//! write invalidates it. Keys are namespaced by a *catalog key* — connector
//! kind plus storage root — so two connectors of the same kind mounted at
//! different roots never collide.
//!
//! Layer inventory:
//!
//! * **metastore** — table schemas and [`TableStatistics`] (§IV-B: the
//!   coordinator consults the metastore during planning; §IV-C: statistics
//!   feed the cost-based optimizer). Write-through invalidated by sinks.
//! * **footer** — decoded PORC footers ([`FileMeta`]: stripe min/max,
//!   Bloom filters, file column stats, §V-C), keyed by `(path, file_len)`
//!   so an overwritten file of different length can never serve stale
//!   metadata; same-length overwrites are handled by explicit invalidation
//!   at the write path.
//! * **listing** — completed split enumerations (the sorted data-file list
//!   of one table, §IV-D3), valid until the table is written.

use crate::charge::MemoryCharger;
use crate::sharded::{CacheConfig, ShardedCache};
use crate::stats::{CacheCounters, CacheStats};
use presto_common::{Result, Schema, TableStatistics, Value};
use presto_porc::{FileMeta, IoStats, PorcReader};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// `(catalog key, table name)`.
type TableKey = (String, String);

/// Footer cache key. The file length rides along so a replaced file whose
/// size changed misses naturally; replaced files of identical size are
/// covered by [`MetadataCache::invalidate_table`] at the write path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FooterKey {
    pub path: PathBuf,
    pub file_len: u64,
}

/// Split-listing cache key: one completed file enumeration per table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitListKey {
    pub catalog: String,
    pub table: String,
}

/// Per-layer shape and limits.
#[derive(Debug, Clone)]
pub struct MetadataCacheConfig {
    /// Schemas + table statistics (two caches share this config).
    pub metastore: CacheConfig,
    /// Decoded PORC footers.
    pub footer: CacheConfig,
    /// Split listings.
    pub listing: CacheConfig,
}

impl Default for MetadataCacheConfig {
    fn default() -> MetadataCacheConfig {
        MetadataCacheConfig {
            metastore: CacheConfig {
                shards: 4,
                capacity_bytes: 16 << 20,
                ttl: Some(Duration::from_secs(600)),
            },
            footer: CacheConfig {
                shards: 8,
                capacity_bytes: 48 << 20,
                ttl: None,
            },
            listing: CacheConfig {
                shards: 4,
                capacity_bytes: 8 << 20,
                ttl: Some(Duration::from_secs(600)),
            },
        }
    }
}

/// The unified metadata cache; see the module docs for the layers.
pub struct MetadataCache {
    schemas: ShardedCache<TableKey, Schema>,
    statistics: ShardedCache<TableKey, TableStatistics>,
    footers: ShardedCache<FooterKey, Arc<FileMeta>>,
    listings: ShardedCache<SplitListKey, Arc<Vec<PathBuf>>>,
}

impl MetadataCache {
    pub fn new(config: MetadataCacheConfig) -> Arc<MetadataCache> {
        Arc::new(MetadataCache {
            schemas: ShardedCache::new(config.metastore.clone()),
            statistics: ShardedCache::new(config.metastore),
            footers: ShardedCache::new(config.footer),
            listings: ShardedCache::new(config.listing),
        })
    }

    /// A cache with the default layer sizes (standalone connectors).
    pub fn with_defaults() -> Arc<MetadataCache> {
        MetadataCache::new(MetadataCacheConfig::default())
    }

    /// Get-or-load a table schema.
    pub fn schema(
        &self,
        catalog: &str,
        table: &str,
        load: impl FnOnce() -> Result<Schema>,
    ) -> Result<Schema> {
        let key = (catalog.to_string(), table.to_string());
        if let Some(schema) = self.schemas.get(&key) {
            return Ok(schema);
        }
        let schema = load()?;
        self.schemas
            .insert(key, schema.clone(), schema_weight(&schema));
        Ok(schema)
    }

    /// Get-or-load table statistics. Unknown statistics are *not* cached:
    /// a failed load or a stats-disabled configuration must not pin
    /// "unknown" until the next invalidation.
    pub fn statistics(
        &self,
        catalog: &str,
        table: &str,
        load: impl FnOnce() -> TableStatistics,
    ) -> TableStatistics {
        let key = (catalog.to_string(), table.to_string());
        if let Some(stats) = self.statistics.get(&key) {
            return stats;
        }
        let stats = load();
        if stats.row_count.is_known() || !stats.columns.is_empty() {
            self.statistics
                .insert(key, stats.clone(), statistics_weight(&stats));
        }
        stats
    }

    /// Open a PORC reader, serving the decoded footer from cache when
    /// `(path, len)` matches. `on_miss` runs before a cold open only —
    /// connectors hook their simulated remote-read latency here so repeat
    /// opens of a warm file pay nothing.
    pub fn porc_reader(
        &self,
        path: &Path,
        io: Arc<IoStats>,
        on_miss: impl FnOnce(),
    ) -> Result<PorcReader> {
        let file_len = std::fs::metadata(path)?.len();
        let key = FooterKey {
            path: path.to_path_buf(),
            file_len,
        };
        if let Some(meta) = self.footers.get(&key) {
            return PorcReader::open_with_meta(path, io, meta);
        }
        on_miss();
        let reader = PorcReader::open(path, io)?;
        let meta = reader.meta_arc();
        self.footers
            .insert(key, Arc::clone(&meta), meta.approx_weight());
        Ok(reader)
    }

    /// Get-or-load a table's completed split enumeration.
    pub fn listing(
        &self,
        catalog: &str,
        table: &str,
        load: impl FnOnce() -> Result<Vec<PathBuf>>,
    ) -> Result<Arc<Vec<PathBuf>>> {
        let key = SplitListKey {
            catalog: catalog.to_string(),
            table: table.to_string(),
        };
        if let Some(files) = self.listings.get(&key) {
            return Ok(files);
        }
        let files = Arc::new(load()?);
        self.listings
            .insert(key, Arc::clone(&files), listing_weight(&files));
        Ok(files)
    }

    /// Drop everything known about one table: schema, statistics, the
    /// split listing, and — when `directory` is given — every cached
    /// footer under it. Sinks call this on create and on commit.
    pub fn invalidate_table(&self, catalog: &str, table: &str, directory: Option<&Path>) {
        let key = (catalog.to_string(), table.to_string());
        self.schemas.invalidate(&key);
        self.statistics.invalidate(&key);
        self.listings.invalidate(&SplitListKey {
            catalog: catalog.to_string(),
            table: table.to_string(),
        });
        if let Some(dir) = directory {
            self.footers.invalidate_if(|k| k.path.starts_with(dir));
        }
    }

    /// Install the memory-accounting hook on every layer.
    pub fn set_charger(&self, charger: Arc<dyn MemoryCharger>) {
        self.schemas.set_charger(Arc::clone(&charger));
        self.statistics.set_charger(Arc::clone(&charger));
        self.footers.set_charger(Arc::clone(&charger));
        self.listings.set_charger(charger);
    }

    /// Named live-counter handles, for telemetry registration.
    pub fn stats_handles(&self) -> Vec<(&'static str, Arc<CacheStats>)> {
        vec![
            ("metastore_schema", self.schemas.stats()),
            ("metastore_stats", self.statistics.stats()),
            ("porc_footer", self.footers.stats()),
            ("split_listing", self.listings.stats()),
        ]
    }

    /// Counters merged across all layers.
    pub fn counters(&self) -> CacheCounters {
        self.metastore_counters()
            .merge(&self.footer_counters())
            .merge(&self.listing_counters())
    }

    /// Schema + statistics layer counters.
    pub fn metastore_counters(&self) -> CacheCounters {
        self.schemas.counters().merge(&self.statistics.counters())
    }

    pub fn footer_counters(&self) -> CacheCounters {
        self.footers.counters()
    }

    pub fn listing_counters(&self) -> CacheCounters {
        self.listings.counters()
    }

    /// Bytes currently retained across all layers.
    pub fn total_bytes(&self) -> u64 {
        self.schemas.total_bytes()
            + self.statistics.total_bytes()
            + self.footers.total_bytes()
            + self.listings.total_bytes()
    }

    /// Drop every entry in every layer.
    pub fn clear(&self) {
        self.schemas.clear();
        self.statistics.clear();
        self.footers.clear();
        self.listings.clear();
    }
}

fn value_weight(v: &Option<Value>) -> u64 {
    match v {
        Some(Value::Varchar(s)) => 24 + s.len() as u64,
        _ => 16,
    }
}

fn schema_weight(schema: &Schema) -> u64 {
    48 + schema
        .fields()
        .iter()
        .map(|f| 40 + f.name.len() as u64)
        .sum::<u64>()
}

fn statistics_weight(stats: &TableStatistics) -> u64 {
    48 + stats
        .columns
        .iter()
        .map(|c| 64 + value_weight(&c.min) + value_weight(&c.max))
        .sum::<u64>()
}

fn listing_weight(files: &[PathBuf]) -> u64 {
    48 + files
        .iter()
        .map(|p| 48 + p.as_os_str().len() as u64)
        .sum::<u64>()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::{DataType, Estimate};
    use presto_porc::{PorcWriter, WriterOptions};

    fn sample_schema() -> Schema {
        Schema::of(&[("k", DataType::Bigint), ("s", DataType::Varchar)])
    }

    #[test]
    fn schema_loads_once_then_hits() {
        let cache = MetadataCache::with_defaults();
        let mut loads = 0;
        for _ in 0..3 {
            let s = cache
                .schema("hive:/w", "t", || {
                    loads += 1;
                    Ok(sample_schema())
                })
                .unwrap();
            assert_eq!(s.len(), 2);
        }
        assert_eq!(loads, 1);
        let c = cache.metastore_counters();
        assert_eq!((c.hits, c.misses), (2, 1));
    }

    #[test]
    fn catalog_key_namespaces_tables() {
        let cache = MetadataCache::with_defaults();
        let one = Schema::of(&[("a", DataType::Bigint)]);
        let two = Schema::of(&[("b", DataType::Double)]);
        cache.schema("hive:/x", "t", || Ok(one.clone())).unwrap();
        let got = cache.schema("hive:/y", "t", || Ok(two.clone())).unwrap();
        assert_eq!(got, two, "same table name in another catalog is distinct");
    }

    #[test]
    fn unknown_statistics_are_not_cached() {
        let cache = MetadataCache::with_defaults();
        let mut loads = 0;
        for _ in 0..2 {
            let s = cache.statistics("hive:/w", "t", || {
                loads += 1;
                TableStatistics::unknown()
            });
            assert!(!s.row_count.is_known());
        }
        assert_eq!(loads, 2, "unknown result is recomputed, never pinned");
        // A known result is cached.
        for _ in 0..2 {
            cache.statistics("hive:/w", "t", || TableStatistics::with_row_count(5.0));
        }
        let s = cache.statistics("hive:/w", "t", || unreachable!("cached"));
        assert_eq!(s.row_count, Estimate::exact(5.0));
    }

    #[test]
    fn footer_cached_across_opens_and_invalidated_by_table_write() {
        let dir = std::env::temp_dir().join(format!("cache-meta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.porc");
        let schema = sample_schema();
        let mut w = PorcWriter::create(&path, schema.clone(), WriterOptions::default()).unwrap();
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::Bigint(i), Value::varchar("x")])
            .collect();
        w.append(&presto_page::Page::from_rows(&schema, &rows))
            .unwrap();
        w.finish().unwrap();

        let cache = MetadataCache::with_defaults();
        let io = Arc::new(IoStats::new());
        let r1 = cache.porc_reader(&path, Arc::clone(&io), || {}).unwrap();
        assert_eq!(io.footer_reads(), 1);
        let mut misses = 0;
        let r2 = cache
            .porc_reader(&path, Arc::clone(&io), || misses += 1)
            .unwrap();
        assert_eq!(io.footer_reads(), 1, "second open reads no footer");
        assert_eq!(misses, 0);
        assert_eq!(r1.meta(), r2.meta());
        assert_eq!(cache.footer_counters().hits, 1);

        cache.invalidate_table("hive:/w", "t", Some(&dir));
        cache
            .porc_reader(&path, Arc::clone(&io), || misses += 1)
            .unwrap();
        assert_eq!(misses, 1, "invalidation forces a cold open");
        assert_eq!(io.footer_reads(), 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn listing_cached_until_invalidation() {
        let cache = MetadataCache::with_defaults();
        let mut loads = 0;
        for _ in 0..3 {
            let files = cache
                .listing("hive:/w", "t", || {
                    loads += 1;
                    Ok(vec![PathBuf::from("/w/t/part-0.porc")])
                })
                .unwrap();
            assert_eq!(files.len(), 1);
        }
        assert_eq!(loads, 1);
        cache.invalidate_table("hive:/w", "t", None);
        cache
            .listing("hive:/w", "t", || {
                loads += 1;
                Ok(vec![])
            })
            .unwrap();
        assert_eq!(loads, 2);
    }

    #[test]
    fn charger_fans_out_and_bytes_roll_up() {
        use std::sync::atomic::{AtomicI64, Ordering};
        struct Ledger(AtomicI64);
        impl MemoryCharger for Ledger {
            fn charge(&self, delta: i64) {
                self.0.fetch_add(delta, Ordering::Relaxed);
            }
        }
        let cache = MetadataCache::with_defaults();
        cache.schema("c", "t", || Ok(sample_schema())).unwrap();
        cache.statistics("c", "t", || TableStatistics::with_row_count(1.0));
        cache
            .listing("c", "t", || Ok(vec![PathBuf::from("/a")]))
            .unwrap();
        let ledger = Arc::new(Ledger(AtomicI64::new(0)));
        cache.set_charger(ledger.clone());
        assert_eq!(
            ledger.0.load(Ordering::Relaxed) as u64,
            cache.total_bytes(),
            "installation charges everything already retained"
        );
        assert!(cache.total_bytes() > 0);
        cache.clear();
        assert_eq!(ledger.0.load(Ordering::Relaxed), 0);
        assert_eq!(cache.total_bytes(), 0);
    }
}
