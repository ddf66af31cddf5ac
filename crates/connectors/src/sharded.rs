//! Sharded-SQL connector: the "sharded MySQL" analogue.
//!
//! §IV-B3-2: "the Developer/Advertiser Analytics use case leverages a
//! proprietary connector built on top of sharded MySQL. The connector
//! divides data into shards that are stored in individual MySQL instances,
//! and can push range or point predicates all the way down to individual
//! shards, ensuring that only matching data is ever read." Each shard here
//! is an embedded row store; the key column is hash-sharded, point
//! predicates on it prune to a single shard, and all pushed predicates are
//! evaluated shard-side before any page is produced. Key columns expose an
//! index ([`presto_connector::IndexSource`]) for index-nested-loop joins
//! (§IV-B3-3).

use parking_lot::RwLock;
use presto_cache::MetadataCache;
use presto_common::{DataType, PrestoError, Result, Schema, TableStatistics, Value};
use presto_connector::{
    Connector, ConnectorMetadata, DataLayout, Domain, FixedSplitSource, IndexSource,
    PageSinkFactory, PageSource, PageSourceFactory, Partitioning, ScanOptions, Split, SplitSource,
    TupleDomain,
};
use presto_page::{BlockBuilder, Page};
use std::collections::HashMap;
use std::sync::Arc;

/// Rows of one shard, stored row-major (it models a row-store RDBMS).
#[derive(Debug, Default, Clone)]
struct ShardData {
    rows: Vec<Vec<Value>>,
}

/// One loaded table. Immutable once built and shared behind an `Arc`:
/// planning, split enumeration, scans and index lookups all read the same
/// copy.
#[derive(Debug)]
struct ShardedTable {
    schema: Schema,
    /// The sharding key column.
    key_column: usize,
    shards: Vec<ShardData>,
    /// Secondary key→row index per shard, on the key column.
    indexes: Vec<HashMap<Value, Vec<usize>>>,
}

impl ShardedTable {
    /// The slots of `shard` a scan under `predicate` has to look at, in
    /// row order, when the key index can name them: the key domain is a
    /// value set whose members are all of the key's own type. (The index
    /// matches by `Value` equality, the predicate by SQL comparison; the
    /// two agree within one type, except for doubles.)
    fn indexed_slots(&self, shard: usize, predicate: &TupleDomain) -> Option<Vec<usize>> {
        let Some(Domain::Set(keys)) = predicate.domain(self.key_column) else {
            return None;
        };
        let key_type = self.schema.data_type(self.key_column);
        if key_type == DataType::Double || keys.iter().any(|k| k.data_type() != Some(key_type)) {
            return None;
        }
        let mut slots: Vec<usize> = keys
            .iter()
            .filter_map(|k| self.indexes[shard].get(k))
            .flatten()
            .copied()
            .collect();
        slots.sort_unstable();
        slots.dedup();
        Some(slots)
    }
}

#[derive(Default)]
struct Inner {
    tables: HashMap<String, Arc<ShardedTable>>,
}

/// The connector.
pub struct ShardedSqlConnector {
    inner: Arc<RwLock<Inner>>,
    shard_count: usize,
    /// Rows actually scanned (post-pushdown), for pushdown-effectiveness
    /// assertions and the Fig. 7 workload's latency profile.
    rows_scanned: std::sync::atomic::AtomicU64,
    /// Shared metadata cache: schemas and row-count statistics are served
    /// from here instead of cloning table state on every planner call.
    cache: Arc<MetadataCache>,
    catalog_key: String,
}

impl ShardedSqlConnector {
    pub fn new(shard_count: usize) -> Arc<ShardedSqlConnector> {
        Self::with_cache(shard_count, MetadataCache::with_defaults())
    }

    /// Like [`new`](Self::new) but sharing an engine-wide [`MetadataCache`].
    pub fn with_cache(shard_count: usize, cache: Arc<MetadataCache>) -> Arc<ShardedSqlConnector> {
        assert!(shard_count > 0);
        Arc::new(ShardedSqlConnector {
            inner: Arc::new(RwLock::new(Inner::default())),
            shard_count,
            rows_scanned: std::sync::atomic::AtomicU64::new(0),
            cache,
            catalog_key: "sharded-sql".to_string(),
        })
    }

    /// The metadata cache this connector populates.
    pub fn metadata_cache(&self) -> &Arc<MetadataCache> {
        &self.cache
    }

    /// Create a table sharded on `key_column` and load `rows`.
    pub fn load_table(&self, name: &str, schema: Schema, key_column: usize, rows: &[Vec<Value>]) {
        let mut shards = vec![ShardData::default(); self.shard_count];
        let mut indexes: Vec<HashMap<Value, Vec<usize>>> = vec![HashMap::new(); self.shard_count];
        for row in rows {
            let shard = Self::shard_of(&row[key_column], self.shard_count);
            let slot = shards[shard].rows.len();
            indexes[shard]
                .entry(row[key_column].clone())
                .or_default()
                .push(slot);
            shards[shard].rows.push(row.clone());
        }
        self.inner.write().tables.insert(
            name.to_string(),
            Arc::new(ShardedTable {
                schema,
                key_column,
                shards,
                indexes,
            }),
        );
        self.cache.invalidate_table(&self.catalog_key, name, None);
    }

    fn shard_of(key: &Value, shard_count: usize) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % shard_count as u64) as usize
    }

    /// Rows read from shards since startup (post-pushdown).
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn table(&self, name: &str) -> Result<Arc<ShardedTable>> {
        self.inner
            .read()
            .tables
            .get(name)
            .cloned()
            .ok_or_else(|| PrestoError::user(format!("table '{name}' does not exist")))
    }
}

#[derive(Debug)]
struct ShardSplit {
    shard: usize,
}

impl ConnectorMetadata for ShardedSqlConnector {
    fn list_tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.read().tables.keys().cloned().collect();
        names.sort();
        names
    }

    fn table_schema(&self, table: &str) -> Result<Schema> {
        // Served from the metadata cache: a miss reads just the schema under
        // the lock rather than cloning the whole table.
        self.cache.schema(&self.catalog_key, table, || {
            self.inner
                .read()
                .tables
                .get(table)
                .map(|t| t.schema.clone())
                .ok_or_else(|| PrestoError::user(format!("table '{table}' does not exist")))
        })
    }

    fn table_statistics(&self, table: &str) -> TableStatistics {
        self.cache.statistics(&self.catalog_key, table, || {
            let inner = self.inner.read();
            let Some(t) = inner.tables.get(table) else {
                return TableStatistics::unknown();
            };
            let rows: usize = t.shards.iter().map(|s| s.rows.len()).sum();
            TableStatistics::with_row_count(rows as f64)
        })
    }

    fn table_layouts(&self, table: &str) -> Vec<DataLayout> {
        let Ok(t) = self.table(table) else {
            return vec![DataLayout::unpartitioned()];
        };
        vec![DataLayout {
            name: "sharded".into(),
            partitioning: Some(Partitioning {
                columns: vec![t.key_column],
                bucket_count: self.shard_count,
            }),
            sorted_by: vec![],
            // The shard key is indexed: index joins and point pruning work.
            indexes: vec![vec![t.key_column]],
            node_local: false,
        }]
    }

    fn create_table(&self, table: &str, schema: &Schema) -> Result<()> {
        let mut inner = self.inner.write();
        if inner.tables.contains_key(table) {
            return Err(PrestoError::user(format!("table '{table}' already exists")));
        }
        inner.tables.insert(
            table.to_string(),
            Arc::new(ShardedTable {
                schema: schema.clone(),
                key_column: 0,
                shards: vec![ShardData::default(); self.shard_count],
                indexes: vec![HashMap::new(); self.shard_count],
            }),
        );
        drop(inner);
        self.cache.invalidate_table(&self.catalog_key, table, None);
        Ok(())
    }
}

impl Connector for ShardedSqlConnector {
    fn name(&self) -> &str {
        "sharded-sql"
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
        // Point predicates on the shard key prune to specific shards —
        // "only matching data is ever read".
        let shard_filter: Option<Vec<usize>> = match predicate.domain(t.key_column) {
            Some(Domain::Set(values)) => {
                let mut shards: Vec<usize> = values
                    .iter()
                    .map(|v| Self::shard_of(v, self.shard_count))
                    .collect();
                shards.sort_unstable();
                shards.dedup();
                Some(shards)
            }
            _ => None,
        };
        let splits = (0..self.shard_count)
            .filter(|s| shard_filter.as_ref().is_none_or(|f| f.contains(s)))
            .map(|s| Split {
                catalog: "sharded-sql".into(),
                table: table.to_string(),
                payload: Arc::new(ShardSplit { shard: s }),
                addresses: vec![],
                estimated_rows: t.shards[s].rows.len() as u64,
                bucket: Some(s),
                domain: None,
                info: format!("{table}/shard-{s}"),
            })
            .collect();
        Ok(Box::new(FixedSplitSource::new(splits)))
    }

    fn page_source_factory(&self) -> &dyn PageSourceFactory {
        self
    }

    fn page_sink_factory(&self) -> Option<&dyn PageSinkFactory> {
        None // read-only, like the production system it models
    }

    fn index_source(
        &self,
        table: &str,
        key_columns: &[usize],
        output_columns: &[usize],
    ) -> Result<Option<Box<dyn IndexSource>>> {
        let t = self.table(table)?;
        if key_columns != [t.key_column] {
            return Ok(None);
        }
        Ok(Some(Box::new(ShardedIndexSource {
            table: t,
            shard_count: self.shard_count,
            output_columns: output_columns.to_vec(),
        })))
    }
}

impl PageSourceFactory for ShardedSqlConnector {
    fn create_source(&self, split: &Split, options: &ScanOptions) -> Result<Box<dyn PageSource>> {
        let payload = split
            .payload
            .downcast_ref::<ShardSplit>()
            .ok_or_else(|| PrestoError::internal("sharded-sql: foreign split"))?;
        let t = self.table(&split.table)?;
        let shard = &t.shards[payload.shard];
        // Shard-side predicate evaluation: only matching rows leave the
        // "MySQL instance" — and under a point or IN predicate on the key,
        // only the rows its index names are looked at.
        let matches = |row: &&Vec<Value>| options.predicate.matches(|c| row[c].clone());
        let matching: Vec<&Vec<Value>> = match t.indexed_slots(payload.shard, &options.predicate) {
            Some(slots) => slots
                .iter()
                .map(|&s| &shard.rows[s])
                .filter(matches)
                .collect(),
            None => shard.rows.iter().filter(matches).collect(),
        };
        self.rows_scanned
            .fetch_add(matching.len() as u64, std::sync::atomic::Ordering::Relaxed);
        let mut pages = Vec::new();
        for chunk in matching.chunks(options.target_page_rows.max(1)) {
            let mut builders: Vec<BlockBuilder> = options
                .columns
                .iter()
                .map(|&c| BlockBuilder::with_capacity(t.schema.data_type(c), chunk.len()))
                .collect();
            for row in chunk {
                for (b, &c) in builders.iter_mut().zip(&options.columns) {
                    b.push_value(&row[c]);
                }
            }
            if builders.is_empty() {
                pages.push(Page::zero_column(chunk.len()));
            } else {
                pages.push(Page::new(
                    builders.into_iter().map(BlockBuilder::finish).collect(),
                ));
            }
        }
        Ok(Box::new(presto_connector::source::FixedPageSource::new(
            pages,
        )))
    }
}

struct ShardedIndexSource {
    table: Arc<ShardedTable>,
    shard_count: usize,
    output_columns: Vec<usize>,
}

impl IndexSource for ShardedIndexSource {
    fn lookup(&mut self, keys: &Page) -> Result<(Page, Vec<u32>)> {
        let key_type = self.table.schema.data_type(self.table.key_column);
        let mut builders: Vec<BlockBuilder> = self
            .output_columns
            .iter()
            .map(|&c| BlockBuilder::new(self.table.schema.data_type(c)))
            .collect();
        let mut key_indices = Vec::new();
        let key_block = keys.block(0);
        for i in 0..keys.row_count() {
            let key = key_block.value_at(key_type, i);
            if key.is_null() {
                continue;
            }
            let shard = ShardedSqlConnector::shard_of(&key, self.shard_count);
            if let Some(slots) = self.table.indexes[shard].get(&key) {
                for &slot in slots {
                    let row = &self.table.shards[shard].rows[slot];
                    for (b, &c) in builders.iter_mut().zip(&self.output_columns) {
                        b.push_value(&row[c]);
                    }
                    key_indices.push(i as u32);
                }
            }
        }
        let page = if builders.is_empty() {
            Page::zero_column(key_indices.len())
        } else {
            Page::new(builders.into_iter().map(BlockBuilder::finish).collect())
        };
        Ok((page, key_indices))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::DataType;

    fn connector() -> Arc<ShardedSqlConnector> {
        let c = ShardedSqlConnector::new(8);
        let schema = Schema::of(&[
            ("ad_id", DataType::Bigint),
            ("clicks", DataType::Bigint),
            ("advertiser", DataType::Varchar),
        ]);
        let rows: Vec<Vec<Value>> = (0..10_000)
            .map(|i| {
                vec![
                    Value::Bigint(i % 1000),
                    Value::Bigint(i),
                    Value::varchar(format!("adv{}", i % 50)),
                ]
            })
            .collect();
        c.load_table("ads", schema, 0, &rows);
        c
    }

    fn scan_all(c: &ShardedSqlConnector, predicate: &TupleDomain, columns: Vec<usize>) -> usize {
        let mut src = c.split_source("ads", "sharded", predicate).unwrap();
        let mut rows = 0;
        for split in src.next_batch(64).unwrap() {
            let mut source = c
                .create_source(
                    &split,
                    &ScanOptions {
                        columns: columns.clone(),
                        predicate: predicate.clone(),
                        ..Default::default()
                    },
                )
                .unwrap();
            while let Some(page) = source.next_page().unwrap() {
                rows += page.row_count();
            }
        }
        rows
    }

    #[test]
    fn point_predicate_prunes_to_one_shard() {
        let c = connector();
        let mut predicate = TupleDomain::all();
        predicate.constrain(0, Domain::point(Value::Bigint(7)));
        let mut src = c.split_source("ads", "sharded", &predicate).unwrap();
        let splits = src.next_batch(64).unwrap();
        assert_eq!(splits.len(), 1, "one shard holds ad_id 7");
        // 10 rows have ad_id = 7 (i % 1000 == 7 for i in 0..10000).
        assert_eq!(scan_all(&c, &predicate, vec![0, 1]), 10);
    }

    #[test]
    fn range_predicate_filters_shard_side() {
        let c = connector();
        let before = c.rows_scanned();
        let mut predicate = TupleDomain::all();
        predicate.constrain(1, Domain::at_least(Value::Bigint(9_990)));
        assert_eq!(scan_all(&c, &predicate, vec![1]), 10);
        // Only matching rows were produced by the shards.
        assert_eq!(c.rows_scanned() - before, 10);
    }

    #[test]
    fn index_lookup_join_path() {
        let c = connector();
        let mut index = c
            .index_source("ads", &[0], &[0, 1])
            .unwrap()
            .expect("index exists");
        let keys = Page::from_rows(
            &Schema::of(&[("k", DataType::Bigint)]),
            &[
                vec![Value::Bigint(3)],
                vec![Value::Bigint(999_999)], // no match
                vec![Value::Bigint(42)],
            ],
        );
        let (page, key_idx) = index.lookup(&keys).unwrap();
        // ad_id 3 and 42 each occur 10 times; the miss contributes nothing.
        assert_eq!(page.row_count(), 20);
        assert!(key_idx.iter().all(|&k| k == 0 || k == 2));
        // Every output row's key matches the probe key.
        for (row, &k) in key_idx.iter().enumerate() {
            let expect = if k == 0 { 3 } else { 42 };
            assert_eq!(page.block(0).i64_at(row), expect);
        }
    }

    #[test]
    fn no_index_for_non_key_columns() {
        let c = connector();
        assert!(c.index_source("ads", &[1], &[0]).unwrap().is_none());
    }

    #[test]
    fn statistics_cached_and_invalidated_on_reload() {
        let c = connector();
        assert_eq!(c.table_statistics("ads").row_count.value(), Some(10_000.0));
        assert_eq!(c.table_statistics("ads").row_count.value(), Some(10_000.0));
        let counters = c.metadata_cache().metastore_counters();
        assert!(counters.hits >= 1, "second stats call served from cache");
        // Reloading the table must drop the cached row count.
        let schema = Schema::of(&[("ad_id", DataType::Bigint)]);
        let rows: Vec<Vec<Value>> = (0..5).map(|i| vec![Value::Bigint(i)]).collect();
        c.load_table("ads", schema, 0, &rows);
        assert_eq!(c.table_statistics("ads").row_count.value(), Some(5.0));
    }

    #[test]
    fn layout_advertises_index_and_partitioning() {
        let c = connector();
        let layouts = c.table_layouts("ads");
        assert!(layouts[0].has_index_on(&[0]));
        assert_eq!(layouts[0].partitioning.as_ref().unwrap().bucket_count, 8);
    }

    #[test]
    fn reads_share_the_loaded_table_instead_of_copying_it() {
        let c = connector();
        let loaded = Arc::clone(&c.inner.read().tables["ads"]);
        let held = Arc::strong_count(&loaded);
        let mut predicate = TupleDomain::all();
        predicate.constrain(0, Domain::point(Value::Bigint(7)));
        // Planning, split enumeration and a scan borrow the table and give
        // it back…
        c.table_layouts("ads");
        assert_eq!(scan_all(&c, &predicate, vec![0, 1]), 10);
        assert_eq!(Arc::strong_count(&loaded), held);
        // …and an index source keeps a reference to that same table, not a
        // copy of its rows and indexes.
        let index = c.index_source("ads", &[0], &[1]).unwrap().unwrap();
        assert_eq!(Arc::strong_count(&loaded), held + 1);
        drop(index);
        assert_eq!(Arc::strong_count(&loaded), held);
    }

    #[test]
    fn key_lookups_touch_only_the_slots_the_index_names() {
        let c = connector();
        let t = c.table("ads").unwrap();
        let on_key = |d: Domain| {
            let mut p = TupleDomain::all();
            p.constrain(0, d);
            p
        };
        let shard = ShardedSqlConnector::shard_of(&Value::Bigint(7), 8);
        // A point lookup: the ten rows of key 7 out of the shard's ~1 250.
        let point = on_key(Domain::point(Value::Bigint(7)));
        let slots = t.indexed_slots(shard, &point).unwrap();
        assert_eq!(slots.len(), 10);
        assert!(slots.windows(2).all(|w| w[0] < w[1]), "row order kept");
        assert!(slots
            .iter()
            .all(|&s| t.shards[shard].rows[s][0] == Value::Bigint(7)));
        // IN: each shard is asked only for the keys it holds.
        let keys: Vec<Value> = (0..16).map(Value::Bigint).collect();
        let here = keys
            .iter()
            .filter(|k| ShardedSqlConnector::shard_of(k, 8) == shard)
            .count();
        let slots = t.indexed_slots(shard, &on_key(Domain::Set(keys))).unwrap();
        assert_eq!(slots.len(), here * 10);
        // Ranges, other columns and keys the index cannot match by plain
        // equality fall back to filtering the shard — with the same rows.
        assert!(t
            .indexed_slots(shard, &on_key(Domain::at_least(Value::Bigint(7))))
            .is_none());
        assert!(t.indexed_slots(shard, &TupleDomain::all()).is_none());
        let as_double = on_key(Domain::point(Value::Double(7.0)));
        assert!(t.indexed_slots(shard, &as_double).is_none());
        let split = Split {
            catalog: "sharded-sql".into(),
            table: "ads".into(),
            payload: Arc::new(ShardSplit { shard }),
            addresses: vec![],
            estimated_rows: 0,
            bucket: Some(shard),
            domain: None,
            info: String::new(),
        };
        for predicate in [point, as_double] {
            let before = c.rows_scanned();
            let options = ScanOptions {
                columns: vec![1],
                predicate,
                ..Default::default()
            };
            let mut source = c.create_source(&split, &options).unwrap();
            let mut clicks = Vec::new();
            while let Some(page) = source.next_page().unwrap() {
                clicks.extend((0..page.row_count()).map(|r| page.block(0).i64_at(r)));
            }
            assert_eq!(clicks, (0..10).map(|i| 7 + 1000 * i).collect::<Vec<i64>>());
            assert_eq!(c.rows_scanned() - before, 10, "accounting unchanged");
        }
    }
}
