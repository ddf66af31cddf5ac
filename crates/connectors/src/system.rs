//! The `system` catalog: the engine's own runtime state as SQL tables.
//!
//! Presto exposes cluster internals through `system.runtime.*` so the
//! engine that serves traffic can also interrogate itself — queries,
//! tasks, operators, memory pools, caches, dynamic filters, and the trace
//! timeline are all ordinary tables here, scannable with unmodified
//! SELECTs, joins, filters, and aggregations (§VII).
//!
//! The connector itself is stateless over a [`SystemStateProvider`]: the
//! cluster implements the provider against its live telemetry, workers,
//! query history, and trace buffer (`presto-cluster` depends on this
//! crate, not the other way around, so the provider trait lives here).
//! Split enumeration takes one consistent snapshot per scan and carries
//! the rows in the split payload; the page source then streams them out
//! in engine-sized pages, honoring column pruning and `target_page_rows`.

use presto_cache::CacheCounters;
use presto_common::counters::Row;
use presto_common::{counter_set, DataType, PrestoError, Result, Schema, Value};
use presto_connector::{
    Connector, ConnectorMetadata, DynamicFilterMetrics, FixedSplitSource, PageSource,
    PageSourceFactory, ScanOptions, Split, SplitSource, TupleDomain,
};
use presto_page::Page;
use std::sync::Arc;

/// The tables of the `runtime` schema. Each maps to one provider snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemTable {
    /// One row per query: live (queued/running) from telemetry, finished/
    /// failed from the bounded query-history store.
    Queries,
    /// One row per task: live tasks across every worker plus retained
    /// tasks of historical queries.
    Tasks,
    /// One row per operator per task: the `OperatorStats` rollup.
    Operators,
    /// One row per (worker, pool) for general/reserved/system pools.
    MemoryPools,
    /// One row per registered cache layer.
    Caches,
    /// One row of cluster-lifetime dynamic-filtering totals.
    DynamicFilters,
    /// One row per event currently retained in the trace ring.
    TraceEvents,
}

impl SystemTable {
    pub const ALL: [SystemTable; 7] = [
        SystemTable::Queries,
        SystemTable::Tasks,
        SystemTable::Operators,
        SystemTable::MemoryPools,
        SystemTable::Caches,
        SystemTable::DynamicFilters,
        SystemTable::TraceEvents,
    ];

    /// Table name as addressed through SQL: `system.<this>`, i.e. the
    /// `runtime` schema is folded into the name the connector sees.
    pub fn table_name(self) -> &'static str {
        match self {
            SystemTable::Queries => "runtime.queries",
            SystemTable::Tasks => "runtime.tasks",
            SystemTable::Operators => "runtime.operators",
            SystemTable::MemoryPools => "runtime.memory_pools",
            SystemTable::Caches => "runtime.caches",
            SystemTable::DynamicFilters => "runtime.dynamic_filters",
            SystemTable::TraceEvents => "runtime.trace_events",
        }
    }

    pub fn from_name(name: &str) -> Option<SystemTable> {
        SystemTable::ALL
            .into_iter()
            .find(|t| t.table_name() == name)
    }

    /// The fixed schema of this table: the columns of its row type.
    pub fn schema(self) -> Schema {
        Schema::of(&match self {
            SystemTable::Queries => QueryRow::columns(),
            SystemTable::Tasks => TaskRow::columns(),
            SystemTable::Operators => OperatorRow::columns(),
            SystemTable::MemoryPools => MemoryPoolRow::columns(),
            SystemTable::Caches => CacheRow::columns(),
            SystemTable::DynamicFilters => DynamicFilterMetrics::columns(),
            SystemTable::TraceEvents => TraceEventRow::columns(),
        })
    }
}

counter_set! {
    /// `runtime.queries`. A live query has only its id, state and queued
    /// time so far; every `Option` column is NULL until it ends.
    #[derive(Debug, Clone, Default)]
    pub struct QueryRow[columns] {
        query_id: u64,
        state: &'static str,
        error_tag: Option<&'static str>,
        error_message: Option<String>,
        queued_nanos: u64,
        planning_nanos: Option<u64>,
        execution_nanos: Option<u64>,
        cpu_nanos: Option<u64>,
        wall_nanos: Option<u64>,
        attempts: Option<u32>,
        retries: Option<u32>,
        peak_memory_bytes: Option<u64>,
        rows_returned: Option<u64>,
    }

    /// `runtime.tasks`. `worker` is NULL for tasks of completed queries:
    /// task placement is not kept after completion.
    #[derive(Debug, Clone)]
    pub struct TaskRow[columns] {
        query_id: u64,
        stage: u32,
        task: u32,
        worker: Option<u32>,
        state: &'static str,
        cpu_nanos: u64,
        output_pages: u64,
        output_wire_bytes: u64,
        output_logical_bytes: u64,
        exchange_bytes_received: u64,
    }

    /// `runtime.operators`: the per-operator stats rollup.
    #[derive(Debug, Clone)]
    pub struct OperatorRow[columns] {
        query_id: u64,
        stage: u32,
        task: u32,
        pipeline: u32,
        operator: &'static str,
        input_rows: u64,
        input_bytes: u64,
        output_rows: u64,
        output_bytes: u64,
        cpu_nanos: u64,
        blocked_nanos: u64,
        peak_memory_bytes: u64,
        spilled_bytes: u64,
        spill_events: u64,
    }

    /// `runtime.memory_pools`: one (worker, pool) pair. The system pool
    /// tracks cache retention — it has no separate peak or limit, so those
    /// columns read 0.
    #[derive(Debug, Clone)]
    pub struct MemoryPoolRow[columns] {
        worker: u32,
        pool: &'static str,
        used_bytes: i64,
        peak_bytes: i64,
        limit_bytes: i64,
        blocked_reservations: i64,
        revocation_requests: i64,
        active_queries: usize,
    }

    /// `runtime.trace_events`: one retained event, carrying the ring's
    /// current overwrite count so truncation is visible from SQL.
    #[derive(Debug, Clone)]
    pub struct TraceEventRow[columns] {
        kind: &'static str,
        ts_nanos: u64,
        dur_nanos: u64,
        pid: u32,
        tid: u32,
        a: u64,
        b: u64,
        overwritten_events: u64,
    }
}

/// `runtime.caches`: a layer's name, then the cache crate's own counters.
#[derive(Debug, Clone)]
pub struct CacheRow {
    pub layer: &'static str,
    pub counters: CacheCounters,
}

impl Row for CacheRow {
    fn columns() -> Vec<(&'static str, DataType)> {
        let mut columns = vec![("layer", DataType::Varchar)];
        columns.extend(CacheCounters::columns());
        columns
    }

    fn row(&self) -> Vec<Value> {
        let mut row = vec![Value::varchar(self.layer)];
        row.extend(self.counters.row());
        row
    }
}

/// What the connector reads: a point-in-time row snapshot of one table.
/// Implemented by the cluster over its live runtime state; each row is the
/// [`Row::row`] of the table's row type, so it matches
/// [`SystemTable::schema`] by construction.
pub trait SystemStateProvider: Send + Sync {
    fn rows(&self, table: SystemTable) -> Vec<Vec<Value>>;
}

/// Split payload: the snapshot taken at enumeration time, so every page of
/// one scan reflects a single consistent instant even while the cluster
/// keeps mutating underneath.
struct SystemSplit {
    table: SystemTable,
    rows: Vec<Vec<Value>>,
}

/// The `system` catalog connector.
pub struct SystemConnector {
    provider: Arc<dyn SystemStateProvider>,
}

impl SystemConnector {
    pub fn new(provider: Arc<dyn SystemStateProvider>) -> Arc<SystemConnector> {
        Arc::new(SystemConnector { provider })
    }

    fn resolve(table: &str) -> Result<SystemTable> {
        SystemTable::from_name(table)
            .ok_or_else(|| PrestoError::user(format!("system table '{table}' does not exist")))
    }
}

impl ConnectorMetadata for SystemConnector {
    fn list_tables(&self) -> Vec<String> {
        SystemTable::ALL
            .iter()
            .map(|t| t.table_name().to_string())
            .collect()
    }

    fn table_schema(&self, table: &str) -> Result<Schema> {
        Ok(Self::resolve(table)?.schema())
    }

    fn create_table(&self, table: &str, _schema: &Schema) -> Result<()> {
        Err(PrestoError::user(format!(
            "system catalog is read-only (cannot create '{table}')"
        )))
    }
}

impl Connector for SystemConnector {
    fn name(&self) -> &str {
        "system"
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
        let t = Self::resolve(table)?;
        let rows = self.provider.rows(t);
        let estimated_rows = rows.len() as u64;
        let split = Split {
            catalog: "system".into(),
            table: table.to_string(),
            payload: Arc::new(SystemSplit { table: t, rows }),
            addresses: vec![],
            estimated_rows,
            bucket: None,
            domain: None,
            info: format!("{table}[snapshot {estimated_rows} rows]"),
        };
        Ok(Box::new(FixedSplitSource::new(vec![split])))
    }

    fn page_source_factory(&self) -> &dyn PageSourceFactory {
        self
    }
}

impl PageSourceFactory for SystemConnector {
    fn create_source(&self, split: &Split, options: &ScanOptions) -> Result<Box<dyn PageSource>> {
        let payload = split
            .payload
            .downcast_ref::<SystemSplit>()
            .ok_or_else(|| PrestoError::internal("system: foreign split"))?;
        let schema = payload.table.schema();
        let target = options.target_page_rows.max(1);
        let pages: Vec<Page> = payload
            .rows
            .chunks(target)
            .map(|chunk| Page::from_rows(&schema, chunk).project(&options.columns))
            .collect();
        Ok(Box::new(presto_connector::source::FixedPageSource::new(
            pages,
        )))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// Fixed rows for every table, sized `n` per table.
    struct StaticState {
        n: usize,
    }

    impl SystemStateProvider for StaticState {
        fn rows(&self, table: SystemTable) -> Vec<Vec<Value>> {
            let schema = table.schema();
            (0..self.n)
                .map(|i| {
                    (0..schema.len())
                        .map(|c| match schema.data_type(c) {
                            DataType::Varchar => Value::varchar(format!("s{i}")),
                            _ => Value::Bigint((i * 10 + c) as i64),
                        })
                        .collect()
                })
                .collect()
        }
    }

    fn connector(n: usize) -> Arc<SystemConnector> {
        SystemConnector::new(Arc::new(StaticState { n }))
    }

    #[test]
    fn lists_all_runtime_tables() {
        let c = connector(0);
        let tables = c.list_tables();
        assert_eq!(tables.len(), 7);
        assert!(tables.contains(&"runtime.queries".to_string()));
        for t in &tables {
            assert!(c.table_schema(t).is_ok());
        }
        assert!(c.table_schema("runtime.nope").is_err());
        assert!(c.create_table("t", &SystemTable::Queries.schema()).is_err());
    }

    #[test]
    fn scan_streams_snapshot_in_pages() {
        let c = connector(2500);
        let mut src = c
            .split_source("runtime.operators", "default", &TupleDomain::all())
            .unwrap();
        let splits = src.next_batch(16).unwrap();
        assert_eq!(splits.len(), 1, "one snapshot split per table");
        assert_eq!(splits[0].estimated_rows, 2500);
        let mut source = c
            .create_source(
                &splits[0],
                &ScanOptions {
                    columns: vec![4, 0],
                    target_page_rows: 1000,
                    ..Default::default()
                },
            )
            .unwrap();
        let mut rows = 0;
        let mut pages = 0;
        while let Some(page) = source.next_page().unwrap() {
            assert_eq!(page.column_count(), 2);
            assert!(page.row_count() <= 1000);
            assert!(page.block(0).str_at(0).starts_with('s'));
            rows += page.row_count();
            pages += 1;
        }
        assert_eq!(rows, 2500);
        assert_eq!(pages, 3, "chunked to target_page_rows");
    }

    /// Column names, order and types are what dashboards query by: they
    /// may not move when a row type's declaration is touched. `v` marks a
    /// varchar column, everything else is bigint.
    #[test]
    fn column_names_order_and_types_are_pinned() {
        let pinned: [(SystemTable, &str); 7] = [
            (
                SystemTable::Queries,
                "query_id state:v error_tag:v error_message:v queued_nanos planning_nanos \
                 execution_nanos cpu_nanos wall_nanos attempts retries peak_memory_bytes \
                 rows_returned",
            ),
            (
                SystemTable::Tasks,
                "query_id stage task worker state:v cpu_nanos output_pages output_wire_bytes \
                 output_logical_bytes exchange_bytes_received",
            ),
            (
                SystemTable::Operators,
                "query_id stage task pipeline operator:v input_rows input_bytes output_rows \
                 output_bytes cpu_nanos blocked_nanos peak_memory_bytes spilled_bytes \
                 spill_events",
            ),
            (
                SystemTable::MemoryPools,
                "worker pool:v used_bytes peak_bytes limit_bytes blocked_reservations \
                 revocation_requests active_queries",
            ),
            (
                SystemTable::Caches,
                "layer:v hits misses evictions inserts invalidations bytes",
            ),
            (
                SystemTable::DynamicFilters,
                "filters_published splits_pruned stripes_pruned rows_filtered wait_nanos",
            ),
            (
                SystemTable::TraceEvents,
                "kind:v ts_nanos dur_nanos pid tid a b overwritten_events",
            ),
        ];
        for (table, columns) in pinned {
            let got: Vec<String> = table
                .schema()
                .fields()
                .iter()
                .map(|f| match f.data_type {
                    DataType::Varchar => format!("{}:v", f.name),
                    DataType::Bigint => f.name.clone(),
                    other => panic!("{table:?}.{}: unexpected type {other:?}", f.name),
                })
                .collect();
            assert_eq!(got.join(" "), columns, "{table:?}");
        }
    }

    /// A table whose row is a counter set has exactly that set's fields as
    /// columns, and every row type is as wide as its schema.
    #[test]
    fn rows_and_schemas_come_from_the_same_declaration() {
        use presto_common::counters::JsonCodec;
        use presto_common::json::Json;

        fn json_keys(set: Json) -> Vec<String> {
            let Json::Obj(fields) = set else {
                panic!("a set serializes as an object");
            };
            fields.into_keys().collect()
        }
        fn sorted_names(table: SystemTable) -> Vec<String> {
            let schema = table.schema();
            let mut names: Vec<String> = schema.fields().iter().map(|f| f.name.clone()).collect();
            names.sort_unstable();
            names
        }
        assert_eq!(
            sorted_names(SystemTable::DynamicFilters),
            json_keys(DynamicFilterMetrics::default().to_json())
        );
        let mut cache_columns = json_keys(CacheCounters::default().to_json());
        cache_columns.push("layer".to_string());
        cache_columns.sort_unstable();
        assert_eq!(sorted_names(SystemTable::Caches), cache_columns);

        let cache = CacheRow {
            layer: "porc_footer",
            counters: CacheCounters::default(),
        };
        for (table, row) in [
            (SystemTable::Queries, QueryRow::default().row()),
            (SystemTable::Caches, cache.row()),
            (
                SystemTable::DynamicFilters,
                DynamicFilterMetrics::default().row(),
            ),
        ] {
            assert_eq!(row.len(), table.schema().len(), "{table:?}");
        }
    }

    #[test]
    fn every_schema_names_are_unique_and_nonempty() {
        for t in SystemTable::ALL {
            let s = t.schema();
            assert!(!s.is_empty());
            let mut names: Vec<&str> = s.fields().iter().map(|f| f.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), s.len(), "{t:?} has duplicate columns");
            assert_eq!(SystemTable::from_name(t.table_name()), Some(t));
        }
    }
}
