//! Fixtures: generated data, its pinned fingerprint, and one running
//! cluster per workload. Everything the benchmark writes lands under
//! `bench/out/`, inside the checkout.

use crate::workloads::Workload;
use presto::cache::MetadataCache;
use presto::cluster::{Cluster, ClusterConfig};
use presto::common::session::SchedulingPolicy;
use presto::common::{DataType, Schema, Session, Value};
use presto::connector::{CatalogManager, Connector};
use presto::connectors::{HiveConnector, MemoryConnector, ShardedSqlConnector};
use presto::page::Page;
use presto::workload::TpchGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The fixed environment: no env vars, no knobs.
pub const WORKERS: usize = 2;
pub const THREADS_PER_WORKER: usize = 2;
pub const LEAF_PARALLELISM: usize = 2;
pub const SHARDS: usize = 8;
const ADS_SEED: u64 = 99;

pub fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        workers: WORKERS,
        threads_per_worker: THREADS_PER_WORKER,
        leaf_parallelism: LEAF_PARALLELISM,
        ..ClusterConfig::default()
    }
}

/// Data and pass sizes. `FULL` is the benchmark; `SMOKE` runs the same
/// code at tiny counts for `--smoke` and the package tests.
pub struct Size {
    /// Prefix of the report files, so a smoke run leaves real reports alone.
    pub label: &'static str,
    pub scale_hive: f64,
    pub scale_etl: f64,
    pub scale_spill: f64,
    pub ads_rows: usize,
    /// General and reserved pool of the `spill_join` cluster. Calibrated
    /// once so that every op spills.
    pub spill_pool_bytes: u64,
    /// Divides `Workload::trace_ops`.
    pub trace_ops_divisor: usize,
    /// TPC-H scale of the lineitem pages the direct-call kernels run over.
    pub kernel_scale: f64,
    pub kernel_millis: u64,
}

pub const FULL: Size = Size {
    label: "",
    scale_hive: 0.05,
    scale_etl: 0.02,
    scale_spill: 0.01,
    ads_rows: 5_000,
    spill_pool_bytes: 32 << 10,
    trace_ops_divisor: 1,
    kernel_scale: 0.01,
    kernel_millis: 250,
};

pub const SMOKE: Size = Size {
    label: "smoke.",
    scale_hive: 0.001,
    scale_etl: 0.001,
    scale_spill: 0.001,
    ads_rows: 500,
    spill_pool_bytes: 16 << 10,
    trace_ops_divisor: 12,
    kernel_scale: 0.001,
    kernel_millis: 5,
};

pub type Table = (&'static str, Schema, Vec<Page>);

/// Where a run keeps its warehouse, spill files and reports.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Wall time of one `Fixture::build`: its three phases, and the whole
/// call, which is what `setup_s` reports.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub datagen_s: f64,
    pub load_s: f64,
    pub cluster_start_s: f64,
    pub total_s: f64,
}

pub struct Fixture {
    pub workload: Workload,
    pub cluster: Cluster,
    pub session: Session,
    pub hive: Option<Arc<HiveConnector>>,
    pub sharded: Option<Arc<ShardedSqlConnector>>,
    /// The generated data, kept until the oracle has taken it.
    pub tables: Vec<Table>,
    pub scale_or_rows: f64,
    pub spill_dir: PathBuf,
    dir: PathBuf,
    pub times: SetupTimes,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.cluster.shutdown();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn ads_schema() -> Schema {
    Schema::of(&[
        ("ad_id", DataType::Bigint),
        ("advertiser_id", DataType::Bigint),
        ("clicks", DataType::Bigint),
        ("spend", DataType::Double),
        ("day", DataType::Bigint),
    ])
}

/// The §II-D `ads` table: 50 advertisers, sharded on advertiser_id.
fn ads_rows(n: usize) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(ADS_SEED);
    let n = n as i64;
    (0..n)
        .map(|i| {
            vec![
                Value::Bigint(i % (n / 10).max(1)),
                Value::Bigint(rng.gen_range(0..50)),
                Value::Bigint(rng.gen_range(0..10)),
                Value::Double(rng.gen_range(0.0..5.0)),
                Value::Bigint(rng.gen_range(0..30)),
            ]
        })
        .collect()
}

impl Fixture {
    /// Datagen, connector load and `Cluster::start` for one workload.
    pub fn build(workload: Workload, size: &Size) -> Result<Fixture, String> {
        let build_started = Instant::now();
        let err = |e: presto::common::PrestoError| e.to_string();
        let dir = out_dir().join(format!("work-{}-{}", workload.name(), std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let spill_dir = dir.join("spill");
        let mut times = SetupTimes::default();
        let mut session = Session::default();
        let mut config = cluster_config();
        let mut catalogs = CatalogManager::new();
        let (mut hive, mut sharded) = (None, None);
        // One engine-wide metadata cache shared by connector and cluster, so
        // cluster telemetry sees its counters.
        let cache = MetadataCache::new(config.cache.clone());

        let started = Instant::now();
        let (tables, scale_or_rows): (Vec<Table>, f64) = match workload {
            Workload::PointLookup => {
                let schema = ads_schema();
                let page = Page::from_rows(&schema, &ads_rows(size.ads_rows));
                (vec![("ads", schema, vec![page])], size.ads_rows as f64)
            }
            _ => {
                let scale = match workload {
                    Workload::EtlWrite => size.scale_etl,
                    Workload::SpillJoin => size.scale_spill,
                    _ => size.scale_hive,
                };
                (TpchGenerator::new(scale).all_tables(), scale)
            }
        };
        times.datagen_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        match workload {
            Workload::AdhocScan | Workload::StarJoin | Workload::EtlWrite => {
                // Statistics on, read latency 0 (both defaults).
                let connector =
                    HiveConnector::with_cache(dir.join("hive"), Arc::clone(&cache)).map_err(err)?;
                for (name, schema, pages) in &tables {
                    connector
                        .load_table(name, schema.clone(), pages)
                        .map_err(err)?;
                }
                catalogs.register("hive", Arc::clone(&connector) as Arc<dyn Connector>);
                hive = Some(connector);
                session.catalog = "hive".into();
                if workload == Workload::EtlWrite {
                    // Phased scheduling, as ETL sessions run (§IV-D1).
                    session.scheduling_policy = SchedulingPolicy::Phased;
                }
            }
            Workload::PointLookup => {
                let connector = ShardedSqlConnector::with_cache(SHARDS, Arc::clone(&cache));
                let (name, schema, pages) = &tables[0];
                connector.load_table(name, schema.clone(), 1, &pages[0].to_rows(schema));
                catalogs.register("sharded", Arc::clone(&connector) as Arc<dyn Connector>);
                sharded = Some(connector);
                session.catalog = "sharded".into();
            }
            Workload::SpillJoin => {
                let connector = MemoryConnector::new();
                for (name, schema, pages) in &tables {
                    connector.load_table(name, schema.clone(), pages.clone());
                    connector.analyze(name).map_err(err)?;
                }
                catalogs.register("memory", connector as Arc<dyn Connector>);
                session.catalog = "memory".into();
                session.spill_enabled = true;
                session.spill_dir = Some(spill_dir.clone());
                config.node_memory_bytes = size.spill_pool_bytes;
                config.reserved_pool_bytes = size.spill_pool_bytes;
            }
        }
        times.load_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let cluster = Cluster::start_with_cache(config, catalogs, cache).map_err(err)?;
        times.cluster_start_s = started.elapsed().as_secs_f64();
        times.total_s = build_started.elapsed().as_secs_f64();

        Ok(Fixture {
            workload,
            cluster,
            session,
            hive,
            sharded,
            tables,
            scale_or_rows,
            spill_dir,
            dir,
            times,
        })
    }

    /// A scratch path inside this fixture's directory.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

/// The reference engine: one worker over the `memory` catalog with every
/// "never correctness-bearing" optimisation switched off.
pub struct Oracle {
    pub cluster: Cluster,
    pub session: Session,
}

impl Oracle {
    /// Takes the fixture's generated pages (they are not needed again).
    pub fn build(tables: Vec<Table>) -> Result<Oracle, String> {
        let memory = MemoryConnector::new();
        for (name, schema, pages) in tables {
            memory.load_table(name, schema, pages);
            memory.analyze(name).map_err(|e| e.to_string())?;
        }
        let mut catalogs = CatalogManager::new();
        catalogs.register("memory", memory as Arc<dyn Connector>);
        let config = ClusterConfig {
            workers: 1,
            ..cluster_config()
        };
        let cluster = Cluster::start(config, catalogs).map_err(|e| e.to_string())?;
        let session = Session {
            catalog: "memory".into(),
            pipeline_fusion: false,
            dynamic_filtering: false,
            compiled_expressions: false,
            spill_enabled: false,
            ..Session::default()
        };
        Ok(Oracle { cluster, session })
    }
}

// ---- fixture fingerprint ----

/// FNV-1a over 64-bit words; order-sensitive, so a generator that emits
/// the same rows in another order also trips it.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn checksum_tables(tables: &[Table]) -> (Vec<u64>, u64) {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut rows = Vec::new();
    for (_, schema, pages) in tables {
        rows.push(pages.iter().map(|p| p.row_count() as u64).sum());
        for page in pages {
            for (c, field) in schema.fields().iter().enumerate() {
                let block = page.block(c);
                for i in 0..page.row_count() {
                    if block.is_null(i) {
                        h.word(u64::MAX);
                        continue;
                    }
                    match field.data_type {
                        DataType::Double => h.word(block.f64_at(i).to_bits()),
                        DataType::Boolean => h.word(block.bool_at(i) as u64),
                        DataType::Varchar => {
                            let s = block.str_at(i);
                            h.word(s.len() as u64);
                            s.bytes().for_each(|b| h.word(b as u64));
                        }
                        DataType::Bigint | DataType::Date | DataType::Timestamp => {
                            h.word(block.i64_at(i) as u64)
                        }
                    }
                }
            }
        }
    }
    (rows, h.0)
}

/// `(scale or ads rows, per-table row counts in generation order, checksum)`
/// for the fixed data seed. If `presto::workload` ever generates other data
/// the run aborts: benchmark inputs must not drift with engine PRs.
const PINS: &[(f64, &[u64], u64)] = &[
    (
        0.05,
        &[5, 25, 7500, 75000, 300000, 10000, 500, 40000],
        0x1bf2_d9fe_93ee_accf,
    ),
    (
        0.02,
        &[5, 25, 3000, 30000, 120000, 4000, 200, 16000],
        0x2dd3_3cd5_dbbc_7a62,
    ),
    (
        0.01,
        &[5, 25, 1500, 15000, 60000, 2000, 100, 8000],
        0x6ec4_2664_53f1_15ff,
    ),
    (
        0.001,
        &[5, 25, 150, 1500, 6000, 200, 10, 800],
        0xb886_627e_e834_c560,
    ),
    (5000.0, &[5000], 0x6add_230a_7d35_5070),
    (500.0, &[500], 0x220b_84a7_de06_59c4),
];

pub fn check_fingerprint(fixture: &Fixture) -> Result<(), String> {
    let (rows, checksum) = checksum_tables(&fixture.tables);
    let key = fixture.scale_or_rows;
    match PINS.iter().find(|(k, _, _)| *k == key) {
        Some((_, pinned_rows, pinned_sum)) if *pinned_rows == rows && *pinned_sum == checksum => {
            Ok(())
        }
        _ => Err(format!(
            "fixture fingerprint mismatch for {} (size {key}): generated rows {rows:?} checksum {checksum:#018x}; \
             the generator changed, so results are not comparable with the baseline",
            fixture.workload.name()
        )),
    }
}
