//! The integration tests' one way to build a cluster, and what they share.
//!
//! §IV-G: a query that finishes, fails or is cancelled releases everything
//! it held. [`TestCluster`] holds every test cluster to that: when it drops
//! it waits up to [`GRACE`] for [`Cluster::await_quiescent`] and panics with
//! the residue, so no test can forget the check. The rest of the kit is the
//! fixtures and row helpers that several test files need.
//!
//! A dev-dependency only. A crate's `#[cfg(test)]` modules cannot use it
//! when the kit depends on that crate: they would see a second copy of its
//! types.

use presto_cache::MetadataCache;
use presto_cluster::{Cluster, ClusterConfig, QueryError};
use presto_common::{DataType, Schema, Session, Value};
use presto_connector::{CatalogManager, Connector};
use presto_connectors::MemoryConnector;
use presto_page::Page;
use presto_workload::TpchGenerator;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// How long a dropped [`TestCluster`] may take to become quiescent.
pub const GRACE: Duration = Duration::from_secs(5);

/// A [`Cluster`] that proves, when it drops, that every query it ran has
/// ended and left nothing behind. It derefs to the cluster. The check is
/// skipped while the thread is already panicking, so a failing test
/// reports its own failure.
pub struct TestCluster(Cluster);

impl TestCluster {
    pub fn start(config: ClusterConfig, catalogs: CatalogManager) -> TestCluster {
        TestCluster(Cluster::start(config, catalogs).expect("the test cluster starts"))
    }

    /// Start around `cache`, the metadata cache the connectors share.
    pub fn start_with_cache(
        config: ClusterConfig,
        catalogs: CatalogManager,
        cache: Arc<MetadataCache>,
    ) -> TestCluster {
        TestCluster(
            Cluster::start_with_cache(config, catalogs, cache).expect("the test cluster starts"),
        )
    }

    /// Panic with the residue unless the cluster is quiescent within
    /// `grace`.
    pub fn quiescent_within(&self, grace: Duration) {
        if let Err(residue) = self.0.await_quiescent(grace) {
            panic!("cluster {residue}");
        }
    }

    /// Once the cluster is quiescent, no driver slept through the event
    /// that should have woken it: every worker's safety net fired zero
    /// times.
    pub fn assert_no_lost_wakeups(&self) {
        self.quiescent_within(GRACE);
        let fires: Vec<u64> = (self.0.metrics_snapshot().workers.iter())
            .map(|w| w.wakeups.safety_net_fires)
            .collect();
        assert!(
            fires.iter().all(|&n| n == 0),
            "lost wakeups (safety-net fires per worker): {fires:?}"
        );
    }
}

impl Deref for TestCluster {
    type Target = Cluster;

    fn deref(&self) -> &Cluster {
        &self.0
    }
}

impl Drop for TestCluster {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.quiescent_within(GRACE);
        }
    }
}

/// A `memory` catalog, built table by table with [`MemoryCatalog::table`].
pub fn memory_catalog() -> MemoryCatalog {
    MemoryCatalog(MemoryConnector::new())
}

pub struct MemoryCatalog(Arc<MemoryConnector>);

impl MemoryCatalog {
    /// Load `rows` as table `name`, in pages of `page_rows` rows, and
    /// analyze it.
    pub fn table(
        self,
        name: &str,
        schema: Schema,
        rows: &[Vec<Value>],
        page_rows: usize,
    ) -> MemoryCatalog {
        let pages = (rows.chunks(page_rows.max(1)))
            .map(|chunk| Page::from_rows(&schema, chunk))
            .collect();
        self.0.load_table(name, schema, pages);
        self.0.analyze(name).expect("the table was just loaded");
        self
    }

    /// The catalogs, with this one mounted as `memory`, and its connector.
    pub fn build(self) -> (CatalogManager, Arc<MemoryConnector>) {
        let mut catalogs = CatalogManager::new();
        catalogs.register("memory", Arc::clone(&self.0) as Arc<dyn Connector>);
        (catalogs, self.0)
    }
}

/// The eight TPC-H tables at `scale`, as the `memory` catalog.
pub fn tpch_catalog(scale: f64) -> CatalogManager {
    let mem = MemoryConnector::new();
    TpchGenerator::new(scale).load_memory(&mem);
    let mut catalogs = CatalogManager::new();
    catalogs.register("memory", mem as Arc<dyn Connector>);
    catalogs
}

/// `orders(orderkey, custkey, totalprice)`, 1 000 rows over 100
/// customers, and `lineitem(orderkey, tax)`, five rows per order, as the
/// `memory` catalog.
pub fn orders_and_lineitem() -> CatalogManager {
    let bigint = Value::Bigint;
    let orders: Vec<Vec<Value>> = (0..1000)
        .map(|i| vec![bigint(i), bigint(i % 100), Value::Double((i % 500) as f64)])
        .collect();
    let lineitem: Vec<Vec<Value>> = (0..5000)
        .map(|i| vec![bigint(i % 1000), Value::Double(0.05)])
        .collect();
    let orders_schema = Schema::of(&[
        ("orderkey", DataType::Bigint),
        ("custkey", DataType::Bigint),
        ("totalprice", DataType::Double),
    ]);
    let lineitem_schema = Schema::of(&[("orderkey", DataType::Bigint), ("tax", DataType::Double)]);
    let (catalogs, _) = memory_catalog()
        .table("orders", orders_schema, &orders, 100)
        .table("lineitem", lineitem_schema, &lineitem, 500)
        .build();
    catalogs
}

/// `rows` in sorted order, the order-free form results are compared in.
pub fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// The sorted rows of `sql` under `session`, or its error.
pub fn sorted_rows(
    cluster: &Cluster,
    sql: &str,
    session: &Session,
) -> Result<Vec<Vec<Value>>, QueryError> {
    Ok(sorted(cluster.execute_with_session(sql, session)?.rows()))
}

/// The sorted rows of `sql` under `session`; panics, naming `sql`, if the
/// query fails.
pub fn run_sorted(cluster: &Cluster, sql: &str, session: &Session) -> Vec<Vec<Value>> {
    sorted_rows(cluster, sql, session).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// Equality up to floating-point summation order: distributed plans sum
/// doubles in different orders, so doubles compare with a relative
/// tolerance.
pub fn rows_equal(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(x, y)| match (x, y) {
                    (Value::Double(p), Value::Double(q)) => {
                        (p - q).abs() <= p.abs().max(q.abs()).max(1.0) * 1e-9
                    }
                    _ => x == y,
                })
        })
}

/// A directory under the system temp dir, named for `tag` and this
/// process: emptied when made, removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("presto-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ScratchDir(dir)
    }

    /// Entries in the directory; 0 if it does not exist.
    pub fn file_count(&self) -> usize {
        std::fs::read_dir(&self.0).map_or(0, |d| d.count())
    }
}

impl Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
