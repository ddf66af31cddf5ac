//! Per-query session configuration.
//!
//! A [`Session`] carries the knobs a query runs under. The defaults mirror
//! the behaviour the paper describes for production; benchmarks flip
//! individual flags to produce ablations (e.g. Fig. 6 disables cost-based
//! optimization to model the "no stats" configuration, the §V-B bench turns
//! off compiled expression evaluation, the §V-D bench disables lazy loading).
//!
//! A setting only belongs here if some test, bench or client sets it.
//! Sizing with one value is a constant at its one reader instead: page
//! and shuffle targets and exchange sizing in `presto-exec`, hash-stage
//! width and broadcast threshold in `presto-planner`, the §IV-F1 quanta
//! and §IV-E3 writer scaling in `presto-cluster`.

use std::time::Duration;

/// Join distribution strategy preference (§IV-C: "join strategy selection").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinDistribution {
    /// Let the cost-based optimizer decide using build-side size estimates.
    Automatic,
    /// Always replicate the build side to every probe task.
    Broadcast,
    /// Always hash-partition both sides.
    Partitioned,
}

/// Stage scheduling policy (§IV-D1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Schedule all stages concurrently; minimizes wall-clock latency.
    AllAtOnce,
    /// Schedule strongly-connected components of the data flow graph in
    /// topological order (e.g. hash-build before probe); minimizes memory.
    Phased,
}

/// Per-query configuration. Cheap to clone; the coordinator snapshots one
/// per query at admission time.
#[derive(Debug, Clone)]
pub struct Session {
    /// Default catalog for unqualified table names.
    pub catalog: String,
    /// Use the compiled (fused, vectorized) expression evaluator instead of
    /// the row interpreter (§V-B).
    pub compiled_expressions: bool,
    /// Let connectors produce lazy blocks that decode on first access (§V-D).
    pub lazy_loading: bool,
    /// Operate directly on dictionary/RLE blocks where possible (§V-E).
    pub process_compressed: bool,
    /// Enable stats-based join reordering (§IV-C).
    pub join_reordering: bool,
    /// Join distribution strategy selection.
    pub join_distribution: JoinDistribution,
    /// Stage scheduling policy.
    pub scheduling_policy: SchedulingPolicy,
    /// Serialized shuffle pages at least this long also pass through the
    /// frame's opt-in LZ stage. The page codec's lane encodings already
    /// size every column to its data (§V-E), so the default, `usize::MAX`,
    /// leaves LZ off.
    pub shuffle_compression_min_bytes: usize,
    /// Allow spilling revocable state (hash aggregations, sorts, grace
    /// hash joins) to disk.
    pub spill_enabled: bool,
    /// Directory spill run files are written to. `None` uses the OS temp
    /// directory.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Upper bound on bytes one task may hold in spill files at once;
    /// exceeding it fails the query with an insufficient-resources error
    /// (`0` = unlimited).
    pub spill_max_bytes: u64,
    /// Global (cluster-aggregated) user memory limit per query, in bytes.
    pub query_max_memory: u64,
    /// Per-node user memory limit per query, in bytes.
    pub query_max_memory_per_node: u64,
    /// Per-node total (user + system) memory limit per query, in bytes.
    pub query_max_total_memory_per_node: u64,
    /// Transparent retries for transient external failures (§IV-G).
    pub max_transient_retries: u32,
    /// Coordinator-level whole-query retries for retryable failures
    /// (worker loss, transient external errors that exhausted low-level
    /// retries). `0` disables, matching the paper's stance that query
    /// retry is the client's job; clients that want it opt in here.
    pub query_retry_attempts: u32,
    /// Base delay of the exponential backoff between query retry attempts
    /// (doubled per attempt, plus deterministic jitter).
    pub query_retry_backoff: Duration,
    /// Push join build-side key domains into probe-side scans at runtime
    /// (split re-pruning, stripe pruning, row-level membership filter).
    pub dynamic_filtering: bool,
    /// How long a probe-side scan waits for its dynamic filter before
    /// proceeding unpruned. Bounds added latency; never affects results.
    pub dynamic_filter_wait: Duration,
    /// Absorb a partial aggregation above a leaf scan→filter→project chain
    /// into the leaf operator (keys hashed right after the projection).
    /// Every leaf chain runs as one operator either way; `false` only runs
    /// the partial aggregate as its own operator. Never correctness-bearing.
    pub pipeline_fusion: bool,
}

impl Default for Session {
    fn default() -> Self {
        Session {
            catalog: "memory".to_string(),
            compiled_expressions: true,
            lazy_loading: true,
            process_compressed: true,
            join_reordering: true,
            join_distribution: JoinDistribution::Automatic,
            scheduling_policy: SchedulingPolicy::AllAtOnce,
            shuffle_compression_min_bytes: usize::MAX,
            spill_enabled: false,
            spill_dir: None,
            spill_max_bytes: 16 << 30,
            query_max_memory: 4 << 30,
            query_max_memory_per_node: 1 << 30,
            query_max_total_memory_per_node: 2 << 30,
            max_transient_retries: 3,
            query_retry_attempts: 0,
            query_retry_backoff: Duration::from_millis(50),
            dynamic_filtering: true,
            dynamic_filter_wait: Duration::from_millis(500),
            pipeline_fusion: true,
        }
    }
}

impl Session {
    /// A session with the given default catalog and default knobs.
    pub fn for_catalog(catalog: impl Into<String>) -> Session {
        Session {
            catalog: catalog.into(),
            ..Session::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_production_behaviour() {
        let s = Session::default();
        assert!(s.compiled_expressions);
        assert!(s.lazy_loading);
        assert!(s.process_compressed);
        assert!(s.join_reordering);
        assert_eq!(s.join_distribution, JoinDistribution::Automatic);
        assert_eq!(s.scheduling_policy, SchedulingPolicy::AllAtOnce);
        // Facebook deployments do not spill (§IV-F2).
        assert!(!s.spill_enabled);
        // Spill location defaults to the OS temp dir with a finite disk
        // budget, so enabling spill cannot silently fill a disk.
        assert!(s.spill_dir.is_none());
        assert!(s.spill_max_bytes > 0);
        // Whole-query retry is external by default (§IV-G): off unless the
        // client opts in.
        assert_eq!(s.query_retry_attempts, 0);
        // Dynamic filtering is on by default; the wait deadline bounds the
        // latency cost of waiting for the build side.
        assert!(s.dynamic_filtering);
        assert!(s.dynamic_filter_wait > Duration::ZERO);
        // Shuffle frames carry lane-encoded pages (§V-E); the byte-level LZ
        // stage is opt-in, off by default.
        assert_eq!(s.shuffle_compression_min_bytes, usize::MAX);
        // The §IV-F2 limits: the cluster-wide per-query limit is the
        // largest, and a node's total (user + system) limit is at least its
        // user limit.
        assert!(s.query_max_memory >= s.query_max_total_memory_per_node);
        assert!(s.query_max_total_memory_per_node >= s.query_max_memory_per_node);
        // Transient external failures are retried a few times (§IV-G).
        assert!(s.max_transient_retries > 0);
        // Absorbing the partial aggregate into the leaf operator is the
        // production path; disabling it is an ablation knob like
        // `compiled_expressions`.
        assert!(s.pipeline_fusion);
    }

    #[test]
    fn for_catalog_sets_catalog() {
        assert_eq!(Session::for_catalog("hive").catalog, "hive");
    }
}
