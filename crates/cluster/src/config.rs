//! Cluster configuration.
//!
//! §VII "Static configuration": configuration is fixed at startup and
//! validated loudly; per-query knobs live in [`presto_common::Session`].

use presto_cache::MetadataCacheConfig;
use presto_common::chaos::FaultPlane;
use std::sync::Arc;
use std::time::Duration;

/// Shape and limits of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub workers: usize,
    /// Number of racks; workers are assigned round-robin. The split
    /// scheduler prefers node-local, then rack-local placement (§IV-D2:
    /// "Network-constrained deployments at Facebook can use this mechanism
    /// to express to the engine a preference for rack-local reads over
    /// rack-remote reads").
    pub racks: usize,
    /// Executor threads per worker.
    pub threads_per_worker: usize,
    /// Parallel drivers per leaf pipeline per task (§IV-C4).
    pub leaf_parallelism: usize,
    /// General (query) memory pool per node, in bytes (§IV-F2).
    pub node_memory_bytes: u64,
    /// Reserved pool per node, in bytes.
    pub reserved_pool_bytes: u64,
    /// When the general pool is exhausted and the reserved pool occupied,
    /// kill the query using the most memory instead of stalling ("Clusters
    /// can be configured to instead kill the query that unblocks most
    /// nodes").
    pub kill_on_memory_exhausted: bool,
    /// Maximum concurrently-running queries (admission control; the queue
    /// policy of §III).
    pub max_concurrent_queries: usize,
    /// Maximum queries waiting for a run slot; an arrival that would wait
    /// beyond it is rejected. At `0` a query runs only if a slot is free.
    pub max_queued_queries: usize,
    /// Splits fetched from a connector per enumeration batch (§IV-D3).
    pub split_batch_size: usize,
    /// Maximum queued splits per task before assignment pauses (keeping
    /// queues small lets the cluster adapt to stragglers, §IV-D3).
    pub max_queued_splits_per_task: usize,
    /// Metadata-cache sizing: metastore (schemas + statistics), PORC
    /// footers, and split listings (§IV-B, §V-C). Retained bytes are
    /// charged as system memory against every worker's general pool.
    pub cache: MetadataCacheConfig,
    /// Capacity (in events) of the cluster-wide trace timeline ring
    /// (§VII). Old events are overwritten once full; `0` disables
    /// tracing entirely.
    pub trace_capacity: usize,
    /// Queries retained in the bounded query-history store backing
    /// `system.runtime.queries`/`tasks`/`operators` (§VII). Oldest entries
    /// are evicted once full (the eviction count is exported); `0`
    /// disables retention so system tables only show live queries.
    pub query_history_capacity: usize,
    /// Failure-detector grace period (§IV-G): a worker whose heartbeat
    /// counter stops advancing for this long is declared lost — its state
    /// flips to `Lost`, every query with a task on it fails with the
    /// retryable `WorkerFailed` code, and placement excludes it. Must be
    /// much larger than the worker quanta (executor threads heartbeat
    /// between quanta). `Duration::ZERO` disables the detector.
    pub liveness_timeout: Duration,
    /// Injected faults (§IV-G): every task consults this plane at split
    /// open, page read, spill write and frame decode. `None` injects
    /// nothing.
    pub faults: Option<Arc<FaultPlane>>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 4,
            racks: 2,
            threads_per_worker: 2,
            leaf_parallelism: 2,
            node_memory_bytes: 512 << 20,
            reserved_pool_bytes: 128 << 20,
            kill_on_memory_exhausted: false,
            max_concurrent_queries: 100,
            max_queued_queries: 1000,
            split_batch_size: 64,
            max_queued_splits_per_task: 32,
            cache: MetadataCacheConfig::default(),
            trace_capacity: 4096,
            query_history_capacity: 256,
            liveness_timeout: Duration::from_secs(2),
            faults: None,
        }
    }
}

impl ClusterConfig {
    /// A small latency-free config for tests.
    pub fn test() -> ClusterConfig {
        ClusterConfig {
            workers: 2,
            threads_per_worker: 2,
            ..Default::default()
        }
    }

    /// Validate invariants, failing loudly at startup (§VII).
    pub fn validate(&self) -> presto_common::Result<()> {
        let fail = |msg: &str| Err(presto_common::PrestoError::user(msg.to_string()));
        if self.workers == 0 {
            return fail("cluster needs at least one worker");
        }
        if self.racks == 0 {
            return fail("cluster needs at least one rack");
        }
        if self.threads_per_worker == 0 {
            return fail("workers need at least one thread");
        }
        if self.leaf_parallelism == 0 {
            return fail("leaf parallelism must be at least 1");
        }
        if self.max_concurrent_queries == 0 {
            return fail("max_concurrent_queries must be at least 1");
        }
        if self.split_batch_size == 0 {
            return fail("split_batch_size must be at least 1");
        }
        if self.max_queued_splits_per_task == 0 {
            return fail("max_queued_splits_per_task must be at least 1");
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        ClusterConfig::default().validate().unwrap();
    }

    #[test]
    fn invalid_configs_fail_loudly() {
        let invalid = [
            ClusterConfig {
                workers: 0,
                ..Default::default()
            },
            ClusterConfig {
                threads_per_worker: 0,
                ..Default::default()
            },
            ClusterConfig {
                max_concurrent_queries: 0,
                ..Default::default()
            },
            // A zero-capacity split queue would never accept a split, so a
            // non-bucketed scan would wait for queue space forever.
            ClusterConfig {
                max_queued_splits_per_task: 0,
                ..Default::default()
            },
            ClusterConfig {
                split_batch_size: 0,
                ..Default::default()
            },
        ];
        for config in invalid {
            assert!(config.validate().is_err(), "{config:?}");
        }
    }
}
