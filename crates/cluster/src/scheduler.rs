//! Stage, task, and split scheduling (§IV-D).

use presto_common::wake::{Watcher, SAFETY_NET};
use presto_common::{PrestoError, Result};
use presto_connector::CatalogManager;
use presto_exec::scan::SplitQueue;
use presto_planner::{FragmentPartitioning, OutputPartitioning, PhysicalPlan, PlanFragment};
use std::sync::Arc;
use std::time::Duration;

use crate::config::ClusterConfig;
use crate::worker::QueryState;

/// Where one fragment's tasks run: `tasks[i]` is the worker index of task i.
#[derive(Debug, Clone)]
pub struct Placement {
    pub fragment: u32,
    pub tasks: Vec<usize>,
    /// Task index == bucket index (co-located scheduling, §IV-C3).
    pub bucketed: bool,
}

/// Decide task counts and worker assignments for every fragment (§IV-D2).
/// `available` lists the indices of workers placement may use — healthy
/// `Active` nodes only; draining or lost workers are excluded (§IV-G).
/// Must be non-empty.
pub fn place_fragments(
    plan: &PhysicalPlan,
    config: &ClusterConfig,
    available: &[usize],
) -> Vec<Placement> {
    // Which fragments consume a round-robin (scaled-writer) exchange?
    let round_robin_consumers: Vec<u32> = plan
        .fragments
        .iter()
        .filter(|f| f.output == OutputPartitioning::RoundRobin)
        .map(|f| consumer_of(plan, f.id))
        .collect();
    let workers = available.len();
    plan.fragments
        .iter()
        .map(|f| {
            let (count, bucketed) = match &f.partitioning {
                FragmentPartitioning::Source {
                    bucket_count: Some(n),
                } => (*n, true),
                // "If there are no constraints … a leaf stage task is
                // scheduled on every worker node in the cluster."
                FragmentPartitioning::Source { bucket_count: None } => (workers, false),
                FragmentPartitioning::Hash { count } => {
                    if round_robin_consumers.contains(&f.id) {
                        // Writer fragment: create the scaling headroom.
                        (config.max_writer_tasks, false)
                    } else {
                        (*count, false)
                    }
                }
                FragmentPartitioning::Single | FragmentPartitioning::ScaledWriter => {
                    if round_robin_consumers.contains(&f.id) {
                        (config.max_writer_tasks, false)
                    } else {
                        (1, false)
                    }
                }
            };
            // Round-robin placement, offset by fragment id so single-task
            // stages spread across the cluster.
            let tasks = (0..count.max(1))
                .map(|t| available[(t + f.id as usize) % workers])
                .collect();
            Placement {
                fragment: f.id,
                tasks,
                bucketed,
            }
        })
        .collect()
}

/// The fragment that reads fragment `id`'s output (the root has none and
/// returns itself).
pub fn consumer_of(plan: &PhysicalPlan, id: u32) -> u32 {
    plan.fragments
        .iter()
        .find(|f| f.source_fragments().contains(&id))
        .map(|f| f.id)
        .unwrap_or(id)
}

/// Fragments feeding the *build* side of joins in `fragment` — phased
/// scheduling (§IV-D1) starts these before the fragment itself so "the
/// tasks to schedule streaming of the left side will not be scheduled
/// until the hash table is built".
pub fn build_side_sources(fragment: &PlanFragment) -> Vec<u32> {
    use presto_planner::PlanNode;
    fn remote_sources(node: &PlanNode, out: &mut Vec<u32>) {
        if let PlanNode::RemoteSource { fragment, .. } = node {
            out.push(*fragment);
        }
        for c in node.children() {
            remote_sources(c, out);
        }
    }
    fn walk(node: &PlanNode, out: &mut Vec<u32>) {
        if let PlanNode::Join { right, .. } = node {
            remote_sources(right, out);
        }
        for c in node.children() {
            walk(c, out);
        }
    }
    let mut out = Vec::new();
    walk(&fragment.root, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

/// One scan's split-feeding state across the tasks of a leaf stage.
pub struct SplitFeeder<'a> {
    pub catalogs: &'a CatalogManager,
    pub config: &'a ClusterConfig,
}

impl SplitFeeder<'_> {
    /// Enumerate splits lazily and assign them to task queues (§IV-D3):
    /// bucketed splits go to their bucket's task; others to the shortest
    /// queue among candidate tasks (respecting address constraints).
    /// Returns the number of splits assigned.
    ///
    /// When a dynamic filter targets this scan, every split still
    /// unassigned once the filter arrives is re-checked against the
    /// narrowed domain and dropped if it provably holds no matching rows —
    /// the coarsest of the three pruning levels. Enumeration never blocks
    /// on the filter: splits assigned before it arrives are pruned later
    /// at stripe and row granularity.
    #[allow(clippy::too_many_arguments)]
    pub fn feed(
        &self,
        catalog: &str,
        table: &str,
        layout: &str,
        predicate: &presto_connector::TupleDomain,
        queues: &[(usize /* worker */, Arc<SplitQueue>)],
        bucketed: bool,
        query: &QueryState,
        node_of_worker: &dyn Fn(usize) -> presto_common::NodeId,
        dynamic_filter: Option<&presto_exec::ScanDynamicFilter>,
    ) -> Result<u64> {
        let connector = self.catalogs.catalog(catalog)?;
        let mut source = connector.split_source(table, layout, predicate)?;
        let mut assigned = 0u64;
        loop {
            if query.is_cancelled() {
                break;
            }
            let batch = source.next_batch(self.config.split_batch_size)?;
            if batch.is_empty() {
                if source.is_finished() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(100));
                continue;
            }
            for split in batch {
                if let (Some(df), Some(split_domain)) = (dynamic_filter, &split.domain) {
                    if df.ready() {
                        if let Some(table_domain) = df.table_domain() {
                            if presto_exec::dynfilter::split_pruned(&table_domain, split_domain) {
                                df.note_splits_pruned(1);
                                continue;
                            }
                        }
                    }
                }
                if bucketed {
                    let bucket = split.bucket.ok_or_else(|| {
                        PrestoError::internal("bucketed stage received a split without a bucket")
                    })?;
                    let (_, queue) = &queues[bucket % queues.len()];
                    queue.add(split);
                    assigned += 1;
                    continue;
                }
                // Candidate tasks: node-local first, then rack-local, then
                // anyone — the plugin-provided topology hierarchy of §IV-D2.
                let rack_of = |node: presto_common::NodeId| node.0 as usize % self.config.racks;
                let candidates: Vec<usize> = if split.addresses.is_empty() {
                    (0..queues.len()).collect()
                } else {
                    let node_local: Vec<usize> = (0..queues.len())
                        .filter(|&i| split.addresses.contains(&node_of_worker(queues[i].0)))
                        .collect();
                    if !node_local.is_empty() {
                        node_local
                    } else {
                        let preferred_racks: Vec<usize> =
                            split.addresses.iter().map(|&n| rack_of(n)).collect();
                        let rack_local: Vec<usize> = (0..queues.len())
                            .filter(|&i| {
                                preferred_racks.contains(&rack_of(node_of_worker(queues[i].0)))
                            })
                            .collect();
                        if !rack_local.is_empty() {
                            rack_local
                        } else {
                            (0..queues.len()).collect()
                        }
                    }
                };
                // Shortest queue wins; wait while all candidates are full
                // ("Keeping these queues small allows the system to adapt"),
                // for a scan driver to take a split or the query to end.
                let mut watcher: Option<Watcher> = None;
                loop {
                    // Once there is something to wait for, register before
                    // looking.
                    let seen = watcher.as_mut().map(|watcher| {
                        watcher.arm(|w| {
                            query.on_cancel(w);
                            for &i in &candidates {
                                queues[i].1.on_space(w);
                            }
                        })
                    });
                    if query.is_cancelled() {
                        return Ok(assigned);
                    }
                    let best = candidates
                        .iter()
                        .copied()
                        .min_by_key(|&i| queues[i].1.queued_len())
                        .expect("at least one candidate");
                    if queues[best].1.queued_len() < self.config.max_queued_splits_per_task {
                        queues[best].1.add(split);
                        assigned += 1;
                        break;
                    }
                    match (&watcher, seen) {
                        (Some(watcher), Some(seen)) => {
                            watcher.wait(seen, SAFETY_NET);
                        }
                        // All full on the first look: look again, registered.
                        _ => watcher = Some(Watcher::new()),
                    }
                }
            }
        }
        for (_, q) in queues {
            q.no_more_splits();
        }
        Ok(assigned)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::{DataType, Schema, Session, Value};
    use presto_connectors::MemoryConnector;
    use presto_sql::parse_statement;

    fn plan_for(sql: &str) -> (PhysicalPlan, CatalogManager) {
        let mem = MemoryConnector::new();
        let schema = Schema::of(&[("k", DataType::Bigint)]);
        let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Bigint(i)]).collect();
        mem.load_rows("t", schema, &rows);
        let mut catalogs = CatalogManager::new();
        catalogs.register("memory", mem as Arc<dyn presto_connector::Connector>);
        let plan = presto_planner::plan_statement(
            &parse_statement(sql).unwrap(),
            &Session::default(),
            &catalogs,
        )
        .unwrap();
        (plan, catalogs)
    }

    #[test]
    fn leaf_stages_span_all_workers() {
        let (plan, _) = plan_for("SELECT * FROM t");
        let config = ClusterConfig {
            workers: 4,
            ..ClusterConfig::test()
        };
        let placements = place_fragments(&plan, &config, &[0, 1, 2, 3]);
        let leaf = placements
            .iter()
            .find(|p| {
                matches!(
                    plan.fragment(p.fragment).partitioning,
                    FragmentPartitioning::Source { .. }
                )
            })
            .unwrap();
        assert_eq!(leaf.tasks.len(), 4);
    }

    #[test]
    fn hash_stages_get_fixed_task_count() {
        let (plan, _) = plan_for("SELECT k, count(*) FROM t GROUP BY k");
        let config = ClusterConfig {
            workers: 2,
            ..ClusterConfig::test()
        };
        let placements = place_fragments(&plan, &config, &[0, 1]);
        let hash = placements
            .iter()
            .find(|p| {
                matches!(
                    plan.fragment(p.fragment).partitioning,
                    FragmentPartitioning::Hash { .. }
                )
            })
            .expect("hash stage");
        assert_eq!(hash.tasks.len(), Session::default().hash_partition_count);
    }

    #[test]
    fn placement_uses_only_available_workers() {
        // Draining/lost workers are excluded from the available set; no
        // task may land on them (§IV-G).
        let (plan, _) = plan_for("SELECT k, count(*) FROM t GROUP BY k");
        let config = ClusterConfig {
            workers: 4,
            ..ClusterConfig::test()
        };
        let placements = place_fragments(&plan, &config, &[1, 3]);
        for p in &placements {
            assert!(!p.tasks.is_empty());
            for &w in &p.tasks {
                assert!(w == 1 || w == 3, "task placed on unavailable worker {w}");
            }
        }
    }

    #[test]
    fn rack_local_placement_preferred_over_remote() {
        use presto_connector::{FixedSplitSource, Split, SplitSource as _};
        // A split pinned to node 2 (rack 0 with 2 racks) has no task on
        // node 2; tasks exist on nodes 0 (rack 0) and 1 (rack 1). The
        // feeder must choose the rack-local node 0.
        let split = Split {
            catalog: "memory".into(),
            table: "t".into(),
            payload: std::sync::Arc::new(()),
            addresses: vec![presto_common::NodeId(2)],
            estimated_rows: 1,
            bucket: None,
            domain: None,
            info: "pinned".into(),
        };
        let mut source = FixedSplitSource::new(vec![split]);
        let batch = source.next_batch(10).unwrap();
        let config = ClusterConfig {
            racks: 2,
            ..ClusterConfig::test()
        };
        let rack_of = |n: presto_common::NodeId| n.0 as usize % config.racks;
        assert_eq!(
            rack_of(presto_common::NodeId(2)),
            rack_of(presto_common::NodeId(0))
        );
        assert_ne!(
            rack_of(presto_common::NodeId(2)),
            rack_of(presto_common::NodeId(1))
        );
        let _ = batch;
    }

    #[test]
    fn split_feeder_prefers_shortest_queue() {
        let mem = MemoryConnector::new();
        let schema = Schema::of(&[("k", DataType::Bigint)]);
        let pages: Vec<presto_page::Page> = (0..40)
            .map(|i| presto_page::Page::from_rows(&schema, &[vec![Value::Bigint(i)]]))
            .collect();
        mem.load_table("t", schema, pages);
        let mut catalogs = CatalogManager::new();
        catalogs.register("memory", mem as Arc<dyn presto_connector::Connector>);
        let config = ClusterConfig::test();
        let feeder = SplitFeeder {
            catalogs: &catalogs,
            config: &config,
        };
        let q1 = SplitQueue::new();
        let q2 = SplitQueue::new();
        let state = QueryState::new(presto_common::QueryId(0));
        let assigned = feeder
            .feed(
                "memory",
                "t",
                "default",
                &presto_connector::TupleDomain::all(),
                &[(0, Arc::clone(&q1)), (1, Arc::clone(&q2))],
                false,
                &state,
                &|w| presto_common::NodeId(w as u32),
                None,
            )
            .unwrap();
        assert!(assigned >= 10);
        // Balanced assignment: neither queue hoards everything.
        let (a, b) = (q1.queued_len(), q2.queued_len());
        assert!(a > 0 && b > 0, "a={a} b={b}");
        assert!(q1.is_exhausted() || q1.queued_len() > 0);
    }
}
