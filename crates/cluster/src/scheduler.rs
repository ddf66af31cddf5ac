//! Stage, task, and split scheduling (§IV-D).

use presto_common::wake::{Watcher, SAFETY_NET};
use presto_common::{NodeId, PrestoError, QueryId, Result};
use presto_connector::{Split, SplitSource};
use presto_exec::scan::SplitQueue;
use presto_exec::ScanDynamicFilter;
use presto_planner::{FragmentPartitioning, OutputPartitioning, PhysicalPlan, PlanFragment};
use std::collections::VecDeque;
use std::sync::Arc;

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

/// Tasks provisioned for a writer fragment: the upper bound of adaptive
/// writer scaling (§IV-E3). The coordinator activates them one at a time
/// as the producers' output buffers back up.
const MAX_WRITER_TASKS: usize = 4;

/// Decide task counts and worker assignments for every fragment (§IV-D2).
/// `available` lists the indices of workers placement may use — healthy
/// `Active` nodes only; draining or lost workers are excluded (§IV-G).
/// Must be non-empty.
pub fn place_fragments(plan: &PhysicalPlan, query: QueryId, available: &[usize]) -> Vec<Placement> {
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
                // Writer fragment: create the scaling headroom.
                _ if round_robin_consumers.contains(&f.id) => (MAX_WRITER_TASKS, false),
                FragmentPartitioning::Hash { count } => (*count, false),
                FragmentPartitioning::Single => (1, false),
            };
            // Round-robin placement, offset by fragment id so a query's
            // single-task stages spread across the cluster — and by query
            // id, so one-fragment queries do not all land on one worker.
            let count = count.max(1);
            let offset = f.id as usize + if count == 1 { query.0 as usize } else { 0 };
            let tasks = (0..count)
                .map(|t| available[(t + offset) % workers])
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

/// Where one pass of [`SplitFeeder::feed`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// Enumeration is over (or the query ended) and every queue has been
    /// told there are no more splits.
    Done,
    /// Every queue the next split may go to is full; splits remain.
    Full,
}

/// One scan's split feeding across the tasks of its stage (§IV-D3):
/// bucketed splits go to their bucket's task; others to the shortest queue
/// among candidate tasks (respecting address constraints).
///
/// When a dynamic filter targets this scan, every split still unassigned
/// once the filter arrives is re-checked against the narrowed domain and
/// dropped if it provably holds no matching rows — the coarsest of the
/// three pruning levels. Enumeration never blocks on the filter: splits
/// assigned before it arrives are pruned later at stripe and row
/// granularity.
pub struct SplitFeeder {
    source: Box<dyn SplitSource>,
    /// Each task's split queue, with the node the task runs on.
    queues: Vec<(NodeId, Arc<SplitQueue>)>,
    /// Task index == bucket index (co-located scheduling, §IV-C3).
    bucketed: bool,
    dynamic_filter: Option<Arc<ScanDynamicFilter>>,
    batch_size: usize,
    queue_capacity: usize,
    racks: usize,
    /// Splits taken from the source and not yet assigned, in order.
    pending: VecDeque<Split>,
    assigned: u64,
}

impl SplitFeeder {
    /// Feed `source`'s splits to `queues`; task `i` runs on node
    /// `queues[i].0`.
    pub fn new(
        source: Box<dyn SplitSource>,
        queues: Vec<(NodeId, Arc<SplitQueue>)>,
        bucketed: bool,
        dynamic_filter: Option<Arc<ScanDynamicFilter>>,
        config: &ClusterConfig,
    ) -> SplitFeeder {
        SplitFeeder {
            source,
            queues,
            bucketed,
            dynamic_filter,
            batch_size: config.split_batch_size,
            queue_capacity: config.max_queued_splits_per_task,
            racks: config.racks,
            pending: VecDeque::new(),
            assigned: 0,
        }
    }

    /// Splits assigned so far.
    pub fn assigned(&self) -> u64 {
        self.assigned
    }

    /// Assign splits until enumeration ends or every candidate queue of the
    /// next split is full ("Keeping these queues small allows the system to
    /// adapt"). Never waits, so the coordinator runs it inline at
    /// submission: a scan whose splits all fit is fed without a thread, and
    /// the scans of a co-located fragment cannot deadlock on each other's
    /// full queues.
    pub fn feed(&mut self, query: &QueryState) -> Result<Feed> {
        loop {
            if query.is_cancelled() {
                return Ok(self.done());
            }
            let Some(split) = self.pending.pop_front() else {
                if self.source.is_finished() {
                    return Ok(self.done());
                }
                let batch = self.source.next_batch(self.batch_size)?;
                if batch.is_empty() {
                    if self.source.is_finished() {
                        return Ok(self.done());
                    }
                    return Err(PrestoError::internal(
                        "split source returned an empty batch before it finished",
                    ));
                }
                self.pending.extend(batch);
                continue;
            };
            if self.pruned(&split) {
                continue;
            }
            let queue = if self.bucketed {
                let bucket = split.bucket.ok_or_else(|| {
                    PrestoError::internal("bucketed stage received a split without a bucket")
                })?;
                &self.queues[bucket % self.queues.len()].1
            } else {
                let best = self
                    .candidates(&split)
                    .into_iter()
                    .min_by_key(|&i| self.queues[i].1.queued_len())
                    .expect("at least one candidate");
                let queue = &self.queues[best].1;
                if queue.queued_len() >= self.queue_capacity {
                    self.pending.push_front(split);
                    return Ok(Feed::Full);
                }
                queue
            };
            queue.add(split);
            self.assigned += 1;
        }
    }

    /// Feed to the end, waiting for a scan driver to take a split whenever
    /// the queues are full: the body of a scan's feeder thread once the
    /// inline pass returned [`Feed::Full`]. Streaming starts before
    /// enumeration ends (§IV-D3).
    pub fn run(&mut self, query: &QueryState) -> Result<u64> {
        while self.feed(query)? == Feed::Full {
            let Some(split) = self.pending.front() else {
                continue;
            };
            let candidates = self.candidates(split);
            let mut watcher = Watcher::new();
            loop {
                let seen = watcher.arm(|w| {
                    query.on_cancel(w);
                    for &i in &candidates {
                        self.queues[i].1.on_space(w);
                    }
                });
                let space = candidates
                    .iter()
                    .any(|&i| self.queues[i].1.queued_len() < self.queue_capacity);
                if space || query.is_cancelled() {
                    break;
                }
                watcher.wait(seen, SAFETY_NET);
            }
        }
        Ok(self.assigned)
    }

    /// Tell every task the scan has no more splits.
    pub fn close(&self) {
        for (_, q) in &self.queues {
            q.no_more_splits();
        }
    }

    fn done(&self) -> Feed {
        self.close();
        Feed::Done
    }

    /// Whether the scan's dynamic filter has arrived and rules `split` out.
    fn pruned(&self, split: &Split) -> bool {
        let (Some(df), Some(split_domain)) = (&self.dynamic_filter, &split.domain) else {
            return false;
        };
        let pruned = df.ready()
            && df
                .table_domain()
                .is_some_and(|table| presto_exec::dynfilter::split_pruned(&table, split_domain));
        if pruned {
            df.note_splits_pruned(1);
        }
        pruned
    }

    /// Tasks `split` may go to: node-local first, then rack-local, then
    /// anyone — the plugin-provided topology hierarchy of §IV-D2.
    fn candidates(&self, split: &Split) -> Vec<usize> {
        let all = 0..self.queues.len();
        if split.addresses.is_empty() {
            return all.collect();
        }
        let node_local: Vec<usize> = all
            .clone()
            .filter(|&i| split.addresses.contains(&self.queues[i].0))
            .collect();
        if !node_local.is_empty() {
            return node_local;
        }
        let rack_of = |node: NodeId| node.0 as usize % self.racks;
        let preferred: Vec<usize> = split.addresses.iter().map(|&n| rack_of(n)).collect();
        let rack_local: Vec<usize> = all
            .clone()
            .filter(|&i| preferred.contains(&rack_of(self.queues[i].0)))
            .collect();
        if rack_local.is_empty() {
            all.collect()
        } else {
            rack_local
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::{DataType, Schema, Session, Value};
    use presto_connector::{CatalogManager, FixedSplitSource};
    use presto_connectors::MemoryConnector;
    use presto_planner::fragment::HASH_PARTITION_COUNT;
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
        let placements = place_fragments(&plan, QueryId(0), &[0, 1, 2, 3]);
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
        let placements = place_fragments(&plan, QueryId(0), &[0, 1]);
        let hash = placements
            .iter()
            .find(|p| {
                matches!(
                    plan.fragment(p.fragment).partitioning,
                    FragmentPartitioning::Hash { .. }
                )
            })
            .expect("hash stage");
        assert_eq!(hash.tasks.len(), HASH_PARTITION_COUNT);
    }

    #[test]
    fn placement_uses_only_available_workers() {
        // Draining/lost workers are excluded from the available set; no
        // task may land on them (§IV-G).
        let (plan, _) = plan_for("SELECT k, count(*) FROM t GROUP BY k");
        let placements = place_fragments(&plan, QueryId(0), &[1, 3]);
        for p in &placements {
            assert!(!p.tasks.is_empty());
            for &w in &p.tasks {
                assert!(w == 1 || w == 3, "task placed on unavailable worker {w}");
            }
        }
    }

    #[test]
    fn single_task_stages_rotate_with_the_query() {
        let (plan, _) = plan_for("SELECT 1 + 2");
        assert_eq!(plan.fragments.len(), 1, "{}", plan.explain());
        let workers: Vec<usize> = (0..4)
            .map(|q| place_fragments(&plan, QueryId(q), &[0, 1, 2, 3])[0].tasks[0])
            .collect();
        assert_eq!(workers, vec![0, 1, 2, 3]);
    }

    fn split(i: usize, addresses: Vec<NodeId>) -> Split {
        Split {
            catalog: "memory".into(),
            table: "t".into(),
            payload: Arc::new(i),
            addresses,
            estimated_rows: 1,
            bucket: None,
            domain: None,
            info: format!("split-{i}"),
        }
    }

    fn task_queues(nodes: &[u32]) -> Vec<(NodeId, Arc<SplitQueue>)> {
        nodes
            .iter()
            .map(|&n| (NodeId(n), SplitQueue::new()))
            .collect()
    }

    fn fixed_feeder(
        splits: usize,
        queues: &[(NodeId, Arc<SplitQueue>)],
        config: &ClusterConfig,
    ) -> SplitFeeder {
        let splits = (0..splits).map(|i| split(i, vec![])).collect();
        SplitFeeder::new(
            Box::new(FixedSplitSource::new(splits)),
            queues.to_vec(),
            false,
            None,
            config,
        )
    }

    /// Take splits off every queue, one queue after the other, until each
    /// is exhausted — the way a scan driver would. Returns how many.
    fn drain(queues: &[(NodeId, Arc<SplitQueue>)]) -> u64 {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut taken = 0;
        for (_, q) in queues {
            while !q.is_exhausted() {
                assert!(std::time::Instant::now() < deadline, "feeder stalled");
                match q.pop() {
                    Some(_) => taken += 1,
                    None => std::thread::yield_now(),
                }
            }
        }
        taken
    }

    /// Small queues, so that a few dozen splits overflow them.
    fn tight() -> ClusterConfig {
        ClusterConfig {
            split_batch_size: 4,
            max_queued_splits_per_task: 2,
            ..ClusterConfig::test()
        }
    }

    #[test]
    fn rack_local_placement_preferred_over_remote() {
        // A split pinned to node 2 (rack 0 with 2 racks) has no task on
        // node 2; tasks exist on nodes 1 (rack 1) and 0 (rack 0). The
        // feeder must choose the rack-local node 0.
        let config = ClusterConfig {
            racks: 2,
            ..ClusterConfig::test()
        };
        let queues = task_queues(&[1, 0]);
        let pinned = vec![split(0, vec![NodeId(2)])];
        let mut feeder = SplitFeeder::new(
            Box::new(FixedSplitSource::new(pinned)),
            queues.clone(),
            false,
            None,
            &config,
        );
        let state = QueryState::new(QueryId(0), &Arc::default());
        assert_eq!(feeder.feed(&state).unwrap(), Feed::Done);
        assert_eq!(queues[0].1.queued_len(), 0);
        assert_eq!(queues[1].1.queued_len(), 1);
    }

    #[test]
    fn split_feeder_prefers_shortest_queue() {
        let config = ClusterConfig::test();
        let queues = task_queues(&[0, 1]);
        let state = QueryState::new(QueryId(0), &Arc::default());
        let mut feeder = fixed_feeder(40, &queues, &config);
        assert_eq!(feeder.feed(&state).unwrap(), Feed::Done);
        assert_eq!(feeder.assigned(), 40);
        // Balanced assignment: neither queue hoards everything.
        let (a, b) = (queues[0].1.queued_len(), queues[1].1.queued_len());
        assert_eq!((a, b), (20, 20));
    }

    #[test]
    fn small_source_is_assigned_inline() {
        let queues = task_queues(&[0, 1]);
        let state = QueryState::new(QueryId(0), &Arc::default());
        let mut feeder = fixed_feeder(3, &queues, &tight());
        // Three splits fit two queues of two: one pass, no waiting, and the
        // tasks learn that enumeration is over.
        assert_eq!(feeder.feed(&state).unwrap(), Feed::Done);
        assert_eq!(feeder.assigned(), 3);
        assert_eq!(drain(&queues), 3);
    }

    #[test]
    fn large_source_hands_off_and_completes() {
        let queues = task_queues(&[0, 1]);
        let state = QueryState::new(QueryId(0), &Arc::default());
        let mut feeder = fixed_feeder(50, &queues, &tight());
        assert_eq!(feeder.feed(&state).unwrap(), Feed::Full);
        assert_eq!(feeder.assigned(), 4);
        assert!(queues.iter().all(|(_, q)| !q.is_exhausted()));
        let rest = std::thread::spawn(move || feeder.run(&state));
        assert_eq!(drain(&queues), 50);
        assert_eq!(rest.join().unwrap().unwrap(), 50);
    }

    #[test]
    fn co_located_scans_with_full_queues_finish() {
        // Two scans feed the same two tasks, whose drivers drain the build
        // scan before they touch the probe scan. Had the probe's inline
        // pass waited for space, the build scan would never be fed.
        let probe = task_queues(&[0, 1]);
        let build = task_queues(&[0, 1]);
        let state = QueryState::new(QueryId(0), &Arc::default());
        let mut feeders = Vec::new();
        for queues in [&probe, &build] {
            let mut feeder = fixed_feeder(20, queues, &tight());
            assert_eq!(feeder.feed(&state).unwrap(), Feed::Full);
            let state = Arc::clone(&state);
            feeders.push(std::thread::spawn(move || feeder.run(&state)));
        }
        assert_eq!(drain(&build) + drain(&probe), 40);
        for f in feeders {
            assert_eq!(f.join().unwrap().unwrap(), 20);
        }
    }

    #[test]
    fn an_empty_batch_before_the_end_is_an_internal_error() {
        struct Stalled;
        impl SplitSource for Stalled {
            fn next_batch(&mut self, _max: usize) -> Result<Vec<Split>> {
                Ok(Vec::new())
            }
            fn is_finished(&self) -> bool {
                false
            }
        }
        let queues = task_queues(&[0]);
        let mut feeder = SplitFeeder::new(
            Box::new(Stalled),
            queues,
            false,
            None,
            &ClusterConfig::test(),
        );
        let err = feeder
            .feed(&QueryState::new(QueryId(0), &Arc::default()))
            .unwrap_err();
        assert_eq!(err.code, presto_common::ErrorCode::Internal, "{err}");
    }
}
