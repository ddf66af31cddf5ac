//! Node memory pools with general/reserved arbitration (§IV-F2).
//!
//! Every node has a *general* pool and a *reserved* pool. Queries reserve
//! user and system memory against the general pool, subject to per-query
//! per-node and global limits. When a node's general pool is exhausted,
//! the query using the most memory on that node is *promoted* to the
//! reserved pool — on every node, and at most one query cluster-wide —
//! which lets it finish and unblock everyone else. Alternatively the
//! cluster can be configured to kill that query instead.

use parking_lot::Mutex;
use presto_common::{counter_set, PrestoError, QueryId, Result, TraceBuffer, TraceKind};
use presto_exec::memory::{MemoryPool, ReservationResult, RevocationHandle};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, OnceLock};

/// Per-query, cluster-wide memory counters and limits, shared by all node
/// pools. Registered by the coordinator at admission.
#[derive(Debug)]
pub struct QueryMemoryLimits {
    pub query: QueryId,
    /// Global (cluster-aggregated) user-memory limit.
    pub max_user_global: u64,
    /// Per-node user-memory limit.
    pub max_user_per_node: u64,
    /// Per-node total (user+system) limit.
    pub max_total_per_node: u64,
    /// Cluster-wide user memory currently reserved.
    pub global_user: AtomicI64,
    /// Set when the query was killed for memory; carries the message.
    pub killed: Mutex<Option<String>>,
}

impl QueryMemoryLimits {
    pub fn new(
        query: QueryId,
        max_user_global: u64,
        max_user_per_node: u64,
        max_total_per_node: u64,
    ) -> Arc<QueryMemoryLimits> {
        Arc::new(QueryMemoryLimits {
            query,
            max_user_global,
            max_user_per_node,
            max_total_per_node,
            global_user: AtomicI64::new(0),
            killed: Mutex::new(None),
        })
    }
}

/// Cluster-wide reserved-pool ownership: "To prevent deadlock (where
/// different workers stall different queries) only a single query can
/// enter the reserved pool across the entire cluster."
#[derive(Debug, Default)]
pub struct ReservedPoolLock {
    owner: Mutex<Option<QueryId>>,
}

impl ReservedPoolLock {
    pub fn new() -> Arc<ReservedPoolLock> {
        Arc::new(ReservedPoolLock::default())
    }

    /// Try to promote `query`; returns true if it now owns (or already
    /// owned) the reserved pool.
    fn try_acquire(&self, query: QueryId) -> bool {
        let mut owner = self.owner.lock();
        match *owner {
            None => {
                *owner = Some(query);
                true
            }
            Some(q) => q == query,
        }
    }

    pub fn owner(&self) -> Option<QueryId> {
        *self.owner.lock()
    }

    /// Release if `query` owns the pool (query completion).
    pub fn release(&self, query: QueryId) {
        let mut owner = self.owner.lock();
        if *owner == Some(query) {
            *owner = None;
        }
    }
}

#[derive(Debug, Default, Clone)]
struct QueryUsage {
    user: i64,
    system: i64,
    /// Whether this node has moved the query's balance into the reserved
    /// pool. Its bytes here live in that pool from then until it ends.
    reserved: bool,
}

struct PoolState {
    general_used: i64,
    reserved_used: i64,
    peak_general: i64,
    peak_reserved: i64,
    per_query: HashMap<QueryId, QueryUsage>,
}

impl PoolState {
    /// Move `query`'s balance on this node into the reserved pool, once.
    /// Promotion is cluster-wide, so every node moves it on its own.
    fn promote(&mut self, query: QueryId) {
        if let Some(u) = self.per_query.get_mut(&query) {
            if !u.reserved {
                u.reserved = true;
                self.general_used -= u.user + u.system;
                self.reserved_used += u.user + u.system;
            }
        }
    }

    fn note_peaks(&mut self) {
        self.peak_general = self.peak_general.max(self.general_used);
        self.peak_reserved = self.peak_reserved.max(self.reserved_used);
    }
}

counter_set! {
    /// Point-in-time view of one node pool, for metrics export.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PoolSnapshot[json] {
        general_used: i64,
        reserved_used: i64,
        system_used: i64,
        peak_general: i64,
        peak_reserved: i64,
        general_limit: i64,
        reserved_limit: i64,
        blocked_reservations: i64,
        /// Spill requests the arbiter issued to revocable reservations
        /// (§IV-F2 revocable memory) instead of promoting or killing.
        revocation_requests: i64,
        /// Queries with non-zero accounting on this node right now.
        active_queries: usize,
    }
}

/// One worker node's memory pool.
pub struct NodeMemoryPool {
    node: presto_common::NodeId,
    general_limit: i64,
    reserved_limit: i64,
    kill_on_exhausted: bool,
    state: Mutex<PoolState>,
    reserved: Arc<ReservedPoolLock>,
    limits: Mutex<HashMap<QueryId, Arc<QueryMemoryLimits>>>,
    /// Count of reservation attempts that blocked (telemetry).
    blocked_reservations: AtomicI64,
    /// Per-driver revocable reservations (§IV-F2 revocable memory). On
    /// general-pool exhaustion the arbiter asks the largest one to spill
    /// *before* reserved-pool promotion or kill.
    revocables: Mutex<HashMap<QueryId, Vec<Arc<RevocationHandle>>>>,
    /// Spill requests issued by the arbiter (telemetry).
    revocation_requests: AtomicI64,
    /// Node-level *system* memory not owned by any query — metadata and
    /// footer caches. It consumes general-pool headroom so that cached
    /// bytes participate in §IV-F2 arbitration, but never blocks or kills:
    /// caches bound themselves by eviction.
    system_used: AtomicI64,
    /// Optional timeline: grants/revokes land here as trace events.
    trace: OnceLock<Arc<TraceBuffer>>,
}

impl NodeMemoryPool {
    pub fn new(
        node: presto_common::NodeId,
        general_limit: u64,
        reserved_limit: u64,
        kill_on_exhausted: bool,
        reserved: Arc<ReservedPoolLock>,
    ) -> Arc<NodeMemoryPool> {
        Arc::new(NodeMemoryPool {
            node,
            general_limit: general_limit as i64,
            reserved_limit: reserved_limit as i64,
            kill_on_exhausted,
            state: Mutex::new(PoolState {
                general_used: 0,
                reserved_used: 0,
                peak_general: 0,
                peak_reserved: 0,
                per_query: HashMap::new(),
            }),
            reserved,
            limits: Mutex::new(HashMap::new()),
            blocked_reservations: AtomicI64::new(0),
            revocables: Mutex::new(HashMap::new()),
            revocation_requests: AtomicI64::new(0),
            system_used: AtomicI64::new(0),
            trace: OnceLock::new(),
        })
    }

    /// Ask the largest revocable reservation (any query, any driver) to
    /// spill. Returns false when none has revocable bytes left or all are
    /// already servicing a request — the caller then falls through to
    /// promotion/kill so an unserviced request can never stall the pool.
    fn request_revocation(&self) -> bool {
        let revocables = self.revocables.lock();
        let target = revocables
            .values()
            .flatten()
            .filter(|h| h.bytes() > 0 && !h.is_requested())
            .max_by_key(|h| h.bytes());
        match target {
            Some(handle) => {
                handle.request();
                self.revocation_requests.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Attach a trace buffer; reservation grants and releases then emit
    /// [`TraceKind::MemoryGrant`] / [`TraceKind::MemoryRevoke`] events.
    pub fn set_trace(&self, trace: Arc<TraceBuffer>) {
        let _ = self.trace.set(trace);
    }

    fn trace_delta(&self, query: QueryId, delta: i64) {
        if delta == 0 {
            return;
        }
        if let Some(trace) = self.trace.get() {
            let kind = if delta > 0 {
                TraceKind::MemoryGrant
            } else {
                TraceKind::MemoryRevoke
            };
            trace.record(kind, self.node.0, 0, query.0, delta.unsigned_abs());
        }
    }

    /// Charge (or release, negative `delta`) node-level system memory that
    /// belongs to no query, e.g. cache retention. Never blocks: the caller
    /// is expected to bound itself (caches evict at capacity), this call
    /// only makes the bytes visible to general-pool arbitration.
    pub fn reserve_system(&self, delta: i64) {
        self.system_used.fetch_add(delta, Ordering::Relaxed);
    }

    /// Node-level system memory currently charged via
    /// [`reserve_system`](Self::reserve_system).
    pub fn system_bytes(&self) -> i64 {
        self.system_used.load(Ordering::Relaxed)
    }

    /// Register a query's limits before its tasks run on this node.
    pub fn register_query(&self, limits: Arc<QueryMemoryLimits>) {
        let query = limits.query;
        self.limits.lock().insert(query, limits);
        // The usage entry doubles as the registration token under the state
        // lock: `reserve` refuses to touch pool counters once
        // `unregister_query` has removed it, so a reservation racing
        // teardown cannot resurrect accounting that nobody will clean up.
        self.state.lock().per_query.entry(query).or_default();
    }

    /// Drop an ended query's accounting on this node. The cluster-wide
    /// reserved-pool claim is the query's own to release, once every node
    /// has let go of it.
    pub fn unregister_query(&self, query: QueryId) {
        self.revocables.lock().remove(&query);
        let mut state = self.state.lock();
        if let Some(usage) = state.per_query.remove(&query) {
            if usage.reserved {
                state.reserved_used -= usage.user + usage.system;
            } else {
                state.general_used -= usage.user + usage.system;
            }
        }
        drop(state);
        self.limits.lock().remove(&query);
    }

    /// Queries this node still holds any registration of: usage, limits
    /// or revocable reservations. Zero once every query has ended.
    pub fn registered_queries(&self) -> usize {
        let mut queries: std::collections::HashSet<QueryId> =
            self.state.lock().per_query.keys().copied().collect();
        queries.extend(self.limits.lock().keys().copied());
        queries.extend(self.revocables.lock().keys().copied());
        queries.len()
    }

    /// Current general-pool utilization in [0, 1+], including node-level
    /// system memory (cache retention), which shares general headroom.
    pub fn general_utilization(&self) -> f64 {
        let state = self.state.lock();
        let used = state.general_used + self.system_used.load(Ordering::Relaxed);
        used as f64 / self.general_limit.max(1) as f64
    }

    pub fn blocked_reservations(&self) -> i64 {
        self.blocked_reservations.load(Ordering::Relaxed)
    }

    /// Memory used by `query` on this node.
    pub fn query_usage(&self, query: QueryId) -> (i64, i64) {
        let state = self.state.lock();
        state
            .per_query
            .get(&query)
            .map(|u| (u.user, u.system))
            .unwrap_or((0, 0))
    }

    /// Point-in-time usage, limits, and high-water marks.
    pub fn snapshot(&self) -> PoolSnapshot {
        let state = self.state.lock();
        PoolSnapshot {
            general_used: state.general_used,
            reserved_used: state.reserved_used,
            system_used: self.system_used.load(Ordering::Relaxed),
            peak_general: state.peak_general,
            peak_reserved: state.peak_reserved,
            general_limit: self.general_limit,
            reserved_limit: self.reserved_limit,
            blocked_reservations: self.blocked_reservations.load(Ordering::Relaxed),
            revocation_requests: self.revocation_requests.load(Ordering::Relaxed),
            active_queries: state
                .per_query
                .values()
                .filter(|u| u.user + u.system != 0)
                .count(),
        }
    }
}

impl MemoryPool for NodeMemoryPool {
    fn reserve(
        &self,
        query: QueryId,
        user_delta: i64,
        system_delta: i64,
    ) -> Result<ReservationResult> {
        let limits = self.limits.lock().get(&query).cloned();
        let Some(limits) = limits else {
            if user_delta <= 0 && system_delta <= 0 {
                // A release racing query teardown: the accounting was
                // already zeroed by `unregister_query`; nothing to return.
                return Ok(ReservationResult::Granted);
            }
            return Err(PrestoError::internal(format!(
                "query {query} not registered on {}",
                self.node
            )));
        };
        if user_delta + system_delta > 0 {
            // Growth is refused once the query is memory-killed; releases
            // must still drain so teardown leaves the pool at zero.
            if let Some(msg) = limits.killed.lock().clone() {
                return Err(PrestoError::resources(msg));
            }
        }
        let mut state = self.state.lock();
        let Some(usage) = state.per_query.get(&query) else {
            // `unregister_query` won the race between our limits lookup and
            // here. Applying the delta now would mutate counters nobody
            // cleans up afterwards, so drop it: the unregister already
            // returned this query's entire balance.
            return if user_delta <= 0 && system_delta <= 0 {
                Ok(ReservationResult::Granted)
            } else {
                Err(PrestoError::internal(format!(
                    "query {query} no longer registered on {}",
                    self.node
                )))
            };
        };
        let (cur_user, cur_system) = (usage.user, usage.system);
        if self.reserved.owner() == Some(query) {
            state.promote(query);
        }
        // Clamp releases to what this query actually has charged here, so a
        // duplicated release (task abort racing normal driver teardown)
        // cannot drive the pool negative.
        let user_delta = if user_delta < 0 {
            user_delta.max(-cur_user)
        } else {
            user_delta
        };
        let system_delta = if system_delta < 0 {
            system_delta.max(-cur_system)
        } else {
            system_delta
        };
        let total_delta = user_delta + system_delta;
        let new_user = cur_user + user_delta;
        let new_total = cur_user + cur_system + total_delta;
        // Hard per-query limits: exceeding kills the query (§IV-F2
        // "queries that exceed a global limit … or per-node limit are
        // killed").
        if new_user > limits.max_user_per_node as i64 {
            let msg = format!(
                "query exceeded per-node user memory limit of {} bytes on {}",
                limits.max_user_per_node, self.node
            );
            *limits.killed.lock() = Some(msg.clone());
            return Err(PrestoError::resources(msg));
        }
        if new_total > limits.max_total_per_node as i64 {
            let msg = format!(
                "query exceeded per-node total memory limit of {} bytes on {}",
                limits.max_total_per_node, self.node
            );
            *limits.killed.lock() = Some(msg.clone());
            return Err(PrestoError::resources(msg));
        }
        let new_global = limits.global_user.load(Ordering::Relaxed) + user_delta;
        if new_global > limits.max_user_global as i64 {
            let msg = format!(
                "query exceeded global user memory limit of {} bytes",
                limits.max_user_global
            );
            *limits.killed.lock() = Some(msg.clone());
            return Err(PrestoError::resources(msg));
        }
        // Which pool does this query charge? Node-level system memory
        // (cache retention) shares the general pool's headroom.
        let cache_system = self.system_used.load(Ordering::Relaxed);
        let in_reserved = state.per_query.get(&query).is_some_and(|u| u.reserved);
        let (used, limit) = if in_reserved {
            (state.reserved_used, self.reserved_limit)
        } else {
            (state.general_used + cache_system, self.general_limit)
        };
        if total_delta > 0 && used + total_delta > limit {
            if !in_reserved {
                // §IV-F2 revocable memory: before promoting or killing, ask
                // the largest spillable reservation on this node to revoke.
                // The owning driver spills at its next quantum, frees the
                // memory, and this (blocked) reservation retries. Only when
                // nothing revocable remains does arbitration escalate.
                if self.request_revocation() {
                    self.blocked_reservations.fetch_add(1, Ordering::Relaxed);
                    return Ok(ReservationResult::Blocked);
                }
                // General pool exhausted: promote the biggest query on this
                // node to the reserved pool — but only when the reserved
                // pool is free (one owner cluster-wide), and never move a
                // query's usage twice.
                let biggest = if self.reserved.owner().is_none() {
                    state
                        .per_query
                        .iter()
                        .max_by_key(|(_, u)| u.user + u.system)
                        .map(|(q, _)| *q)
                } else {
                    None
                };
                if let Some(big) = biggest {
                    if self.reserved.try_acquire(big) {
                        state.promote(big);
                        // Re-check after promotion (the caller may itself be
                        // the promoted query).
                        let in_reserved_now = big == query;
                        let (used2, limit2) = if in_reserved_now {
                            (state.reserved_used, self.reserved_limit)
                        } else {
                            (state.general_used + cache_system, self.general_limit)
                        };
                        if used2 + total_delta <= limit2 {
                            let usage = state.per_query.entry(query).or_default();
                            usage.user += user_delta;
                            usage.system += system_delta;
                            if in_reserved_now {
                                state.reserved_used += total_delta;
                            } else {
                                state.general_used += total_delta;
                            }
                            state.note_peaks();
                            limits.global_user.fetch_add(user_delta, Ordering::Relaxed);
                            drop(state);
                            self.trace_delta(query, total_delta);
                            return Ok(ReservationResult::Granted);
                        }
                    }
                }
                if self.kill_on_exhausted {
                    let msg = format!(
                        "node {} out of memory; killing query using most memory",
                        self.node
                    );
                    *limits.killed.lock() = Some(msg.clone());
                    return Err(PrestoError::resources(msg));
                }
            }
            self.blocked_reservations.fetch_add(1, Ordering::Relaxed);
            return Ok(ReservationResult::Blocked);
        }
        // Granted.
        let usage = state.per_query.entry(query).or_default();
        usage.user += user_delta;
        usage.system += system_delta;
        if in_reserved {
            state.reserved_used += total_delta;
        } else {
            state.general_used += total_delta;
        }
        state.note_peaks();
        limits.global_user.fetch_add(user_delta, Ordering::Relaxed);
        drop(state);
        self.trace_delta(query, total_delta);
        Ok(ReservationResult::Granted)
    }

    fn register_revocable(&self, query: QueryId, handle: Arc<RevocationHandle>) {
        self.revocables
            .lock()
            .entry(query)
            .or_default()
            .push(handle);
    }

    fn unregister_revocable(&self, query: QueryId, handle: &Arc<RevocationHandle>) {
        let mut revocables = self.revocables.lock();
        if let Some(handles) = revocables.get_mut(&query) {
            handles.retain(|h| !Arc::ptr_eq(h, handle));
            if handles.is_empty() {
                revocables.remove(&query);
            }
        }
    }
}

/// Bridges the metadata cache's retained-byte accounting into the worker
/// pools: every byte the cache retains is charged as *system* memory on
/// every node. (The production deployment caches footers independently on
/// each worker; our single-process cache is conceptually replicated, so
/// the full balance lands on each pool.)
pub struct PoolSystemCharger {
    pools: Vec<Arc<NodeMemoryPool>>,
}

impl PoolSystemCharger {
    pub fn new(pools: Vec<Arc<NodeMemoryPool>>) -> PoolSystemCharger {
        PoolSystemCharger { pools }
    }
}

impl presto_cache::MemoryCharger for PoolSystemCharger {
    fn charge(&self, delta: i64) {
        for pool in &self.pools {
            pool.reserve_system(delta);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::NodeId;

    fn setup(
        general: u64,
        reserved: u64,
        kill: bool,
    ) -> (Arc<NodeMemoryPool>, Arc<ReservedPoolLock>) {
        let lock = ReservedPoolLock::new();
        let pool = NodeMemoryPool::new(NodeId(0), general, reserved, kill, Arc::clone(&lock));
        (pool, lock)
    }

    fn limits(q: u64) -> Arc<QueryMemoryLimits> {
        QueryMemoryLimits::new(QueryId(q), 1 << 40, 1 << 40, 1 << 40)
    }

    #[test]
    fn per_node_limit_kills() {
        let (pool, _) = setup(1 << 30, 1 << 20, false);
        let l = QueryMemoryLimits::new(QueryId(1), 1 << 40, 100, 1 << 40);
        pool.register_query(l);
        assert!(matches!(
            pool.reserve(QueryId(1), 50, 0),
            Ok(ReservationResult::Granted)
        ));
        let err = pool.reserve(QueryId(1), 60, 0).unwrap_err();
        assert_eq!(err.code, presto_common::ErrorCode::InsufficientResources);
        // Once killed, every further reservation fails.
        assert!(pool.reserve(QueryId(1), 1, 0).is_err());
    }

    #[test]
    fn global_limit_kills() {
        let (pool, _) = setup(1 << 30, 1 << 20, false);
        let l = QueryMemoryLimits::new(QueryId(2), 100, 1 << 40, 1 << 40);
        pool.register_query(l);
        assert!(pool.reserve(QueryId(2), 200, 0).is_err());
    }

    #[test]
    fn reserved_pool_promotion_unblocks_biggest() {
        let (pool, lock) = setup(100, 1000, false);
        pool.register_query(limits(1));
        pool.register_query(limits(2));
        // q1 takes most of the general pool.
        assert!(matches!(
            pool.reserve(QueryId(1), 80, 0),
            Ok(ReservationResult::Granted)
        ));
        // q2 wants more than remains → q1 (biggest) promotes to reserved,
        // freeing the general pool for q2.
        assert!(matches!(
            pool.reserve(QueryId(2), 50, 0),
            Ok(ReservationResult::Granted)
        ));
        assert_eq!(lock.owner(), Some(QueryId(1)));
        // q1 now charges the reserved pool and can keep growing.
        assert!(matches!(
            pool.reserve(QueryId(1), 500, 0),
            Ok(ReservationResult::Granted)
        ));
        // A third query that still does not fit blocks (single reserved
        // owner cluster-wide).
        pool.register_query(limits(3));
        assert!(matches!(
            pool.reserve(QueryId(3), 80, 0),
            Ok(ReservationResult::Blocked)
        ));
        assert!(pool.blocked_reservations() > 0);
        // When q1 ends, the node lets go of its balance; the claim stays
        // q1's until q1 releases it.
        pool.unregister_query(QueryId(1));
        assert_eq!(lock.owner(), Some(QueryId(1)));
        lock.release(QueryId(1));
        assert_eq!(lock.owner(), None);
    }

    /// Promotion on one node moves the query's balance on every node, each
    /// at its next reservation, and releases come back out of the pool the
    /// bytes were charged to, whoever ends the promotion first.
    #[test]
    fn promotion_moves_each_nodes_balance_and_teardown_returns_both_pools_to_zero() {
        let lock = ReservedPoolLock::new();
        let pool = |n| NodeMemoryPool::new(NodeId(n), 100, 1000, false, Arc::clone(&lock));
        let (a, b) = (pool(0), pool(1));
        for p in [&a, &b] {
            p.register_query(limits(1));
            p.register_query(limits(2));
        }
        b.reserve(QueryId(1), 30, 0).unwrap();
        a.reserve(QueryId(1), 80, 0).unwrap();
        // q2 exhausts node a: q1, the biggest there, is promoted.
        a.reserve(QueryId(2), 50, 0).unwrap();
        assert_eq!(lock.owner(), Some(QueryId(1)));
        // q1 releases on b the bytes b charged to its general pool.
        b.reserve(QueryId(1), -10, 0).unwrap();
        assert_eq!(
            (b.snapshot().general_used, b.snapshot().reserved_used),
            (0, 20)
        );
        // Node a ends the query first; b still returns q1's balance from
        // where it lives.
        a.unregister_query(QueryId(1));
        b.reserve(QueryId(1), -5, 0).unwrap();
        b.unregister_query(QueryId(1));
        for p in [&a, &b] {
            p.unregister_query(QueryId(2));
            let snap = p.snapshot();
            assert_eq!((snap.general_used, snap.reserved_used), (0, 0));
        }
    }

    #[test]
    fn arbiter_requests_largest_revocable_before_promotion() {
        let (pool, lock) = setup(100, 1000, false);
        pool.register_query(limits(1));
        pool.register_query(limits(2));
        // Two revocable reservations; q1's is larger.
        let small = RevocationHandle::new();
        small.set_bytes(10);
        let big = RevocationHandle::new();
        big.set_bytes(70);
        pool.register_revocable(QueryId(2), Arc::clone(&small));
        pool.register_revocable(QueryId(1), Arc::clone(&big));
        assert!(matches!(
            pool.reserve(QueryId(1), 80, 0),
            Ok(ReservationResult::Granted)
        ));
        // Exhaustion: the arbiter flags the *largest* revocable handle and
        // blocks instead of promoting.
        assert!(matches!(
            pool.reserve(QueryId(2), 50, 0),
            Ok(ReservationResult::Blocked)
        ));
        assert!(big.is_requested());
        assert!(!small.is_requested());
        assert_eq!(lock.owner(), None, "no promotion while spill is pending");
        assert_eq!(pool.snapshot().revocation_requests, 1);
        // The owner spills: frees memory, publishes the new balance,
        // clears the flag.
        assert!(big.take_request());
        big.set_bytes(0);
        assert!(matches!(
            pool.reserve(QueryId(1), -60, 0),
            Ok(ReservationResult::Granted)
        ));
        // The retry now fits in the general pool — still no promotion.
        assert!(matches!(
            pool.reserve(QueryId(2), 50, 0),
            Ok(ReservationResult::Granted)
        ));
        assert_eq!(lock.owner(), None);
        // Next exhaustion: only the small handle is left; after it too is
        // consumed, arbitration escalates to promotion as before.
        small.set_bytes(0);
        assert!(matches!(
            pool.reserve(QueryId(2), 40, 0),
            Ok(ReservationResult::Granted)
        ));
        assert_eq!(lock.owner(), Some(QueryId(2)), "fell through to promotion");
        assert_eq!(pool.snapshot().revocation_requests, 1);
    }

    #[test]
    fn unregister_revocable_removes_handle() {
        let (pool, _) = setup(100, 1000, false);
        pool.register_query(limits(1));
        let h = RevocationHandle::new();
        h.set_bytes(50);
        pool.register_revocable(QueryId(1), Arc::clone(&h));
        pool.unregister_revocable(QueryId(1), &h);
        assert!(!pool.request_revocation(), "no revocable handles remain");
        assert_eq!(pool.snapshot().revocation_requests, 0);
    }

    #[test]
    fn kill_policy_instead_of_stall() {
        let (pool, lock) = setup(100, 50, true);
        pool.register_query(limits(1));
        pool.register_query(limits(2));
        assert!(matches!(
            pool.reserve(QueryId(1), 90, 0),
            Ok(ReservationResult::Granted)
        ));
        // Promotion fails to make room (reserved limit 50 < q1's 90 usage
        // stays; general freed though) — first promotion moves q1 out, so
        // q2 fits. Exhaust again with q2 then q3 must kill.
        assert!(matches!(
            pool.reserve(QueryId(2), 95, 0),
            Ok(ReservationResult::Granted)
        ));
        assert_eq!(lock.owner(), Some(QueryId(1)));
        pool.register_query(limits(3));
        let err = pool.reserve(QueryId(3), 50, 0).unwrap_err();
        assert_eq!(err.code, presto_common::ErrorCode::InsufficientResources);
    }

    #[test]
    fn system_memory_consumes_general_headroom() {
        let (pool, _) = setup(100, 1000, false);
        pool.register_query(limits(1));
        // Cache retention takes 60 of the 100-byte general pool.
        pool.reserve_system(60);
        assert_eq!(pool.system_bytes(), 60);
        assert!((pool.general_utilization() - 0.6).abs() < 1e-9);
        // A query can use the remaining 40 but not more: the next
        // reservation trips arbitration (promotion to reserved succeeds
        // here, so it is granted from the reserved pool).
        assert!(matches!(
            pool.reserve(QueryId(1), 40, 0),
            Ok(ReservationResult::Granted)
        ));
        assert!(matches!(
            pool.reserve(QueryId(1), 10, 0),
            Ok(ReservationResult::Granted)
        ));
        assert_eq!(pool.reserved.owner(), Some(QueryId(1)));
        // Releasing the cache bytes restores headroom.
        pool.reserve_system(-60);
        assert_eq!(pool.system_bytes(), 0);
    }

    #[test]
    fn frees_restore_capacity() {
        let (pool, _) = setup(100, 50, false);
        pool.register_query(limits(1));
        pool.reserve(QueryId(1), 80, 10).unwrap();
        pool.reserve(QueryId(1), -80, -10).unwrap();
        assert_eq!(pool.query_usage(QueryId(1)), (0, 0));
        assert!((pool.general_utilization()).abs() < 1e-9);
    }
}
