//! Memory accounting plumbing between operators and the node memory pool.
//!
//! §IV-F2: "All non-trivial memory allocations in Presto must be classified
//! as user or system memory, and reserve memory in the corresponding memory
//! pool." Operators report retained sizes after every driver quanta; the
//! driver reconciles the deltas against the task's [`TaskMemoryContext`],
//! which forwards to whatever [`MemoryPool`] the worker installed (the real
//! general/reserved pool arbitration lives in `presto-cluster`).

use presto_common::wake::{WakeList, Waker};
use presto_common::{QueryId, Result};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Outcome of a reservation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservationResult {
    /// Reservation granted.
    Granted,
    /// Pool exhausted: the task must stall (and possibly spill) until
    /// memory frees up — "query memory reservations are blocked by halting
    /// processing for tasks".
    Blocked,
}

/// One driver's *revocable* reservation, registered with the node pool.
///
/// The driver publishes how many of its reserved bytes are held by
/// operators that can spill (§IV-F2 "revocable memory"). When the general
/// pool is exhausted, the arbiter picks the largest revocable reservation
/// and flags it here instead of promoting to the reserved pool or killing;
/// the owning driver observes the flag at its next quantum and spills.
#[derive(Debug, Default)]
pub struct RevocationHandle {
    /// Bytes currently revocable (spillable operator state).
    bytes: AtomicU64,
    /// Set by the arbiter; cleared by the driver when it spills.
    requested: AtomicBool,
    /// The owning driver, when it is parked on some other event: a request
    /// must bring it back to spill.
    owner: WakeList,
}

impl RevocationHandle {
    pub fn new() -> Arc<RevocationHandle> {
        Arc::new(RevocationHandle::default())
    }

    /// Publish the current revocable byte count (driver reconcile).
    pub fn set_bytes(&self, bytes: u64) {
        self.bytes.store(bytes, Ordering::Relaxed);
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Arbiter side: ask the owner to spill.
    pub fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        self.owner.wake_all();
    }

    /// `waker` fires on the next [`request`](Self::request). Check
    /// [`is_requested`](Self::is_requested) again after registering.
    pub fn on_request(&self, waker: &Waker) {
        self.owner.register(waker);
    }

    pub fn is_requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }

    /// Driver side: consume a pending spill request, if any.
    pub fn take_request(&self) -> bool {
        self.requested.swap(false, Ordering::SeqCst)
    }
}

/// A node-level memory pool the task reserves against.
pub trait MemoryPool: Send + Sync {
    /// Try to adjust the query's reservation by `user_delta`/`system_delta`
    /// bytes (negative frees). Errors kill the query (limit exceeded).
    fn reserve(
        &self,
        query: QueryId,
        user_delta: i64,
        system_delta: i64,
    ) -> Result<ReservationResult>;

    /// Make a revocable reservation visible to the pool's arbiter. Pools
    /// that do not arbitrate (tests, [`UnlimitedPool`]) ignore it.
    fn register_revocable(&self, _query: QueryId, _handle: Arc<RevocationHandle>) {}

    /// Remove a revocable reservation (driver teardown).
    fn unregister_revocable(&self, _query: QueryId, _handle: &Arc<RevocationHandle>) {}
}

/// A pool that always grants — for tests and single-process embedding.
#[derive(Debug, Default)]
pub struct UnlimitedPool;

impl MemoryPool for UnlimitedPool {
    fn reserve(&self, _query: QueryId, _u: i64, _s: i64) -> Result<ReservationResult> {
        Ok(ReservationResult::Granted)
    }
}

/// One driver's ledger of the memory it has reserved for its query on its
/// node's pool. The driver owns it; dropping it, when the driver retires,
/// returns the balance to the pool.
pub struct TaskMemoryContext {
    query: QueryId,
    pool: Arc<dyn MemoryPool>,
    user: AtomicI64,
    system: AtomicI64,
    revocation: Arc<RevocationHandle>,
}

impl TaskMemoryContext {
    pub fn new(query: QueryId, pool: Arc<dyn MemoryPool>) -> Arc<TaskMemoryContext> {
        let revocation = RevocationHandle::new();
        pool.register_revocable(query, Arc::clone(&revocation));
        Arc::new(TaskMemoryContext {
            query,
            pool,
            user: AtomicI64::new(0),
            system: AtomicI64::new(0),
            revocation,
        })
    }

    /// This context's revocable-reservation handle (shared with the pool's
    /// arbiter).
    pub fn revocation(&self) -> &Arc<RevocationHandle> {
        &self.revocation
    }

    /// Reconcile current retained sizes against the pool. Returns `Blocked`
    /// when the pool cannot grant the growth.
    pub fn update(&self, user_now: usize, system_now: usize) -> Result<ReservationResult> {
        let user_delta = user_now as i64 - self.user.load(Ordering::Relaxed);
        let system_delta = system_now as i64 - self.system.load(Ordering::Relaxed);
        if user_delta == 0 && system_delta == 0 {
            return Ok(ReservationResult::Granted);
        }
        match self.pool.reserve(self.query, user_delta, system_delta)? {
            ReservationResult::Granted => {
                self.user.store(user_now as i64, Ordering::Relaxed);
                self.system.store(system_now as i64, Ordering::Relaxed);
                Ok(ReservationResult::Granted)
            }
            ReservationResult::Blocked if user_delta <= 0 && system_delta <= 0 => {
                // Frees always apply even when the pool is blocked.
                self.user.store(user_now as i64, Ordering::Relaxed);
                self.system.store(system_now as i64, Ordering::Relaxed);
                Ok(ReservationResult::Granted)
            }
            ReservationResult::Blocked => Ok(ReservationResult::Blocked),
        }
    }
}

impl Drop for TaskMemoryContext {
    fn drop(&mut self) {
        let (user, system) = (*self.user.get_mut(), *self.system.get_mut());
        if user != 0 || system != 0 {
            let _ = self.pool.reserve(self.query, -user, -system);
        }
        self.pool.unregister_revocable(self.query, &self.revocation);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    /// Pool with a hard cap, granting FIFO.
    struct CappedPool {
        cap: i64,
        used: Mutex<i64>,
    }

    impl MemoryPool for CappedPool {
        fn reserve(&self, _q: QueryId, u: i64, s: i64) -> Result<ReservationResult> {
            let mut used = self.used.lock();
            let next = *used + u + s;
            if next > self.cap && (u + s) > 0 {
                return Ok(ReservationResult::Blocked);
            }
            *used = next;
            Ok(ReservationResult::Granted)
        }
    }

    #[test]
    fn update_reports_deltas_and_blocks() {
        let pool = Arc::new(CappedPool {
            cap: 100,
            used: Mutex::new(0),
        });
        let ctx = TaskMemoryContext::new(QueryId(1), Arc::clone(&pool) as Arc<dyn MemoryPool>);
        assert_eq!(ctx.update(60, 0).unwrap(), ReservationResult::Granted);
        assert_eq!(ctx.update(90, 20).unwrap(), ReservationResult::Blocked);
        // Shrinking succeeds even while blocked.
        assert_eq!(ctx.update(10, 0).unwrap(), ReservationResult::Granted);
        assert_eq!(*pool.used.lock(), 10);
        drop(ctx);
        assert_eq!(*pool.used.lock(), 0);
    }

    #[test]
    fn drop_releases() {
        let pool = Arc::new(CappedPool {
            cap: 100,
            used: Mutex::new(0),
        });
        {
            let ctx = TaskMemoryContext::new(QueryId(2), Arc::clone(&pool) as Arc<dyn MemoryPool>);
            ctx.update(50, 10).unwrap();
        }
        assert_eq!(*pool.used.lock(), 0);
    }
}
