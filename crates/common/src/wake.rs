//! Event wakeups: what a blocked driver, an idle executor thread or the
//! coordinator sleeps on instead of re-polling on a timer (§IV-E2 long
//! polling, §IV-F1 blocked splits).
//!
//! Three pieces, one protocol:
//!
//! - a [`Bell`] is what a *thread* sleeps on: a sequence number and a
//!   condvar. The waiter reads [`Bell::seq`] **before** it checks its
//!   condition and sleeps in [`Bell::wait`] only while the number is
//!   unchanged, so a ring between the check and the sleep is never lost;
//! - a [`Waker`] is one *wait* of one waiter: a one-shot flag tied to the
//!   bell of the thread (or thread pool) that should react. Waking twice
//!   rings once;
//! - a [`WakeList`] belongs to the *thing waited for* (a buffer, a queue, a
//!   join bridge). Waiters register a waker; whoever changes the thing's
//!   state calls [`WakeList::wake_all`].
//!
//! A waiter must register **before** its last look at the condition (or
//! look once more after registering): an event before the registration is
//! seen by that look, an event after it fires the waker.
//!
//! Lists hold wakers weakly and prune dead or already-woken ones on every
//! registration, so a list never grows beyond the waits that are live.
//! Lock access tolerates poisoning: every critical section here leaves the
//! data valid at each step.

use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::Duration;

/// Longest anything sleeps on an event before it looks again anyway. A lost
/// wakeup then costs a stall of this length instead of a hang — and the
/// worker counts every one it can prove (`safety_net_fires`).
pub const SAFETY_NET: Duration = Duration::from_millis(20);

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// A sequence number threads sleep on until it changes.
#[derive(Debug, Default)]
pub struct Bell {
    seq: Mutex<u64>,
    changed: Condvar,
}

impl Bell {
    pub fn new() -> Arc<Bell> {
        Arc::new(Bell::default())
    }

    /// The current sequence number. Read it before checking the condition
    /// and pass it to [`wait`](Self::wait).
    pub fn seq(&self) -> u64 {
        *lock(&self.seq)
    }

    /// Announce one unit of work: wakes at most one sleeping thread, and
    /// any thread whose `seq` is stale will not sleep.
    pub fn ring(&self) {
        *lock(&self.seq) += 1;
        self.changed.notify_one();
    }

    /// Announce a state change every waiter must see (shutdown, kill,
    /// resume).
    pub fn ring_all(&self) {
        *lock(&self.seq) += 1;
        self.changed.notify_all();
    }

    /// Sleep until the sequence differs from `seen` or `timeout` passes.
    /// Returns whether it differs.
    pub fn wait(&self, seen: u64, timeout: Duration) -> bool {
        let guard = lock(&self.seq);
        let (guard, _) = self
            .changed
            .wait_timeout_while(guard, timeout, |seq| *seq == seen)
            .unwrap_or_else(|e| e.into_inner());
        *guard != seen
    }
}

#[derive(Debug)]
struct WakerState {
    woken: AtomicBool,
    bell: Arc<Bell>,
}

/// One wait: fires at most once, ringing the bell it was made for. Lists
/// keep only weak references, so dropping the waker withdraws the wait.
#[derive(Debug, Clone)]
pub struct Waker(Arc<WakerState>);

impl Waker {
    pub fn new(bell: &Arc<Bell>) -> Waker {
        Waker(Arc::new(WakerState {
            woken: AtomicBool::new(false),
            bell: Arc::clone(bell),
        }))
    }

    pub fn wake(&self) {
        wake(&self.0);
    }

    pub fn is_woken(&self) -> bool {
        self.0.woken.load(Ordering::SeqCst)
    }
}

fn wake(state: &WakerState) {
    if !state.woken.swap(true, Ordering::SeqCst) {
        state.bell.ring();
    }
}

/// The waits registered on one condition.
#[derive(Debug, Default)]
pub struct WakeList {
    /// Mirrors `wakers.len()` so [`wake_all`](Self::wake_all) on an empty
    /// list — the common case on every page enqueue — takes no lock.
    len: AtomicUsize,
    wakers: Mutex<Vec<Weak<WakerState>>>,
}

impl WakeList {
    pub fn new() -> WakeList {
        WakeList::default()
    }

    /// Add a wait. The caller must look at the condition again afterwards.
    pub fn register(&self, waker: &Waker) {
        let mut wakers = lock(&self.wakers);
        wakers.retain(|w| w.upgrade().is_some_and(|s| !s.woken.load(Ordering::SeqCst)));
        wakers.push(Arc::downgrade(&waker.0));
        self.len.store(wakers.len(), Ordering::SeqCst);
        drop(wakers);
        // Pairs with the fence in `wake_all`: either that call sees this
        // registration, or the caller's next look sees the state change.
        fence(Ordering::SeqCst);
    }

    /// Fire every registered wait. Call after the state change is visible.
    pub fn wake_all(&self) {
        fence(Ordering::SeqCst);
        if self.len.load(Ordering::SeqCst) == 0 {
            return;
        }
        let wakers = {
            let mut wakers = lock(&self.wakers);
            self.len.store(0, Ordering::SeqCst);
            std::mem::take(&mut *wakers)
        };
        for state in wakers.iter().filter_map(Weak::upgrade) {
            wake(&state);
        }
    }

    /// Registered entries, including ones not yet pruned.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A plain thread (the coordinator draining a query, a split feeder) that
/// waits for events: its own bell plus the waker currently registered.
#[derive(Debug)]
pub struct Watcher {
    bell: Arc<Bell>,
    waker: Option<Waker>,
}

impl Watcher {
    pub fn new() -> Watcher {
        Watcher {
            bell: Bell::new(),
            waker: None,
        }
    }

    /// Begin one wait cycle, **before** checking the condition: makes sure
    /// a live waker is registered (calling `register` with a fresh one when
    /// the last was consumed) and returns the sequence to wait on. Every
    /// cycle of one watcher must register with the same lists.
    pub fn arm(&mut self, register: impl FnOnce(&Waker)) -> u64 {
        let seen = self.bell.seq();
        if self.waker.as_ref().is_none_or(Waker::is_woken) {
            let waker = Waker::new(&self.bell);
            register(&waker);
            self.waker = Some(waker);
        }
        seen
    }

    /// Sleep until an event registered since [`arm`](Self::arm) returned
    /// `seen` fires, or `timeout` passes. Returns whether one fired.
    pub fn wait(&self, seen: u64, timeout: Duration) -> bool {
        self.bell.wait(seen, timeout)
    }
}

impl Default for Watcher {
    fn default() -> Watcher {
        Watcher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;
    use std::time::Instant;

    const LONG: Duration = Duration::from_secs(30);

    #[test]
    fn event_before_register_is_caught_by_the_recheck() {
        // The condition turns true and fires an (empty) list before the
        // waiter registers: nothing wakes it, so only the look after
        // registering can see the event.
        let list = WakeList::new();
        let ready = AtomicBool::new(false);
        let bell = Bell::new();
        let seen = bell.seq();
        assert!(!ready.load(Ordering::SeqCst), "first look: not ready");
        ready.store(true, Ordering::SeqCst);
        list.wake_all();
        let waker = Waker::new(&bell);
        list.register(&waker);
        assert!(!waker.is_woken(), "the event predates the registration");
        assert_eq!(bell.seq(), seen, "nothing rang");
        assert!(ready.load(Ordering::SeqCst), "the re-check sees it");
    }

    #[test]
    fn event_after_register_wakes_exactly_once() {
        let list = WakeList::new();
        let bell = Bell::new();
        let seen = bell.seq();
        let waker = Waker::new(&bell);
        list.register(&waker);
        list.wake_all();
        assert!(waker.is_woken());
        assert_eq!(bell.seq(), seen + 1);
        // One-shot: a second event, a direct wake and a re-fired list all
        // ring nothing more.
        list.wake_all();
        waker.wake();
        list.register(&waker);
        list.wake_all();
        assert_eq!(bell.seq(), seen + 1);
        assert!(bell.wait(seen, LONG), "a stale seq never sleeps");
    }

    #[test]
    fn waker_on_two_lists_rings_once() {
        let (a, b) = (WakeList::new(), WakeList::new());
        let bell = Bell::new();
        let waker = Waker::new(&bell);
        a.register(&waker);
        b.register(&waker);
        a.wake_all();
        b.wake_all();
        assert_eq!(bell.seq(), 1);
    }

    #[test]
    fn wake_all_on_an_empty_list_takes_no_lock() {
        let list = WakeList::new();
        // Hold the list's lock: a `wake_all` that needed it would deadlock
        // this thread.
        let guard = lock(&list.wakers);
        list.wake_all();
        drop(guard);
        // Still empty after wakers were fired and after they were dropped.
        let bell = Bell::new();
        list.register(&Waker::new(&bell));
        list.wake_all();
        assert!(list.is_empty());
        let guard = lock(&list.wakers);
        list.wake_all();
        drop(guard);
    }

    #[test]
    fn dropped_waker_is_never_fired() {
        let list = WakeList::new();
        let bell = Bell::new();
        list.register(&Waker::new(&bell));
        list.wake_all();
        assert_eq!(bell.seq(), 0, "the wait was withdrawn");
    }

    #[test]
    fn list_stays_bounded_under_register_park_churn() {
        // Ten thousand waits come and go on one list: some fired by the
        // list, some fired from elsewhere (another list, a cancel), some
        // abandoned. Only the live ones may remain.
        let list = WakeList::new();
        let bell = Bell::new();
        let mut live = Vec::new();
        for i in 0..10_000 {
            let waker = Waker::new(&bell);
            list.register(&waker);
            match i % 4 {
                0 => waker.wake(),
                1 => drop(waker),
                2 => live.push(waker),
                _ => list.wake_all(),
            }
            if live.len() > 8 {
                live.remove(0);
            }
            assert!(list.len() <= live.len() + 2, "len {} at {i}", list.len());
        }
    }

    #[test]
    fn ring_all_reaches_every_sleeper() {
        let bell = Bell::new();
        let woken = Arc::new(AtomicU64::new(0));
        let asleep = Arc::new(Barrier::new(4));
        let seen = bell.seq();
        let sleepers: Vec<_> = (0..3)
            .map(|_| {
                let (bell, woken, asleep) =
                    (Arc::clone(&bell), Arc::clone(&woken), Arc::clone(&asleep));
                std::thread::spawn(move || {
                    asleep.wait();
                    bell.wait(seen, LONG);
                    woken.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        asleep.wait();
        // Whether a sleeper is already in `wait` or not yet, the ring
        // reaches it: in `wait` by the notify, before it by the stale seq.
        bell.ring_all();
        for s in sleepers {
            s.join().expect("sleeper exits");
        }
        assert_eq!(woken.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn wait_times_out_when_nothing_rings() {
        let bell = Bell::new();
        let started = Instant::now();
        assert!(!bell.wait(bell.seq(), Duration::from_millis(5)));
        assert!(started.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn watcher_sees_an_event_on_either_side_of_its_check() {
        let list = Arc::new(WakeList::new());
        let mut watcher = Watcher::new();
        // Event between `arm` and `wait`: the wait returns at once.
        let seen = watcher.arm(|w| list.register(w));
        list.wake_all();
        assert!(watcher.wait(seen, LONG));
        // The consumed waker is replaced on the next cycle, a live one is
        // not registered twice.
        let seen = watcher.arm(|w| list.register(w));
        assert_eq!(list.len(), 1);
        let again = watcher.arm(|_| panic!("still registered"));
        assert_eq!(seen, again);
        // Event from another thread while asleep.
        let firing = Arc::clone(&list);
        let t = std::thread::spawn(move || firing.wake_all());
        assert!(watcher.wait(seen, LONG));
        t.join().expect("firing thread exits");
    }
}
