//! The five-level multi-level feedback queue (§IV-F1).
//!
//! "Rather than predict the resources required to complete a new query
//! ahead of time, Presto simply uses a task's aggregate CPU time to
//! classify it into the five levels of a multi-level feedback queue. As
//! tasks accumulate more CPU time, they move to higher levels. Each level
//! is assigned a configurable fraction of the available CPU time."

use parking_lot::Mutex;
use presto_common::counter_set;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of levels.
pub const LEVELS: usize = 5;

/// CPU-time thresholds separating the levels. A task with aggregate CPU
/// below `THRESHOLDS[i]` sits in level `i`. (The paper's production quanta
/// is 1 s; the simulated cluster scales everything down.)
pub const THRESHOLDS: [Duration; LEVELS - 1] = [
    Duration::from_millis(100),
    Duration::from_millis(500),
    Duration::from_millis(2_500),
    Duration::from_millis(12_500),
];

/// Fraction of CPU each level should receive. New/cheap work gets the
/// largest share — "Presto gives higher priority to queries with lowest
/// resource consumption … users expect inexpensive queries to complete
/// quickly."
pub const LEVEL_SHARES: [f64; LEVELS] = [0.40, 0.25, 0.17, 0.11, 0.07];

/// Classify a task by its aggregate CPU time.
pub fn level_of(cpu: Duration) -> usize {
    for (i, t) in THRESHOLDS.iter().enumerate() {
        if cpu < *t {
            return i;
        }
    }
    LEVELS - 1
}

/// A runnable entry. The scheduler stores opaque items tagged with the
/// level they were classified into at enqueue time.
struct Level<T> {
    queue: VecDeque<T>,
    /// The level's counters, kept in their exported shape (`used_nanos`
    /// also drives deficit-based level selection); `occupancy` is filled in
    /// from `queue` when a snapshot is taken.
    stats: LevelSnapshot,
}

counter_set! {
    /// Point-in-time view of one level, for metrics export.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LevelSnapshot[json] {
        /// Entries currently queued at this level.
        occupancy: usize,
        /// CPU nanoseconds charged to this level so far.
        used_nanos: u64,
        /// Entries ever enqueued at this level.
        entries: u64,
        /// Quanta dispatched from this level.
        quanta_granted: u64,
    }

    /// Point-in-time view of the whole queue.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct SchedulerSnapshot[json] {
        levels: Vec<LevelSnapshot>,
        /// Times a task crossed a CPU threshold into a lower-priority level.
        demotions: u64,
        /// Always zero under aggregate-CPU classification (CPU is monotonic,
        /// so a task never moves back down); kept so dashboards watching for
        /// scheduler-policy changes have a stable field.
        promotions: u64,
    }
}

/// Deficit-weighted multi-level queue.
pub struct MultilevelQueue<T> {
    levels: Mutex<Vec<Level<T>>>,
    demotions: AtomicU64,
    promotions: AtomicU64,
}

impl<T> Default for MultilevelQueue<T> {
    fn default() -> Self {
        MultilevelQueue {
            levels: Mutex::new(
                (0..LEVELS)
                    .map(|_| Level {
                        queue: VecDeque::new(),
                        stats: LevelSnapshot::default(),
                    })
                    .collect(),
            ),
            demotions: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
        }
    }
}

impl<T> MultilevelQueue<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue an entry whose owning task has accumulated `task_cpu`.
    pub fn push(&self, item: T, task_cpu: Duration) {
        let level = level_of(task_cpu);
        let mut levels = self.levels.lock();
        levels[level].stats.entries += 1;
        levels[level].queue.push_back(item);
    }

    /// Dequeue the next entry: among non-empty levels, pick the one whose
    /// consumed CPU is furthest below its target share.
    pub fn pop(&self) -> Option<T> {
        let mut levels = self.levels.lock();
        let total_used: u64 = levels
            .iter()
            .map(|l| l.stats.used_nanos)
            .sum::<u64>()
            .max(1);
        let mut best: Option<usize> = None;
        let mut best_deficit = f64::MIN;
        for (i, level) in levels.iter().enumerate() {
            if level.queue.is_empty() {
                continue;
            }
            let share = level.stats.used_nanos as f64 / total_used as f64;
            let deficit = LEVEL_SHARES[i] - share;
            if deficit > best_deficit {
                best_deficit = deficit;
                best = Some(i);
            }
        }
        let i = best?;
        levels[i].stats.quanta_granted += 1;
        levels[i].queue.pop_front()
    }

    /// Charge CPU time consumed by an entry that ran from `level`.
    ///
    /// "If an operator exceeds the quanta, the scheduler 'charges' actual
    /// thread time to the task" — the charge lands on the level the work
    /// ran at, preserving fairness even for splits that overshoot.
    pub fn charge(&self, task_cpu_before: Duration, elapsed: Duration) {
        let level = level_of(task_cpu_before);
        // The quantum pushed the task past a threshold: its next enqueue
        // lands at a lower-priority level. That transition is a demotion.
        if level_of(task_cpu_before + elapsed) > level {
            self.demotions.fetch_add(1, Ordering::Relaxed);
        }
        self.levels.lock()[level].stats.used_nanos += elapsed.as_nanos() as u64;
    }

    /// Snapshot occupancy and counters for metrics export.
    pub fn snapshot(&self) -> SchedulerSnapshot {
        let levels = self.levels.lock();
        SchedulerSnapshot {
            levels: levels
                .iter()
                .map(|l| LevelSnapshot {
                    occupancy: l.queue.len(),
                    ..l.stats
                })
                .collect(),
            demotions: self.demotions.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
        }
    }

    pub fn len(&self) -> usize {
        self.levels.lock().iter().map(|l| l.queue.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain every queued entry (shutdown).
    pub fn drain(&self) -> Vec<T> {
        let mut levels = self.levels.lock();
        let mut out = Vec::new();
        for l in levels.iter_mut() {
            out.extend(l.queue.drain(..));
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_cpu() {
        assert_eq!(level_of(Duration::ZERO), 0);
        assert_eq!(level_of(Duration::from_millis(99)), 0);
        assert_eq!(level_of(Duration::from_millis(100)), 1);
        assert_eq!(level_of(Duration::from_millis(600)), 2);
        assert_eq!(level_of(Duration::from_secs(60)), LEVELS - 1);
    }

    #[test]
    fn new_work_preferred_over_old() {
        let q: MultilevelQueue<&'static str> = MultilevelQueue::new();
        // An expensive task has consumed lots of level-4 CPU.
        q.push("old", Duration::from_secs(100));
        q.charge(Duration::from_secs(100), Duration::from_secs(10));
        // A fresh task arrives.
        q.push("new", Duration::ZERO);
        // Level 0 has the bigger deficit → "new" runs first.
        assert_eq!(q.pop(), Some("new"));
        assert_eq!(q.pop(), Some("old"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn shares_balance_over_time() {
        // Keep both levels permanently occupied (re-push after each pop)
        // and count which level gets scheduled.
        let q: MultilevelQueue<usize> = MultilevelQueue::new();
        q.push(0, Duration::ZERO);
        q.push(4, Duration::from_secs(100));
        let mut level0 = 0;
        let mut level4 = 0;
        for _ in 0..1000 {
            match q.pop() {
                Some(0) => {
                    level0 += 1;
                    q.charge(Duration::ZERO, Duration::from_millis(10));
                    q.push(0, Duration::ZERO);
                }
                Some(4) => {
                    level4 += 1;
                    q.charge(Duration::from_secs(100), Duration::from_millis(10));
                    q.push(4, Duration::from_secs(100));
                }
                _ => unreachable!(),
            }
        }
        // Both levels run, but level 0 gets the larger share (its target
        // fraction is 0.40 vs 0.07).
        assert!(level0 > level4, "level0={level0} level4={level4}");
        assert!(level4 > 0, "high levels are not starved");
    }

    #[test]
    fn snapshot_tracks_occupancy_and_demotions() {
        let q: MultilevelQueue<u32> = MultilevelQueue::new();
        q.push(1, Duration::ZERO);
        let snap = q.snapshot();
        assert_eq!(snap.levels.len(), LEVELS);
        assert_eq!(snap.levels[0].occupancy, 1);
        assert_eq!(snap.levels[0].entries, 1);
        // A quantum that crosses the first CPU threshold is a demotion.
        q.charge(Duration::from_millis(99), Duration::from_millis(5));
        let snap = q.snapshot();
        assert_eq!(snap.demotions, 1);
        assert_eq!(snap.promotions, 0);
        assert!(snap.levels[0].used_nanos > 0);
        let _ = q.pop();
        assert_eq!(q.snapshot().levels[0].quanta_granted, 1);
        assert_eq!(q.snapshot().levels[0].occupancy, 0);
    }

    #[test]
    fn drain_empties() {
        let q: MultilevelQueue<u32> = MultilevelQueue::new();
        q.push(1, Duration::ZERO);
        q.push(2, Duration::from_secs(1));
        assert_eq!(q.drain().len(), 2);
        assert!(q.is_empty());
    }
}
