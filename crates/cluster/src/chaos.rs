//! Deterministic fault injection for the cluster (§IV-G).
//!
//! The paper's fault-tolerance machinery — heartbeat liveness detection,
//! prompt clean query failure, graceful drain — is only trustworthy if it
//! is exercised under faults. [`ChaosSchedule`] generates a seeded,
//! reproducible timeline of worker-level faults (crashes, scheduler hangs,
//! resumes) that tests replay against a live
//! [`Cluster`](crate::Cluster). The same seed always produces the same
//! schedule; `PRESTO_CHAOS_SEED` overrides the seed from the environment
//! (see [`presto_common::chaos::seed_from_env`]).
//!
//! Faults below the worker — split opens, page reads, spill writes, frame
//! decodes — come from the cluster's
//! [`FaultPlane`](presto_common::chaos::FaultPlane) (`ClusterConfig::faults`),
//! drawn from the same seed family so one number reproduces an entire run.

use presto_common::chaos::ChaosRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cluster::Cluster;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Crash the worker: tasks fail with `WorkerFailed`, the node stops.
    Kill(usize),
    /// Hang the worker's scheduler: it stops taking quanta and stops
    /// heartbeating; the liveness detector should declare it lost.
    Hang(usize),
    /// Un-hang a previously hung worker (a "GC-pause" style blip).
    Resume(usize),
}

/// A deterministic, seeded timeline of [`ChaosEvent`]s.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    pub seed: u64,
    /// Events sorted by offset from schedule start.
    pub events: Vec<(Duration, ChaosEvent)>,
}

/// Knobs for [`ChaosSchedule::generate`].
#[derive(Debug, Clone, Copy)]
pub struct ChaosProfile {
    /// Total span over which events are scattered.
    pub span: Duration,
    /// Number of hang/resume blips (each shorter than `blip_max`).
    pub blips: usize,
    /// Upper bound on a blip's hang duration. Keep this *below* the
    /// cluster's `liveness_timeout` so blips recover without detection.
    pub blip_max: Duration,
    /// Inject one hang that is never resumed (the detector must catch it).
    pub permanent_hang: bool,
    /// Inject one crash.
    pub crash: bool,
}

impl ChaosSchedule {
    /// Generate a schedule for a cluster of `workers` nodes. Victims are
    /// drawn only from the upper half of worker indices so at least half
    /// the cluster survives every run — queries retried after a fault have
    /// somewhere to land. Same `(seed, workers, profile)` → same schedule.
    pub fn generate(seed: u64, workers: usize, profile: &ChaosProfile) -> ChaosSchedule {
        let mut rng = ChaosRng::new(seed);
        let mut events: Vec<(Duration, ChaosEvent)> = Vec::new();
        let span_ns = profile.span.as_nanos() as u64;
        let survivors = workers.div_ceil(2);
        let victims: Vec<usize> = (survivors..workers).collect();
        if victims.is_empty() {
            return ChaosSchedule { seed, events };
        }
        let pick = |rng: &mut ChaosRng| victims[rng.next_below(victims.len() as u64) as usize];
        let at = |rng: &mut ChaosRng| Duration::from_nanos(rng.next_below(span_ns.max(1)));
        for _ in 0..profile.blips {
            let w = pick(&mut rng);
            let start = at(&mut rng);
            let hang =
                Duration::from_nanos(rng.next_below(profile.blip_max.as_nanos().max(1) as u64));
            events.push((start, ChaosEvent::Hang(w)));
            events.push((start + hang, ChaosEvent::Resume(w)));
        }
        if profile.permanent_hang {
            let w = pick(&mut rng);
            events.push((at(&mut rng), ChaosEvent::Hang(w)));
        }
        if profile.crash {
            let w = pick(&mut rng);
            events.push((at(&mut rng), ChaosEvent::Kill(w)));
        }
        events.sort_by_key(|(t, _)| *t);
        ChaosSchedule { seed, events }
    }

    /// Replay the schedule against a live cluster, in real time. Returns
    /// when the last event has fired or `stop` is raised. A worker that a
    /// `Kill` already took down absorbs later `Hang`/`Resume` events
    /// harmlessly (pausing a dead worker is a no-op).
    pub fn run(&self, cluster: &Cluster, stop: &Arc<AtomicBool>) {
        let started = Instant::now();
        for (offset, event) in &self.events {
            loop {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let elapsed = started.elapsed();
                if elapsed >= *offset {
                    break;
                }
                std::thread::sleep((*offset - elapsed).min(Duration::from_millis(2)));
            }
            match *event {
                ChaosEvent::Kill(w) => cluster.kill_worker(w),
                ChaosEvent::Hang(w) => cluster.hang_worker(w),
                ChaosEvent::Resume(w) => cluster.resume_worker(w),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_profile() -> ChaosProfile {
        ChaosProfile {
            span: Duration::from_millis(500),
            blips: 2,
            blip_max: Duration::from_millis(50),
            permanent_hang: true,
            crash: true,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let profile = default_profile();
        let a = ChaosSchedule::generate(7, 8, &profile);
        let b = ChaosSchedule::generate(7, 8, &profile);
        assert_eq!(a.events, b.events);
        assert!(!a.events.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let profile = default_profile();
        let a = ChaosSchedule::generate(1, 8, &profile);
        let b = ChaosSchedule::generate(2, 8, &profile);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn victims_come_from_upper_half_only() {
        let profile = default_profile();
        for seed in 0..20 {
            let s = ChaosSchedule::generate(seed, 8, &profile);
            for (_, e) in &s.events {
                let w = match *e {
                    ChaosEvent::Kill(w) | ChaosEvent::Hang(w) | ChaosEvent::Resume(w) => w,
                };
                assert!(w >= 4, "worker {w} in the surviving half was targeted");
            }
        }
    }

    #[test]
    fn events_are_time_ordered_within_span() {
        let profile = ChaosProfile {
            span: Duration::from_millis(100),
            blips: 3,
            blip_max: Duration::from_millis(10),
            permanent_hang: true,
            crash: true,
        };
        let s = ChaosSchedule::generate(42, 4, &profile);
        let mut prev = Duration::ZERO;
        for (t, _) in &s.events {
            assert!(*t >= prev);
            prev = *t;
            // Blip resumes may land up to blip_max past the span.
            assert!(*t <= profile.span + profile.blip_max);
        }
    }

    #[test]
    fn single_worker_cluster_generates_no_events() {
        // With one worker the surviving half is everything; chaos must not
        // take the only node down.
        let s = ChaosSchedule::generate(3, 1, &default_profile());
        assert!(s.events.is_empty());
    }
}
