//! Deterministic fault injection (§IV-G: "Presto is able to recover from
//! many transient errors using low-level retries").
//!
//! A [`FaultPlane`] is the one place faults are declared, routed and
//! counted. A cluster installs at most one (`ClusterConfig::faults`); the
//! engine consults it at four [`Site`]s right before the real call, so the
//! retries behind each site treat an injected fault like a real one. With
//! no plane installed, each site costs one `Option` test.
//!
//! All randomness derives from one seeded SplitMix64 family: a
//! [`Trigger::Chance`] draw hashes `(seed, site, rule, key)`, where the key
//! names what is hit (a split and its attempt, a run and its page), and the
//! cluster's `ChaosSchedule` draws from [`ChaosRng`]. `PRESTO_CHAOS_SEED`
//! overrides the seed, so a failing run replays from one number.

use crate::{PrestoError, Result};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The environment variable consulted by [`seed_from_env`].
pub const CHAOS_SEED_ENV: &str = "PRESTO_CHAOS_SEED";

/// Resolve the chaos seed: `PRESTO_CHAOS_SEED` when set and parseable,
/// otherwise `default`.
pub fn seed_from_env(default: u64) -> u64 {
    std::env::var(CHAOS_SEED_ENV)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

/// One SplitMix64 scrambling round: a cheap, high-quality stateless mixer.
/// Used directly for per-item decisions (hash a key with the seed) and as
/// the core of [`ChaosRng`].
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The top 53 bits of `x` as a uniform draw in `[0.0, 1.0)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`FaultPlane::hit`] key from whatever identifies the hit, e.g. a
/// split's description and its attempt. Stable within a build.
pub fn key_of(parts: impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    parts.hash(&mut hasher);
    hasher.finish()
}

/// Deterministic seeded generator for chaos schedules. Intentionally tiny:
/// fault injection needs reproducibility, not statistical perfection.
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.state)
    }

    /// Uniform in `[0, n)`. Modulo bias is negligible for the small ranges
    /// chaos schedules use (worker counts, event kinds).
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "next_below needs a non-empty range");
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0.0, 1.0)`.
    pub fn next_f64(&mut self) -> f64 {
        unit(self.next_u64())
    }
}

/// Where the engine consults the plane (named so in injected errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// A scan opens a split's page source.
    SplitOpen,
    /// A scan reads the next page of its open split.
    PageRead,
    /// A spill run appends a page.
    SpillWrite,
    /// An exchange client decodes a shuffle frame.
    FrameDecode,
}

/// When a rule fires, counted over its site's hits (the first hit is 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every `n`th hit (`Every(0)` never fires).
    Every(u64),
    /// The first `n` hits, then never again: a fault that heals.
    First(u64),
    /// A seeded draw per hit with probability `p`: the same seed and key
    /// always decide the same way.
    Chance(f64),
}

/// What a fired rule does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    /// Fail with a retryable error.
    Transient,
    /// Fail with an error no retry can heal.
    Permanent,
    /// Sleep, then let the call proceed (a straggler).
    Delay(Duration),
}

/// A cluster's declared faults and, per site, how often the engine hit it
/// and how often a rule fired.
#[derive(Debug, Default)]
pub struct FaultPlane {
    seed: u64,
    rules: Vec<(Site, Trigger, Effect)>,
    hits: [AtomicU64; 4],
    fired: [AtomicU64; 4],
}

impl FaultPlane {
    /// A plane without rules; `seed` decides every [`Trigger::Chance`] draw.
    pub fn new(seed: u64) -> FaultPlane {
        FaultPlane {
            seed,
            ..FaultPlane::default()
        }
    }

    /// Add a rule: at `site`, when `trigger` holds, do `effect`. A site's
    /// rules apply in the order added, and the first failure ends the hit.
    pub fn rule(mut self, site: Site, trigger: Trigger, effect: Effect) -> FaultPlane {
        self.rules.push((site, trigger, effect));
        self
    }

    /// Count a hit at `site` and apply the rules that fire. `key` names
    /// what is being hit, for [`Trigger::Chance`] draws.
    pub fn hit(&self, site: Site, key: u64) -> Result<()> {
        let s = site as usize;
        let n = self.hits[s].fetch_add(1, Ordering::Relaxed) + 1;
        for (i, &(at, trigger, effect)) in self.rules.iter().enumerate() {
            let fires = at == site
                && match trigger {
                    Trigger::Every(k) => n.is_multiple_of(k),
                    Trigger::First(k) => n <= k,
                    Trigger::Chance(p) => {
                        let salt = (s as u64) << 32 | i as u64;
                        unit(mix(self.seed ^ mix(key) ^ salt)) < p
                    }
                };
            if fires {
                self.fired[s].fetch_add(1, Ordering::Relaxed);
                match effect {
                    Effect::Transient => return Err(PrestoError::transient(injected("", site))),
                    Effect::Permanent => {
                        return Err(PrestoError::external(injected("permanent ", site)))
                    }
                    Effect::Delay(d) => std::thread::sleep(d),
                }
            }
        }
        Ok(())
    }

    /// Times the engine consulted the plane at `site`.
    pub fn hits(&self, site: Site) -> u64 {
        self.hits[site as usize].load(Ordering::Relaxed)
    }

    /// Times a rule fired at `site` (failures and delays alike).
    pub fn fired(&self, site: Site) -> u64 {
        self.fired[site as usize].load(Ordering::Relaxed)
    }
}

/// The message of an injected failure, naming its site.
fn injected(kind: &str, site: Site) -> String {
    format!("chaos: injected {kind}{site:?} failure")
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = ChaosRng::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = ChaosRng::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = ChaosRng::new(43);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn floats_are_unit_interval() {
        let mut r = ChaosRng::new(7);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn mix_is_stateless_and_nontrivial() {
        assert_eq!(mix(1), mix(1));
        assert_ne!(mix(1), mix(2));
        assert_ne!(mix(0), 0);
    }

    #[test]
    fn env_seed_overrides_default() {
        // Serialize around the process-global env var.
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = LOCK.lock();
        std::env::remove_var(CHAOS_SEED_ENV);
        assert_eq!(seed_from_env(9), 9);
        std::env::set_var(CHAOS_SEED_ENV, "1234");
        assert_eq!(seed_from_env(9), 1234);
        std::env::set_var(CHAOS_SEED_ENV, "not a number");
        assert_eq!(seed_from_env(9), 9);
        std::env::remove_var(CHAOS_SEED_ENV);
    }

    /// The split-open key a scan uses: the split's description and attempt.
    fn split(i: u64, attempt: u32) -> u64 {
        key_of((format!("split-{i}"), attempt))
    }

    #[test]
    fn injects_every_second_source_creation() {
        let plane = FaultPlane::new(0).rule(Site::SplitOpen, Trigger::Every(2), Effect::Transient);
        assert!(plane.hit(Site::SplitOpen, split(0, 0)).is_ok());
        let err = plane.hit(Site::SplitOpen, split(0, 0)).unwrap_err();
        assert!(err.is_retryable(), "injected failures must be retryable");
        assert!(err.message.contains("injected SplitOpen failure"), "{err}");
        assert!(plane.hit(Site::SplitOpen, split(0, 0)).is_ok());
        assert!(
            plane.hit(Site::PageRead, 0).is_ok(),
            "rules apply at their own site"
        );
        assert_eq!(plane.fired(Site::SplitOpen), 1);
        assert_eq!(plane.hits(Site::SplitOpen), 3);
        assert_eq!(
            (plane.hits(Site::PageRead), plane.fired(Site::PageRead)),
            (1, 0)
        );
    }

    #[test]
    fn first_n_hits_fail_then_the_fault_heals() {
        let plane =
            FaultPlane::new(0).rule(Site::FrameDecode, Trigger::First(2), Effect::Transient);
        let fates: Vec<bool> = (0..5)
            .map(|i| plane.hit(Site::FrameDecode, i).is_err())
            .collect();
        assert_eq!(fates, [true, true, false, false, false]);
        assert_eq!(plane.fired(Site::FrameDecode), 2);
    }

    #[test]
    fn policy_decisions_are_deterministic_per_seed() {
        let fates = |seed: u64| -> Vec<bool> {
            let plane = FaultPlane::new(seed).rule(
                Site::SplitOpen,
                Trigger::Chance(0.5),
                Effect::Transient,
            );
            (0..64)
                .map(|i| plane.hit(Site::SplitOpen, split(i, 0)).is_err())
                .collect()
        };
        let a = fates(99);
        assert_eq!(a, fates(99), "same seed must doom the same splits");
        assert_ne!(a, fates(100), "another seed dooms others");
        assert!(a.iter().any(|f| *f), "ratio 0.5 should doom some");
        assert!(a.iter().any(|f| !*f), "ratio 0.5 should spare some");
    }

    #[test]
    fn transient_policy_failure_heals_on_retry() {
        // Split sites are keyed on (split, attempt): a retry draws afresh,
        // so a split that failed its first open eventually opens.
        let plane =
            FaultPlane::new(7).rule(Site::SplitOpen, Trigger::Chance(0.5), Effect::Transient);
        let doomed: Vec<u64> = (0..64)
            .filter(|&i| plane.hit(Site::SplitOpen, split(i, 0)).is_err())
            .collect();
        assert!(!doomed.is_empty());
        for i in doomed {
            let healed =
                (1..32).any(|attempt| plane.hit(Site::SplitOpen, split(i, attempt)).is_ok());
            assert!(healed, "split {i} never opened on retry");
        }
    }

    #[test]
    fn permanent_policy_failure_never_heals() {
        let plane =
            FaultPlane::new(7).rule(Site::SplitOpen, Trigger::Chance(1.0), Effect::Permanent);
        for attempt in 0..3 {
            let err = plane.hit(Site::SplitOpen, split(0, attempt)).unwrap_err();
            assert!(!err.is_retryable(), "permanent failures are not retryable");
            assert!(err.message.contains("injected permanent"), "{err}");
        }
    }

    #[test]
    fn delays_count_as_fired_and_let_the_call_through() {
        let delay = Duration::from_millis(2);
        let plane = FaultPlane::new(0)
            .rule(Site::PageRead, Trigger::Every(1), Effect::Delay(delay))
            .rule(Site::PageRead, Trigger::Every(2), Effect::Transient);
        let started = std::time::Instant::now();
        assert!(plane.hit(Site::PageRead, 0).is_ok());
        assert!(
            plane.hit(Site::PageRead, 0).is_err(),
            "later rules still apply"
        );
        assert!(started.elapsed() >= delay * 2);
        assert_eq!(plane.fired(Site::PageRead), 3);
    }

    #[test]
    fn chance_draws_differ_by_site() {
        let plane = FaultPlane::new(3)
            .rule(Site::SplitOpen, Trigger::Chance(0.5), Effect::Transient)
            .rule(Site::PageRead, Trigger::Chance(0.5), Effect::Transient);
        let open: Vec<bool> = (0..64)
            .map(|k| plane.hit(Site::SplitOpen, k).is_err())
            .collect();
        let read: Vec<bool> = (0..64)
            .map(|k| plane.hit(Site::PageRead, k).is_err())
            .collect();
        assert_ne!(
            open, read,
            "one key must not doom the same hits at every site"
        );
    }
}
