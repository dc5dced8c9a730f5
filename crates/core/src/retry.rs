//! Retry and quarantine policy for failed training runs.
//!
//! A failed run is *censored*: its consumed cost occupies the cluster and
//! bills the tenant, but no quality observation enters the GP posterior —
//! so the Theorem 1 regret decomposition stays consistent. This module
//! decides what happens *next*: bounded in-round retries with a
//! simulated-cost backoff, and per-arm quarantine once an arm keeps
//! failing. Quarantined arms are masked out of GP-UCB's argmax
//! ([`GpUcb::set_arm_masked`](easeml_bandit::GpUcb::set_arm_masked)) and
//! re-enter on probation after a fixed number of global rounds.

use serde::Serialize;
use std::collections::BTreeMap;

/// How failed training runs are retried and when arms are quarantined.
/// Checkpoints carry it verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RetryPolicy {
    /// Retries allowed within one round after the first failed attempt.
    pub max_retries: u64,
    /// Simulated-cost backoff charged before the first retry.
    pub backoff_cost: f64,
    /// Multiplier applied to the backoff on each further retry.
    pub backoff_factor: f64,
    /// Consecutive failures (across rounds) after which the arm is
    /// quarantined; 0 disables quarantine.
    pub quarantine_threshold: u64,
    /// Global rounds a quarantined arm stays masked before probation.
    pub probation_rounds: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_cost: 0.1,
            backoff_factor: 2.0,
            quarantine_threshold: 3,
            probation_rounds: 25,
        }
    }
}

impl RetryPolicy {
    /// Whether another in-round retry is allowed after `failures_this_round`
    /// failed attempts.
    pub fn allows_retry(&self, failures_this_round: u64) -> bool {
        failures_this_round <= self.max_retries
    }

    /// Simulated-cost backoff charged before retry number `retry`
    /// (1-based): `backoff_cost · backoff_factor^(retry − 1)`.
    pub fn backoff_for(&self, retry: u64) -> f64 {
        self.backoff_cost * self.backoff_factor.powi(retry.saturating_sub(1) as i32)
    }
}

/// Mutable retry/quarantine bookkeeping: consecutive-failure counters per
/// (user, arm) and the probation schedule for quarantined arms. Everything
/// here is plain data, so it checkpoints and restores exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RetryState {
    consecutive: BTreeMap<(usize, usize), u64>,
    /// `(release_round, user, arm)` entries, unordered.
    releases: Vec<(u64, usize, usize)>,
}

impl RetryState {
    /// Fresh, empty state.
    pub fn new() -> Self {
        RetryState::default()
    }

    /// Records a failed attempt and returns the new consecutive-failure
    /// count for `(user, arm)`.
    pub fn record_failure(&mut self, user: usize, arm: usize) -> u64 {
        let slot = self.consecutive.entry((user, arm)).or_insert(0);
        *slot += 1;
        *slot
    }

    /// Resets the consecutive-failure counter after a successful run.
    pub fn record_success(&mut self, user: usize, arm: usize) {
        self.consecutive.remove(&(user, arm));
    }

    /// Current consecutive-failure count for `(user, arm)`.
    pub fn consecutive(&self, user: usize, arm: usize) -> u64 {
        self.consecutive.get(&(user, arm)).copied().unwrap_or(0)
    }

    /// Schedules `(user, arm)` to leave quarantine at `release_round`, and
    /// resets its failure counter so probation starts from a clean slate.
    pub fn schedule_release(&mut self, release_round: u64, user: usize, arm: usize) {
        self.consecutive.remove(&(user, arm));
        self.releases.push((release_round, user, arm));
    }

    /// Removes and returns every `(user, arm)` whose release round is due
    /// (`<= current_round`).
    pub fn due_releases(&mut self, current_round: u64) -> Vec<(usize, usize)> {
        let mut due = Vec::new();
        self.releases.retain(|&(round, user, arm)| {
            if round <= current_round {
                due.push((user, arm));
                false
            } else {
                true
            }
        });
        due
    }

    /// All scheduled releases, for checkpointing.
    pub fn releases(&self) -> &[(u64, usize, usize)] {
        &self.releases
    }

    /// All consecutive-failure counters, for checkpointing.
    pub fn counters(&self) -> &BTreeMap<(usize, usize), u64> {
        &self.consecutive
    }

    /// Rebuilds state from checkpointed counters and releases.
    pub fn from_parts(
        counters: BTreeMap<(usize, usize), u64>,
        releases: Vec<(u64, usize, usize)>,
    ) -> Self {
        RetryState {
            consecutive: counters,
            releases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_bounds_retries() {
        let p = RetryPolicy::default();
        assert!(p.allows_retry(1));
        assert!(p.allows_retry(2));
        assert!(!p.allows_retry(3), "two retries after the first failure");
    }

    #[test]
    fn backoff_grows_geometrically() {
        let p = RetryPolicy {
            backoff_cost: 0.5,
            backoff_factor: 2.0,
            ..RetryPolicy::default()
        };
        assert!((p.backoff_for(1) - 0.5).abs() < 1e-12);
        assert!((p.backoff_for(2) - 1.0).abs() < 1e-12);
        assert!((p.backoff_for(3) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn failure_counters_reset_on_success() {
        let mut s = RetryState::new();
        assert_eq!(s.record_failure(0, 1), 1);
        assert_eq!(s.record_failure(0, 1), 2);
        assert_eq!(s.consecutive(0, 1), 2);
        assert_eq!(s.consecutive(0, 2), 0, "other arms unaffected");
        s.record_success(0, 1);
        assert_eq!(s.consecutive(0, 1), 0);
    }

    #[test]
    fn releases_fire_once_their_round_is_due() {
        let mut s = RetryState::new();
        s.record_failure(0, 1);
        s.schedule_release(10, 0, 1);
        s.schedule_release(20, 2, 3);
        assert_eq!(s.consecutive(0, 1), 0, "quarantine clears the counter");
        assert!(s.due_releases(9).is_empty());
        assert_eq!(s.due_releases(10), vec![(0, 1)]);
        assert!(s.due_releases(10).is_empty(), "a release fires once");
        assert_eq!(s.due_releases(100), vec![(2, 3)]);
    }

    #[test]
    fn state_round_trips_through_parts() {
        let mut s = RetryState::new();
        s.record_failure(1, 2);
        s.schedule_release(7, 3, 4);
        let copy = RetryState::from_parts(s.counters().clone(), s.releases().to_vec());
        assert_eq!(copy, s);
    }
}
