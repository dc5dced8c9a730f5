//! Constant-memory stream summaries for million-tenant telemetry.
//!
//! Three std-only building blocks, all O(1) per observation and bounded in
//! memory regardless of how many tenants or events flow through them:
//!
//! * [`QuantileSketch`] — a DDSketch-style log-bucketed quantile sketch
//!   with a configurable *relative* error `alpha`: the estimate for any
//!   quantile `q` is within `alpha * x` of the value `x` that an exact
//!   sort would return at the same rank. Sketches with equal `alpha`
//!   merge losslessly (bucket counts add), so per-shard or per-rotated-file
//!   sketches fold into one.
//! * [`SpaceSaving`] — the Space-Saving heavy-hitter tracker of Metwally
//!   et al., generalized to weighted offers. With capacity `m`, every key
//!   whose true weight exceeds `total/m` is tracked, and each reported
//!   count overestimates the true weight by at most its reported `error`
//!   (itself at most `total/m`).
//! * [`Reservoir`] — Vitter's Algorithm R over a deterministic
//!   splitmix64 stream: a uniform fixed-size sample of an unbounded
//!   stream, reporting evictions so callers can drop per-item state.
//!
//! None of these allocate per observation; the quantile sketch allocates
//! only when a new log-bucket first appears, and collapses its lowest
//! buckets when a hard bucket cap is hit.

use crate::json::{
    as_f64, as_object, as_tuple, as_u64, get_f64, get_nullable, get_u64, get_usize, get_vec, Json,
};
use easeml_wal::SplitMix64;
use serde::Serialize;
use std::collections::BTreeMap;

/// Values at or below this magnitude land in the sketch's zero bucket:
/// relative error is meaningless at the float noise floor.
const MIN_TRACKABLE: f64 = 1e-12;

/// Default relative-error target for quantile sketches (1%).
pub const DEFAULT_SKETCH_ALPHA: f64 = 0.01;

/// Default cap on the number of live log-buckets per sketch. At
/// `alpha = 0.01` one bucket spans a factor of ~1.02, so 512 buckets cover
/// more than 17 orders of magnitude before any collapsing happens.
pub const DEFAULT_SKETCH_MAX_BUCKETS: usize = 512;

/// Mergeable relative-error quantile sketch over non-negative values.
///
/// Log-bucketed (DDSketch-style): value `v > 0` lands in bucket
/// `ceil(log_gamma v)` with `gamma = (1 + alpha) / (1 - alpha)`, and the
/// bucket midpoint `2 * gamma^i / (gamma + 1)` is within `alpha * v` of
/// every value in the bucket. Negative and non-finite observations are
/// rejected (counted in [`QuantileSketch::rejected`]); values at the
/// float noise floor count as exact zeros.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    alpha: f64,
    ln_gamma: f64,
    max_buckets: usize,
    buckets: BTreeMap<i32, u64>,
    zeros: u64,
    count: u64,
    rejected: u64,
    collapsed: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(DEFAULT_SKETCH_ALPHA)
    }
}

impl QuantileSketch {
    /// A sketch with relative-error target `alpha` (clamped to a sane
    /// open interval) and the default bucket cap.
    pub fn new(alpha: f64) -> Self {
        Self::with_max_buckets(alpha, DEFAULT_SKETCH_MAX_BUCKETS)
    }

    /// A sketch with an explicit cap on live buckets. When the cap is
    /// exceeded the two lowest buckets merge, degrading accuracy only for
    /// the smallest observed values.
    pub fn with_max_buckets(alpha: f64, max_buckets: usize) -> Self {
        let alpha = if alpha.is_finite() {
            alpha.clamp(1e-4, 0.5)
        } else {
            DEFAULT_SKETCH_ALPHA
        };
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        Self {
            alpha,
            ln_gamma: gamma.ln(),
            max_buckets: max_buckets.max(2),
            buckets: BTreeMap::new(),
            zeros: 0,
            count: 0,
            rejected: 0,
            collapsed: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The configured relative-error target.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Fold one observation in. O(log buckets); never allocates unless a
    /// brand-new bucket opens.
    pub fn insert(&mut self, value: f64) {
        if !value.is_finite() || value < 0.0 {
            self.rejected += 1;
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value <= MIN_TRACKABLE {
            self.zeros += 1;
            return;
        }
        let index = (value.ln() / self.ln_gamma).ceil() as i32;
        *self.buckets.entry(index).or_insert(0) += 1;
        while self.buckets.len() > self.max_buckets {
            self.collapse_lowest();
        }
    }

    fn collapse_lowest(&mut self) {
        let Some((&lowest, _)) = self.buckets.iter().next() else {
            return;
        };
        let count = self.buckets.remove(&lowest).unwrap_or(0);
        let Some((&next, _)) = self.buckets.iter().next() else {
            self.zeros += count;
            return;
        };
        *self.buckets.entry(next).or_insert(0) += count;
        self.collapsed += count;
    }

    /// Merge another sketch into this one. Both sketches must share the
    /// same `alpha`; bucket counts simply add, so merging is associative
    /// and commutative and loses no accuracy.
    ///
    /// # Panics
    /// If the two sketches were built with different relative-error
    /// targets (mixing bucket bases would silently corrupt quantiles).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            (self.alpha - other.alpha).abs() < 1e-12,
            "cannot merge quantile sketches with different alpha ({} vs {})",
            self.alpha,
            other.alpha
        );
        for (&index, &count) in &other.buckets {
            *self.buckets.entry(index).or_insert(0) += count;
        }
        self.zeros += other.zeros;
        self.count += other.count;
        self.rejected += other.rejected;
        self.collapsed += other.collapsed;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        while self.buckets.len() > self.max_buckets {
            self.collapse_lowest();
        }
    }

    /// Estimate the `q`-quantile (`q` clamped to `[0, 1]`). Uses the rank
    /// `floor(q * (n - 1))` convention, matching an exact
    /// `sorted[rank]` lookup, so the relative-error guarantee is testable
    /// against a plain sort. Returns `None` on an empty sketch.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            0.5
        };
        let rank = (q * (self.count - 1) as f64).floor() as u64;
        if rank < self.zeros {
            return Some(0.0);
        }
        let mut cumulative = self.zeros;
        for (&index, &count) in &self.buckets {
            cumulative += count;
            if cumulative > rank {
                let gamma_i = (f64::from(index) * self.ln_gamma).exp();
                let estimate = 2.0 * gamma_i / (1.0 + (self.ln_gamma).exp());
                return Some(estimate.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Number of accepted observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of rejected (negative / non-finite) observations.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Number of observations whose bucket was collapsed into a coarser
    /// one by the bucket cap (their relative-error guarantee is void).
    pub fn collapsed(&self) -> u64 {
        self.collapsed
    }

    /// Sum of accepted observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of accepted observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest accepted observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest accepted observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Live log-buckets currently held.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Rough in-memory footprint: fixed header plus the live buckets.
    /// (BTreeMap nodes are amortized; 32 bytes per entry is a safe bound.)
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + 32 * self.buckets.len()
    }

    /// Exports the full sketch state as plain data — the checkpoint shape.
    /// [`QuantileSketch::from_parts`] round-trips it exactly.
    pub fn to_parts(&self) -> SketchParts {
        SketchParts {
            alpha: self.alpha,
            max_buckets: self.max_buckets,
            buckets: self.buckets.iter().map(|(&i, &c)| (i, c)).collect(),
            zeros: self.zeros,
            rejected: self.rejected,
            collapsed: self.collapsed,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
        }
    }

    /// Rebuilds a sketch from exported parts. The observation count is
    /// recomputed from the buckets; `min`/`max` of `None` (an empty
    /// export, or a lossy transport that nulled non-finite floats) fall
    /// back to the pristine sentinels.
    pub fn from_parts(parts: &SketchParts) -> Self {
        let mut sketch = Self::with_max_buckets(parts.alpha, parts.max_buckets);
        for &(index, count) in &parts.buckets {
            if count > 0 {
                *sketch.buckets.entry(index).or_insert(0) += count;
            }
        }
        sketch.zeros = parts.zeros;
        sketch.count = parts.zeros + sketch.buckets.values().sum::<u64>();
        sketch.rejected = parts.rejected;
        sketch.collapsed = parts.collapsed;
        sketch.sum = parts.sum;
        if sketch.count > 0 {
            sketch.min = parts.min.filter(|m| m.is_finite()).unwrap_or(0.0);
            sketch.max = parts.max.filter(|m| m.is_finite()).unwrap_or(0.0);
        }
        sketch
    }
}

/// A [`QuantileSketch`]'s full state as plain data, for checkpointing and
/// other out-of-process transport.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct SketchParts {
    /// Relative-error target α.
    pub alpha: f64,
    /// Live-bucket cap.
    pub max_buckets: usize,
    /// `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(i32, u64)>,
    /// Observations at or below the zero noise floor.
    pub zeros: u64,
    /// Rejected (negative / non-finite) observations.
    pub rejected: u64,
    /// Observations whose bucket was collapsed by the cap.
    pub collapsed: u64,
    /// Sum of accepted observations.
    pub sum: f64,
    /// Smallest accepted observation (`None` when empty).
    pub min: Option<f64>,
    /// Largest accepted observation (`None` when empty).
    pub max: Option<f64>,
}

impl SketchParts {
    /// Parses the parts from their JSON serialization (`what` names the
    /// value in errors).
    ///
    /// # Errors
    ///
    /// A message naming the malformed or missing field.
    pub fn from_value(value: &Json, what: &str) -> Result<Self, String> {
        let f = as_object(value, what)?;
        Ok(SketchParts {
            alpha: get_f64(f, "alpha")?,
            max_buckets: get_usize(f, "max_buckets")?,
            buckets: get_vec(f, "buckets", |pair, _| {
                let [index, count] = as_tuple(pair, "sketch bucket")?;
                let index = as_f64(index, "sketch bucket")?;
                if index.fract() != 0.0 || index.abs() > f64::from(i32::MAX) {
                    return Err(format!("{what}: malformed sketch bucket index {index}"));
                }
                Ok((index as i32, as_u64(count, "sketch bucket")?))
            })?,
            zeros: get_u64(f, "zeros")?,
            rejected: get_u64(f, "rejected")?,
            collapsed: get_u64(f, "collapsed")?,
            sum: get_f64(f, "sum")?,
            min: get_nullable(f, "min", as_f64)?,
            max: get_nullable(f, "max", as_f64)?,
        })
    }
}

/// One tracked heavy hitter: the estimated weight always *over*-counts the
/// true weight by at most `error`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeavyHitter {
    /// The tracked key (tenant id, device id, ...).
    pub key: u64,
    /// Estimated total weight offered under this key (`>=` the truth).
    pub weight: f64,
    /// Upper bound on the overestimate inherited from evicted slots.
    pub error: f64,
}

/// Space-Saving top-K tracker over weighted offers.
///
/// Holds at most `capacity` keys. Offering weight to an untracked key when
/// full evicts the minimum-weight slot and inherits its count as the new
/// key's `error` bound. Guarantees: every key with true weight
/// `> total / capacity` is tracked, and `weight - error <= truth <= weight`
/// for every tracked key.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpaceSaving {
    capacity: usize,
    entries: Vec<HeavyHitter>,
    total: f64,
}

impl SpaceSaving {
    /// A tracker holding at most `capacity` keys (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: Vec::new(),
            total: 0.0,
        }
    }

    /// Offer `weight` under `key`. Non-finite or non-positive weights are
    /// ignored (a zero-weight event carries no ranking signal).
    pub fn offer(&mut self, key: u64, weight: f64) {
        if !weight.is_finite() || weight <= 0.0 {
            return;
        }
        self.total += weight;
        if let Some(entry) = self.entries.iter_mut().find(|e| e.key == key) {
            entry.weight += weight;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(HeavyHitter {
                key,
                weight,
                error: 0.0,
            });
            return;
        }
        let min_idx = self
            .entries
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.weight.total_cmp(&b.weight))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let floor = self.entries[min_idx].weight;
        self.entries[min_idx] = HeavyHitter {
            key,
            weight: floor + weight,
            error: floor,
        };
    }

    /// The `k` heaviest tracked keys, weight-descending (key-ascending on
    /// ties, for deterministic output).
    pub fn top(&self, k: usize) -> Vec<HeavyHitter> {
        let mut sorted = self.entries.clone();
        sorted.sort_by(|a, b| b.weight.total_cmp(&a.weight).then(a.key.cmp(&b.key)));
        sorted.truncate(k);
        sorted
    }

    /// Total weight offered so far (including to evicted keys).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of currently tracked keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been tracked yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge another tracker into this one: tracked weights add where keys
    /// overlap; disjoint keys are offered in (inheriting eviction error as
    /// usual), and error bounds accumulate conservatively.
    pub fn merge(&mut self, other: &SpaceSaving) {
        for entry in other.top(other.len()) {
            self.total += entry.weight;
            if let Some(mine) = self.entries.iter_mut().find(|e| e.key == entry.key) {
                mine.weight += entry.weight;
                mine.error += entry.error;
            } else if self.entries.len() < self.capacity {
                self.entries.push(entry);
            } else {
                let min_idx = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.weight.total_cmp(&b.weight))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                let floor = self.entries[min_idx].weight;
                self.entries[min_idx] = HeavyHitter {
                    key: entry.key,
                    weight: floor + entry.weight,
                    error: floor + entry.error,
                };
            }
        }
    }

    /// Rough in-memory footprint.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of::<HeavyHitter>() * self.entries.capacity()
    }
}

/// What [`Reservoir::offer`] did with the item.
#[derive(Debug, Clone, PartialEq)]
pub enum ReservoirOutcome<T> {
    /// The reservoir had room; the item was appended.
    Added,
    /// The item replaced `evicted` at `index`.
    Replaced {
        /// Slot the new item now occupies.
        index: usize,
        /// The item that lost its slot.
        evicted: T,
    },
    /// The item was sampled out; the reservoir is unchanged.
    Rejected,
}

/// Fixed-size uniform sample of an unbounded stream (Algorithm R) over a
/// deterministic splitmix64 stream, so runs are reproducible per seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    rng: SplitMix64,
    items: Vec<T>,
}

impl<T> Reservoir<T> {
    /// A reservoir holding at most `capacity` items (minimum 1), drawing
    /// replacement decisions from `seed`.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self {
            capacity: capacity.max(1),
            seen: 0,
            rng: SplitMix64::new(seed),
            items: Vec::new(),
        }
    }

    /// Offer one item; after `n` offers each survivor is a uniform sample
    /// of the stream so far. Reports evictions so the caller can free any
    /// state keyed on the evicted item.
    pub fn offer(&mut self, item: T) -> ReservoirOutcome<T> {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
            return ReservoirOutcome::Added;
        }
        let slot = (self.rng.next_u64() % self.seen) as usize;
        if slot < self.capacity {
            let evicted = std::mem::replace(&mut self.items[slot], item);
            ReservoirOutcome::Replaced {
                index: slot,
                evicted,
            }
        } else {
            ReservoirOutcome::Rejected
        }
    }

    /// The current sample.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Total items offered.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Maximum sample size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * (sorted.len() - 1) as f64).floor() as usize;
        sorted[rank]
    }

    #[test]
    fn quantiles_respect_the_relative_error_bound() {
        let mut sketch = QuantileSketch::new(0.01);
        let mut values: Vec<f64> = (1..=10_000).map(|i| (i as f64) * 0.37).collect();
        for &v in &values {
            sketch.insert(v);
        }
        values.sort_by(f64::total_cmp);
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&values, q);
            let estimate = sketch.quantile(q).unwrap();
            assert!(
                (estimate - exact).abs() <= 0.01 * exact + 1e-9,
                "q={q}: est {estimate} vs exact {exact}"
            );
        }
    }

    #[test]
    fn zeros_nonfinite_and_negatives_are_handled() {
        let mut sketch = QuantileSketch::new(0.02);
        sketch.insert(0.0);
        sketch.insert(0.0);
        sketch.insert(5.0);
        sketch.insert(f64::NAN);
        sketch.insert(f64::INFINITY);
        sketch.insert(-1.0);
        assert_eq!(sketch.count(), 3);
        assert_eq!(sketch.rejected(), 3);
        assert_eq!(sketch.quantile(0.0), Some(0.0));
        let p100 = sketch.quantile(1.0).unwrap();
        assert!((p100 - 5.0).abs() <= 0.02 * 5.0);
        assert_eq!(sketch.min(), Some(0.0));
        assert_eq!(sketch.max(), Some(5.0));
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let sketch = QuantileSketch::default();
        assert_eq!(sketch.quantile(0.5), None);
        assert_eq!(sketch.mean(), None);
        assert_eq!(sketch.count(), 0);
    }

    #[test]
    fn merge_equals_single_stream_fold() {
        let mut left = QuantileSketch::new(0.01);
        let mut right = QuantileSketch::new(0.01);
        let mut whole = QuantileSketch::new(0.01);
        for i in 1..=1000 {
            let v = (i as f64).sqrt();
            whole.insert(v);
            if i % 2 == 0 {
                left.insert(v);
            } else {
                right.insert(v);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(left.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "different alpha")]
    fn merging_mismatched_alpha_panics() {
        let mut a = QuantileSketch::new(0.01);
        let b = QuantileSketch::new(0.05);
        a.merge(&b);
    }

    #[test]
    fn bucket_cap_bounds_memory_and_only_degrades_the_low_tail() {
        let mut sketch = QuantileSketch::with_max_buckets(0.01, 32);
        // 12 orders of magnitude cannot fit in 32 buckets at alpha=1%.
        for i in 0..5000 {
            sketch.insert(10f64.powf(-6.0 + 12.0 * (i as f64) / 5000.0));
        }
        assert!(sketch.num_buckets() <= 32);
        assert!(sketch.collapsed() > 0);
        // The top quantiles keep their guarantee: collapse only merges the
        // lowest buckets.
        let p99 = sketch.quantile(0.99).unwrap();
        assert!(p99 > 1e4, "p99 collapsed too far: {p99}");
        assert!(sketch.approx_bytes() < 4096);
    }

    #[test]
    fn space_saving_tracks_the_true_heavy_hitter() {
        let mut tracker = SpaceSaving::new(4);
        // Key 7 gets half the total weight; 100 noise keys share the rest.
        for i in 0..1000u64 {
            tracker.offer(7, 1.0);
            tracker.offer(i % 100 + 1000, 1.0);
        }
        let top = tracker.top(1);
        assert_eq!(top[0].key, 7);
        // Over-estimate only, and by at most total / capacity.
        assert!(top[0].weight >= 1000.0);
        assert!(top[0].error <= tracker.total() / 4.0);
        assert_eq!(tracker.len(), 4);
    }

    #[test]
    fn space_saving_ignores_unrankable_weights() {
        let mut tracker = SpaceSaving::new(2);
        tracker.offer(1, 0.0);
        tracker.offer(1, -3.0);
        tracker.offer(1, f64::NAN);
        assert!(tracker.is_empty());
        assert_eq!(tracker.total(), 0.0);
    }

    #[test]
    fn space_saving_merge_keeps_overestimates() {
        let mut a = SpaceSaving::new(3);
        let mut b = SpaceSaving::new(3);
        for _ in 0..50 {
            a.offer(1, 2.0);
            b.offer(1, 1.0);
            b.offer(2, 3.0);
        }
        a.merge(&b);
        let top = a.top(3);
        let one = top.iter().find(|e| e.key == 1).unwrap();
        assert!(one.weight >= 150.0 - 1e-9);
        assert!((a.total() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn reservoir_is_bounded_and_reports_evictions() {
        let mut reservoir = Reservoir::new(8, 42);
        let mut evictions = 0usize;
        for i in 0..1000u64 {
            match reservoir.offer(i) {
                ReservoirOutcome::Replaced { evicted, .. } => {
                    assert!(!reservoir.items().contains(&evicted));
                    evictions += 1;
                }
                ReservoirOutcome::Added => assert!(i < 8),
                ReservoirOutcome::Rejected => {}
            }
        }
        assert_eq!(reservoir.items().len(), 8);
        assert_eq!(reservoir.seen(), 1000);
        assert!(evictions > 0);
        // Deterministic per seed.
        let mut again = Reservoir::new(8, 42);
        for i in 0..1000u64 {
            again.offer(i);
        }
        assert_eq!(reservoir.items(), again.items());
    }

    #[test]
    fn parts_round_trip_bit_exactly() {
        let mut sketch = QuantileSketch::new(0.02);
        for i in 0..500 {
            sketch.insert(f64::from(i) * 0.37);
        }
        sketch.insert(f64::NAN); // one rejection
        let rebuilt = QuantileSketch::from_parts(&sketch.to_parts());
        assert_eq!(sketch, rebuilt);
        // Empty sketches round-trip to the pristine state too.
        let empty = QuantileSketch::new(0.01);
        assert_eq!(QuantileSketch::from_parts(&empty.to_parts()), empty);
    }
}
