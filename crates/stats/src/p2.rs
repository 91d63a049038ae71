//! The P² (piecewise-parabolic) streaming quantile estimator
//! (Jain & Chlamtac, 1985).
//!
//! Treadmill's adaptive histogram needs a calibration phase before it
//! can bin; P² needs none and uses five markers of constant memory.
//! It is provided as an alternative aggregation backend and as a
//! cross-check for the histogram's estimates: both must agree at
//! steady state, and the ablation benchmarks compare their costs.

/// A streaming estimator of one quantile using the P² algorithm.
///
/// # Examples
///
/// ```
/// use treadmill_stats::p2::P2Quantile;
///
/// let mut p99 = P2Quantile::new(0.99);
/// for i in 1..=10_000 {
///     p99.record(f64::from(i));
/// }
/// let estimate = p99.estimate();
/// assert!((estimate - 9_900.0).abs() < 100.0, "estimate {estimate}");
/// ```
#[derive(Debug, Clone)]
pub struct P2Quantile {
    p: f64,
    // Marker heights (estimates) and integer positions.
    heights: [f64; 5],
    positions: [f64; 5],
    desired: [f64; 5],
    increments: [f64; 5],
    count: usize,
    initial: Vec<f64>,
}

/// A [`P2Quantile`]'s full state, captured for checkpointing.
#[derive(Debug, Clone, PartialEq)]
pub struct P2State {
    /// Target probability.
    pub p: f64,
    /// Marker heights.
    pub heights: [f64; 5],
    /// Marker positions.
    pub positions: [f64; 5],
    /// Desired marker positions.
    pub desired: [f64; 5],
    /// Per-sample desired-position increments.
    pub increments: [f64; 5],
    /// Samples observed.
    pub count: usize,
    /// Warm-up samples (fewer than five seen so far).
    pub initial: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for the `p`-quantile.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile probability {p} outside (0, 1)");
        P2Quantile {
            p,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            increments: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            initial: Vec::with_capacity(5),
        }
    }

    /// Number of samples observed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite());
        self.count += 1;
        if self.initial.len() < 5 {
            self.initial.push(x);
            if self.initial.len() == 5 {
                self.initial.sort_by(f64::total_cmp);
                self.heights.copy_from_slice(&self.initial);
            }
            return;
        }

        // Find the cell k such that heights[k] <= x < heights[k+1].
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut cell = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };

        for position in self.positions.iter_mut().skip(k + 1) {
            *position += 1.0;
        }
        for (desired, increment) in self.desired.iter_mut().zip(self.increments) {
            *desired += increment;
        }

        // Adjust interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let sign = d.signum();
                let candidate = self.parabolic(i, sign);
                let new_height = if self.heights[i - 1] < candidate
                    && candidate < self.heights[i + 1]
                {
                    candidate
                } else {
                    self.linear(i, sign)
                };
                self.heights[i] = new_height;
                self.positions[i] += sign;
            }
        }
    }

    fn parabolic(&self, i: usize, sign: f64) -> f64 {
        let q = &self.heights;
        let n = &self.positions;
        q[i] + sign / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + sign) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - sign) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, sign: f64) -> f64 {
        let j = if sign > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + sign * (self.heights[j] - self.heights[i])
                / (self.positions[j] - self.positions[i])
    }

    /// Captures the full estimator state for checkpointing. Feeding the
    /// result to [`P2Quantile::from_state`] yields an estimator whose
    /// every subsequent [`P2Quantile::record`] and estimate is
    /// bit-identical to this one's.
    pub fn state(&self) -> P2State {
        P2State {
            p: self.p,
            heights: self.heights,
            positions: self.positions,
            desired: self.desired,
            increments: self.increments,
            count: self.count,
            initial: self.initial.clone(),
        }
    }

    /// Rebuilds an estimator from a checkpointed [`P2State`].
    ///
    /// # Panics
    ///
    /// Panics if the state is internally inconsistent (probability out
    /// of range or more than five warm-up samples).
    pub fn from_state(state: P2State) -> Self {
        assert!(
            state.p > 0.0 && state.p < 1.0,
            "quantile probability {} outside (0, 1)",
            state.p
        );
        assert!(state.initial.len() <= 5, "more than five warm-up samples");
        P2Quantile {
            p: state.p,
            heights: state.heights,
            positions: state.positions,
            desired: state.desired,
            increments: state.increments,
            count: state.count,
            initial: state.initial,
        }
    }

    /// The current quantile estimate.
    ///
    /// # Panics
    ///
    /// Panics if no samples have been recorded.
    pub fn estimate(&self) -> f64 {
        assert!(self.count > 0, "estimate of empty stream");
        if self.initial.len() < 5 {
            // Fewer than five samples: exact small-sample quantile.
            let mut sorted = self.initial.clone();
            sorted.sort_by(f64::total_cmp);
            return crate::quantile::quantile_of_sorted(&sorted, self.p);
        }
        self.heights[2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::sample_exponential;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn median_of_uniform_stream() {
        let mut est = P2Quantile::new(0.5);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100_000 {
            est.record(rng.gen_range(0.0..1000.0));
        }
        assert!((est.estimate() - 500.0).abs() < 15.0, "{}", est.estimate());
    }

    #[test]
    fn p99_of_exponential_stream() {
        // Exp(100): true p99 = 100 ln 100 ≈ 460.5.
        let mut est = P2Quantile::new(0.99);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..200_000 {
            est.record(sample_exponential(&mut rng, 100.0));
        }
        let truth = 100.0 * 100.0f64.ln();
        assert!(
            (est.estimate() / truth - 1.0).abs() < 0.1,
            "estimate {} vs truth {truth}",
            est.estimate()
        );
    }

    #[test]
    fn small_samples_are_exact() {
        let mut est = P2Quantile::new(0.5);
        est.record(3.0);
        est.record(1.0);
        est.record(2.0);
        assert_eq!(est.estimate(), 2.0);
        assert_eq!(est.count(), 3);
    }

    #[test]
    fn agrees_with_adaptive_histogram() {
        let mut p2 = P2Quantile::new(0.95);
        let mut hist = crate::AdaptiveHistogram::new();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100_000 {
            let v = 50.0 + sample_exponential(&mut rng, 30.0);
            p2.record(v);
            hist.record(v);
        }
        let a = p2.estimate();
        let b = hist.quantile(0.95);
        assert!((a / b - 1.0).abs() < 0.05, "p2 {a} vs histogram {b}");
    }

    #[test]
    fn state_round_trip_is_bit_identical() {
        // Snapshot mid-stream (after warm-up) and mid-warm-up; both
        // resumed estimators must track the original bit-for-bit.
        for cut in [3usize, 5_000] {
            let mut rng = SmallRng::seed_from_u64(9);
            let mut original = P2Quantile::new(0.95);
            for _ in 0..cut {
                original.record(sample_exponential(&mut rng, 50.0));
            }
            let mut resumed = P2Quantile::from_state(original.state());
            for _ in 0..5_000 {
                let v = sample_exponential(&mut rng, 50.0);
                original.record(v);
                resumed.record(v);
            }
            assert_eq!(
                original.estimate().to_bits(),
                resumed.estimate().to_bits(),
                "divergence after cut at {cut}"
            );
            assert_eq!(original.count(), resumed.count());
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn probability_bounds() {
        P2Quantile::new(1.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_estimate_panics() {
        P2Quantile::new(0.5).estimate();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn estimate_within_observed_range(
            data in prop::collection::vec(0.0f64..1e6, 5..500),
            p in 0.05f64..0.95,
        ) {
            let mut est = P2Quantile::new(p);
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &v in &data {
                est.record(v);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let q = est.estimate();
            prop_assert!(q >= lo - 1e-9 && q <= hi + 1e-9, "{q} outside [{lo}, {hi}]");
        }

        #[test]
        fn tracks_exact_quantile_of_large_uniform(
            seed in 0u64..100,
            p in 0.1f64..0.9,
        ) {
            let mut est = P2Quantile::new(p);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut all = Vec::with_capacity(20_000);
            for _ in 0..20_000 {
                let v: f64 = rng.gen_range(0.0..1.0);
                est.record(v);
                all.push(v);
            }
            let truth = crate::quantile::quantile(&all, p);
            prop_assert!((est.estimate() - truth).abs() < 0.05);
        }
    }
}
