//! A log-bucketed histogram with bounded relative error.
//!
//! The third aggregation backend (besides the paper's adaptive
//! histogram and the P² estimator): HdrHistogram-style buckets whose
//! width grows geometrically, so any value in `[min, max]` is recorded
//! with a guaranteed relative error and **no calibration phase**. The
//! trade-off versus the adaptive histogram is a fixed (coarse at the
//! top) resolution instead of resolution concentrated where the data
//! actually lives.

/// A histogram with geometrically sized buckets over `[min, max)`.
///
/// # Examples
///
/// ```
/// use treadmill_stats::loghist::LogHistogram;
///
/// let mut hist = LogHistogram::new(1.0, 1e7, 0.01);
/// for i in 1..=100_000u32 {
///     hist.record(f64::from(i) / 10.0);
/// }
/// let p99 = hist.quantile(0.99);
/// assert!((p99 / 9_900.0 - 1.0).abs() < 0.02, "p99 {p99}");
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
    min: f64,
    log_min: f64,
    log_ratio: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
    sum: f64,
    max_seen: f64,
}

impl LogHistogram {
    /// Creates a histogram covering `[min, max)` with per-bucket
    /// relative width `precision` (e.g. `0.01` = 1% buckets).
    ///
    /// # Panics
    ///
    /// Panics if `min <= 0`, `max <= min`, or `precision` outside
    /// `(0, 1)`.
    pub fn new(min: f64, max: f64, precision: f64) -> Self {
        assert!(min > 0.0, "log histogram needs a positive minimum");
        assert!(max > min, "max must exceed min");
        assert!(precision > 0.0 && precision < 1.0, "precision outside (0, 1)");
        let ratio = 1.0 + precision;
        LogHistogram {
            min,
            log_min: min.ln(),
            log_ratio: ratio.ln(),
            counts: vec![0; Self::bucket_count(min, max, precision)],
            underflow: 0,
            overflow: 0,
            total: 0,
            sum: 0.0,
            max_seen: f64::NEG_INFINITY,
        }
    }

    /// Number of buckets a histogram built by [`LogHistogram::new`]
    /// with these parameters holds — the length a restored
    /// [`LogHistogramState::counts`] must have. Meaningful only for
    /// parameters `new` accepts.
    // For those, the ceil()ed log ratio is a small positive number;
    // truncation to usize is the intent.
    #[allow(clippy::cast_possible_truncation)]
    pub fn bucket_count(min: f64, max: f64, precision: f64) -> usize {
        ((max / min).ln() / (1.0 + precision).ln()).ceil() as usize + 1
    }

    // Log-bucket index truncates toward zero; out-of-range indices are
    // rejected by the bounds check below.
    #[allow(clippy::cast_possible_truncation)]
    fn bucket_of(&self, value: f64) -> Option<usize> {
        if value < self.min {
            return None;
        }
        let idx = ((value.ln() - self.log_min) / self.log_ratio) as usize;
        if idx >= self.counts.len() {
            None
        } else {
            Some(idx)
        }
    }

    fn bucket_upper(&self, idx: usize) -> f64 {
        (self.log_min + self.log_ratio * (idx as f64 + 1.0)).exp()
    }

    /// Records one value.
    pub fn record(&mut self, value: f64) {
        debug_assert!(value.is_finite());
        self.total += 1;
        self.sum += value;
        self.max_seen = self.max_seen.max(value);
        match self.bucket_of(value) {
            Some(idx) => self.counts[idx] += 1,
            None if value < self.min => self.underflow += 1,
            None => self.overflow += 1,
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Estimates the `p`-quantile with the configured relative error.
    ///
    /// # Panics
    ///
    /// Panics if empty or `p` outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(self.total > 0, "quantile of empty histogram");
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        let target = p * self.total as f64;
        let mut cumulative = self.underflow as f64;
        if cumulative >= target && self.underflow > 0 {
            return self.min;
        }
        for (idx, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            cumulative += count as f64;
            if cumulative >= target {
                return self.bucket_upper(idx);
            }
        }
        self.max_seen
    }

    /// Captures the full histogram state for checkpointing. Geometry
    /// and counters round-trip bit-exactly through
    /// [`LogHistogram::from_state`].
    pub fn state(&self) -> LogHistogramState {
        LogHistogramState {
            min: self.min,
            log_min: self.log_min,
            log_ratio: self.log_ratio,
            counts: self.counts.clone(),
            underflow: self.underflow,
            overflow: self.overflow,
            total: self.total,
            sum: self.sum,
            max_seen: self.max_seen,
        }
    }

    /// Rebuilds a histogram from a checkpointed
    /// [`LogHistogramState`].
    ///
    /// # Panics
    ///
    /// Panics on nonsensical geometry (`min <= 0` or a non-positive
    /// bucket ratio).
    pub fn from_state(state: LogHistogramState) -> Self {
        assert!(state.min > 0.0, "log histogram needs a positive minimum");
        assert!(state.log_ratio > 0.0, "bucket ratio must be positive");
        LogHistogram {
            min: state.min,
            log_min: state.log_min,
            log_ratio: state.log_ratio,
            counts: state.counts,
            underflow: state.underflow,
            overflow: state.overflow,
            total: state.total,
            sum: state.sum,
            max_seen: state.max_seen,
        }
    }

}

/// A [`LogHistogram`]'s full state, captured for checkpointing.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogramState {
    /// Lower bound of the covered range.
    pub min: f64,
    /// `ln(min)`, cached.
    pub log_min: f64,
    /// `ln(1 + precision)`, cached.
    pub log_ratio: f64,
    /// Per-bucket counts.
    pub counts: Vec<u64>,
    /// Values below the range.
    pub underflow: u64,
    /// Values above the range.
    pub overflow: u64,
    /// Total recorded values.
    pub total: u64,
    /// Running sum (for the exact mean).
    pub sum: f64,
    /// Largest value observed.
    pub max_seen: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::sample_exponential;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn state_round_trip_is_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut original = LogHistogram::new(1.0, 1e6, 0.01);
        for _ in 0..10_000 {
            original.record(5.0 + sample_exponential(&mut rng, 120.0));
        }
        let mut resumed = LogHistogram::from_state(original.state());
        for _ in 0..10_000 {
            let v = 5.0 + sample_exponential(&mut rng, 120.0);
            original.record(v);
            resumed.record(v);
        }
        assert_eq!(original.count(), resumed.count());
        assert_eq!(original.mean().to_bits(), resumed.mean().to_bits());
        for &p in &[0.5, 0.9, 0.99, 0.999] {
            assert_eq!(
                original.quantile(p).to_bits(),
                resumed.quantile(p).to_bits(),
                "p{p} drifted after restore"
            );
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut hist = LogHistogram::new(1.0, 1e6, 0.01);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut samples = Vec::new();
        for _ in 0..100_000 {
            let v = 10.0 + sample_exponential(&mut rng, 200.0);
            hist.record(v);
            samples.push(v);
        }
        for &p in &[0.5, 0.9, 0.99, 0.999] {
            let truth = crate::quantile::quantile(&samples, p);
            let estimate = hist.quantile(p);
            assert!(
                (estimate / truth - 1.0).abs() < 0.02,
                "p{p}: {estimate} vs {truth}"
            );
        }
    }

    #[test]
    fn no_calibration_needed_for_shifting_distributions() {
        // The adaptive histogram has to re-bin when the distribution
        // shifts; the log histogram covers the whole range upfront.
        let mut hist = LogHistogram::new(1.0, 1e7, 0.01);
        for i in 0..1_000 {
            hist.record(100.0 + f64::from(i % 10));
        }
        for i in 0..100_000 {
            hist.record(100_000.0 + f64::from(i % 1_000));
        }
        let p90 = hist.quantile(0.9);
        assert!(p90 > 90_000.0, "p90 {p90} must reflect the shifted mass");
        assert_eq!(hist.overflow, 0);
    }

    #[test]
    fn out_of_range_values_counted() {
        let mut hist = LogHistogram::new(10.0, 100.0, 0.1);
        hist.record(1.0);
        hist.record(1_000.0);
        hist.record(50.0);
        assert_eq!(hist.count(), 3);
        assert_eq!(hist.overflow, 1);
        // p=1.0 returns the exact max even when it overflowed.
        assert_eq!(hist.quantile(1.0), 1_000.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn quantiles_monotone(
            data in prop::collection::vec(1.0f64..1e5, 10..500),
            p1 in 0.0f64..1.0,
            p2 in 0.0f64..1.0,
        ) {
            let mut hist = LogHistogram::new(0.5, 2e5, 0.02);
            for &v in &data {
                hist.record(v);
            }
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(hist.quantile(lo) <= hist.quantile(hi) + 1e-9);
        }

        #[test]
        fn count_conserved(data in prop::collection::vec(0.1f64..1e6, 0..300)) {
            let mut hist = LogHistogram::new(1.0, 1e4, 0.05);
            for &v in &data {
                hist.record(v);
            }
            prop_assert_eq!(hist.count(), data.len() as u64);
        }
    }
}
