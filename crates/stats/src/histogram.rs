//! Latency histograms: Treadmill's adaptive histogram and the static
//! histogram pitfall it replaces.
//!
//! Treadmill (§III-A) aggregates latency samples online in three phases:
//! warm-up samples are discarded by the load tester, a **calibration**
//! phase buffers raw samples to choose bin bounds, and the measurement
//! phase bins samples — **re-binning** (doubling the range) whenever too
//! many samples exceed the current upper bound. Prior load testers used
//! statically configured bins, which clip the tail once the server
//! approaches saturation (§II-B); [`StaticHistogram`] reproduces that
//! flaw for the comparison experiments.

use crate::quantile::quantile_of_sorted;

/// Configuration for an [`AdaptiveHistogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramConfig {
    /// Raw samples buffered before bin bounds are chosen.
    pub calibration_samples: usize,
    /// Number of equal-width bins between the calibrated bounds.
    pub bins: usize,
    /// Fraction of headroom added above the calibration maximum.
    pub upper_headroom: f64,
    /// Re-bin when the overflow bucket holds more than this fraction of
    /// all recorded samples.
    pub overflow_rebin_fraction: f64,
}

impl Default for HistogramConfig {
    fn default() -> Self {
        HistogramConfig {
            calibration_samples: 2_000,
            bins: 1_024,
            upper_headroom: 1.0,
            overflow_rebin_fraction: 0.001,
        }
    }
}

/// Treadmill's adaptive latency histogram.
///
/// Values are arbitrary `f64`s (the library uses microseconds). Until
/// `calibration_samples` values arrive the histogram stores raw samples;
/// afterwards it bins, and re-bins by doubling the upper bound whenever
/// the overflow bucket exceeds `overflow_rebin_fraction` of the total.
/// Re-binning redistributes coarse bucket contents, so quantile estimates
/// stay accurate to bin resolution.
///
/// # Examples
///
/// ```
/// use treadmill_stats::AdaptiveHistogram;
///
/// let mut hist = AdaptiveHistogram::new();
/// for i in 0..10_000 {
///     hist.record(100.0 + (i % 100) as f64);
/// }
/// let p50 = hist.quantile(0.5);
/// assert!((p50 - 150.0).abs() < 5.0, "p50 = {p50}");
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveHistogram {
    config: HistogramConfig,
    calibration: Vec<f64>,
    // Set after calibration.
    lower: f64,
    upper: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    overflow_values: Vec<f64>,
    total: u64,
    sum: f64,
    max_seen: f64,
    min_seen: f64,
    calibrated: bool,
}

impl Default for AdaptiveHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptiveHistogram {
    /// Creates a histogram with the default configuration.
    pub fn new() -> Self {
        Self::with_config(HistogramConfig::default())
    }

    /// Creates a histogram with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero or `calibration_samples` is zero.
    pub fn with_config(config: HistogramConfig) -> Self {
        assert!(config.bins > 0, "histogram needs at least one bin");
        assert!(
            config.calibration_samples > 0,
            "calibration needs at least one sample"
        );
        AdaptiveHistogram {
            calibration: Vec::with_capacity(config.calibration_samples),
            config,
            lower: 0.0,
            upper: 0.0,
            counts: Vec::new(),
            underflow: 0,
            overflow: 0,
            overflow_values: Vec::new(),
            total: 0,
            sum: 0.0,
            max_seen: f64::NEG_INFINITY,
            min_seen: f64::INFINITY,
            calibrated: false,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "histogram sample must be finite");
        self.total += 1;
        self.sum += value;
        self.max_seen = self.max_seen.max(value);
        self.min_seen = self.min_seen.min(value);
        if !self.calibrated {
            self.calibration.push(value);
            if self.calibration.len() >= self.config.calibration_samples {
                self.calibrate();
            }
            return;
        }
        self.bin_sample(value);
        if self.overflow as f64
            > self.config.overflow_rebin_fraction * self.total as f64
        {
            self.rebin();
        }
    }

    fn calibrate(&mut self) {
        let mut sorted = std::mem::take(&mut self.calibration);
        sorted.sort_by(f64::total_cmp);
        let lo = sorted[0];
        let hi = sorted[sorted.len() - 1];
        let span = (hi - lo).max(f64::EPSILON);
        self.lower = lo;
        self.upper = hi + span * self.config.upper_headroom;
        self.counts = vec![0; self.config.bins];
        self.calibrated = true;
        for value in sorted {
            self.bin_sample(value);
        }
    }

    // Bin indices truncate toward zero on purpose and are clamped to
    // the last bin right after the cast.
    #[allow(clippy::cast_possible_truncation)]
    fn bin_sample(&mut self, value: f64) {
        if value < self.lower {
            self.underflow += 1;
            return;
        }
        if value >= self.upper {
            self.overflow += 1;
            self.overflow_values.push(value);
            return;
        }
        let width = (self.upper - self.lower) / self.counts.len() as f64;
        let idx = (((value - self.lower) / width) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Doubles the bin range and redistributes existing mass.
    // Redistribution indices truncate and clamp like bin_sample's.
    #[allow(clippy::cast_possible_truncation)]
    fn rebin(&mut self) {
        let old_counts = std::mem::take(&mut self.counts);
        let old_lower = self.lower;
        let old_width = (self.upper - old_lower) / old_counts.len() as f64;
        self.upper = old_lower + (self.upper - old_lower) * 2.0;
        self.counts = vec![0; old_counts.len()];
        let new_width = (self.upper - self.lower) / self.counts.len() as f64;
        for (i, count) in old_counts.into_iter().enumerate() {
            if count == 0 {
                continue;
            }
            let center = old_lower + (i as f64 + 0.5) * old_width;
            let idx =
                (((center - self.lower) / new_width) as usize).min(self.counts.len() - 1);
            self.counts[idx] += count;
        }
        let pending = std::mem::take(&mut self.overflow_values);
        self.overflow = 0;
        for value in pending {
            self.bin_sample(value);
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean of all recorded samples (exact, not binned).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Largest sample seen, or `-inf` if empty.
    pub fn max(&self) -> f64 {
        self.max_seen
    }

    /// Smallest sample seen, or `+inf` if empty.
    pub fn min(&self) -> f64 {
        self.min_seen
    }

    /// Estimates the `p`-quantile.
    ///
    /// During calibration this is the exact sample quantile; afterwards it
    /// interpolates within bins.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty or `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(self.total > 0, "quantile of empty histogram");
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        if !self.calibrated {
            let mut sorted = self.calibration.clone();
            sorted.sort_by(f64::total_cmp);
            return quantile_of_sorted(&sorted, p);
        }
        let target = p * self.total as f64;
        let mut cumulative = self.underflow as f64;
        if cumulative >= target && self.underflow > 0 {
            return self.lower;
        }
        let width = (self.upper - self.lower) / self.counts.len() as f64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let next = cumulative + count as f64;
            if next >= target {
                let into = ((target - cumulative) / count as f64).clamp(0.0, 1.0);
                return self.lower + (i as f64 + into) * width;
            }
            cumulative = next;
        }
        // Target falls in the overflow bucket: use the exact retained
        // overflow values.
        if !self.overflow_values.is_empty() {
            let mut sorted = self.overflow_values.clone();
            sorted.sort_by(f64::total_cmp);
            let remaining = ((target - cumulative) / self.overflow as f64).clamp(0.0, 1.0);
            return quantile_of_sorted(&sorted, remaining);
        }
        self.max_seen
    }

}

/// A histogram with **statically configured** bounds — the pitfall design
/// (§II-B).
///
/// Samples above the fixed upper bound are clamped into the last bin,
/// which silently truncates the tail once the server nears saturation.
///
/// # Examples
///
/// ```
/// use treadmill_stats::StaticHistogram;
///
/// let mut hist = StaticHistogram::new(0.0, 100.0, 100);
/// hist.record(5_000.0); // clipped!
/// assert!(hist.quantile(0.99) <= 100.0);
/// assert_eq!(hist.clipped(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct StaticHistogram {
    lower: f64,
    upper: f64,
    counts: Vec<u64>,
    total: u64,
    clipped: u64,
}

impl StaticHistogram {
    /// Creates a histogram over `[lower, upper)` with `bins` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `upper <= lower` or `bins == 0`.
    pub fn new(lower: f64, upper: f64, bins: usize) -> Self {
        assert!(upper > lower, "upper bound must exceed lower bound");
        assert!(bins > 0, "histogram needs at least one bin");
        StaticHistogram {
            lower,
            upper,
            counts: vec![0; bins],
            total: 0,
            clipped: 0,
        }
    }

    /// Records one sample, clamping out-of-range values into the edge
    /// bins (the flaw under study).
    // In-range bin indices truncate and clamp deliberately.
    #[allow(clippy::cast_possible_truncation)]
    pub fn record(&mut self, value: f64) {
        self.total += 1;
        let width = (self.upper - self.lower) / self.counts.len() as f64;
        let idx = if value < self.lower {
            self.clipped += 1;
            0
        } else if value >= self.upper {
            self.clipped += 1;
            self.counts.len() - 1
        } else {
            (((value - self.lower) / width) as usize).min(self.counts.len() - 1)
        };
        self.counts[idx] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Number of samples that fell outside the configured range.
    pub fn clipped(&self) -> u64 {
        self.clipped
    }

    /// Estimates the `p`-quantile from the (possibly clipped) bins.
    ///
    /// # Panics
    ///
    /// Panics if empty or `p` outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(self.total > 0, "quantile of empty histogram");
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        let target = p * self.total as f64;
        let width = (self.upper - self.lower) / self.counts.len() as f64;
        let mut cumulative = 0.0;
        for (i, &count) in self.counts.iter().enumerate() {
            let next = cumulative + count as f64;
            if next >= target && count > 0 {
                let into = ((target - cumulative) / count as f64).clamp(0.0, 1.0);
                return self.lower + (i as f64 + into) * width;
            }
            cumulative = next;
        }
        self.upper
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn uniform_samples(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(lo..hi)).collect()
    }

    #[test]
    fn quantiles_track_exact_values() {
        let samples = uniform_samples(100_000, 100.0, 200.0, 1);
        let mut hist = AdaptiveHistogram::new();
        let mut exact = samples.clone();
        for v in &samples {
            hist.record(*v);
        }
        exact.sort_by(f64::total_cmp);
        for &p in &[0.5, 0.9, 0.99, 0.999] {
            let approx = hist.quantile(p);
            let truth = quantile_of_sorted(&exact, p);
            assert!(
                (approx - truth).abs() < 1.0,
                "p={p}: approx {approx} vs truth {truth}"
            );
        }
    }

    #[test]
    fn precalibration_quantiles_are_exact() {
        let mut hist = AdaptiveHistogram::with_config(HistogramConfig {
            calibration_samples: 1_000,
            ..Default::default()
        });
        for i in 0..100 {
            hist.record(i as f64);
        }
        assert!(!hist.calibrated);
        assert!((hist.quantile(0.5) - 49.5).abs() < 1e-9);
    }

    #[test]
    fn rebinning_extends_the_range() {
        let mut hist = AdaptiveHistogram::with_config(HistogramConfig {
            calibration_samples: 100,
            bins: 64,
            upper_headroom: 0.1,
            overflow_rebin_fraction: 0.01,
        });
        // Calibrate low, then shift the distribution up 10x — the exact
        // failure mode of static bins under rising utilisation.
        for i in 0..100 {
            hist.record(100.0 + (i % 10) as f64);
        }
        for i in 0..10_000 {
            hist.record(1_000.0 + (i % 100) as f64);
        }
        // Calibration set the range to [100, 109.9); only doubling it
        // past 1,099 bins the shifted mass instead of holding it raw.
        assert!(hist.upper > 1_099.0, "range never extended: upper {}", hist.upper);
        assert!(
            hist.overflow_values.is_empty(),
            "{} samples still overflow",
            hist.overflow_values.len()
        );
        let p90 = hist.quantile(0.9);
        assert!(p90 > 900.0, "p90 {p90} should reflect the shifted mass");
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut hist = AdaptiveHistogram::new();
        for v in [1.0, 2.0, 3.0, 10.0] {
            hist.record(v);
        }
        assert_eq!(hist.mean(), 4.0);
        assert_eq!(hist.min(), 1.0);
        assert_eq!(hist.max(), 10.0);
        assert_eq!(hist.count(), 4);
    }

    #[test]
    fn static_histogram_clips_the_tail() {
        let mut hist = StaticHistogram::new(0.0, 100.0, 100);
        for _ in 0..1_000 {
            hist.record(50.0);
        }
        for _ in 0..100 {
            hist.record(10_000.0);
        }
        // True p99.9 is 10_000; the static histogram cannot see past 100.
        assert!(hist.quantile(0.999) <= 100.0);
        assert_eq!(hist.clipped(), 100);
    }

    #[test]
    fn static_histogram_is_accurate_in_range() {
        let mut hist = StaticHistogram::new(0.0, 1_000.0, 1_000);
        let samples = uniform_samples(100_000, 0.0, 1_000.0, 5);
        let mut exact = samples.clone();
        for v in &samples {
            hist.record(*v);
        }
        exact.sort_by(f64::total_cmp);
        let approx = hist.quantile(0.95);
        let truth = quantile_of_sorted(&exact, 0.95);
        assert!((approx - truth).abs() < 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_quantile_panics() {
        AdaptiveHistogram::new().quantile(0.5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn adaptive_quantile_is_monotone(
            data in prop::collection::vec(0.0f64..1e5, 100..2_000),
            p1 in 0.0f64..1.0,
            p2 in 0.0f64..1.0,
        ) {
            let mut hist = AdaptiveHistogram::with_config(HistogramConfig {
                calibration_samples: 50,
                bins: 128,
                ..Default::default()
            });
            for v in &data {
                hist.record(*v);
            }
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(hist.quantile(lo) <= hist.quantile(hi) + 1e-9);
        }

        #[test]
        fn adaptive_quantile_within_observed_range(
            data in prop::collection::vec(0.0f64..1e5, 100..2_000),
            p in 0.0f64..=1.0,
        ) {
            let mut hist = AdaptiveHistogram::with_config(HistogramConfig {
                calibration_samples: 50,
                bins: 128,
                ..Default::default()
            });
            for v in &data {
                hist.record(*v);
            }
            let q = hist.quantile(p);
            prop_assert!(q >= hist.min() - 1e-9);
            // Binned estimates may land at a bin edge slightly above max.
            let width = 1e5 / 128.0 * 4.0;
            prop_assert!(q <= hist.max() + width);
        }

        #[test]
        fn count_is_total_records(data in prop::collection::vec(0.0f64..1e4, 0..500)) {
            let mut hist = AdaptiveHistogram::with_config(HistogramConfig {
                calibration_samples: 10,
                bins: 32,
                ..Default::default()
            });
            for v in &data {
                hist.record(*v);
            }
            prop_assert_eq!(hist.count(), data.len() as u64);
        }
    }
}
