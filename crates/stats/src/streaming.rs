//! Streaming moments via Welford's online algorithm.

/// Numerically stable streaming mean / variance / extrema.
///
/// # Examples
///
/// ```
/// use treadmill_stats::StreamingStats;
///
/// let mut stats = StreamingStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     stats.record(x);
/// }
/// assert_eq!(stats.count(), 8);
/// assert!((stats.mean() - 5.0).abs() < 1e-12);
/// assert!((stats.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (divides by `n - 1`), or 0 if fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn standard_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sample_stddev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation, or `+inf` if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or `-inf` if empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Captures the full accumulator state for checkpointing. Feeding
    /// the result to [`StreamingStats::from_state`] yields an
    /// accumulator whose every subsequent [`StreamingStats::record`]
    /// and statistic is bit-identical to this one's.
    pub fn state(&self) -> StreamingState {
        StreamingState {
            count: self.count,
            mean: self.mean,
            m2: self.m2,
            min: self.min,
            max: self.max,
        }
    }

    /// Rebuilds an accumulator from a checkpointed [`StreamingState`].
    pub fn from_state(state: StreamingState) -> Self {
        StreamingStats {
            count: state.count,
            mean: state.mean,
            m2: state.m2,
            min: state.min,
            max: state.max,
        }
    }

}

/// A [`StreamingStats`] accumulator's full state, captured for
/// checkpointing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingState {
    /// Number of observations.
    pub count: u64,
    /// Running mean.
    pub mean: f64,
    /// Sum of squared deviations (Welford's M2).
    pub m2: f64,
    /// Smallest observation, `+inf` if empty.
    pub min: f64,
    /// Largest observation, `-inf` if empty.
    pub max: f64,
}

impl FromIterator<f64> for StreamingStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut stats = StreamingStats::new();
        for x in iter {
            stats.record(x);
        }
        stats
    }
}

impl Extend<f64> for StreamingStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_is_well_defined() {
        let s = StreamingStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.standard_error(), 0.0);
    }

    #[test]
    fn single_sample() {
        let s: StreamingStats = [3.5].into_iter().collect();
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn state_round_trip_is_bit_identical() {
        let mut original = StreamingStats::new();
        for i in 0..7_777 {
            original.record((f64::from(i) * 0.31).sin() * 40.0 + 3.0);
        }
        let mut resumed = StreamingStats::from_state(original.state());
        assert_eq!(original, resumed);
        for i in 0..7_777 {
            let v = (f64::from(i) * 0.77).cos() * 12.0 - 1.0;
            original.record(v);
            resumed.record(v);
        }
        assert_eq!(original.count(), resumed.count());
        assert_eq!(original.mean().to_bits(), resumed.mean().to_bits());
        assert_eq!(original.m2.to_bits(), resumed.m2.to_bits());
        assert_eq!(original.min().to_bits(), resumed.min().to_bits());
        assert_eq!(original.max().to_bits(), resumed.max().to_bits());
    }

    #[test]
    fn extend_appends() {
        let mut s = StreamingStats::new();
        s.extend([1.0, 2.0, 3.0]);
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn mean_is_bounded_by_extrema(data in prop::collection::vec(-1e6f64..1e6, 1..200)) {
            let s: StreamingStats = data.iter().copied().collect();
            prop_assert!(s.mean() >= s.min() - 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
        }

        #[test]
        fn variance_is_nonnegative(data in prop::collection::vec(-1e6f64..1e6, 0..200)) {
            let s: StreamingStats = data.iter().copied().collect();
            prop_assert!(s.sample_variance() >= -1e-9);
        }

    }
}
