//! Confidence intervals for means.

use crate::distribution::normal_quantile;
use crate::streaming::StreamingStats;

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub estimate: f64,
    /// Lower bound.
    pub lower: f64,
    /// Upper bound.
    pub upper: f64,
    /// Confidence level, e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        (self.upper - self.lower) / 2.0
    }

    /// Half-width relative to the point estimate (`NaN` if the estimate
    /// is zero).
    pub fn relative_half_width(&self) -> f64 {
        self.half_width() / self.estimate.abs()
    }

    /// True if `value` lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower && value <= self.upper
    }
}

/// Normal-approximation confidence interval for a mean.
///
/// # Panics
///
/// Panics if `level` is outside `(0, 1)` or the accumulator is empty.
///
/// # Examples
///
/// ```
/// use treadmill_stats::ci::mean_confidence_interval;
/// use treadmill_stats::StreamingStats;
///
/// let stats: StreamingStats = (0..1000).map(|i| (i % 10) as f64).collect();
/// let ci = mean_confidence_interval(&stats, 0.95);
/// assert!(ci.contains(4.5));
/// ```
pub fn mean_confidence_interval(stats: &StreamingStats, level: f64) -> ConfidenceInterval {
    assert!(level > 0.0 && level < 1.0, "confidence level outside (0, 1)");
    assert!(stats.count() > 0, "confidence interval of empty sample");
    let z = normal_quantile(0.5 + level / 2.0);
    let half = z * stats.standard_error();
    ConfidenceInterval {
        estimate: stats.mean(),
        lower: stats.mean() - half,
        upper: stats.mean() + half,
        level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_ci_shrinks_with_samples() {
        let small: StreamingStats = (0..100).map(|i| (i % 7) as f64).collect();
        let large: StreamingStats = (0..10_000).map(|i| (i % 7) as f64).collect();
        let ci_small = mean_confidence_interval(&small, 0.95);
        let ci_large = mean_confidence_interval(&large, 0.95);
        assert!(ci_large.half_width() < ci_small.half_width());
    }

    #[test]
    fn mean_ci_widens_with_level() {
        let stats: StreamingStats = (0..1000).map(|i| (i % 13) as f64).collect();
        let ci90 = mean_confidence_interval(&stats, 0.90);
        let ci99 = mean_confidence_interval(&stats, 0.99);
        assert!(ci99.half_width() > ci90.half_width());
        assert_eq!(ci90.estimate, ci99.estimate);
    }

    #[test]
    fn relative_half_width() {
        let ci = ConfidenceInterval {
            estimate: 100.0,
            lower: 90.0,
            upper: 110.0,
            level: 0.95,
        };
        assert!((ci.relative_half_width() - 0.1).abs() < 1e-12);
        assert!(ci.contains(100.0));
        assert!(!ci.contains(89.0));
    }

}
