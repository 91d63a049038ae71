//! Per-run latency summaries.

use crate::histogram::AdaptiveHistogram;
use crate::quantile::quantile_of_sorted;

/// The percentiles Treadmill reports, matching the paper's figures.
pub const REPORTED_PERCENTILES: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// A compact summary of one latency distribution, in microseconds.
///
/// This is what a Treadmill instance reports at the end of a run and
/// what the multi-client aggregation procedure consumes: the paper's
/// procedure extracts "the interested metrics (e.g., 99th-percentile
/// latency) at each client individually" before aggregating (§II-B).
///
/// # Examples
///
/// ```
/// use treadmill_stats::LatencySummary;
///
/// let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
/// let summary = LatencySummary::from_samples(&samples);
/// assert_eq!(summary.count, 1000);
/// assert!((summary.p99 - 990.01).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples summarised.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl LatencySummary {
    /// Summarises a raw sample vector.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of empty sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        LatencySummary {
            count: sorted.len() as u64,
            mean,
            p50: quantile_of_sorted(&sorted, 0.50),
            p90: quantile_of_sorted(&sorted, 0.90),
            p95: quantile_of_sorted(&sorted, 0.95),
            p99: quantile_of_sorted(&sorted, 0.99),
            p999: quantile_of_sorted(&sorted, 0.999),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }

    /// Summarises an adaptive histogram.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty.
    pub fn from_histogram(hist: &AdaptiveHistogram) -> Self {
        assert!(!hist.is_empty(), "summary of empty histogram");
        LatencySummary {
            count: hist.count(),
            mean: hist.mean(),
            p50: hist.quantile(0.50),
            p90: hist.quantile(0.90),
            p95: hist.quantile(0.95),
            p99: hist.quantile(0.99),
            p999: hist.quantile(0.999),
            min: hist.min(),
            max: hist.max(),
        }
    }

    /// Looks up the summary value for one of the reported percentiles.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not one of [`REPORTED_PERCENTILES`].
    pub fn percentile(&self, p: f64) -> f64 {
        match p {
            _ if (p - 0.50).abs() < 1e-9 => self.p50,
            _ if (p - 0.90).abs() < 1e-9 => self.p90,
            _ if (p - 0.95).abs() < 1e-9 => self.p95,
            _ if (p - 0.99).abs() < 1e-9 => self.p99,
            _ if (p - 0.999).abs() < 1e-9 => self.p999,
            _ => panic!("percentile {p} is not one of the reported percentiles"),
        }
    }
}

/// Aggregates per-client summaries the **correct** way (paper §III-B):
/// extract each metric per client, then apply an aggregation function
/// across clients. Returns the mean across clients for each percentile.
///
/// # Panics
///
/// Panics if `summaries` is empty.
pub fn aggregate_mean(summaries: &[LatencySummary]) -> LatencySummary {
    assert!(!summaries.is_empty(), "aggregating zero summaries");
    let n = summaries.len() as f64;
    let mut total_count = 0;
    let mut acc = [0.0f64; 7];
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for s in summaries {
        total_count += s.count;
        acc[0] += s.mean;
        acc[1] += s.p50;
        acc[2] += s.p90;
        acc[3] += s.p95;
        acc[4] += s.p99;
        acc[5] += s.p999;
        min = min.min(s.min);
        max = max.max(s.max);
    }
    LatencySummary {
        count: total_count,
        mean: acc[0] / n,
        p50: acc[1] / n,
        p90: acc[2] / n,
        p95: acc[3] / n,
        p99: acc[4] / n,
        p999: acc[5] / n,
        min,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_of_constant(value: f64, count: usize) -> LatencySummary {
        LatencySummary::from_samples(&vec![value; count])
    }

    #[test]
    fn from_samples_orders_percentiles() {
        let samples: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let s = LatencySummary::from_samples(&samples);
        assert!(s.min <= s.p50 && s.p50 <= s.p90);
        assert!(s.p90 <= s.p95 && s.p95 <= s.p99);
        assert!(s.p99 <= s.p999 && s.p999 <= s.max);
        assert_eq!(s.count, 10_000);
    }

    #[test]
    fn from_histogram_close_to_exact() {
        let samples: Vec<f64> = (1..=50_000).map(|i| (i % 500) as f64 + 100.0).collect();
        let exact = LatencySummary::from_samples(&samples);
        let mut hist = AdaptiveHistogram::new();
        for v in &samples {
            hist.record(*v);
        }
        let approx = LatencySummary::from_histogram(&hist);
        assert!((approx.p99 - exact.p99).abs() < 5.0);
        assert!((approx.mean - exact.mean).abs() < 1e-9, "mean is exact");
    }

    #[test]
    fn percentile_lookup() {
        let s = summary_of_constant(7.0, 10);
        for &p in &REPORTED_PERCENTILES {
            assert_eq!(s.percentile(p), 7.0);
        }
    }

    #[test]
    #[should_panic(expected = "not one of")]
    fn percentile_lookup_rejects_unknown() {
        summary_of_constant(1.0, 2).percentile(0.42);
    }

    #[test]
    fn mean_aggregation_averages_metrics() {
        let a = summary_of_constant(100.0, 10);
        let b = summary_of_constant(200.0, 10);
        let agg = aggregate_mean(&[a, b]);
        assert_eq!(agg.p99, 150.0);
        assert_eq!(agg.count, 20);
        assert_eq!(agg.min, 100.0);
        assert_eq!(agg.max, 200.0);
    }

    #[test]
    #[should_panic(expected = "zero summaries")]
    fn aggregate_empty_panics() {
        aggregate_mean(&[]);
    }
}
