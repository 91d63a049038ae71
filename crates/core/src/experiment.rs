//! The repeated-run measurement procedure (§III-B).
//!
//! One run — however many samples it collects — converges to a
//! run-specific value because of performance hysteresis (§II-D). The
//! procedure therefore repeats the whole experiment (server restart,
//! fresh placement state) and aggregates the per-run metrics until
//! their mean converges.

use treadmill_stats::LatencySummary;

use crate::convergence::ConvergenceTracker;
use crate::runner::LoadTest;

/// Controls the repeated-run procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentOptions {
    /// Runs to perform before convergence may be declared.
    pub min_runs: usize,
    /// Hard cap on runs.
    pub max_runs: usize,
    /// Relative CI half-width below which the mean is converged.
    pub relative_tolerance: f64,
    /// Confidence level of the CI.
    pub confidence: f64,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            min_runs: 5,
            max_runs: 30,
            relative_tolerance: 0.05,
            confidence: 0.95,
        }
    }
}

/// The outcome of a repeated-run experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Each run's aggregated summary, in run order.
    pub runs: Vec<LatencySummary>,
    /// Mean of per-run p99s — the experiment's headline estimate.
    pub mean_p99: f64,
    /// Standard deviation of per-run p99s (the hysteresis spread).
    pub stddev_p99: f64,
    /// Mean of per-run p50s.
    pub mean_p50: f64,
    /// True if the tracker converged before hitting `max_runs`.
    pub converged: bool,
}

impl ExperimentOutcome {
    /// Number of runs performed.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

}

/// Runs a [`LoadTest`] repeatedly until its per-run p99 mean converges.
///
/// `base_run_index` offsets the run indices so different experiments on
/// the same `LoadTest` draw disjoint hysteresis states.
pub fn run_until_converged(
    test: &LoadTest,
    options: ExperimentOptions,
    base_run_index: u64,
) -> ExperimentOutcome {
    run_until_converged_with(options, |i| test.run(base_run_index + i).aggregated)
}

/// The generic engine behind [`run_until_converged`]: the closure maps
/// a run index to that run's aggregated summary, so tests and baseline
/// testers can reuse the procedure.
pub fn run_until_converged_with(
    options: ExperimentOptions,
    mut run: impl FnMut(u64) -> LatencySummary,
) -> ExperimentOutcome {
    assert!(options.min_runs >= 2, "need at least two runs");
    assert!(options.max_runs >= options.min_runs, "max below min");
    let mut tracker = ConvergenceTracker::new(
        options.min_runs,
        options.relative_tolerance,
        options.confidence,
    );
    let mut p50s = Vec::new();
    let mut runs = Vec::new();
    let mut converged = false;
    for i in 0..options.max_runs as u64 {
        let summary = run(i);
        tracker.record(summary.p99);
        p50s.push(summary.p50);
        runs.push(summary);
        if tracker.converged() {
            converged = true;
            break;
        }
    }
    ExperimentOutcome {
        mean_p99: tracker.mean(),
        stddev_p99: tracker.stddev(),
        mean_p50: p50s.iter().sum::<f64>() / p50s.len() as f64,
        runs,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_summary(p50: f64, p99: f64) -> LatencySummary {
        LatencySummary {
            count: 100,
            mean: p50,
            p50,
            p90: p50,
            p95: p50,
            p99,
            p999: p99,
            min: p50,
            max: p99,
        }
    }

    #[test]
    fn converges_on_stable_metric() {
        let outcome = run_until_converged_with(ExperimentOptions::default(), |i| {
            fake_summary(50.0, 100.0 + (i % 2) as f64)
        });
        assert!(outcome.converged);
        assert!(outcome.num_runs() >= 5);
        assert!((outcome.mean_p99 - 100.5).abs() < 1.0);
        assert!((outcome.mean_p50 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn hits_max_runs_on_wild_metric() {
        let options = ExperimentOptions {
            min_runs: 3,
            max_runs: 6,
            relative_tolerance: 0.001,
            confidence: 0.95,
        };
        let outcome = run_until_converged_with(options, |i| {
            fake_summary(50.0, if i % 2 == 0 { 100.0 } else { 300.0 })
        });
        assert!(!outcome.converged);
        assert_eq!(outcome.num_runs(), 6);
        assert!(outcome.stddev_p99 > 50.0);
    }

    #[test]
    #[should_panic(expected = "max below min")]
    fn invalid_options_rejected() {
        let options = ExperimentOptions {
            min_runs: 5,
            max_runs: 2,
            ..Default::default()
        };
        run_until_converged_with(options, |_| fake_summary(1.0, 2.0));
    }
}
