//! Factor screening (§IV-B): "we list all the factors we suspect to
//! have an impact … then we use null hypothesis testing on a large
//! number of samples collected from repeated experiments under random
//! permutations of all the factors, to identify the factors that
//! actually have an impact on the tail latency."
//!
//! Two screening modes live here:
//!
//! * [`screen_factors`] — the paper's randomised-permutation screen: it
//!   draws random level assignments for every candidate factor, calls
//!   the caller's experiment function, and tests each factor's marginal
//!   effect with Welch's t-test on the per-run metric split by that
//!   factor's level. Because all factors are randomised simultaneously,
//!   the other factors act as noise — exactly the paper's setup.
//! * [`screen_cells`] / [`screen_hardware`] — the *analytic* screen for
//!   huge sweeps: instead of spending a DES run per sample, it asks the
//!   [`crate::analytic`] estimator for every cell of the 2^k factor
//!   space, ranks cells by predicted p99, and flags the cells whose
//!   predicted tail effect over the best cell exceeds a threshold.
//!   `core::sweep` then spends full DES runs only on the flagged cells.
//!   The screen-vs-DES agreement (rank correlation, bounded error,
//!   recall of significant cells) is pinned by `tests/analytic_oracle.rs`.

use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use treadmill_stats::compare::welch_t_test;

use crate::analytic::{predict_cell, TailPrediction};
use treadmill_cluster::HardwareConfig;
use treadmill_core::LoadTestConfig;

/// Why a screening request was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum ScreenError {
    /// Screening needs at least two factors: with one factor there is
    /// nothing to permute against (and with zero, nothing to rank).
    TooFewFactors {
        /// How many factors were offered.
        count: usize,
    },
    /// Randomised screening needs enough experiments for the t-test.
    TooFewExperiments {
        /// How many experiments were requested.
        experiments: usize,
    },
    /// The factor space is too large to enumerate cell-by-cell.
    TooManyFactors {
        /// How many factors were offered.
        count: usize,
    },
    /// The analytic estimator failed on one cell.
    Prediction {
        /// Index of the failing cell in enumeration order.
        cell: usize,
        /// The estimator's error.
        message: String,
    },
}

impl fmt::Display for ScreenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScreenError::TooFewFactors { count } => {
                write!(f, "screening needs at least 2 factors, got {count}")
            }
            ScreenError::TooFewExperiments { experiments } => {
                write!(f, "screening needs at least 8 experiments, got {experiments}")
            }
            ScreenError::TooManyFactors { count } => {
                write!(f, "cell screening supports at most 16 factors, got {count}")
            }
            ScreenError::Prediction { cell, message } => {
                write!(f, "analytic prediction failed for cell {cell}: {message}")
            }
        }
    }
}

impl std::error::Error for ScreenError {}

/// One candidate factor's screening verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreeningResult {
    /// Factor name.
    pub factor: String,
    /// Mean metric at the low level.
    pub mean_low: f64,
    /// Mean metric at the high level.
    pub mean_high: f64,
    /// Welch p-value of the level split.
    pub p_value: f64,
    /// True if significant at the chosen alpha.
    pub significant: bool,
}

/// Options for [`screen_factors`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreeningOptions {
    /// Number of randomized experiments to run.
    pub experiments: usize,
    /// Significance level.
    pub alpha: f64,
    /// RNG seed for the level permutations.
    pub seed: u64,
}

impl Default for ScreeningOptions {
    fn default() -> Self {
        ScreeningOptions {
            experiments: 64,
            alpha: 0.05,
            seed: 0,
        }
    }
}

/// Screens candidate factors: `run_experiment(levels, index)` executes
/// one experiment with the given boolean level per factor and returns
/// the metric of interest (e.g. that run's p99).
///
/// # Errors
///
/// Returns [`ScreenError::TooFewFactors`] for fewer than two factors
/// (an empty or single-factor "screen" has nothing to permute) and
/// [`ScreenError::TooFewExperiments`] for fewer than 8 experiments.
pub fn screen_factors(
    factor_names: &[&str],
    options: ScreeningOptions,
    mut run_experiment: impl FnMut(&[bool], usize) -> f64,
) -> Result<Vec<ScreeningResult>, ScreenError> {
    if factor_names.len() < 2 {
        return Err(ScreenError::TooFewFactors {
            count: factor_names.len(),
        });
    }
    if options.experiments < 8 {
        return Err(ScreenError::TooFewExperiments {
            experiments: options.experiments,
        });
    }
    let mut rng = SmallRng::seed_from_u64(options.seed);
    let mut assignments: Vec<Vec<bool>> = Vec::with_capacity(options.experiments);
    let mut metrics: Vec<f64> = Vec::with_capacity(options.experiments);
    for i in 0..options.experiments {
        let levels: Vec<bool> = factor_names.iter().map(|_| rng.gen()).collect();
        let metric = run_experiment(&levels, i);
        assignments.push(levels);
        metrics.push(metric);
    }
    Ok(factor_names
        .iter()
        .enumerate()
        .map(|(fi, name)| {
            let low: Vec<f64> = metrics
                .iter()
                .zip(&assignments)
                .filter(|(_, levels)| !levels[fi])
                .map(|(&m, _)| m)
                .collect();
            let high: Vec<f64> = metrics
                .iter()
                .zip(&assignments)
                .filter(|(_, levels)| levels[fi])
                .map(|(&m, _)| m)
                .collect();
            if low.len() < 2 || high.len() < 2 {
                // Degenerate randomisation; report as inconclusive.
                return ScreeningResult {
                    factor: name.to_string(),
                    mean_low: f64::NAN,
                    mean_high: f64::NAN,
                    p_value: 1.0,
                    significant: false,
                };
            }
            let cmp = welch_t_test(&low, &high);
            ScreeningResult {
                factor: name.to_string(),
                mean_low: cmp.mean_a,
                mean_high: cmp.mean_b,
                p_value: cmp.p_value,
                significant: cmp.p_value < options.alpha,
            }
        })
        .collect())
}

/// The analytic prediction for one cell of the factor space.
#[derive(Debug, Clone, PartialEq)]
pub struct CellPrediction {
    /// Cell index: bit `b` of the index is factor `b`'s level.
    pub index: usize,
    /// Factor levels, in `factor_names` order.
    pub levels: Vec<bool>,
    /// Predicted median latency, µs.
    pub p50_us: f64,
    /// Predicted 95th-percentile latency, µs.
    pub p95_us: f64,
    /// Predicted 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Predicted per-core utilisation.
    pub utilization: f64,
    /// Whether the analytic model considers the cell stable.
    pub stable: bool,
    /// Relative predicted p99 excess over the best cell,
    /// `(p99 − min_p99)/min_p99`.
    pub tail_effect: f64,
    /// True when `tail_effect` reaches the screen threshold (a
    /// threshold of 0 flags every cell).
    pub flagged: bool,
}

/// A marginal factor effect computed from the analytic cell grid.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorEffect {
    /// Factor name.
    pub factor: String,
    /// Mean predicted p99 over cells with the factor low, µs.
    pub mean_low_p99_us: f64,
    /// Mean predicted p99 over cells with the factor high, µs.
    pub mean_high_p99_us: f64,
}

/// The output of the analytic screen over a 2^k factor space.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreenPlan {
    /// Every cell's prediction, in index order.
    pub cells: Vec<CellPrediction>,
    /// Cell indices sorted by predicted p99, worst first (ties broken
    /// by index for determinism).
    pub ranking: Vec<usize>,
    /// Indices of flagged cells, in index order — the cells the DES
    /// stage should simulate.
    pub flagged: Vec<usize>,
    /// The best (smallest) predicted p99 across the space, µs.
    pub baseline_p99_us: f64,
    /// The relative tail-effect threshold the screen applied.
    pub threshold: f64,
    /// Marginal per-factor effects of the predicted p99 grid.
    pub factor_effects: Vec<FactorEffect>,
}

impl ScreenPlan {
    /// Converts a hardware-space plan into the contract `core::sweep`'s
    /// screened orchestration consumes ([`run_screened_sweep`] /
    /// `run_factorial_sweep_controlled`).
    ///
    /// [`run_screened_sweep`]: treadmill_core::run_screened_sweep
    pub fn to_sweep_plan(&self) -> treadmill_core::ScreenedSweepPlan {
        treadmill_core::ScreenedSweepPlan {
            threshold: self.threshold,
            cells: self
                .cells
                .iter()
                .map(|c| treadmill_core::ScreenedCell {
                    index: c.index,
                    p50_us: c.p50_us,
                    p95_us: c.p95_us,
                    p99_us: c.p99_us,
                    utilization: c.utilization,
                    tail_effect: c.tail_effect,
                    flagged: c.flagged,
                })
                .collect(),
        }
    }
}

/// Runs the analytic screen over all `2^k` cells of a factor space.
/// `predict(levels, index)` maps a cell to its [`TailPrediction`]; a
/// cell whose predicted p99 exceeds the best cell's by at least
/// `threshold` (relative) is flagged for DES simulation.
///
/// # Errors
///
/// Returns [`ScreenError::TooFewFactors`] / [`ScreenError::TooManyFactors`]
/// for degenerate spaces and [`ScreenError::Prediction`] when the
/// estimator fails on a cell.
pub fn screen_cells<E: fmt::Display>(
    factor_names: &[&str],
    threshold: f64,
    mut predict: impl FnMut(&[bool], usize) -> Result<TailPrediction, E>,
) -> Result<ScreenPlan, ScreenError> {
    if factor_names.len() < 2 {
        return Err(ScreenError::TooFewFactors {
            count: factor_names.len(),
        });
    }
    if factor_names.len() > 16 {
        return Err(ScreenError::TooManyFactors {
            count: factor_names.len(),
        });
    }
    let threshold = threshold.max(0.0);
    let cell_count = 1usize << factor_names.len();
    let mut predictions: Vec<(Vec<bool>, TailPrediction)> = Vec::with_capacity(cell_count);
    for index in 0..cell_count {
        let levels: Vec<bool> = (0..factor_names.len())
            .map(|b| index & (1 << b) != 0)
            .collect();
        let p = predict(&levels, index).map_err(|e| ScreenError::Prediction {
            cell: index,
            message: e.to_string(),
        })?;
        predictions.push((levels, p));
    }
    let baseline_p99_us = predictions
        .iter()
        .map(|(_, p)| p.p99_us)
        .fold(f64::INFINITY, f64::min);
    let cells: Vec<CellPrediction> = predictions
        .into_iter()
        .enumerate()
        .map(|(index, (levels, p))| {
            let tail_effect = if baseline_p99_us > 0.0 {
                (p.p99_us - baseline_p99_us) / baseline_p99_us
            } else {
                0.0
            };
            CellPrediction {
                index,
                levels,
                p50_us: p.p50_us,
                p95_us: p.p95_us,
                p99_us: p.p99_us,
                utilization: p.utilization,
                stable: p.stable,
                tail_effect,
                flagged: tail_effect >= threshold,
            }
        })
        .collect();
    let mut ranking: Vec<usize> = (0..cell_count).collect();
    ranking.sort_by(|&a, &b| {
        cells[b]
            .p99_us
            .total_cmp(&cells[a].p99_us)
            .then(a.cmp(&b))
    });
    let flagged: Vec<usize> = cells.iter().filter(|c| c.flagged).map(|c| c.index).collect();
    let factor_effects = factor_names
        .iter()
        .enumerate()
        .map(|(fi, name)| {
            let mean = |want_high: bool| {
                let picked: Vec<f64> = cells
                    .iter()
                    .filter(|c| c.levels[fi] == want_high)
                    .map(|c| c.p99_us)
                    .collect();
                picked.iter().sum::<f64>() / picked.len().max(1) as f64
            };
            FactorEffect {
                factor: name.to_string(),
                mean_low_p99_us: mean(false),
                mean_high_p99_us: mean(true),
            }
        })
        .collect();
    Ok(ScreenPlan {
        cells,
        ranking,
        flagged,
        baseline_p99_us,
        threshold,
        factor_effects,
    })
}

/// The analytic screen over the paper's 2⁴ hardware factor space for
/// one [`LoadTestConfig`]: every [`HardwareConfig`] cell is predicted
/// with [`predict_cell`], and flagged cells are the ones `core::sweep`
/// should spend DES runs on.
///
/// # Errors
///
/// Returns [`ScreenError::Prediction`] when the config does not
/// validate or the estimator fails.
pub fn screen_hardware(
    config: &LoadTestConfig,
    threshold: f64,
) -> Result<ScreenPlan, ScreenError> {
    screen_cells(&HardwareConfig::factor_names(), threshold, |_, index| {
        predict_cell(config, HardwareConfig::from_index(index))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_real_factor_ignores_dummy() {
        // Factor 0 shifts the metric by 20; factor 1 does nothing.
        let mut noise_rng = SmallRng::seed_from_u64(42);
        let results = screen_factors(
            &["real", "dummy"],
            ScreeningOptions {
                experiments: 200,
                alpha: 0.01,
                seed: 0,
            },
            |levels, _| {
                let noise: f64 = noise_rng.gen_range(0.0..4.0);
                100.0 + if levels[0] { 20.0 } else { 0.0 } + noise
            },
        )
        .expect("screen runs");
        assert!(results[0].significant, "real factor: p {}", results[0].p_value);
        assert!((results[0].mean_high - results[0].mean_low - 20.0).abs() < 2.0);
        assert!(!results[1].significant, "dummy factor: p {}", results[1].p_value);
    }

    #[test]
    fn interactions_do_not_hide_main_effects() {
        // Effect only when both factors are high: both should screen in
        // (each has a marginal effect of half the interaction).
        let results = screen_factors(
            &["a", "b"],
            ScreeningOptions {
                experiments: 400,
                ..Default::default()
            },
            |levels, i| {
                let noise = ((i * 40_503) % 50) as f64 / 20.0;
                50.0 + if levels[0] && levels[1] { 30.0 } else { 0.0 } + noise
            },
        )
        .expect("screen runs");
        assert!(results[0].significant && results[1].significant);
    }

    #[test]
    fn screening_on_the_simulator_flags_numa() {
        use std::sync::Arc;
        use treadmill_core::LoadTest;
        use treadmill_sim_core::SimDuration;
        use treadmill_workloads::{Memcached, Workload};

        let workload: Arc<dyn Workload> = Arc::new(Memcached::default());
        let results = screen_factors(
            &["numa", "turbo", "dvfs", "nic"],
            ScreeningOptions {
                experiments: 24,
                alpha: 0.05,
                seed: 7,
            },
            |levels, i| {
                let index = levels
                    .iter()
                    .enumerate()
                    .fold(0usize, |acc, (b, &on)| acc | (usize::from(on) << b));
                LoadTest::new(Arc::clone(&workload), 750_000.0)
                    .clients(4)
                    .hardware(HardwareConfig::from_index(index))
                    .duration(SimDuration::from_millis(120))
                    .warmup(SimDuration::from_millis(30))
                    .seed(1_000 + i as u64)
                    .run(0)
                    .aggregated
                    .p99
            },
        )
        .expect("screen runs");
        let numa = &results[0];
        assert!(
            numa.significant,
            "numa must screen in at high load: p {}",
            numa.p_value
        );
        assert!(numa.mean_high > numa.mean_low);
    }

    #[test]
    fn zero_and_single_factor_sets_are_typed_errors() {
        let err = screen_factors(&[], ScreeningOptions::default(), |_, _| 0.0)
            .expect_err("empty factor set must be rejected");
        assert_eq!(err, ScreenError::TooFewFactors { count: 0 });
        let err = screen_factors(&["only"], ScreeningOptions::default(), |_, _| 0.0)
            .expect_err("single factor must be rejected");
        assert_eq!(err, ScreenError::TooFewFactors { count: 1 });
        // Same contract for the analytic cell screen.
        let err = screen_cells::<std::convert::Infallible>(&["only"], 0.0, |_, _| {
            unreachable!("predict must not be called")
        })
        .expect_err("single factor must be rejected");
        assert_eq!(err, ScreenError::TooFewFactors { count: 1 });
    }

    #[test]
    fn too_few_experiments_rejected() {
        let err = screen_factors(
            &["a", "b"],
            ScreeningOptions {
                experiments: 2,
                ..Default::default()
            },
            |_, _| 0.0,
        )
        .expect_err("2 experiments must be rejected");
        assert_eq!(err, ScreenError::TooFewExperiments { experiments: 2 });
    }

    #[test]
    fn screen_cells_ranks_and_flags() {
        use crate::analytic::TailPrediction;
        let fake = |p99: f64| TailPrediction {
            p50_us: p99 / 3.0,
            p95_us: p99 / 1.5,
            p99_us: p99,
            utilization: 0.5,
            effective_ghz: 2.2,
            mean_wait_us: 1.0,
            drop_fraction: 0.0,
            reliable_below: 1.0,
            stable: true,
        };
        // p99 = 100 + 50·a + 10·b: cell 3 worst, cell 0 best.
        let plan = screen_cells::<std::convert::Infallible>(&["a", "b"], 0.25, |levels, _| {
            let p99 = 100.0
                + if levels[0] { 50.0 } else { 0.0 }
                + if levels[1] { 10.0 } else { 0.0 };
            Ok(fake(p99))
        })
        .expect("screen runs");
        assert_eq!(plan.ranking, vec![3, 1, 2, 0]);
        assert_eq!(plan.baseline_p99_us, 100.0);
        // Effects ≥ 25%: cells 1 (50%) and 3 (60%); cell 2 is 10%.
        assert_eq!(plan.flagged, vec![1, 3]);
        assert!(plan.cells[2].tail_effect > 0.09 && !plan.cells[2].flagged);
        // Factor a's marginal effect dwarfs b's.
        let a = &plan.factor_effects[0];
        let b = &plan.factor_effects[1];
        assert!(
            (a.mean_high_p99_us - a.mean_low_p99_us)
                > 4.0 * (b.mean_high_p99_us - b.mean_low_p99_us)
        );
    }

    #[test]
    fn threshold_zero_flags_every_cell() {
        let plan = screen_hardware(
            &treadmill_core::LoadTestConfig::from_json(
                r#"{ "workload": { "workload": "memcached" }, "target_rps": 700000 }"#,
            )
            .expect("parses"),
            0.0,
        )
        .expect("screen runs");
        assert_eq!(plan.cells.len(), 16);
        assert_eq!(plan.flagged.len(), 16, "threshold 0 must flag everything");
        assert_eq!(plan.ranking.len(), 16);
        // Determinism: a second run is identical.
        let again = screen_hardware(
            &treadmill_core::LoadTestConfig::from_json(
                r#"{ "workload": { "workload": "memcached" }, "target_rps": 700000 }"#,
            )
            .expect("parses"),
            0.0,
        )
        .expect("screen runs");
        assert_eq!(plan, again);
    }

    #[test]
    fn screen_hardware_orders_known_factors() {
        // At 750k rps the analytic screen must agree with the DES
        // screening test above: numa High raises the predicted tail.
        let config = treadmill_core::LoadTestConfig::from_json(
            r#"{ "workload": { "workload": "memcached" }, "target_rps": 750000 }"#,
        )
        .expect("parses");
        let plan = screen_hardware(&config, 0.05).expect("screen runs");
        let numa = &plan.factor_effects[0];
        assert!(
            numa.mean_high_p99_us > numa.mean_low_p99_us,
            "numa high {} must exceed low {}",
            numa.mean_high_p99_us,
            numa.mean_low_p99_us
        );
        // The screen keeps the worst cell and drops at least one cell.
        assert!(plan.flagged.contains(&plan.ranking[0]));
        assert!(plan.flagged.len() < 16, "a 5% threshold should drop some cells");
    }
}
