//! Goodness-of-fit: the paper's pseudo-R² sweep (Figure 11, Eq. 2).

use crate::attribution::AttributionResult;
use crate::dataset::Dataset;
use treadmill_stats::regression::fit::pseudo_r_squared;

/// Pseudo-R² of a fitted attribution model over its dataset (Eq. 2).
///
/// Following the paper's Eq. 3, each **experiment** contributes one
/// observation: its empirically measured τ-quantile. The model predicts
/// the configuration's τ-quantile; the best constant model predicts the
/// unconditional τ-quantile of the per-experiment estimates. The
/// residuals are therefore hysteresis (between-run) variation, and a
/// high pseudo-R² means the factor model explains most of the observed
/// spread in measured quantiles — the paper reports ≥ 0.90.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn model_pseudo_r_squared(dataset: &Dataset, result: &AttributionResult) -> f64 {
    let mut observed = Vec::new();
    let mut predicted = Vec::new();
    let predictions: Vec<f64> = result.predictions_all_configs();
    for cell in &dataset.cells {
        let idx = config_index_of_levels(&cell.levels);
        for run_quantile in
            treadmill_stats::regression::saturated::per_run_quantiles(cell, result.tau)
        {
            observed.push(run_quantile);
            predicted.push(predictions[idx]);
        }
    }
    assert!(!observed.is_empty(), "empty dataset");
    pseudo_r_squared(result.tau, &observed, &predicted)
}

/// Sanity helper used by tests and the Figure 11 binary: the index a
/// level vector denotes.
// Design levels are exactly 0.0 or 1.0, so `v as usize` is a bit read.
#[allow(clippy::cast_possible_truncation)]
pub fn config_index_of_levels(levels: &[f64]) -> usize {
    levels
        .iter()
        .enumerate()
        .fold(0usize, |acc, (i, &v)| acc | ((v as usize) << i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::attribute;
    use treadmill_cluster::HardwareConfig;
    use treadmill_stats::regression::Cell;

    fn dataset_with_effect(effect: f64, noise: f64, runs_per_cell: usize) -> Dataset {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let cells = (0..16)
            .map(|i| {
                let lv = HardwareConfig::from_index(i).levels();
                let center = 100.0 + effect * lv[0] + 0.5 * effect * lv[1] * lv[2];
                let runs: Vec<Vec<f64>> = (0..runs_per_cell)
                    .map(|_| {
                        (0..100)
                            .map(|_| center + rng.gen_range(-noise..=noise))
                            .collect()
                    })
                    .collect();
                Cell::new(lv, runs)
            })
            .collect();
        Dataset {
            cells,
            target_rps: 1.0,
            workload_name: "synthetic".into(),
        }
    }

    #[test]
    fn strong_structure_gives_high_r2() {
        let dataset = dataset_with_effect(50.0, 1.0, 4);
        let result = attribute(&dataset, 0.95, 10, 1);
        let r2 = model_pseudo_r_squared(&dataset, &result);
        assert!(r2 > 0.9, "r2 = {r2}");
    }

    #[test]
    fn pure_noise_gives_near_zero_r2() {
        // A saturated model fitted on noise overfits by ~p/n, so with
        // 30 runs per cell (n = 480 observations, p = 16) the in-sample
        // pseudo-R² must stay small.
        let dataset = dataset_with_effect(0.0, 10.0, 30);
        let result = attribute(&dataset, 0.95, 10, 2);
        let r2 = model_pseudo_r_squared(&dataset, &result);
        assert!(r2.abs() < 0.15, "r2 = {r2}");
    }

    #[test]
    fn level_index_round_trips() {
        for i in 0..16 {
            let levels = HardwareConfig::from_index(i).levels();
            assert_eq!(config_index_of_levels(&levels), i);
        }
    }
}
