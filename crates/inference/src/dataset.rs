//! Factorial experiment execution: collecting the latency samples that
//! feed quantile regression (§V-A).
//!
//! The paper runs ≥30 independent experiments per configuration (480
//! total for 4 factors), randomly permuting the configuration order,
//! and sub-samples 20k latency samples from each experiment's converged
//! window. We reproduce the same structure; independence between
//! experiments comes from disjoint seed streams, and experiments run in
//! parallel across OS threads.

// tml-lint: allow(DET001, subsample() uses the map for keyed displaced-index lookups only; see justification at the construction site)
use std::collections::HashMap;
use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::Rng;
use treadmill_cluster::HardwareConfig;
use treadmill_core::LoadTest;
use treadmill_sim_core::{SeedStream, SimDuration};
use treadmill_stats::regression::Cell;
use treadmill_workloads::Workload;

/// Parameters of a factorial data collection.
#[derive(Debug, Clone)]
pub struct CollectionPlan {
    /// Workload under test.
    pub workload: Arc<dyn Workload>,
    /// Target aggregate throughput.
    pub target_rps: f64,
    /// Independent experiments per configuration (the paper uses 30).
    pub runs_per_config: usize,
    /// Latency samples retained per experiment (the paper uses 20k).
    pub samples_per_run: usize,
    /// Treadmill instances per experiment.
    pub clients: usize,
    /// Sending window per experiment.
    pub duration: SimDuration,
    /// Warm-up discard window.
    pub warmup: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for parallel execution.
    pub threads: usize,
}

impl CollectionPlan {
    /// A plan with paper-like defaults at the given load.
    pub fn new(workload: Arc<dyn Workload>, target_rps: f64) -> Self {
        CollectionPlan {
            workload,
            target_rps,
            runs_per_config: 30,
            samples_per_run: 20_000,
            clients: 8,
            duration: SimDuration::from_millis(500),
            warmup: SimDuration::from_millis(120),
            seed: 0,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }

    /// Total experiments the plan will run.
    pub fn total_experiments(&self) -> usize {
        16 * self.runs_per_config
    }
}

/// The collected factorial dataset: one regression cell per hardware
/// configuration, each holding `runs_per_config` runs of subsampled
/// latency samples.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Cells in [`HardwareConfig::from_index`] order.
    pub cells: Vec<Cell>,
    /// The plan's target throughput (for labelling).
    pub target_rps: f64,
    /// Workload name (for labelling).
    pub workload_name: String,
}

impl Dataset {
    /// Total samples across cells and runs.
    pub fn total_samples(&self) -> usize {
        self.cells.iter().map(Cell::total_samples).sum()
    }

    /// Indices (`0..16`) of hardware configurations with no collected
    /// cell — the holes a degraded campaign leaves behind. Empty for a
    /// complete full-factorial dataset.
    pub fn missing_cells(&self) -> Vec<usize> {
        (0..16)
            .filter(|&i| {
                let levels = HardwareConfig::from_index(i).levels();
                !self.cells.iter().any(|c| c.levels == levels)
            })
            .collect()
    }
}

/// Runs the full factorial collection.
///
/// Experiment order is randomly permuted (as the paper prescribes to
/// preserve independence) and executed across `plan.threads` workers;
/// results are deterministic for a given `plan.seed` regardless of
/// thread interleaving because every experiment derives its own seed.
///
/// # Panics
///
/// Panics if the plan is degenerate (zero runs or samples).
pub fn collect(plan: &CollectionPlan) -> Dataset {
    assert!(plan.runs_per_config > 0, "need at least one run per config");
    assert!(plan.samples_per_run > 0, "need at least one sample per run");

    // Job list: (config index, repetition), shuffled.
    let mut jobs: Vec<(usize, usize)> = (0..16)
        .flat_map(|c| (0..plan.runs_per_config).map(move |r| (c, r)))
        .collect();
    let mut order_rng = SeedStream::new(plan.seed).stream("experiment-order", 0);
    jobs.shuffle(&mut order_rng);

    let samples = treadmill_core::pool::run_indexed(jobs.len(), plan.threads, |j| {
        let (config_idx, rep) = jobs[j];
        run_one_experiment(plan, config_idx, rep)
    });
    // Back from shuffled to canonical (config, repetition) order.
    let mut done: Vec<((usize, usize), Vec<f64>)> = jobs.into_iter().zip(samples).collect();
    done.sort_unstable_by_key(|(job, _)| *job);
    let mut filled = done.into_iter().map(|(_, samples)| samples);
    let cells = (0..16)
        .map(|config_idx| {
            let runs: Vec<Vec<f64>> = filled.by_ref().take(plan.runs_per_config).collect();
            let levels = HardwareConfig::from_index(config_idx).levels();
            Cell::new(levels, runs)
        })
        .collect();
    Dataset {
        cells,
        target_rps: plan.target_rps,
        workload_name: plan.workload.name().to_string(),
    }
}

fn run_one_experiment(plan: &CollectionPlan, config_idx: usize, rep: usize) -> Vec<f64> {
    let hardware = HardwareConfig::from_index(config_idx);
    let test = LoadTest::new(Arc::clone(&plan.workload), plan.target_rps)
        .clients(plan.clients)
        .hardware(hardware)
        .duration(plan.duration)
        .warmup(plan.warmup)
        .seed(SeedStream::new(plan.seed).derive("experiment", config_idx as u64));
    let report = test.run(rep as u64);
    let pooled = report.pooled_latencies();
    subsample(
        &pooled,
        plan.samples_per_run,
        SeedStream::new(plan.seed)
            .child("subsample", config_idx as u64)
            .stream("rep", rep as u64),
    )
}

/// Randomly sub-samples `n` values without replacement (the paper's 20k
/// per experiment); returns everything if fewer are available.
///
/// Sparse partial Fisher–Yates: only the first `n` steps of the shuffle
/// are performed, and displaced indices live in a hash map instead of a
/// materialized `0..len` index vector — O(n) time and memory rather
/// than O(len) for a full shuffle of a multi-million-sample run. The
/// subset is still uniform, but the concrete draw for a given seed
/// differs from the old full-shuffle implementation (an intentional
/// one-time numeric change; determinism per seed is pinned by test).
fn subsample<R: Rng>(values: &[f64], n: usize, mut rng: R) -> Vec<f64> {
    if values.len() <= n {
        return values.to_vec();
    }
    // tml-lint: allow(DET001, every access is a keyed get/insert driven by seeded RNG draws; the map is never iterated so its order cannot reach the output — the golden-seed tests pin the exact draw, and a BTreeMap here would put an O(log n) walk in the O(k) subsampler hot path)
    let mut displaced: HashMap<usize, usize> = HashMap::with_capacity(2 * n);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let j = rng.gen_range(i..values.len());
        let pick = displaced.get(&j).copied().unwrap_or(j);
        let here = displaced.get(&i).copied().unwrap_or(i);
        out.push(values[pick]);
        displaced.insert(j, here);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treadmill_workloads::Memcached;

    fn tiny_plan(seed: u64) -> CollectionPlan {
        CollectionPlan {
            runs_per_config: 2,
            samples_per_run: 500,
            clients: 2,
            duration: SimDuration::from_millis(50),
            warmup: SimDuration::from_millis(15),
            seed,
            threads: 8,
            ..CollectionPlan::new(Arc::new(Memcached::default()), 300_000.0)
        }
    }

    #[test]
    fn collects_all_cells_and_runs() {
        let dataset = collect(&tiny_plan(1));
        assert_eq!(dataset.cells.len(), 16);
        for (i, cell) in dataset.cells.iter().enumerate() {
            assert_eq!(cell.num_runs(), 2, "cell {i}");
            assert_eq!(cell.levels, HardwareConfig::from_index(i).levels());
            assert!(cell.total_samples() > 0);
        }
        assert!(dataset.total_samples() <= 16 * 2 * 500);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut plan_a = tiny_plan(2);
        plan_a.threads = 1;
        let mut plan_b = tiny_plan(2);
        plan_b.threads = 8;
        let a = collect(&plan_a);
        let b = collect(&plan_b);
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.runs(), cb.runs());
        }
    }

    #[test]
    fn subsample_caps_size() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let rng = SmallRng::seed_from_u64(1);
        let sampled = subsample(&values, 10, rng);
        assert_eq!(sampled.len(), 10);
        for v in &sampled {
            assert!(values.contains(v));
        }
        let rng = SmallRng::seed_from_u64(1);
        assert_eq!(subsample(&values, 200, rng).len(), 100);
    }

    #[test]
    fn subsample_is_deterministic_per_seed() {
        let values: Vec<f64> = (0..50_000).map(f64::from).collect();
        let a = subsample(&values, 1_000, SmallRng::seed_from_u64(7));
        let b = subsample(&values, 1_000, SmallRng::seed_from_u64(7));
        assert_eq!(a, b, "same seed must reproduce the same subset");
        let c = subsample(&values, 1_000, SmallRng::seed_from_u64(8));
        assert_ne!(a, c, "different seeds must draw different subsets");
    }

    #[test]
    fn subsample_draws_without_replacement() {
        // All inputs distinct, so any repeated output value would mean
        // an index was picked twice — the sparse swap map must prevent
        // that exactly like a materialized Fisher–Yates would.
        let values: Vec<f64> = (0..20_000).map(f64::from).collect();
        let sampled = subsample(&values, 5_000, SmallRng::seed_from_u64(3));
        assert_eq!(sampled.len(), 5_000);
        let mut sorted = sampled.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        assert_eq!(sorted.len(), 5_000, "an index was sampled twice");
        for &v in &sorted {
            assert!((0.0..20_000.0).contains(&v) && v.fract() == 0.0);
        }
    }

    #[test]
    fn missing_cells_reports_holes() {
        let cells = vec![Cell::new(
            HardwareConfig::from_index(3).levels(),
            vec![vec![1.0, 2.0]],
        )];
        let dataset = Dataset {
            cells,
            target_rps: 1.0,
            workload_name: "partial".into(),
        };
        let missing = dataset.missing_cells();
        assert_eq!(missing.len(), 15);
        assert!(!missing.contains(&3));
    }

}
