//! Inter-arrival time generation.
//!
//! Treadmill's control loop "is precisely timed to generate requests at
//! an exponentially distributed inter-arrival rate, which is consistent
//! with the measurements obtained from Google production clusters"
//! (§III-A). Alternative processes are provided for sensitivity studies
//! (deterministic pacing underestimates queueing; uniform sits between).

use rand::RngCore;
use serde::{Deserialize, Serialize};
use treadmill_sim_core::SimDuration;
use treadmill_stats::distribution::sample_exponential;

/// An inter-arrival process at a given mean rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "process", rename_all = "lowercase")]
pub enum InterArrival {
    /// Poisson arrivals: exponential gaps (the paper's choice).
    Exponential {
        /// Mean requests per second.
        rate_rps: f64,
    },
    /// Perfectly paced arrivals: constant gaps.
    Deterministic {
        /// Requests per second.
        rate_rps: f64,
    },
    /// Uniform gaps on `[0, 2/rate]` (same mean, lower variance than
    /// exponential).
    Uniform {
        /// Mean requests per second.
        rate_rps: f64,
    },
}

impl InterArrival {
    /// The process's mean rate in requests per second.
    pub fn rate_rps(&self) -> f64 {
        match *self {
            InterArrival::Exponential { rate_rps }
            | InterArrival::Deterministic { rate_rps }
            | InterArrival::Uniform { rate_rps } => rate_rps,
        }
    }

    /// Draws the gap to the next request. Always at least 1 ns.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive.
    pub fn sample_gap(&self, rng: &mut dyn RngCore) -> SimDuration {
        let rate = self.rate_rps();
        assert!(rate > 0.0, "inter-arrival rate must be positive");
        let mean_ns = 1e9 / rate;
        let gap_ns = match self {
            InterArrival::Exponential { .. } => sample_exponential(rng, mean_ns),
            InterArrival::Deterministic { .. } => mean_ns,
            InterArrival::Uniform { .. } => {
                use rand::Rng;
                rng.gen_range(0.0..2.0 * mean_ns)
            }
        };
        SimDuration::from_nanos_f64(gap_ns.max(1.0))
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treadmill_stats::StreamingStats;

    fn gaps(process: InterArrival, n: usize) -> StreamingStats {
        let mut rng = SmallRng::seed_from_u64(1);
        (0..n)
            .map(|_| process.sample_gap(&mut rng).as_micros_f64())
            .collect()
    }

    #[test]
    fn exponential_mean_and_cv() {
        let stats = gaps(InterArrival::Exponential { rate_rps: 100_000.0 }, 100_000);
        // Mean gap = 10us; exponential CV = 1.
        assert!((stats.mean() - 10.0).abs() < 0.15, "mean {}", stats.mean());
        let cv = stats.sample_stddev() / stats.mean();
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn deterministic_has_zero_variance() {
        let stats = gaps(InterArrival::Deterministic { rate_rps: 100_000.0 }, 1_000);
        assert!((stats.mean() - 10.0).abs() < 1e-9);
        assert!(stats.sample_stddev() < 1e-9);
    }

    #[test]
    fn uniform_mean_matches_with_lower_cv() {
        let stats = gaps(InterArrival::Uniform { rate_rps: 100_000.0 }, 100_000);
        assert!((stats.mean() - 10.0).abs() < 0.15);
        let cv = stats.sample_stddev() / stats.mean();
        assert!(cv < 0.7, "uniform cv {cv} should be < exponential's 1.0");
    }

    #[test]
    fn gap_never_zero() {
        let mut rng = SmallRng::seed_from_u64(2);
        let process = InterArrival::Exponential { rate_rps: 1e9 };
        for _ in 0..10_000 {
            assert!(process.sample_gap(&mut rng).as_nanos() >= 1);
        }
    }

    #[test]
    fn json_round_trip() {
        let p = InterArrival::Exponential { rate_rps: 12_345.0 };
        let json = serde_json::to_string(&p).unwrap();
        let back: InterArrival = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
