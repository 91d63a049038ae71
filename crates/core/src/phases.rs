//! Treadmill's three execution phases (§III-A, *Statistical
//! aggregation*): warm-up (samples discarded), calibration (raw samples
//! buffered to choose histogram bounds), measurement (binned
//! collection). Calibration and measurement live in the adaptive
//! histogram; this module configures the warm-up.

use treadmill_sim_core::SimDuration;

/// Phase configuration for an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseConfig {
    /// How long to discard samples at the start of a run.
    pub warmup: SimDuration,
}

impl Default for PhaseConfig {
    fn default() -> Self {
        PhaseConfig {
            warmup: SimDuration::from_millis(100),
        }
    }
}
