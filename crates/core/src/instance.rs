//! A Treadmill instance: per-client online latency aggregation.

use treadmill_cluster::ResponseRecord;
use treadmill_sim_core::SimTime;
use treadmill_stats::{AdaptiveHistogram, HistogramConfig, LatencySummary};

use crate::phases::PhaseConfig;

/// Configuration for a [`TreadmillInstance`].
#[derive(Debug, Clone)]
pub struct InstanceConfig {
    /// Phase (warm-up) configuration.
    pub phases: PhaseConfig,
    /// Histogram configuration.
    pub histogram: HistogramConfig,
    /// Record one of every `sample_one_in` measurement-phase responses
    /// (§II-B: "due to high request rates, sampling must be used to
    /// control the measurement overhead"). `1` records everything.
    pub sample_one_in: u64,
}

impl Default for InstanceConfig {
    fn default() -> Self {
        InstanceConfig {
            phases: PhaseConfig::default(),
            histogram: HistogramConfig::default(),
            sample_one_in: 1,
        }
    }
}

/// One Treadmill instance's measurement pipeline: discards warm-up
/// samples, calibrates an adaptive histogram, then aggregates latency
/// online, and finally reports per-instance metrics for cross-instance
/// aggregation (§III-B).
///
/// # Examples
///
/// ```
/// use treadmill_core::{InstanceConfig, TreadmillInstance};
///
/// let _instance = TreadmillInstance::new(InstanceConfig::default());
/// ```
#[derive(Debug, Clone)]
pub struct TreadmillInstance {
    config: InstanceConfig,
    histogram: AdaptiveHistogram,
    seen: u64,
}

impl TreadmillInstance {
    /// Creates an empty instance.
    pub fn new(config: InstanceConfig) -> Self {
        assert!(config.sample_one_in >= 1, "sampling stride must be >= 1");
        TreadmillInstance {
            histogram: AdaptiveHistogram::with_config(config.histogram.clone()),
            config,
            seen: 0,
        }
    }

    /// Observes one completed request. Samples generated during warm-up
    /// are discarded; the rest feed the adaptive histogram.
    pub fn observe(&mut self, record: &ResponseRecord) {
        if record.t_generated < SimTime::ZERO + self.config.phases.warmup {
            return;
        }
        self.seen += 1;
        if self.config.sample_one_in > 1 && !self.seen.is_multiple_of(self.config.sample_one_in) {
            return;
        }
        self.histogram.record(record.user_latency_us());
    }

    /// Observes a batch of records.
    pub fn observe_all<'a>(&mut self, records: impl IntoIterator<Item = &'a ResponseRecord>) {
        for record in records {
            self.observe(record);
        }
    }

    /// This instance's latency summary — the per-client metrics that
    /// the multi-instance procedure aggregates.
    ///
    /// # Panics
    ///
    /// Panics if no measurement samples have been observed.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary::from_histogram(&self.histogram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treadmill_sim_core::SimDuration;
    use treadmill_cluster::{Request, RequestId};
    use treadmill_workloads::{OpClass, RequestProfile};

    fn record(gen_us: u64, latency_us: u64) -> ResponseRecord {
        let mut req = Request::new(
            RequestId(gen_us),
            0,
            0,
            RequestProfile {
                class: OpClass::Read,
                request_bytes: 64,
                response_bytes: 64,
                cpu_ns: 1.0,
                mem_ns: 1.0,
            },
            SimTime::from_micros(gen_us),
        );
        req.t_delivered = SimTime::from_micros(gen_us + latency_us);
        req.t_client_nic_out = req.t_generated;
        req.t_client_nic_in = req.t_delivered;
        req.t_server_nic_in = req.t_generated;
        req.t_server_nic_out = req.t_delivered;
        ResponseRecord::from_request(&req)
    }

    fn config(warmup_ms: u64, calibration: usize) -> InstanceConfig {
        InstanceConfig {
            phases: PhaseConfig {
                warmup: SimDuration::from_millis(warmup_ms),
            },
            histogram: HistogramConfig {
                calibration_samples: calibration,
                ..Default::default()
            },
            sample_one_in: 1,
        }
    }

    #[test]
    fn warmup_samples_discarded() {
        let mut inst = TreadmillInstance::new(config(1, 10));
        inst.observe(&record(500, 100)); // 0.5ms < 1ms warm-up
        inst.observe(&record(1_500, 100));
        assert_eq!(inst.histogram.count(), 1);
    }

    #[test]
    fn summary_reflects_observations() {
        let mut inst = TreadmillInstance::new(config(0, 100));
        for i in 0..1_000 {
            inst.observe(&record(i * 10, 100 + (i % 100)));
        }
        let summary = inst.summary();
        assert_eq!(summary.count, 1_000);
        assert!(summary.p50 >= 100.0 && summary.p50 <= 200.0);
        assert!(summary.p99 >= summary.p50);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_of_empty_instance_panics() {
        TreadmillInstance::new(InstanceConfig::default()).summary();
    }

    #[test]
    fn sampling_stride_thins_measurements_without_bias() {
        let mut full = TreadmillInstance::new(config(0, 50));
        let mut thinned = TreadmillInstance::new(InstanceConfig {
            sample_one_in: 10,
            ..config(0, 50)
        });
        for i in 0..20_000 {
            let rec = record(i * 5, 100 + (i % 200));
            full.observe(&rec);
            thinned.observe(&rec);
        }
        assert_eq!(full.histogram.count(), 20_000);
        assert_eq!(thinned.histogram.count(), 2_000);
        // The thinned estimate stays close to the full one.
        let a = full.summary().p99;
        let b = thinned.summary().p99;
        assert!((a - b).abs() < 10.0, "full {a} vs sampled {b}");
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_rejected() {
        TreadmillInstance::new(InstanceConfig {
            sample_one_in: 0,
            ..Default::default()
        });
    }
}
