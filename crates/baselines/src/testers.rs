//! The four baseline load testers the paper surveys (§II, Table I),
//! each reproducing the design of the original tool as the paper
//! describes it.

use crate::common::{ControlLoop, MeasurementStyle, TesterProfile};

/// YCSB-like tester: **single client**, **closed-loop** worker threads,
/// heavyweight per-operation cost (a JVM-based framework), and a
/// statically configured histogram (YCSB's classic 1 ms-bucket
/// histogram truncates microsecond-scale tails entirely; we give it a
/// generous but still static range).
pub fn ycsb() -> TesterProfile {
    TesterProfile {
        name: "YCSB",
        clients: 1,
        connections_per_client: 32,
        send_cpu_ns: 3_000.0,
        recv_cpu_ns: 3_000.0,
        control: ControlLoop::Closed,
        measurement: MeasurementStyle::StaticHistogram {
            lower_us: 0.0,
            upper_us: 1_000.0,
            bins: 1_000,
        },
    }
}

/// CloudSuite-like tester: a proper **open-loop** generator, but a
/// **single client** with a heavy per-operation cost — the paper shows
/// it "measures a drastically higher tail latency … because of heavy
/// client-side queueing bias" at 10% server utilisation and "is not
/// efficient enough" to reach 80% at all (§III-C).
pub fn cloudsuite() -> TesterProfile {
    TesterProfile {
        name: "CloudSuite",
        clients: 1,
        connections_per_client: 16,
        send_cpu_ns: 4_000.0,
        recv_cpu_ns: 4_000.0,
        control: ControlLoop::Open,
        measurement: MeasurementStyle::StaticHistogram {
            lower_us: 0.0,
            upper_us: 5_000.0,
            bins: 2_000,
        },
    }
}

/// Mutilate-like tester: **8 agent clients** (efficient C++
/// implementation, fine-grained sampling — its aggregation is sound)
/// but a **closed-loop** controller, which "artificially limits the
/// maximum number of outstanding requests … therefore heavily
/// underestimates the 99th-percentile latency by more than 2×" at high
/// utilisation (§III-C).
pub fn mutilate() -> TesterProfile {
    TesterProfile {
        name: "Mutilate",
        clients: 8,
        connections_per_client: 8,
        send_cpu_ns: 1_200.0,
        recv_cpu_ns: 1_200.0,
        control: ControlLoop::Closed,
        measurement: MeasurementStyle::RawSamples,
    }
}

/// Treadmill's own shape, expressed in the same vocabulary for
/// side-by-side comparison: 8 lightly-loaded clients, open loop,
/// lock-free per-op cost, adaptive aggregation (represented as raw
/// samples here; the real adaptive histogram lives in
/// `treadmill-core`).
pub fn treadmill_shape() -> TesterProfile {
    TesterProfile {
        name: "Treadmill",
        clients: 8,
        connections_per_client: 16,
        send_cpu_ns: 800.0,
        recv_cpu_ns: 800.0,
        control: ControlLoop::Open,
        measurement: MeasurementStyle::RawSamples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::run_profile;
    use std::sync::Arc;
    use treadmill_cluster::HardwareConfig;
    use treadmill_sim_core::SimDuration;
    use treadmill_workloads::Memcached;

    fn run(profile: &TesterProfile, rps: f64, seed: u64) -> crate::common::BaselineReport {
        run_profile(
            profile,
            Arc::new(Memcached::default()),
            rps,
            HardwareConfig::default(),
            SimDuration::from_millis(100),
            SimDuration::from_millis(25),
            seed,
        )
    }

    #[test]
    fn profiles_match_paper_descriptions() {
        assert_eq!(ycsb().clients, 1);
        assert_eq!(ycsb().control, ControlLoop::Closed);
        assert_eq!(cloudsuite().clients, 1);
        assert_eq!(cloudsuite().control, ControlLoop::Open);
        assert_eq!(mutilate().clients, 8);
        assert_eq!(mutilate().control, ControlLoop::Closed);
        assert_eq!(treadmill_shape().control, ControlLoop::Open);
    }

    #[test]
    fn cloudsuite_overestimates_tail_at_low_utilization() {
        // §III-C / Figure 5: at 10% server utilisation CloudSuite's
        // heavy single client adds client-side queueing that inflates
        // its measured tail far above the ground truth.
        let cs = run(&cloudsuite(), 100_000.0, 1);
        let tm = run(&treadmill_shape(), 100_000.0, 1);
        let cs_error = cs.measured.p99 - cs.ground_truth.quantile_us(0.99);
        let tm_error = tm.measured.p99 - tm.ground_truth.quantile_us(0.99);
        assert!(
            cs_error > tm_error * 2.0,
            "CloudSuite p99 error {cs_error}us vs Treadmill {tm_error}us"
        );
    }

    #[test]
    fn mutilate_underestimates_tail_at_high_utilization() {
        // §III-C / Figure 6: the closed loop caps outstanding requests,
        // so at high load Mutilate's own ground truth tail is far below
        // what an open-loop tester drives and measures.
        let mu = run(&mutilate(), 950_000.0, 2);
        let tm = run(&treadmill_shape(), 950_000.0, 2);
        assert!(
            tm.measured.p99 > mu.measured.p99 * 1.15,
            "open loop should expose a heavier tail: treadmill {} vs mutilate {}",
            tm.measured.p99,
            mu.measured.p99
        );
        // The closed loop also cannot sustain the offered rate: its
        // workers fall behind the schedule (coordinated omission).
        assert!(
            mu.achieved_rps < 0.9 * 950_000.0,
            "mutilate sustained {} RPS, expected a shortfall",
            mu.achieved_rps
        );
        assert!(
            tm.achieved_rps > 0.95 * 950_000.0,
            "treadmill sustained only {} RPS",
            tm.achieved_rps
        );
    }

    #[test]
    fn treadmill_matches_ground_truth_shape() {
        let tm = run(&treadmill_shape(), 100_000.0, 3);
        let gap50 = tm.measured.p50 - tm.ground_truth.quantile_us(0.50);
        let gap99 = tm.measured.p99 - tm.ground_truth.quantile_us(0.99);
        // Constant offset (kernel interrupt handling), similar at both
        // quantiles (§III-C: "maintains a constant gap … even at high
        // quantiles").
        assert!(gap50 > 15.0 && gap50 < 45.0, "gap50 {gap50}");
        assert!((gap99 - gap50).abs() < 20.0, "gap grew: {gap50} → {gap99}");
    }
}
