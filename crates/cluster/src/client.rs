//! The simulated client (load-tester) machine.
//!
//! A client machine is where load-tester *implementation quality* shows
//! up in measurements (§II-C): every send and every response callback
//! consumes client CPU, modelled as an analytic FIFO queue. An efficient
//! tester (Treadmill's lock-free design) keeps per-op cost low; a heavy
//! single-client tester saturates its own CPU long before the server
//! does, and the resulting client-side queueing contaminates the
//! latency it reports.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;

use treadmill_sim_core::{RateQueue, SimDuration, SimTime};
use treadmill_workloads::RequestProfile;

use crate::config::ClientSpec;
use crate::fault::FailureRecord;
use crate::request::{RequestId, ResponseRecord};
use crate::source::TrafficSource;

/// Robust-mode bookkeeping for one logical request awaiting a response.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InFlight {
    /// Connection the request uses (retries stay on it).
    pub conn: u32,
    /// The sampled resource profile (retries resend the same work).
    pub profile: RequestProfile,
    /// When the first attempt was generated — the latency origin for
    /// whichever attempt eventually completes.
    pub t_first: SimTime,
    /// Current attempt number (0 = first try).
    pub attempt: u32,
    /// Whether a hedged duplicate has already been issued.
    pub hedged: bool,
}

/// One client machine hosting a load-tester instance.
#[derive(Debug)]
pub struct ClientMachine {
    /// Machine parameters.
    pub spec: ClientSpec,
    /// The load tester's send-timing logic.
    pub source: Box<dyn TrafficSource>,
    /// Deterministic per-client RNG stream.
    pub rng: SmallRng,
    cpu: RateQueue,
    /// Completed-request records, in delivery order.
    pub records: Vec<ResponseRecord>,
    /// Abandoned-request records (timeouts / resets), in failure order.
    pub failures: Vec<FailureRecord>,
    sent: u64,
    /// Keyed by request id. A `BTreeMap` (not `HashMap`) so that any
    /// future iteration over pending requests is seed-stable; robust
    /// mode touches it per request, where the log-depth walk on a
    /// handful of in-flight entries is noise next to the queue model.
    pub(crate) in_flight: BTreeMap<RequestId, InFlight>,
    pub(crate) retries_sent: u64,
    pub(crate) hedges_sent: u64,
    pub(crate) timeouts: u64,
    pub(crate) resets: u64,
}

impl ClientMachine {
    /// Creates an idle client machine.
    pub fn new(spec: ClientSpec, source: Box<dyn TrafficSource>, rng: SmallRng) -> Self {
        ClientMachine {
            spec,
            source,
            rng,
            cpu: RateQueue::new("client-cpu"),
            records: Vec::new(),
            failures: Vec::new(),
            sent: 0,
            in_flight: BTreeMap::new(),
            retries_sent: 0,
            hedges_sent: 0,
            timeouts: 0,
            resets: 0,
        }
    }

    /// Runs the user-space send path at `now`: queues on the client CPU
    /// and returns when the packet reaches the NIC (after the fixed
    /// kernel TX cost).
    pub fn tx_ready_at(&mut self, now: SimTime) -> SimTime {
        self.sent += 1;
        let cpu_done = self
            .cpu
            .offer(now, SimDuration::from_nanos_f64(self.spec.send_cpu_ns))
            .departure;
        cpu_done + self.spec.kernel_tx
    }

    /// Runs the user-space receive path for a packet that finished
    /// kernel RX processing at `now`: queues the response callback on
    /// the client CPU and returns when the load tester observes it.
    pub fn rx_delivered_at(&mut self, now: SimTime) -> SimTime {
        self.cpu
            .offer(now, SimDuration::from_nanos_f64(self.spec.recv_cpu_ns))
            .departure
    }

    /// Records this client is expected to complete when sending for
    /// `window`: its source's rate × the window plus a 4σ Poisson
    /// margin, or 0 for a source without a fixed rate.
    pub(crate) fn expected_records(&self, window: SimDuration) -> usize {
        let Some(rate) = self.source.rate_rps() else {
            return 0;
        };
        let mean = (rate * window.as_secs_f64()).max(0.0);
        // Saturating float-to-int conversion of a non-negative count.
        #[allow(clippy::cast_possible_truncation)]
        let expected = (mean + 4.0 * mean.sqrt()).ceil() as usize;
        expected
    }

    /// Appends a completed record. The buffer's first growth reserves
    /// [`Self::expected_records`] at once instead of doubling its way
    /// there, which keeps a long run's record buffer near its final
    /// size rather than up to twice it. Reserving only on the first
    /// record leaves short-lived worlds (built, never run) cheap.
    pub(crate) fn push_record(&mut self, record: ResponseRecord, window: SimDuration) {
        if self.records.capacity() == 0 {
            self.records.reserve_exact(self.expected_records(window));
        }
        self.records.push(record);
    }

    /// Requests sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Client CPU utilisation over `[0, now]`.
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(now)
    }

    /// The client-CPU queue state, captured for checkpointing.
    pub(crate) fn cpu_state(&self) -> treadmill_sim_core::RateQueueState {
        self.cpu.state()
    }

    /// Restores CPU-queue state and the sent counter from a checkpoint.
    pub(crate) fn restore_cpu_state(
        &mut self,
        cpu: treadmill_sim_core::RateQueueState,
        sent: u64,
    ) {
        self.cpu.restore_state(cpu);
        self.sent = sent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::PoissonSource;
    use rand::SeedableRng;

    /// Mean client-CPU queueing delay per operation, µs.
    fn mean_cpu_queueing_us(m: &ClientMachine) -> f64 {
        let cpu = m.cpu_state();
        cpu.total_queueing.as_micros_f64() / cpu.jobs as f64
    }

    fn machine(send_ns: f64, recv_ns: f64) -> ClientMachine {
        ClientMachine::new(
            ClientSpec {
                send_cpu_ns: send_ns,
                recv_cpu_ns: recv_ns,
                ..Default::default()
            },
            Box::new(PoissonSource::new(1000.0, 1)),
            SmallRng::seed_from_u64(1),
        )
    }

    #[test]
    fn tx_includes_kernel_cost() {
        let mut m = machine(800.0, 800.0);
        let ready = m.tx_ready_at(SimTime::from_micros(10));
        // 0.8us cpu + 12us kernel tx.
        assert_eq!(ready, SimTime::from_nanos(10_000 + 800 + 12_000));
        assert_eq!(m.sent(), 1);
    }

    #[test]
    fn heavy_client_queues_on_its_own_cpu() {
        let mut m = machine(4_000.0, 4_000.0);
        // 10 sends in the same microsecond: each queues behind the last.
        let mut last = SimTime::ZERO;
        for _ in 0..10 {
            let ready = m.tx_ready_at(SimTime::from_micros(1));
            assert!(ready > last);
            last = ready;
        }
        // 10 × 4us = 40us of CPU; the last send waited ~36us.
        assert!(last >= SimTime::from_nanos(1_000 + 40_000 + 12_000));
        assert!(mean_cpu_queueing_us(&m) > 10.0);
    }

    #[test]
    fn rx_and_tx_share_the_cpu() {
        let mut m = machine(4_000.0, 4_000.0);
        let tx = m.tx_ready_at(SimTime::from_micros(1));
        // An RX callback entering right after the send queues behind it.
        let rx = m.rx_delivered_at(SimTime::from_micros(2));
        assert!(rx > SimTime::from_micros(2) + SimDuration::from_nanos(4_000));
        let _ = tx;
    }

    #[test]
    fn light_client_has_negligible_queueing() {
        let mut m = machine(800.0, 800.0);
        for i in 0..100 {
            let _ = m.tx_ready_at(SimTime::from_micros(i * 100));
        }
        assert!(mean_cpu_queueing_us(&m) < 0.01);
        assert!(m.cpu_utilization(SimTime::from_millis(10)) < 0.05);
    }
}
