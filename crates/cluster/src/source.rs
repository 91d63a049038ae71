//! The traffic-source abstraction: how a load tester decides *when* to
//! send requests.
//!
//! The paper's first pitfall (§II-A) is exactly this interface: a
//! **closed-loop** source only sends after the previous response on the
//! same connection returns, capping the number of outstanding requests;
//! an **open-loop** source fires at scheduled times regardless of
//! responses. The concrete open/closed controllers live in
//! `treadmill-core` (they are part of the load tester's contribution);
//! this module defines the trait the simulated client machine drives,
//! plus a minimal Poisson source for the simulator's own tests.

use rand::RngCore;
use std::fmt;
use treadmill_sim_core::{SimDuration, SimTime};
use treadmill_stats::distribution::sample_exponential;

/// An instruction to send one request on a connection at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendOrder {
    /// When to initiate the send (user space).
    pub at: SimTime,
    /// Which connection to send on.
    pub conn: u32,
}

/// Decides when requests are sent. Driven by the simulated client
/// machine: [`TrafficSource::start`] seeds the initial sends, then
/// [`TrafficSource::on_sent`] and [`TrafficSource::on_response`] are
/// called as the simulation progresses and may yield follow-up orders.
pub trait TrafficSource: fmt::Debug + Send {
    /// Initial send orders at simulation start.
    fn start(&mut self, now: SimTime, rng: &mut dyn RngCore) -> Vec<SendOrder>;

    /// Called when a send fires. Open-loop sources schedule their next
    /// send here; closed-loop sources return `None`.
    fn on_sent(&mut self, now: SimTime, rng: &mut dyn RngCore) -> Option<SendOrder>;

    /// Called when the response on `conn` is delivered. Closed-loop
    /// sources issue the connection's next request here.
    fn on_response(&mut self, conn: u32, now: SimTime, rng: &mut dyn RngCore)
        -> Option<SendOrder>;

    /// The source's mutable state packed into one word, for
    /// checkpointing. Sources whose send decisions depend on mutable
    /// fields beyond the RNG (a round-robin cursor, a schedule head)
    /// must override this together with
    /// [`TrafficSource::restore_checkpoint_word`]; stateless sources
    /// keep the default.
    fn checkpoint_word(&self) -> u64 {
        0
    }

    /// Restores state captured by [`TrafficSource::checkpoint_word`].
    fn restore_checkpoint_word(&mut self, _word: u64) {}

    /// The mean send rate in requests per second, for sources that
    /// have a fixed one. It sizes the client's record buffer up front;
    /// `None` (the default) leaves the buffer to grow by doubling.
    fn rate_rps(&self) -> Option<f64> {
        None
    }
}

/// A minimal open-loop Poisson source: exponential inter-arrivals at a
/// fixed rate, connections chosen round-robin.
///
/// `treadmill-core` provides the fully featured controllers; this one
/// exists so the simulator can be tested stand-alone.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use treadmill_cluster::{PoissonSource, TrafficSource};
/// use treadmill_sim_core::SimTime;
///
/// let mut source = PoissonSource::new(100_000.0, 8);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let first = source.start(SimTime::ZERO, &mut rng);
/// assert_eq!(first.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PoissonSource {
    mean_gap_ns: f64,
    connections: u32,
    next_conn: u32,
}

impl PoissonSource {
    /// Creates a source emitting `rate_rps` requests per second across
    /// `connections` connections.
    ///
    /// # Panics
    ///
    /// Panics if `rate_rps` is not positive or `connections` is zero.
    pub fn new(rate_rps: f64, connections: u32) -> Self {
        assert!(rate_rps > 0.0, "rate must be positive");
        assert!(connections > 0, "need at least one connection");
        PoissonSource {
            mean_gap_ns: 1e9 / rate_rps,
            connections,
            next_conn: 0,
        }
    }

    fn next_order(&mut self, now: SimTime, rng: &mut dyn RngCore) -> SendOrder {
        // At least 1 ns between sends: the controller timestamps at
        // nanosecond resolution and never issues two sends at once.
        let gap = sample_exponential(rng, self.mean_gap_ns).max(1.0);
        let conn = self.next_conn;
        self.next_conn = (self.next_conn + 1) % self.connections;
        SendOrder {
            at: now + SimDuration::from_nanos_f64(gap),
            conn,
        }
    }
}

impl TrafficSource for PoissonSource {
    fn start(&mut self, now: SimTime, rng: &mut dyn RngCore) -> Vec<SendOrder> {
        vec![self.next_order(now, rng)]
    }

    fn on_sent(&mut self, now: SimTime, rng: &mut dyn RngCore) -> Option<SendOrder> {
        Some(self.next_order(now, rng))
    }

    fn on_response(
        &mut self,
        _conn: u32,
        _now: SimTime,
        _rng: &mut dyn RngCore,
    ) -> Option<SendOrder> {
        None
    }

    fn rate_rps(&self) -> Option<f64> {
        Some(1e9 / self.mean_gap_ns)
    }

    fn checkpoint_word(&self) -> u64 {
        u64::from(self.next_conn)
    }

    fn restore_checkpoint_word(&mut self, word: u64) {
        self.next_conn = u32::try_from(word % u64::from(self.connections))
            .unwrap_or(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_rate_converges() {
        let mut source = PoissonSource::new(1_000_000.0, 4);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut now = SimTime::ZERO;
        let n = 50_000;
        let orders = source.start(now, &mut rng);
        now = orders[0].at;
        for _ in 0..n {
            let next = source.on_sent(now, &mut rng).unwrap();
            assert!(next.at > now);
            now = next.at;
        }
        let elapsed_s = now.as_secs_f64();
        let rate = n as f64 / elapsed_s;
        assert!((rate / 1_000_000.0 - 1.0).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn connections_round_robin() {
        let mut source = PoissonSource::new(1000.0, 3);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut conns = Vec::new();
        let mut now = SimTime::ZERO;
        conns.push(source.start(now, &mut rng)[0].conn);
        for _ in 0..5 {
            let o = source.on_sent(now, &mut rng).unwrap();
            conns.push(o.conn);
            now = o.at;
        }
        assert_eq!(conns, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn open_loop_ignores_responses() {
        let mut source = PoissonSource::new(1000.0, 1);
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(source
            .on_response(0, SimTime::from_micros(1), &mut rng)
            .is_none());
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        PoissonSource::new(0.0, 1);
    }
}
