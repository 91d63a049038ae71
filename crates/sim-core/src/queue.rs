//! An analytic FIFO single-server queue.
//!
//! Network links, NIC ingress paths and kernel processing stages are all
//! work-conserving FIFO servers with a fixed service rate. Rather than
//! simulating them with per-packet start/finish events, [`RateQueue`]
//! computes each job's departure time analytically at arrival time:
//!
//! ```text
//! start     = max(arrival, previous departure)
//! departure = start + service
//! ```
//!
//! which is exact for FIFO order and halves the event count.

use crate::time::{SimDuration, SimTime};

/// The result of offering one job to a [`RateQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueOutcome {
    /// When service began (equals the arrival time if the queue was idle).
    pub start: SimTime,
    /// When the job departs the queue.
    pub departure: SimTime,
    /// Time spent waiting behind earlier jobs.
    pub queueing: SimDuration,
    /// Time spent in service.
    pub service: SimDuration,
}

/// An analytic FIFO single-server queue with utilisation accounting.
///
/// # Examples
///
/// ```
/// use treadmill_sim_core::{RateQueue, SimDuration, SimTime};
///
/// let mut link = RateQueue::new("uplink");
/// let first = link.offer(SimTime::ZERO, SimDuration::from_micros(10));
/// assert_eq!(first.queueing, SimDuration::ZERO);
/// // Arrives while the first job is still in service: waits 5us.
/// let second = link.offer(SimTime::from_micros(5), SimDuration::from_micros(10));
/// assert_eq!(second.queueing, SimDuration::from_micros(5));
/// assert_eq!(second.departure, SimTime::from_micros(20));
/// ```
#[derive(Debug, Clone)]
pub struct RateQueue {
    name: String,
    free_at: SimTime,
    busy: SimDuration,
    jobs: u64,
    total_queueing: SimDuration,
    last_arrival: SimTime,
}

impl RateQueue {
    /// Creates an idle queue. `name` appears in debug output only.
    pub fn new(name: impl Into<String>) -> Self {
        RateQueue {
            name: name.into(),
            free_at: SimTime::ZERO,
            busy: SimDuration::ZERO,
            jobs: 0,
            total_queueing: SimDuration::ZERO,
            last_arrival: SimTime::ZERO,
        }
    }

    /// The queue's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Offers a job arriving at `arrival` needing `service` time.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if arrivals go backwards in time; FIFO
    /// analysis requires monotone arrivals.
    pub fn offer(&mut self, arrival: SimTime, service: SimDuration) -> QueueOutcome {
        debug_assert!(
            arrival >= self.last_arrival,
            "non-monotone arrival at {} ({}), last was {}",
            arrival,
            self.name,
            self.last_arrival,
        );
        self.last_arrival = arrival;
        let start = arrival.max(self.free_at);
        let departure = start + service;
        self.free_at = departure;
        self.busy += service;
        self.jobs += 1;
        let queueing = start.saturating_duration_since(arrival);
        self.total_queueing += queueing;
        QueueOutcome {
            start,
            departure,
            queueing,
            service,
        }
    }

    /// The instant the server becomes idle given jobs offered so far.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Utilisation over `[SimTime::ZERO, now]`: busy time divided by
    /// elapsed time, clamped to `[0, 1]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.as_nanos();
        if elapsed == 0 {
            return 0.0;
        }
        (self.busy.as_nanos() as f64 / elapsed as f64).min(1.0)
    }

    /// The mutable state a checkpoint must capture (the name is
    /// configuration and survives a rebuild).
    pub fn state(&self) -> RateQueueState {
        RateQueueState {
            free_at: self.free_at,
            busy: self.busy,
            jobs: self.jobs,
            total_queueing: self.total_queueing,
            last_arrival: self.last_arrival,
        }
    }

    /// Overwrites the mutable state with a checkpointed
    /// [`RateQueueState`].
    pub fn restore_state(&mut self, state: RateQueueState) {
        self.free_at = state.free_at;
        self.busy = state.busy;
        self.jobs = state.jobs;
        self.total_queueing = state.total_queueing;
        self.last_arrival = state.last_arrival;
    }
}

/// A [`RateQueue`]'s mutable state, captured for checkpointing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateQueueState {
    /// When the server next becomes idle.
    pub free_at: SimTime,
    /// Cumulative busy time.
    pub busy: SimDuration,
    /// Jobs served.
    pub jobs: u64,
    /// Cumulative queueing time.
    pub total_queueing: SimDuration,
    /// Most recent arrival instant (monotonicity guard).
    pub last_arrival: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_queue_serves_immediately() {
        let mut q = RateQueue::new("q");
        let out = q.offer(SimTime::from_micros(3), SimDuration::from_micros(2));
        assert_eq!(out.start, SimTime::from_micros(3));
        assert_eq!(out.departure, SimTime::from_micros(5));
        assert_eq!(out.queueing, SimDuration::ZERO);
    }

    #[test]
    fn back_to_back_jobs_queue() {
        let mut q = RateQueue::new("q");
        q.offer(SimTime::ZERO, SimDuration::from_micros(10));
        let second = q.offer(SimTime::from_micros(1), SimDuration::from_micros(10));
        assert_eq!(second.start, SimTime::from_micros(10));
        assert_eq!(second.queueing, SimDuration::from_micros(9));
        let third = q.offer(SimTime::from_micros(2), SimDuration::from_micros(1));
        assert_eq!(third.departure, SimTime::from_micros(21));
    }

    #[test]
    fn idle_gap_resets_wait() {
        let mut q = RateQueue::new("q");
        q.offer(SimTime::ZERO, SimDuration::from_micros(1));
        let late = q.offer(SimTime::from_micros(100), SimDuration::from_micros(1));
        assert_eq!(late.queueing, SimDuration::ZERO);
    }

    #[test]
    fn accounting() {
        let mut q = RateQueue::new("q");
        q.offer(SimTime::ZERO, SimDuration::from_micros(10));
        q.offer(SimTime::ZERO, SimDuration::from_micros(10));
        assert_eq!(q.jobs, 2);
        assert_eq!(q.busy, SimDuration::from_micros(20));
        assert_eq!(q.total_queueing, SimDuration::from_micros(10));
        // 20us busy over 40us elapsed = 50% utilisation.
        assert_eq!(q.utilization(SimTime::from_micros(40)), 0.5);
    }

    #[test]
    fn utilization_clamps_to_one() {
        let mut q = RateQueue::new("q");
        q.offer(SimTime::ZERO, SimDuration::from_micros(100));
        assert_eq!(q.utilization(SimTime::from_micros(10)), 1.0);
        assert_eq!(RateQueue::new("idle").utilization(SimTime::ZERO), 0.0);
    }
}
