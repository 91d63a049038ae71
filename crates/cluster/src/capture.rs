//! The tcpdump-style packet capture view.
//!
//! The paper's evaluation (§III-C) validates each load tester against
//! "ground truth" measured by tcpdump on the load-test machines:
//! NIC-level timestamps matched by sequence id, which exclude
//! client-side queueing and kernel interrupt handling. The simulator
//! stamps every request at the client NIC in both directions, so the
//! capture is a *view* over completed-request records rather than a
//! separate probe — like tcpdump, it observes the same packets the load
//! tester sends, pinned to an idle core (zero probe effect).

use treadmill_sim_core::SimTime;

use crate::request::ResponseRecord;

/// A matched request/response pair as tcpdump would report it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapturedPair {
    /// When the request left the client NIC.
    pub tx: SimTime,
    /// When the response arrived at the client NIC.
    pub rx: SimTime,
}

impl CapturedPair {
    /// The NIC-to-NIC latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.rx.duration_since(self.tx).as_micros_f64()
    }
}

/// The tcpdump view over one or more clients' records.
///
/// Latencies are extracted and sorted once at construction, so every
/// quantile or CDF query afterwards is allocation-free — reports ask
/// for several quantiles per capture, and re-materialising (and
/// re-sorting) the latency vector per query dominated report time.
#[derive(Debug, Clone, Default)]
pub struct PacketCapture {
    /// NIC-to-NIC latencies (µs), sorted ascending.
    sorted_latencies_us: Vec<f64>,
}

impl PacketCapture {
    /// Captures every record whose request was generated at or after
    /// `warmup` (matching the load tester's own discard window).
    pub fn from_records<'a>(
        records: impl IntoIterator<Item = &'a ResponseRecord>,
        warmup: SimTime,
    ) -> Self {
        let mut sorted_latencies_us: Vec<f64> = records
            .into_iter()
            .filter(|r| r.t_generated >= warmup)
            .map(|r| {
                CapturedPair {
                    tx: r.t_nic_out,
                    rx: r.t_nic_in,
                }
                .latency_us()
            })
            .collect();
        sorted_latencies_us.sort_by(f64::total_cmp);
        PacketCapture { sorted_latencies_us }
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.sorted_latencies_us.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.sorted_latencies_us.is_empty()
    }

    /// The ground-truth `p`-quantile in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the capture is empty.
    pub fn quantile_us(&self, p: f64) -> f64 {
        treadmill_stats::quantile::quantile_of_sorted(&self.sorted_latencies_us, p)
    }

    /// `(latency_us, cumulative_fraction)` points of the empirical CDF,
    /// thinned to at most `max_points` — the tcpdump curves in Figures
    /// 5–6.
    pub fn cdf_points(&self, max_points: usize) -> Vec<(f64, f64)> {
        let lat = &self.sorted_latencies_us;
        if lat.is_empty() {
            return Vec::new();
        }
        let n = lat.len();
        let stride = (n / max_points.max(1)).max(1);
        let mut points: Vec<(f64, f64)> = lat
            .iter()
            .enumerate()
            .step_by(stride)
            .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
            .collect();
        if points.last().map(|&(_, f)| f) != Some(1.0) {
            points.push((lat[n - 1], 1.0));
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Request, RequestId};
    use treadmill_workloads::{OpClass, RequestProfile};

    fn record(gen_us: u64, nic_out_us: u64, nic_in_us: u64) -> ResponseRecord {
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
        req.t_client_nic_out = SimTime::from_micros(nic_out_us);
        req.t_server_nic_in = SimTime::from_micros(nic_out_us + 1);
        req.t_server_nic_out = SimTime::from_micros(nic_in_us - 1);
        req.t_client_nic_in = SimTime::from_micros(nic_in_us);
        req.t_delivered = SimTime::from_micros(nic_in_us + 20);
        ResponseRecord::from_request(&req)
    }

    #[test]
    fn captures_nic_latency() {
        let records = vec![record(0, 10, 60), record(5, 15, 115)];
        let cap = PacketCapture::from_records(&records, SimTime::ZERO);
        assert_eq!(cap.len(), 2);
        assert_eq!(cap.sorted_latencies_us, vec![50.0, 100.0]);
        assert_eq!(cap.quantile_us(0.0), 50.0);
        assert_eq!(cap.quantile_us(1.0), 100.0);
    }

    #[test]
    fn warmup_filters_early_requests() {
        let records = vec![record(0, 10, 60), record(100, 110, 160)];
        let cap = PacketCapture::from_records(&records, SimTime::from_micros(50));
        assert_eq!(cap.len(), 1);
    }

    #[test]
    fn cdf_points_monotone_and_complete() {
        let records: Vec<ResponseRecord> =
            (0..100).map(|i| record(i, i + 10, i + 60 + i)).collect();
        let cap = PacketCapture::from_records(&records, SimTime::ZERO);
        let points = cap.cdf_points(10);
        assert!(points.len() <= 12);
        for pair in points.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
            assert!(pair[0].1 <= pair[1].1);
        }
        assert_eq!(points.last().unwrap().1, 1.0);
    }

    #[test]
    fn empty_capture() {
        let cap = PacketCapture::default();
        assert!(cap.is_empty());
        assert!(cap.cdf_points(10).is_empty());
    }
}
