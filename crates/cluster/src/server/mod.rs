//! The simulated server: 16 cores on two sockets, NIC RSS, a DVFS
//! governor, a turbo/thermal model, and NUMA-sensitive service times.

pub mod core;
pub mod dvfs;
pub mod turbo;

use treadmill_sim_core::{SimDuration, SimTime};
use treadmill_workloads::RequestProfile;

use crate::config::{HardwareConfig, Level, ServerSpec};
use core::Core;
use turbo::ThermalModel;

/// The server under test.
#[derive(Debug)]
pub struct Server {
    spec: ServerSpec,
    hw: HardwareConfig,
    /// The CPU cores; index = core id.
    pub cores: Vec<Core>,
    thermal: ThermalModel,
    prev_busy: Vec<SimDuration>,
    last_thermal: SimTime,
    freq_trace: Option<Vec<FrequencyEvent>>,
}

/// One recorded frequency transition (when tracing is enabled).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyEvent {
    /// When the governor applied the change.
    pub at: SimTime,
    /// The core whose frequency changed.
    pub core: u8,
    /// The new frequency, GHz.
    pub ghz: f64,
}

impl Server {
    /// Builds a cold server in the given hardware configuration.
    // Core ids fit u8: ServerSpec bounds cores with u8 fields.
    #[allow(clippy::cast_possible_truncation)]
    pub fn new(spec: ServerSpec, hw: HardwareConfig) -> Self {
        let initial_freq = match hw.dvfs {
            // performance: start at the max available frequency.
            Level::High => {
                if hw.turbo.is_high() {
                    spec.turbo_ghz
                } else {
                    spec.base_ghz
                }
            }
            // ondemand: start at base — the governor retargets from its
            // first sampling window (starting at the minimum step would
            // inject a cold-start backlog transient into every run).
            Level::Low => spec.base_ghz,
        };
        let cores = (0..spec.total_cores())
            .map(|i| Core::new(i as u8, spec.socket_of(i), initial_freq))
            .collect::<Vec<_>>();
        let thermal = ThermalModel::new(
            spec.base_ghz,
            spec.turbo_ghz,
            hw.turbo.is_high(),
            spec.thermal_tau_s,
            spec.thermal_throttle_start,
        );
        let prev_busy = vec![SimDuration::ZERO; cores.len()];
        Server {
            spec,
            hw,
            cores,
            thermal,
            prev_busy,
            last_thermal: SimTime::ZERO,
            freq_trace: None,
        }
    }

    /// Enables recording of every governor frequency transition.
    pub fn enable_frequency_trace(&mut self) {
        self.freq_trace = Some(Vec::new());
    }

    /// The recorded frequency transitions, if tracing was enabled.
    pub fn frequency_trace(&self) -> Option<&[FrequencyEvent]> {
        self.freq_trace.as_deref()
    }

    /// The server specification.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// The thermal model (for diagnostics).
    pub fn thermal(&self) -> &ThermalModel {
        &self.thermal
    }

    /// Which core handles interrupts for an RSS queue, under the NIC
    /// affinity policy (Table III): `same-node` maps every queue to
    /// socket-0 cores; `all-nodes` spreads queues across both sockets.
    pub fn rss_core(&self, queue: u8) -> usize {
        let per_socket = usize::from(self.spec.cores_per_socket);
        match self.hw.nic {
            Level::Low => usize::from(queue) % per_socket,
            Level::High => usize::from(queue) % self.spec.total_cores(),
        }
    }

    /// Interrupt-handling duration on `core` at its current frequency.
    /// Handling on a socket other than the NIC's attachment (socket 0)
    /// pays a cross-socket penalty for the DMA'd packet data.
    pub fn irq_duration(&self, core: usize) -> SimDuration {
        let c = &self.cores[core];
        let scale = self.spec.base_ghz / c.freq_ghz();
        let mut ns = self.spec.irq_ns * scale;
        if c.socket != 0 {
            ns += self.spec.irq_cross_socket_ns;
        }
        SimDuration::from_nanos_f64(ns)
    }

    /// Worker service duration for a request on `core`: the CPU
    /// component scales with the core's current frequency, the memory
    /// component is inflated by the remote-NUMA penalty when the
    /// connection's buffer is remote, and a cross-socket handoff fee
    /// applies when the interrupt arrived on the other socket.
    pub fn service_duration(
        &self,
        core: usize,
        profile: &RequestProfile,
        buffer_remote: bool,
        handoff_cross_socket: bool,
    ) -> SimDuration {
        let c = &self.cores[core];
        let cpu = profile.cpu_ns * self.spec.base_ghz / c.freq_ghz();
        let mem = profile.mem_ns
            * if buffer_remote {
                self.spec.numa_remote_penalty
            } else {
                1.0
            };
        let handoff = if handoff_cross_socket {
            self.spec.handoff_cross_socket_ns
        } else {
            0.0
        };
        SimDuration::from_nanos_f64(cpu + mem + handoff)
    }

    /// Runs one governor sampling tick: re-targets every core's
    /// frequency from its window utilisation, inserting a transition
    /// stall on cores whose frequency changed. Returns the ids of cores
    /// that received a stall (the caller must poke their run loops).
    // Core ids fit u8: ServerSpec bounds cores with u8 fields.
    #[allow(clippy::cast_possible_truncation)]
    pub fn governor_tick(&mut self, now: SimTime) -> Vec<usize> {
        let max_avail = self.thermal.available_ghz();
        let mut stalled = Vec::new();
        for (i, core) in self.cores.iter_mut().enumerate() {
            let util = core.util.window_utilization(now);
            let target = dvfs::governor_target(
                self.hw.dvfs,
                util,
                self.spec.min_ghz,
                max_avail,
                self.spec.ondemand_up_threshold,
            );
            // Deadband: ignore sub-threshold retargets so thermal
            // jitter does not cause a transition storm.
            if (target - core.freq_ghz()).abs() < self.spec.governor_deadband_ghz {
                core.util.restart_window(now);
                continue;
            }
            if core.set_freq(target) {
                core.enqueue_front(core::CoreJob::Stall(self.spec.frequency_transition));
                stalled.push(i);
                if let Some(trace) = &mut self.freq_trace {
                    trace.push(FrequencyEvent {
                        at: now,
                        core: i as u8,
                        ghz: target,
                    });
                }
            }
            core.util.restart_window(now);
        }
        stalled
    }

    /// Runs one thermal tick: integrates busy time since the last tick
    /// into the package heat state.
    pub fn thermal_tick(&mut self, now: SimTime) {
        let dt = now.saturating_duration_since(self.last_thermal);
        if dt.is_zero() {
            return;
        }
        let dt_s = dt.as_secs_f64();
        let n = self.cores.len() as f64;
        let mut util_sum = 0.0;
        let mut freq_sum = 0.0;
        for (i, core) in self.cores.iter().enumerate() {
            let busy = core.util.busy_total();
            let delta = busy - self.prev_busy[i];
            self.prev_busy[i] = busy;
            util_sum += (delta.as_secs_f64() / dt_s).min(1.0);
            freq_sum += core.freq_ghz();
        }
        self.thermal.advance(dt_s, util_sum / n, freq_sum / n);
        self.last_thermal = now;
    }

    /// Picks the core that should run a worker job whose connection is
    /// pinned to `preferred`: normally `preferred` itself, but when its
    /// run queue is at least `balance_threshold` deep, the shallowest
    /// queue on the same socket takes the job (kernel load balancing).
    pub fn balanced_worker_core(&self, preferred: usize) -> usize {
        let threshold = self.spec.balance_threshold;
        let depth = |c: &Core| c.queue_len() + usize::from(c.is_busy());
        if depth(&self.cores[preferred]) < threshold {
            return preferred;
        }
        // First balance within the socket (cheap migration, preserves
        // NUMA locality); if the whole socket is deep, migrate anywhere
        // — exactly the escalation CFS performs under pressure. One
        // manual pass finds both minima (this runs for every worker
        // dispatch once the server is loaded); strict `<` keeps the
        // first-minimum tie-break the iterator version had.
        let socket = self.cores[preferred].socket;
        let mut same_socket = preferred;
        let mut same_socket_depth = usize::MAX;
        let mut global = preferred;
        let mut global_depth = usize::MAX;
        for (i, c) in self.cores.iter().enumerate() {
            let d = depth(c);
            if d < global_depth {
                global = i;
                global_depth = d;
            }
            if c.socket == socket && d < same_socket_depth {
                same_socket = i;
                same_socket_depth = d;
            }
        }
        if same_socket_depth < threshold {
            return same_socket;
        }
        global
    }

    /// The server-level mutable state outside the cores (thermal model,
    /// per-core busy baselines, tick bookkeeping, optional frequency
    /// trace), captured for checkpointing.
    pub(crate) fn checkpoint_state(
        &self,
    ) -> (f64, &[SimDuration], SimTime, Option<&[FrequencyEvent]>) {
        (
            self.thermal.heat(),
            &self.prev_busy,
            self.last_thermal,
            self.freq_trace.as_deref(),
        )
    }

    /// Restores the state captured by [`Server::checkpoint_state`].
    /// The server must have been rebuilt with the same spec and
    /// hardware configuration.
    ///
    /// # Panics
    ///
    /// Panics if the busy-baseline count does not match the core count.
    pub(crate) fn restore_checkpoint_state(
        &mut self,
        heat: f64,
        prev_busy: Vec<SimDuration>,
        last_thermal: SimTime,
        freq_trace: Option<Vec<FrequencyEvent>>,
    ) {
        assert_eq!(prev_busy.len(), self.cores.len(), "busy-baseline count mismatch");
        self.thermal.restore_heat(heat);
        self.prev_busy = prev_busy;
        self.last_thermal = last_thermal;
        self.freq_trace = freq_trace;
    }

    /// Mean utilisation across cores over `[0, now]`.
    pub fn mean_utilization(&self, now: SimTime) -> f64 {
        let n = self.cores.len() as f64;
        self.cores.iter().map(|c| c.util.utilization(now)).sum::<f64>() / n
    }

    /// Total frequency transitions across cores.
    pub fn total_transitions(&self) -> u64 {
        self.cores.iter().map(Core::transitions).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw(numa: bool, turbo: bool, dvfs: bool, nic: bool) -> HardwareConfig {
        HardwareConfig {
            numa: Level::from_bit(numa),
            turbo: Level::from_bit(turbo),
            dvfs: Level::from_bit(dvfs),
            nic: Level::from_bit(nic),
        }
    }

    fn profile() -> RequestProfile {
        RequestProfile {
            class: treadmill_workloads::OpClass::Read,
            request_bytes: 64,
            response_bytes: 128,
            cpu_ns: 10_000.0,
            mem_ns: 4_000.0,
        }
    }

    #[test]
    fn rss_same_node_stays_on_socket_zero() {
        let server = Server::new(ServerSpec::default(), hw(false, false, false, false));
        for q in 0..16 {
            let core = server.rss_core(q);
            assert_eq!(server.cores[core].socket, 0, "queue {q} → core {core}");
        }
    }

    #[test]
    fn rss_all_nodes_spreads_sockets() {
        let server = Server::new(ServerSpec::default(), hw(false, false, false, true));
        let sockets: std::collections::BTreeSet<u8> =
            (0..16).map(|q| server.cores[server.rss_core(q)].socket).collect();
        assert_eq!(sockets.len(), 2);
    }

    #[test]
    fn irq_costs_more_cross_socket() {
        let server = Server::new(ServerSpec::default(), hw(false, false, true, true));
        let local = server.irq_duration(0);
        let remote = server.irq_duration(8);
        assert!(remote > local);
    }

    #[test]
    fn service_duration_components() {
        // performance governor, no turbo: all cores at base frequency.
        let server = Server::new(ServerSpec::default(), hw(false, false, true, false));
        let p = profile();
        let plain = server.service_duration(0, &p, false, false);
        assert_eq!(plain, SimDuration::from_nanos(14_000));
        let remote = server.service_duration(0, &p, true, false);
        assert_eq!(
            remote,
            SimDuration::from_nanos(10_000 + (4_000.0 * 1.8) as u64)
        );
        let handoff = server.service_duration(0, &p, false, true);
        assert!(handoff > plain);
    }

    #[test]
    fn turbo_speeds_up_cpu_component() {
        // performance + turbo: cores start at 3.0 GHz.
        let server = Server::new(ServerSpec::default(), hw(false, true, true, false));
        let p = profile();
        let fast = server.service_duration(0, &p, false, false);
        // cpu 10000 * 2.2/3.0 ≈ 7333; mem unchanged at 4000.
        let expected = 10_000.0 * 2.2 / 3.0 + 4_000.0;
        assert!((fast.as_nanos() as f64 - expected).abs() < 2.0);
    }

    #[test]
    fn initial_frequencies() {
        let ondemand = Server::new(ServerSpec::default(), hw(false, false, false, false));
        assert_eq!(ondemand.cores[0].freq_ghz(), 2.2);
        let perf = Server::new(ServerSpec::default(), hw(false, true, true, false));
        assert_eq!(perf.cores[0].freq_ghz(), 3.0);
    }

    #[test]
    fn ondemand_downclocks_idle_cores_after_first_tick() {
        let mut server = Server::new(ServerSpec::default(), hw(false, false, false, false));
        let stalled = server.governor_tick(SimTime::from_millis(10));
        assert!(stalled.contains(&3), "idle core should transition down");
        assert_eq!(server.cores[3].freq_ghz(), 1.2);
    }

    #[test]
    fn governor_tick_tracks_window_utilisation() {
        let mut server = Server::new(ServerSpec::default(), hw(false, false, false, false));
        // Core 0 fully busy over the window: stays at the max (base)
        // frequency with no transition.
        server.cores[0]
            .util
            .record_busy(SimTime::ZERO, SimDuration::from_millis(10));
        let stalled = server.governor_tick(SimTime::from_millis(10));
        assert!(!stalled.contains(&0));
        assert_eq!(server.cores[0].freq_ghz(), 2.2);
        // Idle cores get down-clocked to the minimum, paying a
        // transition stall.
        assert!(stalled.contains(&5));
        assert_eq!(server.cores[5].freq_ghz(), 1.2);
    }

    #[test]
    fn thermal_tick_integrates_busy_time() {
        let mut server = Server::new(ServerSpec::default(), hw(false, true, true, false));
        for i in 0..16 {
            server.cores[i]
                .util
                .record_busy(SimTime::ZERO, SimDuration::from_millis(1));
        }
        for step in 1..=200u64 {
            server.thermal_tick(SimTime::from_millis(step));
            for i in 0..16 {
                server.cores[i].util.record_busy(
                    SimTime::from_millis(step),
                    SimDuration::from_millis(1),
                );
            }
        }
        // Fully busy at turbo for 200ms (4 time constants): throttled.
        assert!(server.thermal().heat() > 0.55, "heat {}", server.thermal().heat());
        assert!(server.thermal().available_ghz() < 3.0);
    }

    #[test]
    fn mean_utilization_averages_cores() {
        let mut server = Server::new(ServerSpec::default(), hw(false, false, true, false));
        server.cores[0]
            .util
            .record_busy(SimTime::ZERO, SimDuration::from_micros(160));
        // One of 16 cores busy 160us over 160us elapsed: mean = 1/16.
        let mean = server.mean_utilization(SimTime::from_micros(160));
        assert!((mean - 1.0 / 16.0).abs() < 1e-9);
    }
}
