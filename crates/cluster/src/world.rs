//! The cluster world: event definitions, the request lifecycle state
//! machine, and the run harness.
//!
//! A request's life (all stamps land on [`crate::Request`]):
//!
//! ```text
//! SendFire ─(client CPU + kernel TX)→ ClientTxNic ─(uplink + prop)→
//! ServerNicArrive ─(NIC ingress)→ CoreEnqueue(Irq) → CoreJobDone(Irq) →
//! CoreEnqueue(Work) → CoreJobDone(Work) ─(egress + prop)→
//! ClientNicArrive ─(downlink + kernel RX)→ ClientRxUser ─(client CPU)→
//! Delivered
//! ```
//!
//! Governor and thermal ticks run alongside and reshape core
//! frequencies, which changes service durations computed at dispatch.

use std::sync::Arc;

use treadmill_sim_core::{Engine, EventQueue, SeedStream, SimDuration, SimTime, World};
use treadmill_workloads::Workload;

use crate::client::{ClientMachine, InFlight};
use crate::config::{ClientSpec, HardwareConfig, NetworkSpec, ServerSpec};
use crate::fault::{FailureKind, FailureRecord, FaultPlan, FaultSpec, FaultSummary, RetryPolicy};
use crate::hysteresis::RunState;
use crate::network::Network;
use crate::request::{Request, RequestId, ResponseRecord};
use crate::server::core::CoreJob;
use crate::server::Server;

/// Per-core diagnostic snapshot taken at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreStats {
    /// Core id.
    pub core: u8,
    /// Socket the core belongs to.
    pub socket: u8,
    /// Utilisation over the sending window.
    pub utilization: f64,
    /// Frequency at the end of the run, GHz.
    pub final_freq_ghz: f64,
    /// Jobs (IRQ + work + stalls) completed.
    pub jobs_done: u64,
    /// DVFS transitions performed.
    pub transitions: u64,
}
use crate::source::{SendOrder, TrafficSource};

/// The event alphabet of the cluster simulation.
///
/// Variants that track a request in flight carry it boxed: every
/// request transits the event heap roughly eight times, and sift swaps
/// move whole events, so a thin pointer beats an inline ~130-byte
/// payload by a wide margin. The request is allocated once at
/// [`Event::SendFire`] and freed when [`Event::Delivered`] lands.
#[derive(Debug)]
pub enum Event {
    /// The load tester on `client` initiates a send on `conn`.
    SendFire {
        /// Client index.
        client: u32,
        /// Connection index within the client.
        conn: u32,
    },
    /// The request has cleared client CPU + kernel TX; enter the uplink.
    ClientTxNic(Box<Request>),
    /// The request packet reached the server NIC.
    ServerNicArrive(Box<Request>),
    /// A job lands on a core's run queue.
    CoreEnqueue {
        /// Target core.
        core: usize,
        /// The job.
        job: CoreJob,
    },
    /// A core finished its in-flight job.
    CoreJobDone {
        /// The core.
        core: usize,
        /// When the job started executing.
        start: SimTime,
        /// The completed job.
        job: CoreJob,
    },
    /// The response packet reached the client NIC.
    ClientNicArrive(Box<Request>),
    /// The response cleared kernel RX; enter the client CPU for the
    /// user-space callback.
    ClientRxUser(Box<Request>),
    /// The load tester observed the response.
    Delivered(Box<Request>),
    /// DVFS governor sampling tick.
    GovernorTick,
    /// Package thermal-model tick.
    ThermalTick,
    /// A per-attempt timeout armed by the retry policy. Stale if the
    /// request already completed or moved to a later attempt.
    RequestTimeout {
        /// Client index.
        client: u32,
        /// The logical request.
        id: RequestId,
        /// The attempt this timer was armed for.
        attempt: u32,
    },
    /// The backoff expired: resend the request.
    RetryFire {
        /// Client index.
        client: u32,
        /// The logical request.
        id: RequestId,
    },
    /// The hedge delay expired: send a duplicate if still unanswered.
    HedgeFire {
        /// Client index.
        client: u32,
        /// The logical request.
        id: RequestId,
    },
    /// An injected transient stall (GC pause) lands on a random core.
    FaultStall,
    /// A pre-drawn whole-server crash window begins.
    ServerCrash,
    /// The server reset a connection (it was down); the client observes
    /// the reset after propagation.
    ConnReset(Box<Request>),
}

/// A message crossing a shard boundary, carried through the owning
/// shard's outbox until the executor injects it into the destination
/// shard's heap (see [`crate::shard`]).
#[derive(Debug)]
pub(crate) enum ShardMsg {
    /// A request packet bound for a foreign server's NIC.
    Request(Box<Request>),
    /// A response packet returning to the request's home client.
    Response(Box<Request>),
    /// A connection reset from a crashed foreign server.
    Reset(Box<Request>),
}

impl ShardMsg {
    /// The event the destination shard executes on arrival.
    pub(crate) fn into_event(self) -> Event {
        match self {
            ShardMsg::Request(req) => Event::ServerNicArrive(req),
            ShardMsg::Response(req) => Event::ClientNicArrive(req),
            ShardMsg::Reset(req) => Event::ConnReset(req),
        }
    }
}

/// Sharding context attached to a world that participates in a
/// [`crate::ShardedCluster`]. `None` on the classic single-world path,
/// which then executes the exact event/RNG sequence it always has.
#[derive(Debug)]
pub(crate) struct ShardCtx {
    /// This shard's index.
    pub(crate) index: u32,
    /// Total shards in the cluster.
    pub(crate) n_shards: u32,
    /// Every `remote_every`-th connection targets a foreign server
    /// (0 disables cross-shard traffic).
    pub(crate) remote_every: u32,
    /// Inter-shard propagation delay — the conservative lookahead.
    pub(crate) prop: SimDuration,
    /// Departed cross-shard messages awaiting the executor:
    /// `(arrival instant, destination shard, message)`.
    pub(crate) outbox: Vec<(SimTime, u32, ShardMsg)>,
    /// Cross-shard messages this shard has emitted (conservation).
    pub(crate) sent: u64,
    /// Cross-shard messages injected into this shard (conservation).
    pub(crate) received: u64,
}

impl ShardCtx {
    pub(crate) fn new(index: u32, n_shards: u32, remote_every: u32, prop: SimDuration) -> Self {
        assert!(index < n_shards, "shard index out of range");
        ShardCtx {
            index,
            n_shards,
            remote_every,
            prop,
            outbox: Vec::new(),
            sent: 0,
            received: 0,
        }
    }
}

/// The complete simulated cluster (implements [`World`]).
#[derive(Debug)]
pub struct ClusterWorld {
    workload: Arc<dyn Workload>,
    /// The server under test.
    pub server: Server,
    /// The network fabric.
    pub network: Network,
    /// Client machines, in builder order.
    pub clients: Vec<ClientMachine>,
    run_state: RunState,
    stop_sending_at: SimTime,
    pub(crate) next_id: u64,
    pub(crate) outstanding: u32,
    pub(crate) outstanding_samples: Vec<(SimTime, u32)>,
    sample_outstanding: bool,
    /// `None` when no faults are configured — the fault-free hot path
    /// then executes the exact event/RNG sequence of the plain engine.
    pub(crate) faults: Option<FaultPlan>,
    /// `None` when the retry policy is disabled.
    policy: Option<RetryPolicy>,
    /// `None` for a lone world (a one-server cluster) — it then runs
    /// bit-identically to every build before sharding existed.
    pub(crate) shard: Option<ShardCtx>,
}

impl ClusterWorld {
    /// How long the clients send: the window a client's expected
    /// record count is taken over.
    pub(crate) fn sending_window(&self) -> SimDuration {
        self.stop_sending_at.duration_since(SimTime::ZERO)
    }

    /// True if a retry policy is active, in which case every in-flight
    /// logical request has an entry in its client's tracking map.
    pub(crate) fn tracks_in_flight(&self) -> bool {
        self.policy.is_some()
    }

    /// Corrupts the in-flight counter by `delta` — a deliberate
    /// conservation violation for exercising the invariant auditor in
    /// negative tests.
    #[cfg(test)]
    pub(crate) fn debug_skew_outstanding(&mut self, delta: u32) {
        self.outstanding += delta;
    }

    /// This world's shard index (0 when unsharded).
    fn home_shard(&self) -> u32 {
        self.shard.as_ref().map_or(0, |ctx| ctx.index)
    }

    /// The inter-shard propagation delay (zero when unsharded; only
    /// read on paths where a shard context is guaranteed present).
    fn shard_prop(&self) -> SimDuration {
        self.shard.as_ref().map_or(SimDuration::ZERO, |ctx| ctx.prop)
    }

    /// True if `req` originated on another shard's client.
    fn is_foreign(&self, req: &Request) -> bool {
        req.home_shard != self.home_shard()
    }

    /// The foreign shard this connection's requests target, or `None`
    /// for a plain local connection. Pure function of the connection
    /// identity: every attempt of every request on the connection
    /// reaches the same server, and the designation is identical at
    /// every thread count.
    #[allow(clippy::cast_possible_truncation)]
    fn remote_dst(&self, client: u32, conn: u32) -> Option<u32> {
        let ctx = self.shard.as_ref()?;
        if ctx.n_shards < 2 || ctx.remote_every == 0 || !conn.is_multiple_of(ctx.remote_every) {
            return None;
        }
        // Spread destinations over the other shards, never selecting
        // the home shard itself.
        let spread = ((u64::from(client) + u64::from(conn / ctx.remote_every))
            % u64::from(ctx.n_shards - 1)) as u32;
        Some((ctx.index + 1 + spread) % ctx.n_shards)
    }

    /// Placement state for a request's connection. Foreign connections
    /// have no hysteresis entry on this server, so their placement is
    /// hashed deterministically from the connection identity.
    fn conn_state(&self, req: &Request) -> crate::hysteresis::ConnectionState {
        if self.is_foreign(req) {
            remote_conn_state(req.home_shard, req.client, req.conn, self.server.spec())
        } else {
            self.run_state.connection(req.client, req.conn)
        }
    }

    /// Queues a cross-shard message for the executor to inject at
    /// `arrival`. Only called on paths where a shard context exists
    /// (a `remote_dst` hit or a foreign request in hand).
    fn send_cross_shard(&mut self, arrival: SimTime, dst: u32, msg: ShardMsg) {
        if let Some(ctx) = self.shard.as_mut() {
            ctx.sent += 1;
            ctx.outbox.push((arrival, dst, msg));
        }
    }

    // Client indices fit u32: cluster configs top out at a handful of
    // load-generator clients.
    #[allow(clippy::cast_possible_truncation)]
    fn collect_start_orders(&mut self, now: SimTime) -> Vec<(u32, SendOrder)> {
        let mut orders = Vec::new();
        for (i, client) in self.clients.iter_mut().enumerate() {
            for order in client.source.start(now, &mut client.rng) {
                orders.push((i as u32, order));
            }
        }
        orders
    }

    fn maybe_schedule_send(
        &self,
        client: u32,
        order: SendOrder,
        queue: &mut EventQueue<Event>,
    ) {
        if order.at <= self.stop_sending_at {
            queue.schedule(
                order.at,
                Event::SendFire {
                    client,
                    conn: order.conn,
                },
            );
        }
    }

    fn dispatch_core(&mut self, core: usize, now: SimTime, queue: &mut EventQueue<Event>) {
        let Some(job) = self.server.cores[core].try_dispatch() else {
            return;
        };
        let duration = match &job {
            CoreJob::Irq(_) => self.server.irq_duration(core),
            CoreJob::Work(req) => {
                let state = self.conn_state(req);
                let irq_core = self.server.rss_core(state.rss_queue);
                let handoff =
                    self.server.cores[irq_core].socket != self.server.cores[core].socket;
                self.server
                    .service_duration(core, &req.profile, state.buffer_remote, handoff)
                    .mul_f64(self.run_state.service_factor())
            }
            CoreJob::Stall(d) => *d,
        };
        queue.schedule(now + duration, Event::CoreJobDone { core, start: now, job });
    }

    /// A tracked request's current attempt failed (timeout or reset):
    /// schedule a retry if the budget allows, otherwise abandon it and
    /// record a right-censored failure. Only called in robust mode.
    fn fail_or_retry(
        &mut self,
        client: u32,
        id: RequestId,
        kind: FailureKind,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        let policy = self.policy.expect("fail_or_retry without a retry policy");
        let ci = client as usize;
        let Some(entry) = self.clients[ci].in_flight.get(&id).copied() else {
            return;
        };
        if entry.attempt < policy.max_retries {
            let e = self.clients[ci]
                .in_flight
                .get_mut(&id)
                .expect("entry present");
            e.attempt += 1;
            let attempt = e.attempt;
            queue.schedule(now + policy.backoff(id, attempt), Event::RetryFire { client, id });
        } else {
            self.clients[ci].in_flight.remove(&id);
            self.outstanding -= 1;
            self.clients[ci].failures.push(FailureRecord {
                id,
                client,
                conn: entry.conn,
                t_generated: entry.t_first,
                t_failed: now,
                attempts: entry.attempt + 1,
                kind,
            });
            // Tell the source the slot freed up so closed-loop testers
            // don't deadlock on a request that will never return.
            let next = {
                let c = &mut self.clients[ci];
                c.source.on_response(entry.conn, now, &mut c.rng)
            };
            if let Some(order) = next {
                self.maybe_schedule_send(client, order, queue);
            }
        }
    }

    /// Builds the resend packet for a retry or hedge: same id, same
    /// profile, latency origin pinned to the first attempt.
    fn resend_packet(&mut self, client: u32, id: RequestId, entry: InFlight) -> Box<Request> {
        let mut req = Box::new(Request::new(id, client, entry.conn, entry.profile, entry.t_first));
        req.attempt = entry.attempt;
        req.home_shard = self.home_shard();
        req
    }
}

impl World for ClusterWorld {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, queue: &mut EventQueue<Event>) {
        match event {
            Event::SendFire { client, conn } => {
                let ci = client as usize;
                assert!(
                    conn < self.clients[ci].spec.connections,
                    "traffic source on client {client} emitted connection {conn}, but the \
                     client declares only {} connections",
                    self.clients[ci].spec.connections
                );
                let profile = self.workload.sample_request(&mut self.clients[ci].rng);
                let id = RequestId(self.next_id);
                self.next_id += 1;
                let mut req = Box::new(Request::new(id, client, conn, profile, now));
                req.home_shard = self.home_shard();
                self.outstanding += 1;
                if self.sample_outstanding {
                    self.outstanding_samples.push((now, self.outstanding));
                }
                if let Some(policy) = self.policy {
                    self.clients[ci].in_flight.insert(
                        id,
                        InFlight {
                            conn,
                            profile,
                            t_first: now,
                            attempt: 0,
                            hedged: false,
                        },
                    );
                    if policy.timeout_us > 0.0 {
                        queue.schedule(
                            now + policy.timeout(),
                            Event::RequestTimeout { client, id, attempt: 0 },
                        );
                    }
                    if policy.hedge_after_us > 0.0 {
                        queue.schedule(now + policy.hedge_delay(), Event::HedgeFire { client, id });
                    }
                }
                let tx_at = self.clients[ci].tx_ready_at(now);
                queue.schedule(tx_at, Event::ClientTxNic(req));
                let next = {
                    let c = &mut self.clients[ci];
                    c.source.on_sent(now, &mut c.rng)
                };
                if let Some(order) = next {
                    self.maybe_schedule_send(client, order, queue);
                }
            }
            Event::ClientTxNic(mut req) => {
                let ci = req.client as usize;
                let out = self
                    .network
                    .uplink_departure(ci, now, req.profile.request_bytes);
                if let Some(plan) = &mut self.faults {
                    // The packet serialised onto the wire, then died.
                    if plan.drop_uplink() {
                        return;
                    }
                }
                req.t_client_nic_out = out;
                match self.remote_dst(req.client, req.conn) {
                    Some(dst) => {
                        // The packet leaves for a foreign server; it
                        // arrives there after the inter-shard delay,
                        // which is also the conservative lookahead.
                        let arrive = out + self.shard_prop();
                        self.send_cross_shard(arrive, dst, ShardMsg::Request(req));
                    }
                    None => {
                        let arrive = out + self.network.propagation(ci);
                        queue.schedule(arrive, Event::ServerNicArrive(req));
                    }
                }
            }
            Event::ServerNicArrive(mut req) => {
                let down = self
                    .faults
                    .as_mut()
                    .is_some_and(|plan| plan.server_down_at(now));
                if down {
                    // A down server answers with a RST; the client
                    // sees it one propagation delay later — routed
                    // back across the shard boundary if the request
                    // came from a foreign client.
                    if self.is_foreign(&req) {
                        let back = now + self.shard_prop();
                        let home = req.home_shard;
                        self.send_cross_shard(back, home, ShardMsg::Reset(req));
                    } else {
                        let ci = req.client as usize;
                        let back = now + self.network.propagation(ci);
                        queue.schedule(back, Event::ConnReset(req));
                    }
                    return;
                }
                if let Some(plan) = &mut self.faults {
                    let backlog = self.network.ingress_backlog_bytes(now);
                    if plan.nic_overflow(backlog, req.profile.request_bytes) {
                        return;
                    }
                }
                let done = self
                    .network
                    .ingress_departure(now, req.profile.request_bytes);
                req.t_server_nic_in = done;
                let state = self.conn_state(&req);
                let core = self.server.rss_core(state.rss_queue);
                queue.schedule(
                    done,
                    Event::CoreEnqueue {
                        core,
                        job: CoreJob::Irq(req),
                    },
                );
            }
            Event::CoreEnqueue { core, job } => {
                if let Some(plan) = &mut self.faults {
                    if plan.server_down_at(now) {
                        // The crash hit between NIC and core handoff.
                        plan.add_crash_drops(1);
                        return;
                    }
                }
                self.server.cores[core].enqueue(job);
                if !self.server.cores[core].is_busy() {
                    self.dispatch_core(core, now, queue);
                }
            }
            Event::CoreJobDone { core, start, job } => {
                self.server.cores[core].finish_job(start, now.duration_since(start));
                // A job that started before the latest crash was wiped
                // with the server's memory; its result is lost even
                // though the core's busy window is accounted.
                let crashed = self
                    .faults
                    .as_ref()
                    .is_some_and(|plan| start < plan.last_crash_at());
                if crashed {
                    if matches!(job, CoreJob::Irq(_) | CoreJob::Work(_)) {
                        self.faults
                            .as_mut()
                            .expect("crash flag implies plan")
                            .add_crash_drops(1);
                    }
                    self.dispatch_core(core, now, queue);
                    return;
                }
                match job {
                    CoreJob::Irq(mut req) => {
                        req.t_irq_done = now;
                        let state = self.conn_state(&req);
                        let core = self
                            .server
                            .balanced_worker_core(usize::from(state.worker_core));
                        queue.schedule(
                            now,
                            Event::CoreEnqueue {
                                core,
                                job: CoreJob::Work(req),
                            },
                        );
                    }
                    CoreJob::Work(mut req) => {
                        req.t_service_start = start;
                        let out = self
                            .network
                            .egress_departure(now, req.profile.response_bytes);
                        req.t_server_nic_out = out;
                        let lost = self
                            .faults
                            .as_mut()
                            .is_some_and(FaultPlan::drop_downlink);
                        if !lost {
                            if self.is_foreign(&req) {
                                let arrive = out + self.shard_prop();
                                let home = req.home_shard;
                                self.send_cross_shard(arrive, home, ShardMsg::Response(req));
                            } else {
                                let ci = req.client as usize;
                                let arrive = out + self.network.propagation(ci);
                                queue.schedule(arrive, Event::ClientNicArrive(req));
                            }
                        }
                    }
                    CoreJob::Stall(_) => {}
                }
                self.dispatch_core(core, now, queue);
            }
            Event::ClientNicArrive(mut req) => {
                let ci = req.client as usize;
                let done = self
                    .network
                    .downlink_departure(ci, now, req.profile.response_bytes);
                req.t_client_nic_in = done;
                let user_at = done + self.clients[ci].spec.kernel_rx;
                queue.schedule(user_at, Event::ClientRxUser(req));
            }
            Event::ClientRxUser(req) => {
                let ci = req.client as usize;
                let delivered = self.clients[ci].rx_delivered_at(now);
                queue.schedule(delivered, Event::Delivered(req));
            }
            Event::Delivered(mut req) => {
                req.t_delivered = now;
                let ci = req.client as usize;
                if self.policy.is_some() && self.clients[ci].in_flight.remove(&req.id).is_none() {
                    // A hedge lost the race, or the response arrived
                    // after the tester gave up — either way the logical
                    // request is already settled.
                    return;
                }
                self.outstanding -= 1;
                let window = self.sending_window();
                self.clients[ci].push_record(ResponseRecord::from_request(&req), window);
                let next = {
                    let c = &mut self.clients[ci];
                    c.source.on_response(req.conn, now, &mut c.rng)
                };
                if let Some(order) = next {
                    self.maybe_schedule_send(req.client, order, queue);
                }
            }
            Event::GovernorTick => {
                let stalled = self.server.governor_tick(now);
                for core in stalled {
                    if !self.server.cores[core].is_busy() {
                        self.dispatch_core(core, now, queue);
                    }
                }
                let next = now + self.server.spec().governor_period;
                if next <= self.stop_sending_at {
                    queue.schedule(next, Event::GovernorTick);
                }
            }
            Event::ThermalTick => {
                self.server.thermal_tick(now);
                let next = now + self.server.spec().thermal_period;
                if next <= self.stop_sending_at {
                    queue.schedule(next, Event::ThermalTick);
                }
            }
            Event::RequestTimeout { client, id, attempt } => {
                let ci = client as usize;
                let Some(entry) = self.clients[ci].in_flight.get(&id) else {
                    return; // completed before the timer fired
                };
                if entry.attempt != attempt {
                    return; // a later attempt re-armed the timer
                }
                self.clients[ci].timeouts += 1;
                self.fail_or_retry(client, id, FailureKind::TimedOut, now, queue);
            }
            Event::RetryFire { client, id } => {
                let ci = client as usize;
                let Some(entry) = self.clients[ci].in_flight.get(&id).copied() else {
                    return; // a late response settled it during backoff
                };
                let policy = self.policy.expect("retry without a policy");
                let req = self.resend_packet(client, id, entry);
                self.clients[ci].retries_sent += 1;
                let tx_at = self.clients[ci].tx_ready_at(now);
                queue.schedule(tx_at, Event::ClientTxNic(req));
                if policy.timeout_us > 0.0 {
                    queue.schedule(
                        now + policy.timeout(),
                        Event::RequestTimeout { client, id, attempt: entry.attempt },
                    );
                }
            }
            Event::HedgeFire { client, id } => {
                let ci = client as usize;
                let Some(entry) = self.clients[ci].in_flight.get_mut(&id) else {
                    return; // already answered
                };
                if entry.hedged {
                    return;
                }
                entry.hedged = true;
                let entry = *entry;
                let req = self.resend_packet(client, id, entry);
                self.clients[ci].hedges_sent += 1;
                let tx_at = self.clients[ci].tx_ready_at(now);
                queue.schedule(tx_at, Event::ClientTxNic(req));
            }
            Event::FaultStall => {
                let cores = self.server.cores.len();
                let plan = self.faults.as_mut().expect("stall without a plan");
                let (core, stall) = plan.draw_stall(cores);
                let gap = plan.draw_stall_gap();
                self.server.cores[core].enqueue_front(CoreJob::Stall(stall));
                if !self.server.cores[core].is_busy() {
                    self.dispatch_core(core, now, queue);
                }
                let next = now + gap;
                if next <= self.stop_sending_at {
                    queue.schedule(next, Event::FaultStall);
                }
            }
            Event::ServerCrash => {
                let mut dropped = 0u64;
                for core in &mut self.server.cores {
                    dropped += core.clear_queue() as u64;
                }
                let plan = self.faults.as_mut().expect("crash without a plan");
                plan.note_crash(now);
                plan.add_crash_drops(dropped);
            }
            Event::ConnReset(req) => {
                let client = req.client;
                let ci = client as usize;
                if self.policy.is_some() {
                    let Some(entry) = self.clients[ci].in_flight.get(&req.id) else {
                        return; // a hedge already succeeded
                    };
                    if entry.attempt != req.attempt {
                        return; // reset of a superseded attempt
                    }
                    self.clients[ci].resets += 1;
                    self.fail_or_retry(client, req.id, FailureKind::ConnectionReset, now, queue);
                } else {
                    // No retry policy: surface the failure immediately
                    // so closed-loop sources keep flowing.
                    self.clients[ci].resets += 1;
                    self.outstanding -= 1;
                    self.clients[ci].failures.push(FailureRecord {
                        id: req.id,
                        client,
                        conn: req.conn,
                        t_generated: req.t_generated,
                        t_failed: now,
                        attempts: req.attempt + 1,
                        kind: FailureKind::ConnectionReset,
                    });
                    let next = {
                        let c = &mut self.clients[ci];
                        c.source.on_response(req.conn, now, &mut c.rng)
                    };
                    if let Some(order) = next {
                        self.maybe_schedule_send(client, order, queue);
                    }
                }
            }
        }
    }
}

/// Builds and runs cluster simulations.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use treadmill_cluster::{ClusterBuilder, ClientSpec, PoissonSource};
/// use treadmill_sim_core::SimDuration;
/// use treadmill_workloads::Memcached;
///
/// let result = ClusterBuilder::new(Arc::new(Memcached::default()))
///     .seed(42)
///     .client(ClientSpec::default(), Box::new(PoissonSource::new(50_000.0, 16)))
///     .duration(SimDuration::from_millis(50))
///     .run();
/// assert!(result.total_responses() > 1_000);
/// ```
#[derive(Debug)]
pub struct ClusterBuilder {
    workload: Arc<dyn Workload>,
    hardware: HardwareConfig,
    server_spec: ServerSpec,
    clients: Vec<(ClientSpec, Box<dyn TrafficSource>)>,
    seed: u64,
    duration: SimDuration,
    sample_outstanding: bool,
    trace_frequencies: bool,
    fault_spec: FaultSpec,
    retry_policy: RetryPolicy,
    shard: Option<(u32, u32, u32)>,
}

impl ClusterBuilder {
    /// Starts a builder for the given workload with default hardware
    /// (all factors low), specs, a 100 ms sending window, and seed 0.
    pub fn new(workload: Arc<dyn Workload>) -> Self {
        ClusterBuilder {
            workload,
            hardware: HardwareConfig::default(),
            server_spec: ServerSpec::default(),
            clients: Vec::new(),
            seed: 0,
            duration: SimDuration::from_millis(100),
            sample_outstanding: false,
            trace_frequencies: false,
            fault_spec: FaultSpec::default(),
            retry_policy: RetryPolicy::default(),
            shard: None,
        }
    }

    /// Sets the hardware factor configuration (Table III).
    pub fn hardware(mut self, hardware: HardwareConfig) -> Self {
        self.hardware = hardware;
        self
    }

    /// Overrides the server specification.
    pub fn server_spec(mut self, spec: ServerSpec) -> Self {
        self.server_spec = spec;
        self
    }

    /// Adds a client machine hosting the given traffic source.
    pub fn client(mut self, spec: ClientSpec, source: Box<dyn TrafficSource>) -> Self {
        self.clients.push((spec, source));
        self
    }

    /// Sets the master seed. Every stochastic component derives its own
    /// stream from this.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets how long clients keep sending (the run then drains).
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Enables sampling of the in-flight request count at every send
    /// (Figure 1's probe).
    pub fn sample_outstanding(mut self, on: bool) -> Self {
        self.sample_outstanding = on;
        self
    }

    /// Enables recording of every DVFS frequency transition.
    pub fn trace_frequencies(mut self, on: bool) -> Self {
        self.trace_frequencies = on;
        self
    }

    /// Configures fault injection. The default (all-zero) spec leaves
    /// the run bit-identical to a fault-free build.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.fault_spec = spec;
        self
    }

    /// Configures client-side timeouts / retries / hedging. The default
    /// policy is disabled and changes nothing.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = policy;
        self
    }

    /// Marks this world as shard `index` of `n_shards` in a
    /// [`crate::ShardedCluster`], with every `remote_every`-th
    /// connection targeting a foreign server (0 keeps all traffic
    /// local). A `(0, 1, _)` context changes nothing observable: with
    /// one shard no connection is ever remote, so the event and RNG
    /// sequences match the unsharded build bit for bit.
    pub fn shard(mut self, index: u32, n_shards: u32, remote_every: u32) -> Self {
        self.shard = Some((index, n_shards, remote_every));
        self
    }

    /// Builds the engine with all initial events scheduled.
    ///
    /// # Panics
    ///
    /// Panics if no clients were added.
    pub fn build(self) -> Engine<ClusterWorld> {
        assert!(!self.clients.is_empty(), "cluster needs at least one client");
        let seeds = SeedStream::new(self.seed);
        let conn_counts: Vec<u32> =
            self.clients.iter().map(|(spec, _)| spec.connections).collect();
        let mut hysteresis_rng = seeds.stream("hysteresis", 0);
        let run_state = RunState::generate(
            &self.server_spec,
            self.hardware,
            &conn_counts,
            &mut hysteresis_rng,
        );
        let clients: Vec<ClientMachine> = self
            .clients
            .into_iter()
            .enumerate()
            .map(|(i, (spec, source))| {
                ClientMachine::new(spec, source, seeds.stream("client", i as u64))
            })
            .collect();
        let racks: Vec<u8> = clients.iter().map(|c| c.spec.rack).collect();
        let stop_sending_at = SimTime::ZERO + self.duration;
        let mut server = Server::new(self.server_spec, self.hardware);
        if self.trace_frequencies {
            server.enable_frequency_trace();
        }
        let governor_period = server.spec().governor_period;
        let thermal_period = server.spec().thermal_period;
        let faults = self.fault_spec.is_active().then(|| {
            FaultPlan::generate(self.fault_spec, self.duration, seeds.stream("faults", 0))
        });
        let policy = self.retry_policy.enabled().then_some(self.retry_policy);
        let crash_starts = faults.as_ref().map(FaultPlan::crash_starts).unwrap_or_default();
        let first_stall = faults.as_ref().and_then(FaultPlan::first_stall);
        let world = ClusterWorld {
            workload: self.workload,
            server,
            network: Network::new(NetworkSpec::default(), &racks),
            clients,
            run_state,
            stop_sending_at,
            next_id: 0,
            outstanding: 0,
            outstanding_samples: Vec::new(),
            sample_outstanding: self.sample_outstanding,
            faults,
            policy,
            shard: self.shard.map(|(index, n_shards, remote_every)| {
                ShardCtx::new(index, n_shards, remote_every, crate::shard::INTER_SHARD_PROPAGATION)
            }),
        };
        // Steady state keeps roughly one in-flight event per open
        // connection plus per-core completions and the periodic ticks;
        // 4x covers bursts so the hot schedule path never reallocates.
        let total_connections: usize = conn_counts.iter().map(|&c| c as usize).sum();
        let queue_capacity = total_connections * 4 + 64;
        let mut engine = Engine::with_queue_capacity(world, queue_capacity);
        let starts = engine.world_mut().collect_start_orders(SimTime::ZERO);
        for (client, order) in starts {
            if order.at <= stop_sending_at {
                engine.schedule(
                    order.at,
                    Event::SendFire {
                        client,
                        conn: order.conn,
                    },
                );
            }
        }
        engine.schedule(SimTime::ZERO + governor_period, Event::GovernorTick);
        engine.schedule(SimTime::ZERO + thermal_period, Event::ThermalTick);
        for at in crash_starts {
            engine.schedule(at, Event::ServerCrash);
        }
        if let Some(at) = first_stall {
            engine.schedule(at, Event::FaultStall);
        }
        engine
    }

    /// Builds, runs to completion (sending window + drain), and extracts
    /// the results.
    pub fn run(self) -> RunResult {
        let mut engine = self.build();
        engine.run_to_completion();
        extract_result(engine)
    }
}

/// Deterministic placement for a foreign request: the destination
/// server holds hysteresis state only for its own shard's connections,
/// so a remote connection's worker core and RSS queue are hashed from
/// its `(shard, client, conn)` identity. Pure function of the
/// connection — identical at every thread count, every round, every
/// resume.
fn remote_conn_state(
    home: u32,
    client: u32,
    conn: u32,
    spec: &ServerSpec,
) -> crate::hysteresis::ConnectionState {
    let h = treadmill_sim_core::splitmix64(
        (u64::from(home) << 40) ^ (u64::from(client) << 20) ^ u64::from(conn),
    );
    let total_cores = u64::from(spec.sockets) * u64::from(spec.cores_per_socket);
    let rss = u64::from(spec.rss_queues);
    // Both moduli are bounded by u8 hardware spec fields.
    #[allow(clippy::cast_possible_truncation)]
    let worker = (h % total_cores) as u8;
    #[allow(clippy::cast_possible_truncation)]
    let hashed_rss = ((h >> 24) % rss) as u8;
    crate::hysteresis::ConnectionState {
        worker_core: worker,
        rss_queue: hashed_rss,
        buffer_remote: false,
    }
}

/// Extracts a [`RunResult`] from a finished (or checkpoint-resumed and
/// then finished) engine. [`ClusterBuilder::run`] is exactly
/// `build()` + `run_to_completion()` + this, so a stepped run that
/// drains the queue and calls this produces a bit-identical result.
///
/// A final invariant audit runs before extraction; any findings land in
/// [`RunResult::audit_findings`].
pub fn extract_result(engine: Engine<ClusterWorld>) -> RunResult {
    let audit_findings = crate::audit::audit_invariants(&engine, usize::MAX);
    let completed_at = engine.now();
    let events_executed = engine.events_executed();
    let world = engine.into_world();
    let sending_stopped_at = world.stop_sending_at;
    let per_core = world
        .server
        .cores
        .iter()
        .map(|c| CoreStats {
            core: c.id,
            socket: c.socket,
            utilization: c.util.utilization(sending_stopped_at),
            final_freq_ghz: c.freq_ghz(),
            jobs_done: c.jobs_done(),
            transitions: c.transitions(),
        })
        .collect();
    let server_utilization = world.server.mean_utilization(sending_stopped_at);
    let frequency_transitions = world.server.total_transitions();
    let final_heat = world.server.thermal().heat();
    let run_remote_fraction = world.run_state.remote_fraction();
    let client_cpu_utilization = world
        .clients
        .iter()
        .map(|c| c.cpu_utilization(sending_stopped_at))
        .collect();
    let frequency_trace = world
        .server
        .frequency_trace()
        .map(<[crate::server::FrequencyEvent]>::to_vec)
        .unwrap_or_default();
    let mut fault_summary = world
        .faults
        .as_ref()
        .map(FaultPlan::summary_base)
        .unwrap_or_default();
    let mut client_records: Vec<Vec<ResponseRecord>> =
        Vec::with_capacity(world.clients.len());
    let mut client_failures = Vec::with_capacity(world.clients.len());
    for c in world.clients {
        fault_summary.retries += c.retries_sent;
        fault_summary.hedges += c.hedges_sent;
        fault_summary.timeouts += c.timeouts;
        fault_summary.resets += c.resets;
        fault_summary.failed_requests += c.failures.len() as u64;
        client_records.push(c.records);
        client_failures.push(c.failures);
    }
    let delivered_in_window = client_records
        .iter()
        .flatten()
        .filter(|r| r.t_delivered <= sending_stopped_at)
        .count();
    RunResult {
        per_core,
        server_utilization,
        frequency_transitions,
        final_heat,
        run_remote_fraction,
        client_cpu_utilization,
        frequency_trace,
        client_records,
        client_failures,
        fault_summary,
        delivered_in_window,
        outstanding: world.outstanding_samples,
        sending_stopped_at,
        completed_at,
        events_executed,
        audit_findings,
    }
}

/// Everything a finished run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Completed-request records, per client, in delivery order.
    pub client_records: Vec<Vec<ResponseRecord>>,
    /// Abandoned-request records (timeouts / resets), per client.
    /// Empty when no faults were configured.
    pub client_failures: Vec<Vec<FailureRecord>>,
    /// Fault-injection and robustness counters (all zero for a
    /// fault-free run).
    pub fault_summary: FaultSummary,
    /// Responses delivered no later than `sending_stopped_at` —
    /// precomputed so completion-ratio checks don't re-walk every record.
    pub delivered_in_window: usize,
    /// `(time, in-flight count)` samples taken at each send, if enabled.
    pub outstanding: Vec<(SimTime, u32)>,
    /// When clients stopped sending.
    pub sending_stopped_at: SimTime,
    /// When the last event executed (the drain finished).
    pub completed_at: SimTime,
    /// Mean core utilisation over the sending window.
    pub server_utilization: f64,
    /// Per-client CPU utilisation over the sending window.
    pub client_cpu_utilization: Vec<f64>,
    /// Per-core diagnostics (utilisation, frequency, job counts).
    pub per_core: Vec<CoreStats>,
    /// Recorded frequency transitions (empty unless
    /// [`ClusterBuilder::trace_frequencies`] was enabled).
    pub frequency_trace: Vec<crate::server::FrequencyEvent>,
    /// Total DVFS frequency transitions.
    pub frequency_transitions: u64,
    /// Package heat at the end of the run (diagnostics).
    pub final_heat: f64,
    /// The run's realised remote-buffer fraction (hysteresis state).
    pub run_remote_fraction: f64,
    /// Total events executed.
    pub events_executed: u64,
    /// Invariant-auditor findings from the end-of-run audit (empty for
    /// a healthy run). See [`crate::audit::audit_invariants`].
    pub audit_findings: Vec<String>,
}

impl RunResult {
    /// Iterates over all clients' records.
    pub fn all_records(&self) -> impl Iterator<Item = &ResponseRecord> {
        self.client_records.iter().flatten()
    }

    /// Total responses delivered.
    pub fn total_responses(&self) -> usize {
        self.client_records.iter().map(Vec::len).sum()
    }

    /// Total logical requests the testers abandoned.
    pub fn total_failures(&self) -> usize {
        self.client_failures.iter().map(Vec::len).sum()
    }

    /// Fraction of settled logical requests that ended in failure
    /// (0.0 for a clean run).
    pub fn loss_fraction(&self) -> f64 {
        let failed = self.total_failures();
        let settled = failed + self.total_responses();
        if settled == 0 {
            return 0.0;
        }
        failed as f64 / settled as f64
    }

    /// User-space latencies (µs) of records generated at or after
    /// `warmup` — the load tester's view with warm-up discarded.
    pub fn user_latencies_us(&self, warmup: SimTime) -> Vec<f64> {
        self.all_records()
            .filter(|r| r.t_generated >= warmup)
            .map(ResponseRecord::user_latency_us)
            .collect()
    }

    /// Fraction of measurement-window requests whose user-space latency
    /// met `deadline` — the operator-facing SLA attainment view of the
    /// same tail the paper studies.
    ///
    /// # Panics
    ///
    /// Panics if no requests were generated at or after `warmup`.
    pub fn sla_attainment(&self, warmup: SimTime, deadline: SimDuration) -> f64 {
        let deadline_us = deadline.as_micros_f64();
        let mut total = 0usize;
        let mut within = 0usize;
        for record in self.all_records() {
            if record.t_generated < warmup {
                continue;
            }
            total += 1;
            if record.user_latency_us() <= deadline_us {
                within += 1;
            }
        }
        assert!(total > 0, "no measurement-window requests");
        within as f64 / total as f64
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::PoissonSource;
    use rand::RngCore;
    use treadmill_stats::quantile::quantile;
    use treadmill_workloads::Memcached;

    fn quick_run(rate: f64, seed: u64) -> RunResult {
        ClusterBuilder::new(Arc::new(Memcached::default()))
            .seed(seed)
            .client(
                ClientSpec::default(),
                Box::new(PoissonSource::new(rate, 16)),
            )
            .duration(SimDuration::from_millis(60))
            .run()
    }

    #[test]
    fn requests_complete_and_latency_is_sane() {
        let result = quick_run(100_000.0, 1);
        // ~6000 requests in 60ms at 100k RPS.
        assert!(result.total_responses() > 5_000, "{}", result.total_responses());
        assert!(result.total_responses() < 7_000);
        let latencies = result.user_latencies_us(SimTime::from_millis(10));
        let p50 = quantile(&latencies, 0.5);
        // Floor: ~29us client + ~10us network + ~16us+ server.
        assert!(p50 > 40.0, "p50 {p50}us implausibly low");
        assert!(p50 < 300.0, "p50 {p50}us implausibly high at 10% util");
    }

    #[test]
    fn user_latency_exceeds_nic_latency_by_fixed_kernel_cost() {
        let result = quick_run(50_000.0, 2);
        let warmup = SimTime::from_millis(10);
        let user = result.user_latencies_us(warmup);
        let nic: Vec<f64> = result
            .all_records()
            .filter(|r| r.t_generated >= warmup)
            .map(ResponseRecord::nic_latency_us)
            .collect();
        let gap = quantile(&user, 0.5) - quantile(&nic, 0.5);
        // kernel_tx 12us + kernel_rx 16us + 2 cpu ops ~1.6us ≈ 29.6us.
        assert!(gap > 20.0 && gap < 40.0, "gap {gap}us");
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let low = quick_run(100_000.0, 3);
        let high = quick_run(700_000.0, 3);
        assert!(
            low.server_utilization < 0.25,
            "low-load util {}",
            low.server_utilization
        );
        assert!(
            high.server_utilization > 0.5,
            "high-load util {}",
            high.server_utilization
        );
        assert!(high.server_utilization < 0.98);
    }

    #[test]
    fn tail_grows_with_load() {
        let warmup = SimTime::from_millis(10);
        let low = quick_run(100_000.0, 4);
        let high = quick_run(700_000.0, 4);
        let p99_low = quantile(&low.user_latencies_us(warmup), 0.99);
        let p99_high = quantile(&high.user_latencies_us(warmup), 0.99);
        assert!(
            p99_high > p99_low * 1.5,
            "queueing should inflate the tail: {p99_low} → {p99_high}"
        );
    }

    #[test]
    fn identical_seeds_reproduce_exactly() {
        let a = quick_run(200_000.0, 7);
        let b = quick_run(200_000.0, 7);
        assert_eq!(a.total_responses(), b.total_responses());
        assert_eq!(a.events_executed, b.events_executed);
        let la = a.user_latencies_us(SimTime::ZERO);
        let lb = b.user_latencies_us(SimTime::ZERO);
        assert_eq!(la, lb);
    }

    #[test]
    fn different_seeds_exhibit_hysteresis() {
        let warmup = SimTime::from_millis(10);
        let p99s: Vec<f64> = (0..4)
            .map(|s| quantile(&quick_run(600_000.0, 100 + s).user_latencies_us(warmup), 0.99))
            .collect();
        let min = p99s.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = p99s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max / min > 1.02,
            "expected run-to-run variation, got {p99s:?}"
        );
    }

    #[test]
    fn frequency_trace_records_governor_activity() {
        let result = ClusterBuilder::new(Arc::new(Memcached::default()))
            .seed(13)
            .client(
                ClientSpec::default(),
                Box::new(PoissonSource::new(100_000.0, 16)),
            )
            .duration(SimDuration::from_millis(60))
            .trace_frequencies(true)
            .run();
        // Ondemand at low load: idle-ish cores get down-clocked at the
        // first ticks; transitions must be recorded in time order.
        assert!(!result.frequency_trace.is_empty());
        for pair in result.frequency_trace.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        assert!(result
            .frequency_trace
            .iter()
            .all(|e| e.ghz >= 1.2 && e.ghz <= 3.0));
    }

    #[test]
    fn sla_attainment_brackets_the_quantiles() {
        let result = quick_run(400_000.0, 11);
        let warmup = SimTime::from_millis(10);
        let lat = result.user_latencies_us(warmup);
        let p99 = quantile(&lat, 0.99);
        let at_p99 = result.sla_attainment(warmup, SimDuration::from_micros(p99 as u64 + 1));
        assert!((at_p99 - 0.99).abs() < 0.01, "attainment at p99 = {at_p99}");
        assert_eq!(
            result.sla_attainment(warmup, SimDuration::from_millis(10_000)),
            1.0,
            "everything meets a 10s deadline"
        );
    }

    #[test]
    fn per_core_stats_reflect_nic_policy() {
        // With same-node affinity all interrupts land on socket 0, so
        // socket-0 cores do measurably more jobs.
        let result = quick_run(400_000.0, 9);
        assert_eq!(result.per_core.len(), 16);
        let socket_jobs = |socket: u8| -> u64 {
            result
                .per_core
                .iter()
                .filter(|c| c.socket == socket)
                .map(|c| c.jobs_done)
                .sum()
        };
        assert!(
            socket_jobs(0) > socket_jobs(1),
            "socket 0 handles all IRQs under same-node affinity"
        );
        assert!(result.per_core.iter().all(|c| c.final_freq_ghz >= 1.2));
    }

    #[test]
    fn outstanding_samples_collected_when_enabled() {
        let result = ClusterBuilder::new(Arc::new(Memcached::default()))
            .seed(5)
            .client(
                ClientSpec::default(),
                Box::new(PoissonSource::new(100_000.0, 16)),
            )
            .duration(SimDuration::from_millis(20))
            .sample_outstanding(true)
            .run();
        assert!(!result.outstanding.is_empty());
        assert!(result.outstanding.iter().all(|&(_, n)| n >= 1));
    }

    #[test]
    fn open_loop_record_buffer_grows_at_most_once() {
        let mut engine = ClusterBuilder::new(Arc::new(Memcached::default()))
            .seed(8)
            .client(
                ClientSpec::default(),
                Box::new(PoissonSource::new(60_000.0, 8)),
            )
            .client(
                ClientSpec::default(),
                Box::new(PoissonSource::new(90_000.0, 8)),
            )
            .duration(SimDuration::from_millis(40))
            .build();
        let mut capacity = vec![0; 2];
        let mut growths = vec![0; 2];
        while engine.run_events(1) > 0 {
            for (i, client) in engine.world().clients.iter().enumerate() {
                if client.records.capacity() != capacity[i] {
                    capacity[i] = client.records.capacity();
                    growths[i] += 1;
                }
            }
        }
        let records: Vec<usize> = engine
            .world()
            .clients
            .iter()
            .map(|c| c.records.len())
            .collect();
        assert!(records.iter().all(|&n| n > 2_000), "{records:?}");
        assert_eq!(
            growths,
            vec![1, 1],
            "capacities {capacity:?} for {records:?} records"
        );
    }

    #[test]
    fn multi_client_records_split_per_client() {
        let result = ClusterBuilder::new(Arc::new(Memcached::default()))
            .seed(6)
            .client(
                ClientSpec::default(),
                Box::new(PoissonSource::new(50_000.0, 8)),
            )
            .client(
                ClientSpec {
                    rack: 1,
                    ..Default::default()
                },
                Box::new(PoissonSource::new(50_000.0, 8)),
            )
            .duration(SimDuration::from_millis(40))
            .run();
        assert_eq!(result.client_records.len(), 2);
        assert!(result.client_records[0].len() > 1_000);
        assert!(result.client_records[1].len() > 1_000);
        // The cross-rack client sees strictly higher median latency.
        let m0 = quantile(
            &result.client_records[0]
                .iter()
                .map(ResponseRecord::user_latency_us)
                .collect::<Vec<_>>(),
            0.5,
        );
        let m1 = quantile(
            &result.client_records[1]
                .iter()
                .map(ResponseRecord::user_latency_us)
                .collect::<Vec<_>>(),
            0.5,
        );
        assert!(m1 > m0 + 30.0, "cross-rack median {m1} vs same-rack {m0}");
    }

    /// A minimal closed-loop source for capping tests: each connection
    /// resends immediately upon response.
    #[derive(Debug)]
    struct TestClosedSource {
        connections: u32,
    }

    impl TrafficSource for TestClosedSource {
        fn start(&mut self, now: SimTime, _rng: &mut dyn RngCore) -> Vec<SendOrder> {
            (0..self.connections)
                .map(|conn| SendOrder { at: now, conn })
                .collect()
        }
        fn on_sent(&mut self, _now: SimTime, _rng: &mut dyn RngCore) -> Option<SendOrder> {
            None
        }
        fn on_response(
            &mut self,
            conn: u32,
            now: SimTime,
            _rng: &mut dyn RngCore,
        ) -> Option<SendOrder> {
            Some(SendOrder { at: now, conn })
        }
    }

    #[test]
    fn closed_loop_caps_outstanding_requests() {
        let result = ClusterBuilder::new(Arc::new(Memcached::default()))
            .seed(8)
            .client(
                ClientSpec {
                    connections: 8,
                    ..Default::default()
                },
                Box::new(TestClosedSource { connections: 8 }),
            )
            .duration(SimDuration::from_millis(30))
            .sample_outstanding(true)
            .run();
        let max_outstanding = result.outstanding.iter().map(|&(_, n)| n).max().unwrap();
        assert!(max_outstanding <= 8, "closed loop exceeded cap: {max_outstanding}");
        assert!(result.total_responses() > 100);
    }

    #[test]
    #[should_panic(expected = "declares only")]
    fn source_with_too_many_connections_rejected() {
        let _ = ClusterBuilder::new(Arc::new(Memcached::default()))
            .seed(1)
            .client(
                ClientSpec {
                    connections: 4,
                    ..Default::default()
                },
                Box::new(PoissonSource::new(50_000.0, 8)),
            )
            .duration(SimDuration::from_millis(5))
            .run();
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_cluster_rejected() {
        let _ = ClusterBuilder::new(Arc::new(Memcached::default())).build();
    }
}
