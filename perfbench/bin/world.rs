//! `sharded_world`: a 100-server × 8-client × 1,250-connection world
//! (one million connections) with every fourth connection crossing
//! shards, built from a `LoadTestConfig` and run through
//! `ResumableRun::new` → `step` → `finish` without checkpoints.

use std::sync::Arc;
use std::time::Instant;

use treadmill_cluster::{
    merge_results, ClientSpec, ClusterBuilder, HardwareConfig, RunResult, ShardedCluster,
};
use treadmill_core::{InterArrival, LoadTestConfig, LoadTestReport, OpenLoopSource, ResumableRun};
use treadmill_sim_core::{SeedStream, SimDuration};

use crate::layers::{self, CpuMeter, Outcome, Sample};
use crate::probe::{self, Digest};
use crate::trace::Tracer;
use crate::Args;

struct Scale {
    servers: u32,
    clients: usize,
    connections: u32,
    rps: f64,
    duration_ms: u64,
}

const FULL: Scale = Scale {
    servers: 100,
    clients: 8,
    connections: 1_250,
    rps: 40_000.0,
    duration_ms: 300,
};

const TINY: Scale = Scale {
    servers: 4,
    clients: 2,
    connections: 50,
    rps: 20_000.0,
    duration_ms: 20,
};

const REMOTE_EVERY: u32 = 4;

/// Worker threads of the timed world. The sharded executor meets at a
/// barrier twice per synchronisation round, about 12,000 rounds a run,
/// so with two threads any time the host takes a vCPU away is paid at
/// every round: at 23% steal the two-thread world ran twice as slow,
/// which no bound can absorb. One thread keeps shard synchronisation
/// and cross-shard messages on the measured path; the traced run
/// compares one thread with `nproc`.
const TIMED_THREADS: usize = 1;

/// World start-ups measured per iteration for `setup_s`.
const SETUP_PROBES: usize = 2;

fn config(seed: u64, scale: &Scale, threads: usize) -> Result<LoadTestConfig, String> {
    LoadTestConfig::from_json(&format!(
        r#"{{"workload": {{"workload": "memcached"}}, "target_rps": {rps},
            "clients": {clients}, "connections_per_client": {conns},
            "duration_ms": {dur}, "warmup_ms": {warm}, "seed": {seed},
            "servers": {servers}, "threads": {threads}, "remote_every": {REMOTE_EVERY}}}"#,
        rps = scale.rps,
        clients = scale.clients,
        conns = scale.connections,
        dur = scale.duration_ms,
        warm = scale.duration_ms / 4,
        servers = scale.servers,
    ))
    .map_err(|e| format!("world config: {e}"))
}

/// Events, responses and every user latency of a finished world — the
/// quantities the determinism contract says no thread count may change.
fn digest(events: u64, result: &RunResult) -> Digest {
    let mut d = Digest::default();
    d.u64(events);
    d.u64(result.total_responses() as u64);
    for record in result.all_records() {
        d.f64(record.user_latency_us());
    }
    d
}

/// Config in to the first simulated round: parses and builds the
/// config, builds the world, and executes one synchronisation round.
/// Returns the run, the events that round executed, and the seconds
/// it all took.
fn start(
    seed: u64,
    scale: &Scale,
    threads: usize,
    tr: &mut Tracer,
) -> Result<(ResumableRun, u64, f64), String> {
    let begin = Instant::now();
    let test = config(seed, scale, threads)?
        .build()
        .map_err(|e| format!("world config: {e}"))?;
    let mut run = tr.span("world.build", 0, || ResumableRun::new(test, 0));
    let executed = tr.span("sim.step", 0, || run.step(1));
    Ok((run, executed, begin.elapsed().as_secs_f64()))
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let scale = if args.tiny { &TINY } else { &FULL };
    let parallel = probe::nproc().min(scale.servers as usize);
    let threads = TIMED_THREADS;
    let mut out = Outcome::default();
    out.info("threads.world", threads);
    out.info(
        "connections",
        u64::from(scale.servers) * scale.clients as u64 * u64::from(scale.connections),
    );
    // Only the latest report is kept, so that peak RSS is one world's.
    let mut last: Option<(LoadTestReport, u64)> = None;
    let mut first_digest: Option<Digest> = None;

    let setup = || Ok(start(args.seed, scale, threads, &mut Tracer::new(false))?.2);
    let timed = layers::timed_loop(args, tr, SETUP_PROBES, setup, |tr| {
        last = None;
        let meter = CpuMeter::start();
        let (mut run, mut executed, _) = start(args.seed, scale, threads, tr)?;
        while executed > 0 {
            executed = tr.span("sim.step", 0, || run.step(u64::MAX));
        }
        let events = run.events_executed();
        let report = tr.span("report.finish", 0, || run.finish());
        let (result_s, cpu_util) = meter.stop();
        out.check(
            events > 0 && report.run.total_responses() > 0,
            "the world delivered no responses",
        );
        out.check(
            report.run.audit_findings.is_empty(),
            format_args!("auditor: {:?}", report.run.audit_findings),
        );
        let d = digest(events, &report.run);
        let first = *first_digest.get_or_insert(d);
        out.check(first == d, "output digest changed between iterations");
        last = Some((report, events));
        Ok(Sample { result_s, cpu_util })
    })?;
    let ((report, events), d) = last.zip(first_digest).ok_or("no iteration ran")?;
    let responses = report.run.total_responses() as u64;
    out.info("output_digest", d.hex());
    out.info("sim.events", events);
    out.info("sim.responses", responses);

    if args.trace {
        let traced = timed.traced.len().max(1) as f64;
        let step_s = tr.total_s("sim.step") / traced;
        out.layer(
            "world.build_ms",
            probe::median(&tr.durations("world.build")) * 1e3,
        );
        out.layer("sim.step_s", step_s);
        out.layer("sim.events", events as f64);
        out.layer("sim.responses", responses as f64);
        out.layer("sim.ns_per_event", step_s * 1e9 / events.max(1) as f64);
        out.layer(
            "report.finish_ms",
            tr.total_s("report.finish") * 1e3 / traced,
        );
        out.layer("report.records", report.run.all_records().count() as f64);
        let test = config(args.seed, scale, threads)?
            .build()
            .map_err(|e| format!("world config: {e}"))?;
        layers::check_report_layers(&test, &report, 0, tr, &mut out);
        for (name, span) in [
            ("instance.summarise_ms", "instance.summarise"),
            ("aggregation.ms", "aggregation"),
            ("capture.ms", "capture"),
            ("records.pool_ms", "records.pool"),
        ] {
            out.layer(name, tr.total_s(span) * 1e3);
        }
        drop(report);
        shards(args, scale, parallel, events, d, tr, &mut out)?;
    }
    out.finish(args, &timed, responses);
    Ok(out)
}

/// Builds the world's shards directly and runs them on the sharded
/// executor at one thread and at `threads`: the executor's round and
/// injection counters, its speed-up, and the determinism contract
/// (same events, responses and digest at every thread count, and the
/// same as the `ResumableRun` path).
fn shards(
    args: &Args,
    scale: &Scale,
    threads: usize,
    events: u64,
    expected: Digest,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let config = config(args.seed, scale, threads)?;
    let workload = config
        .workload
        .build()
        .map_err(|e| format!("workload: {e}"))?;
    let run_seed = SeedStream::new(config.seed).derive("run", 0);
    let per_client_rps = config.target_rps / config.clients as f64;
    let mut walls = Vec::new();
    for (cell, n_threads) in [(1u64, 1usize), (2, threads)] {
        let engines = tr.span("shard.build", cell, || {
            (0..config.servers)
                .map(|i| {
                    let seed = if i == 0 {
                        run_seed
                    } else {
                        SeedStream::new(run_seed).derive("shard", u64::from(i))
                    };
                    let mut builder = ClusterBuilder::new(Arc::clone(&workload))
                        .hardware(HardwareConfig::all_low())
                        .seed(seed)
                        .duration(SimDuration::from_millis(config.duration_ms))
                        .faults(config.faults)
                        .retry_policy(config.retry)
                        .shard(i, config.servers, config.remote_every);
                    for _ in 0..config.clients {
                        let spec = ClientSpec {
                            connections: config.connections_per_client,
                            ..ClientSpec::default()
                        };
                        let source = OpenLoopSource::new(
                            InterArrival::Exponential {
                                rate_rps: per_client_rps,
                            },
                            config.connections_per_client,
                        );
                        builder = builder.client(spec, Box::new(source));
                    }
                    builder.build()
                })
                .collect::<Vec<_>>()
        });
        let mut cluster = ShardedCluster::new(engines, n_threads);
        let start = Instant::now();
        tr.span("shard.run", cell, || cluster.run_to_completion());
        walls.push(start.elapsed().as_secs_f64());
        let (rounds, injected, shard_events) = (
            cluster.rounds(),
            cluster.injected(),
            cluster.events_executed(),
        );
        let result = merge_results(cluster.into_results());
        let d = digest(shard_events, &result);
        out.check(
            d == expected,
            format_args!(
                "{n_threads}-thread shards: {shard_events} events, digest {} vs the ResumableRun \
                 path's {events} events, digest {}",
                d.hex(),
                expected.hex()
            ),
        );
        if n_threads == threads {
            out.layer("shard.rounds", rounds as f64);
            out.layer(
                "shard.events_per_round",
                shard_events as f64 / rounds.max(1) as f64,
            );
            out.layer("shard.injected", injected as f64);
        }
    }
    out.layer("shard.speedup_vs_1", walls[0] / walls[1]);
    out.info("threads.shard_compare", format_args!("1,{threads}"));
    Ok(())
}
