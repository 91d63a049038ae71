//! What every workload shares: the result being assembled, the timed
//! loop, and the replay of one simulated run through the public
//! `ResumableRun` API with a span around each layer call.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::Path;
use std::time::{Duration, Instant};

use treadmill_cluster::PacketCapture;
use treadmill_core::aggregation::aggregate;
use treadmill_core::sweep::write_atomic;
use treadmill_core::{
    AggregationMethod, InstanceConfig, LoadTest, LoadTestReport, PhaseConfig, ResumableRun,
    SweepOptions, TreadmillInstance,
};
use treadmill_sim_core::SimTime;

use crate::probe;
use crate::trace::Tracer;
use crate::Args;

/// Per-layer metrics and their units, in report order. A workload that
/// does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("world.build_ms", "ms"),
    ("sim.step_s", "s"),
    ("sim.events", "count"),
    ("sim.responses", "count"),
    ("sim.ns_per_event", "ns"),
    ("shard.rounds", "count"),
    ("shard.events_per_round", "count"),
    ("shard.injected", "count"),
    ("shard.speedup_vs_1", "x"),
    ("report.finish_ms", "ms"),
    ("instance.summarise_ms", "ms"),
    ("aggregation.ms", "ms"),
    ("capture.ms", "ms"),
    ("report.records", "count"),
    ("collect.s", "s"),
    ("records.pool_ms", "ms"),
    ("collect.parallel_eff", "ratio"),
    ("attribute.ms", "ms"),
    ("screen.ms", "ms"),
    ("screen.cells_flagged", "count"),
    ("ckpt.count", "count"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.encode_ms", "ms"),
    ("ckpt.restore_ms", "ms"),
    ("audit.ms", "ms"),
    ("artifact.write_ms", "ms"),
    ("sweep.cell_p50_s", "s"),
    ("sweep.cell_p90_s", "s"),
    ("sweep.cpu_util", "ratio"),
    ("http.submit_ms", "ms"),
    ("http.fetch_ms", "ms"),
    ("job.queue_wait_s", "s"),
    ("http.non2xx", "count"),
    ("status_p50_ms", "ms"),
    ("status_p99_ms", "ms"),
    ("poll_lag_p99_ms", "ms"),
    ("status.polls", "count"),
    ("trace.overhead_s", "s"),
];

/// A workload's result: checks, metrics and info facts.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub info: Vec<(String, String)>,
    layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one checked operation; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    pub fn info(&mut self, key: &str, value: impl Display) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Sets a per-layer value (see [`PER_LAYER`]).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }

    /// Emits the end-to-end metrics (untraced run) or every per-layer
    /// metric (traced run). A metric that is not a finite number fails
    /// a check and reads 0.
    pub fn finish(&mut self, args: &Args, timed: &Timed, responses: u64) {
        let mut metrics: Vec<(&str, f64, &'static str)> = Vec::new();
        if args.trace {
            self.layer("sweep.cpu_util", probe::median(&timed.cpu_util));
            self.layer(
                "trace.overhead_s",
                probe::median(&timed.traced) - probe::median(&timed.plain),
            );
            for &(name, unit) in PER_LAYER {
                metrics.push((name, self.layer.get(name).copied().unwrap_or(0.0), unit));
            }
        } else {
            let result_s = probe::median(&timed.plain);
            metrics.push((
                "setup_s",
                probe::trimmed_mean(&timed.setups, SETUP_TRIM),
                "s",
            ));
            metrics.push(("time_to_result_s", result_s, "s"));
            metrics.push(("responses_per_s", responses as f64 / result_s, "1/s"));
            metrics.push(("peak_rss_mb", timed.peak_rss_mb, "MB"));
        }
        for (name, value, unit) in metrics {
            self.check(value.is_finite(), format_args!("metric {name} is {value}"));
            let value = if value.is_finite() { value } else { 0.0 };
            self.metrics.push((name.to_string(), value, unit));
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.info("failed_frac", failed_frac);
        self.info("iterations", timed.plain.len() + timed.traced.len());
        self.info("setups", timed.setups.len());
        let all: Vec<String> = timed.plain.iter().map(|s| format!("{s:.4}")).collect();
        self.info("result_s.untraced", all.join(","));
    }
}

/// Share of the fastest and of the slowest set-ups left out of
/// `setup_s`. The service's start-up has two modes, about 4 and 12 ms:
/// its acceptor sleeps 10 ms whenever it finds no connection waiting,
/// and whether it looks before or after the client's first `/readyz`
/// connection depends on thread scheduling. The fast mode's share ranges
/// from almost none to over half between runs, so a median jumps from
/// one mode to the other; a trimmed mean moves with the share, and the
/// trim drops the rare start-up that waits on the host.
const SETUP_TRIM: f64 = 0.1;

/// One iteration of a workload: config in to result out.
pub struct Sample {
    /// Time from config in to the last result out.
    pub result_s: f64,
    /// Process CPU over (wall × nproc) during `result_s`.
    pub cpu_util: f64,
}

/// The timed loop's samples. `traced` holds the iterations run with
/// spans on; in a traced run iterations alternate so that the two
/// medians give the tracing overhead.
#[derive(Debug, Default)]
pub struct Timed {
    /// Set-up times, measured before every iteration: spread over the
    /// run, so that no single moment of host contention decides them.
    pub setups: Vec<f64>,
    pub plain: Vec<f64>,
    pub traced: Vec<f64>,
    pub cpu_util: Vec<f64>,
    /// `VmHWM` after the first iteration: the workload's own peak,
    /// before later iterations can add allocator fragmentation to it.
    pub peak_rss_mb: f64,
}

/// Runs `iteration` until `args.seconds` have passed, at least once
/// (twice in a traced run, once with spans and once without), each time
/// after `setups` calls of `setup`.
pub fn timed_loop(
    args: &Args,
    tracer: &mut Tracer,
    setups: usize,
    mut setup: impl FnMut() -> Result<f64, String>,
    mut iteration: impl FnMut(&mut Tracer) -> Result<Sample, String>,
) -> Result<Timed, String> {
    let mut timed = Timed::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let min = if args.trace { 2 } else { 1 };
    let mut i = 0usize;
    while i < min || Instant::now() < deadline {
        for _ in 0..setups {
            timed.setups.push(setup()?);
        }
        tracer.set_enabled(args.trace && i.is_multiple_of(2));
        let sample = iteration(tracer)?;
        timed.cpu_util.push(sample.cpu_util);
        if tracer.enabled() {
            timed.traced.push(sample.result_s);
        } else {
            timed.plain.push(sample.result_s);
        }
        if i == 0 {
            timed.peak_rss_mb = probe::peak_rss_mb();
        }
        i += 1;
    }
    tracer.set_enabled(args.trace);
    Ok(timed)
}

/// CPU-time meter for one iteration's result window.
pub struct CpuMeter {
    wall: Instant,
    cpu: f64,
}

impl CpuMeter {
    pub fn start() -> Self {
        CpuMeter {
            wall: Instant::now(),
            cpu: probe::cpu_seconds(),
        }
    }

    /// Wall seconds since start, and CPU ÷ (wall × nproc).
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = probe::cpu_seconds() - self.cpu;
        (wall, cpu / (wall * probe::nproc() as f64))
    }
}

/// Checkpointing for a replay: events between checkpoints and the file
/// each checkpoint is written to.
pub struct Checkpointing<'a> {
    pub every: u64,
    pub file: &'a Path,
}

/// Counts gathered by replays.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    pub events: u64,
    pub responses: u64,
    pub records: u64,
    pub ckpts: u64,
    pub ckpt_bytes: u64,
}

impl ReplayCounts {
    pub fn add(&mut self, other: ReplayCounts) {
        self.events += other.events;
        self.responses += other.responses;
        self.records += other.records;
        self.ckpts += other.ckpts;
        self.ckpt_bytes += other.ckpt_bytes;
    }
}

/// Replays run `run_index` of `test` the way the sweep executor runs a
/// cell — `new`, `step`, and with `ckpt` set `checkpoint_into`,
/// `write_atomic`, `audit` after every step and one `resume` from the
/// first checkpoint — then `finish`, and recomputes the report's
/// per-instance summaries, aggregate and capture through their public
/// functions, checking each against the report.
pub fn replay(
    test: &LoadTest,
    run_index: u64,
    cell: u64,
    ckpt: Option<&Checkpointing<'_>>,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (LoadTestReport, ReplayCounts) {
    let mut counts = ReplayCounts::default();
    let experiment = tr.enter("experiment", cell);
    let mut run = tr.span("world.build", cell, || {
        ResumableRun::new(test.clone(), run_index)
    });
    let budget = ckpt.map_or(u64::MAX, |c| c.every);
    let max_pending = SweepOptions::default().max_pending;
    let mut buf = Vec::new();
    let mut resumed = false;
    while tr.span("sim.step", cell, || run.step(budget)) > 0 {
        let Some(ckpt) = ckpt else { continue };
        if run.is_finished() {
            break;
        }
        tr.span("ckpt.encode", cell, || run.checkpoint_into(&mut buf));
        let written = tr.span("artifact.write", cell, || write_atomic(ckpt.file, &buf));
        out.check(
            written.is_ok(),
            format_args!("cell {cell}: checkpoint write {written:?}"),
        );
        let findings = tr.span("audit", cell, || run.audit(max_pending));
        out.check(
            findings.is_empty(),
            format_args!("cell {cell}: auditor {findings:?}"),
        );
        counts.ckpts += 1;
        counts.ckpt_bytes += buf.len() as u64;
        if !resumed {
            resumed = true;
            let restored = tr.span("ckpt.restore", cell, || {
                ResumableRun::resume(test.clone(), run_index, &buf)
            });
            match restored {
                Ok(restored) => {
                    out.check(
                        restored.events_executed() == run.events_executed(),
                        format_args!("cell {cell}: resume lost events"),
                    );
                    run = restored;
                }
                Err(e) => out.check(false, format_args!("cell {cell}: resume failed: {e}")),
            }
        }
    }
    counts.events = run.events_executed();
    let report = tr.span("report.finish", cell, || run.finish());
    tr.exit(experiment);
    counts.responses = report.run.total_responses() as u64;
    counts.records = report.run.all_records().count() as u64;
    out.check(
        report.run.audit_findings.is_empty(),
        format_args!(
            "cell {cell}: end-of-run auditor {:?}",
            report.run.audit_findings
        ),
    );
    if tr.enabled() {
        check_report_layers(test, &report, cell, tr, out);
    }
    (report, counts)
}

/// Recomputes the measurement layers of a finished report from its raw
/// records and checks them bit for bit against the report.
pub fn check_report_layers(
    test: &LoadTest,
    report: &LoadTestReport,
    cell: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let warmup = test.warmup_window();
    let per_instance: Vec<_> = tr.span("instance.summarise", cell, || {
        report
            .run
            .client_records
            .iter()
            .map(|records| {
                let mut instance = TreadmillInstance::new(InstanceConfig {
                    phases: PhaseConfig { warmup },
                    ..InstanceConfig::default()
                });
                instance.observe_all(records);
                instance.summary()
            })
            .collect()
    });
    let same = per_instance.len() == report.per_instance.len()
        && per_instance
            .iter()
            .zip(&report.per_instance)
            .all(|(a, b)| a.count == b.count && a.p99.to_bits() == b.p99.to_bits());
    out.check(
        same,
        format_args!("cell {cell}: per-instance summaries differ"),
    );
    let aggregated = tr.span("aggregation", cell, || {
        aggregate(&per_instance, AggregationMethod::Mean)
    });
    out.check(
        aggregated.p99.to_bits() == report.aggregated.p99.to_bits(),
        format_args!("cell {cell}: aggregate p99 differs"),
    );
    let capture = tr.span("capture", cell, || {
        PacketCapture::from_records(report.run.all_records(), SimTime::ZERO + warmup)
    });
    out.check(
        capture.len() == report.ground_truth.len(),
        format_args!("cell {cell}: capture size differs"),
    );
    let pooled = tr.span("records.pool", cell, || report.pooled_latencies());
    out.check(
        !pooled.is_empty(),
        format_args!("cell {cell}: no pooled latencies"),
    );
}

/// Per-layer values every replaying workload reports from its spans.
pub fn replay_layers(out: &mut Outcome, tr: &Tracer, counts: ReplayCounts) {
    let step_s = tr.total_s("sim.step");
    out.layer(
        "world.build_ms",
        probe::median(&tr.durations("world.build")) * 1e3,
    );
    out.layer("sim.step_s", step_s);
    out.layer("sim.events", counts.events as f64);
    out.layer("sim.responses", counts.responses as f64);
    out.layer(
        "sim.ns_per_event",
        step_s * 1e9 / counts.events.max(1) as f64,
    );
    out.layer("report.finish_ms", tr.total_s("report.finish") * 1e3);
    out.layer(
        "instance.summarise_ms",
        tr.total_s("instance.summarise") * 1e3,
    );
    out.layer("aggregation.ms", tr.total_s("aggregation") * 1e3);
    out.layer("capture.ms", tr.total_s("capture") * 1e3);
    out.layer("records.pool_ms", tr.total_s("records.pool") * 1e3);
    out.layer("report.records", counts.records as f64);
    out.layer("ckpt.count", counts.ckpts as f64);
    out.layer("ckpt.bytes", counts.ckpt_bytes as f64);
    out.layer("ckpt.encode_ms", tr.total_s("ckpt.encode") * 1e3);
    out.layer("ckpt.restore_ms", tr.total_s("ckpt.restore") * 1e3);
    out.layer("audit.ms", tr.total_s("audit") * 1e3);
    out.layer("artifact.write_ms", tr.total_s("artifact.write") * 1e3);
}
