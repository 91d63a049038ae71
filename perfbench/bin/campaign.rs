//! `attribution_campaign`: the paper's procedure through the library.
//! `inference::collect` runs the 2⁴ hardware factorial on the parallel
//! experiment scheduler, then `inference::attribute` fits the quantile
//! regression at p50, p95 and p99 with bootstrap inference. No disk, no
//! checkpoints, no shards.

use std::sync::Arc;
use std::time::Instant;

use treadmill_cluster::HardwareConfig;
use treadmill_core::{LoadTest, ResumableRun};
use treadmill_inference::{attribute, collect, CollectionPlan, Dataset};
use treadmill_sim_core::{SeedStream, SimDuration};
use treadmill_workloads::Memcached;

use crate::layers::{self, CpuMeter, Outcome, ReplayCounts, Sample};
use crate::probe::{self, Digest};
use crate::trace::Tracer;
use crate::Args;

struct Scale {
    rps: f64,
    clients: usize,
    duration_ms: u64,
    warmup_ms: u64,
    samples: usize,
    runs: usize,
    bootstrap: usize,
}

const FULL: Scale = Scale {
    rps: 700_000.0,
    clients: 8,
    duration_ms: 400,
    warmup_ms: 100,
    samples: 10_000,
    runs: 2,
    bootstrap: 200,
};

const TINY: Scale = Scale {
    rps: 200_000.0,
    clients: 2,
    duration_ms: 40,
    warmup_ms: 10,
    samples: 500,
    runs: 1,
    bootstrap: 20,
};

const QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

/// Set-up measurements per iteration. One takes about 5–10 µs.
const SETUP_PROBES: usize = 50;

fn plan(seed: u64, scale: &Scale, threads: usize) -> CollectionPlan {
    CollectionPlan {
        runs_per_config: scale.runs,
        samples_per_run: scale.samples,
        clients: scale.clients,
        duration: SimDuration::from_millis(scale.duration_ms),
        warmup: SimDuration::from_millis(scale.warmup_ms),
        seed,
        threads,
        ..CollectionPlan::new(Arc::new(Memcached::default()), scale.rps)
    }
}

/// The load test `collect` runs for hardware cell `config` — the same
/// public-API construction `inference::dataset` uses.
fn experiment(plan: &CollectionPlan, config: usize) -> LoadTest {
    LoadTest::new(Arc::clone(&plan.workload), plan.target_rps)
        .clients(plan.clients)
        .hardware(HardwareConfig::from_index(config))
        .duration(plan.duration)
        .warmup(plan.warmup)
        .seed(SeedStream::new(plan.seed).derive("experiment", config as u64))
}

/// Time from the plan to the first simulated event of the campaign's
/// first experiment. The plan is the campaign's config; building one
/// reads the cgroup CPU quota from `/sys` (`available_parallelism`),
/// which costs three times the world build and swings twofold between
/// processes, so it stays outside the measurement.
///
/// The previous probe's run is dropped only after this one is built.
/// Dropping it first lets the allocator hand the freed pages back and
/// fault them in again, or not, depending on the heap's history: that
/// made the probe read 4 µs in some processes and 7 µs in others.
fn setup_probe(plan: &CollectionPlan, held: &mut Option<ResumableRun>) -> f64 {
    let start = Instant::now();
    let mut run = ResumableRun::new(experiment(plan, 0), 0);
    run.step(1);
    let elapsed = start.elapsed().as_secs_f64();
    *held = Some(run);
    elapsed
}

fn digest(dataset: &Dataset, fits: &[treadmill_inference::AttributionResult]) -> Digest {
    let mut d = Digest::default();
    for cell in &dataset.cells {
        for &level in &cell.levels {
            d.f64(level);
        }
        for run in cell.runs() {
            d.u64(run.len() as u64);
            for &v in run {
                d.f64(v);
            }
        }
    }
    for fit in fits {
        for c in &fit.coefficients {
            d.bytes(c.term.as_bytes());
            d.f64(c.estimate);
            d.f64(c.std_error);
            d.f64(c.p_value);
        }
    }
    d
}

fn check_outputs(
    out: &mut Outcome,
    scale: &Scale,
    dataset: &Dataset,
    fits: &[treadmill_inference::AttributionResult],
) {
    out.check(
        dataset.cells.len() == 16,
        format_args!("{} of 16 cells", dataset.cells.len()),
    );
    for (i, cell) in dataset.cells.iter().enumerate() {
        out.check(
            cell.num_runs() == scale.runs && cell.total_samples() > 0,
            format_args!(
                "cell {i}: {} runs, {} samples",
                cell.num_runs(),
                cell.total_samples()
            ),
        );
    }
    for fit in fits {
        let finite = fit.coefficients.len() == 16
            && fit.coefficients.iter().all(|c| {
                c.estimate.is_finite() && c.std_error.is_finite() && c.p_value.is_finite()
            });
        out.check(
            finite,
            format_args!("tau {}: coefficients not all finite", fit.tau),
        );
    }
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let scale = if args.tiny { &TINY } else { &FULL };
    let threads = probe::nproc();
    let mut out = Outcome::default();
    out.info("threads.collect", threads);
    let mut last: Option<(Dataset, Digest)> = None;

    let config = plan(args.seed, scale, threads);
    let mut held = None;
    let setup = || Ok(setup_probe(&config, &mut held));
    let timed = layers::timed_loop(args, tr, SETUP_PROBES, setup, |tr| {
        let meter = CpuMeter::start();
        let plan = plan(args.seed, scale, threads);
        let dataset = tr.span("collect", 0, || collect(&plan));
        let fits: Vec<_> = QUANTILES
            .iter()
            .enumerate()
            .map(|(i, &tau)| {
                let seed = SeedStream::new(args.seed).derive("attribute", i as u64);
                tr.span("attribute", 0, || {
                    attribute(&dataset, tau, scale.bootstrap, seed)
                })
            })
            .collect();
        let (result_s, cpu_util) = meter.stop();
        check_outputs(&mut out, scale, &dataset, &fits);
        let d = digest(&dataset, &fits);
        if let Some((_, previous)) = &last {
            out.check(*previous == d, "output digest changed between iterations");
        }
        last = Some((dataset, d));
        Ok(Sample { result_s, cpu_util })
    })?;
    let (dataset, d) = last.ok_or("no iteration ran")?;
    out.info("output_digest", d.hex());

    // Every experiment again, outside the timed loop: the simulated
    // response count (collect keeps only subsamples) and, traced, the
    // per-layer spans.
    let counts = if args.trace {
        replay_traced(&config, &dataset, tr, &mut out)
    } else {
        replay_parallel(&config, &dataset, threads, &mut out)
    };
    out.info("sim.events", counts.events);
    out.info("sim.responses", counts.responses);
    if args.trace {
        layers::replay_layers(&mut out, tr, counts);
        let collect_s = probe::median(&tr.durations("collect"));
        let serial_s = tr.total_s("experiment");
        out.layer("collect.s", collect_s);
        out.layer(
            "collect.parallel_eff",
            serial_s / (threads as f64 * collect_s),
        );
        let traced = timed.traced.len().max(1) as f64;
        out.layer("attribute.ms", tr.total_s("attribute") * 1e3 / traced);
        let cells = tr.durations("experiment");
        out.layer("sweep.cell_p50_s", probe::quantile(&cells, 0.5));
        out.layer("sweep.cell_p90_s", probe::quantile(&cells, 0.9));
    }
    out.finish(args, &timed, counts.responses);
    Ok(out)
}

/// Checks that experiment `(config, rep)` kept what `collect` keeps:
/// every sample, or `samples_per_run` of them.
fn check_kept(
    out: &mut Outcome,
    dataset: &Dataset,
    plan: &CollectionPlan,
    config: usize,
    rep: usize,
    pooled: usize,
) {
    let kept = dataset
        .cells
        .get(config)
        .and_then(|c| c.runs().get(rep))
        .map_or(0, Vec::len);
    out.check(
        kept == pooled.min(plan.samples_per_run),
        format_args!("experiment ({config}, {rep}): kept {kept} of {pooled} samples"),
    );
}

/// Replays every experiment serially with spans; the summed
/// `experiment` spans are the serial cost `collect` spreads over its
/// threads.
fn replay_traced(
    plan: &CollectionPlan,
    dataset: &Dataset,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> ReplayCounts {
    let mut counts = ReplayCounts::default();
    for config in 0..16 {
        let test = experiment(plan, config);
        for rep in 0..plan.runs_per_config {
            let cell = (config * plan.runs_per_config + rep) as u64;
            let (report, c) = layers::replay(&test, rep as u64, cell, None, tr, out);
            check_kept(
                out,
                dataset,
                plan,
                config,
                rep,
                report.pooled_latencies().len(),
            );
            counts.add(c);
        }
    }
    counts
}

/// Re-runs every experiment on `threads` workers to count events and
/// responses.
fn replay_parallel(
    plan: &CollectionPlan,
    dataset: &Dataset,
    threads: usize,
    out: &mut Outcome,
) -> ReplayCounts {
    let jobs: Vec<(usize, usize)> = (0..16)
        .flat_map(|c| (0..plan.runs_per_config).map(move |r| (c, r)))
        .collect();
    let chunk = jobs.len().div_ceil(threads.max(1));
    let per_job: Vec<(usize, usize, u64, u64, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&(config, rep)| {
                            let report = experiment(plan, config).run(rep as u64);
                            (
                                config,
                                rep,
                                report.run.events_executed,
                                report.run.total_responses() as u64,
                                report.pooled_latencies().len(),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    out.check(per_job.len() == jobs.len(), "a replay worker panicked");
    let mut counts = ReplayCounts::default();
    for (config, rep, events, responses, pooled) in per_job {
        check_kept(out, dataset, plan, config, rep, pooled);
        counts.events += events;
        counts.responses += responses;
    }
    counts
}
