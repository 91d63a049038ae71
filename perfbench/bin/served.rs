//! `service_sweep`: the path service users run. `treadmill-serve` is
//! started in process on a file store; a client POSTs a screened
//! mcrouter spec, polls its status open loop while the job runs, and
//! fetches the finished artifacts. The analytic screen, the sweep
//! journal, checkpoint encoding, fsynced artifacts and HTTP all sit on
//! this path.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use treadmill_core::LoadTestConfig;
use treadmill_server::client::{self, HttpResponse};
use treadmill_server::service::{start, ServeOptions, ServerHandle};
use treadmill_sim_core::fnv1a64;

use crate::layers::{self, Checkpointing, CpuMeter, Outcome, ReplayCounts, Sample};
use crate::probe::{self, Digest};
use crate::trace::Tracer;
use crate::Args;

struct Scale {
    rps: f64,
    clients: usize,
    connections: u32,
    duration_ms: u64,
    warmup_ms: u64,
    runs: u64,
    ckpt_events: u64,
    /// Fewest status polls a run must make, so that the p99 has at
    /// least ten polls beyond it.
    min_polls: usize,
}

const FULL: Scale = Scale {
    rps: 200_000.0,
    clients: 4,
    connections: 16,
    duration_ms: 100,
    warmup_ms: 25,
    runs: 2,
    ckpt_events: 50_000,
    min_polls: 1_000,
};

const TINY: Scale = Scale {
    rps: 100_000.0,
    clients: 2,
    connections: 4,
    duration_ms: 20,
    warmup_ms: 5,
    runs: 1,
    ckpt_events: 5_000,
    min_polls: 1,
};

/// Analytic-screen threshold: cells whose predicted p99 exceeds the
/// cheapest cell's by this share are simulated.
const THRESHOLD: f64 = 0.2;

/// The status poller's schedule: 200 requests per second.
const POLL_PERIOD: Duration = Duration::from_millis(5);

/// Longest any request or job may take before the run fails.
const HTTP_TIMEOUT: Duration = Duration::from_secs(10);
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// Server start-ups measured per iteration for `setup_s`. One takes
/// about 60 ms with its drain.
const SETUP_PROBES: usize = 2;

/// The artifacts fetched once the job is done, with their routes.
const ARTIFACTS: [(&str, &str); 2] = [("factorial", "factorial.tsv"), ("screen", "screen.tsv")];

/// The load-test config the client submits.
fn config_json(seed: u64, scale: &Scale) -> String {
    format!(
        r#"{{"workload": {{"workload": "mcrouter"}}, "target_rps": {rps},
            "clients": {clients}, "connections_per_client": {conns},
            "duration_ms": {dur}, "warmup_ms": {warm}, "seed": {seed},
            "screen": {{"threshold": {THRESHOLD}}}}}"#,
        rps = scale.rps,
        clients = scale.clients,
        conns = scale.connections,
        dur = scale.duration_ms,
        warm = scale.warmup_ms,
    )
}

/// The experiment spec POSTed to the service.
fn spec_json(seed: u64, scale: &Scale) -> String {
    format!(
        r#"{{"config": {}, "runs": {}, "ckpt_events": {}}}"#,
        config_json(seed, scale),
        scale.runs,
        scale.ckpt_events
    )
}

fn http(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<HttpResponse, String> {
    client::request(addr, method, path, &[], body, HTTP_TIMEOUT)
        .map_err(|e| format!("{method} {path}: {e}"))
}

/// A running in-process service and its state directory.
struct Server {
    handle: ServerHandle,
    addr: String,
    dir: PathBuf,
}

impl Server {
    /// Starts a service on a fresh state directory and waits for
    /// `/readyz` to answer 200; returns it with the seconds that took.
    fn start(dir: PathBuf) -> Result<(Server, f64), String> {
        let _ = fs::remove_dir_all(&dir);
        let begin = Instant::now();
        let mut opts = ServeOptions::new(&dir);
        opts.http_workers = probe::nproc();
        let handle = start(opts).map_err(|e| format!("start: {e}"))?;
        let addr = handle.addr().to_string();
        loop {
            if matches!(http(&addr, "GET", "/readyz", b""), Ok(r) if r.status == 200) {
                break;
            }
            if begin.elapsed() > HTTP_TIMEOUT {
                return Err("service never became ready".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let setup_s = begin.elapsed().as_secs_f64();
        Ok((Server { handle, addr, dir }, setup_s))
    }

    /// Drains and joins every service thread, keeping the state dir.
    fn stop(self) -> Result<PathBuf, String> {
        self.handle.drain();
        self.handle.join()?;
        Ok(self.dir)
    }
}

/// One status poll, timed from when it was due.
struct Poll {
    lag_s: f64,
    latency_s: f64,
}

/// What the open-loop poller saw of one job.
struct Watch {
    polls: Vec<Poll>,
    non2xx: u64,
    /// Seconds from submission to the first poll that saw the job
    /// running (or already finished).
    queue_wait_s: f64,
    status: String,
}

fn field<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":\"");
    let start = body.find(&key)? + key.len();
    let len = body[start..].find('"')?;
    Some(&body[start..start + len])
}

/// Polls `GET /experiments/{id}` every [`POLL_PERIOD`] from `t0`, one
/// connection at a time, until the job is done or failed. A poll that
/// goes out late still counts from when it was due.
fn watch(addr: &str, id: &str, t0: Instant) -> Result<Watch, String> {
    let path = format!("/experiments/{id}");
    let mut w = Watch {
        polls: Vec::new(),
        non2xx: 0,
        queue_wait_s: f64::NAN,
        status: String::new(),
    };
    for k in 0u32.. {
        let due = t0 + POLL_PERIOD * k;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let resp = http(addr, "GET", &path, b"")?;
        let done = Instant::now();
        w.polls.push(Poll {
            lag_s: (sent - due).as_secs_f64(),
            latency_s: (done - due).as_secs_f64(),
        });
        if resp.status != 200 {
            w.non2xx += 1;
            continue;
        }
        let text = resp.text();
        let status = field(&text, "status").unwrap_or("");
        if status != "queued" && w.queue_wait_s.is_nan() {
            w.queue_wait_s = (done - t0).as_secs_f64();
        }
        if status == "done" || status == "failed" {
            w.status = status.to_string();
            return Ok(w);
        }
        if done - t0 > JOB_TIMEOUT {
            return Err(format!("job {id} still {status} after {JOB_TIMEOUT:?}"));
        }
    }
    Err("poll counter overflowed".to_string())
}

/// Everything the run keeps from its iterations.
#[derive(Default)]
struct Seen {
    polls: Vec<Poll>,
    non2xx: u64,
    queue_waits: Vec<f64>,
    digest: Option<Digest>,
    /// State dir and job id of the latest iteration, kept for the
    /// replay check.
    last_job: Option<(PathBuf, String)>,
}

fn iteration(
    args: &Args,
    scale: &Scale,
    index: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
    seen: &mut Seen,
) -> Result<Sample, String> {
    let dir = args
        .out
        .join(format!("state-{}-{index}", std::process::id()));
    let (server, _) = tr.span("server.start", 0, || Server::start(dir))?;

    let meter = CpuMeter::start();
    let t0 = Instant::now();
    let body = spec_json(args.seed, scale);
    let resp = tr.span("http.submit", 0, || {
        http(&server.addr, "POST", "/experiments", body.as_bytes())
    })?;
    out.check(
        resp.status == 201,
        format_args!("submit answered {}: {}", resp.status, resp.text()),
    );
    if resp.status != 201 {
        seen.non2xx += 1;
    }
    let text = resp.text();
    let id = field(&text, "id")
        .ok_or_else(|| format!("submit body has no id: {text}"))?
        .to_string();
    let job = tr.enter("job", 0);
    let w = watch(&server.addr, &id, t0)?;
    tr.exit(job);
    out.check(
        w.status == "done",
        format_args!("job {id} ended {}", w.status),
    );
    out.check(
        w.non2xx == 0,
        format_args!("{} status polls were not 200", w.non2xx),
    );
    seen.non2xx += w.non2xx;
    seen.queue_waits.push(w.queue_wait_s);
    seen.polls.extend(w.polls);

    let job_dir = server.dir.join("jobs").join(&id);
    let mut d = Digest::default();
    for (route, file) in ARTIFACTS {
        let path = format!("/experiments/{id}/{route}");
        let resp = tr.span("http.fetch", 0, || http(&server.addr, "GET", &path, b""))?;
        let on_disk = fs::read(job_dir.join(file)).unwrap_or_default();
        out.check(
            resp.status == 200,
            format_args!("{path} answered {}", resp.status),
        );
        out.check(
            resp.body == on_disk,
            format_args!("{path} differs from {file} on disk"),
        );
        if resp.status != 200 {
            seen.non2xx += 1;
        }
        d.bytes(&resp.body);
    }
    let (result_s, cpu_util) = meter.stop();
    if let Some(previous) = seen.digest {
        out.check(previous == d, "output digest changed between iterations");
    }
    seen.digest = Some(d);

    let dir = server.stop()?;
    if let Some((old, _)) = seen.last_job.replace((dir, id)) {
        let _ = fs::remove_dir_all(old);
    }
    Ok(Sample { result_s, cpu_util })
}

/// The `aggregate` row the sweep writes to `cell_N.tsv`.
fn aggregate_row(report: &treadmill_core::LoadTestReport) -> String {
    let a = &report.aggregated;
    format!(
        "aggregate\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}",
        a.count, a.mean, a.p50, a.p90, a.p95, a.p99, a.p999
    )
}

/// Runs every flagged cell again through `ResumableRun` — with the
/// sweep's checkpoint cadence when traced — and checks each against the
/// `cell_N.tsv` the service wrote.
fn replay_cells(
    args: &Args,
    scale: &Scale,
    config: &LoadTestConfig,
    flagged: &[usize],
    job_dir: &Path,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<ReplayCounts, String> {
    let ckpt_file = args.out.join(format!("replay-{}.ckpt", std::process::id()));
    let ckpt = Checkpointing {
        every: scale.ckpt_events,
        file: &ckpt_file,
    };
    let mut counts = ReplayCounts::default();
    for &index in flagged {
        let mut cell = config.clone();
        cell.hardware = Some(u8::try_from(index).map_err(|e| e.to_string())?);
        cell.screen = None;
        cell.seed = fnv1a64(format!("{}/factorial/{index}", config.seed).as_bytes());
        let test = cell.build().map_err(|e| format!("cell {index}: {e}"))?;
        for run in 0..scale.runs {
            let id = index as u64 * scale.runs + run;
            let (report, c) =
                layers::replay(&test, run, id, tr.enabled().then_some(&ckpt), tr, out);
            counts.add(c);
            let path = job_dir
                .join(format!("hw_{index:02}"))
                .join(format!("cell_{run}.tsv"));
            let served = fs::read_to_string(&path).unwrap_or_default();
            let row = aggregate_row(&report);
            out.check(
                served.lines().any(|l| l == row),
                format_args!("{} has no row {row}", path.display()),
            );
        }
    }
    let _ = fs::remove_file(&ckpt_file);
    Ok(counts)
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let scale = if args.tiny { &TINY } else { &FULL };
    let mut out = Outcome::default();
    out.info("threads.http_workers", probe::nproc());
    out.info("threads.sweep_cells", 1);
    let mut seen = Seen::default();
    let probe_dir = args.out.join(format!("state-{}-probe", std::process::id()));
    let setup = || {
        let (server, setup_s) = Server::start(probe_dir.clone())?;
        server.stop()?;
        Ok(setup_s)
    };
    let mut index = 0;
    let timed = layers::timed_loop(args, tr, SETUP_PROBES, setup, |tr| {
        index += 1;
        iteration(args, scale, index, tr, &mut out, &mut seen)
    })?;
    let _ = fs::remove_dir_all(&probe_dir);
    let (state_dir, id) = seen.last_job.take().ok_or("no iteration ran")?;
    out.info("output_digest", seen.digest.unwrap_or_default().hex());

    let config = LoadTestConfig::from_json(&config_json(args.seed, scale))
        .map_err(|e| format!("spec config: {e}"))?;
    let plan = tr
        .span("screen", 0, || {
            treadmill_inference::screen_hardware(&config, THRESHOLD)
        })
        .map_err(|e| format!("screen: {e}"))?;
    let job_dir = state_dir.join("jobs").join(&id);
    let screen_tsv = fs::read_to_string(job_dir.join("screen.tsv")).unwrap_or_default();
    let served_flagged = screen_tsv.lines().filter(|l| l.ends_with("\t1")).count();
    out.check(
        served_flagged == plan.flagged.len(),
        format_args!(
            "screen.tsv flags {served_flagged} cells, the screen {}",
            plan.flagged.len()
        ),
    );
    let counts = replay_cells(args, scale, &config, &plan.flagged, &job_dir, tr, &mut out)?;
    let _ = fs::remove_dir_all(&state_dir);
    out.info("sim.events", counts.events);
    out.info("sim.responses", counts.responses);
    out.info("ckpt.bytes", counts.ckpt_bytes);
    out.info("screen.cells_flagged", plan.flagged.len());

    let latencies: Vec<f64> = seen.polls.iter().map(|p| p.latency_s * 1e3).collect();
    let lags: Vec<f64> = seen.polls.iter().map(|p| p.lag_s * 1e3).collect();
    out.check(
        latencies.len() >= scale.min_polls,
        format_args!(
            "{} status polls, fewer than {}",
            latencies.len(),
            scale.min_polls
        ),
    );
    let status = [
        ("status_p50_ms", probe::quantile(&latencies, 0.5)),
        ("status_p99_ms", probe::quantile(&latencies, 0.99)),
        ("poll_lag_p99_ms", probe::quantile(&lags, 0.99)),
        ("status.polls", latencies.len() as f64),
        ("http.non2xx", seen.non2xx as f64),
    ];
    for (name, value) in status {
        out.info(name, value);
        out.layer(name, value);
    }
    if args.trace {
        layers::replay_layers(&mut out, tr, counts);
        let cells = tr.durations("experiment");
        out.layer("sweep.cell_p50_s", probe::quantile(&cells, 0.5));
        out.layer("sweep.cell_p90_s", probe::quantile(&cells, 0.9));
        out.layer("screen.ms", tr.total_s("screen") * 1e3);
        out.layer("screen.cells_flagged", plan.flagged.len() as f64);
        out.layer(
            "http.submit_ms",
            probe::median(&tr.durations("http.submit")) * 1e3,
        );
        out.layer(
            "http.fetch_ms",
            probe::median(&tr.durations("http.fetch")) * 1e3,
        );
        out.layer("job.queue_wait_s", probe::median(&seen.queue_waits));
    }
    out.finish(args, &timed, counts.responses);
    Ok(out)
}
