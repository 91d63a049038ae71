//! `perfbench` — end-to-end and per-layer benchmark of the Treadmill
//! reproduction.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--scale full|tiny] [--out DIR]
//! ```
//!
//! Runs one workload repeatedly for `S` seconds (at least once), checks
//! its outputs, and prints every metric as `metric <name> <value>
//! <unit>`, the host and counter facts as `info <key> <value>`, and
//! finally one `report {...}` JSON line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics taken
//! from spans around each layer's public calls and writes the spans to
//! `DIR/spans-<workload>-<seed>.tsv`. `perfbench/run.py` builds
//! this binary and is the benchmark's entry point; see
//! `perfbench/README.md`.

mod campaign;
mod layers;
mod probe;
mod served;
mod trace;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;

use layers::Outcome;
use trace::Tracer;
use treadmill_server::jsonx::Obj;

/// Everything a workload needs from the command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub tiny: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            "--scale" => {
                tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--scale must be full or tiny, got {other}")),
                };
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        tiny,
        out,
    })
}

/// The `report {...}` line: the result plus every info fact.
fn report_json(args: &Args, outcome: &Outcome) -> String {
    let mut metrics = Obj::new();
    for (name, value, unit) in &outcome.metrics {
        let metric = Obj::new()
            .raw("value", &value.to_string())
            .str("unit", unit);
        metrics = metrics.raw(name, &metric.build());
    }
    let mut info = Obj::new();
    for (key, value) in &outcome.info {
        info = info.str(key, value);
    }
    let report = Obj::new()
        .str("workload", &args.workload)
        .u64("seed", args.seed)
        .bool("trace", args.trace)
        .bool("correct", outcome.failed == 0)
        .u64("attempted", outcome.attempted)
        .u64("failed", outcome.failed)
        .raw("metrics", &metrics.build())
        .raw("info", &info.build());
    format!("report {}", report.build())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let mut tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "attribution_campaign" => campaign::run(&args, &mut tracer),
        "service_sweep" => served::run(&args, &mut tracer),
        "sharded_world" => world::run(&args, &mut tracer),
        other => {
            eprintln!(
                "perfbench: unknown workload {other}; expected attribution_campaign, \
                 service_sweep or sharded_world"
            );
            return ExitCode::from(2);
        }
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {} failed: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    outcome.info("nproc", probe::nproc());
    outcome.info(
        "tml_threads",
        std::env::var("TML_THREADS").unwrap_or_else(|_| "unset".to_string()),
    );

    if args.trace {
        let path = args
            .out
            .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        match tracer.write_tsv(&path) {
            Ok(()) => outcome.info("spans", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        println!("self time by span (calls, total s, self s):");
        for (name, t) in tracer.totals() {
            println!(
                "  {name:<22} {:>6} {:>10.4} {:>10.4}",
                t.calls, t.total_s, t.self_s
            );
        }
    }
    for (name, value, unit) in &outcome.metrics {
        println!("metric {name} {value} {unit}");
    }
    for (key, value) in &outcome.info {
        println!("info {key} {value}");
    }
    println!("{}", report_json(&args, &outcome));
    ExitCode::SUCCESS
}
