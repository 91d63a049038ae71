//! Performance smoke test: times the eight hot-path layers and writes
//! `BENCH_treadmill.json` so the perf trajectory is tracked per commit.
//!
//! Stages (one per optimized layer):
//!
//! 1. `engine_events` — raw discrete-event engine throughput
//!    (events/sec) on self-rescheduling chains, exercising the 4-ary
//!    indexed queue's schedule/pop path with dense time collisions;
//! 2. `single_run` — one `LoadTest::run`, exercising the whole
//!    simulate-then-measure record pipeline;
//! 3. `checkpointed_run` — the same run driven through `ResumableRun`
//!    with a checkpoint every `DEFAULT_CKPT_EVENTS` events, proving the
//!    snapshot path stays within its overhead budget (time spent
//!    checkpointing ≤5% of the stage-2 wall) and reproduces the plain
//!    run's bits;
//! 4. `collect_tiny` — a reduced factorial `collect()`, exercising the
//!    parallel experiment layer and the O(k) subsampler; counted in
//!    `retained_samples` at the plan's thread count;
//! 5. `engine_events_sharded` — a multi-server world on the sharded
//!    parallel executor, run once at 1 worker thread and once at the
//!    host's hardware parallelism; the event counts must match (the
//!    determinism guarantee) and the wall-clock ratio is reported as
//!    `speedup_vs_1`;
//! 6. `million_world` — the scale stage: at full scale a 100-server,
//!    one-million-connection cluster (100 shards × 8 clients × 1250
//!    connections) advanced by the windowed executor;
//! 7. `screened_sweep` — the two-stage factorial path: the analytic
//!    screen ranks all 16 hardware cells and DES runs are spent only on
//!    the flagged ones; the stage records cells screened out, cells
//!    simulated, and the measured wall-clock speedup over the full
//!    factorial it replaces;
//! 8. `lint_workspace` — the static-analysis gate itself: a full
//!    workspace scan + parse + call-graph + reachability pass through
//!    `treadmill-lint`, pinned under 2 s so the lint stays an
//!    interactive pre-commit habit rather than a CI-only tax.
//!
//! Every benchmark entry records the worker `threads` and world
//! `shards` it ran with (schema 2).
//!
//! Usage: `perf_smoke [--check] [--out PATH] [--seed N]`
//!
//! `--check` runs each stage at smoke scale and fails (non-zero exit)
//! if the JSON report cannot be produced or re-parsed — timings are
//! informational, so CI stays load-insensitive.

use std::sync::Arc;
use std::time::Instant;

use serde_json::{Map, Value};
use treadmill_core::LoadTest;
use treadmill_inference::CollectionPlan;
use treadmill_sim_core::{Engine, EventQueue, SimDuration, SimTime, World};
use treadmill_workloads::Memcached;

/// A world of independent event chains: each event reschedules itself a
/// pseudo-random (but deterministic) delay ahead until its hop budget
/// runs out. Many chains keep the queue deep; small delays collide
/// often, stressing the FIFO tie-break path.
struct Chains {
    state: u64,
}

#[derive(Clone, Copy)]
struct Hop {
    remaining: u32,
}

impl World for Chains {
    type Event = Hop;

    fn handle(&mut self, now: SimTime, event: Hop, queue: &mut EventQueue<Hop>) {
        if event.remaining == 0 {
            return;
        }
        // xorshift64 keeps delays varied without an RNG dependency.
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let delay = SimDuration::from_nanos(self.state % 512);
        queue.schedule(
            now + delay,
            Hop {
                remaining: event.remaining - 1,
            },
        );
    }
}

fn bench_engine(chains: u64, hops: u32) -> (u64, f64) {
    let mut engine = Engine::with_queue_capacity(
        Chains {
            state: 0x9E37_79B9_7F4A_7C15,
        },
        chains as usize + 16,
    );
    for i in 0..chains {
        engine.schedule(SimTime::from_nanos(i % 64), Hop { remaining: hops });
    }
    let start = Instant::now();
    engine.run_to_completion();
    let wall = start.elapsed().as_secs_f64();
    (engine.events_executed(), wall)
}

/// Results of the paired plain-vs-checkpointed run measurement.
struct RunPair {
    responses: usize,
    run_wall: f64,
    ckpts: u64,
    snapshot_bytes: usize,
    ckpt_wall: f64,
    /// Best-of-reps total time spent inside checkpoint serialisation
    /// during one checkpointed run.
    ckpt_secs: f64,
}

/// Measures stage 2 (one plain `LoadTest::run`) and stage 3 (the same
/// workload through `ResumableRun`, checkpointing every `ckpt_events`
/// events like the `run_sweep` crash-tolerance loop) as interleaved
/// best-of-`reps` pairs.
///
/// The checkpoint cost being judged is a couple of milliseconds, well
/// below run-to-run scheduler jitter on a ~100 ms run, so the overhead
/// budget is computed from `ckpt_secs` — the checkpoint calls timed
/// directly — over the plain run's wall, not by differencing two noisy
/// whole-run walls. The runs are deterministic, so per-variant minima
/// strip the noise; interleaving keeps a load spike from biasing one
/// variant. The checkpoint scratch buffer is recycled across reps
/// exactly as `run_sweep` recycles it across checkpoints — steady
/// state, not the one-off first-allocation cost, is what the budget
/// bounds. The checkpointed run's report must match the plain run
/// bit-for-bit.
fn bench_run_pair(seed: u64, duration_ms: u64, ckpt_events: u64, reps: u32) -> RunPair {
    use treadmill_core::ResumableRun;

    let test = LoadTest::new(Arc::new(Memcached::default()), 250_000.0)
        .clients(4)
        .duration(SimDuration::from_millis(duration_ms))
        .warmup(SimDuration::from_millis(duration_ms / 4))
        .seed(seed);
    let mut run_wall = f64::INFINITY;
    let mut ckpt_wall = f64::INFINITY;
    let mut ckpt_secs = f64::INFINITY;
    let mut responses = 0usize;
    let mut p99 = 0f64;
    let mut ckpts = 0u64;
    let mut snapshot_bytes = 0usize;
    let mut ckpt_buf = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        let report = test.clone().run(0);
        run_wall = run_wall.min(start.elapsed().as_secs_f64());
        responses = report.run.total_responses();
        p99 = report.aggregated.p99;

        let start = Instant::now();
        let mut run = ResumableRun::new(test.clone(), 0);
        ckpts = 0;
        let mut in_ckpt = 0.0;
        while run.step(ckpt_events) > 0 {
            if run.is_finished() {
                break;
            }
            let c = Instant::now();
            run.checkpoint_into(&mut ckpt_buf);
            in_ckpt += c.elapsed().as_secs_f64();
            snapshot_bytes = ckpt_buf.len();
            ckpts += 1;
        }
        let ck_report = run.finish();
        ckpt_wall = ckpt_wall.min(start.elapsed().as_secs_f64());
        ckpt_secs = ckpt_secs.min(in_ckpt);
        assert!(ckpts > 0, "checkpoint stage took no checkpoints");
        assert_eq!(
            ck_report.aggregated.p99.to_bits(),
            p99.to_bits(),
            "checkpointed run drifted from the plain run"
        );
    }
    assert!(p99 > 0.0, "run produced no latencies");
    RunPair {
        responses,
        run_wall,
        ckpts,
        snapshot_bytes,
        ckpt_wall,
        ckpt_secs,
    }
}

/// Runs the reduced factorial collection, returning (retained samples,
/// wall seconds, worker threads).
fn bench_collect(seed: u64, runs_per_config: usize, duration_ms: u64) -> (usize, f64, usize) {
    let mut plan = CollectionPlan::new(Arc::new(Memcached::default()), 300_000.0);
    plan.runs_per_config = runs_per_config;
    plan.samples_per_run = 2_000;
    plan.clients = 2;
    plan.duration = SimDuration::from_millis(duration_ms);
    plan.warmup = SimDuration::from_millis(duration_ms / 4);
    plan.seed = seed;
    let start = Instant::now();
    let dataset = treadmill_inference::collect(&plan);
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(dataset.cells.len(), 16, "factorial collect lost cells");
    (dataset.total_samples(), wall, plan.threads.max(1))
}

/// Builds a sharded multi-server load test for the parallel stages.
fn sharded_world(
    seed: u64,
    servers: u32,
    clients: usize,
    connections: u32,
    rps: f64,
    duration_ms: u64,
    threads: u32,
) -> LoadTest {
    LoadTest::new(Arc::new(Memcached::default()), rps)
        .clients(clients)
        .connections_per_client(connections)
        .duration(SimDuration::from_millis(duration_ms))
        .warmup(SimDuration::from_millis(duration_ms / 4))
        .seed(seed)
        .servers(servers)
        .remote_every(4)
        .threads(threads)
}

/// Runs one sharded test, returning (events, responses, wall seconds).
fn bench_sharded(test: &LoadTest) -> (u64, usize, f64) {
    let start = Instant::now();
    let report = test.run(0);
    let wall = start.elapsed().as_secs_f64();
    (report.run.events_executed, report.run.total_responses(), wall)
}

/// Stage 7 results: the screened two-stage sweep vs the full factorial
/// on the same config.
struct ScreenedBench {
    simulated: u64,
    screened_out: u64,
    full_wall: f64,
    screened_wall: f64,
}

fn bench_screened_sweep(seed: u64, rps: f64, duration_ms: u64, threshold: f64) -> ScreenedBench {
    use treadmill_core::{run_factorial_sweep, run_screened_sweep, LoadTestConfig, SweepOptions};

    let config = LoadTestConfig::from_json(&format!(
        r#"{{"workload": {{"workload": "memcached"}},
            "target_rps": {rps}, "clients": 2, "connections_per_client": 4,
            "duration_ms": {duration_ms}, "warmup_ms": {warmup}, "seed": {seed}}}"#,
        warmup = duration_ms / 4
    ))
    .expect("screened stage config");
    let opts = SweepOptions {
        runs: 1,
        ..SweepOptions::default()
    };
    let base = std::env::temp_dir().join(format!("tml-perf-screen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let start = Instant::now();
    run_factorial_sweep(&config, &base.join("full"), &opts).expect("full factorial sweep");
    let full_wall = start.elapsed().as_secs_f64();

    // The screened wall includes the analytic screen itself — that cost
    // is part of the two-stage path being sold as a speedup.
    let start = Instant::now();
    let plan = treadmill_inference::screen_hardware(&config, threshold).expect("analytic screen");
    let outcome = run_screened_sweep(&config, &base.join("screened"), &opts, &plan.to_sweep_plan())
        .expect("screened sweep");
    let screened_wall = start.elapsed().as_secs_f64();

    assert!(
        (1..16).contains(&outcome.simulated.len()),
        "screen must keep some cells and drop some: simulated {:?}",
        outcome.simulated
    );
    let _ = std::fs::remove_dir_all(&base);
    ScreenedBench {
        simulated: outcome.simulated.len() as u64,
        screened_out: outcome.screened_out.len() as u64,
        full_wall,
        screened_wall,
    }
}

fn stage(name: &str, unit: &str, items: u64, wall_secs: f64, threads: u64, shards: u64) -> Value {
    let mut obj = Map::new();
    obj.insert("name".to_string(), Value::String(name.to_string()));
    obj.insert("unit".to_string(), Value::String(unit.to_string()));
    obj.insert("items".to_string(), Value::UInt(items));
    obj.insert("wall_ms".to_string(), Value::Float(wall_secs * 1e3));
    obj.insert(
        "items_per_sec".to_string(),
        Value::Float(items as f64 / wall_secs),
    );
    obj.insert("threads".to_string(), Value::UInt(threads));
    obj.insert("shards".to_string(), Value::UInt(shards));
    println!(
        "{name}: {items} {unit} in {:.1} ms ({:.0} {unit}/s, {threads} threads, {shards} shards)",
        wall_secs * 1e3,
        items as f64 / wall_secs
    );
    Value::Object(obj)
}

fn main() {
    let mut check = false;
    let mut out = "BENCH_treadmill.json".to_string();
    let mut seed = 2016u64;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => out = iter.next().expect("--out needs a path"),
            "--seed" => {
                seed = iter
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("--seed must be a u64");
            }
            other => panic!("unknown argument {other}; expected --check/--out PATH/--seed N"),
        }
    }

    // Check mode shrinks every stage so CI finishes in seconds; the
    // full mode is sized to make run-to-run noise small relative to
    // real regressions.
    let (chains, hops) = if check { (256, 2_000) } else { (1_024, 8_000) };
    let (run_ms, collect_runs, collect_ms) = if check { (60, 1, 40) } else { (400, 3, 80) };
    // Best-of-N repetitions for the two stages whose walls are compared
    // against each other; check mode keeps a single rep for speed.
    let reps = if check { 1 } else { 5 };

    let (events, engine_wall) = bench_engine(chains, hops);
    let engine_stage = stage("engine_events", "events", events, engine_wall, 1, 1);

    // Full mode measures the production default interval; check mode's
    // tiny run has fewer events than the default, so it shrinks the
    // interval to still exercise a mid-run snapshot.
    let ckpt_events = if check {
        50_000
    } else {
        treadmill_core::sweep::DEFAULT_CKPT_EVENTS
    };
    let pair = bench_run_pair(seed, run_ms, ckpt_events, reps);
    let run_stage = stage(
        "single_run",
        "responses",
        pair.responses as u64,
        pair.run_wall,
        1,
        1,
    );

    let overhead_pct = pair.ckpt_secs / pair.run_wall * 100.0;
    let mut ckpt_stage = stage(
        "checkpointed_run",
        "checkpoints",
        pair.ckpts,
        pair.ckpt_wall,
        1,
        1,
    );
    if let Value::Object(obj) = &mut ckpt_stage {
        obj.insert("overhead_pct".to_string(), Value::Float(overhead_pct));
        obj.insert(
            "ckpt_ms".to_string(),
            Value::Float(pair.ckpt_secs * 1e3),
        );
        obj.insert(
            "snapshot_bytes".to_string(),
            Value::UInt(pair.snapshot_bytes as u64),
        );
    }
    let (ckpts, snapshot_bytes) = (pair.ckpts, pair.snapshot_bytes);
    println!(
        "checkpointed_run: {ckpts} checkpoints ({snapshot_bytes} B each), \
         {:.2} ms checkpointing = {overhead_pct:+.1}% of single_run",
        pair.ckpt_secs * 1e3
    );
    // The ≤5% budget is asserted only at full scale: check mode's tiny
    // run makes the delta mostly scheduler noise, and CI must stay
    // load-insensitive.
    assert!(
        check || overhead_pct <= 5.0,
        "checkpoint overhead {overhead_pct:.1}% exceeds the 5% budget"
    );

    // The unit counts the samples each run keeps after subsampling, not
    // the simulated responses behind them.
    let (samples, collect_wall, collect_threads) = bench_collect(seed, collect_runs, collect_ms);
    let collect_stage = stage(
        "collect_tiny",
        "retained_samples",
        samples as u64,
        collect_wall,
        collect_threads as u64,
        1,
    );

    // Stage 5: the sharded parallel executor. The same seeded world
    // runs at 1 worker and at the host's hardware parallelism; events
    // must match exactly (determinism) and the wall ratio is the
    // measured speedup. On a single-core host the ratio is honestly ~1.
    let hw_threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let hw_threads = u32::try_from(hw_threads).unwrap_or(u32::MAX);
    let (sh_servers, sh_ms) = if check { (4u32, 30u64) } else { (8, 120) };
    let sh_threads = hw_threads.min(sh_servers);
    let (ev_1, _, wall_1) = bench_sharded(&sharded_world(seed, sh_servers, 4, 16, 150_000.0, sh_ms, 1));
    let (ev_n, _, wall_n) = bench_sharded(&sharded_world(
        seed, sh_servers, 4, 16, 150_000.0, sh_ms, sh_threads,
    ));
    assert_eq!(ev_1, ev_n, "thread count changed the executed event count");
    let mut sharded_stage = stage(
        "engine_events_sharded",
        "events",
        ev_n,
        wall_n,
        u64::from(sh_threads),
        u64::from(sh_servers),
    );
    let speedup = wall_1 / wall_n;
    if let Value::Object(obj) = &mut sharded_stage {
        obj.insert("speedup_vs_1".to_string(), Value::Float(speedup));
        obj.insert("wall_1thread_ms".to_string(), Value::Float(wall_1 * 1e3));
    }
    println!("engine_events_sharded: {speedup:.2}x speedup at {sh_threads} threads vs 1");

    // Stage 6: the scale stage. Full mode builds the paper-scale world:
    // one million connections across 100 single-server shards.
    let (mw_servers, mw_clients, mw_conns, mw_rps, mw_ms) = if check {
        (10u32, 2usize, 50u32, 20_000.0, 15u64)
    } else {
        (100, 8, 1_250, 40_000.0, 30)
    };
    let total_conns = u64::from(mw_servers) * mw_clients as u64 * u64::from(mw_conns);
    assert!(check || total_conns == 1_000_000, "full-scale world must hold 1M connections");
    let mw_threads = hw_threads.min(mw_servers);
    let mw = sharded_world(seed, mw_servers, mw_clients, mw_conns, mw_rps, mw_ms, mw_threads);
    let (mw_events, mw_resp, mw_wall) = bench_sharded(&mw);
    assert!(mw_resp > 0, "million-connection world delivered nothing");
    let mut mw_stage = stage(
        "million_world",
        "events",
        mw_events,
        mw_wall,
        u64::from(mw_threads),
        u64::from(mw_servers),
    );
    if let Value::Object(obj) = &mut mw_stage {
        obj.insert("connections".to_string(), Value::UInt(total_conns));
        obj.insert("responses".to_string(), Value::UInt(mw_resp as u64));
    }
    println!("million_world: {total_conns} connections, {mw_resp} responses");

    // Stage 7: the screened two-stage sweep against the full factorial
    // it replaces. The threshold keeps the high-tail cells (the numa
    // arm and friends) and screens out the quiet ones.
    let (sc_rps, sc_ms) = if check { (120_000.0, 20u64) } else { (250_000.0, 60) };
    let sc = bench_screened_sweep(seed, sc_rps, sc_ms, 0.2);
    let speedup_vs_full = sc.full_wall / sc.screened_wall;
    let mut screen_stage = stage(
        "screened_sweep",
        "cells",
        sc.simulated,
        sc.screened_wall,
        1,
        1,
    );
    if let Value::Object(obj) = &mut screen_stage {
        obj.insert("cells_simulated".to_string(), Value::UInt(sc.simulated));
        obj.insert("cells_screened_out".to_string(), Value::UInt(sc.screened_out));
        obj.insert(
            "full_factorial_wall_ms".to_string(),
            Value::Float(sc.full_wall * 1e3),
        );
        obj.insert("speedup_vs_full".to_string(), Value::Float(speedup_vs_full));
    }
    println!(
        "screened_sweep: {} of 16 cells simulated ({} screened out), \
         {speedup_vs_full:.2}x vs full factorial",
        sc.simulated, sc.screened_out
    );

    // Stage 8: the static-analysis gate. Same entry point as
    // `tml-lint --check`, timed end to end (walk, scan, parse, graph,
    // reachability, reconcile). The 2 s ceiling is the interactivity
    // contract DESIGN.md promises for pre-commit use.
    let lint_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let lint_baseline = std::fs::read_to_string(lint_root.join("lint-baseline.toml"))
        .ok()
        .and_then(|text| treadmill_lint::baseline::parse(&text).ok())
        .unwrap_or_default();
    let lint_start = Instant::now();
    let lint = treadmill_lint::analyze_workspace(&lint_root, &lint_baseline)
        .expect("workspace lint scan succeeds");
    let lint_wall = lint_start.elapsed().as_secs_f64();
    assert!(
        lint.failures.is_empty() && lint.ratchet_errors.is_empty(),
        "workspace must be lint-clean during the perf smoke"
    );
    assert!(
        lint_wall < 2.0,
        "lint_workspace took {lint_wall:.2}s — the 2s interactivity budget is blown"
    );
    let mut lint_stage = stage(
        "lint_workspace",
        "files",
        lint.files_scanned as u64,
        lint_wall,
        1,
        1,
    );
    if let (Value::Object(obj), Some(sem)) = (&mut lint_stage, lint.semantics.as_ref()) {
        obj.insert("graph_fns".to_string(), Value::UInt(sem.graph.fn_count() as u64));
        obj.insert("graph_edges".to_string(), Value::UInt(sem.edge_count as u64));
    }

    let mut root = Map::new();
    root.insert("schema".to_string(), Value::UInt(2));
    root.insert(
        "mode".to_string(),
        Value::String(if check { "check" } else { "full" }.to_string()),
    );
    root.insert("seed".to_string(), Value::UInt(seed));
    root.insert(
        "benchmarks".to_string(),
        Value::Array(vec![
            engine_stage,
            run_stage,
            ckpt_stage,
            collect_stage,
            sharded_stage,
            mw_stage,
            screen_stage,
            lint_stage,
        ]),
    );
    let json =
        serde_json::to_string_pretty(&Value::Object(root)).expect("serialize benchmark report");
    std::fs::write(&out, &json).expect("write benchmark report");

    // The report must round-trip: a malformed file would silently break
    // downstream trend tracking, so treat it as a hard failure.
    let parsed: Value = serde_json::from_str(&json).expect("report must re-parse");
    let benchmarks = parsed["benchmarks"]
        .as_array()
        .expect("report has a benchmarks array");
    assert_eq!(benchmarks.len(), 8, "expected one entry per stage");
    for b in benchmarks {
        assert!(
            b.get("threads").is_some() && b.get("shards").is_some(),
            "schema 2 entries carry threads and shards"
        );
    }
    println!("wrote {out}");
}
