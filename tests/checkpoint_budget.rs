//! Checkpoint overhead budget: at the production interval
//! (`DEFAULT_CKPT_EVENTS`) the time spent serialising checkpoints must
//! stay within 5% of a plain run's wall, and the checkpointed run must
//! reproduce the plain run's bits.
//!
//! A checkpoint costs a couple of milliseconds, below the run-to-run
//! jitter of a run of a few hundred, so the budget divides the directly
//! timed checkpoint calls by the plain run's wall instead of differencing
//! two noisy walls. The runs are deterministic: minima over interleaved
//! repetitions strip the noise without letting a load spike bias one
//! variant. `checkpoint_into` streams through the encoder the sweep
//! runs (`checkpoint_to`, the only one there is) into an in-memory
//! sink, so the budget times the production encoder without the
//! filesystem's noise; the sink's buffer is recycled across
//! checkpoints, so it bounds the steady state, not the first
//! allocation.
//!
//! The budget bounds optimized code, so it is asserted only without
//! debug assertions; CI runs this file with `--release`. The test
//! profile still runs every repetition and checks the bits, but its
//! overflow checks and missing LTO slow snapshot encoding more than the
//! simulation (about 8% against 2% in release on a 2-vCPU host).

use std::sync::Arc;
use std::time::Instant;

use treadmill::core::sweep::DEFAULT_CKPT_EVENTS;
use treadmill::core::{LoadTest, ResumableRun};
use treadmill::sim::SimDuration;
use treadmill::workloads::Memcached;

/// Interleaved plain/checkpointed pairs; the minimum of each is kept.
const REPS: u32 = 5;
/// Checkpoint time allowed, as a percentage of the plain run's wall.
const BUDGET_PCT: f64 = 5.0;

#[test]
fn checkpointing_costs_at_most_five_percent_of_a_run() {
    let duration_ms = 400;
    let test = LoadTest::new(Arc::new(Memcached::default()), 250_000.0)
        .clients(4)
        .duration(SimDuration::from_millis(duration_ms))
        .warmup(SimDuration::from_millis(duration_ms / 4))
        .seed(2016);

    let mut run_wall = f64::INFINITY;
    let mut ckpt_secs = f64::INFINITY;
    let mut ckpt_buf = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        let report = test.clone().run(0);
        run_wall = run_wall.min(start.elapsed().as_secs_f64());
        let p99 = report.aggregated.p99;
        assert!(p99 > 0.0, "run produced no latencies");

        let mut run = ResumableRun::new(test.clone(), 0);
        let mut ckpts = 0u64;
        let mut in_ckpt = 0.0;
        while run.step(DEFAULT_CKPT_EVENTS) > 0 {
            if run.is_finished() {
                break;
            }
            let c = Instant::now();
            run.checkpoint_into(&mut ckpt_buf);
            in_ckpt += c.elapsed().as_secs_f64();
            ckpts += 1;
        }
        let ck_report = run.finish();
        ckpt_secs = ckpt_secs.min(in_ckpt);
        assert!(ckpts > 0, "checkpointed run took no checkpoints");
        assert_eq!(
            ck_report.aggregated.p99.to_bits(),
            p99.to_bits(),
            "checkpointed run drifted from the plain run"
        );
    }

    let overhead_pct = ckpt_secs / run_wall * 100.0;
    eprintln!(
        "checkpointing: {:.2} ms over a {:.1} ms run = {overhead_pct:.1}%",
        ckpt_secs * 1e3,
        run_wall * 1e3
    );
    assert!(
        cfg!(debug_assertions) || overhead_pct <= BUDGET_PCT,
        "checkpoint overhead {overhead_pct:.1}% exceeds the {BUDGET_PCT}% budget"
    );
}
