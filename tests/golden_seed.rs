//! Golden-seed pinning: the event queue, record pipeline and RNG
//! streams together define the simulation's output bit-for-bit. These
//! tests freeze one run's summary so hot-path refactors (queue swaps,
//! buffer reuse) can prove they did not change observable behaviour.
//!
//! If a change *intends* to alter results (new RNG, different physics),
//! update the constants in the same commit and say why.

// Integration tests exercise the public API end-to-end: unwrap on
// already-validated setup and exact float comparison (bit-identity is
// the property under test) are the point here, not defects.
#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_possible_truncation)]

use std::sync::Arc;

use treadmill::core::LoadTest;
use treadmill::sim::SimDuration;
use treadmill::workloads::Memcached;

fn golden_test() -> LoadTest {
    LoadTest::new(Arc::new(Memcached::default()), 250_000.0)
        .clients(4)
        .duration(SimDuration::from_millis(120))
        .warmup(SimDuration::from_millis(30))
        .seed(42)
}

#[test]
fn load_test_run_zero_is_bit_stable() {
    let report = golden_test().run(0);
    let agg = &report.aggregated;
    // Captured from the pre-refactor BinaryHeap event queue; the indexed
    // 4-ary queue must reproduce these bits exactly (FIFO tie-break and
    // RNG draw order are load-bearing).
    let golden: &[(&str, f64, u64)] = &[
        ("mean", agg.mean, 0x40501c2ac227e8da),
        ("p50", agg.p50, 0x404dd74f1448d80b),
        ("p90", agg.p90, 0x4054369d4cff4238),
        ("p95", agg.p95, 0x4057610074c6b6e9),
        ("p99", agg.p99, 0x4061dba25512ec6a),
        ("p999", agg.p999, 0x406b8673114d2f5c),
        ("min", agg.min, 0x40461d4fdf3b645a),
        ("max", agg.max, 0x40768db645a1cac1),
    ];
    for (name, value, bits) in golden {
        assert_eq!(
            value.to_bits(),
            *bits,
            "aggregated {name} drifted: got {value:?} (0x{:016x})",
            value.to_bits()
        );
    }
    assert_eq!(agg.count, 22_378);
    assert_eq!(report.run.total_responses(), 29_839);
    assert_eq!(report.run.events_executed, 298_547);
    assert_eq!(report.pooled_latencies().len(), 22_378);
    assert_eq!(report.ground_truth.len(), 22_378);
}

#[test]
fn zero_fault_config_keeps_the_golden_bits() {
    use treadmill::cluster::{FaultSpec, RetryPolicy};
    // Configuring the fault layer with all-zero probabilities and a
    // disabled retry policy must not perturb a single golden bit: the
    // fault-off path schedules no events and draws no RNG.
    let report = golden_test()
        .faults(FaultSpec::default())
        .retry_policy(RetryPolicy::default())
        .run(0);
    let agg = &report.aggregated;
    assert_eq!(agg.p50.to_bits(), 0x404dd74f1448d80b);
    assert_eq!(agg.p99.to_bits(), 0x4061dba25512ec6a);
    assert_eq!(agg.max.to_bits(), 0x40768db645a1cac1);
    assert_eq!(agg.count, 22_378);
    assert_eq!(report.run.total_responses(), 29_839);
    assert_eq!(report.run.events_executed, 298_547);
    assert!(report.run.fault_summary.is_quiet());
    assert_eq!(report.run.total_failures(), 0);
}

#[test]
fn checkpoint_resume_reproduces_the_golden_bits() {
    use treadmill::core::ResumableRun;
    // Kill-and-resume must land on the exact pinned bits: step partway,
    // snapshot, abandon the engine ("crash"), restore onto a freshly
    // built engine, finish. Any state the snapshot misses — an RNG
    // stream position, a queue tie-break, a fault cursor — shows up
    // here as a drifted bit.
    let bytes = {
        let mut run = ResumableRun::new(golden_test(), 0);
        run.step(123_456);
        run.checkpoint()
    };
    let mut resumed = ResumableRun::resume(golden_test(), 0, &bytes).unwrap();
    while resumed.step(50_000) > 0 {}
    let report = resumed.finish();
    let agg = &report.aggregated;
    assert_eq!(agg.p50.to_bits(), 0x404dd74f1448d80b);
    assert_eq!(agg.p99.to_bits(), 0x4061dba25512ec6a);
    assert_eq!(agg.max.to_bits(), 0x40768db645a1cac1);
    assert_eq!(agg.count, 22_378);
    assert_eq!(report.run.total_responses(), 29_839);
    assert_eq!(report.run.events_executed, 298_547);
    assert!(report.run.audit_findings.is_empty());
}

fn sharded_golden_test(threads: u32) -> LoadTest {
    LoadTest::new(Arc::new(Memcached::default()), 150_000.0)
        .clients(2)
        .duration(SimDuration::from_millis(80))
        .warmup(SimDuration::from_millis(20))
        .seed(42)
        .servers(4)
        .remote_every(4)
        .threads(threads)
}

#[test]
fn sharded_run_is_bit_identical_across_thread_counts() {
    // The headline guarantee of the parallel executor: thread count is
    // a pure performance knob. Same seed → same bits at 1, 2 and 8
    // workers, down to every individual record.
    let base = sharded_golden_test(1).run(0);
    assert_eq!(base.run.client_records.len(), 8, "4 servers × 2 clients");
    assert!(base.run.total_responses() > 0);
    for threads in [2u32, 8] {
        let report = sharded_golden_test(threads).run(0);
        assert_eq!(
            report.aggregated.p50.to_bits(),
            base.aggregated.p50.to_bits(),
            "p50 drifted at {threads} threads"
        );
        assert_eq!(
            report.aggregated.p99.to_bits(),
            base.aggregated.p99.to_bits(),
            "p99 drifted at {threads} threads"
        );
        assert_eq!(
            report.aggregated.max.to_bits(),
            base.aggregated.max.to_bits(),
            "max drifted at {threads} threads"
        );
        assert_eq!(report.aggregated.count, base.aggregated.count);
        assert_eq!(report.per_instance, base.per_instance);
        assert_eq!(report.run.client_records, base.run.client_records);
        assert_eq!(report.run.events_executed, base.run.events_executed);
        assert_eq!(report.run.completed_at, base.run.completed_at);
    }
}

#[test]
fn threshold_zero_screened_sweep_matches_full_factorial_bytes() {
    use std::fs;
    use treadmill::core::{
        run_factorial_sweep, run_screened_sweep, LoadTestConfig, SweepOptions,
    };
    use treadmill::inference::screen_hardware;

    // A screen with threshold 0 flags every cell, so the screened sweep
    // must degenerate to the full factorial exactly: same per-cell
    // seeds, same DES bits, byte-identical artifacts. Any divergence
    // means the screening layer leaks into the measurement (e.g. the
    // per-cell config hash picking up the screen knob).
    let config = LoadTestConfig::from_json(
        r#"{"workload": {"workload": "memcached"},
            "target_rps": 120000, "clients": 2,
            "connections_per_client": 4,
            "duration_ms": 30, "warmup_ms": 10, "seed": 42}"#,
    )
    .unwrap();
    let opts = SweepOptions {
        runs: 1,
        ..SweepOptions::default()
    };
    let base = std::env::temp_dir().join(format!("tml-golden-screen-{}", std::process::id()));
    let full_dir = base.join("full");
    let screened_dir = base.join("screened");
    let _ = fs::remove_dir_all(&base);

    run_factorial_sweep(&config, &full_dir, &opts).unwrap();
    let plan = screen_hardware(&config, 0.0).unwrap();
    assert_eq!(plan.flagged.len(), 16, "threshold 0 must flag every cell");
    run_screened_sweep(&config, &screened_dir, &opts, &plan.to_sweep_plan()).unwrap();

    let full_factorial = fs::read(full_dir.join("factorial.tsv")).unwrap();
    let screened_factorial = fs::read(screened_dir.join("factorial.tsv")).unwrap();
    assert_eq!(
        full_factorial, screened_factorial,
        "factorial.tsv bytes diverged under a flag-everything screen"
    );
    for cell in 0..16 {
        for artifact in ["summary.tsv", "attribution.tsv", "cell_0.tsv"] {
            let rel = format!("hw_{cell:02}/{artifact}");
            let full = fs::read(full_dir.join(&rel)).unwrap();
            let screened = fs::read(screened_dir.join(&rel)).unwrap();
            assert_eq!(full, screened, "{rel} bytes diverged");
        }
    }
    // The screened run writes its extra prediction artifact; the full
    // factorial must not.
    assert!(screened_dir.join("screen.tsv").exists());
    assert!(!full_dir.join("screen.tsv").exists());
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn distinct_run_indices_stay_distinct() {
    let test = golden_test();
    let a = test.run(0);
    let b = test.run(1);
    assert_ne!(
        a.aggregated.p99.to_bits(),
        b.aggregated.p99.to_bits(),
        "run indices must derive distinct seed streams"
    );
}
