//! Chaos soak: SIGKILL a sweep at randomized (seeded) points, resume,
//! and demand byte-identical artifacts.
//!
//! The crash-tolerance claim is end-to-end: a `treadmill-cli sweep`
//! process killed at *any* instant — mid-cell, mid-checkpoint,
//! mid-journal-append — must, after `--resume`, produce `cell_*.tsv`
//! and `summary.tsv` files byte-for-byte identical to a sweep that was
//! never interrupted. This test runs the real binary as a child
//! process and kills it with SIGKILL (no chance to clean up), so every
//! durability mechanism is exercised for real: fsynced journal
//! appends, atomic tmp-then-rename artifact writes, checkpoint
//! envelopes, torn-line tolerance.
//!
//! Kill points are drawn from a fixed-seed LCG, not wall-clock
//! entropy, so a failure reproduces. The kill budget is deliberately
//! small for CI; raise `TML_CHAOS_KILLS` locally for a longer soak.

#![allow(clippy::unwrap_used)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

/// Deterministic kill-delay stream (splitmix-style LCG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

fn cli() -> &'static str {
    env!("CARGO_BIN_EXE_treadmill-cli")
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tml-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_config(dir: &Path) -> PathBuf {
    let path = dir.join("config.json");
    fs::write(
        &path,
        r#"{
            "workload": { "workload": "memcached" },
            "target_rps": 300000,
            "clients": 2,
            "duration_ms": 150,
            "warmup_ms": 30
        }"#,
    )
    .unwrap();
    path
}

fn sweep_args(config: &Path, out: &Path, resume: bool) -> Vec<String> {
    let mut args = vec![
        "sweep".to_string(),
        config.display().to_string(),
        "--out".to_string(),
        out.display().to_string(),
        "--runs".to_string(),
        "3".to_string(),
        "--seed".to_string(),
        "7".to_string(),
        "--ckpt-events".to_string(),
        "25000".to_string(),
    ];
    if resume {
        args.push("--resume".to_string());
    }
    args
}

fn kill_budget() -> u32 {
    std::env::var("TML_CHAOS_KILLS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// Cells the journal in `dir` left `running` with no `done` line: the
/// cells a kill caught in flight.
fn cells_in_flight(dir: &Path) -> usize {
    let journal = fs::read_to_string(dir.join("manifest.jsonl")).unwrap_or_default();
    let mut running = std::collections::BTreeSet::new();
    for line in journal.lines() {
        let Some(cell) = line
            .split("\"cell\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue; // a line torn by the kill
        };
        if line.contains("\"status\":\"running\"") {
            running.insert(cell);
        } else if line.contains("\"status\":\"done\"") {
            running.remove(&cell);
        }
    }
    running.len()
}

/// What a chaos loop did.
struct Chaos {
    /// Kills that landed before the sweep finished.
    kills: u32,
    /// The most cells any landed kill left in flight.
    max_in_flight: usize,
}

/// Kills a sweep over `config` at seeded delays until the kill budget
/// is spent, then lets the final resume finish.
fn chaos_loop(config: &Path, chaos_dir: &Path, budget: u32, lcg_seed: u64) -> Chaos {
    let mut rng = Lcg(lcg_seed);
    let mut kills = 0;
    let mut max_in_flight = 0;
    let mut resume = false;
    loop {
        let mut child = Command::new(cli())
            .args(sweep_args(config, chaos_dir, resume))
            .spawn()
            .expect("spawn chaos sweep");
        resume = true;
        if kills >= budget {
            let status = child.wait().expect("wait for final sweep");
            assert!(status.success(), "final resumed sweep failed: {status}");
            break;
        }
        let delay_ms = 20 + rng.next() % 240;
        std::thread::sleep(Duration::from_millis(delay_ms));
        match child.try_wait().expect("poll child") {
            Some(status) => {
                // Finished before the kill fired — the sweep is done.
                assert!(status.success(), "chaos sweep failed: {status}");
                break;
            }
            None => {
                child.kill().expect("SIGKILL child");
                let _ = child.wait();
                kills += 1;
                max_in_flight = max_in_flight.max(cells_in_flight(chaos_dir));
            }
        }
    }
    Chaos {
        kills,
        max_in_flight,
    }
}

#[test]
fn sigkilled_sweep_resumes_to_byte_identical_artifacts() {
    let root = temp_root("soak");
    let config = write_config(&root);

    // Golden: one uninterrupted sweep.
    let golden_dir = root.join("golden");
    let status = Command::new(cli())
        .args(sweep_args(&config, &golden_dir, false))
        .status()
        .expect("spawn golden sweep");
    assert!(status.success(), "golden sweep failed: {status}");

    // Chaos: kill the sweep at seeded delays, resume, repeat. After the
    // kill budget is spent, let the final resume run to completion.
    let chaos_dir = root.join("chaos");
    let Chaos {
        kills,
        max_in_flight,
    } = chaos_loop(&config, &chaos_dir, kill_budget(), 0x5EED_CAFE);
    // With two or more cores the sweep runs cells side by side, so the
    // soak must have caught several cells in flight at once: the
    // multi-cell resume path is what it exercises.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 && kills > 0 {
        assert!(
            max_in_flight >= 2,
            "no landed kill left two cells running ({kills} kills, at most \
             {max_in_flight} in flight)"
        );
    }

    // The whole point: bit-identical artifacts despite the carnage —
    // including the per-cell tail-attribution files and the sweep-wide
    // attribution rollup served by treadmill-serve.
    for artifact in [
        "cell_0.tsv",
        "cell_1.tsv",
        "cell_2.tsv",
        "cell_0.attr.tsv",
        "cell_1.attr.tsv",
        "cell_2.attr.tsv",
        "summary.tsv",
        "attribution.tsv",
    ] {
        let golden = fs::read(golden_dir.join(artifact))
            .unwrap_or_else(|e| panic!("golden {artifact}: {e}"));
        let chaos = fs::read(chaos_dir.join(artifact))
            .unwrap_or_else(|e| panic!("chaos {artifact}: {e}"));
        assert_eq!(
            golden, chaos,
            "{artifact} differs between uninterrupted and killed-and-resumed sweeps \
             ({kills} kills)"
        );
    }

    // Provenance headers survive on every artifact.
    for artifact in ["cell_0.tsv", "summary.tsv"] {
        let text = fs::read_to_string(chaos_dir.join(artifact)).unwrap();
        let header = text.lines().next().unwrap_or_default();
        assert!(
            header.starts_with("# seed=") && header.contains("config_hash="),
            "{artifact} lacks a provenance header: {header:?}"
        );
        assert!(header.contains("version="), "{artifact} header: {header:?}");
    }

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn sigkilled_sharded_multithreaded_sweep_resumes_byte_identical() {
    // Same end-to-end crash soak, but the cells run on the sharded
    // parallel executor (3 servers, 2 worker threads). Checkpoints land
    // only at synchronization-round boundaries, so a SIGKILL during a
    // multi-threaded round must resume onto the same bits.
    let root = temp_root("soak-sharded");
    let config = root.join("config.json");
    fs::write(
        &config,
        r#"{
            "workload": { "workload": "memcached" },
            "target_rps": 200000,
            "clients": 2,
            "duration_ms": 100,
            "warmup_ms": 25,
            "servers": 3,
            "threads": 2,
            "remote_every": 4
        }"#,
    )
    .unwrap();

    let golden_dir = root.join("golden");
    let status = Command::new(cli())
        .args(sweep_args(&config, &golden_dir, false))
        .status()
        .expect("spawn golden sharded sweep");
    assert!(status.success(), "golden sharded sweep failed: {status}");

    let chaos_dir = root.join("chaos");
    // Half the kill budget: the sharded soak triples the per-cell event
    // count, and the unsharded soak above already covers the long tail.
    let kills = chaos_loop(&config, &chaos_dir, kill_budget().div_ceil(2), 0xC0FFEE).kills;

    for artifact in [
        "cell_0.tsv",
        "cell_1.tsv",
        "cell_2.tsv",
        "summary.tsv",
        "attribution.tsv",
    ] {
        let golden = fs::read(golden_dir.join(artifact))
            .unwrap_or_else(|e| panic!("golden {artifact}: {e}"));
        let chaos = fs::read(chaos_dir.join(artifact))
            .unwrap_or_else(|e| panic!("chaos {artifact}: {e}"));
        assert_eq!(
            golden, chaos,
            "{artifact} differs between uninterrupted and killed-and-resumed \
             sharded sweeps ({kills} kills)"
        );
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn sigterm_interrupts_gracefully_and_resume_is_byte_identical() {
    // The CLI installs SIGTERM/SIGINT handlers: an interrupted sweep
    // seals the in-flight checkpoint and flushes the journal, exits 0,
    // and `--resume` continues onto the exact bytes an uninterrupted
    // sweep would have produced — the same drain plumbing
    // treadmill-serve uses.
    let root = temp_root("sigterm");
    let config = write_config(&root);

    let golden_dir = root.join("golden");
    let status = Command::new(cli())
        .args(sweep_args(&config, &golden_dir, false))
        .status()
        .expect("spawn golden sweep");
    assert!(status.success(), "golden sweep failed: {status}");

    let out = root.join("interrupted");
    let mut child = Command::new(cli())
        .args(sweep_args(&config, &out, false))
        .spawn()
        .expect("spawn sweep to interrupt");
    std::thread::sleep(Duration::from_millis(120));
    let finished_early = match child.try_wait().expect("poll child") {
        Some(status) => {
            assert!(status.success(), "sweep failed before SIGTERM: {status}");
            true
        }
        None => {
            let term = Command::new("kill")
                .arg("-TERM")
                .arg(child.id().to_string())
                .status()
                .expect("send SIGTERM");
            assert!(term.success(), "kill -TERM failed");
            let status = child.wait().expect("wait for interrupted sweep");
            // Graceful interruption is a clean exit, not a crash.
            assert!(status.success(), "SIGTERM'd sweep exited {status}");
            false
        }
    };

    if !finished_early {
        let status = Command::new(cli())
            .args(sweep_args(&config, &out, true))
            .status()
            .expect("spawn resume after SIGTERM");
        assert!(status.success(), "resume after SIGTERM failed: {status}");
    }

    for artifact in ["cell_0.tsv", "cell_1.tsv", "cell_2.tsv", "summary.tsv", "attribution.tsv"] {
        let golden = fs::read(golden_dir.join(artifact)).unwrap();
        let interrupted = fs::read(out.join(artifact)).unwrap();
        assert_eq!(
            golden, interrupted,
            "{artifact} differs between uninterrupted and SIGTERM'd-then-resumed sweeps"
        );
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn resume_of_a_finished_sweep_is_a_no_op() {
    let root = temp_root("noop");
    let config = write_config(&root);
    let out = root.join("out");
    let status = Command::new(cli())
        .args(sweep_args(&config, &out, false))
        .status()
        .expect("spawn sweep");
    assert!(status.success());
    let before = fs::read(out.join("summary.tsv")).unwrap();

    let status = Command::new(cli())
        .args(sweep_args(&config, &out, true))
        .status()
        .expect("spawn resume");
    assert!(status.success(), "resume of finished sweep failed");
    let after = fs::read(out.join("summary.tsv")).unwrap();
    assert_eq!(before, after, "no-op resume rewrote the summary differently");
    let _ = fs::remove_dir_all(&root);
}
