//! Property tests for the service's untrusted-input surfaces.
//!
//! Two attack surfaces, two invariants:
//!
//! * the `FileStore`'s journal can be torn mid-write, bit-flipped
//!   by the storage layer, or hold duplicate lines from a replayed
//!   crash — `FileStore::open` must replay *any* such journal without
//!   panicking, and a store recovered from corruption must still
//!   accept and persist new work;
//! * the `POST /experiments` body is arbitrary bytes — every spec is
//!   either rejected with a typed [`SpecError`] or safe to hand to
//!   the engine. No HTTP-reachable configuration may panic it.

#![allow(clippy::unwrap_used)]

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use treadmill_server::store::FileStore;
use treadmill_server::{ExperimentSpec, JobStatus};

fn temp_state(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tml-fuzz-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds a realistic journal by driving a real store, then returns
/// its raw text for mutation.
fn seed_journal(dir: &Path, jobs: usize) -> String {
    let (store, _) = FileStore::open(dir).unwrap();
    for i in 0..jobs {
        let key = format!("key-{i}");
        let spec = format!("{{\"seed\":{i}}}");
        let job = match store.submit(Some(&key), &spec).unwrap() {
            treadmill_server::SubmitOutcome::Created(job)
            | treadmill_server::SubmitOutcome::Deduplicated(job) => job,
        };
        store.set_status(&job.id, JobStatus::Running, None).unwrap();
        if i % 2 == 0 {
            store.set_status(&job.id, JobStatus::Done, None).unwrap();
        }
    }
    fs::read_to_string(dir.join("jobs.jsonl")).unwrap()
}

/// Reopens a state dir whose journal holds `text`, asserting the
/// replay path neither panics nor errors, and that the recovered
/// store still functions (accepts a submission that survives another
/// reopen).
fn assert_recovers(tag: &str, text: &[u8]) {
    let dir = temp_state(tag);
    fs::write(dir.join("jobs.jsonl"), text).unwrap();
    let (store, report) = FileStore::open(&dir).unwrap();

    // A recovered store is a working store.
    let outcome = store.submit(Some("post-recovery"), "{}").unwrap();
    let id = match outcome {
        treadmill_server::SubmitOutcome::Created(job)
        | treadmill_server::SubmitOutcome::Deduplicated(job) => job.id,
    };
    drop(store);
    let (store, reread) = FileStore::open(&dir).unwrap();
    let job = store.get(&id).expect("post-recovery submission persisted");
    assert_eq!(job.status, JobStatus::Queued);
    assert!(
        reread.jobs >= report.jobs,
        "reopen lost jobs: {} -> {}",
        report.jobs,
        reread.jobs
    );
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Torn write: the journal ends mid-line at an arbitrary byte.
    #[test]
    fn truncated_journal_replays(jobs in 1usize..6, cut in 0usize..4096) {
        let dir = temp_state("trunc-seed");
        let text = seed_journal(&dir, jobs);
        let _ = fs::remove_dir_all(&dir);
        let cut = cut.min(text.len());
        if text.is_char_boundary(cut) {
            assert_recovers("trunc", &text.as_bytes()[..cut]);
        }
    }

    /// Storage-layer corruption: one byte anywhere is replaced with
    /// another printable byte (the journal stays UTF-8 readable; raw
    /// binary corruption is the arbitrary-bytes case below).
    #[test]
    fn byte_flipped_journal_replays(
        jobs in 1usize..6,
        at in 0usize..4096,
        replacement in 0x20u8..0x7f,
    ) {
        let dir = temp_state("flip-seed");
        let mut bytes = seed_journal(&dir, jobs).into_bytes();
        let _ = fs::remove_dir_all(&dir);
        if !bytes.is_empty() {
            let at = at % bytes.len();
            bytes[at] = replacement;
        }
        assert_recovers("flip", &bytes);
    }

    /// Crash-replay artifacts: a random line duplicated, plus a line of
    /// garbage spliced in.
    #[test]
    fn duplicated_and_garbage_lines_replay(
        jobs in 1usize..6,
        pick in 0usize..64,
        garbage_bytes in proptest::collection::vec(0x20u8..0x7f, 0..80),
    ) {
        let dir = temp_state("dup-seed");
        let text = seed_journal(&dir, jobs);
        let _ = fs::remove_dir_all(&dir);
        let garbage = String::from_utf8(garbage_bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let dup = lines[pick % lines.len()];
        let mut mutated = String::new();
        for (i, line) in lines.iter().enumerate() {
            mutated.push_str(line);
            mutated.push('\n');
            if i == pick % lines.len() {
                mutated.push_str(dup);
                mutated.push('\n');
                mutated.push_str(&garbage);
                mutated.push('\n');
            }
        }
        assert_recovers("dup", mutated.as_bytes());
    }

    /// Arbitrary bytes as a journal — worst case, everything is torn.
    #[test]
    fn arbitrary_journal_bytes_replay(
        bytes in proptest::collection::vec(0u8..=255, 0..2048),
    ) {
        // Interior garbage is fine; only require valid UTF-8 on the
        // path fs::read_to_string demands.
        if String::from_utf8(bytes.clone()).is_ok() {
            assert_recovers("arb", &bytes);
        }
    }

    /// Arbitrary text as a `POST /experiments` body never panics —
    /// it parses into a validated spec or a typed error.
    #[test]
    fn arbitrary_spec_body_is_typed(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let body = String::from_utf8_lossy(&bytes);
        match ExperimentSpec::from_json(&body) {
            Ok(spec) => prop_assert!(spec.validate().is_ok()),
            Err(e) => {
                // The typed surface holds: a kind, maybe a field, and
                // a rendered message.
                prop_assert!(!e.kind().is_empty());
                let _ = e.field();
                let _ = e.to_string();
            }
        }
    }

    /// No HTTP-reachable configuration panics the engine: any spec the
    /// validator accepts from this hostile generator (which straddles
    /// every validation boundary) must build and run to completion.
    /// Ranges are chosen so accepted worlds stay small enough to
    /// execute for real rather than merely type-check.
    #[test]
    fn accepted_specs_run_without_panicking(
        rps_case in 0usize..8,
        rps in 1.0..300_000.0f64,
        clients in 0usize..5,
        connections in 0u32..7,
        duration_ms in 0u64..80,
        warmup_ms in 0u64..100,
        servers in 0u32..4,
        threads in 0u32..3,
        remote_every in 0u32..6,
        seed in 0u64..=u64::MAX,
        runs in 0u64..4,
        ckpt_case in 0usize..4,
        ckpt_events in 0u64..10,
    ) {
        // Poor man's prop_oneof: a selector steers some draws onto the
        // hostile special cases the validator must reject.
        let target_rps = match rps_case {
            0 => "null".to_string(), // deserializes to NaN or errors
            1 => "1e999".to_string(), // overflows to infinity
            2 => "-1".to_string(),
            3 => "0".to_string(),
            _ => format!("{rps}"),
        };
        let ckpt_events = match ckpt_case {
            0 => ckpt_events,
            1 => 1_000,
            _ => 25_000,
        };
        let body = format!(
            r#"{{"config":{{"workload":{{"workload":"memcached"}},
                "target_rps":{target_rps},"clients":{clients},
                "connections_per_client":{connections},
                "duration_ms":{duration_ms},"warmup_ms":{warmup_ms},
                "seed":{seed},"servers":{servers},"threads":{threads},
                "remote_every":{remote_every}}},
                "runs":{runs},"ckpt_events":{ckpt_events}}}"#
        );
        if let Ok(spec) = ExperimentSpec::from_json(&body) {
            // Accepted ⇒ must execute cleanly. The harness turns any
            // panic below into a counterexample.
            let test = spec.config.build().expect("validated spec must build");
            let report = test.run(0);
            prop_assert!(report.aggregated.p99.is_finite() || report.aggregated.p99.is_nan());
        }
    }
}
