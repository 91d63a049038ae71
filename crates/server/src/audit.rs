//! Append-only audit log.
//!
//! Every run-affecting event appends one fsynced JSON line to
//! `audit.jsonl`: what happened, to which job, under which seed and
//! configuration hash, against which snapshot format version. The log
//! is never rewritten or truncated — it is the service's provenance
//! trail, answering "which bits produced this artifact" long after
//! the job itself is gone. Like the other journals it goes through
//! [`append_line`], and a line a crash tore is sealed on open.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use treadmill_core::sweep::{append_line, seal_torn_tail};
use treadmill_sim_core::snapshot::SNAPSHOT_VERSION;

use crate::jsonx::Obj;

/// One audit line.
#[derive(Debug)]
pub struct AuditEntry<'a> {
    /// Wall-clock milliseconds since the Unix epoch. Provenance only —
    /// nothing deterministic reads it back.
    pub unix_ms: u64,
    /// Event tag (`submitted`, `run-started`, `run-done`,
    /// `run-interrupted`, `run-failed`, `recovered`).
    pub event: &'a str,
    /// Job id.
    pub job: &'a str,
    /// The experiment's master seed.
    pub seed: u64,
    /// FNV-1a hash of the configuration JSON — matches the sweep
    /// manifest's `config_hash`.
    pub config_hash: &'a str,
    /// Checkpoint envelope version the run writes ([`SNAPSHOT_VERSION`]).
    pub snapshot_version: u32,
    /// Free-form detail (`fresh` / `resume` / an error message).
    pub detail: &'a str,
}

impl AuditEntry<'_> {
    /// One-line JSON encoding (the journal record format).
    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("unix_ms", self.unix_ms)
            .str("event", self.event)
            .str("job", self.job)
            .u64("seed", self.seed)
            .str("config_hash", self.config_hash)
            .u64("snapshot_version", u64::from(self.snapshot_version))
            .str("detail", self.detail)
            .build()
    }
}

/// The append-only log writer.
#[derive(Debug)]
pub struct AuditLog {
    path: PathBuf,
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

impl AuditLog {
    /// The audit log at `state_dir/audit.jsonl`. A final line that a
    /// crash tore mid-write is sealed first, so the next event starts
    /// a line of its own instead of being glued to the debris.
    ///
    /// # Errors
    ///
    /// Returns the filesystem error if the log's torn tail cannot be
    /// sealed.
    pub fn open(state_dir: &Path) -> io::Result<AuditLog> {
        let path = state_dir.join("audit.jsonl");
        seal_torn_tail(&path)?;
        Ok(AuditLog { path })
    }

    /// Where the log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event, fsynced. Stamps `unix_ms` and
    /// `snapshot_version` itself.
    pub fn record(
        &self,
        event: &str,
        job: &str,
        seed: u64,
        config_hash: &str,
        detail: &str,
    ) -> io::Result<()> {
        let entry = AuditEntry {
            unix_ms: unix_ms(),
            event,
            job,
            seed,
            config_hash,
            snapshot_version: SNAPSHOT_VERSION,
            detail,
        };
        append_line(&self.path, &entry.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("tml-audit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn records_are_appended_with_provenance_fields() {
        let dir = fresh_dir("append");
        let log = AuditLog::open(&dir).unwrap();
        log.record("submitted", "exp-000000", 7, "00ff", "fresh").unwrap();
        log.record("run-done", "exp-000000", 7, "00ff", "").unwrap();
        let text = fs::read_to_string(log.path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["event"], "submitted");
        assert_eq!(first["seed"], 7u64);
        assert_eq!(first["config_hash"], "00ff");
        assert_eq!(first["snapshot_version"], u64::from(SNAPSHOT_VERSION));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_seals_a_torn_tail_before_the_next_event() {
        let dir = fresh_dir("torn");
        // A SIGKILL mid-append leaves a fragment with no newline.
        fs::write(dir.join("audit.jsonl"), "{\"unix_ms\":1,\"event\":\"subm").unwrap();
        let log = AuditLog::open(&dir).unwrap();
        log.record("run-done", "exp-000001", 9, "abcd", "").unwrap();
        let text = fs::read_to_string(log.path()).unwrap();
        let last = text.lines().last().unwrap();
        let parsed: serde_json::Value = serde_json::from_str(last).unwrap();
        assert_eq!(parsed["event"], "run-done");
        assert_eq!(parsed["job"], "exp-000001");
        let _ = fs::remove_dir_all(&dir);
    }
}
