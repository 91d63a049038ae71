//! Job persistence: [`FileStore`], whose `jobs.jsonl` journal reuses
//! the crash-safety recipe of the sweep manifest (`core/src/sweep.rs`):
//! append-only JSON lines, fsynced per append, torn trailing lines
//! tolerated, ignored on replay and sealed before the next append,
//! duplicate lines idempotent.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use serde::{Deserialize, Serialize};
use treadmill_core::sweep::{append_line, seal_torn_tail};

use crate::job::JobStatus;

/// Recovers a poisoned mutex: the protected state is a plain map with
/// no invariants that a panicking writer could half-apply, so the
/// service degrades gracefully instead of cascading the panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One stored job.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredJob {
    /// Stable identifier (`exp-NNNNNN`).
    pub id: String,
    /// The idempotency key it was submitted under, if any.
    pub key: Option<String>,
    /// The validated spec, as canonical JSON.
    pub spec_json: String,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Failure detail, for `failed` jobs.
    pub detail: Option<String>,
}

/// What a submission did.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// A new job was created.
    Created(StoredJob),
    /// The idempotency key matched an existing job; nothing was
    /// created and the original is returned.
    Deduplicated(StoredJob),
}

/// One journal line: a job state transition. Submission lines carry
/// the spec (and key); later transitions carry only the new status.
#[derive(Debug, Serialize, Deserialize)]
struct JournalLine {
    seq: u64,
    id: String,
    status: String,
    #[serde(default)]
    key: Option<String>,
    #[serde(default)]
    spec: Option<String>,
    #[serde(default)]
    detail: Option<String>,
}

/// What journal replay found.
#[derive(Debug, Default, Clone)]
pub struct ReplayReport {
    /// Jobs reconstructed.
    pub jobs: usize,
    /// Torn / unparseable lines ignored (crash debris).
    pub torn_lines: usize,
    /// Status lines referencing ids with no submission line (a torn
    /// submission followed by later appends); ignored.
    pub orphan_lines: usize,
    /// Ids of jobs left `queued` or `running` — work to re-enqueue.
    pub pending: Vec<String>,
}

/// Durable store: every transition is one fsynced JSON line in
/// `jobs.jsonl`. [`FileStore::open`] replays the journal, so a
/// SIGKILL'd server reconstructs exactly the admitted state.
pub struct FileStore {
    journal: PathBuf,
    state: Mutex<State>,
}

/// The jobs the journal replays into, plus the next ids to hand out.
#[derive(Default)]
struct State {
    next_job: u64,
    seq: u64,
    jobs: BTreeMap<String, StoredJob>,
    by_key: BTreeMap<String, String>,
}

impl State {
    fn set_status(&mut self, id: &str, status: JobStatus, detail: Option<&str>) -> bool {
        match self.jobs.get_mut(id) {
            Some(job) => {
                job.status = status;
                job.detail = detail.map(str::to_string);
                true
            }
            None => false,
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }
}

impl FileStore {
    /// Opens (or creates) the journal under `state_dir` and replays it.
    ///
    /// # Errors
    ///
    /// Returns the filesystem error if the journal cannot be read or
    /// its torn tail cannot be sealed.
    pub fn open(state_dir: &Path) -> io::Result<(FileStore, ReplayReport)> {
        fs::create_dir_all(state_dir)?;
        let journal = state_dir.join("jobs.jsonl");
        let (state, report) = match fs::read_to_string(&journal) {
            Ok(text) => {
                seal_torn_tail(&journal)?;
                replay(&text)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                (State::default(), ReplayReport::default())
            }
            Err(e) => return Err(e),
        };
        let store = FileStore {
            journal,
            state: Mutex::new(state),
        };
        Ok((store, report))
    }

    /// Admits a job, or dedups it by idempotency `key`.
    ///
    /// # Errors
    ///
    /// Returns the filesystem error if the submission line cannot be
    /// journaled.
    pub fn submit(&self, key: Option<&str>, spec_json: &str) -> io::Result<SubmitOutcome> {
        let mut state = lock(&self.state);
        if let Some(job) = key
            .and_then(|key| state.by_key.get(key))
            .and_then(|id| state.jobs.get(id))
        {
            return Ok(SubmitOutcome::Deduplicated(job.clone()));
        }
        let id = format!("exp-{:06}", state.next_job);
        state.next_job += 1;
        let job = StoredJob {
            id: id.clone(),
            key: key.map(str::to_string),
            spec_json: spec_json.to_string(),
            status: JobStatus::Queued,
            detail: None,
        };
        if let Some(key) = key {
            state.by_key.insert(key.to_string(), id.clone());
        }
        state.jobs.insert(id, job.clone());
        self.append(&JournalLine {
            seq: state.next_seq(),
            id: job.id.clone(),
            status: job.status.as_str().to_string(),
            key: job.key.clone(),
            spec: Some(job.spec_json.clone()),
            detail: None,
        })?;
        Ok(SubmitOutcome::Created(job))
    }

    /// Records a lifecycle transition; a no-op for an unknown id.
    ///
    /// # Errors
    ///
    /// Returns the filesystem error if the transition cannot be
    /// journaled.
    pub fn set_status(
        &self,
        id: &str,
        status: JobStatus,
        detail: Option<&str>,
    ) -> io::Result<()> {
        let mut state = lock(&self.state);
        if !state.set_status(id, status, detail) {
            return Ok(());
        }
        self.append(&JournalLine {
            seq: state.next_seq(),
            id: id.to_string(),
            status: status.as_str().to_string(),
            key: None,
            spec: None,
            detail: detail.map(str::to_string),
        })
    }

    /// Fetches one job.
    pub fn get(&self, id: &str) -> Option<StoredJob> {
        lock(&self.state).jobs.get(id).cloned()
    }

    fn append(&self, line: &JournalLine) -> io::Result<()> {
        append_line(&self.journal, &serde_json::to_string(line).map_err(io::Error::other)?)
    }
}

/// Replays journal text into store state. Torn lines (no trailing
/// newline, unparseable JSON) and status lines for unknown ids are
/// counted and skipped; duplicate submissions of the same id are
/// idempotent.
fn replay(text: &str) -> (State, ReplayReport) {
    let mut state = State::default();
    let mut report = ReplayReport::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(entry) = serde_json::from_str::<JournalLine>(line) else {
            report.torn_lines += 1;
            continue;
        };
        state.seq = state.seq.max(entry.seq.saturating_add(1));
        let Some(status) = JobStatus::parse(&entry.status) else {
            report.torn_lines += 1;
            continue;
        };
        match entry.spec {
            Some(spec) => {
                // A submission line. Duplicates are idempotent: the
                // first wins (a re-sent line cannot change the spec).
                if !state.jobs.contains_key(&entry.id) {
                    let job = StoredJob {
                        id: entry.id.clone(),
                        key: entry.key.clone(),
                        spec_json: spec,
                        status,
                        detail: entry.detail,
                    };
                    if let Some(key) = &entry.key {
                        state.by_key.insert(key.clone(), entry.id.clone());
                    }
                    if let Some(n) = entry
                        .id
                        .strip_prefix("exp-")
                        .and_then(|n| n.parse::<u64>().ok())
                    {
                        state.next_job = state.next_job.max(n + 1);
                    }
                    state.jobs.insert(entry.id, job);
                }
            }
            None => {
                if !state.set_status(&entry.id, status, entry.detail.as_deref()) {
                    report.orphan_lines += 1;
                }
            }
        }
    }
    report.jobs = state.jobs.len();
    report.pending = state
        .jobs
        .values()
        .filter(|j| !j.status.is_terminal())
        .map(|j| j.id.clone())
        .collect();
    (state, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("tml-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn submit_dedup_and_status_roundtrip_through_reopen() {
        let dir = tmp_dir("roundtrip");
        let (store, report) = FileStore::open(&dir).unwrap();
        assert_eq!(report.jobs, 0);

        let SubmitOutcome::Created(job) =
            store.submit(Some("k1"), "{\"spec\":1}").unwrap()
        else {
            panic!("expected creation");
        };
        assert_eq!(job.id, "exp-000000");
        let SubmitOutcome::Deduplicated(dup) =
            store.submit(Some("k1"), "{\"spec\":1}").unwrap()
        else {
            panic!("expected dedup");
        };
        assert_eq!(dup.id, job.id);
        store
            .set_status(&job.id, JobStatus::Running, None)
            .unwrap();

        let (reopened, report) = FileStore::open(&dir).unwrap();
        assert_eq!(report.jobs, 1);
        assert_eq!(report.pending, vec!["exp-000000".to_string()]);
        let job = reopened.get("exp-000000").unwrap();
        assert_eq!(job.status, JobStatus::Running);
        assert_eq!(job.key.as_deref(), Some("k1"));

        // Dedup and id allocation both survive the reopen.
        let SubmitOutcome::Deduplicated(_) =
            reopened.submit(Some("k1"), "{}").unwrap()
        else {
            panic!("dedup lost across reopen");
        };
        let SubmitOutcome::Created(next) =
            reopened.submit(None, "{}").unwrap()
        else {
            panic!("expected creation");
        };
        assert_eq!(next.id, "exp-000001");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_line_is_ignored() {
        let dir = tmp_dir("torn");
        let (store, _) = FileStore::open(&dir).unwrap();
        store.submit(None, "{}").unwrap();
        let journal = dir.join("jobs.jsonl");
        let mut text = fs::read_to_string(&journal).unwrap();
        text.push_str("{\"seq\":99,\"id\":\"exp-0000"); // torn mid-write
        fs::write(&journal, text).unwrap();

        let (_, report) = FileStore::open(&dir).unwrap();
        assert_eq!(report.jobs, 1);
        assert_eq!(report.torn_lines, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_for_unknown_id_is_orphaned_not_fatal() {
        let dir = tmp_dir("orphan");
        fs::write(
            dir.join("jobs.jsonl"),
            "{\"seq\":0,\"id\":\"exp-000007\",\"status\":\"done\"}\n",
        )
        .unwrap();
        let (store, report) = FileStore::open(&dir).unwrap();
        assert_eq!(report.orphan_lines, 1);
        assert!(lock(&store.state).jobs.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
