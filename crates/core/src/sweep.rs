//! Crash-tolerant sweep orchestration.
//!
//! A sweep executes `runs` repeated cells of one load-test
//! configuration (fresh server start per cell, per the repeated-run
//! procedure) and persists everything needed to survive a SIGKILL at
//! any instant:
//!
//! * **manifest journal** — `manifest.jsonl` in the output directory
//!   records one line per state transition (`pending` → `running` →
//!   `done`), each carrying the cell's derived seed and the
//!   configuration hash. Appends are serialised per journal and
//!   fsynced; a line torn by a crash mid-write is tolerated, ignored
//!   on replay and sealed with a newline before the next append.
//! * **atomic artifacts** — every `.tsv` / `.ckpt` is written to a
//!   `*.tmp` sibling, fsynced, then renamed into place, so a reader
//!   (or a resumed sweep) never observes a half-written file.
//! * **checkpoints** — each running cell snapshots its full state
//!   (engine + streaming estimators, see
//!   [`crate::resumable::ResumableRun`]) every `ckpt_events` events,
//!   streamed straight into its `*.tmp` file through a bounded staging
//!   buffer.
//! * **resume** — [`SweepOptions::resume`] replays the journal, skips
//!   cells already `done` (their artifacts are left untouched),
//!   resumes every in-flight cell from its checkpoint, and runs the
//!   rest. Because checkpointed resume is bit-identical, the final
//!   artifacts are byte-for-byte the same as an uninterrupted sweep's.
//!
//! **Parallel cells.** Simulated cells share nothing, so a job's cells
//! run side by side: every (directory, cell) pair of a plain or
//! factorial sweep goes on one work list, executed by the crate's one
//! cell scheduler ([`crate::pool::run_indexed`]) on one worker per
//! available core. Per-cell results are folded back in canonical
//! order, so `summary.tsv`, `attribution.tsv` and `factorial.tsv` — and
//! every other artifact — are byte-identical at any worker count; only
//! the journal's line order follows the workers' interleaving.
//!
//! Each cell's quantiles are journaled as exact `f64` bit patterns, so
//! `summary.tsv` rows for skipped cells reproduce without re-running.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

use serde::{Deserialize, Serialize};
use treadmill_sim_core::fnv1a64;

use crate::aggregation::tail_composition;
use crate::config::{ConfigError, LoadTestConfig};
use crate::pool;
use crate::report::health_warnings;
use crate::resumable::ResumableRun;
use crate::runner::{LoadTest, LoadTestReport};

/// Progress notifications emitted by [`run_sweep_controlled`] as the
/// sweep advances — the hook a long-running service uses to stream
/// per-cell status to clients without polling artifact files.
#[derive(Debug, Clone)]
pub enum SweepEvent {
    /// A cell was skipped because the journal already marks it done.
    CellSkipped {
        /// Cell index.
        cell: u64,
    },
    /// A cell started executing (fresh or from a checkpoint).
    CellStarted {
        /// Cell index.
        cell: u64,
        /// The cell's derived seed.
        seed: u64,
        /// Events already executed when (re)starting — 0 for a fresh
        /// cell, the checkpoint position for a resumed one.
        resumed_at_events: u64,
    },
    /// A checkpoint of the running cell was sealed to disk.
    Checkpointed {
        /// Cell index.
        cell: u64,
        /// Events executed so far.
        events: u64,
        /// Post-warm-up samples folded into the tail monitor so far.
        samples: u64,
        /// The live streaming p99 estimate (µs).
        p99_us: f64,
    },
    /// A cell finished and its artifacts were written.
    CellDone {
        /// Cell index.
        cell: u64,
        /// Measurement-window samples in the aggregate.
        samples: u64,
        /// The cell's aggregated p99 (µs).
        p99_us: f64,
    },
    /// The sweep stopped early because cancellation was requested.
    /// Sent once per in-flight cell, whose checkpoint is sealed so
    /// `--resume` continues it, or once with `None` when no cell was
    /// in flight.
    Interrupted {
        /// The cell that was in flight (if any was running).
        cell: Option<u64>,
    },
}

/// Cooperative control handles for [`run_sweep_controlled`].
///
/// `cancel` is polled at every checkpoint boundary and before each
/// cell starts; once observed `true`, every in-flight cell seals its
/// checkpoint, the journal is flushed (appends are fsynced as written),
/// and the sweep returns with [`SweepOutcome::interrupted`] set —
/// exactly the state a SIGKILL would leave, minus the lost batches.
/// `progress` receives a [`SweepEvent`] for every state transition.
/// Cells run on several workers, so the sink is called from any of
/// them, one event at a time; each cell's events arrive in order.
#[derive(Default)]
pub struct SweepControl<'a> {
    /// Cancellation flag shared with a signal handler or drain path.
    pub cancel: Option<&'a AtomicBool>,
    /// Progress sink.
    pub progress: Option<&'a mut (dyn FnMut(SweepEvent) + Send)>,
}

impl fmt::Debug for SweepControl<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepControl")
            .field("cancel", &self.cancel.map(|c| c.load(Ordering::Relaxed)))
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

/// Knobs for [`run_sweep_controlled`].
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Cells (repeated runs) to execute.
    pub runs: u64,
    /// Events between checkpoints of the running cell. Smaller values
    /// lose less work to a crash but cost more (a snapshot serialises
    /// every completed record so far).
    pub ckpt_events: u64,
    /// Replay the journal and continue a crashed sweep instead of
    /// starting fresh.
    pub resume: bool,
    /// Event-heap ceiling for the per-checkpoint invariant audit.
    pub max_pending: usize,
}

/// The default checkpoint interval, sized so checkpointing costs a few
/// percent of a typical cell (`tests/checkpoint_budget.rs` holds it
/// to at most 5%).
pub const DEFAULT_CKPT_EVENTS: u64 = 1_000_000;

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            runs: 6,
            ckpt_events: DEFAULT_CKPT_EVENTS,
            resume: false,
            max_pending: 10_000_000,
        }
    }
}

/// One finished cell's headline numbers, decoded from the journal —
/// what [`SweepOutcome::cells`] reports per repeated run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellSummary {
    /// Cell (repeated-run) index.
    pub cell: u64,
    /// The cell's derived seed.
    pub seed: u64,
    /// Measurement-window samples.
    pub samples: u64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 90th percentile, µs.
    pub p90_us: f64,
    /// 95th percentile, µs.
    pub p95_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
}

/// What [`run_sweep_controlled`] did, for operator-facing summaries.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Cells executed (fresh or resumed) this invocation.
    pub executed: Vec<u64>,
    /// Cells skipped because the journal already marks them done.
    pub skipped: Vec<u64>,
    /// Cells resumed from their checkpoints, in cell order.
    pub resumed_cells: Vec<u64>,
    /// Warnings accumulated across cells (audit findings, health
    /// checks, recovery notes).
    pub warnings: Vec<String>,
    /// Path of the sweep summary artifact.
    pub summary_path: PathBuf,
    /// True if the sweep stopped early on a cancellation request. The
    /// journal and every in-flight cell's checkpoint are sealed; running
    /// again with [`SweepOptions::resume`] continues where it stopped.
    pub interrupted: bool,
    /// Every known-done cell's headline numbers (executed this
    /// invocation or replayed from the journal), in cell order.
    pub cells: Vec<CellSummary>,
}

/// Errors from sweep orchestration.
#[derive(Debug)]
pub enum SweepError {
    /// Filesystem trouble.
    Io(io::Error),
    /// The configuration does not build.
    Config(ConfigError),
    /// A screened-sweep plan is malformed (wrong cell count, bad
    /// indices) and cannot drive the factorial orchestration.
    Screen {
        /// Why the plan is unusable.
        message: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Io(e) => write!(f, "sweep I/O error: {e}"),
            SweepError::Config(e) => write!(f, "sweep configuration error: {e}"),
            SweepError::Screen { message } => write!(f, "sweep screen plan error: {message}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Io(e) => Some(e),
            SweepError::Config(e) => Some(e),
            SweepError::Screen { .. } => None,
        }
    }
}

impl From<io::Error> for SweepError {
    fn from(e: io::Error) -> Self {
        SweepError::Io(e)
    }
}

impl From<ConfigError> for SweepError {
    fn from(e: ConfigError) -> Self {
        SweepError::Config(e)
    }
}

/// One journal line: a cell state transition.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ManifestLine {
    cell: u64,
    status: String,
    seed: u64,
    config_hash: String,
    #[serde(default)]
    result: Option<CellResult>,
}

/// A finished cell's headline numbers, journaled as exact bit patterns
/// (`%016x` of [`f64::to_bits`]) so replay is bit-exact.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CellResult {
    samples: u64,
    mean_bits: String,
    p50_bits: String,
    p90_bits: String,
    p95_bits: String,
    p99_bits: String,
    p999_bits: String,
}

impl CellResult {
    fn from_report(report: &LoadTestReport) -> Self {
        let agg = &report.aggregated;
        CellResult {
            samples: agg.count,
            mean_bits: bits(agg.mean),
            p50_bits: bits(agg.p50),
            p90_bits: bits(agg.p90),
            p95_bits: bits(agg.p95),
            p99_bits: bits(agg.p99),
            p999_bits: bits(agg.p999),
        }
    }
}

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn from_bits(s: &str) -> f64 {
    u64::from_str_radix(s, 16).map_or(f64::NAN, f64::from_bits)
}

/// The journal replayed into per-cell knowledge.
#[derive(Debug, Default)]
struct Manifest {
    done: BTreeMap<u64, CellResult>,
    running: std::collections::BTreeSet<u64>,
}

/// Replays the journal at `path`, sealing a torn final line first.
fn read_manifest(path: &Path, config_hash: &str) -> io::Result<(Manifest, Vec<String>)> {
    let mut manifest = Manifest::default();
    let mut warnings = Vec::new();
    let Ok(contents) = fs::read_to_string(path) else {
        return Ok((manifest, warnings));
    };
    seal_torn_tail(path)?;
    for line in contents.lines() {
        if line.trim().is_empty() {
            continue;
        }
        // A SIGKILL can tear the final line mid-write; skip anything
        // that does not parse rather than refusing to resume.
        let Ok(entry) = serde_json::from_str::<ManifestLine>(line) else {
            warnings.push("manifest has a torn/unparseable line (ignored)".to_string());
            continue;
        };
        if entry.config_hash != config_hash {
            warnings.push(format!(
                "manifest line for cell {} was journaled under config hash {} \
                 (current {config_hash}); ignoring it",
                entry.cell, entry.config_hash
            ));
            continue;
        }
        match entry.status.as_str() {
            "done" => {
                if let Some(result) = entry.result {
                    manifest.running.remove(&entry.cell);
                    manifest.done.insert(entry.cell, result);
                }
            }
            "running" => {
                manifest.running.insert(entry.cell);
            }
            _ => {}
        }
    }
    Ok((manifest, warnings))
}

/// Seals an append-only journal whose final line a crash tore
/// mid-write: one fsynced newline, so the next append starts a line of
/// its own instead of being glued to the debris and lost on the next
/// replay. Reads only the last byte; a missing or empty journal has
/// nothing to seal.
pub fn seal_torn_tail(path: &Path) -> io::Result<()> {
    let mut file = match OpenOptions::new().read(true).append(true).open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if file.metadata()?.len() == 0 {
        return Ok(());
    }
    let mut last = [0u8; 1];
    file.seek(SeekFrom::End(-1))?;
    file.read_exact(&mut last)?;
    if last[0] == b'\n' {
        return Ok(());
    }
    file.write_all(b"\n")?;
    file.sync_all()
}

/// Appends `line` and its newline to an append-only journal and
/// fsyncs, so the transition survives a crash right after it. The
/// append that creates the journal also fsyncs its directory, so the
/// new file's entry survives too. The one append path of every JSONL
/// journal: the sweep manifest, the service's `jobs.jsonl` and
/// `audit.jsonl`.
pub fn append_line(path: &Path, line: &str) -> io::Result<()> {
    let (mut file, created) = match OpenOptions::new().append(true).open(path) {
        Ok(file) => (file, false),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            (OpenOptions::new().create(true).append(true).open(path)?, true)
        }
        Err(e) => return Err(e),
    };
    let mut record = String::with_capacity(line.len() + 1);
    record.push_str(line);
    record.push('\n');
    file.write_all(record.as_bytes())?;
    file.sync_all()?;
    if created {
        sync_parent_dir(path);
    }
    Ok(())
}

/// Fsyncs `path`'s directory so a new or renamed entry in it survives
/// a crash. Best effort: not every platform can open a directory.
fn sync_parent_dir(path: &Path) {
    if let Some(dir_handle) = path.parent().and_then(|dir| File::open(dir).ok()) {
        let _ = dir_handle.sync_all();
    }
}

/// A manifest line as one JSON journal record.
fn manifest_json(line: &ManifestLine) -> io::Result<String> {
    serde_json::to_string(line).map_err(io::Error::other)
}

/// Writes `contents` to `path` atomically: a `*.tmp` sibling in the
/// same directory, fsync, rename, directory fsync. A crash at any
/// point leaves either the old file or the new one, never a torn mix.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    write_atomic_with(path, |file| file.write_all(contents))
}

/// [`write_atomic`] with the `*.tmp` file's contents written by
/// `fill`, so a large artifact (a checkpoint) can be streamed into it
/// instead of being built in memory first.
fn write_atomic_with(
    path: &Path,
    fill: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = File::create(&tmp)?;
        fill(&mut file)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Persist the rename itself; without this a crash can forget the
    // directory entry even though the data blocks are safe.
    sync_parent_dir(path);
    Ok(())
}

/// The `# seed=… config_hash=… version=…` provenance line every
/// results artifact starts with.
pub fn provenance_line(seed: u64, config_hash: &str) -> String {
    format!(
        "# seed={seed} config_hash={config_hash} version={}",
        env!("CARGO_PKG_VERSION")
    )
}

fn cell_tsv(cell: u64, seed: u64, config_hash: &str, report: &LoadTestReport) -> String {
    let mut out = String::new();
    out.push_str(&provenance_line(seed, config_hash));
    out.push('\n');
    out.push_str(&format!("# cell={cell}\n"));
    out.push_str("scope\tsamples\tmean_us\tp50_us\tp90_us\tp95_us\tp99_us\tp999_us\n");
    let agg = &report.aggregated;
    out.push_str(&format!(
        "aggregate\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\n",
        agg.count, agg.mean, agg.p50, agg.p90, agg.p95, agg.p99, agg.p999
    ));
    for (i, s) in report.per_instance.iter().enumerate() {
        out.push_str(&format!(
            "instance_{i}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\n",
            s.count, s.mean, s.p50, s.p90, s.p95, s.p99, s.p999
        ));
    }
    out
}

fn summary_tsv(
    master_seed: u64,
    config_hash: &str,
    cells: &BTreeMap<u64, (u64, CellResult)>,
) -> String {
    let mut out = String::new();
    out.push_str(&provenance_line(master_seed, config_hash));
    out.push('\n');
    out.push_str("cell\tseed\tsamples\tmean_us\tp50_us\tp90_us\tp95_us\tp99_us\tp999_us\n");
    for (cell, (seed, r)) in cells {
        out.push_str(&format!(
            "{cell}\t{seed}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\n",
            r.samples,
            from_bits(&r.mean_bits),
            from_bits(&r.p50_bits),
            from_bits(&r.p90_bits),
            from_bits(&r.p95_bits),
            from_bits(&r.p99_bits),
            from_bits(&r.p999_bits),
        ));
    }
    out
}

fn ckpt_path(out_dir: &Path, cell: u64) -> PathBuf {
    out_dir.join(format!("cell_{cell}.ckpt"))
}

fn attr_path(out_dir: &Path, cell: u64) -> PathBuf {
    out_dir.join(format!("cell_{cell}.attr.tsv"))
}

/// The quantiles the per-cell attribution artifact decomposes.
const ATTRIBUTION_QUANTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Renders one cell's tail-attribution artifact: for each quantile,
/// which instance the pooled tail samples come from (the paper's
/// Figure 2 decomposition, the "source" in *attributing the source of
/// tail latency*). Pure function of the report, so killed-and-resumed
/// sweeps reproduce it byte-for-byte.
fn attribution_tsv(
    cell: u64,
    seed: u64,
    config_hash: &str,
    per_client: &[Vec<f64>],
) -> String {
    let mut out = String::new();
    out.push_str(&provenance_line(seed, config_hash));
    out.push('\n');
    out.push_str(&format!("# cell={cell}\n"));
    out.push_str("cell\tquantile\tlatency_us");
    for i in 0..per_client.len() {
        out.push_str(&format!("\tshare_instance_{i}"));
    }
    out.push('\n');
    if per_client.iter().all(|v| v.is_empty()) {
        return out;
    }
    for row in tail_composition(per_client, &ATTRIBUTION_QUANTILES) {
        out.push_str(&format!("{cell}\t{:.4}\t{:.6}", row.quantile, row.latency_us));
        for share in &row.shares {
            out.push_str(&format!("\t{share:.6}"));
        }
        out.push('\n');
    }
    out
}

/// Concatenates the per-cell attribution artifacts into one sweep-wide
/// `attribution.tsv`. Skipped (already-done) cells contribute their
/// on-disk rows, so a resumed sweep reconstructs the aggregate without
/// re-running anything.
fn aggregate_attribution(
    out_dir: &Path,
    master_seed: u64,
    config_hash: &str,
    runs: u64,
    warnings: &mut Vec<String>,
) -> String {
    let mut out = String::new();
    out.push_str(&provenance_line(master_seed, config_hash));
    out.push('\n');
    let mut wrote_header = false;
    for cell in 0..runs {
        let Ok(text) = fs::read_to_string(attr_path(out_dir, cell)) else {
            warnings.push(format!(
                "cell {cell}: attribution artifact missing; aggregate omits it"
            ));
            continue;
        };
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let is_header = line.starts_with("cell\t");
            if is_header {
                if wrote_header {
                    continue;
                }
                wrote_header = true;
            }
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Executes (or resumes) a sweep of `opts.runs` cells into `out_dir`,
/// with cooperative cancellation and progress reporting — the entry
/// point `treadmill-serve` and the signal-handling CLI use.
///
/// # Errors
///
/// Returns [`SweepError::Config`] if the configuration does not build
/// and [`SweepError::Io`] on filesystem trouble. A corrupt or missing
/// checkpoint is *not* an error: the affected cell restarts from event
/// zero (with a warning) and the sweep continues. Cancellation is not
/// an error either: the outcome comes back `Ok` with
/// [`SweepOutcome::interrupted`] set.
pub fn run_sweep_controlled(
    config: &LoadTestConfig,
    out_dir: &Path,
    opts: &SweepOptions,
    ctrl: &mut SweepControl<'_>,
) -> Result<SweepOutcome, SweepError> {
    sweep_impl(config, out_dir, opts, ctrl, default_workers())
}

fn sweep_impl(
    config: &LoadTestConfig,
    out_dir: &Path,
    opts: &SweepOptions,
    ctrl: &mut SweepControl<'_>,
    workers: usize,
) -> Result<SweepOutcome, SweepError> {
    let dir = SweepDir::open(config.clone(), out_dir.to_path_buf(), opts)?;
    let mut outcomes = run_cells(std::slice::from_ref(&dir), opts, ctrl, workers)?;
    Ok(outcomes.pop().unwrap_or_default())
}

/// Cell workers for a job: one per available core. The pool caps this
/// at the number of cells to run.
fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One sweep directory — a plain sweep's `out_dir` or a factorial
/// sweep's `hw_NN/` — with its configuration and replayed journal.
struct SweepDir {
    config: LoadTestConfig,
    test: LoadTest,
    dir: PathBuf,
    config_hash: String,
    /// The replayed journal; empty on a fresh start.
    manifest: Manifest,
    /// Journal-replay warnings, reported ahead of the cells'.
    warnings: Vec<String>,
    /// Serialises journal appends from concurrent cells, so every line
    /// lands whole and fsynced before the next.
    journal_lock: Mutex<()>,
}

/// How one cell's turn on a worker ended.
enum CellEnd {
    /// Finished; its artifacts and `done` line are written.
    Done(CellResult),
    /// Stopped at a checkpoint, which is sealed for `--resume`.
    Interrupted,
    /// Never started: the sweep was stopping when its turn came.
    NotStarted,
}

/// One cell's contribution to its directory's [`SweepOutcome`].
struct CellRun {
    end: CellEnd,
    resumed: bool,
    warnings: Vec<String>,
}

/// What every worker shares while a job's cells run.
struct Workers<'c, 'p> {
    opts: &'c SweepOptions,
    cancel: Option<&'p AtomicBool>,
    /// Set when a cell fails, so the others stop at their next
    /// checkpoint and no further cell starts. (A panicking cell stops
    /// further claims in the pool itself.)
    halt: AtomicBool,
    progress: Mutex<Option<&'c mut (dyn FnMut(SweepEvent) + Send + 'p)>>,
}

impl Workers<'_, '_> {
    fn stopping(&self) -> bool {
        self.halt.load(Ordering::Relaxed) || self.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
    }

    fn emit(&self, event: SweepEvent) {
        let mut sink = self.progress.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(progress) = sink.as_deref_mut() {
            progress(event);
        }
    }
}

impl SweepDir {
    /// Prepares `dir` for `config`'s cells: replays the journal on
    /// resume, otherwise clears any previous journal and checkpoints
    /// and journals every cell `pending`.
    fn open(config: LoadTestConfig, dir: PathBuf, opts: &SweepOptions) -> Result<Self, SweepError> {
        let test = config.build()?;
        let config_hash = format!("{:016x}", fnv1a64(config.to_json().as_bytes()));
        fs::create_dir_all(&dir)?;
        let journal = dir.join("manifest.jsonl");
        let (manifest, warnings) = if opts.resume {
            read_manifest(&journal, &config_hash)?
        } else {
            // Fresh start: drop any previous journal and checkpoints so
            // a stale `done` line cannot shadow the new configuration.
            if journal.exists() {
                fs::remove_file(&journal)?;
            }
            for cell in 0..opts.runs {
                let _ = fs::remove_file(ckpt_path(&dir, cell));
            }
            (Manifest::default(), Vec::new())
        };
        let sweep = SweepDir {
            config,
            test,
            dir,
            config_hash,
            manifest,
            warnings,
            journal_lock: Mutex::new(()),
        };
        if !opts.resume {
            for cell in 0..opts.runs {
                sweep.journal(cell, "pending", None)?;
            }
        }
        Ok(sweep)
    }

    fn journal(&self, cell: u64, status: &str, result: Option<CellResult>) -> io::Result<()> {
        let line = ManifestLine {
            cell,
            status: status.to_string(),
            seed: self.test.derive_run_seed(cell),
            config_hash: self.config_hash.clone(),
            result,
        };
        let _serialised = self
            .journal_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        append_line(&self.dir.join("manifest.jsonl"), &manifest_json(&line)?)
    }

    /// The in-flight cell's run restored from its checkpoint, if the
    /// journal left it `running` and the checkpoint is usable.
    fn restore(&self, cell: u64, warnings: &mut Vec<String>) -> Option<ResumableRun> {
        if !self.manifest.running.contains(&cell) {
            return None;
        }
        let Ok(bytes) = fs::read(ckpt_path(&self.dir, cell)) else {
            warnings.push(format!(
                "cell {cell}: was in flight but left no checkpoint; restarting from event zero"
            ));
            return None;
        };
        match ResumableRun::resume(self.test.clone(), cell, &bytes) {
            Ok(run) => {
                warnings.push(format!(
                    "cell {cell}: resumed from checkpoint at {} events",
                    run.events_executed()
                ));
                Some(run)
            }
            Err(e) => {
                warnings.push(format!(
                    "cell {cell}: checkpoint unusable ({e}); restarting from event zero"
                ));
                None
            }
        }
    }

    /// Runs (or resumes) one cell on the calling worker: execute a
    /// batch, stream a checkpoint, audit, repeat. A SIGKILL between any
    /// two statements loses at most one batch of work; a stop request
    /// observed after a checkpoint leaves that checkpoint as the
    /// resume point.
    fn run_cell(&self, cell: u64, w: &Workers<'_, '_>) -> Result<CellRun, SweepError> {
        let mut out = CellRun {
            end: CellEnd::NotStarted,
            resumed: false,
            warnings: Vec::new(),
        };
        if w.stopping() {
            return Ok(out);
        }
        let seed = self.test.derive_run_seed(cell);
        let checkpoint_file = ckpt_path(&self.dir, cell);
        let mut run = match self.restore(cell, &mut out.warnings) {
            Some(run) => {
                out.resumed = true;
                run
            }
            None => {
                self.journal(cell, "running", None)?;
                ResumableRun::new(self.test.clone(), cell)
            }
        };
        w.emit(SweepEvent::CellStarted {
            cell,
            seed,
            resumed_at_events: run.events_executed(),
        });

        while run.step(w.opts.ckpt_events) > 0 {
            if run.is_finished() {
                break;
            }
            write_atomic_with(&checkpoint_file, |file| run.checkpoint_to(file).map(drop))?;
            for finding in run.audit(w.opts.max_pending) {
                out.warnings
                    .push(format!("cell {cell}: auditor: {finding}"));
            }
            w.emit(SweepEvent::Checkpointed {
                cell,
                events: run.events_executed(),
                samples: run.tail().count(),
                p99_us: run.tail().p99_us(),
            });
            if w.stopping() {
                out.warnings.push(format!(
                    "cell {cell}: interrupted at {} events; checkpoint sealed — \
                     resume with --resume",
                    run.events_executed()
                ));
                w.emit(SweepEvent::Interrupted { cell: Some(cell) });
                out.end = CellEnd::Interrupted;
                return Ok(out);
            }
        }

        let report = run.finish();
        for finding in &report.run.audit_findings {
            out.warnings
                .push(format!("cell {cell}: auditor: {finding}"));
        }
        for warning in health_warnings(&report, self.config.target_rps) {
            out.warnings.push(format!("cell {cell}: {warning}"));
        }
        let result = CellResult::from_report(&report);
        write_atomic(
            &self.dir.join(format!("cell_{cell}.tsv")),
            cell_tsv(cell, seed, &self.config_hash, &report).as_bytes(),
        )?;
        write_atomic(
            &attr_path(&self.dir, cell),
            attribution_tsv(
                cell,
                seed,
                &self.config_hash,
                &self.test.raw_latencies(&report),
            )
            .as_bytes(),
        )?;
        self.journal(cell, "done", Some(result.clone()))?;
        let _ = fs::remove_file(&checkpoint_file);
        w.emit(SweepEvent::CellDone {
            cell,
            samples: result.samples,
            p99_us: from_bits(&result.p99_bits),
        });
        out.end = CellEnd::Done(result);
        Ok(out)
    }

    /// Assembles this directory's outcome from its cells' runs (in cell
    /// order) and writes `summary.tsv`, plus `attribution.tsv` once
    /// every cell is done.
    fn finish(
        &self,
        runs: u64,
        cell_runs: &mut impl Iterator<Item = CellRun>,
    ) -> Result<SweepOutcome, SweepError> {
        let mut outcome = SweepOutcome {
            summary_path: self.dir.join("summary.tsv"),
            warnings: self.warnings.clone(),
            ..SweepOutcome::default()
        };
        let mut done: BTreeMap<u64, (u64, CellResult)> = self
            .manifest
            .done
            .iter()
            .map(|(&cell, result)| (cell, (self.test.derive_run_seed(cell), result.clone())))
            .collect();
        for cell in 0..runs {
            if self.manifest.done.contains_key(&cell) {
                outcome.skipped.push(cell);
                continue;
            }
            let Some(run) = cell_runs.next() else { break };
            outcome.warnings.extend(run.warnings);
            if run.resumed {
                outcome.resumed_cells.push(cell);
            }
            match run.end {
                CellEnd::Done(result) => {
                    outcome.executed.push(cell);
                    done.insert(cell, (self.test.derive_run_seed(cell), result));
                }
                CellEnd::Interrupted | CellEnd::NotStarted => outcome.interrupted = true,
            }
        }
        outcome.cells = done
            .iter()
            .map(|(&cell, (seed, r))| CellSummary {
                cell,
                seed: *seed,
                samples: r.samples,
                mean_us: from_bits(&r.mean_bits),
                p50_us: from_bits(&r.p50_bits),
                p90_us: from_bits(&r.p90_bits),
                p95_us: from_bits(&r.p95_bits),
                p99_us: from_bits(&r.p99_bits),
                p999_us: from_bits(&r.p999_bits),
            })
            .collect();
        write_atomic(
            &outcome.summary_path,
            summary_tsv(self.config.seed, &self.config_hash, &done).as_bytes(),
        )?;
        if !outcome.interrupted {
            // The sweep-wide attribution aggregate is only meaningful
            // (and only byte-stable) once every cell has contributed.
            let attribution = aggregate_attribution(
                &self.dir,
                self.config.seed,
                &self.config_hash,
                runs,
                &mut outcome.warnings,
            );
            write_atomic(&self.dir.join("attribution.tsv"), attribution.as_bytes())?;
        }
        Ok(outcome)
    }
}

/// The job's one cell scheduler: every unfinished cell of every
/// directory goes on one work list in canonical (directory, cell)
/// order and runs on [`pool::run_indexed`]'s workers. Simulated cells
/// share nothing, so running them side by side cannot change their
/// bytes; each directory's outcome and summaries are then assembled
/// from the per-cell results in canonical order, which makes every
/// artifact independent of `workers`.
fn run_cells(
    dirs: &[SweepDir],
    opts: &SweepOptions,
    ctrl: &mut SweepControl<'_>,
    workers: usize,
) -> Result<Vec<SweepOutcome>, SweepError> {
    let shared = Workers {
        opts,
        cancel: ctrl.cancel,
        halt: AtomicBool::new(false),
        progress: Mutex::new(ctrl.progress.as_deref_mut()),
    };
    let mut work = Vec::new();
    for (d, dir) in dirs.iter().enumerate() {
        for cell in 0..opts.runs {
            if dir.manifest.done.contains_key(&cell) {
                shared.emit(SweepEvent::CellSkipped { cell });
            } else {
                work.push((d, cell));
            }
        }
    }
    let runs = pool::run_indexed(work.len(), workers, |k| {
        let (d, cell) = work[k];
        let run = dirs[d].run_cell(cell, &shared);
        if run.is_err() {
            shared.halt.store(true, Ordering::Relaxed);
        }
        run
    });
    let runs = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let sealed = runs.iter().any(|r| matches!(r.end, CellEnd::Interrupted));
    if !sealed && runs.iter().any(|r| matches!(r.end, CellEnd::NotStarted)) {
        shared.emit(SweepEvent::Interrupted { cell: None });
    }
    let mut runs = runs.into_iter();
    dirs.iter()
        .map(|dir| dir.finish(opts.runs, &mut runs))
        .collect()
}

/// The number of hardware cells in the paper's 2⁴ factor space.
pub const FACTORIAL_CELLS: usize = 16;

/// One hardware cell's analytic prediction, as handed to the screened
/// sweep. `treadmill_inference::screen_hardware` computes these; this
/// crate only consumes them (core cannot depend on inference).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreenedCell {
    /// Hardware cell index (`HardwareConfig::from_index`).
    pub index: usize,
    /// Predicted median latency, µs.
    pub p50_us: f64,
    /// Predicted 95th percentile, µs.
    pub p95_us: f64,
    /// Predicted 99th percentile, µs.
    pub p99_us: f64,
    /// Predicted per-core utilisation.
    pub utilization: f64,
    /// Relative predicted p99 excess over the best cell.
    pub tail_effect: f64,
    /// True when the cell should be DES-simulated.
    pub flagged: bool,
}

/// The analytic screen's verdict over the whole factor space — the
/// contract between the inference crate's estimator and this crate's
/// orchestration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreenedSweepPlan {
    /// The relative tail-effect threshold the screen applied.
    pub threshold: f64,
    /// All [`FACTORIAL_CELLS`] predictions, in index order.
    pub cells: Vec<ScreenedCell>,
}

impl ScreenedSweepPlan {
    fn validate(&self) -> Result<(), SweepError> {
        if self.cells.len() != FACTORIAL_CELLS {
            return Err(SweepError::Screen {
                message: format!(
                    "plan has {} cells, expected {FACTORIAL_CELLS}",
                    self.cells.len()
                ),
            });
        }
        for (i, cell) in self.cells.iter().enumerate() {
            if cell.index != i {
                return Err(SweepError::Screen {
                    message: format!("plan cell {i} carries index {}", cell.index),
                });
            }
        }
        Ok(())
    }
}

/// One simulated hardware cell's aggregate in a factorial sweep: the
/// across-run mean of each per-run quantile.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorialCellResult {
    /// Hardware cell index.
    pub index: usize,
    /// The cell's sweep directory (`hw_NN/`) under the factorial root.
    pub dir: PathBuf,
    /// Repeated runs aggregated.
    pub runs: u64,
    /// Total measurement-window samples across runs.
    pub samples: u64,
    /// Across-run mean of per-run mean latency, µs.
    pub mean_us: f64,
    /// Across-run mean of per-run p50, µs.
    pub p50_us: f64,
    /// Across-run mean of per-run p95, µs.
    pub p95_us: f64,
    /// Across-run mean of per-run p99, µs.
    pub p99_us: f64,
    /// Across-run mean of per-run p99.9, µs.
    pub p999_us: f64,
}

/// What a factorial (optionally screened) sweep did.
#[derive(Debug, Clone, Default)]
pub struct FactorialOutcome {
    /// Hardware cells that were DES-simulated, in index order.
    pub simulated: Vec<usize>,
    /// Hardware cells the analytic screen dropped, in index order.
    pub screened_out: Vec<usize>,
    /// Per simulated cell, the across-run aggregate.
    pub cells: Vec<FactorialCellResult>,
    /// Warnings from every inner sweep, prefixed with the cell.
    pub warnings: Vec<String>,
    /// Path of the `factorial.tsv` measurement artifact.
    pub factorial_path: PathBuf,
    /// Path of the `screen.tsv` prediction artifact (screened sweeps
    /// only).
    pub screen_path: Option<PathBuf>,
    /// True if an inner sweep was interrupted; re-run with
    /// [`SweepOptions::resume`] to continue.
    pub interrupted: bool,
}

/// The per-cell configuration a factorial sweep runs: the base config
/// pinned to one hardware cell, with the screen knob stripped and a
/// cell-derived seed. Stripping `screen` makes the per-cell artifacts
/// (and their provenance hashes) independent of *how* the cell was
/// selected — a threshold-0 screened sweep is byte-identical to a
/// full-factorial one.
fn factorial_cell_config(config: &LoadTestConfig, index: usize) -> LoadTestConfig {
    let mut cell = config.clone();
    cell.hardware = Some(u8::try_from(index).unwrap_or(u8::MAX));
    cell.screen = None;
    cell.seed = fnv1a64(format!("{}/factorial/{index}", config.seed).as_bytes());
    cell
}

fn factorial_cell_dir(out_dir: &Path, index: usize) -> PathBuf {
    out_dir.join(format!("hw_{index:02}"))
}

/// The screen-stripped base hash that stamps factorial-level artifacts.
fn factorial_hash(config: &LoadTestConfig) -> String {
    let mut base = config.clone();
    base.screen = None;
    format!("{:016x}", fnv1a64(base.to_json().as_bytes()))
}

fn factorial_tsv(
    master_seed: u64,
    base_hash: &str,
    cells: &[FactorialCellResult],
) -> String {
    let mut out = String::new();
    out.push_str(&provenance_line(master_seed, base_hash));
    out.push('\n');
    out.push_str("cell\tnuma\tturbo\tdvfs\tnic\truns\tsamples\tmean_us\tp50_us\tp95_us\tp99_us\tp999_us\n");
    for c in cells {
        let hw = treadmill_cluster::HardwareConfig::from_index(c.index);
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\n",
            c.index,
            hw.numa,
            hw.turbo,
            hw.dvfs,
            hw.nic,
            c.runs,
            c.samples,
            c.mean_us,
            c.p50_us,
            c.p95_us,
            c.p99_us,
            c.p999_us,
        ));
    }
    out
}

fn screen_tsv(master_seed: u64, base_hash: &str, plan: &ScreenedSweepPlan) -> String {
    let mut out = String::new();
    out.push_str(&provenance_line(master_seed, base_hash));
    out.push('\n');
    out.push_str(&format!("# threshold={:.6}\n", plan.threshold));
    out.push_str(
        "cell\tnuma\tturbo\tdvfs\tnic\tpred_p50_us\tpred_p95_us\tpred_p99_us\tutilization\ttail_effect\tflagged\n",
    );
    for c in &plan.cells {
        let hw = treadmill_cluster::HardwareConfig::from_index(c.index);
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{}\n",
            c.index,
            hw.numa,
            hw.turbo,
            hw.dvfs,
            hw.nic,
            c.p50_us,
            c.p95_us,
            c.p99_us,
            c.utilization,
            c.tail_effect,
            u8::from(c.flagged),
        ));
    }
    out
}

/// Runs the full 2⁴ factorial sweep: every hardware cell gets its own
/// crash-tolerant sweep directory `hw_NN/` under `out_dir`, all cells
/// of all directories share one worker pool, and the across-run
/// aggregates land in `factorial.tsv`.
///
/// # Errors
///
/// Same as [`run_sweep_controlled`].
pub fn run_factorial_sweep(
    config: &LoadTestConfig,
    out_dir: &Path,
    opts: &SweepOptions,
) -> Result<FactorialOutcome, SweepError> {
    run_factorial_sweep_controlled(config, out_dir, opts, None, &mut SweepControl::default())
}

/// Runs the two-stage screened sweep: DES runs are spent only on the
/// cells the analytic screen flagged. A threshold-0 plan (every cell
/// flagged) reproduces [`run_factorial_sweep`]'s artifacts
/// byte-for-byte.
///
/// # Errors
///
/// [`SweepError::Screen`] for a malformed plan, otherwise the same as
/// [`run_sweep_controlled`].
pub fn run_screened_sweep(
    config: &LoadTestConfig,
    out_dir: &Path,
    opts: &SweepOptions,
    plan: &ScreenedSweepPlan,
) -> Result<FactorialOutcome, SweepError> {
    run_factorial_sweep_controlled(
        config,
        out_dir,
        opts,
        Some(plan),
        &mut SweepControl::default(),
    )
}

/// [`run_screened_sweep`] with cooperative cancellation and progress —
/// the service entry point. `plan: None` is the full factorial.
///
/// # Errors
///
/// Same as [`run_screened_sweep`].
pub fn run_factorial_sweep_controlled(
    config: &LoadTestConfig,
    out_dir: &Path,
    opts: &SweepOptions,
    plan: Option<&ScreenedSweepPlan>,
    ctrl: &mut SweepControl<'_>,
) -> Result<FactorialOutcome, SweepError> {
    factorial_sweep_impl(config, out_dir, opts, plan, ctrl, default_workers())
}

fn factorial_sweep_impl(
    config: &LoadTestConfig,
    out_dir: &Path,
    opts: &SweepOptions,
    plan: Option<&ScreenedSweepPlan>,
    ctrl: &mut SweepControl<'_>,
    workers: usize,
) -> Result<FactorialOutcome, SweepError> {
    config.validate()?;
    if let Some(plan) = plan {
        plan.validate()?;
    }
    fs::create_dir_all(out_dir)?;
    let base_hash = factorial_hash(config);
    let mut outcome = FactorialOutcome {
        factorial_path: out_dir.join("factorial.tsv"),
        ..FactorialOutcome::default()
    };

    if let Some(plan) = plan {
        let screen_path = out_dir.join("screen.tsv");
        write_atomic(
            &screen_path,
            screen_tsv(config.seed, &base_hash, plan).as_bytes(),
        )?;
        outcome.screen_path = Some(screen_path);
        outcome.screened_out = plan
            .cells
            .iter()
            .filter(|c| !c.flagged)
            .map(|c| c.index)
            .collect();
    }

    let indices: Vec<usize> = (0..FACTORIAL_CELLS)
        .filter(|&index| plan.is_none_or(|plan| plan.cells[index].flagged))
        .collect();
    let dirs = indices
        .iter()
        .map(|&index| {
            SweepDir::open(
                factorial_cell_config(config, index),
                factorial_cell_dir(out_dir, index),
                opts,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let inner = run_cells(&dirs, opts, ctrl, workers)?;
    for ((index, dir), inner) in indices.into_iter().zip(dirs).zip(inner) {
        for warning in &inner.warnings {
            outcome.warnings.push(format!("hw {index}: {warning}"));
        }
        if inner.interrupted {
            outcome.interrupted = true;
            continue;
        }
        let runs = inner.cells.len() as u64;
        let mean_of = |f: &dyn Fn(&CellSummary) -> f64| {
            inner.cells.iter().map(f).sum::<f64>() / runs.max(1) as f64
        };
        outcome.cells.push(FactorialCellResult {
            index,
            dir: dir.dir,
            runs,
            samples: inner.cells.iter().map(|c| c.samples).sum(),
            mean_us: mean_of(&|c| c.mean_us),
            p50_us: mean_of(&|c| c.p50_us),
            p95_us: mean_of(&|c| c.p95_us),
            p99_us: mean_of(&|c| c.p99_us),
            p999_us: mean_of(&|c| c.p999_us),
        });
        outcome.simulated.push(index);
    }

    if !outcome.interrupted {
        write_atomic(
            &outcome.factorial_path,
            factorial_tsv(config.seed, &base_hash, &outcome.cells).as_bytes(),
        )?;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_sweep(
        config: &LoadTestConfig,
        out_dir: &Path,
        opts: &SweepOptions,
    ) -> Result<SweepOutcome, SweepError> {
        run_sweep_controlled(config, out_dir, opts, &mut SweepControl::default())
    }

    fn small_config() -> LoadTestConfig {
        LoadTestConfig::from_json(
            r#"{
                "workload": { "workload": "memcached" },
                "target_rps": 120000,
                "clients": 2,
                "duration_ms": 60,
                "warmup_ms": 15,
                "seed": 5
            }"#,
        )
        .expect("valid config")
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tml-sweep-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn opts(runs: u64) -> SweepOptions {
        SweepOptions {
            runs,
            ckpt_events: 20_000,
            ..SweepOptions::default()
        }
    }

    #[test]
    fn sweep_writes_all_artifacts() {
        let dir = tempdir("basic");
        let outcome = run_sweep(&small_config(), &dir, &opts(2)).expect("sweep");
        assert_eq!(outcome.executed, vec![0, 1]);
        assert!(outcome.skipped.is_empty());
        assert!(!outcome.interrupted);
        for cell in 0..2 {
            let text =
                fs::read_to_string(dir.join(format!("cell_{cell}.tsv"))).expect("cell artifact");
            assert!(text.starts_with("# seed="), "provenance header: {text}");
            assert!(text.contains("config_hash="));
            assert!(text.contains("aggregate\t"));
            assert!(!dir.join(format!("cell_{cell}.ckpt")).exists());
            let attr = fs::read_to_string(dir.join(format!("cell_{cell}.attr.tsv")))
                .expect("attribution artifact");
            assert!(attr.starts_with("# seed="), "attr provenance: {attr}");
            assert!(attr.contains("share_instance_0"), "{attr}");
        }
        let summary = fs::read_to_string(dir.join("summary.tsv")).expect("summary");
        assert_eq!(summary.lines().count(), 2 + 2, "header lines + one row per cell");
        let attribution = fs::read_to_string(dir.join("attribution.tsv")).expect("attribution");
        // Provenance + one column header + one row per quantile per cell.
        assert_eq!(
            attribution.lines().count(),
            2 + 2 * ATTRIBUTION_QUANTILES.len(),
            "{attribution}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_done_cells_and_reproduces_summary() {
        let golden_dir = tempdir("golden");
        run_sweep(&small_config(), &golden_dir, &opts(3)).expect("golden sweep");

        // Run one cell, then "crash" (stop), then resume for all three.
        let dir = tempdir("resumed");
        run_sweep(&small_config(), &dir, &opts(1)).expect("partial sweep");
        let resumed_opts = SweepOptions {
            resume: true,
            ..opts(3)
        };
        let outcome = run_sweep(&small_config(), &dir, &resumed_opts).expect("resumed sweep");
        assert_eq!(outcome.skipped, vec![0]);
        assert_eq!(outcome.executed, vec![1, 2]);

        for artifact in [
            "cell_0.tsv",
            "cell_1.tsv",
            "cell_2.tsv",
            "cell_0.attr.tsv",
            "summary.tsv",
            "attribution.tsv",
        ] {
            let golden = fs::read(golden_dir.join(artifact)).expect("golden artifact");
            let resumed = fs::read(dir.join(artifact)).expect("resumed artifact");
            assert_eq!(golden, resumed, "{artifact} differs after resume");
        }
        let _ = fs::remove_dir_all(&golden_dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_sweep_seals_checkpoint_and_resumes_bit_identical() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let golden_dir = tempdir("golden-cancel");
        run_sweep(&small_config(), &golden_dir, &opts(2)).expect("golden sweep");

        // Cancel at the first checkpoint — the graceful SIGTERM path:
        // the sweep returns Ok, interrupted, with every in-flight
        // cell's checkpoint sealed and the journal still marking those
        // cells running. One worker has only cell 0 in flight; two may
        // have both cells.
        for workers in [1, 2] {
            let dir = tempdir(&format!("cancel-{workers}"));
            let cancel = AtomicBool::new(false);
            let mut flip = |event: SweepEvent| {
                if matches!(event, SweepEvent::Checkpointed { .. }) {
                    cancel.store(true, Ordering::Relaxed);
                }
            };
            let mut ctrl = SweepControl {
                cancel: Some(&cancel),
                progress: Some(&mut flip),
            };
            let outcome =
                sweep_impl(&small_config(), &dir, &opts(2), &mut ctrl, workers).expect("sweep");
            assert!(outcome.interrupted);
            assert!(outcome.executed.is_empty());
            assert!(
                dir.join("cell_0.ckpt").exists(),
                "checkpoint must be sealed"
            );
            let sealed: Vec<u64> = (0..2)
                .filter(|&c| dir.join(format!("cell_{c}.ckpt")).exists())
                .collect();

            // Resume without cancellation: byte-identical to the golden.
            let resumed_opts = SweepOptions {
                resume: true,
                ..opts(2)
            };
            let outcome = run_sweep(&small_config(), &dir, &resumed_opts).expect("resume");
            assert_eq!(outcome.resumed_cells, sealed);
            if workers == 1 {
                assert_eq!(sealed, vec![0]);
            }
            assert!(!outcome.interrupted);
            for artifact in ["cell_0.tsv", "cell_1.tsv", "summary.tsv", "attribution.tsv"] {
                let golden = fs::read(golden_dir.join(artifact)).expect("golden artifact");
                let resumed = fs::read(dir.join(artifact)).expect("resumed artifact");
                assert_eq!(golden, resumed, "{artifact} differs after cancel+resume");
            }
            let _ = fs::remove_dir_all(&dir);
        }
        let _ = fs::remove_dir_all(&golden_dir);
    }

    /// Every file under `dir` (recursively) except the journal, whose
    /// line order follows the workers' interleaving, by relative path.
    fn artifacts(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        let mut out = BTreeMap::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(next) = stack.pop() {
            for entry in fs::read_dir(&next).expect("read dir") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.file_name().is_some_and(|n| n != "manifest.jsonl") {
                    let rel = path.strip_prefix(dir).expect("under dir").to_path_buf();
                    out.insert(rel, fs::read(&path).expect("read artifact"));
                }
            }
        }
        out
    }

    #[test]
    fn artifacts_are_byte_identical_at_one_and_many_workers() {
        let config = small_config();
        let serial = tempdir("workers-1");
        let parallel = tempdir("workers-n");
        let ctrl = &mut SweepControl::default();
        let one = sweep_impl(&config, &serial, &opts(3), ctrl, 1).expect("serial sweep");
        let many = sweep_impl(&config, &parallel, &opts(3), ctrl, 3).expect("parallel sweep");
        assert_eq!(one.executed, many.executed);
        assert_eq!(one.warnings, many.warnings);
        assert_eq!(one.cells, many.cells);
        let files = artifacts(&serial);
        assert_eq!(files.len(), 3 * 2 + 2, "{:?}", files.keys());
        assert_eq!(files, artifacts(&parallel));

        // A screened factorial: two runs of each flagged cell.
        let plan = uniform_plan(&[1, 6, 12], 0.05);
        let (serial_f, parallel_f) = (tempdir("fact-1"), tempdir("fact-n"));
        let one = factorial_sweep_impl(&config, &serial_f, &opts(2), Some(&plan), ctrl, 1)
            .expect("serial factorial");
        let many = factorial_sweep_impl(&config, &parallel_f, &opts(2), Some(&plan), ctrl, 4)
            .expect("parallel factorial");
        let rooted = |o: &FactorialOutcome, root: &Path| -> Vec<FactorialCellResult> {
            o.cells
                .iter()
                .map(|c| FactorialCellResult {
                    dir: c.dir.strip_prefix(root).expect("under root").to_path_buf(),
                    ..c.clone()
                })
                .collect()
        };
        assert_eq!(rooted(&one, &serial_f), rooted(&many, &parallel_f));
        assert_eq!(one.warnings, many.warnings);
        let files = artifacts(&serial_f);
        assert_eq!(files.len(), 2 + 3 * (2 * 2 + 2), "{:?}", files.keys());
        assert_eq!(files, artifacts(&parallel_f));

        // Threshold 0 flags every cell: the screened sweep at N workers
        // reproduces the full factorial cell for cell.
        let all: Vec<usize> = (0..FACTORIAL_CELLS).collect();
        let (full, screened) = (tempdir("full-n"), tempdir("screened-0-n"));
        factorial_sweep_impl(&config, &full, &opts(1), None, ctrl, 4).expect("full");
        factorial_sweep_impl(
            &config,
            &screened,
            &opts(1),
            Some(&uniform_plan(&all, 0.0)),
            ctrl,
            4,
        )
        .expect("threshold-0 screen");
        let mut screened_files = artifacts(&screened);
        assert!(screened_files.remove(Path::new("screen.tsv")).is_some());
        assert_eq!(artifacts(&full), screened_files);
        for dir in [serial, parallel, serial_f, parallel_f, full, screened] {
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn streamed_checkpoint_file_equals_checkpoint_into() {
        let dir = tempdir("streamed");
        let path = dir.join("cell_0.ckpt");
        let test = small_config().build().expect("build");
        let mut buf = Vec::new();

        let mut run = ResumableRun::new(test.clone(), 0);
        run.step(30_000);
        write_atomic_with(&path, |f| run.checkpoint_to(f).map(drop)).expect("stream");
        run.checkpoint_into(&mut buf);
        assert_eq!(fs::read(&path).expect("read"), buf, "mid-run state");
        assert!(!dir.join("cell_0.ckpt.tmp").exists());

        let mut resumed = ResumableRun::resume(test, 0, &buf).expect("resume");
        resumed.step(25_000);
        write_atomic_with(&path, |f| resumed.checkpoint_to(f).map(drop)).expect("stream");
        resumed.checkpoint_into(&mut buf);
        assert_eq!(fs::read(&path).expect("read"), buf, "resumed state");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_events_cover_the_cell_lifecycle() {
        let dir = tempdir("events");
        let mut events: Vec<String> = Vec::new();
        let mut sink = |event: SweepEvent| {
            events.push(match event {
                SweepEvent::CellSkipped { cell } => format!("skip {cell}"),
                SweepEvent::CellStarted { cell, .. } => format!("start {cell}"),
                SweepEvent::Checkpointed { cell, .. } => format!("ckpt {cell}"),
                SweepEvent::CellDone { cell, .. } => format!("done {cell}"),
                SweepEvent::Interrupted { .. } => "interrupted".to_string(),
            });
        };
        let mut ctrl = SweepControl {
            cancel: None,
            progress: Some(&mut sink),
        };
        run_sweep_controlled(&small_config(), &dir, &opts(2), &mut ctrl).expect("sweep");
        assert!(events.contains(&"start 0".to_string()), "{events:?}");
        assert!(events.contains(&"done 0".to_string()), "{events:?}");
        assert!(events.contains(&"start 1".to_string()), "{events:?}");
        assert!(events.contains(&"done 1".to_string()), "{events:?}");
        assert!(events.iter().any(|e| e.starts_with("ckpt")), "{events:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_restores_in_flight_cell_from_checkpoint() {
        let golden_dir = tempdir("golden-midcell");
        run_sweep(&small_config(), &golden_dir, &opts(3)).expect("golden sweep");

        // Hand-craft a crash with two cells in flight, as a parallel
        // sweep leaves it: the journal says cells 0 and 2 are running,
        // and each has its own mid-run checkpoint.
        let dir = tempdir("midcell");
        let config = small_config();
        let test = config.build().expect("build");
        let hash = format!("{:016x}", fnv1a64(config.to_json().as_bytes()));
        for (cell, events) in [(0, 30_000), (2, 45_000)] {
            append_line(
                &dir.join("manifest.jsonl"),
                &manifest_json(&ManifestLine {
                    cell,
                    status: "running".to_string(),
                    seed: test.derive_run_seed(cell),
                    config_hash: hash.clone(),
                    result: None,
                })
                .expect("manifest line"),
            )
            .expect("journal");
            let mut run = ResumableRun::new(test.clone(), cell);
            run.step(events);
            write_atomic(&ckpt_path(&dir, cell), &run.checkpoint()).expect("checkpoint");
        }

        let resumed_opts = SweepOptions {
            resume: true,
            ..opts(3)
        };
        let outcome = run_sweep(&config, &dir, &resumed_opts).expect("resumed sweep");
        assert_eq!(outcome.resumed_cells, vec![0, 2]);
        assert_eq!(outcome.executed, vec![0, 1, 2]);
        for artifact in [
            "cell_0.tsv",
            "cell_1.tsv",
            "cell_2.tsv",
            "summary.tsv",
            "attribution.tsv",
        ] {
            let golden = fs::read(golden_dir.join(artifact)).expect("golden artifact");
            let resumed = fs::read(dir.join(artifact)).expect("resumed artifact");
            assert_eq!(golden, resumed, "{artifact} differs after mid-cell resume");
        }
        let _ = fs::remove_dir_all(&golden_dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_line_is_tolerated() {
        let dir = tempdir("torn");
        run_sweep(&small_config(), &dir, &opts(1)).expect("sweep");
        // Append a torn (truncated) line, as a SIGKILL mid-append would.
        let mut file = OpenOptions::new()
            .append(true)
            .open(dir.join("manifest.jsonl"))
            .expect("open journal");
        file.write_all(b"{\"cell\":1,\"status\":\"run").expect("tear");
        drop(file);

        let resumed_opts = SweepOptions {
            resume: true,
            ..opts(2)
        };
        let outcome = run_sweep(&small_config(), &dir, &resumed_opts).expect("resumed");
        assert_eq!(outcome.skipped, vec![0]);
        assert_eq!(outcome.executed, vec![1]);
        assert!(outcome
            .warnings
            .iter()
            .any(|w| w.contains("torn/unparseable")));

        // The fragment was sealed on a line of its own: every line the
        // resumed sweep appended after it parses, so cell 1's lifecycle
        // survives another replay.
        let journal = fs::read_to_string(dir.join("manifest.jsonl")).expect("journal");
        let lines: Vec<&str> = journal.lines().collect();
        let torn = lines
            .iter()
            .position(|l| *l == "{\"cell\":1,\"status\":\"run")
            .expect("fragment on its own line");
        let after: Vec<ManifestLine> = lines[torn + 1..]
            .iter()
            .map(|l| serde_json::from_str(l).expect("line after the fragment parses"))
            .collect();
        for status in ["running", "done"] {
            assert!(
                after.iter().any(|l| l.cell == 1 && l.status == status),
                "cell 1 has no {status} line: {journal}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_restarts_the_cell() {
        let golden_dir = tempdir("golden-corrupt");
        run_sweep(&small_config(), &golden_dir, &opts(1)).expect("golden sweep");

        let dir = tempdir("corrupt");
        let config = small_config();
        let test = config.build().expect("build");
        let hash = format!("{:016x}", fnv1a64(config.to_json().as_bytes()));
        append_line(
            &dir.join("manifest.jsonl"),
            &manifest_json(&ManifestLine {
                cell: 0,
                status: "running".to_string(),
                seed: test.derive_run_seed(0),
                config_hash: hash,
                result: None,
            })
            .expect("manifest line"),
        )
        .expect("journal");
        fs::write(ckpt_path(&dir, 0), b"not a checkpoint").expect("corrupt ckpt");

        let resumed_opts = SweepOptions {
            resume: true,
            ..opts(1)
        };
        let outcome = run_sweep(&config, &dir, &resumed_opts).expect("resumed");
        assert!(outcome.resumed_cells.is_empty());
        assert!(outcome.warnings.iter().any(|w| w.contains("unusable")));
        assert_eq!(
            fs::read(golden_dir.join("cell_0.tsv")).expect("golden"),
            fs::read(dir.join("cell_0.tsv")).expect("restarted"),
            "restarted cell must still be bit-identical"
        );
        let _ = fs::remove_dir_all(&golden_dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_change_invalidates_old_journal() {
        let dir = tempdir("confchange");
        run_sweep(&small_config(), &dir, &opts(1)).expect("sweep");
        let mut changed = small_config();
        changed.target_rps = 90_000.0;
        let resumed_opts = SweepOptions {
            resume: true,
            ..opts(1)
        };
        let outcome = run_sweep(&changed, &dir, &resumed_opts).expect("resumed");
        // The old done line is for a different config hash: re-run.
        assert_eq!(outcome.executed, vec![0]);
        assert!(outcome.skipped.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    fn uniform_plan(flagged: &[usize], threshold: f64) -> ScreenedSweepPlan {
        ScreenedSweepPlan {
            threshold,
            cells: (0..FACTORIAL_CELLS)
                .map(|index| ScreenedCell {
                    index,
                    p50_us: 50.0,
                    p95_us: 80.0,
                    p99_us: 100.0 + index as f64,
                    utilization: 0.4,
                    tail_effect: index as f64 / 100.0,
                    flagged: flagged.contains(&index),
                })
                .collect(),
        }
    }

    #[test]
    fn screened_sweep_simulates_only_flagged_cells() {
        let dir = tempdir("screened");
        let plan = uniform_plan(&[3, 11], 0.05);
        let outcome =
            run_screened_sweep(&small_config(), &dir, &opts(1), &plan).expect("sweep");
        assert_eq!(outcome.simulated, vec![3, 11]);
        assert_eq!(outcome.screened_out.len(), 14);
        assert!(!outcome.interrupted);
        assert!(dir.join("hw_03/summary.tsv").exists());
        assert!(dir.join("hw_11/summary.tsv").exists());
        assert!(!dir.join("hw_00").exists(), "unflagged cell must not run");
        let screen = fs::read_to_string(dir.join("screen.tsv")).expect("screen artifact");
        assert!(screen.contains("# threshold=0.050000"), "{screen}");
        assert_eq!(screen.lines().count(), 3 + FACTORIAL_CELLS, "{screen}");
        let factorial =
            fs::read_to_string(dir.join("factorial.tsv")).expect("factorial artifact");
        assert_eq!(factorial.lines().count(), 2 + 2, "one row per simulated cell");
        // Rows are exactly the two flagged cells.
        assert!(factorial.contains("\n3\thigh\thigh\tlow\tlow\t"), "{factorial}");
        assert!(factorial.contains("\n11\thigh\thigh\tlow\thigh\t"), "{factorial}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_plans_are_typed_errors() {
        let dir = tempdir("badplan");
        let mut plan = uniform_plan(&[0], 0.0);
        plan.cells.truncate(4);
        let err = run_screened_sweep(&small_config(), &dir, &opts(1), &plan)
            .expect_err("short plan must be rejected");
        assert!(matches!(err, SweepError::Screen { .. }), "{err}");
        let mut plan = uniform_plan(&[0], 0.0);
        plan.cells[5].index = 9;
        let err = run_screened_sweep(&small_config(), &dir, &opts(1), &plan)
            .expect_err("misindexed plan must be rejected");
        assert!(err.to_string().contains("cell 5"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_outcome_reports_cell_summaries() {
        let dir = tempdir("cellsummaries");
        let outcome = run_sweep(&small_config(), &dir, &opts(2)).expect("sweep");
        assert_eq!(outcome.cells.len(), 2);
        for (i, cell) in outcome.cells.iter().enumerate() {
            assert_eq!(cell.cell, i as u64);
            assert!(cell.samples > 0);
            assert!(cell.p50_us > 0.0 && cell.p99_us >= cell.p95_us);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_leaves_no_tmp_behind() {
        let dir = tempdir("atomic");
        let path = dir.join("results.tsv");
        write_atomic(&path, b"# seed=1 config_hash=x version=0\ndata\n").expect("write");
        assert!(path.exists());
        assert!(!dir.join("results.tsv.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
