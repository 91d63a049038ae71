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
//!   configuration hash. Appends are fsynced; a line torn by a crash
//!   mid-write is tolerated and ignored on replay.
//! * **atomic artifacts** — every `.tsv` / `.ckpt` is written to a
//!   `*.tmp` sibling, fsynced, then renamed into place, so a reader
//!   (or a resumed sweep) never observes a half-written file.
//! * **checkpoints** — each running cell snapshots its full state
//!   (engine + streaming estimators, see
//!   [`crate::resumable::ResumableRun`]) every `ckpt_events` events.
//! * **resume** — [`SweepOptions::resume`] replays the journal, skips
//!   cells already `done` (their artifacts are left untouched),
//!   resumes the in-flight cell from its checkpoint, and runs the
//!   rest. Because checkpointed resume is bit-identical, the final
//!   artifacts are byte-for-byte the same as an uninterrupted sweep's.
//!
//! Each cell's quantiles are journaled as exact `f64` bit patterns, so
//! `summary.tsv` rows for skipped cells reproduce without re-running.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use serde::{Deserialize, Serialize};
use treadmill_sim_core::fnv1a64;

use crate::aggregation::tail_composition;
use crate::config::{ConfigError, LoadTestConfig};
use crate::report::health_warnings;
use crate::resumable::ResumableRun;
use crate::runner::LoadTestReport;

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
    /// The sweep stopped early because cancellation was requested. The
    /// in-flight cell's checkpoint is sealed; `--resume` continues it.
    Interrupted {
        /// The cell that was in flight (if any was running).
        cell: Option<u64>,
    },
}

/// Cooperative control handles for [`run_sweep_controlled`].
///
/// `cancel` is polled at every checkpoint boundary and between cells;
/// once observed `true`, the sweep seals the in-flight checkpoint,
/// flushes the journal (appends are fsynced as written), and returns
/// with [`SweepOutcome::interrupted`] set — exactly the state a SIGKILL
/// would leave, minus the lost batch. `progress` receives a
/// [`SweepEvent`] for every state transition.
#[derive(Default)]
pub struct SweepControl<'a> {
    /// Cancellation flag shared with a signal handler or drain path.
    pub cancel: Option<&'a AtomicBool>,
    /// Progress sink.
    pub progress: Option<&'a mut dyn FnMut(SweepEvent)>,
}

impl fmt::Debug for SweepControl<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepControl")
            .field("cancel", &self.cancel.map(|c| c.load(Ordering::Relaxed)))
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl SweepControl<'_> {
    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
    }

    fn emit(&mut self, event: SweepEvent) {
        if let Some(progress) = self.progress.as_deref_mut() {
            progress(event);
        }
    }
}

/// Knobs for [`run_sweep`].
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

/// What [`run_sweep`] did, for operator-facing summaries.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Cells executed (fresh or resumed) this invocation.
    pub executed: Vec<u64>,
    /// Cells skipped because the journal already marks them done.
    pub skipped: Vec<u64>,
    /// The cell that was resumed from a checkpoint, if any.
    pub resumed_cell: Option<u64>,
    /// Warnings accumulated across cells (audit findings, health
    /// checks, recovery notes).
    pub warnings: Vec<String>,
    /// Path of the sweep summary artifact.
    pub summary_path: PathBuf,
    /// True if the sweep stopped early on a cancellation request. The
    /// journal and the in-flight cell's checkpoint are sealed; running
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
    done: std::collections::BTreeMap<u64, CellResult>,
    running: std::collections::BTreeSet<u64>,
}

fn read_manifest(path: &Path, config_hash: &str) -> (Manifest, Vec<String>) {
    let mut manifest = Manifest::default();
    let mut warnings = Vec::new();
    let Ok(contents) = fs::read_to_string(path) else {
        return (manifest, warnings);
    };
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
    (manifest, warnings)
}

/// Appends one journal line and fsyncs, so the transition survives a
/// crash that happens right after it.
fn append_journal(path: &Path, line: &ManifestLine) -> io::Result<()> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    let mut serialized =
        serde_json::to_string(line).map_err(io::Error::other)?;
    serialized.push('\n');
    file.write_all(serialized.as_bytes())?;
    file.sync_all()
}

/// Writes `contents` to `path` atomically: a `*.tmp` sibling in the
/// same directory, fsync, rename, directory fsync. A crash at any
/// point leaves either the old file or the new one, never a torn mix.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(contents)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Persist the rename itself; without this a crash can forget
        // the directory entry even though the data blocks are safe.
        if let Ok(dir_handle) = File::open(dir) {
            let _ = dir_handle.sync_all();
        }
    }
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
    cells: &std::collections::BTreeMap<u64, (u64, CellResult)>,
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

/// Executes (or resumes) a sweep of `opts.runs` cells into `out_dir`.
/// [`run_sweep_controlled`] with no cancellation or progress hooks.
///
/// # Errors
///
/// Returns [`SweepError::Config`] if the configuration does not build
/// and [`SweepError::Io`] on filesystem trouble. A corrupt or missing
/// checkpoint is *not* an error: the affected cell restarts from event
/// zero (with a warning) and the sweep continues.
pub fn run_sweep(
    config: &LoadTestConfig,
    out_dir: &Path,
    opts: &SweepOptions,
) -> Result<SweepOutcome, SweepError> {
    run_sweep_controlled(config, out_dir, opts, &mut SweepControl::default())
}

/// [`run_sweep`] with cooperative cancellation and progress reporting —
/// the entry point `treadmill-serve` and the signal-handling CLI use.
///
/// # Errors
///
/// Same as [`run_sweep`]. Cancellation is *not* an error: the outcome
/// comes back `Ok` with [`SweepOutcome::interrupted`] set.
pub fn run_sweep_controlled(
    config: &LoadTestConfig,
    out_dir: &Path,
    opts: &SweepOptions,
    ctrl: &mut SweepControl<'_>,
) -> Result<SweepOutcome, SweepError> {
    let test = config.build()?;
    let config_hash = format!("{:016x}", fnv1a64(config.to_json().as_bytes()));
    fs::create_dir_all(out_dir)?;
    let manifest_path = out_dir.join("manifest.jsonl");

    let mut outcome = SweepOutcome {
        summary_path: out_dir.join("summary.tsv"),
        ..SweepOutcome::default()
    };

    let manifest = if opts.resume {
        let (manifest, warnings) = read_manifest(&manifest_path, &config_hash);
        outcome.warnings.extend(warnings);
        manifest
    } else {
        // Fresh start: drop any previous journal and checkpoints so a
        // stale `done` line cannot shadow the new configuration.
        if manifest_path.exists() {
            fs::remove_file(&manifest_path)?;
        }
        for cell in 0..opts.runs {
            let _ = fs::remove_file(ckpt_path(out_dir, cell));
        }
        for cell in 0..opts.runs {
            append_journal(
                &manifest_path,
                &ManifestLine {
                    cell,
                    status: "pending".to_string(),
                    seed: test.derive_run_seed(cell),
                    config_hash: config_hash.clone(),
                    result: None,
                },
            )?;
        }
        Manifest::default()
    };

    let mut summary_cells: std::collections::BTreeMap<u64, (u64, CellResult)> = manifest
        .done
        .iter()
        .map(|(&cell, result)| (cell, (test.derive_run_seed(cell), result.clone())))
        .collect();

    // Snapshot scratch buffer, recycled across every checkpoint of
    // every cell — see `ResumableRun::checkpoint_into`.
    let mut ckpt_buf = Vec::new();

    'cells: for cell in 0..opts.runs {
        let seed = test.derive_run_seed(cell);
        if manifest.done.contains_key(&cell) {
            outcome.skipped.push(cell);
            ctrl.emit(SweepEvent::CellSkipped { cell });
            continue;
        }
        if ctrl.cancelled() {
            outcome.interrupted = true;
            ctrl.emit(SweepEvent::Interrupted { cell: None });
            break 'cells;
        }

        let checkpoint_file = ckpt_path(out_dir, cell);
        let mut run = None;
        if opts.resume && manifest.running.contains(&cell) {
            match fs::read(&checkpoint_file) {
                Ok(bytes) => match ResumableRun::resume(test.clone(), cell, &bytes) {
                    Ok(resumed) => {
                        outcome.resumed_cell = Some(cell);
                        outcome.warnings.push(format!(
                            "cell {cell}: resumed from checkpoint at {} events",
                            resumed.events_executed()
                        ));
                        run = Some(resumed);
                    }
                    Err(e) => outcome.warnings.push(format!(
                        "cell {cell}: checkpoint unusable ({e}); restarting from event zero"
                    )),
                },
                Err(_) => outcome.warnings.push(format!(
                    "cell {cell}: was in flight but left no checkpoint; \
                     restarting from event zero"
                )),
            }
        }
        let mut run = match run {
            Some(run) => run,
            None => {
                append_journal(
                    &manifest_path,
                    &ManifestLine {
                        cell,
                        status: "running".to_string(),
                        seed,
                        config_hash: config_hash.clone(),
                        result: None,
                    },
                )?;
                ResumableRun::new(test.clone(), cell)
            }
        };
        ctrl.emit(SweepEvent::CellStarted {
            cell,
            seed,
            resumed_at_events: run.events_executed(),
        });

        // The crash-tolerance loop: execute a batch, persist a
        // checkpoint, audit. A SIGKILL between any two statements loses
        // at most one batch of work; a cancellation request observed
        // here returns with the just-sealed checkpoint as the resume
        // point.
        while run.step(opts.ckpt_events) > 0 {
            if run.is_finished() {
                break;
            }
            run.checkpoint_into(&mut ckpt_buf);
            write_atomic(&checkpoint_file, &ckpt_buf)?;
            for finding in run.audit(opts.max_pending) {
                outcome.warnings.push(format!("cell {cell}: auditor: {finding}"));
            }
            ctrl.emit(SweepEvent::Checkpointed {
                cell,
                events: run.events_executed(),
                samples: run.tail().count(),
                p99_us: run.tail().p99_us(),
            });
            if ctrl.cancelled() {
                outcome.interrupted = true;
                outcome.warnings.push(format!(
                    "cell {cell}: interrupted at {} events; checkpoint sealed — \
                     resume with --resume",
                    run.events_executed()
                ));
                ctrl.emit(SweepEvent::Interrupted { cell: Some(cell) });
                break 'cells;
            }
        }

        let report = run.finish();
        for finding in &report.run.audit_findings {
            outcome
                .warnings
                .push(format!("cell {cell}: auditor: {finding}"));
        }
        for warning in health_warnings(&report, config.target_rps) {
            outcome.warnings.push(format!("cell {cell}: {warning}"));
        }
        let result = CellResult::from_report(&report);
        write_atomic(
            &out_dir.join(format!("cell_{cell}.tsv")),
            cell_tsv(cell, seed, &config_hash, &report).as_bytes(),
        )?;
        write_atomic(
            &attr_path(out_dir, cell),
            attribution_tsv(cell, seed, &config_hash, &test.raw_latencies(&report)).as_bytes(),
        )?;
        append_journal(
            &manifest_path,
            &ManifestLine {
                cell,
                status: "done".to_string(),
                seed,
                config_hash: config_hash.clone(),
                result: Some(result.clone()),
            },
        )?;
        let _ = fs::remove_file(&checkpoint_file);
        let (samples, p99_us) = (result.samples, from_bits(&result.p99_bits));
        summary_cells.insert(cell, (seed, result));
        outcome.executed.push(cell);
        ctrl.emit(SweepEvent::CellDone {
            cell,
            samples,
            p99_us,
        });
    }

    outcome.cells = summary_cells
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
        summary_tsv(config.seed, &config_hash, &summary_cells).as_bytes(),
    )?;
    if !outcome.interrupted {
        // The sweep-wide attribution aggregate is only meaningful (and
        // only byte-stable) once every cell has contributed its rows.
        let attribution = aggregate_attribution(
            out_dir,
            config.seed,
            &config_hash,
            opts.runs,
            &mut outcome.warnings,
        );
        write_atomic(&out_dir.join("attribution.tsv"), attribution.as_bytes())?;
    }
    Ok(outcome)
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
/// crash-tolerant [`run_sweep`] into `hw_NN/` under `out_dir`, and the
/// across-run aggregates land in `factorial.tsv`.
///
/// # Errors
///
/// Same as [`run_sweep`].
pub fn run_factorial_sweep(
    config: &LoadTestConfig,
    out_dir: &Path,
    opts: &SweepOptions,
) -> Result<FactorialOutcome, SweepError> {
    factorial_sweep_impl(config, out_dir, opts, None, &mut SweepControl::default())
}

/// Runs the two-stage screened sweep: DES runs are spent only on the
/// cells the analytic screen flagged. A threshold-0 plan (every cell
/// flagged) reproduces [`run_factorial_sweep`]'s artifacts
/// byte-for-byte.
///
/// # Errors
///
/// [`SweepError::Screen`] for a malformed plan, otherwise the same as
/// [`run_sweep`].
pub fn run_screened_sweep(
    config: &LoadTestConfig,
    out_dir: &Path,
    opts: &SweepOptions,
    plan: &ScreenedSweepPlan,
) -> Result<FactorialOutcome, SweepError> {
    factorial_sweep_impl(config, out_dir, opts, Some(plan), &mut SweepControl::default())
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
    factorial_sweep_impl(config, out_dir, opts, plan, ctrl)
}

fn factorial_sweep_impl(
    config: &LoadTestConfig,
    out_dir: &Path,
    opts: &SweepOptions,
    plan: Option<&ScreenedSweepPlan>,
    ctrl: &mut SweepControl<'_>,
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

    for index in 0..FACTORIAL_CELLS {
        if let Some(plan) = plan {
            if !plan.cells[index].flagged {
                continue;
            }
        }
        let cell_config = factorial_cell_config(config, index);
        let cell_dir = factorial_cell_dir(out_dir, index);
        let inner = run_sweep_controlled(&cell_config, &cell_dir, opts, ctrl)?;
        for warning in &inner.warnings {
            outcome.warnings.push(format!("hw {index}: {warning}"));
        }
        if inner.interrupted {
            outcome.interrupted = true;
            break;
        }
        let runs = inner.cells.len() as u64;
        let mean_of = |f: &dyn Fn(&CellSummary) -> f64| {
            inner.cells.iter().map(f).sum::<f64>() / runs.max(1) as f64
        };
        outcome.cells.push(FactorialCellResult {
            index,
            dir: cell_dir,
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

        // Cancel at the first checkpoint of cell 0 — the graceful
        // SIGTERM path: the sweep returns Ok, interrupted, with the
        // checkpoint sealed and the journal still marking cell 0
        // running.
        let dir = tempdir("cancel");
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
            run_sweep_controlled(&small_config(), &dir, &opts(2), &mut ctrl).expect("sweep");
        assert!(outcome.interrupted);
        assert!(outcome.executed.is_empty());
        assert!(dir.join("cell_0.ckpt").exists(), "checkpoint must be sealed");

        // Resume without cancellation: byte-identical to the golden.
        let resumed_opts = SweepOptions {
            resume: true,
            ..opts(2)
        };
        let outcome = run_sweep(&small_config(), &dir, &resumed_opts).expect("resume");
        assert_eq!(outcome.resumed_cell, Some(0));
        assert!(!outcome.interrupted);
        for artifact in ["cell_0.tsv", "cell_1.tsv", "summary.tsv", "attribution.tsv"] {
            let golden = fs::read(golden_dir.join(artifact)).expect("golden artifact");
            let resumed = fs::read(dir.join(artifact)).expect("resumed artifact");
            assert_eq!(golden, resumed, "{artifact} differs after cancel+resume");
        }
        let _ = fs::remove_dir_all(&golden_dir);
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
        run_sweep(&small_config(), &golden_dir, &opts(1)).expect("golden sweep");

        // Hand-craft a crashed sweep: journal says cell 0 is running,
        // and a mid-run checkpoint exists.
        let dir = tempdir("midcell");
        let config = small_config();
        let test = config.build().expect("build");
        let hash = format!("{:016x}", fnv1a64(config.to_json().as_bytes()));
        append_journal(
            &dir.join("manifest.jsonl"),
            &ManifestLine {
                cell: 0,
                status: "running".to_string(),
                seed: test.derive_run_seed(0),
                config_hash: hash,
                result: None,
            },
        )
        .expect("journal");
        let mut run = ResumableRun::new(test, 0);
        run.step(30_000);
        write_atomic(&ckpt_path(&dir, 0), &run.checkpoint()).expect("checkpoint");

        let resumed_opts = SweepOptions {
            resume: true,
            ..opts(1)
        };
        let outcome = run_sweep(&config, &dir, &resumed_opts).expect("resumed sweep");
        assert_eq!(outcome.resumed_cell, Some(0));
        for artifact in ["cell_0.tsv", "summary.tsv"] {
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
        append_journal(
            &dir.join("manifest.jsonl"),
            &ManifestLine {
                cell: 0,
                status: "running".to_string(),
                seed: test.derive_run_seed(0),
                config_hash: hash,
                result: None,
            },
        )
        .expect("journal");
        fs::write(ckpt_path(&dir, 0), b"not a checkpoint").expect("corrupt ckpt");

        let resumed_opts = SweepOptions {
            resume: true,
            ..opts(1)
        };
        let outcome = run_sweep(&config, &dir, &resumed_opts).expect("resumed");
        assert_eq!(outcome.resumed_cell, None);
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
