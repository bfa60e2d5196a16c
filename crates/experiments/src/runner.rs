//! Fault-tolerant grid runner: per-cell isolation, binary checkpointing,
//! and resume.
//!
//! The Figs. 6/7 grid is hours of CPU at paper scale; one panicking cell
//! or a runaway simulation must not throw the rest away. This module runs
//! each (N, θ, scheme) cell through [`try_run_cell`] — panics are caught
//! per topology, an optional [`Watchdog`] bounds runaway simulations — and
//! appends each cell's outcome to a checkpoint file as one CRC-framed
//! `CKPT_CELL` frame ([`crate::wireio`]). `--resume` replays the
//! checkpoint, re-runs only missing or failed cells, and produces a final
//! report identical to an uninterrupted run (per-cell results are
//! deterministic, so order of completion is irrelevant). Samples
//! round-trip bit-exactly through their IEEE-754 patterns.
//!
//! `trace_view <checkpoint>` prints a checkpoint's records, one per line.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use dirca_mac::Scheme;
use dirca_net::Watchdog;
use dirca_trace::wire::{self, kind, FrameDecoder, WireError};

use crate::cli::{Flags, UsageError};
use crate::report::GridScale;
use crate::ringsim::{try_run_cell, CellFailure, CellGuards, TopologySample};
use crate::wireio;

/// One grid coordinate: density × beamwidth × scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Neighbourhood size `N`.
    pub n: usize,
    /// Beamwidth θ in degrees.
    pub theta: f64,
    /// Collision-avoidance scheme.
    pub scheme: Scheme,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N={} θ={}° {}", self.n, self.theta, self.scheme)
    }
}

impl Cell {
    /// Parses the `--inject-*` flag syntax `n,theta,scheme`, e.g.
    /// `3,90,ORTS-OCTS`.
    pub fn parse(text: &str) -> Option<Cell> {
        let mut parts = text.split(',');
        let n = parts.next()?.trim().parse().ok()?;
        let theta = parts.next()?.trim().parse().ok()?;
        let scheme = parts.next()?.trim().parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(Cell { n, theta, scheme })
    }

    fn key(&self) -> CellKey {
        (self.n, self.theta.to_bits(), self.scheme as u8)
    }
}

type CellKey = (usize, u64, u8);

/// The outcome of one cell under the runner.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Which cell.
    pub cell: Cell,
    /// How many attempts were spent this invocation (0 when restored from
    /// a checkpoint).
    pub attempts: u32,
    /// The samples, or why they could not be produced.
    pub result: Result<Vec<TopologySample>, CellFailure>,
}

/// What a [`run_grid`] invocation did.
#[derive(Debug)]
pub struct GridRun {
    /// Per-cell outcomes in deterministic grid order (restored cells
    /// included), covering every cell that was reached.
    pub outcomes: Vec<CellOutcome>,
    /// Cells actually executed (not restored) this invocation.
    pub executed: usize,
    /// Cells restored from the checkpoint.
    pub restored: usize,
    /// Whether `--max-cells` stopped the run before the grid completed.
    pub stopped_early: bool,
    /// Non-fatal degradations (e.g. a torn checkpoint tail skipped on
    /// resume), for the caller to surface on stderr.
    pub warnings: Vec<String>,
}

impl GridRun {
    /// The outcomes that failed, in grid order.
    pub fn failures(&self) -> Vec<&CellOutcome> {
        self.outcomes.iter().filter(|o| o.result.is_err()).collect()
    }

    /// Renders the failed cells with their coordinates, one per line.
    /// Empty string when everything succeeded.
    pub fn render_failures(&self) -> String {
        let failures = self.failures();
        if failures.is_empty() {
            return String::new();
        }
        let mut out = String::from("FAILED CELLS\n");
        for o in failures {
            let failure = o.result.as_ref().expect_err("filtered to failures");
            out.push_str(&format!(
                "  {} — {} (attempts: {})\n",
                o.cell, failure, o.attempts
            ));
        }
        out
    }
}

/// Runner policy, usually built from command-line flags.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads per cell.
    pub threads: usize,
    /// Extra attempts for a failed cell beyond the first (the simulations
    /// are deterministic, so retries only help against environmental
    /// failures — resource exhaustion, not logic bugs).
    pub retries: u32,
    /// Watchdog budget applied to every topology simulation.
    pub watchdog: Option<Watchdog>,
    /// Binary checkpoint file to write (and resume from): a
    /// `CKPT_HEADER` frame pinning the grid fingerprint, then one
    /// `CKPT_CELL` frame per finished cell, flushed before the next cell
    /// starts.
    pub checkpoint: Option<PathBuf>,
    /// Re-use completed cells from an existing checkpoint instead of
    /// starting over. A torn final frame is salvaged with a warning;
    /// anything else that is not a valid checkpoint is refused.
    pub resume: bool,
    /// Stop after executing this many cells this invocation.
    pub max_cells: Option<usize>,
    /// Drill switch: this cell deliberately panics (topology 0).
    pub inject_panic: Option<Cell>,
    /// Drill switch: this cell runs under a starvation watchdog.
    pub inject_timeout: Option<Cell>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            threads: 1,
            retries: 1,
            watchdog: None,
            checkpoint: None,
            resume: false,
            max_cells: None,
            inject_panic: None,
            inject_timeout: None,
        }
    }
}

impl RunnerConfig {
    /// Builds the runner policy from flags: `--threads`, `--retries`,
    /// `--events-budget`, `--checkpoint PATH`, `--resume`, `--max-cells`,
    /// and the drill switches `--inject-panic n,theta,scheme` /
    /// `--inject-timeout n,theta,scheme`.
    pub fn try_from_flags(flags: &Flags) -> Result<Self, UsageError> {
        let parse_cell = |flag: &str| -> Result<Option<Cell>, UsageError> {
            match flags.get(flag) {
                None => Ok(None),
                Some(v) => Cell::parse(v).map(Some).ok_or_else(|| UsageError {
                    flag: flag.to_string(),
                    expected: "a cell as n,theta,scheme",
                    got: v.to_string(),
                }),
            }
        };
        let events_budget = flags.try_get_u64("events-budget", 0)?;
        Ok(RunnerConfig {
            threads: flags.try_get_usize(
                "threads",
                std::thread::available_parallelism().map_or(4, |n| n.get()),
            )?,
            retries: u32::try_from(flags.try_get_usize("retries", 1)?).unwrap_or(u32::MAX),
            watchdog: (events_budget > 0).then(|| Watchdog::max_events(events_budget)),
            checkpoint: flags.get("checkpoint").map(PathBuf::from),
            resume: flags.has("resume"),
            max_cells: match flags.try_get_usize("max-cells", 0)? {
                0 => None,
                k => Some(k),
            },
            inject_panic: parse_cell("inject-panic")?,
            inject_timeout: parse_cell("inject-timeout")?,
        })
    }
}

/// The deterministic cell order of a grid: densities × beamwidths ×
/// schemes, exactly as the reports iterate them.
pub fn enumerate_cells(scale: &GridScale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &n in &scale.densities {
        for &theta in &scale.beamwidths {
            for scheme in Scheme::ALL {
                cells.push(Cell { n, theta, scheme });
            }
        }
    }
    cells
}

/// FNV-1a over the scale parameters that determine cell results. Thread
/// count is deliberately excluded: results are thread-count independent,
/// so a checkpoint taken at `--threads 1` resumes fine at `--threads 8`.
pub fn grid_fingerprint(scale: &GridScale) -> String {
    let canon = format!(
        "topologies={};measure={:?};warmup={:?};seed={};densities={:?};beamwidths={:?};fer={:?}",
        scale.topologies,
        scale.measure,
        scale.warmup,
        scale.seed,
        scale.densities,
        scale.beamwidths,
        scale.fer
    );
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canon.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

// ---------------------------------------------------------------------
// Checkpoint errors.
// ---------------------------------------------------------------------

/// Why a checkpoint could not be written or replayed. Frame numbers are
/// 1-based; the header is frame 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (message carries the OS error text).
    Io {
        /// The checkpoint path.
        path: String,
        /// What failed.
        what: String,
    },
    /// The file does not start with a valid `CKPT_HEADER` frame.
    MissingHeader,
    /// The checkpoint was taken for a different grid configuration.
    FingerprintMismatch {
        /// Fingerprint of the requested grid.
        expected: String,
        /// Fingerprint recorded in the file.
        found: String,
    },
    /// A frame before the tail is damaged: an intact frame follows it, so
    /// this is corruption, not a torn final write. The file is left as is.
    CorruptFrame {
        /// The damaged frame.
        frame: usize,
        /// Why the decoder refused it (carries its byte offset).
        error: WireError,
    },
    /// A CRC-valid frame is not a valid checkpoint record.
    BadRecord {
        /// The offending frame.
        frame: usize,
        /// Which field or value is wrong.
        what: String,
    },
    /// A record names a cell outside the requested grid.
    UnknownCell {
        /// The offending frame.
        frame: usize,
        /// The offending cell, rendered.
        cell: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, what } => {
                write!(f, "checkpoint {path}: {what}")
            }
            CheckpointError::MissingHeader => write!(
                f,
                "checkpoint: missing or malformed binary header (checkpoints are \
                 CRC-framed binary; JSONL checkpoints from older versions cannot be resumed)"
            ),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different grid (fingerprint {found}, expected {expected})"
            ),
            CheckpointError::CorruptFrame { frame, error } => write!(
                f,
                "checkpoint frame {frame} is corrupt ({error}) and intact frames follow it; \
                 refusing to resume"
            ),
            CheckpointError::BadRecord { frame, what } => {
                write!(f, "checkpoint frame {frame}: bad record: {what}")
            }
            CheckpointError::UnknownCell { frame, cell } => {
                write!(
                    f,
                    "checkpoint frame {frame}: cell {cell} is not in this grid"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

fn io_err(path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.display().to_string(),
        what: e.to_string(),
    }
}

// ---------------------------------------------------------------------
// Replay.
// ---------------------------------------------------------------------

/// What a checkpoint replay restored: the completed cells' samples plus
/// any non-fatal degradations encountered along the way.
type Restored = (BTreeMap<CellKey, Vec<TopologySample>>, Vec<String>);

/// Whether the decoder's stop at `error` is a torn tail: no intact frame
/// starts anywhere after the refused frame's first byte. A crash
/// mid-append leaves only a prefix of the last frame, so a real tear
/// always passes; damage with whole frames behind it never does.
fn is_torn_tail(bytes: &[u8], error: &WireError) -> bool {
    let from = usize::try_from(error.offset()).map_or(bytes.len(), |o| o + 1);
    let rest = bytes.get(from..).unwrap_or_default();
    !(0..rest.len())
        .filter(|&i| rest[i..].starts_with(&wire::MAGIC))
        .any(|i| matches!(FrameDecoder::new(&rest[i..]).next(), Some(Ok(_))))
}

/// Replays a checkpoint from its raw bytes: validates the header
/// fingerprint and returns the completed cells' samples (later records
/// for the same cell win, so a retried cell restores its newest outcome;
/// recorded failures restore nothing, so their cells re-run).
///
/// Crash tolerance: a torn or corrupt *final* frame — the signature of a
/// crash mid-write — is skipped with a warning and its cell re-run,
/// instead of failing the whole resume. Damage anywhere *before* the
/// tail is a hard [`CheckpointError::CorruptFrame`]: that is not a torn
/// write, and silently dropping the intact records behind it would throw
/// away finished work.
fn load_checkpoint(
    bytes: &[u8],
    fingerprint: &str,
    grid: &[Cell],
) -> Result<Restored, CheckpointError> {
    let (frames, tail_error) = wire::decode_all(bytes);
    let Some(header) = frames.first() else {
        return Err(CheckpointError::MissingHeader);
    };
    if header.kind != kind::CKPT_HEADER {
        return Err(CheckpointError::MissingHeader);
    }
    let found =
        wireio::decode_ckpt_header(&header.payload).map_err(|_| CheckpointError::MissingHeader)?;
    if found != fingerprint {
        return Err(CheckpointError::FingerprintMismatch {
            expected: fingerprint.to_string(),
            found,
        });
    }
    let mut warnings = Vec::new();
    if let Some(error) = tail_error {
        if !is_torn_tail(bytes, &error) {
            return Err(CheckpointError::CorruptFrame {
                frame: frames.len() + 1,
                error,
            });
        }
        warnings.push(format!(
            "checkpoint tail is torn or corrupt and was skipped \
             (at most one cell will re-run): {error}"
        ));
    }
    let mut done = BTreeMap::new();
    for (i, frame) in frames.iter().enumerate().skip(1) {
        let frame_no = i + 1;
        let bad = |what: String| CheckpointError::BadRecord {
            frame: frame_no,
            what,
        };
        if frame.kind != kind::CKPT_CELL {
            return Err(bad(format!("unexpected frame kind {:#04x}", frame.kind)));
        }
        // A CRC-valid frame with an undecodable payload is not a torn
        // write — it is a schema mismatch, and stays a hard error.
        let (cell, result) =
            wireio::decode_ckpt_cell(&frame.payload).map_err(|e| bad(e.to_string()))?;
        if !grid.iter().any(|c| c.key() == cell.key()) {
            return Err(CheckpointError::UnknownCell {
                frame: frame_no,
                cell: cell.to_string(),
            });
        }
        match result {
            Ok(samples) => {
                done.insert(cell.key(), samples);
            }
            // A newer failure supersedes an older success only if the
            // cell was re-run and failed — keep the latest verdict.
            Err(_) => {
                done.remove(&cell.key());
            }
        }
    }
    Ok((done, warnings))
}

// ---------------------------------------------------------------------
// Compaction: drop a salvaged torn tail from the file itself.
// ---------------------------------------------------------------------

/// The longest valid prefix of a checkpoint document: the header plus
/// every intact frame before the first damaged byte. Frame encoding is
/// deterministic, so valid frames re-encode to their exact original
/// bytes and recorded failures keep their full diagnosis. Idempotent:
/// compacting an already clean document returns it unchanged. Bytes that
/// do not even start with a valid header are returned untouched —
/// compaction never destroys what it cannot parse. The runner compacts
/// only after `load_checkpoint` has classified the damage as a torn
/// tail, so no intact record is ever dropped.
pub fn compacted_checkpoint(bytes: &[u8]) -> Vec<u8> {
    let (frames, _tail_error) = wire::decode_all(bytes);
    if frames.first().is_none_or(|f| f.kind != kind::CKPT_HEADER) {
        return bytes.to_vec();
    }
    let mut out = Vec::with_capacity(bytes.len());
    for frame in &frames {
        wire::encode_frame_into(frame.kind, &frame.payload, &mut out);
    }
    out
}

/// Rewrites a salvaged checkpoint in place without its torn tail, via
/// temp file + atomic rename: a crash at any instant leaves either the
/// old file or the new one on disk, never a hybrid. Called *before* the
/// append sink opens, so the re-run cell's record lands in a clean file
/// and the next resume restores with zero warnings.
fn compact_checkpoint_file(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let compacted = compacted_checkpoint(bytes);
    let tmp = compact_temp_path(path);
    std::fs::write(&tmp, &compacted).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// Sibling path the compacted bytes are staged at (same directory, so the
/// rename cannot cross filesystems and stays atomic). A stale temp file
/// left by a crash mid-compaction is simply overwritten next time.
/// Public so the kill-during-compaction drill can inspect the staging
/// site without duplicating the naming scheme.
pub fn compact_temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("checkpoint"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".compact-tmp");
    path.with_file_name(name)
}

// ---------------------------------------------------------------------
// The runner.
// ---------------------------------------------------------------------

/// Runs every cell of `scale`'s grid under the runner policy.
///
/// Cells already completed in the checkpoint (when resuming) are restored
/// without re-execution. Each remaining cell runs under panic isolation
/// and the configured watchdog, with up to `retries` extra attempts; its
/// outcome is appended to the checkpoint before the next cell starts, so
/// an interruption at any point loses at most one cell of work.
pub fn run_grid(scale: &GridScale, config: &RunnerConfig) -> Result<GridRun, CheckpointError> {
    run_grid_with(scale, config, &mut |_| {})
}

/// [`run_grid`] with a per-cell observer: `observer` is called with every
/// outcome as soon as it is known (restored cells first, then each
/// executed cell right after its checkpoint record is flushed). This is
/// the hook `dirca-serve` streams progress heartbeats from — by the time
/// the observer sees an outcome, it is already durable.
pub fn run_grid_with(
    scale: &GridScale,
    config: &RunnerConfig,
    observer: &mut dyn FnMut(&CellOutcome),
) -> Result<GridRun, CheckpointError> {
    let cells = enumerate_cells(scale);
    let fingerprint = grid_fingerprint(scale);
    let mut done: BTreeMap<CellKey, Vec<TopologySample>> = BTreeMap::new();
    let mut warnings = Vec::new();
    let mut sink: Option<File> = None;
    if let Some(path) = &config.checkpoint {
        if config.resume && path.exists() {
            let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
            (done, warnings) = load_checkpoint(&bytes, &fingerprint, &cells)?;
            if !warnings.is_empty() {
                // A torn tail was salvaged: compact it out of the file
                // now, so appended outcomes land after valid records and
                // the next resume is warning-free instead of degrading
                // forever.
                compact_checkpoint_file(path, &bytes)?;
            }
            sink = Some(
                OpenOptions::new()
                    .append(true)
                    .open(path)
                    .map_err(|e| io_err(path, e))?,
            );
        } else {
            let mut file = File::create(path).map_err(|e| io_err(path, e))?;
            file.write_all(&wireio::ckpt_header_frame(&fingerprint))
                .map_err(|e| io_err(path, e))?;
            sink = Some(file);
        }
    }
    let restored = done.len();
    let mut outcomes = Vec::with_capacity(cells.len());
    let mut executed = 0usize;
    let mut stopped_early = false;
    for cell in &cells {
        if let Some(samples) = done.get(&cell.key()) {
            outcomes.push(CellOutcome {
                cell: *cell,
                attempts: 0,
                result: Ok(samples.clone()),
            });
            observer(outcomes.last().expect("just pushed"));
            continue;
        }
        if config.max_cells.is_some_and(|k| executed >= k) {
            stopped_early = true;
            break;
        }
        executed += 1;
        let experiment = scale.cell(cell.scheme, cell.n, cell.theta);
        let drilled_timeout = config.inject_timeout.is_some_and(|c| c.key() == cell.key());
        let guards = CellGuards {
            watchdog: if drilled_timeout {
                // A budget no simulation can fit in: forces the timeout
                // path deterministically.
                Some(Watchdog::max_events(1))
            } else {
                config.watchdog
            },
            drill_panic: config.inject_panic.is_some_and(|c| c.key() == cell.key()),
        };
        let mut attempts = 0u32;
        let result = loop {
            attempts += 1;
            match try_run_cell(&experiment, config.threads, &guards) {
                Ok(samples) => break Ok(samples),
                Err(failure) if attempts > config.retries => break Err(failure),
                Err(_) => continue,
            }
        };
        if let (Some(file), Some(path)) = (sink.as_mut(), config.checkpoint.as_ref()) {
            file.write_all(&wireio::ckpt_cell_frame(cell, &result))
                .map_err(|e| io_err(path, e))?;
            file.flush().map_err(|e| io_err(path, e))?;
        }
        outcomes.push(CellOutcome {
            cell: *cell,
            attempts,
            result,
        });
        observer(outcomes.last().expect("just pushed"));
    }
    Ok(GridRun {
        outcomes,
        executed,
        restored,
        stopped_early,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_parse_round_trips_flag_syntax() {
        let cell = Cell::parse("3,90,ORTS-OCTS").unwrap();
        assert_eq!(
            cell,
            Cell {
                n: 3,
                theta: 90.0,
                scheme: Scheme::OrtsOcts
            }
        );
        assert!(Cell::parse("3,90").is_none());
        assert!(Cell::parse("3,90,ORTS-OCTS,extra").is_none());
        assert!(Cell::parse("x,90,ORTS-OCTS").is_none());
    }

    #[test]
    fn fingerprint_ignores_threads_but_not_seed() {
        let scale = |seed, threads| GridScale {
            topologies: 2,
            measure: dirca_sim::SimDuration::from_millis(100),
            warmup: dirca_sim::SimDuration::from_millis(10),
            threads,
            seed,
            densities: vec![3],
            beamwidths: vec![90.0],
            fer: 0.0,
        };
        assert_eq!(
            grid_fingerprint(&scale(1, 1)),
            grid_fingerprint(&scale(1, 8))
        );
        assert_ne!(
            grid_fingerprint(&scale(1, 1)),
            grid_fingerprint(&scale(2, 1))
        );
    }

    #[test]
    fn fingerprint_of_the_quick_grid_is_pinned() {
        // Checkpoints written by earlier versions resume only while this
        // value holds.
        let flags = Flags::parse(
            ["--quick", "--n", "3", "--theta", "90"]
                .iter()
                .map(|s| s.to_string()),
        );
        let scale = GridScale::try_from_flags(&flags).unwrap();
        assert_eq!(grid_fingerprint(&scale), "b21cff794c84e3ce");
    }

    #[test]
    fn enumerate_matches_report_order() {
        let scale = GridScale {
            topologies: 1,
            measure: dirca_sim::SimDuration::from_millis(100),
            warmup: dirca_sim::SimDuration::ZERO,
            threads: 1,
            seed: 0,
            densities: vec![3, 5],
            beamwidths: vec![30.0, 90.0],
            fer: 0.0,
        };
        let cells = enumerate_cells(&scale);
        assert_eq!(cells.len(), 2 * 2 * 3);
        assert_eq!(cells[0].n, 3);
        assert_eq!(cells[0].theta, 30.0);
        assert_eq!(cells[0].scheme, Scheme::OrtsOcts);
        assert_eq!(cells.last().unwrap().n, 5);
    }
}
