//! Fault-tolerant grid runner: per-cell isolation, JSONL checkpointing,
//! and resume.
//!
//! The Figs. 6/7 grid is hours of CPU at paper scale; one panicking cell
//! or a runaway simulation must not throw the rest away. This module runs
//! each (N, θ, scheme) cell through [`try_run_cell`] — panics are caught
//! per topology, an optional [`Watchdog`] bounds runaway simulations — and
//! appends each cell's outcome to a checkpoint file as one JSON line.
//! `--resume` replays the checkpoint, re-runs only missing or failed
//! cells, and produces a final report identical to an uninterrupted run
//! (per-cell results are deterministic, so order of completion is
//! irrelevant).
//!
//! The checkpoint format is a deliberately small JSON subset (objects,
//! arrays, strings, numbers, `null`) written by hand and parsed with the
//! workspace's one JSON codec, [`dirca_trace::json`] — no serialization
//! dependency, and strict typed errors instead of silent tolerance.
//! Floats round-trip exactly through Rust's shortest-representation
//! `Display`.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use dirca_mac::Scheme;
use dirca_net::Watchdog;
use dirca_sim::AbortReason;
use dirca_trace::json::{escape_into, Json};

use crate::cli::{Flags, UsageError};
use crate::report::GridScale;
use crate::ringsim::{try_run_cell, CellFailure, CellGuards, TopologySample};
use crate::wireio::{self, WireFormat};

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
    /// Checkpoint file to write (and resume from).
    pub checkpoint: Option<PathBuf>,
    /// Encoding for a freshly created checkpoint. On resume the existing
    /// file's format wins (sniffed from its leading bytes), so appended
    /// records always match what is already there.
    pub checkpoint_format: WireFormat,
    /// Re-use completed cells from the checkpoint instead of starting
    /// over.
    pub resume: bool,
    /// Stop after executing this many cells this invocation.
    pub max_cells: Option<usize>,
    /// Drill switch: this cell deliberately panics (topology 0).
    pub inject_panic: Option<Cell>,
    /// Drill switch: this cell runs under a starvation watchdog.
    pub inject_timeout: Option<Cell>,
    /// Worker threads for the sharded engine inside each topology
    /// simulation (`0` = classic single-queue engine). Sharded samples are
    /// worker-count invariant but not byte-equal to classic ones, so the
    /// engine choice is part of the checkpoint fingerprint.
    pub engine_threads: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            threads: 1,
            retries: 1,
            watchdog: None,
            checkpoint: None,
            checkpoint_format: WireFormat::Jsonl,
            resume: false,
            max_cells: None,
            inject_panic: None,
            inject_timeout: None,
            engine_threads: 0,
        }
    }
}

impl RunnerConfig {
    /// Builds the runner policy from flags: `--threads`, `--retries`,
    /// `--events-budget`, `--checkpoint PATH`,
    /// `--checkpoint-format {jsonl,bin}`, `--resume`, `--max-cells`, and
    /// the drill switches `--inject-panic n,theta,scheme` /
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
            checkpoint_format: WireFormat::try_from_flags(flags, "checkpoint-format")?,
            resume: flags.has("resume"),
            max_cells: match flags.try_get_usize("max-cells", 0)? {
                0 => None,
                k => Some(k),
            },
            inject_panic: parse_cell("inject-panic")?,
            inject_timeout: parse_cell("inject-timeout")?,
            engine_threads: flags.try_get_usize("engine-threads", 0)?,
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
    grid_fingerprint_for(scale, 0)
}

/// [`grid_fingerprint`] for a specific engine choice. The classic engine
/// (`engine_threads == 0`) keeps the historical fingerprint; the sharded
/// engine appends its fixed stripe count, because partitioned samples are
/// not byte-equal to classic ones and the two must never restore into
/// each other. The *worker* count stays excluded — sharded results are
/// worker-count invariant, so `--engine-threads 2` resumes a checkpoint
/// taken at `--engine-threads 4`.
pub fn grid_fingerprint_for(scale: &GridScale, engine_threads: usize) -> String {
    let mut canon = format!(
        "topologies={};measure={:?};warmup={:?};seed={};densities={:?};beamwidths={:?};fer={:?}",
        scale.topologies,
        scale.measure,
        scale.warmup,
        scale.seed,
        scale.densities,
        scale.beamwidths,
        scale.fer
    );
    if engine_threads > 0 {
        canon.push_str(&format!(";engine=sharded{}", dirca_net::DEFAULT_SHARDS));
    }
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

/// Why a checkpoint could not be written or replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (message carries the OS error text).
    Io {
        /// The checkpoint path.
        path: String,
        /// What failed.
        what: String,
    },
    /// The first line is not a valid checkpoint header.
    MissingHeader,
    /// The checkpoint was taken for a different grid configuration.
    FingerprintMismatch {
        /// Fingerprint of the requested grid.
        expected: String,
        /// Fingerprint recorded in the file.
        found: String,
    },
    /// A line is not valid checkpoint JSON.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What the parser choked on.
        what: String,
    },
    /// A line parsed as JSON but is not a valid record.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// Which field or value is wrong.
        what: String,
    },
    /// A record names a cell outside the requested grid.
    UnknownCell {
        /// 1-based line number.
        line: usize,
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
            CheckpointError::MissingHeader => {
                write!(f, "checkpoint: missing or malformed header line")
            }
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different grid (fingerprint {found}, expected {expected})"
            ),
            CheckpointError::Syntax { line, what } => {
                write!(f, "checkpoint line {line}: syntax error: {what}")
            }
            CheckpointError::BadRecord { line, what } => {
                write!(f, "checkpoint line {line}: bad record: {what}")
            }
            CheckpointError::UnknownCell { line, cell } => {
                write!(f, "checkpoint line {line}: cell {cell} is not in this grid")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A JSON number as a `usize`, iff it is exactly a non-negative integer
/// in range.
fn as_usize(json: &Json) -> Option<usize> {
    let v = json.as_num()?;
    if !(0.0..=usize::MAX as f64).contains(&v) {
        return None;
    }
    // Exact integrality check without a float comparison: the cast
    // truncates, so the round trip is bit-identical iff `v` already was
    // that integer.
    let n = v as usize;
    ((n as f64).to_bits() == v.to_bits()).then_some(n)
}

// ---------------------------------------------------------------------
// Record rendering and parsing.
// ---------------------------------------------------------------------

fn header_line(fingerprint: &str) -> String {
    format!("{{\"dirca_checkpoint\":1,\"fingerprint\":\"{fingerprint}\"}}")
}

fn opt_num(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v}"),
        None => "null".into(),
    }
}

fn record_line(cell: &Cell, result: &Result<Vec<TopologySample>, CellFailure>) -> String {
    let head = format!(
        "{{\"n\":{},\"theta\":{},\"scheme\":\"{}\"",
        cell.n, cell.theta, cell.scheme
    );
    match result {
        Ok(samples) => {
            let body: Vec<String> = samples
                .iter()
                .map(|s| {
                    format!(
                        "[{},{},{},{}]",
                        s.throughput,
                        opt_num(s.delay_ms),
                        opt_num(s.collision_ratio),
                        opt_num(s.jain)
                    )
                })
                .collect();
            format!(
                "{head},\"status\":\"ok\",\"samples\":[{}]}}",
                body.join(",")
            )
        }
        Err(CellFailure::Panicked { topology, message }) => {
            let mut line =
                format!("{head},\"status\":\"panicked\",\"topology\":{topology},\"message\":\"");
            escape_into(&mut line, message);
            line.push_str("\"}");
            line
        }
        Err(CellFailure::TimedOut { topology, aborted }) => {
            let reason = match aborted.reason {
                AbortReason::MaxEvents => "max_events",
                AbortReason::MaxSimTime => "max_sim_time",
            };
            format!(
                "{head},\"status\":\"timed_out\",\"topology\":{topology},\"reason\":\"{reason}\",\"events\":{},\"at_ns\":{}}}",
                aborted.events,
                aborted.now.as_nanos()
            )
        }
    }
}

fn bad(line: usize, what: impl Into<String>) -> CheckpointError {
    CheckpointError::BadRecord {
        line,
        what: what.into(),
    }
}

fn parse_record(
    line_no: usize,
    json: &Json,
) -> Result<(Cell, Option<Vec<TopologySample>>), CheckpointError> {
    let n = json
        .get("n")
        .and_then(as_usize)
        .ok_or_else(|| bad(line_no, "missing or non-integer 'n'"))?;
    let theta = json
        .get("theta")
        .and_then(Json::as_num)
        .ok_or_else(|| bad(line_no, "missing or non-numeric 'theta'"))?;
    let scheme: Scheme = json
        .get("scheme")
        .and_then(Json::as_str)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(line_no, "missing or unknown 'scheme'"))?;
    let cell = Cell { n, theta, scheme };
    let status = json
        .get("status")
        .and_then(Json::as_str)
        .ok_or_else(|| bad(line_no, "missing 'status'"))?;
    match status {
        "ok" => {
            let raw = match json.get("samples") {
                Some(Json::Arr(items)) => items,
                _ => return Err(bad(line_no, "'ok' record without 'samples' array")),
            };
            let mut samples = Vec::with_capacity(raw.len());
            for item in raw {
                let tuple = match item {
                    Json::Arr(vs) if vs.len() == 4 => vs,
                    _ => return Err(bad(line_no, "sample is not a 4-element array")),
                };
                let opt = |j: &Json| -> Result<Option<f64>, CheckpointError> {
                    match j {
                        Json::Null => Ok(None),
                        Json::Num(v) => Ok(Some(*v)),
                        _ => Err(bad(line_no, "sample field is neither number nor null")),
                    }
                };
                samples.push(TopologySample {
                    throughput: tuple[0]
                        .as_num()
                        .ok_or_else(|| bad(line_no, "non-numeric throughput"))?,
                    delay_ms: opt(&tuple[1])?,
                    collision_ratio: opt(&tuple[2])?,
                    jain: opt(&tuple[3])?,
                });
            }
            Ok((cell, Some(samples)))
        }
        // Failed cells are recorded for diagnosis but never restored: the
        // resume pass re-runs them.
        "panicked" | "timed_out" => Ok((cell, None)),
        other => Err(bad(line_no, format!("unknown status {other:?}"))),
    }
}

fn io_err(path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.display().to_string(),
        what: e.to_string(),
    }
}

/// What a checkpoint replay restored: the completed cells' samples plus
/// any non-fatal degradations encountered along the way.
type Restored = (BTreeMap<CellKey, Vec<TopologySample>>, Vec<String>);

/// Replays a checkpoint from its raw bytes, dispatching on the sniffed
/// format: validates the header fingerprint and returns the completed
/// cells' samples (later records for the same cell win, so a retried cell
/// restores its newest outcome).
///
/// Crash tolerance: a torn or corrupt *trailing* record — the signature
/// of a crash mid-write — is skipped with a warning and its cell re-run,
/// instead of failing the whole resume. Corruption anywhere *before* the
/// tail still hard-errors: that is not a torn write, and silently
/// dropping interior records would resurrect stale results.
fn load_checkpoint(
    bytes: &[u8],
    fingerprint: &str,
    grid: &[Cell],
) -> Result<Restored, CheckpointError> {
    if wireio::sniff_binary(bytes) {
        load_checkpoint_bin(bytes, fingerprint, grid)
    } else {
        load_checkpoint_jsonl(bytes, fingerprint, grid)
    }
}

/// Applies one parsed record to the restore map (shared by both formats):
/// `ok` records restore, recorded failures un-restore so the cell re-runs.
fn apply_record(
    done: &mut BTreeMap<CellKey, Vec<TopologySample>>,
    cell: Cell,
    samples: Option<Vec<TopologySample>>,
) {
    match samples {
        Some(s) => {
            done.insert(cell.key(), s);
        }
        None => {
            // A newer failure supersedes an older success only if the
            // cell was re-run and failed — keep the latest verdict.
            done.remove(&cell.key());
        }
    }
}

fn unknown_cell(grid: &[Cell], cell: &Cell, line: usize) -> Option<CheckpointError> {
    (!grid.iter().any(|c| c.key() == cell.key())).then(|| CheckpointError::UnknownCell {
        line,
        cell: cell.to_string(),
    })
}

fn load_checkpoint_jsonl(
    bytes: &[u8],
    fingerprint: &str,
    grid: &[Cell],
) -> Result<Restored, CheckpointError> {
    let text = std::str::from_utf8(bytes).map_err(|_| CheckpointError::MissingHeader)?;
    let lines: Vec<&str> = text.lines().collect();
    let header = match lines.first() {
        Some(first) => Json::parse(first).map_err(|_| CheckpointError::MissingHeader)?,
        None => return Err(CheckpointError::MissingHeader),
    };
    if header.get("dirca_checkpoint").and_then(as_usize) != Some(1) {
        return Err(CheckpointError::MissingHeader);
    }
    let found = header
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or(CheckpointError::MissingHeader)?;
    if found != fingerprint {
        return Err(CheckpointError::FingerprintMismatch {
            expected: fingerprint.to_string(),
            found: found.to_string(),
        });
    }
    let last_data_line = lines
        .iter()
        .rposition(|l| !l.trim().is_empty())
        .unwrap_or(0);
    let mut done = BTreeMap::new();
    let mut warnings = Vec::new();
    for (i, text) in lines.iter().enumerate().skip(1) {
        let line_no = i + 1;
        if text.trim().is_empty() {
            continue; // a torn final write leaves at most a blank tail
        }
        let is_tail = i == last_data_line;
        let parsed = Json::parse(text)
            .map_err(|e| CheckpointError::Syntax {
                line: line_no,
                what: e.to_string(),
            })
            .and_then(|json| parse_record(line_no, &json));
        let (cell, samples) = match parsed {
            Ok(v) => v,
            Err(e) if is_tail => {
                warnings.push(format!(
                    "checkpoint line {line_no} is torn or corrupt and was skipped \
                     (its cell will re-run): {e}"
                ));
                break;
            }
            Err(e) => return Err(e),
        };
        if let Some(e) = unknown_cell(grid, &cell, line_no) {
            return Err(e);
        }
        apply_record(&mut done, cell, samples);
    }
    Ok((done, warnings))
}

fn load_checkpoint_bin(
    bytes: &[u8],
    fingerprint: &str,
    grid: &[Cell],
) -> Result<Restored, CheckpointError> {
    use dirca_trace::wire::{decode_all, kind};
    let (frames, tail_error) = decode_all(bytes);
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
    let mut done = BTreeMap::new();
    let mut warnings = Vec::new();
    for (i, frame) in frames.iter().enumerate().skip(1) {
        // "Line" numbers in binary diagnostics are 1-based frame indices.
        let frame_no = i + 1;
        if frame.kind != kind::CKPT_CELL {
            return Err(bad(
                frame_no,
                format!("unexpected frame kind {:#04x}", frame.kind),
            ));
        }
        // A CRC-valid frame with an undecodable payload is not a torn
        // write — it is a schema mismatch, and stays a hard error.
        let (cell, samples) =
            wireio::decode_ckpt_cell(&frame.payload).map_err(|e| bad(frame_no, e.to_string()))?;
        if let Some(e) = unknown_cell(grid, &cell, frame_no) {
            return Err(e);
        }
        apply_record(&mut done, cell, samples);
    }
    if let Some(e) = tail_error {
        // The CRC framing makes every decoded prefix frame trustworthy,
        // so whatever stopped the decoder is by definition a tail problem
        // — degrade to a warning and re-run the lost cell.
        warnings.push(format!(
            "checkpoint tail is torn or corrupt and was skipped \
             (at most one cell will re-run): {e}"
        ));
    }
    Ok((done, warnings))
}

// ---------------------------------------------------------------------
// Compaction: drop a salvaged torn tail from the file itself.
// ---------------------------------------------------------------------

/// The longest valid prefix of a checkpoint document: the header plus
/// every intact record, with any torn or corrupt tail dropped. Valid
/// content is preserved byte-for-byte (binary frames re-encode to their
/// exact original bytes; JSONL lines are kept verbatim), so recorded
/// failures keep their full diagnosis. Idempotent: compacting an already
/// clean document returns it unchanged. Bytes that do not even start
/// with a valid header are returned untouched — compaction never
/// destroys what it cannot parse (resume will reject such a file with a
/// hard error instead).
pub fn compacted_checkpoint(bytes: &[u8]) -> Vec<u8> {
    if wireio::sniff_binary(bytes) {
        compacted_checkpoint_bin(bytes)
    } else {
        compacted_checkpoint_jsonl(bytes)
    }
}

fn compacted_checkpoint_jsonl(bytes: &[u8]) -> Vec<u8> {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return bytes.to_vec();
    };
    let mut lines = text.lines();
    let Some(header) = lines.next() else {
        return bytes.to_vec();
    };
    let valid_header = Json::parse(header)
        .ok()
        .is_some_and(|h| h.get("dirca_checkpoint").and_then(as_usize) == Some(1));
    if !valid_header {
        return bytes.to_vec();
    }
    let mut out = String::with_capacity(text.len());
    out.push_str(header);
    out.push('\n');
    for line in lines {
        // Blank interior lines are skippable on load but carry nothing;
        // a torn write leaves at most a blank or partial tail. Either
        // way, the first non-record line ends the valid prefix.
        let intact = !line.trim().is_empty()
            && Json::parse(line)
                .ok()
                .is_some_and(|json| parse_record(0, &json).is_ok());
        if !intact {
            break;
        }
        out.push_str(line);
        out.push('\n');
    }
    out.into_bytes()
}

fn compacted_checkpoint_bin(bytes: &[u8]) -> Vec<u8> {
    use dirca_trace::wire::{self, kind};
    let (frames, _tail_error) = wire::decode_all(bytes);
    if frames.first().is_none_or(|f| f.kind != kind::CKPT_HEADER) {
        return bytes.to_vec();
    }
    // Frame encoding is deterministic (kind + length + payload + CRC), so
    // re-encoding every decoded frame reproduces the valid prefix of the
    // original bytes exactly, minus whatever stopped the decoder.
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
    let fingerprint = grid_fingerprint_for(scale, config.engine_threads);
    let mut done: BTreeMap<CellKey, Vec<TopologySample>> = BTreeMap::new();
    let mut warnings = Vec::new();
    let mut sink: Option<File> = None;
    // Appended records must match the existing file, whatever the flag
    // says; a fresh file is written in the configured format.
    let mut sink_format = config.checkpoint_format;
    if let Some(path) = &config.checkpoint {
        if config.resume && path.exists() {
            let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
            sink_format = if wireio::sniff_binary(&bytes) {
                WireFormat::Bin
            } else {
                WireFormat::Jsonl
            };
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
            match sink_format {
                WireFormat::Jsonl => {
                    writeln!(file, "{}", header_line(&fingerprint)).map_err(|e| io_err(path, e))?;
                }
                WireFormat::Bin => {
                    file.write_all(&wireio::ckpt_header_frame(&fingerprint))
                        .map_err(|e| io_err(path, e))?;
                }
            }
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
            engine_threads: config.engine_threads,
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
            match sink_format {
                WireFormat::Jsonl => {
                    writeln!(file, "{}", record_line(cell, &result))
                        .map_err(|e| io_err(path, e))?;
                }
                WireFormat::Bin => {
                    file.write_all(&wireio::ckpt_cell_frame(cell, &result))
                        .map_err(|e| io_err(path, e))?;
                }
            }
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
    use dirca_sim::SimTime;

    #[test]
    fn json_subset_round_trips_records() {
        let cell = Cell {
            n: 3,
            theta: 90.0,
            scheme: Scheme::OrtsOcts,
        };
        let samples = vec![
            TopologySample {
                throughput: 0.123456789,
                delay_ms: Some(1.5),
                collision_ratio: None,
                jain: Some(0.875),
            },
            TopologySample {
                throughput: 0.2,
                delay_ms: None,
                collision_ratio: Some(0.1),
                jain: None,
            },
        ];
        let line = record_line(&cell, &Ok(samples.clone()));
        let json = Json::parse(&line).unwrap();
        let (back_cell, back) = parse_record(2, &json).unwrap();
        assert_eq!(back_cell, cell);
        assert_eq!(back.unwrap(), samples, "floats must round-trip exactly");
    }

    #[test]
    fn failure_records_parse_but_do_not_restore() {
        let cell = Cell {
            n: 5,
            theta: 150.0,
            scheme: Scheme::DrtsDcts,
        };
        let panicked = record_line(
            &cell,
            &Err(CellFailure::Panicked {
                topology: 3,
                message: "weird \"quoted\"\npayload".into(),
            }),
        );
        let json = Json::parse(&panicked).unwrap();
        let (_, restored) = parse_record(2, &json).unwrap();
        assert!(restored.is_none());
        let timed = record_line(
            &cell,
            &Err(CellFailure::TimedOut {
                topology: 0,
                aborted: dirca_net::RunAborted {
                    reason: AbortReason::MaxEvents,
                    events: 7,
                    now: SimTime::from_micros(9),
                },
            }),
        );
        let json = Json::parse(&timed).unwrap();
        let (_, restored) = parse_record(3, &json).unwrap();
        assert!(restored.is_none());
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "not json",
            "{\"n\":3",
            "{\"n\":3,\"theta\":90,\"scheme\":\"ORTS-OCTS\"}",
            "{\"n\":3,\"theta\":90,\"scheme\":\"ORTS-OCTS\",\"status\":\"weird\"}",
            "{\"n\":3,\"theta\":90,\"scheme\":\"BOGUS\",\"status\":\"ok\",\"samples\":[]}",
        ] {
            let parsed = Json::parse(bad);
            let failed = match parsed {
                Err(_) => true,
                Ok(json) => parse_record(1, &json).is_err(),
            };
            assert!(failed, "must reject {bad:?}");
        }
    }

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
    fn fingerprint_separates_engines_but_not_engine_workers() {
        let scale = GridScale {
            topologies: 2,
            measure: dirca_sim::SimDuration::from_millis(100),
            warmup: dirca_sim::SimDuration::from_millis(10),
            threads: 1,
            seed: 1,
            densities: vec![3],
            beamwidths: vec![90.0],
            fer: 0.0,
        };
        // Classic keeps the historical fingerprint.
        assert_eq!(grid_fingerprint_for(&scale, 0), grid_fingerprint(&scale));
        // Sharded is a different universe of bytes…
        assert_ne!(grid_fingerprint_for(&scale, 1), grid_fingerprint(&scale));
        // …but the worker count within it does not matter.
        assert_eq!(
            grid_fingerprint_for(&scale, 1),
            grid_fingerprint_for(&scale, 4)
        );
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
