//! Folds a `paper_grid --trace` document into per-node handshake
//! timelines, or validates it frame by frame.
//!
//! It is also the readable view of a runner checkpoint (`paper_grid
//! --checkpoint PATH`, `dirca-serve --state-dir`): it prints the grid
//! fingerprint and one line per cell record — the samples of a finished
//! cell, or the diagnosis of a failed one.
//!
//! ```text
//! trace_view grid_trace.bin            # human-readable per-cell fold
//! trace_view grid_trace.bin --check    # validation only (exit 0/1)
//! trace_view grid.ckpt                 # one line per checkpoint record
//! trace_view grid.ckpt --check         # validate every frame (exit 0/1)
//! ```
//!
//! Both are CRC-framed `dirca_trace::wire` documents: a first frame of
//! kind `CKPT_HEADER` selects the checkpoint view, anything else the trace
//! view. Input that does not start with the wire magic — a JSONL trace
//! written by an older version, for one — is refused with
//! [`ViewError::NotWire`], a trace whose `METRICS` frames still carry the
//! older JSON-string payload with [`ViewError::JsonMetrics`], and a record
//! in an older layout (a `FrameTx` without the frame's NAV duration, `seq`
//! and `created`) as a schema violation; re-export any of them with
//! `paper_grid --trace`.
//!
//! A trace document is checked as a whole, not only frame by frame: the
//! header's cell count must match the cell markers, every cell must be
//! closed by exactly one `METRICS` frame, and no frame may follow the last
//! one. A document cut at a frame boundary is therefore refused rather
//! than read as a shorter clean one. Diagnostics name the frame or byte
//! offset of the first bad input, plus how many records validated before
//! it, so a torn tail is distinguishable from a wholly corrupt file.
//!
//! Exit status: 0 on success, 1 on a schema violation, corrupt/truncated
//! input, or unreadable file, 2 on a usage error.

use std::fmt;

use dirca_experiments::wireio::{decode_ckpt_cell, decode_ckpt_header};
use dirca_trace::wire::{self, kind, MetricsSnapshot};
use dirca_trace::{RecordKind, TraceRecord};

fn main() {
    let mut path: Option<String> = None;
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            flag if flag.starts_with("--") => {
                eprintln!("unrecognized flag {flag:?} (usage: trace_view <path> [--check])");
                std::process::exit(2);
            }
            positional => {
                if path.replace(positional.to_string()).is_some() {
                    eprintln!("expected exactly one input path");
                    std::process::exit(2);
                }
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: trace_view <path> [--check]");
        std::process::exit(2);
    };
    let bytes = std::fs::read(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    match view(&bytes, check) {
        // A plain `print!` panics on EPIPE when the fold is piped into
        // `head`; a failed write to a closed pipe is not an error here.
        Ok(report) => {
            use std::io::Write as _;
            let _ = std::io::stdout().write_all(report.as_bytes());
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Why a document was refused.
#[derive(Debug, PartialEq)]
enum ViewError {
    /// The input does not start with the wire magic.
    NotWire,
    /// The `METRICS` frame numbered `frame` carries a JSON string, the
    /// payload older versions wrote, instead of the typed encoding.
    JsonMetrics {
        /// 1-based frame number.
        frame: u64,
    },
    /// A corrupt frame, an undecodable payload, or a malformed document;
    /// the message names the frame or byte offset.
    Invalid(String),
}

/// The advice for a trace in an older layout.
const REEXPORT: &str = "re-export the trace with `paper_grid --trace PATH`";

impl fmt::Display for ViewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewError::NotWire => write!(
                f,
                "not a wire document: JSONL trace documents are no longer read; {REEXPORT}"
            ),
            ViewError::JsonMetrics { frame } => write!(
                f,
                "frame {frame}: METRICS payload is a JSON string, the encoding of older \
                 versions; {REEXPORT}"
            ),
            ViewError::Invalid(message) => f.write_str(message),
        }
    }
}

impl From<String> for ViewError {
    fn from(message: String) -> Self {
        ViewError::Invalid(message)
    }
}

/// Validates `bytes` and, unless `check_only`, renders its readable view:
/// the checkpoint view if the first frame is `CKPT_HEADER`, else the trace
/// fold.
fn view(bytes: &[u8], check_only: bool) -> Result<String, ViewError> {
    if !bytes.starts_with(&wire::MAGIC) {
        return Err(ViewError::NotWire);
    }
    match wire::FrameDecoder::new(bytes).next() {
        Some(Ok(first)) if first.kind == kind::CKPT_HEADER => Ok(process_ckpt(bytes, check_only)?),
        _ => process_trace(bytes, check_only),
    }
}

/// Per-node fold of one cell's records.
#[derive(Debug, Clone, Copy, Default)]
struct NodeFold {
    tx: [u64; 4], // indexed by FrameKind::ALL order: RTS, CTS, DATA, ACK
    rx: u64,
    corrupted: u64,
    backoff_draws: u64,
    timeouts: u64,
    nav_sets: u64,
    acked: u64,
    dropped: u64,
    faults: u64,
}

/// State of the cell currently being folded.
#[derive(Debug, Default)]
struct CellFold {
    header: String,
    nodes: Vec<NodeFold>,
    records: u64,
    first_ns: u64,
    last_ns: u64,
}

impl CellFold {
    fn absorb(&mut self, r: &TraceRecord) {
        let t = r.time.as_nanos();
        if self.records == 0 {
            self.first_ns = t;
        }
        self.last_ns = t;
        self.records += 1;
        let idx = r.node.0;
        if idx >= self.nodes.len() {
            self.nodes.resize(idx + 1, NodeFold::default());
        }
        let node = &mut self.nodes[idx];
        match r.kind {
            RecordKind::FrameTx { kind, .. } => {
                let slot = dirca_mac::FrameKind::ALL
                    .iter()
                    .position(|&k| k == kind)
                    .expect("FrameKind::ALL is exhaustive");
                node.tx[slot] += 1;
            }
            RecordKind::FrameRx { .. } => node.rx += 1,
            RecordKind::RxCorrupted => node.corrupted += 1,
            RecordKind::BackoffDraw { .. } => node.backoff_draws += 1,
            RecordKind::NavSet { .. } => node.nav_sets += 1,
            RecordKind::NavExpire => {}
            RecordKind::Timeout { .. } => node.timeouts += 1,
            RecordKind::PacketAcked => node.acked += 1,
            RecordKind::PacketDropped => node.dropped += 1,
            RecordKind::FaultCorrupt | RecordKind::FaultOutage => node.faults += 1,
        }
    }

    fn render(&self, metrics: &MetricsSnapshot, out: &mut String) {
        use std::fmt::Write as _;
        let span_s = (self.last_ns.saturating_sub(self.first_ns)) as f64 / 1e9;
        let _ = write!(
            out,
            "{} — {} records over {span_s:.3} s",
            self.header, self.records
        );
        match metrics.counter("records_overwritten") {
            Some(lost) if lost > 0 => {
                let _ = writeln!(out, " (ring wrapped: {lost} earlier records overwritten)");
            }
            _ => out.push('\n'),
        }
        // The rows count every record the ring held, for every node and
        // over warm-up plus measurement; the metrics count only the
        // measured nodes over the measurement window.
        out.push_str("  records per node (every node, warm-up + measurement):\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = writeln!(
                out,
                "  node {i:>3}: tx rts={:<5} cts={:<5} data={:<5} ack={:<5} rx={:<6} \
                 corrupt={:<4} nav={:<5} backoff={:<5} timeouts={:<4} acked={:<5} \
                 dropped={:<3} faults={}",
                n.tx[0],
                n.tx[1],
                n.tx[2],
                n.tx[3],
                n.rx,
                n.corrupted,
                n.nav_sets,
                n.backoff_draws,
                n.timeouts,
                n.acked,
                n.dropped,
                n.faults,
            );
        }
        if let Some(acked) = metrics.counter("packets_acked") {
            let _ = writeln!(
                out,
                "  metrics (measured nodes, measurement window): packets_acked={acked}"
            );
        }
    }
}

/// Validates a trace document frame by frame and as a whole (see the
/// module docs); unless `check_only`, also folds it into the per-cell
/// report. A corrupt or truncated tail is reported with its byte offset
/// and the count of frames/records that validated before it.
fn process_trace(bytes: &[u8], check_only: bool) -> Result<String, ViewError> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut declared: Option<u64> = None;
    let mut cell: Option<CellFold> = None;
    let mut cells_seen = 0u64;
    let mut records_seen = 0u64;
    for (idx, item) in wire::FrameDecoder::new(bytes).enumerate() {
        // `WireError`'s Display leads with the byte offset.
        let frame = item.map_err(|e| {
            format!(
                "{e} ({idx} frames / {records_seen} records validated before the first bad input)"
            )
        })?;
        let frame_no = idx as u64 + 1;
        let bad = |what: &str| format!("frame {frame_no} ({:#04x}): {what}", frame.kind);
        let Some(cells_declared) = declared else {
            if frame.kind != kind::TRACE_HEADER {
                return Err(bad("expected a TRACE_HEADER frame first").into());
            }
            let mut r = wire::WireReader::new(&frame.payload);
            let _seed = r.take_u64().map_err(|e| bad(&e.to_string()))?;
            declared = Some(u64::from(r.take_u32().map_err(|e| bad(&e.to_string()))?));
            r.finish().map_err(|e| bad(&e.to_string()))?;
            continue;
        };
        if cell.is_none() && cells_seen == cells_declared {
            return Err(bad(&format!(
                "frame after the last cell's METRICS frame (the header declares \
                 {cells_declared} cells)"
            ))
            .into());
        }
        match frame.kind {
            kind::CELL_MARKER => {
                if cell.is_some() {
                    return Err(bad(&format!(
                        "cell {cells_seen} is not closed by a METRICS frame"
                    ))
                    .into());
                }
                cells_seen += 1;
                let mut r = wire::WireReader::new(&frame.payload);
                let n = r.take_u64().map_err(|e| bad(&e.to_string()))?;
                let theta = r.take_f64().map_err(|e| bad(&e.to_string()))?;
                let scheme = wire::decode_scheme(r.take_u8().map_err(|e| bad(&e.to_string()))?, 0)
                    .map_err(|e| bad(&e.to_string()))?;
                let _topology = r.take_u32().map_err(|e| bad(&e.to_string()))?;
                r.finish().map_err(|e| bad(&e.to_string()))?;
                cell = Some(CellFold {
                    header: format!("cell N={n} theta={theta} {scheme:?}"),
                    ..CellFold::default()
                });
            }
            kind::RECORD => {
                // An intact frame whose record does not decode is, short of
                // a bug, a record in an older layout: older `FrameTx`
                // records lack the NAV duration, `seq` and `created`.
                let record = wire::decode_record_payload(&frame.payload).map_err(|e| {
                    format!(
                        "{} ({records_seen} records validated before the first bad input; \
                         a trace from an older version? {REEXPORT})",
                        bad(&format!("schema violation: {e}"))
                    )
                })?;
                records_seen += 1;
                let Some(fold) = cell.as_mut() else {
                    return Err(bad("record outside a cell").into());
                };
                fold.absorb(&record);
            }
            kind::METRICS => {
                let Some(done) = cell.take() else {
                    return Err(bad("METRICS frame outside a cell").into());
                };
                let metrics = wire::decode_metrics_payload(&frame.payload).map_err(|e| {
                    if is_json_string(&frame.payload) {
                        ViewError::JsonMetrics { frame: frame_no }
                    } else {
                        bad(&format!("metrics: {e}")).into()
                    }
                })?;
                done.render(&metrics, &mut out);
            }
            _ => return Err(bad("unexpected frame kind in a trace document").into()),
        }
    }
    let Some(cells_declared) = declared else {
        return Err("empty document: no TRACE_HEADER frame".to_string().into());
    };
    if let Some(open) = cell {
        return Err(format!(
            "truncated document: {} (cell {cells_seen}) is not closed by a METRICS frame",
            open.header
        )
        .into());
    }
    if cells_seen != cells_declared {
        return Err(format!(
            "truncated document: the header declares {cells_declared} cells, found {cells_seen}"
        )
        .into());
    }
    if check_only {
        return Ok(format!(
            "ok: {cells_seen} cells, {records_seen} records validated\n"
        ));
    }
    let _ = writeln!(out, "{cells_seen} cells, {records_seen} records");
    Ok(out)
}

/// Whether `payload` is one length-prefixed JSON object string: the
/// `METRICS` payload of older versions.
fn is_json_string(payload: &[u8]) -> bool {
    let mut r = wire::WireReader::new(payload);
    r.take_str().is_ok_and(|s| s.starts_with('{')) && r.finish().is_ok()
}

/// Prints a runner checkpoint: its fingerprint, then one line per
/// `CKPT_CELL` record giving the cell, its status, and either the
/// per-topology samples or the failure's diagnosis. Every frame is
/// validated either way; unless `check_only`, the records are listed.
/// Expects the first frame to be `CKPT_HEADER`.
fn process_ckpt(bytes: &[u8], check_only: bool) -> Result<String, String> {
    use std::fmt::Write as _;
    let opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    let mut out = String::new();
    let mut fingerprint = String::new();
    let (mut ok, mut failed) = (0u64, 0u64);
    for (idx, item) in wire::FrameDecoder::new(bytes).enumerate() {
        let frame =
            item.map_err(|e| format!("{e} ({idx} frames validated before the first bad input)"))?;
        let frame_no = idx + 1;
        let bad = |what: String| format!("frame {frame_no} ({:#04x}): {what}", frame.kind);
        if idx == 0 {
            fingerprint = decode_ckpt_header(&frame.payload).map_err(|e| bad(e.to_string()))?;
            let _ = writeln!(out, "checkpoint fingerprint {fingerprint}");
            continue;
        }
        if frame.kind != kind::CKPT_CELL {
            return Err(bad("unexpected frame kind in a checkpoint".to_string()));
        }
        let (cell, result) = decode_ckpt_cell(&frame.payload).map_err(|e| bad(e.to_string()))?;
        let _ = write!(out, "frame {frame_no}: {cell}: ");
        match result {
            Ok(samples) => {
                ok += 1;
                let _ = write!(out, "ok, {} topologies", samples.len());
                for (t, s) in samples.iter().enumerate() {
                    let _ = write!(
                        out,
                        " | t{t} throughput={} delay_ms={} collision_ratio={} jain={}",
                        s.throughput,
                        opt(s.delay_ms),
                        opt(s.collision_ratio),
                        opt(s.jain)
                    );
                }
                out.push('\n');
            }
            Err(failure) => {
                failed += 1;
                let _ = writeln!(out, "FAILED {}", failure.to_string().escape_debug());
            }
        }
    }
    if check_only {
        return Ok(format!(
            "ok: checkpoint {fingerprint}, {} records validated ({ok} ok, {failed} failed)\n",
            ok + failed
        ));
    }
    let _ = writeln!(out, "{} records ({ok} ok, {failed} failed)", ok + failed);
    Ok(out)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use dirca_trace::wire::{encode_frame_into, metrics_payload, WireWriter};
    use dirca_trace::MetricsRegistry;

    /// A two-cell trace document with `records` records per cell whose
    /// `METRICS` frames report `overwritten` lost records.
    fn trace_fixture(records: u64, overwritten: u64) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = WireWriter::new();
        w.put_u64(7);
        w.put_u32(2);
        encode_frame_into(kind::TRACE_HEADER, &w.into_bytes(), &mut out);
        for scheme in 0..2 {
            let mut w = WireWriter::new();
            w.put_u64(3);
            w.put_f64(90.0);
            w.put_u8(scheme);
            w.put_u32(0);
            encode_frame_into(kind::CELL_MARKER, &w.into_bytes(), &mut out);
            for t in 0..records {
                let record = TraceRecord {
                    time: dirca_sim::SimTime::from_nanos(1000 * t),
                    node: dirca_radio::NodeId(t as usize % 3),
                    kind: RecordKind::PacketAcked,
                };
                encode_frame_into(kind::RECORD, &wire::record_payload(&record), &mut out);
            }
            let mut m = MetricsRegistry::new();
            m.add_counter("packets_acked", records);
            m.add_counter("records_overwritten", overwritten);
            encode_frame_into(kind::METRICS, &metrics_payload(&m), &mut out);
        }
        out
    }

    /// `doc` without its last `k` frames: a cut exactly on a frame
    /// boundary, which the frame decoder alone reads as a clean document.
    fn drop_last_frames(doc: &[u8], k: usize) -> Vec<u8> {
        let (frames, err) = wire::decode_all(doc);
        assert_eq!(err, None);
        let cut: usize = frames[frames.len() - k..]
            .iter()
            .map(|f| wire::HEADER_LEN + f.payload.len() + wire::TRAILER_LEN)
            .sum();
        doc[..doc.len() - cut].to_vec()
    }

    #[test]
    fn clean_trace_checks_and_folds() {
        let doc = trace_fixture(2, 0);
        assert_eq!(
            view(&doc, true).unwrap(),
            "ok: 2 cells, 4 records validated\n"
        );
        let fold = view(&doc, false).unwrap();
        assert!(fold.contains("cell N=3 theta=90 OrtsOcts — 2 records over 0.000 s\n"));
        assert!(
            fold.contains("  records per node (every node, warm-up + measurement):\n  node   0:"),
            "{fold}"
        );
        assert!(
            fold.contains("  metrics (measured nodes, measurement window): packets_acked=2\n"),
            "{fold}"
        );
        assert!(!fold.contains("overwritten"), "{fold}");
    }

    #[test]
    fn wrapped_ring_is_named_in_the_fold() {
        let doc = trace_fixture(2, 5);
        assert_eq!(
            view(&doc, true).unwrap(),
            "ok: 2 cells, 4 records validated\n"
        );
        let fold = view(&doc, false).unwrap();
        assert!(
            fold.contains("2 records over 0.000 s (ring wrapped: 5 earlier records overwritten)"),
            "{fold}"
        );
    }

    #[test]
    fn check_refuses_a_trace_without_its_last_cell() {
        let doc = trace_fixture(3, 0);
        let err = view(&drop_last_frames(&doc, 5), true).unwrap_err();
        assert_eq!(
            err.to_string(),
            "truncated document: the header declares 2 cells, found 1"
        );
    }

    #[test]
    fn check_refuses_a_trace_without_its_final_metrics_frame() {
        let doc = trace_fixture(3, 0);
        let err = view(&drop_last_frames(&doc, 1), true).unwrap_err();
        assert_eq!(
            err.to_string(),
            "truncated document: cell N=3 theta=90 DrtsDcts (cell 2) is not closed by a \
             METRICS frame"
        );
    }

    #[test]
    fn check_refuses_a_trace_without_its_last_100_records() {
        let doc = trace_fixture(120, 0);
        let err = view(&drop_last_frames(&doc, 101), true).unwrap_err();
        assert!(
            err.to_string().contains("is not closed by a METRICS frame"),
            "{err}"
        );
    }

    #[test]
    fn check_refuses_frames_after_the_last_metrics_frame() {
        let mut doc = trace_fixture(2, 0);
        let (frames, _) = wire::decode_all(&doc);
        encode_frame_into(kind::RECORD, &frames[2].payload, &mut doc);
        let err = view(&doc, true).unwrap_err();
        assert!(
            err.to_string()
                .starts_with("frame 10 (0x03): frame after the last cell's METRICS frame"),
            "{err}"
        );
    }

    #[test]
    fn check_refuses_a_cell_with_two_metrics_frames() {
        let doc = trace_fixture(1, 0);
        let (frames, _) = wire::decode_all(&doc);
        let mut twice = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            encode_frame_into(frame.kind, &frame.payload, &mut twice);
            if i == 3 {
                encode_frame_into(frame.kind, &frame.payload, &mut twice);
            }
        }
        let err = view(&twice, true).unwrap_err();
        assert_eq!(
            err.to_string(),
            "frame 5 (0x04): METRICS frame outside a cell"
        );
    }

    #[test]
    fn torn_trace_tail_reports_its_byte_offset() {
        let doc = trace_fixture(1, 0);
        let err = view(&doc[..doc.len() - 5], true).unwrap_err();
        let message = err.to_string();
        assert!(message.starts_with("byte "), "got: {message}");
        let (before, _) = message
            .split_once("truncated frame")
            .unwrap_or_else(|| panic!("{message}"));
        assert_eq!(before.matches("byte ").count(), 1, "{message}");
        assert!(
            message.contains("6 frames / 2 records validated"),
            "{message}"
        );
    }

    #[test]
    fn flipped_trace_byte_is_a_crc_diagnostic() {
        let mut doc = trace_fixture(1, 0);
        let last = doc.len() - 8; // inside the last METRICS payload
        doc[last] ^= 0x40;
        let err = view(&doc, true).unwrap_err();
        assert!(err.to_string().contains("CRC mismatch"), "got: {err}");
    }

    #[test]
    fn jsonl_input_is_refused_with_a_typed_error() {
        let jsonl = b"{\"schema\":\"dirca-trace/v1\",\"seed\":7,\"cells\":1}\n";
        let err = view(jsonl, true).unwrap_err();
        assert_eq!(err, ViewError::NotWire);
        assert!(err
            .to_string()
            .contains("JSONL trace documents are no longer read"));
        assert!(err.to_string().contains("paper_grid --trace"));
        assert_eq!(view(b"", true), Err(ViewError::NotWire));
    }

    #[test]
    fn json_string_metrics_are_refused_with_a_typed_error() {
        let doc = trace_fixture(1, 0);
        let (frames, _) = wire::decode_all(&doc);
        let mut old = Vec::new();
        for frame in &frames {
            if frame.kind == kind::METRICS {
                let mut w = WireWriter::new();
                w.put_str("{\"counters\":{\"packets_acked\":1},\"gauges\":{},\"histograms\":{}}");
                encode_frame_into(kind::METRICS, &w.into_bytes(), &mut old);
            } else {
                encode_frame_into(frame.kind, &frame.payload, &mut old);
            }
        }
        let err = view(&old, true).unwrap_err();
        assert_eq!(err, ViewError::JsonMetrics { frame: 4 });
        assert!(err.to_string().contains("re-export the trace"), "{err}");
    }

    #[test]
    fn an_older_frame_tx_layout_is_refused_with_advice() {
        let params = dirca_mac::Dot11Params::dsss_2mbps();
        let rts = dirca_mac::Frame::rts(
            dirca_radio::NodeId(0),
            dirca_radio::NodeId(1),
            1460,
            &params,
        );
        let payload = wire::record_payload(&TraceRecord::transmission(
            dirca_sim::SimTime::ZERO,
            &rts,
            false,
        ));
        // The layout of older versions: no duration, seq or created.
        let older = &payload[..payload.len() - 24];
        let doc = trace_fixture(1, 0);
        let (frames, _) = wire::decode_all(&doc);
        let mut old = Vec::new();
        for frame in &frames {
            let body = if frame.kind == kind::RECORD {
                older
            } else {
                &frame.payload
            };
            encode_frame_into(frame.kind, body, &mut old);
        }
        let err = view(&old, true).unwrap_err().to_string();
        assert!(
            err.starts_with("frame 3 (0x03): schema violation: payload byte 31: missing u64 field"),
            "{err}"
        );
        assert!(err.contains(REEXPORT), "{err}");
    }

    fn ckpt_fixture() -> Vec<u8> {
        use dirca_experiments::ringsim::{CellFailure, TopologySample};
        use dirca_experiments::runner::Cell;
        use dirca_experiments::wireio::{ckpt_cell_frame, ckpt_header_frame};
        let cell = |scheme| Cell {
            n: 3,
            theta: 90.0,
            scheme,
        };
        let mut doc = ckpt_header_frame("0123456789abcdef");
        doc.extend(ckpt_cell_frame(
            &cell(dirca_mac::Scheme::OrtsOcts),
            &Err(CellFailure::Panicked {
                topology: 0,
                message: "drill: injected\ncell panic".into(),
            }),
        ));
        doc.extend(ckpt_cell_frame(
            &cell(dirca_mac::Scheme::DrtsOcts),
            &Ok(vec![TopologySample {
                throughput: 0.25,
                delay_ms: Some(1.5),
                collision_ratio: None,
                jain: Some(0.875),
            }]),
        ));
        doc
    }

    #[test]
    fn checkpoint_view_prints_one_line_per_record() {
        let doc = ckpt_fixture();
        let view = process_ckpt(&doc, false).unwrap();
        let lines: Vec<&str> = view.lines().collect();
        assert_eq!(lines.len(), 4, "{view}");
        assert_eq!(lines[0], "checkpoint fingerprint 0123456789abcdef");
        assert_eq!(
            lines[1],
            "frame 2: N=3 θ=90° ORTS-OCTS: FAILED panicked in topology 0: drill: injected\\ncell panic"
        );
        assert_eq!(
            lines[2],
            "frame 3: N=3 θ=90° DRTS-OCTS: ok, 1 topologies \
             | t0 throughput=0.25 delay_ms=1.5 collision_ratio=- jain=0.875"
        );
        assert_eq!(lines[3], "2 records (1 ok, 1 failed)");
        assert_eq!(
            process_ckpt(&doc, true).unwrap(),
            "ok: checkpoint 0123456789abcdef, 2 records validated (1 ok, 1 failed)\n"
        );
    }

    #[test]
    fn torn_checkpoint_check_names_the_byte_offset() {
        let doc = ckpt_fixture();
        let (frames, _) = wire::decode_all(&doc);
        let last_len = wire::HEADER_LEN + frames[2].payload.len() + wire::TRAILER_LEN;
        let last_frame = doc.len() - last_len;
        let err = process_ckpt(&doc[..doc.len() - 5], true).unwrap_err();
        assert!(
            err.starts_with(&format!("byte {last_frame}: truncated frame")),
            "got: {err}"
        );
        let (before, _) = err.split_once("truncated frame").unwrap();
        assert_eq!(before.matches("byte ").count(), 1, "{err}");
        assert!(err.contains("2 frames validated"), "got: {err}");
    }
}
