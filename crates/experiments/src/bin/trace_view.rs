//! Folds a `paper_grid --trace` document into per-node handshake
//! timelines, or validates it against the record schema. Reads both the
//! JSONL format and the CRC-framed binary format (`--trace-format bin`),
//! auto-detected from the leading bytes.
//!
//! It is also the readable view of a runner checkpoint (`paper_grid
//! --checkpoint PATH`, `dirca-serve --state-dir`): a binary document whose
//! first frame is `CKPT_HEADER` prints its grid fingerprint and one line
//! per cell record — the samples of a finished cell, or the diagnosis of
//! a failed one.
//!
//! ```text
//! trace_view grid_trace.jsonl            # human-readable per-cell fold
//! trace_view grid_trace.jsonl --check    # schema validation only (exit 0/1)
//! trace_view grid_trace.bin --check      # same, binary document
//! trace_view grid.ckpt                   # one line per checkpoint record
//! trace_view grid.ckpt --check           # validate every frame (exit 0/1)
//! ```
//!
//! Diagnostics locate the first bad input precisely: `line L, byte B` for
//! JSONL (B is the absolute file offset of the corrupt character), the
//! frame's byte offset for binary documents — plus how many records
//! validated before the damage, so a torn tail is distinguishable from a
//! wholly corrupt file at a glance.
//!
//! Exit status: 0 on success, 1 on a schema violation, corrupt/truncated
//! input, or unreadable file, 2 on a usage error.

use dirca_experiments::wireio::{decode_ckpt_cell, decode_ckpt_header, sniff_binary};
use dirca_trace::wire::{self, kind};
use dirca_trace::{Json, RecordKind, TraceRecord};

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
    let result = if sniff_binary(&bytes) {
        match wire::FrameDecoder::new(&bytes).next() {
            Some(Ok(first)) if first.kind == kind::CKPT_HEADER => process_ckpt(&bytes, check),
            _ => process_bin(&bytes, check),
        }
    } else {
        match std::str::from_utf8(&bytes) {
            Ok(text) => process(text, check),
            Err(e) => Err(format!(
                "byte {}: not UTF-8 text (and not a binary wire document)",
                e.valid_up_to()
            )),
        }
    };
    match result {
        // A plain `print!` panics on EPIPE when the fold is piped into
        // `head`; a failed write to a closed pipe is not an error here.
        Ok(report) => {
            use std::io::Write as _;
            let _ = std::io::stdout().write_all(report.as_bytes());
        }
        Err(message) => {
            eprintln!("{path}: {message}");
            std::process::exit(1);
        }
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

    fn render(&self, out: &mut String) {
        use std::fmt::Write as _;
        let span_s = (self.last_ns.saturating_sub(self.first_ns)) as f64 / 1e9;
        let _ = writeln!(
            out,
            "{} — {} records over {span_s:.3} s",
            self.header, self.records
        );
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
    }
}

/// Validates `text` line by line; unless `check_only`, also folds it into
/// the human-readable per-cell report. Diagnostics carry `line L, byte B`
/// where B is the absolute file offset of the first corrupt character.
fn process(text: &str, check_only: bool) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut cell: Option<CellFold> = None;
    let mut cells_seen = 0u64;
    let mut records_seen = 0u64;
    let mut line_start = 0usize;
    for (lineno, raw) in text.split_inclusive('\n').enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim_end_matches('\n').trim_end_matches('\r');
        let start = line_start;
        line_start += raw.len();
        let at =
            move |offset_in_line: usize| format!("line {lineno}, byte {}", start + offset_in_line);
        let context = |records_seen: u64| {
            format!("({records_seen} records validated before the first bad input)")
        };
        let v = Json::parse(line).map_err(|e| {
            format!(
                "{}: corrupt or truncated record: {e} {}",
                at(e.offset),
                context(records_seen)
            )
        })?;
        if lineno == 1 {
            match v.get("schema").and_then(Json::as_str) {
                Some("dirca-trace/v1") => continue,
                Some(other) => return Err(format!("unsupported schema {other:?}")),
                None => return Err("line 1, byte 0: missing schema header".to_string()),
            }
        }
        match v.get("ev").and_then(Json::as_str) {
            Some("cell") => {
                cells_seen += 1;
                if let Some(done) = cell.take() {
                    done.render(&mut out);
                }
                let n = v
                    .get("n")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{}: cell marker missing \"n\"", at(0)))?;
                let theta = v
                    .get("theta_deg")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("{}: cell marker missing \"theta_deg\"", at(0)))?;
                let scheme = v
                    .get("scheme")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{}: cell marker missing \"scheme\"", at(0)))?;
                cell = Some(CellFold {
                    header: format!("cell N={n} theta={theta} {scheme}"),
                    ..CellFold::default()
                });
            }
            Some("metrics") => {
                let data = v
                    .get("data")
                    .ok_or_else(|| format!("{}: metrics marker missing \"data\"", at(0)))?;
                if data.get("counters").and_then(Json::as_obj).is_none() {
                    return Err(format!("{}: metrics block missing counters", at(0)));
                }
                if let Some(done) = cell.take() {
                    done.render(&mut out);
                    if let Some(acked) = data
                        .get("counters")
                        .and_then(|c| c.get("packets_acked"))
                        .and_then(Json::as_u64)
                    {
                        let _ = writeln!(out, "  metrics: packets_acked={acked}");
                    }
                }
            }
            _ => {
                let record = TraceRecord::from_json(&v).map_err(|e| {
                    format!("{}: schema violation: {e} {}", at(0), context(records_seen))
                })?;
                records_seen += 1;
                if let Some(fold) = cell.as_mut() {
                    fold.absorb(&record);
                } else {
                    return Err(format!("{}: record before any cell marker", at(0)));
                }
            }
        }
    }
    if let Some(done) = cell.take() {
        done.render(&mut out);
    }
    if check_only {
        return Ok(format!(
            "ok: {cells_seen} cells, {records_seen} records validated\n"
        ));
    }
    let _ = writeln!(out, "{cells_seen} cells, {records_seen} records");
    Ok(out)
}

/// Validates a binary wire document frame by frame; unless `check_only`,
/// also folds it into the same per-cell report as the JSONL path. A
/// corrupt or truncated tail is reported with its byte offset and the
/// count of frames/records that validated before it.
fn process_bin(bytes: &[u8], check_only: bool) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut cell: Option<CellFold> = None;
    let mut cells_seen = 0u64;
    let mut records_seen = 0u64;
    let mut saw_header = false;
    for (idx, item) in wire::FrameDecoder::new(bytes).enumerate() {
        let frame = item.map_err(|e| {
            format!(
                "byte {}: corrupt or truncated frame: {e} \
                 ({idx} frames / {records_seen} records validated before the first bad input)",
                e.offset()
            )
        })?;
        let frames_seen = idx as u64 + 1;
        let bad = |what: &str| format!("frame {frames_seen} ({:#04x}): {what}", frame.kind);
        if !saw_header {
            if frame.kind != kind::TRACE_HEADER {
                return Err(bad("expected a TRACE_HEADER frame first"));
            }
            let mut r = wire::WireReader::new(&frame.payload);
            let _seed = r.take_u64().map_err(|e| bad(&e.to_string()))?;
            let _cells = r.take_u32().map_err(|e| bad(&e.to_string()))?;
            r.finish().map_err(|e| bad(&e.to_string()))?;
            saw_header = true;
            continue;
        }
        match frame.kind {
            kind::CELL_MARKER => {
                cells_seen += 1;
                if let Some(done) = cell.take() {
                    done.render(&mut out);
                }
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
            kind::METRICS => {
                let mut r = wire::WireReader::new(&frame.payload);
                let json = r.take_str().map_err(|e| bad(&e.to_string()))?;
                let data = Json::parse(json).map_err(|e| bad(&e.to_string()))?;
                if data.get("counters").and_then(Json::as_obj).is_none() {
                    return Err(bad("metrics block missing counters"));
                }
                if let Some(done) = cell.take() {
                    done.render(&mut out);
                    if let Some(acked) = data
                        .get("counters")
                        .and_then(|c| c.get("packets_acked"))
                        .and_then(Json::as_u64)
                    {
                        let _ = writeln!(out, "  metrics: packets_acked={acked}");
                    }
                }
            }
            kind::RECORD => {
                let record = wire::decode_record_payload(&frame.payload).map_err(|e| {
                    format!(
                        "{} ({records_seen} records validated before the first bad input)",
                        bad(&format!("schema violation: {e}"))
                    )
                })?;
                records_seen += 1;
                if let Some(fold) = cell.as_mut() {
                    fold.absorb(&record);
                } else {
                    return Err(bad("record before any cell marker"));
                }
            }
            _ => return Err(bad("unexpected frame kind in a trace document")),
        }
    }
    if !saw_header {
        return Err("empty document: no TRACE_HEADER frame".to_string());
    }
    if let Some(done) = cell.take() {
        done.render(&mut out);
    }
    if check_only {
        return Ok(format!(
            "ok: {cells_seen} cells, {records_seen} records validated\n"
        ));
    }
    let _ = writeln!(out, "{cells_seen} cells, {records_seen} records");
    Ok(out)
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
        let frame = item.map_err(|e| {
            format!(
                "byte {}: corrupt or truncated frame: {e} \
                 ({idx} frames validated before the first bad input)",
                e.offset()
            )
        })?;
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
    use dirca_trace::wire::{encode_frame_into, WireWriter};

    fn jsonl_fixture() -> String {
        concat!(
            "{\"schema\":\"dirca-trace/v1\",\"seed\":7,\"cells\":1}\n",
            "{\"ev\":\"cell\",\"n\":3,\"theta_deg\":90,\"scheme\":\"OrtsOcts\",\"topology\":0}\n",
            "{\"t\":1000,\"node\":0,\"ev\":\"backoff_draw\",\"cw\":31,\"slots\":14}\n",
            "{\"t\":2000,\"node\":1,\"ev\":\"packet_acked\"}\n",
            "{\"ev\":\"metrics\",\"data\":{\"counters\":{\"packets_acked\":1}}}\n",
        )
        .to_string()
    }

    fn bin_fixture() -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = WireWriter::new();
        w.put_u64(7);
        w.put_u32(1);
        encode_frame_into(kind::TRACE_HEADER, &w.into_bytes(), &mut out);
        let mut w = WireWriter::new();
        w.put_u64(3);
        w.put_f64(90.0);
        w.put_u8(0);
        w.put_u32(0);
        encode_frame_into(kind::CELL_MARKER, &w.into_bytes(), &mut out);
        let record = TraceRecord {
            time: dirca_sim::SimTime::from_nanos(1000),
            node: dirca_radio::NodeId(0),
            kind: RecordKind::PacketAcked,
        };
        encode_frame_into(kind::RECORD, &wire::record_payload(&record), &mut out);
        let mut w = WireWriter::new();
        w.put_str("{\"counters\":{\"packets_acked\":1}}");
        encode_frame_into(kind::METRICS, &w.into_bytes(), &mut out);
        out
    }

    #[test]
    fn clean_jsonl_checks_and_folds() {
        let doc = jsonl_fixture();
        assert_eq!(
            process(&doc, true).unwrap(),
            "ok: 1 cells, 2 records validated\n"
        );
        let fold = process(&doc, false).unwrap();
        assert!(fold.contains("cell N=3 theta=90 OrtsOcts"));
        assert!(fold.contains("metrics: packets_acked=1"));
    }

    #[test]
    fn truncated_jsonl_reports_line_and_byte_of_the_tear() {
        let doc = jsonl_fixture();
        // Tear the file mid-way through the 4th line, as a crash mid-write
        // would: everything before the tear is intact.
        let cut = doc.match_indices('\n').nth(2).unwrap().0 + 1 + 20;
        let torn = &doc[..cut];
        let err = process(torn, true).unwrap_err();
        assert!(err.starts_with("line 4, byte "), "got: {err}");
        let byte: usize = err["line 4, byte ".len()..]
            .split(':')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let line4_start = doc.match_indices('\n').nth(2).unwrap().0 + 1;
        assert!(
            (line4_start..cut + 1).contains(&byte),
            "byte {byte} must point into the torn line (starts at {line4_start}, cut at {cut})"
        );
        assert!(err.contains("corrupt or truncated record"), "got: {err}");
        assert!(err.contains("1 records validated"), "got: {err}");
    }

    #[test]
    fn schema_violations_name_the_line_and_byte() {
        let mut doc = jsonl_fixture();
        doc = doc.replace(
            "\"ev\":\"backoff_draw\",\"cw\":31,",
            "\"ev\":\"backoff_draw\",",
        );
        let err = process(&doc, true).unwrap_err();
        assert!(err.starts_with("line 3, byte "), "got: {err}");
        assert!(err.contains("schema violation"), "got: {err}");
    }

    #[test]
    fn clean_binary_checks_and_folds() {
        let doc = bin_fixture();
        assert_eq!(
            process_bin(&doc, true).unwrap(),
            "ok: 1 cells, 1 records validated\n"
        );
        let fold = process_bin(&doc, false).unwrap();
        assert!(fold.contains("cell N=3 theta=90 OrtsOcts"));
        assert!(fold.contains("metrics: packets_acked=1"));
    }

    #[test]
    fn torn_binary_tail_reports_its_byte_offset() {
        let doc = bin_fixture();
        let torn = &doc[..doc.len() - 5];
        let err = process_bin(torn, true).unwrap_err();
        assert!(err.starts_with("byte "), "got: {err}");
        assert!(err.contains("corrupt or truncated frame"), "got: {err}");
        assert!(err.contains("3 frames / 1 records validated"), "got: {err}");
    }

    #[test]
    fn flipped_binary_byte_is_a_crc_diagnostic() {
        let mut doc = bin_fixture();
        let last = doc.len() - 8; // inside the METRICS payload
        doc[last] ^= 0x40;
        let err = process_bin(&doc, true).unwrap_err();
        assert!(err.contains("CRC mismatch"), "got: {err}");
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
            err.starts_with(&format!("byte {last_frame}: corrupt or truncated frame")),
            "got: {err}"
        );
        assert!(err.contains("2 frames validated"), "got: {err}");
    }
}
