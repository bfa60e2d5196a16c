//! Structured trace export over the paper grid.
//!
//! [`render_grid_trace`] re-runs topology 0 of every `(N, θ, scheme)` cell
//! of a [`GridScale`] with the ring recorder attached and folds the runs
//! into one JSONL document:
//!
//! ```text
//! {"schema":"dirca-trace/v1","seed":53706,"cells":27}
//! {"ev":"cell","n":3,"theta_deg":30,"scheme":"OrtsOcts","topology":0}
//! {"t":12000,"node":0,"ev":"backoff_draw","cw":31,"slots":14}
//! ...                                  (one line per trace record)
//! {"ev":"metrics","data":{"counters":{...},"gauges":{...},"histograms":{...}}}
//! {"ev":"cell", ...}                   (next cell)
//! ```
//!
//! The header and `"ev":"cell"` / `"ev":"metrics"` marker lines carry no
//! `t` field, which is how consumers (and `trace_view --check`) tell them
//! apart from trace records. Everything here is deterministic: same scale
//! and seed, same bytes.

use std::fmt::Write as _;

use dirca_mac::Scheme;
use dirca_net::trace::{metrics_snapshot, run_traced};

use crate::report::GridScale;
use crate::ringsim::topology_config;

/// Ring-buffer capacity per traced cell run: 64 Ki records (~3 MB) keeps
/// the full record stream of a `--quick` cell and the tail of a paper-scale
/// one.
pub const TRACE_CAPACITY: usize = 1 << 16;

/// Renders the grid's JSONL trace document (see the module docs for the
/// layout). Runs one traced simulation per cell, so expect `--quick`-scale
/// inputs; the paper scale works but takes the full grid runtime.
pub fn render_grid_trace(scale: &GridScale) -> String {
    let cells: Vec<(usize, f64, Scheme)> = scale
        .densities
        .iter()
        .flat_map(|&n| {
            scale
                .beamwidths
                .iter()
                .flat_map(move |&theta| Scheme::ALL.into_iter().map(move |s| (n, theta, s)))
        })
        .collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"schema\":\"dirca-trace/v1\",\"seed\":{},\"cells\":{}}}",
        scale.seed,
        cells.len()
    );
    for (n, theta, scheme) in cells {
        let _ = writeln!(
            out,
            "{{\"ev\":\"cell\",\"n\":{n},\"theta_deg\":{theta},\"scheme\":\"{scheme:?}\",\"topology\":0}}"
        );
        let experiment = scale.cell(scheme, n, theta);
        let (topology, config) = topology_config(&experiment, 0);
        let (result, trace) = run_traced(&topology, &config, TRACE_CAPACITY);
        out.push_str(&trace.to_jsonl());
        let _ = writeln!(
            out,
            "{{\"ev\":\"metrics\",\"data\":{}}}",
            metrics_snapshot(&result, None).to_json()
        );
    }
    out
}

/// Renders the grid trace and writes it to `path`.
pub fn export_grid_trace(scale: &GridScale, path: &str) -> std::io::Result<()> {
    std::fs::write(path, render_grid_trace(scale))
}

/// Renders the grid trace as a CRC-framed binary document — the same
/// cells, records, and metrics as [`render_grid_trace`], but encoded with
/// `dirca_trace::wire`: a `TRACE_HEADER` frame (seed, cell count), then
/// per cell a `CELL_MARKER` frame (n, θ, scheme, topology), one `RECORD`
/// frame per trace record, and a `METRICS` frame carrying the metrics
/// snapshot as JSON text. Deterministic: same scale and seed, same bytes.
pub fn render_grid_trace_bin(scale: &GridScale) -> Vec<u8> {
    use dirca_trace::wire::{encode_frame_into, encode_scheme, kind, record_payload, WireWriter};
    let cells: Vec<(usize, f64, Scheme)> = scale
        .densities
        .iter()
        .flat_map(|&n| {
            scale
                .beamwidths
                .iter()
                .flat_map(move |&theta| Scheme::ALL.into_iter().map(move |s| (n, theta, s)))
        })
        .collect();
    let mut out = Vec::new();
    let mut w = WireWriter::new();
    w.put_u64(scale.seed);
    w.put_u32(cells.len() as u32);
    encode_frame_into(kind::TRACE_HEADER, &w.into_bytes(), &mut out);
    for (n, theta, scheme) in cells {
        let mut w = WireWriter::new();
        w.put_u64(n as u64);
        w.put_f64(theta);
        w.put_u8(encode_scheme(scheme));
        w.put_u32(0); // topology index
        encode_frame_into(kind::CELL_MARKER, &w.into_bytes(), &mut out);
        let experiment = scale.cell(scheme, n, theta);
        let (topology, config) = topology_config(&experiment, 0);
        let (result, trace) = run_traced(&topology, &config, TRACE_CAPACITY);
        for record in trace.iter() {
            encode_frame_into(kind::RECORD, &record_payload(record), &mut out);
        }
        let mut w = WireWriter::new();
        w.put_str(&metrics_snapshot(&result, None).to_json());
        encode_frame_into(kind::METRICS, &w.into_bytes(), &mut out);
    }
    out
}

/// Renders the binary grid trace and writes it to `path`.
pub fn export_grid_trace_bin(scale: &GridScale, path: &str) -> std::io::Result<()> {
    std::fs::write(path, render_grid_trace_bin(scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirca_net::trace::{Json, TraceRecord};
    use dirca_sim::SimDuration;

    fn tiny_scale() -> GridScale {
        GridScale {
            topologies: 1,
            measure: SimDuration::from_millis(200),
            warmup: SimDuration::from_millis(50),
            threads: 1,
            seed: 7,
            densities: vec![3],
            beamwidths: vec![90.0],
            fer: 0.0,
        }
    }

    #[test]
    fn document_layout_is_well_formed() {
        let doc = render_grid_trace(&tiny_scale());
        let mut lines = doc.lines();
        let header = Json::parse(lines.next().expect("header")).expect("header is JSON");
        assert_eq!(
            header.get("schema").and_then(Json::as_str),
            Some("dirca-trace/v1")
        );
        assert_eq!(header.get("cells").and_then(Json::as_u64), Some(3));
        let mut cell_lines = 0;
        let mut metrics_lines = 0;
        let mut records = 0;
        for line in lines {
            let v = Json::parse(line).expect("every line is JSON");
            match v.get("ev").and_then(Json::as_str) {
                Some("cell") => {
                    cell_lines += 1;
                    assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
                }
                Some("metrics") => {
                    metrics_lines += 1;
                    assert!(v.get("data").and_then(Json::as_obj).is_some());
                }
                _ => {
                    TraceRecord::from_json(&v).expect("record lines match the schema");
                    records += 1;
                }
            }
        }
        assert_eq!(cell_lines, 3, "one marker per scheme");
        assert_eq!(metrics_lines, 3, "one metrics block per scheme");
        assert!(
            records > 100,
            "cells must contribute records, got {records}"
        );
    }

    #[test]
    fn export_is_deterministic() {
        let scale = tiny_scale();
        assert_eq!(render_grid_trace(&scale), render_grid_trace(&scale));
    }

    #[test]
    fn binary_document_mirrors_the_jsonl_layout() {
        use dirca_trace::wire::{decode_record_payload, kind, WireReader};
        let scale = tiny_scale();
        let doc = render_grid_trace_bin(&scale);
        assert_eq!(doc, render_grid_trace_bin(&scale), "deterministic bytes");
        let (frames, err) = dirca_trace::wire::decode_all(&doc);
        assert_eq!(err, None, "renderer emits only intact frames");

        assert_eq!(frames[0].kind, kind::TRACE_HEADER);
        let mut r = WireReader::new(&frames[0].payload);
        assert_eq!(r.take_u64().unwrap(), scale.seed);
        assert_eq!(r.take_u32().unwrap(), 3, "one cell per scheme");
        r.finish().unwrap();

        let mut cells = 0;
        let mut metrics = 0;
        let mut records = 0;
        for frame in &frames[1..] {
            match frame.kind {
                kind::CELL_MARKER => {
                    cells += 1;
                    let mut r = WireReader::new(&frame.payload);
                    assert_eq!(r.take_u64().unwrap(), 3, "n");
                    assert_eq!(r.take_f64().unwrap(), 90.0, "theta");
                    let _scheme = r.take_u8().unwrap();
                    assert_eq!(r.take_u32().unwrap(), 0, "topology");
                    r.finish().unwrap();
                }
                kind::METRICS => {
                    metrics += 1;
                    let mut r = WireReader::new(&frame.payload);
                    let json = r.take_str().unwrap();
                    assert!(Json::parse(json)
                        .expect("metrics payload is JSON")
                        .get("counters")
                        .is_some());
                    r.finish().unwrap();
                }
                kind::RECORD => {
                    decode_record_payload(&frame.payload).expect("record decodes");
                    records += 1;
                }
                other => panic!("unexpected frame kind {other:#04x}"),
            }
        }
        assert_eq!(cells, 3);
        assert_eq!(metrics, 3);
        assert!(
            records > 100,
            "cells must contribute records, got {records}"
        );

        // The density claim documented in EXPERIMENTS.md: the binary twin
        // of the same grid is strictly smaller than the JSONL rendering.
        assert!(doc.len() < render_grid_trace(&scale).len());
    }
}
