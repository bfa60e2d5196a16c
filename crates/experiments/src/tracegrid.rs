//! Structured trace export over the paper grid.
//!
//! [`render_grid_trace`] re-runs topology 0 of every `(N, θ, scheme)` cell
//! of a [`GridScale`] with the ring recorder attached and writes the runs
//! as one CRC-framed `dirca_trace::wire` document:
//!
//! ```text
//! TRACE_HEADER  seed: u64, cells: u32
//! CELL_MARKER   n: u64, θ: f64, scheme: u8, topology: u32
//! RECORD        one frame per trace record, oldest first
//! ...
//! METRICS       the cell's metrics snapshot (typed payload)
//! CELL_MARKER   (next cell)
//! ```
//!
//! Every cell is closed by exactly one `METRICS` frame, whose
//! `records_overwritten` counter says how many earlier records the ring
//! buffer dropped — a wrapped cell holds only the tail of its run.
//! `trace_view` validates and folds the document. Everything here is
//! deterministic: same scale and seed, same bytes.

use dirca_net::trace::{metrics_snapshot, run_traced};
use dirca_trace::wire::{
    encode_frame_into, encode_scheme, kind, metrics_payload, record_payload, WireWriter,
};

use crate::report::GridScale;
use crate::ringsim::topology_config;
use crate::runner::{enumerate_cells, Cell};

/// Ring-buffer capacity per traced cell run: 64 Ki records of 56 B
/// (`size_of::<TraceRecord>()`, 3.5 MiB) keeps the full record stream of a
/// `--quick` cell and the tail of a paper-scale one.
pub const TRACE_CAPACITY: usize = 1 << 16;

/// Renders the grid's trace document (see the module docs for the layout).
/// Runs one traced simulation per cell, so expect `--quick`-scale inputs;
/// the paper scale works but takes the full grid runtime.
pub fn render_grid_trace(scale: &GridScale) -> Vec<u8> {
    render_with_capacity(scale, TRACE_CAPACITY)
}

fn render_with_capacity(scale: &GridScale, capacity: usize) -> Vec<u8> {
    let cells = enumerate_cells(scale);
    let mut out = Vec::new();
    let mut w = WireWriter::new();
    w.put_u64(scale.seed);
    w.put_u32(cells.len() as u32);
    encode_frame_into(kind::TRACE_HEADER, &w.into_bytes(), &mut out);
    for Cell { n, theta, scheme } in cells {
        let mut w = WireWriter::new();
        w.put_u64(n as u64);
        w.put_f64(theta);
        w.put_u8(encode_scheme(scheme));
        w.put_u32(0); // topology index
        encode_frame_into(kind::CELL_MARKER, &w.into_bytes(), &mut out);
        let experiment = scale.cell(scheme, n, theta);
        let (topology, config) = topology_config(&experiment, 0);
        let (result, trace) = run_traced(&topology, &config, capacity);
        for record in trace.iter() {
            encode_frame_into(kind::RECORD, &record_payload(record), &mut out);
        }
        let mut metrics = metrics_snapshot(&result, None);
        metrics.add_counter("records_overwritten", trace.overwritten());
        encode_frame_into(kind::METRICS, &metrics_payload(&metrics), &mut out);
    }
    out
}

/// Renders the grid trace and writes it to `path`.
pub fn export_grid_trace(scale: &GridScale, path: &str) -> std::io::Result<()> {
    std::fs::write(path, render_grid_trace(scale))
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;
    use dirca_sim::SimDuration;
    use dirca_trace::wire::{
        decode_all, decode_metrics_payload, decode_record_payload, WireReader,
    };

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

    /// `(records, records_overwritten)` of every cell of `doc`, checking
    /// the frame layout along the way.
    fn cells_of(doc: &[u8], scale: &GridScale) -> Vec<(u64, u64)> {
        let (frames, err) = decode_all(doc);
        assert_eq!(err, None, "renderer emits only intact frames");

        assert_eq!(frames[0].kind, kind::TRACE_HEADER);
        let mut r = WireReader::new(&frames[0].payload);
        assert_eq!(r.take_u64().unwrap(), scale.seed);
        assert_eq!(r.take_u32().unwrap(), 3, "one cell per scheme");
        r.finish().unwrap();

        let mut cells = Vec::new();
        let mut records = 0;
        for frame in &frames[1..] {
            match frame.kind {
                kind::CELL_MARKER => {
                    records = 0;
                    let mut r = WireReader::new(&frame.payload);
                    assert_eq!(r.take_u64().unwrap(), 3, "n");
                    assert_eq!(r.take_f64().unwrap(), 90.0, "theta");
                    let _scheme = r.take_u8().unwrap();
                    assert_eq!(r.take_u32().unwrap(), 0, "topology");
                    r.finish().unwrap();
                }
                kind::RECORD => {
                    decode_record_payload(&frame.payload).expect("record decodes");
                    records += 1;
                }
                kind::METRICS => {
                    let m = decode_metrics_payload(&frame.payload).expect("typed metrics");
                    assert!(m.counter("packets_acked").is_some());
                    let overwritten = m.counter("records_overwritten").expect("ring loss");
                    cells.push((records, overwritten));
                }
                other => panic!("unexpected frame kind {other:#04x}"),
            }
        }
        cells
    }

    #[test]
    fn document_layout_is_well_formed_and_deterministic() {
        let scale = tiny_scale();
        let doc = render_grid_trace(&scale);
        assert_eq!(doc, render_grid_trace(&scale), "deterministic bytes");
        let cells = cells_of(&doc, &scale);
        assert_eq!(cells.len(), 3, "one METRICS frame per scheme");
        for (records, overwritten) in cells {
            assert!(
                records > 100,
                "cells must contribute records, got {records}"
            );
            assert_eq!(overwritten, 0, "a tiny cell fits the ring");
        }
    }

    #[test]
    fn wrapped_rings_record_their_loss() {
        let scale = tiny_scale();
        let full = cells_of(&render_grid_trace(&scale), &scale);
        let wrapped = cells_of(&render_with_capacity(&scale, 64), &scale);
        for (&(all, _), &(held, overwritten)) in full.iter().zip(&wrapped) {
            assert_eq!(held, 64, "the ring keeps its capacity's worth");
            assert_eq!(held + overwritten, all, "held + lost = every record");
        }
    }
}
