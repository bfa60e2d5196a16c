//! The structured trace document of a grid run.
//!
//! With [`RunnerConfig::trace`](crate::runner::RunnerConfig::trace) set,
//! the runner records topology 0 of every cell it executes (the same run
//! that yields the cell's first sample) and writes one CRC-framed
//! `dirca_trace::wire` document once the grid ends:
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
//! deterministic: same cells, same runs, same bytes.

use dirca_net::trace::{metrics_snapshot, RingTrace};
use dirca_net::RunResult;
use dirca_trace::wire::{
    encode_frame_into, encode_scheme, kind, metrics_payload, record_payload, WireWriter,
};

use crate::runner::Cell;

/// Ring-buffer capacity per traced cell run: 64 Ki records of 56 B
/// (`size_of::<TraceRecord>()`, 3.5 MiB) keeps the full record stream of a
/// `--quick` cell and the tail of a paper-scale one.
pub const TRACE_CAPACITY: usize = 1 << 16;

/// The whole document: the `TRACE_HEADER` frame (the grid's master
/// `seed` and the number of cell blocks), then `cells`, each an
/// [`encode_cell`] block, in order.
pub fn encode_document(seed: u64, cells: &[Vec<u8>]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(seed);
    w.put_u32(cells.len() as u32);
    let mut out = Vec::new();
    encode_frame_into(kind::TRACE_HEADER, &w.into_bytes(), &mut out);
    out.extend(cells.concat());
    out
}

/// One cell's block: its `CELL_MARKER` (topology 0), one `RECORD` frame
/// per record `ring` holds, and the closing `METRICS` frame of `result`,
/// the run `ring` recorded.
pub fn encode_cell(cell: &Cell, result: &RunResult, ring: &RingTrace) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = WireWriter::new();
    w.put_u64(cell.n as u64);
    w.put_f64(cell.theta);
    w.put_u8(encode_scheme(cell.scheme));
    w.put_u32(0); // topology index
    encode_frame_into(kind::CELL_MARKER, &w.into_bytes(), &mut out);
    for record in ring.iter() {
        encode_frame_into(kind::RECORD, &record_payload(record), &mut out);
    }
    let mut metrics = metrics_snapshot(result, None);
    metrics.add_counter("records_overwritten", ring.overwritten());
    encode_frame_into(kind::METRICS, &metrics_payload(&metrics), &mut out);
    out
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;
    use dirca_mac::Scheme;
    use dirca_net::trace::run_traced;
    use dirca_sim::SimDuration;
    use dirca_trace::wire::{decode_all, decode_metrics_payload, WireReader};

    use crate::ringsim::{topology_config, RingExperiment};

    /// `(records, records_overwritten)` of the one cell block `block`,
    /// checking its frame layout along the way.
    fn block_counts(block: &[u8], cell: &Cell) -> (u64, u64) {
        let (frames, err) = decode_all(block);
        assert_eq!(err, None, "the encoder emits only intact frames");
        assert_eq!(frames[0].kind, kind::CELL_MARKER);
        let mut r = WireReader::new(&frames[0].payload);
        assert_eq!(r.take_u64().unwrap(), cell.n as u64);
        assert_eq!(r.take_f64().unwrap(), cell.theta);
        assert_eq!(r.take_u8().unwrap(), encode_scheme(cell.scheme));
        assert_eq!(r.take_u32().unwrap(), 0, "topology");
        r.finish().unwrap();
        let (last, records) = frames[1..].split_last().expect("a METRICS frame");
        assert!(records.iter().all(|f| f.kind == kind::RECORD));
        assert_eq!(last.kind, kind::METRICS);
        let metrics = decode_metrics_payload(&last.payload).expect("typed metrics");
        assert!(metrics.counter("packets_acked").is_some());
        let overwritten = metrics.counter("records_overwritten").expect("ring loss");
        (records.len() as u64, overwritten)
    }

    #[test]
    fn wrapped_rings_record_their_loss() {
        let cell = Cell {
            n: 3,
            theta: 90.0,
            scheme: Scheme::OrtsOcts,
        };
        let mut experiment = RingExperiment::paper(cell.scheme, cell.n, cell.theta);
        experiment.seed = 7;
        experiment.config.warmup = SimDuration::from_millis(50);
        experiment.config.measure = SimDuration::from_millis(200);
        let (topology, config) = topology_config(&experiment, 0);
        let (result, full) = run_traced(&topology, &config, TRACE_CAPACITY);
        let (all, lost) = block_counts(&encode_cell(&cell, &result, &full), &cell);
        assert!(all > 100, "the cell must contribute records, got {all}");
        assert_eq!(lost, 0, "a tiny cell fits the ring");
        let (result, wrapped) = run_traced(&topology, &config, 64);
        let (held, overwritten) = block_counts(&encode_cell(&cell, &result, &wrapped), &cell);
        assert_eq!(held, 64, "the ring keeps its capacity's worth");
        assert_eq!(held + overwritten, all, "held + lost = every record");
    }
}
