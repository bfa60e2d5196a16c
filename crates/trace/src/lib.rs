//! Deterministic observability for the DirCA simulation stack.
//!
//! This crate is the data layer behind the workspace's structured traces.
//! Every build compiles it in: `dirca-net` pushes records into an attached
//! recorder, `dirca-experiments` exports them (`paper_grid --trace`) and
//! reads them back (`trace_view`), and a run with nothing attached records
//! nothing. It provides four pieces:
//!
//! * [`TraceRecord`] / [`RecordKind`] — typed, `Copy`, fixed-size records
//!   of MAC/PHY events (frame tx/rx, backoff draws, NAV activity, timeouts,
//!   fault hits). `FrameTx` records carry the whole frame and are the one
//!   frame log: the golden hashes and the runtime auditors read them.
//! * [`RingTrace`] — a preallocated ring buffer holding the last N records
//!   of a run, counting the records it overwrote.
//! * [`MetricsRegistry`] — statically-named counters, gauges, and
//!   [`dirca_stats::Histogram`]s snapshotted per traced cell.
//! * [`wire`] — the CRC-framed binary encoding: the one on-disk trace
//!   document (typed `RECORD` and `METRICS` payloads), the runner
//!   checkpoint, and the `dirca-serve` protocol.
//!
//! Everything here is *observation only*: recording consumes no randomness,
//! reads no wall clock, and never reorders events — the golden battery in
//! `dirca-net` checks that a run without a recorder processes the same
//! events and reports the same per-node results as the recorded run.
//!
//! # Example
//!
//! ```
//! use dirca_mac::{Dot11Params, Frame};
//! use dirca_radio::NodeId;
//! use dirca_sim::SimTime;
//! use dirca_trace::wire::{decode_record_payload, record_payload};
//! use dirca_trace::{RingTrace, TraceRecord};
//!
//! let rts = Frame::rts(NodeId(1), NodeId(2), 1460, &Dot11Params::dsss_2mbps());
//! let record = TraceRecord::transmission(SimTime::from_micros(20), &rts, true);
//! let mut trace = RingTrace::with_capacity(1024);
//! trace.push(record);
//! assert_eq!(trace.len(), 1);
//! assert_eq!(record.frame_tx(), Some((rts, true)));
//! assert_eq!(decode_record_payload(&record_payload(&record)), Ok(record));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Unwraps and exact float comparisons are idiomatic in test assertions.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

mod metrics;
mod record;
mod ring;
pub mod wire;

pub use metrics::MetricsRegistry;
pub use record::{RecordKind, TraceRecord};
pub use ring::RingTrace;
pub use wire::{FrameDecoder, PayloadError, WireError, WireReader, WireWriter};
