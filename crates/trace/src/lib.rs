//! Deterministic observability for the DirCA simulation stack.
//!
//! This crate is the data layer behind the workspace's structured traces.
//! Every build compiles it in: `dirca-net` pushes records into an attached
//! recorder, `dirca-experiments` exports them (`paper_grid --trace`) and
//! reads them back (`trace_view`), and a run with nothing attached records
//! nothing. It provides three pieces:
//!
//! * [`TraceRecord`] / [`RecordKind`] — typed, `Copy`, fixed-size records
//!   of MAC/PHY events (frame tx/rx, backoff draws, NAV activity, timeouts,
//!   fault hits), with a stable JSONL encoding.
//! * [`RingTrace`] — a preallocated ring buffer holding the last N records
//!   of a run, exportable as JSONL and hashable with the same FNV-1a
//!   convention as the golden ring-trace tests.
//! * [`MetricsRegistry`] — statically-named counters, gauges, and
//!   [`dirca_stats::Histogram`]s snapshotted into experiment reports.
//!
//! Everything here is *observation only*: recording consumes no randomness,
//! reads no wall clock, and never reorders events — the golden-hash test
//! battery in `dirca-net` enforces that attaching a recorder leaves the
//! simulation byte-identical.
//!
//! # Example
//!
//! ```
//! use dirca_mac::FrameKind;
//! use dirca_radio::NodeId;
//! use dirca_sim::SimTime;
//! use dirca_trace::{RecordKind, RingTrace, TraceRecord};
//!
//! let mut trace = RingTrace::with_capacity(1024);
//! trace.push(TraceRecord {
//!     time: SimTime::from_micros(20),
//!     node: NodeId(1),
//!     kind: RecordKind::FrameTx {
//!         kind: FrameKind::Rts,
//!         peer: NodeId(2),
//!         bytes: 1460,
//!         directional: true,
//!     },
//! });
//! assert_eq!(trace.len(), 1);
//! assert!(trace.to_jsonl().contains("\"ev\":\"frame_tx\""));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Unwraps and exact float comparisons are idiomatic in test assertions.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

pub mod json;
mod metrics;
mod record;
mod ring;
pub mod wire;

pub use json::{Json, JsonError};
pub use metrics::MetricsRegistry;
pub use record::{RecordKind, TraceRecord};
pub use ring::{fnv1a, RingTrace};
pub use wire::{Frame, FrameDecoder, PayloadError, WireError, WireReader, WireWriter};
