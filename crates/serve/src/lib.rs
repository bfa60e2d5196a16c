//! `dirca-serve`: a crash-tolerant scenario service.
//!
//! The batch harness (`paper_grid`) runs one grid per invocation; this
//! crate wraps the same runner in a long-lived TCP service. A client
//! submits a [`spec::ScenarioSpec`] over the CRC-framed protocol from
//! `dirca_trace::wire` — the same framing as the on-disk trace and
//! checkpoint formats — and streams back per-cell progress heartbeats,
//! the rendered report, and a terminal summary.
//!
//! The robustness contract, end to end:
//!
//! * **Untrusted input never crashes the server.** A `SUBMIT` payload is
//!   decoded totally (typed [`dirca_trace::wire::PayloadError`]s, list
//!   lengths bounded before allocation) and validated against
//!   [`spec::limits`] before any work is scheduled; every failure is a
//!   typed `REJECT` frame.
//! * **A `SIGKILL` at any instant loses at most one in-flight cell.**
//!   Each finished cell is flushed to a binary checkpoint *before* its
//!   progress heartbeat; a restarted server resumes the same spec from
//!   the checkpoint and the report comes out byte-identical.
//! * **Overload is shed, not queued unboundedly.** Connections beyond
//!   the pending-queue cap get a `BUSY` frame; the client retries with
//!   exponential backoff and seeded jitter.
//!
//! Determinism note: the served report is byte-identical to
//! `paper_grid`'s for the same spec — thread counts, retries, timeouts,
//! and crash/restart cycles can change *when* bytes arrive but never
//! *which* bytes.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// Wall-clock duration, used only for service plumbing: socket timeouts,
/// accept-loop polling, and client retry backoff. Simulation code never
/// sees wall-clock time — all simulated time is `dirca_sim::SimTime`.
pub use std::time::Duration;

pub mod client;
pub mod proto;
pub mod server;
pub mod spec;

pub use client::{shutdown, submit, ClientConfig, ClientError, Served};
pub use server::{Server, ServerConfig};
pub use spec::{ScenarioSpec, SpecError};
