//! IEEE 802.11 DSSS DCF and its directional variants.
//!
//! This crate implements the MAC layer studied in Wang &
//! Garcia-Luna-Aceves (ICDCS 2003):
//!
//! * the standard **ORTS-OCTS** four-way handshake (RTS/CTS/DATA/ACK, all
//!   omni-directional) — i.e. IEEE 802.11 DCF with the DSSS PHY parameters
//!   of the paper's Table 1,
//! * **DRTS-DCTS** — every frame beamformed toward its peer,
//! * **DRTS-OCTS** — RTS/DATA/ACK beamformed, CTS omni-directional.
//!
//! The protocol engine [`DcfMac`] is a *pure state machine*: it never talks
//! to an event queue directly. Its host (the `dirca-net` crate, or the mock
//! harness in this crate's tests) feeds it medium-state edges, decoded
//! frames, transmit-complete notifications and timer firings, and it reacts
//! through the [`MacContext`] trait. This keeps every protocol rule unit-
//! testable without a radio or an event loop.
//!
//! Features implemented: physical + virtual carrier sense (NAV), binary
//! exponential backoff with freeze/resume at slot granularity, SIFS/DIFS/
//! EIFS interframe spacing, CTS/DATA/ACK timeouts, separate short/long
//! retry limits, per-frame transmit beam selection by [`Scheme`], and the
//! counter set needed for the paper's throughput/delay/collision-ratio
//! metrics.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod backoff;
mod counters;
mod dcf;
mod frame;
mod nav;
mod params;
mod scheme;

pub use backoff::Backoff;
pub use counters::MacCounters;
pub use dcf::{DcfMac, MacConfig, MacContext, TimerKind};
pub use frame::{DataPacket, Frame, FrameKind};
pub use nav::Nav;
pub use params::Dot11Params;
pub use scheme::Scheme;
