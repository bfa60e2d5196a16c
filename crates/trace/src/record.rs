//! Typed trace records.
//!
//! Every record is a fixed-size `Copy` value: recording is a stamp-and-push
//! into a preallocated ring buffer, with no allocation, hashing, or clock
//! reads on the hot path. A record's one serialised form is its `RECORD`
//! frame payload ([`crate::wire::encode_record`]); `trace_view --check`
//! validates exported traces against its exact inverse,
//! [`crate::wire::decode_record`].

use dirca_mac::{FrameKind, TimerKind};
use dirca_radio::NodeId;
use dirca_sim::SimTime;

/// One observable MAC/PHY event, stamped with sim-time and node id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation instant the event occurred.
    pub time: SimTime,
    /// The node the event is attributed to.
    pub node: NodeId,
    /// What happened.
    pub kind: RecordKind,
}

/// The payload of a [`TraceRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A frame left this node's radio.
    FrameTx {
        /// Frame class.
        kind: FrameKind,
        /// Addressed node.
        peer: NodeId,
        /// On-air payload bytes (0 for control frames).
        bytes: u32,
        /// Whether the transmission used a directional beam.
        directional: bool,
    },
    /// A frame addressed to this node was decoded successfully.
    FrameRx {
        /// Frame class.
        kind: FrameKind,
        /// Transmitting node.
        peer: NodeId,
    },
    /// A reception at this node ended corrupted (collision or fault).
    RxCorrupted,
    /// The MAC drew a fresh backoff.
    BackoffDraw {
        /// Contention-window upper bound the draw was taken from.
        cw: u32,
        /// The drawn slot count in `[0, cw]`.
        slots: u32,
    },
    /// An overheard frame reserved the medium: NAV set until `until`.
    NavSet {
        /// Instant the reservation ends.
        until: SimTime,
    },
    /// The node's NAV reservation expired.
    NavExpire,
    /// A response timer fired without the awaited frame.
    Timeout {
        /// Which timer.
        timer: TimerKind,
    },
    /// A data packet completed service successfully (ACK received).
    PacketAcked,
    /// A data packet was dropped after exhausting retries.
    PacketDropped,
    /// Fault injection corrupted an otherwise-clean reception.
    FaultCorrupt,
    /// A link outage suppressed an otherwise-clean reception.
    FaultOutage,
}
