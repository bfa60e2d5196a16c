//! Typed trace records.
//!
//! Every record is a fixed-size `Copy` value: recording is a stamp-and-push
//! into a preallocated ring buffer, with no allocation, hashing, or clock
//! reads on the hot path. A record's one serialised form is its `RECORD`
//! frame payload ([`crate::wire::encode_record`]); `trace_view --check`
//! validates exported traces against its exact inverse,
//! [`crate::wire::decode_record`].
//!
//! `FrameTx` records are the one frame log: each carries the whole frame
//! ([`TraceRecord::transmission`]), and [`TraceRecord::frame_tx`] rebuilds
//! it.

use dirca_mac::{DataPacket, Frame, FrameKind, TimerKind};
use dirca_radio::NodeId;
use dirca_sim::{SimDuration, SimTime};

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

impl TraceRecord {
    /// The `FrameTx` record of `frame` leaving `frame.src` at `time`.
    /// [`TraceRecord::frame_tx`] inverts it for every frame the MAC builds:
    /// a DATA payload's `src`, `dst` and `bytes` are the frame's own, and
    /// control frames carry no payload.
    pub fn transmission(time: SimTime, frame: &Frame, directional: bool) -> Self {
        let (seq, created) = frame
            .payload
            .map_or((0, SimTime::ZERO), |p| (p.seq, p.created));
        TraceRecord {
            time,
            node: frame.src,
            kind: RecordKind::FrameTx {
                kind: frame.kind,
                peer: frame.dst,
                bytes: frame.payload_bytes,
                directional,
                duration: frame.duration,
                seq,
                created,
            },
        }
    }

    /// The frame a `FrameTx` record logs, and whether it was beamformed;
    /// `None` for every other kind. `src` is `node`, `dst` is `peer`, and
    /// the payload is `Some` exactly for DATA frames.
    pub fn frame_tx(&self) -> Option<(Frame, bool)> {
        let RecordKind::FrameTx {
            kind,
            peer,
            bytes,
            directional,
            duration,
            seq,
            created,
        } = self.kind
        else {
            return None;
        };
        let payload = (kind == FrameKind::Data)
            .then(|| DataPacket::new(seq, self.node, peer, bytes, created));
        let frame = Frame {
            kind,
            src: self.node,
            dst: peer,
            duration,
            payload_bytes: bytes,
            payload,
        };
        Some((frame, directional))
    }
}

/// The payload of a [`TraceRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A frame left this node's radio; [`TraceRecord::frame_tx`] rebuilds
    /// the frame.
    FrameTx {
        /// Frame class.
        kind: FrameKind,
        /// Addressed node.
        peer: NodeId,
        /// The frame's `payload_bytes`: the data size for RTS, CTS and
        /// DATA, 0 for ACK.
        bytes: u32,
        /// Whether the transmission used a directional beam.
        directional: bool,
        /// The NAV duration the frame advertises.
        duration: SimDuration,
        /// The DATA packet's sequence number (0 for control frames).
        seq: u64,
        /// The DATA packet's creation instant (`SimTime::ZERO` for control
        /// frames).
        created: SimTime,
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
