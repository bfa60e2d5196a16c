//! MAC frames and upper-layer data packets.

use std::fmt;

use dirca_radio::NodeId;
use dirca_sim::{SimDuration, SimTime};

use crate::Dot11Params;

/// The four MAC frame types of the RTS/CTS four-way handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Request-to-send.
    Rts,
    /// Clear-to-send.
    Cts,
    /// Data frame.
    Data,
    /// Acknowledgment.
    Ack,
}

impl FrameKind {
    /// Every frame kind, in handshake order.
    pub const ALL: [FrameKind; 4] = [
        FrameKind::Rts,
        FrameKind::Cts,
        FrameKind::Data,
        FrameKind::Ack,
    ];

    /// The canonical name (`"RTS"`, `"CTS"`, `"DATA"`, `"ACK"`), used by
    /// [`fmt::Display`].
    pub fn label(self) -> &'static str {
        match self {
            FrameKind::Rts => "RTS",
            FrameKind::Cts => "CTS",
            FrameKind::Data => "DATA",
            FrameKind::Ack => "ACK",
        }
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An upper-layer packet handed to the MAC for delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataPacket {
    /// Sender-local sequence number.
    pub seq: u64,
    /// Originating node.
    pub src: NodeId,
    /// Destination node (must be a neighbour; no routing in this model).
    pub dst: NodeId,
    /// Size on the air in bytes (payload + MAC overhead).
    pub bytes: u32,
    /// Creation instant, for delay accounting.
    pub created: SimTime,
}

impl DataPacket {
    /// Creates a data packet.
    pub fn new(seq: u64, src: NodeId, dst: NodeId, bytes: u32, created: SimTime) -> Self {
        DataPacket {
            seq,
            src,
            dst,
            bytes,
            created,
        }
    }
}

/// A MAC frame on the air.
///
/// `duration` carries the frame's Duration/NAV field: the time the medium
/// will remain reserved *after this frame ends*, which overhearing nodes
/// load into their NAV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    /// Frame type.
    pub kind: FrameKind,
    /// Transmitting node.
    pub src: NodeId,
    /// Addressed node.
    pub dst: NodeId,
    /// NAV duration advertised by this frame.
    pub duration: SimDuration,
    /// On-air payload size (meaningful for DATA frames; control frames use
    /// the sizes from [`Dot11Params`]).
    pub payload_bytes: u32,
    /// The data packet carried by a DATA frame.
    pub payload: Option<DataPacket>,
}

impl Frame {
    /// Builds an RTS from `src` to `dst` reserving the medium for a data
    /// frame of `data_bytes`.
    pub fn rts(src: NodeId, dst: NodeId, data_bytes: u32, params: &Dot11Params) -> Frame {
        Frame {
            kind: FrameKind::Rts,
            src,
            dst,
            duration: params.rts_nav(data_bytes),
            payload_bytes: data_bytes,
            payload: None,
        }
    }

    /// Builds the CTS answering `rts`.
    ///
    /// # Panics
    ///
    /// Panics if `rts` is not an RTS frame.
    pub fn cts(rts: &Frame, params: &Dot11Params) -> Frame {
        assert_eq!(rts.kind, FrameKind::Rts, "cts() must answer an RTS");
        Frame {
            kind: FrameKind::Cts,
            src: rts.dst,
            dst: rts.src,
            duration: params.cts_nav(rts.payload_bytes),
            payload_bytes: rts.payload_bytes,
            payload: None,
        }
    }

    /// Builds the DATA frame carrying `packet`.
    pub fn data(packet: DataPacket, params: &Dot11Params) -> Frame {
        Frame {
            kind: FrameKind::Data,
            src: packet.src,
            dst: packet.dst,
            duration: params.data_nav(),
            payload_bytes: packet.bytes,
            payload: Some(packet),
        }
    }

    /// Builds the ACK answering `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a DATA frame.
    pub fn ack(data: &Frame, _params: &Dot11Params) -> Frame {
        assert_eq!(data.kind, FrameKind::Data, "ack() must answer a DATA frame");
        Frame {
            kind: FrameKind::Ack,
            src: data.dst,
            dst: data.src,
            duration: SimDuration::ZERO,
            payload_bytes: 0,
            payload: None,
        }
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}→{}", self.kind, self.src, self.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Dot11Params {
        Dot11Params::dsss_2mbps()
    }

    #[test]
    fn rts_carries_full_reservation() {
        let p = params();
        let rts = Frame::rts(NodeId(1), NodeId(2), 1460, &p);
        assert_eq!(rts.kind, FrameKind::Rts);
        assert_eq!(rts.duration, p.rts_nav(1460));
        assert_eq!((rts.src, rts.dst), (NodeId(1), NodeId(2)));
    }

    #[test]
    fn handshake_frames_swap_addresses() {
        let p = params();
        let rts = Frame::rts(NodeId(1), NodeId(2), 1460, &p);
        let cts = Frame::cts(&rts, &p);
        assert_eq!((cts.src, cts.dst), (NodeId(2), NodeId(1)));
        let pkt = DataPacket::new(0, NodeId(1), NodeId(2), 1460, SimTime::ZERO);
        let data = Frame::data(pkt, &p);
        let ack = Frame::ack(&data, &p);
        assert_eq!((ack.src, ack.dst), (NodeId(2), NodeId(1)));
    }

    #[test]
    fn nav_decreases_along_the_handshake() {
        let p = params();
        let rts = Frame::rts(NodeId(1), NodeId(2), 1460, &p);
        let cts = Frame::cts(&rts, &p);
        let pkt = DataPacket::new(0, NodeId(1), NodeId(2), 1460, SimTime::ZERO);
        let data = Frame::data(pkt, &p);
        let ack = Frame::ack(&data, &p);
        assert!(rts.duration > cts.duration);
        assert!(cts.duration > data.duration);
        assert!(data.duration > ack.duration);
        assert_eq!(ack.duration, SimDuration::ZERO);
    }

    #[test]
    fn data_frame_carries_packet() {
        let p = params();
        let pkt = DataPacket::new(9, NodeId(3), NodeId(4), 500, SimTime::from_micros(5));
        let data = Frame::data(pkt, &p);
        assert_eq!(data.payload, Some(pkt));
        assert_eq!(data.payload_bytes, 500);
    }

    #[test]
    #[should_panic(expected = "must answer an RTS")]
    fn cts_rejects_non_rts() {
        let p = params();
        let pkt = DataPacket::new(0, NodeId(0), NodeId(1), 10, SimTime::ZERO);
        let data = Frame::data(pkt, &p);
        let _ = Frame::cts(&data, &p);
    }

    #[test]
    #[should_panic(expected = "must answer a DATA frame")]
    fn ack_rejects_non_data() {
        let p = params();
        let rts = Frame::rts(NodeId(0), NodeId(1), 10, &p);
        let _ = Frame::ack(&rts, &p);
    }

    #[test]
    fn displays_are_informative() {
        let p = params();
        let rts = Frame::rts(NodeId(1), NodeId(2), 1460, &p);
        let s = format!("{rts}");
        assert!(s.contains("RTS") && s.contains("n1") && s.contains("n2"));
        assert_eq!(format!("{}", FrameKind::Data), "DATA");
    }
}
