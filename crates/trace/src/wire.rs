//! `dirca-wire`: the CRC-framed binary trace/wire format.
//!
//! This is the workspace's one serialised form: the trace document
//! `paper_grid --trace` writes, the binary checkpoint format of the
//! fault-tolerant runner, and the socket protocol `dirca-serve` speaks.
//! Frames are compact and crash-tolerant: a crash mid-write tears only
//! the final frame, and the intact prefix still decodes.
//!
//! # Trace document
//!
//! One `TRACE_HEADER` frame (seed `u64`, cell count `u32`), then per cell
//! a `CELL_MARKER` frame (n `u64`, θ `f64`, scheme `u8`, topology `u32`),
//! one `RECORD` frame per trace record ([`encode_record`]), and exactly
//! one `METRICS` frame closing the cell ([`metrics_payload`]).
//!
//! # Frame layout
//!
//! Every frame is self-delimiting and independently checksummed:
//!
//! ```text
//! offset 0   magic      4 bytes  0x44 0x43 0x57 0x46  ("DCWF")
//! offset 4   version    1 byte   WIRE_VERSION (currently 1)
//! offset 5   kind       1 byte   frame kind (see [`kind`])
//! offset 6   len        4 bytes  payload length, little-endian u32
//! offset 10  payload    len bytes
//! offset 10+len  crc    4 bytes  CRC-32/IEEE over bytes [4, 10+len)
//! ```
//!
//! The CRC covers version, kind, length, and payload — everything after
//! the magic — so a single flipped bit anywhere in a frame is detected
//! either by the magic check, the header sanity checks, or the CRC.
//!
//! # Total decoding
//!
//! Decoding never panics and never discards good data because of bad
//! data that follows it: [`FrameDecoder`] yields every valid prefix frame
//! and then at most one typed [`WireError`] describing the first byte it
//! could not accept. A truncated file, a torn tail from a crash
//! mid-write, or a flipped bit therefore degrade to "everything up to
//! here, plus a diagnostic" — never a crash, never silent corruption.

use std::fmt;

use dirca_mac::{FrameKind, Scheme, TimerKind};
use dirca_radio::NodeId;
use dirca_sim::{SimDuration, SimTime};

use crate::metrics::MetricsRegistry;
use crate::record::{RecordKind, TraceRecord};

/// Frame magic: `"DCWF"` (DirCA Wire Format). Every document starts with
/// it, so readers refuse any other input before decoding a frame.
pub const MAGIC: [u8; 4] = *b"DCWF";

/// Schema version stamped into every frame. Bump on any layout change.
pub const WIRE_VERSION: u8 = 1;

/// Bytes before the payload: magic + version + kind + length.
pub const HEADER_LEN: usize = 10;

/// Bytes after the payload: the CRC-32.
pub const TRAILER_LEN: usize = 4;

/// Upper bound on a frame payload (16 MiB). A length field above this is
/// a [`WireError::LengthOverrun`] — corrupt headers must not turn into
/// multi-gigabyte allocations.
pub const MAX_PAYLOAD: u32 = 1 << 24;

/// Frame kind registry: one byte, partitioned by subsystem. All kinds
/// live here so the byte values are pairwise-unique by inspection.
pub mod kind {
    /// Trace document: header (seed, cell count).
    pub const TRACE_HEADER: u8 = 0x01;
    /// Trace document: start-of-cell marker (n, θ, scheme, topology).
    pub const CELL_MARKER: u8 = 0x02;
    /// Trace document: one [`crate::TraceRecord`].
    pub const RECORD: u8 = 0x03;
    /// Trace document: end-of-cell metrics snapshot ([`super::metrics_payload`]).
    pub const METRICS: u8 = 0x04;

    /// Checkpoint: header (grid fingerprint).
    pub const CKPT_HEADER: u8 = 0x10;
    /// Checkpoint: one completed or failed cell.
    pub const CKPT_CELL: u8 = 0x11;

    /// Service: client submits a scenario spec.
    pub const SUBMIT: u8 = 0x20;
    /// Service: server accepted a scenario (fingerprint, cell count).
    pub const ACCEPT: u8 = 0x21;
    /// Service: server rejected a malformed scenario (code, message).
    pub const REJECT: u8 = 0x22;
    /// Service: server shed the scenario — pending queue full.
    pub const BUSY: u8 = 0x23;
    /// Service: per-cell progress heartbeat while a scenario runs.
    pub const PROGRESS: u8 = 0x24;
    /// Service: the rendered scenario report (text payload).
    pub const REPORT: u8 = 0x25;
    /// Service: scenario finished (executed/restored/failed counts).
    pub const DONE: u8 = 0x26;
    /// Service: client asks the server to shut down gracefully.
    pub const SHUTDOWN: u8 = 0x27;
    /// Service: server acknowledges shutdown before exiting.
    pub const SHUTDOWN_ACK: u8 = 0x28;
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
// ---------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32/IEEE of `bytes` (the checksum `cksum`-compatible tools call
/// "crc32"; initial value `!0`, final XOR `!0`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        // Infallible: idx is masked to 0..256 and the table has 256 slots.
        crc = (crc >> 8) ^ CRC_TABLE[idx];
    }
    !crc
}

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

/// Why a byte stream stopped decoding. Every variant carries the byte
/// offset of the frame (or header field) it refuses, so diagnostics can
/// name the exact corruption site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The four bytes at `offset` are not the frame magic.
    BadMagic {
        /// Byte offset of the expected frame start.
        offset: u64,
    },
    /// The frame at `offset` carries an unsupported schema version.
    BadVersion {
        /// Byte offset of the frame start.
        offset: u64,
        /// The version byte found.
        found: u8,
    },
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    LengthOverrun {
        /// Byte offset of the frame start.
        offset: u64,
        /// The declared payload length.
        len: u32,
    },
    /// The stream ends before the frame does (torn tail, truncation).
    Truncated {
        /// Byte offset of the frame start.
        offset: u64,
        /// Bytes the complete frame needs from `offset`.
        needed: u64,
        /// Bytes actually available from `offset`.
        available: u64,
    },
    /// The stored CRC does not match the frame contents.
    CrcMismatch {
        /// Byte offset of the frame start.
        offset: u64,
        /// CRC stored in the frame trailer.
        stored: u32,
        /// CRC computed over the frame contents.
        computed: u32,
    },
}

impl WireError {
    /// The byte offset of the frame this error refuses.
    pub fn offset(&self) -> u64 {
        match *self {
            WireError::BadMagic { offset }
            | WireError::BadVersion { offset, .. }
            | WireError::LengthOverrun { offset, .. }
            | WireError::Truncated { offset, .. }
            | WireError::CrcMismatch { offset, .. } => offset,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WireError::BadMagic { offset } => {
                write!(f, "byte {offset}: bad frame magic")
            }
            WireError::BadVersion { offset, found } => write!(
                f,
                "byte {offset}: unsupported wire version {found} (expected {WIRE_VERSION})"
            ),
            WireError::LengthOverrun { offset, len } => write!(
                f,
                "byte {offset}: declared payload length {len} exceeds the {MAX_PAYLOAD}-byte cap"
            ),
            WireError::Truncated {
                offset,
                needed,
                available,
            } => write!(
                f,
                "byte {offset}: truncated frame (need {needed} bytes, have {available})"
            ),
            WireError::CrcMismatch {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "byte {offset}: CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// Why a frame payload could not be decoded into its typed form. Distinct
/// from [`WireError`]: the frame itself was intact (CRC passed), but its
/// contents do not parse as the claimed kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadError {
    /// Byte offset *within the payload* of the refused field.
    pub offset: usize,
    /// What was expected there.
    pub what: &'static str,
}

impl fmt::Display for PayloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "payload byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for PayloadError {}

// ---------------------------------------------------------------------
// Frames and the streaming decoder.
// ---------------------------------------------------------------------

/// One decoded frame: its kind byte and its (CRC-verified) payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame kind (see [`kind`]).
    pub kind: u8,
    /// The verified payload bytes.
    pub payload: Vec<u8>,
}

/// Appends one frame carrying `payload` to `out`.
pub fn encode_frame_into(frame_kind: u8, payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(payload.len() as u64 <= u64::from(MAX_PAYLOAD));
    out.extend_from_slice(&MAGIC);
    let body_start = out.len();
    out.push(WIRE_VERSION);
    out.push(frame_kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// One frame carrying `payload`, as a standalone byte vector.
pub fn encode_frame(frame_kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    encode_frame_into(frame_kind, payload, &mut out);
    out
}

/// Validates a frame header (the first [`HEADER_LEN`] bytes of a frame at
/// stream offset `offset`) and returns `(kind, payload_len)`.
///
/// Shared by the slice decoder below and the socket reader in
/// `dirca-serve`, so both enforce identical magic/version/length rules.
pub fn parse_header(header: &[u8; HEADER_LEN], offset: u64) -> Result<(u8, u32), WireError> {
    if header[..4] != MAGIC {
        return Err(WireError::BadMagic { offset });
    }
    if header[4] != WIRE_VERSION {
        return Err(WireError::BadVersion {
            offset,
            found: header[4],
        });
    }
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::LengthOverrun { offset, len });
    }
    Ok((header[5], len))
}

/// Verifies the CRC of a frame whose post-magic bytes (version, kind,
/// length, payload) are `body` and whose stored trailer is `stored`.
pub fn verify_crc(body: &[u8], stored: u32, offset: u64) -> Result<(), WireError> {
    let computed = crc32(body);
    if computed != stored {
        return Err(WireError::CrcMismatch {
            offset,
            stored,
            computed,
        });
    }
    Ok(())
}

/// Streaming decoder over an in-memory byte slice.
///
/// Iteration yields `Ok(Frame)` for every valid prefix frame, then at
/// most one `Err(WireError)` at the first unacceptable byte, then `None`
/// forever — a total function of the input with no panicking paths.
#[derive(Debug)]
pub struct FrameDecoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    failed: bool,
}

impl<'a> FrameDecoder<'a> {
    /// Starts decoding at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        FrameDecoder {
            bytes,
            pos: 0,
            failed: false,
        }
    }

    /// The byte offset the next frame would start at.
    pub fn offset(&self) -> u64 {
        self.pos as u64
    }

    fn decode_next(&mut self) -> Option<Result<Frame, WireError>> {
        let remaining = self.bytes.len() - self.pos;
        if remaining == 0 {
            return None;
        }
        let offset = self.pos as u64;
        if remaining < HEADER_LEN {
            return Some(Err(WireError::Truncated {
                offset,
                needed: HEADER_LEN as u64,
                available: remaining as u64,
            }));
        }
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&self.bytes[self.pos..self.pos + HEADER_LEN]);
        let (frame_kind, len) = match parse_header(&header, offset) {
            Ok(v) => v,
            Err(e) => return Some(Err(e)),
        };
        let total = HEADER_LEN + len as usize + TRAILER_LEN;
        if remaining < total {
            return Some(Err(WireError::Truncated {
                offset,
                needed: total as u64,
                available: remaining as u64,
            }));
        }
        let body = &self.bytes[self.pos + 4..self.pos + HEADER_LEN + len as usize];
        let trailer_at = self.pos + HEADER_LEN + len as usize;
        let stored = u32::from_le_bytes([
            self.bytes[trailer_at],
            self.bytes[trailer_at + 1],
            self.bytes[trailer_at + 2],
            self.bytes[trailer_at + 3],
        ]);
        if let Err(e) = verify_crc(body, stored, offset) {
            return Some(Err(e));
        }
        let payload = self.bytes[self.pos + HEADER_LEN..trailer_at].to_vec();
        self.pos += total;
        Some(Ok(Frame {
            kind: frame_kind,
            payload,
        }))
    }
}

impl Iterator for FrameDecoder<'_> {
    type Item = Result<Frame, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let item = self.decode_next();
        if matches!(item, Some(Err(_))) {
            self.failed = true;
        }
        item
    }
}

/// Decodes every valid prefix frame of `bytes`; the second element is the
/// diagnostic for the first unacceptable byte, or `None` if the stream
/// decoded cleanly to its end.
pub fn decode_all(bytes: &[u8]) -> (Vec<Frame>, Option<WireError>) {
    let mut frames = Vec::new();
    let mut error = None;
    for item in FrameDecoder::new(bytes) {
        match item {
            Ok(frame) => frames.push(frame),
            Err(e) => error = Some(e),
        }
    }
    (frames, error)
}

// ---------------------------------------------------------------------
// Payload codecs.
// ---------------------------------------------------------------------

/// Append-only payload builder with fixed-endianness primitive encoders.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty payload builder.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// The encoded payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip,
    /// including NaN payloads and signed zeros).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over a payload with typed, bounds-checked field readers. Every
/// accessor returns a [`PayloadError`] instead of panicking when the
/// payload is shorter or differently shaped than claimed.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        WireReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Fails unless the payload was consumed exactly.
    pub fn finish(&self) -> Result<(), PayloadError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.err("trailing bytes after the last field"))
        }
    }

    fn err(&self, what: &'static str) -> PayloadError {
        PayloadError {
            offset: self.pos,
            what,
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], PayloadError> {
        if self.remaining() < n {
            return Err(self.err(what));
        }
        let chunk = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(chunk)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, PayloadError> {
        Ok(self.take(1, "missing u8 field")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, PayloadError> {
        let b = self.take(4, "missing u32 field")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, PayloadError> {
        let b = self.take(8, "missing u64 field")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, PayloadError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a bool byte; values other than 0/1 are an error.
    pub fn take_bool(&mut self) -> Result<bool, PayloadError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PayloadError {
                offset: self.pos - 1,
                what: "bool byte is neither 0 nor 1",
            }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<&'a str, PayloadError> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len, "string shorter than its length prefix")?;
        std::str::from_utf8(bytes).map_err(|_| PayloadError {
            offset: self.pos - len,
            what: "string is not valid UTF-8",
        })
    }
}

// ---------------------------------------------------------------------
// Typed codecs for workspace enums and trace records.
// ---------------------------------------------------------------------

/// The one-byte encoding of a closed enum: `value`'s index in `all`.
fn index_of<T: PartialEq>(all: &[T], value: T) -> u8 {
    all.iter().position(|v| *v == value).map_or(0, |i| i as u8)
}

/// Reads a closed enum written by [`index_of`] over the same `all`.
fn take_indexed<T: Copy>(
    r: &mut WireReader<'_>,
    all: &[T],
    what: &'static str,
) -> Result<T, PayloadError> {
    let offset = r.bytes.len() - r.remaining();
    let byte = r.take_u8()?;
    all.get(byte as usize)
        .copied()
        .ok_or(PayloadError { offset, what })
}

/// Encodes a [`Scheme`] as its index in [`Scheme::ALL`].
pub fn encode_scheme(scheme: Scheme) -> u8 {
    index_of(&Scheme::ALL, scheme)
}

/// Decodes a [`Scheme`] from its [`Scheme::ALL`] index.
pub fn decode_scheme(byte: u8, at: usize) -> Result<Scheme, PayloadError> {
    Scheme::ALL.get(byte as usize).copied().ok_or(PayloadError {
        offset: at,
        what: "scheme index out of range",
    })
}

const FRAME_KIND_RANGE: &str = "frame-kind index out of range";

// Record payload tags, one per `RecordKind` variant.
const TAG_FRAME_TX: u8 = 0;
const TAG_FRAME_RX: u8 = 1;
const TAG_RX_CORRUPTED: u8 = 2;
const TAG_BACKOFF_DRAW: u8 = 3;
const TAG_NAV_SET: u8 = 4;
const TAG_NAV_EXPIRE: u8 = 5;
const TAG_TIMEOUT: u8 = 6;
const TAG_PACKET_ACKED: u8 = 7;
const TAG_PACKET_DROPPED: u8 = 8;
const TAG_FAULT_CORRUPT: u8 = 9;
const TAG_FAULT_OUTAGE: u8 = 10;

/// Encodes one [`TraceRecord`] into `w`. Layout: `t:u64, node:u64,
/// tag:u8`, then the tag's fields in declaration order (`FrameTx`: `kind:u8,
/// peer:u64, bytes:u32, directional:bool, duration:u64 ns, seq:u64,
/// created:u64 ns`).
pub fn encode_record(record: &TraceRecord, w: &mut WireWriter) {
    w.put_u64(record.time.as_nanos());
    w.put_u64(record.node.0 as u64);
    match record.kind {
        RecordKind::FrameTx {
            kind,
            peer,
            bytes,
            directional,
            duration,
            seq,
            created,
        } => {
            w.put_u8(TAG_FRAME_TX);
            w.put_u8(index_of(&FrameKind::ALL, kind));
            w.put_u64(peer.0 as u64);
            w.put_u32(bytes);
            w.put_bool(directional);
            w.put_u64(duration.as_nanos());
            w.put_u64(seq);
            w.put_u64(created.as_nanos());
        }
        RecordKind::FrameRx { kind, peer } => {
            w.put_u8(TAG_FRAME_RX);
            w.put_u8(index_of(&FrameKind::ALL, kind));
            w.put_u64(peer.0 as u64);
        }
        RecordKind::RxCorrupted => w.put_u8(TAG_RX_CORRUPTED),
        RecordKind::BackoffDraw { cw, slots } => {
            w.put_u8(TAG_BACKOFF_DRAW);
            w.put_u32(cw);
            w.put_u32(slots);
        }
        RecordKind::NavSet { until } => {
            w.put_u8(TAG_NAV_SET);
            w.put_u64(until.as_nanos());
        }
        RecordKind::NavExpire => w.put_u8(TAG_NAV_EXPIRE),
        RecordKind::Timeout { timer } => {
            w.put_u8(TAG_TIMEOUT);
            w.put_u8(index_of(&TimerKind::ALL, timer));
        }
        RecordKind::PacketAcked => w.put_u8(TAG_PACKET_ACKED),
        RecordKind::PacketDropped => w.put_u8(TAG_PACKET_DROPPED),
        RecordKind::FaultCorrupt => w.put_u8(TAG_FAULT_CORRUPT),
        RecordKind::FaultOutage => w.put_u8(TAG_FAULT_OUTAGE),
    }
}

/// One [`TraceRecord`] as a standalone payload (no frame wrapper).
pub fn record_payload(record: &TraceRecord) -> Vec<u8> {
    let mut w = WireWriter::new();
    encode_record(record, &mut w);
    w.into_bytes()
}

/// Decodes one [`TraceRecord`] from `r`; the exact inverse of
/// [`encode_record`], total over arbitrary payload bytes.
pub fn decode_record(r: &mut WireReader<'_>) -> Result<TraceRecord, PayloadError> {
    let time = SimTime::from_nanos(r.take_u64()?);
    let node = NodeId(r.take_u64()? as usize);
    let tag_at = r.bytes.len() - r.remaining();
    let tag = r.take_u8()?;
    let kind = match tag {
        TAG_FRAME_TX => RecordKind::FrameTx {
            kind: take_indexed(r, &FrameKind::ALL, FRAME_KIND_RANGE)?,
            peer: NodeId(r.take_u64()? as usize),
            bytes: r.take_u32()?,
            directional: r.take_bool()?,
            duration: SimDuration::from_nanos(r.take_u64()?),
            seq: r.take_u64()?,
            created: SimTime::from_nanos(r.take_u64()?),
        },
        TAG_FRAME_RX => RecordKind::FrameRx {
            kind: take_indexed(r, &FrameKind::ALL, FRAME_KIND_RANGE)?,
            peer: NodeId(r.take_u64()? as usize),
        },
        TAG_RX_CORRUPTED => RecordKind::RxCorrupted,
        TAG_BACKOFF_DRAW => RecordKind::BackoffDraw {
            cw: r.take_u32()?,
            slots: r.take_u32()?,
        },
        TAG_NAV_SET => RecordKind::NavSet {
            until: SimTime::from_nanos(r.take_u64()?),
        },
        TAG_NAV_EXPIRE => RecordKind::NavExpire,
        TAG_TIMEOUT => RecordKind::Timeout {
            timer: take_indexed(r, &TimerKind::ALL, "timer-kind index out of range")?,
        },
        TAG_PACKET_ACKED => RecordKind::PacketAcked,
        TAG_PACKET_DROPPED => RecordKind::PacketDropped,
        TAG_FAULT_CORRUPT => RecordKind::FaultCorrupt,
        TAG_FAULT_OUTAGE => RecordKind::FaultOutage,
        _ => {
            return Err(PayloadError {
                offset: tag_at,
                what: "unknown record tag",
            })
        }
    };
    Ok(TraceRecord { time, node, kind })
}

/// Decodes a standalone record payload, requiring exact consumption.
pub fn decode_record_payload(payload: &[u8]) -> Result<TraceRecord, PayloadError> {
    let mut r = WireReader::new(payload);
    let record = decode_record(&mut r)?;
    r.finish()?;
    Ok(record)
}

/// Encodes a [`MetricsRegistry`] as a `METRICS` payload: three
/// count-prefixed sections (`u32` count each) in registration order —
/// counters as `(name, u64)`, gauges as `(name, f64)`, histograms as
/// `(name, lo: f64, hi: f64, bins: u32 count + u64 each, underflow: u64,
/// overflow: u64)`. Names are length-prefixed strings.
pub fn metrics_payload(metrics: &MetricsRegistry) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u32(metrics.counters.len() as u32);
    for &(name, value) in &metrics.counters {
        w.put_str(name);
        w.put_u64(value);
    }
    w.put_u32(metrics.gauges.len() as u32);
    for &(name, value) in &metrics.gauges {
        w.put_str(name);
        w.put_f64(value);
    }
    w.put_u32(metrics.histograms.len() as u32);
    for (name, h) in &metrics.histograms {
        let (lo, hi) = h.bounds();
        w.put_str(name);
        w.put_f64(lo);
        w.put_f64(hi);
        w.put_u32(h.len() as u32);
        for bin in 0..h.len() {
            w.put_u64(h.bin_count(bin));
        }
        w.put_u64(h.underflow());
        w.put_u64(h.overflow());
    }
    w.into_bytes()
}

/// A decoded `METRICS` payload: a [`MetricsRegistry`]'s contents with
/// owned names, in registration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters as `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Gauges as `(name, value)`.
    pub gauges: Vec<(String, f64)>,
    /// Histograms with their shape and counts.
    pub histograms: Vec<HistogramSnapshot>,
}

/// One decoded histogram of a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// The histogram's name.
    pub name: String,
    /// Lower bound of the first bin.
    pub lo: f64,
    /// Upper bound of the last bin.
    pub hi: f64,
    /// Per-bin counts, low to high.
    pub bins: Vec<u64>,
    /// Samples below `lo`.
    pub underflow: u64,
    /// Samples at or above `hi`.
    pub overflow: u64,
}

impl MetricsSnapshot {
    /// The value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Decodes a `METRICS` payload; the exact inverse of
/// [`metrics_payload`], total over arbitrary bytes (counts are never
/// trusted for preallocation) and requiring exact consumption.
pub fn decode_metrics_payload(payload: &[u8]) -> Result<MetricsSnapshot, PayloadError> {
    let mut r = WireReader::new(payload);
    let mut m = MetricsSnapshot::default();
    for _ in 0..r.take_u32()? {
        m.counters.push((r.take_str()?.to_string(), r.take_u64()?));
    }
    for _ in 0..r.take_u32()? {
        m.gauges.push((r.take_str()?.to_string(), r.take_f64()?));
    }
    for _ in 0..r.take_u32()? {
        let name = r.take_str()?.to_string();
        let (lo, hi) = (r.take_f64()?, r.take_f64()?);
        let mut bins = Vec::new();
        for _ in 0..r.take_u32()? {
            bins.push(r.take_u64()?);
        }
        m.histograms.push(HistogramSnapshot {
            name,
            lo,
            hi,
            bins,
            underflow: r.take_u64()?,
            overflow: r.take_u64()?,
        });
    }
    r.finish()?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trips() {
        let bytes = encode_frame(kind::RECORD, b"hello");
        let (frames, err) = decode_all(&bytes);
        assert_eq!(err, None);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].kind, kind::RECORD);
        assert_eq!(frames[0].payload, b"hello");
    }

    #[test]
    fn concatenated_frames_decode_in_order() {
        let mut bytes = Vec::new();
        encode_frame_into(kind::TRACE_HEADER, b"", &mut bytes);
        encode_frame_into(kind::CELL_MARKER, b"abc", &mut bytes);
        encode_frame_into(kind::METRICS, &[0xFF; 100], &mut bytes);
        let (frames, err) = decode_all(&bytes);
        assert_eq!(err, None);
        let kinds: Vec<u8> = frames.iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            [kind::TRACE_HEADER, kind::CELL_MARKER, kind::METRICS]
        );
    }

    #[test]
    fn truncation_yields_prefix_plus_diagnostic() {
        let mut bytes = encode_frame(kind::RECORD, b"first");
        let second = encode_frame(kind::RECORD, b"second");
        let cut = bytes.len() + second.len() / 2;
        bytes.extend_from_slice(&second);
        bytes.truncate(cut);
        let (frames, err) = decode_all(&bytes);
        assert_eq!(frames.len(), 1, "the intact prefix frame must survive");
        match err {
            Some(WireError::Truncated { offset, .. }) => {
                assert_eq!(offset as usize, HEADER_LEN + 5 + TRAILER_LEN);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = encode_frame(kind::RECORD, b"x");
        bytes[0] ^= 0xFF;
        let (frames, err) = decode_all(&bytes);
        assert!(frames.is_empty());
        assert_eq!(err, Some(WireError::BadMagic { offset: 0 }));

        let mut bytes = encode_frame(kind::RECORD, b"x");
        bytes[4] = 9;
        let (_, err) = decode_all(&bytes);
        assert_eq!(
            err,
            Some(WireError::BadVersion {
                offset: 0,
                found: 9
            })
        );
    }

    #[test]
    fn oversized_length_is_refused_before_allocation() {
        let mut bytes = encode_frame(kind::RECORD, b"x");
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        let (_, err) = decode_all(&bytes);
        assert!(matches!(err, Some(WireError::LengthOverrun { .. })));
    }

    #[test]
    fn payload_flip_is_a_crc_mismatch() {
        let mut bytes = encode_frame(kind::RECORD, b"payload");
        bytes[HEADER_LEN + 2] ^= 0x01;
        let (_, err) = decode_all(&bytes);
        assert!(matches!(err, Some(WireError::CrcMismatch { .. })));
    }

    #[test]
    fn reader_rejects_short_and_trailing_payloads() {
        let mut w = WireWriter::new();
        w.put_u32(7);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(r.take_u64().is_err(), "4 bytes cannot yield a u64");
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.take_u32().expect("u32 present"), 7);
        assert!(r.finish().is_ok());
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.take_u8().expect("byte present"), 7);
        assert!(r.finish().is_err(), "unconsumed bytes must be an error");
    }

    #[test]
    fn strings_round_trip_and_reject_bad_utf8() {
        let mut w = WireWriter::new();
        w.put_str("θ=90° résumé");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.take_str().expect("string decodes"), "θ=90° résumé");
        assert!(r.finish().is_ok());

        let mut w = WireWriter::new();
        w.put_u32(2);
        w.put_u8(0xFF);
        w.put_u8(0xFE);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(r.take_str().is_err(), "invalid UTF-8 must be refused");
    }

    #[test]
    fn scheme_codec_covers_all_and_rejects_out_of_range() {
        for scheme in Scheme::ALL {
            let byte = encode_scheme(scheme);
            assert_eq!(decode_scheme(byte, 0).expect("valid index"), scheme);
        }
        assert!(decode_scheme(3, 0).is_err());
    }
}
