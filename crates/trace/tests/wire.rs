//! Exhaustive robustness battery for the binary wire format.
//!
//! The wire module's contract is *total decoding*: any byte stream —
//! well-formed, bit-flipped, truncated, or random garbage — decodes to
//! every valid prefix frame plus at most one typed diagnostic, without
//! panicking. The batteries below prove that contract systematically
//! rather than by spot checks:
//!
//! * proptest round-trips over every record kind (codec exactness),
//! * a single-bit-flip sweep over a whole multi-frame stream (every flip
//!   is caught, and frames before the flipped one still decode),
//! * a truncate-at-every-byte sweep (every prefix decodes its intact
//!   frames; mid-frame cuts yield `Truncated`),
//! * random-garbage payload decoding (typed error, never a panic),
//! * a byte-exact fixture pinning the one on-disk trace format.

use dirca_mac::{FrameKind, TimerKind};
use dirca_radio::NodeId;
use dirca_sim::{SimDuration, SimTime};
use dirca_trace::wire::{
    self, decode_all, decode_metrics_payload, decode_record_payload, encode_frame,
    encode_frame_into, kind, metrics_payload, record_payload, WireError, HEADER_LEN,
};
use dirca_trace::{MetricsRegistry, RecordKind, TraceRecord};
use proptest::prelude::*;

/// One representative of every `RecordKind` variant (all timers included).
fn all_kinds() -> Vec<RecordKind> {
    let mut kinds = vec![
        RecordKind::FrameTx {
            kind: FrameKind::Data,
            peer: NodeId(3),
            bytes: 1460,
            directional: true,
            duration: SimDuration::from_micros(314),
            seq: 42,
            created: SimTime::from_micros(1000),
        },
        RecordKind::FrameRx {
            kind: FrameKind::Ack,
            peer: NodeId(0),
        },
        RecordKind::RxCorrupted,
        RecordKind::BackoffDraw { cw: 31, slots: 7 },
        RecordKind::NavSet {
            until: SimTime::from_micros(812),
        },
        RecordKind::NavExpire,
        RecordKind::PacketAcked,
        RecordKind::PacketDropped,
        RecordKind::FaultCorrupt,
        RecordKind::FaultOutage,
    ];
    for timer in TimerKind::ALL {
        kinds.push(RecordKind::Timeout { timer });
    }
    kinds
}

fn frame_kind_strategy() -> BoxedStrategy<FrameKind> {
    (0usize..FrameKind::ALL.len())
        .prop_map(|i| FrameKind::ALL[i])
        .boxed()
}

fn timer_kind_strategy() -> BoxedStrategy<TimerKind> {
    (0usize..TimerKind::ALL.len())
        .prop_map(|i| TimerKind::ALL[i])
        .boxed()
}

fn record_kind_strategy() -> BoxedStrategy<RecordKind> {
    prop_oneof![
        (
            (
                frame_kind_strategy(),
                0u64..1 << 32,
                0u32..1 << 16,
                prop::bool::ANY,
            ),
            (0u64..u64::MAX / 2, 0u64..u64::MAX, 0u64..u64::MAX / 2),
        )
            .prop_map(
                |((kind, peer, bytes, directional), (duration, seq, created))| {
                    RecordKind::FrameTx {
                        kind,
                        peer: NodeId(peer as usize),
                        bytes,
                        directional,
                        duration: SimDuration::from_nanos(duration),
                        seq,
                        created: SimTime::from_nanos(created),
                    }
                }
            ),
        (frame_kind_strategy(), 0u64..1 << 32).prop_map(|(kind, peer)| {
            RecordKind::FrameRx {
                kind,
                peer: NodeId(peer as usize),
            }
        }),
        Just(RecordKind::RxCorrupted),
        (0u32..2048, 0u32..2048).prop_map(|(cw, slots)| RecordKind::BackoffDraw { cw, slots }),
        (0u64..u64::MAX / 2).prop_map(|ns| RecordKind::NavSet {
            until: SimTime::from_nanos(ns),
        }),
        Just(RecordKind::NavExpire),
        timer_kind_strategy().prop_map(|timer| RecordKind::Timeout { timer }),
        Just(RecordKind::PacketAcked),
        Just(RecordKind::PacketDropped),
        Just(RecordKind::FaultCorrupt),
        Just(RecordKind::FaultOutage),
    ]
    .boxed()
}

fn record_strategy() -> BoxedStrategy<TraceRecord> {
    (0u64..u64::MAX / 2, 0u64..1 << 32, record_kind_strategy())
        .prop_map(|(t, node, kind)| TraceRecord {
            time: SimTime::from_nanos(t),
            node: NodeId(node as usize),
            kind,
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_records_round_trip(record in record_strategy()) {
        let payload = record_payload(&record);
        let back = decode_record_payload(&payload).expect("round trip");
        prop_assert_eq!(back, record);
    }

    #[test]
    fn framed_record_streams_round_trip(
        records in prop::collection::vec(record_strategy(), 0..40),
    ) {
        let mut bytes = Vec::new();
        for record in &records {
            encode_frame_into(kind::RECORD, &record_payload(record), &mut bytes);
        }
        let (frames, err) = decode_all(&bytes);
        prop_assert_eq!(err, None);
        prop_assert_eq!(frames.len(), records.len());
        for (frame, record) in frames.iter().zip(&records) {
            prop_assert_eq!(frame.kind, kind::RECORD);
            let back = decode_record_payload(&frame.payload).expect("payload decodes");
            prop_assert_eq!(back, *record);
        }
    }

    #[test]
    fn garbage_payloads_never_panic(payload in prop::collection::vec(0u8..=255, 0..64)) {
        // Any outcome is fine as long as it is a value, not a panic.
        let _ = decode_record_payload(&payload);
        let _ = decode_metrics_payload(&payload);
    }

    #[test]
    fn garbage_streams_never_panic(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        let (frames, _err) = decode_all(&bytes);
        // Garbage can never fabricate a frame out of thin air unless it
        // happens to be a real frame; just force full evaluation.
        let _ = frames.len();
    }
}

/// Every record kind survives the binary round trip (deterministic twin of
/// the proptest sweep over a fixed corpus).
#[test]
fn every_kind_round_trips() {
    for (i, record_kind) in all_kinds().into_iter().enumerate() {
        let record = TraceRecord {
            time: SimTime::from_micros(i as u64),
            node: NodeId(i),
            kind: record_kind,
        };
        let payload = record_payload(&record);
        let back = decode_record_payload(&payload).expect("round trip");
        assert_eq!(back, record, "mismatch for kind {i}");
    }
}

/// A stream of frames covering every record kind, with assorted payload
/// sizes, used by both corruption batteries below.
fn fixture_stream() -> (Vec<u8>, Vec<(u64, u64)>) {
    let mut bytes = Vec::new();
    let mut spans = Vec::new();
    let mut push = |frame_kind: u8, payload: &[u8], bytes: &mut Vec<u8>| {
        let start = bytes.len() as u64;
        encode_frame_into(frame_kind, payload, bytes);
        spans.push((start, bytes.len() as u64));
    };
    push(kind::TRACE_HEADER, b"", &mut bytes);
    for (i, record_kind) in all_kinds().into_iter().enumerate() {
        let record = TraceRecord {
            time: SimTime::from_micros(i as u64),
            node: NodeId(i),
            kind: record_kind,
        };
        push(kind::RECORD, &record_payload(&record), &mut bytes);
    }
    push(kind::METRICS, &[0xA5; 37], &mut bytes);
    (bytes, spans)
}

/// Flipping any single bit anywhere in the stream is caught: the decoder
/// reports a typed error at (or before) the corrupted frame and every
/// frame *before* it still decodes byte-identically.
#[test]
fn single_bit_flip_battery() {
    let (clean, spans) = fixture_stream();
    let (clean_frames, clean_err) = decode_all(&clean);
    assert_eq!(clean_err, None);
    assert_eq!(clean_frames.len(), spans.len());

    for byte_idx in 0..clean.len() {
        let frame_idx = spans
            .iter()
            .position(|&(start, end)| (byte_idx as u64) >= start && (byte_idx as u64) < end)
            .expect("every byte belongs to a frame");
        for bit in 0..8 {
            let mut corrupt = clean.clone();
            corrupt[byte_idx] ^= 1 << bit;
            let (frames, err) = decode_all(&corrupt);
            assert!(
                err.is_some(),
                "flip of bit {bit} in byte {byte_idx} went undetected"
            );
            // The corruption must not eat earlier frames, and the
            // corrupted frame itself must not decode as if intact.
            assert!(
                frames.len() <= frame_idx,
                "flip of bit {bit} in byte {byte_idx} (frame {frame_idx}) \
                 left {} frames decoded",
                frames.len()
            );
            assert_eq!(
                frames,
                clean_frames[..frames.len()],
                "prefix frames changed under a flip in frame {frame_idx}"
            );
        }
    }
}

/// Truncating the stream at every possible byte boundary never panics:
/// fully-contained frames decode, a mid-frame cut is a typed `Truncated`,
/// and a cut exactly on a frame boundary is a clean (shorter) document.
#[test]
fn truncate_at_every_byte_battery() {
    let (clean, spans) = fixture_stream();
    let (clean_frames, _) = decode_all(&clean);

    for cut in 0..=clean.len() {
        let prefix = &clean[..cut];
        let (frames, err) = decode_all(prefix);
        let intact = spans
            .iter()
            .take_while(|&&(_, end)| end <= cut as u64)
            .count();
        assert_eq!(
            frames.len(),
            intact,
            "cut at byte {cut}: expected {intact} intact frames"
        );
        assert_eq!(frames, clean_frames[..intact]);
        let on_boundary = cut == 0 || spans.iter().any(|&(_, end)| end == cut as u64);
        if on_boundary {
            assert_eq!(err, None, "cut at frame boundary {cut} is a clean doc");
        } else {
            match err {
                Some(WireError::Truncated { offset, .. }) => {
                    let frame_start = spans
                        .get(intact)
                        .map(|&(start, _)| start)
                        .expect("a partial frame exists past the cut");
                    assert_eq!(offset, frame_start);
                }
                other => panic!("cut at byte {cut}: expected Truncated, got {other:?}"),
            }
        }
    }
}

/// The error taxonomy is reachable and carries the right offsets.
#[test]
fn error_taxonomy_offsets() {
    let first = encode_frame(kind::RECORD, b"abc");
    let first_len = first.len() as u64;

    // BadMagic in the second frame.
    let mut bytes = first.clone();
    let mut second = encode_frame(kind::RECORD, b"def");
    second[0] = b'X';
    bytes.extend_from_slice(&second);
    let (frames, err) = decode_all(&bytes);
    assert_eq!(frames.len(), 1);
    assert_eq!(err, Some(WireError::BadMagic { offset: first_len }));
    assert_eq!(err.unwrap().offset(), first_len);

    // CrcMismatch with stored/computed both reported.
    let mut bytes = encode_frame(kind::RECORD, b"abc");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    match decode_all(&bytes).1 {
        Some(WireError::CrcMismatch {
            offset,
            stored,
            computed,
        }) => {
            assert_eq!(offset, 0);
            assert_ne!(stored, computed);
        }
        other => panic!("expected CrcMismatch, got {other:?}"),
    }

    // Truncated header reports needed vs available.
    let bytes = &encode_frame(kind::RECORD, b"abc")[..HEADER_LEN - 3];
    match decode_all(bytes).1 {
        Some(WireError::Truncated {
            offset,
            needed,
            available,
        }) => {
            assert_eq!(offset, 0);
            assert_eq!(needed, HEADER_LEN as u64);
            assert_eq!(available, (HEADER_LEN - 3) as u64);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The one on-disk trace format, pinned byte for byte: the `RECORD`
/// payload of every record kind, and one framed `METRICS` payload with a
/// counter, a gauge and a histogram. Any diff here is a format change that
/// makes every trace written before it unreadable.
#[test]
fn on_disk_format_is_pinned_byte_for_byte() {
    let rec = |us: u64, node: usize, kind: RecordKind| TraceRecord {
        time: SimTime::from_micros(us),
        node: NodeId(node),
        kind,
    };
    // Layout: t ns (u64) | node (u64) | tag (u8) | the tag's fields.
    let rows = [
        (
            rec(0, 0, all_kinds()[0]),
            "0000000000000000 0000000000000000 00 02 0300000000000000 b4050000 01 \
             90ca040000000000 2a00000000000000 40420f0000000000",
        ),
        (
            rec(1, 1, all_kinds()[1]),
            "e803000000000000 0100000000000000 01 03 0000000000000000",
        ),
        (
            rec(2, 2, RecordKind::RxCorrupted),
            "d007000000000000 0200000000000000 02",
        ),
        (
            rec(3, 3, RecordKind::BackoffDraw { cw: 31, slots: 7 }),
            "b80b000000000000 0300000000000000 03 1f000000 07000000",
        ),
        (
            rec(4, 4, all_kinds()[4]),
            "a00f000000000000 0400000000000000 04 e0630c0000000000",
        ),
        (
            rec(5, 5, RecordKind::NavExpire),
            "8813000000000000 0500000000000000 05",
        ),
        (
            rec(
                6,
                6,
                RecordKind::Timeout {
                    timer: TimerKind::AckTimeout,
                },
            ),
            "7017000000000000 0600000000000000 06 04",
        ),
        (
            rec(7, 7, RecordKind::PacketAcked),
            "581b000000000000 0700000000000000 07",
        ),
        (
            rec(8, 8, RecordKind::PacketDropped),
            "401f000000000000 0800000000000000 08",
        ),
        (
            rec(9, 9, RecordKind::FaultCorrupt),
            "2823000000000000 0900000000000000 09",
        ),
        (
            rec(10, 10, RecordKind::FaultOutage),
            "1027000000000000 0a00000000000000 0a",
        ),
    ];
    for (record, want) in rows {
        assert_eq!(
            hex(&record_payload(&record)),
            want.replace(' ', ""),
            "{record:?}"
        );
    }

    let mut metrics = MetricsRegistry::new();
    metrics.add_counter("acked", 3);
    metrics.set_gauge("airtime_s", 0.5);
    metrics.record_histogram("delay_s", 0.0, 1.0, 2, 0.25);
    metrics.record_histogram("delay_s", 0.0, 1.0, 2, 1.5);
    let framed = encode_frame(kind::METRICS, &metrics_payload(&metrics));
    let want = [
        "44435746 01 04 71000000", // magic, version, kind, len
        "01000000 05000000 61636b6564 0300000000000000", // counters: acked = 3
        "01000000 09000000 61697274696d655f73 000000000000e03f", // gauges: airtime_s = 0.5
        "01000000 07000000 64656c61795f73", // histograms: delay_s
        "0000000000000000 000000000000f03f", //   lo 0.0, hi 1.0
        "02000000 0100000000000000 0000000000000000", //   bins [1, 0]
        "0000000000000000 0100000000000000", //   underflow 0, overflow 1
        "ce92c34f",                // CRC-32
    ]
    .concat()
    .replace(' ', "");
    assert_eq!(hex(&framed), want);
}

/// `wire::crc32` agrees with the IEEE reference on a longer vector, so
/// the const-fn table is not just internally consistent.
#[test]
fn crc_reference_vectors() {
    assert_eq!(
        wire::crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
}
