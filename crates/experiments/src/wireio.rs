//! The runner's checkpoint encoding.
//!
//! A checkpoint is a CRC-framed binary document built on
//! [`dirca_trace::wire`]: one `CKPT_HEADER` frame carrying the grid
//! fingerprint, then one `CKPT_CELL` frame per finished cell. Per-frame
//! CRCs are what let resume tell "torn tail from a crash mid-write" from
//! "actually corrupt data" — the property the crash-tolerant resume path
//! and `dirca-serve` are built on. `trace_view <checkpoint>` is the
//! readable view: it prints the fingerprint and one line per record.

use dirca_net::RunAborted;
use dirca_sim::{AbortReason, SimTime};
use dirca_trace::wire::{
    self, decode_scheme, encode_scheme, kind, PayloadError, WireReader, WireWriter,
};

use crate::ringsim::{CellFailure, TopologySample};
use crate::runner::Cell;

/// Cell statuses in a `CKPT_CELL` payload.
const STATUS_OK: u8 = 0;
const STATUS_PANICKED: u8 = 1;
const STATUS_TIMED_OUT: u8 = 2;

const REASON_MAX_EVENTS: u8 = 0;
const REASON_MAX_SIM_TIME: u8 = 1;

/// The binary checkpoint header: one `CKPT_HEADER` frame carrying the
/// grid fingerprint, as raw frame bytes ready to write.
pub fn ckpt_header_frame(fingerprint: &str) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_str(fingerprint);
    wire::encode_frame(kind::CKPT_HEADER, &w.into_bytes())
}

/// Decodes a `CKPT_HEADER` payload back into the grid fingerprint.
pub fn decode_ckpt_header(payload: &[u8]) -> Result<String, PayloadError> {
    let mut r = WireReader::new(payload);
    let fingerprint = r.take_str()?.to_string();
    r.finish()?;
    Ok(fingerprint)
}

fn put_opt_f64(w: &mut WireWriter, v: Option<f64>) {
    match v {
        Some(v) => {
            w.put_bool(true);
            w.put_f64(v);
        }
        None => w.put_bool(false),
    }
}

fn take_opt_f64(r: &mut WireReader<'_>) -> Result<Option<f64>, PayloadError> {
    if r.take_bool()? {
        Ok(Some(r.take_f64()?))
    } else {
        Ok(None)
    }
}

/// One cell outcome as a `CKPT_CELL` frame (raw bytes ready to append).
/// Failures are recorded with their full diagnosis but never restored on
/// resume: the runner re-runs them.
pub fn ckpt_cell_frame(cell: &Cell, result: &Result<Vec<TopologySample>, CellFailure>) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(cell.n as u64);
    w.put_f64(cell.theta);
    w.put_u8(encode_scheme(cell.scheme));
    match result {
        Ok(samples) => {
            w.put_u8(STATUS_OK);
            w.put_u32(samples.len() as u32);
            for s in samples {
                w.put_f64(s.throughput);
                put_opt_f64(&mut w, s.delay_ms);
                put_opt_f64(&mut w, s.collision_ratio);
                put_opt_f64(&mut w, s.jain);
            }
        }
        Err(CellFailure::Panicked { topology, message }) => {
            w.put_u8(STATUS_PANICKED);
            w.put_u64(*topology as u64);
            w.put_str(message);
        }
        Err(CellFailure::TimedOut { topology, aborted }) => {
            w.put_u8(STATUS_TIMED_OUT);
            w.put_u64(*topology as u64);
            w.put_u8(match aborted.reason {
                AbortReason::MaxEvents => REASON_MAX_EVENTS,
                AbortReason::MaxSimTime => REASON_MAX_SIM_TIME,
            });
            w.put_u64(aborted.events);
            w.put_u64(aborted.now.as_nanos());
        }
    }
    wire::encode_frame(kind::CKPT_CELL, &w.into_bytes())
}

/// A decoded `CKPT_CELL` record: the cell and its recorded outcome.
pub type CkptCell = (Cell, Result<Vec<TopologySample>, CellFailure>);

/// Decodes a `CKPT_CELL` payload into its cell and outcome — the exact
/// inverse of [`ckpt_cell_frame`]. Floats round-trip bit-exactly through
/// their IEEE-754 patterns, and failures keep their panic message or
/// abort report.
pub fn decode_ckpt_cell(payload: &[u8]) -> Result<CkptCell, PayloadError> {
    let mut r = WireReader::new(payload);
    let n = r.take_u64()? as usize;
    let theta = r.take_f64()?;
    let scheme = decode_scheme(r.take_u8()?, 16)?;
    let cell = Cell { n, theta, scheme };
    let result = match r.take_u8()? {
        STATUS_OK => {
            let count = r.take_u32()? as usize;
            let mut samples = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                samples.push(TopologySample {
                    throughput: r.take_f64()?,
                    delay_ms: take_opt_f64(&mut r)?,
                    collision_ratio: take_opt_f64(&mut r)?,
                    jain: take_opt_f64(&mut r)?,
                });
            }
            Ok(samples)
        }
        STATUS_PANICKED => Err(CellFailure::Panicked {
            topology: r.take_u64()? as usize,
            message: r.take_str()?.to_string(),
        }),
        STATUS_TIMED_OUT => {
            let topology = r.take_u64()? as usize;
            let reason = match r.take_u8()? {
                REASON_MAX_EVENTS => AbortReason::MaxEvents,
                REASON_MAX_SIM_TIME => AbortReason::MaxSimTime,
                _ => {
                    return Err(PayloadError {
                        offset: 0,
                        what: "unknown abort reason byte",
                    })
                }
            };
            Err(CellFailure::TimedOut {
                topology,
                aborted: RunAborted {
                    reason,
                    events: r.take_u64()?,
                    now: SimTime::from_nanos(r.take_u64()?),
                },
            })
        }
        _ => {
            return Err(PayloadError {
                offset: 17,
                what: "unknown checkpoint cell status",
            })
        }
    };
    r.finish()?;
    Ok((cell, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirca_mac::Scheme;

    fn cell() -> Cell {
        Cell {
            n: 5,
            theta: 150.0,
            scheme: Scheme::DrtsDcts,
        }
    }

    #[test]
    fn ok_cells_round_trip_bit_exactly() {
        let samples = vec![
            TopologySample {
                throughput: 0.123456789,
                delay_ms: Some(1.5),
                collision_ratio: None,
                jain: Some(0.875),
            },
            TopologySample {
                throughput: f64::MIN_POSITIVE,
                delay_ms: None,
                collision_ratio: Some(0.1),
                jain: None,
            },
        ];
        let frame = ckpt_cell_frame(&cell(), &Ok(samples.clone()));
        let (frames, err) = wire::decode_all(&frame);
        assert_eq!(err, None);
        assert_eq!(frames[0].kind, kind::CKPT_CELL);
        let (back_cell, back) = decode_ckpt_cell(&frames[0].payload).unwrap();
        assert_eq!(back_cell, cell());
        assert_eq!(back, Ok(samples));
    }

    #[test]
    fn failure_cells_round_trip_with_their_diagnosis() {
        for failure in [
            CellFailure::Panicked {
                topology: 3,
                message: "weird \"quoted\"\npayload".into(),
            },
            CellFailure::TimedOut {
                topology: 0,
                aborted: RunAborted {
                    reason: AbortReason::MaxEvents,
                    events: 7,
                    now: SimTime::from_micros(9),
                },
            },
            CellFailure::TimedOut {
                topology: 4,
                aborted: RunAborted {
                    reason: AbortReason::MaxSimTime,
                    events: 1 << 40,
                    now: SimTime::from_nanos(u64::MAX),
                },
            },
        ] {
            let frame = ckpt_cell_frame(&cell(), &Err(failure.clone()));
            let (frames, _) = wire::decode_all(&frame);
            let (back_cell, back) = decode_ckpt_cell(&frames[0].payload).unwrap();
            assert_eq!(back_cell, cell());
            assert_eq!(back, Err(failure));
        }
    }

    #[test]
    fn header_round_trips() {
        let frame = ckpt_header_frame("0123456789abcdef");
        let (frames, err) = wire::decode_all(&frame);
        assert_eq!(err, None);
        assert_eq!(frames[0].kind, kind::CKPT_HEADER);
        assert_eq!(
            decode_ckpt_header(&frames[0].payload).unwrap(),
            "0123456789abcdef"
        );
    }

    #[test]
    fn garbage_payloads_are_typed_errors() {
        assert!(decode_ckpt_cell(&[]).is_err());
        assert!(decode_ckpt_cell(&[0xFF; 18]).is_err());
        assert!(decode_ckpt_header(&[1, 2, 3]).is_err());
    }
}
