//! Scenario specifications: what a client asks the service to run.
//!
//! A [`ScenarioSpec`] is the wire twin of the batch harness's
//! `GridScale` + runner knobs. Validation happens *before* any work is
//! scheduled — [`ScenarioSpec::validate`] checks every field against the
//! ranges the simulator is built for, and the server turns a violation
//! into a typed `REJECT` frame instead of crashing or running garbage.

use dirca_experiments::report::{is_frame_error_rate, GridScale};
use dirca_experiments::runner::Cell;
use dirca_mac::Scheme;
use dirca_net::Beamwidth;
use dirca_sim::SimDuration;
use dirca_trace::wire::{decode_scheme, encode_scheme, PayloadError, WireReader, WireWriter};

/// One scenario: the full parameterization of a simulation grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Master seed; also seeds the client's retry-jitter stream.
    pub seed: u64,
    /// Topologies per cell.
    pub topologies: usize,
    /// Measurement window per topology, in milliseconds.
    pub measure_ms: u64,
    /// Warm-up window per topology, in milliseconds.
    pub warmup_ms: u64,
    /// Densities (average neighbourhood sizes) to sweep.
    pub densities: Vec<usize>,
    /// Beamwidths in degrees to sweep.
    pub beamwidths: Vec<f64>,
    /// I.i.d. injected frame error rate; `0.0` keeps the fault layer
    /// trivial and the run byte-identical to a plan-free grid.
    pub fer: f64,
    /// Extra attempts for a failed cell beyond the first.
    pub retries: u32,
    /// Watchdog event budget per topology; `0` disables the watchdog.
    pub events_budget: u64,
    /// Drill switch: this cell deliberately panics (used by fault drills
    /// to exercise the failed-cell path end to end).
    pub inject_panic: Option<Cell>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            seed: 0xD1CA,
            topologies: 4,
            measure_ms: 1_000,
            warmup_ms: 100,
            densities: vec![3, 5, 8],
            beamwidths: vec![30.0, 90.0, 150.0],
            fer: 0.0,
            retries: 1,
            events_budget: 0,
            inject_panic: None,
        }
    }
}

/// Validation limits: the ranges the service will schedule. They bound
/// resource use (a spec is untrusted input), not simulator correctness.
pub mod limits {
    /// Maximum topologies per cell.
    pub const MAX_TOPOLOGIES: usize = 10_000;
    /// Maximum measurement window (ms) per topology.
    pub const MAX_MEASURE_MS: u64 = 600_000;
    /// Maximum warm-up window (ms).
    pub const MAX_WARMUP_MS: u64 = 60_000;
    /// Maximum entries in the density sweep.
    pub const MAX_DENSITIES: usize = 16;
    /// Maximum average neighbourhood size.
    pub const MAX_DENSITY: usize = 64;
    /// Maximum entries in the beamwidth sweep.
    pub const MAX_BEAMWIDTHS: usize = 16;
    /// Maximum cell retries.
    pub const MAX_RETRIES: u32 = 16;
}

/// Why a spec was refused. Every variant names the offending field so the
/// client-side message is actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The field that failed validation.
    pub field: &'static str,
    /// What the field must satisfy.
    pub expected: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid spec: {} must be {}", self.field, self.expected)
    }
}

impl std::error::Error for SpecError {}

fn invalid(field: &'static str, expected: impl Into<String>) -> SpecError {
    SpecError {
        field,
        expected: expected.into(),
    }
}

impl ScenarioSpec {
    /// Checks every field against [`limits`]. `Ok(())` means the server
    /// can schedule this spec without resource surprises.
    pub fn validate(&self) -> Result<(), SpecError> {
        use limits::*;
        if !(1..=MAX_TOPOLOGIES).contains(&self.topologies) {
            return Err(invalid("topologies", format!("in 1..={MAX_TOPOLOGIES}")));
        }
        if !(1..=MAX_MEASURE_MS).contains(&self.measure_ms) {
            return Err(invalid("measure_ms", format!("in 1..={MAX_MEASURE_MS}")));
        }
        if self.warmup_ms > MAX_WARMUP_MS {
            return Err(invalid("warmup_ms", format!("at most {MAX_WARMUP_MS}")));
        }
        if self.densities.is_empty() || self.densities.len() > MAX_DENSITIES {
            return Err(invalid(
                "densities",
                format!("a non-empty list of at most {MAX_DENSITIES} entries"),
            ));
        }
        if let Some(n) = self
            .densities
            .iter()
            .find(|&&n| !(1..=MAX_DENSITY).contains(&n))
        {
            return Err(invalid(
                "densities",
                format!("each in 1..={MAX_DENSITY}, got {n}"),
            ));
        }
        if self.beamwidths.is_empty() || self.beamwidths.len() > MAX_BEAMWIDTHS {
            return Err(invalid(
                "beamwidths",
                format!("a non-empty list of at most {MAX_BEAMWIDTHS} entries"),
            ));
        }
        if let Some(t) = self
            .beamwidths
            .iter()
            .find(|&&t| Beamwidth::from_degrees(t).is_err())
        {
            return Err(invalid(
                "beamwidths",
                format!("each a beamwidth in (0, 360] degrees, got {t}"),
            ));
        }
        if !is_frame_error_rate(self.fer) {
            return Err(invalid(
                "fer",
                format!("a finite rate in [0, 1), got {}", self.fer),
            ));
        }
        if self.retries > MAX_RETRIES {
            return Err(invalid("retries", format!("at most {MAX_RETRIES}")));
        }
        Ok(())
    }

    /// The grid scale this spec describes. `threads` is a server-side
    /// policy knob, deliberately not part of the spec: per-cell results
    /// are thread-count independent, so it cannot change the report.
    pub fn scale(&self, threads: usize) -> GridScale {
        GridScale {
            topologies: self.topologies,
            measure: SimDuration::from_millis(self.measure_ms),
            warmup: SimDuration::from_millis(self.warmup_ms),
            threads,
            seed: self.seed,
            densities: self.densities.clone(),
            beamwidths: self.beamwidths.clone(),
            fer: self.fer,
        }
    }

    /// Encodes the spec as a `SUBMIT` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(self.seed);
        w.put_u64(self.topologies as u64);
        w.put_u64(self.measure_ms);
        w.put_u64(self.warmup_ms);
        w.put_f64(self.fer);
        w.put_u32(self.retries);
        w.put_u64(self.events_budget);
        w.put_u32(self.densities.len() as u32);
        for &n in &self.densities {
            w.put_u64(n as u64);
        }
        w.put_u32(self.beamwidths.len() as u32);
        for &t in &self.beamwidths {
            w.put_f64(t);
        }
        match &self.inject_panic {
            None => w.put_bool(false),
            Some(cell) => {
                w.put_bool(true);
                w.put_u64(cell.n as u64);
                w.put_f64(cell.theta);
                w.put_u8(encode_scheme(cell.scheme));
            }
        }
        w.into_bytes()
    }

    /// Decodes a `SUBMIT` payload. A typed [`PayloadError`] — never a
    /// panic — on any malformed byte; list lengths are bounds-checked
    /// against [`limits`] *before* allocation so a hostile length prefix
    /// cannot balloon memory.
    pub fn decode(payload: &[u8]) -> Result<ScenarioSpec, PayloadError> {
        let mut r = WireReader::new(payload);
        let seed = r.take_u64()?;
        let topologies = r.take_u64()? as usize;
        let measure_ms = r.take_u64()?;
        let warmup_ms = r.take_u64()?;
        let fer = r.take_f64()?;
        let retries = r.take_u32()?;
        let events_budget = r.take_u64()?;
        let n_densities = r.take_u32()? as usize;
        if n_densities > limits::MAX_DENSITIES {
            return Err(PayloadError {
                offset: 52,
                what: "density list longer than the service limit",
            });
        }
        let mut densities = Vec::with_capacity(n_densities);
        for _ in 0..n_densities {
            densities.push(r.take_u64()? as usize);
        }
        let n_beamwidths = r.take_u32()? as usize;
        if n_beamwidths > limits::MAX_BEAMWIDTHS {
            return Err(PayloadError {
                offset: 56 + 8 * n_densities,
                what: "beamwidth list longer than the service limit",
            });
        }
        let mut beamwidths = Vec::with_capacity(n_beamwidths);
        for _ in 0..n_beamwidths {
            beamwidths.push(r.take_f64()?);
        }
        let inject_panic = if r.take_bool()? {
            let n = r.take_u64()? as usize;
            let theta = r.take_f64()?;
            let scheme: Scheme = decode_scheme(r.take_u8()?, 0)?;
            Some(Cell { n, theta, scheme })
        } else {
            None
        };
        r.finish()?;
        Ok(ScenarioSpec {
            seed,
            topologies,
            measure_ms,
            warmup_ms,
            densities,
            beamwidths,
            fer,
            retries,
            events_budget,
            inject_panic,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            seed: 42,
            topologies: 2,
            measure_ms: 150,
            warmup_ms: 25,
            densities: vec![3, 5],
            beamwidths: vec![30.0, 90.0],
            fer: 0.125,
            retries: 2,
            events_budget: 1_000_000,
            inject_panic: Some(Cell {
                n: 3,
                theta: 90.0,
                scheme: Scheme::DrtsDcts,
            }),
        }
    }

    #[test]
    fn specs_round_trip_bit_exactly() {
        let s = spec();
        assert_eq!(ScenarioSpec::decode(&s.encode()).unwrap(), s);
        let plain = ScenarioSpec::default();
        assert_eq!(ScenarioSpec::decode(&plain.encode()).unwrap(), plain);
    }

    #[test]
    fn garbage_payloads_are_typed_errors_never_panics() {
        assert!(ScenarioSpec::decode(&[]).is_err());
        for len in 0..spec().encode().len() {
            assert!(
                ScenarioSpec::decode(&spec().encode()[..len]).is_err(),
                "every truncation must be refused (len {len})"
            );
        }
        assert!(ScenarioSpec::decode(&[0xFF; 64]).is_err());
    }

    #[test]
    fn hostile_length_prefixes_are_bounded_before_allocation() {
        // A payload claiming u32::MAX densities must be refused by the
        // limit check, not by an allocation attempt.
        let mut w = WireWriter::new();
        w.put_u64(1); // seed
        w.put_u64(1); // topologies
        w.put_u64(1); // measure_ms
        w.put_u64(1); // warmup_ms
        w.put_f64(0.0); // fer
        w.put_u32(1); // retries
        w.put_u64(0); // events_budget
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = ScenarioSpec::decode(&bytes).unwrap_err();
        assert_eq!(err.offset, 52);
        assert!(err.what.contains("limit"), "{err:?}");
    }

    #[test]
    fn validation_rejects_each_bad_field() {
        let ok = ScenarioSpec::default();
        assert_eq!(ok.validate(), Ok(()));
        let cases: Vec<(&str, ScenarioSpec)> = vec![
            (
                "topologies",
                ScenarioSpec {
                    topologies: 0,
                    ..ok.clone()
                },
            ),
            (
                "topologies",
                ScenarioSpec {
                    topologies: 1_000_000,
                    ..ok.clone()
                },
            ),
            (
                "measure_ms",
                ScenarioSpec {
                    measure_ms: 0,
                    ..ok.clone()
                },
            ),
            (
                "warmup_ms",
                ScenarioSpec {
                    warmup_ms: u64::MAX,
                    ..ok.clone()
                },
            ),
            (
                "densities",
                ScenarioSpec {
                    densities: vec![],
                    ..ok.clone()
                },
            ),
            (
                "densities",
                ScenarioSpec {
                    densities: vec![0],
                    ..ok.clone()
                },
            ),
            (
                "densities",
                ScenarioSpec {
                    densities: vec![1000],
                    ..ok.clone()
                },
            ),
            (
                "beamwidths",
                ScenarioSpec {
                    beamwidths: vec![],
                    ..ok.clone()
                },
            ),
            (
                "beamwidths",
                ScenarioSpec {
                    beamwidths: vec![400.0],
                    ..ok.clone()
                },
            ),
            (
                "beamwidths",
                ScenarioSpec {
                    beamwidths: vec![f64::NAN],
                    ..ok.clone()
                },
            ),
            (
                "beamwidths",
                ScenarioSpec {
                    beamwidths: vec![-30.0],
                    ..ok.clone()
                },
            ),
            (
                "fer",
                ScenarioSpec {
                    fer: 1.0,
                    ..ok.clone()
                },
            ),
            (
                "fer",
                ScenarioSpec {
                    fer: -0.5,
                    ..ok.clone()
                },
            ),
            (
                "fer",
                ScenarioSpec {
                    fer: f64::NAN,
                    ..ok.clone()
                },
            ),
            (
                "retries",
                ScenarioSpec {
                    retries: 1000,
                    ..ok.clone()
                },
            ),
        ];
        for (field, bad) in cases {
            let err = bad.validate().expect_err("must reject");
            assert_eq!(err.field, field, "{err}");
        }
    }
}
