//! Oracle/property battery for the SINR capture PHY.
//!
//! Three pillars, each checked against an independently-computable oracle
//! rather than against the implementation's own intermediate values:
//!
//! 1. **Support equivalence** — the ideal [`AntennaPattern`]'s positive-
//!    gain support equals the binary sector footprint
//!    ([`TxPattern::covers`]) point for point, across random geometry and
//!    beamwidths including θ = 360° ≡ omni.
//! 2. **Decision equivalence** — a [`ReceptionMode::Sinr`] transceiver at
//!    `margin = 0, noise = 0` with unit powers agrees with the binary
//!    [`ReceptionMode::Omni`] transceiver decision for decision (busy
//!    edges, carrier sense, delivery, corruption) on random arrival/end/
//!    transmit scripts — the β → ∞ limit is the paper's collide rule.
//! 3. **Monotonicity laws** — raising the side-lobe floor never decreases
//!    gain (hence never decreases aggregate interference), and raising the
//!    capture margin (lowering the threshold β) never shrinks the
//!    delivered set; raising the noise floor never grows it.

#![expect(
    clippy::unwrap_used,
    reason = "the strategies outside `#[test]` fns unwrap in-range beamwidths"
)]
#![expect(clippy::float_cmp, reason = "assertions compare exact expected values")]

use dirca_geometry::{Angle, Beamwidth, Point};
use dirca_radio::{AntennaPattern, ReceptionMode, SignalId, Transceiver, TxPattern};
use dirca_sim::SimTime;
use proptest::prelude::*;

const RANGE: f64 = 1.0;

fn point_strategy() -> impl Strategy<Value = Point> {
    (-1.5f64..1.5, -1.5f64..1.5).prop_map(|(x, y)| Point::new(x, y))
}

fn beamwidth_strategy() -> impl Strategy<Value = Beamwidth> {
    prop_oneof![
        (1.0f64..360.0).prop_map(|d| Beamwidth::from_degrees(d).unwrap()),
        // The θ = 360° ≡ omni equivalence path, weighted explicitly.
        Just(Beamwidth::OMNI),
    ]
}

/// One scripted step against a transceiver pair: start a new arrival, end
/// the oldest live arrival, or toggle the node's own transmission.
#[derive(Debug, Clone, Copy)]
enum Op {
    Arrive {
        heading_deg: f64,
        distance: f64,
        power: f64,
    },
    End,
    Toggle,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0.0f64..360.0, 0.01f64..1.5, 0.01f64..2.0).prop_map(|(heading_deg, distance, power)| {
            Op::Arrive {
                heading_deg,
                distance,
                power,
            }
        }),
        // Listed twice so arrivals outnumber ends/toggles and scripts
        // build up real overlap structure (the vendored prop_oneof has no
        // weight syntax).
        (0.0f64..360.0, 0.01f64..1.5, 0.01f64..2.0).prop_map(|(heading_deg, distance, power)| {
            Op::Arrive {
                heading_deg,
                distance,
                power,
            }
        }),
        Just(Op::End),
        Just(Op::Toggle),
    ]
}

fn script_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(op_strategy(), 1..40)
}

/// Replays `script` against `rx`, forcing every arrival's power to
/// `power_of(drawn power)`, and returns per-signal delivery outcomes in
/// signal-id order plus the sequence of busy-edge returns.
fn replay(
    rx: &mut Transceiver,
    script: &[Op],
    power_of: impl Fn(f64) -> f64,
) -> (Vec<bool>, Vec<bool>) {
    let mut live: Vec<u64> = Vec::new();
    let mut next_id = 0u64;
    let mut delivered = Vec::new();
    let mut edges = Vec::new();
    let mut transmitting = false;
    for op in script {
        match *op {
            Op::Arrive {
                heading_deg,
                distance,
                power,
            } => {
                let id = next_id;
                next_id += 1;
                live.push(id);
                edges.push(rx.signal_arrives_powered(
                    SignalId(id),
                    Angle::from_degrees(heading_deg),
                    distance,
                    power_of(power),
                    SimTime::from_micros(1_000_000),
                ));
            }
            Op::End => {
                if let Some(id) = live.first().copied() {
                    live.remove(0);
                    delivered.push(rx.signal_ends(SignalId(id)).delivered);
                }
            }
            Op::Toggle => {
                if transmitting {
                    rx.end_transmit();
                } else {
                    rx.begin_transmit();
                }
                transmitting = !transmitting;
            }
        }
    }
    // Drain the tail so every signal gets a verdict.
    for id in live {
        delivered.push(rx.signal_ends(SignalId(id)).delivered);
    }
    (delivered, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Pillar 1: the ideal pattern's positive-gain support *is* the binary
    /// sector footprint — in-range targets decode under SINR exactly when
    /// `TxPattern::covers` accepts them, including the apex rule for
    /// co-located pairs and the θ = 360° full-circle case.
    #[test]
    fn ideal_gain_support_equals_sector_footprint(
        origin in point_strategy(),
        aim in point_strategy(),
        target in point_strategy(),
        beamwidth in beamwidth_strategy(),
    ) {
        let sector = TxPattern::aimed(origin, aim, beamwidth);
        let binary = sector.covers(origin, RANGE, target);
        let pattern = AntennaPattern::ideal(beamwidth);
        let separation = origin.heading_to(aim).separation(origin.heading_to(target));
        let in_range = TxPattern::Omni.covers(origin, RANGE, target);
        let sinr = in_range && pattern.tx_gain(separation, origin.distance_squared(target)) > 0.0;
        prop_assert_eq!(
            binary, sinr,
            "support mismatch at θ = {}°: origin {:?}, aim {:?}, target {:?}",
            beamwidth.degrees(), origin, aim, target
        );
    }

    /// Pillar 1, degenerate corner: a target co-located with the
    /// transmitter is in the main lobe whatever the bearing (the apex
    /// rule), for every beamwidth.
    #[test]
    fn apex_rule_holds_for_every_beamwidth(
        origin in point_strategy(),
        aim in point_strategy(),
        beamwidth in beamwidth_strategy(),
        separation in 0.0f64..std::f64::consts::PI,
    ) {
        let pattern = AntennaPattern::ideal(beamwidth);
        prop_assert_eq!(pattern.tx_gain(separation, 0.0), 1.0);
        let sector = TxPattern::aimed(origin, aim, beamwidth);
        prop_assert!(sector.covers(origin, RANGE, origin));
    }

    /// Pillar 2: `Sinr { margin: 0, noise: 0 }` with unit powers is the
    /// binary collide rule, decision for decision — same busy edges, same
    /// per-frame delivery verdicts, on arbitrary interleavings of
    /// arrivals, ends, and own-transmission toggles.
    #[test]
    fn zero_margin_sinr_matches_binary_collide(script in script_strategy()) {
        let mut omni = Transceiver::new(ReceptionMode::Omni);
        let mut sinr = Transceiver::new(ReceptionMode::Sinr { margin: 0.0, noise: 0.0 });
        let (omni_delivered, omni_edges) = replay(&mut omni, &script, |_| 1.0);
        let (sinr_delivered, sinr_edges) = replay(&mut sinr, &script, |_| 1.0);
        prop_assert_eq!(omni_edges, sinr_edges, "busy-edge returns diverged");
        prop_assert_eq!(omni_delivered, sinr_delivered, "delivery verdicts diverged");
        prop_assert_eq!(omni.carrier_busy(), sinr.carrier_busy());
    }

    /// Pillar 2 corollary: the equivalence survives arbitrary (non-unit)
    /// powers as long as they are positive — at margin 0 the rule "any
    /// concurrent energy corrupts" does not weigh power at all.
    #[test]
    fn zero_margin_is_power_blind(script in script_strategy()) {
        let mut unit = Transceiver::new(ReceptionMode::Sinr { margin: 0.0, noise: 0.0 });
        let mut scaled = Transceiver::new(ReceptionMode::Sinr { margin: 0.0, noise: 0.0 });
        let (a, _) = replay(&mut unit, &script, |_| 1.0);
        let (b, _) = replay(&mut scaled, &script, |p| p);
        prop_assert_eq!(a, b, "margin-0 verdicts depended on power levels");
    }

    /// Pillar 3a: gain is monotone non-decreasing in the side-lobe floor at
    /// every separation — so any interference sum built from pattern gains
    /// is too (raising the floor never decreases interference).
    #[test]
    fn gain_is_monotone_in_side_floor(
        beamwidth in beamwidth_strategy(),
        rolloff in 0.0f64..4.0,
        floor_lo in 0.0f64..1.0,
        floor_delta in 0.0f64..1.0,
        separations in prop::collection::vec(0.0f64..std::f64::consts::PI, 1..8),
    ) {
        let floor_hi = (floor_lo + floor_delta).min(1.0);
        let lo = AntennaPattern { beamwidth, main_gain: 1.0, side_floor: floor_lo, rolloff };
        let hi = AntennaPattern { beamwidth, main_gain: 1.0, side_floor: floor_hi, rolloff };
        let mut sum_lo = 0.0;
        let mut sum_hi = 0.0;
        for &sep in &separations {
            prop_assert!(
                hi.gain(sep) >= lo.gain(sep) - 1e-12,
                "gain decreased when the floor rose: sep {sep}, θ {}°",
                beamwidth.degrees()
            );
            sum_lo += lo.gain(sep);
            sum_hi += hi.gain(sep);
        }
        prop_assert!(sum_hi >= sum_lo - 1e-12, "aggregate interference decreased");
    }

    /// Pillar 3b: raising the margin (lowering the SINR threshold β) never
    /// shrinks the delivered set — every frame decoded at the stricter
    /// margin is decoded at the looser one.
    #[test]
    fn deliveries_are_monotone_in_margin(
        script in script_strategy(),
        margin_lo in 0.0f64..2.0,
        margin_delta in 0.0f64..2.0,
    ) {
        let mut strict = Transceiver::new(ReceptionMode::Sinr { margin: margin_lo, noise: 0.0 });
        let mut loose = Transceiver::new(ReceptionMode::Sinr {
            margin: margin_lo + margin_delta,
            noise: 0.0,
        });
        let (at_strict, _) = replay(&mut strict, &script, |p| p);
        let (at_loose, _) = replay(&mut loose, &script, |p| p);
        for (i, (s, l)) in at_strict.iter().zip(&at_loose).enumerate() {
            prop_assert!(
                !s || *l,
                "signal {i} delivered at margin {margin_lo} but lost at the looser margin"
            );
        }
    }

    /// Pillar 3b converse: raising the noise floor never grows the
    /// delivered set.
    #[test]
    fn deliveries_are_antitone_in_noise(
        script in script_strategy(),
        margin in 0.0f64..2.0,
        noise_lo in 0.0f64..1.0,
        noise_delta in 0.0f64..1.0,
    ) {
        let mut quiet = Transceiver::new(ReceptionMode::Sinr { margin, noise: noise_lo });
        let mut loud = Transceiver::new(ReceptionMode::Sinr {
            margin,
            noise: noise_lo + noise_delta,
        });
        let (at_quiet, _) = replay(&mut quiet, &script, |p| p);
        let (at_loud, _) = replay(&mut loud, &script, |p| p);
        for (i, (q, l)) in at_quiet.iter().zip(&at_loud).enumerate() {
            prop_assert!(
                *q || !l,
                "signal {i} lost at noise {noise_lo} but delivered through louder noise"
            );
        }
    }

    /// θ = 360° ≡ omni: a full-circle flat lobe is isotropic at the main
    /// gain for *any* side-lobe floor (there is no "outside" to leak
    /// into), so the directional physics degenerate to omni exactly.
    #[test]
    fn full_circle_flat_lobe_is_isotropic(
        side_floor in 0.0f64..1.0,
        separation in 0.0f64..std::f64::consts::PI,
        distance_squared in 0.0f64..4.0,
    ) {
        let pattern = AntennaPattern {
            beamwidth: Beamwidth::OMNI,
            main_gain: 1.0,
            side_floor,
            rolloff: 0.0,
        };
        prop_assert_eq!(pattern.gain(separation), 1.0);
        prop_assert_eq!(pattern.tx_gain(separation, distance_squared), 1.0);
    }
}

/// Deterministic spot check riding along with the proptests: the textbook
/// capture scenario the sweep experiments rely on — a strong frame
/// surviving a weak interferer that the binary rule would count as fatal.
#[test]
fn capture_departs_from_binary_exactly_when_margin_allows() {
    let strong = 1.0;
    let weak = 0.05;
    for (margin, expect) in [(0.0, false), (0.1, true)] {
        let mut rx = Transceiver::new(ReceptionMode::Sinr { margin, noise: 0.0 });
        rx.signal_arrives_powered(
            SignalId(1),
            Angle::ZERO,
            0.3,
            strong,
            SimTime::from_micros(100),
        );
        rx.signal_arrives_powered(
            SignalId(2),
            Angle::from_degrees(180.0),
            0.9,
            weak,
            SimTime::from_micros(50),
        );
        rx.signal_ends(SignalId(2));
        assert_eq!(
            rx.signal_ends(SignalId(1)).delivered,
            expect,
            "margin {margin}"
        );
    }
}
