//! Per-node receiver logic: collision-on-overlap decoding, carrier sense,
//! and the deaf-while-transmitting rule.

use dirca_geometry::{Angle, Beamwidth};
use dirca_sim::SimTime;

/// Identifier of one transmission (one frame in flight on the channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignalId(pub u64);

/// How the node's receive chain treats simultaneous arrivals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReceptionMode {
    /// The paper's baseline: reception is omni-directional, so any two
    /// overlapping arrivals destroy each other.
    Omni,
    /// Nasipuri-style directional reception (extension experiment E8): the
    /// receiver instantly selects the antenna pointing at the frame it
    /// locked onto, and only interference arriving within that antenna's
    /// aperture corrupts the frame. Carrier sensing remains omni-directional
    /// (energy detection).
    Directional {
        /// Aperture of each receive antenna.
        beamwidth: Beamwidth,
    },
    /// Distance-ratio capture (protocol-model approximation of SIR
    /// capture, cf. the paper's footnote on signal-to-noise effects): a
    /// locked frame from distance `d` survives interference from distance
    /// `d_i` iff `d_i ≥ ratio·d` — the nearer transmitter "captures" the
    /// receiver. `ratio = 1` captures on any distance advantage;
    /// larger ratios are stricter. Interferers can never *become* the
    /// locked frame mid-air, matching real capture hardware only
    /// approximately.
    Capture {
        /// Required interferer-to-source distance ratio.
        ratio: f64,
    },
    /// Power-based SINR capture (the `SinrPhy` physics): arrivals carry
    /// received powers (see [`Transceiver::signal_arrives_powered`]) and a
    /// frame with power `P` survives iff `noise + I ≤ margin·P` holds at
    /// its own leading edge and at every later arrival edge overlapping
    /// it, where `I` is the power sum of every *other* signal then on the
    /// air. Interference is aggregate, not pairwise: two individually
    /// harmless interferers can jointly corrupt a frame.
    ///
    /// `margin` is the reciprocal of the usual SINR threshold β;
    /// `margin = 0` with `noise = 0` reproduces the binary collide rule
    /// exactly (any concurrent energy corrupts — the oracle battery in
    /// `tests/sinr_oracle.rs` pins the decision-for-decision agreement).
    Sinr {
        /// Capture margin 1/β: deliver iff `noise + I ≤ margin·P`.
        margin: f64,
        /// Additive noise floor in the same linear power units.
        noise: f64,
    },
}

/// Outcome of a signal leaving the air at this node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxEndReport {
    /// The frame was decoded cleanly and should be delivered to the MAC.
    pub delivered: bool,
    /// The node had locked onto this frame but interference (or its own
    /// transmission) destroyed it — the MAC's EIFS trigger.
    pub corrupted: bool,
    /// After this edge the node senses an idle medium.
    pub medium_idle_after: bool,
}

#[derive(Debug, Clone, Copy)]
struct Arrival {
    id: SignalId,
    heading: Angle,
    distance: f64,
    /// Received power (SINR mode; `1.0` for the binary modes, unused).
    power: f64,
    end: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    id: SignalId,
    heading: Angle,
    distance: f64,
    /// Received power (SINR mode; `1.0` for the binary modes, unused).
    power: f64,
    corrupted: bool,
}

/// The receive side of one node's radio.
///
/// A `Transceiver` is a pure state machine: the network layer feeds it
/// signal-arrival and signal-end edges (already offset by the propagation
/// delay) plus the node's own transmit start/stop, and it answers
///
/// * whether each ending frame was decoded ([`Transceiver::signal_ends`]),
/// * whether the medium currently appears busy ([`Transceiver::carrier_busy`]).
///
/// Decoding rule (paper's omni-reception model): a frame is delivered iff
/// the node was idle — neither transmitting nor hit by any other signal —
/// when the frame started arriving, and stayed clear of both for the frame's
/// whole duration.
///
/// # Example
///
/// ```
/// use dirca_geometry::Angle;
/// use dirca_radio::{ReceptionMode, SignalId, Transceiver};
/// use dirca_sim::SimTime;
///
/// let mut rx = Transceiver::new(ReceptionMode::Omni);
/// rx.signal_arrives(SignalId(1), Angle::ZERO, SimTime::from_micros(100));
/// assert!(rx.carrier_busy());
/// let report = rx.signal_ends(SignalId(1));
/// assert!(report.delivered);
/// assert!(report.medium_idle_after);
/// ```
#[derive(Debug, Clone)]
pub struct Transceiver {
    mode: ReceptionMode,
    transmitting: bool,
    arrivals: Vec<Arrival>,
    // Frames currently locked for decoding. Under omni reception at most one
    // lock can exist (everything is mutually in-band); under directional
    // reception each receive antenna can hold its own lock.
    candidates: Vec<Candidate>,
}

impl Transceiver {
    /// Creates an idle transceiver with the given reception mode.
    pub fn new(mode: ReceptionMode) -> Self {
        Transceiver {
            mode,
            transmitting: false,
            arrivals: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// The reception mode this transceiver was built with.
    pub fn mode(&self) -> ReceptionMode {
        self.mode
    }

    /// Whether the node is currently transmitting.
    pub fn is_transmitting(&self) -> bool {
        self.transmitting
    }

    /// Whether the node senses a busy medium: it is transmitting, or at
    /// least one signal is arriving (energy detection is omni-directional in
    /// every mode).
    pub fn carrier_busy(&self) -> bool {
        self.transmitting || !self.arrivals.is_empty()
    }

    /// The latest trailing edge among the signals currently arriving, or
    /// `None` when no energy is on the air. Incoming energy keeps the
    /// carrier busy until at least this instant (later arrivals can extend
    /// it further).
    pub fn energy_until(&self) -> Option<SimTime> {
        self.arrivals.iter().map(|a| a.end).max()
    }

    /// The node starts transmitting. Any frame being decoded is lost (a
    /// single half-duplex transceiver cannot send and receive at once).
    pub fn begin_transmit(&mut self) {
        debug_assert!(
            !self.transmitting,
            "begin_transmit while already transmitting"
        );
        self.transmitting = true;
        self.candidates.clear();
    }

    /// The node stops transmitting. Signals still in flight toward it remain
    /// undecodable (their beginnings were missed) but keep the medium busy.
    pub fn end_transmit(&mut self) {
        debug_assert!(self.transmitting, "end_transmit while not transmitting");
        self.transmitting = false;
    }

    /// A signal begins arriving from direction `heading` (bearing from this
    /// node toward the transmitter), lasting until `end`.
    ///
    /// Returns `true` when this edge flipped the sensed medium from idle to
    /// busy. See [`Transceiver::signal_arrives_at`] when the reception mode
    /// uses sender distances.
    pub fn signal_arrives(&mut self, id: SignalId, heading: Angle, end: SimTime) -> bool {
        self.signal_arrives_at(id, heading, 1.0, end)
    }

    /// Like [`Transceiver::signal_arrives`], additionally carrying the
    /// transmitter's distance (used by [`ReceptionMode::Capture`]; ignored
    /// by the other modes).
    pub fn signal_arrives_at(
        &mut self,
        id: SignalId,
        heading: Angle,
        distance: f64,
        end: SimTime,
    ) -> bool {
        self.signal_arrives_powered(id, heading, distance, 1.0, end)
    }

    /// Like [`Transceiver::signal_arrives_at`], additionally carrying the
    /// frame's received power (used by [`ReceptionMode::Sinr`]; ignored by
    /// the other modes). The caller must not deliver zero-power arrivals —
    /// under SINR a signal the path loss extinguished simply does not
    /// exist at this node (no carrier energy, no interference).
    pub fn signal_arrives_powered(
        &mut self,
        id: SignalId,
        heading: Angle,
        distance: f64,
        power: f64,
        end: SimTime,
    ) -> bool {
        let was_busy = self.carrier_busy();
        if let ReceptionMode::Sinr { margin, noise } = self.mode {
            // Aggregate interference against the new frame is the power
            // already on the air; compute it before pushing the arrival.
            let existing: f64 = self.arrivals.iter().map(|a| a.power).sum();
            self.arrivals.push(Arrival {
                id,
                heading,
                distance,
                power,
                end,
            });
            if self.transmitting {
                return !was_busy;
            }
            // Re-evaluate every locked frame against the aggregate that
            // now includes the new arrival. Corruption is sticky (the SINR
            // condition must hold at every arrival edge the frame
            // overlaps); recomputing the sum from the live arrival set —
            // instead of maintaining running totals — keeps the decision a
            // pure function of the overlap structure, with no float drift.
            let arrivals = &self.arrivals;
            for c in &mut self.candidates {
                let interference: f64 = arrivals
                    .iter()
                    .filter(|a| a.id != c.id)
                    .map(|a| a.power)
                    .sum();
                if noise + interference > margin * c.power {
                    c.corrupted = true;
                }
            }
            // The new frame locks iff its own SINR condition holds now;
            // later edges re-check it like any other candidate.
            if noise + existing <= margin * power {
                self.candidates.push(Candidate {
                    id,
                    heading,
                    distance,
                    power,
                    corrupted: false,
                });
            }
            return !was_busy;
        }

        let interferers_in_band = self
            .arrivals
            .iter()
            .any(|a| interferes(self.mode, heading, distance, a.heading, a.distance));
        self.arrivals.push(Arrival {
            id,
            heading,
            distance,
            power,
            end,
        });

        if self.transmitting {
            return !was_busy;
        }
        // The new signal jams every lock it interferes with.
        let mode = self.mode;
        for c in &mut self.candidates {
            if interferes(mode, c.heading, c.distance, heading, distance) {
                c.corrupted = true;
            }
        }
        // It can itself be locked onto only if nothing interferes with it.
        if !interferers_in_band {
            self.candidates.push(Candidate {
                id,
                heading,
                distance,
                power,
                corrupted: false,
            });
        }
        !was_busy
    }

    /// The signal `id` stops arriving.
    ///
    /// Returns whether the frame was decoded and whether the medium is now
    /// idle. Unknown ids are ignored (reported as not delivered), which
    /// makes replays of stale edges harmless.
    pub fn signal_ends(&mut self, id: SignalId) -> RxEndReport {
        if let Some(pos) = self.arrivals.iter().position(|a| a.id == id) {
            self.arrivals.swap_remove(pos);
        }
        let (delivered, corrupted) = match self.candidates.iter().position(|c| c.id == id) {
            Some(pos) => {
                let c = self.candidates.swap_remove(pos);
                let ok = !c.corrupted && !self.transmitting;
                (ok, !ok)
            }
            None => (false, false),
        };
        RxEndReport {
            delivered,
            corrupted,
            medium_idle_after: !self.carrier_busy(),
        }
    }
}

/// Whether an interferer (heading `i_heading`, distance `i_distance`)
/// disturbs the reception of a frame (heading `f_heading`, distance
/// `f_distance`) under `mode`.
fn interferes(
    mode: ReceptionMode,
    f_heading: Angle,
    f_distance: f64,
    i_heading: Angle,
    i_distance: f64,
) -> bool {
    match mode {
        ReceptionMode::Omni => true,
        ReceptionMode::Directional { beamwidth } => {
            beamwidth.covers_separation(f_heading.separation(i_heading))
        }
        ReceptionMode::Capture { ratio } => i_distance < ratio * f_distance,
        // SINR interference is aggregate, not pairwise; its arrivals take
        // the dedicated branch in `signal_arrives_powered` and never reach
        // this predicate. Treating it as always-interfering here keeps the
        // match exhaustive without a panic path.
        ReceptionMode::Sinr { .. } => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn omni() -> Transceiver {
        Transceiver::new(ReceptionMode::Omni)
    }

    fn east() -> Angle {
        Angle::ZERO
    }

    fn west() -> Angle {
        Angle::from_degrees(180.0)
    }

    #[test]
    fn clean_single_frame_is_delivered() {
        let mut rx = omni();
        assert!(
            rx.signal_arrives(SignalId(1), east(), t(100)),
            "idle→busy edge"
        );
        let r = rx.signal_ends(SignalId(1));
        assert!(r.delivered);
        assert!(r.medium_idle_after);
    }

    #[test]
    fn overlap_corrupts_both_frames() {
        let mut rx = omni();
        rx.signal_arrives(SignalId(1), east(), t(100));
        assert!(
            !rx.signal_arrives(SignalId(2), west(), t(50)),
            "already busy"
        );
        let r2 = rx.signal_ends(SignalId(2));
        assert!(!r2.delivered);
        assert!(!r2.medium_idle_after, "signal 1 still in the air");
        let r1 = rx.signal_ends(SignalId(1));
        assert!(!r1.delivered, "first frame was hit by the second");
        assert!(r1.medium_idle_after);
    }

    #[test]
    fn frame_starting_after_collision_clears_is_clean() {
        let mut rx = omni();
        rx.signal_arrives(SignalId(1), east(), t(10));
        rx.signal_arrives(SignalId(2), west(), t(20));
        rx.signal_ends(SignalId(1));
        rx.signal_ends(SignalId(2));
        rx.signal_arrives(SignalId(3), east(), t(30));
        assert!(rx.signal_ends(SignalId(3)).delivered);
    }

    #[test]
    fn joining_mid_signal_is_not_decodable() {
        // Node stops transmitting while a signal is mid-flight: the leftover
        // signal keeps the medium busy but cannot be decoded.
        let mut rx = omni();
        rx.begin_transmit();
        rx.signal_arrives(SignalId(1), east(), t(100));
        rx.end_transmit();
        assert!(rx.carrier_busy());
        let r = rx.signal_ends(SignalId(1));
        assert!(!r.delivered);
        assert!(r.medium_idle_after);
    }

    #[test]
    fn transmitting_node_is_deaf() {
        let mut rx = omni();
        rx.begin_transmit();
        rx.signal_arrives(SignalId(1), east(), t(100));
        let r = rx.signal_ends(SignalId(1));
        assert!(!r.delivered);
        assert!(!r.medium_idle_after, "still transmitting");
        rx.end_transmit();
        assert!(!rx.carrier_busy());
    }

    #[test]
    fn transmit_during_reception_kills_frame() {
        let mut rx = omni();
        rx.signal_arrives(SignalId(1), east(), t(100));
        rx.begin_transmit();
        rx.end_transmit();
        assert!(!rx.signal_ends(SignalId(1)).delivered);
    }

    #[test]
    fn second_signal_after_first_ends_is_decodable() {
        let mut rx = omni();
        rx.signal_arrives(SignalId(1), east(), t(10));
        assert!(rx.signal_ends(SignalId(1)).delivered);
        rx.signal_arrives(SignalId(2), east(), t(20));
        assert!(rx.signal_ends(SignalId(2)).delivered);
    }

    #[test]
    fn carrier_busy_tracks_all_energy() {
        let mut rx = omni();
        assert!(!rx.carrier_busy());
        rx.signal_arrives(SignalId(1), east(), t(10));
        rx.signal_arrives(SignalId(2), east(), t(20));
        assert!(rx.carrier_busy());
        rx.signal_ends(SignalId(1));
        assert!(rx.carrier_busy());
        rx.signal_ends(SignalId(2));
        assert!(!rx.carrier_busy());
    }

    #[test]
    fn unknown_signal_end_is_harmless() {
        let mut rx = omni();
        let r = rx.signal_ends(SignalId(42));
        assert!(!r.delivered);
        assert!(r.medium_idle_after);
    }

    #[test]
    fn directional_rx_ignores_out_of_beam_interference() {
        let beam = Beamwidth::from_degrees(60.0).unwrap();
        let mut rx = Transceiver::new(ReceptionMode::Directional { beamwidth: beam });
        rx.signal_arrives(SignalId(1), east(), t(100));
        // Interferer from the opposite side: outside the selected antenna.
        rx.signal_arrives(SignalId(2), west(), t(50));
        rx.signal_ends(SignalId(2));
        assert!(
            rx.signal_ends(SignalId(1)).delivered,
            "out-of-beam interference must not corrupt under directional reception"
        );
    }

    #[test]
    fn directional_rx_still_corrupted_in_beam() {
        let beam = Beamwidth::from_degrees(60.0).unwrap();
        let mut rx = Transceiver::new(ReceptionMode::Directional { beamwidth: beam });
        rx.signal_arrives(SignalId(1), east(), t(100));
        rx.signal_arrives(SignalId(2), Angle::from_degrees(20.0), t(50));
        rx.signal_ends(SignalId(2));
        assert!(!rx.signal_ends(SignalId(1)).delivered);
    }

    #[test]
    fn directional_rx_locks_through_out_of_beam_jammer() {
        // A frame arriving while an out-of-beam signal is already present
        // can still be locked onto and decoded under directional reception.
        let beam = Beamwidth::from_degrees(60.0).unwrap();
        let mut rx = Transceiver::new(ReceptionMode::Directional { beamwidth: beam });
        rx.signal_arrives(SignalId(1), west(), t(100));
        // Out-of-beam relative to the jammer: lock succeeds.
        rx.signal_arrives(SignalId(2), east(), t(50));
        assert!(rx.signal_ends(SignalId(2)).delivered);
    }

    #[test]
    fn omni_rx_cannot_lock_through_jammer() {
        let mut rx = omni();
        rx.signal_arrives(SignalId(1), west(), t(100));
        rx.signal_arrives(SignalId(2), east(), t(50));
        assert!(!rx.signal_ends(SignalId(2)).delivered);
    }

    #[test]
    fn directional_carrier_sense_is_still_omni() {
        let beam = Beamwidth::from_degrees(30.0).unwrap();
        let mut rx = Transceiver::new(ReceptionMode::Directional { beamwidth: beam });
        rx.signal_arrives(SignalId(1), west(), t(100));
        assert!(rx.carrier_busy(), "energy detection ignores direction");
    }

    #[test]
    fn three_way_pileup_delivers_nothing() {
        let mut rx = omni();
        rx.signal_arrives(SignalId(1), east(), t(100));
        rx.signal_arrives(SignalId(2), west(), t(100));
        rx.signal_arrives(SignalId(3), Angle::from_degrees(90.0), t(100));
        assert!(!rx.signal_ends(SignalId(1)).delivered);
        assert!(!rx.signal_ends(SignalId(2)).delivered);
        let last = rx.signal_ends(SignalId(3));
        assert!(!last.delivered);
        assert!(last.medium_idle_after);
    }

    #[test]
    fn mode_accessor() {
        assert_eq!(omni().mode(), ReceptionMode::Omni);
    }

    #[test]
    fn energy_until_tracks_latest_trailing_edge() {
        let mut rx = omni();
        assert_eq!(rx.energy_until(), None);
        rx.signal_arrives(SignalId(1), east(), t(10));
        rx.signal_arrives(SignalId(2), west(), t(25));
        assert_eq!(rx.energy_until(), Some(t(25)));
        rx.signal_ends(SignalId(2));
        assert_eq!(rx.energy_until(), Some(t(10)));
        rx.signal_ends(SignalId(1));
        assert_eq!(rx.energy_until(), None);
    }

    #[test]
    fn capture_survives_distant_interference() {
        let mut rx = Transceiver::new(ReceptionMode::Capture { ratio: 2.0 });
        // Frame from 0.2 away; interferer from 0.9 away: 0.9 >= 2×0.2.
        rx.signal_arrives_at(SignalId(1), east(), 0.2, t(100));
        rx.signal_arrives_at(SignalId(2), west(), 0.9, t(50));
        rx.signal_ends(SignalId(2));
        assert!(rx.signal_ends(SignalId(1)).delivered, "near frame captured");
    }

    #[test]
    fn capture_lost_to_near_interference() {
        let mut rx = Transceiver::new(ReceptionMode::Capture { ratio: 2.0 });
        rx.signal_arrives_at(SignalId(1), east(), 0.5, t(100));
        rx.signal_arrives_at(SignalId(2), west(), 0.6, t(50));
        rx.signal_ends(SignalId(2));
        assert!(!rx.signal_ends(SignalId(1)).delivered, "0.6 < 2×0.5 jams");
    }

    #[test]
    fn capture_cannot_lock_onto_late_frame_through_near_jammer() {
        let mut rx = Transceiver::new(ReceptionMode::Capture { ratio: 2.0 });
        // A jammer from 0.2 is already on the air; a frame from 0.9 cannot
        // be locked (the jammer interferes with it).
        rx.signal_arrives_at(SignalId(1), west(), 0.2, t(100));
        rx.signal_arrives_at(SignalId(2), east(), 0.9, t(50));
        assert!(!rx.signal_ends(SignalId(2)).delivered);
    }

    #[test]
    fn capture_ratio_one_is_strictly_nearer_wins() {
        let mut rx = Transceiver::new(ReceptionMode::Capture { ratio: 1.0 });
        rx.signal_arrives_at(SignalId(1), east(), 0.5, t(100));
        // Equal distance: not strictly nearer, frame survives.
        rx.signal_arrives_at(SignalId(2), west(), 0.5, t(50));
        rx.signal_ends(SignalId(2));
        assert!(rx.signal_ends(SignalId(1)).delivered);
    }

    fn sinr(margin: f64, noise: f64) -> Transceiver {
        Transceiver::new(ReceptionMode::Sinr { margin, noise })
    }

    #[test]
    fn sinr_strong_frame_captures_weak_interferer() {
        // P = 1.0 vs I = 0.05 at margin 0.1: 0.05 ≤ 0.1·1.0 holds.
        let mut rx = sinr(0.1, 0.0);
        rx.signal_arrives_powered(SignalId(1), east(), 0.3, 1.0, t(100));
        rx.signal_arrives_powered(SignalId(2), west(), 0.9, 0.05, t(50));
        rx.signal_ends(SignalId(2));
        assert!(rx.signal_ends(SignalId(1)).delivered);
    }

    #[test]
    fn sinr_interference_is_aggregate() {
        // Two interferers, each harmless alone (0.06 ≤ 0.1), jointly
        // corrupt the frame (0.12 > 0.1).
        let mut rx = sinr(0.1, 0.0);
        rx.signal_arrives_powered(SignalId(1), east(), 0.3, 1.0, t(100));
        rx.signal_arrives_powered(SignalId(2), west(), 0.9, 0.06, t(50));
        rx.signal_arrives_powered(SignalId(3), west(), 0.9, 0.06, t(60));
        rx.signal_ends(SignalId(2));
        rx.signal_ends(SignalId(3));
        assert!(!rx.signal_ends(SignalId(1)).delivered, "aggregate jams");
    }

    #[test]
    fn sinr_corruption_is_sticky() {
        // The jammer ends before the frame does; the frame stays corrupted.
        let mut rx = sinr(0.1, 0.0);
        rx.signal_arrives_powered(SignalId(1), east(), 0.3, 1.0, t(100));
        rx.signal_arrives_powered(SignalId(2), west(), 0.9, 0.5, t(50));
        rx.signal_ends(SignalId(2));
        assert!(!rx.signal_ends(SignalId(1)).delivered);
    }

    #[test]
    fn sinr_late_strong_frame_can_lock_through_weak_jammer() {
        // Unlike the binary rule, a strong frame arriving over a weak
        // existing signal locks and survives.
        let mut rx = sinr(0.1, 0.0);
        rx.signal_arrives_powered(SignalId(1), west(), 0.9, 0.05, t(100));
        rx.signal_arrives_powered(SignalId(2), east(), 0.3, 1.0, t(50));
        assert!(rx.signal_ends(SignalId(2)).delivered);
    }

    #[test]
    fn sinr_noise_floor_can_deafen() {
        // noise 0.2 > margin·P = 0.1: even a lone frame fails.
        let mut rx = sinr(0.1, 0.2);
        rx.signal_arrives_powered(SignalId(1), east(), 0.3, 1.0, t(100));
        assert!(!rx.signal_ends(SignalId(1)).delivered);
    }

    #[test]
    fn sinr_zero_margin_matches_binary_collide() {
        // margin 0, noise 0: any concurrent energy corrupts, a lone frame
        // is clean — the binary rule.
        let mut rx = sinr(0.0, 0.0);
        rx.signal_arrives_powered(SignalId(1), east(), 0.3, 1.0, t(100));
        assert!(rx.signal_ends(SignalId(1)).delivered);
        rx.signal_arrives_powered(SignalId(2), east(), 0.3, 1.0, t(200));
        rx.signal_arrives_powered(SignalId(3), west(), 0.9, 1e-9, t(150));
        rx.signal_ends(SignalId(3));
        assert!(!rx.signal_ends(SignalId(2)).delivered, "any energy jams");
    }

    #[test]
    fn sinr_deaf_while_transmitting() {
        let mut rx = sinr(1.0, 0.0);
        rx.begin_transmit();
        rx.signal_arrives_powered(SignalId(1), east(), 0.3, 1.0, t(100));
        rx.end_transmit();
        assert!(!rx.signal_ends(SignalId(1)).delivered);
    }

    #[test]
    fn omni_default_distance_path_unchanged() {
        // signal_arrives (no distance) must behave exactly like before for
        // the omni mode.
        let mut rx = omni();
        rx.signal_arrives(SignalId(1), east(), t(100));
        rx.signal_arrives(SignalId(2), west(), t(50));
        rx.signal_ends(SignalId(2));
        assert!(!rx.signal_ends(SignalId(1)).delivered);
    }
}
