//! Protocol-aware runtime invariant auditors for [`NetWorld`].
//!
//! Each auditor implements [`dirca_sim::audit::Auditor`] and panics with a
//! message prefixed `audit[<name>]:` at the first violation it observes.
//! Install them on a [`Simulation`](dirca_sim::Simulation) *before the
//! first event is processed* — the airtime auditor in particular integrates
//! transmit time from the very start of the run and will (correctly) flag a
//! run it only observed partway.
//!
//! [`NavAuditor`], [`TransceiverAuditor`] and [`AirtimeAuditor`] read the
//! `FrameTx` records of the world's recorder, so the world must have one
//! attached ([`NetWorld::attach_recorder`]). Each auditor counts every
//! record the recorder has taken, so a ring that wraps still shows it every
//! new frame, as long as no single event pushes more records than the ring
//! holds.

use dirca_mac::{DcfMac, Frame, FrameKind};
use dirca_sim::audit::Auditor;
use dirca_sim::{Scheduler, SimDuration, SimTime};
use dirca_trace::TraceRecord;

use crate::{NetEvent, NetWorld};

/// The full standard set: causality, NAV consistency, transceiver
/// legality, and airtime conservation.
///
/// The world must have a recorder attached (see the module docs).
pub fn standard_auditors() -> Vec<Box<dyn Auditor<NetWorld>>> {
    vec![
        Box::new(dirca_sim::audit::CausalityAuditor::new()),
        Box::new(NavAuditor::new()),
        Box::new(TransceiverAuditor::new()),
        Box::new(AirtimeAuditor::new()),
    ]
}

/// The `FrameTx` records, with their frames, that `world`'s recorder took
/// since it had taken `pushed` records in total; advances `pushed`.
///
/// # Panics
///
/// Panics `audit[<who>]` if no recorder is attached, if the recorder took
/// fewer records than were already audited (it was replaced), or if the
/// ring has already overwritten some of the new records.
fn new_frames<'w>(
    world: &'w NetWorld,
    pushed: &mut u64,
    who: &str,
) -> impl Iterator<Item = (TraceRecord, Frame)> + 'w {
    let Some(ring) = world.recorder() else {
        panic!("audit[{who}]: NetWorld::attach_recorder must be called before auditing");
    };
    let total = ring.len() as u64 + ring.overwritten();
    let Some(fresh) = total.checked_sub(*pushed) else {
        panic!(
            "audit[{who}]: the recorder has taken {total} records, fewer than the {} already \
             audited: it was replaced mid-run",
            *pushed
        );
    };
    if fresh > ring.len() as u64 {
        if *pushed == 0 {
            panic!(
                "audit[{who}]: the {}-record ring had already overwritten {} records when this \
                 auditor first read it: install the auditor before the ring wraps",
                ring.capacity(),
                ring.overwritten()
            );
        }
        panic!(
            "audit[{who}]: {fresh} records arrived in one event, more than the {}-record ring \
             holds",
            ring.capacity()
        );
    }
    *pushed = total;
    ring.iter()
        .skip(ring.len() - fresh as usize)
        .filter_map(|record| record.frame_tx().map(|(frame, _)| (*record, frame)))
}

/// NAV consistency: no node ever initiates an RTS while its own virtual
/// carrier sense says the medium is reserved.
///
/// The sender-side contention path unconditionally defers to the NAV
/// ([`DcfMac`] refuses to arm backoff while it is busy), so an RTS on the
/// air during a reservation means the MAC's deferral logic is broken.
/// SIFS-spaced responses (CTS, DATA, ACK) are exempt: they happen inside
/// the reservation their own handshake established, and IEEE 802.11
/// explicitly excludes them from virtual carrier sense.
#[derive(Debug, Default)]
pub struct NavAuditor {
    pushed: u64,
}

impl NavAuditor {
    /// Creates the auditor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks one `FrameTx` record against the transmitting MAC's NAV,
    /// panicking on a violation; other records pass. Exposed so tests can
    /// exercise the rule on corrupted state directly.
    pub fn check_entry(record: &TraceRecord, mac: &DcfMac) {
        let rts = record
            .frame_tx()
            .is_some_and(|(frame, _)| frame.kind == FrameKind::Rts);
        if rts && mac.nav().is_busy(record.time) {
            panic!(
                "audit[nav]: {} transmitted an RTS at {} while its NAV was reserved until {}",
                mac.id(),
                record.time,
                mac.nav().until()
            );
        }
    }
}

impl Auditor<NetWorld> for NavAuditor {
    fn after_event(&mut self, _now: SimTime, world: &NetWorld, _sched: &Scheduler<NetEvent>) {
        for (record, frame) in new_frames(world, &mut self.pushed, "nav") {
            Self::check_entry(&record, &world.macs()[frame.src.0]);
        }
    }
}

/// Transceiver state-machine legality: at every covered receiver a
/// `WaveEnd` trailing edge matches an earlier `WaveStart` leading edge,
/// `TxEnd` arrives exactly when the frame's airtime elapses and only while
/// the PHY is transmitting, and no node starts a second transmission while
/// its first is still on the air (half-duplex).
///
/// Waves are expanded per receiver through [`NetWorld::wave_targets_for`]
/// — the same receivers the event handler walks — so the auditor tracks the
/// exact `(receiver, signal)` pairs the world delivers edges to.
#[derive(Debug, Default)]
pub struct TransceiverAuditor {
    /// `(dst, signal id)` pairs whose leading edge arrived but whose
    /// trailing edge has not.
    in_flight: std::collections::BTreeSet<(usize, u64)>,
    /// Scheduled end of each node's transmission in progress.
    tx_until: Vec<Option<SimTime>>,
    /// Node whose `TxEnd` is being dispatched (set in `before_event`,
    /// resolved in `after_event`).
    ending: Option<usize>,
    pushed: u64,
}

impl TransceiverAuditor {
    /// Creates the auditor.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_nodes(&mut self, world: &NetWorld) {
        if self.tx_until.len() < world.transceivers().len() {
            self.tx_until.resize(world.transceivers().len(), None);
        }
    }
}

impl Auditor<NetWorld> for TransceiverAuditor {
    fn before_event(&mut self, now: SimTime, event: &NetEvent, world: &NetWorld) {
        self.ensure_nodes(world);
        match event {
            NetEvent::WaveStart {
                src,
                id,
                frame,
                directional,
            } => {
                for dst in world.wave_targets_for(*id, *src, frame.dst, *directional) {
                    assert!(
                        self.in_flight.insert((dst.0, id.0)),
                        "audit[transceiver]: duplicate leading edge of signal {id:?} at {dst} \
                         ({now})"
                    );
                }
            }
            NetEvent::WaveEnd {
                src,
                id,
                frame,
                directional,
            } => {
                // The id-pinned lookup returns the footprint the leading
                // edge actually walked, even if a mobility epoch moved
                // nodes while the frame was on the air.
                for dst in world.wave_targets_for(*id, *src, frame.dst, *directional) {
                    assert!(
                        self.in_flight.remove(&(dst.0, id.0)),
                        "audit[transceiver]: trailing edge of signal {id:?} at {dst} without a \
                         leading edge ({now})"
                    );
                }
            }
            NetEvent::TxEnd { node } => {
                let until = self.tx_until[node.0];
                assert!(
                    until == Some(now),
                    "audit[transceiver]: TxEnd for {node} at {now} but its transmission ends at \
                     {until:?}"
                );
                assert!(
                    world.transceivers()[node.0].is_transmitting(),
                    "audit[transceiver]: TxEnd for {node} at {now} while its PHY is not \
                     transmitting"
                );
                self.ending = Some(node.0);
            }
            NetEvent::MacTimer { .. } | NetEvent::Arrival { .. } | NetEvent::MobilityEpoch => {}
        }
    }

    fn after_event(&mut self, now: SimTime, world: &NetWorld, _sched: &Scheduler<NetEvent>) {
        if let Some(node) = self.ending.take() {
            assert!(
                !world.transceivers()[node].is_transmitting(),
                "audit[transceiver]: node {node} still transmitting after its TxEnd ({now})"
            );
            self.tx_until[node] = None;
        }
        // New transmissions appear in the recorder at the instant they start.
        for (record, frame) in new_frames(world, &mut self.pushed, "transceiver") {
            let src = frame.src.0;
            assert!(
                self.tx_until[src].is_none(),
                "audit[transceiver]: {} began a transmission at {} while one was already on \
                 the air until {:?} (half-duplex violation)",
                frame.src,
                record.time,
                self.tx_until[src]
            );
            self.tx_until[src] = Some(record.time + world.params().frame_airtime(&frame));
        }
        // The shadow state and the PHY must agree between events.
        for (n, phy) in world.transceivers().iter().enumerate() {
            let shadow = self.tx_until[n].is_some();
            assert!(
                shadow == phy.is_transmitting(),
                "audit[transceiver]: node {n} shadow transmit state {shadow} disagrees with \
                 the PHY at {now}"
            );
        }
    }
}

/// Per-node airtime conservation: integrated over the whole run, the time
/// each PHY reports spending in transmission plus the time it reports idle
/// must equal the elapsed simulated time, and the transmit share must
/// exactly equal the summed airtime of the frames the node put on the air
/// (as derived independently from the recorder's `FrameTx` records and the
/// PHY timing parameters).
///
/// This cross-checks three things that are computed through separate code
/// paths — `TxEnd` scheduling, `frame_airtime`, and the PHY transmit flag —
/// and fires on any disagreement, e.g. a `TxEnd` scheduled with the wrong
/// duration.
#[derive(Debug, Default)]
pub struct AirtimeAuditor {
    last: SimTime,
    busy: Vec<SimDuration>,
    idle: Vec<SimDuration>,
    /// Airtime the recorded frames say each node transmitted.
    declared: Vec<SimDuration>,
    /// Scheduled end of each node's transmission in progress, to discount
    /// the unelapsed tail of an in-flight frame at `finish` time.
    tx_until: Vec<Option<SimTime>>,
    pushed: u64,
}

impl AirtimeAuditor {
    /// Creates the auditor.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_nodes(&mut self, world: &NetWorld) {
        let n = world.transceivers().len();
        if self.busy.len() < n {
            self.busy.resize(n, SimDuration::ZERO);
            self.idle.resize(n, SimDuration::ZERO);
            self.declared.resize(n, SimDuration::ZERO);
            self.tx_until.resize(n, None);
        }
    }

    /// Adds the interval since the last observation to each node's busy or
    /// idle account, according to its current PHY state (PHY state only
    /// changes inside event handlers, so it is constant over the interval).
    fn integrate(&mut self, now: SimTime, world: &NetWorld) {
        let dt = now.saturating_duration_since(self.last);
        if dt > SimDuration::ZERO {
            for (n, phy) in world.transceivers().iter().enumerate() {
                if phy.is_transmitting() {
                    self.busy[n] += dt;
                } else {
                    self.idle[n] += dt;
                }
            }
        }
        self.last = now;
    }
}

impl Auditor<NetWorld> for AirtimeAuditor {
    fn before_event(&mut self, now: SimTime, _event: &NetEvent, world: &NetWorld) {
        self.ensure_nodes(world);
        self.integrate(now, world);
    }

    fn after_event(&mut self, _now: SimTime, world: &NetWorld, _sched: &Scheduler<NetEvent>) {
        for (record, frame) in new_frames(world, &mut self.pushed, "airtime") {
            let src = frame.src.0;
            let airtime = world.params().frame_airtime(&frame);
            self.declared[src] += airtime;
            self.tx_until[src] = Some(record.time + airtime);
        }
    }

    fn finish(&mut self, now: SimTime, world: &NetWorld) {
        self.ensure_nodes(world);
        self.integrate(now, world);
        for n in 0..self.busy.len() {
            let elapsed = now.saturating_duration_since(SimTime::ZERO);
            assert!(
                self.busy[n] + self.idle[n] == elapsed,
                "audit[airtime]: node {n} busy {:?} + idle {:?} != elapsed {elapsed:?}",
                self.busy[n],
                self.idle[n]
            );
            // Discount the tail of a frame still on the air at `now`.
            let mut declared = self.declared[n];
            if let Some(until) = self.tx_until[n] {
                declared -= until.saturating_duration_since(now);
            }
            assert!(
                self.busy[n] == declared,
                "audit[airtime]: node {n} PHY-integrated transmit time {:?} != recorded \
                 airtime {declared:?}",
                self.busy[n]
            );
        }
    }
}
