//! Pinned wave receivers: each trailing edge walks the receivers its own
//! leading edge pinned, also when one node has two waves in flight.
//!
//! A node's waves are its transmissions shifted by one constant
//! propagation delay, and the half-duplex MAC never starts a frame before
//! its previous one left the air, so a simulated node has at most one wave
//! in flight however long the delay is: the first test runs a ring with a
//! delay far above SIFS and checks exactly that. The world still accepts
//! an overlapping pair without panicking; the second test injects one
//! through the event queue.

mod common;

use std::collections::BTreeMap;

use dirca_geometry::Point;
use dirca_mac::{Frame, Scheme};
use dirca_net::audit::TransceiverAuditor;
use dirca_net::{NetEvent, NetWorld, SimConfig, TrafficModel};
use dirca_radio::{NodeId, SignalId};
use dirca_sim::audit::Auditor;
use dirca_sim::{Scheduler, SimTime, Simulation};
use dirca_topology::Topology;

/// Records, per signal, the receivers its leading edge pinned, and checks
/// that its trailing edge walks exactly those.
#[derive(Debug)]
struct WaveLedger {
    /// Whether some node must have had two waves in flight at once.
    expect_overlap: bool,
    /// The wave whose leading edge is being dispatched: its id,
    /// transmitter, aim, mode, and the receivers it is expected to reach.
    starting: Option<(SignalId, NodeId, NodeId, bool, Vec<NodeId>)>,
    /// Receivers pinned by each wave in flight, with its transmitter.
    pinned: BTreeMap<u64, (NodeId, Vec<NodeId>)>,
    /// Most waves one transmitter had in flight at once.
    most_in_flight: usize,
    /// A wave left while another of its node was in flight and the two
    /// reached different receivers, so a mix-up could not go unseen.
    overlapped_distinct: bool,
    ended: u64,
}

impl WaveLedger {
    fn new(expect_overlap: bool) -> Self {
        WaveLedger {
            expect_overlap,
            starting: None,
            pinned: BTreeMap::new(),
            most_in_flight: 0,
            overlapped_distinct: false,
            ended: 0,
        }
    }
}

impl Auditor<NetWorld> for WaveLedger {
    fn before_event(&mut self, _now: SimTime, event: &NetEvent, world: &NetWorld) {
        match *event {
            NetEvent::WaveStart {
                src,
                id,
                frame,
                directional,
            } => {
                let expected = world.wave_targets_for(id, src, frame.dst, directional);
                self.starting = Some((id, src, frame.dst, directional, expected));
            }
            NetEvent::WaveEnd {
                src,
                id,
                frame,
                directional,
            } => {
                let (owner, pinned) = self
                    .pinned
                    .remove(&id.0)
                    .expect("trailing edge of a wave that never started");
                assert_eq!(owner, src);
                assert_eq!(
                    world.wave_targets_for(id, src, frame.dst, directional),
                    pinned,
                    "the trailing edge of {id:?} would walk another wave's receivers"
                );
                self.ended += 1;
            }
            _ => {}
        }
    }

    fn after_event(&mut self, _now: SimTime, world: &NetWorld, _sched: &Scheduler<NetEvent>) {
        let Some((id, src, aim, directional, expected)) = self.starting.take() else {
            return;
        };
        // Static positions: the pin holds exactly this wave's receivers.
        let receivers = world.wave_targets_for(id, src, aim, directional);
        assert_eq!(
            receivers, expected,
            "{id:?} pinned another wave's receivers"
        );
        let siblings: Vec<&Vec<NodeId>> = self
            .pinned
            .values()
            .filter(|(owner, _)| *owner == src)
            .map(|(_, r)| r)
            .collect();
        self.most_in_flight = self.most_in_flight.max(siblings.len() + 1);
        self.overlapped_distinct |= siblings.iter().any(|r| **r != receivers);
        self.pinned.insert(id.0, (src, receivers));
    }

    fn finish(&mut self, _now: SimTime, _world: &NetWorld) {
        assert!(self.ended > 0, "no wave ended");
        if self.expect_overlap {
            assert!(self.most_in_flight >= 2, "no node had two waves in flight");
            assert!(
                self.overlapped_distinct,
                "no two overlapping waves of one node reached different receivers"
            );
        } else {
            assert_eq!(self.most_in_flight, 1, "a node's waves overlapped");
        }
    }
}

/// A primed simulation of `world` with the transceiver auditor and a
/// ledger attached.
fn audited(world: NetWorld, expect_overlap: bool) -> Simulation<NetWorld> {
    let mut sim = Simulation::new(world);
    sim.add_auditor(Box::new(TransceiverAuditor::new()));
    sim.add_auditor(Box::new(WaveLedger::new(expect_overlap)));
    let (world, sched) = sim.world_and_scheduler_mut();
    world.prime(sched);
    sim
}

#[test]
fn a_delay_far_above_sifs_still_leaves_one_wave_per_node_in_flight() {
    let seed = 7;
    let topology = common::ring_topology(seed);
    let mut config = SimConfig::new(Scheme::DrtsDcts)
        .with_seed(seed)
        .with_beamwidth_degrees(30.0);
    config.params.propagation_delay = config.params.sifs * 10;
    assert!(config.params.propagation_delay > config.params.difs);

    let mut world = NetWorld::build(&topology, &config);
    world.attach_recorder(common::recorder());
    let mut sim = audited(world, false);
    sim.run_until(SimTime::from_millis(300));
    sim.finish_audit();
}

#[test]
fn two_waves_in_flight_from_one_node_each_walk_their_own_receivers() {
    // Node 0 with one neighbour east and one north: a 30° beam at either
    // reaches only that one.
    let topology = Topology {
        positions: vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::new(0.0, 0.5),
        ],
        range: 1.0,
        measured: 3,
    };
    let mut config = SimConfig::new(Scheme::DrtsDcts)
        .with_seed(3)
        .with_beamwidth_degrees(30.0)
        .with_traffic(TrafficModel::Manual);
    config.params.propagation_delay = config.params.sifs * 2;
    let mut world = NetWorld::build(&topology, &config);
    world.attach_recorder(common::recorder());
    let mut sim = audited(world, true);

    // Three waves from node 0, ids clear of the world's own counter: `a`
    // east, `b` north while `a` is on the air, then `c` east after `a`
    // ended, while `b` still is.
    let params = config.params.clone();
    let east = Frame::rts(NodeId(0), NodeId(1), 512, &params);
    let north = Frame::rts(NodeId(0), NodeId(2), 512, &params);
    let airtime = params.frame_airtime(&east);
    let t0 = SimTime::from_millis(1);
    let stagger = airtime / 2;
    let waves = [
        (SignalId(1 << 40), east, t0),
        (SignalId((1 << 40) + 1), north, t0 + stagger),
        (SignalId((1 << 40) + 2), east, t0 + airtime + stagger / 2),
    ];
    let sched = sim.scheduler_mut();
    for (id, frame, at) in waves {
        let (src, directional) = (NodeId(0), true);
        sched.schedule_at(
            at,
            NetEvent::WaveStart {
                src,
                id,
                frame,
                directional,
            },
        );
        sched.schedule_at(
            at + airtime,
            NetEvent::WaveEnd {
                src,
                id,
                frame,
                directional,
            },
        );
    }
    sim.run_until(SimTime::from_millis(20));
    sim.finish_audit();
}
