//! Golden-trace test: a single scripted handshake must put exactly the
//! right frames on the air at exactly the right instants.
//!
//! This pins the entire timing chain end-to-end — DIFS, backoff slots,
//! frame airtimes (sync + serialization), propagation delay, and the SIFS
//! gaps — against hand-computed values from Table 1.

// Unwraps and exact float comparisons are idiomatic in test assertions.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

mod common;

use dirca_mac::{FrameKind, Scheme};
use dirca_net::{NetWorld, SimConfig, TrafficModel};
use dirca_radio::NodeId;
use dirca_sim::{rng::stream_rng, SimDuration, SimTime, Simulation};
use dirca_topology::fixtures;
use rand::Rng;

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

#[test]
fn scripted_handshake_matches_hand_computed_timeline() {
    let seed = 99;
    let mut config = SimConfig::new(Scheme::OrtsOcts).with_seed(seed);
    config.traffic = TrafficModel::Manual; // we inject one packet by hand
    let topo = fixtures::pair(0.5, 1.0);
    let mut world = NetWorld::build(&topo, &config);
    world.attach_recorder(common::recorder());
    let mut sim = Simulation::new(world);
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.enqueue_packet(NodeId(0), NodeId(1), 1460, sched);
    }
    sim.run_until(SimTime::from_millis(100));

    // Replicate node 0's first RNG draw: with no traffic generator, the
    // backoff draw is the first use of its stream.
    let backoff_slots = u64::from(stream_rng(seed, 0).random_range(0..=31u32));

    let trace = common::world_log(sim.world());
    assert_eq!(trace.len(), 4, "exactly one four-way handshake: {trace:?}");

    // Hand-computed instants (Table 1, DSSS 2 Mbps):
    //   RTS  at DIFS + k·slot
    //   CTS  at RTS + 272 µs air + 1 µs prop + 10 µs SIFS
    //   DATA at CTS + 248 µs air + 1 µs prop + 10 µs SIFS
    //   ACK  at DATA + 6032 µs air + 1 µs prop + 10 µs SIFS
    let rts_t = SimTime::ZERO + us(50) + us(20) * backoff_slots;
    let cts_t = rts_t + us(272) + us(1) + us(10);
    let data_t = cts_t + us(248) + us(1) + us(10);
    let ack_t = data_t + us(6032) + us(1) + us(10);

    let expect = [
        (FrameKind::Rts, NodeId(0), NodeId(1), rts_t),
        (FrameKind::Cts, NodeId(1), NodeId(0), cts_t),
        (FrameKind::Data, NodeId(0), NodeId(1), data_t),
        (FrameKind::Ack, NodeId(1), NodeId(0), ack_t),
    ];
    for (entry, (kind, src, dst, at)) in trace.iter().zip(expect) {
        assert_eq!(entry.frame.kind, kind);
        assert_eq!(entry.frame.src, src);
        assert_eq!(entry.frame.dst, dst);
        assert_eq!(entry.time, at, "{kind} at {} but expected {at}", entry.time);
        assert!(!entry.directional, "ORTS-OCTS frames are all omni");
    }

    // The handshake completed: sender counts one acked packet.
    let acked: u64 = sim
        .world()
        .macs()
        .iter()
        .map(|m| m.counters().packets_acked)
        .sum();
    assert_eq!(acked, 1);
}

#[test]
fn drts_dcts_trace_marks_all_frames_directional() {
    let mut config = SimConfig::new(Scheme::DrtsDcts)
        .with_seed(3)
        .with_beamwidth_degrees(30.0);
    config.traffic = TrafficModel::Manual;
    let topo = fixtures::pair(0.5, 1.0);
    let mut world = NetWorld::build(&topo, &config);
    world.attach_recorder(common::recorder());
    let mut sim = Simulation::new(world);
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.enqueue_packet(NodeId(0), NodeId(1), 1460, sched);
    }
    sim.run_until(SimTime::from_millis(100));
    let trace = common::world_log(sim.world());
    assert_eq!(trace.len(), 4);
    assert!(trace.iter().all(|e| e.directional));
}

#[test]
fn drts_octs_trace_has_omni_cts_only() {
    let mut config = SimConfig::new(Scheme::DrtsOcts)
        .with_seed(3)
        .with_beamwidth_degrees(30.0);
    config.traffic = TrafficModel::Manual;
    let topo = fixtures::pair(0.5, 1.0);
    let mut world = NetWorld::build(&topo, &config);
    world.attach_recorder(common::recorder());
    let mut sim = Simulation::new(world);
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.enqueue_packet(NodeId(0), NodeId(1), 1460, sched);
    }
    sim.run_until(SimTime::from_millis(100));
    for entry in common::world_log(sim.world()) {
        assert_eq!(
            entry.directional,
            entry.frame.kind != FrameKind::Cts,
            "wrong beam decision for {}",
            entry.frame
        );
    }
}

#[test]
fn nav_defers_third_party_through_whole_handshake() {
    // A — B exchange with C parked next to A: C receives its own packet
    // for B mid-handshake and must not transmit until A's exchange (and
    // the NAV it advertised) completes.
    let topo = fixtures::hidden_terminal(); // A(0) — B(1) — C(2)
    let mut config = SimConfig::new(Scheme::OrtsOcts).with_seed(5);
    config.traffic = TrafficModel::Manual;
    let mut world = NetWorld::build(&topo, &config);
    world.attach_recorder(common::recorder());
    let mut sim = Simulation::new(world);
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.enqueue_packet(NodeId(0), NodeId(1), 1460, sched);
    }
    // Let the RTS/CTS happen, then give C a packet mid-exchange.
    sim.run_until(SimTime::from_millis(1));
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.enqueue_packet(NodeId(2), NodeId(1), 1460, sched);
    }
    sim.run_until(SimTime::from_millis(100));

    let trace = common::world_log(sim.world());
    // C heard B's CTS (it is B's neighbour), so its RTS must come after
    // A's ACK arrives — i.e. after the whole first handshake.
    let first_ack = trace
        .iter()
        .find(|e| e.frame.kind == FrameKind::Ack)
        .expect("first handshake completed")
        .time;
    let c_rts = trace
        .iter()
        .find(|e| e.frame.kind == FrameKind::Rts && e.frame.src == NodeId(2))
        .expect("C eventually transmits")
        .time;
    assert!(
        c_rts > first_ack,
        "C transmitted at {c_rts} before the reserved exchange finished at {first_ack}"
    );
    // And both packets were ultimately delivered.
    let acked: u64 = sim
        .world()
        .macs()
        .iter()
        .map(|m| m.counters().packets_acked)
        .sum();
    assert_eq!(acked, 2);
}
