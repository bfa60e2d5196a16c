//! Behavior of the deterministic fault-injection layer: zero-fault
//! transparency, seed reproducibility, FER-driven retry pressure, per-link
//! asymmetry, and outage recovery.

mod common;

use dirca_mac::Scheme;
use dirca_net::{run, FaultPlan, NetWorld, RunResult, SimConfig};
use dirca_radio::NodeId;
use dirca_sim::{SimDuration, SimTime, Simulation};
use dirca_topology::fixtures;

fn quick(scheme: Scheme) -> SimConfig {
    SimConfig::new(scheme)
        .with_seed(42)
        .with_warmup(SimDuration::from_millis(50))
        .with_measure(SimDuration::from_millis(500))
}

fn fingerprint(r: &RunResult) -> (u64, u64, u64, u64) {
    (
        r.events_processed(),
        r.packets_acked(),
        r.packets_dropped(),
        r.aggregate_counters().rts_tx,
    )
}

#[test]
fn trivial_plan_is_byte_identical_to_no_plan() {
    // The full byte-identity claim is pinned by the golden ring-trace
    // hashes; this cross-checks it on a different fixture, comparing a run
    // with no fault plan against one with an explicitly-trivial plan.
    let topo = fixtures::hidden_terminal();
    let base = run(&topo, &quick(Scheme::DrtsOcts));
    let trivial = run(
        &topo,
        &quick(Scheme::DrtsOcts).with_fault(FaultPlan::default()),
    );
    assert_eq!(fingerprint(&base), fingerprint(&trivial));
    assert_eq!(trivial.fer_losses(), 0);
    assert_eq!(trivial.outage_losses(), 0);
}

#[test]
fn faulted_runs_are_seed_reproducible() {
    let topo = fixtures::hidden_terminal();
    let plan = FaultPlan::default().with_frame_error_rate(0.15);
    let cfg = quick(Scheme::OrtsOcts).with_fault(plan);
    let a = run(&topo, &cfg);
    let b = run(&topo, &cfg);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.fer_losses(), b.fer_losses());
    assert!(a.fer_losses() > 0, "a 15% FER must corrupt something");
}

#[test]
fn fer_degrades_throughput_and_exercises_retries() {
    let topo = fixtures::pair(0.5, 1.0);
    let clean = run(&topo, &quick(Scheme::OrtsOcts));
    let noisy = run(
        &topo,
        &quick(Scheme::OrtsOcts).with_fault(FaultPlan::default().with_frame_error_rate(0.3)),
    );
    assert!(
        noisy.aggregate_throughput_bps() < 0.8 * clean.aggregate_throughput_bps(),
        "30% FER should cost well over 20% throughput: {} vs {}",
        noisy.aggregate_throughput_bps(),
        clean.aggregate_throughput_bps()
    );
    assert!(noisy.fer_losses() > 0);
    let counters = noisy.aggregate_counters();
    assert!(
        counters.cts_timeouts + counters.ack_timeouts > 0,
        "corrupted handshakes must surface as MAC timeouts"
    );
    assert_eq!(clean.fer_losses(), 0, "clean run must inject nothing");
}

#[test]
fn link_fault_is_directional_and_exhausts_retries() {
    // Kill only the 0 -> 1 direction. Nothing node 0 sends ever reaches
    // node 1 — so neither handshake direction can complete (node 1 loses
    // the CTS/ACK responses it needs) and both senders burn through their
    // retry limits. The direction still shows: node 0 hears node 1's RTS
    // and answers with CTS, node 1 never hears an RTS at all.
    let topo = fixtures::pair(0.5, 1.0);
    let plan = FaultPlan::default().with_link_fault(NodeId(0), NodeId(1), 1.0);
    let r = run(&topo, &quick(Scheme::OrtsOcts).with_fault(plan));
    let n0 = &r.nodes[0].counters;
    let n1 = &r.nodes[1].counters;
    assert_eq!(r.packets_acked(), 0, "no handshake survives a dead link");
    assert!(
        n0.packets_dropped > 0 && n1.packets_dropped > 0,
        "both senders must exhaust their retry limits: {} / {}",
        n0.packets_dropped,
        n1.packets_dropped
    );
    assert!(
        n0.cts_tx > 0,
        "the clean 1 -> 0 direction still delivers RTS"
    );
    assert_eq!(n1.cts_tx, 0, "node 1 never hears an RTS on the dead link");
    assert!(r.fer_losses() > 0);
}

#[test]
fn outage_window_loses_frames_then_recovers() {
    // Node 1 is dead for the middle of the run; node 0 keeps trying
    // (dropping some packets to retry exhaustion) and recovers afterwards.
    let topo = fixtures::pair(0.5, 1.0);
    let plan = FaultPlan::default().with_outage(
        NodeId(1),
        SimTime::from_millis(100),
        SimTime::from_millis(300),
    );
    let cfg = quick(Scheme::OrtsOcts)
        .with_warmup(SimDuration::ZERO)
        .with_measure(SimDuration::from_millis(600))
        .with_fault(plan);
    let r = run(&topo, &cfg);
    let n0 = &r.nodes[0].counters;
    assert!(
        r.outage_losses() > 0,
        "frames must be lost at the dead radio"
    );
    assert!(
        n0.packets_dropped > 0,
        "the sender must exhaust retries against a dead peer"
    );
    assert!(
        n0.packets_acked > 0,
        "traffic must resume once the radio returns"
    );
    // Control: without the outage nothing is dropped on this clean link.
    let clean = run(&topo, &quick(Scheme::OrtsOcts));
    assert_eq!(clean.packets_dropped(), 0);
}

#[test]
fn muted_node_radiates_nothing_during_outage() {
    // With node 0 dead from the start, node 1 never hears a single frame:
    // its delivered counter stays zero while node 0 still spends airtime
    // trying (checked through the world's app stats).
    let topo = fixtures::pair(0.5, 1.0);
    let plan =
        FaultPlan::default().with_outage(NodeId(0), SimTime::ZERO, SimTime::from_millis(100));
    let cfg = quick(Scheme::OrtsOcts)
        .with_warmup(SimDuration::ZERO)
        .with_measure(SimDuration::from_millis(100))
        .with_fault(plan.clone())
        .with_traffic(dirca_net::TrafficModel::Manual);
    let mut world = NetWorld::build(&topo, &cfg);
    world.attach_recorder(common::recorder());
    let mut sim = Simulation::new(world);
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.prime(sched);
        world.enqueue_packet(NodeId(0), NodeId(1), 512, sched);
    }
    sim.run_until(SimTime::from_millis(50));
    let world = sim.world();
    assert!(
        world.macs()[0].counters().rts_tx > 0,
        "the muted MAC still attempts its handshake"
    );
    assert_eq!(
        world.macs()[1].counters().cts_tx,
        0,
        "node 1 never hears the RTS, so it never answers"
    );
    assert_eq!(
        world.app_stats()[1].delivered,
        0,
        "nothing can arrive from a muted radio"
    );
}

#[test]
fn fault_draws_do_not_disturb_backoff_streams() {
    // Two runs with different FER but the same seed must present the MACs
    // with the same backoff draws: the contention RNG streams are isolated
    // from the fault streams, so raising the FER changes outcomes only
    // through the injected losses themselves. Observable proxy: the first
    // transmission of each run happens at the same instant.
    let topo = fixtures::pair(0.5, 1.0);
    let trace_start = |fer: f64| {
        let cfg =
            quick(Scheme::OrtsOcts).with_fault(FaultPlan::default().with_frame_error_rate(fer));
        let mut world = NetWorld::build(&topo, &cfg);
        world.attach_recorder(common::recorder());
        let mut sim = Simulation::new(world);
        {
            let (world, sched) = sim.world_and_scheduler_mut();
            world.prime(sched);
        }
        sim.run_until(SimTime::from_millis(20));
        common::world_log(sim.world())[0].time
    };
    assert_eq!(trace_start(0.4), trace_start(0.0));
}
