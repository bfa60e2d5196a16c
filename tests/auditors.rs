//! The runtime invariant auditors: each must stay silent on a healthy
//! (golden) run and fire on corrupted state.

use dirca_analysis::{markov_audit, steady_state, ChainInput};
use dirca_mac::{DataPacket, Dot11Params, Frame, MacConfig, MacContext, Scheme, TimerKind};
use dirca_net::audit::{standard_auditors, AirtimeAuditor, NavAuditor, TransceiverAuditor};
use dirca_net::trace::{RingTrace, TraceRecord};
use dirca_net::{NetEvent, NetWorld, SimConfig};
use dirca_radio::{NodeId, SignalId};
use dirca_sim::audit::{Auditor, CausalityAuditor};
use dirca_sim::{SimDuration, SimTime, Simulation, TimerGeneration};
use dirca_topology::fixtures;

fn quick(scheme: Scheme, seed: u64) -> SimConfig {
    SimConfig::new(scheme)
        .with_seed(seed)
        .with_warmup(SimDuration::from_millis(50))
        .with_measure(SimDuration::from_millis(400))
}

/// The recorder the auditors read.
fn recorder() -> RingTrace {
    RingTrace::with_capacity(1 << 16)
}

/// Builds a primed simulation of `scheme` on the hidden-terminal fixture
/// with `recorder` attached.
fn audited_sim_with(scheme: Scheme, seed: u64, recorder: RingTrace) -> Simulation<NetWorld> {
    let topo = fixtures::hidden_terminal();
    let mut world = NetWorld::build(&topo, &quick(scheme, seed));
    world.attach_recorder(recorder);
    let mut sim = Simulation::new(world);
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.prime(sched);
    }
    sim
}

/// [`audited_sim_with`] on a recorder that holds the whole run.
fn audited_sim(scheme: Scheme, seed: u64) -> Simulation<NetWorld> {
    audited_sim_with(scheme, seed, recorder())
}

// ---------------------------------------------------------------------
// Golden runs: every auditor observes a healthy simulation end to end and
// must not fire.
// ---------------------------------------------------------------------

#[test]
fn all_auditors_silent_on_golden_runs() {
    for scheme in Scheme::ALL {
        let mut sim = audited_sim(scheme, 11);
        for auditor in standard_auditors() {
            sim.add_auditor(auditor);
        }
        sim.run_until(SimTime::from_millis(500));
        sim.finish_audit();
        assert!(sim.world().macs().iter().any(|m| m.counters().rts_tx > 0));
    }
}

#[test]
fn auditors_silent_on_directional_parallel_pairs() {
    let topo = fixtures::parallel_pairs();
    let mut world = NetWorld::build(
        &topo,
        &quick(Scheme::DrtsDcts, 3).with_beamwidth_degrees(30.0),
    );
    world.attach_recorder(recorder());
    let mut sim = Simulation::new(world);
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.prime(sched);
    }
    for auditor in standard_auditors() {
        sim.add_auditor(auditor);
    }
    sim.run_until(SimTime::from_millis(500));
    sim.finish_audit();
}

#[test]
fn auditors_silent_under_fault_injection() {
    // Fault injection must not bend any physical invariant: corrupted and
    // outage-lost receptions still balance airtime, wave edges, and NAV
    // bookkeeping. Run with an aggressive FER plus a mid-run outage and
    // keep every auditor installed.
    let topo = fixtures::hidden_terminal();
    let plan = dirca_net::FaultPlan::default()
        .with_frame_error_rate(0.25)
        .with_outage(
            NodeId(1),
            SimTime::from_millis(100),
            SimTime::from_millis(220),
        );
    let mut world = NetWorld::build(&topo, &quick(Scheme::OrtsOcts, 9).with_fault(plan));
    world.attach_recorder(recorder());
    let mut sim = Simulation::new(world);
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.prime(sched);
    }
    for auditor in standard_auditors() {
        sim.add_auditor(auditor);
    }
    sim.run_until(SimTime::from_millis(500));
    sim.finish_audit();
    let faults_hit: u64 = sim
        .world()
        .app_stats()
        .iter()
        .map(|a| a.fer_losses + a.outage_losses)
        .sum();
    assert!(faults_hit > 0, "the plan must actually inject losses");
}

#[test]
fn auditors_read_every_frame_of_a_wrapped_ring() {
    // A 256-record ring wraps several times over the run; the auditors
    // count every record pushed, so they still see each new frame (the
    // airtime balance at `finish_audit` fails on any frame they miss).
    let mut sim = audited_sim_with(Scheme::DrtsOcts, 11, RingTrace::with_capacity(256));
    for auditor in standard_auditors() {
        sim.add_auditor(auditor);
    }
    sim.run_until(SimTime::from_millis(500));
    sim.finish_audit();
    let ring = sim.world().recorder().expect("recorder attached");
    assert!(
        ring.overwritten() > 2 * 256,
        "the ring barely wrapped: {}",
        ring.overwritten()
    );
}

#[test]
#[should_panic(expected = "audit[nav]: the 64-record ring had already overwritten")]
fn auditor_installed_after_the_ring_wrapped_says_so() {
    // Installed late, the auditor has read nothing yet, so every record
    // since t = 0 is new to it; a ring that already wrapped lost some.
    let mut sim = audited_sim_with(Scheme::DrtsOcts, 11, RingTrace::with_capacity(64));
    sim.run_until(SimTime::from_millis(100));
    assert!(
        sim.world()
            .recorder()
            .expect("recorder attached")
            .overwritten()
            > 0
    );
    sim.add_auditor(Box::new(NavAuditor::new()));
    sim.run_until(SimTime::from_millis(120));
}

#[test]
#[should_panic(expected = "audit[nav]: NetWorld::attach_recorder must be called")]
fn auditors_refuse_a_world_without_a_recorder() {
    let topo = fixtures::hidden_terminal();
    let mut sim = Simulation::new(NetWorld::build(&topo, &quick(Scheme::OrtsOcts, 11)));
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.prime(sched);
    }
    for auditor in standard_auditors() {
        sim.add_auditor(auditor);
    }
    sim.run_until(SimTime::from_millis(10));
}

// ---------------------------------------------------------------------
// Causality.
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "audit[causality]")]
fn causality_auditor_fires_on_backwards_clock() {
    let world = NetWorld::build(&fixtures::pair(0.5, 1.0), &quick(Scheme::OrtsOcts, 1));
    let mut auditor = CausalityAuditor::new();
    let event = NetEvent::Arrival { node: NodeId(0) };
    Auditor::<NetWorld>::before_event(&mut auditor, SimTime::from_micros(50), &event, &world);
    // A later dispatch carrying an earlier timestamp: corrupted ordering.
    Auditor::<NetWorld>::before_event(&mut auditor, SimTime::from_micros(10), &event, &world);
}

// ---------------------------------------------------------------------
// NAV consistency.
// ---------------------------------------------------------------------

/// A minimal MacContext: enough to drive a DcfMac into a corrupted-looking
/// state without a full network behind it.
struct NullCtx {
    now: SimTime,
}

impl MacContext for NullCtx {
    fn now(&self) -> SimTime {
        self.now
    }
    fn carrier_busy(&self) -> bool {
        false
    }
    fn transmit(&mut self, _frame: Frame, _directional: bool) {}
    fn schedule_timer(&mut self, _kind: TimerKind, _gen: TimerGeneration, _delay: SimDuration) {}
    fn draw_backoff_slots(&mut self, _cw: u32) -> u32 {
        0
    }
    fn deliver(&mut self, _frame: &Frame) {}
    fn packet_done(&mut self, _packet: DataPacket, _success: bool) {}
}

#[test]
#[should_panic(expected = "audit[nav]")]
fn nav_auditor_fires_on_rts_inside_reservation() {
    let params = Dot11Params::default();
    let mut mac = dirca_mac::DcfMac::new(
        NodeId(0),
        Scheme::OrtsOcts,
        params.clone(),
        MacConfig::default(),
    );
    // Overhear a third-party RTS: the MAC reserves its NAV for the
    // announced duration.
    let overheard = Frame::rts(NodeId(1), NodeId(2), 1460, &params);
    let mut ctx = NullCtx {
        now: SimTime::from_micros(100),
    };
    mac.on_frame_received(overheard, &mut ctx);
    assert!(mac.nav().is_busy(SimTime::from_micros(150)));
    // A record claiming this node sent an RTS mid-reservation is a
    // deferral bug; the auditor must call it out.
    let record = TraceRecord::transmission(
        SimTime::from_micros(150),
        &Frame::rts(NodeId(0), NodeId(1), 1460, &params),
        false,
    );
    NavAuditor::check_entry(&record, &mac);
}

#[test]
fn nav_auditor_silent_on_rts_after_expiry() {
    let params = Dot11Params::default();
    let mut mac = dirca_mac::DcfMac::new(
        NodeId(0),
        Scheme::OrtsOcts,
        params.clone(),
        MacConfig::default(),
    );
    let overheard = Frame::rts(NodeId(1), NodeId(2), 1460, &params);
    let mut ctx = NullCtx {
        now: SimTime::from_micros(100),
    };
    mac.on_frame_received(overheard, &mut ctx);
    let record = TraceRecord::transmission(
        mac.nav().until(), // the reservation is half-open: free again
        &Frame::rts(NodeId(0), NodeId(1), 1460, &params),
        false,
    );
    NavAuditor::check_entry(&record, &mac);
}

// ---------------------------------------------------------------------
// Transceiver state-machine legality.
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "audit[transceiver]")]
fn transceiver_auditor_fires_on_orphan_signal_end() {
    let world = NetWorld::build(&fixtures::pair(0.5, 1.0), &quick(Scheme::OrtsOcts, 1));
    let mut auditor = TransceiverAuditor::new();
    let params = world.params().clone();
    // A trailing edge whose leading edge never happened: the wave from
    // node 0 covers node 1, whose `(dst, id)` pair was never inserted.
    let event = NetEvent::WaveEnd {
        src: NodeId(0),
        id: SignalId(9),
        frame: Frame::rts(NodeId(0), NodeId(1), 1460, &params),
        directional: false,
    };
    auditor.before_event(SimTime::from_micros(10), &event, &world);
}

#[test]
#[should_panic(expected = "audit[transceiver]")]
fn transceiver_auditor_fires_on_txend_without_transmission() {
    let world = NetWorld::build(&fixtures::pair(0.5, 1.0), &quick(Scheme::OrtsOcts, 1));
    let mut auditor = TransceiverAuditor::new();
    let event = NetEvent::TxEnd { node: NodeId(0) };
    auditor.before_event(SimTime::from_micros(10), &event, &world);
}

// ---------------------------------------------------------------------
// Airtime conservation.
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "audit[airtime]")]
fn airtime_auditor_fires_when_installed_mid_run() {
    // The auditor integrates PHY transmit time from simulated time zero; a
    // run it only observed partway has recorded airtime it never saw
    // on the PHY, and the conservation check must fail rather than report
    // a bogus balance.
    let mut sim = audited_sim(Scheme::OrtsOcts, 5);
    sim.run_until(SimTime::from_millis(100));
    sim.add_auditor(Box::new(AirtimeAuditor::new()));
    sim.run_until(SimTime::from_millis(120));
    sim.finish_audit();
}

// ---------------------------------------------------------------------
// Markov-chain stochasticity.
// ---------------------------------------------------------------------

fn chain(p_ww: f64, p_ws: f64) -> ChainInput {
    ChainInput {
        p_ww,
        p_ws,
        t_succeed: 119.0,
        t_fail: 12.0,
        l_data: 100.0,
    }
}

#[test]
fn markov_audit_silent_on_valid_chain() {
    let input = chain(0.9, 0.05);
    // steady_state self-checks every solve.
    let ss = steady_state(&input);
    markov_audit::assert_stochastic(&markov_audit::transition_matrix(&input));
    markov_audit::assert_fixed_point(&input, &ss);
}

#[test]
#[should_panic(expected = "audit[markov]")]
fn markov_audit_fires_on_non_stochastic_row() {
    // Row 0 sums to 1.2: not a probability distribution.
    let m = [[0.9, 0.2, 0.1], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]];
    markov_audit::assert_stochastic(&m);
}

#[test]
#[should_panic(expected = "audit[markov]")]
fn markov_audit_fires_on_negative_probability() {
    let m = [[1.1, -0.1, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]];
    markov_audit::assert_stochastic(&m);
}

#[test]
#[should_panic(expected = "audit[markov]")]
fn markov_audit_fires_on_fake_fixed_point() {
    let input = chain(0.9, 0.05);
    let mut ss = steady_state(&input);
    // Shift probability mass between states: still sums to one, but no
    // longer a fixed point of the transition matrix.
    ss.wait -= 0.05;
    ss.fail += 0.05;
    markov_audit::assert_fixed_point(&input, &ss);
}
