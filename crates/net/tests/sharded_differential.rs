//! Differential battery: the sharded engine against the classic one over
//! the configuration space the golden batteries leave out.
//!
//! `sharded_golden.rs` pins saturated, fault-free, omni-reception rings.
//! This battery draws scheme × beamwidth × fault plan × traffic ×
//! reception mode on small random rings and requires, for every draw:
//!
//! 1. **One shard ≡ classic** — the one-stripe merged recorder stream (the
//!    frame log and every other record kind) equals the classic engine's,
//!    and so do the event count and every [`dirca_net::NodeReport`] of the
//!    full warm-up + measurement lifecycle.
//! 2. **Four shards, worker-invariant** — the four-stripe run gives the
//!    same records, event count and reports on 1 and 2 workers, and the
//!    same event count and reports with no recorders attached.
//!
//! With the `audit` feature the classic side runs under the standard
//! runtime auditors, so each drawn configuration is also checked for NAV,
//! transceiver, airtime and causality violations.

mod common;

use dirca_geometry::Beamwidth;
use dirca_mac::Scheme;
use dirca_net::trace::TraceRecord;
use dirca_net::{
    run, run_sharded, FaultPlan, NetWorld, RunResult, ShardedNetSim, SimConfig, TrafficModel,
};
use dirca_radio::{NodeId, ReceptionMode};
use dirca_sim::rng::stream_rng;
use dirca_sim::{SimDuration, SimTime, Simulation};
use dirca_topology::{RingSpec, Topology};
use proptest::prelude::*;

const WARMUP: SimDuration = SimDuration::from_millis(20);
const MEASURE: SimDuration = SimDuration::from_millis(180);

/// Which fault plan a case runs under.
#[derive(Debug, Clone, Copy)]
enum Faults {
    None,
    UniformFer,
    LinkFer,
    Outage,
}

/// Which reception model a case runs under.
#[derive(Debug, Clone, Copy)]
enum Reception {
    Omni,
    Directional,
    Capture,
}

/// One drawn configuration.
#[derive(Debug, Clone, Copy)]
struct Case {
    scheme: Scheme,
    theta: f64,
    faults: Faults,
    poisson: bool,
    reception: Reception,
    seed: u64,
}

fn case() -> impl Strategy<Value = Case> {
    (
        prop_oneof![
            Just(Scheme::OrtsOcts),
            Just(Scheme::DrtsDcts),
            Just(Scheme::DrtsOcts)
        ],
        prop_oneof![Just(30.0), Just(90.0), Just(150.0), Just(360.0)],
        prop_oneof![
            Just(Faults::None),
            Just(Faults::UniformFer),
            Just(Faults::LinkFer),
            Just(Faults::Outage)
        ],
        prop::bool::ANY,
        prop_oneof![
            Just(Reception::Omni),
            Just(Reception::Directional),
            Just(Reception::Capture)
        ],
        0u64..1_000,
    )
        .prop_map(|(scheme, theta, faults, poisson, reception, seed)| Case {
            scheme,
            theta,
            faults,
            poisson,
            reception,
            seed,
        })
}

/// The case's ring (`N = 3`, a few dozen nodes) and run configuration.
fn setup(case: &Case) -> (Topology, SimConfig) {
    let mut topo_rng = stream_rng(case.seed, 0xD1FF);
    let topology = RingSpec::paper(3, 1.0)
        .generate(&mut topo_rng)
        .expect("ring topology");
    // Node 0 is the ring's centre: it has neighbours, so its faults bite.
    let peer = NodeId(topology.adjacency()[0][0]);
    let fault = match case.faults {
        Faults::None => FaultPlan::default(),
        Faults::UniformFer => FaultPlan::default().with_frame_error_rate(0.2),
        Faults::LinkFer => FaultPlan::default()
            .with_link_fault(NodeId(0), peer, 0.6)
            .with_link_fault(peer, NodeId(0), 0.3),
        Faults::Outage => FaultPlan::default()
            .with_outage(
                NodeId(0),
                SimTime::from_millis(30),
                SimTime::from_millis(90),
            )
            .with_outage(peer, SimTime::from_millis(60), SimTime::from_millis(150)),
    };
    let traffic = if case.poisson {
        TrafficModel::Poisson {
            packets_per_sec: 200.0,
            max_queue: 4,
        }
    } else {
        TrafficModel::Saturated
    };
    let reception = match case.reception {
        Reception::Omni => ReceptionMode::Omni,
        Reception::Directional => ReceptionMode::Directional {
            beamwidth: Beamwidth::from_degrees(case.theta).expect("valid beamwidth"),
        },
        Reception::Capture => ReceptionMode::Capture { ratio: 1.5 },
    };
    let config = SimConfig::new(case.scheme)
        .with_seed(case.seed)
        .with_beamwidth_degrees(case.theta)
        .with_fault(fault)
        .with_traffic(traffic)
        .with_reception(reception)
        .with_warmup(WARMUP)
        .with_measure(MEASURE);
    (topology, config)
}

/// The classic engine's records over the whole run, under the
/// standard auditors when the `audit` feature is on.
fn classic_trace(topology: &Topology, config: &SimConfig) -> Vec<TraceRecord> {
    let mut world = NetWorld::build(topology, config);
    world.attach_recorder(common::recorder());
    let mut sim = Simulation::new(world);
    #[cfg(feature = "audit")]
    for auditor in dirca_net::audit::standard_auditors() {
        sim.add_auditor(auditor);
    }
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.prime(sched);
    }
    sim.run_until(SimTime::ZERO + WARMUP + MEASURE);
    sim.finish_audit();
    common::world_records(sim.world())
}

/// One sharded lifecycle: the merged records plus the collected result.
fn sharded(
    topology: &Topology,
    config: &SimConfig,
    shards: u32,
    workers: usize,
) -> (Vec<TraceRecord>, RunResult) {
    let mut sim = ShardedNetSim::build(topology, config, shards);
    common::attach_recorders(&mut sim);
    sim.prime();
    let warmup_end = SimTime::ZERO + WARMUP;
    sim.run_until(warmup_end, workers);
    sim.reset_counters();
    sim.run_until(warmup_end + MEASURE, workers);
    let trace = common::merged_records(&sim);
    (trace, sim.into_result(MEASURE))
}

/// Everything a result says, node by node (`NodeReport` has no `Eq`; its
/// debug form covers every field).
fn reports(result: &RunResult) -> (u64, String) {
    (result.events_processed(), format!("{:?}", result.nodes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_engine_matches_classic(case in case()) {
        let (topology, config) = setup(&case);

        let classic = classic_trace(&topology, &config);
        prop_assert!(
            !common::frame_log(&classic).is_empty(),
            "the case put no frame on the air"
        );
        let (one_trace, one) = sharded(&topology, &config, 1, 1);
        prop_assert!(one_trace == classic, "one-shard trace diverged from classic");
        prop_assert_eq!(reports(&one), reports(&run(&topology, &config)));

        let (w1_trace, w1) = sharded(&topology, &config, 4, 1);
        let (w2_trace, w2) = sharded(&topology, &config, 4, 2);
        prop_assert!(w1_trace == w2_trace, "four-shard trace depends on the worker count");
        prop_assert_eq!(reports(&w1), reports(&w2));
        // The recorders observe without perturbing: no recorder, same run.
        prop_assert_eq!(reports(&w2), reports(&run_sharded(&topology, &config, 4, 2)));
    }
}

/// The battery's fault and traffic draws reach the partitioned path: a
/// four-stripe run counts FER losses, outage losses and Poisson queue
/// drops, none of which the golden batteries exercise sharded.
#[test]
fn partitioned_runs_exercise_faults_and_poisson() {
    let base = Case {
        scheme: Scheme::OrtsOcts,
        theta: 90.0,
        faults: Faults::None,
        poisson: false,
        reception: Reception::Omni,
        seed: 5,
    };
    let four = |case: Case| {
        let (topology, config) = setup(&case);
        sharded(&topology, &config, 4, 2).1
    };
    let fer = four(Case {
        faults: Faults::UniformFer,
        ..base
    });
    assert!(fer.fer_losses() > 0, "FER never corrupted a frame");
    let outage = four(Case {
        faults: Faults::Outage,
        ..base
    });
    assert!(
        outage.outage_losses() > 0,
        "outage never deafened a receiver"
    );
    let poisson = four(Case {
        poisson: true,
        ..base
    });
    assert!(
        poisson.packets_acked() > 0,
        "Poisson sources delivered nothing"
    );
    assert!(
        poisson.nodes.iter().map(|n| n.queue_drops).sum::<u64>() > 0,
        "Poisson sources never overflowed their queues"
    );
}
