//! Audited battery: the classic engine over the configuration space the
//! golden batteries leave out.
//!
//! The golden batteries pin saturated, fault-free, omni-reception rings.
//! This battery draws scheme × beamwidth × fault plan × traffic ×
//! reception mode on small random rings and requires, for every draw:
//!
//! 1. **Clean under the auditors** — the run carries the standard runtime
//!    auditors, so each drawn configuration is checked for NAV,
//!    transceiver, airtime and causality violations.
//! 2. **Something on the air** — the recorder's frame log is not empty.
//! 3. **Observation does not perturb** — the full warm-up + measurement
//!    lifecycle gives the same event count and every
//!    [`dirca_net::NodeReport`] with a recorder attached as without.

mod common;

use dirca_geometry::Beamwidth;
use dirca_mac::Scheme;
use dirca_net::trace::{run_traced, TraceRecord};
use dirca_net::{run, FaultPlan, NetWorld, RunResult, SimConfig, TrafficModel};
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

/// The records of one run, under the standard auditors.
fn audited_trace(topology: &Topology, config: &SimConfig) -> Vec<TraceRecord> {
    let mut world = NetWorld::build(topology, config);
    world.attach_recorder(common::recorder());
    let mut sim = Simulation::new(world);
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

/// Everything a result says, node by node (`NodeReport` has no `Eq`; its
/// debug form covers every field).
fn reports(result: &RunResult) -> (u64, String) {
    (result.events_processed(), format!("{:?}", result.nodes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn drawn_cases_run_clean_and_on_the_air(case in case()) {
        let (topology, config) = setup(&case);

        let records = audited_trace(&topology, &config);
        prop_assert!(
            !common::frame_log(&records).is_empty(),
            "the case put no frame on the air"
        );
        let (traced, _) = run_traced(&topology, &config, common::CAPACITY);
        prop_assert_eq!(reports(&traced), reports(&run(&topology, &config)));
    }
}

/// The battery's fault and traffic draws reach their code paths: runs
/// count FER losses, outage losses and Poisson queue drops, none of which
/// the golden batteries exercise.
#[test]
fn drawn_faults_and_poisson_reach_the_run() {
    let base = Case {
        scheme: Scheme::OrtsOcts,
        theta: 90.0,
        faults: Faults::None,
        poisson: false,
        reception: Reception::Omni,
        seed: 5,
    };
    let run_case = |case: Case| {
        let (topology, config) = setup(&case);
        run(&topology, &config)
    };
    let fer = run_case(Case {
        faults: Faults::UniformFer,
        ..base
    });
    assert!(fer.fer_losses() > 0, "FER never corrupted a frame");
    let outage = run_case(Case {
        faults: Faults::Outage,
        ..base
    });
    assert!(
        outage.outage_losses() > 0,
        "outage never deafened a receiver"
    );
    let poisson = run_case(Case {
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
