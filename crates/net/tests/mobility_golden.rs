//! Golden battery for the mobility + SINR PHY extensions.
//!
//! The anchor property: attaching a zero-speed mobility model and/or the
//! ideal SINR PHY must leave the whole event trace **byte-identical** to a
//! run without either — pinned against the recorded golden ring hashes
//! from `golden_ring_hash.rs`, not merely against a same-tree rerun. The
//! battery also pins the three-scheme coincidence at θ = 360° (where
//! directional and omni transmissions are the same physical footprint,
//! with or without SINR capture), determinism of genuinely mobile runs,
//! the recorded hashes of five moving runs, and the zero-cache-work
//! contract of speed-0 position epochs.

// Byte-identical runs are the point: exact float equality is intended.
#![allow(clippy::float_cmp)]

mod common;

use dirca_mac::Scheme;
use dirca_net::{run, NetWorld, SimConfig, TrafficModel};
use dirca_radio::SinrPhy;
use dirca_sim::rng::stream_rng;
use dirca_sim::{SimDuration, SimTime, Simulation};
use dirca_topology::{MobilityModel, RingSpec};

/// (scheme, seed, FNV-1a of the trace) — the same table
/// `golden_ring_hash.rs` pins the unmodified configuration against.
const RECORDED: &[(Scheme, u64, u64)] = &[
    (Scheme::OrtsOcts, 7, 0xe4d2_1263_1a44_5525),
    (Scheme::OrtsOcts, 21, 0x12d8_5da6_451d_a8af),
    (Scheme::DrtsDcts, 7, 0x2996_f717_dc7f_4175),
    (Scheme::DrtsDcts, 21, 0xaddc_d313_d5fc_6531),
    (Scheme::DrtsOcts, 7, 0xb224_28fd_d601_3676),
    (Scheme::DrtsOcts, 21, 0x3e5c_4317_2f31_0d37),
];

/// A ten-millisecond zero-speed mobility attachment: epochs fire, nothing
/// moves, nothing may change.
fn static_mobility(config: SimConfig) -> SimConfig {
    config.with_mobility(MobilityModel::STATIC, SimDuration::from_millis(10))
}

#[test]
fn zero_speed_mobility_reproduces_golden_hashes() {
    for &(scheme, seed, want) in RECORDED {
        let got = common::ring_hash(scheme, seed, static_mobility);
        assert_eq!(
            got, want,
            "{scheme} seed {seed}: a speed-0 mobility model perturbed the trace"
        );
    }
}

#[test]
fn ideal_sinr_reproduces_golden_hashes() {
    for &(scheme, seed, want) in RECORDED {
        let got = common::ring_hash(scheme, seed, |c| c.with_sinr(SinrPhy::ideal()));
        assert_eq!(
            got, want,
            "{scheme} seed {seed}: the ideal SINR PHY diverged from the binary collide rule"
        );
    }
}

#[test]
fn zero_speed_mobility_with_ideal_sinr_reproduces_golden_hashes() {
    for &(scheme, seed, want) in RECORDED {
        let got = common::ring_hash(scheme, seed, |c| {
            static_mobility(c).with_sinr(SinrPhy::ideal())
        });
        assert_eq!(
            got, want,
            "{scheme} seed {seed}: combining speed-0 mobility with the ideal SINR PHY \
             perturbed the trace"
        );
    }
}

#[test]
fn leaky_pattern_actually_changes_the_run() {
    // Sanity check on the anchor above: a *non*-ideal pattern (side lobes
    // leaking energy beyond the 30° sector, a finite capture margin) must
    // produce a different trace somewhere in the table — otherwise the
    // ideal-equivalence tests would pass vacuously.
    let diverged = RECORDED.iter().any(|&(scheme, seed, want)| {
        let leaky = SinrPhy::ideal().with_side_floor(0.2).with_margin(0.2);
        common::ring_hash(scheme, seed, |c| c.with_sinr(leaky)) != want
    });
    assert!(
        diverged,
        "a leaky side-lobe pattern left every golden trace untouched — the SINR knobs \
         are not reaching the reception path"
    );
}

/// At θ = 360° a directional transmission *is* an omni transmission, so
/// the three schemes run the same physical channel and must produce
/// identical metrics — under the binary rule, the ideal SINR PHY, and a
/// leaky flat pattern alike (with a full-circle main lobe there is no
/// "outside" for the side-lobe floor to leak into; `rolloff` must stay 0,
/// a tapered lobe is direction-dependent even at 360°).
#[test]
fn schemes_coincide_at_full_circle_with_and_without_sinr() {
    let topo = {
        let mut rng = stream_rng(9, 0xA11CE);
        RingSpec::paper(5, 1.0).generate(&mut rng).expect("ring")
    };
    let phys: [Option<SinrPhy>; 3] = [
        None,
        Some(SinrPhy::ideal()),
        Some(
            SinrPhy::ideal()
                .with_side_floor(0.3)
                .with_margin(0.15)
                .with_noise(1e-3),
        ),
    ];
    for phy in phys {
        let mut baseline = None;
        for scheme in Scheme::ALL {
            let mut config = SimConfig::new(scheme)
                .with_seed(9)
                .with_beamwidth_degrees(360.0)
                .with_warmup(SimDuration::from_millis(50))
                .with_measure(SimDuration::from_millis(500));
            if let Some(phy) = phy {
                config = config.with_sinr(phy);
            }
            let r = run(&topo, &config);
            let key = (
                r.packets_acked(),
                r.events_processed(),
                r.aggregate_throughput_bps().to_bits(),
            );
            match baseline {
                None => baseline = Some(key),
                Some(want) => {
                    assert_eq!(key, want, "{scheme} diverged at θ=360° under PHY {phy:?}")
                }
            }
        }
    }
}

fn walkers() -> MobilityModel {
    MobilityModel::RandomWaypoint {
        speed_min: 2.0,
        speed_max: 4.0,
        pause_secs: 0.05,
    }
}

#[test]
fn mobile_runs_are_deterministic_and_diverge_from_static() {
    let topo = {
        let mut rng = stream_rng(11, 0xA11CE);
        RingSpec::paper(5, 1.0).generate(&mut rng).expect("ring")
    };
    let mobile = SimConfig::new(Scheme::DrtsDcts)
        .with_seed(11)
        .with_beamwidth_degrees(30.0)
        .with_warmup(SimDuration::from_millis(50))
        .with_measure(SimDuration::from_millis(500))
        .with_mobility(walkers(), SimDuration::from_millis(5));
    let a = run(&topo, &mobile);
    let b = run(&topo, &mobile);
    assert_eq!(a.packets_acked(), b.packets_acked());
    assert_eq!(a.events_processed(), b.events_processed());
    assert_eq!(
        a.aggregate_throughput_bps(),
        b.aggregate_throughput_bps(),
        "same-seed mobile runs must be bit-identical"
    );

    let static_cfg = SimConfig::new(Scheme::DrtsDcts)
        .with_seed(11)
        .with_beamwidth_degrees(30.0)
        .with_warmup(SimDuration::from_millis(50))
        .with_measure(SimDuration::from_millis(500));
    let s = run(&topo, &static_cfg);
    assert_ne!(
        (a.events_processed(), a.packets_acked()),
        (s.events_processed(), s.packets_acked()),
        "nodes walking at 2–4 units/s must change the run"
    );
}

#[test]
fn zero_speed_epochs_do_zero_cache_work() {
    // The incremental-invalidation contract, counter-asserted end to end
    // through the world: epochs fire on schedule, but a zero-motion epoch
    // performs no re-bins and no cache rebuilds.
    let topo = {
        let mut rng = stream_rng(7, 0xA11CE);
        RingSpec::paper(5, 1.0).generate(&mut rng).expect("ring")
    };
    let config = SimConfig::new(Scheme::OrtsOcts)
        .with_seed(7)
        .with_mobility(MobilityModel::STATIC, SimDuration::from_millis(10));
    let mut world = NetWorld::build(&topo, &config);
    let mut sim = Simulation::new(world);
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.prime(sched);
    }
    sim.run_until(SimTime::from_millis(105));
    world = sim.into_world();
    let stats = world.invalidation_stats().expect("mobility attached");
    assert!(stats.epochs >= 10, "only {} epochs fired", stats.epochs);
    assert_eq!(stats.rebins, 0, "zero-motion epochs must not re-bin");
    assert_eq!(
        stats.rebuilds, 0,
        "zero-motion epochs must not rebuild caches"
    );
}

#[test]
fn moving_runs_actually_invalidate() {
    // The counter converse: a genuinely mobile run must report re-bins or
    // rebuilds, proving the counters observe the real code path.
    let topo = {
        let mut rng = stream_rng(7, 0xA11CE);
        RingSpec::paper(5, 1.0).generate(&mut rng).expect("ring")
    };
    let config = SimConfig::new(Scheme::OrtsOcts)
        .with_seed(7)
        .with_mobility(walkers(), SimDuration::from_millis(5));
    let mut world = NetWorld::build(&topo, &config);
    let mut sim = Simulation::new(world);
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.prime(sched);
    }
    sim.run_until(SimTime::from_millis(200));
    world = sim.into_world();
    let stats = world.invalidation_stats().expect("mobility attached");
    assert!(stats.epochs > 0);
    assert!(
        stats.rebuilds > 0,
        "walking nodes never rebuilt a cache: {stats:?}"
    );
}

/// Random waypoint fast enough to finish legs inside a run and pause
/// 0.3 s at each waypoint: at any epoch a share of the nodes stands still.
fn sprinters() -> MobilityModel {
    MobilityModel::RandomWaypoint {
        speed_min: 20.0,
        speed_max: 40.0,
        pause_secs: 0.3,
    }
}

/// Ring-trace hashes (DRTS-DCTS, seed 11, 5 ms epochs) of runs in which
/// nodes actually move, pinned so a change to how position epochs refresh
/// coverage cannot shift a moving run unnoticed. In the `rpgm`,
/// `sprinters` and `sprinters_poisson` runs only part of the field moves
/// in an epoch (rigid groups and waypoint pauses), unlike a workload in
/// which every node moves every epoch.
const MOVING: &[(&str, u64)] = &[
    ("walkers", 0x9823_dbc1_095e_32a9),
    ("rpgm", 0x7321_1779_e93c_6a36),
    ("walkers_leaky_sinr", 0xdca8_a97b_232f_ec03),
    ("sprinters", 0x4e37_4fe6_c99d_320e),
    ("sprinters_poisson", 0xeaf2_07ac_ca88_374c),
];

/// The config mutation of the [`MOVING`] run `name`.
fn moving_config(name: &str) -> impl Fn(SimConfig) -> SimConfig + '_ {
    move |config: SimConfig| {
        let epoch = SimDuration::from_millis(5);
        match name {
            "walkers" => config.with_mobility(walkers(), epoch),
            "rpgm" => config.with_mobility(
                MobilityModel::Rpgm {
                    groups: 4,
                    speed_min: 20.0,
                    speed_max: 40.0,
                    pause_secs: 0.2,
                    deviation: 0.0,
                },
                epoch,
            ),
            "walkers_leaky_sinr" => config
                .with_mobility(walkers(), epoch)
                .with_sinr(SinrPhy::ideal().with_side_floor(0.2).with_margin(0.2)),
            "sprinters" => config.with_mobility(sprinters(), epoch),
            "sprinters_poisson" => {
                config
                    .with_mobility(sprinters(), epoch)
                    .with_traffic(TrafficModel::Poisson {
                        packets_per_sec: 200.0,
                        max_queue: 8,
                    })
            }
            other => panic!("unknown moving run {other}"),
        }
    }
}

#[test]
fn moving_runs_reproduce_recorded_hashes() {
    for &(name, want) in MOVING {
        let got = common::ring_hash(Scheme::DrtsDcts, 11, moving_config(name));
        assert_eq!(got, want, "{name}: the moving run's trace changed");
    }
}
