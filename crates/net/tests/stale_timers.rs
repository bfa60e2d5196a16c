//! The stale-timer counter: an exact work count of the MAC-timer events
//! the lazily cancelled timers leave in the queue, which observation must
//! not change.

mod common;

use dirca_mac::Scheme;
use dirca_net::audit::standard_auditors;
use dirca_net::trace::run_traced;
use dirca_net::{run, NetWorld};
use dirca_sim::Simulation;

#[test]
fn golden_ring_runs_count_the_same_stale_timers_however_observed() {
    for scheme in Scheme::ALL {
        let seed = 7;
        let topology = common::ring_topology(seed);
        let config = common::ring_config(scheme, seed);

        let plain = run(&topology, &config);
        assert!(
            plain.stale_timers() > 0,
            "{scheme}: a contended ring run supersedes timers"
        );
        assert!(plain.stale_timers() < plain.events_processed());

        let (recorded, _) = run_traced(&topology, &config, common::CAPACITY);
        assert_eq!(
            recorded.stale_timers(),
            plain.stale_timers(),
            "{scheme}: the recorder changed the stale-timer count"
        );

        let mut world = NetWorld::build(&topology, &config);
        world.attach_recorder(common::recorder());
        let mut sim = Simulation::new(world);
        for auditor in standard_auditors() {
            sim.add_auditor(auditor);
        }
        {
            let (world, sched) = sim.world_and_scheduler_mut();
            world.prime(sched);
        }
        sim.run_until(common::END);
        sim.finish_audit();
        assert_eq!(
            sim.world().stale_timers(),
            plain.stale_timers(),
            "{scheme}: the auditors changed the stale-timer count"
        );
    }
}
