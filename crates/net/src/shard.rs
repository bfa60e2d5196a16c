//! Sharded execution of the network world: deterministic intra-run
//! parallelism over the conservative-window engine in `dirca-sim`.
//!
//! The field is partitioned into [`RegionPartition`] stripes keyed off the
//! coverage plan's [`dirca_radio::SpatialGrid`]; each shard advances a full
//! [`NetWorld`] replica but only ever touches the MACs, transceivers, RNG
//! streams, and app counters of the nodes it *owns*.
//!
//! There is no second protocol implementation here. A shard hands every
//! event to [`NetWorld`]'s own dispatch, run under this module's
//! scheduling context instead of the classic [`dirca_sim::Scheduler`]:
//! the context answers which nodes the shard owns, tags every signal id
//! with the shard index, and routes wave copies across shards. A
//! transmission always schedules its own shard's
//! [`NetEvent::WaveStart`]/[`NetEvent::WaveEnd`] copy locally; when the
//! footprint covers receivers owned by other shards, a copy is posted to
//! each of those shards through the engine's deterministic index-ordered
//! mailboxes. The conservative lookahead is the channel's propagation
//! delay — exactly the paper's physical argument: a frame on the air at
//! `t` cannot touch another node before `t + delay`.
//!
//! Determinism contract:
//!
//! * The shard count is fixed at build time and fully determines the
//!   execution; the worker count only maps shards onto OS threads, so a
//!   run is **byte-identical at any worker count**.
//! * With one shard, the engine degenerates to the classic sequential
//!   event loop: same queue, same pop order, same RNG draws, same
//!   [`SignalId`] sequence — byte-identical to [`crate::run`]'s trace.
//! * With multiple shards the event interleaving across stripes differs
//!   from the classic engine (each stripe has its own clock inside a
//!   window), so results are deterministic and worker-invariant but not
//!   byte-equal to the single-queue run.
//!
//! # Example
//!
//! ```
//! use dirca_mac::Scheme;
//! use dirca_net::{run, run_sharded, SimConfig};
//! use dirca_sim::SimDuration;
//! use dirca_topology::fixtures;
//!
//! let topo = fixtures::pair(0.5, 1.0);
//! let config = SimConfig::new(Scheme::OrtsOcts)
//!     .with_seed(7)
//!     .with_warmup(SimDuration::from_millis(10))
//!     .with_measure(SimDuration::from_millis(50));
//! // One shard reproduces the classic engine byte for byte.
//! let classic = run(&topo, &config);
//! let sharded = run_sharded(&topo, &config, 1, 1);
//! assert_eq!(classic.packets_acked(), sharded.packets_acked());
//! assert_eq!(classic.events_processed(), sharded.events_processed());
//! ```

use std::sync::Arc;

use dirca_mac::Frame;
use dirca_radio::{CoveragePlan, NodeId, RegionPartition, SignalId};
use dirca_sim::{
    RunAborted, Scheduler, ShardCtx, ShardWorld, ShardedSimulation, SimDuration, SimTime, Watchdog,
};
use dirca_topology::Topology;

use crate::result::{NodeReport, RunResult};
use crate::world::{NetEvent, NetSched, NetWorld, TraceEntry};
use crate::SimConfig;

/// Default shard count for partitioned runs: enough stripes to feed a
/// small multicore without fragmenting the field, and fixed independently
/// of the worker count so the byte stream never depends on the host.
pub const DEFAULT_SHARDS: u32 = 4;

/// One shard of the partitioned network: a full [`NetWorld`] replica of
/// which only the owned stripe's node state is ever touched.
///
/// Replicating the immutable parts (channel, coverage plan, parameters) is
/// deliberate: every shard answers footprint and geometry queries from its
/// own copy with no sharing, so the hot path takes no locks. The mutable
/// per-node vectors are sliced by ownership — shard `s` reads and writes
/// `macs[i]`/`phys[i]`/`rngs[i]`/`app[i]` only when the partition assigns
/// node `i` to `s`, which keeps each node's RNG stream consumption
/// identical to the classic sequential engine.
#[derive(Debug)]
pub struct ShardNetWorld {
    world: NetWorld,
    shard: u32,
    partition: Arc<RegionPartition>,
    /// Transmit-time footprint buffer (separate from the world's wave
    /// scratch, which is busy during event dispatch).
    footprint: Vec<NodeId>,
}

impl ShardNetWorld {
    /// Splits the shard into its world replica and the scheduling context
    /// that drives it.
    fn split<'a, 'b>(
        &'a mut self,
        ctx: &'a mut ShardCtx<'b, NetEvent>,
    ) -> (&'a mut NetWorld, ShardSched<'a, 'b>) {
        let ShardNetWorld {
            world,
            shard,
            partition,
            footprint,
        } = self;
        let sched = ShardSched {
            ctx,
            shard: *shard,
            partition,
            footprint,
        };
        (world, sched)
    }
}

impl ShardWorld for ShardNetWorld {
    type Event = NetEvent;

    fn handle(&mut self, now: SimTime, event: NetEvent, ctx: &mut ShardCtx<'_, NetEvent>) {
        let (world, mut sched) = self.split(ctx);
        world.dispatch(now, event, &mut sched);
    }
}

/// The sharded scheduling context: the shard's own queue and outbox, plus
/// the partition that decides ownership and cross-shard routing.
struct ShardSched<'a, 'b> {
    ctx: &'a mut ShardCtx<'b, NetEvent>,
    shard: u32,
    partition: &'a RegionPartition,
    footprint: &'a mut Vec<NodeId>,
}

impl NetSched for ShardSched<'_, '_> {
    fn sched(&mut self) -> &mut Scheduler<NetEvent> {
        self.ctx.sched
    }

    fn now(&self) -> SimTime {
        self.ctx.sched.now()
    }

    fn owns(&self, node: NodeId) -> bool {
        self.partition.shard_of(node) == self.shard
    }

    fn shard_tag(&self) -> u32 {
        self.shard
    }

    fn route_wave(
        &mut self,
        plan: &CoveragePlan,
        src: NodeId,
        id: SignalId,
        frame: Frame,
        directional: bool,
        [start, end]: [SimTime; 2],
    ) {
        if self.partition.shards() == 1 {
            return;
        }
        // The footprint is a pure function of the static coverage plan,
        // so computing it at transmit time (rather than dispatch time)
        // sees exactly the receivers the wave handlers will walk. Both
        // edges land at `now + prop` or later, which satisfies the
        // engine's lookahead contract because lookahead == prop.
        if directional {
            plan.directional_coverage_into(src, frame.dst, self.footprint);
        } else {
            self.footprint.clear();
            self.footprint.extend_from_slice(plan.neighbors(src));
        }
        let mut mask: u64 = 0;
        for &dst in self.footprint.iter() {
            mask |= 1u64 << self.partition.shard_of(dst);
        }
        mask &= !(1u64 << self.shard);
        for s in 0..self.partition.shards() {
            if mask & (1u64 << s) != 0 {
                self.ctx.outbox.send(
                    s,
                    start,
                    NetEvent::WaveStart {
                        src,
                        id,
                        frame,
                        directional,
                    },
                );
                self.ctx.outbox.send(
                    s,
                    end,
                    NetEvent::WaveEnd {
                        src,
                        id,
                        frame,
                        directional,
                    },
                );
            }
        }
    }
}

/// A partitioned network simulation: [`ShardNetWorld`]s over the
/// conservative-window engine, plus the build/prime/collect plumbing that
/// mirrors the classic [`crate::run`] lifecycle.
pub struct ShardedNetSim {
    sim: ShardedSimulation<ShardNetWorld>,
    partition: Arc<RegionPartition>,
}

impl ShardedNetSim {
    /// Builds `shards` identical world replicas partitioned by grid
    /// stripes, with the channel's propagation delay as the conservative
    /// lookahead.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is not in `1..=64` (the cross-shard routing mask
    /// is a `u64`), if the topology is empty, or if the configured
    /// propagation delay is zero (a zero lookahead cannot advance).
    pub fn build(topology: &Topology, config: &SimConfig, shards: u32) -> Self {
        assert!(
            (1..=64).contains(&shards),
            "shard count must be in 1..=64, got {shards}"
        );
        // The stripe partition is keyed off build-time positions and each
        // shard replica only refreshes its own nodes, so moving geometry
        // (and the SINR footprints that ride on it) is single-engine-only
        // for now.
        assert!(
            config.mobility.is_none() && config.sinr.is_none(),
            "sharded runs do not support mobility or the SINR PHY; use dirca_net::run"
        );
        let first = NetWorld::build(topology, config);
        let lookahead = first.channel.propagation_delay();
        assert!(
            lookahead > SimDuration::ZERO,
            "sharded execution needs a positive propagation delay for lookahead"
        );
        let partition = Arc::new(RegionPartition::striped(first.plan.grid(), shards));
        let n = topology.len();
        let mut worlds = Vec::with_capacity(shards as usize);
        worlds.push(first);
        for _ in 1..shards {
            worlds.push(NetWorld::build(topology, config));
        }
        let shard_worlds = worlds
            .into_iter()
            .enumerate()
            .map(|(s, world)| ShardNetWorld {
                world,
                shard: s as u32,
                partition: Arc::clone(&partition),
                footprint: Vec::with_capacity(n),
            })
            .collect();
        ShardedNetSim {
            sim: ShardedSimulation::new(shard_worlds, lookahead),
            partition,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.sim.shard_count()
    }

    /// The node-to-shard assignment in force.
    pub fn partition(&self) -> &RegionPartition {
        &self.partition
    }

    /// The conservative lookahead (the channel's propagation delay).
    pub fn lookahead(&self) -> SimDuration {
        self.sim.lookahead()
    }

    /// Read access to shard `shard`'s world replica.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn net_world(&self, shard: usize) -> &NetWorld {
        &self.sim.world(shard).world
    }

    /// Mutable access to shard `shard`'s world replica (for trace and
    /// recorder attachment).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn net_world_mut(&mut self, shard: usize) -> &mut NetWorld {
        &mut self.sim.world_mut(shard).world
    }

    /// Seeds initial traffic on every shard (each primes its owned
    /// stripe).
    pub fn prime(&mut self) {
        for s in 0..self.sim.shard_count() {
            let (shard, mut ctx) = self.sim.shard_parts_mut(s);
            let (world, mut sched) = shard.split(&mut ctx);
            world.prime_in(&mut sched);
        }
    }

    /// Starts transmission tracing on every shard.
    pub fn enable_trace(&mut self) {
        for shard in self.sim.worlds_mut() {
            shard.world.enable_trace();
        }
    }

    /// The per-shard transmission traces merged into one timeline: shard
    /// traces are concatenated in shard order and stably sorted by time,
    /// so the merged order is a pure function of the shard count. Returns
    /// `None` unless tracing was enabled on every shard.
    pub fn merged_trace(&self) -> Option<Vec<TraceEntry>> {
        let mut merged: Vec<TraceEntry> = Vec::new();
        for shard in self.sim.worlds() {
            merged.extend_from_slice(shard.world.trace()?);
        }
        merged.sort_by_key(|entry| entry.time);
        Some(merged)
    }

    /// Installs (or clears) the runaway watchdog, checked between windows.
    pub fn set_watchdog(&mut self, watchdog: Option<Watchdog>) {
        self.sim.set_watchdog(watchdog);
    }

    /// Zeroes MAC counters and app stats on every shard (end of warm-up).
    pub fn reset_counters(&mut self) {
        for shard in self.sim.worlds_mut() {
            shard.world.reset_counters();
        }
    }

    /// Runs conservative windows until `deadline` on `workers` threads.
    /// Returns the number of events processed by this call.
    ///
    /// # Panics
    ///
    /// Panics if an installed [`Watchdog`] trips or a handler panics.
    pub fn run_until(&mut self, deadline: SimTime, workers: usize) -> u64 {
        self.sim.run_until(deadline, workers)
    }

    /// Like [`ShardedNetSim::run_until`], but a tripped [`Watchdog`]
    /// returns the structured [`RunAborted`] instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or a handler panics.
    pub fn try_run_until(&mut self, deadline: SimTime, workers: usize) -> Result<u64, RunAborted> {
        self.sim.try_run_until(deadline, workers)
    }

    /// Total events processed so far, summed over all shards.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Consumes the simulation and assembles the merged [`RunResult`]:
    /// each node's report is read from the one shard that owns it.
    pub fn into_result(self, window: SimDuration) -> RunResult {
        let events = self.sim.events_processed();
        let partition = self.partition;
        let worlds = self.sim.into_worlds();
        let measured = worlds
            .first()
            .expect("a sharded simulation always has ≥ 1 shard")
            .world
            .measured();
        let nodes = (0..partition.len())
            .map(|i| {
                // panic-path: the partition maps every built node to a valid
                // shard index, and each replica holds all n node slots.
                let world = &worlds[partition.shard_of(NodeId(i)) as usize].world;
                NodeReport::new(i, i < measured, &world.macs()[i], &world.app_stats()[i])
            })
            .collect();
        RunResult::from_parts(nodes, window, events)
    }
}

/// The sharded twin of [`crate::run`]: builds a partitioned simulation
/// with `shards` stripes, runs warm-up and measurement on `workers`
/// threads, and collects the merged results.
///
/// The outcome is a pure function of `(topology, config, shards)` — the
/// worker count never changes a byte. `shards == 1` reproduces
/// [`crate::run`] exactly.
///
/// # Panics
///
/// Panics on the same invalid inputs as [`ShardedNetSim::build`].
pub fn run_sharded(
    topology: &Topology,
    config: &SimConfig,
    shards: u32,
    workers: usize,
) -> RunResult {
    run_sharded_with(topology, config, shards, workers, None)
        .unwrap_or_else(|abort| panic!("{abort}"))
}

/// Like [`run_sharded`], but the whole run executes under `watchdog`; a
/// tripped budget returns the structured [`RunAborted`].
///
/// Budgets are checked at window granularity, so the reported abort can
/// land up to one lookahead window after the classic engine's per-event
/// check — but at the same window on every worker count.
///
/// # Panics
///
/// Panics on the same invalid inputs as [`run_sharded`].
pub fn run_sharded_guarded(
    topology: &Topology,
    config: &SimConfig,
    shards: u32,
    workers: usize,
    watchdog: Watchdog,
) -> Result<RunResult, RunAborted> {
    run_sharded_with(topology, config, shards, workers, Some(watchdog))
}

/// The one sharded run lifecycle: build, prime, warm up, reset, measure,
/// collect. `None` installs no watchdog, so the window loop checks nothing.
fn run_sharded_with(
    topology: &Topology,
    config: &SimConfig,
    shards: u32,
    workers: usize,
    watchdog: Option<Watchdog>,
) -> Result<RunResult, RunAborted> {
    let mut sim = ShardedNetSim::build(topology, config, shards);
    sim.set_watchdog(watchdog);
    sim.prime();
    let warmup_end = SimTime::ZERO + config.warmup;
    sim.try_run_until(warmup_end, workers)?;
    sim.reset_counters();
    let end = warmup_end + config.measure;
    sim.try_run_until(end, workers)?;
    Ok(sim.into_result(config.measure))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use dirca_mac::Scheme;
    use dirca_sim::Simulation;
    use dirca_topology::fixtures;

    fn quick(scheme: Scheme) -> SimConfig {
        SimConfig::new(scheme)
            .with_seed(11)
            .with_warmup(SimDuration::from_millis(20))
            .with_measure(SimDuration::from_millis(200))
    }

    /// Classic engine trace of `topo` under `config`, to `end`.
    fn classic_trace(topo: &Topology, config: &SimConfig, end: SimTime) -> Vec<TraceEntry> {
        let mut world = NetWorld::build(topo, config);
        world.enable_trace();
        let mut sim = Simulation::new(world);
        {
            let (world, sched) = sim.world_and_scheduler_mut();
            world.prime(sched);
        }
        sim.run_until(end);
        sim.into_world().trace().unwrap().to_vec()
    }

    fn sharded_trace(
        topo: &Topology,
        config: &SimConfig,
        end: SimTime,
        shards: u32,
        workers: usize,
    ) -> Vec<TraceEntry> {
        let mut sim = ShardedNetSim::build(topo, config, shards);
        sim.enable_trace();
        sim.prime();
        sim.run_until(end, workers);
        sim.merged_trace().unwrap()
    }

    #[test]
    fn one_shard_reproduces_the_classic_trace() {
        let topo = fixtures::parallel_pairs();
        let config = quick(Scheme::OrtsOcts);
        let end = SimTime::from_millis(100);
        let classic = classic_trace(&topo, &config, end);
        let sharded = sharded_trace(&topo, &config, end, 1, 1);
        assert!(!classic.is_empty(), "fixture must produce traffic");
        assert_eq!(classic, sharded, "one shard must be byte-identical");
    }

    #[test]
    fn sharded_trace_is_worker_count_invariant() {
        let topo = fixtures::parallel_pairs();
        let config = quick(Scheme::DrtsDcts).with_beamwidth_degrees(30.0);
        let end = SimTime::from_millis(100);
        let w1 = sharded_trace(&topo, &config, end, 4, 1);
        let w2 = sharded_trace(&topo, &config, end, 4, 2);
        let w4 = sharded_trace(&topo, &config, end, 4, 4);
        assert!(!w1.is_empty());
        assert_eq!(w1, w2);
        assert_eq!(w1, w4);
    }

    #[test]
    fn run_sharded_with_one_shard_matches_run() {
        let topo = fixtures::hidden_terminal();
        let config = quick(Scheme::OrtsOcts);
        let classic = run(&topo, &config);
        let sharded = run_sharded(&topo, &config, 1, 1);
        assert_eq!(classic.packets_acked(), sharded.packets_acked());
        assert_eq!(classic.events_processed(), sharded.events_processed());
        assert_eq!(
            classic.aggregate_throughput_bps(),
            sharded.aggregate_throughput_bps()
        );
    }

    #[test]
    fn sharded_results_merge_across_stripes() {
        let topo = fixtures::parallel_pairs();
        let config = quick(Scheme::OrtsOcts);
        let r = run_sharded(&topo, &config, 4, 2);
        assert_eq!(r.nodes.len(), topo.len());
        assert!(r.packets_acked() > 0, "partitioned field must deliver");
        // Every node's report must come from the shard that actually ran
        // its MAC: saturated sources all put frames on the air, so a node
        // with zero airtime would mean its report was read from an idle
        // replica.
        assert!(r
            .nodes
            .iter()
            .all(|n| n.airtime.total() > dirca_sim::SimDuration::ZERO));
    }

    #[test]
    fn sharded_run_is_deterministic() {
        let topo = fixtures::parallel_pairs();
        let config = quick(Scheme::DrtsOcts).with_beamwidth_degrees(30.0);
        let a = run_sharded(&topo, &config, 4, 2);
        let b = run_sharded(&topo, &config, 4, 2);
        assert_eq!(a.packets_acked(), b.packets_acked());
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(a.aggregate_throughput_bps(), b.aggregate_throughput_bps());
    }

    #[test]
    fn guarded_sharded_run_reports_aborts() {
        let topo = fixtures::parallel_pairs();
        let config = quick(Scheme::OrtsOcts);
        let err = run_sharded_guarded(&topo, &config, 4, 2, Watchdog::max_events(100))
            .expect_err("a 100-event budget cannot cover the warm-up");
        assert!(err.events >= 100, "abort under-counted: {}", err.events);
    }

    #[test]
    #[should_panic(expected = "shard count must be in 1..=64")]
    fn zero_shards_rejected() {
        let topo = fixtures::pair(0.5, 1.0);
        let _ = ShardedNetSim::build(&topo, &quick(Scheme::OrtsOcts), 0);
    }
}
