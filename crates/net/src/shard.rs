//! Sharded execution of the network world: deterministic intra-run
//! parallelism over the conservative-window engine in `dirca-sim`.
//!
//! The field is partitioned into [`RegionPartition`] stripes keyed off the
//! coverage plan's [`dirca_radio::SpatialGrid`]; each shard advances a full
//! [`NetWorld`] replica but only ever touches the MACs, transceivers, RNG
//! streams, and app counters of the nodes it *owns*. A transmission always
//! schedules its own shard's [`NetEvent::WaveStart`]/[`NetEvent::WaveEnd`]
//! copy locally; when the precomputed footprint covers receivers owned by
//! other shards, a copy is posted to each of those shards through the
//! engine's deterministic index-ordered mailboxes. The conservative
//! lookahead is the channel's propagation delay — exactly the paper's
//! physical argument: a frame on the air at `t` cannot touch another node
//! before `t + delay`.
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

use rand::rngs::SmallRng;
use rand::Rng;

use dirca_mac::{DataPacket, DcfMac, Dot11Params, Frame, FrameKind, MacContext, TimerKind};
use dirca_radio::{Channel, CoveragePlan, NodeId, RegionPartition, SignalId, Transceiver};
use dirca_sim::{
    RunAborted, ShardCtx, ShardWorld, ShardedSimulation, SimDuration, SimTime, TimerGeneration,
    Watchdog,
};
use dirca_topology::Topology;

use crate::config::TrafficModel;
use crate::result::{NodeReport, RunResult};
use crate::world::{exp_interval, FaultVerdict, NetEvent, NetWorld, TraceEntry};
use crate::SimConfig;

#[cfg(feature = "trace")]
use dirca_trace::{RecordKind, TraceRecord};

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
    tx_scratch: Vec<NodeId>,
}

impl ShardNetWorld {
    /// This shard's index.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Read access to the underlying world replica.
    pub fn net(&self) -> &NetWorld {
        &self.world
    }

    /// Mutable access to the underlying world replica (trace and recorder
    /// attachment; node state belonging to other shards must not be
    /// touched).
    pub fn net_mut(&mut self) -> &mut NetWorld {
        &mut self.world
    }

    /// Whether this shard owns `node`.
    fn owns(&self, node: NodeId) -> bool {
        self.partition.shard_of(node) == self.shard
    }

    /// Seeds initial traffic for the owned stripe, mirroring
    /// [`NetWorld::prime`] restricted to owned nodes. With one shard this
    /// is exactly the classic priming loop.
    pub fn prime(&mut self, ctx: &mut ShardCtx<'_, NetEvent>) {
        // panic-path: per-node vectors are all sized to the node count at
        // build time, and the partition covers exactly the built nodes.
        ctx.sched.reserve(self.world.expected_events);
        match self.world.traffic {
            TrafficModel::Saturated => {
                for i in 0..self.world.macs.len() {
                    if self.owns(NodeId(i)) {
                        self.refill(NodeId(i), ctx);
                    }
                }
            }
            TrafficModel::Poisson {
                packets_per_sec, ..
            } => {
                for i in 0..self.world.macs.len() {
                    if self.owns(NodeId(i)) && !self.world.neighbors[i].is_empty() {
                        let dt = exp_interval(&mut self.world.rngs[i], packets_per_sec);
                        ctx.sched
                            .schedule_in(dt, NetEvent::Arrival { node: NodeId(i) });
                    }
                }
            }
            TrafficModel::Manual => {}
        }
    }

    /// Dispatches a MAC callback for an owned `node` with a fully wired
    /// sharded context — the sharded twin of `NetWorld::with_mac`.
    fn with_mac(
        &mut self,
        node: NodeId,
        sim: &mut ShardCtx<'_, NetEvent>,
        f: impl FnOnce(&mut DcfMac, &mut SCtx<'_, '_>),
    ) {
        debug_assert!(self.owns(node), "MAC dispatch for a foreign node");
        // panic-path: per-node vectors are sized to the node count at build
        // time and `node` comes from the event stream / partition walk.
        let muted = match &self.world.faults {
            Some(f) => f.compiled.in_outage(node, sim.sched.now()),
            None => false,
        };
        let NetWorld {
            channel,
            plan,
            macs,
            phys,
            rngs,
            app,
            params,
            next_signal,
            trace,
            #[cfg(feature = "trace")]
            recorder,
            record_delays,
            ..
        } = &mut self.world;
        let mut ctx = SCtx {
            node,
            sim,
            phy: &mut phys[node.0],
            channel,
            plan,
            params,
            rng: &mut rngs[node.0],
            next_signal,
            app: &mut app[node.0],
            trace,
            #[cfg(feature = "trace")]
            recorder,
            record_delays: *record_delays,
            muted,
            shard: self.shard,
            partition: &self.partition,
            tx_scratch: &mut self.tx_scratch,
        };
        f(&mut macs[node.0], &mut ctx);
    }

    /// Keeps an owned saturated node backlogged — the sharded twin of
    /// `NetWorld::refill`, consuming the same per-node RNG draws.
    fn refill(&mut self, node: NodeId, sim: &mut ShardCtx<'_, NetEvent>) {
        // panic-path: per-node vectors are sized to the node count at build.
        if self.world.traffic != TrafficModel::Saturated || self.world.macs[node.0].has_backlog() {
            return;
        }
        if self.world.neighbors[node.0].is_empty() {
            return; // isolated node: nothing to send to
        }
        let dst = self.world.pick_neighbor(node);
        let seq = self.world.app[node.0].next_seq;
        self.world.app[node.0].next_seq += 1;
        let bytes = self.world.data_bytes;
        let now = sim.sched.now();
        self.with_mac(node, sim, |mac, ctx| {
            mac.enqueue(DataPacket::new(seq, node, dst, bytes, now), ctx);
        });
    }

    /// One Poisson arrival at an owned node — the sharded twin of
    /// `NetWorld::poisson_arrival`.
    fn poisson_arrival(&mut self, node: NodeId, sim: &mut ShardCtx<'_, NetEvent>) {
        // panic-path: per-node vectors are sized to the node count at build.
        let TrafficModel::Poisson {
            packets_per_sec,
            max_queue,
        } = self.world.traffic
        else {
            return; // stale event after a model change; ignore
        };
        if !self.world.neighbors[node.0].is_empty() {
            if self.world.macs[node.0].queue_len() < max_queue {
                let dst = self.world.pick_neighbor(node);
                let seq = self.world.app[node.0].next_seq;
                self.world.app[node.0].next_seq += 1;
                let bytes = self.world.data_bytes;
                let now = sim.sched.now();
                self.with_mac(node, sim, |mac, ctx| {
                    mac.enqueue(DataPacket::new(seq, node, dst, bytes, now), ctx);
                });
            } else {
                self.world.app[node.0].queue_drops += 1;
            }
            let dt = exp_interval(&mut self.world.rngs[node.0], packets_per_sec);
            sim.sched.schedule_in(dt, NetEvent::Arrival { node });
        }
    }
}

impl ShardWorld for ShardNetWorld {
    type Event = NetEvent;

    fn handle(&mut self, now: SimTime, event: NetEvent, ctx: &mut ShardCtx<'_, NetEvent>) {
        // panic-path: events only carry node ids the world itself built, and
        // every per-node vector is sized to the node count. Wave events can
        // arrive from foreign shards; their target walk filters to owned
        // receivers. TxEnd/MacTimer/Arrival are only ever scheduled locally
        // for owned nodes.
        match event {
            NetEvent::WaveStart {
                src,
                id,
                frame,
                directional,
            } => {
                let end = now + self.world.params.frame_airtime(&frame);
                let mut wave = std::mem::take(&mut self.world.scratch);
                self.world
                    .fill_wave_targets(src, frame.dst, directional, &mut wave);
                for &dst in &wave {
                    if !self.owns(dst) {
                        continue; // the owner shard handles its own copy
                    }
                    let (heading, distance) = self.world.plan.node(dst).toward(src);
                    let became_busy =
                        self.world.phys[dst.0].signal_arrives_at(id, heading, distance, end);
                    if became_busy {
                        self.with_mac(dst, ctx, |mac, mctx| mac.on_medium_busy(mctx));
                    }
                }
                self.world.scratch = wave;
            }
            NetEvent::WaveEnd {
                src,
                id,
                frame,
                directional,
            } => {
                let mut wave = std::mem::take(&mut self.world.scratch);
                self.world
                    .fill_wave_targets(src, frame.dst, directional, &mut wave);
                for &dst in &wave {
                    if !self.owns(dst) {
                        continue; // the owner shard handles its own copy
                    }
                    let report = self.world.phys[dst.0].signal_ends(id);
                    if report.delivered {
                        match self.world.fault_verdict(src, dst, &frame, now) {
                            FaultVerdict::Deliver => {
                                #[cfg(feature = "trace")]
                                self.world.record(
                                    now,
                                    dst,
                                    if frame.dst == dst {
                                        RecordKind::FrameRx {
                                            kind: frame.kind,
                                            peer: frame.src,
                                        }
                                    } else {
                                        RecordKind::NavSet {
                                            until: now + frame.duration,
                                        }
                                    },
                                );
                                self.with_mac(dst, ctx, |mac, mctx| {
                                    mac.on_frame_received(frame, mctx);
                                });
                            }
                            FaultVerdict::Corrupt => {
                                #[cfg(feature = "trace")]
                                self.world.record(now, dst, RecordKind::FaultCorrupt);
                                self.world.app[dst.0].fer_losses += 1;
                                self.with_mac(dst, ctx, |mac, mctx| mac.on_rx_corrupted(mctx));
                            }
                            FaultVerdict::Outage => {
                                #[cfg(feature = "trace")]
                                self.world.record(now, dst, RecordKind::FaultOutage);
                                self.world.app[dst.0].outage_losses += 1;
                            }
                        }
                    } else if report.corrupted {
                        #[cfg(feature = "trace")]
                        self.world.record(now, dst, RecordKind::RxCorrupted);
                        self.with_mac(dst, ctx, |mac, mctx| mac.on_rx_corrupted(mctx));
                    }
                    if report.medium_idle_after {
                        self.with_mac(dst, ctx, |mac, mctx| mac.on_medium_idle(mctx));
                    }
                    self.refill(dst, ctx);
                }
                self.world.scratch = wave;
            }
            NetEvent::TxEnd { node } => {
                self.world.phys[node.0].end_transmit();
                self.with_mac(node, ctx, |mac, mctx| mac.on_tx_done(mctx));
                self.refill(node, ctx);
            }
            NetEvent::MacTimer { node, kind, gen } => {
                if self.world.macs[node.0].is_timer_live(kind, gen) {
                    #[cfg(feature = "trace")]
                    match kind {
                        TimerKind::CtsTimeout | TimerKind::DataTimeout | TimerKind::AckTimeout => {
                            self.world
                                .record(now, node, RecordKind::Timeout { timer: kind });
                        }
                        TimerKind::NavExpire => {
                            self.world.record(now, node, RecordKind::NavExpire);
                        }
                        TimerKind::Backoff | TimerKind::Sifs => {}
                    }
                    self.with_mac(node, ctx, |mac, mctx| mac.on_timer(kind, gen, mctx));
                    self.refill(node, ctx);
                }
            }
            NetEvent::Arrival { node } => {
                self.poisson_arrival(node, ctx);
            }
            // panic-path: ShardedNetSim::build rejects mobility configs,
            // and MobilityEpoch is only ever scheduled under one.
            NetEvent::MobilityEpoch => {
                unreachable!("mobility epochs cannot occur in a sharded run")
            }
        }
    }
}

/// The [`MacContext`] of the sharded engine: the classic `Ctx` plus the
/// cross-shard wave routing performed at transmit time.
struct SCtx<'a, 'b> {
    node: NodeId,
    sim: &'a mut ShardCtx<'b, NetEvent>,
    phy: &'a mut Transceiver,
    channel: &'a Channel,
    plan: &'a CoveragePlan,
    params: &'a Dot11Params,
    rng: &'a mut SmallRng,
    next_signal: &'a mut u64,
    app: &'a mut crate::world::AppStats,
    trace: &'a mut Option<Vec<TraceEntry>>,
    #[cfg(feature = "trace")]
    recorder: &'a mut Option<dirca_trace::RingTrace>,
    record_delays: bool,
    muted: bool,
    shard: u32,
    partition: &'a RegionPartition,
    tx_scratch: &'a mut Vec<NodeId>,
}

impl SCtx<'_, '_> {
    /// Pushes one record attributed to this context's node.
    #[cfg(feature = "trace")]
    fn record(&mut self, kind: RecordKind) {
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.push(TraceRecord {
                time: self.sim.sched.now(),
                node: self.node,
                kind,
            });
        }
    }
}

impl MacContext for SCtx<'_, '_> {
    fn now(&self) -> SimTime {
        self.sim.sched.now()
    }

    fn carrier_busy(&self) -> bool {
        self.phy.carrier_busy()
    }

    fn transmit(&mut self, frame: Frame, directional: bool) {
        if let Some(trace) = self.trace.as_mut() {
            trace.push(TraceEntry {
                time: self.sim.sched.now(),
                frame,
                directional,
            });
        }
        #[cfg(feature = "trace")]
        self.record(RecordKind::FrameTx {
            kind: frame.kind,
            peer: frame.dst,
            bytes: frame.payload_bytes,
            directional,
        });
        let duration = self.params.frame_airtime(&frame);
        match frame.kind {
            FrameKind::Rts => self.app.airtime.rts += duration,
            FrameKind::Cts => self.app.airtime.cts += duration,
            FrameKind::Data => self.app.airtime.data += duration,
            FrameKind::Ack => self.app.airtime.ack += duration,
        }
        self.phy.begin_transmit();
        self.sim
            .sched
            .schedule_in(duration, NetEvent::TxEnd { node: self.node });

        if self.muted {
            // Out-of-service radio: the MAC went through the motions but no
            // wave reaches any receiver (same contract as the classic path).
            return;
        }

        // Tag the per-shard signal counter with the shard index so ids are
        // globally unique without coordination. With one shard the tag is
        // zero and the sequence is exactly the classic engine's.
        let id = SignalId((u64::from(self.shard) << 48) | *self.next_signal);
        *self.next_signal += 1;
        let prop = self.channel.propagation_delay();
        // The own-shard wave copy is always scheduled locally — with one
        // shard this is the whole story and reproduces the classic engine
        // byte for byte.
        self.sim.sched.schedule_in(
            prop,
            NetEvent::WaveStart {
                src: self.node,
                id,
                frame,
                directional,
            },
        );
        self.sim.sched.schedule_in(
            duration + prop,
            NetEvent::WaveEnd {
                src: self.node,
                id,
                frame,
                directional,
            },
        );

        if self.partition.shards() > 1 {
            // The footprint is a pure function of the static coverage plan,
            // so computing it at transmit time (rather than dispatch time)
            // sees exactly the receivers the wave handlers will walk. Route
            // one copy to every foreign shard owning a covered receiver;
            // both edges land at `now + prop` or later, which satisfies the
            // engine's lookahead contract because lookahead == prop.
            if !directional {
                self.tx_scratch.clear();
                self.tx_scratch
                    .extend_from_slice(self.plan.neighbors(self.node));
            } else {
                self.plan
                    .directional_coverage_into(self.node, frame.dst, self.tx_scratch);
            }
            let mut mask: u64 = 0;
            for &dst in self.tx_scratch.iter() {
                mask |= 1u64 << self.partition.shard_of(dst);
            }
            mask &= !(1u64 << self.shard);
            let now = self.sim.sched.now();
            for s in 0..self.partition.shards() {
                if mask & (1u64 << s) != 0 {
                    self.sim.outbox.send(
                        s,
                        now + prop,
                        NetEvent::WaveStart {
                            src: self.node,
                            id,
                            frame,
                            directional,
                        },
                    );
                    self.sim.outbox.send(
                        s,
                        now + duration + prop,
                        NetEvent::WaveEnd {
                            src: self.node,
                            id,
                            frame,
                            directional,
                        },
                    );
                }
            }
        }
    }

    fn schedule_timer(&mut self, kind: TimerKind, gen: TimerGeneration, delay: SimDuration) {
        self.sim.sched.schedule_in(
            delay,
            NetEvent::MacTimer {
                node: self.node,
                kind,
                gen,
            },
        );
    }

    fn draw_backoff_slots(&mut self, cw: u32) -> u32 {
        let slots = self.rng.random_range(0..=cw);
        #[cfg(feature = "trace")]
        self.record(RecordKind::BackoffDraw { cw, slots });
        slots
    }

    fn deliver(&mut self, _frame: &Frame) {
        self.app.delivered += 1;
    }

    fn packet_done(&mut self, packet: DataPacket, success: bool) {
        #[cfg(feature = "trace")]
        self.record(if success {
            RecordKind::PacketAcked
        } else {
            RecordKind::PacketDropped
        });
        if success {
            self.app.completed += 1;
            if self.record_delays {
                let delay = self
                    .sim
                    .sched
                    .now()
                    .saturating_duration_since(packet.created);
                self.app.delay_samples.push(delay.as_secs_f64());
            }
        } else {
            self.app.dropped += 1;
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
                tx_scratch: Vec::with_capacity(n),
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
        self.sim.world(shard).net()
    }

    /// Mutable access to shard `shard`'s world replica (for trace and
    /// recorder attachment).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn net_world_mut(&mut self, shard: usize) -> &mut NetWorld {
        self.sim.world_mut(shard).net_mut()
    }

    /// Seeds initial traffic on every shard (each primes its owned
    /// stripe).
    pub fn prime(&mut self) {
        for s in 0..self.sim.shard_count() {
            let (world, mut ctx) = self.sim.shard_parts_mut(s);
            world.prime(&mut ctx);
        }
    }

    /// Starts transmission tracing on every shard.
    pub fn enable_trace(&mut self) {
        for world in self.sim.worlds_mut() {
            world.net_mut().enable_trace();
        }
    }

    /// The per-shard transmission traces merged into one timeline: shard
    /// traces are concatenated in shard order and stably sorted by time,
    /// so the merged order is a pure function of the shard count. Returns
    /// `None` unless tracing was enabled on every shard.
    pub fn merged_trace(&self) -> Option<Vec<TraceEntry>> {
        let mut merged: Vec<TraceEntry> = Vec::new();
        for world in self.sim.worlds() {
            merged.extend_from_slice(world.net().trace()?);
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
        for world in self.sim.worlds_mut() {
            world.net_mut().reset_counters();
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
            .net()
            .measured();
        let n = partition.len();
        let nodes = (0..n)
            .map(|i| {
                // panic-path: the partition maps every built node to a valid
                // shard index, and each replica holds all n node slots.
                let owner = partition.shard_of(NodeId(i)) as usize;
                let world = worlds[owner].net();
                let mac = &world.macs()[i];
                let app = &world.app_stats()[i];
                NodeReport {
                    node: i,
                    measured: i < measured,
                    counters: mac.counters().clone(),
                    queue_drops: app.queue_drops,
                    fer_losses: app.fer_losses,
                    outage_losses: app.outage_losses,
                    delay_samples: app.delay_samples.clone(),
                    airtime: app.airtime,
                    backlog: mac.queue_len() as u64,
                }
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
    let mut sim = ShardedNetSim::build(topology, config, shards);
    sim.prime();
    let warmup_end = SimTime::ZERO + config.warmup;
    sim.run_until(warmup_end, workers);
    sim.reset_counters();
    let end = warmup_end + config.measure;
    sim.run_until(end, workers);
    sim.into_result(config.measure)
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
    let mut sim = ShardedNetSim::build(topology, config, shards);
    sim.set_watchdog(Some(watchdog));
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
