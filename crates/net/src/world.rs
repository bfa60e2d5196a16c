//! The simulated world: nodes, channel, and event plumbing.
//!
//! One [`CoveragePlan`] answers every coverage query of a run. Under
//! mobility each position epoch rebuilds it in place
//! ([`CoveragePlan::apply_moves`]) and refreshes the traffic rows derived
//! from it; static runs build it once.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::Rng;

use dirca_mac::{DataPacket, DcfMac, Dot11Params, Frame, FrameKind, MacContext, TimerKind};
use dirca_radio::{
    AntennaPattern, Channel, CompiledFaults, CoveragePlan, InvalidationStats, NodeId,
    ReceptionMode, SignalId, SinrPhy, Transceiver,
};
use dirca_sim::{
    rng::{derive_seed, stream_rng},
    Scheduler, SimDuration, SimTime, TimerGeneration, World,
};
use dirca_topology::{MobilityState, Topology};

use crate::config::TrafficModel;
use crate::salts::{FAULT_STREAM_SALT, MOBILITY_STREAM_SALT, SINR_STREAM_SALT};
use crate::SimConfig;

use dirca_trace::{RecordKind, RingTrace, TraceRecord};

/// Events flowing through the network simulation.
///
/// Signal propagation is batched per transmission: one
/// [`NetEvent::WaveStart`]/[`NetEvent::WaveEnd`] pair carries a frame's
/// leading and trailing edges to *every* covered receiver, and the handler
/// walks the precomputed footprint in ascending node-id order. Heap traffic
/// per frame is O(1) instead of O(receivers), and the per-receiver
/// processing order is exactly that of the unbatched formulation: the
/// per-receiver edge events always formed a contiguous same-timestamp
/// block in ascending id order, with anything scheduled by their handlers
/// sequenced after the whole block.
#[derive(Debug, Clone)]
pub enum NetEvent {
    /// The leading edge of a transmission reaches every covered receiver.
    WaveStart {
        /// Transmitting node.
        src: NodeId,
        /// Transmission identity.
        id: SignalId,
        /// The frame being carried (delivered if decoding succeeds).
        frame: Frame,
        /// Whether the transmission was beamformed (aimed at `frame.dst`).
        directional: bool,
    },
    /// The trailing edge of a transmission passes every covered receiver.
    WaveEnd {
        /// Transmitting node.
        src: NodeId,
        /// Transmission identity.
        id: SignalId,
        /// The frame carried by the transmission.
        frame: Frame,
        /// Whether the transmission was beamformed (aimed at `frame.dst`).
        directional: bool,
    },
    /// `node`'s own transmission leaves the air.
    TxEnd {
        /// Transmitting node.
        node: NodeId,
    },
    /// A MAC timer scheduled by `node` fires.
    MacTimer {
        /// Owning node.
        node: NodeId,
        /// Which logical timer.
        kind: TimerKind,
        /// Arming generation (stale generations are ignored by the MAC).
        gen: TimerGeneration,
    },
    /// A Poisson traffic source at `node` produces a packet.
    Arrival {
        /// Generating node.
        node: NodeId,
    },
    /// A position epoch: the mobility model advances every node and the
    /// coverage plan is rebuilt in place. Only ever scheduled when the run
    /// has a mobility configuration.
    MobilityEpoch,
}

impl NetEvent {
    /// A stable snake_case class name, used to group events in profiling
    /// histograms and metrics labels.
    pub fn class(&self) -> &'static str {
        match self {
            NetEvent::WaveStart { .. } => "wave_start",
            NetEvent::WaveEnd { .. } => "wave_end",
            NetEvent::TxEnd { .. } => "tx_end",
            NetEvent::MacTimer { .. } => "mac_timer",
            NetEvent::Arrival { .. } => "arrival",
            NetEvent::MobilityEpoch => "mobility_epoch",
        }
    }
}

/// Airtime a node spent transmitting, split by frame kind — the direct
/// measurement of the paper's "time spent coordinating vs sending data"
/// argument.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AirtimeBreakdown {
    /// Airtime spent on RTS frames.
    pub rts: dirca_sim::SimDuration,
    /// Airtime spent on CTS frames.
    pub cts: dirca_sim::SimDuration,
    /// Airtime spent on DATA frames.
    pub data: dirca_sim::SimDuration,
    /// Airtime spent on ACK frames.
    pub ack: dirca_sim::SimDuration,
}

impl AirtimeBreakdown {
    /// Total transmit airtime.
    pub fn total(&self) -> dirca_sim::SimDuration {
        self.rts + self.cts + self.data + self.ack
    }

    /// Airtime spent on control frames (everything but DATA).
    pub fn control(&self) -> dirca_sim::SimDuration {
        self.rts + self.cts + self.ack
    }

    /// Adds another breakdown into this one.
    pub fn merge(&mut self, other: &AirtimeBreakdown) {
        self.rts += other.rts;
        self.cts += other.cts;
        self.data += other.data;
        self.ack += other.ack;
    }
}

/// Per-node application-layer bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct AppStats {
    /// Packets handed up by the MAC (receiver side).
    pub delivered: u64,
    /// Packets the MAC finished successfully (sender side).
    pub completed: u64,
    /// Packets the MAC dropped after retries.
    pub dropped: u64,
    /// Poisson arrivals discarded because the source queue was full.
    pub queue_drops: u64,
    /// Receptions lost at this node to the injected frame error rate.
    pub fer_losses: u64,
    /// Receptions lost at this node because its radio was in an outage
    /// window for part of the frame.
    pub outage_losses: u64,
    /// End-to-end delays (seconds) of this node's acked packets, when
    /// delay recording is enabled.
    pub delay_samples: Vec<f64>,
    /// Transmit airtime by frame kind.
    pub airtime: AirtimeBreakdown,
    /// Sequence counter for generated packets.
    pub(crate) next_seq: u64,
}

/// Runtime fault-injection state: compiled lookup tables plus one
/// dedicated RNG stream per receiving node. `None` for trivial plans, so
/// the perfect-channel hot path is exactly the code that ran before fault
/// injection existed.
#[derive(Debug)]
pub(crate) struct FaultState {
    pub(crate) compiled: CompiledFaults,
    pub(crate) rngs: Vec<SmallRng>,
}

/// Runtime mobility state: the trajectory model and its epoch length.
/// Each epoch feeds the model's moves to the world's one coverage plan
/// ([`CoveragePlan::apply_moves`]). `None` for static runs, which never
/// schedule an epoch.
#[derive(Debug)]
pub(crate) struct MobilityRuntime {
    /// The evolving node positions (seeded from `MOBILITY_STREAM_SALT`).
    pub(crate) state: MobilityState,
    /// Position epoch length.
    pub(crate) epoch: SimDuration,
}

/// Runtime SINR-PHY state: the capture/path-loss knobs, the compiled
/// antenna pattern at the run's beamwidth, and (only when fading is on)
/// one dedicated fading stream per receiving node. `None` keeps the
/// paper's binary collide rule.
#[derive(Debug)]
pub(crate) struct SinrRuntime {
    pub(crate) phy: SinrPhy,
    pub(crate) pattern: AntennaPattern,
    /// Per-node log-normal fading streams (`SINR_STREAM_SALT`); empty when
    /// `fading_sigma == 0`, which also means zero draws ever happen.
    pub(crate) rngs: Vec<SmallRng>,
    /// Scratch: per-target received powers parallel to the wave-target
    /// buffer, refilled by `fill_sinr_wave` on every leading edge.
    pub(crate) powers: Vec<f64>,
}

/// The fate of a reception the PHY decoded successfully, after the fault
/// layer has its say.
pub(crate) enum FaultVerdict {
    /// Hand the frame to the MAC.
    Deliver,
    /// The link's frame error rate corrupted it: the MAC sees noise
    /// (EIFS + the normal retry path), not a frame.
    Corrupt,
    /// The receiver's radio was out of service during the frame: nothing
    /// was decoded at all.
    Outage,
}

/// The network world: one MAC and transceiver per node, a shared channel,
/// saturated traffic sources, and the event dispatch glue.
#[derive(Debug)]
pub struct NetWorld {
    pub(crate) channel: Channel,
    pub(crate) plan: CoveragePlan,
    pub(crate) macs: Vec<DcfMac>,
    pub(crate) phys: Vec<Transceiver>,
    pub(crate) rngs: Vec<SmallRng>,
    pub(crate) app: Vec<AppStats>,
    pub(crate) neighbors: Vec<Vec<usize>>,
    pub(crate) params: Dot11Params,
    pub(crate) data_bytes: u32,
    pub(crate) traffic: TrafficModel,
    pub(crate) record_delays: bool,
    pub(crate) measured: usize,
    pub(crate) next_signal: u64,
    pub(crate) faults: Option<FaultState>,
    /// Structured trace recorder, attached by [`NetWorld::attach_recorder`];
    /// its `FrameTx` records are the one frame log. Observation only:
    /// recording consumes no randomness and schedules nothing, so an
    /// attached recorder leaves runs byte-identical (the golden battery
    /// checks a run without one against the recorded run).
    pub(crate) recorder: Option<RingTrace>,
    /// Event-queue capacity hint applied at [`NetWorld::prime`] time (the
    /// expected steady-state event population, sized at build).
    pub(crate) expected_events: usize,
    /// Reusable wave-target buffer: the event handler copies a wave's
    /// covered slice here before walking it (isolating the borrow from the
    /// MAC callbacks), so the steady state performs no allocation.
    pub(crate) scratch: Vec<NodeId>,
    /// Mobility runtime (`None` for the paper's static scenarios).
    pub(crate) mobility: Option<MobilityRuntime>,
    /// SINR PHY runtime (`None` for the paper's binary collide rule).
    pub(crate) sinr: Option<SinrRuntime>,
    /// In-flight wave footprints, keyed by signal id — only populated
    /// under mobility, where a position epoch between a wave's leading and
    /// trailing edges would otherwise make `WaveEnd` walk a different
    /// receiver set than `WaveStart` did (stranding arrivals in
    /// transceivers forever). A `BTreeMap` keeps iteration deterministic
    /// and respects the workspace's no-`HashMap` ordering discipline.
    pub(crate) inflight: BTreeMap<u64, Vec<NodeId>>,
    /// MAC-timer dispatches discarded as stale (see
    /// [`NetWorld::stale_timers`]).
    pub(crate) stale_timers: u64,
}

impl NetWorld {
    /// Builds the world for `topology` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if the topology is empty or the fault plan is invalid for it.
    pub fn build(topology: &Topology, config: &SimConfig) -> Self {
        assert!(!topology.is_empty(), "cannot simulate an empty topology");
        let channel = Channel::new(
            topology.positions.clone(),
            topology.range,
            config.params.propagation_delay,
        )
        .expect("topology range must be valid");
        let n = topology.len();
        let macs = (0..n)
            .map(|i| {
                DcfMac::new(
                    NodeId(i),
                    config.scheme,
                    config.params.clone(),
                    config.mac.clone(),
                )
            })
            .collect();
        // The SINR PHY replaces the receive-chain model wholesale: its
        // capture rule subsumes omni carrier sense, and mixing it with the
        // Directional/Capture receive filters would double-count geometry.
        let reception = match config.sinr {
            Some(phy) => {
                assert!(
                    config.reception == ReceptionMode::Omni,
                    "the SINR PHY replaces the reception mode; leave reception at Omni"
                );
                ReceptionMode::Sinr {
                    margin: phy.margin,
                    noise: phy.noise,
                }
            }
            None => config.reception,
        };
        let phys = (0..n).map(|_| Transceiver::new(reception)).collect();
        let rngs = (0..n).map(|i| stream_rng(config.seed, i as u64)).collect();
        let plan = CoveragePlan::new(&channel, config.beamwidth);
        let mut scratch = Vec::with_capacity(n);
        let mut neighbors = vec![Vec::new(); n];
        fill_traffic_rows(&plan, &mut neighbors, &mut scratch);
        // Expected steady-state event population: per handshake a node puts
        // 4 frames on the air, each costing one TxEnd plus one batched
        // WaveStart/WaveEnd pair, with roughly one armed MAC timer per node
        // on top. Reserving this up front keeps the event queue from
        // re-growing mid-run.
        let expected_events = n * (1 + 4 * 3);
        // Fault injection is opt-in per run: a trivial plan compiles to no
        // state at all, so the perfect-channel path (and its RNG stream
        // consumption) is untouched and golden traces stay byte-identical.
        let faults = if config.fault.is_trivial() {
            None
        } else {
            let compiled = config
                .fault
                .compile(n)
                .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
            let fault_master = derive_seed(config.seed, FAULT_STREAM_SALT);
            let fault_rngs = (0..n).map(|i| stream_rng(fault_master, i as u64)).collect();
            Some(FaultState {
                compiled,
                rngs: fault_rngs,
            })
        };
        // Mobility draws from its own registered stream; a speed-0 model
        // performs no draws at all and its epochs move nothing, so the run
        // stays byte-identical to a mobility-free one (the golden anchor
        // in tests/mobility_golden.rs).
        let mobility = config.mobility.map(|m| {
            let radius = MobilityState::field_radius(&topology.positions, topology.range);
            let state = MobilityState::new(
                m.model,
                &topology.positions,
                radius,
                derive_seed(config.seed, MOBILITY_STREAM_SALT),
            );
            MobilityRuntime {
                state,
                epoch: m.epoch,
            }
        });
        let sinr = config.sinr.map(|phy| {
            let sinr_rngs = if phy.fading_sigma > 0.0 {
                let master = derive_seed(config.seed, SINR_STREAM_SALT);
                (0..n).map(|i| stream_rng(master, i as u64)).collect()
            } else {
                Vec::new()
            };
            SinrRuntime {
                phy,
                pattern: phy.pattern(config.beamwidth),
                rngs: sinr_rngs,
                powers: Vec::with_capacity(n),
            }
        });
        NetWorld {
            channel,
            plan,
            macs,
            phys,
            rngs,
            app: vec![AppStats::default(); n],
            neighbors,
            params: config.params.clone(),
            data_bytes: config.data_bytes,
            traffic: config.traffic,
            record_delays: config.record_delays,
            measured: topology.measured,
            next_signal: 0,
            faults,
            recorder: None,
            expected_events,
            scratch,
            mobility,
            sinr,
            inflight: BTreeMap::new(),
            stale_timers: 0,
        }
    }

    /// Attaches a structured trace recorder; subsequent MAC/PHY activity is
    /// pushed into it as typed [`TraceRecord`]s, every transmitted frame
    /// as a `FrameTx` record ([`TraceRecord::frame_tx`] rebuilds it).
    pub fn attach_recorder(&mut self, recorder: RingTrace) {
        self.recorder = Some(recorder);
    }

    /// Detaches and returns the structured trace recorder, if attached.
    pub fn take_recorder(&mut self) -> Option<RingTrace> {
        self.recorder.take()
    }

    /// The attached structured trace recorder, if any.
    pub fn recorder(&self) -> Option<&RingTrace> {
        self.recorder.as_ref()
    }

    /// Pushes one record into the attached recorder, if any.
    pub(crate) fn record(&mut self, time: SimTime, node: NodeId, kind: RecordKind) {
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.push(TraceRecord { time, node, kind });
        }
    }

    /// Injects one packet from `src` to `dst` into the MAC, bypassing the
    /// traffic generator — for scripted scenarios and tests.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn enqueue_packet(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        sched: &mut Scheduler<NetEvent>,
    ) {
        assert!(src.0 < self.macs.len(), "unknown source {src}");
        assert!(dst.0 < self.macs.len(), "unknown destination {dst}");
        let seq = self.app[src.0].next_seq;
        self.app[src.0].next_seq += 1;
        let now = sched.now();
        self.with_mac(src, sched, |mac, ctx| {
            mac.enqueue(DataPacket::new(seq, src, dst, bytes, now), ctx);
        });
    }

    /// Seeds initial traffic according to the traffic model: saturated
    /// sources get their first packet immediately (and are refilled
    /// forever); Poisson sources get their first arrival scheduled.
    pub fn prime(&mut self, sched: &mut Scheduler<NetEvent>) {
        // panic-path: per-node vectors are all sized to the node count at
        // build time, and node ids come from the topology/coverage plan, so
        // id-indexed access is infallible.
        sched.reserve(self.expected_events);
        if let Some(m) = &self.mobility {
            sched.schedule_in(m.epoch, NetEvent::MobilityEpoch);
        }
        match self.traffic {
            TrafficModel::Saturated => {
                for i in 0..self.macs.len() {
                    self.refill(NodeId(i), sched);
                }
            }
            TrafficModel::Poisson {
                packets_per_sec, ..
            } => {
                for i in 0..self.macs.len() {
                    if !self.neighbors[i].is_empty() {
                        let dt = exp_interval(&mut self.rngs[i], packets_per_sec);
                        sched.schedule_in(dt, NetEvent::Arrival { node: NodeId(i) });
                    }
                }
            }
            TrafficModel::Manual => {}
        }
    }

    /// Zeroes all MAC counters and application stats (end of warm-up).
    pub fn reset_counters(&mut self) {
        for mac in &mut self.macs {
            mac.reset_counters();
        }
        for app in &mut self.app {
            app.delivered = 0;
            app.completed = 0;
            app.dropped = 0;
            app.queue_drops = 0;
            app.fer_losses = 0;
            app.outage_losses = 0;
            app.delay_samples.clear();
            app.airtime = AirtimeBreakdown::default();
        }
    }

    /// MAC-timer events dispatched after their arming was cancelled or
    /// superseded, which the MAC discards by generation: dead weight the
    /// lazily cancelled timers leave in the event queue. Counted over the
    /// whole run, warm-up included, like [`Simulation::events_processed`];
    /// [`NetWorld::reset_counters`] leaves it alone. Observation never
    /// changes it: a recorder or auditors see the same dispatches.
    ///
    /// [`Simulation::events_processed`]: dirca_sim::Simulation::events_processed
    pub fn stale_timers(&self) -> u64 {
        self.stale_timers
    }

    /// The per-node MACs (for result collection).
    pub fn macs(&self) -> &[DcfMac] {
        &self.macs
    }

    /// The per-node application stats.
    pub fn app_stats(&self) -> &[AppStats] {
        &self.app
    }

    /// Number of leading nodes inside the measurement region.
    pub fn measured(&self) -> usize {
        self.measured
    }

    /// The per-node transceivers (read-only; used by the runtime invariant
    /// auditors to cross-check PHY state against the event stream).
    pub fn transceivers(&self) -> &[Transceiver] {
        &self.phys
    }

    /// The PHY/MAC timing parameters in force.
    pub fn params(&self) -> &Dot11Params {
        &self.params
    }

    /// The coverage plan's position-epoch work counters, or `None` for a
    /// static run. A speed-0 mobility model ticks only the epoch counter:
    /// re-bins and rebuilds stay at exactly zero (the counter-asserted
    /// golden regression).
    pub fn invalidation_stats(&self) -> Option<InvalidationStats> {
        self.mobility.as_ref().map(|_| self.plan.stats())
    }

    /// The node positions queries are currently answered over: the
    /// build-time positions, moved by every position epoch so far.
    pub fn current_positions(&self) -> &[dirca_geometry::Point] {
        self.plan.positions()
    }

    /// Dispatches a MAC callback for `node` with a fully wired context.
    fn with_mac(
        &mut self,
        node: NodeId,
        sched: &mut Scheduler<NetEvent>,
        f: impl FnOnce(&mut DcfMac, &mut Ctx<'_>),
    ) {
        // panic-path: per-node vectors (macs/phys/rngs/app) are all sized to
        // the node count at build time and `node` comes from the event
        // stream, which only ever carries built node ids.
        // Mute is decided at the instant the MAC acts: if the node's radio
        // is out of service now, any frame it puts on the air this instant
        // reaches nobody (the MAC itself keeps running and will time out
        // through its normal retry path).
        let muted = match &self.faults {
            Some(f) => f.compiled.in_outage(node, sched.now()),
            None => false,
        };
        let NetWorld {
            channel,
            macs,
            phys,
            rngs,
            app,
            params,
            next_signal,
            recorder,
            record_delays,
            ..
        } = self;
        let mut ctx = Ctx {
            node,
            sched,
            phy: &mut phys[node.0],
            channel,
            params,
            rng: &mut rngs[node.0],
            next_signal,
            app: &mut app[node.0],
            recorder,
            record_delays: *record_delays,
            muted,
        };
        f(&mut macs[node.0], &mut ctx);
    }

    /// Decides the fate of a frame the PHY decoded successfully at `dst`,
    /// applying outage deafness first (a dead radio decodes nothing, no
    /// randomness involved) and then the link's frame error rate, drawn
    /// from the receiver's dedicated fault stream.
    pub(crate) fn fault_verdict(
        &mut self,
        src: NodeId,
        dst: NodeId,
        frame: &Frame,
        now: SimTime,
    ) -> FaultVerdict {
        // panic-path: fault rngs are sized to the node count when the fault
        // state is built, so `dst`-indexed access is infallible.
        let Some(state) = self.faults.as_mut() else {
            return FaultVerdict::Deliver;
        };
        // The frame occupied the receiver over [now - airtime, now].
        let start = now - self.params.frame_airtime(frame);
        if state.compiled.outage_overlaps(dst, start, now) {
            return FaultVerdict::Outage;
        }
        let fer = state.compiled.fer(src, dst);
        if fer > 0.0 && state.rngs[dst.0].random::<f64>() < fer {
            return FaultVerdict::Corrupt;
        }
        FaultVerdict::Deliver
    }

    /// Keeps a saturated node's MAC backlogged with fresh packets to random
    /// neighbours.
    fn refill(&mut self, node: NodeId, sched: &mut Scheduler<NetEvent>) {
        // panic-path: per-node vectors are sized to the node count at build,
        // so `node`-indexed access is infallible.
        if self.traffic != TrafficModel::Saturated || self.macs[node.0].has_backlog() {
            return;
        }
        if self.neighbors[node.0].is_empty() {
            return; // isolated node: nothing to send to
        }
        let dst = self.pick_neighbor(node);
        let seq = self.app[node.0].next_seq;
        self.app[node.0].next_seq += 1;
        let bytes = self.data_bytes;
        let now = sched.now();
        self.with_mac(node, sched, |mac, ctx| {
            mac.enqueue(DataPacket::new(seq, node, dst, bytes, now), ctx);
        });
    }

    /// One Poisson arrival at `node`: enqueue (or drop at a full queue)
    /// and schedule the next arrival.
    fn poisson_arrival(&mut self, node: NodeId, sched: &mut Scheduler<NetEvent>) {
        // panic-path: per-node vectors are sized to the node count at build,
        // so `node`-indexed access is infallible.
        let TrafficModel::Poisson {
            packets_per_sec,
            max_queue,
        } = self.traffic
        else {
            return; // stale event after a model change; ignore
        };
        if !self.neighbors[node.0].is_empty() {
            if self.macs[node.0].queue_len() < max_queue {
                let dst = self.pick_neighbor(node);
                let seq = self.app[node.0].next_seq;
                self.app[node.0].next_seq += 1;
                let bytes = self.data_bytes;
                let now = sched.now();
                self.with_mac(node, sched, |mac, ctx| {
                    mac.enqueue(DataPacket::new(seq, node, dst, bytes, now), ctx);
                });
            } else {
                self.app[node.0].queue_drops += 1;
            }
            let dt = exp_interval(&mut self.rngs[node.0], packets_per_sec);
            sched.schedule_in(dt, NetEvent::Arrival { node });
        }
    }

    /// Picks a uniformly random neighbour of `node`.
    ///
    /// panic-path: callers check `neighbors[node]` is non-empty, so the
    /// range is never empty and the picked index is always in bounds.
    pub(crate) fn pick_neighbor(&mut self, node: NodeId) -> NodeId {
        let pick = self.rngs[node.0].random_range(0..self.neighbors[node.0].len());
        NodeId(self.neighbors[node.0][pick])
    }

    /// Receivers covered by a wave from `src` (aimed at `aim` when
    /// `directional`), in ascending id order — the exact set the event
    /// handler walks (including the SINR PHY's zero-power membership
    /// filter, which is deterministic: fading rescales powers but never
    /// zeroes them). Allocates; intended for auditors and tests, not the
    /// hot path.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `aim` is out of range.
    pub fn wave_targets(&self, src: NodeId, aim: NodeId, directional: bool) -> Vec<NodeId> {
        let mut out = Vec::new();
        if self.sinr.is_some() {
            self.fill_delivered_targets(src, aim, directional, &mut out);
        } else {
            self.fill_wave_targets(src, aim, directional, &mut out);
        }
        out
    }

    /// Like [`NetWorld::wave_targets`], but pinned to a specific signal:
    /// if the wave's leading edge already ran under mobility, the stored
    /// in-flight footprint is returned (a position epoch between the edges
    /// must not change the walked set). Auditors use this so their shadow
    /// state matches the handler exactly.
    pub fn wave_targets_for(
        &self,
        id: SignalId,
        src: NodeId,
        aim: NodeId,
        directional: bool,
    ) -> Vec<NodeId> {
        if let Some(stored) = self.inflight.get(&id.0) {
            return stored.clone();
        }
        self.wave_targets(src, aim, directional)
    }

    /// Fills `out` with the receivers covered by a transmission from `src`
    /// (aimed at `aim` when `directional`), in ascending id order, under
    /// the binary (non-SINR) footprint rule.
    ///
    /// The plan answers every aim — in range or not — from the
    /// transmitter's neighbour slice, with no trigonometry and no
    /// allocation beyond `out`'s capacity. It is also a SINR wave's
    /// candidate set, with `directional` set only for an ideal sector: a
    /// leaky pattern's side lobes reach the whole omni neighbourhood (the
    /// interference footprint is truncated at the coverage reach, the
    /// model's stated approximation).
    pub(crate) fn fill_wave_targets(
        &self,
        src: NodeId,
        aim: NodeId,
        directional: bool,
        out: &mut Vec<NodeId>,
    ) {
        let node = self.plan.node(src);
        if directional {
            node.directional_coverage_into(aim, out);
        } else {
            out.clear();
            out.extend_from_slice(node.neighbors());
        }
    }

    /// Fills `out` with the receivers a SINR wave actually reaches — the
    /// deterministic membership part of `fill_sinr_wave`, with no fading
    /// draws and no power bookkeeping. `WaveEnd` uses it on static-SINR
    /// runs (where it provably equals the leading edge's set) and auditors
    /// use it through [`NetWorld::wave_targets`].
    fn fill_delivered_targets(
        &self,
        src: NodeId,
        aim: NodeId,
        directional: bool,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        // panic-path: only the SINR dispatch paths call this, and they
        // check the runtime exists.
        let s = self
            .sinr
            .as_ref()
            .expect("SINR target fill without a SINR runtime");
        let ideal = s.phy.is_ideal_pattern();
        self.fill_wave_targets(src, aim, directional && ideal, out);
        if !directional || ideal {
            // Omni radiation and the flat ideal sector put main_gain > 0
            // on every candidate: nothing is filtered.
            return;
        }
        let node = self.plan.node(src);
        let (boresight, _) = node.toward(aim);
        out.retain(|&dst| {
            let (heading, dist) = node.toward(dst);
            s.pattern
                .tx_gain(boresight.separation(heading), dist * dist)
                > 0.0
        });
    }

    /// Fills `out` with the receivers a SINR wave from `src` (aimed at
    /// `aim` when `directional`) reaches, and the runtime's `powers`
    /// scratch with the matching received powers, in ascending id order.
    ///
    /// Zero-power targets are dropped entirely: a frame the pattern
    /// extinguished puts no energy at the node, so it must not even touch
    /// the transceiver — under an ideal pattern the kept set is exactly
    /// the binary footprint, which is what keeps carrier sense (and the
    /// whole trace) byte-identical to the binary PHY. Fading draws
    /// (`fading_sigma > 0`) are taken per kept receiver in ascending id
    /// order from the receiver's dedicated `SINR_STREAM_SALT` stream; a
    /// fading factor is strictly positive, so fading never changes
    /// membership.
    fn fill_sinr_wave(
        &mut self,
        src: NodeId,
        aim: NodeId,
        directional: bool,
        out: &mut Vec<NodeId>,
    ) {
        // Membership first (immutable), then powers (needs the fading
        // RNGs mutably).
        {
            // panic-path: only the SINR dispatch path calls this, and it
            // checked the runtime exists.
            let s = self
                .sinr
                .as_ref()
                .expect("SINR wave fill without a SINR runtime");
            let ideal = s.phy.is_ideal_pattern();
            self.fill_wave_targets(src, aim, directional && ideal, out);
        }
        let NetWorld { plan, sinr, .. } = self;
        let node = plan.node(src);
        let boresight = directional.then(|| node.toward(aim).0);
        let s = sinr
            .as_mut()
            .expect("SINR wave fill without a SINR runtime");
        s.powers.clear();
        let ideal = s.phy.is_ideal_pattern();
        let mut kept = 0;
        for i in 0..out.len() {
            let dst = out[i];
            // Every candidate is a neighbour: its bearing and distance come
            // from the source's edge cache.
            let (heading, dist) = node.toward(dst);
            let gain = match boresight {
                // Ideal sector: the candidate set *is* the main lobe
                // (flat at main_gain, apex rule included), so the support
                // matches the binary footprint bit for bit with no
                // re-derived geometry.
                Some(_) if ideal => s.phy.main_gain,
                Some(b) => s.pattern.tx_gain(b.separation(heading), dist * dist),
                // Omni transmissions radiate the main-lobe gain
                // isotropically.
                None => s.phy.main_gain,
            };
            let mut power = s.phy.rx_power(gain, dist);
            if power > 0.0 && s.phy.fading_sigma > 0.0 {
                // panic-path: fading rngs are sized to the node count
                // whenever fading_sigma > 0 (see build).
                let z = standard_normal(&mut s.rngs[dst.0]);
                power *= (s.phy.fading_sigma * z).exp();
            }
            if power > 0.0 {
                out[kept] = dst;
                s.powers.push(power);
                kept += 1;
            }
        }
        out.truncate(kept);
    }

    /// One position epoch: advance the mobility model, rebuild the
    /// coverage plan and every traffic row over the new positions, revive
    /// saturated sources the motion reconnected, and schedule the next
    /// epoch. A zero-motion epoch does zero cache work (counter-asserted
    /// by the golden battery) and consumes no RNG.
    fn mobility_epoch(&mut self, sched: &mut Scheduler<NetEvent>) {
        let (moved, epoch) = {
            let NetWorld {
                mobility,
                plan,
                neighbors,
                scratch,
                ..
            } = self;
            // panic-path: the event is only ever scheduled when a mobility
            // runtime exists (prime and this reschedule both guard on it).
            let m = mobility
                .as_mut()
                .expect("mobility epoch without a mobility runtime");
            let moves = m.state.step(m.epoch.as_secs_f64());
            plan.apply_moves(moves);
            if !moves.is_empty() {
                fill_traffic_rows(plan, neighbors, scratch);
            }
            (!moves.is_empty(), m.epoch)
        };
        // A saturated node that went idle while isolated gets no further
        // events, so motion that reconnects it must restart its source
        // here (refill no-ops on backlogged or still-isolated nodes).
        // Poisson chains are not revived: an arrival finding no neighbours
        // ends its schedule permanently, matching the static contract that
        // isolated sources generate nothing.
        if moved {
            for id in 0..self.macs.len() {
                self.refill(NodeId(id), sched);
            }
        }
        sched.schedule_in(epoch, NetEvent::MobilityEpoch);
    }
}

/// Refills every node's traffic row from `plan`: the strict `d² ≤ R²`
/// filter of its omni slice (O(n · density), replacing the O(n²)
/// `Topology::adjacency` scan). Strict ⊆ slack, so the predicate and
/// ascending order are preserved bit for bit. `scratch` is a buffer.
fn fill_traffic_rows(plan: &CoveragePlan, rows: &mut [Vec<usize>], scratch: &mut Vec<NodeId>) {
    for (id, row) in rows.iter_mut().enumerate() {
        plan.node(NodeId(id)).adjacency_into(scratch);
        row.clear();
        row.reserve_exact(scratch.len());
        row.extend(scratch.iter().map(|n| n.0));
    }
}

/// Samples an exponential inter-arrival interval with the given rate
/// (events per second).
pub(crate) fn exp_interval(rng: &mut SmallRng, rate: f64) -> dirca_sim::SimDuration {
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let secs = -u.ln() / rate;
    dirca_sim::SimDuration::from_nanos((secs * 1e9).ceil().max(1.0) as u64)
}

/// One standard-normal draw via Box–Muller (two uniform draws, no
/// rejection, so the per-draw stream consumption is constant).
fn standard_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl World for NetWorld {
    type Event = NetEvent;

    /// The one event dispatch of the network world.
    fn handle(&mut self, now: SimTime, event: NetEvent, sched: &mut Scheduler<NetEvent>) {
        // panic-path: events only ever carry node ids the world itself
        // built, and every per-node vector is sized to the node count, so
        // id-indexed access throughout dispatch is infallible.
        match event {
            NetEvent::WaveStart {
                src,
                id,
                frame,
                directional,
            } => {
                let end = now + self.params.frame_airtime(&frame);
                let mut wave = std::mem::take(&mut self.scratch);
                if self.sinr.is_some() {
                    self.fill_sinr_wave(src, frame.dst, directional, &mut wave);
                    // panic-path: fill_sinr_wave just ran, so the runtime
                    // exists and powers is wave-parallel.
                    let powers =
                        std::mem::take(&mut self.sinr.as_mut().expect("SINR runtime").powers);
                    for (i, &dst) in wave.iter().enumerate() {
                        let (heading, distance) = self.plan.node(dst).toward(src);
                        let became_busy = self.phys[dst.0]
                            .signal_arrives_powered(id, heading, distance, powers[i], end);
                        if became_busy {
                            self.with_mac(dst, sched, |mac, ctx| mac.on_medium_busy(ctx));
                        }
                    }
                    self.sinr.as_mut().expect("SINR runtime").powers = powers;
                } else {
                    self.fill_wave_targets(src, frame.dst, directional, &mut wave);
                    for &dst in &wave {
                        let (heading, distance) = self.plan.node(dst).toward(src);
                        let became_busy =
                            self.phys[dst.0].signal_arrives_at(id, heading, distance, end);
                        if became_busy {
                            self.with_mac(dst, sched, |mac, ctx| mac.on_medium_busy(ctx));
                        }
                    }
                }
                if self.mobility.is_some() {
                    // Pin the walked footprint: the trailing edge must
                    // visit exactly these receivers even if an epoch moves
                    // nodes while the frame is on the air.
                    self.inflight.insert(id.0, wave.clone());
                }
                self.scratch = wave;
            }
            NetEvent::WaveEnd {
                src,
                id,
                frame,
                directional,
            } => {
                let mut wave = std::mem::take(&mut self.scratch);
                if self.mobility.is_some() {
                    // panic-path: every WaveStart under mobility pins its
                    // footprint before the trailing edge can fire.
                    let stored = self
                        .inflight
                        .remove(&id.0)
                        .expect("trailing edge without a pinned footprint");
                    wave.clear();
                    wave.extend_from_slice(&stored);
                } else if self.sinr.is_some() {
                    // Static positions: the deterministic membership
                    // filter reproduces the leading edge's set exactly.
                    self.fill_delivered_targets(src, frame.dst, directional, &mut wave);
                } else {
                    self.fill_wave_targets(src, frame.dst, directional, &mut wave);
                }
                for &dst in &wave {
                    let report = self.phys[dst.0].signal_ends(id);
                    if report.delivered {
                        match self.fault_verdict(src, dst, &frame, now) {
                            FaultVerdict::Deliver => {
                                // Mirror what the MAC will do with the frame:
                                // addressed frames are received, overheard
                                // frames load the receiver's NAV.
                                self.record(
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
                                self.with_mac(dst, sched, |mac, ctx| {
                                    mac.on_frame_received(frame, ctx);
                                });
                            }
                            FaultVerdict::Corrupt => {
                                // Channel errors look like noise to the MAC:
                                // same EIFS + retry path as a collision.
                                self.record(now, dst, RecordKind::FaultCorrupt);
                                self.app[dst.0].fer_losses += 1;
                                self.with_mac(dst, sched, |mac, ctx| mac.on_rx_corrupted(ctx));
                            }
                            FaultVerdict::Outage => {
                                // A dead decoder produces nothing at all —
                                // no frame, no noise burst, no EIFS.
                                self.record(now, dst, RecordKind::FaultOutage);
                                self.app[dst.0].outage_losses += 1;
                            }
                        }
                    } else if report.corrupted {
                        self.record(now, dst, RecordKind::RxCorrupted);
                        self.with_mac(dst, sched, |mac, ctx| mac.on_rx_corrupted(ctx));
                    }
                    if report.medium_idle_after {
                        self.with_mac(dst, sched, |mac, ctx| mac.on_medium_idle(ctx));
                    }
                    self.refill(dst, sched);
                }
                self.scratch = wave;
            }
            NetEvent::TxEnd { node } => {
                self.phys[node.0].end_transmit();
                self.with_mac(node, sched, |mac, ctx| mac.on_tx_done(ctx));
                self.refill(node, sched);
            }
            NetEvent::MacTimer { node, kind, gen } => {
                // A cancelled or superseded arming is a state no-op: the MAC
                // discards it by generation, and the traffic refill that
                // follows a live dispatch can have nothing to do (any event
                // that drains a backlog refills it before returning). Skip
                // the context plumbing for those, they are roughly a third
                // of all dispatched events under contention.
                if self.macs[node.0].is_timer_live(kind, gen) {
                    // Only response timeouts and NAV expiry are trace-worthy:
                    // backoff/SIFS firings are the normal cadence, and the
                    // backoff decision itself is captured at draw time.
                    match kind {
                        TimerKind::CtsTimeout | TimerKind::DataTimeout | TimerKind::AckTimeout => {
                            self.record(now, node, RecordKind::Timeout { timer: kind });
                        }
                        TimerKind::NavExpire => {
                            self.record(now, node, RecordKind::NavExpire);
                        }
                        TimerKind::Backoff | TimerKind::Sifs => {}
                    }
                    self.with_mac(node, sched, |mac, ctx| mac.on_timer(kind, gen, ctx));
                    self.refill(node, sched);
                } else {
                    self.stale_timers += 1;
                }
            }
            NetEvent::Arrival { node } => {
                self.poisson_arrival(node, sched);
            }
            NetEvent::MobilityEpoch => {
                self.mobility_epoch(sched);
            }
        }
    }
}

/// The [`MacContext`] wired to the event queue and the shared channel.
struct Ctx<'a> {
    node: NodeId,
    sched: &'a mut Scheduler<NetEvent>,
    phy: &'a mut Transceiver,
    channel: &'a Channel,
    params: &'a Dot11Params,
    rng: &'a mut SmallRng,
    next_signal: &'a mut u64,
    app: &'a mut AppStats,
    recorder: &'a mut Option<RingTrace>,
    record_delays: bool,
    /// The node's radio is in an outage window at this instant: its
    /// transmissions radiate nothing.
    muted: bool,
}

impl Ctx<'_> {
    /// Pushes one record attributed to this context's node.
    fn record(&mut self, kind: RecordKind) {
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.push(TraceRecord {
                time: self.sched.now(),
                node: self.node,
                kind,
            });
        }
    }
}

impl MacContext for Ctx<'_> {
    fn now(&self) -> SimTime {
        self.sched.now()
    }

    fn carrier_busy(&self) -> bool {
        self.phy.carrier_busy()
    }

    fn transmit(&mut self, frame: Frame, directional: bool) {
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.push(TraceRecord::transmission(
                self.sched.now(),
                &frame,
                directional,
            ));
        }
        let duration = self.params.frame_airtime(&frame);
        match frame.kind {
            FrameKind::Rts => self.app.airtime.rts += duration,
            FrameKind::Cts => self.app.airtime.cts += duration,
            FrameKind::Data => self.app.airtime.data += duration,
            FrameKind::Ack => self.app.airtime.ack += duration,
        }
        self.phy.begin_transmit();
        self.sched
            .schedule_in(duration, NetEvent::TxEnd { node: self.node });

        if self.muted {
            // Out-of-service radio: the MAC went through the motions (the
            // trace and airtime books record its attempt, TxEnd still
            // fires), but no wave reaches any receiver — peers' NAVs go
            // stale and the sender burns through its retry limits.
            return;
        }

        let id = SignalId(*self.next_signal);
        *self.next_signal += 1;
        let prop = self.channel.propagation_delay();
        // Hot path: one batched wave pair per frame. The handler walks the
        // precomputed footprint with cached headings and distances, so heap
        // traffic stays O(1) per transmission regardless of how many
        // receivers the wave covers.
        self.sched.schedule_in(
            prop,
            NetEvent::WaveStart {
                src: self.node,
                id,
                frame,
                directional,
            },
        );
        self.sched.schedule_in(
            duration + prop,
            NetEvent::WaveEnd {
                src: self.node,
                id,
                frame,
                directional,
            },
        );
    }

    fn schedule_timer(
        &mut self,
        kind: TimerKind,
        gen: TimerGeneration,
        delay: dirca_sim::SimDuration,
    ) {
        self.sched.schedule_in(
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
        self.record(RecordKind::BackoffDraw { cw, slots });
        slots
    }

    fn deliver(&mut self, _frame: &Frame) {
        self.app.delivered += 1;
    }

    fn packet_done(&mut self, packet: DataPacket, success: bool) {
        self.record(if success {
            RecordKind::PacketAcked
        } else {
            RecordKind::PacketDropped
        });
        if success {
            self.app.completed += 1;
            if self.record_delays {
                let delay = self.sched.now().saturating_duration_since(packet.created);
                self.app.delay_samples.push(delay.as_secs_f64());
            }
        } else {
            self.app.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use dirca_mac::Scheme;
    use dirca_sim::{SimDuration, Simulation};
    use dirca_topology::fixtures;

    fn build(topo: &Topology, scheme: Scheme) -> Simulation<NetWorld> {
        let config = SimConfig::new(scheme).with_seed(1);
        let world = NetWorld::build(topo, &config);
        let mut sim = Simulation::new(world);
        {
            let (world, sched) = sim.world_and_scheduler_mut();
            world.prime(sched);
        }
        sim
    }

    #[test]
    fn priming_schedules_contention() {
        let topo = fixtures::pair(0.5, 1.0);
        let mut sim = build(&topo, Scheme::OrtsOcts);
        assert!(sim.scheduler_mut().pending() > 0, "priming must arm timers");
    }

    #[test]
    fn first_handshake_completes() {
        let topo = fixtures::pair(0.5, 1.0);
        let mut sim = build(&topo, Scheme::OrtsOcts);
        sim.run_until(SimTime::from_millis(100));
        let total_acked: u64 = sim
            .world()
            .macs()
            .iter()
            .map(|m| m.counters().packets_acked)
            .sum();
        assert!(total_acked > 0, "no handshake completed in 100 ms");
    }

    #[test]
    fn saturation_keeps_macs_backlogged() {
        let topo = fixtures::hidden_terminal();
        let mut sim = build(&topo, Scheme::OrtsOcts);
        sim.run_until(SimTime::from_millis(200));
        for mac in sim.world().macs() {
            assert!(mac.has_backlog(), "{} lost its backlog", mac.id());
        }
    }

    #[test]
    fn isolated_node_stays_idle() {
        // One connected pair plus one node far away: the isolated node must
        // generate no traffic and no events beyond priming.
        let mut topo = fixtures::pair(0.5, 1.0);
        topo.positions
            .push(dirca_geometry::Point::new(100.0, 100.0));
        topo.measured = 3;
        let mut sim = build(&topo, Scheme::OrtsOcts);
        sim.run_until(SimTime::from_millis(50));
        let counters = sim.world().macs()[2].counters();
        assert_eq!(counters.rts_tx, 0);
        assert!(!sim.world().macs()[2].has_backlog());
    }

    #[test]
    fn hidden_terminals_cause_data_collisions_then_recover() {
        // In the A—B—C fixture, A and C cannot hear each other; with RTS/CTS
        // active most collisions are avoided but some handshakes still fail.
        // The protocol must keep making progress regardless.
        let topo = fixtures::hidden_terminal();
        let mut sim = build(&topo, Scheme::OrtsOcts);
        sim.run_until(SimTime::from_secs(2));
        let total_acked: u64 = sim
            .world()
            .macs()
            .iter()
            .map(|m| m.counters().packets_acked)
            .sum();
        let total_rts: u64 = sim.world().macs().iter().map(|m| m.counters().rts_tx).sum();
        assert!(
            total_acked > 50,
            "throughput collapsed: {total_acked} acked"
        );
        assert!(total_rts >= total_acked);
    }

    #[test]
    fn reset_counters_clears_everything() {
        let topo = fixtures::pair(0.5, 1.0);
        let mut sim = build(&topo, Scheme::OrtsOcts);
        sim.run_until(SimTime::from_millis(100));
        sim.world_mut().reset_counters();
        for mac in sim.world().macs() {
            assert_eq!(mac.counters().packets_acked, 0);
            assert_eq!(mac.counters().rts_tx, 0);
        }
        for app in sim.world().app_stats() {
            assert_eq!(app.delivered, 0);
        }
    }

    #[test]
    fn app_stats_track_mac_counters() {
        let topo = fixtures::pair(0.5, 1.0);
        let mut sim = build(&topo, Scheme::OrtsOcts);
        sim.run_until(SimTime::from_secs(1));
        let world = sim.world();
        let mac_acked: u64 = world
            .macs()
            .iter()
            .map(|m| m.counters().packets_acked)
            .sum();
        let app_completed: u64 = world.app_stats().iter().map(|a| a.completed).sum();
        assert_eq!(mac_acked, app_completed);
        let mac_delivered: u64 = world
            .macs()
            .iter()
            .map(|m| m.counters().data_delivered)
            .sum();
        let app_delivered: u64 = world.app_stats().iter().map(|a| a.delivered).sum();
        assert_eq!(mac_delivered, app_delivered);
    }

    #[test]
    #[should_panic(expected = "empty topology")]
    fn empty_topology_rejected() {
        let topo = Topology {
            positions: vec![],
            range: 1.0,
            measured: 0,
        };
        let _ = NetWorld::build(&topo, &SimConfig::new(Scheme::OrtsOcts));
    }

    #[test]
    fn directional_signals_reach_only_beam() {
        // DRTS-DCTS on the hidden-terminal line: when A sends a narrow beam
        // to B, C must hear nothing (it is behind B but out of range of A
        // anyway); more interestingly, B beaming to A leaves C silent.
        let topo = fixtures::hidden_terminal();
        let config = SimConfig::new(Scheme::DrtsDcts)
            .with_seed(5)
            .with_beamwidth_degrees(30.0)
            .with_measure(SimDuration::from_millis(500));
        let world = NetWorld::build(&topo, &config);
        let mut sim = Simulation::new(world);
        {
            let (world, sched) = sim.world_and_scheduler_mut();
            world.prime(sched);
        }
        sim.run_until(SimTime::from_secs(1));
        let acked: u64 = sim
            .world()
            .macs()
            .iter()
            .map(|m| m.counters().packets_acked)
            .sum();
        assert!(acked > 0, "directional handshakes must complete");
    }

    #[test]
    fn moving_epochs_keep_traffic_rows_on_the_current_positions() {
        let topo = {
            let mut rng = dirca_sim::rng::stream_rng(3, 0xA11CE);
            dirca_topology::RingSpec::paper(5, 1.0)
                .generate(&mut rng)
                .expect("ring")
        };
        let walkers = dirca_topology::MobilityModel::RandomWaypoint {
            speed_min: 2.0,
            speed_max: 4.0,
            pause_secs: 0.05,
        };
        let config = SimConfig::new(Scheme::DrtsDcts)
            .with_seed(3)
            .with_beamwidth_degrees(30.0)
            .with_mobility(walkers, SimDuration::from_millis(5));
        let mut sim = Simulation::new(NetWorld::build(&topo, &config));
        {
            let (world, sched) = sim.world_and_scheduler_mut();
            world.prime(sched);
        }
        sim.run_until(SimTime::from_millis(52));
        let world = sim.world();
        let n = topo.len();

        // One plan: the counters and positions the world reports are the
        // plan's that answers every coverage query.
        let stats = world.invalidation_stats().expect("mobility attached");
        assert_eq!(stats, world.plan.stats());
        assert_eq!(stats.epochs, 10);
        assert_eq!(stats.rebuilds, stats.epochs * n as u64);
        let positions = world.current_positions();
        assert!(std::ptr::eq(positions, world.plan.positions()));
        assert_ne!(positions, topo.positions.as_slice(), "nothing moved");

        let r2 = topo.range * topo.range;
        for (i, row) in world.neighbors.iter().enumerate() {
            let strict: Vec<usize> = (0..n)
                .filter(|&j| j != i && positions[i].distance_squared(positions[j]) <= r2)
                .collect();
            assert_eq!(row, &strict, "traffic row of node {i}");
        }
    }
}
