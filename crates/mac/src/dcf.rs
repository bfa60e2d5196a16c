//! The DCF protocol engine.

use std::collections::{BTreeMap, VecDeque};

use dirca_radio::NodeId;
use dirca_sim::{SimDuration, SimTime, TimerGeneration, TimerSlot};

use crate::{Backoff, DataPacket, Dot11Params, Frame, FrameKind, MacCounters, Nav, Scheme};

/// The MAC's logical timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// DIFS/EIFS wait plus backoff countdown; fires when the node may send
    /// its RTS.
    Backoff,
    /// SIFS gap before a response frame (CTS, DATA, or ACK).
    Sifs,
    /// Waiting for the CTS answering our RTS.
    CtsTimeout,
    /// Waiting (as receiver) for the DATA frame after our CTS.
    DataTimeout,
    /// Waiting for the ACK answering our DATA frame.
    AckTimeout,
    /// The NAV reservation we honour has expired.
    NavExpire,
}

impl TimerKind {
    const COUNT: usize = 6;

    /// Every timer kind, in `index()` order.
    pub const ALL: [TimerKind; TimerKind::COUNT] = [
        TimerKind::Backoff,
        TimerKind::Sifs,
        TimerKind::CtsTimeout,
        TimerKind::DataTimeout,
        TimerKind::AckTimeout,
        TimerKind::NavExpire,
    ];

    fn index(self) -> usize {
        match self {
            TimerKind::Backoff => 0,
            TimerKind::Sifs => 1,
            TimerKind::CtsTimeout => 2,
            TimerKind::DataTimeout => 3,
            TimerKind::AckTimeout => 4,
            TimerKind::NavExpire => 5,
        }
    }
}

/// Services the MAC requires from its host (the network layer in
/// simulation, or a mock in tests).
pub trait MacContext {
    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Physical carrier sense: is signal energy arriving, or are we
    /// transmitting?
    fn carrier_busy(&self) -> bool;

    /// Put `frame` on the air. `directional` selects a beam aimed at
    /// `frame.dst` (the host resolves positions); otherwise the
    /// transmission is omni-directional. The host must deliver a
    /// [`DcfMac::on_tx_done`] when the frame leaves the air.
    fn transmit(&mut self, frame: Frame, directional: bool);

    /// Schedule a [`DcfMac::on_timer`] callback carrying `(kind, gen)`
    /// after `delay`.
    fn schedule_timer(&mut self, kind: TimerKind, gen: TimerGeneration, delay: SimDuration);

    /// Sample a backoff draw uniformly from `[0, cw]`.
    fn draw_backoff_slots(&mut self, cw: u32) -> u32;

    /// A DATA frame addressed to this node was decoded; hand its payload to
    /// the upper layer.
    fn deliver(&mut self, frame: &Frame);

    /// The MAC finished serving `packet`: acknowledged (`success`) or
    /// dropped after exhausting retries.
    fn packet_done(&mut self, packet: DataPacket, success: bool);
}

/// Tunables beyond the PHY parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacConfig {
    /// RTS retry limit (station short retry count), 7 in IEEE 802.11.
    pub short_retry_limit: u32,
    /// DATA retry limit (station long retry count), 4 in IEEE 802.11.
    pub long_retry_limit: u32,
    /// Apply EIFS after corrupted receptions (IEEE 802.11 §9.2.10).
    pub use_eifs: bool,
    /// Receivers stay silent on RTS while their NAV is set (standard
    /// behaviour; disabling it is an ablation knob).
    pub respect_nav_on_rts: bool,
    /// Ko-style adaptive RTS (scheme two of Ko et al., INFOCOM 2000):
    /// retries after a failed directional RTS fall back to omni-directional
    /// RTS transmissions, trading spatial reuse for a better chance of
    /// silencing whatever destroyed the first attempt. Only meaningful for
    /// the directional schemes.
    pub omni_rts_on_retry: bool,
    /// dot11RTSThreshold: frames of more than this many bytes use the
    /// RTS/CTS handshake; shorter frames use two-way basic access
    /// (DATA/ACK). `0` (the default here) means every frame is protected
    /// by RTS/CTS, as in the paper's experiments; `u32::MAX` disables the
    /// handshake entirely.
    pub rts_threshold_bytes: u32,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            short_retry_limit: 7,
            long_retry_limit: 4,
            use_eifs: true,
            respect_nav_on_rts: true,
            omni_rts_on_retry: false,
            rts_threshold_bytes: 0,
        }
    }
}

/// Protocol state. Transmitting states await [`DcfMac::on_tx_done`];
/// waiting states hold a timeout; SIFS states hold the SIFS timer.
#[derive(Debug, Clone, PartialEq)]
enum State {
    /// Nothing to send, not engaged in a peer's exchange.
    Idle,
    /// A packet is pending; deferring / counting down backoff.
    Contend,
    /// Our RTS is on the air.
    TxRts,
    /// RTS sent; CTS timeout running.
    WaitCts,
    /// CTS received; SIFS gap before our DATA.
    SifsData,
    /// Our DATA frame is on the air.
    TxData,
    /// DATA sent; ACK timeout running.
    WaitAck,
    /// Decoded an RTS addressed to us; SIFS gap before our CTS.
    SifsCts {
        /// The RTS being answered.
        rts: Frame,
    },
    /// Our CTS is on the air.
    TxCts {
        /// Handshake peer (the RTS sender).
        peer: NodeId,
        /// Announced data size, for the DATA timeout.
        data_bytes: u32,
    },
    /// CTS sent; waiting for the DATA frame.
    WaitData {
        /// Handshake peer.
        peer: NodeId,
    },
    /// Decoded a DATA frame addressed to us; SIFS gap before our ACK.
    SifsAck {
        /// The DATA frame being acknowledged.
        data: Frame,
    },
    /// Our ACK is on the air.
    TxAck,
}

/// One node's IEEE 802.11 DCF engine (with the scheme's directional
/// transmit rules).
///
/// See the crate-level docs for the host protocol. In short, the host must
/// call:
///
/// * [`DcfMac::on_medium_busy`] / [`DcfMac::on_medium_idle`] on physical
///   carrier-sense edges,
/// * [`DcfMac::on_frame_received`] for every cleanly decoded frame,
/// * [`DcfMac::on_rx_corrupted`] when a locked frame was destroyed,
/// * [`DcfMac::on_tx_done`] when a requested transmission leaves the air,
/// * [`DcfMac::on_timer`] when a scheduled timer fires.
#[derive(Debug)]
pub struct DcfMac {
    id: NodeId,
    scheme: Scheme,
    params: Dot11Params,
    config: MacConfig,
    state: State,
    queue: VecDeque<DataPacket>,
    current: Option<DataPacket>,
    service_start: SimTime,
    short_retries: u32,
    long_retries: u32,
    backoff: Backoff,
    nav: Nav,
    timers: [TimerSlot; TimerKind::COUNT],
    /// When the running backoff timer was armed and the IFS it began with.
    backoff_armed_at: Option<(SimTime, SimDuration)>,
    eifs_pending: bool,
    /// Receive dedup cache: last data sequence number seen per sender
    /// (IEEE 802.11 duplicate detection; dups are re-ACKed, not
    /// re-delivered).
    rx_last_seq: BTreeMap<NodeId, u64>,
    counters: MacCounters,
}

impl DcfMac {
    /// Creates an idle MAC for node `id` running `scheme`.
    pub fn new(id: NodeId, scheme: Scheme, params: Dot11Params, config: MacConfig) -> Self {
        let backoff = Backoff::new(params.cw_min, params.cw_max);
        DcfMac {
            id,
            scheme,
            params,
            config,
            state: State::Idle,
            queue: VecDeque::new(),
            current: None,
            service_start: SimTime::ZERO,
            short_retries: 0,
            long_retries: 0,
            backoff,
            nav: Nav::new(),
            timers: Default::default(),
            backoff_armed_at: None,
            eifs_pending: false,
            rx_last_seq: BTreeMap::new(),
            counters: MacCounters::new(),
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The scheme this MAC runs.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The virtual carrier-sense state (read-only; used by the runtime
    /// invariant auditors to cross-check transmit decisions against the
    /// NAV).
    pub fn nav(&self) -> &Nav {
        &self.nav
    }

    /// The behaviour knobs this MAC was built with.
    pub fn config(&self) -> &MacConfig {
        &self.config
    }

    /// The statistics counters.
    pub fn counters(&self) -> &MacCounters {
        &self.counters
    }

    /// Zeroes the statistics counters (used to discard warm-up transients).
    pub fn reset_counters(&mut self) {
        self.counters = MacCounters::new();
    }

    /// Packets queued behind the one in service.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the MAC is serving or holding any packet.
    pub fn has_backlog(&self) -> bool {
        self.current.is_some() || !self.queue.is_empty()
    }

    /// Accepts a packet from the upper layer.
    pub fn enqueue(&mut self, packet: DataPacket, ctx: &mut impl MacContext) {
        self.queue.push_back(packet);
        if self.state == State::Idle {
            self.state = State::Contend;
            self.try_resume(ctx);
        }
    }

    /// Physical carrier sense went busy: freeze any running backoff.
    pub fn on_medium_busy(&mut self, ctx: &mut impl MacContext) {
        if self.state != State::Contend {
            return;
        }
        if let Some((armed_at, ifs)) = self.backoff_armed_at.take() {
            // Credit fully elapsed idle slots counted after the IFS.
            let elapsed = ctx.now().saturating_duration_since(armed_at);
            if let Some(past_ifs) = elapsed.checked_sub(ifs) {
                let slots = (past_ifs.as_nanos() / self.params.slot.as_nanos()) as u32;
                self.backoff.consume(slots);
            }
            self.timer_mut(TimerKind::Backoff).cancel();
        }
    }

    /// Physical carrier sense went idle: resume contention if appropriate.
    pub fn on_medium_idle(&mut self, ctx: &mut impl MacContext) {
        self.try_resume(ctx);
    }

    /// A frame was decoded cleanly at this node.
    pub fn on_frame_received(&mut self, frame: Frame, ctx: &mut impl MacContext) {
        // A correct reception cancels any pending EIFS penalty.
        self.eifs_pending = false;

        if frame.dst != self.id {
            // Overheard: honour its reservation.
            self.nav.reserve(ctx.now(), frame.duration);
            return;
        }
        match frame.kind {
            FrameKind::Rts => self.on_rts(frame, ctx),
            FrameKind::Cts => self.on_cts(frame, ctx),
            FrameKind::Data => self.on_data(frame, ctx),
            FrameKind::Ack => self.on_ack(frame, ctx),
        }
    }

    /// A locked frame was destroyed by interference: arm the EIFS penalty.
    pub fn on_rx_corrupted(&mut self, _ctx: &mut impl MacContext) {
        if self.config.use_eifs {
            self.eifs_pending = true;
        }
    }

    /// Our transmission left the air.
    pub fn on_tx_done(&mut self, ctx: &mut impl MacContext) {
        match std::mem::replace(&mut self.state, State::Idle) {
            State::TxRts => {
                self.state = State::WaitCts;
                self.arm(ctx, TimerKind::CtsTimeout, self.params.cts_timeout());
            }
            State::TxCts { peer, data_bytes } => {
                self.state = State::WaitData { peer };
                self.arm(
                    ctx,
                    TimerKind::DataTimeout,
                    self.params.data_timeout_for(data_bytes),
                );
            }
            State::TxData => {
                self.state = State::WaitAck;
                self.arm(ctx, TimerKind::AckTimeout, self.params.ack_timeout());
            }
            State::TxAck => {
                // Receiver-side exchange complete.
                self.state = State::Contend;
                self.try_resume(ctx);
            }
            other => panic!("on_tx_done in non-transmitting state {other:?}"),
        }
    }

    /// Whether an event carrying `(kind, gen)` would be accepted as the
    /// live firing of that timer. Useful for hosts that want to prune
    /// cancelled timers instead of delivering them.
    pub fn is_timer_live(&self, kind: TimerKind, gen: TimerGeneration) -> bool {
        self.timer(kind).is_armed() && {
            // Probe without disarming: clone the slot.
            let mut probe = self.timer(kind).clone();
            probe.fires(gen)
        }
    }

    /// A scheduled timer fired. Stale generations are ignored.
    pub fn on_timer(&mut self, kind: TimerKind, gen: TimerGeneration, ctx: &mut impl MacContext) {
        if !self.timer_mut(kind).fires(gen) {
            return;
        }
        match kind {
            TimerKind::Backoff => self.on_backoff_done(ctx),
            TimerKind::Sifs => self.on_sifs_done(ctx),
            TimerKind::CtsTimeout => self.on_cts_timeout(ctx),
            TimerKind::DataTimeout => self.on_data_timeout(ctx),
            TimerKind::AckTimeout => self.on_ack_timeout(ctx),
            TimerKind::NavExpire => self.try_resume(ctx),
        }
    }

    // ------------------------------------------------------------------
    // Contention.

    /// If contending and the medium is free (physically and virtually),
    /// (re)arm the IFS + residual-backoff timer; if only the NAV blocks us,
    /// arm a wake-up at its expiry.
    fn try_resume(&mut self, ctx: &mut impl MacContext) {
        if self.state != State::Contend {
            return;
        }
        if self.current.is_none() {
            match self.queue.pop_front() {
                Some(pkt) => {
                    self.current = Some(pkt);
                    self.service_start = ctx.now();
                    self.short_retries = 0;
                    self.long_retries = 0;
                }
                None => {
                    self.state = State::Idle;
                    return;
                }
            }
        }
        let now = ctx.now();
        if ctx.carrier_busy() {
            // A busy edge will bring us back.
            return;
        }
        if self.nav.is_busy(now) {
            let gen = self.timer_mut(TimerKind::NavExpire).arm();
            ctx.schedule_timer(TimerKind::NavExpire, gen, self.nav.until() - now);
            return;
        }
        let remaining = {
            let backoff = &mut self.backoff;
            backoff.ensure_drawn(|cw| ctx.draw_backoff_slots(cw))
        };
        let ifs = if self.eifs_pending {
            self.params.eifs()
        } else {
            self.params.difs
        };
        let delay = ifs + self.params.slot * u64::from(remaining);
        self.backoff_armed_at = Some((now, ifs));
        self.arm(ctx, TimerKind::Backoff, delay);
    }

    fn on_backoff_done(&mut self, ctx: &mut impl MacContext) {
        debug_assert_eq!(self.state, State::Contend, "backoff fired outside Contend");
        self.backoff_armed_at = None;
        self.backoff.complete();
        self.eifs_pending = false;
        // panic-path: state-machine invariant — Contend is only entered
        // with a packet in service (`current` set by enqueue/try_resume).
        let pkt = self
            .current
            .expect("backoff completed without a packet in service");
        if pkt.bytes > self.config.rts_threshold_bytes {
            let rts = Frame::rts(self.id, pkt.dst, pkt.bytes, &self.params);
            self.counters.rts_tx += 1;
            self.state = State::TxRts;
            let directional = self.scheme.is_directional(FrameKind::Rts)
                && !(self.config.omni_rts_on_retry && self.short_retries > 0);
            ctx.transmit(rts, directional);
        } else {
            // Basic access: the data frame goes out unprotected.
            let data = Frame::data(pkt, &self.params);
            self.counters.data_tx += 1;
            self.state = State::TxData;
            ctx.transmit(data, self.scheme.is_directional(FrameKind::Data));
        }
    }

    // ------------------------------------------------------------------
    // Sender side.

    fn on_cts(&mut self, frame: Frame, ctx: &mut impl MacContext) {
        let expected_peer = self.current.map(|p| p.dst);
        if self.state == State::WaitCts && Some(frame.src) == expected_peer {
            self.timer_mut(TimerKind::CtsTimeout).cancel();
            self.short_retries = 0;
            self.state = State::SifsData;
            self.arm(ctx, TimerKind::Sifs, self.params.sifs);
        }
        // Stale or misdirected CTS addressed to us: ignore.
    }

    fn on_ack(&mut self, frame: Frame, ctx: &mut impl MacContext) {
        let expected_peer = self.current.map(|p| p.dst);
        if self.state == State::WaitAck && Some(frame.src) == expected_peer {
            self.timer_mut(TimerKind::AckTimeout).cancel();
            // panic-path: state-machine invariant — WaitAck holds the packet
            // whose DATA was just acknowledged.
            let pkt = self.current.take().expect("WaitAck without packet");
            self.counters.packets_acked += 1;
            self.counters.data_acked_bytes += u64::from(pkt.bytes);
            self.counters.service_delay_total +=
                ctx.now().saturating_duration_since(self.service_start);
            self.counters.e2e_delay_total += ctx.now().saturating_duration_since(pkt.created);
            self.backoff.on_success();
            ctx.packet_done(pkt, true);
            self.state = State::Contend;
            self.try_resume(ctx);
        }
    }

    fn on_cts_timeout(&mut self, ctx: &mut impl MacContext) {
        debug_assert_eq!(self.state, State::WaitCts);
        self.counters.cts_timeouts += 1;
        self.short_retries += 1;
        if self.short_retries > self.config.short_retry_limit {
            self.drop_current(ctx);
        } else {
            self.backoff.on_failure();
            self.state = State::Contend;
            self.try_resume(ctx);
        }
    }

    fn on_ack_timeout(&mut self, ctx: &mut impl MacContext) {
        debug_assert_eq!(self.state, State::WaitAck);
        self.counters.ack_timeouts += 1;
        self.long_retries += 1;
        if self.long_retries > self.config.long_retry_limit {
            self.drop_current(ctx);
        } else {
            self.backoff.on_failure();
            self.state = State::Contend;
            self.try_resume(ctx);
        }
    }

    fn drop_current(&mut self, ctx: &mut impl MacContext) {
        // panic-path: state-machine invariant — drop_current is only called
        // from states that hold a packet in service.
        let pkt = self.current.take().expect("drop without packet");
        self.counters.packets_dropped += 1;
        self.backoff.on_success(); // window resets after a drop, per 802.11
        ctx.packet_done(pkt, false);
        self.state = State::Contend;
        self.try_resume(ctx);
    }

    // ------------------------------------------------------------------
    // Receiver side.

    fn on_rts(&mut self, frame: Frame, ctx: &mut impl MacContext) {
        let interruptible = matches!(self.state, State::Idle | State::Contend);
        if !interruptible {
            return; // engaged in another exchange
        }
        if self.config.respect_nav_on_rts && self.nav.is_busy(ctx.now()) {
            return; // virtual carrier says the medium is reserved
        }
        // Freeze contention (any running backoff was already frozen by the
        // busy edge of the RTS itself) and answer after SIFS.
        self.timer_mut(TimerKind::Backoff).cancel();
        self.backoff_armed_at = None;
        self.state = State::SifsCts { rts: frame };
        self.arm(ctx, TimerKind::Sifs, self.params.sifs);
    }

    fn on_data(&mut self, frame: Frame, ctx: &mut impl MacContext) {
        match self.state {
            State::WaitData { peer } if peer == frame.src => {
                self.timer_mut(TimerKind::DataTimeout).cancel();
                self.deliver_unless_duplicate(&frame, ctx);
                self.state = State::SifsAck { data: frame };
                self.arm(ctx, TimerKind::Sifs, self.params.sifs);
            }
            // Unsolicited data addressed to us: a basic-access (no-RTS)
            // transmission. Answer with an ACK after SIFS if we are not
            // engaged in our own exchange.
            State::Idle | State::Contend => {
                self.timer_mut(TimerKind::Backoff).cancel();
                self.backoff_armed_at = None;
                self.deliver_unless_duplicate(&frame, ctx);
                self.state = State::SifsAck { data: frame };
                self.arm(ctx, TimerKind::Sifs, self.params.sifs);
            }
            _ => {}
        }
    }

    /// IEEE 802.11 duplicate detection: a retransmission whose ACK was
    /// lost is ACKed again but not handed up a second time.
    fn deliver_unless_duplicate(&mut self, frame: &Frame, ctx: &mut impl MacContext) {
        let dup = match frame.payload {
            Some(pkt) => self.rx_last_seq.insert(frame.src, pkt.seq) == Some(pkt.seq),
            None => false,
        };
        if dup {
            self.counters.duplicates_dropped += 1;
        } else {
            self.counters.data_delivered += 1;
            self.counters.data_delivered_bytes += u64::from(frame.payload_bytes);
            ctx.deliver(frame);
        }
    }

    fn on_sifs_done(&mut self, ctx: &mut impl MacContext) {
        match std::mem::replace(&mut self.state, State::Idle) {
            State::SifsCts { rts } => {
                let cts = Frame::cts(&rts, &self.params);
                self.counters.cts_tx += 1;
                self.state = State::TxCts {
                    peer: rts.src,
                    data_bytes: rts.payload_bytes,
                };
                ctx.transmit(cts, self.scheme.is_directional(FrameKind::Cts));
            }
            State::SifsData => {
                // panic-path: state-machine invariant — SifsData holds the
                // packet whose CTS was just received.
                let pkt = self.current.expect("SifsData without packet");
                let data = Frame::data(pkt, &self.params);
                self.counters.data_tx += 1;
                self.state = State::TxData;
                ctx.transmit(data, self.scheme.is_directional(FrameKind::Data));
            }
            State::SifsAck { data } => {
                let ack = Frame::ack(&data, &self.params);
                self.counters.ack_tx += 1;
                self.state = State::TxAck;
                ctx.transmit(ack, self.scheme.is_directional(FrameKind::Ack));
            }
            other => panic!("SIFS fired in state {other:?}"),
        }
    }

    fn on_data_timeout(&mut self, ctx: &mut impl MacContext) {
        debug_assert!(matches!(self.state, State::WaitData { .. }));
        self.counters.data_timeouts += 1;
        self.state = State::Contend;
        self.try_resume(ctx);
    }

    // ------------------------------------------------------------------

    /// The slot backing `kind`.
    fn timer(&self, kind: TimerKind) -> &TimerSlot {
        // panic-path: infallible — `TimerKind::index` maps the 6 variants to
        // 0..COUNT, the exact length of the `timers` array.
        &self.timers[kind.index()]
    }

    /// Mutable access to the slot backing `kind`.
    fn timer_mut(&mut self, kind: TimerKind) -> &mut TimerSlot {
        // panic-path: infallible — see `timer`.
        &mut self.timers[kind.index()]
    }

    fn arm(&mut self, ctx: &mut impl MacContext, kind: TimerKind, delay: SimDuration) {
        let gen = self.timer_mut(kind).arm();
        ctx.schedule_timer(kind, gen, delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted host: records transmissions and timers; the test advances
    /// time and fires timers by hand.
    struct MockCtx {
        now: SimTime,
        busy: bool,
        transmitted: Vec<(SimTime, Frame, bool)>,
        timers: Vec<(TimerKind, TimerGeneration, SimTime)>,
        delivered: Vec<Frame>,
        done: Vec<(DataPacket, bool)>,
        draw: u32,
        /// Every contention window the MAC drew from, in order — lets
        /// tests pin the exponential-backoff progression and its reset.
        cw_draws: Vec<u32>,
    }

    impl MockCtx {
        fn new() -> Self {
            MockCtx {
                now: SimTime::ZERO,
                busy: false,
                transmitted: Vec::new(),
                timers: Vec::new(),
                delivered: Vec::new(),
                done: Vec::new(),
                draw: 0,
                cw_draws: Vec::new(),
            }
        }

        /// Pops the earliest scheduled *live* timer (dropping cancelled
        /// ones) and fires it on `mac`, advancing the clock to its deadline.
        fn fire_next_timer(&mut self, mac: &mut DcfMac) -> TimerKind {
            loop {
                let (idx, _) = self
                    .timers
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, _, at))| *at)
                    .expect("no timer scheduled");
                let (kind, gen, at) = self.timers.remove(idx);
                if !mac.is_timer_live(kind, gen) {
                    continue; // cancelled or superseded
                }
                assert!(at >= self.now, "live timer in the past");
                self.now = at;
                mac.on_timer(kind, gen, self);
                return kind;
            }
        }

        fn last_tx(&self) -> &(SimTime, Frame, bool) {
            self.transmitted.last().expect("nothing transmitted")
        }
    }

    impl MacContext for MockCtx {
        fn now(&self) -> SimTime {
            self.now
        }
        fn carrier_busy(&self) -> bool {
            self.busy
        }
        fn transmit(&mut self, frame: Frame, directional: bool) {
            self.transmitted.push((self.now, frame, directional));
        }
        fn schedule_timer(&mut self, kind: TimerKind, gen: TimerGeneration, delay: SimDuration) {
            self.timers.push((kind, gen, self.now + delay));
        }
        fn draw_backoff_slots(&mut self, cw: u32) -> u32 {
            self.cw_draws.push(cw);
            self.draw.min(cw)
        }
        fn deliver(&mut self, frame: &Frame) {
            self.delivered.push(*frame);
        }
        fn packet_done(&mut self, packet: DataPacket, success: bool) {
            self.done.push((packet, success));
        }
    }

    fn mac(scheme: Scheme) -> DcfMac {
        DcfMac::new(
            NodeId(0),
            scheme,
            Dot11Params::dsss_2mbps(),
            MacConfig::default(),
        )
    }

    fn pkt(dst: usize) -> DataPacket {
        DataPacket::new(1, NodeId(0), NodeId(dst), 1460, SimTime::ZERO)
    }

    fn params() -> Dot11Params {
        Dot11Params::dsss_2mbps()
    }

    /// Drives a full successful sender-side handshake and returns the ctx.
    fn run_sender_success(scheme: Scheme) -> (DcfMac, MockCtx) {
        let mut m = mac(scheme);
        let mut ctx = MockCtx::new();
        let p = params();

        m.enqueue(pkt(1), &mut ctx);
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Backoff);
        let (_, rts, _) = *ctx.last_tx();
        assert_eq!(rts.kind, FrameKind::Rts);

        // RTS leaves the air.
        ctx.now += p.frame_airtime(&rts);
        m.on_tx_done(&mut ctx);

        // CTS arrives.
        ctx.now += p.sifs + p.frame_airtime_bytes(p.cts_bytes) + p.propagation_delay * 2;
        let cts = Frame::cts(&rts, &p);
        m.on_frame_received(cts, &mut ctx);
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Sifs);
        let (_, data, _) = *ctx.last_tx();
        assert_eq!(data.kind, FrameKind::Data);

        ctx.now += p.frame_airtime(&data);
        m.on_tx_done(&mut ctx);

        // ACK arrives.
        ctx.now += p.sifs + p.frame_airtime_bytes(p.ack_bytes) + p.propagation_delay * 2;
        let ack = Frame::ack(&data, &p);
        m.on_frame_received(ack, &mut ctx);
        (m, ctx)
    }

    #[test]
    fn sender_completes_four_way_handshake() {
        let (m, ctx) = run_sender_success(Scheme::OrtsOcts);
        assert_eq!(ctx.done.len(), 1);
        assert!(ctx.done[0].1, "packet must be reported successful");
        let c = m.counters();
        assert_eq!(c.rts_tx, 1);
        assert_eq!(c.data_tx, 1);
        assert_eq!(c.packets_acked, 1);
        assert_eq!(c.data_acked_bytes, 1460);
        assert_eq!(c.cts_timeouts, 0);
        assert!(c.mean_service_delay().unwrap() > SimDuration::ZERO);
    }

    #[test]
    fn first_access_waits_difs_only_when_zero_backoff() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        ctx.draw = 0;
        m.enqueue(pkt(1), &mut ctx);
        let (_, _, at) = ctx.timers[0];
        assert_eq!(at, SimTime::ZERO + params().difs);
    }

    #[test]
    fn backoff_slots_delay_the_rts() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        ctx.draw = 5;
        m.enqueue(pkt(1), &mut ctx);
        let (_, _, at) = ctx.timers[0];
        assert_eq!(at, SimTime::ZERO + params().difs + params().slot * 5);
    }

    #[test]
    fn scheme_controls_frame_directionality() {
        // ORTS-OCTS: RTS is omni.
        let (_, ctx) = run_sender_success(Scheme::OrtsOcts);
        assert!(ctx.transmitted.iter().all(|&(_, _, dir)| !dir));
        // DRTS-DCTS: everything directional.
        let (_, ctx) = run_sender_success(Scheme::DrtsDcts);
        assert!(ctx.transmitted.iter().all(|&(_, _, dir)| dir));
        // DRTS-OCTS sender frames (RTS, DATA) are directional.
        let (_, ctx) = run_sender_success(Scheme::DrtsOcts);
        for (_, f, dir) in &ctx.transmitted {
            assert_eq!(*dir, f.kind != FrameKind::Cts);
        }
    }

    #[test]
    fn receiver_answers_rts_and_acks_data() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();

        let rts = Frame::rts(NodeId(5), NodeId(0), 1460, &p);
        m.on_frame_received(rts, &mut ctx);
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Sifs);
        let (_, cts, _) = *ctx.last_tx();
        assert_eq!(cts.kind, FrameKind::Cts);
        assert_eq!(cts.dst, NodeId(5));

        ctx.now += p.frame_airtime(&cts);
        m.on_tx_done(&mut ctx);

        let pkt = DataPacket::new(3, NodeId(5), NodeId(0), 1460, SimTime::ZERO);
        let data = Frame::data(pkt, &p);
        ctx.now += p.sifs + p.frame_airtime(&data) + p.propagation_delay * 2;
        m.on_frame_received(data, &mut ctx);
        assert_eq!(ctx.delivered.len(), 1);
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Sifs);
        let (_, ack, _) = *ctx.last_tx();
        assert_eq!(ack.kind, FrameKind::Ack);
        assert_eq!(ack.dst, NodeId(5));

        ctx.now += p.frame_airtime(&ack);
        m.on_tx_done(&mut ctx);
        assert_eq!(m.counters().data_delivered, 1);
        assert_eq!(m.counters().data_delivered_bytes, 1460);
    }

    #[test]
    fn receiver_ignores_rts_when_nav_busy() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();

        // Overhear a frame reserving the medium.
        let foreign = Frame::rts(NodeId(7), NodeId(8), 1460, &p);
        m.on_frame_received(foreign, &mut ctx);
        // Now an RTS addressed to us arrives inside the reservation.
        let rts = Frame::rts(NodeId(5), NodeId(0), 1460, &p);
        ctx.now += SimDuration::from_micros(10);
        m.on_frame_received(rts, &mut ctx);
        assert!(ctx.timers.is_empty(), "no CTS may be scheduled under NAV");
        assert!(ctx.transmitted.is_empty());
    }

    #[test]
    fn nav_respect_can_be_disabled() {
        let cfg = MacConfig {
            respect_nav_on_rts: false,
            ..MacConfig::default()
        };
        let mut m = DcfMac::new(NodeId(0), Scheme::OrtsOcts, params(), cfg);
        let mut ctx = MockCtx::new();
        let foreign = Frame::rts(NodeId(7), NodeId(8), 1460, &params());
        m.on_frame_received(foreign, &mut ctx);
        let rts = Frame::rts(NodeId(5), NodeId(0), 1460, &params());
        m.on_frame_received(rts, &mut ctx);
        assert_eq!(ctx.timers.len(), 1, "CTS SIFS timer scheduled despite NAV");
    }

    #[test]
    fn cts_timeout_retries_with_doubled_window() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        m.enqueue(pkt(1), &mut ctx);
        ctx.fire_next_timer(&mut m); // backoff -> RTS
        ctx.now += p.frame_airtime_bytes(p.rts_bytes);
        m.on_tx_done(&mut ctx);
        // Let the CTS timeout fire.
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::CtsTimeout);
        assert_eq!(m.counters().cts_timeouts, 1);
        // A new backoff must be scheduled and a second RTS eventually sent.
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Backoff);
        assert_eq!(m.counters().rts_tx, 2);
    }

    #[test]
    fn packet_dropped_after_short_retry_limit() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        m.enqueue(pkt(1), &mut ctx);
        let limit = MacConfig::default().short_retry_limit;
        for attempt in 0..=limit {
            assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Backoff);
            ctx.now += p.frame_airtime_bytes(p.rts_bytes);
            m.on_tx_done(&mut ctx);
            assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::CtsTimeout);
            assert_eq!(m.counters().rts_tx, u64::from(attempt) + 1);
        }
        assert_eq!(ctx.done.len(), 1);
        assert!(!ctx.done[0].1, "packet must be reported dropped");
        assert_eq!(m.counters().packets_dropped, 1);
    }

    /// Drives one full RTS/CTS/DATA leg whose ACK never arrives: backoff →
    /// RTS → CTS in → SIFS → DATA → ACK timeout. Models a receiver whose
    /// ACKs are lost on the return path (e.g. under injected frame errors).
    fn drive_ack_loss_cycle(m: &mut DcfMac, ctx: &mut MockCtx) {
        let p = params();
        assert_eq!(ctx.fire_next_timer(m), TimerKind::Backoff);
        let (_, rts, _) = *ctx.last_tx();
        assert_eq!(rts.kind, FrameKind::Rts);
        ctx.now += p.frame_airtime(&rts);
        m.on_tx_done(ctx);
        m.on_frame_received(Frame::cts(&rts, &p), ctx);
        assert_eq!(ctx.fire_next_timer(m), TimerKind::Sifs);
        ctx.now += p.frame_airtime_bytes(1460);
        m.on_tx_done(ctx);
        assert_eq!(ctx.fire_next_timer(m), TimerKind::AckTimeout);
    }

    #[test]
    fn packet_dropped_after_long_retry_limit() {
        // Every RTS gets its CTS but no DATA is ever acknowledged: the
        // long retry counter must exhaust at its own (lower) limit.
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        m.enqueue(pkt(1), &mut ctx);
        let limit = MacConfig::default().long_retry_limit;
        for attempt in 0..=limit {
            drive_ack_loss_cycle(&mut m, &mut ctx);
            assert_eq!(m.counters().ack_timeouts, u64::from(attempt) + 1);
        }
        let c = m.counters();
        assert_eq!(c.packets_dropped, 1);
        assert_eq!(c.packets_acked, 0);
        assert_eq!(c.rts_tx, u64::from(limit) + 1, "one RTS per data attempt");
        assert_eq!(c.data_tx, u64::from(limit) + 1);
        assert_eq!(
            c.cts_timeouts, 0,
            "CTS always arrived; only the ACK leg failed"
        );
        assert_eq!(ctx.done.len(), 1);
        assert!(!ctx.done[0].1, "packet must be reported dropped");
    }

    #[test]
    fn backoff_window_resets_after_drop() {
        // Per IEEE 802.11, dropping a packet at the retry limit resets the
        // contention window to CW_min: the next packet must not inherit the
        // doubled window. The recorded draw windows pin the progression.
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        m.enqueue(pkt(1), &mut ctx);
        let limit = MacConfig::default().short_retry_limit;
        for _ in 0..=limit {
            assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Backoff);
            ctx.now += p.frame_airtime_bytes(p.rts_bytes);
            m.on_tx_done(&mut ctx);
            assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::CtsTimeout);
        }
        assert_eq!(m.counters().packets_dropped, 1);
        // CW doubled (capped at cw_max) after each of the failures.
        let cw_min = p.cw_min;
        let cw_max = p.cw_max;
        let mut want = Vec::new();
        let mut cw = cw_min;
        for _ in 0..=limit {
            want.push(cw);
            cw = ((cw + 1) * 2 - 1).min(cw_max);
        }
        assert_eq!(ctx.cw_draws, want, "exponential window progression");
        // A fresh packet after the drop starts back at CW_min.
        m.enqueue(pkt(2), &mut ctx);
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Backoff);
        assert_eq!(
            *ctx.cw_draws.last().unwrap(),
            cw_min,
            "post-drop draw must use the reset window"
        );
    }

    #[test]
    fn mixed_cts_and_ack_loss_counters() {
        // One lost CTS, then one lost ACK, then a clean handshake: every
        // counter must book exactly its own failure mode.
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        m.enqueue(pkt(1), &mut ctx);
        // Attempt 1: RTS out, CTS lost.
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Backoff);
        ctx.now += p.frame_airtime_bytes(p.rts_bytes);
        m.on_tx_done(&mut ctx);
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::CtsTimeout);
        // Attempt 2: handshake reaches DATA, ACK lost.
        drive_ack_loss_cycle(&mut m, &mut ctx);
        // Attempt 3: clean.
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Backoff);
        let (_, rts, _) = *ctx.last_tx();
        ctx.now += p.frame_airtime(&rts);
        m.on_tx_done(&mut ctx);
        m.on_frame_received(Frame::cts(&rts, &p), &mut ctx);
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Sifs);
        let (_, data, _) = *ctx.last_tx();
        ctx.now += p.frame_airtime(&data);
        m.on_tx_done(&mut ctx);
        m.on_frame_received(Frame::ack(&data, &p), &mut ctx);
        let c = m.counters();
        assert_eq!(c.cts_timeouts, 1);
        assert_eq!(c.ack_timeouts, 1);
        assert_eq!(c.packets_acked, 1);
        assert_eq!(c.packets_dropped, 0);
        assert_eq!(c.rts_tx, 3);
        assert_eq!(c.data_tx, 2);
        assert!(ctx.done[0].1, "the packet eventually succeeded");
    }

    #[test]
    fn ack_timeout_counts_and_retries_whole_handshake() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        m.enqueue(pkt(1), &mut ctx);
        ctx.fire_next_timer(&mut m); // backoff -> RTS
        let (_, rts, _) = *ctx.last_tx();
        ctx.now += p.frame_airtime(&rts);
        m.on_tx_done(&mut ctx);
        m.on_frame_received(Frame::cts(&rts, &p), &mut ctx);
        ctx.fire_next_timer(&mut m); // SIFS -> DATA
        ctx.now += p.frame_airtime_bytes(1460);
        m.on_tx_done(&mut ctx);
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::AckTimeout);
        assert_eq!(m.counters().ack_timeouts, 1);
        // The retry re-contends with a fresh RTS.
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Backoff);
        assert_eq!(m.counters().rts_tx, 2);
        assert_eq!(m.counters().collision_ratio(), Some(1.0));
    }

    #[test]
    fn medium_busy_freezes_and_resumes_backoff() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        ctx.draw = 10;
        m.enqueue(pkt(1), &mut ctx);
        // Timer armed at DIFS + 10 slots. Let 3 slots elapse, then busy.
        ctx.now = SimTime::ZERO + p.difs + p.slot * 3 + SimDuration::from_micros(1);
        ctx.busy = true;
        m.on_medium_busy(&mut ctx);
        // Idle again: the residual must be 7 slots.
        ctx.now += SimDuration::from_millis(1);
        ctx.busy = false;
        m.on_medium_idle(&mut ctx);
        let (_, _, at) = *ctx.timers.last().unwrap();
        assert_eq!(at, ctx.now + p.difs + p.slot * 7);
    }

    #[test]
    fn busy_during_ifs_consumes_no_slots() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        ctx.draw = 4;
        m.enqueue(pkt(1), &mut ctx);
        // Busy 10 µs into the DIFS.
        ctx.now = SimTime::ZERO + SimDuration::from_micros(10);
        ctx.busy = true;
        m.on_medium_busy(&mut ctx);
        ctx.now += SimDuration::from_micros(100);
        ctx.busy = false;
        m.on_medium_idle(&mut ctx);
        let (_, _, at) = *ctx.timers.last().unwrap();
        assert_eq!(
            at,
            ctx.now + p.difs + p.slot * 4,
            "all 4 slots still pending"
        );
    }

    #[test]
    fn overheard_frame_sets_nav_and_defers() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        // Overhear an RTS for someone else.
        let foreign = Frame::rts(NodeId(3), NodeId(4), 1460, &p);
        m.on_frame_received(foreign, &mut ctx);
        // Enqueue: contention must wait for NAV expiry, not DIFS.
        m.enqueue(pkt(1), &mut ctx);
        let (kind, _, at) = *ctx.timers.last().unwrap();
        assert_eq!(kind, TimerKind::NavExpire);
        assert_eq!(at, SimTime::ZERO + foreign.duration);
    }

    #[test]
    fn nav_expiry_resumes_contention() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let foreign = Frame::rts(NodeId(3), NodeId(4), 1460, &params());
        m.on_frame_received(foreign, &mut ctx);
        m.enqueue(pkt(1), &mut ctx);
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::NavExpire);
        // Now a backoff timer must be pending.
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Backoff);
        assert_eq!(m.counters().rts_tx, 1);
    }

    #[test]
    fn eifs_used_after_corrupted_reception() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        m.on_rx_corrupted(&mut ctx);
        m.enqueue(pkt(1), &mut ctx);
        let (_, _, at) = ctx.timers[0];
        assert_eq!(at, SimTime::ZERO + p.eifs());
    }

    #[test]
    fn correct_reception_clears_eifs() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        m.on_rx_corrupted(&mut ctx);
        // Any correctly decoded frame clears the penalty (use an ACK for
        // someone else: zero NAV).
        let pkt9 = DataPacket::new(0, NodeId(8), NodeId(9), 10, SimTime::ZERO);
        let ack = Frame::ack(&Frame::data(pkt9, &p), &p);
        m.on_frame_received(ack, &mut ctx);
        m.enqueue(pkt(1), &mut ctx);
        let (_, _, at) = ctx.timers[0];
        assert_eq!(at, SimTime::ZERO + p.difs);
    }

    #[test]
    fn eifs_disabled_by_config() {
        let cfg = MacConfig {
            use_eifs: false,
            ..MacConfig::default()
        };
        let mut m = DcfMac::new(NodeId(0), Scheme::OrtsOcts, params(), cfg);
        let mut ctx = MockCtx::new();
        m.on_rx_corrupted(&mut ctx);
        m.enqueue(pkt(1), &mut ctx);
        let (_, _, at) = ctx.timers[0];
        assert_eq!(at, SimTime::ZERO + params().difs);
    }

    #[test]
    fn engaged_receiver_ignores_second_rts() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        let rts1 = Frame::rts(NodeId(5), NodeId(0), 1460, &p);
        m.on_frame_received(rts1, &mut ctx);
        let timers_before = ctx.timers.len();
        let rts2 = Frame::rts(NodeId(6), NodeId(0), 1460, &p);
        m.on_frame_received(rts2, &mut ctx);
        assert_eq!(
            ctx.timers.len(),
            timers_before,
            "second RTS must be ignored"
        );
        // The eventual CTS answers the first sender.
        ctx.fire_next_timer(&mut m);
        assert_eq!(ctx.last_tx().1.dst, NodeId(5));
    }

    #[test]
    fn receiver_data_timeout_returns_to_contention() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        let rts = Frame::rts(NodeId(5), NodeId(0), 1460, &p);
        m.on_frame_received(rts, &mut ctx);
        ctx.fire_next_timer(&mut m); // SIFS -> CTS
        ctx.now += p.frame_airtime_bytes(p.cts_bytes);
        m.on_tx_done(&mut ctx);
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::DataTimeout);
        assert_eq!(m.counters().data_timeouts, 1);
        // Node had no own packet: back to Idle, no timers.
        assert!(ctx.timers.is_empty());
    }

    #[test]
    fn wait_data_ignores_data_from_wrong_peer() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        let rts = Frame::rts(NodeId(5), NodeId(0), 1460, &p);
        m.on_frame_received(rts, &mut ctx);
        ctx.fire_next_timer(&mut m);
        m.on_tx_done(&mut ctx);
        let stray = Frame::data(
            DataPacket::new(0, NodeId(6), NodeId(0), 100, SimTime::ZERO),
            &p,
        );
        m.on_frame_received(stray, &mut ctx);
        assert!(ctx.delivered.is_empty(), "stray DATA must not be delivered");
    }

    #[test]
    fn stale_cts_in_contend_is_ignored() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        m.enqueue(pkt(1), &mut ctx);
        let rts = Frame::rts(NodeId(0), NodeId(1), 1460, &p);
        let stale_cts = Frame::cts(&rts, &p);
        m.on_frame_received(stale_cts, &mut ctx);
        // Still exactly one (backoff) timer, no transmissions.
        assert_eq!(ctx.timers.len(), 1);
        assert!(ctx.transmitted.is_empty());
    }

    #[test]
    fn queue_serves_packets_in_order() {
        let (mut m, mut ctx) = run_sender_success(Scheme::OrtsOcts);
        // Enqueue two more; the MAC should contend for the next.
        let p2 = DataPacket::new(2, NodeId(0), NodeId(2), 700, SimTime::ZERO);
        let p3 = DataPacket::new(3, NodeId(0), NodeId(3), 700, SimTime::ZERO);
        m.enqueue(p2, &mut ctx);
        m.enqueue(p3, &mut ctx);
        assert_eq!(m.queue_len(), 1, "p2 in service, p3 queued");
        assert!(m.has_backlog());
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Backoff);
        assert_eq!(ctx.last_tx().1.dst, NodeId(2), "p2 served first");
    }

    #[test]
    fn basic_access_skips_the_handshake() {
        let cfg = MacConfig {
            rts_threshold_bytes: u32::MAX,
            ..MacConfig::default()
        };
        let mut m = DcfMac::new(NodeId(0), Scheme::OrtsOcts, params(), cfg);
        let mut ctx = MockCtx::new();
        let p = params();
        m.enqueue(pkt(1), &mut ctx);
        ctx.fire_next_timer(&mut m);
        let (_, data, _) = *ctx.last_tx();
        assert_eq!(data.kind, FrameKind::Data, "basic access sends DATA first");
        assert_eq!(m.counters().rts_tx, 0);
        ctx.now += p.frame_airtime(&data);
        m.on_tx_done(&mut ctx);
        // ACK completes the two-way exchange.
        ctx.now += p.sifs + p.frame_airtime_bytes(p.ack_bytes) + p.propagation_delay * 2;
        m.on_frame_received(Frame::ack(&data, &p), &mut ctx);
        assert_eq!(m.counters().packets_acked, 1);
        assert_eq!(ctx.done.len(), 1);
        assert!(ctx.done[0].1);
    }

    #[test]
    fn rts_threshold_splits_by_frame_size() {
        let cfg = MacConfig {
            rts_threshold_bytes: 500,
            ..MacConfig::default()
        };
        let mut m = DcfMac::new(NodeId(0), Scheme::OrtsOcts, params(), cfg.clone());
        let mut ctx = MockCtx::new();
        // 1460 B > 500 B: handshake.
        m.enqueue(pkt(1), &mut ctx);
        ctx.fire_next_timer(&mut m);
        assert_eq!(ctx.last_tx().1.kind, FrameKind::Rts);
        // Fresh MAC, small packet: basic access.
        let mut m2 = DcfMac::new(NodeId(0), Scheme::OrtsOcts, params(), cfg);
        let mut ctx2 = MockCtx::new();
        m2.enqueue(
            DataPacket::new(1, NodeId(0), NodeId(1), 200, SimTime::ZERO),
            &mut ctx2,
        );
        ctx2.fire_next_timer(&mut m2);
        assert_eq!(ctx2.last_tx().1.kind, FrameKind::Data);
    }

    #[test]
    fn duplicate_data_is_acked_but_not_redelivered() {
        // A lost ACK makes the sender repeat the whole exchange; the
        // receiver must ACK the duplicate without delivering it twice.
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        let pkt = DataPacket::new(7, NodeId(5), NodeId(0), 700, SimTime::ZERO);
        let data = Frame::data(pkt, &p);
        for round in 0..2 {
            m.on_frame_received(data, &mut ctx);
            assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Sifs);
            let (_, ack, _) = *ctx.last_tx();
            assert_eq!(ack.kind, FrameKind::Ack, "round {round} must still ACK");
            ctx.now += p.frame_airtime_bytes(p.ack_bytes);
            m.on_tx_done(&mut ctx);
        }
        assert_eq!(ctx.delivered.len(), 1, "exactly one delivery");
        assert_eq!(m.counters().data_delivered, 1);
        assert_eq!(m.counters().duplicates_dropped, 1);
        assert_eq!(m.counters().ack_tx, 2);
    }

    #[test]
    fn new_sequence_from_same_sender_is_delivered() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        for seq in [1u64, 2, 3] {
            let pkt = DataPacket::new(seq, NodeId(5), NodeId(0), 100, SimTime::ZERO);
            m.on_frame_received(Frame::data(pkt, &p), &mut ctx);
            ctx.fire_next_timer(&mut m);
            ctx.now += p.frame_airtime_bytes(p.ack_bytes);
            m.on_tx_done(&mut ctx);
        }
        assert_eq!(ctx.delivered.len(), 3);
        assert_eq!(m.counters().duplicates_dropped, 0);
    }

    #[test]
    fn receiver_acks_unsolicited_data() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        let pkt = DataPacket::new(4, NodeId(6), NodeId(0), 300, SimTime::ZERO);
        let data = Frame::data(pkt, &p);
        m.on_frame_received(data, &mut ctx);
        assert_eq!(ctx.delivered.len(), 1);
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Sifs);
        let (_, ack, _) = *ctx.last_tx();
        assert_eq!(ack.kind, FrameKind::Ack);
        assert_eq!(ack.dst, NodeId(6));
        assert_eq!(m.counters().data_delivered, 1);
    }

    #[test]
    fn basic_access_ack_timeout_retries() {
        let cfg = MacConfig {
            rts_threshold_bytes: u32::MAX,
            ..MacConfig::default()
        };
        let mut m = DcfMac::new(NodeId(0), Scheme::OrtsOcts, params(), cfg);
        let mut ctx = MockCtx::new();
        let p = params();
        m.enqueue(pkt(1), &mut ctx);
        ctx.fire_next_timer(&mut m);
        ctx.now += p.frame_airtime_bytes(1460);
        m.on_tx_done(&mut ctx);
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::AckTimeout);
        assert_eq!(m.counters().ack_timeouts, 1);
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Backoff);
        assert_eq!(m.counters().data_tx, 2, "retry resends the data frame");
    }

    #[test]
    fn adaptive_rts_falls_back_to_omni_on_retry() {
        let cfg = MacConfig {
            omni_rts_on_retry: true,
            ..MacConfig::default()
        };
        let mut m = DcfMac::new(NodeId(0), Scheme::DrtsDcts, params(), cfg);
        let mut ctx = MockCtx::new();
        let p = params();
        m.enqueue(pkt(1), &mut ctx);
        // First attempt: directional.
        ctx.fire_next_timer(&mut m);
        assert!(ctx.last_tx().2, "first RTS must be directional");
        ctx.now += p.frame_airtime_bytes(p.rts_bytes);
        m.on_tx_done(&mut ctx);
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::CtsTimeout);
        // Retry: omni.
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Backoff);
        let (_, rts2, dir2) = *ctx.last_tx();
        assert_eq!(rts2.kind, FrameKind::Rts);
        assert!(!dir2, "retry RTS must fall back to omni");
        // A successful handshake resets the fallback: next packet's first
        // RTS is directional again.
        ctx.now += p.frame_airtime_bytes(p.rts_bytes);
        m.on_tx_done(&mut ctx);
        let cts = Frame::cts(&rts2, &p);
        m.on_frame_received(cts, &mut ctx);
        ctx.fire_next_timer(&mut m); // SIFS -> DATA
        ctx.now += p.frame_airtime_bytes(1460);
        m.on_tx_done(&mut ctx);
        let (_, data, _) = *ctx.last_tx();
        m.on_frame_received(Frame::ack(&data, &p), &mut ctx);
        m.enqueue(
            DataPacket::new(2, NodeId(0), NodeId(1), 100, SimTime::ZERO),
            &mut ctx,
        );
        ctx.fire_next_timer(&mut m);
        assert!(ctx.last_tx().2, "fresh packet starts directional again");
    }

    #[test]
    fn counters_reset() {
        let (mut m, _) = run_sender_success(Scheme::OrtsOcts);
        assert!(m.counters().packets_acked > 0);
        m.reset_counters();
        assert_eq!(m.counters().packets_acked, 0);
        assert_eq!(m.counters().rts_tx, 0);
    }

    #[test]
    fn medium_busy_outside_contention_is_noop() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        // Idle, no packet: busy/idle edges must not schedule anything.
        ctx.busy = true;
        m.on_medium_busy(&mut ctx);
        ctx.busy = false;
        m.on_medium_idle(&mut ctx);
        assert!(ctx.timers.is_empty());
        assert!(ctx.transmitted.is_empty());
    }

    #[test]
    fn engaged_sender_ignores_incoming_rts() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        m.enqueue(pkt(1), &mut ctx);
        ctx.fire_next_timer(&mut m); // -> TxRts
        ctx.now += p.frame_airtime_bytes(p.rts_bytes);
        m.on_tx_done(&mut ctx); // -> WaitCts
        let tx_before = ctx.transmitted.len();
        let rts = Frame::rts(NodeId(9), NodeId(0), 1460, &p);
        m.on_frame_received(rts, &mut ctx);
        // No CTS response scheduled: the only live timer is our CtsTimeout.
        assert_eq!(ctx.transmitted.len(), tx_before);
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::CtsTimeout);
    }

    #[test]
    fn cts_from_wrong_peer_does_not_advance_handshake() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        m.enqueue(pkt(1), &mut ctx); // dst = n1
        ctx.fire_next_timer(&mut m);
        ctx.now += p.frame_airtime_bytes(p.rts_bytes);
        m.on_tx_done(&mut ctx);
        // A CTS addressed to us but from node 7 (not our peer): ignore.
        let foreign_rts = Frame::rts(NodeId(0), NodeId(7), 1460, &p);
        let wrong_cts = Frame::cts(&foreign_rts, &p);
        m.on_frame_received(wrong_cts, &mut ctx);
        // The CTS timeout must still fire (handshake not advanced).
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::CtsTimeout);
        assert_eq!(m.counters().data_tx, 0);
    }

    #[test]
    fn packets_enqueued_while_answering_are_served_later() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        // Engaged as receiver.
        let rts = Frame::rts(NodeId(5), NodeId(0), 1460, &p);
        m.on_frame_received(rts, &mut ctx);
        // Our own packet arrives mid-exchange.
        m.enqueue(pkt(1), &mut ctx);
        assert!(m.has_backlog());
        // Finish the receiver exchange: CTS -> DATA -> ACK.
        ctx.fire_next_timer(&mut m); // SIFS -> CTS
        ctx.now += p.frame_airtime_bytes(p.cts_bytes);
        m.on_tx_done(&mut ctx);
        let data = Frame::data(
            DataPacket::new(0, NodeId(5), NodeId(0), 1460, SimTime::ZERO),
            &p,
        );
        m.on_frame_received(data, &mut ctx);
        ctx.fire_next_timer(&mut m); // SIFS -> ACK
        ctx.now += p.frame_airtime_bytes(p.ack_bytes);
        m.on_tx_done(&mut ctx);
        // Now our own contention resumes: a backoff timer must be armed
        // and lead to our RTS.
        assert_eq!(ctx.fire_next_timer(&mut m), TimerKind::Backoff);
        let last = ctx.last_tx();
        assert_eq!(last.1.kind, FrameKind::Rts);
        assert_eq!(last.1.src, NodeId(0));
    }

    #[test]
    fn nav_takes_maximum_of_overheard_reservations() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        let p = params();
        // Overhear a long RTS reservation, then a short ACK (zero NAV):
        // the long reservation must still govern.
        let long = Frame::rts(NodeId(3), NodeId(4), 1460, &p);
        m.on_frame_received(long, &mut ctx);
        let pkt9 = DataPacket::new(0, NodeId(8), NodeId(9), 10, SimTime::ZERO);
        let short = Frame::ack(&Frame::data(pkt9, &p), &p);
        ctx.now += SimDuration::from_micros(100);
        m.on_frame_received(short, &mut ctx);
        m.enqueue(pkt(1), &mut ctx);
        let (kind, _, at) = *ctx.timers.last().unwrap();
        assert_eq!(kind, TimerKind::NavExpire);
        assert_eq!(
            at,
            SimTime::ZERO + long.duration,
            "long reservation governs"
        );
    }

    #[test]
    fn is_timer_live_tracks_generations() {
        let mut m = mac(Scheme::OrtsOcts);
        let mut ctx = MockCtx::new();
        m.enqueue(pkt(1), &mut ctx);
        let (kind, gen, _) = ctx.timers[0];
        assert!(m.is_timer_live(kind, gen));
        // Medium busy cancels the backoff timer.
        ctx.busy = true;
        m.on_medium_busy(&mut ctx);
        assert!(!m.is_timer_live(kind, gen));
    }

    #[test]
    fn idle_mac_has_no_backlog() {
        let m = mac(Scheme::OrtsOcts);
        assert!(!m.has_backlog());
        assert_eq!(m.queue_len(), 0);
        assert_eq!(m.id(), NodeId(0));
        assert_eq!(m.scheme(), Scheme::OrtsOcts);
    }
}
