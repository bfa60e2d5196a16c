//! Result collection and aggregate metrics.

use dirca_mac::{DcfMac, MacCounters};
use dirca_sim::SimDuration;

use crate::{AirtimeBreakdown, AppStats, NetWorld};

/// One node's measured statistics.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Node index.
    pub node: usize,
    /// Whether the node lies in the measurement region (the innermost `N`
    /// nodes of the ring topology).
    pub measured: bool,
    /// The node's MAC counters over the measurement window.
    pub counters: MacCounters,
    /// Poisson arrivals dropped at the source because the queue was full.
    pub queue_drops: u64,
    /// Receptions lost at this node to the injected frame error rate.
    pub fer_losses: u64,
    /// Receptions lost at this node to its injected outage windows.
    pub outage_losses: u64,
    /// Recorded end-to-end delays in seconds (empty unless
    /// `SimConfig::record_delays` was set).
    pub delay_samples: Vec<f64>,
    /// Transmit airtime by frame kind.
    pub airtime: AirtimeBreakdown,
    /// Packets still queued at the MAC when the run ended (end-of-run
    /// queue depth; always the full queue under saturated traffic).
    pub backlog: u64,
}

impl NodeReport {
    /// Reads node `node`'s report off its MAC and application stats — the
    /// one place both engines build reports.
    pub(crate) fn new(node: usize, measured: bool, mac: &DcfMac, app: &AppStats) -> Self {
        NodeReport {
            node,
            measured,
            counters: mac.counters().clone(),
            queue_drops: app.queue_drops,
            fer_losses: app.fer_losses,
            outage_losses: app.outage_losses,
            delay_samples: app.delay_samples.clone(),
            airtime: app.airtime,
            backlog: mac.queue_len() as u64,
        }
    }

    /// Sender-side throughput of this node in bits per second.
    pub fn throughput_bps(&self, window: SimDuration) -> f64 {
        if window == SimDuration::ZERO {
            return 0.0;
        }
        self.counters.data_acked_bytes as f64 * 8.0 / window.as_secs_f64()
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-node reports, indexed by node id.
    pub nodes: Vec<NodeReport>,
    /// Length of the measurement window.
    pub window: SimDuration,
    /// Total events processed by the run (for determinism checks and
    /// performance accounting).
    events: u64,
    /// Stale MAC-timer dispatches over the run (see
    /// [`RunResult::stale_timers`]).
    stale_timers: u64,
}

impl RunResult {
    pub(crate) fn collect(world: NetWorld, window: SimDuration, events: u64) -> Self {
        let measured = world.measured();
        let nodes = world
            .macs()
            .iter()
            .zip(world.app_stats())
            .enumerate()
            .map(|(i, (mac, app))| NodeReport::new(i, i < measured, mac, app))
            .collect();
        RunResult {
            nodes,
            window,
            events,
            stale_timers: world.stale_timers(),
        }
    }

    /// Assembles a result from hand-constructed parts — for metric
    /// arithmetic tests and external tooling that replays recorded runs.
    /// It reports no stale timers.
    pub fn from_parts(nodes: Vec<NodeReport>, window: SimDuration, events: u64) -> Self {
        RunResult {
            nodes,
            window,
            events,
            stale_timers: 0,
        }
    }

    /// MAC-timer dispatches the run discarded as stale (cancelled or
    /// superseded armings), warm-up included: see
    /// [`NetWorld::stale_timers`](crate::NetWorld::stale_timers). An exact
    /// work counter, identical with and without a recorder or auditors.
    pub fn stale_timers(&self) -> u64 {
        self.stale_timers
    }

    /// Reports of the measured (innermost) nodes.
    pub fn measured_nodes(&self) -> impl Iterator<Item = &NodeReport> {
        self.nodes.iter().filter(|n| n.measured)
    }

    /// Total events processed by the run.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Total packets acknowledged by measured nodes (sender side).
    pub fn packets_acked(&self) -> u64 {
        self.measured_nodes()
            .map(|n| n.counters.packets_acked)
            .sum()
    }

    /// Total packets dropped by measured nodes after retries.
    pub fn packets_dropped(&self) -> u64 {
        self.measured_nodes()
            .map(|n| n.counters.packets_dropped)
            .sum()
    }

    /// Aggregate sender-side throughput of the measured nodes, bits/s.
    pub fn aggregate_throughput_bps(&self) -> f64 {
        self.measured_nodes()
            .map(|n| n.throughput_bps(self.window))
            .sum()
    }

    /// Mean sender-side throughput per measured node, bits/s.
    pub fn mean_node_throughput_bps(&self) -> f64 {
        let count = self.measured_nodes().count();
        if count == 0 {
            0.0
        } else {
            self.aggregate_throughput_bps() / count as f64
        }
    }

    /// Per-measured-node throughputs, bits/s (for fairness analysis).
    pub fn node_throughputs_bps(&self) -> Vec<f64> {
        self.measured_nodes()
            .map(|n| n.throughput_bps(self.window))
            .collect()
    }

    /// Mean MAC service delay (head-of-queue to ACK) over all packets acked
    /// by measured nodes. `None` if nothing was acked.
    pub fn mean_delay(&self) -> Option<SimDuration> {
        let mut total = SimDuration::ZERO;
        let mut packets = 0u64;
        for n in self.measured_nodes() {
            total += n.counters.service_delay_total;
            packets += n.counters.packets_acked;
        }
        (packets > 0).then(|| total / packets)
    }

    /// Mean end-to-end delay (creation to ACK, including source queueing)
    /// over all packets acked by measured nodes. `None` if nothing was
    /// acked. Under saturated traffic this is dominated by queueing and is
    /// not meaningful; use it with Poisson traffic.
    pub fn mean_e2e_delay(&self) -> Option<SimDuration> {
        let mut total = SimDuration::ZERO;
        let mut packets = 0u64;
        for n in self.measured_nodes() {
            total += n.counters.e2e_delay_total;
            packets += n.counters.packets_acked;
        }
        (packets > 0).then(|| total / packets)
    }

    /// Total source-queue drops over measured nodes (Poisson traffic only).
    pub fn queue_drops(&self) -> u64 {
        self.measured_nodes().map(|n| n.queue_drops).sum()
    }

    /// Total receptions lost to the injected frame error rate, over *all*
    /// nodes (losses are booked at the receiver, which may lie outside the
    /// measurement region). Zero on a perfect channel.
    pub fn fer_losses(&self) -> u64 {
        self.nodes.iter().map(|n| n.fer_losses).sum()
    }

    /// Total receptions lost to injected node outages, over all nodes.
    /// Zero without an outage plan.
    pub fn outage_losses(&self) -> u64 {
        self.nodes.iter().map(|n| n.outage_losses).sum()
    }

    /// All recorded end-to-end delays (seconds) of the measured nodes.
    /// Empty unless `SimConfig::record_delays` was set.
    pub fn delay_samples(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .measured_nodes()
            .flat_map(|n| n.delay_samples.iter().copied())
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite delays"));
        all
    }

    /// Collision ratio over measured nodes: data transmissions that timed
    /// out waiting for the ACK, over all handshakes that reached the data
    /// stage. `None` if no handshake got that far.
    pub fn collision_ratio(&self) -> Option<f64> {
        let mut timeouts = 0u64;
        let mut acked = 0u64;
        for n in self.measured_nodes() {
            timeouts += n.counters.ack_timeouts;
            acked += n.counters.packets_acked;
        }
        let denom = timeouts + acked;
        (denom > 0).then(|| timeouts as f64 / denom as f64)
    }

    /// Total end-of-run MAC queue depth over all nodes.
    pub fn total_backlog(&self) -> u64 {
        self.nodes.iter().map(|n| n.backlog).sum()
    }

    /// Transmit-airtime breakdown summed over the measured nodes.
    pub fn airtime_breakdown(&self) -> AirtimeBreakdown {
        let mut total = AirtimeBreakdown::default();
        for n in self.measured_nodes() {
            total.merge(&n.airtime);
        }
        total
    }

    /// Aggregated counters over the measured nodes.
    pub fn aggregate_counters(&self) -> MacCounters {
        let mut total = MacCounters::new();
        for n in self.measured_nodes() {
            total.merge(&n.counters);
        }
        total
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;

    fn report(node: usize, measured: bool, acked: u64, bytes: u64) -> NodeReport {
        NodeReport {
            node,
            measured,
            counters: MacCounters {
                packets_acked: acked,
                data_acked_bytes: bytes,
                service_delay_total: SimDuration::from_millis(acked * 10),
                e2e_delay_total: SimDuration::from_millis(acked * 25),
                ..MacCounters::new()
            },
            queue_drops: 3,
            fer_losses: 2,
            outage_losses: 1,
            delay_samples: vec![0.010; acked as usize],
            airtime: AirtimeBreakdown {
                data: SimDuration::from_micros(acked * 6032),
                ..AirtimeBreakdown::default()
            },
            backlog: 0,
        }
    }

    fn result() -> RunResult {
        RunResult {
            nodes: vec![
                report(0, true, 10, 10_000),
                report(1, true, 20, 20_000),
                report(2, false, 1_000, 1_000_000),
            ],
            window: SimDuration::from_secs(1),
            events: 123,
            stale_timers: 0,
        }
    }

    #[test]
    fn only_measured_nodes_count() {
        let r = result();
        assert_eq!(r.packets_acked(), 30);
        assert_eq!(r.measured_nodes().count(), 2);
        // 30 kB over 1 s = 240 kbit/s; node 2's megabyte is excluded.
        assert!((r.aggregate_throughput_bps() - 240_000.0).abs() < 1e-9);
        assert!((r.mean_node_throughput_bps() - 120_000.0).abs() < 1e-9);
    }

    #[test]
    fn delay_weighted_by_packets() {
        let r = result();
        // 10 ms per packet on both nodes.
        assert_eq!(r.mean_delay(), Some(SimDuration::from_millis(10)));
    }

    #[test]
    fn collision_ratio_none_without_data_stage() {
        let r = RunResult {
            nodes: vec![report(0, true, 0, 0)],
            window: SimDuration::from_secs(1),
            events: 0,
            stale_timers: 0,
        };
        assert_eq!(r.collision_ratio(), None);
        assert_eq!(r.mean_delay(), None);
    }

    #[test]
    fn e2e_delay_and_queue_drops() {
        let r = result();
        assert_eq!(r.mean_e2e_delay(), Some(SimDuration::from_millis(25)));
        assert_eq!(r.queue_drops(), 6, "two measured nodes x 3 drops");
    }

    #[test]
    fn fault_losses_sum_all_nodes() {
        // Unlike the throughput metrics, fault losses are booked at every
        // receiver, measured or not: three nodes x (2 fer + 1 outage).
        let r = result();
        assert_eq!(r.fer_losses(), 6);
        assert_eq!(r.outage_losses(), 3);
    }

    #[test]
    fn airtime_breakdown_sums_measured_nodes() {
        let r = result();
        let a = r.airtime_breakdown();
        assert_eq!(a.data, SimDuration::from_micros(30 * 6032));
        assert_eq!(a.control(), SimDuration::ZERO);
        assert_eq!(a.total(), a.data);
    }

    #[test]
    fn delay_samples_concatenate_measured_nodes() {
        let r = result();
        assert_eq!(r.delay_samples().len(), 30, "10 + 20 measured samples");
    }

    #[test]
    fn node_throughputs_match_aggregate() {
        let r = result();
        let per_node = r.node_throughputs_bps();
        assert_eq!(per_node.len(), 2);
        let sum: f64 = per_node.iter().sum();
        assert!((sum - r.aggregate_throughput_bps()).abs() < 1e-9);
    }

    #[test]
    fn zero_window_throughput_is_zero() {
        let n = report(0, true, 10, 10_000);
        assert_eq!(n.throughput_bps(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn aggregate_counters_merge_measured_only() {
        let r = result();
        let agg = r.aggregate_counters();
        assert_eq!(agg.packets_acked, 30);
        assert_eq!(agg.data_acked_bytes, 30_000);
    }
}
