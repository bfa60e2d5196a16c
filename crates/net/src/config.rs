//! Experiment configuration.

use dirca_geometry::Beamwidth;
use dirca_mac::{Dot11Params, MacConfig, Scheme};
use dirca_radio::{FaultPlan, ReceptionMode, SinrPhy};
use dirca_sim::SimDuration;
use dirca_topology::MobilityModel;

/// Mobility attached to a run: which model moves the nodes and how often
/// the positions advance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilityConfig {
    /// The trajectory model (see [`MobilityModel`]).
    pub model: MobilityModel,
    /// Position epoch length: the world steps the mobility state and
    /// refreshes its spatial caches every `epoch` of simulated time.
    pub epoch: SimDuration,
}

/// How each node's traffic source behaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficModel {
    /// Always backlogged (the paper's experiments): a fresh packet to a
    /// random neighbour whenever the MAC runs dry.
    Saturated,
    /// Poisson arrivals at the given per-node rate, each to a random
    /// neighbour. Arrivals beyond `max_queue` waiting packets are dropped
    /// at the source (counted in [`crate::AppStats::queue_drops`]).
    Poisson {
        /// Mean packet arrivals per second per node.
        packets_per_sec: f64,
        /// Source queue capacity (excluding the packet in service).
        max_queue: usize,
    },
    /// No generator: packets are injected manually through
    /// [`crate::NetWorld::enqueue_packet`].
    Manual,
}

/// All knobs of one simulation run.
///
/// Build with [`SimConfig::new`] and the `with_*` methods (consuming
/// builder style):
///
/// ```
/// use dirca_mac::Scheme;
/// use dirca_net::SimConfig;
/// use dirca_sim::SimDuration;
///
/// let cfg = SimConfig::new(Scheme::DrtsDcts)
///     .with_beamwidth_degrees(30.0)
///     .with_seed(7)
///     .with_measure(SimDuration::from_secs(5));
/// assert_eq!(cfg.scheme, Scheme::DrtsDcts);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Which collision-avoidance scheme the MACs run.
    pub scheme: Scheme,
    /// Beamwidth used for directional transmissions.
    pub beamwidth: Beamwidth,
    /// Receive-chain model (the paper's baseline is omni reception).
    pub reception: ReceptionMode,
    /// PHY/MAC timing parameters.
    pub params: Dot11Params,
    /// MAC behaviour knobs (retry limits, EIFS, NAV handling).
    pub mac: MacConfig,
    /// Size of generated data packets in bytes.
    pub data_bytes: u32,
    /// Traffic source model (the paper's experiments are saturated).
    pub traffic: TrafficModel,
    /// Master seed; all node streams derive from it.
    pub seed: u64,
    /// Record every delivered packet's end-to-end delay into the node
    /// reports (costs memory on long runs; used for tail-latency studies).
    pub record_delays: bool,
    /// Warm-up window excluded from the measurement.
    pub warmup: SimDuration,
    /// Measurement window.
    pub measure: SimDuration,
    /// Channel imperfections injected into the run. The default (trivial)
    /// plan leaves the simulation byte-identical to a perfect channel.
    pub fault: FaultPlan,
    /// Node mobility: `None` (the default, and the paper's scenario)
    /// keeps positions static; `Some` schedules position epochs. A
    /// speed-0 model is byte-identical to `None`.
    pub mobility: Option<MobilityConfig>,
    /// Power-based SINR PHY: `None` (the default) keeps the paper's
    /// binary collide rule; `Some` routes reception through antenna-gain
    /// path loss and the SINR capture margin. [`SinrPhy::ideal`] is
    /// byte-identical to `None`.
    pub sinr: Option<SinrPhy>,
}

impl SimConfig {
    /// A configuration with the paper's defaults: Table 1 PHY parameters,
    /// 90° beams, omni reception, saturated 1460-byte CBR, 0.5 s warm-up,
    /// 10 s measurement.
    pub fn new(scheme: Scheme) -> Self {
        SimConfig {
            scheme,
            beamwidth: Beamwidth::from_degrees(90.0).expect("static beamwidth"),
            reception: ReceptionMode::Omni,
            params: Dot11Params::dsss_2mbps(),
            mac: MacConfig::default(),
            data_bytes: 1460,
            traffic: TrafficModel::Saturated,
            seed: 0,
            record_delays: false,
            warmup: SimDuration::from_millis(500),
            measure: SimDuration::from_secs(10),
            fault: FaultPlan::default(),
            mobility: None,
            sinr: None,
        }
    }

    /// Sets the beamwidth for directional transmissions.
    pub fn with_beamwidth(mut self, beamwidth: Beamwidth) -> Self {
        self.beamwidth = beamwidth;
        self
    }

    /// Sets the beamwidth in degrees.
    ///
    /// # Panics
    ///
    /// Panics if `degrees` is outside `(0, 360]`.
    pub fn with_beamwidth_degrees(self, degrees: f64) -> Self {
        self.with_beamwidth(Beamwidth::from_degrees(degrees).expect("valid beamwidth degrees"))
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the warm-up duration.
    pub fn with_warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the measurement duration.
    pub fn with_measure(mut self, measure: SimDuration) -> Self {
        self.measure = measure;
        self
    }

    /// Sets the reception mode (directional reception is the extension
    /// experiment).
    pub fn with_reception(mut self, reception: ReceptionMode) -> Self {
        self.reception = reception;
        self
    }

    /// Sets the generated packet size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn with_data_bytes(mut self, bytes: u32) -> Self {
        assert!(bytes > 0, "data packets must be non-empty");
        self.data_bytes = bytes;
        self
    }

    /// Sets the traffic model.
    ///
    /// # Panics
    ///
    /// Panics if a Poisson rate is not positive and finite.
    pub fn with_traffic(mut self, traffic: TrafficModel) -> Self {
        if let TrafficModel::Poisson {
            packets_per_sec, ..
        } = traffic
        {
            assert!(
                packets_per_sec.is_finite() && packets_per_sec > 0.0,
                "Poisson rate must be positive, got {packets_per_sec}"
            );
        }
        self.traffic = traffic;
        self
    }

    /// Sets the fault-injection plan. Validity against the topology is
    /// checked when the world is built.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Attaches a mobility model stepped every `epoch` of simulated time.
    ///
    /// # Panics
    ///
    /// Panics on invalid model parameters or a zero epoch.
    pub fn with_mobility(mut self, model: MobilityModel, epoch: SimDuration) -> Self {
        model.validate();
        assert!(epoch > SimDuration::ZERO, "mobility epoch must be positive");
        self.mobility = Some(MobilityConfig { model, epoch });
        self
    }

    /// Routes reception through the power-based SINR PHY.
    ///
    /// # Panics
    ///
    /// Panics with `SinrPhy::validate`'s message on invalid PHY parameters.
    pub fn with_sinr(mut self, sinr: SinrPhy) -> Self {
        if let Err(why) = sinr.validate() {
            panic!("{why}");
        }
        self.sinr = Some(sinr);
        self
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::new(Scheme::OrtsOcts);
        assert_eq!(c.data_bytes, 1460);
        assert_eq!(c.traffic, TrafficModel::Saturated);
        assert_eq!(c.params, Dot11Params::dsss_2mbps());
        assert_eq!(c.reception, ReceptionMode::Omni);
        assert!(c.fault.is_trivial(), "default channel must be perfect");
        assert!(c.mobility.is_none(), "default scenario must be static");
        assert!(c.sinr.is_none(), "default PHY must be the binary rule");
    }

    #[test]
    fn mobility_and_sinr_builders_install() {
        let c = SimConfig::new(Scheme::OrtsOcts)
            .with_mobility(
                MobilityModel::RandomWaypoint {
                    speed_min: 0.5,
                    speed_max: 2.0,
                    pause_secs: 0.1,
                },
                SimDuration::from_millis(10),
            )
            .with_sinr(SinrPhy::ideal().with_side_floor(0.05));
        let m = c.mobility.expect("mobility installed");
        assert_eq!(m.epoch, SimDuration::from_millis(10));
        assert!(!m.model.is_static());
        assert!(!c.sinr.expect("sinr installed").is_ideal_pattern());
    }

    #[test]
    #[should_panic(expected = "epoch must be positive")]
    fn zero_mobility_epoch_rejected() {
        let _ = SimConfig::new(Scheme::OrtsOcts)
            .with_mobility(MobilityModel::STATIC, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "margin")]
    fn invalid_sinr_rejected() {
        let _ = SimConfig::new(Scheme::OrtsOcts).with_sinr(SinrPhy::ideal().with_margin(-1.0));
    }

    #[test]
    fn fault_builder_installs_plan() {
        let c = SimConfig::new(Scheme::OrtsOcts)
            .with_fault(FaultPlan::default().with_frame_error_rate(0.1));
        assert!(!c.fault.is_trivial());
        assert_eq!(c.fault.frame_error_rate, 0.1);
    }

    #[test]
    fn traffic_builder_validates_rate() {
        let c = SimConfig::new(Scheme::OrtsOcts).with_traffic(TrafficModel::Poisson {
            packets_per_sec: 10.0,
            max_queue: 8,
        });
        assert!(matches!(c.traffic, TrafficModel::Poisson { .. }));
    }

    #[test]
    #[should_panic(expected = "Poisson rate")]
    fn zero_rate_rejected() {
        let _ = SimConfig::new(Scheme::OrtsOcts).with_traffic(TrafficModel::Poisson {
            packets_per_sec: 0.0,
            max_queue: 8,
        });
    }

    #[test]
    fn builder_methods_chain() {
        let c = SimConfig::new(Scheme::DrtsOcts)
            .with_beamwidth_degrees(15.0)
            .with_seed(99)
            .with_warmup(SimDuration::from_millis(1))
            .with_measure(SimDuration::from_millis(2))
            .with_data_bytes(512);
        assert!((c.beamwidth.degrees() - 15.0).abs() < 1e-9);
        assert_eq!(c.seed, 99);
        assert_eq!(c.warmup, SimDuration::from_millis(1));
        assert_eq!(c.measure, SimDuration::from_millis(2));
        assert_eq!(c.data_bytes, 512);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_data_bytes_rejected() {
        let _ = SimConfig::new(Scheme::OrtsOcts).with_data_bytes(0);
    }

    #[test]
    #[should_panic(expected = "valid beamwidth")]
    fn bad_beamwidth_rejected() {
        let _ = SimConfig::new(Scheme::OrtsOcts).with_beamwidth_degrees(0.0);
    }
}
