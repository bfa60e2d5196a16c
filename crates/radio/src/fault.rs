//! Deterministic fault-injection plans for the unit-disk channel.
//!
//! The paper's channel is perfect: every covered frame is received. A
//! [`FaultPlan`] declares controlled departures from that ideal —
//!
//! * an i.i.d. **frame error rate** applied independently at every
//!   receiver,
//! * **per-link degradation**: elevated FER on a configured subset of
//!   `(src, dst)` pairs (asymmetric links, partial obstructions),
//! * **node outages**: a node is deaf *and* mute over `[from, until)`
//!   windows (battery death, reboot), exercising DCF retry exhaustion and
//!   NAV staleness at its peers.
//!
//! The plan itself is pure data — validation and per-run lookup tables live
//! here, while the random draws (and their dedicated per-node RNG streams)
//! belong to the network layer that owns the event loop. A
//! [`trivial`](FaultPlan::is_trivial) plan injects nothing and must leave
//! the simulation byte-identical to one with no plan at all.

use std::fmt;

use dirca_sim::SimTime;

use crate::NodeId;

/// Elevated frame-error rate on one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Probability that a frame on this link is corrupted at `dst`.
    /// Combined with the plan-wide rate by taking the maximum.
    pub fer: f64,
}

/// One node's radio is out of service over `[from, until)`: it neither
/// decodes incoming frames (deaf) nor radiates energy (mute).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// The affected node.
    pub node: NodeId,
    /// Start of the window (inclusive).
    pub from: SimTime,
    /// End of the window (exclusive).
    pub until: SimTime,
}

/// Declarative description of the channel imperfections for one run.
///
/// Build with the consuming `with_*` methods, then hand it to the network
/// layer via its simulation config. The default plan is trivial (perfect
/// channel).
///
/// ```
/// use dirca_radio::{FaultPlan, NodeId};
/// use dirca_sim::SimTime;
///
/// let plan = FaultPlan::default()
///     .with_frame_error_rate(0.05)
///     .with_link_fault(NodeId(0), NodeId(1), 0.5)
///     .with_outage(NodeId(2), SimTime::from_millis(100), SimTime::from_millis(250));
/// assert!(!plan.is_trivial());
/// assert!(plan.validate(3).is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Base i.i.d. frame error rate applied to every `(src, dst)` pair.
    pub frame_error_rate: f64,
    /// Per-link overrides; each link's effective FER is
    /// `max(frame_error_rate, link.fer)`.
    pub link_faults: Vec<LinkFault>,
    /// Out-of-service windows.
    pub outages: Vec<Outage>,
}

impl FaultPlan {
    /// Sets the plan-wide i.i.d. frame error rate.
    pub fn with_frame_error_rate(mut self, fer: f64) -> Self {
        self.frame_error_rate = fer;
        self
    }

    /// Adds an elevated FER on the directed link `src -> dst`.
    pub fn with_link_fault(mut self, src: NodeId, dst: NodeId, fer: f64) -> Self {
        self.link_faults.push(LinkFault { src, dst, fer });
        self
    }

    /// Adds an out-of-service window `[from, until)` for `node`.
    pub fn with_outage(mut self, node: NodeId, from: SimTime, until: SimTime) -> Self {
        self.outages.push(Outage { node, from, until });
        self
    }

    /// Whether the plan perturbs nothing. A trivial plan must not alter a
    /// run in any way — not even RNG stream consumption — so zero-fault
    /// simulations stay byte-identical to golden traces.
    pub fn is_trivial(&self) -> bool {
        // FERs are validated into [0, 1], so `<= 0` is exact-zero here
        // without tripping the float-equality lint.
        self.frame_error_rate <= 0.0
            && self.link_faults.iter().all(|l| l.fer <= 0.0)
            && self.outages.iter().all(|o| o.from >= o.until)
    }

    /// Validates the plan against a topology of `n` nodes.
    pub fn validate(&self, n: usize) -> Result<(), FaultPlanError> {
        check_fer("frame_error_rate", self.frame_error_rate)?;
        for link in &self.link_faults {
            if link.src.0 >= n || link.dst.0 >= n {
                return Err(FaultPlanError::NodeOutOfRange {
                    node: link.src.0.max(link.dst.0),
                    nodes: n,
                });
            }
            if link.src == link.dst {
                return Err(FaultPlanError::SelfLink { node: link.src.0 });
            }
            check_fer("link fer", link.fer)?;
        }
        for outage in &self.outages {
            if outage.node.0 >= n {
                return Err(FaultPlanError::NodeOutOfRange {
                    node: outage.node.0,
                    nodes: n,
                });
            }
            if outage.from >= outage.until {
                return Err(FaultPlanError::EmptyOutage {
                    node: outage.node.0,
                });
            }
        }
        Ok(())
    }

    /// Validates and compiles the plan into per-run lookup tables for a
    /// topology of `n` nodes.
    pub fn compile(&self, n: usize) -> Result<CompiledFaults, FaultPlanError> {
        self.validate(n)?;
        let mut fer = vec![self.frame_error_rate; n * n];
        for link in &self.link_faults {
            let cell = &mut fer[link.src.0 * n + link.dst.0];
            *cell = cell.max(link.fer);
        }
        let mut outages: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); n];
        for outage in &self.outages {
            outages[outage.node.0].push((outage.from, outage.until));
        }
        for windows in &mut outages {
            windows.sort();
        }
        Ok(CompiledFaults { n, fer, outages })
    }
}

fn check_fer(what: &'static str, fer: f64) -> Result<(), FaultPlanError> {
    if fer.is_finite() && (0.0..=1.0).contains(&fer) {
        Ok(())
    } else {
        Err(FaultPlanError::BadErrorRate { what, fer })
    }
}

/// Why a [`FaultPlan`] was rejected for a given topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// An error rate was not a probability in `[0, 1]`.
    BadErrorRate {
        /// Which rate field.
        what: &'static str,
        /// The offending value.
        fer: f64,
    },
    /// A referenced node id does not exist in the topology.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Topology size.
        nodes: usize,
    },
    /// A link fault names the same node as source and destination.
    SelfLink {
        /// The offending node id.
        node: usize,
    },
    /// An outage window is empty (`from >= until`).
    EmptyOutage {
        /// The affected node id.
        node: usize,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::BadErrorRate { what, fer } => {
                write!(f, "{what} must be a probability in [0, 1], got {fer}")
            }
            FaultPlanError::NodeOutOfRange { node, nodes } => {
                write!(
                    f,
                    "fault plan names node {node}, topology has {nodes} nodes"
                )
            }
            FaultPlanError::SelfLink { node } => {
                write!(f, "link fault from node {node} to itself")
            }
            FaultPlanError::EmptyOutage { node } => {
                write!(f, "empty outage window for node {node} (from >= until)")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Per-run lookup tables compiled from a validated [`FaultPlan`]: a dense
/// per-link FER matrix and sorted per-node outage windows, so the per-frame
/// hot path answers every fault query without search or allocation.
#[derive(Debug, Clone)]
pub struct CompiledFaults {
    n: usize,
    /// Row-major `[src][dst]` effective FER.
    fer: Vec<f64>,
    /// Per-node outage windows, sorted by start.
    outages: Vec<Vec<(SimTime, SimTime)>>,
}

impl CompiledFaults {
    /// Effective frame error rate on the link `src -> dst`.
    pub fn fer(&self, src: NodeId, dst: NodeId) -> f64 {
        self.fer[src.0 * self.n + dst.0]
    }

    /// Whether `node` is out of service at instant `t`.
    pub fn in_outage(&self, node: NodeId, t: SimTime) -> bool {
        self.outages[node.0]
            .iter()
            .any(|&(from, until)| from <= t && t < until)
    }

    /// Whether any part of the closed interval `[start, end]` (a frame's
    /// reception at `node`) overlaps one of the node's outage windows. A
    /// receiver that is dead for even part of a frame cannot decode it.
    pub fn outage_overlaps(&self, node: NodeId, start: SimTime, end: SimTime) -> bool {
        self.outages[node.0]
            .iter()
            .any(|&(from, until)| from <= end && start < until)
    }

    /// Whether any node has outage windows at all.
    pub fn has_outages(&self) -> bool {
        self.outages.iter().any(|w| !w.is_empty())
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn default_plan_is_trivial_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_trivial());
        assert!(plan.validate(5).is_ok());
        let compiled = plan.compile(3).unwrap();
        assert_eq!(compiled.fer(NodeId(0), NodeId(2)), 0.0);
        assert!(!compiled.has_outages());
        assert!(!compiled.in_outage(NodeId(1), ms(10)));
    }

    #[test]
    fn zero_rate_link_faults_and_empty_outages_stay_trivial() {
        // A plan that names links and windows but perturbs nothing must be
        // recognized as trivial so it cannot disturb golden traces. (An
        // empty window is invalid under validate(), but is_trivial() is the
        // cheap pre-check used before validation.)
        let plan = FaultPlan::default().with_link_fault(NodeId(0), NodeId(1), 0.0);
        assert!(plan.is_trivial());
    }

    #[test]
    fn link_fault_takes_max_with_base_rate() {
        let plan = FaultPlan::default()
            .with_frame_error_rate(0.2)
            .with_link_fault(NodeId(0), NodeId(1), 0.5)
            .with_link_fault(NodeId(1), NodeId(0), 0.05);
        let compiled = plan.compile(2).unwrap();
        assert_eq!(compiled.fer(NodeId(0), NodeId(1)), 0.5);
        // The weaker override loses to the base rate.
        assert_eq!(compiled.fer(NodeId(1), NodeId(0)), 0.2);
    }

    #[test]
    fn outage_queries_honor_half_open_windows() {
        let plan = FaultPlan::default().with_outage(NodeId(1), ms(100), ms(200));
        let compiled = plan.compile(3).unwrap();
        assert!(!compiled.in_outage(NodeId(1), ms(99)));
        assert!(compiled.in_outage(NodeId(1), ms(100)));
        assert!(compiled.in_outage(NodeId(1), ms(199)));
        assert!(!compiled.in_outage(NodeId(1), ms(200)));
        assert!(!compiled.in_outage(NodeId(0), ms(150)));
    }

    #[test]
    fn reception_overlap_catches_partial_windows() {
        let plan = FaultPlan::default().with_outage(NodeId(0), ms(100), ms(200));
        let compiled = plan.compile(1).unwrap();
        // Fully before / fully after.
        assert!(!compiled.outage_overlaps(NodeId(0), ms(0), ms(99)));
        assert!(!compiled.outage_overlaps(NodeId(0), ms(200), ms(300)));
        // Straddling either edge, or contained.
        assert!(compiled.outage_overlaps(NodeId(0), ms(90), ms(110)));
        assert!(compiled.outage_overlaps(NodeId(0), ms(190), ms(210)));
        assert!(compiled.outage_overlaps(NodeId(0), ms(120), ms(130)));
        assert!(compiled.outage_overlaps(NodeId(0), ms(50), ms(400)));
        // A reception ending exactly as the outage begins is lost (the
        // window is inclusive of its start), one starting exactly at the
        // outage end is fine.
        assert!(compiled.outage_overlaps(NodeId(0), ms(50), ms(100)));
        assert!(!compiled.outage_overlaps(NodeId(0), ms(200), ms(250)));
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let n = 3;
        assert!(matches!(
            FaultPlan::default().with_frame_error_rate(1.5).validate(n),
            Err(FaultPlanError::BadErrorRate { .. })
        ));
        assert!(matches!(
            FaultPlan::default()
                .with_frame_error_rate(f64::NAN)
                .validate(n),
            Err(FaultPlanError::BadErrorRate { .. })
        ));
        assert!(matches!(
            FaultPlan::default()
                .with_link_fault(NodeId(0), NodeId(7), 0.1)
                .validate(n),
            Err(FaultPlanError::NodeOutOfRange { node: 7, nodes: 3 })
        ));
        assert!(matches!(
            FaultPlan::default()
                .with_link_fault(NodeId(1), NodeId(1), 0.1)
                .validate(n),
            Err(FaultPlanError::SelfLink { node: 1 })
        ));
        assert!(matches!(
            FaultPlan::default()
                .with_outage(NodeId(9), ms(0), ms(1))
                .validate(n),
            Err(FaultPlanError::NodeOutOfRange { node: 9, nodes: 3 })
        ));
        assert!(matches!(
            FaultPlan::default()
                .with_outage(NodeId(0), ms(5), ms(5))
                .validate(n),
            Err(FaultPlanError::EmptyOutage { node: 0 })
        ));
    }

    #[test]
    fn errors_display_the_problem() {
        let e = FaultPlan::default().with_frame_error_rate(2.0).validate(1);
        assert!(e.unwrap_err().to_string().contains("probability"));
        let e = FaultPlan::default()
            .with_outage(NodeId(0), ms(1), ms(1))
            .validate(1);
        assert!(e.unwrap_err().to_string().contains("empty outage"));
    }

    #[test]
    fn overlapping_windows_merge_behaviorally() {
        let plan = FaultPlan::default()
            .with_outage(NodeId(0), ms(100), ms(150))
            .with_outage(NodeId(0), ms(140), ms(220));
        let compiled = plan.compile(1).unwrap();
        for t in [100, 149, 150, 219] {
            assert!(compiled.in_outage(NodeId(0), ms(t)), "t = {t} ms");
        }
        assert!(!compiled.in_outage(NodeId(0), ms(220)));
    }
}
