//! The wireless physical layer of the reproduction.
//!
//! Models the PHY contract assumed by Wang & Garcia-Luna-Aceves (ICDCS
//! 2003):
//!
//! * **Unit-disk propagation** — every node has the same transmission and
//!   reception range `R`; inside the covered region signals arrive at full
//!   strength, outside they vanish ([`Channel`]).
//! * **Ideal sector beams** — directional transmissions cover a circular
//!   sector of beamwidth θ with the same gain as an omni-directional
//!   transmission (the paper's power-control equal-gain assumption);
//!   complete attenuation outside the sector ([`TxPattern`]).
//! * **Omni-directional reception, collision on overlap** — a frame is
//!   decoded iff it is the only signal at the receiver for its entire
//!   duration and the receiver never transmits meanwhile ([`Transceiver`]).
//!   A directional-reception extension (Nasipuri-style antenna selection) is
//!   available through [`ReceptionMode::Directional`].
//! * **Deaf while transmitting** — a transmitting node senses nothing and
//!   decodes nothing (single transceiver per node, paper §2.2).
//!
//! The crate is event-framework-agnostic: [`Transceiver`] is a pure state
//! machine fed with signal-arrival/end notifications; the `dirca-net` crate
//! wires it to the discrete-event loop.
//!
//! One [`CoveragePlan`] serves every spatial answer the per-frame hot
//! path needs — omni neighbour lists as borrowed id-sorted slices,
//! directional footprints as an O(deg) filter of them, distance/heading
//! computed bit-identically to the reference — from a uniform-grid
//! [`SpatialGrid`] index that costs O(n) memory and O(local density) per
//! query, so 100k-node fields are as tractable as the paper's 130. Static
//! and mobile runs share it: a position epoch rebuilds it in place
//! ([`CoveragePlan::apply_moves`]). [`Channel::covered_by`] remains the
//! reference implementation the plan is built from and tested against.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod channel;
mod coverage;
mod edges;
mod fault;
mod pattern;
mod spatial;
mod transceiver;

pub use channel::{Channel, ChannelError, TxPattern};
pub use coverage::{CoveragePlan, DynamicCoveragePlan, InvalidationStats};
pub use edges::NodeCoverage;
pub use fault::{CompiledFaults, FaultPlan, FaultPlanError, LinkFault, Outage};
pub use pattern::{AntennaPattern, SinrPhy};
pub use spatial::SpatialGrid;
pub use transceiver::{ReceptionMode, RxEndReport, SignalId, Transceiver};

use std::fmt;

/// Identifier of a node, an index into the channel's position table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}
