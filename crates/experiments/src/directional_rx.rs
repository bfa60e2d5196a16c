//! E8 — extension: Nasipuri-style directional reception.
//!
//! The paper's §5 suggests further research on collision avoidance schemes
//! tailored to directional antennas. One natural extension, used by
//! Nasipuri et al. (WCNC 2000), is *directional reception*: the receiver
//! selects the antenna pointing at the frame it locked onto, so
//! interference arriving from other directions no longer corrupts it. This
//! experiment reruns the ring simulation with
//! [`dirca_radio::ReceptionMode::Directional`] and compares against the
//! paper's omni-reception baseline.

use dirca_mac::Scheme;
use dirca_radio::ReceptionMode;

use crate::ringsim::{run_cell, RingExperiment, RingOutcome};

/// Outcome of the directional-reception comparison for one scheme.
#[derive(Debug, Clone)]
pub struct RxComparison {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Baseline: omni reception (the paper's model).
    pub omni_rx: RingOutcome,
    /// Extension: directional reception with the same beamwidth as
    /// transmission.
    pub directional_rx: RingOutcome,
}

/// Runs the comparison for `scheme` on the given cell parameters.
///
/// # Panics
///
/// Panics if `beamwidth_degrees` is outside `(0, 360]`.
pub fn compare(
    scheme: Scheme,
    n_avg: usize,
    beamwidth_degrees: f64,
    topologies: usize,
    threads: usize,
) -> RxComparison {
    let mut base = RingExperiment::paper(scheme, n_avg, beamwidth_degrees);
    base.topologies = topologies;
    let omni_rx = run_cell(&base, threads);
    base.config.reception = ReceptionMode::Directional {
        beamwidth: base.config.beamwidth,
    };
    let directional_rx = run_cell(&base, threads);
    RxComparison {
        scheme,
        omni_rx,
        directional_rx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirca_geometry::Beamwidth;
    use dirca_sim::SimDuration;

    #[test]
    fn directional_reception_does_not_hurt_throughput() {
        // Directional reception can only remove corruption events, so mean
        // throughput must not degrade (tiny tolerance for the different
        // contention dynamics it induces).
        let scheme = Scheme::DrtsDcts;
        let mut base = RingExperiment::quick(scheme, 3, 30.0);
        base.topologies = 3;
        base.config.measure = SimDuration::from_millis(500);
        let omni = run_cell(&base, 2);
        base.config.reception = ReceptionMode::Directional {
            beamwidth: Beamwidth::from_degrees(30.0).unwrap(),
        };
        let dir = run_cell(&base, 2);
        let omni_th = omni.throughput.mean().unwrap();
        let dir_th = dir.throughput.mean().unwrap();
        assert!(
            dir_th > 0.85 * omni_th,
            "directional rx collapsed: {dir_th} vs {omni_th}"
        );
    }
}
