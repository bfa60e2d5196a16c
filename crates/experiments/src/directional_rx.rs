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

use dirca_radio::ReceptionMode;

use crate::ringsim::{run_cell, RingExperiment, RingOutcome};

/// Outcome of the directional-reception comparison for one scheme.
#[derive(Debug, Clone)]
pub struct RxComparison {
    /// Baseline: omni reception (the paper's model).
    pub omni_rx: RingOutcome,
    /// Extension: directional reception with the same beamwidth as
    /// transmission.
    pub directional_rx: RingOutcome,
}

/// Runs the `base` cell twice: with omni reception, then receiving
/// through its transmit beamwidth.
pub fn compare(base: &RingExperiment, threads: usize) -> RxComparison {
    let mut cell = base.clone();
    cell.config.reception = ReceptionMode::Omni;
    let omni_rx = run_cell(&cell, threads);
    cell.config.reception = ReceptionMode::Directional {
        beamwidth: cell.config.beamwidth,
    };
    RxComparison {
        omni_rx,
        directional_rx: run_cell(&cell, threads),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirca_mac::Scheme;
    use dirca_sim::SimDuration;

    #[test]
    fn directional_reception_does_not_hurt_throughput() {
        // Directional reception can only remove corruption events, so mean
        // throughput must not degrade (tiny tolerance for the different
        // contention dynamics it induces).
        let mut base = RingExperiment::quick(Scheme::DrtsDcts, 3, 30.0);
        base.topologies = 3;
        base.config.measure = SimDuration::from_millis(500);
        let cmp = compare(&base, 2);
        let omni_th = cmp.omni_rx.throughput.mean().unwrap();
        let dir_th = cmp.directional_rx.throughput.mean().unwrap();
        assert!(
            dir_th > 0.85 * omni_th,
            "directional rx collapsed: {dir_th} vs {omni_th}"
        );
    }
}
