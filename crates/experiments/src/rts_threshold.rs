//! E12 — extension: when is the RTS/CTS handshake worth it?
//!
//! Simulates the ring topology under ORTS-OCTS with the handshake enabled
//! (every frame RTS-protected) vs disabled (pure basic access), across
//! data packet sizes — the simulation counterpart of the analytical
//! [`dirca_analysis::basic`] model. With long frames and hidden terminals
//! the handshake wins; with short frames its four-packet overhead loses.

use crate::ringsim::{run_cell, RingExperiment};

use dirca_mac::Scheme;
use dirca_net::SimConfig;
use dirca_sim::SimDuration;
use dirca_stats::Summary;

/// One row of the comparison: a data size, simulated both ways.
#[derive(Debug, Clone)]
pub struct ThresholdRow {
    /// Data frame size in bytes.
    pub data_bytes: u32,
    /// Normalized throughput with the RTS/CTS handshake.
    pub with_handshake: Summary,
    /// Normalized throughput with basic access.
    pub basic_access: Summary,
    /// Collision ratio with the handshake.
    pub handshake_collisions: Summary,
    /// Collision ratio with basic access (data frames lost).
    pub basic_collisions: Summary,
}

/// Configuration of the comparison.
#[derive(Debug, Clone)]
pub struct ThresholdStudy {
    /// The ORTS-OCTS ring cell every point runs: N, topologies, seed and
    /// windows; each point sets the data size and the RTS threshold.
    pub base: RingExperiment,
    /// Data sizes to evaluate.
    pub data_sizes: Vec<u32>,
}

impl Default for ThresholdStudy {
    fn default() -> Self {
        ThresholdStudy {
            base: RingExperiment {
                n_avg: 5,
                topologies: 8,
                seed: 0x7157,
                config: SimConfig::new(Scheme::OrtsOcts)
                    .with_warmup(SimDuration::from_millis(200))
                    .with_measure(SimDuration::from_secs(5)),
            },
            data_sizes: vec![100, 250, 500, 1000, 1460],
        }
    }
}

/// Runs the study, spreading topologies over `threads` workers.
pub fn run_study(study: &ThresholdStudy, threads: usize) -> Vec<ThresholdRow> {
    study
        .data_sizes
        .iter()
        .map(|&bytes| {
            let (with_handshake, handshake_collisions) = run_mode(study, bytes, false, threads);
            let (basic_access, basic_collisions) = run_mode(study, bytes, true, threads);
            ThresholdRow {
                data_bytes: bytes,
                with_handshake,
                basic_access,
                handshake_collisions,
                basic_collisions,
            }
        })
        .collect()
}

fn run_mode(study: &ThresholdStudy, bytes: u32, basic: bool, threads: usize) -> (Summary, Summary) {
    let mut experiment = study.base.clone();
    experiment.config = experiment.config.with_data_bytes(bytes);
    experiment.config.mac.rts_threshold_bytes = if basic { u32::MAX } else { 0 };
    let outcome = run_cell(&experiment, threads);
    (outcome.throughput, outcome.collision_ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ThresholdStudy {
        let mut study = ThresholdStudy {
            data_sizes: vec![100, 1460],
            ..ThresholdStudy::default()
        };
        study.base.n_avg = 3;
        study.base.topologies = 3;
        study.base.config.measure = SimDuration::from_secs(1);
        study
    }

    #[test]
    fn study_produces_one_row_per_size() {
        let rows = run_study(&tiny(), 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].data_bytes, 100);
        assert_eq!(rows[0].with_handshake.count(), 3);
        assert_eq!(rows[0].basic_access.count(), 3);
    }

    #[test]
    fn basic_access_loses_more_data_frames() {
        // Without RTS protection, the long data frames absorb the
        // collisions the handshake would have taken on cheap RTS frames.
        let rows = run_study(&tiny(), 2);
        let long = rows.last().unwrap();
        let basic = long.basic_collisions.mean().unwrap_or(0.0);
        let protected = long.handshake_collisions.mean().unwrap_or(0.0);
        assert!(
            basic > protected,
            "basic access should lose more data frames: {basic} vs {protected}"
        );
    }
}
