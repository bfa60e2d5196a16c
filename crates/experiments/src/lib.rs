//! The experiment harness: one module (and one binary) per table or figure
//! of the paper.
//!
//! | Experiment | Paper artefact | Module | Binary |
//! |------------|----------------|--------|--------|
//! | E1 | Fig. 5 — analytical throughput vs beamwidth | [`fig5`] | `fig5` |
//! | E2 | Table 1 — 802.11 DSSS parameters | [`table1`] | `table1` |
//! | E3 | Fig. 6 — simulated throughput | [`ringsim`] | `fig6` |
//! | E4 | Fig. 7 — simulated delay | [`ringsim`] | `fig7` |
//! | E5 | §4 collision-ratio statistic | [`ringsim`] | `collision_ratio` |
//! | E6 | §4 fairness discussion | [`ringsim`] | `fairness` |
//! | E7 | model ablations (ours) | `dirca_analysis::ablation` | `ablation` |
//! | E8 | directional reception extension (ours) | [`directional_rx`] | `directional_rx` |
//! | E9 | offered-load sweep extension (ours) | [`offered_load`] | `offered_load` |
//! | E10 | data-length sweep extension (ours) | `dirca_analysis::sweep::data_length_sweep` | `data_size` |
//! | E11 | MAC-mechanism ablations (ours) | [`mac_ablation`] | `mac_ablation` |
//! | E12 | RTS-threshold study (ours) | [`rts_threshold`] | `rts_threshold` |
//! | E13 | airtime accounting (ours) | — | `airtime` |
//! | E14 | model-vs-simulation validation on Poisson fields (ours) | [`model_vs_sim`] | `model_vs_sim` |
//! | E15 | throughput vs injected frame error rate (ours) | [`fault_sweep`] | `fault_sweep` |
//! | E17 | mobility + side-lobe sweep (ours) | [`mobility_sweep`] | `mobility_sweep` |
//! | E18 | directional connectivity vs closed-form theory (ours) | [`connectivity`] | `connectivity` |
//! | — | SVG figure rendering | [`plot`] | `figures` |
//! | — | structured trace export | [`tracegrid`] | `paper_grid --trace`, `trace_view` |
//!
//! Every binary accepts `--quick` (a fast smoke-test scale) plus
//! experiment-specific flags; see each binary's `--help`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Unwraps and exact float comparisons are idiomatic in test assertions.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

pub mod cli;
pub mod connectivity;
pub mod directional_rx;
pub mod fault_sweep;
pub mod fig5;
pub mod mac_ablation;
pub mod mobility_sweep;
pub mod model_vs_sim;
pub mod offered_load;
pub mod plot;
mod pool;
pub mod report;
pub mod ringsim;
pub mod rts_threshold;
pub mod runner;
pub mod table;
pub mod table1;
pub mod tracegrid;
pub mod wireio;
