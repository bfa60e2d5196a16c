//! The experiment harness: the module and binary behind each table or
//! figure of the paper. E3–E6 share one grid, which only `paper_grid`
//! simulates ([`runner::run_grid`]); every grid table and chart is
//! rendered from its cells.
//!
//! | Experiment | Paper artefact | Module | Binary |
//! |------------|----------------|--------|--------|
//! | E1 | Fig. 5 — analytical throughput vs beamwidth | [`fig5`] | `fig5` (`--svg DIR` draws it) |
//! | E2 | Table 1 — 802.11 DSSS parameters | [`table1`] | `table1` |
//! | E3 | Fig. 6 — simulated throughput | [`runner`], [`report`] | `paper_grid` (`--svg DIR` draws it) |
//! | E4 | Fig. 7 — simulated delay | [`runner`], [`report`] | `paper_grid` (`--svg DIR` draws it) |
//! | E5 | §4 collision-ratio statistic | [`runner`], [`report`] | `paper_grid` |
//! | E6 | §4 fairness discussion | [`runner`], [`report`] | `paper_grid` |
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
//! | — | SVG figure rendering | [`plot`] | `fig5 --svg DIR`, `paper_grid --svg DIR` |
//! | — | structured trace export | [`tracegrid`] | `paper_grid --trace`, `trace_view` |
//!
//! Every binary accepts `--quick` (a fast smoke-test scale) plus
//! experiment-specific flags; see each binary's `--help`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

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
