//! The analytical model of Section 2 of Wang & Garcia-Luna-Aceves
//! (ICDCS 2003).
//!
//! Nodes form a two-dimensional Poisson field with, on average, `N`
//! neighbours within the common range `R`. Time is slotted; every silent
//! node starts a handshake in a slot with probability `p`. Each node is a
//! three-state Markov chain (*wait*, *succeed*, *fail*), and the saturation
//! throughput of a node is
//!
//! ```text
//!        l_data · π_s
//! Th = ─────────────────────────────────
//!      π_w·T_w + π_s·T_s + π_f·T_fail
//! ```
//!
//! The three schemes differ in the success probability `P_ws` (built from
//! the interference areas of `dirca_geometry::paper`) and in the duration
//! `T_fail` of failed handshakes:
//!
//! * [`orts_octs::throughput`] — everything omni-directional (§2.1),
//! * [`basic::throughput`] — no handshake at all (basic access; our
//!   extension in the same framework, for the RTS-threshold study),
//! * [`drts_dcts::throughput`] — everything directional (§2.2),
//! * [`drts_octs::throughput`] — directional RTS/DATA/ACK, omni CTS (§2.3).
//!
//! [`throughput`] dispatches on [`dirca_mac::Scheme`];
//! [`optimize::max_throughput`] maximizes over `p` (the paper's "maximum
//! achievable throughput"); [`sweep`] regenerates Fig. 5.
//!
//! # Example
//!
//! ```
//! use dirca_analysis::{throughput, ModelInput, ProtocolTimes};
//! use dirca_mac::Scheme;
//!
//! let input = ModelInput::new(ProtocolTimes::paper(), 5.0, 30f64.to_radians());
//! let th_omni = throughput(Scheme::OrtsOcts, &input, 0.01);
//! let th_beam = throughput(Scheme::DrtsDcts, &input, 0.01);
//! assert!(th_beam > th_omni, "narrow beams must win at equal p");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// The paper-to-code notation map (rendered from `NOTATION.md`).
#[doc = include_str!("../NOTATION.md")]
pub mod notation {}

pub mod ablation;
pub mod basic;
pub mod drts_dcts;
pub mod drts_octs;
pub mod optimize;
pub mod orts_octs;
pub mod sweep;

mod integrate;
mod markov;
mod model;
mod tgeom;

pub use integrate::simpson;
pub use markov::audit as markov_audit;
pub use markov::{steady_state, throughput_from_chain, ChainInput, SteadyState};
pub use model::{ModelInput, ProtocolTimes};
pub use tgeom::truncated_geometric_mean;

use dirca_mac::Scheme;

/// Saturation throughput of scheme `scheme` at attempt probability `p`.
///
/// Dispatches to the per-scheme modules.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)` (see the per-scheme functions).
pub fn throughput(scheme: Scheme, input: &ModelInput, p: f64) -> f64 {
    match scheme {
        Scheme::OrtsOcts => orts_octs::throughput(input, p),
        Scheme::DrtsDcts => drts_dcts::throughput(input, p),
        Scheme::DrtsOcts => drts_octs::throughput(input, p),
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;

    fn input(theta_deg: f64) -> ModelInput {
        ModelInput::new(ProtocolTimes::paper(), 5.0, theta_deg.to_radians())
    }

    #[test]
    fn dispatch_matches_modules() {
        let inp = input(60.0);
        let p = 0.02;
        assert_eq!(
            throughput(Scheme::OrtsOcts, &inp, p),
            orts_octs::throughput(&inp, p)
        );
        assert_eq!(
            throughput(Scheme::DrtsDcts, &inp, p),
            drts_dcts::throughput(&inp, p)
        );
        assert_eq!(
            throughput(Scheme::DrtsOcts, &inp, p),
            drts_octs::throughput(&inp, p)
        );
    }

    #[test]
    fn all_schemes_give_sane_throughput() {
        let inp = input(30.0);
        for scheme in Scheme::ALL {
            for &p in &[0.001, 0.01, 0.05, 0.1] {
                let th = throughput(scheme, &inp, p);
                assert!(th.is_finite() && th >= 0.0, "{scheme} p={p}: {th}");
                assert!(th < 1.0, "{scheme} p={p}: throughput {th} >= 1");
            }
        }
    }

    #[test]
    fn narrow_beam_directional_beats_omni() {
        let inp = input(15.0);
        let p = 0.02;
        let omni = throughput(Scheme::OrtsOcts, &inp, p);
        let dir = throughput(Scheme::DrtsDcts, &inp, p);
        assert!(dir > omni, "directional {dir} <= omni {omni}");
    }
}
