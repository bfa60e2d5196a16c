//! E11 — MAC-mechanism ablations (ours).
//!
//! DESIGN.md calls out three protocol mechanisms whose value is asserted
//! but not isolated by the paper: EIFS after corrupted receptions, NAV
//! suppression of CTS responses, and the choice between purely directional
//! RTS retries vs Ko-style omni fallback. This experiment toggles each on
//! the ring simulation and reports its effect.

use dirca_mac::MacConfig;

use crate::ringsim::{run_cell, RingExperiment, RingOutcome};

/// A named MAC variant.
#[derive(Debug, Clone)]
pub struct MacVariant {
    /// Human-readable label.
    pub label: String,
    /// The configuration it runs.
    pub config: MacConfig,
}

/// The standard variant set: baseline plus one toggle each.
pub fn standard_variants() -> Vec<MacVariant> {
    let base = MacConfig::default();
    vec![
        MacVariant {
            label: "baseline 802.11".into(),
            config: base.clone(),
        },
        MacVariant {
            label: "no EIFS".into(),
            config: MacConfig {
                use_eifs: false,
                ..base.clone()
            },
        },
        MacVariant {
            label: "ignore NAV on RTS".into(),
            config: MacConfig {
                respect_nav_on_rts: false,
                ..base.clone()
            },
        },
        MacVariant {
            label: "omni RTS on retry (Ko)".into(),
            config: MacConfig {
                omni_rts_on_retry: true,
                ..base
            },
        },
    ]
}

/// Runs every variant on the `base` cell, which keeps all but its MAC
/// configuration.
pub fn run_variants(
    base: &RingExperiment,
    threads: usize,
    variants: &[MacVariant],
) -> Vec<(String, RingOutcome)> {
    variants
        .iter()
        .map(|variant| {
            let mut exp = base.clone();
            exp.config.mac = variant.config.clone();
            (variant.label.clone(), run_cell(&exp, threads))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirca_mac::Scheme;
    use dirca_sim::SimDuration;

    #[test]
    fn standard_variants_differ_from_baseline() {
        let variants = standard_variants();
        assert_eq!(variants.len(), 4);
        assert_eq!(variants[0].config, MacConfig::default());
        for v in &variants[1..] {
            assert_ne!(v.config, MacConfig::default(), "{} is a no-op", v.label);
        }
    }

    #[test]
    fn variants_produce_distinct_dynamics() {
        // On a contended cell, toggling NAV respect must change the run
        // (event counts and throughput will differ). Omni RTS/CTS maximizes
        // how often a receiver's NAV is busy when an RTS addressed to it
        // arrives, which is the condition the toggle controls.
        let mut base = RingExperiment::quick(Scheme::OrtsOcts, 5, 30.0);
        base.topologies = 2;
        base.config.measure = SimDuration::from_millis(500);
        let variants = standard_variants();
        let ignore_nav = &variants[2];
        assert_eq!(ignore_nav.label, "ignore NAV on RTS");
        let outcomes = run_variants(&base, 2, &[variants[0].clone(), ignore_nav.clone()]);
        assert_ne!(
            outcomes[0].1.throughput.mean(),
            outcomes[1].1.throughput.mean(),
            "NAV toggle had no observable effect"
        );
    }
}
