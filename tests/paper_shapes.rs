//! The paper's qualitative results, checked end-to-end at reduced scale.
//!
//! These tests run the real experiment harness (ring topologies, all three
//! schemes) with fewer topologies and shorter windows than the paper, and
//! assert the *shape* of the published results: orderings and trends, not
//! absolute numbers.

use dirca::experiments::ringsim::{run_cell, RingExperiment};
use dirca::mac::Scheme;
use dirca::sim::SimDuration;

fn cell(scheme: Scheme, n: usize, theta: f64) -> RingExperiment {
    // Per-topology variance is large (full-scale min–max ranges span ~10×),
    // so the sample must be big enough for the orderings to be stable: 14
    // topologies keeps each cell under a few seconds while separating the
    // scheme means well beyond their standard errors.
    let mut exp = RingExperiment::paper(scheme, n, theta);
    exp.topologies = 14;
    exp.config.warmup = SimDuration::from_millis(200);
    exp.config.measure = SimDuration::from_secs(3);
    exp
}

fn mean_throughput(scheme: Scheme, n: usize, theta: f64) -> f64 {
    run_cell(&cell(scheme, n, theta), 4)
        .throughput
        .mean()
        .expect("throughput samples")
}

#[test]
fn fig6_drts_dcts_wins_at_narrow_beams() {
    // The headline: at θ = 30°, the all-directional scheme beats the
    // omni baseline in simulated throughput (N = 5 panel of Fig. 6).
    let dir = mean_throughput(Scheme::DrtsDcts, 5, 30.0);
    let omni = mean_throughput(Scheme::OrtsOcts, 5, 30.0);
    assert!(
        dir > 1.1 * omni,
        "DRTS-DCTS ({dir:.3}) must clearly beat ORTS-OCTS ({omni:.3}) at 30°"
    );
}

#[test]
fn fig6_orts_octs_ignores_beamwidth() {
    // The omni scheme never beamforms, so its results are identical (same
    // seeds, same dynamics) across the θ grid.
    // (Tolerance only for thread-order float aggregation; the underlying
    // per-topology samples are bit-identical.)
    let a = mean_throughput(Scheme::OrtsOcts, 3, 30.0);
    let b = mean_throughput(Scheme::OrtsOcts, 3, 150.0);
    assert!(
        (a - b).abs() < 1e-12,
        "ORTS-OCTS must be beamwidth-independent: {a} vs {b}"
    );
}

#[test]
fn fig7_drts_dcts_has_lowest_delay_at_narrow_beams() {
    // Fig. 7: less waiting under aggressive spatial reuse.
    let dir = run_cell(&cell(Scheme::DrtsDcts, 5, 30.0), 4)
        .delay_ms
        .mean()
        .expect("delay samples");
    let omni = run_cell(&cell(Scheme::OrtsOcts, 5, 30.0), 4)
        .delay_ms
        .mean()
        .expect("delay samples");
    assert!(
        dir < omni,
        "DRTS-DCTS delay {dir:.1} ms must undercut ORTS-OCTS {omni:.1} ms"
    );
}

#[test]
fn collision_ratio_orders_by_aggressiveness() {
    // §4: the directional schemes trade higher collision rates for reuse;
    // the conservative omni scheme has the best collision avoidance.
    let omni = run_cell(&cell(Scheme::OrtsOcts, 5, 30.0), 4)
        .collision_ratio
        .mean()
        .expect("collision samples");
    let dir = run_cell(&cell(Scheme::DrtsDcts, 5, 30.0), 4)
        .collision_ratio
        .mean()
        .expect("collision samples");
    assert!(
        dir >= omni,
        "DRTS-DCTS collision ratio {dir:.3} must not undercut ORTS-OCTS {omni:.3}"
    );
}

#[test]
fn throughput_degrades_with_density_for_omni() {
    // More neighbours, more contention, less per-region throughput under
    // the conservative scheme.
    let sparse = mean_throughput(Scheme::OrtsOcts, 3, 90.0);
    let dense = mean_throughput(Scheme::OrtsOcts, 8, 90.0);
    assert!(
        dense < sparse * 1.05,
        "ORTS-OCTS at N=8 ({dense:.3}) should not beat N=3 ({sparse:.3})"
    );
}
