//! Topology generation for the simulation experiments.
//!
//! The paper evaluates its MAC schemes on circular networks built from
//! concentric rings: with `N` the average number of neighbours, it places
//! `N` nodes uniformly in the disk of radius `R`, `3N` in the ring
//! `[R, 2R]`, and `5N` in the ring `[2R, 3R]` (matching a two-dimensional
//! uniform density), then keeps only topologies satisfying degree
//! constraints on the inner and intermediate nodes. Metrics are collected
//! over the innermost `N` nodes only, so the outer rings supply realistic
//! hidden-terminal pressure without boundary effects.
//!
//! This crate reproduces that generator ([`RingSpec`]) plus a Poisson field
//! generator ([`poisson_disk`]) matching the analytical model, and
//! deterministic fixtures ([`fixtures`]) for tests and examples.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod fixtures;
pub mod io;
pub mod mobility;

mod ring;

pub use mobility::{MobilityModel, MobilityState};
pub use ring::{RingSpec, RingTopologyError};

use dirca_geometry::{sample, Point};
use rand::Rng;

/// A generated node layout.
///
/// `positions[i]` is node `i`'s location; the first [`Topology::measured`]
/// nodes are the ones whose MAC statistics the experiments report.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Node positions.
    pub positions: Vec<Point>,
    /// The common transmission range `R` the layout was built for.
    pub range: f64,
    /// How many leading nodes are inside the measurement region.
    pub measured: usize,
}

impl Topology {
    /// Adjacency list under unit-disk connectivity at `self.range`.
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let r2 = self.range * self.range;
        let n = self.positions.len();
        let mut adj = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if self.positions[i].distance_squared(self.positions[j]) <= r2 {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        adj
    }

    /// Degree (neighbour count) of every node.
    pub fn degrees(&self) -> Vec<usize> {
        self.adjacency().iter().map(Vec::len).collect()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// Samples a Poisson field of mean density `n_avg / (πR²)` on a disk of
/// radius `radius`, i.e. the network model of the paper's analysis: the
/// expected number of nodes within range `range` of any point is `n_avg`.
///
/// All nodes are flagged as measured.
///
/// # Panics
///
/// Panics if any argument is non-positive or not finite.
///
/// # Example
///
/// ```
/// use dirca_topology::poisson_disk;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let topo = poisson_disk(&mut rng, 5.0, 1.0, 3.0);
/// // Expected node count: 5 per unit-disk area × (3R)² / R² = 45.
/// assert!(topo.len() > 10 && topo.len() < 120);
/// ```
pub fn poisson_disk<R: Rng + ?Sized>(rng: &mut R, n_avg: f64, range: f64, radius: f64) -> Topology {
    assert!(n_avg > 0.0 && n_avg.is_finite(), "n_avg must be positive");
    assert!(range > 0.0 && range.is_finite(), "range must be positive");
    assert!(
        radius > 0.0 && radius.is_finite(),
        "radius must be positive"
    );
    let mean = n_avg * (radius / range).powi(2);
    let count = sample::poisson_count(rng, mean);
    let positions: Vec<Point> = (0..count)
        .map(|_| sample::uniform_in_disk(rng, Point::ORIGIN, radius))
        .collect();
    let measured = positions.len();
    Topology {
        positions,
        range,
        measured,
    }
}

/// Generates an exactly-`nodes`-node uniform field sized so the expected
/// neighbour count is `n_avg` — the streaming large-scale generator for
/// the 1k–100k-node scaling benchmarks.
///
/// The disk radius is chosen as `range · √(nodes / n_avg)`, which makes
/// the mean density `n_avg / (πR²)`: conditioning a Poisson process on
/// its total count yields exactly this uniform (Binomial) field, so the
/// layout is distributed as a [`poisson_disk`] draw given `nodes` points
/// landed — with a deterministic size, which a pinned-scale benchmark
/// needs.
///
/// **Behavioural gate:** generation streams node positions in O(n) and
/// performs *no* pairwise connectivity or degree validation — at 100k
/// nodes a single O(n²) acceptance scan costs 10¹⁰ distance tests,
/// dwarfing generation itself. Callers needing degree guarantees (the
/// paper-scale [`RingSpec`] generator keeps its acceptance loop) must
/// check downstream; large-field consumers rely on the law of large
/// numbers instead, which concentrates realised degrees tightly around
/// `n_avg` at these scales.
///
/// All nodes are flagged as measured.
///
/// # Panics
///
/// Panics if `nodes` is zero or `n_avg`/`range` are non-positive or not
/// finite.
///
/// # Example
///
/// ```
/// use dirca_topology::poisson_field;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let topo = poisson_field(&mut rng, 1000, 8.0, 1.0);
/// assert_eq!(topo.len(), 1000);
/// ```
pub fn poisson_field<R: Rng + ?Sized>(
    rng: &mut R,
    nodes: usize,
    n_avg: f64,
    range: f64,
) -> Topology {
    assert!(nodes > 0, "node count must be positive");
    assert!(n_avg > 0.0 && n_avg.is_finite(), "n_avg must be positive");
    assert!(range > 0.0 && range.is_finite(), "range must be positive");
    let radius = range * (nodes as f64 / n_avg).sqrt();
    let positions: Vec<Point> = (0..nodes)
        .map(|_| sample::uniform_in_disk(rng, Point::ORIGIN, radius))
        .collect();
    Topology {
        positions,
        range,
        measured: nodes,
    }
}

/// [`poisson_field`] on a dedicated RNG seeded with `seed` — the pinned
/// path scaling benchmarks use so a field is a pure function of
/// `(seed, nodes, n_avg, range)`.
///
/// # Panics
///
/// Panics on the same invalid arguments as [`poisson_field`].
pub fn poisson_field_pinned(seed: u64, nodes: usize, n_avg: f64, range: f64) -> Topology {
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    poisson_field(&mut rng, nodes, n_avg, range)
}

/// Samples a Poisson field on a disk of radius `radius` (like
/// [`poisson_disk`]) but marks only the nodes within `core_radius` of the
/// center as measured — the boundary-free measurement setup matching the
/// analytical model's infinite-plane assumption.
///
/// Nodes are reordered so the measured core nodes come first (the
/// convention used by [`Topology::measured`]).
///
/// # Panics
///
/// Panics if any argument is non-positive/non-finite or
/// `core_radius > radius`.
///
/// # Example
///
/// ```
/// use dirca_topology::poisson_core;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
/// let topo = poisson_core(&mut rng, 5.0, 1.0, 3.0, 1.0);
/// // Expected ~5 measured nodes out of ~45 total.
/// assert!(topo.measured < topo.len());
/// ```
pub fn poisson_core<R: Rng + ?Sized>(
    rng: &mut R,
    n_avg: f64,
    range: f64,
    radius: f64,
    core_radius: f64,
) -> Topology {
    assert!(
        core_radius > 0.0 && core_radius <= radius,
        "core radius must satisfy 0 < core <= radius"
    );
    let mut topo = poisson_disk(rng, n_avg, range, radius);
    // Stable partition: core nodes first, preserving relative order.
    let (core, rest): (Vec<Point>, Vec<Point>) = topo
        .positions
        .iter()
        .partition(|p| Point::ORIGIN.distance(**p) <= core_radius);
    topo.measured = core.len();
    topo.positions = core.into_iter().chain(rest).collect();
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_core_marks_only_core_nodes() {
        let mut rng = SmallRng::seed_from_u64(3);
        let topo = poisson_core(&mut rng, 6.0, 1.0, 3.0, 1.0);
        for (i, p) in topo.positions.iter().enumerate() {
            let d = Point::ORIGIN.distance(*p);
            if i < topo.measured {
                assert!(d <= 1.0 + 1e-9, "measured node {i} outside core: {d}");
            } else {
                assert!(d > 1.0 - 1e-9, "unmeasured node {i} inside core: {d}");
            }
        }
    }

    #[test]
    fn poisson_core_expected_measured_count() {
        let mut rng = SmallRng::seed_from_u64(9);
        let runs = 100;
        let total: usize = (0..runs)
            .map(|_| poisson_core(&mut rng, 5.0, 1.0, 3.0, 1.0).measured)
            .sum();
        let mean = total as f64 / runs as f64;
        assert!((mean - 5.0).abs() < 1.0, "core count mean {mean}");
    }

    #[test]
    #[should_panic(expected = "core radius")]
    fn poisson_core_validates_core() {
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = poisson_core(&mut rng, 5.0, 1.0, 2.0, 3.0);
    }

    #[test]
    fn adjacency_is_symmetric_and_irreflexive() {
        let topo = Topology {
            positions: vec![
                Point::new(0.0, 0.0),
                Point::new(0.5, 0.0),
                Point::new(5.0, 5.0),
            ],
            range: 1.0,
            measured: 3,
        };
        let adj = topo.adjacency();
        assert_eq!(adj[0], vec![1]);
        assert_eq!(adj[1], vec![0]);
        assert!(adj[2].is_empty());
        assert_eq!(topo.degrees(), vec![1, 1, 0]);
    }

    #[test]
    fn empty_topology() {
        let topo = Topology {
            positions: vec![],
            range: 1.0,
            measured: 0,
        };
        assert!(topo.is_empty());
        assert_eq!(topo.len(), 0);
        assert!(topo.adjacency().is_empty());
    }

    #[test]
    fn poisson_disk_count_statistics() {
        let mut rng = SmallRng::seed_from_u64(42);
        let runs = 200;
        let total: usize = (0..runs)
            .map(|_| poisson_disk(&mut rng, 5.0, 1.0, 3.0).len())
            .sum();
        let mean = total as f64 / runs as f64;
        // Expected 45 nodes; allow generous sampling slack.
        assert!((mean - 45.0).abs() < 3.0, "observed mean {mean}");
    }

    #[test]
    fn poisson_disk_nodes_inside_radius() {
        let mut rng = SmallRng::seed_from_u64(7);
        let topo = poisson_disk(&mut rng, 8.0, 1.0, 2.0);
        for p in &topo.positions {
            assert!(Point::ORIGIN.distance(*p) <= 2.0 + 1e-9);
        }
        assert_eq!(topo.measured, topo.len());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn poisson_disk_validates() {
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = poisson_disk(&mut rng, 0.0, 1.0, 3.0);
    }

    #[test]
    fn poisson_field_has_exact_count_and_radius() {
        let mut rng = SmallRng::seed_from_u64(11);
        let topo = poisson_field(&mut rng, 500, 8.0, 1.0);
        assert_eq!(topo.len(), 500);
        assert_eq!(topo.measured, 500);
        let radius = (500.0f64 / 8.0).sqrt();
        for p in &topo.positions {
            assert!(Point::ORIGIN.distance(*p) <= radius + 1e-9);
        }
    }

    #[test]
    fn poisson_field_pinned_is_reproducible() {
        let a = poisson_field_pinned(0xD1CA, 200, 8.0, 1.0);
        let b = poisson_field_pinned(0xD1CA, 200, 8.0, 1.0);
        assert_eq!(a, b);
        let c = poisson_field_pinned(0xD1CB, 200, 8.0, 1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_field_mean_degree_near_n_avg() {
        // No degree validation happens at generation time (the documented
        // behavioural gate); the law of large numbers must carry it. At
        // n = 2000 the interior mean degree concentrates near n_avg, with
        // slack for boundary nodes seeing truncated disks.
        let topo = poisson_field_pinned(7, 2000, 8.0, 1.0);
        let degrees = topo.degrees();
        let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        assert!(
            (mean - 8.0).abs() < 1.5,
            "mean degree {mean} far from n_avg = 8"
        );
    }

    #[test]
    #[should_panic(expected = "node count must be positive")]
    fn poisson_field_rejects_zero_nodes() {
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = poisson_field(&mut rng, 0, 8.0, 1.0);
    }
}
