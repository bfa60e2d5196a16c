//! Deterministic mobility models: random waypoint and reference point
//! group mobility (RPGM).
//!
//! The source paper's scenarios are static; mobility is the axis it could
//! not explore (EXPERIMENTS.md E17 sweeps it). A [`MobilityState`] owns the
//! evolving node positions and advances them in fixed *epochs*: the
//! simulation layer calls [`MobilityState::step`] once per position epoch
//! and applies the returned move list to its spatial caches. All
//! randomness comes from one seeded stream (the caller derives the seed
//! from its registered salt, `MOBILITY_STREAM_SALT` in
//! `dirca-net::salts`), and nodes are advanced in ascending id order —
//! with group references before members under RPGM — so a trajectory is a
//! pure function of `(model, initial positions, radius, seed, epoch
//! schedule)`.
//!
//! **Static short-circuit:** a model whose top speed is zero performs *no*
//! RNG draws at construction or per step and returns an empty move list,
//! so attaching a zero-speed mobility model to a run leaves every other
//! stream — and therefore the whole event trace — byte-identical to a run
//! without mobility. The golden battery in
//! `crates/net/tests/mobility_golden.rs` pins this.

// Transmit hot path: every indexing and `expect` site panics on a broken
// invariant, so each carries an `#[expect]` on its fn saying which one.
#![deny(clippy::indexing_slicing, clippy::expect_used)]

use dirca_geometry::{sample, Point};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which trajectory family the nodes follow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityModel {
    /// Classic random waypoint: each node independently picks a uniform
    /// waypoint in the movement disk and a uniform speed, travels there in
    /// a straight line, pauses, and repeats.
    RandomWaypoint {
        /// Lower speed bound (distance units per second).
        speed_min: f64,
        /// Upper speed bound (distance units per second). Zero makes the
        /// model static (no draws, no moves).
        speed_max: f64,
        /// Pause at each waypoint, seconds.
        pause_secs: f64,
    },
    /// Reference point group mobility: nodes are split into `groups`
    /// contiguous-id groups, each group's invisible reference point does a
    /// random waypoint walk, and every member wanders inside a disk of
    /// radius `deviation` around its reference point.
    Rpgm {
        /// Number of groups (ids are split into contiguous blocks).
        groups: usize,
        /// Lower reference-point speed bound.
        speed_min: f64,
        /// Upper reference-point speed bound. Zero makes the model static.
        speed_max: f64,
        /// Pause at each reference waypoint, seconds.
        pause_secs: f64,
        /// Radius of each member's wander disk around the reference point.
        deviation: f64,
    },
}

impl MobilityModel {
    /// A zero-motion random waypoint model: attaching it changes nothing
    /// about a run (the golden-trace equivalence anchor).
    pub const STATIC: MobilityModel = MobilityModel::RandomWaypoint {
        speed_min: 0.0,
        speed_max: 0.0,
        pause_secs: 0.0,
    };

    /// Whether the model can never move a node (top speed is zero).
    pub fn is_static(&self) -> bool {
        match *self {
            MobilityModel::RandomWaypoint { speed_max, .. }
            | MobilityModel::Rpgm { speed_max, .. } => speed_max <= 0.0,
        }
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if speeds are not finite with `0 ≤ min ≤ max` (with `min`
    /// strictly positive whenever `max` is), pauses are negative or not
    /// finite, an RPGM group count is zero, or an RPGM deviation is
    /// negative or not finite.
    pub fn validate(&self) {
        let (speed_min, speed_max, pause) = match *self {
            MobilityModel::RandomWaypoint {
                speed_min,
                speed_max,
                pause_secs,
            } => (speed_min, speed_max, pause_secs),
            MobilityModel::Rpgm {
                groups,
                speed_min,
                speed_max,
                pause_secs,
                deviation,
            } => {
                assert!(groups > 0, "RPGM needs at least one group");
                assert!(
                    deviation.is_finite() && deviation >= 0.0,
                    "RPGM deviation must be finite and non-negative, got {deviation}"
                );
                (speed_min, speed_max, pause_secs)
            }
        };
        assert!(
            speed_min.is_finite() && speed_max.is_finite() && speed_min >= 0.0,
            "speeds must be finite and non-negative"
        );
        assert!(
            speed_min <= speed_max,
            "speed_min {speed_min} exceeds speed_max {speed_max}"
        );
        assert!(
            speed_max <= 0.0 || speed_min > 0.0,
            "a moving model needs a strictly positive speed_min \
             (a zero-speed leg would never reach its waypoint)"
        );
        assert!(
            pause.is_finite() && pause >= 0.0,
            "pause must be finite and non-negative, got {pause}"
        );
    }
}

/// One travelling entity's leg state: where it is headed, how fast, and
/// how much of its waypoint pause is left.
#[derive(Debug, Clone, Copy)]
struct Leg {
    target: Point,
    speed: f64,
    pause_left: f64,
}

/// The evolving positions of a mobile node set.
#[derive(Debug, Clone)]
pub struct MobilityState {
    model: MobilityModel,
    /// Radius of the waypoint disk, centered on the origin (the topology
    /// generators are origin-centered).
    radius: f64,
    positions: Vec<Point>,
    rng: SmallRng,
    /// Per-node legs (random waypoint) or per-member wander legs inside
    /// the deviation disk (RPGM). Empty for static models.
    legs: Vec<Leg>,
    /// RPGM only: per-group reference-point legs and positions.
    group_legs: Vec<Leg>,
    group_pos: Vec<Point>,
    /// RPGM only: each member's current offset from its reference point.
    offsets: Vec<Point>,
    /// Scratch move list returned by [`MobilityState::step`].
    moves: Vec<(usize, Point)>,
}

impl MobilityState {
    /// Builds the mobility state over `initial` positions with waypoints
    /// drawn from the disk of radius `radius` around the origin, seeded
    /// with `seed` (the caller derives it from a registered salt stream).
    ///
    /// A static model ([`MobilityModel::is_static`]) performs no draws at
    /// all — construction and every [`MobilityState::step`] are RNG-free.
    ///
    /// # Panics
    ///
    /// Panics on invalid model parameters (see [`MobilityModel::validate`])
    /// or a non-positive/non-finite `radius`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`group_span` slices within `positions`, and `group_of` names one of the `groups` references pushed just before"
    )]
    pub fn new(model: MobilityModel, initial: &[Point], radius: f64, seed: u64) -> Self {
        model.validate();
        assert!(
            radius.is_finite() && radius > 0.0,
            "movement radius must be positive, got {radius}"
        );
        let mut state = MobilityState {
            model,
            radius,
            positions: initial.to_vec(),
            rng: SmallRng::seed_from_u64(seed),
            legs: Vec::new(),
            group_legs: Vec::new(),
            group_pos: Vec::new(),
            offsets: Vec::new(),
            moves: Vec::new(),
        };
        if model.is_static() {
            return state;
        }
        match model {
            MobilityModel::RandomWaypoint { .. } => {
                for _ in 0..state.positions.len() {
                    let leg = Leg {
                        target: sample::uniform_in_disk(&mut state.rng, Point::ORIGIN, radius),
                        speed: draw_speed(&mut state.rng, model),
                        pause_left: 0.0,
                    };
                    state.legs.push(leg);
                }
            }
            MobilityModel::Rpgm {
                groups, deviation, ..
            } => {
                let n = state.positions.len();
                let groups = groups.min(n.max(1));
                // Reference points start at each group's centroid and do a
                // random waypoint walk of their own.
                for g in 0..groups {
                    let (lo, hi) = group_span(n, groups, g);
                    let members = &state.positions[lo..hi];
                    let centroid = centroid(members);
                    state.group_pos.push(centroid);
                    let leg = Leg {
                        target: sample::uniform_in_disk(&mut state.rng, Point::ORIGIN, radius),
                        speed: draw_speed(&mut state.rng, model),
                        pause_left: 0.0,
                    };
                    state.group_legs.push(leg);
                }
                // Members hold their initial offset from the reference and
                // wander toward fresh offset targets inside the deviation
                // disk.
                for (i, p) in state.positions.iter().enumerate() {
                    let g = group_of(n, groups, i);
                    let offset = Point::new(p.x - state.group_pos[g].x, p.y - state.group_pos[g].y);
                    state.offsets.push(offset);
                    let leg = Leg {
                        target: sample::uniform_in_disk(&mut state.rng, Point::ORIGIN, deviation),
                        speed: draw_speed(&mut state.rng, model),
                        pause_left: 0.0,
                    };
                    state.legs.push(leg);
                }
            }
        }
        state
    }

    /// The movement model in force.
    pub fn model(&self) -> MobilityModel {
        self.model
    }

    /// Whether this state can never produce a move.
    pub fn is_static(&self) -> bool {
        self.model.is_static()
    }

    /// The current node positions.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Advances every node by `dt_secs` of model time and returns the
    /// nodes that moved as `(node index, new position)` pairs in ascending
    /// index order. Static models (and non-positive `dt_secs`) return an
    /// empty slice without touching the RNG.
    #[expect(
        clippy::indexing_slicing,
        reason = "`legs`/`offsets` are sized to `positions` and `group_legs` to `group_pos` at construction and never resized, so every index in `step` is in bounds by invariant"
    )]
    pub fn step(&mut self, dt_secs: f64) -> &[(usize, Point)] {
        self.moves.clear();
        if self.model.is_static() || dt_secs <= 0.0 || dt_secs.is_nan() {
            return &self.moves;
        }
        match self.model {
            MobilityModel::RandomWaypoint { pause_secs, .. } => {
                for i in 0..self.positions.len() {
                    let mut pos = self.positions[i];
                    advance_leg(
                        &mut pos,
                        &mut self.legs[i],
                        dt_secs,
                        pause_secs,
                        self.radius,
                        self.model,
                        &mut self.rng,
                    );
                    if pos.distance_squared(self.positions[i]) > 0.0 {
                        self.positions[i] = pos;
                        self.moves.push((i, pos));
                    }
                }
            }
            MobilityModel::Rpgm {
                pause_secs,
                deviation,
                ..
            } => {
                let n = self.positions.len();
                let groups = self.group_pos.len();
                // Group references move first (ascending group id), then
                // members wander inside the deviation disk — one fixed draw
                // order, so trajectories are reproducible.
                for g in 0..groups {
                    let mut pos = self.group_pos[g];
                    advance_leg(
                        &mut pos,
                        &mut self.group_legs[g],
                        dt_secs,
                        pause_secs,
                        self.radius,
                        self.model,
                        &mut self.rng,
                    );
                    self.group_pos[g] = pos;
                }
                for i in 0..n {
                    let g = group_of(n, groups, i);
                    let mut offset = self.offsets[i];
                    advance_leg(
                        &mut offset,
                        &mut self.legs[i],
                        dt_secs,
                        pause_secs,
                        deviation,
                        self.model,
                        &mut self.rng,
                    );
                    self.offsets[i] = offset;
                    let pos = Point::new(
                        self.group_pos[g].x + offset.x,
                        self.group_pos[g].y + offset.y,
                    );
                    if pos.distance_squared(self.positions[i]) > 0.0 {
                        self.positions[i] = pos;
                        self.moves.push((i, pos));
                    }
                }
            }
        }
        &self.moves
    }

    /// The radius of the smallest origin-centered disk containing every
    /// position, floored at `min_radius` — the movement domain a caller
    /// derives from an origin-centered topology.
    ///
    /// # Panics
    ///
    /// Panics if `min_radius` is non-positive or not finite.
    pub fn field_radius(positions: &[Point], min_radius: f64) -> f64 {
        assert!(
            min_radius.is_finite() && min_radius > 0.0,
            "min_radius must be positive, got {min_radius}"
        );
        positions
            .iter()
            .map(|p| Point::ORIGIN.distance(*p))
            .fold(min_radius, f64::max)
    }
}

/// Advances one travelling entity by `dt`: consume pause, travel toward
/// the target, and on arrival pause and redraw the next leg (target from
/// the disk of radius `disk` around the origin, speed from the model).
fn advance_leg(
    pos: &mut Point,
    leg: &mut Leg,
    dt: f64,
    pause_secs: f64,
    disk: f64,
    model: MobilityModel,
    rng: &mut SmallRng,
) {
    let mut remaining = dt;
    // Each loop iteration consumes pause or travel time, so it terminates:
    // zero-length legs (disk = 0 under RPGM deviation 0) redraw at most
    // once per iteration but still consume the pause, and validate()
    // guarantees a strictly positive speed for moving models.
    while remaining > 0.0 {
        if leg.pause_left > 0.0 {
            let consumed = leg.pause_left.min(remaining);
            leg.pause_left -= consumed;
            remaining -= consumed;
            continue;
        }
        let dist = pos.distance(leg.target);
        let reachable = leg.speed * remaining;
        if dist <= reachable {
            // Arrive, pause, and draw the next leg.
            let travel = if leg.speed > 0.0 {
                dist / leg.speed
            } else {
                0.0
            };
            remaining -= travel;
            *pos = leg.target;
            leg.pause_left = pause_secs;
            leg.target = sample::uniform_in_disk(rng, Point::ORIGIN, disk);
            leg.speed = draw_speed(rng, model);
            if pause_secs <= 0.0 && disk <= 0.0 {
                // Degenerate zero-radius disk with no pause: the entity is
                // pinned at the origin; stop instead of spinning.
                break;
            }
        } else {
            *pos = pos.offset(pos.heading_to(leg.target), reachable);
            remaining = 0.0;
        }
    }
}

/// Draws a uniform speed from the model's `[speed_min, speed_max]` band.
fn draw_speed(rng: &mut SmallRng, model: MobilityModel) -> f64 {
    let (lo, hi) = match model {
        MobilityModel::RandomWaypoint {
            speed_min,
            speed_max,
            ..
        }
        | MobilityModel::Rpgm {
            speed_min,
            speed_max,
            ..
        } => (speed_min, speed_max),
    };
    if hi <= lo {
        return lo;
    }
    rng.random_range(lo..=hi)
}

/// The contiguous id block `[lo, hi)` of group `g`.
fn group_span(n: usize, groups: usize, g: usize) -> (usize, usize) {
    (g * n / groups, (g + 1) * n / groups)
}

/// The group owning node `i` under the contiguous-block split: the
/// largest `g` with `group_span(..).0 ≤ i`, i.e. the exact inverse of
/// `group_span` (`floor(g·n/G) ≤ i ⟺ g·n < (i+1)·G`).
fn group_of(n: usize, groups: usize, i: usize) -> usize {
    (((i + 1) * groups - 1) / n.max(1)).min(groups - 1)
}

/// Centroid of a point set (origin for an empty set).
fn centroid(points: &[Point]) -> Point {
    if points.is_empty() {
        return Point::ORIGIN;
    }
    let (sx, sy) = points
        .iter()
        .fold((0.0f64, 0.0f64), |(sx, sy), p| (sx + p.x, sy + p.y));
    let n = points.len() as f64;
    Point::new(sx / n, sy / n)
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact results are what these tests pin")]
mod tests {
    use super::*;

    fn square(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i % 4) as f64 * 0.5, (i / 4) as f64 * 0.5))
            .collect()
    }

    fn rwp(min: f64, max: f64, pause: f64) -> MobilityModel {
        MobilityModel::RandomWaypoint {
            speed_min: min,
            speed_max: max,
            pause_secs: pause,
        }
    }

    #[test]
    fn static_model_never_moves_and_never_draws() {
        let init = square(8);
        let mut a = MobilityState::new(MobilityModel::STATIC, &init, 3.0, 7);
        let mut b = MobilityState::new(MobilityModel::STATIC, &init, 3.0, 7);
        for _ in 0..50 {
            assert!(a.step(0.01).is_empty());
        }
        // The RNG was never touched: both states draw the same first value
        // afterwards.
        assert_eq!(a.positions(), init.as_slice());
        let x: u64 = a.rng.random();
        let y: u64 = b.rng.random();
        assert_eq!(x, y, "static stepping consumed RNG draws");
    }

    #[test]
    fn trajectories_are_reproducible() {
        let init = square(10);
        let model = rwp(0.5, 2.0, 0.1);
        let mut a = MobilityState::new(model, &init, 3.0, 42);
        let mut b = MobilityState::new(model, &init, 3.0, 42);
        for _ in 0..200 {
            assert_eq!(a.step(0.02), b.step(0.02));
        }
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn different_seeds_diverge() {
        let init = square(10);
        let model = rwp(0.5, 2.0, 0.0);
        let mut a = MobilityState::new(model, &init, 3.0, 1);
        let mut b = MobilityState::new(model, &init, 3.0, 2);
        for _ in 0..100 {
            a.step(0.05);
            b.step(0.05);
        }
        assert_ne!(a.positions(), b.positions());
    }

    #[test]
    fn nodes_stay_near_the_waypoint_disk() {
        // Waypoints live in the disk; a straight line between two interior
        // points never leaves it, so positions are bounded by the radius
        // (plus the initial layout).
        let init = square(12);
        let radius = MobilityState::field_radius(&init, 3.0);
        let mut state = MobilityState::new(rwp(1.0, 4.0, 0.05), &init, radius, 9);
        for _ in 0..500 {
            state.step(0.05);
            for p in state.positions() {
                assert!(
                    Point::ORIGIN.distance(*p) <= radius + 1e-9,
                    "node escaped the movement disk: {p:?}"
                );
            }
        }
    }

    #[test]
    fn moves_report_exactly_the_changed_nodes() {
        let init = square(6);
        let mut state = MobilityState::new(rwp(1.0, 1.0, 0.0), &init, 3.0, 3);
        let before = state.positions().to_vec();
        let moves: Vec<(usize, Point)> = state.step(0.1).to_vec();
        for (i, (idx, pos)) in moves.iter().enumerate() {
            assert_eq!(state.positions()[*idx], *pos);
            if i > 0 {
                assert!(moves[i - 1].0 < *idx, "moves must ascend by index");
            }
        }
        let moved: Vec<usize> = moves.iter().map(|m| m.0).collect();
        for (i, b) in before.iter().enumerate() {
            let changed = state.positions()[i].distance_squared(*b) > 0.0;
            assert_eq!(changed, moved.contains(&i), "node {i}");
        }
    }

    #[test]
    fn rpgm_members_stay_within_deviation_of_reference() {
        let init = square(12);
        let model = MobilityModel::Rpgm {
            groups: 3,
            speed_min: 0.5,
            speed_max: 2.0,
            pause_secs: 0.0,
            deviation: 0.4,
        };
        let mut state = MobilityState::new(model, &init, 3.0, 11);
        for _ in 0..300 {
            state.step(0.05);
        }
        let n = init.len();
        for i in 0..n {
            let g = group_of(n, 3, i);
            let d = state.group_pos[g].distance(state.positions()[i]);
            assert!(d <= 0.4 + 1e-9, "member {i} strayed {d} from its group");
        }
    }

    #[test]
    fn rpgm_groups_move_coherently() {
        // With zero deviation, members converge onto their group's
        // reference point and then travel as one: after the wander
        // transient, every member of a group is collocated with the
        // reference, and the reference itself keeps moving.
        let init = square(8);
        let model = MobilityModel::Rpgm {
            groups: 2,
            speed_min: 1.0,
            speed_max: 1.0,
            pause_secs: 0.0,
            deviation: 0.0,
        };
        let mut state = MobilityState::new(model, &init, 3.0, 5);
        // Long enough for every initial offset (≤ a few units) to collapse
        // into the zero-radius deviation disk at speed 1.
        for _ in 0..100 {
            state.step(0.05);
        }
        let n = init.len();
        for i in 0..n {
            let g = group_of(n, 2, i);
            let d = state.group_pos[g].distance(state.positions()[i]);
            assert!(d < 1e-9, "member {i} is {d} off its reference point");
        }
        let snapshot = state.group_pos.clone();
        for _ in 0..20 {
            state.step(0.05);
        }
        for (g, snap) in snapshot.iter().enumerate() {
            assert!(
                state.group_pos[g].distance(*snap) > 0.0,
                "group {g} reference stopped moving"
            );
        }
    }

    #[test]
    fn group_partition_covers_all_nodes() {
        for n in 1..20usize {
            for groups in 1..=n {
                let mut seen = vec![false; n];
                for g in 0..groups {
                    let (lo, hi) = group_span(n, groups, g);
                    for (i, slot) in seen.iter_mut().enumerate().take(hi).skip(lo) {
                        assert!(!*slot);
                        *slot = true;
                        assert_eq!(group_of(n, groups, i), g);
                    }
                }
                assert!(seen.iter().all(|&s| s));
            }
        }
    }

    #[test]
    fn field_radius_floors_at_minimum() {
        assert_eq!(MobilityState::field_radius(&[], 2.0), 2.0);
        let r = MobilityState::field_radius(&[Point::new(5.0, 0.0)], 2.0);
        assert!((r - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "speed_min")]
    fn inverted_speed_band_rejected() {
        MobilityState::new(rwp(2.0, 1.0, 0.0), &square(2), 3.0, 0);
    }

    #[test]
    #[should_panic(expected = "strictly positive speed_min")]
    fn zero_min_with_positive_max_rejected() {
        MobilityState::new(rwp(0.0, 2.0, 0.0), &square(2), 3.0, 0);
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_rejected() {
        let model = MobilityModel::Rpgm {
            groups: 0,
            speed_min: 1.0,
            speed_max: 1.0,
            pause_secs: 0.0,
            deviation: 0.1,
        };
        MobilityState::new(model, &square(4), 3.0, 0);
    }
}
