//! Dispatch-loop probes.
//!
//! A [`Probe`] is the observability twin of the
//! [`Auditor`](crate::audit::Auditor): an object hooked into
//! [`crate::Simulation`]'s dispatch immediately around `World::handle`.
//! Where auditors *check* invariants and panic, probes *measure* —
//! perfbench's traced run installs one to time per-event-class dispatch,
//! and higher layers can observe event flow without touching the world.
//!
//! The hooks are compiled into every build. Whether a probe or an auditor
//! is attached is decided once per [`crate::Simulation::try_run_until`]
//! call, which then runs a loop monomorphised with or without the hooks,
//! so a run with neither attached pays no per-event hook check.
//!
//! Probes receive the event by shared reference before it is handled and a
//! plain tick afterwards; they cannot schedule, mutate the world, or draw
//! randomness, so an installed probe can never perturb the simulation —
//! only slow it down.

use crate::{SimTime, World};

/// An observer hooked around every event dispatch.
///
/// Both hooks default to no-ops so implementations override only what they
/// measure.
pub trait Probe<W: World>: std::fmt::Debug {
    /// Called after the clock advances to `now`, immediately before the
    /// world handles `event`.
    fn before_event(&mut self, now: SimTime, event: &W::Event) {
        let _ = (now, event);
    }

    /// Called immediately after the world handled the event dispatched at
    /// `now`.
    fn after_event(&mut self, now: SimTime) {
        let _ = now;
    }
}
