//! Runtime invariant auditing for the event loop.
//!
//! An [`Auditor`] observes every event the [`Simulation`](crate::Simulation)
//! dispatches and panics the moment an invariant is violated, so a broken
//! run dies at the first corrupt state instead of producing subtly wrong
//! statistics. Auditors are installed with
//! [`Simulation::add_auditor`](crate::Simulation::add_auditor). The hooks
//! are compiled into every build; whether any auditor (or a
//! [`Probe`](crate::probe::Probe)) is attached is decided once per
//! [`Simulation::try_run_until`](crate::Simulation::try_run_until) call, so
//! a run with none attached executes a loop without the hooks.
//!
//! This module ships the world-agnostic [`CausalityAuditor`];
//! protocol-aware auditors (NAV consistency, transceiver legality, airtime
//! conservation) live with the world types they inspect, in `dirca-net`.

use crate::{Scheduler, SimTime, World};

/// Observes the event loop for invariant violations.
///
/// All hooks default to no-ops so an auditor only implements the ones it
/// needs. Implementations signal a violation by panicking with a message
/// prefixed `audit[<name>]:`.
pub trait Auditor<W: World>: std::fmt::Debug {
    /// Called with the event about to be dispatched, before the world sees
    /// it. `now` is already the event's timestamp.
    fn before_event(&mut self, now: SimTime, event: &W::Event, world: &W) {
        let _ = (now, event, world);
    }

    /// Called after the world handled the event (and possibly scheduled
    /// follow-ups).
    fn after_event(&mut self, now: SimTime, world: &W, sched: &Scheduler<W::Event>) {
        let _ = (now, world, sched);
    }

    /// Called once from [`Simulation::finish_audit`](crate::Simulation::finish_audit)
    /// so auditors can check whole-run conservation laws.
    fn finish(&mut self, now: SimTime, world: &W) {
        let _ = (now, world);
    }
}

/// Checks event-queue causality: the clock never moves backwards and no
/// pending event ever lies in the past.
///
/// The [`Scheduler`] already panics on
/// `schedule_at` into the past; this auditor additionally catches clock or
/// queue corruption introduced through any other path (a broken queue
/// ordering, a world that tampers with timestamps).
#[derive(Debug, Default)]
pub struct CausalityAuditor {
    last: Option<SimTime>,
}

impl CausalityAuditor {
    /// Creates the auditor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<W: World> Auditor<W> for CausalityAuditor {
    fn before_event(&mut self, now: SimTime, _event: &W::Event, _world: &W) {
        if let Some(last) = self.last {
            assert!(
                now >= last,
                "audit[causality]: clock moved backwards: event at {now} dispatched after {last}"
            );
        }
        self.last = Some(now);
    }

    fn after_event(&mut self, now: SimTime, _world: &W, sched: &Scheduler<W::Event>) {
        if let Some(next) = sched.next_event_time() {
            assert!(
                next >= now,
                "audit[causality]: pending event at {next} lies in the past of {now}"
            );
        }
    }
}
