//! The event loop.

// Transmit hot path: every indexing and `expect` site panics on a broken
// invariant, so each carries an `#[expect]` on its fn saying which one.
#![deny(clippy::indexing_slicing, clippy::expect_used)]

use std::fmt;

use crate::{EventQueue, SimDuration, SimTime};

/// Runaway-run guard: hard budgets on a simulation's total event count and
/// simulated clock, enforced by [`Simulation::try_run_until`].
///
/// A stuck world (a zero-delay event loop, a pathological retry storm)
/// never drains its queue and never passes its deadline; the watchdog
/// bounds such a run and turns it into a structured [`RunAborted`] the
/// caller can report instead of spinning forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    /// Maximum events the simulation may dispatch over its whole lifetime
    /// (not per `run_until` call).
    pub max_events: u64,
    /// Latest simulated instant an event may fire at.
    pub max_sim_time: SimTime,
}

impl Watchdog {
    /// A watchdog bounding only the lifetime event count.
    pub fn max_events(limit: u64) -> Self {
        Watchdog {
            max_events: limit,
            max_sim_time: SimTime::MAX,
        }
    }

    /// A watchdog bounding only the simulated clock.
    pub fn max_sim_time(limit: SimTime) -> Self {
        Watchdog {
            max_events: u64::MAX,
            max_sim_time: limit,
        }
    }
}

/// Which [`Watchdog`] budget a run exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The lifetime event budget was spent.
    MaxEvents,
    /// The next event would fire past the simulated-time ceiling.
    MaxSimTime,
}

/// Structured report of a run terminated by its [`Watchdog`].
///
/// The simulation is left in a consistent state — the offending event is
/// still queued, the clock reads the last dispatched instant — so state can
/// be inspected post-mortem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunAborted {
    /// Which budget tripped.
    pub reason: AbortReason,
    /// Events dispatched when the guard tripped.
    pub events: u64,
    /// Simulated clock at the trip.
    pub now: SimTime,
}

impl fmt::Display for RunAborted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reason {
            AbortReason::MaxEvents => write!(
                f,
                "watchdog: event budget exhausted after {} events at {}",
                self.events, self.now
            ),
            AbortReason::MaxSimTime => write!(
                f,
                "watchdog: simulated-time ceiling hit at {} after {} events",
                self.now, self.events
            ),
        }
    }
}

impl std::error::Error for RunAborted {}

/// A simulated world: the state acted upon by events.
///
/// Implementations define an event type and a handler; the handler may
/// schedule further events through the [`Scheduler`].
pub trait World {
    /// The event type processed by this world.
    type Event;

    /// Handles one event at simulated instant `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Schedules future events; passed to [`World::handle`] and available from
/// the [`Simulation`] for priming initial events.
#[derive(Debug)]
pub struct Scheduler<E> {
    pub(crate) queue: EventQueue<E>,
    pub(crate) now: SimTime,
}

impl<E> Scheduler<E> {
    pub(crate) fn new() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Reserves queue room for at least `additional` more pending events.
    ///
    /// Worlds that know their steady-state event population (e.g. nodes ×
    /// per-handshake event count) call this while priming so the queue
    /// never re-grows on the hot path.
    pub fn reserve(&mut self, additional: usize) {
        self.queue.reserve(additional);
    }

    /// Schedules `event` at absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current instant — scheduling into
    /// the past would silently corrupt causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {now}",
            now = self.now
        );
        self.queue.push(at, event);
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }
}

/// A discrete-event simulation: a [`World`] plus the event loop state.
///
/// See the crate-level example for usage.
#[derive(Debug)]
pub struct Simulation<W: World> {
    world: W,
    scheduler: Scheduler<W::Event>,
    processed: u64,
    watchdog: Option<Watchdog>,
    auditors: Vec<Box<dyn crate::audit::Auditor<W>>>,
    probe: Option<Box<dyn crate::probe::Probe<W>>>,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation over `world` with an empty event queue at time
    /// zero.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            scheduler: Scheduler::new(),
            processed: 0,
            watchdog: None,
            auditors: Vec::new(),
            probe: None,
        }
    }

    /// Installs (or clears) the runaway watchdog checked by
    /// [`Simulation::try_run_until`].
    pub fn set_watchdog(&mut self, watchdog: Option<Watchdog>) {
        self.watchdog = watchdog;
    }

    /// The installed watchdog, if any.
    pub fn watchdog(&self) -> Option<Watchdog> {
        self.watchdog
    }

    /// Installs a runtime invariant auditor; it observes every event
    /// dispatched from now on and panics on the first violation.
    pub fn add_auditor(&mut self, auditor: Box<dyn crate::audit::Auditor<W>>) {
        self.auditors.push(auditor);
    }

    /// Runs every installed auditor's end-of-run check (whole-run
    /// conservation laws). Call after the last `run_until`.
    pub fn finish_audit(&mut self) {
        let now = self.scheduler.now;
        for auditor in &mut self.auditors {
            auditor.finish(now, &self.world);
        }
    }

    /// Installs (or clears) the dispatch-loop probe; it observes every
    /// event dispatched from now on.
    pub fn set_probe(&mut self, probe: Option<Box<dyn crate::probe::Probe<W>>>) {
        self.probe = probe;
    }

    /// Read access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// The scheduler, for priming initial events.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<W::Event> {
        &mut self.scheduler
    }

    /// Simultaneous mutable access to the world and the scheduler, for
    /// initialization code that must mutate the world while scheduling its
    /// first events.
    pub fn world_and_scheduler_mut(&mut self) -> (&mut W, &mut Scheduler<W::Event>) {
        (&mut self.world, &mut self.scheduler)
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.scheduler.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Consumes the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Runs until the queue empties or the next event would fire after
    /// `deadline`. Events exactly at `deadline` are processed. Returns the
    /// number of events processed by this call.
    ///
    /// On return the clock reads `deadline` if the run was cut short by it,
    /// or the time of the last processed event if the queue drained first.
    /// The clock never moves back: a `deadline` before it leaves it as is,
    /// so nothing can be scheduled below an event already dispatched.
    ///
    /// # Panics
    ///
    /// Panics if an installed [`Watchdog`] budget trips; use
    /// [`Simulation::try_run_until`] to handle the abort as a value.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.try_run_until(deadline)
            .unwrap_or_else(|abort| panic!("{abort}"))
    }

    /// Like [`Simulation::run_until`], but stops with a structured
    /// [`RunAborted`] when an installed [`Watchdog`] budget trips instead of
    /// panicking. Without a watchdog this never returns `Err`.
    ///
    /// On abort the offending event is left in the queue and the clock
    /// reads the last dispatched instant, so the world remains inspectable.
    pub fn try_run_until(&mut self, deadline: SimTime) -> Result<u64, RunAborted> {
        // Auditors and the probe can only change through `&mut self`
        // between calls, so whether anything observes the loop is decided
        // once here, not per event.
        if self.probe.is_some() || !self.auditors.is_empty() {
            self.run_loop::<true>(deadline)
        } else {
            self.run_loop::<false>(deadline)
        }
    }

    /// The body of [`Simulation::try_run_until`], monomorphised over
    /// whether an auditor or a probe is attached.
    #[expect(
        clippy::expect_used,
        reason = "a successful peek guarantees the queue is non-empty, and nothing between the peek and this pop touches it"
    )]
    fn run_loop<const OBSERVED: bool>(&mut self, deadline: SimTime) -> Result<u64, RunAborted> {
        let before = self.processed;
        while let Some(t) = self.scheduler.queue.peek_time() {
            if t > deadline {
                self.scheduler.now = self.scheduler.now.max(deadline);
                return Ok(self.processed - before);
            }
            if let Some(w) = self.watchdog {
                let reason = if self.processed >= w.max_events {
                    Some(AbortReason::MaxEvents)
                } else if t > w.max_sim_time {
                    Some(AbortReason::MaxSimTime)
                } else {
                    None
                };
                if let Some(reason) = reason {
                    return Err(RunAborted {
                        reason,
                        events: self.processed,
                        now: self.scheduler.now,
                    });
                }
            }
            let (time, event) = self.scheduler.queue.pop().expect("peeked event vanished");
            debug_assert!(time >= self.scheduler.now, "event queue went backwards");
            self.dispatch::<OBSERVED>(time, event);
        }
        if deadline != SimTime::MAX {
            self.scheduler.now = self.scheduler.now.max(deadline);
        }
        Ok(self.processed - before)
    }

    /// Runs until the event queue is empty.
    ///
    /// Prefer [`Simulation::run_until`] for worlds that reschedule
    /// unconditionally (e.g. saturated traffic sources), which never drain.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Processes at most one event; returns its timestamp, or `None` if the
    /// queue was empty.
    pub fn step(&mut self) -> Option<SimTime> {
        let (time, event) = self.scheduler.queue.pop()?;
        // One event: the observed body's own checks are the choice.
        self.dispatch::<true>(time, event);
        Some(time)
    }

    /// Advances the clock to `time` and hands `event` to the world; when
    /// `OBSERVED`, runs the auditor and probe hooks around the dispatch.
    fn dispatch<const OBSERVED: bool>(&mut self, time: SimTime, event: W::Event) {
        self.scheduler.now = time;
        if OBSERVED {
            for auditor in &mut self.auditors {
                auditor.before_event(time, &event, &self.world);
            }
            if let Some(probe) = &mut self.probe {
                probe.before_event(time, &event);
            }
        }
        self.world.handle(time, event, &mut self.scheduler);
        self.processed += 1;
        if OBSERVED {
            if let Some(probe) = &mut self.probe {
                probe.after_event(time);
            }
            for auditor in &mut self.auditors {
                auditor.after_event(time, &self.world, &self.scheduler);
            }
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "the probe and auditor counters share a cell with the test that reads them"
)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;
    use crate::audit::Auditor;
    use crate::probe::Probe;

    /// Records (time, label) pairs; `Spawn` events fan out two `Leaf` events.
    struct Recorder {
        log: Vec<(SimTime, &'static str)>,
    }

    enum Ev {
        Spawn,
        Leaf(&'static str),
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
            match event {
                Ev::Spawn => {
                    self.log.push((now, "spawn"));
                    sched.schedule_in(SimDuration::from_nanos(10), Ev::Leaf("a"));
                    sched.schedule_in(SimDuration::from_nanos(10), Ev::Leaf("b"));
                }
                Ev::Leaf(l) => self.log.push((now, l)),
            }
        }
    }

    #[test]
    fn events_fire_in_order_with_fifo_ties() {
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        sim.scheduler_mut()
            .schedule_at(SimTime::from_nanos(5), Ev::Spawn);
        let n = sim.run_to_completion();
        assert_eq!(n, 3);
        assert_eq!(
            sim.world().log,
            vec![
                (SimTime::from_nanos(5), "spawn"),
                (SimTime::from_nanos(15), "a"),
                (SimTime::from_nanos(15), "b"),
            ]
        );
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        sim.scheduler_mut()
            .schedule_at(SimTime::from_nanos(5), Ev::Spawn);
        // Deadline before the leaves fire.
        let n = sim.run_until(SimTime::from_nanos(10));
        assert_eq!(n, 1);
        assert_eq!(sim.now(), SimTime::from_nanos(10));
        assert_eq!(sim.scheduler_mut().pending(), 2);
        // Resume to completion.
        sim.run_until(SimTime::from_nanos(100));
        assert_eq!(sim.world().log.len(), 3);
        assert_eq!(sim.now(), SimTime::from_nanos(100));
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn an_earlier_deadline_never_moves_the_clock_back() {
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        sim.scheduler_mut()
            .schedule_at(SimTime::from_nanos(5), Ev::Spawn);
        sim.run_until(SimTime::from_nanos(12));
        assert_eq!(sim.run_until(SimTime::from_nanos(3)), 0);
        assert_eq!(sim.now(), SimTime::from_nanos(12));
        // Scheduling relative to the clock stays at or after every
        // dispatched event, which the queue requires.
        sim.scheduler_mut()
            .schedule_in(SimDuration::ZERO, Ev::Leaf("now"));
        sim.run_until(SimTime::from_nanos(100));
        assert_eq!(sim.world().log.len(), 4);
    }

    #[test]
    fn deadline_inclusive() {
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        sim.scheduler_mut()
            .schedule_at(SimTime::from_nanos(10), Ev::Leaf("edge"));
        let n = sim.run_until(SimTime::from_nanos(10));
        assert_eq!(n, 1);
    }

    #[test]
    fn step_processes_single_event() {
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        assert_eq!(sim.step(), None);
        sim.scheduler_mut()
            .schedule_at(SimTime::from_nanos(7), Ev::Spawn);
        assert_eq!(sim.step(), Some(SimTime::from_nanos(7)));
        assert_eq!(sim.world().log.len(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        sim.scheduler_mut()
            .schedule_at(SimTime::from_nanos(5), Ev::Spawn);
        sim.run_to_completion();
        sim.scheduler_mut()
            .schedule_at(SimTime::from_nanos(1), Ev::Spawn);
    }

    /// A world that reschedules itself forever: one event per nanosecond.
    struct Runaway;

    impl World for Runaway {
        type Event = ();
        fn handle(&mut self, _now: SimTime, _event: (), sched: &mut Scheduler<()>) {
            sched.schedule_in(SimDuration::from_nanos(1), ());
        }
    }

    #[test]
    fn watchdog_event_budget_aborts_runaway() {
        let mut sim = Simulation::new(Runaway);
        sim.set_watchdog(Some(Watchdog::max_events(1000)));
        sim.scheduler_mut().schedule_at(SimTime::ZERO, ());
        let abort = sim
            .try_run_until(SimTime::MAX)
            .expect_err("a runaway world must trip the event budget");
        assert_eq!(abort.reason, AbortReason::MaxEvents);
        assert_eq!(abort.events, 1000);
        assert_eq!(sim.events_processed(), 1000);
        // The offending event stays queued; the sim is resumable after the
        // budget is raised.
        assert_eq!(sim.scheduler_mut().pending(), 1);
        sim.set_watchdog(Some(Watchdog::max_events(1500)));
        let abort = sim.try_run_until(SimTime::MAX).expect_err("still runaway");
        assert_eq!(abort.events, 1500);
    }

    #[test]
    fn watchdog_sim_time_ceiling_aborts() {
        let mut sim = Simulation::new(Runaway);
        sim.set_watchdog(Some(Watchdog::max_sim_time(SimTime::from_nanos(50))));
        sim.scheduler_mut().schedule_at(SimTime::ZERO, ());
        let abort = sim
            .try_run_until(SimTime::MAX)
            .expect_err("the clock must hit the ceiling");
        assert_eq!(abort.reason, AbortReason::MaxSimTime);
        assert_eq!(abort.now, SimTime::from_nanos(50));
    }

    #[test]
    fn watchdog_within_budget_is_invisible() {
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        sim.set_watchdog(Some(Watchdog::max_events(1_000_000)));
        sim.scheduler_mut()
            .schedule_at(SimTime::from_nanos(5), Ev::Spawn);
        let n = sim
            .try_run_until(SimTime::from_nanos(100))
            .expect("well within budget");
        assert_eq!(n, 3);
        assert_eq!(sim.now(), SimTime::from_nanos(100));
    }

    #[test]
    #[should_panic(expected = "watchdog: event budget exhausted")]
    fn run_until_panics_on_watchdog_trip() {
        let mut sim = Simulation::new(Runaway);
        sim.set_watchdog(Some(Watchdog::max_events(10)));
        sim.scheduler_mut().schedule_at(SimTime::ZERO, ());
        sim.run_until(SimTime::MAX);
    }

    /// Tallies `(before_event, after_event)` hook calls in a shared cell
    /// that outlives the probe.
    #[derive(Debug)]
    struct Counting(Rc<Cell<(u64, u64)>>);

    impl<W: World> Probe<W> for Counting {
        fn before_event(&mut self, _now: SimTime, _event: &W::Event) {
            let (before, after) = self.0.get();
            self.0.set((before + 1, after));
        }

        fn after_event(&mut self, _now: SimTime) {
            let (before, after) = self.0.get();
            self.0.set((before, after + 1));
        }
    }

    /// Tallies `(before_event, after_event, finish)` hook calls in a shared
    /// cell that outlives the auditor.
    #[derive(Debug)]
    struct CountingAuditor(Rc<Cell<(u64, u64, u64)>>);

    impl<W: World> Auditor<W> for CountingAuditor {
        fn before_event(&mut self, _now: SimTime, _event: &W::Event, _world: &W) {
            let (before, after, finish) = self.0.get();
            self.0.set((before + 1, after, finish));
        }

        fn after_event(&mut self, _now: SimTime, _world: &W, _sched: &Scheduler<W::Event>) {
            let (before, after, finish) = self.0.get();
            self.0.set((before, after + 1, finish));
        }

        fn finish(&mut self, _now: SimTime, _world: &W) {
            let (before, after, finish) = self.0.get();
            self.0.set((before, after, finish + 1));
        }
    }

    #[test]
    fn observers_see_every_dispatch_and_perturb_nothing() {
        let run = |probed: bool, audited: bool| {
            let probe_seen = Rc::new(Cell::new((0, 0)));
            let audit_seen = Rc::new(Cell::new((0, 0, 0)));
            let mut sim = Simulation::new(Recorder { log: Vec::new() });
            if probed {
                sim.set_probe(Some(Box::new(Counting(Rc::clone(&probe_seen)))));
            }
            if audited {
                sim.add_auditor(Box::new(CountingAuditor(Rc::clone(&audit_seen))));
            }
            for t in [5, 8, 30] {
                sim.scheduler_mut()
                    .schedule_at(SimTime::from_nanos(t), Ev::Spawn);
            }
            assert_eq!(sim.step(), Some(SimTime::from_nanos(5)));
            sim.run_until(SimTime::from_nanos(20));
            assert_eq!(sim.step(), Some(SimTime::from_nanos(30)));
            sim.run_to_completion();
            sim.finish_audit();
            let n = sim.events_processed();
            if probed {
                assert_eq!(probe_seen.get(), (n, n), "one probe pair per dispatch");
            }
            if audited {
                assert_eq!(audit_seen.get(), (n, n, 1), "one auditor pair per dispatch");
            }
            sim.into_world().log
        };
        let plain = run(false, false);
        assert_eq!(plain.len(), 9);
        for (probed, audited) in [(true, false), (false, true), (true, true)] {
            let observed = run(probed, audited);
            assert_eq!(
                plain, observed,
                "probe {probed}, auditor {audited}: dispatch changed"
            );
        }
    }

    #[test]
    fn watchdog_trips_identically_with_observers_attached() {
        let abort = |probed: bool, audited: bool| {
            let probe_seen = Rc::new(Cell::new((0, 0)));
            let audit_seen = Rc::new(Cell::new((0, 0, 0)));
            let mut sim = Simulation::new(Runaway);
            if probed {
                sim.set_probe(Some(Box::new(Counting(Rc::clone(&probe_seen)))));
            }
            if audited {
                sim.add_auditor(Box::new(CountingAuditor(Rc::clone(&audit_seen))));
            }
            sim.set_watchdog(Some(Watchdog::max_events(1000)));
            sim.scheduler_mut().schedule_at(SimTime::ZERO, ());
            let abort = sim
                .try_run_until(SimTime::MAX)
                .expect_err("a runaway world must trip the event budget");
            if probed {
                assert_eq!(probe_seen.get(), (1000, 1000));
            }
            if audited {
                assert_eq!(audit_seen.get(), (1000, 1000, 0));
            }
            abort
        };
        let plain = abort(false, false);
        assert_eq!(plain.events, 1000);
        for (probed, audited) in [(true, false), (false, true), (true, true)] {
            let observed = abort(probed, audited);
            assert_eq!(
                plain, observed,
                "probe {probed}, auditor {audited}: trip moved"
            );
        }
    }

    #[test]
    fn abort_report_formats_both_reasons() {
        let by_events = RunAborted {
            reason: AbortReason::MaxEvents,
            events: 7,
            now: SimTime::from_nanos(3),
        };
        assert!(by_events.to_string().contains("event budget"));
        let by_time = RunAborted {
            reason: AbortReason::MaxSimTime,
            events: 7,
            now: SimTime::from_nanos(3),
        };
        assert!(by_time.to_string().contains("simulated-time ceiling"));
    }

    #[test]
    fn into_world_returns_state() {
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        sim.scheduler_mut()
            .schedule_at(SimTime::ZERO, Ev::Leaf("x"));
        sim.run_to_completion();
        let w = sim.into_world();
        assert_eq!(w.log.len(), 1);
    }
}
