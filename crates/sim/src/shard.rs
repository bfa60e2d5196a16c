//! Sharded, conservative-window parallel event loop.
//!
//! The classic [`crate::Simulation`] dispatches one global event queue on
//! one thread. This module partitions a world into *shards*, each with its
//! own [`Scheduler`] — the same queue-and-clock type the classic engine
//! hands to [`crate::World::handle`], so one world implementation can be
//! driven by either engine — and advances them all through a sequence of
//! conservative lookahead windows:
//!
//! 1. The next window starts at `T`, the minimum pending-event time over
//!    all shards, and spans `[T, T + lookahead)`. Every worker computes
//!    the same window from the minima published at the last barrier; no
//!    leader decides it.
//! 2. Every shard processes its own events inside the window with no
//!    locking at all — the lookahead is chosen (by the caller) so that no
//!    event processed in a window can schedule a *cross-shard* event
//!    inside that same window. For a radio network the natural choice is
//!    the minimum propagation delay: a frame transmitted at `t` cannot
//!    touch another node before `t + delay`.
//! 3. Cross-shard events are posted into per-`(src, dst)` mailboxes and
//!    merged into the destination queues at the window barrier, always in
//!    ascending source-shard order and in emission order within a source.
//!
//! Because the window sequence, the per-shard processing order, and the
//! mailbox merge order are all pure functions of the event content — never
//! of thread timing — a run is **byte-identical at any worker count**,
//! including one. Workers only change how the fixed shard set is mapped
//! onto OS threads.
//!
//! The watchdog is enforced at window granularity: budgets are checked
//! between windows against the aggregated event count, so an abort may
//! land a few events later than the classic engine's per-event check, but
//! it lands at the same window on every worker count.
//!
//! # Example
//!
//! ```
//! use dirca_sim::{ShardCtx, ShardWorld, ShardedSimulation, SimDuration, SimTime};
//!
//! /// Each shard counts its events and forwards one to the next shard.
//! struct Relay { shard: u32, seen: u32 }
//!
//! impl ShardWorld for Relay {
//!     type Event = u32;
//!     fn handle(&mut self, now: SimTime, hops: u32, ctx: &mut ShardCtx<'_, u32>) {
//!         self.seen += 1;
//!         if hops > 0 {
//!             let dst = (self.shard + 1) % 2;
//!             // Cross-shard events must clear the lookahead window.
//!             ctx.outbox.send(dst, now + SimDuration::from_micros(1), hops - 1);
//!         }
//!     }
//! }
//!
//! let worlds = vec![Relay { shard: 0, seen: 0 }, Relay { shard: 1, seen: 0 }];
//! let mut sim = ShardedSimulation::new(worlds, SimDuration::from_micros(1));
//! sim.shard_parts_mut(0).1.sched.schedule_at(SimTime::ZERO, 4);
//! sim.run_until(SimTime::from_millis(1), 2);
//! assert_eq!(sim.world(0).seen + sim.world(1).seen, 5);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::{AbortReason, RunAborted, Scheduler, SimDuration, SimTime, Watchdog};

/// A world partitioned across shards: the per-shard state acted upon by
/// events, with cross-shard effects routed through an [`Outbox`].
///
/// Implementations must uphold the lookahead contract: an event handled at
/// `now` may only send cross-shard events firing at
/// `now + lookahead` or later (local events carry no such restriction).
/// The driver `debug_assert`s the contract on every posted message.
pub trait ShardWorld: Send {
    /// The event type processed by this world.
    type Event: Send;

    /// Handles one event at simulated instant `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, ctx: &mut ShardCtx<'_, Self::Event>);
}

/// Per-shard scheduling context handed to [`ShardWorld::handle`]: the
/// shard's own queue plus the outbox for cross-shard messages.
#[derive(Debug)]
pub struct ShardCtx<'a, E> {
    /// The shard's local scheduler (its clock and event queue) — the same
    /// [`Scheduler`] type the classic engine hands to [`crate::World`].
    pub sched: &'a mut Scheduler<E>,
    /// Cross-shard message rows, merged at the next window barrier.
    pub outbox: &'a mut Outbox<E>,
}

/// Cross-shard message rows: one emission-ordered row per destination
/// shard, posted to the mailboxes at the end of each window.
#[derive(Debug)]
pub struct Outbox<E> {
    rows: Vec<Vec<(SimTime, E)>>,
}

impl<E> Outbox<E> {
    fn new(shards: usize) -> Self {
        Outbox {
            rows: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    /// Sends `event` to shard `dst`, to fire at absolute instant `at`.
    ///
    /// `at` must satisfy the lookahead contract (`at ≥ now + lookahead`);
    /// the driver `debug_assert`s it when the row is published.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a valid shard index.
    pub fn send(&mut self, dst: u32, at: SimTime, event: E) {
        self.rows
            .get_mut(dst as usize)
            .expect("destination shard out of range")
            .push((at, event));
    }

    /// Number of shards this outbox can address.
    pub fn shard_count(&self) -> usize {
        self.rows.len()
    }
}

/// One cross-shard mailbox lane: timestamped events from one source shard
/// to one destination shard, merged at the window barrier.
type MailboxLane<E> = Mutex<Vec<(SimTime, E)>>;

/// A worker's dealt hand of shards, each tagged with its global index.
type ShardGroup<W> = Vec<(usize, ShardCell<W>)>;

/// One shard: its world slice, queue, and message buffers.
struct ShardCell<W: ShardWorld> {
    world: W,
    sched: Scheduler<W::Event>,
    outbox: Outbox<W::Event>,
    /// Reusable drain buffer swapped against the mailboxes, so the merge
    /// allocates nothing in steady state.
    inbox: Vec<(SimTime, W::Event)>,
}

/// A sharded discrete-event simulation: a fixed set of [`ShardWorld`]s
/// advanced in lockstep through conservative lookahead windows.
///
/// The shard count is fixed at construction and fully determines the
/// execution (window sequence, merge order); the worker count passed to
/// [`ShardedSimulation::run_until`] only maps shards onto threads and can
/// vary freely without changing a single byte of the outcome.
pub struct ShardedSimulation<W: ShardWorld> {
    shards: Vec<ShardCell<W>>,
    lookahead: SimDuration,
    watchdog: Option<Watchdog>,
    processed: u64,
    now: SimTime,
}

impl<W: ShardWorld> ShardedSimulation<W> {
    /// Creates a simulation over `worlds` (one per shard) with the given
    /// conservative lookahead.
    ///
    /// # Panics
    ///
    /// Panics if `worlds` is empty or `lookahead` is zero — a zero window
    /// cannot make progress.
    pub fn new(worlds: Vec<W>, lookahead: SimDuration) -> Self {
        assert!(!worlds.is_empty(), "a sharded simulation needs ≥ 1 shard");
        assert!(
            lookahead > SimDuration::ZERO,
            "lookahead must be positive; zero windows cannot advance"
        );
        let shards = worlds.len();
        ShardedSimulation {
            shards: worlds
                .into_iter()
                .map(|world| ShardCell {
                    world,
                    sched: Scheduler::new(),
                    outbox: Outbox::new(shards),
                    inbox: Vec::new(),
                })
                .collect(),
            lookahead,
            watchdog: None,
            processed: 0,
            now: SimTime::ZERO,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The conservative lookahead window width.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Installs (or clears) the runaway watchdog, checked between windows.
    pub fn set_watchdog(&mut self, watchdog: Option<Watchdog>) {
        self.watchdog = watchdog;
    }

    /// The installed watchdog, if any.
    pub fn watchdog(&self) -> Option<Watchdog> {
        self.watchdog
    }

    /// Read access to shard `shard`'s world.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn world(&self, shard: usize) -> &W {
        &self.shards.get(shard).expect("shard out of range").world
    }

    /// Mutable access to shard `shard`'s world.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn world_mut(&mut self, shard: usize) -> &mut W {
        &mut self
            .shards
            .get_mut(shard)
            .expect("shard out of range")
            .world
    }

    /// Iterates over all shard worlds in shard order.
    pub fn worlds(&self) -> impl Iterator<Item = &W> {
        self.shards.iter().map(|cell| &cell.world)
    }

    /// Mutably iterates over all shard worlds in shard order.
    pub fn worlds_mut(&mut self) -> impl Iterator<Item = &mut W> {
        self.shards.iter_mut().map(|cell| &mut cell.world)
    }

    /// Simultaneous access to shard `shard`'s world and a full scheduling
    /// context — for priming initial events before the first run.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_parts_mut(&mut self, shard: usize) -> (&mut W, ShardCtx<'_, W::Event>) {
        let cell = self.shards.get_mut(shard).expect("shard out of range");
        (
            &mut cell.world,
            ShardCtx {
                sched: &mut cell.sched,
                outbox: &mut cell.outbox,
            },
        )
    }

    /// The global simulated instant (the deadline of the last completed
    /// run, or the last window start on an aborted one).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far, summed over all shards.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Consumes the simulation, returning the shard worlds in shard order.
    pub fn into_worlds(self) -> Vec<W> {
        self.shards.into_iter().map(|cell| cell.world).collect()
    }

    /// Runs windows until every queue is empty or the next window would
    /// start after `deadline`. Events exactly at `deadline` are processed.
    /// `workers` threads execute the fixed shard set; the outcome is
    /// byte-identical for every `workers ≥ 1`. Returns the number of
    /// events processed by this call.
    ///
    /// # Panics
    ///
    /// Panics if an installed [`Watchdog`] budget trips, or if a shard's
    /// event handler panics.
    pub fn run_until(&mut self, deadline: SimTime, workers: usize) -> u64 {
        self.try_run_until(deadline, workers)
            .unwrap_or_else(|abort| panic!("{abort}"))
    }

    /// Like [`ShardedSimulation::run_until`], but a tripped [`Watchdog`]
    /// budget returns a structured [`RunAborted`] instead of panicking.
    ///
    /// Budgets are checked between windows, so `events` may exceed
    /// `max_events` by up to one window's worth of dispatches; `now`
    /// reports the start of the window that was about to open.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or a shard's event handler panics.
    pub fn try_run_until(&mut self, deadline: SimTime, workers: usize) -> Result<u64, RunAborted> {
        assert!(workers > 0, "need at least one worker");
        let shards = self.shards.len();
        let workers = workers.min(shards);
        let before = self.processed;

        let mins: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect();
        let mailboxes: Vec<MailboxLane<W::Event>> = (0..shards * shards)
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        let processed = AtomicU64::new(self.processed);
        let snapshot = AtomicU64::new(self.processed);
        let barrier = SpinBarrier::new(workers);
        let shared = Shared {
            shards,
            lookahead: self.lookahead.as_nanos(),
            deadline: deadline.as_nanos(),
            watchdog: self.watchdog,
            mins: &mins,
            mailboxes: &mailboxes,
            processed: &processed,
            snapshot: &snapshot,
            barrier: &barrier,
        };

        // Deal shards round-robin onto workers; the mapping is irrelevant
        // to the outcome, only to load balance.
        let mut groups: Vec<ShardGroup<W>> = (0..workers).map(|_| Vec::new()).collect();
        for (idx, cell) in self.shards.drain(..).enumerate() {
            groups
                .get_mut(idx % workers)
                .expect("group index bounded by worker count")
                .push((idx, cell));
        }

        let results: Vec<(ShardGroup<W>, Result<(), RunAborted>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .into_iter()
                .enumerate()
                .map(|(worker, mut group)| {
                    let shared = &shared;
                    scope.spawn(move || {
                        // A panicking handler must not strand siblings at
                        // the barrier: poison it, let them panic too, and
                        // re-raise the original payload.
                        match catch_unwind(AssertUnwindSafe(|| {
                            let verdict = worker_loop(&mut group, worker == 0, shared);
                            (group, verdict)
                        })) {
                            Ok(outcome) => outcome,
                            Err(payload) => {
                                shared.barrier.poison();
                                resume_unwind(payload);
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });

        // Reassemble the shard set in index order and adopt the (identical)
        // verdict every worker computed.
        let mut slots: Vec<Option<ShardCell<W>>> = (0..shards).map(|_| None).collect();
        let mut verdict = Ok(());
        for (group, result) in results {
            for (idx, cell) in group {
                *slots.get_mut(idx).expect("shard index in range") = Some(cell);
            }
            if result.is_err() {
                verdict = result;
            }
        }
        self.shards = slots
            .into_iter()
            .map(|slot| slot.expect("every shard is returned by exactly one worker"))
            .collect();
        self.processed = processed.load(Ordering::Acquire);

        match verdict {
            Ok(()) => {
                if deadline != SimTime::MAX {
                    for cell in &mut self.shards {
                        cell.sched.now = deadline;
                    }
                    self.now = deadline;
                } else {
                    self.now = self
                        .shards
                        .iter()
                        .map(|cell| cell.sched.now)
                        .max()
                        .unwrap_or(self.now);
                }
                Ok(self.processed - before)
            }
            Err(abort) => {
                self.now = abort.now;
                Err(abort)
            }
        }
    }
}

/// Coordination state shared by every worker of one `try_run_until` call.
struct Shared<'a, E> {
    shards: usize,
    lookahead: u64,
    deadline: u64,
    watchdog: Option<Watchdog>,
    /// Per-shard earliest pending event time in nanos (`u64::MAX` = empty),
    /// republished at every window barrier.
    mins: &'a [AtomicU64],
    /// `shards × shards` message cells, row-major by source shard.
    mailboxes: &'a [Mutex<Vec<(SimTime, E)>>],
    processed: &'a AtomicU64,
    /// Barrier-stable copy of `processed`, written only by the leader
    /// worker inside the phase-B critical region. Watchdog decisions read
    /// this — never `processed` directly, whose in-window `fetch_add`s
    /// race with a slower worker's window-start check and would let
    /// workers disagree on whether to abort (deadlocking the barrier).
    snapshot: &'a AtomicU64,
    barrier: &'a SpinBarrier,
}

/// One worker's window loop over its owned shards. Every worker computes
/// the identical window sequence from the shared published minima, so the
/// loop needs no leader.
fn worker_loop<W: ShardWorld>(
    group: &mut [(usize, ShardCell<W>)],
    leader: bool,
    sh: &Shared<'_, W::Event>,
) -> Result<(), RunAborted> {
    // Round zero: flush messages posted while priming (before any window
    // ran), then publish initial minima, so the first window start sees
    // every shard's true earliest event.
    for (idx, cell) in group.iter_mut() {
        publish_outbox(*idx, &mut cell.outbox, sh, 0);
    }
    sh.barrier.wait();
    for (idx, cell) in group.iter_mut() {
        drain_inboxes(*idx, cell, sh);
    }
    sh.barrier.wait();

    loop {
        // All published minima are stable between barriers, so every worker
        // derives the same window start — and the same exit decision.
        let start = sh
            .mins
            .iter()
            .map(|m| m.load(Ordering::Acquire))
            .min()
            .unwrap_or(u64::MAX);
        if start == u64::MAX || start > sh.deadline {
            return Ok(());
        }
        if let Some(w) = sh.watchdog {
            let events = sh.snapshot.load(Ordering::Acquire);
            if events >= w.max_events {
                return Err(RunAborted {
                    reason: AbortReason::MaxEvents,
                    events,
                    now: SimTime::from_nanos(start),
                });
            }
            if start > w.max_sim_time.as_nanos() {
                return Err(RunAborted {
                    reason: AbortReason::MaxSimTime,
                    events,
                    now: SimTime::from_nanos(start),
                });
            }
        }
        // Inclusive window end: strictly inside the lookahead horizon and
        // never past the run deadline.
        let hi = (start.saturating_add(sh.lookahead) - 1).min(sh.deadline);

        let mut dispatched = 0u64;
        for (idx, cell) in group.iter_mut() {
            let ShardCell {
                world,
                sched,
                outbox,
                ..
            } = cell;
            loop {
                match sched.queue.peek_time() {
                    Some(t) if t.as_nanos() <= hi => {}
                    _ => break,
                }
                // panic-path: the peek above guarantees the queue is
                // non-empty and nothing between peek and pop touches it.
                let (time, event) = sched.queue.pop().expect("peeked event vanished");
                debug_assert!(time >= sched.now, "shard queue went backwards");
                sched.now = time;
                world.handle(time, event, &mut ShardCtx { sched, outbox });
                dispatched += 1;
            }
            publish_outbox(*idx, outbox, sh, hi);
        }
        if dispatched > 0 {
            sh.processed.fetch_add(dispatched, Ordering::AcqRel);
        }
        sh.barrier.wait();
        for (idx, cell) in group.iter_mut() {
            drain_inboxes(*idx, cell, sh);
        }
        // Inside the barriers no fetch_add can be in flight, so the leader
        // can take a stable snapshot every worker will agree on at the next
        // window-start watchdog check.
        if leader {
            sh.snapshot
                .store(sh.processed.load(Ordering::Acquire), Ordering::Release);
        }
        sh.barrier.wait();
    }
}

/// Moves a shard's outbox rows into the shared mailboxes.
fn publish_outbox<E>(src: usize, outbox: &mut Outbox<E>, sh: &Shared<'_, E>, window_hi: u64) {
    for (dst, row) in outbox.rows.iter_mut().enumerate() {
        if row.is_empty() {
            continue;
        }
        debug_assert!(
            row.iter().all(|(at, _)| at.as_nanos() > window_hi),
            "cross-shard event violates the lookahead contract"
        );
        sh.mailboxes
            .get(src * sh.shards + dst)
            .expect("mailbox grid sized shards × shards")
            .lock()
            .expect("mailbox mutex poisoned")
            .append(row);
    }
}

/// Merges every source shard's pending messages into `cell`'s queue — in
/// ascending source order, preserving emission order within a source — and
/// republishes the shard's minimum.
fn drain_inboxes<W: ShardWorld>(idx: usize, cell: &mut ShardCell<W>, sh: &Shared<'_, W::Event>) {
    for src in 0..sh.shards {
        {
            let mut guard = sh
                .mailboxes
                .get(src * sh.shards + idx)
                .expect("mailbox grid sized shards × shards")
                .lock()
                .expect("mailbox mutex poisoned");
            std::mem::swap(&mut *guard, &mut cell.inbox);
        }
        for (at, event) in cell.inbox.drain(..) {
            cell.sched.queue.push(at, event);
        }
    }
    let min = cell
        .sched
        .queue
        .peek_time()
        .map_or(u64::MAX, SimTime::as_nanos);
    sh.mins
        .get(idx)
        .expect("minima sized to shard count")
        .store(min, Ordering::Release);
}

/// A sense-reversing spin barrier.
///
/// The window loop crosses a barrier roughly twice per microsecond of
/// simulated time; `std::sync::Barrier` parks threads through the OS and
/// costs microseconds per crossing, which would erase the parallel win
/// entirely. Spinning costs ~100 ns and the workers have nothing better to
/// do inside a window anyway; a yield fallback keeps oversubscribed hosts
/// (more workers than cores) from starving the worker everyone waits on.
struct SpinBarrier {
    total: usize,
    count: AtomicUsize,
    generation: AtomicU64,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        SpinBarrier {
            total,
            count: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Marks the barrier dead; spinners panic instead of waiting forever
    /// for a worker that will never arrive.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn wait(&self) {
        if self.total == 1 {
            return;
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // Last arriver: reset the count for the next phase, then open
            // the gate. The release on `generation` publishes the reset.
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if self.poisoned.load(Ordering::Relaxed) {
                    panic!("a sibling shard worker panicked");
                }
                // Pure spinning starves the sibling when workers outnumber
                // cores (it must finish its window before the gate opens);
                // after a short burst, hand the core over instead.
                if spins < 64 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Logs (time, label) pairs and relays hops to a neighbouring shard
    /// after the lookahead.
    struct Logger {
        shard: u32,
        shards: u32,
        log: Vec<(SimTime, u32)>,
    }

    const LA: SimDuration = SimDuration::from_micros(1);

    impl ShardWorld for Logger {
        type Event = u32;
        fn handle(&mut self, now: SimTime, hops: u32, ctx: &mut ShardCtx<'_, u32>) {
            self.log.push((now, hops));
            if hops > 0 {
                let dst = (self.shard + 1) % self.shards;
                if dst == self.shard {
                    ctx.sched.schedule_in(LA, hops - 1);
                } else {
                    ctx.outbox.send(dst, now + LA, hops - 1);
                }
            }
        }
    }

    fn logger_sim(shards: u32) -> ShardedSimulation<Logger> {
        let worlds = (0..shards)
            .map(|shard| Logger {
                shard,
                shards,
                log: Vec::new(),
            })
            .collect();
        ShardedSimulation::new(worlds, LA)
    }

    fn run_logged(shards: u32, workers: usize) -> Vec<Vec<(SimTime, u32)>> {
        let mut sim = logger_sim(shards);
        sim.shard_parts_mut(0)
            .1
            .sched
            .schedule_at(SimTime::from_nanos(5), 10);
        sim.run_until(SimTime::from_millis(1), workers);
        sim.worlds().map(|w| w.log.clone()).collect()
    }

    #[test]
    fn relay_crosses_shards() {
        let logs = run_logged(4, 1);
        let total: usize = logs.iter().map(Vec::len).sum();
        assert_eq!(total, 11, "10 hops + the initial event");
        // Hops land one lookahead apart, round-robin across shards.
        assert_eq!(logs[0][0], (SimTime::from_nanos(5), 10));
        assert_eq!(logs[1][0], (SimTime::from_nanos(1_005), 9));
        assert_eq!(logs[2][0], (SimTime::from_nanos(2_005), 8));
    }

    #[test]
    fn identical_at_any_worker_count() {
        let one = run_logged(4, 1);
        let two = run_logged(4, 2);
        let four = run_logged(4, 4);
        let eight = run_logged(4, 8); // clamped to the shard count
        assert_eq!(one, two);
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn single_shard_self_relay_works() {
        let logs = run_logged(1, 1);
        assert_eq!(logs[0].len(), 11);
    }

    #[test]
    fn deadline_is_inclusive_and_clock_lands_on_it() {
        let mut sim = logger_sim(2);
        sim.shard_parts_mut(0)
            .1
            .sched
            .schedule_at(SimTime::from_nanos(100), 0);
        let n = sim.run_until(SimTime::from_nanos(100), 2);
        assert_eq!(n, 1, "an event exactly at the deadline is processed");
        assert_eq!(sim.now(), SimTime::from_nanos(100));
    }

    #[test]
    fn events_past_deadline_stay_queued() {
        let mut sim = logger_sim(2);
        sim.shard_parts_mut(0)
            .1
            .sched
            .schedule_at(SimTime::from_nanos(5), 3);
        // The third hop fires at 2005 ns, past this deadline.
        let n = sim.run_until(SimTime::from_nanos(1_500), 2);
        assert_eq!(n, 2);
        // Resume picks it up without loss.
        let n = sim.run_until(SimTime::from_millis(1), 2);
        assert_eq!(n, 2);
        assert_eq!(sim.events_processed(), 4);
    }

    #[test]
    fn window_skipping_jumps_gaps() {
        // Two events a second apart: the loop must not grind through a
        // million empty windows (it would time out if it did — this test
        // finishing at all is the assertion, plus both events land).
        let mut sim = logger_sim(2);
        {
            let (_, ctx) = sim.shard_parts_mut(0);
            ctx.sched.schedule_at(SimTime::from_nanos(1), 0);
            ctx.sched.schedule_at(SimTime::from_secs(1), 0);
        }
        let n = sim.run_until(SimTime::from_secs(2), 2);
        assert_eq!(n, 2);
    }

    #[test]
    fn priming_outbox_is_flushed() {
        // A cross-shard message posted before the first window (e.g. while
        // priming) must still be delivered.
        let mut sim = logger_sim(2);
        {
            let (_, ctx) = sim.shard_parts_mut(0);
            ctx.outbox.send(1, SimTime::from_micros(5), 0);
        }
        let n = sim.run_until(SimTime::from_millis(1), 2);
        assert_eq!(n, 1);
        assert_eq!(sim.world(1).log, vec![(SimTime::from_micros(5), 0)]);
    }

    /// A world that reschedules itself forever.
    struct Runaway;

    impl ShardWorld for Runaway {
        type Event = ();
        fn handle(&mut self, _now: SimTime, _event: (), ctx: &mut ShardCtx<'_, ()>) {
            ctx.sched.schedule_in(SimDuration::from_nanos(1), ());
        }
    }

    #[test]
    fn watchdog_event_budget_aborts_runaway() {
        let mut sim = ShardedSimulation::new(vec![Runaway, Runaway], LA);
        sim.set_watchdog(Some(Watchdog::max_events(5_000)));
        sim.shard_parts_mut(0)
            .1
            .sched
            .schedule_at(SimTime::ZERO, ());
        let abort = sim
            .try_run_until(SimTime::MAX, 2)
            .expect_err("a runaway world must trip the event budget");
        assert_eq!(abort.reason, AbortReason::MaxEvents);
        // Window granularity: the budget trips at a window boundary, so the
        // count may overshoot by at most one window's dispatches.
        assert!(abort.events >= 5_000);
        assert_eq!(abort.events, sim.events_processed());
    }

    #[test]
    fn watchdog_sim_time_ceiling_aborts() {
        let mut sim = ShardedSimulation::new(vec![Runaway, Runaway], LA);
        sim.set_watchdog(Some(Watchdog::max_sim_time(SimTime::from_micros(50))));
        sim.shard_parts_mut(0)
            .1
            .sched
            .schedule_at(SimTime::ZERO, ());
        let abort = sim
            .try_run_until(SimTime::MAX, 2)
            .expect_err("the clock must hit the ceiling");
        assert_eq!(abort.reason, AbortReason::MaxSimTime);
        assert!(abort.now > SimTime::from_micros(50));
    }

    #[test]
    fn watchdog_abort_is_worker_count_invariant() {
        let run = |workers: usize| {
            let mut sim = ShardedSimulation::new(vec![Runaway, Runaway, Runaway, Runaway], LA);
            sim.set_watchdog(Some(Watchdog::max_events(3_000)));
            sim.shard_parts_mut(0)
                .1
                .sched
                .schedule_at(SimTime::ZERO, ());
            sim.shard_parts_mut(2)
                .1
                .sched
                .schedule_at(SimTime::from_nanos(3), ());
            sim.try_run_until(SimTime::MAX, workers)
                .expect_err("runaway")
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
    }

    /// Panics on the third event.
    struct Bomb {
        fuse: u32,
    }

    impl ShardWorld for Bomb {
        type Event = ();
        fn handle(&mut self, _now: SimTime, _event: (), ctx: &mut ShardCtx<'_, ()>) {
            self.fuse += 1;
            assert!(self.fuse < 3, "bomb went off");
            ctx.sched.schedule_in(SimDuration::from_nanos(1), ());
        }
    }

    #[test]
    #[should_panic(expected = "shard worker panicked")]
    fn handler_panic_releases_siblings() {
        // The sibling worker owns a runaway shard: without barrier
        // poisoning it would spin forever and this test would hang rather
        // than panic.
        let mut sim = ShardedSimulation::new(
            vec![
                ShardPair::Bomb(Bomb { fuse: 0 }),
                ShardPair::Runaway(Runaway),
            ],
            LA,
        );
        sim.shard_parts_mut(0)
            .1
            .sched
            .schedule_at(SimTime::ZERO, ());
        sim.shard_parts_mut(1)
            .1
            .sched
            .schedule_at(SimTime::ZERO, ());
        sim.run_until(SimTime::MAX, 2);
    }

    /// Two-variant world so one sharded sim can mix a bomb and a runaway.
    enum ShardPair {
        Bomb(Bomb),
        Runaway(Runaway),
    }

    impl ShardWorld for ShardPair {
        type Event = ();
        fn handle(&mut self, now: SimTime, event: (), ctx: &mut ShardCtx<'_, ()>) {
            match self {
                ShardPair::Bomb(b) => b.handle(now, event, ctx),
                ShardPair::Runaway(r) => r.handle(now, event, ctx),
            }
        }
    }

    #[test]
    fn into_worlds_returns_all_shards_in_order() {
        let mut sim = logger_sim(3);
        sim.shard_parts_mut(0).1.sched.schedule_at(SimTime::ZERO, 2);
        sim.run_until(SimTime::from_millis(1), 3);
        let worlds = sim.into_worlds();
        assert_eq!(worlds.len(), 3);
        assert_eq!(
            worlds.iter().map(|w| w.shard).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    #[should_panic(expected = "lookahead must be positive")]
    fn zero_lookahead_rejected() {
        let _ = ShardedSimulation::new(vec![Runaway], SimDuration::ZERO);
    }
}
