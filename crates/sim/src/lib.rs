//! A deterministic discrete-event simulation engine.
//!
//! This crate is the reproduction's substitute for the GloMoSim/Parsec
//! simulation kernel used in the paper. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer-nanosecond clock with no
//!   floating-point drift.
//! * [`EventQueue`] — a stable priority queue: events at equal timestamps
//!   pop in scheduling (FIFO) order, which keeps runs reproducible.
//! * [`Simulation`] — the event loop driving a user-provided [`World`],
//!   with an optional [`Watchdog`] that turns runaway runs into structured
//!   [`RunAborted`] results.
//! * [`rng`] — seed derivation for independent, reproducible random streams.
//! * [`TimerSlot`] — generation-counter timers with O(1) logical
//!   cancellation.
//!
//! # Example
//!
//! ```
//! use dirca_sim::{Simulation, SimDuration, SimTime, World, Scheduler};
//!
//! struct Counter { fired: u32 }
//!
//! #[derive(Debug)]
//! enum Ev { Tick }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, _now: SimTime, _ev: Ev, sched: &mut Scheduler<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             sched.schedule_in(SimDuration::from_micros(10), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.scheduler_mut().schedule_in(SimDuration::ZERO, Ev::Tick);
//! sim.run_until(SimTime::from_micros(1_000));
//! assert_eq!(sim.world().fired, 3);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// The engine never indexes unchecked: feasible here, so gate it.
#![warn(clippy::indexing_slicing)]

mod engine;
mod queue;
mod time;
mod timer;

pub mod audit;
pub mod probe;
pub mod rng;

pub use engine::{AbortReason, RunAborted, Scheduler, Simulation, Watchdog, World};
pub use queue::EventQueue;
pub use time::{SimDuration, SimTime};
pub use timer::{TimerGeneration, TimerSlot};
