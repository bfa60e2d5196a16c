//! The dispatch-timing probe of the per-layer run.
//!
//! It stamps `Instant::now()` around every `World::handle` call and books
//! the elapsed time and a count under the event's class. The probe only
//! observes, so an attached probe leaves simulated outputs unchanged; the
//! per-layer run checks that by digesting its traced operations like the
//! untraced ones.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use dirca_net::{NetEvent, NetWorld};
use dirca_sim::probe::Probe;
use dirca_sim::SimTime;

/// Event classes in report order (the names `NetEvent::class` returns).
pub const CLASSES: [&str; 6] = [
    "wave_start",
    "wave_end",
    "tx_end",
    "mac_timer",
    "arrival",
    "mobility_epoch",
];

/// Per-class dispatch count and total dispatch time.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClassTotals {
    pub count: [u64; CLASSES.len()],
    pub nanos: [u64; CLASSES.len()],
}

#[derive(Debug)]
pub struct DispatchProfiler {
    totals: Rc<RefCell<ClassTotals>>,
    inflight: Option<(usize, Instant)>,
}

impl DispatchProfiler {
    /// A profiler booking into `totals`.
    pub fn new(totals: Rc<RefCell<ClassTotals>>) -> Self {
        DispatchProfiler {
            totals,
            inflight: None,
        }
    }
}

impl Probe<NetWorld> for DispatchProfiler {
    fn before_event(&mut self, _now: SimTime, event: &NetEvent) {
        let class = event.class();
        let index = CLASSES
            .iter()
            .position(|c| *c == class)
            .expect("every NetEvent class is listed in CLASSES");
        self.inflight = Some((index, Instant::now()));
    }

    fn after_event(&mut self, _now: SimTime) {
        if let Some((index, start)) = self.inflight.take() {
            let nanos = start.elapsed().as_nanos() as u64;
            let mut totals = self.totals.borrow_mut();
            totals.count[index] += 1;
            totals.nanos[index] += nanos;
        }
    }
}
