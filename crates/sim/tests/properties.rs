//! Property tests of the simulation substrate.

use std::collections::BTreeMap;

use dirca_sim::{rng::derive_seed, EventQueue, SimDuration, SimTime, TimerSlot};
use proptest::prelude::*;

proptest! {
    #[test]
    fn queue_pop_order_matches_stable_sort(times in prop::collection::vec(0u64..1000, 0..200)) {
        // Popping must yield events ordered by (time, insertion index) —
        // i.e. a stable sort of the input by timestamp.
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
        expected.sort_by_key(|&(t, _)| t); // stable: preserves insertion order
        let mut got = Vec::new();
        while let Some((t, i)) = q.pop() {
            got.push((t.as_nanos(), i));
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn queue_interleaved_operations_never_go_backwards(
        ops in prop::collection::vec((0u64..1000, prop::bool::ANY), 1..200),
    ) {
        // Under arbitrary interleavings of pushes and pops, popped
        // timestamps are non-decreasing as long as every push is >= the
        // last popped time (which we enforce by construction, mimicking a
        // scheduler that never schedules into the past).
        let mut q = EventQueue::new();
        let mut last_popped = 0u64;
        for (delay, do_pop) in ops {
            q.push(SimTime::from_nanos(last_popped + delay), ());
            if do_pop {
                if let Some((t, ())) = q.pop() {
                    prop_assert!(t.as_nanos() >= last_popped);
                    last_popped = t.as_nanos();
                }
            }
        }
        while let Some((t, ())) = q.pop() {
            prop_assert!(t.as_nanos() >= last_popped);
            last_popped = t.as_nanos();
        }
    }

    #[test]
    fn queue_matches_an_ordered_map_under_monotone_interleavings(
        ops in prop::collection::vec((0u8..7, 0u64..1_000_000_000), 1..400),
    ) {
        // Differential check against a `BTreeMap` keyed by (time, push
        // index): every pop must return the model's first entry, and the
        // peeked time must be the model's before every pop. Pushes are
        // monotone (never below the last pop), with many equal timestamps
        // and jumps to just below `SimTime::MAX`.
        let mut q = EventQueue::new();
        let mut model = BTreeMap::new();
        let mut last = 0u64;
        for (i, (op, raw)) in ops.into_iter().enumerate() {
            let at = match op {
                0 | 1 => None,
                2 => Some(last),
                3 => Some(last.saturating_add(raw % 3)),
                4 => Some(last.saturating_add(raw % 1_000)),
                5 => Some(last.saturating_add(raw)),
                _ => Some((u64::MAX - raw % 16).max(last)),
            };
            if let Some(t) = at {
                q.push(SimTime::from_nanos(t), i);
                model.insert((t, i), i);
            } else {
                let want = model.pop_first();
                prop_assert_eq!(q.peek_time(), want.map(|((t, _), _)| SimTime::from_nanos(t)));
                let got = q.pop();
                prop_assert_eq!(got, want.map(|((t, _), v)| (SimTime::from_nanos(t), v)));
                if let Some((t, _)) = got {
                    last = t.as_nanos();
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        while let Some(((t, _), v)) = model.pop_first() {
            prop_assert_eq!(q.peek_time(), Some(SimTime::from_nanos(t)));
            prop_assert_eq!(q.pop(), Some((SimTime::from_nanos(t), v)));
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.pop(), None);
    }

    #[test]
    fn time_arithmetic_is_consistent(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let d = SimDuration::from_nanos(b);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d).duration_since(t), d);
        prop_assert_eq!((t + d).saturating_duration_since(t + d + d), SimDuration::ZERO);
    }

    #[test]
    fn derive_seed_has_no_cheap_collisions(
        master in 0u64..1000,
        s1 in 0u64..1000,
        s2 in 0u64..1000,
    ) {
        if s1 != s2 {
            prop_assert_ne!(derive_seed(master, s1), derive_seed(master, s2));
        }
    }

    #[test]
    fn timer_slot_accepts_only_latest_generation(arms in 1usize..50, fire_at in 0usize..50) {
        let mut slot = TimerSlot::new();
        let mut tokens = Vec::new();
        for _ in 0..arms {
            tokens.push(slot.arm());
        }
        let idx = fire_at % tokens.len();
        let fired = slot.fires(tokens[idx]);
        prop_assert_eq!(fired, idx == tokens.len() - 1, "only the newest arming may fire");
    }
}
