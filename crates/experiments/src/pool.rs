//! Deterministic fork-join helper for experiment sweeps.
//!
//! Experiment cells fan independent per-topology simulations out over a
//! small thread pool. Aggregating floating-point summaries in
//! thread-completion order would make the final statistics depend on the
//! scheduler (f64 addition is not associative), so workers deposit results
//! into pre-sized per-index slots and the caller reads them out in index
//! order — results are byte-identical for any `threads` value.
//!
//! Each index has its own slot lock, so workers writing different results
//! never contend with each other, and each job runs under
//! [`catch_unwind`]: one panicking cell is reported as a failed index
//! instead of poisoning its slot and crashing the whole sweep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `job(i)` for every `i in 0..count` across up to `threads` workers
/// and returns per-index outcomes in index order, independent of thread
/// scheduling. A panicking job yields `Err` with its panic payload as
/// text; the remaining indices still run to completion.
///
/// Jobs must not leave shared state half-mutated when they panic: the
/// callers here hand each job read-only experiment parameters and collect
/// pure results, which is what makes the unwind boundary sound.
pub(crate) fn parallel_indexed_catch<T, F>(
    count: usize,
    threads: usize,
    job: F,
) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, count.max(1));
    let next = AtomicUsize::new(0);
    // One slot per index: each is written exactly once, by whichever worker
    // claimed that index, so the per-slot locks are uncontended.
    let slots: Vec<Mutex<Option<Result<T, String>>>> =
        (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| job(i))).map_err(panic_message);
                // The store itself cannot panic (the job already ran), so
                // the slot lock is never poisoned.
                *slots[i].lock().expect("slot writer never panics mid-store") = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot writer never panics mid-store")
                .expect("every index below count is claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::parallel_indexed_catch;

    /// The values of a run in which no job panicked.
    fn values<T>(outcomes: Vec<Result<T, String>>) -> Vec<T> {
        outcomes
            .into_iter()
            .map(|outcome| outcome.expect("no job panics"))
            .collect()
    }

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 8] {
            let got = values(parallel_indexed_catch(100, threads, |i| i * i));
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn zero_count_yields_empty() {
        let got: Vec<Result<u32, _>> = parallel_indexed_catch(0, 4, |_| unreachable!("no work"));
        assert!(got.is_empty());
    }

    #[test]
    fn large_fanout_fills_every_slot_in_order() {
        let got = values(parallel_indexed_catch(1000, 8, |i| i));
        assert_eq!(got.len(), 1000);
        assert!(got.iter().enumerate().all(|(want, &i)| i == want));
    }

    #[test]
    fn non_clone_results_are_moved_through_slots() {
        // Results only need `Send`: the slots move values, never clone them.
        struct NotClone(usize);
        let got = values(parallel_indexed_catch(10, 3, NotClone));
        assert!(got.iter().enumerate().all(|(want, v)| v.0 == want));
    }

    #[test]
    fn panicking_index_is_isolated() {
        for threads in [1, 2, 8] {
            let got = parallel_indexed_catch(10, threads, |i| {
                assert!(i != 4, "index four is cursed");
                i * 10
            });
            assert_eq!(got.len(), 10);
            for (i, outcome) in got.iter().enumerate() {
                if i == 4 {
                    let message = outcome.as_ref().expect_err("index 4 must fail");
                    assert!(message.contains("cursed"), "{message}");
                } else {
                    assert_eq!(*outcome.as_ref().expect("healthy index"), i * 10);
                }
            }
        }
    }

    #[test]
    fn all_indices_can_fail_without_crashing() {
        let got: Vec<Result<(), _>> = parallel_indexed_catch(5, 2, |i| panic!("boom {i}"));
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, r)| r.as_ref().is_err_and(|m| *m == format!("boom {i}"))));
    }

    #[test]
    fn string_panic_payloads_are_captured() {
        let got: Vec<Result<(), _>> =
            parallel_indexed_catch(1, 1, |_| std::panic::panic_any("plain str".to_owned()));
        assert_eq!(got[0].as_ref().unwrap_err(), "plain str");
    }
}
