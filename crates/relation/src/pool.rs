//! The one worker pool of ocdd-relation and ocdd-core: [`par_map`] on
//! scoped threads.
//!
//! CSV ingest scans row chunks and encodes columns through it, and the
//! column reduction of `ocdd-core` runs its pair passes on it. It is the
//! only place in this crate that spawns threads (the crate's `clippy.toml`
//! holds every other module to that).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Inputs of fewer cells than this are encoded on one worker: on them,
/// starting and joining a second thread costs about as much as it saves,
/// or more. Timed as `read_csv_str` of integer CSVs (values below 100) on
/// one and on two threads, best of 50 runs on a 2-vCPU x86-64 host, two
/// rounds, with the scan storing integer fields as `i64`s and integer
/// columns ranked by counting: one thread won at 1,920 cells (64 × 30:
/// 89–152 against 168–172 µs), two threads at 30,720 (1,024 × 30: 586–634
/// against 845–850 µs), and at 7,680 and 12,300 cells (256 and 410 × 30)
/// each won one round, so the crossover stays inside run-to-run noise.
pub(crate) const SERIAL_CELLS: usize = 10_000;

/// CSV text shorter than this is read on one worker: [`SERIAL_CELLS`] at
/// about 4 bytes a cell, separator included (the timed inputs took 3).
pub(crate) const SERIAL_CSV_BYTES: usize = 4 * SERIAL_CELLS;

/// The worker count of an ingest: one for an input below the cut-off
/// (see [`SERIAL_CELLS`]), otherwise the number of threads the host can
/// run at once. Ingest does not depend on it for its result.
pub(crate) fn ingest_threads(tiny: bool) -> usize {
    if tiny {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// An item waiting for its worker, or the result that replaced it.
enum Slot<T, R> {
    Todo(T),
    Done(R),
}

/// Map `f` over `items` on up to `threads` scoped threads, returning the
/// results in input order — the vector `items.iter().map(f).collect()`
/// builds.
///
/// The calling thread is one of the workers, so a map on `k` workers
/// spawns `k − 1` threads. Items are handed out one at a time, so one
/// costly item keeps one worker busy while the others drain the rest.
/// Each item is dropped as soon as its result is in, which frees what it
/// owns before the map ends. An item whose worker panics is recomputed on
/// the calling thread once every worker is done, so no result is ever
/// lost; a second panic there propagates.
// The pool is the crate's one sanctioned spawn site: its recompute-on-panic
// owns the lifecycle of every worker it starts.
#[allow(clippy::disallowed_methods)]
pub fn par_map<T: Send, R: Send>(
    items: Vec<T>,
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.into_iter().map(|item| f(&item)).collect();
    }
    let slots: Vec<Mutex<Slot<T, R>>> = items
        .into_iter()
        .map(|item| Mutex::new(Slot::Todo(item)))
        .collect();
    let next = AtomicUsize::new(0);
    // lint: allow(atomics-audit, the RMW hands each index out once under any ordering; each slot's mutex and the join publish the results)
    let claim = || next.fetch_add(1, Ordering::Relaxed);
    let work = || {
        while let Some(slot) = slots.get(claim()) {
            // Each index is claimed once, so the lock is never contended;
            // a panic in `f` leaves the item in place for the retry.
            let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
            if let Slot::Todo(item) = &*slot {
                let result = f(item);
                *slot = Slot::Done(result);
            }
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        // A dead worker's claimed item stays `Todo`; catching the calling
        // thread's panic and joining the others keeps it from the caller.
        let _ = catch_unwind(AssertUnwindSafe(work));
        for handle in handles {
            let _ = handle.join();
        }
    });
    slots
        .into_iter()
        .map(
            |slot| match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Slot::Done(result) => result,
                Slot::Todo(item) => f(&item),
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    #[test]
    fn par_map_keeps_input_order_and_recovers_dead_chunks() {
        let items: Vec<u64> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for threads in [0, 1, 2, 4, 200] {
            assert_eq!(
                par_map(items.clone(), threads, |x| x * 3),
                expected,
                "{threads}"
            );
        }
        // The first call for item 7 panics on its worker thread; the item
        // is recomputed on the calling thread and the result is complete.
        let first = AtomicBool::new(true);
        let out = par_map(items, 4, |&x| {
            if x == 7 && first.swap(false, Ordering::SeqCst) {
                panic!("injected worker death");
            }
            x * 3
        });
        assert_eq!(out, expected);
    }

    #[test]
    // The test's deadline only bounds a broken pool's wait; it reads the
    // clock directly because relation cannot call core's `runtime::now`.
    #[allow(clippy::disallowed_methods)]
    fn one_costly_item_does_not_hold_up_the_rest() {
        // Item 0 runs until every other item is done. Dealing items one at
        // a time lets the second worker drain them all meanwhile; a worker
        // holding a contiguous share would leave its share waiting behind
        // item 0, which then gives up at the deadline.
        let items: Vec<usize> = (0..64).collect();
        let done = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(20);
        let out = par_map(items, 2, |&i| {
            if i == 0 {
                while done.load(Ordering::SeqCst) < 63 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return done.load(Ordering::SeqCst);
            }
            done.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(out[0], 63, "the cheap items finished while item 0 ran");
        assert_eq!(out[1..], (1..64).collect::<Vec<_>>()[..]);
    }
}
