//! Work-stealing batch scheduler of the level-synchronous search driver
//! (one worker under `Sequential`, `k` under
//! [`crate::config::ParallelMode::WorkStealing`]).
//!
//! The unit of scheduling is a **batch**: all candidates of one BFS level
//! that share the same sort-key prefix (the `X` of the single OCD check
//! `XY → YX`, Theorem 4.1). Batches are dealt round-robin onto one deque
//! per worker in canonical level order; a worker pops from the *front* of
//! its own deque (preserving the canonical order it was dealt) and, when
//! empty, steals from the *back* of a victim's deque — the classic
//! Chase–Lev discipline, hand-rolled over mutexes because the workspace is
//! dependency-free. Each deque's mutex is touched once per batch (tens of
//! checks), never per check, so contention is off the hot path by
//! construction.
//!
//! Scheduling is *not* part of the result: batches are executed
//! speculatively and the driver re-imposes canonical candidate order (and
//! replays the per-branch check allowances) in an input-ordered post-filter
//! — see `search::run_levels`. Steal counts are surfaced in
//! [`SchedulerStats`] purely as observability.

use crate::sync_shim::Mutex;
use std::collections::VecDeque;

/// Per-worker scheduling counters of a work-stealing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSchedStats {
    /// Batches this worker executed (own + stolen).
    pub batches: u64,
    /// Batches this worker stole from another worker's deque.
    pub steals: u64,
}

/// Run-level scheduling counters, reported in
/// [`crate::DiscoveryResult::scheduler`] for work-stealing runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Total prefix-grouped batches formed across all levels.
    pub batches: u64,
    /// BFS levels the scheduler processed.
    pub levels: u64,
    /// Per-worker execution counters, indexed by worker id.
    pub workers: Vec<WorkerSchedStats>,
}

impl SchedulerStats {
    /// Total steals across all workers.
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }
}

/// One bounded deque per worker holding batch indexes. Built fresh per
/// level; `pop` is the only operation after construction.
pub(crate) struct StealQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

/// The queues hold plain `usize` batch indexes and the critical sections
/// are single `VecDeque` operations, so a poisoned lock (a worker panicked
/// between `lock()` and the pop — impossible today, but cheap to be
/// defensive about) leaves a structurally valid deque behind: recover it.
fn recover<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl StealQueues {
    /// Deal `batches` batch indexes round-robin across `workers` deques:
    /// batch `b` lands at the back of deque `b % workers`, so each deque
    /// holds its share in canonical level order.
    pub(crate) fn new(workers: usize, batches: usize) -> StealQueues {
        let workers = workers.max(1);
        let mut queues: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        // lint: allow(unprobed-loop, round-robin seeding, one push per level batch)
        for b in 0..batches {
            if let Some(q) = queues.get_mut(b % workers) {
                q.push_back(b);
            }
        }
        StealQueues {
            queues: queues.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Next batch for `worker`: front of its own deque, else the back of
    /// the first non-empty victim deque (scanning cyclically from
    /// `worker + 1`). Returns the batch index and whether it was stolen;
    /// `None` when every deque is empty.
    pub(crate) fn pop(&self, worker: usize) -> Option<(usize, bool)> {
        if let Some(b) = self
            .queues
            .get(worker)
            .and_then(|q| recover(q.lock()).pop_front())
        {
            return Some((b, false));
        }
        let n = self.queues.len();
        // lint: allow(unprobed-loop, victim scan bounded by the worker count; callers poll the budget at batch boundaries)
        for off in 1..n {
            let victim = (worker + off) % n;
            if let Some(b) = self
                .queues
                .get(victim)
                .and_then(|q| recover(q.lock()).pop_back())
            {
                return Some((b, true));
            }
        }
        None
    }
}

/// Interleaving models of the steal protocol, run by the loom lane
/// (`cargo test -p ocdd-core --features loom`, `OCDD_CI_LOOM=1 ./ci.sh`).
/// Every schedule of the instrumented mutex operations is explored; see
/// `crates/shims/loom` for the checker and DESIGN.md §10 for the lane.
#[cfg(all(test, feature = "loom"))]
mod loom_models {
    use super::*;
    use std::sync::Arc;

    /// Two workers drain a three-batch level concurrently. Under every
    /// interleaving of owner pops and steals, each batch surfaces exactly
    /// once and none is lost — the mutual-exclusion core of the
    /// owner-front/thief-back discipline.
    #[test]
    fn pop_and_steal_yield_each_batch_exactly_once() {
        loom::model(|| {
            let q = Arc::new(StealQueues::new(2, 3));
            let q2 = Arc::clone(&q);
            let thief = loom::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some((b, _)) = q2.pop(1) {
                    got.push(b);
                }
                got
            });
            let mut all = Vec::new();
            while let Some((b, _)) = q.pop(0) {
                all.push(b);
            }
            all.extend(thief.join().expect("worker 1 finishes"));
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2], "every batch exactly once");
        });
    }

    /// A worker whose own deque is empty races the owner for the last
    /// batch: exactly one of them wins it on every schedule.
    #[test]
    fn contended_last_batch_goes_to_exactly_one_worker() {
        loom::model(|| {
            let q = Arc::new(StealQueues::new(2, 1));
            let q2 = Arc::clone(&q);
            let thief = loom::thread::spawn(move || q2.pop(1));
            let own = q.pop(0);
            let stolen = thief.join().expect("worker 1 finishes");
            match (own, stolen) {
                (Some((0, false)), None) | (None, Some((0, true))) => {}
                other => panic!("batch 0 must surface exactly once, got {other:?}"),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn round_robin_deal_preserves_per_worker_order() {
        let q = StealQueues::new(2, 5);
        // Worker 0 owns batches 0, 2, 4 in order; worker 1 owns 1, 3.
        assert_eq!(q.pop(0), Some((0, false)));
        assert_eq!(q.pop(1), Some((1, false)));
        assert_eq!(q.pop(0), Some((2, false)));
        assert_eq!(q.pop(1), Some((3, false)));
        assert_eq!(q.pop(0), Some((4, false)));
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1), None);
    }

    #[test]
    fn idle_worker_steals_from_the_back() {
        let q = StealQueues::new(3, 4);
        // Worker 2 owns only batch 2; after that it steals.
        assert_eq!(q.pop(2), Some((2, false)));
        // The victim scan starts at worker 0 (2+1 ≡ 0 mod 3) on every pop,
        // and stealing takes the *back*: worker 0's deque [0, 3] yields 3
        // then 0, only then does the scan reach worker 1's [1].
        assert_eq!(q.pop(2), Some((3, true)));
        assert_eq!(q.pop(2), Some((0, true)));
        assert_eq!(q.pop(2), Some((1, true)));
        assert_eq!(q.pop(2), None);
    }

    #[test]
    fn every_batch_surfaces_exactly_once_under_contention() {
        let workers = 4;
        let batches = 257;
        let q = StealQueues::new(workers, batches);
        let mut popped: Vec<Vec<usize>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let q = &q;
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        while let Some((b, _)) = q.pop(w) {
                            got.push(b);
                        }
                        got
                    })
                })
                .collect();
            for h in handles {
                popped.push(h.join().expect("worker must not panic"));
            }
        });
        let all: Vec<usize> = popped.into_iter().flatten().collect();
        assert_eq!(all.len(), batches);
        assert_eq!(all.iter().collect::<HashSet<_>>().len(), batches);
    }

    #[test]
    fn pop_recovers_from_a_poisoned_queue() {
        let q = std::sync::Arc::new(StealQueues::new(2, 4));
        let q2 = std::sync::Arc::clone(&q);
        // Poison worker 0's deque: panic while holding its lock.
        std::thread::spawn(move || {
            let _guard = q2.queues[0].lock();
            panic!("poison worker 0's deque");
        })
        .join()
        .unwrap_err();

        // The critical sections are single VecDeque operations, so the
        // poisoned deque is structurally intact: owner pops and steals
        // keep flowing through the recovery path.
        assert_eq!(q.pop(1), Some((1, false)));
        assert_eq!(q.pop(1), Some((3, false)));
        assert_eq!(q.pop(1), Some((2, true)), "steal from the poisoned deque");
        assert_eq!(
            q.pop(0),
            Some((0, false)),
            "owner pop of the poisoned deque"
        );
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1), None);
    }

    #[test]
    fn single_worker_degenerates_to_a_fifo() {
        let q = StealQueues::new(1, 3);
        assert_eq!(q.pop(0), Some((0, false)));
        assert_eq!(q.pop(0), Some((1, false)));
        assert_eq!(q.pop(0), Some((2, false)));
        assert_eq!(q.pop(0), None);
    }

    #[test]
    fn scheduler_stats_sum_steals() {
        let stats = SchedulerStats {
            batches: 10,
            levels: 2,
            workers: vec![
                WorkerSchedStats {
                    batches: 6,
                    steals: 1,
                },
                WorkerSchedStats {
                    batches: 4,
                    steals: 2,
                },
            ],
        };
        assert_eq!(stats.steals(), 3);
    }
}
