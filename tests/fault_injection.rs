//! End-to-end fault-injection tests through the public facade.
//!
//! Compiled only with `--features fault-injection`; `ci.sh` runs them both
//! plainly and once under `RUST_BACKTRACE=1` as a stress iteration. The
//! in-crate unit tests (`ocdd-core::search`) cover the quarantine algebra
//! in detail — these tests pin down the *public* contract: a faulty or
//! cancelled run returns a well-formed `DiscoveryResult` whose dependencies
//! are a sound subset of the fault-free run, never a crash.

#![cfg(feature = "fault-injection")]

use ocddiscover::datasets::{Dataset, RowScale};
use ocddiscover::{
    discover, DiscoveryConfig, FaultPlan, ParallelMode, RunController, TerminationReason,
};
use std::sync::Arc;
use std::time::Duration;

fn branch_of(ocd: &ocddiscover::Ocd) -> (usize, usize) {
    (ocd.lhs.as_slice()[0], ocd.rhs.as_slice()[0])
}

/// A panic injected into one level-2 branch of a default (sequential) run
/// is quarantined: the run reports `WorkerFailure` naming exactly that
/// branch and loses only dependencies rooted in it.
#[test]
fn branch_panic_is_quarantined_behind_the_facade() {
    let rel = Dataset::Hepatitis.generate(RowScale::Rows(120));
    let config = DiscoveryConfig::default();
    let clean = discover(&rel, &config);
    assert!(clean.complete());
    let branch = branch_of(clean.ocds.first().expect("hepatitis has OCDs"));

    let mut plan = FaultPlan::default();
    plan.panic_on_branch = Some(branch);
    let faulty = discover(
        &rel,
        &DiscoveryConfig {
            fault: Some(Arc::new(plan)),
            ..config
        },
    );
    match &faulty.termination {
        TerminationReason::WorkerFailure { branches, message } => {
            assert_eq!(branches.as_slice(), &[branch]);
            assert!(message.contains("injected panic"), "got {message:?}");
        }
        other => panic!("expected WorkerFailure, got {other:?}"),
    }
    assert!(!faulty.complete());
    // Exactly the clean OCD set minus the quarantined branch.
    let expected: Vec<_> = clean
        .ocds
        .iter()
        .filter(|o| branch_of(o) != branch)
        .cloned()
        .collect();
    assert_eq!(faulty.ocds, expected);
    // ODs degrade to a sound subset (reduction-derived single ODs that
    // share a quarantined root survive).
    assert!(faulty.ods.iter().all(|od| clean.ods.contains(od)));
    assert_eq!(faulty.constants, clean.constants);
    assert_eq!(faulty.equivalence_classes, clean.equivalence_classes);
}

/// Cancelling via a shared `RunController` from another thread stops the
/// run with `TerminationReason::Cancelled` and a well-formed partial
/// result.
#[test]
fn cancellation_from_another_thread_stops_the_run() {
    let rel = Dataset::Dbtesma1k.generate(RowScale::Rows(400));
    let controller = RunController::new();
    let remote = controller.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        remote.cancel();
    });
    let res = discover(
        &rel,
        &DiscoveryConfig {
            mode: ParallelMode::WorkStealing(4),
            controller: Some(controller),
            // Failsafe so a missed cancellation cannot hang the test.
            time_budget: Some(Duration::from_secs(30)),
            ..DiscoveryConfig::default()
        },
    );
    canceller.join().expect("canceller thread");
    // Either the search finished in under 5 ms (tiny machine timing) or it
    // observed the cancellation; it must never report a time budget.
    assert_ne!(res.termination, TerminationReason::TimeBudget);
    if res.termination == TerminationReason::Cancelled {
        assert!(!res.complete());
    }
    res.ocds.windows(2).for_each(|w| assert!(w[0] <= w[1]));
}

/// Injected per-check latency trips the wall-clock budget with a typed
/// `TimeBudget` termination instead of running unbounded.
#[test]
fn injected_latency_degrades_to_time_budget() {
    let rel = Dataset::Hepatitis.generate(RowScale::Rows(120));
    let mut plan = FaultPlan::default();
    plan.check_delay = Some(Duration::from_millis(2));
    let res = discover(
        &rel,
        &DiscoveryConfig {
            time_budget: Some(Duration::from_millis(5)),
            fault: Some(Arc::new(plan)),
            ..DiscoveryConfig::default()
        },
    );
    assert_eq!(res.termination, TerminationReason::TimeBudget);
    assert!(!res.complete());
    let clean = discover(&rel, &DiscoveryConfig::default());
    assert!(res.ocds.iter().all(|o| clean.ocds.contains(o)));
}

/// A panic injected into a `WorkStealing` run is quarantined exactly like
/// a sequential one: the run reports `WorkerFailure` naming the branch,
/// and the surviving branches match the fault-free run — even though
/// batches execute speculatively on stealing workers.
#[test]
fn workstealing_branch_panic_is_quarantined() {
    let rel = Dataset::Hepatitis.generate(RowScale::Rows(120));
    for workers in [1, 4] {
        let config = DiscoveryConfig {
            mode: ParallelMode::WorkStealing(workers),
            ..DiscoveryConfig::default()
        };
        let clean = discover(&rel, &config);
        assert!(clean.complete());
        let branch = branch_of(clean.ocds.first().expect("hepatitis has OCDs"));

        let mut plan = FaultPlan::default();
        plan.panic_on_branch = Some(branch);
        let faulty = discover(
            &rel,
            &DiscoveryConfig {
                fault: Some(Arc::new(plan)),
                ..config
            },
        );
        match &faulty.termination {
            TerminationReason::WorkerFailure { branches, .. } => {
                assert_eq!(branches.as_slice(), &[branch], "ws({workers})");
            }
            other => panic!("ws({workers}): expected WorkerFailure, got {other:?}"),
        }
        let expected: Vec<_> = clean
            .ocds
            .iter()
            .filter(|o| branch_of(o) != branch)
            .cloned()
            .collect();
        assert_eq!(faulty.ocds, expected, "ws({workers})");
        assert!(faulty.ods.iter().all(|od| clean.ods.contains(od)));
    }
}

/// A cache under a permanent eviction storm is a pure performance
/// degradation: results are identical to the fault-free run. Covers the
/// epoch-published shared cache under one worker and under three.
#[test]
fn eviction_storm_is_result_neutral() {
    let rel = Dataset::Hepatitis.generate(RowScale::Rows(120));
    for mode in [ParallelMode::Sequential, ParallelMode::WorkStealing(3)] {
        let config = DiscoveryConfig {
            mode,
            checker: ocddiscover::CheckerBackend::SortedPartitions,
            shared_cache: true,
            ..DiscoveryConfig::default()
        };
        let clean = discover(&rel, &config);
        let mut plan = FaultPlan::default();
        plan.drop_cache_inserts = true;
        let stormy = discover(
            &rel,
            &DiscoveryConfig {
                fault: Some(Arc::new(plan)),
                ..config
            },
        );
        assert_eq!(clean.ocds, stormy.ocds, "{mode:?}");
        assert_eq!(clean.ods, stormy.ods, "{mode:?}");
        assert_eq!(clean.checks, stormy.checks, "{mode:?}");
        assert_eq!(stormy.termination, TerminationReason::Complete, "{mode:?}");
    }
}

/// A value whose weight probe can be told to panic — simulates a fault in
/// the middle of an epoch publish, after some inserts are already merged
/// into the candidate map.
struct Weighted {
    bytes: usize,
    panic_on_weigh: bool,
}

impl ocddiscover::core::shared_cache::CacheWeight for Weighted {
    fn weight_bytes(&self) -> usize {
        if self.panic_on_weigh {
            panic!("injected mid-publish fault");
        }
        self.bytes
    }
}

/// The epoch cache's publish protocol is all-or-nothing: a panic halfway
/// through merging a batch (here: while weighing the second of three
/// inserts) unwinds before the snapshot swap, so readers keep seeing
/// exactly the pre-publish snapshot — never a torn one — and the poisoned
/// lock is recovered on the next access.
#[test]
fn epoch_publish_is_all_or_nothing_under_mid_publish_panic() {
    use ocddiscover::core::shared_cache::EpochPrefixCache;

    let cache: EpochPrefixCache<Weighted> = EpochPrefixCache::new(1 << 20);
    cache.publish(vec![(
        vec![0],
        Arc::new(Weighted {
            bytes: 64,
            panic_on_weigh: false,
        }),
    )]);
    assert_eq!(cache.snapshot().len(), 1);

    let cache = Arc::new(cache);
    let c2 = Arc::clone(&cache);
    std::thread::spawn(move || {
        c2.publish(vec![
            (
                vec![1],
                Arc::new(Weighted {
                    bytes: 64,
                    panic_on_weigh: false,
                }),
            ),
            (
                vec![2],
                Arc::new(Weighted {
                    bytes: 64,
                    panic_on_weigh: true,
                }),
            ),
            (
                vec![3],
                Arc::new(Weighted {
                    bytes: 64,
                    panic_on_weigh: false,
                }),
            ),
        ]);
    })
    .join()
    .unwrap_err();

    // The swap never ran: the pre-publish snapshot is intact, including
    // the insert that *had* already merged into the abandoned candidate
    // map, and the cache keeps accepting publishes afterwards.
    let after = cache.snapshot();
    assert_eq!(after.len(), 1);
    assert!(after.get(&[0]).is_some());
    assert!(after.get(&[1]).is_none());
    assert!(after.get(&[2]).is_none());
    assert!(after.get(&[3]).is_none());

    cache.publish(vec![(
        vec![4],
        Arc::new(Weighted {
            bytes: 64,
            panic_on_weigh: false,
        }),
    )]);
    let healed = cache.snapshot();
    assert_eq!(healed.len(), 2);
    assert!(healed.get(&[4]).is_some());
}
