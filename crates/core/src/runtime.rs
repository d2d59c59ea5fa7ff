//! Run-control primitives shared by every discovery entry point:
//! cooperative cancellation, the amortized check/time budget, typed
//! termination reasons, and the (test/feature-gated) fault-injection plan.
//!
//! The paper's evaluation reports **partial results** when a run exceeds
//! its 5-hour threshold (§5.1, Table 6 footnote). This module generalizes
//! that: a run can end because it finished, hit a budget, was cancelled
//! from another thread, or lost workers to a panic — and the result says
//! which, via [`TerminationReason`].

use ocdd_relation::ColumnId;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::config::DiscoveryConfig;

/// The wall clock and the cancellation flag are only consulted every this
/// many `Budget::probe` calls: `Instant::now()` costs a vDSO call, which
/// the radix kernels made comparable to a cheap candidate check. The
/// deadline/cancellation overshoot this allows is a handful of candidates —
/// the paper's budget semantics (partial results past the threshold, §5.1)
/// are unaffected.
pub const DEADLINE_CHECK_INTERVAL: u64 = 64;

/// Why a discovery run stopped. Replaces the lossy `complete: bool`;
/// `DiscoveryResult::complete()` is derived from it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TerminationReason {
    /// The candidate tree was exhausted — results are the full answer.
    #[default]
    Complete,
    /// `max_level` stopped the breadth-first search.
    LevelCap,
    /// `max_checks` was spent before the tree was exhausted.
    CheckBudget,
    /// The wall-clock `time_budget` ran out (the paper's 5-hour threshold).
    TimeBudget,
    /// A [`RunController`] cancelled the run from another thread.
    Cancelled,
    /// One or more workers panicked; the named level-2 branches were
    /// quarantined and the surviving branches' results merged.
    WorkerFailure {
        /// Seed pairs of the quarantined level-2 branches, sorted.
        branches: Vec<(ColumnId, ColumnId)>,
        /// Panic payload of the first failure observed.
        message: String,
    },
}

impl TerminationReason {
    /// True only for [`TerminationReason::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, TerminationReason::Complete)
    }

    /// Stable snake_case tag for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            TerminationReason::Complete => "complete",
            TerminationReason::LevelCap => "level_cap",
            TerminationReason::CheckBudget => "check_budget",
            TerminationReason::TimeBudget => "time_budget",
            TerminationReason::Cancelled => "cancelled",
            TerminationReason::WorkerFailure { .. } => "worker_failure",
        }
    }
}

impl fmt::Display for TerminationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TerminationReason::Complete => write!(f, "complete"),
            TerminationReason::LevelCap => write!(f, "partial (level cap)"),
            TerminationReason::CheckBudget => write!(f, "partial (check budget)"),
            TerminationReason::TimeBudget => write!(f, "partial (time budget)"),
            TerminationReason::Cancelled => write!(f, "partial (cancelled)"),
            TerminationReason::WorkerFailure { branches, .. } => {
                write!(
                    f,
                    "partial (worker failure, {} branch(es) lost)",
                    branches.len()
                )
            }
        }
    }
}

/// Cloneable handle that cancels a running discovery from another thread.
///
/// Install a clone in [`DiscoveryConfig::controller`], start the run, and
/// call [`RunController::cancel`] from anywhere: every search loop polls
/// the flag on the amortized `Budget` path and stops within one
/// [`DEADLINE_CHECK_INTERVAL`] batch, returning partial results with
/// [`TerminationReason::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct RunController {
    cancelled: Arc<AtomicBool>,
}

impl RunController {
    /// Fresh, un-cancelled controller.
    pub fn new() -> RunController {
        RunController::default()
    }

    /// Ask every run holding a clone of this controller to stop.
    pub fn cancel(&self) {
        // lint: allow(atomics-audit, monotonic one-way flag; a late observation only delays a cooperative stop and never orders result data)
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`RunController::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        // lint: allow(atomics-audit, monotonic flag read; staleness only delays the cooperative stop by one poll window)
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// Which limit tripped a [`Budget`], in trip order (first cause wins).
/// `max_checks` is not one: the search driver enforces it through
/// per-branch allowances (see `search::branch_allowances`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StopCause {
    /// The wall-clock deadline passed.
    TimeBudget,
    /// The [`RunController`] was cancelled.
    Cancelled,
}

impl From<StopCause> for TerminationReason {
    fn from(cause: StopCause) -> TerminationReason {
        match cause {
            StopCause::TimeBudget => TerminationReason::TimeBudget,
            StopCause::Cancelled => TerminationReason::Cancelled,
        }
    }
}

const STOP_NONE: u8 = 0;
const STOP_TIME: u8 = 1;
const STOP_CANCELLED: u8 = 2;

/// Shared, cooperatively-checked run budget: counts candidate checks and
/// amortizes the expensive stop conditions (wall clock, cancellation flag)
/// to one consultation per [`DEADLINE_CHECK_INTERVAL`] probes.
pub(crate) struct Budget {
    checks: AtomicU64,
    deadline: Option<Instant>,
    controller: Option<RunController>,
    stop: AtomicU8,
    probe_calls: AtomicU64,
}

impl Budget {
    pub(crate) fn new(config: &DiscoveryConfig, start: Instant, initial_checks: u64) -> Budget {
        Budget {
            checks: AtomicU64::new(initial_checks),
            deadline: config.time_budget.map(|d| start + d),
            controller: config.controller.clone(),
            stop: AtomicU8::new(STOP_NONE),
            probe_calls: AtomicU64::new(0),
        }
    }

    /// Record `n` checks. The search driver enforces `max_checks` itself,
    /// through deterministic per-branch allowances.
    pub(crate) fn record(&self, n: u64) {
        // lint: allow(atomics-audit, observability counter; snapshotted once at run end, never read on the result path)
        self.checks.fetch_add(n, Ordering::Relaxed);
    }

    /// Amortized stop-condition poll: consults the cancellation flag and
    /// the wall clock every [`DEADLINE_CHECK_INTERVAL`]-th call. Returns
    /// false once the run must stop.
    pub(crate) fn probe(&self) -> bool {
        // lint: allow(atomics-audit, stop code is write-once via CAS; a stale STOP_NONE read only delays the amortized stop by one window)
        if self.stop.load(Ordering::Relaxed) != STOP_NONE {
            return false;
        }
        if self.controller.is_some() || self.deadline.is_some() {
            // lint: allow(atomics-audit, probe counter only amortizes the wall-clock poll; its exact value carries no result data)
            let calls = self.probe_calls.fetch_add(1, Ordering::Relaxed);
            if calls.is_multiple_of(DEADLINE_CHECK_INTERVAL) {
                if self
                    .controller
                    .as_ref()
                    .is_some_and(RunController::is_cancelled)
                {
                    self.trip(StopCause::Cancelled);
                } else if self.deadline.is_some_and(|d| now() >= d) {
                    self.trip(StopCause::TimeBudget);
                }
            }
        }
        // lint: allow(atomics-audit, stop code is write-once via CAS in trip(); re-read is idempotent)
        self.stop.load(Ordering::Relaxed) == STOP_NONE
    }

    /// Immediate (non-amortized) stop-condition poll, consulted once per
    /// batch by the work-stealing scheduler: batch boundaries are rare
    /// enough that the vDSO call is free, and polling here bounds the
    /// cancellation latency by one batch instead of one
    /// [`DEADLINE_CHECK_INTERVAL`] window. Returns false once the run must
    /// stop.
    pub(crate) fn probe_now(&self) -> bool {
        // lint: allow(atomics-audit, stop code is write-once via CAS; a stale STOP_NONE read costs at most one extra batch)
        if self.stop.load(Ordering::Relaxed) != STOP_NONE {
            return false;
        }
        if self
            .controller
            .as_ref()
            .is_some_and(RunController::is_cancelled)
        {
            self.trip(StopCause::Cancelled);
        } else if self.deadline.is_some_and(|d| now() >= d) {
            self.trip(StopCause::TimeBudget);
        }
        // lint: allow(atomics-audit, stop code is write-once via CAS in trip(); re-read is idempotent)
        self.stop.load(Ordering::Relaxed) == STOP_NONE
    }

    fn trip(&self, cause: StopCause) {
        let code = match cause {
            StopCause::TimeBudget => STOP_TIME,
            StopCause::Cancelled => STOP_CANCELLED,
        };
        // First cause wins: a run stops for exactly one reason.
        // lint: allow(atomics-audit, the CAS itself serializes the single write; the stop code is the only state it guards)
        const ORD: Ordering = Ordering::Relaxed;
        let _ = self.stop.compare_exchange(STOP_NONE, code, ORD, ORD);
    }

    pub(crate) fn is_stopped(&self) -> bool {
        // lint: allow(atomics-audit, write-once stop code; consumers re-check under their own synchronization before acting)
        self.stop.load(Ordering::Relaxed) != STOP_NONE
    }

    pub(crate) fn cause(&self) -> Option<StopCause> {
        // lint: allow(atomics-audit, read after the run's join barrier; the joining thread already synchronized with every writer)
        match self.stop.load(Ordering::Relaxed) {
            STOP_TIME => Some(StopCause::TimeBudget),
            STOP_CANCELLED => Some(StopCause::Cancelled),
            _ => None,
        }
    }

    /// Checks recorded so far (reduction + search).
    pub(crate) fn checks(&self) -> u64 {
        // lint: allow(atomics-audit, observability counter read after the join barrier; reported in stats only)
        self.checks.load(Ordering::Relaxed)
    }
}

/// The single sanctioned wall-clock read of the core crates.
///
/// The crate's `clippy.toml` bans `Instant::now` and `SystemTime`
/// everywhere else: every elapsed-time measurement and budget deadline
/// routes through here, so a determinism audit has exactly one place to
/// look for time dependence.
#[expect(
    clippy::disallowed_methods,
    reason = "the single sanctioned wall-clock read of the core crates"
)]
pub(crate) fn now() -> Instant {
    Instant::now()
}

/// Deterministic fault-injection plan for the discovery runtime.
///
/// Only consulted through hook points compiled under
/// `cfg(any(test, feature = "fault-injection"))` — production builds
/// without the feature carry no injection branches. Install a plan via
/// `DiscoveryConfig::fault` (same gating) and run discovery normally:
///
/// * [`panic_on_branch`](FaultPlan::panic_on_branch) panics the worker the
///   moment it touches a candidate of that level-2 branch — the branch is
///   quarantined and the run degrades to
///   [`TerminationReason::WorkerFailure`];
/// * [`panic_after_checks`](FaultPlan::panic_after_checks) panics on the
///   n-th candidate across the whole run (scheduling decides which branch
///   dies in parallel modes);
/// * [`check_delay`](FaultPlan::check_delay) sleeps inside every checker
///   call, for exercising time budgets and cancellation deterministically;
/// * [`drop_cache_inserts`](FaultPlan::drop_cache_inserts) turns the
///   shared prefix cache into a permanent eviction storm (every insert is
///   dropped on the floor) — results must not change, only hit rates.
///
/// The plan carries a run-scoped candidate counter; build a fresh plan per
/// run when comparing against a fault-free baseline.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Panic when a worker processes any candidate of this level-2 branch
    /// (seed pair of first attributes, smaller id first). A bidirectional
    /// run names its branches by twin ids: `2c` for column `c` ascending,
    /// `2c + 1` for it descending (see
    /// `ocdd_relation::Relation::with_descending_twins`).
    pub panic_on_branch: Option<(ColumnId, ColumnId)>,
    /// Panic on the n-th processed candidate (1-based, counted across all
    /// workers of the run).
    pub panic_after_checks: Option<u64>,
    /// Sleep this long inside every `check_ocd`/`check_od` call.
    pub check_delay: Option<Duration>,
    /// Drop every shared-cache insert, simulating a cache whose budget
    /// evicts everything immediately.
    pub drop_cache_inserts: bool,
    #[cfg(any(test, feature = "fault-injection"))]
    counter: AtomicU64,
}

#[cfg(any(test, feature = "fault-injection"))]
impl FaultPlan {
    /// A plan that only slows every checker call down by `delay` — the
    /// crash harness's knob for making a run long enough to SIGKILL
    /// mid-level (`ocdd --check-delay-ms`).
    pub fn delay_checks(delay: Duration) -> FaultPlan {
        FaultPlan {
            check_delay: Some(delay),
            ..FaultPlan::default()
        }
    }

    /// Worker hook: called once per candidate, before it is checked.
    /// Panics according to the plan.
    pub(crate) fn before_candidate(&self, branch: (ColumnId, ColumnId)) {
        // lint: allow(atomics-audit, fault-injection candidate counter; test and feature builds only, never on the result path)
        let n = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        if self.panic_after_checks == Some(n) {
            // lint: allow(no-panic, injected fault — panicking here is this hook's entire purpose)
            panic!("injected panic after {n} candidate checks");
        }
        if self.panic_on_branch == Some(branch) {
            // lint: allow(no-panic, injected fault — panicking here is this hook's entire purpose)
            panic!("injected panic in branch ({}, {})", branch.0, branch.1);
        }
    }

    /// Checker hook: called once per OCD/OD check.
    pub(crate) fn check_latency(&self) {
        if let Some(d) = self.check_delay {
            std::thread::sleep(d);
        }
    }

    /// Shared-cache hook: true when inserts must be dropped.
    pub(crate) fn drops_cache_inserts(&self) -> bool {
        self.drop_cache_inserts
    }
}

/// Best-effort text of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_cancels_once_for_all_clones() {
        let c = RunController::new();
        let clone = c.clone();
        assert!(!c.is_cancelled() && !clone.is_cancelled());
        clone.cancel();
        assert!(c.is_cancelled() && clone.is_cancelled());
    }

    #[test]
    fn termination_labels_are_stable() {
        assert_eq!(TerminationReason::Complete.label(), "complete");
        assert_eq!(TerminationReason::Cancelled.label(), "cancelled");
        let wf = TerminationReason::WorkerFailure {
            branches: vec![(0, 1)],
            message: "boom".into(),
        };
        assert_eq!(wf.label(), "worker_failure");
        assert!(wf.to_string().contains("1 branch"));
        assert!(TerminationReason::Complete.is_complete());
        assert!(!wf.is_complete());
    }

    #[test]
    fn budget_record_never_trips_check_cause() {
        let config = DiscoveryConfig {
            max_checks: Some(2),
            ..DiscoveryConfig::default()
        };
        let b = Budget::new(&config, now(), 0);
        b.record(100);
        assert!(b.probe());
        assert_eq!(b.cause(), None);
        assert_eq!(b.checks(), 100);
    }

    #[test]
    fn probe_sees_cancellation_within_one_interval() {
        let controller = RunController::new();
        let config = DiscoveryConfig {
            controller: Some(controller.clone()),
            ..DiscoveryConfig::default()
        };
        let b = Budget::new(&config, now(), 0);
        assert!(b.probe());
        controller.cancel();
        let mut stopped_after = None;
        for i in 0..=DEADLINE_CHECK_INTERVAL {
            if !b.probe() {
                stopped_after = Some(i);
                break;
            }
        }
        let n = stopped_after.expect("probe must observe cancellation within one interval");
        assert!(n <= DEADLINE_CHECK_INTERVAL);
        assert_eq!(b.cause(), Some(StopCause::Cancelled));
    }

    #[test]
    fn probe_now_sees_cancellation_immediately() {
        let controller = RunController::new();
        let config = DiscoveryConfig {
            controller: Some(controller.clone()),
            ..DiscoveryConfig::default()
        };
        let b = Budget::new(&config, now(), 0);
        assert!(b.probe_now());
        controller.cancel();
        assert!(!b.probe_now(), "batch boundary poll must not amortize");
        assert_eq!(b.cause(), Some(StopCause::Cancelled));
    }

    #[test]
    fn expired_deadline_trips_time_budget() {
        let config = DiscoveryConfig {
            time_budget: Some(Duration::ZERO),
            ..DiscoveryConfig::default()
        };
        let b = Budget::new(&config, now(), 0);
        assert!(!b.probe(), "call 0 is a probe boundary");
        assert_eq!(b.cause(), Some(StopCause::TimeBudget));
    }

    #[test]
    fn first_cause_wins() {
        let config = DiscoveryConfig {
            time_budget: Some(Duration::ZERO),
            ..DiscoveryConfig::default()
        };
        let b = Budget::new(&config, now(), 0);
        assert!(!b.probe());
        b.trip(StopCause::Cancelled);
        assert_eq!(b.cause(), Some(StopCause::TimeBudget));
    }

    #[test]
    fn panic_message_extracts_payloads() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("static");
        assert_eq!(panic_message(boxed.as_ref()), "static");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(boxed.as_ref()), "owned");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(boxed.as_ref()), "opaque panic payload");
    }

    #[test]
    fn fault_plan_panics_deterministically() {
        let plan = FaultPlan {
            panic_after_checks: Some(3),
            ..FaultPlan::default()
        };
        plan.before_candidate((0, 1));
        plan.before_candidate((0, 2));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.before_candidate((1, 2));
        }))
        .expect_err("third candidate must panic");
        assert!(panic_message(err.as_ref()).contains("after 3"));

        let plan = FaultPlan {
            panic_on_branch: Some((2, 5)),
            ..FaultPlan::default()
        };
        plan.before_candidate((0, 1));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.before_candidate((2, 5));
        }))
        .expect_err("matching branch must panic");
        assert!(panic_message(err.as_ref()).contains("branch (2, 5)"));
    }
}
