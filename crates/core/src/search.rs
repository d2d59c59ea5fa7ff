//! The OCDDISCOVER search (Algorithms 1–3).
//!
//! Starting from all single-attribute pairs, the breadth-first search checks
//! each OCD candidate `X ~ Y` with the single OD check `XY → YX`
//! (Theorem 4.1). Valid candidates are emitted and extended; invalid ones
//! are pruned together with their whole subtree (downward closure,
//! Theorem 3.7). For a valid candidate, the two OD directions `X → Y` and
//! `Y → X` are checked: a valid direction is emitted as an OD and prunes
//! the extensions of its left side (Theorem 3.9); an invalid direction
//! spawns children `XA ~ Y` (resp. `X ~ YA`) for every unused attribute `A`.
//! Under [`CheckerBackend::SortedPartitions`], every check is answered from
//! memoized set-based facts ([`crate::sorted_partitions`]), and those of
//! level 2 come from the column reduction's pair pass
//! ([`crate::reduction`]); `Resort` keeps Algorithm 2's sort and scan at
//! every level. The `checks` accounting is the same either way.
//!
//! One level-synchronous driver runs the traversal for both
//! [`crate::config::ParallelMode`]s; `Sequential` is its one-worker case.
//! Each level's candidates are grouped into **prefix batches** (one batch
//! per distinct `X` side, the shared sort-key prefix of the level's
//! `XY → YX` checks), the batches are scheduled over work-stealing deques
//! ([`crate::scheduler`]), and an input-ordered post-filter replays the
//! level in canonical candidate order — so results are identical whatever
//! the worker count. The shared cache is epoch-published
//! ([`crate::shared_cache::EpochPrefixCache`]), so no lock is taken on the
//! check hot path.
//!
//! ## Failure and budget semantics
//!
//! The unit of both distribution *and* degradation is the level-2 branch
//! (the pair of first attributes; a candidate never leaves its branch).
//! Each check runs inside `catch_unwind`: a panicking check quarantines
//! only its branch — the branch's results are discarded, the surviving
//! branches merge normally, and the run reports
//! [`TerminationReason::WorkerFailure`] instead of crashing.
//!
//! `max_checks` is enforced through deterministic **per-branch
//! allowances**: the budget left after reduction is split evenly over the
//! branches in canonical seed order, and each branch stops on its own
//! account. Because a branch's candidates appear within each level in
//! branch-local BFS order, the post-filter stops every branch at the same
//! candidate whatever the worker count, so a budget-truncated run returns
//! byte-identical partial results under `Sequential` and `WorkStealing(k)`.
//! The wall-clock budget and cancellation remain global and amortized —
//! those are inherently timing-dependent. A level they cut short ends the
//! run, so the level after it is never built; nor is the level past
//! `max_level`, whose candidates are only counted.
//!
//! Exact, approximate ([`crate::approximate`]), incremental
//! ([`crate::incremental`]) and bidirectional ([`crate::bidirectional`])
//! runs all go through this driver; the last runs it over descending twin
//! columns, whose rules `Reduction::twinned` switches on.

use crate::approximate::{
    ApproximateOcd, ApproximateResult, SampleTriage, TriageTally, TriagedOcd,
};
use crate::check::{check_ocd, check_od_after_ocd};
use crate::config::{CheckerBackend, DiscoveryConfig, ParallelMode};
use crate::deps::{AttrList, Ocd, Od};
use crate::reduction::{columns_reduction, PairVerdicts, Reduction};
use crate::results::{DiscoveryResult, LevelStats};
use crate::runtime::{panic_message, Budget, TerminationReason};
use crate::scheduler::{SchedulerStats, StealQueues, WorkerSchedStats};
use crate::shared_cache::EpochPrefixCache;
use crate::snapshot::{
    ApproxMeta, CandidatePair, CheckpointRecorder, SearchSnapshot, SnapshotBranch, SnapshotError,
    SnapshotFailure, SNAPSHOT_VERSION,
};
use crate::sorted_partitions::{ContextPartition, PartitionChecker};
use ocdd_relation::sort::kernel_stats;
use ocdd_relation::{ColumnId, Relation};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// An OCD candidate `X ~ Y` in the search tree. The derived order (by `x`,
/// then `y`) is the canonical generation order within a level; `dedup_level`
/// exploits it for its adjacent-dedup fast path.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Candidate {
    x: AttrList,
    y: AttrList,
}

impl Candidate {
    /// The level-2 branch this candidate belongs to: the pair of first
    /// attributes of its sides. Extensions only append, so the branch is
    /// invariant over a candidate's whole subtree (§4.2.2).
    fn branch(&self) -> (ColumnId, ColumnId) {
        let a = self.x.as_slice().first().copied().unwrap_or(ColumnId::MAX);
        let b = self.y.as_slice().first().copied().unwrap_or(ColumnId::MAX);
        (a, b)
    }
}

/// Branch root of an emitted OCD, used to strip a quarantined branch's
/// dependencies. `lhs` keeps the candidate's `x` side, so the pair is
/// already in seed order (`x[0] < y[0]`).
fn ocd_branch(ocd: &Ocd) -> (ColumnId, ColumnId) {
    let a = ocd.lhs.as_slice().first().copied().unwrap_or(ColumnId::MAX);
    let b = ocd.rhs.as_slice().first().copied().unwrap_or(ColumnId::MAX);
    (a, b)
}

/// Branch root of an emitted OD (emitted in both directions, so order the
/// pair).
fn od_branch(od: &Od) -> (ColumnId, ColumnId) {
    let a = od.lhs.as_slice().first().copied().unwrap_or(ColumnId::MAX);
    let b = od.rhs.as_slice().first().copied().unwrap_or(ColumnId::MAX);
    (a.min(b), a.max(b))
}

/// What the ε-triage found about one candidate: its OCD's
/// `(removals, rows)` error, if the OCD held, and its triage accounting.
type TriageFindings = (Option<(usize, usize)>, TriageTally);

/// What processing one candidate produced.
#[derive(Debug, Default)]
struct Emission {
    ocds: Vec<Ocd>,
    ods: Vec<Od>,
    children: Vec<Candidate>,
    checks: u64,
    generated: u64,
    /// Set under the ε-triage. Boxed because exact runs never set it, and
    /// the driver moves one emission per candidate through three
    /// level-sized buffers.
    triage: Option<Box<TriageFindings>>,
}

#[cfg(test)]
impl Emission {
    /// Reset for reuse across candidates, keeping the vector capacities.
    fn clear(&mut self) {
        self.ocds.clear();
        self.ods.clear();
        self.children.clear();
        self.checks = 0;
        self.generated = 0;
        self.triage = None;
    }
}

/// The run-wide epoch cache of context partitions, present when
/// `shared_cache` is set under [`CheckerBackend::SortedPartitions`]
/// (`Resort` caches nothing). Cloned `Arc`s are handed to every worker's
/// [`Checker`].
pub(crate) type SharedCache = Option<Arc<EpochPrefixCache<ContextPartition>>>;

pub(crate) fn shared_cache(config: &DiscoveryConfig) -> SharedCache {
    if !config.shared_cache || config.checker != CheckerBackend::SortedPartitions {
        return None;
    }
    #[cfg_attr(
        not(any(test, feature = "fault-injection")),
        expect(
            unused_mut,
            reason = "only test and fault-injection builds set a fault plan"
        )
    )]
    let mut cache = EpochPrefixCache::new(config.cache_budget_bytes);
    #[cfg(any(test, feature = "fault-injection"))]
    cache.set_fault_plan(config.fault.clone());
    Some(Arc::new(cache))
}

/// Worker threads of a mode: `k` for `WorkStealing(k)`, one for
/// `Sequential`.
pub(crate) fn worker_count(mode: ParallelMode) -> usize {
    match mode {
        ParallelMode::Sequential => 1,
        ParallelMode::WorkStealing(k) => k.max(1),
    }
}

/// Backend state of a [`Checker`].
enum CheckerBackendState<'r> {
    /// Re-sort per candidate (paper-faithful).
    Plain(&'r Relation),
    /// Memoized canonical facts over context partitions.
    Partitions(Box<PartitionChecker<'r>>),
}

impl CheckerBackendState<'_> {
    fn check_ocd(&mut self, x: &AttrList, y: &AttrList) -> bool {
        match self {
            CheckerBackendState::Plain(rel) => check_ocd(rel, x, y).is_valid(),
            CheckerBackendState::Partitions(p) => p.check_ocd(x, y),
        }
    }

    fn check_od_after_ocd(&mut self, lhs: &AttrList, rhs: &AttrList) -> bool {
        match self {
            CheckerBackendState::Plain(rel) => check_od_after_ocd(rel, lhs, rhs),
            CheckerBackendState::Partitions(p) => p.check_od_after_ocd(lhs, rhs),
        }
    }
}

/// The ε-triage mode of a [`Checker`] in an approximate run: the shared
/// triage, and what it has found about the candidate in hand.
struct TriageState<'r> {
    triage: &'r SampleTriage<'r>,
    /// The candidate's OCD, once the triage let it through.
    ocd: Option<TriagedOcd>,
    tally: TriageTally,
}

/// Per-worker checker state for the configured [`CheckerBackend`].
struct Checker<'r> {
    backend: CheckerBackendState<'r>,
    /// Set in an approximate run: every check goes through the ε-triage,
    /// which escalates borderline checks to `backend`.
    triage: Option<TriageState<'r>>,
    #[cfg(any(test, feature = "fault-injection"))]
    fault: Option<Arc<crate::runtime::FaultPlan>>,
}

impl<'r> Checker<'r> {
    /// A checker for `config`. Under [`CheckerBackend::SortedPartitions`]
    /// the reduction's verdicts `pairs` answer the facts they cover;
    /// `Resort` keeps the paper's sort and scan at every level.
    fn new(
        rel: &'r Relation,
        config: &DiscoveryConfig,
        shared: &SharedCache,
        pairs: Option<&'r PairVerdicts>,
        triage: Option<&'r SampleTriage<'r>>,
    ) -> Checker<'r> {
        let backend = match config.checker {
            CheckerBackend::Resort => CheckerBackendState::Plain(rel),
            CheckerBackend::SortedPartitions => CheckerBackendState::Partitions(Box::new(
                match shared {
                    Some(cache) => PartitionChecker::with_epoch(rel, Arc::clone(cache)),
                    None => PartitionChecker::new(rel),
                }
                .with_verdicts(pairs),
            )),
        };
        Checker {
            backend,
            triage: triage.map(|triage| TriageState {
                triage,
                ocd: None,
                tally: TriageTally::default(),
            }),
            #[cfg(any(test, feature = "fault-injection"))]
            fault: config.fault.clone(),
        }
    }

    /// A fresh checker replacing one that a caught panic may have left
    /// inconsistent. The verdict table and the triage are immutable, so
    /// they carry over.
    fn rebuilt(&self, rel: &'r Relation, config: &DiscoveryConfig, shared: &SharedCache) -> Self {
        let triage = self.triage.as_ref().map(|t| t.triage);
        let pairs = match &self.backend {
            CheckerBackendState::Partitions(p) => p.verdicts(),
            CheckerBackendState::Plain(_) => None,
        };
        let mut fresh = Checker::new(rel, config, shared, pairs, triage);
        fresh.begin_level();
        fresh
    }

    fn check_ocd(&mut self, x: &AttrList, y: &AttrList) -> bool {
        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(plan) = &self.fault {
            plan.check_latency();
        }
        if let Some(t) = &mut self.triage {
            let backend = &mut self.backend;
            t.ocd = t.triage.ocd(x, y, &mut t.tally, || backend.check_ocd(x, y));
            return t.ocd.is_some();
        }
        self.backend.check_ocd(x, y)
    }

    /// Fused check of one OD direction of `cand` (`x → y` when `forward`),
    /// valid only right after `check_ocd` returned true for `cand`: the
    /// valid OCD rules out swap witnesses, so only the cheaper split-only
    /// scan remains (see [`crate::check::check_od_after_ocd`]). Same
    /// verdict as `check_od`.
    fn check_od_after_ocd(&mut self, cand: &Candidate, forward: bool) -> bool {
        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(plan) = &self.fault {
            plan.check_latency();
        }
        let (lhs, rhs) = if forward {
            (&cand.x, &cand.y)
        } else {
            (&cand.y, &cand.x)
        };
        if let Some(t) = &mut self.triage {
            let Some(ocd) = t.ocd else {
                return false;
            };
            let backend = &mut self.backend;
            // The split-only scan is sound only right after the OCD
            // validated on this checker, so the escalation re-runs it.
            let fused = || {
                backend
                    .check_ocd(&cand.x, &cand.y)
                    .then(|| backend.check_od_after_ocd(lhs, rhs))
            };
            return t.triage.od(lhs, rhs, ocd, &mut t.tally, fused);
        }
        self.backend.check_od_after_ocd(lhs, rhs)
    }

    /// Hand the ε-triage's findings about the candidate just processed to
    /// its emission (no-op for an exact checker).
    fn settle(&mut self, out: &mut Emission) {
        if let Some(t) = &mut self.triage {
            let error = t.ocd.take().map(|o| (o.removals, o.rows));
            out.triage = Some(Box::new((error, std::mem::take(&mut t.tally))));
        }
    }

    /// Refresh the epoch-cache snapshot at a level boundary (no-op without
    /// a shared cache).
    fn begin_level(&mut self) {
        if let CheckerBackendState::Partitions(p) = &mut self.backend {
            p.begin_level();
        }
    }

    /// Hand this worker's buffered epoch-cache inserts to the shared cache
    /// (no-op without a shared cache). Called between levels, in worker
    /// order, so publish epochs are deterministic.
    fn publish_pending(&mut self) {
        if let CheckerBackendState::Partitions(p) = &mut self.backend {
            p.publish_pending();
        }
    }
}

/// Check one candidate and, if it is a valid OCD, emit it and generate the
/// next level (Algorithm 3). A candidate's level is `|X| + |Y|`; at
/// `max_level` its children are counted but not built, since no later
/// level is checked.
fn process_candidate(
    reduction: &Reduction,
    cand: &Candidate,
    checker: &mut Checker<'_>,
    out: &mut Emission,
    max_level: Option<usize>,
) {
    out.checks += 1;
    // Pruning rule (Theorem 3.7): an invalid OCD prunes the whole subtree.
    if checker.check_ocd(&cand.x, &cand.y) {
        let build = max_level.is_none_or(|max| cand.x.len() + cand.y.len() < max);
        expand_valid(reduction, cand, checker, out, build);
    }
    checker.settle(out);
}

/// Emit the valid OCD `cand`, check its two OD directions and generate
/// the children of each failing one (only count them unless `build`).
fn expand_valid(
    reduction: &Reduction,
    cand: &Candidate,
    checker: &mut Checker<'_>,
    out: &mut Emission,
    build: bool,
) {
    out.ocds.push(Ocd::new(cand.x.clone(), cand.y.clone()));

    // An attribute is used when the candidate holds it or, over descending
    // twins, its twin.
    let held = |a: ColumnId| cand.x.contains(a) || cand.y.contains(a);
    let used = |a: ColumnId| held(a) || (reduction.twinned && held(a ^ 1));
    let unused: Vec<ColumnId> = reduction
        .attributes
        .iter()
        .copied()
        .filter(|&a| !used(a))
        .collect();

    // Direction X -> Y (Algorithm 3 lines 3-9). The OCD `X ~ Y` just
    // validated, so the direction checks use the fused split-only scan.
    out.checks += 1;
    if checker.check_od_after_ocd(cand, true) {
        out.ods.push(Od::new(cand.x.clone(), cand.y.clone()));
    } else {
        out.generated += unused.len() as u64;
        if build {
            out.children.extend(unused.iter().map(|&a| Candidate {
                x: cand.x.with_appended(a),
                y: cand.y.clone(),
            }));
        }
    }

    // Direction Y -> X (Algorithm 3 lines 10-16).
    out.checks += 1;
    if checker.check_od_after_ocd(cand, false) {
        out.ods.push(Od::new(cand.y.clone(), cand.x.clone()));
    } else {
        out.generated += unused.len() as u64;
        if build {
            out.children.extend(unused.iter().map(|&a| Candidate {
                x: cand.x.clone(),
                y: cand.y.with_appended(a),
            }));
        }
    }
}

/// Deduplicate a level worth of children in place (each candidate can be
/// produced by two parents), keeping first occurrences in order.
///
/// Fast path: when the level is already in canonical (sorted) order —
/// common for single-branch subtrees, whose children are generated in
/// order — duplicates are adjacent and an `O(n)` `dedup` suffices. The
/// general path builds a keep-mask from borrowed candidates instead of
/// cloning every `Candidate` into a `HashSet` (the old allocation churn:
/// two `AttrList` clones per child, immediately dropped for duplicates).
// lint: allow(panic-reachability, w[0]/w[1] index length-2 slices produced by windows(2))
fn dedup_level(level: &mut Vec<Candidate>) {
    if level.len() < 2 {
        return;
    }
    if level.windows(2).all(|w| w[0] <= w[1]) {
        level.dedup();
        return;
    }
    let mut seen: HashSet<&Candidate> = HashSet::with_capacity(level.len());
    let keep: Vec<bool> = level.iter().map(|c| seen.insert(c)).collect();
    drop(seen);
    let mut idx = 0;
    level.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
}

/// Split the check budget left after reduction into one allowance per
/// level-2 branch, in canonical seed order (the remainder goes to the
/// first branches). Deterministic by construction: a branch's traversal
/// never depends on another branch, so every execution mode truncates at
/// the same candidate. Each branch may overshoot its allowance by at most
/// one candidate (≤ 3 checks) — the same spirit as
/// [`crate::runtime::DEADLINE_CHECK_INTERVAL`].
fn branch_allowances(max_checks: Option<u64>, already_spent: u64, branches: usize) -> Vec<u64> {
    match max_checks {
        None => vec![u64::MAX; branches],
        Some(cap) => {
            if branches == 0 {
                return Vec::new();
            }
            let remaining = cap.saturating_sub(already_spent);
            let base = remaining / branches as u64;
            let extra = remaining % branches as u64;
            (0..branches as u64)
                .map(|i| base + u64::from(i < extra))
                .collect()
        }
    }
}

/// A single-checker subtree traversal: BFS over `seeds` until the tree is
/// exhausted, the branch allowance is spent, or the global budget (time /
/// cancellation) stops the run. Accumulates into `acc`. The branch-at-a-time
/// oracle of the driver tests; it shares only the per-candidate step with
/// [`run_levels`].
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn run_subtree(
    reduction: &Reduction,
    seeds: Vec<Candidate>,
    config: &DiscoveryConfig,
    budget: &Budget,
    checker: &mut Checker<'_>,
    allowance: u64,
    acc: &mut SearchAccumulator,
) {
    let mut spent = 0u64;
    let mut level = seeds;
    // Reused across candidates and levels: `em` keeps its vector
    // capacities, `next` swaps with `level` so the old level's allocation
    // backs the next one.
    let mut next: Vec<Candidate> = Vec::new();
    let mut em = Emission::default();
    let mut level_no = 2usize;
    while !level.is_empty() {
        if config.max_level.is_some_and(|max| level_no > max) {
            acc.level_capped = true;
            break;
        }
        let mut stats = LevelStats {
            level: level_no,
            ..LevelStats::default()
        };
        for cand in &level {
            if spent >= allowance {
                // Pre-check: the branch's share of `max_checks` is gone.
                acc.levels.push(stats);
                acc.check_budget_hit = true;
                return;
            }
            #[cfg(any(test, feature = "fault-injection"))]
            if let Some(plan) = &config.fault {
                plan.before_candidate(cand.branch());
            }
            em.clear();
            process_candidate(reduction, cand, checker, &mut em, None);
            stats.candidates += 1;
            stats.valid_ocds += em.ocds.len() as u64;
            stats.valid_ods += em.ods.len() as u64;
            acc.ocds.append(&mut em.ocds);
            acc.ods.append(&mut em.ods);
            acc.generated += em.generated;
            next.append(&mut em.children);
            spent += em.checks;
            budget.record(em.checks);
            if !budget.probe() {
                // Time budget or cancellation: stop where we are.
                acc.levels.push(stats);
                return;
            }
        }
        acc.levels.push(stats);
        checker.publish_pending();
        checker.begin_level();
        if config.dedup_candidates {
            dedup_level(&mut next);
        }
        std::mem::swap(&mut level, &mut next);
        next.clear();
        level_no += 1;
    }
}

/// Mutable state shared by a traversal.
#[derive(Debug, Default)]
pub(crate) struct SearchAccumulator {
    pub(crate) ocds: Vec<Ocd>,
    /// Under the ε-triage: each OCD's `(removals, rows)` error, aligned
    /// with `ocds`. Empty for an exact run.
    ocd_errors: Vec<(usize, usize)>,
    pub(crate) ods: Vec<Od>,
    generated: u64,
    levels: Vec<LevelStats>,
    /// `max_level` truncated at least one branch.
    level_capped: bool,
    /// A branch ran out of its `max_checks` allowance.
    check_budget_hit: bool,
    /// Under the ε-triage: the absorbed candidates' accounting.
    tally: TriageTally,
}

impl SearchAccumulator {
    /// The results a dump accumulated, its approximate errors and triage
    /// accounting included.
    fn from_snapshot(snap: &SearchSnapshot) -> SearchAccumulator {
        let approx = snap.approx.as_ref();
        // `discover_approximate_resume` refuses counts beyond `usize`.
        let count = |n: u64| usize::try_from(n).unwrap_or(usize::MAX);
        SearchAccumulator {
            ocds: snap
                .ocds
                .iter()
                .map(|p| Ocd::new(AttrList::from_slice(&p.x), AttrList::from_slice(&p.y)))
                .collect(),
            ocd_errors: approx.map_or_else(Vec::new, |a| {
                a.ocd_errors
                    .iter()
                    .map(|&(removals, rows)| (count(removals), count(rows)))
                    .collect()
            }),
            ods: snap
                .ods
                .iter()
                .map(|p| Od::new(AttrList::from_slice(&p.x), AttrList::from_slice(&p.y)))
                .collect(),
            generated: snap.generated,
            levels: snap.levels.clone(),
            level_capped: snap.level_capped,
            check_budget_hit: snap.check_budget_hit,
            tally: approx.map_or_else(TriageTally::default, |a| TriageTally {
                estimated: a.estimated,
                accepted_by_sample: a.accepted_by_sample,
                rejected_by_sample: a.rejected_by_sample,
                escalated: a.escalated,
                sample_row_scans: a.sample_row_scans,
                full_row_scans: a.full_row_scans,
            }),
        }
    }

    /// The end of a traversal: strip the dependencies rooted in failed
    /// branches and classify why it stopped. A branch's emissions from the
    /// levels before its failure are still in the accumulator and are
    /// stripped here, so a faulty run's OCD/OD sets equal the fault-free
    /// run minus exactly the quarantined branches. (Per-level stats,
    /// generation and triage counters stay best-effort under failure.)
    pub(crate) fn settle(
        &mut self,
        failures: &[BranchFailure],
        budget: &Budget,
    ) -> TerminationReason {
        if failures.is_empty() {
            return match budget.cause() {
                Some(cause) => cause.into(),
                None if self.check_budget_hit => TerminationReason::CheckBudget,
                None if self.level_capped => TerminationReason::LevelCap,
                None => TerminationReason::Complete,
            };
        }
        let failed: HashSet<(ColumnId, ColumnId)> = failures.iter().map(|f| f.branch).collect();
        if !self.ocd_errors.is_empty() {
            let kept = self.ocds.iter().map(|o| !failed.contains(&ocd_branch(o)));
            self.ocd_errors = kept
                .zip(&self.ocd_errors)
                .filter_map(|(keep, &e)| keep.then_some(e))
                .collect();
        }
        self.ocds.retain(|o| !failed.contains(&ocd_branch(o)));
        self.ods.retain(|o| !failed.contains(&od_branch(o)));
        let mut branches: Vec<(ColumnId, ColumnId)> = failed.into_iter().collect();
        branches.sort_unstable();
        TerminationReason::WorkerFailure {
            branches,
            message: failures
                .first()
                .map(|f| f.message.clone())
                .unwrap_or_default(),
        }
    }
}

#[cfg(test)]
impl SearchAccumulator {
    /// Fold one branch's accumulator into the run's (the tests'
    /// branch-at-a-time oracle).
    fn merge(&mut self, other: SearchAccumulator) {
        self.ocds.extend(other.ocds);
        self.ods.extend(other.ods);
        self.generated += other.generated;
        self.level_capped |= other.level_capped;
        self.check_budget_hit |= other.check_budget_hit;
        for stat in other.levels {
            match self.levels.iter_mut().find(|s| s.level == stat.level) {
                Some(mine) => {
                    mine.candidates += stat.candidates;
                    mine.valid_ocds += stat.valid_ocds;
                    mine.valid_ods += stat.valid_ods;
                }
                None => self.levels.push(stat),
            }
        }
    }
}

/// One quarantined level-2 branch.
#[derive(Debug, Clone)]
pub(crate) struct BranchFailure {
    branch: (ColumnId, ColumnId),
    message: String,
}

/// Per-branch bookkeeping of the level driver.
struct BranchState {
    allowance: u64,
    spent: u64,
    stopped: bool,
    failed: bool,
}

/// What speculatively processing one candidate produced under the level
/// driver.
enum SpecOutcome {
    /// The global budget had already stopped the run.
    Skipped,
    /// Processed normally.
    Done(Emission),
    /// The check panicked; payload text attached.
    Panicked(String),
}

/// Seed the per-branch bookkeeping of the level driver.
fn branch_states(queue: &[(Candidate, u64)]) -> HashMap<(ColumnId, ColumnId), BranchState> {
    queue
        .iter()
        .map(|(seed, allowance)| {
            (
                seed.branch(),
                BranchState {
                    allowance: *allowance,
                    spent: 0,
                    stopped: false,
                    failed: false,
                },
            )
        })
        .collect()
}

/// The input-ordered post-filter of the level driver: walk the level's
/// outcomes in candidate order, replay the per-branch allowance
/// accounting, quarantine panicked branches, and assemble the next level
/// into the reused `next` buffer — left empty when the budget stopped the
/// run or `max_level` allows no next level. Because a branch's candidates
/// appear within each level in branch-local BFS order, every branch is
/// truncated at exactly the candidate a branch-at-a-time traversal would
/// stop at — speculative work past that point is dropped, keeping results
/// and `checks` byte-identical whatever the worker count.
#[expect(
    clippy::too_many_arguments,
    reason = "the level's outcomes, branch states, accumulators and next-level buffers are separate borrows of the driver's state"
)]
fn absorb_level_outcomes(
    level: &[Candidate],
    outcomes: Vec<SpecOutcome>,
    states: &mut HashMap<(ColumnId, ColumnId), BranchState>,
    level_no: usize,
    config: &DiscoveryConfig,
    budget: &Budget,
    acc: &mut SearchAccumulator,
    failures: &mut Vec<BranchFailure>,
    next: &mut Vec<Candidate>,
    next_parts: &mut Vec<((ColumnId, ColumnId), Vec<Candidate>)>,
    mut recorder: Option<&mut CheckpointRecorder>,
) {
    let mut stats = LevelStats {
        level: level_no,
        ..LevelStats::default()
    };
    // (branch, children) in candidate order; flattened after the pass so a
    // branch stopping mid-level drops *all* its level children, exactly as
    // a branch-at-a-time traversal stopping there would.
    next_parts.clear();
    // lint: allow(unprobed-loop, one bookkeeping pass over the level's outcomes; the checks themselves ran under per-batch budget polls)
    for (cand, outcome) in level.iter().zip(outcomes) {
        let branch = cand.branch();
        let Some(state) = states.get_mut(&branch) else {
            continue;
        };
        if state.failed || state.stopped {
            continue;
        }
        match outcome {
            SpecOutcome::Skipped => {}
            SpecOutcome::Panicked(message) => {
                state.failed = true;
                failures.push(BranchFailure { branch, message });
            }
            SpecOutcome::Done(em) => {
                if state.spent >= state.allowance {
                    state.stopped = true;
                    acc.check_budget_hit = true;
                    continue;
                }
                state.spent += em.checks;
                budget.record(em.checks);
                stats.candidates += 1;
                stats.valid_ocds += em.ocds.len() as u64;
                stats.valid_ods += em.ods.len() as u64;
                if em.ocds.is_empty() {
                    // Invalid candidate: the subtree is pruned (Theorem
                    // 3.7). Recorded for the dump's lattice verdicts.
                    if let Some(rec) = recorder.as_deref_mut() {
                        rec.push_pruned(cand.x.as_slice(), cand.y.as_slice());
                    }
                }
                acc.ocds.extend(em.ocds);
                acc.ods.extend(em.ods);
                acc.generated += em.generated;
                if let Some(triage) = em.triage {
                    let (error, tally) = *triage;
                    acc.ocd_errors.extend(error);
                    acc.tally += tally;
                }
                if em.generated > 0 {
                    next_parts.push((branch, em.children));
                }
            }
        }
    }
    acc.levels.push(stats);
    next.clear();
    // A level the budget cut short records no boundary and ends the run,
    // so nothing would check the next level: do not build it.
    if budget.is_stopped() {
        next_parts.clear();
        return;
    }
    // At `max_level` the children were counted, not built. A surviving
    // branch that has some is cut by the cap.
    let capped = config.max_level.is_some_and(|max| level_no >= max);
    // lint: allow(unprobed-loop, one pass over the level's surviving branches)
    for (branch, children) in next_parts.drain(..) {
        if states.get(&branch).is_some_and(|s| !s.stopped && !s.failed) {
            acc.level_capped |= capped;
            next.extend(children);
        }
    }
    if config.dedup_candidates {
        dedup_level(next);
    }
}

/// Position of the level driver in the search: the per-branch allowance
/// bookkeeping plus the current frontier. Built either from the level-2
/// seed queue (fresh run) or from a [`SearchSnapshot`] (resume) — the two
/// are indistinguishable to the driver, which is exactly what makes
/// `resume == uninterrupted` hold.
pub(crate) struct LevelCursor {
    states: HashMap<(ColumnId, ColumnId), BranchState>,
    level: Vec<Candidate>,
    level_no: usize,
}

impl LevelCursor {
    fn from_queue(queue: Vec<(Candidate, u64)>) -> LevelCursor {
        let states = branch_states(&queue);
        let level = queue.into_iter().map(|(seed, _)| seed).collect();
        LevelCursor {
            states,
            level,
            level_no: 2,
        }
    }

    /// The level-2 seeds over `reduction`'s universe, each branch with its
    /// share of the check budget left after the reduction.
    pub(crate) fn seeds(reduction: &Reduction, config: &DiscoveryConfig) -> LevelCursor {
        let seeds = seed_candidates(reduction);
        let allowances = branch_allowances(config.max_checks, reduction.checks, seeds.len());
        LevelCursor::from_queue(seeds.into_iter().zip(allowances).collect())
    }

    /// A frontier at `level_no` whose candidates all belong to one branch,
    /// which gets the whole `max_checks` budget as its allowance.
    fn one_branch(level: Vec<Candidate>, level_no: usize, config: &DiscoveryConfig) -> LevelCursor {
        let mut states = HashMap::new();
        if let Some(first) = level.first() {
            let state = BranchState {
                allowance: config.max_checks.unwrap_or(u64::MAX),
                spent: 0,
                stopped: false,
                failed: false,
            };
            states.insert(first.branch(), state);
        }
        LevelCursor {
            states,
            level,
            level_no,
        }
    }

    fn from_snapshot(snap: &SearchSnapshot) -> LevelCursor {
        let states = snap
            .branches
            .iter()
            .map(|b| {
                (
                    b.branch,
                    BranchState {
                        allowance: b.allowance,
                        spent: b.spent,
                        stopped: b.stopped,
                        failed: b.failed,
                    },
                )
            })
            .collect();
        let level = snap
            .frontier
            .iter()
            .map(|p| Candidate {
                x: AttrList::from_slice(&p.x),
                y: AttrList::from_slice(&p.y),
            })
            .collect();
        LevelCursor {
            states,
            level,
            level_no: snap.level,
        }
    }
}

fn pair_of(x: &AttrList, y: &AttrList) -> CandidatePair {
    CandidatePair {
        x: x.as_slice().to_vec(),
        y: y.as_slice().to_vec(),
    }
}

/// Dump the boundary entering `level_no` if the recorder's interval wants
/// it: the frontier, the per-branch accounting (sorted — `states` is a
/// `HashMap`), the accumulated results, and the budget/kernel counters
/// that make a resumed run's observability continue seamlessly. An
/// approximate run's dump also carries its sampling metadata, every OCD's
/// error and the triage counters (the `approx` object). Panic-free
/// and IO-error-swallowing by the recorder's contract — a checkpoint
/// failure must never kill the search.
#[expect(
    clippy::too_many_arguments,
    reason = "a dump reads every part of the driver's state, each a separate borrow"
)]
fn record_checkpoint(
    rec: &mut CheckpointRecorder,
    level_no: usize,
    level: &[Candidate],
    states: &HashMap<(ColumnId, ColumnId), BranchState>,
    acc: &SearchAccumulator,
    failures: &[BranchFailure],
    budget: &Budget,
    shared: &SharedCache,
) {
    if !rec.wants(level_no) {
        return;
    }
    let mut branches: Vec<SnapshotBranch> = states
        .iter()
        .map(|(&branch, s)| SnapshotBranch {
            branch,
            allowance: s.allowance,
            spent: s.spent,
            stopped: s.stopped,
            failed: s.failed,
        })
        .collect();
    branches.sort_by_key(|b| b.branch);
    let snap = SearchSnapshot {
        version: SNAPSHOT_VERSION,
        manifest: rec.manifest(),
        config: rec.fingerprint(),
        level: level_no,
        frontier: level.iter().map(|c| pair_of(&c.x, &c.y)).collect(),
        branches,
        failures: failures
            .iter()
            .map(|f| SnapshotFailure {
                branch: f.branch,
                message: f.message.clone(),
            })
            .collect(),
        ocds: acc.ocds.iter().map(|o| pair_of(&o.lhs, &o.rhs)).collect(),
        ods: acc.ods.iter().map(|o| pair_of(&o.lhs, &o.rhs)).collect(),
        generated: acc.generated,
        levels: acc.levels.clone(),
        level_capped: acc.level_capped,
        check_budget_hit: acc.check_budget_hit,
        checks: budget.checks(),
        elapsed_ms: rec.elapsed_ms(),
        kernels: rec.kernels_now(),
        cache: rec.cache_meta(shared.as_ref().map(|c| c.stats())),
        approx: rec.approx_meta().map(|meta| ApproxMeta {
            ocd_errors: acc
                .ocd_errors
                .iter()
                .map(|&(removals, rows)| (removals as u64, rows as u64))
                .collect(),
            estimated: acc.tally.estimated,
            accepted_by_sample: acc.tally.accepted_by_sample,
            rejected_by_sample: acc.tally.rejected_by_sample,
            escalated: acc.tally.escalated,
            sample_row_scans: acc.tally.sample_row_scans,
            full_row_scans: acc.tally.full_row_scans,
            ..meta.clone()
        }),
        pruned: rec.pruned_pairs(),
        termination: None,
    };
    rec.write_boundary(snap);
}

/// Group items into prefix batches: one batch per distinct `prefix(item)`
/// — the shared sort-key prefix of their first check — in order of first
/// appearance, each holding its item indexes in input order. For a level's
/// candidates the prefix is the `x` side of the `XY → YX` check: the first
/// candidate of a batch materializes the `X` partition (or index) in the
/// worker's cache and the rest refine it, so keeping a batch on one worker
/// turns the prefix from a per-check cache lookup into a guaranteed warm
/// hit without touching shared state.
fn prefix_batches<T>(items: &[T], prefix: impl Fn(&T) -> &AttrList) -> Vec<(AttrList, Vec<usize>)> {
    let mut by_key: HashMap<&AttrList, usize> = HashMap::with_capacity(items.len());
    let mut batches: Vec<(AttrList, Vec<usize>)> = Vec::new();
    // lint: allow(unprobed-loop, batching pass, one iteration per level candidate or escalation job)
    for (i, item) in items.iter().enumerate() {
        let key = prefix(item);
        match by_key.get(key) {
            Some(&b) => {
                if let Some(batch) = batches.get_mut(b) {
                    batch.1.push(i);
                }
            }
            None => {
                by_key.insert(key, batches.len());
                batches.push((key.clone(), vec![i]));
            }
        }
    }
    batches
}

/// Run one prefix batch on a driver worker, pushing a
/// `(candidate index, outcome)` pair for every member.
///
/// The cancellation/time budget is polled *immediately* (not amortized)
/// once per batch — [`Budget::probe_now`] — so a cancelled run stops
/// within one batch; within the batch the cheaper amortized probe is kept. A panicking candidate is caught
/// here: the possibly-inconsistent checker is rebuilt and the batch
/// *resumes after the panicked member*, so sibling branches sharing the
/// prefix are not lost (their outcomes stand; the failed candidate's own
/// branch is quarantined by the post-filter).
#[expect(
    clippy::too_many_arguments,
    reason = "a batch reads the driver's shared state and writes its own checker and outcome buffer"
)]
fn run_batch<'r>(
    rel: &'r Relation,
    reduction: &Reduction,
    members: &[usize],
    level: &[Candidate],
    checker: &mut Checker<'r>,
    config: &DiscoveryConfig,
    shared: &SharedCache,
    budget: &Budget,
    out: &mut Vec<(usize, SpecOutcome)>,
) {
    if !budget.probe_now() {
        out.extend(members.iter().map(|&i| (i, SpecOutcome::Skipped)));
        return;
    }
    let mut pos = 0;
    while pos < members.len() {
        let progress = Cell::new(pos);
        let outcome = {
            let progress = &progress;
            let out = &mut *out;
            let checker = &mut *checker;
            catch_unwind(AssertUnwindSafe(move || {
                // lint: allow(panic-reachability, pos < members.len() by the while condition, so the range start is in bounds)
                for (j, &i) in members[pos..].iter().enumerate() {
                    progress.set(pos + j);
                    if budget.is_stopped() {
                        out.push((i, SpecOutcome::Skipped));
                        continue;
                    }
                    // lint: allow(panic-reachability, members hold level indexes built by prefix_batches, so i < level.len())
                    let cand = &level[i];
                    #[cfg(any(test, feature = "fault-injection"))]
                    if let Some(plan) = &config.fault {
                        plan.before_candidate(cand.branch());
                    }
                    let mut em = Emission::default();
                    process_candidate(reduction, cand, checker, &mut em, config.max_level);
                    budget.probe();
                    out.push((i, SpecOutcome::Done(em)));
                }
            }))
        };
        match outcome {
            Ok(()) => return,
            Err(payload) => {
                let failed_at = progress.get();
                out.push((
                    // lint: allow(panic-reachability, progress only ever holds indexes pos+j < members.len(), set inside the batch loop)
                    members[failed_at],
                    SpecOutcome::Panicked(panic_message(payload.as_ref())),
                ));
                *checker = checker.rebuilt(rel, config, shared);
                pos = failed_at + 1;
            }
        }
    }
}

/// Drain `batches` with one worker per checker, but never more workers
/// than batches — a scoped thread each, or the calling thread when one
/// worker remains — over hand-rolled work-stealing deques
/// ([`StealQueues`]): the batches are dealt round-robin, and each worker
/// pops its own deque from the front (preserving prefix locality) and
/// steals from the back of a victim's. Checkers beyond the batch count sit
/// the level out.
/// `run` executes one batch's member indexes; the `(index, outcome)`
/// pairs land in `slots`. Afterwards every checker's buffered cache
/// inserts are published in worker order, so epoch stamps (and hence
/// evictions) are deterministic for a schedule-independent insert set.
///
/// Returns the panic text of a worker that died (isolation itself
/// failing): its outcomes died with it and its slots stay `None`.
#[expect(
    clippy::disallowed_methods,
    reason = "the level driver's workers are core's one sanctioned spawn site: the driver's panic quarantine owns their lifecycle"
)]
fn run_workers<'r, T: Send>(
    checkers: &mut [Checker<'r>],
    wstats: &mut [WorkerSchedStats],
    batches: &[(AttrList, Vec<usize>)],
    slots: &mut [Option<T>],
    run: impl Fn(&[usize], &mut Checker<'r>, &mut Vec<(usize, T)>) + Sync,
) -> Option<String> {
    let workers = checkers.len().min(batches.len()).max(1);
    let queues = StealQueues::new(workers, batches.len());
    let drain = |w: usize, checker: &mut Checker<'r>, wstats: &mut WorkerSchedStats| {
        checker.begin_level();
        let mut local: Vec<(usize, T)> = Vec::new();
        // lint: allow(unprobed-loop, drains the dealt batches, bounded by their count; each batch runner polls the budget)
        while let Some((b, stolen)) = queues.pop(w) {
            wstats.batches += 1;
            wstats.steals += u64::from(stolen);
            if let Some((_, members)) = batches.get(b) {
                run(members, checker, &mut local);
            }
        }
        local
    };
    let mut worker_death: Option<String> = None;
    let mut scatter = |joined: std::thread::Result<Vec<(usize, T)>>| match joined {
        Ok(local) => {
            // lint: allow(unprobed-loop, slot scatter, one move per computed outcome)
            for (i, outcome) in local {
                if let Some(slot) = slots.get_mut(i) {
                    *slot = Some(outcome);
                }
            }
        }
        Err(payload) => worker_death = Some(panic_message(payload.as_ref())),
    };
    if workers == 1 {
        // One worker runs on the calling thread: a fresh thread per level
        // measurably slowed the sequential search on `dense_search`.
        if let (Some(checker), Some(wstats)) = (checkers.first_mut(), wstats.first_mut()) {
            scatter(catch_unwind(AssertUnwindSafe(|| drain(0, checker, wstats))));
        }
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = checkers
                .iter_mut()
                .zip(wstats.iter_mut())
                .take(workers)
                .enumerate()
                .map(|(w, (checker, wstats))| {
                    let drain = &drain;
                    scope.spawn(move || drain(w, checker, wstats))
                })
                .collect();
            // lint: allow(unprobed-loop, join loop bounded by the worker count)
            for handle in handles {
                scatter(handle.join());
            }
        });
    }
    // lint: allow(unprobed-loop, publish loop bounded by the worker count)
    for checker in checkers {
        checker.publish_pending();
    }
    worker_death
}

/// The search driver: level-synchronous prefix-batch execution on
/// `worker_count(config.mode)` workers — one for `Sequential`, `k` for
/// `WorkStealing(k)` — whichever way the run started (fresh, checkpointed
/// or resumed from `cursor`).
///
/// Per level: candidates are grouped into prefix batches
/// ([`prefix_batches`]) and drained by the workers ([`run_workers`]).
/// Workers keep their [`Checker`] across levels; under a shared cache they
/// read the level's immutable snapshot lock-free and buffer inserts
/// locally until the level's publish. The outcomes, tagged with candidate
/// indexes, are replayed through the input-ordered post-filter
/// ([`absorb_level_outcomes`]), which is what makes results independent of
/// the worker count and schedule.
///
/// A worker thread dying loses its level outcomes: the missing entries are
/// treated as panics, quarantining the affected branches, while the
/// surviving workers still drain the remaining deques. With `triage`, every
/// checker runs the ε-triage of an approximate run. Returns the scheduler
/// counters under `WorkStealing`, `None` under `Sequential`.
#[expect(
    clippy::too_many_arguments,
    reason = "the level driver is shared by exact, approximate, bidirectional and resumed runs, each supplying its own state"
)]
pub(crate) fn run_levels<'r>(
    rel: &'r Relation,
    reduction: &'r Reduction,
    cursor: LevelCursor,
    config: &DiscoveryConfig,
    budget: &Budget,
    shared: &SharedCache,
    acc: &mut SearchAccumulator,
    failures: &mut Vec<BranchFailure>,
    mut recorder: Option<&mut CheckpointRecorder>,
    triage: Option<&'r SampleTriage<'r>>,
) -> Option<SchedulerStats> {
    let k = worker_count(config.mode);
    let LevelCursor {
        mut states,
        mut level,
        mut level_no,
    } = cursor;
    // Reused level-to-level, see `absorb_level_outcomes`.
    let mut next: Vec<Candidate> = Vec::new();
    let mut next_parts: Vec<((ColumnId, ColumnId), Vec<Candidate>)> = Vec::new();
    let mut checkers: Vec<Checker<'r>> = (0..k)
        .map(|_| Checker::new(rel, config, shared, reduction.pairs.as_ref(), triage))
        .collect();
    let mut sched = SchedulerStats {
        batches: 0,
        levels: 0,
        workers: vec![WorkerSchedStats::default(); k],
    };
    // Initial boundary: a kill at any point during the first level already
    // has a resume point.
    if let Some(rec) = recorder.as_deref_mut() {
        record_checkpoint(
            rec, level_no, &level, &states, acc, failures, budget, shared,
        );
    }
    while !level.is_empty() && !budget.is_stopped() {
        if config.max_level.is_some_and(|max| level_no > max) {
            acc.level_capped = true;
            break;
        }
        sched.levels += 1;
        let batches = prefix_batches(&level, |c| &c.x);
        sched.batches += batches.len() as u64;
        let mut slots: Vec<Option<SpecOutcome>> = Vec::with_capacity(level.len());
        slots.resize_with(level.len(), || None);
        let worker_death = run_workers(
            &mut checkers,
            &mut sched.workers,
            &batches,
            &mut slots,
            |members, checker, out| {
                run_batch(
                    rel, reduction, members, &level, checker, config, shared, budget, out,
                )
            },
        );
        let results: Vec<SpecOutcome> = slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    SpecOutcome::Panicked(
                        worker_death
                            .clone()
                            .unwrap_or_else(|| "worker lost its level outcomes".to_string()),
                    )
                })
            })
            .collect();

        absorb_level_outcomes(
            &level,
            results,
            &mut states,
            level_no,
            config,
            budget,
            acc,
            failures,
            &mut next,
            &mut next_parts,
            recorder.as_deref_mut(),
        );
        std::mem::swap(&mut level, &mut next);
        level_no += 1;
        // Dump the completed boundary — but not a level cut short by the
        // global time budget or cancellation, whose skipped candidates
        // would be silently lost on resume. The previous boundary stays
        // the resume point in that case.
        if !budget.is_stopped() {
            if let Some(rec) = recorder.as_deref_mut() {
                record_checkpoint(
                    rec, level_no, &level, &states, acc, failures, budget, shared,
                );
            }
        }
    }
    matches!(config.mode, ParallelMode::WorkStealing(_)).then_some(sched)
}

/// Resume the search below a candidate whose OD direction `od.lhs → od.rhs`
/// has just been invalidated (used by [`crate::incremental`]).
///
/// When `X → Y` held, Algorithm 3 pruned the children `XA ~ Y`
/// (Theorem 3.9 made them derivable). Once the OD breaks on a grown
/// instance those children become genuine candidates again; this helper
/// re-runs the level driver over exactly that subtree, one branch with the
/// whole `max_checks` budget as its allowance, and returns the emissions,
/// the checks spent and why the re-open stopped.
pub(crate) fn resume_after_od_invalidation(
    rel: &Relation,
    universe: &[ColumnId],
    od_lhs: &AttrList,
    od_rhs: &AttrList,
    config: &DiscoveryConfig,
) -> (Vec<Ocd>, Vec<Od>, u64, TerminationReason) {
    let seeds: Vec<Candidate> = universe
        .iter()
        .copied()
        .filter(|&a| !od_lhs.contains(a) && !od_rhs.contains(a))
        .map(|a| Candidate {
            x: od_lhs.with_appended(a),
            y: od_rhs.clone(),
        })
        .collect();
    let level_no = od_lhs.len() + od_rhs.len() + 1;
    let reduction = Reduction {
        attributes: universe.to_vec(),
        ..Reduction::default()
    };
    let budget = Budget::new(config, crate::runtime::now(), 0);
    let mut acc = SearchAccumulator::default();
    let mut failures = Vec::new();
    run_levels(
        rel,
        &reduction,
        LevelCursor::one_branch(seeds, level_no, config),
        config,
        &budget,
        &shared_cache(config),
        &mut acc,
        &mut failures,
        None,
        None,
    );
    let termination = acc.settle(&failures, &budget);
    (acc.ocds, acc.ods, budget.checks(), termination)
}

/// Cost profile of one level-2 branch — the unit of distribution of the
/// paper's K-queue parallelization (§4.2.2). A candidate belongs to
/// exactly one branch (the pair of first attributes of its sides), so
/// branch costs fully determine how any K-queue assignment balances.
#[derive(Debug, Clone)]
pub struct BranchCost {
    /// The branch's seed pair (first attribute of each side).
    pub seed: (ColumnId, ColumnId),
    /// Wall-clock time to explore the whole subtree sequentially.
    pub elapsed: std::time::Duration,
    /// Candidate checks spent in the subtree.
    pub checks: u64,
    /// Valid OCDs found in the subtree.
    pub valid_ocds: u64,
}

/// Profile every level-2 branch of the search individually: run column
/// reduction (timed), then each seed's subtree on the level driver with
/// one worker.
///
/// Used by the Figure 6 harness to *simulate* the paper's K-queue speedup
/// on machines without enough cores to measure it: for K queues, the
/// simulated parallel time is `reduction + max over queues of the queue's
/// summed branch costs`, with the branches assigned round-robin as in
/// §4.2.2.
pub fn profile_branches(
    rel: &Relation,
    config: &DiscoveryConfig,
) -> (std::time::Duration, Vec<BranchCost>) {
    let t0 = crate::runtime::now();
    let reduction = if config.column_reduction {
        columns_reduction(rel)
    } else {
        unreduced(rel)
    };
    let reduction_time = t0.elapsed();

    // One worker, so each branch is timed on one thread.
    let config = DiscoveryConfig {
        mode: ParallelMode::Sequential,
        ..config.clone()
    };
    let mut costs = Vec::new();
    for seed in seed_candidates(&reduction) {
        let branch = seed.branch();
        let budget = Budget::new(&config, crate::runtime::now(), 0);
        let mut acc = SearchAccumulator::default();
        let t = crate::runtime::now();
        run_levels(
            rel,
            &reduction,
            LevelCursor::one_branch(vec![seed], 2, &config),
            &config,
            &budget,
            &shared_cache(&config),
            &mut acc,
            &mut Vec::new(),
            None,
            None,
        );
        costs.push(BranchCost {
            seed: branch,
            elapsed: t.elapsed(),
            checks: budget.checks(),
            valid_ocds: acc.ocds.len() as u64,
        });
    }
    (reduction_time, costs)
}

/// Level-2 seed candidates over the reduced universe: all pairs `(Ai, Aj)`
/// with `i < j` (OCDs are commutative, Algorithm 1 line 4). Over
/// descending twins, the first attribute is ascending (flipping every
/// direction keeps a dependency valid) and the second is not its twin.
fn seed_candidates(reduction: &Reduction) -> Vec<Candidate> {
    let universe = &reduction.attributes;
    let mut seeds = Vec::new();
    // lint: allow(unprobed-loop, level-2 seeding, bounded by the reduced universe width squared)
    for (i, &a) in universe.iter().enumerate() {
        if reduction.twinned && !a.is_multiple_of(2) {
            continue;
        }
        for &b in universe.iter().skip(i + 1) {
            if reduction.twinned && b == a ^ 1 {
                continue;
            }
            seeds.push(Candidate {
                x: AttrList::single(a),
                y: AttrList::single(b),
            });
        }
    }
    seeds
}

/// Run OCDDISCOVER over `rel` with the given configuration.
///
/// Returns the minimal OCDs and the disjoint-side ODs over the reduced
/// attribute universe, plus the reduction facts (constants, equivalence
/// classes, single-column ODs). Use [`crate::expand`] to translate the
/// result into the full set of ODs for comparison with other algorithms.
pub fn discover(rel: &Relation, config: &DiscoveryConfig) -> DiscoveryResult {
    let start = crate::runtime::now();
    let kernels_before = kernel_stats::snapshot();

    let reduction = run_reduction(rel, config);
    let mut recorder = config
        .checkpoint
        .clone()
        .map(|policy| CheckpointRecorder::new(policy, rel, config, start, kernels_before));

    let budget = Budget::new(config, start, reduction.checks);
    let shared = shared_cache(config);
    let cursor = LevelCursor::seeds(&reduction, config);

    let mut acc = SearchAccumulator::default();
    let mut failures: Vec<BranchFailure> = Vec::new();
    let scheduler = run_levels(
        rel,
        &reduction,
        cursor,
        config,
        &budget,
        &shared,
        &mut acc,
        &mut failures,
        recorder.as_mut(),
        None,
    );

    finalize_result(
        reduction,
        acc,
        &failures,
        &budget,
        &shared,
        scheduler,
        start.elapsed(),
        kernel_stats::snapshot().since(&kernels_before),
        recorder.as_mut(),
    )
}

/// The quarantine set a dump recorded.
fn failures_of(snap: &SearchSnapshot) -> Vec<BranchFailure> {
    snap.failures
        .iter()
        .map(|f| BranchFailure {
            branch: f.branch,
            message: f.message.clone(),
        })
        .collect()
}

/// Resume a checkpointed run from a [`SearchSnapshot`] (see
/// [`crate::snapshot`]): validate the dump against `rel` and `config`
/// (version, manifest hash, semantic config fingerprint, column ids and
/// branch records), rebuild the frontier and per-branch accounting, and
/// replay the remaining levels.
///
/// The result is **byte-identical** to what the uninterrupted run would
/// have produced — the same OCDs/ODs/constants/equivalence classes, the
/// same `checks`, `candidates_generated`, per-level stats, and termination
/// reason — across every [`ParallelMode`] and cache configuration, because
/// the level driver cannot distinguish a snapshot-built `LevelCursor` from
/// a fresh one. Wall-clock `elapsed` and kernel counters continue
/// cumulatively from the dump; the time budget, if any, restarts at the
/// resume (timing is not part of the deterministic result).
///
/// When `config.checkpoint` is also set, the resumed run keeps dumping at
/// level boundaries, so a resume can itself be killed and resumed.
pub fn discover_resume(
    rel: &Relation,
    config: &DiscoveryConfig,
    snap: &SearchSnapshot,
) -> Result<DiscoveryResult, SnapshotError> {
    snap.validate(rel, config)?;
    // A dump of the approximate pipeline describes a sample-triaged
    // frontier; replaying it through the exact search would silently
    // change what the levels mean. `discover_approximate_resume` is the
    // entry point for those dumps.
    if snap.approx.is_some() {
        return Err(SnapshotError::SampleMismatch("approx"));
    }
    let start = crate::runtime::now();

    let reduction = run_reduction(rel, config);
    // Kernel counters are snapshotted *after* the reduction recompute: the
    // dump's counters already include the original run's reduction, so
    // counting the recompute again would double it.
    let kernels_before = kernel_stats::snapshot();
    let mut recorder = config
        .checkpoint
        .clone()
        .map(|policy| CheckpointRecorder::resuming(policy, snap, config, start, kernels_before));

    // Seed the budget with the dump's cumulative counter — it already
    // includes the reduction checks, so the resumed run's `checks` column
    // continues exactly where the interrupted run left off.
    let budget = Budget::new(config, start, snap.checks);
    let shared = shared_cache(config);

    let mut acc = SearchAccumulator::from_snapshot(snap);
    let mut failures = failures_of(snap);
    let scheduler = run_levels(
        rel,
        &reduction,
        LevelCursor::from_snapshot(snap),
        config,
        &budget,
        &shared,
        &mut acc,
        &mut failures,
        recorder.as_mut(),
        None,
    );

    let elapsed = std::time::Duration::from_millis(snap.elapsed_ms).saturating_add(start.elapsed());
    let kernels = kernel_stats::snapshot()
        .since(&kernels_before)
        .plus(&snap.kernels);
    Ok(finalize_result(
        reduction,
        acc,
        &failures,
        &budget,
        &shared,
        scheduler,
        elapsed,
        kernels,
        recorder.as_mut(),
    ))
}

/// An approximate run on the level driver (see [`crate::approximate`]):
/// every worker's checker runs `triage`, from the level-2 seeds over every
/// column — approximate runs skip the column reduction — or from the
/// boundary of `resume`, which the caller has validated. Checkpoint dumps
/// carry `meta` with the accumulated errors and counters. Returns the
/// result without its stats, and the summed triage accounting.
pub(crate) fn discover_triaged(
    rel: &Relation,
    config: &DiscoveryConfig,
    triage: &SampleTriage<'_>,
    meta: ApproxMeta,
    resume: Option<&SearchSnapshot>,
) -> (ApproximateResult, TriageTally) {
    let start = crate::runtime::now();
    let kernels_before = kernel_stats::snapshot();
    let reduction = unreduced(rel);
    let (cursor, mut acc, mut failures, checks) = match resume {
        Some(snap) => (
            LevelCursor::from_snapshot(snap),
            SearchAccumulator::from_snapshot(snap),
            failures_of(snap),
            snap.checks,
        ),
        None => (
            LevelCursor::seeds(&reduction, config),
            SearchAccumulator::default(),
            Vec::new(),
            0,
        ),
    };
    let mut recorder = config.checkpoint.clone().map(|policy| {
        match resume {
            Some(snap) => CheckpointRecorder::resuming(policy, snap, config, start, kernels_before),
            None => CheckpointRecorder::new(policy, rel, config, start, kernels_before),
        }
        .with_approx(meta)
    });
    let budget = Budget::new(config, start, checks);
    run_levels(
        rel,
        &reduction,
        cursor,
        config,
        &budget,
        &shared_cache(config),
        &mut acc,
        &mut failures,
        recorder.as_mut(),
        Some(triage),
    );
    let termination = acc.settle(&failures, &budget);
    if let Some(rec) = recorder.as_mut() {
        rec.finish(&termination);
    }
    let tally = acc.tally;
    (triaged_result(acc, budget.checks(), termination), tally)
}

/// The tail of [`discover_triaged`]: the approximate result in its
/// canonical order (OCDs, then ODs, each sorted by their sides).
fn triaged_result(
    acc: SearchAccumulator,
    checks: u64,
    termination: TerminationReason,
) -> ApproximateResult {
    let mut ocds: Vec<ApproximateOcd> = acc
        .ocds
        .into_iter()
        .zip(acc.ocd_errors)
        .map(|(ocd, (removals, rows))| ApproximateOcd::from_parts(ocd, removals, rows))
        .collect();
    ocds.sort_by(|a, b| a.ocd.cmp(&b.ocd));
    ocds.dedup_by(|a, b| a.ocd == b.ocd);
    let mut ods = acc.ods;
    ods.sort();
    ods.dedup();
    ApproximateResult {
        ocds,
        ods,
        checks,
        termination,
        approx: None,
    }
}

/// The reduction of a run without column reduction: every column stays.
fn unreduced(rel: &Relation) -> Reduction {
    Reduction {
        attributes: (0..rel.num_columns()).collect(),
        ..Reduction::default()
    }
}

/// The column-reduction preprocessing of a run, threaded by mode (shared
/// by [`discover`] and [`discover_resume`] — reduction is deterministic,
/// so a resume recomputes the same facts the dump's run saw).
fn run_reduction(rel: &Relation, config: &DiscoveryConfig) -> Reduction {
    if config.column_reduction {
        crate::reduction::columns_reduction_with_threads(rel, worker_count(config.mode))
    } else {
        unreduced(rel)
    }
}

/// The shared tail of [`discover`] and [`discover_resume`]: quarantine
/// filtering and termination ([`SearchAccumulator::settle`]), canonical
/// ordering, the checkpoint recorder's end-of-run GC, and the result
/// assembly.
#[expect(
    clippy::too_many_arguments,
    reason = "the result assembles the reduction, accumulator, counters and recorder of one run"
)]
fn finalize_result(
    reduction: Reduction,
    mut acc: SearchAccumulator,
    failures: &[BranchFailure],
    budget: &Budget,
    shared: &SharedCache,
    scheduler: Option<SchedulerStats>,
    elapsed: std::time::Duration,
    kernels: kernel_stats::KernelCounts,
    recorder: Option<&mut CheckpointRecorder>,
) -> DiscoveryResult {
    let termination = acc.settle(failures, budget);

    // End-of-run checkpoint bookkeeping: GC the dumps of a complete run,
    // or persist a `-final` dump carrying the termination of an early stop.
    let checkpoint = recorder.map(|rec| {
        rec.finish(&termination);
        rec.stats()
    });

    // Canonical ordering: shorter dependencies first (the BFS guarantee),
    // then lexicographic — identical whatever the worker count.
    let mut ocds = acc.ocds;
    ocds.sort_by(|a, b| {
        (a.lhs.len() + a.rhs.len(), &a.lhs, &a.rhs).cmp(&(
            b.lhs.len() + b.rhs.len(),
            &b.lhs,
            &b.rhs,
        ))
    });
    ocds.dedup();
    let mut ods: Vec<Od> = acc.ods;
    ods.extend(reduction.single_ods.iter().cloned());
    ods.sort_by(|a, b| {
        (a.lhs.len() + a.rhs.len(), &a.lhs, &a.rhs).cmp(&(
            b.lhs.len() + b.rhs.len(),
            &b.lhs,
            &b.rhs,
        ))
    });
    ods.dedup();
    let mut levels = acc.levels;
    levels.sort_by_key(|s| s.level);

    DiscoveryResult {
        ocds,
        ods,
        constants: reduction.constants,
        equivalence_classes: reduction.equivalence_classes,
        reduced_attributes: reduction.attributes,
        checks: budget.checks(),
        candidates_generated: acc.generated,
        levels,
        elapsed,
        termination,
        cache: shared.as_ref().map(|c| c.stats()),
        scheduler,
        kernels,
        checkpoint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocdd_relation::{Relation, Value};

    fn rel(cols: &[(&str, &[i64])]) -> Relation {
        Relation::from_columns(
            cols.iter()
                .map(|(n, vals)| (n.to_string(), vals.iter().map(|&v| Value::Int(v)).collect()))
                .collect(),
        )
        .unwrap()
    }

    fn l(ids: &[usize]) -> AttrList {
        AttrList::from_slice(ids)
    }

    /// Independent oracle for the level driver: column reduction, then each
    /// level-2 branch's whole subtree on one checker, one branch at a time
    /// in canonical seed order with its `branch_allowances` share
    /// ([`run_subtree`]), merged into one accumulator. It shares the
    /// per-candidate step and the result assembly with [`discover`], but
    /// none of the level batching, scheduling or post-filter.
    fn discover_by_branches(rel: &Relation, config: &DiscoveryConfig) -> DiscoveryResult {
        let start = crate::runtime::now();
        let reduction = run_reduction(rel, config);
        let budget = Budget::new(config, start, reduction.checks);
        let shared = shared_cache(config);
        let mut checker = Checker::new(rel, config, &shared, None, None);
        let seeds = seed_candidates(&reduction);
        let allowances = branch_allowances(config.max_checks, reduction.checks, seeds.len());
        let mut acc = SearchAccumulator::default();
        for (seed, allowance) in seeds.into_iter().zip(allowances) {
            let mut branch = SearchAccumulator::default();
            run_subtree(
                &reduction,
                vec![seed],
                config,
                &budget,
                &mut checker,
                allowance,
                &mut branch,
            );
            acc.merge(branch);
        }
        finalize_result(
            reduction,
            acc,
            &[],
            &budget,
            &shared,
            None,
            start.elapsed(),
            kernel_stats::KernelCounts::default(),
            None,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The level driver against the branch-at-a-time oracle on random
        /// 3–5-column relations, across worker counts, checker backends,
        /// shared-cache settings, check budgets and a level cap: the same
        /// dependencies, checks, termination, per-level stats and
        /// generation count. A column is either random cells in `0..4` or
        /// a staircase `row / width` (ascending or descending): staircases
        /// of different widths are OCDs but no ODs, so their lattices grow
        /// deep enough for duplicate children and mid-level budget stops.
        #[test]
        fn driver_matches_branch_oracle(
            cols in 3usize..=5,
            rows in proptest::prelude::prop::collection::vec(
                proptest::prelude::prop::collection::vec(0i64..4, 5..=5),
                1..=14,
            ),
            shapes in proptest::prelude::prop::collection::vec(-4i64..=4, 5..=5),
            cap in 0u64..=600,
            capped in 0usize..2,
        ) {
            use proptest::prop_assert_eq;
            let n = rows.len() as i64;
            let r = Relation::from_columns(
                (0..cols)
                    .map(|c| {
                        let cells = rows.iter().enumerate().map(|(i, row)| {
                            let i = i as i64;
                            Value::Int(match shapes[c] {
                                0 => row[c],
                                w if w > 0 => i / w,
                                w => (n - 1 - i) / -w,
                            })
                        });
                        (format!("c{c}"), cells.collect())
                    })
                    .collect(),
            )
            .unwrap();
            let max_checks = (1..=300).contains(&cap).then_some(cap);
            let max_level = (capped == 1).then_some(3);
            for checker in [CheckerBackend::Resort, CheckerBackend::SortedPartitions] {
                for shared_cache in [false, true] {
                    let base = DiscoveryConfig {
                        checker,
                        shared_cache,
                        max_checks,
                        max_level,
                        ..DiscoveryConfig::default()
                    };
                    let oracle = discover_by_branches(&r, &base);
                    for mode in [
                        ParallelMode::Sequential,
                        ParallelMode::WorkStealing(1),
                        ParallelMode::WorkStealing(3),
                    ] {
                        let run = discover(&r, &DiscoveryConfig { mode, ..base.clone() });
                        let tag = format!("{mode:?}/{checker:?}/shared={shared_cache}/{max_checks:?}/{max_level:?}");
                        prop_assert_eq!(&oracle.ocds, &run.ocds, "{}: ocds", tag);
                        prop_assert_eq!(&oracle.ods, &run.ods, "{}: ods", tag);
                        prop_assert_eq!(oracle.checks, run.checks, "{}: checks", tag);
                        prop_assert_eq!(&oracle.termination, &run.termination, "{}", tag);
                        prop_assert_eq!(&oracle.levels, &run.levels, "{}: levels", tag);
                        prop_assert_eq!(
                            oracle.candidates_generated,
                            run.candidates_generated,
                            "{}: generated", tag
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn seeds_enumerate_unordered_pairs() {
        let mut reduction = Reduction {
            attributes: vec![0, 2, 5],
            ..Reduction::default()
        };
        let seeds = seed_candidates(&reduction);
        assert_eq!(seeds.len(), 3);
        assert_eq!(seeds[0].x, l(&[0]));
        assert_eq!(seeds[0].y, l(&[2]));
        assert_eq!(seeds[2].x, l(&[2]));
        assert_eq!(seeds[2].y, l(&[5]));
        // Twins of columns 0, 2 and 3: an ascending first mark, and never
        // a column with its own twin.
        reduction.attributes = vec![0, 1, 4, 5, 6, 7];
        reduction.twinned = true;
        let pairs: Vec<(ColumnId, ColumnId)> = seed_candidates(&reduction)
            .iter()
            .map(Candidate::branch)
            .collect();
        assert_eq!(pairs, [(0, 4), (0, 5), (0, 6), (0, 7), (4, 6), (4, 7)]);
    }

    #[test]
    fn table1_tax_example() {
        // Table 1 of the paper: income orders bracket and tax; tax <-> income.
        let r = rel(&[
            ("income", &[35_000, 40_000, 40_000, 55_000, 60_000, 80_000]),
            ("savings", &[3_000, 4_000, 3_800, 6_500, 6_500, 10_000]),
            ("bracket", &[1, 1, 1, 2, 2, 3]),
            ("tax", &[5_250, 6_000, 6_000, 8_500, 9_500, 14_000]),
        ]);
        let result = discover(&r, &DiscoveryConfig::default());
        assert!(result.complete());
        // income <-> tax collapses into one class {0, 3}.
        assert_eq!(result.equivalence_classes, vec![vec![0, 3]]);
        // income -> bracket survives as a single-column OD on representatives.
        assert!(result
            .ods
            .iter()
            .any(|od| od.lhs == l(&[0]) && od.rhs == l(&[2])));
        // income ~ savings is a discovered OCD.
        assert!(result
            .ocds
            .iter()
            .any(|o| o.canonical() == Ocd::new(l(&[0]), l(&[1])).canonical()));
    }

    #[test]
    fn no_dependencies_in_adversarial_relation() {
        // Latin-square-like data with swaps everywhere.
        let r = rel(&[
            ("a", &[1, 2, 3, 4]),
            ("b", &[2, 1, 4, 3]),
            ("c", &[3, 4, 1, 2]),
        ]);
        let result = discover(&r, &DiscoveryConfig::default());
        assert!(result.complete());
        assert!(result.ocds.is_empty());
        assert!(result.ods.is_empty());
        assert!(result.equivalence_classes.is_empty());
    }

    #[test]
    fn swap_prevents_ocd_no_style_table() {
        // Table 5(b)-style relation: splits in both directions plus a swap
        // between the last two rows, so not even A ~ B holds.
        let r = rel(&[("a", &[1, 2, 3, 3, 4]), ("b", &[4, 5, 6, 7, 1])]);
        let result = discover(&r, &DiscoveryConfig::default());
        assert!(result.ocds.is_empty());
        assert!(result.ods.is_empty());
    }

    #[test]
    fn split_only_pair_yields_ocd_but_no_od_yes_style_table() {
        // Table 5(a)-style relation: neither A -> B nor B -> A (splits both
        // ways) yet A ~ B holds, i.e. AB <-> BA — invisible to ORDER.
        let r = rel(&[("a", &[1, 1, 2, 2, 3]), ("b", &[1, 2, 2, 3, 3])]);
        let result = discover(&r, &DiscoveryConfig::default());
        assert_eq!(result.ocds, vec![Ocd::new(l(&[0]), l(&[1]))]);
        assert!(result.ods.is_empty());
    }

    #[test]
    fn valid_od_prunes_extensions() {
        // a strictly increasing key: a -> everything, so no child extends a.
        let r = rel(&[
            ("a", &[1, 2, 3, 4, 5, 6]),
            ("b", &[1, 1, 2, 2, 3, 3]),
            ("c", &[5, 4, 6, 2, 9, 1]),
        ]);
        let result = discover(&r, &DiscoveryConfig::default());
        assert!(result
            .ods
            .iter()
            .any(|od| od.lhs == l(&[0]) && od.rhs == l(&[1])));
        // No OCD should have lhs [a, x] for the a~b branch since a -> b
        // prunes X-extensions; but a ~ c fails outright (c is random), and
        // b -> a fails (split), so children [a]~[b,c] may exist if b~... :
        // just assert every emitted OCD/OD is between disjoint dup-free lists.
        for ocd in &result.ocds {
            assert!(ocd.is_syntactically_minimal(), "{ocd}");
        }
        for od in &result.ods {
            assert!(od.lhs.is_disjoint(&od.rhs), "{od}");
        }
    }

    #[test]
    fn modes_agree_on_random_relations() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for case in 0..8 {
            let rows = 30;
            let cols = 4;
            let data: Vec<(String, Vec<Value>)> = (0..cols)
                .map(|c| {
                    (
                        format!("c{c}"),
                        (0..rows)
                            .map(|_| Value::Int(rng.random_range(0..4)))
                            .collect(),
                    )
                })
                .collect();
            let r = Relation::from_columns(data).unwrap();
            let seq = discover(&r, &DiscoveryConfig::default());
            let oracle = discover_by_branches(&r, &DiscoveryConfig::default());
            assert_eq!(seq.ocds, oracle.ocds, "case {case}: branch oracle differs");
            assert_eq!(seq.ods, oracle.ods, "case {case}");
            assert_eq!(
                seq.checks, oracle.checks,
                "case {case}: same candidate tree"
            );
            assert!(seq.scheduler.is_none(), "sequential reports no scheduler");
            for workers in [1, 4] {
                let ws = discover(
                    &r,
                    &DiscoveryConfig {
                        mode: ParallelMode::WorkStealing(workers),
                        ..Default::default()
                    },
                );
                assert_eq!(seq.ocds, ws.ocds, "case {case}: ws({workers}) differs");
                assert_eq!(seq.ods, ws.ods, "case {case}: ws({workers})");
                assert_eq!(seq.checks, ws.checks, "case {case}: ws({workers}) tree");
                assert_eq!(seq.levels, ws.levels, "case {case}: ws({workers}) levels");
                let sched = ws.scheduler.expect("work-stealing reports scheduler stats");
                assert_eq!(sched.workers.len(), workers);
                assert_eq!(
                    sched.workers.iter().map(|w| w.batches).sum::<u64>(),
                    sched.batches,
                    "every batch executed exactly once"
                );
            }
        }
    }

    #[test]
    fn level_batches_group_by_shared_prefix() {
        // Hand-computed pin: one batch per distinct `x` side in order of
        // first appearance, members holding level indexes in level order.
        let c = |x: &[usize], y: &[usize]| Candidate { x: l(x), y: l(y) };
        let level = vec![
            c(&[0], &[1]),
            c(&[0], &[2]),
            c(&[1], &[2]),
            c(&[0], &[3]),
            c(&[1, 3], &[2]),
            c(&[1], &[3]),
        ];
        let batches = prefix_batches(&level, |c| &c.x);
        let keys: Vec<&AttrList> = batches.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![&l(&[0]), &l(&[1]), &l(&[1, 3])]);
        assert_eq!(batches[0].1, vec![0, 1, 3]);
        assert_eq!(batches[1].1, vec![2, 5]);
        assert_eq!(batches[2].1, vec![4]);
    }

    #[test]
    fn workstealing_truncates_max_checks_identically() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let r = random_rel(&mut rng);
        let full = discover(&r, &DiscoveryConfig::default());
        // A cap below the full cost forces a mid-search truncation; the
        // partial results must be byte-identical across modes.
        let cap = full.checks / 2;
        let seq = discover(
            &r,
            &DiscoveryConfig {
                max_checks: Some(cap),
                ..DiscoveryConfig::default()
            },
        );
        assert_eq!(seq.termination, TerminationReason::CheckBudget);
        for workers in [1, 2, 5] {
            let ws = discover(
                &r,
                &DiscoveryConfig {
                    mode: ParallelMode::WorkStealing(workers),
                    max_checks: Some(cap),
                    ..DiscoveryConfig::default()
                },
            );
            assert_eq!(seq.ocds, ws.ocds, "ws({workers})");
            assert_eq!(seq.ods, ws.ods, "ws({workers})");
            assert_eq!(seq.checks, ws.checks, "ws({workers})");
            assert_eq!(seq.levels, ws.levels, "ws({workers})");
            assert_eq!(seq.termination, ws.termination, "ws({workers})");
        }
    }

    #[test]
    fn checker_backends_do_not_change_results() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<(String, Vec<Value>)> = (0..5)
            .map(|c| {
                (
                    format!("c{c}"),
                    (0..40)
                        .map(|_| Value::Int(rng.random_range(0..3)))
                        .collect(),
                )
            })
            .collect();
        let r = Relation::from_columns(data).unwrap();
        let plain = discover(&r, &DiscoveryConfig::default());
        let partitions = discover(
            &r,
            &DiscoveryConfig {
                checker: CheckerBackend::SortedPartitions,
                ..Default::default()
            },
        );
        assert_eq!(plain.ocds, partitions.ocds);
        assert_eq!(plain.ods, partitions.ods);
        assert_eq!(plain.checks, partitions.checks, "same tree");
    }

    #[test]
    fn shared_cache_never_changes_results() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        // Three random columns plus a staircase pair of widths 3 and 5:
        // an OCD but no OD, so the search reaches level 3, past the
        // level-2 verdicts the reduction hands the partition checker.
        let data: Vec<(String, Vec<Value>)> = (0..5)
            .map(|c| {
                (
                    format!("c{c}"),
                    (0..40i64)
                        .map(|i| match c {
                            3 => Value::Int(i / 3),
                            4 => Value::Int(i / 5),
                            _ => Value::Int(rng.random_range(0..3)),
                        })
                        .collect(),
                )
            })
            .collect();
        let r = Relation::from_columns(data).unwrap();
        let baseline = discover(&r, &DiscoveryConfig::default());
        assert!(baseline.cache.is_none(), "no shared cache by default");
        let deep = baseline
            .levels
            .iter()
            .any(|s| s.level >= 3 && s.candidates > 0);
        assert!(deep, "the staircase pair reaches level 3");
        for backend in [CheckerBackend::Resort, CheckerBackend::SortedPartitions] {
            for mode in [ParallelMode::Sequential, ParallelMode::WorkStealing(3)] {
                let shared = discover(
                    &r,
                    &DiscoveryConfig {
                        mode,
                        checker: backend,
                        shared_cache: true,
                        ..Default::default()
                    },
                );
                assert_eq!(baseline.ocds, shared.ocds, "{backend:?}/{mode:?}");
                assert_eq!(baseline.ods, shared.ods, "{backend:?}/{mode:?}");
                assert_eq!(baseline.checks, shared.checks, "{backend:?}/{mode:?}");
                assert_eq!(baseline.levels, shared.levels, "{backend:?}/{mode:?}");
                if backend == CheckerBackend::Resort {
                    assert!(shared.cache.is_none(), "Resort caches nothing");
                } else {
                    // Level 2 reads the reduction's verdicts; every deeper
                    // candidate goes through the cache.
                    let stats = shared.cache.expect("cache stats present");
                    assert!(stats.hits + stats.misses > 0, "{mode:?}: cache unused");
                }
            }
        }
    }

    #[test]
    fn tiny_cache_budget_still_correct() {
        // A budget that fits almost nothing forces constant eviction and
        // recomputation — results must be unaffected.
        let r = rel(&[
            ("a", &[1, 1, 2, 2, 3, 3]),
            ("b", &[1, 2, 2, 3, 3, 4]),
            ("c", &[6, 3, 1, 5, 2, 4]),
            ("d", &[1, 2, 3, 4, 5, 6]),
        ]);
        let baseline = discover(&r, &DiscoveryConfig::default());
        for mode in [ParallelMode::Sequential, ParallelMode::WorkStealing(2)] {
            let squeezed = discover(
                &r,
                &DiscoveryConfig {
                    mode,
                    checker: CheckerBackend::SortedPartitions,
                    shared_cache: true,
                    cache_budget_bytes: 256,
                    ..Default::default()
                },
            );
            assert_eq!(baseline.ocds, squeezed.ocds, "{mode:?}");
            assert_eq!(baseline.ods, squeezed.ods, "{mode:?}");
        }
    }

    #[test]
    fn max_level_truncates_and_flags_incomplete() {
        let r = rel(&[
            ("a", &[1, 2, 3, 4]),
            ("b", &[1, 3, 2, 4]),
            ("c", &[4, 3, 2, 1]),
        ]);
        let full = discover(&r, &DiscoveryConfig::default());
        let limited = discover(
            &r,
            &DiscoveryConfig {
                max_level: Some(2),
                ..Default::default()
            },
        );
        assert!(limited.levels.iter().all(|s| s.level <= 2));
        if full.levels.iter().any(|s| s.level > 2) {
            assert!(!limited.complete());
        }
    }

    #[test]
    fn max_checks_budget_stops_early() {
        let r = rel(&[
            ("a", &[1, 2, 3, 4, 5]),
            ("b", &[2, 1, 3, 5, 4]),
            ("c", &[1, 3, 2, 4, 5]),
            ("d", &[5, 4, 3, 2, 1]),
        ]);
        let result = discover(
            &r,
            &DiscoveryConfig {
                max_checks: Some(13),
                ..Default::default()
            },
        );
        assert!(!result.complete());
        // Partial results are still well-formed.
        for ocd in &result.ocds {
            assert!(ocd.is_syntactically_minimal());
        }
    }

    #[test]
    fn dedup_reduces_candidate_count_but_not_results() {
        // Need a relation deep enough that a candidate has two valid parents.
        let r = rel(&[
            ("a", &[1, 1, 2, 2, 3, 3, 4, 4]),
            ("b", &[1, 2, 1, 2, 3, 4, 3, 4]),
            ("c", &[1, 1, 1, 2, 2, 2, 3, 3]),
            ("d", &[0, 1, 1, 2, 2, 3, 3, 4]),
        ]);
        let with = discover(&r, &DiscoveryConfig::default());
        let without = discover(
            &r,
            &DiscoveryConfig {
                dedup_candidates: false,
                ..Default::default()
            },
        );
        assert_eq!(with.ocds, without.ocds);
        assert_eq!(with.ods, without.ods);
        assert!(without.checks >= with.checks);
    }

    #[test]
    fn bfs_emits_shorter_dependencies_first() {
        let r = rel(&[
            ("a", &[1, 1, 2, 2]),
            ("b", &[1, 2, 1, 2]),
            ("c", &[1, 2, 2, 3]),
        ]);
        let result = discover(&r, &DiscoveryConfig::default());
        let lens: Vec<usize> = result
            .ocds
            .iter()
            .map(|o| o.lhs.len() + o.rhs.len())
            .collect();
        let mut sorted = lens.clone();
        sorted.sort_unstable();
        assert_eq!(lens, sorted);
    }

    #[test]
    fn branch_profile_covers_whole_search() {
        let r = rel(&[
            ("a", &[1, 1, 2, 2, 3, 3]),
            ("b", &[1, 2, 2, 3, 3, 4]),
            ("c", &[6, 3, 1, 5, 2, 4]),
        ]);
        let config = DiscoveryConfig::default();
        let (reduction_time, branches) = profile_branches(&r, &config);
        let full = discover(&r, &config);
        // One branch per reduced-attribute pair.
        let n = full.reduced_attributes.len();
        assert_eq!(branches.len(), n * (n - 1) / 2);
        // Branch checks plus reduction checks account for every check of
        // the full run (duplicates only arise within a branch, so per-branch
        // dedup equals the full run's global dedup).
        let branch_checks: u64 = branches.iter().map(|b| b.checks).sum();
        let red = columns_reduction(&r);
        assert_eq!(branch_checks + red.checks, full.checks);
        // OCD totals agree.
        let branch_ocds: u64 = branches.iter().map(|b| b.valid_ocds).sum();
        assert_eq!(branch_ocds as usize, full.ocds.len());
        let _ = reduction_time;
    }

    #[test]
    fn empty_and_single_column_relations() {
        let r = Relation::from_columns(vec![]).unwrap();
        let result = discover(&r, &DiscoveryConfig::default());
        assert!(result.complete());
        assert_eq!(result.checks, 0);

        let r = rel(&[("a", &[1, 2, 3])]);
        let result = discover(&r, &DiscoveryConfig::default());
        assert!(result.ocds.is_empty());
        assert!(result.complete());
    }

    // ---- fault tolerance & cancellation ---------------------------------

    use crate::runtime::{FaultPlan, RunController};
    use std::time::Duration;

    /// Random 4-column relation of noisy co-monotone columns: enough
    /// OCDs/ODs that every level-2 branch has something to lose.
    /// A dependency-rich random relation: each column is a staircase with a
    /// randomly drawn, pairwise distinct tie width (so every ascending pair
    /// is an OCD but almost never an OD), and occasionally descending (so
    /// some branches are pruned at level 2).
    fn random_rel(rng: &mut rand::rngs::StdRng) -> Relation {
        use rand::RngExt;
        let rows = rng.random_range(18..36) as i64;
        let mut widths = [2i64, 3, 4, 5, 7, 9];
        for i in 0..4 {
            let j = rng.random_range(i..widths.len());
            widths.swap(i, j);
        }
        let data: Vec<(String, Vec<Value>)> = (0..4)
            .map(|c| {
                let w = widths[c];
                let descending = rng.random_range(0..4) == 0;
                let col = (0..rows)
                    .map(|r| {
                        let r = if descending { rows - 1 - r } else { r };
                        Value::Int(r / w)
                    })
                    .collect();
                (format!("c{c}"), col)
            })
            .collect();
        Relation::from_columns(data).unwrap()
    }

    /// Every column is monotone non-decreasing in row order with a distinct
    /// tie width, so every OCD is valid and no OD (or equivalence) ever is:
    /// the candidate tree is the full exponential lattice — enough work
    /// that a concurrent cancel lands mid-run.
    fn staircase(cols: usize, rows: usize) -> Relation {
        let data: Vec<(String, Vec<Value>)> = (0..cols)
            .map(|c| {
                (
                    format!("c{c}"),
                    (0..rows)
                        .map(|r| Value::Int((r / (c + 2)) as i64))
                        .collect(),
                )
            })
            .collect();
        Relation::from_columns(data).unwrap()
    }

    fn with_fault(mode: ParallelMode, plan: FaultPlan) -> DiscoveryConfig {
        DiscoveryConfig {
            mode,
            fault: Some(Arc::new(plan)),
            ..DiscoveryConfig::default()
        }
    }

    /// Inject a panic into the level-2 branch of `clean`'s first OCD and
    /// assert the quarantine contract: `WorkerFailure` naming exactly that
    /// branch, OCDs equal to the fault-free set minus the branch's, and no
    /// OD lost outside the branch.
    fn assert_branch_quarantined(r: &Relation, mode: ParallelMode, label: &str) {
        let clean = discover(
            r,
            &DiscoveryConfig {
                mode,
                ..DiscoveryConfig::default()
            },
        );
        let branch = ocd_branch(clean.ocds.first().expect("test relation must have OCDs"));
        let mut plan = FaultPlan::default();
        plan.panic_on_branch = Some(branch);
        let faulty = discover(r, &with_fault(mode, plan));
        match &faulty.termination {
            TerminationReason::WorkerFailure { branches, message } => {
                assert_eq!(branches, &vec![branch], "{label}");
                assert!(message.contains("injected panic"), "{label}: {message}");
            }
            other => panic!("{label}: expected WorkerFailure, got {other:?}"),
        }
        assert!(!faulty.complete());
        let expected: Vec<Ocd> = clean
            .ocds
            .iter()
            .filter(|o| ocd_branch(o) != branch)
            .cloned()
            .collect();
        assert_eq!(
            faulty.ocds, expected,
            "{label}: OCDs beyond the branch lost"
        );
        for od in &faulty.ods {
            assert!(
                clean.ods.contains(od),
                "{label}: OD {od:?} not in clean run"
            );
        }
        for od in clean.ods.iter().filter(|od| !faulty.ods.contains(od)) {
            assert_eq!(
                od_branch(od),
                branch,
                "{label}: lost an OD outside the quarantined branch"
            );
        }
        // Reduction facts are computed before the search and never lost.
        assert_eq!(faulty.constants, clean.constants, "{label}");
        assert_eq!(
            faulty.equivalence_classes, clean.equivalence_classes,
            "{label}"
        );
    }

    #[test]
    fn branch_panic_quarantines_only_that_branch() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(42);
        let mut exercised = 0;
        for case in 0..8 {
            let r = random_rel(&mut rng);
            if discover(&r, &DiscoveryConfig::default()).ocds.is_empty() {
                continue;
            }
            exercised += 1;
            assert_branch_quarantined(&r, ParallelMode::WorkStealing(4), &format!("case {case}"));
        }
        assert!(exercised >= 3, "test data must contain OCDs");
    }

    #[test]
    fn every_mode_survives_branch_panic() {
        // Rich-in-dependencies fixed relation (Table 1 family).
        let r = rel(&[
            ("income", &[35_000, 40_000, 40_000, 55_000, 60_000, 80_000]),
            ("savings", &[3_000, 4_000, 3_800, 6_500, 6_500, 10_000]),
            ("bracket", &[1, 1, 1, 2, 2, 3]),
        ]);
        for (mode, label) in [
            (ParallelMode::Sequential, "sequential"),
            (ParallelMode::WorkStealing(3), "work_stealing"),
        ] {
            assert_branch_quarantined(&r, mode, label);
        }
    }

    #[test]
    fn nth_candidate_panic_degrades_not_crashes() {
        let r = staircase(4, 24);
        for (mode, label) in [
            (ParallelMode::Sequential, "sequential"),
            (ParallelMode::WorkStealing(2), "work_stealing"),
        ] {
            let clean = discover(
                &r,
                &DiscoveryConfig {
                    mode,
                    ..DiscoveryConfig::default()
                },
            );
            let mut plan = FaultPlan::default();
            plan.panic_after_checks = Some(2);
            let faulty = discover(&r, &with_fault(mode, plan));
            let TerminationReason::WorkerFailure { branches, .. } = &faulty.termination else {
                panic!(
                    "{label}: expected WorkerFailure, got {:?}",
                    faulty.termination
                );
            };
            assert!(!branches.is_empty(), "{label}");
            // Partial results are a sound subset of the fault-free run.
            for ocd in &faulty.ocds {
                assert!(clean.ocds.contains(ocd), "{label}: spurious OCD {ocd:?}");
            }
            for od in &faulty.ods {
                assert!(clean.ods.contains(od), "{label}: spurious OD {od:?}");
            }
        }
    }

    #[test]
    fn cache_eviction_storm_changes_no_results() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let r = random_rel(&mut rng);
        // The epoch cache under one worker and under three.
        for mode in [ParallelMode::Sequential, ParallelMode::WorkStealing(3)] {
            let base = DiscoveryConfig {
                mode,
                checker: CheckerBackend::SortedPartitions,
                shared_cache: true,
                ..DiscoveryConfig::default()
            };
            let clean = discover(&r, &base);
            let mut plan = FaultPlan::default();
            plan.drop_cache_inserts = true;
            let stormy = discover(
                &r,
                &DiscoveryConfig {
                    fault: Some(Arc::new(plan)),
                    ..base
                },
            );
            assert_eq!(clean.ocds, stormy.ocds, "{mode:?}");
            assert_eq!(clean.ods, stormy.ods, "{mode:?}");
            assert_eq!(clean.checks, stormy.checks, "{mode:?}");
            assert!(stormy.complete(), "{mode:?}");
            let cache = stormy.cache.expect("shared cache stats");
            assert_eq!(cache.entries, 0, "{mode:?}: every insert dropped");
            assert!(cache.evictions > 0, "{mode:?}: drops count as evictions");
        }
    }

    #[test]
    fn injected_latency_trips_the_time_budget() {
        let r = staircase(3, 24);
        let mut plan = FaultPlan::default();
        plan.check_delay = Some(Duration::from_millis(3));
        let result = discover(
            &r,
            &DiscoveryConfig {
                time_budget: Some(Duration::from_millis(5)),
                fault: Some(Arc::new(plan)),
                ..DiscoveryConfig::default()
            },
        );
        assert_eq!(result.termination, TerminationReason::TimeBudget);
        for ocd in &result.ocds {
            assert!(ocd.is_syntactically_minimal());
        }
    }

    #[test]
    fn pre_cancelled_run_stops_in_first_batch() {
        let r = staircase(4, 24);
        let full = discover(&r, &DiscoveryConfig::default());
        for (mode, label) in [
            (ParallelMode::Sequential, "sequential"),
            (ParallelMode::WorkStealing(3), "work_stealing"),
        ] {
            let controller = RunController::new();
            controller.cancel();
            let result = discover(
                &r,
                &DiscoveryConfig {
                    mode,
                    controller: Some(controller),
                    ..DiscoveryConfig::default()
                },
            );
            assert_eq!(result.termination, TerminationReason::Cancelled, "{label}");
            assert!(
                result.ocds.len() < full.ocds.len(),
                "{label}: cancellation must cut the run short"
            );
            for ocd in &result.ocds {
                assert!(full.ocds.contains(ocd), "{label}: spurious OCD");
            }
        }
    }

    #[test]
    // A test thread cancels the run from outside, as a caller would.
    #[allow(clippy::disallowed_methods)]
    fn concurrent_cancel_stops_a_running_search() {
        // Exponential workload; the 30 s time budget is only a failsafe so
        // a broken cancellation path fails the assert instead of hanging.
        let r = staircase(7, 120);
        let controller = RunController::new();
        let canceller = controller.clone();
        let config = DiscoveryConfig {
            mode: ParallelMode::WorkStealing(4),
            controller: Some(controller),
            time_budget: Some(Duration::from_secs(30)),
            ..DiscoveryConfig::default()
        };
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            canceller.cancel();
        });
        let result = discover(&r, &config);
        handle.join().unwrap();
        assert_eq!(result.termination, TerminationReason::Cancelled);
        for ocd in &result.ocds {
            assert!(ocd.is_syntactically_minimal());
        }
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ocdd-search-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The deterministic result fields two runs must agree on byte-for-byte
    /// (elapsed/kernels/cache/scheduler/checkpoint are observability).
    fn assert_same_result(a: &DiscoveryResult, b: &DiscoveryResult, label: &str) {
        assert_eq!(a.ocds, b.ocds, "{label}: ocds");
        assert_eq!(a.ods, b.ods, "{label}: ods");
        assert_eq!(a.constants, b.constants, "{label}: constants");
        assert_eq!(
            a.equivalence_classes, b.equivalence_classes,
            "{label}: classes"
        );
        assert_eq!(a.checks, b.checks, "{label}: checks");
        assert_eq!(
            a.candidates_generated, b.candidates_generated,
            "{label}: generated"
        );
        assert_eq!(a.levels, b.levels, "{label}: levels");
        assert_eq!(a.termination, b.termination, "{label}: termination");
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_dumps_boundaries() {
        use crate::snapshot::{list_snapshots, CheckpointPolicy};
        let r = staircase(4, 40);
        let plain = discover(&r, &DiscoveryConfig::default());
        let dir = ckpt_dir("plain");
        let policy = CheckpointPolicy {
            keep_last: 0,
            delete_on_complete: false,
            ..CheckpointPolicy::new(&dir)
        };
        for mode in [ParallelMode::Sequential, ParallelMode::WorkStealing(3)] {
            let ck = discover(
                &r,
                &DiscoveryConfig {
                    mode,
                    checkpoint: Some(policy.clone()),
                    ..DiscoveryConfig::default()
                },
            );
            assert_same_result(&plain, &ck, &format!("{mode:?}"));
            let stats = ck.checkpoint.expect("checkpoint stats present");
            assert!(stats.snapshots_written > 0, "{mode:?}");
            assert_eq!(stats.write_errors, 0, "{mode:?}");
        }
        assert!(!list_snapshots(&dir, None).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_every_boundary_matches_uninterrupted() {
        use crate::snapshot::{list_snapshots, read_snapshot, CheckpointPolicy};
        let r = staircase(5, 60);
        // A complete run, and one whose last boundary follows the level
        // `max_level` cut: an empty frontier with the cap recorded.
        for max_level in [None, Some(3)] {
            let base = DiscoveryConfig {
                max_level,
                ..DiscoveryConfig::default()
            };
            let full = discover(&r, &base);
            let want = match max_level {
                None => TerminationReason::Complete,
                Some(_) => TerminationReason::LevelCap,
            };
            assert_eq!(full.termination, want);

            // One checkpointed reference run keeping every boundary dump.
            let dir = ckpt_dir(&format!("resume-{}", max_level.unwrap_or(0)));
            let config = DiscoveryConfig {
                checkpoint: Some(CheckpointPolicy {
                    keep_last: 0,
                    delete_on_complete: false,
                    ..CheckpointPolicy::new(&dir)
                }),
                ..base.clone()
            };
            let ck = discover(&r, &config);
            assert_same_result(&full, &ck, "checkpointed reference");

            // Resuming from every retained boundary — i.e. as if the process
            // had been killed at any level — reproduces the uninterrupted
            // result under every backend.
            let dumps = list_snapshots(&dir, None).unwrap();
            assert!(dumps.len() >= 2, "expected several boundaries: {dumps:?}");
            for dump in &dumps {
                let snap = read_snapshot(dump).unwrap();
                for mode in [
                    ParallelMode::Sequential,
                    ParallelMode::WorkStealing(2),
                    ParallelMode::WorkStealing(3),
                ] {
                    let config = DiscoveryConfig {
                        mode,
                        ..base.clone()
                    };
                    let resumed = discover_resume(&r, &config, &snap).unwrap();
                    assert_same_result(
                        &full,
                        &resumed,
                        &format!("{mode:?} from {}", dump.display()),
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The post-filter builds no level the driver will not check: none
    /// after a budget stop, and none past `max_level`, where the children
    /// are only counted and the cap is recorded.
    #[test]
    fn absorb_builds_no_unchecked_level() {
        let r = staircase(3, 12);
        let reduction = columns_reduction(&r);
        let level = seed_candidates(&reduction);
        let queue: Vec<(Candidate, u64)> = level.iter().map(|c| (c.clone(), u64::MAX)).collect();
        let stopped = DiscoveryConfig {
            time_budget: Some(Duration::ZERO),
            ..DiscoveryConfig::default()
        };
        let capped = DiscoveryConfig {
            max_level: Some(2),
            ..DiscoveryConfig::default()
        };
        for config in [stopped, capped] {
            let budget = Budget::new(&config, crate::runtime::now(), 0);
            let _ = budget.probe_now();
            let mut checker = Checker::new(&r, &config, &None, None, None);
            let outcomes = level
                .iter()
                .map(|cand| {
                    let mut em = Emission::default();
                    process_candidate(&reduction, cand, &mut checker, &mut em, config.max_level);
                    SpecOutcome::Done(em)
                })
                .collect();
            let mut acc = SearchAccumulator::default();
            let mut next = Vec::new();
            absorb_level_outcomes(
                &level,
                outcomes,
                &mut branch_states(&queue),
                2,
                &config,
                &budget,
                &mut acc,
                &mut Vec::new(),
                &mut next,
                &mut Vec::new(),
                None,
            );
            let tag = format!("{:?}/{:?}", config.time_budget, config.max_level);
            assert!(next.is_empty(), "{tag}: built {} candidates", next.len());
            assert_eq!(acc.levels[0].candidates, 3, "{tag}: every outcome absorbed");
            assert_eq!(acc.generated, 5, "{tag}: children counted");
            assert_eq!(acc.level_capped, budget.cause().is_none(), "{tag}");
        }
    }

    #[test]
    fn resume_continues_a_check_budget_stop() {
        use crate::snapshot::{latest_snapshot, read_snapshot, CheckpointPolicy};
        let r = staircase(5, 40);
        let full = discover(&r, &DiscoveryConfig::default());
        let capped = DiscoveryConfig {
            max_checks: Some(30),
            ..DiscoveryConfig::default()
        };
        let dir = ckpt_dir("budget");
        let stopped = discover(
            &r,
            &DiscoveryConfig {
                checkpoint: Some(CheckpointPolicy::new(&dir)),
                ..capped.clone()
            },
        );
        assert_eq!(stopped.termination, TerminationReason::CheckBudget);
        // The early stop leaves a -final dump carrying the termination.
        let last = latest_snapshot(&dir).unwrap();
        assert!(last.to_string_lossy().contains("-final"), "{last:?}");
        let snap = read_snapshot(&last).unwrap();
        assert_eq!(snap.termination, Some(TerminationReason::CheckBudget));
        // Resuming under the same (semantic) config replays the stop.
        let resumed = discover_resume(&r, &capped, &snap).unwrap();
        assert_same_result(&stopped, &resumed, "budget stop replay");
        // And a config with a different budget is refused.
        assert!(matches!(
            discover_resume(&r, &DiscoveryConfig::default(), &snap),
            Err(crate::snapshot::SnapshotError::ConfigMismatch("max_checks"))
        ));
        assert!(stopped.ocds.len() <= full.ocds.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
