//! Configuration for a discovery run.

use crate::runtime::RunController;
use crate::snapshot::CheckpointPolicy;
use std::time::Duration;

/// How the candidate tree is traversed (§4.2.2). Both modes run the same
/// level-synchronous driver and return byte-identical results; they differ
/// only in how many workers check a level's candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelMode {
    /// Breadth-first search on one worker (Algorithm 1 as written).
    #[default]
    Sequential,
    /// Level-synchronous batch scheduler: each level's candidates are
    /// grouped into batches by their shared sort-key prefix (the `X` of
    /// the single OCD check `XY → YX`), so the prefix is materialized once
    /// per batch and refined per candidate. Batches are executed by `k`
    /// workers over work-stealing deques ([`crate::scheduler`]), and the
    /// run reports their [`crate::scheduler::SchedulerStats`]. The paper's
    /// own K-queue parallelization (round-robin level-2 branches) is
    /// reproduced by simulation over [`crate::search::profile_branches`].
    WorkStealing(usize),
}

/// The largest worker count the command-line tools accept for `--threads`
/// (`ocdd profile`, `experiments`); above it they print their usage text
/// and exit 2. The engine takes any [`ParallelMode::WorkStealing`] count:
/// a level never runs more threads than it has batches, and each worker
/// beyond that costs one idle checker.
pub const MAX_WORKERS: usize = 1024;

/// How candidate checks are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckerBackend {
    /// Re-sort the row index for every candidate — Algorithm 2 as written
    /// (the paper's faithful behaviour). The default.
    #[default]
    Resort,
    /// Memoized set-based canonical facts over context partitions
    /// ([`crate::sorted_partitions::PartitionChecker`]) — the
    /// linear-row-scaling method §5.3.1 mentions as possible future work.
    SortedPartitions,
}

/// Tunables of the OCDDISCOVER run.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Traversal / parallelism mode.
    pub mode: ParallelMode,
    /// Deduplicate candidates within a level (a candidate can be generated
    /// by up to two parents). On by default; off reproduces the raw
    /// generation counts of Algorithm 3 and is exercised by the ablation
    /// bench.
    pub dedup_candidates: bool,
    /// Which checker backend validates candidates; see [`CheckerBackend`].
    pub checker: CheckerBackend,
    /// Share one epoch-published cache of context partitions
    /// ([`crate::shared_cache::EpochPrefixCache`]) across every worker of
    /// the run, in either [`ParallelMode`], instead of keeping a private
    /// memo per worker. Off by default; it never changes results, only how
    /// often partitions are recomputed. No effect under
    /// [`CheckerBackend::Resort`], which caches nothing by definition.
    pub shared_cache: bool,
    /// Byte budget of the shared cache: above it, least-recently-used
    /// entries are evicted (and recomputed on demand if needed again).
    /// Ignored unless `shared_cache` is set.
    pub cache_budget_bytes: usize,
    /// Run the column-reduction preprocessing (§4.1). On by default;
    /// disabling it is only useful for ablation.
    pub column_reduction: bool,
    /// Stop after exploring this level (combined list length). `None`
    /// explores the full tree.
    pub max_level: Option<usize>,
    /// Abort (with partial results) after this many candidate checks.
    pub max_checks: Option<u64>,
    /// Abort (with partial results) after this wall-clock budget — the
    /// paper uses a 5-hour threshold and reports partial results (§5.1).
    pub time_budget: Option<Duration>,
    /// Cooperative cancellation handle. Keep a clone and call
    /// [`RunController::cancel`] from another thread to stop the run with
    /// partial results ([`crate::TerminationReason::Cancelled`]). `None`
    /// (the default) means the run cannot be cancelled externally.
    pub controller: Option<RunController>,
    /// Durable checkpointing: when set, the search dumps its frontier
    /// state to `policy.dir` at level boundaries (atomic tmp+fsync+rename
    /// writes), so an interrupted run can be resumed byte-identically with
    /// [`crate::search::discover_resume`] / `ocdd --resume`. `None` (the
    /// default) writes nothing. See [`crate::snapshot`] and DESIGN.md §13.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Fault-injection plan for the run — test/`fault-injection`-feature
    /// builds only. See [`crate::runtime::FaultPlan`].
    #[cfg(any(test, feature = "fault-injection"))]
    pub fault: Option<std::sync::Arc<crate::runtime::FaultPlan>>,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            mode: ParallelMode::Sequential,
            dedup_candidates: true,
            checker: CheckerBackend::Resort,
            shared_cache: false,
            cache_budget_bytes: 256 << 20,
            column_reduction: true,
            max_level: None,
            max_checks: None,
            time_budget: None,
            controller: None,
            checkpoint: None,
            #[cfg(any(test, feature = "fault-injection"))]
            fault: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_faithful_to_the_paper() {
        let c = DiscoveryConfig::default();
        assert_eq!(c.mode, ParallelMode::Sequential);
        assert!(c.dedup_candidates);
        assert_eq!(
            c.checker,
            CheckerBackend::Resort,
            "faithful checker re-sorts per candidate"
        );
        assert!(c.column_reduction);
        assert!(!c.shared_cache, "shared cache is an opt-in optimization");
        assert!(c.cache_budget_bytes > 0);
        assert!(c.max_level.is_none() && c.max_checks.is_none() && c.time_budget.is_none());
        assert!(
            c.controller.is_none(),
            "no external cancellation by default"
        );
        assert!(c.checkpoint.is_none(), "checkpointing is opt-in");
    }
}
