//! Approximate order dependencies: dependencies that hold after removing a
//! bounded fraction of rows — discovered sample-first with full-data
//! escalation.
//!
//! # Error measure
//!
//! The FD literature the paper builds on (§6) uses the `g3` error — the
//! minimum fraction of tuples whose removal makes the dependency exact.
//! Both components of an OD admit an exact, efficient `g3`:
//!
//! * **Order compatibility** (`X ~ Y`, swap violations): after sorting the
//!   rows by `(X, Y)`, a subset of rows is swap-free **iff** its `Y`
//!   projection is non-decreasing in that order (ties on `X` are sorted by
//!   `Y`, so they can never decrease). The largest such subset is the
//!   longest non-decreasing subsequence, computable in `O(m log m)` by
//!   patience sorting.
//! * **Functional dependency** (`X → Y` as sets, split violations): within
//!   each `X`-equivalence class, keep the most frequent `Y`-projection;
//!   everything else must go. The classes are contiguous runs of the same
//!   `(X, Y)` order, so one walk over it yields both components.
//!
//! An approximate OD holds at tolerance `ε` when both error components are
//! at most `ε·m`. (The exact joint minimum removal is NP-hard in general;
//! reporting the two components separately is the standard practice and an
//! upper bound of at most their sum.)
//!
//! # The sample-first pipeline
//!
//! [`discover_approximate_with`] runs the OCDDISCOVER traversal on the
//! same level driver as the exact search (`crate::search`), against a
//! deterministic, seeded row sample ([`ocdd_relation::sample`], DESIGN.md
//! §14) instead of the full relation: the ε-triage is a mode of the
//! driver's per-worker checker. Per check it computes the swap/split
//! error *estimate* on the sample, widens it by a Hoeffding-style
//! confidence half-width ([`hoeffding_half_width`]) and triages
//! ([`triage`]):
//!
//! * **Accept** — estimate + half-width ≤ ε: emitted on the sample's
//!   evidence alone (heuristic: the full-data error could exceed ε with
//!   probability ≤ 1 − confidence per component).
//! * **Reject** — estimate − half-width > ε: the subtree is pruned
//!   exactly as in the exact search. Theorem 3.7 pruning is *sound* here
//!   in the same heuristic sense the fixed-threshold checker always had
//!   (approximate ODs are not downward closed), and the rejection itself
//!   errs on the side of pruning only clearly-bad candidates.
//! * **Borderline** — the interval straddles ε: the check *escalates*
//!   inline to a full-data check on the same worker's exact backend,
//!   where the batch's prefix partition is already warm. A full-data-exact
//!   OCD lets the OD directions reuse the fused split-only
//!   `check_od_after_ocd` scan instead of a fresh error decomposition.
//!
//! Each candidate's triage counts and OCD error travel in its driver
//! emission, so budgets, branch quarantine, checkpoints and resume follow
//! the exact search's rules (DESIGN.md §8, §13). Approximate runs skip the
//! column reduction: near-constant columns are precisely what ε-tolerance
//! is for.
//!
//! With `sample_rows >= rel.num_rows()` (or `None`) the sample is the
//! relation itself, the half-width is zero, nothing is ever borderline,
//! and the pipeline degenerates *byte-identically* to the fixed-threshold
//! full-data checker of earlier revisions — [`discover_approximate`] is
//! exactly that degenerate call. With `epsilon = 0` the run is exact and
//! equivalent to [`crate::discover`]'s candidate tree.
//!
//! [`ApproxStats`] reports the triage outcome counts and a row-scan cost
//! model (see [`ERR_PASSES`]) so benchmarks can quantify full-data checks
//! saved.

use crate::config::DiscoveryConfig;
use crate::deps::{AttrList, Ocd, Od};
use crate::runtime::TerminationReason;
use crate::snapshot::{to_micros, ApproxMeta, SearchSnapshot, SnapshotError};
use ocdd_relation::scan::{note_scan, select_kernel, BlockEq, ScanKernel, BLOCK_PAIRS};
use ocdd_relation::sort::{cmp_rows, sort_index_by};
use ocdd_relation::{manifest_hash, ColumnId, Relation, Sample, SampleSpec, SampleStrategy};

/// Row passes one error decomposition costs — the documented cost model
/// behind [`ApproxStats::sample_row_scans`] / [`ApproxStats::full_row_scans`]
/// (one fused checker scan costs one pass). A decomposition runs the
/// `(lhs, rhs)` sort, two projection-rank scans (LHS ranks along that
/// sort, RHS ranks along an RHS index) and one fused walk that feeds the
/// LNDS and reads the split count off the LHS classes. The model stays at
/// the four passes it has always charged, so row-scan counts remain
/// comparable across revisions.
pub const ERR_PASSES: u64 = 4;

/// Error decomposition of an OD candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OdError {
    /// Minimum rows to remove to eliminate every swap (order
    /// compatibility component), exact.
    pub swap_removals: usize,
    /// Minimum rows to remove to eliminate every split (FD component),
    /// exact.
    pub split_removals: usize,
    /// Total rows in the instance.
    pub rows: usize,
}

impl OdError {
    /// The `g3`-style error of the order-compatibility component.
    pub fn swap_error(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.swap_removals as f64 / self.rows as f64
        }
    }

    /// The `g3`-style error of the FD component.
    pub fn split_error(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.split_removals as f64 / self.rows as f64
        }
    }

    /// Whether the OD holds approximately at tolerance `epsilon`
    /// (both components within budget).
    pub fn holds_at(&self, epsilon: f64) -> bool {
        self.swap_error() <= epsilon && self.split_error() <= epsilon
    }

    /// Exact dependency (no removals needed).
    pub fn is_exact(&self) -> bool {
        self.swap_removals == 0 && self.split_removals == 0
    }
}

/// Rank lookup by permuted row id; `r` always comes from a permutation of
/// `0..ranks.len()`, so the fallback is unreachable.
#[inline]
fn rank_at(ranks: &[u64], r: u32) -> u64 {
    ranks.get(r as usize).copied().unwrap_or(0)
}

/// Rank of each row's `cols` projection as a single `u64` (dense rank over
/// the lexicographic order of projections).
///
/// The adjacent-equality walk over the sorted index runs on the blockwise
/// [`BlockEq`] kernels ([`select_kernel`] keeps sub-block inputs on the
/// scalar oracle), so the estimate phase shares the PR 6 scan kernels with
/// the exact checkers instead of per-pair [`cmp_rows`] calls.
fn projection_ranks(rel: &Relation, cols: &AttrList) -> Vec<u64> {
    let index = sort_index_by(rel, cols.as_slice());
    projection_ranks_on(rel, cols, &index)
}

/// [`projection_ranks`] over a pre-built index sorted by `cols` (ties may
/// be ordered by further columns, as in [`SortedRows`]).
fn projection_ranks_on(rel: &Relation, cols: &AttrList, index: &[u32]) -> Vec<u64> {
    let m = index.len();
    let mut ranks = vec![0u64; m];
    if m < 2 {
        return ranks;
    }
    let pairs = m - 1;
    let kernel = select_kernel(pairs);
    note_scan(kernel);
    if kernel == ScanKernel::Scalar {
        return projection_ranks_scalar(rel, cols, index);
    }
    let mut rank = 0u64;
    let mut eq = BlockEq::default();
    let mut start = 0usize;
    // lint: allow(unprobed-loop, blockwise walk over one projection's sample index, bounded by the sample pairs)
    while start < pairs {
        let n = (pairs - start).min(BLOCK_PAIRS);
        let Some(window) = index.get(start..start + n + 1) else {
            break;
        };
        eq.reset(n);
        for &col in cols.as_slice() {
            eq.fold_column(rel, col, window);
            if eq.none() {
                break;
            }
        }
        // A zero mask byte is a rank boundary: the pair's rows differ on
        // some projection column.
        for (j, &e) in eq.mask().iter().take(n).enumerate() {
            rank += u64::from(e == 0);
            if let Some(&row) = window.get(j + 1) {
                if let Some(slot) = ranks.get_mut(row as usize) {
                    *slot = rank;
                }
            }
        }
        start += n;
    }
    ranks
}

/// Scalar oracle for [`projection_ranks_on`]: the per-pair [`cmp_rows`]
/// walk the blockwise path is differentially pinned against.
fn projection_ranks_scalar(rel: &Relation, cols: &AttrList, index: &[u32]) -> Vec<u64> {
    let mut ranks = vec![0u64; index.len()];
    let mut rank = 0u64;
    // lint: allow(unprobed-loop, scalar oracle walks one sample index, bounded by the sample rows)
    for (pos, &row) in index.iter().enumerate() {
        if pos > 0 {
            let prev = rank_at_u32(index, pos - 1);
            if cmp_rows(rel, cols.as_slice(), prev as usize, row as usize)
                != std::cmp::Ordering::Equal
            {
                rank += 1;
            }
        }
        if let Some(slot) = ranks.get_mut(row as usize) {
            *slot = rank;
        }
    }
    ranks
}

/// Index lookup with an unreachable fallback (`pos` stays in bounds by the
/// enumerate loop).
#[inline]
fn rank_at_u32(index: &[u32], pos: usize) -> u32 {
    index.get(pos).copied().unwrap_or(0)
}

/// Patience-sorting state of a longest non-decreasing subsequence:
/// `tails[k]` is the smallest value ending a non-decreasing chain of
/// length `k + 1` among the values pushed so far (`O(log m)` per push).
#[derive(Default)]
struct Patience {
    tails: Vec<u64>,
}

impl Patience {
    /// Push the next value and return the `k` whose chain (of length
    /// `k + 1`) it now ends. Equal values extend a chain, so `v` replaces
    /// the first tail strictly greater than it.
    #[inline]
    fn push(&mut self, v: u64) -> usize {
        let k = self.tails.partition_point(|&t| t <= v);
        match self.tails.get_mut(k) {
            Some(t) => *t = v,
            None => self.tails.push(v),
        }
        k
    }

    /// Length of the longest non-decreasing subsequence pushed so far.
    fn len(&self) -> usize {
        self.tails.len()
    }
}

/// One LHS equivalence class, as a [`SortedRows::walk`] reports it.
#[derive(Clone, Copy)]
struct Class {
    /// First position of the class's run in [`SortedRows::order`].
    start: usize,
    /// One past its last position.
    end: usize,
    /// The class's most frequent RHS rank (the smallest on a tie).
    plurality: u64,
    /// Rows of the class carrying `plurality`.
    count: usize,
}

impl Class {
    /// Rows disagreeing with the plurality: the class's split removals.
    fn minority(&self) -> usize {
        self.end - self.start - self.count
    }
}

/// The rows of one error decomposition, sorted once.
///
/// `order` sorts the rows by `lhs ++ rhs` with already-seen columns
/// dropped (a repeated column cannot reorder rows its first occurrence
/// left tied). Each LHS class is therefore one contiguous run of `order`,
/// and inside a run the rows ascend by their RHS projection, so rows equal
/// on both sides are adjacent. This is the `(lhs_rank, rhs_rank)` order
/// the decomposition is defined over, up to the order among rows equal on
/// both sides, which all carry the same RHS rank.
struct SortedRows {
    /// Row ids in `(lhs, rhs)` order.
    order: Vec<u32>,
    /// Dense LHS projection rank per row id, read off `order`.
    lhs_rank: Vec<u64>,
    /// Dense RHS projection rank per row id.
    rhs_rank: Vec<u64>,
}

impl SortedRows {
    fn new(rel: &Relation, lhs: &AttrList, rhs: &AttrList) -> SortedRows {
        debug_assert!(
            rel.num_rows() <= u32::MAX as usize,
            "row ids are u32 by the relation contract"
        );
        let mut key: Vec<ColumnId> = Vec::with_capacity(lhs.len() + rhs.len());
        // lint: allow(unprobed-loop, one pass over the two attribute lists, bounded by the schema width)
        for &c in lhs.as_slice().iter().chain(rhs.as_slice()) {
            if !key.contains(&c) {
                key.push(c);
            }
        }
        let order = sort_index_by(rel, &key);
        let lhs_rank = projection_ranks_on(rel, lhs, &order);
        let rhs_rank = projection_ranks(rel, rhs);
        SortedRows {
            order,
            lhs_rank,
            rhs_rank,
        }
    }

    /// The fused walk over `order`: hands every position and its RHS rank
    /// to `step` (the LNDS input), and every LHS class to `class` once its
    /// run ends.
    fn walk(&self, mut step: impl FnMut(usize, u64), mut class: impl FnMut(Class)) {
        let Some(&first) = self.order.first() else {
            return;
        };
        let mut lhs = rank_at(&self.lhs_rank, first);
        let mut cur = Class {
            start: 0,
            end: 0,
            plurality: rank_at(&self.rhs_rank, first),
            count: 0,
        };
        // RHS rank and length of the current equal-rank run in the class;
        // RHS ranks ascend inside a class, so each rank is one run.
        let (mut run_rank, mut run) = (cur.plurality, 0usize);
        // lint: allow(unprobed-loop, fused LNDS and split walk over one decomposition's sorted rows, bounded by the rows of the measured instance)
        for (pos, &row) in self.order.iter().enumerate() {
            let (l, y) = (rank_at(&self.lhs_rank, row), rank_at(&self.rhs_rank, row));
            step(pos, y);
            if l != lhs {
                cur.end = pos;
                class(cur);
                lhs = l;
                cur = Class {
                    start: pos,
                    end: pos,
                    plurality: y,
                    count: 0,
                };
                run = 0;
            } else if y != run_rank {
                run = 0;
            }
            run_rank = y;
            run += 1;
            if run > cur.count {
                cur.count = run;
                cur.plurality = y;
            }
        }
        cur.end = self.order.len();
        class(cur);
    }
}

/// Compute the exact error decomposition of the OD `lhs → rhs`.
///
/// Both components come from one `(lhs, rhs)` sort and one walk over it:
/// the swap component is `m − LNDS` of the RHS ranks in that order, and
/// the split component sums each LHS class's rows outside its plurality
/// RHS rank.
pub fn od_error(rel: &Relation, lhs: &AttrList, rhs: &AttrList) -> OdError {
    let sorted = SortedRows::new(rel, lhs, rhs);
    let mut lnds = Patience::default();
    let mut split_removals = 0usize;
    sorted.walk(
        |_, y| {
            lnds.push(y);
        },
        |c| split_removals += c.minority(),
    );
    let m = sorted.order.len();
    OdError {
        swap_removals: m - lnds.len(),
        split_removals,
        rows: m,
    }
}

/// Error of the OCD `x ~ y`: the swap component of `XY → YX`. Its split
/// component is always zero, because `XY` and `YX` hold the same
/// attributes: rows equal on one side are equal on the other, so every
/// LHS class carries a single RHS projection.
pub fn ocd_error(rel: &Relation, x: &AttrList, y: &AttrList) -> OdError {
    od_error(rel, &x.concat(y), &y.concat(x))
}

/// The rows whose removal makes `lhs → rhs` exact: the complement of the
/// longest non-decreasing subsequence (swap side) plus every minority row
/// inside an LHS class that disagrees with the class plurality (split
/// side). Row ids are returned sorted and deduplicated.
///
/// This is the "repair set" a data-cleaning tool would surface: the
/// witnesses are exact for each component (see [`od_error`]), and removing
/// them always yields an instance on which the OD holds.
pub fn removal_witnesses(rel: &Relation, lhs: &AttrList, rhs: &AttrList) -> Vec<u32> {
    let sorted = SortedRows::new(rel, lhs, rhs);
    let m = sorted.order.len();
    let mut witnesses: Vec<u32> = Vec::new();
    // Swap side: patience sorting with predecessor links recovers one
    // longest non-decreasing chain of positions. It keeps every run of
    // equal RHS ranks whole, so which rows it keeps does not depend on
    // the order among rows equal on both sides.
    let mut lnds = Patience::default();
    let mut ends: Vec<usize> = Vec::new(); // ends[k]: position ending chain k
    let mut prev: Vec<Option<usize>> = vec![None; m];
    sorted.walk(
        |pos, y| {
            let k = lnds.push(y);
            let link = k.checked_sub(1).and_then(|j| ends.get(j)).copied();
            if let Some(p) = prev.get_mut(pos) {
                *p = link;
            }
            match ends.get_mut(k) {
                Some(e) => *e = pos,
                None => ends.push(pos),
            }
        },
        // Split side: rows disagreeing with their LHS class plurality.
        |c| {
            let rows = sorted.order.get(c.start..c.end).unwrap_or_default();
            witnesses.extend(
                rows.iter()
                    .copied()
                    .filter(|&r| rank_at(&sorted.rhs_rank, r) != c.plurality),
            );
        },
    );
    let mut keep = vec![false; m];
    let mut cursor = ends.last().copied();
    while let Some(p) = cursor {
        if let Some(k) = keep.get_mut(p) {
            *k = true;
        }
        cursor = prev.get(p).copied().flatten();
    }
    witnesses.extend(
        sorted
            .order
            .iter()
            .zip(&keep)
            .filter(|&(_, &kept)| !kept)
            .map(|(&row, _)| row),
    );

    witnesses.sort_unstable();
    witnesses.dedup();
    witnesses
}

/// Sample-phase verdict of one candidate validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Triage {
    /// Clearly within tolerance on the sample's evidence.
    Accept,
    /// Clearly beyond tolerance; the subtree is pruned.
    Reject,
    /// The confidence interval straddles ε; escalate to full data.
    Borderline,
}

/// Hoeffding-style confidence half-width for a mean of `sample_rows`
/// bounded observations at the given two-sided confidence level:
/// `sqrt(ln(2 / (1 − confidence)) / (2·s))`.
///
/// The per-row removal indicators of the `g3` components are not i.i.d.
/// draws, so this is a calibrated heuristic width, not a proven bound —
/// which is exactly why *accept* stays heuristic while *reject* prunes
/// (see the module docs and DESIGN.md §14).
pub fn hoeffding_half_width(sample_rows: usize, confidence: f64) -> f64 {
    if sample_rows == 0 {
        return 0.0;
    }
    let delta = (1.0 - confidence).clamp(1e-12, 1.0);
    ((2.0 / delta).ln() / (2.0 * sample_rows as f64)).sqrt()
}

/// Classify a sample error estimate against tolerance `epsilon` with
/// confidence half-width `half_width` (see [`Triage`]). A zero half-width
/// (exhaustive sample) is always decisive.
pub fn triage(estimate: f64, half_width: f64, epsilon: f64) -> Triage {
    if estimate + half_width <= epsilon {
        Triage::Accept
    } else if estimate - half_width > epsilon {
        Triage::Reject
    } else {
        Triage::Borderline
    }
}

/// Configuration of the sample-first pipeline.
#[derive(Debug, Clone)]
pub struct ApproxConfig {
    /// The underlying discovery configuration. The run uses the exact
    /// search's level driver, so its mode, budgets (`max_checks` as
    /// per-branch allowances), level cap, candidate dedup, checkpoints and
    /// fault hooks apply as they do there; the checker and cache knobs
    /// pick the backend that borderline checks escalate to.
    /// `column_reduction` is ignored: approximate runs never reduce.
    pub base: DiscoveryConfig,
    /// Target sample size; `None` (or any value ≥ the relation's rows)
    /// runs exhaustively on the full data.
    pub sample_rows: Option<usize>,
    /// Allowed row-removal fraction per error component.
    pub epsilon: f64,
    /// Two-sided confidence level of the triage interval (default 0.95).
    pub confidence: f64,
    /// Sampling seed (recorded in checkpoint dumps; resume validates it).
    pub seed: u64,
    /// Sampling strategy (uniform reservoir or per-column stratified).
    pub strategy: SampleStrategy,
}

impl Default for ApproxConfig {
    fn default() -> ApproxConfig {
        ApproxConfig {
            base: DiscoveryConfig::default(),
            sample_rows: None,
            epsilon: 0.0,
            confidence: 0.95,
            seed: 0x0cdd_5eed,
            strategy: SampleStrategy::Uniform,
        }
    }
}

impl ApproxConfig {
    /// The [`SampleSpec`] this configuration draws for a relation of
    /// `rows` rows.
    pub fn sample_spec(&self, rows: usize) -> SampleSpec {
        SampleSpec {
            rows: self.sample_rows.unwrap_or(rows).min(rows),
            seed: self.seed,
            strategy: self.strategy,
        }
    }
}

/// Triage and escalation accounting of one pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApproxStats {
    /// Rows actually drawn into the sample.
    pub sample_rows: usize,
    /// Rows in the full relation.
    pub total_rows: usize,
    /// Sampling seed used.
    pub seed: u64,
    /// Manifest hash of the sample relation (provenance; equals the
    /// parent's for an exhaustive run).
    pub sample_manifest: u64,
    /// True when the sample was the whole relation (degenerate exact
    /// mode).
    pub exhaustive: bool,
    /// Candidate validations estimated on the sample (one per OCD test,
    /// one per OD direction).
    pub estimated: u64,
    /// Validations resolved *accept* by the sample alone.
    pub accepted_by_sample: u64,
    /// Validations resolved *reject* by the sample alone.
    pub rejected_by_sample: u64,
    /// Validations escalated to full-data checks.
    pub escalated: u64,
    /// Full-data checks avoided: validations the sample resolved
    /// (zero for an exhaustive run, where the "sample" is the full data).
    pub full_checks_saved: u64,
    /// Row passes over the sample (cost model: [`ERR_PASSES`] per error
    /// decomposition).
    pub sample_row_scans: u64,
    /// Row passes over the full relation (estimate passes count here for
    /// an exhaustive run; escalation checks always do).
    pub full_row_scans: u64,
}

/// An OCD together with its measured error.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproximateOcd {
    /// The dependency.
    pub ocd: Ocd,
    /// Swap error in `[0, 1]` — full-data when the candidate was
    /// escalated, the sample estimate otherwise.
    pub error: f64,
    /// Exact numerator of `error` (swap removals on the measured
    /// instance) — the integer the checkpoint dumps round-trip.
    pub removals: usize,
    /// Exact denominator of `error` (rows of the measured instance).
    pub rows: usize,
}

impl ApproximateOcd {
    /// Build from the exact `(removals, rows)` rational.
    pub fn from_parts(ocd: Ocd, removals: usize, rows: usize) -> ApproximateOcd {
        let error = if rows == 0 {
            0.0
        } else {
            removals as f64 / rows as f64
        };
        ApproximateOcd {
            ocd,
            error,
            removals,
            rows,
        }
    }
}

/// Output of an approximate discovery run.
#[derive(Debug, Clone, Default)]
pub struct ApproximateResult {
    /// OCDs holding at the tolerance, with their measured errors.
    pub ocds: Vec<ApproximateOcd>,
    /// ODs holding at the tolerance.
    pub ods: Vec<Od>,
    /// Candidate checks performed.
    pub checks: u64,
    /// Why the run stopped; anything but
    /// [`TerminationReason::Complete`] means partial results.
    pub termination: TerminationReason,
    /// Sample/escalation accounting of the pipeline
    /// ([`discover_approximate_with`]); `None` only on
    /// default-constructed values.
    pub approx: Option<ApproxStats>,
}

impl ApproximateResult {
    /// True when the search explored the whole candidate tree.
    pub fn complete(&self) -> bool {
        self.termination.is_complete()
    }
}

/// OCDDISCOVER with the ε-tolerant validity test on the full data —
/// the degenerate (exhaustive-sample) call of
/// [`discover_approximate_with`]. `epsilon` is the allowed row-removal
/// fraction per component.
///
/// Pruning caveat: levelwise pruning of failed candidates is heuristic for
/// approximate dependencies (see module docs); with `epsilon = 0` the run
/// is exact and equivalent to [`crate::discover`]'s candidate tree.
pub fn discover_approximate(
    rel: &Relation,
    config: &DiscoveryConfig,
    epsilon: f64,
) -> ApproximateResult {
    discover_approximate_with(
        rel,
        &ApproxConfig {
            base: config.clone(),
            epsilon,
            ..ApproxConfig::default()
        },
    )
}

/// The ε-triage of an approximate run: the mode the search driver's
/// per-worker checker runs in (`crate::search`). Every check is estimated
/// on the sample and triaged with the Hoeffding half-width; a borderline
/// one escalates inline to the same checker's exact backend on the full
/// relation, where the batch's prefix is already warm.
pub(crate) struct SampleTriage<'r> {
    /// The full relation, which escalations measure.
    rel: &'r Relation,
    /// The sample: the relation itself when the run is exhaustive.
    sample: &'r Relation,
    /// Confidence half-width of every estimate (0 when exhaustive,
    /// infinite for an empty sample of a non-empty relation).
    half_width: f64,
    /// Allowed row-removal fraction per error component.
    epsilon: f64,
    /// The sample is the whole relation: estimates are exact, and their
    /// passes count as full-data passes.
    exhaustive: bool,
}

/// Triage accounting of one candidate. It travels in the candidate's
/// driver emission, and the post-filter sums it into the run's
/// [`ApproxStats`] counters exactly as it sums `checks`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TriageTally {
    /// See [`ApproxStats::estimated`].
    pub(crate) estimated: u64,
    /// See [`ApproxStats::accepted_by_sample`].
    pub(crate) accepted_by_sample: u64,
    /// See [`ApproxStats::rejected_by_sample`].
    pub(crate) rejected_by_sample: u64,
    /// See [`ApproxStats::escalated`].
    pub(crate) escalated: u64,
    /// See [`ApproxStats::sample_row_scans`].
    pub(crate) sample_row_scans: u64,
    /// See [`ApproxStats::full_row_scans`].
    pub(crate) full_row_scans: u64,
}

impl std::ops::AddAssign for TriageTally {
    fn add_assign(&mut self, other: TriageTally) {
        self.estimated += other.estimated;
        self.accepted_by_sample += other.accepted_by_sample;
        self.rejected_by_sample += other.rejected_by_sample;
        self.escalated += other.escalated;
        self.sample_row_scans += other.sample_row_scans;
        self.full_row_scans += other.full_row_scans;
    }
}

/// An OCD the triage let through.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TriagedOcd {
    /// Swap removals on the measured instance: the sample for a sample
    /// accept, the full data after an escalation.
    pub(crate) removals: usize,
    /// Rows of the measured instance.
    pub(crate) rows: usize,
    /// The full data proved the OCD exact, so a borderline OD direction
    /// may use the fused split-only scan.
    pub(crate) full_exact: bool,
}

impl SampleTriage<'_> {
    /// Charge one sample estimate to `tally`.
    fn charge_estimate(&self, est: &OdError, tally: &mut TriageTally) {
        tally.estimated += 1;
        let passes = ERR_PASSES * est.rows as u64;
        if self.exhaustive {
            tally.full_row_scans += passes;
        } else {
            tally.sample_row_scans += passes;
        }
    }

    /// The OCD `x ~ y` at ε, or `None` when it fails. A borderline
    /// estimate escalates to `exact`, the checker's full-data check, and
    /// when that fails at ε > 0 to the full error decomposition.
    pub(crate) fn ocd(
        &self,
        x: &AttrList,
        y: &AttrList,
        tally: &mut TriageTally,
        exact: impl FnOnce() -> bool,
    ) -> Option<TriagedOcd> {
        let est = ocd_error(self.sample, x, y);
        self.charge_estimate(&est, tally);
        match triage(est.swap_error(), self.half_width, self.epsilon) {
            Triage::Reject => {
                tally.rejected_by_sample += 1;
                None
            }
            Triage::Accept => {
                tally.accepted_by_sample += 1;
                Some(TriagedOcd {
                    removals: est.swap_removals,
                    rows: est.rows,
                    // A sample accept proves exactness only when the
                    // sample is the full data.
                    full_exact: self.exhaustive && est.swap_removals == 0,
                })
            }
            Triage::Borderline => {
                tally.escalated += 1;
                let m = self.rel.num_rows();
                tally.full_row_scans += m as u64;
                if exact() {
                    return Some(TriagedOcd {
                        removals: 0,
                        rows: m,
                        full_exact: true,
                    });
                }
                if self.epsilon <= 0.0 {
                    return None;
                }
                let e = ocd_error(self.rel, x, y);
                tally.full_row_scans += ERR_PASSES * m as u64;
                (e.swap_error() <= self.epsilon).then_some(TriagedOcd {
                    removals: e.swap_removals,
                    rows: e.rows,
                    full_exact: false,
                })
            }
        }
    }

    /// The direction `lhs → rhs` of a candidate whose OCD `ocd` let
    /// through. Accept needs *both* error components clearly within ε;
    /// reject needs *either* clearly beyond it, which holds exactly when
    /// the worse one is. A borderline estimate escalates: after a
    /// full-data-exact OCD to `fused`, which re-runs the checker's OCD
    /// check and then its split-only scan (`None` when the OCD check
    /// fails); otherwise, or when that scan fails at ε > 0, to the full
    /// error decomposition.
    pub(crate) fn od(
        &self,
        lhs: &AttrList,
        rhs: &AttrList,
        ocd: TriagedOcd,
        tally: &mut TriageTally,
        fused: impl FnOnce() -> Option<bool>,
    ) -> bool {
        let est = od_error(self.sample, lhs, rhs);
        self.charge_estimate(&est, tally);
        let worst = est.swap_error().max(est.split_error());
        match triage(worst, self.half_width, self.epsilon) {
            Triage::Accept => {
                tally.accepted_by_sample += 1;
                return true;
            }
            Triage::Reject => {
                tally.rejected_by_sample += 1;
                return false;
            }
            Triage::Borderline => tally.escalated += 1,
        }
        let m = self.rel.num_rows() as u64;
        if ocd.full_exact {
            if let Some(valid) = fused() {
                tally.full_row_scans += 2 * m;
                if valid {
                    return true;
                }
                if self.epsilon <= 0.0 {
                    return false;
                }
            }
        }
        let e = od_error(self.rel, lhs, rhs);
        tally.full_row_scans += ERR_PASSES * m;
        e.is_exact() || e.holds_at(self.epsilon)
    }
}

/// The sample of one approximate run, with the [`ApproxStats`] fields
/// that are fixed before the search starts.
struct SampledRun {
    /// The drawn sample; `None` when the run is exhaustive.
    sample: Option<Sample>,
    stats: ApproxStats,
}

impl SampledRun {
    fn draw(rel: &Relation, cfg: &ApproxConfig) -> SampledRun {
        let m = rel.num_rows();
        let spec = cfg.sample_spec(m);
        let exhaustive = spec.rows >= m;
        // The exhaustive "sample" is the relation itself — no copy, and the
        // degenerate pipeline is byte-identical to full-data discovery.
        let sample = (!exhaustive).then(|| Sample::build(rel, &spec));
        let stats = ApproxStats {
            sample_rows: sample.as_ref().map_or(m, |s| s.relation.num_rows()),
            total_rows: m,
            seed: cfg.seed,
            sample_manifest: sample
                .as_ref()
                .map_or_else(|| manifest_hash(rel), |s| s.provenance.sample_manifest),
            exhaustive,
            ..ApproxStats::default()
        };
        SampledRun { sample, stats }
    }

    /// The sampling metadata every checkpoint dump of the run carries;
    /// the dump fills in the accumulated errors and counters.
    fn meta(&self, cfg: &ApproxConfig) -> ApproxMeta {
        ApproxMeta {
            seed: cfg.seed,
            sample_rows: self.stats.sample_rows as u64,
            total_rows: self.stats.total_rows as u64,
            strategy: cfg.strategy.label().to_string(),
            strategy_column: cfg.strategy.column().map(|c| c as u64),
            sample_manifest: self.stats.sample_manifest,
            epsilon_micros: to_micros(cfg.epsilon),
            confidence_micros: to_micros(cfg.confidence),
            ..ApproxMeta::default()
        }
    }

    /// Run the search from the level-2 seeds, or from `resume`'s boundary,
    /// on the level driver with every checker in triage mode.
    fn run(
        self,
        rel: &Relation,
        cfg: &ApproxConfig,
        resume: Option<&SearchSnapshot>,
    ) -> ApproximateResult {
        let sample_rel = self.sample.as_ref().map_or(rel, |s| &s.relation);
        let s = sample_rel.num_rows();
        let exhaustive = self.stats.exhaustive;
        // Exhaustive estimates are exact (zero width); an empty sample of a
        // non-empty relation can prove nothing, so everything escalates.
        let half_width = if exhaustive {
            0.0
        } else if s == 0 {
            f64::INFINITY
        } else {
            hoeffding_half_width(s, cfg.confidence)
        };
        let triage = SampleTriage {
            rel,
            sample: sample_rel,
            half_width,
            epsilon: cfg.epsilon,
            exhaustive,
        };
        let meta = self.meta(cfg);
        let (mut out, tally) =
            crate::search::discover_triaged(rel, &cfg.base, &triage, meta, resume);
        let mut stats = self.stats;
        stats.estimated = tally.estimated;
        stats.accepted_by_sample = tally.accepted_by_sample;
        stats.rejected_by_sample = tally.rejected_by_sample;
        stats.escalated = tally.escalated;
        stats.sample_row_scans = tally.sample_row_scans;
        stats.full_row_scans = tally.full_row_scans;
        stats.full_checks_saved = if exhaustive {
            0
        } else {
            tally.estimated.saturating_sub(tally.escalated)
        };
        out.approx = Some(stats);
        out
    }
}

/// The sample-first discovery pipeline (see the module docs).
pub fn discover_approximate_with(rel: &Relation, cfg: &ApproxConfig) -> ApproximateResult {
    SampledRun::draw(rel, cfg).run(rel, cfg, None)
}

/// Resume an approximate run from a checkpoint dump.
///
/// Beyond the exact resume's version/manifest/config/consistency gates
/// ([`crate::SearchSnapshot::validate`]), the dump's sampling metadata
/// must match the resume configuration *and* the sample re-drawn from it
/// must hash to the dumped sample manifest — the resumed levels are
/// triaged against the very rows the interrupted run saw, so the combined
/// run equals an uninterrupted one, [`ApproxStats`] included. Any
/// mismatch is rejected with [`crate::SnapshotError::SampleMismatch`],
/// mirroring the manifest-hash check on the parent relation.
pub fn discover_approximate_resume(
    rel: &Relation,
    cfg: &ApproxConfig,
    snap: &SearchSnapshot,
) -> Result<ApproximateResult, SnapshotError> {
    snap.validate(rel, &cfg.base)?;
    let Some(meta) = &snap.approx else {
        return Err(SnapshotError::SampleMismatch("approx"));
    };
    if meta.seed != cfg.seed {
        return Err(SnapshotError::SampleMismatch("seed"));
    }
    if meta.strategy != cfg.strategy.label() {
        return Err(SnapshotError::SampleMismatch("strategy"));
    }
    if meta.strategy_column != cfg.strategy.column().map(|c| c as u64) {
        return Err(SnapshotError::SampleMismatch("strategy_column"));
    }
    if meta.epsilon_micros != to_micros(cfg.epsilon) {
        return Err(SnapshotError::SampleMismatch("epsilon"));
    }
    if meta.confidence_micros != to_micros(cfg.confidence) {
        return Err(SnapshotError::SampleMismatch("confidence"));
    }
    let m = rel.num_rows();
    if meta.sample_rows != cfg.sample_spec(m).rows as u64 || meta.total_rows != m as u64 {
        return Err(SnapshotError::SampleMismatch("sample_rows"));
    }
    // Re-draw the sample and require the same bytes (manifest) the
    // interrupted run triaged on.
    let run = SampledRun::draw(rel, cfg);
    if meta.sample_manifest != run.stats.sample_manifest {
        return Err(SnapshotError::SampleMismatch("sample_manifest"));
    }
    if meta.ocd_errors.len() != snap.ocds.len() {
        return Err(SnapshotError::Parse(
            "approx.ocd_errors must align with the ocds array".to_string(),
        ));
    }
    // Snapshot counts are serialized as u64; on 32-bit hosts they may
    // not fit usize, so reject rather than silently truncate.
    if meta
        .ocd_errors
        .iter()
        .any(|&(removals, rows)| usize::try_from(removals.max(rows)).is_err())
    {
        return Err(SnapshotError::Parse(
            "approx.ocd_errors count overflows usize".to_string(),
        ));
    }
    Ok(run.run(rel, cfg, Some(snap)))
}

/// Differential-test oracle of [`od_error`] and [`removal_witnesses`]
/// without the shared `(lhs, rhs)` sort: each side's ranks come from a
/// comparator sort and the scalar comparator walk, the LNDS runs over a
/// `(lhs_rank, rhs_rank)` sort of the rows, and the split side counts
/// `(lhs_rank, rhs_rank)` pairs in a map.
#[cfg(test)]
mod oracle {
    use super::{projection_ranks_scalar, rank_at, AttrList, OdError, Relation};
    use ocdd_relation::sort::sort_index_by_comparator;
    use std::collections::BTreeMap;

    /// Length of the longest non-decreasing subsequence (patience sorting,
    /// `O(m log m)`).
    pub(super) fn longest_nondecreasing_subsequence(seq: &[u64]) -> usize {
        // tails[k] = smallest possible tail of a non-decreasing
        // subsequence of length k+1.
        let mut tails: Vec<u64> = Vec::new();
        for &v in seq {
            // First tail strictly greater than v gets replaced
            // (non-decreasing, so equal tails extend).
            let pos = tails.partition_point(|&t| t <= v);
            if pos == tails.len() {
                tails.push(v);
            } else if let Some(t) = tails.get_mut(pos) {
                *t = v;
            }
        }
        tails.len()
    }

    fn ranks(rel: &Relation, cols: &AttrList) -> Vec<u64> {
        projection_ranks_scalar(rel, cols, &sort_index_by_comparator(rel, cols.as_slice()))
    }

    /// Both sides' ranks, the rows in `(lhs_rank, rhs_rank)` order, and
    /// the `(lhs_rank, rhs_rank)` pair counts.
    #[allow(clippy::type_complexity)]
    fn decompose(
        rel: &Relation,
        lhs: &AttrList,
        rhs: &AttrList,
    ) -> (Vec<u64>, Vec<u64>, Vec<u32>, BTreeMap<(u64, u64), usize>) {
        let m = rel.num_rows();
        let lhs_rank = ranks(rel, lhs);
        let rhs_rank = ranks(rel, rhs);
        let mut order: Vec<u32> = (0..m as u32).collect();
        order.sort_unstable_by_key(|&r| (rank_at(&lhs_rank, r), rank_at(&rhs_rank, r)));
        let mut counts: BTreeMap<(u64, u64), usize> = BTreeMap::new();
        for (&l, &y) in lhs_rank.iter().zip(rhs_rank.iter()) {
            *counts.entry((l, y)).or_insert(0) += 1;
        }
        (lhs_rank, rhs_rank, order, counts)
    }

    pub(super) fn od_error(rel: &Relation, lhs: &AttrList, rhs: &AttrList) -> OdError {
        let m = rel.num_rows();
        let (_, rhs_rank, order, counts) = decompose(rel, lhs, rhs);
        let rhs_seq: Vec<u64> = order.iter().map(|&r| rank_at(&rhs_rank, r)).collect();
        let swap_removals = m - longest_nondecreasing_subsequence(&rhs_seq);
        // Per lhs class, keep the plurality rhs projection (the map groups
        // the (l, y) pairs by l).
        let mut split_removals = 0usize;
        let mut cur: Option<u64> = None;
        let (mut total, mut best) = (0usize, 0usize);
        for (&(l, _), &count) in &counts {
            if cur != Some(l) {
                split_removals += total - best;
                cur = Some(l);
                total = 0;
                best = 0;
            }
            total += count;
            best = best.max(count);
        }
        split_removals += total - best;
        OdError {
            swap_removals,
            split_removals,
            rows: m,
        }
    }

    pub(super) fn removal_witnesses(rel: &Relation, lhs: &AttrList, rhs: &AttrList) -> Vec<u32> {
        let (lhs_rank, rhs_rank, order, counts) = decompose(rel, lhs, rhs);
        let mut witnesses: Vec<u32> = Vec::new();

        // Swap side: patience sorting with predecessor links recovers one
        // longest non-decreasing subsequence; everything outside it goes.
        let seq: Vec<u64> = order.iter().map(|&r| rank_at(&rhs_rank, r)).collect();
        let mut tails: Vec<usize> = Vec::new(); // positions into seq
        let mut prev: Vec<Option<usize>> = vec![None; seq.len()];
        for (pos, &v) in seq.iter().enumerate() {
            let insert = tails.partition_point(|&t| seq.get(t).copied().unwrap_or(0) <= v);
            if insert > 0 {
                if let (Some(p), Some(&t)) = (prev.get_mut(pos), tails.get(insert - 1)) {
                    *p = Some(t);
                }
            }
            if insert == tails.len() {
                tails.push(pos);
            } else if let Some(t) = tails.get_mut(insert) {
                *t = pos;
            }
        }
        let mut keep = vec![false; seq.len()];
        let mut cursor = tails.last().copied();
        while let Some(p) = cursor {
            if let Some(k) = keep.get_mut(p) {
                *k = true;
            }
            cursor = prev.get(p).copied().flatten();
        }
        for (&kept, &row) in keep.iter().zip(order.iter()) {
            if !kept {
                witnesses.push(row);
            }
        }

        // Split side: rows disagreeing with their LHS class plurality.
        let mut best: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
        for (&(l, y), &count) in &counts {
            let entry = best.entry(l).or_insert((0, 0));
            // Deterministic tie-break: prefer the smaller rhs rank.
            if count > entry.0 || (count == entry.0 && y < entry.1) {
                *entry = (count, y);
            }
        }
        for (r, (&l, &y)) in lhs_rank.iter().zip(rhs_rank.iter()).enumerate() {
            if best.get(&l).is_some_and(|&(_, by)| by != y) {
                witnesses.push(r as u32);
            }
        }

        witnesses.sort_unstable();
        witnesses.dedup();
        witnesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocdd_relation::Value;

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

    #[test]
    fn lnds_basics() {
        use oracle::longest_nondecreasing_subsequence as lnds;
        assert_eq!(lnds(&[]), 0);
        assert_eq!(lnds(&[1, 2, 2, 3]), 4);
        assert_eq!(lnds(&[3, 2, 1]), 1);
        assert_eq!(lnds(&[1, 3, 2, 4]), 3);
        assert_eq!(lnds(&[2, 2, 1, 1, 2]), 3);
    }

    /// A relation of four columns over `rows` rows, one in five cells
    /// NULL, with 2, 3, 5 and 12 distinct values: enough ties for classes,
    /// runs and equal-key groups of every size.
    fn nully_relation(rows: usize, seed: u64) -> Relation {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let cols = [2i64, 3, 5, 12]
            .iter()
            .enumerate()
            .map(|(c, &card)| {
                let vals = (0..rows)
                    .map(|_| {
                        if rng.random_range(0..5) == 0 {
                            Value::Null
                        } else {
                            Value::Int(rng.random_range(0..card))
                        }
                    })
                    .collect();
                (format!("c{c}"), vals)
            })
            .collect();
        Relation::from_columns(cols).unwrap()
    }

    /// The one-sort decomposition and the oracle agree on both removal
    /// counts and on the exact witness vector.
    fn matches_oracle(
        r: &Relation,
        lhs: &AttrList,
        rhs: &AttrList,
    ) -> Result<(), proptest::TestCaseError> {
        let (got, want) = (od_error(r, lhs, rhs), oracle::od_error(r, lhs, rhs));
        proptest::prop_assert_eq!(got, want, "{} -> {}", lhs, rhs);
        proptest::prop_assert_eq!(
            removal_witnesses(r, lhs, rhs),
            oracle::removal_witnesses(r, lhs, rhs),
            "witnesses of {} -> {}",
            lhs,
            rhs
        );
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        /// Sides of 1–3 columns drawn from four, so columns repeat within
        /// a side and across the two sides.
        #[test]
        fn one_sort_decomposition_matches_oracle(
            rows in 0usize..=60,
            seed in 0u64..1 << 32,
            lhs in proptest::collection::vec(0usize..4, 1..=3),
            rhs in proptest::collection::vec(0usize..4, 1..=3),
        ) {
            let r = nully_relation(rows, seed);
            let (lhs, rhs) = (l(&lhs), l(&rhs));
            matches_oracle(&r, &lhs, &rhs)?;
            matches_oracle(&r, &lhs.concat(&rhs), &rhs.concat(&lhs))?;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// Past one scan block the LHS and RHS ranks come from the
        /// blockwise kernels instead of the scalar walk.
        #[test]
        fn one_sort_decomposition_matches_oracle_past_one_block(
            rows in BLOCK_PAIRS + 1..=400,
            seed in 0u64..1 << 32,
            lhs in proptest::collection::vec(0usize..4, 1..=3),
            rhs in proptest::collection::vec(0usize..4, 1..=3),
        ) {
            let r = nully_relation(rows, seed);
            matches_oracle(&r, &l(&lhs), &l(&rhs))?;
        }
    }

    #[test]
    fn exact_dependency_has_zero_error() {
        let r = rel(&[("a", &[1, 2, 3, 4]), ("b", &[1, 1, 2, 2])]);
        let err = od_error(&r, &l(&[0]), &l(&[1]));
        assert!(err.is_exact());
        assert_eq!(err.swap_error(), 0.0);
    }

    #[test]
    fn single_swap_costs_one_row() {
        // One outlier: removing it makes a -> b exact.
        let r = rel(&[("a", &[1, 2, 3, 4, 5]), ("b", &[1, 2, 3, 9, 5])]);
        let err = od_error(&r, &l(&[0]), &l(&[1]));
        assert_eq!(err.swap_removals, 1);
        assert_eq!(err.split_removals, 0);
        assert!(err.holds_at(0.2));
        assert!(!err.holds_at(0.1));
    }

    #[test]
    fn split_error_counts_minority_rows() {
        // a=1 twice with b 5 and 6: one row must go.
        let r = rel(&[("a", &[1, 1, 2]), ("b", &[5, 6, 7])]);
        let err = od_error(&r, &l(&[0]), &l(&[1]));
        assert_eq!(err.split_removals, 1);
    }

    #[test]
    fn error_zero_iff_checker_valid() {
        use crate::check::check_od;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let vals = |rng: &mut StdRng| -> Vec<i64> {
                (0..12).map(|_| rng.random_range(0..4)).collect()
            };
            let (va, vb) = (vals(&mut rng), vals(&mut rng));
            let r = rel(&[("a", &va), ("b", &vb)]);
            for (x, y) in [(l(&[0]), l(&[1])), (l(&[1]), l(&[0]))] {
                let err = od_error(&r, &x, &y);
                assert_eq!(
                    err.is_exact(),
                    check_od(&r, &x, &y).is_valid(),
                    "seed {seed}: error {err:?} vs checker on {x} -> {y}"
                );
            }
        }
    }

    #[test]
    fn projection_ranks_blockwise_matches_scalar_oracle() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        // Rows past BLOCK_PAIRS exercise the blockwise path, including
        // ragged tails and block-boundary rank carries.
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = 64 + (seed as usize * 13) % 140;
            let card = 1 + (seed as i64 % 5);
            let va: Vec<i64> = (0..rows)
                .map(|_| rng.random_range(0..card.max(2)))
                .collect();
            let vb: Vec<i64> = (0..rows).map(|_| rng.random_range(0..3)).collect();
            let r = rel(&[("a", &va), ("b", &vb)]);
            for cols in [l(&[0]), l(&[1]), l(&[0, 1]), l(&[1, 0])] {
                let index = sort_index_by(&r, cols.as_slice());
                assert_eq!(
                    projection_ranks_on(&r, &cols, &index),
                    projection_ranks_scalar(&r, &cols, &index),
                    "seed {seed} cols {cols}"
                );
            }
        }
    }

    #[test]
    fn swap_error_matches_brute_force_minimum() {
        // Brute-force minimal removal for the OCD on tiny relations: try
        // all subsets, find the largest swap-free one.
        use crate::check::check_od_pairwise;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        for seed in 0..25u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = 7usize;
            let va: Vec<i64> = (0..rows).map(|_| rng.random_range(0..3)).collect();
            let vb: Vec<i64> = (0..rows).map(|_| rng.random_range(0..3)).collect();
            let r = rel(&[("a", &va), ("b", &vb)]);
            let err = ocd_error(&r, &l(&[0]), &l(&[1]));

            let mut best_keep = 0usize;
            for mask in 0u32..(1 << rows) {
                let keep: Vec<usize> = (0..rows).filter(|i| mask & (1 << i) != 0).collect();
                if keep.len() <= best_keep {
                    continue;
                }
                let sub = Relation::from_columns(vec![
                    (
                        "a".to_string(),
                        keep.iter().map(|&i| Value::Int(va[i])).collect(),
                    ),
                    (
                        "b".to_string(),
                        keep.iter().map(|&i| Value::Int(vb[i])).collect(),
                    ),
                ])
                .unwrap();
                let xy = l(&[0]).concat(&l(&[1]));
                let yx = l(&[1]).concat(&l(&[0]));
                if check_od_pairwise(&sub, &xy, &yx) && check_od_pairwise(&sub, &yx, &xy) {
                    best_keep = keep.len();
                }
            }
            assert_eq!(err.swap_removals, rows - best_keep, "seed {seed}");
        }
    }

    #[test]
    fn approximate_discovery_tolerates_outliers() {
        // 30 clean monotone rows + 1 outlier: exact discovery drops the
        // dependency, ε = 0.05 keeps it.
        let mut va: Vec<i64> = (0..30).collect();
        let mut vb: Vec<i64> = (0..30).map(|i| i * 2).collect();
        va.push(31);
        vb.push(0); // outlier swap
        let r = rel(&[("a", &va), ("b", &vb)]);

        let exact = discover_approximate(&r, &DiscoveryConfig::default(), 0.0);
        assert!(exact.ods.is_empty());
        let approx = discover_approximate(&r, &DiscoveryConfig::default(), 0.05);
        assert_eq!(approx.ods.len(), 2, "a -> b and b -> a at tolerance");
        assert!(approx.ocds[0].error > 0.0);
    }

    #[test]
    fn epsilon_zero_matches_exact_discovery_on_ocds() {
        use crate::{discover, DiscoveryConfig};
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let cols: Vec<(String, Vec<Value>)> = (0..3)
                .map(|c| {
                    (
                        format!("c{c}"),
                        (0..14)
                            .map(|_| Value::Int(rng.random_range(0..3)))
                            .collect(),
                    )
                })
                .collect();
            let r = Relation::from_columns(cols).unwrap();
            let exact = discover(
                &r,
                &DiscoveryConfig {
                    column_reduction: false,
                    ..DiscoveryConfig::default()
                },
            );
            let approx = discover_approximate(&r, &DiscoveryConfig::default(), 0.0);
            let exact_set: std::collections::HashSet<Ocd> =
                exact.ocds.iter().map(Ocd::canonical).collect();
            let approx_set: std::collections::HashSet<Ocd> =
                approx.ocds.iter().map(|a| a.ocd.canonical()).collect();
            assert_eq!(exact_set, approx_set, "seed {seed}");
        }
    }

    #[test]
    fn witnesses_repair_the_dependency() {
        use crate::check::check_od;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        for seed in 0..25u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let va: Vec<i64> = (0..12).map(|_| rng.random_range(0..4)).collect();
            let vb: Vec<i64> = (0..12).map(|_| rng.random_range(0..4)).collect();
            let r = rel(&[("a", &va), ("b", &vb)]);
            let witnesses = removal_witnesses(&r, &l(&[0]), &l(&[1]));
            // Remove the witnesses and recheck: the OD must now hold.
            let keep: Vec<usize> = (0..12)
                .filter(|&i| !witnesses.contains(&(i as u32)))
                .collect();
            let repaired = rel(&[
                ("a", &keep.iter().map(|&i| va[i]).collect::<Vec<_>>()),
                ("b", &keep.iter().map(|&i| vb[i]).collect::<Vec<_>>()),
            ]);
            assert!(
                check_od(&repaired, &l(&[0]), &l(&[1])).is_valid(),
                "seed {seed}: witnesses {witnesses:?} did not repair a -> b"
            );
        }
    }

    #[test]
    fn witnesses_empty_for_exact_dependency() {
        let r = rel(&[("a", &[1, 2, 3]), ("b", &[1, 2, 2])]);
        assert!(removal_witnesses(&r, &l(&[0]), &l(&[1])).is_empty());
    }

    #[test]
    fn witness_count_matches_error_components_for_pure_cases() {
        // Pure swap case, no splits: witness count equals swap_removals.
        let r = rel(&[("a", &[1, 2, 3, 4]), ("b", &[1, 2, 9, 4])]);
        let err = od_error(&r, &l(&[0]), &l(&[1]));
        assert_eq!(err.split_removals, 0);
        let w = removal_witnesses(&r, &l(&[0]), &l(&[1]));
        assert_eq!(w.len(), err.swap_removals);
    }

    #[test]
    fn budget_and_cancellation_yield_typed_partial_results() {
        let r = rel(&[
            ("a", &[1, 2, 3, 4, 5, 6]),
            ("b", &[2, 1, 4, 3, 6, 5]),
            ("c", &[6, 5, 4, 3, 2, 1]),
        ]);
        let limited = discover_approximate(
            &r,
            &DiscoveryConfig {
                max_checks: Some(2),
                ..DiscoveryConfig::default()
            },
            0.5,
        );
        assert!(!limited.complete());
        assert_eq!(limited.termination, TerminationReason::CheckBudget);

        use crate::runtime::RunController;
        let controller = RunController::new();
        controller.cancel();
        let cancelled = discover_approximate(
            &r,
            &DiscoveryConfig {
                controller: Some(controller),
                ..DiscoveryConfig::default()
            },
            0.5,
        );
        assert_eq!(cancelled.termination, TerminationReason::Cancelled);
        assert!(cancelled.ocds.is_empty(), "no candidate was processed");
    }

    #[test]
    fn empty_relation_is_trivially_exact() {
        let r = rel(&[("a", &[]), ("b", &[])]);
        let err = od_error(&r, &l(&[0]), &l(&[1]));
        assert!(err.is_exact());
        assert!(err.holds_at(0.0));
    }

    #[test]
    fn triage_boundaries() {
        assert_eq!(triage(0.01, 0.005, 0.02), Triage::Accept);
        assert_eq!(triage(0.10, 0.005, 0.02), Triage::Reject);
        assert_eq!(triage(0.02, 0.005, 0.02), Triage::Borderline);
        // Zero half-width is always decisive.
        assert_eq!(triage(0.02, 0.0, 0.02), Triage::Accept);
        assert_eq!(triage(0.021, 0.0, 0.02), Triage::Reject);
        // Infinite half-width never is.
        assert_eq!(triage(0.0, f64::INFINITY, 0.5), Triage::Borderline);
    }

    #[test]
    fn half_width_shrinks_with_sample_size() {
        let w100 = hoeffding_half_width(100, 0.95);
        let w10000 = hoeffding_half_width(10_000, 0.95);
        assert!(w100 > w10000);
        assert!((w100 / w10000 - 10.0).abs() < 1e-9, "1/sqrt(s) scaling");
        assert_eq!(hoeffding_half_width(0, 0.95), 0.0);
    }

    fn sampled_cfg(sample: usize, epsilon: f64) -> ApproxConfig {
        ApproxConfig {
            sample_rows: Some(sample),
            epsilon,
            ..ApproxConfig::default()
        }
    }

    /// A relation with a clean OD a -> b plus a noisy third column.
    fn pipeline_rel(rows: usize) -> Relation {
        let va: Vec<i64> = (0..rows as i64).collect();
        let vb: Vec<i64> = (0..rows as i64).map(|i| i / 2).collect();
        let vc: Vec<i64> = (0..rows as i64).map(|i| (i * 7919) % 53).collect();
        rel(&[("a", &va), ("b", &vb), ("c", &vc)])
    }

    #[test]
    fn exhaustive_pipeline_reports_stats() {
        let r = pipeline_rel(40);
        let res = discover_approximate(&r, &DiscoveryConfig::default(), 0.0);
        let stats = res.approx.expect("pipeline always reports stats");
        assert!(stats.exhaustive);
        assert_eq!(stats.sample_rows, 40);
        assert_eq!(stats.total_rows, 40);
        assert_eq!(stats.escalated, 0, "exhaustive runs never escalate");
        assert_eq!(stats.full_checks_saved, 0);
        assert_eq!(stats.sample_row_scans, 0);
        assert!(stats.full_row_scans > 0);
    }

    #[test]
    fn sampled_epsilon_zero_escalates_everything_and_stays_exact() {
        let r = pipeline_rel(200);
        let exact = discover_approximate(&r, &DiscoveryConfig::default(), 0.0);
        let sampled = discover_approximate_with(&r, &sampled_cfg(50, 0.0));
        // ε = 0 with a real sample: accepts are impossible (est + hw > 0),
        // so every surviving candidate is escalated and verified — results
        // match the full-data run exactly.
        let exact_ocds: Vec<&Ocd> = exact.ocds.iter().map(|a| &a.ocd).collect();
        let sampled_ocds: Vec<&Ocd> = sampled.ocds.iter().map(|a| &a.ocd).collect();
        assert_eq!(exact_ocds, sampled_ocds);
        assert_eq!(exact.ods, sampled.ods);
        let stats = sampled.approx.expect("stats");
        assert!(!stats.exhaustive);
        assert!(stats.escalated > 0);
        assert_eq!(stats.accepted_by_sample, 0, "ε=0 can never sample-accept");
    }

    #[test]
    fn sampled_pipeline_is_deterministic_for_a_fixed_seed() {
        let r = pipeline_rel(300);
        let cfg = sampled_cfg(60, 0.05);
        let a = discover_approximate_with(&r, &cfg);
        let b = discover_approximate_with(&r, &cfg);
        assert_eq!(a.ocds, b.ocds);
        assert_eq!(a.ods, b.ods);
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.approx, b.approx);
    }

    #[test]
    fn different_seeds_may_differ_but_both_carry_provenance() {
        let r = pipeline_rel(300);
        let mut cfg = sampled_cfg(60, 0.05);
        let a = discover_approximate_with(&r, &cfg);
        cfg.seed = 99;
        let b = discover_approximate_with(&r, &cfg);
        let (sa, sb) = (a.approx.expect("stats"), b.approx.expect("stats"));
        assert_eq!(sa.seed, 0x0cdd_5eed);
        assert_eq!(sb.seed, 99);
        assert_ne!(sa.sample_manifest, 0);
        assert_ne!(sb.sample_manifest, 0);
    }

    #[test]
    fn sampled_pipeline_saves_full_checks_at_positive_epsilon() {
        // Big margin: the clean OD has error 0, the noise column errors
        // are far above ε, so the sample resolves everything and no
        // full-data work happens at all.
        let r = pipeline_rel(600);
        let sampled = discover_approximate_with(&r, &sampled_cfg(150, 0.02));
        let exhaustive = discover_approximate(&r, &DiscoveryConfig::default(), 0.02);
        assert_eq!(
            sampled
                .ods
                .iter()
                .map(|od| format!("{od:?}"))
                .collect::<Vec<_>>(),
            exhaustive
                .ods
                .iter()
                .map(|od| format!("{od:?}"))
                .collect::<Vec<_>>(),
        );
        let stats = sampled.approx.expect("stats");
        let full = exhaustive.approx.expect("stats");
        assert!(stats.full_checks_saved > 0);
        assert!(
            stats.full_row_scans < full.full_row_scans,
            "sampled {} vs exhaustive {}",
            stats.full_row_scans,
            full.full_row_scans
        );
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ocdd-approx-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn checkpointed_cfg(dir: &std::path::Path, sample: usize, epsilon: f64) -> ApproxConfig {
        use crate::snapshot::CheckpointPolicy;
        ApproxConfig {
            base: DiscoveryConfig {
                checkpoint: Some(CheckpointPolicy {
                    keep_last: 0,
                    delete_on_complete: false,
                    ..CheckpointPolicy::new(dir)
                }),
                ..DiscoveryConfig::default()
            },
            ..sampled_cfg(sample, epsilon)
        }
    }

    #[test]
    fn checkpoint_resume_replays_the_interrupted_run_exactly() {
        use crate::snapshot::{list_snapshots, read_snapshot};
        let r = pipeline_rel(300);
        let dir = ckpt_dir("resume");
        let cfg = checkpointed_cfg(&dir, 60, 0.05);
        let full = discover_approximate_with(&r, &cfg);
        assert!(full.complete());

        // Resume from every boundary dump; each must reproduce the
        // uninterrupted run's results and cumulative check count.
        let dumps = list_snapshots(&dir, None).expect("dump dir");
        assert!(!dumps.is_empty(), "boundary dumps were written");
        let resume_cfg = ApproxConfig {
            base: DiscoveryConfig::default(),
            ..cfg.clone()
        };
        for dump in &dumps {
            let snap = read_snapshot(dump).expect("readable dump");
            assert!(snap.approx.is_some(), "approx dumps carry sampling meta");
            let resumed =
                discover_approximate_resume(&r, &resume_cfg, &snap).expect("valid resume");
            assert_eq!(resumed.ocds, full.ocds, "dump {}", dump.display());
            assert_eq!(resumed.ods, full.ods, "dump {}", dump.display());
            assert_eq!(resumed.checks, full.checks, "dump {}", dump.display());
            assert_eq!(resumed.approx, full.approx, "dump {}", dump.display());
            assert!(resumed.complete());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Columns rising in row order with distinct tie widths: every OCD
    /// holds and no OD does, so the lattice runs `cols` levels deep.
    fn staircase(cols: usize, rows: usize) -> Relation {
        let cols: Vec<(String, Vec<Value>)> = (0..cols)
            .map(|c| {
                let vals = (0..rows).map(|r| Value::Int((r / (c + 2)) as i64));
                (format!("c{c}"), vals.collect())
            })
            .collect();
        Relation::from_columns(cols).unwrap()
    }

    #[test]
    fn dedup_off_checks_duplicates_and_keeps_the_result() {
        let r = staircase(4, 40);
        let dedup = discover_approximate_with(&r, &sampled_cfg(20, 0.05));
        let mut cfg = sampled_cfg(20, 0.05);
        cfg.base.dedup_candidates = false;
        let all = discover_approximate_with(&r, &cfg);
        assert_eq!(all.ocds, dedup.ocds);
        assert_eq!(all.ods, dedup.ods);
        assert!(
            all.checks > dedup.checks,
            "{} vs {}",
            all.checks,
            dedup.checks
        );
    }

    #[test]
    fn stopped_run_resumes_to_the_uninterrupted_result() {
        use crate::config::ParallelMode;
        use crate::runtime::FaultPlan;
        use crate::snapshot::{list_snapshots, read_snapshot};
        use std::time::Duration;
        let r = staircase(5, 80);
        let full = discover_approximate_with(&r, &sampled_cfg(40, 0.05));
        assert!(full.complete());

        // Every check sleeps, so the time budget stops the run mid-level.
        let dir = ckpt_dir("stopped");
        let mut stopping = checkpointed_cfg(&dir, 40, 0.05);
        stopping.base.time_budget = Some(Duration::from_millis(40));
        let delay = FaultPlan::delay_checks(Duration::from_millis(1));
        stopping.base.fault = Some(std::sync::Arc::new(delay));
        let stopped = discover_approximate_with(&r, &stopping);
        assert_eq!(stopped.termination, TerminationReason::TimeBudget);

        // Each boundary dump and the `-final` copy of the last one resume
        // to the uninterrupted run, stats included.
        let dumps = list_snapshots(&dir, None).expect("dump dir");
        assert!(
            dumps.iter().any(|d| d.to_string_lossy().contains("-final")),
            "{dumps:?}"
        );
        for dump in &dumps {
            let snap = read_snapshot(dump).expect("readable dump");
            for mode in [ParallelMode::Sequential, ParallelMode::WorkStealing(2)] {
                let mut cfg = sampled_cfg(40, 0.05);
                cfg.base.mode = mode;
                let resumed = discover_approximate_resume(&r, &cfg, &snap).expect("valid resume");
                let tag = format!("{mode:?} from {}", dump.display());
                assert_eq!(resumed.ocds, full.ocds, "{tag}");
                assert_eq!(resumed.ods, full.ods, "{tag}");
                assert_eq!(resumed.checks, full.checks, "{tag}");
                assert_eq!(resumed.termination, full.termination, "{tag}");
                assert_eq!(resumed.approx, full.approx, "{tag}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_sample_and_kind_mismatches() {
        use crate::snapshot::{latest_snapshot, read_snapshot, SnapshotError};
        let r = pipeline_rel(300);
        let dir = ckpt_dir("mismatch");
        let cfg = checkpointed_cfg(&dir, 60, 0.05);
        let _ = discover_approximate_with(&r, &cfg);
        let snap = read_snapshot(&latest_snapshot(&dir).expect("dump")).expect("readable");

        let reject = |cfg: &ApproxConfig, field: &'static str| {
            assert_eq!(
                discover_approximate_resume(&r, cfg, &snap).expect_err("must reject"),
                SnapshotError::SampleMismatch(field)
            );
        };
        reject(
            &ApproxConfig {
                seed: 1234,
                ..cfg.clone()
            },
            "seed",
        );
        reject(
            &ApproxConfig {
                epsilon: 0.06,
                ..cfg.clone()
            },
            "epsilon",
        );
        reject(
            &ApproxConfig {
                confidence: 0.9,
                ..cfg.clone()
            },
            "confidence",
        );
        reject(
            &ApproxConfig {
                strategy: SampleStrategy::Stratified(0),
                ..cfg.clone()
            },
            "strategy",
        );
        reject(
            &ApproxConfig {
                sample_rows: Some(61),
                ..cfg.clone()
            },
            "sample_rows",
        );

        // The exact resume path refuses approximate dumps outright.
        assert_eq!(
            crate::search::discover_resume(&r, &cfg.base, &snap).err(),
            Some(SnapshotError::SampleMismatch("approx"))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn approximate_resume_rejects_exact_dumps() {
        use crate::snapshot::{latest_snapshot, read_snapshot, CheckpointPolicy, SnapshotError};
        let r = pipeline_rel(40);
        let dir = ckpt_dir("exact-dump");
        let exact_cfg = DiscoveryConfig {
            checkpoint: Some(CheckpointPolicy {
                keep_last: 0,
                delete_on_complete: false,
                ..CheckpointPolicy::new(&dir)
            }),
            ..DiscoveryConfig::default()
        };
        let _ = crate::search::discover(&r, &exact_cfg);
        let snap = read_snapshot(&latest_snapshot(&dir).expect("dump")).expect("readable");
        assert!(snap.approx.is_none());
        let cfg = ApproxConfig {
            base: exact_cfg,
            ..ApproxConfig::default()
        };
        assert_eq!(
            discover_approximate_resume(&r, &cfg, &snap).err(),
            Some(SnapshotError::SampleMismatch("approx"))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn escalation_modes_agree_on_sampled_runs() {
        use crate::config::ParallelMode;
        let r = pipeline_rel(260);
        let mut cfg = sampled_cfg(64, 0.0); // everything escalates
        let seq = discover_approximate_with(&r, &cfg);
        cfg.base.mode = ParallelMode::WorkStealing(3);
        let steal = discover_approximate_with(&r, &cfg);
        assert_eq!(seq.ocds, steal.ocds);
        assert_eq!(seq.ods, steal.ods);
        assert_eq!(seq.checks, steal.checks);
    }
}
