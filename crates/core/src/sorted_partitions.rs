//! Sorted-partition candidate checking — the linear-row-scaling method the
//! paper points at but leaves out of scope (§5.3.1: *"Previous work …
//! performs the check of dependency candidates with sorted partitions
//! computed from the data. This method could have been re-implemented in
//! our approach as well"*).
//!
//! A [`SortedPartition`] of an attribute list `X` is the sequence of
//! `X`-equivalence classes **in `X`-sorted order**. Once available, an OD
//! check `X → Y` is a single linear pass — no per-candidate sort:
//!
//! * **split** — some class is not constant on `Y`;
//! * **swap** — the lexicographic maximum of a class's `Y` projection
//!   exceeds the minimum of the next class's.
//!
//! Partitions are built once per column and *refined* incrementally: the
//! sorted partition of `XA` is obtained from `X`'s by two stable counting
//! scatters over the rank codes (by code, then by class id) — `O(m + d)`
//! for `d` distinct values, never a comparison sort. A
//! [`PartitionChecker`] memoizes partitions per list prefix, so sibling
//! candidates sharing a prefix pay for it once; with
//! [`PartitionChecker::with_epoch`] the memo is a run-wide
//! [`EpochPrefixCache`] reused across workers.

use crate::check::CheckOutcome;
use crate::deps::AttrList;
use crate::shared_cache::{CacheWeight, EpochPrefixCache, EpochTier};
use ocdd_relation::scan::{self, BlockEq, BlockLex, ScanKernel, BLOCK_PAIRS};
use ocdd_relation::{ColumnId, Relation};
use std::collections::HashMap;
use std::sync::Arc;

/// Equivalence classes of an attribute list, ordered by the list's
/// lexicographic order. Row ids within a class are in arbitrary order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedPartition {
    /// Concatenated row ids, class by class.
    rows: Vec<u32>,
    /// Start offset of each class within `rows` (plus a final sentinel).
    offsets: Vec<u32>,
}

impl SortedPartition {
    /// The partition of the empty list: a single class with every row.
    ///
    /// Row ids are stored as `u32` throughout the partition machinery,
    /// so the relation may hold at most `u32::MAX` rows. This is the
    /// single entry point where fresh row ids are minted, so the bound
    /// is enforced here once and inherited by every refinement.
    pub fn unit(num_rows: usize) -> SortedPartition {
        assert!(
            num_rows <= u32::MAX as usize,
            "row ids are u32: {num_rows} rows exceed the supported maximum"
        );
        SortedPartition {
            rows: (0..num_rows as u32).collect(),
            offsets: vec![0, num_rows as u32],
        }
    }

    /// Build the partition of a single column from its rank codes.
    pub fn for_column(rel: &Relation, col: ColumnId) -> SortedPartition {
        SortedPartition::unit(rel.num_rows()).refined(rel, col)
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Iterate the classes in sorted order.
    // lint: allow(panic-reachability, offsets is a monotone fence vector bounded by rows.len(), so every w[0]..w[1] range is in bounds)
    pub fn classes(&self) -> impl Iterator<Item = &[u32]> {
        self.offsets
            .windows(2)
            .map(|w| &self.rows[w[0] as usize..w[1] as usize])
    }

    /// Refine by one more column: each class is reordered by `col`'s rank
    /// codes and split at rank changes. The result is the sorted partition
    /// of `X ++ [col]` when `self` is the partition of `X`.
    ///
    /// Because codes are dense ranks, the reorder is two stable counting
    /// scatters — first by the new column's code, then by the old class id
    /// (stability keeps the code order inside every class) — so a
    /// refinement costs `O(m + d)` regardless of class sizes.
    // lint: allow(panic-reachability, offsets fences are bounded by rows.len() and every scatter target is sized by its counting pass)
    pub fn refined(&self, rel: &Relation, col: ColumnId) -> SortedPartition {
        let m = self.rows.len();
        debug_assert!(m <= u32::MAX as usize, "row ids are u32 (see unit)");
        if m == 0 {
            return SortedPartition {
                rows: Vec::new(),
                offsets: vec![0],
            };
        }
        let codes = rel.codes(col);
        let d = rel.meta(col).distinct.max(1);
        let num_classes = self.num_classes();

        let mut class_of = vec![0u32; m];
        for (cid, w) in self.offsets.windows(2).enumerate() {
            for slot in &mut class_of[w[0] as usize..w[1] as usize] {
                // lint: allow(lossy-cast, cid < num_classes <= m <= u32::MAX: offsets holds at most one fence per row)
                *slot = cid as u32;
            }
        }

        // Pass 1: stable counting scatter by the new column's code.
        let mut starts = vec![0u32; d + 1];
        for &r in &self.rows {
            starts[codes[r as usize] as usize + 1] += 1;
        }
        for i in 1..=d {
            starts[i] += starts[i - 1];
        }
        let mut rows_by_code = vec![0u32; m];
        let mut cls_by_code = vec![0u32; m];
        for (i, &r) in self.rows.iter().enumerate() {
            let slot = &mut starts[codes[r as usize] as usize];
            rows_by_code[*slot as usize] = r;
            cls_by_code[*slot as usize] = class_of[i];
            *slot += 1;
        }

        // Pass 2: stable counting scatter by old class id — classes regain
        // dominance, code order survives within each by stability.
        let mut starts = vec![0u32; num_classes + 1];
        for &c in &cls_by_code {
            starts[c as usize + 1] += 1;
        }
        for i in 1..=num_classes {
            starts[i] += starts[i - 1];
        }
        let mut rows = vec![0u32; m];
        let mut cls = vec![0u32; m];
        for i in 0..m {
            let slot = &mut starts[cls_by_code[i] as usize];
            rows[*slot as usize] = rows_by_code[i];
            cls[*slot as usize] = cls_by_code[i];
            *slot += 1;
        }

        // Class boundaries: wherever the old class or the new code changes.
        let mut offsets = Vec::with_capacity(self.offsets.len());
        offsets.push(0u32);
        for i in 1..m {
            if cls[i] != cls[i - 1] || codes[rows[i] as usize] != codes[rows[i - 1] as usize] {
                offsets.push(i as u32);
            }
        }
        offsets.push(m as u32);
        SortedPartition { rows, offsets }
    }

    /// Check the OD `X → rhs` where `self` is the sorted partition of `X`:
    /// one linear pass classifying the outcome.
    ///
    /// Dispatches like the index scans ([`scan::select_kernel`]): beyond
    /// one block the concatenated `rows` sequence is filtered blockwise —
    /// a pair decreasing on `rhs` anywhere, or increasing inside a class,
    /// is a violation — and the hit is classified by rescanning the
    /// scalar class walk from one class before the hit, which reproduces
    /// the scalar outcome (including its split-before-boundary event
    /// order and witness rows) byte for byte.
    pub fn check_od(&self, rel: &Relation, rhs: &AttrList) -> CheckOutcome {
        let pairs = self.rows.len().saturating_sub(1);
        if scan::select_kernel(pairs) == ScanKernel::Scalar {
            return self.check_od_scalar(rel, rhs);
        }
        scan::note_scan(ScanKernel::Block);
        match self.first_block_violation(rel, rhs.as_slice()) {
            None => CheckOutcome::Valid,
            Some(pos) => {
                // Class of the pair's second row; every class strictly
                // before it is constant on rhs with non-decreasing
                // boundaries (no earlier pair violated), so the scalar
                // walk restarted one class back — prev-less, re-proving
                // that class constant before the boundary into the hit —
                // sees exactly the events the full walk would.
                let ci = self.offsets.partition_point(|&o| (o as usize) <= pos + 1) - 1;
                self.scalar_walk(rel, rhs.as_slice(), ci.saturating_sub(1))
            }
        }
    }

    /// [`SortedPartition::check_od`] pinned to the scalar class walk —
    /// the differential oracle and the pinned-scalar bench config.
    pub fn check_od_scalar(&self, rel: &Relation, rhs: &AttrList) -> CheckOutcome {
        scan::note_scan(ScanKernel::Scalar);
        self.scalar_walk(rel, rhs.as_slice(), 0)
    }

    /// The scalar class walk from `from_class` onward, with no
    /// previous-class context (the boundary into `from_class` itself is
    /// not checked — callers start either at 0 or one class before a
    /// known violation).
    // lint: allow(panic-reachability, offsets is a monotone fence vector bounded by rows.len(), so every w[0]..w[1] range is in bounds)
    fn scalar_walk(
        &self,
        rel: &Relation,
        rhs_cols: &[ColumnId],
        from_class: usize,
    ) -> CheckOutcome {
        // Lexicographic compare of two rows on rhs via codes.
        let cmp = |a: u32, b: u32| {
            for &c in rhs_cols {
                let (ca, cb) = (rel.code(a as usize, c), rel.code(b as usize, c));
                if ca != cb {
                    return ca.cmp(&cb);
                }
            }
            std::cmp::Ordering::Equal
        };

        let mut prev_class_max: Option<u32> = None;
        for w in self.offsets[from_class..].windows(2) {
            let class = &self.rows[w[0] as usize..w[1] as usize];
            let Some((&first, rest)) = class.split_first() else {
                continue;
            };
            // Split: every row of the class must equal `first` on rhs.
            for &r in rest {
                if cmp(first, r) != std::cmp::Ordering::Equal {
                    return CheckOutcome::Split {
                        row_a: first,
                        row_b: r,
                    };
                }
            }
            // Swap: the previous class's rhs must not exceed this one's.
            if let Some(prev) = prev_class_max {
                if cmp(prev, first) == std::cmp::Ordering::Greater {
                    return CheckOutcome::Swap {
                        row_a: prev,
                        row_b: first,
                    };
                }
            }
            prev_class_max = Some(first);
        }
        CheckOutcome::Valid
    }

    /// Blockwise violation filter over the concatenated `rows` sequence:
    /// position of the first adjacent pair decreasing on `rhs`, or
    /// changing on `rhs` inside one class. `None` iff the OD holds —
    /// every class constant on `rhs` (no in-class change) and the class
    /// sequence non-decreasing (no decrease anywhere).
    // lint: allow(panic-reachability, offsets is a strictly increasing fence ending at rows.len(), so the cursor stays in bounds and every boundary k maps into the first n sel bytes)
    fn first_block_violation(&self, rel: &Relation, rhs: &[ColumnId]) -> Option<usize> {
        let total = self.rows.len() - 1;
        let mut lex = BlockLex::default();
        // Cursor over class boundaries: offsets[0] == 0 never forms a pair.
        let mut ob = 1usize;
        let mut start = 0usize;
        while start < total {
            let n = (total - start).min(BLOCK_PAIRS);
            let ob_start = ob;
            while (self.offsets[ob] as usize) <= start + n {
                ob += 1;
            }
            let window = &self.rows[start..=start + n];
            lex.reset(n);
            for &c in rhs {
                if rel.meta(c).is_constant() {
                    continue; // folds all-Equal: a no-op on the state
                }
                lex.fold_column(rel, c, window);
                if lex.closed() {
                    break;
                }
            }
            if lex.lt_any() || lex.gt_any() {
                // Same-class selection mask: boundary pairs (offset k in
                // this block => pair k - 1 - start) are deselected — an
                // increase across classes is the valid case.
                let mut sel = [0u8; BLOCK_PAIRS];
                for s in sel.iter_mut().take(n) {
                    *s = 0xFF;
                }
                for &k in &self.offsets[ob_start..ob] {
                    sel[k as usize - 1 - start] = 0;
                }
                if let Some(i) = lex.first_od_violation(&sel) {
                    return Some(start + i);
                }
            }
            start += n;
        }
        None
    }

    /// Split-only pass: true iff every class of `self` is constant on
    /// `rhs`. Sound as a *full* OD check only when a swap is impossible —
    /// i.e. after the corresponding OCD has been validated (see
    /// [`crate::check::check_od_after_ocd`] for the argument). Skips the
    /// cross-class boundary comparison of [`SortedPartition::check_od`]
    /// entirely: one fewer `rhs` comparison per class, and classes of
    /// size 1 (the common case near key-like prefixes) cost nothing.
    ///
    /// Dispatches blockwise beyond one block; on key-like prefixes
    /// (every pair of a block crossing a boundary) the `rhs` codes are
    /// never even gathered.
    // lint: allow(panic-reachability, offsets is a strictly increasing fence ending at rows.len(), so the cursor stays in bounds and every boundary k maps into the first n sel bytes)
    pub fn check_od_splits_only(&self, rel: &Relation, rhs: &AttrList) -> bool {
        let pairs = self.rows.len().saturating_sub(1);
        if scan::select_kernel(pairs) == ScanKernel::Scalar {
            return self.check_od_splits_only_scalar(rel, rhs);
        }
        scan::note_scan(ScanKernel::Block);
        let rhs_cols = rhs.as_slice();
        let total = self.rows.len() - 1;
        let mut eq = BlockEq::default();
        let mut ob = 1usize;
        let mut start = 0usize;
        while start < total {
            let n = (total - start).min(BLOCK_PAIRS);
            let ob_start = ob;
            while (self.offsets[ob] as usize) <= start + n {
                ob += 1;
            }
            // Key-like fast path: all pairs cross boundaries, nothing to
            // compare.
            if ob - ob_start < n {
                let mut sel = [0u8; BLOCK_PAIRS];
                for s in sel.iter_mut().take(n) {
                    *s = 0xFF;
                }
                for &k in &self.offsets[ob_start..ob] {
                    sel[k as usize - 1 - start] = 0;
                }
                let window = &self.rows[start..=start + n];
                eq.reset(n);
                for &c in rhs_cols {
                    if rel.meta(c).is_constant() {
                        continue;
                    }
                    eq.fold_column(rel, c, window);
                    if eq.none() {
                        break; // every pair already differs somewhere
                    }
                }
                if eq.first_unequal(&sel).is_some() {
                    return false;
                }
            }
            start += n;
        }
        true
    }

    /// [`SortedPartition::check_od_splits_only`] pinned to the scalar
    /// class walk — the differential oracle.
    pub fn check_od_splits_only_scalar(&self, rel: &Relation, rhs: &AttrList) -> bool {
        scan::note_scan(ScanKernel::Scalar);
        let rhs_cols = rhs.as_slice();
        for class in self.classes() {
            let Some((&first, rest)) = class.split_first() else {
                continue;
            };
            for &r in rest {
                for &c in rhs_cols {
                    // lint: allow(lossy-cast, first and r are u32 row ids drawn from self.rows; u32 -> usize is widening)
                    if rel.code(first as usize, c) != rel.code(r as usize, c) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl CacheWeight for SortedPartition {
    fn weight_bytes(&self) -> usize {
        (self.rows.len() + self.offsets.len()) * std::mem::size_of::<u32>()
    }
}

/// Memoizing checker over sorted partitions, keyed by list prefix.
///
/// The memo is worker-private by default; [`PartitionChecker::with_epoch`]
/// swaps it for a run-wide [`EpochPrefixCache`] so all workers of a run
/// refine each other's partitions instead of their own copies.
pub struct PartitionChecker<'r> {
    rel: &'r Relation,
    cache: HashMap<Vec<ColumnId>, Arc<SortedPartition>>,
    epoch: Option<EpochTier<SortedPartition>>,
    /// The empty-list partition (one class, every row).
    unit: Arc<SortedPartition>,
    /// Partitions built by refinement (cache hits on the parent).
    pub refinements: u64,
    /// Partitions built from scratch (column base cases).
    pub base_builds: u64,
    /// Epoch-mode lookups satisfied by the snapshot or local buffer
    /// (exactly or via a proper prefix); 0 with a private memo.
    pub hits: u64,
    /// Epoch-mode lookups with no usable prefix (built from the unit
    /// partition); 0 with a private memo.
    pub misses: u64,
}

impl<'r> PartitionChecker<'r> {
    /// Create an empty checker over `rel`.
    pub fn new(rel: &'r Relation) -> PartitionChecker<'r> {
        let unit = Arc::new(SortedPartition::unit(rel.num_rows()));
        let mut cache = HashMap::new();
        cache.insert(Vec::new(), Arc::clone(&unit));
        PartitionChecker {
            rel,
            cache,
            epoch: None,
            unit,
            refinements: 0,
            base_builds: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Create a checker whose memo is an epoch-published shared store
    /// ([`EpochPrefixCache`]): reads go to an immutable snapshot (no lock
    /// per check), new partitions are buffered locally until
    /// [`PartitionChecker::publish_pending`]. Used when the run sets
    /// `shared_cache`.
    pub fn with_epoch(
        rel: &'r Relation,
        cache: Arc<EpochPrefixCache<SortedPartition>>,
    ) -> PartitionChecker<'r> {
        PartitionChecker {
            rel,
            cache: HashMap::new(),
            epoch: Some(EpochTier::new(cache)),
            unit: Arc::new(SortedPartition::unit(rel.num_rows())),
            refinements: 0,
            base_builds: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Refresh the epoch snapshot at a level boundary. No-op with a
    /// private memo.
    pub fn begin_level(&mut self) {
        if let Some(tier) = &mut self.epoch {
            tier.begin_level();
        }
    }

    /// Publish locally-buffered partitions and flush lookup counters to
    /// the epoch cache. No-op with a private memo.
    pub fn publish_pending(&mut self) {
        if let Some(tier) = &mut self.epoch {
            tier.publish(self.hits, self.misses);
        }
    }

    /// The sorted partition of `cols`, built by refining the longest cached
    /// prefix.
    // lint: allow(panic-reachability, len < cols.len() inside the refinement loop, and cols[..len] after the increment never exceeds cols.len())
    pub fn partition_for(&mut self, cols: &[ColumnId]) -> Arc<SortedPartition> {
        if cols.is_empty() {
            return Arc::clone(&self.unit);
        }
        if let Some(tier) = &mut self.epoch {
            if let Some(p) = tier.get(cols) {
                self.hits += 1;
                return p;
            }
            // Longest usable prefix, falling back to the unit partition,
            // then refine one column at a time, buffering every
            // intermediate so siblings (and next level's children) reuse
            // them after publish.
            let (mut len, mut part) = match tier.longest_prefix(cols) {
                Some((len, p)) => {
                    self.hits += 1;
                    (len, p)
                }
                None => {
                    self.misses += 1;
                    (0, Arc::clone(&self.unit))
                }
            };
            while len < cols.len() {
                if len == 0 {
                    self.base_builds += 1;
                } else {
                    self.refinements += 1;
                }
                part = Arc::new(part.refined(self.rel, cols[len]));
                len += 1;
                // lint: allow(hot-loop-alloc, the vec is the cache key retained by the epoch tier — one per prefix build, not per row)
                tier.buffer(cols[..len].to_vec(), Arc::clone(&part));
            }
            return part;
        }
        if let Some(p) = self.cache.get(cols) {
            return Arc::clone(p);
        }
        let parent = self.partition_for(&cols[..cols.len() - 1]);
        if cols.len() == 1 {
            self.base_builds += 1;
        } else {
            self.refinements += 1;
        }
        let refined = Arc::new(parent.refined(self.rel, cols[cols.len() - 1]));
        self.cache.insert(cols.to_vec(), Arc::clone(&refined));
        refined
    }

    /// Check `lhs → rhs` through the partition cache.
    pub fn check_od(&mut self, lhs: &AttrList, rhs: &AttrList) -> CheckOutcome {
        let partition = self.partition_for(lhs.as_slice());
        partition.check_od(self.rel, rhs)
    }

    /// Check the OCD `x ~ y` via the single check `XY → YX` (Theorem 4.1).
    pub fn check_ocd(&mut self, x: &AttrList, y: &AttrList) -> CheckOutcome {
        let xy = x.concat(y);
        let yx = y.concat(x);
        self.check_od(&xy, &yx)
    }

    /// Fused direction check after a validated OCD — partition counterpart
    /// of [`crate::check::check_od_after_ocd`]: swaps are impossible, so
    /// only the class-constant (split) pass runs.
    pub fn check_od_after_ocd(&mut self, lhs: &AttrList, rhs: &AttrList) -> bool {
        let partition = self.partition_for(lhs.as_slice());
        partition.check_od_splits_only(self.rel, rhs)
    }

    /// Number of cached partitions.
    pub fn cached(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_od;
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
    fn single_column_partition_orders_classes() {
        let r = rel(&[("a", &[3, 1, 2, 1])]);
        let p = SortedPartition::for_column(&r, 0);
        assert_eq!(p.num_classes(), 3);
        let classes: Vec<Vec<u32>> = p
            .classes()
            .map(|c| {
                let mut v = c.to_vec();
                v.sort_unstable();
                v
            })
            .collect();
        assert_eq!(classes, vec![vec![1, 3], vec![2], vec![0]]);
    }

    #[test]
    fn refinement_matches_direct_build() {
        let r = rel(&[("a", &[1, 1, 2, 2, 1]), ("b", &[2, 1, 2, 1, 1])]);
        let pa = SortedPartition::for_column(&r, 0);
        let pab = pa.refined(&r, 1);
        // Classes of [a, b] in lexicographic order:
        // (1,1)->rows 1,4; (1,2)->row 0; (2,1)->row 3; (2,2)->row 2.
        let classes: Vec<Vec<u32>> = pab
            .classes()
            .map(|c| {
                let mut v = c.to_vec();
                v.sort_unstable();
                v
            })
            .collect();
        assert_eq!(classes, vec![vec![1, 4], vec![0], vec![3], vec![2]]);
    }

    #[test]
    fn check_agrees_with_sort_based_checker() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let cols: Vec<(String, Vec<Value>)> = (0..3)
                .map(|c| {
                    (
                        format!("c{c}"),
                        (0..15)
                            .map(|_| Value::Int(rng.random_range(0..4)))
                            .collect(),
                    )
                })
                .collect();
            let r = Relation::from_columns(cols).unwrap();
            let mut checker = PartitionChecker::new(&r);
            let lists = [
                l(&[0]),
                l(&[1]),
                l(&[2]),
                l(&[0, 1]),
                l(&[1, 2]),
                l(&[2, 0]),
            ];
            for x in &lists {
                for y in &lists {
                    assert_eq!(
                        checker.check_od(x, y).is_valid(),
                        check_od(&r, x, y).is_valid(),
                        "seed {seed}: {x} -> {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn ocd_check_agrees_with_core() {
        use crate::check::check_ocd;
        let r = rel(&[("a", &[1, 1, 2, 2, 3]), ("b", &[1, 2, 2, 3, 3])]);
        let mut checker = PartitionChecker::new(&r);
        assert_eq!(
            checker.check_ocd(&l(&[0]), &l(&[1])).is_valid(),
            check_ocd(&r, &l(&[0]), &l(&[1])).is_valid()
        );
        assert!(checker.check_ocd(&l(&[0]), &l(&[1])).is_valid());
    }

    #[test]
    fn witnesses_are_genuine() {
        let r = rel(&[("a", &[1, 1, 2]), ("b", &[5, 6, 1])]);
        let mut checker = PartitionChecker::new(&r);
        match checker.check_od(&l(&[0]), &l(&[1])) {
            CheckOutcome::Split { row_a, row_b } => {
                assert_eq!(r.code(row_a as usize, 0), r.code(row_b as usize, 0));
                assert_ne!(r.code(row_a as usize, 1), r.code(row_b as usize, 1));
            }
            other => panic!("expected split, got {other:?}"),
        }
    }

    #[test]
    fn cache_reuses_prefixes() {
        let r = rel(&[
            ("a", &[1, 2, 1, 2]),
            ("b", &[1, 1, 2, 2]),
            ("c", &[1, 2, 3, 4]),
        ]);
        let mut checker = PartitionChecker::new(&r);
        checker.check_od(&l(&[0, 1]), &l(&[2]));
        checker.check_od(&l(&[0, 2]), &l(&[1]));
        // [0] built once (base), [0,1] and [0,2] by refinement.
        assert_eq!(checker.base_builds, 1);
        assert_eq!(checker.refinements, 2);
        assert_eq!(checker.cached(), 4); // [], [0], [0,1], [0,2]
    }

    #[test]
    fn epoch_checker_agrees_and_shares_after_publish() {
        let r = rel(&[
            ("a", &[1, 2, 1, 2, 3]),
            ("b", &[1, 1, 2, 2, 3]),
            ("c", &[1, 2, 3, 4, 5]),
        ]);
        let cache = Arc::new(EpochPrefixCache::new(1 << 20));
        let mut one = PartitionChecker::with_epoch(&r, Arc::clone(&cache));
        let mut two = PartitionChecker::with_epoch(&r, Arc::clone(&cache));
        let lists = [l(&[0]), l(&[1]), l(&[0, 1]), l(&[1, 2])];
        for x in &lists {
            for y in &lists {
                assert_eq!(
                    one.check_od(x, y).is_valid(),
                    check_od(&r, x, y).is_valid(),
                    "{x} -> {y}"
                );
            }
        }
        one.publish_pending();
        two.begin_level();
        for x in &lists {
            for y in &lists {
                assert_eq!(two.check_od(x, y).is_valid(), check_od(&r, x, y).is_valid());
            }
        }
        assert_eq!(
            two.base_builds + two.refinements,
            0,
            "everything arrived via the published snapshot"
        );
        two.publish_pending();
        let s = cache.stats();
        assert_eq!(s.misses, one.misses);
        assert_eq!(s.hits, one.hits + two.hits);
    }

    #[test]
    fn split_only_check_matches_full_check_after_valid_ocd() {
        use crate::check::check_ocd;
        // Exhaustive over all pairs of 4-row columns with values in
        // {0, 1, 2}: every OCD-valid pair must get the same direction
        // verdicts from the fused split-only scan as from the full check.
        let patterns: Vec<Vec<i64>> = (0..81)
            .map(|mut n: i64| {
                (0..4)
                    .map(|_| {
                        let v = n % 3;
                        n /= 3;
                        v
                    })
                    .collect()
            })
            .collect();
        let mut fused_cases = 0;
        for a in &patterns {
            for b in &patterns {
                let r = Relation::from_columns(vec![
                    ("a".to_string(), a.iter().map(|&v| Value::Int(v)).collect()),
                    ("b".to_string(), b.iter().map(|&v| Value::Int(v)).collect()),
                ])
                .unwrap();
                let (x, y) = (l(&[0]), l(&[1]));
                if !check_ocd(&r, &x, &y).is_valid() {
                    continue;
                }
                fused_cases += 1;
                let mut checker = PartitionChecker::new(&r);
                assert_eq!(
                    checker.check_od_after_ocd(&x, &y),
                    check_od(&r, &x, &y).is_valid(),
                    "{a:?} / {b:?}: x→y"
                );
                assert_eq!(
                    checker.check_od_after_ocd(&y, &x),
                    check_od(&r, &y, &x).is_valid(),
                    "{a:?} / {b:?}: y→x"
                );
            }
        }
        assert!(fused_cases > 500, "need OCD-valid cases ({fused_cases})");
    }

    /// Deterministic pseudo-random integer relation (xorshift).
    fn random_relation(cols: usize, rows: usize, domains: &[i64], seed: u64) -> Relation {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        Relation::from_columns(
            (0..cols)
                .map(|c| {
                    let d = domains[c % domains.len()];
                    (
                        format!("c{c}"),
                        (0..rows)
                            .map(|_| Value::Int((next() % d as u64) as i64))
                            .collect(),
                    )
                })
                .collect(),
        )
        .unwrap()
    }

    // Beyond one block the walk dispatches blockwise; outcome — including
    // witness rows and the scalar's split-before-boundary event order —
    // must be byte-identical to the pinned scalar walk.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn blockwise_walk_matches_scalar_walk_with_witnesses(
            seed in 0u64..1 << 32,
            rows in 2usize..260,
        ) {
            use proptest::prop_assert_eq;
            let r = random_relation(3, rows, &[3, 40, 5000], seed);
            let mut checker = PartitionChecker::new(&r);
            for (x, y) in [
                (l(&[0]), l(&[1])),
                (l(&[1]), l(&[2])),
                (l(&[2]), l(&[0])),
                (l(&[0, 1]), l(&[2])),
                (l(&[2, 1]), l(&[0, 1])),
            ] {
                let p = checker.partition_for(x.as_slice());
                prop_assert_eq!(p.check_od(&r, &y), p.check_od_scalar(&r, &y));
                prop_assert_eq!(
                    p.check_od_splits_only(&r, &y),
                    p.check_od_splits_only_scalar(&r, &y)
                );
            }
        }
    }

    #[test]
    fn blockwise_walk_prefers_split_over_earlier_boundary_swap() {
        // 100 rows, 10 classes of 10. Class 5 both swaps against class 4
        // at the boundary (an earlier pair in row order) AND contains an
        // internal split; the scalar walk checks a class's splits before
        // the boundary into it, so the split must win — also blockwise.
        let lhs: Vec<i64> = (0..100).map(|i| i / 10).collect();
        let rhs: Vec<i64> = (0..100)
            .map(|i| {
                if (50..60).contains(&i) {
                    10 + (i % 2) // below class 4's 40s: boundary swap; non-constant: split
                } else {
                    i
                }
            })
            .collect();
        let r = rel(&[("x", lhs.as_slice()), ("y", rhs.as_slice())]);
        let p = SortedPartition::for_column(&r, 0);
        let scalar = p.check_od_scalar(&r, &l(&[1]));
        assert!(matches!(scalar, CheckOutcome::Split { .. }), "{scalar:?}");
        assert_eq!(p.check_od(&r, &l(&[1])), scalar);
    }

    #[test]
    fn empty_relation_is_trivially_valid() {
        let r = rel(&[("a", &[]), ("b", &[])]);
        let mut checker = PartitionChecker::new(&r);
        assert!(checker.check_od(&l(&[0]), &l(&[1])).is_valid());
    }

    #[test]
    fn unit_partition_detects_constants() {
        let r = rel(&[("a", &[1, 2]), ("k", &[5, 5])]);
        let unit = SortedPartition::unit(2);
        assert!(
            unit.check_od(&r, &l(&[1])).is_valid(),
            "[] -> constant holds"
        );
        assert!(!unit.check_od(&r, &l(&[0])).is_valid());
    }
}
