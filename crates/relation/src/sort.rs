//! Lexicographic index sorting — the `generateIndex` primitive of
//! Algorithm 2 in the paper.
//!
//! Given a relation and a list of columns `X`, [`sort_index_by`] returns the
//! permutation of row ids that orders the rows by `X` under the operator
//! `⪯` of Definition 2.1 (lexicographic, NULLS FIRST). Because columns are
//! rank encoded over dense `u32` codes in `[0, distinct)`, the sort never
//! needs a general comparator: every kernel below is distribution-based.
//!
//! # Kernel selection
//!
//! * `[]` — identity permutation.
//! * `[A]` — one **counting sort** over `[0, distinct(A))`: `O(m + d)`.
//! * Short lists whose code widths sum to ≤ 64 bits — rows are packed into
//!   a single `u64` key and sorted by a stable **LSD radix sort**:
//!   `O(p·(m + 2^digit))` for `p = ⌈bits/digit⌉` passes.
//! * Anything else — **chained counting refinement**: the list is processed
//!   column by column, each step two stable counting scatters
//!   (`O(m + d_i)`), carrying run ids so earlier columns stay dominant.
//!
//! All kernels are stable, so ties keep their original row order, exactly
//! like the comparison sorts they replace. The comparator path survives as
//! [`sort_index_by_comparator`] — the differential-test oracle and the
//! paper-literal fallback.
//!
//! [`kernel_stats`] counts which kernel ran (process-global relaxed
//! atomics; snapshot deltas feed the discovery result and the ablation
//! bench).

use crate::relation::{ColumnId, Relation};
use std::cmp::Ordering;

/// Compare rows `a` and `b` of `rel` on the attribute list `cols`
/// (lexicographic over the list, per-column by rank code).
#[inline]
pub fn cmp_rows(rel: &Relation, cols: &[ColumnId], a: usize, b: usize) -> Ordering {
    for &c in cols {
        let ca = rel.code(a, c);
        let cb = rel.code(b, c);
        if ca != cb {
            return ca.cmp(&cb);
        }
    }
    Ordering::Equal
}

pub mod kernel_stats {
    //! Process-global counters of which sort kernel ran.
    //!
    //! Relaxed atomics: cheap enough for the hot path, and observability
    //! only — values are monotone counters, never part of a result.

    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTING: AtomicU64 = AtomicU64::new(0);
    static PACKED_RADIX: AtomicU64 = AtomicU64::new(0);
    static CHAINED_REFINE: AtomicU64 = AtomicU64::new(0);
    static COMPARATOR: AtomicU64 = AtomicU64::new(0);
    static SCAN_SCALAR: AtomicU64 = AtomicU64::new(0);
    static SCAN_BLOCK: AtomicU64 = AtomicU64::new(0);

    #[inline]
    pub(super) fn bump_counting() {
        // lint: allow(atomics-audit, monotone observability counter; reported in stats only, never on the result path)
        COUNTING.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(super) fn bump_packed_radix() {
        // lint: allow(atomics-audit, monotone observability counter; reported in stats only, never on the result path)
        PACKED_RADIX.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(super) fn bump_chained_refine() {
        // lint: allow(atomics-audit, monotone observability counter; reported in stats only, never on the result path)
        CHAINED_REFINE.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(super) fn bump_comparator() {
        // lint: allow(atomics-audit, monotone observability counter; reported in stats only, never on the result path)
        COMPARATOR.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn bump_scan_scalar() {
        // lint: allow(atomics-audit, monotone observability counter; reported in stats only, never on the result path)
        SCAN_SCALAR.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn bump_scan_block() {
        // lint: allow(atomics-audit, monotone observability counter; reported in stats only, never on the result path)
        SCAN_BLOCK.fetch_add(1, Ordering::Relaxed);
    }

    /// Monotone totals since process start.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct KernelCounts {
        /// Single-column counting sorts.
        pub counting: u64,
        /// Packed-`u64` LSD radix sorts.
        pub packed_radix: u64,
        /// Chained counting-refinement passes (one per column refined).
        pub chained_refine: u64,
        /// Comparator (oracle / fallback) sorts.
        pub comparator: u64,
        /// Adjacent-pair scans run by the scalar kernel (small inputs
        /// and the differential oracle).
        pub scan_scalar: u64,
        /// Adjacent-pair scans run by the portable blockwise kernels.
        pub scan_block: u64,
        /// Scans run by explicit SIMD kernels, of which there are none:
        /// always 0. The field keeps the report's `kernels.scans.simd`
        /// key and the checkpoint format's `scan_simd` field.
        pub scan_simd: u64,
    }

    impl KernelCounts {
        /// Counter increments between `earlier` and `self`.
        pub fn since(&self, earlier: &KernelCounts) -> KernelCounts {
            KernelCounts {
                counting: self.counting - earlier.counting,
                packed_radix: self.packed_radix - earlier.packed_radix,
                chained_refine: self.chained_refine - earlier.chained_refine,
                comparator: self.comparator - earlier.comparator,
                scan_scalar: self.scan_scalar - earlier.scan_scalar,
                scan_block: self.scan_block - earlier.scan_block,
                scan_simd: self.scan_simd - earlier.scan_simd,
            }
        }

        /// Field-wise sum — used by checkpoint resume to add the kernel
        /// work recorded in a snapshot to the counters of the resuming
        /// process, so `resumed == uninterrupted` holds for kernel totals
        /// too.
        pub fn plus(&self, other: &KernelCounts) -> KernelCounts {
            KernelCounts {
                counting: self.counting + other.counting,
                packed_radix: self.packed_radix + other.packed_radix,
                chained_refine: self.chained_refine + other.chained_refine,
                comparator: self.comparator + other.comparator,
                scan_scalar: self.scan_scalar + other.scan_scalar,
                scan_block: self.scan_block + other.scan_block,
                scan_simd: self.scan_simd + other.scan_simd,
            }
        }

        /// Sum over all sort kernels (scans are counted separately —
        /// one candidate check usually pairs one sort with one scan).
        pub fn total(&self) -> u64 {
            self.counting + self.packed_radix + self.chained_refine + self.comparator
        }

        /// Sum over all scan kernels.
        pub fn total_scans(&self) -> u64 {
            self.scan_scalar + self.scan_block + self.scan_simd
        }
    }

    /// Read the current totals.
    pub fn snapshot() -> KernelCounts {
        KernelCounts {
            // lint: allow(atomics-audit, observability snapshot; approximate totals are acceptable and never feed results)
            counting: COUNTING.load(Ordering::Relaxed),
            // lint: allow(atomics-audit, observability snapshot; approximate totals are acceptable and never feed results)
            packed_radix: PACKED_RADIX.load(Ordering::Relaxed),
            // lint: allow(atomics-audit, observability snapshot; approximate totals are acceptable and never feed results)
            chained_refine: CHAINED_REFINE.load(Ordering::Relaxed),
            // lint: allow(atomics-audit, observability snapshot; approximate totals are acceptable and never feed results)
            comparator: COMPARATOR.load(Ordering::Relaxed),
            // lint: allow(atomics-audit, observability snapshot; approximate totals are acceptable and never feed results)
            scan_scalar: SCAN_SCALAR.load(Ordering::Relaxed),
            // lint: allow(atomics-audit, observability snapshot; approximate totals are acceptable and never feed results)
            scan_block: SCAN_BLOCK.load(Ordering::Relaxed),
            scan_simd: 0,
        }
    }
}

/// Bits needed to store codes of a column with `distinct` values
/// (0 for constant columns — they never affect an ordering).
#[inline]
fn code_bits(distinct: usize) -> u32 {
    if distinct <= 1 {
        0
    } else {
        usize::BITS - (distinct - 1).leading_zeros()
    }
}

/// Total packed-key width of `cols`, or `None` when it exceeds 64 bits.
fn packed_bits(rel: &Relation, cols: &[ColumnId]) -> Option<u32> {
    let mut total = 0u32;
    for &c in cols {
        let bits = code_bits(rel.meta(c).distinct);
        debug_assert!(
            total <= 64 && bits <= 64,
            "the early return below keeps the running width at most 64"
        );
        total += bits;
        if total > 64 {
            return None;
        }
    }
    Some(total)
}

/// Stable counting sort of the identity permutation by one code column.
// lint: allow(panic-reachability, codes are dense ranks < distinct and starts is sized distinct+1, so every histogram index is in bounds)
fn counting_sort_single(codes: &[u32], distinct: usize) -> Vec<u32> {
    kernel_stats::bump_counting();
    let m = codes.len();
    let d = distinct.max(1);
    let mut starts = vec![0u32; d + 1];
    for &c in codes {
        starts[c as usize + 1] += 1;
    }
    for i in 1..=d {
        starts[i] += starts[i - 1];
    }
    let mut out = vec![0u32; m];
    for (row, &c) in codes.iter().enumerate() {
        let slot = &mut starts[c as usize];
        // lint: allow(lossy-cast, row indexes codes, whose length is the relation's row count (at most u32::MAX))
        out[*slot as usize] = row as u32;
        *slot += 1;
    }
    out
}

/// Pack each row's codes on `cols` into one `u64` (leftmost column in the
/// most significant bits). Constant columns contribute zero bits.
fn pack_keys(rel: &Relation, cols: &[ColumnId], rows: impl Iterator<Item = u32>) -> Vec<u64> {
    let widths: Vec<(ColumnId, u32)> = cols
        .iter()
        .map(|&c| (c, code_bits(rel.meta(c).distinct)))
        .collect();
    rows.map(|r| {
        let mut key = 0u64;
        for &(c, bits) in &widths {
            key = (key << bits) | u64::from(rel.code(r as usize, c));
        }
        key
    })
    .collect()
}

/// Stable LSD radix sort of `(keys, rows)` pairs by `total_bits` key bits.
// lint: allow(panic-reachability, digits are masked to buckets-1 with starts sized buckets+1, and scatter targets are sized m)
fn radix_sort_packed(mut keys: Vec<u64>, mut rows: Vec<u32>, total_bits: u32) -> Vec<u32> {
    kernel_stats::bump_packed_radix();
    let m = rows.len();
    if m <= 1 || total_bits == 0 {
        return rows;
    }
    // Narrow digits keep the bucket table cache-resident for small inputs.
    let digit_bits: u32 = if m < (1 << 14) { 8 } else { 16 };
    let buckets = 1usize << digit_bits;
    let mask = (buckets - 1) as u64;

    let mut scratch_keys = vec![0u64; m];
    let mut scratch_rows = vec![0u32; m];
    let mut starts = vec![0u32; buckets + 1];

    let mut shift = 0u32;
    while shift < total_bits {
        starts.fill(0);
        for &k in &keys {
            starts[((k >> shift) & mask) as usize + 1] += 1;
        }
        for i in 1..=buckets {
            starts[i] += starts[i - 1];
        }
        for i in 0..m {
            let digit = ((keys[i] >> shift) & mask) as usize;
            let slot = &mut starts[digit];
            scratch_keys[*slot as usize] = keys[i];
            scratch_rows[*slot as usize] = rows[i];
            *slot += 1;
        }
        std::mem::swap(&mut keys, &mut scratch_keys);
        std::mem::swap(&mut rows, &mut scratch_rows);
        debug_assert!(shift <= 64, "packed keys are at most 64 bits wide");
        shift += digit_bits;
    }
    rows
}

/// State carried by the chained counting-refinement kernel: a permutation
/// plus the run (equivalence-class) id of every position under the columns
/// refined so far.
struct RefineState {
    rows: Vec<u32>,
    runs: Vec<u32>,
    num_runs: usize,
}

impl RefineState {
    /// Everything in one run, original row order: the empty-prefix state.
    fn identity(m: usize) -> RefineState {
        debug_assert!(
            m <= u32::MAX as usize,
            "row ids are u32 by the relation contract"
        );
        RefineState {
            rows: (0..m as u32).collect(),
            runs: vec![0; m],
            num_runs: if m == 0 { 0 } else { 1 },
        }
    }

    /// Refine by one more column: two stable counting scatters. After the
    /// call, `rows` is ordered by (previous runs, `col`) and `runs` holds
    /// the new, finer run ids.
    // lint: allow(panic-reachability, rows hold row ids < m, codes are dense ranks < d, and both scatter tables are sized by their counting pass)
    fn refine_by(&mut self, rel: &Relation, col: ColumnId) {
        kernel_stats::bump_chained_refine();
        let m = self.rows.len();
        if m <= 1 {
            return;
        }
        let codes = rel.codes(col);
        let d = rel.meta(col).distinct.max(1);

        // Pass 1: stable counting sort by the new column's code.
        let mut starts = vec![0u32; d + 1];
        for &r in &self.rows {
            starts[codes[r as usize] as usize + 1] += 1;
        }
        for i in 1..=d {
            starts[i] += starts[i - 1];
        }
        let mut rows_by_code = vec![0u32; m];
        let mut runs_by_code = vec![0u32; m];
        for (i, &r) in self.rows.iter().enumerate() {
            let slot = &mut starts[codes[r as usize] as usize];
            rows_by_code[*slot as usize] = r;
            runs_by_code[*slot as usize] = self.runs[i];
            *slot += 1;
        }

        // Pass 2: stable counting sort by run id — restores the dominance
        // of the already-sorted prefix; within a run, pass 1's code order
        // survives by stability.
        let mut starts = vec![0u32; self.num_runs + 1];
        for &g in &runs_by_code {
            starts[g as usize + 1] += 1;
        }
        for i in 1..=self.num_runs {
            starts[i] += starts[i - 1];
        }
        let mut rows_out = vec![0u32; m];
        let mut runs_old = vec![0u32; m];
        for i in 0..m {
            let slot = &mut starts[runs_by_code[i] as usize];
            rows_out[*slot as usize] = rows_by_code[i];
            runs_old[*slot as usize] = runs_by_code[i];
            *slot += 1;
        }

        // New run ids: split whenever the old run or the new code changes.
        let mut runs_new = vec![0u32; m];
        let mut current = 0u32;
        for i in 1..m {
            if runs_old[i] != runs_old[i - 1]
                || codes[rows_out[i] as usize] != codes[rows_out[i - 1] as usize]
            {
                // lint: allow(overflow-prone-arith, current increments at most once per row and m <= u32::MAX by the row-id contract)
                current += 1;
            }
            runs_new[i] = current;
        }
        self.rows = rows_out;
        self.runs = runs_new;
        self.num_runs = current as usize + 1;
    }
}

/// Row-id permutation sorting `rel` by the attribute list `cols`.
///
/// The sort is stable, so ties keep their original row order; callers that
/// scan adjacent pairs must treat equal-`cols` neighbours explicitly.
pub fn sort_index_by(rel: &Relation, cols: &[ColumnId]) -> Vec<u32> {
    let m = rel.num_rows();
    debug_assert!(
        m <= u32::MAX as usize,
        "row ids are u32 by the relation contract"
    );
    match cols {
        [] => (0..m as u32).collect(),
        [single] => counting_sort_single(rel.codes(*single), rel.meta(*single).distinct),
        _ => match packed_bits(rel, cols) {
            Some(bits) => {
                let keys = pack_keys(rel, cols, 0..m as u32);
                radix_sort_packed(keys, (0..m as u32).collect(), bits)
            }
            None => {
                let mut state = RefineState::identity(m);
                for &c in cols {
                    state.refine_by(rel, c);
                }
                state.rows
            }
        },
    }
}

/// Row-id permutation for a single column (common fast path for level-2
/// candidates and column reduction).
pub fn sort_index_by_single(rel: &Relation, col: ColumnId) -> Vec<u32> {
    sort_index_by(rel, &[col])
}

/// Comparison-sort implementation of [`sort_index_by`]: the paper-literal
/// path, kept as the differential-test oracle and fallback.
pub fn sort_index_by_comparator(rel: &Relation, cols: &[ColumnId]) -> Vec<u32> {
    kernel_stats::bump_comparator();
    let m = rel.num_rows();
    debug_assert!(
        m <= u32::MAX as usize,
        "row ids are u32 by the relation contract"
    );
    let mut index: Vec<u32> = (0..m as u32).collect();
    match cols {
        [] => index,
        [single] => {
            let codes = rel.codes(*single);
            index.sort_by_key(|&r| codes[r as usize]);
            index
        }
        _ => {
            index.sort_by(|&a, &b| cmp_rows(rel, cols, a as usize, b as usize));
            index
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::value::Value;

    fn rel(rows: &[(i64, i64)]) -> Relation {
        let mut b = RelationBuilder::new(vec!["a", "b"]);
        for &(x, y) in rows {
            b.push_row(vec![Value::Int(x), Value::Int(y)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn single_column_sort() {
        let r = rel(&[(3, 0), (1, 0), (2, 0)]);
        assert_eq!(sort_index_by_single(&r, 0), vec![1, 2, 0]);
    }

    #[test]
    fn lexicographic_two_column_sort() {
        let r = rel(&[(2, 1), (1, 9), (2, 0), (1, 3)]);
        // Sorted by [a, b]: (1,3), (1,9), (2,0), (2,1) -> rows 3,1,2,0
        assert_eq!(sort_index_by(&r, &[0, 1]), vec![3, 1, 2, 0]);
        // Sorted by [b, a]: values b: 1,9,0,3 -> rows 2,0,3,1
        assert_eq!(sort_index_by(&r, &[1, 0]), vec![2, 0, 3, 1]);
    }

    #[test]
    fn empty_list_returns_identity() {
        let r = rel(&[(5, 5), (4, 4)]);
        assert_eq!(sort_index_by(&r, &[]), vec![0, 1]);
    }

    #[test]
    fn stable_on_ties() {
        let r = rel(&[(1, 7), (1, 3), (1, 5)]);
        // All tie on column a; stability keeps original order.
        assert_eq!(sort_index_by(&r, &[0]), vec![0, 1, 2]);
    }

    #[test]
    fn nulls_sort_first() {
        let mut b = RelationBuilder::new(vec!["a"]);
        b.push_row(vec![Value::Int(1)]).unwrap();
        b.push_row(vec![Value::Null]).unwrap();
        b.push_row(vec![Value::Int(-5)]).unwrap();
        let r = b.finish();
        assert_eq!(sort_index_by_single(&r, 0), vec![1, 2, 0]);
    }

    #[test]
    fn cmp_rows_agrees_with_sort() {
        let r = rel(&[(2, 1), (1, 9), (2, 0)]);
        let idx = sort_index_by(&r, &[0, 1]);
        for w in idx.windows(2) {
            assert_ne!(
                cmp_rows(&r, &[0, 1], w[0] as usize, w[1] as usize),
                Ordering::Greater
            );
        }
    }

    /// Deterministic pseudo-random relation with `cols` columns over a small
    /// domain (many ties, many runs).
    fn pseudo_random_relation(cols: usize, rows: usize, domain: i64, seed: u64) -> Relation {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let named = (0..cols)
            .map(|c| {
                (
                    format!("c{c}"),
                    (0..rows)
                        .map(|_| Value::Int((next() % domain as u64) as i64))
                        .collect(),
                )
            })
            .collect();
        Relation::from_columns(named).unwrap()
    }

    #[test]
    fn kernels_match_comparator_oracle() {
        for seed in 0..12u64 {
            let r = pseudo_random_relation(4, 64, 5, seed + 1);
            let lists: Vec<Vec<ColumnId>> = vec![
                vec![0],
                vec![3],
                vec![0, 1],
                vec![2, 1, 0],
                vec![3, 2, 1, 0],
                vec![1, 1, 2], // duplicate columns: later copies are no-ops
            ];
            for cols in &lists {
                assert_eq!(
                    sort_index_by(&r, cols),
                    sort_index_by_comparator(&r, cols),
                    "seed {seed}, cols {cols:?}"
                );
            }
        }
    }

    #[test]
    fn chained_kernel_matches_oracle_beyond_packing_width() {
        // Eight near-key columns at ~9 bits each exceed 64 packed bits,
        // forcing the chained counting-refinement kernel.
        let rows = 512;
        let r = pseudo_random_relation(8, rows, 60_000, 99);
        let cols: Vec<ColumnId> = (0..8).collect();
        assert!(
            packed_bits(&r, &cols).is_none(),
            "test must exercise the non-packable path"
        );
        assert_eq!(
            sort_index_by(&r, &cols),
            sort_index_by_comparator(&r, &cols)
        );
    }

    #[test]
    fn packed_radix_large_input_uses_wide_digits() {
        // > 2^14 rows exercises the 16-bit digit path.
        let rows = 20_000;
        let r = pseudo_random_relation(2, rows, 300, 7);
        let sorted = sort_index_by(&r, &[0, 1]);
        assert_eq!(sorted.len(), rows);
        for w in sorted.windows(2) {
            assert_ne!(
                cmp_rows(&r, &[0, 1], w[0] as usize, w[1] as usize),
                Ordering::Greater
            );
        }
        // Stability: ties keep ascending row order.
        for w in sorted.windows(2) {
            if cmp_rows(&r, &[0, 1], w[0] as usize, w[1] as usize) == Ordering::Equal {
                assert!(w[0] < w[1], "stable sort keeps original order on ties");
            }
        }
    }

    #[test]
    fn constant_columns_cost_no_key_bits() {
        assert_eq!(code_bits(0), 0);
        assert_eq!(code_bits(1), 0);
        assert_eq!(code_bits(2), 1);
        assert_eq!(code_bits(3), 2);
        assert_eq!(code_bits(256), 8);
        assert_eq!(code_bits(257), 9);
    }

    #[test]
    fn kernel_stats_count_up() {
        let before = kernel_stats::snapshot();
        let r = rel(&[(3, 1), (1, 2), (2, 0)]);
        let _ = sort_index_by(&r, &[0]);
        let _ = sort_index_by(&r, &[0, 1]);
        let _ = sort_index_by_comparator(&r, &[0, 1]);
        let delta = kernel_stats::snapshot().since(&before);
        assert!(delta.counting >= 1);
        assert!(delta.packed_radix >= 1);
        assert!(delta.comparator >= 1);
    }

    #[test]
    fn empty_relation_all_kernels() {
        let r = Relation::from_columns(vec![
            ("a".to_string(), Vec::new()),
            ("b".to_string(), Vec::new()),
        ])
        .unwrap();
        assert!(sort_index_by(&r, &[0]).is_empty());
        assert!(sort_index_by(&r, &[0, 1]).is_empty());
    }
}
