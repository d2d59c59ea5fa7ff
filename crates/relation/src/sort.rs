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
//! * Lists whose code widths sum to ≤ 64 bits — each row's codes are
//!   packed, column by column, into one `u64` key and sorted by a stable
//!   **LSD radix sort**: `O(p·(m + 2^digit))` for `p` passes. The key bits
//!   are cut into `p` balanced digits no wider than `⌊log2 m⌋` clamped to
//!   8–11 bits; one sweep builds every digit's histogram, and a digit that
//!   every key shares is skipped. When the row id fits below the key bits
//!   in the same word it rides there, so a pass moves one `u64`; otherwise
//!   a pass moves a `(key, row)` pair.
//! * Anything else — **chained counting refinement**: the list is processed
//!   column by column, each step two stable counting scatters
//!   (`O(m + d_i)`), carrying run ids so earlier columns stay dominant.
//!
//! All kernels are stable, so ties keep their original row order, exactly
//! like the comparison sorts they replace. The comparator path survives as
//! [`sort_index_by_comparator`] — the differential-test oracle and the
//! paper-literal fallback.
//!
//! [`rank_keys`] gives each row a `u64` whose order and equality match its
//! projection: the packed codes, with no sort, when they fit in 64 bits,
//! and the chained refinement's run ids otherwise. [`RowKeys`] reads the
//! same key one row at a time.
//!
//! [`ClassOrder`] gives [`sort_index_by`]'s order one class of the first
//! column at a time: a counting sort by that column up front, and each
//! class sorted by the rest of the list only when a caller reads it. It
//! serves the paper's checks: the `Resort` checker scans it in place
//! ([`crate::scan::od_walk`], [`crate::scan::split_walk`]) and stops
//! ordering at the first violation, where `generateIndex` would have
//! sorted every row. The ε-error decomposition walks it too and may stop
//! long before the last class.
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
    //! Process-global counters of which sort and scan kernel ran.
    //!
    //! Relaxed atomics: cheap enough for the hot path, and observability
    //! only — values are monotone counters, never part of a result.
    //!
    //! The count rule: [`super::sort_index_by`] counts one `counting` or
    //! `packed_radix` sort, or one `chained_refine` per column it
    //! refines, and [`super::sort_index_by_comparator`] one `comparator`
    //! sort; [`super::rank_keys`] counts the refinements it runs. A
    //! [`super::ClassOrder`] counts one `counting` sort, its first
    //! column's, however many classes it orders, plus the refinements
    //! that rank a rest over 64 bits; the class sorts count as none. A
    //! lazily walked check ([`crate::scan::od_walk`],
    //! [`crate::scan::split_walk`]) therefore counts its order's sorts and
    //! one scan, `block` when any of its windows ran the blockwise kernels
    //! and `scalar` otherwise. [`crate::scan::od_scan`] and the scalar
    //! oracles count one scan each.

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
fn code_bits(distinct: usize) -> usize {
    if distinct <= 1 {
        0
    } else {
        (distinct - 1).ilog2() as usize + 1
    }
}

/// Total packed-key width of `cols`, or `None` when it exceeds 64 bits.
fn packed_bits(rel: &Relation, cols: &[ColumnId]) -> Option<usize> {
    let mut total = 0;
    for &c in cols {
        total += code_bits(rel.meta(c).distinct);
        if total > 64 {
            return None;
        }
    }
    Some(total)
}

/// Stable counting sort of the identity permutation by one code column:
/// the sorted row ids, and for each code `c` below `distinct.max(1)` the
/// position one past the last row with code `c` (the end of its class).
// lint: allow(panic-reachability, codes are dense ranks < distinct and starts is sized distinct+1, so every histogram index is in bounds)
fn counting_sort_classes(codes: &[u32], distinct: usize) -> (Vec<u32>, Vec<u32>) {
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
    // Each code's slot has moved from its class's start to its end.
    starts.truncate(d);
    (out, starts)
}

/// Each row's codes on `cols`, `bits` wide in total, packed into one `u64`
/// above `shift` zero low bits (leftmost column in the most significant
/// bits). Built column by column; constant columns contribute zero bits.
fn pack_codes(rel: &Relation, cols: &[ColumnId], bits: usize, shift: usize) -> Vec<u64> {
    let mut keys = vec![0u64; rel.num_rows()];
    let mut offset = shift + bits;
    for &c in cols {
        let width = code_bits(rel.meta(c).distinct);
        if width == 0 {
            continue;
        }
        offset -= width;
        for (key, &code) in keys.iter_mut().zip(rel.codes(c)) {
            *key |= u64::from(code) << offset;
        }
    }
    keys
}

/// Widest radix digit for an `m`-row sort: a bucket table no larger than
/// the row count, between 2^8 and 2^11 entries (2^11 `u32` counters are
/// 8 KiB, so the tables stay cache-resident on large inputs).
fn max_digit_bits(m: usize) -> usize {
    (m.max(1).ilog2() as usize).clamp(8, 11)
}

/// Stable LSD radix sort of `items` by the `bits`-bit field at bit `lo` of
/// `key(item)` (every key bit above that field is zero).
///
/// The field is cut into balanced digits no wider than
/// [`max_digit_bits`]; one sweep builds every digit's histogram, and a
/// digit that every key shares costs no scatter.
// lint: allow(panic-reachability, digits are masked below buckets and each table spans buckets counters of counts; a table's exclusive prefix sums over the m items keep every scatter slot below m)
fn radix_sort<T: Copy>(
    mut items: Vec<T>,
    key: impl Fn(&T) -> u64,
    lo: usize,
    bits: usize,
) -> Vec<T> {
    let m = items.len();
    if m <= 1 || bits == 0 {
        return items;
    }
    let passes = bits.div_ceil(max_digit_bits(m));
    let width = bits.div_ceil(passes);
    let buckets = 1usize << width;
    let mask = (1u64 << width) - 1;
    let mut counts = vec![0u32; passes * buckets];
    for item in &items {
        let k = key(item) >> lo;
        for pass in 0..passes {
            let digit = (k >> (pass * width)) & mask;
            counts[pass * buckets + digit as usize] += 1;
        }
    }
    let mut scratch = items.clone();
    for pass in 0..passes {
        let table = &mut counts[pass * buckets..(pass + 1) * buckets];
        if table.iter().any(|&n| n as usize == m) {
            continue;
        }
        let mut sum = 0;
        for n in table.iter_mut() {
            let count = *n;
            *n = sum;
            sum += count;
        }
        let shift = lo + pass * width;
        for item in &items {
            let slot = &mut table[((key(item) >> shift) & mask) as usize];
            scratch[*slot as usize] = *item;
            *slot += 1;
        }
        std::mem::swap(&mut items, &mut scratch);
    }
    items
}

/// Stable sort of the rows by their `bits`-bit packed codes on `cols`.
///
/// When the row id fits beside the codes in one word, it rides in the low
/// bits: a pass moves one `u64`, and rows with equal codes keep their
/// original order. Otherwise each pass moves a `(key, row)` pair.
fn radix_sort_packed(rel: &Relation, cols: &[ColumnId], bits: usize) -> Vec<u32> {
    kernel_stats::bump_packed_radix();
    let m = rel.num_rows();
    let row_bits = code_bits(m);
    if bits + row_bits <= 64 {
        let mut words = pack_codes(rel, cols, bits, row_bits);
        for (row, word) in (0u64..).zip(words.iter_mut()) {
            *word |= row;
        }
        let row_mask = (1u64 << row_bits) - 1;
        let sorted = radix_sort(words, |&w| w, row_bits, bits);
        sorted.into_iter().map(|w| (w & row_mask) as u32).collect()
    } else {
        let pairs: Vec<(u64, u32)> = pack_codes(rel, cols, bits, 0)
            .into_iter()
            .zip(0u32..)
            .collect();
        let sorted = radix_sort(pairs, |&(k, _)| k, 0, bits);
        sorted.into_iter().map(|(_, row)| row).collect()
    }
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

/// The chained counting refinement of all rows by `cols`, column by
/// column.
fn refine_all(rel: &Relation, cols: &[ColumnId]) -> RefineState {
    let mut state = RefineState::identity(rel.num_rows());
    for &c in cols {
        state.refine_by(rel, c);
    }
    state
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
        [single] => counting_sort_classes(rel.codes(*single), rel.meta(*single).distinct).0,
        _ => match packed_bits(rel, cols) {
            Some(bits) => radix_sort_packed(rel, cols, bits),
            None => refine_all(rel, cols).rows,
        },
    }
}

/// A key per row whose order and equality match the row's projection on
/// `cols` (lexicographic, NULLS FIRST, as [`sort_index_by`] orders rows).
///
/// When the codes of `cols` fit in 64 bits the key is the packed codes,
/// built without a sort; otherwise it is the row's run id after the
/// chained counting refinement by `cols`.
// lint: allow(panic-reachability, refine_all returns a permutation of 0..m, so every row id indexes the m keys)
pub fn rank_keys(rel: &Relation, cols: &[ColumnId]) -> Vec<u64> {
    match packed_bits(rel, cols) {
        Some(bits) => pack_codes(rel, cols, bits, 0),
        None => {
            let state = refine_all(rel, cols);
            let mut keys = vec![0u64; state.rows.len()];
            for (&row, &run) in state.rows.iter().zip(&state.runs) {
                keys[row as usize] = u64::from(run);
            }
            keys
        }
    }
}

/// A key per row on a column list, read one row at a time: the key
/// [`rank_keys`] gives the row. When the list's codes fit in 64 bits the
/// key is the row's packed codes, built only for the rows that are read;
/// otherwise [`RowKeys::new`] runs [`rank_keys`] for every row up front.
pub struct RowKeys<'r> {
    /// Width of every key in bits (for ranked keys, of the row count).
    bits: usize,
    keys: Keys<'r>,
}

/// How [`RowKeys`] reads a key.
enum Keys<'r> {
    /// Each non-constant column's codes, and the shift of its field in
    /// the packed key.
    Packed(Vec<(&'r [u32], usize)>),
    /// [`rank_keys`] of a list over 64 bits.
    Ranked(Vec<u64>),
}

impl<'r> RowKeys<'r> {
    /// The keys of `rel`'s rows on `cols`.
    pub fn new(rel: &'r Relation, cols: &[ColumnId]) -> RowKeys<'r> {
        match packed_bits(rel, cols) {
            Some(bits) => {
                let mut offset = bits;
                let fields = cols
                    .iter()
                    .filter_map(|&c| {
                        let width = code_bits(rel.meta(c).distinct);
                        (width > 0).then(|| {
                            offset -= width;
                            (rel.codes(c), offset)
                        })
                    })
                    .collect();
                RowKeys {
                    bits,
                    keys: Keys::Packed(fields),
                }
            }
            None => RowKeys {
                bits: code_bits(rel.num_rows()),
                keys: Keys::Ranked(rank_keys(rel, cols)),
            },
        }
    }

    /// The key of row `row`, which must be a row of the relation (any
    /// other row reads as 0).
    #[inline]
    pub fn key(&self, row: u32) -> u64 {
        let row = row as usize;
        match &self.keys {
            Keys::Packed(fields) => fields.iter().fold(0, |key, &(codes, shift)| {
                key | u64::from(codes.get(row).copied().unwrap_or(0)) << shift
            }),
            Keys::Ranked(keys) => keys.get(row).copied().unwrap_or(0),
        }
    }
}

/// Fewest rows of a class that [`radix_sort`] orders when its rest keys
/// take one radix digit; each further digit quadruples it.
const RADIX_CLASS_ROWS: usize = 128;

/// Most radix digits a class's rest keys may take for [`radix_sort`] to
/// order it. (Keys that leave no room for the row id in the word are over
/// 32 bits, so take more.)
const RADIX_CLASS_PASSES: usize = 2;

/// Whether a class of `rows` rows whose rest keys are `bits` wide is
/// ordered by [`radix_sort`] rather than `sort_unstable`: from
/// [`RADIX_CLASS_ROWS`] rows at one digit and four times that at two.
///
/// Timed on uniform random keys with 10-bit row ids (2-vCPU x86-64 host,
/// best of five), the radix sort took 0.36–0.72 of `sort_unstable`'s time
/// at one digit from 128 rows on, 0.52–0.97 at two digits from 512 rows
/// on, but 0.93–1.25 at two digits below that and 0.95–1.26 at three
/// digits up to 16,384 rows.
fn radix_class(rows: usize, bits: usize) -> bool {
    let passes = bits.div_ceil(max_digit_bits(rows));
    (1..=RADIX_CLASS_PASSES).contains(&passes) && rows >= RADIX_CLASS_ROWS << (2 * (passes - 1))
}

/// The rows sorted by a column list exactly as [`sort_index_by`] sorts
/// them, ordered one class of the list's first column at a time.
///
/// One counting sort groups the rows by their code in the first column;
/// each group — a *class* — holds its rows in row order. [`Self::class`]
/// orders a class by the rest of the list when a caller reads it, on the
/// rest's [`RowKeys`] with the row id breaking ties. The classes in code
/// order thus put together `sort_index_by(rel, cols)`, and a caller that
/// stops reading early never orders the classes it did not reach.
/// [`Self::prefix`] orders the classes in code order, each once, and
/// hands out every row ordered so far, so a scan can read across class
/// boundaries in place.
///
/// A class is ordered by one sort of `u64` words, each a row's rest key
/// above its row id, or of `(key, row)` pairs when the two do not fit in
/// one word: `sort_unstable`, or the stable radix sort by the key bits
/// for a large class whose keys take few digits (from 128 rows at one
/// digit, from 512 at two).
/// The counting sort counts as one [`kernel_stats`] `counting` sort; the
/// class sorts count as none.
pub struct ClassOrder<'r> {
    /// Row ids grouped by their first-column code.
    rows: Vec<u32>,
    /// One past the last position of each class in `rows`.
    ends: Vec<u32>,
    /// Classes [`Self::prefix`] has ordered: every class when the rest of
    /// the list has no key bits, since each class is then in order.
    ordered: usize,
    /// Keys of the rest of the list.
    rest: RowKeys<'r>,
    /// Bits of the relation's row ids.
    row_bits: usize,
    /// Scratch of one class's sort words.
    words: Vec<u64>,
    /// Scratch of one class's sort pairs.
    pairs: Vec<(u64, u32)>,
}

impl<'r> ClassOrder<'r> {
    /// Group `rel`'s rows by the first column of `cols`; an empty list
    /// makes one class of every row, in row order.
    pub fn new(rel: &'r Relation, cols: &[ColumnId]) -> ClassOrder<'r> {
        let m = rel.num_rows();
        debug_assert!(
            m <= u32::MAX as usize,
            "row ids are u32 by the relation contract"
        );
        let ((rows, ends), rest) = match cols.split_first() {
            Some((&first, rest)) => (
                counting_sort_classes(rel.codes(first), rel.meta(first).distinct),
                rest,
            ),
            None => (((0..m as u32).collect(), vec![m as u32]), cols),
        };
        let rest = RowKeys::new(rel, rest);
        ClassOrder {
            ordered: if rest.bits == 0 { ends.len() } else { 0 },
            rows,
            ends,
            rest,
            row_bits: code_bits(m),
            words: Vec::new(),
            pairs: Vec::new(),
        }
    }

    /// Number of classes: the first column's distinct count (at least 1).
    pub fn classes(&self) -> usize {
        self.ends.len()
    }

    /// Position one past the last row of the classes before class `i`.
    fn start(&self, i: usize) -> usize {
        i.checked_sub(1)
            .and_then(|j| self.ends.get(j))
            .map_or(0, |&e: &u32| e as usize)
    }

    /// The rows of class `i` — the rows whose first-column code is `i` —
    /// ordered by the rest of the list, ties in row order (empty from
    /// [`Self::classes`] on).
    pub fn class(&mut self, i: usize) -> &[u32] {
        let start = self.start(i);
        let end = self.ends.get(i).map_or(start, |&e: &u32| e as usize);
        if end > start + 1 {
            self.sort(start, end);
        }
        self.rows.get(start..end).unwrap_or_default()
    }

    /// The rows of the first classes, in order: orders the next classes in
    /// code order, each once, until at least `len` rows are ordered or
    /// none is left, then takes the one-row classes that follow, and
    /// returns every row ordered so far. Mixed with [`Self::class`], it
    /// orders again the classes that call ordered.
    pub fn prefix(&mut self, len: usize) -> &[u32] {
        let mut end = self.start(self.ordered);
        while let Some(next) = self.ends.get(self.ordered).map(|&e: &u32| e as usize) {
            if next > end + 1 {
                if end >= len {
                    break;
                }
                self.sort(end, next);
            }
            end = next;
            self.ordered += 1;
        }
        self.rows.get(..end).unwrap_or_default()
    }

    /// Order the rows at positions `start..end` of `rows`, one class of at
    /// least two rows, by the rest of the list.
    fn sort(&mut self, start: usize, end: usize) {
        let rows = self.rows.get_mut(start..end).unwrap_or_default();
        let (rest, row_bits) = (&self.rest, self.row_bits);
        if rest.bits == 0 {
            return;
        }
        #[cfg(test)]
        class_count::note();
        if rest.bits + row_bits <= 64 {
            let mask = (1u64 << row_bits) - 1;
            self.words.clear();
            self.words
                .extend(rows.iter().map(|&r| rest.key(r) << row_bits | u64::from(r)));
            if radix_class(rows.len(), rest.bits) {
                let words = std::mem::take(&mut self.words);
                self.words = radix_sort(words, |&w| w, row_bits, rest.bits);
            } else {
                self.words.sort_unstable();
            }
            for (slot, &word) in rows.iter_mut().zip(&self.words) {
                *slot = (word & mask) as u32;
            }
        } else {
            self.pairs.clear();
            self.pairs.extend(rows.iter().map(|&r| (rest.key(r), r)));
            self.pairs.sort_unstable();
            for (slot, &(_, row)) in rows.iter_mut().zip(&self.pairs) {
                *slot = row;
            }
        }
    }
}

/// Classes a [`ClassOrder`] sorted on the test's thread, so a test can
/// tell how much of an order a caller had built.
#[cfg(test)]
pub(crate) mod class_count {
    thread_local! {
        static CLASSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Count one class sorted.
    pub(super) fn note() {
        CLASSES.with(|c| c.set(c.get() + 1));
    }

    /// What `f` returns, and the classes sorted while it ran.
    pub(crate) fn during<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = CLASSES.with(std::cell::Cell::get);
        let out = f();
        (out, CLASSES.with(std::cell::Cell::get) - before)
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

    /// Deterministic xorshift64 stream seeded from `seed`.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Deterministic pseudo-random relation with `cols` columns over a small
    /// domain (many ties, many runs).
    fn pseudo_random_relation(cols: usize, rows: usize, domain: i64, seed: u64) -> Relation {
        let mut next = xorshift(seed);
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

    /// Relation whose column `c` holds exactly `distinct[c]` values (each
    /// at least once, the rest of its `rows` cells drawn at random), so
    /// every column's code width is known. Needs `distinct[c] <= rows`.
    fn relation_with_distinct(rows: usize, distinct: &[usize], seed: u64) -> Relation {
        let mut next = xorshift(seed);
        let named = distinct
            .iter()
            .enumerate()
            .map(|(c, &d)| {
                assert!(d <= rows.max(1), "column {c} cannot hold {d} values");
                let mut vals: Vec<u64> = (0..rows as u64)
                    .map(|r| if r < d as u64 { r } else { next() % d as u64 })
                    .collect();
                for i in (1..vals.len()).rev() {
                    vals.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                let vals = vals.into_iter().map(|v| Value::Int(v as i64)).collect();
                (format!("c{c}"), vals)
            })
            .collect();
        Relation::from_columns(named).unwrap()
    }

    /// Distinct counts whose code widths sum to exactly `bits`: a 3-bit
    /// and a 2-bit column (many ties) first, then columns at most
    /// `max_width` bits wide.
    fn distinct_for_width(bits: usize, max_width: usize) -> Vec<usize> {
        let mut out = vec![5, 3];
        let mut left = bits - 5;
        while left > 0 {
            let w = left.min(max_width);
            out.push((1usize << (w - 1)) + 1);
            left -= w;
        }
        out
    }

    fn assert_matches_oracle(r: &Relation, cols: &[ColumnId], tag: &str) {
        assert_eq!(
            sort_index_by(r, cols),
            sort_index_by_comparator(r, cols),
            "{tag}: cols {cols:?}"
        );
    }

    #[test]
    fn packed_radix_branches_match_comparator_oracle() {
        // Row counts on both sides of the narrowest (8-bit, below 2^9
        // rows) and the widest (11-bit, from 2^11 rows) digit limit, and
        // two larger ones; on each, key widths on both sides of
        // 64 - row_bits, where the row id leaves the key word.
        for (i, rows) in [511usize, 513, 2047, 2049, 16_385, 65_537]
            .into_iter()
            .enumerate()
        {
            let row_bits = code_bits(rows);
            let mut distinct = distinct_for_width(64 - row_bits, row_bits - 1);
            distinct.push(2);
            let r = relation_with_distinct(rows, &distinct, i as u64 + 1);
            let all: Vec<ColumnId> = (0..distinct.len()).collect();
            let (in_word, beside) = (&all[..all.len() - 1], &all[..]);
            assert_eq!(packed_bits(&r, in_word), Some(64 - row_bits));
            assert_eq!(packed_bits(&r, beside), Some(65 - row_bits));
            assert_matches_oracle(&r, in_word, &format!("{rows} rows, row id in the key"));
            assert_matches_oracle(&r, beside, &format!("{rows} rows, row id beside"));
        }
    }

    #[test]
    fn packed_and_chained_kernels_match_oracle_around_64_bits() {
        // Over 600 rows (10-bit row ids): eight 9-bit columns of 300 values
        // (each value on about two rows, so every column leaves ties for
        // the next), a 1-bit and a 2-bit column, a constant column and
        // repeats. 54 key bits leave room for the row id, 63 and 64 do
        // not, 65 and 72 no longer pack.
        let mut distinct = vec![300; 8];
        distinct.extend([2, 3, 1]);
        let r = relation_with_distinct(600, &distinct, 17);
        let nine: Vec<ColumnId> = (0..8).collect();
        let (bit, two_bits, constant) = (8, 9, 10);
        let lists: Vec<(Vec<ColumnId>, Option<usize>)> = vec![
            (nine[..6].to_vec(), Some(54)),
            (nine[..7].to_vec(), Some(63)),
            ([&[bit], &nine[..7]].concat(), Some(64)),
            ([&[two_bits], &nine[..7]].concat(), None),
            (nine.clone(), None),
            (vec![constant, bit, constant, 1], Some(10)),
            (vec![two_bits, 1, two_bits, 2, 1], Some(31)),
            (vec![constant, bit], Some(1)),
            (vec![constant, constant], Some(0)),
        ];
        for (cols, bits) in &lists {
            assert_eq!(packed_bits(&r, cols), *bits, "cols {cols:?}");
            assert_matches_oracle(&r, cols, "600 rows");
        }
    }

    #[test]
    fn radix_sort_skips_a_shared_digit_and_stays_stable() {
        // 300 keys of 24 bits whose middle 8-bit digit is the same in
        // every key: the pass over it is skipped, the others still sort.
        let mut next = xorshift(3);
        let keys: Vec<u64> = (0..300)
            .map(|_| {
                let r = next();
                ((r % 7) << 16) | (0x5A << 8) | ((r >> 40) % 5)
            })
            .collect();
        let pairs: Vec<(u64, u32)> = keys.iter().copied().zip(0u32..).collect();
        let mut want = pairs.clone();
        want.sort_by_key(|&(k, _)| k);
        assert_eq!(radix_sort(pairs, |&(k, _)| k, 0, 24), want);
    }

    #[test]
    fn rank_keys_order_and_equate_rows_like_the_comparator() {
        // Lists under 64 bits take the packed codes, the 72-bit list the
        // chained refinement's run ids.
        let mut distinct = vec![300; 8];
        distinct.extend([2, 1]);
        let r = relation_with_distinct(600, &distinct, 29);
        let lists: Vec<Vec<ColumnId>> = vec![
            vec![],
            vec![9],
            vec![3],
            vec![8, 0],
            vec![0, 8, 0],
            (0..7).collect(),
            (0..8).collect(),
            (0..10).rev().collect(),
        ];
        for cols in &lists {
            let keys = rank_keys(&r, cols);
            assert_eq!(keys.len(), r.num_rows());
            let order = sort_index_by_comparator(&r, cols);
            for w in order.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                let want = cmp_rows(&r, cols, a, b);
                assert_ne!(want, Ordering::Greater, "comparator order");
                assert_eq!(
                    keys[a].cmp(&keys[b]),
                    want,
                    "cols {cols:?}, rows {a} and {b}"
                );
            }
        }
    }

    /// The classes of a [`ClassOrder`] on `cols`, put together.
    fn class_by_class(r: &Relation, cols: &[ColumnId]) -> Vec<u32> {
        let mut order = ClassOrder::new(r, cols);
        let mut out = Vec::new();
        for i in 0..order.classes() {
            out.extend_from_slice(order.class(i));
        }
        assert!(order.class(order.classes()).is_empty());
        out
    }

    #[test]
    fn class_order_matches_sort_index_by() {
        // 600 rows (10-bit row ids): eight 9-bit columns of 300 values, a
        // 1-bit, a 2-bit and a constant column. Each list names which way
        // its classes are sorted: the rest's packed key with the row id in
        // the word, beside it in a pair, or the rest's rank keys.
        let mut distinct = vec![300; 8];
        distinct.extend([2, 3, 1]);
        let r = relation_with_distinct(600, &distinct, 41);
        let nine: Vec<ColumnId> = (0..8).collect();
        let (bit, two_bits, constant) = (8, 9, 10);
        let in_word = |cols: &[ColumnId]| {
            let rest = RowKeys::new(&r, &cols[1..]);
            (
                rest.bits + code_bits(600) <= 64,
                matches!(rest.keys, Keys::Ranked(_)),
            )
        };
        let lists: Vec<(Vec<ColumnId>, (bool, bool))> = vec![
            (vec![3], (true, false)),
            (vec![3, 5], (true, false)),
            (nine[..6].to_vec(), (true, false)),
            // 54 + 10 bits: the row id just fits beside the rest.
            ([&[bit], &nine[..6]].concat(), (true, false)),
            // 63 bits of rest plus the row id: pairs.
            ([&[bit], &nine[..7]].concat(), (false, false)),
            ([&[two_bits], &nine[..7]].concat(), (false, false)),
            // Seven copies of one column: rows tie on the whole rest.
            ([&[bit], &[0; 7][..]].concat(), (false, false)),
            ([&[bit], &[0; 8][..]].concat(), (true, true)),
            // Over 64 bits in all; the rest packs or is ranked.
            (nine.clone(), (false, false)),
            ([&[bit], &nine[..]].concat(), (true, true)),
            ([&[4], &nine[..], &[two_bits]].concat(), (true, true)),
            // A constant and a two-valued first column.
            (vec![constant, 3, 4], (true, false)),
            (vec![bit, 2, 1], (true, false)),
            (vec![bit], (true, false)),
            // Repeated columns.
            (vec![two_bits, 1, two_bits, 2, 1], (true, false)),
            (vec![4, 4], (true, false)),
            (vec![constant, constant], (true, false)),
        ];
        for (cols, path) in &lists {
            assert_eq!(in_word(cols), *path, "cols {cols:?}");
            assert_eq!(
                class_by_class(&r, cols),
                sort_index_by(&r, cols),
                "cols {cols:?}"
            );
        }
        assert_eq!(class_by_class(&r, &[]), sort_index_by(&r, &[]));
    }

    #[test]
    fn class_order_matches_sort_index_by_on_large_classes() {
        // 5,000 rows (13-bit row ids): a column whose classes hold 128,
        // 127, 512, 511 and 3,722 rows, on both sides of the radix cut-off
        // at one and at two digits; a two-valued and a constant column;
        // and columns of 200, 3,000 and 5,000 values (8, 12, 13 bits).
        assert!(radix_class(128, 8) && !radix_class(127, 8));
        assert!(radix_class(512, 12) && !radix_class(511, 12));
        assert!(!radix_class(3_722, 25) && !radix_class(5_000, 40));
        let rows = 5_000usize;
        let mut next = xorshift(43);
        let mut ids: Vec<usize> = (0..rows).collect();
        for i in (1..rows).rev() {
            ids.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let ends = [128, 255, 767, 1_278];
        let sized = ids
            .iter()
            .map(|&i| ends.iter().filter(|&&e| i >= e).count() as i64);
        let mut column = |d: u64| (0..rows).map(|_| (next() % d) as i64).collect::<Vec<_>>();
        let named: Vec<(String, Vec<Value>)> = [
            sized.collect(),
            column(2),
            vec![7; rows],
            column(200),
            column(3_000),
            column(5_000),
        ]
        .into_iter()
        .enumerate()
        .map(|(c, vals)| (format!("c{c}"), vals.into_iter().map(Value::Int).collect()))
        .collect();
        let r = Relation::from_columns(named).unwrap();
        let (sized, two, constant, c200, c3k, c5k) = (0, 1, 2, 3, 4, 5);
        let lists: Vec<Vec<ColumnId>> = vec![
            // One digit, then two, then three.
            vec![sized, c200],
            vec![sized, c3k],
            vec![sized, c3k, c5k],
            vec![two, c200, c3k],
            vec![constant, c200, c3k],
            // 56 bits of rest beside 13-bit row ids: pairs.
            vec![two, c3k, c3k, c3k, c3k, c200],
            // Over 64 bits: the rest's rank keys, 13 bits wide.
            [&[two][..], &[c3k; 6][..]].concat(),
            vec![two],
        ];
        for cols in &lists {
            assert_eq!(
                class_by_class(&r, cols),
                sort_index_by(&r, cols),
                "cols {cols:?}"
            );
        }
    }

    #[test]
    fn class_order_matches_sort_index_by_with_nulls_and_tiny_relations() {
        let mut next = xorshift(5);
        for rows in [0usize, 1, 2, 97] {
            let named = (0..3)
                .map(|c| {
                    let vals = (0..rows)
                        .map(|_| match next() % (c as u64 + 3) {
                            0 => Value::Null,
                            v => Value::Int(v as i64),
                        })
                        .collect();
                    (format!("c{c}"), vals)
                })
                .collect();
            let r = Relation::from_columns(named).unwrap();
            for cols in [vec![], vec![0], vec![2, 0], vec![0, 1, 2], vec![1, 1, 0, 1]] {
                assert_eq!(
                    class_by_class(&r, &cols),
                    sort_index_by(&r, &cols),
                    "{rows} rows, cols {cols:?}"
                );
            }
        }
    }

    #[test]
    fn row_keys_read_the_rank_keys() {
        let mut distinct = vec![300; 8];
        distinct.extend([2, 1]);
        let r = relation_with_distinct(600, &distinct, 31);
        for cols in [
            vec![],
            vec![9],
            vec![3, 9, 3],
            (0..7).collect(),
            (0..9).collect(),
        ] {
            let keys = RowKeys::new(&r, &cols);
            let want = rank_keys(&r, &cols);
            assert!(want.iter().all(|&k| keys.bits == 64 || k >> keys.bits == 0));
            let got: Vec<u64> = (0..600).map(|row| keys.key(row)).collect();
            assert_eq!(got, want, "cols {cols:?}");
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
