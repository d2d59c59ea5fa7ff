//! Blockwise, branchless adjacent-pair scan kernels — the candidate
//! checker's hot loop (§4.3 of the paper) rewritten for data-level
//! parallelism and cache locality.
//!
//! The scalar checker walks `index.windows(2)` calling
//! [`cmp_rows`] per adjacent pair: one indirect gather and one branchy
//! lexicographic compare per pair per column. The kernels here instead
//! process [`BLOCK_PAIRS`] adjacent pairs at a time:
//!
//! 1. **Gather** the permuted codes of one block into a contiguous
//!    scratch buffer, once per column, reading the narrowest code mirror
//!    the column stores ([`crate::CodeWidth`]) — 4×/2× more codes per
//!    cache line on low-cardinality columns.
//! 2. **Fold** the per-pair comparison state lexicographically across
//!    columns with branchless byte masks: for every pair the block keeps
//!    `{eq, lt, gt}` bytes (`0xFF`/`0x00`), and a column folds in as
//!    `lt |= eq & ~e & ~g; gt |= eq & g; eq &= e`. The loops are written
//!    so LLVM autovectorizes them.
//! 3. **Filter** the block for the first violating pair with word-wide
//!    mask arithmetic. Early exit is per block; the caller preserves the
//!    exact scalar first-witness by classifying (or rescanning) the hit
//!    block scalar-wise.
//!
//! Two scan shapes cover every checker: the full OD predicate (`rhs`
//! decreasing, or `lhs`-tied while `rhs` differs) and splits only (for
//! the fused direction check after a validated OCD, where swaps are
//! impossible). The paper's checks (`Resort`) run them through
//! [`od_walk`] / [`split_walk`], which do not sort the whole index first:
//! they read the rows of a [`ClassOrder`] on `lhs` — the relation's rank
//! order of its first column, each class ordered by the rest when the
//! walk gets there — in windows that share their boundary row, and stop
//! at the first violating adjacent pair, so the classes past it are never
//! ordered. [`od_scan`] runs the full predicate over an index the caller
//! sorted. All of them find the same first violating *adjacent pair* as
//! the scalar oracles [`od_scan_scalar`] / [`split_scan_scalar`] over
//! [`sort_index_by`](crate::sort::sort_index_by)'s order, bit for bit,
//! on every width and backend.
//!
//! Beyond-block state convention: a block of `n < BLOCK_PAIRS` live
//! pairs resets `eq` to zero past `n`, so folds always process the full
//! fixed-size arrays (no tail loops — stale scratch past `n` is masked
//! by `eq == 0`) and violation masks are zero past `n` by construction.

use crate::column::NarrowCodes;
use crate::relation::{ColumnId, Relation};
use crate::sort::{cmp_rows, kernel_stats, ClassOrder};
use std::cmp::Ordering;

/// Adjacent pairs processed per block: 64 keeps the three per-pair state
/// arrays in exactly three cache lines and makes every violation filter a
/// handful of `u64` words.
pub const BLOCK_PAIRS: usize = 64;

/// An all-zero selection mask: selects no pair.
const ZERO_SEL: [u8; BLOCK_PAIRS] = [0; BLOCK_PAIRS];

/// Which scan-kernel family classified a scan (reported through
/// [`kernel_stats`] and `DiscoveryResult.kernels`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScanKernel {
    /// Per-pair `cmp_rows` walk — small inputs and the differential
    /// oracle.
    Scalar,
    /// Blockwise branchless kernels, autovectorized portable Rust.
    Block,
}

/// Kernel the dispatcher picks for a scan of `pairs` adjacent pairs:
/// scalar below one block (the gather+fold setup doesn't amortize),
/// blockwise otherwise.
pub(crate) fn select_kernel(pairs: usize) -> ScanKernel {
    if pairs < BLOCK_PAIRS {
        ScanKernel::Scalar
    } else {
        ScanKernel::Block
    }
}

/// Record one scan in the process-global kernel counters (see
/// [`kernel_stats`]).
pub(crate) fn note_scan(kernel: ScanKernel) {
    match kernel {
        ScanKernel::Scalar => kernel_stats::bump_scan_scalar(),
        ScanKernel::Block => kernel_stats::bump_scan_block(),
    }
}

/// Per-pair lexicographic comparison state of one block: canonical
/// `0xFF`/`0x00` byte masks, one byte per adjacent pair.
///
/// After folding columns `c₁…cₖ` (in order), pair `i` satisfies exactly
/// one of `eq` (rows equal on all folded columns), `lt` (first row
/// lexicographically smaller) or `gt` (first row larger) — the same
/// verdict [`cmp_rows`] returns, computed branchlessly for the whole
/// block at once.
#[derive(Debug, Clone)]
pub(crate) struct BlockLex {
    eq: [u8; BLOCK_PAIRS],
    lt: [u8; BLOCK_PAIRS],
    gt: [u8; BLOCK_PAIRS],
}

impl Default for BlockLex {
    fn default() -> BlockLex {
        BlockLex {
            eq: [0; BLOCK_PAIRS],
            lt: [0; BLOCK_PAIRS],
            gt: [0; BLOCK_PAIRS],
        }
    }
}

impl BlockLex {
    /// Reset for a block of `n` live pairs: the first `n` pairs open
    /// (`eq = 0xFF`), everything past `n` closed so stale scratch can
    /// never surface as a violation.
    pub fn reset(&mut self, n: usize) {
        debug_assert!(n <= BLOCK_PAIRS);
        self.eq = [0; BLOCK_PAIRS];
        for e in self.eq.iter_mut().take(n) {
            *e = 0xFF;
        }
        self.lt = [0; BLOCK_PAIRS];
        self.gt = [0; BLOCK_PAIRS];
    }

    /// Fold one more column into the lexicographic state. `window` holds
    /// the `n + 1` row ids whose `n` adjacent pairs this block compares
    /// (so consecutive windows share their boundary row).
    pub fn fold_column(&mut self, rel: &Relation, col: ColumnId, window: &[u32]) {
        debug_assert!(window.len() >= 2 && window.len() <= BLOCK_PAIRS + 1);
        match rel.narrow_codes(col) {
            NarrowCodes::U8(codes) => {
                let mut buf = [0u8; BLOCK_PAIRS + 1];
                gather_into(codes, window, &mut buf);
                fold_lex(&buf, &mut self.eq, &mut self.lt, &mut self.gt);
            }
            NarrowCodes::U16(codes) => {
                let mut buf = [0u16; BLOCK_PAIRS + 1];
                gather_into(codes, window, &mut buf);
                fold_lex(&buf, &mut self.eq, &mut self.lt, &mut self.gt);
            }
            NarrowCodes::U32 => {
                let mut buf = [0u32; BLOCK_PAIRS + 1];
                gather_into(rel.codes(col), window, &mut buf);
                fold_lex(&buf, &mut self.eq, &mut self.lt, &mut self.gt);
            }
        }
    }

    /// True when no pair is still tied — further columns cannot change
    /// any pair's verdict, so the column fold can stop.
    #[inline]
    pub fn closed(&self) -> bool {
        self.eq == [0; BLOCK_PAIRS]
    }

    /// True when some pair compares strictly less.
    #[inline]
    pub fn lt_any(&self) -> bool {
        self.lt != [0; BLOCK_PAIRS]
    }

    /// True when some pair compares strictly greater.
    #[inline]
    pub fn gt_any(&self) -> bool {
        self.gt != [0; BLOCK_PAIRS]
    }

    /// First pair violating the full OD predicate under the selection
    /// mask `sel`: `gt | (sel & lt)` — a decrease anywhere, or an
    /// increase on a selected (`lhs`-tied / same-class) pair.
    pub fn first_od_violation(&self, sel: &[u8; BLOCK_PAIRS]) -> Option<usize> {
        let mut base = 0;
        for ((g8, l8), s8) in self
            .gt
            .chunks_exact(8)
            .zip(self.lt.chunks_exact(8))
            .zip(sel.chunks_exact(8))
        {
            let v = word64(g8) | (word64(s8) & word64(l8));
            if v != 0 {
                return Some(base + (v.trailing_zeros() as usize) / 8);
            }
            base += 8;
        }
        None
    }
}

/// Per-pair equality state of one block: `0xFF` while the pair's rows
/// are equal on every folded column. The `lhs`-tie mask of the index
/// scans, and the cheap `rhs` state of the split-only scan.
#[derive(Debug, Clone)]
pub(crate) struct BlockEq {
    eq: [u8; BLOCK_PAIRS],
}

impl Default for BlockEq {
    fn default() -> BlockEq {
        BlockEq {
            eq: [0; BLOCK_PAIRS],
        }
    }
}

impl BlockEq {
    /// Reset for a block of `n` live pairs (see [`BlockLex::reset`]).
    pub fn reset(&mut self, n: usize) {
        debug_assert!(n <= BLOCK_PAIRS);
        self.eq = [0; BLOCK_PAIRS];
        for e in self.eq.iter_mut().take(n) {
            *e = 0xFF;
        }
    }

    /// Fold one more column's equality into the state.
    pub fn fold_column(&mut self, rel: &Relation, col: ColumnId, window: &[u32]) {
        debug_assert!(window.len() >= 2 && window.len() <= BLOCK_PAIRS + 1);
        match rel.narrow_codes(col) {
            NarrowCodes::U8(codes) => {
                let mut buf = [0u8; BLOCK_PAIRS + 1];
                gather_into(codes, window, &mut buf);
                fold_eq(&buf, &mut self.eq);
            }
            NarrowCodes::U16(codes) => {
                let mut buf = [0u16; BLOCK_PAIRS + 1];
                gather_into(codes, window, &mut buf);
                fold_eq(&buf, &mut self.eq);
            }
            NarrowCodes::U32 => {
                let mut buf = [0u32; BLOCK_PAIRS + 1];
                gather_into(rel.codes(col), window, &mut buf);
                fold_eq(&buf, &mut self.eq);
            }
        }
    }

    /// True when no pair is still fully tied.
    #[inline]
    pub fn none(&self) -> bool {
        self.eq == [0; BLOCK_PAIRS]
    }

    /// The equality mask, usable as a selection mask for [`BlockLex`]
    /// filters (zero past the live pair count by the reset convention).
    #[inline]
    pub fn mask(&self) -> &[u8; BLOCK_PAIRS] {
        &self.eq
    }

    /// First pair selected by `sel` whose rows are *not* tied on the
    /// folded columns: `sel & !eq`. `sel` must be zero past the live
    /// pair count.
    pub fn first_unequal(&self, sel: &[u8; BLOCK_PAIRS]) -> Option<usize> {
        let mut base = 0;
        for (e8, s8) in self.eq.chunks_exact(8).zip(sel.chunks_exact(8)) {
            let v = word64(s8) & !word64(e8);
            if v != 0 {
                return Some(base + (v.trailing_zeros() as usize) / 8);
            }
            base += 8;
        }
        None
    }
}

/// Assemble 8 mask bytes into one `u64`, first byte in the low bits (so
/// `trailing_zeros() / 8` is the first set byte's index regardless of
/// platform endianness). LLVM folds this to a single load.
#[inline]
fn word64(bytes: &[u8]) -> u64 {
    let mut w = 0u64;
    for (k, &b) in bytes.iter().enumerate() {
        w |= u64::from(b) << (8 * k);
    }
    w
}

/// Gather `codes[row]` for every row of `window` into the front of
/// `buf`.
#[inline]
fn gather_into<T: Copy>(codes: &[T], window: &[u32], buf: &mut [T; BLOCK_PAIRS + 1]) {
    for (slot, &row) in buf.iter_mut().zip(window) {
        // lint: allow(panic-reachability, window rows come from a permutation/partition of the same relation, so row < codes.len())
        *slot = codes[row as usize];
    }
}

/// Branchless lexicographic fold: for each adjacent pair
/// `(buf[i], buf[i+1])` update `{eq, lt, gt}` byte masks. Pure byte
/// arithmetic over fixed-size slices, written for autovectorization.
#[inline]
fn fold_lex<T: Copy + Ord>(buf: &[T], eq: &mut [u8], lt: &mut [u8], gt: &mut [u8]) {
    let Some((_, hi)) = buf.split_first() else {
        return;
    };
    for ((&a, &b), ((e, l), g)) in buf
        .iter()
        .zip(hi)
        .zip(eq.iter_mut().zip(lt.iter_mut()).zip(gt.iter_mut()))
    {
        let em = 0u8.wrapping_sub(u8::from(a == b));
        let gm = 0u8.wrapping_sub(u8::from(a > b));
        let open = *e;
        *l |= open & !em & !gm;
        *g |= open & gm;
        *e = open & em;
    }
}

/// Equality-only fold (see `fold_lex`).
#[inline]
fn fold_eq<T: Copy + Eq>(buf: &[T], eq: &mut [u8]) {
    let Some((_, hi)) = buf.split_first() else {
        return;
    };
    for ((&a, &b), e) in buf.iter().zip(hi).zip(eq.iter_mut()) {
        *e &= 0u8.wrapping_sub(u8::from(a == b));
    }
}

/// Rows a walk wants ordered past the first row of its next window: the
/// boundary row and one block of pairs, so every window but the last
/// feeds the blockwise kernels whenever the relation has a block of pairs.
const WINDOW_ROWS: usize = BLOCK_PAIRS + 1;

/// Which adjacent pairs of a row order a scan reports.
#[derive(Debug, Clone, Copy)]
enum Violation {
    /// Pairs violating the OD: `rhs` decreasing, or `lhs`-tied while
    /// `rhs` differs.
    Od,
    /// `lhs`-tied pairs that differ on `rhs`.
    Split,
}

impl Violation {
    /// Position of the first violating adjacent pair of `index`
    /// (pre-sorted by `lhs`), found by the kernel [`select_kernel`] picks
    /// for its pairs, and that kernel. Counts no scan.
    fn first(
        self,
        rel: &Relation,
        lhs: &[ColumnId],
        rhs: &[ColumnId],
        index: &[u32],
    ) -> (Option<usize>, ScanKernel) {
        let kernel = select_kernel(index.len().saturating_sub(1));
        let hit = match (self, kernel) {
            (Violation::Od, ScanKernel::Scalar) => first_od_pair(rel, lhs, rhs, index),
            (Violation::Split, ScanKernel::Scalar) => first_split_pair(rel, lhs, rhs, index),
            (Violation::Od, ScanKernel::Block) => od_scan_blocks(rel, lhs, rhs, index),
            (Violation::Split, ScanKernel::Block) => split_scan_blocks(rel, lhs, rhs, index),
        };
        (hit, kernel)
    }
}

/// Position of the first adjacent pair of `index` (pre-sorted by `lhs`)
/// violating the OD `lhs → rhs`: the pair decreases on `rhs`, or is tied
/// on `lhs` while changing on `rhs`. `None` when the OD holds.
///
/// Scans of fewer than [`BLOCK_PAIRS`] pairs run the scalar kernel, longer
/// ones the blockwise kernels; byte-identical to [`od_scan_scalar`] on
/// every input.
pub fn od_scan(rel: &Relation, lhs: &[ColumnId], rhs: &[ColumnId], index: &[u32]) -> Option<usize> {
    let (hit, kernel) = Violation::Od.first(rel, lhs, rhs, index);
    note_scan(kernel);
    hit
}

/// The first adjacent pair of rows, in the order
/// [`sort_index_by`](crate::sort::sort_index_by) gives on `lhs`, that
/// violates the OD `lhs → rhs` — the pair [`od_scan`] finds in that
/// order — or `None` when the OD holds.
///
/// The walk reads a [`ClassOrder`] on `lhs` and orders its classes only
/// as far as it scans. Each window of the ordered rows runs
/// from the last row of the previous window to the end of the first class
/// that reaches [`BLOCK_PAIRS`] pairs past it, so windows share their
/// boundary row and every adjacent pair is scanned once, in order. The
/// walk stops at the first violating pair and leaves the classes past
/// its window unordered. It counts one scan: blockwise when any window
/// ran the blockwise kernels, scalar otherwise; and no sort, apart from
/// the first read of `lhs`'s first column's rank order
/// ([`Relation::rank_order`]) and the refinements that rank a rest of
/// `lhs` over 64 bits.
pub fn od_walk(rel: &Relation, lhs: &[ColumnId], rhs: &[ColumnId]) -> Option<(u32, u32)> {
    walk(rel, lhs, rhs, Violation::Od)
}

/// The first adjacent pair of rows, in the order
/// [`sort_index_by`](crate::sort::sort_index_by) gives on `lhs`, that is
/// tied on `lhs` but differs on `rhs` — the split-only scan of the fused
/// direction check, sound as a full OD check only when a swap is
/// impossible — or `None` when no split exists. Walks like [`od_walk`].
pub fn split_walk(rel: &Relation, lhs: &[ColumnId], rhs: &[ColumnId]) -> Option<(u32, u32)> {
    walk(rel, lhs, rhs, Violation::Split)
}

/// The walk of [`od_walk`] and [`split_walk`].
fn walk(
    rel: &Relation,
    lhs: &[ColumnId],
    rhs: &[ColumnId],
    violation: Violation,
) -> Option<(u32, u32)> {
    let mut order = ClassOrder::new(rel, lhs);
    let mut kernel = ScanKernel::Scalar;
    // First row of the next window.
    let mut start = 0;
    let hit = loop {
        let ordered = order.prefix(start + WINDOW_ROWS);
        let window = ordered.get(start..).unwrap_or_default();
        let (hit, ran) = violation.first(rel, lhs, rhs, window);
        if ran == ScanKernel::Block {
            kernel = ran;
        }
        if let Some(i) = hit {
            break window.get(i).zip(window.get(i + 1)).map(|(&a, &b)| (a, b));
        }
        if ordered.len() < start + WINDOW_ROWS {
            break None; // every class is ordered and scanned
        }
        start = ordered.len() - 1;
    };
    note_scan(kernel);
    hit
}

/// Scalar oracle for [`od_scan`]: the per-pair `cmp_rows` walk, kept as
/// the differential reference (and the small-input kernel). The index is
/// `lhs`-sorted, so `lhs` can never compare `Greater` across an adjacent
/// pair — a decreasing `rhs` therefore violates regardless of `lhs`, and
/// an increasing `rhs` violates exactly when `lhs` is tied.
pub fn od_scan_scalar(
    rel: &Relation,
    lhs: &[ColumnId],
    rhs: &[ColumnId],
    index: &[u32],
) -> Option<usize> {
    note_scan(ScanKernel::Scalar);
    first_od_pair(rel, lhs, rhs, index)
}

/// Scalar oracle for the split-only scan: the first adjacent pair of
/// `index` (pre-sorted by `lhs`) tied on `lhs` but differing on `rhs`,
/// by the per-pair `cmp_rows` walk.
pub fn split_scan_scalar(
    rel: &Relation,
    lhs: &[ColumnId],
    rhs: &[ColumnId],
    index: &[u32],
) -> Option<usize> {
    note_scan(ScanKernel::Scalar);
    first_split_pair(rel, lhs, rhs, index)
}

/// The scalar kernel of [`od_scan_scalar`], counting no scan.
// lint: allow(panic-reachability, w[0]/w[1] index length-2 slices produced by windows(2))
fn first_od_pair(
    rel: &Relation,
    lhs: &[ColumnId],
    rhs: &[ColumnId],
    index: &[u32],
) -> Option<usize> {
    for (i, w) in index.windows(2).enumerate() {
        let (p, q) = (w[0] as usize, w[1] as usize);
        match cmp_rows(rel, rhs, p, q) {
            Ordering::Equal => {}
            Ordering::Greater => return Some(i),
            Ordering::Less => {
                let lhs_ord = cmp_rows(rel, lhs, p, q);
                debug_assert_ne!(lhs_ord, Ordering::Greater, "index must be lhs-sorted");
                if lhs_ord == Ordering::Equal {
                    return Some(i);
                }
            }
        }
    }
    None
}

/// The scalar kernel of [`split_scan_scalar`], counting no scan.
// lint: allow(panic-reachability, w[0]/w[1] index length-2 slices produced by windows(2))
fn first_split_pair(
    rel: &Relation,
    lhs: &[ColumnId],
    rhs: &[ColumnId],
    index: &[u32],
) -> Option<usize> {
    for (i, w) in index.windows(2).enumerate() {
        let (p, q) = (w[0] as usize, w[1] as usize);
        if cmp_rows(rel, lhs, p, q) == Ordering::Equal
            && cmp_rows(rel, rhs, p, q) != Ordering::Equal
        {
            return Some(i);
        }
    }
    None
}

/// Blockwise [`od_scan`]: per block, fold the `rhs` lexicographic state
/// (stopping as soon as no pair stays tied), fold the `lhs` tie mask
/// only when some pair increased on `rhs`, then filter
/// `gt | (lhs_eq & lt)` for the first violation.
// lint: allow(panic-reachability, start + n ≤ index.len() - 1 by the loop bound, so the window slice is in bounds)
fn od_scan_blocks(
    rel: &Relation,
    lhs: &[ColumnId],
    rhs: &[ColumnId],
    index: &[u32],
) -> Option<usize> {
    let total = index.len() - 1;
    let mut rhs_lex = BlockLex::default();
    let mut lhs_eq = BlockEq::default();
    let mut start = 0usize;
    while start < total {
        let n = (total - start).min(BLOCK_PAIRS);
        let window = &index[start..=start + n];
        rhs_lex.reset(n);
        for &c in rhs {
            if rel.meta(c).is_constant() {
                continue; // folds all-Equal: a no-op on the state
            }
            rhs_lex.fold_column(rel, c, window);
            if rhs_lex.closed() {
                break; // no tie left: later columns cannot matter
            }
        }
        if rhs_lex.lt_any() {
            lhs_eq.reset(n);
            for &c in lhs {
                if rel.meta(c).is_constant() {
                    continue;
                }
                lhs_eq.fold_column(rel, c, window);
                if lhs_eq.none() {
                    break;
                }
            }
            if let Some(i) = rhs_lex.first_od_violation(lhs_eq.mask()) {
                return Some(start + i);
            }
        } else if rhs_lex.gt_any() {
            if let Some(i) = rhs_lex.first_od_violation(&ZERO_SEL) {
                return Some(start + i);
            }
        }
        start += n;
    }
    None
}

/// Blockwise split-only scan: fold the `lhs` tie mask first — when no
/// pair of the block is `lhs`-tied (key-like prefixes), the `rhs`
/// gathers are skipped entirely.
// lint: allow(panic-reachability, start + n ≤ index.len() - 1 by the loop bound, so the window slice is in bounds)
fn split_scan_blocks(
    rel: &Relation,
    lhs: &[ColumnId],
    rhs: &[ColumnId],
    index: &[u32],
) -> Option<usize> {
    let total = index.len() - 1;
    let mut lhs_eq = BlockEq::default();
    let mut rhs_eq = BlockEq::default();
    let mut start = 0usize;
    while start < total {
        let n = (total - start).min(BLOCK_PAIRS);
        let window = &index[start..=start + n];
        lhs_eq.reset(n);
        for &c in lhs {
            if rel.meta(c).is_constant() {
                continue;
            }
            lhs_eq.fold_column(rel, c, window);
            if lhs_eq.none() {
                break;
            }
        }
        if !lhs_eq.none() {
            rhs_eq.reset(n);
            for &c in rhs {
                if rel.meta(c).is_constant() {
                    continue;
                }
                rhs_eq.fold_column(rel, c, window);
                if rhs_eq.none() {
                    break; // every pair already differs somewhere on rhs
                }
            }
            if let Some(i) = rhs_eq.first_unequal(lhs_eq.mask()) {
                return Some(start + i);
            }
        }
        start += n;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::CodeWidth;
    use crate::relation::Relation;
    use crate::sort::kernel_stats::counters_guard;
    use crate::sort::{class_count, sort_index_by};
    use crate::value::Value;
    use proptest::prelude::*;

    /// Relation from integer columns (equal lengths).
    fn rel_from(cols: Vec<Vec<i64>>) -> Relation {
        let named = cols
            .into_iter()
            .enumerate()
            .map(|(i, vals)| {
                (
                    format!("c{i}"),
                    vals.into_iter().map(Value::Int).collect::<Vec<Value>>(),
                )
            })
            .collect();
        Relation::from_columns(named).unwrap()
    }

    /// Run the blockwise scans directly (bypassing the small-input
    /// dispatch) and assert they match the scalar oracles exactly,
    /// at the relation's natural width and after widening.
    fn assert_blocks_match_scalar(rel: &Relation, lhs: &[ColumnId], rhs: &[ColumnId]) {
        let _counters = counters_guard();
        let index = sort_index_by(rel, lhs);
        if index.is_empty() {
            return;
        }
        let od_oracle = od_scan_scalar(rel, lhs, rhs, &index);
        let split_oracle = split_scan_scalar(rel, lhs, rhs, &index);
        for min in [CodeWidth::U8, CodeWidth::U16, CodeWidth::U32] {
            let mut r = rel.clone();
            r.widen_code_width(min);
            assert_eq!(
                od_scan_blocks(&r, lhs, rhs, &index),
                od_oracle,
                "od blocks vs scalar diverge at width >= {}",
                min.label()
            );
            assert_eq!(
                split_scan_blocks(&r, lhs, rhs, &index),
                split_oracle,
                "split blocks vs scalar diverge at width >= {}",
                min.label()
            );
        }
        // The public dispatch and the walks must agree with the oracles too.
        let pair = |hit: Option<usize>| hit.map(|i| (index[i], index[i + 1]));
        assert_eq!(od_scan(rel, lhs, rhs, &index), od_oracle);
        assert_eq!(od_walk(rel, lhs, rhs), pair(od_oracle));
        assert_eq!(split_walk(rel, lhs, rhs), pair(split_oracle));
    }

    #[test]
    fn dispatch_thresholds() {
        assert_eq!(select_kernel(0), ScanKernel::Scalar);
        assert_eq!(select_kernel(BLOCK_PAIRS - 1), ScanKernel::Scalar);
        assert_eq!(select_kernel(BLOCK_PAIRS), ScanKernel::Block);
        assert_eq!(select_kernel(1_000_000), ScanKernel::Block);
    }

    #[test]
    fn scans_bump_kernel_counters() {
        let _counters = counters_guard();
        let rel = rel_from(vec![(0..200).collect(), (0..200).collect()]);
        let index = sort_index_by(&rel, &[0]);
        let before = kernel_stats::snapshot();
        assert_eq!(od_scan(&rel, &[0], &[1], &index), None);
        let delta = kernel_stats::snapshot().since(&before);
        assert_eq!(delta.total_scans(), 1);
        assert_eq!(delta.scan_scalar, 0, "200 rows must dispatch blockwise");
        assert_eq!(delta.scan_simd, 0);
    }

    #[test]
    fn all_ties_hold() {
        let n = 150;
        let rel = rel_from(vec![vec![7; n], vec![3; n]]);
        assert_blocks_match_scalar(&rel, &[0], &[1]);
        let index = sort_index_by(&rel, &[0]);
        assert_eq!(od_scan_blocks(&rel, &[0], &[1], &index), None);
        assert_eq!(split_scan_blocks(&rel, &[0], &[1], &index), None);
    }

    #[test]
    fn all_distinct_monotone_holds() {
        let n = 150;
        let rel = rel_from(vec![(0..n).collect(), (0..n).collect()]);
        let index = sort_index_by(&rel, &[0]);
        assert_eq!(od_scan_blocks(&rel, &[0], &[1], &index), None);
        assert_blocks_match_scalar(&rel, &[0], &[1]);
    }

    #[test]
    fn single_split_pinned_at_block_boundaries() {
        let n = 200i64;
        for p in [0usize, 1, 62, 63, 64, 65, 127, 128, 129, 198] {
            // lhs constant, rhs steps once: first differing adjacent
            // pair is exactly p, and it is lhs-tied -> a split.
            let rhs: Vec<i64> = (0..n).map(|i| i64::from(i as usize > p)).collect();
            let rel = rel_from(vec![vec![1; n as usize], rhs]);
            let index = sort_index_by(&rel, &[0]);
            assert_eq!(od_scan_blocks(&rel, &[0], &[1], &index), Some(p), "p={p}");
            assert_eq!(
                split_scan_blocks(&rel, &[0], &[1], &index),
                Some(p),
                "p={p}"
            );
            assert_blocks_match_scalar(&rel, &[0], &[1]);
        }
    }

    #[test]
    fn single_swap_pinned_at_block_boundaries() {
        let n = 200usize;
        for p in [0usize, 62, 63, 64, 65, 127, 128, 129, 198] {
            // lhs strictly increasing, rhs dips once between rows p and
            // p+1: the only violating pair is p (a swap, not a split).
            let rhs: Vec<i64> = (0..n)
                .map(|i| {
                    if i == p + 1 {
                        2 * i as i64 - 3
                    } else {
                        2 * i as i64
                    }
                })
                .collect();
            let rel = rel_from(vec![(0..n as i64).collect(), rhs]);
            let index = sort_index_by(&rel, &[0]);
            assert_eq!(od_scan_blocks(&rel, &[0], &[1], &index), Some(p), "p={p}");
            // No lhs tie anywhere: the split-only scan sees nothing.
            assert_eq!(split_scan_blocks(&rel, &[0], &[1], &index), None, "p={p}");
            assert_blocks_match_scalar(&rel, &[0], &[1]);
        }
    }

    #[test]
    fn ragged_tail_lengths() {
        // Lengths around the block size: the final ragged block must
        // mask its dead lanes, never reporting phantom violations.
        for n in [1usize, 2, 63, 64, 65, 66, 127, 128, 129, 190] {
            let rel = rel_from(vec![vec![5; n], (0..n as i64).rev().collect()]);
            let index = sort_index_by(&rel, &[0]);
            let expect = if n >= 2 { Some(0) } else { None };
            assert_eq!(od_scan_blocks(&rel, &[0], &[1], &index), expect, "n={n}");
            assert_blocks_match_scalar(&rel, &[0], &[1]);
        }
    }

    #[test]
    fn violation_in_final_ragged_block() {
        // 130 rows = two full blocks + a 1-pair tail; the split sits in
        // the tail.
        let n = 130usize;
        let mut rhs = vec![0i64; n];
        rhs[n - 1] = 1;
        let rel = rel_from(vec![vec![1; n], rhs]);
        let index = sort_index_by(&rel, &[0]);
        assert_eq!(od_scan_blocks(&rel, &[0], &[1], &index), Some(n - 2));
        assert_eq!(split_scan_blocks(&rel, &[0], &[1], &index), Some(n - 2));
        assert_blocks_match_scalar(&rel, &[0], &[1]);
    }

    #[test]
    fn natural_u16_width_kernels() {
        // 300 distinct values -> natural u16 mirror exercises the u16
        // gathers and folds without any widening.
        let n = 900usize;
        let vals: Vec<i64> = (0..n as i64).map(|i| i % 300).collect();
        let rel = rel_from(vec![vals.clone(), vals]);
        assert_eq!(rel.code_width(0), CodeWidth::U16);
        assert_blocks_match_scalar(&rel, &[0], &[1]);
    }

    #[test]
    fn multi_column_lists_with_constants_and_duplicates() {
        let n = 180usize;
        let a: Vec<i64> = (0..n as i64).map(|i| i % 3).collect();
        let b: Vec<i64> = (0..n as i64).map(|i| (i * 7) % 5).collect();
        let c = vec![9i64; n]; // constant
        let d: Vec<i64> = (0..n as i64).map(|i| (i * 13) % 11).collect();
        let rel = rel_from(vec![a, b, c, d]);
        for (lhs, rhs) in [
            (vec![0], vec![1]),
            (vec![0, 1], vec![3]),
            (vec![0, 2], vec![2, 3]), // constant on both sides
            (vec![0, 1, 3], vec![3, 1, 0]),
            (vec![1, 1], vec![3, 3]), // duplicate columns
        ] {
            assert_blocks_match_scalar(&rel, &lhs, &rhs);
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

    /// The shapes of a walk's first column.
    const FIRST_COLUMNS: [&str; 4] = ["singletons", "two-valued", "constant", "nulls"];

    /// A relation of `rows` rows for walks over `lhs = [0, rest..]`:
    /// column 0 shaped by `first` (one of [`FIRST_COLUMNS`]), column 1
    /// with few values, column 2 constant, column 3 with about two thirds
    /// as many values as rows; and the list rests `[]` and `[2]` (0 key
    /// bits), `[1, 3]` (under 64) and twelve copies of column 3 (over 64
    /// bits from 64 rows on).
    fn walk_relation(rows: usize, first: &str, seed: u64) -> (Relation, Vec<Vec<ColumnId>>) {
        let mut next = xorshift(seed);
        let first: Vec<Value> = match first {
            "singletons" => {
                let mut ids: Vec<i64> = (0..rows as i64).collect();
                for i in (1..ids.len()).rev() {
                    ids.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                ids.into_iter().map(Value::Int).collect()
            }
            "two-valued" => (0..rows).map(|_| Value::Int((next() % 2) as i64)).collect(),
            "constant" => vec![Value::Int(7); rows],
            _ => (0..rows)
                .map(|_| match next() % 4 {
                    0 => Value::Null,
                    v => Value::Int(v as i64),
                })
                .collect(),
        };
        let few = (0..rows).map(|_| Value::Int((next() % 3) as i64)).collect();
        let wide = (0..rows)
            .map(|_| Value::Int((next() % rows as u64) as i64))
            .collect();
        let named = vec![
            ("c0".to_string(), first),
            ("c1".to_string(), few),
            ("c2".to_string(), vec![Value::Int(1); rows]),
            ("c3".to_string(), wide),
        ];
        let rel = Relation::from_columns(named).unwrap();
        let lhs = vec![
            vec![0],
            vec![0, 2],
            vec![0, 1, 3],
            [&[0][..], &[3; 12]].concat(),
        ];
        (rel, lhs)
    }

    /// Values of a column on which `lhs → rhs` holds along `index`
    /// (`lhs`-sorted) except at the adjacent pair `p`: a split when the
    /// pair's rows tie on `lhs`, a swap otherwise.
    fn violated_at(rel: &Relation, lhs: &[ColumnId], index: &[u32], p: usize) -> Vec<Value> {
        let m = index.len() as i64;
        let tied = |k: usize| cmp_rows(rel, lhs, index[k] as usize, index[k + 1] as usize).is_eq();
        let shift = if tied(p) { 1 } else { -2 * m - 2 };
        let mut vals = vec![Value::Null; index.len()];
        let mut class = 0i64;
        for (k, &row) in index.iter().enumerate() {
            if k > 0 && !tied(k - 1) {
                class += 1;
            }
            let v = 2 * class + if k > p { shift } else { 0 };
            vals[row as usize] = Value::Int(v);
        }
        vals
    }

    /// Both walks of `lhs → rhs` return the rows of the pair the scalar
    /// oracles find over `sort_index_by(rel, lhs)`.
    fn walks_match_oracles(rel: &Relation, lhs: &[ColumnId], rhs: &[ColumnId]) -> Option<usize> {
        let index = sort_index_by(rel, lhs);
        let pair = |hit: Option<usize>| hit.map(|i| (index[i], index[i + 1]));
        let od = od_scan_scalar(rel, lhs, rhs, &index);
        assert_eq!(od_walk(rel, lhs, rhs), pair(od), "od, lhs {lhs:?}");
        let split = split_scan_scalar(rel, lhs, rhs, &index);
        assert_eq!(split_walk(rel, lhs, rhs), pair(split), "split, lhs {lhs:?}");
        od
    }

    #[test]
    fn walks_find_a_violation_at_every_position() {
        // Every pair position once: inside the first class, on class and
        // window boundaries, in the last class.
        let _counters = counters_guard();
        for rows in [0usize, 1, 2, 64, 65, 66, 131] {
            for (f, first) in FIRST_COLUMNS.into_iter().enumerate() {
                let (rel, lists) = walk_relation(rows, first, (rows * 4 + f) as u64);
                let rest_bits: usize = lists[3][1..]
                    .iter()
                    .map(|&c| {
                        (rel.meta(c).distinct.max(1) as u64)
                            .next_power_of_two()
                            .ilog2() as usize
                    })
                    .sum();
                assert!(
                    rows < 64 || rest_bits > 64,
                    "{rows} rows: {rest_bits} rest bits"
                );
                for lhs in &lists {
                    let index = sort_index_by(&rel, lhs);
                    walks_match_oracles(&rel, lhs, &[1]);
                    walks_match_oracles(&rel, lhs, &[3]);
                    for p in 0..rows.saturating_sub(1) {
                        let mut named: Vec<(String, Vec<Value>)> = (0..4)
                            .map(|c| {
                                (
                                    format!("c{c}"),
                                    (0..rows).map(|r| rel.value(r, c).clone()).collect(),
                                )
                            })
                            .collect();
                        named.push(("v".to_string(), violated_at(&rel, lhs, &index, p)));
                        let r = Relation::from_columns(named).unwrap();
                        let hit = walks_match_oracles(&r, lhs, &[4]);
                        assert_eq!(hit, Some(p), "{rows} rows, {first}, lhs {lhs:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn walks_count_one_scan_and_each_rank_order_once() {
        // The first walk on a column builds its rank order, one counting
        // sort; later walks on it count no sort, and appending rows makes
        // the grown relation build the order again. A walk that sorted its
        // whole index would count a packed radix sort here.
        let _counters = counters_guard();
        for rows in [0usize, 64, 65, 300] {
            let mut rel = rel_from(vec![(0..rows as i64).map(|i| i % 5).collect(); 2]);
            for grown in [false, true] {
                if grown {
                    rel.append_rows(&[vec![Value::Int(2), Value::Int(9)]])
                        .unwrap();
                }
                let block = rel.num_rows() > BLOCK_PAIRS;
                for (k, scan) in [od_walk, split_walk, od_walk].into_iter().enumerate() {
                    let tag = format!("{} rows, walk {k}", rel.num_rows());
                    let before = kernel_stats::snapshot();
                    scan(&rel, &[0, 1], &[1]);
                    let delta = kernel_stats::snapshot().since(&before);
                    let first = u64::from(k == 0);
                    assert_eq!((delta.counting, delta.total()), (first, first), "{tag}");
                    assert_eq!(delta.total_scans(), 1, "{tag}");
                    assert_eq!(delta.scan_block, u64::from(block), "{tag}");
                }
            }
        }
    }

    #[test]
    fn a_failing_walk_orders_a_fraction_of_the_classes() {
        // 5,000 rows in 500 classes of `a`, each ordered by `b`; `b → c`
        // with `c` increasing along the order but for one swap early on.
        let _counters = counters_guard();
        let rows = 5_000i64;
        let a: Vec<i64> = (0..rows).map(|i| (i * 7) % 500).collect();
        let b: Vec<i64> = (0..rows).map(|i| (i * 13) % 97).collect();
        let rel = rel_from(vec![a, b]);
        let index = sort_index_by(&rel, &[0, 1]);
        let mut c = vec![Value::Null; rows as usize];
        for (k, &row) in index.iter().enumerate() {
            c[row as usize] = Value::Int(if k == 30 { -1 } else { k as i64 });
        }
        let mut named: Vec<(String, Vec<Value>)> = (0..2)
            .map(|col| {
                (
                    format!("c{col}"),
                    (0..rows as usize)
                        .map(|r| rel.value(r, col).clone())
                        .collect(),
                )
            })
            .collect();
        named.push(("c".to_string(), c));
        let rel = Relation::from_columns(named).unwrap();
        for scan in [od_walk, split_walk] {
            let (_, classes) = class_count::during(|| scan(&rel, &[0, 1], &[0, 1]));
            assert_eq!(classes, 500, "a valid walk orders every class");
        }
        let (hit, classes) = class_count::during(|| od_walk(&rel, &[0, 1], &[2]));
        assert_eq!(hit, Some((index[29], index[30])));
        assert!(
            classes <= 10,
            "the failing walk ordered {classes} of 500 classes"
        );
    }

    /// Derive three correlated columns from one random word stream:
    /// tie-heavy (mod 3), mid-cardinality (mod 7) and spread (mod 1000).
    fn columns_from_words(words: &[u64]) -> Relation {
        let a = words.iter().map(|&w| (w % 3) as i64).collect();
        let b = words.iter().map(|&w| ((w >> 8) % 7) as i64).collect();
        let c = words.iter().map(|&w| ((w >> 16) % 1000) as i64).collect();
        rel_from(vec![a, b, c])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn differential_random_columns(words in prop::collection::vec(0u64..u64::MAX, 1..220)) {
            let _counters = counters_guard();
            let rel = columns_from_words(&words);
            for (lhs, rhs) in [
                (vec![0], vec![1]),
                (vec![0], vec![2]),
                (vec![2], vec![0]),
                (vec![0, 1], vec![2]),
                (vec![0, 1, 2], vec![2, 1, 0]),
            ] {
                let index = sort_index_by(&rel, &lhs);
                let od_oracle = od_scan_scalar(&rel, &lhs, &rhs, &index);
                let split_oracle = split_scan_scalar(&rel, &lhs, &rhs, &index);
                prop_assert_eq!(od_scan_blocks(&rel, &lhs, &rhs, &index), od_oracle);
                prop_assert_eq!(split_scan_blocks(&rel, &lhs, &rhs, &index), split_oracle);
            }
        }

        #[test]
        fn differential_width_sweep(words in prop::collection::vec(0u64..u64::MAX, 65..200)) {
            let _counters = counters_guard();
            let rel = columns_from_words(&words);
            let (lhs, rhs) = (vec![0], vec![1, 2]);
            let index = sort_index_by(&rel, &lhs);
            let od_oracle = od_scan_scalar(&rel, &lhs, &rhs, &index);
            let split_oracle = split_scan_scalar(&rel, &lhs, &rhs, &index);
            for min in [CodeWidth::U8, CodeWidth::U16, CodeWidth::U32] {
                let mut r = rel.clone();
                r.widen_code_width(min);
                prop_assert_eq!(od_scan_blocks(&r, &lhs, &rhs, &index), od_oracle);
                prop_assert_eq!(split_scan_blocks(&r, &lhs, &rhs, &index), split_oracle);
            }
        }

        #[test]
        fn walks_match_the_scalar_oracles(
            seed in 0u64..1 << 32,
            rows in 0usize..200,
            first in 0usize..4,
        ) {
            let _counters = counters_guard();
            let (rel, lists) = walk_relation(rows, FIRST_COLUMNS[first], seed);
            for lhs in &lists {
                for rhs in [vec![1], vec![3], vec![0, 3], vec![2]] {
                    walks_match_oracles(&rel, lhs, &rhs);
                }
            }
        }

        #[test]
        fn differential_tie_heavy_binary(bits in prop::collection::vec(0u64..4, 64..200)) {
            let _counters = counters_guard();
            // Near-all-ties data: long eq runs stress the fold early
            // exits and the first-violation word filters.
            let a: Vec<i64> = bits.iter().map(|&b| i64::from(b == 0)).collect();
            let b: Vec<i64> = bits.iter().map(|&b| i64::from(b <= 1)).collect();
            let rel = rel_from(vec![a, b]);
            let index = sort_index_by(&rel, &[0]);
            prop_assert_eq!(
                od_scan_blocks(&rel, &[0], &[1], &index),
                od_scan_scalar(&rel, &[0], &[1], &index)
            );
            prop_assert_eq!(
                split_scan_blocks(&rel, &[0], &[1], &index),
                split_scan_scalar(&rel, &[0], &[1], &index)
            );
        }
    }
}
