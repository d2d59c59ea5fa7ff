//! Candidate checking (§4.3 of the paper).
//!
//! The paper validates an OD candidate `X → Y` by sorting a row index on
//! `X` (`generateIndex`, Algorithm 2) and scanning adjacent rows. Because
//! the index groups `X`-equal rows contiguously and the lexicographic order
//! on `Y` is total, a single adjacent-pair scan classifies the candidate:
//!
//! * a pair with equal `X` but different `Y` is a **split** (the functional
//!   dependency component is violated, Theorem 2.5 terminology);
//! * a pair with strictly increasing `X` but decreasing `Y` is a **swap**
//!   (the order compatibility component is violated);
//! * otherwise the OD holds.
//!
//! An OCD candidate `X ~ Y` is validated with the *single* OD check
//! `XY → YX` (Theorem 4.1). Ties on `XY` imply equality on every attribute
//! of `X` and `Y`, so an OCD check can only produce `Valid` or `Swap`.
//!
//! The scan exits at the first violation (the paper's early
//! termination), and here the sort stops with it. [`check_od`] (so also
//! [`check_ocd`]) and [`check_od_after_ocd`] scan the rows in the order
//! of `ocdd_relation::sort::ClassOrder` on `X` (`scan::od_walk`,
//! `scan::split_walk`): one counting sort by the first attribute of `X`,
//! each class of it ordered by the rest of `X` only when the scan reaches
//! it. Those are the rows in the paper's order and the same first
//! violating pair, so every verdict and witness equals that of the whole
//! sort, kept as the oracles [`check_od_scalar`], [`scan_sorted_scalar`]
//! and [`scan_sorted_splits_only_scalar`]. A failing candidate costs the
//! `O(m + d)` counting sort over the `d` values of its first attribute
//! plus the classes up to its first violation. A valid one orders every
//! class; its worst case, a constant first attribute, is one sort of all
//! `m` rows plus the full scan, `O(m log m + m·(|X| + |Y|))` code
//! comparisons.

use crate::deps::AttrList;
use ocdd_relation::scan;
use ocdd_relation::sort::{cmp_rows, sort_index_by};
use ocdd_relation::{ColumnId, Relation};
use std::cmp::Ordering;

/// Outcome of checking an OD candidate `X → Y` against an instance, with a
/// witness pair of rows for violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The dependency holds on the instance.
    Valid,
    /// Split: the witness rows agree on `X` but differ on `Y`
    /// (`X → Y` as an FD over sets is violated).
    Split {
        /// First witness row id.
        row_a: u32,
        /// Second witness row id.
        row_b: u32,
    },
    /// Swap: the witness rows strictly increase on `X` but strictly
    /// decrease on `Y`.
    Swap {
        /// First witness row id (smaller on `X`).
        row_a: u32,
        /// Second witness row id.
        row_b: u32,
    },
}

impl CheckOutcome {
    /// True when the dependency holds.
    #[inline]
    pub fn is_valid(&self) -> bool {
        matches!(self, CheckOutcome::Valid)
    }
}

/// Classify the violating adjacent pair `(row_a, row_b)` of an
/// `lhs`-sorted order that a scan found: split when the rows tie on
/// `lhs`, swap otherwise.
fn classify_violation(rel: &Relation, lhs: &[ColumnId], row_a: u32, row_b: u32) -> CheckOutcome {
    if cmp_rows(rel, lhs, row_a as usize, row_b as usize) == Ordering::Equal {
        CheckOutcome::Split { row_a, row_b }
    } else {
        CheckOutcome::Swap { row_a, row_b }
    }
}

/// Scalar oracle for the scan of [`check_od`]: the per-pair `cmp_rows`
/// walk ([`scan::od_scan_scalar`]) over an index sorted by `lhs`, kept
/// public for differential tests and the pinned-scalar bench configs.
/// Over `sort_index_by(lhs)` it returns the same `CheckOutcome` —
/// including witness rows — as [`check_od`] on every input.
// lint: allow(panic-reachability, od_scan_scalar returns i < index.len() - 1, so index[i] and index[i + 1] are in bounds)
pub fn scan_sorted_scalar(
    rel: &Relation,
    lhs: &[ColumnId],
    rhs: &[ColumnId],
    index: &[u32],
) -> CheckOutcome {
    match scan::od_scan_scalar(rel, lhs, rhs, index) {
        None => CheckOutcome::Valid,
        Some(i) => classify_violation(rel, lhs, index[i], index[i + 1]),
    }
}

/// Split-only early-exit scan over `index` (pre-sorted by `lhs`): false
/// iff some pair of `lhs`-tied rows differs on `rhs`. Adjacent pairs
/// suffice — the index groups `lhs`-ties contiguously, and if every
/// adjacent pair inside a tie group agrees on `rhs`, all rows of the group
/// do. The scalar oracle of [`check_od_after_ocd`]
/// ([`scan::split_scan_scalar`]), public for differential tests and the
/// pinned-scalar bench configs.
pub fn scan_sorted_splits_only_scalar(
    rel: &Relation,
    lhs: &[ColumnId],
    rhs: &[ColumnId],
    index: &[u32],
) -> bool {
    scan::split_scan_scalar(rel, lhs, rhs, index).is_none()
}

/// Check the OD candidate `lhs → rhs`: scan the rows in `lhs` order
/// ([`scan::od_walk`]), ordering them only as far as the scan gets, and
/// classify the first violating adjacent pair: the rows are in `lhs`
/// order, so `lhs` compares `Equal` (split) or `Less` (the `rhs` must
/// have decreased — swap).
pub fn check_od(rel: &Relation, lhs: &AttrList, rhs: &AttrList) -> CheckOutcome {
    match scan::od_walk(rel, lhs.as_slice(), rhs.as_slice()) {
        None => CheckOutcome::Valid,
        Some((row_a, row_b)) => classify_violation(rel, lhs.as_slice(), row_a, row_b),
    }
}

/// [`check_od`] by the paper's whole-index sort and the scalar scan
/// kernel: the historical per-pair checker, kept as the differential
/// oracle.
pub fn check_od_scalar(rel: &Relation, lhs: &AttrList, rhs: &AttrList) -> CheckOutcome {
    let index = sort_index_by(rel, lhs.as_slice());
    scan_sorted_scalar(rel, lhs.as_slice(), rhs.as_slice(), &index)
}

/// Fused direction check: decide the OD `lhs → rhs` **given that the OCD
/// `lhs ~ rhs` already passed** on the same instance.
///
/// Under a valid OCD a swap is impossible: rows with `lhs` strictly
/// increasing and `rhs` strictly decreasing would also order
/// `lhs·rhs` against `rhs·lhs` inconsistently, contradicting the single
/// check `XY → YX` of Theorem 4.1. The OD can then only fail by *split*,
/// so a split-only early-exit scan of the rows in `lhs` order
/// ([`scan::split_walk`]) decides it — same verdict as [`check_od`],
/// typically fewer column comparisons (only `lhs`-tied pairs ever touch
/// `rhs`). The search calls this for both directions of every candidate
/// that survives its OCD check.
pub fn check_od_after_ocd(rel: &Relation, lhs: &AttrList, rhs: &AttrList) -> bool {
    scan::split_walk(rel, lhs.as_slice(), rhs.as_slice()).is_none()
}

/// Check the OCD candidate `x ~ y` via the single OD check `XY → YX`
/// (Theorem 4.1).
pub fn check_ocd(rel: &Relation, x: &AttrList, y: &AttrList) -> CheckOutcome {
    let xy = x.concat(y);
    let yx = y.concat(x);
    check_od(rel, &xy, &yx)
}

/// Reference checker: validate `lhs → rhs` by the pairwise Definition 2.2,
/// literally — for every ordered pair of rows `(p, q)`, `p ⪯_lhs q` must
/// imply `p ⪯_rhs q`.
///
/// This is the `O(m²·(|lhs| + |rhs|))` brute-force oracle used by tests and
/// the ground-truth baseline; it shares no code with the sorted-scan
/// checker, which is exactly what makes it a useful differential target.
/// The diagonal `p == q` is skipped: a row always satisfies `p ⪯ p` on
/// both sides, so it can never witness a violation.
pub fn check_od_pairwise(rel: &Relation, lhs: &AttrList, rhs: &AttrList) -> bool {
    let m = rel.num_rows();
    for p in 0..m {
        for q in 0..m {
            if p == q {
                continue;
            }
            if cmp_rows(rel, lhs.as_slice(), p, q) != Ordering::Greater
                && cmp_rows(rel, rhs.as_slice(), p, q) == Ordering::Greater
            {
                return false;
            }
        }
    }
    true
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

    #[test]
    fn valid_od_on_monotone_columns() {
        let r = rel(&[("a", &[1, 2, 3, 4]), ("b", &[10, 20, 20, 40])]);
        assert!(check_od(&r, &l(&[0]), &l(&[1])).is_valid());
        // b -> a fails: b has a tie (rows 1,2) where a differs -> split.
        assert!(matches!(
            check_od(&r, &l(&[1]), &l(&[0])),
            CheckOutcome::Split { .. }
        ));
    }

    #[test]
    fn swap_detected_with_witness() {
        let r = rel(&[("a", &[1, 2, 3]), ("b", &[1, 3, 2])]);
        match check_od(&r, &l(&[0]), &l(&[1])) {
            CheckOutcome::Swap { row_a, row_b } => {
                // Witness rows must actually form a swap.
                assert!(r.code(row_a as usize, 0) < r.code(row_b as usize, 0));
                assert!(r.code(row_a as usize, 1) > r.code(row_b as usize, 1));
            }
            other => panic!("expected swap, got {other:?}"),
        }
    }

    #[test]
    fn split_detected_with_witness() {
        let r = rel(&[("a", &[1, 1, 2]), ("b", &[5, 6, 7])]);
        match check_od(&r, &l(&[0]), &l(&[1])) {
            CheckOutcome::Split { row_a, row_b } => {
                assert_eq!(r.code(row_a as usize, 0), r.code(row_b as usize, 0));
                assert_ne!(r.code(row_a as usize, 1), r.code(row_b as usize, 1));
            }
            other => panic!("expected split, got {other:?}"),
        }
    }

    #[test]
    fn ocd_check_matches_definition() {
        // income ~ savings from Table 1 of the paper.
        let r = rel(&[
            ("income", &[35_000, 40_000, 40_000, 55_000, 60_000, 80_000]),
            ("savings", &[3_000, 4_000, 3_800, 6_500, 6_500, 10_000]),
        ]);
        // income ~ savings fails: rows 2,3 (40000,3800),(40000,4000)? No —
        // check: XY -> YX must hold. Sorting by (income,savings):
        // (35000,3000),(40000,3800),(40000,4000),(55000,6500),(60000,6500),(80000,10000)
        // (savings,income) sequence: (3000,35000),(3800,40000),(4000,40000),
        // (6500,55000),(6500,60000),(10000,80000) — non-decreasing => valid.
        assert!(check_ocd(&r, &l(&[0]), &l(&[1])).is_valid());
    }

    #[test]
    fn ocd_never_reports_split() {
        // a and b have a genuine swap.
        let r = rel(&[("a", &[1, 2]), ("b", &[2, 1])]);
        match check_ocd(&r, &l(&[0]), &l(&[1])) {
            CheckOutcome::Swap { .. } => {}
            other => panic!("expected swap, got {other:?}"),
        }
    }

    #[test]
    fn theorem_4_1_single_check_equals_both_directions() {
        // X ~ Y  iff  XY -> YX  iff both XY -> YX and YX -> XY.
        let cases: Vec<Relation> = vec![
            rel(&[("a", &[1, 2, 3, 3]), ("b", &[4, 5, 6, 7])]),
            rel(&[("a", &[1, 2, 3]), ("b", &[3, 2, 1])]),
            rel(&[("a", &[1, 1, 2]), ("b", &[9, 9, 1])]),
        ];
        for r in &cases {
            let (x, y) = (l(&[0]), l(&[1]));
            let xy = x.concat(&y);
            let yx = y.concat(&x);
            let fwd = check_od(r, &xy, &yx).is_valid();
            let bwd = check_od(r, &yx, &xy).is_valid();
            assert_eq!(fwd, bwd, "Theorem 4.1: the two directions must agree");
            assert_eq!(check_ocd(r, &x, &y).is_valid(), fwd && bwd);
        }
    }

    #[test]
    fn fast_checker_matches_pairwise_reference() {
        // Exhaustive over small relations: every 2-column relation with
        // values in {0,1,2} and 4 rows.
        let mut count = 0;
        for bits_a in 0..81u32 {
            for bits_b in [0u32, 7, 27, 45, 80] {
                let dec = |mut bits: u32| -> Vec<i64> {
                    let mut v = Vec::new();
                    for _ in 0..4 {
                        v.push((bits % 3) as i64);
                        bits /= 3;
                    }
                    v
                };
                let (va, vb) = (dec(bits_a), dec(bits_b));
                let r = rel(&[("a", &va), ("b", &vb)]);
                for (x, y) in [
                    (l(&[0]), l(&[1])),
                    (l(&[1]), l(&[0])),
                    (l(&[0, 1]), l(&[1, 0])),
                ] {
                    assert_eq!(
                        check_od(&r, &x, &y).is_valid(),
                        check_od_pairwise(&r, &x, &y),
                        "mismatch on {va:?} {vb:?} for {x} -> {y}"
                    );
                    count += 1;
                }
            }
        }
        assert!(count > 1000);
    }

    #[test]
    fn empty_and_singleton_relations_are_trivially_valid() {
        let r = rel(&[("a", &[]), ("b", &[])]);
        assert!(check_od(&r, &l(&[0]), &l(&[1])).is_valid());
        let r = rel(&[("a", &[5]), ("b", &[7])]);
        assert!(check_od(&r, &l(&[0]), &l(&[1])).is_valid());
        assert!(check_ocd(&r, &l(&[0]), &l(&[1])).is_valid());
    }

    #[test]
    fn empty_lhs_orders_only_constants() {
        let r = rel(&[("a", &[1, 2]), ("c", &[7, 7])]);
        // [] -> [c] holds (constant), [] -> [a] fails (split on empty list).
        assert!(check_od(&r, &AttrList::empty(), &l(&[1])).is_valid());
        assert!(matches!(
            check_od(&r, &AttrList::empty(), &l(&[0])),
            CheckOutcome::Split { .. }
        ));
    }

    #[test]
    fn fused_direction_check_matches_full_check_after_valid_ocd() {
        // Exhaustive over small two-column relations: whenever the OCD
        // x ~ y holds, the split-only direction check must agree with the
        // full checker in both directions.
        let mut fused_cases = 0;
        for bits_a in 0..81u32 {
            for bits_b in 0..81u32 {
                let dec = |mut bits: u32| -> Vec<i64> {
                    let mut v = Vec::new();
                    for _ in 0..4 {
                        v.push((bits % 3) as i64);
                        bits /= 3;
                    }
                    v
                };
                let r = rel(&[("a", &dec(bits_a)), ("b", &dec(bits_b))]);
                let (x, y) = (l(&[0]), l(&[1]));
                if !check_ocd(&r, &x, &y).is_valid() {
                    continue;
                }
                fused_cases += 1;
                assert_eq!(
                    check_od_after_ocd(&r, &x, &y),
                    check_od(&r, &x, &y).is_valid(),
                    "x→y on {bits_a}/{bits_b}"
                );
                assert_eq!(
                    check_od_after_ocd(&r, &y, &x),
                    check_od(&r, &y, &x).is_valid(),
                    "y→x on {bits_a}/{bits_b}"
                );
            }
        }
        assert!(fused_cases > 500, "enough OCD-valid cases exercised");
    }

    #[test]
    fn pairwise_oracle_trivial_on_diagonal_only_relations() {
        // Single-row relation: the only pair is the diagonal, so any OD
        // holds vacuously.
        let r = rel(&[("a", &[3]), ("b", &[9])]);
        assert!(check_od_pairwise(&r, &l(&[0]), &l(&[1])));
        assert!(check_od_pairwise(&r, &l(&[1]), &l(&[0])));
    }

    /// A relation for the lazy checks: column 0 the first column of every
    /// checked list, shaped by `first` (0 all singletons, 1 two-valued,
    /// 2 constant, 3 with NULLs); 1 with three values; 2 constant; 3 with
    /// about two thirds as many values as rows; 4 with 40 values.
    fn lazy_relation(rows: usize, first: usize, seed: u64) -> Relation {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut ids: Vec<i64> = (0..rows as i64).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let first: Vec<Value> = match first {
            0 => ids.into_iter().map(Value::Int).collect(),
            1 => (0..rows).map(|_| Value::Int((next() % 2) as i64)).collect(),
            2 => vec![Value::Int(7); rows],
            _ => (0..rows)
                .map(|_| match next() % 4 {
                    0 => Value::Null,
                    v => Value::Int(v as i64),
                })
                .collect(),
        };
        let mut column = |d: u64| (0..rows).map(|_| Value::Int((next() % d) as i64)).collect();
        let (few, wide, forty) = (column(3), column(rows.max(1) as u64), column(40));
        Relation::from_columns(vec![
            ("first".to_string(), first),
            ("few".to_string(), few),
            ("constant".to_string(), vec![Value::Int(1); rows]),
            ("wide".to_string(), wide),
            ("forty".to_string(), forty),
        ])
        .unwrap()
    }

    /// `rel` with one more column, on which `lhs → [that column]` holds
    /// along `index` (`lhs`-sorted) except at the adjacent pair `p`: a
    /// split when the pair's rows tie on `lhs`, a swap otherwise.
    fn violated_at(rel: &Relation, lhs: &[ColumnId], index: &[u32], p: usize) -> Relation {
        let m = index.len() as i64;
        let tied = |k: usize| {
            cmp_rows(rel, lhs, index[k] as usize, index[k + 1] as usize) == Ordering::Equal
        };
        let shift = if tied(p) { 1 } else { -2 * m - 2 };
        let mut vals = vec![Value::Null; index.len()];
        let mut class = 0i64;
        for (k, &row) in index.iter().enumerate() {
            if k > 0 && !tied(k - 1) {
                class += 1;
            }
            vals[row as usize] = Value::Int(2 * class + if k > p { shift } else { 0 });
        }
        let mut named: Vec<(String, Vec<Value>)> = (0..rel.num_columns())
            .map(|c| {
                let col = (0..rel.num_rows()).map(|r| rel.value(r, c).clone());
                (rel.meta(c).name.clone(), col.collect())
            })
            .collect();
        named.push(("violated".to_string(), vals));
        Relation::from_columns(named).unwrap()
    }

    /// A pair position along `index` (`x`-sorted) by `place`: inside the
    /// first class of `x`'s first column (0), on a class boundary (1), on
    /// the boundary of the walk's first window (2), in the last class (3).
    /// The walk's first window runs to the end of the first class that
    /// reaches 65 rows.
    fn pair_at(rel: &Relation, x: &[ColumnId], index: &[u32], place: usize, pick: u64) -> usize {
        let m = index.len();
        let mut ends: Vec<usize> = (1..m)
            .filter(|&k| rel.code(index[k - 1] as usize, x[0]) != rel.code(index[k] as usize, x[0]))
            .collect();
        ends.push(m);
        let pick = pick as usize;
        let p = match place {
            0 => pick % ends[0].saturating_sub(1).max(1),
            1 => ends[pick % ends.len()] - 1,
            2 => {
                let window = ends.iter().copied().find(|&e| e >= 65).unwrap_or(m);
                window - 1 - pick % 2
            }
            _ => {
                let last = ends.len().checked_sub(2).map_or(0, |j| ends[j]);
                last + pick % (m - last)
            }
        };
        p.min(m - 2)
    }

    // The lazy checks walk the rows class by class; their full
    // CheckOutcome — including witness rows — must equal the whole sort's
    // followed by the scalar scan, at every row count around one block,
    // first-column shape and rest width, with the first violation placed
    // at each kind of boundary.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]

        #[test]
        fn lazy_checks_match_the_whole_sort_oracles(seed in 0u64..1 << 32) {
            use proptest::prop_assert_eq;
            // Rests of 0 bits, under 64 bits and, from 64 rows on, over 64.
            let lists = [vec![0], vec![0, 2], vec![0, 1, 3], [&[0][..], &[3; 12]].concat()];
            let shapes = [0, 1, 2, 64, 65, 66, 131, 260]
                .into_iter()
                .flat_map(|rows| (0..4).map(move |first| (rows, first)));
            for (rows, first) in shapes {
            let base = lazy_relation(rows, first, seed ^ rows as u64);
            for (x, place) in lists.iter().flat_map(|x| (0..5).map(move |place| (x, place))) {
                let index = sort_index_by(&base, x);
                let r = if place < 4 && rows >= 2 {
                    let p = pair_at(&base, x, &index, place, seed >> 8);
                    let r = violated_at(&base, x, &index, p);
                    prop_assert_eq!(scan::od_scan_scalar(&r, x, &[5], &index), Some(p));
                    r
                } else {
                    base.clone()
                };
                let x = l(x);
                for y in (1..r.num_columns()).map(|c| l(&[c])) {
                    prop_assert_eq!(check_od(&r, &x, &y), check_od_scalar(&r, &x, &y));
                    prop_assert_eq!(
                        check_ocd(&r, &x, &y),
                        check_od_scalar(&r, &x.concat(&y), &y.concat(&x))
                    );
                    prop_assert_eq!(
                        check_od_after_ocd(&r, &x, &y),
                        scan_sorted_splits_only_scalar(&r, x.as_slice(), y.as_slice(), &index)
                    );
                }
            }
            }
        }
    }

    #[test]
    fn nulls_first_semantics_in_checks() {
        let r = Relation::from_columns(vec![
            (
                "a".to_string(),
                vec![Value::Null, Value::Int(1), Value::Int(2)],
            ),
            (
                "b".to_string(),
                vec![Value::Int(0), Value::Int(5), Value::Int(9)],
            ),
        ])
        .unwrap();
        // NULL sorts first and b is increasing along that order.
        assert!(check_od(&r, &l(&[0]), &l(&[1])).is_valid());
    }
}
