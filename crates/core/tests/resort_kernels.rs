//! The sort and scan kernels the `Resort` checks count.
//!
//! Kernel counters are process-global, so this binary holds one test: no
//! other test's sorts or scans run while it reads them. A check counts
//! one scan and no sort, except that the first check on a column builds
//! the relation's rank order of it, one counting sort, and a relation
//! grown by `append_rows` builds it again. A check that sorted its whole
//! index again (`sort_index_by`) would count a packed radix sort here.

use ocdd_core::{check_ocd, check_od, check_od_after_ocd, AttrList, CheckOutcome};
use ocdd_relation::sort::kernel_stats::{self, KernelCounts};
use ocdd_relation::{Relation, Value};

/// The kernels `f` counts.
fn kernels(f: impl FnOnce()) -> KernelCounts {
    let before = kernel_stats::snapshot();
    f();
    kernel_stats::snapshot().since(&before)
}

/// One blockwise walk, `counting` rank orders built on the way.
fn walk(counting: u64) -> KernelCounts {
    KernelCounts {
        counting,
        scan_block: 1,
        ..KernelCounts::default()
    }
}

#[test]
fn resort_checks_count_one_scan_and_each_rank_order_once() {
    // 300 rows: `a` with 30 values, `b` with 7, `c` increasing with
    // `(a, b)` but for one dip, `d` constant.
    let rows = 300i64;
    let a: Vec<i64> = (0..rows).map(|i| (i * 17) % 30).collect();
    let b: Vec<i64> = (0..rows).map(|i| (i * 5) % 7).collect();
    let c: Vec<i64> = a
        .iter()
        .zip(&b)
        .map(|(&a, &b)| if a == 3 && b == 4 { -1 } else { a * 10 + b })
        .collect();
    let named = [("a", a), ("b", b), ("c", c), ("d", vec![1; rows as usize])]
        .into_iter()
        .map(|(n, vals)| (n.to_string(), vals.into_iter().map(Value::Int).collect()))
        .collect();
    let mut rel = Relation::from_columns(named).unwrap();
    let l = AttrList::from_slice;
    let mut outcome = CheckOutcome::Valid;
    let counts = kernels(|| outcome = check_od(&rel, &l(&[0, 1]), &l(&[2])));
    assert!(matches!(outcome, CheckOutcome::Swap { .. }), "{outcome:?}");
    assert_eq!(counts, walk(1), "the first check on `a` builds its order");
    let counts = kernels(|| outcome = check_od(&rel, &l(&[0, 1]), &l(&[3])));
    assert_eq!(outcome, CheckOutcome::Valid);
    assert_eq!(counts, walk(0), "a valid check_od");
    let counts = kernels(|| outcome = check_ocd(&rel, &l(&[0]), &l(&[1])));
    assert!(!outcome.is_valid());
    assert_eq!(counts, walk(0), "check_ocd");
    let mut holds = false;
    let counts = kernels(|| holds = check_od_after_ocd(&rel, &l(&[0, 1]), &l(&[3])));
    assert!(holds);
    assert_eq!(counts, walk(0), "check_od_after_ocd");
    let counts = kernels(|| outcome = check_od(&rel, &l(&[1, 0]), &l(&[2])));
    assert!(!outcome.is_valid());
    assert_eq!(counts, walk(1), "the first check on `b` builds its order");
    // The grown relation's codes differ: its orders are built again.
    rel.append_rows(&[(0..4).map(Value::Int).collect()])
        .unwrap();
    let counts = kernels(|| outcome = check_od(&rel, &l(&[0, 1]), &l(&[2])));
    assert!(!outcome.is_valid());
    assert_eq!(counts, walk(1), "the first check on the grown `a`");
    let counts = kernels(|| outcome = check_od(&rel, &l(&[0, 1]), &l(&[2])));
    assert_eq!(counts, walk(0), "a second check on the grown `a`");
}
