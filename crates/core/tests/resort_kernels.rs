//! The sort and scan kernels the `Resort` checks count.
//!
//! Kernel counters are process-global, so this binary holds one test: no
//! other test's sorts or scans run while it reads them. A check that
//! sorted its whole index again (`sort_index_by`) would count a packed
//! radix sort here; the class-order walk counts one counting sort.

use ocdd_core::{check_ocd, check_od, check_od_after_ocd, AttrList, CheckOutcome};
use ocdd_relation::sort::kernel_stats::{self, KernelCounts};
use ocdd_relation::{Relation, Value};

/// The kernels `f` counts.
fn kernels(f: impl FnOnce()) -> KernelCounts {
    let before = kernel_stats::snapshot();
    f();
    kernel_stats::snapshot().since(&before)
}

#[test]
fn resort_checks_count_one_counting_sort_and_one_scan() {
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
    let rel = Relation::from_columns(named).unwrap();
    let l = AttrList::from_slice;
    let one_walk = KernelCounts {
        counting: 1,
        scan_block: 1,
        ..KernelCounts::default()
    };
    let mut outcome = CheckOutcome::Valid;
    let counts = kernels(|| outcome = check_od(&rel, &l(&[0, 1]), &l(&[2])));
    assert!(matches!(outcome, CheckOutcome::Swap { .. }), "{outcome:?}");
    assert_eq!(counts, one_walk, "a failing check_od");
    let counts = kernels(|| outcome = check_od(&rel, &l(&[0, 1]), &l(&[3])));
    assert_eq!(outcome, CheckOutcome::Valid);
    assert_eq!(counts, one_walk, "a valid check_od");
    let counts = kernels(|| outcome = check_ocd(&rel, &l(&[0]), &l(&[1])));
    assert!(!outcome.is_valid());
    assert_eq!(counts, one_walk, "check_ocd");
    let mut holds = false;
    let counts = kernels(|| holds = check_od_after_ocd(&rel, &l(&[0, 1]), &l(&[3])));
    assert!(holds);
    assert_eq!(counts, one_walk, "check_od_after_ocd");
}
