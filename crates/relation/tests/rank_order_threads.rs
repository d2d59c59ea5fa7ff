//! Concurrent first reads of one column's rank order.
//!
//! Kernel counters are process-global, so this binary holds one test: no
//! other test's sorts run while it reads them.

use ocdd_relation::sort::kernel_stats;
use ocdd_relation::{sort_index_by, Relation, Value};
use std::sync::Barrier;

#[test]
// Two readers on threads of their own race for the first read.
#[allow(clippy::disallowed_methods)]
fn two_threads_read_one_rank_order_built_once() {
    let rows = 20_000i64;
    let named = vec![(
        "a".to_string(),
        (0..rows).map(|i| Value::Int((i * 7_919) % 1_000)).collect(),
    )];
    let rel = Relation::from_columns(named).unwrap();
    let start = Barrier::new(2);
    let read = || {
        start.wait();
        rel.rank_order(0)
    };
    let before = kernel_stats::snapshot();
    let (one, two) = std::thread::scope(|s| {
        let one = s.spawn(read);
        let two = s.spawn(read);
        (one.join().unwrap(), two.join().unwrap())
    });
    let delta = kernel_stats::snapshot().since(&before);
    assert_eq!(delta.counting, 1, "one build for both readers");
    assert!(std::ptr::eq(one, two), "both readers hold the one order");
    assert_eq!(one.rows(), two.rows());
    assert_eq!(one.rows(), &sort_index_by(&rel, &[0])[..]);
    assert_eq!(one.ends().len(), 1_000);
}
