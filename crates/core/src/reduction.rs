//! Column reduction (§4.1): the `columnsReduction()` preprocessing step.
//!
//! Two operations shrink the attribute universe before the search starts:
//!
//! 1. **Removal of constant columns.** A constant column is ordered by every
//!    attribute list, so it would generate a huge number of trivial ODs.
//! 2. **Reduction of order-equivalent columns.** All `n(n-1)` single-column
//!    OD candidates `A → B` are decided; the valid ones form a digraph whose
//!    strongly connected components (computed with Tarjan's algorithm, as in
//!    the paper) are exactly the order-equivalence classes `A ↔ B ↔ …`.
//!    One representative per class is kept.
//!
//! The `A → B` verdicts come from one `O(m)` pair pass per unordered pair
//! `{A, B}` (`pair_pass`) instead of the paper's sort and scan per ordered
//! pair. The pass also decides `[A] ~ [B]` and both FDs, and [`Reduction`]
//! keeps them (`PairVerdicts`) so that the search's canonical checker
//! ([`crate::sorted_partitions`]) can read them instead of walking the
//! pair again. The phase still counts `n(n-1)` checks.
//!
//! The dependencies implied by the removed columns (constancy facts,
//! equivalences, and the one-directional single-column ODs among
//! representatives) are part of the algorithm's output and are re-expanded
//! by [`crate::expand`].

use crate::deps::{AttrList, Od, OrderEquivalence};
use ocdd_relation::pool::par_map;
use ocdd_relation::{ColumnId, Relation};

/// Output of the column-reduction phase.
#[derive(Debug, Clone, Default)]
pub struct Reduction {
    /// The reduced attribute universe `U'` (class representatives of
    /// non-constant columns), in ascending column order.
    pub attributes: Vec<ColumnId>,
    /// Constant columns removed from the universe.
    pub constants: Vec<ColumnId>,
    /// Order-equivalence classes with at least two members. The first
    /// element of each class is the representative kept in `attributes`.
    pub equivalence_classes: Vec<Vec<ColumnId>>,
    /// Single-column ODs `[A] → [B]` valid between *representatives* where
    /// the reverse does not hold (these edges survive the SCC collapse and
    /// are results in their own right).
    pub single_ods: Vec<Od>,
    /// Number of single-column OD checks this phase stands for: `k(k-1)`
    /// for `k` live columns, one per ordered pair.
    pub checks: u64,
    /// The pair pass's verdicts over the live columns, read by the
    /// search's canonical checker. `None` when the phase did not run.
    pub(crate) pairs: Option<PairVerdicts>,
    /// Set when the columns are descending twins (column `a ^ 1` is the
    /// twin of column `a`, see [`crate::bidirectional`]): the search then
    /// seeds only even first attributes and never puts a column and its
    /// twin into one candidate.
    pub(crate) twinned: bool,
}

impl Reduction {
    /// Equivalences as explicit `A ↔ B` facts (representative first).
    pub fn equivalences(&self) -> Vec<OrderEquivalence> {
        let mut out = Vec::new();
        for class in &self.equivalence_classes {
            let rep = class[0];
            for &other in &class[1..] {
                out.push(OrderEquivalence {
                    lhs: AttrList::single(rep),
                    rhs: AttrList::single(other),
                });
            }
        }
        out
    }

    /// The class representative a column was collapsed to (itself if it was
    /// not collapsed). Constants map to themselves.
    pub fn representative(&self, col: ColumnId) -> ColumnId {
        for class in &self.equivalence_classes {
            if class.contains(&col) {
                return class[0];
            }
        }
        col
    }
}

/// The verdicts of one unordered column pair `{A, B}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PairVerdict {
    /// `[A] ~ [B]`: no swap.
    pub(crate) compatible: bool,
    /// The FD `A → B`: every A-code meets one B-code.
    pub(crate) determines: bool,
    /// The FD `B → A`.
    pub(crate) determined: bool,
}

impl PairVerdict {
    /// The OD `[A] → [B]`: the OCD and the FD.
    pub(crate) fn forward(&self) -> bool {
        self.compatible && self.determines
    }

    /// The OD `[B] → [A]`.
    pub(crate) fn backward(&self) -> bool {
        self.compatible && self.determined
    }
}

/// Decide `[A] ~ [B]` and the FDs `A → B` and `B → A` in one walk over the
/// rows, with no sort: the set-based order compatibility `{}: A ~ B` of
/// Szlichta et al. (arXiv 1608.06169) and the FDs it needs for
/// `[A] → [B]` and `[B] → [A]`.
///
/// The walk records the minimum and maximum B-code of every A-code, and the
/// minimum and maximum A-code of every B-code.
/// - `A ~ B` holds iff, taking the A-codes in ascending order, each code's
///   minimum is at least the running maximum of the earlier codes. A row
///   pair with `A` rising and `B` falling is exactly a code whose minimum
///   falls below an earlier maximum. Since every minimum is at most its
///   maximum, the running maximum is the previous code's maximum.
/// - The FD `A → B` holds iff every A-code has minimum = maximum (no
///   split), and the OD `[A] → [B]` iff the FD and `A ~ B` hold. `B → A` is
///   the mirror case.
///
/// NULL is rank 0 and sorts first, so it needs no special case. On every
/// input `compatible` equals [`crate::check::check_ocd`], and `forward()`
/// and `backward()` equal `check_od(A, B)` and `check_od(B, A)` (a
/// proptest below holds them to it).
// lint: allow(panic-reachability, codes are dense ranks < meta.distinct and both tables are sized distinct, so every code indexes in bounds; windows(2) yields length-2 slices)
pub(crate) fn pair_pass(rel: &Relation, a: ColumnId, b: ColumnId) -> PairVerdict {
    let (codes_a, codes_b) = (rel.codes(a), rel.codes(b));
    // (min, max) of the other column per code. Ranks are dense, so every
    // code occurs and leaves its (MAX, 0) start behind.
    let mut b_of_a = vec![(u32::MAX, 0u32); rel.meta(a).distinct];
    let mut a_of_b = vec![(u32::MAX, 0u32); rel.meta(b).distinct];
    for (&ca, &cb) in codes_a.iter().zip(codes_b) {
        let e = &mut b_of_a[ca as usize];
        e.0 = e.0.min(cb);
        e.1 = e.1.max(cb);
        let e = &mut a_of_b[cb as usize];
        e.0 = e.0.min(ca);
        e.1 = e.1.max(ca);
    }
    let constant_per_code = |t: &[(u32, u32)]| t.iter().all(|&(lo, hi)| lo == hi);
    PairVerdict {
        compatible: b_of_a.windows(2).all(|w| w[0].1 <= w[1].0),
        determines: constant_per_code(&b_of_a),
        determined: constant_per_code(&a_of_b),
    }
}

/// The pair pass's verdicts over every ordered pair of live columns, as
/// kept by [`Reduction`] for the search's canonical checker.
#[derive(Debug, Clone)]
pub(crate) struct PairVerdicts {
    /// Position of each column among the live ones; `None` for constants.
    slot: Vec<Option<usize>>,
    /// Number of live columns.
    k: usize,
    /// Per ordered live pair `i * k + j`: [`COMPATIBLE`] when
    /// `[Ai] ~ [Aj]`, [`DETERMINES`] when the FD `Ai → Aj` holds.
    bits: Vec<u8>,
}

/// [`PairVerdicts`] bit: the pair is order compatible.
const COMPATIBLE: u8 = 1;
/// [`PairVerdicts`] bit: the first column functionally determines the
/// second.
const DETERMINES: u8 = 2;
/// Both bits: the first column orders the second.
const ORDERS: u8 = COMPATIBLE | DETERMINES;

impl PairVerdicts {
    /// The verdict bits of `a` against `b`, `None` unless they are two
    /// distinct live columns.
    fn bits(&self, a: ColumnId, b: ColumnId) -> Option<u8> {
        let i = (*self.slot.get(a)?)?;
        let j = (*self.slot.get(b)?)?;
        if i == j {
            return None;
        }
        self.bits.get(i * self.k + j).copied()
    }

    /// The OC fact `{}: a ~ b`, or `None` unless `a` and `b` are two
    /// distinct live columns.
    pub(crate) fn compatible(&self, a: ColumnId, b: ColumnId) -> Option<bool> {
        self.bits(a, b).map(|v| v & COMPATIBLE != 0)
    }

    /// The FD `a → b`, or `None` unless `a` and `b` are two distinct live
    /// columns.
    pub(crate) fn determines(&self, a: ColumnId, b: ColumnId) -> Option<bool> {
        self.bits(a, b).map(|v| v & DETERMINES != 0)
    }
}

/// Tarjan's strongly-connected-components algorithm over a dense digraph.
///
/// `adj[u]` lists the successors of node `u`. Returns the components in
/// reverse topological order; nodes within a component keep discovery
/// order.
// lint: allow(panic-reachability, every index is a node id < adj.len() — frames and the Tarjan stack only ever hold ids produced by iterating 0..n)
pub(crate) fn tarjan_scc(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    const UNDEF: usize = usize::MAX;
    let mut index_of = vec![UNDEF; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components = Vec::new();

    // Iterative DFS to avoid recursion depth limits on wide tables.
    enum Frame {
        Enter(usize),
        Resume(usize, usize), // (node, next child position)
    }

    for start in 0..n {
        if index_of[start] != UNDEF {
            continue;
        }
        let mut work = vec![Frame::Enter(start)];
        while let Some(frame) = work.pop() {
            match frame {
                Frame::Enter(v) => {
                    index_of[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    work.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut child) => {
                    let mut descended = false;
                    while child < adj[v].len() {
                        let w = adj[v][child];
                        child += 1;
                        if index_of[w] == UNDEF {
                            work.push(Frame::Resume(v, child));
                            work.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if on_stack[w] {
                            lowlink[v] = lowlink[v].min(index_of[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    if lowlink[v] == index_of[v] {
                        let mut component = Vec::new();
                        loop {
                            let w = stack.pop().expect("stack holds the component");
                            on_stack[w] = false;
                            component.push(w);
                            if w == v {
                                break;
                            }
                        }
                        component.reverse();
                        components.push(component);
                    }
                    // Propagate lowlink to parent Resume frame, if any.
                    if let Some(Frame::Resume(parent, _)) = work.last() {
                        let parent = *parent;
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                }
            }
        }
    }
    components
}

/// Run column reduction over `rel` (single-threaded).
pub fn columns_reduction(rel: &Relation) -> Reduction {
    columns_reduction_with_threads(rel, 1)
}

/// Column reduction with the pair pass of every unordered live column
/// pair spread over `threads` scoped threads. The passes are independent,
/// so the result is identical to the sequential run (enforced by tests);
/// only wall-clock changes. `discover` picks the thread count from its
/// [`crate::config::ParallelMode`].
// lint: allow(panic-reachability, indices are bounded by construction — i and j range over 0..k with bits sized k*k, every SCC is non-empty, and every live column lands in exactly one equivalence class)
pub fn columns_reduction_with_threads(rel: &Relation, threads: usize) -> Reduction {
    let n = rel.num_columns();
    let mut constants = Vec::new();
    let mut live: Vec<ColumnId> = Vec::new();
    let mut slot = vec![None; n];
    for (c, slot) in slot.iter_mut().enumerate() {
        if rel.meta(c).is_constant() {
            constants.push(c);
        } else {
            *slot = Some(live.len());
            live.push(c);
        }
    }

    // One pass per unordered live pair; each answers both directions.
    let k = live.len();
    let pairs: Vec<(usize, usize)> = (0..k)
        .flat_map(|i| (i + 1..k).map(move |j| (i, j)))
        .collect();
    let verdicts = par_map(pairs, threads, |&(i, j)| {
        (i, j, pair_pass(rel, live[i], live[j]))
    });
    let mut bits = vec![0u8; k * k];
    for &(i, j, ref v) in &verdicts {
        let both = if v.compatible { COMPATIBLE } else { 0 };
        bits[i * k + j] = both | if v.determines { DETERMINES } else { 0 };
        bits[j * k + i] = both | if v.determined { DETERMINES } else { 0 };
    }
    // The paper checks every ordered pair: k(k-1) single-column ODs.
    let checks = 2 * verdicts.len() as u64;

    // Digraph of valid single-column ODs among live columns.
    let adj: Vec<Vec<usize>> = (0..k)
        .map(|i| (0..k).filter(|&j| bits[i * k + j] == ORDERS).collect())
        .collect();

    let sccs = tarjan_scc(&adj);

    // Order classes by their smallest member so output is deterministic.
    let mut classes: Vec<Vec<ColumnId>> = sccs
        .into_iter()
        .map(|comp| {
            let mut cols: Vec<ColumnId> = comp.iter().map(|&i| live[i]).collect();
            cols.sort_unstable();
            cols
        })
        .collect();
    classes.sort_unstable_by_key(|c| c[0]);

    let mut attributes: Vec<ColumnId> = classes.iter().map(|c| c[0]).collect();
    attributes.sort_unstable();

    // One-directional single-column ODs between representatives: keep an
    // edge rep(a) -> rep(b) iff some original edge existed and the reverse
    // class edge does not (otherwise they'd share an SCC).
    let rep_index = |col: ColumnId| -> usize {
        classes
            .iter()
            .position(|c| c.contains(&col))
            .expect("live column is in a class")
    };
    let mut single_ods = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (i, successors) in adj.iter().enumerate() {
        for &j in successors {
            let (ci, cj) = (rep_index(live[i]), rep_index(live[j]));
            if ci != cj && seen.insert((ci, cj)) {
                single_ods.push(Od::new(
                    AttrList::single(classes[ci][0]),
                    AttrList::single(classes[cj][0]),
                ));
            }
        }
    }
    single_ods.sort();

    let equivalence_classes: Vec<Vec<ColumnId>> =
        classes.into_iter().filter(|c| c.len() > 1).collect();

    Reduction {
        attributes,
        constants,
        equivalence_classes,
        single_ods,
        checks,
        pairs: Some(PairVerdicts { slot, k, bits }),
        twinned: false,
    }
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

    #[test]
    fn constants_are_removed() {
        let r = rel(&[("a", &[1, 2, 3]), ("k", &[9, 9, 9]), ("b", &[3, 1, 2])]);
        let red = columns_reduction(&r);
        assert_eq!(red.constants, vec![1]);
        assert_eq!(red.attributes, vec![0, 2]);
    }

    #[test]
    fn order_equivalent_columns_collapse() {
        // b = 2*a, c unrelated.
        let r = rel(&[("a", &[1, 3, 2]), ("b", &[2, 6, 4]), ("c", &[5, 1, 9])]);
        let red = columns_reduction(&r);
        assert_eq!(red.equivalence_classes, vec![vec![0, 1]]);
        assert_eq!(red.attributes, vec![0, 2]);
        assert_eq!(red.representative(1), 0);
        assert_eq!(red.representative(2), 2);
        let eqs = red.equivalences();
        assert_eq!(eqs.len(), 1);
        assert_eq!(eqs[0].to_string(), "[0] <-> [1]");
    }

    #[test]
    fn three_way_equivalence_class() {
        let r = rel(&[
            ("a", &[1, 2, 3, 4]),
            ("b", &[10, 20, 30, 40]),
            ("c", &[-4, -3, -2, -1]),
        ]);
        let red = columns_reduction(&r);
        assert_eq!(red.equivalence_classes, vec![vec![0, 1, 2]]);
        assert_eq!(red.attributes, vec![0]);
        assert_eq!(red.equivalences().len(), 2);
    }

    #[test]
    fn one_directional_od_is_reported_not_collapsed() {
        // a -> b (ties in b where a splits? we need a->b valid, b->a invalid):
        // a: 1,2,3,4  b: 1,1,2,2  => a->b valid (b non-decr along a),
        // b->a invalid (split: b ties, a differs).
        let r = rel(&[("a", &[1, 2, 3, 4]), ("b", &[1, 1, 2, 2])]);
        let red = columns_reduction(&r);
        assert!(red.equivalence_classes.is_empty());
        assert_eq!(red.attributes, vec![0, 1]);
        assert_eq!(red.single_ods.len(), 1);
        assert_eq!(red.single_ods[0].to_string(), "[0] -> [1]");
    }

    #[test]
    fn single_ods_lift_to_representatives() {
        // a <-> b (equivalent), both order c one-directionally.
        let r = rel(&[
            ("a", &[1, 2, 3, 4]),
            ("b", &[5, 6, 7, 8]),
            ("c", &[1, 1, 2, 2]),
        ]);
        let red = columns_reduction(&r);
        assert_eq!(red.equivalence_classes, vec![vec![0, 1]]);
        // Between representatives: [0] -> [2] once (not duplicated via b).
        assert_eq!(
            red.single_ods,
            vec![Od::new(AttrList::single(0), AttrList::single(2))]
        );
    }

    #[test]
    fn checks_counted() {
        let r = rel(&[("a", &[1, 2]), ("b", &[2, 1]), ("c", &[1, 1])]);
        let red = columns_reduction(&r);
        // c constant -> 2 live columns -> 2 directed checks.
        assert_eq!(red.checks, 2);
    }

    #[test]
    fn all_constant_relation_reduces_to_nothing() {
        let r = rel(&[("a", &[1, 1]), ("b", &[2, 2])]);
        let red = columns_reduction(&r);
        assert_eq!(red.attributes, Vec::<usize>::new());
        assert_eq!(red.constants, vec![0, 1]);
    }

    /// Column `c` of a pair-pass test relation over `n` rows. `kind`:
    /// 0 random cells in `0..4`, -1 standing for NULL (ties and NULLs);
    /// 1 and 2 ascending and descending staircases of width `w`; 3 all
    /// distinct values in random order.
    fn shaped_column(kind: u8, w: usize, cells: &[i64], n: usize) -> Vec<Value> {
        (0..n)
            .map(|i| match kind {
                0 if cells[i] < 0 => Value::Null,
                0 => Value::Int(cells[i]),
                1 => Value::Int((i / w) as i64),
                2 => Value::Int(((n - 1 - i) / w) as i64),
                _ => Value::Int(cells[i] * 64 + i as i64),
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The pass's verdicts equal `check_ocd`, `check_od(A, B)`,
        /// `check_od(B, A)` and the FD `A → B` (the OD `[A] → [A, B]`), and
        /// the reduction's table repeats them for every ordered pair of
        /// live columns.
        #[test]
        fn pair_pass_matches_sort_based_checks(
            rows in proptest::prelude::prop::collection::vec(
                proptest::prelude::prop::collection::vec(-1i64..4, 3..=3),
                0..=14,
            ),
            kinds in proptest::prelude::prop::collection::vec(0u8..4, 3..=3),
            widths in proptest::prelude::prop::collection::vec(1usize..=4, 3..=3),
        ) {
            use crate::check::{check_ocd, check_od};
            use proptest::prop_assert_eq;
            let n = rows.len();
            let r = Relation::from_columns(
                (0..3)
                    .map(|c| {
                        let cells: Vec<i64> = rows.iter().map(|row| row[c]).collect();
                        (format!("c{c}"), shaped_column(kinds[c], widths[c], &cells, n))
                    })
                    .collect(),
            )
            .unwrap();
            let red = columns_reduction(&r);
            let table = red.pairs.as_ref().expect("the reduction keeps its verdicts");
            for a in 0..3 {
                for b in 0..3 {
                    if a == b {
                        continue;
                    }
                    let (x, y) = (AttrList::single(a), AttrList::single(b));
                    let ocd = check_ocd(&r, &x, &y).is_valid();
                    let forward = check_od(&r, &x, &y).is_valid();
                    let backward = check_od(&r, &y, &x).is_valid();
                    let fd = check_od(&r, &x, &AttrList::from_slice(&[a, b])).is_valid();
                    let v = pair_pass(&r, a, b);
                    prop_assert_eq!(v.compatible, ocd, "{} ~ {}", a, b);
                    prop_assert_eq!(v.forward(), forward, "{} -> {}", a, b);
                    prop_assert_eq!(v.backward(), backward, "{} -> {}", b, a);
                    prop_assert_eq!(v.determines, fd, "FD {} -> {}", a, b);
                    let live = !r.meta(a).is_constant() && !r.meta(b).is_constant();
                    prop_assert_eq!(table.compatible(a, b), live.then_some(ocd));
                    prop_assert_eq!(table.determines(a, b), live.then_some(fd));
                }
            }
        }
    }

    #[test]
    fn table_answers_only_single_live_columns() {
        let r = rel(&[("a", &[1, 2, 3]), ("k", &[9, 9, 9]), ("b", &[1, 1, 2])]);
        let red = columns_reduction(&r);
        let table = red.pairs.as_ref().unwrap();
        assert_eq!(table.determines(0, 2), Some(true));
        assert_eq!(table.determines(2, 0), Some(false));
        assert_eq!(table.compatible(2, 0), Some(true));
        assert_eq!(table.compatible(0, 1), None, "constant column");
        assert_eq!(table.compatible(0, 5), None, "no such column");
        assert_eq!(table.compatible(2, 2), None, "one column");
    }

    #[test]
    fn tarjan_handles_chain_and_cycle() {
        // 0 -> 1 -> 2 -> 0 forms a cycle; 3 hangs off.
        let adj = vec![vec![1], vec![2], vec![0], vec![0]];
        let mut sccs = tarjan_scc(&adj);
        for c in &mut sccs {
            c.sort_unstable();
        }
        sccs.sort();
        assert!(sccs.contains(&vec![0, 1, 2]));
        assert!(sccs.contains(&vec![3]));
    }

    #[test]
    fn tarjan_deep_graph_no_stack_overflow() {
        // A path of 100_000 nodes would overflow a recursive Tarjan.
        let n = 100_000;
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect();
        let sccs = tarjan_scc(&adj);
        assert_eq!(sccs.len(), n);
    }

    #[test]
    fn tarjan_two_cycles_bridged() {
        // {0,1} and {2,3} cycles, bridge 1 -> 2.
        let adj = vec![vec![1], vec![0, 2], vec![3], vec![2]];
        let mut sccs = tarjan_scc(&adj);
        for c in &mut sccs {
            c.sort_unstable();
        }
        sccs.sort();
        assert_eq!(sccs, vec![vec![0, 1], vec![2, 3]]);
    }
}
