//! Column reduction (§4.1): the `columnsReduction()` preprocessing step.
//!
//! Two operations shrink the attribute universe before the search starts:
//!
//! 1. **Removal of constant columns.** A constant column is ordered by every
//!    attribute list, so it would generate a huge number of trivial ODs.
//! 2. **Reduction of order-equivalent columns.** All `n(n-1)` single-column
//!    OD candidates `A → B` are checked; the valid ones form a digraph whose
//!    strongly connected components (computed with Tarjan's algorithm, as in
//!    the paper) are exactly the order-equivalence classes `A ↔ B ↔ …`.
//!    One representative per class is kept.
//!
//! The dependencies implied by the removed columns (constancy facts,
//! equivalences, and the one-directional single-column ODs among
//! representatives) are part of the algorithm's output and are re-expanded
//! by [`crate::expand`].

use crate::check::check_od;
use crate::deps::{AttrList, Od, OrderEquivalence};
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
    /// Number of OD checks performed by this phase.
    pub checks: u64,
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

/// Tarjan's strongly-connected-components algorithm over a dense digraph.
///
/// `adj[u]` lists the successors of node `u`. Returns the components in
/// reverse topological order; nodes within a component keep discovery
/// order. Public because the bidirectional reduction
/// ([`crate::bidirectional`]) reuses it over the digraph of marked
/// attributes.
pub fn strongly_connected_components(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    tarjan_scc(adj)
}

// lint: allow(panic-reachability, every index is a node id < adj.len() — frames and the Tarjan stack only ever hold ids produced by iterating 0..n)
fn tarjan_scc(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
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

/// Column reduction with the `n(n-1)` single-column OD checks spread over
/// `threads` scoped threads. The checks are independent, so the result is
/// identical to the sequential run (enforced by tests); only wall-clock
/// changes. `discover` picks the thread count from its
/// [`crate::config::ParallelMode`].
// lint: allow(panic-reachability, indices are bounded by construction — i and j range over 0..k with edge sized k*k, every SCC is non-empty, and every live column lands in exactly one equivalence class)
pub fn columns_reduction_with_threads(rel: &Relation, threads: usize) -> Reduction {
    let n = rel.num_columns();
    let mut constants = Vec::new();
    let mut live: Vec<ColumnId> = Vec::new();
    for c in 0..n {
        if rel.meta(c).is_constant() {
            constants.push(c);
        } else {
            live.push(c);
        }
    }

    // Digraph of valid single-column ODs among live columns.
    let k = live.len();
    let pairs: Vec<(usize, usize)> = (0..k)
        .flat_map(|i| (0..k).filter(move |&j| j != i).map(move |j| (i, j)))
        .collect();
    // Total by construction: pairs only ever hold indexes < live.len(), and
    // `get`-based access keeps the closure panic-free either way.
    let check_pair = |i: usize, j: usize| -> bool {
        match (live.get(i), live.get(j)) {
            (Some(&a), Some(&b)) => {
                check_od(rel, &AttrList::single(a), &AttrList::single(b)).is_valid()
            }
            _ => false,
        }
    };
    let results = crate::runtime::par_map(&pairs, threads, |&(i, j)| check_pair(i, j));
    let checks = pairs.len() as u64;
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut edge = vec![false; k * k];
    for (&(i, j), &valid) in pairs.iter().zip(&results) {
        if valid {
            adj[i].push(j);
            edge[i * k + j] = true;
        }
    }

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
    for i in 0..k {
        for j in 0..k {
            if edge[i * k + j] {
                let (ci, cj) = (rep_index(live[i]), rep_index(live[j]));
                if ci != cj && seen.insert((ci, cj)) {
                    single_ods.push(Od::new(
                        AttrList::single(classes[ci][0]),
                        AttrList::single(classes[cj][0]),
                    ));
                }
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
