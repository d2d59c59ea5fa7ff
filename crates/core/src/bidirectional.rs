//! Bidirectional ("polarized") order dependencies — the generalization the
//! paper's related work points to (§6, citing Szlichta et al.): each
//! attribute in a list carries its own sort direction, as in
//! `ORDER BY price ASC, discount DESC`.
//!
//! Everything from the unidirectional theory lifts: the lexicographic
//! operator `⪯` is still a total preorder when each marked attribute
//! compares through its own direction, so the single-check reduction of
//! Theorem 4.1 (`X ~ Y ⟺ XY → YX`) and the split/swap taxonomy carry
//! over verbatim. In fact `A↓` is exactly a column whose codes are
//! `max − c`, with NULL sorting last as [`cmp_rows_marked`] orders it, so
//! bidirectional discovery *is* unidirectional discovery over the relation
//! in which every column `c` is followed by its descending twin
//! ([`Relation::with_descending_twins`]: id `2c` is `c↑`, id `2c + 1` is
//! `c↓`, and id order is [`Mark`] order). [`discover_bidirectional`] runs
//! the column reduction and the search driver over those twins, so it
//! shares their workers, checker backends, per-branch budgets, quarantine
//! and fault hooks. Two rules of the driver serve the twins:
//!
//! * **global polarity symmetry** — flipping every direction in both lists
//!   preserves validity (`p ⪯ q` becomes `q ⪯ p` on both sides), so the
//!   level-2 seeds start with an ascending mark, and the reduction keeps
//!   only the one of each mirrored pair of classes whose first mark is
//!   ascending;
//! * **one polarity per column** — a candidate never holds a column next
//!   to its own twin.
//!
//! **Reverse equivalence** then falls out of the reduction: a column can be
//! order equivalent to the *descending* version of another (`A ↔ B↓`, e.g.
//! `rank` vs `score`), and the two twins land in one class.

use crate::check::CheckOutcome;
use crate::config::DiscoveryConfig;
use crate::deps::AttrList;
use crate::reduction::columns_reduction_with_threads;
use crate::runtime::{Budget, TerminationReason};
use crate::search::{run_levels, shared_cache, worker_count, LevelCursor, SearchAccumulator};
use ocdd_relation::{row_ids, ColumnId, Relation};
use std::cmp::Ordering;
use std::fmt;

/// Sort direction of one attribute inside a marked list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Ascending (the unidirectional default).
    Asc,
    /// Descending.
    Desc,
}

impl Direction {
    /// The opposite direction.
    pub fn flipped(self) -> Direction {
        match self {
            Direction::Asc => Direction::Desc,
            Direction::Desc => Direction::Asc,
        }
    }
}

/// One marked attribute `A↑` / `A↓`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mark {
    /// The column.
    pub column: ColumnId,
    /// Its sort direction.
    pub direction: Direction,
}

impl Mark {
    /// Ascending mark.
    pub fn asc(column: ColumnId) -> Mark {
        Mark {
            column,
            direction: Direction::Asc,
        }
    }

    /// Descending mark.
    pub fn desc(column: ColumnId) -> Mark {
        Mark {
            column,
            direction: Direction::Desc,
        }
    }

    /// The same column with the opposite direction.
    pub fn flipped(self) -> Mark {
        Mark {
            column: self.column,
            direction: self.direction.flipped(),
        }
    }
}

impl fmt::Display for Mark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let arrow = match self.direction {
            Direction::Asc => "+",
            Direction::Desc => "-",
        };
        write!(f, "{}{arrow}", self.column)
    }
}

/// A list of marked attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MarkedList(Vec<Mark>);

impl MarkedList {
    /// Single-mark list.
    pub fn single(mark: Mark) -> MarkedList {
        MarkedList(vec![mark])
    }

    /// Build from marks.
    pub fn from_marks(marks: Vec<Mark>) -> MarkedList {
        MarkedList(marks)
    }

    /// The marks in list order.
    pub fn as_slice(&self) -> &[Mark] {
        &self.0
    }

    /// List length.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty list.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether the *column* (either polarity) occurs in the list.
    pub fn contains_column(&self, col: ColumnId) -> bool {
        self.0.iter().any(|m| m.column == col)
    }

    /// Concatenation.
    pub fn concat(&self, other: &MarkedList) -> MarkedList {
        let mut v = self.0.clone();
        v.extend_from_slice(&other.0);
        MarkedList(v)
    }

    /// Append one mark.
    pub fn with_appended(&self, mark: Mark) -> MarkedList {
        let mut v = self.0.clone();
        v.push(mark);
        MarkedList(v)
    }

    /// Flip every direction (the global polarity symmetry).
    pub fn flipped(&self) -> MarkedList {
        MarkedList(self.0.iter().map(|m| m.flipped()).collect())
    }
}

impl fmt::Display for MarkedList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "]")
    }
}

/// A bidirectional OCD `X ~ Y` between marked lists.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BidiOcd {
    /// One side.
    pub lhs: MarkedList,
    /// The other side.
    pub rhs: MarkedList,
}

impl fmt::Display for BidiOcd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ~ {}", self.lhs, self.rhs)
    }
}

/// A bidirectional OD `X → Y` between marked lists.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BidiOd {
    /// Left-hand side.
    pub lhs: MarkedList,
    /// Right-hand side.
    pub rhs: MarkedList,
}

impl fmt::Display for BidiOd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.lhs, self.rhs)
    }
}

/// Compare rows `a`, `b` on a marked list (direction-aware lexicographic).
#[inline]
pub fn cmp_rows_marked(rel: &Relation, list: &MarkedList, a: usize, b: usize) -> Ordering {
    for m in list.as_slice() {
        let ca = rel.code(a, m.column);
        let cb = rel.code(b, m.column);
        let ord = match m.direction {
            Direction::Asc => ca.cmp(&cb),
            Direction::Desc => cb.cmp(&ca),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Check the bidirectional OD `lhs → rhs` by index sort + adjacent scan
/// (the direction-aware analogue of [`crate::check::check_od`]).
pub fn check_bidi_od(rel: &Relation, lhs: &MarkedList, rhs: &MarkedList) -> CheckOutcome {
    let mut index: Vec<u32> = row_ids(rel.num_rows()).collect();
    index.sort_by(|&a, &b| cmp_rows_marked(rel, lhs, a as usize, b as usize));
    for w in index.windows(2) {
        let (p, q) = (w[0] as usize, w[1] as usize);
        match cmp_rows_marked(rel, rhs, p, q) {
            Ordering::Less => {
                if cmp_rows_marked(rel, lhs, p, q) == Ordering::Equal {
                    return CheckOutcome::Split {
                        row_a: w[0],
                        row_b: w[1],
                    };
                }
            }
            Ordering::Greater => {
                return if cmp_rows_marked(rel, lhs, p, q) == Ordering::Equal {
                    CheckOutcome::Split {
                        row_a: w[0],
                        row_b: w[1],
                    }
                } else {
                    CheckOutcome::Swap {
                        row_a: w[0],
                        row_b: w[1],
                    }
                };
            }
            Ordering::Equal => {}
        }
    }
    CheckOutcome::Valid
}

/// Output of a bidirectional discovery run.
#[derive(Debug, Clone, Default)]
pub struct BidiResult {
    /// Minimal bidirectional OCDs (canonical polarity: first mark Asc).
    pub ocds: Vec<BidiOcd>,
    /// Bidirectional ODs between disjoint marked lists.
    pub ods: Vec<BidiOd>,
    /// Constant columns (direction-independent).
    pub constants: Vec<ColumnId>,
    /// Marked-attribute equivalence classes (representative first). A class
    /// may mix polarities: `[A↑, B↓]` means `A ↔ B↓`.
    pub equivalence_classes: Vec<Vec<Mark>>,
    /// Candidate checks performed.
    pub checks: u64,
    /// Why the run stopped; anything but
    /// [`TerminationReason::Complete`] means partial results. A
    /// [`TerminationReason::WorkerFailure`] names each quarantined branch
    /// by its column pair `(a, b)`, sorted and deduplicated.
    pub termination: TerminationReason,
}

impl BidiResult {
    /// True when the search explored the whole candidate tree.
    pub fn complete(&self) -> bool {
        self.termination.is_complete()
    }
}

/// The mark of twin column `id` (see [`Relation::with_descending_twins`]).
fn mark_of(id: ColumnId) -> Mark {
    Mark {
        column: id / 2,
        direction: if id.is_multiple_of(2) {
            Direction::Asc
        } else {
            Direction::Desc
        },
    }
}

fn marks_of(list: &AttrList) -> MarkedList {
    MarkedList(list.as_slice().iter().map(|&id| mark_of(id)).collect())
}

/// Canonical order: shorter dependencies first (the BFS guarantee), then
/// lexicographic.
fn by_length<'a>(
    lhs: &'a MarkedList,
    rhs: &'a MarkedList,
) -> (usize, &'a MarkedList, &'a MarkedList) {
    (lhs.len() + rhs.len(), lhs, rhs)
}

/// Discover bidirectional OCDs/ODs: the column reduction and the search
/// driver of [`crate::discover`] over the descending twins of `rel` (see
/// the module doc). Extensions try both polarities of each unused column,
/// so each level multiplies by `2×` per appended attribute — the
/// documented cost of the generalization.
///
/// `config` applies as to [`crate::discover`], except that the column
/// reduction always runs and checkpoints are not written: a dump would
/// name twin columns that no resume could validate.
pub fn discover_bidirectional(rel: &Relation, config: &DiscoveryConfig) -> BidiResult {
    let start = crate::runtime::now();
    let twins = rel.with_descending_twins();
    let mut reduction = columns_reduction_with_threads(&twins, worker_count(config.mode));
    reduction.twinned = true;
    let mut constants: Vec<ColumnId> = reduction.constants.iter().map(|&id| id / 2).collect();
    constants.dedup();
    // Every class comes with its mirror; keep the one with an ascending
    // first mark.
    let equivalence_classes = reduction
        .equivalence_classes
        .iter()
        .filter(|class| class[0].is_multiple_of(2))
        .map(|class| class.iter().map(|&id| mark_of(id)).collect())
        .collect();
    // One check per ascending column, other column and direction over the
    // `k` non-constant columns — the flipped sources follow by symmetry.
    let k = rel.schema().filter(|meta| !meta.is_constant()).count() as u64;
    reduction.checks = 2 * k * k.saturating_sub(1);

    let budget = Budget::new(config, start, reduction.checks);
    let mut acc = SearchAccumulator::default();
    let mut failures = Vec::new();
    run_levels(
        &twins,
        &reduction,
        LevelCursor::seeds(&reduction, config),
        config,
        &budget,
        &shared_cache(config),
        &mut acc,
        &mut failures,
        None,
        None,
    );
    let termination = match acc.settle(&failures, &budget) {
        TerminationReason::WorkerFailure { branches, message } => {
            let mut branches: Vec<(ColumnId, ColumnId)> =
                branches.iter().map(|&(a, b)| (a / 2, b / 2)).collect();
            branches.sort_unstable();
            branches.dedup();
            TerminationReason::WorkerFailure { branches, message }
        }
        other => other,
    };

    let mut ocds: Vec<BidiOcd> = acc
        .ocds
        .iter()
        .map(|o| BidiOcd {
            lhs: marks_of(&o.lhs),
            rhs: marks_of(&o.rhs),
        })
        .collect();
    ocds.sort_by(|a, b| by_length(&a.lhs, &a.rhs).cmp(&by_length(&b.lhs, &b.rhs)));
    ocds.dedup();
    let mut ods: Vec<BidiOd> = acc
        .ods
        .iter()
        .map(|o| BidiOd {
            lhs: marks_of(&o.lhs),
            rhs: marks_of(&o.rhs),
        })
        .collect();
    ods.sort_by(|a, b| by_length(&a.lhs, &a.rhs).cmp(&by_length(&b.lhs, &b.rhs)));
    ods.dedup();
    BidiResult {
        ocds,
        ods,
        constants,
        equivalence_classes,
        checks: budget.checks(),
        termination,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocdd_relation::Value;

    fn rel(cols: &[(&str, &[i64])]) -> Relation {
        Relation::from_columns(
            cols.iter()
                .map(|(n, vals)| (n.to_string(), vals.iter().map(|&v| Value::Int(v)).collect()))
                .collect(),
        )
        .unwrap()
    }

    /// Check the bidirectional OCD `x ~ y` via the single check `XY → YX`
    /// (Theorem 4.1 lifts: the proof only needs `⪯` to be total per list).
    fn check_bidi_ocd(rel: &Relation, x: &MarkedList, y: &MarkedList) -> CheckOutcome {
        check_bidi_od(rel, &x.concat(y), &y.concat(x))
    }

    /// The comparator oracle's column reduction: Tarjan SCC over the
    /// digraph of the `2k` marked attributes of the live columns, each
    /// edge decided by [`check_bidi_od`] (only ascending sources need
    /// checking — the flipped edges follow from the polarity symmetry).
    fn oracle_reduction(
        rel: &Relation,
        checks: &mut u64,
    ) -> (Vec<ColumnId>, Vec<ColumnId>, Vec<Vec<Mark>>) {
        let n = rel.num_columns();
        let constants: Vec<ColumnId> = (0..n).filter(|&c| rel.meta(c).is_constant()).collect();
        let live: Vec<ColumnId> = (0..n).filter(|&c| !rel.meta(c).is_constant()).collect();
        // Node ids: 2*i (asc), 2*i + 1 (desc) over live columns.
        let k = live.len();
        let node = |i: usize, d: Direction| 2 * i + usize::from(d == Direction::Desc);
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); 2 * k];
        for i in 0..k {
            for j in (0..k).filter(|&j| j != i) {
                for dir in [Direction::Asc, Direction::Desc] {
                    *checks += 1;
                    let target = Mark {
                        column: live[j],
                        direction: dir,
                    };
                    let lhs = MarkedList::single(Mark::asc(live[i]));
                    if check_bidi_od(rel, &lhs, &MarkedList::single(target)).is_valid() {
                        // A↑ → B^d, and by symmetry A↓ → B^(flip d).
                        adj[node(i, Direction::Asc)].push(node(j, dir));
                        adj[node(i, Direction::Desc)].push(node(j, dir.flipped()));
                    }
                }
            }
        }
        // A component and its mirror (all marks flipped) are the same
        // fact — keep the one whose smallest member is ascending.
        let mut sccs: Vec<Vec<Mark>> = crate::reduction::tarjan_scc(&adj)
            .into_iter()
            .map(|comp| {
                let mut marks: Vec<Mark> = comp
                    .into_iter()
                    .map(|nd| Mark {
                        column: live[nd / 2],
                        direction: if nd % 2 == 0 {
                            Direction::Asc
                        } else {
                            Direction::Desc
                        },
                    })
                    .collect();
                marks.sort();
                marks
            })
            .collect();
        sccs.sort();
        let mut kept = Vec::new();
        let mut classes = Vec::new();
        for marks in sccs
            .into_iter()
            .filter(|m| m[0].direction == Direction::Asc)
        {
            kept.push(marks[0].column);
            if marks.len() > 1 {
                classes.push(marks);
            }
        }
        kept.sort_unstable();
        (kept, constants, classes)
    }

    /// The comparator oracle: the breadth-first search over marked
    /// candidates that bidirectional discovery ran on its own before it
    /// moved onto the search driver, without its budget handling. Seeds
    /// `(Ai↑, Aj↑)` and `(Ai↑, Aj↓)` for `i < j`; each valid OCD extends
    /// a failing OD direction with both polarities of every unused column.
    fn oracle(rel: &Relation) -> BidiResult {
        let mut checks = 0u64;
        let (universe, constants, equivalence_classes) = oracle_reduction(rel, &mut checks);
        let (mut ocds, mut ods) = (Vec::new(), Vec::new());
        let mut level: Vec<(MarkedList, MarkedList)> = Vec::new();
        for (i, &a) in universe.iter().enumerate() {
            for &b in &universe[i + 1..] {
                level.push((
                    MarkedList::single(Mark::asc(a)),
                    MarkedList::single(Mark::asc(b)),
                ));
                level.push((
                    MarkedList::single(Mark::asc(a)),
                    MarkedList::single(Mark::desc(b)),
                ));
            }
        }
        while !level.is_empty() {
            let mut next: Vec<(MarkedList, MarkedList)> = Vec::new();
            for (x, y) in &level {
                checks += 1;
                if !check_bidi_ocd(rel, x, y).is_valid() {
                    continue;
                }
                ocds.push(BidiOcd {
                    lhs: x.clone(),
                    rhs: y.clone(),
                });
                let unused: Vec<ColumnId> = universe
                    .iter()
                    .copied()
                    .filter(|&a| !x.contains_column(a) && !y.contains_column(a))
                    .collect();
                for (lhs, rhs, forward) in [(x, y, true), (y, x, false)] {
                    checks += 1;
                    if check_bidi_od(rel, lhs, rhs).is_valid() {
                        ods.push(BidiOd {
                            lhs: lhs.clone(),
                            rhs: rhs.clone(),
                        });
                        continue;
                    }
                    for &a in &unused {
                        for mark in [Mark::asc(a), Mark::desc(a)] {
                            next.push(if forward {
                                (x.with_appended(mark), y.clone())
                            } else {
                                (x.clone(), y.with_appended(mark))
                            });
                        }
                    }
                }
            }
            let mut seen = std::collections::HashSet::with_capacity(next.len());
            next.retain(|c| seen.insert(c.clone()));
            level = next;
        }
        ocds.sort_by(|a, b| by_length(&a.lhs, &a.rhs).cmp(&by_length(&b.lhs, &b.rhs)));
        ods.sort_by(|a, b| by_length(&a.lhs, &a.rhs).cmp(&by_length(&b.lhs, &b.rhs)));
        BidiResult {
            ocds,
            ods,
            constants,
            equivalence_classes,
            checks,
            termination: TerminationReason::Complete,
        }
    }

    /// A test relation over `rows.len()` rows; column `c` has shape
    /// `kinds[c]`: 0 random cells in `0..4`, with -1 standing for NULL;
    /// 1 and 2 ascending and descending staircases of width `widths[c]`;
    /// 3 the negation of column 0 (NULL stays NULL); 4 a column order
    /// equivalent to column 0; 5 a constant. Column 0 takes shapes 3 and
    /// 4 as random cells.
    fn shaped(rows: &[Vec<i64>], kinds: &[u8], widths: &[usize]) -> Relation {
        let n = rows.len();
        let mut cols: Vec<Vec<Option<i64>>> = Vec::new();
        for (c, (&kind, &w)) in kinds.iter().zip(widths).enumerate() {
            let col = match (kind, cols.first()) {
                (1, _) => (0..n).map(|i| Some((i / w) as i64)).collect(),
                (2, _) => (0..n).map(|i| Some(((n - 1 - i) / w) as i64)).collect(),
                (3, Some(src)) => src.iter().map(|v| v.map(|x| -x)).collect(),
                (4, Some(src)) => src.iter().map(|v| v.map(|x| 3 * x + 1)).collect(),
                (5, _) => vec![Some(7); n],
                _ => rows
                    .iter()
                    .map(|row| (row[c] >= 0).then_some(row[c]))
                    .collect(),
            };
            cols.push(col);
        }
        Relation::from_columns(
            cols.into_iter()
                .enumerate()
                .map(|(c, col)| {
                    let cells = col.into_iter().map(|v| v.map_or(Value::Null, Value::Int));
                    (format!("c{c}"), cells.collect())
                })
                .collect(),
        )
        .unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The driver over descending twins against the comparator oracle,
        /// across checker backends, worker counts and shared-cache
        /// settings: the same dependencies, reduction facts, checks and
        /// termination on 1–5-column relations with NULLs and reversed,
        /// equivalent, constant and staircase columns.
        #[test]
        fn driver_over_twins_matches_comparator_oracle(
            rows in proptest::prelude::prop::collection::vec(
                proptest::prelude::prop::collection::vec(-1i64..4, 5..=5),
                0..=14,
            ),
            kinds in proptest::prelude::prop::collection::vec(0u8..6, 1..=5),
            widths in proptest::prelude::prop::collection::vec(1usize..=4, 5..=5),
        ) {
            use crate::config::{CheckerBackend, ParallelMode};
            use proptest::prop_assert_eq;
            let r = shaped(&rows, &kinds, &widths);
            let want = oracle(&r);
            for checker in [CheckerBackend::Resort, CheckerBackend::SortedPartitions] {
                for mode in [ParallelMode::Sequential, ParallelMode::WorkStealing(3)] {
                    for shared_cache in [false, true] {
                        let config = DiscoveryConfig {
                            checker,
                            mode,
                            shared_cache,
                            ..DiscoveryConfig::default()
                        };
                        let got = discover_bidirectional(&r, &config);
                        let tag = format!("{checker:?}/{mode:?}/shared={shared_cache}");
                        prop_assert_eq!(&got.ocds, &want.ocds, "{}: ocds", tag);
                        prop_assert_eq!(&got.ods, &want.ods, "{}: ods", tag);
                        prop_assert_eq!(&got.constants, &want.constants, "{}", tag);
                        prop_assert_eq!(
                            &got.equivalence_classes,
                            &want.equivalence_classes,
                            "{}: classes", tag
                        );
                        prop_assert_eq!(got.checks, want.checks, "{}: checks", tag);
                        prop_assert_eq!(&got.termination, &want.termination, "{}", tag);
                    }
                }
            }
        }
    }

    #[test]
    fn descending_od_detected() {
        // b is strictly decreasing in a: a↑ -> b↓ holds, a↑ -> b↑ fails.
        let r = rel(&[("a", &[1, 2, 3, 4]), ("b", &[9, 7, 5, 2])]);
        let a_up = MarkedList::single(Mark::asc(0));
        let b_up = MarkedList::single(Mark::asc(1));
        let b_down = MarkedList::single(Mark::desc(1));
        assert!(check_bidi_od(&r, &a_up, &b_down).is_valid());
        assert!(!check_bidi_od(&r, &a_up, &b_up).is_valid());
    }

    #[test]
    fn global_polarity_flip_preserves_validity() {
        let r = rel(&[("a", &[1, 2, 2, 4]), ("b", &[8, 5, 5, 1])]);
        let x = MarkedList::single(Mark::asc(0));
        let y = MarkedList::single(Mark::desc(1));
        let valid = check_bidi_od(&r, &x, &y).is_valid();
        let flipped = check_bidi_od(&r, &x.flipped(), &y.flipped()).is_valid();
        assert_eq!(valid, flipped);
    }

    #[test]
    fn theorem_4_1_lifts_to_marked_lists() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let vals = |rng: &mut StdRng| -> Vec<i64> {
                (0..10).map(|_| rng.random_range(0..4)).collect()
            };
            let (va, vb) = (vals(&mut rng), vals(&mut rng));
            let r = rel(&[("a", &va), ("b", &vb)]);
            for dir in [Direction::Asc, Direction::Desc] {
                let x = MarkedList::single(Mark::asc(0));
                let y = MarkedList::single(Mark {
                    column: 1,
                    direction: dir,
                });
                let xy = x.concat(&y);
                let yx = y.concat(&x);
                assert_eq!(
                    check_bidi_od(&r, &xy, &yx).is_valid(),
                    check_bidi_od(&r, &yx, &xy).is_valid(),
                    "seed {seed} dir {dir:?}"
                );
            }
        }
    }

    #[test]
    fn reverse_equivalence_collapses_in_reduction() {
        // b = -a: a↑ <-> b↓.
        let r = rel(&[
            ("a", &[3, 1, 4, 2]),
            ("b", &[-3, -1, -4, -2]),
            ("c", &[1, 2, 2, 1]),
        ]);
        let result = discover_bidirectional(&r, &DiscoveryConfig::default());
        assert_eq!(result.equivalence_classes.len(), 1);
        let class = &result.equivalence_classes[0];
        assert!(class.contains(&Mark::asc(0)));
        assert!(class.contains(&Mark::desc(1)));
    }

    #[test]
    fn mixed_polarity_ocd_found() {
        // a and b trend oppositely with independent ties: a↑ ~ b↓ but no OD.
        // Backbone: a non-decreasing, b non-increasing.
        let r = rel(&[("a", &[1, 1, 2, 2, 3, 3]), ("b", &[9, 8, 8, 5, 5, 5])]);
        let result = discover_bidirectional(&r, &DiscoveryConfig::default());
        let found = result.ocds.iter().any(|o| {
            o.lhs == MarkedList::single(Mark::asc(0)) && o.rhs == MarkedList::single(Mark::desc(1))
        });
        assert!(found, "a+ ~ b- expected, got {:?}", result.ocds);
        // The ascending pairing must NOT appear.
        let asc_pair = result.ocds.iter().any(|o| {
            o.lhs == MarkedList::single(Mark::asc(0)) && o.rhs == MarkedList::single(Mark::asc(1))
        });
        assert!(!asc_pair);
    }

    #[test]
    fn unidirectional_results_are_a_special_case() {
        use crate::{discover, DiscoveryConfig};
        // On data with only ascending structure, the bidirectional search
        // must find every unidirectional OCD (as all-Asc marked lists).
        let r = rel(&[
            ("a", &[1, 1, 2, 2, 3]),
            ("b", &[1, 2, 2, 3, 3]),
            ("c", &[5, 3, 1, 4, 2]),
        ]);
        let uni = discover(&r, &DiscoveryConfig::default());
        let bidi = discover_bidirectional(&r, &DiscoveryConfig::default());
        for ocd in &uni.ocds {
            let lhs =
                MarkedList::from_marks(ocd.lhs.as_slice().iter().map(|&c| Mark::asc(c)).collect());
            let rhs =
                MarkedList::from_marks(ocd.rhs.as_slice().iter().map(|&c| Mark::asc(c)).collect());
            assert!(
                bidi.ocds
                    .iter()
                    .any(|o| (o.lhs == lhs && o.rhs == rhs) || (o.lhs == rhs && o.rhs == lhs)),
                "missing all-asc {ocd}"
            );
        }
    }

    #[test]
    fn budget_respected() {
        let r = rel(&[
            ("a", &[1, 2, 3, 4, 5, 6]),
            ("b", &[2, 1, 4, 3, 6, 5]),
            ("c", &[6, 5, 4, 3, 2, 1]),
            ("d", &[1, 3, 2, 5, 4, 6]),
        ]);
        let result = discover_bidirectional(
            &r,
            &DiscoveryConfig {
                max_checks: Some(10),
                ..DiscoveryConfig::default()
            },
        );
        assert!(!result.complete());
        assert_eq!(result.termination, TerminationReason::CheckBudget);
    }

    /// Staircases of widths 2–5 over 24 rows, the last one descending:
    /// every pair is an OCD in one polarity but no OD, so the lattice is
    /// deep in every branch.
    fn staircases() -> Relation {
        let stairs: Vec<Vec<i64>> = (2..6)
            .map(|w| {
                (0..24)
                    .map(|i| if w == 5 { (23 - i) / w } else { i / w })
                    .collect()
            })
            .collect();
        let cols: Vec<(&str, &[i64])> = ["a", "b", "c", "d"]
            .into_iter()
            .zip(stairs.iter().map(Vec::as_slice))
            .collect();
        rel(&cols)
    }

    #[test]
    fn check_budget_cut_agrees_across_worker_counts() {
        use crate::config::ParallelMode;
        let r = staircases();
        let full = discover_bidirectional(&r, &DiscoveryConfig::default());
        assert!(full.complete());
        // The reduction's 24 checks, then half of the search's.
        let cap = 24 + (full.checks - 24) / 2;
        let run = |mode| {
            let config = DiscoveryConfig {
                mode,
                max_checks: Some(cap),
                ..DiscoveryConfig::default()
            };
            discover_bidirectional(&r, &config)
        };
        let seq = run(ParallelMode::Sequential);
        assert_eq!(seq.termination, TerminationReason::CheckBudget);
        assert!(seq.ocds.len() < full.ocds.len());
        for workers in [2, 4] {
            let ws = run(ParallelMode::WorkStealing(workers));
            assert_eq!(seq.ocds, ws.ocds, "ws({workers})");
            assert_eq!(seq.ods, ws.ods, "ws({workers})");
            assert_eq!(seq.checks, ws.checks, "ws({workers})");
            assert_eq!(seq.termination, ws.termination, "ws({workers})");
        }
    }

    #[test]
    fn branch_panic_quarantines_only_that_branch() {
        use crate::config::ParallelMode;
        use crate::runtime::FaultPlan;
        use std::sync::Arc;
        let r = staircases();
        let clean = discover_bidirectional(&r, &DiscoveryConfig::default());
        // Branches are named by twin ids: column `c` ascending is `2c`,
        // descending `2c + 1`.
        let twin = |m: Mark| 2 * m.column + usize::from(m.direction == Direction::Desc);
        let first = |l: &MarkedList| l.as_slice()[0];
        let root = &clean.ocds.last().expect("the staircases have OCDs");
        let (a, b) = (first(&root.lhs), first(&root.rhs));
        let in_branch = |x: &MarkedList, y: &MarkedList| {
            let (p, q) = (first(x), first(y));
            (p, q) == (a, b) || (q, p) == (a, b)
        };
        for mode in [ParallelMode::Sequential, ParallelMode::WorkStealing(2)] {
            let mut plan = FaultPlan::default();
            plan.panic_on_branch = Some((twin(a), twin(b)));
            let config = DiscoveryConfig {
                mode,
                fault: Some(Arc::new(plan)),
                ..DiscoveryConfig::default()
            };
            let faulty = discover_bidirectional(&r, &config);
            match &faulty.termination {
                TerminationReason::WorkerFailure { branches, message } => {
                    assert_eq!(branches, &[(a.column, b.column)], "{mode:?}");
                    assert!(message.contains("injected panic"), "{mode:?}: {message}");
                }
                other => panic!("{mode:?}: expected WorkerFailure, got {other:?}"),
            }
            let ocds: Vec<&BidiOcd> = clean
                .ocds
                .iter()
                .filter(|o| !in_branch(&o.lhs, &o.rhs))
                .collect();
            let ods: Vec<&BidiOd> = clean
                .ods
                .iter()
                .filter(|o| !in_branch(&o.lhs, &o.rhs))
                .collect();
            assert!(
                ocds.len() < clean.ocds.len(),
                "{mode:?}: the branch held OCDs"
            );
            assert_eq!(faulty.ocds.iter().collect::<Vec<_>>(), ocds, "{mode:?}");
            assert_eq!(faulty.ods.iter().collect::<Vec<_>>(), ods, "{mode:?}");
        }
    }

    #[test]
    fn cancelled_before_start_returns_immediately() {
        use crate::runtime::RunController;
        let r = rel(&[
            ("a", &[1, 2, 3, 4, 5, 6]),
            ("b", &[2, 1, 4, 3, 6, 5]),
            ("c", &[6, 5, 4, 3, 2, 1]),
            ("d", &[1, 3, 2, 5, 4, 6]),
        ]);
        let controller = RunController::new();
        controller.cancel();
        let result = discover_bidirectional(
            &r,
            &DiscoveryConfig {
                controller: Some(controller),
                ..DiscoveryConfig::default()
            },
        );
        assert_eq!(result.termination, TerminationReason::Cancelled);
        assert!(result.ocds.is_empty(), "no candidate was processed");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Mark::asc(3).to_string(), "3+");
        assert_eq!(Mark::desc(1).to_string(), "1-");
        let list = MarkedList::from_marks(vec![Mark::asc(0), Mark::desc(2)]);
        assert_eq!(list.to_string(), "[0+,2-]");
        let ocd = BidiOcd {
            lhs: list.clone(),
            rhs: MarkedList::single(Mark::asc(1)),
        };
        assert_eq!(ocd.to_string(), "[0+,2-] ~ [1+]");
    }
}
