//! Canonical candidate checking — the linear-row-scaling method the paper
//! points at but leaves out of scope (§5.3.1: *"Previous work … performs
//! the check of dependency candidates with sorted partitions computed from
//! the data. This method could have been re-implemented in our approach as
//! well"*), in the set-based form of Szlichta et al. (arXiv 1608.06169).
//!
//! Every list-based check maps onto set-based canonical facts:
//!
//! * `X ~ Y` holds iff the order compatibility (OC) fact
//!   `{X1..Xi−1, Y1..Yj−1}: Xi ~ Yj` holds for every `i ≤ |X|` and
//!   `j ≤ |Y|`. A swap of `X ~ Y` is a row pair that first differs on `X`
//!   at `Xi` and on `Y` at `Yj`, in opposite directions: exactly a swap of
//!   that fact, whose rows agree on the context `X<i ∪ Y<j`.
//! * `X → Y` holds iff, in addition, the FD `set(X) → Yj` holds for every
//!   `j`: with no swap left, only a split can break the OD.
//!
//! A [`PartitionChecker`] answers [`PartitionChecker::check_ocd`] as the
//! conjunction of the `|X|·|Y|` OC facts, and
//! [`PartitionChecker::check_od_after_ocd`] as the FD facts. Permutations
//! of one attribute set share facts, and a child `XA ~ Y` of a valid
//! `X ~ Y` adds only `|Y|` new ones, so every verdict is memoized per
//! checker, keyed by the sorted context set and the attribute pair
//! (unordered for an OC fact, which is symmetric). A missed fact costs one
//! `O(m)` walk with no sort:
//!
//! * **OC `{C}: A ~ B`** — visit the rows in `A`'s rank order, one group
//!   of equal `A` per step. The relation keeps that order
//!   ([`Relation::rank_order`]), so every worker of a run reads the one
//!   sorted on its first use. A row whose `B` code lies below the running
//!   maximum of its context class swaps with an earlier row. The group
//!   raises the maxima only after all its rows are checked, since rows
//!   with equal `A` cannot swap.
//! * **FD `{C} → B`** — every context class is constant on `B`.
//!
//! A context partition ([`ContextPartition`]) is a stripped set partition,
//! one class id per row, built by refining the largest cached subset with
//! two stable counting scatters. The partitions are memoized per checker
//! or, with [`PartitionChecker::with_epoch`], published through the
//! run-wide [`EpochPrefixCache`], keyed by the sorted attribute set. When
//! the search hands over the column reduction's pair verdicts, they answer
//! the OC facts with an empty context and the FD facts with a
//! one-attribute context.

use crate::deps::AttrList;
use crate::reduction::PairVerdicts;
use crate::shared_cache::{CacheWeight, EpochPrefixCache, EpochTier};
use ocdd_relation::sort::RankOrder;
use ocdd_relation::{ColumnId, Relation};
use std::collections::HashMap;
use std::sync::Arc;

/// Class id of a row that shares its context values with no other row.
const SINGLETON: u32 = u32::MAX;

/// Id of the empty context set, interned first by every checker.
const EMPTY: usize = 0;

/// A stripped set partition of the rows by an attribute set: the class id
/// of every row, `u32::MAX` for a row alone in its class. The ids of the
/// classes with two or more rows are dense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextPartition {
    class_of: Vec<u32>,
    classes: usize,
}

impl ContextPartition {
    /// The partition of the empty set: one class holding every row, or no
    /// class when fewer than two rows exist.
    ///
    /// Row and class ids are stored as `u32`, so the relation may hold at
    /// most `u32::MAX` rows. Every partition is refined from this one, so
    /// the bound is enforced here once and inherited by every refinement.
    fn unit(num_rows: usize) -> ContextPartition {
        assert!(
            num_rows <= u32::MAX as usize,
            "row ids are u32: {num_rows} rows exceed the supported maximum"
        );
        let (id, classes) = if num_rows >= 2 {
            (0, 1)
        } else {
            (SINGLETON, 0)
        };
        ContextPartition {
            class_of: vec![id; num_rows],
            classes,
        }
    }

    /// Refine by one more column: the partition of `C ∪ {col}` when `self`
    /// is the partition of `C`. The rows of the non-singleton classes are
    /// lined up class by class, code by code, with two stable counting
    /// scatters (by the new code, then by the old class id), and each run
    /// of two or more rows becomes a class. The cost is `O(m + d + c)` for
    /// `m` rows in non-singleton classes, `d` codes and `c` classes.
    // lint: allow(panic-reachability, codes are dense ranks below distinct and class ids below classes, so every counting table and scatter target is sized by its histogram pass; row ids index class_of and codes, both num_rows long)
    fn refined(&self, rel: &Relation, col: ColumnId) -> ContextPartition {
        let codes = rel.codes(col);
        let mut class_of = vec![SINGLETON; self.class_of.len()];
        let rows: Vec<u32> = (0u32..)
            .zip(&self.class_of)
            .filter_map(|(r, &c)| (c != SINGLETON).then_some(r))
            .collect();
        let m = rows.len();

        // Pass 1: stable counting scatter by the new column's code.
        let mut starts = vec![0usize; rel.meta(col).distinct.max(1) + 1];
        for &r in &rows {
            starts[codes[r as usize] as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut by_code = vec![0u32; m];
        for &r in &rows {
            let slot = &mut starts[codes[r as usize] as usize];
            by_code[*slot] = r;
            *slot += 1;
        }

        // Pass 2: stable counting scatter by the old class id, which keeps
        // the code order inside every class.
        let mut starts = vec![0usize; self.classes + 1];
        for &r in &by_code {
            starts[self.class_of[r as usize] as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut lined = vec![0u32; m];
        for &r in &by_code {
            let slot = &mut starts[self.class_of[r as usize] as usize];
            lined[*slot] = r;
            *slot += 1;
        }

        // Runs of equal (old class, code) are the new classes.
        let key = |r: u32| (self.class_of[r as usize], codes[r as usize]);
        let mut classes = 0u32;
        let mut start = 0;
        while start < m {
            let run = key(lined[start]);
            let mut end = start + 1;
            while end < m && key(lined[end]) == run {
                end += 1;
            }
            if end - start >= 2 {
                for &r in &lined[start..end] {
                    class_of[r as usize] = classes;
                }
                classes += 1;
            }
            start = end;
        }
        ContextPartition {
            class_of,
            classes: classes as usize,
        }
    }
}

impl CacheWeight for ContextPartition {
    fn weight_bytes(&self) -> usize {
        self.class_of.len() * std::mem::size_of::<u32>()
    }
}

/// `{C}: A ~ B` over the partition of `C`, with `order` the rank order of
/// `A` ([`Relation::rank_order`]). `max` is scratch for the running maximum
/// of each class, reset here so no fact inherits another's maxima.
// lint: allow(panic-reachability, row ids index class_of and codes_b, both num_rows long, and class ids other than SINGLETON are below classes, the length of max)
fn oc_walk(
    part: &ContextPartition,
    order: &RankOrder,
    codes_b: &[u32],
    max: &mut Vec<u32>,
) -> bool {
    if part.classes == 0 {
        return true;
    }
    max.clear();
    max.resize(part.classes, 0);
    for i in 0..order.ends().len() {
        let group = order.class(i);
        for &r in group {
            let c = part.class_of[r as usize];
            if c != SINGLETON && codes_b[r as usize] < max[c as usize] {
                return false;
            }
        }
        for &r in group {
            let c = part.class_of[r as usize];
            if c != SINGLETON {
                let m = &mut max[c as usize];
                *m = (*m).max(codes_b[r as usize]);
            }
        }
    }
    true
}

/// `{C} → B` over the partition of `C`: every class is constant on `B`.
/// `first` is scratch for the first code seen in each class, reset here.
// lint: allow(panic-reachability, class ids other than SINGLETON are below classes, the length of first)
fn fd_walk(part: &ContextPartition, codes_b: &[u32], first: &mut Vec<u32>) -> bool {
    // Codes are ranks below a row count of at most u32::MAX, so u32::MAX
    // never is one.
    const UNSEEN: u32 = u32::MAX;
    if part.classes == 0 {
        return true;
    }
    first.clear();
    first.resize(part.classes, UNSEEN);
    for (&c, &code) in part.class_of.iter().zip(codes_b) {
        if c == SINGLETON {
            continue;
        }
        let seen = &mut first[c as usize];
        if *seen == UNSEEN {
            *seen = code;
        } else if *seen != code {
            return false;
        }
    }
    true
}

/// Memoizing canonical checker over one relation.
///
/// Context sets are interned: `sets[id]` is a sorted attribute set and
/// `grown` caches the id of each set with one attribute added, so the
/// contexts `X<i ∪ Y<j` of a check cost one hash lookup each. Context
/// partitions live in a worker-private memo by default;
/// [`PartitionChecker::with_epoch`] keeps them in a run-wide
/// [`EpochPrefixCache`] instead, so all workers of a run refine each
/// other's partitions. Fact verdicts stay with the checker either way.
pub struct PartitionChecker<'r> {
    rel: &'r Relation,
    /// The column reduction's pair verdicts, when the search has them.
    pairs: Option<&'r PairVerdicts>,
    /// The run-wide partition store; `None` keeps `partitions` instead.
    epoch: Option<EpochTier<ContextPartition>>,
    /// The empty set's partition.
    unit: Arc<ContextPartition>,
    sets: Vec<Vec<ColumnId>>,
    ids: HashMap<Vec<ColumnId>, usize>,
    grown: HashMap<(usize, ColumnId), usize>,
    /// The private partition memo, by context id.
    partitions: Vec<Option<Arc<ContextPartition>>>,
    /// `{C}: A ~ B` verdicts keyed `(C, min(A, B), max(A, B))`.
    oc: HashMap<(usize, ColumnId, ColumnId), bool>,
    /// `{C} → B` verdicts keyed `(C, B)`.
    fd: HashMap<(usize, ColumnId), bool>,
    /// Per-class scratch of one walk.
    scratch: Vec<u32>,
    /// Partitions built by refining a non-empty subset.
    pub refinements: u64,
    /// Partitions built from the empty set's (one-attribute contexts).
    pub base_builds: u64,
    /// Epoch-mode partition lookups answered by the snapshot or the local
    /// buffer; 0 with a private memo.
    pub hits: u64,
    /// Epoch-mode partition lookups that had to build the partition; 0
    /// with a private memo.
    pub misses: u64,
}

impl<'r> PartitionChecker<'r> {
    /// Create an empty checker over `rel`.
    pub fn new(rel: &'r Relation) -> PartitionChecker<'r> {
        PartitionChecker::build(rel, None)
    }

    /// Create a checker whose context partitions live in an
    /// epoch-published shared store ([`EpochPrefixCache`]): reads go to an
    /// immutable snapshot (no lock per lookup), new partitions are
    /// buffered locally until [`PartitionChecker::publish_pending`]. Used
    /// when the run sets `shared_cache`.
    pub fn with_epoch(
        rel: &'r Relation,
        cache: Arc<EpochPrefixCache<ContextPartition>>,
    ) -> PartitionChecker<'r> {
        PartitionChecker::build(rel, Some(EpochTier::new(cache)))
    }

    fn build(rel: &'r Relation, epoch: Option<EpochTier<ContextPartition>>) -> Self {
        PartitionChecker {
            rel,
            pairs: None,
            epoch,
            unit: Arc::new(ContextPartition::unit(rel.num_rows())),
            sets: vec![Vec::new()],
            ids: HashMap::from([(Vec::new(), EMPTY)]),
            grown: HashMap::new(),
            partitions: vec![None],
            oc: HashMap::new(),
            fd: HashMap::new(),
            scratch: Vec::new(),
            refinements: 0,
            base_builds: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Answer the empty-context OC facts and the one-attribute FD facts
    /// from the column reduction's verdicts over the live columns.
    pub(crate) fn with_verdicts(mut self, pairs: Option<&'r PairVerdicts>) -> Self {
        self.pairs = pairs;
        self
    }

    /// The verdict table handed to [`PartitionChecker::with_verdicts`].
    pub(crate) fn verdicts(&self) -> Option<&'r PairVerdicts> {
        self.pairs
    }

    /// Refresh the epoch snapshot at a level boundary. No-op with a
    /// private memo.
    pub fn begin_level(&mut self) {
        if let Some(tier) = &mut self.epoch {
            tier.begin_level();
        }
    }

    /// Publish locally-buffered partitions and flush lookup counters to
    /// the epoch cache. No-op with a private memo.
    pub fn publish_pending(&mut self) {
        if let Some(tier) = &mut self.epoch {
            tier.publish(self.hits, self.misses);
        }
    }

    /// The OCD `x ~ y`: every OC fact `{X<i ∪ Y<j}: Xi ~ Yj`.
    pub fn check_ocd(&mut self, x: &AttrList, y: &AttrList) -> bool {
        let mut above = EMPTY;
        for &a in x.as_slice() {
            let mut ctx = above;
            for &b in y.as_slice() {
                if !self.oc_fact(ctx, a, b) {
                    return false;
                }
                ctx = self.grow(ctx, b);
            }
            above = self.grow(above, a);
        }
        true
    }

    /// The direction check after a validated OCD — the canonical
    /// counterpart of [`crate::check::check_od_after_ocd`]: with no swap
    /// left, `lhs → rhs` holds iff every FD `set(lhs) → b`, `b` in `rhs`,
    /// does.
    pub fn check_od_after_ocd(&mut self, lhs: &AttrList, rhs: &AttrList) -> bool {
        let ctx = lhs
            .as_slice()
            .iter()
            .fold(EMPTY, |ctx, &a| self.grow(ctx, a));
        rhs.as_slice().iter().all(|&b| self.fd_fact(ctx, b))
    }

    /// The OD `lhs → rhs`: the OCD and its FD facts.
    pub fn check_od(&mut self, lhs: &AttrList, rhs: &AttrList) -> bool {
        self.check_ocd(lhs, rhs) && self.check_od_after_ocd(lhs, rhs)
    }

    fn oc_fact(&mut self, ctx: usize, a: ColumnId, b: ColumnId) -> bool {
        let (a, b) = (a.min(b), a.max(b));
        if ctx == EMPTY {
            if let Some(holds) = self.pairs.and_then(|p| p.compatible(a, b)) {
                return holds;
            }
        }
        if let Some(&holds) = self.oc.get(&(ctx, a, b)) {
            return holds;
        }
        let part = self.partition(ctx);
        let holds = oc_walk(
            &part,
            self.rel.rank_order(a),
            self.rel.codes(b),
            &mut self.scratch,
        );
        self.oc.insert((ctx, a, b), holds);
        holds
    }

    // lint: allow(panic-reachability, ctx is an interned id below sets.len())
    fn fd_fact(&mut self, ctx: usize, b: ColumnId) -> bool {
        if let [a] = *self.sets[ctx].as_slice() {
            if let Some(holds) = self.pairs.and_then(|p| p.determines(a, b)) {
                return holds;
            }
        }
        if let Some(&holds) = self.fd.get(&(ctx, b)) {
            return holds;
        }
        let part = self.partition(ctx);
        let holds = fd_walk(&part, self.rel.codes(b), &mut self.scratch);
        self.fd.insert((ctx, b), holds);
        holds
    }

    /// The id of context `ctx` with `attr` added.
    // lint: allow(panic-reachability, ctx is an interned id below sets.len())
    fn grow(&mut self, ctx: usize, attr: ColumnId) -> usize {
        if let Some(&id) = self.grown.get(&(ctx, attr)) {
            return id;
        }
        let set = &self.sets[ctx];
        let id = match set.binary_search(&attr) {
            Ok(_) => ctx,
            Err(pos) => {
                let mut set = set.clone();
                set.insert(pos, attr);
                self.intern(set)
            }
        };
        self.grown.insert((ctx, attr), id);
        id
    }

    /// The id of the sorted attribute set `set`.
    fn intern(&mut self, set: Vec<ColumnId>) -> usize {
        if let Some(&id) = self.ids.get(&set) {
            return id;
        }
        let id = self.sets.len();
        self.ids.insert(set.clone(), id);
        self.sets.push(set);
        self.partitions.push(None);
        id
    }

    /// The stored partition of `set`, without building one.
    // lint: allow(panic-reachability, interned ids are below partitions.len())
    fn stored(&self, set: &[ColumnId]) -> Option<Arc<ContextPartition>> {
        if set.is_empty() {
            return Some(Arc::clone(&self.unit));
        }
        match &self.epoch {
            Some(tier) => tier.get(set),
            None => self
                .ids
                .get(set)
                .and_then(|&id| self.partitions[id].clone()),
        }
    }

    /// The partition of context `ctx`: stored, or refined by one attribute
    /// from the stored partition of a subset one attribute smaller, or
    /// else refined from the subset without the last attribute, which is
    /// built the same way first.
    // lint: allow(panic-reachability, ctx and every interned id are below sets.len() and partitions.len())
    fn partition(&mut self, ctx: usize) -> Arc<ContextPartition> {
        let set = self.sets[ctx].clone();
        let Some((&last, rest)) = set.split_last() else {
            return Arc::clone(&self.unit);
        };
        let stored = self.stored(&set);
        if self.epoch.is_some() {
            self.hits += u64::from(stored.is_some());
            self.misses += u64::from(stored.is_none());
        }
        if let Some(part) = stored {
            return part;
        }
        let smaller = (0..set.len()).rev().find_map(|skip| {
            let mut sub = set.clone();
            let attr = sub.remove(skip);
            self.stored(&sub).map(|part| (part, attr))
        });
        let (parent, attr) = match smaller {
            Some(found) => found,
            None => {
                let sub = self.intern(rest.to_vec());
                (self.partition(sub), last)
            }
        };
        if set.len() == 1 {
            self.base_builds += 1;
        } else {
            self.refinements += 1;
        }
        let part = Arc::new(parent.refined(self.rel, attr));
        match &mut self.epoch {
            Some(tier) => tier.buffer(set, Arc::clone(&part)),
            None => self.partitions[ctx] = Some(Arc::clone(&part)),
        }
        part
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_ocd, check_od};
    use ocdd_relation::Value;

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

    /// The classes of a partition as sorted row lists, in order of their
    /// smallest row.
    fn classes(p: &ContextPartition) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); p.classes];
        for (r, &c) in (0u32..).zip(&p.class_of) {
            if c != SINGLETON {
                out[c as usize].push(r);
            }
        }
        out.sort();
        out
    }

    #[test]
    fn refinement_strips_singletons() {
        let r = rel(&[("a", &[1, 1, 2, 2, 1, 3]), ("b", &[2, 1, 2, 1, 1, 1])]);
        let pa = ContextPartition::unit(6).refined(&r, 0);
        assert_eq!(classes(&pa), vec![vec![0, 1, 4], vec![2, 3]]);
        // {a, b}: (1,1) -> rows 1, 4; (1,2) -> row 0; (2,1) -> row 3;
        // (2,2) -> row 2; (3,1) -> row 5.
        let pab = pa.refined(&r, 1);
        assert_eq!(classes(&pab), vec![vec![1, 4]]);
        assert_eq!(pab.class_of[0], SINGLETON);
        assert_eq!(pab.refined(&r, 0), pab, "refining by a member is a no-op");
        assert_eq!(ContextPartition::unit(1).classes, 0);
    }

    #[test]
    fn walks_decide_the_canonical_facts() {
        // Context {k}: classes {0, 1, 2} and {3, 4}.
        let r = rel(&[
            ("k", &[1, 1, 1, 2, 2]),
            ("a", &[1, 2, 2, 1, 2]),
            ("b", &[1, 2, 3, 9, 0]),
            ("c", &[5, 3, 4, 0, 0]),
        ]);
        let mut checker = PartitionChecker::new(&r);
        let k = checker.grow(EMPTY, 0);
        // a ~ b: class {3, 4} has a rising while b falls.
        assert!(!checker.oc_fact(k, 1, 2));
        // a ~ c inside {k}: rows 1 and 2 tie on a, so their c values do not
        // swap, but row 0 (a = 1, c = 5) above both does.
        assert!(!checker.oc_fact(k, 1, 3));
        let ka = checker.grow(k, 1);
        assert!(checker.oc_fact(ka, 2, 3), "{{k, a}} leaves only rows 1, 2");
        assert!(!checker.fd_fact(ka, 2));
        let kab = checker.grow(ka, 2);
        assert!(checker.fd_fact(kab, 3));
        assert!(!checker.fd_fact(k, 1));
    }

    #[test]
    fn permutations_share_facts_and_contexts() {
        let r = rel(&[
            ("a", &[1, 1, 2, 2, 3, 3]),
            ("b", &[1, 1, 1, 2, 2, 2]),
            ("c", &[1, 1, 2, 2, 3, 3]),
            ("d", &[1, 1, 2, 2, 3, 4]),
        ]);
        let mut checker = PartitionChecker::new(&r);
        // Facts {}: a ~ d, {a}: b ~ d, {a, b}: c ~ d.
        assert!(checker.check_ocd(&l(&[0, 1, 2]), &l(&[3])));
        let facts = checker.oc.len();
        assert_eq!((checker.base_builds, checker.refinements), (1, 1));
        // Facts {}: b ~ d, {b}: a ~ d, and {a, b}: c ~ d again.
        assert!(checker.check_ocd(&l(&[1, 0, 2]), &l(&[3])));
        assert_eq!(checker.oc.len(), facts + 2);
        assert_eq!((checker.base_builds, checker.refinements), (2, 1));
    }

    #[test]
    fn empty_relation_is_trivially_valid() {
        let r = rel(&[("a", &[]), ("b", &[])]);
        let mut checker = PartitionChecker::new(&r);
        assert!(checker.check_od(&l(&[0]), &l(&[1])));
        assert!(checker.check_ocd(&l(&[0, 1]), &l(&[1, 0])));
    }

    #[test]
    fn split_only_check_matches_full_check_after_valid_ocd() {
        // Exhaustive over all pairs of 4-row columns with values in
        // {0, 1, 2}: every OCD-valid pair must get the same direction
        // verdicts from the FD facts as from the full sort-based check.
        let patterns: Vec<Vec<i64>> = (0..81)
            .map(|mut n: i64| {
                (0..4)
                    .map(|_| {
                        let v = n % 3;
                        n /= 3;
                        v
                    })
                    .collect()
            })
            .collect();
        let mut fused_cases = 0;
        for a in &patterns {
            for b in &patterns {
                let r = Relation::from_columns(vec![
                    ("a".to_string(), a.iter().map(|&v| Value::Int(v)).collect()),
                    ("b".to_string(), b.iter().map(|&v| Value::Int(v)).collect()),
                ])
                .unwrap();
                let (x, y) = (l(&[0]), l(&[1]));
                let mut checker = PartitionChecker::new(&r);
                let ocd = check_ocd(&r, &x, &y).is_valid();
                assert_eq!(checker.check_ocd(&x, &y), ocd, "{a:?} / {b:?}: x~y");
                if !ocd {
                    continue;
                }
                fused_cases += 1;
                assert_eq!(
                    checker.check_od_after_ocd(&x, &y),
                    check_od(&r, &x, &y).is_valid(),
                    "{a:?} / {b:?}: x→y"
                );
                assert_eq!(
                    checker.check_od_after_ocd(&y, &x),
                    check_od(&r, &y, &x).is_valid(),
                    "{a:?} / {b:?}: y→x"
                );
            }
        }
        assert!(fused_cases > 500, "need OCD-valid cases ({fused_cases})");
    }

    #[test]
    fn epoch_checker_shares_partitions_after_publish() {
        let r = rel(&[
            ("a", &[1, 2, 1, 2, 3]),
            ("b", &[1, 1, 2, 2, 3]),
            ("c", &[1, 2, 3, 4, 5]),
        ]);
        let cache = Arc::new(EpochPrefixCache::new(1 << 20));
        let mut one = PartitionChecker::with_epoch(&r, Arc::clone(&cache));
        let mut two = PartitionChecker::with_epoch(&r, Arc::clone(&cache));
        let lists = [l(&[0]), l(&[1]), l(&[0, 1]), l(&[1, 2])];
        for x in &lists {
            for y in &lists {
                assert_eq!(one.check_od(x, y), check_od(&r, x, y).is_valid());
            }
        }
        assert!(one.base_builds + one.refinements > 0);
        one.publish_pending();
        two.begin_level();
        for x in &lists {
            for y in &lists {
                assert_eq!(two.check_od(x, y), check_od(&r, x, y).is_valid());
            }
        }
        assert_eq!(
            two.base_builds + two.refinements,
            0,
            "everything arrived via the published snapshot"
        );
        two.publish_pending();
        let s = cache.stats();
        assert_eq!(s.misses, one.misses);
        assert_eq!(s.hits, one.hits + two.hits);
    }

    /// The first list pair on which `checker` disagrees with the
    /// sort-based `check_ocd` (for `check_ocd`) or `check_od` (for
    /// `check_ocd && check_od_after_ocd`).
    fn first_mismatch(
        checker: &mut PartitionChecker<'_>,
        r: &Relation,
        lists: &[AttrList],
    ) -> Option<String> {
        for x in lists {
            for y in lists {
                let ocd = checker.check_ocd(x, y);
                if ocd != check_ocd(r, x, y).is_valid() {
                    return Some(format!("{x} ~ {y}"));
                }
                if (ocd && checker.check_od_after_ocd(x, y)) != check_od(r, x, y).is_valid() {
                    return Some(format!("{x} -> {y}"));
                }
            }
        }
        None
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The canonical `check_ocd`, and `check_ocd && check_od_after_ocd`,
        /// equal the sort-based `check_ocd` and `check_od` on every pair of
        /// lists of up to 3 of 4 columns, overlapping sides included, with
        /// NULLs and 0–14 rows: on a private memo, on an epoch checker, and
        /// on a second epoch checker reading the first one's publish.
        #[test]
        fn canonical_checks_match_sort_based_checks(
            rows in proptest::prelude::prop::collection::vec(
                proptest::prelude::prop::collection::vec(-1i64..3, 4..=4),
                0..=14,
            ),
        ) {
            let r = Relation::from_columns(
                (0..4)
                    .map(|c| {
                        let cells = rows.iter().map(|row| match row[c] {
                            v if v < 0 => Value::Null,
                            v => Value::Int(v),
                        });
                        (format!("c{c}"), cells.collect())
                    })
                    .collect(),
            )
            .unwrap();
            let lists = crate::brute::all_lists(&[0, 1, 2, 3], 3);
            let private = first_mismatch(&mut PartitionChecker::new(&r), &r, &lists);
            proptest::prop_assert_eq!(private, None, "private memo");
            let cache = Arc::new(EpochPrefixCache::new(1 << 20));
            let mut one = PartitionChecker::with_epoch(&r, Arc::clone(&cache));
            proptest::prop_assert_eq!(first_mismatch(&mut one, &r, &lists), None, "epoch");
            one.publish_pending();
            let mut two = PartitionChecker::with_epoch(&r, cache);
            two.begin_level();
            proptest::prop_assert_eq!(
                first_mismatch(&mut two, &r, &lists),
                None,
                "epoch after a publish"
            );
        }
    }
}
