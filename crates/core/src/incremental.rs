//! Incremental discovery over growing inputs — the paper's stated future
//! work ("we would like to consider dynamic inputs, where additional rows
//! … may be added at runtime", §7).
//!
//! The key observation making appends cheap is **anti-monotonicity**:
//! order dependencies are universally quantified over tuple pairs, so
//! adding rows can only *invalidate* dependencies, never create new ones.
//! An appended batch therefore requires only re-validating the dependencies
//! that currently hold — one sorted scan each — instead of re-running the
//! whole search.
//!
//! Three events break the cheap path and force a full re-run (reported in
//! the returned [`Delta`]):
//!
//! * a **constant column demotes** (gains a second value): dependencies
//!   *involving* it were never searched, so the reduced universe changes;
//! * an **order-equivalence class splits**: the collapsed columns become
//!   distinct search dimensions;
//! * a **column is retyped** in a way that re-ranks its old values: a
//!   string landing in an `Int` or `Float` column makes it `Str`, ordered
//!   by display form (`"10" < "20" < "9"`), so the old rows no longer keep
//!   their order and anti-monotonicity does not apply. `Int` → `Float`
//!   keeps the numeric order and stays on the cheap path.
//!
//! All three are detected exactly — a class split by one
//! [`crate::reduction`] pair pass per (representative, member) pair — and
//! the fallback re-run is itself just [`crate::discover`], so correctness
//! never depends on the fast path.
//!
//! The relation grows through [`Relation::append_rows`], which merges each
//! batch into the column dictionaries and re-encodes no column that keeps
//! its type; no copy of the original values is kept. The grown relation
//! is therefore defined on *decoded* values: it equals
//! [`Relation::from_columns`] over the previous relation's values, as its
//! dictionaries decode them, followed by the batch (a deletion equals it
//! over the kept rows, through [`Relation::select_rows`]). Decoding keeps
//! one value of each run of equal ones, which changes a result in one case
//! only: a `Float` column holding both `0` and `-0.0` that a later string
//! retypes ranks one `"0"` (or `"-0"`, whichever its dictionary kept),
//! where the original values would rank `"-0"` and `"0"` apart. A `Float`
//! column whose values all equal `Int`s likewise grows as an `Int` column;
//! both order numerically, so that is no retyping.

use crate::check::{check_ocd, check_od};
use crate::config::{CheckerBackend, DiscoveryConfig};
use crate::deps::{Ocd, Od};
use crate::reduction::pair_pass;
use crate::results::DiscoveryResult;
use crate::search::discover;
use crate::sorted_partitions::PartitionChecker;
use ocdd_relation::{DataType, Error, Relation, Result, Value};

/// What an append or deletion changed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    /// OCDs invalidated by the new rows.
    pub invalidated_ocds: Vec<Ocd>,
    /// ODs invalidated by the new rows.
    pub invalidated_ods: Vec<Od>,
    /// OCDs that newly hold (row deletion only — appends never create
    /// dependencies).
    pub gained_ocds: Vec<Ocd>,
    /// ODs that newly hold (row deletion only).
    pub gained_ods: Vec<Od>,
    /// Constant columns that gained a second value.
    pub demoted_constants: Vec<usize>,
    /// Columns whose new type orders their values differently (a string
    /// in an `Int` or `Float` column makes it `Str`).
    pub retyped_columns: Vec<usize>,
    /// Equivalence classes that no longer hold in full.
    pub split_classes: Vec<Vec<usize>>,
    /// True when the structural changes forced a full re-discovery.
    pub full_rerun: bool,
}

impl Delta {
    /// True when the change affected no dependency.
    pub fn is_empty(&self) -> bool {
        self.invalidated_ocds.is_empty()
            && self.invalidated_ods.is_empty()
            && self.gained_ocds.is_empty()
            && self.gained_ods.is_empty()
            && self.demoted_constants.is_empty()
            && self.retyped_columns.is_empty()
            && self.split_classes.is_empty()
    }
}

/// Maintains a discovery result across row appends.
#[derive(Debug)]
pub struct IncrementalDiscovery {
    config: DiscoveryConfig,
    relation: Relation,
    result: DiscoveryResult,
}

impl IncrementalDiscovery {
    /// Run the initial discovery over `rel`.
    pub fn new(rel: &Relation, config: DiscoveryConfig) -> IncrementalDiscovery {
        let result = discover(rel, &config);
        IncrementalDiscovery {
            config,
            relation: rel.clone(),
            result,
        }
    }

    /// The current dependency state.
    pub fn result(&self) -> &DiscoveryResult {
        &self.result
    }

    /// The current relation (original plus every appended batch).
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// Append a batch of rows and update the dependency state, returning
    /// what changed. The grown relation is [`Relation::append_rows`]'s: the
    /// batch merged into the column dictionaries (see the module doc).
    pub fn append_rows(&mut self, rows: Vec<Vec<Value>>) -> Result<Delta> {
        if rows.is_empty() {
            return Ok(Delta::default());
        }
        let old_types: Vec<DataType> = self.relation.schema().map(|m| m.data_type).collect();
        self.relation.append_rows(&rows)?;

        let mut delta = Delta::default();

        // Structural checks first. Between `Int` and `Float` the numeric
        // order stays (a `Float` column whose values all equal `Int`s
        // decodes, and so appends, as `Int`).
        let numeric = |t: DataType| t != DataType::Str;
        for (c, (old, new)) in old_types.iter().zip(self.relation.schema()).enumerate() {
            let keeps_order = *old == new.data_type || (numeric(*old) && numeric(new.data_type));
            if !keeps_order {
                delta.retyped_columns.push(c);
            }
        }
        for &c in &self.result.constants {
            if !self.relation.meta(c).is_constant() {
                delta.demoted_constants.push(c);
            }
        }
        for class in &self.result.equivalence_classes {
            let still_holds = class[1..].iter().all(|&other| {
                let v = pair_pass(&self.relation, class[0], other);
                v.forward() && v.backward()
            });
            if !still_holds {
                delta.split_classes.push(class.clone());
            }
        }

        if !delta.demoted_constants.is_empty()
            || !delta.retyped_columns.is_empty()
            || !delta.split_classes.is_empty()
        {
            // The reduced universe or a column's order changed: the cheap
            // path cannot see dependencies that were collapsed away or
            // that the old order ruled out.
            let old = std::mem::take(&mut self.result);
            self.result = discover(&self.relation, &self.config);
            delta.full_rerun = true;
            let new_ocds: std::collections::HashSet<&Ocd> = self.result.ocds.iter().collect();
            let new_ods: std::collections::HashSet<&Od> = self.result.ods.iter().collect();
            delta.invalidated_ocds = old
                .ocds
                .into_iter()
                .filter(|o| !new_ocds.contains(o))
                .collect();
            delta.invalidated_ods = old
                .ods
                .into_iter()
                .filter(|o| !new_ods.contains(o))
                .collect();
            return Ok(delta);
        }

        // Cheap path step 1: re-validate every held dependency on the
        // grown relation. The set of *valid* dependencies is anti-monotone
        // under row addition, so nothing brand new can appear at candidates
        // the original search visited. Under `SortedPartitions` one
        // canonical checker serves them all, so they share their facts.
        let rel = &self.relation;
        let mut canonical = match self.config.checker {
            CheckerBackend::SortedPartitions => Some(PartitionChecker::new(rel)),
            CheckerBackend::Resort => None,
        };
        let mut invalid_ocds = Vec::new();
        self.result.ocds.retain(|ocd| {
            let ok = match &mut canonical {
                Some(c) => c.check_ocd(&ocd.lhs, &ocd.rhs),
                None => check_ocd(rel, &ocd.lhs, &ocd.rhs).is_valid(),
            };
            if !ok {
                invalid_ocds.push(ocd.clone());
            }
            ok
        });
        let mut invalid_ods = Vec::new();
        self.result.ods.retain(|od| {
            let ok = match &mut canonical {
                Some(c) => c.check_od(&od.lhs, &od.rhs),
                None => check_od(rel, &od.lhs, &od.rhs).is_valid(),
            };
            if !ok {
                invalid_ods.push(od.clone());
            }
            ok
        });

        // Cheap path step 2: the *minimal* set is not anti-monotone — when
        // an OD `X → Y` breaks, the children `XA ~ Y` that Theorem 3.9
        // pruned become genuine candidates. Resume the search below each
        // invalidated OD whose host OCD still holds (if the OCD broke too,
        // downward closure kills the whole subtree, Theorem 3.7).
        let retained: std::collections::HashSet<Ocd> =
            self.result.ocds.iter().map(Ocd::canonical).collect();
        let universe = self.result.reduced_attributes.clone();
        for od in &invalid_ods {
            // Every emitted OD's host candidate also emitted its OCD (an
            // OD implies its OCD), so a missing host means the OCD broke
            // too and the subtree is dead by downward closure.
            let host = Ocd::new(od.lhs.clone(), od.rhs.clone()).canonical();
            if !retained.contains(&host) {
                continue;
            }
            let (ocds, ods, checks, termination) = crate::search::resume_after_od_invalidation(
                rel,
                &universe,
                &od.lhs,
                &od.rhs,
                &self.config,
            );
            self.result.ocds.extend(ocds);
            self.result.ods.extend(ods);
            self.result.checks += checks;
            // The first re-open that stops short (budget, cancellation or
            // quarantine) leaves the whole result partial.
            if self.result.termination.is_complete() {
                self.result.termination = termination;
            }
        }
        // Canonical order + dedup (resumed subtrees can overlap).
        self.result.ocds.sort_by(|a, b| {
            (a.lhs.len() + a.rhs.len(), &a.lhs, &a.rhs).cmp(&(
                b.lhs.len() + b.rhs.len(),
                &b.lhs,
                &b.rhs,
            ))
        });
        self.result.ocds.dedup();
        self.result.ods.sort_by(|a, b| {
            (a.lhs.len() + a.rhs.len(), &a.lhs, &a.rhs).cmp(&(
                b.lhs.len() + b.rhs.len(),
                &b.lhs,
                &b.rhs,
            ))
        });
        self.result.ods.dedup();

        delta.invalidated_ocds = invalid_ocds;
        delta.invalidated_ods = invalid_ods;
        Ok(delta)
    }
}

impl IncrementalDiscovery {
    /// Remove the rows at `row_ids` (indices into the current relation)
    /// and update the dependency state.
    ///
    /// Deletion is the dual of appending: dependencies can only be
    /// *gained*, never lost, but a gained OD re-activates Theorem 3.9
    /// pruning in ways a patch-up cannot track cheaply, so deletions run a
    /// full re-discovery and report the difference.
    pub fn remove_rows(&mut self, row_ids: &[usize]) -> Result<Delta> {
        let current_rows = self.relation.num_rows();
        let mut dropped = vec![false; current_rows];
        for &r in row_ids {
            match dropped.get_mut(r) {
                Some(slot) => *slot = true,
                None => {
                    return Err(Error::RowOutOfRange {
                        index: r,
                        len: current_rows,
                    })
                }
            }
        }
        // Row ids are u32 by the relation contract.
        let kept: Vec<u32> = (0..current_rows)
            .zip(&dropped)
            .filter(|&(_, &d)| !d)
            .filter_map(|(r, _)| u32::try_from(r).ok())
            .collect();
        self.relation = self.relation.select_rows(&kept);

        let old = std::mem::replace(&mut self.result, discover(&self.relation, &self.config));
        let old_ocds: std::collections::HashSet<&Ocd> = old.ocds.iter().collect();
        let old_ods: std::collections::HashSet<&Od> = old.ods.iter().collect();
        let new_ocds: std::collections::HashSet<&Ocd> = self.result.ocds.iter().collect();
        let new_ods: std::collections::HashSet<&Od> = self.result.ods.iter().collect();
        Ok(Delta {
            gained_ocds: self
                .result
                .ocds
                .iter()
                .filter(|o| !old_ocds.contains(o))
                .cloned()
                .collect(),
            gained_ods: self
                .result
                .ods
                .iter()
                .filter(|o| !old_ods.contains(o))
                .cloned()
                .collect(),
            invalidated_ocds: old
                .ocds
                .iter()
                .filter(|o| !new_ocds.contains(o))
                .cloned()
                .collect(),
            invalidated_ods: old
                .ods
                .iter()
                .filter(|o| !new_ods.contains(o))
                .cloned()
                .collect(),
            demoted_constants: Vec::new(),
            retyped_columns: Vec::new(),
            split_classes: Vec::new(),
            full_rerun: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::AttrList;
    use ocdd_relation::RelationBuilder;

    fn rel(cols: &[(&str, &[i64])]) -> Relation {
        Relation::from_columns(
            cols.iter()
                .map(|(n, vals)| (n.to_string(), vals.iter().map(|&v| Value::Int(v)).collect()))
                .collect(),
        )
        .unwrap()
    }

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn consistent_append_changes_nothing() {
        let r = rel(&[("a", &[1, 2, 3]), ("b", &[1, 1, 2])]);
        let mut inc = IncrementalDiscovery::new(&r, DiscoveryConfig::default());
        assert!(inc
            .result()
            .ods
            .iter()
            .any(|od| od.to_string() == "[0] -> [1]"));
        let delta = inc.append_rows(vec![ints(&[4, 2]), ints(&[5, 3])]).unwrap();
        assert!(delta.is_empty(), "{delta:?}");
        assert!(!delta.full_rerun);
        assert!(inc
            .result()
            .ods
            .iter()
            .any(|od| od.to_string() == "[0] -> [1]"));
        assert_eq!(inc.relation().num_rows(), 5);
    }

    #[test]
    fn violating_append_invalidates_exactly_the_broken_od() {
        let r = rel(&[("a", &[1, 2, 3]), ("b", &[1, 1, 2])]);
        let mut inc = IncrementalDiscovery::new(&r, DiscoveryConfig::default());
        // (4, 0): a increases but b drops -> swap kills a -> b and a ~ b.
        let delta = inc.append_rows(vec![ints(&[4, 0])]).unwrap();
        assert!(delta
            .invalidated_ods
            .iter()
            .any(|od| od.to_string() == "[0] -> [1]"));
        assert!(!inc
            .result()
            .ods
            .iter()
            .any(|od| od.to_string() == "[0] -> [1]"));
    }

    #[test]
    fn a_cut_short_reopen_marks_the_result_partial() {
        use crate::runtime::{RunController, TerminationReason};
        // a -> b holds, b -> a does not, and c is noise: the children
        // [a, c] ~ [b] of the OD were pruned.
        let r = rel(&[
            ("a", &[1, 2, 3, 4]),
            ("b", &[1, 1, 2, 2]),
            ("c", &[3, 1, 4, 2]),
        ]);
        let controller = RunController::new();
        let config = DiscoveryConfig {
            controller: Some(controller.clone()),
            ..DiscoveryConfig::default()
        };
        let mut inc = IncrementalDiscovery::new(&r, config);
        assert!(inc.result().complete());
        controller.cancel();
        // (4, 3) splits a = 4 but keeps a ~ b, so the append re-opens the
        // pruned subtree — and the cancelled run cannot finish it.
        let delta = inc.append_rows(vec![ints(&[4, 3, 5])]).unwrap();
        assert!(!delta.full_rerun);
        assert!(delta
            .invalidated_ods
            .iter()
            .any(|od| od.to_string() == "[0] -> [1]"));
        assert!(inc
            .result()
            .ocds
            .iter()
            .any(|o| o.to_string() == "[0] ~ [1]"));
        assert_eq!(inc.result().termination, TerminationReason::Cancelled);
    }

    #[test]
    fn incremental_state_matches_full_rerun() {
        for checker in [CheckerBackend::Resort, CheckerBackend::SortedPartitions] {
            state_matches_full_rerun(&DiscoveryConfig {
                checker,
                ..DiscoveryConfig::default()
            });
        }
    }

    /// A batch cell: NULL, a new minimum or maximum, or a value inside
    /// the initial range `0..4`, some of them between two old ones.
    fn random_cell(rng: &mut rand::rngs::StdRng) -> Value {
        use rand::RngExt;
        match rng.random_range(0..20) {
            0..=2 => Value::Null,
            3 => Value::Int(rng.random_range(-3..0)),
            4 => Value::Int(rng.random_range(4..7)),
            5 => Value::Float(1.5),
            _ => Value::Int(rng.random_range(0..4)),
        }
    }

    /// A row `a, b, c, k` with `b = ⌊a / 2⌋`, `c = a` and `k = 7`, where
    /// each of `b`, `c` and `k` is a random cell instead one time in
    /// `noise` (never when `noise` is 0).
    fn structured_row(rng: &mut rand::rngs::StdRng, a: Value, noise: u32) -> Vec<Value> {
        use rand::RngExt;
        let half = match a {
            Value::Int(i) => Value::Int(i.div_euclid(2)),
            ref other => other.clone(),
        };
        let mut row = vec![a.clone(), half, a, Value::Int(7)];
        for v in &mut row[1..] {
            if noise > 0 && rng.random_range(0..noise) == 0 {
                *v = random_cell(rng);
            }
        }
        row
    }

    /// Appends under `config` leave the state of a from-scratch run of the
    /// faithful default configuration after every batch.
    fn state_matches_full_rerun(config: &DiscoveryConfig) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let tag = format!("{:?}", config.checker);
        let same_state = |inc: &IncrementalDiscovery, what: &str| {
            let fresh = discover(inc.relation(), &DiscoveryConfig::default());
            let state = inc.result();
            assert_eq!(state.ocds, fresh.ocds, "{tag}: {what}");
            assert_eq!(state.ods, fresh.ods, "{tag}: {what}");
            assert_eq!(
                state.equivalence_classes, fresh.equivalence_classes,
                "{tag}: {what}"
            );
            assert_eq!(state.constants, fresh.constants, "{tag}: {what}");
        };
        // Appends that broke an OD on the cheap path (re-opening what it
        // pruned), and appends that re-ran discovery.
        let (mut cheap, mut reruns) = (0, 0);
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Initially a -> b holds, {a, c} is a class and k is constant.
            let mut b = RelationBuilder::new(vec!["a", "b", "c", "k"]);
            for _ in 0..10 {
                let a = Value::Int(rng.random_range(0..4));
                b.push_row(structured_row(&mut rng, a, 0)).unwrap();
            }
            let initial = b.finish();
            let mut inc = IncrementalDiscovery::new(&initial, config.clone());
            for batch_no in 0..4 {
                let batch: Vec<Vec<Value>> = (0..rng.random_range(1..5))
                    .map(|_| {
                        let a = random_cell(&mut rng);
                        structured_row(&mut rng, a, 8)
                    })
                    .collect();
                let delta = inc.append_rows(batch).unwrap();
                same_state(&inc, &format!("seed {seed}, batch {batch_no}"));
                reruns += usize::from(delta.full_rerun);
                cheap += usize::from(!delta.full_rerun && !delta.invalidated_ods.is_empty());
            }
        }
        assert!(
            cheap > 0 && reruns > 0,
            "{tag}: {cheap} cheap, {reruns} reruns"
        );

        // The class {a, b} meets NULLs in b. NULL sorts first, so one next
        // to the smallest a keeps the class; one next to the largest a
        // splits it, and only through the NULL.
        let initial = Relation::from_columns(vec![
            ("a".into(), ints(&[1, 2, 3, 4])),
            ("b".into(), ints(&[10, 20, 30, 40])),
            ("c".into(), ints(&[2, 1, 2, 1])),
        ])
        .unwrap();
        let mut inc = IncrementalDiscovery::new(&initial, config.clone());
        assert_eq!(inc.result().equivalence_classes, vec![vec![0, 1]]);
        let row = |a, b, c| vec![Value::Int(a), b, Value::Int(c)];
        for (batch, splits) in [
            (
                vec![row(0, Value::Null, 1), row(5, Value::Int(50), 2)],
                false,
            ),
            (
                vec![row(6, Value::Int(60), 1), row(7, Value::Null, 2)],
                true,
            ),
        ] {
            let delta = inc.append_rows(batch).unwrap();
            assert_eq!(delta.split_classes.len(), usize::from(splits), "{delta:?}");
            same_state(&inc, &format!("NULL split {splits}"));
        }
    }

    #[test]
    fn constant_demotion_triggers_full_rerun() {
        let r = rel(&[("a", &[1, 2, 3]), ("k", &[7, 7, 7])]);
        let mut inc = IncrementalDiscovery::new(&r, DiscoveryConfig::default());
        assert_eq!(inc.result().constants, vec![1]);
        // k gains a second value that keeps it ordered by a.
        let delta = inc.append_rows(vec![ints(&[4, 8])]).unwrap();
        assert!(delta.full_rerun);
        assert_eq!(delta.demoted_constants, vec![1]);
        assert!(inc.result().constants.is_empty());
        // The dependency a -> k is now discoverable and must be present.
        assert!(inc
            .result()
            .ods
            .iter()
            .any(|od| { od.lhs == AttrList::single(0) && od.rhs == AttrList::single(1) }));
    }

    #[test]
    fn retyping_append_reruns_and_int_to_float_does_not() {
        for checker in [CheckerBackend::Resort, CheckerBackend::SortedPartitions] {
            let config = DiscoveryConfig {
                checker,
                ..DiscoveryConfig::default()
            };
            // As numbers a and c disagree on every pair; as text "10" <
            // "20" < "9" < "x" ranks a exactly as c.
            let r = rel(&[("a", &[10, 9, 20]), ("c", &[1, 3, 2])]);
            let mut inc = IncrementalDiscovery::new(&r, config.clone());
            assert!(inc.result().equivalence_classes.is_empty());
            let delta = inc
                .append_rows(vec![vec![Value::Str("x".into()), Value::Int(4)]])
                .unwrap();
            assert!(delta.full_rerun, "{checker:?}: {delta:?}");
            assert_eq!(delta.retyped_columns, vec![0], "{checker:?}");
            let fresh = discover(inc.relation(), &config);
            assert_eq!(fresh.equivalence_classes, vec![vec![0, 1]]);
            assert_eq!(inc.result().equivalence_classes, fresh.equivalence_classes);
            assert_eq!(inc.result().ocds, fresh.ocds, "{checker:?}");
            assert_eq!(inc.result().ods, fresh.ods, "{checker:?}");

            // A float in an Int column keeps the numeric order.
            let mut inc = IncrementalDiscovery::new(&r, config.clone());
            let delta = inc
                .append_rows(vec![vec![Value::Float(20.5), Value::Int(4)]])
                .unwrap();
            assert!(!delta.full_rerun, "{checker:?}: {delta:?}");
            assert!(delta.retyped_columns.is_empty());
            assert_eq!(inc.relation().meta(0).data_type, DataType::Float);

            // So does the way back: a Float column whose every value
            // equals an Int decodes, and so appends, as Int.
            let floats = Relation::from_columns(vec![
                (
                    "a".into(),
                    vec![Value::Int(2), Value::Float(2.0), Value::Int(3)],
                ),
                ("c".into(), ints(&[1, 2, 3])),
            ])
            .unwrap();
            assert_eq!(floats.meta(0).data_type, DataType::Float);
            let mut inc = IncrementalDiscovery::new(&floats, config);
            let delta = inc.append_rows(vec![ints(&[4, 4])]).unwrap();
            assert!(!delta.full_rerun, "{checker:?}: {delta:?}");
            assert!(delta.retyped_columns.is_empty());
            assert_eq!(inc.relation().meta(0).data_type, DataType::Int);
        }
    }

    #[test]
    fn class_split_triggers_full_rerun() {
        let r = rel(&[("a", &[1, 2, 3]), ("b", &[10, 20, 30])]);
        let mut inc = IncrementalDiscovery::new(&r, DiscoveryConfig::default());
        assert_eq!(inc.result().equivalence_classes, vec![vec![0, 1]]);
        // Break b -> a but keep a -> b: new rows tie a with differing b? No —
        // tie b with differing a: (4, 40), (5, 40).
        let delta = inc
            .append_rows(vec![ints(&[4, 40]), ints(&[5, 40])])
            .unwrap();
        assert!(delta.full_rerun);
        assert_eq!(delta.split_classes, vec![vec![0, 1]]);
        assert!(inc.result().equivalence_classes.is_empty());
        assert!(inc
            .result()
            .ods
            .iter()
            .any(|od| od.to_string() == "[0] -> [1]"));
        assert!(!inc
            .result()
            .ods
            .iter()
            .any(|od| od.to_string() == "[1] -> [0]"));
    }

    #[test]
    fn deletion_gains_back_a_broken_dependency() {
        // a -> b holds except for one bad row; deleting it restores the OD.
        let r = rel(&[("a", &[1, 2, 3, 4]), ("b", &[1, 2, 9, 4])]);
        let mut inc = IncrementalDiscovery::new(&r, DiscoveryConfig::default());
        assert!(!inc
            .result()
            .ods
            .iter()
            .any(|od| od.to_string() == "[0] -> [1]"));
        let delta = inc.remove_rows(&[2]).unwrap();
        assert!(delta.full_rerun);
        assert!(
            delta
                .gained_ods
                .iter()
                .any(|od| od.to_string() == "[0] -> [1]")
                || inc.result().equivalence_classes == vec![vec![0, 1]],
            "deleting the outlier must restore the dependency: {delta:?}"
        );
        assert_eq!(inc.relation().num_rows(), 3);
    }

    #[test]
    fn deletion_matches_fresh_discovery() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = RelationBuilder::new(vec!["a", "b", "c"]);
        for _ in 0..14 {
            b.push_row((0..3).map(|_| Value::Int(rng.random_range(0..3))).collect())
                .unwrap();
        }
        let rel = b.finish();
        let mut inc = IncrementalDiscovery::new(&rel, DiscoveryConfig::default());
        inc.remove_rows(&[0, 5, 9]).unwrap();
        let fresh = discover(inc.relation(), &DiscoveryConfig::default());
        assert_eq!(inc.result().ocds, fresh.ocds);
        assert_eq!(inc.result().ods, fresh.ods);
        assert_eq!(inc.relation().num_rows(), 11);
    }

    #[test]
    fn deletion_rejects_out_of_range() {
        let r = rel(&[("a", &[1, 2])]);
        let mut inc = IncrementalDiscovery::new(&r, DiscoveryConfig::default());
        let err = inc.remove_rows(&[5]).unwrap_err();
        assert!(
            matches!(err, Error::RowOutOfRange { index: 5, len: 2 }),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            "row index 5 out of range for relation with 2 rows"
        );
        assert_eq!(inc.relation().num_rows(), 2);
    }

    #[test]
    fn arity_mismatch_is_rejected_without_corruption() {
        let r = rel(&[("a", &[1, 2]), ("b", &[3, 4])]);
        let mut inc = IncrementalDiscovery::new(&r, DiscoveryConfig::default());
        assert!(inc.append_rows(vec![ints(&[1])]).is_err());
        assert_eq!(
            inc.relation().num_rows(),
            2,
            "failed append must not mutate"
        );
    }
}
