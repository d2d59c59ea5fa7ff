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
//! Two events break the cheap path and force a full re-run (reported in
//! the returned [`Delta`]):
//!
//! * a **constant column demotes** (gains a second value): dependencies
//!   *involving* it were never searched, so the reduced universe changes;
//! * an **order-equivalence class splits**: the collapsed columns become
//!   distinct search dimensions.
//!
//! Both are detected exactly — a class split by one
//! [`crate::reduction`] pair pass per (representative, member) pair — and
//! the fallback re-run is itself just [`crate::discover`], so correctness
//! never depends on the fast path.

use crate::check::{check_ocd, check_od};
use crate::config::DiscoveryConfig;
use crate::deps::{Ocd, Od};
use crate::reduction::pair_pass;
use crate::results::DiscoveryResult;
use crate::search::discover;
use ocdd_relation::{Error, Relation, Result, TypingMode, Value};

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
            && self.split_classes.is_empty()
    }
}

/// Maintains a discovery result across row appends.
#[derive(Debug)]
pub struct IncrementalDiscovery {
    names: Vec<String>,
    data: Vec<Vec<Value>>, // column-major raw values
    config: DiscoveryConfig,
    relation: Relation,
    result: DiscoveryResult,
}

impl IncrementalDiscovery {
    /// Run the initial discovery over `rel`.
    pub fn new(rel: &Relation, config: DiscoveryConfig) -> IncrementalDiscovery {
        let names: Vec<String> = rel.column_names().iter().map(|s| s.to_string()).collect();
        let data: Vec<Vec<Value>> = (0..rel.num_columns())
            .map(|c| {
                (0..rel.num_rows())
                    .map(|r| rel.value(r, c).clone())
                    .collect()
            })
            .collect();
        let result = discover(rel, &config);
        IncrementalDiscovery {
            names,
            data,
            config,
            relation: rel.clone(),
            result,
        }
    }

    /// Rank-encode the current raw values, borrowing them (the encoder
    /// copies only distinct values into the dictionaries).
    fn encode(&self) -> Result<Relation> {
        Relation::from_column_slices(
            self.names
                .iter()
                .map(String::as_str)
                .zip(self.data.iter().map(Vec::as_slice)),
            TypingMode::Infer,
        )
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
    /// what changed.
    pub fn append_rows(&mut self, rows: Vec<Vec<Value>>) -> Result<Delta> {
        for row in &rows {
            if row.len() != self.names.len() {
                return Err(Error::ArityMismatch {
                    expected: self.names.len(),
                    got: row.len(),
                });
            }
        }
        for row in rows {
            for (col, v) in self.data.iter_mut().zip(row) {
                col.push(v);
            }
        }
        // Rebuild the relation: rank codes are global, so appends re-encode.
        self.relation = self.encode()?;

        let mut delta = Delta::default();

        // Structural checks first.
        for &c in &self.result.constants {
            if !self.relation.meta(c).is_constant() {
                delta.demoted_constants.push(c);
            }
        }
        for class in &self.result.equivalence_classes {
            let still_holds = class[1..].iter().all(|&other| {
                let v = pair_pass(&self.relation, class[0], other);
                v.forward && v.backward
            });
            if !still_holds {
                delta.split_classes.push(class.clone());
            }
        }

        if !delta.demoted_constants.is_empty() || !delta.split_classes.is_empty() {
            // The reduced universe changed: the cheap path cannot see
            // dependencies that were previously collapsed away.
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
        // the original search visited.
        let rel = &self.relation;
        let mut invalid_ocds = Vec::new();
        self.result.ocds.retain(|ocd| {
            let ok = check_ocd(rel, &ocd.lhs, &ocd.rhs).is_valid();
            if !ok {
                invalid_ocds.push(ocd.clone());
            }
            ok
        });
        let mut invalid_ods = Vec::new();
        self.result.ods.retain(|od| {
            let ok = check_od(rel, &od.lhs, &od.rhs).is_valid();
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
        let current_rows = self.data.first().map_or(0, Vec::len);
        for &r in row_ids {
            if r >= current_rows {
                return Err(Error::ColumnOutOfRange {
                    index: r,
                    len: current_rows,
                });
            }
        }
        let drop: std::collections::HashSet<usize> = row_ids.iter().copied().collect();
        for col in self.data.iter_mut() {
            let mut idx = 0usize;
            col.retain(|_| {
                let keep = !drop.contains(&idx);
                idx += 1;
                keep
            });
        }
        self.relation = self.encode()?;

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
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        for seed in 0..15u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let gen_row = |rng: &mut StdRng| -> Vec<Value> {
                (0..3).map(|_| Value::Int(rng.random_range(0..3))).collect()
            };
            let mut b = RelationBuilder::new(vec!["a", "b", "c"]);
            for _ in 0..10 {
                b.push_row(gen_row(&mut rng)).unwrap();
            }
            let initial = b.finish();
            let mut inc = IncrementalDiscovery::new(&initial, DiscoveryConfig::default());
            for _ in 0..3 {
                let batch: Vec<Vec<Value>> = (0..4).map(|_| gen_row(&mut rng)).collect();
                inc.append_rows(batch).unwrap();
            }
            let fresh = discover(inc.relation(), &DiscoveryConfig::default());
            assert_eq!(inc.result().ocds, fresh.ocds, "seed {seed}");
            assert_eq!(inc.result().ods, fresh.ods, "seed {seed}");
        }

        // The class {a, b} meets NULLs in b. NULL sorts first, so one next
        // to the smallest a keeps the class; one next to the largest a
        // splits it, and only through the NULL.
        let initial = Relation::from_columns(vec![
            ("a".into(), ints(&[1, 2, 3, 4])),
            ("b".into(), ints(&[10, 20, 30, 40])),
            ("c".into(), ints(&[2, 1, 2, 1])),
        ])
        .unwrap();
        let mut inc = IncrementalDiscovery::new(&initial, DiscoveryConfig::default());
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
            let fresh = discover(inc.relation(), &DiscoveryConfig::default());
            assert_eq!(inc.result().ocds, fresh.ocds, "NULL split {splits}");
            assert_eq!(inc.result().ods, fresh.ods, "NULL split {splits}");
            assert_eq!(
                inc.result().equivalence_classes,
                fresh.equivalence_classes,
                "NULL split {splits}"
            );
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
        assert!(inc.remove_rows(&[5]).is_err());
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
