//! Property-based tests (proptest) on the core invariants.

use ocddiscover::core::brute::all_lists;
use ocddiscover::core::check::{check_od, check_od_pairwise};
use ocddiscover::{discover, AttrList, DiscoveryConfig, ParallelMode, Relation, Value};
use proptest::prelude::*;

/// Strategy: a small relation of `cols` integer columns with values in a
/// narrow domain (ties and violations both likely).
fn small_relation(cols: usize, max_rows: usize) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(0i64..4, cols..=cols), 1..=max_rows).prop_map(
        move |rows| {
            let mut columns: Vec<(String, Vec<Value>)> =
                (0..cols).map(|c| (format!("c{c}"), Vec::new())).collect();
            for row in &rows {
                for (c, &v) in row.iter().enumerate() {
                    columns[c].1.push(Value::Int(v));
                }
            }
            Relation::from_columns(columns).unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fast sorted-scan checker agrees with the pairwise definition on
    /// every list pair (including overlapping and multi-attribute lists).
    #[test]
    fn checker_agrees_with_pairwise_definition(rel in small_relation(3, 12)) {
        let lists = all_lists(&[0, 1, 2], 2);
        for x in &lists {
            for y in &lists {
                prop_assert_eq!(
                    check_od(&rel, x, y).is_valid(),
                    check_od_pairwise(&rel, x, y),
                    "lists {} -> {}", x, y
                );
            }
        }
    }

    /// Discovery output is invariant under row permutation (order
    /// dependencies are properties of the tuple *set*).
    #[test]
    fn discovery_invariant_under_row_shuffle(rel in small_relation(3, 12), seed in 0u64..1000) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut perm: Vec<usize> = (0..rel.num_rows()).collect();
        perm.shuffle(&mut rng);
        let shuffled = Relation::from_columns(
            (0..rel.num_columns())
                .map(|c| {
                    (
                        format!("c{c}"),
                        perm.iter().map(|&r| rel.value(r, c).clone()).collect(),
                    )
                })
                .collect(),
        ).unwrap();

        let a = discover(&rel, &DiscoveryConfig::default());
        let b = discover(&shuffled, &DiscoveryConfig::default());
        prop_assert_eq!(a.ocds, b.ocds);
        prop_assert_eq!(a.ods, b.ods);
        prop_assert_eq!(a.constants, b.constants);
        prop_assert_eq!(a.equivalence_classes, b.equivalence_classes);
    }

    /// Every dependency discovery emits holds by the pairwise definition.
    #[test]
    fn discovery_is_sound(rel in small_relation(4, 10)) {
        let result = discover(&rel, &DiscoveryConfig::default());
        for od in &result.ods {
            prop_assert!(check_od_pairwise(&rel, &od.lhs, &od.rhs), "OD {}", od);
        }
        for ocd in &result.ocds {
            let xy = ocd.lhs.concat(&ocd.rhs);
            let yx = ocd.rhs.concat(&ocd.lhs);
            prop_assert!(check_od_pairwise(&rel, &xy, &yx), "OCD {}", ocd);
            prop_assert!(check_od_pairwise(&rel, &yx, &xy), "OCD {}", ocd);
            prop_assert!(ocd.is_syntactically_minimal(), "OCD {}", ocd);
        }
        // Constants really are constant; equivalences really are mutual ODs.
        for &c in &result.constants {
            prop_assert!(rel.meta(c).is_constant());
        }
        for class in &result.equivalence_classes {
            let rep = AttrList::single(class[0]);
            for &other in &class[1..] {
                let o = AttrList::single(other);
                prop_assert!(check_od_pairwise(&rel, &rep, &o));
                prop_assert!(check_od_pairwise(&rel, &o, &rep));
            }
        }
    }

    /// Differential: the work-stealing batch scheduler returns exactly the
    /// sequential result on arbitrary relations and worker counts —
    /// dependencies, check counts, per-level stats and termination alike.
    #[test]
    fn workstealing_equals_sequential(rel in small_relation(4, 14), workers in 1usize..6) {
        let seq = discover(&rel, &DiscoveryConfig::default());
        let ws = discover(&rel, &DiscoveryConfig {
            mode: ParallelMode::WorkStealing(workers),
            ..DiscoveryConfig::default()
        });
        prop_assert_eq!(&seq.ocds, &ws.ocds);
        prop_assert_eq!(&seq.ods, &ws.ods);
        prop_assert_eq!(seq.checks, ws.checks);
        prop_assert_eq!(&seq.levels, &ws.levels);
        prop_assert_eq!(&seq.termination, &ws.termination);
    }

    /// Differential: with a sample covering the whole relation the
    /// sample-first pipeline degenerates to exact discovery — the same
    /// canonical OCD set under every escalation backend, with
    /// byte-identical JSON across backends.
    #[test]
    fn full_sample_pipeline_equals_exact_discovery(rel in small_relation(3, 14), seed in 0u64..500) {
        use ocddiscover::core::approximate::{discover_approximate_with, ApproxConfig};
        use ocddiscover::core::json::approx_result_to_json;
        use ocddiscover::Ocd;
        use std::collections::HashSet;

        let exact = discover(&rel, &DiscoveryConfig {
            column_reduction: false,
            ..DiscoveryConfig::default()
        });
        let exact_set: HashSet<Ocd> = exact.ocds.iter().map(Ocd::canonical).collect();
        let mut json0: Option<String> = None;
        for mode in [ParallelMode::Sequential, ParallelMode::WorkStealing(3)] {
            let cfg = ApproxConfig {
                base: DiscoveryConfig { mode, ..DiscoveryConfig::default() },
                sample_rows: Some(rel.num_rows() + 1), // ≥ rows → exhaustive
                epsilon: 0.0,
                seed,
                ..ApproxConfig::default()
            };
            let approx = discover_approximate_with(&rel, &cfg);
            let approx_set: HashSet<Ocd> =
                approx.ocds.iter().map(|a| a.ocd.canonical()).collect();
            prop_assert_eq!(&exact_set, &approx_set, "mode {:?}", mode);
            prop_assert!(approx.approx.as_ref().is_some_and(|s| s.exhaustive));
            let json = approx_result_to_json(&approx, &rel);
            match &json0 {
                None => json0 = Some(json),
                Some(first) => prop_assert_eq!(first, &json, "JSON differs under {:?}", mode),
            }
        }
    }

    /// Differential: a genuinely sampled run (half the rows; at ε = 0
    /// every surviving candidate escalates, at ε = 0.1 the borderline ones
    /// need the full error) is deterministic for a fixed seed. Under both
    /// checker backends, with and without the shared cache, and under a
    /// random `max_checks` cap and a level cap, `Sequential` and
    /// `WorkStealing(k)` agree on results, `checks`, termination, stats and
    /// the JSON bytes — and the backend and cache never change results.
    #[test]
    fn sampled_escalations_deterministic_across_modes(
        rel in small_relation(4, 20),
        seed in 0u64..1000,
        eps in 0usize..2,
        cap in 0u64..40,
        capped in 0usize..2,
    ) {
        use ocddiscover::core::approximate::{discover_approximate_with, ApproxConfig};
        use ocddiscover::core::json::approx_result_to_json;
        use ocddiscover::CheckerBackend;

        let max_checks = (cap > 0).then_some(cap);
        let max_level = (capped == 1).then_some(3);
        let mut first: Option<String> = None;
        for checker in [CheckerBackend::Resort, CheckerBackend::SortedPartitions] {
            for shared_cache in [false, true] {
                let cfg = |mode| ApproxConfig {
                    base: DiscoveryConfig {
                        mode,
                        checker,
                        shared_cache,
                        max_checks,
                        max_level,
                        ..DiscoveryConfig::default()
                    },
                    sample_rows: Some((rel.num_rows() / 2).max(1)),
                    epsilon: [0.0, 0.1][eps],
                    seed,
                    ..ApproxConfig::default()
                };
                let seq = discover_approximate_with(&rel, &cfg(ParallelMode::Sequential));
                let json = approx_result_to_json(&seq, &rel);
                for mode in [ParallelMode::WorkStealing(2), ParallelMode::WorkStealing(3)] {
                    let par = discover_approximate_with(&rel, &cfg(mode));
                    let tag = format!("{mode:?}/{checker:?}/shared={shared_cache}/{max_checks:?}/{max_level:?}");
                    prop_assert_eq!(&seq.ocds, &par.ocds, "{}", tag);
                    prop_assert_eq!(&seq.ods, &par.ods, "{}", tag);
                    prop_assert_eq!(seq.checks, par.checks, "{}", tag);
                    prop_assert_eq!(&seq.termination, &par.termination, "{}", tag);
                    prop_assert_eq!(&seq.approx, &par.approx, "{}", tag);
                    prop_assert_eq!(&json, &approx_result_to_json(&par, &rel), "JSON differs under {}", tag);
                }
                match &first {
                    None => first = Some(json),
                    Some(first) => prop_assert_eq!(first, &json, "{:?}/shared={}", checker, shared_cache),
                }
            }
        }
    }

    /// Differential under a random `max_checks` budget: the deterministic
    /// per-branch allowances make the truncated partial results identical
    /// between `Sequential` and `WorkStealing(n)` too.
    #[test]
    fn workstealing_budget_partials_equal_sequential(
        rel in small_relation(4, 12),
        workers in 1usize..5,
        cap in 1u64..300,
    ) {
        let base = DiscoveryConfig { max_checks: Some(cap), ..DiscoveryConfig::default() };
        let seq = discover(&rel, &base);
        let ws = discover(&rel, &DiscoveryConfig {
            mode: ParallelMode::WorkStealing(workers),
            ..base
        });
        prop_assert_eq!(&seq.ocds, &ws.ocds);
        prop_assert_eq!(&seq.ods, &ws.ods);
        prop_assert_eq!(seq.checks, ws.checks);
        prop_assert_eq!(&seq.termination, &ws.termination);
    }

    /// Theorem 4.1 as a data property: `XY → YX` valid iff `YX → XY` valid.
    #[test]
    fn theorem_4_1_holds(rel in small_relation(2, 14)) {
        let x = AttrList::single(0);
        let y = AttrList::single(1);
        let xy = x.concat(&y);
        let yx = y.concat(&x);
        prop_assert_eq!(
            check_od(&rel, &xy, &yx).is_valid(),
            check_od(&rel, &yx, &xy).is_valid()
        );
    }

    /// Normalization (AX3) is semantics-preserving: a list and its
    /// normalized form are order equivalent on every instance.
    #[test]
    fn normalization_preserves_order(rel in small_relation(3, 10), ids in prop::collection::vec(0usize..3, 1..5)) {
        let list = AttrList::from(ids);
        let norm = list.normalized();
        prop_assert!(check_od_pairwise(&rel, &list, &norm));
        prop_assert!(check_od_pairwise(&rel, &norm, &list));
    }

    /// Value parsing never loses the total order: codes mirror values.
    #[test]
    fn rank_codes_mirror_value_order(vals in prop::collection::vec(prop::option::of(-50i64..50), 1..30)) {
        let values: Vec<Value> = vals.iter().map(|v| match v {
            Some(i) => Value::Int(*i),
            None => Value::Null,
        }).collect();
        let rel = Relation::from_columns(vec![("a".to_string(), values.clone())]).unwrap();
        for i in 0..values.len() {
            for j in 0..values.len() {
                prop_assert_eq!(
                    values[i].cmp(&values[j]),
                    rel.code(i, 0).cmp(&rel.code(j, 0))
                );
            }
        }
    }

    /// `head(n)` never invents dependencies that the checker would reject:
    /// an OD valid on the full relation is valid on every prefix.
    #[test]
    fn ods_survive_row_removal(rel in small_relation(2, 16), keep in 1usize..16) {
        let x = AttrList::single(0);
        let y = AttrList::single(1);
        if check_od(&rel, &x, &y).is_valid() {
            let head = rel.head(keep.min(rel.num_rows()));
            prop_assert!(check_od(&head, &x, &y).is_valid());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bidirectional checks are invariant under the global polarity flip.
    #[test]
    fn bidi_global_flip_invariance(rel in small_relation(3, 12)) {
        use ocddiscover::core::bidirectional::{check_bidi_od, Direction, Mark, MarkedList};
        for d0 in [Direction::Asc, Direction::Desc] {
            for d1 in [Direction::Asc, Direction::Desc] {
                let x = MarkedList::single(Mark { column: 0, direction: d0 });
                let y = MarkedList::from_marks(vec![
                    Mark { column: 1, direction: d1 },
                    Mark { column: 2, direction: d0 },
                ]);
                prop_assert_eq!(
                    check_bidi_od(&rel, &x, &y).is_valid(),
                    check_bidi_od(&rel, &x.flipped(), &y.flipped()).is_valid()
                );
            }
        }
    }

    /// All-ascending bidirectional checks agree with the unidirectional
    /// checker on every list pair.
    #[test]
    fn bidi_asc_matches_unidirectional(rel in small_relation(3, 12)) {
        use ocddiscover::core::bidirectional::{check_bidi_od, Mark, MarkedList};
        let lists = all_lists(&[0, 1, 2], 2);
        for x in &lists {
            for y in &lists {
                let mx = MarkedList::from_marks(
                    x.as_slice().iter().map(|&c| Mark::asc(c)).collect(),
                );
                let my = MarkedList::from_marks(
                    y.as_slice().iter().map(|&c| Mark::asc(c)).collect(),
                );
                prop_assert_eq!(
                    check_bidi_od(&rel, &mx, &my).is_valid(),
                    check_od(&rel, x, y).is_valid(),
                    "lists {} -> {}", x, y
                );
            }
        }
    }

    /// The approximate error is zero exactly when the checker validates,
    /// and removal witnesses always repair the dependency.
    #[test]
    fn approx_error_and_witnesses_consistent(rel in small_relation(2, 14)) {
        use ocddiscover::core::approximate::{od_error, removal_witnesses};
        let x = AttrList::single(0);
        let y = AttrList::single(1);
        let err = od_error(&rel, &x, &y);
        prop_assert_eq!(err.is_exact(), check_od(&rel, &x, &y).is_valid());

        let witnesses = removal_witnesses(&rel, &x, &y);
        let keep: Vec<usize> = (0..rel.num_rows())
            .filter(|r| !witnesses.contains(&(*r as u32)))
            .collect();
        let repaired = Relation::from_columns(
            (0..rel.num_columns())
                .map(|c| {
                    (
                        format!("c{c}"),
                        keep.iter().map(|&r| rel.value(r, c).clone()).collect(),
                    )
                })
                .collect(),
        ).unwrap();
        prop_assert!(check_od(&repaired, &x, &y).is_valid());
    }

    /// Sorted-partition checking agrees with the sort-based checker.
    #[test]
    fn partition_checker_agrees(rel in small_relation(3, 12)) {
        use ocddiscover::core::sorted_partitions::PartitionChecker;
        let mut checker = PartitionChecker::new(&rel);
        let lists = all_lists(&[0, 1, 2], 2);
        for x in &lists {
            for y in &lists {
                prop_assert_eq!(
                    checker.check_od(x, y).is_valid(),
                    check_od(&rel, x, y).is_valid(),
                    "lists {} -> {}", x, y
                );
            }
        }
    }
}

/// Build a 4-column relation from flat rows, reducing values modulo
/// `domain` so one strategy covers near-constant, narrow and near-key
/// columns (and with them all three sort kernels: counting, packed radix,
/// chained refinement).
fn relation_mod_domain(rows: &[Vec<i64>], domain: i64) -> Relation {
    let cols = rows.first().map_or(0, |r| r.len());
    let mut columns: Vec<(String, Vec<Value>)> =
        (0..cols).map(|c| (format!("c{c}"), Vec::new())).collect();
    for row in rows {
        for (c, &v) in row.iter().enumerate() {
            // Vary the effective domain per column: c0 gets the full range,
            // later columns get progressively narrower ones.
            let d = (domain >> (2 * c)).max(1);
            columns[c].1.push(Value::Int(v % d));
        }
    }
    Relation::from_columns(columns).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The distribution-based sort kernels (counting / packed radix /
    /// chained counting refinement) agree with the comparator oracle on
    /// every attribute list, including duplicates, across domain widths.
    #[test]
    fn sort_kernels_match_comparator_oracle(
        domain in 1i64..60_000,
        rows in prop::collection::vec(prop::collection::vec(0i64..1_000_000, 4usize..=4), 1..40)
    ) {
        use ocddiscover::relation::sort::{sort_index_by, sort_index_by_comparator};
        let rel = relation_mod_domain(&rows, domain);
        for cols in [
            vec![0usize], vec![3], vec![1, 0], vec![2, 1, 0],
            vec![0, 1, 2, 3], vec![1, 1, 2],
        ] {
            prop_assert_eq!(
                sort_index_by(&rel, &cols),
                sort_index_by_comparator(&rel, &cols),
                "cols {:?}", cols
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpoint/resume differential (DESIGN.md §13): on arbitrary
    /// relations, resuming from *any* level-boundary dump reproduces the
    /// uninterrupted result exactly — dependencies, check counts, per-level
    /// stats and termination — whether the resume runs sequentially or on
    /// the work-stealing backend. Checkpointing itself must also leave the
    /// discovered set untouched.
    #[test]
    fn resume_from_any_boundary_equals_uninterrupted(
        rel in small_relation(4, 12),
        workers in 1usize..4,
    ) {
        use ocddiscover::core::list_snapshots;
        use ocddiscover::{discover_resume, read_snapshot, CheckpointPolicy};
        use std::sync::atomic::{AtomicUsize, Ordering};

        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("ocdd-resume-prop-{}-{case}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let mut policy = CheckpointPolicy::new(&dir);
        policy.keep_last = 0; // retain every boundary
        policy.delete_on_complete = false;

        let full = discover(&rel, &DiscoveryConfig::default());
        let ckpt = discover(&rel, &DiscoveryConfig {
            checkpoint: Some(policy),
            ..DiscoveryConfig::default()
        });
        prop_assert_eq!(&full.ods, &ckpt.ods, "checkpointing changed the result");
        prop_assert_eq!(&full.ocds, &ckpt.ocds, "checkpointing changed the result");
        prop_assert!(
            ckpt.checkpoint.as_ref().is_some_and(|s| s.write_errors == 0),
            "dumps must all land: {:?}", ckpt.checkpoint
        );

        let configs = [
            DiscoveryConfig::default(),
            DiscoveryConfig {
                mode: ParallelMode::WorkStealing(workers),
                ..DiscoveryConfig::default()
            },
        ];
        for dump in list_snapshots(&dir, None).unwrap() {
            let snap = read_snapshot(&dump).unwrap();
            for config in &configs {
                let resumed = discover_resume(&rel, config, &snap).unwrap();
                let tag = format!("level {}/{:?}", snap.level, config.mode);
                prop_assert_eq!(&full.ocds, &resumed.ocds, "{}: OCDs differ", tag);
                prop_assert_eq!(&full.ods, &resumed.ods, "{}: ODs differ", tag);
                prop_assert_eq!(&full.constants, &resumed.constants, "{}", tag);
                prop_assert_eq!(
                    &full.equivalence_classes, &resumed.equivalence_classes,
                    "{}", tag
                );
                prop_assert_eq!(full.checks, resumed.checks, "{}: checks differ", tag);
                prop_assert_eq!(&full.levels, &resumed.levels, "{}", tag);
                prop_assert_eq!(&full.termination, &resumed.termination, "{}", tag);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
