//! Every worker count must return exactly the same dependencies, checks
//! and statistics — parallelism may only change wall-clock time. The same
//! holds for checker backends and the shared prefix cache: they are pure
//! performance knobs.

use ocdd_iosafe::json::{parse, Json};
use ocddiscover::datasets::{Dataset, RowScale};
use ocddiscover::{discover, CheckerBackend, DiscoveryConfig, ParallelMode, TerminationReason};

fn assert_same_results(ds: Dataset, rows: usize) {
    let rel = ds.generate(RowScale::Rows(rows));
    let seq = discover(&rel, &DiscoveryConfig::default());
    assert!(
        seq.complete(),
        "{} should complete at {rows} rows",
        ds.name()
    );
    for mode in [
        ParallelMode::WorkStealing(1),
        ParallelMode::WorkStealing(2),
        ParallelMode::WorkStealing(4),
    ] {
        let par = discover(
            &rel,
            &DiscoveryConfig {
                mode,
                ..DiscoveryConfig::default()
            },
        );
        assert_eq!(
            seq.ocds,
            par.ocds,
            "{}: OCDs differ under {mode:?}",
            ds.name()
        );
        assert_eq!(seq.ods, par.ods, "{}: ODs differ under {mode:?}", ds.name());
        assert_eq!(seq.constants, par.constants);
        assert_eq!(seq.equivalence_classes, par.equivalence_classes);
        assert_eq!(seq.checks, par.checks, "{}: same candidate tree", ds.name());
        assert_eq!(
            seq.candidates_generated,
            par.candidates_generated,
            "{}: same generation count",
            ds.name()
        );
    }
}

#[test]
fn hepatitis_deterministic_across_modes() {
    assert_same_results(Dataset::Hepatitis, 155);
}

#[test]
fn horse_deterministic_across_modes() {
    assert_same_results(Dataset::Horse, 300);
}

#[test]
fn dbtesma_deterministic_across_modes() {
    assert_same_results(Dataset::Dbtesma1k, 500);
}

#[test]
fn ncvoter_deterministic_across_modes() {
    assert_same_results(Dataset::Ncvoter1k, 400);
}

/// The full configuration matrix: every execution mode × checker backend ×
/// shared-cache setting must produce a byte-identical canonical result.
#[test]
fn full_mode_backend_cache_matrix_is_deterministic() {
    let rel = Dataset::Horse.generate(RowScale::Rows(220));
    let baseline = discover(&rel, &DiscoveryConfig::default());
    assert!(baseline.complete());
    for mode in [ParallelMode::Sequential, ParallelMode::WorkStealing(4)] {
        for backend in [CheckerBackend::Resort, CheckerBackend::SortedPartitions] {
            for shared_cache in [false, true] {
                let config = DiscoveryConfig {
                    mode,
                    checker: backend,
                    shared_cache,
                    ..DiscoveryConfig::default()
                };
                let run = discover(&rel, &config);
                let tag = format!("{mode:?}/{backend:?}/shared={shared_cache}");
                assert_eq!(baseline.ocds, run.ocds, "{tag}: OCDs differ");
                assert_eq!(baseline.ods, run.ods, "{tag}: ODs differ");
                assert_eq!(baseline.constants, run.constants, "{tag}");
                assert_eq!(
                    baseline.equivalence_classes, run.equivalence_classes,
                    "{tag}"
                );
                assert_eq!(baseline.checks, run.checks, "{tag}: same candidate tree");
                assert_eq!(
                    baseline.candidates_generated, run.candidates_generated,
                    "{tag}"
                );
                assert_eq!(baseline.levels, run.levels, "{tag}: level stats differ");
                assert_eq!(
                    run.cache.is_some(),
                    shared_cache && backend != CheckerBackend::Resort,
                    "{tag}: cache stats presence"
                );
                assert_eq!(
                    run.scheduler.is_some(),
                    matches!(mode, ParallelMode::WorkStealing(_)),
                    "{tag}: scheduler stats presence"
                );
            }
        }
    }
}

/// A starved shared cache (constant eviction) still changes nothing.
#[test]
fn tiny_shared_cache_budget_matches_baseline() {
    let rel = Dataset::Hepatitis.generate(RowScale::Rows(120));
    let baseline = discover(&rel, &DiscoveryConfig::default());
    // The epoch cache under one worker and under three.
    for mode in [ParallelMode::Sequential, ParallelMode::WorkStealing(3)] {
        let run = discover(
            &rel,
            &DiscoveryConfig {
                mode,
                checker: CheckerBackend::SortedPartitions,
                shared_cache: true,
                cache_budget_bytes: 2_048,
                ..DiscoveryConfig::default()
            },
        );
        assert_eq!(baseline.ocds, run.ocds, "{mode:?}");
        assert_eq!(baseline.ods, run.ods, "{mode:?}");
        assert_eq!(baseline.checks, run.checks, "{mode:?}");
    }
}

/// A `max_checks` budget that trips mid-level must still be deterministic:
/// the budget is split into per-branch allowances in canonical seed order,
/// so every worker count truncates the search at exactly the same
/// candidates and returns an identical partial result.
#[test]
fn mid_level_check_budget_truncates_identically_across_modes() {
    let rel = Dataset::Horse.generate(RowScale::Rows(220));
    let full = discover(&rel, &DiscoveryConfig::default());
    assert!(full.complete());
    // A budget well inside the search (after reduction, before exhaustion)
    // so several branches run dry mid-traversal.
    let max_checks = full.checks / 3;
    let seq = discover(
        &rel,
        &DiscoveryConfig {
            max_checks: Some(max_checks),
            ..DiscoveryConfig::default()
        },
    );
    assert_eq!(seq.termination, TerminationReason::CheckBudget);
    assert!(!seq.complete());
    assert!(seq.ocds.len() < full.ocds.len(), "budget must truncate");
    assert!(seq.ocds.iter().all(|o| full.ocds.contains(o)));
    for mode in [
        ParallelMode::WorkStealing(1),
        ParallelMode::WorkStealing(2),
        ParallelMode::WorkStealing(4),
    ] {
        let par = discover(
            &rel,
            &DiscoveryConfig {
                mode,
                max_checks: Some(max_checks),
                ..DiscoveryConfig::default()
            },
        );
        assert_eq!(par.termination, TerminationReason::CheckBudget, "{mode:?}");
        assert_eq!(seq.ocds, par.ocds, "partial OCDs differ under {mode:?}");
        assert_eq!(seq.ods, par.ods, "partial ODs differ under {mode:?}");
        assert_eq!(seq.checks, par.checks, "{mode:?}: same truncation point");
        assert_eq!(seq.candidates_generated, par.candidates_generated);
    }
}

/// Rank-code storage width is a pure layout knob: widening every column's
/// codes (u8 → u16 → u32 mirrors of the same ranks) must leave the whole
/// discovery result untouched in every mode × backend combination — the
/// scan kernels may dispatch differently per width, but the dependencies,
/// check counts and witness-driven pruning they produce are identical.
#[test]
fn code_width_sweep_is_deterministic() {
    use ocddiscover::relation::CodeWidth;

    let natural = Dataset::Hepatitis.generate(RowScale::Rows(140));
    let baseline = discover(&natural, &DiscoveryConfig::default());
    assert!(baseline.complete());
    for width in [CodeWidth::U8, CodeWidth::U16, CodeWidth::U32] {
        let mut rel = natural.clone();
        rel.widen_code_width(width);
        for mode in [ParallelMode::Sequential, ParallelMode::WorkStealing(3)] {
            for backend in [CheckerBackend::Resort, CheckerBackend::SortedPartitions] {
                let run = discover(
                    &rel,
                    &DiscoveryConfig {
                        mode,
                        checker: backend,
                        ..DiscoveryConfig::default()
                    },
                );
                let tag = format!("{width:?}/{mode:?}/{backend:?}");
                assert_eq!(baseline.ocds, run.ocds, "{tag}: OCDs differ");
                assert_eq!(baseline.ods, run.ods, "{tag}: ODs differ");
                assert_eq!(baseline.constants, run.constants, "{tag}");
                assert_eq!(
                    baseline.equivalence_classes, run.equivalence_classes,
                    "{tag}"
                );
                assert_eq!(baseline.checks, run.checks, "{tag}: same candidate tree");
                assert_eq!(baseline.levels, run.levels, "{tag}: level stats differ");
            }
        }
    }
}

/// Parse a JSON report and drop its observability-only members
/// (`elapsed_ms`, `kernels`, `scheduler`, `checkpoint`), leaving exactly
/// the deterministic result fields.
fn strip_observability(json: &str) -> Json {
    let mut v = parse(json).unwrap_or_else(|e| panic!("{e}: {json}"));
    if let Json::Obj(fields) = &mut v {
        fields.retain(|(k, _)| {
            !["elapsed_ms", "kernels", "scheduler", "checkpoint"].contains(&k.as_str())
        });
    }
    v
}

/// Checkpoint/resume sweep: dump every level boundary of a run, then for
/// every boundary k pretend the process died right after it — resuming
/// from the level-k dump must reproduce the uninterrupted run exactly, in
/// both modes and both shared-cache settings, down to the JSON
/// report (modulo the observability keys, which track wall-clock and
/// scheduling). The real SIGKILL version of this sweep lives in
/// tests/crash_resume.rs; this one covers the full mode × cache matrix.
#[test]
fn resume_from_every_level_boundary_matches_uninterrupted() {
    use ocddiscover::core::json::result_to_json;
    use ocddiscover::core::list_snapshots;
    use ocddiscover::{discover_resume, read_snapshot, CheckpointPolicy};

    let rel = Dataset::Hepatitis.generate(RowScale::Rows(130));
    let dir = std::env::temp_dir().join(format!("ocdd-resume-sweep-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let mut policy = CheckpointPolicy::new(&dir);
    policy.keep_last = 0; // retain every boundary for the sweep
    policy.delete_on_complete = false;
    let ckpt = discover(
        &rel,
        &DiscoveryConfig {
            checkpoint: Some(policy),
            ..DiscoveryConfig::default()
        },
    );
    assert!(ckpt.complete());
    assert!(
        ckpt.checkpoint
            .as_ref()
            .is_some_and(|s| s.write_errors == 0),
        "dumps must all land: {:?}",
        ckpt.checkpoint
    );

    let dumps = list_snapshots(&dir, None).expect("list dumps");
    assert!(dumps.len() >= 2, "expected several level boundaries");
    for dump in &dumps {
        let snap = read_snapshot(dump).expect("read dump");
        for mode in [ParallelMode::Sequential, ParallelMode::WorkStealing(4)] {
            for shared_cache in [false, true] {
                let config = DiscoveryConfig {
                    mode,
                    shared_cache,
                    ..DiscoveryConfig::default()
                };
                let tag = format!("level {}/{mode:?}/shared={shared_cache}", snap.level);
                let full = discover(&rel, &config);
                let resumed = discover_resume(&rel, &config, &snap).expect("resume");
                assert_eq!(full.ocds, resumed.ocds, "{tag}: OCDs differ");
                assert_eq!(full.ods, resumed.ods, "{tag}: ODs differ");
                assert_eq!(full.constants, resumed.constants, "{tag}");
                assert_eq!(
                    full.equivalence_classes, resumed.equivalence_classes,
                    "{tag}"
                );
                assert_eq!(full.checks, resumed.checks, "{tag}: same candidate tree");
                assert_eq!(
                    full.candidates_generated, resumed.candidates_generated,
                    "{tag}"
                );
                assert_eq!(full.levels, resumed.levels, "{tag}: level stats differ");
                assert_eq!(full.termination, resumed.termination, "{tag}");
                assert_eq!(
                    strip_observability(&result_to_json(&full, &rel)),
                    strip_observability(&result_to_json(&resumed, &rel)),
                    "{tag}: JSON reports differ"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn per_level_stats_agree_across_modes() {
    let rel = Dataset::Horse.generate(RowScale::Rows(200));
    let seq = discover(&rel, &DiscoveryConfig::default());
    for mode in [ParallelMode::WorkStealing(2), ParallelMode::WorkStealing(4)] {
        let par = discover(
            &rel,
            &DiscoveryConfig {
                mode,
                ..DiscoveryConfig::default()
            },
        );
        assert_eq!(
            seq.levels, par.levels,
            "{mode:?}: per-level stats must merge identically"
        );
    }
}
