//! Golden bytes of the three JSON documents the engine writes: the exact
//! report (`result_to_json`), the approximate report
//! (`approx_result_to_json`) and the checkpoint dump (`snapshot_to_json`).
//!
//! Each input is built to reach every optional block its writer has, and
//! strings that need escaping (`"`, `\`, a newline, U+0001) next to one
//! that must pass through unescaped (a non-BMP character). The fixtures
//! under `tests/fixtures/` are the expected bytes; a mismatch writes the
//! actual bytes next to the temp dir and names the file, so the diff can
//! be read with any tool.

use ocddiscover::core::json::{approx_result_to_json, result_to_json};
use ocddiscover::core::snapshot::{
    ApproxMeta, CacheMeta, CandidatePair, SnapshotBranch, SnapshotConfig, SnapshotFailure,
};
use ocddiscover::core::{
    snapshot_to_json, CacheStats, CheckpointStats, LevelStats, SNAPSHOT_VERSION,
};
use ocddiscover::relation::sort::kernel_stats::KernelCounts;
use ocddiscover::{
    ApproxConfig, AttrList, DiscoveryConfig, DiscoveryResult, Ocd, Od, Relation, SchedulerStats,
    SearchSnapshot, TerminationReason, Value, WorkerSchedStats,
};
use std::time::Duration;

/// Compare `actual` with the fixture's bytes; on a mismatch, leave the
/// actual bytes in the temp dir and fail naming both files.
fn assert_golden(actual: &str, expected: &str, fixture: &str) {
    if actual != expected {
        let path = std::env::temp_dir().join(format!("{fixture}.actual"));
        let _ = std::fs::write(&path, actual);
        panic!(
            "bytes differ from tests/fixtures/{fixture}; actual bytes written to {}",
            path.display()
        );
    }
}

/// Five columns whose names need every escape class, plus a non-BMP name.
fn awkward_relation() -> Relation {
    let names = [
        "say \"hi\"",
        "back\\slash",
        "two\nlines",
        "ctl\u{1}char",
        "crab \u{1F980}",
    ];
    Relation::from_columns(
        names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let i = i as i64;
                (
                    name.to_string(),
                    vec![Value::Int(i), Value::Int(i + 1), Value::Int(i + 2)],
                )
            })
            .collect(),
    )
    .expect("relation")
}

#[test]
fn exact_report_bytes_are_pinned() {
    let rel = awkward_relation();
    let result = DiscoveryResult {
        ocds: vec![
            Ocd::new(AttrList::from(vec![0]), AttrList::from(vec![1, 2])),
            Ocd::new(AttrList::from(vec![3]), AttrList::from(vec![4])),
        ],
        ods: vec![Od::new(AttrList::from(vec![2, 0]), AttrList::from(vec![4]))],
        constants: vec![3],
        equivalence_classes: vec![vec![0, 1], vec![2, 4]],
        checks: 12_345,
        elapsed: Duration::from_micros(1_234_567),
        termination: TerminationReason::WorkerFailure {
            branches: vec![(0, 1), (2, 4)],
            message: "worker panicked: \"boom\"\n\tat \\src \u{1} \u{1F980}".to_string(),
        },
        scheduler: Some(SchedulerStats {
            batches: 7,
            levels: 3,
            workers: vec![
                WorkerSchedStats {
                    batches: 4,
                    steals: 1,
                },
                WorkerSchedStats {
                    batches: 3,
                    steals: 2,
                },
            ],
        }),
        kernels: KernelCounts {
            counting: 1,
            packed_radix: 2,
            chained_refine: 3,
            comparator: 4,
            scan_scalar: 5,
            scan_block: 6,
            scan_simd: 0,
        },
        checkpoint: Some(CheckpointStats {
            snapshots_written: 5,
            files_deleted: 2,
            write_errors: 1,
            last_level: 4,
        }),
        ..DiscoveryResult::default()
    };
    assert_golden(
        &result_to_json(&result, &rel),
        include_str!("fixtures/golden_report.json"),
        "golden_report.json",
    );
}

/// 400 rows where `b` follows `a` except for four swapped rows, so the
/// sampled run keeps `a ~ b` with a non-zero error.
fn nearly_ordered_relation() -> Relation {
    let rows: i64 = 400;
    let a: Vec<i64> = (0..rows).collect();
    let mut b: Vec<i64> = a.iter().map(|v| v / 2).collect();
    for i in [37usize, 141, 233, 367] {
        b.swap(i, i + 9);
    }
    let c: Vec<i64> = a.iter().map(|v| (v * 7) % 13).collect();
    let d: Vec<i64> = a.iter().map(|v| rows - v).collect();
    let e: Vec<i64> = a.iter().map(|v| v / 4).collect();
    Relation::from_columns(
        [("a", a), ("b", b), ("c", c), ("d", d), ("e", e)]
            .into_iter()
            .map(|(name, col)| (name.to_string(), col.into_iter().map(Value::Int).collect()))
            .collect(),
    )
    .expect("relation")
}

#[test]
fn approximate_report_bytes_are_pinned() {
    let rel = nearly_ordered_relation();
    let cfg = ApproxConfig {
        base: DiscoveryConfig::default(),
        sample_rows: Some(100),
        epsilon: 0.05,
        ..ApproxConfig::default()
    };
    let res = ocddiscover::discover_approximate_with(&rel, &cfg);
    assert!(res.complete());
    assert!(
        res.ocds.iter().any(|o| o.error > 0.0),
        "an OCD with a non-zero error"
    );
    assert_golden(
        &approx_result_to_json(&res, &rel),
        include_str!("fixtures/golden_approx_report.json"),
        "golden_approx_report.json",
    );
}

/// The maximal dump of the snapshot module's
/// `maximal_dump_round_trips_byte_identically`: every optional field set.
fn maximal_snapshot() -> SearchSnapshot {
    let pair = |x: &[usize], y: &[usize]| CandidatePair {
        x: x.to_vec(),
        y: y.to_vec(),
    };
    SearchSnapshot {
        version: SNAPSHOT_VERSION,
        manifest: 0xdead_beef_0123_4567,
        config: SnapshotConfig {
            max_checks: Some(1000),
            max_level: None,
            dedup_candidates: true,
            column_reduction: true,
        },
        level: 3,
        frontier: vec![pair(&[0, 2], &[1]), pair(&[0], &[1, 3])],
        branches: vec![
            SnapshotBranch {
                branch: (0, 1),
                allowance: 500,
                spent: 12,
                stopped: false,
                failed: false,
            },
            SnapshotBranch {
                branch: (0, 2),
                allowance: 500,
                spent: 500,
                stopped: true,
                failed: false,
            },
        ],
        failures: vec![SnapshotFailure {
            branch: (1, 2),
            message: "boom \"quoted\"\n".to_string(),
        }],
        ocds: vec![pair(&[0], &[1])],
        ods: vec![pair(&[0], &[3])],
        generated: 42,
        levels: vec![LevelStats {
            level: 2,
            candidates: 6,
            valid_ocds: 2,
            valid_ods: 1,
        }],
        level_capped: false,
        check_budget_hit: true,
        checks: 77,
        elapsed_ms: 1234,
        kernels: KernelCounts {
            counting: 1,
            packed_radix: 2,
            chained_refine: 3,
            comparator: 4,
            scan_scalar: 5,
            scan_block: 6,
            scan_simd: 9,
        },
        cache: Some(CacheMeta {
            shared: true,
            budget_bytes: 1 << 20,
            stats: CacheStats {
                hits: 10,
                misses: 3,
                evictions: 1,
                resident_bytes: 512,
                entries: 2,
            },
        }),
        approx: Some(ApproxMeta {
            seed: 0xfeed_f00d,
            sample_rows: 2_000,
            total_rows: 150_000,
            strategy: "stratified".to_string(),
            strategy_column: Some(4),
            sample_manifest: 0x0123_4567_89ab_cdef,
            epsilon_micros: 10_000,
            confidence_micros: 990_000,
            ocd_errors: vec![(0, 2_000), (17, 2_000)],
            estimated: 91,
            accepted_by_sample: 40,
            rejected_by_sample: 38,
            escalated: 13,
            sample_row_scans: 728_000,
            full_row_scans: 7_800_000,
        }),
        pruned: vec![pair(&[2], &[3])],
        termination: Some(TerminationReason::WorkerFailure {
            branches: vec![(1, 2), (3, 4)],
            message: "worker panicked: index out of bounds \"len 0\"".to_string(),
        }),
    }
}

#[test]
fn maximal_snapshot_bytes_are_pinned() {
    assert_golden(
        &snapshot_to_json(&maximal_snapshot()),
        include_str!("fixtures/golden_snapshot.json"),
        "golden_snapshot.json",
    );
}
