//! Golden results of the sample-first pipeline on the triage workload.
//!
//! For `approx_triage::workload_relation(20_000, s)`, `s` = 1–3, at
//! `default_config(2_000, 1)` this pins every discovered OCD with its
//! exact `(removals, rows)` error rational, the discovered ODs, and every
//! field of the `ApproxStats` the run returns. The values were recorded
//! with the decomposition the test oracle in `ocdd_core::approximate`
//! keeps (a `(lhs_rank, rhs_rank)` sort and a map of pair counts), so
//! they hold the one-sort decomposition to it over a whole pipeline run.
//! A change in any of them means a sample estimate, a triage verdict or
//! an escalation's error came out differently.
//!
//! The configuration cases below pin the same quantities plus `checks`
//! and the termination for a level cap of 3, ε = 0 and ε = 0.05, a
//! stratified sample, and `WorkStealing(3)` with sorted partitions and
//! the shared cache, all on seed 1.

use ocdd_bench::approx_triage::{default_config, workload_relation};
use ocdd_core::approximate::{discover_approximate_with, ApproxConfig, ApproxStats};
use ocdd_core::{CheckerBackend, TerminationReason};
use ocdd_relation::SampleStrategy;

/// One run's OCDs (`"<ocd> <removals>/<rows>"`), ODs and stats.
fn run(seed: u64) -> (Vec<String>, Vec<String>, ApproxStats) {
    let rel = workload_relation(20_000, seed);
    let res = discover_approximate_with(&rel, &default_config(2_000, 1));
    let ocds = res
        .ocds
        .iter()
        .map(|a| format!("{} {}/{}", a.ocd, a.removals, a.rows))
        .collect();
    let ods = res.ods.iter().map(|od| od.to_string()).collect();
    (ocds, ods, res.approx.expect("the pipeline reports stats"))
}

/// The OCDs of the level-3 case (4,000 rows, a 400-row sample).
const LEVEL3_OCDS: [&str; 56] = [
    "[0] ~ [1] 0/4000",
    "[0] ~ [1,2] 0/4000",
    "[0] ~ [1,3] 0/4000",
    "[0] ~ [1,4] 0/4000",
    "[0] ~ [2] 0/4000",
    "[0] ~ [2,1] 0/4000",
    "[0] ~ [2,3] 0/4000",
    "[0] ~ [2,4] 0/4000",
    "[0] ~ [3] 0/4000",
    "[0] ~ [3,1] 0/4000",
    "[0] ~ [3,2] 0/4000",
    "[0] ~ [3,4] 0/4000",
    "[0] ~ [4] 0/4000",
    "[0] ~ [4,1] 0/4000",
    "[0] ~ [4,2] 0/4000",
    "[0] ~ [4,3] 0/4000",
    "[1] ~ [2] 0/4000",
    "[1] ~ [2,0] 0/4000",
    "[1] ~ [2,3] 0/4000",
    "[1] ~ [2,4] 0/4000",
    "[1] ~ [3] 0/4000",
    "[1] ~ [3,0] 0/4000",
    "[1] ~ [3,2] 0/4000",
    "[1] ~ [3,4] 0/4000",
    "[1] ~ [4] 0/4000",
    "[1] ~ [4,0] 0/4000",
    "[1] ~ [4,2] 0/4000",
    "[1] ~ [4,3] 0/4000",
    "[1,0] ~ [2] 0/4000",
    "[1,0] ~ [4] 0/4000",
    "[1,2] ~ [4] 0/4000",
    "[1,3] ~ [2] 0/4000",
    "[1,3] ~ [4] 0/4000",
    "[1,4] ~ [2] 0/4000",
    "[2] ~ [3] 0/4000",
    "[2] ~ [3,0] 0/4000",
    "[2] ~ [3,1] 0/4000",
    "[2] ~ [3,4] 0/4000",
    "[2] ~ [4] 0/4000",
    "[2] ~ [4,0] 0/4000",
    "[2] ~ [4,1] 0/4000",
    "[2] ~ [4,3] 0/4000",
    "[2,0] ~ [3] 0/4000",
    "[2,0] ~ [4] 0/4000",
    "[2,1] ~ [3] 0/4000",
    "[2,1] ~ [4] 0/4000",
    "[2,3] ~ [4] 0/4000",
    "[2,4] ~ [3] 0/4000",
    "[3] ~ [4] 0/4000",
    "[3] ~ [4,0] 0/4000",
    "[3] ~ [4,1] 0/4000",
    "[3] ~ [4,2] 0/4000",
    "[3,0] ~ [4] 0/4000",
    "[3,1] ~ [4] 0/4000",
    "[3,2] ~ [4] 0/4000",
    "[7] ~ [8] 19/4000",
];

/// The ODs of the level-3 case.
const LEVEL3_ODS: [&str; 32] = [
    "[0] -> [1]",
    "[0] -> [1,2]",
    "[0] -> [1,3]",
    "[0] -> [1,4]",
    "[0] -> [2]",
    "[0] -> [2,1]",
    "[0] -> [2,3]",
    "[0] -> [2,4]",
    "[0] -> [3]",
    "[0] -> [3,1]",
    "[0] -> [3,2]",
    "[0] -> [3,4]",
    "[0] -> [4]",
    "[0] -> [4,1]",
    "[0] -> [4,2]",
    "[0] -> [4,3]",
    "[1] -> [3]",
    "[1,0] -> [2]",
    "[1,0] -> [4]",
    "[2,0] -> [1]",
    "[2,0] -> [3]",
    "[2,0] -> [4]",
    "[2,1] -> [3]",
    "[3,0] -> [1]",
    "[3,0] -> [2]",
    "[3,0] -> [4]",
    "[4,0] -> [1]",
    "[4,0] -> [2]",
    "[4,0] -> [3]",
    "[4,1] -> [3]",
    "[7] -> [8]",
    "[8] -> [7]",
];

/// The OCDs at ε = 0.05: the sample accepts the family with its own
/// (zero) estimate, and both near-miss pairs hold.
const EPS05_OCDS: [&str; 12] = [
    "[0] ~ [1] 0/2000",
    "[0] ~ [2] 0/2000",
    "[0] ~ [3] 0/2000",
    "[0] ~ [4] 0/2000",
    "[1] ~ [2] 0/2000",
    "[1] ~ [3] 0/2000",
    "[1] ~ [4] 0/2000",
    "[2] ~ [3] 0/2000",
    "[2] ~ [4] 0/2000",
    "[3] ~ [4] 0/2000",
    "[7] ~ [8] 12/2000",
    "[9] ~ [10] 20/2000",
];

/// The ODs at ε = 0.05.
const EPS05_ODS: [&str; 11] = [
    "[0] -> [1]",
    "[0] -> [2]",
    "[0] -> [3]",
    "[0] -> [4]",
    "[1] -> [2]",
    "[1] -> [3]",
    "[4] -> [3]",
    "[7] -> [8]",
    "[8] -> [7]",
    "[9] -> [10]",
    "[10] -> [9]",
];

/// The level-2 answer every seed shares: the sorted family `bb`, `ord`,
/// `co1`–`co3` (columns 0–4) is co-monotone, and `near1` (8) shadows
/// `nbase1` (7).
const ODS: [&str; 7] = [
    "[0] -> [1]",
    "[0] -> [2]",
    "[0] -> [3]",
    "[0] -> [4]",
    "[1] -> [3]",
    "[7] -> [8]",
    "[8] -> [7]",
];

/// The exact OCDs of the sorted family, each measured on the full data.
const FAMILY_OCDS: [&str; 10] = [
    "[0] ~ [1] 0/20000",
    "[0] ~ [2] 0/20000",
    "[0] ~ [3] 0/20000",
    "[0] ~ [4] 0/20000",
    "[1] ~ [2] 0/20000",
    "[1] ~ [3] 0/20000",
    "[1] ~ [4] 0/20000",
    "[2] ~ [3] 0/20000",
    "[2] ~ [4] 0/20000",
    "[3] ~ [4] 0/20000",
];

#[test]
fn triage_workload_results_are_pinned() {
    // (seed, swap removals of near1 ~ nbase1 on the full data, sample manifest)
    let golden: [(u64, usize, u64); 3] = [
        (1, 80, 198_255_359_305_372_983),
        (2, 88, 17_925_911_190_272_704_286),
        (3, 93, 16_202_877_114_780_583_419),
    ];
    for (seed, near_removals, sample_manifest) in golden {
        let (ocds, ods, stats) = run(seed);
        let mut want_ocds: Vec<String> = FAMILY_OCDS.iter().map(|s| s.to_string()).collect();
        want_ocds.push(format!("[7] ~ [8] {near_removals}/20000"));
        assert_eq!(ocds, want_ocds, "seed {seed}");
        assert_eq!(ods, ODS, "seed {seed}");
        assert_eq!(
            stats,
            ApproxStats {
                sample_rows: 2_000,
                total_rows: 20_000,
                seed: 0x0cdd_5eed,
                sample_manifest,
                exhaustive: false,
                estimated: 77,
                accepted_by_sample: 0,
                rejected_by_sample: 55,
                escalated: 22,
                full_checks_saved: 55,
                sample_row_scans: 616_000,
                full_row_scans: 1_200_000,
            },
            "seed {seed}"
        );
    }
}

/// One recorded configuration case.
struct Golden {
    ocds: Vec<String>,
    ods: Vec<String>,
    checks: u64,
    stats: ApproxStats,
}

/// Run `cfg` on the seed-1 triage relation of `rows` rows and compare it
/// with `want`; every case stops at its level cap.
fn assert_pinned(rows: usize, cfg: &ApproxConfig, want: Golden, tag: &str) {
    let rel = workload_relation(rows, 1);
    let res = discover_approximate_with(&rel, cfg);
    let ocds: Vec<String> = res
        .ocds
        .iter()
        .map(|a| format!("{} {}/{}", a.ocd, a.removals, a.rows))
        .collect();
    let ods: Vec<String> = res.ods.iter().map(|od| od.to_string()).collect();
    assert_eq!(ocds, want.ocds, "{tag}: ocds");
    assert_eq!(ods, want.ods, "{tag}: ods");
    assert_eq!(res.checks, want.checks, "{tag}: checks");
    assert_eq!(res.termination, TerminationReason::LevelCap, "{tag}");
    assert_eq!(res.approx, Some(want.stats), "{tag}: stats");
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

/// The seed-1 level-2 answer at ε = 0.01 with a 2,000-row sample.
fn level2_answer() -> (Vec<String>, Vec<String>) {
    let mut ocds = strings(&FAMILY_OCDS);
    ocds.push("[7] ~ [8] 80/20000".to_string());
    (ocds, strings(&ODS))
}

#[test]
fn level_cap_three_is_pinned() {
    let mut cfg = default_config(400, 1);
    cfg.base.max_level = Some(3);
    let want = Golden {
        ocds: strings(&LEVEL3_OCDS),
        ods: strings(&LEVEL3_ODS),
        checks: 302,
        stats: ApproxStats {
            sample_rows: 400,
            total_rows: 4_000,
            seed: 0x0cdd_5eed,
            sample_manifest: 4_364_021_856_058_392_479,
            exhaustive: false,
            estimated: 302,
            accepted_by_sample: 0,
            rejected_by_sample: 155,
            escalated: 147,
            full_checks_saved: 155,
            sample_row_scans: 483_200,
            full_row_scans: 1_828_000,
        },
    };
    assert_pinned(4_000, &cfg, want, "level cap 3");
}

#[test]
fn epsilon_zero_and_five_percent_are_pinned() {
    let mut cfg = default_config(2_000, 1);
    cfg.epsilon = 0.0;
    let want = Golden {
        ocds: strings(&FAMILY_OCDS),
        ods: strings(&ODS[..4]),
        checks: 75,
        stats: ApproxStats {
            sample_rows: 2_000,
            total_rows: 20_000,
            seed: 0x0cdd_5eed,
            sample_manifest: 198_255_359_305_372_983,
            exhaustive: false,
            estimated: 75,
            accepted_by_sample: 0,
            rejected_by_sample: 56,
            escalated: 19,
            full_checks_saved: 56,
            sample_row_scans: 600_000,
            full_row_scans: 520_000,
        },
    };
    assert_pinned(20_000, &cfg, want, "epsilon 0");

    cfg.epsilon = 0.05;
    let want = Golden {
        ocds: strings(&EPS05_OCDS),
        ods: strings(&EPS05_ODS),
        checks: 79,
        stats: ApproxStats {
            sample_rows: 2_000,
            total_rows: 20_000,
            seed: 0x0cdd_5eed,
            sample_manifest: 198_255_359_305_372_983,
            exhaustive: false,
            estimated: 79,
            accepted_by_sample: 22,
            rejected_by_sample: 54,
            escalated: 3,
            full_checks_saved: 76,
            sample_row_scans: 632_000,
            full_row_scans: 240_000,
        },
    };
    assert_pinned(20_000, &cfg, want, "epsilon 0.05");
}

#[test]
fn stratified_sample_is_pinned() {
    let mut cfg = default_config(2_000, 1);
    cfg.strategy = SampleStrategy::Stratified(7);
    let (ocds, ods) = level2_answer();
    let want = Golden {
        ocds,
        ods,
        checks: 77,
        stats: ApproxStats {
            sample_rows: 2_000,
            total_rows: 20_000,
            seed: 0x0cdd_5eed,
            sample_manifest: 13_033_531_840_309_962_205,
            exhaustive: false,
            estimated: 77,
            accepted_by_sample: 0,
            rejected_by_sample: 55,
            escalated: 22,
            full_checks_saved: 55,
            sample_row_scans: 616_000,
            full_row_scans: 1_200_000,
        },
    };
    assert_pinned(20_000, &cfg, want, "stratified");
}

#[test]
fn work_stealing_with_partitions_and_shared_cache_is_pinned() {
    let mut cfg = default_config(2_000, 3);
    cfg.base.checker = CheckerBackend::SortedPartitions;
    cfg.base.shared_cache = true;
    let (ocds, ods) = level2_answer();
    let want = Golden {
        ocds,
        ods,
        checks: 77,
        stats: ApproxStats {
            sample_rows: 2_000,
            total_rows: 20_000,
            seed: 0x0cdd_5eed,
            sample_manifest: 198_255_359_305_372_983,
            exhaustive: false,
            estimated: 77,
            accepted_by_sample: 0,
            rejected_by_sample: 55,
            escalated: 22,
            full_checks_saved: 55,
            sample_row_scans: 616_000,
            full_row_scans: 1_200_000,
        },
    };
    assert_pinned(
        20_000,
        &cfg,
        want,
        "WorkStealing(3), partitions, shared cache",
    );
}
