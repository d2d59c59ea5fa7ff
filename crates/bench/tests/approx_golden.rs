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

use ocdd_bench::approx_triage::{default_config, workload_relation};
use ocdd_core::approximate::{discover_approximate_with, ApproxStats};

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
