//! Golden manifest hashes of the CSV round trip of the generators behind
//! the perfbench workloads.
//!
//! `manifest_hash` covers exactly what discovery observes (codes, types,
//! distinct counts, null flags, names), so pinning
//! `manifest_hash(read_csv_str(write_csv(rel)))` per generator and seed
//! pins that the ingest path hands discovery the same relation on every
//! workload input. The hashes were recorded before the single-pass
//! ingest rewrite; a change in any of them means the CSV reader or the
//! rank encoder now produces a different relation from the same bytes.

use ocdd_bench::approx_triage;
use ocdd_datasets::registry::{Dataset, RowScale};
use ocdd_datasets::tpch;
use ocdd_relation::{manifest_hash, read_csv_str, write_csv, CsvOptions, Relation};

/// SplitMix64 step (the permutation generator perfbench's DBTESMA
/// workloads use).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The registry DBTESMA table under a seeded Fisher-Yates row
/// permutation, as the `dense_search` and `append_stream` workloads
/// build it.
fn dbtesma(rows: usize, seed: u64) -> Relation {
    let rel = Dataset::Dbtesma.generate(RowScale::Rows(rows));
    let mut order: Vec<u32> = (0..rel.num_rows() as u32).collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    rel.select_rows(&order)
}

fn round_trip_hash(rel: &Relation) -> u64 {
    let parsed = read_csv_str(&write_csv(rel), &CsvOptions::default()).unwrap();
    manifest_hash(&parsed)
}

#[test]
fn lineitem_round_trip_hashes_are_pinned() {
    let got: Vec<u64> = (1..=3)
        .map(|seed| round_trip_hash(&tpch::lineitem(2_000, seed)))
        .collect();
    assert_eq!(
        got,
        vec![
            0x230e_7a13_b019_b5bb,
            0xb1ff_c475_af47_e05e,
            0xe063_87fa_4df6_97a9
        ]
    );
}

#[test]
fn triage_round_trip_hashes_are_pinned() {
    let got: Vec<u64> = (1..=3)
        .map(|seed| round_trip_hash(&approx_triage::workload_relation(5_000, seed)))
        .collect();
    assert_eq!(
        got,
        vec![
            0xcefa_e65c_84f9_8e8e,
            0x8b5d_a6ee_346f_667f,
            0x5b0a_c178_8bcd_20bc
        ]
    );
}

#[test]
fn dbtesma_round_trip_hashes_are_pinned() {
    let got: Vec<(u64, u64)> = (1..=3)
        .map(|seed| {
            let rel = dbtesma(1_000, seed);
            (round_trip_hash(&rel), round_trip_hash(&rel.head(500)))
        })
        .collect();
    assert_eq!(
        got,
        vec![
            (0x9c52_b1aa_5e69_7bae, 0xac39_af44_7fa1_2c48),
            (0x5afd_ae44_6d10_fe6e, 0xee10_22b0_6692_8ed8),
            (0x6a00_dd06_3f83_b092, 0x9692_d572_b76a_afe6)
        ]
    );
}
