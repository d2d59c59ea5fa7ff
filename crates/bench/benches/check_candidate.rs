//! Microbenchmarks for the candidate checker (§4.3): the `O(m log m)` index
//! sort plus adjacent scan that dominates discovery time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ocdd_core::{check_ocd, check_od, AttrList};
use ocdd_datasets::{ColumnSpec, TableSpec};
use std::hint::black_box;

fn valid_pair_relation(rows: usize) -> ocdd_relation::Relation {
    TableSpec::new(
        vec![
            ("a", ColumnSpec::SortedInt { distinct: rows / 4 }),
            (
                "b",
                ColumnSpec::CoMonotoneWith {
                    source: 0,
                    distinct: rows / 4,
                },
            ),
            ("k", ColumnSpec::Key),
        ],
        rows,
    )
    .generate(7)
}

fn random_pair_relation(rows: usize) -> ocdd_relation::Relation {
    TableSpec::new(
        vec![
            ("a", ColumnSpec::RandomInt { distinct: rows }),
            ("b", ColumnSpec::RandomInt { distinct: rows }),
        ],
        rows,
    )
    .generate(8)
}

fn bench_candidate_checks(c: &mut Criterion) {
    let mut group = c.benchmark_group("check_candidate");
    for rows in [1_000usize, 10_000, 100_000] {
        let valid = valid_pair_relation(rows);
        let invalid = random_pair_relation(rows);
        let x = AttrList::single(0);
        let y = AttrList::single(1);

        group.throughput(Throughput::Elements(rows as u64));
        // Worst case: the OCD holds, so the scan covers every row.
        group.bench_with_input(
            BenchmarkId::new("ocd_valid_full_scan", rows),
            &rows,
            |b, _| b.iter(|| black_box(check_ocd(&valid, &x, &y)).is_valid()),
        );
        // Early exit: random columns swap almost immediately.
        group.bench_with_input(
            BenchmarkId::new("ocd_invalid_early_exit", rows),
            &rows,
            |b, _| b.iter(|| black_box(check_ocd(&invalid, &x, &y)).is_valid()),
        );
        // OD with a two-attribute LHS (longer sort comparator).
        let xy = AttrList::from_slice(&[0, 2]);
        group.bench_with_input(BenchmarkId::new("od_two_col_lhs", rows), &rows, |b, _| {
            b.iter(|| black_box(check_od(&valid, &xy, &y)).is_valid())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_candidate_checks);
criterion_main!(benches);
