//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * **checker backend** — the paper's checker re-sorts per candidate
//!   (§5.3.1 leaves sorted-partition reuse as out of scope); sorted
//!   partitions are our optional optimization.
//! * **candidate dedup** — a candidate has up to two parents; deduplication
//!   trades a hash set for duplicate checks.
//! * **scheduling** — one worker vs the work-stealing scheduler.

use criterion::{criterion_group, criterion_main, Criterion};
use ocdd_core::{discover, DiscoveryConfig, ParallelMode};
use ocdd_datasets::{Dataset, RowScale};
use std::hint::black_box;

fn bench_discovery_checker(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_discovery_checker");
    group.sample_size(10);
    let rel = Dataset::Dbtesma1k.generate(RowScale::Default);
    group.bench_function("resort_per_candidate(paper)", |b| {
        b.iter(|| black_box(discover(&rel, &DiscoveryConfig::default())))
    });
    group.bench_function("sorted_partitions", |b| {
        b.iter(|| {
            black_box(discover(
                &rel,
                &DiscoveryConfig {
                    checker: ocdd_core::CheckerBackend::SortedPartitions,
                    ..Default::default()
                },
            ))
        })
    });
    group.finish();
}

fn bench_dedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_dedup");
    group.sample_size(10);
    let rel = Dataset::Horse.generate(RowScale::Default);
    group.bench_function("dedup_on", |b| {
        b.iter(|| black_box(discover(&rel, &DiscoveryConfig::default())))
    });
    group.bench_function("dedup_off", |b| {
        b.iter(|| {
            black_box(discover(
                &rel,
                &DiscoveryConfig {
                    dedup_candidates: false,
                    ..Default::default()
                },
            ))
        })
    });
    group.finish();
}

fn bench_scheduling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_scheduling");
    group.sample_size(10);
    let rel = Dataset::Dbtesma1k.generate(RowScale::Default);
    for (name, mode) in [
        ("sequential", ParallelMode::Sequential),
        ("work_stealing_4", ParallelMode::WorkStealing(4)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(discover(
                    &rel,
                    &DiscoveryConfig {
                        mode,
                        ..Default::default()
                    },
                ))
            })
        });
    }
    group.finish();
}

fn bench_backends(c: &mut Criterion) {
    use ocdd_core::sorted_partitions::PartitionChecker;
    use ocdd_core::{check_od, AttrList};
    use ocdd_datasets::{ColumnSpec, TableSpec};
    use std::hint::black_box as bb;

    let rel = TableSpec::new(
        vec![
            ("a", ColumnSpec::SortedInt { distinct: 500 }),
            (
                "b",
                ColumnSpec::CoMonotoneWith {
                    source: 0,
                    distinct: 400,
                },
            ),
            ("c", ColumnSpec::RandomInt { distinct: 1000 }),
            ("d", ColumnSpec::RandomInt { distinct: 50 }),
        ],
        20_000,
    )
    .generate(11);
    // A fixed workload of sibling candidates sharing LHS prefixes.
    let workload: Vec<(AttrList, AttrList)> = vec![
        (AttrList::from_slice(&[0]), AttrList::from_slice(&[1])),
        (AttrList::from_slice(&[0, 1]), AttrList::from_slice(&[2])),
        (AttrList::from_slice(&[0, 2]), AttrList::from_slice(&[1])),
        (AttrList::from_slice(&[0, 3]), AttrList::from_slice(&[1])),
        (AttrList::from_slice(&[0, 1, 2]), AttrList::from_slice(&[3])),
        (AttrList::from_slice(&[0, 1, 3]), AttrList::from_slice(&[2])),
    ];

    let mut group = c.benchmark_group("ablation_checker_backend");
    group.sample_size(20);
    group.bench_function("resort_per_candidate(paper)", |b| {
        b.iter(|| {
            for (x, y) in &workload {
                bb(check_od(&rel, x, y));
            }
        })
    });
    group.bench_function("sorted_partitions(s5.3.1)", |b| {
        b.iter(|| {
            let mut checker = PartitionChecker::new(&rel);
            for (x, y) in &workload {
                bb(checker.check_od(x, y));
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_discovery_checker,
    bench_dedup,
    bench_scheduling,
    bench_backends
);
criterion_main!(benches);
