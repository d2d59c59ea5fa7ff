//! End-to-end discovery benchmarks on the Table 6 datasets (small scales).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ocdd_core::{discover, DiscoveryConfig};
use ocdd_datasets::{Dataset, RowScale};
use std::hint::black_box;

fn bench_discovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("discovery");
    group.sample_size(10);
    let cases = [
        (Dataset::Yes, 5usize),
        (Dataset::Numbers, 6),
        (Dataset::Hepatitis, 155),
        (Dataset::Horse, 300),
        (Dataset::Dbtesma1k, 1_000),
        (Dataset::Letter, 2_000),
    ];
    for (ds, rows) in cases {
        let rel = ds.generate(RowScale::Rows(rows));
        group.bench_with_input(BenchmarkId::new(ds.name(), rows), &rel, |b, rel| {
            b.iter(|| black_box(discover(rel, &DiscoveryConfig::default())))
        });
    }
    group.finish();
}

fn bench_reduction(c: &mut Criterion) {
    use ocdd_core::columns_reduction;
    let mut group = c.benchmark_group("column_reduction");
    group.sample_size(10);
    for (ds, rows) in [(Dataset::Horse, 300usize), (Dataset::Letter, 5_000)] {
        let rel = ds.generate(RowScale::Rows(rows));
        group.bench_with_input(BenchmarkId::new(ds.name(), rows), &rel, |b, rel| {
            b.iter(|| black_box(columns_reduction(rel)))
        });
    }
    // Tall and narrow: one row walk per column pair dominates.
    let rows = 60_000;
    let rel = ocdd_datasets::tpch::lineitem(rows, 1);
    group.bench_with_input(BenchmarkId::new("lineitem", rows), &rel, |b, rel| {
        b.iter(|| black_box(columns_reduction(rel)))
    });
    group.finish();
}

criterion_group!(benches, bench_discovery, bench_reduction);
criterion_main!(benches);
