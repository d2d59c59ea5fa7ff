//! Criterion timing of the adjacent-pair scan kernels in isolation:
//! the per-pair scalar oracle vs the dispatched blockwise branchless
//! kernel (`block`), swept across the three rank-code widths and two
//! value distributions:
//!
//! * `ties` — 200 classes over the sorted column, rhs co-monotone with
//!   ties, so the lexicographic fold stays open and both columns are
//!   gathered for every block (the split-hunting profile).
//! * `unique` — key-like columns: the rhs fold closes every pair in the
//!   first column, exercising the early-close path and the gather
//!   bandwidth (the swap-hunting profile).
//!
//! Both workloads are valid ODs, so every scan runs the full index —
//! these are throughput numbers, not early-exit numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use ocdd_relation::scan::{od_scan, od_scan_scalar};
use ocdd_relation::sort::sort_index_by;
use ocdd_relation::{CodeWidth, Relation, Value};
use std::hint::black_box;

const ROWS: usize = 60_000;

/// Two-column relation `(lhs, rhs)` whose OD `lhs → rhs` is valid.
fn relation(tie_heavy: bool) -> Relation {
    let (lhs, rhs): (Vec<Value>, Vec<Value>) = (0..ROWS as i64)
        .map(|i| {
            if tie_heavy {
                // 200 classes of 300 rows; rhs equal within each class.
                (Value::Int(i / 300), Value::Int(i / 300))
            } else {
                (Value::Int(i), Value::Int(i))
            }
        })
        .unzip();
    Relation::from_columns(vec![("x".to_string(), lhs), ("y".to_string(), rhs)])
        .expect("equal-length columns")
}

fn bench_scan_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_kernels");
    group.sample_size(10);
    for (profile, tie_heavy) in [("ties", true), ("unique", false)] {
        let base = relation(tie_heavy);
        for width in [CodeWidth::U8, CodeWidth::U16, CodeWidth::U32] {
            let mut rel = base.clone();
            rel.widen_code_width(width);
            if rel.code_width(0) != width || rel.code_width(1) != width {
                // Natural width exceeds the requested one (e.g. the
                // unique profile has > 256 distinct values, so no u8
                // mirror exists) — skip rather than mislabel.
                continue;
            }
            let index = sort_index_by(&rel, &[0]);
            let label = |kernel: &str| format!("{profile}_{width:?}_{kernel}").to_lowercase();
            group.bench_function(label("scalar"), |b| {
                b.iter(|| black_box(od_scan_scalar(&rel, &[0], &[1], &index)))
            });
            group.bench_function(label("block"), |b| {
                b.iter(|| black_box(od_scan(&rel, &[0], &[1], &index)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scan_kernels);
criterion_main!(benches);
