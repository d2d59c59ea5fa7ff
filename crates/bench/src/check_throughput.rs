//! Check-throughput harness: candidate-checks/sec per checker backend,
//! swept across worker counts.
//!
//! The discovery loop spends almost all of its time validating candidates
//! (sort + adjacent scan, §4.3), so this harness isolates exactly that: a
//! fixed check-heavy synthetic workload (12 columns, 100k rows by default)
//! replayed against every backend × worker-count configuration, including
//! a *seed baseline* that sorts with the generic comparator path instead
//! of the rank-code distribution kernels.
//!
//! Multi-worker configurations are measured with the same level-synchronous
//! schedule the `WorkStealing` discovery mode uses: each BFS level's
//! candidates are grouped into batches sharing a sort-key prefix, batches
//! are dealt round-robin across workers, and epoch caches publish between
//! levels. Because this host may have fewer cores than workers, the
//! reported `elapsed` is the schedule's *critical path* — per level, the
//! busiest worker's time (each worker's share is run and timed
//! sequentially), summed across levels plus the driver's publish time.
//! This models level-synchronous parallel wall-clock independently of the
//! host's core count; `wall` keeps the actual single-host measurement
//! time. The `bench_check` binary writes the results to
//! `BENCH_check.json`; the `check_throughput` criterion bench runs the
//! same workload under criterion for statistical timing.

use ocdd_core::sorted_partitions::{PartitionChecker, SortedPartition};
use ocdd_core::{AttrList, CacheStats, EpochPrefixCache};
use ocdd_datasets::{ColumnSpec, TableSpec};
use ocdd_relation::sort::{cmp_rows, sort_index_by_comparator};
use ocdd_relation::{ColumnId, Relation};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The check-heavy table: a sorted backbone with two co-monotone chains
/// (so deep candidates stay alive and checks run to completion), plus
/// narrow, wide, constant and key columns covering every sort kernel
/// (counting, packed radix, chained refinement).
pub fn workload_relation(rows: usize, seed: u64) -> Relation {
    TableSpec::new(
        vec![
            ("a", ColumnSpec::SortedInt { distinct: 5_000 }),
            (
                "b",
                ColumnSpec::CoMonotoneWith {
                    source: 0,
                    distinct: 2_000,
                },
            ),
            (
                "c",
                ColumnSpec::CoMonotoneWith {
                    source: 0,
                    distinct: 700,
                },
            ),
            ("d", ColumnSpec::SortedInt { distinct: 250 }),
            (
                "e",
                ColumnSpec::CoMonotoneWith {
                    source: 3,
                    distinct: 90,
                },
            ),
            ("f", ColumnSpec::RandomInt { distinct: 4 }),
            ("g", ColumnSpec::RandomInt { distinct: 64 }),
            ("h", ColumnSpec::RandomInt { distinct: 1_000 }),
            ("i", ColumnSpec::RandomInt { distinct: 30_000 }),
            ("j", ColumnSpec::QuasiConstant { distinct: 3 }),
            ("k", ColumnSpec::Constant(7)),
            ("l", ColumnSpec::Key),
        ],
        rows,
    )
    .generate(seed)
}

/// The candidate workload: BFS-like contexts whose LHS lists share
/// prefixes, exactly the access pattern [`PartitionChecker`] amortizes. Every candidate `(x, y)` is replayed as the three checks the
/// search performs per surviving candidate: the OCD check `xy → yx`
/// (Theorem 4.1) and both OD directions `x → y`, `y → x`.
pub fn workload_candidates(num_cols: usize) -> Vec<(AttrList, AttrList)> {
    let mut out = Vec::new();
    // Level-1 contexts: all ordered singleton pairs.
    for a in 0..num_cols {
        for b in (a + 1)..num_cols {
            out.push((AttrList::single(a), AttrList::single(b)));
        }
    }
    // Deeper contexts rooted at the co-monotone chains: extensions of
    // [0], [0,1], [3] — siblings share the sorted prefix.
    for ctx in [vec![0usize], vec![0, 1], vec![3], vec![0, 1, 2]] {
        for a in 0..num_cols {
            if ctx.contains(&a) {
                continue;
            }
            for b in (a + 1)..num_cols {
                if ctx.contains(&b) {
                    continue;
                }
                let mut x = ctx.clone();
                x.push(a);
                let mut y = ctx.clone();
                y.push(b);
                out.push((AttrList::from(x), AttrList::from(y)));
            }
        }
    }
    out
}

/// Group candidate indexes into BFS levels by LHS length, shortest first —
/// the level-synchronous structure the discovery search walks.
pub fn workload_levels(candidates: &[(AttrList, AttrList)]) -> Vec<Vec<usize>> {
    let mut by_len: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, (x, _)) in candidates.iter().enumerate() {
        by_len.entry(x.as_slice().len()).or_default().push(i);
    }
    by_len.into_values().collect()
}

/// Group one level's candidates into batches sharing the same sort-key
/// prefix `x`, in first-appearance order — the same grouping the core
/// work-stealing scheduler distributes.
pub fn prefix_batches(candidates: &[(AttrList, AttrList)], level: &[usize]) -> Vec<Vec<usize>> {
    let mut batches: Vec<Vec<usize>> = Vec::new();
    let mut pos: HashMap<&[ColumnId], usize> = HashMap::new();
    for &i in level {
        let key = candidates[i].0.as_slice();
        let b = *pos.entry(key).or_insert_with(|| {
            batches.push(Vec::new());
            batches.len() - 1
        });
        batches[b].push(i);
    }
    batches
}

/// Number of individual OD checks one candidate expands to.
pub const CHECKS_PER_CANDIDATE: u64 = 3;

/// One checker backend to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Seed baseline: re-sort per candidate with the generic comparator
    /// sort (the pre-kernel code path, kept as the differential oracle).
    SeedComparator,
    /// Re-sort per candidate with the rank-code distribution kernels and
    /// the per-pair scalar scan — pinned to the pre-blockwise scan path so
    /// the config's history stays comparable across reports.
    ResortRadix,
    /// Re-sort per candidate with the rank-code distribution kernels and
    /// the dispatched blockwise/SIMD scan (the production `check_od`
    /// path). The delta against [`Backend::ResortRadix`] isolates the
    /// scan-kernel speedup at identical sort cost.
    ResortRadixBlock,
    /// Worker-private sorted partitions (§5.3.1) with the dispatched
    /// blockwise/SIMD class walk.
    SortedPartitions,
    /// Worker-private sorted partitions pinned to the scalar class walk —
    /// the ablation partner of [`Backend::SortedPartitions`]: the pair
    /// isolates the blockwise-walk speedup at identical partition cost.
    SortedPartitionsScalar,
    /// Sorted partitions backed by an epoch-published shared store
    /// ([`EpochPrefixCache`]): snapshot reads, publish per level — the
    /// search's `shared_cache` design.
    SortedPartitionsEpoch,
}

/// A named configuration: backend plus worker count.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Stable identifier written to the JSON report.
    pub name: &'static str,
    /// Which checker backend to drive.
    pub backend: Backend,
    /// Number of workers the level's prefix batches are dealt across.
    pub workers: usize,
}

/// The default configuration matrix: every backend at one worker, and the
/// parallel-friendly backends swept across 1/2/4/8 workers so the report
/// carries `speedup_vs_1worker` per backend.
pub const DEFAULT_SPECS: &[RunSpec] = &[
    RunSpec {
        name: "seed_resort_comparator",
        backend: Backend::SeedComparator,
        workers: 1,
    },
    RunSpec {
        name: "resort_radix_x1",
        backend: Backend::ResortRadix,
        workers: 1,
    },
    RunSpec {
        name: "resort_radix_x2",
        backend: Backend::ResortRadix,
        workers: 2,
    },
    RunSpec {
        name: "resort_radix_x4",
        backend: Backend::ResortRadix,
        workers: 4,
    },
    RunSpec {
        name: "resort_radix_x8",
        backend: Backend::ResortRadix,
        workers: 8,
    },
    RunSpec {
        name: "resort_radix_block_x1",
        backend: Backend::ResortRadixBlock,
        workers: 1,
    },
    RunSpec {
        name: "resort_radix_block_x2",
        backend: Backend::ResortRadixBlock,
        workers: 2,
    },
    RunSpec {
        name: "resort_radix_block_x4",
        backend: Backend::ResortRadixBlock,
        workers: 4,
    },
    RunSpec {
        name: "resort_radix_block_x8",
        backend: Backend::ResortRadixBlock,
        workers: 8,
    },
    RunSpec {
        name: "sorted_partitions_private",
        backend: Backend::SortedPartitions,
        workers: 1,
    },
    RunSpec {
        name: "sorted_partitions_scalar_x1",
        backend: Backend::SortedPartitionsScalar,
        workers: 1,
    },
    RunSpec {
        name: "sorted_partitions_epoch_x1",
        backend: Backend::SortedPartitionsEpoch,
        workers: 1,
    },
    RunSpec {
        name: "sorted_partitions_epoch_x2",
        backend: Backend::SortedPartitionsEpoch,
        workers: 2,
    },
    RunSpec {
        name: "sorted_partitions_epoch_x4",
        backend: Backend::SortedPartitionsEpoch,
        workers: 4,
    },
    RunSpec {
        name: "sorted_partitions_epoch_x8",
        backend: Backend::SortedPartitionsEpoch,
        workers: 8,
    },
];

/// Measured outcome of replaying the workload under one [`RunSpec`].
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The spec that was run.
    pub spec: RunSpec,
    /// Total individual OD checks performed.
    pub checks: u64,
    /// Modeled level-synchronous elapsed time: per level, the busiest
    /// worker's sequentially-measured share, summed across levels plus
    /// driver publish time. Equals single-worker wall time when
    /// `workers == 1`.
    pub elapsed: Duration,
    /// Actual wall-clock time spent measuring this configuration (every
    /// worker's share runs sequentially on this host).
    pub wall: Duration,
    /// Shared-cache statistics, when the backend uses an epoch cache.
    pub cache: Option<CacheStats>,
    /// How many checks returned `Valid` (a cross-backend sanity datum:
    /// every configuration must agree).
    pub valid: u64,
}

impl RunResult {
    /// Candidate-checks per second at the modeled elapsed time.
    pub fn checks_per_sec(&self) -> f64 {
        self.checks as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Seed-baseline OD check: comparator sort + adjacent scan, no caching.
/// Mirrors `check_od` but pins the sort to the comparator path so the
/// measurement isolates the kernel speedup.
fn check_od_comparator(rel: &Relation, lhs: &AttrList, rhs: &AttrList) -> bool {
    let index = sort_index_by_comparator(rel, lhs.as_slice());
    for w in index.windows(2) {
        let (p, q) = (w[0] as usize, w[1] as usize);
        match cmp_rows(rel, rhs.as_slice(), p, q) {
            Ordering::Less => {
                if cmp_rows(rel, lhs.as_slice(), p, q) == Ordering::Equal {
                    return false;
                }
            }
            Ordering::Greater => return false,
            Ordering::Equal => {}
        }
    }
    true
}

/// One worker's checker state, kept across levels like the core
/// scheduler's persistent per-worker checkers.
enum WorkerChecker<'r> {
    Comparator(&'r Relation),
    Radix(&'r Relation),
    RadixBlock(&'r Relation),
    Parts(Box<PartitionChecker<'r>>),
    PartsScalar(&'r Relation, Box<PartitionChecker<'r>>),
}

impl<'r> WorkerChecker<'r> {
    fn begin_level(&mut self) {
        match self {
            WorkerChecker::Parts(c) => c.begin_level(),
            WorkerChecker::PartsScalar(_, c) => c.begin_level(),
            _ => {}
        }
    }

    fn publish_pending(&mut self) {
        match self {
            WorkerChecker::Parts(c) => c.publish_pending(),
            WorkerChecker::PartsScalar(_, c) => c.publish_pending(),
            _ => {}
        }
    }

    fn check(&mut self, lhs: &AttrList, rhs: &AttrList) -> bool {
        match self {
            WorkerChecker::Comparator(rel) => check_od_comparator(rel, lhs, rhs),
            WorkerChecker::Radix(rel) => {
                ocdd_core::check::check_od_scalar(rel, lhs, rhs).is_valid()
            }
            WorkerChecker::RadixBlock(rel) => ocdd_core::check::check_od(rel, lhs, rhs).is_valid(),
            WorkerChecker::Parts(c) => c.check_od(lhs, rhs).is_valid(),
            WorkerChecker::PartsScalar(rel, c) => c
                .partition_for(lhs.as_slice())
                .check_od_scalar(rel, rhs)
                .is_valid(),
        }
    }
}

/// The three checks the search performs per candidate. Returns the number
/// of `Valid` outcomes.
fn replay_candidate(checker: &mut WorkerChecker<'_>, x: &AttrList, y: &AttrList) -> u64 {
    let xy = x.concat(y);
    let yx = y.concat(x);
    let mut valid = 0u64;
    for (lhs, rhs) in [(&xy, &yx), (x, y), (y, x)] {
        if black_box(checker.check(lhs, rhs)) {
            valid += 1;
        }
    }
    valid
}

/// Replay the full workload under one configuration with the
/// level-synchronous schedule and report the critical-path time.
pub fn run_spec(
    rel: &Relation,
    candidates: &[(AttrList, AttrList)],
    spec: RunSpec,
    cache_budget_bytes: usize,
) -> RunResult {
    let workers = spec.workers.max(1);
    let wall_start = Instant::now();

    let mut parts_epoch: Option<Arc<EpochPrefixCache<SortedPartition>>> = None;
    let mut checkers: Vec<WorkerChecker<'_>> = (0..workers)
        .map(|_| match spec.backend {
            Backend::SeedComparator => WorkerChecker::Comparator(rel),
            Backend::ResortRadix => WorkerChecker::Radix(rel),
            Backend::ResortRadixBlock => WorkerChecker::RadixBlock(rel),
            Backend::SortedPartitions => WorkerChecker::Parts(Box::new(PartitionChecker::new(rel))),
            Backend::SortedPartitionsScalar => {
                WorkerChecker::PartsScalar(rel, Box::new(PartitionChecker::new(rel)))
            }
            Backend::SortedPartitionsEpoch => {
                let shared = parts_epoch
                    .get_or_insert_with(|| Arc::new(EpochPrefixCache::new(cache_budget_bytes)));
                WorkerChecker::Parts(Box::new(PartitionChecker::with_epoch(
                    rel,
                    Arc::clone(shared),
                )))
            }
        })
        .collect();

    let mut valid = 0u64;
    let mut modeled = Duration::ZERO;
    for level in workload_levels(candidates) {
        let batches = prefix_batches(candidates, &level);
        // Run each worker's round-robin share of the batches sequentially
        // and keep the busiest worker's time: the level's critical path.
        let mut critical = Duration::ZERO;
        for (w, checker) in checkers.iter_mut().enumerate() {
            checker.begin_level();
            let busy_start = Instant::now();
            for (b, batch) in batches.iter().enumerate() {
                if b % workers != w {
                    continue;
                }
                for &i in batch {
                    let (x, y) = &candidates[i];
                    valid += replay_candidate(checker, x, y);
                }
            }
            critical = critical.max(busy_start.elapsed());
        }
        // The driver publishes every worker's buffered inserts between
        // levels, in worker order — serialized, so it counts fully.
        let publish_start = Instant::now();
        for checker in checkers.iter_mut() {
            checker.publish_pending();
        }
        modeled += critical + publish_start.elapsed();
    }

    let cache = parts_epoch.map(|c| c.stats());
    RunResult {
        spec,
        checks: candidates.len() as u64 * CHECKS_PER_CANDIDATE,
        elapsed: modeled,
        wall: wall_start.elapsed(),
        cache,
        valid,
    }
}

/// Run the whole matrix, keeping the best (lowest modeled elapsed) of
/// `reps` repetitions per configuration — single-run noise on a shared
/// host would otherwise dominate the worker-scaling ratios. Every
/// configuration must agree on which checks are valid (asserted), and
/// the first result is the seed baseline.
pub fn run_matrix(
    rel: &Relation,
    candidates: &[(AttrList, AttrList)],
    specs: &[RunSpec],
    cache_budget_bytes: usize,
    reps: usize,
) -> Vec<RunResult> {
    let results: Vec<RunResult> = specs
        .iter()
        .map(|&spec| {
            let mut best = run_spec(rel, candidates, spec, cache_budget_bytes);
            for _ in 1..reps.max(1) {
                let r = run_spec(rel, candidates, spec, cache_budget_bytes);
                assert_eq!(r.valid, best.valid, "{}: unstable outcomes", spec.name);
                if r.elapsed < best.elapsed {
                    best = r;
                }
            }
            best
        })
        .collect();
    if let Some(first) = results.first() {
        for r in &results[1..] {
            assert_eq!(
                first.valid, r.valid,
                "config {} disagrees with {} on check outcomes",
                r.spec.name, first.spec.name
            );
        }
    }
    results
}

/// CPU feature flags the scan kernels care about, as detected on this
/// host. Empty on non-x86-64 targets.
#[cfg(target_arch = "x86_64")]
fn detected_cpu_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    for (name, on) in [
        ("sse2", is_x86_feature_detected!("sse2")),
        ("sse4.2", is_x86_feature_detected!("sse4.2")),
        ("avx", is_x86_feature_detected!("avx")),
        ("avx2", is_x86_feature_detected!("avx2")),
    ] {
        if on {
            out.push(name);
        }
    }
    out
}

/// CPU feature flags the scan kernels care about. Empty on non-x86-64
/// targets (the explicit kernels only exist for x86-64).
#[cfg(not(target_arch = "x86_64"))]
fn detected_cpu_features() -> Vec<&'static str> {
    Vec::new()
}

/// Snapshot of the toolchain and host CPU the matrix ran on, as a JSON
/// object — embedded in `BENCH_check.json` so throughput numbers stay
/// interpretable across machines and compiler upgrades.
///
/// Fields: `rustc` (from `rustc --version`, `"unknown"` if unavailable),
/// `cpu_features` (detected x86-64 flags the kernels dispatch on),
/// `simd_feature` (whether the `simd` cargo feature was compiled in) and
/// `block_kernel` (which large-scan kernel [`ocdd_relation::scan`]
/// selects in this build: `"block"` or `"simd"`).
pub fn environment_json() -> String {
    let rustc =
        std::process::Command::new(std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().replace(['"', '\\'], "_"))
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
    let features: Vec<String> = detected_cpu_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect();
    let block = match ocdd_relation::scan::block_kernel() {
        ocdd_relation::scan::ScanKernel::Simd => "simd",
        _ => "block",
    };
    format!(
        "{{\"rustc\": \"{}\", \"cpu_features\": [{}], \"simd_feature\": {}, \"block_kernel\": \"{}\"}}",
        rustc,
        features.join(", "),
        cfg!(feature = "simd"),
        block,
    )
}

/// The same-backend single-worker baseline for `r`, if the matrix has one.
fn one_worker_baseline<'a>(results: &'a [RunResult], r: &RunResult) -> Option<&'a RunResult> {
    results
        .iter()
        .find(|b| b.spec.backend == r.spec.backend && b.spec.workers == 1)
}

/// Serialize the matrix to the `BENCH_check.json` schema:
///
/// ```json
/// {
///   "rows": 100000, "columns": 12, "candidates": 262, "checks_per_candidate": 3,
///   "parallel_model": "level_synchronous_critical_path",
///   "environment": {"rustc": "rustc 1.95.0 (...)", "cpu_features": ["sse2", "avx2"],
///                   "simd_feature": false, "block_kernel": "block"},
///   "configs": [
///     {"name": "sorted_partitions_epoch_x4", "workers": 4, "checks": 786,
///      "elapsed_ms": 1234.5, "wall_ms": 4800.2, "checks_per_sec": 636.7,
///      "speedup_vs_seed": 4.1, "speedup_vs_1worker": 3.2,
///      "cache": {"hits": 0, "misses": 0, "evictions": 0, "resident_bytes": 0}}
///   ]
/// }
/// ```
///
/// `elapsed_ms` is the modeled level-synchronous critical path (see
/// [`RunResult::elapsed`]); `wall_ms` the actual sequential measurement
/// time. `cache` is `null` for configurations without a shared cache;
/// `speedup_vs_seed` is relative to the first (seed-baseline) entry and
/// `speedup_vs_1worker` to the same backend's single-worker entry.
pub fn matrix_to_json(rel: &Relation, candidates_len: usize, results: &[RunResult]) -> String {
    let seed_cps = results.first().map_or(0.0, RunResult::checks_per_sec);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"rows\": {}, \"columns\": {}, \"candidates\": {}, \"checks_per_candidate\": {},\n  \"parallel_model\": \"level_synchronous_critical_path\",\n  \"environment\": {},\n  \"configs\": [",
        rel.num_rows(),
        rel.num_columns(),
        candidates_len,
        CHECKS_PER_CANDIDATE,
        environment_json(),
    );
    for (i, r) in results.iter().enumerate() {
        let cache = match &r.cache {
            Some(c) => format!(
                "{{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"resident_bytes\": {}, \"entries\": {}}}",
                c.hits, c.misses, c.evictions, c.resident_bytes, c.entries
            ),
            None => "null".to_owned(),
        };
        let vs_1worker = one_worker_baseline(results, r)
            .map_or(1.0, |b| r.checks_per_sec() / b.checks_per_sec());
        let _ = write!(
            out,
            "{}\n    {{\"name\": \"{}\", \"workers\": {}, \"checks\": {}, \"elapsed_ms\": {:.3}, \"wall_ms\": {:.3}, \"checks_per_sec\": {:.1}, \"speedup_vs_seed\": {:.3}, \"speedup_vs_1worker\": {:.3}, \"cache\": {}}}",
            if i == 0 { "" } else { "," },
            r.spec.name,
            r.spec.workers,
            r.checks,
            r.elapsed.as_secs_f64() * 1e3,
            r.wall.as_secs_f64() * 1e3,
            r.checks_per_sec(),
            if seed_cps > 0.0 {
                r.checks_per_sec() / seed_cps
            } else {
                0.0
            },
            vs_1worker,
            cache,
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full matrix at tiny scale: all backends agree and the JSON has
    /// the advertised fields.
    #[test]
    fn tiny_matrix_agrees_and_serializes() {
        let rel = workload_relation(400, 11);
        let candidates = workload_candidates(rel.num_columns());
        assert!(candidates.len() > 100, "workload too small");
        let results = run_matrix(&rel, &candidates, DEFAULT_SPECS, 64 << 20, 1);
        assert_eq!(results.len(), DEFAULT_SPECS.len());
        for r in &results {
            assert_eq!(r.checks, candidates.len() as u64 * CHECKS_PER_CANDIDATE);
            assert!(r.checks_per_sec() > 0.0);
            assert!(r.wall >= r.elapsed || r.spec.workers == 1);
            // Epoch configurations expose cache stats; the rest do not.
            let epoch = r.spec.backend == Backend::SortedPartitionsEpoch;
            assert_eq!(r.cache.is_some(), epoch, "{}", r.spec.name);
        }
        let json = matrix_to_json(&rel, candidates.len(), &results);
        for needle in [
            "\"rows\": 400",
            "\"columns\": 12",
            "\"parallel_model\": \"level_synchronous_critical_path\"",
            "seed_resort_comparator",
            "resort_radix_block_x1",
            "sorted_partitions_epoch_x4",
            "sorted_partitions_scalar_x1",
            "sorted_partitions_epoch_x8",
            "\"speedup_vs_seed\"",
            "\"speedup_vs_1worker\"",
            "\"wall_ms\"",
            "\"resident_bytes\"",
            "\"environment\"",
            "\"rustc\"",
            "\"cpu_features\"",
            "\"simd_feature\"",
            "\"block_kernel\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    /// The workload decomposes into the BFS structure the scheduler
    /// expects: levels keyed by LHS length, batches keyed by shared
    /// prefix, and every candidate lands in exactly one batch.
    #[test]
    fn workload_levels_and_batches_partition_the_candidates() {
        let candidates = workload_candidates(12);
        let levels = workload_levels(&candidates);
        // LHS lengths 1 ([a]), 2 ([0,a] / [3,a]), 3 ([0,1,a]), 4 ([0,1,2,a]).
        assert_eq!(levels.len(), 4);
        assert_eq!(
            levels.iter().map(Vec::len).sum::<usize>(),
            candidates.len(),
            "levels partition the workload"
        );
        let mut total = 0usize;
        for level in &levels {
            let batches = prefix_batches(&candidates, level);
            assert!(!batches.is_empty());
            for batch in &batches {
                let key = candidates[batch[0]].0.as_slice();
                assert!(batch.iter().all(|&i| candidates[i].0.as_slice() == key));
            }
            total += batches.iter().map(Vec::len).sum::<usize>();
        }
        assert_eq!(total, candidates.len(), "batches partition every level");
        // Level 1: singletons [a] for a = 0..11 each pair up with some
        // b > a, so 11 distinct prefixes.
        assert_eq!(prefix_batches(&candidates, &levels[0]).len(), 11);
    }

    /// The comparator baseline agrees with the kernel checker per check.
    #[test]
    fn seed_baseline_matches_kernel_checker() {
        let rel = workload_relation(300, 7);
        for (x, y) in workload_candidates(rel.num_columns()).iter().take(40) {
            let xy = x.concat(y);
            let yx = y.concat(x);
            assert_eq!(
                check_od_comparator(&rel, &xy, &yx),
                ocdd_core::check::check_od(&rel, &xy, &yx).is_valid(),
                "{x} ~ {y}"
            );
        }
    }
}
