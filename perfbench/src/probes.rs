//! Per-layer probes of the traced run. Each probe calls one layer's public
//! functions from outside, under a span; counts come from the runs' own
//! results. A layer a workload does not exercise reports 0 and is listed
//! in `not_exercised`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ocdd_core::approximate::discover_approximate_with;
use ocdd_core::reduction::{columns_reduction, columns_reduction_with_threads};
use ocdd_core::sorted_partitions::PartitionChecker;
use ocdd_core::{check_ocd, discover, AttrList, DiscoveryConfig};
use ocdd_relation::scan::od_scan;
use ocdd_relation::{read_csv_str, sort_index_by, CsvOptions, Relation, Sample};

use crate::median;
use crate::pipeline::{
    approx_config, columns_of, discovery_config, discovery_config_with, grown_columns, workers,
    Config, Run,
};
use crate::trace::Tracer;
use crate::workloads::{Input, Workload};

/// Repetitions of each timed probe (the median is reported).
const PROBE_REPS: usize = 3;

/// Per-layer results of the traced run.
#[derive(Default)]
pub struct Layer {
    /// `(name, value, unit)`, in a fixed order for every workload.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Metrics whose layer this workload does not exercise (reported 0).
    pub not_exercised: Vec<&'static str>,
    /// Search time per level, from `max_level` prefix runs.
    pub level_s: Vec<(usize, f64)>,
}

impl Layer {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn skip(&mut self, name: &'static str, unit: &'static str) {
        self.put(name, 0.0, unit);
        self.not_exercised.push(name);
    }
}

fn s(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn med(runs: &[&Run], f: impl Fn(&Run) -> Duration) -> f64 {
    median(&runs.iter().map(|r| s(f(r))).collect::<Vec<_>>())
}

/// Median over [`PROBE_REPS`] spans of `f` (setup closure runs untimed).
fn timed<P, T>(
    tr: &mut Tracer,
    name: &'static str,
    prep: impl Fn() -> P,
    f: impl Fn(P) -> T,
) -> f64 {
    let mut xs = Vec::new();
    for _ in 0..PROBE_REPS {
        let p = prep();
        let (out, d) = tr.span(name, |_| f(p));
        black_box(out);
        xs.push(s(d));
    }
    median(&xs)
}

fn counter(run: &Run, key: &str) -> u64 {
    run.counters.get(key).copied().unwrap_or(0)
}

fn sum_counters(run: &Run, suffix: &str) -> u64 {
    run.counters
        .iter()
        .filter(|(k, _)| k.starts_with("level") && k.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

/// `speedup_vs_1worker` of `sorted_partitions_epoch_x{workers}` in
/// `BENCH_check.json`: the modelled (critical-path) figure the measured
/// speedup replaces. `None` when the file or the row is absent.
fn modelled_speedup(workers: usize) -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_check.json").ok()?;
    let row = text
        .lines()
        .find(|l| l.contains(&format!("\"name\": \"sorted_partitions_epoch_x{workers}\"")))?;
    let rest = row.split("\"speedup_vs_1worker\":").nth(1)?;
    rest.split(',').next()?.trim().parse().ok()
}

/// Run every probe and collect the per-layer metrics.
pub fn run_all(
    w: Workload,
    input: &Input,
    engine: &[&Run],
    faithful: &[&Run],
    tr: &mut Tracer,
) -> Result<Layer, String> {
    let mut l = Layer::default();
    let rel = read_csv_str(&input.csv, &CsvOptions::default()).map_err(|e| e.to_string())?;
    let (e0, f0) = (engine[0], faithful[0]);
    let approx = w == Workload::ApproxSample;

    // relation.csv / relation.column
    let all: Vec<&Run> = engine.iter().chain(faithful).copied().collect();
    let ingest = med(&all, |r| r.setup);
    let cols = columns_of(&rel);
    let encode = timed(
        tr,
        "probe.relation.column.encode",
        || cols.clone(),
        Relation::from_columns,
    );
    l.put("relation.csv.ingest_s", ingest, "s");
    l.put("relation.column.encode_s", encode, "s");
    l.put("relation.csv.parse_s", (ingest - encode).max(0.0), "s");

    // relation.sort / relation.scan kernel counts (faithful: exact and
    // repeatable; engine: totals, scheduling-dependent).
    for (name, key) in [
        ("relation.sort.counting", "kernels.sort.counting"),
        ("relation.sort.packed_radix", "kernels.sort.packed_radix"),
        (
            "relation.sort.chained_refine",
            "kernels.sort.chained_refine",
        ),
        ("relation.sort.comparator", "kernels.sort.comparator"),
        ("relation.scan.scalar", "kernels.scan.scalar"),
        ("relation.scan.block", "kernels.scan.block"),
        ("relation.scan.simd", "kernels.scan.simd"),
    ] {
        l.put(name, counter(f0, key) as f64, "count");
    }
    let engine_total = |kind: &str| -> f64 {
        e0.counters
            .iter()
            .filter(|(k, _)| k.starts_with(&format!("observed.kernels.{kind}.")))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    l.put("relation.sort.engine_total", engine_total("sort"), "count");
    l.put("relation.scan.engine_total", engine_total("scan"), "count");

    // core.reduction
    let red = columns_reduction(&rel);
    let red_s = timed(
        tr,
        "probe.core.reduction",
        || (),
        |()| columns_reduction(&rel),
    );
    let red_par_s = timed(
        tr,
        "probe.core.reduction.parallel",
        || (),
        |()| columns_reduction_with_threads(&rel, workers()),
    );
    l.put("core.reduction.s", red_s, "s");
    l.put("core.reduction.parallel_s", red_par_s, "s");
    l.put("core.reduction.checks", red.checks as f64, "count");
    l.put(
        "core.reduction.kept_attrs",
        red.attributes.len() as f64,
        "count",
    );

    // relation.sort.col_sort_s: one sort per reduced attribute.
    let attrs = &red.attributes;
    let col_sort = timed(
        tr,
        "probe.relation.sort.col_sort",
        || (),
        |()| {
            for &a in attrs {
                black_box(sort_index_by(&rel, &[a]));
            }
        },
    );
    l.put("relation.sort.col_sort_s", col_sort, "s");

    // Level-2 candidates (every reduced-attribute pair): the sort and scan
    // of their single check `ab → ba`, and the whole check under each
    // checker backend.
    let pairs: Vec<(usize, usize)> = attrs
        .iter()
        .enumerate()
        .flat_map(|(i, &a)| attrs[i + 1..].iter().map(move |&b| (a, b)))
        .collect();
    let mut t = [Duration::ZERO; 4];
    tr.span("probe.level2_pairs", |_| {
        let mut partitions = PartitionChecker::new(&rel);
        for &(a, b) in &pairs {
            let clock = Instant::now();
            let index = sort_index_by(&rel, &[a, b]);
            let sorted = clock.elapsed();
            black_box(od_scan(&rel, &[a, b], &[b, a], &index));
            let scanned = clock.elapsed();
            let (x, y) = (AttrList::single(a), AttrList::single(b));
            black_box(check_ocd(&rel, &x, &y));
            let resorted = clock.elapsed();
            black_box(partitions.check_ocd(&x, &y));
            let partitioned = clock.elapsed();
            t[0] += sorted;
            t[1] += scanned - sorted;
            t[2] += resorted - scanned;
            t[3] += partitioned - resorted;
        }
    });
    let per_check_us = |d: Duration| s(d) * 1e6 / pairs.len().max(1) as f64;
    if pairs.is_empty() {
        for name in ["relation.sort.pair_sort_s", "relation.scan.od_scan_s"] {
            l.skip(name, "s");
        }
        l.skip("core.check.resort_us", "us");
        l.skip("core.check.partition_us", "us");
    } else {
        l.put("relation.sort.pair_sort_s", s(t[0]), "s");
        l.put("relation.scan.od_scan_s", s(t[1]), "s");
        l.put("core.check.resort_us", per_check_us(t[2]), "us");
        l.put("core.check.partition_us", per_check_us(t[3]), "us");
    }

    // relation.sample
    let spec = approx_config(discovery_config(Config::Engine)).sample_spec(rel.num_rows());
    let build = timed(
        tr,
        "probe.relation.sample.build",
        || (),
        |()| Sample::build(&rel, &spec),
    );
    l.put("relation.sample.build_s", build, "s");

    // core.search: discovery minus reduction; per-level cost from
    // `max_level` prefix runs under the engine configuration.
    if approx {
        for (name, unit) in [
            ("core.search.s", "s"),
            ("core.search.engine_s", "s"),
            ("core.search.checks", "count"),
            ("core.search.generated", "count"),
            ("core.search.dedup_ratio", "ratio"),
            ("core.search.valid_ratio", "ratio"),
            ("core.search.levels", "count"),
            ("core.search.level2_s", "s"),
            ("core.search.level3_s", "s"),
            ("core.search.level4_s", "s"),
            ("core.search.deeper_s", "s"),
        ] {
            l.skip(name, unit);
        }
    } else {
        let checks = sum_counters(f0, ".candidates");
        let generated = counter(f0, "candidates_generated");
        let levels = f0
            .counters
            .keys()
            .filter(|k| k.ends_with(".candidates"))
            .count();
        l.put("core.search.s", med(faithful, |r| r.initial) - red_s, "s");
        l.put(
            "core.search.engine_s",
            med(engine, |r| r.initial) - red_par_s,
            "s",
        );
        l.put("core.search.checks", checks as f64, "count");
        l.put("core.search.generated", generated as f64, "count");
        l.put(
            "core.search.dedup_ratio",
            checks as f64 / generated.max(1) as f64,
            "ratio",
        );
        l.put(
            "core.search.valid_ratio",
            sum_counters(f0, ".valid_ocds") as f64 / checks.max(1) as f64,
            "ratio",
        );
        l.put("core.search.levels", levels as f64, "count");
        let mut prev = 0.0;
        for cap in 1..=levels + 1 {
            let cfg = DiscoveryConfig {
                max_level: Some(cap),
                ..discovery_config(Config::Engine)
            };
            let (_, d) = tr.span("probe.core.search.prefix", |_| {
                black_box(discover(&rel, &cfg))
            });
            if cap > 1 {
                l.level_s.push((cap, (s(d) - prev).max(0.0)));
            }
            prev = s(d);
        }
        let level = |n: usize| l.level_s.iter().find(|(c, _)| *c == n).map_or(0.0, |x| x.1);
        let (l2, l3, l4) = (level(2), level(3), level(4));
        let deeper = l
            .level_s
            .iter()
            .filter(|(c, _)| *c > 4)
            .fold(0.0, |acc, x| acc + x.1);
        l.put("core.search.level2_s", l2, "s");
        l.put("core.search.level3_s", l3, "s");
        l.put("core.search.level4_s", l4, "s");
        l.put("core.search.deeper_s", deeper, "s");
    }

    // core.shared_cache (the approximate pipeline does not report it)
    match &e0.cache {
        Some(c) => {
            l.put(
                "core.shared_cache.hit_ratio",
                c.hits as f64 / (c.hits + c.misses).max(1) as f64,
                "ratio",
            );
            l.put("core.shared_cache.evictions", c.evictions as f64, "count");
            l.put(
                "core.shared_cache.resident_mb",
                c.resident_bytes as f64 / (1u64 << 20) as f64,
                "MiB",
            );
        }
        None => {
            l.skip("core.shared_cache.hit_ratio", "ratio");
            l.skip("core.shared_cache.evictions", "count");
            l.skip("core.shared_cache.resident_mb", "MiB");
        }
    }

    // core.scheduler: the engine run's counters, and WorkStealing(1) vs
    // WorkStealing(nproc) measured on the workload's first discovery.
    match &e0.scheduler {
        Some(sched) => {
            let per_worker: Vec<f64> = sched.workers.iter().map(|w| w.batches as f64).collect();
            let mean = per_worker.iter().sum::<f64>() / per_worker.len().max(1) as f64;
            let max = per_worker.iter().copied().fold(0.0, f64::max);
            l.put("core.scheduler.batches", sched.batches as f64, "count");
            l.put("core.scheduler.steals", sched.steals() as f64, "count");
            l.put(
                "core.scheduler.imbalance",
                if mean > 0.0 { max / mean } else { 1.0 },
                "ratio",
            );
        }
        None => {
            l.skip("core.scheduler.batches", "count");
            l.skip("core.scheduler.steals", "count");
            l.skip("core.scheduler.imbalance", "ratio");
        }
    }
    let first_discovery = |threads: usize| {
        let cfg = discovery_config_with(Config::Engine, threads);
        if approx {
            black_box(discover_approximate_with(&rel, &approx_config(cfg)).checks)
        } else {
            black_box(discover(&rel, &cfg).checks)
        }
    };
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        one.push(s(tr
            .span("probe.core.scheduler.x1", |_| first_discovery(1))
            .1));
        many.push(s(tr
            .span("probe.core.scheduler.xn", |_| first_discovery(workers()))
            .1));
    }
    l.put(
        "core.scheduler.speedup",
        median(&one) / median(&many),
        "ratio",
    );
    match modelled_speedup(workers()) {
        Some(x) => l.put("core.scheduler.modelled_speedup", x, "ratio"),
        None => l.skip("core.scheduler.modelled_speedup", "ratio"),
    }

    // core.approximate
    if approx {
        let estimated = counter(e0, "approx.estimated");
        let escalated = counter(e0, "approx.escalated");
        l.put("core.approximate.estimated", estimated as f64, "count");
        l.put("core.approximate.escalated", escalated as f64, "count");
        l.put(
            "core.approximate.escalation_ratio",
            escalated as f64 / estimated.max(1) as f64,
            "ratio",
        );
        l.put(
            "core.approximate.sample_row_scans",
            counter(e0, "approx.sample_row_scans") as f64,
            "count",
        );
        l.put(
            "core.approximate.full_row_scans",
            counter(e0, "approx.full_row_scans") as f64,
            "count",
        );
        l.put(
            "core.approximate.triage_s",
            med(engine, |r| r.initial) - build,
            "s",
        );
    } else {
        for (name, unit) in [
            ("core.approximate.estimated", "count"),
            ("core.approximate.escalated", "count"),
            ("core.approximate.escalation_ratio", "ratio"),
            ("core.approximate.sample_row_scans", "count"),
            ("core.approximate.full_row_scans", "count"),
            ("core.approximate.triage_s", "s"),
        ] {
            l.skip(name, unit);
        }
    }

    // core.incremental: append latency and how much of it re-encoding the
    // grown relation explains.
    if input.batches.is_empty() {
        for (name, unit) in [
            ("core.incremental.append_s", "s"),
            ("core.incremental.reencode_share", "ratio"),
            ("core.incremental.invalidated", "count"),
            ("core.incremental.full_reruns", "count"),
        ] {
            l.skip(name, unit);
        }
    } else {
        let appends: Vec<f64> = engine
            .iter()
            .flat_map(|r| r.appends.iter().map(|d| s(*d)))
            .collect();
        let mut reencode = 0.0;
        for k in 1..=input.batches.len() {
            let cols = grown_columns(input, k).map_err(|e| e.to_string())?;
            let (_, d) = tr.span("probe.core.incremental.reencode", |_| {
                black_box(Relation::from_columns(cols))
            });
            reencode += s(d);
        }
        let per_rep_appends = med(engine, |r| r.appends.iter().sum());
        l.put("core.incremental.append_s", median(&appends), "s");
        l.put(
            "core.incremental.reencode_share",
            reencode / per_rep_appends,
            "ratio",
        );
        l.put(
            "core.incremental.invalidated",
            counter(e0, "incremental.invalidated") as f64,
            "count",
        );
        l.put(
            "core.incremental.full_reruns",
            counter(e0, "incremental.full_reruns") as f64,
            "count",
        );
    }

    // core.json
    l.put("core.json.emit_s", med(engine, |r| r.emit), "s");
    l.put("core.json.bytes", e0.report_bytes as f64, "bytes");
    Ok(l)
}
