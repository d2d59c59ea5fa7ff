//! One pipeline run — CSV bytes → `Relation` → discovery → JSON report —
//! under one configuration, and the checks every repetition must pass.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use ocdd_bench::approx_triage;
use ocdd_core::approximate::{discover_approximate_with, ApproxConfig, ApproxStats};
use ocdd_core::incremental::IncrementalDiscovery;
use ocdd_core::json::{approx_result_to_json, result_to_json};
use ocdd_core::reduction::columns_reduction;
use ocdd_core::{
    discover, CacheStats, CheckerBackend, DiscoveryConfig, DiscoveryResult, ParallelMode,
    SchedulerStats, TerminationReason,
};
use ocdd_relation::sort::kernel_stats::{self, KernelCounts};
use ocdd_relation::{read_csv_str, CsvOptions, Relation, Value};

use crate::trace::Tracer;
use crate::workloads::{Input, Workload, APPROX_SAMPLE};

/// Worker threads of the `engine` configuration: the machine's cores.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The two configurations every workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// `WorkStealing(nproc)` + `SortedPartitions` + epoch shared cache.
    Engine,
    /// `Sequential` + `Resort`, no cache: Algorithms 1–2 as written.
    Faithful,
}

impl Config {
    fn label(self) -> &'static str {
        match self {
            Config::Engine => "engine",
            Config::Faithful => "faithful",
        }
    }
}

/// Exact-discovery settings of `cfg`, with `WorkStealing(threads)` for
/// the engine.
pub fn discovery_config_with(cfg: Config, threads: usize) -> DiscoveryConfig {
    match cfg {
        Config::Engine => DiscoveryConfig {
            mode: ParallelMode::WorkStealing(threads),
            checker: CheckerBackend::SortedPartitions,
            shared_cache: true,
            ..DiscoveryConfig::default()
        },
        Config::Faithful => DiscoveryConfig::default(),
    }
}

/// Exact-discovery settings of `cfg`.
pub fn discovery_config(cfg: Config) -> DiscoveryConfig {
    discovery_config_with(cfg, workers())
}

/// The shipped sample-first settings (ε = 0.01, 50k-row sample, level
/// cap 2) over `cfg`'s discovery settings.
pub fn approx_config(base: DiscoveryConfig) -> ApproxConfig {
    let shipped = approx_triage::default_config(APPROX_SAMPLE, 1);
    ApproxConfig {
        base: DiscoveryConfig {
            max_level: shipped.base.max_level,
            ..base
        },
        ..shipped
    }
}

/// What one pipeline run measured and produced.
#[derive(Default)]
pub struct Run {
    /// `read_csv_str`.
    pub setup: Duration,
    /// The first discovery over the parsed relation.
    pub initial: Duration,
    /// All dependency work: the first discovery plus every append.
    pub discover: Duration,
    /// Each `append_rows` batch (`append_stream` only).
    pub appends: Vec<Duration>,
    /// Report serialisation.
    pub emit: Duration,
    /// The whole pipeline.
    pub total: Duration,
    /// Bytes of the JSON report.
    pub report_bytes: usize,
    /// The report with its observability keys dropped.
    pub report: String,
    /// Dependencies found, as sorted keys (for F1).
    pub answer: Vec<String>,
    /// Work counters that must repeat exactly.
    pub counters: BTreeMap<String, u64>,
    /// Shared-cache counters (scheduling-dependent).
    pub cache: Option<CacheStats>,
    /// Scheduler counters (scheduling-dependent).
    pub scheduler: Option<SchedulerStats>,
    /// Why the run failed, if it did.
    pub problem: Option<String>,
}

/// Both configurations of one workload repetition.
pub struct Rep {
    /// The `engine` run.
    pub engine: Run,
    /// The `faithful` run.
    pub faithful: Run,
}

impl Rep {
    /// The run of `cfg`.
    pub fn run(&self, cfg: Config) -> &Run {
        match cfg {
            Config::Engine => &self.engine,
            Config::Faithful => &self.faithful,
        }
    }
}

/// One repetition: the engine run, then the faithful run.
pub fn rep(w: Workload, input: &Input, tr: &mut Tracer) -> Rep {
    Rep {
        engine: run(w, input, Config::Engine, tr),
        faithful: run(w, input, Config::Faithful, tr),
    }
}

/// One pipeline run; a panic becomes a failed run.
pub fn run(w: Workload, input: &Input, cfg: Config, tr: &mut Tracer) -> Run {
    let name = match cfg {
        Config::Engine => "pipeline.engine",
        Config::Faithful => "pipeline.faithful",
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut run = Run::default();
        let ((), total) = tr.span(name, |tr| {
            let (parsed, setup) = tr.span("relation.csv.ingest", |_| {
                read_csv_str(&input.csv, &CsvOptions::default())
            });
            run.setup = setup;
            match parsed {
                Ok(rel) => match w {
                    Workload::ApproxSample => approximate(&rel, cfg, tr, &mut run),
                    Workload::AppendStream => appending(&rel, input, cfg, tr, &mut run),
                    Workload::DenseSearch | Workload::TallIngest => exact(&rel, cfg, tr, &mut run),
                },
                Err(e) => run.problem = Some(format!("csv: {e}")),
            }
        });
        run.total = total;
        run
    }));
    outcome.unwrap_or_else(|panic| {
        tr.recover();
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Run {
            problem: Some(format!("panic: {msg}")),
            ..Run::default()
        }
    })
}

fn exact(rel: &Relation, cfg: Config, tr: &mut Tracer, run: &mut Run) {
    let before = kernel_stats::snapshot();
    let (res, d) = tr.span("core.search.discover", |_| {
        discover(rel, &discovery_config(cfg))
    });
    run.initial = d;
    run.discover = d;
    let kernels = kernel_stats::snapshot().since(&before);
    let (json, emit) = tr.span("core.json.emit", |_| result_to_json(&res, rel));
    run.emit = emit;
    record_exact(run, cfg, &res, kernels, &json);
}

fn approximate(rel: &Relation, cfg: Config, tr: &mut Tracer, run: &mut Run) {
    let before = kernel_stats::snapshot();
    let (res, d) = tr.span("core.approximate.discover", |_| {
        discover_approximate_with(rel, &approx_config(discovery_config(cfg)))
    });
    run.initial = d;
    run.discover = d;
    let kernels = kernel_stats::snapshot().since(&before);
    let (json, emit) = tr.span("core.json.emit", |_| approx_result_to_json(&res, rel));
    run.emit = emit;
    run.report_bytes = json.len();
    run.report = json;
    // The shipped settings cap the search at level 2, so a level-cap stop
    // is this workload's normal ending.
    if !matches!(
        res.termination,
        TerminationReason::Complete | TerminationReason::LevelCap
    ) {
        run.problem = Some(format!("termination {}", res.termination.label()));
    }
    let mut answer: Vec<String> = res.ocds.iter().map(|a| format!("ocd {}", a.ocd)).collect();
    answer.extend(res.ods.iter().map(|od| format!("od {od}")));
    answer.sort();
    run.answer = answer;
    let c = &mut run.counters;
    c.insert("checks".into(), res.checks);
    let s = res.approx.clone().unwrap_or_default();
    let ApproxStats {
        estimated,
        accepted_by_sample,
        rejected_by_sample,
        escalated,
        full_checks_saved,
        sample_row_scans,
        full_row_scans,
        ..
    } = s;
    for (k, v) in [
        ("approx.estimated", estimated),
        ("approx.accepted_by_sample", accepted_by_sample),
        ("approx.rejected_by_sample", rejected_by_sample),
        ("approx.escalated", escalated),
        ("approx.full_checks_saved", full_checks_saved),
        ("approx.sample_row_scans", sample_row_scans),
        ("approx.full_row_scans", full_row_scans),
    ] {
        c.insert(k.into(), v);
    }
    record_kernels(run, cfg, kernels);
}

fn appending(rel: &Relation, input: &Input, cfg: Config, tr: &mut Tracer, run: &mut Run) {
    let before = kernel_stats::snapshot();
    let (mut inc, d) = tr.span("core.incremental.new", |_| {
        IncrementalDiscovery::new(rel, discovery_config(cfg))
    });
    run.initial = d;
    run.discover = d;
    let (mut invalidated, mut full_reruns) = (0u64, 0u64);
    for batch in &input.batches {
        let rows = batch.clone();
        let (delta, d) = tr.span("core.incremental.append", |_| inc.append_rows(rows));
        run.discover += d;
        run.appends.push(d);
        match delta {
            Ok(delta) => {
                invalidated += (delta.invalidated_ocds.len() + delta.invalidated_ods.len()) as u64;
                full_reruns += u64::from(delta.full_rerun);
            }
            Err(e) => run.problem = Some(format!("append: {e}")),
        }
    }
    let kernels = kernel_stats::snapshot().since(&before);
    let (json, emit) = tr.span("core.json.emit", |_| {
        result_to_json(inc.result(), inc.relation())
    });
    run.emit = emit;
    record_exact(run, cfg, inc.result(), kernels, &json);
    run.counters
        .insert("incremental.invalidated".into(), invalidated);
    run.counters
        .insert("incremental.full_reruns".into(), full_reruns);
}

/// Top-level report keys that vary between runs of the same input
/// (`observed` is where a report that separates its timing fields from
/// its deterministic result would keep them).
const OBSERVABILITY_KEYS: [&str; 6] = [
    "elapsed_ms",
    "kernels",
    "cache",
    "scheduler",
    "checkpoint",
    "observed",
];

/// `json` (one object) without its top-level [`OBSERVABILITY_KEYS`].
fn strip_observability(json: &str) -> String {
    let body = json
        .trim()
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .unwrap_or(json);
    let mut members = Vec::new();
    let (mut depth, mut in_str, mut escaped, mut start) = (0i32, false, false, 0usize);
    for (i, ch) in body.char_indices() {
        if in_str {
            match ch {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match ch {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            ',' if depth == 0 => {
                members.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    members.push(&body[start..]);
    let kept: Vec<&str> = members
        .into_iter()
        .filter(|m| {
            let key = m.trim_start().trim_start_matches('"');
            !OBSERVABILITY_KEYS.iter().any(|k| {
                key.strip_prefix(k)
                    .is_some_and(|rest| rest.starts_with('"'))
            })
        })
        .collect();
    format!("{{{}}}", kept.join(","))
}

fn record_exact(
    run: &mut Run,
    cfg: Config,
    res: &DiscoveryResult,
    kernels: KernelCounts,
    json: &str,
) {
    if !res.termination.is_complete() {
        run.problem = Some(format!("termination {}", res.termination.label()));
    }
    run.report_bytes = json.len();
    run.report = strip_observability(json);
    run.answer = exact_answer(res);
    run.cache = res.cache;
    run.scheduler = res.scheduler.clone();
    let c = &mut run.counters;
    c.insert("checks".into(), res.checks);
    c.insert("candidates_generated".into(), res.candidates_generated);
    for l in &res.levels {
        c.insert(format!("level{}.candidates", l.level), l.candidates);
        c.insert(format!("level{}.valid_ocds", l.level), l.valid_ocds);
        c.insert(format!("level{}.valid_ods", l.level), l.valid_ods);
    }
    record_kernels(run, cfg, kernels);
}

/// Kernel counts are exact per run (runs never overlap), but under the
/// engine they follow cache hits, which depend on scheduling; only the
/// faithful run's are work counters that must repeat.
fn record_kernels(run: &mut Run, cfg: Config, k: KernelCounts) {
    let prefix = match cfg {
        Config::Faithful => "kernels",
        Config::Engine => "observed.kernels",
    };
    for (name, v) in [
        ("sort.counting", k.counting),
        ("sort.packed_radix", k.packed_radix),
        ("sort.chained_refine", k.chained_refine),
        ("sort.comparator", k.comparator),
        ("scan.scalar", k.scan_scalar),
        ("scan.block", k.scan_block),
        ("scan.simd", k.scan_simd),
    ] {
        run.counters.insert(format!("{prefix}.{name}"), v);
    }
}

/// Sorted dependency keys of an exact result: OCDs, ODs, equivalence
/// classes and constants.
pub fn exact_answer(res: &DiscoveryResult) -> Vec<String> {
    let mut keys: Vec<String> = res.ocds.iter().map(|o| format!("ocd {o}")).collect();
    keys.extend(res.ods.iter().map(|o| format!("od {o}")));
    keys.extend(res.equivalence_classes.iter().map(|c| format!("eq {c:?}")));
    keys.extend(res.constants.iter().map(|c| format!("const {c}")));
    keys.sort();
    keys
}

/// F1 of `found` against `truth` (both sorted, duplicate-free).
fn f1(found: &[String], truth: &[String]) -> f64 {
    if found.is_empty() && truth.is_empty() {
        return 1.0;
    }
    let hits = found
        .iter()
        .filter(|k| truth.binary_search(k).is_ok())
        .count() as f64;
    2.0 * hits / (found.len() + truth.len()) as f64
}

/// The answer `approx_sample` plants at the shipped settings (ε = 0.01,
/// 50k-row sample, level cap 2), over the columns of
/// `approx_triage::workload_relation`: 0 `bb`, 1 `ord`, 2–4 `co1`–`co3`,
/// 5–6 `rnd1`–`rnd2`, 7 `nbase1`, 8 `near1`, 9 `nbase2`, 10 `near2`.
/// Confirmed equal to the exhaustive ε-run (`sample_rows: None`) at
/// `APPROX_ROWS` on seeds 1, 2, 3, 7 and 11. At this row count `bb → co2`
/// holds within ε (true split error ≈ 0.007); at the shipped 1M rows it
/// does not, which is why the 1M-row answer has one OD fewer.
const APPROX_TRUTH: [&str; 15] = [
    "ocd [0] ~ [1]",
    "ocd [0] ~ [2]",
    "ocd [0] ~ [3]",
    "ocd [0] ~ [4]",
    "ocd [1] ~ [2]",
    "ocd [1] ~ [3]",
    "ocd [1] ~ [4]",
    "ocd [2] ~ [3]",
    "ocd [2] ~ [4]",
    "ocd [3] ~ [4]",
    "ocd [7] ~ [8]",
    "od [0] -> [1]",
    "od [0] -> [3]",
    "od [7] -> [8]",
    "od [8] -> [7]",
];

/// Checks each repetition and accounts failures.
pub struct Checker {
    /// The reference answer, when it does not come from the faithful run.
    reference: Option<Vec<String>>,
    /// Single-column OD checks of `columns_reduction` on the parsed input
    /// (exact workloads; the approximate pipeline skips reduction).
    pub reduction_checks: Option<u64>,
    first: [Option<BTreeMap<String, u64>>; 2],
    /// Repetitions with any failure.
    pub failed: usize,
    /// What failed (first few).
    pub failures: Vec<String>,
    /// Lowest F1 seen.
    pub min_f1: f64,
}

impl Checker {
    /// A checker for `w`. `append_stream` is scored against a from-scratch
    /// discovery over the grown relation, computed here, outside timing.
    pub fn new(w: Workload, input: &Input) -> Checker {
        let reference = match w {
            Workload::ApproxSample => {
                let mut truth: Vec<String> = APPROX_TRUTH.iter().map(|s| s.to_string()).collect();
                truth.sort();
                Some(truth)
            }
            Workload::AppendStream => Some(exact_answer(&discover(
                &grown_relation(input),
                &DiscoveryConfig::default(),
            ))),
            Workload::DenseSearch | Workload::TallIngest => None,
        };
        let reduction_checks = (w != Workload::ApproxSample)
            .then(|| read_csv_str(&input.csv, &CsvOptions::default()).ok())
            .flatten()
            .map(|rel| columns_reduction(&rel).checks);
        Checker {
            reference,
            reduction_checks,
            first: [None, None],
            failed: 0,
            failures: Vec::new(),
            min_f1: 1.0,
        }
    }

    /// Check one repetition.
    pub fn check(&mut self, rep: &Rep) {
        let mut bad = Vec::new();
        for (i, cfg) in [Config::Engine, Config::Faithful].into_iter().enumerate() {
            let run = rep.run(cfg);
            if let Some(p) = &run.problem {
                bad.push(format!("{}: {p}", cfg.label()));
            }
            let first = self.first[i].get_or_insert_with(|| run.counters.clone());
            let drifted: Vec<&String> = first
                .iter()
                .filter(|(k, v)| !k.starts_with("observed.") && run.counters.get(*k) != Some(v))
                .map(|(k, _)| k)
                .collect();
            if !drifted.is_empty() || first.len() != run.counters.len() {
                bad.push(format!("{}: counters drifted {drifted:?}", cfg.label()));
            }
        }
        if rep.engine.report != rep.faithful.report {
            bad.push("engine and faithful reports differ".into());
        }
        let reference = self.reference.as_ref().unwrap_or(&rep.faithful.answer);
        let score = f1(&rep.engine.answer, reference).min(f1(&rep.faithful.answer, reference));
        self.min_f1 = self.min_f1.min(score);
        if score < 1.0 {
            bad.push(format!("f1 {score}"));
        }
        if !bad.is_empty() {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures
                    .push(format!("\"{}\"", bad.join("; ").replace('"', "'")));
            }
        }
    }

    /// The first repetition's counters of both configurations, as JSON.
    pub fn counters_json(&self) -> String {
        let mut out = String::from("{");
        for (i, cfg) in [Config::Engine, Config::Faithful].into_iter().enumerate() {
            let body: Vec<String> = self.first[i]
                .iter()
                .flatten()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": {{{}}}", cfg.label(), body.join(", "));
        }
        out.push('}');
        out
    }
}

/// Column-major values of `rel`, by name.
pub fn columns_of(rel: &Relation) -> Vec<(String, Vec<Value>)> {
    rel.column_names()
        .iter()
        .enumerate()
        .map(|(c, name)| {
            let vals = (0..rel.num_rows())
                .map(|r| rel.value(r, c).clone())
                .collect();
            (name.to_string(), vals)
        })
        .collect()
}

/// The relation `append_stream` ends with: the CSV's rows plus every
/// batch, encoded the way `IncrementalDiscovery` re-encodes it.
pub fn grown_relation(input: &Input) -> Relation {
    grown_columns(input, input.batches.len())
        .and_then(Relation::from_columns)
        .expect("generated batches match the CSV's arity")
}

/// Column-major values of the CSV's rows plus the first `batches` batches.
pub fn grown_columns(
    input: &Input,
    batches: usize,
) -> ocdd_relation::Result<Vec<(String, Vec<Value>)>> {
    let head = read_csv_str(&input.csv, &CsvOptions::default())?;
    let mut cols = columns_of(&head);
    for batch in &input.batches[..batches] {
        for row in batch {
            for ((_, col), v) in cols.iter_mut().zip(row) {
                col.push(v.clone());
            }
        }
    }
    Ok(cols)
}
