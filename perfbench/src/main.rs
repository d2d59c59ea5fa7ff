//! End-to-end benchmark of the discovery engine: CSV bytes in, JSON report
//! out, over four seeded workloads and two configurations.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense_search --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, each time scaled to nominal
//! host speed by an interleaved reference kernel (see `calibrate`);
//! `--trace 1` records spans around each layer's public entry points, runs
//! the per-layer probes, writes
//! `perfbench/out/<workload>-<seed>.{spans.jsonl,summary.json}` and prints
//! the per-layer metrics. The last stdout line is always one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod calibrate;
mod pipeline;
mod probes;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calibrate::HostClock;
use pipeline::{Config, Rep, Run};
use trace::Tracer;
use workloads::{Input, Workload};

/// Timed repetitions every invocation makes, however short `--seconds`.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let input = args.workload.generate(args.seed);
    let outcome = if args.trace {
        traced(&args, &input)
    } else {
        untraced(&args, &input)
    };
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated `q`-quantile of `xs` (0 for an empty slice).
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Environment block recorded with every result.
fn environment() -> String {
    let env = ocdd_bench::check_throughput::environment_json();
    let nproc = pipeline::workers();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // Splice the two extra fields into the shared object.
    format!(
        "{}, \"nproc\": {nproc}, \"profile\": \"{profile}\"}}",
        env.trim_end_matches('}')
    )
}

fn secs(ds: impl Iterator<Item = Duration>) -> Vec<f64> {
    ds.map(|d| d.as_secs_f64()).collect()
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.is_empty() {
        out.push_str(", ");
    }
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

/// `xs`' n/min/p25/median/p75 as one JSON member named `name`.
fn band(out: &mut String, name: &str, xs: &[f64]) {
    let sep = if out.is_empty() { "" } else { ", " };
    let _ = write!(
        out,
        "{sep}\"{name}\": {{\"n\": {}, \"min\": {}, \"p25\": {}, \"median\": {}, \"p75\": {}}}",
        xs.len(),
        quantile(xs, 0.0),
        quantile(xs, 0.25),
        median(xs),
        quantile(xs, 0.75),
    );
}

/// The measured loop: one warm-up repetition, then repetitions until
/// `seconds` have passed (at least [`MIN_REPS`]). Every repetition runs
/// both configurations back to back and checks them against each other;
/// the host-speed reference is timed before, between and after the runs,
/// and each run's times are scaled by the factor around it.
fn untraced(args: &Args, input: &Input) -> Result<String, String> {
    let mut tr = Tracer::new(false);
    let mut checker = pipeline::Checker::new(args.workload, input);
    // Peak memory as one `ocdd profile` process sees it: input, reference
    // answer and one run of each config. The warm-up runs `faithful`
    // first because the engine's worker threads leave freed memory in
    // their own arenas, in amounts that vary from run to run (0 to 70 MiB
    // on approx_sample), and a run after them would count it; for the same
    // reason the timed repetitions, which only add such leftovers, are left
    // out.
    let faithful = pipeline::run(args.workload, input, Config::Faithful, &mut tr);
    let engine = pipeline::run(args.workload, input, Config::Engine, &mut tr);
    checker.check(&Rep { engine, faithful });
    let peak_mb = peak_rss_mb()?;
    let mut clock = HostClock::default();
    clock.tick();
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let engine = pipeline::run(args.workload, input, Config::Engine, &mut tr);
        clock.tick();
        let faithful = pipeline::run(args.workload, input, Config::Faithful, &mut tr);
        clock.tick();
        let r = Rep { engine, faithful };
        checker.check(&r);
        reps.push(r);
    }
    // Wall and scaled seconds of `field` of every run of each config in
    // `cfgs`. Repetition k's engine run sits between ticks 2k and 2k + 1,
    // its faithful run between ticks 2k + 1 and 2k + 2.
    let (reps, clock) = (&reps, &clock);
    let timed = |cfgs: &[Config], field: fn(&Run) -> Duration| -> (Vec<f64>, Vec<f64>) {
        cfgs.iter()
            .flat_map(|&cfg| {
                let i = usize::from(cfg == Config::Faithful);
                reps.iter().enumerate().map(move |(k, r)| {
                    let wall = field(r.run(cfg)).as_secs_f64();
                    (wall, wall * clock.factor_between(2 * k + i))
                })
            })
            .unzip()
    };
    let (engine, faithful, both) = (
        &[Config::Engine][..],
        &[Config::Faithful][..],
        &[Config::Engine, Config::Faithful][..],
    );
    let timings = [
        ("profile_s", timed(engine, |r| r.total)),
        ("profile_faithful_s", timed(faithful, |r| r.total)),
        ("setup_s", timed(both, |r| r.setup)),
        ("discover_s", timed(engine, |r| r.discover)),
        ("discover_faithful_s", timed(faithful, |r| r.discover)),
    ];
    let mut m = String::new();
    let mut bands = String::new();
    let mut wall_bands = String::new();
    for (name, (wall, scaled)) in &timings {
        metric(&mut m, name, median(scaled), "s");
        band(&mut bands, name, scaled);
        band(&mut wall_bands, name, wall);
    }
    band(&mut wall_bands, "reference_s", &clock.samples);
    metric(&mut m, "peak_rss_mb", peak_mb, "MiB");
    metric(&mut m, "f1", checker.min_f1, "ratio");

    let attempted = reps.len() + 1;
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"rows\": {}, \"columns\": {}, \"csv_bytes\": {}, \
         \"why\": \"{}\", \"warmup_reps\": 1, \"timed_reps\": {}, \"seconds\": {:.3}, \
         \"failed_frac\": {}, \"failures\": [{}], \"bands\": {{{bands}}}, \
         \"wall_bands\": {{{wall_bands}}}, \
         \"reduction_checks\": {}, \"counters\": {}, \"environment\": {}}}",
        args.workload.name(),
        args.seed,
        input.rows,
        input.columns,
        input.csv.len(),
        args.workload.why(),
        reps.len(),
        start.elapsed().as_secs_f64(),
        checker.failed as f64 / attempted as f64,
        checker.failures.join(", "),
        checker
            .reduction_checks
            .map_or("null".to_owned(), |c| c.to_string()),
        checker.counters_json(),
        environment(),
    );
    Ok(result_line(
        checker.failed == 0,
        attempted,
        checker.failed,
        &m,
    ))
}

/// The traced run: alternates an untraced and a traced engine repetition
/// (their difference is the tracing overhead) with a traced faithful one,
/// then runs the per-layer probes once and writes the spans.
fn traced(args: &Args, input: &Input) -> Result<String, String> {
    let mut plain = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let mut checker = pipeline::Checker::new(args.workload, input);
    let start = Instant::now();
    let mut untraced_totals = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let r = pipeline::run(args.workload, input, Config::Engine, &mut plain);
        untraced_totals.push(r.total.as_secs_f64());
        tr.next_run();
        let r = pipeline::rep(args.workload, input, &mut tr);
        checker.check(&r);
        reps.push(r);
    }
    let engine: Vec<&Run> = reps.iter().map(|r| &r.engine).collect();
    let faithful: Vec<&Run> = reps.iter().map(|r| &r.faithful).collect();
    let overhead = median(&secs(engine.iter().map(|r| r.total))) - median(&untraced_totals);

    tr.next_run();
    let layer = probes::run_all(args.workload, input, &engine, &faithful, &mut tr)?;

    let mut m = String::new();
    for (name, value, unit) in &layer.metrics {
        metric(&mut m, name, *value, unit);
    }
    metric(&mut m, "trace.overhead_s", overhead, "s");
    metric(&mut m, "trace.spans", tr.len() as f64, "count");

    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{}-{}", args.workload.name(), args.seed);
    let spans = dir.join(format!("{stem}.spans.jsonl"));
    std::fs::write(&spans, tr.to_jsonl()).map_err(|e| format!("{}: {e}", spans.display()))?;
    let mut summary = String::from("{\n  \"spans\": {");
    for (i, (name, (count, total, own))) in tr.summary().iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            summary,
            "{sep}\n    \"{name}\": {{\"count\": {count}, \"total_s\": {total}, \"self_s\": {own}}}"
        );
    }
    let _ = write!(
        summary,
        "\n  }},\n  \"metrics\": {{{m}}},\n  \"not_exercised\": [{}],\n  \"levels\": [{}],\n  \
         \"counters\": {},\n  \"environment\": {}\n}}\n",
        layer
            .not_exercised
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", "),
        layer
            .level_s
            .iter()
            .map(|(l, s)| format!("{{\"level\": {l}, \"s\": {s}}}"))
            .collect::<Vec<_>>()
            .join(", "),
        checker.counters_json(),
        environment(),
    );
    let summary_path = dir.join(format!("{stem}.summary.json"));
    std::fs::write(&summary_path, summary)
        .map_err(|e| format!("{}: {e}", summary_path.display()))?;
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"traced_reps\": {}, \"spans\": \"{}\", \"summary\": \"{}\", \
         \"failures\": [{}]}}",
        args.workload.name(),
        args.seed,
        reps.len(),
        spans.display(),
        summary_path.display(),
        checker.failures.join(", "),
    );
    Ok(result_line(
        checker.failed == 0,
        reps.len(),
        checker.failed,
        &m,
    ))
}
