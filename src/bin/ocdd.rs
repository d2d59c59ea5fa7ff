//! `ocdd` — command-line order dependency profiler.
//!
//! ```text
//! ocdd profile  <file.csv> [--algo ocdd|order|fastod|tane|bidi|approx]
//!               [--threads N] [--lex] [--epsilon E] [--budget SECS]
//!               [--top-k K] [--no-header] [--sep C] [--show-table] [--json]
//!               [--out FILE] [--checkpoint-dir D] [--checkpoint-every N]
//!               [--checkpoint-keep N] [--resume FILE|DIR]
//!               [--sample N] [--confidence C] [--seed S] [--stratify COL]
//! ocdd dump-dot <dump.json|DIR> [--csv file.csv] [--no-header] [--sep C]
//! ocdd dataset  <name> [--rows N]         # emit a bundled dataset as CSV
//! ocdd simplify <file.csv> --order-by a,b,c
//! ocdd list                               # list bundled datasets
//! ```
//!
//! `--threads N` runs the work-stealing scheduler on N workers when N > 1
//! and the sequential search otherwise, for `--algo ocdd`, `approx` and
//! `bidi` alike; results are identical either way. N above
//! [`MAX_WORKERS`] is a usage error. It governs only the search: reading
//! the CSV always uses every core the host offers, with the same relation
//! at any core count. `--top-k` needs `--algo ocdd` and
//! `--epsilon` needs `--algo approx`; with another algorithm they are
//! refused.
//!
//! `--checkpoint-dir` turns on durable checkpointing: the search dumps its
//! frontier at every level boundary (atomic tmp+fsync+rename writes), and
//! `--resume` rebuilds the frontier from a dump (or the newest dump in a
//! directory) and continues — producing byte-identical results to an
//! uninterrupted run. `dump-dot` renders a dump as a GraphViz lattice.
//!
//! `--algo approx` runs the sample-first pipeline: `--sample N` triages
//! candidates on a seeded N-row sample (uniform, or stratified by the
//! `--stratify` column) with a Hoeffding interval at `--confidence`,
//! escalating only borderline candidates to full-data checks. Checkpoint
//! and `--resume` work here too: dumps record the sampling provenance and
//! resume refuses a dump whose sample does not match the flags.

use ocddiscover::baselines::{fastod, order_discover, tane, FastodConfig, OrderConfig, TaneConfig};
use ocddiscover::core::approximate::{
    discover_approximate_resume, discover_approximate_with, ApproxConfig, ApproximateResult,
};
use ocddiscover::core::bidirectional::discover_bidirectional;
use ocddiscover::core::entropy::discover_top_k;
use ocddiscover::core::rewrite::simplify_with_data;
use ocddiscover::datasets::{Dataset, RowScale};
use ocddiscover::relation::pretty::{render_summary, render_table};
use ocddiscover::relation::{write_csv, TypingMode};
use ocddiscover::{
    discover, discover_resume, latest_snapshot, manifest_hash, read_csv_path, read_snapshot,
    snapshot_to_dot, CheckpointPolicy, CsvOptions, DiscoveryConfig, DiscoveryResult, ParallelMode,
    Relation, SampleStrategy, SearchSnapshot, MAX_WORKERS,
};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

#[cfg(unix)]
unsafe fn libc_sigpipe_default() {
    // Minimal FFI shim to avoid a libc dependency: SIGPIPE = 13, SIG_DFL = 0.
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe { signal(13, 0) };
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ocdd profile <file.csv> [--algo ocdd|order|fastod|tane|bidi|approx] \
         [--threads N] [--lex] [--epsilon E] [--budget SECS] \
         [--top-k K] [--no-header] [--sep C] [--show-table] [--json] [--out FILE] \
         [--checkpoint-dir D] [--checkpoint-every N] [--checkpoint-keep N] \
         [--resume FILE|DIR] [--sample N] [--confidence C] [--seed S] \
         [--stratify COL]\n  \
         ocdd dump-dot <dump.json|DIR> [--csv file.csv] [--no-header] [--sep C]\n  \
         ocdd dataset <name> [--rows N]\n  \
         ocdd simplify <file.csv> --order-by a,b,c\n  ocdd list\n\
         --threads N sets the search workers; reading the CSV uses every core"
    );
    ExitCode::from(2)
}

/// The ε of `--algo approx` when `--epsilon` is not given.
const DEFAULT_EPSILON: f64 = 0.01;

struct ProfileArgs {
    path: String,
    algo: String,
    config: DiscoveryConfig,
    csv: CsvOptions,
    epsilon: Option<f64>,
    sample: Option<usize>,
    confidence: Option<f64>,
    seed: Option<u64>,
    stratify: Option<String>,
    top_k: Option<usize>,
    show_table: bool,
    json: bool,
    out: Option<String>,
    resume: Option<String>,
    check_delay_ms: Option<u64>,
}

fn parse_profile(args: &[String]) -> Option<ProfileArgs> {
    let mut out = ProfileArgs {
        path: String::new(),
        algo: "ocdd".to_owned(),
        config: DiscoveryConfig::default(),
        csv: CsvOptions::default(),
        epsilon: None,
        sample: None,
        confidence: None,
        seed: None,
        stratify: None,
        top_k: None,
        show_table: false,
        json: false,
        out: None,
        resume: None,
        check_delay_ms: None,
    };
    let mut threads: usize = 1;
    let mut ckpt_dir: Option<String> = None;
    let mut ckpt_every: Option<usize> = None;
    let mut ckpt_keep: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--algo" => out.algo = iter.next()?.clone(),
            "--threads" => {
                threads = iter.next()?.parse().ok().filter(|&t| t <= MAX_WORKERS)?;
            }
            "--lex" => out.csv.typing = TypingMode::ForceLexicographic,
            "--epsilon" => out.epsilon = Some(iter.next()?.parse().ok()?),
            "--sample" => out.sample = Some(iter.next()?.parse().ok()?),
            "--confidence" => out.confidence = Some(iter.next()?.parse().ok()?),
            "--seed" => out.seed = Some(iter.next()?.parse().ok()?),
            "--stratify" => out.stratify = Some(iter.next()?.clone()),
            "--budget" => {
                let secs: f64 = iter.next()?.parse().ok()?;
                out.config.time_budget = Some(Duration::try_from_secs_f64(secs).ok()?);
            }
            "--top-k" => out.top_k = Some(iter.next()?.parse().ok()?),
            "--no-header" => out.csv.has_header = false,
            "--sep" => out.csv.separator = iter.next()?.chars().next()?,
            "--show-table" => out.show_table = true,
            "--json" => out.json = true,
            "--out" => out.out = Some(iter.next()?.clone()),
            "--checkpoint-dir" => ckpt_dir = Some(iter.next()?.clone()),
            "--checkpoint-every" => ckpt_every = Some(iter.next()?.parse().ok()?),
            "--checkpoint-keep" => ckpt_keep = Some(iter.next()?.parse().ok()?),
            "--resume" => out.resume = Some(iter.next()?.clone()),
            "--check-delay-ms" => out.check_delay_ms = Some(iter.next()?.parse().ok()?),
            other if out.path.is_empty() && !other.starts_with('-') => {
                out.path = other.to_owned();
            }
            _ => return None,
        }
    }
    if let Some(dir) = ckpt_dir {
        let mut policy = CheckpointPolicy::new(dir);
        if let Some(n) = ckpt_every {
            policy.every_levels = n.max(1);
        }
        if let Some(n) = ckpt_keep {
            policy.keep_last = n;
        }
        // A CLI run that checkpoints is one the operator may want to
        // resume or inspect — keep the final dump around.
        policy.delete_on_complete = false;
        out.config.checkpoint = Some(policy);
    } else if ckpt_every.is_some() || ckpt_keep.is_some() {
        return None; // interval/retention without --checkpoint-dir
    }
    out.config.mode = if threads <= 1 {
        ParallelMode::Sequential
    } else {
        ParallelMode::WorkStealing(threads)
    };
    (!out.path.is_empty()).then_some(out)
}

/// Resolve a `--resume`/`dump-dot` operand: a file is read directly, a
/// directory means "the newest checkpoint in there".
fn load_snapshot(spec: &str) -> Result<SearchSnapshot, String> {
    let path = Path::new(spec);
    let file = if path.is_dir() {
        latest_snapshot(path).map_err(|e| e.to_string())?
    } else {
        path.to_path_buf()
    };
    read_snapshot(&file).map_err(|e| format!("{}: {e}", file.display()))
}

/// Install the fault-injection check delay used by the crash harness, or
/// explain why the flag is unavailable in this build.
#[cfg(feature = "fault-injection")]
fn apply_check_delay(config: &mut DiscoveryConfig, ms: u64) -> bool {
    let plan = ocddiscover::FaultPlan::delay_checks(Duration::from_millis(ms));
    config.fault = Some(std::sync::Arc::new(plan));
    true
}

#[cfg(not(feature = "fault-injection"))]
fn apply_check_delay(_config: &mut DiscoveryConfig, _ms: u64) -> bool {
    eprintln!("ocdd: --check-delay-ms requires a build with --features fault-injection");
    false
}

fn print_discovery(rel: &Relation, result: &ocddiscover::DiscoveryResult) {
    for &c in &result.constants {
        println!("constant    {}", rel.meta(c).name);
    }
    for class in &result.equivalence_classes {
        let names: Vec<&str> = class.iter().map(|&c| rel.meta(c).name.as_str()).collect();
        println!("equivalent  {}", names.join(" <-> "));
    }
    for ocd in &result.ocds {
        println!("ocd         {}", ocd.display(rel));
    }
    for od in &result.ods {
        println!("od          {}", od.display(rel));
    }
    println!(
        "-- {} checks, {:?}, {}",
        result.checks, result.elapsed, result.termination
    );
}

/// Report a discovery run: JSON to `--out` (atomic write), JSON to stdout
/// under `--json`, the human listing otherwise.
fn emit_result(rel: &Relation, result: &DiscoveryResult, p: &ProfileArgs) -> ExitCode {
    if p.json || p.out.is_some() {
        let json = ocddiscover::core::json::result_to_json(result, rel);
        if let Some(path) = &p.out {
            if let Err(e) = ocdd_iosafe::atomic_write_str(Path::new(path), &json) {
                eprintln!("ocdd: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if p.json {
            println!("{json}");
        }
    }
    if !p.json {
        print_discovery(rel, result);
    }
    ExitCode::SUCCESS
}

/// Report an approximate-pipeline run: JSON (with the triage accounting
/// object) to `--out`/stdout, or a human listing with the sample stats.
fn emit_approx_result(rel: &Relation, res: &ApproximateResult, p: &ProfileArgs) -> ExitCode {
    if p.json || p.out.is_some() {
        let json = ocddiscover::core::json::approx_result_to_json(res, rel);
        if let Some(path) = &p.out {
            if let Err(e) = ocdd_iosafe::atomic_write_str(Path::new(path), &json) {
                eprintln!("ocdd: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if p.json {
            println!("{json}");
        }
    }
    if !p.json {
        for aocd in &res.ocds {
            println!("ocd (err {:.3})  {}", aocd.error, aocd.ocd.display(rel));
        }
        for od in &res.ods {
            println!("od              {}", od.display(rel));
        }
        if let Some(st) = &res.approx {
            if st.exhaustive {
                println!("-- exhaustive run on all {} rows", st.total_rows);
            } else {
                println!(
                    "-- sample {}/{} rows (seed {:#x}): {} accepted, {} rejected, \
                     {} escalated of {} estimates; {} full checks saved",
                    st.sample_rows,
                    st.total_rows,
                    st.seed,
                    st.accepted_by_sample,
                    st.rejected_by_sample,
                    st.escalated,
                    st.estimated,
                    st.full_checks_saved
                );
            }
        }
        println!(
            "-- ε = {}, {} checks, {}",
            p.epsilon.unwrap_or(DEFAULT_EPSILON),
            res.checks,
            res.termination
        );
    }
    ExitCode::SUCCESS
}

fn cmd_profile(args: &[String]) -> ExitCode {
    let Some(mut p) = parse_profile(args) else {
        return usage();
    };
    if let Some(ms) = p.check_delay_ms {
        if !apply_check_delay(&mut p.config, ms) {
            return ExitCode::FAILURE;
        }
    }
    if p.top_k.is_some() && p.algo != "ocdd" {
        eprintln!("ocdd: --top-k requires --algo ocdd");
        return ExitCode::FAILURE;
    }
    if p.epsilon.is_some() && p.algo != "approx" {
        eprintln!("ocdd: --epsilon requires --algo approx");
        return ExitCode::FAILURE;
    }
    if p.algo == "approx" {
        // The range checks also refuse NaN, which compares false.
        let epsilon = p.epsilon.unwrap_or(DEFAULT_EPSILON);
        if !(0.0..=1.0).contains(&epsilon) {
            eprintln!("ocdd: --epsilon must be in [0, 1], got {epsilon}");
            return ExitCode::FAILURE;
        }
        if let Some(c) = p.confidence.filter(|&c| !(c > 0.0 && c < 1.0)) {
            eprintln!("ocdd: --confidence must be in (0, 1), got {c}");
            return ExitCode::FAILURE;
        }
    }
    if p.algo != "ocdd"
        && p.algo != "approx"
        && (p.resume.is_some() || p.out.is_some() || p.json || p.config.checkpoint.is_some())
    {
        eprintln!(
            "ocdd: --resume/--out/--json/--checkpoint-dir require --algo ocdd or --algo approx"
        );
        return ExitCode::FAILURE;
    }
    if p.algo != "approx"
        && (p.sample.is_some()
            || p.confidence.is_some()
            || p.seed.is_some()
            || p.stratify.is_some())
    {
        eprintln!("ocdd: --sample/--confidence/--seed/--stratify require --algo approx");
        return ExitCode::FAILURE;
    }
    let rel = match read_csv_path(&p.path, &p.csv) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ocdd: cannot read {}: {e}", p.path);
            return ExitCode::FAILURE;
        }
    };
    if !p.json {
        println!("{}", render_summary(&rel));
        if p.show_table {
            println!("{}", render_table(&rel, 10));
        }
    }

    match p.algo.as_str() {
        "ocdd" => {
            if let Some(spec) = &p.resume {
                if p.top_k.is_some() {
                    eprintln!("ocdd: --resume cannot be combined with --top-k");
                    return ExitCode::FAILURE;
                }
                let snap = match load_snapshot(spec) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("ocdd: cannot resume: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                return match discover_resume(&rel, &p.config, &snap) {
                    Ok(result) => emit_result(&rel, &result, &p),
                    Err(e) => {
                        eprintln!("ocdd: cannot resume: {e}");
                        ExitCode::FAILURE
                    }
                };
            }
            if let Some(k) = p.top_k {
                let guided = discover_top_k(&rel, k, &p.config).expect("k within range");
                let projected = rel.project(&guided.selected).expect("valid projection");
                if !p.json {
                    println!("(profiling the {k} most diverse columns)");
                }
                return emit_result(&projected, &guided.result, &p);
            }
            let result = discover(&rel, &p.config);
            return emit_result(&rel, &result, &p);
        }
        "order" => {
            let res = order_discover(
                &rel,
                &OrderConfig {
                    time_budget: p.config.time_budget,
                    ..OrderConfig::default()
                },
            );
            for od in &res.ods {
                println!("od          {}", od.display(&rel));
            }
            println!(
                "-- {} checks, {:?}, {}",
                res.checks,
                res.elapsed,
                if res.complete { "complete" } else { "PARTIAL" }
            );
        }
        "fastod" => {
            let res = fastod(
                &rel,
                &FastodConfig {
                    time_budget: p.config.time_budget,
                    ..FastodConfig::default()
                },
            );
            for fd in &res.fds {
                println!("fd          {fd}");
            }
            for ocd in &res.ocds {
                println!("ocd         {ocd}");
            }
            println!(
                "-- {} canonical deps, {} checks, {:?}, {}",
                res.od_count(),
                res.checks,
                res.elapsed,
                if res.complete { "complete" } else { "PARTIAL" }
            );
        }
        "tane" => {
            let res = tane(
                &rel,
                &TaneConfig {
                    time_budget: p.config.time_budget,
                    ..TaneConfig::default()
                },
            );
            for fd in &res.fds {
                println!("fd          {fd}");
            }
            println!("-- {} minimal FDs, {:?}", res.fds.len(), res.elapsed);
        }
        "bidi" => {
            let res = discover_bidirectional(&rel, &p.config);
            for class in &res.equivalence_classes {
                let marks: Vec<String> = class.iter().map(|m| m.to_string()).collect();
                println!("equivalent  {}", marks.join(" <-> "));
            }
            for ocd in &res.ocds {
                println!("ocd         {ocd}");
            }
            for od in &res.ods {
                println!("od          {od}");
            }
            println!("-- {} checks, {}", res.checks, res.termination);
        }
        "approx" => {
            let mut cfg = ApproxConfig {
                base: p.config.clone(),
                sample_rows: p.sample,
                epsilon: p.epsilon.unwrap_or(DEFAULT_EPSILON),
                ..ApproxConfig::default()
            };
            if let Some(c) = p.confidence {
                cfg.confidence = c;
            }
            if let Some(s) = p.seed {
                cfg.seed = s;
            }
            if let Some(name) = &p.stratify {
                match rel.column_id(name) {
                    Ok(col) => cfg.strategy = SampleStrategy::Stratified(col),
                    Err(e) => {
                        eprintln!("ocdd: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let res = if let Some(spec) = &p.resume {
                let snap = match load_snapshot(spec) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("ocdd: cannot resume: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match discover_approximate_resume(&rel, &cfg, &snap) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("ocdd: cannot resume: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                discover_approximate_with(&rel, &cfg)
            };
            return emit_approx_result(&rel, &res, &p);
        }
        other => {
            eprintln!("ocdd: unknown algorithm {other:?}");
            return usage();
        }
    }
    ExitCode::SUCCESS
}

fn cmd_dump_dot(args: &[String]) -> ExitCode {
    let mut spec: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut csv = CsvOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--csv" => match iter.next() {
                Some(v) => csv_path = Some(v.clone()),
                None => return usage(),
            },
            "--no-header" => csv.has_header = false,
            "--sep" => match iter.next().and_then(|v| v.chars().next()) {
                Some(c) => csv.separator = c,
                None => return usage(),
            },
            other if spec.is_none() && !other.starts_with('-') => spec = Some(other.to_owned()),
            _ => return usage(),
        }
    }
    let Some(spec) = spec else {
        return usage();
    };
    let snap = match load_snapshot(&spec) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ocdd: cannot read dump: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rel = match csv_path {
        Some(path) => match read_csv_path(&path, &csv) {
            Ok(rel) => {
                // Refuse to label the lattice with columns from a different
                // table than the one the dump was taken from.
                let have = manifest_hash(&rel);
                if have != snap.manifest {
                    eprintln!(
                        "ocdd: {path} does not match the dump (manifest {have:016x}, dump has {:016x})",
                        snap.manifest
                    );
                    return ExitCode::FAILURE;
                }
                Some(rel)
            }
            Err(e) => {
                eprintln!("ocdd: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    print!("{}", snapshot_to_dot(&snap, rel.as_ref()));
    ExitCode::SUCCESS
}

fn cmd_dataset(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        return usage();
    };
    let Some(ds) = Dataset::by_name(name) else {
        eprintln!("ocdd: unknown dataset {name:?} (try `ocdd list`)");
        return ExitCode::FAILURE;
    };
    let mut rows = None;
    let mut iter = args[1..].iter();
    while let Some(arg) = iter.next() {
        if arg == "--rows" {
            rows = iter.next().and_then(|v| v.parse().ok());
        }
    }
    let scale = rows.map_or(RowScale::Default, RowScale::Rows);
    print!("{}", write_csv(&ds.generate(scale)));
    ExitCode::SUCCESS
}

fn cmd_simplify(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut keys: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--order-by" => {
                keys = match iter.next() {
                    Some(v) => v.split(',').map(|s| s.trim().to_owned()).collect(),
                    None => return usage(),
                };
            }
            other if !other.starts_with('-') => path = Some(other.to_owned()),
            _ => return usage(),
        }
    }
    let (Some(path), false) = (path, keys.is_empty()) else {
        return usage();
    };
    let rel = match read_csv_path(&path, &CsvOptions::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ocdd: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ids: Vec<usize> = match keys
        .iter()
        .map(|k| rel.column_id(k))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(ids) => ids,
        Err(e) => {
            eprintln!("ocdd: {e}");
            return ExitCode::FAILURE;
        }
    };
    let simplified = simplify_with_data(&rel, &ids);
    println!("original:   ORDER BY {}", keys.join(", "));
    println!("simplified: {}", simplified.display(&rel));
    for (col, reason) in &simplified.dropped {
        println!("  dropped {}: {reason:?}", rel.meta(*col).name);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Downstream pipes (e.g. `ocdd dataset … | head`) may close stdout
    // early; treat the resulting write failure as a clean exit rather than
    // a panic by taking the default SIGPIPE disposition on Unix.
    #[cfg(unix)]
    unsafe {
        // SAFETY: resetting a signal disposition before any I/O happens.
        libc_sigpipe_default();
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("profile") => cmd_profile(&args[1..]),
        Some("dump-dot") => cmd_dump_dot(&args[1..]),
        Some("dataset") => cmd_dataset(&args[1..]),
        Some("simplify") => cmd_simplify(&args[1..]),
        Some("list") => {
            for ds in Dataset::all() {
                println!(
                    "{:<12} {:>9} rows × {:>3} cols{}",
                    ds.name(),
                    ds.default_rows(),
                    ds.default_columns(),
                    if ds.exceeds_time_limit() {
                        "  (exceeds time limits)"
                    } else {
                        ""
                    }
                );
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
