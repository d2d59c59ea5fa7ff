//! CLI regenerating every table and figure of the paper.
//!
//! ```text
//! experiments <id|all> [--scale F] [--full] [--budget SECS] [--threads a,b,c]
//!             [--reps N] [--samples N] [--seed N] [--out DIR]
//!
//! ids: table6 fig2 fig3 fig4 fig5 fig6 fig7 yesno numbers
//! ```
//!
//! Reports print as markdown and are written as TSV under `--out`
//! (default `results/`).

use ocdd_bench::experiments::{
    run_ablation, run_fig2, run_fig3, run_fig4, run_fig5, run_fig6, run_fig7, run_numbers,
    run_table6, run_yesno, ExpOptions,
};
use ocdd_bench::Report;
use std::path::PathBuf;
use std::time::Duration;

const IDS: &[&str] = &[
    "table6", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "yesno", "numbers", "ablation",
];

fn usage() -> ! {
    eprintln!(
        "usage: experiments <{}|all> [--scale F] [--full] [--budget SECS] \
         [--threads a,b,c] [--reps N] [--samples N] [--seed N] [--out DIR]",
        IDS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut ids: Vec<String> = Vec::new();
    let mut opts = ExpOptions::default();
    let mut out_dir = PathBuf::from("results");

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let mut take = |name: &str| -> String {
            iter.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--scale" => opts.scale = take("--scale").parse().unwrap_or_else(|_| usage()),
            "--full" => opts.full = true,
            "--budget" => {
                let secs: f64 = take("--budget").parse().unwrap_or_else(|_| usage());
                opts.budget = Duration::try_from_secs_f64(secs).unwrap_or_else(|_| usage());
            }
            "--threads" => {
                opts.threads = take("--threads")
                    .split(',')
                    .map(|t| t.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--reps" => opts.reps = take("--reps").parse().unwrap_or_else(|_| usage()),
            "--samples" => opts.samples = take("--samples").parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = take("--seed").parse().unwrap_or_else(|_| usage()),
            "--out" => out_dir = PathBuf::from(take("--out")),
            "all" => ids.extend(IDS.iter().map(|s| s.to_string())),
            id if IDS.contains(&id) => ids.push(id.to_owned()),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if ids.is_empty() {
        usage();
    }
    ids.dedup();

    for id in &ids {
        eprintln!(
            "[experiments] running {id} (scale={}, budget={:?})",
            opts.scale, opts.budget
        );
        let report: Report = match id.as_str() {
            "table6" => run_table6(&opts),
            "fig2" => run_fig2(&opts),
            "fig3" => run_fig3(&opts),
            "fig4" => run_fig4(&opts),
            "fig5" => run_fig5(&opts),
            "fig6" => run_fig6(&opts),
            "fig7" => run_fig7(&opts),
            "yesno" => run_yesno(&opts),
            "numbers" => run_numbers(&opts),
            "ablation" => run_ablation(&opts),
            _ => unreachable!("validated above"),
        };
        println!("{}", report.to_markdown());
        match report.write_tsv(&out_dir, id) {
            Ok(path) => eprintln!("[experiments] wrote {}", path.display()),
            Err(e) => eprintln!("[experiments] failed to write TSV: {e}"),
        }
    }
}
