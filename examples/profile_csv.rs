//! Profile an arbitrary CSV file for order dependencies.
//!
//! ```text
//! cargo run --example profile_csv -- <file.csv> [--threads N] [--lex]
//!     [--top-k K] [--budget SECS] [--no-header] [--sep C]
//! ```
//!
//! * `--threads N` — run the work-stealing scheduler on N workers.
//! * `--lex` — treat every column as a string (FASTOD's typing, §5.2.2).
//! * `--top-k K` — only profile the K most diverse columns (§5.4).
//! * `--budget SECS` — per-run wall-clock budget (partial results after).
//!
//! Without a file argument the example profiles a bundled demo CSV so it
//! stays runnable out of the box.

use ocddiscover::core::entropy::{discover_top_k, rank_columns};
use ocddiscover::relation::TypingMode;
use ocddiscover::{read_csv_str, CsvOptions, DiscoveryConfig, Relation};
use std::time::Duration;

const DEMO: &str = "\
employee,grade,salary,bonus,office
alice,1,1000,100,berlin
bob,1,1000,100,berlin
carol,2,1500,150,berlin
dave,2,1500,150,paris
erin,3,2500,250,paris
frank,4,4000,400,paris
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut config = DiscoveryConfig::default();
    let mut csv_opts = CsvOptions::default();
    let mut top_k: Option<usize> = None;

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threads" => {
                let n: usize = iter.next().expect("--threads N").parse().expect("number");
                config = DiscoveryConfig {
                    mode: ocddiscover::ParallelMode::WorkStealing(n),
                    ..config
                };
            }
            "--lex" => csv_opts.typing = TypingMode::ForceLexicographic,
            "--top-k" => top_k = Some(iter.next().expect("--top-k K").parse().expect("number")),
            "--budget" => {
                let secs: f64 = iter.next().expect("--budget SECS").parse().expect("number");
                config.time_budget = Some(Duration::from_secs_f64(secs));
            }
            "--no-header" => csv_opts.has_header = false,
            "--sep" => {
                csv_opts.separator = iter
                    .next()
                    .expect("--sep C")
                    .chars()
                    .next()
                    .expect("one char");
            }
            other => path = Some(other.to_owned()),
        }
    }

    let rel: Relation = match &path {
        Some(p) => {
            let text = std::fs::read_to_string(p).expect("readable CSV file");
            read_csv_str(&text, &csv_opts).expect("well-formed CSV")
        }
        None => {
            println!("(no file given — profiling the bundled demo table)\n");
            read_csv_str(DEMO, &csv_opts).expect("demo CSV parses")
        }
    };

    println!(
        "Loaded {} rows × {} columns",
        rel.num_rows(),
        rel.num_columns()
    );
    println!("\nColumns by decreasing entropy (interestingness, §5.4):");
    for r in rank_columns(&rel) {
        println!(
            "  {:<12} H = {:.3} nats, {} distinct",
            r.name, r.entropy, r.distinct
        );
    }

    let (selected, result) = match top_k {
        Some(k) => {
            let guided = discover_top_k(&rel, k, &config).expect("projection in range");
            (Some(guided.selected), guided.result)
        }
        None => (None, ocddiscover::discover(&rel, &config)),
    };

    // Column ids in the result refer to the projected relation when --top-k
    // is active.
    let display_rel = match &selected {
        Some(cols) => rel.project(cols).expect("projection in range"),
        None => rel.clone(),
    };

    println!("\n== Results ==");
    for &c in &result.constants {
        println!("constant: {}", display_rel.meta(c).name);
    }
    for class in &result.equivalence_classes {
        let names: Vec<&str> = class
            .iter()
            .map(|&c| display_rel.meta(c).name.as_str())
            .collect();
        println!("equivalent: {}", names.join(" <-> "));
    }
    for ocd in &result.ocds {
        println!("ocd: {}", ocd.display(&display_rel));
    }
    for od in &result.ods {
        println!("od:  {}", od.display(&display_rel));
    }
    println!(
        "\n{} checks in {:?} ({}complete)",
        result.checks,
        result.elapsed,
        if result.complete() { "" } else { "in" }
    );
}
