//! Binary entry point: `cargo run -p ocdd-lint -- [root] [flags]`.
//!
//! Modes:
//!
//! * default — scan the workspace, print human-readable findings (with
//!   call-chain witnesses for the semantic rules), exit 1 on any finding.
//!   ci.sh runs this as a hard gate before clippy.
//! * `--emit json` — print the stable `ocdd-lint/3` JSON document instead
//!   (schema, count, per-rule counts, findings with rule, file, line,
//!   message, chain); same exit-code contract. ci.sh uploads this to
//!   `results/lint_findings.json` and gates the per-rule counts against
//!   `results/lint_baseline.txt`.
//! * `--emit sarif` — print a SARIF 2.1.0 document instead, for code
//!   scanning UIs. ci.sh uploads this to `results/lint_findings.sarif`.
//! * `--out FILE` — with `--emit`, write the document to FILE via an
//!   atomic tmp+fsync+rename instead of stdout, so a killed CI run never
//!   leaves a truncated findings file.
//! * `--explain <rule>` — print what a rule enforces and why, then exit 0.
//! * `--fix-allows` — list stale `lint: allow` annotations (dry run);
//!   add `--apply` to delete them in place.
//!
//! Every scan is one `ocdd_lint::analyze` pass over the whole workspace.

use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: ocdd-lint [root] [--emit json|sarif] [--out FILE] [--explain <rule>] \
                     [--fix-allows [--apply]]";

/// Write `text` to standard output. A reader that closed the pipe early
/// (`ocdd-lint | head`) ends the output quietly, where `print!` would
/// panic on the `EPIPE`: the crate forbids `unsafe`, so it cannot restore
/// SIGPIPE's default action. The run keeps the exit status it would have
/// had.
fn print_out(text: &str) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("ocdd-lint: cannot write to stdout: {e}");
        }
    }
}

/// Machine-readable output format selected by `--emit`.
#[derive(Clone, Copy, PartialEq)]
enum Emit {
    Human,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut emit = Emit::Human;
    let mut out_file: Option<PathBuf> = None;
    let mut explain_rule: Option<String> = None;
    let mut fix_allows = false;
    let mut apply = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--emit" => match args.next().as_deref() {
                Some("json") => emit = Emit::Json,
                Some("sarif") => emit = Emit::Sarif,
                other => {
                    eprintln!(
                        "ocdd-lint: --emit supports `json` or `sarif` (got {:?})\n{USAGE}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--explain" => match args.next() {
                Some(rule) => explain_rule = Some(rule),
                None => {
                    eprintln!("ocdd-lint: --explain needs a rule name\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(path) => out_file = Some(PathBuf::from(path)),
                None => {
                    eprintln!("ocdd-lint: --out needs a file path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--fix-allows" => fix_allows = true,
            "--apply" => apply = true,
            "--help" | "-h" => {
                print_out(&format!("{USAGE}\n"));
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("ocdd-lint: unknown flag `{flag}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
            path if root.is_none() => root = Some(PathBuf::from(path)),
            extra => {
                eprintln!("ocdd-lint: unexpected argument `{extra}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(rule) = explain_rule {
        return match ocdd_lint::explain(&rule) {
            Some(text) => {
                print_out(&format!("{text}\n"));
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "ocdd-lint: no rule named `{rule}` — known rules: {}",
                    ocdd_lint::ALL_RULES.join(", ")
                );
                ExitCode::FAILURE
            }
        };
    }
    if apply && !fix_allows {
        eprintln!("ocdd-lint: --apply only makes sense with --fix-allows\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if out_file.is_some() && emit == Emit::Human {
        eprintln!("ocdd-lint: --out only makes sense with --emit json|sarif\n{USAGE}");
        return ExitCode::FAILURE;
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match ocdd_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("ocdd-lint: no workspace root found above {}", cwd.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    if fix_allows {
        return match ocdd_lint::fix_allows(&root, apply) {
            Ok(stale) => {
                let verdict = if apply { "removed" } else { "would be removed" };
                let mut text: String = stale
                    .iter()
                    .map(|sa| {
                        format!(
                            "{}:{}: stale allow({}) {verdict}\n",
                            sa.path, sa.line, sa.rule
                        )
                    })
                    .collect();
                text.push_str(&if apply {
                    format!("ocdd-lint: {} stale allow(s) removed\n", stale.len())
                } else {
                    format!(
                        "ocdd-lint: {} stale allow(s) found (dry run — pass --apply to remove)\n",
                        stale.len()
                    )
                });
                print_out(&text);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ocdd-lint: fix-allows failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    match ocdd_lint::scan_workspace(&root) {
        Ok(analysis) => {
            let doc = match emit {
                Emit::Json => ocdd_lint::to_json(&analysis.diagnostics),
                Emit::Sarif => ocdd_lint::to_sarif(&analysis.diagnostics),
                Emit::Human => {
                    let mut text: String = analysis
                        .diagnostics
                        .iter()
                        .map(|d| format!("{d}\n"))
                        .collect();
                    text.push_str(&format!(
                        "ocdd-lint: {} file(s) scanned, {} violation(s)\n",
                        analysis.files_scanned,
                        analysis.diagnostics.len()
                    ));
                    text
                }
            };
            match &out_file {
                Some(path) => {
                    if let Err(e) = ocdd_iosafe::atomic_write_str(path, &doc) {
                        eprintln!("ocdd-lint: cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
                None => print_out(&doc),
            }
            if analysis.diagnostics.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("ocdd-lint: scan failed: {e}");
            ExitCode::FAILURE
        }
    }
}
