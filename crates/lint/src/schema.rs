//! The `schema-parity` pass (ISSUE 9): cross-check the hand-rolled JSON
//! writers and parsers against each other and against the documented
//! schema tables kept here.
//!
//! The workspace persists two hand-rolled formats: the versioned search
//! dump (`ocdd-snapshot/1`, `snapshot.rs` — writer *and* parser, since
//! resume trusts it) and the result report (`json.rs` — writer only).
//! Masking preserves byte positions, so a `Str` token's span slices the
//! *raw* source to the literal exactly as written; writer keys are the
//! `\"key\":` emissions inside those literals, reader keys are the
//! string argument of bare `req(obj, "key")` / `get(obj, "key")` lookups.
//! Key sets are compared flat per file — the formats never reuse a key
//! name with two meanings, and a flat diff keeps the pass robust to how
//! the emitters nest `format!` calls.
//!
//! Three drift directions, three finding shapes:
//! * **written but never parsed** — the PR 8 `"approx"` class: resume
//!   silently drops state. Per-key diagnostic at the write site.
//! * **parsed but never written** — resume rejects every fresh dump.
//!   Per-key diagnostic at the read site.
//! * **documented table drift** — an undocumented written key gets a
//!   per-key diagnostic; documented-but-absent keys aggregate into one
//!   diagnostic (anchored at the first write site) so a stale table
//!   reads as one finding, not dozens.

use crate::callgraph::{allowed_at, AllowUses, FileModel, Workspace};
use crate::rules::{Diagnostic, SCHEMA_PARITY};
use crate::tokens::TokenKind;
use std::collections::BTreeMap;

/// Documented key set of the `ocdd-snapshot/1` dump format (DESIGN.md
/// §13), flattened over every object scope: top level, `config`,
/// `branches[]`/`failures[]`/pair objects, `levels[]`, `kernels`,
/// `cache`, `approx`, and `termination`.
pub const SNAPSHOT_SCHEMA_V1: &[&str] = &[
    "accepted_by_sample",
    "allowance",
    "approx",
    "branches",
    "budget_bytes",
    "cache",
    "candidates",
    "chained_refine",
    "check_budget_hit",
    "checks",
    "column_reduction",
    "comparator",
    "confidence_micros",
    "config",
    "counting",
    "dedup_candidates",
    "elapsed_ms",
    "entries",
    "epsilon_micros",
    "escalated",
    "estimated",
    "evictions",
    "failed",
    "failures",
    "format",
    "frontier",
    "full_row_scans",
    "generated",
    "hits",
    "kernels",
    "kind",
    "level",
    "level_capped",
    "levels",
    "manifest",
    "max_checks",
    "max_level",
    "message",
    "misses",
    "ocd_errors",
    "ocds",
    "ods",
    "packed_radix",
    "pruned",
    "rejected_by_sample",
    "resident_bytes",
    "sample_manifest",
    "sample_row_scans",
    "sample_rows",
    "scan_block",
    "scan_scalar",
    "scan_simd",
    "seed",
    "shared",
    "spent",
    "stopped",
    "strategy",
    "strategy_column",
    "termination",
    "total_rows",
    "valid_ocds",
    "valid_ods",
    "version",
    "x",
    "y",
];

/// Documented key set of the result report emitted by `json.rs`
/// (DESIGN.md §9), flattened: top level, `kernels.sorts`/`kernels.scans`,
/// `scheduler` and its per-worker objects, `checkpoint`, `approx`, and
/// the OCD/OD entries.
pub const REPORT_SCHEMA_V1: &[&str] = &[
    "accepted_by_sample",
    "approx",
    "batches",
    "block",
    "chained_refine",
    "checkpoint",
    "checks",
    "columns",
    "comparator",
    "complete",
    "constants",
    "counting",
    "elapsed_ms",
    "equivalence_classes",
    "error",
    "escalated",
    "estimated",
    "exhaustive",
    "failed_branches",
    "failure_message",
    "files_deleted",
    "full_checks_saved",
    "full_row_scans",
    "kernels",
    "last_level",
    "levels",
    "lhs",
    "ocds",
    "ods",
    "packed_radix",
    "rejected_by_sample",
    "removals",
    "rhs",
    "rows",
    "sample_manifest",
    "sample_row_scans",
    "sample_rows",
    "scalar",
    "scans",
    "scheduler",
    "seed",
    "simd",
    "snapshots_written",
    "sorts",
    "steals",
    "total_rows",
    "termination",
    "workers",
    "write_errors",
];

/// One file-scope of the parity check.
struct Scope {
    /// Workspace-relative file the scope audits.
    file: &'static str,
    /// Display name of the documented schema.
    schema_name: &'static str,
    /// Flattened documented key set.
    documented: &'static [&'static str],
    /// Whether the file also hand-rolls a parser (`req`/`get` lookups).
    has_reader: bool,
}

const SCOPES: &[Scope] = &[
    Scope {
        file: "crates/core/src/snapshot.rs",
        schema_name: "ocdd-snapshot/1",
        documented: SNAPSHOT_SCHEMA_V1,
        has_reader: true,
    },
    Scope {
        file: "crates/core/src/json.rs",
        schema_name: "result report (json.rs)",
        documented: REPORT_SCHEMA_V1,
        has_reader: false,
    },
];

/// First occurrence of a key: 0-based line and token index (for
/// enclosing-fn lookup).
#[derive(Debug, Clone, Copy)]
struct KeySite {
    line: usize,
    tok: usize,
}

/// Whether `b` is an identifier byte.
fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Extract writer keys: every `\"key\":` occurrence inside the raw text
/// of a non-test string literal. The escaped-quote form is how both
/// emitters spell object keys inside `format!`/`push_str` literals.
fn writer_keys(model: &FileModel, raw: &str) -> BTreeMap<String, KeySite> {
    let mut out: BTreeMap<String, KeySite> = BTreeMap::new();
    for (ti, t) in model.tokens.iter().enumerate() {
        if t.kind != TokenKind::Str || model.is_test_line(t.line) {
            continue;
        }
        let Some(lit) = raw.get(t.start..t.end) else {
            continue;
        };
        let bytes = lit.as_bytes();
        let mut i = 0;
        while i + 3 < bytes.len() {
            if bytes[i] != b'\\' || bytes[i + 1] != b'"' {
                i += 1;
                continue;
            }
            let start = i + 2;
            let mut j = start;
            while j < bytes.len() && is_ident_byte(bytes[j]) {
                j += 1;
            }
            let closes = j > start
                && bytes.get(j) == Some(&b'\\')
                && bytes.get(j + 1) == Some(&b'"')
                && bytes.get(j + 2) == Some(&b':');
            if closes {
                let key = &lit[start..j];
                let line = t.line + lit[..i].bytes().filter(|&b| b == b'\n').count();
                out.entry(key.to_owned())
                    .or_insert(KeySite { line, tok: ti });
                i = j + 3;
            } else {
                i += 2;
            }
        }
    }
    out
}

/// Extract reader keys: the string argument of bare `req(…, "key")` /
/// `get(…, "key")` calls (method calls `.get(` are someone else's `get`).
fn reader_keys(model: &FileModel, raw: &str) -> BTreeMap<String, KeySite> {
    let mut out: BTreeMap<String, KeySite> = BTreeMap::new();
    let toks = &model.tokens;
    for (ti, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident
            || (t.text != "req" && t.text != "get")
            || model.is_test_line(t.line)
        {
            continue;
        }
        let bare = ti
            .checked_sub(1)
            .map(|p| !toks[p].is_punct(".") && !toks[p].is_punct("::"))
            .unwrap_or(true);
        if !bare || !toks.get(ti + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        let close = crate::tokens::matching_close(toks, ti + 1);
        let Some(arg) = (ti + 2..close).find_map(|j| {
            let a = &toks[j];
            (a.kind == TokenKind::Str).then_some(a)
        }) else {
            continue;
        };
        let Some(lit) = raw.get(arg.start..arg.end) else {
            continue;
        };
        let key = lit.trim_matches('"');
        if !key.is_empty() && key.bytes().all(is_ident_byte) {
            out.entry(key.to_owned()).or_insert(KeySite {
                line: arg.line,
                tok: ti,
            });
        }
    }
    out
}

/// The schema-parity pass over every scope whose file is present in the
/// workspace.
pub fn schema_parity(ws: &Workspace, uses: &mut AllowUses) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for scope in SCOPES {
        let Some(fi) = ws.files.iter().position(|m| m.src.path == scope.file) else {
            continue;
        };
        let model = &ws.files[fi];
        let raw = model.src.raw_lines.join("\n");
        let written = writer_keys(model, &raw);
        let read = reader_keys(model, &raw);
        if written.is_empty() {
            continue;
        }

        let mut push = |site: KeySite, message: String, chain: Vec<String>| {
            let fn_id = ws.enclosing_fn(fi, site.tok);
            if !allowed_at(ws, fi, site.line, fn_id, SCHEMA_PARITY, uses) {
                out.push(Diagnostic {
                    path: scope.file.to_owned(),
                    line: site.line + 1,
                    rule: SCHEMA_PARITY,
                    message,
                    chain,
                });
            }
        };

        for (key, &site) in &written {
            if scope.has_reader && !read.contains_key(key) {
                push(
                    site,
                    format!(
                        "key `\"{key}\"` is written by the serializer but never \
                         parsed — a resumed run silently drops it; add the \
                         `req`/`get` lookup (and keep the {} table in sync)",
                        scope.schema_name
                    ),
                    vec![
                        format!("written at {}:{}", scope.file, site.line + 1),
                        "no matching `req`/`get` lookup in the parser".to_owned(),
                    ],
                );
            }
            if !scope.documented.contains(&key.as_str()) {
                push(
                    site,
                    format!(
                        "key `\"{key}\"` is written but not documented in the \
                         {} schema table (crates/lint/src/schema.rs) — document \
                         the new field or remove the emission",
                        scope.schema_name
                    ),
                    vec![format!("written at {}:{}", scope.file, site.line + 1)],
                );
            }
        }
        if scope.has_reader {
            for (key, &site) in &read {
                if !written.contains_key(key) {
                    push(
                        site,
                        format!(
                            "key `\"{key}\"` is required by the parser but never \
                             written — every fresh dump would be rejected on \
                             resume; emit the field or drop the lookup"
                        ),
                        vec![
                            format!("parsed at {}:{}", scope.file, site.line + 1),
                            "no matching `\\\"key\\\":` emission in the serializer".to_owned(),
                        ],
                    );
                }
            }
        }
        let missing: Vec<&str> = scope
            .documented
            .iter()
            .filter(|k| !written.contains_key(**k))
            .copied()
            .collect();
        if !missing.is_empty() {
            let anchor = written
                .values()
                .min_by_key(|s| (s.line, s.tok))
                .copied()
                .expect("written is non-empty");
            push(
                anchor,
                format!(
                    "documented {} key{} {} never written — the schema table in \
                     crates/lint/src/schema.rs is ahead of the serializer; \
                     emit the field{} or prune the table",
                    scope.schema_name,
                    if missing.len() == 1 { "" } else { "s" },
                    missing
                        .iter()
                        .map(|k| format!("`\"{k}\"`"))
                        .collect::<Vec<_>>()
                        .join(", "),
                    if missing.len() == 1 { "" } else { "s" },
                ),
                vec![format!(
                    "first write site at {}:{}",
                    scope.file,
                    anchor.line + 1
                )],
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(path: &str, content: &str) -> Vec<Diagnostic> {
        let ws = Workspace::build(vec![(path.to_owned(), content.to_owned())]);
        let mut uses = AllowUses::default();
        schema_parity(&ws, &mut uses)
    }

    #[test]
    fn matched_writer_and_reader_pairs_are_clean_modulo_doc_table() {
        // `seed` and `level` are documented snapshot keys; writing and
        // reading exactly those yields only the aggregated
        // documented-but-absent finding for the rest of the table.
        let d = diags(
            "crates/core/src/snapshot.rs",
            "pub fn write(s: &S) -> String { format!(\"{{\\\"seed\\\":{},\\\"level\\\":{}}}\", s.seed, s.level) }\n\
             pub fn parse(obj: &Obj) { req(obj, \"seed\"); get(obj, \"level\"); }\n",
        );
        assert_eq!(d.len(), 1, "{d:#?}");
        assert!(d[0].message.contains("never written"));
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn written_but_unparsed_key_is_flagged_at_the_write_site() {
        let d = diags(
            "crates/core/src/snapshot.rs",
            "pub fn write(s: &S) -> String {\n\
                 format!(\"{{\\\"seed\\\":{}}}\", s.seed)\n\
             }\n\
             pub fn parse(_obj: &Obj) {}\n",
        );
        assert!(
            d.iter()
                .any(|x| x.line == 2 && x.message.contains("never parsed")),
            "{d:#?}"
        );
    }

    #[test]
    fn parsed_but_unwritten_key_is_flagged_at_the_read_site() {
        let d = diags(
            "crates/core/src/snapshot.rs",
            "pub fn write(s: &S) -> String { format!(\"{{\\\"seed\\\":{}}}\", s.seed) }\n\
             pub fn parse(obj: &Obj) {\n\
                 req(obj, \"seed\");\n\
                 req(obj, \"checksum\");\n\
             }\n",
        );
        assert!(
            d.iter()
                .any(|x| x.line == 4 && x.message.contains("never written")),
            "{d:#?}"
        );
    }

    #[test]
    fn undocumented_written_key_is_flagged() {
        let d = diags(
            "crates/core/src/snapshot.rs",
            "pub fn write(s: &S) -> String { format!(\"{{\\\"wormhole\\\":{}}}\", s.x) }\n\
             pub fn parse(obj: &Obj) { req(obj, \"wormhole\"); }\n",
        );
        assert!(
            d.iter()
                .any(|x| x.line == 1 && x.message.contains("not documented")),
            "{d:#?}"
        );
    }

    #[test]
    fn method_get_calls_are_not_reader_lookups() {
        let ws = Workspace::build(vec![(
            "crates/core/src/snapshot.rs".to_owned(),
            "pub fn parse(m: &Map) { m.get(\"not_a_schema_key\"); }\n".to_owned(),
        )]);
        let model = &ws.files[0];
        let raw = model.src.raw_lines.join("\n");
        assert!(reader_keys(model, &raw).is_empty());
    }

    #[test]
    fn test_code_literals_are_ignored() {
        let d = diags(
            "crates/core/src/json.rs",
            "pub fn emit() -> String { String::new() }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { assert!(emit().contains(\"\\\"bogus\\\":1\")); }\n\
             }\n",
        );
        // No non-test writer keys at all: the scope is skipped entirely.
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let d = diags(
            "crates/core/src/visualize.rs",
            "pub fn emit(s: &S) -> String { format!(\"{{\\\"mystery\\\":{}}}\", s.x) }\n",
        );
        assert!(d.is_empty(), "{d:#?}");
    }
}
