//! The `schema-parity` pass (ISSUE 9): cross-check each JSON format's
//! writer and parser against each other and against the documented
//! schema tables kept here.
//!
//! The workspace persists two formats through the one JSON codec
//! (`ocdd_iosafe::json`): the versioned search dump (`ocdd-snapshot/1`,
//! `snapshot.rs` — writer *and* parser, since resume trusts it) and the
//! result report (`json.rs` — writer only). The codec gives every member
//! one call form on each side, and the pass reads the keys off those
//! calls: writer keys are the string-literal argument of `.key("k")`,
//! reader keys the first string-literal argument of `.field("k", …)` and
//! `.get("k")`. Masking preserves byte positions, so a `Str` token's span
//! slices the raw literal exactly as written. Key sets are compared flat
//! per file — the formats never reuse a key name with two meanings, and
//! a flat diff keeps the pass robust to how the writers nest.
//!
//! Three drift directions, three finding shapes:
//! * **written but never parsed** — the PR 8 `"approx"` class: resume
//!   silently drops state. Per-key diagnostic at the write site.
//! * **parsed but never written** — resume rejects every fresh dump.
//!   Per-key diagnostic at the read site.
//! * **documented table drift** — an undocumented written key gets a
//!   per-key diagnostic; documented-but-absent keys aggregate into one
//!   diagnostic (anchored at the first write site, or the file's first
//!   line when it writes no key at all) so a stale table — or a writer
//!   that stopped using the codec's call form — reads as one finding, not
//!   dozens and not silence.

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
    /// Whether the file also reads the format back (`.field`/`.get`
    /// lookups).
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

/// Keys of the method calls `.name("key"…)` for each `name` in `names`
/// on non-test lines: the string literal that opens the argument list.
fn call_keys(model: &FileModel, raw: &str, names: &[&str]) -> BTreeMap<String, KeySite> {
    let mut out: BTreeMap<String, KeySite> = BTreeMap::new();
    let toks = &model.tokens;
    for (ti, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident
            || !names.contains(&t.text.as_str())
            || model.is_test_line(t.line)
        {
            continue;
        }
        let method = ti.checked_sub(1).is_some_and(|p| toks[p].is_punct("."));
        let Some([open, arg]) = toks.get(ti + 1..ti + 3) else {
            continue;
        };
        if !method || !open.is_punct("(") || arg.kind != TokenKind::Str {
            continue;
        }
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

/// Writer keys: the codec's `.key("k")` calls.
fn writer_keys(model: &FileModel, raw: &str) -> BTreeMap<String, KeySite> {
    call_keys(model, raw, &["key"])
}

/// Reader keys: the codec's `.field("k", …)` and `.get("k")` calls.
fn reader_keys(model: &FileModel, raw: &str) -> BTreeMap<String, KeySite> {
    call_keys(model, raw, &["field", "get"])
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
                         `.field`/`.get` lookup (and keep the {} table in sync)",
                        scope.schema_name
                    ),
                    vec![
                        format!("written at {}:{}", scope.file, site.line + 1),
                        "no matching `.field`/`.get` lookup in the parser".to_owned(),
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
                            "no matching `.key(..)` call in the serializer".to_owned(),
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
                .unwrap_or(KeySite { line: 0, tok: 0 });
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
            "pub fn write(w: &mut Writer, s: &S) { w.key(\"seed\").u64(s.seed); w.key(\"level\").u64(s.level); }\n\
             pub fn parse(v: &Json) { v.field(\"seed\", Json::as_u64); v.get(\"level\"); }\n",
        );
        assert_eq!(d.len(), 1, "{d:#?}");
        assert!(d[0].message.contains("never written"));
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn written_but_unparsed_key_is_flagged_at_the_write_site() {
        let d = diags(
            "crates/core/src/snapshot.rs",
            "pub fn write(w: &mut Writer, s: &S) {\n\
                 w.key(\"seed\").u64(s.seed);\n\
             }\n\
             pub fn parse(_v: &Json) {}\n",
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
            "pub fn write(w: &mut Writer, s: &S) { w.key(\"seed\").u64(s.seed); }\n\
             pub fn parse(v: &Json) {\n\
                 v.field(\"seed\", Json::as_u64);\n\
                 v.field(\"checksum\", Json::as_u64);\n\
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
            "pub fn write(w: &mut Writer, s: &S) { w.key(\"wormhole\").u64(s.x); }\n\
             pub fn parse(v: &Json) { v.field(\"wormhole\", Json::as_u64); }\n",
        );
        assert!(
            d.iter()
                .any(|x| x.line == 1 && x.message.contains("not documented")),
            "{d:#?}"
        );
    }

    #[test]
    fn only_method_calls_with_a_literal_first_argument_are_keys() {
        let ws = Workspace::build(vec![(
            "crates/core/src/snapshot.rs".to_owned(),
            "pub fn io(w: &mut Writer, v: &Json, k: &str) {\n\
                 key(\"bare_call\"); get(v, \"bare_get\"); w.key(k); v.get(k);\n\
                 v.field(\"a b\", Some); w.str(\"not_a_key\");\n\
                 w.key(\"written\"); v.get(\"read\");\n\
             }\n"
            .to_owned(),
        )]);
        let model = &ws.files[0];
        let raw = model.src.raw_lines.join("\n");
        let keys = |m: BTreeMap<String, KeySite>| m.into_keys().collect::<Vec<_>>();
        assert_eq!(keys(writer_keys(model, &raw)), ["written"]);
        assert_eq!(keys(reader_keys(model, &raw)), ["read"]);
    }

    #[test]
    fn a_scope_file_without_writer_calls_is_a_finding() {
        // Test-code keys do not count, so this json.rs writes nothing:
        // one aggregated finding at line 1 instead of silence.
        let d = diags(
            "crates/core/src/json.rs",
            "pub fn emit() -> String { String::new() }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t(w: &mut Writer) { w.key(\"bogus\"); }\n\
             }\n",
        );
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].line, 1);
        assert!(d[0].message.contains("never written"), "{d:#?}");
        assert!(!d[0].message.contains("bogus"), "{d:#?}");
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let d = diags(
            "crates/core/src/visualize.rs",
            "pub fn emit(w: &mut Writer, s: &S) { w.key(\"mystery\").u64(s.x); }\n",
        );
        assert!(d.is_empty(), "{d:#?}");
    }
}
