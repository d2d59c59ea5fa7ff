//! `ocdd-lint` — the workspace-specific static-analysis pass: line rules
//! on masked text plus a cross-file semantic analyzer.
//!
//! The compiler cannot see the invariants this reproduction's correctness
//! rests on: byte-identical results across Sequential/WorkStealing
//! runs, panic-quarantined workers, and `Relaxed` stats counters that
//! must never feed back into results. `ocdd-lint` enforces them over every
//! workspace `.rs` file — line rules on masked text, and semantic rules
//! over a token-level workspace model with a conservative call graph:
//!
//! | rule | kind | invariant |
//! |---|---|---|
//! | `panic-reachability` | semantic | no panic source reachable from the hot-path roots |
//! | `lock-order` | semantic | the lock-order graph is acyclic (no AB/BA deadlock) |
//! | `determinism-taint` | semantic | no hash-iteration/clock value flows into results |
//! | `unprobed-loop` | semantic | every loop reachable from `discover*` probes the budget |
//! | `schema-parity` | semantic | snapshot/JSON writer, parser, and doc key sets agree |
//! | `hot-loop-alloc` | semantic | no allocation in loops reachable from the hot kernels |
//! | `lossy-cast` | semantic | every `as` narrowing cast proven in-range (intervals) |
//! | `overflow-prone-arith` | semantic | hot-path add/mul/shift proven wrap-free (intervals) |
//! | `untracked-index-arith` | semantic | fixed-buffer indices proven in-bounds (intervals) |
//! | `atomics-audit` | line | every `Ordering::Relaxed` justified or allowlisted |
//! | `lock-discipline` | line | `.lock().unwrap()` banned; poison is recovered |
//!
//! Three confinement rules live in `clippy.toml` instead, as clippy's
//! `disallowed-methods` / `disallowed-types`: clock reads (`Instant::now`,
//! `SystemTime`) and thread spawns in core and relation (`clippy.toml`
//! of each crate), and direct file writes (`fs::write`, `File::create`,
//! `OpenOptions`) everywhere (the root `clippy.toml`). Each sanctioned
//! site carries `#[allow(clippy::disallowed_methods)]` with its reason.
//!
//! A finding is silenced by `// lint: allow(<rule>, <reason>)` — trailing
//! on the offending line, standalone on the line(s) above, or (for the
//! semantic rules) on the `fn` definition line to cover the whole
//! function. The pre-ISSUE-5 rule names `no-panic` and `determinism-hash`
//! are accepted as aliases. The reason is mandatory, stale annotations are
//! themselves findings (`unused-allow`, fixable via `--fix-allows`), and
//! unknown rule names are rejected (`unknown-allow`), so the allowlist
//! cannot rot.
//!
//! Run as `cargo run -p ocdd-lint` from the workspace root (ci.sh gates on
//! it before clippy); the binary exits non-zero on any finding. Every run
//! is one [`analyze`] pass over the whole workspace. See
//! [`crate::callgraph`], [`crate::locks`], [`crate::taint`] for the
//! semantic passes and `--explain <rule>` for the rationale of each rule.

pub mod absint;
pub mod callgraph;
pub mod casts;
pub mod dataflow;
pub mod intervals;
pub mod locks;
pub mod loops;
pub mod rules;
pub mod schema;
pub mod source;
pub mod taint;
pub mod tokens;

pub use rules::{canonical_rule, check_file, explain, Diagnostic, ALL_RULES};
pub use source::SourceFile;

use callgraph::{AllowUses, FileModel, Workspace};
use ocdd_iosafe::json::quoted;
use rules::{UNKNOWN_ALLOW, UNUSED_ALLOW};
use std::path::{Path, PathBuf};

/// Directories scanned relative to the workspace root. Test trees
/// (`tests/`, `benches/`) are skipped wholesale — every rule exempts test
/// code — as are the linter's own violation fixtures.
const SCAN_ROOTS: &[&str] = &["crates", "src"];

/// Path fragments that must never be scanned.
const SKIP_FRAGMENTS: &[&str] = &["/target/", "/tests/", "/benches/", "/fixtures/"];

/// Recursively collect `.rs` files under `dir` into `out`.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let unixy = path.to_string_lossy().replace('\\', "/");
        if SKIP_FRAGMENTS
            .iter()
            .any(|frag| unixy.contains(frag) || unixy.ends_with(frag.trim_end_matches('/')))
        {
            continue;
        }
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Read every scannable `.rs` file under `root` as path-sorted
/// `(workspace-relative path, content)` pairs.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    for scan_root in SCAN_ROOTS {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for file in &paths {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, std::fs::read_to_string(file)?));
    }
    Ok(out)
}

/// An allow annotation that suppressed nothing — `--fix-allows` deletes
/// these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleAllow {
    /// Workspace-relative path of the file carrying the annotation.
    pub path: String,
    /// 1-based line the annotation comment sits on.
    pub line: usize,
    /// Rule name exactly as written (possibly an alias).
    pub rule: String,
}

/// The result of a full workspace analysis.
pub struct Analysis {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by `(path, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Annotations that suppressed nothing (each also yields an
    /// `unused-allow` diagnostic).
    pub stale_allows: Vec<StaleAllow>,
}

/// Analyze a set of `(path, content)` files as one workspace: line rules
/// per file, then the semantic passes over the shared model, then
/// annotation hygiene across everything.
pub fn analyze(files: Vec<(String, String)>) -> Analysis {
    let files_scanned = files.len();
    let ws = Workspace::build(files);
    let mut uses = AllowUses::default();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    for (fi, model) in ws.files.iter().enumerate() {
        let (diags, used) = check_file(&model.src);
        diagnostics.extend(diags);
        for (line, rule) in used {
            uses.mark(fi, line, rule);
        }
    }

    diagnostics.extend(callgraph::panic_reachability(&ws, &mut uses));
    diagnostics.extend(locks::lock_order(&ws, &mut uses));
    diagnostics.extend(taint::determinism_taint(&ws, &mut uses));
    diagnostics.extend(dataflow::unprobed_loops(&ws, &mut uses));
    diagnostics.extend(dataflow::hot_loop_alloc(&ws, &mut uses));
    diagnostics.extend(schema::schema_parity(&ws, &mut uses));
    diagnostics.extend(casts::interval_rules(&ws, &mut uses));

    // Annotation hygiene, after every pass has had its chance to consume
    // an allow.
    let mut stale_allows = Vec::new();
    for (fi, model) in ws.files.iter().enumerate() {
        hygiene(fi, model, &uses, &mut diagnostics, &mut stale_allows);
    }

    diagnostics.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    stale_allows.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Analysis {
        files_scanned,
        diagnostics,
        stale_allows,
    }
}

/// Annotation hygiene for file `fi`: `unknown-allow` for bad rule names,
/// `unused-allow` (plus a [`StaleAllow`]) for annotations `uses` records
/// as consumed by nothing. Allows targeting test-only lines are exempt:
/// test code is outside every rule's scope, so "unused there" carries no
/// signal.
fn hygiene(
    fi: usize,
    model: &FileModel,
    uses: &AllowUses,
    diagnostics: &mut Vec<Diagnostic>,
    stale_allows: &mut Vec<StaleAllow>,
) {
    for (target_line, allows) in model.src.allows_for_line.iter().enumerate() {
        for a in allows {
            if model.is_test_line(target_line) {
                continue;
            }
            let Some(canon) = canonical_rule(&a.rule) else {
                diagnostics.push(Diagnostic {
                    path: model.src.path.clone(),
                    line: a.line,
                    rule: UNKNOWN_ALLOW,
                    message: format!(
                        "annotation names unknown rule `{}` — known rules: {}",
                        a.rule,
                        ALL_RULES.join(", ")
                    ),
                    chain: Vec::new(),
                });
                continue;
            };
            if !uses.is_used(fi, target_line, canon) {
                diagnostics.push(Diagnostic {
                    path: model.src.path.clone(),
                    line: a.line,
                    rule: UNUSED_ALLOW,
                    message: format!(
                        "allow(`{}`) suppressed nothing — remove it (or run \
                         `ocdd-lint --fix-allows --apply`)",
                        a.rule
                    ),
                    chain: Vec::new(),
                });
                stale_allows.push(StaleAllow {
                    path: model.src.path.clone(),
                    line: a.line,
                    rule: a.rule.clone(),
                });
            }
        }
    }
}

/// Analyze one file's `content` as workspace-relative `rel_path`, running
/// the full pipeline (the single file is the whole workspace).
pub fn scan_content(rel_path: &str, content: &str) -> Vec<Diagnostic> {
    analyze(vec![(rel_path.to_owned(), content.to_owned())]).diagnostics
}

/// Scan the workspace rooted at `root`.
pub fn scan_workspace(root: &Path) -> std::io::Result<Analysis> {
    Ok(analyze(collect_files(root)?))
}

/// Every rule name a finding can carry, in the order the `rules` counts
/// object is emitted: the annotatable rules, then the meta rules.
fn emitted_rules() -> Vec<&'static str> {
    let mut all: Vec<&'static str> = ALL_RULES.to_vec();
    all.push(UNUSED_ALLOW);
    all.push(UNKNOWN_ALLOW);
    all
}

/// Render diagnostics as the stable `ocdd-lint/3` JSON schema consumed by
/// ci.sh and `scripts/lint_diff.sh`:
///
/// ```json
/// {
///   "schema": "ocdd-lint/3",
///   "count": 1,
///   "rules": {"panic-reachability": 1, "lock-order": 0, "...": 0},
///   "findings": [
///     {"rule": "...", "file": "...", "line": 1, "message": "...",
///      "chain": ["root (file:line)", "... at file:line"]}
///   ]
/// }
/// ```
///
/// The `rules` object carries per-rule finding counts for *every* known
/// rule (zeros included) on one line, so the ci.sh baseline gate and
/// `scripts/lint_diff.sh` can `sed`-extract it and diff per rule without
/// parsing findings. `chain` is the call-chain / flow witness for
/// semantic rules, outermost first; empty for line rules. Fields are
/// emitted in exactly this order.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"ocdd-lint/3\",\n");
    s.push_str(&format!("  \"count\": {},\n", diags.len()));
    s.push_str("  \"rules\": {");
    for (i, rule) in emitted_rules().iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let n = diags.iter().filter(|d| d.rule == *rule).count();
        s.push_str(&format!("{}: {n}", quoted(rule)));
    }
    s.push_str("},\n");
    s.push_str("  \"findings\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {");
        s.push_str(&format!("\"rule\": {}, ", quoted(d.rule)));
        s.push_str(&format!("\"file\": {}, ", quoted(&d.path)));
        s.push_str(&format!("\"line\": {}, ", d.line));
        s.push_str(&format!("\"message\": {}, ", quoted(&d.message)));
        s.push_str("\"chain\": [");
        for (j, hop) in d.chain.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&quoted(hop));
        }
        s.push_str("]}");
    }
    if !diags.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Render diagnostics as a minimal SARIF 2.1.0 document — a thin mapping
/// from the `ocdd-lint/3` JSON schema so findings annotate code review
/// directly. One run, one `ocdd-lint` driver carrying every known rule id,
/// one `error`-level result per finding; the witness chain is appended to
/// the message text (SARIF `codeFlows` would be overkill for a text pass).
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    s.push_str("  \"version\": \"2.1.0\",\n");
    s.push_str("  \"runs\": [{\n");
    s.push_str("    \"tool\": {\"driver\": {\"name\": \"ocdd-lint\", \"rules\": [");
    for (i, rule) in emitted_rules().iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("{{\"id\": {}}}", quoted(rule)));
    }
    s.push_str("]}},\n");
    s.push_str("    \"results\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let mut text = d.message.clone();
        if !d.chain.is_empty() {
            text.push_str("; witness: ");
            text.push_str(&d.chain.join(" -> "));
        }
        s.push_str("\n      {");
        s.push_str(&format!("\"ruleId\": {}, ", quoted(d.rule)));
        s.push_str("\"level\": \"error\", ");
        s.push_str(&format!("\"message\": {{\"text\": {}}}, ", quoted(&text)));
        s.push_str(&format!(
            "\"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
             {{\"uri\": {}}}, \"region\": {{\"startLine\": {}}}}}}}]",
            quoted(&d.path),
            d.line
        ));
        s.push('}');
    }
    if !diags.is_empty() {
        s.push_str("\n    ");
    }
    s.push_str("]\n  }]\n}\n");
    s
}

/// Compute (and with `apply` perform) the deletions for stale allow
/// annotations under `root`. Returns the stale allows that were (or would
/// be) removed. Annotation-only lines are deleted whole; trailing
/// annotations are stripped back to the code they ride on, found as
/// [`source::comment_start`] finds them (a `//` inside a string literal
/// never counts).
pub fn fix_allows(root: &Path, apply: bool) -> std::io::Result<Vec<StaleAllow>> {
    let analysis = analyze(collect_files(root)?);
    if analysis.stale_allows.is_empty() || !apply {
        return Ok(analysis.stale_allows);
    }
    let mut by_path: std::collections::BTreeMap<&str, Vec<&StaleAllow>> =
        std::collections::BTreeMap::new();
    for sa in &analysis.stale_allows {
        by_path.entry(sa.path.as_str()).or_default().push(sa);
    }
    for (path, stales) in by_path {
        let abs = root.join(path);
        let content = std::fs::read_to_string(&abs)?;
        let masked = SourceFile::parse(path, &content).masked_lines;
        let had_trailing_newline = content.ends_with('\n');
        let mut lines: Vec<String> = content.split('\n').map(str::to_owned).collect();
        if had_trailing_newline {
            lines.pop();
        }
        // Highest line first so earlier indices stay valid across removals.
        let mut sorted: Vec<&StaleAllow> = stales;
        sorted.sort_by_key(|sa| std::cmp::Reverse(sa.line));
        for sa in sorted {
            let idx = sa.line - 1;
            let Some((line, masked)) = lines.get(idx).zip(masked.get(idx)) else {
                continue;
            };
            let Some(pos) = source::comment_start(line, masked) else {
                continue;
            };
            if line[..pos].trim().is_empty() {
                lines.remove(idx);
            } else {
                let code = line[..pos].trim_end().to_owned();
                lines[idx] = code;
            }
        }
        let mut rewritten = lines.join("\n");
        if had_trailing_newline {
            rewritten.push('\n');
        }
        ocdd_iosafe::atomic_write_str(&abs, &rewritten)?;
    }
    Ok(analysis.stale_allows)
}

/// Locate the workspace root: walk up from `start` until a directory with
/// a `Cargo.toml` containing `[workspace]` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_content_has_no_findings() {
        let d = scan_content(
            "crates/core/src/check.rs",
            "pub fn f() -> Option<u32> { Some(1) }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn workspace_root_is_discoverable_from_here() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above crates/lint");
        assert!(root.join("crates/core/src/lib.rs").is_file());
    }

    #[test]
    fn unused_allow_is_reported_at_the_annotation_line() {
        let d = scan_content(
            "crates/core/src/util.rs",
            "// lint: allow(panic-reachability, nothing here panics)\n\
             pub fn fine() -> u32 { 1 }\n",
        );
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].rule, "unused-allow");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn unknown_allow_is_reported() {
        let d = scan_content(
            "crates/core/src/util.rs",
            "pub fn fine() -> u32 { 1 } // lint: allow(no-such-rule, why)\n",
        );
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].rule, "unknown-allow");
    }

    #[test]
    fn json_schema_is_stable() {
        let diags = vec![Diagnostic {
            path: "crates/core/src/x.rs".into(),
            line: 3,
            rule: "panic-reachability",
            message: "a \"quoted\" message".into(),
            chain: vec!["root (a.rs:1)".into(), "`.unwrap()` at b.rs:2".into()],
        }];
        let json = to_json(&diags);
        assert!(json.contains("\"schema\": \"ocdd-lint/3\""));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"rules\": {\"panic-reachability\": 1, \"lock-order\": 0,"));
        assert!(json.contains("\"unprobed-loop\": 0"));
        assert!(json.contains("\"schema-parity\": 0"));
        assert!(json.contains("\"hot-loop-alloc\": 0"));
        assert!(json.contains("\"lossy-cast\": 0"));
        assert!(json.contains("\"overflow-prone-arith\": 0"));
        assert!(json.contains("\"untracked-index-arith\": 0"));
        assert!(json.contains("\"unknown-allow\": 0"));
        assert!(json.contains(
            "{\"rule\": \"panic-reachability\", \"file\": \"crates/core/src/x.rs\", \
             \"line\": 3, \"message\": \"a \\\"quoted\\\" message\", \
             \"chain\": [\"root (a.rs:1)\", \"`.unwrap()` at b.rs:2\"]}"
        ));
        assert!(to_json(&[]).contains("\"findings\": []"));
    }

    #[test]
    fn sarif_maps_findings_with_rule_location_and_witness() {
        let diags = vec![Diagnostic {
            path: "crates/core/src/x.rs".into(),
            line: 3,
            rule: "unprobed-loop",
            message: "loop never probes".into(),
            chain: vec!["root (a.rs:1)".into(), "`for` loop at x.rs:3".into()],
        }];
        let sarif = to_sarif(&diags);
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"name\": \"ocdd-lint\""));
        assert!(sarif.contains("{\"id\": \"unprobed-loop\"}"));
        assert!(sarif.contains("\"ruleId\": \"unprobed-loop\""));
        assert!(sarif.contains("loop never probes; witness: root (a.rs:1) -> `for` loop at x.rs:3"));
        assert!(sarif.contains("\"uri\": \"crates/core/src/x.rs\""));
        assert!(sarif.contains("\"startLine\": 3"));
        assert!(to_sarif(&[]).contains("\"results\": []"));
    }
}
