//! Linter self-tests: every fixture under `tests/fixtures/` is scanned
//! under a fake in-scope path and the resulting diagnostics are asserted
//! exactly — rule, file, line, and (for the semantic rules) the complete
//! call-chain / flow witness. The binary is exercised end-to-end on
//! throwaway mini-workspaces (findings, JSON emission, `--fix-allows`)
//! and on the real workspace (zero exit).

use ocdd_lint::rules;
use ocdd_lint::{analyze, scan_content};

/// (line, rule) projection of a diagnostic list, for exact comparisons.
fn shape(diags: &[ocdd_lint::Diagnostic]) -> Vec<(usize, &'static str)> {
    diags.iter().map(|d| (d.line, d.rule)).collect()
}

#[test]
fn panics_fixture_exact_diagnostics() {
    // check.rs is a hot-path root file: every fn in it is a reachability
    // root, so its direct panic sources are findings.
    let diags = scan_content(
        "crates/core/src/check.rs",
        include_str!("fixtures/panics.rs"),
    );
    assert_eq!(
        shape(&diags),
        vec![
            (5, rules::PANIC_REACHABILITY),
            (9, rules::PANIC_REACHABILITY),
        ],
        "{diags:#?}"
    );
    assert_eq!(
        diags[0].chain,
        vec![
            "core::check::helper (crates/core/src/check.rs:4)",
            "`.unwrap()` at crates/core/src/check.rs:5",
        ]
    );
}

#[test]
fn panic_reachability_is_scoped_to_hot_roots() {
    // The same content under a cold path has no reachability roots: the
    // panic sources are silent and the `no-panic` allow turns stale.
    let diags = scan_content(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/panics.rs"),
    );
    assert_eq!(shape(&diags), vec![(13, rules::UNUSED_ALLOW)], "{diags:#?}");
}

#[test]
fn an_allow_after_slashes_in_a_string_is_honoured() {
    // The annotation's `//` is the first one past the code, not the one
    // inside the string literal before it.
    let content = "pub fn f(v: Option<u32>) -> u32 {\n\
                   \x20   let _u = \"http://example.org\"; v.unwrap() \
                   // lint: allow(panic-reachability, fixture: caller always passes Some)\n\
                   }\n";
    let diags = scan_content("crates/core/src/check.rs", content);
    assert!(diags.is_empty(), "{diags:#?}");
    // Without the unwrap the same annotation is stale, and reported.
    let stale = content.replace(" v.unwrap()", " 1");
    let diags = scan_content("crates/core/src/check.rs", &stale);
    assert_eq!(shape(&diags), vec![(2, rules::UNUSED_ALLOW)], "{diags:#?}");
}

#[test]
fn cross_file_panic_is_witnessed_through_the_call_edge() {
    let analysis = analyze(vec![
        (
            "crates/core/src/check.rs".to_owned(),
            include_str!("fixtures/xfile_entry.rs").to_owned(),
        ),
        (
            "crates/core/src/support.rs".to_owned(),
            include_str!("fixtures/xfile_helper.rs").to_owned(),
        ),
    ]);
    let diags = analysis.diagnostics;
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, rules::PANIC_REACHABILITY);
    assert_eq!(diags[0].path, "crates/core/src/support.rs");
    assert_eq!(diags[0].line, 10);
    assert_eq!(
        diags[0].chain,
        vec![
            "core::check::entry_check (crates/core/src/check.rs:7)",
            "core::support::pick (crates/core/src/support.rs:5)",
            "core::support::choose (crates/core/src/support.rs:9)",
            "`.unwrap()` at crates/core/src/support.rs:10",
        ],
        "the witness must walk root -> helper -> helper -> panic site"
    );
}

#[test]
fn two_mutex_ab_ba_cycle_is_witnessed_across_files() {
    let analysis = analyze(vec![
        (
            "crates/core/src/lock_a.rs".to_owned(),
            include_str!("fixtures/locks_a.rs").to_owned(),
        ),
        (
            "crates/core/src/lock_b.rs".to_owned(),
            include_str!("fixtures/locks_b.rs").to_owned(),
        ),
    ]);
    let diags = analysis.diagnostics;
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, rules::LOCK_ORDER);
    assert_eq!(diags[0].path, "crates/core/src/lock_a.rs");
    assert_eq!(diags[0].line, 12);
    assert_eq!(
        diags[0].chain,
        vec![
            "lock-order cycle: ALPHA -> BETA -> ALPHA",
            "`core::lock_a::alpha_then_beta` calls `core::lock_b::bump_beta` \
             (crates/core/src/lock_a.rs:12) while holding `ALPHA` (acquired \
             crates/core/src/lock_a.rs:11); the callee acquires `BETA`",
            "`core::lock_b::beta_then_alpha` calls `core::lock_a::bump_alpha` \
             (crates/core/src/lock_b.rs:12) while holding `BETA` (acquired \
             crates/core/src/lock_b.rs:11); the callee acquires `ALPHA`",
        ],
        "the witness must show both opposite-order acquisition edges"
    );
}

#[test]
fn determinism_fixture_exact_diagnostics() {
    let diags = scan_content(
        "crates/core/src/search.rs",
        include_str!("fixtures/determinism.rs"),
    );
    assert_eq!(
        shape(&diags),
        vec![(13, rules::DETERMINISM_TAINT)],
        "{diags:#?}"
    );
    assert_eq!(
        diags[0].chain,
        vec![
            "source: iteration of hash container `m` at crates/core/src/search.rs:10",
            "loop binding `k` at crates/core/src/search.rs:10",
            "absorbed by `order` at crates/core/src/search.rs:11",
            "sink: `DiscoveryResult` constructor at crates/core/src/search.rs:13",
        ],
        "the flow witness must walk source -> bindings -> sink; \
         `sorted_escape` (sorted before escape) must stay clean"
    );
}

#[test]
fn approximate_result_constructor_is_a_taint_sink() {
    // The approximate pipeline shares the deterministic-container
    // contract: hash-iteration order flowing into an
    // `ApproximateResult` constructor is a finding too.
    let content = "use std::collections::HashMap;\n\
                   \n\
                   pub fn leak(m: &HashMap<u32, u32>) -> ApproximateResult {\n\
                   \x20   let mut ocds = Vec::new();\n\
                   \x20   for (k, _) in m.iter() {\n\
                   \x20       ocds.push(*k);\n\
                   \x20   }\n\
                   \x20   ApproximateResult { ocds }\n\
                   }\n";
    let diags = scan_content("crates/core/src/approximate.rs", content);
    assert_eq!(
        shape(&diags),
        vec![(8, rules::DETERMINISM_TAINT)],
        "{diags:#?}"
    );
    assert_eq!(
        diags[0].chain,
        vec![
            "source: iteration of hash container `m` at crates/core/src/approximate.rs:5",
            "loop binding `k` at crates/core/src/approximate.rs:5",
            "absorbed by `ocds` at crates/core/src/approximate.rs:6",
            "sink: `ApproximateResult` constructor at crates/core/src/approximate.rs:8",
        ]
    );
}

#[test]
fn atomics_fixture_exact_diagnostics() {
    let diags = scan_content(
        "crates/core/src/scheduler.rs",
        include_str!("fixtures/atomics.rs"),
    );
    assert_eq!(
        shape(&diags),
        vec![
            (10, rules::ATOMICS_AUDIT),
            (19, rules::LOCK_DISCIPLINE),
            (19, rules::PANIC_REACHABILITY),
        ],
        "{diags:#?}"
    );
}

#[test]
fn annotation_hygiene_fixture_exact_diagnostics() {
    let diags = scan_content(
        "crates/core/src/annotations.rs",
        include_str!("fixtures/annotations.rs"),
    );
    assert_eq!(
        shape(&diags),
        vec![(1, rules::UNUSED_ALLOW), (4, rules::UNKNOWN_ALLOW)],
        "{diags:#?}"
    );
}

#[test]
fn unprobed_fixture_exact_diagnostics() {
    // scheduler.rs is in the cancellation scope; `discover` is the entry
    // point. Only the dry helper loop is a finding — the directly probing
    // loop, the probing-via-callee loop, and the annotated loop are clean.
    let diags = scan_content(
        "crates/core/src/scheduler.rs",
        include_str!("fixtures/unprobed.rs"),
    );
    assert_eq!(
        shape(&diags),
        vec![(11, rules::UNPROBED_LOOP)],
        "{diags:#?}"
    );
    assert_eq!(
        diags[0].chain,
        vec![
            "core::scheduler::discover (crates/core/src/scheduler.rs:5)",
            "core::scheduler::drive (crates/core/src/scheduler.rs:9)",
            "`for` loop spanning crates/core/src/scheduler.rs:11-13",
        ],
        "the witness must walk entry point -> helper -> loop span"
    );
}

#[test]
fn unprobed_loops_outside_the_cancellation_scope_are_silent() {
    // The same content in a file outside the cancellation scope has no
    // findings — but the now-stale allow inside it is flagged.
    let diags = scan_content(
        "crates/core/src/reduction.rs",
        include_str!("fixtures/unprobed.rs"),
    );
    assert_eq!(shape(&diags), vec![(43, rules::UNUSED_ALLOW)], "{diags:#?}");
}

#[test]
fn hot_alloc_fixture_exact_diagnostics() {
    // check.rs is a hot-allocation root: its fns are scan/check/sort
    // roots. The hoisted with_capacity + in-loop push stay silent; the
    // in-loop format! and clone are findings; the annotated clone is not.
    let diags = scan_content(
        "crates/core/src/check.rs",
        include_str!("fixtures/hot_alloc.rs"),
    );
    assert_eq!(
        shape(&diags),
        vec![(8, rules::HOT_LOOP_ALLOC), (16, rules::HOT_LOOP_ALLOC)],
        "{diags:#?}"
    );
    assert!(diags[0].message.contains("`format!`"), "{diags:#?}");
    assert_eq!(
        diags[0].chain,
        vec![
            "core::check::kernel (crates/core/src/check.rs:5)",
            "`format!` inside a `for` loop at crates/core/src/check.rs:8",
        ]
    );
    assert!(diags[1].message.contains("`.clone()`"), "{diags:#?}");
}

#[test]
fn lossy_cast_fixture_exact_diagnostics() {
    // The unguarded cast of a widened u64 is the only finding; the
    // guard-refined cast (`distinct <= u8::MAX`) and the widening cast
    // stay silent. The witness walks definition -> wrap consequence.
    let diags = scan_content(
        "crates/core/src/check.rs",
        include_str!("fixtures/lossy_cast.rs"),
    );
    assert_eq!(shape(&diags), vec![(7, rules::LOSSY_CAST)], "{diags:#?}");
    assert_eq!(
        diags[0].message,
        "`distinct as u8`: inferred range [0, 18446744073709551615] does not fit u8 \
         (guaranteed [0, 255])"
    );
    assert_eq!(
        diags[0].chain,
        vec![
            "`distinct` defined at line 6 with range [0, 18446744073709551615]",
            "`as u8` wraps values above 255",
        ],
        "the witness must chain the def site to the wrap consequence"
    );
}

#[test]
fn unbound_name_is_not_typed_by_an_unrelated_declaration() {
    // `c` in the closure is bound by nothing the walk knows; the
    // parameter `c: u8` of another fn must not lend it a range.
    let diags = scan_content(
        "crates/relation/src/sample.rs",
        include_str!("fixtures/unbound_name.rs"),
    );
    assert_eq!(shape(&diags), vec![(6, rules::LOSSY_CAST)], "{diags:#?}");
    assert!(diags[0].message.starts_with("`c as u8`"), "{diags:#?}");
}

#[test]
fn overflow_arith_fixture_exact_diagnostics() {
    // sort.rs is an overflow-prone-arith root: the havocked accumulator
    // `+=` and the unguarded plain `+` are findings; the guard-refined
    // add, the checked_add, and the u64-promoted add stay silent.
    let diags = scan_content(
        "crates/relation/src/sort.rs",
        include_str!("fixtures/overflow_arith.rs"),
    );
    assert_eq!(
        shape(&diags),
        vec![
            (8, rules::OVERFLOW_PRONE_ARITH),
            (10, rules::OVERFLOW_PRONE_ARITH),
        ],
        "{diags:#?}"
    );
    assert_eq!(
        diags[0].message,
        "`+=` on u32: operands [0, 4294967295] + [0, 4294967295] admit a result outside \
         u32 (max 4294967295)"
    );
    assert_eq!(
        diags[0].chain,
        vec![
            "`total` defined at line 6 with range [0, 4294967295]",
            "mathematical result [0, 8589934590] exceeds u32::MAX",
        ]
    );
}

#[test]
fn overflow_arith_is_scoped_to_hot_roots() {
    // The same content outside the scan/sort/sample reachability scope
    // has no overflow findings.
    let diags = scan_content(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/overflow_arith.rs"),
    );
    assert_eq!(shape(&diags), vec![], "{diags:#?}");
}

#[test]
fn index_bounds_fixture_exact_diagnostics() {
    // scan.rs is the block-kernel scope: the unmasked derived index into
    // the fixed scratch buffer is a finding; the guard-refined index and
    // the mask-bounded lane stay silent.
    let diags = scan_content(
        "crates/relation/src/scan.rs",
        include_str!("fixtures/index_bounds.rs"),
    );
    assert_eq!(
        shape(&diags),
        vec![(8, rules::UNTRACKED_INDEX_ARITH)],
        "{diags:#?}"
    );
    assert_eq!(
        diags[0].message,
        "index `k` into `scratch` (len 64) has inferred range \
         [0, 18446744073709551615], not provably within [0, 63]"
    );
    assert_eq!(
        diags[0].chain,
        vec![
            "`k` defined at line 7 with range [0, 18446744073709551615]",
            "scratch buffer `scratch` holds 64 slots",
        ]
    );
}

#[test]
fn schema_drift_fixture_exact_diagnostics() {
    // Injected drift against the documented ocdd-snapshot/1 table: an
    // undocumented+unparsed written key, a parsed-but-never-written key
    // (the resume-rejection class), and the aggregated documented-but-
    // absent finding anchored at the first write site.
    let diags = scan_content(
        "crates/core/src/snapshot.rs",
        include_str!("fixtures/schema_drift.rs"),
    );
    assert_eq!(
        shape(&diags),
        vec![
            (9, rules::SCHEMA_PARITY),
            (9, rules::SCHEMA_PARITY),
            (9, rules::SCHEMA_PARITY),
            (14, rules::SCHEMA_PARITY),
        ],
        "{diags:#?}"
    );
    let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert!(
        messages
            .iter()
            .any(|m| m.contains("`\"wormhole\"`") && m.contains("never parsed")),
        "{diags:#?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("`\"wormhole\"`") && m.contains("not documented")),
        "{diags:#?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("`\"checksum\"`") && m.contains("never written")),
        "{diags:#?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("documented ocdd-snapshot/1 key") && m.contains("`\"frontier\"`")),
        "{diags:#?}"
    );
    let drift = diags
        .iter()
        .find(|d| d.message.contains("never parsed"))
        .expect("wormhole drift finding");
    assert_eq!(
        drift.chain,
        vec![
            "written at crates/core/src/snapshot.rs:9",
            "no matching `.field`/`.get` lookup in the parser",
        ]
    );
}

#[test]
fn test_regions_are_exempt() {
    let diags = scan_content(
        "crates/core/src/check.rs",
        include_str!("fixtures/test_exempt.rs"),
    );
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn shared_cache_stats_counters_are_allowlisted() {
    let content = "pub fn f(s: &S) {\n    s.stats.hits.fetch_add(1, Ordering::Relaxed);\n}\n";
    let diags = scan_content("crates/core/src/shared_cache.rs", content);
    assert!(diags.is_empty(), "{diags:#?}");
    // The identical line elsewhere is a finding.
    let diags = scan_content("crates/core/src/scheduler.rs", content);
    assert_eq!(shape(&diags), vec![(2, rules::ATOMICS_AUDIT)]);
}

/// Build a throwaway mini-workspace under a unique temp dir.
// Throwaway test inputs need no atomic write.
#[allow(clippy::disallowed_methods)]
fn mini_workspace(tag: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("ocdd-lint-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    for (rel, content) in files {
        let abs = root.join(rel);
        std::fs::create_dir_all(abs.parent().expect("file path has a parent"))
            .expect("create mini workspace dirs");
        std::fs::write(abs, content).expect("write mini workspace file");
    }
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    root
}

#[test]
fn binary_fails_on_violating_workspace_and_passes_on_this_one() {
    let bin = env!("CARGO_BIN_EXE_ocdd-lint");

    let root = mini_workspace(
        "bad",
        &[(
            "crates/core/src/check.rs",
            "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
        )],
    );
    let out = std::process::Command::new(bin)
        .arg(&root)
        .output()
        .expect("run ocdd-lint on mini workspace");
    std::fs::remove_dir_all(&root).ok();
    assert!(!out.status.success(), "expected a non-zero exit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/core/src/check.rs:2: panic-reachability:"),
        "{stdout}"
    );
    assert!(stdout.contains("witness:"), "{stdout}");

    // The real workspace is clean — the CI gate this binary backs.
    let ws = ocdd_lint::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let out = std::process::Command::new(bin)
        .arg(&ws)
        .output()
        .expect("run ocdd-lint on the workspace");
    assert!(
        out.status.success(),
        "workspace has lint findings:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn a_reader_closing_the_pipe_early_ends_the_output_quietly() {
    // Enough findings to overflow the pipe buffer, so the binary is still
    // writing when the reader goes away after one line.
    let body: String = (0..1500)
        .map(|i| format!("pub fn f{i}(v: Option<u32>) -> u32 {{\n    v.unwrap()\n}}\n"))
        .collect();
    let root = mini_workspace("epipe", &[("crates/core/src/check.rs", &body)]);
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_ocdd-lint"))
        .arg(&root)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn ocdd-lint");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    std::io::BufRead::read_line(&mut std::io::BufReader::new(stdout), &mut first)
        .expect("read the first finding");
    let out = child.wait_with_output().expect("wait for ocdd-lint");
    std::fs::remove_dir_all(&root).ok();
    assert!(first.contains("panic-reachability"), "{first}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "the findings' exit status");
}

#[test]
fn binary_emits_stable_json() {
    let bin = env!("CARGO_BIN_EXE_ocdd-lint");
    let root = mini_workspace(
        "json",
        &[(
            "crates/core/src/check.rs",
            "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
        )],
    );
    let out = std::process::Command::new(bin)
        .args([root.to_str().expect("utf-8 temp path"), "--emit", "json"])
        .output()
        .expect("run ocdd-lint --emit json");
    std::fs::remove_dir_all(&root).ok();
    assert!(!out.status.success(), "findings must still exit non-zero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"schema\": \"ocdd-lint/3\""), "{stdout}");
    assert!(stdout.contains("\"count\": 1"), "{stdout}");
    assert!(
        stdout.contains("\"panic-reachability\": 1") && stdout.contains("\"unprobed-loop\": 0"),
        "the per-rule counts object must cover every rule:\n{stdout}"
    );
    assert!(
        stdout.contains(
            "\"rule\": \"panic-reachability\", \"file\": \"crates/core/src/check.rs\", \"line\": 2"
        ),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"chain\": [\"core::check::f (crates/core/src/check.rs:1)\""),
        "{stdout}"
    );
}

#[test]
fn binary_emits_sarif() {
    let bin = env!("CARGO_BIN_EXE_ocdd-lint");
    let root = mini_workspace(
        "sarif",
        &[(
            "crates/core/src/check.rs",
            "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
        )],
    );
    let out = std::process::Command::new(bin)
        .args([root.to_str().expect("utf-8 temp path"), "--emit", "sarif"])
        .output()
        .expect("run ocdd-lint --emit sarif");
    std::fs::remove_dir_all(&root).ok();
    assert!(!out.status.success(), "findings must still exit non-zero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"version\": \"2.1.0\""), "{stdout}");
    assert!(stdout.contains("\"name\": \"ocdd-lint\""), "{stdout}");
    assert!(
        stdout.contains("\"ruleId\": \"panic-reachability\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"uri\": \"crates/core/src/check.rs\"")
            && stdout.contains("\"startLine\": 2"),
        "{stdout}"
    );
}

#[test]
fn binary_sarif_carries_interval_witnesses() {
    // End-to-end over the abstract-interpretation rules: the SARIF result
    // for a lossy cast must carry the inferred interval and the def→cast
    // witness chain in its message text, so review annotations show the
    // concrete range evidence, not just the rule id.
    let bin = env!("CARGO_BIN_EXE_ocdd-lint");
    let root = mini_workspace(
        "sarif-intervals",
        &[(
            "crates/core/src/check.rs",
            "pub fn f(rows: u64) -> u8 {\n    let distinct = rows * 2;\n    distinct as u8\n}\n",
        )],
    );
    let out = std::process::Command::new(bin)
        .args([root.to_str().expect("utf-8 temp path"), "--emit", "sarif"])
        .output()
        .expect("run ocdd-lint --emit sarif");
    std::fs::remove_dir_all(&root).ok();
    assert!(!out.status.success(), "findings must still exit non-zero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"ruleId\": \"lossy-cast\""), "{stdout}");
    // The message carries the inferred operand interval and target bound.
    assert!(
        stdout.contains(
            "`distinct as u8`: inferred range [0, 18446744073709551615] \
             does not fit u8 (guaranteed [0, 255])"
        ),
        "{stdout}"
    );
    // ... and the witness chain: definition site with its range, then the
    // wrap threshold of the cast target.
    assert!(
        stdout.contains(
            "witness: `distinct` defined at line 2 with range \
             [0, 18446744073709551615] -> `as u8` wraps values above 255"
        ),
        "{stdout}"
    );
    assert!(stdout.contains("\"startLine\": 3"), "{stdout}");
}

#[test]
fn binary_fails_on_unprobed_loop_workspace() {
    // End-to-end over the new semantic rules: a mini-workspace whose
    // discover entry point drives a dry loop exits non-zero with the
    // call-chain witness in the human output.
    let bin = env!("CARGO_BIN_EXE_ocdd-lint");
    let root = mini_workspace(
        "unprobed",
        &[(
            "crates/core/src/search.rs",
            "pub fn discover(v: &[u32]) -> u32 {\n\
             \x20   drive(v)\n\
             }\n\
             fn drive(v: &[u32]) -> u32 {\n\
             \x20   let mut acc = 0;\n\
             \x20   for x in v {\n\
             \x20       acc += *x;\n\
             \x20   }\n\
             \x20   acc\n\
             }\n",
        )],
    );
    let out = std::process::Command::new(bin)
        .arg(&root)
        .output()
        .expect("run ocdd-lint on unprobed mini workspace");
    std::fs::remove_dir_all(&root).ok();
    assert!(!out.status.success(), "expected a non-zero exit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/core/src/search.rs:6: unprobed-loop:"),
        "{stdout}"
    );
    assert!(
        stdout.contains("core::search::discover (crates/core/src/search.rs:1)"),
        "{stdout}"
    );
}

#[test]
fn fix_allows_dry_run_then_apply() {
    let bin = env!("CARGO_BIN_EXE_ocdd-lint");
    let before = "pub fn used(v: Option<u32>) -> u32 {\n\
                  \x20   // lint: allow(no-panic, fixture: caller always passes Some)\n\
                  \x20   v.unwrap()\n\
                  }\n\
                  \n\
                  // lint: allow(no-panic, stale annotation on its own line)\n\
                  pub fn fine() -> u32 {\n\
                  \x20   1\n\
                  }\n\
                  \n\
                  pub fn trailing() -> u32 {\n\
                  \x20   2 // lint: allow(determinism-hash, stale trailing annotation)\n\
                  }\n\
                  \n\
                  pub fn url() -> &'static str {\n\
                  \x20   \"http://example.org\" // lint: allow(no-panic, stale after a string)\n\
                  }\n";
    let root = mini_workspace("fix", &[("crates/core/src/check.rs", before)]);
    let file = root.join("crates/core/src/check.rs");

    // Dry run: reports what would go, touches nothing, exits zero.
    let out = std::process::Command::new(bin)
        .args([root.to_str().expect("utf-8 temp path"), "--fix-allows"])
        .output()
        .expect("run ocdd-lint --fix-allows");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("crates/core/src/check.rs:6: stale allow(no-panic) would be removed"),
        "{stdout}"
    );
    assert!(
        stdout.contains(
            "crates/core/src/check.rs:12: stale allow(determinism-hash) would be removed"
        ),
        "{stdout}"
    );
    assert!(
        stdout.contains("crates/core/src/check.rs:16: stale allow(no-panic) would be removed"),
        "{stdout}"
    );
    assert_eq!(
        std::fs::read_to_string(&file).expect("reread fixture"),
        before,
        "dry run must not modify the file"
    );

    // Apply: the standalone stale line is deleted, the trailing one is
    // stripped back to its code, the used allow survives.
    let out = std::process::Command::new(bin)
        .args([
            root.to_str().expect("utf-8 temp path"),
            "--fix-allows",
            "--apply",
        ])
        .output()
        .expect("run ocdd-lint --fix-allows --apply");
    assert!(out.status.success());
    let after = std::fs::read_to_string(&file).expect("reread fixture");
    let expected = "pub fn used(v: Option<u32>) -> u32 {\n\
                    \x20   // lint: allow(no-panic, fixture: caller always passes Some)\n\
                    \x20   v.unwrap()\n\
                    }\n\
                    \n\
                    pub fn fine() -> u32 {\n\
                    \x20   1\n\
                    }\n\
                    \n\
                    pub fn trailing() -> u32 {\n\
                    \x20   2\n\
                    }\n\
                    \n\
                    pub fn url() -> &'static str {\n\
                    \x20   \"http://example.org\"\n\
                    }\n";
    assert_eq!(after, expected);

    // The workspace is clean once the stale annotations are gone.
    let out = std::process::Command::new(bin)
        .arg(&root)
        .output()
        .expect("re-run ocdd-lint after apply");
    std::fs::remove_dir_all(&root).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn explain_covers_every_rule_and_aliases() {
    let bin = env!("CARGO_BIN_EXE_ocdd-lint");
    for rule in ocdd_lint::ALL_RULES {
        let out = std::process::Command::new(bin)
            .args(["--explain", rule])
            .output()
            .expect("run ocdd-lint --explain");
        assert!(out.status.success(), "--explain {rule}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains(rule),
            "--explain {rule} must mention the rule"
        );
    }
    // Aliases resolve to the subsuming rule's text.
    let out = std::process::Command::new(bin)
        .args(["--explain", "no-panic"])
        .output()
        .expect("run ocdd-lint --explain no-panic");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("panic-reachability"));
}
