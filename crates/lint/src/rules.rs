//! The workspace invariant rules (see DESIGN.md §10–§11 for the rationale
//! of each). Every rule supports the `// lint: allow(<rule>, <reason>)`
//! escape hatch; the linter itself keeps the allowlist honest by flagging
//! unused annotations and unknown rule names.
//!
//! Since ISSUE 5 the rules come in two kinds: **line rules** checked here
//! per file, and **semantic rules** ([`crate::callgraph`],
//! [`crate::locks`], [`crate::taint`]) computed over the whole-workspace
//! token model. The old per-line `no-panic` and `determinism-hash` rules
//! are subsumed by `panic-reachability` and `determinism-taint`; their
//! names remain valid in annotations as aliases. Clock, spawn and file
//! write confinement are clippy's `disallowed-methods` /
//! `disallowed-types` in the workspace's `clippy.toml` files.

use crate::source::SourceFile;

/// Semantic rule: no panic (unwrap/expect/`panic!`/slice indexing)
/// transitively reachable from the hot-path entry points.
pub const PANIC_REACHABILITY: &str = "panic-reachability";
/// Semantic rule: the lock-order graph must be acyclic.
pub const LOCK_ORDER: &str = "lock-order";
/// Semantic rule: nondeterministic iteration/clock values must not flow
/// into results or emission buffers.
pub const DETERMINISM_TAINT: &str = "determinism-taint";
/// Rule identifier: `Ordering::Relaxed` requires a justification outside
/// the shared-cache stats counters.
pub const ATOMICS_AUDIT: &str = "atomics-audit";
/// Rule identifier: `.lock().unwrap()` banned in favor of poison recovery.
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
/// Semantic rule (ISSUE 9): every loop reachable from the `discover*`
/// entry points must probe the cancellation budget.
pub const UNPROBED_LOOP: &str = "unprobed-loop";
/// Semantic rule (ISSUE 9): snapshot/JSON writer, parser, and documented
/// schema key sets must agree.
pub const SCHEMA_PARITY: &str = "schema-parity";
/// Semantic rule (ISSUE 9): no allocation inside loops reachable from the
/// scan/check/sort hot-path roots.
pub const HOT_LOOP_ALLOC: &str = "hot-loop-alloc";
/// Meta rule: an annotation that suppressed nothing.
pub const UNUSED_ALLOW: &str = "unused-allow";
/// Meta rule: an annotation naming a rule that does not exist.
pub const UNKNOWN_ALLOW: &str = "unknown-allow";

/// Every real (annotatable) rule name.
pub const ALL_RULES: &[&str] = &[
    PANIC_REACHABILITY,
    LOCK_ORDER,
    DETERMINISM_TAINT,
    ATOMICS_AUDIT,
    LOCK_DISCIPLINE,
    UNPROBED_LOOP,
    SCHEMA_PARITY,
    HOT_LOOP_ALLOC,
];

/// Canonical rule id for an annotation's rule name. The pre-ISSUE-5 names
/// keep working: `no-panic` annotations now justify `panic-reachability`
/// findings, `determinism-hash` ones justify `determinism-taint`.
pub fn canonical_rule(name: &str) -> Option<&'static str> {
    match name {
        "no-panic" => Some(PANIC_REACHABILITY),
        "determinism-hash" => Some(DETERMINISM_TAINT),
        _ => ALL_RULES.iter().find(|r| **r == name).copied(),
    }
}

/// `--explain` text per rule: what it enforces and why the invariant
/// matters for the paper's correctness claims.
pub fn explain(rule: &str) -> Option<&'static str> {
    let canonical = canonical_rule(rule)?;
    Some(match canonical {
        PANIC_REACHABILITY => {
            "panic-reachability (alias: no-panic)\n\
             \n\
             Flags any function reachable over the workspace call graph from\n\
             the hot-path roots (every fn in check.rs, search.rs,\n\
             scheduler.rs, shared_cache.rs) that directly contains a panic\n\
             source: `panic!`-family macros, `.unwrap()`, `.expect(..)`, or\n\
             slice indexing `v[i]` (full-range `v[..]` excluded). A panic\n\
             inside a worker tears down the whole level unless quarantined;\n\
             Thm 3.7/3.9 soundness of partial results depends on workers\n\
             never aborting mid-batch. The finding carries a shortest\n\
             call-chain witness from a root to the panic site. Suppress at\n\
             the site line or at the fn with a comment annotation\n\
             `lint: allow(panic-reachability, <proven invariant>)`."
        }
        LOCK_ORDER => {
            "lock-order\n\
             \n\
             Builds a lock-order graph: an edge A -> B is recorded when a\n\
             Mutex/RwLock guard for A is still live (a `let`-bound guard in\n\
             an enclosing scope) while B is acquired — directly or inside\n\
             any function transitively called at that point. A cycle means\n\
             two executions can acquire the same locks in opposite orders:\n\
             a potential deadlock. This statically re-derives what the loom\n\
             models check dynamically for StealQueues and EpochPrefixCache\n\
             (DESIGN.md §10); guards consumed within a single statement\n\
             (temporaries) hold no edge, which is exactly why the\n\
             owner/thief steal protocol passes clean."
        }
        DETERMINISM_TAINT => {
            "determinism-taint (alias: determinism-hash)\n\
             \n\
             Values produced by iterating a HashMap/HashSet (`.iter()`,\n\
             `.keys()`, `.values()`, `.drain()`, `for _ in map`) or read\n\
             from the clock (`.elapsed()`, `Instant`) are tainted; taint\n\
             propagates through let-bindings, assignments and container\n\
             pushes, and is cleansed by sorting (`.sort*()`), by\n\
             order-insensitive folds (`.sum()`, `.count()`, `.min()`,\n\
             `.max()`, `.len()`), or by collecting into a BTreeMap/BTreeSet.\n\
             Taint flowing into a DiscoveryResult, ApproximateResult or\n\
             Emission constructor (the approximate pipeline of\n\
             approximate.rs emits through the same deterministic-container\n\
             contract), or into json.rs at all, is a finding:\n\
             byte-identical output\n\
             across Sequential/WorkStealing runs is the\n\
             determinism contract of DESIGN.md §9. Local HashMaps whose\n\
             contents are sorted before escape are fine — this rule\n\
             subsumes the old blanket HashMap ban."
        }
        ATOMICS_AUDIT => {
            "atomics-audit\n\
             \n\
             Every `Ordering::Relaxed` needs a justification (or the\n\
             shared-cache stats-counter allowlist): relaxed reads must\n\
             never order result data."
        }
        LOCK_DISCIPLINE => {
            "lock-discipline\n\
             \n\
             `.lock().unwrap()` turns poisoning into a second panic; use\n\
             the poison-recovery idiom\n\
             `unwrap_or_else(PoisonError::into_inner)`."
        }
        UNPROBED_LOOP => {
            "unprobed-loop\n\
             \n\
             Bounded cancellation latency (DESIGN.md §8): every loop in\n\
             search.rs / scheduler.rs / check.rs / approximate.rs whose\n\
             enclosing fn is reachable over the call graph from a\n\
             `discover*` entry point must call `Budget::probe` /\n\
             `probe_now` — directly in its body, or through a callee whose\n\
             interprocedural summary probes. Otherwise a long run inside\n\
             that loop ignores `RunController` cancellation and deadline\n\
             budgets for unboundedly long. Only the outermost unsatisfied\n\
             loop of a nest is reported (fixing it fixes the nest). The\n\
             witness is the entry-point call chain plus the loop span.\n\
             Suppress with `lint: allow(unprobed-loop, <bound>)` on the\n\
             loop header or the fn when iteration is provably bounded\n\
             (column count, fixed block width) — state the bound in the\n\
             reason."
        }
        SCHEMA_PARITY => {
            "schema-parity\n\
             \n\
             The snapshot dump (`ocdd-snapshot/1`, snapshot.rs) and the\n\
             result report (json.rs) are written through the JSON codec\n\
             (ocdd_iosafe::json); snapshot.rs also reads dumps back through\n\
             it for resume. This rule reads each side's key set off the\n\
             codec's call forms — the string literal of `.key(\"k\")` on\n\
             the writer side, of `.field(\"k\", ..)` / `.get(\"k\")` on\n\
             the reader side, test code excluded — and diffs writer keys vs\n\
             reader keys vs the documented schema tables\n\
             (crates/lint/src/schema.rs).\n\
             A key written but never parsed is silently dropped on resume\n\
             (the PR 8 `approx`-object drift class); a key parsed but\n\
             never written makes resume reject every dump; an undocumented\n\
             key means the schema doc lies. A scoped file that writes no\n\
             key at all reports every documented key as never written, so\n\
             a writer that stops using the call form cannot switch the\n\
             rule off silently. Fix by updating whichever of the three\n\
             legs drifted — including the documented table when the format\n\
             genuinely grew."
        }
        HOT_LOOP_ALLOC => {
            "hot-loop-alloc\n\
             \n\
             The scan/check/sort kernels are allocation-free by design\n\
             (DESIGN.md §6): scratch buffers are reused across calls, so\n\
             an allocation creeping into a per-row or per-candidate loop\n\
             is a check-throughput regression.\n\
             This rule flags allocation sites — `Vec::new` /\n\
             `with_capacity` / `vec![..]`, `String` / `format!` /\n\
             `.to_string()` / `.to_owned()`, `Box::new`, `.clone()`,\n\
             `.to_vec()`, `.collect()` — inside loops whose enclosing fn\n\
             is reachable from the hot-path roots (check.rs,\n\
             sorted_partitions.rs, relation scan/sort kernels). Bare\n\
             `.push(..)` is deliberately not flagged: pushing into a\n\
             pre-sized or reused buffer is the documented idiom, and\n\
             growth-by-allocation is caught at the buffer's constructor\n\
             site instead. Suppress documented scratch-buffer reuse or\n\
             setup-phase sites with\n\
             `lint: allow(hot-loop-alloc, <why this is not per-row>)`."
        }
        _ => return None,
    })
}

/// One linter finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of the constants in this module).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Call-chain / flow witness for the semantic rules, outermost first.
    /// Empty for line rules.
    pub chain: Vec<String>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )?;
        for (i, hop) in self.chain.iter().enumerate() {
            write!(
                f,
                "\n    {}{}",
                if i == 0 { "witness: " } else { "-> " },
                hop
            )?;
        }
        Ok(())
    }
}

/// Stats-counter field accesses allowlisted for `Ordering::Relaxed` inside
/// `shared_cache.rs` — observability counters that, by construction, never
/// feed back into discovery results.
const SHARED_CACHE_STATS_FIELDS: &[&str] = &[
    ".hits",
    ".misses",
    ".evictions",
    ".resident",
    ".next_epoch",
    ".publishes",
];

/// Check one preprocessed file against the line rules, returning
/// diagnostics sorted by line plus the `(0-based line, canonical rule)`
/// pairs whose annotations justified a finding. Annotation hygiene is a
/// workspace concern (semantic passes also consume allows) and lives in
/// the final hygiene pass of [`crate::analyze`].
pub fn check_file(f: &SourceFile) -> (Vec<Diagnostic>, Vec<(usize, &'static str)>) {
    let mut out: Vec<Diagnostic> = Vec::new();
    let mut used: Vec<(usize, &'static str)> = Vec::new();

    let finding = |out: &mut Vec<Diagnostic>,
                   used: &mut Vec<(usize, &'static str)>,
                   line: usize,
                   rule: &'static str,
                   message: String| {
        let justified = f
            .allows_for_line
            .get(line)
            .into_iter()
            .flatten()
            .any(|a| canonical_rule(&a.rule) == Some(rule));
        if justified {
            used.push((line, rule));
        } else {
            out.push(Diagnostic {
                path: f.path.clone(),
                line: line + 1,
                rule,
                message,
                chain: Vec::new(),
            });
        }
    };

    for (i, masked) in f.masked_lines.iter().enumerate() {
        if f.test_line[i] {
            continue;
        }

        if masked.contains("::Relaxed") {
            let allowlisted = f.path == "crates/core/src/shared_cache.rs"
                && SHARED_CACHE_STATS_FIELDS
                    .iter()
                    .any(|field| masked.contains(field));
            if !allowlisted {
                finding(
                    &mut out,
                    &mut used,
                    i,
                    ATOMICS_AUDIT,
                    "`Ordering::Relaxed` outside the shared-cache stats allowlist — \
                     justify why relaxed ordering cannot feed back into results"
                        .to_owned(),
                );
            }
        }

        if masked.contains(".lock().unwrap()") || masked.contains(".lock().expect(") {
            finding(
                &mut out,
                &mut used,
                i,
                LOCK_DISCIPLINE,
                "`.lock().unwrap()` propagates poisoning as a second panic — use the \
                 poison-recovery idiom (`unwrap_or_else(PoisonError::into_inner)`)"
                    .to_owned(),
            );
        }
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (out, used)
}
