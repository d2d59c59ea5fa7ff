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
//! names remain valid in annotations as aliases.

use crate::source::SourceFile;

/// Semantic rule: no panic (unwrap/expect/`panic!`/slice indexing)
/// transitively reachable from the hot-path entry points.
pub const PANIC_REACHABILITY: &str = "panic-reachability";
/// Semantic rule: the lock-order graph must be acyclic.
pub const LOCK_ORDER: &str = "lock-order";
/// Semantic rule: nondeterministic iteration/clock values must not flow
/// into results or emission buffers.
pub const DETERMINISM_TAINT: &str = "determinism-taint";
/// Rule identifier: wall-clock reads confined to `runtime.rs`.
pub const CLOCK_CONFINEMENT: &str = "clock-confinement";
/// Rule identifier: thread spawns in core and relation confined to
/// core's `search.rs` and relation's `pool.rs`.
pub const SPAWN_CONFINEMENT: &str = "spawn-confinement";
/// Rule identifier: `Ordering::Relaxed` requires a justification outside
/// the shared-cache stats counters.
pub const ATOMICS_AUDIT: &str = "atomics-audit";
/// Rule identifier: `.lock().unwrap()` banned in favor of poison recovery.
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
/// Rule identifier: file writes confined to the `ocdd-iosafe` helper.
pub const IO_CONFINEMENT: &str = "io-confinement";
/// Semantic rule (ISSUE 9): every loop reachable from the `discover*`
/// entry points must probe the cancellation budget.
pub const UNPROBED_LOOP: &str = "unprobed-loop";
/// Semantic rule (ISSUE 9): snapshot/JSON writer, parser, and documented
/// schema key sets must agree.
pub const SCHEMA_PARITY: &str = "schema-parity";
/// Semantic rule (ISSUE 9): no allocation inside loops reachable from the
/// scan/check/sort hot-path roots.
pub const HOT_LOOP_ALLOC: &str = "hot-loop-alloc";
/// Semantic rule (ISSUE 10): `as` narrowing cast whose inferred source
/// interval may exceed the target type's range.
pub const LOSSY_CAST: &str = "lossy-cast";
/// Semantic rule (ISSUE 10): add/mul/shift on narrow unsigned types in
/// the scan/sort/sample hot paths whose operand intervals admit
/// wraparound.
pub const OVERFLOW_PRONE_ARITH: &str = "overflow-prone-arith";
/// Semantic rule (ISSUE 10): derived index into a fixed scratch buffer
/// in the block kernels not provably within bounds.
pub const UNTRACKED_INDEX_ARITH: &str = "untracked-index-arith";
/// Meta rule: an annotation that suppressed nothing.
pub const UNUSED_ALLOW: &str = "unused-allow";
/// Meta rule: an annotation naming a rule that does not exist.
pub const UNKNOWN_ALLOW: &str = "unknown-allow";

/// Every real (annotatable) rule name.
pub const ALL_RULES: &[&str] = &[
    PANIC_REACHABILITY,
    LOCK_ORDER,
    DETERMINISM_TAINT,
    CLOCK_CONFINEMENT,
    SPAWN_CONFINEMENT,
    ATOMICS_AUDIT,
    LOCK_DISCIPLINE,
    IO_CONFINEMENT,
    UNPROBED_LOOP,
    SCHEMA_PARITY,
    HOT_LOOP_ALLOC,
    LOSSY_CAST,
    OVERFLOW_PRONE_ARITH,
    UNTRACKED_INDEX_ARITH,
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
        CLOCK_CONFINEMENT => {
            "clock-confinement\n\
             \n\
             `Instant::now`/`SystemTime` reads are confined to runtime.rs\n\
             (`runtime::now()`), so determinism reviews have one audit\n\
             point for wall-clock entering the system."
        }
        SPAWN_CONFINEMENT => {
            "spawn-confinement\n\
             \n\
             Thread spawns in crates/core and crates/relation are confined\n\
             to core's search.rs (the level driver's workers) and\n\
             relation's pool.rs (`par_map`, the one pool of ingest and the\n\
             column reduction): worker lifecycles must stay under the\n\
             driver's panic quarantine or the pool's recompute-on-panic."
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
        IO_CONFINEMENT => {
            "io-confinement\n\
             \n\
             Direct file writes (`fs::write`, `File::create`,\n\
             `OpenOptions`) are confined to crates/iosafe: every artifact\n\
             the workspace persists — checkpoint dumps, BENCH_approx.json,\n\
             lint findings, bench TSVs — must go through\n\
             `ocdd_iosafe::atomic_write` (tmp + fsync + rename), so a\n\
             crash or SIGKILL can truncate a private tmp file but never a\n\
             published one. The checkpoint/resume contract (DESIGN.md §13)\n\
             depends on dumps being whole-or-absent."
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
        LOSSY_CAST => {
            "lossy-cast\n\
             \n\
             Interval abstract interpretation (DESIGN.md §16) infers a\n\
             value range for the operand of every `as` cast in the core\n\
             and relation crates. A cast whose inferred source interval\n\
             is not contained in the target type's guaranteed range may\n\
             silently truncate — exactly the failure mode that would\n\
             corrupt the width-adaptive rank codes (u8/u16/u32\n\
             NarrowCodes) and with them every downstream OD verdict.\n\
             Guards are understood: `if distinct <= 1 << 8 { .. }`\n\
             narrows `distinct` inside the branch, `assert!(x <= u8::MAX)`\n\
             narrows for the rest of the fn, and calls such as\n\
             `widen_code_width` never havoc a tracked local. `usize` is\n\
             modeled asymmetrically (source 64-bit, target guaranteed\n\
             only 32-bit), so `u64 as usize` and `usize as u32` both\n\
             flag while `u32 as usize` stays clean. The witness carries\n\
             the inferred range and the definition site of the operand's\n\
             root variable. Suppress with\n\
             `lint: allow(lossy-cast, <concrete range justification>)`."
        }
        OVERFLOW_PRONE_ARITH => {
            "overflow-prone-arith\n\
             \n\
             Within fns reachable from the scan/sort/sample hot-path\n\
             roots, flags `+`, `*`, `<<` (and their compound forms) on\n\
             narrow unsigned types (u8/u16/u32) whose operand intervals\n\
             admit a mathematical result outside the type's range: in\n\
             release builds that wraps silently and corrupts rank codes\n\
             or reservoir allocations. `checked_*` / `saturating_*` /\n\
             `wrapping_*` calls and explicit promotion (`a as u64 * b as\n\
             u64`) are recognized as cleanses — method transfer functions\n\
             stay inside the type's range and promoted operands type the\n\
             expression at u64. Suppress with\n\
             `lint: allow(overflow-prone-arith, <range bound>)`."
        }
        UNTRACKED_INDEX_ARITH => {
            "untracked-index-arith\n\
             \n\
             The 64-pair block kernels index fixed scratch buffers\n\
             (`[T; BLOCK_PAIRS + 1]`) with derived expressions. For every\n\
             index into an array whose length the analysis knows, the\n\
             inferred interval of the index expression must be provably\n\
             within `[0, len-1]`; otherwise a refactor of the index\n\
             arithmetic can turn into an out-of-bounds panic (or a\n\
             masked wrap) in the hottest loop of the system. Loop ranges\n\
             (`for i in 0..BLOCK_PAIRS`), `while` conditions and\n\
             `assert!` bounds refine the index interval. Suppress with\n\
             `lint: allow(untracked-index-arith, <bound argument>)`."
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

/// Scope: the panic-free core crates.
fn in_core_or_relation(path: &str) -> bool {
    path.starts_with("crates/core/src/") || path.starts_with("crates/relation/src/")
}

/// The files of core and relation that may spawn threads: the level
/// driver's workers and the worker pool.
const SPAWN_SITES: [&str; 2] = ["crates/core/src/search.rs", "crates/relation/src/pool.rs"];

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

        if in_core_or_relation(&f.path)
            && f.path != "crates/core/src/runtime.rs"
            && (masked.contains("Instant::now") || masked.contains("SystemTime"))
        {
            finding(
                &mut out,
                &mut used,
                i,
                CLOCK_CONFINEMENT,
                "wall-clock read outside runtime.rs — route it through \
                 `crate::runtime::now()` so determinism reviews have one audit point"
                    .to_owned(),
            );
        }

        if in_core_or_relation(&f.path)
            && !SPAWN_SITES.contains(&f.path.as_str())
            && masked.contains("spawn(")
        {
            finding(
                &mut out,
                &mut used,
                i,
                SPAWN_CONFINEMENT,
                "thread spawn outside core search.rs and relation pool.rs — worker \
                 lifecycles must stay under the driver's quarantine or the pool's \
                 recompute-on-panic"
                    .to_owned(),
            );
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

        if !f.path.starts_with("crates/iosafe/src/")
            && (masked.contains("fs::write(")
                || masked.contains("File::create(")
                || masked.contains("OpenOptions"))
        {
            finding(
                &mut out,
                &mut used,
                i,
                IO_CONFINEMENT,
                "direct file write outside crates/iosafe — route it through \
                 `ocdd_iosafe::atomic_write` so a crash never publishes a torn file"
                    .to_owned(),
            );
        }
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (out, used)
}
