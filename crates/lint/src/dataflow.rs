//! Loop-aware interprocedural dataflow passes (ISSUE 9): forward
//! reachability over the call graph combined with the per-fn loop regions
//! of [`crate::loops`], powering two rules.
//!
//! **`unprobed-loop`** — cancellation responsiveness. The runtime's
//! bounded-latency contract (DESIGN.md §8) holds only if every loop that
//! can run on a discovery worker re-checks the budget: directly via
//! `Budget::probe`/`probe_now`, or by calling a function whose
//! interprocedural *probe summary* is positive (it probes, or something it
//! calls does). The pass BFS-reaches fns from the `discover*` entry
//! points, then audits every loop of every reached fn in the driver files
//! (search/scheduler/check/approximate). Only the outermost unsatisfied
//! loop of a nest is reported — fixing or allowing it covers the nest.
//!
//! **`hot-loop-alloc`** — allocation-free kernels. Loops in fns reachable
//! from the scan/check/sort roots must not allocate per iteration:
//! constructor calls (`Vec::new`, `with_capacity`, `from`), allocating
//! macros (`vec!`, `format!`), and allocating methods (`.clone()`,
//! `.to_string()`, `.to_owned()`, `.to_vec()`, `.collect()`) inside a
//! loop body are findings. Bare `.push(..)` is deliberately exempt: the
//! documented idiom is pushing into a reused or pre-sized buffer, and
//! growth-by-fresh-allocation is caught at the constructor site.
//!
//! Both summaries are conservative in opposite directions, matching the
//! rule's failure mode: probe summaries over-approximate (any callee that
//! *might* probe satisfies the loop — a false "satisfied" only delays
//! cancellation, never corrupts results), while allocation detection is
//! purely syntactic at the site (no summary: an allocation inside a
//! callee is that callee's finding when it is itself reachable).

use crate::callgraph::{allowed_at, is_keyword, skip_angles, AllowUses, Workspace};
use crate::loops::LoopRegion;
use crate::rules::{Diagnostic, HOT_LOOP_ALLOC, UNPROBED_LOOP};
use crate::tokens::{Token, TokenKind};
use std::collections::VecDeque;

/// Files whose loops the cancellation pass audits: the level-synchronous
/// search drivers, the work-stealing scheduler, the check kernel
/// dispatcher, and the approximate pipeline.
pub const CANCELLATION_SCOPE_FILES: &[&str] = &[
    "crates/core/src/search.rs",
    "crates/core/src/scheduler.rs",
    "crates/core/src/check.rs",
    "crates/core/src/approximate.rs",
];

/// Files whose non-test fns root the hot-loop allocation audit: the
/// single-check kernel, the sorted-partition walk, the relation
/// scan/sort kernels, and CSV ingest with its rank encoder.
pub const HOT_ALLOC_ROOT_FILES: &[&str] = &[
    "crates/core/src/check.rs",
    "crates/core/src/sorted_partitions.rs",
    "crates/relation/src/scan.rs",
    "crates/relation/src/sort.rs",
    "crates/relation/src/csv.rs",
    "crates/relation/src/column.rs",
];

/// BFS over call edges from `roots`, skipping test fns. Returns
/// reachability plus BFS parents for shortest-chain witnesses.
pub(crate) fn reach_with_parents(
    ws: &Workspace,
    roots: impl IntoIterator<Item = usize>,
) -> (Vec<bool>, Vec<Option<usize>>) {
    let n = ws.fns.len();
    let mut reached = vec![false; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut queue = VecDeque::new();
    for id in roots {
        if !reached[id] && !ws.fns[id].is_test {
            reached[id] = true;
            queue.push_back(id);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &ws.calls[u] {
            if !reached[v] && !ws.fns[v].is_test {
                reached[v] = true;
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    (reached, parent)
}

/// Witness chain `root (file:line) -> … -> fn (file:line)` from the BFS
/// parents, outermost first.
pub(crate) fn chain_to(ws: &Workspace, parent: &[Option<usize>], id: usize) -> Vec<String> {
    let mut ids = vec![id];
    let mut cur = id;
    while let Some(p) = parent[cur] {
        ids.push(p);
        cur = p;
    }
    ids.reverse();
    ids.iter()
        .map(|&g| {
            let gf = &ws.fns[g];
            format!(
                "{} ({}:{})",
                gf.display(),
                ws.files[gf.file].src.path,
                gf.def_line + 1
            )
        })
        .collect()
}

/// Whether token `idx` is a `.probe()` / `::probe_now()`-style budget
/// probe call.
fn is_probe_call(toks: &[Token], idx: usize) -> bool {
    let t = &toks[idx];
    if t.kind != TokenKind::Ident || (t.text != "probe" && t.text != "probe_now") {
        return false;
    }
    let prefixed = idx
        .checked_sub(1)
        .map(|p| toks[p].is_punct(".") || toks[p].is_punct("::"))
        .unwrap_or(false);
    prefixed && toks.get(idx + 1).is_some_and(|n| n.is_punct("("))
}

/// Per-fn probe summaries: `true` when the fn probes the budget directly
/// or through any transitive callee. Seeds are the direct `.probe()` /
/// `.probe_now()` call pattern plus the `Budget` probe methods themselves;
/// the fixpoint propagates backwards over call edges.
pub fn probe_summaries(ws: &Workspace) -> Vec<bool> {
    let n = ws.fns.len();
    let mut probes = vec![false; n];
    for (id, f) in ws.fns.iter().enumerate() {
        if (f.name == "probe" || f.name == "probe_now") && f.owner.as_deref() == Some("Budget") {
            probes[id] = true;
            continue;
        }
        let Some((b0, b1)) = f.body else { continue };
        let toks = &ws.files[f.file].tokens;
        let hi = b1.min(toks.len().saturating_sub(1));
        probes[id] = (b0..=hi).any(|i| is_probe_call(toks, i));
    }
    // Reverse propagation to a fixpoint (the graph is small).
    let mut changed = true;
    while changed {
        changed = false;
        for id in 0..n {
            if probes[id] {
                continue;
            }
            if ws.calls[id].iter().any(|&c| probes[c]) {
                probes[id] = true;
                changed = true;
            }
        }
    }
    probes
}

/// The cancellation-responsiveness pass. A loop is *satisfied* when its
/// body probes directly or contains a call site whose callee's summary
/// probes; every other loop of a reached fn in the driver files needs a
/// `lint: allow(unprobed-loop, <bound>)` on its header or fn.
pub fn unprobed_loops(ws: &Workspace, uses: &mut AllowUses) -> Vec<Diagnostic> {
    let probes = probe_summaries(ws);
    let roots: Vec<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.name.starts_with("discover") && !f.is_test)
        .map(|(id, _)| id)
        .collect();
    let (reached, parent) = reach_with_parents(ws, roots);

    let mut out = Vec::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if !reached[id] || f.is_test {
            continue;
        }
        let model = &ws.files[f.file];
        if !CANCELLATION_SCOPE_FILES.contains(&model.src.path.as_str()) {
            continue;
        }
        let toks = &model.tokens;
        // Outermost-unsatisfied reporting: once a loop is reported (or
        // allowed), its whole nest is covered.
        let mut skip_until = 0usize;
        for l in &ws.loops[id] {
            if l.head_tok < skip_until || model.is_test_line(l.head_line) {
                continue;
            }
            let hi = l.body.1.min(toks.len().saturating_sub(1));
            let direct = (l.body.0..=hi).any(|i| is_probe_call(toks, i));
            let via_callee = ws.call_sites[id]
                .iter()
                .any(|&(tok, callee)| l.contains(tok) && probes[callee]);
            if direct || via_callee {
                continue;
            }
            skip_until = l.body.1;
            if allowed_at(ws, f.file, l.head_line, Some(id), UNPROBED_LOOP, uses) {
                continue;
            }
            let mut chain = chain_to(ws, &parent, id);
            chain.push(format!(
                "`{}` loop spanning {}:{}-{}",
                l.kind.keyword(),
                model.src.path,
                l.head_line + 1,
                l.end_line + 1
            ));
            out.push(Diagnostic {
                path: model.src.path.clone(),
                line: l.head_line + 1,
                rule: UNPROBED_LOOP,
                message: format!(
                    "`{}` loop in `{}` is reachable from a discover entry point but \
                     never probes the cancellation budget — call `budget.probe()` in \
                     the body (or a callee that does), or annotate the iteration \
                     bound with `lint: allow(unprobed-loop, <bound>)`",
                    l.kind.keyword(),
                    f.display()
                ),
                chain,
            });
        }
    }
    out
}

/// An allocation site detected inside a loop body.
struct AllocSite {
    tok: usize,
    line: usize,
    what: String,
}

/// Detect an allocation at token `idx`, returning a display label.
fn alloc_at(toks: &[Token], idx: usize) -> Option<String> {
    let t = &toks[idx];
    if t.kind != TokenKind::Ident {
        return None;
    }
    let next = toks.get(idx + 1);
    match t.text.as_str() {
        // Allocating macros.
        "vec" if next.is_some_and(|n| n.is_punct("!")) => return Some("`vec![..]`".to_owned()),
        "format" if next.is_some_and(|n| n.is_punct("!")) => return Some("`format!`".to_owned()),
        // Constructor calls, turbofish included: `Vec::<u8>::new()`.
        "Vec" | "String" | "Box" | "VecDeque" if next.is_some_and(|n| n.is_punct("::")) => {
            let mut j = idx + 2;
            if toks.get(j).is_some_and(|n| n.is_punct("<")) {
                j = skip_angles(toks, j);
                if toks.get(j).is_some_and(|n| n.is_punct("::")) {
                    j += 1;
                }
            }
            let name = toks.get(j)?;
            if name.kind == TokenKind::Ident
                && matches!(name.text.as_str(), "new" | "with_capacity" | "from")
            {
                return Some(format!("`{}::{}`", t.text, name.text));
            }
            return None;
        }
        _ => {}
    }
    // Allocating method calls: `.clone()`, `.collect::<..>()`, …
    let after_dot = idx
        .checked_sub(1)
        .is_some_and(|p| toks[p].is_punct(".") && !is_keyword(&t.text));
    if after_dot
        && matches!(
            t.text.as_str(),
            "clone" | "to_string" | "to_owned" | "to_vec" | "collect"
        )
        && next.is_some_and(|n| n.is_punct("(") || n.is_punct("::"))
    {
        return Some(format!("`.{}()`", t.text));
    }
    None
}

/// The hot-loop allocation audit: BFS from the scan/check/sort root
/// files, then flag allocation sites inside any loop of a reached fn.
pub fn hot_loop_alloc(ws: &Workspace, uses: &mut AllowUses) -> Vec<Diagnostic> {
    let roots: Vec<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            !f.is_test && HOT_ALLOC_ROOT_FILES.contains(&ws.files[f.file].src.path.as_str())
        })
        .map(|(id, _)| id)
        .collect();
    let (reached, parent) = reach_with_parents(ws, roots);

    let mut out = Vec::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if !reached[id] || f.is_test {
            continue;
        }
        let model = &ws.files[f.file];
        let toks = &model.tokens;
        let loops: &[LoopRegion] = &ws.loops[id];
        if loops.is_empty() {
            continue;
        }
        let Some((b0, b1)) = f.body else { continue };
        let hi = b1.min(toks.len().saturating_sub(1));
        // Collect each site once, then test loop membership — nested
        // loops share sites, so membership in *any* region suffices.
        let mut sites: Vec<AllocSite> = Vec::new();
        for i in b0..=hi {
            if let Some(what) = alloc_at(toks, i) {
                sites.push(AllocSite {
                    tok: i,
                    line: toks[i].line,
                    what,
                });
            }
        }
        let mut last_line = usize::MAX;
        for s in sites {
            if model.is_test_line(s.line) || s.line == last_line {
                continue;
            }
            let Some(l) = loops.iter().find(|l| l.contains(s.tok)) else {
                continue;
            };
            last_line = s.line;
            if allowed_at(ws, f.file, s.line, Some(id), HOT_LOOP_ALLOC, uses) {
                continue;
            }
            let mut chain = chain_to(ws, &parent, id);
            chain.push(format!(
                "{} inside a `{}` loop at {}:{}",
                s.what,
                l.kind.keyword(),
                model.src.path,
                s.line + 1
            ));
            out.push(Diagnostic {
                path: model.src.path.clone(),
                line: s.line + 1,
                rule: HOT_LOOP_ALLOC,
                message: format!(
                    "{} allocates inside a loop of `{}`, reachable from the \
                     scan/check/sort hot path — hoist the allocation, reuse a \
                     scratch buffer, or annotate why this site is not \
                     per-row/per-candidate",
                    s.what,
                    f.display()
                ),
                chain,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(p, c)| (p.to_string(), c.to_string()))
                .collect(),
        )
    }

    #[test]
    fn probe_summary_propagates_through_callees() {
        let w = ws(&[(
            "crates/core/src/search.rs",
            "pub fn leaf(b: &Budget) { b.probe(); }\n\
             pub fn mid(b: &Budget) { leaf(b); }\n\
             pub fn dry() {}\n",
        )]);
        let probes = probe_summaries(&w);
        let by_name = |n: &str| w.fns.iter().position(|f| f.name == n).unwrap();
        assert!(probes[by_name("leaf")]);
        assert!(probes[by_name("mid")]);
        assert!(!probes[by_name("dry")]);
    }

    #[test]
    fn unprobed_loop_reachable_from_discover_is_flagged() {
        let w = ws(&[(
            "crates/core/src/search.rs",
            "pub fn discover(v: &[u32]) { drive(v); }\n\
             pub fn drive(v: &[u32]) {\n\
                 for x in v {\n        let _ = x;\n    }\n\
             }\n",
        )]);
        let mut uses = AllowUses::default();
        let d = unprobed_loops(&w, &mut uses);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].rule, UNPROBED_LOOP);
        assert_eq!(d[0].line, 3);
        assert_eq!(
            d[0].chain,
            vec![
                "core::search::discover (crates/core/src/search.rs:1)",
                "core::search::drive (crates/core/src/search.rs:2)",
                "`for` loop spanning crates/core/src/search.rs:3-5",
            ]
        );
    }

    #[test]
    fn probing_loop_is_satisfied_directly_and_via_callee() {
        let w = ws(&[(
            "crates/core/src/search.rs",
            "pub fn discover(v: &[u32], b: &Budget) {\n\
                 for x in v {\n        b.probe();\n        let _ = x;\n    }\n\
                 for x in v {\n        helper(b);\n        let _ = x;\n    }\n\
             }\n\
             pub fn helper(b: &Budget) { b.probe_now(); }\n",
        )]);
        let mut uses = AllowUses::default();
        let d = unprobed_loops(&w, &mut uses);
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn only_the_outermost_unsatisfied_loop_is_reported() {
        let w = ws(&[(
            "crates/core/src/check.rs",
            "pub fn discover(v: &[u32]) {\n\
                 for x in v {\n\
                     for y in v {\n            let _ = (x, y);\n        }\n\
                 }\n\
             }\n",
        )]);
        let mut uses = AllowUses::default();
        let d = unprobed_loops(&w, &mut uses);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn allow_on_the_loop_header_covers_the_nest() {
        let w = ws(&[(
            "crates/core/src/check.rs",
            "pub fn discover(v: &[u32]) {\n\
                 // lint: allow(unprobed-loop, bounded by column count)\n\
                 for x in v {\n\
                     for y in v {\n            let _ = (x, y);\n        }\n\
                 }\n\
             }\n",
        )]);
        let mut uses = AllowUses::default();
        let d = unprobed_loops(&w, &mut uses);
        assert!(d.is_empty(), "{d:#?}");
        assert!(uses.is_used(0, 2, UNPROBED_LOOP));
    }

    #[test]
    fn loops_in_unreached_or_out_of_scope_fns_are_ignored() {
        let w = ws(&[
            (
                "crates/core/src/search.rs",
                "pub fn not_an_entry(v: &[u32]) { for x in v { let _ = x; } }\n",
            ),
            (
                "crates/core/src/expand.rs",
                "pub fn discover_helper(v: &[u32]) { for x in v { let _ = x; } }\n",
            ),
        ]);
        let mut uses = AllowUses::default();
        let d = unprobed_loops(&w, &mut uses);
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn hot_loop_allocation_is_flagged_with_a_chain() {
        let w = ws(&[
            (
                "crates/core/src/check.rs",
                "pub fn kernel(v: &[u32]) { crate::expand::walk(v); }\n",
            ),
            (
                "crates/core/src/expand.rs",
                "pub fn walk(v: &[u32]) {\n\
                     for x in v {\n        let s = x.to_string();\n        let _ = s;\n    }\n\
                 }\n",
            ),
        ]);
        let mut uses = AllowUses::default();
        let d = hot_loop_alloc(&w, &mut uses);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].rule, HOT_LOOP_ALLOC);
        assert_eq!(d[0].path, "crates/core/src/expand.rs");
        assert_eq!(d[0].line, 3);
        assert!(d[0].chain[0].contains("core::check::kernel"));
    }

    #[test]
    fn alloc_outside_a_loop_and_push_inside_are_fine() {
        let w = ws(&[(
            "crates/core/src/sorted_partitions.rs",
            "pub fn walk(v: &[u32]) -> Vec<u32> {\n\
                 let mut out = Vec::with_capacity(v.len());\n\
                 for x in v {\n        out.push(*x);\n    }\n\
                 out\n\
             }\n",
        )]);
        let mut uses = AllowUses::default();
        let d = hot_loop_alloc(&w, &mut uses);
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn allowed_scratch_site_is_suppressed_and_consumed() {
        let w = ws(&[(
            "crates/relation/src/scan.rs",
            "pub fn scan(v: &[u32]) {\n\
                 for x in v {\n\
                     let tmp = v.to_vec(); // lint: allow(hot-loop-alloc, setup phase, once per column)\n\
                     let _ = (tmp, x);\n    }\n\
             }\n",
            )]);
        let mut uses = AllowUses::default();
        let d = hot_loop_alloc(&w, &mut uses);
        assert!(d.is_empty(), "{d:#?}");
        assert!(uses.is_used(0, 2, HOT_LOOP_ALLOC));
    }

    #[test]
    fn collect_turbofish_is_detected() {
        let w = ws(&[(
            "crates/relation/src/sort.rs",
            "pub fn sort(v: &[u32]) {\n\
                 loop {\n\
                     let c = v.iter().collect::<Vec<_>>();\n\
                     let _ = c;\n        break;\n    }\n\
             }\n",
        )]);
        let mut uses = AllowUses::default();
        let d = hot_loop_alloc(&w, &mut uses);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert!(d[0].message.contains("`.collect()`"));
    }
}
