//! The interval-powered rules (ISSUE 10): `lossy-cast`,
//! `overflow-prone-arith`, `untracked-index-arith`.
//!
//! All three share one walk per fn ([`crate::absint::walk_fn`]): the
//! walker maintains the abstract environment (guards, loop bindings,
//! assignments) and this module checks the sites it visits under that
//! environment. See `--explain <rule>` or DESIGN.md §16 for the exact
//! semantics of each rule.

use crate::absint::{build_ctx, operand_start, walk_fn, Ctx, Env, Eval};
use crate::callgraph::{allowed_at, in_analysis_scope, is_keyword, AllowUses, Workspace};
use crate::dataflow::reach_with_parents;
use crate::intervals::{IntType, Interval};
use crate::rules::{Diagnostic, LOSSY_CAST, OVERFLOW_PRONE_ARITH, UNTRACKED_INDEX_ARITH};
use crate::tokens::{matching_close, Token, TokenKind};
use std::collections::HashSet;

/// Roots of the overflow-prone-arith hot-path reachability: the scan
/// kernels, the sort machinery, and the sampling allocator.
pub const OVERFLOW_ROOT_FILES: &[&str] = &[
    "crates/relation/src/scan.rs",
    "crates/relation/src/sort.rs",
    "crates/relation/src/sample.rs",
];

/// Files whose fixed-array indexing the untracked-index-arith rule
/// audits: the 64-pair block kernels.
pub const INDEX_KERNEL_FILES: &[&str] = &["crates/relation/src/scan.rs"];

/// Operators audited by overflow-prone-arith (growth-capable ops; `-`
/// underflows are the panic rules' domain, `/`/`%`/`>>` only shrink).
const GROWTH_OPS: &[&str] = &["+", "*", "<<"];
const GROWTH_COMPOUND: &[(&str, &str)] = &[("+=", "+"), ("*=", "*"), ("<<=", "<<")];

/// Run the three interval rules over the workspace. Returns diagnostics
/// sorted in (path, line, rule) order.
pub fn interval_rules(ws: &Workspace, uses: &mut AllowUses) -> Vec<Diagnostic> {
    let ctx = &build_ctx(ws);
    // Overflow scope: fns reachable from the scan/sort/sample roots.
    let roots = ws.fns.iter().enumerate().filter_map(|(id, f)| {
        (!f.is_test && OVERFLOW_ROOT_FILES.contains(&ws.files[f.file].src.path.as_str()))
            .then_some(id)
    });
    let (overflow_scope, _) = reach_with_parents(ws, roots);

    let mut out = Vec::new();
    for (fn_id, f) in ws.fns.iter().enumerate() {
        if f.is_test || f.body.is_none() {
            continue;
        }
        let model = &ws.files[f.file];
        let path = model.src.path.clone();
        if !in_analysis_scope(&path) {
            continue;
        }
        let toks = &model.tokens;
        let body_open = f.body.unwrap().0;
        let in_overflow_scope = overflow_scope[fn_id];
        let in_index_scope = INDEX_KERNEL_FILES.contains(&path.as_str());
        // (line, dedup-key) pairs already reported in this fn.
        let mut seen: HashSet<(usize, String)> = HashSet::new();
        let mut sites: Vec<Diagnostic> = Vec::new();

        walk_fn(ws, ctx, f, |env, i| {
            let t = &toks[i];
            if t.is_ident("as") {
                check_cast(toks, ctx, env, i, body_open, &path, &mut seen, &mut sites);
            }
            if in_overflow_scope && t.kind == TokenKind::Punct {
                check_arith(toks, ctx, env, i, body_open, &path, &mut seen, &mut sites);
            }
            if in_index_scope && t.is_punct("[") {
                check_index(toks, ctx, env, i, body_open, &path, &mut seen, &mut sites);
            }
        });

        for d in sites {
            if model.is_test_line(d.line - 1) {
                continue;
            }
            if !allowed_at(ws, f.file, d.line - 1, Some(fn_id), d.rule, uses) {
                out.push(d);
            }
        }
    }
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    out.dedup();
    out
}

/// The def→site witness chain for a value rooted at token `root`.
fn witness(
    toks: &[Token],
    env: &Env,
    root: Option<usize>,
    range: &Interval,
    site_desc: String,
) -> Vec<String> {
    let mut chain = Vec::new();
    if let Some(root) = root {
        let name = &toks[root].text;
        match env.get(name).and_then(|info| info.def_line) {
            Some(def) => chain.push(format!(
                "`{}` defined at line {} with range {}",
                name,
                def + 1,
                range.display()
            )),
            None => chain.push(format!("`{}` in range {}", name, range.display())),
        }
    }
    chain.push(site_desc);
    chain
}

/// `lossy-cast`: an `as` at `i` whose operand interval escapes the
/// target's guaranteed range.
#[allow(clippy::too_many_arguments)]
fn check_cast(
    toks: &[Token],
    ctx: &Ctx,
    env: &Env,
    i: usize,
    body_open: usize,
    path: &str,
    seen: &mut HashSet<(usize, String)>,
    sites: &mut Vec<Diagnostic>,
) {
    let Some(target) = toks.get(i + 1).and_then(|t| IntType::parse(&t.text)) else {
        return;
    };
    // Chained casts check only the innermost operand per `as`: each link
    // gets its own check, so `x as u64 as u8` reports at the `as u8`.
    let start = operand_start(toks, i, body_open);
    if start >= i {
        return;
    }
    let eval = Eval {
        toks,
        ctx,
        env,
        hi: i,
    };
    let val = eval.eval(start);
    if val.range.subset_of(&target.guaranteed_range()) {
        return;
    }
    let operand: String = render(toks, start, i);
    let key = (
        toks[i].line + 1,
        format!("cast:{operand}:{}", target.name()),
    );
    if !seen.insert(key) {
        return;
    }
    let message = format!(
        "`{} as {}`: inferred range {} does not fit {} (guaranteed {})",
        operand,
        target.name(),
        val.range.display(),
        target.name(),
        target.guaranteed_range().display(),
    );
    let chain = witness(
        toks,
        env,
        val.root,
        &val.range,
        format!(
            "`as {}` wraps values above {}",
            target.name(),
            target.guaranteed_range().hi
        ),
    );
    sites.push(Diagnostic {
        path: path.to_owned(),
        line: toks[i].line + 1,
        rule: LOSSY_CAST,
        message,
        chain,
    });
}

/// `overflow-prone-arith`: a growth operator at `i` on a narrow unsigned
/// type whose mathematical result escapes the type's range.
#[allow(clippy::too_many_arguments)]
fn check_arith(
    toks: &[Token],
    ctx: &Ctx,
    env: &Env,
    i: usize,
    body_open: usize,
    path: &str,
    seen: &mut HashSet<(usize, String)>,
    sites: &mut Vec<Diagnostic>,
) {
    let t = &toks[i];
    let (op, compound) = if GROWTH_OPS.contains(&t.text.as_str()) {
        (t.text.as_str(), false)
    } else if let Some((_, base)) = GROWTH_COMPOUND.iter().find(|(c, _)| *c == t.text) {
        (*base, true)
    } else {
        return;
    };
    // `+` can be a unary/reference context (`&x`, `, +` never) — require
    // an expression-ending token on the left.
    let Some(prev) = i.checked_sub(1).map(|p| &toks[p]) else {
        return;
    };
    let left_ok = matches!(prev.kind, TokenKind::Ident | TokenKind::Number)
        && !is_keyword(&prev.text)
        || prev.is_punct(")")
        || prev.is_punct("]");
    if !left_ok {
        return;
    }
    let start = operand_start(toks, i, body_open);
    if start >= i {
        return;
    }
    let left = Eval {
        toks,
        ctx,
        env,
        hi: i,
    }
    .eval(start);
    let right = Eval {
        toks,
        ctx,
        env,
        hi: toks.len(),
    }
    .expr(i + 1, 81)
    .0;
    // The expression's type: compound assignments take the target's
    // declared type; plain ops take either side's known type. Only
    // narrow unsigned types are audited (usize/u64 index and counter
    // arithmetic is the overflow-checked build's domain).
    let ty = if compound {
        env.get(&toks[start].text).and_then(|info| info.decl)
    } else {
        match op {
            "<<" => left.ty,
            _ => left.ty.or(right.ty),
        }
    };
    let Some(ty) = ty else { return };
    if !ty.is_narrow_unsigned() {
        return;
    }
    let math = match op {
        "+" => left.range.add(&right.range),
        "*" => left.range.mul(&right.range),
        _ => left.range.shl(&right.range),
    };
    if math.subset_of(&ty.value_range()) {
        return;
    }
    let rendered_op = if compound { t.text.as_str() } else { op };
    let key = (toks[i].line + 1, format!("arith:{rendered_op}:{start}"));
    if !seen.insert(key) {
        return;
    }
    let message = format!(
        "`{}` on {}: operands {} {} {} admit a result outside {} (max {})",
        rendered_op,
        ty.name(),
        left.range.display(),
        op,
        right.range.display(),
        ty.name(),
        ty.value_range().hi,
    );
    let chain = witness(
        toks,
        env,
        left.root,
        &left.range,
        format!(
            "mathematical result {} exceeds {}::MAX",
            math.display(),
            ty.name()
        ),
    );
    sites.push(Diagnostic {
        path: path.to_owned(),
        line: toks[i].line + 1,
        rule: OVERFLOW_PRONE_ARITH,
        message,
        chain,
    });
}

/// `untracked-index-arith`: indexing a known fixed-size array at `i`
/// (the `[` token) with an interval not provably within bounds.
#[allow(clippy::too_many_arguments)]
fn check_index(
    toks: &[Token],
    ctx: &Ctx,
    env: &Env,
    i: usize,
    body_open: usize,
    path: &str,
    seen: &mut HashSet<(usize, String)>,
    sites: &mut Vec<Diagnostic>,
) {
    // Index position: previous token must end a value expression.
    let Some(prev) = i.checked_sub(1).map(|p| &toks[p]) else {
        return;
    };
    let recv_ok = (prev.kind == TokenKind::Ident && !is_keyword(&prev.text))
        || prev.is_punct(")")
        || prev.is_punct("]");
    if !recv_ok {
        return;
    }
    let start = operand_start(toks, i, body_open);
    if start >= i {
        return;
    }
    let recv = Eval {
        toks,
        ctx,
        env,
        hi: i,
    }
    .eval(start);
    let Some(len) = recv.arr_len.filter(|&n| n > 0) else {
        return; // unknown-length receivers are panic-reachability's domain
    };
    let close = matching_close(toks, i);
    // Range sub-slicing (`buf[..n]`, `buf[a..b]`) is not an index.
    let mut depth = 0i64;
    for t in &toks[i + 1..close.min(toks.len())] {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ".." | "..=" if depth == 0 && t.kind == TokenKind::Punct => return,
            _ => {}
        }
    }
    let idx = Eval {
        toks,
        ctx,
        env,
        hi: close,
    }
    .eval(i + 1);
    let bounds = Interval::new(0, len - 1);
    if idx.range.subset_of(&bounds) {
        return;
    }
    let recv_text = render(toks, start, i);
    let idx_text = render(toks, i + 1, close);
    let key = (toks[i].line + 1, format!("index:{recv_text}:{idx_text}"));
    if !seen.insert(key) {
        return;
    }
    let message = format!(
        "index `{}` into `{}` (len {}) has inferred range {}, not provably within [0, {}]",
        idx_text,
        recv_text,
        len,
        idx.range.display(),
        len - 1,
    );
    let chain = witness(
        toks,
        env,
        idx.root,
        &idx.range,
        format!("scratch buffer `{}` holds {} slots", recv_text, len),
    );
    sites.push(Diagnostic {
        path: path.to_owned(),
        line: toks[i].line + 1,
        rule: UNTRACKED_INDEX_ARITH,
        message,
        chain,
    });
}

/// Compact source rendering of the token range `[lo, hi)`.
fn render(toks: &[Token], lo: usize, hi: usize) -> String {
    let mut out = String::new();
    for (n, t) in toks[lo..hi.min(toks.len())].iter().enumerate() {
        let glue = n > 0
            && matches!(t.kind, TokenKind::Ident | TokenKind::Number)
            && matches!(toks[lo + n - 1].kind, TokenKind::Ident | TokenKind::Number);
        if glue {
            out.push(' ');
        }
        out.push_str(&t.text);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Workspace;

    fn run(files: Vec<(&str, &str)>) -> Vec<Diagnostic> {
        let ws = Workspace::build(
            files
                .into_iter()
                .map(|(p, c)| (p.to_owned(), c.to_owned()))
                .collect(),
        );
        let mut uses = AllowUses::default();
        interval_rules(&ws, &mut uses)
    }

    #[test]
    fn narrowing_cast_of_unbounded_value_flags() {
        let d = run(vec![(
            "crates/core/src/check.rs",
            "pub fn f(x: u64) -> u8 { x as u8 }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, LOSSY_CAST);
        assert!(d[0].message.contains("does not fit u8"), "{}", d[0].message);
    }

    #[test]
    fn guard_refinement_silences_cast() {
        let d = run(vec![(
            "crates/core/src/check.rs",
            "pub fn f(x: u64) -> u8 { if x <= u8::MAX as u64 { return x as u8; } 0 }\n",
        )]);
        assert!(
            d.iter().all(|d| d.rule != LOSSY_CAST),
            "guarded cast must be clean: {d:?}"
        );
    }

    #[test]
    fn usize_is_asymmetric() {
        let d = run(vec![(
            "crates/core/src/check.rs",
            "pub fn f(a: usize, b: u64, c: u32) -> usize {\n\
             let x = a as u32;\n\
             let y = b as usize;\n\
             let z = c as usize;\n\
             x as usize + y + z\n\
             }\n",
        )]);
        let lines: Vec<usize> = d
            .iter()
            .filter(|d| d.rule == LOSSY_CAST)
            .map(|d| d.line)
            .collect();
        assert!(lines.contains(&2), "usize as u32 must flag: {d:?}");
        assert!(lines.contains(&3), "u64 as usize must flag: {d:?}");
        assert!(!lines.contains(&4), "u32 as usize is guaranteed: {d:?}");
    }

    #[test]
    fn overflow_in_hot_path_flags_and_promotion_cleanses() {
        let d = run(vec![(
            "crates/relation/src/scan.rs",
            "pub fn f(a: u32, b: u32) -> u64 {\n\
             let bad = a * b;\n\
             let good = a as u64 * b as u64;\n\
             bad as u64 + good\n\
             }\n",
        )]);
        let flagged: Vec<usize> = d
            .iter()
            .filter(|d| d.rule == OVERFLOW_PRONE_ARITH)
            .map(|d| d.line)
            .collect();
        assert_eq!(flagged, vec![2], "{d:?}");
    }

    #[test]
    fn overflow_outside_hot_path_is_silent() {
        let d = run(vec![(
            "crates/core/src/json.rs",
            "pub fn f(a: u32, b: u32) -> u32 { a * b }\n",
        )]);
        assert!(d.iter().all(|d| d.rule != OVERFLOW_PRONE_ARITH), "{d:?}");
    }

    #[test]
    fn loop_bounded_index_is_clean_and_escaping_index_flags() {
        let d = run(vec![(
            "crates/relation/src/scan.rs",
            "const BLOCK: usize = 64;\n\
             pub fn f(n: usize) -> u32 {\n\
             let buf = [0u32; BLOCK + 1];\n\
             let mut acc = 0u64;\n\
             for i in 0..BLOCK {\n\
             acc += buf[i] as u64 + buf[i + 1] as u64;\n\
             }\n\
             acc as u32 + buf[n] \n\
             }\n",
        )]);
        let flagged: Vec<usize> = d
            .iter()
            .filter(|d| d.rule == UNTRACKED_INDEX_ARITH)
            .map(|d| d.line)
            .collect();
        assert_eq!(flagged, vec![8], "only the unbounded index flags: {d:?}");
    }

    #[test]
    fn allows_suppress_with_reason() {
        let d = run(vec![(
            "crates/core/src/check.rs",
            "pub fn f(x: u64) -> u8 {\n\
             // lint: allow(lossy-cast, codes are dense ranks < 256 by contract)\n\
             x as u8\n\
             }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }
}
