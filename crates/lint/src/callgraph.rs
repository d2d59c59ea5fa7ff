//! Workspace model and call graph (ISSUE 5): per-file `fn` extraction over
//! the token stream, conservative name resolution, and the
//! **panic-reachability** pass.
//!
//! The model is deliberately approximate — there is no type information in
//! a text pass — and every approximation errs toward *more* edges:
//!
//! * method calls `.name(...)` resolve to every workspace `impl` fn named
//!   `name` (any owner type);
//! * qualified calls `Seg::name(...)` resolve by the last path segment:
//!   first as an `impl`/`trait` owner, then as a module (file stem);
//! * bare calls `name(...)` resolve to module-level fns of the same file,
//!   falling back to any module-level fn of that name when the file `use`s
//!   the name;
//! * calls into `std` or the vendored shims resolve to nothing and are
//!   assumed total (shims never run on the discovery hot path's panic
//!   budget; see DESIGN.md §11);
//! * macro bodies other than the panicking macros themselves are opaque.
//!
//! Closure bodies belong to their enclosing fn, so worker closures spawned
//! by the search are analyzed as part of it.

use crate::loops::{extract_loops, LoopRegion};
use crate::rules::{canonical_rule, Diagnostic, PANIC_REACHABILITY};
use crate::source::SourceFile;
use crate::tokens::{matching_close, tokenize, Token, TokenKind};
use std::collections::{HashMap, HashSet, VecDeque};

/// Files whose non-test fns are the roots of panic-reachability: the
/// single-check kernel, the level-synchronous search, the work-stealing
/// scheduler, and the epoch-published shared caches.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/check.rs",
    "crates/core/src/search.rs",
    "crates/core/src/scheduler.rs",
    "crates/core/src/shared_cache.rs",
];

/// Scope of the panic-free discipline (and of the workspace call graph):
/// the algorithmic crates whose code runs inside discovery workers, and
/// the artifact boundary they write checkpoints and reports through.
pub fn in_analysis_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/")
        || path.starts_with("crates/relation/src/")
        || path.starts_with("crates/iosafe/src/")
}

/// Rust keywords that must not be mistaken for call or index receivers.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "yield",
];

pub(crate) fn is_keyword(text: &str) -> bool {
    KEYWORDS.contains(&text)
}

/// One `.rs` file prepared for the semantic passes.
pub struct FileModel {
    /// Masked/annotated source (line rules and allows live here).
    pub src: SourceFile,
    /// Token stream of the masked text.
    pub tokens: Vec<Token>,
    /// Terminal identifiers this file `use`-imports.
    pub imports: HashSet<String>,
}

impl FileModel {
    /// Prepare `content` at workspace-relative `path`.
    pub fn parse(path: &str, content: &str) -> FileModel {
        let src = SourceFile::parse(path, content);
        let masked = src.masked_lines.join("\n");
        let tokens = tokenize(&masked);
        let imports = collect_imports(&tokens);
        FileModel {
            src,
            tokens,
            imports,
        }
    }

    /// Whether 0-based `line` sits in a test-only region.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.src.test_line.get(line).copied().unwrap_or(false)
    }
}

/// A `fn` item extracted from a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index into the workspace file list.
    pub file: usize,
    /// Bare function name.
    pub name: String,
    /// `impl`/`trait` owner type, when the fn is a method.
    pub owner: Option<String>,
    /// Module display path, e.g. `core::check`.
    pub module: String,
    /// 0-based line of the `fn` keyword.
    pub def_line: usize,
    /// Token index of the `fn` keyword.
    pub sig_start: usize,
    /// Token index range of the body including braces, `None` for
    /// body-less declarations.
    pub body: Option<(usize, usize)>,
    /// True when the fn sits in a test-only region.
    pub is_test: bool,
}

impl FnItem {
    /// Human-readable name: `core::sorted_partitions::PartitionChecker::check_ocd`.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(o) => format!("{}::{}::{}", self.module, o, self.name),
            None => format!("{}::{}", self.module, self.name),
        }
    }
}

/// A direct panic source inside a fn body.
#[derive(Debug, Clone)]
pub struct PanicSource {
    /// 0-based line of the source token.
    pub line: usize,
    /// What can panic: `` `.unwrap()` ``, `` `panic!` ``, `` slice indexing `[..]` ``…
    pub what: &'static str,
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
enum CallSite {
    /// `.name(...)` — receiver type unknown.
    Method(String),
    /// `Qualifier::name(...)` — last path segment kept.
    Qualified(String, String),
    /// `name(...)`.
    Bare(String),
}

/// The whole-workspace model shared by the semantic passes.
pub struct Workspace {
    /// Files in deterministic (path-sorted) order.
    pub files: Vec<FileModel>,
    /// Extracted fns across all in-scope files.
    pub fns: Vec<FnItem>,
    /// Call-graph adjacency: `calls[f]` lists callee fn ids, sorted.
    pub calls: Vec<Vec<usize>>,
    /// Direct panic sources per fn.
    pub sources: Vec<Vec<PanicSource>>,
    /// Resolved call sites per fn: `(token index, callee fn id)` pairs in
    /// token order — the lock pass needs positions, not just edges.
    pub call_sites: Vec<Vec<(usize, usize)>>,
    /// Loop regions per fn, in header-token order (outer before nested);
    /// see [`crate::loops`].
    pub loops: Vec<Vec<LoopRegion>>,
    /// Fn id by `(file, def_line)`.
    pub fn_of_file_line: HashMap<(usize, usize), usize>,
}

impl Workspace {
    /// Build the model over `(path, content)` pairs. Files outside the
    /// analysis scope still get line rules (via their `FileModel`) but
    /// contribute no fns to the graph.
    pub fn build(files: Vec<(String, String)>) -> Workspace {
        let models: Vec<FileModel> = files.iter().map(|(p, c)| FileModel::parse(p, c)).collect();
        let mut fns: Vec<FnItem> = Vec::new();
        for (fi, m) in models.iter().enumerate() {
            if !in_analysis_scope(&m.src.path) {
                continue;
            }
            extract_fns(fi, m, &mut fns);
        }

        // Name-resolution indexes.
        let mut method_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_owner_name: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        let mut module_level: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_module_name: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        for (id, f) in fns.iter().enumerate() {
            match &f.owner {
                Some(o) => {
                    method_by_name.entry(&f.name).or_default().push(id);
                    by_owner_name.entry((o, &f.name)).or_default().push(id);
                }
                None => {
                    module_level.entry(&f.name).or_default().push(id);
                }
            }
            let stem = f.module.rsplit("::").next().unwrap_or(f.module.as_str());
            by_module_name.entry((stem, &f.name)).or_default().push(id);
        }

        let mut calls: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        let mut call_sites: Vec<Vec<(usize, usize)>> = vec![Vec::new(); fns.len()];
        let mut sources: Vec<Vec<PanicSource>> = vec![Vec::new(); fns.len()];
        for (id, f) in fns.iter().enumerate() {
            let model = &models[f.file];
            let Some((b0, b1)) = f.body else { continue };
            // Exclude nested fn items from this fn's own body scan.
            let nested: Vec<(usize, usize)> = fns
                .iter()
                .filter(|g| g.file == f.file && g.sig_start > b0 && g.sig_start < b1)
                .map(|g| (g.sig_start, g.body.map_or(g.sig_start, |(_, e)| e)))
                .collect();
            let in_nested = |idx: usize| nested.iter().any(|&(s, e)| idx >= s && idx <= e);

            let mut callees: HashSet<usize> = HashSet::new();
            let toks = &model.tokens;
            let mut idx = b0;
            while idx <= b1.min(toks.len().saturating_sub(1)) {
                if in_nested(idx) {
                    idx += 1;
                    continue;
                }
                let t = &toks[idx];
                // Panic sources.
                if let Some(src) = panic_source_at(toks, idx) {
                    sources[id].push(src);
                }
                // Call sites.
                if t.kind == TokenKind::Ident && !is_keyword(&t.text) {
                    if let Some(call) = call_at(toks, idx) {
                        let resolved: Vec<usize> = match &call {
                            CallSite::Method(n) => {
                                method_by_name.get(n.as_str()).cloned().unwrap_or_default()
                            }
                            CallSite::Qualified(q, n) => {
                                if q == "Self" {
                                    match &f.owner {
                                        Some(o) => by_owner_name
                                            .get(&(o.as_str(), n.as_str()))
                                            .cloned()
                                            .unwrap_or_default(),
                                        None => Vec::new(),
                                    }
                                } else if let Some(v) = by_owner_name.get(&(q.as_str(), n.as_str()))
                                {
                                    v.clone()
                                } else {
                                    by_module_name
                                        .get(&(q.as_str(), n.as_str()))
                                        .cloned()
                                        .unwrap_or_default()
                                }
                            }
                            CallSite::Bare(n) => {
                                let same_file: Vec<usize> = module_level
                                    .get(n.as_str())
                                    .map(|v| {
                                        v.iter()
                                            .copied()
                                            .filter(|&g| fns[g].file == f.file)
                                            .collect()
                                    })
                                    .unwrap_or_default();
                                if !same_file.is_empty() {
                                    same_file
                                } else if model.imports.contains(n.as_str()) {
                                    module_level.get(n.as_str()).cloned().unwrap_or_default()
                                } else {
                                    Vec::new()
                                }
                            }
                        };
                        for &callee in &resolved {
                            call_sites[id].push((idx, callee));
                        }
                        callees.extend(resolved);
                    }
                }
                idx += 1;
            }
            let mut list: Vec<usize> = callees.into_iter().collect();
            list.sort_unstable();
            calls[id] = list;
        }

        // Loop regions, attributed to the innermost fn: a nested fn's
        // loops belong to the nested item, not the enclosing one.
        let mut loops: Vec<Vec<LoopRegion>> = Vec::with_capacity(fns.len());
        for f in &fns {
            let model = &models[f.file];
            let mut ls = extract_loops(model, f);
            if let Some((b0, b1)) = f.body {
                let nested: Vec<(usize, usize)> = fns
                    .iter()
                    .filter(|g| g.file == f.file && g.sig_start > b0 && g.sig_start < b1)
                    .map(|g| (g.sig_start, g.body.map_or(g.sig_start, |(_, e)| e)))
                    .collect();
                ls.retain(|l| {
                    !nested
                        .iter()
                        .any(|&(s, e)| l.head_tok >= s && l.head_tok <= e)
                });
            }
            loops.push(ls);
        }

        let mut fn_of_file_line = HashMap::new();
        for (id, f) in fns.iter().enumerate() {
            fn_of_file_line.insert((f.file, f.def_line), id);
        }

        Workspace {
            files: models,
            fns,
            calls,
            sources,
            call_sites,
            loops,
            fn_of_file_line,
        }
    }

    /// The fn whose body covers token index `tok` in file `file`, if any
    /// (innermost wins).
    pub fn enclosing_fn(&self, file: usize, tok: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (id, f) in self.fns.iter().enumerate() {
            if f.file != file {
                continue;
            }
            if let Some((b0, b1)) = f.body {
                if tok >= b0 && tok <= b1 {
                    match best {
                        Some(b) if self.fns[b].sig_start >= f.sig_start => {}
                        _ => best = Some(id),
                    }
                }
            }
        }
        best
    }
}

/// Collect `use` terminal identifiers: in `use a::b::{c, d as e};` the
/// names `c` and `e` (and `b` for `use a::b;`) become referable.
fn collect_imports(tokens: &[Token]) -> HashSet<String> {
    let mut out = HashSet::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("use") {
            let mut j = i + 1;
            while j < tokens.len() && !tokens[j].is_punct(";") {
                if tokens[j].kind == TokenKind::Ident {
                    let next = tokens.get(j + 1);
                    let terminal = match next {
                        Some(t) => t.is_punct(",") || t.is_punct("}") || t.is_punct(";"),
                        None => true,
                    };
                    if terminal {
                        out.insert(tokens[j].text.clone());
                    }
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    out
}

/// Module display path for a workspace-relative file path:
/// `crates/core/src/check.rs` → `core::check`, `crates/core/src/lib.rs` →
/// `core`, `src/lib.rs` → `ocdd`.
fn module_path(path: &str) -> String {
    let parts: Vec<&str> = path.split('/').collect();
    let stem = parts
        .last()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("");
    if parts.first() == Some(&"crates") && parts.len() >= 2 {
        let krate = parts[1];
        if stem == "lib" || stem == "main" || stem.is_empty() {
            krate.to_owned()
        } else {
            format!("{krate}::{stem}")
        }
    } else if stem == "lib" || stem == "main" {
        "ocdd".to_owned()
    } else {
        format!("ocdd::{stem}")
    }
}

/// Skip a generic-argument list starting at the `<` token, returning the
/// index one past the matching `>`. Counts `<`/`>` characters so the
/// `>>`-as-one-token case closes two levels.
pub(crate) fn skip_angles(tokens: &[Token], open: usize) -> usize {
    let mut depth: i64 = 0;
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "<" | "<=" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                "=>" | "->" => {}
                _ => {}
            }
        }
        i += 1;
        if depth <= 0 {
            break;
        }
    }
    i
}

/// Extract `fn` items of one file into `out`. Handles `impl`/`trait`
/// owners, skips `macro_rules!` bodies, and records nested fns as items of
/// their own.
fn extract_fns(file: usize, model: &FileModel, out: &mut Vec<FnItem>) {
    let toks = &model.tokens;
    let module = module_path(&model.src.path);
    // (owner, close token index) stack for impl/trait blocks.
    let mut owners: Vec<(String, usize)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        owners.retain(|&(_, close)| i <= close);
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "macro_rules" => {
                // macro_rules! name { ... } — opaque, skip wholesale.
                let mut j = i + 1;
                while j < toks.len() && !toks[j].is_punct("{") {
                    j += 1;
                }
                i = matching_close(toks, j).saturating_add(1);
                continue;
            }
            "impl" | "trait" => {
                let kw = i;
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_punct("<")) {
                    j = skip_angles(toks, j);
                }
                // Collect the owner: last path segment before generics; if
                // a `for` appears before the body, the owner follows it.
                let mut owner: Option<String> = None;
                while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
                    let tj = &toks[j];
                    if tj.is_ident("for") {
                        owner = None; // the trait name; the type follows
                    } else if tj.is_ident("where") {
                        break;
                    } else if tj.kind == TokenKind::Ident && !is_keyword(&tj.text) {
                        if owner.is_none() {
                            owner = Some(tj.text.clone());
                        }
                    } else if tj.is_punct("<") {
                        j = skip_angles(toks, j);
                        continue;
                    }
                    j += 1;
                }
                while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.is_punct("{")) {
                    let close = matching_close(toks, j);
                    if let Some(o) = owner {
                        owners.push((o, close));
                    }
                    i = j + 1;
                } else {
                    i = j + 1;
                }
                let _ = kw;
                continue;
            }
            "fn" => {
                let Some(name_tok) = toks.get(i + 1) else {
                    i += 1;
                    continue;
                };
                if name_tok.kind != TokenKind::Ident {
                    // `fn(u32) -> u32` bare fn pointer type.
                    i += 1;
                    continue;
                }
                // Find body `{` or terminating `;` at bracket/paren depth 0.
                let mut depth: i64 = 0;
                let mut j = i + 2;
                let mut body: Option<(usize, usize)> = None;
                while j < toks.len() {
                    let tj = &toks[j];
                    if tj.kind == TokenKind::Punct {
                        match tj.text.as_str() {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "{" if depth == 0 => {
                                body = Some((j, matching_close(toks, j)));
                                break;
                            }
                            ";" if depth == 0 => break,
                            _ => {}
                        }
                    }
                    j += 1;
                }
                let def_line = t.line;
                out.push(FnItem {
                    file,
                    name: name_tok.text.clone(),
                    owner: owners.last().map(|(o, _)| o.clone()),
                    module: module.clone(),
                    def_line,
                    sig_start: i,
                    body,
                    is_test: model.is_test_line(def_line),
                });
                i += 2;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
}

/// Identify a call at token `idx` (an identifier). Returns `None` for
/// macro invocations, keywords, and plain identifiers.
fn call_at(tokens: &[Token], idx: usize) -> Option<CallSite> {
    let name = &tokens[idx];
    let mut k = idx + 1;
    // Turbofish: name::<...>(
    if tokens.get(k).is_some_and(|t| t.is_punct("::"))
        && tokens.get(k + 1).is_some_and(|t| t.is_punct("<"))
    {
        k = skip_angles(tokens, k + 1);
    }
    if !tokens.get(k).is_some_and(|t| t.is_punct("(")) {
        return None;
    }
    let prev = idx.checked_sub(1).map(|p| &tokens[p]);
    match prev {
        Some(p) if p.is_punct(".") => Some(CallSite::Method(name.text.clone())),
        Some(p) if p.is_punct("::") => {
            let q = idx.checked_sub(2).map(|p| &tokens[p]);
            match q {
                Some(q) if q.kind == TokenKind::Ident => {
                    Some(CallSite::Qualified(q.text.clone(), name.text.clone()))
                }
                // `::<turbofish>::name(` or `<T as Trait>::name(` — give
                // up on the qualifier, treat as a method-style lookup.
                _ => Some(CallSite::Method(name.text.clone())),
            }
        }
        _ => Some(CallSite::Bare(name.text.clone())),
    }
}

/// Identify a direct panic source at token `idx`.
fn panic_source_at(tokens: &[Token], idx: usize) -> Option<PanicSource> {
    let t = &tokens[idx];
    if t.kind == TokenKind::Ident {
        let next_bang = tokens.get(idx + 1).is_some_and(|n| n.is_punct("!"));
        let what = match t.text.as_str() {
            "panic" if next_bang => "`panic!`",
            "unreachable" if next_bang => "`unreachable!`",
            "todo" if next_bang => "`todo!`",
            "unimplemented" if next_bang => "`unimplemented!`",
            "panic_any" if tokens.get(idx + 1).is_some_and(|n| n.is_punct("(")) => "`panic_any`",
            _ => return None,
        };
        return Some(PanicSource { line: t.line, what });
    }
    if t.is_punct(".") {
        let name = tokens.get(idx + 1)?;
        if name.is_ident("unwrap")
            && tokens.get(idx + 2).is_some_and(|t| t.is_punct("("))
            && tokens.get(idx + 3).is_some_and(|t| t.is_punct(")"))
        {
            return Some(PanicSource {
                line: name.line,
                what: "`.unwrap()`",
            });
        }
        if name.is_ident("expect") && tokens.get(idx + 2).is_some_and(|t| t.is_punct("(")) {
            return Some(PanicSource {
                line: name.line,
                what: "`.expect(..)`",
            });
        }
        return None;
    }
    if t.is_punct("[") {
        let prev = idx.checked_sub(1).map(|p| &tokens[p])?;
        let indexes = match prev.kind {
            TokenKind::Ident => !is_keyword(&prev.text),
            TokenKind::Punct => prev.text == ")" || prev.text == "]",
            _ => false,
        };
        if !indexes {
            return None;
        }
        // `x[..]` (full-range slicing) cannot panic; anything else can.
        let close = matching_close(tokens, idx);
        if close == idx + 2 && tokens[idx + 1].is_punct("..") {
            return None;
        }
        return Some(PanicSource {
            line: t.line,
            what: "slice indexing `[..]`",
        });
    }
    None
}

/// Allow-usage records shared by all passes: `(file, 0-based target line,
/// canonical rule)` triples that justified (suppressed) a finding.
#[derive(Default)]
pub struct AllowUses {
    used: HashSet<(usize, usize, &'static str)>,
}

impl AllowUses {
    /// Record that the allow at `line` for `rule` suppressed something.
    pub fn mark(&mut self, file: usize, line: usize, rule: &'static str) {
        self.used.insert((file, line, rule));
    }

    /// Whether the allow targeting `line` for `rule` was consumed.
    pub fn is_used(&self, file: usize, line: usize, rule: &'static str) -> bool {
        self.used.contains(&(file, line, rule))
    }
}

/// Check site-level then fn-level allows for `rule` (canonical name,
/// aliases included via [`canonical_rule`]). Marks usage and returns true
/// when suppressed.
pub fn allowed_at(
    ws: &Workspace,
    file: usize,
    line: usize,
    fn_id: Option<usize>,
    rule: &'static str,
    uses: &mut AllowUses,
) -> bool {
    let model = &ws.files[file];
    let site = model
        .src
        .allows_for_line
        .get(line)
        .into_iter()
        .flatten()
        .any(|a| canonical_rule(&a.rule) == Some(rule));
    if site {
        uses.mark(file, line, rule);
        return true;
    }
    if let Some(fid) = fn_id {
        let def_line = ws.fns[fid].def_line;
        let fn_level = model
            .src
            .allows_for_line
            .get(def_line)
            .into_iter()
            .flatten()
            .any(|a| canonical_rule(&a.rule) == Some(rule));
        if fn_level {
            uses.mark(file, def_line, rule);
            return true;
        }
    }
    false
}

/// The panic-reachability pass: BFS from the hot-path roots, then one
/// finding per reachable fn that still contains an unsuppressed direct
/// panic source. The finding's chain witnesses the shortest call path
/// `root → … → fn` plus the panic site.
pub fn panic_reachability(ws: &Workspace, uses: &mut AllowUses) -> Vec<Diagnostic> {
    let n = ws.fns.len();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut reached = vec![false; n];
    let mut queue = VecDeque::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        if HOT_PATH_FILES.contains(&ws.files[f.file].src.path.as_str()) {
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

    let mut out = Vec::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if !reached[id] || f.is_test || ws.sources[id].is_empty() {
            continue;
        }
        let model = &ws.files[f.file];
        // fn-level allow covers every source in the fn.
        let fn_allow = model
            .src
            .allows_for_line
            .get(f.def_line)
            .into_iter()
            .flatten()
            .any(|a| canonical_rule(&a.rule) == Some(PANIC_REACHABILITY));
        if fn_allow {
            uses.mark(f.file, f.def_line, PANIC_REACHABILITY);
            continue;
        }
        let mut first_live: Option<&PanicSource> = None;
        for s in &ws.sources[id] {
            if model.is_test_line(s.line) {
                continue;
            }
            let site = model
                .src
                .allows_for_line
                .get(s.line)
                .into_iter()
                .flatten()
                .any(|a| canonical_rule(&a.rule) == Some(PANIC_REACHABILITY));
            if site {
                uses.mark(f.file, s.line, PANIC_REACHABILITY);
            } else if first_live.is_none() {
                first_live = Some(s);
            }
        }
        let Some(src) = first_live else { continue };

        // Witness: walk parents back to a root.
        let mut chain_ids = vec![id];
        let mut cur = id;
        while let Some(p) = parent[cur] {
            chain_ids.push(p);
            cur = p;
        }
        chain_ids.reverse();
        let mut chain: Vec<String> = chain_ids
            .iter()
            .map(|&g| {
                let gf = &ws.fns[g];
                format!(
                    "{} ({}:{})",
                    gf.display(),
                    ws.files[gf.file].src.path,
                    gf.def_line + 1
                )
            })
            .collect();
        chain.push(format!(
            "{} at {}:{}",
            src.what,
            model.src.path,
            src.line + 1
        ));

        out.push(Diagnostic {
            path: model.src.path.clone(),
            line: src.line + 1,
            rule: PANIC_REACHABILITY,
            message: format!(
                "{} in `{}`, reachable from the hot path — make the function \
                 total (`get`-based handling, typed errors) or annotate the \
                 proven invariant at the site or the fn",
                src.what,
                f.display()
            ),
            chain,
        });
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
    fn fns_and_owners_are_extracted() {
        let w = ws(&[(
            "crates/core/src/check.rs",
            "pub fn free() {}\nimpl Memo {\n    pub fn index_for(&self) {}\n}\n\
             impl std::fmt::Display for Diagnostic {\n    fn fmt(&self) {}\n}\n",
        )]);
        let names: Vec<(String, Option<String>)> = w
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.owner.clone()))
            .collect();
        assert!(names.contains(&("free".into(), None)));
        assert!(names.contains(&("index_for".into(), Some("Memo".into()))));
        assert!(names.contains(&("fmt".into(), Some("Diagnostic".into()))));
    }

    #[test]
    fn cross_file_call_edge_resolves_via_module_qualifier() {
        let w = ws(&[
            (
                "crates/core/src/check.rs",
                "pub fn entry() { crate::util::helper(); }\n",
            ),
            ("crates/core/src/util.rs", "pub fn helper() -> u32 { 1 }\n"),
        ]);
        let entry = w.fns.iter().position(|f| f.name == "entry").unwrap();
        let helper = w.fns.iter().position(|f| f.name == "helper").unwrap();
        assert!(w.calls[entry].contains(&helper));
    }

    #[test]
    fn panic_reaches_through_a_call_edge() {
        let w = ws(&[
            (
                "crates/core/src/check.rs",
                "pub fn entry() { crate::util::helper(); }\n",
            ),
            (
                "crates/core/src/util.rs",
                "pub fn helper(v: &[u32]) -> u32 { v[0] }\n",
            ),
        ]);
        let mut uses = AllowUses::default();
        let diags = panic_reachability(&w, &mut uses);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert_eq!(diags[0].path, "crates/core/src/util.rs");
        assert_eq!(diags[0].rule, PANIC_REACHABILITY);
        assert_eq!(
            diags[0].chain,
            vec![
                "core::check::entry (crates/core/src/check.rs:1)",
                "core::util::helper (crates/core/src/util.rs:1)",
                "slice indexing `[..]` at crates/core/src/util.rs:1",
            ]
        );
    }

    #[test]
    fn unreachable_panics_are_not_flagged() {
        let w = ws(&[(
            "crates/core/src/util.rs",
            "pub fn lonely(v: Option<u32>) -> u32 { v.unwrap() }\n",
        )]);
        let mut uses = AllowUses::default();
        assert!(panic_reachability(&w, &mut uses).is_empty());
    }

    #[test]
    fn fn_level_allow_suppresses_all_sources() {
        let w = ws(&[(
            "crates/core/src/check.rs",
            "// lint: allow(panic-reachability, bounded by construction)\n\
             pub fn kernel(v: &[u32]) -> u32 { v[0] + v[1] }\n",
        )]);
        let mut uses = AllowUses::default();
        let diags = panic_reachability(&w, &mut uses);
        assert!(diags.is_empty(), "{diags:#?}");
        assert!(uses.is_used(0, 1, PANIC_REACHABILITY));
    }

    #[test]
    fn legacy_no_panic_site_allow_keeps_working() {
        let w = ws(&[(
            "crates/core/src/check.rs",
            "pub fn kernel(v: Option<u32>) -> u32 {\n\
             // lint: allow(no-panic, proven invariant)\n    v.unwrap()\n}\n",
        )]);
        let mut uses = AllowUses::default();
        let diags = panic_reachability(&w, &mut uses);
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn full_range_slicing_is_not_a_source() {
        let w = ws(&[(
            "crates/core/src/check.rs",
            "pub fn total(v: &Vec<u32>) -> &[u32] { &v[..] }\n",
        )]);
        let mut uses = AllowUses::default();
        assert!(panic_reachability(&w, &mut uses).is_empty());
    }

    #[test]
    fn method_calls_resolve_conservatively() {
        let w = ws(&[
            (
                "crates/core/src/search.rs",
                "pub fn drive(c: &mut Cache) { c.evict(); }\n",
            ),
            (
                "crates/core/src/util.rs",
                "impl Cache {\n    pub fn evict(&mut self) { self.slots.pop().expect(\"nonempty\"); }\n}\n",
            ),
        ]);
        let mut uses = AllowUses::default();
        let diags = panic_reachability(&w, &mut uses);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("core::util::Cache::evict"));
    }
}
