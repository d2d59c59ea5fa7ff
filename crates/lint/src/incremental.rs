//! The incremental, parallel lint driver (ISSUE 10).
//!
//! [`analyze_incremental`] produces byte-identical results to
//! [`crate::analyze`] while doing as little work as the cache allows:
//!
//! - **Per-file stage.** Every file is fingerprinted (FNV-1a 64 over its
//!   content). Files whose `(hash, rule-set version)` matches the cache
//!   replay their cached line diagnostics, allow-use marks, and — for
//!   files outside the semantic analysis scope — their hygiene results,
//!   without even being parsed. Changed files are parsed and line-checked
//!   in parallel (`par_map`).
//! - **Semantic stage.** The cross-file passes (call graph, locks, taint,
//!   dataflow, schema parity, intervals) depend on exactly the in-scope
//!   files (`crates/core`, `crates/relation`, `crates/iosafe`); their
//!   dependency closure is fingerprinted as one combined hash. When it is
//!   unchanged, the entire semantic result (diagnostics *and* in-scope
//!   hygiene) replays from cache; otherwise the workspace model is rebuilt
//!   (unchanged files parse in parallel, their cached line results still
//!   stand) and every pass re-runs, individually timed.
//! - **Hygiene split.** `unused-allow`/`unknown-allow` for an out-of-scope
//!   file depends only on that file's own line-rule uses, so it lives in
//!   the per-file cache; for in-scope files it also depends on the
//!   semantic passes and therefore lives in the semantic cache entry.
//!
//! The cache (`results/lint_cache.json`, schema `ocdd-lint-cache/1`) is
//! encoded and decoded by the JSON codec (`ocdd_iosafe::json`) and
//! written via `ocdd_iosafe::atomic_write` so a crash never publishes a
//! torn cache; any parse failure, schema/rule-set mismatch, or unknown
//! rule name degrades to a full cold run — the cache can make the run
//! faster, never wrong. `EngineStats` reports what actually happened so
//! ci.sh can gate on "warm run re-analyzed nothing".

use crate::callgraph::{in_analysis_scope, AllowUses, FileModel, Workspace};
use crate::rules::{Diagnostic, ALL_RULES, UNKNOWN_ALLOW, UNUSED_ALLOW};
use crate::{check_file, hygiene, Analysis, StaleAllow};
use ocdd_iosafe::json::{self, Json, Writer};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Cache file schema identifier.
pub const CACHE_SCHEMA: &str = "ocdd-lint-cache/1";

/// What the incremental engine did, for `--stats` and the ci.sh warm
/// gate.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Total files under the scan roots.
    pub files_scanned: usize,
    /// Files that were parsed and line-checked this run (cache misses).
    pub files_reanalyzed: usize,
    /// Whether the cross-file semantic stage re-ran.
    pub semantic_reran: bool,
    /// Wall time of the whole analysis in milliseconds.
    pub elapsed_ms: u128,
    /// Ordered per-stage / per-rule timings in milliseconds.
    pub timings_ms: Vec<(String, u128)>,
}

/// The rule-set version baked into every fingerprint: any rule addition,
/// removal, or rename invalidates the whole cache.
fn ruleset_version() -> String {
    format!("3:{}", ALL_RULES.join(","))
}

/// FNV-1a 64 over a byte string.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `f` over `items` on as many threads as the host offers, preserving
/// order. Falls back to a serial map for tiny inputs.
pub(crate) fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((i, item)) = next else { break };
                let r = f(item);
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("par_map slot filled by worker")
        })
        .collect()
}

// ---------------------------------------------------------------------
// Cache model.
// ---------------------------------------------------------------------

/// A rule name from the cache resolved to its `&'static str` constant.
/// `None` means the cache predates (or postdates) this binary's rule set
/// — treated as a full miss.
fn intern_rule(name: &str) -> Option<&'static str> {
    if name == UNUSED_ALLOW {
        return Some(UNUSED_ALLOW);
    }
    if name == UNKNOWN_ALLOW {
        return Some(UNKNOWN_ALLOW);
    }
    ALL_RULES.iter().find(|r| **r == name).copied()
}

#[derive(Clone)]
struct FileEntry {
    hash: u64,
    /// Line-rule diagnostics.
    diags: Vec<Diagnostic>,
    /// `(0-based line, rule)` allow uses the line rules consumed.
    uses: Vec<(usize, &'static str)>,
    /// Hygiene results — populated only for out-of-scope files (in-scope
    /// hygiene lives in [`SemanticEntry`]).
    hyg: Vec<Diagnostic>,
    stales: Vec<StaleAllow>,
}

#[derive(Clone)]
struct SemanticEntry {
    diags: Vec<Diagnostic>,
    hyg: Vec<Diagnostic>,
    stales: Vec<StaleAllow>,
}

struct Cache {
    closure: u64,
    files: HashMap<String, FileEntry>,
    semantic: Option<SemanticEntry>,
}

fn write_diag(w: &mut Writer, d: &Diagnostic) {
    w.begin_object();
    w.key("rule").str(d.rule);
    w.key("file").str(&d.path);
    w.key("line").u64(d.line as u64);
    w.key("message").str(&d.message);
    w.key("chain").begin_array();
    for hop in &d.chain {
        w.str(hop);
    }
    w.end_array().end_object();
}

fn read_diag(j: &Json) -> Option<Diagnostic> {
    Some(Diagnostic {
        rule: intern_rule(j.get("rule")?.as_str()?)?,
        path: j.get("file")?.as_str()?.to_owned(),
        line: j.get("line")?.as_usize()?,
        message: j.get("message")?.as_str()?.to_owned(),
        chain: j
            .get("chain")?
            .as_array()?
            .iter()
            .map(|h| h.as_str().map(str::to_owned))
            .collect::<Option<Vec<_>>>()?,
    })
}

fn write_stale(w: &mut Writer, sa: &StaleAllow) {
    w.begin_object();
    w.key("file").str(&sa.path);
    w.key("line").u64(sa.line as u64);
    w.key("rule").str(&sa.rule);
    w.end_object();
}

fn read_stale(j: &Json) -> Option<StaleAllow> {
    Some(StaleAllow {
        path: j.get("file")?.as_str()?.to_owned(),
        line: j.get("line")?.as_usize()?,
        rule: j.get("rule")?.as_str()?.to_owned(),
    })
}

/// Write the `diags`, `hyg` and `stales` members that per-file and
/// semantic cache entries both carry.
fn write_results(w: &mut Writer, diags: &[Diagnostic], hyg: &[Diagnostic], stales: &[StaleAllow]) {
    for (key, list) in [("diags", diags), ("hyg", hyg)] {
        w.key(key).begin_array();
        for d in list {
            write_diag(w, d);
        }
        w.end_array();
    }
    w.key("stales").begin_array();
    for sa in stales {
        write_stale(w, sa);
    }
    w.end_array();
}

fn read_diags(j: &Json, key: &str) -> Option<Vec<Diagnostic>> {
    j.get(key)?.as_array()?.iter().map(read_diag).collect()
}

fn read_stales(j: &Json) -> Option<Vec<StaleAllow>> {
    j.get("stales")?
        .as_array()?
        .iter()
        .map(read_stale)
        .collect()
}

fn load_cache(path: &Path) -> Option<Cache> {
    let text = std::fs::read_to_string(path).ok()?;
    let j = json::parse(&text).ok()?;
    if j.get("schema")?.as_str()? != CACHE_SCHEMA
        || j.get("ruleset")?.as_str()? != ruleset_version()
    {
        return None;
    }
    let closure = u64::from_str_radix(j.get("closure")?.as_str()?, 16).ok()?;
    let mut files = HashMap::new();
    for (path, entry) in j.get("files")?.as_object()? {
        let hash = u64::from_str_radix(entry.get("hash")?.as_str()?, 16).ok()?;
        let uses = entry
            .get("uses")?
            .as_array()?
            .iter()
            .map(|u| match u.as_array()? {
                [line, rule] => Some((line.as_usize()?, intern_rule(rule.as_str()?)?)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        files.insert(
            path.clone(),
            FileEntry {
                hash,
                diags: read_diags(entry, "diags")?,
                uses,
                hyg: read_diags(entry, "hyg")?,
                stales: read_stales(entry)?,
            },
        );
    }
    let semantic = match j.get("semantic") {
        Some(sem) => Some(SemanticEntry {
            diags: read_diags(sem, "diags")?,
            hyg: read_diags(sem, "hyg")?,
            stales: read_stales(sem)?,
        }),
        None => None,
    };
    Some(Cache {
        closure,
        files,
        semantic,
    })
}

fn save_cache(
    path: &Path,
    closure: u64,
    entries: &[(String, FileEntry)],
    semantic: &SemanticEntry,
) -> std::io::Result<()> {
    let mut w = Writer::new();
    w.begin_object();
    w.key("schema").str(CACHE_SCHEMA);
    w.key("ruleset").str(&ruleset_version());
    w.key("closure").str(&format!("{closure:016x}"));
    w.key("files").begin_object();
    for (p, e) in entries {
        w.key(p).begin_object();
        w.key("hash").str(&format!("{:016x}", e.hash));
        w.key("uses").begin_array();
        for &(line, rule) in &e.uses {
            w.begin_array().u64(line as u64).str(rule).end_array();
        }
        w.end_array();
        write_results(&mut w, &e.diags, &e.hyg, &e.stales);
        w.end_object();
    }
    w.end_object();
    w.key("semantic").begin_object();
    write_results(&mut w, &semantic.diags, &semantic.hyg, &semantic.stales);
    w.end_object().end_object();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    ocdd_iosafe::atomic_write_str(path, &w.finish())
}

// ---------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------

/// Analyze the workspace at `root` using (and refreshing) the cache at
/// `cache_path`. Produces exactly the diagnostics of [`crate::analyze`]
/// plus an [`EngineStats`] describing how much work was skipped.
pub fn analyze_incremental(
    root: &Path,
    cache_path: &Path,
) -> std::io::Result<(Analysis, EngineStats)> {
    let t0 = Instant::now();
    let mut timings: Vec<(String, u128)> = Vec::new();
    let mut mark = Instant::now();
    let lap = |timings: &mut Vec<(String, u128)>, mark: &mut Instant, stage: &str| {
        timings.push((stage.to_owned(), mark.elapsed().as_millis()));
        *mark = Instant::now();
    };

    let files = crate::collect_files(root)?;
    lap(&mut timings, &mut mark, "read");

    let hashes: Vec<u64> = files.iter().map(|(_, c)| fnv64(c.as_bytes())).collect();
    let mut closure_key = String::new();
    for ((path, _), hash) in files.iter().zip(&hashes) {
        if in_analysis_scope(path) {
            closure_key.push_str(&format!("{path}:{hash:016x};"));
        }
    }
    let closure = fnv64(closure_key.as_bytes());
    lap(&mut timings, &mut mark, "fingerprint");

    let cache = load_cache(cache_path);
    lap(&mut timings, &mut mark, "cache-read");

    // Per-file stage: replay hits, parse + line-check misses in parallel.
    struct PerFile {
        path: String,
        entry: FileEntry,
        model: Option<FileModel>,
        fresh: bool,
    }
    let work: Vec<(String, String, u64, Option<FileEntry>)> = files
        .into_iter()
        .zip(&hashes)
        .map(|((path, content), &hash)| {
            let hit = cache
                .as_ref()
                .and_then(|c| c.files.get(&path))
                .filter(|e| e.hash == hash)
                .cloned();
            (path, content, hash, hit)
        })
        .collect();
    let per_file: Vec<PerFile> = par_map(work, |(path, content, hash, hit)| match hit {
        Some(entry) => PerFile {
            path,
            entry,
            model: None,
            fresh: false,
        },
        None => {
            let model = FileModel::parse(&path, &content);
            let (diags, uses) = check_file(&model.src);
            let (hyg, stales) = if in_analysis_scope(&path) {
                (Vec::new(), Vec::new()) // in-scope hygiene is semantic-stage work
            } else {
                hygiene(&model, |line, canon| uses.contains(&(line, canon)))
            };
            PerFile {
                path,
                entry: FileEntry {
                    hash,
                    diags,
                    uses,
                    hyg,
                    stales,
                },
                model: Some(model),
                fresh: true,
            }
        }
    });
    let files_scanned = per_file.len();
    let files_reanalyzed = per_file.iter().filter(|p| p.fresh).count();
    lap(&mut timings, &mut mark, "line-rules");

    // Semantic stage: replay when the in-scope closure is unchanged.
    let semantic_hit = cache
        .as_ref()
        .filter(|c| c.closure == closure)
        .and_then(|c| c.semantic.clone());
    let semantic_reran = semantic_hit.is_none();
    let mut per_file = per_file;
    let semantic = match semantic_hit {
        Some(sem) => sem,
        None => {
            // Models for every in-scope file: reuse the per-file stage's
            // parses, fill the cache-hit gaps in parallel.
            let in_scope_idx: Vec<usize> = per_file
                .iter()
                .enumerate()
                .filter(|(_, p)| in_analysis_scope(&p.path))
                .map(|(i, _)| i)
                .collect();
            let needs_parse: Vec<(String, String)> = in_scope_idx
                .iter()
                .filter(|&&i| per_file[i].model.is_none())
                .map(|&i| {
                    let content = std::fs::read_to_string(root.join(&per_file[i].path))?;
                    Ok((per_file[i].path.clone(), content))
                })
                .collect::<std::io::Result<_>>()?;
            let mut parsed: HashMap<String, FileModel> = par_map(needs_parse, |(path, content)| {
                let model = FileModel::parse(&path, &content);
                (path, model)
            })
            .into_iter()
            .collect();
            let models: Vec<FileModel> = in_scope_idx
                .iter()
                .map(|&i| match per_file[i].model.take() {
                    Some(m) => m,
                    None => parsed
                        .remove(&per_file[i].path)
                        .expect("every in-scope file parsed exactly once"),
                })
                .collect();
            lap(&mut timings, &mut mark, "parse");

            let ws = Workspace::from_models(models);
            let mut uses = AllowUses::default();
            for (fi, &i) in in_scope_idx.iter().enumerate() {
                for &(line, rule) in &per_file[i].entry.uses {
                    uses.mark(fi, line, rule);
                }
            }
            let mut diags = Vec::new();
            type Pass = fn(&Workspace, &mut AllowUses) -> Vec<Diagnostic>;
            let passes: &[(&str, Pass)] = &[
                ("panic-reachability", crate::callgraph::panic_reachability),
                ("lock-order", crate::locks::lock_order),
                ("determinism-taint", crate::taint::determinism_taint),
                ("unprobed-loop", crate::dataflow::unprobed_loops),
                ("hot-loop-alloc", crate::dataflow::hot_loop_alloc),
                ("schema-parity", crate::schema::schema_parity),
                ("interval-rules", crate::casts::interval_rules),
            ];
            for (name, pass) in passes {
                diags.extend(pass(&ws, &mut uses));
                lap(&mut timings, &mut mark, name);
            }
            let mut hyg = Vec::new();
            let mut stales = Vec::new();
            for (fi, model) in ws.files.iter().enumerate() {
                let (h, st) = hygiene(model, |line, canon| uses.is_used(fi, line, canon));
                hyg.extend(h);
                stales.extend(st);
            }
            lap(&mut timings, &mut mark, "hygiene");
            SemanticEntry { diags, hyg, stales }
        }
    };

    // Merge and sort exactly as `analyze` does.
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut stale_allows: Vec<StaleAllow> = Vec::new();
    for p in &per_file {
        diagnostics.extend(p.entry.diags.iter().cloned());
        diagnostics.extend(p.entry.hyg.iter().cloned());
        stale_allows.extend(p.entry.stales.iter().cloned());
    }
    diagnostics.extend(semantic.diags.iter().cloned());
    diagnostics.extend(semantic.hyg.iter().cloned());
    stale_allows.extend(semantic.stales.iter().cloned());
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    stale_allows.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));

    let entries: Vec<(String, FileEntry)> =
        per_file.into_iter().map(|p| (p.path, p.entry)).collect();
    save_cache(cache_path, closure, &entries, &semantic)?;
    lap(&mut timings, &mut mark, "cache-write");

    let stats = EngineStats {
        files_scanned,
        files_reanalyzed,
        semantic_reran,
        elapsed_ms: t0.elapsed().as_millis(),
        timings_ms: timings,
    };
    Ok((
        Analysis {
            files_scanned,
            diagnostics,
            stale_allows,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn fixture_root(tag: &str, files: &[(&str, &str)]) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("ocdd-lint-incr-{}-{}", std::process::id(), tag));
        let _ = std::fs::remove_dir_all(&root);
        for (path, content) in files {
            let abs = root.join(path);
            std::fs::create_dir_all(abs.parent().expect("file under root")).expect("mkdir fixture");
            ocdd_iosafe::atomic_write_str(&abs, content).expect("write fixture");
        }
        root
    }

    const CLEAN_CORE: &str = "pub fn f() -> Option<u32> { Some(1) }\n";
    const OUT_OF_SCOPE: &str = "pub fn aux() -> u32 { 2 }\n";

    fn base_files() -> Vec<(&'static str, &'static str)> {
        vec![
            ("crates/core/src/check.rs", CLEAN_CORE),
            ("crates/other/src/lib.rs", OUT_OF_SCOPE),
        ]
    }

    #[test]
    fn cold_then_warm_replay_is_identical_and_skips_everything() {
        let root = fixture_root("warm", &base_files());
        let cache = root.join("results/lint_cache.json");
        let (cold, cold_stats) = analyze_incremental(&root, &cache).expect("cold run");
        assert_eq!(cold_stats.files_reanalyzed, 2);
        assert!(cold_stats.semantic_reran);
        let plain = crate::analyze(crate::collect_files(&root).expect("collect"));
        assert_eq!(cold.diagnostics, plain.diagnostics);
        assert_eq!(cold.stale_allows, plain.stale_allows);

        let (warm, warm_stats) = analyze_incremental(&root, &cache).expect("warm run");
        assert_eq!(warm_stats.files_reanalyzed, 0, "warm run must replay");
        assert!(!warm_stats.semantic_reran);
        assert_eq!(warm.diagnostics, cold.diagnostics);
        assert_eq!(warm.stale_allows, cold.stale_allows);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn out_of_scope_edit_reanalyzes_one_file_without_semantic_rerun() {
        let root = fixture_root("oos", &base_files());
        let cache = root.join("results/lint_cache.json");
        analyze_incremental(&root, &cache).expect("cold run");
        ocdd_iosafe::atomic_write_str(
            &root.join("crates/other/src/lib.rs"),
            "pub fn aux() -> u32 { 3 }\n",
        )
        .expect("edit");
        let (_, stats) = analyze_incremental(&root, &cache).expect("incremental run");
        assert_eq!(stats.files_reanalyzed, 1);
        assert!(!stats.semantic_reran, "out-of-scope edit keeps the closure");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn in_scope_edit_reruns_semantic_and_updates_findings() {
        let root = fixture_root("scope", &base_files());
        let cache = root.join("results/lint_cache.json");
        let (before, _) = analyze_incremental(&root, &cache).expect("cold run");
        assert!(before.diagnostics.is_empty(), "{:?}", before.diagnostics);
        ocdd_iosafe::atomic_write_str(
            &root.join("crates/core/src/check.rs"),
            "pub fn f(x: u64) -> u8 { x as u8 }\n",
        )
        .expect("edit");
        let (after, stats) = analyze_incremental(&root, &cache).expect("incremental run");
        assert_eq!(stats.files_reanalyzed, 1);
        assert!(stats.semantic_reran);
        assert!(
            after.diagnostics.iter().any(|d| d.rule == "lossy-cast"),
            "{:?}",
            after.diagnostics
        );
        // And the diagnostics match a from-scratch analysis.
        let plain = crate::analyze(crate::collect_files(&root).expect("collect"));
        assert_eq!(after.diagnostics, plain.diagnostics);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_cache_degrades_to_cold_run() {
        let root = fixture_root("corrupt", &base_files());
        let cache = root.join("results/lint_cache.json");
        analyze_incremental(&root, &cache).expect("cold run");
        ocdd_iosafe::atomic_write_str(&cache, "{ not json ").expect("corrupt");
        let (_, stats) = analyze_incremental(&root, &cache).expect("recover");
        assert_eq!(stats.files_reanalyzed, 2, "full cold rerun");
        assert!(stats.semantic_reran);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cache_roundtrips_diagnostics_exactly() {
        let d = Diagnostic {
            path: "crates/core/src/x.rs".into(),
            line: 7,
            rule: "lossy-cast",
            message: "inferred range [0, 70000] does not fit u8 \"quoted\"".into(),
            chain: vec!["`x` defined at line 3".into(), "`as u8` wraps".into()],
        };
        let mut w = Writer::new();
        write_diag(&mut w, &d);
        let parsed = json::parse(&w.finish()).expect("parse");
        assert_eq!(read_diag(&parsed).expect("roundtrip"), d);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
    }
}
