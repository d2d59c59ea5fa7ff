//! Durable checkpoint/resume: versioned dumps of the level-synchronous
//! search state (DESIGN.md §13).
//!
//! At every level boundary the search frontier is a complete description
//! of the remaining work: the surviving candidates of the next level, the
//! per-branch check allowances already spent, the quarantine set, and the
//! results accumulated so far. [`SearchSnapshot`] captures exactly that
//! state plus enough metadata to refuse a wrong resume — a format version,
//! a manifest hash of the input relation
//! ([`ocdd_relation::manifest::manifest_hash`]), and the semantic
//! configuration fingerprint ([`SnapshotConfig`]).
//!
//! Dumps are written atomically (tmp + fsync + rename, via
//! [`ocdd_iosafe::atomic_write`]) under the [`CheckpointPolicy`] knob of
//! [`crate::DiscoveryConfig::checkpoint`], and resumed with
//! [`crate::search::discover_resume`], which replays the remaining levels
//! byte-identically to an uninterrupted run — across every level-
//! synchronous backend, because the per-branch allowance replay of the
//! speculative post-filter is itself deterministic.
//!
//! The serialization is hand-rolled JSON with a matching minimal parser
//! (this repository deliberately has no serde); all integers are unsigned
//! decimals, column references are ids over the *original* schema (stable
//! under resume because the manifest pins the schema), and object keys are
//! emitted in a fixed documented order so dumps of identical state are
//! byte-identical too.

use crate::config::DiscoveryConfig;
use crate::results::LevelStats;
use crate::runtime::TerminationReason;
use crate::shared_cache::CacheStats;
use ocdd_relation::sort::kernel_stats::KernelCounts;
use ocdd_relation::{manifest_hash, ColumnId, Relation};
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Version tag of the dump format. Readers reject any other value — the
/// rejection rules are part of DESIGN.md §13.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Magic string identifying a dump file (`"format"` field).
pub const SNAPSHOT_MAGIC: &str = "ocdd-snapshot";

/// Checkpointing policy, installed via
/// [`crate::DiscoveryConfig::checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Directory the dumps are written to (created on demand).
    pub dir: PathBuf,
    /// Write a dump every this many level boundaries (1 = every boundary;
    /// the initial boundary before level 2 is always written). Values of 0
    /// behave like 1.
    pub every_levels: usize,
    /// Retention: keep at most this many boundary dumps per run, deleting
    /// the oldest (0 = keep all). Final dumps are never GC'd.
    pub keep_last: usize,
    /// Delete this run's dumps once the search terminates with
    /// [`TerminationReason::Complete`] — a finished run needs no resume
    /// point, and long-running services must not leak dump files.
    pub delete_on_complete: bool,
    /// Record pruned candidates (checked, found invalid) in the dump so
    /// `ocdd dump-dot` can render per-node verdicts. Costs memory
    /// proportional to the pruned set; disable for huge searches.
    pub record_pruned: bool,
}

impl CheckpointPolicy {
    /// Policy with defaults: every boundary, keep the last 3 dumps,
    /// delete on completion, record pruned candidates.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointPolicy {
        CheckpointPolicy {
            dir: dir.into(),
            every_levels: 1,
            keep_last: 3,
            delete_on_complete: true,
            record_pruned: true,
        }
    }
}

/// Checkpointing observability, reported in
/// [`crate::DiscoveryResult::checkpoint`] when a policy was installed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Dumps successfully written (boundary + final).
    pub snapshots_written: u64,
    /// Dump files deleted by retention or completion GC.
    pub files_deleted: u64,
    /// Dump writes that failed (the run continues; a checkpoint failure
    /// must never kill a search).
    pub write_errors: u64,
    /// Level number of the newest dump written.
    pub last_level: usize,
}

/// The semantic configuration fingerprint stored in a dump. Resuming under
/// a config whose fingerprint differs is rejected: these four knobs change
/// which candidates exist, their order, or their allowances — everything
/// else (checker backend, parallel mode, caches) is free to differ because
/// results are proven independent of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotConfig {
    /// `max_checks` of the original run (allowances derive from it).
    pub max_checks: Option<u64>,
    /// `max_level` of the original run.
    pub max_level: Option<usize>,
    /// Whether candidates were deduplicated within levels.
    pub dedup_candidates: bool,
    /// Whether column reduction preprocessing ran.
    pub column_reduction: bool,
}

impl SnapshotConfig {
    /// Extract the fingerprint from a run configuration.
    pub fn from_config(config: &DiscoveryConfig) -> SnapshotConfig {
        SnapshotConfig {
            max_checks: config.max_checks,
            max_level: config.max_level,
            dedup_candidates: config.dedup_candidates,
            column_reduction: config.column_reduction,
        }
    }

    /// First differing knob vs `other`, if any.
    fn mismatch(&self, other: &SnapshotConfig) -> Option<&'static str> {
        if self.max_checks != other.max_checks {
            Some("max_checks")
        } else if self.max_level != other.max_level {
            Some("max_level")
        } else if self.dedup_candidates != other.dedup_candidates {
            Some("dedup_candidates")
        } else if self.column_reduction != other.column_reduction {
            Some("column_reduction")
        } else {
            None
        }
    }
}

/// A pair of attribute lists (column ids) — a candidate, an OCD, or an OD
/// depending on context.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CandidatePair {
    /// Left list.
    pub x: Vec<ColumnId>,
    /// Right list.
    pub y: Vec<ColumnId>,
}

/// Per-branch allowance accounting at the dumped boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotBranch {
    /// The level-2 branch (pair of first attributes, seed order).
    pub branch: (ColumnId, ColumnId),
    /// The branch's share of `max_checks` (`u64::MAX` when unlimited).
    pub allowance: u64,
    /// Checks the branch has spent so far.
    pub spent: u64,
    /// The branch stopped on its own allowance.
    pub stopped: bool,
    /// The branch was quarantined after a panic.
    pub failed: bool,
}

/// One quarantined branch with its panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFailure {
    /// The quarantined level-2 branch.
    pub branch: (ColumnId, ColumnId),
    /// Panic payload text.
    pub message: String,
}

/// Epoch-cache / shared-cache metadata of the dumped run (observability —
/// resume never needs it, since cache contents cannot change verdicts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheMeta {
    /// Whether the run shared one prefix cache across workers.
    pub shared: bool,
    /// Byte budget of the shared cache.
    pub budget_bytes: u64,
    /// Counter snapshot at the boundary.
    pub stats: CacheStats,
}

/// Sampling metadata of an approximate-pipeline dump (DESIGN.md §14).
///
/// A resume of an approximate run must rebuild *the same sample* the
/// original run triaged on — otherwise the resumed half of the lattice is
/// judged against different evidence and the combined result matches
/// neither run. [`crate::discover_approximate_resume`] therefore re-draws
/// the sample from this metadata and rejects on any mismatch
/// ([`SnapshotError::SampleMismatch`]), mirroring the manifest-hash check
/// on the parent relation.
///
/// Floats (`epsilon`, `confidence`) are stored as exact integer
/// micro-units because the dump parser deliberately accepts only unsigned
/// integers; OCD errors are stored as `(removals, rows)` rationals for the
/// same reason. The triage counters accumulated up to the boundary make a
/// resumed run's [`crate::ApproxStats`] equal the uninterrupted run's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApproxMeta {
    /// Sampling seed of the run.
    pub seed: u64,
    /// Rows actually drawn into the sample.
    pub sample_rows: u64,
    /// Rows of the parent relation.
    pub total_rows: u64,
    /// Strategy label (`"uniform"` / `"stratified"`).
    pub strategy: String,
    /// Stratification column, when the strategy is stratified.
    pub strategy_column: Option<u64>,
    /// Manifest hash of the materialized sample relation.
    pub sample_manifest: u64,
    /// Tolerance ε in micro-units (`round(ε · 1e6)`).
    pub epsilon_micros: u64,
    /// Confidence level in micro-units (`round(confidence · 1e6)`).
    pub confidence_micros: u64,
    /// Per-OCD `(swap removals, rows)` error rationals, aligned with the
    /// dump's `ocds` array.
    pub ocd_errors: Vec<(u64, u64)>,
    /// [`crate::ApproxStats::estimated`] so far.
    pub estimated: u64,
    /// [`crate::ApproxStats::accepted_by_sample`] so far.
    pub accepted_by_sample: u64,
    /// [`crate::ApproxStats::rejected_by_sample`] so far.
    pub rejected_by_sample: u64,
    /// [`crate::ApproxStats::escalated`] so far.
    pub escalated: u64,
    /// [`crate::ApproxStats::sample_row_scans`] so far.
    pub sample_row_scans: u64,
    /// [`crate::ApproxStats::full_row_scans`] so far.
    pub full_row_scans: u64,
}

/// Convert a `[0, 1]` fraction to exact micro-units for a dump.
pub fn to_micros(fraction: f64) -> u64 {
    (fraction.clamp(0.0, 1.0) * 1_000_000.0).round() as u64
}

/// A versioned dump of the level-synchronous search state at one level
/// boundary. See the module docs for the durability and identity
/// guarantees; DESIGN.md §13 specifies the on-disk field layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSnapshot {
    /// Format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Manifest hash of the input relation.
    pub manifest: u64,
    /// Semantic configuration fingerprint.
    pub config: SnapshotConfig,
    /// The next level to process (combined list length); the initial
    /// boundary dumps `level = 2` with the seed pairs as frontier.
    pub level: usize,
    /// Surviving candidates of the next level, in canonical level order
    /// (each carries its sort-key prefix as its `x` side).
    pub frontier: Vec<CandidatePair>,
    /// Per-branch allowance accounting, sorted by branch.
    pub branches: Vec<SnapshotBranch>,
    /// Quarantined branches so far.
    pub failures: Vec<SnapshotFailure>,
    /// Minimal OCDs accumulated so far (search emissions only).
    pub ocds: Vec<CandidatePair>,
    /// ODs accumulated so far (search emissions only; reduction facts are
    /// recomputed on resume).
    pub ods: Vec<CandidatePair>,
    /// Candidates generated so far (pre-dedup).
    pub generated: u64,
    /// Per-level stats accumulated so far.
    pub levels: Vec<LevelStats>,
    /// `max_level` already truncated a branch.
    pub level_capped: bool,
    /// A branch already ran out of its check allowance.
    pub check_budget_hit: bool,
    /// Budget checks counter at the boundary (reduction + absorbed).
    pub checks: u64,
    /// Wall-clock milliseconds spent up to the boundary (observability;
    /// resumed runs report cumulative elapsed time).
    pub elapsed_ms: u64,
    /// Sort/scan kernel counters at the boundary, so a resumed run's
    /// kernel totals match the uninterrupted run's.
    pub kernels: KernelCounts,
    /// Shared-cache metadata, when the run had a shared cache.
    pub cache: Option<CacheMeta>,
    /// Sampling metadata when the dump came from the approximate
    /// pipeline; `None` for exact-search dumps (and absent from their
    /// serialized form, keeping them byte-identical to pre-§14 dumps).
    pub approx: Option<ApproxMeta>,
    /// Candidates checked and found invalid (subtree pruned), recorded
    /// when [`CheckpointPolicy::record_pruned`] is on — the raw material
    /// of `ocdd dump-dot`'s per-node verdicts.
    pub pruned: Vec<CandidatePair>,
    /// Present only in a *final* dump of a run that stopped early: why it
    /// stopped. Boundary dumps of a live run carry `null`.
    pub termination: Option<TerminationReason>,
}

/// Why a dump could not be read, validated, or resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem error (message text).
    Io(String),
    /// The file is not a well-formed dump: bad JSON, a missing or mistyped
    /// field, or contents that contradict the relation or each other (the
    /// message names the field).
    Parse(String),
    /// The `"format"` magic is wrong — not an ocdd dump at all.
    BadMagic(String),
    /// The dump's format version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the dump.
        found: u64,
        /// Version this build reads.
        supported: u32,
    },
    /// The dump was taken on a different input relation.
    ManifestMismatch {
        /// Manifest hash stored in the dump.
        snapshot: u64,
        /// Manifest hash of the relation offered for resume.
        relation: u64,
    },
    /// A semantic configuration knob differs between the dump and the
    /// resume config (named knob).
    ConfigMismatch(&'static str),
    /// An approximate-run dump's sampling metadata does not match the
    /// resume configuration (named field), or an exact/approximate
    /// resume was attempted on a dump of the other kind — the rebuilt
    /// sample would not be the one the run triaged on.
    SampleMismatch(&'static str),
    /// No dump file found (e.g. resuming from an empty directory).
    NoSnapshot(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(m) => write!(f, "snapshot io error: {m}"),
            SnapshotError::Parse(m) => write!(f, "snapshot parse error: {m}"),
            SnapshotError::BadMagic(m) => {
                write!(f, "not an ocdd snapshot (format tag {m:?})")
            }
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {supported})"
            ),
            SnapshotError::ManifestMismatch { snapshot, relation } => write!(
                f,
                "manifest mismatch: snapshot was taken on relation {snapshot:016x}, \
                 resume input hashes to {relation:016x}"
            ),
            SnapshotError::ConfigMismatch(knob) => write!(
                f,
                "config mismatch: `{knob}` differs from the checkpointed run \
                 (results would diverge; rerun from scratch instead)"
            ),
            SnapshotError::SampleMismatch(field) => write!(
                f,
                "sample mismatch: `{field}` differs from the checkpointed \
                 approximate run (the resumed sample would not be the one \
                 the run triaged on; rerun from scratch instead)"
            ),
            SnapshotError::NoSnapshot(m) => write!(f, "no snapshot found: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SearchSnapshot {
    /// Validate this dump against a resume input and configuration:
    /// version tag, manifest hash, semantic config fingerprint, and the
    /// dump's own consistency — every column id below the relation's
    /// column count, and a `branches` record for the branch of every
    /// frontier candidate (the rejection rules of DESIGN.md §13).
    pub fn validate(&self, rel: &Relation, config: &DiscoveryConfig) -> Result<(), SnapshotError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: u64::from(self.version),
                supported: SNAPSHOT_VERSION,
            });
        }
        let relation = manifest_hash(rel);
        if self.manifest != relation {
            return Err(SnapshotError::ManifestMismatch {
                snapshot: self.manifest,
                relation,
            });
        }
        let fp = SnapshotConfig::from_config(config);
        if let Some(knob) = self.config.mismatch(&fp) {
            return Err(SnapshotError::ConfigMismatch(knob));
        }
        self.check_ids(rel.num_columns())?;
        // A candidate without its branch's record would be skipped
        // silently: the driver keeps no state for it.
        let recorded: std::collections::BTreeSet<(ColumnId, ColumnId)> =
            self.branches.iter().map(|b| b.branch).collect();
        for p in &self.frontier {
            let branch = (
                p.x.first().copied().unwrap_or(ColumnId::MAX),
                p.y.first().copied().unwrap_or(ColumnId::MAX),
            );
            if !recorded.contains(&branch) {
                return Err(SnapshotError::Parse(format!(
                    "`branches` has no record of branch ({}, {}) of frontier candidate {:?} ~ {:?}",
                    branch.0, branch.1, p.x, p.y
                )));
            }
        }
        Ok(())
    }

    /// Require every column id the dump names to be below `columns`.
    fn check_ids(&self, columns: usize) -> Result<(), SnapshotError> {
        let out_of_range = |field: &str, id: ColumnId| {
            Err(SnapshotError::Parse(format!(
                "`{field}` names column {id}, but the relation has {columns} columns"
            )))
        };
        let pairs = [
            ("frontier", &self.frontier),
            ("ocds", &self.ocds),
            ("ods", &self.ods),
            ("pruned", &self.pruned),
        ];
        for (field, list) in pairs {
            if let Some(&id) = list
                .iter()
                .flat_map(|p| p.x.iter().chain(&p.y))
                .find(|&&id| id >= columns)
            {
                return out_of_range(field, id);
            }
        }
        let branches = self.branches.iter().map(|b| ("branches", b.branch));
        let failures = self.failures.iter().map(|f| ("failures", f.branch));
        for (field, (a, b)) in branches.chain(failures) {
            if let Some(id) = [a, b].into_iter().find(|&id| id >= columns) {
                return out_of_range(field, id);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Serialization (writer)
// ---------------------------------------------------------------------------

/// Escape a string for a JSON string literal (same rules as
/// [`crate::json`]).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn id_array(ids: &[ColumnId]) -> String {
    let parts: Vec<String> = ids.iter().map(|c| c.to_string()).collect();
    format!("[{}]", parts.join(","))
}

fn pair_array(pairs: &[CandidatePair]) -> String {
    let parts: Vec<String> = pairs
        .iter()
        .map(|p| format!("{{\"x\":{},\"y\":{}}}", id_array(&p.x), id_array(&p.y)))
        .collect();
    format!("[{}]", parts.join(","))
}

fn opt_u64_json(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

/// Serialize a [`TerminationReason`] for a dump. Round-trips through
/// [`parse_termination_value`] for every variant, `WorkerFailure` payload
/// included.
fn termination_json(t: &TerminationReason) -> String {
    match t {
        TerminationReason::WorkerFailure { branches, message } => {
            let pairs: Vec<String> = branches
                .iter()
                .map(|&(a, b)| format!("[{a},{b}]"))
                .collect();
            format!(
                "{{\"kind\":\"worker_failure\",\"branches\":[{}],\"message\":\"{}\"}}",
                pairs.join(","),
                escape(message)
            )
        }
        other => format!("{{\"kind\":\"{}\"}}", other.label()),
    }
}

/// Serialize a dump to its canonical JSON text: fixed key order, unsigned
/// decimal integers, ids over the original schema. Identical snapshots
/// serialize byte-identically.
pub fn snapshot_to_json(snap: &SearchSnapshot) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"format\":\"{SNAPSHOT_MAGIC}\",\"version\":{},\"manifest\":\"{:016x}\",",
        snap.version, snap.manifest
    );
    let _ = write!(
        out,
        "\"config\":{{\"max_checks\":{},\"max_level\":{},\"dedup_candidates\":{},\"column_reduction\":{}}},",
        opt_u64_json(snap.config.max_checks),
        opt_u64_json(snap.config.max_level.map(|l| l as u64)),
        snap.config.dedup_candidates,
        snap.config.column_reduction,
    );
    let _ = write!(out, "\"level\":{},", snap.level);
    let _ = write!(out, "\"frontier\":{},", pair_array(&snap.frontier));
    let branches: Vec<String> = snap
        .branches
        .iter()
        .map(|b| {
            format!(
                "{{\"x\":{},\"y\":{},\"allowance\":{},\"spent\":{},\"stopped\":{},\"failed\":{}}}",
                b.branch.0, b.branch.1, b.allowance, b.spent, b.stopped, b.failed
            )
        })
        .collect();
    let _ = write!(out, "\"branches\":[{}],", branches.join(","));
    let failures: Vec<String> = snap
        .failures
        .iter()
        .map(|f| {
            format!(
                "{{\"x\":{},\"y\":{},\"message\":\"{}\"}}",
                f.branch.0,
                f.branch.1,
                escape(&f.message)
            )
        })
        .collect();
    let _ = write!(out, "\"failures\":[{}],", failures.join(","));
    let _ = write!(out, "\"ocds\":{},", pair_array(&snap.ocds));
    let _ = write!(out, "\"ods\":{},", pair_array(&snap.ods));
    let _ = write!(out, "\"generated\":{},", snap.generated);
    let levels: Vec<String> = snap
        .levels
        .iter()
        .map(|l| {
            format!(
                "{{\"level\":{},\"candidates\":{},\"valid_ocds\":{},\"valid_ods\":{}}}",
                l.level, l.candidates, l.valid_ocds, l.valid_ods
            )
        })
        .collect();
    let _ = write!(out, "\"levels\":[{}],", levels.join(","));
    let _ = write!(
        out,
        "\"level_capped\":{},\"check_budget_hit\":{},\"checks\":{},\"elapsed_ms\":{},",
        snap.level_capped, snap.check_budget_hit, snap.checks, snap.elapsed_ms
    );
    let k = &snap.kernels;
    let _ = write!(
        out,
        "\"kernels\":{{\"counting\":{},\"packed_radix\":{},\"chained_refine\":{},\"comparator\":{},\"scan_scalar\":{},\"scan_block\":{},\"scan_simd\":{}}},",
        k.counting, k.packed_radix, k.chained_refine, k.comparator, k.scan_scalar, k.scan_block, k.scan_simd,
    );
    match &snap.cache {
        None => out.push_str("\"cache\":null,"),
        Some(c) => {
            let _ = write!(
                out,
                "\"cache\":{{\"shared\":{},\"budget_bytes\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\"resident_bytes\":{},\"entries\":{}}},",
                c.shared,
                c.budget_bytes,
                c.stats.hits,
                c.stats.misses,
                c.stats.evictions,
                c.stats.resident_bytes,
                c.stats.entries,
            );
        }
    }
    if let Some(a) = &snap.approx {
        let errs: Vec<String> = a
            .ocd_errors
            .iter()
            .map(|&(r, m)| format!("[{r},{m}]"))
            .collect();
        let _ = write!(
            out,
            "\"approx\":{{\"seed\":{},\"sample_rows\":{},\"total_rows\":{},\"strategy\":\"{}\",\"strategy_column\":{},\"sample_manifest\":\"{:016x}\",\"epsilon_micros\":{},\"confidence_micros\":{},\"ocd_errors\":[{}],",
            a.seed,
            a.sample_rows,
            a.total_rows,
            escape(&a.strategy),
            opt_u64_json(a.strategy_column),
            a.sample_manifest,
            a.epsilon_micros,
            a.confidence_micros,
            errs.join(","),
        );
        let _ = write!(
            out,
            "\"estimated\":{},\"accepted_by_sample\":{},\"rejected_by_sample\":{},\"escalated\":{},\"sample_row_scans\":{},\"full_row_scans\":{}}},",
            a.estimated,
            a.accepted_by_sample,
            a.rejected_by_sample,
            a.escalated,
            a.sample_row_scans,
            a.full_row_scans,
        );
    }
    let _ = write!(out, "\"pruned\":{},", pair_array(&snap.pruned));
    match &snap.termination {
        None => out.push_str("\"termination\":null}"),
        Some(t) => {
            let _ = write!(out, "\"termination\":{}}}", termination_json(t));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (reader)
// ---------------------------------------------------------------------------

/// Parsed JSON value. Numbers are unsigned 64-bit integers — the dump
/// format emits nothing else, and `u64` covers the `u64::MAX` allowance
/// sentinel that an `f64` would silently round.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

const MAX_DEPTH: usize = 64;

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            b: text.as_bytes(),
            i: 0,
        }
    }

    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.i))
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.i += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn require(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected {:?}", c as char))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        let bytes = lit.as_bytes();
        if self.b.get(self.i..self.i + bytes.len()) == Some(bytes) {
            self.i += bytes.len();
            Ok(value)
        } else {
            self.err(&format!("expected `{lit}`"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        let mut value: u64 = 0;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {
                    let digit = u64::from(c - b'0');
                    value = match value.checked_mul(10).and_then(|v| v.checked_add(digit)) {
                        Some(v) => v,
                        None => return self.err("integer out of u64 range"),
                    };
                    self.i += 1;
                }
                b'.' | b'e' | b'E' | b'-' | b'+' => {
                    return self.err("only unsigned integers are valid in dumps")
                }
                _ => break,
            }
        }
        if self.i == start {
            return self.err("expected digit");
        }
        Ok(Json::Num(value))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let Some(c) = self.bump() else {
                return self.err("truncated \\u escape");
            };
            let digit = match c {
                b'0'..=b'9' => u32::from(c - b'0'),
                b'a'..=b'f' => u32::from(c - b'a') + 10,
                b'A'..=b'F' => u32::from(c - b'A') + 10,
                _ => return self.err("bad hex digit in \\u escape"),
            };
            v = v * 16 + digit;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.require(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.i;
            // Fast path: copy a run of plain bytes at once.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.i += 1;
            }
            if self.i > start {
                match std::str::from_utf8(self.b.get(start..self.i).unwrap_or_default()) {
                    Ok(s) => out.push_str(s),
                    Err(_) => return self.err("invalid utf-8 in string"),
                }
            }
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let cp = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return self.err("unpaired surrogate in \\u escape");
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return self.err("bad low surrogate in \\u escape");
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        match char::from_u32(cp) {
                            Some(c) => out.push(c),
                            None => return self.err("invalid code point in \\u escape"),
                        }
                    }
                    _ => return self.err("bad escape in string"),
                },
                _ => return self.err("unterminated string"),
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.require(b':')?;
                    let val = self.value(depth + 1)?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(Json::Obj(fields)),
                        _ => return self.err("expected `,` or `}`"),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Json::Arr(items)),
                        _ => return self.err("expected `,` or `]`"),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != p.b.len() {
        return p.err("trailing data after JSON document");
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Field extraction
// ---------------------------------------------------------------------------

fn perr<T>(msg: String) -> Result<T, SnapshotError> {
    Err(SnapshotError::Parse(msg))
}

fn get<'v>(obj: &'v [(String, Json)], key: &str) -> Option<&'v Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn req<'v>(obj: &'v [(String, Json)], key: &str) -> Result<&'v Json, SnapshotError> {
    get(obj, key).map_or_else(|| perr(format!("missing field `{key}`")), Ok)
}

fn as_obj<'v>(v: &'v Json, ctx: &str) -> Result<&'v [(String, Json)], SnapshotError> {
    match v {
        Json::Obj(fields) => Ok(fields),
        _ => perr(format!("`{ctx}` must be an object")),
    }
}

fn as_arr<'v>(v: &'v Json, ctx: &str) -> Result<&'v [Json], SnapshotError> {
    match v {
        Json::Arr(items) => Ok(items),
        _ => perr(format!("`{ctx}` must be an array")),
    }
}

fn as_u64(v: &Json, ctx: &str) -> Result<u64, SnapshotError> {
    match v {
        Json::Num(n) => Ok(*n),
        _ => perr(format!("`{ctx}` must be an unsigned integer")),
    }
}

fn as_usize(v: &Json, ctx: &str) -> Result<usize, SnapshotError> {
    let n = as_u64(v, ctx)?;
    usize::try_from(n).map_or_else(|_| perr(format!("`{ctx}` out of usize range")), Ok)
}

fn as_bool(v: &Json, ctx: &str) -> Result<bool, SnapshotError> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => perr(format!("`{ctx}` must be a boolean")),
    }
}

fn as_str<'v>(v: &'v Json, ctx: &str) -> Result<&'v str, SnapshotError> {
    match v {
        Json::Str(s) => Ok(s),
        _ => perr(format!("`{ctx}` must be a string")),
    }
}

fn opt_u64(v: &Json, ctx: &str) -> Result<Option<u64>, SnapshotError> {
    match v {
        Json::Null => Ok(None),
        other => as_u64(other, ctx).map(Some),
    }
}

fn id_list(v: &Json, ctx: &str) -> Result<Vec<ColumnId>, SnapshotError> {
    as_arr(v, ctx)?
        .iter()
        .map(|item| as_usize(item, ctx))
        .collect()
}

fn pair_list(v: &Json, ctx: &str) -> Result<Vec<CandidatePair>, SnapshotError> {
    as_arr(v, ctx)?
        .iter()
        .map(|item| {
            let obj = as_obj(item, ctx)?;
            Ok(CandidatePair {
                x: id_list(req(obj, "x")?, ctx)?,
                y: id_list(req(obj, "y")?, ctx)?,
            })
        })
        .collect()
}

/// Parse a serialized [`TerminationReason`] (the `"termination"` object).
fn parse_termination_value(v: &Json) -> Result<TerminationReason, SnapshotError> {
    let obj = as_obj(v, "termination")?;
    let kind = as_str(req(obj, "kind")?, "termination.kind")?;
    match kind {
        "complete" => Ok(TerminationReason::Complete),
        "level_cap" => Ok(TerminationReason::LevelCap),
        "check_budget" => Ok(TerminationReason::CheckBudget),
        "time_budget" => Ok(TerminationReason::TimeBudget),
        "cancelled" => Ok(TerminationReason::Cancelled),
        "worker_failure" => {
            let branches = as_arr(req(obj, "branches")?, "termination.branches")?
                .iter()
                .map(|pair| {
                    let ids = id_list(pair, "termination.branches")?;
                    match ids.as_slice() {
                        [a, b] => Ok((*a, *b)),
                        _ => perr("termination branch must be a pair".to_string()),
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            let message = as_str(req(obj, "message")?, "termination.message")?.to_string();
            Ok(TerminationReason::WorkerFailure { branches, message })
        }
        other => perr(format!("unknown termination kind `{other}`")),
    }
}

/// Parse dump JSON text into a [`SearchSnapshot`], enforcing the magic and
/// version rejection rules (manifest/config validation is separate — see
/// [`SearchSnapshot::validate`] — so tooling like `dump-dot` can read a
/// dump without the original input at hand).
pub fn parse_snapshot(text: &str) -> Result<SearchSnapshot, SnapshotError> {
    let root = parse_json(text).map_err(SnapshotError::Parse)?;
    let obj = as_obj(&root, "snapshot")?;

    let magic = as_str(req(obj, "format")?, "format")?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic(magic.to_string()));
    }
    let version = as_u64(req(obj, "version")?, "version")?;
    if version != u64::from(SNAPSHOT_VERSION) {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let manifest_text = as_str(req(obj, "manifest")?, "manifest")?;
    let manifest = u64::from_str_radix(manifest_text, 16)
        .map_err(|_| SnapshotError::Parse("`manifest` must be a hex string".to_string()))?;

    let cfg = as_obj(req(obj, "config")?, "config")?;
    let config = SnapshotConfig {
        max_checks: opt_u64(req(cfg, "max_checks")?, "config.max_checks")?,
        max_level: opt_u64(req(cfg, "max_level")?, "config.max_level")?
            .map(|l| usize::try_from(l).unwrap_or(usize::MAX)),
        dedup_candidates: as_bool(req(cfg, "dedup_candidates")?, "config.dedup_candidates")?,
        column_reduction: as_bool(req(cfg, "column_reduction")?, "config.column_reduction")?,
    };

    let branches = as_arr(req(obj, "branches")?, "branches")?
        .iter()
        .map(|item| {
            let b = as_obj(item, "branches")?;
            Ok(SnapshotBranch {
                branch: (
                    as_usize(req(b, "x")?, "branches.x")?,
                    as_usize(req(b, "y")?, "branches.y")?,
                ),
                allowance: as_u64(req(b, "allowance")?, "branches.allowance")?,
                spent: as_u64(req(b, "spent")?, "branches.spent")?,
                stopped: as_bool(req(b, "stopped")?, "branches.stopped")?,
                failed: as_bool(req(b, "failed")?, "branches.failed")?,
            })
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;

    let failures = as_arr(req(obj, "failures")?, "failures")?
        .iter()
        .map(|item| {
            let f = as_obj(item, "failures")?;
            Ok(SnapshotFailure {
                branch: (
                    as_usize(req(f, "x")?, "failures.x")?,
                    as_usize(req(f, "y")?, "failures.y")?,
                ),
                message: as_str(req(f, "message")?, "failures.message")?.to_string(),
            })
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;

    let levels = as_arr(req(obj, "levels")?, "levels")?
        .iter()
        .map(|item| {
            let l = as_obj(item, "levels")?;
            Ok(LevelStats {
                level: as_usize(req(l, "level")?, "levels.level")?,
                candidates: as_u64(req(l, "candidates")?, "levels.candidates")?,
                valid_ocds: as_u64(req(l, "valid_ocds")?, "levels.valid_ocds")?,
                valid_ods: as_u64(req(l, "valid_ods")?, "levels.valid_ods")?,
            })
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;

    let k = as_obj(req(obj, "kernels")?, "kernels")?;
    let kernels = KernelCounts {
        counting: as_u64(req(k, "counting")?, "kernels.counting")?,
        packed_radix: as_u64(req(k, "packed_radix")?, "kernels.packed_radix")?,
        chained_refine: as_u64(req(k, "chained_refine")?, "kernels.chained_refine")?,
        comparator: as_u64(req(k, "comparator")?, "kernels.comparator")?,
        scan_scalar: as_u64(req(k, "scan_scalar")?, "kernels.scan_scalar")?,
        scan_block: as_u64(req(k, "scan_block")?, "kernels.scan_block")?,
        scan_simd: as_u64(req(k, "scan_simd")?, "kernels.scan_simd")?,
    };

    let cache = match req(obj, "cache")? {
        Json::Null => None,
        v => {
            let c = as_obj(v, "cache")?;
            Some(CacheMeta {
                shared: as_bool(req(c, "shared")?, "cache.shared")?,
                budget_bytes: as_u64(req(c, "budget_bytes")?, "cache.budget_bytes")?,
                stats: CacheStats {
                    hits: as_u64(req(c, "hits")?, "cache.hits")?,
                    misses: as_u64(req(c, "misses")?, "cache.misses")?,
                    evictions: as_u64(req(c, "evictions")?, "cache.evictions")?,
                    resident_bytes: as_u64(req(c, "resident_bytes")?, "cache.resident_bytes")?,
                    entries: as_u64(req(c, "entries")?, "cache.entries")?,
                },
            })
        }
    };

    let termination = match req(obj, "termination")? {
        Json::Null => None,
        v => Some(parse_termination_value(v)?),
    };

    // Optional: absent (pre-§14 dump or exact-search dump) means `None`.
    let approx = match get(obj, "approx") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let a = as_obj(v, "approx")?;
            let sample_manifest_text =
                as_str(req(a, "sample_manifest")?, "approx.sample_manifest")?;
            let sample_manifest = u64::from_str_radix(sample_manifest_text, 16).map_err(|_| {
                SnapshotError::Parse("`approx.sample_manifest` must be a hex string".to_string())
            })?;
            let ocd_errors = as_arr(req(a, "ocd_errors")?, "approx.ocd_errors")?
                .iter()
                .map(|pair| {
                    let nums = as_arr(pair, "approx.ocd_errors")?;
                    match nums {
                        [r, m] => Ok((
                            as_u64(r, "approx.ocd_errors")?,
                            as_u64(m, "approx.ocd_errors")?,
                        )),
                        _ => perr("approx ocd_error must be a pair".to_string()),
                    }
                })
                .collect::<Result<Vec<_>, SnapshotError>>()?;
            Some(ApproxMeta {
                seed: as_u64(req(a, "seed")?, "approx.seed")?,
                sample_rows: as_u64(req(a, "sample_rows")?, "approx.sample_rows")?,
                total_rows: as_u64(req(a, "total_rows")?, "approx.total_rows")?,
                strategy: as_str(req(a, "strategy")?, "approx.strategy")?.to_string(),
                strategy_column: opt_u64(req(a, "strategy_column")?, "approx.strategy_column")?,
                sample_manifest,
                epsilon_micros: as_u64(req(a, "epsilon_micros")?, "approx.epsilon_micros")?,
                confidence_micros: as_u64(
                    req(a, "confidence_micros")?,
                    "approx.confidence_micros",
                )?,
                ocd_errors,
                estimated: as_u64(req(a, "estimated")?, "approx.estimated")?,
                accepted_by_sample: as_u64(
                    req(a, "accepted_by_sample")?,
                    "approx.accepted_by_sample",
                )?,
                rejected_by_sample: as_u64(
                    req(a, "rejected_by_sample")?,
                    "approx.rejected_by_sample",
                )?,
                escalated: as_u64(req(a, "escalated")?, "approx.escalated")?,
                sample_row_scans: as_u64(req(a, "sample_row_scans")?, "approx.sample_row_scans")?,
                full_row_scans: as_u64(req(a, "full_row_scans")?, "approx.full_row_scans")?,
            })
        }
    };

    Ok(SearchSnapshot {
        version: SNAPSHOT_VERSION,
        manifest,
        config,
        level: as_usize(req(obj, "level")?, "level")?,
        frontier: pair_list(req(obj, "frontier")?, "frontier")?,
        branches,
        failures,
        ocds: pair_list(req(obj, "ocds")?, "ocds")?,
        ods: pair_list(req(obj, "ods")?, "ods")?,
        generated: as_u64(req(obj, "generated")?, "generated")?,
        levels,
        level_capped: as_bool(req(obj, "level_capped")?, "level_capped")?,
        check_budget_hit: as_bool(req(obj, "check_budget_hit")?, "check_budget_hit")?,
        checks: as_u64(req(obj, "checks")?, "checks")?,
        elapsed_ms: as_u64(req(obj, "elapsed_ms")?, "elapsed_ms")?,
        kernels,
        cache,
        approx,
        pruned: pair_list(req(obj, "pruned")?, "pruned")?,
        termination,
    })
}

/// Read and parse a dump file.
pub fn read_snapshot(path: &Path) -> Result<SearchSnapshot, SnapshotError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
    parse_snapshot(&text)
}

// ---------------------------------------------------------------------------
// Dump files: naming, listing, retention
// ---------------------------------------------------------------------------

/// File name of a dump: `ckpt-<manifest hex>-L<level>[-final].json`.
/// The manifest prefix keys retention — dumps of different inputs sharing
/// a directory never GC each other.
fn dump_file_name(manifest: u64, level: usize, final_dump: bool) -> String {
    let suffix = if final_dump { "-final" } else { "" };
    format!("ckpt-{manifest:016x}-L{level:04}{suffix}.json")
}

/// Parse a dump file name back into `(manifest, level, is_final)`.
fn parse_dump_name(name: &str) -> Option<(u64, usize, bool)> {
    let rest = name.strip_prefix("ckpt-")?;
    let (hex, rest) = rest.split_at_checked(16)?;
    let manifest = u64::from_str_radix(hex, 16).ok()?;
    let rest = rest.strip_prefix("-L")?;
    let rest = rest.strip_suffix(".json")?;
    let (digits, final_dump) = match rest.strip_suffix("-final") {
        Some(d) => (d, true),
        None => (rest, false),
    };
    let level: usize = digits.parse().ok()?;
    Some((manifest, level, final_dump))
}

/// List the dump files in `dir` (optionally restricted to one manifest),
/// sorted ascending by `(level, is_final, name)` — the last entry is the
/// most advanced resume point.
pub fn list_snapshots(dir: &Path, manifest: Option<u64>) -> Result<Vec<PathBuf>, SnapshotError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| SnapshotError::Io(format!("{}: {e}", dir.display())))?;
    let mut found: Vec<(usize, bool, String)> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some((m, level, final_dump)) = parse_dump_name(&name) {
            if manifest.is_none_or(|want| want == m) {
                found.push((level, final_dump, name));
            }
        }
    }
    found.sort();
    Ok(found
        .into_iter()
        .map(|(_, _, name)| dir.join(name))
        .collect())
}

/// The most advanced resume point in `dir`: the dump with the highest
/// level (a final dump wins over a boundary dump of the same level, since
/// it additionally records why the run stopped).
pub fn latest_snapshot(dir: &Path) -> Result<PathBuf, SnapshotError> {
    list_snapshots(dir, None)?
        .pop()
        .ok_or_else(|| SnapshotError::NoSnapshot(format!("no dump files in {}", dir.display())))
}

// ---------------------------------------------------------------------------
// The checkpoint recorder driving dumps during a run
// ---------------------------------------------------------------------------

/// Run-scoped checkpoint writer, owned by the exact and approximate entry
/// points and threaded into the level driver. Every method is
/// transitively panic-free and swallows IO errors into
/// [`CheckpointStats::write_errors`]: a failing checkpoint must degrade
/// durability, never correctness or liveness of the search.
pub(crate) struct CheckpointRecorder {
    policy: CheckpointPolicy,
    manifest: u64,
    config: SnapshotConfig,
    /// `(shared_cache, cache_budget_bytes)` of the run config, for the
    /// dump's cache metadata.
    cache_cfg: (bool, u64),
    start: Instant,
    /// Elapsed milliseconds inherited from the dump a resumed run started
    /// from (0 for a fresh run).
    base_elapsed_ms: u64,
    /// Kernel counters inherited from the originating dump.
    base_kernels: KernelCounts,
    /// Process-global kernel counters at run start.
    kernels_before: KernelCounts,
    /// Pruned candidates recorded so far (empty when
    /// [`CheckpointPolicy::record_pruned`] is off).
    pruned: Vec<CandidatePair>,
    /// The newest snapshot written, reused for the final dump.
    last: Option<SearchSnapshot>,
    stats: CheckpointStats,
    /// The sampling metadata of an approximate run, which every dump's
    /// `approx` object extends with the accumulated errors and counters.
    approx: Option<ApproxMeta>,
}

impl CheckpointRecorder {
    /// Recorder for a fresh run.
    pub(crate) fn new(
        policy: CheckpointPolicy,
        rel: &Relation,
        run_config: &DiscoveryConfig,
        start: Instant,
        kernels_before: KernelCounts,
    ) -> CheckpointRecorder {
        CheckpointRecorder {
            policy,
            manifest: manifest_hash(rel),
            config: SnapshotConfig::from_config(run_config),
            cache_cfg: (
                run_config.shared_cache,
                run_config.cache_budget_bytes as u64,
            ),
            start,
            base_elapsed_ms: 0,
            base_kernels: KernelCounts::default(),
            kernels_before,
            pruned: Vec::new(),
            last: None,
            stats: CheckpointStats::default(),
            approx: None,
        }
    }

    /// Recorder for a resumed run: inherits the originating dump's elapsed
    /// time, kernel counters, and pruned set so continued dumps stay
    /// cumulative.
    pub(crate) fn resuming(
        policy: CheckpointPolicy,
        origin: &SearchSnapshot,
        run_config: &DiscoveryConfig,
        start: Instant,
        kernels_before: KernelCounts,
    ) -> CheckpointRecorder {
        CheckpointRecorder {
            policy,
            manifest: origin.manifest,
            config: origin.config.clone(),
            cache_cfg: (
                run_config.shared_cache,
                run_config.cache_budget_bytes as u64,
            ),
            start,
            base_elapsed_ms: origin.elapsed_ms,
            base_kernels: origin.kernels,
            kernels_before,
            pruned: origin.pruned.clone(),
            last: None,
            stats: CheckpointStats::default(),
            approx: None,
        }
    }

    /// The recorder of an approximate run with sampling metadata `meta`.
    pub(crate) fn with_approx(mut self, meta: ApproxMeta) -> CheckpointRecorder {
        self.approx = Some(meta);
        self
    }

    /// The run's sampling metadata, when it is an approximate run.
    pub(crate) fn approx_meta(&self) -> Option<&ApproxMeta> {
        self.approx.as_ref()
    }

    /// Manifest hash of the run's input.
    pub(crate) fn manifest(&self) -> u64 {
        self.manifest
    }

    /// Configuration fingerprint of the run.
    pub(crate) fn fingerprint(&self) -> SnapshotConfig {
        self.config.clone()
    }

    /// Whether the boundary entering `level` should be dumped.
    pub(crate) fn wants(&self, level: usize) -> bool {
        let every = self.policy.every_levels.max(1);
        level <= 2 || (level - 2).is_multiple_of(every)
    }

    /// Cumulative elapsed milliseconds (inherited + this process).
    pub(crate) fn elapsed_ms(&self) -> u64 {
        let local = u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX);
        self.base_elapsed_ms.saturating_add(local)
    }

    /// Cumulative kernel counters (inherited + this process's delta).
    pub(crate) fn kernels_now(&self) -> KernelCounts {
        ocdd_relation::sort::kernel_stats::snapshot()
            .since(&self.kernels_before)
            .plus(&self.base_kernels)
    }

    /// Cache metadata for a dump, from the run config and a live counter
    /// snapshot.
    pub(crate) fn cache_meta(&self, stats: Option<CacheStats>) -> Option<CacheMeta> {
        let (shared, budget_bytes) = self.cache_cfg;
        if !shared {
            return None;
        }
        Some(CacheMeta {
            shared,
            budget_bytes,
            stats: stats.unwrap_or_default(),
        })
    }

    /// Record a pruned candidate (checked, found invalid) for the dump's
    /// lattice verdicts.
    pub(crate) fn push_pruned(&mut self, x: &[ColumnId], y: &[ColumnId]) {
        if self.policy.record_pruned {
            self.pruned.push(CandidatePair {
                x: x.to_vec(),
                y: y.to_vec(),
            });
        }
    }

    /// Clone of the pruned set for embedding in a dump.
    pub(crate) fn pruned_pairs(&self) -> Vec<CandidatePair> {
        self.pruned.clone()
    }

    /// Write a boundary dump atomically and apply the keep-last retention.
    pub(crate) fn write_boundary(&mut self, snap: SearchSnapshot) {
        let path = self
            .policy
            .dir
            .join(dump_file_name(self.manifest, snap.level, false));
        let json = snapshot_to_json(&snap);
        match ocdd_iosafe::atomic_write_str(&path, &json) {
            Ok(()) => {
                self.stats.snapshots_written += 1;
                self.stats.last_level = snap.level;
                self.last = Some(snap);
                self.gc_keep_last();
            }
            Err(_) => self.stats.write_errors += 1,
        }
    }

    /// End-of-run hook: on [`TerminationReason::Complete`] with
    /// [`CheckpointPolicy::delete_on_complete`], delete this run's dumps
    /// (nothing left to resume); on an early stop, rewrite the newest
    /// boundary dump as a `-final` dump carrying the termination reason —
    /// the durable partial result.
    pub(crate) fn finish(&mut self, termination: &TerminationReason) {
        if termination.is_complete() {
            if self.policy.delete_on_complete {
                self.delete_all();
            }
            return;
        }
        let Some(mut snap) = self.last.clone() else {
            return;
        };
        snap.termination = Some(termination.clone());
        snap.elapsed_ms = self.elapsed_ms();
        snap.kernels = self.kernels_now();
        let path = self
            .policy
            .dir
            .join(dump_file_name(self.manifest, snap.level, true));
        match ocdd_iosafe::atomic_write_str(&path, &snapshot_to_json(&snap)) {
            Ok(()) => self.stats.snapshots_written += 1,
            Err(_) => self.stats.write_errors += 1,
        }
    }

    /// The run's checkpointing counters, for [`crate::DiscoveryResult`].
    pub(crate) fn stats(&self) -> CheckpointStats {
        self.stats.clone()
    }

    /// Keep only the newest `keep_last` boundary dumps of this run
    /// (final dumps are exempt). A no-op when `keep_last` is 0.
    fn gc_keep_last(&mut self) {
        if self.policy.keep_last == 0 {
            return;
        }
        let Ok(files) = list_snapshots(&self.policy.dir, Some(self.manifest)) else {
            return;
        };
        let boundaries: Vec<PathBuf> = files
            .into_iter()
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .and_then(parse_dump_name)
                    .is_some_and(|(_, _, final_dump)| !final_dump)
            })
            .collect();
        if boundaries.len() <= self.policy.keep_last {
            return;
        }
        let excess = boundaries.len() - self.policy.keep_last;
        for path in boundaries.into_iter().take(excess) {
            if std::fs::remove_file(&path).is_ok() {
                self.stats.files_deleted += 1;
            }
        }
    }

    /// Delete every dump of this run (boundary and final).
    fn delete_all(&mut self) {
        let Ok(files) = list_snapshots(&self.policy.dir, Some(self.manifest)) else {
            return;
        };
        for path in files {
            if std::fs::remove_file(&path).is_ok() {
                self.stats.files_deleted += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> SearchSnapshot {
        SearchSnapshot {
            version: SNAPSHOT_VERSION,
            manifest: 0xdead_beef_0123_4567,
            config: SnapshotConfig {
                max_checks: Some(1000),
                max_level: None,
                dedup_candidates: true,
                column_reduction: true,
            },
            level: 3,
            frontier: vec![
                CandidatePair {
                    x: vec![0, 2],
                    y: vec![1],
                },
                CandidatePair {
                    x: vec![0],
                    y: vec![1, 3],
                },
            ],
            branches: vec![
                SnapshotBranch {
                    branch: (0, 1),
                    allowance: 500,
                    spent: 12,
                    stopped: false,
                    failed: false,
                },
                SnapshotBranch {
                    branch: (0, 2),
                    allowance: 500,
                    spent: 500,
                    stopped: true,
                    failed: false,
                },
            ],
            failures: vec![SnapshotFailure {
                branch: (1, 2),
                message: "boom \"quoted\"\n".to_string(),
            }],
            ocds: vec![CandidatePair {
                x: vec![0],
                y: vec![1],
            }],
            ods: vec![CandidatePair {
                x: vec![0],
                y: vec![3],
            }],
            generated: 42,
            levels: vec![LevelStats {
                level: 2,
                candidates: 6,
                valid_ocds: 2,
                valid_ods: 1,
            }],
            level_capped: false,
            check_budget_hit: true,
            checks: 77,
            elapsed_ms: 1234,
            kernels: KernelCounts {
                counting: 1,
                packed_radix: 2,
                chained_refine: 3,
                comparator: 4,
                scan_scalar: 5,
                scan_block: 6,
                scan_simd: 0,
            },
            cache: Some(CacheMeta {
                shared: true,
                budget_bytes: 1 << 20,
                stats: CacheStats {
                    hits: 10,
                    misses: 3,
                    evictions: 1,
                    resident_bytes: 512,
                    entries: 2,
                },
            }),
            approx: None,
            pruned: vec![CandidatePair {
                x: vec![2],
                y: vec![3],
            }],
            termination: None,
        }
    }

    #[test]
    fn snapshot_round_trips_byte_identically() {
        let snap = sample_snapshot();
        let json = snapshot_to_json(&snap);
        let parsed = parse_snapshot(&json).expect("round trip");
        assert_eq!(parsed, snap);
        // Serialization is canonical: re-serializing gives the same bytes.
        assert_eq!(snapshot_to_json(&parsed), json);
    }

    #[test]
    fn maximal_dump_round_trips_byte_identically() {
        // Every optional field populated at once — approx provenance,
        // `WorkerFailure` termination with its payload, shared-cache
        // metadata, pruned verdicts, and non-zero counts in every kernel
        // counter. This is the live oracle behind the static
        // `schema-parity` lint rule: a serializer key the parser dropped
        // (or vice versa) desyncs this equality before the linter's text
        // pass ever runs.
        let mut snap = sample_snapshot();
        snap.kernels.scan_simd = 9;
        snap.approx = Some(ApproxMeta {
            seed: 0xfeed_f00d,
            sample_rows: 2_000,
            total_rows: 150_000,
            strategy: "stratified".to_string(),
            strategy_column: Some(4),
            sample_manifest: 0x0123_4567_89ab_cdef,
            epsilon_micros: 10_000,
            confidence_micros: 990_000,
            ocd_errors: vec![(0, 2_000), (17, 2_000)],
            estimated: 91,
            accepted_by_sample: 40,
            rejected_by_sample: 38,
            escalated: 13,
            sample_row_scans: 728_000,
            full_row_scans: 7_800_000,
        });
        snap.termination = Some(TerminationReason::WorkerFailure {
            branches: vec![(1, 2), (3, 4)],
            message: "worker panicked: index out of bounds \"len 0\"".to_string(),
        });
        let json = snapshot_to_json(&snap);
        let parsed = parse_snapshot(&json).expect("maximal round trip");
        assert_eq!(parsed, snap);
        assert_eq!(
            snapshot_to_json(&parsed),
            json,
            "re-serialization must be byte-identical"
        );
        for key in [
            "\"approx\":",
            "\"termination\":{\"kind\":\"worker_failure\"",
            "\"scan_simd\":9",
            "\"strategy\":\"stratified\"",
            "\"ocd_errors\":[[0,2000],[17,2000]],\"estimated\":91",
            "\"full_row_scans\":7800000}",
        ] {
            assert!(json.contains(key), "maximal dump must carry {key}: {json}");
        }
    }

    #[test]
    fn approx_meta_is_optional_and_round_trips() {
        let mut snap = sample_snapshot();
        // Exact-search dumps never carry the key — their serialized form
        // is byte-identical to pre-§14 dumps.
        assert!(!snapshot_to_json(&snap).contains("\"approx\""));
        snap.approx = Some(ApproxMeta {
            seed: 7,
            sample_rows: 100,
            total_rows: 1000,
            strategy: "stratified".to_string(),
            strategy_column: Some(2),
            sample_manifest: 0xabcd_ef01_2345_6789,
            epsilon_micros: 50_000,
            confidence_micros: 950_000,
            ocd_errors: vec![(3, 100)],
            estimated: 5,
            accepted_by_sample: 2,
            rejected_by_sample: 2,
            escalated: 1,
            sample_row_scans: 2_000,
            full_row_scans: 4_000,
        });
        let json = snapshot_to_json(&snap);
        let parsed = parse_snapshot(&json).expect("round trip");
        assert_eq!(parsed, snap);
        assert_eq!(snapshot_to_json(&parsed), json);
    }

    #[test]
    fn micros_conversion_is_exact_on_the_knob_grid() {
        assert_eq!(to_micros(0.0), 0);
        assert_eq!(to_micros(0.05), 50_000);
        assert_eq!(to_micros(0.95), 950_000);
        assert_eq!(to_micros(1.0), 1_000_000);
        assert_eq!(to_micros(7.0), 1_000_000, "clamped");
    }

    #[test]
    fn termination_round_trips_every_variant() {
        let variants = vec![
            TerminationReason::Complete,
            TerminationReason::LevelCap,
            TerminationReason::CheckBudget,
            TerminationReason::TimeBudget,
            TerminationReason::Cancelled,
            TerminationReason::WorkerFailure {
                branches: vec![(0, 1), (2, 5)],
                message: "injected \"panic\"\npayload".to_string(),
            },
        ];
        for t in variants {
            let mut snap = sample_snapshot();
            snap.termination = Some(t.clone());
            let parsed = parse_snapshot(&snapshot_to_json(&snap)).expect("round trip");
            assert_eq!(parsed.termination, Some(t));
        }
    }

    #[test]
    fn u64_max_allowance_survives_the_round_trip() {
        let mut snap = sample_snapshot();
        snap.branches = vec![SnapshotBranch {
            branch: (3, 4),
            allowance: u64::MAX,
            spent: u64::MAX - 1,
            stopped: false,
            failed: false,
        }];
        snap.config.max_checks = None;
        let parsed = parse_snapshot(&snapshot_to_json(&snap)).expect("round trip");
        assert_eq!(parsed.branches, snap.branches);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"format\":\"ocdd-snapshot\"",
            "[1,2,]",
            "{\"a\":01e5}",
            "{\"a\":-3}",
            "nullx",
            "{\"a\":\"unterminated",
        ] {
            assert!(
                parse_snapshot(bad).is_err(),
                "malformed input accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let snap = sample_snapshot();
        let json = snapshot_to_json(&snap);
        let wrong_magic = json.replace("ocdd-snapshot", "oxidd-dump");
        assert!(matches!(
            parse_snapshot(&wrong_magic),
            Err(SnapshotError::BadMagic(_))
        ));
        let wrong_version = json.replace("\"version\":1", "\"version\":99");
        assert!(matches!(
            parse_snapshot(&wrong_version),
            Err(SnapshotError::UnsupportedVersion {
                found: 99,
                supported: SNAPSHOT_VERSION
            })
        ));
    }

    /// A 4-column relation the ids of [`sample_snapshot`] fit, and that
    /// snapshot made valid for it under the default configuration.
    fn valid_pair() -> (Relation, SearchSnapshot) {
        use ocdd_relation::{RelationBuilder, Value};
        let mut b = RelationBuilder::new(vec!["a", "b", "c", "d"]);
        b.push_row(vec![
            Value::Int(1),
            Value::Int(2),
            Value::Int(3),
            Value::Int(4),
        ])
        .unwrap();
        b.push_row(vec![
            Value::Int(2),
            Value::Int(1),
            Value::Int(4),
            Value::Int(3),
        ])
        .unwrap();
        let rel = b.finish();
        let mut snap = sample_snapshot();
        snap.manifest = manifest_hash(&rel);
        snap.config = SnapshotConfig::from_config(&DiscoveryConfig::default());
        (rel, snap)
    }

    #[test]
    fn validate_rejects_wrong_relation_and_config() {
        use ocdd_relation::{RelationBuilder, Value};
        let (rel, mut snap) = valid_pair();

        assert_eq!(snap.validate(&rel, &DiscoveryConfig::default()), Ok(()));

        // Wrong relation.
        let mut other = RelationBuilder::new(vec!["a", "b"]);
        other.push_row(vec![Value::Int(1), Value::Int(1)]).unwrap();
        other.push_row(vec![Value::Int(2), Value::Int(2)]).unwrap();
        assert!(matches!(
            snap.validate(&other.finish(), &DiscoveryConfig::default()),
            Err(SnapshotError::ManifestMismatch { .. })
        ));

        // Semantic config knob differs.
        let tighter = DiscoveryConfig {
            max_checks: Some(10),
            ..DiscoveryConfig::default()
        };
        assert_eq!(
            snap.validate(&rel, &tighter),
            Err(SnapshotError::ConfigMismatch("max_checks"))
        );

        // Non-semantic knobs (mode, checker, caches) may differ freely.
        let different_backend = DiscoveryConfig {
            mode: crate::config::ParallelMode::WorkStealing(4),
            checker: crate::config::CheckerBackend::SortedPartitions,
            shared_cache: true,
            ..DiscoveryConfig::default()
        };
        assert_eq!(snap.validate(&rel, &different_backend), Ok(()));

        // Version gate.
        snap.version = 0;
        assert!(matches!(
            snap.validate(&rel, &DiscoveryConfig::default()),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));
    }

    /// The `Parse` message of a dump `validate` refuses.
    fn refusal(rel: &Relation, snap: &SearchSnapshot) -> String {
        match snap.validate(rel, &DiscoveryConfig::default()) {
            Err(SnapshotError::Parse(message)) => message,
            other => panic!("expected a Parse refusal, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_out_of_range_column_ids() {
        let (rel, clean) = valid_pair();
        type Corrupt = fn(&mut SearchSnapshot);
        let cases: [(&str, Corrupt); 6] = [
            ("frontier", |s| s.frontier[1].y.push(99)),
            ("ocds", |s| s.ocds[0].x[0] = 99),
            ("ods", |s| s.ods[0].y[0] = 99),
            ("pruned", |s| s.pruned[0].x.push(99)),
            ("branches", |s| s.branches[1].branch.1 = 99),
            ("failures", |s| s.failures[0].branch.0 = 99),
        ];
        for (field, corrupt) in cases {
            let mut snap = clean.clone();
            corrupt(&mut snap);
            let message = refusal(&rel, &snap);
            assert!(
                message.contains(&format!("`{field}` names column 99")),
                "{field}: {message}"
            );
        }
        // An id equal to the column count is out of range too.
        let mut snap = clean;
        snap.ocds[0].y[0] = 4;
        assert!(refusal(&rel, &snap).contains("`ocds` names column 4"));
    }

    #[test]
    fn validate_requires_a_branch_record_for_every_frontier_candidate() {
        let (rel, mut snap) = valid_pair();
        // Both frontier candidates belong to branch (0, 1).
        snap.branches.retain(|b| b.branch != (0, 1));
        let message = refusal(&rel, &snap);
        assert!(
            message.contains("`branches` has no record of branch (0, 1)"),
            "{message}"
        );

        // A dump of the approximate pipeline before it ran on the level
        // driver: a frontier, but no branch accounting at all.
        let (_, mut old) = valid_pair();
        old.branches.clear();
        old.failures.clear();
        old.approx = Some(ApproxMeta {
            strategy: "uniform".to_string(),
            ocd_errors: vec![(0, 2)],
            ..ApproxMeta::default()
        });
        assert!(refusal(&rel, &old).contains("`branches` has no record"));

        // An empty frontier needs no records.
        old.frontier.clear();
        assert_eq!(old.validate(&rel, &DiscoveryConfig::default()), Ok(()));
    }

    #[test]
    fn dump_names_round_trip_and_sort_by_level() {
        let name = dump_file_name(0xabc, 12, false);
        assert_eq!(name, "ckpt-0000000000000abc-L0012.json");
        assert_eq!(parse_dump_name(&name), Some((0xabc, 12, false)));
        let final_name = dump_file_name(0xabc, 12, true);
        assert_eq!(parse_dump_name(&final_name), Some((0xabc, 12, true)));
        assert_eq!(parse_dump_name("ckpt-zz-L1.json"), None);
        assert_eq!(parse_dump_name("other.json"), None);
        assert_eq!(parse_dump_name("ckpt-0000000000000abc-L12.txt"), None);
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ocdd-snap-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn recorder_for(dir: &Path, keep_last: usize, delete_on_complete: bool) -> CheckpointRecorder {
        use ocdd_relation::{RelationBuilder, Value};
        let mut b = RelationBuilder::new(vec!["a", "b"]);
        b.push_row(vec![Value::Int(1), Value::Int(2)]).unwrap();
        let rel = b.finish();
        let policy = CheckpointPolicy {
            keep_last,
            delete_on_complete,
            ..CheckpointPolicy::new(dir)
        };
        CheckpointRecorder::new(
            policy,
            &rel,
            &DiscoveryConfig::default(),
            crate::runtime::now(),
            KernelCounts::default(),
        )
    }

    fn boundary_snapshot(rec: &CheckpointRecorder, level: usize) -> SearchSnapshot {
        SearchSnapshot {
            version: SNAPSHOT_VERSION,
            manifest: rec.manifest(),
            config: rec.fingerprint(),
            level,
            frontier: Vec::new(),
            branches: Vec::new(),
            failures: Vec::new(),
            ocds: Vec::new(),
            ods: Vec::new(),
            generated: 0,
            levels: Vec::new(),
            level_capped: false,
            check_budget_hit: false,
            checks: 0,
            elapsed_ms: 0,
            kernels: KernelCounts::default(),
            cache: None,
            approx: None,
            pruned: Vec::new(),
            termination: None,
        }
    }

    #[test]
    fn retention_keeps_last_n_boundary_dumps() {
        let dir = tmp_dir("retention");
        let mut rec = recorder_for(&dir, 2, true);
        for level in 2..=6 {
            rec.write_boundary(boundary_snapshot(&rec, level));
        }
        let files = list_snapshots(&dir, Some(rec.manifest())).unwrap();
        let names: Vec<String> = files
            .iter()
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        assert_eq!(names.len(), 2, "keep_last=2 must prune to 2: {names:?}");
        assert!(names[0].contains("L0005") && names[1].contains("L0006"));
        let stats = rec.stats();
        assert_eq!(stats.snapshots_written, 5);
        assert_eq!(stats.files_deleted, 3);
        assert_eq!(stats.write_errors, 0);
        assert_eq!(stats.last_level, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn complete_run_deletes_all_dumps() {
        let dir = tmp_dir("complete-gc");
        let mut rec = recorder_for(&dir, 0, true);
        for level in 2..=4 {
            rec.write_boundary(boundary_snapshot(&rec, level));
        }
        rec.finish(&TerminationReason::Complete);
        assert!(list_snapshots(&dir, None).unwrap().is_empty());
        assert_eq!(rec.stats().files_deleted, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn complete_run_keeps_dumps_when_gc_disabled() {
        let dir = tmp_dir("keep-all");
        let mut rec = recorder_for(&dir, 0, false);
        for level in 2..=4 {
            rec.write_boundary(boundary_snapshot(&rec, level));
        }
        rec.finish(&TerminationReason::Complete);
        assert_eq!(list_snapshots(&dir, None).unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn early_stop_writes_final_dump_with_termination() {
        let dir = tmp_dir("final");
        let mut rec = recorder_for(&dir, 0, true);
        rec.write_boundary(boundary_snapshot(&rec, 2));
        rec.write_boundary(boundary_snapshot(&rec, 3));
        rec.finish(&TerminationReason::CheckBudget);
        let latest = latest_snapshot(&dir).unwrap();
        assert!(latest.to_string_lossy().contains("-final"));
        let snap = read_snapshot(&latest).unwrap();
        assert_eq!(snap.termination, Some(TerminationReason::CheckBudget));
        assert_eq!(snap.level, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_snapshot_prefers_highest_level() {
        let dir = tmp_dir("latest");
        let mut rec = recorder_for(&dir, 0, true);
        for level in 2..=5 {
            rec.write_boundary(boundary_snapshot(&rec, level));
        }
        let latest = latest_snapshot(&dir).unwrap();
        assert!(latest.to_string_lossy().contains("L0005"));
        let empty = tmp_dir("latest-empty");
        assert!(matches!(
            latest_snapshot(&empty),
            Err(SnapshotError::NoSnapshot(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn wants_respects_interval_and_always_dumps_the_start() {
        let dir = tmp_dir("wants");
        let mut rec = recorder_for(&dir, 0, true);
        rec.policy.every_levels = 3;
        assert!(rec.wants(2), "initial boundary is always dumped");
        assert!(!rec.wants(3));
        assert!(!rec.wants(4));
        assert!(rec.wants(5));
        assert!(rec.wants(8));
        rec.policy.every_levels = 0; // behaves like 1
        assert!(rec.wants(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_error_messages_name_the_problem() {
        let e = SnapshotError::ManifestMismatch {
            snapshot: 1,
            relation: 2,
        };
        assert!(e.to_string().contains("manifest mismatch"));
        assert!(SnapshotError::ConfigMismatch("max_checks")
            .to_string()
            .contains("max_checks"));
        assert!(SnapshotError::UnsupportedVersion {
            found: 9,
            supported: 1
        }
        .to_string()
        .contains("version 9"));
    }
}
