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
//! Dumps are written and read through the workspace's one JSON codec
//! ([`ocdd_iosafe::json`]): [`snapshot_to_json`] drives its compact
//! writer member by member, and [`parse_snapshot`] reads each member
//! through `Json::field`. All integers are unsigned decimals (the codec
//! keeps number text, so `u64::MAX` survives), column references are ids
//! over the *original* schema (stable under resume because the manifest
//! pins the schema), and object keys are emitted in a fixed documented
//! order so dumps of identical state are byte-identical too.

use crate::config::DiscoveryConfig;
use crate::results::LevelStats;
use crate::runtime::TerminationReason;
use crate::shared_cache::CacheStats;
use ocdd_iosafe::json::{self, Json, JsonError, Writer};
use ocdd_relation::sort::kernel_stats::KernelCounts;
use ocdd_relation::{manifest_hash, ColumnId, Relation};
use std::fmt;
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
/// micro-units because every dump number is read with `as_u64`, which
/// accepts only unsigned integers; OCD errors are stored as
/// `(removals, rows)` rationals for the same reason. The triage counters accumulated up to the boundary make a
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
// Serialization
// ---------------------------------------------------------------------------

/// Write an array of column ids.
fn write_ids(w: &mut Writer, ids: &[ColumnId]) {
    w.begin_array();
    for &c in ids {
        w.u64(c as u64);
    }
    w.end_array();
}

/// Write an array of `{"x": [..], "y": [..]}` pairs.
fn write_pairs(w: &mut Writer, pairs: &[CandidatePair]) {
    w.begin_array();
    for p in pairs {
        w.begin_object().key("x");
        write_ids(w, &p.x);
        w.key("y");
        write_ids(w, &p.y);
        w.end_object();
    }
    w.end_array();
}

/// Write a number, or `null` for `None`.
fn write_opt(w: &mut Writer, v: Option<u64>) {
    match v {
        Some(n) => w.u64(n),
        None => w.null(),
    };
}

/// A manifest hash as 16 hex digits.
fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// Write a [`TerminationReason`]; [`read_termination`] reads every
/// variant back, `WorkerFailure` payload included.
fn write_termination(w: &mut Writer, t: &TerminationReason) {
    w.begin_object().key("kind").str(t.label());
    if let TerminationReason::WorkerFailure { branches, message } = t {
        w.key("branches").begin_array();
        for &(a, b) in branches {
            write_ids(w, &[a, b]);
        }
        w.end_array();
        w.key("message").str(message);
    }
    w.end_object();
}

/// Serialize a dump to its canonical JSON text: fixed key order, unsigned
/// decimal integers, ids over the original schema. Identical snapshots
/// serialize byte-identically.
pub fn snapshot_to_json(snap: &SearchSnapshot) -> String {
    let mut w = Writer::new();
    w.begin_object();
    w.key("format").str(SNAPSHOT_MAGIC);
    w.key("version").u64(u64::from(snap.version));
    w.key("manifest").str(&hex(snap.manifest));
    let cfg = &snap.config;
    w.key("config").begin_object().key("max_checks");
    write_opt(&mut w, cfg.max_checks);
    w.key("max_level");
    write_opt(&mut w, cfg.max_level.map(|l| l as u64));
    w.key("dedup_candidates").bool(cfg.dedup_candidates);
    w.key("column_reduction").bool(cfg.column_reduction);
    w.end_object();
    w.key("level").u64(snap.level as u64);
    w.key("frontier");
    write_pairs(&mut w, &snap.frontier);
    w.key("branches").begin_array();
    for b in &snap.branches {
        w.begin_object();
        w.key("x").u64(b.branch.0 as u64);
        w.key("y").u64(b.branch.1 as u64);
        w.key("allowance").u64(b.allowance);
        w.key("spent").u64(b.spent);
        w.key("stopped").bool(b.stopped);
        w.key("failed").bool(b.failed);
        w.end_object();
    }
    w.end_array();
    w.key("failures").begin_array();
    for f in &snap.failures {
        w.begin_object();
        w.key("x").u64(f.branch.0 as u64);
        w.key("y").u64(f.branch.1 as u64);
        w.key("message").str(&f.message);
        w.end_object();
    }
    w.end_array();
    w.key("ocds");
    write_pairs(&mut w, &snap.ocds);
    w.key("ods");
    write_pairs(&mut w, &snap.ods);
    w.key("generated").u64(snap.generated);
    w.key("levels").begin_array();
    for l in &snap.levels {
        w.begin_object();
        w.key("level").u64(l.level as u64);
        w.key("candidates").u64(l.candidates);
        w.key("valid_ocds").u64(l.valid_ocds);
        w.key("valid_ods").u64(l.valid_ods);
        w.end_object();
    }
    w.end_array();
    w.key("level_capped").bool(snap.level_capped);
    w.key("check_budget_hit").bool(snap.check_budget_hit);
    w.key("checks").u64(snap.checks);
    w.key("elapsed_ms").u64(snap.elapsed_ms);
    let k = &snap.kernels;
    w.key("kernels").begin_object();
    w.key("counting").u64(k.counting);
    w.key("packed_radix").u64(k.packed_radix);
    w.key("chained_refine").u64(k.chained_refine);
    w.key("comparator").u64(k.comparator);
    w.key("scan_scalar").u64(k.scan_scalar);
    w.key("scan_block").u64(k.scan_block);
    w.key("scan_simd").u64(k.scan_simd);
    w.end_object();
    w.key("cache");
    match &snap.cache {
        None => {
            w.null();
        }
        Some(c) => {
            w.begin_object();
            w.key("shared").bool(c.shared);
            w.key("budget_bytes").u64(c.budget_bytes);
            w.key("hits").u64(c.stats.hits);
            w.key("misses").u64(c.stats.misses);
            w.key("evictions").u64(c.stats.evictions);
            w.key("resident_bytes").u64(c.stats.resident_bytes);
            w.key("entries").u64(c.stats.entries);
            w.end_object();
        }
    }
    if let Some(a) = &snap.approx {
        w.key("approx").begin_object();
        w.key("seed").u64(a.seed);
        w.key("sample_rows").u64(a.sample_rows);
        w.key("total_rows").u64(a.total_rows);
        w.key("strategy").str(&a.strategy);
        w.key("strategy_column");
        write_opt(&mut w, a.strategy_column);
        w.key("sample_manifest").str(&hex(a.sample_manifest));
        w.key("epsilon_micros").u64(a.epsilon_micros);
        w.key("confidence_micros").u64(a.confidence_micros);
        w.key("ocd_errors").begin_array();
        for &(removals, rows) in &a.ocd_errors {
            w.begin_array().u64(removals).u64(rows).end_array();
        }
        w.end_array();
        w.key("estimated").u64(a.estimated);
        w.key("accepted_by_sample").u64(a.accepted_by_sample);
        w.key("rejected_by_sample").u64(a.rejected_by_sample);
        w.key("escalated").u64(a.escalated);
        w.key("sample_row_scans").u64(a.sample_row_scans);
        w.key("full_row_scans").u64(a.full_row_scans);
        w.end_object();
    }
    w.key("pruned");
    write_pairs(&mut w, &snap.pruned);
    w.key("termination");
    match &snap.termination {
        None => {
            w.null();
        }
        Some(t) => write_termination(&mut w, t),
    }
    w.end_object();
    w.finish()
}

// ---------------------------------------------------------------------------
// Deserialization
// ---------------------------------------------------------------------------

impl From<JsonError> for SnapshotError {
    fn from(e: JsonError) -> SnapshotError {
        SnapshotError::Parse(e.to_string())
    }
}

fn perr<T>(msg: &str) -> Result<T, SnapshotError> {
    Err(SnapshotError::Parse(msg.to_string()))
}

/// A number or `null`, for [`Json::field`].
fn opt_u64(v: &Json) -> Option<Option<u64>> {
    if v.is_null() {
        Some(None)
    } else {
        v.as_u64().map(Some)
    }
}

/// A manifest hash written by [`hex`]; `what` names the field.
fn read_hex(text: &str, what: &str) -> Result<u64, SnapshotError> {
    u64::from_str_radix(text, 16).or_else(|_| perr(&format!("`{what}` must be a hex string")))
}

fn read_ids(items: &[Json]) -> Result<Vec<ColumnId>, SnapshotError> {
    let ids: Option<Vec<ColumnId>> = items.iter().map(Json::as_usize).collect();
    ids.map_or_else(|| perr("column ids must be unsigned integers"), Ok)
}

/// A `[a, b]` branch seed pair.
fn read_branch(v: &Json) -> Result<(ColumnId, ColumnId), SnapshotError> {
    match read_ids(v.as_array().unwrap_or_default())?.as_slice() {
        &[a, b] => Ok((a, b)),
        _ => perr("a branch must be a pair of column ids"),
    }
}

fn read_pairs(items: &[Json]) -> Result<Vec<CandidatePair>, SnapshotError> {
    items
        .iter()
        .map(|p| {
            Ok(CandidatePair {
                x: read_ids(p.field("x", Json::as_array)?)?,
                y: read_ids(p.field("y", Json::as_array)?)?,
            })
        })
        .collect()
}

/// Read a [`TerminationReason`] written by [`write_termination`].
fn read_termination(v: &Json) -> Result<TerminationReason, SnapshotError> {
    match v.field("kind", Json::as_str)? {
        "complete" => Ok(TerminationReason::Complete),
        "level_cap" => Ok(TerminationReason::LevelCap),
        "check_budget" => Ok(TerminationReason::CheckBudget),
        "time_budget" => Ok(TerminationReason::TimeBudget),
        "cancelled" => Ok(TerminationReason::Cancelled),
        "worker_failure" => Ok(TerminationReason::WorkerFailure {
            branches: v
                .field("branches", Json::as_array)?
                .iter()
                .map(read_branch)
                .collect::<Result<_, _>>()?,
            message: v.field("message", Json::as_str)?.to_string(),
        }),
        other => perr(&format!("unknown termination kind `{other}`")),
    }
}

/// Read the `approx` object of an approximate-run dump.
fn read_approx(a: &Json) -> Result<ApproxMeta, SnapshotError> {
    let ocd_errors = a
        .field("ocd_errors", Json::as_array)?
        .iter()
        .map(|pair| match pair.as_array().unwrap_or_default() {
            [r, m] => match (r.as_u64(), m.as_u64()) {
                (Some(r), Some(m)) => Ok((r, m)),
                _ => perr("an `ocd_errors` entry must hold unsigned integers"),
            },
            _ => perr("an `ocd_errors` entry must be a pair"),
        })
        .collect::<Result<_, _>>()?;
    Ok(ApproxMeta {
        seed: a.field("seed", Json::as_u64)?,
        sample_rows: a.field("sample_rows", Json::as_u64)?,
        total_rows: a.field("total_rows", Json::as_u64)?,
        strategy: a.field("strategy", Json::as_str)?.to_string(),
        strategy_column: a.field("strategy_column", opt_u64)?,
        sample_manifest: read_hex(
            a.field("sample_manifest", Json::as_str)?,
            "approx.sample_manifest",
        )?,
        epsilon_micros: a.field("epsilon_micros", Json::as_u64)?,
        confidence_micros: a.field("confidence_micros", Json::as_u64)?,
        ocd_errors,
        estimated: a.field("estimated", Json::as_u64)?,
        accepted_by_sample: a.field("accepted_by_sample", Json::as_u64)?,
        rejected_by_sample: a.field("rejected_by_sample", Json::as_u64)?,
        escalated: a.field("escalated", Json::as_u64)?,
        sample_row_scans: a.field("sample_row_scans", Json::as_u64)?,
        full_row_scans: a.field("full_row_scans", Json::as_u64)?,
    })
}

/// Parse dump JSON text into a [`SearchSnapshot`], enforcing the magic and
/// version rejection rules (manifest/config validation is separate — see
/// [`SearchSnapshot::validate`] — so tooling like `dump-dot` can read a
/// dump without the original input at hand).
pub fn parse_snapshot(text: &str) -> Result<SearchSnapshot, SnapshotError> {
    let root = json::parse(text)?;
    let magic = root.field("format", Json::as_str)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic(magic.to_string()));
    }
    let version = root.field("version", Json::as_u64)?;
    if version != u64::from(SNAPSHOT_VERSION) {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let manifest = read_hex(root.field("manifest", Json::as_str)?, "manifest")?;
    let cfg = root.field("config", Some)?;
    let config = SnapshotConfig {
        max_checks: cfg.field("max_checks", opt_u64)?,
        max_level: cfg
            .field("max_level", opt_u64)?
            .map(|l| usize::try_from(l).unwrap_or(usize::MAX)),
        dedup_candidates: cfg.field("dedup_candidates", Json::as_bool)?,
        column_reduction: cfg.field("column_reduction", Json::as_bool)?,
    };
    let branches = root
        .field("branches", Json::as_array)?
        .iter()
        .map(|b| {
            Ok(SnapshotBranch {
                branch: (b.field("x", Json::as_usize)?, b.field("y", Json::as_usize)?),
                allowance: b.field("allowance", Json::as_u64)?,
                spent: b.field("spent", Json::as_u64)?,
                stopped: b.field("stopped", Json::as_bool)?,
                failed: b.field("failed", Json::as_bool)?,
            })
        })
        .collect::<Result<_, SnapshotError>>()?;
    let failures = root
        .field("failures", Json::as_array)?
        .iter()
        .map(|f| {
            Ok(SnapshotFailure {
                branch: (f.field("x", Json::as_usize)?, f.field("y", Json::as_usize)?),
                message: f.field("message", Json::as_str)?.to_string(),
            })
        })
        .collect::<Result<_, SnapshotError>>()?;
    let levels = root
        .field("levels", Json::as_array)?
        .iter()
        .map(|l| {
            Ok(LevelStats {
                level: l.field("level", Json::as_usize)?,
                candidates: l.field("candidates", Json::as_u64)?,
                valid_ocds: l.field("valid_ocds", Json::as_u64)?,
                valid_ods: l.field("valid_ods", Json::as_u64)?,
            })
        })
        .collect::<Result<_, SnapshotError>>()?;
    let k = root.field("kernels", Some)?;
    let kernels = KernelCounts {
        counting: k.field("counting", Json::as_u64)?,
        packed_radix: k.field("packed_radix", Json::as_u64)?,
        chained_refine: k.field("chained_refine", Json::as_u64)?,
        comparator: k.field("comparator", Json::as_u64)?,
        scan_scalar: k.field("scan_scalar", Json::as_u64)?,
        scan_block: k.field("scan_block", Json::as_u64)?,
        scan_simd: k.field("scan_simd", Json::as_u64)?,
    };
    let cache = match root.field("cache", Some)? {
        c if c.is_null() => None,
        c => Some(CacheMeta {
            shared: c.field("shared", Json::as_bool)?,
            budget_bytes: c.field("budget_bytes", Json::as_u64)?,
            stats: CacheStats {
                hits: c.field("hits", Json::as_u64)?,
                misses: c.field("misses", Json::as_u64)?,
                evictions: c.field("evictions", Json::as_u64)?,
                resident_bytes: c.field("resident_bytes", Json::as_u64)?,
                entries: c.field("entries", Json::as_u64)?,
            },
        }),
    };
    // Optional: exact-search dumps never carry it.
    let approx = match root.get("approx") {
        Some(a) if !a.is_null() => Some(read_approx(a)?),
        _ => None,
    };
    let termination = match root.field("termination", Some)? {
        t if t.is_null() => None,
        t => Some(read_termination(t)?),
    };
    Ok(SearchSnapshot {
        version: SNAPSHOT_VERSION,
        manifest,
        config,
        level: root.field("level", Json::as_usize)?,
        frontier: read_pairs(root.field("frontier", Json::as_array)?)?,
        branches,
        failures,
        ocds: read_pairs(root.field("ocds", Json::as_array)?)?,
        ods: read_pairs(root.field("ods", Json::as_array)?)?,
        generated: root.field("generated", Json::as_u64)?,
        levels,
        level_capped: root.field("level_capped", Json::as_bool)?,
        check_budget_hit: root.field("check_budget_hit", Json::as_bool)?,
        checks: root.field("checks", Json::as_u64)?,
        elapsed_ms: root.field("elapsed_ms", Json::as_u64)?,
        kernels,
        cache,
        approx,
        pruned: read_pairs(root.field("pruned", Json::as_array)?)?,
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
