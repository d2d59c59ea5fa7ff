//! # ocdd-core — OCDDISCOVER in Rust
//!
//! A from-scratch implementation of the order dependency discovery
//! algorithm of *Consonni, Montresor, Sottovia, Velegrakis: "Discovering
//! Order Dependencies through Order Compatibility", EDBT 2019*.
//!
//! An **order dependency (OD)** `X → Y` states that sorting a table by the
//! attribute list `X` also sorts it by `Y` (Definition 2.2). An **order
//! compatibility dependency (OCD)** `X ~ Y` states that `XY ↔ YX`
//! (Definition 2.4) — the two lists are monotone together. Every OD
//! factors into a functional dependency plus an OCD, and OCDDISCOVER
//! exploits this: it searches the (much smaller) space of *minimal* OCDs
//! breadth-first, validating each candidate with a single sorted scan, and
//! derives the ODs along the way.
//!
//! ## Quick start
//!
//! ```
//! use ocdd_relation::{Relation, Value};
//! use ocdd_core::{discover, DiscoveryConfig};
//!
//! // income orders bracket; income and tax are order equivalent.
//! let rel = Relation::from_columns(vec![
//!     ("income".into(), vec![35, 40, 40, 55, 60, 80].into_iter().map(Value::Int).collect()),
//!     ("bracket".into(), vec![1, 1, 1, 2, 2, 3].into_iter().map(Value::Int).collect()),
//!     ("tax".into(), vec![5, 6, 6, 8, 9, 14].into_iter().map(Value::Int).collect()),
//! ]).unwrap();
//!
//! let result = discover(&rel, &DiscoveryConfig::default());
//! assert_eq!(result.equivalence_classes, vec![vec![0, 2]]); // income <-> tax
//! assert!(result.ods.iter().any(|od| od.display(&rel) == "[income] -> [bracket]"));
//! ```
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`deps`] | §2 | attribute lists, `Od`, `Ocd`, order equivalence |
//! | [`check`] | §4.3 | sorted-scan candidate checker, split/swap witnesses |
//! | [`reduction`] | §4.1 | constant removal, Tarjan order-equivalence classes |
//! | [`search`] | §4.2/4.4 | the BFS over OCD candidates with pruning |
//! | [`config`], [`results`] | §4–5 | run configuration and outputs |
//! | [`expand`] | §5.2 | translate minimal OCDs back into the full OD set |
//! | [`axioms`] | §2.1/§3 | the `J_OD` inference rules and a bounded closure engine |
//! | [`brute`] | §2 | brute-force ground truth by the pairwise definitions |
//! | [`entropy`] | §5.4 | interestingness ranking of columns |

#![deny(missing_docs)]
pub mod approximate;
pub mod axioms;
pub mod bidirectional;
pub mod brute;
pub mod check;
pub mod config;
pub mod deps;
pub mod entropy;
pub mod expand;
pub mod incremental;
pub mod json;
pub mod reduction;
pub mod results;
pub mod rewrite;
pub mod runtime;
pub mod scheduler;
pub mod search;
pub mod shared_cache;
pub mod snapshot;
pub mod sorted_partitions;
pub(crate) mod sync_shim;
pub mod visualize;

pub use approximate::{
    discover_approximate, discover_approximate_resume, discover_approximate_with,
    hoeffding_half_width, ocd_error, od_error, removal_witnesses, triage, ApproxConfig,
    ApproxStats, ApproximateOcd, ApproximateResult, OdError, Triage, ERR_PASSES,
};
pub use check::{check_ocd, check_od, check_od_after_ocd, CheckOutcome};
pub use config::{CheckerBackend, DiscoveryConfig, ParallelMode, MAX_WORKERS};
pub use deps::{AttrList, Ocd, Od, OrderEquivalence};
pub use reduction::{columns_reduction, Reduction};
pub use results::{DiscoveryResult, LevelStats};
pub use runtime::{FaultPlan, RunController, TerminationReason, DEADLINE_CHECK_INTERVAL};
pub use scheduler::{SchedulerStats, WorkerSchedStats};
pub use search::{discover, discover_resume, profile_branches, BranchCost};
pub use shared_cache::{CacheStats, EpochPrefixCache, EpochSnapshot};
pub use snapshot::{
    latest_snapshot, list_snapshots, parse_snapshot, read_snapshot, snapshot_to_json, ApproxMeta,
    CheckpointPolicy, CheckpointStats, SearchSnapshot, SnapshotError, SNAPSHOT_VERSION,
};
pub use visualize::snapshot_to_dot;
