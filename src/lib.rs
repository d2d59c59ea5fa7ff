//! # ocddiscover — order dependency discovery through order compatibility
//!
//! Facade crate for the OCDDISCOVER reproduction (Consonni, Montresor,
//! Sottovia, Velegrakis, EDBT 2019). Re-exports the substrate crates and
//! the most commonly used items so downstream users can depend on a single
//! crate:
//!
//! ```
//! use ocddiscover::{discover, DiscoveryConfig, Relation, Value};
//!
//! let rel = Relation::from_columns(vec![
//!     ("a".into(), vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
//!     ("b".into(), vec![Value::Int(10), Value::Int(20), Value::Int(30)]),
//! ]).unwrap();
//! let result = discover(&rel, &DiscoveryConfig::default());
//! assert_eq!(result.equivalence_classes, vec![vec![0, 1]]); // a <-> b
//! ```
//!
//! See the subcrates for details:
//! * [`relation`] — typed columnar tables, CSV I/O, statistics;
//! * [`core`] — the OCDDISCOVER algorithm, axioms, expansion;
//! * [`baselines`] — ORDER, FASTOD and TANE-style FD discovery;
//! * [`datasets`] — the paper's example tables and synthetic workloads.

#![warn(missing_docs)]
pub use ocdd_baselines as baselines;
pub use ocdd_core as core;
pub use ocdd_datasets as datasets;
pub use ocdd_relation as relation;

pub use ocdd_core::{
    check_ocd, check_od, check_od_after_ocd, columns_reduction, discover, discover_approximate,
    discover_approximate_resume, discover_approximate_with, discover_resume, latest_snapshot,
    read_snapshot, snapshot_to_dot, ApproxConfig, ApproxStats, ApproximateResult, AttrList,
    CheckOutcome, CheckerBackend, CheckpointPolicy, DiscoveryConfig, DiscoveryResult, FaultPlan,
    Ocd, Od, OrderEquivalence, ParallelMode, RunController, SchedulerStats, SearchSnapshot,
    SnapshotError, TerminationReason, WorkerSchedStats, MAX_WORKERS,
};
pub use ocdd_relation::{
    manifest_hash, read_csv_path, read_csv_str, CsvOptions, Relation, SampleSpec, SampleStrategy,
    Value,
};
