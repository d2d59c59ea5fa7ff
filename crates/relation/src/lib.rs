//! Typed columnar relation substrate for order dependency discovery.
//!
//! This crate provides everything the discovery algorithms need from the
//! data layer of the OCDDISCOVER reproduction (Consonni et al., EDBT 2019):
//!
//! * [`Value`] — a dynamically typed cell value with the paper's comparison
//!   semantics (§4.3): `NULL = NULL`, `NULLS FIRST`, natural ordering for
//!   numbers, lexicographic ordering for strings.
//! * [`DataType`] and type inference — columns are inferred as the narrowest
//!   of `Int ⊂ Float ⊂ Str`, mirroring the type inference that ORDER and
//!   OCDDISCOVER perform (and that FASTOD does not, see
//!   [`TypingMode::ForceLexicographic`]).
//! * [`Relation`] — an immutable, column-major table whose columns are
//!   **rank encoded**: every cell is compiled to a dense `u32` rank over the
//!   column's sorted distinct values, so the hot candidate-checking loop of
//!   the discovery algorithms compares plain integers.
//! * CSV reading/writing ([`csv`]) with NULL-token handling.
//! * Column statistics ([`stats`]): distinct counts, constancy and the
//!   Shannon entropy of Definition 5.1.
//! * Lexicographic index sorting ([`sort`]) — the `generateIndex` primitive
//!   of Algorithm 2.
//! * Blockwise, branchless adjacent-pair scan kernels ([`scan`]) — the
//!   check hot loop, width-dispatched over the narrowed code mirrors
//!   ([`CodeWidth`]) in portable, safe Rust that LLVM autovectorizes.
//! * Deterministic, seeded row sampling ([`sample`]) — provenance-carrying
//!   sample relations for the sample-first approximate discovery pipeline.
//! * The one worker pool of this crate and ocdd-core ([`pool::par_map`]),
//!   on which CSV ingest and the column reduction run.
//!
//! # Example
//!
//! ```
//! use ocdd_relation::{Relation, RelationBuilder, Value};
//!
//! let mut b = RelationBuilder::new(vec!["income", "bracket"]);
//! b.push_row(vec![Value::Int(35_000), Value::Int(1)]).unwrap();
//! b.push_row(vec![Value::Int(55_000), Value::Int(2)]).unwrap();
//! let rel: Relation = b.finish();
//! assert_eq!(rel.num_rows(), 2);
//! assert_eq!(rel.num_columns(), 2);
//! // Rank codes preserve the column order.
//! assert!(rel.code(0, 0) < rel.code(1, 0));
//! ```

#![deny(missing_docs)]
// I/O and user-input paths must surface errors as `Result`, never panic;
// test code may still assert with unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
// Narrowing casts name the invariant that bounds them in an
// `#[expect(.., reason = "..")]`, and every lint exemption states its
// reason and fails once stale; test code is exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]
pub mod column;
pub mod csv;
pub mod datatype;
pub mod error;
pub mod manifest;
pub mod pool;
pub mod pretty;
pub mod relation;
pub mod sample;
pub mod scan;
pub mod sort;
pub mod stats;
pub mod value;

pub use column::{CodeWidth, Column, ColumnMeta, NarrowCodes};
pub use csv::{read_csv_path, read_csv_str, write_csv, CsvOptions};
pub use datatype::{DataType, TypingMode};
pub use error::{Error, Result};
pub use manifest::manifest_hash;
pub use relation::{row_ids, ColumnId, Relation, RelationBuilder};
pub use sample::{Sample, SampleProvenance, SampleSpec, SampleStrategy};
pub use sort::sort_index_by;
pub use stats::{column_entropy, ColumnStats};
pub use value::Value;
