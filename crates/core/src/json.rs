//! JSON export of discovery results, written through the workspace's one
//! codec ([`ocdd_iosafe::json`]).
//!
//! The output is a stable, documented schema for downstream tooling:
//!
//! ```json
//! {
//!   "rows": 6, "columns": 5, "complete": true,
//!   "termination": "complete",
//!   "checks": 87, "elapsed_ms": 0.41,
//!   "constants": ["flag"],
//!   "equivalence_classes": [["income", "tax"]],
//!   "ocds": [{"lhs": ["income"], "rhs": ["savings"]}],
//!   "ods":  [{"lhs": ["income"], "rhs": ["bracket"]}]
//! }
//! ```
//!
//! Both reports open with the same envelope: `rows`, `columns`,
//! `complete`, `termination`, then for a `worker_failure` run
//! `"failed_branches": [[colA, colB], ...]` (quarantined level-2 branch
//! seed pairs, as column names) and `"failure_message"`, then `checks`.
//! `termination` is the [`crate::TerminationReason`] label (`complete` /
//! `level_cap` / `check_budget` / `time_budget` / `cancelled` /
//! `worker_failure`); `complete` is kept as the derived boolean. A
//! `WorkStealing` run carries `"scheduler": {"batches", "levels",
//! "steals", "workers": [{"batches", "steals"}, ...]}` — scheduling
//! observability, not part of the deterministic result. Every exact run
//! carries `"kernels": {"sorts": {"counting", "packed_radix",
//! "chained_refine", "comparator"}, "scans": {"scalar", "block",
//! "simd"}}` — which sort/scan kernels the run's checks dispatched to
//! (observability; the dependencies found are kernel-independent; `simd`
//! always reads 0 and keeps the report's shape). A checkpointed run
//! carries `"checkpoint": {"snapshots_written", "files_deleted",
//! "write_errors", "last_level"}` — again observability only.
//!
//! The writer is compact and appends in call order, so a report's bytes
//! are fixed by the order of the calls below; `tests/json_golden.rs` pins
//! them.

use crate::deps::{AttrList, Od};
use crate::results::DiscoveryResult;
use crate::runtime::TerminationReason;
use ocdd_iosafe::json::Writer;
use ocdd_relation::{ColumnId, Relation};

/// Write the column names of `cols` as an array.
fn names(w: &mut Writer, cols: &[ColumnId], rel: &Relation) {
    w.begin_array();
    for &c in cols {
        w.str(&rel.meta(c).name);
    }
    w.end_array();
}

/// Write `{"lhs": [..], "rhs": [..]` and leave the object open.
fn sides(w: &mut Writer, lhs: &AttrList, rhs: &AttrList, rel: &Relation) {
    w.begin_object().key("lhs");
    names(w, lhs.as_slice(), rel);
    w.key("rhs");
    names(w, rhs.as_slice(), rel);
}

/// Write the `ods` member, the last of both reports.
fn write_ods(w: &mut Writer, ods: &[Od], rel: &Relation) {
    w.key("ods").begin_array();
    for o in ods {
        sides(w, &o.lhs, &o.rhs, rel);
        w.end_object();
    }
    w.end_array();
}

/// Open the report object and write the envelope both reports share:
/// `rows` through `checks`, with the quarantined branches and panic
/// message of a `worker_failure` run.
fn envelope(
    rel: &Relation,
    complete: bool,
    termination: &TerminationReason,
    checks: u64,
) -> Writer {
    let mut w = Writer::new();
    w.begin_object();
    w.key("rows").u64(rel.num_rows() as u64);
    w.key("columns").u64(rel.num_columns() as u64);
    w.key("complete").bool(complete);
    w.key("termination").str(termination.label());
    if let TerminationReason::WorkerFailure { branches, message } = termination {
        w.key("failed_branches").begin_array();
        for &(a, b) in branches {
            names(&mut w, &[a, b], rel);
        }
        w.end_array();
        w.key("failure_message").str(message);
    }
    w.key("checks").u64(checks);
    w
}

/// Serialize a [`DiscoveryResult`] to JSON, resolving column ids to names
/// through `rel`.
pub fn result_to_json(result: &DiscoveryResult, rel: &Relation) -> String {
    let mut w = envelope(rel, result.complete(), &result.termination, result.checks);
    w.key("elapsed_ms")
        .fixed(result.elapsed.as_secs_f64() * 1e3, 3);
    let k = &result.kernels;
    w.key("kernels").begin_object();
    w.key("sorts").begin_object();
    w.key("counting").u64(k.counting);
    w.key("packed_radix").u64(k.packed_radix);
    w.key("chained_refine").u64(k.chained_refine);
    w.key("comparator").u64(k.comparator);
    w.end_object();
    w.key("scans").begin_object();
    w.key("scalar").u64(k.scan_scalar);
    w.key("block").u64(k.scan_block);
    w.key("simd").u64(k.scan_simd);
    w.end_object().end_object();
    if let Some(sched) = &result.scheduler {
        w.key("scheduler").begin_object();
        w.key("batches").u64(sched.batches);
        w.key("levels").u64(sched.levels);
        w.key("steals").u64(sched.steals());
        w.key("workers").begin_array();
        for worker in &sched.workers {
            w.begin_object();
            w.key("batches").u64(worker.batches);
            w.key("steals").u64(worker.steals);
            w.end_object();
        }
        w.end_array().end_object();
    }
    if let Some(ckpt) = &result.checkpoint {
        w.key("checkpoint").begin_object();
        w.key("snapshots_written").u64(ckpt.snapshots_written);
        w.key("files_deleted").u64(ckpt.files_deleted);
        w.key("write_errors").u64(ckpt.write_errors);
        w.key("last_level").u64(ckpt.last_level as u64);
        w.end_object();
    }
    w.key("constants");
    names(&mut w, &result.constants, rel);
    w.key("equivalence_classes").begin_array();
    for class in &result.equivalence_classes {
        names(&mut w, class, rel);
    }
    w.end_array();
    w.key("ocds").begin_array();
    for o in &result.ocds {
        sides(&mut w, &o.lhs, &o.rhs, rel);
        w.end_object();
    }
    w.end_array();
    write_ods(&mut w, &result.ods, rel);
    w.end_object();
    w.finish()
}

/// Serialize an [`ApproximateResult`](crate::ApproximateResult) to JSON.
///
/// The envelope of [`result_to_json`] — quarantined branches and panic
/// message included — then an `"approx"` object with the pipeline's
/// triage accounting: `sample_rows`, `total_rows`, `seed`,
/// `sample_manifest`, `exhaustive`, `estimated` (sample-phase
/// validations), `accepted_by_sample`, `rejected_by_sample`, `escalated`
/// (full-data verifications), `full_checks_saved`, and the
/// `sample_row_scans`/`full_row_scans` cost model. OCDs additionally
/// carry their measured `error` with its exact `removals`/`rows`
/// rational.
pub fn approx_result_to_json(result: &crate::ApproximateResult, rel: &Relation) -> String {
    let mut w = envelope(rel, result.complete(), &result.termination, result.checks);
    if let Some(a) = &result.approx {
        w.key("approx").begin_object();
        w.key("sample_rows").u64(a.sample_rows as u64);
        w.key("total_rows").u64(a.total_rows as u64);
        w.key("seed").u64(a.seed);
        w.key("sample_manifest")
            .str(&format!("{:016x}", a.sample_manifest));
        w.key("exhaustive").bool(a.exhaustive);
        w.key("estimated").u64(a.estimated);
        w.key("accepted_by_sample").u64(a.accepted_by_sample);
        w.key("rejected_by_sample").u64(a.rejected_by_sample);
        w.key("escalated").u64(a.escalated);
        w.key("full_checks_saved").u64(a.full_checks_saved);
        w.key("sample_row_scans").u64(a.sample_row_scans);
        w.key("full_row_scans").u64(a.full_row_scans);
        w.end_object();
    }
    w.key("ocds").begin_array();
    for o in &result.ocds {
        sides(&mut w, &o.ocd.lhs, &o.ocd.rhs, rel);
        w.key("error").fixed(o.error, 6);
        w.key("removals").u64(o.removals as u64);
        w.key("rows").u64(o.rows as u64);
        w.end_object();
    }
    w.end_array();
    write_ods(&mut w, &result.ods, rel);
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{discover, DiscoveryConfig};
    use ocdd_iosafe::json::{parse, Json};
    use ocdd_relation::Value;

    /// Parse a report and drop the named top-level members.
    fn parsed_without(json: &str, keys: &[&str]) -> Json {
        let mut v = parse(json).unwrap_or_else(|e| panic!("{e}: {json}"));
        if let Json::Obj(fields) = &mut v {
            fields.retain(|(k, _)| !keys.contains(&k.as_str()));
        }
        v
    }

    fn names_of(v: &Json) -> Vec<&str> {
        v.as_array()
            .expect("array of names")
            .iter()
            .map(|n| n.as_str().expect("name"))
            .collect()
    }

    #[test]
    fn json_shape_on_tax_like_table() {
        let rel = Relation::from_columns(vec![
            (
                "income".to_string(),
                vec![1, 2, 2, 3].into_iter().map(Value::Int).collect(),
            ),
            (
                "tax".to_string(),
                vec![10, 20, 20, 30].into_iter().map(Value::Int).collect(),
            ),
            ("flag".to_string(), vec![Value::Int(0); 4]),
        ])
        .unwrap();
        let result = discover(&rel, &DiscoveryConfig::default());
        let json = result_to_json(&result, &rel);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"constants\":[\"flag\"]"), "{json}");
        assert!(
            json.contains("\"equivalence_classes\":[[\"income\",\"tax\"]]"),
            "{json}"
        );
        assert!(json.contains("\"complete\":true"));
        assert!(json.contains("\"termination\":\"complete\""));
        assert!(json.contains("\"kernels\":{\"sorts\":{"), "{json}");
        assert!(json.contains("\"scans\":{\"scalar\":"), "{json}");
    }

    #[test]
    fn worker_failure_carries_branches_and_message() {
        let rel = Relation::from_columns(vec![
            ("a".to_string(), vec![Value::Int(1), Value::Int(2)]),
            ("b".to_string(), vec![Value::Int(1), Value::Int(2)]),
        ])
        .unwrap();
        let result = DiscoveryResult {
            termination: crate::TerminationReason::WorkerFailure {
                branches: vec![(0, 1)],
                message: "boom \"quoted\"".into(),
            },
            ..DiscoveryResult::default()
        };
        let json = result_to_json(&result, &rel);
        assert!(
            json.contains("\"termination\":\"worker_failure\""),
            "{json}"
        );
        assert!(json.contains("\"complete\":false"), "{json}");
        assert!(
            json.contains("\"failed_branches\":[[\"a\",\"b\"]]"),
            "{json}"
        );
        assert!(
            json.contains("\"failure_message\":\"boom \\\"quoted\\\"\""),
            "{json}"
        );
    }

    /// An approximate run quarantines branches like an exact one, and its
    /// report carries the same failure payload in the same place.
    #[test]
    fn approx_worker_failure_carries_branches_and_message() {
        let rel = Relation::from_columns(vec![
            ("a".to_string(), vec![Value::Int(1), Value::Int(2)]),
            ("b".to_string(), vec![Value::Int(1), Value::Int(2)]),
        ])
        .unwrap();
        let termination = crate::TerminationReason::WorkerFailure {
            branches: vec![(1, 0)],
            message: "injected \"panic\"".into(),
        };
        let approx = crate::ApproximateResult {
            termination: termination.clone(),
            checks: 3,
            ..crate::ApproximateResult::default()
        };
        let v = parse(&approx_result_to_json(&approx, &rel)).expect("valid JSON");
        let branches = v
            .field("failed_branches", Json::as_array)
            .expect("branches");
        assert_eq!(branches.len(), 1);
        assert_eq!(names_of(&branches[0]), ["b", "a"]);
        assert_eq!(
            v.field("failure_message", Json::as_str),
            Ok("injected \"panic\"")
        );
        // The shared envelope: same members, same order, as the exact
        // report of the same failure.
        let exact = DiscoveryResult {
            termination,
            checks: 3,
            ..DiscoveryResult::default()
        };
        let keys = |v: &Json| -> Vec<String> {
            v.as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.clone())
                .take_while(|k| k != "elapsed_ms" && k != "approx" && k != "ocds")
                .collect()
        };
        let exact = parse(&result_to_json(&exact, &rel)).expect("valid JSON");
        assert_eq!(keys(&v), keys(&exact));
        assert_eq!(
            keys(&v),
            [
                "rows",
                "columns",
                "complete",
                "termination",
                "failed_branches",
                "failure_message",
                "checks"
            ]
        );
    }

    #[test]
    fn workstealing_run_emits_scheduler_stats() {
        let rel = Relation::from_columns(vec![
            (
                "a".to_string(),
                vec![1, 2, 3, 4].into_iter().map(Value::Int).collect(),
            ),
            (
                "b".to_string(),
                vec![2, 1, 4, 3].into_iter().map(Value::Int).collect(),
            ),
            (
                "c".to_string(),
                vec![1, 3, 2, 4].into_iter().map(Value::Int).collect(),
            ),
        ])
        .unwrap();
        let config = DiscoveryConfig {
            mode: crate::ParallelMode::WorkStealing(2),
            ..DiscoveryConfig::default()
        };
        let result = discover(&rel, &config);
        let json = result_to_json(&result, &rel);
        assert!(json.contains("\"scheduler\":{\"batches\":"), "{json}");
        assert!(json.contains("\"workers\":[{\"batches\":"), "{json}");
        // Sequential runs must not carry the key.
        let seq = discover(&rel, &DiscoveryConfig::default());
        assert!(!result_to_json(&seq, &rel).contains("\"scheduler\""));
    }

    #[test]
    fn approx_json_carries_triage_accounting_and_errors() {
        let rel = Relation::from_columns(vec![
            ("a".to_string(), (0..20).map(Value::Int).collect()),
            (
                "b".to_string(),
                (0..20).map(|i| Value::Int(i / 2)).collect(),
            ),
        ])
        .unwrap();
        let res = crate::discover_approximate(&rel, &DiscoveryConfig::default(), 0.0);
        let json = approx_result_to_json(&res, &rel);
        assert!(json.contains("\"approx\":{\"sample_rows\":20"), "{json}");
        assert!(json.contains("\"exhaustive\":true"), "{json}");
        assert!(json.contains("\"full_checks_saved\":0"), "{json}");
        assert!(json.contains("\"error\":0.000000"), "{json}");
        assert!(json.contains("\"removals\":0"), "{json}");
        // The document parses, and its OCDs read back with their errors.
        let v = parsed_without(&json, &["approx"]);
        let ocds = v.field("ocds", Json::as_array).expect("ocds");
        assert_eq!(ocds.len(), res.ocds.len());
        for (o, want) in ocds.iter().zip(&res.ocds) {
            assert_eq!(o.field("error", Json::as_f64), Ok(want.error));
            assert_eq!(o.field("rows", Json::as_usize), Ok(want.rows));
        }
        assert_eq!(v.get("approx"), None);
    }

    #[test]
    fn json_parses_with_awkward_column_names() {
        let name = "weird \"name\"\n\\ \u{1} \u{1F980}";
        let rel =
            Relation::from_columns(vec![(name.to_string(), vec![Value::Int(1), Value::Int(1)])])
                .unwrap();
        let result = discover(&rel, &DiscoveryConfig::default());
        let json = result_to_json(&result, &rel);
        let v = parsed_without(&json, &["elapsed_ms", "kernels"]);
        assert!(v.field("elapsed_ms", Some).is_err());
        assert_eq!(v.field("rows", Json::as_u64), Ok(2));
        assert_eq!(v.field("complete", Json::as_bool), Ok(true));
        assert!(
            parse(&json)
                .expect("valid JSON")
                .field("elapsed_ms", Json::as_f64)
                .is_ok_and(|ms| ms >= 0.0),
            "{json}"
        );
        let constants = v.field("constants", Some).expect("constants");
        assert_eq!(names_of(constants), [name]);
    }
}
