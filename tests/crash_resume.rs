//! Crash-equivalence harness: SIGKILL a real `ocdd` process mid-run and
//! prove `--resume` reproduces the uninterrupted run's report. This is the
//! process-level counterpart of the in-process sweep in
//! parallel_determinism.rs — nothing is simulated: the child is killed
//! with no chance to flush or unwind, so only the atomic dump protocol
//! (tmp + fsync + rename) keeps the checkpoint directory consistent.
//!
//! Needs the fault-injection feature for `--check-delay-ms` (the knob that
//! stretches the run long enough to die mid-level):
//! `cargo test --features fault-injection --test crash_resume`.

#![cfg(feature = "fault-injection")]
// The tests write throwaway CSV inputs to the temp dir, which need no
// atomic write.
#![allow(clippy::disallowed_methods)]

use ocdd_iosafe::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn ocdd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ocdd"))
}

fn run_ok(cmd: &mut Command, what: &str) -> String {
    let out = cmd.output().unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(
        out.status.success(),
        "{what} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Parse a JSON report and drop its wall-clock and checkpoint-counter
/// members; the rest must match exactly between runs.
fn normalize(json: &str) -> Json {
    let mut v = parse(json).unwrap_or_else(|e| panic!("{e}: {json}"));
    if let Json::Obj(fields) = &mut v {
        fields.retain(|(k, _)| k != "elapsed_ms" && k != "checkpoint");
    }
    v
}

/// Dump files in `dir` that finished their atomic rename (no tmp suffix).
fn published_dumps(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".json"))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn sigkilled_run_resumes_to_the_uninterrupted_report() {
    sigkill_and_resume("exact", &[]);
}

/// The approximate twin: the sampled pipeline runs on the same level
/// driver, so its dumps resume the same way — triage counters included,
/// since its report carries them.
#[test]
fn sigkilled_approximate_run_resumes_to_the_uninterrupted_report() {
    sigkill_and_resume(
        "approx",
        &["--algo", "approx", "--sample", "60", "--epsilon", "0.05"],
    );
}

/// Profile hepatitis (150 rows) with `algo` once uninterrupted, once
/// checkpointed and SIGKILLed after its first dump, then resume from the
/// newest dump and require the uninterrupted report.
fn sigkill_and_resume(tag: &str, algo: &[&str]) {
    let work = std::env::temp_dir().join(format!("ocdd-crash-resume-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(&work).expect("create work dir");
    let csv = work.join("table.csv");
    let ckpt = work.join("ckpt");
    let ref_json = work.join("ref.json");
    let res_json = work.join("res.json");

    let table = run_ok(
        ocdd().args(["dataset", "hepatitis", "--rows", "150"]),
        "ocdd dataset",
    );
    std::fs::write(&csv, table).expect("write csv");

    // Uninterrupted reference, default (sequential) mode.
    run_ok(
        ocdd()
            .args([
                "profile",
                csv.to_str().unwrap(),
                "--json",
                "--out",
                ref_json.to_str().unwrap(),
            ])
            .args(algo),
        "reference run",
    );

    // Checkpointed run, slowed so it is guaranteed to be mid-search when
    // the kill lands; SIGKILL the child as soon as a dump is published.
    let mut child = ocdd()
        .args([
            "profile",
            csv.to_str().unwrap(),
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--checkpoint-keep",
            "0",
            "--check-delay-ms",
            "3",
            "--json",
            "--out",
            work.join("crash.json").to_str().unwrap(),
        ])
        .args(algo)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn checkpointed run");
    let deadline = Instant::now() + Duration::from_secs(60);
    while published_dumps(&ckpt).is_empty() {
        assert!(
            Instant::now() < deadline,
            "no checkpoint appeared within 60s"
        );
        if child.try_wait().expect("poll child").is_some() {
            panic!("child finished before any checkpoint was observed");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // Let it get some way into the level so the kill interrupts real work.
    std::thread::sleep(Duration::from_millis(200));
    child.kill().expect("SIGKILL child"); // SIGKILL on unix: no unwinding
    let status = child.wait().expect("reap child");
    assert!(!status.success(), "child must have died by signal");

    // The directory may hold a half-written staging file from the moment
    // of death, but every published dump parses.
    let dumps = published_dumps(&ckpt);
    assert!(!dumps.is_empty());

    // Resume from the newest dump (directory form) at full speed.
    run_ok(
        ocdd()
            .args([
                "profile",
                csv.to_str().unwrap(),
                "--resume",
                ckpt.to_str().unwrap(),
                "--json",
                "--out",
                res_json.to_str().unwrap(),
            ])
            .args(algo),
        "resumed run",
    );

    let reference = std::fs::read_to_string(&ref_json).expect("read reference");
    let resumed = std::fs::read_to_string(&res_json).expect("read resumed");
    assert_eq!(
        normalize(&reference),
        normalize(&resumed),
        "{tag}: resumed report differs from the uninterrupted one"
    );
    std::fs::remove_dir_all(&work).ok();
}

#[test]
fn dump_dot_renders_a_published_checkpoint() {
    let work = std::env::temp_dir().join(format!("ocdd-crash-dot-{}", std::process::id()));
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(&work).expect("create work dir");
    let csv = work.join("table.csv");
    let ckpt = work.join("ckpt");

    let table = run_ok(
        ocdd().args(["dataset", "hepatitis", "--rows", "80"]),
        "ocdd dataset",
    );
    std::fs::write(&csv, table).expect("write csv");
    run_ok(
        ocdd().args([
            "profile",
            csv.to_str().unwrap(),
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--json",
        ]),
        "checkpointed run",
    );
    let dot = run_ok(
        ocdd().args([
            "dump-dot",
            ckpt.to_str().unwrap(),
            "--csv",
            csv.to_str().unwrap(),
        ]),
        "dump-dot",
    );
    assert!(dot.starts_with("digraph ocdd_lattice {"), "{dot}");
    assert!(dot.trim_end().ends_with('}'), "{dot}");
    assert!(dot.contains("->"), "lattice must have edges: {dot}");
    std::fs::remove_dir_all(&work).ok();
}
