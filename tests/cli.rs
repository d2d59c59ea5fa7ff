//! End-to-end tests of the `ocdd` CLI binary.

use ocdd_iosafe::json::{parse, Json};
use std::process::Command;

fn ocdd(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ocdd"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn list_shows_all_datasets() {
    let out = ocdd(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for name in [
        "dbtesma",
        "flight_1k",
        "hepatitis",
        "horse",
        "letter",
        "lineitem",
        "yes",
        "no",
        "numbers",
    ] {
        assert!(text.contains(name), "missing {name} in list output");
    }
}

#[test]
fn dataset_emits_csv() {
    let out = ocdd(&["dataset", "yes"]);
    assert!(out.status.success());
    assert_eq!(stdout(&out), "A,B\n1,1\n1,2\n2,2\n2,3\n3,3\n");
}

#[test]
fn dataset_rows_flag_truncates() {
    let out = ocdd(&["dataset", "hepatitis", "--rows", "7"]);
    assert!(out.status.success());
    // Header plus 7 rows.
    assert_eq!(stdout(&out).lines().count(), 8);
}

#[test]
fn unknown_dataset_fails_cleanly() {
    let out = ocdd(&["dataset", "nope"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));
}

#[test]
fn profile_pipeline_finds_dependencies() {
    let dir = std::env::temp_dir().join("ocdd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("p.csv");
    std::fs::write(&path, "a,b,c\n1,10,5\n2,20,5\n3,30,5\n").unwrap();
    let out = ocdd(&["profile", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("constant    c"), "got: {text}");
    assert!(text.contains("equivalent  a <-> b"), "got: {text}");
    assert!(text.contains("complete"));
}

#[test]
fn profile_every_algorithm_runs() {
    let dir = std::env::temp_dir().join("ocdd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("algos.csv");
    std::fs::write(&path, "a,b\n1,1\n1,2\n2,2\n2,3\n3,3\n").unwrap();
    for algo in ["ocdd", "order", "fastod", "tane", "bidi", "approx"] {
        let out = ocdd(&["profile", path.to_str().unwrap(), "--algo", algo]);
        assert!(out.status.success(), "algo {algo} failed: {:?}", out);
    }
}

#[test]
fn simplify_drops_redundant_keys() {
    let dir = std::env::temp_dir().join("ocdd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("s.csv");
    std::fs::write(&path, "x,y\n1,10\n2,20\n3,30\n").unwrap();
    let out = ocdd(&["simplify", path.to_str().unwrap(), "--order-by", "x,y"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("simplified: ORDER BY x"), "got: {text}");
    assert!(text.contains("dropped y"));
}

#[test]
fn missing_arguments_print_usage() {
    let out = ocdd(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn dataset_round_trips_through_profile() {
    // `ocdd dataset numbers` piped back through `ocdd profile` (via file).
    let csv = stdout(&ocdd(&["dataset", "numbers"]));
    let dir = std::env::temp_dir().join("ocdd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("n.csv");
    std::fs::write(&path, csv).unwrap();
    let out = ocdd(&["profile", path.to_str().unwrap(), "--show-table"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("6×5"));
    assert!(text.contains("ocd"));
}

#[test]
fn profile_json_output_is_machine_readable() {
    let dir = std::env::temp_dir().join("ocdd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("j.csv");
    std::fs::write(&path, "a,b\n1,10\n2,20\n3,30\n").unwrap();
    let out = ocdd(&["profile", path.to_str().unwrap(), "--json"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(
        text.starts_with('{') && text.trim_end().ends_with('}'),
        "got: {text}"
    );
    assert!(
        text.contains("\"equivalence_classes\":[[\"a\",\"b\"]]"),
        "got: {text}"
    );
}

#[test]
fn json_is_refused_by_algorithms_without_a_json_report() {
    let dir = std::env::temp_dir().join("ocdd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("json_algos.csv");
    std::fs::write(&path, "a,b\n1,1\n1,2\n2,2\n2,3\n3,3\n").unwrap();
    let report = dir.join("json_algos.json");
    for algo in ["order", "fastod", "tane", "bidi"] {
        for flags in [vec!["--json"], vec!["--out", report.to_str().unwrap()]] {
            let mut args = vec!["profile", path.to_str().unwrap(), "--algo", algo];
            args.extend(&flags);
            let out = ocdd(&args);
            assert_eq!(out.status.code(), Some(1), "{algo} {flags:?}: {out:?}");
            assert!(stdout(&out).is_empty(), "{algo} {flags:?}: {out:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(flags[0]), "{algo} {flags:?}: {err}");
        }
    }
    assert!(!report.exists(), "a refused run writes no report");
}

#[test]
fn approx_rejects_out_of_range_epsilon_and_confidence() {
    let dir = std::env::temp_dir().join("ocdd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("approx_flags.csv");
    let rows: String = (0..300).map(|i| format!("{i},{}\n", i / 3)).collect();
    std::fs::write(&path, format!("a,b\n{rows}")).unwrap();
    let csv = path.to_str().unwrap();
    let approx = |flags: &[&str]| {
        let mut args = vec!["profile", csv, "--algo", "approx"];
        args.extend_from_slice(flags);
        ocdd(&args)
    };

    for eps in ["NaN", "-0.5", "1.5", "inf"] {
        let out = approx(&["--epsilon", eps]);
        assert!(!out.status.success(), "--epsilon {eps} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--epsilon must be in [0, 1]"), "got: {err}");
    }
    for conf in ["NaN", "1.5", "1", "0", "-0.1"] {
        let out = approx(&["--sample", "100", "--confidence", conf]);
        assert!(!out.status.success(), "--confidence {conf} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--confidence must be in (0, 1)"), "got: {err}");
    }

    // The closed ends of ε's range and an interior confidence still run.
    for flags in [
        &["--epsilon", "0"][..],
        &["--epsilon", "1"],
        &["--sample", "100", "--confidence", "0.5"],
    ] {
        let out = approx(flags);
        assert!(out.status.success(), "{flags:?} failed: {out:?}");
    }
    let text = stdout(&approx(&["--epsilon", "0.01"]));
    assert!(text.contains("[a] ~ [b]"), "got: {text}");
    assert!(text.contains("[a] -> [b]"), "got: {text}");
}

#[test]
fn budget_rejects_unrepresentable_durations_with_usage() {
    let dir = std::env::temp_dir().join("ocdd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("budget.csv");
    std::fs::write(&path, "a,b\n1,1\n2,2\n3,3\n").unwrap();
    let csv = path.to_str().unwrap();
    for secs in ["-1", "NaN", "inf", "1e300"] {
        let out = ocdd(&["profile", csv, "--budget", secs]);
        assert_eq!(out.status.code(), Some(2), "--budget {secs}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "--budget {secs}: {err}");
    }
    for secs in ["0", "5"] {
        let out = ocdd(&["profile", csv, "--budget", secs]);
        assert!(out.status.success(), "--budget {secs} failed: {out:?}");
    }
}

/// Parse a JSON report and drop the named top-level members.
fn without(json: &str, keys: &[&str]) -> Json {
    let mut v = parse(json).unwrap_or_else(|e| panic!("{e}: {json}"));
    if let Json::Obj(fields) = &mut v {
        fields.retain(|(k, _)| !keys.contains(&k.as_str()));
    }
    v
}

#[test]
fn threads_alone_pick_the_mode_and_keep_the_report() {
    let dir = std::env::temp_dir().join("ocdd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("threads.csv");
    std::fs::write(
        &path,
        stdout(&ocdd(&["dataset", "hepatitis", "--rows", "120"])),
    )
    .unwrap();
    let report = |threads: &str| {
        let out = ocdd(&[
            "profile",
            path.to_str().unwrap(),
            "--json",
            "--threads",
            threads,
        ]);
        assert!(out.status.success(), "--threads {threads} failed: {out:?}");
        let json = stdout(&out);
        let scheduled = parse(&json).is_ok_and(|v| v.get("scheduler").is_some());
        (scheduled, without(&json, &["elapsed_ms", "scheduler"]))
    };
    let (one_scheduled, one) = report("1");
    let (two_scheduled, two) = report("2");
    assert!(!one_scheduled, "--threads 1 runs the sequential search");
    assert!(
        two_scheduled,
        "--threads 2 runs the work-stealing scheduler"
    );
    assert!(
        one.field("ocds", Json::as_array)
            .is_ok_and(|ocds| !ocds.is_empty()),
        "got: {one:?}"
    );
    assert_eq!(one, two);
}

#[test]
fn mode_flag_is_rejected_with_usage() {
    let out = ocdd(&["profile", "table.csv", "--mode", "steal"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "got: {err}");
    assert!(!err.contains("--mode"), "usage still lists --mode: {err}");
}

#[test]
fn threads_above_the_worker_cap_print_usage() {
    let dir = std::env::temp_dir().join("ocdd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("many_threads.csv");
    std::fs::write(&path, "a,b,c\n1,2,3\n2,1,3\n3,3,1\n").unwrap();
    let csv = path.to_str().unwrap();
    let cap = ocddiscover::MAX_WORKERS;
    for threads in [cap + 1, 200_000] {
        let out = ocdd(&["profile", csv, "--threads", &threads.to_string()]);
        assert_eq!(out.status.code(), Some(2), "--threads {threads}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "--threads {threads}: {err}");
    }
    // At the cap, a level spawns no more threads than it has batches.
    let out = ocdd(&["profile", csv, "--threads", &cap.to_string()]);
    assert!(out.status.success(), "--threads {cap}: {out:?}");
}

/// A dump naming a column the relation does not have is refused, with a
/// message naming the field, instead of crashing the report writer.
#[test]
fn resume_refuses_a_dump_naming_a_missing_column() {
    let dir = std::env::temp_dir().join(format!("ocdd_cli_bad_dump_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("table.csv");
    std::fs::write(
        &csv,
        stdout(&ocdd(&["dataset", "hepatitis", "--rows", "60"])),
    )
    .unwrap();
    let (csv, ckpt) = (csv.to_str().unwrap(), dir.join("ckpt"));
    let run = ocdd(&[
        "profile",
        csv,
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--checkpoint-keep",
        "0",
        "--json",
    ]);
    assert!(run.status.success());
    // The initial boundary dump has accumulated no OCD yet.
    let dump = std::fs::read_dir(&ckpt)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.to_string_lossy().ends_with("-L0002.json"))
        .expect("initial boundary dump");
    let text = std::fs::read_to_string(&dump).unwrap();
    assert!(text.contains("\"ocds\":[]"), "{text}");
    std::fs::write(
        &dump,
        text.replace("\"ocds\":[]", "\"ocds\":[{\"x\":[99],\"y\":[0]}]"),
    )
    .unwrap();

    let out = ocdd(&["profile", csv, "--resume", dump.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`ocds` names column 99"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn top_k_and_epsilon_are_refused_outside_their_algorithms() {
    let dir = std::env::temp_dir().join("ocdd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scoped_flags.csv");
    std::fs::write(
        &path,
        stdout(&ocdd(&["dataset", "hepatitis", "--rows", "40"])),
    )
    .unwrap();
    let csv = path.to_str().unwrap();
    let refused = [
        ("bidi", "--top-k", "3"),
        ("fastod", "--top-k", "3"),
        ("approx", "--top-k", "3"),
        ("ocdd", "--epsilon", "0.1"),
        ("bidi", "--epsilon", "0.1"),
        ("order", "--epsilon", "0.1"),
    ];
    for (algo, flag, value) in refused {
        let out = ocdd(&["profile", csv, "--algo", algo, flag, value]);
        assert_eq!(out.status.code(), Some(1), "{algo} {flag}: {out:?}");
        // Refused before the CSV is read: not even the summary is printed.
        assert!(stdout(&out).is_empty(), "{algo} {flag}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{algo} {flag}: {err}");
    }
    for (algo, flag, value) in [("ocdd", "--top-k", "3"), ("approx", "--epsilon", "0.1")] {
        let out = ocdd(&["profile", csv, "--algo", algo, flag, value]);
        assert!(out.status.success(), "{algo} {flag}: {out:?}");
    }
}

/// The `--algo bidi` report on `ocdd dataset horse`, pinned byte for byte
/// (72 OCDs, 7 ODs, 9,232 checks) and the same on one worker or three.
#[test]
fn bidi_report_on_horse_is_pinned() {
    let dir = std::env::temp_dir().join("ocdd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("horse_bidi.csv");
    std::fs::write(&path, stdout(&ocdd(&["dataset", "horse"]))).unwrap();
    let want = include_str!("fixtures/horse_bidi.txt");
    assert_eq!(want.lines().filter(|l| l.starts_with("ocd ")).count(), 72);
    assert_eq!(want.lines().filter(|l| l.starts_with("od ")).count(), 7);
    assert!(want.ends_with("-- 9232 checks, complete\n"));
    for threads in ["1", "3"] {
        let out = ocdd(&[
            "profile",
            path.to_str().unwrap(),
            "--algo",
            "bidi",
            "--threads",
            threads,
        ]);
        assert!(out.status.success(), "--threads {threads}: {out:?}");
        assert_eq!(stdout(&out), want, "--threads {threads}");
    }
}
