//! The `sjoin` binary end to end.

use std::path::Path;
use std::process::{Command, Stdio};

use spatialjoin::storage::Json;

/// `sjoin … | head`: a reader that closes the pipe early must not turn the
/// run into a broken-pipe panic.
#[test]
fn a_closed_stdout_reader_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sjoin"))
        .args(["--scale", "0.02", "--limit", "100000", "--stats"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sjoin");
    // Every write after this fails with EPIPE (Rust ignores SIGPIPE).
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for sjoin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}, stderr: {stderr}", out.status.code());
    assert!(stderr.is_empty(), "sjoin complained about the closed pipe: {stderr}");
}

/// A numeric flag outside its range is a usage error naming the flag, before
/// any dataset is built: NaN and the infinities are outside every range.
#[test]
fn an_out_of_range_number_is_a_usage_error_naming_its_flag() {
    let cases: &[(&str, &[&str])] = &[
        ("--scale", &["inf", "NaN", "-1", "0"]),
        ("--p", &["NaN", "0", "-2", "inf"]),
        ("--deadline", &["NaN", "-1", "inf"]),
        ("--fault-rate", &["2", "NaN", "-0.1"]),
        ("--persistent-rate", &["1.5", "NaN", "-1"]),
        ("--threads", &["65"]),
        ("--channels", &["0", "65"]),
        ("--mem-mb", &["16385"]),
    ];
    for &(flag, values) in cases {
        for value in values {
            let out = Command::new(env!("CARGO_BIN_EXE_sjoin")).args([flag, value]).output().expect("spawn sjoin");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{flag} {value}: stderr {stderr}");
            assert!(stderr.contains(flag), "{flag} {value}: the error does not name the flag: {stderr}");
        }
    }
}

/// A durable run of an algorithm that cannot checkpoint is refused before
/// any dataset is built, naming the ones that can: it used to generate both
/// datasets and fail with an I/O error.
#[test]
fn a_durable_run_wants_a_checkpointable_algorithm() {
    for flags in [&["--algo", "pbsm-sort", "--crash", "mid-rename"][..], &["--algo", "sssj", "--durable"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_sjoin")).args(flags).output().expect("spawn sjoin");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: stderr {stderr}");
        assert!(stderr.contains("not checkpointable; use pbsm|pbsm-trie|twolayer|s3j|s3j-orig"), "{stderr}");
        assert!(out.stdout.is_empty(), "{flags:?}: a dataset was built");
    }
}

/// The metrics report records the threads the join ran on: every core for
/// `--threads 0`, two for S3J at any `--threads` above one (one lane per
/// relation).
#[test]
fn the_metrics_report_records_the_threads_the_join_ran_on() {
    let cores = std::thread::available_parallelism().expect("core count").get() as f64;
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sjoin-threads");
    std::fs::create_dir_all(&tmp).expect("temp dir");
    for (flags, threads) in [(["pbsm", "0"], cores), (["s3j", "4"], 2.0), (["pbsm", "2"], 2.0)] {
        let path = tmp.join(format!("{}-{}.json", flags[0], flags[1]));
        let args = ["--scale", "0.02", "--algo", flags[0], "--threads", flags[1], "--metrics-json"];
        let out = Command::new(env!("CARGO_BIN_EXE_sjoin")).args(args).arg(&path).output().expect("spawn sjoin");
        assert_eq!(out.status.code(), Some(0), "{flags:?}");
        let report = Json::parse(&std::fs::read_to_string(&path).expect("metrics")).expect("json");
        assert_eq!(report.get("threads").and_then(Json::as_f64), Some(threads), "{flags:?}");
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

/// `--durable --deadline D --limit`, then `--resume`: the deadline is held
/// against the priced clock, so the first leg stops after the same pairs on
/// every run, and the resume lists exactly the rest.
#[test]
fn a_deadline_stops_the_durable_leg_alike_and_the_resume_lists_the_rest() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sjoin-durable");
    let _ = std::fs::remove_dir_all(&tmp);
    // Exit code and the listed pairs, sorted.
    let sjoin = |extra: &[&str]| {
        let flags = ["--scale", "0.05", "--mem-mb", "0.2", "--limit", "1000000"];
        let out = Command::new(env!("CARGO_BIN_EXE_sjoin")).args(flags).args(extra).output();
        let out = out.expect("spawn sjoin");
        let text = String::from_utf8_lossy(&out.stdout);
        let mut pairs: Vec<String> = text.lines().filter(|l| l.starts_with("  #")).map(Into::into).collect();
        pairs.sort_unstable();
        (out.status.code(), pairs)
    };
    let metrics = tmp.join("solo.json");
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let (code, solo) = sjoin(&["--metrics-json", metrics.to_str().expect("utf-8")]);
    assert_eq!(code, Some(0));
    let report = Json::parse(&std::fs::read_to_string(&metrics).expect("metrics")).expect("json");
    let secs = |field| report.get(field).and_then(Json::as_f64).expect(field);
    // The solo run's first result: inside the durable leg's first unit.
    let deadline = secs("first_result_seconds").to_string();
    let leg = |dir: &str, extra: &[&str]| {
        let dir = tmp.join(dir);
        sjoin(&[&["--durable", "--run-dir", dir.to_str().expect("utf-8")], extra].concat())
    };
    let (code, first) = leg("a", &["--deadline", &deadline]);
    assert_eq!(code, Some(3), "the deadline must interrupt the run");
    assert!(!first.is_empty() && first.len() < solo.len(), "{} of {}", first.len(), solo.len());
    assert_eq!(leg("b", &["--deadline", &deadline]), (Some(3), first.clone()));
    let (code, rest) = leg("a", &["--resume", "42"]);
    assert_eq!(code, Some(0));
    assert!(first.iter().all(|p| rest.binary_search(p).is_err()), "a pair listed twice");
    let mut union = [first, rest].concat();
    union.sort_unstable();
    assert_eq!(union, solo, "the two legs do not add up to the solo run");
    let _ = std::fs::remove_dir_all(&tmp);
}

/// A resume with other flags than the interrupted leg's is refused naming
/// the cause (it read "operation unsupported under fault injection"), and
/// the saved state still resumes under the right ones.
#[test]
fn a_resume_with_other_flags_is_refused_naming_the_cause() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sjoin-refused");
    let _ = std::fs::remove_dir_all(&dir);
    let sjoin = |flags: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_sjoin"));
        let out = cmd.args(["--scale", "0.05", "--run-dir"]).arg(&dir).args(flags).output().expect("spawn sjoin");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    assert_eq!(sjoin(&["--mem-mb", "0.2", "--crash", "after-commit:1"]).0, Some(3));
    for other in [&["--mem-mb", "0.2", "--seed", "9"][..], &["--mem-mb", "0.4"]] {
        let (code, stderr) = sjoin(&[other, &["--resume", "42"]].concat());
        assert_eq!(code, Some(1), "{other:?}: {stderr}");
        let why = "run 42 was started with other inputs or another configuration; rerun with the same flags";
        assert!(stderr.contains(why), "{other:?}: {stderr}");
    }
    assert_eq!(sjoin(&["--mem-mb", "0.2", "--resume", "42"]).0, Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}
