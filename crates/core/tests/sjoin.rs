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
