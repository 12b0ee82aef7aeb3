//! `sjoin … | head`: a reader that closes the pipe early must not turn the
//! run into a broken-pipe panic.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_reader_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sjoin"))
        .args(["--scale", "0.02", "--limit", "100000", "--stats"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sjoin");
    // Close the read end before the join has printed anything: every write
    // from here on fails with EPIPE (the Rust runtime ignores SIGPIPE).
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for sjoin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit {:?}, stderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.is_empty(),
        "sjoin complained about the closed pipe: {stderr}"
    );
}
