//! One thread per request (PR 17): `sjoind` runs a join on the session
//! thread that owns the socket — no worker, no channel. Its own binary with
//! one test, because the evidence is this process's thread count.

#![cfg(target_os = "linux")]

use std::sync::mpsc;
use std::time::{Duration, Instant};

use sjoind::{Client, Json, Server, ServerConfig};
use spatialjoin::{Algorithm, SpatialJoin};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("/proc/self/task").count()
}

#[test]
fn a_join_adds_no_thread_to_its_session() {
    let handle = Server::new(ServerConfig::default())
        .start("127.0.0.1:0")
        .expect("bind ephemeral port");
    let addr = handle.addr();
    let mut inputs = Vec::new();
    let mut c = Client::connect(addr).expect("connect");
    for (name, seed) in [("a", 7u64), ("b", 9)] {
        let resp = c
            .request(&format!(
                "{{\"cmd\":\"register\",\"name\":\"{name}\",\"source\":\"uniform\",\"scale\":0.004,\"seed\":{seed}}}"
            ))
            .expect("register");
        assert!(resp.get("ok").is_some(), "register failed: {resp}");
        inputs.push(sjoind::proto::dataset("uniform", 0.004, seed).expect("dataset"));
    }

    // The client thread exists — and its session is open and idle — before
    // the first count, so the join is the only thing that changes between
    // the two.
    let (go, wait) = mpsc::channel::<()>();
    let client = std::thread::spawn(move || {
        wait.recv().expect("go");
        c.join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0,\"hold_ms\":400}")
            .expect("join stream")
    });
    let idle = threads();
    go.send(()).expect("client thread");
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.arbiter().snapshot().active_leases == 0 {
        assert!(Instant::now() < deadline, "the join never took its lease");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(threads(), idle, "a join in flight runs on its session's thread");

    let resp = client.join().expect("client thread");
    assert_eq!(resp.error, None, "{:?}", resp.error);
    let solo = SpatialJoin::new(Algorithm::pbsm_rpm(1 << 20))
        .try_run(&inputs[0], &inputs[1])
        .expect("solo run");
    let want: Vec<(u64, u64)> = solo.pairs.iter().map(|&(a, b)| (a.0, b.0)).collect();
    assert!(!want.is_empty(), "test join must produce results");
    assert_eq!(resp.pairs, want, "pair stream differs from a solo try_run");
    let done = resp.done.expect("done line");
    assert_eq!(done.get("results").and_then(Json::as_u64), Some(solo.stats.results()));
    assert!(handle.arbiter().is_idle());
    handle.request_drain();
    handle.join();
}
