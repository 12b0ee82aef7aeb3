//! Integration tests for the `sjoind` join service (PR 7): concurrent
//! clients over loopback, admission control and overload shedding, fault
//! isolation and deadline propagation.
//!
//! The load-bearing property everywhere: a join admitted under concurrent
//! load is **bit-identical to a solo run** of the same request — the memory
//! arbiter grants all-or-nothing, so co-tenancy shares the budget but never
//! the configuration.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sjoind::{Client, Json, JoinResponse, Server, ServerConfig, ServerHandle};
use spatialjoin::{Algorithm, Kpe, SpatialJoin};

const MB: u64 = 1024 * 1024;

fn start(cfg: ServerConfig) -> ServerHandle {
    Server::new(cfg)
        .start("127.0.0.1:0")
        .expect("bind ephemeral port")
}

/// Registers the standard test pair: two small uniform networks.
fn register_ab(addr: SocketAddr) -> (Vec<Kpe>, Vec<Kpe>) {
    let mut c = Client::connect(addr).expect("connect");
    for (name, seed) in [("a", 7u64), ("b", 7 ^ 0xFFFF)] {
        let resp = c
            .request(&format!(
                "{{\"cmd\":\"register\",\"name\":\"{name}\",\"source\":\"uniform\",\"scale\":0.004,\"seed\":{seed}}}"
            ))
            .expect("register");
        assert!(resp.get("ok").is_some(), "register failed: {resp}");
    }
    (
        sjoind::proto::dataset("uniform", 0.004, 7).expect("dataset a"),
        sjoind::proto::dataset("uniform", 0.004, 7 ^ 0xFFFF).expect("dataset b"),
    )
}

/// Solo (non-service) run of the same request — the bit-identity oracle.
fn solo(left: &[Kpe], right: &[Kpe], mem: usize) -> (Vec<(u64, u64)>, u64, u64) {
    let run = SpatialJoin::new(Algorithm::pbsm_rpm(mem))
        .try_run(left, right)
        .expect("solo run");
    let mut pairs: Vec<(u64, u64)> = run
        .pairs
        .iter()
        .map(|&(a, b)| (a.0, b.0))
        .collect();
    pairs.sort_unstable();
    (pairs, run.stats.results(), run.stats.duplicates())
}

fn sorted_pairs(resp: &JoinResponse) -> Vec<(u64, u64)> {
    let mut pairs = resp.pairs.clone();
    pairs.sort_unstable();
    pairs
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn concurrent_clients_are_bit_identical_to_solo_runs() {
    // Budget fits two 1 MiB joins; four concurrent clients force the other
    // two through the admission queue. Every response must still be
    // bit-identical to a solo run, and the arbiter must never over-commit.
    let handle = start(ServerConfig {
        budget_bytes: 2 * MB,
        max_queue: 4,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let (left, right) = register_ab(addr);
    let (want_pairs, want_results, want_duplicates) = solo(&left, &right, MB as usize);
    assert!(want_results > 0, "test join must produce results");

    let threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"algo\":\"pbsm\",\"mem_mb\":1.0}")
                    .expect("join stream")
            })
        })
        .collect();
    for t in threads {
        let resp = t.join().expect("client thread");
        assert_eq!(resp.error, None, "co-tenant join failed: {:?}", resp.error);
        let done = resp.done.clone().expect("done line");
        assert_eq!(done.get("results").and_then(Json::as_u64), Some(want_results));
        assert_eq!(
            done.get("duplicates").and_then(Json::as_u64),
            Some(want_duplicates)
        );
        assert_eq!(sorted_pairs(&resp), want_pairs, "pair stream differs from solo");
    }
    let snap = handle.arbiter().snapshot();
    assert!(
        snap.peak_leased_bytes <= snap.budget_bytes,
        "arbiter over-committed: {} > {}",
        snap.peak_leased_bytes,
        snap.budget_bytes
    );
    assert_eq!(snap.admitted, 4);
    assert!(handle.arbiter().is_idle(), "leases leaked after load");
}

#[test]
fn overload_is_shed_with_typed_retry_hint() {
    // Queue depth zero: while one join holds most of the budget, a second
    // that does not fit must be rejected `overloaded` immediately — and the
    // holder must still complete bit-identically.
    let handle = start(ServerConfig {
        budget_bytes: MB,
        max_queue: 0,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let (left, right) = register_ab(addr);
    let (want_pairs, want_results, _) = solo(&left, &right, (0.8 * MB as f64) as usize);

    let holder = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect holder");
        c.join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":0.8,\"hold_ms\":1500}")
            .expect("holder stream")
    });
    wait_until("holder to take its lease", || {
        handle.arbiter().snapshot().leased_bytes > 0
    });

    let mut shed = Client::connect(addr).expect("connect shed");
    let resp = shed
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":0.5}")
        .expect("shed stream");
    assert_eq!(resp.error_kind(), Some("overloaded"), "{:?}", resp.error);
    let retry_after = resp
        .error
        .as_ref()
        .and_then(|e| e.get("retry_after"))
        .and_then(Json::as_f64)
        .expect("retry_after hint");
    assert!(retry_after > 0.0, "retry_after must be positive");
    assert!(resp.pairs.is_empty(), "shed join must not stream pairs");

    // An impossible request is typed differently: it can never be admitted.
    let resp = shed
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":64}")
        .expect("too-large stream");
    assert_eq!(resp.error_kind(), Some("too_large"), "{:?}", resp.error);
    assert_eq!(
        resp.error.as_ref().and_then(|e| e.get("budget")).and_then(Json::as_u64),
        Some(MB)
    );

    let held = holder.join().expect("holder thread");
    assert_eq!(held.error, None, "{:?}", held.error);
    assert_eq!(
        held.done.as_ref().and_then(|d| d.get("results")).and_then(Json::as_u64),
        Some(want_results)
    );
    assert_eq!(sorted_pairs(&held), want_pairs);
    assert!(handle.arbiter().is_idle());
}

#[test]
fn killed_client_releases_lease_and_server_stays_healthy() {
    // Small batches force many socket writes, so the mid-stream hangup is
    // detected while the join is still emitting.
    let handle = start(ServerConfig {
        budget_bytes: 4 * MB,
        batch: 4,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let (left, right) = register_ab(addr);

    let mut victim = Client::connect(addr).expect("connect victim");
    victim
        .send("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0,\"hold_ms\":100}")
        .expect("send join");
    let _ = victim.recv(); // at most one line, then walk away mid-stream
    drop(victim);

    wait_until("the dead client's lease to be released", || {
        handle.arbiter().is_idle()
    });

    // The server must remain fully operational for other clients.
    let mut c = Client::connect(addr).expect("connect after kill");
    assert_eq!(
        c.request("{\"cmd\":\"ping\"}").expect("ping").get("ok").and_then(Json::as_str),
        Some("pong")
    );
    let (want_pairs, want_results, _) = solo(&left, &right, MB as usize);
    let resp = c
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0}")
        .expect("follow-up join");
    assert_eq!(resp.error, None, "{:?}", resp.error);
    assert_eq!(
        resp.done.as_ref().and_then(|d| d.get("results")).and_then(Json::as_u64),
        Some(want_results)
    );
    assert_eq!(sorted_pairs(&resp), want_pairs);
    assert!(handle.arbiter().is_idle());
}

#[test]
fn deadline_expiry_returns_typed_resumable_error() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    register_ab(addr);
    let mut c = Client::connect(addr).expect("connect");
    let resp = c
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"deadline\":1e-9}")
        .expect("join stream");
    let err = resp.error.clone().expect("deadline must trip");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("deadline"));
    assert_eq!(err.get("resumable").and_then(Json::as_bool), Some(true));
    assert!(err.get("elapsed").and_then(Json::as_f64).is_some());
    assert!(handle.arbiter().is_idle(), "deadline expiry leaked its lease");
}

/// Joins `case` with and without `"reuse":true` and holds the two answers
/// equal: pair for pair and down to the simulated second. Returns the
/// `reuse` join's sorted pairs and its `done` line.
fn assert_reuse_changes_nothing(c: &mut Client, case: &str) -> (Vec<(u64, u64)>, Json) {
    let [plain, reused] = ["", ",\"reuse\":true"].map(|extra| {
        let resp = c
            .join(&format!("{{\"cmd\":\"join\",{case}{extra}}}"))
            .expect("join stream");
        assert_eq!(resp.error, None, "{case}{extra}: {:?}", resp.error);
        resp
    });
    assert!(!plain.pairs.is_empty(), "{case}: the join has results");
    let pairs = sorted_pairs(&reused);
    assert_eq!(pairs, sorted_pairs(&plain), "{case}");
    let (plain, reused) = (plain.done.expect("done"), reused.done.expect("done"));
    for member in ["results", "duplicates", "total_seconds", "plan"] {
        assert_eq!(reused.get(member), plain.get(member), "{case}: {member}");
    }
    assert!(reused.get("cache_hit").is_none(), "{case}: {reused}");
    (pairs, reused)
}

/// There is no partition cache: `reuse` is not a member of the protocol, and
/// a request that carries it is the same request without it — every
/// algorithm at one and two threads and a planned join. The solo oracle
/// still holds, and the `metrics` verb reports `cache.hits == 0`.
#[test]
fn partition_reuse_is_bit_identical_and_reports_cache_hits() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    let (left, right) = register_ab(addr);
    let (want_pairs, want_results, _) = solo(&left, &right, MB as usize);
    let mut c = Client::connect(addr).expect("connect");

    let pinned = "\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0";
    let (pairs, done) = assert_reuse_changes_nothing(&mut c, pinned);
    assert_eq!(pairs, want_pairs, "reuse join differs from solo");
    assert_eq!(done.get("results").and_then(Json::as_u64), Some(want_results));

    let mut cases: Vec<String> = sjoind::proto::ALGOS
        .iter()
        .flat_map(|algo| {
            [1, 2].map(|threads| {
                format!("\"left\":\"a\",\"right\":\"b\",\"algo\":\"{algo}\",\"threads\":{threads}")
            })
        })
        .collect();
    cases.push("\"left\":\"a\",\"right\":\"b\",\"plan\":\"auto\"".to_owned());
    for case in &cases {
        assert_reuse_changes_nothing(&mut c, case);
    }
    let metrics = c.request("{\"cmd\":\"metrics\"}").expect("metrics cmd");
    let hits = metrics.get("ok").and_then(|o| o.get("cache")).and_then(|c| c.get("hits"));
    assert_eq!(hits.and_then(Json::as_u64), Some(0), "{metrics}");
    assert!(handle.arbiter().is_idle());
}

/// The `cal_st` self join at two threads with `"reuse":true` serves the full
/// result. A cache miss once warmed the cache with an injected crash that
/// tripped the session's cancel token, and the serving leg that followed
/// answered `done` with `results:0`.
#[test]
fn reuse_miss_with_two_threads_serves_the_full_result() {
    let handle = start(ServerConfig::default());
    let mut c = Client::connect(handle.addr()).expect("connect");
    let resp = c
        .request("{\"cmd\":\"register\",\"name\":\"r\",\"source\":\"cal_st\",\"scale\":0.1,\"seed\":7}")
        .expect("register");
    assert!(resp.get("ok").is_some(), "register failed: {resp}");

    let case = "\"left\":\"r\",\"right\":\"r\",\"algo\":\"pbsm\",\"mem_mb\":2.0,\"threads\":2";
    for _ in 0..2 {
        let (pairs, done) = assert_reuse_changes_nothing(&mut c, case);
        assert_eq!(done.get("results").and_then(Json::as_u64), Some(pairs.len() as u64));
    }
    assert!(handle.arbiter().is_idle());
}

#[test]
fn crash_and_panic_are_contained_to_their_session() {
    let handle = start(ServerConfig {
        budget_bytes: 8 * MB,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let (left, right) = register_ab(addr);
    let (want_pairs, want_results, _) = solo(&left, &right, MB as usize);

    // A well-behaved co-tenant runs concurrently with both fault legs.
    let cotenant = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect co-tenant");
        c.join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0,\"hold_ms\":50}")
            .expect("co-tenant stream")
    });

    let mut crasher = Client::connect(addr).expect("connect crasher");
    let resp = crasher
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0,\"crash\":\"mid-partition:0\"}")
        .expect("crash stream");
    let err = resp.error.clone().expect("crash point must fire");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("crashed"));
    assert_eq!(err.get("resumable").and_then(Json::as_bool), Some(true));
    // The crash fires while committing the first partition, so the crashed
    // leg streamed a strict prefix of the output.
    assert!(resp.pairs.len() < want_pairs.len());

    // The same *session* stays usable after its request crashed…
    assert_eq!(
        crasher.request("{\"cmd\":\"ping\"}").expect("ping").get("ok").and_then(Json::as_str),
        Some("pong")
    );

    // …and a panicking worker is likewise contained to one typed line.
    let resp = crasher
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0,\"panic_after\":1}")
        .expect("panic stream");
    assert_eq!(resp.error_kind(), Some("panicked"), "{:?}", resp.error);

    let good = cotenant.join().expect("co-tenant thread");
    assert_eq!(good.error, None, "{:?}", good.error);
    assert_eq!(
        good.done.as_ref().and_then(|d| d.get("results")).and_then(Json::as_u64),
        Some(want_results)
    );
    assert_eq!(
        sorted_pairs(&good),
        want_pairs,
        "co-tenant of a crashed/panicked join must be bit-identical to solo"
    );
    wait_until("fault legs to release their leases", || {
        handle.arbiter().is_idle()
    });
}

#[test]
fn shutdown_drains_in_flight_joins_and_refuses_new_ones() {
    let handle = start(ServerConfig {
        budget_bytes: 4 * MB,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let (left, right) = register_ab(addr);
    let (want_pairs, want_results, _) = solo(&left, &right, MB as usize);

    // Pre-open every connection: once draining starts the listener stops
    // accepting.
    let mut shutter = Client::connect(addr).expect("connect shutter");
    let mut late = Client::connect(addr).expect("connect late");

    let in_flight = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect in-flight");
        c.join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0,\"hold_ms\":1500}")
            .expect("in-flight stream")
    });
    wait_until("the in-flight join to be admitted", || {
        handle.arbiter().snapshot().leased_bytes > 0
    });

    let ack = shutter.request("{\"cmd\":\"shutdown\"}").expect("shutdown ack");
    assert_eq!(ack.get("ok").and_then(Json::as_str), Some("draining"));

    // A join arriving during the drain gets the typed refusal.
    let refused = late
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0}")
        .expect("late join");
    assert_eq!(refused.error_kind(), Some("draining"), "{:?}", refused.error);

    // The in-flight join still finishes streaming, bit-identically.
    let done = in_flight.join().expect("in-flight thread");
    assert_eq!(done.error, None, "{:?}", done.error);
    assert_eq!(
        done.done.as_ref().and_then(|d| d.get("results")).and_then(Json::as_u64),
        Some(want_results)
    );
    assert_eq!(sorted_pairs(&done), want_pairs);

    // And the server thread exits once drained.
    assert!(handle.arbiter().is_idle());
    handle.join();
}

#[test]
fn plan_auto_reports_its_choice_and_stays_bit_identical() {
    use spatialjoin::estimate::{DatasetProfile, PlanSpace, Planner};

    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    let (left, right) = register_ab(addr);

    // Re-derive the pick the server must make: streamable space, default
    // model, single channel — then its answer is an oracle for both
    // the done-line annotation and the pair stream.
    let plan = Planner::new(MB as usize)
        .with_space(PlanSpace::Streamable)
        .plan(&DatasetProfile::build(&left), &DatasetProfile::build(&right));
    let choice = plan.chosen().choice;
    let run = SpatialJoin::new(Algorithm::from_choice(&choice))
        .try_run(&left, &right)
        .expect("oracle run");
    let mut want_pairs: Vec<(u64, u64)> = run.pairs.iter().map(|&(a, b)| (a.0, b.0)).collect();
    want_pairs.sort_unstable();

    let mut c = Client::connect(addr).expect("connect");
    let resp = c
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0,\"plan\":\"auto\"}")
        .expect("planned join");
    assert_eq!(resp.error, None, "{:?}", resp.error);
    let done = resp.done.clone().expect("done line");
    assert_eq!(
        done.get("plan").and_then(Json::as_str),
        Some(choice.describe().as_str()),
        "done line must report the chosen plan"
    );
    assert_eq!(
        done.get("results").and_then(Json::as_u64),
        Some(run.stats.results())
    );
    assert_eq!(sorted_pairs(&resp), want_pairs, "planned join differs from oracle");

    // An unplanned join's done line carries no plan field.
    let plain = c
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0}")
        .expect("plain join");
    assert!(plain.done.expect("done").get("plan").is_none());
    assert!(handle.arbiter().is_idle());
}

#[test]
fn protocol_rejects_garbage_without_dying() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    let mut c = Client::connect(addr).expect("connect");
    for bad in [
        "not json at all",
        "{\"cmd\":\"frobnicate\"}",
        "{\"cmd\":\"join\",\"left\":\"a\"}",
        "{\"cmd\":\"join\",\"left\":\"nope\",\"right\":\"nada\"}",
    ] {
        let resp = c.request(bad).expect("error response");
        let err = resp.get("error").expect("typed error");
        let kind = err.get("kind").and_then(Json::as_str).expect("kind");
        assert!(
            kind == "bad_request" || kind == "unknown_dataset",
            "unexpected kind {kind} for {bad:?}"
        );
    }
    // `register` type-checks its members too: a wrong-typed value used to be
    // read as the default (scale 0.01, seed 42, source "uniform").
    for (field, value) in [("scale", "\"big\""), ("seed", "-1"), ("source", "7")] {
        let resp = c
            .request(&format!("{{\"cmd\":\"register\",\"name\":\"x\",\"{field}\":{value}}}"))
            .expect("error response");
        let err = resp.get("error").expect("typed error");
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("bad_request"), "{resp}");
        let message = err.get("message").and_then(Json::as_str).expect("message");
        assert!(message.contains(field), "{message:?} does not name {field:?}");
    }
    let list = c.request("{\"cmd\":\"list\"}").expect("list");
    let datasets = list.get("ok").and_then(|o| o.get("datasets")).and_then(Json::as_arr);
    assert_eq!(datasets.map(<[Json]>::len), Some(0), "a refused register registered: {list}");
    // A crash leg runs on a crash-only disk; a fault seed beside it used to
    // be validated and silently dropped.
    let resp = c
        .request("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"crash\":\"mid-rename\",\"faults\":7}")
        .expect("error response");
    let err = resp.get("error").expect("typed error");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("bad_request"), "{resp}");
    let message = err.get("message").and_then(Json::as_str).expect("message");
    assert!(message.contains("crash") && message.contains("faults"), "{message:?}");
    // A thread or channel count outside 1..=64 is refused by name; it used
    // to be clamped, so `threads:0` ran on one thread and not every core.
    register_ab(addr);
    for (field, value) in [("threads", 0), ("threads", 65), ("channels", 0), ("channels", 65)] {
        let resp = c
            .request(&format!(
                "{{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"{field}\":{value}}}"
            ))
            .expect("error response");
        let err = resp.get("error").expect("typed error");
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("bad_request"), "{resp}");
        let message = err.get("message").and_then(Json::as_str).expect("message");
        assert!(message.contains(field), "{message:?} does not name {field:?}");
    }
    let resp = c
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"threads\":64,\"channels\":64}")
        .expect("join stream");
    assert_eq!(resp.error, None, "64 threads and channels are in range");
    // Session still alive after every rejection.
    assert_eq!(
        c.request("{\"cmd\":\"ping\"}").expect("ping").get("ok").and_then(Json::as_str),
        Some("pong")
    );
    handle.request_drain();
    handle.join();
}

#[test]
fn a_line_that_is_not_utf8_is_refused_and_the_session_lives_on() {
    // Such a line used to close the session without a word, while
    // malformed JSON got a `bad_request` and the session went on.
    let handle = start(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.write_all(b"{\"cmd\":\"ping\",\"x\":\"\xff\"}\n").expect("send");
    stream.write_all(b"{\"cmd\":\"ping\"}\n").expect("send ping");
    let mut replies = BufReader::new(stream.try_clone().expect("clone")).lines();
    let first = replies.next().expect("a reply").expect("readable reply");
    let reply = Json::parse(&first).expect("reply is JSON");
    let error = reply.get("error").expect("typed error");
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("bad_request"), "{first}");
    let second = replies.next().expect("a second reply").expect("readable reply");
    assert_eq!(second, "{\"ok\":\"pong\"}");
    handle.request_drain();
    handle.join();
}

#[test]
fn hostile_nesting_is_refused_and_co_tenants_never_notice() {
    // The parser recurses once per `[`; unbounded, this line overflowed the
    // session thread's stack — an abort, which takes every tenant with it.
    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    let (left, right) = register_ab(addr);
    let mut hostile = Client::connect(addr).expect("connect");
    let resp = hostile.request(&"[".repeat(60_000)).expect("an answer, not a dead server");
    let kind = resp.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
    assert_eq!(kind, Some("bad_request"), "{resp}");
    // The hostile session itself is still served...
    let pong = hostile.request("{\"cmd\":\"ping\"}").expect("ping");
    assert_eq!(pong.get("ok").and_then(Json::as_str), Some("pong"));
    // ...and so is everybody else.
    let mut tenant = Client::connect(addr).expect("connect");
    let pong = tenant.request("{\"cmd\":\"ping\"}").expect("ping");
    assert_eq!(pong.get("ok").and_then(Json::as_str), Some("pong"));
    let resp = tenant
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1}")
        .expect("join");
    let (pairs, results, _) = solo(&left, &right, MB as usize);
    assert_eq!(resp.results(), Some(results));
    assert_eq!(sorted_pairs(&resp), pairs);
    handle.request_drain();
    handle.join();
}

#[test]
fn a_budget_under_one_page_is_refused_and_co_tenants_never_notice() {
    // `mem_mb` this small truncates to 0 bytes; formula (1) then asked for
    // u32::MAX partitions and the tile grid overflowed on top of that.
    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    let (left, right) = register_ab(addr);
    let tenant = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1,\"hold_ms\":300}")
            .expect("join")
    });
    // The hostile request arrives while the tenant's join holds its lease.
    wait_until("the tenant's lease", || handle.arbiter().snapshot().active_leases == 1);
    let mut hostile = Client::connect(addr).expect("connect");
    let resp = hostile
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1e-9}")
        .expect("one terminal line");
    assert_eq!(resp.error_kind(), Some("bad_request"), "{:?}", resp.error);
    assert!(resp.pairs.is_empty());

    let resp = tenant.join().expect("tenant thread");
    let (pairs, results, _) = solo(&left, &right, MB as usize);
    assert_eq!(resp.results(), Some(results));
    assert_eq!(sorted_pairs(&resp), pairs);
    assert!(handle.arbiter().is_idle());
    assert_eq!(handle.arbiter().snapshot().admitted, 1, "the refusal leased nothing");
    handle.request_drain();
    handle.join();
}

#[test]
fn overlong_line_gets_one_error_and_a_closed_connection() {
    // A request line is bounded: the session must not buffer a megabyte
    // waiting for a newline that may never come.
    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    let reader = stream.try_clone().expect("clone");
    // The server hangs up mid-write, so the tail of the write may fail.
    let _ = stream.write_all(&vec![b'x'; 1 << 20]);
    let mut replies = BufReader::new(reader).lines();
    let first = replies.next().expect("one reply").expect("readable reply");
    let reply = Json::parse(&first).expect("reply is JSON");
    let error = reply.get("error").expect("typed error");
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("bad_request"), "{first}");
    assert!(
        error.get("message").and_then(Json::as_str).is_some_and(|m| m.contains("65536")),
        "{first}"
    );
    // Nothing follows but the end of the stream (or its reset).
    assert!(!matches!(replies.next(), Some(Ok(_))), "the connection stays open");
    // The server itself is fine.
    let mut c = Client::connect(addr).expect("connect");
    let pong = c.request("{\"cmd\":\"ping\"}").expect("ping");
    assert_eq!(pong.get("ok").and_then(Json::as_str), Some("pong"));
    handle.request_drain();
    handle.join();
}

#[test]
fn half_close_after_a_ping_reads_eof() {
    // The accept loop keeps a clone of every session's socket for the drain
    // to hang up on; held past the session's end, it kept the connection
    // open and a client that had shut down its write side waited forever.
    let handle = start(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
    stream.write_all(b"{\"cmd\":\"ping\"}\n").expect("send ping");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("EOF within the timeout");
    assert_eq!(rest, "{\"ok\":\"pong\"}\n");
    handle.request_drain();
    handle.join();
}

/// Descriptors of this process that are sockets bound to `port` — the
/// server's side of things: its listener plus every accepted connection,
/// each `try_clone` counted. `/proc/self/fd` alone would also see whatever
/// the tests running beside this one have open.
#[cfg(target_os = "linux")]
fn server_side_fds(port: u16) -> usize {
    let tcp = std::fs::read_to_string("/proc/self/net/tcp").expect("/proc/self/net/tcp");
    let suffix = format!(":{port:04X}");
    let inodes: Vec<String> = tcp
        .lines()
        .skip(1)
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .filter(|cols| cols.len() > 9 && cols[1].ends_with(&suffix))
        .map(|cols| format!("socket:[{}]", cols[9]))
        .collect();
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .flatten()
        .filter_map(|entry| std::fs::read_link(entry.path()).ok())
        .filter(|target| inodes.iter().any(|inode| target.as_os_str() == inode.as_str()))
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn finished_sessions_give_their_descriptors_back() {
    // Each finished session used to leave the accept loop's clone of its
    // socket open until shutdown: 64 sessions, 64 descriptors, and `EMFILE`
    // for every tenant at about a thousand.
    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    let session = || {
        let mut c = Client::connect(addr).expect("connect");
        let resp = c.request("{\"cmd\":\"ping\"}").expect("ping");
        assert_eq!(resp.get("ok").and_then(Json::as_str), Some("pong"));
    };
    session();
    wait_until("the first session to be reaped", || server_side_fds(addr.port()) == 1);
    for _ in 0..64 {
        session();
    }
    wait_until("64 finished sessions to be reaped", || server_side_fds(addr.port()) == 1);
    session();
    handle.request_drain();
    handle.join();
}
