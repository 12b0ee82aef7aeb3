//! Service soak driver: seeded multi-client load against an in-process
//! `sjoind`, asserting the invariants the service layer guarantees.
//!
//! ```text
//! soak [--seed N] [--clients K] [--requests M] [--budget-mb F]
//!      [--max-queue N] [--log PATH]
//! ```
//!
//! K client threads replay a seed-derived request mix — random dataset
//! pairs, algorithms and memory sizes, cache reuse, seeded fault injection
//! (half of the fault legs escalated to *persistent* media damage, which the
//! quarantine-recompute paths must absorb bit-identically), tiny deadlines,
//! mid-stream disconnects, one injected crash point and one worker panic —
//! against a deliberately small memory budget so admission queueing and
//! overload shedding both fire. A cache-rot chaos leg then corrupts every
//! cached partition snapshot in place and replays a reuse join: the
//! integrity gate must evict and re-warm, never resume from rotten state.
//! Afterwards the driver asserts:
//!
//! * every completed join is **bit-identical to its solo run** (sorted pair
//!   set and result count against a library-computed baseline);
//! * every refused join carries an allowed typed error kind;
//! * **no leaked leases**: the arbiter reports zero leased bytes, zero
//!   active leases and an empty queue once the clients are done;
//! * **no orphan run dirs**: the service keeps all durable state on
//!   in-memory simulated disks — nothing may appear on the host;
//! * `shutdown` drains cleanly (the server thread exits).
//!
//! Exit 0 on success, 1 with a violation list otherwise. The server log
//! (`--log`) is the CI artifact to grab on failure.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use rand::prelude::*;
use sjoind::{Client, Json, Server, ServerConfig};
use spatialjoin::{Algorithm, SpatialJoin};

const DATASETS: [(&str, &str); 3] = [("a", "uniform"), ("b", "uniform"), ("c", "clustered")];
const ALGOS: [&str; 4] = ["pbsm", "pbsm-trie", "twolayer", "s3j"];
const MEM_MB: [f64; 3] = [0.5, 1.0, 2.0];
const SCALE: f64 = 0.01;

type Baselines = HashMap<(usize, usize, usize, usize), (Vec<(u64, u64)>, u64)>;

struct Args {
    seed: u64,
    clients: usize,
    requests: usize,
    budget_mb: f64,
    max_queue: usize,
    log: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        clients: 4,
        requests: 6,
        budget_mb: 4.0,
        max_queue: 2,
        log: "soak-server.log".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--clients" => {
                args.clients = value()?.parse().map_err(|e| format!("bad --clients: {e}"))?
            }
            "--requests" => {
                args.requests = value()?.parse().map_err(|e| format!("bad --requests: {e}"))?
            }
            "--budget-mb" => {
                args.budget_mb = value()?
                    .parse()
                    .map_err(|e| format!("bad --budget-mb: {e}"))?
            }
            "--max-queue" => {
                args.max_queue = value()?.parse().map_err(|e| format!("bad --max-queue: {e}"))?
            }
            "--log" => args.log = value()?.into(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.clients == 0 || args.requests == 0 {
        return Err("--clients and --requests must be positive".to_owned());
    }
    Ok(args)
}

/// The members every `join` request of a (left, right, algo, mem) cell has.
fn join_request((l, r, a, m): (usize, usize, usize, usize)) -> Vec<(&'static str, Json)> {
    vec![
        ("cmd", "join".into()),
        ("left", DATASETS[l].0.into()),
        ("right", DATASETS[r].0.into()),
        ("algo", ALGOS[a].into()),
        ("mem_mb", MEM_MB[m].into()),
    ]
}

fn dataset_seed(idx: usize, seed: u64) -> u64 {
    match idx {
        0 => seed,
        1 => seed ^ 0xFFFF,
        _ => seed.wrapping_add(1),
    }
}

/// Solo-run baselines for every (left, right, algo, mem) cell the request
/// mix can produce — the bit-identity oracle.
fn compute_baselines(seed: u64, kpes: &[Vec<geom::Kpe>; 3]) -> Baselines {
    let _ = seed;
    let mut out = HashMap::new();
    for l in 0..3 {
        for r in 0..3 {
            if l == r {
                continue;
            }
            for (a, name) in ALGOS.into_iter().enumerate() {
                for (m, mem_mb) in MEM_MB.iter().enumerate() {
                    let mem = (mem_mb * 1024.0 * 1024.0) as usize;
                    let algo = Algorithm::from_name(name, mem).expect("ALGOS are valid names");
                    let run = SpatialJoin::new(algo)
                        .try_run(&kpes[l], &kpes[r])
                        .expect("baseline join cannot fail");
                    let mut pairs: Vec<(u64, u64)> = run
                        .pairs
                        .iter()
                        .map(|&(x, y)| (x.0, y.0))
                        .collect();
                    pairs.sort_unstable();
                    out.insert((l, r, a, m), (pairs, run.stats.results()));
                }
            }
        }
    }
    out
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("soak: {e}");
            return ExitCode::from(2);
        }
    };

    let cfg = ServerConfig {
        budget_bytes: (args.budget_mb * 1024.0 * 1024.0) as u64,
        max_queue: args.max_queue,
        log_path: Some(args.log.clone()),
        ..ServerConfig::default()
    };
    let handle = match Server::new(cfg).start("127.0.0.1:0") {
        Ok(h) => h,
        Err(e) => {
            eprintln!("soak: cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = handle.addr();
    println!("soak: server on {addr}, seed {}, {} clients x {} requests",
        args.seed, args.clients, args.requests);

    // Register the datasets and compute the solo baselines from the same
    // generator configs the server uses.
    let mut control = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("soak: connect failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut kpes: Vec<Vec<geom::Kpe>> = Vec::new();
    for (idx, (name, source)) in DATASETS.iter().enumerate() {
        let seed = dataset_seed(idx, args.seed);
        let line = Json::obj([
            ("cmd", "register".into()),
            ("name", (*name).into()),
            ("source", (*source).into()),
            ("scale", SCALE.into()),
            ("seed", seed.into()),
        ]);
        match control.request(&line.to_string()) {
            Ok(v) if v.get("ok").is_some() => {}
            other => {
                eprintln!("soak: register {name} failed: {other:?}");
                return ExitCode::FAILURE;
            }
        }
        kpes.push(sjoind::proto::dataset(source, SCALE, seed).expect("soak dataset"));
    }
    let kpes: [Vec<geom::Kpe>; 3] = kpes.try_into().expect("three datasets");
    let baselines = Arc::new(compute_baselines(args.seed, &kpes));

    let violations: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let tallies: Arc<Mutex<HashMap<&'static str, u64>>> = Arc::new(Mutex::new(HashMap::new()));

    let mut threads = Vec::new();
    for client_idx in 0..args.clients {
        let baselines = Arc::clone(&baselines);
        let violations = Arc::clone(&violations);
        let tallies = Arc::clone(&tallies);
        let requests = args.requests;
        let seed = args.seed;
        threads.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1000).wrapping_add(client_idx as u64));
            let complain = |msg: String| {
                violations.lock().expect("violations lock").push(msg);
            };
            let tally = |key: &'static str| {
                *tallies.lock().expect("tallies lock").entry(key).or_insert(0) += 1;
            };
            for req_idx in 0..requests {
                let l = rng.gen_range(0..3usize);
                let r = (l + 1 + rng.gen_range(0..2usize)) % 3;
                let a = rng.gen_range(0..ALGOS.len());
                let m = rng.gen_range(0..MEM_MB.len());
                let reuse = rng.gen_bool(0.3);
                let hold_ms = if rng.gen_bool(0.4) { rng.gen_range(1..25u64) } else { 0 };
                let deadline = rng.gen_bool(0.1);
                let disconnect = rng.gen_bool(0.15);
                // Two deterministic fault legs: one injected crash point and
                // one worker panic, each exactly once per soak.
                let crash = client_idx == 0 && req_idx == 1;
                let panic_hook = client_idx == 1 && req_idx == 1;
                let faults = !crash && !panic_hook && rng.gen_bool(0.2);
                // Half the fault legs carry persistent media damage instead
                // of transient faults: retries cannot cure those, so an OK
                // response proves the quarantine-recompute paths delivered
                // the exact clean result through the service.
                let persistent = faults && rng.gen_bool(0.5);

                let mut request = join_request((l, r, a, m));
                if crash {
                    request.push(("crash", "mid-partition:0".into()));
                } else if panic_hook {
                    request.push(("panic_after", 1u64.into()));
                } else {
                    if reuse {
                        request.push(("reuse", true.into()));
                    } else if faults {
                        request.push(("faults", seed.wrapping_add(req_idx as u64).into()));
                        if persistent {
                            request.push(("faults_persistent", true.into()));
                        }
                    }
                    if deadline {
                        request.push(("deadline", 1e-9.into()));
                    }
                }
                if hold_ms > 0 {
                    request.push(("hold_ms", hold_ms.into()));
                }
                let line = Json::obj(request).to_string();

                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        complain(format!("client {client_idx}: connect failed: {e}"));
                        return;
                    }
                };
                if disconnect {
                    // Send the join and walk away after at most one line —
                    // the server must cancel the join and release the
                    // lease.
                    let _ = client.send(&line);
                    let _ = client.recv();
                    drop(client);
                    tally("disconnected");
                    continue;
                }
                let resp = match client.join(&line) {
                    Ok(r) => r,
                    Err(e) => {
                        complain(format!(
                            "client {client_idx} req {req_idx}: protocol error: {e} (line {line})"
                        ));
                        continue;
                    }
                };
                match resp.error_kind() {
                    None => {
                        tally("ok");
                        if persistent {
                            tally("persistent_ok");
                        }
                        let Some((expected_pairs, expected_results)) =
                            baselines.get(&(l, r, a, m))
                        else {
                            complain(format!("no baseline for cell {l},{r},{a},{m}"));
                            continue;
                        };
                        if resp.results() != Some(*expected_results) {
                            complain(format!(
                                "client {client_idx} req {req_idx}: results {:?} != solo {expected_results} ({line})",
                                resp.results()
                            ));
                        }
                        let mut got = resp.pairs.clone();
                        got.sort_unstable();
                        if got != *expected_pairs {
                            complain(format!(
                                "client {client_idx} req {req_idx}: pair stream differs from solo run ({} vs {} pairs) ({line})",
                                got.len(),
                                expected_pairs.len()
                            ));
                        }
                    }
                    Some("overloaded") => {
                        let retry_after = resp
                            .error
                            .as_ref()
                            .and_then(|e| e.get("retry_after"))
                            .and_then(Json::as_f64);
                        if !retry_after.is_some_and(|t| t > 0.0) {
                            complain(format!(
                                "client {client_idx} req {req_idx}: overloaded without a positive retry_after"
                            ));
                        }
                        tally("shed");
                    }
                    Some("deadline") if deadline => tally("deadline"),
                    Some("crashed") if crash => {
                        let resumable = resp
                            .error
                            .as_ref()
                            .and_then(|e| e.get("resumable"))
                            .and_then(Json::as_bool);
                        if resumable != Some(true) {
                            complain("crash response not marked resumable".to_owned());
                        }
                        tally("crashed");
                    }
                    Some("panicked") if panic_hook => tally("panicked"),
                    // A crash/panic/deadline leg can still be shed or expire
                    // under load; anything else is a contract violation.
                    Some(other) => complain(format!(
                        "client {client_idx} req {req_idx}: unexpected error kind {other:?} ({line})"
                    )),
                }
            }
        }));
    }
    for t in threads {
        if t.join().is_err() {
            violations
                .lock()
                .expect("violations lock")
                .push("client thread panicked".to_owned());
        }
    }

    // Cache-rot chaos leg: warm one cell's snapshot, probe it (a second
    // reuse join bumps the hit counter iff the slot is Ready rather than
    // Uncacheable), rot every cached snapshot in place, and replay the
    // identical join. The integrity gate must evict the rotten snapshot and
    // re-warm — same bits, one more warm pass — never resume from it.
    {
        let complain = |msg: String| {
            violations.lock().expect("violations lock").push(msg);
        };
        let chaos_cell = (0usize, 1usize, 0usize, 2usize);
        let mut chaos_request = join_request(chaos_cell);
        chaos_request.push(("reuse", true.into()));
        let chaos_line = Json::obj(chaos_request).to_string();
        let (chaos_pairs, chaos_results) = &baselines[&chaos_cell];
        let hits_before_probe = handle.cache_hits();
        let mut corrupted = 0usize;
        for stage in ["warm", "probe", "rotten"] {
            if stage == "rotten" {
                corrupted = handle.corrupt_cache();
            }
            match control.join(&chaos_line) {
                Ok(resp) if resp.error_kind().is_none() => {
                    let mut got = resp.pairs.clone();
                    got.sort_unstable();
                    if got != *chaos_pairs || resp.results() != Some(*chaos_results) {
                        complain(format!(
                            "cache-rot {stage} leg diverged from the solo run ({chaos_line})"
                        ));
                    }
                }
                other => complain(format!("cache-rot {stage} leg failed: {other:?}")),
            }
        }
        let slot_was_ready = handle.cache_hits() > hits_before_probe;
        if slot_was_ready && corrupted > 0 && handle.cache_integrity_evictions() == 0 {
            complain(
                "rotten snapshots were looked up without a single integrity eviction".to_owned(),
            );
        }
    }

    // Post-load invariants: nothing leaked, nothing orphaned.
    let snap = handle.arbiter().snapshot();
    let mut violations = Arc::try_unwrap(violations)
        .map(|m| m.into_inner().expect("violations lock"))
        .unwrap_or_default();
    if snap.leased_bytes != 0 || snap.active_leases != 0 || snap.queued != 0 {
        violations.push(format!(
            "leaked leases after load: {} bytes in {} leases, {} queued",
            snap.leased_bytes, snap.active_leases, snap.queued
        ));
    }
    if !handle.arbiter().is_idle() {
        violations.push("arbiter not idle after load".to_owned());
    }
    for orphan in ["runs", "sjoind-runs"] {
        if std::path::Path::new(orphan).exists() {
            violations.push(format!("orphan run dir {orphan:?} left on the host"));
        }
    }

    match control.request("{\"cmd\":\"metrics\"}") {
        Ok(v) => {
            let leased = v
                .get("ok")
                .and_then(|o| o.get("arbiter"))
                .and_then(|a| a.get("leased_bytes"))
                .and_then(Json::as_u64);
            if leased != Some(0) {
                violations.push(format!("metrics report {leased:?} leased bytes after load"));
            }
        }
        Err(e) => violations.push(format!("metrics request failed: {e}")),
    }
    match control.request("{\"cmd\":\"shutdown\"}") {
        Ok(v) if v.get("ok").is_some() => {}
        other => violations.push(format!("shutdown not acknowledged: {other:?}")),
    }
    let cache_hits = handle.cache_hits();
    let integrity_evictions = handle.cache_integrity_evictions();
    handle.join(); // must return: drain leaves no stuck sessions

    let tallies = tallies.lock().expect("tallies lock");
    let mut summary: Vec<String> = tallies.iter().map(|(k, v)| format!("{k}={v}")).collect();
    summary.sort();
    println!("soak: {}", summary.join(" "));
    println!(
        "soak: peak leased {} / {} bytes, {} admitted, {} shed, cache hits {}, integrity evictions {}",
        snap.peak_leased_bytes,
        snap.budget_bytes,
        snap.admitted,
        snap.rejected_overloaded,
        cache_hits,
        integrity_evictions
    );
    if violations.is_empty() {
        println!("soak: all invariants held");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("soak: VIOLATION: {v}");
        }
        ExitCode::FAILURE
    }
}
