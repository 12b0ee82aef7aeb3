//! The join service: thread-per-connection TCP server with admission
//! control, memory arbitration, fault isolation and graceful drain.
//!
//! Datasets are registered once and joined many times by concurrent
//! clients. Every join leases its memory budget from one shared
//! [`MemoryArbiter`] before it may start; joins that cannot get their grant
//! queue (FIFO) up to a bounded depth and are shed with a typed
//! `overloaded` response beyond it. Because grants are all-or-nothing —
//! never scaled down — a join admitted under load runs with exactly the
//! configuration it asked for, so its result stream is bit-identical to a
//! solo run of the same request. Time stays *simulated* and per-request;
//! only the memory budget is truly shared.
//!
//! One thread per request: every join — plain, crash-injected or
//! fault-injected — runs on the session thread that owns the socket,
//! zero-copy over the registered `Arc<Vec<Kpe>>`. The Reference Point Method
//! hands pairs out as they are found, so a consumer that is *pushed* to
//! needs nothing between itself and the join: the join's sink is the
//! socket's batcher (`exec::SpatialJoinOp` keeps a worker and a channel
//! because a pull interface needs one; a socket does not).
//!
//! Fault isolation: the session leases, then runs the join inside
//! `catch_unwind`. A panicking or crashing request delivers one typed
//! terminal line to its own client, its memory lease — a local of
//! `run_join` — is released on every exit path, and co-tenant joins never
//! observe it. A client that disconnects mid-stream fails the sink's next
//! write, which trips the join's [`CancelToken`]; the join stops at the next
//! partition boundary and the lease is released.
//!
//! Sessions are reaped as they end: the accept loop drops a finished
//! session's handle and its clone of the socket on its next turn, so the
//! daemon's descriptor count follows its *open* connections and a failed
//! `accept` (say `EMFILE`) is logged and retried — only a drain ends the
//! loop.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use spatialjoin::{
    Algorithm, CancelToken, DiskModel, FaultPlan, IoError, IoErrorKind, JoinError, JoinErrorKind,
    JoinStats, Kpe, RecordId, SpatialJoin,
};
use storage::{AdmissionError, MemoryArbiter};

use crate::json::Json;
use crate::proto::{self, JoinRequest};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Total memory the arbiter may lease out at once, in bytes.
    pub budget_bytes: u64,
    /// Joins allowed to wait for a grant; one more is shed `overloaded`.
    pub max_queue: usize,
    /// Result pairs per streamed `{"pairs":[...]}` line.
    pub batch: usize,
    /// Append a line-oriented server log here (soak artifact).
    pub log_path: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            budget_bytes: 64 << 20,
            max_queue: 16,
            batch: 256,
            log_path: None,
        }
    }
}

/// Longest request line a session reads. Every request is one small object
/// (`register` names a generator, it does not upload data), so the cap is a
/// constant; without one a newline-less client grows the session's buffer
/// without bound, outside the arbiter's budget.
const MAX_LINE: usize = 64 * 1024;

struct Inner {
    cfg: ServerConfig,
    arbiter: MemoryArbiter,
    datasets: Mutex<HashMap<String, Arc<Vec<Kpe>>>>,
    draining: AtomicBool,
    /// In-flight join count; the drain gate waits for it to reach zero.
    active: Mutex<u32>,
    active_cv: Condvar,
    joins_ok: AtomicU64,
    joins_failed: AtomicU64,
    joins_shed: AtomicU64,
    log: Mutex<Option<std::fs::File>>,
}

impl Inner {
    fn log(&self, msg: &str) {
        let mut g = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(f) = g.as_mut() {
            let _ = writeln!(f, "{msg}");
        }
    }
}

/// A configured-but-not-yet-listening server.
pub struct Server {
    inner: Arc<Inner>,
}

/// Handle to a running server: its bound address (ephemeral ports resolve
/// here) plus introspection for tests, and `join()` to wait for drain.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
    inner: Arc<Inner>,
}

impl Server {
    pub fn new(cfg: ServerConfig) -> Server {
        let log = cfg
            .log_path
            .as_ref()
            .and_then(|p| std::fs::File::create(p).ok());
        let inner = Inner {
            arbiter: MemoryArbiter::new(cfg.budget_bytes, cfg.max_queue),
            datasets: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            active: Mutex::new(0),
            active_cv: Condvar::new(),
            joins_ok: AtomicU64::new(0),
            joins_failed: AtomicU64::new(0),
            joins_shed: AtomicU64::new(0),
            log: Mutex::new(log),
            cfg,
        };
        Server {
            inner: Arc::new(inner),
        }
    }

    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop on a background thread.
    pub fn start(self, addr: &str) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        self.inner.log(&format!("listening on {local}"));
        let inner = Arc::clone(&self.inner);
        let thread = std::thread::spawn(move || accept_loop(inner, listener));
        Ok(ServerHandle {
            addr: local,
            thread: Some(thread),
            inner: self.inner,
        })
    }
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared arbiter — lets tests assert lease accounting directly.
    pub fn arbiter(&self) -> &MemoryArbiter {
        &self.inner.arbiter
    }

    /// Waits for the server to drain and stop (a client must have sent
    /// `shutdown`, or [`ServerHandle::request_drain`] must have been called).
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Starts the drain without a client connection (used on signal paths).
    pub fn request_drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
    }
}

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    let _ = listener.set_nonblocking(true);
    // Live sessions, each with a clone of its socket for the drain to hang
    // up on. The clone keeps the descriptor — and the client's view of the
    // connection — open, so a finished session is reaped every turn.
    let mut sessions: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    let mut next_id = 0u64;
    while !inner.draining.load(Ordering::Acquire) {
        sessions.retain(|(handle, _)| !handle.is_finished());
        // A session the drain could not hang up on would block it forever,
        // so a socket that cannot be cloned is refused like a failed accept.
        let accepted = listener
            .accept()
            .and_then(|(stream, peer)| Ok((stream.try_clone()?, stream, peer)));
        match accepted {
            Ok((clone, stream, peer)) => {
                next_id += 1;
                let id = next_id;
                inner.log(&format!("session {id}: accepted {peer}"));
                let _ = stream.set_nodelay(true);
                let inner2 = Arc::clone(&inner);
                sessions.push((std::thread::spawn(move || session(inner2, stream, id)), clone));
            }
            // Nothing to accept, or nothing to accept *with* (`EMFILE`): both
            // pass, and one tenant's descriptor storm must not drain the rest.
            Err(e) => {
                if e.kind() != io::ErrorKind::WouldBlock {
                    inner.log(&format!("accept error: {e}"));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    // Drain: let every in-flight join finish streaming (new ones are
    // already refused), then hang up the idle sessions so their blocked
    // reads return, and reap the session threads.
    let mut active = inner.active.lock().unwrap_or_else(PoisonError::into_inner);
    while *active > 0 {
        active = inner
            .active_cv
            .wait(active)
            .unwrap_or_else(PoisonError::into_inner);
    }
    drop(active);
    for (_, sock) in &sessions {
        let _ = sock.shutdown(Shutdown::Both);
    }
    for (handle, _) in sessions {
        let _ = handle.join();
    }
    inner.log("drained; server stopped");
}

fn session(inner: Arc<Inner>, stream: TcpStream, id: u64) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut out = stream;
    let mut reader = BufReader::new(read_half);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells an over-long line from one that fits.
        let mut bounded = (&mut reader).take(MAX_LINE as u64 + 1);
        match bounded.read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.len() > MAX_LINE && buf.last() != Some(&b'\n') {
            // Hang up rather than read on to the newline: the rest of the
            // line may never end. An explicit shutdown, because the accept
            // loop's clone keeps a dropped socket open until it is reaped.
            let message = format!("request line exceeds {MAX_LINE} bytes");
            let _ = send(&mut out, &proto::error_line("bad_request", &message, &[]));
            let _ = out.shutdown(Shutdown::Both);
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            let message = "request line is not UTF-8";
            if !send(&mut out, &proto::error_line("bad_request", message, &[])) {
                break;
            }
            continue;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parsed = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                if !send(
                    &mut out,
                    &proto::error_line("bad_request", &format!("malformed JSON: {e}"), &[]),
                ) {
                    break;
                }
                continue;
            }
        };
        let cmd = parsed
            .get("cmd")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned();
        let keep_going = match cmd.as_str() {
            "ping" => send(&mut out, "{\"ok\":\"pong\"}"),
            "register" => handle_register(&inner, &mut out, &parsed),
            "list" => handle_list(&inner, &mut out),
            "metrics" => send(&mut out, &metrics_line(&inner)),
            "join" => handle_join(&inner, &mut out, &parsed, id),
            "shutdown" => {
                inner.log(&format!("session {id}: shutdown requested; draining"));
                inner.draining.store(true, Ordering::Release);
                let _ = send(&mut out, "{\"ok\":\"draining\"}");
                false
            }
            other => send(
                &mut out,
                &proto::error_line("bad_request", &format!("unknown cmd {other:?}"), &[]),
            ),
        };
        if !keep_going {
            break;
        }
    }
    inner.log(&format!("session {id}: closed"));
}

/// Writes one protocol line; `false` means the client is gone.
fn send(out: &mut TcpStream, line: &str) -> bool {
    out.write_all(line.as_bytes())
        .and_then(|()| out.write_all(b"\n"))
        .is_ok()
}

fn handle_register(inner: &Inner, out: &mut TcpStream, req: &Json) -> bool {
    let name = match req.get("name").and_then(Json::as_str) {
        Some(n) if !n.is_empty() => n.to_owned(),
        _ => {
            return send(
                out,
                &proto::error_line("bad_request", "register requires a non-empty \"name\"", &[]),
            )
        }
    };
    let (source, scale, seed) = match register_members(req) {
        Ok(members) => members,
        Err(e) => return send(out, &proto::error_line("bad_request", &e, &[])),
    };
    if !(scale > 0.0 && scale <= 4.0 && scale.is_finite()) {
        return send(
            out,
            &proto::error_line("bad_request", "scale must be in (0, 4]", &[]),
        );
    }
    match proto::dataset(source, scale, seed) {
        Ok(kpes) => {
            let records = kpes.len();
            inner
                .datasets
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(name.clone(), Arc::new(kpes));
            inner.log(&format!("registered {name:?}: {records} records ({source})"));
            let ok = Json::obj([("registered", name.into()), ("records", records.into())]);
            send(out, &proto::ok_line(ok))
        }
        Err(e) => send(out, &proto::error_line("bad_request", &e, &[])),
    }
}

/// `register`'s optional members, typed like `join`'s: a value of the wrong
/// type is refused by name, only an absent one takes its default.
fn register_members(req: &Json) -> Result<(&str, f64, u64), String> {
    Ok((
        proto::opt(req, "source", "a string", Json::as_str)?.unwrap_or("uniform"),
        proto::opt(req, "scale", "a number", Json::as_f64)?.unwrap_or(0.01),
        proto::opt(req, "seed", "a non-negative integer", Json::as_u64)?.unwrap_or(42),
    ))
}

fn handle_list(inner: &Inner, out: &mut TcpStream) -> bool {
    let mut entries: Vec<(String, usize)> = inner
        .datasets
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(name, kpes)| (name.clone(), kpes.len()))
        .collect();
    entries.sort();
    let datasets = entries
        .into_iter()
        .map(|(name, records)| Json::obj([("name", name.into()), ("records", records.into())]));
    let ok = Json::obj([("datasets", Json::arr(datasets))]);
    send(out, &proto::ok_line(ok))
}

fn metrics_line(inner: &Inner) -> String {
    let s = inner.arbiter.snapshot();
    let active = *inner.active.lock().unwrap_or_else(PoisonError::into_inner);
    let arbiter = Json::obj([
        ("budget_bytes", s.budget_bytes.into()),
        ("leased_bytes", s.leased_bytes.into()),
        ("active_leases", s.active_leases.into()),
        ("queued", s.queued.into()),
        ("admitted", s.admitted.into()),
        ("rejected_overloaded", s.rejected_overloaded.into()),
        ("rejected_too_large", s.rejected_too_large.into()),
        ("peak_leased_bytes", s.peak_leased_bytes.into()),
    ]);
    // A shim: there is no cache, but the frozen host-clock benchmark reads
    // `cache.hits` from a traced `serve` run. It goes with that reader.
    let cache = Json::obj([("hits", 0u64.into())]);
    let joins = Json::obj([
        ("ok", inner.joins_ok.load(Ordering::Relaxed).into()),
        ("failed", inner.joins_failed.load(Ordering::Relaxed).into()),
        ("shed", inner.joins_shed.load(Ordering::Relaxed).into()),
        ("active", active.into()),
    ]);
    let ok = Json::obj([
        ("arbiter", arbiter),
        ("cache", cache),
        ("joins", joins),
        ("draining", inner.draining.load(Ordering::Acquire).into()),
    ]);
    proto::ok_line(ok)
}

/// How a join request ended, for the server-level counters.
enum Outcome {
    Ok,
    Failed,
    Shed,
    Disconnected,
}

fn handle_join(inner: &Inner, out: &mut TcpStream, parsed: &Json, sid: u64) -> bool {
    let mut jr = match JoinRequest::from_json(parsed) {
        Ok(jr) => jr,
        Err(e) => return send(out, &proto::error_line("bad_request", &e, &[])),
    };
    let (left, right) = {
        let g = inner.datasets.lock().unwrap_or_else(PoisonError::into_inner);
        match (g.get(&jr.left).cloned(), g.get(&jr.right).cloned()) {
            (Some(l), Some(r)) => (l, r),
            (l, _) => {
                let missing = if l.is_none() { &jr.left } else { &jr.right };
                return send(
                    out,
                    &proto::error_line(
                        "unknown_dataset",
                        &format!("no dataset {missing:?} registered"),
                        &[],
                    ),
                );
            }
        }
    };
    let Some(_guard) = JoinGuard::enter(inner) else {
        return send(
            out,
            &proto::error_line("draining", "server is shutting down", &[]),
        );
    };
    if jr.plan {
        // Cost-based plan selection over the service's streamable candidate
        // space: profile the resolved datasets, rank, and rewrite the
        // request as if the client had asked for the winner explicitly.
        let planner = spatialjoin::estimate::Planner::new(jr.mem_bytes)
            .with_disk_model(DiskModel {
                channels: jr.channels,
                ..DiskModel::default()
            })
            .with_space(spatialjoin::estimate::PlanSpace::Streamable);
        let plan = planner.plan(
            &spatialjoin::estimate::DatasetProfile::build(&left),
            &spatialjoin::estimate::DatasetProfile::build(&right),
        );
        let choice = plan.chosen().choice;
        inner.log(&format!(
            "session {sid}: plan auto chose {}",
            choice.describe()
        ));
        jr.algo = choice.cli_name().to_owned();
        jr.chosen_choice = Some(choice);
    }
    let jr = jr;
    inner.log(&format!(
        "session {sid}: join {}x{} algo={} mem={}B crash={:?}",
        jr.left, jr.right, jr.algo, jr.mem_bytes, jr.crash
    ));
    match run_join(inner, out, &jr, &left, &right) {
        Outcome::Ok => {
            inner.joins_ok.fetch_add(1, Ordering::Relaxed);
            true
        }
        Outcome::Failed => {
            inner.joins_failed.fetch_add(1, Ordering::Relaxed);
            true
        }
        Outcome::Shed => {
            inner.joins_shed.fetch_add(1, Ordering::Relaxed);
            true
        }
        Outcome::Disconnected => {
            inner.log(&format!("session {sid}: client left mid-join; cancelled"));
            inner.joins_failed.fetch_add(1, Ordering::Relaxed);
            false
        }
    }
}

/// RAII in-flight counter; the accept loop's drain waits on it.
struct JoinGuard<'a> {
    inner: &'a Inner,
}

impl<'a> JoinGuard<'a> {
    fn enter(inner: &'a Inner) -> Option<JoinGuard<'a>> {
        let mut g = inner.active.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.draining.load(Ordering::Acquire) {
            return None;
        }
        *g += 1;
        Some(JoinGuard { inner })
    }
}

impl Drop for JoinGuard<'_> {
    fn drop(&mut self) {
        let mut g = self
            .inner
            .active
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *g -= 1;
        drop(g);
        self.inner.active_cv.notify_all();
    }
}

/// Batches result pairs into `{"pairs":[...]}` lines, honouring `limit`
/// (pairs past it are counted by the join but not sent).
struct Emitter<'a> {
    out: &'a mut TcpStream,
    batch: Vec<(u64, u64)>,
    cap: usize,
    limit: Option<u64>,
    sent: u64,
    alive: bool,
}

impl<'a> Emitter<'a> {
    fn new(out: &'a mut TcpStream, cap: usize, limit: Option<u64>) -> Emitter<'a> {
        Emitter {
            out,
            batch: Vec::with_capacity(cap.clamp(1, 4096)),
            cap: cap.clamp(1, 4096),
            limit,
            sent: 0,
            alive: true,
        }
    }

    /// `false` once the client is gone.
    fn pair(&mut self, a: u64, b: u64) -> bool {
        if !self.alive {
            return false;
        }
        if self.limit.is_some_and(|l| self.sent >= l) {
            return true;
        }
        self.batch.push((a, b));
        self.sent += 1;
        if self.batch.len() >= self.cap {
            self.flush()
        } else {
            true
        }
    }

    /// Writes a terminal (non-pair) line through the same socket borrow.
    fn send_line(&mut self, line: &str) -> bool {
        if !self.alive {
            return false;
        }
        self.alive = send(self.out, line);
        self.alive
    }

    fn flush(&mut self) -> bool {
        if !self.alive {
            return false;
        }
        if self.batch.is_empty() {
            return true;
        }
        let mut line = String::with_capacity(self.batch.len() * 14 + 12);
        line.push_str("{\"pairs\":[");
        for (i, (a, b)) in self.batch.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push('[');
            line.push_str(&a.to_string());
            line.push(',');
            line.push_str(&b.to_string());
            line.push(']');
        }
        line.push_str("]}");
        self.batch.clear();
        self.alive = send(self.out, &line);
        self.alive
    }
}

/// The configuration a validated request runs. A planner-selected choice
/// carries knobs (tile count, buffer split) the algorithm name alone cannot,
/// so it is materialised directly.
fn algorithm_of(jr: &JoinRequest) -> Option<Algorithm> {
    let algo = match &jr.chosen_choice {
        Some(choice) => Algorithm::from_choice(choice),
        None => Algorithm::from_name(&jr.algo, jr.mem_bytes)?,
    };
    Some(algo.with_threads(jr.threads))
}

/// Every join, on the session thread: lease, then run the join inside
/// `catch_unwind` with the socket's batcher as its sink. Completion, typed
/// error and panic all come back here as a value, so the lease is released
/// before the one terminal line goes out (a client that has read it finds
/// the arbiter settled); a hang-up is a failed write, which trips the
/// join's token.
fn run_join(
    inner: &Inner,
    out: &mut TcpStream,
    jr: &JoinRequest,
    left: &[Kpe],
    right: &[Kpe],
) -> Outcome {
    let token = CancelToken::new();
    let lease = match inner.arbiter.lease(jr.mem_bytes as u64, Some(&token)) {
        Ok(lease) => lease,
        Err(e) => {
            let (line, outcome) = admission_response(&e);
            let _ = send(out, &line);
            return outcome;
        }
    };
    if let Some(ms) = jr.hold_ms {
        std::thread::sleep(Duration::from_millis(ms.min(60_000)));
    }
    let mut emitter = Emitter::new(out, inner.cfg.batch, jr.limit);
    let result = catch_unwind(AssertUnwindSafe(|| {
        join_streaming(jr, left, right, &token, &mut |a, b| {
            if !emitter.pair(a, b) {
                token.cancel();
            }
        })
    }));
    drop(lease);
    let (line, outcome) = match result {
        Ok(Ok(stats)) => (done_line(&stats, jr, emitter.sent), Outcome::Ok),
        Ok(Err(e)) => join_error_response(&e),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_owned());
            // "worker" is the wire's word from when a worker thread ran the join.
            let message = format!("worker panicked: {msg}");
            (proto::error_line("panicked", &message, &[]), Outcome::Failed)
        }
    };
    if emitter.flush() && emitter.send_line(&line) {
        outcome
    } else {
        Outcome::Disconnected
    }
}

/// Runs one validated request, pushing each result pair into `sink`.
fn join_streaming(
    jr: &JoinRequest,
    left: &[Kpe],
    right: &[Kpe],
    token: &CancelToken,
    sink: &mut dyn FnMut(u64, u64),
) -> Result<JoinStats, JoinError> {
    let algo =
        algorithm_of(jr).ok_or_else(|| JoinError::new("setup", IoError::unsupported()))?;
    let mut join = SpatialJoin::new(algo)
        .with_disk_model(DiskModel {
            channels: jr.channels,
            ..DiskModel::default()
        })
        .with_cancel(token.clone());
    if let Some(d) = jr.deadline {
        join = join.with_deadline(d);
    }

    let mut emitted = 0u64;
    let panic_after = jr.panic_after;
    let mut emit = |a: RecordId, b: RecordId| {
        emitted += 1;
        if Some(emitted) == panic_after {
            panic!("panic_after test hook fired at pair {emitted}");
        }
        sink(a.0, b.0);
    };

    if let Some(point) = jr.crash {
        // A durable run on a scratch disk with the requested crash point
        // armed — the service-level equivalent of `sjoin --crash`.
        let fp = join.fingerprint(left, right);
        let join = join.with_faults(FaultPlan::crash_only(fp, point));
        return join.try_run_durable_with(&join.disk(), left, right, fp, &mut emit);
    }
    if let Some(seed) = jr.faults {
        // Persistent damage exercises the quarantine-recompute paths end to
        // end: the join must still deliver the exact clean result set.
        join = join.with_faults(if jr.faults_persistent {
            FaultPlan::persistent(seed)
        } else {
            FaultPlan::recoverable(seed)
        });
    }
    join.try_run_with(left, right, &mut emit)
}

fn admission_response(e: &AdmissionError) -> (String, Outcome) {
    match e {
        AdmissionError::Overloaded { retry_after } => (
            proto::error_line(
                "overloaded",
                &e.to_string(),
                &[("retry_after", (*retry_after).into())],
            ),
            Outcome::Shed,
        ),
        AdmissionError::TooLarge { requested, budget } => (
            proto::error_line(
                "too_large",
                &e.to_string(),
                &[
                    ("requested", (*requested).into()),
                    ("budget", (*budget).into()),
                ],
            ),
            Outcome::Shed,
        ),
        AdmissionError::Cancelled => (
            proto::error_line("cancelled", &e.to_string(), &[]),
            Outcome::Failed,
        ),
    }
}

fn join_error_response(e: &JoinError) -> (String, Outcome) {
    let mut extra = vec![
        ("resumable", e.is_resumable().into()),
        ("phase", e.phase.into()),
    ];
    let kind = match &e.kind {
        JoinErrorKind::DeadlineExceeded { elapsed, deadline } => {
            extra.push(("elapsed", (*elapsed).into()));
            extra.push(("deadline", (*deadline).into()));
            "deadline"
        }
        JoinErrorKind::Cancelled => "cancelled",
        JoinErrorKind::Crashed(p) => {
            extra.push(("crash_point", p.spec().into()));
            "crashed"
        }
        JoinErrorKind::Io(io) if io.kind == IoErrorKind::Unsupported => "unsupported",
        JoinErrorKind::Io(_) | JoinErrorKind::RequeueExhausted { .. } => "io",
    };
    (
        proto::error_line(kind, &e.to_string(), &extra),
        Outcome::Failed,
    )
}

fn done_line(stats: &JoinStats, jr: &JoinRequest, pairs_sent: u64) -> String {
    let mut done = vec![
        ("results", stats.results().into()),
        ("duplicates", stats.duplicates().into()),
        ("candidates", stats.candidates().into()),
        ("total_seconds", stats.total_seconds().into()),
        ("first_result_seconds", stats.first_result_seconds().into()),
        ("pairs_sent", pairs_sent.into()),
    ];
    if let Some(choice) = &jr.chosen_choice {
        done.push(("plan", choice.describe().into()));
    }
    if jr.metrics {
        let report = stats.metrics_report(&jr.algo, jr.threads);
        done.push(match report.reconcile() {
            Ok(()) => ("metrics", report.json()),
            Err(e) => ("metrics_error", e.to_string().into()),
        });
    }
    Json::obj([("done", Json::obj(done))]).to_string()
}
