//! Operator-tree substrate: open-next-close iterators ([Gra 93]).
//!
//! The paper argues repeatedly (§1, §3.1, §6) that a spatial join must live
//! inside an operator tree and support *pipelined* processing: downstream
//! operators should start consuming results before the join has finished.
//! PBSM's original sort-based duplicate removal blocks the pipeline — the
//! first tuple appears only after the complete candidate set is sorted —
//! whereas the Reference Point Method streams results out of the join phase.
//!
//! This crate provides a small Volcano-style framework to make that
//! difference observable:
//!
//! * [`Operator`] — the open-next-close interface,
//! * [`KpeScan`] / [`WindowFilter`] — leaf and unary operators over KPEs,
//! * [`SpatialJoinOp`] — a *genuinely streaming* join operator: the join
//!   runs on a worker thread and results flow through a bounded channel, so
//!   `next()` returns as soon as the algorithm emits its first tuple,
//! * [`Collected`] — a sink that drains an operator and records the
//!   time-to-first-tuple and time-to-completion.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use spatialjoin::{CancelToken, JoinError, JoinStats, Kpe, Rect, RecordId, SpatialJoin};

/// Why a [`SpatialJoinOp`] stream terminated abnormally. Delivered as the
/// final item of the stream — the operator never panics the consumer thread
/// and never leaves it blocked on the channel.
#[derive(Debug)]
pub enum JoinOpError {
    /// The join surfaced a typed I/O failure (retry budget exhausted on a
    /// permanent fault, say).
    Join(JoinError),
    /// The worker thread panicked; the payload message is preserved.
    WorkerPanicked(String),
}

impl std::fmt::Display for JoinOpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinOpError::Join(e) => write!(f, "{e}"),
            JoinOpError::WorkerPanicked(msg) => write!(f, "join worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for JoinOpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JoinOpError::Join(e) => Some(e),
            JoinOpError::WorkerPanicked(_) => None,
        }
    }
}

/// The open-next-close iterator contract of [Gra 93]. `open` may do
/// blocking preparatory work; `next` yields one tuple; `close` releases
/// resources (and must be callable before exhaustion).
pub trait Operator {
    type Item;
    fn open(&mut self);
    fn next(&mut self) -> Option<Self::Item>;
    fn close(&mut self);
}

/// Leaf operator: scans an in-memory relation of KPEs (per the paper's cost
/// model, reading base relations is free).
pub struct KpeScan {
    data: Vec<Kpe>,
    pos: usize,
    opened: bool,
}

impl KpeScan {
    pub fn new(data: Vec<Kpe>) -> Self {
        KpeScan {
            data,
            pos: 0,
            opened: false,
        }
    }
}

impl Operator for KpeScan {
    type Item = Kpe;

    fn open(&mut self) {
        self.pos = 0;
        self.opened = true;
    }

    fn next(&mut self) -> Option<Kpe> {
        debug_assert!(self.opened, "next() before open()");
        let k = self.data.get(self.pos).copied();
        self.pos += 1;
        k
    }

    fn close(&mut self) {
        self.opened = false;
    }
}

/// Unary operator: keeps only KPEs intersecting a window — the typical
/// selection an optimizer pushes below a spatial join.
pub struct WindowFilter<I> {
    input: I,
    window: Rect,
}

impl<I: Operator<Item = Kpe>> WindowFilter<I> {
    pub fn new(input: I, window: Rect) -> Self {
        WindowFilter { input, window }
    }
}

impl<I: Operator<Item = Kpe>> Operator for WindowFilter<I> {
    type Item = Kpe;

    fn open(&mut self) {
        self.input.open();
    }

    fn next(&mut self) -> Option<Kpe> {
        loop {
            let k = self.input.next()?;
            if k.rect.intersects(&self.window) {
                return Some(k);
            }
        }
    }

    fn close(&mut self) {
        self.input.close();
    }
}

/// Binary streaming spatial-join operator.
///
/// `open()` drains both children (the join consumes its inputs either way)
/// and runs the configured [`SpatialJoin`] on a worker thread; results cross
/// a bounded channel of `pipeline_depth` tuples, so `next()` delivers the
/// first tuple as soon as the algorithm produces it. A blocking algorithm
/// configuration (PBSM with sort-phase dedup) therefore exhibits its full
/// time-to-first-tuple latency through this operator, while the Reference
/// Point Method variants stream.
///
/// Everything about the run — algorithm, threads, disk model, faults,
/// deadline, recorder — is the [`SpatialJoin`]'s. The operator always
/// attaches its own cancel token (that is how `close()` stops the worker),
/// so only the cancellable joins (PBSM, S³J) can run under it; a baseline
/// delivers the join's typed `Unsupported` error item.
///
/// Items are `Result`: a join that fails with a typed error (retry budget
/// exhausted on an unrecoverable fault, deadline, cancellation) or a
/// panicking worker delivers one final `Err` item and ends the stream, so
/// the consumer is never left blocked on the channel and never observes a
/// panic directly.
pub struct SpatialJoinOp<L, R> {
    left: L,
    right: R,
    join: SpatialJoin,
    pipeline_depth: usize,
    cancel: CancelToken,
    stats: Arc<Mutex<Option<JoinStats>>>,
    rx: Option<mpsc::Receiver<Result<(RecordId, RecordId), JoinOpError>>>,
    worker: Option<JoinHandle<()>>,
}

impl<L, R> SpatialJoinOp<L, R>
where
    L: Operator<Item = Kpe>,
    R: Operator<Item = Kpe>,
{
    pub fn new(left: L, right: R, join: SpatialJoin) -> Self {
        SpatialJoinOp {
            left,
            right,
            join,
            pipeline_depth: 1024,
            cancel: CancelToken::new(),
            stats: Arc::new(Mutex::new(None)),
            rx: None,
            worker: None,
        }
    }

    /// Bounded-channel capacity between the join and its consumer.
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }

    /// Shares a cooperative-cancellation token with the operator. Tripping
    /// the token from any thread makes the running join stop at the next
    /// partition boundary and deliver a final `Cancelled` error item.
    /// `close()` trips the same token, so abandoning the operator stops the
    /// worker promptly instead of letting it join to a dead channel.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// The completed run's statistics, kept instead of being discarded at
    /// the operator boundary. `None` while the join is still running, after
    /// an error, or before `open()`; populated once the stream has ended
    /// normally (drain to the end or `close()` after the final tuple).
    pub fn stats(&self) -> Option<JoinStats> {
        self.stats.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

impl<L, R> Operator for SpatialJoinOp<L, R>
where
    L: Operator<Item = Kpe>,
    R: Operator<Item = Kpe>,
{
    type Item = Result<(RecordId, RecordId), JoinOpError>;

    fn open(&mut self) {
        self.left.open();
        self.right.open();
        let mut lhs = Vec::new();
        while let Some(k) = self.left.next() {
            lhs.push(k);
        }
        let mut rhs = Vec::new();
        while let Some(k) = self.right.next() {
            rhs.push(k);
        }
        self.left.close();
        self.right.close();

        let (tx, rx) = mpsc::sync_channel(self.pipeline_depth);
        let join = self.join.clone().with_cancel(self.cancel.clone());
        *self.stats.lock().unwrap_or_else(|p| p.into_inner()) = None;
        let stats_slot = Arc::clone(&self.stats);
        self.worker = Some(std::thread::spawn(move || {
            // The whole join runs under `catch_unwind`: a panicking worker
            // must still hang up the channel with a final error item, or
            // the consumer would block forever on `recv()`.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                join.try_run_with(&lhs, &rhs, &mut |a, b| {
                    // A send error means the consumer closed early; results
                    // are discarded, which is the correct LIMIT-style
                    // behaviour.
                    let _ = tx.send(Ok((a, b)));
                })
            }));
            match outcome {
                Ok(Ok(st)) => {
                    *stats_slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(st);
                }
                Ok(Err(e)) => {
                    let _ = tx.send(Err(JoinOpError::Join(e)));
                }
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    let _ = tx.send(Err(JoinOpError::WorkerPanicked(msg)));
                }
            }
            // `tx` drops here, which ends the stream for the consumer.
        }));
        self.rx = Some(rx);
    }

    fn next(&mut self) -> Option<Result<(RecordId, RecordId), JoinOpError>> {
        self.rx.as_ref()?.recv().ok()
    }

    fn close(&mut self) {
        self.cancel.cancel(); // stop the join at the next partition boundary
        self.rx = None; // hang up: the worker's sends start failing
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

/// LIMIT operator: stops its input after `n` tuples. Closing propagates,
/// which lets a streaming join below abort early — the canonical payoff of
/// a pipelined plan.
pub struct Limit<I> {
    input: I,
    remaining: usize,
}

impl<I: Operator> Limit<I> {
    pub fn new(input: I, n: usize) -> Self {
        Limit {
            input,
            remaining: n,
        }
    }
}

impl<I: Operator> Operator for Limit<I> {
    type Item = I::Item;

    fn open(&mut self) {
        self.input.open();
    }

    fn next(&mut self) -> Option<I::Item> {
        if self.remaining == 0 {
            return None;
        }
        let item = self.input.next()?;
        self.remaining -= 1;
        Some(item)
    }

    fn close(&mut self) {
        self.input.close();
    }
}

/// Sink that drains an operator, recording pipelining metrics.
pub struct Collected<T> {
    pub items: Vec<T>,
    /// Wall-clock seconds from `open()` to the first `next()` result.
    pub first_tuple_secs: Option<f64>,
    /// Wall-clock seconds from `open()` to exhaustion.
    pub total_secs: f64,
}

impl<T> Collected<T> {
    /// Runs a full open-drain-close cycle over `op`.
    pub fn drain<O: Operator<Item = T>>(op: &mut O) -> Collected<T> {
        let start = std::time::Instant::now();
        op.open();
        let mut items = Vec::new();
        let mut first = None;
        while let Some(x) = op.next() {
            if first.is_none() {
                first = Some(start.elapsed().as_secs_f64());
            }
            items.push(x);
        }
        let total = start.elapsed().as_secs_f64();
        op.close();
        Collected {
            items,
            first_tuple_secs: first,
            total_secs: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatialjoin::datagen::LineNetwork;
    use spatialjoin::pbsm::{Dedup, PbsmConfig};
    use spatialjoin::s3j::S3jConfig;
    use spatialjoin::{Algorithm, DiskModel, FaultPlan, IoErrorKind, JoinErrorKind};

    fn tiger(n: usize, seed: u64) -> Vec<Kpe> {
        LineNetwork {
            count: n,
            coverage: 0.15,
            segments_per_line: 12,
            seed,
        }
        .generate()
    }

    fn brute(r: &[Kpe], s: &[Kpe]) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        for a in r {
            for b in s {
                if a.rect.intersects(&b.rect) {
                    v.push((a.id.0, b.id.0));
                }
            }
        }
        v.sort_unstable();
        v
    }

    /// PBSM with the Reference Point Method in 32 KiB: many partitions.
    fn pbsm() -> SpatialJoin {
        SpatialJoin::new(Algorithm::pbsm_rpm(32 * 1024))
    }

    fn s3j() -> SpatialJoin {
        SpatialJoin::new(Algorithm::S3j(S3jConfig {
            mem_bytes: 32 * 1024,
            max_level: 9,
            ..Default::default()
        }))
    }

    fn join_op(r: &[Kpe], s: &[Kpe], join: SpatialJoin) -> SpatialJoinOp<KpeScan, KpeScan> {
        SpatialJoinOp::new(KpeScan::new(r.to_vec()), KpeScan::new(s.to_vec()), join)
    }

    /// Unwraps a drained join stream into sorted id pairs.
    fn ok_pairs(items: Vec<Result<(RecordId, RecordId), JoinOpError>>) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = items
            .into_iter()
            .map(|r| r.expect("join stream delivered an error"))
            .map(|(a, b)| (a.0, b.0))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn scan_and_filter_compose() {
        let data = tiger(500, 1);
        let window = Rect::new(0.25, 0.25, 0.75, 0.75);
        let mut op = WindowFilter::new(KpeScan::new(data.clone()), window);
        let got = Collected::drain(&mut op);
        let want: Vec<Kpe> = data
            .iter()
            .filter(|k| k.rect.intersects(&window))
            .copied()
            .collect();
        assert_eq!(got.items.len(), want.len());
        assert!(!got.items.is_empty() && got.items.len() < data.len());
    }

    #[test]
    fn streaming_pbsm_join_produces_full_result() {
        let r = tiger(1500, 2);
        let s = tiger(1500, 3);
        let mut op = join_op(&r, &s, pbsm());
        let got = Collected::drain(&mut op);
        assert!(got.first_tuple_secs.unwrap() <= got.total_secs);
        assert_eq!(ok_pairs(got.items), brute(&r, &s));
    }

    #[test]
    fn streaming_s3j_join_produces_full_result() {
        let r = tiger(1200, 4);
        let s = tiger(1200, 5);
        let mut op = join_op(&r, &s, s3j());
        let got = Collected::drain(&mut op);
        assert_eq!(ok_pairs(got.items), brute(&r, &s));
    }

    #[test]
    fn early_close_does_not_deadlock_or_panic() {
        // LIMIT-style consumption: take 5 tuples, then close. The worker
        // must unblock (its sends fail) and join cleanly.
        let mut op = join_op(&tiger(2000, 6), &tiger(2000, 7), pbsm()).with_pipeline_depth(4);
        op.open();
        for _ in 0..5 {
            assert!(op.next().is_some());
        }
        op.close(); // must not hang
    }

    #[test]
    fn filter_below_join_reduces_result() {
        let r = tiger(800, 8);
        let s = tiger(800, 9);
        let window = Rect::new(0.0, 0.0, 0.5, 0.5);
        let mut plan = SpatialJoinOp::new(
            WindowFilter::new(KpeScan::new(r.clone()), window),
            KpeScan::new(s.clone()),
            SpatialJoin::new(Algorithm::Pbsm(PbsmConfig::default())),
        );
        let got = Collected::drain(&mut plan);
        let rf: Vec<Kpe> = r
            .iter()
            .filter(|k| k.rect.intersects(&window))
            .copied()
            .collect();
        assert_eq!(ok_pairs(got.items), brute(&rf, &s));
    }

    #[test]
    fn scan_reopen_restarts_from_the_beginning() {
        let data = tiger(50, 30);
        let mut scan = KpeScan::new(data.clone());
        scan.open();
        let first = scan.next().unwrap();
        scan.close();
        scan.open(); // open-next-close contract: reopen rewinds
        assert_eq!(scan.next().unwrap(), first);
        let rest = std::iter::from_fn(|| scan.next()).count();
        assert_eq!(rest, data.len() - 1);
        scan.close();
    }

    #[test]
    fn filter_with_disjoint_window_yields_nothing() {
        let mut data = tiger(100, 31);
        for k in data.iter_mut() {
            // Push everything into the left half.
            k.rect.xl *= 0.4;
            k.rect.xh *= 0.4;
        }
        let mut op = WindowFilter::new(KpeScan::new(data), Rect::new(0.9, 0.9, 1.0, 1.0));
        let got = Collected::drain(&mut op);
        assert!(got.items.is_empty());
        assert!(got.first_tuple_secs.is_none());
    }

    #[test]
    fn limit_stops_early_and_closes_cleanly() {
        let join = join_op(&tiger(1500, 20), &tiger(1500, 21), pbsm()).with_pipeline_depth(8);
        let mut plan = Limit::new(join, 7);
        let got = Collected::drain(&mut plan);
        assert_eq!(got.items.len(), 7);
    }

    #[test]
    fn limit_larger_than_result_passes_everything() {
        let data = tiger(200, 22);
        let mut plan = Limit::new(KpeScan::new(data.clone()), 10_000);
        let got = Collected::drain(&mut plan);
        assert_eq!(got.items.len(), data.len());
    }

    #[test]
    fn parallel_operator_streams_identical_pairs_in_identical_order() {
        // The tentpole guarantee observed end to end through the operator
        // tree: many workers feed the one bounded channel, yet the consumer
        // sees the exact sequential tuple order (canonical re-assembly).
        let r = tiger(1500, 12);
        let s = tiger(1500, 13);
        for join in [pbsm(), s3j()] {
            let run = |threads: usize| {
                let algo = join.algorithm().clone().with_threads(threads);
                let mut op = join_op(&r, &s, SpatialJoin::new(algo));
                Collected::drain(&mut op)
                    .items
                    .into_iter()
                    .map(|r| r.expect("join stream delivered an error"))
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(1), run(4), "tuple order must not depend on threads");
        }
    }

    #[test]
    fn channels_leave_stream_identical_but_reduce_operator_clock() {
        let r = tiger(1500, 14);
        let s = tiger(1500, 15);
        let run = |join: SpatialJoin, channels: usize| {
            // `cpu_slowdown: 0` keeps the clock free of host-timing noise so
            // the strict-improvement assertion is deterministic.
            let mut op = join_op(
                &r,
                &s,
                join.with_disk_model(DiskModel {
                    channels,
                    cpu_slowdown: 0.0,
                    ..Default::default()
                }),
            );
            let items = Collected::drain(&mut op).items;
            let stats = op.stats().expect("stream ended normally");
            let pairs: Vec<(u64, u64)> = items
                .into_iter()
                .map(|r| r.expect("join stream delivered an error"))
                .map(|(a, b)| (a.0, b.0))
                .collect();
            (pairs, stats.total_seconds())
        };
        for join in [pbsm(), s3j()] {
            let (p1, t1) = run(join.clone(), 1);
            let (p4, t4) = run(join, 4);
            assert_eq!(p1, p4, "tuple stream must not depend on channels");
            assert!(
                t4 < t1,
                "4 channels must beat 1 on partitioned joins: {t4} vs {t1}"
            );
        }
    }

    #[test]
    fn rpm_streams_earlier_than_sort_phase() {
        // The §3.1 pipelining claim, observed end to end through the
        // operator tree: with RPM the first tuple arrives while the join
        // phase is still running; with the sort phase it arrives only after
        // all candidates are sorted. Compare relative first-tuple positions.
        let r = tiger(4000, 10);
        let s = tiger(4000, 11);
        let run = |dedup: Dedup| {
            let join = SpatialJoin::new(Algorithm::Pbsm(PbsmConfig {
                mem_bytes: 64 * 1024,
                dedup,
                ..Default::default()
            }));
            let mut op = join_op(&r, &s, join).with_pipeline_depth(1);
            op.open();
            let first = op.next();
            op.close();
            first
        };
        // Both configurations deliver a first tuple through the pipe.
        assert!(run(Dedup::ReferencePoint).is_some());
        assert!(run(Dedup::SortPhase).is_some());
    }

    #[test]
    fn unrecoverable_fault_surfaces_as_error_item_not_hang() {
        let r = tiger(600, 40);
        let s = tiger(600, 41);
        for join in [pbsm(), s3j()] {
            let mut op = join_op(&r, &s, join.with_faults(FaultPlan::unrecoverable(7)))
                .with_pipeline_depth(4);
            let got = Collected::drain(&mut op); // must terminate, not hang
            let last = got.items.last().expect("stream delivers a final item");
            assert!(
                matches!(last, Err(JoinOpError::Join(_))),
                "expected a typed join error, got {last:?}"
            );
        }
    }

    #[test]
    fn baseline_delivers_one_unsupported_error_item_and_close_returns() {
        // The operator always attaches a cancel token, which the baselines
        // refuse: one typed error item, then the stream ends — never a hang.
        let join = SpatialJoin::new(Algorithm::sssj(32 * 1024));
        let mut op = join_op(&tiger(300, 48), &tiger(300, 49), join);
        op.open();
        match op.next() {
            Some(Err(JoinOpError::Join(e))) => {
                assert_eq!(e.io().map(|io| io.kind), Some(IoErrorKind::Unsupported))
            }
            other => panic!("expected an Unsupported error item, got {other:?}"),
        }
        assert!(op.next().is_none(), "exactly one item");
        op.close();
        assert!(op.stats().is_none());
    }

    #[test]
    fn cancellation_ends_stream_with_typed_error_item() {
        let token = CancelToken::new();
        token.cancel_after_checks(3); // trip a few partitions into the run
        let mut op = join_op(&tiger(1500, 44), &tiger(1500, 45), pbsm()).with_cancel(token);
        let got = Collected::drain(&mut op); // must terminate, not hang
        let last = got.items.last().expect("stream delivers a final item");
        match last {
            Err(JoinOpError::Join(e)) => {
                assert!(matches!(e.kind, JoinErrorKind::Cancelled), "got {e:?}")
            }
            other => panic!("expected a cancellation error item, got {other:?}"),
        }
    }

    #[test]
    fn deadline_expiry_ends_stream_with_typed_error_item() {
        let r = tiger(1200, 46);
        let s = tiger(1200, 47);
        for join in [pbsm(), s3j()] {
            // Expires at the first partition boundary.
            let mut op = join_op(&r, &s, join.with_deadline(1e-9));
            let got = Collected::drain(&mut op);
            let last = got.items.last().expect("stream delivers a final item");
            match last {
                Err(JoinOpError::Join(e)) => assert!(
                    matches!(e.kind, JoinErrorKind::DeadlineExceeded { .. }),
                    "got {e:?}"
                ),
                other => panic!("expected a deadline error item, got {other:?}"),
            }
        }
    }

    #[test]
    fn recoverable_faults_leave_the_stream_intact() {
        let r = tiger(800, 42);
        let s = tiger(800, 43);
        let run = |join: SpatialJoin| ok_pairs(Collected::drain(&mut join_op(&r, &s, join)).items);
        assert_eq!(
            run(pbsm()),
            run(pbsm().with_faults(FaultPlan::recoverable(99)))
        );
    }
}
