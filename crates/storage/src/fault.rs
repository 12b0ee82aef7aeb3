//! Deterministic fault injection and typed I/O errors for the simulated disk.
//!
//! The paper's cost model (§5) treats the disk as perfectly reliable; a
//! production-scale system cannot. This module adds a *failure model* that is
//! as deterministic as the cost model itself: whether a given page request
//! fails, how many times it fails before succeeding, and what kind of failure
//! it is are all pure functions of a seed and the request's identity — never
//! of wall-clock time, scheduling, or a shared mutable RNG.
//!
//! ## Request identity
//!
//! A fault decision is keyed on `(direction, byte offset, byte length)` of a
//! request — deliberately **excluding** the [`crate::FileId`]. File ids are
//! allocated in racy order when parallel workers repartition through forked
//! disk handles, so any scheme keyed on the file id would inject different
//! faults at `threads = 1` and `threads = 4`. The identity triple, by
//! contrast, is determined by *what* the algorithm reads and writes, which is
//! itself deterministic; the multiset of request identities issued by a join
//! is the same for every thread count, so the injected failures (and the
//! retries, backoff, and extra page-transfer units they cost) are too.
//!
//! Requests sharing an identity share a per-identity *attempt counter* (kept
//! on the disk's shared [fault state](crate::SimDisk::with_faults) so that
//! forked handles draw from one pool): the first `fail_count` attempts fail,
//! all later attempts succeed. Each failure is consumed by whichever handle
//! performs it, so totals stay deterministic under any interleaving.

use crate::manifest::MANIFEST_VERSION;
use crate::FileId;

/// Direction of a simulated disk request, for fault-identity purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    Read,
    Write,
}

impl IoOp {
    fn tag(self) -> u64 {
        match self {
            IoOp::Read => 0x52,  // 'R'
            IoOp::Write => 0x57, // 'W'
        }
    }
}

/// Classification of a simulated I/O failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoErrorKind {
    /// A read that failed in transit; retrying re-issues the request.
    TransientRead,
    /// A write that failed before any byte reached the platter.
    TransientWrite,
    /// A write that was interrupted mid-page. The simulated disk detects the
    /// tear at write time and persists nothing (atomic rollback), so a retry
    /// starts from clean state.
    TornWrite,
    /// Bit-rot: the page content read off the platter does not match the
    /// stored per-page checksum. A retry re-reads the page clean.
    ChecksumMismatch,
    /// The file was deleted; the request can never succeed.
    FileDeleted,
    /// The byte range extends past the end of the file.
    OutOfBounds,
    /// The operation does not support the requested fault configuration
    /// (e.g. fault injection requested for an algorithm that runs fully
    /// in memory).
    Unsupported,
    /// A damaged sector: every re-read of the page fails the checksum, no
    /// matter how many retries are spent. The data is only recoverable by
    /// rebuilding the file from its source (quarantine + recompute).
    PersistentCorruption,
    /// The simulated volume is out of capacity (ENOSPC): the write can never
    /// succeed until space is freed or the plan is changed.
    DiskFull,
}

impl IoErrorKind {
    /// `true` for kinds that a retry can plausibly cure.
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            IoErrorKind::TransientRead
                | IoErrorKind::TransientWrite
                | IoErrorKind::TornWrite
                | IoErrorKind::ChecksumMismatch
        )
    }

    /// `true` for kinds that *no* retry can cure: the same request will fail
    /// the same way forever. The disk surfaces these after a single attempt
    /// (no simulated backoff is charged) and the join layers respond by
    /// quarantining the damaged file and recomputing from source.
    pub fn is_persistent(self) -> bool {
        matches!(
            self,
            IoErrorKind::PersistentCorruption | IoErrorKind::DiskFull
        )
    }

    /// Human-readable description, used by `Display` and the CLI taxonomy.
    pub fn describe(self) -> &'static str {
        match self {
            IoErrorKind::TransientRead => "transient read error",
            IoErrorKind::TransientWrite => "transient write error",
            IoErrorKind::TornWrite => "torn write",
            IoErrorKind::ChecksumMismatch => "page checksum mismatch",
            IoErrorKind::FileDeleted => "file was deleted",
            IoErrorKind::OutOfBounds => "request extends past end of file",
            IoErrorKind::Unsupported => "operation unsupported under fault injection",
            IoErrorKind::PersistentCorruption => {
                "persistent media corruption (re-reads cannot cure a damaged sector)"
            }
            IoErrorKind::DiskFull => "simulated disk full (ENOSPC)",
        }
    }
}

/// A typed error from the simulated disk: what failed, where, and after how
/// many attempts the request was given up on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoError {
    pub kind: IoErrorKind,
    pub file: FileId,
    pub offset: u64,
    pub len: u64,
    /// Attempts performed (including the failing one) before surfacing.
    pub attempts: u32,
}

impl IoError {
    /// An error that refers to no specific request: the *configuration*
    /// itself is unsupported — e.g. fault injection requested for a baseline
    /// algorithm that has no fallible code path.
    pub fn unsupported() -> Self {
        IoError {
            kind: IoErrorKind::Unsupported,
            file: FileId::sentinel(),
            offset: 0,
            len: 0,
            attempts: 0,
        }
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({:?}, offset {}, len {}, {} attempt{})",
            self.kind.describe(),
            self.file,
            self.offset,
            self.len,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
        )
    }
}

impl std::error::Error for IoError {}

/// A deterministic crash point: where in the run the process "dies".
///
/// Crash injection simulates a kill -9 at a named durability boundary of the
/// checkpoint protocol, so recovery is testable at exactly the states a real
/// crash can leave behind:
///
/// * [`AfterCommit`](CrashPoint::AfterCommit)`(n)` — the process dies
///   immediately *after* the `n`-th journal commit record is durable. The
///   journal and results file are consistent; the committed prefix must be
///   preserved and never re-emitted on resume.
/// * [`MidPartition`](CrashPoint::MidPartition)`(n)` — the process dies
///   *while appending* the `n+1`-th journal record: a torn half-record is
///   left at the journal tail. Recovery must truncate the tear and roll the
///   results file back to the last committed watermark.
/// * [`MidRename`](CrashPoint::MidRename) — the process dies during the
///   final manifest publish: the new `Done` manifest bytes are written but
///   the superblock pointer making them current is not. Resume must keep
///   using the previous manifest (whose journal is fully committed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Die right after the `n`-th (1-based) journal commit becomes durable.
    AfterCommit(u32),
    /// Die while writing the `n+1`-th journal record, leaving a torn tail
    /// (`n` is the number of commits that completed before the tear).
    MidPartition(u32),
    /// Die between writing the final manifest and publishing its pointer.
    MidRename,
}

impl CrashPoint {
    /// Parses the CLI / repro-file spelling: `after-commit:N`,
    /// `mid-partition:N`, or `mid-rename`.
    pub fn from_spec(spec: &str) -> Option<CrashPoint> {
        if spec == "mid-rename" {
            return Some(CrashPoint::MidRename);
        }
        let (name, n) = spec.split_once(':')?;
        let n: u32 = n.parse().ok()?;
        match name {
            "after-commit" => Some(CrashPoint::AfterCommit(n)),
            "mid-partition" => Some(CrashPoint::MidPartition(n)),
            _ => None,
        }
    }

    /// The inverse of [`from_spec`](CrashPoint::from_spec).
    pub fn spec(&self) -> String {
        match self {
            CrashPoint::AfterCommit(n) => format!("after-commit:{n}"),
            CrashPoint::MidPartition(n) => format!("mid-partition:{n}"),
            CrashPoint::MidRename => "mid-rename".to_string(),
        }
    }
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec())
    }
}

/// What went wrong at the join level. [`Io`](JoinErrorKind::Io) is the
/// classic case (a request exhausted its retry budget); the other variants
/// carry the interruption machinery of the checkpoint layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JoinErrorKind {
    /// A disk request exhausted its retry budget and every degradation path.
    Io(IoError),
    /// The ordered pool's requeue cap was exhausted for one partition:
    /// `attempts` full retry budgets were spent, `last` is the error the
    /// final attempt died with.
    RequeueExhausted { attempts: u32, last: IoError },
    /// The simulated-time deadline expired; partial results were emitted and
    /// the manifest (if checkpointing) is left resumable.
    DeadlineExceeded { elapsed: f64, deadline: f64 },
    /// The run was cooperatively cancelled via a `CancelToken`.
    Cancelled,
    /// An injected [`CrashPoint`] fired: the process "died" and left its run
    /// directory behind exactly as a kill would.
    Crashed(CrashPoint),
    /// The recovered run directory cannot be resumed by this run.
    ResumeRefused(ResumeRefusal),
}

/// Why a recovery scan refused to resume a run directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeRefusal {
    /// The manifest's fingerprint is not this run's.
    OtherRun { run_id: u64 },
    /// The manifest is of format version `found`, not this build's.
    Format { found: u32 },
    /// The manifest fails its checksum or does not parse.
    Unreadable,
}

/// A join-level error: what happened plus where in the pipeline it escaped.
///
/// This is the error type the fallible join entry points
/// (`SpatialJoin::try_run` and the `try_*_join_ctl` functions under it)
/// surface once a request has exhausted its retry budget and every
/// degradation path — or once the run is interrupted by cancellation,
/// deadline expiry, or an injected crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinError {
    /// Pipeline phase the error escaped from (`"partition"`, `"join"`,
    /// `"repartition"`, `"dedup"`, `"build"`, `"sort"`, `"scan"`, …).
    pub phase: &'static str,
    /// Partition (task) index for per-partition phases, if known.
    pub partition: Option<u32>,
    pub kind: JoinErrorKind,
}

impl JoinError {
    pub fn new(phase: &'static str, io: IoError) -> Self {
        JoinError {
            phase,
            partition: None,
            kind: JoinErrorKind::Io(io),
        }
    }

    pub fn in_partition(phase: &'static str, partition: u32, io: IoError) -> Self {
        JoinError {
            phase,
            partition: Some(partition),
            kind: JoinErrorKind::Io(io),
        }
    }

    /// Terminal requeue-cap error, naming the partition that kept failing.
    pub fn requeue_exhausted(
        phase: &'static str,
        partition: u32,
        attempts: u32,
        last: IoError,
    ) -> Self {
        JoinError {
            phase,
            partition: Some(partition),
            kind: JoinErrorKind::RequeueExhausted { attempts, last },
        }
    }

    /// A run-level error of no one partition — an interruption or a
    /// refusal — escaped from `phase`.
    pub fn of(phase: &'static str, kind: JoinErrorKind) -> Self {
        JoinError { phase, partition: None, kind }
    }

    /// The underlying [`IoError`], when the failure was I/O-shaped.
    pub fn io(&self) -> Option<&IoError> {
        match &self.kind {
            JoinErrorKind::Io(io) => Some(io),
            JoinErrorKind::RequeueExhausted { last, .. } => Some(last),
            _ => None,
        }
    }

    /// `true` when the run directory is left in a state `--resume` can
    /// complete from (crash, cancellation, or deadline expiry under
    /// checkpointing).
    pub fn is_resumable(&self) -> bool {
        matches!(
            self.kind,
            JoinErrorKind::Crashed(_)
                | JoinErrorKind::Cancelled
                | JoinErrorKind::DeadlineExceeded { .. }
        )
    }
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.kind, self.partition) {
            (JoinErrorKind::Io(io), Some(p)) => {
                write!(f, "join failed in phase `{}` (partition {}): {}", self.phase, p, io)
            }
            (JoinErrorKind::Io(io), None) => {
                write!(f, "join failed in phase `{}`: {}", self.phase, io)
            }
            (JoinErrorKind::RequeueExhausted { attempts, last }, p) => write!(
                f,
                "join failed in phase `{}`: partition {} exhausted its requeue cap \
                 ({} attempt{}); last error: {}",
                self.phase,
                p.map_or_else(|| "?".to_string(), |p| p.to_string()),
                attempts,
                if *attempts == 1 { "" } else { "s" },
                last,
            ),
            (JoinErrorKind::DeadlineExceeded { elapsed, deadline }, _) => write!(
                f,
                "join deadline exceeded in phase `{}`: {:.4}s simulated of a {:.4}s budget",
                self.phase, elapsed, deadline,
            ),
            (JoinErrorKind::Cancelled, _) => {
                write!(f, "join cancelled in phase `{}`", self.phase)
            }
            (JoinErrorKind::Crashed(point), _) => {
                write!(f, "simulated crash ({point}) in phase `{}`", self.phase)
            }
            (JoinErrorKind::ResumeRefused(why), _) => match *why {
                ResumeRefusal::OtherRun { run_id } => write!(
                    f,
                    "cannot resume: run {run_id} was started with other inputs or another \
                     configuration; rerun with the same flags"
                ),
                ResumeRefusal::Format { found } => write!(
                    f,
                    "cannot resume: manifest format {found} {} this build's {MANIFEST_VERSION}",
                    if found < MANIFEST_VERSION { "predates" } else { "is newer than" }
                ),
                ResumeRefusal::Unreadable => f.write_str("cannot resume: the run's manifest is unreadable"),
            },
        }
    }
}

impl std::error::Error for JoinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            JoinErrorKind::Io(io) => Some(io),
            JoinErrorKind::RequeueExhausted { last, .. } => Some(last),
            _ => None,
        }
    }
}

/// SplitMix64 finalizer — the same mixer the vendored `rand` uses for
/// seeding. Statistically strong enough for Bernoulli draws and cheap enough
/// to run on every request.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform draw in `[0, 1)`.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Sentinel `fail_count`: the identity never succeeds.
pub const PERMANENT: u32 = u32::MAX;

/// A seeded, deterministic plan of disk faults.
///
/// The plan is a *pure function* from request identity to fate: for each
/// `(op, offset, len)` it decides whether the identity is faulty at all, how
/// many leading attempts fail (`fail_count`), whether the fault is permanent,
/// and what [`IoErrorKind`] the failures report. See the module docs for why
/// the identity excludes the file id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed all per-identity draws derive from.
    pub seed: u64,
    /// Fraction of request identities that fail at least once, in `[0, 1]`.
    pub fault_rate: f64,
    /// Upper bound on consecutive failures of a non-permanent faulty
    /// identity (the actual count is a seeded draw in `1..=max_consecutive`).
    pub max_consecutive: u32,
    /// Fraction of *faulty* identities that never succeed, in `[0, 1]`.
    pub permanent_rate: f64,
    /// Restrict injection to read requests. Used by the degraded regime:
    /// a read that outlasts one retry budget is cured by the join layer
    /// (repartition fallback, partition requeue), but a write that outlasts
    /// its budget has no second chance — the bytes were never persisted.
    pub reads_only: bool,
    /// Kill the run at a named durability boundary of the checkpoint
    /// protocol (no effect on runs that don't checkpoint). Orthogonal to
    /// the per-request fault machinery: a crash-only plan keeps
    /// `fault_rate` at zero.
    pub crash: Option<CrashPoint>,
    /// Fraction of *(channel tag, page)* locations on tagged data files that
    /// are damaged sectors, in `[0, 1]`. A read touching a damaged page of a
    /// tagged, non-spare file fails with
    /// [`IoErrorKind::PersistentCorruption`] on every attempt — the damage is
    /// keyed on the file's channel tag and page index (not the request
    /// identity), so re-reading through any buffer size hits the same bad
    /// sector. Untagged files (manifest, journal, results) model a protected
    /// system volume and are never damaged; spare files
    /// ([`crate::SimDisk::create_spare_on`]) model remapped replacement
    /// sectors and are exempt too.
    pub persistent_rate: f64,
    /// Simulated volume capacity in pages. When the live pages across all
    /// files of a disk handle's store would exceed this budget, the append
    /// fails with [`IoErrorKind::DiskFull`] — immediately, since retrying
    /// cannot free space. `None` means unbounded (the historic behaviour).
    pub disk_budget_pages: Option<u64>,
    /// Degrade one data channel: `(channel, factor)` multiplies the
    /// simulated transfer time of every unit on that channel by `factor`
    /// (≥ 1), stressing deadlines without changing a single counter.
    /// Channel indices are data-channel indices, i.e. `0..D`.
    pub degraded_channel: Option<(usize, f64)>,
}

impl FaultPlan {
    /// The identity plan: no faults of any taxon. Base for the named
    /// constructors and for struct-update spelling at call sites that want
    /// to set only a few fields.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            fault_rate: 0.0,
            max_consecutive: 0,
            permanent_rate: 0.0,
            reads_only: false,
            crash: None,
            persistent_rate: 0.0,
            disk_budget_pages: None,
            degraded_channel: None,
        }
    }

    /// A plan whose every fault is cured within the default
    /// [`crate::RetryPolicy`] budget: any join must produce output identical
    /// to the fault-free run, just at a higher simulated-time cost.
    pub fn recoverable(seed: u64) -> Self {
        FaultPlan {
            fault_rate: 0.05,
            max_consecutive: 2,
            ..FaultPlan::none(seed)
        }
    }

    /// A plan whose faulty identities outlast one retry budget (with the
    /// default policy of 4 attempts) but succeed on a later re-issue —
    /// exercising the partition-requeue and degradation paths.
    pub fn degraded(seed: u64) -> Self {
        FaultPlan {
            fault_rate: 0.02,
            max_consecutive: 6,
            reads_only: true,
            ..FaultPlan::none(seed)
        }
    }

    /// A plan under which **every** request fails forever: joins that touch
    /// the disk must surface a typed error (never panic or hang).
    pub fn unrecoverable(seed: u64) -> Self {
        FaultPlan {
            fault_rate: 1.0,
            max_consecutive: 1,
            permanent_rate: 1.0,
            ..FaultPlan::none(seed)
        }
    }

    /// A plan that injects **no** per-request faults but kills the run at
    /// `point` — the crash-recovery sweep's workhorse.
    pub fn crash_only(seed: u64, point: CrashPoint) -> Self {
        FaultPlan {
            crash: Some(point),
            ..FaultPlan::none(seed)
        }
    }

    /// A plan with **persistent media damage only**: a seeded fraction of
    /// (channel, page) sectors on tagged data files fail every read. Joins
    /// must either quarantine-recompute to the exact clean result or surface
    /// a typed error — a retry alone can never cure these.
    pub fn persistent(seed: u64) -> Self {
        FaultPlan {
            persistent_rate: 0.05,
            ..FaultPlan::none(seed)
        }
    }

    /// Sets the persistent bad-sector rate on an existing plan.
    pub fn with_persistent_rate(mut self, rate: f64) -> Self {
        self.persistent_rate = rate;
        self
    }

    /// Caps the simulated volume at `pages` pages (ENOSPC past it).
    pub fn with_disk_budget(mut self, pages: u64) -> Self {
        self.disk_budget_pages = Some(pages);
        self
    }

    /// Multiplies the transfer time of data channel `channel` by `factor`.
    pub fn with_degraded_channel(mut self, channel: usize, factor: f64) -> Self {
        self.degraded_channel = Some((channel, factor.max(1.0)));
        self
    }

    /// Whether the page at index `page` of a file tagged with channel
    /// `channel_tag` is a damaged sector. A pure function of
    /// `(seed, channel_tag, page)` — independent of the request identity, so
    /// any read overlapping the page fails identically at every buffer size
    /// and thread count.
    #[inline]
    pub fn bad_page(&self, channel_tag: u64, page: u64) -> bool {
        if self.persistent_rate <= 0.0 {
            return false;
        }
        let h = mix(mix(mix(self.seed ^ 0xBAD_5EC7) ^ channel_tag.rotate_left(17)) ^ page);
        unit(h) < self.persistent_rate
    }

    /// Salt identifying a request, stable across processes and thread
    /// counts. Also used to derive deterministic backoff jitter.
    #[inline]
    pub fn identity_salt(&self, op: IoOp, offset: u64, len: u64) -> u64 {
        let mut h = mix(self.seed ^ op.tag());
        h = mix(h ^ offset);
        mix(h ^ len.rotate_left(32))
    }

    /// The fate of an identity: `None` if it never fails, otherwise
    /// `(fail_count, kind)` where the first `fail_count` attempts fail
    /// (`u32::MAX` means all of them do).
    pub fn fate(&self, op: IoOp, offset: u64, len: u64) -> Option<(u32, IoErrorKind)> {
        if self.fault_rate <= 0.0 || (self.reads_only && op == IoOp::Write) {
            return None;
        }
        let salt = self.identity_salt(op, offset, len);
        if unit(salt) >= self.fault_rate {
            return None;
        }
        let h2 = mix(salt);
        let kind = match (op, h2 & 1 == 0) {
            (IoOp::Read, true) => IoErrorKind::TransientRead,
            (IoOp::Read, false) => IoErrorKind::ChecksumMismatch,
            (IoOp::Write, true) => IoErrorKind::TransientWrite,
            (IoOp::Write, false) => IoErrorKind::TornWrite,
        };
        let h3 = mix(h2);
        if unit(h3) < self.permanent_rate {
            return Some((PERMANENT, kind));
        }
        let span = self.max_consecutive.max(1) as u64;
        let count = 1 + (mix(h3 ^ 0x5EED) % span) as u32;
        Some((count, kind))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn fate_is_a_pure_function_of_identity() {
        let p = FaultPlan::recoverable(42);
        for off in [0u64, 8192, 123_456] {
            for len in [1u64, 4096, 65_536] {
                assert_eq!(p.fate(IoOp::Read, off, len), p.fate(IoOp::Read, off, len));
                assert_eq!(p.fate(IoOp::Write, off, len), p.fate(IoOp::Write, off, len));
            }
        }
    }

    #[test]
    fn recoverable_plan_hits_roughly_its_rate() {
        let p = FaultPlan::recoverable(7);
        let n = 10_000u64;
        let faulty = (0..n)
            .filter(|&i| p.fate(IoOp::Read, i * 4096, 4096).is_some())
            .count();
        // 5% ± generous slack.
        assert!((200..=800).contains(&faulty), "faulty = {faulty}");
        for i in 0..n {
            if let Some((count, kind)) = p.fate(IoOp::Write, i * 512, 512) {
                assert!((1..=2).contains(&count));
                assert!(kind.is_transient());
            }
        }
    }

    #[test]
    fn unrecoverable_plan_fails_everything_forever() {
        let p = FaultPlan::unrecoverable(3);
        for i in 0..100u64 {
            let (count, _) = p.fate(IoOp::Read, i * 64, 64).expect("must be faulty");
            assert_eq!(count, PERMANENT);
        }
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let a = FaultPlan::recoverable(1);
        let b = FaultPlan::recoverable(2);
        let differs = (0..1000u64)
            .any(|i| a.fate(IoOp::Read, i * 4096, 4096) != b.fate(IoOp::Read, i * 4096, 4096));
        assert!(differs);
    }

    #[test]
    fn error_display_mentions_kind_and_location() {
        let d = crate::SimDisk::with_default_model();
        let f = d.create();
        let e = IoError {
            kind: IoErrorKind::FileDeleted,
            file: f,
            offset: 0,
            len: 16,
            attempts: 1,
        };
        let s = e.to_string();
        assert!(s.contains("file was deleted"), "{s}");
        let j = JoinError::in_partition("join", 3, e);
        let s = j.to_string();
        assert!(s.contains("phase `join`") && s.contains("partition 3"), "{s}");
    }

    #[test]
    fn crash_point_spec_round_trips() {
        for p in [
            CrashPoint::AfterCommit(1),
            CrashPoint::AfterCommit(17),
            CrashPoint::MidPartition(2),
            CrashPoint::MidRename,
        ] {
            assert_eq!(CrashPoint::from_spec(&p.spec()), Some(p));
        }
        assert_eq!(CrashPoint::from_spec("mid-rename:3"), None);
        assert_eq!(CrashPoint::from_spec("after-commit"), None);
        assert_eq!(CrashPoint::from_spec("after-commit:x"), None);
        assert_eq!(CrashPoint::from_spec("bogus:1"), None);
    }

    #[test]
    fn requeue_exhausted_names_the_partition_and_last_error() {
        let d = crate::SimDisk::with_default_model();
        let f = d.create();
        let last = IoError {
            kind: IoErrorKind::TransientRead,
            file: f,
            offset: 8192,
            len: 4096,
            attempts: 4,
        };
        let j = JoinError::requeue_exhausted("join", 7, 2, last);
        assert_eq!(j.partition, Some(7));
        let s = j.to_string();
        assert!(
            s.contains("partition 7") && s.contains("2 attempts") && s.contains("transient read"),
            "{s}"
        );
        assert_eq!(j.io(), Some(&last));
    }

    #[test]
    fn interruption_kinds_are_resumable_and_io_kinds_are_not() {
        let io = IoError::unsupported();
        assert!(!JoinError::new("join", io).is_resumable());
        assert!(!JoinError::requeue_exhausted("join", 0, 1, io).is_resumable());
        let of = |kind| JoinError::of("join", kind);
        assert!(of(JoinErrorKind::Cancelled).is_resumable());
        assert!(of(JoinErrorKind::DeadlineExceeded { elapsed: 2.0, deadline: 1.0 }).is_resumable());
        assert!(of(JoinErrorKind::Crashed(CrashPoint::MidRename)).is_resumable());
        assert!(of(JoinErrorKind::Cancelled).io().is_none());
        let refused = of(JoinErrorKind::ResumeRefused(ResumeRefusal::Unreadable));
        assert!(!refused.is_resumable() && refused.io().is_none());
    }

    #[test]
    fn persistent_kinds_are_neither_transient_nor_retryable() {
        for k in [IoErrorKind::PersistentCorruption, IoErrorKind::DiskFull] {
            assert!(k.is_persistent());
            assert!(!k.is_transient());
            assert!(!k.describe().is_empty());
        }
        for k in [
            IoErrorKind::TransientRead,
            IoErrorKind::TransientWrite,
            IoErrorKind::TornWrite,
            IoErrorKind::ChecksumMismatch,
            IoErrorKind::FileDeleted,
            IoErrorKind::OutOfBounds,
            IoErrorKind::Unsupported,
        ] {
            assert!(!k.is_persistent());
        }
    }

    #[test]
    fn bad_page_is_pure_and_hits_roughly_its_rate() {
        let p = FaultPlan::persistent(11);
        let n = 10_000u64;
        let bad = (0..n).filter(|&pg| p.bad_page(3, pg)).count();
        // 5% ± generous slack.
        assert!((200..=800).contains(&bad), "bad = {bad}");
        for pg in 0..64u64 {
            assert_eq!(p.bad_page(3, pg), p.bad_page(3, pg));
        }
        // Different tags damage different sectors.
        let differs = (0..1000u64).any(|pg| p.bad_page(0, pg) != p.bad_page(1, pg));
        assert!(differs);
        // The base plans keep the disk's platters pristine.
        assert!((0..1000u64).all(|pg| !FaultPlan::recoverable(11).bad_page(0, pg)));
    }

    #[test]
    fn persistent_plan_injects_no_identity_faults() {
        let p = FaultPlan::persistent(5);
        for i in 0..1000u64 {
            assert_eq!(p.fate(IoOp::Read, i * 4096, 4096), None);
            assert_eq!(p.fate(IoOp::Write, i * 4096, 4096), None);
        }
    }

    #[test]
    fn plan_builders_compose() {
        let p = FaultPlan::none(9)
            .with_persistent_rate(0.25)
            .with_disk_budget(128)
            .with_degraded_channel(2, 4.0);
        assert_eq!(p.persistent_rate, 0.25);
        assert_eq!(p.disk_budget_pages, Some(128));
        assert_eq!(p.degraded_channel, Some((2, 4.0)));
        // Sub-1.0 slowdown factors clamp to the identity.
        assert_eq!(
            FaultPlan::none(9).with_degraded_channel(0, 0.5).degraded_channel,
            Some((0, 1.0))
        );
    }

    #[test]
    fn crash_only_plan_injects_no_request_faults() {
        let p = FaultPlan::crash_only(9, CrashPoint::AfterCommit(3));
        for i in 0..1000u64 {
            assert_eq!(p.fate(IoOp::Read, i * 4096, 4096), None);
            assert_eq!(p.fate(IoOp::Write, i * 4096, 4096), None);
        }
        assert_eq!(p.crash, Some(CrashPoint::AfterCommit(3)));
    }
}
