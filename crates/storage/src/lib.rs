//! Out-of-core storage substrate with an explicit I/O cost model.
//!
//! The paper's I/O model (§2): data moves between main memory and secondary
//! storage in fixed-size pages; a request for `n` contiguous pages costs
//! `PT + n` *page-transfer units*, where `PT` is the ratio of disk-arm
//! positioning time to page-transfer time. The original experiments ran on a
//! 1999 SPARCstation with direct I/O so that the OS buffer cache could not
//! hide this cost. On modern hardware raw I/O would be essentially free and
//! the I/O-bound shapes of Figures 3a/5/11/14 would vanish, so this crate
//! *simulates* the disk: it stores file contents in memory, runs the real
//! out-of-core algorithms against real (simulated) files, counts every
//! request, and converts the counts into seconds with configurable 1999-era
//! disk constants.
//!
//! Components:
//!
//! * [`DiskModel`] — page size, `PT`, per-page transfer time,
//! * [`SimDisk`] — the disk: create/delete/append/read files, [`IoStats`],
//! * [`FileWriter`] / [`FileReader`] — buffered sequential byte streams with
//!   multi-page requests (larger buffers ⇒ fewer positioning penalties),
//! * [`RecordWriter`] / [`RecordReader`] — typed fixed-length record streams
//!   ([`FixedRecord`]); [`Fanout`] — one writer per target of a
//!   partitioning pass, its files created together and kept or deleted
//!   together,
//! * [`checksum64`] / [`fnv1a`] / [`fingerprint`] — the in-memory page
//!   checksum, the record checksum and the run fingerprint (`checksum.rs`),
//! * [`external_sort_by`] — memory-budgeted run formation + multiway merge
//!   on an integer key, the building block of PBSM's original
//!   duplicate-removal phase, of S³J's level-file sorting phase and of
//!   SSSJ's sort; [`radix_sorted`] gathers a slice in the order its run
//!   formation writes, and [`SortPlan`] is its buffer split, run length and
//!   fan-in, and their cost.

//!
//! Failure model (PR 2): [`SimDisk::with_faults`] attaches a seeded
//! [`FaultPlan`] — transient read/write errors, torn writes, bit-rot caught
//! by per-page checksums — and a [`RetryPolicy`] that retries failed page
//! requests with exponential backoff *in simulated disk-time units*, every
//! attempt charged to the cost model. Fallible `try_*` twins of every I/O
//! entry point return the typed [`IoError`]; the historic infallible names
//! remain as thin wrappers (they still succeed under recoverable plans,
//! because retries happen at the page-request level underneath them).
//!
//! Durability model (PR 4): the `manifest` layer adds checkpointed
//! runs — an atomic-publish [`Manifest`], an append-only per-partition
//! completion journal with checksummed records, and a recovery scan
//! ([`recover`]) that truncates torn tails and sweeps orphan files — plus
//! [`RunControl`] for cooperative cancellation, simulated-time deadlines and
//! crash-point injection ([`CrashPoint`]).
//!
//! Run lifecycle (PR 13): [`UnitRun`] drives the join units of a checkpointed
//! or plain run — skip, join, commit, emit, probe, log — once for every
//! partitioned join, and [`RunClock`] holds the clock formulae once for every
//! stats struct (see `run.rs`); [`Work`] and [`Schedule`] are its CPU leg,
//! counted work priced per operation (see `work.rs`).

mod arbiter;
mod checksum;
mod disk;
mod fault;
mod file;
pub mod json;
mod manifest;
pub mod metrics;
mod record;
mod retry;
mod run;
mod sort;
mod work;

pub use arbiter::{AdmissionError, ArbiterSnapshot, MemoryArbiter, MemoryLease};
pub use checksum::{checksum64, fingerprint, fnv1a};
pub use disk::{DiskModel, FileId, IoStats, SimDisk};
// Re-exported so downstream crates can build a `RunControl` without a direct
// `parallel` dependency.
pub use parallel::{CancelCause, CancelToken};
pub use fault::{CrashPoint, FaultPlan, IoError, IoErrorKind, IoOp, JoinError, JoinErrorKind};
pub use fault::ResumeRefusal;
pub use manifest::{
    recover, JournalEntry, Manifest, Recovered, RunCheckpoint, RunControl, RunPhase,
};
pub use metrics::{
    MetricsReport, PhaseMetric, ReconcileError, Recorder, RunCounters, TraceEvent, TraceSpan,
    METRICS_SCHEMA_VERSION,
};
pub use file::{FileReader, FileWriter};
pub use json::Json;
pub use record::{
    read_all, try_read_all, try_write_all, write_all, Fanout, FixedRecord, IdPair, RecordReader,
    RecordWriter,
};
pub use retry::RetryPolicy;
pub use run::{ClockPos, Counts, FinishedUnit, RunClock, UnitRun};
pub use sort::{
    external_sort_by, external_sort_slice, radix_sorted, try_external_sort_by,
    try_external_sort_slice, SortPlan, SortStats,
};
pub use work::{Schedule, Work};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, past a panicked holder's poison: every update behind a storage
/// lock is one push, bump or swap that a panic cannot leave half-applied,
/// and one worker's panic must not turn every later request into another.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
