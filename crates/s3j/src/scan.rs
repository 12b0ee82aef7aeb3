use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::time::Instant;

use geom::{reference_point, Kpe, RecordId};
use sfc::{Cell, Curve, MAX_LEVEL};
use storage::{
    try_external_sort_by, ClockPos, Counts, DiskModel, FileId, FixedRecord, IoError, IoStats,
    JoinError, RecordReader, RecordWriter, RunClock, RunControl, RunPhase, SimDisk, SortStats,
    UnitRun, Work,
};
use sweep::{InternalAlgo, InternalJoin, JoinCounters, NestedLoops};

use crate::levels::{LevelFiles, LevelRecord};

/// Join-phase strategy (§4.4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// One synchronized scan over all level files, driven by a heap of file
    /// cursors ordered by pre-order position — empty partitions are never
    /// touched (the paper's implementation, detailed in [Dit 99]).
    #[default]
    HeapMerge,
    /// Ablation baseline: join every pair of level files with its own merge
    /// scan. Re-reads each level file once per opposite level.
    LevelPairs,
}

/// S³J tuning knobs.
#[derive(Clone, Copy)]
pub struct S3jConfig {
    /// Memory budget in bytes (drives external sorting; partitions are
    /// assumed to fit, as in [KS 97]).
    pub mem_bytes: usize,
    /// Finest grid level.
    pub max_level: u8,
    /// `false`: original S³J (covering-cell assignment, no duplicates).
    /// `true`: §4.3 size separation with ≤4-fold replication + online RPM.
    pub replicate: bool,
    /// Levels to coarsen the size-separation assignment by (replicated mode
    /// only). 0 is the literal §4.3 rule (~3× replication on line data);
    /// the default 1 keeps the ≤4-copy bound but halves the per-axis
    /// straddle probability (~1.8× replication) — the paper's second design
    /// choice ("the overall replication rate should be kept sufficiently
    /// low").
    pub level_shift: u8,
    /// Space-filling curve for locational codes (§4.4.2).
    pub curve: Curve,
    /// Internal join algorithm for partition pairs (§4.4.1: nested loops
    /// wins for S³J's tiny partitions).
    pub internal: InternalAlgo,
    pub scan: ScanMode,
    /// Write-buffer pages per level file during partitioning.
    pub level_buffer_pages: usize,
    /// Read-buffer pages per cursor during the join scan.
    pub io_buffer_pages: usize,
    /// Worker threads for the build and sort phases (`0` = every core).
    /// With two or more, R's and S's level files are built, then sorted,
    /// as two lanes at once, each sort under the whole budget
    /// `mem_bytes`; a third thread has nothing to do. The scan runs on the
    /// calling thread. Results, counters and the simulated clock are the
    /// same at every value.
    pub threads: usize,
}

impl S3jConfig {
    /// The lanes a run uses: one per relation when `threads` allows.
    pub fn lanes(&self) -> usize {
        parallel::resolve_threads(self.threads).min(2)
    }
}

/// Every knob but `threads`, which never changes a result: the run
/// fingerprint hashes this form, and a run may resume at another thread
/// count.
impl std::fmt::Debug for S3jConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("S3jConfig")
            .field("mem_bytes", &self.mem_bytes)
            .field("max_level", &self.max_level)
            .field("replicate", &self.replicate)
            .field("level_shift", &self.level_shift)
            .field("curve", &self.curve)
            .field("internal", &self.internal)
            .field("scan", &self.scan)
            .field("level_buffer_pages", &self.level_buffer_pages)
            .field("io_buffer_pages", &self.io_buffer_pages)
            .finish()
    }
}

impl Default for S3jConfig {
    fn default() -> Self {
        S3jConfig {
            mem_bytes: 8 << 20,
            max_level: MAX_LEVEL,
            replicate: true,
            level_shift: 1,
            curve: Curve::Peano,
            internal: InternalAlgo::NestedLoops,
            scan: ScanMode::HeapMerge,
            level_buffer_pages: 1,
            io_buffer_pages: 2,
            threads: 1,
        }
    }
}

/// Everything S³J measured while running.
#[derive(Debug, Clone, Default)]
pub struct S3jStats {
    pub copies_r: u64,
    pub copies_s: u64,
    pub histogram_r: Vec<u64>,
    pub histogram_s: Vec<u64>,
    pub code_computations: u64,
    /// Pairs produced by the internal joins before duplicate handling.
    pub candidates: u64,
    pub results: u64,
    pub duplicates: u64,
    pub join_counters: JoinCounters,
    pub sort_runs: usize,
    pub sort_passes_max: usize,
    pub io_partition: IoStats,
    pub io_sort: IoStats,
    pub io_join: IoStats,
    /// Checkpoint-layer I/O of a durable run (manifest publishes, journal
    /// and results-file appends); zero without a checkpoint.
    pub io_checkpoint: IoStats,
    /// Counted CPU work per phase, the simulated clock's CPU leg.
    pub work_partition: Work,
    pub work_sort: Work,
    pub work_join: Work,
    /// Host CPU seconds per phase (the host clock).
    pub cpu_partition: f64,
    pub cpu_sort: f64,
    pub cpu_join: f64,
    /// Peak bytes of partitions resident during the join scan.
    pub peak_partition_bytes: usize,
    /// Durable per-partition journal commits performed by this run (zero
    /// unless the run is checkpointed).
    pub checkpoint_commits: u64,
    /// Level files abandoned to persistent media damage and recomputed from
    /// the source relation (quarantine-recompute): sort-phase rebuilds that
    /// rewrote a level through a spare file, plus scan-phase cursors that
    /// switched to the in-memory replay. The run completes with the exact
    /// result set either way; this only marks that it ran degraded.
    pub quarantined_levels: u32,
    /// Model, channel decomposition (level `l`'s file and its sort runs ride
    /// channel `l mod D` for both relations) and the first-result position:
    /// the emitting unit's start on the priced clock, and the discovery I/O
    /// up to the emitting partition plus its commit I/O when checkpointed.
    pub clock: RunClock,
}

impl S3jStats {
    pub fn io_total(&self) -> IoStats {
        self.io_partition
            .plus(&self.io_sort)
            .plus(&self.io_join)
            .plus(&self.io_checkpoint)
    }

    /// Host CPU seconds (the host clock).
    pub fn cpu_seconds(&self) -> f64 {
        self.cpu_partition + self.cpu_sort + self.cpu_join
    }

    /// Counted CPU work on the run's critical path.
    pub fn work(&self) -> Work {
        self.work_partition + self.work_sort + self.work_join
    }

    pub fn io_seconds(&self) -> f64 {
        self.clock.model.seconds(&self.io_total())
    }

    /// Priced CPU seconds on the emulated 1999 machine.
    pub fn scaled_cpu_seconds(&self) -> f64 {
        self.clock.model.priced_cpu(&self.work())
    }

    /// The paper's "total runtime" on the multi-channel clock
    /// ([`RunClock::total_seconds`]), whose prefetch credit is a formula
    /// of the channel model: the synchronized scan reads level files on
    /// several channels while it joins in-memory partitions, and no stage
    /// of the code has to read ahead for the credit.
    pub fn total_seconds(&self) -> f64 {
        self.clock.total_seconds(&self.work())
    }

    pub fn replication_rate(&self, input_len: usize) -> f64 {
        (self.copies_r + self.copies_s) as f64 / input_len.max(1) as f64
    }

    fn new(model: DiskModel) -> S3jStats {
        S3jStats {
            clock: RunClock::new(model),
            ..S3jStats::default()
        }
    }

    fn add_counts(&mut self, (candidates, results, duplicates): Counts) {
        self.candidates += candidates;
        self.results += results;
        self.duplicates += duplicates;
    }
}

/// A loaded partition: one cell's rectangles from one relation, held as the
/// range `lo..hi` of that relation's arena (the records of the partitions on
/// the current root path, in path order).
#[derive(Clone, Copy)]
struct Part {
    level: u8,
    /// Pre-order range of the cell on the `max_level` grid.
    start: u64,
    end: u64,
    lo: usize,
    hi: usize,
}

impl Part {
    /// The cell, decoded from the pre-order range: only a partition that
    /// joins needs it, so one that never does costs no decode.
    fn cell(&self, curve: Curve) -> Cell {
        let shift = (self.end - self.start).trailing_zeros();
        Cell::from_code(self.level, self.start >> shift, curve)
    }
}

/// What a level-file cursor falls back to when its sorted file turns out to
/// sit on persistently damaged media: the source relation plus the build
/// parameters needed to recompute the level's records in memory
/// ([`crate::levels::rebuild_level_sorted`]).
#[derive(Clone, Copy)]
struct LevelSource<'a> {
    data: &'a [Kpe],
    max_level: u8,
    curve: Curve,
    replicate: bool,
    level_shift: u8,
}

impl<'a> LevelSource<'a> {
    fn for_rel(cfg: &S3jConfig, r: &'a [Kpe], s: &'a [Kpe], rel: usize) -> LevelSource<'a> {
        LevelSource {
            data: if rel == 0 { r } else { s },
            max_level: cfg.max_level,
            curve: cfg.curve,
            replicate: cfg.replicate,
            level_shift: cfg.level_shift,
        }
    }

    fn rebuild(&self, level: u8) -> Vec<LevelRecord> {
        crate::levels::rebuild_level_sorted(
            self.data,
            level,
            self.max_level,
            self.curve,
            self.replicate,
            self.level_shift,
        )
    }
}

/// Where a [`Cursor`] draws its records from: the sorted level file, or —
/// after a persistent read failure quarantined that file — the in-memory
/// replay of the level, already positioned past every fully-consumed
/// partition.
enum CursorSrc {
    Disk(RecordReader<LevelRecord>),
    Memory(std::vec::IntoIter<LevelRecord>),
}

/// Cursor over one sorted level file that yields whole partitions.
struct Cursor<'a> {
    src: CursorSrc,
    level: u8,
    rel: usize,
    pending: Option<LevelRecord>,
    source: LevelSource<'a>,
    /// Set once this cursor abandoned its damaged file for the replay.
    quarantined: bool,
}

impl<'a> Cursor<'a> {
    fn new(
        disk: &SimDisk,
        file: FileId,
        level: u8,
        rel: usize,
        buffer_pages: usize,
        source: LevelSource<'a>,
    ) -> Result<Self, IoError> {
        let mut reader = RecordReader::new(disk, file, buffer_pages);
        match reader.try_next() {
            Ok(pending) => Ok(Cursor {
                src: CursorSrc::Disk(reader),
                level,
                rel,
                pending,
                source,
                quarantined: false,
            }),
            Err(e) if e.kind.is_persistent() => {
                // The very first page is damaged: no partition was consumed
                // yet, so the replay starts from the beginning.
                let mut c = Cursor {
                    src: CursorSrc::Memory(Vec::new().into_iter()),
                    level,
                    rel,
                    pending: None,
                    source,
                    quarantined: false,
                };
                c.quarantine(None);
                Ok(c)
            }
            Err(e) => Err(e),
        }
    }

    /// Abandons the damaged level file: recomputes the level from the source
    /// relation (free of charge, paper §2 — the inputs stay readable),
    /// sorted by code, and repositions at `resume_code`'s partition (or the
    /// start when the first read failed). Every earlier partition was fully
    /// consumed and already joined; the in-flight one restarts from its
    /// first record — nothing is lost or double-joined.
    fn quarantine(&mut self, resume_code: Option<u64>) {
        let mut it = self.source.rebuild(self.level).into_iter();
        let mut pending = it.next();
        if let Some(c) = resume_code {
            while pending.as_ref().is_some_and(|r| r.code < c) {
                pending = it.next();
            }
        }
        self.pending = pending;
        self.src = CursorSrc::Memory(it);
        self.quarantined = true;
    }

    fn next_record(&mut self) -> Result<Option<LevelRecord>, IoError> {
        match &mut self.src {
            CursorSrc::Disk(r) => r.try_next(),
            CursorSrc::Memory(it) => Ok(it.next()),
        }
    }

    /// Heap key of the next partition: its pre-order start, then level,
    /// relation and cursor index `ci` packed into one word (in that order
    /// of significance), so the heap compares two integers.
    fn peek_key(&self, max_level: u8, ci: usize) -> Option<(u64, u32)> {
        self.pending.as_ref().map(|r| {
            let shift = 2 * (max_level - self.level) as u32;
            let tie = u32::from(self.level) << 16 | (self.rel as u32) << 8 | ci as u32;
            (r.code << shift, tie)
        })
    }

    /// Appends the records of the partition whose first record is `first`
    /// to `arena`.
    fn collect(&mut self, first: LevelRecord, arena: &mut Vec<Kpe>) -> Result<(), IoError> {
        arena.push(first.kpe);
        loop {
            match self.next_record()? {
                Some(r) if r.code == first.code => arena.push(r.kpe),
                other => {
                    self.pending = other;
                    return Ok(());
                }
            }
        }
    }

    /// Appends all records of the next cell to `arena`. A transient error
    /// that exhausted the retry budget is terminal (the partition in flight
    /// is lost); persistent damage quarantines the file instead, and the
    /// partition is truncated off the arena and re-collected from the
    /// in-memory replay.
    fn take_partition(&mut self, arena: &mut Vec<Kpe>, max_level: u8) -> Result<Part, IoError> {
        // Invariant: only called after `peek_key` returned `Some`, so a
        // pending record exists.
        let first = self.pending.take().expect("cursor exhausted");
        let (code, lo) = (first.code, arena.len());
        match self.collect(first, arena) {
            Ok(()) => {}
            Err(e) if e.kind.is_persistent() => {
                // Re-reads of a damaged page fail identically, so retrying
                // the file is pointless: switch to the replay and restart
                // the in-flight partition from its first record (the
                // partially collected rects were never joined or emitted).
                arena.truncate(lo);
                self.quarantine(Some(code));
                let first = self
                    .pending
                    .take()
                    .expect("rebuilt level lost the in-flight partition");
                debug_assert_eq!(first.code, code, "replay resumed at the wrong partition");
                self.collect(first, arena)?;
            }
            Err(e) => return Err(e),
        }
        let shift = 2 * (max_level - self.level) as u32;
        let start = code << shift;
        let (level, end, hi) = (self.level, start + (1u64 << shift), arena.len());
        Ok(Part { level, start, end, lo, hi })
    }
}

/// The internal join: nested loops — the default, and what S³J's tiny
/// partitions want — called statically; any other algorithm through its
/// trait object.
enum Kernel {
    Nested(NestedLoops),
    Other(Box<dyn InternalJoin + Send>),
}

struct JoinCtx<'a> {
    cfg: &'a S3jConfig,
    kernel: Kernel,
    counts: Counts,
    /// The work of this context's joins when [`JoinCtx::unit_work`] last ran.
    priced: Work,
}

impl<'a> JoinCtx<'a> {
    fn new(cfg: &'a S3jConfig) -> Self {
        let kernel = match cfg.internal {
            InternalAlgo::NestedLoops => Kernel::Nested(NestedLoops::new()),
            other => Kernel::Other(other.create()),
        };
        JoinCtx { cfg, kernel, counts: (0, 0, 0), priced: Work::ZERO }
    }

    /// Joins the partition `deeper` of relation `rel` (the one with the
    /// finer or equal cell) with `other` of the opposite relation. `rpm` is
    /// the deeper cell when replicating: the modified RPM (§4.3) then
    /// reports a pair only if its reference point lies in that cell.
    fn join_parts(
        &mut self,
        rel: usize,
        rpm: Option<Cell>,
        deeper: &mut [Kpe],
        other: &mut [Kpe],
        out: &mut dyn FnMut(RecordId, RecordId),
    ) {
        let (mut candidates, mut results) = (0u64, 0u64);
        // Orientation: the kernel and `out` take (r, s).
        let (r, s) = if rel == 0 { (deeper, other) } else { (other, deeper) };
        let mut emit = |a: &Kpe, b: &Kpe| {
            candidates += 1;
            if rpm.is_none_or(|cell| cell.contains_point(reference_point(&a.rect, &b.rect))) {
                results += 1;
                out(a.id, b.id);
            }
        };
        match &mut self.kernel {
            Kernel::Nested(k) => k.join_with(r, s, &mut emit),
            Kernel::Other(k) => k.join(r, s, &mut emit),
        }
        self.counts.0 += candidates;
        self.counts.1 += results;
        self.counts.2 += candidates - results;
    }

    fn counters(&self) -> JoinCounters {
        match &self.kernel {
            Kernel::Nested(k) => k.counters(),
            Kernel::Other(k) => k.counters(),
        }
    }

    /// The counted work of this context's joins since the last call.
    fn unit_work(&mut self) -> Work {
        let done = self.cfg.internal.work(&self.counters());
        let unit = done - self.priced;
        self.priced = done;
        unit
    }

    /// Folds the scan's context into the run's stats.
    fn fold_into(self, stats: &mut S3jStats) {
        let (candidates, results, duplicates) = self.counts;
        // Every candidate was either reported or suppressed by the modified
        // reference-point test (duplicates are 0 in the unreplicated
        // original).
        debug_assert_eq!(candidates, results + duplicates, "S3J accounting broken");
        stats.add_counts(self.counts);
        stats.join_counters.merge(&self.counters());
    }
}

/// Runs S³J on `r ⋈ s`, invoking `out` for every result pair.
///
/// Infallible wrapper over [`try_s3j_join_ctl`] without run control; panics
/// with the typed error's message if a request exhausts the disk's retry
/// budget (impossible on a fault-free disk).
pub fn s3j_join(
    disk: &SimDisk,
    r: &[Kpe],
    s: &[Kpe],
    cfg: &S3jConfig,
    out: &mut dyn FnMut(RecordId, RecordId),
) -> S3jStats {
    try_s3j_join_ctl(disk, r, s, cfg, &RunControl::none(), out)
        .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
}

/// Level-file lists travel through the run manifest as flat [`FileId`]
/// vectors indexed by level; empty levels are encoded as this sentinel raw
/// id (never a real file — deleting or keeping it is a no-op on `SimDisk`).
const EMPTY_LEVEL: u32 = u32::MAX;

fn pack_levels(files: &[Option<FileId>]) -> Vec<FileId> {
    files
        .iter()
        .map(|f| f.unwrap_or(FileId::from_raw(EMPTY_LEVEL)))
        .collect()
}

fn unpack_levels(files: &[FileId]) -> Vec<Option<FileId>> {
    files
        .iter()
        .map(|&f| (f.raw() != EMPTY_LEVEL).then_some(f))
        .collect()
}

/// Sort-phase quarantine-recompute: `damaged` (an unsorted level file on
/// persistently bad media, or one whose sort ran out of disk) is abandoned;
/// the level's records are recomputed from the source relation (free, paper
/// §2), sorted in memory, and written through a **spare** file on the same
/// channel — the analogue of remapping damaged sectors — which the fault
/// model never damages. Level `l` rides channel tag `l`, as the build placed
/// it, so the spare finds its channel even when the sort already freed
/// `damaged`; page charges for the rewrite are real, only the doomed
/// re-sort is skipped. On a write failure the spare is deleted and the
/// error surfaces.
fn rebuild_sorted_to_spare(
    disk: &SimDisk,
    damaged: FileId,
    reclaim: bool,
    level: u8,
    src: LevelSource<'_>,
    buffer_pages: usize,
) -> Result<FileId, IoError> {
    let recs = src.rebuild(level);
    let spare = disk.create_spare_on(u64::from(level));
    if reclaim {
        disk.delete(damaged);
    }
    let mut w = RecordWriter::new(disk, spare, buffer_pages);
    let res = w.try_push_all(&recs).and_then(|()| w.try_finish());
    if res.is_err() {
        disk.delete(spare);
    }
    res
}

/// Runs `lane` for R (`0`) and S (`1`) and hands each outcome to `settle`
/// on the calling thread, R's first. At two lanes both run at once on the
/// ordered pool; at one they run here, one after the other, without a
/// worker thread, whose allocator arena would hold a second copy of the
/// phase's heap.
fn two_lanes<T: Send>(cfg: &S3jConfig, lane: impl Fn(usize) -> T + Sync, mut settle: impl FnMut(usize, T)) {
    if cfg.lanes() < 2 {
        (0..2).for_each(|rel| settle(rel, lane(rel)));
    } else {
        parallel::run_ordered(2, 2, |_| (), |(), rel| lane(rel), settle);
    }
}

/// One level file through the sort phase: its record count (the priced
/// clock's `sorted`), the I/O of its sort, and the outcome — the sorted
/// file with its run counts, or a spare rebuilt after persistent damage
/// (`None`).
struct LevelSort {
    records: u64,
    io: Vec<IoStats>,
    outcome: Result<(FileId, Option<SortStats>), IoError>,
}

/// One relation's sort lane: its level files in level order, each sorted
/// under the whole budget on a fresh meter of `disk`. A level that fails
/// ends the lane, as it ends a sequential sort phase.
fn sort_lane(
    disk: &SimDisk,
    files: &[Option<FileId>],
    src: LevelSource<'_>,
    cfg: &S3jConfig,
    checkpointing: bool,
) -> Vec<Option<LevelSort>> {
    let mut failed = false;
    files
        .iter()
        .enumerate()
        .map(|(level, f)| {
            let f = f.filter(|_| !failed)?;
            let meter = disk.fork_counters();
            let records = meter.try_len(f).unwrap_or(0) / LevelRecord::SIZE as u64;
            // Without a checkpoint nothing reads the unsorted file again:
            // the sort frees it once its runs are formed.
            let sorted = try_external_sort_by::<LevelRecord, _, _>(
                &meter,
                f,
                cfg.mem_bytes,
                |r| r.code,
                !checkpointing,
            );
            let outcome = match sorted {
                Ok((sorted, st)) => Ok((sorted, Some(st))),
                // Persistent damage (or ENOSPC in the sort's scratch): the
                // external sort can never finish this file. Quarantine it
                // and rewrite the level, recomputed from source and sorted
                // in memory, through a spare file on the same channel — the
                // remapped-sector analogue — exempt from further damage.
                // Reclaiming the doomed unsorted file also frees its
                // budget, so the direct rewrite can fit where sort scratch
                // could not (a durable run keeps it: its manifest is what a
                // resume re-sorts from).
                Err(e) if e.kind.is_persistent() => {
                    let pages = cfg.level_buffer_pages;
                    rebuild_sorted_to_spare(&meter, f, !checkpointing, level as u8, src, pages)
                        .map(|spare| (spare, None))
                }
                Err(e) => Err(e),
            };
            failed = outcome.is_err();
            Some(LevelSort { records, io: meter.channel_stats(), outcome })
        })
        .collect()
}

/// Runs S³J on `r ⋈ s`, invoking `out` for every result pair.
///
/// Reading the inputs and delivering the output are free of charge (paper
/// §2); level files, sort runs and the join scan are fully accounted on
/// `disk`.
///
/// Failure semantics: every page request already retried under the disk's
/// [`storage::RetryPolicy`]; an error reaching this layer is terminal and
/// surfaces as a typed [`JoinError`] naming the phase (`"build"`, `"sort"`,
/// `"scan"`), after all intermediate files have been deleted.
///
/// With `cfg.threads ≥ 2` R's and S's level files are built, and then
/// sorted, as two lanes at once on the ordered pool; their I/O, counted
/// work and run-control charges are settled on the calling thread in the
/// sequential order, so results, counters, simulated times and the stop
/// outcome of a deadline or a cancellation are those of one thread. The
/// scan runs on the calling thread at every thread count: an S³J cell
/// holds a couple of records, far too little work to pay for handing a
/// partition pair to another thread.
///
/// Run control (`ctl`): cooperative cancellation, a simulated-time deadline
/// (both checked per level file in the build/sort phases and per discovered
/// partition in the scan), and — when [`RunControl::checkpoint`] is set —
/// durable per-partition commits with exactly-once resume;
/// [`RunControl::none`] changes nothing.
///
/// The journal's work unit is the *discovered partition*: the synchronized
/// scan pops partitions off the cursor heap in a deterministic pre-order,
/// so numbering them in discovery order is stable across runs. Each
/// candidate pair arises in exactly one discovery event (the deeper
/// partition joining the other relation's root path), and the modified RPM
/// (§4.3) reports a pair only in its reference-point cell, so skipping
/// journal-committed partitions on resume is duplicate-free — for the
/// original unreplicated S³J trivially so, since no pair is ever seen
/// twice. The ablation [`ScanMode::LevelPairs`] re-reads level files
/// pair-by-pair and has no such unit; checkpointing it is refused with a
/// typed `Unsupported` error.
///
/// The durable run is three manifests deep: a `Partition` manifest after
/// the build (a crash mid-sort resumes from the intact unsorted level
/// files), a `Join` manifest after the sort (journal + results + sorted
/// files; per-partition commits are durable from here), and `Done` at the
/// end.
pub fn try_s3j_join_ctl(
    disk: &SimDisk,
    r: &[Kpe],
    s: &[Kpe],
    cfg: &S3jConfig,
    ctl: &RunControl,
    out: &mut dyn FnMut(RecordId, RecordId),
) -> Result<S3jStats, JoinError> {
    let mut run = UnitRun::begin(ctl, disk);
    let checkpointing = run.checkpointing();
    if checkpointing && !matches!(cfg.scan, ScanMode::HeapMerge) {
        return Err(JoinError::new("setup", IoError::unsupported()));
    }
    let model = disk.model();
    let mut stats = S3jStats::new(model);

    if let Some(done) = run.finished() {
        stats.add_counts(done);
        return Ok(stats);
    }
    // A published manifest's level-file lists: unsorted when the run died
    // in the sort phase, sorted once the `Join` manifest was out. A freshly
    // started checkpoint is also in `Partition` phase but has no files yet.
    let manifest_levels = {
        let (fr, fs) = run.files();
        (!(fr.is_empty() && fs.is_empty())).then(|| (unpack_levels(fr), unpack_levels(fs)))
    };
    let resume_join = run.phase() == Some(RunPhase::Join);
    let resume_build = run.phase() == Some(RunPhase::Partition) && manifest_levels.is_some();

    // --- Phase 1: partitioning into level files -----------------------------
    let t0 = Instant::now();
    let io0 = disk.stats();
    let (unsorted_r, unsorted_s) = if resume_join {
        (Vec::new(), Vec::new()) // build *and* sort already durable
    } else if resume_build {
        // The unsorted level files survived the crash intact: skip the
        // build, redo the sort.
        manifest_levels.clone().unwrap_or_default()
    } else {
        let charge =
            |done: &Work| ctl.charge("build", || disk.io_seconds() + model.priced_cpu(done));
        if let Some(e) = charge(&Work::default()) {
            return Err(e);
        }
        // R's and S's level files are built as two lanes, each on its own
        // meter. Each outcome is settled on this thread in relation order:
        // its I/O joins the disk's meter, then the clock is charged, so
        // every charge sees what a sequential build had done by then.
        let mut built: Vec<LevelFiles> = Vec::with_capacity(2);
        let mut err: Option<JoinError> = None;
        two_lanes(
            cfg,
            |rel| {
                let meter = disk.fork_counters();
                let (shift, pages) = (cfg.level_shift, cfg.level_buffer_pages);
                let data = [r, s][rel];
                let lf = LevelFiles::try_build(&meter, data, cfg.max_level, cfg.curve, cfg.replicate, shift, pages);
                (lf, meter.channel_stats())
            },
            |rel, (lf, io)| match lf {
                Ok(lf) if err.is_some() => lf.delete(disk),
                Ok(lf) => {
                    disk.add_channel_stats(&io);
                    // Each record is assigned its level(s); each copy is
                    // coded, written.
                    stats.work_partition += Work {
                        assigned: [r, s][rel].len() as u64,
                        copies: lf.copies,
                        codes: lf.code_computations,
                        ..Work::default()
                    };
                    err = charge(&stats.work_partition);
                    built.push(lf);
                }
                Err(e) if err.is_none() => {
                    disk.add_channel_stats(&io);
                    err = Some(JoinError::new("build", e));
                }
                Err(_) => {}
            },
        );
        if let Some(e) = err {
            built.iter().for_each(|lf| lf.delete(disk));
            return Err(e);
        }
        let [lf_r, lf_s]: [LevelFiles; 2] = match built.try_into() {
            Ok(both) => both,
            Err(_) => unreachable!("a build without an error settles both lanes"),
        };
        stats.copies_r = lf_r.copies;
        stats.copies_s = lf_s.copies;
        stats.histogram_r = lf_r.histogram;
        stats.histogram_s = lf_s.histogram;
        stats.code_computations = lf_r.code_computations + lf_s.code_computations;
        (lf_r.files, lf_s.files)
    };
    stats.io_partition = disk.stats().delta(&io0);
    stats.cpu_partition = t0.elapsed().as_secs_f64();
    ctl.span(
        "build",
        model.at(&Work::default(), &io0),
        model.at(&stats.work_partition, &disk.stats()),
    );
    // Durable build: after this publish, a crash or deadline during the
    // sort phase resumes from the intact unsorted level files instead of
    // re-partitioning.
    if !(resume_join || resume_build) {
        run.publish(|c| {
            c.commit_partition_phase(&pack_levels(&unsorted_r), &pack_levels(&unsorted_s))
        })?;
    }

    // --- Phase 2: sort every level file by locational code ------------------
    let t1 = Instant::now();
    let io1 = disk.stats();
    // The priced clock: every level record goes through a sort.
    let clock = std::cell::Cell::new(stats.work_partition);
    let (sorted_r, sorted_s) = if resume_join {
        manifest_levels.unwrap_or_default()
    } else {
        // Each relation's level files are sorted in one lane, every level
        // on its own meter. Settling replays the sequential run on this
        // thread, level by level in relation order: charge the clock, count
        // the level's records, fold its I/O, take its outcome. A sort
        // failure (or interruption) is latched: later levels are dropped,
        // and every sorted file is cleaned up before the error surfaces.
        // Without a checkpoint each unsorted file is freed by its sort; a
        // durable run keeps them until the `Join` manifest — which
        // references the sorted files instead — is published, so an
        // interrupted sort phase stays resumable.
        let elapsed = || disk.io_seconds() + model.priced_cpu(&clock.get());
        let mut sort_err: Option<JoinError> = None;
        let mut sorted: [Vec<Option<FileId>>; 2] = [Vec::new(), Vec::new()];
        let unsorted = [&unsorted_r, &unsorted_s];
        two_lanes(
            cfg,
            |rel| {
                let src = LevelSource::for_rel(cfg, r, s, rel);
                sort_lane(disk, unsorted[rel], src, cfg, checkpointing)
            },
            |rel, levels| {
                sorted[rel] = levels
                    .into_iter()
                    .map(|lv| {
                        let lv = lv?;
                        if sort_err.is_none() {
                            sort_err = ctl.charge("sort", elapsed);
                        }
                        if sort_err.is_some() {
                            if let Ok((f, _)) = lv.outcome {
                                disk.delete(f);
                            }
                            return None;
                        }
                        clock.set(clock.get() + Work { sorted: lv.records, ..Work::default() });
                        disk.add_channel_stats(&lv.io);
                        match lv.outcome {
                            Ok((f, Some(st))) => {
                                stats.sort_runs += st.runs;
                                stats.sort_passes_max = stats.sort_passes_max.max(st.merge_passes);
                                Some(f)
                            }
                            Ok((spare, None)) => {
                                stats.quarantined_levels += 1;
                                Some(spare)
                            }
                            Err(e) => {
                                sort_err = Some(JoinError::new("sort", e));
                                None
                            }
                        }
                    })
                    .collect();
            },
        );
        let [sorted_r, sorted_s] = sorted;
        stats.io_sort = disk.stats().delta(&io1);
        stats.cpu_sort = t1.elapsed().as_secs_f64();
        stats.work_sort = clock.get() - stats.work_partition;
        if let Some(e) = sort_err {
            // Half-done sorted files are orphans either way; under a
            // checkpoint the unsorted files stay (the `Partition` manifest
            // references them; resume redoes the sort).
            for f in sorted_r.iter().chain(sorted_s.iter()).flatten() {
                disk.delete(*f);
            }
            if !checkpointing {
                for f in unsorted_r.iter().chain(unsorted_s.iter()).flatten() {
                    disk.delete(*f);
                }
            }
            return Err(e);
        }
        // Publish the `Join` manifest (journal + results + sorted files):
        // from here on per-partition commits are durable, and the unsorted
        // level files are no longer needed by any resume.
        run.publish(|c| c.commit_join_phase(0, &pack_levels(&sorted_r), &pack_levels(&sorted_s)))?;
        if checkpointing {
            for f in unsorted_r.iter().chain(unsorted_s.iter()).flatten() {
                disk.delete(*f);
            }
        }
        (sorted_r, sorted_s)
    };
    ctl.span(
        "sort",
        model.at(&stats.work_partition, &io1),
        model.at(&clock.get(), &disk.stats()),
    );

    // A resumed join phase folds the journaled counters in, so its reported
    // totals match an uninterrupted run's (the committed partitions' pairs
    // were already emitted by the crashed process after each commit).
    if resume_join {
        stats.add_counts(run.journaled());
    }

    // --- Phase 3: synchronized scan ------------------------------------------
    let t2 = Instant::now();
    let io2 = disk.stats();
    let ckpt2 = run.io_checkpoint();
    let cpu_base = clock.get();
    // Simulated time so far — what the deadline is charged against at every
    // discovered partition.
    let elapsed_now = || disk.io_seconds() + model.priced_cpu(&clock.get());
    let scan = Scan {
        disk,
        cfg,
        sources: (r, s),
        sorted: (&sorted_r, &sorted_s),
        ctl,
        elapsed: &elapsed_now,
        io0,
        clock: &clock,
    };
    let scan_res = match cfg.scan {
        ScanMode::HeapMerge => heap_scan(&scan, &mut stats, &mut run, out),
        ScanMode::LevelPairs => pair_scan(&scan, &mut stats, &mut run, out),
    };
    stats.work_join = clock.get() - cpu_base;
    stats.cpu_join = t2.elapsed().as_secs_f64();
    // Join-phase I/O excludes what the checkpoint layer did mid-scan (those
    // commits are accounted under `io_checkpoint`).
    stats.io_join = disk
        .stats()
        .delta(&io2)
        .delta(&run.io_checkpoint().delta(&ckpt2));
    ctl.span(
        "scan",
        model.at(&cpu_base, &io2),
        model.at(&clock.get(), &disk.stats()),
    );

    // An interrupted durable run must keep the sorted level files — the
    // `Join` manifest references them and a resume reads them again;
    // `finish` (or the next recovery scan) reclaims everything.
    if !checkpointing {
        for f in sorted_r.iter().chain(sorted_s.iter()).flatten() {
            disk.delete(*f);
        }
    }
    scan_res?;
    ctl.charge_total("scan", elapsed_now)?;
    stats.clock = run.close(&mut stats.io_checkpoint, &mut stats.checkpoint_commits)?;
    Ok(stats)
}

/// One discovered partition, on the priced clock.
const PARTITION: Work = Work { partitions: 1, ..Work::ZERO };

/// What every scan strategy works from: the sorted level files, the sources
/// a quarantined level is recomputed from, and the run's clock.
struct Scan<'a> {
    disk: &'a SimDisk,
    cfg: &'a S3jConfig,
    sources: (&'a [Kpe], &'a [Kpe]),
    sorted: (&'a [Option<FileId>], &'a [Option<FileId>]),
    ctl: &'a RunControl,
    /// Simulated seconds so far, for the per-partition deadline check.
    elapsed: &'a dyn Fn() -> f64,
    /// The disk meter at run start: first-result positions are run-relative,
    /// so a reused disk's earlier charges never leak into the probe.
    io0: IoStats,
    /// The priced clock: build, sort and the scan's work so far.
    clock: &'a std::cell::Cell<Work>,
}

impl<'a> Scan<'a> {
    /// Where the scan stands on the run's clock: the priced work before the
    /// unit being joined, and the meter now — discovery I/O through the
    /// emitting partition, plus its commit when checkpointed. The scan
    /// emits in discovery order against a monotone meter, so its first
    /// delivery is already the minimum.
    fn position(&self) -> ClockPos {
        (self.clock.get(), self.disk.stats().delta(&self.io0))
    }

    /// Advances the priced clock by `work`.
    fn tick(&self, work: Work) {
        self.clock.set(self.clock.get() + work);
    }

    /// §4.4.3, the discovery traversal of the synchronized scan: one pass
    /// over all level files, merged by a heap of cursors in pre-order; per
    /// relation the partitions on the current root path, as a stack of
    /// [`Part`]s over one arena of records, so unwinding the path truncates
    /// the arena. `visit` gets each new partition with its discovery index
    /// — stable across runs, hence the journal's work unit — its relation,
    /// its records, and the other relation's path with that relation's
    /// arena: its cell's ancestors-or-equal, so the new partition is always
    /// the deeper side of every pair. A resumed run's committed partitions
    /// are not joined but still join the paths.
    fn discover(
        &self,
        stats: &mut S3jStats,
        mut visit: impl FnMut(u32, usize, &Part, &mut [Kpe], &[Part], &mut [Kpe])
            -> Result<(), JoinError>,
    ) -> Result<(), JoinError> {
        let to_err = |e: IoError| JoinError::new("scan", e);
        let (cfg, max_level) = (self.cfg, self.cfg.max_level);
        let mut cursors: Vec<Cursor<'_>> = Vec::new();
        for (rel, files) in [(0usize, self.sorted.0), (1, self.sorted.1)] {
            let src = LevelSource::for_rel(cfg, self.sources.0, self.sources.1, rel);
            for (level, f) in files.iter().enumerate() {
                if let Some(f) = f {
                    let pages = cfg.io_buffer_pages;
                    let c = Cursor::new(self.disk, *f, level as u8, rel, pages, src);
                    cursors.push(c.map_err(to_err)?);
                }
            }
        }
        let keys = cursors.iter().enumerate().filter_map(|(i, c)| c.peek_key(max_level, i));
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = keys.map(Reverse).collect();
        let mut paths: [Vec<Part>; 2] = [Vec::new(), Vec::new()];
        let mut arenas: [Vec<Kpe>; 2] = [Vec::new(), Vec::new()];
        let mut d: u32 = 0; // discovery index
        // The popped cursor's next partition replaces it at the top: one
        // sift instead of a pop and a push.
        while let Some(mut top) = heap.peek_mut() {
            let Reverse((start, tie)) = *top;
            // Interruption check at partition granularity; a checkpointed
            // run's committed prefix stays durable and resumable.
            if let Some(e) = self.ctl.charge("scan", self.elapsed) {
                return Err(e);
            }
            // Unwind both paths to the new cell's ancestors-or-equal.
            for (path, arena) in paths.iter_mut().zip(arenas.iter_mut()) {
                while path.last().is_some_and(|p| start < p.start || p.end <= start) {
                    path.pop();
                }
                arena.truncate(path.last().map_or(0, |p| p.hi));
            }
            let ci = (tie & 0xff) as usize;
            let rel = cursors[ci].rel;
            let part = cursors[ci].take_partition(&mut arenas[rel], max_level).map_err(to_err)?;
            self.tick(PARTITION);
            match cursors[ci].peek_key(max_level, ci) {
                Some(key) => *top = Reverse(key),
                None => drop(PeekMut::pop(top)),
            }
            let resident = (arenas[0].len() + arenas[1].len()) * Kpe::ENCODED_SIZE;
            stats.peak_partition_bytes = stats.peak_partition_bytes.max(resident);
            let [r, s] = &mut arenas;
            let (mine, theirs) = if rel == 0 { (r, s) } else { (s, r) };
            visit(d, rel, &part, &mut mine[part.lo..], &paths[1 - rel], theirs)?;
            paths[rel].push(part);
            d += 1;
        }
        stats.quarantined_levels += cursors.iter().filter(|c| c.quarantined).count() as u32;
        Ok(())
    }
}

/// The synchronized scan: every discovered partition with something on the
/// other relation's root path is one unit, joined inline against that path
/// and streamed through the run driver. Partitions with nothing to join
/// against do no work and are never journaled.
fn heap_scan(
    scan: &Scan<'_>,
    stats: &mut S3jStats,
    run: &mut UnitRun<'_>,
    out: &mut dyn FnMut(RecordId, RecordId),
) -> Result<(), JoinError> {
    let mut ctx = JoinCtx::new(scan.cfg);
    let position: &dyn Fn() -> ClockPos = &|| scan.position();
    let res = scan.discover(stats, |d, rel, part, mine, path, theirs| {
        if path.is_empty() || run.is_committed(d) {
            return Ok(());
        }
        let rpm = scan.cfg.replicate.then(|| part.cell(scan.cfg.curve));
        let body = |emit: &mut dyn FnMut(RecordId, RecordId)| {
            let (c0, r0, d0) = ctx.counts;
            for q in path {
                ctx.join_parts(rel, rpm, mine, &mut theirs[q.lo..q.hi], emit);
            }
            scan.tick(ctx.unit_work());
            let (c, r, d) = ctx.counts;
            Ok((c - c0, r - r0, d - d0))
        };
        run.stream(d, (!run.probed()).then_some(position), scan.elapsed, body, out)
    });
    ctx.fold_into(stats);
    res
}

/// Ablation baseline for §4.4.3: a separate merge scan per pair of level
/// files. Produces identical results; re-reads each level file once per
/// opposite occupied level. It has no partition-discovery order to number
/// units by (hence no checkpointing): the whole scan is one unit.
fn pair_scan(
    scan: &Scan<'_>,
    stats: &mut S3jStats,
    run: &mut UnitRun<'_>,
    out: &mut dyn FnMut(RecordId, RecordId),
) -> Result<(), JoinError> {
    let Scan { disk, cfg, sources: (r, s), sorted: (sorted_r, sorted_s), .. } = *scan;
    let to_err = |e: IoError| JoinError::new("scan", e);
    // The next whole partition of `c`, alone in `arena`, or `None` at end of
    // file.
    let next_part = |c: &mut Cursor<'_>, arena: &mut Vec<Kpe>| -> Result<Option<Part>, IoError> {
        if c.pending.is_none() {
            return Ok(None);
        }
        arena.clear();
        let part = c.take_partition(arena, cfg.max_level)?;
        scan.tick(PARTITION);
        Ok(Some(part))
    };
    let (mut arena_a, mut arena_b) = (Vec::new(), Vec::new());
    let mut ctx = JoinCtx::new(cfg);
    let position = scan.position();
    let body = |out: &mut dyn FnMut(RecordId, RecordId)| {
        for (lr, fr) in sorted_r.iter().enumerate() {
            let Some(fr) = fr else { continue };
            for (ls, fs) in sorted_s.iter().enumerate() {
                let Some(fs) = fs else { continue };
                // Interruption check once per level-file pair: the ablation
                // scan has no partition-discovery loop to hook into, so
                // cancellation is coarser here.
                if let Some(e) = scan.ctl.charge("scan", scan.elapsed) {
                    return Err(e);
                }
                let src_r = LevelSource::for_rel(cfg, r, s, 0);
                let src_s = LevelSource::for_rel(cfg, r, s, 1);
                let cr = Cursor::new(disk, *fr, lr as u8, 0, cfg.io_buffer_pages, src_r)
                    .map_err(to_err)?;
                let cs = Cursor::new(disk, *fs, ls as u8, 1, cfg.io_buffer_pages, src_s)
                    .map_err(to_err)?;
                // Merge: `a` is the coarser-or-equal side, `b` the deeper side.
                let (mut a, mut b) = if lr <= ls { (cr, cs) } else { (cs, cr) };
                let mut pa = next_part(&mut a, &mut arena_a).map_err(to_err)?;
                let mut pb = next_part(&mut b, &mut arena_b).map_err(to_err)?;
                while let (Some(ca), Some(cb)) = (pa, pb) {
                    if ca.start <= cb.start && cb.start < ca.end {
                        // `ca` covers `cb`: join (cb is the deeper partition).
                        stats.peak_partition_bytes = stats.peak_partition_bytes.max(
                            (arena_a.len() + arena_b.len()) * Kpe::ENCODED_SIZE,
                        );
                        let rpm = cfg.replicate.then(|| cb.cell(cfg.curve));
                        ctx.join_parts(b.rel, rpm, &mut arena_b, &mut arena_a, out);
                        scan.tick(ctx.unit_work());
                        pb = next_part(&mut b, &mut arena_b).map_err(to_err)?;
                    } else if ca.end <= cb.start {
                        pa = next_part(&mut a, &mut arena_a).map_err(to_err)?;
                    } else {
                        pb = next_part(&mut b, &mut arena_b).map_err(to_err)?;
                    }
                }
                // The ablation re-reads each level file once per opposite
                // level, so one damaged file can quarantine once per pairing
                // — an honest per-event count.
                stats.quarantined_levels +=
                    [&a, &b].iter().filter(|c| c.quarantined).count() as u32;
            }
        }
        Ok(ctx.counts)
    };
    // One unit, starting where the sort ended.
    let res = run.stream(
        0,
        Some(&|| (position.0, scan.disk.stats().delta(&scan.io0))),
        scan.elapsed,
        body,
        out,
    );
    ctx.fold_into(stats);
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{scale, LineNetwork};

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

    fn run(r: &[Kpe], s: &[Kpe], cfg: &S3jConfig) -> (Vec<(u64, u64)>, S3jStats) {
        let disk = SimDisk::with_default_model();
        let mut got = Vec::new();
        let stats = s3j_join(&disk, r, s, cfg, &mut |a, b| got.push((a.0, b.0)));
        got.sort_unstable();
        (got, stats)
    }

    fn tiger_pair(n: usize) -> (Vec<Kpe>, Vec<Kpe>) {
        let r = LineNetwork {
            count: n,
            coverage: 0.22,
            segments_per_line: 20,
            seed: 301,
        }
        .generate();
        let s = LineNetwork {
            count: n + n / 7,
            coverage: 0.03,
            segments_per_line: 10,
            seed: 302,
        }
        .generate();
        (r, s)
    }

    #[test]
    fn original_s3j_matches_brute_force() {
        let (r, s) = tiger_pair(2500);
        let cfg = S3jConfig {
            replicate: false,
            mem_bytes: 64 * 1024,
            max_level: 10,
            ..Default::default()
        };
        let (got, stats) = run(&r, &s, &cfg);
        assert_eq!(got, brute(&r, &s));
        assert_eq!(stats.duplicates, 0, "no replication, no duplicates");
        assert_eq!(stats.copies_r as usize, r.len());
    }

    #[test]
    fn replicated_s3j_matches_brute_force_and_dedups() {
        let (r0, s0) = tiger_pair(2000);
        // Scale up so rects straddle cells and replication actually happens.
        let (r, s) = (scale(&r0, 3.0), scale(&s0, 3.0));
        let cfg = S3jConfig {
            replicate: true,
            mem_bytes: 64 * 1024,
            max_level: 10,
            ..Default::default()
        };
        let (got, stats) = run(&r, &s, &cfg);
        assert_eq!(got, brute(&r, &s));
        assert!(stats.copies_r as usize > r.len(), "expected replication");
        assert!(stats.duplicates > 0, "expected suppressed duplicates");
        assert!(stats.replication_rate(r.len() + s.len()) <= 4.0);
    }

    /// Emission order and every counter of the scan, pinned across the
    /// assignment rule, the curve and the scan strategy: a change to how
    /// partitions are held or joined must not move a single pair. Each row
    /// is `fnv1a` of the emitted sequence, then results, candidates,
    /// duplicates and tests, the peak partition bytes, and the join phase's
    /// partitions, tests and candidates.
    #[test]
    fn pair_sequence_and_counters_are_pinned() {
        let (r0, s0) = tiger_pair(1500);
        let (r, s) = (scale(&r0, 3.0), scale(&s0, 3.0));
        let (plain, repl) = ([6059, 6059, 0, 464_909], [6059, 8985, 2926, 175_219]);
        let golden = [
            (14_469_951_499_649_192_238_u64, plain, 15_080, [782, 464_909, 6059]),
            (11_225_619_383_021_007_766, plain, 7080, [5798, 464_909, 6059]),
            (7_195_408_734_872_141_830, plain, 15_080, [782, 464_909, 6059]),
            (8_820_097_674_258_983_326, plain, 7080, [5619, 464_909, 6059]),
            (12_351_042_422_918_907_582, repl, 6440, [812, 175_219, 8985]),
            (2_603_033_024_109_502_170, repl, 4320, [3475, 175_219, 8985]),
            (3_299_703_355_409_937_866, repl, 6440, [812, 175_219, 8985]),
            (18_423_227_141_417_782_494, repl, 4320, [3288, 175_219, 8985]),
        ];
        let mut rows = golden.iter();
        for replicate in [false, true] {
            for curve in [Curve::Peano, Curve::Hilbert] {
                for scan in [ScanMode::HeapMerge, ScanMode::LevelPairs] {
                    let cfg = S3jConfig {
                        replicate,
                        curve,
                        scan,
                        mem_bytes: 48 * 1024,
                        max_level: 10,
                        ..Default::default()
                    };
                    let disk = SimDisk::with_default_model();
                    let mut sequence = Vec::new();
                    let st = s3j_join(&disk, &r, &s, &cfg, &mut |a, b| {
                        sequence.extend_from_slice(&a.0.to_le_bytes());
                        sequence.extend_from_slice(&b.0.to_le_bytes());
                    });
                    let w = st.work_join;
                    let got = (
                        storage::fnv1a(&sequence),
                        [st.results, st.candidates, st.duplicates, st.join_counters.tests],
                        st.peak_partition_bytes,
                        [w.partitions, w.tests, w.candidates],
                    );
                    let (fnv, counts, peak, [partitions, tests, candidates]) = *rows.next().unwrap();
                    assert_eq!(got, (fnv, counts, peak, [partitions, tests, candidates]), "{cfg:?}");
                    assert_eq!(w, Work { partitions, tests, candidates, ..Work::ZERO }, "{cfg:?}");
                }
            }
        }
    }

    #[test]
    fn persistent_corruption_quarantines_levels_and_stays_exact() {
        use storage::{FaultPlan, RetryPolicy};
        let (r0, s0) = tiger_pair(1200);
        let (r, s) = (scale(&r0, 3.0), scale(&s0, 3.0));
        for replicate in [false, true] {
            let cfg = S3jConfig {
                replicate,
                mem_bytes: 48 * 1024,
                max_level: 9,
                ..Default::default()
            };
            let clean = run(&r, &s, &cfg).0;
            // Persistent damage is a pure function of (seed, channel, page):
            // hunt seeds until one lands on a level file — the sort reads
            // it first, so this is the sort-phase rebuild (the scan-phase
            // replay has its own test); every seed, hit or miss, must still
            // produce the exact result set.
            let mut hit = false;
            for seed in 0..48u64 {
                let disk = SimDisk::with_default_model().with_faults(
                    FaultPlan::persistent(seed).with_persistent_rate(0.03),
                    RetryPolicy::default(),
                );
                let mut got = Vec::new();
                let stats = try_s3j_join_ctl(&disk, &r, &s, &cfg, &RunControl::none(), &mut |a, b| got.push((a.0, b.0)))
                    .expect("persistent damage must quarantine, not kill the join");
                got.sort_unstable();
                assert_eq!(got, clean, "seed {seed} replicate {replicate} diverged");
                if stats.quarantined_levels > 0 {
                    hit = true;
                    break;
                }
            }
            assert!(hit, "no seed damaged a level file (replicate {replicate})");
        }
    }

    /// Runs the synchronized scan alone over sorted level files already on
    /// `disk`, as a durable run resumed in its join phase does.
    fn scan_sorted(
        disk: &SimDisk,
        (r, s): (&[Kpe], &[Kpe]),
        cfg: &S3jConfig,
        (sorted_r, sorted_s): (&[Option<FileId>], &[Option<FileId>]),
    ) -> (Vec<(u64, u64)>, S3jStats) {
        let (ctl, clock) = (RunControl::none(), std::cell::Cell::new(Work::ZERO));
        let scan = Scan {
            disk,
            cfg,
            sources: (r, s),
            sorted: (sorted_r, sorted_s),
            ctl: &ctl,
            elapsed: &|| 0.0,
            io0: disk.stats(),
            clock: &clock,
        };
        let mut stats = S3jStats::new(disk.model());
        let mut got = Vec::new();
        let mut run = UnitRun::begin(&ctl, disk);
        heap_scan(&scan, &mut stats, &mut run, &mut |a, b| got.push((a.0, b.0)))
            .expect("persistent damage must quarantine, not kill the scan");
        (got, stats)
    }

    /// Scan-phase quarantine of a partly collected partition. In a plain run
    /// the sort reads every page index of a level first (the sorted file
    /// has the unsorted one's channel and length, and damage is a function
    /// of the two), so it is the sort that quarantines; the scan meets
    /// damage when sorted files outlive a crash onto media that has since
    /// gone bad. Sorted files written on sound media are restored onto a
    /// damaged volume; seeds are hunted until a page past some cursor's
    /// first read buffer is bad while that buffer is sound. The failing read
    /// is then a refill inside `take_partition`, with the in-flight cell's
    /// first records already in the arena: they are truncated off and
    /// re-collected from the replay, and the scan emits the clean scan's
    /// sequence with its peak residency.
    #[test]
    fn scan_quarantine_replays_a_partly_collected_partition() {
        use storage::{FaultPlan, RetryPolicy};
        let (r0, s0) = tiger_pair(1200);
        let (r, s) = (scale(&r0, 3.0), scale(&s0, 3.0));
        for replicate in [false, true] {
            let cfg = S3jConfig {
                replicate,
                mem_bytes: 48 * 1024,
                max_level: 9,
                ..Default::default()
            };
            let sound = SimDisk::with_default_model();
            let sorted = |data: &[Kpe]| -> Vec<Option<FileId>> {
                let lf = LevelFiles::try_build(&sound, data, 9, cfg.curve, replicate, cfg.level_shift, 1).unwrap();
                let sort = |f| try_external_sort_by(&sound, f, cfg.mem_bytes, |x: &LevelRecord| x.code, false);
                lf.files.iter().map(|f| f.map(|f| sort(f).unwrap().0)).collect()
            };
            let files = (sorted(&r), sorted(&s));
            let snapshot = sound.export_files();
            let (clean, clean_stats) = scan_sorted(&sound, (&r, &s), &cfg, (&files.0, &files.1));
            let page = sound.model().page_size as u64;
            let hit = (0..256u64).find_map(|seed| {
                let plan = FaultPlan::persistent(seed).with_persistent_rate(0.02);
                let first_buffer = cfg.io_buffer_pages as u64;
                let mid_file = files.0.iter().chain(&files.1).flatten().any(|&f| {
                    let (tag, pages) = (sound.file_channel(f).unwrap(), sound.len(f).div_ceil(page));
                    (0..first_buffer).all(|p| !plan.bad_page(tag, p))
                        && (first_buffer..pages).any(|p| plan.bad_page(tag, p))
                });
                mid_file.then(|| {
                    let disk = SimDisk::with_default_model().with_faults(plan, RetryPolicy::default());
                    disk.restore_files(&snapshot).unwrap();
                    (seed, scan_sorted(&disk, (&r, &s), &cfg, (&files.0, &files.1)))
                })
            });
            let (seed, (got, stats)) = hit.expect("no seed damaged a level file past its first buffer");
            assert!(stats.quarantined_levels > 0, "seed {seed} replicate {replicate}");
            assert_eq!(got, clean, "seed {seed} replicate {replicate} diverged");
            assert_eq!(stats.results, clean_stats.results);
            assert_eq!(stats.peak_partition_bytes, clean_stats.peak_partition_bytes);
        }
    }

    #[test]
    fn rebuilt_level_matches_what_the_build_wrote() {
        use crate::levels::rebuild_level_sorted;
        use storage::read_all;
        let (r0, _) = tiger_pair(600);
        let r = scale(&r0, 3.0);
        for (replicate, shift) in [(false, 0u8), (true, 0), (true, 1)] {
            let disk = SimDisk::with_default_model();
            let lf = LevelFiles::try_build(&disk, &r, 9, Curve::Peano, replicate, shift, 1).unwrap();
            for level in lf.occupied_levels() {
                // A small budget: several runs and a merge, as in a real scan.
                let unsorted = lf.files[level as usize].unwrap();
                let (sorted, _) =
                    try_external_sort_by(&disk, unsorted, 48 * 1024, |rec: &LevelRecord| rec.code, false)
                        .unwrap();
                let on_disk: Vec<LevelRecord> = read_all(&disk, sorted, 1);
                let rebuilt =
                    rebuild_level_sorted(&r, level, 9, Curve::Peano, replicate, shift);
                assert_eq!(
                    rebuilt, on_disk,
                    "level {level} replicate {replicate} shift {shift}"
                );
            }
        }
    }

    #[test]
    fn disk_full_during_build_surfaces_typed_error() {
        use storage::{FaultPlan, IoErrorKind, RetryPolicy};
        let (r, s) = tiger_pair(400);
        let disk = SimDisk::with_default_model().with_faults(
            FaultPlan::none(7).with_disk_budget(0),
            RetryPolicy::default(),
        );
        let err = try_s3j_join_ctl(&disk, &r, &s, &S3jConfig::default(), &RunControl::none(), &mut |_, _| {})
            .expect_err("a zero-page volume cannot hold level files");
        assert_eq!(err.phase, "build");
        assert_eq!(err.io().expect("io-layer error").kind, IoErrorKind::DiskFull);
        assert_eq!(disk.pages_in_use(), 0, "failed build leaked files");
    }

    #[test]
    fn heap_and_pair_scans_agree() {
        let (r, s) = tiger_pair(1500);
        for replicate in [false, true] {
            let base = S3jConfig {
                replicate,
                mem_bytes: 48 * 1024,
                max_level: 9,
                ..Default::default()
            };
            let (heap, hs) = run(&r, &s, &base);
            let (pairs, ps) = run(
                &r,
                &s,
                &S3jConfig {
                    scan: ScanMode::LevelPairs,
                    ..base
                },
            );
            assert_eq!(heap, pairs, "replicate={replicate}");
            assert_eq!(hs.results, ps.results);
            // The naive scan re-reads level files: strictly more join I/O.
            assert!(
                ps.io_join.pages_read >= hs.io_join.pages_read,
                "pair-scan should not read less"
            );
        }
    }

    #[test]
    fn all_internal_algorithms_agree() {
        let (r, s) = tiger_pair(1500);
        let mut reference: Option<Vec<(u64, u64)>> = None;
        for internal in InternalAlgo::ALL {
            let cfg = S3jConfig {
                internal,
                mem_bytes: 48 * 1024,
                max_level: 9,
                ..Default::default()
            };
            let (got, _) = run(&r, &s, &cfg);
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "{internal} diverges"),
            }
        }
    }

    #[test]
    fn hilbert_and_peano_curves_agree() {
        let (r, s) = tiger_pair(1200);
        let base = S3jConfig {
            mem_bytes: 48 * 1024,
            max_level: 9,
            ..Default::default()
        };
        let (peano, pstats) = run(&r, &s, &base);
        let (hilbert, hstats) = run(
            &r,
            &s,
            &S3jConfig {
                curve: Curve::Hilbert,
                ..base
            },
        );
        assert_eq!(peano, hilbert);
        // §4.4.2: curve choice affects neither I/O nor intersection tests.
        assert_eq!(pstats.io_total(), hstats.io_total());
        assert_eq!(pstats.join_counters.tests, hstats.join_counters.tests);
    }

    #[test]
    fn replication_cuts_intersection_tests_on_straddler_heavy_data() {
        // The motivating pathology (§4.2–4.3): small rects straddling grid
        // lines land at coarse levels without replication and get tested
        // against everything.
        let (r0, s0) = tiger_pair(3000);
        let (r, s) = (scale(&r0, 2.0), scale(&s0, 2.0));
        let base = S3jConfig {
            mem_bytes: 64 * 1024,
            max_level: 10,
            ..Default::default()
        };
        let (res_o, orig) = run(&r, &s, &S3jConfig { replicate: false, ..base });
        let (res_r, repl) = run(&r, &s, &S3jConfig { replicate: true, ..base });
        assert_eq!(res_o, res_r);
        assert!(
            repl.join_counters.tests * 2 < orig.join_counters.tests,
            "replicated {} tests vs original {}",
            repl.join_counters.tests,
            orig.join_counters.tests
        );
    }

    #[test]
    fn self_join_consistent() {
        let (r, _) = tiger_pair(1200);
        let cfg = S3jConfig {
            mem_bytes: 48 * 1024,
            max_level: 9,
            ..Default::default()
        };
        let (got, _) = run(&r, &r, &cfg);
        assert_eq!(got, brute(&r, &r));
    }

    #[test]
    fn empty_inputs() {
        let (r, _) = tiger_pair(200);
        let cfg = S3jConfig::default();
        let (got, stats) = run(&r, &[], &cfg);
        assert!(got.is_empty());
        assert_eq!(stats.results, 0);
        let (got, _) = run(&[], &[], &cfg);
        assert!(got.is_empty());
    }

    #[test]
    fn stats_io_decomposition_adds_up() {
        let (r, s) = tiger_pair(1000);
        let disk = SimDisk::with_default_model();
        let stats = s3j_join(&disk, &r, &s, &S3jConfig::default(), &mut |_, _| {});
        assert_eq!(stats.io_total(), disk.stats());
        assert!(stats.total_seconds() > 0.0);
        assert!(stats.peak_partition_bytes > 0);
    }

    #[test]
    fn channels_decompose_io_and_buy_simulated_time() {
        let (r, s) = tiger_pair(1000);
        // cpu_slowdown 0 isolates the deterministic I/O clock.
        let run_ch = |channels: usize| {
            let disk = SimDisk::new(DiskModel {
                channels,
                cpu_slowdown: 0.0,
                ..Default::default()
            });
            let cfg = S3jConfig {
                mem_bytes: 48 * 1024,
                max_level: 9,
                ..Default::default()
            };
            let mut got = Vec::new();
            let stats = s3j_join(&disk, &r, &s, &cfg, &mut |a, b| got.push((a.0, b.0)));
            got.sort_unstable();
            (got, stats)
        };
        let (res1, st1) = run_ch(1);
        let (res4, st4) = run_ch(4);
        // Results and counters are channel-invariant.
        assert_eq!(res1, res4);
        assert_eq!(st1.io_total(), st4.io_total());
        // The channel meters are an exact decomposition of the total.
        assert_eq!(st1.clock.io_channels.len(), 1);
        assert_eq!(st4.clock.io_channels.len(), 4);
        for st in [&st1, &st4] {
            let mut sum = st.clock.io_shared;
            for c in &st.clock.io_channels {
                sum = sum.plus(c);
            }
            assert_eq!(sum, st.io_total());
        }
        // One channel reduces bit-exactly to the serial clock; four spread
        // the level files across channels and strictly beat it.
        assert_eq!(st1.total_seconds(), st1.scaled_cpu_seconds() + st1.io_seconds());
        assert!(
            st4.clock.io_channels.iter().filter(|c| c.pages_read > 0).count() > 1,
            "level files should land on several channels"
        );
        assert!(
            st4.total_seconds() < st1.total_seconds(),
            "channels=4 ({}) should strictly beat channels=1 ({})",
            st4.total_seconds(),
            st1.total_seconds()
        );
    }
}

#[cfg(test)]
mod rpm_unit_tests {
    use super::*;
    use geom::{Kpe, Rect, RecordId};

    fn run_cfg(r: &[Kpe], s: &[Kpe], cfg: &S3jConfig) -> (Vec<(u64, u64)>, S3jStats) {
        let disk = SimDisk::with_default_model();
        let mut got = Vec::new();
        let st = s3j_join(&disk, r, s, cfg, &mut |a, b| got.push((a.0, b.0)));
        got.sort_unstable();
        (got, st)
    }

    /// Hand-constructed instance of paper Figure 10: r sits one level above
    /// s; s is replicated into two sibling cells; the pair must be reported
    /// exactly once (from the cell containing the reference point).
    #[test]
    fn figure10_mixed_level_pair_reported_once() {
        // r: a rect needing a level-1 cell (edges just over 1/4).
        let r = Kpe::new(RecordId(1), Rect::new(0.05, 0.05, 0.35, 0.35));
        // s: a small rect straddling the vertical line x = 0.25 (level-2
        // cell boundary), inside r.
        let s = Kpe::new(RecordId(2), Rect::new(0.22, 0.1, 0.28, 0.15));
        let cfg = S3jConfig {
            replicate: true,
            level_shift: 0,
            max_level: 8,
            ..Default::default()
        };
        let (got, st) = run_cfg(&[r], &[s], &cfg);
        assert_eq!(got, vec![(1, 2)]);
        assert_eq!(st.results, 1);
        assert!(
            st.copies_s >= 2,
            "s must be replicated across the boundary (copies = {})",
            st.copies_s
        );
        assert_eq!(st.candidates, st.results + st.duplicates);
        assert!(st.duplicates >= 1, "the duplicate candidate must be caught");
    }

    /// Equal-level pair replicated into the same two cells: both cells see
    /// both rects, only the reference-point cell reports.
    #[test]
    fn equal_level_replicated_pair_reported_once() {
        let r = Kpe::new(RecordId(1), Rect::new(0.22, 0.1, 0.28, 0.14));
        let s = Kpe::new(RecordId(2), Rect::new(0.23, 0.11, 0.29, 0.15));
        let cfg = S3jConfig {
            replicate: true,
            level_shift: 0,
            max_level: 8,
            ..Default::default()
        };
        let (got, st) = run_cfg(&[r], &[s], &cfg);
        assert_eq!(got, vec![(1, 2)]);
        assert!(st.duplicates >= 1);
    }

    /// A pair whose rects only touch at one point on a cell boundary: the
    /// half-open cell convention must still deliver it exactly once.
    #[test]
    fn touching_pair_on_cell_boundary() {
        let r = Kpe::new(RecordId(1), Rect::new(0.20, 0.20, 0.25, 0.25));
        let s = Kpe::new(RecordId(2), Rect::new(0.25, 0.25, 0.30, 0.30));
        for shift in [0u8, 1] {
            let cfg = S3jConfig {
                replicate: true,
                level_shift: shift,
                max_level: 8,
                ..Default::default()
            };
            let (got, _) = run_cfg(&[r], &[s], &cfg);
            assert_eq!(got, vec![(1, 2)], "shift {shift}");
        }
    }
}
