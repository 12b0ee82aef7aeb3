use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use geom::{reference_point, Kpe, RecordId};
use sfc::{Cell, Curve, MAX_LEVEL};
use storage::{
    try_external_sort_by, ClockPos, Counts, DiskModel, FileId, FinishedUnit, FixedRecord, IoError,
    IoStats, JoinError, RecordReader, RecordWriter, RunClock, RunControl, RunPhase, Schedule,
    SimDisk, UnitRun, Work,
};
use sweep::{InternalAlgo, InternalJoin, JoinCounters};

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
#[derive(Debug, Clone, Copy)]
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
    /// Worker threads for the partition-pair joins of the synchronized scan
    /// ([`ScanMode::HeapMerge`] only; the ablation scan stays sequential).
    /// `0` means "all available cores"; `1` runs the sequential code path.
    /// The result stream and all deterministic counters are identical for
    /// every value.
    pub threads: usize,
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
            threads: 0,
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
    /// Counted CPU work per phase, the simulated clock's CPU leg (the pooled
    /// scan's is discovery plus the replayed pool's critical path).
    pub work_partition: Work,
    pub work_sort: Work,
    pub work_join: Work,
    /// Host CPU seconds per phase, timed by the coordinator (the host clock).
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
    /// channel `l mod D` for both relations; all S³J I/O happens on the
    /// coordinator, scan workers are pure CPU) and the first-result
    /// position: the emitting unit's start on the priced clock, and the
    /// discovery I/O up to the emitting partition plus its commit I/O when
    /// checkpointed.
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
    /// ([`RunClock::total_seconds`]). S³J needs no explicit prefetch stage
    /// for the overlap it credits: the coordinator's synchronized scan
    /// performs all I/O while workers join in-memory partitions, so
    /// discovery reads on spare channels overlap compute.
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

/// A loaded partition: one cell's rectangles from one relation. Cloned by
/// parallel workers (internal joins reorder rects in place, so every task
/// works on a pristine private copy).
#[derive(Clone)]
struct Part {
    rel: usize, // 0 = R, 1 = S
    level: u8,
    /// Pre-order range of the cell on the `max_level` grid.
    start: u64,
    end: u64,
    cell: Cell,
    rects: Vec<Kpe>,
}

impl Part {
    /// A private copy of this partition whose rects live in `buf` (cleared
    /// first) — lets parallel workers recycle scratch buffers instead of
    /// allocating per task.
    fn copy_into(&self, mut buf: Vec<Kpe>) -> Part {
        buf.clear();
        buf.extend_from_slice(&self.rects);
        Part {
            rel: self.rel,
            level: self.level,
            start: self.start,
            end: self.end,
            cell: self.cell,
            rects: buf,
        }
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

    /// Pre-order heap key of the next partition.
    fn peek_key(&self, max_level: u8) -> Option<(u64, u8, usize)> {
        self.pending.as_ref().map(|r| {
            let shift = 2 * (max_level - self.level) as u32;
            (r.code << shift, self.level, self.rel)
        })
    }

    /// Consumes all records of the next cell's code.
    fn collect(&mut self, code: u64, mut rects: Vec<Kpe>) -> Result<Vec<Kpe>, IoError> {
        loop {
            match self.next_record()? {
                Some(r) if r.code == code => rects.push(r.kpe),
                other => {
                    self.pending = other;
                    return Ok(rects);
                }
            }
        }
    }

    fn make_part(&self, code: u64, rects: Vec<Kpe>, curve: Curve, max_level: u8) -> Part {
        let shift = 2 * (max_level - self.level) as u32;
        let start = code << shift;
        Part {
            rel: self.rel,
            level: self.level,
            start,
            end: start + (1u64 << shift),
            cell: Cell::from_code(self.level, code, curve),
            rects,
        }
    }

    /// Consumes all records of the next cell. A transient error that
    /// exhausted the retry budget is terminal (the partition in flight is
    /// lost); persistent damage quarantines the file instead and the
    /// partition is re-collected from the in-memory replay.
    fn take_partition(&mut self, curve: Curve, max_level: u8) -> Result<Part, IoError> {
        // Invariant: only called after `peek_key` returned `Some`, so a
        // pending record exists.
        let first = self.pending.take().expect("cursor exhausted");
        let code = first.code;
        match self.collect(code, vec![first.kpe]) {
            Ok(rects) => Ok(self.make_part(code, rects, curve, max_level)),
            Err(e) if e.kind.is_persistent() => {
                // Re-reads of a damaged page fail identically, so retrying
                // the file is pointless: switch to the replay and restart
                // the in-flight partition from its first record (the
                // partially collected rects were never joined or emitted).
                self.quarantine(Some(code));
                let first = self
                    .pending
                    .take()
                    .expect("rebuilt level lost the in-flight partition");
                debug_assert_eq!(first.code, code, "replay resumed at the wrong partition");
                let rects = self.collect(code, vec![first.kpe])?;
                Ok(self.make_part(code, rects, curve, max_level))
            }
            Err(e) => Err(e),
        }
    }
}

struct JoinCtx<'a> {
    cfg: &'a S3jConfig,
    internal: Box<dyn InternalJoin + Send>,
    counts: Counts,
}

impl<'a> JoinCtx<'a> {
    fn new(cfg: &'a S3jConfig) -> Self {
        JoinCtx {
            cfg,
            internal: cfg.internal.create(),
            counts: (0, 0, 0),
        }
    }

    /// Joins a pair of partitions where `deeper` is the one with the finer
    /// (or equal) cell. With replication, the modified RPM (§4.3) reports a
    /// pair only if its reference point lies in the deeper partition's cell.
    fn join_parts(
        &mut self,
        deeper: &mut Part,
        other: &mut Part,
        out: &mut dyn FnMut(RecordId, RecordId),
    ) {
        debug_assert!(deeper.level >= other.level);
        let replicate = self.cfg.replicate;
        let cell = deeper.cell;
        let mut candidates = 0u64;
        let mut results = 0u64;
        let mut duplicates = 0u64;
        // Orientation: callback receives (r, s) ids.
        let flip = deeper.rel == 0; // deeper from R => internal args (other=s? no)
        let (r_slice, s_slice) = if flip {
            (&mut deeper.rects, &mut other.rects)
        } else {
            (&mut other.rects, &mut deeper.rects)
        };
        self.internal.join(r_slice, s_slice, &mut |a, b| {
            candidates += 1;
            if replicate {
                if cell.contains_point(reference_point(&a.rect, &b.rect)) {
                    results += 1;
                    out(a.id, b.id);
                } else {
                    duplicates += 1;
                }
            } else {
                results += 1;
                out(a.id, b.id);
            }
        });
        self.counts.0 += candidates;
        self.counts.1 += results;
        self.counts.2 += duplicates;
    }

    /// The counted work of this context's joins so far.
    fn work(&self) -> Work {
        self.cfg.internal.work(&self.internal.counters())
    }

    /// Folds this (per-scan or per-worker) context into the run's stats:
    /// counts are pure sums.
    fn fold_into(self, stats: &mut S3jStats) {
        let (candidates, results, duplicates) = self.counts;
        // Every candidate was either reported or suppressed by the modified
        // reference-point test (duplicates are 0 in the unreplicated
        // original), regardless of how chunks were interleaved across
        // workers.
        debug_assert_eq!(candidates, results + duplicates, "S3J accounting broken");
        stats.add_counts(self.counts);
        stats.join_counters.merge(&self.internal.counters());
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
/// model never damages. The spare is created before `damaged` is reclaimed
/// so it inherits the channel; page charges for the rewrite are real, only
/// the doomed re-sort is skipped. On a write failure the spare is deleted
/// and the error surfaces.
fn rebuild_sorted_to_spare(
    disk: &SimDisk,
    damaged: FileId,
    reclaim: bool,
    level: u8,
    src: LevelSource<'_>,
    buffer_pages: usize,
) -> Result<FileId, IoError> {
    let recs = src.rebuild(level);
    let spare = disk.create_spare_like(damaged);
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

/// Runs S³J on `r ⋈ s`, invoking `out` for every result pair.
///
/// Reading the inputs and delivering the output are free of charge (paper
/// §2); level files, sort runs and the join scan are fully accounted on
/// `disk`.
///
/// Failure semantics: every page request already retried under the disk's
/// [`storage::RetryPolicy`]; an error reaching this layer is terminal and
/// surfaces as a typed [`JoinError`] naming the phase (`"build"`, `"sort"`,
/// `"scan"`), after all intermediate files have been deleted. The parallel
/// scan's workers are pure CPU — the coordinator performs all discovery
/// I/O — so errors arise only from build, sort, and the discovery scan.
///
/// Run control (`ctl`): cooperative cancellation, a simulated-time deadline
/// (both checked per level file in the build/sort phases and per discovered
/// partition in the scan), and — when [`RunControl::checkpoint`] is set —
/// durable per-partition commits with exactly-once resume;
/// [`RunControl::none`] changes nothing.
///
/// The journal's work unit is the *discovered partition*: the synchronized
/// scan pops partitions off the cursor heap in a deterministic pre-order,
/// so numbering them in discovery order is stable across runs and thread
/// counts. Each candidate pair arises in exactly one discovery event (the
/// deeper partition joining the other relation's root path), and the
/// modified RPM (§4.3) reports a pair only in its reference-point cell, so
/// skipping journal-committed partitions on resume is duplicate-free — for
/// the original unreplicated S³J trivially so, since no pair is ever seen
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
        let build = |data: &[Kpe]| {
            let (shift, pages) = (cfg.level_shift, cfg.level_buffer_pages);
            LevelFiles::try_build(disk, data, cfg.max_level, cfg.curve, cfg.replicate, shift, pages)
                .map_err(|e| JoinError::new("build", e))
        };
        // Each record is assigned its level(s); each copy is coded, written.
        let work = |data: &[Kpe], lf: &LevelFiles| Work {
            assigned: data.len() as u64,
            copies: lf.copies,
            codes: lf.code_computations,
            ..Work::default()
        };
        let lf_r = build(r)?;
        stats.work_partition = work(r, &lf_r);
        if let Some(e) = charge(&stats.work_partition) {
            lf_r.delete(disk);
            return Err(e);
        }
        let lf_s = build(s).inspect_err(|_| lf_r.delete(disk))?;
        stats.work_partition += work(s, &lf_s);
        if let Some(e) = charge(&stats.work_partition) {
            lf_r.delete(disk);
            lf_s.delete(disk);
            return Err(e);
        }
        stats.copies_r = lf_r.copies;
        stats.copies_s = lf_s.copies;
        stats.histogram_r = lf_r.histogram.clone();
        stats.histogram_s = lf_s.histogram.clone();
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
        // A sort failure (or interruption) is latched; later level files
        // are skipped and every already-sorted file is cleaned up before
        // the error surfaces. Without a checkpoint each unsorted file is
        // deleted as soon as it is consumed; a durable run keeps them until
        // the `Join` manifest — which references the sorted files instead —
        // is published, so an interrupted sort phase stays resumable.
        let elapsed = || disk.io_seconds() + model.priced_cpu(&clock.get());
        let mut sort_err: Option<JoinError> = None;
        let sort_levels = |lf: &[Option<FileId>],
                           src: LevelSource<'_>,
                           stats: &mut S3jStats,
                           err: &mut Option<JoinError>|
         -> Vec<Option<FileId>> {
            lf.iter()
                .enumerate()
                .map(|(level, f)| {
                    f.and_then(|f| {
                        if err.is_none() {
                            *err = ctl.charge("sort", elapsed);
                        }
                        if err.is_some() {
                            if !checkpointing {
                                disk.delete(f);
                            }
                            return None;
                        }
                        let sorted = disk.try_len(f).unwrap_or(0) / LevelRecord::SIZE as u64;
                        clock.set(clock.get() + Work { sorted, ..Work::default() });
                        match try_external_sort_by::<LevelRecord, _, _>(
                            disk,
                            f,
                            cfg.mem_bytes,
                            |r| r.code,
                        ) {
                            Ok((sorted, st)) => {
                                if !checkpointing {
                                    disk.delete(f);
                                }
                                stats.sort_runs += st.runs;
                                stats.sort_passes_max = stats.sort_passes_max.max(st.merge_passes);
                                Some(sorted)
                            }
                            Err(e) if e.kind.is_persistent() => {
                                // Persistent damage (or ENOSPC in the sort's
                                // scratch): the external sort can never
                                // finish this file. Quarantine it and
                                // rewrite the level, recomputed from source
                                // and sorted in memory, through a spare file
                                // on the same channel — the remapped-sector
                                // analogue — exempt from further damage.
                                // Reclaiming the doomed unsorted file also
                                // frees its budget, so the direct rewrite
                                // can fit where sort scratch could not (a
                                // durable run keeps it: its manifest is
                                // what a resume re-sorts from).
                                match rebuild_sorted_to_spare(
                                    disk,
                                    f,
                                    !checkpointing,
                                    level as u8,
                                    src,
                                    cfg.level_buffer_pages,
                                ) {
                                    Ok(spare) => {
                                        stats.quarantined_levels += 1;
                                        Some(spare)
                                    }
                                    Err(e2) => {
                                        *err = Some(JoinError::new("sort", e2));
                                        None
                                    }
                                }
                            }
                            Err(e) => {
                                if !checkpointing {
                                    disk.delete(f);
                                }
                                *err = Some(JoinError::new("sort", e));
                                None
                            }
                        }
                    })
                })
                .collect()
        };
        let sorted_r = sort_levels(
            &unsorted_r,
            LevelSource::for_rel(cfg, r, s, 0),
            &mut stats,
            &mut sort_err,
        );
        let sorted_s = sort_levels(
            &unsorted_s,
            LevelSource::for_rel(cfg, r, s, 1),
            &mut stats,
            &mut sort_err,
        );
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
    let threads = parallel::resolve_threads(cfg.threads);
    let cpu_base = clock.get();
    // Simulated time so far — what the deadline is charged against at every
    // discovered partition (S³J scan workers do no I/O, so the
    // coordinator's meter is the whole story).
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
    let scan_res = if !matches!(cfg.scan, ScanMode::HeapMerge) {
        pair_scan(&scan, &mut stats, &mut run, out)
    } else if threads > 1 {
        heap_scan_pool(&scan, threads, &mut stats, &mut run, out)
    } else {
        heap_scan(&scan, &mut stats, &mut run, out)
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
    /// Where a sequential scan stands on the run's clock: the priced work
    /// before the unit being joined, and the meter now. It emits in
    /// discovery order against a monotone meter, so its first delivery is
    /// already the minimum; reading the meter at that moment matches the
    /// pool's probe exactly on the I/O axis (discovery I/O through the
    /// emitting partition, plus its commit when checkpointed).
    fn position(&self) -> ClockPos {
        (self.clock.get(), self.disk.stats().delta(&self.io0))
    }

    /// Advances the priced clock by `work`.
    fn tick(&self, work: Work) {
        self.clock.set(self.clock.get() + work);
    }

    /// §4.4.3, the discovery traversal shared by the sequential scan and the
    /// pool: one pass over all level files, merged by a heap of cursors in
    /// pre-order; per relation a stack of the partitions on the current
    /// root path. `visit` gets each new partition with its discovery index
    /// — stable across runs and thread counts, hence the journal's work
    /// unit — and the other relation's stack: its cell's ancestors-or-equal,
    /// so the new partition is always the deeper side of every pair. It
    /// returns what goes on the partition's own stack; a resumed run's
    /// committed partitions are not joined but still feed the stacks.
    fn discover<P: std::borrow::Borrow<Part>>(
        &self,
        stats: &mut S3jStats,
        mut visit: impl FnMut(u32, Part, &mut [P]) -> Result<P, JoinError>,
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
        let mut heap: BinaryHeap<Reverse<(u64, u8, usize, usize)>> = BinaryHeap::new();
        for (i, c) in cursors.iter().enumerate() {
            if let Some((start, level, rel)) = c.peek_key(max_level) {
                heap.push(Reverse((start, level, rel, i)));
            }
        }
        let mut stacks: [Vec<P>; 2] = [Vec::new(), Vec::new()];
        let mut resident = 0usize;
        let mut d: u32 = 0; // discovery index
        while let Some(Reverse((_, _, _, ci))) = heap.pop() {
            // Interruption check at partition granularity; a checkpointed
            // run's committed prefix stays durable and resumable.
            if let Some(e) = self.ctl.charge("scan", self.elapsed) {
                return Err(e);
            }
            let part = cursors[ci]
                .take_partition(self.cfg.curve, max_level)
                .map_err(to_err)?;
            self.tick(PARTITION);
            if let Some((st, lv, rl)) = cursors[ci].peek_key(max_level) {
                heap.push(Reverse((st, lv, rl, ci)));
            }
            // Unwind both stacks to the root path of the new cell.
            for stack in stacks.iter_mut() {
                while let Some(top) = stack.last().map(|p| p.borrow()) {
                    if top.start <= part.start && part.start < top.end {
                        break; // ancestor (or equal): keep
                    }
                    resident -= top.rects.len() * Kpe::ENCODED_SIZE;
                    stack.pop();
                }
            }
            let rel = part.rel;
            resident += part.rects.len() * Kpe::ENCODED_SIZE;
            stats.peak_partition_bytes = stats.peak_partition_bytes.max(resident);
            let part = visit(d, part, &mut stacks[1 - rel])?;
            stacks[rel].push(part);
            d += 1;
        }
        stats.quarantined_levels += cursors.iter().filter(|c| c.quarantined).count() as u32;
        Ok(())
    }
}

/// The sequential synchronized scan: every discovered partition with
/// something on the other relation's root path is one unit, joined inline
/// against that path and streamed through the run driver. Partitions with
/// nothing to join against do no work and are never journaled.
fn heap_scan(
    scan: &Scan<'_>,
    stats: &mut S3jStats,
    run: &mut UnitRun<'_>,
    out: &mut dyn FnMut(RecordId, RecordId),
) -> Result<(), JoinError> {
    let mut ctx = JoinCtx::new(scan.cfg);
    let position: &dyn Fn() -> ClockPos = &|| scan.position();
    let res = scan.discover(stats, |d, mut part: Part, others: &mut [Part]| {
        if !others.is_empty() && !run.is_committed(d) {
            let body = |emit: &mut dyn FnMut(RecordId, RecordId)| {
                let ((c0, r0, d0), w0) = (ctx.counts, ctx.work());
                for q in others.iter_mut() {
                    ctx.join_parts(&mut part, q, emit);
                }
                scan.tick(ctx.work() - w0);
                let (c, r, d) = ctx.counts;
                Ok((c - c0, r - r0, d - d0))
            };
            run.stream(d, (!run.probed()).then_some(position), scan.elapsed, body, out)?;
        }
        Ok(part)
    });
    ctx.fold_into(stats);
    res
}

/// Parallel variant of [`heap_scan`]: the discovery traversal runs unchanged
/// on the coordinator — it is the only I/O — but instead of joining inline,
/// every (new partition, stack entry) pair is queued over `Arc`-shared
/// partitions and workers claim contiguous chunks of the queue. Workers join
/// pristine clones (internal joins reorder rects in place) and buffer their
/// result pairs; the pool re-assembles chunk outputs in discovery order, so
/// the emitted stream is identical to the sequential scan, and the modified
/// RPM (§4.3) keeps the union of task outputs duplicate-free no matter how
/// tasks interleave. On the priced clock discovery comes first, then the
/// units on the replayed pool ([`Schedule`]).
fn heap_scan_pool(
    scan: &Scan<'_>,
    threads: usize,
    stats: &mut S3jStats,
    run: &mut UnitRun<'_>,
    out: &mut dyn FnMut(RecordId, RecordId),
) -> Result<(), JoinError> {
    use std::convert::Infallible;
    use std::sync::Arc;

    let Scan { disk, cfg, ctl, .. } = *scan;
    let model = disk.model();
    let mut tasks: Vec<(Arc<Part>, Arc<Part>)> = Vec::new();
    // Per task: the run-relative I/O meter right after its partition's
    // discovery read — exactly the sequential scan's meter position when it
    // would join that partition (scan workers do no I/O). Feeds the
    // pipelined first-result probe; kept aligned with `tasks`.
    let mut snaps: Vec<IoStats> = Vec::new();
    // The task ranges of the uncommitted discovered partitions.
    let mut partitions: Vec<(u32, std::ops::Range<usize>)> = Vec::new();
    scan.discover(stats, |d, part, others: &mut [Arc<Part>]| {
        let part = Arc::new(part);
        // A resumed run skips committed partitions: the crashed process
        // already emitted their pairs after the commit.
        if !others.is_empty() && !run.is_committed(d) {
            let snap = disk.stats().delta(&scan.io0);
            partitions.push((d, tasks.len()..tasks.len() + others.len()));
            for q in others.iter() {
                tasks.push((Arc::clone(&part), Arc::clone(q)));
                snaps.push(snap);
            }
        }
        Ok(part)
    })?;
    let discovered_work = scan.clock.get();
    // The coordinator's only I/O from here on is the units' commits, so the
    // live meter less this reading is the scan's commit I/O so far.
    let discovered = disk.stats();

    // S³J partition pairs are tiny (often a handful of rects), so a task
    // per pair would drown in per-task overhead. Workers instead claim
    // contiguous *chunks* of the discovery-ordered pair list; chunk outputs
    // re-assemble in chunk order, which is discovery order. Under a
    // checkpoint the unit is one discovered partition's pair range instead
    // — the span a journal record covers — so commits align with units.
    let units: Vec<(u32, std::ops::Range<usize>)> = if run.checkpointing() {
        partitions
    } else {
        let chunk = tasks.len().div_ceil(threads * 16).max(1);
        (0..tasks.len().div_ceil(chunk))
            .map(|c| (c as u32, c * chunk..tasks.len().min((c + 1) * chunk)))
            .collect()
    };
    let mut schedule = Schedule::new(threads);
    // Where the phase stands, for the delivery events.
    let now = |schedule: &Schedule, io: &IoStats| {
        model.at(&(discovered_work + schedule.span().1), &scan.io0.plus(io))
    };
    // The one pool, as a plain ordered one: scan workers do no I/O (nothing
    // to load ahead) and cannot fail (nothing to requeue).
    let (workers, _) = parallel::run_ordered_prefetch_fallible_with(
        threads,
        units.len(),
        0,
        Some(&ctl.cancel),
        |_w| {
            (
                JoinCtx::new(cfg),
                // Scratch rect buffers, reused across tasks: internal joins
                // reorder rects in place, so each task needs private copies,
                // but per-task Vec allocations would serialise the pool on
                // the allocator lock.
                (Vec::new(), Vec::new()),
            )
        },
        |_, _, _| (),
        |(ctx, scratch), u, _round, ()| {
            let ((cand0, res0, dup0), w0) = (ctx.counts, ctx.work());
            let mut pairs = Vec::new();
            // The global task index of this unit's first produced pair.
            let mut first: Option<usize> = None;
            let range = units[u].1.clone();
            for (i, (deeper, other)) in tasks[range.clone()].iter().enumerate() {
                let mut deeper = deeper.copy_into(std::mem::take(&mut scratch.0));
                let mut other = other.copy_into(std::mem::take(&mut scratch.1));
                ctx.join_parts(&mut deeper, &mut other, &mut |a, b| {
                    first.get_or_insert(range.start + i);
                    pairs.push((a, b));
                });
                scratch.0 = deeper.rects;
                scratch.1 = other.rects;
            }
            let (cand, res, dup) = ctx.counts;
            Ok::<_, Infallible>((pairs, (cand - cand0, res - res0, dup - dup0), first, ctx.work() - w0))
        },
        |u, finished| {
            let Ok((pairs, counts, first, work)) = finished;
            let (unit, range) = &units[u];
            // Deadline at unit granularity on the coordinator (workers do
            // no I/O, so its meter is the whole simulated-time story).
            run.poll("scan", || {
                disk.io_seconds() + model.priced_cpu(&(discovered_work + schedule.span().1))
            });
            // Where a sequential scan's run-relative meter stands once it
            // has joined this unit: discovery through its last partition
            // plus the scan's commits so far.
            let seq_io = || snaps[range.end - 1].plus(&disk.stats().delta(&discovered));
            let start = discovered_work + schedule.place(work).1;
            let finished = FinishedUnit {
                pairs,
                counts,
                io: IoStats::default(),
                first: first.map(|task| (start, snaps[task])),
                done: (start + work, seq_io()),
            };
            run.deliver(*unit, Ok(finished), &|| now(&schedule, &seq_io()), out);
        },
    );
    for (ctx, _scratch) in workers {
        ctx.fold_into(stats);
    }
    // Discovery came first, the replayed pool after it. Without a checkpoint
    // nothing below discovery can fail: the tasks are pure CPU.
    scan.tick(schedule.span().1);
    if ctl.observed() {
        ctl.event(
            "pool-drained",
            (scan.elapsed)(),
            &[
                ("units", units.len() as u64),
                ("tasks", tasks.len() as u64),
                ("threads", threads as u64),
            ],
        );
    }
    run.settle("scan", scan.elapsed)
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
    // The next whole partition of `c`, or `None` at end of file.
    let next_part = |c: &mut Cursor<'_>| -> Result<Option<Part>, IoError> {
        if c.pending.is_none() {
            return Ok(None);
        }
        let part = c.take_partition(cfg.curve, cfg.max_level)?;
        scan.tick(PARTITION);
        Ok(Some(part))
    };
    let mut ctx = JoinCtx::new(cfg);
    let position = scan.position();
    let body = |out: &mut dyn FnMut(RecordId, RecordId)| {
        for (lr, fr) in sorted_r.iter().enumerate() {
            let Some(fr) = fr else { continue };
            for (ls, fs) in sorted_s.iter().enumerate() {
                let Some(fs) = fs else { continue };
                // Interruption check once per level-file pair: the ablation
                // scan has no partition-discovery loop on the coordinator to
                // hook into, so cancellation is coarser here.
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
                let mut pa = next_part(&mut a).map_err(to_err)?;
                let mut pb = next_part(&mut b).map_err(to_err)?;
                while let (Some(ca), Some(cb)) = (&mut pa, &mut pb) {
                    if ca.start <= cb.start && cb.start < ca.end {
                        // `ca` covers `cb`: join (cb is the deeper partition).
                        stats.peak_partition_bytes = stats.peak_partition_bytes.max(
                            (ca.rects.len() + cb.rects.len()) * Kpe::ENCODED_SIZE,
                        );
                        let w0 = ctx.work();
                        ctx.join_parts(cb, ca, out);
                        scan.tick(ctx.work() - w0);
                        pb = next_part(&mut b).map_err(to_err)?;
                    } else if ca.end <= cb.start {
                        pa = next_part(&mut a).map_err(to_err)?;
                    } else {
                        pb = next_part(&mut b).map_err(to_err)?;
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
            // hunt seeds until one lands on a level file (unsorted — the
            // sort-phase rebuild — or sorted — the scan-phase cursor
            // replay); every seed, hit or miss, must still produce the
            // exact result set.
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

    #[test]
    fn level_quarantine_is_thread_invariant() {
        use storage::{FaultPlan, RetryPolicy};
        let (r0, s0) = tiger_pair(1200);
        let (r, s) = (scale(&r0, 3.0), scale(&s0, 3.0));
        // Damage keys on (seed, channel, page) — not on who reads — and the
        // discovery scan is coordinator-only at every thread count, so the
        // sequential and parallel scans quarantine the same levels and emit
        // the same results.
        let run_t = |threads: usize, seed: u64| {
            let disk = SimDisk::with_default_model().with_faults(
                FaultPlan::persistent(seed).with_persistent_rate(0.05),
                RetryPolicy::default(),
            );
            let cfg = S3jConfig {
                mem_bytes: 48 * 1024,
                max_level: 9,
                threads,
                ..Default::default()
            };
            let mut got = Vec::new();
            let stats = try_s3j_join_ctl(&disk, &r, &s, &cfg, &RunControl::none(), &mut |a, b| got.push((a.0, b.0)))
                .expect("quarantine covers persistent damage");
            got.sort_unstable();
            (got, stats)
        };
        for seed in [3u64, 11, 29] {
            let (got1, st1) = run_t(1, seed);
            let (got4, st4) = run_t(4, seed);
            assert_eq!(got1, got4, "seed {seed}");
            assert_eq!(st1.quarantined_levels, st4.quarantined_levels, "seed {seed}");
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
            let lf = LevelFiles::build(&disk, &r, 9, Curve::Peano, replicate, shift, 1);
            for level in lf.occupied_levels() {
                let mut on_disk: Vec<LevelRecord> =
                    read_all(&disk, lf.files[level as usize].unwrap(), 1);
                on_disk.sort_by_key(|rec| rec.code);
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
        let run_ch = |channels: usize, threads: usize| {
            let disk = SimDisk::new(DiskModel {
                channels,
                cpu_slowdown: 0.0,
                ..Default::default()
            });
            let cfg = S3jConfig {
                mem_bytes: 48 * 1024,
                max_level: 9,
                threads,
                ..Default::default()
            };
            let mut got = Vec::new();
            let stats = s3j_join(&disk, &r, &s, &cfg, &mut |a, b| got.push((a.0, b.0)));
            got.sort_unstable();
            (got, stats)
        };
        let (res1, st1) = run_ch(1, 1);
        let (res4, st4) = run_ch(4, 1);
        let (res4t, st4t) = run_ch(4, 4);
        // Results and counters are channel- and thread-invariant.
        assert_eq!(res1, res4);
        assert_eq!(res4, res4t);
        assert_eq!(st1.io_total(), st4.io_total());
        assert_eq!(st4.io_total(), st4t.io_total());
        // The channel meters are an exact decomposition of the total.
        assert_eq!(st1.clock.io_channels.len(), 1);
        assert_eq!(st4.clock.io_channels.len(), 4);
        for st in [&st1, &st4, &st4t] {
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
        assert_eq!(st4.total_seconds(), st4t.total_seconds());
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
