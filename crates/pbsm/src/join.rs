use std::cell::Cell;
use std::time::Instant;

use geom::{reference_point, Kpe, RecordId, Rect};
use storage::{
    try_external_sort_by, try_read_all, Counts, DiskModel, Fanout, FileId, FinishedUnit, IdPair,
    IoError, IoStats, JoinError, RecordReader, RecordWriter, RunClock, RunControl, RunPhase, Schedule,
    SimDisk, SortStats, UnitRun, Work,
};
use sweep::{forward_scan, sweep_strips, InternalAlgo, InternalJoin, JoinCounters, Strip};

use crate::grid::{PartitionMap, RegionChain, TileGrid, TileScheme};

/// Maximum repartitioning recursion before a pair is joined over-budget
/// (guards against pathological replication blow-up).
const MAX_REPART_DEPTH: u32 = 12;

/// Duplicate-handling strategy of the final phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dedup {
    /// Original PBSM ([PD 96]): materialise all candidates, sort them
    /// (externally if necessary), drop equal neighbours. Blocks the
    /// pipeline and pays I/O proportional to the result size (Figure 3a).
    SortPhase,
    /// This paper's online Reference Point Method: report a pair only when
    /// its reference point lies in the region of the current partition.
    #[default]
    ReferencePoint,
    /// Diagnostic mode: emit raw candidates, duplicates included. Used by
    /// tests to observe the replication-induced duplication rate.
    None,
    /// Two-layer space-oriented partitioning (Tsitsigkos et al.): inside a
    /// partition every record is bucketed per overlapped tile and classified
    /// by where its lower-left corner starts, and only the nine class
    /// combinations that can contain a pair's reference point are joined.
    /// Exactly-once by construction — no per-candidate duplicate test at
    /// all, and most combinations need only 2–3 border comparisons instead
    /// of the full intersection test. A structural generalisation of RPM.
    TwoLayer,
}

/// PBSM tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct PbsmConfig {
    /// Memory budget `M` in bytes for the join phase (and sort phase).
    pub mem_bytes: usize,
    /// Safety factor `t > 1` applied inside formula (1) (§3.2.3).
    pub safety_factor: f64,
    /// Tiles per partition (`NT = P ·` this; §3.1 suggests `NT ≥ P`).
    pub tiles_per_partition: u32,
    /// In-memory join algorithm for partition pairs.
    pub internal: InternalAlgo,
    /// Duplicate handling.
    pub dedup: Dedup,
    /// Tile→partition assignment scheme.
    pub tile_scheme: TileScheme,
    /// Write-buffer pages per partition file during partitioning.
    pub partition_buffer_pages: usize,
    /// Buffer pages for sequential scans (loading pairs, candidates).
    pub io_buffer_pages: usize,
    /// Salt for the tile hash.
    pub seed: u64,
    /// Worker threads for the partition-pair join phase (phases 2+3).
    /// `0` means "all available cores"; `1` runs the sequential code path.
    /// The result stream and all deterministic counters are identical for
    /// every value — partition pairs are tagged and re-assembled in
    /// canonical order.
    pub threads: usize,
    /// How many times a partition task that failed terminally (its retry
    /// budget and repartition fallback both exhausted) may be requeued onto
    /// another worker before the error propagates. Only the parallel
    /// executor requeues; the sequential path degrades in place.
    pub max_partition_requeues: u32,
}

impl Default for PbsmConfig {
    fn default() -> Self {
        PbsmConfig {
            mem_bytes: 8 << 20,
            safety_factor: 1.2,
            tiles_per_partition: 4,
            internal: InternalAlgo::PlaneSweepList,
            dedup: Dedup::ReferencePoint,
            tile_scheme: TileScheme::Hash,
            partition_buffer_pages: 1,
            io_buffer_pages: 4,
            seed: 0x5EED,
            threads: 0,
            max_partition_requeues: 1,
        }
    }
}

/// Everything PBSM measured while running.
#[derive(Debug, Clone, Default)]
pub struct PbsmStats {
    pub partitions: u32,
    pub grid: TileGrid,
    /// KPE copies written during partitioning (≥ input size; the excess is
    /// the replication the Reference Point Method exists to pay for).
    pub copies_r: u64,
    pub copies_s: u64,
    /// KPE copies written while repartitioning.
    pub repart_copies: u64,
    /// Partition pairs that had to be repartitioned.
    pub repartitioned_pairs: u32,
    /// Deepest repartitioning recursion reached.
    pub repart_depth: u32,
    /// Pairs emitted by the internal joins before duplicate handling.
    pub candidates: u64,
    /// Final (duplicate-free, except [`Dedup::None`]) result count.
    pub results: u64,
    /// Duplicates suppressed online (RPM) or removed by the sort phase.
    pub duplicates: u64,
    /// Partition tasks re-run on another worker after a terminal failure.
    pub requeued_partitions: u32,
    /// Partition pairs whose load exhausted the retry budget and that fell
    /// back to recursive repartitioning (graceful degradation).
    pub degraded_partitions: u32,
    /// Partition pairs abandoned to persistent media damage and recomputed
    /// in memory from the source relations (quarantine-recompute). RPM's
    /// stateless per-pair reference-point test keeps the recompute leg
    /// duplicate-free, so the output is identical to an undamaged run's.
    pub quarantined_partitions: u32,
    /// Times the partition phase hit simulated ENOSPC and fell back to a
    /// smaller-footprint plan (coarser tiling, then the in-memory
    /// single-partition path).
    pub enospc_fallbacks: u32,
    /// Durable per-partition journal commits performed by this run (zero
    /// unless the run is checkpointed).
    pub checkpoint_commits: u64,
    pub join_counters: JoinCounters,
    pub io_partition: IoStats,
    pub io_repart: IoStats,
    pub io_join: IoStats,
    pub io_dedup: IoStats,
    /// I/O spent on durability (manifest publishes, journal commits, result
    /// flushes) when the run is checkpointed; zero otherwise.
    pub io_checkpoint: IoStats,
    /// Counted CPU work per phase, the simulated clock's CPU leg. On the
    /// parallel path joining and repartitioning are the shares of the
    /// replayed pool's most-loaded worker ([`storage::Schedule`]).
    pub work_partition: Work,
    pub work_repart: Work,
    pub work_join: Work,
    pub work_dedup: Work,
    /// Host CPU seconds per phase, timed by the coordinator (the host
    /// clock). Repartitioning runs inside the join phase's units, so its
    /// host time is in `cpu_join` and `cpu_repart` stays zero.
    pub cpu_partition: f64,
    pub cpu_repart: f64,
    pub cpu_join: f64,
    pub cpu_dedup: f64,
    pub sort: Option<SortStats>,
    /// Model, channel decomposition (partition files ride channel
    /// `pid mod D`, repartition sub-files their top-level partition's
    /// channel; the dedup scratch disk rides the shared lane) and the
    /// first-result position: the emitting unit's start on the priced clock
    /// plus its own I/O (its reads, repartition writes and — when
    /// checkpointed — commit I/O) up to its first pair.
    pub clock: RunClock,
}

impl PbsmStats {
    fn new(model: DiskModel) -> Self {
        PbsmStats {
            grid: TileGrid { gx: 1, gy: 1 },
            clock: RunClock::new(model),
            ..PbsmStats::default()
        }
    }

    pub fn io_total(&self) -> IoStats {
        self.io_partition
            .plus(&self.io_repart)
            .plus(&self.io_join)
            .plus(&self.io_dedup)
            .plus(&self.io_checkpoint)
    }

    /// Host CPU seconds (the host clock).
    pub fn cpu_seconds(&self) -> f64 {
        self.cpu_partition + self.cpu_repart + self.cpu_join + self.cpu_dedup
    }

    /// Counted CPU work on the run's critical path.
    pub fn work(&self) -> Work {
        self.work_partition + self.work_repart + self.work_join + self.work_dedup
    }

    pub fn io_seconds(&self) -> f64 {
        self.clock.model.seconds(&self.io_total())
    }

    /// Priced CPU seconds on the emulated 1999 machine.
    pub fn scaled_cpu_seconds(&self) -> f64 {
        self.clock.model.priced_cpu(&self.work())
    }

    /// The paper's "total runtime" on the multi-channel clock
    /// ([`RunClock::total_seconds`]).
    pub fn total_seconds(&self) -> f64 {
        self.clock.total_seconds(&self.work())
    }

    /// Fraction of the total runtime spent repartitioning (Figure 6).
    pub fn repart_fraction(&self) -> f64 {
        let repart = self.clock.model.at(&self.work_repart, &self.io_repart);
        if self.total_seconds() > 0.0 {
            repart / self.total_seconds()
        } else {
            0.0
        }
    }

    /// Replication rate: copies written per input KPE.
    pub fn replication_rate(&self, input_len: usize) -> f64 {
        (self.copies_r + self.copies_s) as f64 / input_len.max(1) as f64
    }

    /// Folds a per-worker partial into this stats struct — the deterministic
    /// reduction of the parallel executor. Work counts and I/O counters are
    /// pure sums (independent of worker interleaving); the recursion depth
    /// takes the max. Run-level fields (`partitions`, `grid`, `sort`, both
    /// phase clocks — the coordinator times the phase and replays the pool
    /// — and the `clock`, which it closes from the disk's per-channel meters
    /// after all forks fold back) belong to the coordinating run and are
    /// kept from `self`.
    pub fn merge(&mut self, other: &PbsmStats) {
        self.copies_r += other.copies_r;
        self.copies_s += other.copies_s;
        self.repart_copies += other.repart_copies;
        self.repartitioned_pairs += other.repartitioned_pairs;
        self.repart_depth = self.repart_depth.max(other.repart_depth);
        self.candidates += other.candidates;
        self.results += other.results;
        self.duplicates += other.duplicates;
        self.requeued_partitions += other.requeued_partitions;
        self.degraded_partitions += other.degraded_partitions;
        self.quarantined_partitions += other.quarantined_partitions;
        self.enospc_fallbacks += other.enospc_fallbacks;
        self.checkpoint_commits += other.checkpoint_commits;
        self.join_counters.merge(&other.join_counters);
        self.io_partition = self.io_partition.plus(&other.io_partition);
        self.io_repart = self.io_repart.plus(&other.io_repart);
        self.io_join = self.io_join.plus(&other.io_join);
        self.io_dedup = self.io_dedup.plus(&other.io_dedup);
        self.io_checkpoint = self.io_checkpoint.plus(&other.io_checkpoint);
    }

    fn counts(&self) -> Counts {
        (self.candidates, self.results, self.duplicates)
    }

    fn add_counts(&mut self, (candidates, results, duplicates): Counts) {
        self.candidates += candidates;
        self.results += results;
        self.duplicates += duplicates;
    }

    /// The join phase's work so far: what a unit adds is its own.
    fn unit_work(&self) -> Work {
        self.work_join + self.work_repart
    }
}

/// The key/`yl`/`yh` columns of one tile's class buckets, per side and class
/// (`xl`-keyed for A and B, `xh`-keyed descending for C and D); refilled for
/// every tile of a two-layer join.
#[derive(Default)]
struct TileStrips {
    r: [Strip; 4],
    s: [Strip; 4],
}

struct Ctx<'a> {
    disk: &'a SimDisk,
    cfg: &'a PbsmConfig,
    internal: &'a mut (dyn InternalJoin + Send),
    /// Two-layer scratch, owned by the executor (one per pool worker) so no
    /// tile allocates columns of its own.
    strips: &'a mut TileStrips,
    stats: &'a mut PbsmStats,
    /// The source relations, kept around so a partition file lost to
    /// *persistent* media damage can be quarantined and its pair recomputed
    /// in memory (source reads are free of charge per the paper's cost
    /// model, §2 — the inputs live outside the simulated disk).
    sources: (&'a [Kpe], &'a [Kpe]),
}

/// Runs PBSM on `r ⋈ s`, invoking `out` for every result pair.
///
/// Infallible wrapper over [`try_pbsm_join_ctl`] without run control; panics
/// with the typed error's message if a request exhausts the disk's retry
/// budget and every degradation path (impossible on a fault-free disk).
pub fn pbsm_join(
    disk: &SimDisk,
    r: &[Kpe],
    s: &[Kpe],
    cfg: &PbsmConfig,
    out: &mut dyn FnMut(RecordId, RecordId),
) -> PbsmStats {
    try_pbsm_join_ctl(disk, r, s, cfg, &RunControl::none(), out)
        .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
}

/// Runs PBSM on `r ⋈ s`, invoking `out` for every result pair.
///
/// Reading the inputs and delivering the output are free of charge, per the
/// paper's cost model (§2); all intermediate files (partitions, repartitions,
/// candidate sets) live on `disk` and are fully accounted.
///
/// Failure semantics: every page request already retried under the disk's
/// [`storage::RetryPolicy`] before an error reaches this layer. A partition
/// pair whose load still fails *degrades gracefully* into recursive
/// repartitioning (counted in [`PbsmStats::degraded_partitions`]) — safe
/// because a failed load has emitted nothing, and the refined sub-regions
/// keep the output duplicate-free. On the parallel path a terminally failed
/// task is requeued onto another worker up to
/// [`PbsmConfig::max_partition_requeues`] times; its buffered output is
/// discarded, so nothing is double-emitted. Only when all of that is
/// exhausted does the typed [`JoinError`] surface. Failed attempts, retries
/// and backoff stay charged to the disk meter either way.
///
/// Run control (`ctl`): cooperative cancellation, a simulated-time deadline
/// (both checked at partition granularity, and the deadline once more at
/// the run's last position), and — when [`RunControl::checkpoint`] is set —
/// durable per-partition commits with exactly-once resume;
/// [`RunControl::none`] changes nothing.
///
/// Checkpointing requires [`Dedup::ReferencePoint`] or [`Dedup::TwoLayer`]:
/// both attribute every result pair to exactly one top-level partition (the
/// one owning the pair's reference point / reference tile), which is what
/// makes skipping journal-committed partitions duplicate-free. The
/// sort-phase dedup classifies pairs only after a *global* sort and the
/// diagnostic mode never dedups, so neither supports partition-granular
/// resume; both are refused up front with a typed `Unsupported` error.
///
/// The lifecycle of a partition — skipped if journaled, else joined,
/// committed, emitted — is [`UnitRun`]'s; what happens here is the partition
/// phase and the unit body: one top-level pair, repartitioning included.
pub fn try_pbsm_join_ctl(
    disk: &SimDisk,
    r: &[Kpe],
    s: &[Kpe],
    cfg: &PbsmConfig,
    ctl: &RunControl,
    out: &mut dyn FnMut(RecordId, RecordId),
) -> Result<PbsmStats, JoinError> {
    let mut run = UnitRun::begin(ctl, disk);
    let checkpointing = run.checkpointing();
    if checkpointing && !matches!(cfg.dedup, Dedup::ReferencePoint | Dedup::TwoLayer) {
        return Err(JoinError::new("setup", IoError::unsupported()));
    }
    let model = disk.model();
    let mut stats = PbsmStats::new(model);

    if let Some(done) = run.finished() {
        stats.partitions = run.partitions();
        stats.grid = TileGrid::for_partitions(stats.partitions.max(1), cfg.tiles_per_partition);
        stats.add_counts(done);
        return Ok(stats);
    }
    let resuming = run.phase() == Some(RunPhase::Join);

    // --- Phase 1: partitioning (formula (1) with safety factor t) ----------
    let t0 = Instant::now();
    let io0 = disk.stats();
    let input_bytes = (r.len() + s.len()) * Kpe::ENCODED_SIZE;
    let mut p =
        ((cfg.safety_factor * input_bytes as f64 / cfg.mem_bytes as f64).ceil() as u32).max(1);
    let mut grid = TileGrid::for_partitions(p, cfg.tiles_per_partition);
    let mut map = PartitionMap::new(p, cfg.tile_scheme, cfg.seed);
    stats.partitions = p;
    stats.grid = grid;

    // With a single partition the "pair" is the whole input: per the cost
    // model it can be joined straight from memory, so the partition files
    // are never materialised (the same shortcut every in-memory hash join
    // takes when it fits).
    let mut single = p == 1;
    let (files_r, files_s) = if single {
        stats.copies_r = r.len() as u64; // one logical copy each, not on disk
        stats.copies_s = s.len() as u64;
        (Vec::new(), Vec::new())
    } else if resuming {
        // The manifest's partition files survived the crash intact: the
        // whole partition phase (and its page writes) is skipped.
        debug_assert_eq!(
            run.partitions(),
            p,
            "fingerprint-matched resume must re-derive the partition count"
        );
        let (fr, fs) = run.files();
        (fr.to_vec(), fs.to_vec())
    } else {
        // The whole phase is one sequential pass, so interruption checks
        // happen every 64 input records instead of per partition, at the
        // phase's work so far (`done`).
        let mut poll =
            |done: &Work| ctl.charge("partition", || disk.io_seconds() + model.priced_cpu(done));
        let run_both = |g: TileGrid,
                        m: PartitionMap,
                        work: &mut Work,
                        poll: &mut dyn FnMut(&Work) -> Option<JoinError>|
         -> Result<(Partitioned, Partitioned), JoinError> {
            let pages = cfg.partition_buffer_pages;
            let fr = partition_relation(disk, r, g, m, pages, work, poll)?;
            match partition_relation(disk, s, g, m, pages, work, poll) {
                Ok(fs) => Ok((fr, fs)),
                Err(e) => {
                    for &f in &fr.0 {
                        disk.delete(f);
                    }
                    Err(e)
                }
            }
        };
        let is_enospc = |e: &JoinError| {
            e.io().is_some_and(|io| io.kind == storage::IoErrorKind::DiskFull)
        };
        let mut work = Work::default();
        let mut res = run_both(grid, map, &mut work, &mut poll);
        // ENOSPC fallback ladder, fresh (non-checkpointed) runs only — the
        // resume fingerprint pins a checkpointed run's partition geometry,
        // so those surface the typed error for the caller to re-plan.
        // Rung 1: coarser tiling (fewer tiles ⇒ less replication ⇒ fewer
        // pages). Rung 2: the in-memory single-partition plan, which
        // touches no disk at all. `partition_relation` deleted its files on
        // the way out, so each rung starts from the freed budget; the work a
        // failed rung did stays on the clock.
        if !checkpointing {
            if res.as_ref().err().is_some_and(is_enospc) && cfg.tiles_per_partition > 1 {
                stats.enospc_fallbacks += 1;
                grid = TileGrid::for_partitions(p, 1);
                stats.grid = grid;
                res = run_both(grid, map, &mut work, &mut poll);
            }
            if res.as_ref().err().is_some_and(is_enospc) {
                stats.enospc_fallbacks += 1;
                single = true;
                p = 1;
                grid = TileGrid::for_partitions(1, cfg.tiles_per_partition);
                map = PartitionMap::new(1, cfg.tile_scheme, cfg.seed);
                stats.partitions = 1;
                stats.grid = grid;
                res = Ok(((Vec::new(), r.len() as u64), (Vec::new(), s.len() as u64)));
            }
        }
        stats.work_partition = work;
        let ((files_r, copies_r), (files_s, copies_s)) = res?;
        stats.copies_r = copies_r;
        stats.copies_s = copies_s;
        (files_r, files_s)
    };
    stats.io_partition = disk.stats().delta(&io0);
    stats.cpu_partition = t0.elapsed().as_secs_f64();
    ctl.span(
        "partition",
        model.at(&Work::default(), &io0),
        model.at(&stats.work_partition, &disk.stats()),
    );

    // Publish the `Join` manifest (journal + results files + partition file
    // list) before any partition can commit; a resumed run instead folds the
    // journaled counters in so its totals match an uninterrupted run's.
    if resuming {
        stats.add_counts(run.journaled());
    } else {
        run.publish(|cp| cp.commit_join_phase(p, &files_r, &files_s))?;
    }

    // --- Phases 2+3: repartition where needed, join every pair -------------
    // The dedup disk is a scratch fork: own files and meter, but the same
    // fault plan and retry policy, so the sort phase is covered by fault
    // injection too.
    let dedup_disk = matches!(cfg.dedup, Dedup::SortPhase).then(|| disk.scratch_disk());
    let mut candidates = dedup_disk
        .as_ref()
        .map(|d| RecordWriter::<IdPair>::create(d, cfg.io_buffer_pages));
    // The first-result probe (the pipelining metric of §3.1/§5) runs on the
    // *pipelined* clock: a unit's first pair sits at the unit's start on the
    // priced clock (its joins' work is counted when they return) plus the
    // unit's own I/O up to the pair. The I/O leg is task-own and so the
    // same at every thread count. The base is this run's I/O at join-phase
    // entry (relative to `io0`, so a reused disk's earlier charges never
    // leak into the probe).
    let t1 = Instant::now();
    let base_io = disk.stats().delta(&io0);
    let cpu_base = stats.work_partition;
    let threads = parallel::resolve_threads(cfg.threads);
    // Join-phase work units still to do: a resumed run skips every
    // journal-committed partition.
    let todo: Vec<u32> = (0..p).filter(|i| !run.is_committed(*i)).collect();
    if single || threads <= 1 {
        // Sequential executor (always, for the in-memory single pair). After
        // the first terminal error the remaining pairs are skipped; without
        // a checkpoint all partition files are still deleted, with one they
        // are left in place — an interruption must not destroy the state a
        // resume needs, and `finish`/the recovery scan reclaim them.
        let mut internal = cfg.internal.create();
        let mut strips = TileStrips::default();
        // The priced clock between units, and the time the deadline is
        // charged with (the disk's seconds stretch a degraded channel).
        let clock = Cell::new(cpu_base);
        let elapsed_now = || disk.io_seconds() + model.priced_cpu(&clock.get());
        let mut first_err: Option<JoinError> = None;
        for &i in &todo {
            if first_err.is_none() {
                first_err = ctl.charge("join", elapsed_now);
            }
            if first_err.is_none() {
                let chain = RegionChain::top(grid, map, i);
                let io0s = disk.stats();
                let position = || (clock.get(), base_io.plus(&disk.stats().delta(&io0s)));
                let body = |emit: &mut dyn FnMut(RecordId, RecordId)| {
                    let (c0, r0, d0) = stats.counts();
                    let mut ctx = Ctx {
                        disk,
                        cfg,
                        internal: &mut *internal,
                        strips: &mut strips,
                        stats: &mut stats,
                        sources: (r, s),
                    };
                    let mut cand = |pair: IdPair| {
                        candidates
                            .as_mut()
                            .expect("sort-phase candidate writer (Some iff Dedup::SortPhase)")
                            .try_push(&pair)
                    };
                    if single {
                        join_whole(&mut ctx, &chain, emit, &mut cand)?;
                    } else {
                        let (fr, fs) = (files_r[i as usize], files_s[i as usize]);
                        join_pair(&mut ctx, fr, fs, &chain, 0, (false, false), i, emit, &mut cand)?;
                    }
                    clock.set(cpu_base + stats.unit_work());
                    let (c, r, d) = stats.counts();
                    Ok((c - c0, r - r0, d - d0))
                };
                first_err = run.stream(i, Some(&position), &elapsed_now, body, out).err();
            }
            if !(checkpointing || single) {
                disk.delete(files_r[i as usize]);
                disk.delete(files_s[i as usize]);
            }
        }
        stats.join_counters.merge(&internal.counters());
        if let Some(e) = first_err {
            return Err(e);
        }
    } else {
        // Parallel executor: each top-level partition pair (including its
        // repartitioning recursion) is one task. Workers run on forked I/O
        // counters; task outputs are re-assembled in partition order, so
        // the emitted stream — and, for the sort phase, the candidate file
        // — is byte-identical to the sequential path. Checkpoint commits
        // happen only here on the coordinator, in that same canonical order,
        // and so does the priced clock: the sink replays the pool's claim
        // rule over the units' work ([`Schedule`]), so a unit's start, the
        // deadline and the phase's end are the same on every run.
        let mut ahead = IoStats::default();
        let mut schedule = Schedule::new(threads);
        // The repartitioning share of each replayed worker's load.
        let mut repart_of = vec![Work::default(); threads];
        // The time so far: the replayed span, and the coordinator's meter
        // plus `ahead`, the delivered units' forked I/O (forks fold back
        // only when the pool drains).
        let sim_now = |ahead: &IoStats, schedule: &Schedule| {
            model.at(&(cpu_base + schedule.span().1), &disk.stats().plus(ahead))
        };
        let todo_ref = &todo;
        let (workers, pool) = parallel::run_ordered_fallible(
            threads,
            todo.len(),
            cfg.max_partition_requeues,
            Some(&ctl.cancel),
            |_w| {
                (
                    disk.fork_counters(),
                    cfg.internal.create(),
                    TileStrips::default(),
                    PbsmStats::new(model),
                )
            },
            |(fork, internal, strips, partial), idx, round| {
                let i = todo_ref[idx];
                if round > 0 {
                    partial.requeued_partitions += 1;
                }
                // Snapshot the logical counters: a failed attempt's partial
                // work is discarded (the pool requeues the whole task), so
                // its counts must not leak into the merged stats. The forked
                // I/O meter is deliberately *not* rolled back — failed
                // attempts and their retries are real simulated disk time.
                let snapshot = partial.clone();
                let io_before = fork.stats();
                let chain = RegionChain::top(grid, map, i);
                let mut pairs = Vec::new();
                let mut cand = Vec::new();
                let mut first = None;
                let fork_ref: &SimDisk = fork;
                // The task's own I/O so far: on the pipelined clock the
                // pair's work starts at its load.
                let own_io = || fork_ref.stats().delta(&io_before);
                let mut ctx = Ctx {
                    disk: fork_ref,
                    cfg,
                    internal: &mut **internal,
                    strips,
                    stats: partial,
                    sources: (r, s),
                };
                let res = join_pair(
                    &mut ctx,
                    files_r[i as usize],
                    files_s[i as usize],
                    &chain,
                    0,
                    (false, false),
                    i,
                    &mut |a, b| {
                        if first.is_none() {
                            first = Some((Work::default(), base_io.plus(&own_io())));
                        }
                        pairs.push((a, b));
                    },
                    &mut |pair| {
                        cand.push(pair);
                        Ok(())
                    },
                );
                match res {
                    Ok(()) => {
                        let (c, r, d) = partial.counts();
                        // The unit's work, and of that its repartitioning;
                        // the sink places both on the replayed pool.
                        let work = partial.unit_work() - snapshot.unit_work();
                        let repart = partial.work_repart - snapshot.work_repart;
                        let unit = FinishedUnit {
                            pairs,
                            counts: (
                                c - snapshot.candidates,
                                r - snapshot.results,
                                d - snapshot.duplicates,
                            ),
                            io: own_io(),
                            first,
                            done: (work, base_io.plus(&own_io())),
                        };
                        Ok((unit, cand, repart))
                    }
                    Err(e) => {
                        // Roll back the logical counters only (the requeued
                        // attempt recounts them from scratch); keep the I/O
                        // buckets. Restoring those too dropped the failed
                        // attempt's reads and retries from the join bucket
                        // while the fork's meter kept them, so the per-phase
                        // retry breakdown disagreed with the disk's total
                        // meter.
                        let attempted = partial.clone();
                        *partial = snapshot;
                        partial.io_join = attempted.io_join;
                        partial.io_repart = attempted.io_repart;
                        // A failure in the last allowed round is terminal —
                        // the pool will not requeue past the cap — so name
                        // the partition, the attempt count and the last I/O
                        // error instead of the bare per-attempt error.
                        Err(if round >= cfg.max_partition_requeues {
                            match e.io() {
                                Some(io) => {
                                    JoinError::requeue_exhausted(e.phase, i, round + 1, *io)
                                }
                                None => e,
                            }
                        } else {
                            e
                        })
                    }
                }
            },
            |idx, result| {
                let i = todo_ref[idx];
                run.poll("join", || sim_now(&ahead, &schedule));
                let mut cand = Vec::new();
                let unit = result.map(|(mut unit, c, repart)| {
                    // The unit's place on the replayed pool: every position
                    // it reported is relative to its start.
                    let (w, start) = schedule.place(unit.done.0);
                    repart_of[w] += repart;
                    let start = cpu_base + start;
                    unit.first = unit.first.map(|(work, io)| (start + work, io));
                    unit.done.0 = start + unit.done.0;
                    ahead = ahead.plus(&unit.io);
                    cand = c;
                    unit
                });
                run.deliver(i, unit, &|| sim_now(&ahead, &schedule), out);
                if let (false, Some(w)) = (run.failed(), candidates.as_mut()) {
                    if let Err(e) = w.try_push_all(&cand) {
                        run.fail(JoinError::new("dedup", e));
                    }
                }
                if !checkpointing {
                    disk.delete(files_r[i as usize]);
                    disk.delete(files_s[i as usize]);
                }
            },
        );
        for (fork, internal, _strips, mut partial) in workers {
            partial.join_counters.merge(&internal.counters());
            // Per-worker duplicate accounting, checked before the merge can
            // hide an interleaving bug: under RPM (and the raw diagnostic)
            // every candidate a worker saw was classified exactly once;
            // under the sort phase workers only collect candidates and must
            // not classify anything.
            match cfg.dedup {
                Dedup::ReferencePoint | Dedup::None => debug_assert_eq!(
                    partial.candidates,
                    partial.results + partial.duplicates,
                    "per-worker RPM accounting broken"
                ),
                Dedup::SortPhase => debug_assert_eq!(
                    (partial.results, partial.duplicates),
                    (0, 0),
                    "sort-phase worker classified candidates"
                ),
                Dedup::TwoLayer => debug_assert!(
                    partial.candidates == partial.results && partial.duplicates == 0,
                    "two-layer worker produced a duplicate"
                ),
            }
            stats.merge(&partial);
            // Fold the worker's forked meter back bucket-wise so both
            // `disk.stats()` and the per-channel decomposition report the
            // same totals as a sequential run.
            disk.add_channel_stats(&fork.channel_stats());
        }
        // The phase's priced work is the replayed pool's critical path.
        let (w, span) = schedule.span();
        stats.work_repart = repart_of[w];
        stats.work_join = span - repart_of[w];
        // Cross-check the scheduler's own requeue count against the
        // per-worker accounting (they can only diverge when a cancellation
        // leaves a queued retry unclaimed).
        if !run.failed() && !ctl.cancel.is_cancelled() {
            debug_assert_eq!(
                u64::from(stats.requeued_partitions),
                pool.requeues,
                "scheduler requeue count disagrees with per-worker accounting"
            );
        }
        let elapsed_now = || disk.io_seconds() + model.priced_cpu(&(cpu_base + span));
        if ctl.observed() {
            ctl.event(
                "pool-drained",
                elapsed_now(),
                &[
                    ("tasks_claimed", pool.tasks_claimed),
                    ("requeues", pool.requeues),
                    ("threads", threads as u64),
                ],
            );
        }
        run.settle("join", elapsed_now)?;
    }
    stats.cpu_join = t1.elapsed().as_secs_f64();

    let cpu_pre = cpu_base + stats.unit_work();
    ctl.span(
        "join",
        model.at(&cpu_base, &base_io),
        model.at(&cpu_pre, &disk.stats()),
    );

    // --- Phase 4 (SortPhase only): sort candidates, drop duplicates --------
    if let (Some(ddisk), Some(writer)) = (dedup_disk, candidates) {
        let t3 = Instant::now();
        let dd_start = model.at(&cpu_pre, &disk.stats().plus(&ddisk.stats()));
        let cand_file = writer
            .try_finish()
            .map_err(|e| JoinError::new("dedup", e))?;
        let (sorted, sort_stats) =
            try_external_sort_by(&ddisk, cand_file, cfg.mem_bytes, IdPair::sort_key)
                .map_err(|e| JoinError::new("dedup", e))?;
        ddisk.delete(cand_file);
        // All of the phase's work is the sort, ahead of the first pair.
        stats.work_dedup = Work {
            sorted: stats.candidates,
            ..Work::default()
        };
        let mut prev: Option<IdPair> = None;
        let mut reader = RecordReader::<IdPair>::new(&ddisk, sorted, cfg.io_buffer_pages);
        loop {
            let pair = match reader.try_next() {
                Ok(Some(pair)) => pair,
                Ok(None) => break,
                Err(e) => {
                    ddisk.delete(sorted);
                    return Err(JoinError::new("dedup", e));
                }
            };
            if prev != Some(pair) {
                stats.results += 1;
                if !run.probed() {
                    // The sort phase pipelines nothing: the first pair can
                    // only appear after every candidate is sorted, so its
                    // position is the cumulative clock at this scan step.
                    run.probe((
                        cpu_pre + stats.work_dedup,
                        disk.stats().delta(&io0).plus(&ddisk.stats()),
                    ));
                }
                out(RecordId(pair.r), RecordId(pair.s));
            } else {
                stats.duplicates += 1;
            }
            prev = Some(pair);
        }
        ddisk.delete(sorted);
        stats.sort = Some(sort_stats);
        stats.io_dedup = ddisk.stats();
        stats.cpu_dedup = t3.elapsed().as_secs_f64();
        ctl.span(
            "dedup",
            dd_start,
            model.at(&(cpu_pre + stats.work_dedup), &disk.stats().plus(&ddisk.stats())),
        );
    }

    let last = if stats.sort.is_some() { "dedup" } else { "join" };
    let io_dedup = stats.io_dedup;
    ctl.charge_total(last, || {
        disk.io_seconds() + model.seconds(&io_dedup) + model.priced_cpu(&stats.work())
    })?;
    stats.clock = run.close(&mut stats.io_checkpoint, &mut stats.checkpoint_commits)?;
    // The dedup scratch disk's files are untagged, so its time serializes on
    // the shared lane like any shared file's.
    stats.clock.io_shared = stats.clock.io_shared.plus(&stats.io_dedup);
    Ok(stats)
}

/// One relation's partition files plus the KPE copies written into them.
type Partitioned = (Vec<FileId>, u64);

/// Phase 1 for one relation: replicate each KPE into the partition of every
/// tile it overlaps. Returns the partition files and the number of copies,
/// and counts the records assigned and copies written into `work`. `poll`
/// is consulted with `work` every 64 input records so cancellation and
/// deadline expiry can interrupt the pass; on any error — I/O or
/// interruption — every file this call created is deleted before returning,
/// so an interrupted partition phase leaves no orphan files behind.
fn partition_relation(
    disk: &SimDisk,
    data: &[Kpe],
    grid: TileGrid,
    map: PartitionMap,
    buffer_pages: usize,
    work: &mut Work,
    poll: &mut dyn FnMut(&Work) -> Option<JoinError>,
) -> Result<Partitioned, JoinError> {
    let io_err = |e: IoError| JoinError::new("partition", e);
    // Partition `pid` rides data channel `pid mod D` (the mod is applied at
    // metering time): with D channels the partition writes — and every later
    // read of the same files — overlap instead of serializing.
    let mut fan = Fanout::new(disk, map.partitions, |pid| Some(u64::from(pid)), buffer_pages);
    let whole = RegionChain { base: grid, levels: Vec::new() };
    let mut targets: Vec<u32> = Vec::with_capacity(8);
    for (n, k) in data.iter().enumerate() {
        if let Some(e) = n.is_multiple_of(64).then(|| poll(work)).flatten() {
            return Err(e);
        }
        work.assigned += 1;
        whole.targets(&k.rect, 1, map, &mut targets);
        for &pid in &targets {
            fan.try_push(pid, k).map_err(io_err)?;
            work.copies += 1;
        }
    }
    let files = fan.try_finish().map_err(io_err)?;
    let copies = files.iter().map(|&(_, n)| n).sum();
    Ok((files.into_iter().map(|(f, _)| f).collect(), copies))
}

/// Joins one loaded partition pair with the configured duplicate handling.
/// `cand` receives sort-phase candidate pairs (in emission order); the
/// sequential executor writes them straight to the candidate file, the
/// parallel executor buffers them per task for canonical-order reassembly.
fn join_loaded(
    ctx: &mut Ctx<'_>,
    rv: &mut [Kpe],
    sv: &mut [Kpe],
    chain: &RegionChain,
    out: &mut dyn FnMut(RecordId, RecordId),
    cand: &mut dyn FnMut(IdPair) -> Result<(), IoError>,
) -> Result<(), IoError> {
    if ctx.cfg.dedup == Dedup::TwoLayer {
        two_layer_join(ctx, rv, sv, chain, out);
        return Ok(());
    }
    let Ctx {
        internal,
        stats,
        cfg,
        ..
    } = ctx;
    let mut local_candidates = 0u64;
    // The internal sweep's callback cannot return a Result, so a candidate
    // write failure is latched here and surfaced once the sweep finishes;
    // further candidate writes are skipped (the error is terminal).
    let mut io_err: Option<IoError> = None;
    let counted = cfg.internal.work(&internal.counters());
    internal.join(rv, sv, &mut |a, b| {
        local_candidates += 1;
        match cfg.dedup {
            Dedup::ReferencePoint => {
                if chain.contains_point(reference_point(&a.rect, &b.rect)) {
                    stats.results += 1;
                    out(a.id, b.id);
                } else {
                    stats.duplicates += 1;
                }
            }
            Dedup::SortPhase => {
                if io_err.is_none() {
                    if let Err(e) = cand(IdPair { r: a.id.0, s: b.id.0 }) {
                        io_err = Some(e);
                    }
                }
            }
            Dedup::None => {
                stats.results += 1;
                out(a.id, b.id);
            }
            // Handled by `two_layer_join` before the sweep starts.
            Dedup::TwoLayer => unreachable!("two-layer pairs never reach the RPM sweep"),
        }
    });
    ctx.stats.candidates += local_candidates;
    ctx.stats.work_join += ctx.cfg.internal.work(&ctx.internal.counters()) - counted;
    match io_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// The unit body of a single-partition run: the "pair" is the whole input,
/// copied from the source relations and joined in memory — no partition
/// file exists to load, degrade or quarantine.
fn join_whole(
    ctx: &mut Ctx<'_>,
    chain: &RegionChain,
    out: &mut dyn FnMut(RecordId, RecordId),
    cand: &mut dyn FnMut(IdPair) -> Result<(), IoError>,
) -> Result<(), JoinError> {
    let (mut rv, mut sv) = (ctx.sources.0.to_vec(), ctx.sources.1.to_vec());
    join_loaded(ctx, &mut rv, &mut sv, chain, out, cand).map_err(|e| JoinError::new("dedup", e))
}

/// Class of a record within one tile it overlaps (two-layer space-oriented
/// partitioning): whether the record's lower-left corner starts this tile's
/// column (`x`) and/or row (`y`). Encoded as `(¬x << 1) | ¬y`.
const CLASS_A: usize = 0; // starts both axes here (the corner tile)
const CLASS_B: usize = 1; // starts the column, spans in from a lower row
const CLASS_C: usize = 2; // starts the row, spans in from a lower column
const CLASS_D: usize = 3; // spans in from below in both axes

/// Joins one loaded partition pair with the two-layer class scheme
/// (Tsitsigkos et al.), the structural generalisation of RPM: instead of
/// sweeping the whole partition and testing every candidate's reference
/// point, each record is bucketed into every region tile it overlaps at the
/// chain's finest refinement and classified A–D per tile by where its
/// lower-left corner starts.
///
/// An intersecting pair's reference point `(max xl, max yl)` — the same
/// point RPM tests — falls in exactly one tile, and in that tile at least
/// one side starts each axis (the tile indices are monotone images of the
/// coordinates, so `tile(max(a, b)) = max(tile(a), tile(b))`). Exactly the
/// nine class combinations below have that property, so joining only those
/// produces every pair exactly once with **zero** duplicate tests; the
/// class borders also make some of the four interval comparisons redundant:
///
/// * `A×A` — full test, run as a tile-local plane sweep;
/// * `A×B`/`B×A` — one y comparison is implied by the row border;
/// * `A×C`/`C×A` — one x comparison is implied by the column border;
/// * `A×D`/`D×A`, `B×C`/`C×B` — only two comparisons survive.
///
/// The remaining seven combinations (`B×B`, `C×C`, and any pairing of `D`
/// with `B`, `C` or `D`) cannot contain the reference point and are skipped
/// outright. The same argument holds verbatim at every repartitioning depth
/// (tiles nest under refinement) and in quarantine-recompute, so the mode
/// rides the whole fault/crash/ENOSPC machinery unchanged.
fn two_layer_join(
    ctx: &mut Ctx<'_>,
    rv: &[Kpe],
    sv: &[Kpe],
    chain: &RegionChain,
    out: &mut dyn FnMut(RecordId, RecordId),
) {
    let f = chain.max_f();
    let grid = chain.base;
    // Per-tile class buckets for each side. BTreeMap keeps the tile order
    // deterministic, so the emitted stream is identical for every thread
    // count (tasks are already re-assembled in partition order).
    type Buckets = [Vec<Kpe>; 4];
    let mut tiles: std::collections::BTreeMap<(u32, u32), (Buckets, Buckets)> =
        std::collections::BTreeMap::new();
    let mut scatter = |data: &[Kpe], is_s: bool| {
        for k in data {
            let (xs, ys) = grid.tile_range(&k.rect, f);
            let (x0, y0) = (*xs.start(), *ys.start());
            for iy in ys.clone() {
                for ix in xs.clone() {
                    if !chain.contains_tile(ix, iy, f) {
                        continue;
                    }
                    let class = (((ix != x0) as usize) << 1) | ((iy != y0) as usize);
                    let entry = tiles.entry((iy, ix)).or_default();
                    let side = if is_s { &mut entry.1 } else { &mut entry.0 };
                    side[class].push(*k);
                }
            }
        }
    };
    scatter(rv, false);
    scatter(sv, true);

    // One-sided scan for combinations whose only surviving x comparison is
    // `pivot.xl ≤ span.xh`: `spans` is sorted by `xh` descending (and so is
    // its strip's key), so the first failing span ends a pivot's scan. `LO`
    // keeps `pivot.yl ≤ span.yh`, `HI` keeps `span.yl ≤ pivot.yh`; `emit`
    // takes `(pivot, span)`.
    fn scan_x<const LO: bool, const HI: bool>(
        pivots: &[Kpe],
        (spans, strip): (&[Kpe], &Strip),
        tests: &mut u64,
        mut emit: impl FnMut(&Kpe, &Kpe),
    ) {
        for p in pivots {
            let Rect { xl, yl, yh, .. } = p.rect;
            forward_scan::<false, LO, HI>(strip, 0, xl, yl, yh, tests, |k| emit(p, &spans[k]));
        }
    }

    // Which y comparisons a class combination still needs, in `(r, s)`
    // orientation: `LO` is `r.yl ≤ s.yh`, `HI` is `s.yl ≤ r.yh`. A side that
    // spans the row border in from below implies the comparison on its own
    // `yl`. `scan_x` takes them pivot-first, so mirrored combinations pass
    // the same flags where the sweeps pass swapped ones.
    let mut tests = 0u64;
    let mut pairs = 0u64;
    let mut swept = 0u64;
    {
        let mut emit = |a: &Kpe, b: &Kpe| {
            pairs += 1;
            out(a.id, b.id);
        };
        let TileStrips { r: r_cols, s: s_cols } = &mut *ctx.strips;
        for (r, s) in tiles.values_mut() {
            for (buckets, cols) in [(&mut *r, &mut *r_cols), (&mut *s, &mut *s_cols)] {
                swept += buckets.iter().map(|b| b.len() as u64).sum::<u64>();
                for class in [CLASS_A, CLASS_B] {
                    buckets[class].sort_unstable_by(|a, b| a.rect.xl.total_cmp(&b.rect.xl));
                    cols[class].fill(&buckets[class], |k| k.rect.xl);
                }
                for class in [CLASS_C, CLASS_D] {
                    buckets[class].sort_unstable_by(|a, b| b.rect.xh.total_cmp(&a.rect.xh));
                    cols[class].fill(&buckets[class], |k| k.rect.xh);
                }
            }
            // One class of one side: the sorted bucket with its columns.
            let (r, r_cols, s, s_cols) = (&*r, &*r_cols, &*s, &*s_cols);
            let r = move |class: usize| (&r[class][..], &r_cols[class]);
            let s = move |class: usize| (&s[class][..], &s_cols[class]);
            let t = &mut tests;
            // A×A: full test.
            sweep_strips::<true, true>(r(CLASS_A), s(CLASS_A), t, &mut emit);
            // A×B / B×A: the B side's y-low comparison is implied.
            sweep_strips::<true, false>(r(CLASS_A), s(CLASS_B), t, &mut emit);
            sweep_strips::<false, true>(r(CLASS_B), s(CLASS_A), t, &mut emit);
            // A×C / C×A: the C side's x-low comparison is implied.
            scan_x::<true, true>(r(CLASS_A).0, s(CLASS_C), t, &mut emit);
            scan_x::<true, true>(s(CLASS_A).0, r(CLASS_C), t, |b, a| emit(a, b));
            // A×D / D×A: both of the D side's low comparisons are implied.
            scan_x::<true, false>(r(CLASS_A).0, s(CLASS_D), t, &mut emit);
            scan_x::<true, false>(s(CLASS_A).0, r(CLASS_D), t, |b, a| emit(a, b));
            // B×C / C×B: each side implies one of the other's comparisons.
            scan_x::<false, true>(r(CLASS_B).0, s(CLASS_C), t, &mut emit);
            scan_x::<false, true>(s(CLASS_B).0, r(CLASS_C), t, |b, a| emit(a, b));
        }
    }
    let stats = &mut *ctx.stats;
    stats.candidates += pairs;
    stats.results += pairs;
    let counters = JoinCounters {
        tests,
        results: pairs,
        node_visits: 0,
        swept,
    };
    stats.join_counters.merge(&counters);
    // The mini-joins run the list sweep's kernel, and are priced as its work.
    stats.work_join += InternalAlgo::PlaneSweepList.work(&counters);
}

/// Quarantine-recompute for a partition pair lost to persistent media
/// damage: the on-disk copy is abandoned where it lies and both sides'
/// members are rebuilt **from the source relations** — a record belongs to
/// the pair iff it overlaps a tile of the pair's region at the chain's
/// finest refinement, which is by construction exactly the membership test
/// the partition (and every repartition) pass applied when the damaged file
/// was written (`contains_tile` agrees with `contains_point`; see the grid
/// tests). The rebuilt pair is then joined in memory under the same
/// [`RegionChain`], so RPM classifies every candidate identically to an
/// undamaged run and the recompute leg stays exactly-once. Source reads are
/// free per the cost model (§2), so a quarantined run does strictly less
/// page I/O than a cold rerun, which would re-partition everything.
///
/// The in-memory join deliberately ignores `mem_bytes`: honouring the
/// budget would mean repartitioning — i.e. re-reading the damaged file —
/// and an over-budget exact answer beats no answer. This is the accepted
/// degraded-mode concession, surfaced via
/// [`PbsmStats::quarantined_partitions`].
fn quarantine_join(
    ctx: &mut Ctx<'_>,
    chain: &RegionChain,
    top: u32,
    out: &mut dyn FnMut(RecordId, RecordId),
    cand: &mut dyn FnMut(IdPair) -> Result<(), IoError>,
) -> Result<(), JoinError> {
    let f = chain.max_f();
    let members = |data: &[Kpe]| -> Vec<Kpe> {
        data.iter()
            .filter(|k| {
                let (xs, ys) = chain.base.tile_range(&k.rect, f);
                ys.clone()
                    .any(|iy| xs.clone().any(|ix| chain.contains_tile(ix, iy, f)))
            })
            .copied()
            .collect()
    };
    let (r, s) = ctx.sources;
    let mut rv = members(r);
    let mut sv = members(s);
    ctx.stats.quarantined_partitions += 1;
    join_loaded(ctx, &mut rv, &mut sv, chain, out, cand)
        .map_err(|e| JoinError::in_partition("dedup", top, e))
}

/// Phases 2+3 for one partition pair: join it if it fits, else repartition
/// the larger side (§3.2.3) and recurse. `top` is the top-level partition
/// index this pair descends from, carried for error attribution.
///
/// Graceful degradation: a pair that *fits* but whose load exhausts the
/// retry budget falls through to the repartitioning branch instead of
/// failing. That is safe because a failed load has emitted nothing yet and
/// the refined sub-regions re-derive the pair's results duplicate-free; it
/// is *effective* because the repartition re-reads the failing file through
/// the same shared attempt counters, which have advanced past the failing
/// attempts, so the re-reads get a fresh retry budget.
#[allow(clippy::too_many_arguments)] // internal recursive helper; the args are the recursion state
fn join_pair(
    ctx: &mut Ctx<'_>,
    fr: FileId,
    fs: FileId,
    chain: &RegionChain,
    depth: u32,
    // Which sides a parent split without shrinking (r, s). Degenerate
    // geometry — e.g. a hot tile of rectangles that all span the whole
    // region — replicates every record into every sub-partition, so
    // splitting makes no progress and the recursion would otherwise burn
    // O(branchingᵈᵉᵖᵗʰ) work before the depth cap. Once *both* sides have
    // stalled, refinement provably cannot help: join over budget now.
    stalled: (bool, bool),
    top: u32,
    out: &mut dyn FnMut(RecordId, RecordId),
    cand: &mut dyn FnMut(IdPair) -> Result<(), IoError>,
) -> Result<(), JoinError> {
    let disk = ctx.disk;
    let join_err = |e: IoError| JoinError::in_partition("join", top, e);
    let br = disk.try_len(fr).map_err(join_err)?;
    let bs = disk.try_len(fs).map_err(join_err)?;
    if br == 0 || bs == 0 {
        return Ok(());
    }
    let fits = (br + bs) as usize <= ctx.cfg.mem_bytes;
    let refinement_exhausted = depth >= MAX_REPART_DEPTH || (stalled.0 && stalled.1);
    // On degradation, split the side whose load failed: its fault counters
    // are the warmed-up ones. `None` = the normal size heuristic.
    let mut forced_split: Option<bool> = None;
    if fits || refinement_exhausted {
        // --- Join phase ---
        let io0 = disk.stats();
        // Both sides in memory, or the error that exhausted the retry budget
        // and whether it was the R side's read that failed.
        let buffer_pages = ctx.cfg.io_buffer_pages;
        let loaded = try_read_all::<Kpe>(disk, fr, buffer_pages)
            .map_err(|e| (e, true))
            .and_then(|rv| {
                let sv = try_read_all::<Kpe>(disk, fs, buffer_pages).map_err(|e| (e, false))?;
                Ok((rv, sv))
            });
        match loaded {
            Ok((mut rv, mut sv)) => {
                let joined = join_loaded(ctx, &mut rv, &mut sv, chain, out, cand);
                ctx.stats.io_join = ctx.stats.io_join.plus(&disk.stats().delta(&io0));
                return joined.map_err(|e| JoinError::in_partition("dedup", top, e));
            }
            Err((e, failed_r)) => {
                ctx.stats.io_join = ctx.stats.io_join.plus(&disk.stats().delta(&io0));
                if e.kind.is_persistent() {
                    // Persistent damage: re-reads fail identically, and the
                    // repartitioning fallback would read the same damaged
                    // file. Quarantine the pair and recompute it from source.
                    return quarantine_join(ctx, chain, top, out, cand);
                }
                if refinement_exhausted {
                    return Err(join_err(e));
                }
                ctx.stats.degraded_partitions += 1;
                forced_split = Some(failed_r);
            }
        }
    }

    // --- Repartitioning phase ---
    let io0 = disk.stats();
    ctx.stats.repartitioned_pairs += 1;
    ctx.stats.repart_depth = ctx.stats.repart_depth.max(depth + 1);
    // Split-side choice: a degraded load picks the warmed-up side; otherwise
    // prefer a side that has not already stalled, falling back to the
    // larger-side heuristic when both are still viable.
    let split_r = forced_split.unwrap_or(match stalled {
        (true, false) => false,
        (false, true) => true,
        _ => br >= bs,
    });
    let (big, big_bytes) = if split_r { (fr, br) } else { (fs, bs) };
    let f_new = chain.max_f() * 2;
    let n_sub = ((ctx.cfg.safety_factor * 2.0 * big_bytes as f64 / ctx.cfg.mem_bytes as f64)
        .ceil() as u32)
        .max(2);
    let submap = PartitionMap::new(
        n_sub,
        ctx.cfg.tile_scheme,
        ctx.cfg.seed ^ (0xABCD_u64.rotate_left(depth) ^ f_new as u64),
    );
    let io_pages = ctx.cfg.io_buffer_pages;
    let repart_err = |e: IoError| JoinError::in_partition("repartition", top, e);
    // The copy gets a bounded number of whole-pass re-issues: a
    // *size-triggered* repartition reads its input cold — no failed load has
    // warmed the attempt counters — so a fault outlasting one in-call retry
    // budget would otherwise be terminal right here. Re-issuing advances the
    // shared counters exactly like a partition requeue does, granting each
    // round a fresh budget; every round's failed I/O stays charged. A
    // persistent error (a bad sector in the file being split, or ENOSPC on
    // the sub-files) repeats identically on every pass, so it ends the
    // rounds at once.
    const COPY_ROUNDS: u32 = 3;
    let mut round = 0;
    let copied = loop {
        round += 1;
        // Sub-files stay on the top-level partition's data channel: the
        // recursion is one task, so spreading it over channels would claim
        // overlap that a single worker cannot realize.
        let mut fan = Fanout::new(disk, n_sub, |_| Some(u64::from(top)), ctx.cfg.partition_buffer_pages);
        // Every round's records count, failed rounds' too: their work was
        // done.
        let work = &mut ctx.stats.work_repart;
        let copied = (|| {
            let mut targets: Vec<u32> = Vec::with_capacity(8);
            let mut reader = RecordReader::<Kpe>::new(disk, big, io_pages);
            while let Some(k) = reader.try_next()? {
                work.assigned += 1;
                chain.targets(&k.rect, f_new, submap, &mut targets);
                for &pid in &targets {
                    fan.try_push(pid, &k)?;
                    work.copies += 1;
                }
            }
            fan.try_finish()
        })();
        match &copied {
            Err(e) if !e.kind.is_persistent() && round < COPY_ROUNDS => {}
            _ => break copied,
        }
    };
    ctx.stats.io_repart = ctx.stats.io_repart.plus(&disk.stats().delta(&io0));
    let subfiles = match copied {
        Ok(files) => files,
        // No number of re-issues cures it: quarantine and recompute from
        // source.
        Err(e) if e.kind.is_persistent() => return quarantine_join(ctx, chain, top, out, cand),
        Err(e) => return Err(repart_err(e)),
    };
    ctx.stats.repart_copies += subfiles.iter().map(|&(_, n)| n).sum::<u64>();

    // Progress check for the stall detector: if the largest sub-partition is
    // no smaller than what we split, every record was replicated into every
    // sub-file and this side is refinement-proof.
    let max_sub = subfiles.iter().map(|&(_, n)| n).max().unwrap_or(0) * Kpe::ENCODED_SIZE as u64;
    // Geometric progress is required (≥ 25% shrink), not just any shrink:
    // degenerate data that sheds one separable record per level would
    // otherwise still drive the recursion to the depth cap with full
    // branching. Honest splits of non-degenerate data shrink by roughly
    // 1/n_sub per level and pass this easily.
    let progressed = max_sub <= big_bytes - big_bytes / 4;
    let child_stalled = if split_r {
        (!progressed, stalled.1)
    } else {
        (stalled.0, !progressed)
    };

    let mut sub_err: Option<JoinError> = None;
    for (k, &(sub, _)) in subfiles.iter().enumerate() {
        if sub_err.is_none() {
            let sub_chain = chain.refined(f_new, submap, k as u32);
            let res = if split_r {
                join_pair(ctx, sub, fs, &sub_chain, depth + 1, child_stalled, top, out, cand)
            } else {
                join_pair(ctx, fr, sub, &sub_chain, depth + 1, child_stalled, top, out, cand)
            };
            if let Err(e) = res {
                sub_err = Some(e);
            }
        }
        disk.delete(sub);
    }
    match sub_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{scale, uniform, LineNetwork};
    use std::collections::HashSet;

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

    fn run(r: &[Kpe], s: &[Kpe], cfg: &PbsmConfig) -> (Vec<(u64, u64)>, PbsmStats) {
        let disk = SimDisk::with_default_model();
        let mut got = Vec::new();
        let stats = pbsm_join(&disk, r, s, cfg, &mut |a, b| got.push((a.0, b.0)));
        got.sort_unstable();
        (got, stats)
    }

    fn tiger_pair(n: usize) -> (Vec<Kpe>, Vec<Kpe>) {
        let r = LineNetwork {
            count: n,
            coverage: 0.22,
            segments_per_line: 20,
            seed: 101,
        }
        .generate();
        let s = LineNetwork {
            count: n + n / 10,
            coverage: 0.03,
            segments_per_line: 10,
            seed: 202,
        }
        .generate();
        (r, s)
    }

    #[test]
    fn rpm_matches_brute_force_multi_partition() {
        let (r, s) = tiger_pair(3000);
        let cfg = PbsmConfig {
            mem_bytes: 32 * 1024, // forces many partitions
            ..Default::default()
        };
        let (got, stats) = run(&r, &s, &cfg);
        assert!(stats.partitions > 4, "want several partitions");
        assert_eq!(got, brute(&r, &s));
        assert_eq!(stats.results as usize, got.len());
    }

    #[test]
    fn sort_phase_matches_rpm_and_pays_io() {
        let (r, s) = tiger_pair(2000);
        let base = PbsmConfig {
            mem_bytes: 32 * 1024,
            ..Default::default()
        };
        let (rpm, st_rpm) = run(&r, &s, &base);
        let (sorted, st_sort) = run(
            &r,
            &s,
            &PbsmConfig {
                dedup: Dedup::SortPhase,
                ..base
            },
        );
        assert_eq!(rpm, sorted);
        assert_eq!(st_rpm.results, st_sort.results);
        // Identical candidate sets, but only the sort phase does dedup I/O.
        assert_eq!(st_rpm.candidates, st_sort.candidates);
        assert_eq!(st_rpm.io_dedup, IoStats::default());
        assert!(st_sort.io_dedup.pages_written > 0);
        assert!(st_sort.sort.is_some());
    }

    #[test]
    fn duplicates_are_real_and_fully_suppressed() {
        // Scaled-up rects overlap many tiles => replication => duplicates.
        let (r0, s0) = tiger_pair(1500);
        let (r, s) = (scale(&r0, 4.0), scale(&s0, 4.0));
        let cfg = PbsmConfig {
            mem_bytes: 32 * 1024,
            ..Default::default()
        };
        let (got, stats) = run(&r, &s, &cfg);
        assert!(
            stats.duplicates > 0,
            "expected duplicate candidates, got none (replication {})",
            stats.replication_rate(r.len() + s.len())
        );
        assert_eq!(got, brute(&r, &s));
        // Raw candidate mode really does emit duplicates.
        let (raw, raw_stats) = run(
            &r,
            &s,
            &PbsmConfig {
                dedup: Dedup::None,
                ..cfg
            },
        );
        assert_eq!(raw_stats.candidates, stats.candidates);
        assert!(raw.len() > got.len());
        let unique: HashSet<_> = raw.iter().copied().collect();
        assert_eq!(unique.len(), got.len());
    }

    #[test]
    fn all_internal_algorithms_agree() {
        let (r, s) = tiger_pair(2000);
        let mut reference: Option<Vec<(u64, u64)>> = None;
        for internal in InternalAlgo::ALL {
            let cfg = PbsmConfig {
                mem_bytes: 48 * 1024,
                internal,
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
    fn repartitioning_triggers_and_stays_correct() {
        // Clustered data + round-robin tiles => skewed partitions => some
        // pair overflows memory and must repartition.
        let r = datagen::clustered(4000, 2, 0.01, 7);
        let s = datagen::clustered(4000, 2, 0.01, 8);
        let cfg = PbsmConfig {
            mem_bytes: 48 * 1024,
            tile_scheme: TileScheme::RoundRobin,
            tiles_per_partition: 1,
            ..Default::default()
        };
        let (got, stats) = run(&r, &s, &cfg);
        assert!(
            stats.repartitioned_pairs > 0,
            "expected repartitioning; partitions={} copies={}",
            stats.partitions,
            stats.copies_r + stats.copies_s
        );
        assert_eq!(got, brute(&r, &s));
    }

    #[test]
    fn two_layer_matches_brute_force_multi_partition() {
        let (r, s) = tiger_pair(3000);
        let cfg = PbsmConfig {
            mem_bytes: 32 * 1024,
            dedup: Dedup::TwoLayer,
            ..Default::default()
        };
        let (got, stats) = run(&r, &s, &cfg);
        assert!(stats.partitions > 4, "want several partitions");
        assert_eq!(got, brute(&r, &s));
        // The class scheme produces every pair exactly once: nothing to
        // suppress, every candidate is a result.
        assert_eq!(stats.duplicates, 0);
        assert_eq!(stats.candidates, stats.results);
    }

    #[test]
    fn two_layer_matches_rpm_with_fewer_tests() {
        let (r, s) = tiger_pair(2000);
        let base = PbsmConfig {
            mem_bytes: 32 * 1024,
            ..Default::default()
        };
        let (rpm, st_rpm) = run(&r, &s, &base);
        let (two, st_two) = run(
            &r,
            &s,
            &PbsmConfig {
                dedup: Dedup::TwoLayer,
                ..base
            },
        );
        assert_eq!(rpm, two);
        assert_eq!(st_rpm.results, st_two.results);
        assert_eq!(st_two.duplicates, 0);
        // RPM sweeps whole partitions (the hash scheme mixes far-apart
        // tiles) and then pays a containment test per candidate; the
        // tile-local class joins examine strictly less.
        assert!(
            st_two.join_counters.tests < st_rpm.join_counters.tests + st_rpm.candidates,
            "two-layer tests {} vs rpm {} + {} dedup tests",
            st_two.join_counters.tests,
            st_rpm.join_counters.tests,
            st_rpm.candidates
        );
    }

    #[test]
    fn two_layer_survives_repartitioning() {
        let r = datagen::clustered(4000, 2, 0.01, 7);
        let s = datagen::clustered(4000, 2, 0.01, 8);
        let cfg = PbsmConfig {
            mem_bytes: 48 * 1024,
            tile_scheme: TileScheme::RoundRobin,
            tiles_per_partition: 1,
            dedup: Dedup::TwoLayer,
            ..Default::default()
        };
        let (got, stats) = run(&r, &s, &cfg);
        assert!(stats.repartitioned_pairs > 0, "expected repartitioning");
        assert_eq!(got, brute(&r, &s));
        assert_eq!(stats.duplicates, 0);
        assert_eq!(stats.candidates, stats.results);
    }

    /// Emission order and the test count of the two-layer mini-joins, pinned
    /// to what the record-at-a-time scans (the parent of the forward-scan
    /// kernel) printed: one multi-partition fixture with many small tiles,
    /// one stretched single-partition fixture whose four tiles hold hundreds
    /// of records per class, so scans run through whole blocks as well as
    /// remainders.
    #[test]
    fn two_layer_pair_sequence_is_pinned_to_the_scalar_scans() {
        let (r, s) = tiger_pair(3000);
        let (wide_r, wide_s) = (scale(&r, 4.0), scale(&s, 4.0));
        for (r, s, mem_bytes, golden) in [
            (&r, &s, 32 * 1024, (1_359, 15_410, 16_906_841_308_358_696_170_u64)),
            (&wide_r, &wide_s, 8 << 20, (21_875, 264_334, 4_609_865_846_123_072_844)),
        ] {
            let cfg = PbsmConfig {
                mem_bytes,
                dedup: Dedup::TwoLayer,
                threads: 1,
                ..Default::default()
            };
            let disk = SimDisk::with_default_model();
            let mut sequence = Vec::new();
            let stats = pbsm_join(&disk, r, s, &cfg, &mut |a, b| {
                sequence.extend_from_slice(&a.0.to_le_bytes());
                sequence.extend_from_slice(&b.0.to_le_bytes());
            });
            let got = (stats.results, stats.join_counters.tests, storage::fnv1a(&sequence));
            assert_eq!(got, golden, "partitions {}", stats.partitions);
        }
    }

    #[test]
    fn two_layer_is_thread_invariant() {
        let (r, s) = tiger_pair(1500);
        let base = PbsmConfig {
            mem_bytes: 32 * 1024,
            dedup: Dedup::TwoLayer,
            ..Default::default()
        };
        let disk = SimDisk::with_default_model();
        let mut seq = Vec::new();
        let st1 = pbsm_join(
            &disk,
            &r,
            &s,
            &PbsmConfig { threads: 1, ..base },
            &mut |a, b| seq.push((a.0, b.0)),
        );
        let disk = SimDisk::with_default_model();
        let mut par = Vec::new();
        let st4 = pbsm_join(
            &disk,
            &r,
            &s,
            &PbsmConfig { threads: 4, ..base },
            &mut |a, b| par.push((a.0, b.0)),
        );
        // Emission order (not just the set) and every deterministic counter
        // must be scheduling-independent.
        assert_eq!(seq, par);
        assert_eq!(st1.results, st4.results);
        assert_eq!(st1.candidates, st4.candidates);
        assert_eq!(st1.join_counters.tests, st4.join_counters.tests);
    }

    #[test]
    fn single_partition_when_memory_is_plentiful() {
        let (r, s) = tiger_pair(500);
        let cfg = PbsmConfig {
            mem_bytes: 64 << 20,
            ..Default::default()
        };
        let (got, stats) = run(&r, &s, &cfg);
        assert_eq!(stats.partitions, 1);
        assert_eq!(stats.duplicates, 0, "one partition cannot duplicate");
        assert_eq!(got, brute(&r, &s));
    }

    #[test]
    fn empty_inputs() {
        let (r, _) = tiger_pair(100);
        let cfg = PbsmConfig::default();
        let (got, stats) = run(&r, &[], &cfg);
        assert!(got.is_empty());
        assert_eq!(stats.results, 0);
        let (got, _) = run(&[], &[], &cfg);
        assert!(got.is_empty());
    }

    #[test]
    fn self_join_is_consistent() {
        let r = uniform(1200, 0.01, 33);
        let cfg = PbsmConfig {
            mem_bytes: 24 * 1024,
            ..Default::default()
        };
        let (got, _) = run(&r, &r, &cfg);
        assert_eq!(got, brute(&r, &r));
        // Ordered-pair symmetry: (a,b) present iff (b,a) present.
        let set: HashSet<_> = got.iter().copied().collect();
        for &(a, b) in &got {
            assert!(set.contains(&(b, a)));
        }
    }

    #[test]
    fn stats_phase_decomposition_adds_up() {
        let (r, s) = tiger_pair(1500);
        let cfg = PbsmConfig {
            mem_bytes: 32 * 1024,
            dedup: Dedup::SortPhase,
            ..Default::default()
        };
        let disk = SimDisk::with_default_model();
        let stats = pbsm_join(&disk, &r, &s, &cfg, &mut |_, _| {});
        // Partition + repart + join I/O happens on the main disk...
        let main = stats.io_partition.plus(&stats.io_repart).plus(&stats.io_join);
        assert_eq!(main, disk.stats());
        // ...and totals include the dedup disk.
        assert_eq!(
            stats.io_total().pages_written,
            main.pages_written + stats.io_dedup.pages_written
        );
        assert!(stats.total_seconds() > 0.0);
        assert!(stats.repart_fraction() >= 0.0 && stats.repart_fraction() <= 1.0);
    }

    #[test]
    fn channels_decompose_io_and_buy_simulated_time() {
        let (r, s) = tiger_pair(1500);
        // cpu_slowdown 0 isolates the deterministic I/O clock: wall-clock
        // CPU noise cannot blur the strict-improvement assertion.
        let run_ch = |channels: usize, threads: usize| {
            let disk = SimDisk::new(DiskModel {
                channels,
                cpu_slowdown: 0.0,
                ..Default::default()
            });
            let cfg = PbsmConfig {
                mem_bytes: 32 * 1024,
                threads,
                ..Default::default()
            };
            let mut got = Vec::new();
            let stats = pbsm_join(&disk, &r, &s, &cfg, &mut |a, b| got.push((a.0, b.0)));
            got.sort_unstable();
            (got, stats)
        };
        let (res1, st1) = run_ch(1, 1);
        let (res4, st4) = run_ch(4, 1);
        let (res4t, st4t) = run_ch(4, 4);
        // Results and all deterministic counters are channel- and
        // thread-invariant; only the clock model changes.
        assert_eq!(res1, res4);
        assert_eq!(res4, res4t);
        assert_eq!(st1.io_total(), st4.io_total());
        assert_eq!(st4.io_total(), st4t.io_total());
        assert_eq!(
            (st1.candidates, st1.results, st1.duplicates),
            (st4.candidates, st4.results, st4.duplicates)
        );
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
        // One channel reduces bit-exactly to the serial clock...
        assert_eq!(st1.total_seconds(), st1.scaled_cpu_seconds() + st1.io_seconds());
        // ...four channels spread the partition files and strictly beat it.
        assert!(
            st4.clock.io_channels.iter().filter(|c| c.pages_read > 0).count() > 1,
            "partition files should land on several channels"
        );
        assert!(
            st4.total_seconds() < st1.total_seconds(),
            "channels=4 ({}) should strictly beat channels=1 ({})",
            st4.total_seconds(),
            st1.total_seconds()
        );
        assert_eq!(st4.total_seconds(), st4t.total_seconds());
    }

    #[test]
    fn persistent_corruption_quarantines_and_stays_exact() {
        use storage::{FaultPlan, RetryPolicy};
        let (r, s) = tiger_pair(2000);
        let cfg = PbsmConfig {
            mem_bytes: 32 * 1024,
            ..Default::default()
        };
        let clean = run(&r, &s, &cfg).0;
        // Persistent damage is a pure function of (seed, channel, page), so
        // hunt a few seeds until one lands on a partition file; every seed —
        // hit or miss — must still produce the exact result set.
        let mut hit = false;
        for seed in 0..64u64 {
            let disk = SimDisk::with_default_model().with_faults(
                FaultPlan::persistent(seed).with_persistent_rate(0.02),
                RetryPolicy::default(),
            );
            let mut got = Vec::new();
            let stats = try_pbsm_join_ctl(&disk, &r, &s, &cfg, &RunControl::none(), &mut |a, b| got.push((a.0, b.0)))
                .expect("persistent damage must quarantine, not kill the join");
            got.sort_unstable();
            assert_eq!(got, clean, "seed {seed} diverged");
            if stats.quarantined_partitions > 0 {
                hit = true;
                break;
            }
        }
        assert!(hit, "no seed damaged a partition file read");
    }

    /// A bad sector in the file being split fails every copy pass at the
    /// same page, so the repartition quarantines after one pass: it never
    /// reads more of its input than the clean run reads in full.
    #[test]
    fn a_persistent_error_ends_the_repartition_copy_after_one_pass() {
        use storage::{FaultPlan, RetryPolicy};
        let (r, s) = tiger_pair(2000);
        // Half the usual partition count: every top-level pair overflows
        // memory and is split by a size-triggered repartition.
        let cfg = PbsmConfig {
            mem_bytes: 32 * 1024,
            safety_factor: 0.5,
            ..Default::default()
        };
        let (clean, clean_stats) = run(&r, &s, &cfg);
        assert!(clean_stats.repartitioned_pairs > 0);
        let mut hits = 0;
        for seed in 0..64u64 {
            let disk = SimDisk::with_default_model().with_faults(
                FaultPlan::persistent(seed).with_persistent_rate(0.01),
                RetryPolicy::default(),
            );
            let mut got = Vec::new();
            let stats = try_pbsm_join_ctl(&disk, &r, &s, &cfg, &RunControl::none(), &mut |a, b| got.push((a.0, b.0)))
                .expect("persistent damage must quarantine, not kill the join");
            got.sort_unstable();
            assert_eq!(got, clean, "seed {seed} diverged");
            hits += usize::from(stats.io_repart.faults_injected > 0);
            assert!(
                stats.work_repart.assigned <= clean_stats.work_repart.assigned,
                "seed {seed}: {} records copied, {} in the clean run",
                stats.work_repart.assigned,
                clean_stats.work_repart.assigned
            );
            assert!(stats.io_repart.pages_read <= clean_stats.io_repart.pages_read, "seed {seed}");
        }
        assert!(hits > 0, "no seed damaged a file being split");
    }

    #[test]
    fn quarantine_is_thread_invariant() {
        use storage::{FaultPlan, RetryPolicy};
        let (r, s) = tiger_pair(2000);
        // Damage keys on (seed, channel, page) — not on who reads — so the
        // sequential and parallel executors quarantine the same pairs and
        // emit the same results.
        let run_t = |threads: usize, seed: u64| {
            let disk = SimDisk::with_default_model().with_faults(
                FaultPlan::persistent(seed).with_persistent_rate(0.05),
                RetryPolicy::default(),
            );
            let cfg = PbsmConfig {
                mem_bytes: 32 * 1024,
                threads,
                ..Default::default()
            };
            let mut got = Vec::new();
            let stats = try_pbsm_join_ctl(&disk, &r, &s, &cfg, &RunControl::none(), &mut |a, b| got.push((a.0, b.0)))
                .expect("quarantine covers persistent damage");
            got.sort_unstable();
            (got, stats)
        };
        for seed in [3u64, 11, 29] {
            let (got1, st1) = run_t(1, seed);
            let (got4, st4) = run_t(4, seed);
            assert_eq!(got1, got4, "seed {seed}");
            assert_eq!(
                st1.quarantined_partitions, st4.quarantined_partitions,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn enospc_falls_back_down_the_ladder_and_stays_exact() {
        use storage::{FaultPlan, RetryPolicy};
        let (r, s) = tiger_pair(1500);
        let cfg = PbsmConfig {
            mem_bytes: 32 * 1024,
            ..Default::default()
        };
        let clean = run(&r, &s, &cfg).0;
        // A zero-page volume rejects every tiling: rung one (coarser tiles)
        // and rung two (in-memory single partition) both fire.
        let disk = SimDisk::with_default_model().with_faults(
            FaultPlan::none(7).with_disk_budget(0),
            RetryPolicy::default(),
        );
        let mut got = Vec::new();
        let stats = try_pbsm_join_ctl(&disk, &r, &s, &cfg, &RunControl::none(), &mut |a, b| got.push((a.0, b.0)))
            .expect("ENOSPC must degrade to the in-memory plan, not die");
        got.sort_unstable();
        assert_eq!(got, clean);
        assert_eq!(stats.enospc_fallbacks, 2);
        assert_eq!(stats.partitions, 1);
        assert_eq!(stats.duplicates, 0, "one partition cannot duplicate");
        assert_eq!(disk.pages_in_use(), 0, "fallback leaked partition files");
        // A generous budget never trips the ladder.
        let disk = SimDisk::with_default_model().with_faults(
            FaultPlan::none(7).with_disk_budget(1 << 20),
            RetryPolicy::default(),
        );
        let stats = try_pbsm_join_ctl(&disk, &r, &s, &cfg, &RunControl::none(), &mut |_, _| {}).unwrap();
        assert_eq!(stats.enospc_fallbacks, 0);
        assert!(stats.partitions > 1);
    }

    #[test]
    fn replication_grows_with_coverage() {
        let (r0, s0) = tiger_pair(1500);
        let cfg = PbsmConfig {
            mem_bytes: 32 * 1024,
            ..Default::default()
        };
        let (_, st1) = run(&r0, &s0, &cfg);
        let (r4, s4) = (scale(&r0, 4.0), scale(&s0, 4.0));
        let (_, st4) = run(&r4, &s4, &cfg);
        let n = r0.len() + s0.len();
        assert!(
            st4.replication_rate(n) > st1.replication_rate(n),
            "p=4 replication {} not above p=1 {}",
            st4.replication_rate(n),
            st1.replication_rate(n)
        );
    }
}

#[cfg(test)]
mod formula_tests {
    use super::*;

    /// Formula (1) with the safety factor: P = ceil(t * input / M).
    #[test]
    fn partition_count_follows_formula() {
        let disk = SimDisk::with_default_model();
        let data = datagen::uniform(1000, 0.001, 1); // 40 KB per relation
        for (mem, t, expect) in [
            (80_000usize, 1.0f64, 1u32),
            (40_000, 1.0, 2),
            (40_000, 1.2, 3),   // the §3.2.3 fix: 2.0 -> 2.4 -> 3
            (10_000, 1.0, 8),
            (10_000, 2.0, 16),
        ] {
            let cfg = PbsmConfig {
                mem_bytes: mem,
                safety_factor: t,
                ..Default::default()
            };
            let st = pbsm_join(&disk, &data, &data, &cfg, &mut |_, _| {});
            assert_eq!(st.partitions, expect, "mem={mem} t={t}");
        }
    }

    /// A borderline partition count without the safety factor triggers
    /// repartitioning; with t = 1.2 it does not (the paper's '1.99' case).
    #[test]
    fn safety_factor_avoids_borderline_repartitioning() {
        let disk = SimDisk::with_default_model();
        let data = datagen::uniform(2000, 0.002, 2); // 80 KB per relation
        let mem = 81_000; // input/M = 1.975 -> P=2 without t
        let run = |t: f64| {
            let cfg = PbsmConfig {
                mem_bytes: mem,
                safety_factor: t,
                ..Default::default()
            };
            pbsm_join(&disk, &data, &data, &cfg, &mut |_, _| {})
        };
        let tight = run(1.0);
        let safe = run(1.2);
        assert_eq!(tight.partitions, 2);
        assert_eq!(safe.partitions, 3);
        assert!(
            tight.repartitioned_pairs >= safe.repartitioned_pairs,
            "safety factor should not repartition more"
        );
    }

    /// With a single partition the join runs straight from memory: no
    /// partition files, no I/O — matching the in-memory shortcut SSSJ takes.
    #[test]
    fn single_partition_skips_all_io() {
        let disk = SimDisk::with_default_model();
        let data = datagen::uniform(500, 0.01, 9);
        let cfg = PbsmConfig {
            mem_bytes: 64 << 20,
            ..Default::default()
        };
        let mut n = 0u64;
        let st = pbsm_join(&disk, &data, &data, &cfg, &mut |_, _| n += 1);
        assert_eq!(st.partitions, 1);
        assert_eq!(disk.stats(), IoStats::default(), "P=1 must not touch disk");
        assert_eq!(st.results, n);
        assert!(n > 0);
        // The sort-phase variant still pays its dedup I/O, but no partition I/O.
        let st = pbsm_join(
            &disk,
            &data,
            &data,
            &PbsmConfig {
                dedup: Dedup::SortPhase,
                ..cfg
            },
            &mut |_, _| {},
        );
        assert_eq!(st.io_partition, IoStats::default());
        assert!(st.io_dedup.pages_written > 0);
        assert_eq!(st.results, n);
    }

    /// The Dedup::None diagnostic emits exactly the raw candidate stream.
    #[test]
    fn dedup_none_emits_raw_candidates() {
        let disk = SimDisk::with_default_model();
        let data = datagen::scale(&datagen::uniform(800, 0.01, 3), 3.0);
        let cfg = PbsmConfig {
            mem_bytes: 8 * 1024,
            dedup: Dedup::None,
            ..Default::default()
        };
        let mut emitted = 0u64;
        let st = pbsm_join(&disk, &data, &data, &cfg, &mut |_, _| emitted += 1);
        assert_eq!(emitted, st.candidates);
        assert_eq!(st.results, st.candidates);
        assert_eq!(st.duplicates, 0);
    }
}
