//! # spatialjoin — index-free spatial join processing
//!
//! A faithful reproduction of *Dittrich & Seeger, "Data Redundancy and
//! Duplicate Detection in Spatial Join Processing", ICDE 2000*: the improved
//! **PBSM** (grid partitioning with online Reference-Point duplicate
//! elimination and an interval-trie plane sweep) and the improved **S³J**
//! (size separation with controlled ≤4× replication), plus the **SSSJ**
//! baseline, all running out-of-core against a simulated disk with the
//! paper's `PT + n` cost model.
//!
//! ## Quick start
//!
//! ```
//! use spatialjoin::{Algorithm, SpatialJoin};
//!
//! // Two TIGER-like synthetic datasets (1% of the paper's LA files).
//! let roads  = spatialjoin::datagen::sized(&spatialjoin::datagen::la_rr_config(1), 0.01).generate();
//! let rivers = spatialjoin::datagen::sized(&spatialjoin::datagen::la_st_config(1), 0.01).generate();
//!
//! // PBSM with the Reference Point Method and 256 KiB of memory.
//! let join = SpatialJoin::new(Algorithm::pbsm_rpm(256 * 1024));
//! let run = join.run(&roads, &rivers);
//!
//! println!(
//!     "{} intersecting pairs in {:.3}s simulated ({} duplicates suppressed online)",
//!     run.pairs.len(),
//!     run.stats.total_seconds(),
//!     run.stats.duplicates(),
//! );
//! # assert!(run.pairs.len() > 0);
//! ```
//!
//! ## Running a join
//!
//! Every pair is reported once, when it is found (§3.1), so one push-style
//! call is the whole interface: [`SpatialJoin::try_run_with`] streams a run's
//! pairs into a sink, [`SpatialJoin::try_run_durable_with`] does so as a
//! checkpointed, resumable run on a [`SpatialJoin::disk`] the caller keeps.
//! The rest are sinks for the first — [`SpatialJoin::run_with`], `try_run` /
//! `run` (a [`JoinRun`]), `count` — and one entry per refinement predicate,
//! [`SpatialJoin::try_run_refined`] and [`SpatialJoin::try_within_distance`].
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`geom`] | rectangles, KPEs, the reference point |
//! | [`sfc`] | Peano/Hilbert locational codes, MX-CIF level functions |
//! | [`storage`] | simulated disk (`PT + n`), paged files, external sort |
//! | [`sweep`] | internal joins: nested loops, list sweep, interval-trie sweep |
//! | [`quadtree`] | MX-CIF quadtree + synchronized-traversal join (§4.1) |
//! | [`datagen`] | TIGER-like synthetic datasets (Table 1 equivalents) |
//! | [`pbsm`] | PBSM with sort-phase or Reference-Point dedup (§3) |
//! | [`s3j`] | S³J original / with controlled replication (§4) |
//! | [`sssj`] | sweeping-based baseline ([APR+ 98]) |
//! | [`rtree`] | STR R-tree + synchronized R-tree join ([BKS 93]) |
//! | [`shj`] | Spatial Hash Join baseline ([LR 96]) |
//! | [`estimate`] | grid histograms, selectivity estimation, partition advice |
//! | [`refine`] | refinement step: exact-geometry verification ([BKSS 94]) |
//!
//! The open-next-close operator tree (`exec`) sits *above* this crate: its
//! streaming join operator wraps a configured [`SpatialJoin`].

pub use datagen;
pub use refine;
pub use rtree;
pub use estimate;
pub use shj;
pub use geom;
pub use pbsm;
pub use quadtree;
pub use s3j;
pub use sfc;
pub use sssj;
pub use storage;
pub use sweep;

pub use geom::{dataset_stats, reference_point, DatasetStats, Kpe, Point, Rect, RecordId};
pub use storage::{
    CancelToken, CrashPoint, DiskModel, FaultPlan, IoError, IoErrorKind, IoStats, JoinError,
    JoinErrorKind, RetryPolicy, SimDisk,
};
pub use storage::{MetricsReport, PhaseMetric, Recorder, RunCounters, METRICS_SCHEMA_VERSION};
pub use sweep::InternalAlgo;

use std::sync::Arc;
use std::time::Instant;
use storage::{FileId, Recovered, RunCheckpoint, RunClock, RunControl, Work};

use pbsm::{Dedup, PbsmConfig, PbsmStats};
use s3j::{S3jConfig, S3jStats};
use shj::{ShjConfig, ShjStats};
use sssj::{SssjConfig, SssjStats};

/// Configuration of the in-memory MX-CIF quadtree join (§4.1 machinery
/// promoted to a runnable variant).
#[derive(Debug, Clone, Copy)]
pub struct QuadtreeConfig {
    /// Memory budget in bytes. The variant holds both relations (and both
    /// trees) in memory, so a run whose inputs exceed the budget is refused
    /// with a typed `Unsupported` error instead of silently cheating the
    /// out-of-core cost model.
    pub mem_bytes: usize,
    /// Finest decomposition level of the MX-CIF trees.
    pub max_level: u8,
}

impl Default for QuadtreeConfig {
    fn default() -> Self {
        QuadtreeConfig {
            mem_bytes: 8 << 20,
            max_level: 12,
        }
    }
}

/// Statistics of the in-memory MX-CIF quadtree join. The variant never
/// touches the simulated disk, so its clock's I/O lanes stay zero — but they
/// are carried in full (one bucket per data channel) so metrics
/// reconciliation sees the same shape as every other run.
#[derive(Debug, Clone)]
pub struct QuadtreeStats {
    pub results: u64,
    /// Pair tests performed by the synchronized traversal.
    pub tests: u64,
    /// Nodes in the R/S trees after bulk-loading.
    pub nodes_r: u64,
    pub nodes_s: u64,
    /// Counted CPU work: every record inserted, then the traversal's tests.
    pub work: Work,
    pub cpu_build: f64,
    pub cpu_join: f64,
    pub clock: RunClock,
}

impl QuadtreeStats {
    /// Host CPU seconds (the host clock).
    pub fn cpu_seconds(&self) -> f64 {
        self.cpu_build + self.cpu_join
    }

    pub fn io_total(&self) -> IoStats {
        IoStats::default()
    }
}

/// Algorithm selection with its full configuration.
#[derive(Debug, Clone)]
pub enum Algorithm {
    Pbsm(PbsmConfig),
    S3j(S3jConfig),
    Sssj(SssjConfig),
    Shj(ShjConfig),
    Quadtree(QuadtreeConfig),
}

impl Algorithm {
    /// PBSM as improved by the paper: Reference Point Method dedup.
    /// The internal algorithm defaults to the list sweep; switch to
    /// [`InternalAlgo::PlaneSweepTrie`] for large memories (§3.2.2).
    pub fn pbsm_rpm(mem_bytes: usize) -> Algorithm {
        Algorithm::Pbsm(PbsmConfig {
            mem_bytes,
            ..Default::default()
        })
    }

    /// Original PBSM ([PD 96]): duplicates removed in a final sort phase.
    pub fn pbsm_original(mem_bytes: usize) -> Algorithm {
        Algorithm::Pbsm(PbsmConfig {
            mem_bytes,
            dedup: Dedup::SortPhase,
            ..Default::default()
        })
    }

    /// Two-layer space-oriented partitioning (Tsitsigkos et al.): PBSM's
    /// grid partitioning with a per-tile second layer of object classes
    /// (A–D by which tile borders an object crosses) instead of any
    /// per-candidate duplicate test — the structural generalisation of the
    /// paper's Reference Point Method. Inherits PBSM's full fault, crash
    /// and channel machinery.
    pub fn two_layer(mem_bytes: usize) -> Algorithm {
        Algorithm::Pbsm(PbsmConfig {
            mem_bytes,
            dedup: Dedup::TwoLayer,
            ..Default::default()
        })
    }

    /// In-memory MX-CIF quadtree join (§4.1): bulk-load both relations,
    /// synchronized traversal, no disk I/O. Refused when the inputs exceed
    /// the memory budget.
    pub fn quadtree(mem_bytes: usize) -> Algorithm {
        Algorithm::Quadtree(QuadtreeConfig {
            mem_bytes,
            ..Default::default()
        })
    }

    /// S³J as improved by the paper: size separation with ≤4× replication
    /// and online duplicate elimination (§4.3).
    pub fn s3j_replicated(mem_bytes: usize) -> Algorithm {
        Algorithm::S3j(S3jConfig {
            mem_bytes,
            replicate: true,
            ..Default::default()
        })
    }

    /// Original S³J ([KS 97]): covering-cell assignment, no replication.
    pub fn s3j_original(mem_bytes: usize) -> Algorithm {
        Algorithm::S3j(S3jConfig {
            mem_bytes,
            replicate: false,
            ..Default::default()
        })
    }

    /// Scalable Sweeping-Based Spatial Join baseline ([APR+ 98]).
    pub fn sssj(mem_bytes: usize) -> Algorithm {
        Algorithm::Sssj(SssjConfig {
            mem_bytes,
            ..Default::default()
        })
    }

    /// Spatial Hash Join baseline ([LR 96]): build-side partitioning,
    /// probe-side replication, no duplicates by construction.
    pub fn shj(mem_bytes: usize) -> Algorithm {
        Algorithm::Shj(ShjConfig {
            mem_bytes,
            ..Default::default()
        })
    }

    /// Every name [`Algorithm::from_name`] understands: the `sjoin --algo`
    /// values, of which `sjoind` accepts the streamable ones.
    pub const NAMES: [&'static str; 9] = [
        "pbsm",
        "pbsm-trie",
        "pbsm-sort",
        "twolayer",
        "s3j",
        "s3j-orig",
        "sssj",
        "shj",
        "quadtree",
    ];

    /// The configuration a CLI/wire algorithm name stands for at memory
    /// budget `mem_bytes`; `None` for a name outside [`Algorithm::NAMES`].
    pub fn from_name(name: &str, mem_bytes: usize) -> Option<Algorithm> {
        Some(match name {
            "pbsm" => Algorithm::pbsm_rpm(mem_bytes),
            "pbsm-trie" => {
                Algorithm::pbsm_rpm(mem_bytes).with_internal(InternalAlgo::PlaneSweepTrie)
            }
            "pbsm-sort" => Algorithm::pbsm_original(mem_bytes),
            "twolayer" => Algorithm::two_layer(mem_bytes),
            "s3j" => Algorithm::s3j_replicated(mem_bytes),
            "s3j-orig" => Algorithm::s3j_original(mem_bytes),
            "sssj" => Algorithm::sssj(mem_bytes),
            "shj" => Algorithm::shj(mem_bytes),
            "quadtree" => Algorithm::quadtree(mem_bytes),
            _ => return None,
        })
    }

    /// Materialises a planner-selected [`estimate::PlanChoice`] as a runnable
    /// configuration: the choice's algorithm family, internal sweep,
    /// tiles-per-partition, write-buffer split and memory budget, with every
    /// other knob at its default. The planner's choices are self-describing
    /// precisely so this mapping stays total.
    pub fn from_choice(choice: &estimate::PlanChoice) -> Algorithm {
        Algorithm::from_name(choice.cli_name(), choice.mem_bytes)
            .expect("every PlanChoice::cli_name is one of Algorithm::NAMES")
            .with_internal(choice.internal)
            .with_tiles_per_partition(choice.tiles_per_partition)
            .with_buffer_pages(choice.buffer_pages)
    }

    /// Sets the partition-join worker-thread knob (`0` = all cores, `1` =
    /// sequential) on PBSM, the one algorithm with parallel partition
    /// execution; a no-op elsewhere. S³J's synchronized scan stays on one
    /// thread: its cells hold a couple of records each, too little work to
    /// hand to another thread. Results and deterministic counters are
    /// identical for every value.
    pub fn with_threads(mut self, threads: usize) -> Algorithm {
        if let Algorithm::Pbsm(c) = &mut self {
            c.threads = threads;
        }
        self
    }

    /// The configured memory budget in bytes.
    pub fn mem_bytes(&self) -> usize {
        match self {
            Algorithm::Pbsm(c) => c.mem_bytes,
            Algorithm::S3j(c) => c.mem_bytes,
            Algorithm::Sssj(c) => c.mem_bytes,
            Algorithm::Shj(c) => c.mem_bytes,
            Algorithm::Quadtree(c) => c.mem_bytes,
        }
    }

    /// Sets the in-memory join algorithm used for partition/bucket pairs on
    /// the algorithms that have one (PBSM, S³J, SHJ); a no-op for SSSJ,
    /// whose single sweep *is* the algorithm. Results are invariant.
    pub fn with_internal(mut self, internal: InternalAlgo) -> Algorithm {
        match &mut self {
            Algorithm::Pbsm(c) => c.internal = internal,
            Algorithm::S3j(c) => c.internal = internal,
            Algorithm::Shj(c) => c.internal = internal,
            Algorithm::Sssj(_) | Algorithm::Quadtree(_) => {}
        }
        self
    }

    /// Sets PBSM's tiles-per-partition knob (`NT = P ·` this) — the
    /// tile-grid lever of the conformance oracle; a no-op elsewhere.
    /// Results are invariant for every value ≥ 1.
    pub fn with_tiles_per_partition(mut self, tiles: u32) -> Algorithm {
        if let Algorithm::Pbsm(c) = &mut self {
            c.tiles_per_partition = tiles;
        }
        self
    }

    /// Sets the write-buffer pages per partition file (PBSM) or level file
    /// (S³J) — the planner's buffer-split lever; a no-op elsewhere.
    pub fn with_buffer_pages(mut self, pages: usize) -> Algorithm {
        match &mut self {
            Algorithm::Pbsm(c) => c.partition_buffer_pages = pages,
            Algorithm::S3j(c) => c.level_buffer_pages = pages,
            Algorithm::Sssj(_) | Algorithm::Shj(_) | Algorithm::Quadtree(_) => {}
        }
        self
    }

    /// The configured worker-thread knob (`None` for algorithms without
    /// partition-level parallelism).
    pub fn threads(&self) -> Option<usize> {
        match self {
            Algorithm::Pbsm(c) => Some(c.threads),
            _ => None,
        }
    }

    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Pbsm(c) => match c.dedup {
                Dedup::SortPhase => "PBSM (sort-phase dedup)",
                Dedup::ReferencePoint => "PBSM (reference point)",
                Dedup::None => "PBSM (raw candidates)",
                Dedup::TwoLayer => "PBSM (two-layer classes)",
            },
            Algorithm::S3j(c) => {
                if c.replicate {
                    "S3J (replicated)"
                } else {
                    "S3J (original)"
                }
            }
            Algorithm::Sssj(_) => "SSSJ",
            Algorithm::Shj(_) => "SHJ (spatial hash join)",
            Algorithm::Quadtree(_) => "MX-CIF quadtree (in-memory)",
        }
    }
}

/// Converts a memory budget given in MiB (`sjoin --mem-mb`, `sjoind`'s
/// `"mem_mb"`) to bytes. A budget under one default-model page is refused:
/// the cast truncates it towards 0 bytes, and formula (1) divides by it.
pub fn mem_bytes_from_mb(mem_mb: f64) -> Result<usize, String> {
    let bytes = (mem_mb * 1024.0 * 1024.0) as usize;
    let page = DiskModel::default().page_size;
    if bytes < page {
        return Err(format!("memory budget of {mem_mb} MiB is under one {page}-byte page"));
    }
    Ok(bytes)
}

/// Statistics of a completed join, uniform across algorithms.
#[derive(Debug, Clone)]
pub enum JoinStats {
    Pbsm(PbsmStats),
    S3j(S3jStats),
    Sssj(SssjStats),
    Shj(ShjStats),
    Quadtree(QuadtreeStats),
}

/// `$body` over whichever algorithm's stats `$stats` holds, bound to `$s`.
macro_rules! each {
    ($stats:expr, $s:ident => $body:expr) => {
        match $stats {
            JoinStats::Pbsm($s) => $body,
            JoinStats::S3j($s) => $body,
            JoinStats::Sssj($s) => $body,
            JoinStats::Shj($s) => $body,
            JoinStats::Quadtree($s) => $body,
        }
    };
}

impl JoinStats {
    /// Number of (duplicate-free) result pairs.
    pub fn results(&self) -> u64 {
        each!(self, s => s.results)
    }

    /// Duplicates suppressed online or removed by sorting.
    pub fn duplicates(&self) -> u64 {
        match self {
            JoinStats::Pbsm(s) => s.duplicates,
            JoinStats::S3j(s) => s.duplicates,
            JoinStats::Sssj(_) => 0,
            JoinStats::Shj(_) => 0,
            JoinStats::Quadtree(_) => 0,
        }
    }

    /// The run-level clock state every algorithm's stats embed; all the
    /// time accessors below are [`RunClock`]'s formulae over it,
    /// [`work`](Self::work) and [`io_total`](Self::io_total).
    pub fn clock(&self) -> &RunClock {
        each!(self, s => &s.clock)
    }

    /// Host CPU seconds, as the coordinator timed the phases (the host clock).
    pub fn cpu_seconds(&self) -> f64 {
        each!(self, s => s.cpu_seconds())
    }

    /// Counted CPU work on the run's critical path: what the simulated
    /// clock's CPU leg prices.
    pub fn work(&self) -> Work {
        match self {
            JoinStats::Pbsm(s) => s.work(),
            JoinStats::S3j(s) => s.work(),
            JoinStats::Sssj(s) => s.work,
            JoinStats::Shj(s) => s.work,
            JoinStats::Quadtree(s) => s.work,
        }
    }

    /// Total I/O counters across all phases.
    pub fn io_total(&self) -> IoStats {
        each!(self, s => s.io_total())
    }

    /// Priced CPU seconds on the emulated 1999 machine.
    pub fn scaled_cpu_seconds(&self) -> f64 {
        self.model().priced_cpu(&self.work())
    }

    /// Simulated disk seconds under the configured [`DiskModel`].
    pub fn io_seconds(&self) -> f64 {
        self.model().seconds(&self.io_total())
    }

    /// Named phases: each one's I/O bucket and the host CPU seconds the
    /// coordinator timed for it. The I/O buckets are disjoint — each disk
    /// request (including its retries and backoff) is charged to exactly one
    /// phase — so they sum to [`JoinStats::io_total`], and the CPU seconds
    /// fold in the order of the stats struct's `cpu_seconds()`; the
    /// checkpoint phase carries its I/O with zero CPU (commit work is
    /// I/O-dominated and not separately timed).
    pub fn phases(&self) -> Vec<PhaseMetric> {
        let phase = |name, io, cpu_seconds| PhaseMetric { name, io, cpu_seconds };
        let none = IoStats::default();
        match self {
            JoinStats::Pbsm(s) => vec![
                phase("partition", s.io_partition, s.cpu_partition),
                phase("repartition", s.io_repart, s.cpu_repart),
                phase("join", s.io_join, s.cpu_join),
                phase("dedup", s.io_dedup, s.cpu_dedup),
                phase("checkpoint", s.io_checkpoint, 0.0),
            ],
            JoinStats::S3j(s) => vec![
                phase("partition", s.io_partition, s.cpu_partition),
                phase("sort", s.io_sort, s.cpu_sort),
                phase("join", s.io_join, s.cpu_join),
                phase("checkpoint", s.io_checkpoint, 0.0),
            ],
            JoinStats::Sssj(s) => vec![phase("sort", s.io_sort, s.cpu_sort), phase("join", s.io_join, s.cpu_join)],
            JoinStats::Shj(s) => vec![
                phase("build", s.io_build, s.cpu_build),
                phase("probe", s.io_probe, s.cpu_probe),
                phase("join", s.io_join, s.cpu_join),
            ],
            JoinStats::Quadtree(s) => vec![phase("build", none, s.cpu_build), phase("join", none, s.cpu_join)],
        }
    }

    /// I/O charged to the serial shared lane (manifest, journal, results,
    /// dedup scratch, and any untagged file). Together with
    /// [`JoinStats::io_channels`] this decomposes [`JoinStats::io_total`]
    /// field-for-field.
    pub fn io_shared(&self) -> IoStats {
        self.clock().io_shared
    }

    /// Per-data-channel I/O, one bucket per channel of the run's disk.
    pub fn io_channels(&self) -> &[IoStats] {
        &self.clock().io_channels
    }

    /// Channel-parallel disk time: shared lane plus the busiest data
    /// channel. Equals [`JoinStats::io_seconds`] bit-exactly at one channel.
    pub fn io_parallel_seconds(&self) -> f64 {
        self.clock().io_parallel_seconds()
    }

    /// Disk time hidden behind computation by double-buffered prefetch
    /// (zero with one channel, and zero under `cpu_slowdown = 0`).
    pub fn prefetch_hidden_seconds(&self) -> f64 {
        self.clock().prefetch_hidden_seconds(&self.work())
    }

    /// The paper's "total runtime": priced CPU + channel-parallel disk
    /// time, minus disk time hidden behind computation by prefetch. With one
    /// channel this reduces bit-exactly to
    /// `scaled_cpu_seconds() + io_seconds()`, the pre-channel serial clock.
    pub fn total_seconds(&self) -> f64 {
        self.clock().total_seconds(&self.work())
    }

    /// Simulated position of the first emitted result (pipelining metric).
    pub fn first_result_seconds(&self) -> Option<f64> {
        self.clock().first_result_seconds()
    }

    /// The I/O-only leg of the first-result position, never past
    /// `io_seconds()`.
    pub fn first_result_io_seconds(&self) -> Option<f64> {
        self.clock().first_result_io_seconds()
    }

    /// Candidate pairs tested by the filter step, for algorithms that track
    /// them (`candidates == results + duplicates` holds by construction).
    pub fn candidates(&self) -> Option<u64> {
        match self {
            JoinStats::Pbsm(s) => Some(s.candidates),
            JoinStats::S3j(s) => Some(s.candidates),
            JoinStats::Sssj(_) | JoinStats::Shj(_) | JoinStats::Quadtree(_) => None,
        }
    }

    /// Rectangle/interval comparisons performed by the internal joins — the
    /// deterministic CPU-work proxy the paper's CPU plots measure
    /// indirectly. For the two-layer class scheme this is where the saved
    /// intersection and duplicate tests show up.
    pub fn tests(&self) -> u64 {
        match self {
            JoinStats::Pbsm(s) => s.join_counters.tests,
            JoinStats::S3j(s) => s.join_counters.tests,
            JoinStats::Sssj(s) => s.join_counters.tests,
            JoinStats::Shj(s) => s.join_counters.tests,
            JoinStats::Quadtree(s) => s.tests,
        }
    }

    /// The disk model the run was costed under.
    pub fn model(&self) -> DiskModel {
        self.clock().model
    }

    /// Builds the versioned, reconciled metrics document for this run:
    /// every number simulated, priced from the run's counters, except the
    /// host clock's `cpu_seconds` ([`JoinStats::phases`]).
    pub fn metrics_report(&self, algo: &str, threads: usize) -> MetricsReport {
        let phases = self.phases();
        let mut counters = RunCounters {
            candidates: self.candidates(),
            results: self.results(),
            duplicates: self.duplicates(),
            ..RunCounters::default()
        };
        if let JoinStats::Pbsm(s) = self {
            counters.partitions = u64::from(s.partitions);
            counters.requeued_partitions = u64::from(s.requeued_partitions);
            counters.degraded_partitions = u64::from(s.degraded_partitions);
            counters.checkpoint_commits = s.checkpoint_commits;
        } else if let JoinStats::S3j(s) = self {
            counters.checkpoint_commits = s.checkpoint_commits;
        }
        MetricsReport {
            schema_version: METRICS_SCHEMA_VERSION,
            algo: algo.to_string(),
            threads,
            model: self.model(),
            phases,
            counters,
            io_total: self.io_total(),
            channels: self.model().data_channels(),
            io_shared: self.io_shared(),
            io_channels: self.io_channels().to_vec(),
            cpu_seconds: self.cpu_seconds(),
            scaled_cpu_seconds: self.scaled_cpu_seconds(),
            io_seconds: self.io_seconds(),
            io_parallel_seconds: self.io_parallel_seconds(),
            prefetch_hidden_seconds: self.prefetch_hidden_seconds(),
            total_seconds: self.total_seconds(),
            first_result_seconds: self.first_result_seconds(),
            first_result_io_seconds: self.first_result_io_seconds(),
        }
    }
}

/// A configured spatial join, ready to run.
#[derive(Debug, Clone)]
pub struct SpatialJoin {
    algorithm: Algorithm,
    disk_model: DiskModel,
    fault_plan: Option<FaultPlan>,
    retry: RetryPolicy,
    cancel: Option<CancelToken>,
    deadline: Option<f64>,
    recorder: Option<Arc<Recorder>>,
}

/// Result of [`SpatialJoin::run`]: materialised pairs plus statistics.
#[derive(Debug)]
pub struct JoinRun {
    pub pairs: Vec<(RecordId, RecordId)>,
    pub stats: JoinStats,
}

impl SpatialJoin {
    pub fn new(algorithm: Algorithm) -> Self {
        SpatialJoin {
            algorithm,
            disk_model: DiskModel::default(),
            fault_plan: None,
            retry: RetryPolicy::default(),
            cancel: None,
            deadline: None,
            recorder: None,
        }
    }

    /// Overrides the simulated disk parameters.
    pub fn with_disk_model(mut self, model: DiskModel) -> Self {
        self.disk_model = model;
        self
    }

    /// Attaches a seeded fault plan to the per-run simulated disk. Only the
    /// partition-based joins (PBSM, S³J) have fallible code paths; running a
    /// baseline algorithm with a fault plan makes [`SpatialJoin::try_run`]
    /// return [`IoErrorKind::Unsupported`].
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the page-request retry policy used when a fault plan is
    /// attached (default: 4 attempts, exponential backoff).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Shares a cooperative-cancellation token with the join. Tripping it
    /// from any thread stops the run at the next partition boundary with a
    /// typed `Cancelled` error (partial results already emitted stand).
    /// Only the partition-based joins (PBSM, S³J) poll the token; attaching
    /// one to a baseline makes [`SpatialJoin::try_run`] return
    /// [`IoErrorKind::Unsupported`].
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Simulated-time deadline in seconds (disk time under the cost model
    /// plus priced CPU time). Checked at partition granularity and at the
    /// run's end: a run completes only if its total is within the deadline.
    /// Expiry surfaces as a typed `DeadlineExceeded` error after the tuples
    /// emitted so far. Baselines are refused as with
    /// [`SpatialJoin::with_cancel`].
    pub fn with_deadline(mut self, seconds: f64) -> Self {
        self.deadline = Some(seconds);
        self
    }

    /// Attaches a shared trace recorder. The partition-based joins (PBSM,
    /// S³J) record phase spans and per-partition events on the simulated
    /// clock into it; the single-sweep baselines run unobserved (attaching a
    /// recorder to one is a no-op, never an error). Read the trace back with
    /// [`Recorder::to_json`] after the run.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    pub fn algorithm(&self) -> &Algorithm {
        &self.algorithm
    }

    /// The simulated disk a run of this join works on: its [`DiskModel`],
    /// with the fault plan and retry policy when one is attached.
    /// [`SpatialJoin::try_run_with`] builds one per run; a durable caller
    /// builds its own here and keeps it — it *is* the run's durable state.
    pub fn disk(&self) -> SimDisk {
        let disk = SimDisk::new(self.disk_model);
        match self.fault_plan {
            Some(plan) => disk.with_faults(plan, self.retry),
            None => disk,
        }
    }

    /// The one place an [`Algorithm`] becomes a running join.
    fn dispatch(
        &self,
        disk: &SimDisk,
        ctl: &RunControl,
        r: &[Kpe],
        s: &[Kpe],
        out: &mut dyn FnMut(RecordId, RecordId),
    ) -> Result<JoinStats, JoinError> {
        match &self.algorithm {
            Algorithm::Pbsm(cfg) => {
                pbsm::try_pbsm_join_ctl(disk, r, s, cfg, ctl, out).map(JoinStats::Pbsm)
            }
            Algorithm::S3j(cfg) => {
                s3j::try_s3j_join_ctl(disk, r, s, cfg, ctl, out).map(JoinStats::S3j)
            }
            Algorithm::Sssj(cfg) => Ok(JoinStats::Sssj(sssj::sssj_join(disk, r, s, cfg, out))),
            Algorithm::Shj(cfg) => Ok(JoinStats::Shj(shj::shj_join(disk, r, s, cfg, out))),
            // The quadtree variant holds both relations' trees in memory at
            // once; enforcing the budget honestly keeps it comparable to the
            // external algorithms (and keeps the planner from "winning" with
            // an algorithm that could not actually run in the given budget).
            Algorithm::Quadtree(cfg) => {
                let input_bytes = (r.len() + s.len()) * Kpe::ENCODED_SIZE;
                if input_bytes > cfg.mem_bytes {
                    return Err(JoinError::new("setup", IoError::unsupported()));
                }
                let t0 = Instant::now();
                let tr = quadtree::MxCifQuadtree::bulk(r, cfg.max_level);
                let ts = quadtree::MxCifQuadtree::bulk(s, cfg.max_level);
                let cpu_build = t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                let mut results = 0u64;
                let tests = tr.join(&ts, &mut |a, b| {
                    results += 1;
                    out(a.id, b.id);
                });
                let cpu_join = t1.elapsed().as_secs_f64();
                Ok(JoinStats::Quadtree(QuadtreeStats {
                    results,
                    tests,
                    nodes_r: tr.node_count() as u64,
                    nodes_s: ts.node_count() as u64,
                    work: Work {
                        assigned: (r.len() + s.len()) as u64,
                        tests,
                        candidates: results,
                        ..Work::default()
                    },
                    cpu_build,
                    cpu_join,
                    clock: RunClock::new(disk.model()),
                }))
            }
        }
    }

    /// Both run primitives: builds the [`RunControl`], opens (or recovers)
    /// the checkpoint on `disk` for a durable run, and dispatches. Only the
    /// partition-based joins (PBSM, S³J) have fallible code paths, poll a
    /// cancel token and can be checkpointed, so a baseline asked for any of
    /// that is refused before anything runs or touches the disk, rather than
    /// panicking mid-join or silently ignoring a deadline.
    fn run_on(
        &self,
        disk: &SimDisk,
        run_id: Option<u64>,
        r: &[Kpe],
        s: &[Kpe],
        out: &mut dyn FnMut(RecordId, RecordId),
    ) -> Result<JoinStats, JoinError> {
        if self.fault_plan.is_some() || self.cancel.is_some() || self.deadline.is_some() {
            self.algo_tag()?;
        }
        let mut ctl = RunControl::none();
        if let Some(t) = &self.cancel {
            ctl = ctl.with_cancel(t.clone());
        }
        if let Some(d) = self.deadline {
            ctl = ctl.with_deadline(d);
        }
        if let Some(rec) = &self.recorder {
            ctl = ctl.with_recorder(Arc::clone(rec));
        }
        if let Some(run_id) = run_id {
            let tag = self.algo_tag()?;
            let fp = self.fingerprint(r, s);
            let sb = FileId::from_raw(0);
            let cp = if disk.exists(sb) {
                match storage::recover(disk, sb, fp)? {
                    Recovered::Resumed(cp) => cp,
                    Recovered::Fresh => RunCheckpoint::start(disk, sb, run_id, fp, tag),
                }
            } else {
                let created = disk.create();
                debug_assert_eq!(created.raw(), 0, "superblock must be the disk's first file");
                RunCheckpoint::start(disk, created, run_id, fp, tag)
            };
            ctl = ctl.with_checkpoint(cp);
        }
        self.dispatch(disk, &ctl, r, s, out)
    }

    /// Runs the join, streaming results into `out`. A fresh simulated disk
    /// ([`SpatialJoin::disk`]) is created per run, so statistics are
    /// independent across runs.
    ///
    /// A request that exhausts its retry budget and every degradation path
    /// surfaces as a typed [`JoinError`]; without a fault plan this never
    /// happens.
    pub fn try_run_with(
        &self,
        r: &[Kpe],
        s: &[Kpe],
        out: &mut dyn FnMut(RecordId, RecordId),
    ) -> Result<JoinStats, JoinError> {
        self.run_on(&self.disk(), None, r, s, out)
    }

    /// Infallible [`SpatialJoin::try_run_with`] for fault-free configurations.
    pub fn run_with(
        &self,
        r: &[Kpe],
        s: &[Kpe],
        out: &mut dyn FnMut(RecordId, RecordId),
    ) -> JoinStats {
        self.try_run_with(r, s, out)
            .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
    }

    /// Runs the join and materialises all result pairs.
    pub fn try_run(&self, r: &[Kpe], s: &[Kpe]) -> Result<JoinRun, JoinError> {
        let mut pairs = Vec::new();
        let stats = self.try_run_with(r, s, &mut |a, b| pairs.push((a, b)))?;
        Ok(JoinRun { pairs, stats })
    }

    /// Infallible [`SpatialJoin::try_run`] for fault-free configurations.
    pub fn run(&self, r: &[Kpe], s: &[Kpe]) -> JoinRun {
        self.try_run(r, s)
            .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
    }

    /// Runs a fault-free join, counting results without materialising them.
    pub fn count(&self, r: &[Kpe], s: &[Kpe]) -> (u64, JoinStats) {
        let mut n = 0u64;
        let stats = self.run_with(r, s, &mut |_, _| n += 1);
        (n, stats)
    }

    /// Manifest algorithm tag of the partition-based joins; the typed
    /// `Unsupported` refusal for the single-sweep baselines and the quadtree.
    fn algo_tag(&self) -> Result<u8, JoinError> {
        match &self.algorithm {
            Algorithm::Pbsm(_) => Ok(1),
            Algorithm::S3j(_) => Ok(2),
            Algorithm::Sssj(_) | Algorithm::Shj(_) | Algorithm::Quadtree(_) => {
                Err(JoinError::new("setup", IoError::unsupported()))
            }
        }
    }

    /// Run fingerprint: FNV-1a over the algorithm configuration and both
    /// relations' contents. A resume is refused when the fingerprint does
    /// not match the one in the recovered manifest — a changed config or
    /// input would silently corrupt exactly-once accounting. The worker
    /// thread knob is normalised out: a run may legally be resumed with a
    /// different degree of parallelism (the output stream is identical).
    pub fn fingerprint(&self, r: &[Kpe], s: &[Kpe]) -> u64 {
        let mut h = storage::Fnv1a::default();
        let algo = self.algorithm.clone().with_threads(1);
        h.update(format!("{algo:?}").as_bytes());
        for rel in [r, s] {
            h.update(&(rel.len() as u64).to_le_bytes());
            for k in rel {
                h.update(&k.id.0.to_le_bytes());
                for c in [k.rect.xl, k.rect.yl, k.rect.xh, k.rect.yh] {
                    h.update(&c.to_bits().to_le_bytes());
                }
            }
        }
        h.finish()
    }

    /// Runs the join as a *durable, checkpointed* run on `disk` — the
    /// crash-recovery entry point. Build the disk with [`SpatialJoin::disk`],
    /// so the join's disk model, fault plan (a [`CrashPoint`] rides on it)
    /// and retry policy mean what they mean on [`SpatialJoin::try_run_with`];
    /// keep it, or its [`SimDisk::export_files`] snapshot, to resume.
    ///
    /// On an empty disk this creates the superblock (by convention the
    /// disk's first file, raw id 0) and starts a fresh run under `run_id`.
    /// On a disk restored from an interrupted run's snapshot it recovers
    /// the published manifest (verifying [`SpatialJoin::fingerprint`]),
    /// truncates any torn journal tail, sweeps orphan files, and resumes:
    /// journal-committed partitions are skipped and only the uncommitted
    /// partitions' pairs are emitted, so the interrupted leg plus this leg
    /// together produce the uninterrupted output exactly once.
    ///
    /// Result pairs go to `out` as each partition commits, and pairs emitted
    /// *before* an interruption stand — the resumed leg never re-emits a
    /// committed partition — so a caller that wants the whole result keeps
    /// what `out` received on an `Err` leg too.
    ///
    /// Only the partition-based joins with online duplicate suppression
    /// can be checkpointed; baselines, PBSM sort-phase dedup and the S³J
    /// ablation scan are refused with [`IoErrorKind::Unsupported`].
    pub fn try_run_durable_with(
        &self,
        disk: &SimDisk,
        r: &[Kpe],
        s: &[Kpe],
        run_id: u64,
        out: &mut dyn FnMut(RecordId, RecordId),
    ) -> Result<JoinStats, JoinError> {
        self.run_on(disk, Some(run_id), r, s, out)
    }

    /// Filter step + refinement step in one pipelined pass: every candidate
    /// the filter emits is verified against exact geometry by `refiner`
    /// immediately ([BKSS 94]-style multi-step processing — possible online
    /// precisely because the Reference Point Method keeps the candidate
    /// stream duplicate-free, §3.1). Put a [`refine::RasterFilter`] in front
    /// of the exact test by passing one as the `refiner`: results are
    /// bit-identical, only the [`refine::RefineStats`] raster counters
    /// differ.
    pub fn try_run_refined<R: refine::Refiner>(
        &self,
        r: &[Kpe],
        s: &[Kpe],
        refiner: R,
    ) -> Result<RefinedRun, JoinError> {
        let mut pairs = Vec::new();
        let mut sink = |a: RecordId, b: RecordId| pairs.push((a, b));
        let mut stage = refine::Refinement::new(refiner, &mut sink);
        let filter = self.try_run_with(r, s, &mut |a, b| stage.accept(a, b))?;
        let refine = stage.stats();
        Ok(RefinedRun {
            pairs,
            filter,
            refine,
        })
    }

    /// ε-distance join over exact line geometry (the similarity-join
    /// direction of the paper's future work, [KS 98]): the filter step runs
    /// this join over `ε/2`-expanded MBRs, the refinement step verifies
    /// exact segment distance — behind the raster-interval pre-filter on
    /// `raster`'s curve when one is given, so certain accepts/rejects skip
    /// the exact distance test.
    pub fn try_within_distance(
        &self,
        r: &datagen::LineDataset,
        s: &datagen::LineDataset,
        eps: f64,
        raster: Option<sfc::Curve>,
    ) -> Result<RefinedRun, JoinError> {
        assert!(eps >= 0.0);
        let expand = |data: &[Kpe]| -> Vec<Kpe> {
            data.iter()
                .map(|k| Kpe::new(k.id, k.rect.expanded(eps / 2.0)))
                .collect()
        };
        let re = expand(&r.kpes);
        let se = expand(&s.kpes);
        match raster {
            Some(c) => self.try_run_refined(
                &re,
                &se,
                refine::RasterFilter::within_distance(&r.segments, &s.segments, eps, c),
            ),
            None => self.try_run_refined(
                &re,
                &se,
                refine::SegmentWithinDistance {
                    r: &r.segments,
                    s: &s.segments,
                    eps,
                },
            ),
        }
    }
}

/// Result of a combined filter + refinement run.
pub struct RefinedRun {
    /// Pairs whose exact geometries satisfy the predicate.
    pub pairs: Vec<(RecordId, RecordId)>,
    /// Filter-step statistics.
    pub filter: JoinStats,
    /// Refinement-step statistics (candidates, hits, false-positive rate).
    pub refine: refine::RefineStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pair() -> (Vec<Kpe>, Vec<Kpe>) {
        let r = datagen::sized(&datagen::la_rr_config(7), 0.01).generate();
        let s = datagen::sized(&datagen::la_st_config(7), 0.01).generate();
        (r, s)
    }

    #[test]
    fn all_algorithms_agree_through_the_public_api() {
        let (r, s) = small_pair();
        let mem = 64 * 1024;
        let algorithms = [
            Algorithm::pbsm_rpm(mem),
            Algorithm::pbsm_original(mem),
            Algorithm::s3j_replicated(mem),
            Algorithm::s3j_original(mem),
            Algorithm::sssj(mem),
            Algorithm::shj(mem),
            Algorithm::two_layer(mem),
            Algorithm::quadtree(1 << 20),
        ];
        let mut reference: Option<Vec<(u64, u64)>> = None;
        for algo in algorithms {
            let name = algo.name();
            let run = SpatialJoin::new(algo).run(&r, &s);
            let mut pairs: Vec<(u64, u64)> =
                run.pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
            pairs.sort_unstable();
            assert_eq!(run.stats.results() as usize, pairs.len(), "{name}");
            match &reference {
                None => reference = Some(pairs),
                Some(want) => assert_eq!(&pairs, want, "{name} diverges"),
            }
        }
    }

    /// The fingerprint is a persisted identity: a resume compares it with
    /// the one in a stored manifest. These are the values byte-wise FNV-1a
    /// gave when the three copies of that loop were folded into
    /// `storage::fnv1a`; they move only if the hash, the field order or an
    /// algorithm's `Debug` form does — each of which orphans every run
    /// directory written before.
    #[test]
    fn fingerprint_is_pinned_to_its_persisted_values() {
        use geom::{Rect, RecordId};
        let r = vec![
            Kpe::new(RecordId(1), Rect::new(0.125, 0.25, 0.5, 0.75)),
            Kpe::new(RecordId(2), Rect::new(0.0, 0.0, 1.0, 1.0)),
        ];
        let s = vec![Kpe::new(RecordId(9), Rect::new(0.25, 0.125, 0.375, 0.625))];
        let pbsm = SpatialJoin::new(Algorithm::pbsm_rpm(1 << 20).with_threads(4));
        let s3j = SpatialJoin::new(Algorithm::s3j_replicated(1 << 20));
        assert_eq!(pbsm.fingerprint(&r, &s), 0x3d74_cc9d_8cb6_d1b2);
        // Moved when `S3jConfig` lost its `threads` field.
        assert_eq!(s3j.fingerprint(&r, &s), 0xc7af_9181_5545_1c0b);
    }

    /// `from_choice` goes through `from_name` and the `with_*` setters; what
    /// it must produce is what the arm-per-family mapping it replaced did,
    /// to the byte of the `Debug` form — the run fingerprint hashes that
    /// string. One template per family, the choice's own fields in the
    /// holes, every other knob at the default of that arm.
    #[test]
    fn from_choice_debug_forms_are_pinned_for_every_planner_candidate() {
        use estimate::{PlanAlgo, PlanSpace, Planner};
        let pbsm = |c: &estimate::PlanChoice, dedup: &str| {
            format!(
                "Pbsm(PbsmConfig {{ mem_bytes: 1048576, safety_factor: 1.2, \
                 tiles_per_partition: {}, internal: {:?}, dedup: {dedup}, tile_scheme: Hash, \
                 partition_buffer_pages: {}, io_buffer_pages: 4, seed: 24301, threads: 0, \
                 max_partition_requeues: 1 }})",
                c.tiles_per_partition, c.internal, c.buffer_pages
            )
        };
        let s3j = |c: &estimate::PlanChoice, replicate: bool| {
            format!(
                "S3j(S3jConfig {{ mem_bytes: 1048576, max_level: 16, replicate: {replicate}, \
                 level_shift: 1, curve: Peano, internal: {:?}, scan: HeapMerge, \
                 level_buffer_pages: {}, io_buffer_pages: 2 }})",
                c.internal, c.buffer_pages
            )
        };
        let mut seen = 0;
        for space in [PlanSpace::All, PlanSpace::Streamable] {
            for c in Planner::new(1 << 20).with_space(space).candidates() {
                let want = match c.algo {
                    PlanAlgo::PbsmRpm => pbsm(&c, "ReferencePoint"),
                    PlanAlgo::PbsmSort => pbsm(&c, "SortPhase"),
                    PlanAlgo::TwoLayer => pbsm(&c, "TwoLayer"),
                    PlanAlgo::S3jReplicated => s3j(&c, true),
                    PlanAlgo::S3jOriginal => s3j(&c, false),
                    PlanAlgo::Sssj => {
                        "Sssj(SssjConfig { mem_bytes: 1048576, io_buffer_pages: 4 })".to_owned()
                    }
                    PlanAlgo::Shj => format!(
                        "Shj(ShjConfig {{ mem_bytes: 1048576, safety_factor: 1.2, \
                         samples_per_bucket: 8, internal: {:?}, bucket_buffer_pages: 1, \
                         io_buffer_pages: 4, seed: 1592614637 }})",
                        c.internal
                    ),
                    PlanAlgo::Quadtree => {
                        "Quadtree(QuadtreeConfig { mem_bytes: 1048576, max_level: 12 })".to_owned()
                    }
                };
                assert_eq!(format!("{:?}", Algorithm::from_choice(&c)), want, "{c:?}");
                seen += 1;
            }
        }
        assert_eq!(seen, 26 + 23, "the candidate sets this was pinned against");
    }

    #[test]
    fn count_matches_run() {
        let (r, s) = small_pair();
        let join = SpatialJoin::new(Algorithm::pbsm_rpm(64 * 1024));
        let run = join.run(&r, &s);
        let (n, stats) = join.count(&r, &s);
        assert_eq!(n as usize, run.pairs.len());
        assert_eq!(stats.results(), run.stats.results());
    }

    #[test]
    fn disk_model_scales_io_seconds() {
        let (r, s) = small_pair();
        let slow = DiskModel {
            transfer_secs_per_page: 0.01,
            ..Default::default()
        };
        let fast = DiskModel {
            transfer_secs_per_page: 0.0001,
            ..Default::default()
        };
        let mem = 48 * 1024;
        let (_, st_slow) = SpatialJoin::new(Algorithm::pbsm_rpm(mem))
            .with_disk_model(slow)
            .count(&r, &s);
        let (_, st_fast) = SpatialJoin::new(Algorithm::pbsm_rpm(mem))
            .with_disk_model(fast)
            .count(&r, &s);
        assert!(st_slow.io_seconds() > st_fast.io_seconds() * 10.0);
        // Same work, same counters.
        assert_eq!(st_slow.io_total(), st_fast.io_total());
    }

    #[test]
    fn recoverable_faults_do_not_change_results() {
        let (r, s) = small_pair();
        for algo in [Algorithm::pbsm_rpm(64 * 1024), Algorithm::s3j_replicated(64 * 1024)] {
            let clean = SpatialJoin::new(algo.clone()).run(&r, &s);
            let faulty = SpatialJoin::new(algo)
                .with_faults(FaultPlan::recoverable(11))
                .try_run(&r, &s)
                .expect("recoverable faults must be cured by retries");
            let sort = |run: &JoinRun| {
                let mut v: Vec<(u64, u64)> = run.pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(sort(&clean), sort(&faulty));
            let io = faulty.stats.io_total();
            assert!(io.faults_injected > 0, "plan must actually fire");
            assert!(io.read_retries + io.write_retries > 0);
            assert_eq!(clean.stats.io_total().faults_injected, 0);
        }
    }

    #[test]
    fn unrecoverable_faults_surface_typed_errors() {
        let (r, s) = small_pair();
        for algo in [Algorithm::pbsm_rpm(64 * 1024), Algorithm::s3j_replicated(64 * 1024)] {
            let err = SpatialJoin::new(algo)
                .with_faults(FaultPlan::unrecoverable(5))
                .try_run(&r, &s)
                .expect_err("every request fails: the join cannot succeed");
            let io = err.io().expect("fault-induced errors carry an IoError");
            assert!(io.kind.is_transient() || io.attempts >= 1);
            assert!(!err.phase.is_empty());
        }
    }

    #[test]
    fn baselines_reject_fault_plans_up_front() {
        let (r, s) = small_pair();
        for algo in [
            Algorithm::sssj(64 * 1024),
            Algorithm::shj(64 * 1024),
            Algorithm::quadtree(1 << 20),
        ] {
            let err = SpatialJoin::new(algo)
                .with_faults(FaultPlan::recoverable(1))
                .try_run(&r, &s)
                .expect_err("baselines have no fallible code path");
            assert_eq!(err.io().map(|io| io.kind), Some(IoErrorKind::Unsupported));
            assert_eq!(err.phase, "setup");
        }
    }

    #[test]
    fn quadtree_refuses_inputs_over_its_memory_budget() {
        let (r, s) = small_pair();
        let err = SpatialJoin::new(Algorithm::quadtree(1024))
            .try_run(&r, &s)
            .expect_err("both trees cannot fit 1 KiB");
        assert_eq!(err.io().map(|io| io.kind), Some(IoErrorKind::Unsupported));
        assert_eq!(err.phase, "setup");
    }

    #[test]
    fn retry_policy_none_turns_recoverable_into_failure() {
        let (r, s) = small_pair();
        let res = SpatialJoin::new(Algorithm::pbsm_rpm(64 * 1024))
            .with_faults(FaultPlan::recoverable(11))
            .with_retry(RetryPolicy::none())
            .try_run(&r, &s);
        // With one attempt per request and no degradation deep enough to
        // outlast a 5% identity fault rate, the join is overwhelmingly
        // likely to fail — and must do so with a typed error, not a panic.
        if let Err(e) = res {
            assert!(e.io().is_some_and(|io| io.attempts >= 1));
        }
    }

    #[test]
    fn names_are_distinct_and_stable() {
        let names: Vec<&str> = [
            Algorithm::pbsm_rpm(1),
            Algorithm::pbsm_original(1),
            Algorithm::s3j_replicated(1),
            Algorithm::s3j_original(1),
            Algorithm::sssj(1),
            Algorithm::shj(1),
            Algorithm::two_layer(1),
            Algorithm::quadtree(1),
        ]
        .iter()
        .map(|a| a.name())
        .collect();
        let mut uniq = names.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len());
    }
}
