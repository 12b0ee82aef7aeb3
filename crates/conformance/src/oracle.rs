//! The metamorphic oracle: every join algorithm, run through the public
//! API, must produce the same result set — equal to a brute-force reference
//! and invariant under semantics-preserving transformations of the input
//! and the configuration.
//!
//! Two oracle relation families are used, both *sound* (a reported
//! difference is always a real bug, never an artefact):
//!
//! * **configuration invariance** — memory budget (and therefore partition
//!   count), tile grid, internal algorithm, thread count, fault plan,
//!   CPU-slowdown factor, I/O channel count: none of these touch the
//!   geometry, so the result set (and for threads/slowdown/channels even
//!   the I/O counters) must not move;
//! * **exact geometric transforms** — scaling by a power of two is exact in
//!   `f64`, and translating by a dyadic-lattice amount after an exact
//!   halving is exact for lattice-aligned workloads (the adversarial
//!   generator only emits such workloads; for foreign inputs exactness is
//!   verified per coordinate and the transform is skipped when it would
//!   round). Exact affine maps preserve the intersection relation, so the
//!   result pairs must be identical.

use geom::{Kpe, Rect};
use quadtree::MxCifQuadtree;
use spatialjoin::{
    Algorithm, CrashPoint, DiskModel, FaultPlan, InternalAlgo, JoinErrorKind, JoinStats,
    SpatialJoin,
};

/// Finest quadtree level used for the in-memory MX-CIF reference join.
const QUADTREE_LEVEL: u8 = 12;

/// Every algorithm under conformance test. The three PBSM-RPM entries
/// differ only in the internal (in-memory) join, covering all
/// [`InternalAlgo`]s; quadtree is the paper's §4.1 in-memory join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgoId {
    PbsmRpmNested,
    PbsmRpmList,
    PbsmRpmTrie,
    PbsmSort,
    S3jReplicated,
    S3jOriginal,
    Sssj,
    Shj,
    /// PBSM partitioning with the two-layer A/B/C/D class scheme (each
    /// pair found exactly once, no duplicate tests).
    TwoLayer,
    Quadtree,
}

impl AlgoId {
    pub const ALL: [AlgoId; 10] = [
        AlgoId::PbsmRpmNested,
        AlgoId::PbsmRpmList,
        AlgoId::PbsmRpmTrie,
        AlgoId::PbsmSort,
        AlgoId::S3jReplicated,
        AlgoId::S3jOriginal,
        AlgoId::Sssj,
        AlgoId::Shj,
        AlgoId::TwoLayer,
        AlgoId::Quadtree,
    ];

    pub fn name(self) -> &'static str {
        match self {
            AlgoId::PbsmRpmNested => "pbsm-rpm-nested",
            AlgoId::PbsmRpmList => "pbsm-rpm-list",
            AlgoId::PbsmRpmTrie => "pbsm-rpm-trie",
            AlgoId::PbsmSort => "pbsm-sort",
            AlgoId::S3jReplicated => "s3j",
            AlgoId::S3jOriginal => "s3j-orig",
            AlgoId::Sssj => "sssj",
            AlgoId::Shj => "shj",
            AlgoId::TwoLayer => "twolayer",
            AlgoId::Quadtree => "quadtree",
        }
    }

    pub fn parse(s: &str) -> Option<AlgoId> {
        AlgoId::ALL.into_iter().find(|a| a.name() == s)
    }
}

impl std::fmt::Display for AlgoId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A semantics-preserving transformation of the workload or configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transform {
    /// No transform: the base run must equal brute force (and satisfy the
    /// accounting identities). Anchors the whole metamorphic chain to
    /// ground truth.
    Identity,
    /// Exact halving about the origin followed by a dyadic translation
    /// (`x ↦ x/2 + dx`). The halving guarantees both slack inside the unit
    /// square and bit-exactness of the subsequent addition.
    Translate { dx: f64, dy: f64 },
    /// Pure scaling about the origin by a power of two `p ≤ 1` (exact).
    Scale { p: f64 },
    /// Join `(s, r)` instead of `(r, s)`: the mirrored pair set must match.
    SwapInputs,
    /// Different memory budget — and therefore partition count / bucket
    /// count / sort-run length. Results must be invariant.
    Mem { bytes: usize },
    /// Different PBSM tiles-per-partition (`NT = P ·` this).
    Tiles { per_partition: u32 },
    /// Parallel partition execution: results, counters and I/O totals must
    /// be identical to the sequential path.
    Threads { n: usize },
    /// Seeded recoverable fault plan: retries must cure every fault without
    /// changing the result set.
    Faults { seed: u64 },
    /// Different CPU-slowdown factor in the disk model: results, I/O totals
    /// and counted CPU work must be invariant (time scaling must not leak
    /// into logic), and the priced CPU leg must scale by exactly the ratio of
    /// the two factors.
    CpuSlowdown { factor: f64 },
    /// Different number of simulated I/O channels in the disk model: file
    /// layout and request streams are identical for any channel count, so
    /// results *and* I/O totals must be invariant (only the simulated clock
    /// may move, and only downward).
    Channels { d: usize },
    /// Injected crash at `point` followed by a resume on the same disk
    /// state: the interrupted leg's emissions plus the resumed leg's must
    /// equal the uninterrupted result set with zero overlap (exactly-once),
    /// and the resumed run's folded counters must match the uninterrupted
    /// run's.
    Crash { point: CrashPoint },
    /// Cost-based plan selection: profile the workload, let the planner pick
    /// whatever `(algorithm, tiles, internal, buffers)` it ranks best under
    /// the cell's memory budget, and run the winner. Plan choice only moves
    /// the execution strategy, never the geometry, so the result set must be
    /// bit-identical to the reference cell's.
    PlanAuto,
    /// Persistent media damage (and optionally a disk budget in pages): the
    /// run must end in exactly one of two states — the bit-identical clean
    /// result set (quarantine-recompute or fallback recovered it) or a
    /// typed persistent-kind error. A wrong answer, a transient-kind error
    /// or a panic is a conformance failure: damaged sectors fail reads,
    /// they never silently return rotten bytes.
    Chaos { seed: u64, budget: Option<u64> },
}

impl Transform {
    /// Whether this transform is meaningful for `algo`. Geometric
    /// transforms apply everywhere; configuration transforms only where the
    /// configuration surface exists (e.g. no fault plan for the infallible
    /// single-sweep baselines, no tile grid outside PBSM).
    pub fn applies_to(self, algo: AlgoId) -> bool {
        use AlgoId::*;
        match self {
            Transform::Identity
            | Transform::Translate { .. }
            | Transform::Scale { .. }
            | Transform::SwapInputs => true,
            Transform::Mem { .. } | Transform::CpuSlowdown { .. } | Transform::Channels { .. } => {
                algo != Quadtree
            }
            Transform::Tiles { .. } => {
                matches!(algo, PbsmRpmNested | PbsmRpmList | PbsmRpmTrie | PbsmSort | TwoLayer)
            }
            Transform::Threads { .. } | Transform::Faults { .. } => matches!(
                algo,
                PbsmRpmNested
                    | PbsmRpmList
                    | PbsmRpmTrie
                    | PbsmSort
                    | S3jReplicated
                    | S3jOriginal
                    | TwoLayer
            ),
            // Only the checkpointable joins: RPM (and the two-layer class
            // scheme) attribute each pair to one partition (the resume
            // unit); sort-phase dedup and the S³J ablation scan refuse
            // checkpointing with a typed error.
            Transform::Crash { .. } => matches!(
                algo,
                PbsmRpmNested | PbsmRpmList | PbsmRpmTrie | S3jReplicated | S3jOriginal | TwoLayer
            ),
            // The planner's pick is independent of which reference cell it is
            // compared against; one representative avoids re-running the same
            // planned join nine times per workload.
            Transform::PlanAuto => algo == PbsmRpmList,
            // Same family set as `Faults`: the PBSM and S³J joins own the
            // retry/quarantine machinery the chaos relation gates; the
            // baselines refuse fault injection with a typed setup error and
            // the in-memory quadtree has no disk to degrade.
            Transform::Chaos { .. } => matches!(
                algo,
                PbsmRpmNested
                    | PbsmRpmList
                    | PbsmRpmTrie
                    | PbsmSort
                    | S3jReplicated
                    | S3jOriginal
                    | TwoLayer
            ),
        }
    }
}

impl std::fmt::Display for Transform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Transform::Identity => write!(f, "identity"),
            Transform::Translate { dx, dy } => write!(f, "translate {dx} {dy}"),
            Transform::Scale { p } => write!(f, "scale {p}"),
            Transform::SwapInputs => write!(f, "swap"),
            Transform::Mem { bytes } => write!(f, "mem {bytes}"),
            Transform::Tiles { per_partition } => write!(f, "tiles {per_partition}"),
            Transform::Threads { n } => write!(f, "threads {n}"),
            Transform::Faults { seed } => write!(f, "faults {seed}"),
            Transform::CpuSlowdown { factor } => write!(f, "cpu-slowdown {factor}"),
            Transform::Channels { d } => write!(f, "channels {d}"),
            Transform::Crash { point } => write!(f, "crash {point}"),
            Transform::PlanAuto => write!(f, "plan-auto"),
            Transform::Chaos { seed, budget } => match budget {
                None => write!(f, "chaos {seed}"),
                Some(pages) => write!(f, "chaos {seed} budget {pages}"),
            },
        }
    }
}

impl Transform {
    pub fn parse(s: &str) -> Option<Transform> {
        let mut it = s.split_whitespace();
        let head = it.next()?;
        let mut num = || it.next().and_then(|v| v.parse::<f64>().ok());
        let t = match head {
            "identity" => Transform::Identity,
            "translate" => Transform::Translate { dx: num()?, dy: num()? },
            "scale" => Transform::Scale { p: num()? },
            "swap" => Transform::SwapInputs,
            "mem" => Transform::Mem { bytes: num()? as usize },
            "tiles" => Transform::Tiles { per_partition: num()? as u32 },
            "threads" => Transform::Threads { n: num()? as usize },
            "faults" => Transform::Faults { seed: num()? as u64 },
            "cpu-slowdown" => Transform::CpuSlowdown { factor: num()? },
            "channels" => Transform::Channels { d: num()? as usize },
            "crash" => Transform::Crash {
                point: CrashPoint::from_spec(it.next()?)?,
            },
            "plan-auto" => Transform::PlanAuto,
            "chaos" => {
                let seed = it.next()?.parse::<u64>().ok()?;
                let budget = match it.next() {
                    None => None,
                    Some("budget") => Some(it.next()?.parse::<u64>().ok()?),
                    Some(_) => return None,
                };
                Transform::Chaos { seed, budget }
            }
            _ => return None,
        };
        Some(t)
    }
}

/// Base configuration of an oracle run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Memory budget in bytes. The default is deliberately tiny so even
    /// small adversarial workloads span several partitions.
    pub mem: usize,
    pub threads: usize,
    pub tiles_per_partition: Option<u32>,
    pub fault_seed: Option<u64>,
    pub cpu_slowdown: Option<f64>,
    /// Simulated I/O channels of the disk model (`None` = the default 1).
    pub channels: Option<usize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            mem: 4 * 1024,
            threads: 1,
            tiles_per_partition: None,
            fault_seed: None,
            cpu_slowdown: None,
            channels: None,
        }
    }
}

impl RunConfig {
    /// The disk model of the cell: the default with the cell's overrides.
    fn model(&self) -> DiskModel {
        let base = DiskModel::default();
        DiskModel {
            cpu_slowdown: self.cpu_slowdown.unwrap_or(base.cpu_slowdown),
            channels: self.channels.unwrap_or(base.channels),
            ..base
        }
    }
}

/// Outcome of one algorithm run: sorted pairs plus (for the external
/// algorithms) the uniform statistics.
pub struct RunOut {
    pub pairs: Vec<(u64, u64)>,
    pub stats: Option<JoinStats>,
}

/// Brute-force reference join (the ground truth every chain anchors to).
pub fn brute_force(r: &[Kpe], s: &[Kpe]) -> Vec<(u64, u64)> {
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

/// The configured [`Algorithm`] for an oracle cell (`None` for the
/// in-memory quadtree, which has no external configuration surface).
fn configured_algorithm(algo: AlgoId, cfg: &RunConfig) -> Option<Algorithm> {
    let base = match algo {
        AlgoId::PbsmRpmNested => {
            Algorithm::pbsm_rpm(cfg.mem).with_internal(InternalAlgo::NestedLoops)
        }
        AlgoId::PbsmRpmList => {
            Algorithm::pbsm_rpm(cfg.mem).with_internal(InternalAlgo::PlaneSweepList)
        }
        AlgoId::PbsmRpmTrie => {
            Algorithm::pbsm_rpm(cfg.mem).with_internal(InternalAlgo::PlaneSweepTrie)
        }
        AlgoId::PbsmSort => Algorithm::pbsm_original(cfg.mem),
        AlgoId::S3jReplicated => Algorithm::s3j_replicated(cfg.mem),
        AlgoId::S3jOriginal => Algorithm::s3j_original(cfg.mem),
        AlgoId::Sssj => Algorithm::sssj(cfg.mem),
        AlgoId::Shj => Algorithm::shj(cfg.mem),
        AlgoId::TwoLayer => Algorithm::two_layer(cfg.mem),
        AlgoId::Quadtree => return None,
    };
    let mut base = base.with_threads(cfg.threads);
    if let Some(tiles) = cfg.tiles_per_partition {
        base = base.with_tiles_per_partition(tiles);
    }
    Some(base)
}

/// Runs one algorithm through the public API under `cfg`.
pub fn run_algo(algo: AlgoId, cfg: &RunConfig, r: &[Kpe], s: &[Kpe]) -> Result<RunOut, String> {
    let Some(base) = configured_algorithm(algo, cfg) else {
        let tr = MxCifQuadtree::bulk(r, QUADTREE_LEVEL);
        let ts = MxCifQuadtree::bulk(s, QUADTREE_LEVEL);
        let mut pairs = Vec::new();
        tr.join(&ts, &mut |a, b| pairs.push((a.id.0, b.id.0)));
        pairs.sort_unstable();
        return Ok(RunOut { pairs, stats: None });
    };
    run_configured(algo.name(), base, cfg, r, s)
}

/// Runs an already-configured [`Algorithm`] under the cell's fault plan and
/// disk model, gating the same metrics-reconciliation contract as every
/// other oracle cell.
fn run_configured(
    label: &str,
    base: Algorithm,
    cfg: &RunConfig,
    r: &[Kpe],
    s: &[Kpe],
) -> Result<RunOut, String> {
    let mut join = SpatialJoin::new(base).with_disk_model(cfg.model());
    if let Some(seed) = cfg.fault_seed {
        join = join.with_faults(FaultPlan::recoverable(seed));
    }
    let run = join
        .try_run(r, s)
        .map_err(|e| format!("{label}: join failed: {e}"))?;
    // Every oracle cell also gates the observability contract: the
    // per-phase metrics must reconcile exactly with the run totals, under
    // whatever faults/threads this cell configured.
    run.stats
        .metrics_report(label, cfg.threads)
        .reconcile()
        .map_err(|e| format!("{label}: metrics fail to reconcile: {e}"))?;
    let mut pairs: Vec<(u64, u64)> = run.pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
    pairs.sort_unstable();
    Ok(RunOut {
        pairs,
        stats: Some(run.stats),
    })
}

/// Applies `x ↦ x/2 + dx` to every coordinate. Returns `None` if any
/// coordinate would leave the unit square or round (the caller skips the
/// transform — soundness over coverage).
fn translated(data: &[Kpe], dx: f64, dy: f64) -> Option<Vec<Kpe>> {
    let map = |v: f64, d: f64| -> Option<f64> {
        let half = v * 0.5; // exact: power-of-two scaling
        let shifted = half + d;
        // Exactness witness: the addition must be reversible bit-for-bit.
        if !(0.0..=1.0).contains(&shifted) || shifted - d != half {
            return None;
        }
        Some(shifted)
    };
    data.iter()
        .map(|k| {
            Some(Kpe::new(
                k.id,
                Rect::new(
                    map(k.rect.xl, dx)?,
                    map(k.rect.yl, dy)?,
                    map(k.rect.xh, dx)?,
                    map(k.rect.yh, dy)?,
                ),
            ))
        })
        .collect()
}

/// Applies exact power-of-two scaling about the origin.
fn scaled(data: &[Kpe], p: f64) -> Vec<Kpe> {
    data.iter()
        .map(|k| {
            Kpe::new(
                k.id,
                Rect::new(k.rect.xl * p, k.rect.yl * p, k.rect.xh * p, k.rect.yh * p),
            )
        })
        .collect()
}

/// Uniform accounting checks on a completed run: the reported result count
/// matches the emitted pairs, the pair stream is duplicate-free, and the
/// duplicate-accounting identity `candidates = results + suppressed` holds
/// for the replicating algorithms (the baselines must report zero
/// suppressed duplicates).
fn accounting(algo: AlgoId, out: &RunOut) -> Option<String> {
    if out.pairs.windows(2).any(|w| w[0] == w[1]) {
        return Some(format!("{algo}: emitted a duplicate result pair"));
    }
    let stats = out.stats.as_ref()?;
    if stats.results() as usize != out.pairs.len() {
        return Some(format!(
            "{algo}: stats.results {} != emitted pairs {}",
            stats.results(),
            out.pairs.len()
        ));
    }
    match stats {
        JoinStats::Pbsm(st) => {
            if st.candidates != st.results + st.duplicates {
                return Some(format!(
                    "{algo}: candidates {} != results {} + suppressed {}",
                    st.candidates, st.results, st.duplicates
                ));
            }
        }
        JoinStats::S3j(st) => {
            if st.candidates != st.results + st.duplicates {
                return Some(format!(
                    "{algo}: candidates {} != results {} + suppressed {}",
                    st.candidates, st.results, st.duplicates
                ));
            }
        }
        JoinStats::Sssj(_) | JoinStats::Shj(_) | JoinStats::Quadtree(_) => {
            if stats.duplicates() != 0 {
                return Some(format!("{algo}: baseline reported suppressed duplicates"));
            }
        }
    }
    None
}

/// The crash-recovery oracle relation, checked in three legs on one cell:
///
/// 1. a **durable** run on a fresh disk with `point` armed runs until the
///    injected crash fires (the pairs it emitted before dying are kept);
/// 2. a **resume** on the same disk state recovers the manifest, truncates
///    any torn journal tail, and completes the run;
/// 3. both legs together must reproduce the uninterrupted result set
///    (`base`) with **zero overlap** — each pair emitted exactly once — and
///    the resumed run's folded counters must equal the uninterrupted run's.
///
/// If the crash point lies beyond the run's end (e.g. `after-commit:3` on a
/// two-partition join) the first leg completes normally; the cell then
/// degenerates to "durable run equals plain run", which must still hold.
fn check_crash_legs(
    algo: AlgoId,
    point: CrashPoint,
    cfg: &RunConfig,
    base: &RunOut,
    r: &[Kpe],
    s: &[Kpe],
) -> Option<String> {
    let join = SpatialJoin::new(configured_algorithm(algo, cfg)?)
        .with_disk_model(cfg.model())
        .with_faults(FaultPlan::crash_only(0, point));
    let run_id = 0xC0FFEE;
    let disk = join.disk();
    let mut first: Vec<(u64, u64)> = Vec::new();
    let crash_leg =
        join.try_run_durable_with(&disk, r, s, run_id, &mut |a, b| first.push((a.0, b.0)));
    first.sort_unstable();
    match crash_leg {
        Err(e) if matches!(e.kind, JoinErrorKind::Crashed(_)) => {}
        Err(e) => {
            return Some(format!(
                "{algo} [crash {point}]: crash leg died with a non-crash error: {e}"
            ))
        }
        Ok(_) => {
            // Crash point beyond the end of the run: no interruption.
            if first != base.pairs {
                return Some(format!(
                    "{algo} [crash {point}]: durable run diverges from plain run: {}",
                    first_diff(&first, &base.pairs)
                ));
            }
            return None;
        }
    }
    // Resume on the same disk state; recovery disables the injector.
    let mut second: Vec<(u64, u64)> = Vec::new();
    let stats = match join.try_run_durable_with(&disk, r, s, run_id, &mut |a, b| {
        second.push((a.0, b.0))
    }) {
        Ok(stats) => stats,
        Err(e) => return Some(format!("{algo} [crash {point}]: resume failed: {e}")),
    };
    second.sort_unstable();
    if let Some(dup) = first.iter().find(|p| second.binary_search(p).is_ok()) {
        return Some(format!(
            "{algo} [crash {point}]: pair {dup:?} re-emitted on resume (exactly-once violated)"
        ));
    }
    let mut union: Vec<(u64, u64)> = first.iter().chain(second.iter()).copied().collect();
    union.sort_unstable();
    if union != base.pairs {
        return Some(format!(
            "{algo} [crash {point}]: crash+resume legs diverge from uninterrupted run: {}",
            first_diff(&union, &base.pairs)
        ));
    }
    if let Some(b) = &base.stats {
        if (stats.results(), stats.duplicates()) != (b.results(), b.duplicates()) {
            return Some(format!(
                "{algo} [crash {point}]: resumed totals ({}, {}) != uninterrupted ({}, {})",
                stats.results(),
                stats.duplicates(),
                b.results(),
                b.duplicates()
            ));
        }
    }
    // Under a multi-channel model the resumed run's per-channel buckets
    // (restored files fold back into their channels via the snapshot's
    // channel tags) must still decompose its I/O total exactly.
    let folded = stats
        .io_channels()
        .iter()
        .fold(stats.io_shared(), |acc, c| acc.plus(c));
    if folded != stats.io_total() {
        return Some(format!(
            "{algo} [crash {point}]: resumed per-channel buckets do not sum to io_total"
        ));
    }
    None
}

/// The chaos oracle relation: one cell run under a persistent-damage fault
/// plan (and optionally a page budget that forces ENOSPC mid-run). Exactly
/// two outcomes are conformant:
///
/// 1. the run completes — then its result set must be **bit-identical** to
///    the clean cell's (quarantine-recompute or the disk-full fallback
///    ladder recovered it), with metrics still reconciling and the
///    duplicate-accounting identity intact; or
/// 2. the run dies with a **typed persistent-kind** I/O error.
///
/// A diverging result set, a transient-kind error, or any non-I/O failure
/// is a conformance violation: damaged sectors fail reads, they never
/// silently return rotten bytes.
fn check_chaos(
    algo: AlgoId,
    seed: u64,
    budget: Option<u64>,
    cfg: &RunConfig,
    base: &RunOut,
    r: &[Kpe],
    s: &[Kpe],
) -> Option<String> {
    let base_algo = configured_algorithm(algo, cfg)?;
    let mut plan = FaultPlan::persistent(seed).with_persistent_rate(0.03);
    if let Some(pages) = budget {
        plan = plan.with_disk_budget(pages);
    }
    let join = SpatialJoin::new(base_algo)
        .with_disk_model(cfg.model())
        .with_faults(plan);
    let label = format!("{algo} [chaos {seed}]");
    match join.try_run(r, s) {
        Ok(run) => {
            if let Err(e) = run.stats.metrics_report(&label, cfg.threads).reconcile() {
                return Some(format!("{label}: metrics fail to reconcile: {e}"));
            }
            let mut pairs: Vec<(u64, u64)> =
                run.pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
            pairs.sort_unstable();
            let out = RunOut {
                pairs,
                stats: Some(run.stats),
            };
            if let Some(msg) = accounting(algo, &out) {
                return Some(format!("{msg} [under chaos {seed}]"));
            }
            if out.pairs != base.pairs {
                return Some(format!(
                    "{label}: silent divergence under persistent damage: {}",
                    first_diff(&out.pairs, &base.pairs)
                ));
            }
            None
        }
        Err(e) => match e.io() {
            Some(io) if io.kind.is_persistent() => None,
            _ => Some(format!(
                "{label}: non-persistent failure under persistent damage: {e}"
            )),
        },
    }
}

fn first_diff(a: &[(u64, u64)], b: &[(u64, u64)]) -> String {
    let only_a = a.iter().find(|p| b.binary_search(p).is_err());
    let only_b = b.iter().find(|p| a.binary_search(p).is_err());
    format!(
        "{} vs {} pairs; first only-left {:?}, first only-right {:?}",
        a.len(),
        b.len(),
        only_a,
        only_b
    )
}

/// Checks one `(algorithm, transform)` cell on one workload. Returns a
/// failure message, or `None` if the oracle relation holds (or the
/// transform does not apply / would be inexact on this workload).
pub fn check_one(
    algo: AlgoId,
    transform: Transform,
    cfg: &RunConfig,
    r: &[Kpe],
    s: &[Kpe],
) -> Option<String> {
    if !transform.applies_to(algo) {
        return None;
    }
    let base = match run_algo(algo, cfg, r, s) {
        Ok(out) => out,
        Err(e) => return Some(e),
    };
    if let Some(msg) = accounting(algo, &base) {
        return Some(msg);
    }
    let (variant, expect): (RunOut, Vec<(u64, u64)>) = match transform {
        Transform::Identity => {
            let want = brute_force(r, s);
            if base.pairs != want {
                return Some(format!(
                    "{algo} [identity]: diverges from brute force: {}",
                    first_diff(&base.pairs, &want)
                ));
            }
            return None;
        }
        Transform::Translate { dx, dy } => {
            let (tr, ts) = (translated(r, dx, dy)?, translated(s, dx, dy)?);
            match run_algo(algo, cfg, &tr, &ts) {
                Ok(out) => (out, base.pairs.clone()),
                Err(e) => return Some(e),
            }
        }
        Transform::Scale { p } => {
            let (sr, ss) = (scaled(r, p), scaled(s, p));
            match run_algo(algo, cfg, &sr, &ss) {
                Ok(out) => (out, base.pairs.clone()),
                Err(e) => return Some(e),
            }
        }
        Transform::SwapInputs => {
            let mut mirrored: Vec<(u64, u64)> =
                base.pairs.iter().map(|&(a, b)| (b, a)).collect();
            mirrored.sort_unstable();
            match run_algo(algo, cfg, s, r) {
                Ok(out) => (out, mirrored),
                Err(e) => return Some(e),
            }
        }
        Transform::Mem { bytes } => {
            let cfg2 = RunConfig { mem: bytes, ..*cfg };
            match run_algo(algo, &cfg2, r, s) {
                Ok(out) => (out, base.pairs.clone()),
                Err(e) => return Some(e),
            }
        }
        Transform::Tiles { per_partition } => {
            let cfg2 = RunConfig {
                tiles_per_partition: Some(per_partition),
                ..*cfg
            };
            match run_algo(algo, &cfg2, r, s) {
                Ok(out) => (out, base.pairs.clone()),
                Err(e) => return Some(e),
            }
        }
        Transform::Threads { n } => {
            let cfg2 = RunConfig { threads: n, ..*cfg };
            match run_algo(algo, &cfg2, r, s) {
                Ok(out) => (out, base.pairs.clone()),
                Err(e) => return Some(e),
            }
        }
        Transform::Faults { seed } => {
            let cfg2 = RunConfig {
                fault_seed: Some(seed),
                ..*cfg
            };
            match run_algo(algo, &cfg2, r, s) {
                Ok(out) => (out, base.pairs.clone()),
                Err(e) => return Some(e),
            }
        }
        Transform::CpuSlowdown { factor } => {
            let cfg2 = RunConfig {
                cpu_slowdown: Some(factor),
                ..*cfg
            };
            match run_algo(algo, &cfg2, r, s) {
                Ok(out) => (out, base.pairs.clone()),
                Err(e) => return Some(e),
            }
        }
        Transform::Channels { d } => {
            let cfg2 = RunConfig {
                channels: Some(d),
                ..*cfg
            };
            match run_algo(algo, &cfg2, r, s) {
                Ok(out) => (out, base.pairs.clone()),
                Err(e) => return Some(e),
            }
        }
        Transform::Crash { point } => {
            return check_crash_legs(algo, point, cfg, &base, r, s);
        }
        Transform::Chaos { seed, budget } => {
            return check_chaos(algo, seed, budget, cfg, &base, r, s);
        }
        Transform::PlanAuto => {
            use spatialjoin::estimate::{DatasetProfile, Planner};
            // The oracle gates correctness of the *selected execution*, not
            // accuracy of the cost model.
            let plan = Planner::new(cfg.mem)
                .plan(&DatasetProfile::build(r), &DatasetProfile::build(s));
            let choice = plan.chosen().choice;
            let planned = Algorithm::from_choice(&choice).with_threads(cfg.threads);
            let label = format!("planned:{}", choice.describe());
            match run_configured(&label, planned, cfg, r, s) {
                Ok(out) => (out, base.pairs.clone()),
                Err(e) => return Some(e),
            }
        }
    };
    if let Some(msg) = accounting(algo, &variant) {
        return Some(format!("{msg} [under {transform}]"));
    }
    if variant.pairs != expect {
        return Some(format!(
            "{algo} [{transform}]: result set not invariant: {}",
            first_diff(&variant.pairs, &expect)
        ));
    }
    // Transforms that must not even move the I/O counters: thread count
    // (deterministic parallel reassembly), CPU-slowdown (a pure time
    // scaling — if it leaks into logic, the cost model is broken), and
    // channel count (a pure re-binning of the same requests — file layout
    // must be identical for any D).
    if matches!(
        transform,
        Transform::Threads { .. } | Transform::CpuSlowdown { .. } | Transform::Channels { .. }
    ) {
        if let (Some(a), Some(b)) = (&base.stats, &variant.stats) {
            if a.io_total() != b.io_total() {
                return Some(format!(
                    "{algo} [{transform}]: I/O totals not invariant: {:?} vs {:?}",
                    a.io_total(),
                    b.io_total()
                ));
            }
            if (a.results(), a.duplicates()) != (b.results(), b.duplicates()) {
                return Some(format!(
                    "{algo} [{transform}]: counters not invariant: ({}, {}) vs ({}, {})",
                    a.results(),
                    a.duplicates(),
                    b.results(),
                    b.duplicates()
                ));
            }
            // A slowdown is a pure change of price: the same counted work, so
            // the priced CPU leg scales by exactly `factor / base slowdown`.
            if let Transform::CpuSlowdown { factor } = transform {
                let model = DiskModel { cpu_slowdown: factor, ..a.model() };
                if a.work() != b.work() || b.scaled_cpu_seconds() != model.priced_cpu(&a.work()) {
                    let cpu = b.scaled_cpu_seconds();
                    return Some(format!("{algo} [{transform}]: priced CPU {cpu} is not the base's work repriced"));
                }
            }
        }
    }
    None
}

/// One failed oracle cell.
#[derive(Debug, Clone)]
pub struct Failure {
    pub algo: AlgoId,
    pub transform: Transform,
    pub message: String,
}

/// Runs the full oracle matrix on one workload.
pub fn check_workload(
    r: &[Kpe],
    s: &[Kpe],
    cfg: &RunConfig,
    algos: &[AlgoId],
    transforms: &[Transform],
) -> Vec<Failure> {
    let mut failures = Vec::new();
    for &algo in algos {
        for &transform in transforms {
            if let Some(message) = check_one(algo, transform, cfg, r, s) {
                failures.push(Failure {
                    algo,
                    transform,
                    message,
                });
            }
        }
    }
    failures
}

/// The transform set exercised for one soak seed: all nine relation kinds,
/// with seed-derived dyadic offsets and knob values.
pub fn transforms_for(seed: u64, mem: usize) -> Vec<Transform> {
    let lattice = (1u64 << 20) as f64;
    let dx = ((seed.wrapping_mul(7).wrapping_add(3)) % (1 << 18)) as f64 / lattice;
    let dy = ((seed.wrapping_mul(13).wrapping_add(5)) % (1 << 18)) as f64 / lattice;
    vec![
        Transform::Identity,
        Transform::Translate { dx, dy },
        Transform::Scale { p: 0.5 },
        Transform::SwapInputs,
        Transform::Mem {
            bytes: (mem / 2).max(1024),
        },
        Transform::Mem { bytes: mem * 4 },
        Transform::Tiles {
            per_partition: if seed.is_multiple_of(2) { 1 } else { 9 },
        },
        Transform::Threads {
            n: 2 + (seed % 3) as usize,
        },
        Transform::Faults {
            seed: seed ^ 0xFA17,
        },
        Transform::CpuSlowdown { factor: 1.0 },
        Transform::Channels {
            d: 2 + 2 * (seed % 2) as usize,
        },
        Transform::PlanAuto,
    ]
}

/// The crash-recovery transform set for one soak seed: one instance of each
/// [`CrashPoint`] taxon, with seed-derived commit indices so the soak walks
/// different commit boundaries on different seeds.
pub fn crash_points_for(seed: u64) -> Vec<Transform> {
    vec![
        Transform::Crash {
            point: CrashPoint::AfterCommit(1 + (seed % 3) as u32),
        },
        Transform::Crash {
            point: CrashPoint::MidPartition((seed % 2) as u32),
        },
        Transform::Crash {
            point: CrashPoint::MidRename,
        },
    ]
}

/// The persistent-damage transform set for one soak seed: one pure
/// corruption leg (every damaged sector fails on every re-read) and one leg
/// that additionally caps the disk at a seed-derived page budget so the
/// ENOSPC fallback ladder is exercised alongside quarantine-recompute.
pub fn chaos_transforms_for(seed: u64) -> Vec<Transform> {
    vec![
        Transform::Chaos {
            seed: seed ^ 0x0BAD_5EC7,
            budget: None,
        },
        Transform::Chaos {
            seed: seed.wrapping_mul(31).wrapping_add(7),
            budget: Some(24 + (seed % 5) * 8),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_names_round_trip() {
        for algo in AlgoId::ALL {
            assert_eq!(AlgoId::parse(algo.name()), Some(algo));
        }
        assert_eq!(AlgoId::parse("nope"), None);
    }

    #[test]
    fn transform_strings_round_trip() {
        for t in transforms_for(5, 4096) {
            let s = t.to_string();
            assert_eq!(Transform::parse(&s), Some(t), "{s}");
        }
    }

    #[test]
    fn crash_transform_strings_round_trip() {
        for seed in 0..6 {
            for t in crash_points_for(seed) {
                let s = t.to_string();
                assert_eq!(Transform::parse(&s), Some(t), "{s}");
            }
        }
        assert_eq!(Transform::parse("crash bogus"), None);
        assert_eq!(Transform::parse("crash"), None);
    }

    #[test]
    fn crash_oracle_accepts_a_small_adversarial_workload() {
        let (r, s) = datagen::Adversarial { count: 60, seed: 7 }.generate_pair();
        let cfg = RunConfig::default();
        for threads in [1usize, 4] {
            let cfg = RunConfig { threads, ..cfg };
            let failures = check_workload(&r, &s, &cfg, &AlgoId::ALL, &crash_points_for(7));
            assert!(
                failures.is_empty(),
                "threads {threads}: unexpected failures: {:?}",
                failures
                    .iter()
                    .map(|f| format!("{} [{}]: {}", f.algo, f.transform, f.message))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn chaos_transform_strings_round_trip() {
        for seed in 0..6 {
            for t in chaos_transforms_for(seed) {
                let s = t.to_string();
                assert_eq!(Transform::parse(&s), Some(t), "{s}");
            }
        }
        assert_eq!(Transform::parse("chaos"), None);
        assert_eq!(Transform::parse("chaos 3 pages 9"), None);
        assert_eq!(Transform::parse("chaos 3 budget"), None);
    }

    #[test]
    fn chaos_oracle_accepts_a_small_adversarial_workload() {
        let (r, s) = datagen::Adversarial { count: 60, seed: 9 }.generate_pair();
        let cfg = RunConfig::default();
        for threads in [1usize, 4] {
            let cfg = RunConfig { threads, ..cfg };
            let failures = check_workload(&r, &s, &cfg, &AlgoId::ALL, &chaos_transforms_for(9));
            assert!(
                failures.is_empty(),
                "threads {threads}: unexpected failures: {:?}",
                failures
                    .iter()
                    .map(|f| format!("{} [{}]: {}", f.algo, f.transform, f.message))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn translated_is_exact_on_lattice_data() {
        let (r, _) = datagen::Adversarial { count: 100, seed: 1 }.generate_pair();
        let dx = 1234.0 / (1u64 << 20) as f64;
        let t = translated(&r, dx, dx).expect("lattice data translates exactly");
        for (a, b) in r.iter().zip(&t) {
            assert_eq!(b.rect.xl, a.rect.xl * 0.5 + dx);
        }
    }

    #[test]
    fn oracle_accepts_a_small_adversarial_workload() {
        let (r, s) = datagen::Adversarial { count: 60, seed: 42 }.generate_pair();
        let cfg = RunConfig::default();
        let failures = check_workload(&r, &s, &cfg, &AlgoId::ALL, &transforms_for(42, cfg.mem));
        assert!(
            failures.is_empty(),
            "unexpected failures: {:?}",
            failures
                .iter()
                .map(|f| format!("{} [{}]: {}", f.algo, f.transform, f.message))
                .collect::<Vec<_>>()
        );
    }
}
