//! Cost-based plan selection: pick the algorithm, tile count, internal
//! sweep and buffer split for a workload known only through statistics.
//!
//! The repo has ten conformance-checked algorithm variants with wildly
//! different cost profiles (J5: PBSM ~28 s vs S³J ~150 s simulated), but
//! every caller has had to choose by hand. [`Planner`] closes that gap:
//!
//! 1. [`DatasetProfile`] condenses each input into statistics (cardinality,
//!    coverage, an MBR-size histogram and a tile-occupancy sketch). The
//!    histogram is laid over the dataset's *bounding box*, not the unit
//!    square, so the profile is bit-exactly invariant under the conformance
//!    oracle's exact affine transforms (dyadic translate, power-of-two
//!    scale) on lattice workloads — a planner that changes its mind when
//!    the data moves is a planner that cannot be metamorphically tested.
//! 2. An analytical cost model predicts, per candidate configuration,
//!    the candidate pairs, replication factor and simulated I/O by
//!    mirroring each algorithm's actual arithmetic: PBSM's formula (1)
//!    with its `P = 1` in-memory shortcut, 40-byte KPE copies, S³J's
//!    48-byte level records, the sort-phase dedup's 16-byte candidate pairs,
//!    and the paper's `PT + n` request costing. S³J's level files and
//!    SSSJ's inputs go through the external sort's own plan
//!    ([`SortPlan::cost`]): its runs, merge passes, requests and pages.
//!    Its CPU leg predicts the [`Work`] the run counts — records assigned,
//!    copied and sorted, the tests of each sweep kernel, trie node visits,
//!    candidates, S³J's codes and partitions — and prices it with the run's
//!    own table ([`DiskModel::priced_cpu`]).
//!
//! The ranked [`Plan`] is consumed by `sjoin --plan auto|explain`, the
//! `sjoind` `plan` request field and `repro`'s `planner` experiment and its
//! gates.

use std::cell::{OnceCell, RefCell};
use std::rc::Rc;
use std::sync::OnceLock;

use geom::{Kpe, Rect};
use storage::{DiskModel, FixedRecord, IdPair, IoStats, SortPlan, Work};
use sweep::InternalAlgo;

/// Grid resolution of the profile histogram (per axis).
pub const PROFILE_GRID: u32 = 64;

/// Sub-cell resolution of the occupancy sketch: each histogram cell is
/// probed at `FINE_FACTOR²` sub-tiles to measure how strongly records
/// cluster *inside* a cell (line networks concentrate on 1-D curves, so the
/// uniform-within-cell collision model can undercount self-join pairs
/// severely — adjacent segments of one polyline always intersect).
const FINE_FACTOR: u32 = 32;

/// Bits of one axis of the fine sketch grid.
const FINE_BITS: u32 = (PROFILE_GRID * FINE_FACTOR).trailing_zeros();

/// Size-histogram buckets: `log2(bbox_extent / mbr_extent)` clamped.
pub const SIZE_BUCKETS: usize = 24;

/// Probe-side copy rate of SHJ's grown nearest-seed bucket extents,
/// measured on the bench corpus (stable across 3–44 buckets).
const SHJ_OVERLAP_FACTOR: f64 = 1.55;

/// Formula (1)'s safety factor `t`, as PBSM runs it (`ShjConfig` sizes its
/// buckets with the same default).
fn safety_factor() -> f64 {
    pbsm::PbsmConfig::default().safety_factor
}

/// Mirrors the `io_buffer_pages` default of the sequential-scan readers.
const SCAN_BUFFER_PAGES: f64 = 4.0;

/// Mirrors `s3j::LevelRecord`'s encoded size.
const LEVEL_RECORD_BYTES: usize = 48;

/// S³J's levels, 0 through `S3jConfig::max_level`.
const LEVELS: usize = 17;

/// The sort-phase dedup's candidate record.
const ID_PAIR_BYTES: f64 = <IdPair as FixedRecord>::SIZE as f64;

/// Mirrors `S3jConfig::level_shift` (coarsen size levels by one).
const LEVEL_SHIFT: i32 = 1;

// ---------------------------------------------------------------------------
// Dataset statistics
// ---------------------------------------------------------------------------

/// Statistics of one input, sufficient for every cost formula the planner
/// evaluates. Built by one pass over the data (or a seeded sample).
#[derive(Debug, Clone)]
pub struct DatasetProfile {
    /// Total rectangles represented (scaled up when sampled).
    pub cardinality: f64,
    /// Bounding box of the data (the histogram frame).
    pub bbox: Rect,
    /// Per-cell centre counts over `bbox`, `PROFILE_GRID²` cells.
    counts: Vec<f64>,
    /// Per-cell extent sums (absolute units, same frame).
    sum_w: Vec<f64>,
    sum_h: Vec<f64>,
    /// `Σ area(mbr) / area(bbox)` — total relative coverage.
    pub coverage: f64,
    /// MBR-size histogram: bucket `i` counts rectangles whose max extent is
    /// within `[2^-(i+1), 2^-i)` of the bbox's max side (bucket 0 = huge,
    /// last bucket also collects degenerate/point rectangles).
    pub size_hist: [f64; SIZE_BUCKETS],
    /// Skew of the tile-occupancy sketch: the standard deviation of the
    /// per-cell counts over their mean (0 = perfectly uniform).
    pub skew: f64,
    /// Fraction of occupied histogram cells.
    pub occupancy: f64,
    /// The fine occupancy sketch, raw: each scanned record's centre cell on
    /// the `(PROFILE_GRID·FINE_FACTOR)²` grid, in scan order. Only a self
    /// join reads it ([`self_pairs_at_sketch_resolution`]), so only a self
    /// join sorts it.
    fine: Vec<u32>,
    /// The records each entry of `fine` stands for (the sampling factor).
    weight: f64,
}

impl DatasetProfile {
    /// Builds from a full scan.
    pub fn build(data: &[Kpe]) -> DatasetProfile {
        Self::from_slice(data, 1.0)
    }

    /// Builds from a deterministic sample of `sample_size` records (strided,
    /// so the result depends only on `seed` and the data, not on iteration
    /// order), scaling counts back up to the population.
    pub fn build_sampled(data: &[Kpe], sample_size: usize, seed: u64) -> DatasetProfile {
        match Self::sample(data, sample_size, seed) {
            Some((sample, factor)) => Self::from_slice(&sample, factor),
            None => Self::build(data),
        }
    }

    /// The strided sample behind [`DatasetProfile::build_sampled`] and the
    /// weight each sampled record stands for; `None` when the sample would
    /// be the whole input.
    fn sample(data: &[Kpe], sample_size: usize, seed: u64) -> Option<(Vec<Kpe>, f64)> {
        if sample_size == 0 || sample_size >= data.len() {
            return None;
        }
        let stride = data.len() / sample_size;
        let offset = (seed as usize) % stride.max(1);
        let sample: Vec<Kpe> = data
            .iter()
            .skip(offset)
            .step_by(stride.max(1))
            .take(sample_size)
            .copied()
            .collect();
        let factor = data.len() as f64 / sample.len() as f64;
        Some((sample, factor))
    }

    fn from_slice(data: &[Kpe], weight: f64) -> DatasetProfile {
        let bbox = bounding_box(data);
        let g = PROFILE_GRID;
        let n = (g * g) as usize;
        let mut p = DatasetProfile {
            cardinality: 0.0,
            bbox,
            counts: vec![0.0; n],
            sum_w: vec![0.0; n],
            sum_h: vec![0.0; n],
            coverage: 0.0,
            size_hist: [0.0; SIZE_BUCKETS],
            skew: 0.0,
            occupancy: 0.0,
            fine: Vec::with_capacity(data.len()),
            weight,
        };
        let bw = (bbox.xh - bbox.xl).max(f64::MIN_POSITIVE);
        let bh = (bbox.yh - bbox.yl).max(f64::MIN_POSITIVE);
        let bmax = bw.max(bh);
        let fine_g = g * FINE_FACTOR;
        let mut area_sum = 0.0;
        for k in data {
            let c = k.rect.center();
            // Exactness: on lattice data, `(c - bbox.xl) / bw` is a quotient
            // of exact differences, so an exact affine map of the whole
            // dataset reproduces the same cell assignment bit for bit.
            let fx = ((c.x - bbox.xl) / bw).clamp(0.0, 1.0);
            let fy = ((c.y - bbox.yl) / bh).clamp(0.0, 1.0);
            let jx = ((fx * fine_g as f64) as u32).min(fine_g - 1);
            let jy = ((fy * fine_g as f64) as u32).min(fine_g - 1);
            let fine = jy * fine_g + jx;
            // `⌊fx·fine_g⌋ / FINE_FACTOR = ⌊fx·g⌋`: `fine_g` is `g` scaled by a
            // power of two, which is exact.
            let cell = ((jy / FINE_FACTOR) * g + jx / FINE_FACTOR) as usize;
            p.fine.push(fine);
            let (w, h) = (k.rect.width(), k.rect.height());
            p.counts[cell] += weight;
            p.sum_w[cell] += weight * w;
            p.sum_h[cell] += weight * h;
            p.cardinality += weight;
            area_sum += weight * w * h;
            let rel = w.max(h) / bmax;
            let bucket = if rel <= 0.0 { SIZE_BUCKETS - 1 } else { size_bucket(rel) };
            p.size_hist[bucket] += weight;
        }
        p.coverage = area_sum / (bw * bh);
        let occupied = p.counts.iter().filter(|&&c| c > 0.0).count();
        p.occupancy = occupied as f64 / n as f64;
        let mean = p.cardinality / n as f64;
        if mean > 0.0 {
            let var: f64 = p.counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / n as f64;
            p.skew = var.sqrt() / mean;
        }
        p
    }

    /// Mean absolute extents across all records.
    pub fn avg_extent(&self) -> (f64, f64) {
        if self.cardinality <= 0.0 {
            return (0.0, 0.0);
        }
        (
            self.sum_w.iter().sum::<f64>() / self.cardinality,
            self.sum_h.iter().sum::<f64>() / self.cardinality,
        )
    }

    /// The transform-invariant fingerprint of the profile: every statistic
    /// normalised by the bbox frame. Two profiles of the same data under an
    /// exact affine map (the conformance translate/scale transforms on
    /// lattice workloads) produce bit-identical fingerprints.
    pub fn invariant_key(&self) -> (u64, Vec<u64>, Vec<u64>, u64, u64, u64) {
        let bw = (self.bbox.xh - self.bbox.xl).max(f64::MIN_POSITIVE);
        let bh = (self.bbox.yh - self.bbox.yl).max(f64::MIN_POSITIVE);
        let rel = |sum: &[f64], b: f64| -> Vec<u64> {
            sum.iter().map(|v| (v / b).to_bits()).collect()
        };
        let mut cells: Vec<u64> = self.counts.iter().map(|c| c.to_bits()).collect();
        cells.extend(rel(&self.sum_w, bw));
        cells.extend(rel(&self.sum_h, bh));
        (
            self.cardinality.to_bits(),
            cells,
            self.size_hist.iter().map(|v| v.to_bits()).collect(),
            self.coverage.to_bits(),
            self.skew.to_bits(),
            self.occupancy.to_bits(),
        )
    }
}

/// `⌊−log2 x⌋` read off `x`'s exponent: a normal positive `x = m·2^e` with
/// `1 < m < 2` has `−log2 x` strictly between `−e − 1` and `−e`. `None`
/// where `log2`'s rounding could land on the integer `floor` sees — a
/// mantissa within 2⁻²⁸ of a power of two — and for zero, subnormals,
/// negatives, ±inf and NaN.
fn exponent_floor(x: f64) -> Option<i32> {
    const NEAR: u64 = 1 << (52 - 28);
    const MANTISSA: u64 = (1 << 52) - 1;
    let bits = x.to_bits();
    let exact = x > 0.0 && x.is_normal() && (NEAR..=MANTISSA + 1 - NEAR).contains(&(bits & MANTISSA));
    exact.then(|| 1022 - (bits >> 52) as i32)
}

/// `(−x.log2()).floor()`, bit for bit.
fn neg_log2_floor(x: f64) -> f64 {
    exponent_floor(x).map_or_else(|| (-x.log2()).floor(), f64::from)
}

/// The size-histogram bucket of a relative extent: `⌊−log2 rel⌋`, clamped.
fn size_bucket(rel: f64) -> usize {
    match exponent_floor(rel) {
        Some(floor) => floor.clamp(0, SIZE_BUCKETS as i32 - 1) as usize,
        None => neg_log2_floor(rel).clamp(0.0, (SIZE_BUCKETS - 1) as f64) as usize,
    }
}

/// An order-independent fingerprint of `p`'s fine sketch: the wrapping sum
/// of a mix of every cell, so two scans of the same records in any order
/// agree.
fn fine_fingerprint(p: &DatasetProfile) -> u64 {
    p.fine.iter().fold(0, |sum: u64, &cell| sum.wrapping_add(mix(cell.into())))
}

/// The splitmix64 finaliser.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn bounding_box(data: &[Kpe]) -> Rect {
    if data.is_empty() {
        return Rect::new(0.0, 0.0, 1.0, 1.0);
    }
    let mut b = data[0].rect;
    for k in &data[1..] {
        b.xl = b.xl.min(k.rect.xl);
        b.yl = b.yl.min(k.rect.yl);
        b.xh = b.xh.max(k.rect.xh);
        b.yh = b.yh.max(k.rect.yh);
    }
    b
}

// ---------------------------------------------------------------------------
// Candidate space
// ---------------------------------------------------------------------------

/// Algorithm families the planner chooses between. Self-describing (no
/// dependency on the algorithm crates' config types — those sit *above*
/// this crate); `spatialjoin::Algorithm::from_choice` does the mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanAlgo {
    /// PBSM with Reference Point dedup (the paper's improved PBSM).
    PbsmRpm,
    /// Original PBSM: duplicates removed in a final sort phase.
    PbsmSort,
    /// S³J with controlled ≤4× replication (§4.3).
    S3jReplicated,
    /// Original S³J: covering-cell assignment, no replication.
    S3jOriginal,
    /// Scalable sweeping-based baseline.
    Sssj,
    /// Spatial hash join baseline.
    Shj,
    /// PBSM partitioning with the two-layer A/B/C/D class scheme: every
    /// pair is found exactly once with no duplicate test and most class
    /// sub-joins skip one or both axis comparisons.
    TwoLayer,
    /// In-memory MX-CIF quadtree join (feasible only when both inputs fit
    /// the memory budget).
    Quadtree,
}

impl PlanAlgo {
    pub const ALL: [PlanAlgo; 8] = [
        PlanAlgo::PbsmRpm,
        PlanAlgo::PbsmSort,
        PlanAlgo::S3jReplicated,
        PlanAlgo::S3jOriginal,
        PlanAlgo::Sssj,
        PlanAlgo::Shj,
        PlanAlgo::TwoLayer,
        PlanAlgo::Quadtree,
    ];
}

/// One fully specified configuration the planner can recommend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanChoice {
    pub algo: PlanAlgo,
    /// In-memory join for partition/bucket pairs (PBSM/S³J/SHJ).
    pub internal: InternalAlgo,
    /// PBSM `NT = P ·` this; ignored elsewhere.
    pub tiles_per_partition: u32,
    /// Write-buffer pages per partition/level/bucket file — the memory
    /// split between "many small buffers, cheap partial flushes" and
    /// "fewer, larger requests that amortise positioning time".
    pub buffer_pages: usize,
    /// Memory budget the configuration sizes itself from.
    pub mem_bytes: usize,
}

impl PlanChoice {
    /// The CLI/service algorithm name this choice maps to (`sjoin --algo`,
    /// `sjoind` `"algo"`).
    pub fn cli_name(&self) -> &'static str {
        match (self.algo, self.internal) {
            (PlanAlgo::PbsmRpm, InternalAlgo::PlaneSweepTrie) => "pbsm-trie",
            (PlanAlgo::PbsmRpm, _) => "pbsm",
            (PlanAlgo::PbsmSort, _) => "pbsm-sort",
            (PlanAlgo::S3jReplicated, _) => "s3j",
            (PlanAlgo::S3jOriginal, _) => "s3j-orig",
            (PlanAlgo::Sssj, _) => "sssj",
            (PlanAlgo::Shj, _) => "shj",
            (PlanAlgo::TwoLayer, _) => "twolayer",
            (PlanAlgo::Quadtree, _) => "quadtree",
        }
    }

    /// Whether this choice is in [`PlanSpace::Streamable`], the space
    /// `sjoind` plans in.
    pub fn streamable(&self) -> bool {
        matches!(
            self.algo,
            PlanAlgo::PbsmRpm
                | PlanAlgo::PbsmSort
                | PlanAlgo::S3jReplicated
                | PlanAlgo::S3jOriginal
                | PlanAlgo::TwoLayer
        )
    }

    /// Compact human-readable description for report lines.
    pub fn describe(&self) -> String {
        match self.algo {
            PlanAlgo::PbsmRpm | PlanAlgo::PbsmSort | PlanAlgo::TwoLayer => format!(
                "{} tiles={} buf={}",
                self.cli_name(),
                self.tiles_per_partition,
                self.buffer_pages
            ),
            PlanAlgo::S3jReplicated | PlanAlgo::S3jOriginal => {
                format!("{} buf={}", self.cli_name(), self.buffer_pages)
            }
            PlanAlgo::Sssj | PlanAlgo::Shj | PlanAlgo::Quadtree => self.cli_name().to_owned(),
        }
    }
}

// ---------------------------------------------------------------------------
// Predictions
// ---------------------------------------------------------------------------

/// What the cost model predicts for one candidate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Prediction {
    /// Duplicate-free result pairs.
    pub results: f64,
    /// Candidate pairs including tile/level duplicates.
    pub candidates: f64,
    /// Average copies per input record (1.0 = no replication).
    pub replication: f64,
    /// PBSM partition count by formula (1) (1 for non-partitioned algos).
    pub partitions: u32,
    pub pages_written: f64,
    pub pages_read: f64,
    /// Positioning-paying disk requests.
    pub requests: f64,
    /// Simulated disk seconds under the configured model.
    pub io_seconds: f64,
    /// The counted work the run is predicted to do.
    pub work: Work,
    /// `work` priced as the run prices it (infinite for a configuration the
    /// run refuses).
    pub cpu_seconds: f64,
    /// `cpu + io` — the ranking key.
    pub total_seconds: f64,
}

/// One ranked candidate: the configuration plus its prediction.
#[derive(Debug, Clone)]
pub struct PlanCandidate {
    pub choice: PlanChoice,
    pub predicted: Prediction,
}

/// The ranked output of [`Planner::plan`]: candidates sorted by predicted
/// total time, cheapest first.
#[derive(Debug, Clone)]
pub struct Plan {
    pub ranked: Vec<PlanCandidate>,
}

impl Plan {
    /// The winning candidate.
    pub fn chosen(&self) -> &PlanCandidate {
        &self.ranked[0]
    }

    /// Renders the ranked candidate table (`sjoin --plan explain`). Pure
    /// string output, so it can be snapshot-tested without a process.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "rank  plan                      P   repl  candidates  pages_w  pages_r   io_s    cpu_s   total_s\n",
        );
        for (i, c) in self.ranked.iter().enumerate() {
            let p = &c.predicted;
            let marker = if i == 0 { " <- chosen" } else { "" };
            out.push_str(&format!(
                "{:>4}  {:<24} {:>3}  {:>5.2}  {:>10.0}  {:>7.0}  {:>7.0}  {:>6.2}  {:>6.2}  {:>8.2}{}\n",
                i + 1,
                c.choice.describe(),
                p.partitions,
                p.replication,
                p.candidates,
                p.pages_written,
                p.pages_read,
                p.io_seconds,
                p.cpu_seconds,
                p.total_seconds,
                marker,
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Plan mode (CLI surface)
// ---------------------------------------------------------------------------

/// `--plan` modes accepted by `sjoin` (and the `sjoind` `plan` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Use the explicitly configured algorithm (the historic behaviour).
    Off,
    /// Let the planner pick the algorithm and its knobs.
    Auto,
    /// Print the ranked candidate table and run the chosen plan.
    Explain,
}

impl PlanMode {
    pub const NAMES: [&'static str; 3] = ["off", "auto", "explain"];

    /// Parses a mode, suggesting the nearest valid one on a miss.
    pub fn parse(s: &str) -> Result<PlanMode, String> {
        match s {
            "off" => Ok(PlanMode::Off),
            "auto" => Ok(PlanMode::Auto),
            "explain" => Ok(PlanMode::Explain),
            other => {
                let near = Self::NAMES
                    .iter()
                    .map(|&m| (edit_distance(other, m), m))
                    .min()
                    .filter(|&(d, _)| d <= 3)
                    .map(|(_, m)| m);
                Err(match near {
                    Some(m) => format!("unknown plan mode {other:?} (did you mean {m:?}?)"),
                    None => format!(
                        "unknown plan mode {other:?} (expected one of {})",
                        Self::NAMES.join("|")
                    ),
                })
            }
        }
    }
}

/// Levenshtein edit distance (shared by the plan-mode suggestions).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

// ---------------------------------------------------------------------------
// The planner
// ---------------------------------------------------------------------------

/// Which candidate families [`Planner::plan`] enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSpace {
    /// Every algorithm the CLI can run.
    All,
    /// The partitioned joins, PBSM (both dedup schemes), two-layer and S³J:
    /// no baseline and no in-memory tree.
    Streamable,
}

/// The cost-based planner. Construct with the memory budget, optionally
/// attach a [`DiskModel`], then call [`Planner::plan`] with two
/// [`DatasetProfile`]s.
#[derive(Debug, Clone)]
pub struct Planner {
    mem_bytes: usize,
    model: DiskModel,
    space: PlanSpace,
}

impl Planner {
    pub fn new(mem_bytes: usize) -> Planner {
        Planner {
            mem_bytes,
            model: DiskModel::default(),
            space: PlanSpace::All,
        }
    }

    /// Predicts under a specific disk model (channel count, CPU slowdown).
    pub fn with_disk_model(mut self, model: DiskModel) -> Planner {
        self.model = model;
        self
    }

    /// Restricts the candidate space.
    pub fn with_space(mut self, space: PlanSpace) -> Planner {
        self.space = space;
        self
    }

    /// Enumerates, predicts and ranks every candidate configuration.
    pub fn plan(&self, r: &DatasetProfile, s: &DatasetProfile) -> Plan {
        let joint = JointEstimate::build(r, s);
        let shared = Shared::new(r, s, &joint);
        let mut ranked: Vec<PlanCandidate> = self
            .candidates()
            .into_iter()
            .map(|choice| PlanCandidate {
                predicted: self.predict_shared(&choice, &shared),
                choice,
            })
            .collect();
        // Deterministic ranking: predicted total, then the enumeration
        // order (already deterministic) as the tie-break via stable sort.
        ranked.sort_by(|a, b| {
            a.predicted
                .total_seconds
                .total_cmp(&b.predicted.total_seconds)
        });
        Plan { ranked }
    }

    /// The candidate configurations for the active [`PlanSpace`].
    pub fn candidates(&self) -> Vec<PlanChoice> {
        use InternalAlgo::{NestedLoops, PlaneSweepList as List, PlaneSweepTrie as Trie};
        let mut out = Vec::new();
        let mut push = |algo, internal, tiles_per_partition, buffer_pages| {
            let mem_bytes = self.mem_bytes;
            out.push(PlanChoice { algo, internal, tiles_per_partition, buffer_pages, mem_bytes });
        };
        let all = self.space == PlanSpace::All;
        for internal in [List, Trie] {
            for tiles in [1, 4, 16] {
                push(PlanAlgo::PbsmRpm, internal, tiles, 1);
                push(PlanAlgo::PbsmRpm, internal, tiles, 4);
            }
        }
        for buf in [1, 4] {
            push(PlanAlgo::PbsmSort, List, 4, buf);
            // S³J joins its cells with nested loops (`S3jConfig`'s default,
            // what `--algo s3j` runs); the model prices no other choice.
            push(PlanAlgo::S3jReplicated, NestedLoops, 4, buf);
        }
        push(PlanAlgo::S3jOriginal, NestedLoops, 4, 1);
        if all {
            push(PlanAlgo::Sssj, List, 4, 1);
            push(PlanAlgo::Shj, List, 4, 1);
        }
        // New candidates append after the historical ones so enumeration-
        // order tie-breaks (stable sort) keep their pre-extension winners.
        for tiles in [1, 4, 16] {
            push(PlanAlgo::TwoLayer, List, tiles, 1);
            push(PlanAlgo::TwoLayer, List, tiles, 4);
        }
        if all {
            push(PlanAlgo::Quadtree, List, 4, 1);
        }
        out
    }

    /// Predicts one candidate's cost: its I/O, and its counted work priced
    /// by the table the run's own clock prices with.
    pub fn predict(
        &self,
        choice: &PlanChoice,
        r: &DatasetProfile,
        s: &DatasetProfile,
        joint: &JointEstimate,
    ) -> Prediction {
        self.predict_shared(choice, &Shared::new(r, s, joint))
    }

    /// [`Planner::predict`] with the terms candidates share taken from (and
    /// left in) `shared`.
    fn predict_shared(&self, choice: &PlanChoice, shared: &Shared) -> Prediction {
        let mut p = match choice.algo {
            PlanAlgo::PbsmRpm | PlanAlgo::PbsmSort | PlanAlgo::TwoLayer => self.predict_pbsm(choice, shared),
            PlanAlgo::S3jReplicated | PlanAlgo::S3jOriginal => self.predict_s3j(choice, shared),
            PlanAlgo::Sssj => self.predict_sssj(shared),
            PlanAlgo::Shj => self.predict_shj(shared),
            PlanAlgo::Quadtree => self.predict_quadtree(shared),
        };
        p.cpu_seconds += self.model.priced_cpu(&p.work);
        p.total_seconds = p.cpu_seconds + p.io_seconds;
        p
    }

    /// Disk seconds for `(requests, pages)` under the model: the paper's
    /// `PT + n` units, divided across the data channels (partition/level
    /// files are channel-tagged round-robin, so a D-channel model overlaps
    /// their transfers almost perfectly).
    fn io_secs(&self, requests: f64, pages: f64) -> f64 {
        let units = requests * self.model.positioning_ratio + pages;
        units * self.model.transfer_secs_per_page / self.model.channels.max(1) as f64
    }

    /// [`Planner::io_secs`] of metered requests and pages.
    fn metered_secs(&self, io: &IoStats) -> f64 {
        self.io_secs((io.read_requests + io.write_requests) as f64, (io.pages_read + io.pages_written) as f64)
    }

    fn page(&self) -> f64 {
        self.model.page_size as f64
    }

    fn predict_pbsm(&self, choice: &PlanChoice, shared: &Shared) -> Prediction {
        let (nr, ns) = (shared.r.cardinality, shared.s.cardinality);
        let input_bytes = (nr + ns) * Kpe::ENCODED_SIZE as f64;
        // Formula (1), exactly as pbsm::join computes it.
        let p = ((safety_factor() * input_bytes / choice.mem_bytes as f64).ceil() as u32).max(1);
        let grid = pbsm::TileGrid::for_partitions(p, choice.tiles_per_partition);
        let (gx, gy) = (grid.gx, grid.gy);
        let terms = shared.grid(p, gx, gy);
        let copies = terms.copies[0] + terms.copies[1];
        let two_layer = choice.algo == PlanAlgo::TwoLayer;
        let results = shared.joint.results;
        // The two-layer classes surface every pair exactly once.
        let candidates = if two_layer { results } else { results + terms.duplicates };
        let replication = if nr + ns > 0.0 { copies / (nr + ns) } else { 1.0 };

        let (mut pages_w, mut pages_r, mut requests) = (0.0, 0.0, 0.0);
        let mut io = 0.0;
        // Records the repartitioning copies reassign, and the surplus its
        // sub-joins sweep (the other side once per extra sub-pair).
        let (mut reassigned, mut resweep) = (0.0, 0.0);
        if p > 1 {
            // Partition phase: the replicated input written once, one
            // partial page flushed per partition file (one file per side).
            let part_bytes = copies * Kpe::ENCODED_SIZE as f64;
            let part_pages = part_bytes / self.page() + 2.0 * p as f64;
            let part_reqs = part_pages / choice.buffer_pages as f64;
            // Join phase: reads back what partitioning wrote.
            let join_reqs = part_pages / SCAN_BUFFER_PAGES;
            pages_w += part_pages;
            pages_r += part_pages;
            requests += part_reqs + join_reqs;
            io += self.io_secs(part_reqs, part_pages) + self.io_secs(join_reqs, part_pages);

            // Overflow / repartitioning (§3.2.3): per-tile expected bytes
            // hashed through the SAME tile→partition map the join will use.
            // With few tiles per partition, balls-in-bins collisions plus
            // spatial skew push individual partition pairs over budget, and
            // each such pair pays the recursive repartition: re-read and
            // rewrite the big side, then read the untouched other side once
            // per sub-partition. This term is what separates `tiles=1` from
            // `tiles=16` — without it they look identical.
            let m = self.mem_bytes as f64;
            for (mut br, mut bs) in terms.bytes[0].iter().copied().zip(terms.bytes[1].iter().copied()) {
                // `mult` tracks how many sub-pairs a deeper level fans out
                // to; overflow past one level is rare, the guard is a
                // degenerate-data backstop like MAX_REPART_DEPTH.
                let mut mult = 1.0;
                for _ in 0..8 {
                    if br + bs <= m || br.min(bs) <= 0.0 {
                        break;
                    }
                    let (big, other) = if br >= bs { (br, bs) } else { (bs, br) };
                    let n_sub = ((safety_factor() * 2.0 * big / m).ceil()).max(2.0);
                    let big_pages = big / self.page();
                    let other_pages = other / self.page();
                    // Copy: read big once, rewrite it (+ partial tail pages);
                    // sub-joins: big read back in pieces, other side re-read
                    // per sub-pair. The base join term above already charged
                    // one read of (big + other), so only the surplus counts.
                    let w_pages = big_pages + n_sub;
                    let r_pages = big_pages + (n_sub - 1.0) * other_pages;
                    let w_reqs = w_pages / choice.buffer_pages as f64;
                    let r_reqs = r_pages / SCAN_BUFFER_PAGES;
                    pages_w += mult * w_pages;
                    pages_r += mult * r_pages;
                    requests += mult * (w_reqs + r_reqs);
                    io += mult
                        * (self.io_secs(w_reqs, w_pages) + self.io_secs(r_reqs, r_pages));
                    let rec = Kpe::ENCODED_SIZE as f64;
                    reassigned += mult * big / rec;
                    resweep += mult * (n_sub - 1.0) * other / rec;
                    if br >= bs {
                        br = big / n_sub;
                    } else {
                        bs = big / n_sub;
                    }
                    mult *= n_sub;
                }
            }
        }
        if choice.algo == PlanAlgo::PbsmSort {
            // Sort-phase dedup stages every candidate pair (16 bytes) to
            // disk, sorts and re-reads it — the Figure 3a overhead.
            let cand_bytes = candidates * ID_PAIR_BYTES;
            let cand_pages = cand_bytes / self.page();
            let sort_pages = 2.0 * cand_pages;
            let sort_reqs = sort_pages / SCAN_BUFFER_PAGES;
            pages_w += cand_pages;
            pages_r += cand_pages;
            requests += sort_reqs;
            io += self.io_secs(sort_reqs, sort_pages);
        }
        // One sweep per partition — per tile under the two-layer classes — over
        // its record copies; a single partition sweeps the inputs as they are.
        let swept = if p > 1 || two_layer { copies + resweep } else { nr + ns };
        let layout = match (two_layer, p > 1) {
            (true, _) => Layout::Tiles(gx, gy),
            (false, true) => Layout::Partitions(p, gx, gy),
            (false, false) => Layout::One,
        };
        let sweeps = shared.sweep(layout).work(choice.internal, candidates);
        let paged = if p > 1 { 1.0 } else { 0.0 };
        let work = Work {
            assigned: count(paged * (nr + ns) + reassigned),
            copies: count(paged * copies + reassigned),
            swept: count(swept),
            sorted: count(if choice.algo == PlanAlgo::PbsmSort { candidates } else { 0.0 }),
            ..sweeps
        };
        Prediction {
            results, candidates, replication, partitions: p, pages_written: pages_w, pages_read: pages_r,
            requests, io_seconds: io, work, ..Default::default()
        }
    }

    fn predict_quadtree(&self, shared: &Shared) -> Prediction {
        let (nr, ns) = (shared.r.cardinality, shared.s.cardinality);
        let joint = shared.joint;
        let results = joint.results;
        let input_bytes = (nr + ns) * Kpe::ENCODED_SIZE as f64;
        // Records settle at their MX-CIF cells and every node's list is
        // tested against the other tree's lists on its root path: the
        // original S³J's nested-cell tests.
        let (tests, candidates) = (count(joint.level_work(false).0), count(results));
        let work = Work { assigned: count(nr + ns), tests, candidates, ..Work::ZERO };
        // Both trees live in memory at once; the runtime refuses the
        // configuration when the inputs exceed the budget, so an
        // infeasible candidate must rank behind every runnable one.
        let cpu_seconds = if input_bytes > self.mem_bytes as f64 { f64::INFINITY } else { 0.0 };
        Prediction { results, candidates: results, replication: 1.0, partitions: 1, work, cpu_seconds, ..Default::default() }
    }

    fn predict_s3j(&self, choice: &PlanChoice, shared: &Shared) -> Prediction {
        let (nr, ns, joint) = (shared.r.cardinality, shared.s.cardinality, shared.joint);
        let replicate = choice.algo == PlanAlgo::S3jReplicated;
        let levels = shared.levels(replicate);
        let copies: f64 = levels.iter().flatten().sum();
        let results = joint.results;
        // Replicated mode re-discovers straddler pairs once per shared
        // cell; the shifted size level keeps the per-axis straddle below
        // one half, so the duplicate mass is a fraction of the results.
        let dup = if replicate { joint.level_duplicate_pairs() } else { 0.0 };
        // The original assignment joins every cell against all ancestor
        // cells, inflating the candidate checks instead of the copies.
        let candidates = if replicate { results + dup } else { results };

        let level_bytes = copies * LEVEL_RECORD_BYTES as f64;
        let level_pages = level_bytes / self.page() + 12.0; // ~one partial page per occupied level
        // Partition: write the level files once. Sort: every level file as the
        // external sort plans it, so one over the budget pays its merge
        // passes. Join: one synchronized scan over the sorted files.
        let part_reqs = level_pages / choice.buffer_pages as f64;
        let join_reqs = level_pages / SCAN_BUFFER_PAGES;
        let plan = SortPlan::new(choice.mem_bytes, self.model.page_size, LEVEL_RECORD_BYTES);
        let sort = levels.iter().flatten().fold(IoStats::default(), |io, &n| io.plus(&plan.cost(count(n), true).1));
        let pages_w = level_pages + sort.pages_written as f64;
        let pages_r = level_pages + sort.pages_read as f64;
        let requests = part_reqs + join_reqs + (sort.read_requests + sort.write_requests) as f64;
        let io = self.io_secs(part_reqs, level_pages) + self.metered_secs(&sort) + self.io_secs(join_reqs, level_pages);
        // Every copy is coded, written and sorted; the scan joins every pair
        // of nested cells by nested loops — the original's ancestor scans
        // are the CPU half of Figure 11.
        let (tests, cells) = joint.level_work(replicate);
        let (assigned, copied) = (count(nr + ns), count(copies));
        let work = Work {
            assigned, copies: copied, codes: copied, sorted: copied, partitions: count(cells), tests: count(tests),
            candidates: count(candidates), ..Work::ZERO
        };
        let replication = if nr + ns > 0.0 { copies / (nr + ns) } else { 1.0 };
        Prediction {
            results, candidates, replication, partitions: 1, pages_written: pages_w, pages_read: pages_r,
            requests, io_seconds: io, work, ..Default::default()
        }
    }

    fn predict_sssj(&self, shared: &Shared) -> Prediction {
        let (nr, ns) = (shared.r.cardinality, shared.s.cardinality);
        let rec = Kpe::ENCODED_SIZE;
        let (mut pages_w, mut pages_r, mut requests, mut io) = (0.0, 0.0, 0.0, 0.0);
        // The join goes external only when BOTH sorted inputs cannot be held
        // at once; each side then sorts under half the budget, its input
        // read for free (`external_sort_slice`), and the sweep scans the
        // sorted file once.
        if (nr + ns) * rec as f64 > self.mem_bytes as f64 {
            let plan = SortPlan::new(self.mem_bytes / 2, self.model.page_size, rec);
            for n in [nr, ns] {
                let (_, sort) = plan.cost(count(n), false);
                let pages = n * rec as f64 / self.page();
                let scan_reqs = pages / SCAN_BUFFER_PAGES;
                pages_w += sort.pages_written as f64;
                pages_r += sort.pages_read as f64 + pages;
                requests += (sort.read_requests + sort.write_requests) as f64 + scan_reqs;
                io += self.metered_secs(&sort) + self.io_secs(scan_reqs, pages);
            }
        }
        let results = shared.joint.results;
        // One sweep over both sorted inputs: its lazily pruned lists test
        // every x-overlapping pair.
        let Work { scan_tests: status_tests, candidates, .. } =
            shared.sweep(Layout::One).work(InternalAlgo::PlaneSweepList, results);
        let work = Work { sorted: count(nr + ns), status_tests, candidates, ..Work::ZERO };
        Prediction {
            results, candidates: results, replication: 1.0, partitions: 1, pages_written: pages_w, pages_read: pages_r,
            requests, io_seconds: io, work, ..Default::default()
        }
    }

    fn predict_shj(&self, shared: &Shared) -> Prediction {
        let (s, nr, ns) = (shared.s, shared.r.cardinality, shared.s.cardinality);
        // [LR 96] sizes buckets off BOTH inputs (the bucket pair must fit),
        // and the baseline stages every record through bucket files even at
        // b = 1 — SHJ is never an in-memory plan.
        let input_bytes = (nr + ns) * Kpe::ENCODED_SIZE as f64;
        let buckets =
            ((safety_factor() * input_bytes / self.mem_bytes as f64).ceil() as u32).max(1);
        // Probe replication: nearest-seed bucket extents grow to cover
        // their members and overlap each other heavily, so for b > 1 the
        // copy rate is dominated by extent overlap (~1.55 on the line-MBR
        // corpus), not by the records' own straddle width. Keep the
        // straddle term as a floor for fat-rectangle inputs.
        let g = (buckets as f64).sqrt().ceil() as u32;
        let copies_s = if buckets > 1 {
            straddle_copies(s, g, g).max(ns * SHJ_OVERLAP_FACTOR)
        } else {
            ns
        };
        // Build side written once (no replication), probe side replicated;
        // both read back bucket-pair-wise. Bucket writers hold
        // `bucket_buffer_pages` (1) pages — every page write positions the
        // arm — while reads stream through `io_buffer_pages` (4).
        let bytes = (nr + copies_s) * Kpe::ENCODED_SIZE as f64;
        let pages = bytes / self.page() + buckets as f64; // partial tail pages
        let write_reqs = pages;
        let read_reqs = pages / SCAN_BUFFER_PAGES;
        let requests = write_reqs + read_reqs;
        let io = self.io_secs(write_reqs, pages) + self.io_secs(read_reqs, pages);
        let results = shared.joint.results;
        // Every record is tested against every bucket's seed and extent,
        // then each bucket pair is swept (its buckets taken as a g × g grid).
        let sweeps = shared.sweep(Layout::Tiles(g, g)).work(InternalAlgo::PlaneSweepList, results);
        let (assigned, copies) = (count(nr + ns), count(nr + copies_s));
        let work = Work { assigned, copies, swept: copies, tests: count((nr + ns) * buckets as f64), ..sweeps };
        let replication = if nr + ns > 0.0 { (nr + copies_s) / (nr + ns) } else { 1.0 };
        Prediction {
            results, candidates: results, replication, partitions: buckets, pages_written: pages, pages_read: pages,
            requests, io_seconds: io, work, ..Default::default()
        }
    }
}

/// The terms candidates share, each computed at most once per plan: the
/// `tiles` knob spans three grids, and the buffer twins, the list/trie
/// pairs and `pbsm-sort` all reuse them.
struct Shared<'a> {
    r: &'a DatasetProfile,
    s: &'a DatasetProfile,
    joint: &'a JointEstimate,
    /// [`GridTerms`] per PBSM `(p, gx, gy)`.
    grids: Memo<(u32, u32, u32), GridTerms>,
    /// [`JointEstimate::sweep`] per layout.
    sweeps: Memo<Layout, Sweep>,
    /// Both sides' [`level_copies`], original and replicated.
    levels: [OnceCell<[[f64; LEVELS]; 2]>; 2],
}

/// What one PBSM grid costs, whatever the kernel, dedup or buffer split.
struct GridTerms {
    /// Each side's [`straddle_copies`].
    copies: [f64; 2],
    /// [`JointEstimate::duplicate_pairs`].
    duplicates: f64,
    /// Each side's [`partition_bytes`] (none when `p = 1`).
    bytes: [Vec<f64>; 2],
}

impl<'a> Shared<'a> {
    fn new(r: &'a DatasetProfile, s: &'a DatasetProfile, joint: &'a JointEstimate) -> Shared<'a> {
        Shared { r, s, joint, grids: RefCell::default(), sweeps: RefCell::default(), levels: Default::default() }
    }

    fn grid(&self, p: u32, gx: u32, gy: u32) -> Rc<GridTerms> {
        memo(&self.grids, (p, gx, gy), || {
            let sides = [self.r, self.s];
            GridTerms {
                copies: sides.map(|side| straddle_copies(side, gx, gy)),
                duplicates: self.joint.duplicate_pairs(gx, gy),
                bytes: if p > 1 { sides.map(|side| partition_bytes(side, p, gx, gy)) } else { Default::default() },
            }
        })
    }

    fn sweep(&self, layout: Layout) -> Rc<Sweep> {
        memo(&self.sweeps, layout, || self.joint.sweep(layout))
    }

    fn levels(&self, replicate: bool) -> &[[f64; LEVELS]; 2] {
        self.levels[usize::from(replicate)].get_or_init(|| [self.r, self.s].map(|p| level_copies(p, replicate)))
    }
}

/// A few values by key, each computed on its first lookup ([`memo`]).
type Memo<K, V> = RefCell<Vec<(K, Rc<V>)>>;

/// The value `cache` holds for `key`, computed by `f` on a miss.
fn memo<K: Copy + PartialEq, V>(cache: &Memo<K, V>, key: K, f: impl FnOnce() -> V) -> Rc<V> {
    let hit = cache.borrow().iter().find(|(k, _)| *k == key).map(|(_, v)| Rc::clone(v));
    hit.unwrap_or_else(|| {
        let v = Rc::new(f());
        cache.borrow_mut().push((key, Rc::clone(&v)));
        v
    })
}

/// PBSM's tile→partition map for `p` partitions, as the join builds it.
fn partition_map(p: u32) -> pbsm::PartitionMap {
    pbsm::PartitionMap::new(p, pbsm::TileScheme::default(), pbsm::PbsmConfig::default().seed)
}

/// Expected bytes of each of PBSM's `p` partition files: [`tile_loads`]
/// hashed through the same tile→partition map the join uses.
fn partition_bytes(profile: &DatasetProfile, p: u32, gx: u32, gy: u32) -> Vec<f64> {
    let (map, loads) = (partition_map(p), tile_loads(profile, gx, gy));
    let mut bytes = vec![0.0f64; p as usize];
    for iy in 0..gy {
        for ix in 0..gx {
            bytes[map.partition_of(ix, iy, gx) as usize] += loads[(iy * gx + ix) as usize];
        }
    }
    bytes
}

/// Expected partition-file bytes landing in each tile of PBSM's `gx × gy`
/// grid over the **unit space** (where the real `TileGrid` lives — the
/// profile histogram itself is framed on the data's bbox). Each histogram
/// cell's mass, inflated by its records' straddle copies, is spread over
/// the tiles it overlaps in proportion to area.
fn tile_loads(profile: &DatasetProfile, gx: u32, gy: u32) -> Vec<f64> {
    let g = PROFILE_GRID;
    let mut loads = vec![0.0f64; (gx as usize) * (gy as usize)];
    let b = profile.bbox;
    let cap = (gx as f64) * (gy as f64);
    // Per histogram column (row): its span in unit space, the first of the
    // `n` tiles it overlaps, and its overlap with each.
    let spans = |lo: f64, len: f64, n: u32| -> Vec<(f64, f64, u32, Vec<f64>)> {
        let spans = (0..g).map(|i| {
            let (a0, a1) = (lo + len * i as f64 / g as f64, lo + len * (i + 1) as f64 / g as f64);
            let t0 = ((a0.clamp(0.0, 1.0) * n as f64).floor() as u32).min(n - 1);
            let t1 = (((a1.clamp(0.0, 1.0) * n as f64).ceil() as u32).max(1) - 1).min(n - 1);
            let overlap = |t: u32| (a1.min((t + 1) as f64 / n as f64) - a0.max(t as f64 / n as f64)).max(0.0);
            (a0, a1, t0, (t0..=t1).map(overlap).collect())
        });
        spans.collect()
    };
    let (xs, ys) = (spans(b.xl, b.xh - b.xl, gx), spans(b.yl, b.yh - b.yl, gy));
    for (iy, (y0, y1, ty0, oys)) in ys.iter().enumerate() {
        for (ix, (x0, x1, tx0, oxs)) in xs.iter().enumerate() {
            let i = iy * g as usize + ix;
            let c = profile.counts[i];
            if c <= 0.0 {
                continue;
            }
            let w = profile.sum_w[i] / c;
            let h = profile.sum_h[i] / c;
            let per = ((1.0 + w * gx as f64) * (1.0 + h * gy as f64)).min(cap);
            let mass = c * per * Kpe::ENCODED_SIZE as f64;
            let area = ((x1 - x0) * (y1 - y0)).max(f64::MIN_POSITIVE);
            for (ty, oy) in (*ty0..).zip(oys) {
                for (tx, ox) in (*tx0..).zip(oxs) {
                    loads[(ty * gx + tx) as usize] += mass * (ox * oy) / area;
                }
            }
        }
    }
    loads
}

/// A predicted count as a [`Work`] counter.
fn count(x: f64) -> u64 {
    x.round() as u64
}

/// Expected KPE copies when `profile`'s rectangles are assigned to every
/// tile of a `gx × gy` grid over the unit square they intersect:
/// `E[(1 + w/tile_w)(1 + h/tile_h)]`, capped at the tile count.
fn straddle_copies(profile: &DatasetProfile, gx: u32, gy: u32) -> f64 {
    let cap = (gx as f64) * (gy as f64);
    let mut copies = 0.0;
    for i in 0..profile.counts.len() {
        let c = profile.counts[i];
        if c <= 0.0 {
            continue;
        }
        let w = profile.sum_w[i] / c;
        let h = profile.sum_h[i] / c;
        copies += c * ((1.0 + w * gx as f64) * (1.0 + h * gy as f64)).min(cap);
    }
    copies
}

/// Where S³J puts `c` records of mean extents `w × h`: their copies per
/// level `l` (cells of side `2^-l`). A replicated record goes to its shifted
/// size level, into the ≤ 4 cells of that level it straddles; an original one,
/// uncopied, to the finest level whose grid lines it does not cross.
fn level_spread(c: f64, w: f64, h: f64, replicate: bool) -> [f64; LEVELS] {
    let cells = |l: usize| f64::from(1u32 << l); // per axis
    let mut at = [0.0; LEVELS];
    if replicate {
        let e = w.max(h);
        let l = if e > 0.0 { (neg_log2_floor(e) as i32 - LEVEL_SHIFT).clamp(0, 16) as usize } else { 16 };
        at[l] = c * (1.0 + (w * cells(l)).min(1.0)) * (1.0 + (h * cells(l)).min(1.0));
    } else {
        let mut above = 0.0;
        for (l, at) in at.iter_mut().enumerate() {
            let crossed = 1.0 - (1.0 - (w * cells(l + 1)).min(1.0)) * (1.0 - (h * cells(l + 1)).min(1.0));
            let upto = if l + 1 < LEVELS { crossed } else { 1.0 };
            (*at, above) = (c * (upto - above), upto);
        }
    }
    at
}

/// The records of each of `profile`'s S³J level files: [`level_spread`] over
/// its histogram cells.
fn level_copies(profile: &DatasetProfile, replicate: bool) -> [f64; LEVELS] {
    let mut at = [0.0; LEVELS];
    for (i, &c) in profile.counts.iter().enumerate().filter(|(_, &c)| c > 0.0) {
        let spread = level_spread(c, profile.sum_w[i] / c, profile.sum_h[i] / c, replicate);
        at.iter_mut().zip(spread).for_each(|(at, copies)| *at += copies);
    }
    at
}

// ---------------------------------------------------------------------------
// Joint (two-profile) estimation
// ---------------------------------------------------------------------------

/// The two profiles resampled onto a common grid over the union bounding
/// box, plus the classical per-cell join-cardinality estimate.
#[derive(Debug, Clone)]
pub struct JointEstimate {
    grid: u32,
    /// The union bounding box, and both profiles resampled onto it.
    frame: Rect,
    sides: [Vec<(f64, f64, f64)>; 2],
    /// [`JointEstimate::level_work`] of the original and the replicated S³J.
    level_work: [OnceLock<(f64, f64)>; 2],
    /// Per cell: `(pairs, min_avg_w, min_avg_h)` — the pair mass and the
    /// extents of the pair *intersections* (bounded by the smaller rect).
    cells: Vec<(f64, f64, f64)>,
    /// Estimated duplicate-free result pairs.
    pub results: f64,
}

impl JointEstimate {
    /// Builds the joint estimate. Symmetric in `(r, s)` by construction —
    /// every per-cell term commutes — so swapped inputs predict the same
    /// cardinalities.
    pub fn build(r: &DatasetProfile, s: &DatasetProfile) -> JointEstimate {
        let g = PROFILE_GRID;
        let union = Rect::new(
            r.bbox.xl.min(s.bbox.xl),
            r.bbox.yl.min(s.bbox.yl),
            r.bbox.xh.max(s.bbox.xh),
            r.bbox.yh.max(s.bbox.yh),
        );
        let rr = resample(r, &union, g);
        let ss = resample(s, &union, g);
        let bw = (union.xh - union.xl).max(f64::MIN_POSITIVE);
        let bh = (union.yh - union.yl).max(f64::MIN_POSITIVE);
        let cell_w = bw / g as f64;
        let cell_h = bh / g as f64;
        let cell_area = cell_w * cell_h;
        let mut cells = vec![(0.0, 0.0, 0.0); (g * g) as usize];
        let mut results = 0.0;
        for i in 0..cells.len() {
            let (cr, wr, hr) = rr[i];
            let (cs, ws, hs) = ss[i];
            if cr <= 0.0 || cs <= 0.0 {
                continue;
            }
            let p = (((wr + ws) * (hr + hs)) / cell_area).min(1.0);
            let pairs = cr * cs * p;
            cells[i] = (pairs, wr.min(ws), hr.min(hs));
            results += pairs;
        }
        // A self join (bit-identical profiles, down to the fine sketch's
        // fingerprint, taken only once the rest agrees) concentrates its
        // pair mass on the dataset's own sub-structures — polyline
        // neighbours always intersect — which the coarse uniform-within-cell
        // model undercounts badly. Re-estimate the total at full sketch
        // resolution, where the uniform assumption holds, and rescale the
        // coarse distribution to it (the *shape* stays coarse; only the mass
        // moves).
        let self_join = r.cardinality.to_bits() == s.cardinality.to_bits()
            && r.bbox == s.bbox
            && r.counts == s.counts
            && !r.fine.is_empty()
            && fine_fingerprint(r) == fine_fingerprint(s);
        if self_join && results > 0.0 {
            let fine_results = self_pairs_at_sketch_resolution(r);
            if fine_results > results {
                let f = fine_results / results;
                for c in &mut cells {
                    c.0 *= f;
                }
                results = fine_results;
            }
        }
        JointEstimate {
            grid: g,
            frame: union,
            sides: [rr, ss],
            level_work: Default::default(),
            cells,
            results,
        }
    }

    /// Expected duplicate candidate pairs when results are discovered in
    /// every shared tile of a `gx × gy` unit-square grid: an intersecting
    /// pair is re-found once per extra tile its intersection straddles.
    pub fn duplicate_pairs(&self, gx: u32, gy: u32) -> f64 {
        let cap = (gx as f64) * (gy as f64);
        let mut dup = 0.0;
        for &(pairs, w, h) in &self.cells {
            if pairs <= 0.0 {
                continue;
            }
            let tiles = ((1.0 + w * gx as f64) * (1.0 + h * gy as f64)).min(cap);
            dup += pairs * (tiles - 1.0);
        }
        dup
    }

    /// Expected duplicates under S³J's size-level replication: the shifted
    /// assignment keeps the per-axis straddle of the intersection below
    /// one half at the participating level.
    pub fn level_duplicate_pairs(&self) -> f64 {
        let mut dup = 0.0;
        for &(pairs, w, h) in &self.cells {
            if pairs <= 0.0 {
                continue;
            }
            let e = w.max(h).max(f64::MIN_POSITIVE);
            let level = (neg_log2_floor(e) as i32 - LEVEL_SHIFT).max(0);
            let cell = (2.0f64).powi(-level);
            let copies = (1.0 + (w / cell).min(1.0)) * (1.0 + (h / cell).min(1.0));
            dup += pairs * (copies.min(4.0) - 1.0);
        }
        dup
    }

    /// The in-memory sweeps of `layout`, one over the copies of each bucket:
    /// the bucket of the tile of the layout's unit-square grid a cell's
    /// centre lies in, the cell's count grown by its straddle copies on that
    /// grid. [`Sweep::work`] turns it into the work of one `internal`
    /// kernel.
    fn sweep(&self, layout: Layout) -> Sweep {
        let g = self.grid as usize;
        let Rect { xl, yl, xh, yh } = self.frame;
        let (cell_w, cell_h) = ((xh - xl) / g as f64, (yh - yl) / g as f64);
        let ((gx, gy), buckets) = match layout {
            Layout::One => ((1, 1), 1),
            Layout::Tiles(gx, gy) => ((gx, gy), (gx * gy) as usize),
            Layout::Partitions(p, gx, gy) => ((gx, gy), p as usize),
        };
        let tile = |c: usize, lo: f64, len: f64, n: u32| {
            (((lo + (c as f64 + 0.5) * len).clamp(0.0, 1.0) * f64::from(n)) as u32).min(n - 1)
        };
        let (tx, ty): (Vec<u32>, Vec<u32>) = (0..g).map(|c| (tile(c, xl, cell_w, gx), tile(c, yl, cell_h, gy))).unzip();
        let bucket_of: Vec<usize> = match layout {
            Layout::One | Layout::Tiles(..) => (0..gx * gy).map(|t| t as usize * g).collect(),
            Layout::Partitions(p, ..) => {
                let map = partition_map(p);
                (0..gx * gy).map(|t| map.partition_of(t % gx, t / gx, gx) as usize * g).collect()
            }
        };
        // Per bucket column: each side's copies and their summed widths, and
        // the sum of its cells' squared copies.
        let mut cols = vec![[0.0f64; 5]; buckets * g];
        let (mut height, mut n) = (0.0, 0.0);
        for (i, (r, s)) in self.sides[0].iter().zip(&self.sides[1]).enumerate().filter(|(_, (r, s))| r.0 + s.0 > 0.0) {
            let col = &mut cols[bucket_of[(ty[i / g] * gx + tx[i % g]) as usize] + i % g];
            let mut copies = 0.0;
            for (side, &(c, w, h)) in [r, s].into_iter().enumerate() {
                let k = c * ((1.0 + w * f64::from(gx)) * (1.0 + h * f64::from(gy))).min(f64::from(gx * gy));
                col[2 * side] += k;
                col[2 * side + 1] += k * w;
                (height, n, copies) = (height + c * h, n + c, copies + k);
            }
            col[4] += copies * copies;
        }
        // Per bucket column: the x-overlapping pairs it holds an end of (half
        // a pair per end), from the other side's copies `k` columns away.
        // Centres spread uniformly over their columns lie `k + u` columns
        // apart, `u` triangular on (−1, 1); a pair overlaps when that is at
        // most its mean half-widths' sum `reach`.
        let tri = |t: f64| if t <= 0.0 { (1.0 + t).max(0.0).powi(2) / 2.0 } else { 1.0 - (1.0 - t).max(0.0).powi(2) / 2.0 };
        // Each column's sides' mean half-widths, in columns.
        let half = |sum: f64, n: f64| if n > 0.0 { sum / n / (2.0 * cell_w.max(f64::MIN_POSITIVE)) } else { 0.0 };
        let halves: Vec<[f64; 2]> = cols.iter().map(|c| [half(c[1], c[0]), half(c[3], c[2])]).collect();
        let span = (2.0 * halves.iter().flatten().fold(0.0, |m: f64, &w| m.max(w))).ceil().min(g as f64) as usize + 1;
        let mut x_pairs = vec![0.0f64; cols.len()];
        for (i, a) in cols.iter().enumerate().filter(|(_, a)| a[0] + a[2] > 0.0) {
            let (c, row) = (i % g, i - i % g);
            for j in row + c.saturating_sub(span)..row + (c + span + 1).min(g) {
                let (b, k) = (&cols[j], c.abs_diff(j % g) as f64);
                let overlap = |reach: f64| tri(reach - k) - tri(-reach - k);
                x_pairs[i] += (a[0] * b[2] * overlap(halves[i][0] + halves[j][1])
                    + a[2] * b[0] * overlap(halves[i][1] + halves[j][0]))
                    / 2.0;
            }
        }
        let scan_tests = x_pairs.iter().sum();
        let h = if n > 0.0 { height / n } else { 0.0 };
        Sweep { cols, x_pairs, scan_tests, h, frame_h: yh - yl, cell_h, trie: OnceCell::new() }
    }

    /// S³J's scan: `(tests, partitions)`. Per cell and side, the copies at
    /// each level `l` (cells of area `4^-l`) by [`level_spread`]. Nested
    /// loops test the pairs of copies one of
    /// whose cells holds the other's — a cell's density times the coarser
    /// cell's area — and a level's copies occupy `m·(1 − e^(−copies/m))` of
    /// the `m` level cells a profile cell spans. Computed once per mode.
    fn level_work(&self, replicate: bool) -> (f64, f64) {
        *self.level_work[usize::from(replicate)].get_or_init(|| {
            let (g, Rect { xl, yl, xh, yh }) = (self.grid as f64, self.frame);
            let area = ((xh - xl) / g * (yh - yl) / g).max(f64::MIN_POSITIVE);
            let level_area: [f64; LEVELS] =
                std::array::from_fn(|l| 0.25f64.powi(l as i32).min((xh - xl) * (yh - yl)).max(area / 1e12));
            // Per level: a level cell's area over a profile cell's, and the inverse.
            let ratio: [(f64, f64); LEVELS] = std::array::from_fn(|l| (level_area[l] / area, area / level_area[l]));
            let (mut tests, mut parts) = (0.0, 0.0);
            for (r, s) in self.sides[0].iter().zip(&self.sides[1]).filter(|(r, s)| r.0 + s.0 > 0.0) {
                let [at_r, at_s] = [r, s].map(|&(c, w, h)| level_spread(c, w, h, replicate));
                let (mut deeper_r, mut deeper_s) = (0.0, 0.0);
                let used = || (0..LEVELS).filter(|&l| at_r[l] + at_s[l] > 0.0);
                for l in (used().next().unwrap_or(0)..=used().next_back().unwrap_or(0)).rev() {
                    let (per_cell, m) = ratio[l];
                    tests += per_cell * (at_r[l] * (at_s[l] + deeper_s) + at_s[l] * deeper_r);
                    (deeper_r, deeper_s) = (deeper_r + at_r[l], deeper_s + at_s[l]);
                    // Skip the `exp` where its term is exact without it: an
                    // empty level file adds `+0.0`, and below `e^−40 < 2^−54`
                    // `1 − e^x` rounds to 1.
                    let occupied = |c: f64| match -c / m {
                        _ if c == 0.0 => 0.0,
                        x if x < -40.0 => m,
                        x => m * (1.0 - x.exp()),
                    };
                    parts += [at_r[l], at_s[l]].map(occupied).iter().sum::<f64>();
                }
            }
            (tests, parts)
        })
    }

    pub fn grid(&self) -> u32 {
        self.grid
    }
}

/// How a sweep's buckets cover the unit square ([`JointEstimate::sweep`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Layout {
    /// One sweep over both inputs.
    One,
    /// One bucket per tile of a `gx × gy` grid.
    Tiles(u32, u32),
    /// PBSM's `p` partitions over its `gx × gy` tile grid.
    Partitions(u32, u32, u32),
}

/// The part of a layout's sweep work no kernel and no candidate count
/// changes.
#[derive(Debug)]
struct Sweep {
    /// Per bucket column: each side's copies and their summed widths, and
    /// the sum of its cells' squared copies.
    cols: Vec<[f64; 5]>,
    /// Per bucket column: the x-overlapping pairs it holds an end of.
    x_pairs: Vec<f64>,
    /// A forward scan's tests: every x-overlapping pair.
    scan_tests: f64,
    /// Mean record height.
    h: f64,
    /// The frame's height and one profile cell's.
    frame_h: f64,
    cell_h: f64,
    /// The trie's `(node_height, node_visits)`, once a trie asks.
    trie: OnceCell<(f64, f64)>,
}

impl Sweep {
    /// The work of the layout's sweeps by `internal`, reporting `candidates`
    /// in all.
    ///
    /// A forward scan tests every pair whose x-intervals overlap. A trie
    /// stores a record of height `h` at level `d` (nodes of height
    /// `S = Y/2^d`) with the chance `min(1, 2h/S)` that it spans a midpoint
    /// of levels ≤ `d`; a query visits, per level, the `1 + h/S` nodes it
    /// overlaps while one of its `A` x-overlapping entries sits that deep,
    /// and tests the entries of those nodes: their mean height `S̄` where a
    /// result needs `2h`.
    fn work(&self, internal: InternalAlgo, candidates: f64) -> Work {
        if internal != InternalAlgo::PlaneSweepTrie {
            return Work { scan_tests: count(self.scan_tests), candidates: count(candidates), ..Work::ZERO };
        }
        let (h, frame_h, cell_h) = (self.h, self.frame_h, self.cell_h);
        let &(node_height, node_visits) = self.trie.get_or_init(|| {
            // Per level: the nodes' height and the share of entries stored above.
            let level = |d: i32| (frame_h / 2f64.powi(d), (h * 2f64.powi(d) / frame_h).min(1.0));
            let levels: Vec<(f64, f64)> = (0..=24).map(level).take_while(|&(_, above)| above < 1.0).collect();
            let node_height: f64 =
                (0..=24).map(|d| (if d < 24 { level(d + 1).1 } else { 1.0 } - level(d).1) * level(d).0).sum();
            // A query in a cell holding `share` of its column's copies (their
            // copy-weighted mean) finds that share of the column's entries per
            // cell height around it.
            let visits = |a: f64, share: f64| -> f64 {
                let live = |&(size, above): &(f64, f64)| {
                    let near = (size / frame_h).max(share * (size / cell_h).min(1.0));
                    (1.0 + h / size) * (1.0 - (-a * (1.0 - above) * near).exp())
                };
                levels.iter().map(live).sum()
            };
            let queries = self.cols.iter().zip(&self.x_pairs).map(|(c, x)| (c[0] + c[2], x, c[4])).filter(|q| q.0 > 0.0);
            (node_height, queries.map(|(q, x, squares)| q * visits(x / q, squares / (q * q))).sum())
        });
        let status_tests = (candidates * (node_height + h) / (2.0 * h).max(f64::MIN_POSITIVE)).min(self.scan_tests);
        let (status_tests, node_visits, candidates) = (count(status_tests), count(node_visits), count(candidates));
        Work { status_tests, node_visits, candidates, ..Work::ZERO }
    }
}

/// Self-join pair estimate over the fine sketch.
///
/// The sketch is first aggregated to the finest level whose cell still
/// spans about twice the dataset's average extent per axis: records that
/// touch (polyline neighbours sit one extent apart) then share a cell, so
/// the uniform collision probability `min(1, 2w̄·2h̄ / cell_area)` is
/// evaluated in its valid regime rather than across cell boundaries it
/// cannot see. Per aggregated cell, `c²` pairs meet with that probability
/// (extents from the parent histogram cell; the diagonal is included —
/// every record intersects itself — matching how the join algorithms count
/// a self join).
fn self_pairs_at_sketch_resolution(p: &DatasetProfile) -> f64 {
    let g = PROFILE_GRID;
    let fine_g = g * FINE_FACTOR;
    let bw = (p.bbox.xh - p.bbox.xl).max(f64::MIN_POSITIVE);
    let bh = (p.bbox.yh - p.bbox.yl).max(f64::MIN_POSITIVE);
    let (aw, ah) = p.avg_extent();
    let max_shift = FINE_FACTOR.trailing_zeros();
    let shift_for = |cell: f64, target: f64| -> u32 {
        let mut s = 0;
        while s < max_shift && cell * f64::from(1u32 << s) < target {
            s += 1;
        }
        s
    };
    let sx = shift_for(bw / fine_g as f64, 2.0 * aw);
    let sy = shift_for(bh / fine_g as f64, 2.0 * ah);
    let cell_area = (bw / fine_g as f64 * f64::from(1u32 << sx))
        * (bh / fine_g as f64 * f64::from(1u32 << sy));
    // Each histogram cell's pair probability (no sketch cell lies in an
    // empty one).
    let prob: Vec<f64> = (0..p.counts.len())
        .map(|i| match p.counts[i] {
            cc if cc <= 0.0 => 0.0,
            cc => ((2.0 * (p.sum_w[i] / cc)) * (2.0 * (p.sum_h[i] / cc)) / cell_area).min(1.0),
        })
        .collect();
    // Each record's cell `(fx, fy)` as its aggregated cell `(fy >> sy,
    // fx >> sx)` followed by its offset in it, `(fy, fx) mod (2^sy, 2^sx)`:
    // one sort orders the cells by aggregated cell, and by index inside one.
    // So each aggregated cell sums its sketch cells in index order, and a
    // run of one sketch cell counts its records. An aggregated cell never
    // leaves its histogram cell, as `sx, sy ≤ log2 FINE_FACTOR`.
    let low = |v: u32, bits: u32| v & ((1 << bits) - 1);
    let ordered = p.fine.iter().map(|&idx| {
        let (fx, fy) = (low(idx, FINE_BITS), idx >> FINE_BITS);
        let at = ((fy >> sy) << (FINE_BITS - sx) | fx >> sx) << (sx + sy);
        at | low(fy, sy) << sx | low(fx, sx)
    });
    let sorted = sorted_cells(ordered.collect());
    let mut results = 0.0;
    for cell in sorted.chunk_by(|a, b| a >> (sx + sy) == b >> (sx + sy)) {
        let c = cell.chunk_by(|a, b| a == b).fold(0.0, |c, run| c + run.len() as f64 * p.weight);
        let at = cell[0] >> (sx + sy);
        let (fx, fy) = (low(at, FINE_BITS - sx) << sx, at >> (FINE_BITS - sx) << sy);
        results += c * c * prob[((fy / FINE_FACTOR) * g + fx / FINE_FACTOR) as usize];
    }
    results
}

/// `cells` (each below `2^(2·FINE_BITS)`) in ascending order: a counting
/// sort on the low `FINE_BITS`, then a stable one on the high. Bare cells
/// need neither the key nor the index per record `storage::radix_sorted`
/// carries; without them this sorts a self join's ≈ 190 k cells about
/// 2.5× faster (x86-64, one core).
fn sorted_cells(mut cells: Vec<u32>) -> Vec<u32> {
    let mut scratch = vec![0u32; cells.len()];
    for shift in [0, FINE_BITS] {
        let digit = |c: u32| ((c >> shift) & ((1 << FINE_BITS) - 1)) as usize;
        let mut next = vec![0u32; 1 << FINE_BITS];
        cells.iter().for_each(|&c| next[digit(c)] += 1);
        let mut at = 0;
        for slot in &mut next {
            (*slot, at) = (at, at + *slot);
        }
        for &c in &cells {
            let slot = &mut next[digit(c)];
            scratch[*slot as usize] = c;
            *slot += 1;
        }
        std::mem::swap(&mut cells, &mut scratch);
    }
    cells
}

/// Maps a profile's histogram onto a `g × g` grid over `frame` by
/// area-overlap resampling, returning per-cell `(count, avg_w, avg_h)`.
fn resample(p: &DatasetProfile, frame: &Rect, g: u32) -> Vec<(f64, f64, f64)> {
    let src_g = PROFILE_GRID;
    let sbw = (p.bbox.xh - p.bbox.xl).max(f64::MIN_POSITIVE);
    let sbh = (p.bbox.yh - p.bbox.yl).max(f64::MIN_POSITIVE);
    let fbw = (frame.xh - frame.xl).max(f64::MIN_POSITIVE);
    let fbh = (frame.yh - frame.yl).max(f64::MIN_POSITIVE);
    let mut counts = vec![0.0; (g * g) as usize];
    let mut sum_w = vec![0.0; (g * g) as usize];
    let mut sum_h = vec![0.0; (g * g) as usize];
    for sy in 0..src_g {
        for sx in 0..src_g {
            let i = (sy * src_g + sx) as usize;
            let c = p.counts[i];
            if c <= 0.0 {
                continue;
            }
            // Source-cell bounds in frame-relative [0,1) coordinates.
            let x0 = ((p.bbox.xl - frame.xl) / fbw) + (sx as f64 / src_g as f64) * (sbw / fbw);
            let x1 = x0 + (sbw / fbw) / src_g as f64;
            let y0 = ((p.bbox.yl - frame.yl) / fbh) + (sy as f64 / src_g as f64) * (sbh / fbh);
            let y1 = y0 + (sbh / fbh) / src_g as f64;
            // Distribute across overlapped target cells by axis overlap.
            let tx0 = ((x0 * g as f64) as u32).min(g - 1);
            let tx1 = (((x1 * g as f64).ceil() as u32).max(tx0 + 1)).min(g);
            let ty0 = ((y0 * g as f64) as u32).min(g - 1);
            let ty1 = (((y1 * g as f64).ceil() as u32).max(ty0 + 1)).min(g);
            let inv_w = 1.0 / (x1 - x0).max(f64::MIN_POSITIVE);
            let inv_h = 1.0 / (y1 - y0).max(f64::MIN_POSITIVE);
            for ty in ty0..ty1 {
                let oy0 = (ty as f64 / g as f64).max(y0);
                let oy1 = ((ty + 1) as f64 / g as f64).min(y1);
                let fy = ((oy1 - oy0) * inv_h).max(0.0);
                if fy <= 0.0 {
                    continue;
                }
                for tx in tx0..tx1 {
                    let ox0 = (tx as f64 / g as f64).max(x0);
                    let ox1 = ((tx + 1) as f64 / g as f64).min(x1);
                    let fx = ((ox1 - ox0) * inv_w).max(0.0);
                    if fx <= 0.0 {
                        continue;
                    }
                    let f = fx * fy;
                    let t = (ty * g + tx) as usize;
                    counts[t] += c * f;
                    sum_w[t] += p.sum_w[i] * f;
                    sum_h[t] += p.sum_h[i] * f;
                }
            }
        }
    }
    counts
        .iter()
        .enumerate()
        .map(|(t, &c)| {
            if c > 0.0 {
                (c, sum_w[t] / c, sum_h[t] / c)
            } else {
                (0.0, 0.0, 0.0)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiger(n: usize, coverage: f64, seed: u64) -> Vec<Kpe> {
        datagen::LineNetwork {
            count: n,
            coverage,
            segments_per_line: 12,
            seed,
        }
        .generate()
    }

    /// The fine sketch as a dense `(PROFILE_GRID·FINE_FACTOR)²` grid of `f64`
    /// counts builds it: `(index, weighted count)` of every occupied cell, in
    /// index order.
    fn dense_sketch(p: &DatasetProfile) -> Vec<(u32, f64)> {
        let fine_g = PROFILE_GRID * FINE_FACTOR;
        let mut dense = vec![0.0f64; (fine_g * fine_g) as usize];
        for &idx in &p.fine {
            dense[idx as usize] += 1.0;
        }
        let occupied = dense.iter().enumerate().filter(|(_, &c)| c > 0.0);
        occupied.map(|(i, &c)| (i as u32, c * p.weight)).collect()
    }

    /// [`self_pairs_at_sketch_resolution`] as it aggregated before its one
    /// counting sort: the dense sketch, stably comparison-sorted by
    /// aggregated cell, each run summed in order. Also returns the shifts
    /// `(sx, sy)` it aggregated at.
    fn self_pairs_by_comparison_sort(p: &DatasetProfile) -> (f64, (u32, u32)) {
        let (g, fine_g) = (PROFILE_GRID, PROFILE_GRID * FINE_FACTOR);
        let bw = (p.bbox.xh - p.bbox.xl).max(f64::MIN_POSITIVE);
        let bh = (p.bbox.yh - p.bbox.yl).max(f64::MIN_POSITIVE);
        let (aw, ah) = p.avg_extent();
        let shift_for = |cell: f64, target: f64| {
            (0..FINE_FACTOR.trailing_zeros()).find(|&s| cell * f64::from(1u32 << s) >= target).unwrap_or(FINE_FACTOR.trailing_zeros())
        };
        let (sx, sy) = (shift_for(bw / fine_g as f64, 2.0 * aw), shift_for(bh / fine_g as f64, 2.0 * ah));
        let cell_area = (bw / fine_g as f64 * f64::from(1u32 << sx)) * (bh / fine_g as f64 * f64::from(1u32 << sy));
        let mut buckets: Vec<(u64, u32, f64)> = dense_sketch(p)
            .into_iter()
            .map(|(idx, c)| {
                let (fx, fy) = (idx % fine_g, idx / fine_g);
                (u64::from(fy >> sy) * u64::from(fine_g) + u64::from(fx >> sx), (fy / FINE_FACTOR) * g + fx / FINE_FACTOR, c)
            })
            .collect();
        buckets.sort_by_key(|&(key, _, _)| key);
        let mut results = 0.0;
        for run in buckets.chunk_by(|a, b| a.0 == b.0) {
            let (coarse, c) = (run[0].1 as usize, run.iter().fold(0.0, |c, b| c + b.2));
            let cc = p.counts[coarse];
            if cc > 0.0 {
                let (w, h) = (p.sum_w[coarse] / cc, p.sum_h[coarse] / cc);
                results += c * c * ((2.0 * w) * (2.0 * h) / cell_area).min(1.0);
            }
        }
        (results, (sx, sy))
    }

    /// Bit-for-bit equality of the full and the sampled profile's self-join
    /// estimate with its dense, comparison-sorted reference; the counting
    /// sort agrees with a comparison sort, and the fingerprint ignores scan
    /// order.
    fn assert_matches_dense_build(data: &[Kpe], sample_size: usize, seed: u64) {
        let same = |p: DatasetProfile| {
            let mut sorted = p.fine.clone();
            sorted.sort_unstable();
            assert_eq!(sorted_cells(p.fine.clone()), sorted);
            assert_eq!(
                self_pairs_at_sketch_resolution(&p).to_bits(),
                self_pairs_by_comparison_sort(&p).0.to_bits()
            );
        };
        same(DatasetProfile::build(data));
        same(DatasetProfile::build_sampled(data, sample_size, seed));
        let reversed: Vec<Kpe> = data.iter().rev().copied().collect();
        assert_eq!(fine_fingerprint(&DatasetProfile::build(&reversed)), fine_fingerprint(&DatasetProfile::build(data)));
    }

    #[test]
    fn sparse_sketch_matches_dense_on_edge_cases() {
        let at = |i: u64, x: f64, y: f64, edge: f64| {
            Kpe::new(geom::RecordId(i), Rect::new(x, y, x + edge, y + edge))
        };
        // Empty input.
        assert_matches_dense_build(&[], 4, 1);
        // A single point mass: every record the same degenerate rectangle.
        let mass: Vec<Kpe> = (0..300).map(|i| at(i, 0.25, 0.75, 0.0)).collect();
        assert_matches_dense_build(&mass, 40, 3);
        // All centres in one fine cell of a frame two far corners span.
        let mut one_cell: Vec<Kpe> = (0..200)
            .map(|i| at(i, 0.5 + i as f64 * 1e-7, 0.5 + i as f64 * 1e-7, 1e-8))
            .collect();
        one_cell.push(at(200, 0.0, 0.0, 1e-3));
        one_cell.push(at(201, 0.999, 0.999, 1e-3));
        assert_matches_dense_build(&one_cell, 50, 2);
        // Real shape: clustered line networks, full and sampled.
        assert_matches_dense_build(&tiger(6000, 0.1, 9), 700, 11);
    }

    /// A uniform draw from `[0, 1)`, the `i`-th of stream `seed`.
    fn unit(seed: u64, i: u64) -> f64 {
        (mix(seed << 32 | i) >> 11) as f64 / 2f64.powi(53)
    }

    /// `n` squares of side `edge` whose corners sit on a 97 × 97 lattice
    /// of the unit square, so their centres share fine cells.
    fn lattice_squares(n: u64, edge: f64, seed: u64) -> Vec<Kpe> {
        let at = |i: u64| (unit(seed, i) * 97.0).floor() / 97.0 * (1.0 - edge);
        (0..n).map(|i| Kpe::new(geom::RecordId(i), Rect::new(at(i), at(i + n), at(i) + edge, at(i + n) + edge))).collect()
    }

    #[test]
    fn self_join_estimate_matches_its_comparison_sorted_aggregation() {
        let check = |p: DatasetProfile| {
            let (want, shifts) = self_pairs_by_comparison_sort(&p);
            assert!(want > 0.0);
            assert_eq!(self_pairs_at_sketch_resolution(&p).to_bits(), want.to_bits());
            shifts
        };
        for (n, coverage, seed) in [(6000, 0.1, 9), (20_000, 0.3, 4)] {
            let data = tiger(n, coverage, seed);
            check(DatasetProfile::build(&data));
            check(DatasetProfile::build_sampled(&data, n / 7, seed));
        }
        // Squares far under one sketch cell aggregate at the finest level;
        // squares wider than one histogram cell's half at the coarsest.
        for (edge, shifts) in [(1e-5, (0, 0)), (0.01, (5, 5))] {
            let data = lattice_squares(8000, edge, 3);
            assert_eq!(check(DatasetProfile::build(&data)), shifts);
            assert_eq!(check(DatasetProfile::build_sampled(&data, 1100, 5)), shifts);
        }
    }

    #[test]
    fn size_bucket_matches_floor_of_log2() {
        let want = |rel: f64| (-rel.log2()).floor().clamp(0.0, (SIZE_BUCKETS - 1) as f64) as usize;
        let floor = |x: f64| (-x.log2()).floor();
        let mut inputs = vec![1.0, f64::from_bits(1), f64::MIN_POSITIVE, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        for k in 0..=40 {
            let bits = 2f64.powi(-k).to_bits();
            inputs.extend((0..=4).flat_map(|ulps| [f64::from_bits(bits + ulps), f64::from_bits(bits - ulps)]));
            // Either side of where the exponent takes over from `log2`.
            let near = 1 << (52 - 28);
            inputs.extend((near - 1..=near + 1).flat_map(|m| [f64::from_bits(bits + m), f64::from_bits(bits - m)]));
        }
        // Ratios as the profile sees them, and arbitrary bit patterns.
        inputs.extend((0..50_000).map(|i| unit(7, i)));
        inputs.extend((0..50_000).map(|i| f64::from_bits(mix(i))));
        for rel in inputs {
            assert_eq!(size_bucket(rel), want(rel), "rel = {rel:e}");
            assert_eq!(neg_log2_floor(rel).to_bits(), floor(rel).to_bits(), "x = {rel:e}");
        }
    }

    /// Two inputs with the same cardinality, bbox and coarse histogram but
    /// different fine sketches are not a self join, so the estimate stays
    /// symmetric.
    #[test]
    fn self_join_detection_reads_the_fine_sketch() {
        let g = f64::from(PROFILE_GRID);
        // Two corner points pin both bboxes to the unit square.
        let corners = [(0.0, 1), (1.0, 2)].map(|(v, i)| Kpe::new(geom::RecordId(u64::MAX - i), Rect::new(v, v, v, v)));
        let mut r = tiger(20_000, 0.02, 12);
        // Every record moved to its histogram cell's centre.
        let to_centre = |v: f64| ((v * g).floor().min(g - 1.0) + 0.5) / g - v;
        let mut s: Vec<Kpe> = r
            .iter()
            .map(|k| {
                let (c, b) = (k.rect.center(), k.rect);
                let (dx, dy) = (to_centre(c.x), to_centre(c.y));
                Kpe::new(k.id, Rect::new(b.xl + dx, b.yl + dy, b.xh + dx, b.yh + dy))
            })
            .collect();
        r.extend(corners);
        s.extend(corners);
        let (pr, ps) = (DatasetProfile::build(&r), DatasetProfile::build(&s));
        assert!(pr.bbox == ps.bbox && pr.counts == ps.counts && pr.cardinality == ps.cardinality);
        assert_ne!(fine_fingerprint(&pr), fine_fingerprint(&ps));
        let (rs, sr) = (JointEstimate::build(&pr, &ps), JointEstimate::build(&ps, &pr));
        assert_eq!(rs.results.to_bits(), sr.results.to_bits());
    }

    /// The plan shares each grid's terms between its candidates; every
    /// prediction still equals a lone `predict` on a fresh joint estimate.
    #[test]
    fn plan_predicts_each_candidate_as_predict_does() {
        let (a, b) = (tiger(6000, 0.1, 21), tiger(6000, 0.05, 22));
        let full = |d: &[Kpe]| DatasetProfile::build(d);
        let cases = [
            (full(&a), full(&b)),
            (full(&a), full(&a)),
            (DatasetProfile::build_sampled(&a, 900, 1), DatasetProfile::build_sampled(&b, 900, 2)),
        ];
        for (r, s) in &cases {
            for mem in [64 << 10, 256 << 10, 64 << 20] {
                let planner = Planner::new(mem);
                for c in planner.plan(r, s).ranked {
                    let lone = planner.predict(&c.choice, r, s, &JointEstimate::build(r, s));
                    assert_eq!(format!("{:?}", c.predicted), format!("{lone:?}"), "{}", c.choice.describe());
                }
            }
        }
    }

    mod sketch_proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Lattice centres, so fine cells collide in every multiplicity.
            #[test]
            fn prop_sparse_sketch_matches_dense(
                cells in prop::collection::vec((0u32..40, 0u32..40, 0u32..3), 0..400),
                sample_size in 1usize..500,
                seed in 0u64..1000,
            ) {
                let data: Vec<Kpe> = cells
                    .iter()
                    .enumerate()
                    .map(|(i, &(x, y, e))| {
                        let (x, y, e) = (f64::from(x) / 64.0, f64::from(y) / 64.0, f64::from(e) / 128.0);
                        Kpe::new(geom::RecordId(i as u64), Rect::new(x, y, x + e, y + e))
                    })
                    .collect();
                assert_matches_dense_build(&data, sample_size, seed);
            }
        }
    }

    #[test]
    fn profile_totals_and_coverage() {
        let data = tiger(4000, 0.1, 1);
        let p = DatasetProfile::build(&data);
        assert!((p.cardinality - 4000.0).abs() < 1e-9);
        assert!(p.coverage > 0.0 && p.occupancy > 0.0);
        let hist_total: f64 = p.size_hist.iter().sum();
        assert!((hist_total - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_profile_keeps_cardinality() {
        let data = tiger(10_000, 0.1, 2);
        let p = DatasetProfile::build_sampled(&data, 500, 7);
        assert!((p.cardinality - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn joint_estimate_is_symmetric() {
        let r = DatasetProfile::build(&tiger(3000, 0.12, 3));
        let s = DatasetProfile::build(&tiger(3000, 0.05, 4));
        let a = JointEstimate::build(&r, &s);
        let b = JointEstimate::build(&s, &r);
        assert_eq!(a.results.to_bits(), b.results.to_bits());
    }

    #[test]
    fn plan_is_deterministic() {
        let r = DatasetProfile::build(&tiger(2000, 0.1, 5));
        let s = DatasetProfile::build(&tiger(2000, 0.1, 6));
        let planner = Planner::new(64 * 1024);
        let a = planner.plan(&r, &s);
        let b = planner.plan(&r, &s);
        assert_eq!(a.chosen().choice, b.chosen().choice);
        assert_eq!(a.render_table(), b.render_table());
    }

    #[test]
    fn huge_memory_prefers_an_in_memory_plan() {
        let r = DatasetProfile::build(&tiger(2000, 0.1, 7));
        let s = DatasetProfile::build(&tiger(2000, 0.1, 8));
        let plan = Planner::new(1 << 30).plan(&r, &s);
        assert_eq!(plan.chosen().predicted.partitions, 1);
        assert_eq!(plan.chosen().predicted.io_seconds, 0.0);
    }

    #[test]
    fn streamable_space_excludes_baselines() {
        let planner = Planner::new(4096).with_space(PlanSpace::Streamable);
        assert!(planner
            .candidates()
            .iter()
            .all(|c| c.streamable()));
    }

    #[test]
    fn plan_mode_parse_and_suggestions() {
        assert_eq!(PlanMode::parse("auto"), Ok(PlanMode::Auto));
        assert_eq!(PlanMode::parse("off"), Ok(PlanMode::Off));
        assert_eq!(PlanMode::parse("explain"), Ok(PlanMode::Explain));
        let err = PlanMode::parse("autoo").unwrap_err();
        assert!(err.contains("\"auto\""), "{err}");
        let err = PlanMode::parse("explian").unwrap_err();
        assert!(err.contains("\"explain\""), "{err}");
        assert!(PlanMode::parse("zzzzzzzz").is_err());
    }

    #[test]
    fn cli_names_cover_the_service_algos() {
        let planner = Planner::new(4096);
        for c in planner.candidates() {
            let name = c.cli_name();
            assert!(
                [
                    "pbsm", "pbsm-trie", "pbsm-sort", "s3j", "s3j-orig", "sssj", "shj",
                    "twolayer", "quadtree"
                ]
                .contains(&name),
                "unexpected cli name {name}"
            );
        }
    }
}
