//! The four workloads, their inputs, and the embedded (in-process) ops.

use std::time::Instant;

use spatialjoin::estimate::{DatasetProfile, Planner};
use spatialjoin::{
    datagen, Algorithm, DiskModel, InternalAlgo, JoinError, JoinStats, Kpe, SimDisk, SpatialJoin,
};

use crate::sink::PairSum;

/// Op types in the fixed order one round runs them.
pub const OPS: [&str; 6] = ["pbsm", "pbsm_trie", "twolayer", "s3j", "durable", "auto"];
pub const PBSM: usize = 0;
pub const TWOLAYER: usize = 2;
pub const S3J: usize = 3;
pub const DURABLE: usize = 4;
pub const AUTO: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LowSel,
    HiSel,
    BigSelf,
    Serve,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::LowSel, Kind::HiSel, Kind::BigSelf, Kind::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Kind::LowSel => "lowsel",
            Kind::HiSel => "hisel",
            Kind::BigSelf => "bigself",
            Kind::Serve => "serve",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The two relations as `(generator, fraction of its paper cardinality)`.
    pub fn sources(self) -> [(&'static str, f64); 2] {
        match self {
            Kind::LowSel | Kind::HiSel | Kind::Serve => [("la_rr", 1.0), ("la_st", 1.0)],
            Kind::BigSelf => [("cal_st", 0.1), ("cal_st", 0.1)],
        }
    }

    /// The paper's `(p)` operator applied to both relations (J4 uses 4).
    pub fn stretch(self) -> f64 {
        match self {
            Kind::HiSel => 4.0,
            _ => 1.0,
        }
    }

    /// Memory budget `M` of every op. `lowsel`/`serve`: data is 2× the
    /// budget; `hisel`: both inputs fit, PBSM runs one partition and touches
    /// no page; `bigself`: data is 7× the budget.
    pub fn mem_bytes(self) -> usize {
        match self {
            Kind::LowSel | Kind::Serve => 5 << 20,
            Kind::HiSel => 64 << 20,
            Kind::BigSelf => 2 << 20,
        }
    }

    /// Join worker threads; only `bigself` enters the ordered pool.
    pub fn threads(self) -> usize {
        match self {
            Kind::BigSelf => 2,
            _ => 1,
        }
    }
}

/// Generates `fraction` of one of the paper's relations from the workload seed.
pub fn generate(source: &str, fraction: f64, seed: u64) -> Vec<Kpe> {
    let cfg = match source {
        "la_rr" => datagen::la_rr_config(seed),
        "la_st" => datagen::la_st_config(seed),
        "cal_st" => datagen::cal_st_config(seed),
        other => unreachable!("workloads only name the paper's generators, not {other:?}"),
    };
    datagen::sized(&cfg, fraction).generate()
}

#[derive(Debug, Clone)]
pub struct Inputs {
    pub r: Vec<Kpe>,
    pub s: Vec<Kpe>,
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64, scale: f64) -> Inputs {
        let [(rs, rf), (ss, sf)] = kind.sources();
        let p = kind.stretch();
        let stretch = |data: Vec<Kpe>| {
            if p == 1.0 {
                data
            } else {
                datagen::scale(&data, p)
            }
        };
        let r = stretch(generate(rs, rf * scale, seed));
        let s = if (rs, rf) == (ss, sf) {
            r.clone()
        } else {
            stretch(generate(ss, sf * scale, seed))
        };
        Inputs { r, s }
    }

    pub fn len(&self) -> usize {
        self.r.len() + self.s.len()
    }
}

/// The independent oracle: one plane sweep over both relations, with no
/// partitioning, replication or duplicate elimination to get wrong.
pub fn reference(inputs: &Inputs, mem_bytes: usize) -> PairSum {
    let mut sum = PairSum::default();
    SpatialJoin::new(Algorithm::sssj(mem_bytes))
        .run_with(&inputs.r, &inputs.s, &mut |a, b| sum.push(a.0, b.0));
    sum
}

/// One executed op, as both engines report it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub op: usize,
    /// Round this op ran in, and whether that round recorded spans; both
    /// are filled in by the round loop.
    pub round: usize,
    pub traced: bool,
    pub start: Instant,
    pub end: Instant,
    pub first_pair: Option<Instant>,
    pub got: PairSum,
    /// Simulated 1999 disk seconds of this op (`JoinStats::io_seconds`).
    pub sim_io_s: f64,
    /// Phase clocks the program reports for this op, in seconds.
    pub phases: Vec<(&'static str, f64)>,
    /// `serve` only: first line, last line, and seconds spent parsing.
    pub wire: Option<Wire>,
    /// `None` when the op returned an error.
    pub error: Option<String>,
}

#[derive(Debug, Clone, Copy)]
pub struct Wire {
    pub first_line: Instant,
    pub last_line: Instant,
    pub parse_s: f64,
    pub bytes: u64,
}

impl Sample {
    /// An op that has started and so far delivered nothing.
    pub fn started(op: usize, start: Instant) -> Sample {
        Sample {
            op,
            round: 0,
            traced: false,
            start,
            end: start,
            first_pair: None,
            got: PairSum::default(),
            sim_io_s: 0.0,
            phases: Vec::new(),
            wire: None,
            error: None,
        }
    }

    pub fn wall_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    pub fn first_pair_ms(&self) -> Option<f64> {
        self.first_pair
            .map(|t| (t - self.start).as_secs_f64() * 1e3)
    }
}

/// Phase clocks of a finished join, named as the stats structs name them.
pub fn phases(stats: &JoinStats) -> Vec<(&'static str, f64)> {
    match stats {
        JoinStats::Pbsm(s) => vec![
            ("partition", s.cpu_partition),
            ("repart", s.cpu_repart),
            ("join", s.cpu_join),
        ],
        JoinStats::S3j(s) => vec![
            ("partition", s.cpu_partition),
            ("sort", s.cpu_sort),
            ("join", s.cpu_join),
        ],
        JoinStats::Sssj(s) => vec![("sort", s.cpu_sort), ("join", s.cpu_join)],
        JoinStats::Shj(s) => vec![
            ("build", s.cpu_build),
            ("probe", s.cpu_probe),
            ("join", s.cpu_join),
        ],
        JoinStats::Quadtree(s) => vec![("build", s.cpu_build), ("join", s.cpu_join)],
    }
}

/// Runs ops by calling the library in this process.
#[derive(Debug, Clone)]
pub struct Embedded {
    pub inputs: Inputs,
    pub mem_bytes: usize,
    pub threads: usize,
}

impl Embedded {
    /// The fixed-configuration op types; `auto` plans its own.
    pub fn algorithm(&self, op: usize) -> Algorithm {
        let mem = self.mem_bytes;
        let algo = match OPS[op] {
            "pbsm" | "durable" => Algorithm::pbsm_rpm(mem),
            "pbsm_trie" => Algorithm::pbsm_rpm(mem).with_internal(InternalAlgo::PlaneSweepTrie),
            "twolayer" => Algorithm::two_layer(mem),
            "s3j" => Algorithm::s3j_replicated(mem),
            other => unreachable!("{other} has no fixed algorithm"),
        };
        algo.with_threads(self.threads)
    }

    /// The uncalibrated planner's pick for these inputs.
    pub fn plan(&self) -> Algorithm {
        let plan = Planner::new(self.mem_bytes).plan(
            &DatasetProfile::build(&self.inputs.r),
            &DatasetProfile::build(&self.inputs.s),
        );
        Algorithm::from_choice(&plan.chosen().choice).with_threads(self.threads)
    }

    pub fn run_op(&self, op: usize) -> (Sample, Option<JoinStats>) {
        let start = Instant::now();
        let join = SpatialJoin::new(if op == AUTO {
            self.plan()
        } else {
            self.algorithm(op)
        });
        self.run_join(op, start, &join, op == DURABLE)
    }

    /// Runs `join` into the checksum sink, timed from `start`.
    pub fn run_join(
        &self,
        op: usize,
        start: Instant,
        join: &SpatialJoin,
        durable: bool,
    ) -> (Sample, Option<JoinStats>) {
        let mut got = PairSum::default();
        let mut first_pair = None;
        let mut out = |a: spatialjoin::RecordId, b: spatialjoin::RecordId| {
            if got.count == 0 {
                first_pair = Some(Instant::now());
            }
            got.push(a.0, b.0);
        };
        let (r, s) = (&self.inputs.r, &self.inputs.s);
        let result: Result<JoinStats, JoinError> = if durable {
            let disk = SimDisk::new(DiskModel::default());
            join.try_run_durable_with(&disk, r, s, 1, &mut out)
        } else {
            join.try_run_with(r, s, &mut out)
        };
        let end = Instant::now();
        let (stats, error) = match result {
            Ok(stats) => (Some(stats), None),
            Err(e) => (None, Some(e.to_string())),
        };
        let sample = Sample {
            end,
            first_pair,
            got,
            sim_io_s: stats.as_ref().map_or(0.0, JoinStats::io_seconds),
            phases: stats.as_ref().map_or_else(Vec::new, phases),
            error,
            ..Sample::started(op, start)
        };
        (sample, stats)
    }
}
