//! Planner-accuracy evaluation and cost-model calibration.
//!
//! Two jobs share this binary:
//!
//! * **eval / `--check`** — sweep the paper's joins J1–J5 across two memory
//!   budgets, rank the planner's full candidate space, *run* every
//!   I/O-distinct variant under the deterministic cost model
//!   (`cpu_slowdown = 0`, so measured total time is simulated I/O alone and
//!   bit-reproducible across hosts), and assert the planner's pick lands
//!   within 10 % of the best variant's measured total. `--check` turns any
//!   miss into exit code 1 — the CI gate.
//! * **`--fit <baseline>`** — replay the committed bench-regression corpus
//!   (`BENCH_pr10.json`), compare each row's measured meters against the raw
//!   model's prediction for the same configuration, least-squares fit the
//!   per-family affine corrections, and write the versioned coefficients
//!   file the planner loads at run time.
//!
//! ```text
//! # calibrate (writes planner-coeffs.json; scale is recorded inside)
//! SJ_SCALE=0.2 cargo run --release -p bench --bin planner-eval -- --fit BENCH_pr10.json
//! # CI gate: pick within 10 % of best on every grid cell
//! SJ_SCALE=0.2 cargo run --release -p bench --bin planner-eval -- --check
//! ```
//!
//! Exit codes: 0 pass, 1 a pick missed the 10 % window, 2 usage error
//! (including coefficients or a baseline recorded at a different
//! `SJ_SCALE` — neither is comparable across scales).

use std::fmt::Write as _;
use std::process::ExitCode;

use bench::{cal_st, hisel_inputs, join_inputs, paper_mem, rounded, scale, skew_inputs};
use spatialjoin::estimate::{
    fit_affine_relative, Coefficients, DatasetProfile, JointEstimate, PlanAlgo, PlanChoice,
    Planner,
};
use spatialjoin::{Algorithm, InternalAlgo, SpatialJoin};
use storage::{DiskModel, Json};

/// The pick may cost at most this factor of the best measured variant.
const PICK_TOLERANCE: f64 = 0.10;
/// Absolute slack for all-in-memory cells where best == 0 simulated seconds.
const EPS: f64 = 1e-9;

/// Deterministic clock: measured position = simulated I/O only.
fn model() -> DiskModel {
    DiskModel {
        cpu_slowdown: 0.0,
        ..Default::default()
    }
}

fn inputs(join: &str) -> (Vec<geom::Kpe>, Vec<geom::Kpe>) {
    match join {
        "J1" => join_inputs(1),
        "J2" => join_inputs(2),
        "J3" => join_inputs(3),
        "J4" => join_inputs(4),
        "J5" => (cal_st().to_vec(), cal_st().to_vec()),
        "SKEW" => skew_inputs(),
        "HISEL" => hisel_inputs(),
        other => panic!("unknown join {other}"),
    }
}

/// At `cpu_slowdown = 0` the internal in-memory algorithm cannot move the
/// measured clock, so variants differing only in `internal` are one
/// measurement.
fn io_signature(c: &PlanChoice) -> (PlanAlgo, u32, usize) {
    (c.algo, c.tiles_per_partition, c.buffer_pages)
}

struct CellRow {
    join: &'static str,
    paper_mb: f64,
    chosen: String,
    predicted_s: f64,
    picked_s: f64,
    best: String,
    best_s: f64,
}

impl CellRow {
    fn ok(&self) -> bool {
        self.picked_s <= self.best_s * (1.0 + PICK_TOLERANCE) + EPS
    }

    fn json(&self) -> Json {
        Json::obj([
            ("join", self.join.into()),
            ("paper_mb", self.paper_mb.into()),
            ("chosen", self.chosen.as_str().into()),
            ("predicted_s", rounded(self.predicted_s, 6)),
            ("picked_s", rounded(self.picked_s, 6)),
            ("best", self.best.as_str().into()),
            ("best_s", rounded(self.best_s, 6)),
            ("ok", self.ok().into()),
        ])
    }
}

/// Measures one variant's simulated total under the deterministic model.
/// `None` when the candidate refuses the configuration (the in-memory
/// quadtree with inputs over budget) — the planner predicts those at
/// infinite cost, so they can never be the pick.
fn measure(choice: &PlanChoice, r: &[geom::Kpe], s: &[geom::Kpe]) -> Option<f64> {
    SpatialJoin::new(Algorithm::from_choice(choice))
        .with_disk_model(model())
        .try_run_with(r, s, &mut |_, _| {})
        .ok()
        .map(|st| st.total_seconds())
}

fn eval(coeffs: &Coefficients) -> Result<(String, Vec<CellRow>), String> {
    let mut rows = Vec::new();
    let meta = Json::obj([
        ("bench", "planner-eval".into()),
        ("scale", scale().into()),
        ("pick_tolerance", PICK_TOLERANCE.into()),
        ("coeffs_fitted", (!coeffs.is_identity()).into()),
    ]);
    let mut out = format!("{}\n", Json::obj([("meta", meta)]));
    for join in ["J1", "J2", "J3", "J4", "J5"] {
        let (r, s) = inputs(join);
        let (pr, ps) = (DatasetProfile::build(&r), DatasetProfile::build(&s));
        for paper_mb in [2.0, 8.0] {
            let mem = paper_mem(paper_mb);
            let planner = Planner::new(mem)
                .with_disk_model(model())
                .with_coefficients(coeffs.clone());
            let plan = planner.plan(&pr, &ps);
            let chosen = &plan.ranked[0];
            // Every I/O-distinct variant gets measured; the pick is then
            // judged against the honest best, not against itself.
            let mut measured: Vec<(PlanAlgo, u32, usize, String, f64)> = Vec::new();
            for cand in &plan.ranked {
                let sig = io_signature(&cand.choice);
                if measured.iter().any(|m| (m.0, m.1, m.2) == sig) {
                    continue;
                }
                if let Some(total) = measure(&cand.choice, &r, &s) {
                    measured.push((sig.0, sig.1, sig.2, cand.choice.describe(), total));
                }
            }
            let picked_s = measured
                .iter()
                .find(|m| (m.0, m.1, m.2) == io_signature(&chosen.choice))
                .map(|m| m.4)
                .ok_or("chosen plan missing from measurements")?;
            let best = measured
                .iter()
                .min_by(|a, b| a.4.total_cmp(&b.4))
                .ok_or("no variants measured")?;
            let row = CellRow {
                join,
                paper_mb,
                chosen: chosen.choice.describe(),
                predicted_s: chosen.predicted.total_seconds,
                picked_s,
                best: best.3.clone(),
                best_s: best.4,
            };
            eprintln!(
                "planner-eval: {join} M={paper_mb}MB pick {} ({:.4}s) best {} ({:.4}s) {}",
                row.chosen,
                row.picked_s,
                row.best,
                row.best_s,
                if row.ok() { "ok" } else { "MISS" },
            );
            let _ = writeln!(out, "{}", row.json());
            rows.push(row);
        }
    }
    Ok((out, rows))
}

// --- calibration ----------------------------------------------------------

/// The regress corpus runs `pbsm_rpm` / `s3j_replicated` / `two_layer` at
/// their library defaults; the matching planner candidates are fixed.
fn corpus_choice(algo: &str, mem: usize) -> Option<PlanChoice> {
    let plan_algo = match algo {
        "pbsm" => PlanAlgo::PbsmRpm,
        "s3j" => PlanAlgo::S3jReplicated,
        "twolayer" => PlanAlgo::TwoLayer,
        _ => return None,
    };
    Some(PlanChoice {
        algo: plan_algo,
        internal: InternalAlgo::PlaneSweepList,
        tiles_per_partition: 4,
        buffer_pages: 1,
        mem_bytes: mem,
    })
}

/// The memory budget regress ran each join at (J5 is the big self join;
/// the skew/selectivity workloads run tight to force external runs).
fn corpus_mem(join: &str) -> usize {
    match join {
        "J5" => paper_mem(8.0),
        "SKEW" | "HISEL" => paper_mem(0.5),
        _ => paper_mem(2.0),
    }
}

fn fit(baseline: &str) -> Result<Coefficients, String> {
    let (meta, rows) = bench::parse_report(baseline)?;
    let base_scale = meta
        .get("scale")
        .and_then(Json::as_f64)
        .ok_or("baseline meta line has no scale")?;
    if base_scale != scale() {
        return Err(format!(
            "baseline was recorded at SJ_SCALE={base_scale}, this run is at {}; \
             refusing a cross-scale fit — rerun with SJ_SCALE={base_scale}",
            scale()
        ));
    }

    // (family, metric) -> (raw predicted, measured) pairs.
    let mut points: Vec<(String, String, f64, f64)> = Vec::new();
    let mut cache: Vec<(String, DatasetProfile, DatasetProfile)> = Vec::new();
    for row in &rows {
        let text = |name: &str| row.get(name).and_then(Json::as_str).unwrap_or("").to_owned();
        let count = |name: &str| row.get(name).and_then(Json::as_u64);
        // One row per (join, algo): the meters are invariant across the
        // threads × channels grid, so the duplicates carry no information.
        let (join, algo) = (text("join"), text("algo"));
        if count("threads") != Some(1) || count("channels") != Some(1) {
            continue;
        }
        let mem = corpus_mem(&join);
        let Some(choice) = corpus_choice(&algo, mem) else {
            return Err(format!("baseline row has unknown algo {algo:?}"));
        };
        if !cache.iter().any(|(j, _, _)| *j == join) {
            let (r, s) = inputs(&join);
            cache.push((join.clone(), DatasetProfile::build(&r), DatasetProfile::build(&s)));
        }
        let (_, pr, ps) = cache.iter().find(|(j, _, _)| *j == join).unwrap();
        let planner = Planner::new(mem).with_disk_model(model());
        let joint = JointEstimate::build(pr, ps);
        let p = planner.predict(&choice, pr, ps, &joint);
        let fam = choice.algo.family().to_owned();
        let cand = count("candidates").ok_or("row lacks candidates")? as f64;
        let pages = (count("pages_read").ok_or("row lacks pages_read")?
            + count("pages_written").ok_or("row lacks pages_written")?) as f64;
        let secs = row
            .get("total_s")
            .and_then(Json::as_f64)
            .ok_or("row lacks total_s")?;
        eprintln!(
            "planner-eval: corpus {join}/{algo}: candidates raw {:.0} vs {cand:.0} ({:.2}x), \
             pages raw {:.0} vs {pages:.0}, seconds raw {:.3} vs {secs:.3}",
            p.candidates,
            cand / p.candidates.max(1.0),
            p.pages_read + p.pages_written,
            p.io_seconds,
        );
        points.push((fam.clone(), "candidates".into(), p.candidates, cand));
        points.push((fam.clone(), "pages".into(), p.pages_read + p.pages_written, pages));
        points.push((fam, "seconds".into(), p.io_seconds, secs));
    }
    if points.is_empty() {
        return Err("baseline holds no threads=1 channels=1 rows".into());
    }

    let mut coeffs = Coefficients::identity();
    coeffs.scale = scale();
    for family in ["pbsm", "s3j", "twolayer"] {
        for metric in ["candidates", "pages", "seconds"] {
            let pts: Vec<(f64, f64)> = points
                .iter()
                .filter(|(f, m, _, _)| f == family && m == metric)
                .map(|&(_, _, x, y)| (x, y))
                .collect();
            if pts.is_empty() {
                continue;
            }
            let (a, b) = fit_affine_relative(&pts);
            coeffs.set(family, metric, a, b);
            let worst = pts
                .iter()
                .map(|&(x, y)| ((a * x + b) - y).abs() / y.abs().max(1e-12))
                .fold(0.0f64, f64::max);
            eprintln!(
                "planner-eval: fit {family}/{metric}: a={a:.4} b={b:.1} \
                 worst residual {:.1}% over {} points",
                worst * 100.0,
                pts.len()
            );
        }
    }
    Ok(coeffs)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut fit_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut coeffs_path = "planner-coeffs.json".to_owned();
    let mut check = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fit" => fit_path = args.next(),
            "--check" => check = true,
            "--out" => out_path = args.next(),
            "--coeffs" => match args.next() {
                Some(p) => coeffs_path = p,
                None => {
                    eprintln!("planner-eval: --coeffs needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" => {
                eprintln!(
                    "usage: planner-eval [--fit <baseline.json>] [--check] \
                     [--coeffs <coeffs.json>] [--out <report.json>]\n\
                     --fit   least-squares calibrate against a regress baseline and\n\
                     \x20       write the coefficients file (then exit)\n\
                     --check gate: fail unless every grid cell's pick is within 10%\n\
                     Honors SJ_SCALE; coefficients/baselines must match the scale."
                );
                return ExitCode::from(0);
            }
            other => {
                eprintln!("planner-eval: unknown flag {other} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(path) = &fit_path {
        let baseline = match std::fs::read_to_string(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("planner-eval: cannot read baseline {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let coeffs = match fit(&baseline) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("planner-eval: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&coeffs_path, coeffs.to_json()) {
            eprintln!("planner-eval: cannot write {coeffs_path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("planner-eval: coefficients written to {coeffs_path}");
        return ExitCode::from(0);
    }

    let coeffs = match Coefficients::load(std::path::Path::new(&coeffs_path)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("planner-eval: {e}");
            return ExitCode::from(2);
        }
    };
    if !coeffs.is_identity() && coeffs.scale != scale() {
        eprintln!(
            "planner-eval: coefficients were fitted at SJ_SCALE={}, this run is at {}; \
             refit with --fit or rerun at the matching scale",
            coeffs.scale,
            scale()
        );
        return ExitCode::from(2);
    }

    let (report, rows) = match eval(&coeffs) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("planner-eval: FAIL: {e}");
            return ExitCode::from(1);
        }
    };
    print!("{report}");
    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("planner-eval: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("planner-eval: report written to {path}");
    }

    let misses: Vec<&CellRow> = rows.iter().filter(|r| !r.ok()).collect();
    if check && !misses.is_empty() {
        for m in &misses {
            eprintln!(
                "planner-eval: FAIL: {} M={}MB picked {} at {:.4}s, best {} at {:.4}s \
                 (tolerance {:.0}%)",
                m.join,
                m.paper_mb,
                m.chosen,
                m.picked_s,
                m.best,
                m.best_s,
                PICK_TOLERANCE * 100.0
            );
        }
        return ExitCode::from(1);
    }
    if check {
        eprintln!("planner-eval: PASS — {} cells within {:.0}%", rows.len(), PICK_TOLERANCE * 100.0);
    }
    ExitCode::from(0)
}
