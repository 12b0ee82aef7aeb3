//! Bench-regression pipeline: replays the paper's joins J1–J5 under the
//! deterministic cost model and emits a versioned JSON-lines report that
//! doubles as a CI gate.
//!
//! The runs pin `cpu_slowdown = 0`, so every reported number is derived
//! from the simulated I/O meters alone — bit-reproducible across hosts and
//! thread counts. A drift is therefore a *code* change, never host noise:
//! counters (results, duplicates, candidates, pages) must match the
//! baseline exactly, while the simulated times get a 5 % relative
//! tolerance so deliberate small cost-model tweaks don't force a re-bless.
//! Every point runs the full channels {1, 4} × threads {1, 4} grid and is
//! pushed through
//! [`MetricsReport::reconcile`](storage::MetricsReport::reconcile) — the
//! gate fails on any accounting leak before it ever diffs numbers. The
//! produce step additionally enforces the multi-channel contract inline:
//! deterministic meters identical across all four configurations, and
//! `total_s` strictly lower at four channels than at one.
//!
//! Besides J1–J5, the grid carries a skewed (`SKEW`) and a
//! high-selectivity (`HISEL`) workload where the two-layer class scheme is
//! required to beat PBSM+RPM on the deterministic simulated total (I/O
//! plus `tests` priced on the default model's CPU clock) — the produce step
//! enforces this inline on every run, so the gate fails the moment the
//! two-layer fast paths regress.
//!
//! ```text
//! # produce / bless a baseline (records the dataset scale inside)
//! SJ_SCALE=0.2 cargo run --release -p bench --bin regress -- --out BENCH_pr10.json
//! # CI gate: re-run and diff against the committed baseline
//! SJ_SCALE=0.2 cargo run --release -p bench --bin regress -- \
//!     --check BENCH_pr10.json --out bench-regress.json
//! ```
//!
//! Exit codes: 0 pass, 1 regression or reconciliation failure, 2 usage
//! error (including a baseline recorded at a different `SJ_SCALE` — the
//! numbers are not comparable across scales, so the diff is refused).

use std::fmt::Write as _;
use std::process::ExitCode;

use bench::{cal_st, hisel_inputs, join_inputs, paper_mem, rounded, scale, skew_inputs};
use spatialjoin::{Algorithm, SpatialJoin};
use storage::{DiskModel, Json, Work};

const SCHEMA_VERSION: u32 = 3;
const TIME_TOLERANCE: f64 = 0.05;

struct Row {
    join: &'static str,
    algo: &'static str,
    threads: usize,
    channels: usize,
    results: u64,
    duplicates: u64,
    candidates: u64,
    tests: u64,
    pages_read: u64,
    pages_written: u64,
    total_s: f64,
    first_result_s: f64,
}

impl Row {
    fn json(&self) -> Json {
        Json::obj([
            ("join", self.join.into()),
            ("algo", self.algo.into()),
            ("threads", self.threads.into()),
            ("channels", self.channels.into()),
            ("results", self.results.into()),
            ("duplicates", self.duplicates.into()),
            ("candidates", self.candidates.into()),
            ("tests", self.tests.into()),
            ("pages_read", self.pages_read.into()),
            ("pages_written", self.pages_written.into()),
            ("total_s", rounded(self.total_s, 6)),
            ("first_result_s", rounded(self.first_result_s, 6)),
        ])
    }

    fn meters(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.results,
            self.duplicates,
            self.candidates,
            self.tests,
            self.pages_read,
            self.pages_written,
        )
    }

    /// Deterministic "total time" with CPU work priced in: simulated I/O
    /// plus `tests` rectangle comparisons on the default model's CPU clock.
    /// This is what the two-layer beat gate compares — the rows' own clock
    /// pins `cpu_slowdown = 0`, so it cannot see CPU savings. Both sides do
    /// identical I/O, so fewer tests win at any positive price.
    fn sim_total(&self) -> f64 {
        let tests = Work {
            tests: self.tests,
            ..Work::default()
        };
        self.total_s + DiskModel::default().priced_cpu(&tests)
    }
}

fn run_point(join: &'static str, algo: &'static str, base: &Algorithm, r: &[geom::Kpe], s: &[geom::Kpe]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for channels in [1usize, 4] {
        // Deterministic clock: position = simulated I/O only.
        let model = DiskModel {
            channels,
            cpu_slowdown: 0.0,
            ..Default::default()
        };
        for threads in [1usize, 4] {
            let (_, st) = SpatialJoin::new(base.clone().with_threads(threads))
                .with_disk_model(model)
                .count(r, s);
            // The load-bearing invariant: the export reconciles before any
            // number reaches the report — including the per-channel leg.
            let report = st.metrics_report(algo, threads);
            report.reconcile().map_err(|e| {
                format!(
                    "{join}/{algo} threads={threads} channels={channels}: \
                     reconciliation failed: {e}"
                )
            })?;
            let io = st.io_total();
            rows.push(Row {
                join,
                algo,
                threads,
                channels,
                results: st.results(),
                duplicates: st.duplicates(),
                candidates: st.candidates().unwrap_or(0),
                tests: st.tests(),
                pages_read: io.pages_read,
                pages_written: io.pages_written,
                total_s: st.total_seconds(),
                first_result_s: st.first_result_seconds().unwrap_or(-1.0),
            });
        }
        // Thread-count invariance of the deterministic meters is part of
        // the gate: if 1 and 4 workers disagree, the accounting regressed.
        let (a, b) = (&rows[rows.len() - 2], &rows[rows.len() - 1]);
        if a.meters() != b.meters() || a.total_s != b.total_s || a.first_result_s != b.first_result_s
        {
            return Err(format!(
                "{join}/{algo} channels={channels}: deterministic meters differ \
                 between threads=1 and threads=4"
            ));
        }
    }
    // The multi-channel contract: channels are pure time model (identical
    // meters), and four channels must buy strict simulated time — this is
    // the PR 6 tentpole, enforced on every point, every produce.
    let (c1, c4) = (&rows[0], &rows[2]);
    if c1.meters() != c4.meters() {
        return Err(format!(
            "{join}/{algo}: deterministic meters differ between channels=1 and channels=4"
        ));
    }
    if c4.total_s >= c1.total_s {
        return Err(format!(
            "{join}/{algo}: channels=4 not strictly faster: {} vs {}",
            c4.total_s, c1.total_s
        ));
    }
    Ok(rows)
}

fn produce() -> Result<(String, Vec<Row>), String> {
    let mut rows = Vec::new();
    for p in 1..=4u32 {
        let (r, s) = join_inputs(p);
        let join: &'static str = ["J1", "J2", "J3", "J4"][(p - 1) as usize];
        eprintln!("regress: {join} ({} x {})", r.len(), s.len());
        // Tighter than the paper's usual budgets so both algorithms are
        // forced through their external-partitioning paths — an in-memory
        // run has all-zero I/O meters and guards nothing.
        let mem = paper_mem(2.0);
        rows.extend(run_point(join, "pbsm", &Algorithm::pbsm_rpm(mem), &r, &s)?);
        rows.extend(run_point(join, "s3j", &Algorithm::s3j_replicated(mem), &r, &s)?);
    }
    let cal = cal_st();
    eprintln!("regress: J5 (CAL_ST self join, {})", cal.len());
    let mem = paper_mem(8.0);
    rows.extend(run_point("J5", "pbsm", &Algorithm::pbsm_rpm(mem), cal, cal)?);
    rows.extend(run_point("J5", "s3j", &Algorithm::s3j_replicated(mem), cal, cal)?);

    // PR 10's tentpole gate: on the skewed and high-selectivity workloads
    // the two-layer class scheme must beat PBSM+RPM on the deterministic
    // simulated total (I/O plus `tests` priced) — same
    // partitioning I/O, so the win has to come from the skipped
    // intersection and duplicate tests.
    for (join, (r, s)) in [("SKEW", skew_inputs()), ("HISEL", hisel_inputs())] {
        eprintln!("regress: {join} ({} x {})", r.len(), s.len());
        // Tight enough that the inputs always exceed the budget (both sides
        // scale with SJ_SCALE exactly like the budget does), forcing the
        // external-partitioning path whose I/O the channel gate needs.
        let mem = paper_mem(0.5);
        let pbsm_rows = run_point(join, "pbsm", &Algorithm::pbsm_rpm(mem), &r, &s)?;
        let two_rows = run_point(join, "twolayer", &Algorithm::two_layer(mem), &r, &s)?;
        let (p, t) = (&pbsm_rows[0], &two_rows[0]);
        if t.results != p.results {
            return Err(format!(
                "{join}: twolayer results {} != pbsm results {}",
                t.results, p.results
            ));
        }
        if t.sim_total() >= p.sim_total() {
            return Err(format!(
                "{join}: twolayer not faster: sim_total {:.6}s (tests {}) vs \
                 pbsm {:.6}s (tests {})",
                t.sim_total(),
                t.tests,
                p.sim_total(),
                p.tests
            ));
        }
        eprintln!(
            "regress: {join}: twolayer beats pbsm: {:.6}s vs {:.6}s \
             ({} vs {} tests)",
            t.sim_total(),
            p.sim_total(),
            t.tests,
            p.tests
        );
        rows.extend(pbsm_rows);
        rows.extend(two_rows);
    }

    let meta = Json::obj([
        ("bench", "regress".into()),
        ("schema_version", SCHEMA_VERSION.into()),
        ("scale", scale().into()),
        ("time_tolerance", TIME_TOLERANCE.into()),
    ]);
    let mut out = format!("{}\n", Json::obj([("meta", meta)]));
    for row in &rows {
        let _ = writeln!(out, "{}", row.json());
    }
    Ok((out, rows))
}

/// Diffs the freshly produced rows against a baseline file. Returns the
/// list of human-readable failures (empty = gate passes).
fn check(baseline: &str, rows: &[Row]) -> Result<Vec<String>, String> {
    let (meta, base_rows) = bench::parse_report(baseline)?;
    let base_schema = meta
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("baseline meta line has no schema_version")?;
    if base_schema != u64::from(SCHEMA_VERSION) {
        return Err(format!(
            "baseline schema_version {base_schema} != {SCHEMA_VERSION}; re-bless the baseline"
        ));
    }
    let base_scale = meta
        .get("scale")
        .and_then(Json::as_f64)
        .ok_or("baseline meta line has no scale")?;
    if base_scale != scale() {
        return Err(format!(
            "baseline was recorded at SJ_SCALE={base_scale}, this run is at {}; \
             refusing a cross-scale comparison — rerun with SJ_SCALE={base_scale}",
            scale()
        ));
    }

    let mut failures = Vec::new();
    let mut matched = 0usize;
    for line in &base_rows {
        let text = |name: &str| line.get(name).and_then(Json::as_str).unwrap_or("");
        let count = |name: &str| line.get(name).and_then(Json::as_u64);
        let seconds = |name: &str| line.get(name).and_then(Json::as_f64);
        let key = (
            text("join"),
            text("algo"),
            count("threads").unwrap_or(0),
            count("channels").unwrap_or(0),
        );
        let Some(row) = rows.iter().find(|r| {
            (r.join, r.algo, r.threads as u64, r.channels as u64) == (key.0, key.1, key.2, key.3)
        }) else {
            failures.push(format!("baseline row {key:?} missing from this run"));
            continue;
        };
        matched += 1;
        let ctx = format!(
            "{}/{} threads={} channels={}",
            row.join, row.algo, row.threads, row.channels
        );
        for (name, base, got) in [
            ("results", count("results"), row.results),
            ("duplicates", count("duplicates"), row.duplicates),
            ("candidates", count("candidates"), row.candidates),
            ("tests", count("tests"), row.tests),
            ("pages_read", count("pages_read"), row.pages_read),
            ("pages_written", count("pages_written"), row.pages_written),
        ] {
            match base {
                Some(b) if b == got => {}
                Some(b) => failures.push(format!("{ctx}: {name} {got} != baseline {b}")),
                None => failures.push(format!("{ctx}: baseline row lacks {name}")),
            }
        }
        for (name, base, got) in [
            ("total_s", seconds("total_s"), row.total_s),
            ("first_result_s", seconds("first_result_s"), row.first_result_s),
        ] {
            match base {
                Some(b) => {
                    let drift = (got - b).abs() / b.abs().max(1e-12);
                    if drift > TIME_TOLERANCE {
                        failures.push(format!(
                            "{ctx}: {name} {got:.6} drifts {:.1}% from baseline {b:.6} \
                             (tolerance {:.0}%)",
                            drift * 100.0,
                            TIME_TOLERANCE * 100.0
                        ));
                    }
                }
                None => failures.push(format!("{ctx}: baseline row lacks {name}")),
            }
        }
    }
    if matched != rows.len() {
        failures.push(format!(
            "run produced {} rows, baseline covers {matched}; re-bless the baseline",
            rows.len()
        ));
    }
    Ok(failures)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut check_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check_path = args.next(),
            "--out" => out_path = args.next(),
            "--help" => {
                eprintln!(
                    "usage: regress [--check <baseline.json>] [--out <report.json>]\n\
                     Honors SJ_SCALE; a --check baseline must match the current scale."
                );
                return ExitCode::from(0);
            }
            other => {
                eprintln!("regress: unknown flag {other} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let (report, rows) = match produce() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("regress: FAIL: {e}");
            return ExitCode::from(1);
        }
    };
    print!("{report}");
    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("regress: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("regress: report written to {path}");
    }

    if let Some(path) = &check_path {
        let baseline = match std::fs::read_to_string(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("regress: cannot read baseline {path}: {e}");
                return ExitCode::from(2);
            }
        };
        match check(&baseline, &rows) {
            Ok(failures) if failures.is_empty() => {
                eprintln!("regress: PASS — {} rows within tolerance of {path}", rows.len());
            }
            Ok(failures) => {
                for f in &failures {
                    eprintln!("regress: FAIL: {f}");
                }
                return ExitCode::from(1);
            }
            Err(e) => {
                eprintln!("regress: {e}");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::from(0)
}
