//! `sjoin` — command-line spatial join runner.
//!
//! ```text
//! sjoin [--left la_rr|la_st|cal_st|uniform|clustered]
//!       [--right la_rr|la_st|cal_st|uniform|clustered|self]
//!       [--algo pbsm|pbsm-trie|pbsm-sort|twolayer|s3j|s3j-orig|sssj|shj|quadtree]
//!       [--mem-mb <f64>] [--scale <f64>] [--p <f64>] [--seed <u64>]
//!       [--threads <n>] [--channels <d>] [--limit <n>] [--refine]
//!       [--distance <eps>] [--raster-filter] [--stats]
//!       [--faults <seed>] [--fault-rate <p>] [--retry <n>] [--deadline <s>]
//!       [--persistent-rate <p>] [--disk-budget <pages>]
//!       [--degraded-channel <c:factor>]
//!       [--durable] [--crash <spec>] [--run-dir <dir>] [--resume <id>]
//!       [--metrics-json <path>] [--trace <path>]
//!       [--plan off|auto|explain] [--plan-coeffs <path>]
//! sjoin scrub [--run-dir <dir>]
//! ```
//!
//! Examples:
//!
//! ```text
//! sjoin --scale 0.05                          # LA_RR ⋈ LA_ST with PBSM-RPM
//! sjoin --algo s3j --mem-mb 2.5 --p 3         # S3J on LA_RR(3) ⋈ LA_ST(3)
//! sjoin --left cal_st --right self --stats    # J5 with phase breakdown
//! sjoin --refine --limit 5                    # exact road crossings
//! sjoin --channels 4 --threads 4 --stats      # 4 I/O channels: overlapped I/O
//! sjoin --faults 7 --metrics-json m.json      # reconciled metrics under faults
//! sjoin --durable --crash after-commit:2      # die mid-run, then --resume 42
//! sjoin --plan auto --mem-mb 2                # planner picks the algorithm
//! sjoin --plan explain                        # ranked candidate table, then run
//! ```
//!
//! Exit codes: 0 success, 1 join error, 2 usage error, 3 resumable
//! interruption of a durable run (crash point, deadline, cancellation) —
//! `--limit` lists what that leg emitted, the `--resume` leg lists the rest.
//! A reader that closes the pipe early (`sjoin … | head`) ends the run
//! with 0: it has what it asked for.

use std::io::Write;

use spatialjoin::estimate::planner::edit_distance;
use spatialjoin::estimate::{Coefficients, DatasetProfile, PlanMode, Planner};
use spatialjoin::sfc::Curve;
use spatialjoin::{
    datagen, refine, Algorithm, CrashPoint, DiskModel, FaultPlan, JoinError, JoinRun, JoinStats,
    Kpe, RecordId, Recorder, RetryPolicy, SimDisk, SpatialJoin,
};
use storage::Json;

thread_local! {
    /// `sjoin`'s stdout — it prints from the main thread only — locked once
    /// and buffered, so a `--limit 100000` listing is not a syscall per pair.
    static STDOUT: std::cell::RefCell<std::io::BufWriter<std::io::StdoutLock<'static>>> =
        std::cell::RefCell::new(std::io::BufWriter::new(std::io::stdout().lock()));
}

/// Runs `f` on stdout. A reader that went away is not an error — `println!`
/// would panic with a backtrace after the useful output — so the run ends
/// quietly; any other write error is fatal.
fn with_stdout(f: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) {
    match STDOUT.with(|out| f(&mut *out.borrow_mut())) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

macro_rules! outln {
    ($($arg:tt)*) => { with_stdout(|out| writeln!(out, $($arg)*)) };
}

macro_rules! out {
    ($($arg:tt)*) => { with_stdout(|out| write!(out, $($arg)*)) };
}

/// `eprintln!` after what stdout still buffers, so the two streams keep
/// their order on a shared terminal or `2>&1`.
macro_rules! errln {
    ($($arg:tt)*) => {{
        with_stdout(|out| out.flush());
        eprintln!($($arg)*)
    }};
}

/// Flushes stdout, then exits: `process::exit` runs no destructors, so what
/// is still buffered would be lost.
fn exit(code: i32) -> ! {
    with_stdout(|out| out.flush());
    std::process::exit(code)
}

struct Args {
    left: String,
    right: String,
    algo: String,
    mem_mb: f64,
    scale: f64,
    p: f64,
    seed: u64,
    threads: usize,
    channels: usize,
    limit: usize,
    refine: bool,
    distance: Option<f64>,
    raster_filter: bool,
    stats: bool,
    faults: Option<u64>,
    fault_rate: Option<f64>,
    persistent_rate: Option<f64>,
    disk_budget: Option<u64>,
    degraded_channel: Option<(usize, f64)>,
    retry: Option<u32>,
    deadline: Option<f64>,
    crash: Option<CrashPoint>,
    durable: bool,
    run_dir: String,
    resume: Option<u64>,
    metrics_json: Option<String>,
    trace: Option<String>,
    plan: PlanMode,
    plan_coeffs: Option<String>,
}

/// Every flag the parser accepts, kept next to the `match` below so the
/// usage test can diff it against `HELP` — the drift this guards against is
/// exactly what PR 5 had to fix.
const VALID_FLAGS: &[&str] = &[
    "--left",
    "--right",
    "--algo",
    "--mem-mb",
    "--scale",
    "--p",
    "--seed",
    "--threads",
    "--channels",
    "--limit",
    "--refine",
    "--distance",
    "--raster-filter",
    "--stats",
    "--faults",
    "--fault-rate",
    "--persistent-rate",
    "--disk-budget",
    "--degraded-channel",
    "--retry",
    "--deadline",
    "--crash",
    "--durable",
    "--run-dir",
    "--resume",
    "--metrics-json",
    "--trace",
    "--plan",
    "--plan-coeffs",
    "--help",
];

/// The closest valid flag within a small edit radius, if any.
fn nearest_flag(unknown: &str) -> Option<&'static str> {
    VALID_FLAGS
        .iter()
        .map(|&f| (edit_distance(unknown, f), f))
        .min()
        .filter(|&(d, _)| d <= 3)
        .map(|(_, f)| f)
}

impl Default for Args {
    fn default() -> Args {
        Args {
            left: "la_rr".into(),
            right: "la_st".into(),
            algo: "pbsm".into(),
            mem_mb: 5.0,
            scale: 0.05,
            p: 1.0,
            seed: 42,
            threads: 1,
            channels: 1,
            limit: 0,
            refine: false,
            distance: None,
            raster_filter: false,
            stats: false,
            faults: None,
            fault_rate: None,
            persistent_rate: None,
            disk_budget: None,
            degraded_channel: None,
            retry: None,
            deadline: None,
            crash: None,
            durable: false,
            run_dir: "runs".into(),
            resume: None,
            metrics_json: None,
            trace: None,
            plan: PlanMode::Off,
            plan_coeffs: None,
        }
    }
}

impl Args {
    /// The id a durable run is checkpointed — and its snapshot kept — under.
    fn run_id(&self) -> u64 {
        self.resume.unwrap_or(self.seed)
    }

    fn parse() -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = |name: &str| -> Result<String, String> {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--left" => args.left = val("--left")?,
                "--right" => args.right = val("--right")?,
                "--algo" => args.algo = val("--algo")?,
                "--mem-mb" => args.mem_mb = parse_num(&val("--mem-mb")?)?,
                "--scale" => args.scale = parse_num(&val("--scale")?)?,
                "--p" => args.p = parse_num(&val("--p")?)?,
                "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--threads" => {
                    args.threads =
                        val("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?
                }
                "--channels" => {
                    args.channels =
                        val("--channels")?.parse().map_err(|e| format!("--channels: {e}"))?;
                    if args.channels == 0 {
                        return Err("--channels: need at least one I/O channel".into());
                    }
                }
                "--limit" => args.limit = val("--limit")?.parse().map_err(|e| format!("--limit: {e}"))?,
                "--refine" => args.refine = true,
                "--distance" => args.distance = Some(parse_num(&val("--distance")?)?),
                "--raster-filter" => {
                    args.raster_filter = true;
                    args.refine = true; // a pre-filter for the refinement step
                }
                "--stats" => args.stats = true,
                "--faults" => {
                    args.faults =
                        Some(val("--faults")?.parse().map_err(|e| format!("--faults: {e}"))?)
                }
                "--fault-rate" => args.fault_rate = Some(parse_num(&val("--fault-rate")?)?),
                "--persistent-rate" => {
                    args.persistent_rate = Some(parse_num(&val("--persistent-rate")?)?)
                }
                "--disk-budget" => {
                    args.disk_budget = Some(
                        val("--disk-budget")?
                            .parse()
                            .map_err(|e| format!("--disk-budget: {e}"))?,
                    )
                }
                "--degraded-channel" => {
                    args.degraded_channel = Some(parse_degraded_channel(&val("--degraded-channel")?)?)
                }
                "--retry" => {
                    args.retry =
                        Some(val("--retry")?.parse().map_err(|e| format!("--retry: {e}"))?)
                }
                "--deadline" => args.deadline = Some(parse_num(&val("--deadline")?)?),
                "--crash" => {
                    let spec = val("--crash")?;
                    args.crash = Some(CrashPoint::from_spec(&spec).ok_or_else(|| {
                        format!(
                            "--crash: bad spec {spec} \
                             (after-commit:N | mid-partition:N | mid-rename)"
                        )
                    })?)
                }
                "--durable" => args.durable = true,
                "--run-dir" => args.run_dir = val("--run-dir")?,
                "--resume" => {
                    args.resume =
                        Some(val("--resume")?.parse().map_err(|e| format!("--resume: {e}"))?)
                }
                "--metrics-json" => args.metrics_json = Some(val("--metrics-json")?),
                "--trace" => args.trace = Some(val("--trace")?),
                "--plan" => args.plan = PlanMode::parse(&val("--plan")?).map_err(|e| format!("--plan: {e}"))?,
                "--plan-coeffs" => args.plan_coeffs = Some(val("--plan-coeffs")?),
                "--help" | "-h" => {
                    outln!("{}", HELP);
                    exit(0);
                }
                other => {
                    return Err(match nearest_flag(other) {
                        Some(near) => {
                            format!("unknown flag {other} (did you mean {near}? try --help)")
                        }
                        None => format!("unknown flag {other} (try --help)"),
                    })
                }
            }
        }
        Ok(args)
    }
}

const HELP: &str = "sjoin - index-free spatial joins (Dittrich & Seeger, ICDE 2000)
  --left/--right  la_rr | la_st | cal_st | uniform | clustered | self (right only)
  --algo          pbsm | pbsm-trie | pbsm-sort | twolayer | s3j | s3j-orig |
                  sssj | shj | quadtree
  --mem-mb N      memory budget in MiB, at least one page (default 5)
  --scale F       dataset scale, 1.0 = paper size       (default 0.05)
  --p F           grow MBR edges by factor p            (default 1)
  --seed N        dataset seed                          (default 42)
  --threads N     worker threads for the join phase, 0 = all cores (default 1)
  --channels D    independent simulated I/O channels (default 1); partition and
                  level files overlap across channels, shared files (manifest,
                  journal, results) stay serial — results are identical, only
                  the simulated clock improves
  --limit N       print the first N result pairs
  --refine        verify candidates against exact segment geometry
  --distance EPS  eps-distance join instead of intersection (implies --refine)
  --raster-filter raster-interval pre-filter for the refinement step (implies
                  --refine): certain accepts/rejects skip the exact geometry
                  test; results are bit-identical, counters show the savings
  --stats         print the phase breakdown
  --faults SEED   inject seeded deterministic disk faults
  --fault-rate P  fraction of request identities that fail  (default 0.05)
  --persistent-rate P  fraction of (channel, page) sectors with persistent
                  media damage: re-reads always fail, so the join must
                  quarantine and recompute the affected partition/level files
                  (exit 0 with a `degraded` line) or surface a typed error
  --disk-budget N cap the simulated volume at N pages; writes past it fail
                  with disk-full and trigger the typed fallback ladder
  --degraded-channel C:F  multiply data channel C's transfer time by F
                  (results unchanged; only the simulated clock degrades)
  --retry N       attempts per page request, incl. the first (default 4)
  --deadline S    simulated-time deadline in seconds; expiry exits 3 (resumable
                  when the run is durable)
  --durable       checkpoint the run (manifest + journal); an interruption
                  lists the pairs emitted so far (under --limit) and leaves
                  a resumable state snapshot under --run-dir
  --crash SPEC    durable run that dies at a crash point:
                  after-commit:N | mid-partition:N | mid-rename
  --run-dir DIR   where interrupted durable runs keep state.bin (default runs)
  --resume ID     resume an interrupted durable run (pass the SAME dataset,
                  algorithm and memory flags; threads may differ): counters
                  are the whole run's, the listing is the pairs the
                  interrupted leg did not list
  --metrics-json P  write the reconciled metrics report (versioned JSON) to P;
                  refuses to write numbers that do not sum to the run totals
  --trace P       write the phase-span/partition-event trace (simulated-time
                  JSON) to P
  --plan MODE     off (default) runs --algo as given; auto lets the cost-based
                  planner pick the algorithm, tiles, sweep and buffer split for
                  the memory budget; explain also prints the ranked candidate
                  table (predicted vs chosen) before running the winner
  --plan-coeffs P fitted correction coefficients for the planner's cost model
                  (default planner-coeffs.json if present; refit with
                  `cargo run -p bench --bin planner-eval -- --fit BENCH_pr10.json`)

  sjoin scrub [--run-dir DIR]   offline integrity walk over the interrupted
                  durable runs under DIR (default runs): validates each
                  state.bin snapshot and prints a machine-readable JSON
                  summary; exit 0 when every snapshot is sound, 1 otherwise";

fn parse_num(v: &str) -> Result<f64, String> {
    v.parse().map_err(|e| format!("bad number {v}: {e}"))
}

/// Parses a `--degraded-channel` spec: `CHANNEL:FACTOR`, factor ≥ 1.
fn parse_degraded_channel(spec: &str) -> Result<(usize, f64), String> {
    let err = || format!("--degraded-channel: bad spec {spec} (want CHANNEL:FACTOR, e.g. 0:4)");
    let (c, f) = spec.split_once(':').ok_or_else(err)?;
    let channel: usize = c.parse().map_err(|_| err())?;
    let factor: f64 = f.parse().map_err(|_| err())?;
    if !factor.is_finite() || factor < 1.0 {
        return Err(format!("--degraded-channel: factor must be >= 1, got {factor}"));
    }
    Ok((channel, factor))
}

/// Assembles the fault plan from the injection flags, or `None` when no
/// fault flag was given. `--faults SEED` supplies the transient plan; the
/// persistent taxa (`--persistent-rate`, `--disk-budget`,
/// `--degraded-channel`) and the `--crash` point (the checkpoint layer arms
/// crash injection from the disk's own plan) compose onto it, or onto an
/// otherwise-clean plan keyed on the dataset seed when `--faults` is absent.
fn fault_plan(args: &Args) -> Option<FaultPlan> {
    let taxa = args.persistent_rate.is_some()
        || args.disk_budget.is_some()
        || args.degraded_channel.is_some()
        || args.crash.is_some();
    if args.faults.is_none() && !taxa {
        return None;
    }
    let mut plan = match args.faults {
        Some(seed) => FaultPlan::recoverable(seed),
        None => FaultPlan::none(args.seed),
    };
    if let Some(rate) = args.fault_rate {
        plan.fault_rate = rate.clamp(0.0, 1.0);
    }
    if let Some(rate) = args.persistent_rate {
        plan = plan.with_persistent_rate(rate.clamp(0.0, 1.0));
    }
    if let Some(pages) = args.disk_budget {
        plan = plan.with_disk_budget(pages);
    }
    if let Some((channel, factor)) = args.degraded_channel {
        plan = plan.with_degraded_channel(channel, factor);
    }
    plan.crash = args.crash;
    Some(plan)
}

/// Quarantine and fallback events that let the run finish *exactly* despite
/// persistent media damage. Printed unconditionally (not only under
/// `--stats`): the join exits 0 because the result is correct, but an
/// operator should know the media is rotting under it.
fn degraded_line(stats: &JoinStats) -> Option<String> {
    let mut parts = Vec::new();
    match stats {
        JoinStats::Pbsm(s) => {
            if s.quarantined_partitions > 0 {
                parts.push(format!(
                    "{} partition file(s) quarantined and recomputed from source",
                    s.quarantined_partitions
                ));
            }
            if s.enospc_fallbacks > 0 {
                parts.push(format!("{} disk-full fallback(s)", s.enospc_fallbacks));
            }
        }
        JoinStats::S3j(s) => {
            if s.quarantined_levels > 0 {
                parts.push(format!(
                    "{} level file(s) quarantined and recomputed from source",
                    s.quarantined_levels
                ));
            }
        }
        JoinStats::Sssj(_) | JoinStats::Shj(_) | JoinStats::Quadtree(_) => {}
    }
    if parts.is_empty() {
        None
    } else {
        Some(parts.join(", "))
    }
}

fn print_phase_stats(stats: &JoinStats) {
    match stats {
        JoinStats::Pbsm(s) => {
            outln!("  partitions       : {} (grid {}x{})", s.partitions, s.grid.gx, s.grid.gy);
            outln!(
                "  replication      : {} copies written (+{} while repartitioning)",
                s.copies_r + s.copies_s,
                s.repart_copies
            );
            outln!("  repartitioned    : {} pairs", s.repartitioned_pairs);
            if s.degraded_partitions + s.requeued_partitions > 0 {
                outln!(
                    "  fault recovery   : {} partitions degraded, {} requeued",
                    s.degraded_partitions, s.requeued_partitions
                );
            }
            outln!("  candidates       : {}", s.candidates);
            outln!("  duplicates       : {}", s.duplicates);
            outln!("  intersection tests: {}", s.join_counters.tests);
        }
        JoinStats::S3j(s) => {
            outln!(
                "  level copies     : {} / {} (r/s), {} levels occupied",
                s.copies_r,
                s.copies_s,
                s.histogram_r.iter().filter(|&&n| n > 0).count()
            );
            outln!("  sort runs        : {}", s.sort_runs);
            outln!("  candidates       : {}", s.candidates);
            outln!("  duplicates       : {}", s.duplicates);
            outln!("  intersection tests: {}", s.join_counters.tests);
        }
        JoinStats::Sssj(s) => {
            outln!("  sort runs        : {} + {}", s.sort_r.runs, s.sort_s.runs);
            outln!("  peak sweep status: {} rects", s.peak_status);
            outln!("  intersection tests: {}", s.join_counters.tests);
        }
        JoinStats::Shj(s) => {
            outln!("  buckets          : {}", s.buckets);
            outln!(
                "  probe copies     : {} ({} filtered out)",
                s.probe_copies, s.probe_filtered
            );
            outln!("  overflowed pairs : {}", s.overflowed_pairs);
            outln!("  intersection tests: {}", s.join_counters.tests);
        }
        JoinStats::Quadtree(s) => {
            outln!("  tree nodes       : {} + {} (r/s)", s.nodes_r, s.nodes_s);
            outln!("  intersection tests: {}", s.tests);
        }
    }
}

/// Writes the `--metrics-json` and `--trace` artifacts. The metrics
/// exporter *refuses to write* a report that fails reconciliation — a
/// mismatch means the accounting is broken, and a broken number on disk is
/// worse than no number (exit 1, like any other join failure).
fn export_observability(
    args: &Args,
    stats: &JoinStats,
    algo_name: &str,
    recorder: Option<&Recorder>,
) {
    if let Some(path) = &args.metrics_json {
        let report = stats.metrics_report(algo_name, args.threads);
        if let Err(e) = report.reconcile() {
            errln!("error: refusing to write {path}: {e}");
            exit(1);
        }
        std::fs::write(path, report.to_json())
            .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
        outln!("metrics written  : {path}");
    }
    if let (Some(path), Some(rec)) = (&args.trace, recorder) {
        std::fs::write(path, rec.to_json())
            .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
        outln!("trace written    : {path}");
    }
}

/// Per-phase retry/fault breakdown plus the total. The phase buckets are
/// disjoint (each request, retries included, is charged to exactly one
/// phase), so the total line is their sum — no retry is counted twice.
fn print_fault_stats(stats: &JoinStats) {
    let io = stats.io_total();
    if io.faults_injected == 0 {
        return;
    }
    let line = |phase: &str, s: &spatialjoin::IoStats| {
        outln!(
            "  faults [{phase:<10}]: {} ({} read retries, {} write retries, {} backoff units)",
            s.faults_injected, s.read_retries, s.write_retries, s.backoff_units
        );
    };
    for p in stats.phases() {
        if p.io.faults_injected > 0 {
            line(p.name, &p.io);
        }
    }
    line("total", &io);
}

/// `sjoin scrub [--run-dir DIR]`: offline integrity walk over interrupted
/// durable runs. Each `<DIR>/<id>/state.bin` snapshot is restored onto a
/// scratch simulated disk, which validates the container end to end
/// (magic, version, per-file framing, trailing bytes). Prints one JSON
/// summary line; exits 0 when every snapshot is sound, 1 otherwise.
fn run_scrub(rest: Vec<String>) -> ! {
    let mut run_dir = "runs".to_string();
    let mut it = rest.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--run-dir" => match it.next() {
                Some(v) => run_dir = v,
                None => die::<()>("--run-dir needs a value".into()),
            },
            other => die::<()>(format!("scrub: unknown flag {other} (scrub takes --run-dir only)")),
        }
    }
    let (summary, sound) = scrub_summary(std::path::Path::new(&run_dir));
    outln!("{summary}");
    exit(i32::from(!sound));
}

/// The machine-readable scrub report and whether every snapshot was sound.
/// A run directory without a readable `state.bin` counts as corrupt: an
/// interrupted run that lost its snapshot cannot be resumed.
fn scrub_summary(dir: &std::path::Path) -> (String, bool) {
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect()
        })
        .unwrap_or_default();
    entries.sort();
    let mut runs: Vec<Json> = Vec::new();
    let (mut ok, mut corrupt) = (0usize, 0usize);
    for path in entries {
        let id = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut run = vec![("id", Json::from(id))];
        match std::fs::read(path.join("state.bin")) {
            Err(_) => {
                corrupt += 1;
                run.push(("status", "missing-state".into()));
            }
            Ok(bytes) => {
                let disk = SimDisk::with_default_model();
                match disk.restore_files(&bytes) {
                    Ok(()) => {
                        ok += 1;
                        let files = disk.file_ids();
                        let spares = files.iter().filter(|&&f| disk.is_spare(f)).count();
                        run.extend([
                            ("status", "ok".into()),
                            ("bytes", bytes.len().into()),
                            ("files", files.len().into()),
                            ("pages", disk.pages_in_use().into()),
                            ("spare_files", spares.into()),
                        ]);
                    }
                    Err(e) => {
                        corrupt += 1;
                        run.extend([
                            ("status", "corrupt".into()),
                            ("bytes", bytes.len().into()),
                            ("error", e.kind.describe().into()),
                        ]);
                    }
                }
            }
        }
        runs.push(Json::obj(run));
    }
    let summary = Json::obj([
        ("run_dir", dir.display().to_string().into()),
        ("scanned", runs.len().into()),
        ("ok", ok.into()),
        ("corrupt", corrupt.into()),
        ("runs", Json::Arr(runs)),
    ])
    .to_string();
    (summary, corrupt == 0)
}

fn state_path(args: &Args) -> std::path::PathBuf {
    std::path::Path::new(&args.run_dir)
        .join(args.run_id().to_string())
        .join("state.bin")
}

/// One leg of a durable (checkpointed) join on the join's own disk: fresh,
/// or resumed from the state snapshot under `--run-dir`. The pairs it
/// emitted come back beside the outcome — from an interrupted leg too: no
/// resume re-emits a committed partition. A resumable interruption (crash
/// point, deadline, cancellation) persists the disk image first.
fn durable_leg(
    args: &Args,
    join: &SpatialJoin,
    left: &[Kpe],
    right: &[Kpe],
) -> (Vec<(RecordId, RecordId)>, Result<JoinStats, JoinError>) {
    let state = state_path(args);
    let disk = join.disk();
    if let Some(id) = args.resume {
        let bytes = std::fs::read(&state).unwrap_or_else(|e| {
            die(format!("--resume {id}: cannot read {}: {e}", state.display()))
        });
        disk.restore_files(&bytes)
            .unwrap_or_else(|e| die(format!("--resume {id}: corrupt snapshot: {e}")));
    }
    let mut pairs = Vec::new();
    let res =
        join.try_run_durable_with(&disk, left, right, args.run_id(), &mut |a, b| pairs.push((a, b)));
    if res.as_ref().is_err_and(JoinError::is_resumable) {
        if let Some(dir) = state.parent() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|err| die(format!("cannot create {}: {err}", dir.display())));
        }
        std::fs::write(&state, disk.export_files())
            .unwrap_or_else(|err| die(format!("cannot write {}: {err}", state.display())));
    }
    (pairs, res)
}

/// A durable join to its end, or to a resumable interruption, which lists
/// this leg's pairs and exits 3 with a resume hint.
fn run_durable(args: &Args, join: &SpatialJoin, left: &[Kpe], right: &[Kpe]) -> JoinRun {
    match durable_leg(args, join, left, right) {
        (pairs, Ok(stats)) => JoinRun { pairs, stats },
        (pairs, Err(e)) if e.is_resumable() => {
            for (a, b) in pairs.iter().take(args.limit) {
                outln!("  #{} x #{}", a.0, b.0);
            }
            let run_id = args.run_id();
            errln!("error: {e}");
            errln!(
                "run {run_id} is resumable: state saved to {}; \
                 rerun with the same flags plus --resume {run_id}",
                state_path(args).display()
            );
            exit(3);
        }
        (_, Err(e)) => die_join(e),
    }
}

fn join_of(args: &Args, algo: Algorithm) -> SpatialJoin {
    let mut join = SpatialJoin::new(algo.with_threads(args.threads)).with_disk_model(DiskModel {
        channels: args.channels,
        ..Default::default()
    });
    if let Some(plan) = fault_plan(args) {
        join = join.with_faults(plan);
    }
    if let Some(n) = args.retry {
        join = join.with_retry(RetryPolicy::with_max_attempts(n));
    }
    if let Some(d) = args.deadline {
        join = join.with_deadline(d);
    }
    join
}

fn main() {
    run();
    exit(0);
}

fn run() {
    let mut argv = std::env::args().skip(1);
    if argv.next().as_deref() == Some("scrub") {
        run_scrub(argv.collect());
    }
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            errln!("error: {e}");
            exit(2);
        }
    };
    let mem = spatialjoin::mem_bytes_from_mb(args.mem_mb)
        .unwrap_or_else(|e| die(format!("--mem-mb: {e}")));
    let left = datagen::named(&args.left, args.scale, args.seed).unwrap_or_else(die);
    let right = if args.right == "self" {
        left.clone()
    } else {
        datagen::named(&args.right, args.scale, args.seed ^ 0xFFFF).unwrap_or_else(die)
    };
    let (left, right) = if args.p != 1.0 {
        (
            datagen::scale_dataset(&left, args.p),
            datagen::scale_dataset(&right, args.p),
        )
    } else {
        (left, right)
    };
    let algo = if args.plan == PlanMode::Off {
        Algorithm::from_name(&args.algo, mem).unwrap_or_else(|| {
            die(format!(
                "unknown algorithm {} (expected one of {})",
                args.algo,
                Algorithm::NAMES.join("|")
            ))
        })
    } else {
        // Planner-selected configuration. Durable runs are refused: a
        // resume must replay the *same* configuration, and the planner's
        // pick is a function of the data, not of the manifest.
        if args.durable || args.crash.is_some() || args.resume.is_some() {
            die::<()>(
                "--plan auto|explain and durable runs don't mix; pick --algo explicitly".into(),
            );
        }
        let coeffs_path = args.plan_coeffs.clone().unwrap_or_else(|| "planner-coeffs.json".into());
        let coeffs = Coefficients::load(std::path::Path::new(&coeffs_path)).unwrap_or_else(die);
        let planner = Planner::new(mem)
            .with_disk_model(DiskModel {
                channels: args.channels,
                ..Default::default()
            })
            .with_coefficients(coeffs);
        let plan = planner.plan(
            &DatasetProfile::build(&left.kpes),
            &DatasetProfile::build(&right.kpes),
        );
        if args.plan == PlanMode::Explain {
            out!("{}", plan.render_table());
        }
        let chosen = plan.chosen();
        outln!(
            "plan chosen      : {} (predicted {:.2} s total, {:.0} candidates)",
            chosen.choice.describe(),
            chosen.predicted.total_seconds,
            chosen.predicted.candidates,
        );
        Algorithm::from_choice(&chosen.choice)
    };
    let mut join = join_of(&args, algo);
    let recorder = args.trace.as_ref().map(|_| Recorder::shared());
    if let Some(r) = &recorder {
        join = join.with_recorder(std::sync::Arc::clone(r));
    }
    let durable = args.durable || args.crash.is_some() || args.resume.is_some();
    if durable && (args.refine || args.distance.is_some()) {
        die::<()>("durable runs checkpoint the filter step only; drop --refine/--distance".into());
    }
    outln!(
        "{} ({} MBRs) ⋈ {} ({} MBRs), {} , M = {} MiB",
        args.left,
        left.len(),
        args.right,
        right.len(),
        join.algorithm().name(),
        args.mem_mb
    );

    if args.refine || args.distance.is_some() {
        let (r, s) = (&left.segments, &right.segments);
        let (run, found, sep) = match args.distance {
            Some(eps) => {
                let raster = args.raster_filter.then_some(Curve::Hilbert);
                let run = join.try_within_distance(&left, &right, eps, raster);
                (run, format!("pairs within eps={eps}"), '~')
            }
            None => {
                let run = if args.raster_filter {
                    let raster = refine::RasterFilter::intersect(r, s, Curve::Hilbert);
                    join.try_run_refined(&left.kpes, &right.kpes, raster)
                } else {
                    join.try_run_refined(&left.kpes, &right.kpes, refine::SegmentIntersect { r, s })
                };
                (run, "exact intersections".to_owned(), 'x')
            }
        };
        let run = run.unwrap_or_else(die_join);
        outln!("{found}: {}", run.pairs.len());
        outln!(
            "filter candidates {}, false-positive rate {:.1}%",
            run.refine.candidates,
            100.0 * run.refine.false_positive_rate()
        );
        print_raster_line(&args, &run.refine);
        outln!("filter time {:.2}s simulated", run.filter.total_seconds());
        for (a, b) in run.pairs.iter().take(args.limit) {
            outln!("  #{} {sep} #{}", a.0, b.0);
        }
        export_observability(&args, &run.filter, join.algorithm().name(), recorder.as_deref());
        return;
    }

    let run = if durable {
        run_durable(&args, &join, &left.kpes, &right.kpes)
    } else {
        join.try_run(&left.kpes, &right.kpes).unwrap_or_else(die_join)
    };
    outln!("results          : {}", run.stats.results());
    outln!("duplicates       : {}", run.stats.duplicates());
    outln!("cpu (emulated)   : {:.2} s", run.stats.scaled_cpu_seconds());
    outln!("disk (simulated) : {:.2} s", run.stats.io_seconds());
    if args.channels > 1 {
        outln!(
            "disk (parallel)  : {:.2} s over {} channels, {:.2} s hidden by prefetch",
            run.stats.io_parallel_seconds(),
            args.channels,
            run.stats.prefetch_hidden_seconds()
        );
    }
    outln!("total            : {:.2} s", run.stats.total_seconds());
    if let Some(first) = run.stats.first_result_seconds() {
        outln!("first result at  : {first:.2} s");
    }
    if let Some(degraded) = degraded_line(&run.stats) {
        outln!("degraded         : {degraded}");
    }
    if args.stats {
        print_phase_stats(&run.stats);
        print_fault_stats(&run.stats);
    }
    for (a, b) in run.pairs.iter().take(args.limit) {
        outln!("  #{} x #{}", a.0, b.0);
    }
    if durable {
        // The snapshot goes only once the listing is out: until then it is
        // the one place the pairs of this leg can still be had from.
        with_stdout(|out| out.flush());
        let _ = std::fs::remove_file(state_path(&args));
    }
    export_observability(&args, &run.stats, join.algorithm().name(), recorder.as_deref());
}

/// The raster stage's contribution, printed only when `--raster-filter`
/// is on (it is the only source of nonzero raster counters).
fn print_raster_line(args: &Args, st: &refine::RefineStats) {
    if !args.raster_filter {
        return;
    }
    outln!(
        "raster filter: {} rejected, {} accepted, {} exact tests",
        st.raster_rejects,
        st.raster_accepts,
        st.exact_tests()
    );
}

fn die<T>(e: String) -> T {
    errln!("error: {e}");
    exit(2);
}

fn die_join<T>(e: spatialjoin::JoinError) -> T {
    errln!("error: {e}");
    exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The drift this PR fixed: every flag the parser accepts must be
    /// documented in `--help` (and `VALID_FLAGS` is what the parser's
    /// unknown-flag suggestions draw from, so it must stay complete too).
    #[test]
    fn every_valid_flag_is_documented_in_help() {
        for flag in VALID_FLAGS {
            if *flag == "--help" {
                continue; // --help documents the others, not itself
            }
            assert!(
                HELP.contains(flag),
                "flag {flag} accepted by the parser but missing from HELP"
            );
        }
    }

    #[test]
    fn unknown_flags_suggest_the_nearest_valid_one() {
        assert_eq!(nearest_flag("--thread"), Some("--threads"));
        assert_eq!(nearest_flag("--metrics-jsn"), Some("--metrics-json"));
        assert_eq!(nearest_flag("--fault"), Some("--faults"));
        assert_eq!(nearest_flag("--resumee"), Some("--resume"));
        // Far from everything: no misleading suggestion.
        assert_eq!(nearest_flag("--zzzzzzzzzzzz"), None);
    }

    #[test]
    fn unknown_plan_modes_suggest_the_nearest_valid_one() {
        // `--plan` value errors go through the same nearest-match treatment
        // as unknown flags: a typo'd mode names the intended one.
        assert!(PlanMode::parse("auot").unwrap_err().contains("\"auto\""));
        assert!(PlanMode::parse("explan").unwrap_err().contains("\"explain\""));
        assert!(PlanMode::parse("of").unwrap_err().contains("\"off\""));
        // Far from everything: list the valid modes instead of guessing.
        let err = PlanMode::parse("qwertyuiop").unwrap_err();
        assert!(err.contains("off|auto|explain"), "{err}");
    }

    #[test]
    fn degraded_channel_spec_parses() {
        assert_eq!(parse_degraded_channel("0:4"), Ok((0, 4.0)));
        assert_eq!(parse_degraded_channel("2:1.5"), Ok((2, 1.5)));
        assert!(parse_degraded_channel("nope").is_err());
        assert!(parse_degraded_channel("1:0.5").is_err(), "factor < 1 must be refused");
        assert!(parse_degraded_channel("1:").is_err());
    }

    #[test]
    fn scrub_walks_run_dirs_and_flags_corruption() {
        // Directory and run names that JSON must escape: the summary is read
        // by machines.
        let awkward = "a\"b\\é";
        let base = std::env::temp_dir()
            .join(format!("sjoin-scrub-test-{}", std::process::id()))
            .join(awkward);
        let _ = std::fs::remove_dir_all(&base);
        for id in ["41", "42", awkward] {
            std::fs::create_dir_all(base.join(id)).expect("test dir");
        }
        // 41: a sound snapshot with one spare file.
        let disk = SimDisk::with_default_model();
        let f = disk.create_on(3);
        disk.append(f, &[7u8; 100]);
        let spare = disk.create_spare_like(f);
        disk.append(spare, &[8u8; 10]);
        std::fs::write(base.join("41").join("state.bin"), disk.export_files()).expect("write");
        // 42: a truncated snapshot. The awkward one: no state.bin at all.
        std::fs::write(base.join("42").join("state.bin"), b"SJDKgarbage").expect("write");
        let (summary, sound) = scrub_summary(&base);
        assert!(!sound, "{summary}");
        let doc = Json::parse(&summary).expect("the summary is JSON");
        let count = |key: &str| doc.get(key).and_then(Json::as_u64);
        assert_eq!(doc.get("run_dir").and_then(Json::as_str), base.to_str(), "{summary}");
        assert_eq!((count("scanned"), count("ok"), count("corrupt")), (Some(3), Some(1), Some(2)));
        let runs = doc.get("runs").and_then(Json::as_arr).expect("runs");
        let field = |run: usize, key: &str| runs[run].get(key).cloned();
        assert_eq!(field(0, "spare_files"), Some(Json::Num(1.0)), "{summary}");
        assert_eq!(field(1, "status"), Some("corrupt".into()), "{summary}");
        assert_eq!(field(2, "id"), Some(awkward.into()), "{summary}");
        assert_eq!(field(2, "status"), Some("missing-state".into()), "{summary}");
        // A sound-only dir scrubs clean.
        std::fs::remove_dir_all(base.join("42")).expect("rm");
        std::fs::remove_dir_all(base.join(awkward)).expect("rm");
        let (summary, sound) = scrub_summary(&base);
        assert!(sound, "{summary}");
        std::fs::remove_dir_all(base.parent().expect("the pid directory")).expect("rm");
    }

    /// An interrupted durable run and its resume list every result pair
    /// exactly once between them. The crash leg used to collect into a
    /// buffer it dropped with the error, so its committed partitions were
    /// listed by neither leg: 1,959 of 2,807 pairs at `after-commit:1`,
    /// none at all at `after-commit:3`.
    #[test]
    fn durable_legs_list_every_pair_exactly_once() {
        let base = std::env::temp_dir().join(format!("sjoin-durable-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let args_in = |dir: &str| Args {
            mem_mb: 0.2,
            run_dir: base.join(dir).to_string_lossy().into_owned(),
            ..Args::default()
        };
        let solo = args_in("solo");
        let left = datagen::named(&solo.left, solo.scale, solo.seed).expect("dataset");
        let right = datagen::named(&solo.right, solo.scale, solo.seed ^ 0xFFFF).expect("dataset");
        let algo = || {
            Algorithm::from_name("pbsm", spatialjoin::mem_bytes_from_mb(0.2).expect("budget"))
                .expect("algorithm")
        };
        let sorted = |mut pairs: Vec<(RecordId, RecordId)>| {
            pairs.sort_unstable();
            pairs
        };
        let want = sorted(join_of(&solo, algo()).run(&left.kpes, &right.kpes).pairs);
        assert_eq!(want.len(), 2807);
        for n in [1, 3] {
            let dir = format!("after-commit-{n}");
            let crash = Args { crash: Some(CrashPoint::AfterCommit(n)), ..args_in(&dir) };
            let (first, res) = durable_leg(&crash, &join_of(&crash, algo()), &left.kpes, &right.kpes);
            assert!(res.is_err_and(|e| e.is_resumable()), "after-commit:{n} must fire");
            let resume = Args { resume: Some(crash.seed), ..args_in(&dir) };
            assert!(state_path(&resume).exists(), "the interrupted leg saves its disk");
            let (second, res) =
                durable_leg(&resume, &join_of(&resume, algo()), &left.kpes, &right.kpes);
            assert_eq!(res.expect("resume completes").results(), 2807);
            // The snapshot outlives the leg: `run` removes it after listing.
            assert!(state_path(&resume).exists());
            let (first, second) = (sorted(first), sorted(second));
            assert!(
                first.iter().all(|p| second.binary_search(p).is_err()),
                "after-commit:{n}: a pair listed by both legs"
            );
            assert!(!first.is_empty(), "after-commit:{n}: the crash leg lists what it emitted");
            let union = sorted(first.into_iter().chain(second).collect());
            assert_eq!(union, want, "after-commit:{n}");
        }
        std::fs::remove_dir_all(&base).expect("rm");
    }

    #[test]
    fn edit_distance_is_sane() {
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
