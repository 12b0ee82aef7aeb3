//! `sjbench` — the host-clock benchmark of the spatial-join suite.
//!
//! ```text
//! sjbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! sjbench compare A B
//! ```
//!
//! Run from the root of the repository: a traced run writes its spans under
//! `benchmark/traces/`. A run prints a `detail` line and then, last, the
//! result line. Times named
//! `*_ms`/`*_s` are host wall-clock; the simulated 1999 clock is only ever
//! reported under `sim`.

mod compare;
mod metrics;
mod probes;
mod run;
mod serve;
mod sink;
mod stats;
mod trace;
mod workload;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use workload::Kind;

const USAGE: &str =
    "usage: sjbench --workload lowsel|hisel|bigself|serve [--seed N] [--seconds S] \
[--trace 0|1] [--out FILE]\n       sjbench compare A B";

/// `register` carries the seed as a JSON number; beyond 2^53 the server
/// would see another seed than the reference join.
const SEED_MASK: u64 = (1 << 53) - 1;

/// Where a traced run writes its span file, relative to the repository root.
const TRACE_DIR: &str = "benchmark/traces";

struct Args {
    cfg: run::Config,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 2026u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse::<u64>().map_err(|_| bad())? & SEED_MASK,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        cfg: run::Config {
            kind: kind.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            setups: 3,
            scale: 1.0,
            max_rounds: None,
        },
        out,
    })
}

fn run_workload(args: &Args) -> Result<bool, String> {
    let cfg = &args.cfg;
    let outcome = run::run(cfg)?;
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    if let Some(trace) = &outcome.trace {
        std::fs::create_dir_all(TRACE_DIR).map_err(|e| io("trace dir", e))?;
        let path =
            PathBuf::from(TRACE_DIR).join(format!("{}-seed{}.jsonl", cfg.kind.name(), cfg.seed));
        let file = std::fs::File::create(&path).map_err(|e| io("span file", e))?;
        trace
            .write_jsonl(std::io::BufWriter::new(file))
            .map_err(|e| io("span file", e))?;
        eprintln!(
            "sjbench: {} spans written to {}",
            trace.spans().len(),
            path.display()
        );
    }
    if let Some(path) = &args.out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| io("result dir", e))?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io("result file", e))?;
        writeln!(
            file,
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"result\":{}}}",
            cfg.kind.name(),
            cfg.seed,
            u8::from(cfg.trace),
            outcome.result
        )
        .map_err(|e| io("result file", e))?;
    }
    println!("{}", outcome.detail);
    println!("{}", outcome.result);
    Ok(outcome
        .result
        .get("correct")
        .and_then(sjoind::Json::as_bool)
        == Some(true))
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::Runs::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed) = compare::compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.as_slice() {
        [cmd, a, b] if cmd == "compare" => run_compare(a, b),
        _ => parse(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|args| run_workload(&args)),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        // A wrong run or a regression: the output stands, the code says so.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sjbench: {e}");
            ExitCode::from(2)
        }
    }
}
