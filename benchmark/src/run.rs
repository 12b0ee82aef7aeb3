//! One benchmark run: set-up, warm-up, the closed-loop rounds, and the
//! end-to-end metrics computed from their samples.

use std::time::{Duration, Instant};

use sjoind::Json;

use crate::metrics::{self, Values};
use crate::probes;
use crate::serve::{Conn, Service};
use crate::sink::PairSum;
use crate::stats;
use crate::trace::Trace;
use crate::workload::{self, Embedded, Inputs, Kind, Sample, OPS};

#[derive(Debug, Clone)]
pub struct Config {
    pub kind: Kind,
    pub seed: u64,
    /// How long the timed rounds run in all, an equal share after each
    /// set-up; a round that has started finishes.
    pub seconds: f64,
    pub trace: bool,
    /// How many times set-up is repeated to report its median.
    pub setups: usize,
    /// 1.0 in every measured run; the smoke test shrinks all inputs by it.
    pub scale: f64,
    /// The smoke test stops after this many rounds per set-up instead of
    /// the clock.
    pub max_rounds: Option<usize>,
}

/// Everything set-up builds and the timed rounds use.
pub struct Env {
    pub kind: Kind,
    pub seed: u64,
    pub scale: f64,
    /// The relations and settings; on `serve`, the twin of what the server
    /// registered, used for the reference and by the probes.
    pub engine: Embedded,
    pub service: Option<Service>,
    pub reference: PairSum,
    /// Simulated I/O seconds of each op type as the warm-up round saw them.
    /// They depend only on inputs and settings, so every later op must
    /// repeat them bit for bit.
    pub sim_io_s: [f64; OPS.len()],
}

impl Env {
    pub fn failed(&self, s: &Sample) -> bool {
        s.error.is_some()
            || s.got != self.reference
            || s.sim_io_s.to_bits() != self.sim_io_s[s.op].to_bits()
    }

    fn teardown(self) -> Result<(), String> {
        match self.service {
            Some(service) => service
                .stop()
                .map_err(|e| format!("server did not stop: {e}")),
            None => Ok(()),
        }
    }
}

/// Everything before the first timed op: datagen, the reference join, on
/// `serve` the server start, `register` and the cache warm, and one
/// warm-up round.
fn setup(cfg: &Config) -> Result<Env, String> {
    let kind = cfg.kind;
    let (inputs, service) = if kind == Kind::Serve {
        let service = Service::start(kind, cfg.seed, cfg.scale)
            .map_err(|e| format!("cannot start the service: {e}"))?;
        (
            Service::registered(kind, cfg.seed, cfg.scale)?,
            Some(service),
        )
    } else {
        (Inputs::generate(kind, cfg.seed, cfg.scale), None)
    };
    let engine = Embedded {
        inputs,
        mem_bytes: kind.mem_bytes(),
        threads: kind.threads(),
    };
    let reference = workload::reference(&engine.inputs, engine.mem_bytes);
    if reference.count == 0 {
        return Err("the reference join is empty; nothing would be verified".into());
    }
    let mut env = Env {
        kind,
        seed: cfg.seed,
        scale: cfg.scale,
        engine,
        service,
        reference,
        sim_io_s: [0.0; OPS.len()],
    };
    if let Some(service) = &env.service {
        // The first `reuse` request misses and stores the snapshot; every
        // `durable` op after it is the cache hit the op type stands for.
        let mut conn = Conn::connect(service.addr).map_err(|e| e.to_string())?;
        let warm = service.warm_cache(&mut conn);
        if warm.error.is_some() || warm.got != env.reference {
            return Err(format!("cache warm failed: {:?}", warm.error));
        }
    }
    let mut warm = Vec::new();
    rounds(&env, &mut warm, Duration::ZERO, Some(1), None);
    for s in &warm {
        env.sim_io_s[s.op] = s.sim_io_s;
    }
    match warm.iter().find(|s| env.failed(s)) {
        Some(bad) => Err(format!(
            "warm-up {} failed: {:?}, {:?} against reference {:?}",
            OPS[bad.op], bad.error, bad.got, env.reference
        )),
        None => Ok(env),
    }
}

/// Appends rounds — one op of each type, in fixed order — to `samples`
/// until `limit` has passed or `max_rounds` are done, and at least one. On
/// `serve` the ops are requests of one closed-loop client on one connection:
/// with the session thread that answers it that is two threads, this box's
/// `nproc`. With a recorder, odd rounds record spans and even rounds do not,
/// so one run yields both sides of the tracing-overhead comparison, and at
/// least two rounds run.
fn rounds(
    env: &Env,
    samples: &mut Vec<Sample>,
    limit: Duration,
    max_rounds: Option<usize>,
    mut trace: Option<&mut Trace>,
) {
    let min_rounds = if trace.is_some() { 2 } else { 1 };
    let t0 = Instant::now();
    let first = rounds_done(samples);
    let mut conn = env.service.as_ref().map(|s| (s, Conn::connect(s.addr)));
    let mut run_op = |op: usize| match &mut conn {
        None => env.engine.run_op(op).0,
        Some((service, Ok(conn))) => conn.join(op, &service.request_line(op, "")),
        Some((_, Err(e))) => refused(op, e),
    };
    let mut round = first;
    while match max_rounds {
        Some(max) => round - first < max,
        None => round - first < min_rounds || t0.elapsed() < limit,
    } {
        for op in 0..OPS.len() {
            let mut s = run_op(op);
            s.round = round;
            if let Some(t) = trace.as_deref_mut().filter(|_| round % 2 == 1) {
                s.traced = true;
                record_op(t, samples.len() as u64 + 1, &s);
            }
            samples.push(s);
        }
        round += 1;
    }
}

/// An op that could not even be sent.
fn refused(op: usize, e: &std::io::Error) -> Sample {
    Sample {
        error: Some(format!("no connection: {e}")),
        ..Sample::started(op, Instant::now())
    }
}

/// Span-name prefix of an op type's phase spans: the layer the phases
/// belong to where a per-layer metric reads them, else the op's own name.
fn phase_prefix(op: usize) -> String {
    match OPS[op] {
        "pbsm" => "pbsm.".to_owned(),
        "twolayer" => "pbsm.twolayer_".to_owned(),
        "s3j" => "s3j.".to_owned(),
        other => format!("{other}."),
    }
}

/// One root span per op with a child per phase clock read back from the
/// program; on `serve` a second root holds send → first line → last line
/// with parsing inside the stream. Phase and parse spans carry measured
/// durations laid end to end — their starts are placed, not observed.
pub fn record_op(trace: &mut Trace, id: u64, s: &Sample) {
    let name = OPS[s.op];
    let (start, end) = (trace.at(s.start), trace.at(s.end));
    let root = trace.push(&format!("op.{name}"), id, None, start, end);
    let prefix = phase_prefix(s.op);
    let mut at = start;
    for (phase, secs) in &s.phases {
        let until = at + secs * 1e6;
        trace.push(&format!("{prefix}{phase}"), id, Some(root), at, until);
        at = until;
    }
    if let Some(w) = s.wire {
        let wire = trace.push(&format!("wire.{name}"), id, None, start, end);
        let (first, last) = (trace.at(w.first_line), trace.at(w.last_line));
        trace.push(
            &format!("wire.{name}.first_line"),
            id,
            Some(wire),
            start,
            first,
        );
        let stream = trace.push(&format!("wire.{name}.stream"), id, Some(wire), first, last);
        let parse_from = (last - w.parse_s * 1e6).max(first);
        trace.push(
            &format!("wire.{name}.parse"),
            id,
            Some(stream),
            parse_from,
            last,
        );
    }
}

/// Rounds completed so far.
pub fn rounds_done(samples: &[Sample]) -> usize {
    samples.iter().map(|s| s.round + 1).max().unwrap_or(0)
}

pub fn wall_ms(samples: &[Sample], op: usize) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.op == op)
        .map(Sample::wall_ms)
        .collect()
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn end_to_end(samples: &[Sample], setup_s: f64) -> Values {
    let mut v = Values::default();
    for (op, name) in OPS.iter().enumerate() {
        v.set(&format!("{name}_ms"), stats::midmean(&wall_ms(samples, op)));
    }
    let pairs: u64 = samples.iter().map(|s| s.got.count).sum();
    let busy_s: f64 = samples.iter().map(Sample::wall_ms).sum::<f64>() / 1e3;
    v.set("pairs_per_s", pairs as f64 / busy_s);
    v.set("peak_rss_mb", peak_rss_mb());
    v.set("setup_s", setup_s);
    v
}

/// The latency rows behind the reported times: quartiles, extremes, sample count,
/// the highest percentile the count supports, the simulated clock, and
/// every sample.
fn detail(cfg: &Config, env: &Env, samples: &[Sample], setups_s: &[f64]) -> Json {
    let num = Json::Num;
    let ops = OPS
        .iter()
        .enumerate()
        .map(|(op, name)| {
            let ms = wall_ms(samples, op);
            let [p25, p50, p75] = stats::quartiles(&ms);
            let mut row = vec![
                ("n".to_owned(), num(ms.len() as f64)),
                (
                    "min".to_owned(),
                    num(ms.iter().copied().fold(f64::INFINITY, f64::min)),
                ),
                ("midmean".to_owned(), num(stats::midmean(&ms))),
                ("p25".to_owned(), num(p25)),
                ("p50".to_owned(), num(p50)),
                ("p75".to_owned(), num(p75)),
                (
                    "max".to_owned(),
                    num(ms.iter().copied().fold(0.0, f64::max)),
                ),
                ("sim_io_s".to_owned(), num(env.sim_io_s[op])),
            ];
            if let Some(p) = stats::tail_percentile(ms.len()).filter(|p| *p > 50.0) {
                row.push((format!("p{p}"), num(stats::percentile(&ms, p))));
            }
            // In the order they were taken, so that a reader sees the box
            // change speed under the run.
            let tenths = |m: &f64| num((m * 10.0).round() / 10.0);
            row.push(("ms".to_owned(), Json::Arr(ms.iter().map(tenths).collect())));
            ((*name).to_owned(), Json::Obj(row))
        })
        .collect();
    Json::Obj(vec![(
        "detail".to_owned(),
        Json::Obj(vec![
            ("workload".to_owned(), Json::Str(cfg.kind.name().to_owned())),
            ("seed".to_owned(), num(cfg.seed as f64)),
            ("traced".to_owned(), Json::Bool(cfg.trace)),
            ("rounds".to_owned(), num(rounds_done(samples) as f64)),
            (
                "available_parallelism".to_owned(),
                num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
            ),
            ("rects".to_owned(), num(env.engine.inputs.len() as f64)),
            ("results".to_owned(), num(env.reference.count as f64)),
            (
                "setups_s".to_owned(),
                Json::Arr(setups_s.iter().copied().map(num).collect()),
            ),
            ("ops".to_owned(), Json::Obj(ops)),
        ]),
    )])
}

pub struct Outcome {
    /// The line that must come last on standard output.
    pub result: Json,
    /// Quartiles, counts and the simulated clock, printed before it.
    pub detail: Json,
    pub trace: Option<Trace>,
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    // The box changes speed in waves of tens of seconds, so the timed rounds
    // are spread over the whole run: an equal share after each set-up.
    let setups = cfg.setups.max(1);
    let share = Duration::from_secs_f64(cfg.seconds / setups as f64);
    let mut trace = cfg.trace.then(Trace::new);
    let mut setups_s = Vec::with_capacity(setups);
    let mut samples = Vec::new();
    let mut env = None;
    for _ in 0..setups {
        if let Some(old) = env.take() {
            Env::teardown(old)?;
        }
        let t0 = Instant::now();
        let fresh = setup(cfg)?;
        setups_s.push(t0.elapsed().as_secs_f64());
        rounds(&fresh, &mut samples, share, cfg.max_rounds, trace.as_mut());
        env = Some(fresh);
    }
    // Set-ups from one seed agree on the reference and the simulated clock,
    // so the last one judges the ops of all.
    let env = env.expect("set-up ran at least once");
    let setup_s = stats::median(&setups_s);

    let attempted = samples.len() as u64;
    let failed = samples.iter().filter(|s| env.failed(s)).count() as u64;
    for bad in samples.iter().filter(|s| env.failed(s)).take(3) {
        eprintln!(
            "sjbench: {} failed: {:?}, got {:?}, simulated I/O {} s",
            OPS[bad.op], bad.error, bad.got, bad.sim_io_s
        );
    }
    let detail = detail(cfg, &env, &samples, &setups_s);
    let result = match trace.as_mut() {
        None => metrics::result_line(
            &end_to_end(&samples, setup_s),
            metrics::end_to_end_unit,
            attempted,
            failed,
        ),
        Some(trace) => {
            let layers = probes::per_layer(&env, &samples, trace)?;
            metrics::result_line(&layers, metrics::per_layer_unit, attempted, failed)
        }
    };
    env.teardown()?;
    Ok(Outcome {
        result,
        detail,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(result: &Json) -> Vec<String> {
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("no metrics in {result}");
        };
        metrics.iter().map(|(name, _)| name.clone()).collect()
    }

    /// Every workload at a hundredth of its size, one round after each of two
    /// set-ups, untraced and traced: every named metric is there, under its
    /// name and in table order, every op verified, and the span file has the
    /// op roots.
    #[test]
    fn smoke_every_workload_reports_every_metric() {
        for kind in Kind::ALL {
            for trace in [false, true] {
                let cfg = Config {
                    kind,
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    setups: 2,
                    scale: 0.01,
                    max_rounds: Some(1),
                };
                let outcome = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
                let result = &outcome.result;
                let expected: Vec<&str> = if trace {
                    metrics::PER_LAYER
                        .iter()
                        .map(|(name, _, _)| *name)
                        .collect()
                } else {
                    metrics::END_TO_END.iter().map(|m| m.name).collect()
                };
                assert_eq!(names(result), expected, "{} trace={trace}", kind.name());
                assert_eq!(
                    result.get("failed").and_then(Json::as_u64),
                    Some(0),
                    "{result}"
                );
                assert_eq!(
                    result.get("correct").and_then(Json::as_bool),
                    Some(true),
                    "{result}"
                );
                assert_eq!(
                    result.get("attempted").and_then(Json::as_u64),
                    Some((2 * OPS.len()) as u64)
                );
                assert!(Json::parse(&outcome.detail.to_string()).is_ok());
                assert_eq!(outcome.trace.is_some(), trace);
                if let Some(t) = &outcome.trace {
                    for op in OPS {
                        let roots = t.durations_us(&format!("op.{op}")).len();
                        assert!(roots >= 1, "{}: {roots} op.{op} spans", kind.name());
                    }
                }
            }
        }
    }

    /// The simulated clock depends on inputs and settings only: two set-ups
    /// from one seed agree bit for bit, another seed does not.
    #[test]
    fn simulated_io_repeats_exactly_for_a_seed() {
        let cfg = |seed| Config {
            kind: Kind::BigSelf,
            seed,
            seconds: 0.0,
            trace: false,
            setups: 1,
            scale: 0.02,
            max_rounds: Some(1),
        };
        let bits = |env: &Env| env.sim_io_s.map(f64::to_bits);
        let (a, b, c) = (
            setup(&cfg(11)).unwrap(),
            setup(&cfg(11)).unwrap(),
            setup(&cfg(12)).unwrap(),
        );
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(a.reference, b.reference);
        assert_ne!(a.reference, c.reference);
        assert!(a.sim_io_s.iter().sum::<f64>() > 0.0);
    }
}
