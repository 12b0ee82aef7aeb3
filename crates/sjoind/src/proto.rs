//! Wire protocol: newline-delimited JSON requests and responses.
//!
//! Every request is one JSON object on one line with a `"cmd"` member
//! (`ping` | `register` | `list` | `metrics` | `join` | `shutdown`); a
//! member the command does not read is ignored. Every response is one line
//! too, except `join`, which streams zero or more `{"pairs":[[r,s],...]}`
//! batches followed by exactly one terminal line: `{"done":{...}}` on
//! success or `{"error":{"kind":...,...}}` on refusal, interruption or
//! failure. Error kinds are stable strings clients can dispatch on:
//!
//! | kind              | meaning                                            |
//! |-------------------|----------------------------------------------------|
//! | `overloaded`      | shed by admission control; `retry_after` hint (s)  |
//! | `too_large`       | request exceeds the whole memory budget            |
//! | `cancelled`       | cooperative cancellation (client went away)        |
//! | `deadline`        | simulated-time deadline expired; resumable         |
//! | `crashed`         | injected crash point fired; resumable              |
//! | `io`              | retry budget exhausted on an unrecoverable fault   |
//! | `panicked`        | the join panicked; contained to this request       |
//! | `unsupported`     | algorithm can't serve the requested mode           |
//! | `unknown_dataset` | join referenced an unregistered name               |
//! | `bad_request`     | malformed JSON or missing/invalid fields           |
//! | `draining`        | server is shutting down, not accepting joins       |

use spatialjoin::estimate::PlanChoice;
use spatialjoin::CrashPoint;

use crate::json::Json;

/// Algorithms the service accepts: those of [`spatialjoin::Algorithm::NAMES`]
/// a session can cancel (the sweep-line baselines have no partition phase
/// and no cancel support, so they stay CLI-only).
pub const ALGOS: [&str; 6] = [
    "pbsm",
    "pbsm-trie",
    "pbsm-sort",
    "twolayer",
    "s3j",
    "s3j-orig",
];

/// Subset of [`ALGOS`] the durable-run machinery can checkpoint — the only
/// algorithms `crash` requests can serve (sort-phase dedup is refused by the
/// checkpoint layer; the two-layer class scheme, like RPM, dedups online and
/// checkpoints fine, and so do both S³J variants).
pub const CHECKPOINTABLE: [&str; 5] = ["pbsm", "pbsm-trie", "twolayer", "s3j", "s3j-orig"];

/// Dataset generators the `register` command understands (same set and
/// sizing rules as the `sjoin` CLI).
pub const SOURCES: [&str; 5] = datagen::SOURCES;

/// A validated `join` request.
#[derive(Debug, Clone)]
pub struct JoinRequest {
    pub left: String,
    pub right: String,
    pub algo: String,
    /// Memory budget the join sizes itself from *and* leases from the
    /// arbiter, in bytes.
    pub mem_bytes: usize,
    /// PBSM's partition-join worker threads (1–64, default 1); every other
    /// algorithm, S³J included, runs on the session thread alone.
    pub threads: usize,
    /// Simulated disk channels (1–64, default 1).
    pub channels: usize,
    /// Simulated-seconds deadline propagated into the join.
    pub deadline: Option<f64>,
    /// Stop *sending* pairs after this many; the join still completes and
    /// the terminal `done` line carries the full deterministic totals.
    pub limit: Option<u64>,
    /// Run under seeded recoverable fault injection.
    pub faults: Option<u64>,
    /// Escalate `faults` to the persistent-damage plan: re-reads of a bad
    /// page always fail, exercising the quarantine-recompute paths. Results
    /// must still be bit-identical — that is the claim the soak checks.
    pub faults_persistent: bool,
    /// Inject a crash point (spec string, e.g. `"mid-partition:1"`).
    pub crash: Option<CrashPoint>,
    /// Test hook: panic the join after emitting this many pairs.
    pub panic_after: Option<u64>,
    /// Test hook: hold the memory lease this many real milliseconds before
    /// joining, to make overload windows deterministic in tests.
    pub hold_ms: Option<u64>,
    /// Attach the reconciled `MetricsReport` to the `done` line.
    pub metrics: bool,
    /// `"plan": "auto"` — let the cost-based planner pick the algorithm
    /// and its knobs over the service's streamable candidate space; any
    /// explicit `algo` is ignored. The chosen plan is reported on the
    /// `done` line.
    pub plan: bool,
    /// Filled by the server once the planner has run: the full chosen
    /// configuration (including knobs the algorithm name alone cannot
    /// carry, like the tile count and buffer split). Never parsed from
    /// the wire; `chosen_plan()` renders the `done`-line description.
    pub chosen_choice: Option<PlanChoice>,
}

impl JoinRequest {
    /// Extracts and validates a join request from a parsed protocol line.
    pub fn from_json(v: &Json) -> Result<JoinRequest, String> {
        let field_str = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("join requires string field {key:?}"))
        };
        let flag = |key: &str| -> Result<bool, String> {
            Ok(opt(v, key, "a boolean", Json::as_bool)?.unwrap_or(false))
        };
        // A count outside 1..=64 is refused, not clamped: `sjoin` reads
        // `--threads 0` as every core and refuses `--channels 0`.
        let count = |key: &str| -> Result<usize, String> {
            match opt_u64(v, key)?.unwrap_or(1) {
                n @ 1..=64 => Ok(n as usize),
                n => Err(format!("field {key:?} must be in 1..=64, got {n}")),
            }
        };

        let algo = match v.get("algo").and_then(Json::as_str) {
            None => "pbsm".to_owned(),
            Some(a) if ALGOS.contains(&a) => a.to_owned(),
            Some(other) => {
                return Err(format!(
                    "unknown algorithm {other:?} (expected one of {})",
                    ALGOS.join("|")
                ))
            }
        };
        let mem_mb = opt_f64(v, "mem_mb")?.unwrap_or(1.0);
        if mem_mb > 16_384.0 {
            return Err("mem_mb must be at most 16384".to_owned());
        }
        let mem_bytes =
            spatialjoin::mem_bytes_from_mb(mem_mb).map_err(|e| format!("mem_mb: {e}"))?;
        let plan = match v.get("plan") {
            None | Some(Json::Null) => false,
            Some(j) => match j.as_str() {
                Some("auto") => true,
                Some(other) => {
                    return Err(format!("field \"plan\" must be \"auto\", got {other:?}"))
                }
                None => return Err("field \"plan\" must be the string \"auto\"".to_owned()),
            },
        };
        let crash = match v.get("crash") {
            None | Some(Json::Null) => None,
            Some(j) => {
                let spec = j.as_str().ok_or("field \"crash\" must be a spec string")?;
                Some(CrashPoint::from_spec(spec).ok_or_else(|| {
                    format!(
                        "bad crash spec {spec:?} (after-commit:N | mid-partition:N | mid-rename)"
                    )
                })?)
            }
        };
        let req = JoinRequest {
            left: field_str("left")?,
            right: field_str("right")?,
            mem_bytes,
            threads: count("threads")?,
            channels: count("channels")?,
            deadline: opt_f64(v, "deadline")?,
            limit: opt_u64(v, "limit")?,
            faults: opt_u64(v, "faults")?,
            faults_persistent: flag("faults_persistent")?,
            crash,
            panic_after: opt_u64(v, "panic_after")?,
            hold_ms: opt_u64(v, "hold_ms")?,
            metrics: flag("metrics")?,
            plan,
            chosen_choice: None,
            algo,
        };
        if req.plan && req.crash.is_some() {
            // Crash/resume keys on a *fixed* configuration fingerprint; a
            // data-dependent planner pick would refuse the resume.
            return Err("plan cannot be combined with crash".to_owned());
        }
        if req.crash.is_some() && !CHECKPOINTABLE.contains(&req.algo.as_str()) {
            return Err(format!(
                "algorithm {:?} cannot serve crash requests (not checkpointable; use {})",
                req.algo,
                CHECKPOINTABLE.join("|")
            ));
        }
        if req.crash.is_some() && req.faults.is_some() {
            // The crash leg runs on a crash-only disk: a fault seed beside
            // it would be read, validated and never applied.
            return Err("crash cannot be combined with faults".to_owned());
        }
        if req.faults_persistent && req.faults.is_none() {
            return Err("faults_persistent requires a faults seed".to_owned());
        }
        Ok(req)
    }
}

/// An optional typed member of a request: absent or `null` is `None`, a
/// value `read` refuses is an error naming the field — never a default.
pub(crate) fn opt<'a, T>(
    v: &'a Json,
    key: &str,
    what: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => read(j)
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be {what}")),
    }
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    opt(v, key, "a non-negative integer", Json::as_u64)
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, String> {
    opt(v, key, "a finite number >= 0", |j| {
        j.as_f64().filter(|x| x.is_finite() && *x >= 0.0)
    })
}

/// Generates a dataset's KPEs for `register`.
pub fn dataset(source: &str, scale: f64, seed: u64) -> Result<Vec<geom::Kpe>, String> {
    datagen::named(source, scale, seed).map(|d| d.kpes)
}

/// One-line success response to everything except `join`.
pub fn ok_line(ok: Json) -> String {
    Json::obj([("ok", ok)]).to_string()
}

/// One-line error response; `extra` members follow `kind` and `message`.
pub fn error_line(kind: &str, message: &str, extra: &[(&str, Json)]) -> String {
    let head = [("kind", kind.into()), ("message", message.into())];
    let error = Json::obj(head.into_iter().chain(extra.iter().cloned()));
    Json::obj([("error", error)]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<JoinRequest, String> {
        JoinRequest::from_json(&Json::parse(line).expect("test line parses"))
    }

    #[test]
    fn minimal_join_defaults() {
        let r = parse(r#"{"cmd":"join","left":"a","right":"b"}"#).unwrap();
        assert_eq!(r.algo, "pbsm");
        assert_eq!(r.mem_bytes, 1024 * 1024);
        assert_eq!((r.threads, r.channels), (1, 1));
        assert!(r.crash.is_none() && r.deadline.is_none());
    }

    #[test]
    fn full_join_round_trip() {
        let r = parse(
            r#"{"cmd":"join","left":"a","right":"b","algo":"s3j","mem_mb":2.5,
                "threads":4,"channels":2,"deadline":9.5,"limit":10,
                "faults":7,"panic_after":3,"hold_ms":20,"metrics":true}"#,
        )
        .unwrap();
        assert_eq!(r.algo, "s3j");
        assert_eq!(r.mem_bytes, (2.5 * 1024.0 * 1024.0) as usize);
        assert_eq!((r.threads, r.channels), (4, 2));
        assert_eq!(r.deadline, Some(9.5));
        assert_eq!(r.limit, Some(10));
        assert_eq!((r.faults, r.panic_after, r.hold_ms), (Some(7), Some(3), Some(20)));
        assert!(r.metrics);
    }

    #[test]
    fn rejects_bad_fields() {
        assert!(parse(r#"{"cmd":"join","left":"a"}"#).is_err()); // missing right
        assert!(parse(r#"{"cmd":"join","left":"a","right":"b","algo":"nope"}"#).is_err());
        assert!(parse(r#"{"cmd":"join","left":"a","right":"b","mem_mb":0}"#).is_err());
        // A budget that truncates to less than one page would divide by ~0.
        let err = parse(r#"{"cmd":"join","left":"a","right":"b","mem_mb":1e-9}"#).unwrap_err();
        assert!(err.contains("mem_mb"), "{err}");
        assert!(parse(r#"{"cmd":"join","left":"a","right":"b","mem_mb":0.0078125}"#).is_ok());
        // Flags are type-checked like every other field, not read as false.
        for (field, value) in [("metrics", "1"), ("faults_persistent", "[]")] {
            let err = parse(&format!(
                r#"{{"cmd":"join","left":"a","right":"b","faults":1,"{field}":{value}}}"#
            ))
            .unwrap_err();
            assert!(err.contains(field) && err.contains("boolean"), "{err}");
        }
        assert!(parse(r#"{"cmd":"join","left":"a","right":"b","metrics":null}"#).is_ok());
        assert!(parse(r#"{"cmd":"join","left":"a","right":"b","deadline":-1}"#).is_err());
        assert!(parse(r#"{"cmd":"join","left":"a","right":"b","crash":"mid-nothing"}"#).is_err());
        // Non-checkpointable algorithms cannot serve crash legs.
        assert!(parse(
            r#"{"cmd":"join","left":"a","right":"b","algo":"pbsm-sort","crash":"mid-rename"}"#
        )
        .is_err());
        // A crash leg takes no fault seed: it used to be read and dropped.
        let err = parse(r#"{"cmd":"join","left":"a","right":"b","crash":"mid-rename","faults":7}"#)
            .unwrap_err();
        assert!(err.contains("crash") && err.contains("faults"), "{err}");
        // the persistent escalation needs a seed to escalate.
        assert!(
            parse(r#"{"cmd":"join","left":"a","right":"b","faults_persistent":true}"#).is_err()
        );
        let r = parse(
            r#"{"cmd":"join","left":"a","right":"b","faults":4,"faults_persistent":true}"#,
        )
        .unwrap();
        assert!(r.faults_persistent && r.faults == Some(4));
    }

    #[test]
    fn plan_field_parses_and_validates() {
        let r = parse(r#"{"cmd":"join","left":"a","right":"b","plan":"auto"}"#).unwrap();
        assert!(r.plan && r.chosen_choice.is_none());
        // Only the literal "auto" is accepted on the wire.
        assert!(parse(r#"{"cmd":"join","left":"a","right":"b","plan":"explain"}"#).is_err());
        assert!(parse(r#"{"cmd":"join","left":"a","right":"b","plan":true}"#).is_err());
        // Planner picks are data-dependent; a fingerprint-keyed crash leg
        // refuses them.
        assert!(parse(
            r#"{"cmd":"join","left":"a","right":"b","plan":"auto","crash":"mid-rename"}"#
        )
        .is_err());
        // Faults compose fine: the planner only picks the configuration.
        assert!(parse(r#"{"cmd":"join","left":"a","right":"b","plan":"auto","faults":3}"#).is_ok());
    }

    #[test]
    fn crash_spec_parses() {
        let r = parse(r#"{"cmd":"join","left":"a","right":"b","crash":"mid-partition:2"}"#).unwrap();
        assert_eq!(r.crash, Some(CrashPoint::MidPartition(2)));
    }

    #[test]
    fn error_line_is_valid_json() {
        let line = error_line(
            "overloaded",
            "memory budget \"exhausted\"",
            &[("retry_after", 0.05.into())],
        );
        let v = Json::parse(&line).unwrap();
        let e = v.get("error").unwrap();
        assert_eq!(e.get("kind").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(e.get("retry_after").and_then(Json::as_f64), Some(0.05));
    }

    #[test]
    fn dataset_sources_generate() {
        for source in SOURCES {
            let kpes = dataset(source, 0.001, 42).unwrap();
            assert!(kpes.len() >= 16, "{source} too small");
        }
        assert!(dataset("mars_rr", 1.0, 1).is_err());
    }

    /// One name table: the wire names are `Algorithm`'s, the checkpointable
    /// ones are exactly those a durable run accepts, and a planner choice
    /// materialised by name or directly is the same kind of join.
    #[test]
    fn algorithm_names_agree_across_cli_wire_and_planner() {
        use spatialjoin::estimate::{DatasetProfile, Planner};
        use spatialjoin::{Algorithm, IoErrorKind, SimDisk, SpatialJoin};

        let mem = 64 * 1024;
        // Every name is a configuration, and no two names the same one.
        let mut configs: Vec<String> = Algorithm::NAMES
            .iter()
            .map(|name| format!("{:?}", Algorithm::from_name(name, mem).expect(name)))
            .collect();
        configs.sort();
        configs.dedup();
        assert_eq!(configs.len(), Algorithm::NAMES.len());
        assert!(Algorithm::from_name("nope", mem).is_none());
        assert!(ALGOS.iter().all(|a| Algorithm::NAMES.contains(a)));

        let r = dataset("uniform", 0.002, 1).unwrap();
        let s = dataset("clustered", 0.002, 2).unwrap();
        let durable: Vec<&str> = ALGOS
            .into_iter()
            .filter(|name| {
                let join = SpatialJoin::new(Algorithm::from_name(name, mem).unwrap());
                let disk = SimDisk::with_default_model();
                match join.try_run_durable_with(&disk, &r, &s, 1, &mut |_, _| {}) {
                    Ok(_) => true,
                    Err(e) => {
                        assert_eq!(e.io().map(|io| io.kind), Some(IoErrorKind::Unsupported));
                        false
                    }
                }
            })
            .collect();
        assert_eq!(durable, CHECKPOINTABLE);

        // What `from_name` and `from_choice` must agree on; the tile count
        // and buffer split are the choice's own.
        let kind = |a: &Algorithm| match a {
            Algorithm::Pbsm(c) => format!("pbsm {:?} {:?}", c.dedup, c.internal),
            Algorithm::S3j(c) => format!("s3j {} {:?}", c.replicate, c.internal),
            Algorithm::Sssj(_) => "sssj".to_owned(),
            Algorithm::Shj(c) => format!("shj {:?}", c.internal),
            Algorithm::Quadtree(_) => "quadtree".to_owned(),
        };
        let plan = Planner::new(mem).plan(&DatasetProfile::build(&r), &DatasetProfile::build(&s));
        assert!(!plan.ranked.is_empty());
        for cand in &plan.ranked {
            let named = Algorithm::from_name(cand.choice.cli_name(), mem).unwrap();
            assert_eq!(kind(&named), kind(&Algorithm::from_choice(&cand.choice)));
        }
    }
}
