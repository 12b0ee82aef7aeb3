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
//! | `unsupported`     | a member, value or mode the service does not serve |
//! | `unknown_dataset` | join referenced an unregistered name               |
//! | `bad_request`     | malformed JSON or missing/invalid fields           |
//! | `draining`        | server is shutting down, not accepting joins       |
//!
//! A `join`'s configuration is a [`JoinSpec`], read and checked as `sjoin`
//! reads its flags (`mem_mb` for `--mem-mb`): a value one refuses, the
//! other refuses with the same text. The members:
//!
//! | member | on the wire |
//! |---|---|
//! | `left`, `right` | registered dataset names (required) |
//! | `algo` | one of [`ALGOS`] (default `pbsm`); `sssj`, `shj`, `quadtree` are `unsupported` |
//! | `plan` | `off` (default) or `auto`; `explain` is `unsupported` |
//! | `mem_mb` | one 8 KiB page to 16384 (default 1), leased from the arbiter |
//! | `threads` | 0..=64, 0 = every core (default 1) |
//! | `channels` | 1..=64 (default 1) |
//! | `deadline` | simulated seconds ≥ 0 |
//! | `faults` | fault seed; with `faults_persistent: true`, persistent damage instead of transient faults |
//! | `crash` | crash point of a durable leg; an algorithm of `Algorithm::CHECKPOINTABLE`, no `plan` |
//! | `retry`, `fault_rate`, `persistent_rate`, `disk_budget`, `degraded_channel` | `unsupported` ([`UNSERVED`]) |
//! | `limit` | pairs to send; the join still runs to its end |
//! | `metrics` | `true` embeds the reconciled metrics report in `done` |
//! | `panic_after`, `hold_ms` | test hooks |

use spatialjoin::estimate::PlanMode;
use spatialjoin::JoinSpec;

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

/// The [`JoinSpec`] fields the wire does not serve: a request that sets one
/// is refused `unsupported`, naming it.
pub const UNSERVED: [&str; 5] =
    ["retry", "fault_rate", "persistent_rate", "disk_budget", "degraded_channel"];

/// Dataset generators the `register` command understands (same set and
/// sizing rules as the `sjoin` CLI).
pub const SOURCES: [&str; 5] = datagen::SOURCES;

/// A validated `join` request: the wire's own members beside the spec.
#[derive(Debug, Clone)]
pub struct JoinRequest {
    pub left: String,
    pub right: String,
    /// The join's configuration; `mem_mb` defaults to 1 on the wire.
    pub spec: JoinSpec,
    /// Stop *sending* pairs after this many; the join still completes and
    /// the terminal `done` line carries the full deterministic totals.
    pub limit: Option<u64>,
    /// Attach the reconciled `MetricsReport` to the `done` line.
    pub metrics: bool,
    /// Test hook: panic the join after emitting this many pairs.
    pub panic_after: Option<u64>,
    /// Test hook: hold the memory lease this many real milliseconds before
    /// joining, to make overload windows deterministic in tests.
    pub hold_ms: Option<u64>,
}

impl JoinRequest {
    /// Extracts and validates a join request from a parsed protocol line.
    /// A refusal is an error `kind` and its message: `unsupported` for what
    /// the service does not serve, `bad_request` for the rest.
    pub fn from_json(v: &Json) -> Result<JoinRequest, (&'static str, String)> {
        let unserved = UNSERVED.into_iter().find(|f| v.get(f).is_some_and(|j| *j != Json::Null));
        if let Some(field) = unserved {
            return Err(("unsupported", format!("{field}: not served by sjoind")));
        }
        let req = Self::read(v).map_err(|e| ("bad_request", e))?;
        if req.spec.plan == PlanMode::Explain {
            return Err(("unsupported", "plan: \"explain\" is not served (use off|auto)".into()));
        }
        if !ALGOS.contains(&req.spec.algo.as_str()) {
            let (algo, algos) = (&req.spec.algo, ALGOS.join("|"));
            return Err(("unsupported", format!("algo: {algo:?} is not served (use {algos})")));
        }
        Ok(req)
    }

    fn read(v: &Json) -> Result<JoinRequest, String> {
        // The wire's default budget is 1 MiB.
        let mut spec = JoinSpec { mem_mb: 1.0, ..JoinSpec::default() };
        spec.read_json(v)?;
        // Persistent damage exercises the quarantine-recompute paths end to
        // end: the join must still deliver the exact clean result set.
        if opt(v, "faults_persistent", "a boolean", Json::as_bool)? == Some(true) {
            if spec.faults.is_none() {
                return Err("faults_persistent requires a faults seed".to_owned());
            }
            (spec.fault_rate, spec.persistent_rate) = (Some(0.0), Some(0.05));
        }
        spec.validate(false)?;
        let name = |key: &str| {
            let name = v.get(key).and_then(Json::as_str).map(str::to_owned);
            name.ok_or_else(|| format!("join requires string field {key:?}"))
        };
        let count = |key: &str| opt(v, key, "a non-negative integer", Json::as_u64);
        Ok(JoinRequest {
            left: name("left")?,
            right: name("right")?,
            spec,
            limit: count("limit")?,
            metrics: opt(v, "metrics", "a boolean", Json::as_bool)?.unwrap_or(false),
            panic_after: count("panic_after")?,
            hold_ms: count("hold_ms")?,
        })
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
    use spatialjoin::CrashPoint;

    fn parse(line: &str) -> Result<JoinRequest, String> {
        JoinRequest::from_json(&Json::parse(line).expect("test line parses")).map_err(|(_, e)| e)
    }

    /// The refusal's kind.
    fn kind(line: &str) -> &'static str {
        JoinRequest::from_json(&Json::parse(line).expect("test line parses")).expect_err(line).0
    }

    #[test]
    fn minimal_join_defaults() {
        let r = parse(r#"{"cmd":"join","left":"a","right":"b"}"#).unwrap();
        assert_eq!(r.spec, JoinSpec { mem_mb: 1.0, ..JoinSpec::default() });
        assert_eq!(r.spec.mem_bytes(), 1024 * 1024);
        assert_eq!((r.limit, r.metrics, r.panic_after, r.hold_ms), (None, false, None, None));
    }

    #[test]
    fn full_join_round_trip() {
        let r = parse(
            r#"{"cmd":"join","left":"a","right":"b","algo":"s3j","mem_mb":2.5,
                "threads":4,"channels":2,"deadline":9.5,"limit":10,
                "faults":7,"panic_after":3,"hold_ms":20,"metrics":true}"#,
        )
        .unwrap();
        assert_eq!(r.spec.algo, "s3j");
        assert_eq!(r.spec.mem_bytes(), (2.5 * 1024.0 * 1024.0) as usize);
        assert_eq!((r.spec.threads, r.spec.channels), (4, 2));
        assert_eq!(r.spec.deadline, Some(9.5));
        assert_eq!(r.limit, Some(10));
        assert_eq!((r.spec.faults, r.panic_after, r.hold_ms), (Some(7), Some(3), Some(20)));
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
        let err = parse(
            r#"{"cmd":"join","left":"a","right":"b","algo":"pbsm-sort","crash":"mid-rename"}"#,
        )
        .unwrap_err();
        assert!(err.contains("pbsm|pbsm-trie|twolayer|s3j|s3j-orig"), "{err}");
        // A crash leg takes a fault seed: the join's one fault plan carries both.
        let r = parse(r#"{"cmd":"join","left":"a","right":"b","crash":"mid-rename","faults":7}"#)
            .unwrap();
        assert_eq!((r.spec.crash, r.spec.faults), (Some(CrashPoint::MidRename), Some(7)));
        // the persistent escalation needs a seed to escalate.
        assert!(
            parse(r#"{"cmd":"join","left":"a","right":"b","faults_persistent":true}"#).is_err()
        );
        let r = parse(
            r#"{"cmd":"join","left":"a","right":"b","faults":4,"faults_persistent":true}"#,
        )
        .unwrap();
        // `FaultPlan::persistent(4)`, spelled as spec fields.
        assert_eq!(r.spec.faults, Some(4));
        assert_eq!((r.spec.fault_rate, r.spec.persistent_rate), (Some(0.0), Some(0.05)));
    }

    /// What the wire does not serve is refused `unsupported`, by name; it
    /// used to be ignored.
    #[test]
    fn unserved_members_and_values_are_unsupported() {
        for (field, value) in [
            ("retry", "3"),
            ("fault_rate", "0.1"),
            ("persistent_rate", "0.1"),
            ("disk_budget", "100"),
            ("degraded_channel", "\"0:4\""),
            ("plan", "\"explain\""),
            ("algo", "\"sssj\""),
        ] {
            let line = format!(r#"{{"cmd":"join","left":"a","right":"b","{field}":{value}}}"#);
            assert_eq!(kind(&line), "unsupported", "{line}");
            assert!(parse(&line).unwrap_err().starts_with(field), "{line}");
        }
        assert_eq!(kind(r#"{"cmd":"join","left":"a","right":"b","algo":"nope"}"#), "bad_request");
        assert!(parse(r#"{"cmd":"join","left":"a","right":"b","retry":null}"#).is_ok());
    }

    #[test]
    fn plan_field_parses_and_validates() {
        let r = parse(r#"{"cmd":"join","left":"a","right":"b","plan":"auto"}"#).unwrap();
        assert_eq!(r.spec.plan, PlanMode::Auto);
        let r = parse(r#"{"cmd":"join","left":"a","right":"b","plan":"off"}"#).unwrap();
        assert_eq!(r.spec.plan, PlanMode::Off);
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
        assert_eq!(r.spec.crash, Some(CrashPoint::MidPartition(2)));
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

    /// The wire's names are `Algorithm`'s, and a planner choice over the
    /// wire's space is one of them.
    #[test]
    fn the_wire_serves_algorithm_names_and_streamable_plans() {
        use spatialjoin::estimate::{DatasetProfile, PlanSpace, Planner};
        use spatialjoin::Algorithm;

        assert!(ALGOS.iter().all(|a| Algorithm::NAMES.contains(a)));
        let r = DatasetProfile::build(&dataset("uniform", 0.002, 1).unwrap());
        let s = DatasetProfile::build(&dataset("clustered", 0.002, 2).unwrap());
        let plan = Planner::new(64 * 1024).with_space(PlanSpace::Streamable).plan(&r, &s);
        assert!(!plan.ranked.is_empty());
        assert!(plan.ranked.iter().all(|c| ALGOS.contains(&c.choice.cli_name())));
    }
}
