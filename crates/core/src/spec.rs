//! One description of a join's configuration for both surfaces: `sjoin`'s
//! flags and the members of a `sjoind` join request.
//!
//! [`JoinSpec`] holds the fields that configure a [`SpatialJoin`], each
//! named once, in one table: the name is the wire member (`mem_mb`), `--`
//! and the name with `-` for `_` the flag (`--mem-mb`). The table's reader
//! type- and range-checks a value from either surface, so a value one
//! surface refuses the other refuses with the same text, apart from that
//! spelling. [`JoinSpec::validate`] holds every rule across fields, and
//! [`JoinSpec::build`] makes the join, running the planner first when
//! `plan` asks for it.

use std::borrow::Cow;
use std::ops::RangeInclusive;

use estimate::{DatasetProfile, Plan, PlanMode, PlanSpace, Planner};
use storage::Json;

use crate::{Algorithm, CrashPoint, DiskModel, FaultPlan, Kpe, RetryPolicy, SpatialJoin};

/// Declares [`JoinSpec`] from its field table. A row is a field's docs, name,
/// type and default, then the reader that checks a value `$v` (a [`Raw`])
/// for it.
macro_rules! spec {
    (reading $v:ident; $($(#[doc = $doc:literal])* $field:ident: $ty:ty = $default:expr => $read:expr;)*) => {
        /// A join's configuration, with the values [`JoinSpec::read`] takes.
        #[derive(Debug, Clone, PartialEq)]
        pub struct JoinSpec {
            $($(#[doc = $doc])* pub $field: $ty,)*
        }

        impl Default for JoinSpec {
            fn default() -> JoinSpec {
                JoinSpec { $($field: $default,)* }
            }
        }

        impl JoinSpec {
            /// Every field's name, as the wire spells it.
            pub fn fields() -> impl Iterator<Item = &'static str> {
                [$(stringify!($field)),*].into_iter()
            }

            /// The value checked by `field`'s reader and stored; `None` if
            /// there is no such field.
            fn set(&mut self, field: &str, $v: Raw) -> Option<Result<(), String>> {
                match field {
                    $(stringify!($field) => Some($read.map(|x| self.$field = x)),)*
                    _ => None,
                }
            }
        }
    };
}

spec! {
    reading v;
    /// One of [`Algorithm::NAMES`]; a planned join ignores it.
    algo: String = "pbsm".to_owned() => {
        let known = |t: &str| Algorithm::NAMES.contains(&t).then(|| t.to_owned());
        v.parsed(known, &format!("one of {}", Algorithm::NAMES.join("|")))
    };
    plan: PlanMode = PlanMode::Off => PlanMode::parse(&v.text());
    /// MiB, from one page to 16384. The default is `sjoin`'s; `sjoind`'s is 1.
    mem_mb: f64 = 5.0 => {
        // The least budget is one page: a smaller one truncates towards 0
        // bytes, and formula (1) divides by it.
        let page = DiskModel::default().page_size;
        v.number(page as f64 / MIB..=16_384.0, &format!("MiB from one {page}-byte page to 16384"))
    };
    /// PBSM's join-phase worker threads (S³J's build and sort lanes, at
    /// most two), 0..=64; `0` = every core.
    threads: usize = 1 => {
        v.integer(0..=64, "an integer in 0..=64 (0 = every core)").map(|n| n as usize)
    };
    /// Simulated I/O channels, 1..=64.
    channels: usize = 1 => v.integer(1..=64, "an integer in 1..=64").map(|n| n as usize);
    /// Simulated seconds, finite and ≥ 0.
    deadline: Option<f64> = None => v.number(0.0..=f64::MAX, "a finite number >= 0").map(Some);
    /// Attempts per page request, the first included.
    retry: Option<u32> = None => {
        v.integer(0..=u32::MAX.into(), "an integer in 0..=4294967295").map(|n| Some(n as u32))
    };
    /// Seed of a recoverable fault plan.
    faults: Option<u64> = None => v.integer(0..=u64::MAX, "an integer seed >= 0").map(Some);
    /// Share of request identities that fail, in [0, 1].
    fault_rate: Option<f64> = None => v.number(0.0..=1.0, "a number in [0, 1]").map(Some);
    /// Share of (channel, page) sectors with persistent damage, in [0, 1].
    persistent_rate: Option<f64> = None => v.number(0.0..=1.0, "a number in [0, 1]").map(Some);
    /// Pages the simulated volume holds.
    disk_budget: Option<u64> = None => v.integer(0..=u64::MAX, "pages >= 0").map(Some);
    /// A data channel and the factor (≥ 1) its transfer time is multiplied by.
    degraded_channel: Option<(usize, f64)> = None => {
        v.parsed(degraded_channel, "CHANNEL:FACTOR with FACTOR >= 1, e.g. 0:4").map(Some)
    };
    crash: Option<CrashPoint> = None => {
        v.parsed(CrashPoint::from_spec, "after-commit:N | mid-partition:N | mid-rename").map(Some)
    };
}

/// One field's value as a surface hands it over.
#[derive(Debug, Clone, Copy)]
pub enum Raw<'a> {
    /// The text after a flag.
    Flag(&'a str),
    /// A join request's member.
    Wire(&'a Json),
}

const MIB: f64 = 1024.0 * 1024.0;

/// A `CHANNEL:FACTOR` spec with a finite factor of at least 1.
fn degraded_channel(spec: &str) -> Option<(usize, f64)> {
    let (c, f) = spec.split_once(':')?;
    let factor: f64 = f.parse().ok()?;
    (factor.is_finite() && factor >= 1.0).then_some((c.parse().ok()?, factor))
}

impl<'a> Raw<'a> {
    /// The value as text: a flag's own or a wire string's; any other wire
    /// value reads as its JSON, which no text field accepts.
    fn text(self) -> Cow<'a, str> {
        match self {
            Raw::Flag(s) => Cow::Borrowed(s),
            Raw::Wire(Json::Str(s)) => Cow::Borrowed(s),
            Raw::Wire(j) => Cow::Owned(j.to_string()),
        }
    }

    fn as_f64(self) -> Option<f64> {
        match self {
            Raw::Flag(s) => s.parse().ok(),
            Raw::Wire(j) => j.as_f64(),
        }
    }

    /// The refusal, showing the value alike on both surfaces: a number as
    /// Rust prints an `f64`, a string quoted, any other wire value as JSON.
    fn refuse<T>(self, what: &str) -> Result<T, String> {
        let shown = match (self, self.as_f64()) {
            (_, Some(x)) => x.to_string(),
            (Raw::Wire(j), None) if !matches!(j, Json::Str(_)) => j.to_string(),
            _ => format!("{:?}", self.text()),
        };
        Err(format!("want {what}, got {shown}"))
    }

    /// The value as a number in `range` (NaN is in none), or the refusal
    /// saying it wants `what`.
    pub fn number(self, range: RangeInclusive<f64>, what: &str) -> Result<f64, String> {
        self.as_f64().filter(|x| range.contains(x)).map_or_else(|| self.refuse(what), Ok)
    }

    /// An integer in `range`: a flag's `1e2` is 100, as the wire's is.
    fn integer(self, range: RangeInclusive<u64>, what: &str) -> Result<u64, String> {
        let n = match self {
            Raw::Flag(s) => s.parse().ok().or_else(|| Json::Num(s.parse().ok()?).as_u64()),
            Raw::Wire(j) => j.as_u64(),
        };
        n.filter(|n| range.contains(n)).map_or_else(|| self.refuse(what), Ok)
    }

    /// The text as `parse` reads it.
    fn parsed<T>(self, parse: impl FnOnce(&str) -> Option<T>, what: &str) -> Result<T, String> {
        parse(&self.text()).map_or_else(|| self.refuse(what), Ok)
    }
}

impl JoinSpec {
    /// `field`'s flag: `--` and the name with `-` for `_`.
    pub fn flag(field: &str) -> String {
        format!("--{}", field.replace('_', "-"))
    }

    /// The field a flag sets, if it sets one.
    pub fn field_of_flag(flag: &str) -> Option<&'static str> {
        Self::fields().find(|name| Self::flag(name) == flag)
    }

    /// Reads `value` into `field`. A refusal names the field as the value's
    /// surface spells it: the flag, or the member.
    pub fn read(&mut self, field: &str, value: Raw) -> Result<(), String> {
        let read = self.set(field, value).ok_or_else(|| format!("no field {field:?}"))?;
        let name = if matches!(value, Raw::Flag(_)) { Self::flag(field) } else { field.to_owned() };
        read.map_err(|e| format!("{name}: {e}"))
    }

    /// Reads every field a join request carries; an absent or `null`
    /// member leaves its field as it is.
    pub fn read_json(&mut self, request: &Json) -> Result<(), String> {
        for name in Self::fields() {
            if let Some(v) = request.get(name).filter(|v| **v != Json::Null) {
                self.read(name, Raw::Wire(v))?;
            }
        }
        Ok(())
    }

    /// Every rule across fields, with one text on both surfaces: a durable
    /// run names an algorithm of [`Algorithm::CHECKPOINTABLE`] and no plan.
    /// `durable`: the surface checkpoints the run for a reason of its own
    /// (`sjoin --durable`, `--resume`); a `crash` makes any run durable.
    pub fn validate(&self, durable: bool) -> Result<(), String> {
        if !durable && self.crash.is_none() {
            Ok(())
        } else if self.plan != PlanMode::Off {
            // A resume must replay the interrupted leg's configuration, and
            // a plan is a function of the data.
            Err("a planned join cannot run durable; pick the algorithm explicitly".to_owned())
        } else if !Algorithm::CHECKPOINTABLE.contains(&self.algo.as_str()) {
            let (name, names) = (&self.algo, Algorithm::CHECKPOINTABLE.join("|"));
            Err(format!("algorithm {name:?} cannot run durable (not checkpointable; use {names})"))
        } else {
            Ok(())
        }
    }

    /// The memory budget in bytes.
    pub fn mem_bytes(&self) -> usize {
        (self.mem_mb * MIB) as usize
    }

    /// The join this spec configures over `r` ⋈ `s`, for a spec
    /// [`JoinSpec::validate`] accepts, and the plan that picked its
    /// algorithm from `space` when `plan` asks for one. A fault field or a
    /// `crash` attaches a fault plan: `faults` seeds a recoverable one, the
    /// rest compose onto it, or onto a clean plan seeded with `fault_seed`,
    /// or with the inputs' [`SpatialJoin::fingerprint`] when that is `None`.
    pub fn build(
        &self,
        r: &[Kpe],
        s: &[Kpe],
        space: PlanSpace,
        fault_seed: Option<u64>,
    ) -> (SpatialJoin, Option<Plan>) {
        let mem = self.mem_bytes();
        let model = DiskModel { channels: self.channels, ..DiskModel::default() };
        let plan = (self.plan != PlanMode::Off).then(|| {
            let planner = Planner::new(mem).with_disk_model(model).with_space(space);
            planner.plan(&DatasetProfile::build(r), &DatasetProfile::build(s))
        });
        let algo = match &plan {
            Some(plan) => Algorithm::from_choice(&plan.chosen().choice),
            None => Algorithm::from_name(&self.algo, mem).expect("algo is one of Algorithm::NAMES"),
        };
        let mut join = SpatialJoin::new(algo.with_threads(self.threads)).with_disk_model(model);
        let damage = self.persistent_rate.is_some()
            || self.disk_budget.is_some()
            || self.degraded_channel.is_some();
        if damage || self.faults.is_some() || self.crash.is_some() {
            let base = match self.faults {
                Some(seed) => FaultPlan::recoverable(seed),
                None => FaultPlan::none(fault_seed.unwrap_or_else(|| join.fingerprint(r, s))),
            };
            join = join.with_faults(FaultPlan {
                fault_rate: self.fault_rate.unwrap_or(base.fault_rate),
                persistent_rate: self.persistent_rate.unwrap_or(base.persistent_rate),
                disk_budget_pages: self.disk_budget,
                degraded_channel: self.degraded_channel,
                crash: self.crash,
                ..base
            });
        }
        if let Some(n) = self.retry {
            join = join.with_retry(RetryPolicy::with_max_attempts(n));
        }
        if let Some(d) = self.deadline {
            join = join.with_deadline(d);
        }
        (join, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IoErrorKind, JoinErrorKind};

    /// `text` as the wire would carry it: a number when it reads as one.
    fn wire(text: &str) -> Json {
        text.parse().map_or_else(|_| Json::Str(text.to_owned()), Json::Num)
    }

    /// `field` set to `text` through `sjoin`'s flag path and to the same
    /// value through the wire's, each refusal with its spelling of the
    /// field taken out; `None` where the value was accepted.
    fn both_paths(field: &str, text: &str) -> [Option<String>; 2] {
        let flag = JoinSpec::flag(field);
        let field = JoinSpec::field_of_flag(&flag).expect("every field has a flag");
        let by_flag = JoinSpec::default().read(field, Raw::Flag(text));
        let by_wire = JoinSpec::default().read_json(&Json::obj([(field, wire(text))]));
        [(by_flag, flag.as_str()), (by_wire, field)].map(|(res, name)| {
            res.err().map(|e| e.strip_prefix(name).expect("the refusal names the field").to_owned())
        })
    }

    /// Every shared field refuses a wrong type, an out-of-range value and
    /// NaN/±inf where numeric, on both surfaces alike.
    #[test]
    fn both_surfaces_refuse_the_same_values_with_the_same_text() {
        const ODD: [&str; 4] = ["x", "NaN", "inf", "-inf"];
        let cases: [(&str, &[&str]); 13] = [
            ("algo", &["nope", "7", "PBSM"]),
            ("plan", &["explian", "7", "qwertyuiop"]),
            ("mem_mb", &["0", "-1", "1e-9", "0.0078124", "16385"]),
            ("threads", &["65", "-1", "1.5", "1e3"]),
            ("channels", &["0", "65", "-1", "2.5"]),
            ("deadline", &["-1", "-0.5"]),
            ("retry", &["4294967296", "-1", "0.5"]),
            ("faults", &["-1", "0.5"]),
            ("fault_rate", &["2", "-0.1", "1.0001"]),
            ("persistent_rate", &["1.5", "-1"]),
            ("disk_budget", &["-1", "0.5"]),
            ("degraded_channel", &["nope", "0:0.5", "0:NaN", "0:inf", "x:4", "7", "1:"]),
            ("crash", &["mid-nothing", "after-commit:x", "7", "after-commit"]),
        ];
        assert_eq!(cases.map(|(f, _)| f).to_vec(), JoinSpec::fields().collect::<Vec<_>>());
        for (field, bad) in cases {
            let numeric = !["algo", "plan", "degraded_channel", "crash"].contains(&field);
            let odd = if numeric { &ODD[..] } else { &[] };
            for &text in bad.iter().chain(odd) {
                let [by_flag, by_wire] = both_paths(field, text);
                assert!(by_flag.is_some(), "{field} {text}: the flag path took it");
                assert_eq!(by_flag, by_wire, "{field} {text}");
            }
        }
        // Values only JSON has are refused too.
        for value in [Json::Bool(true), Json::Arr(vec![]), Json::obj([("a", Json::Null)])] {
            for field in JoinSpec::fields() {
                let err = JoinSpec::default().read_json(&Json::obj([(field, value.clone())]));
                assert!(err.is_err_and(|e| e.starts_with(field)), "{field} {value}");
            }
        }
        // The edges of each range are in it, on both paths.
        for (field, text) in [
            ("mem_mb", "0.0078125"),
            ("mem_mb", "16384"),
            ("threads", "0"),
            ("threads", "64"),
            ("channels", "1"),
            ("channels", "64"),
            ("retry", "4294967295"),
            ("fault_rate", "1"),
            ("degraded_channel", "0:1"),
            ("plan", "off"),
        ] {
            assert_eq!(both_paths(field, text), [None, None], "{field} {text}");
        }
        let mut spec = JoinSpec::default();
        spec.read("degraded_channel", Raw::Flag("2:1.5")).expect("a spec");
        spec.read("crash", Raw::Wire(&wire("after-commit:3"))).expect("a spec");
        assert_eq!((spec.degraded_channel, spec.crash), (Some((2, 1.5)), Some(CrashPoint::AfterCommit(3))));
    }

    /// Every cross-field rule, with one text whichever surface's reader
    /// filled the spec.
    #[test]
    fn both_surfaces_hold_the_same_rules_across_fields() {
        // `fields` read through the flag path and through the wire path,
        // then validated.
        let rule = |fields: &[(&str, &str)], durable: bool| {
            let mut by_flag = JoinSpec::default();
            for &(field, text) in fields {
                by_flag.read(field, Raw::Flag(text)).expect("a valid value");
            }
            let mut by_wire = JoinSpec::default();
            let request = Json::obj(fields.iter().map(|&(field, text)| (field, wire(text))));
            by_wire.read_json(&request).expect("valid values");
            let [a, b] = [by_flag, by_wire].map(|spec| spec.validate(durable).err());
            assert_eq!(a, b, "{fields:?}");
            a
        };
        for name in Algorithm::NAMES {
            let checkpointable = Algorithm::CHECKPOINTABLE.contains(&name);
            let crashed: &[_] = &[("algo", name), ("crash", "mid-rename")];
            for (fields, durable) in [(crashed, false), (&[("algo", name)], true)] {
                let refusal = rule(fields, durable);
                assert_eq!(refusal.is_none(), checkpointable, "{name}: {refusal:?}");
                if let Some(text) = refusal {
                    assert!(text.contains("pbsm|pbsm-trie|twolayer|s3j|s3j-orig"), "{text}");
                }
            }
            assert_eq!(rule(&[("algo", name)], false), None);
        }
        for plan in ["auto", "explain"] {
            let text = rule(&[("plan", plan), ("crash", "mid-rename")], false);
            assert!(text.as_ref().is_some_and(|t| t.starts_with("a planned join")), "{text:?}");
            assert_eq!(rule(&[("plan", plan)], true), text);
            assert_eq!(rule(&[("plan", plan)], false), None);
        }
        assert_eq!(rule(&[("plan", "off"), ("crash", "mid-rename")], false), None);
        // `crash` and `faults` compose: one fault plan carries both.
        let both = [("crash", "after-commit:2"), ("faults", "7"), ("mem_mb", "0.2")];
        assert_eq!(rule(&both, false), None);
        let mut spec = JoinSpec::default();
        spec.read_json(&Json::obj(both.map(|(field, text)| (field, wire(text))))).expect("valid");
        let r = datagen::named("la_rr", 0.05, 42).expect("dataset").kpes;
        let s = datagen::named("la_st", 0.05, 42 ^ 0xFFFF).expect("dataset").kpes;
        let (join, _) = spec.build(&r, &s, PlanSpace::All, Some(1));
        let disk = join.disk();
        let err = join.try_run_durable_with(&disk, &r, &s, 1, &mut |_, _| {}).unwrap_err();
        assert!(matches!(err.kind, JoinErrorKind::Crashed(CrashPoint::AfterCommit(2))), "{err}");
        assert!(disk.stats().faults_injected > 0, "the crash leg ran without its faults");
    }

    /// The checkpointable names are exactly those a durable run takes, and
    /// a planner choice made by name or directly is the same kind of join.
    #[test]
    fn algorithm_names_agree_with_the_checkpoint_layer_and_the_planner() {
        let mem = 64 * 1024;
        let r = datagen::named("uniform", 0.002, 1).expect("dataset").kpes;
        let s = datagen::named("clustered", 0.002, 2).expect("dataset").kpes;
        let durable: Vec<&str> = Algorithm::NAMES
            .into_iter()
            .filter(|name| {
                let join = SpatialJoin::new(Algorithm::from_name(name, mem).expect("a name"));
                let disk = join.disk();
                match join.try_run_durable_with(&disk, &r, &s, 1, &mut |_, _| {}) {
                    Ok(_) => true,
                    Err(e) => {
                        assert_eq!(e.io().map(|io| io.kind), Some(IoErrorKind::Unsupported));
                        false
                    }
                }
            })
            .collect();
        assert_eq!(durable, Algorithm::CHECKPOINTABLE);

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
            let named = Algorithm::from_name(cand.choice.cli_name(), mem).expect("a name");
            assert_eq!(kind(&named), kind(&Algorithm::from_choice(&cand.choice)));
        }
        // Every name is a configuration, and no two names the same one.
        let mut configs: Vec<String> =
            Algorithm::NAMES.iter().map(|n| format!("{:?}", Algorithm::from_name(n, mem))).collect();
        configs.sort();
        configs.dedup();
        assert_eq!(configs.len(), Algorithm::NAMES.len());
    }

    /// A planned spec runs the planner's pick; an unplanned one its `algo`.
    #[test]
    fn build_runs_the_plan_when_plan_asks() {
        let r = datagen::named("uniform", 0.004, 7).expect("dataset").kpes;
        let spec = JoinSpec { algo: "s3j".to_owned(), threads: 3, ..JoinSpec::default() };
        let (join, plan) = spec.build(&r, &r, PlanSpace::All, None);
        assert!(plan.is_none());
        assert_eq!(join.algorithm().name(), "S3J (replicated)");
        assert_eq!(join.algorithm().threads_used(), 2, "S3J runs at most two lanes");
        let planned = JoinSpec { plan: PlanMode::Auto, ..spec };
        let (join, plan) = planned.build(&r, &r, PlanSpace::Streamable, None);
        let chosen = plan.expect("a plan").chosen().choice;
        assert_eq!(join.algorithm().name(), Algorithm::from_choice(&chosen).name());
        assert_eq!(join.algorithm().threads(), join.algorithm().threads().map(|_| 3));
    }
}
