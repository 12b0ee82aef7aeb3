//! The metric tables — names, units, direction and bounds — and the result
//! line. `BENCHMARK.json` repeats these tables; a unit test keeps the two in
//! step.

use sjoind::Json;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before
    /// `compare` calls it a regression.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

/// Reported by every workload from the untraced run.
pub const END_TO_END: [EndToEnd; 9] = [
    lower("pbsm_ms", "ms", 0.25),
    lower("pbsm_trie_ms", "ms", 0.25),
    lower("twolayer_ms", "ms", 0.25),
    lower("s3j_ms", "ms", 0.25),
    lower("durable_ms", "ms", 0.25),
    lower("auto_ms", "ms", 0.25),
    EndToEnd {
        name: "pairs_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    lower("peak_rss_mb", "MiB", 0.25),
    lower("setup_s", "s", 0.25),
];

/// `(name, unit, higher is better)` of every per-layer metric, reported by
/// every workload from the traced run. Layer = crate name.
pub const PER_LAYER: [(&str, &str, bool); 72] = [
    ("datagen.ns_per_rect", "ns", false),
    ("geom.rpm_ns", "ns", false),
    ("sfc.hilbert_ns", "ns", false),
    ("sfc.zorder_ns", "ns", false),
    ("sfc.mxcif_ns", "ns", false),
    ("pbsm.assign_ns_per_rect", "ns", false),
    ("pbsm.partition_ms", "ms", false),
    ("pbsm.repart_ms", "ms", false),
    ("pbsm.join_ms", "ms", false),
    ("pbsm.self_ms", "ms", false),
    ("pbsm.first_pair_ms", "ms", false),
    ("pbsm.twolayer_partition_ms", "ms", false),
    ("pbsm.twolayer_repart_ms", "ms", false),
    ("pbsm.twolayer_join_ms", "ms", false),
    ("pbsm.twolayer_self_ms", "ms", false),
    ("pbsm.copies_per_rect", "ratio", false),
    ("pbsm.tests_per_result", "ratio", false),
    ("pbsm.twolayer_tests_per_result", "ratio", false),
    ("pbsm.dup_per_result", "ratio", false),
    ("sweep.nested_ns_per_test", "ns", false),
    ("sweep.list_ns_per_test", "ns", false),
    ("sweep.trie_ns_per_test", "ns", false),
    ("sweep.list_ms", "ms", false),
    ("sweep.trie_ms", "ms", false),
    ("sweep.list_tests_per_result", "ratio", false),
    ("sweep.trie_tests_per_result", "ratio", false),
    ("s3j.partition_ms", "ms", false),
    ("s3j.sort_ms", "ms", false),
    ("s3j.join_ms", "ms", false),
    ("s3j.self_ms", "ms", false),
    ("s3j.copies_per_rect", "ratio", false),
    ("s3j.dup_per_result", "ratio", false),
    ("storage.page_write_ns", "ns", false),
    ("storage.page_read_ns", "ns", false),
    ("storage.pages_per_rect", "ratio", false),
    ("storage.requests_per_rect", "ratio", false),
    ("storage.sort_ns_per_record", "ns", false),
    ("storage.commit_us", "us", false),
    ("storage.snapshot_ms", "ms", false),
    ("storage.lease_ns", "ns", false),
    ("storage.recorder_overhead_pct", "%", false),
    ("storage.reconcile_us", "us", false),
    ("parallel.speedup_t2", "ratio", true),
    ("parallel.task_us", "us", false),
    ("core.fingerprint_ms", "ms", false),
    ("estimate.profile_ms", "ms", false),
    ("estimate.plan_us", "us", false),
    ("estimate.regret_pct", "%", false),
    ("sssj.join_ms", "ms", false),
    ("shj.join_ms", "ms", false),
    ("sjoind.overhead_ms", "ms", false),
    ("sjoind.stream_ns_per_pair", "ns", false),
    ("sjoind.json_parse_ns_per_byte", "ns", false),
    ("sjoind.ping_us", "us", false),
    ("sjoind.cache_saving_ms", "ms", true),
    ("sjoind.register_ms", "ms", false),
    ("sjoind.cache_hits", "count", true),
    ("sjoind.admitted", "count", true),
    ("sjoind.shed", "count", false),
    ("bench.trace_overhead_pct", "%", false),
    ("bench.rounds", "count", true),
    ("bench.failed_share", "ratio", false),
    ("sim.pbsm_io_s", "sim_s", false),
    ("sim.pbsm_trie_io_s", "sim_s", false),
    ("sim.twolayer_io_s", "sim_s", false),
    ("sim.s3j_io_s", "sim_s", false),
    ("sim.durable_io_s", "sim_s", false),
    ("sim.auto_io_s", "sim_s", false),
    ("sim.io_s", "sim_s", false),
    ("wire.first_line_ms", "ms", false),
    ("wire.stream_ms", "ms", false),
    ("wire.parse_ms", "ms", false),
];

/// Measured values in reporting order.
#[derive(Debug, Default, Clone)]
pub struct Values(pub Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.push((name.to_owned(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric a `{value, unit}` object.
pub fn result_line(
    values: &Values,
    units: impl Fn(&str) -> Option<&'static str>,
    attempted: u64,
    failed: u64,
) -> Json {
    let mut correct = failed == 0 && attempted > 0;
    let mut metrics = Vec::new();
    for (name, value) in &values.0 {
        let unit = units(name).unwrap_or_else(|| panic!("metric {name} is in no table"));
        // A value that is not a number cannot be reported as one; the run
        // is then not a measurement.
        correct &= value.is_finite();
        metrics.push((
            name.clone(),
            Json::Obj(vec![
                (
                    "value".to_owned(),
                    Json::Num(if value.is_finite() { *value } else { 0.0 }),
                ),
                ("unit".to_owned(), Json::Str(unit.to_owned())),
            ]),
        ));
    }
    Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::Num(attempted as f64)),
        ("failed".to_owned(), Json::Num(failed as f64)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ])
}

pub fn end_to_end_unit(name: &str) -> Option<&'static str> {
    END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit)
}

pub fn per_layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_service_parser() {
        let mut v = Values::default();
        v.set("pbsm_ms", 116.35411400000001);
        v.set("pairs_per_s", 1234567.0);
        v.set("setup_s", 2.5e-3);
        let line = result_line(&v, end_to_end_unit, 180, 0).to_string();
        assert!(!line.contains('\n'));
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(back.get("attempted").and_then(Json::as_u64), Some(180));
        assert_eq!(back.get("failed").and_then(Json::as_u64), Some(0));
        let Json::Obj(top) = &back else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = back.get("metrics").unwrap();
        let pbsm = m.get("pbsm_ms").unwrap();
        assert_eq!(
            pbsm.get("value").and_then(Json::as_f64),
            Some(116.35411400000001)
        );
        assert_eq!(pbsm.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(
            m.get("setup_s")
                .and_then(|s| s.get("value"))
                .and_then(Json::as_f64),
            Some(2.5e-3)
        );
    }

    #[test]
    fn a_failed_op_or_a_non_number_makes_the_run_incorrect() {
        let mut v = Values::default();
        v.set("pbsm_ms", 1.0);
        let failed = result_line(&v, end_to_end_unit, 10, 1);
        assert_eq!(failed.get("correct").and_then(Json::as_bool), Some(false));
        v.set("s3j_ms", f64::NAN);
        let nan = result_line(&v, end_to_end_unit, 10, 0);
        assert_eq!(nan.get("correct").and_then(Json::as_bool), Some(false));
        assert!(Json::parse(&nan.to_string()).is_ok());
    }

    /// `BENCHMARK.json` is what the outside world reads; the tables above
    /// are what the program prints and `compare` judges by.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text = |row: &Json, key: &str| row.get(key).and_then(Json::as_str).unwrap().to_owned();

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(row, "name"), m.name);
            assert_eq!(text(row, "unit"), m.unit);
            assert_eq!(
                text(row, "better") == "higher",
                m.higher_is_better,
                "{}",
                m.name
            );
            assert_eq!(
                row.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, (name, unit, higher)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(row, "name"), *name);
            assert_eq!(text(row, "unit"), *unit);
            assert_eq!(text(row, "better") == "higher", *higher, "{name}");
        }
        let workloads: Vec<String> = rows("workloads").iter().map(|w| text(w, "name")).collect();
        let ours: Vec<&str> = crate::workload::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
