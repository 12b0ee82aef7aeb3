//! Satellite property tests (observability PR): per-phase metric
//! accounting sums *exactly* to the run totals — under fault injection, at
//! thread counts {1, 2, 4}, and across a crash/resume pair — and the
//! exported [`MetricsReport`]'s own reconciliation gate passes everywhere.
//!
//! "Exactly" means field-for-field [`IoStats`] equality (the struct is
//! `Eq`) and bit-exact f64 equality for the CPU fold: the report builder
//! sums phases in the same order as each stats struct's own accessor, so
//! any drift is a real accounting bug, not float noise.

use datagen::Adversarial;
use geom::Kpe;
use spatialjoin::{
    Algorithm, CrashPoint, FaultPlan, JoinErrorKind, JoinStats, RetryPolicy, SimDisk, SpatialJoin,
};
use storage::{IoStats, Json};

const MEM: usize = 8 * 1024;

fn workload(seed: u64, count: usize) -> (Vec<Kpe>, Vec<Kpe>) {
    Adversarial { count, seed }.generate_pair()
}

/// Field-for-field sum of every exported phase meter.
fn phase_sum(st: &JoinStats) -> IoStats {
    st.phases()
        .iter()
        .fold(IoStats::default(), |acc, p| acc.plus(&p.io))
}

/// The full reconciliation contract for one completed run.
fn assert_reconciles(st: &JoinStats, threads: usize, ctx: &str) {
    assert_eq!(
        phase_sum(st),
        st.io_total(),
        "{ctx}: per-phase I/O does not sum exactly to io_total()"
    );
    if let Some(c) = st.candidates() {
        assert_eq!(
            c,
            st.results() + st.duplicates(),
            "{ctx}: candidate accounting leak"
        );
    }
    let report = st.metrics_report("reconciliation-test", threads);
    if let Err(e) = report.reconcile() {
        panic!("{ctx}: exported report fails its own gate: {e}");
    }
}

/// Every algorithm family × dedup mode × thread count × fault plan: the
/// per-phase meters (including PBSM's sort-phase dedup staging I/O) sum
/// exactly to the totals and the exported report reconciles.
#[test]
fn phase_meters_sum_exactly_under_faults_and_threads() {
    let (r, s) = workload(41, 160);
    let algos = [
        Algorithm::pbsm_rpm(MEM),
        Algorithm::pbsm_original(MEM), // sort-phase dedup: exercises io_dedup staging
        Algorithm::s3j_replicated(MEM),
        Algorithm::sssj(MEM),
        Algorithm::shj(MEM),
    ];
    for base in algos {
        let threads: &[usize] = match base.threads() {
            Some(_) => &[1, 2, 4],
            None => &[1], // single-sweep baselines have no thread knob
        };
        // Only the partition-based joins have fallible code paths; a fault
        // plan on a baseline is a typed `Unsupported` configuration error.
        let plans: &[Option<FaultPlan>] = match base.threads() {
            Some(_) => &[None, Some(FaultPlan::recoverable(9))],
            None => &[None],
        };
        for &t in threads {
            for &plan in plans {
                let ctx = format!("{} threads={t} faults={}", base.name(), plan.is_some());
                let mut join = SpatialJoin::new(base.clone().with_threads(t));
                if let Some(p) = plan {
                    join = join.with_faults(p);
                }
                let (_, st) = join.count(&r, &s);
                if plan.is_some() {
                    assert!(
                        st.io_total().faults_injected > 0 || !matches!(base, Algorithm::Pbsm(_)),
                        "{ctx}: fault plan never fired on the PBSM workload"
                    );
                }
                assert_reconciles(&st, t, &ctx);
            }
        }
    }
}

/// Thread-count invariance of the deterministic meters: the phase sums at
/// threads 1, 2 and 4 are identical (the parallel executor redistributes
/// work, it must not re-account it), faults included.
#[test]
fn phase_sums_are_thread_invariant() {
    let (r, s) = workload(17, 160);
    for base in [Algorithm::pbsm_rpm(MEM), Algorithm::s3j_replicated(MEM)] {
        let sum_at = |t: usize| {
            let (_, st) = SpatialJoin::new(base.clone().with_threads(t))
                .with_faults(FaultPlan::recoverable(3))
                .count(&r, &s);
            (phase_sum(&st), st.results(), st.duplicates())
        };
        let one = sum_at(1);
        assert_eq!(one, sum_at(2), "{}: threads=2 diverges", base.name());
        assert_eq!(one, sum_at(4), "{}: threads=4 diverges", base.name());
    }
}

/// Crash/resume: each leg's report reconciles on its own, and the pair
/// together accounts for exactly the uninterrupted run — emitted pairs sum
/// with zero overlap and the resumed run's folded counters (results,
/// duplicates, candidates) equal the cold run's.
#[test]
fn metrics_reconcile_across_a_crash_resume_pair() {
    let (r, s) = workload(23, 140);
    for threads in [1usize, 4] {
        for base in [Algorithm::pbsm_rpm(4 * 1024), Algorithm::s3j_replicated(4 * 1024)] {
            let ctx = format!("{} threads={threads}", base.name());
            let join = SpatialJoin::new(base.clone().with_threads(threads));

            // Uninterrupted durable reference.
            let cold_disk = SimDisk::with_default_model();
            let mut want = Vec::new();
            let cold = join
                .try_run_durable_with(&cold_disk, &r, &s, 7, &mut |a, b| want.push((a.0, b.0)))
                .unwrap_or_else(|e| panic!("{ctx}: cold run failed: {e}"));
            want.sort_unstable();
            assert_reconciles(&cold, threads, &format!("{ctx} [cold]"));

            // Leg 1: crash after the second journal commit.
            let disk = SimDisk::with_default_model().with_faults(
                FaultPlan::crash_only(0, CrashPoint::AfterCommit(2)),
                RetryPolicy::default(),
            );
            let mut first = Vec::new();
            let err = join
                .try_run_durable_with(&disk, &r, &s, 7, &mut |a, b| first.push((a.0, b.0)))
                .expect_err("crash point must fire");
            assert!(
                matches!(err.kind, JoinErrorKind::Crashed(_)),
                "{ctx}: {err}"
            );
            first.sort_unstable();

            // Leg 2: resume; its exported report must reconcile even though
            // the disk meters carry the crashed leg's charges (run-relative
            // accounting).
            let mut second = Vec::new();
            let resumed = join
                .try_run_durable_with(&disk, &r, &s, 7, &mut |a, b| second.push((a.0, b.0)))
                .unwrap_or_else(|e| panic!("{ctx}: resume failed: {e}"));
            second.sort_unstable();
            assert_reconciles(&resumed, threads, &format!("{ctx} [resume]"));

            // The pair sums to the uninterrupted run.
            let mut union: Vec<(u64, u64)> = first.iter().chain(second.iter()).copied().collect();
            union.sort_unstable();
            assert_eq!(union, want, "{ctx}: crash+resume pairs diverge");
            assert!(
                first.iter().all(|p| second.binary_search(p).is_err()),
                "{ctx}: a pair was emitted by both legs"
            );
            assert_eq!(
                (resumed.results(), resumed.duplicates(), resumed.candidates()),
                (cold.results(), cold.duplicates(), cold.candidates()),
                "{ctx}: resumed folded counters diverge from the cold run's"
            );
        }
    }
}

/// The exported JSON itself carries the reconciled numbers: schema version,
/// algorithm label, thread count, and a counters block whose results field
/// matches the stats accessor.
#[test]
fn exported_json_matches_the_stats_surface() {
    let (r, s) = workload(7, 120);
    let (_, st) = SpatialJoin::new(Algorithm::pbsm_rpm(MEM).with_threads(2)).count(&r, &s);
    let report = st.metrics_report("PBSM (reference point)", 2);
    report.reconcile().expect("report must reconcile");
    let doc = Json::parse(&report.to_json()).expect("the exported report is JSON");
    let count = |key: &str| doc.get(key).and_then(Json::as_u64);
    let seconds = |key: &str| doc.get(key).and_then(Json::as_f64);
    assert_eq!(count("schema_version"), Some(2));
    assert_eq!(doc.get("algo").and_then(Json::as_str), Some("PBSM (reference point)"));
    assert_eq!(count("threads"), Some(2));
    assert_eq!(count("channels"), Some(1));
    assert_eq!(count("results"), Some(st.results()));
    assert_eq!(count("duplicates"), Some(st.duplicates()));
    assert_eq!(count("candidates"), st.candidates());
    // Seconds survive the text bit for bit.
    assert_eq!(seconds("io_parallel_seconds"), Some(report.io_parallel_seconds));
    assert_eq!(seconds("prefetch_hidden_seconds"), Some(report.prefetch_hidden_seconds));
    assert_eq!(seconds("total_seconds"), Some(report.total_seconds));
    let pages = |io: &Json| io.get("pages_read").and_then(Json::as_u64);
    assert_eq!(doc.get("io_shared").and_then(pages), Some(report.io_shared.pages_read));
    let channels = doc.get("io_channels").and_then(Json::as_arr).expect("io_channels");
    assert_eq!(channels.len(), 1);
    assert_eq!(pages(&channels[0]), Some(report.io_channels[0].pages_read));
}

/// The run driver logs one `partition-done` event per delivered unit, after
/// its delivery, so a trace does not depend on the thread count: same units
/// in the same order, same attributes, same simulated timestamp — plain and
/// durable, for both of PBSM's online dedup modes and, where S³J's unit is
/// the discovered partition (durable runs), for S³J too.
#[test]
fn partition_events_are_thread_invariant() {
    use spatialjoin::{DiskModel, Recorder};
    let (r, s) = workload(29, 200);
    let mem = 2 * 1024; // about ten partitions
    let model = DiskModel { cpu_slowdown: 0.0, ..DiskModel::default() };
    let events = |algo: &Algorithm, threads: usize, durable: bool| {
        let recorder = Recorder::shared();
        let join = SpatialJoin::new(algo.clone().with_threads(threads))
            .with_disk_model(model)
            .with_recorder(recorder.clone());
        let res = if durable {
            join.try_run_durable_with(&join.disk(), &r, &s, 5, &mut |_, _| {})
        } else {
            join.try_run_with(&r, &s, &mut |_, _| {})
        };
        res.unwrap_or_else(|e| panic!("{} threads={threads}: {e}", algo.name()));
        let mut done = recorder.events();
        done.retain(|e| e.name == "partition-done");
        done
    };
    let cases = [
        (Algorithm::pbsm_rpm(mem), false),
        (Algorithm::pbsm_rpm(mem), true),
        (Algorithm::two_layer(mem), false),
        (Algorithm::two_layer(mem), true),
        (Algorithm::s3j_replicated(mem), true),
    ];
    for (algo, durable) in cases {
        let ctx = format!("{} durable={durable}", algo.name());
        let one = events(&algo, 1, durable);
        assert!(one.len() > 3, "{ctx}: only {} units — nothing to compare", one.len());
        assert!(one.iter().any(|e| e.attrs.contains(&("committed", u64::from(durable)))));
        for key in ["partition", "results", "pages_read", "pages_written"] {
            assert!(one[0].attrs.iter().any(|(k, _)| *k == key), "{ctx}: no `{key}` key");
        }
        assert_eq!(one, events(&algo, 4, durable), "{ctx}: threads=4 trace diverges");
    }
}

/// The clock accessors moved from five stats structs onto `RunClock`; the
/// formulae must not have. One pinned J1 run per family under the
/// deterministic clock (`cpu_slowdown = 0`), at one and four channels: the
/// bits are the ones the per-struct copies produced before the move.
#[test]
fn clock_accessors_are_pinned_to_their_pre_runclock_values() {
    use spatialjoin::DiskModel;
    let r = datagen::sized(&datagen::la_rr_config(7), 0.02).generate();
    let s = datagen::sized(&datagen::la_st_config(7), 0.02).generate();
    let mem = 64 * 1024;
    // (family, channels, [scaled_cpu, io, io_parallel, prefetch_hidden,
    // total], [first_result, first_result_io]) as f64 bit patterns.
    type Golden = (Algorithm, usize, [u64; 5], [Option<u64>; 2]);
    let first = |bits: u64| [Some(bits), Some(bits)];
    let golden: [Golden; 10] = [
        (Algorithm::pbsm_rpm(mem), 1, [0x0, 0x3fde1b089a027526, 0x3fde1b089a027526, 0x0, 0x3fde1b089a027526], first(4600243272494164948)),
        (Algorithm::pbsm_rpm(mem), 4, [0x0, 0x3fde1b089a027526, 0x3fc26e978d4fdf3c, 0x0, 0x3fc26e978d4fdf3c], first(4600243272494164948)),
        (Algorithm::s3j_replicated(mem), 1, [0x0, 0x4009c0ebedfa43ff, 0x4009c0ebedfa43ff, 0x0, 0x4009c0ebedfa43ff], first(4613833334729718157)),
        (Algorithm::s3j_replicated(mem), 4, [0x0, 0x4009c0ebedfa43ff, 0x3ff25460aa64c2f8, 0x0, 0x3ff25460aa64c2f8], first(4613833334729718157)),
        (Algorithm::sssj(mem), 1, [0x0, 0x3ffa1cac083126ea, 0x3ffa1cac083126ea, 0x0, 0x3ffa1cac083126ea], first(4609639582756710751)),
        (Algorithm::sssj(mem), 4, [0x0, 0x3ffa1cac083126ea, 0x3ffa1cac083126ea, 0x0, 0x3ffa1cac083126ea], first(4609639582756710751)),
        (Algorithm::shj(mem), 1, [0x0, 0x3fe0ff972474538f, 0x3fe0ff972474538f, 0x0, 0x3fe0ff972474538f], [None, None]),
        (Algorithm::shj(mem), 4, [0x0, 0x3fe0ff972474538f, 0x3fe0ff972474538f, 0x0, 0x3fe0ff972474538f], [None, None]),
        (Algorithm::quadtree(1 << 20), 1, [0; 5], [None, None]),
        (Algorithm::quadtree(1 << 20), 4, [0; 5], [None, None]),
    ];
    for (algo, channels, times, firsts) in golden {
        let ctx = format!("{} channels={channels}", algo.name());
        let model = DiskModel { cpu_slowdown: 0.0, channels, ..DiskModel::default() };
        let (_, st) = SpatialJoin::new(algo.with_threads(1))
            .with_disk_model(model)
            .count(&r, &s);
        let got = [
            st.scaled_cpu_seconds(),
            st.io_seconds(),
            st.io_parallel_seconds(),
            st.prefetch_hidden_seconds(),
            st.total_seconds(),
        ];
        assert_eq!(got.map(f64::to_bits), times, "{ctx}: {got:?}");
        let got = [st.first_result_seconds(), st.first_result_io_seconds()];
        assert_eq!(got.map(|v| v.map(f64::to_bits)), firsts, "{ctx}: {got:?}");
    }
}
