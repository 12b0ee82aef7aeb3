//! Reproducibility guarantees: every experiment binary's claim to be
//! regenerable rests on these.

use spatial_join_suite::{Algorithm, JoinStats, Recorder, SpatialJoin};

#[test]
fn same_seed_same_dataset() {
    let a = datagen::sized(&datagen::la_rr_config(99), 0.01).generate();
    let b = datagen::sized(&datagen::la_rr_config(99), 0.01).generate();
    assert_eq!(a, b);
    let c = datagen::sized(&datagen::la_rr_config(100), 0.01).generate();
    assert_ne!(a, c);
}

/// Deterministic work counters: reruns agree not just on results but on
/// every I/O and comparison count (the host clock's CPU timings are the only
/// nondeterministic stats).
#[test]
fn reruns_have_identical_counters() {
    let r = datagen::sized(&datagen::la_rr_config(7), 0.008).generate();
    let s = datagen::sized(&datagen::la_st_config(7), 0.008).generate();
    for algo in [
        Algorithm::pbsm_rpm(24 * 1024),
        Algorithm::pbsm_original(24 * 1024),
        Algorithm::s3j_replicated(24 * 1024),
        Algorithm::sssj(24 * 1024),
        Algorithm::shj(24 * 1024),
    ] {
        let name = algo.name();
        let join = SpatialJoin::new(algo);
        let (n1, st1) = join.count(&r, &s);
        let (n2, st2) = join.count(&r, &s);
        assert_eq!(n1, n2, "{name} result count varies");
        assert_eq!(st1.io_total(), st2.io_total(), "{name} I/O varies");
        match (&st1, &st2) {
            (JoinStats::Pbsm(a), JoinStats::Pbsm(b)) => {
                assert_eq!(a.join_counters, b.join_counters);
                assert_eq!(a.candidates, b.candidates);
                assert_eq!(a.duplicates, b.duplicates);
                assert_eq!((a.copies_r, a.copies_s), (b.copies_r, b.copies_s));
            }
            (JoinStats::S3j(a), JoinStats::S3j(b)) => {
                assert_eq!(a.join_counters, b.join_counters);
                assert_eq!(a.histogram_r, b.histogram_r);
                assert_eq!(a.sort_runs, b.sort_runs);
            }
            (JoinStats::Sssj(a), JoinStats::Sssj(b)) => {
                assert_eq!(a.join_counters, b.join_counters);
                assert_eq!(a.peak_status, b.peak_status);
            }
            (JoinStats::Shj(a), JoinStats::Shj(b)) => {
                assert_eq!(a.join_counters, b.join_counters);
                assert_eq!(a.probe_copies, b.probe_copies);
            }
            _ => unreachable!("mismatched stats variants"),
        }
    }
}

/// Result *pairs* (not just counts) are identical across reruns and
/// independent of the output ordering assumption.
#[test]
fn rerun_pairs_identical() {
    let r = datagen::sized(&datagen::la_rr_config(8), 0.006).generate();
    let s = datagen::sized(&datagen::la_st_config(8), 0.006).generate();
    let join = SpatialJoin::new(Algorithm::pbsm_rpm(16 * 1024));
    let a = join.run(&r, &s).pairs;
    let b = join.run(&r, &s).pairs;
    assert_eq!(a, b, "even the emission order is deterministic");
}

/// The simulated clock is deterministic: identical runs report identical
/// io_seconds (cpu_seconds may differ — that is the host clock).
#[test]
fn io_seconds_deterministic() {
    let r = datagen::sized(&datagen::la_rr_config(9), 0.006).generate();
    let s = datagen::sized(&datagen::la_st_config(9), 0.006).generate();
    let join = SpatialJoin::new(Algorithm::s3j_replicated(16 * 1024));
    let (_, st1) = join.count(&r, &s);
    let (_, st2) = join.count(&r, &s);
    assert_eq!(st1.io_seconds().to_bits(), st2.io_seconds().to_bits());
}

/// The simulated clock is a function of the counters alone: CPU is counted
/// work priced by one table, and a pooled phase replays the pool's claim
/// rule. So at the default model — live CPU costing — two runs of each of
/// the five families give bit-identical times, the same reconciled metrics
/// document (less the host clock's `cpu_seconds` fields) and the same span
/// file, at every thread count; and more threads do not make PBSM slower.
/// S³J's scan runs on one thread, so it gives the same times, document
/// (less `threads`) and span file at every thread count.
#[test]
fn the_priced_timeline_is_bit_identical_on_rerun_at_every_thread_count() {
    let r = datagen::sized(&datagen::la_rr_config(5), 0.01).generate();
    let s = datagen::sized(&datagen::la_st_config(5), 0.01).generate();
    let mem = 24 * 1024;
    for algo in [
        Algorithm::pbsm_rpm(mem),
        Algorithm::s3j_replicated(mem),
        Algorithm::sssj(mem),
        Algorithm::shj(mem),
        Algorithm::quadtree(1 << 20),
    ] {
        let name = algo.name();
        let mut runs = Vec::new();
        for threads in [1usize, 2, 4] {
            let run = || {
                let recorder = Recorder::shared();
                let join = SpatialJoin::new(algo.clone().with_threads(threads))
                    .with_recorder(recorder.clone());
                let (_, st) = join.count(&r, &s);
                let mut report = st.metrics_report(name, threads);
                report.reconcile().expect("reconciles");
                report.cpu_seconds = 0.0;
                report.phases.iter_mut().for_each(|p| p.cpu_seconds = 0.0);
                report.threads = 1;
                let times = [Some(st.total_seconds()), st.first_result_seconds()];
                (times.map(|t| t.map(f64::to_bits)), report.to_json(), recorder.to_json())
            };
            let first = run();
            assert_eq!(first, run(), "{name} threads {threads}: a rerun moved the clock");
            assert!(first.0[0].is_some_and(|t| f64::from_bits(t) > 0.0), "{name}");
            runs.push(first);
        }
        let total = |i: usize| f64::from_bits(runs[i].0[0].unwrap_or(0));
        assert!(total(2) <= total(0), "{name}: 4 threads slower than 1");
        if matches!(algo, Algorithm::S3j(_)) {
            assert_eq!(runs[0], runs[1], "{name}: threads 2 moved the timeline");
            assert_eq!(runs[0], runs[2], "{name}: threads 4 moved the timeline");
        }
    }
}
