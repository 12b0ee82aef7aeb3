//! Integration tests of the paper's pipelining argument (§1, §3.1, §5):
//! first-result latency across duplicate-handling strategies, measured in
//! simulated time.

use spatial_join_suite::{Algorithm, SpatialJoin};

fn datasets() -> (Vec<geom::Kpe>, Vec<geom::Kpe>) {
    (
        datagen::sized(&datagen::la_rr_config(81), 0.02).generate(),
        datagen::sized(&datagen::la_st_config(81), 0.02).generate(),
    )
}

/// The central §3.1 claim: the sort phase blocks — its first tuple appears
/// only near the very end — while RPM streams results during the join phase.
#[test]
fn sort_phase_blocks_rpm_streams() {
    let (r, s) = datasets();
    let mem = 48 * 1024;
    // cpu_slowdown = 1: the fractions are then dominated by the simulated
    // (deterministic) I/O meters instead of wall-clock CPU measurements,
    // which wobble under parallel test-suite load.
    let model = storage::DiskModel {
        cpu_slowdown: 1.0,
        ..Default::default()
    };
    let (_, rpm) = SpatialJoin::new(Algorithm::pbsm_rpm(mem))
        .with_disk_model(model)
        .count(&r, &s);
    let (_, sorted) = SpatialJoin::new(Algorithm::pbsm_original(mem))
        .with_disk_model(model)
        .count(&r, &s);

    let rpm_frac = rpm.first_result_seconds().unwrap() / rpm.total_seconds();
    let sort_frac = sorted.first_result_seconds().unwrap() / sorted.total_seconds();
    assert!(
        sort_frac > 0.9,
        "sort phase should block until near the end, got {sort_frac:.2}"
    );
    assert!(
        rpm_frac < sort_frac,
        "RPM ({rpm_frac:.2}) should deliver earlier than the sort phase ({sort_frac:.2})"
    );
}

/// SSSJ pays for both sorts before the first tuple ([Gra 93]'s objection).
#[test]
fn sssj_first_tuple_waits_for_sorting() {
    let (r, s) = datasets();
    let (_, st) = SpatialJoin::new(Algorithm::sssj(16 * 1024)).count(&r, &s);
    let spatialjoin::JoinStats::Sssj(st) = &st else {
        unreachable!()
    };
    let (_, first_io) = st.clock.first_result.as_ref().unwrap();
    assert!(first_io.pages_written >= st.io_sort.pages_written);
}

/// S³J pipelines too once sorting is done: its first result lands before
/// the scan finishes.
#[test]
fn s3j_streams_during_the_scan() {
    let (r, s) = datasets();
    let (_, st) = SpatialJoin::new(Algorithm::s3j_replicated(32 * 1024)).count(&r, &s);
    let first = st.first_result_seconds().unwrap();
    assert!(first < st.total_seconds());
}

/// PR 5 bugfix regression: the first-result probe is the *minimum over
/// emitting tasks* on the pipelined clock, not a merge artifact of worker
/// scheduling — so with `cpu_slowdown = 0` (position = deterministic I/O
/// meters only) the reported latency is bit-identical at every thread
/// count. Before the fix, `--threads 4` could report a first result later
/// (PBSM: max-over-workers merge) or wildly earlier/later (S³J: wall-clock
/// probe) than `--threads 1`.
#[test]
fn first_result_is_thread_count_invariant() {
    let (r, s) = datasets();
    let model = storage::DiskModel {
        cpu_slowdown: 0.0,
        ..Default::default()
    };
    let mem = 48 * 1024;
    for algo in [Algorithm::pbsm_rpm(mem), Algorithm::s3j_replicated(mem)] {
        let first_at = |threads: usize| {
            let (_, st) = SpatialJoin::new(algo.clone().with_threads(threads))
                .with_disk_model(model)
                .count(&r, &s);
            st.first_result_seconds()
                .expect("both joins produce results")
        };
        let t1 = first_at(1);
        let t4 = first_at(4);
        assert!(t1 > 0.0, "{}: first result costs I/O", algo.name());
        assert_eq!(
            t1.to_bits(),
            t4.to_bits(),
            "{}: first-result position must not depend on thread count \
             (threads=1 {t1}, threads=4 {t4})",
            algo.name()
        );
    }
}
