#![recursion_limit = "512"] // the proptest block below overflows the default while expanding

//! Crash recovery, cancellation and deadline propagation through the
//! public durable-run API (`SpatialJoin::try_run_durable_with`).
//!
//! The invariant under test everywhere: the interrupted leg's emissions
//! plus the resumed leg's emissions equal the uninterrupted result set with
//! zero overlap (exactly-once), the resumed run's folded counters equal the
//! uninterrupted run's (duplicate accounting survives the crash), a resume
//! is strictly cheaper in page reads than a cold run, and after the resumed
//! run completes the disk holds exactly the files a never-interrupted run
//! leaves behind (the recovery scan swept every orphan).

use datagen::Adversarial;
use geom::Kpe;
use proptest::prelude::*;
use spatialjoin::{
    Algorithm, CancelToken, CrashPoint, DiskModel, FaultPlan, JoinErrorKind, RetryPolicy, SimDisk,
    SpatialJoin,
};

const MEM: usize = 4 * 1024;

fn workload(seed: u64, count: usize) -> (Vec<Kpe>, Vec<Kpe>) {
    Adversarial { count, seed }.generate_pair()
}

fn crash_disk(point: CrashPoint) -> SimDisk {
    SimDisk::with_default_model()
        .with_faults(FaultPlan::crash_only(0, point), RetryPolicy::default())
}

/// Runs `join` durably on `disk`, collecting emitted pairs as sorted id
/// tuples alongside the outcome.
fn durable_leg(
    join: &SpatialJoin,
    disk: &SimDisk,
    r: &[Kpe],
    s: &[Kpe],
) -> (Vec<(u64, u64)>, Result<spatialjoin::JoinStats, spatialjoin::JoinError>) {
    let mut pairs = Vec::new();
    let res = join.try_run_durable_with(disk, r, s, 7, &mut |a, b| pairs.push((a.0, b.0)));
    pairs.sort_unstable();
    (pairs, res)
}

/// Asserts `first` and `second` are disjoint and their union is `want`.
fn assert_exactly_once(first: &[(u64, u64)], second: &[(u64, u64)], want: &[(u64, u64)], ctx: &str) {
    if let Some(dup) = first.iter().find(|p| second.binary_search(p).is_ok()) {
        panic!("{ctx}: pair {dup:?} emitted by both legs");
    }
    let mut union: Vec<(u64, u64)> = first.iter().chain(second.iter()).copied().collect();
    union.sort_unstable();
    assert_eq!(union, want, "{ctx}: crash+resume legs diverge from uninterrupted run");
}

/// Crash after the second journal commit, resume, and check the full
/// contract: exactly-once emission, folded counters equal to the
/// uninterrupted run's, strictly fewer page reads than a cold run, and a
/// post-completion file census identical to a never-interrupted run's.
#[test]
fn resume_after_crash_is_exactly_once_and_cheaper_than_cold() {
    let (r, s) = workload(11, 140);
    for threads in [1usize, 4] {
        for base in [Algorithm::pbsm_rpm(MEM), Algorithm::s3j_replicated(MEM)] {
            let ctx = format!("{base:?} threads {threads}");
            let join = SpatialJoin::new(base.clone().with_threads(threads));

            // Uninterrupted durable reference run.
            let cold_disk = SimDisk::with_default_model();
            let (want, cold_res) = durable_leg(&join, &cold_disk, &r, &s);
            let cold_stats = cold_res.unwrap_or_else(|e| panic!("{ctx}: cold run failed: {e}"));
            let cold_reads = cold_disk.stats().pages_read;
            assert!(want.len() > 10, "{ctx}: workload too sparse to be meaningful");

            // Leg 1: die right after the second partition commit.
            let disk = crash_disk(CrashPoint::AfterCommit(2));
            let (first, crash_res) = durable_leg(&join, &disk, &r, &s);
            let err = crash_res.expect_err("crash point must fire on this workload");
            assert!(
                matches!(err.kind, JoinErrorKind::Crashed(CrashPoint::AfterCommit(2))),
                "{ctx}: expected injected crash, got {err}"
            );
            assert!(err.is_resumable(), "{ctx}: crash must leave a resumable run");
            assert!(
                !first.is_empty(),
                "{ctx}: two committed partitions must have delivered their pairs"
            );

            // Leg 2: resume on the surviving disk state.
            let before = disk.stats();
            let (second, resume_res) = durable_leg(&join, &disk, &r, &s);
            let stats = resume_res.unwrap_or_else(|e| panic!("{ctx}: resume failed: {e}"));
            let resume_reads = disk.stats().delta(&before).pages_read;

            assert_exactly_once(&first, &second, &want, &ctx);
            assert_eq!(
                (stats.results(), stats.duplicates()),
                (cold_stats.results(), cold_stats.duplicates()),
                "{ctx}: resumed run's folded counters diverge from the uninterrupted run's"
            );
            assert!(
                resume_reads < cold_reads,
                "{ctx}: resume read {resume_reads} pages, cold run {cold_reads} — \
                 skipping committed partitions must save reads"
            );
            assert_eq!(
                disk.file_ids().len(),
                cold_disk.file_ids().len(),
                "{ctx}: completed resume left a different file census than a clean run \
                 (orphans survived, or durable state was lost)"
            );
        }
    }
}

/// A deadline that expires mid-join (some partitions committed, some not)
/// leaves a resumable manifest; resuming without a deadline completes the
/// run exactly-once. Walks a deadline ladder until one lands mid-join.
#[test]
fn deadline_expiry_mid_join_leaves_resumable_run_completing_exactly_once() {
    let (r, s) = workload(5, 140);
    let plain = SpatialJoin::new(Algorithm::pbsm_rpm(MEM));
    let ref_disk = SimDisk::with_default_model();
    let (want, ref_res) = durable_leg(&plain, &ref_disk, &r, &s);
    let ref_stats = ref_res.expect("reference run");

    let mut exercised = false;
    let mut deadline = 0.01f64;
    while deadline < 1e4 {
        let disk = SimDisk::with_default_model();
        let join = SpatialJoin::new(Algorithm::pbsm_rpm(MEM)).with_deadline(deadline);
        let (first, res) = durable_leg(&join, &disk, &r, &s);
        match res {
            Ok(_) => break, // budget generous enough to finish: end of ladder
            Err(e) => {
                assert!(
                    matches!(e.kind, JoinErrorKind::DeadlineExceeded { .. }),
                    "unexpected error under deadline {deadline}: {e}"
                );
                assert!(e.is_resumable(), "deadline expiry must leave a resumable run");
                if first.is_empty() {
                    // Expired before the first commit — not mid-join yet.
                    deadline *= 1.25;
                    continue;
                }
                // Mid-join expiry: resume with no deadline at all.
                let (second, resume_res) = durable_leg(&plain, &disk, &r, &s);
                let stats = resume_res.expect("resume after deadline expiry");
                assert_exactly_once(&first, &second, &want, &format!("deadline {deadline}"));
                assert_eq!(
                    (stats.results(), stats.duplicates()),
                    (ref_stats.results(), ref_stats.duplicates())
                );
                exercised = true;
                break;
            }
        }
    }
    assert!(exercised, "no deadline on the ladder expired mid-join");
}

/// Cancellation during the partition phase aborts before anything commits;
/// the interrupted phase cleans up its own files, the recovery scan sweeps
/// the rest, and a resumed run completes with the same output and the same
/// surviving-file census as a never-cancelled run.
#[test]
fn cancellation_during_partition_phase_leaves_no_orphans_after_recovery() {
    let (r, s) = workload(3, 140);
    let plain = SpatialJoin::new(Algorithm::pbsm_rpm(MEM));
    let clean_disk = SimDisk::with_default_model();
    let (want, clean_res) = durable_leg(&plain, &clean_disk, &r, &s);
    let clean_stats = clean_res.expect("clean run");
    let clean_census = clean_disk.file_ids().len();

    let token = CancelToken::new();
    token.cancel_after_checks(1); // trips on the first partition-phase poll
    let disk = SimDisk::with_default_model();
    let cancelled = SpatialJoin::new(Algorithm::pbsm_rpm(MEM)).with_cancel(token);
    let (first, res) = durable_leg(&cancelled, &disk, &r, &s);
    let err = res.expect_err("cancellation must interrupt the run");
    assert!(matches!(err.kind, JoinErrorKind::Cancelled), "got {err}");
    assert_eq!(err.phase, "partition", "token was armed to trip during partitioning");
    assert!(err.is_resumable());
    assert!(
        first.is_empty(),
        "nothing was committed before the partition phase was cancelled"
    );

    // Resume with a fresh (untripped) control: the recovery scan runs first.
    let (second, resume_res) = durable_leg(&plain, &disk, &r, &s);
    let stats = resume_res.expect("resume after cancellation");
    assert_eq!(second, want, "restarted run must reproduce the full result set");
    assert_eq!(
        (stats.results(), stats.duplicates()),
        (clean_stats.results(), clean_stats.duplicates())
    );
    assert_eq!(
        disk.file_ids().len(),
        clean_census,
        "orphan files survived the recovery scan"
    );
}

/// A consumer that cancels from inside the output sink, after the `k`-th
/// pair: the pooled executors stop claiming units at the trip and their sink
/// may never be handed another unit to poll the token on, which used to end
/// the run `Ok` with a fraction of the result. Whatever the interleaving,
/// the outcome is `Cancelled` (resumable) or the full set — never `Ok` with
/// fewer pairs. ~40 evenly spaced `k` per cell (every 7th takes minutes).
#[test]
fn cancel_from_the_output_sink_never_passes_a_partial_result_for_complete() {
    let (r, s) = workload(3, 200);
    for base in [
        Algorithm::pbsm_rpm(MEM),
        Algorithm::two_layer(MEM),
        Algorithm::s3j_replicated(MEM),
    ] {
        let want = SpatialJoin::new(base.clone()).try_run_with(&r, &s, &mut |_, _| {});
        let total = want.expect("uninterrupted run").results();
        assert!(total > 1000, "{base:?}: workload too sparse to be meaningful");
        for threads in [1usize, 2, 4] {
            for k in (1..=total).step_by(total as usize / 40) {
                let token = CancelToken::new();
                let join = SpatialJoin::new(base.clone().with_threads(threads))
                    .with_cancel(token.clone());
                let mut emitted = 0u64;
                let res = join.try_run_with(&r, &s, &mut |_, _| {
                    emitted += 1;
                    if emitted == k {
                        token.cancel();
                    }
                });
                let ctx = format!("{base:?} threads {threads} cancel after pair {k}");
                match res {
                    Ok(_) => assert_eq!(emitted, total, "{ctx}: Ok with a partial result"),
                    Err(e) => {
                        assert!(matches!(e.kind, JoinErrorKind::Cancelled), "{ctx}: got {e}");
                        assert!(e.is_resumable(), "{ctx}");
                        assert!((k..=total).contains(&emitted), "{ctx}: emitted {emitted}");
                    }
                }
            }
        }
    }
}

/// `with_disk_model`, `with_faults` and `with_retry` mean on a durable run
/// what they mean on a plain one: the run's disk comes from the join. The
/// durable entry used to take whatever disk the caller built by hand and
/// ignore all three.
#[test]
fn the_durable_path_honours_the_joins_own_disk() {
    let (r, s) = workload(17, 150);
    let model = DiskModel { channels: 4, ..DiskModel::default() };
    let join = SpatialJoin::new(Algorithm::pbsm_rpm(MEM))
        .with_disk_model(model)
        .with_faults(FaultPlan::recoverable(7));
    let mut want: Vec<(u64, u64)> = join
        .try_run(&r, &s)
        .expect("recoverable faults are cured by retries")
        .pairs
        .iter()
        .map(|(a, b)| (a.0, b.0))
        .collect();
    want.sort_unstable();
    let (got, res) = durable_leg(&join, &join.disk(), &r, &s);
    let stats = res.expect("durable run under recoverable faults");
    assert_eq!(stats.model().channels, 4);
    assert!(stats.io_total().faults_injected > 0, "the join's fault plan never fired");
    assert_eq!(got, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite property: for random workloads and random crash points, a
    /// crash + resume is set-equal and duplicate-accounting-equal to the
    /// uninterrupted run, at thread counts 1 and 4, for both checkpointable
    /// algorithm families. Delegates the three-leg check to the
    /// conformance oracle's `crash` transform cell.
    #[test]
    fn prop_random_crash_points_resume_exactly_once(
        seed in 0u64..1000,
        kind in 0u8..3,
        n in 0u32..6,
        pick_s3j in any::<bool>(),
        four_threads in any::<bool>(),
    ) {
        let point = match kind {
            0 => CrashPoint::AfterCommit(n + 1),
            1 => CrashPoint::MidPartition(n),
            _ => CrashPoint::MidRename,
        };
        let algo = if pick_s3j {
            conformance::AlgoId::S3jReplicated
        } else {
            conformance::AlgoId::PbsmRpmList
        };
        let cfg = conformance::RunConfig {
            mem: 2048,
            threads: if four_threads { 4 } else { 1 },
            ..conformance::RunConfig::default()
        };
        let (r, s) = Adversarial { count: 90, seed }.generate_pair();
        let verdict =
            conformance::check_one(algo, conformance::Transform::Crash { point }, &cfg, &r, &s);
        prop_assert!(verdict.is_none(), "{:?}", verdict);
    }
}
