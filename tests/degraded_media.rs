//! Degraded-media integration tests: the quarantine-recompute contract.
//!
//! A **persistent** fault plan damages specific sectors for the whole run —
//! re-reads always fail, so the retry ladder cannot cure them. The join
//! must instead *quarantine* the damaged partition/level file and recompute
//! its contents from the source relations (which the paper's cost model
//! reads for free). Three properties are pinned here, across threads
//! {1, 4} × I/O channels {1, 4}:
//!
//! * **exactness** — a run that recovered via quarantine emits the
//!   bit-identical result set of the fault-free run, with the duplicate
//!   accounting identity intact;
//! * **economy** — recovery in place reads strictly fewer pages than a
//!   cold rerun: abandoning the run and starting over pays the full clean
//!   read volume *again* on top of the pages already read, so the
//!   recovering run's total must stay under `2 x clean`;
//! * **typed surfaces** — when a run cannot recover (e.g. the budget-less
//!   scan ablation), it dies with a persistent-kind [`IoError`], never a
//!   silent wrong answer.
//!
//! A fourth relation covers ENOSPC: a disk capped at a page budget forces
//! the fallback ladder (fewer partitions, ultimately the in-memory plan),
//! which must still produce the exact result. A fifth covers damage that
//! appears between a crash and its resume: S³J's scan must quarantine a
//! sorted level file it had partly read, exactly once across both legs.

use spatialjoin::s3j::S3jConfig;
use spatialjoin::{
    Algorithm, CrashPoint, DiskModel, FaultPlan, JoinErrorKind, JoinStats, RetryPolicy, SimDisk,
    SpatialJoin,
};

type Pairs = Vec<(u64, u64)>;

fn workload() -> (Vec<geom::Kpe>, Vec<geom::Kpe>) {
    datagen::Adversarial { count: 120, seed: 3 }.generate_pair()
}

fn run(
    algo: Algorithm,
    channels: usize,
    plan: Option<FaultPlan>,
) -> Result<(Pairs, JoinStats), spatialjoin::JoinError> {
    let mut join = SpatialJoin::new(algo).with_disk_model(DiskModel {
        channels,
        ..DiskModel::default()
    });
    if let Some(plan) = plan {
        join = join.with_faults(plan);
    }
    let out = join.try_run(&workload().0, &workload().1)?;
    let mut pairs: Pairs = out.pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
    pairs.sort_unstable();
    Ok((pairs, out.stats))
}

/// PBSM at a 4 KiB budget externalizes this workload into multiple
/// partition files — the surface persistent damage lands on.
fn pbsm(threads: usize) -> Algorithm {
    Algorithm::pbsm_rpm(4 * 1024).with_threads(threads)
}

fn s3j() -> Algorithm {
    Algorithm::s3j_replicated(4 * 1024)
}

/// Sweeps persistent seeds until quarantine fires, asserting exactness on
/// every completed run and the read-economy bound on every quarantined one.
/// Returns how many seeds actually triggered quarantine.
fn sweep(
    mk: &dyn Fn() -> Algorithm,
    channels: usize,
    clean: &(Pairs, JoinStats),
    quarantined_in: &dyn Fn(&JoinStats) -> u32,
) -> u32 {
    let clean_reads = clean.1.io_total().pages_read;
    assert!(clean_reads > 0, "workload must externalize to disk");
    let mut fired = 0;
    for seed in 0..48u64 {
        let plan = FaultPlan::persistent(seed).with_persistent_rate(0.03);
        match run(mk(), channels, Some(plan)) {
            Ok((pairs, stats)) => {
                assert_eq!(&pairs, &clean.0, "seed {seed}: result drift");
                assert_eq!(stats.results(), clean.1.results(), "seed {seed}");
                // A quarantined partition is recomputed under its own local
                // plan, so the *replication* counters may legitimately move;
                // the duplicate-accounting identity must not.
                if let Some(cand) = stats.candidates() {
                    assert_eq!(
                        cand,
                        stats.results() + stats.duplicates(),
                        "seed {seed}: accounting identity broken"
                    );
                }
                if quarantined_in(&stats) > 0 {
                    fired += 1;
                    let reads = stats.io_total().pages_read;
                    assert!(
                        reads < 2 * clean_reads,
                        "seed {seed}: quarantine recompute read {reads} pages, \
                         a cold rerun bound is {} — recovery in place must be cheaper",
                        2 * clean_reads
                    );
                }
            }
            Err(e) => {
                let io = e.io().unwrap_or_else(|| {
                    panic!("seed {seed}: non-I/O failure under persistent damage: {e}")
                });
                assert!(
                    io.kind.is_persistent(),
                    "seed {seed}: transient-kind error under a persistent plan: {e}"
                );
            }
        }
    }
    fired
}

#[test]
fn pbsm_quarantine_recompute_is_exact_and_cheaper_than_cold_rerun() {
    for threads in [1usize, 4] {
        for channels in [1usize, 4] {
            let clean = run(pbsm(threads), channels, None).unwrap();
            let fired = sweep(
                &|| pbsm(threads),
                channels,
                &clean,
                &|st| match st {
                    JoinStats::Pbsm(st) => st.quarantined_partitions,
                    _ => 0,
                },
            );
            assert!(
                fired > 0,
                "threads {threads} channels {channels}: no seed in 0..48 forced quarantine"
            );
        }
    }
}

#[test]
fn s3j_level_quarantine_recompute_is_exact_and_cheaper_than_cold_rerun() {
    for channels in [1usize, 4] {
        let clean = run(s3j(), channels, None).unwrap();
        let fired = sweep(
            &s3j,
            channels,
            &clean,
            &|st| match st {
                JoinStats::S3j(st) => st.quarantined_levels,
                _ => 0,
            },
        );
        assert!(fired > 0, "channels {channels}: no seed in 0..48 forced level quarantine");
    }
}

/// S³J's scan-phase quarantine, end to end: a durable join crashes after
/// its `Join` manifest, so the sorted level files are what a resume reads;
/// the crashed disk's files are restored onto a volume with persistent
/// damage past a cursor's first buffer. The resume must quarantine the
/// partly read level file — rebuilt from the source relations, the cursor
/// repositioned at the partition it was collecting — and the two legs
/// together must emit the clean run's pairs, each exactly once.
#[test]
fn s3j_resume_quarantines_a_partly_read_sorted_level_file() {
    let (r, s) = datagen::Adversarial { count: 1500, seed: 3 }.generate_pair();
    let join = SpatialJoin::new(Algorithm::s3j_replicated(16 * 1024));
    let mut clean: Pairs = Vec::new();
    join.try_run_durable_with(&SimDisk::with_default_model(), &r, &s, 7, &mut |a, b| {
        clean.push((a.0, b.0))
    })
    .expect("clean durable run");
    clean.sort_unstable();

    let crash = CrashPoint::AfterCommit(2);
    let crashed = SimDisk::with_default_model()
        .with_faults(FaultPlan::crash_only(0, crash), RetryPolicy::default());
    let mut first: Pairs = Vec::new();
    let err = join
        .try_run_durable_with(&crashed, &r, &s, 7, &mut |a, b| first.push((a.0, b.0)))
        .expect_err("the crash point must fire on this workload");
    assert!(matches!(err.kind, JoinErrorKind::Crashed(p) if p == crash), "{err}");
    // Pairs are only emitted by the scan, which starts after the `Join`
    // manifest: what survives is the sorted level files.
    assert!(!first.is_empty(), "the crash must come after the Join manifest");

    // Persistent damage is a pure function of (seed, channel tag, page);
    // only level files carry a tag (system files model a protected
    // volume). Hunt a seed that spares a file's first buffer but not the
    // rest of it.
    let snapshot = crashed.export_files();
    let page = crashed.model().page_size as u64;
    let first_buffer = S3jConfig::default().io_buffer_pages as u64;
    let level_files: Vec<(u64, u64)> = crashed
        .file_ids()
        .into_iter()
        .filter_map(|f| Some((crashed.file_channel(f)?, crashed.len(f).div_ceil(page))))
        .collect();
    let plan = (0..256u64)
        .map(|seed| FaultPlan::persistent(seed).with_persistent_rate(0.02))
        .find(|plan| {
            level_files.iter().any(|&(tag, pages)| {
                (0..first_buffer).all(|p| !plan.bad_page(tag, p))
                    && (first_buffer..pages).any(|p| plan.bad_page(tag, p))
            })
        })
        .expect("no seed damaged a level file past its first buffer");
    let damaged = SimDisk::with_default_model().with_faults(plan, RetryPolicy::default());
    damaged.restore_files(&snapshot).unwrap();

    let mut second: Pairs = Vec::new();
    let stats = join
        .try_run_durable_with(&damaged, &r, &s, 7, &mut |a, b| second.push((a.0, b.0)))
        .expect("persistent damage must quarantine, not kill the resume");
    let JoinStats::S3j(st) = &stats else { panic!("an S3J run reports S3J stats") };
    assert!(st.quarantined_levels > 0, "the damaged level file was not quarantined");
    assert_eq!(stats.results(), clean.len() as u64);

    let mut union: Pairs = first.iter().chain(&second).copied().collect();
    union.sort_unstable();
    let distinct = {
        let mut d = union.clone();
        d.dedup();
        d.len()
    };
    assert_eq!(distinct, union.len(), "a pair was emitted by both legs");
    assert_eq!(union, clean, "crash + damaged resume diverge from the clean run");
}

/// A page-budgeted disk (ENOSPC mid-partitioning) walks PBSM down the
/// fallback ladder — fewer partitions, ultimately the in-memory plan — and
/// the result stays exact at every rung, down to a 1-page disk.
#[test]
fn disk_full_fallback_ladder_is_exact_at_every_budget() {
    let clean = run(pbsm(1), 1, None).unwrap();
    let mut saw_fallback = false;
    for budget in [1u64, 8, 32, 128] {
        let plan = FaultPlan::none(0).with_disk_budget(budget);
        let (pairs, stats) = run(pbsm(1), 1, Some(plan))
            .unwrap_or_else(|e| panic!("budget {budget}: ladder must recover, got {e}"));
        assert_eq!(pairs, clean.0, "budget {budget}: result drift");
        if let JoinStats::Pbsm(st) = &stats {
            if st.enospc_fallbacks > 0 {
                saw_fallback = true;
            }
        }
    }
    assert!(saw_fallback, "no budget forced the ENOSPC fallback ladder");
}

/// Persistent damage with the budget cap active at the same time: the two
/// degradation paths compose — every outcome is still either exact or a
/// typed persistent error.
#[test]
fn composed_damage_and_budget_still_never_lie() {
    let clean = run(pbsm(4), 2, None).unwrap();
    for seed in 0..16u64 {
        let plan = FaultPlan::persistent(seed)
            .with_persistent_rate(0.03)
            .with_disk_budget(64);
        match run(pbsm(4), 2, Some(plan)) {
            Ok((pairs, _)) => assert_eq!(pairs, clean.0, "seed {seed}: silent divergence"),
            Err(e) => assert!(
                e.io().is_some_and(|io| io.kind.is_persistent()),
                "seed {seed}: untyped failure: {e}"
            ),
        }
    }
}
