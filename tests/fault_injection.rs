//! Fault-injection integration tests: the robustness contract end to end.
//!
//! * A **recoverable** fault plan (every fault cured within one retry
//!   budget) must leave the result stream bit-identical to the fault-free
//!   run — for every algorithm, dedup mode and thread count — while the
//!   retries it caused are visible and deterministic in the I/O counters.
//! * A **degraded** plan (read faults outlasting one budget) must be cured
//!   by PBSM's graceful-degradation paths: recursive repartitioning in
//!   place, partition requeueing under the parallel executor.
//! * An **unrecoverable** plan must surface a typed [`storage::JoinError`]
//!   from every entry point — never a panic, never a hang.
//!
//! Set `FAULT_SEEDS=<n>` to sweep the first `n` recoverable seeds (the CI
//! fault-soak job uses 16; the default keeps local runs quick).

use geom::{Kpe, RecordId};
use pbsm::{Dedup, PbsmConfig};
use proptest::prelude::*;
use s3j::S3jConfig;
use spatial_join_suite::{Algorithm, FaultPlan, RetryPolicy, SimDisk, SpatialJoin};

fn workload() -> (Vec<Kpe>, Vec<Kpe>) {
    let r = datagen::LineNetwork {
        count: 1500,
        coverage: 0.15,
        segments_per_line: 14,
        seed: 501,
    }
    .generate();
    let s = datagen::LineNetwork {
        count: 1400,
        coverage: 0.05,
        segments_per_line: 8,
        seed: 502,
    }
    .generate();
    (r, s)
}

fn faulty_disk(plan: Option<FaultPlan>) -> SimDisk {
    let disk = SimDisk::with_default_model();
    match plan {
        Some(p) => disk.with_faults(p, RetryPolicy::default()),
        None => disk,
    }
}

type Pairs = Vec<(u64, u64)>;

fn pbsm_run(
    r: &[Kpe],
    s: &[Kpe],
    cfg: &PbsmConfig,
    plan: Option<FaultPlan>,
) -> Result<(Pairs, pbsm::PbsmStats), storage::JoinError> {
    let disk = faulty_disk(plan);
    let mut got = Vec::new();
    let ctl = storage::RunControl::none();
    let stats = pbsm::try_pbsm_join_ctl(&disk, r, s, cfg, &ctl, &mut |a: RecordId, b: RecordId| {
        got.push((a.0, b.0))
    })?;
    Ok((got, stats))
}

fn s3j_run(
    r: &[Kpe],
    s: &[Kpe],
    cfg: &S3jConfig,
    plan: Option<FaultPlan>,
) -> Result<(Pairs, s3j::S3jStats), storage::JoinError> {
    let disk = faulty_disk(plan);
    let mut got = Vec::new();
    let ctl = storage::RunControl::none();
    let stats = s3j::try_s3j_join_ctl(&disk, r, s, cfg, &ctl, &mut |a: RecordId, b: RecordId| {
        got.push((a.0, b.0))
    })?;
    Ok((got, stats))
}

/// How many recoverable seeds to sweep (CI soak raises this via env).
fn fault_seed_count() -> u64 {
    std::env::var("FAULT_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Recoverable plan, PBSM: every dedup mode × thread count reproduces the
/// fault-free stream exactly (same pairs, same order), and the retries the
/// plan caused are visible in the I/O counters.
#[test]
fn pbsm_recoverable_faults_are_invisible_in_the_output() {
    let (r, s) = workload();
    for dedup in [Dedup::ReferencePoint, Dedup::SortPhase, Dedup::None] {
        for threads in [1usize, 4] {
            let cfg = PbsmConfig {
                mem_bytes: 24 * 1024,
                dedup,
                threads,
                ..Default::default()
            };
            let (clean, clean_st) = pbsm_run(&r, &s, &cfg, None).unwrap();
            assert_eq!(clean_st.io_total().faults_injected, 0);
            let mut faults_seen = 0u64;
            for seed in 0..fault_seed_count() {
                let plan = FaultPlan::recoverable(seed);
                let (got, st) = pbsm_run(&r, &s, &cfg, Some(plan))
                    .unwrap_or_else(|e| panic!("seed {seed} ({dedup:?}, t={threads}): {e}"));
                assert_eq!(got, clean, "seed {seed} ({dedup:?}, t={threads})");
                assert_eq!(st.results, clean_st.results);
                assert_eq!(st.duplicates, clean_st.duplicates);
                assert_eq!(st.candidates, clean_st.candidates);
                // Recoverable faults never trigger degradation or requeues.
                assert_eq!(st.degraded_partitions, 0);
                assert_eq!(st.requeued_partitions, 0);
                let io = st.io_total();
                // Every injected fault was cured by a retry.
                assert_eq!(io.faults_injected, io.read_retries + io.write_retries);
                assert!(io.faults_injected == 0 || io.backoff_units > 0);
                faults_seen += io.faults_injected;
            }
            // A seed may legitimately miss every request identity; the
            // sweep as a whole must not.
            assert!(faults_seen > 0, "no swept seed ever fired");
        }
    }
}

/// Recoverable plan, S³J: replicated and original assignments.
#[test]
fn s3j_recoverable_faults_are_invisible_in_the_output() {
    let (r, s) = workload();
    for replicate in [true, false] {
        let cfg = S3jConfig {
            mem_bytes: 24 * 1024,
            max_level: 9,
            replicate,
            ..Default::default()
        };
        let (clean, clean_st) = s3j_run(&r, &s, &cfg, None).unwrap();
        let mut faults_seen = 0u64;
        for seed in 0..fault_seed_count() {
            let plan = FaultPlan::recoverable(seed);
            let (got, st) = s3j_run(&r, &s, &cfg, Some(plan))
                .unwrap_or_else(|e| panic!("seed {seed} (replicate={replicate}): {e}"));
            assert_eq!(got, clean, "seed {seed} (replicate={replicate})");
            assert_eq!(st.results, clean_st.results);
            assert_eq!(st.duplicates, clean_st.duplicates);
            let io = st.io_total();
            assert_eq!(io.faults_injected, io.read_retries + io.write_retries);
            faults_seen += io.faults_injected;
        }
        assert!(faults_seen > 0, "no swept seed ever fired");
    }
}

/// Retry accounting is deterministic: the same faulty configuration run
/// twice produces identical I/O counters (including faults, retries and
/// backoff), and the totals do not depend on the thread count — the fault
/// identity scheme guarantees the same multiset of failures either way.
#[test]
fn retry_accounting_is_deterministic_and_thread_independent() {
    let (r, s) = workload();
    let plan = FaultPlan::recoverable(17);
    let cfg = |threads| PbsmConfig {
        mem_bytes: 24 * 1024,
        threads,
        ..Default::default()
    };
    let (_, a) = pbsm_run(&r, &s, &cfg(1), Some(plan)).unwrap();
    let (_, b) = pbsm_run(&r, &s, &cfg(1), Some(plan)).unwrap();
    assert_eq!(a.io_total(), b.io_total(), "repeat run diverges");
    let (_, par) = pbsm_run(&r, &s, &cfg(4), Some(plan)).unwrap();
    assert_eq!(a.io_total(), par.io_total(), "thread count changes accounting");
    assert!(a.io_total().faults_injected > 0);
}

/// Degraded plan (read faults outlasting one retry budget): sequential PBSM
/// falls back to recursive repartitioning and still produces the fault-free
/// result. The seed sweep finds at least one plan that actually forces the
/// degradation path — everything is deterministic, so this is a property of
/// the workload, not luck.
#[test]
fn degraded_reads_are_cured_by_repartition_fallback() {
    let (r, s) = workload();
    let cfg = PbsmConfig {
        mem_bytes: 24 * 1024,
        threads: 1,
        ..Default::default()
    };
    let (mut clean, _) = pbsm_run(&r, &s, &cfg, None).unwrap();
    clean.sort_unstable();
    let mut saw_degradation = false;
    for seed in 0..32u64 {
        let plan = FaultPlan::degraded(seed);
        let (mut got, st) =
            pbsm_run(&r, &s, &cfg, Some(plan)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // Degradation re-joins repartitioned pieces, so the emission order
        // may legitimately differ; the result *set* may not.
        got.sort_unstable();
        assert_eq!(got, clean, "seed {seed}");
        if st.degraded_partitions > 0 {
            saw_degradation = true;
        }
    }
    assert!(saw_degradation, "no seed in 0..32 forced the degradation path");
}

/// Under the parallel executor, a partition whose task fails outright is
/// requeued onto another round and completes there; a plan harsher than
/// `degraded` (faults outlasting the in-task load *and* repartition budgets)
/// forces that path.
#[test]
fn parallel_requeue_cures_partitions_that_fail_in_task() {
    let (r, s) = workload();
    let cfg = PbsmConfig {
        mem_bytes: 24 * 1024,
        threads: 4,
        max_partition_requeues: 4,
        ..Default::default()
    };
    let (mut clean, _) = pbsm_run(&r, &s, &cfg, None).unwrap();
    clean.sort_unstable();
    let mut saw_requeue = false;
    for seed in 0..32u64 {
        // Harsher than `FaultPlan::degraded`: up to 24 consecutive failures
        // outlasts the whole in-task budget (one 4-attempt load plus three
        // 4-attempt copy rounds), so only a requeued second task round can
        // cure the partition.
        let plan = FaultPlan {
            fault_rate: 0.03,
            max_consecutive: 24,
            reads_only: true,
            ..FaultPlan::none(seed)
        };
        let (mut got, st) =
            pbsm_run(&r, &s, &cfg, Some(plan)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        got.sort_unstable();
        assert_eq!(got, clean, "seed {seed}");
        if st.requeued_partitions > 0 {
            saw_requeue = true;
        }
    }
    assert!(saw_requeue, "no seed in 0..32 forced a requeue");
}

/// Persistent plan (damaged sectors that no retry can cure): the quarantine
/// paths recompute the damaged partition/level from source, so every
/// completed run is still bit-identical to the fault-free result *set*; a
/// run that cannot recover must die with a persistent-kind error, never a
/// silent wrong answer. The sweep must force quarantine at least once per
/// family.
#[test]
fn persistent_corruption_is_quarantined_or_typed_never_silent() {
    let (r, s) = workload();
    let pbsm_cfg = PbsmConfig {
        mem_bytes: 24 * 1024,
        threads: 1,
        ..Default::default()
    };
    let s3j_cfg = S3jConfig {
        mem_bytes: 24 * 1024,
        max_level: 9,
        replicate: true,
        ..Default::default()
    };
    let (mut pbsm_clean, _) = pbsm_run(&r, &s, &pbsm_cfg, None).unwrap();
    pbsm_clean.sort_unstable();
    let (mut s3j_clean, _) = s3j_run(&r, &s, &s3j_cfg, None).unwrap();
    s3j_clean.sort_unstable();
    let (mut pbsm_quarantines, mut s3j_quarantines) = (0u32, 0u32);
    for seed in 0..24u64 {
        let plan = FaultPlan::persistent(seed);
        match pbsm_run(&r, &s, &pbsm_cfg, Some(plan)) {
            Ok((mut got, st)) => {
                got.sort_unstable();
                assert_eq!(got, pbsm_clean, "pbsm seed {seed}: silent divergence");
                pbsm_quarantines += st.quarantined_partitions;
            }
            Err(e) => assert!(
                e.io().is_some_and(|io| io.kind.is_persistent()),
                "pbsm seed {seed}: untyped failure under persistent damage: {e}"
            ),
        }
        match s3j_run(&r, &s, &s3j_cfg, Some(plan)) {
            Ok((mut got, st)) => {
                got.sort_unstable();
                assert_eq!(got, s3j_clean, "s3j seed {seed}: silent divergence");
                s3j_quarantines += st.quarantined_levels;
            }
            Err(e) => assert!(
                e.io().is_some_and(|io| io.kind.is_persistent()),
                "s3j seed {seed}: untyped failure under persistent damage: {e}"
            ),
        }
    }
    assert!(pbsm_quarantines > 0, "no seed forced a PBSM partition quarantine");
    assert!(s3j_quarantines > 0, "no seed forced an S3J level quarantine");
}

/// Unrecoverable plan: every entry point surfaces a typed error — library
/// joins and the high-level API — and none of them panics or hangs.
#[test]
fn unrecoverable_faults_surface_typed_errors_everywhere() {
    let (r, s) = workload();
    let plan = FaultPlan::unrecoverable(23);
    for threads in [1usize, 4] {
        let cfg = PbsmConfig {
            mem_bytes: 24 * 1024,
            threads,
            ..Default::default()
        };
        let err = pbsm_run(&r, &s, &cfg, Some(plan)).expect_err("PBSM must fail");
        assert!(!err.phase.is_empty());
    }
    let cfg = S3jConfig {
        mem_bytes: 24 * 1024,
        max_level: 9,
        ..Default::default()
    };
    let err = s3j_run(&r, &s, &cfg, Some(plan)).expect_err("S3J must fail");
    assert!(!err.phase.is_empty());
    // High-level API.
    let err = SpatialJoin::new(Algorithm::pbsm_rpm(24 * 1024))
        .with_faults(plan)
        .try_run(&r, &s)
        .expect_err("SpatialJoin::try_run must fail");
    assert!(err.io().is_some_and(|io| io.attempts >= 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The recoverable contract as a property over the whole seed space:
    /// for *any* seed, the faulty run reproduces the fault-free stream
    /// exactly at both thread counts, and its retry accounting is exactly
    /// reproducible.
    #[test]
    fn any_recoverable_seed_is_output_invisible(seed in any::<u64>()) {
        let r = datagen::LineNetwork {
            count: 400,
            coverage: 0.2,
            segments_per_line: 10,
            seed: 601,
        }
        .generate();
        let s = datagen::LineNetwork {
            count: 380,
            coverage: 0.06,
            segments_per_line: 6,
            seed: 602,
        }
        .generate();
        let plan = FaultPlan::recoverable(seed);
        for threads in [1usize, 4] {
            let cfg = PbsmConfig {
                mem_bytes: 8 * 1024,
                threads,
                ..Default::default()
            };
            let (clean, _) = pbsm_run(&r, &s, &cfg, None).unwrap();
            let (got, st) = pbsm_run(&r, &s, &cfg, Some(plan)).unwrap();
            prop_assert_eq!(&got, &clean, "threads={}", threads);
            let (got2, st2) = pbsm_run(&r, &s, &cfg, Some(plan)).unwrap();
            prop_assert_eq!(&got2, &clean);
            prop_assert_eq!(st.io_total(), st2.io_total());
            // Every injected fault is accounted for by exactly one retry.
            let io = st.io_total();
            prop_assert_eq!(io.faults_injected, io.read_retries + io.write_retries);
        }
    }
}
