//! The parallel executor's contract: for every PBSM duplicate-handling
//! mode, running with `threads = 4` produces the *same result stream, in the
//! same order*, as the sequential `threads = 1` path — and the deterministic
//! counters (work counts, I/O totals) are identical too. S³J's two lanes
//! (R's and S's level files built, then sorted, at once) keep the same
//! contract, and stop where one thread stops under faults, deadlines and
//! cancellation.
//!
//! A proptest closes the loop on the paper's claim that makes this safe at
//! all: the Reference Point Method is a purely local test, so each result
//! is emitted exactly once no matter how partition pairs are interleaved
//! across workers.

use geom::{Kpe, RecordId};
use pbsm::{Dedup, PbsmConfig};
use proptest::prelude::*;
use s3j::{S3jConfig, S3jStats};
use storage::{CancelToken, FaultPlan, JoinError, RetryPolicy, RunControl, SimDisk};

fn brute(r: &[Kpe], s: &[Kpe]) -> Vec<(u64, u64)> {
    let mut v = Vec::new();
    for a in r {
        for b in s {
            if a.rect.intersects(&b.rect) {
                v.push((a.id.0, b.id.0));
            }
        }
    }
    v.sort_unstable();
    v
}

fn run_pbsm(r: &[Kpe], s: &[Kpe], cfg: &PbsmConfig) -> (Vec<(u64, u64)>, pbsm::PbsmStats) {
    let disk = SimDisk::with_default_model();
    let mut got = Vec::new();
    let stats = pbsm::pbsm_join(&disk, r, s, cfg, &mut |a: RecordId, b: RecordId| {
        got.push((a.0, b.0))
    });
    (got, stats)
}

fn run_s3j(r: &[Kpe], s: &[Kpe], cfg: &S3jConfig) -> (Vec<(u64, u64)>, s3j::S3jStats) {
    let disk = SimDisk::with_default_model();
    let mut got = Vec::new();
    let stats = s3j::s3j_join(&disk, r, s, cfg, &mut |a: RecordId, b: RecordId| {
        got.push((a.0, b.0))
    });
    (got, stats)
}

/// The pairs S³J emitted, in order, and how the run ended.
type S3jOutcome = (Vec<(u64, u64)>, Result<S3jStats, JoinError>);

fn run_s3j_ctl(disk: &SimDisk, (r, s): (&[Kpe], &[Kpe]), cfg: &S3jConfig, ctl: &RunControl) -> S3jOutcome {
    let mut got = Vec::new();
    let res = s3j::try_s3j_join_ctl(disk, r, s, cfg, ctl, &mut |a: RecordId, b: RecordId| {
        got.push((a.0, b.0))
    });
    (got, res)
}

/// Everything of an S³J run a thread count may not move: the pairs in
/// order, then the stats' `Debug` form without the host clock (every
/// counter, histogram, phase meter, channel bucket, priced work and the
/// first-result position), or the error.
fn s3j_fixed((pairs, res): &S3jOutcome) -> (Vec<(u64, u64)>, Result<String, JoinError>) {
    let fixed = |st: &S3jStats| {
        format!("{:?}", S3jStats { cpu_partition: 0.0, cpu_sort: 0.0, cpu_join: 0.0, ..st.clone() })
    };
    (pairs.clone(), res.as_ref().map(fixed).map_err(|e| *e))
}

/// S³J at 4 KiB: a level file forms several sort runs and merges them.
fn s3j_at(threads: usize) -> S3jConfig {
    S3jConfig { mem_bytes: 4 * 1024, threads, ..Default::default() }
}

fn adversarial() -> (Vec<Kpe>, Vec<Kpe>) {
    datagen::Adversarial { count: 150, seed: 7 }.generate_pair()
}

fn workload() -> (Vec<Kpe>, Vec<Kpe>) {
    let r = datagen::LineNetwork {
        count: 2500,
        coverage: 0.2,
        segments_per_line: 18,
        seed: 401,
    }
    .generate();
    let s = datagen::LineNetwork {
        count: 2800,
        coverage: 0.04,
        segments_per_line: 9,
        seed: 402,
    }
    .generate();
    (r, s)
}

/// PBSM, every dedup mode: identical emission order and identical
/// deterministic counters at 4 threads vs 1.
#[test]
fn pbsm_threads4_matches_threads1_per_dedup_mode() {
    let (r, s) = workload();
    for dedup in [Dedup::ReferencePoint, Dedup::SortPhase, Dedup::None] {
        let cfg = |threads| PbsmConfig {
            mem_bytes: 32 * 1024, // forces many partitions
            dedup,
            threads,
            ..Default::default()
        };
        let (seq, st1) = run_pbsm(&r, &s, &cfg(1));
        let (par, st4) = run_pbsm(&r, &s, &cfg(4));
        assert!(st1.partitions > 4, "want real fan-out, got {}", st1.partitions);
        assert_eq!(seq, par, "emission order diverges ({dedup:?})");
        let mut sorted_seq = seq;
        let mut sorted_par = par;
        sorted_seq.sort_unstable();
        sorted_par.sort_unstable();
        assert_eq!(sorted_seq, sorted_par, "result sets diverge ({dedup:?})");
        assert_eq!(st1.candidates, st4.candidates, "{dedup:?}");
        assert_eq!(st1.results, st4.results, "{dedup:?}");
        assert_eq!(st1.duplicates, st4.duplicates, "{dedup:?}");
        assert_eq!(st1.copies_r + st1.copies_s, st4.copies_r + st4.copies_s);
        assert_eq!(st1.repartitioned_pairs, st4.repartitioned_pairs, "{dedup:?}");
        assert_eq!(st1.join_counters.tests, st4.join_counters.tests, "{dedup:?}");
        assert_eq!(st1.io_total(), st4.io_total(), "I/O accounting diverges ({dedup:?})");
    }
}

/// Duplicate accounting stays exact under the parallel executor: the
/// identity `candidates = results + suppressed` holds after the merge for
/// threads ∈ {1, 2, 4} on an adversarial workload (grid-aligned edges,
/// zero-area rects, coordinate duplicates, hot tiles), and for S³J's scan on
/// the same inputs. The per-worker half of the same identity is
/// debug-asserted at the merge site in `pbsm/src/join.rs`, so a
/// debug-profile run of this test exercises each worker's partial stats
/// too.
#[test]
fn duplicate_accounting_exact_after_parallel_merge() {
    let (r, s) = datagen::Adversarial {
        count: 150,
        seed: 7,
    }
    .generate_pair();
    let want = brute(&r, &s);
    for threads in [1, 2, 4] {
        let cfg = PbsmConfig {
            mem_bytes: 4 * 1024, // several partitions, real replication
            threads,
            ..Default::default()
        };
        let (mut got, st) = run_pbsm(&r, &s, &cfg);
        got.sort_unstable();
        assert_eq!(got, want, "pbsm result set (threads={threads})");
        assert_eq!(
            st.candidates,
            st.results + st.duplicates,
            "pbsm accounting (threads={threads})"
        );
        assert_eq!(st.results as usize, want.len());
    }
    let (seq, st) = run_s3j(&r, &s, &s3j_at(1));
    let mut got = seq.clone();
    got.sort_unstable();
    assert_eq!(got, want, "s3j result set");
    assert_eq!(st.candidates, st.results + st.duplicates, "s3j accounting");
    assert!(st.sort_runs > st.histogram_r.iter().filter(|&&n| n > 0).count(), "want multi-run sorts");
    let one = s3j_fixed(&(seq, Ok(st)));
    for threads in [2, 4] {
        let (seq, st) = run_s3j(&r, &s, &s3j_at(threads));
        assert_eq!(s3j_fixed(&(seq, Ok(st))), one, "s3j at threads={threads}");
    }
}

/// S³J under a transient fault plan: every request eventually succeeds,
/// and the lanes draw their faults from one pool in an order the scheduler
/// picks, so which request retries may move between relations; the pairs
/// and each phase's I/O totals may not.
#[test]
fn s3j_transient_faults_keep_every_phase_total_at_every_thread_count() {
    let (r, s) = adversarial();
    let run = |threads| {
        let plan = FaultPlan { fault_rate: 0.4, ..FaultPlan::recoverable(11) };
        let disk = SimDisk::with_default_model().with_faults(plan, RetryPolicy::default());
        let (pairs, res) = run_s3j_ctl(&disk, (&r, &s), &s3j_at(threads), &RunControl::none());
        let st = res.unwrap_or_else(|e| panic!("threads={threads}: {e}"));
        (pairs, [st.io_partition, st.io_sort, st.io_join], [st.results, st.candidates, st.duplicates])
    };
    let one = run(1);
    assert!(one.1[0].write_retries > 0 && one.1[1].read_retries > 0, "the lanes must retry: {:?}", one.1);
    for threads in [2, 4] {
        assert_eq!(run(threads), one, "threads={threads}");
    }
}

/// S³J on persistently damaged media: a seed that quarantines a level at
/// one thread quarantines the same levels at two and four, and every run
/// delivers the exact result.
#[test]
fn s3j_persistent_damage_quarantines_alike_at_every_thread_count() {
    let (r, s) = adversarial();
    let want = brute(&r, &s);
    let run = |seed, threads| {
        let plan = FaultPlan::persistent(seed).with_persistent_rate(0.2);
        let disk = SimDisk::with_default_model().with_faults(plan, RetryPolicy::default());
        let (mut pairs, res) = run_s3j_ctl(&disk, (&r, &s), &s3j_at(threads), &RunControl::none());
        let st = res.unwrap_or_else(|e| panic!("seed {seed} threads={threads}: {e}"));
        pairs.sort_unstable();
        assert_eq!(pairs, want, "seed {seed} threads={threads}");
        st.quarantined_levels
    };
    let seed = (0..64u64).find(|&seed| run(seed, 1) > 0).expect("no seed damaged a level file");
    let one = run(seed, 1);
    for threads in [2, 4] {
        assert_eq!(run(seed, threads), one, "seed {seed} threads={threads}");
    }
}

/// A deadline anywhere from the build to the scan stops S³J with the same
/// error — phase, kind and simulated time — and the same pairs before it,
/// at every thread count: the lanes' charges are replayed on the calling
/// thread in the sequential order with the sequential values.
#[test]
fn s3j_deadline_stops_alike_at_every_thread_count() {
    let (r, s) = adversarial();
    let run = |threads, deadline| {
        let ctl = RunControl::none().with_deadline(deadline);
        s3j_fixed(&run_s3j_ctl(&SimDisk::with_default_model(), (&r, &s), &s3j_at(threads), &ctl))
    };
    let (_, clean) = run_s3j(&r, &s, &s3j_at(1));
    let total = clean.scaled_cpu_seconds() + clean.io_seconds();
    let mut phases = Vec::new();
    for i in 0..60 {
        let deadline = total * f64::from(i) / 60.0;
        let one = run(1, deadline);
        let phase = one.1.as_ref().err().map(|e| e.phase);
        assert!(phase.is_some(), "deadline {deadline} of {total} never hit");
        phases.extend(phase);
        for threads in [2, 4] {
            assert_eq!(run(threads, deadline), one, "threads={threads} deadline {deadline}");
        }
    }
    for phase in ["build", "sort", "scan"] {
        assert!(phases.contains(&phase), "no deadline stopped the {phase} phase: {phases:?}");
    }
}

/// `cancel_after_checks(n)` stops S³J at the same check, with the same
/// outcome and pairs, at every thread count: the lanes add no check and
/// move none.
#[test]
fn s3j_cancel_after_n_checks_stops_alike_at_every_thread_count() {
    let (r, s) = adversarial();
    let run = |threads, n| {
        let token = CancelToken::new();
        token.cancel_after_checks(n);
        let ctl = RunControl::none().with_cancel(token);
        s3j_fixed(&run_s3j_ctl(&SimDisk::with_default_model(), (&r, &s), &s3j_at(threads), &ctl))
    };
    let mut phases = Vec::new();
    for n in 1..=48 {
        let one = run(1, n);
        phases.extend(one.1.as_ref().err().map(|e| e.phase));
        for threads in [2, 4] {
            assert_eq!(run(threads, n), one, "threads={threads} n={n}");
        }
    }
    for phase in ["build", "sort", "scan"] {
        assert!(phases.contains(&phase), "no check in the {phase} phase was cancelled: {phases:?}");
    }
}

fn arb_kpes(max_n: usize) -> impl Strategy<Value = Vec<Kpe>> {
    prop::collection::vec(
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.25, 0.0f64..0.25),
        1..max_n,
    )
    .prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (x, y, w, h))| {
                Kpe::new(
                    geom::RecordId(i as u64),
                    geom::Rect::new(x, y, (x + w).min(1.0), (y + h).min(1.0)),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The RPM safety property under parallelism: every intersecting pair
    /// is emitted exactly once — neither dropped nor duplicated — for every
    /// thread count, i.e. regardless of how partition pairs are claimed and
    /// interleaved by workers.
    #[test]
    fn rpm_emits_each_result_exactly_once_for_any_execution_order(
        r in arb_kpes(100),
        s in arb_kpes(100),
    ) {
        let want = brute(&r, &s);
        for threads in 1..=4usize {
            let cfg = PbsmConfig {
                mem_bytes: 8 * 1024, // tiny: several partitions + replication
                threads,
                ..Default::default()
            };
            let (mut got, stats) = run_pbsm(&r, &s, &cfg);
            got.sort_unstable();
            // Exactly once: sorted-with-duplicates equals the duplicate-free
            // reference, so any duplicate or omission fails the comparison.
            prop_assert_eq!(&got, &want, "threads={}", threads);
            prop_assert_eq!(stats.results as usize, want.len());
        }
    }
}
