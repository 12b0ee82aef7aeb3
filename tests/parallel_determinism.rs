//! The parallel executor's contract: for every PBSM duplicate-handling
//! mode, running with `threads = 4` produces the *same result stream, in the
//! same order*, as the sequential `threads = 1` path — and the deterministic
//! counters (work counts, I/O totals) are identical too.
//!
//! A proptest closes the loop on the paper's claim that makes this safe at
//! all: the Reference Point Method is a purely local test, so each result
//! is emitted exactly once no matter how partition pairs are interleaved
//! across workers.

use geom::{Kpe, RecordId};
use pbsm::{Dedup, PbsmConfig};
use proptest::prelude::*;
use s3j::S3jConfig;
use storage::SimDisk;

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
    let cfg = S3jConfig {
        mem_bytes: 4 * 1024,
        ..Default::default()
    };
    let (mut got, st) = run_s3j(&r, &s, &cfg);
    got.sort_unstable();
    assert_eq!(got, want, "s3j result set");
    assert_eq!(st.candidates, st.results + st.duplicates, "s3j accounting");
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
