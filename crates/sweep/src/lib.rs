//! Internal (in-memory) spatial join algorithms.
//!
//! Both PBSM and S³J reduce the external join to a sequence of in-memory
//! joins on pairs of partitions; the choice of this *internal* algorithm has
//! a first-order effect on total runtime (paper §3.2.2, §4.4.1, Figures 4, 5
//! and 12). Three algorithms are provided behind the [`InternalJoin`] trait:
//!
//! * [`NestedLoops`] — all-pairs testing. Best for the very small partitions
//!   of S³J, where sweep setup costs dominate.
//! * [`PlaneSweepList`] — the *Plane-Sweep Intersection-Test* of [BKS 93]:
//!   sort by `xl`, then forward-scan the other relation. The sweep-line
//!   status is implicit ("organised as a list"); the original internal
//!   algorithm of PBSM.
//! * [`PlaneSweepTrie`] — this paper's contribution: the sweep-line status is
//!   an *interval trie* ([Knu 70]) over the y-axis, avoiding both the long
//!   forward scans of the list method and the rebalancing cost of dynamic
//!   interval trees suggested in [APR+ 98].
//!
//! All algorithms report each intersecting `(r, s)` pair exactly once, as
//! *ordered* pairs (first element from `r`, second from `s`). Callers layer
//! duplicate-elimination (e.g. the Reference Point Method) on top via the
//! output callback.

mod list;
mod nested;
mod strip;
mod trie;

pub use list::PlaneSweepList;
pub use nested::NestedLoops;
pub use strip::{forward_scan, sweep_strips, Status, Strip};
pub use trie::PlaneSweepTrie;

use geom::Kpe;
use storage::Work;

/// CPU-side work counters of an internal join run. These are what the
/// paper's CPU-time plots measure indirectly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinCounters {
    /// Candidate pair tests performed (rectangle/interval comparisons).
    pub tests: u64,
    /// Intersecting pairs reported.
    pub results: u64,
    /// Status-structure node visits (trie only; 0 otherwise).
    pub node_visits: u64,
    /// Records sorted into sweep order (the sweeps only; nested loops sort
    /// nothing).
    pub swept: u64,
}

impl JoinCounters {
    /// Folds another counter into this one — the deterministic reduction
    /// the parallel join executors apply to per-worker counters (counts are
    /// pure sums, so the merge is independent of worker interleaving).
    pub fn merge(&mut self, other: &JoinCounters) {
        self.tests += other.tests;
        self.results += other.results;
        self.node_visits += other.node_visits;
        self.swept += other.swept;
    }
}

/// An in-memory spatial (intersection) join on two sets of KPEs.
///
/// Implementations may reorder the input slices (all of them sort by `xl`).
/// The same instance can be reused across many partition pairs; counters
/// accumulate until [`InternalJoin::reset`].
pub trait InternalJoin {
    /// Joins `r` and `s`, invoking `out(a, b)` exactly once for every
    /// intersecting pair with `a ∈ r`, `b ∈ s`.
    fn join(&mut self, r: &mut [Kpe], s: &mut [Kpe], out: &mut dyn FnMut(&Kpe, &Kpe));

    /// Work counters accumulated so far.
    fn counters(&self) -> JoinCounters;

    /// Clears the counters.
    fn reset(&mut self);
}

/// Runtime selection of the internal algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InternalAlgo {
    /// Simple all-pairs loop.
    NestedLoops,
    /// List-based plane sweep of [BKS 93] (PBSM's original choice).
    #[default]
    PlaneSweepList,
    /// Interval-trie plane sweep (this paper's proposal).
    PlaneSweepTrie,
}

impl InternalAlgo {
    /// Instantiates the selected algorithm. The trait object is `Send` so
    /// each parallel join worker can own its own instance.
    pub fn create(self) -> Box<dyn InternalJoin + Send> {
        match self {
            InternalAlgo::NestedLoops => Box::new(NestedLoops::new()),
            InternalAlgo::PlaneSweepList => Box::new(PlaneSweepList::new()),
            InternalAlgo::PlaneSweepTrie => Box::new(PlaneSweepTrie::new()),
        }
    }

    /// Counters `c` of a join of this algorithm as priced work: nested loops
    /// test pairwise, the list sweep in blocks, the trie node entry by entry.
    pub fn work(self, c: &JoinCounters) -> Work {
        let tests = Work {
            swept: c.swept,
            node_visits: c.node_visits,
            candidates: c.results,
            ..Work::default()
        };
        match self {
            InternalAlgo::NestedLoops => Work { tests: c.tests, ..tests },
            InternalAlgo::PlaneSweepList => Work { scan_tests: c.tests, ..tests },
            InternalAlgo::PlaneSweepTrie => Work { status_tests: c.tests, ..tests },
        }
    }

    /// All variants, for exhaustive cross-validation in tests and benches.
    pub const ALL: [InternalAlgo; 3] = [
        InternalAlgo::NestedLoops,
        InternalAlgo::PlaneSweepList,
        InternalAlgo::PlaneSweepTrie,
    ];
}

impl std::fmt::Display for InternalAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InternalAlgo::NestedLoops => write!(f, "nested-loops"),
            InternalAlgo::PlaneSweepList => write!(f, "sweep-list"),
            InternalAlgo::PlaneSweepTrie => write!(f, "sweep-trie"),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use geom::{Kpe, Rect, RecordId};
    use rand::prelude::*;

    /// Uniform random rectangles with edges up to `max_edge`.
    pub fn random_kpes(n: usize, max_edge: f64, seed: u64) -> Vec<Kpe> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x = rng.gen_range(0.0..1.0);
                let y = rng.gen_range(0.0..1.0);
                let w = rng.gen_range(0.0..max_edge);
                let h = rng.gen_range(0.0..max_edge);
                Kpe::new(
                    RecordId(i as u64),
                    Rect::new(x, y, (x + w).min(1.0), (y + h).min(1.0)),
                )
            })
            .collect()
    }

    /// Reference result: ordered id pairs from brute force.
    pub fn brute_force(r: &[Kpe], s: &[Kpe]) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for a in r {
            for b in s {
                if a.rect.intersects(&b.rect) {
                    out.push((a.id.0, b.id.0));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    fn run(algo: InternalAlgo, r: &[Kpe], s: &[Kpe]) -> (Vec<(u64, u64)>, JoinCounters) {
        let mut j = algo.create();
        let mut rv = r.to_vec();
        let mut sv = s.to_vec();
        let mut got = Vec::new();
        j.join(&mut rv, &mut sv, &mut |a, b| got.push((a.id.0, b.id.0)));
        got.sort_unstable();
        (got, j.counters())
    }

    #[test]
    fn all_algorithms_match_brute_force_small() {
        let r = random_kpes(60, 0.1, 11);
        let s = random_kpes(80, 0.1, 22);
        let want = brute_force(&r, &s);
        assert!(!want.is_empty());
        for algo in InternalAlgo::ALL {
            let (got, c) = run(algo, &r, &s);
            assert_eq!(got, want, "{algo} diverges from brute force");
            assert_eq!(c.results, want.len() as u64);
        }
    }

    #[test]
    fn all_algorithms_match_on_large_skewed_input() {
        // Long, thin rects stress the forward scan and the trie descent.
        let mut r = random_kpes(300, 0.01, 33);
        for (i, k) in r.iter_mut().enumerate() {
            if i % 7 == 0 {
                k.rect.xh = (k.rect.xl + 0.5).min(1.0); // make some very wide
            }
        }
        let s = random_kpes(300, 0.02, 44);
        let want = brute_force(&r, &s);
        for algo in InternalAlgo::ALL {
            let (got, _) = run(algo, &r, &s);
            assert_eq!(got.len(), want.len(), "{algo} count mismatch");
            assert_eq!(got, want, "{algo} diverges");
        }
    }

    #[test]
    fn empty_inputs_yield_no_results() {
        let r = random_kpes(10, 0.1, 1);
        for algo in InternalAlgo::ALL {
            let (got, c) = run(algo, &[], &r);
            assert!(got.is_empty());
            assert_eq!(c.results, 0);
            let (got, _) = run(algo, &r, &[]);
            assert!(got.is_empty());
        }
    }

    #[test]
    fn self_join_reports_ordered_pairs_including_identity() {
        let r = random_kpes(40, 0.2, 5);
        let want = brute_force(&r, &r);
        // Identity pairs are present...
        for k in &r {
            assert!(want.binary_search(&(k.id.0, k.id.0)).is_ok());
        }
        // ...and every algorithm reproduces the full ordered-pair set.
        for algo in InternalAlgo::ALL {
            let (got, _) = run(algo, &r, &r);
            assert_eq!(got, want, "{algo} diverges on self join");
        }
    }

    #[test]
    fn sweep_list_does_fewer_tests_than_nested_loops() {
        let r = random_kpes(500, 0.01, 7);
        let s = random_kpes(500, 0.01, 8);
        let (_, nl) = run(InternalAlgo::NestedLoops, &r, &s);
        let (_, sl) = run(InternalAlgo::PlaneSweepList, &r, &s);
        assert_eq!(nl.tests, 500 * 500);
        assert!(
            sl.tests < nl.tests / 10,
            "sweep {0} tests vs nested {1}",
            sl.tests,
            nl.tests
        );
    }

    #[test]
    fn trie_does_fewer_tests_than_list_on_wide_rects() {
        // Wide-x rects make the list's forward scans long; the trie's y-axis
        // filtering should cut the test count (this is the Figure 4 effect).
        let mut r = random_kpes(2000, 0.003, 17);
        let mut s = random_kpes(2000, 0.003, 18);
        for k in r.iter_mut().chain(s.iter_mut()) {
            k.rect.xh = (k.rect.xl + 0.2).min(1.0); // widen x, keep y tiny
        }
        let (res_l, list) = run(InternalAlgo::PlaneSweepList, &r, &s);
        let (res_t, trie) = run(InternalAlgo::PlaneSweepTrie, &r, &s);
        assert_eq!(res_l, res_t);
        assert!(
            trie.tests < list.tests / 4,
            "trie {0} tests vs list {1}",
            trie.tests,
            list.tests
        );
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let r = random_kpes(50, 0.1, 2);
        let mut j = InternalAlgo::PlaneSweepList.create();
        let mut rv = r.clone();
        let mut sv = r.clone();
        j.join(&mut rv, &mut sv, &mut |_, _| {});
        let once = j.counters();
        j.join(&mut rv, &mut sv, &mut |_, _| {});
        let twice = j.counters();
        assert_eq!(twice.results, 2 * once.results);
        j.reset();
        assert_eq!(j.counters(), JoinCounters::default());
    }
}

#[cfg(test)]
mod proptests {
    use super::testutil::brute_force;
    use super::*;
    use geom::{Kpe, Point, Rect, RecordId};
    use proptest::prelude::*;

    fn arb_kpes(max_n: usize) -> impl Strategy<Value = Vec<Kpe>> {
        prop::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.3, 0.0f64..0.3),
            0..max_n,
        )
        .prop_map(|v| {
            v.into_iter()
                .enumerate()
                .map(|(i, (x, y, w, h))| {
                    Kpe::new(
                        RecordId(i as u64),
                        Rect::from_corners(
                            Point::new(x, y),
                            Point::new((x + w).min(1.0), (y + h).min(1.0)),
                        ),
                    )
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every internal algorithm returns exactly the brute-force set.
        #[test]
        fn prop_all_algorithms_exact(r in arb_kpes(80), s in arb_kpes(80)) {
            let want = brute_force(&r, &s);
            for algo in InternalAlgo::ALL {
                let mut j = algo.create();
                let (mut rv, mut sv) = (r.clone(), s.clone());
                let mut got = Vec::new();
                j.join(&mut rv, &mut sv, &mut |a, b| got.push((a.id.0, b.id.0)));
                got.sort_unstable();
                prop_assert_eq!(&got, &want, "{} diverges", algo);
                prop_assert_eq!(j.counters().results, want.len() as u64);
            }
        }

        /// The sweeps never do more tests than nested loops.
        #[test]
        fn prop_sweeps_bounded_by_quadratic(r in arb_kpes(60), s in arb_kpes(60)) {
            for algo in [InternalAlgo::PlaneSweepList, InternalAlgo::PlaneSweepTrie] {
                let mut j = algo.create();
                let (mut rv, mut sv) = (r.clone(), s.clone());
                j.join(&mut rv, &mut sv, &mut |_, _| {});
                prop_assert!(j.counters().tests <= (r.len() * s.len()) as u64);
            }
        }
    }
}
