//! Counted CPU work and its price: the CPU leg of the simulated clock. Like
//! the paper's `PT + n` for I/O (§2) it is a count model: a run tallies its
//! operations as a [`Work`], one table prices each in host nanoseconds, and
//! [`DiskModel::priced_cpu`](crate::DiskModel::priced_cpu) stretches that to
//! the emulated machine. The prices were read off one `sjbench --trace 1`
//! run of `lowsel` (J1 at full scale) on a 2-core x86-64 host, each from the
//! per-layer row its doc names; EXPERIMENTS.md "Calibration" tables how far
//! every `repro` experiment's priced CPU lands from measured host CPU.

use std::ops::{Add, AddAssign, Sub};

/// Declares [`Work`] from the price table: a `u64` counter per operation,
/// its host price in nanoseconds, and the per-layer row it was read from.
macro_rules! work {
    ($($(#[doc = $doc:literal])* $op:ident: $ns:expr,)*) => {
        /// The operations a run (or a phase, unit or prefix of one) performed,
        /// each priced as its doc says.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Work {
            $($(#[doc = $doc])* pub $op: u64,)*
        }

        impl Work {
            /// No work: what `Default` gives, for constants.
            pub const ZERO: Work = Work { $($op: 0,)* };

            /// What this work costs on the host, in nanoseconds.
            pub fn host_nanos(&self) -> f64 {
                0.0 $(+ self.$op as f64 * $ns)*
            }
        }

        impl Add for Work {
            type Output = Work;
            fn add(self, other: Work) -> Work {
                Work { $($op: self.$op + other.$op,)* }
            }
        }

        /// The work done between an earlier snapshot (`other`) and this one.
        impl Sub for Work {
            type Output = Work;
            fn sub(self, other: Work) -> Work {
                Work { $($op: self.$op - other.$op,)* }
            }
        }
    };
}

work! {
    /// Input records assigned to a partition, level or bucket: 15.2 ns
    /// (`pbsm.assign_ns_per_rect`).
    assigned: 15.2,
    /// Record copies written to a paged file and read back: 28.7 ns (`storage.page_write_ns`
    /// 3,839 + `storage.page_read_ns` 2,031, over an 8 KiB page's 204.8 records).
    copies: 28.7,
    /// Records through an external sort (or SSSJ's whole-input sort): 150 ns
    /// (`storage.sort_ns_per_record` 116 ns for one run; `s3j.sort_ms` 121 ns a
    /// record with J1's merge pass, while J5's level files merge at 185 ns).
    sorted: 150.0,
    /// Records sorted in memory — a sweep's inputs (`sweep::JoinCounters::swept`),
    /// an STR level: 45 ns (`pbsm.join_ms` 40.0 ms less its tests and
    /// candidates, over its sweeps' 261 k records).
    swept: 45.0,
    /// Rectangle tests of a pairwise loop (nested loops, the quadtree's lists,
    /// SHJ's seeds and extents): 1.3 ns (`sweep.nested_ns_per_test` 1.27).
    tests: 1.3,
    /// Rectangle tests of the block-wise forward-scan kernel: 0.85 ns, kept as
    /// the snapshot pins it. With the any-hit block `sweep.list_ns_per_test`
    /// reads 0.80–1.17 on `hisel`'s long scans and 1.51–1.94 on `lowsel`'s
    /// (1.18–1.69 and 2.02–2.28 with the bitmask block, same 2-core VM).
    scan_tests: 0.85,
    /// Rectangle tests against a lazily pruned status (SSSJ's, the trie's nodes): 5.8 ns, kept as
    /// the snapshot pins it; SSSJ's columnar sweep reads 2.2 host ns a test on J1's 32.7 M and
    /// 1.3–1.6 on J4's 130 M (2.3–2.7 and 1.4–1.8 with the bitmask block).
    status_tests: 5.8,
    /// Interval-trie (or R-tree) node visits: 33 ns (`sweep.trie_ns_per_test`
    /// 252 ns at the strip's 7.4 visits a test, less the test).
    node_visits: 33.0,
    /// Candidate pairs an internal join reported, classified by the
    /// reference-point test and passed on: 26.6 ns (`geom.rpm_ns`).
    candidates: 26.6,
    /// S³J locational codes computed: 28 ns (`sfc.mxcif_ns`).
    codes: 28.0,
    /// S³J partitions discovered by the scan — read, popped, decoded, stacked:
    /// 250 ns. With root paths as arenas the host reads ≈ 280 ns (`s3j.join_ms`
    /// 55.7 ms on `lowsel` less tests and candidates, / 183 k; ≈ 430 ns with a
    /// `Vec` per partition on the same box).
    partitions: 250.0,
}

impl AddAssign for Work {
    fn add_assign(&mut self, other: Work) {
        *self = *self + other;
    }
}

/// A pooled phase on the priced clock: the pool's claim rule replayed over
/// per-unit work. The next unit in canonical order goes to the least-loaded
/// of `threads` workers (the lowest index among equals), so a unit's start
/// and the phase's end depend on the units' work and the thread count alone,
/// never on the host's scheduling; one worker is the sequential clock.
#[derive(Debug, Clone)]
pub struct Schedule {
    loads: Vec<Work>,
}

impl Schedule {
    pub fn new(threads: usize) -> Schedule {
        Schedule { loads: vec![Work::default(); threads.max(1)] }
    }

    /// Gives a unit of `work` to the least-loaded worker. Returns that
    /// worker and the work it had done before the unit: the unit's start.
    pub fn place(&mut self, work: Work) -> (usize, Work) {
        let w = (0..self.loads.len())
            .min_by(|&a, &b| self.loads[a].host_nanos().total_cmp(&self.loads[b].host_nanos()))
            .unwrap_or(0);
        let start = self.loads[w];
        self.loads[w] += work;
        (w, start)
    }

    /// The most-loaded worker (the lowest index among equals) and its work:
    /// where the phase ends so far.
    pub fn span(&self) -> (usize, Work) {
        let nanos = |w: usize| self.loads[w].host_nanos();
        let w = (0..self.loads.len()).fold(0, |m, w| if nanos(w) > nanos(m) { w } else { m });
        (w, self.loads[w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tests(n: u64) -> Work {
        Work {
            tests: n,
            ..Work::default()
        }
    }

    #[test]
    fn work_adds_and_subtracts_field_by_field() {
        let a = Work {
            copies: 3,
            tests: 10,
            ..Work::default()
        };
        let b = Work {
            copies: 1,
            codes: 2,
            ..Work::default()
        };
        assert_eq!((a + b) - b, a);
        assert_eq!((a + b).codes, 2);
        assert_eq!(Work::default().host_nanos(), 0.0);
        assert_eq!(tests(10).host_nanos(), 10.0 * 1.3);
    }

    #[test]
    fn one_worker_schedules_the_sequential_clock() {
        let mut s = Schedule::new(1);
        let mut sum = Work::default();
        for n in [5, 1, 9, 2] {
            assert_eq!(s.place(tests(n)), (0, sum));
            sum += tests(n);
        }
        assert_eq!(s.span(), (0, sum));
    }

    #[test]
    fn units_go_to_the_least_loaded_worker_and_the_span_falls_with_threads() {
        let units = [8, 3, 3, 2, 2, 2];
        let mut s = Schedule::new(2);
        let starts: Vec<(usize, Work)> = units.iter().map(|&n| s.place(tests(n))).collect();
        // 8 → w0; 3 → w1; 3 → w1 (3 < 8); 2 → w1 (6 < 8); 2 → w0 (8 = 8,
        // the lower index); 2 → w1 (8 < 10). Both end at 10: w0 is the span.
        assert_eq!(starts.iter().map(|(w, _)| *w).collect::<Vec<_>>(), [0, 1, 1, 1, 0, 1]);
        assert_eq!(starts[2].1, tests(3));
        assert_eq!(s.span(), (0, tests(10)));
        let span = |threads| {
            let mut s = Schedule::new(threads);
            units.iter().for_each(|&n| {
                s.place(tests(n));
            });
            s.span().1.tests
        };
        assert_eq!(span(1), 20);
        assert!(span(2) < span(1) && span(4) < span(2));
        assert_eq!(span(4), 8, "the largest unit bounds the span");
    }
}
