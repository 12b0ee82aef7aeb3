//! Scalable Sweeping-Based Spatial Join (SSSJ) — comparison baseline.
//!
//! SSSJ ([APR+ 98]) is the third index-free competitor the paper discusses
//! (§1): externally sort both relations by their left edge, then run a
//! single plane sweep over the merged streams, keeping the sweep-line status
//! in memory. It is worst-case optimal and produces no duplicates (nothing
//! is replicated) — but it is *blocking*: not a single result can be
//! produced before both inputs are completely sorted, which is exactly the
//! [Gra 93] pipelining objection the paper raises against it.
//!
//! This implementation keeps the status structures in memory (lists with
//! lazy deletion), which on the paper's real datasets is the common case;
//! the original's distribution-sweeping fallback for an oversized status is
//! out of scope (documented in DESIGN.md). When both inputs fit in the
//! memory budget the sort happens entirely in memory and no I/O is charged,
//! matching the paper's cost model where input scans are free.

use std::time::Instant;

use geom::{Kpe, RecordId};
use storage::{external_sort_slice, IoStats, RecordReader, RunClock, SimDisk, SortStats, Work};
use sweep::JoinCounters;

/// SSSJ tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SssjConfig {
    /// Memory budget for the two external sorts.
    pub mem_bytes: usize,
    /// Buffer pages for sequential scans.
    pub io_buffer_pages: usize,
}

impl Default for SssjConfig {
    fn default() -> Self {
        SssjConfig {
            mem_bytes: 8 << 20,
            io_buffer_pages: 4,
        }
    }
}

/// Measurements of one SSSJ run.
#[derive(Debug, Clone)]
pub struct SssjStats {
    pub results: u64,
    pub join_counters: JoinCounters,
    pub sort_r: SortStats,
    pub sort_s: SortStats,
    pub io_sort: IoStats,
    pub io_join: IoStats,
    /// Counted CPU work, the simulated clock's CPU leg: both inputs sorted,
    /// then the sweep's tests against its active lists.
    pub work: Work,
    pub cpu_sort: f64,
    pub cpu_join: f64,
    /// Peak rectangles resident in the sweep-line status.
    pub peak_status: usize,
    /// SSSJ's sort/sweep files are untagged (one run file pair, scanned
    /// sequentially — no partition structure to spread), so the shared lane
    /// carries [`io_total`](Self::io_total) and the data channels nothing:
    /// extra channels cannot speed SSSJ up. The first-result position is
    /// the sorted inputs' work and the meter at the first emitted pair.
    pub clock: RunClock,
}

impl SssjStats {
    pub fn io_total(&self) -> IoStats {
        self.io_sort.plus(&self.io_join)
    }

    /// Host CPU seconds (the host clock, beside the priced `work`).
    pub fn cpu_seconds(&self) -> f64 {
        self.cpu_sort + self.cpu_join
    }

    /// Priced CPU seconds on the emulated 1999 machine.
    pub fn scaled_cpu_seconds(&self) -> f64 {
        self.clock.model.priced_cpu(&self.work)
    }

    pub fn total_seconds(&self) -> f64 {
        self.clock.total_seconds(&self.work)
    }
}

/// Runs SSSJ on `r ⋈ s`, invoking `out` for every result pair (exactly
/// once; ordered `(r, s)` orientation).
pub fn sssj_join(
    disk: &SimDisk,
    r: &[Kpe],
    s: &[Kpe],
    cfg: &SssjConfig,
    out: &mut dyn FnMut(RecordId, RecordId),
) -> SssjStats {
    let run_start = Instant::now();
    let io0 = disk.stats();
    let key = |k: &Kpe| ordered_f64(k.rect.xl);
    let in_memory = (r.len() + s.len()) * Kpe::ENCODED_SIZE <= cfg.mem_bytes;

    // --- Sort phase (blocking) ----------------------------------------------
    enum Sorted {
        Mem(Vec<Kpe>),
        Disk(storage::FileId),
    }
    let (sorted_r, sorted_s, sort_r, sort_s) = if in_memory {
        let mut rv = r.to_vec();
        let mut sv = s.to_vec();
        rv.sort_by_key(key);
        sv.sort_by_key(key);
        (
            Sorted::Mem(rv),
            Sorted::Mem(sv),
            SortStats { runs: 1, merge_passes: 0 },
            SortStats { runs: 1, merge_passes: 0 },
        )
    } else {
        // The baseline deliberately uses the panicking storage wrappers:
        // SSSJ does not opt into fault injection (`SpatialJoin::try_run`
        // refuses the combination up front), so on a fault-free disk these
        // calls cannot fail.
        let (fr, st_r) = external_sort_slice::<Kpe, _, _>(disk, r, cfg.mem_bytes / 2, key);
        let (fs, st_s) = external_sort_slice::<Kpe, _, _>(disk, s, cfg.mem_bytes / 2, key);
        (Sorted::Disk(fr), Sorted::Disk(fs), st_r, st_s)
    };
    let io_sort = disk.stats().delta(&io0);
    let cpu_sort = run_start.elapsed().as_secs_f64();
    let work_sort = Work {
        sorted: (r.len() + s.len()) as u64,
        ..Work::default()
    };

    // --- Sweep phase ----------------------------------------------------------
    let t1 = Instant::now();
    let io1 = disk.stats();
    let mut counters = JoinCounters::default();
    let mut peak_status = 0usize;
    let mut clock = RunClock::new(disk.model());
    {
        let mut emit = |a: RecordId, b: RecordId| {
            if clock.first_result.is_none() {
                clock.first_result = Some((work_sort, disk.stats()));
            }
            out(a, b);
        };
        match (&sorted_r, &sorted_s) {
            (Sorted::Mem(rv), Sorted::Mem(sv)) => sweep(
                rv.iter().copied(),
                sv.iter().copied(),
                &mut counters,
                &mut peak_status,
                &mut emit,
            ),
            (Sorted::Disk(fr), Sorted::Disk(fs)) => sweep(
                RecordReader::<Kpe>::new(disk, *fr, cfg.io_buffer_pages),
                RecordReader::<Kpe>::new(disk, *fs, cfg.io_buffer_pages),
                &mut counters,
                &mut peak_status,
                &mut emit,
            ),
            _ => unreachable!("both relations take the same path"),
        }
    }
    if let Sorted::Disk(f) = sorted_r {
        disk.delete(f);
    }
    if let Sorted::Disk(f) = sorted_s {
        disk.delete(f);
    }

    let io_join = disk.stats().delta(&io1);
    clock.io_shared = io_sort.plus(&io_join);
    SssjStats {
        results: counters.results,
        join_counters: counters,
        sort_r,
        sort_s,
        io_sort,
        io_join,
        work: Work {
            status_tests: counters.tests,
            candidates: counters.results,
            ..work_sort
        },
        cpu_sort,
        cpu_join: t1.elapsed().as_secs_f64(),
        peak_status,
        clock,
    }
}

/// The external plane sweep over two `xl`-sorted streams: active lists with
/// lazy deletion; each intersecting pair reported exactly once.
fn sweep(
    mut rs: impl Iterator<Item = Kpe>,
    mut ss: impl Iterator<Item = Kpe>,
    counters: &mut JoinCounters,
    peak_status: &mut usize,
    emit: &mut dyn FnMut(RecordId, RecordId),
) {
    let mut active_r: Vec<Kpe> = Vec::new();
    let mut active_s: Vec<Kpe> = Vec::new();
    let mut nr = rs.next();
    let mut ns = ss.next();
    while nr.is_some() || ns.is_some() {
        let take_r = match (&nr, &ns) {
            (Some(a), Some(b)) => a.rect.xl <= b.rect.xl,
            (Some(_), None) => true,
            _ => false,
        };
        if take_r {
            // Invariant: `take_r` is only true when `nr` is `Some`.
            let cur = nr.take().expect("take_r implies nr is Some");
            nr = rs.next();
            sweep_step(&cur, &mut active_s, counters, &mut |b| emit(cur.id, b.id));
            active_r.push(cur);
        } else {
            // Invariant: the loop condition guarantees `ns` is `Some` when
            // `take_r` is false (both-None ends the loop, r-only sets it).
            let cur = ns.take().expect("!take_r implies ns is Some");
            ns = ss.next();
            sweep_step(&cur, &mut active_r, counters, &mut |a| emit(a.id, cur.id));
            active_s.push(cur);
        }
        *peak_status = (*peak_status).max(active_r.len() + active_s.len());
    }
}

/// Tests `cur` against the other relation's active list, lazily evicting
/// rectangles the sweep line has passed.
fn sweep_step(
    cur: &Kpe,
    other_active: &mut Vec<Kpe>,
    counters: &mut JoinCounters,
    emit: &mut dyn FnMut(&Kpe),
) {
    let x = cur.rect.xl;
    let mut i = 0;
    while i < other_active.len() {
        if other_active[i].rect.xh < x {
            other_active.swap_remove(i);
            continue;
        }
        counters.tests += 1;
        let e = &other_active[i];
        if e.rect.yl <= cur.rect.yh && cur.rect.yl <= e.rect.yh {
            counters.results += 1;
            emit(e);
        }
        i += 1;
    }
}

/// Monotone map of finite f64 sort keys to u64 (sign-magnitude flip).
#[inline]
fn ordered_f64(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::LineNetwork;

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

    fn tiger(n: usize, seed: u64) -> Vec<Kpe> {
        LineNetwork {
            count: n,
            coverage: 0.1,
            segments_per_line: 15,
            seed,
        }
        .generate()
    }

    #[test]
    fn in_memory_path_matches_brute_force_with_zero_io() {
        let r = tiger(2000, 1);
        let s = tiger(2200, 2);
        let disk = SimDisk::with_default_model();
        let mut got = Vec::new();
        let stats = sssj_join(&disk, &r, &s, &SssjConfig::default(), &mut |a, b| {
            got.push((a.0, b.0))
        });
        got.sort_unstable();
        assert_eq!(got, brute(&r, &s));
        assert_eq!(stats.results as usize, got.len());
        assert_eq!(disk.stats(), IoStats::default(), "in-memory path is free");
    }

    #[test]
    fn external_sort_path_still_correct() {
        let r = tiger(3000, 3);
        let s = tiger(3000, 4);
        let disk = SimDisk::with_default_model();
        let cfg = SssjConfig {
            mem_bytes: 32 * 1024, // tiny memory => runs + multiway merge
            ..Default::default()
        };
        let mut got = Vec::new();
        let stats = sssj_join(&disk, &r, &s, &cfg, &mut |a, b| got.push((a.0, b.0)));
        got.sort_unstable();
        assert_eq!(got, brute(&r, &s));
        assert!(stats.sort_r.runs > 1);
        assert!(stats.io_sort.pages_written > 0);
    }

    #[test]
    fn negative_coordinates_sort_correctly() {
        use geom::{Rect, RecordId};
        let r = vec![
            Kpe::new(RecordId(0), Rect::new(-0.5, 0.0, -0.4, 1.0)),
            Kpe::new(RecordId(1), Rect::new(-0.45, 0.0, 0.2, 1.0)),
            Kpe::new(RecordId(2), Rect::new(0.1, 0.0, 0.3, 1.0)),
        ];
        let disk = SimDisk::with_default_model();
        let mut got = Vec::new();
        sssj_join(&disk, &r, &r, &SssjConfig::default(), &mut |a, b| {
            got.push((a.0, b.0))
        });
        got.sort_unstable();
        assert_eq!(got, brute(&r, &r));
    }

    #[test]
    fn first_result_waits_for_sorting_on_external_path() {
        let r = tiger(4000, 5);
        let s = tiger(4000, 6);
        let disk = SimDisk::with_default_model();
        let cfg = SssjConfig {
            mem_bytes: 32 * 1024,
            ..Default::default()
        };
        let stats = sssj_join(&disk, &r, &s, &cfg, &mut |_, _| {});
        let (_, first_io) = stats.clock.first_result.expect("has results");
        // Blocking: all sort I/O is already on the meter at first result.
        assert!(first_io.pages_written >= stats.io_sort.pages_written);
        assert!(stats.clock.first_result_seconds().unwrap() <= stats.total_seconds());
    }

    #[test]
    fn empty_inputs() {
        let disk = SimDisk::with_default_model();
        let stats = sssj_join(&disk, &[], &[], &SssjConfig::default(), &mut |_, _| {
            panic!("no results expected")
        });
        assert_eq!(stats.results, 0);
        assert!(stats.clock.first_result_seconds().is_none());
    }

    #[test]
    fn sweep_peak_status_is_tracked() {
        let r = tiger(1000, 7);
        let disk = SimDisk::with_default_model();
        let stats = sssj_join(&disk, &r, &r, &SssjConfig::default(), &mut |_, _| {});
        assert!(stats.peak_status > 0);
        assert!(stats.peak_status <= 2 * r.len());
    }
}
