use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{FileId, FixedRecord, IoError, RecordReader, RecordWriter, SimDisk};

/// Outcome counters of an [`external_sort_by`] invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Initial sorted runs formed.
    pub runs: usize,
    /// Merge passes over the data (0 if a single run sufficed).
    pub merge_passes: usize,
}

/// Buffer sizing for a given memory budget: buffers must scale *down* with
/// tiny budgets or they would swallow the whole run-formation memory (with
/// 8 KiB pages and a 64 KiB budget, fixed 4-page buffers would leave room
/// for one-record runs and an explosion of merge passes).
#[derive(Clone, Copy)]
struct BufferPlan {
    /// Reader buffer while scanning unsorted input.
    in_pages: usize,
    /// Writer buffer for runs and merge output.
    out_pages: usize,
    /// Reader buffer per run during merging.
    run_pages: usize,
}

impl BufferPlan {
    fn for_budget(mem_bytes: usize, page_size: usize) -> BufferPlan {
        let budget_pages = (mem_bytes / page_size).max(2);
        BufferPlan {
            in_pages: (budget_pages / 8).clamp(1, 4),
            out_pages: (budget_pages / 8).clamp(1, 4),
            run_pages: (budget_pages / 16).clamp(1, 2),
        }
    }

    /// Records per sorted run after reserving the scan/output buffers; at
    /// least half the budget always goes to run formation.
    fn run_records(&self, mem_bytes: usize, page_size: usize, record: usize) -> usize {
        let reserved = (self.in_pages + self.out_pages) * page_size;
        (mem_bytes.saturating_sub(reserved).max(mem_bytes / 2).max(record)) / record
    }

    /// Merge fan-in under the budget.
    fn fan_in(&self, mem_bytes: usize, page_size: usize) -> usize {
        ((mem_bytes / page_size).saturating_sub(self.out_pages) / self.run_pages).max(2)
    }
}

/// Sorts a record file with at most `mem_bytes` of working memory:
/// memory-bounded run formation followed by multiway merging with a
/// memory-bounded fan-in (classic external merge sort, [Knu 70] / [Gra 93]).
///
/// The input file is left untouched; the sorted output is a fresh file.
/// `key` must be cheap — it is evaluated once per comparison-heap insertion.
///
/// An error surfaces when a page request exhausts the disk's retry budget;
/// intermediate run files are deleted before returning it.
pub fn try_external_sort_by<R, K, F>(
    disk: &SimDisk,
    input: FileId,
    mem_bytes: usize,
    key: F,
) -> Result<(FileId, SortStats), IoError>
where
    R: FixedRecord,
    K: Ord,
    F: Fn(&R) -> K + Copy,
{
    let ps = disk.model().page_size;
    let plan = BufferPlan::for_budget(mem_bytes, ps);
    let run_records = plan.run_records(mem_bytes, ps, R::SIZE);

    // --- Run formation -----------------------------------------------------
    let mut stats = SortStats::default();
    let mut reader = RecordReader::<R>::new(disk, input, plan.in_pages);
    // Runs (and, below, merge outputs) stay on the input's I/O channel: the
    // sort of a partition's data contends with that partition's channel,
    // not with every other channel's.
    let runs_file = disk.create_like(input);
    let mut runs: Vec<(u64, u64)> = Vec::new(); // byte ranges
    let mut offset = 0u64;
    let mut chunk: Vec<R> = Vec::with_capacity(run_records.min(1 << 20));
    let formed = (|| -> Result<(), IoError> {
        loop {
            chunk.clear();
            reader.try_read_into(&mut chunk, run_records)?;
            if chunk.is_empty() {
                return Ok(());
            }
            chunk.sort_by_key(|a| key(a));
            let mut w = RecordWriter::<R>::new(disk, runs_file, plan.out_pages);
            w.try_push_all(&chunk)?;
            let bytes = (chunk.len() * R::SIZE) as u64;
            w.try_finish()?;
            runs.push((offset, offset + bytes));
            offset += bytes;
            stats.runs += 1;
        }
    })();
    drop(reader);
    if let Err(e) = formed {
        disk.delete(runs_file);
        return Err(e);
    }

    let out = try_merge_runs::<R, K, F>(disk, runs_file, runs, mem_bytes, key, &mut stats)?;
    Ok((out, stats))
}

/// Infallible wrapper over [`try_external_sort_by`]; panics with the typed
/// error's message if a request cannot be satisfied.
pub fn external_sort_by<R, K, F>(
    disk: &SimDisk,
    input: FileId,
    mem_bytes: usize,
    key: F,
) -> (FileId, SortStats)
where
    R: FixedRecord,
    K: Ord,
    F: Fn(&R) -> K + Copy,
{
    try_external_sort_by(disk, input, mem_bytes, key)
        .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
}

/// Sorts an in-memory slice into a record file with at most `mem_bytes` of
/// working memory. Unlike [`external_sort_by`] the *input* is read for free
/// (it is already in memory / comes from an upstream operator, which the
/// paper's cost model does not charge); only runs and merge passes hit the
/// disk.
pub fn try_external_sort_slice<R, K, F>(
    disk: &SimDisk,
    data: &[R],
    mem_bytes: usize,
    key: F,
) -> Result<(FileId, SortStats), IoError>
where
    R: FixedRecord,
    K: Ord,
    F: Fn(&R) -> K + Copy,
{
    let ps = disk.model().page_size;
    let plan = BufferPlan::for_budget(mem_bytes, ps);
    let run_records = plan.run_records(mem_bytes, ps, R::SIZE);

    let mut stats = SortStats::default();
    let runs_file = disk.create();
    let mut runs: Vec<(u64, u64)> = Vec::new();
    let mut offset = 0u64;
    for chunk in data.chunks(run_records) {
        let mut sorted: Vec<R> = chunk.to_vec();
        sorted.sort_by_key(|a| key(a));
        let mut w = RecordWriter::<R>::new(disk, runs_file, plan.out_pages);
        if let Err(e) = w.try_push_all(&sorted).and_then(|()| w.try_finish()) {
            disk.delete(runs_file);
            return Err(e);
        }
        let bytes = (sorted.len() * R::SIZE) as u64;
        runs.push((offset, offset + bytes));
        offset += bytes;
        stats.runs += 1;
    }
    let out = try_merge_runs::<R, K, F>(disk, runs_file, runs, mem_bytes, key, &mut stats)?;
    Ok((out, stats))
}

/// Infallible wrapper over [`try_external_sort_slice`].
pub fn external_sort_slice<R, K, F>(
    disk: &SimDisk,
    data: &[R],
    mem_bytes: usize,
    key: F,
) -> (FileId, SortStats)
where
    R: FixedRecord,
    K: Ord,
    F: Fn(&R) -> K + Copy,
{
    try_external_sort_slice(disk, data, mem_bytes, key)
        .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
}

/// Repeated multiway merging until one run remains; returns the final file.
/// On error both the current and the half-written next file are deleted.
fn try_merge_runs<R, K, F>(
    disk: &SimDisk,
    runs_file: FileId,
    runs: Vec<(u64, u64)>,
    mem_bytes: usize,
    key: F,
    stats: &mut SortStats,
) -> Result<FileId, IoError>
where
    R: FixedRecord,
    K: Ord,
    F: Fn(&R) -> K + Copy,
{
    let ps = disk.model().page_size;
    if runs.len() <= 1 {
        return Ok(runs_file);
    }
    let plan = BufferPlan::for_budget(mem_bytes, ps);
    let fan_in = plan.fan_in(mem_bytes, ps);
    let mut current_file = runs_file;
    let mut current_runs = runs;
    while current_runs.len() > 1 {
        stats.merge_passes += 1;
        let next_file = disk.create_like(current_file);
        let mut next_runs: Vec<(u64, u64)> = Vec::new();
        let mut out_offset = 0u64;
        for group in current_runs.chunks(fan_in) {
            let bytes: u64 = group.iter().map(|(s, e)| e - s).sum();
            if let Err(e) = try_merge_group::<R, K, F>(disk, current_file, group, next_file, key, plan) {
                disk.delete(current_file);
                disk.delete(next_file);
                return Err(e);
            }
            next_runs.push((out_offset, out_offset + bytes));
            out_offset += bytes;
        }
        disk.delete(current_file);
        current_file = next_file;
        current_runs = next_runs;
    }
    Ok(current_file)
}

/// Merges the given runs of `src` and appends the merged output to `dst`.
fn try_merge_group<R, K, F>(
    disk: &SimDisk,
    src: FileId,
    runs: &[(u64, u64)],
    dst: FileId,
    key: F,
    plan: BufferPlan,
) -> Result<(), IoError>
where
    R: FixedRecord,
    K: Ord,
    F: Fn(&R) -> K + Copy,
{
    struct Entry<K> {
        key: K,
        run: usize,
        seq: u64,
    }
    impl<K: Ord> PartialEq for Entry<K> {
        fn eq(&self, o: &Self) -> bool {
            self.cmp(o) == std::cmp::Ordering::Equal
        }
    }
    impl<K: Ord> Eq for Entry<K> {}
    impl<K: Ord> PartialOrd for Entry<K> {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl<K: Ord> Ord for Entry<K> {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            // Tie-break on (run, seq) to make the merge stable.
            self.key
                .cmp(&o.key)
                .then(self.run.cmp(&o.run))
                .then(self.seq.cmp(&o.seq))
        }
    }

    let mut readers: Vec<RecordReader<R>> = runs
        .iter()
        .map(|&(s, e)| RecordReader::with_range(disk, src, s, e, plan.run_pages))
        .collect();
    let mut pending: Vec<Option<R>> = Vec::with_capacity(readers.len());
    let mut heap: BinaryHeap<Reverse<Entry<K>>> = BinaryHeap::with_capacity(readers.len());
    let mut seq = 0u64;
    for (i, r) in readers.iter_mut().enumerate() {
        let first = r.try_next()?;
        if let Some(ref rec) = first {
            heap.push(Reverse(Entry {
                key: key(rec),
                run: i,
                seq,
            }));
            seq += 1;
        }
        pending.push(first);
    }
    let mut w = RecordWriter::<R>::new(disk, dst, plan.out_pages);
    while let Some(Reverse(top)) = heap.pop() {
        // Invariant: every heap entry was inserted together with its record
        // in `pending[run]`, and entries per run alternate push/pop.
        let rec = pending[top.run].take().expect("heap/pending out of sync");
        w.try_push(&rec)?;
        if let Some(next) = readers[top.run].try_next()? {
            heap.push(Reverse(Entry {
                key: key(&next),
                run: top.run,
                seq,
            }));
            seq += 1;
            pending[top.run] = Some(next);
        }
    }
    w.try_finish()?;
    Ok(())
}

/// [`try_external_sort_by`] for records that are themselves `Ord`.
pub fn try_external_sort<R>(
    disk: &SimDisk,
    input: FileId,
    mem_bytes: usize,
) -> Result<(FileId, SortStats), IoError>
where
    R: FixedRecord + Ord,
{
    try_external_sort_by(disk, input, mem_bytes, |r: &R| *r)
}

/// [`external_sort_by`] for records that are themselves `Ord`.
pub fn external_sort<R>(disk: &SimDisk, input: FileId, mem_bytes: usize) -> (FileId, SortStats)
where
    R: FixedRecord + Ord,
{
    external_sort_by(disk, input, mem_bytes, |r: &R| *r)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::record::{read_all, write_all};
    use crate::{DiskModel, IdPair};
    use rand::prelude::*;

    fn disk() -> SimDisk {
        SimDisk::new(DiskModel {
            page_size: 64,
            positioning_ratio: 5.0,
            transfer_secs_per_page: 1.0,
            cpu_slowdown: 1.0,
            channels: 1,
            degraded_channel: None,
        })
    }

    fn shuffled_pairs(n: u64, seed: u64) -> Vec<IdPair> {
        let mut v: Vec<IdPair> = (0..n).map(|i| IdPair { r: i, s: n - i }).collect();
        v.shuffle(&mut StdRng::seed_from_u64(seed));
        v
    }

    #[test]
    fn sorts_empty_input() {
        let d = disk();
        let f = write_all::<IdPair>(&d, &[], 1);
        let (out, stats) = external_sort::<IdPair>(&d, f, 1024);
        assert!(read_all::<IdPair>(&d, out, 1).is_empty());
        assert_eq!(stats.runs, 0);
    }

    #[test]
    fn sorts_in_memory_single_run() {
        let d = disk();
        let v = shuffled_pairs(50, 1);
        let f = write_all(&d, &v, 2);
        let (out, stats) = external_sort::<IdPair>(&d, f, 1 << 20);
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.merge_passes, 0);
        let got = read_all::<IdPair>(&d, out, 2);
        let mut want = v;
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn sorts_with_multiple_runs_and_merge() {
        let d = disk();
        let v = shuffled_pairs(1000, 2);
        let f = write_all(&d, &v, 4);
        // Tiny memory: forces many runs and (with fan-in limits) maybe
        // multiple merge passes.
        let (out, stats) = external_sort::<IdPair>(&d, f, 1024);
        assert!(stats.runs > 1, "expected multiple runs, got {stats:?}");
        assert!(stats.merge_passes >= 1);
        let got = read_all::<IdPair>(&d, out, 4);
        let mut want = v;
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn sort_by_custom_key_descending() {
        let d = disk();
        let v = shuffled_pairs(200, 3);
        let f = write_all(&d, &v, 2);
        let (out, _) = external_sort_by::<IdPair, _, _>(&d, f, 2048, |p| std::cmp::Reverse(p.r));
        let got = read_all::<IdPair>(&d, out, 2);
        let mut want = v;
        want.sort_by_key(|p| std::cmp::Reverse(p.r));
        assert_eq!(got, want);
    }

    #[test]
    fn sort_is_stable_under_equal_keys() {
        let d = disk();
        // All records share one key; stability means input order survives.
        let v: Vec<IdPair> = (0..300).map(|i| IdPair { r: 7, s: i }).collect();
        let f = write_all(&d, &v, 2);
        let (out, stats) = external_sort_by::<IdPair, _, _>(&d, f, 1024, |p| p.r);
        assert!(stats.runs > 1);
        let got = read_all::<IdPair>(&d, out, 2);
        assert_eq!(got, v);
    }

    #[test]
    fn smaller_memory_means_more_io() {
        let d = disk();
        let v = shuffled_pairs(2000, 4);
        let f = write_all(&d, &v, 8);
        d.reset_stats();
        let (out1, _) = external_sort::<IdPair>(&d, f, 1 << 20);
        let big_mem_units = d.model().units(&d.stats());
        d.delete(out1);
        d.reset_stats();
        let (_, _) = external_sort::<IdPair>(&d, f, 1024);
        let small_mem_units = d.model().units(&d.stats());
        assert!(
            small_mem_units > big_mem_units,
            "small {small_mem_units} vs big {big_mem_units}"
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod proptests {
    use super::*;
    use crate::record::{read_all, write_all};
    use crate::{DiskModel, IdPair};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// External sort equals std sort for arbitrary inputs, memory
        /// budgets and page sizes.
        #[test]
        fn prop_external_sort_matches_std(
            values in prop::collection::vec((0u64..1000, 0u64..1000), 0..400),
            mem in 256usize..8192,
            page in 32usize..512,
        ) {
            let disk = SimDisk::new(DiskModel {
                page_size: page,
                positioning_ratio: 3.0,
                transfer_secs_per_page: 1.0,
                cpu_slowdown: 1.0,
                channels: 1,
                degraded_channel: None,
            });
            let records: Vec<IdPair> = values.iter().map(|&(r, s)| IdPair { r, s }).collect();
            let f = write_all(&disk, &records, 2);
            let (out, _) = external_sort::<IdPair>(&disk, f, mem);
            let got = read_all::<IdPair>(&disk, out, 2);
            let mut want = records.clone();
            want.sort();
            prop_assert_eq!(got, want);
        }

        /// The slice front-end agrees with the file front-end.
        #[test]
        fn prop_sort_slice_matches_sort_file(
            values in prop::collection::vec(0u64..100_000, 0..300),
            mem in 256usize..4096,
        ) {
            let disk = SimDisk::new(DiskModel {
                page_size: 64,
                positioning_ratio: 1.0,
                transfer_secs_per_page: 1.0,
                cpu_slowdown: 1.0,
                channels: 1,
                degraded_channel: None,
            });
            let records: Vec<IdPair> = values.iter().map(|&v| IdPair { r: v, s: !v }).collect();
            let f = write_all(&disk, &records, 2);
            let (a, _) = external_sort_by::<IdPair, _, _>(&disk, f, mem, |p| p.r);
            let (b, _) = external_sort_slice::<IdPair, _, _>(&disk, &records, mem, |p| p.r);
            prop_assert_eq!(
                read_all::<IdPair>(&disk, a, 2),
                read_all::<IdPair>(&disk, b, 2)
            );
        }
    }
}
