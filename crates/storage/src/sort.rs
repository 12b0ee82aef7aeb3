use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::{FileId, FixedRecord, IoError, IoStats, RecordReader, RecordWriter, SimDisk};

/// Outcome counters of an [`external_sort_by`] invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Initial sorted runs formed.
    pub runs: usize,
    /// Merge passes over the data (0 if a single run sufficed).
    pub merge_passes: usize,
}

/// How the external sort spends a memory budget on records of one size:
/// its buffers, run length and merge fan-in, and — [`SortPlan::cost`] — what
/// a sort under them costs. [`try_external_sort_by`] and
/// [`try_external_sort_slice`] run this plan; the planner prices it.
///
/// Buffers scale *down* with tiny budgets or they would swallow the whole
/// run-formation memory (with 8 KiB pages and a 64 KiB budget, fixed 4-page
/// buffers would leave room for one-record runs and an explosion of merge
/// passes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortPlan {
    page_size: usize,
    record: usize,
    /// Reader buffer pages while scanning unsorted input.
    in_pages: usize,
    /// Writer buffer pages for runs and merge output.
    out_pages: usize,
    /// Reader buffer pages per run during merging.
    run_pages: usize,
    /// Records per sorted run after reserving the scan/output buffers; at
    /// least half the budget always goes to run formation.
    run_records: usize,
    /// Runs merged at once.
    fan_in: usize,
}

impl SortPlan {
    /// The plan for `record`-byte records under `mem_bytes` on `page_size`-byte pages.
    pub fn new(mem_bytes: usize, page_size: usize, record: usize) -> SortPlan {
        let budget_pages = (mem_bytes / page_size).max(2);
        let (in_pages, out_pages) = ((budget_pages / 8).clamp(1, 4), (budget_pages / 8).clamp(1, 4));
        let run_pages = (budget_pages / 16).clamp(1, 2);
        let reserved = (in_pages + out_pages) * page_size;
        SortPlan {
            page_size,
            record,
            in_pages,
            out_pages,
            run_pages,
            run_records: mem_bytes.saturating_sub(reserved).max(mem_bytes / 2).max(record) / record,
            fan_in: ((mem_bytes / page_size).saturating_sub(out_pages) / run_pages).max(2),
        }
    }

    /// Sorting `n` records under this plan: its runs and merge passes, and
    /// the requests, pages and bytes they meter on a fault-free disk —
    /// reading the input too when `read_input` ([`external_sort_by`]; the
    /// slice form's input is already in memory), writing every run, and
    /// reading and rewriting everything once per merge pass.
    pub fn cost(&self, n: u64, read_input: bool) -> (SortStats, IoStats) {
        let mut io = IoStats::default();
        if read_input {
            self.meter_read(&mut io, 0, n * self.record as u64, self.in_pages);
        }
        let run = self.run_records as u64;
        let mut runs: Vec<u64> = (0..n.div_ceil(run)).map(|i| (n - i * run).min(run) * self.record as u64).collect();
        let mut stats = SortStats { runs: runs.len(), merge_passes: 0 };
        runs.iter().for_each(|&len| self.meter_write(&mut io, len));
        while runs.len() > 1 {
            stats.merge_passes += 1;
            let mut start = 0;
            runs = runs
                .chunks(self.fan_in)
                .map(|group| {
                    for &len in group {
                        self.meter_read(&mut io, start, len, self.run_pages);
                        start += len;
                    }
                    let len = group.iter().sum();
                    self.meter_write(&mut io, len);
                    len
                })
                .collect();
        }
        (stats, io)
    }

    /// Meters reading bytes `[start, start + len)` through a `pages`-page
    /// buffer: one request per refill, each charged the pages its byte range
    /// touches — a refill that starts inside a page touches one more.
    fn meter_read(&self, io: &mut IoStats, start: u64, len: u64, pages: usize) {
        let page = self.page_size as u64;
        let buffer = pages as u64 * page;
        let (full, tail) = (len / buffer, len % buffer);
        io.read_requests += full + u64::from(tail > 0);
        io.pages_read += full * (pages as u64 + u64::from(!start.is_multiple_of(page)));
        if tail > 0 {
            let at = start + full * buffer;
            io.pages_read += (at + tail - 1) / page - at / page + 1;
        }
        io.bytes_read += len;
    }

    /// Meters one writer's `len` bytes through the output buffer: a request
    /// per full buffer, then one for the partial tail.
    fn meter_write(&self, io: &mut IoStats, len: u64) {
        let page = self.page_size as u64;
        let buffer = self.out_pages as u64 * page;
        io.write_requests += len.div_ceil(buffer);
        io.pages_written += len / buffer * self.out_pages as u64 + (len % buffer).div_ceil(page);
        io.bytes_written += len;
    }
}

/// Bits per radix digit: 2,048 counters fit in L1 next to the data.
const DIGIT_BITS: usize = 11;
const BUCKETS: usize = 1 << DIGIT_BITS;

/// `data` stably sorted by an integer key: the order in which the external
/// sort's run formation writes a run (an LSD radix sort on the bits in which
/// the keys differ), gathered into a copy.
pub fn radix_sorted<R: Copy, K: Into<u128>>(data: &[R], key: impl Fn(&R) -> K) -> Vec<R> {
    Radix::default().order(data, key).map(|i| data[i]).collect()
}

/// The in-memory sort of run formation. It computes the order of a stable
/// sort by an integer key with one LSD radix pass per 11-bit digit in which
/// the keys differ (a digit every key shares is skipped), so the order is
/// exactly that of a stable comparison sort on the key.
///
/// The keys are first cut to the bits in which they differ. When those span
/// at most 32 bits, as S³J's locational codes always do (`2·level` bits),
/// each record is one `u64` word `(key << 32) | index`. Spans up to 64 bits
/// (SSSJ's `xl` images) sort as `(u64, u32)` items, wider ones (PBSM's
/// `(r << 64) | s` pairs) as `(u128, u32)`, and their order is copied out as
/// index words. The word buffers are kept from one run to the next.
#[derive(Default)]
struct Radix {
    words: Vec<u64>,
    scratch: Vec<u64>,
    /// Whether a key ordered so far needs more than 64 bits.
    wide: bool,
}

impl Radix {
    /// The indices of `data` in sorted order.
    fn order<R, K: Into<u128>>(
        &mut self,
        data: &[R],
        key: impl Fn(&R) -> K,
    ) -> impl ExactSizeIterator<Item = usize> + '_ {
        assert!(
            u32::try_from(data.len()).is_ok(),
            "radix sort of more than 2^32 records"
        );
        let wide = |r: &R| -> u128 { key(r).into() };
        let k0 = data.first().map_or(0, wide);
        let (differ, high) = data
            .iter()
            .map(wide)
            .fold((0, 0), |(d, h), k| (d | (k ^ k0), h | (k >> 64)));
        self.wide |= high != 0;
        let low = if differ == 0 { 0 } else { differ.trailing_zeros() };
        let span = 128 - differ.leading_zeros() - low;
        let cut = |r: &R| wide(r) >> low;
        let shifts: Vec<usize> = (0..128)
            .step_by(DIGIT_BITS)
            .filter(|&s| (differ >> low >> s) % BUCKETS as u128 != 0)
            .collect();
        self.words.clear();
        if span <= 32 {
            self.words.extend(data.iter().zip(0..).map(|(r, i)| (cut(r) as u64) << 32 | i));
            lsd(&mut self.words, &mut self.scratch, &shifts);
        } else if span <= 64 {
            let mut items = data.iter().map(|r| cut(r) as u64).zip(0..).collect();
            lsd(&mut items, &mut Vec::new(), &shifts);
            self.words.extend(items.iter().map(|&(_, i): &(u64, u32)| u64::from(i)));
        } else {
            let mut items = data.iter().map(cut).zip(0..).collect();
            lsd(&mut items, &mut Vec::new(), &shifts);
            self.words.extend(items.iter().map(|&(_, i): &(u128, u32)| u64::from(i)));
        }
        // A word's low 32 bits are its record's index.
        self.words.iter().map(|&w| w as u32 as usize)
    }
}

/// A radix-sort item: a record's cut key and its index.
trait Item: Copy + Default {
    /// The 11-bit digit of the key at bit `shift`.
    fn digit(self, shift: usize) -> usize;
}

/// `(key << 32) | index`.
impl Item for u64 {
    fn digit(self, shift: usize) -> usize {
        (self >> (32 + shift)) as usize % BUCKETS
    }
}

impl Item for (u64, u32) {
    fn digit(self, shift: usize) -> usize {
        (self.0 >> shift) as usize % BUCKETS
    }
}

impl Item for (u128, u32) {
    fn digit(self, shift: usize) -> usize {
        (self.0 >> shift) as usize % BUCKETS
    }
}

/// One stable counting-sort pass per digit in `shifts`, lowest first, over
/// `items` (every digit's histogram comes from one read of the keys), with
/// `scratch` as the other buffer; `items` ends up sorted.
fn lsd<I: Item>(items: &mut Vec<I>, scratch: &mut Vec<I>, shifts: &[usize]) {
    let mut offsets = vec![[0u32; BUCKETS]; shifts.len()];
    for &item in items.iter() {
        for (counts, &shift) in offsets.iter_mut().zip(shifts) {
            counts[item.digit(shift)] += 1;
        }
    }
    scratch.clear();
    scratch.resize(items.len(), I::default());
    for (next, &shift) in offsets.iter_mut().zip(shifts) {
        let mut at = 0;
        for slot in next.iter_mut() {
            (*slot, at) = (at, at + *slot);
        }
        for &item in items.iter() {
            let slot = &mut next[item.digit(shift)];
            scratch[*slot as usize] = item;
            *slot += 1;
        }
        std::mem::swap(items, scratch);
    }
}

/// Sorts a record file by an integer key with at most `mem_bytes` of
/// working memory: memory-bounded run formation (a radix sort whose order
/// writes each run straight from the chunk read, [`radix_sorted`]) followed
/// by multiway merging with a memory-bounded fan-in (classic external merge
/// sort, [Knu 70] / [Gra 93]). The sort is stable: records with equal keys
/// keep their input order.
///
/// The input file is left untouched; the sorted output is a fresh file.
/// `key` must be cheap — it is evaluated once per record per pass.
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
    K: Into<u128>,
    F: Fn(&R) -> K + Copy,
{
    let plan = SortPlan::new(mem_bytes, disk.model().page_size, R::SIZE);

    // --- Run formation -----------------------------------------------------
    let mut stats = SortStats::default();
    let mut reader = RecordReader::<R>::new(disk, input, plan.in_pages);
    // Runs (and, below, merge outputs) stay on the input's I/O channel: the
    // sort of a partition's data contends with that partition's channel,
    // not with every other channel's.
    let runs_file = disk.create_like(input);
    let mut runs: Vec<(u64, u64)> = Vec::new(); // byte ranges
    let mut offset = 0u64;
    let mut chunk: Vec<R> = Vec::with_capacity(plan.run_records.min(1 << 20));
    let mut radix = Radix::default();
    let formed = (|| -> Result<(), IoError> {
        loop {
            chunk.clear();
            reader.try_read_into(&mut chunk, plan.run_records)?;
            if chunk.is_empty() {
                return Ok(());
            }
            let mut w = RecordWriter::<R>::new(disk, runs_file, plan.out_pages);
            w.try_push_all(radix.order(&chunk, key).map(|i| &chunk[i]))?;
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

    let out = try_merge_runs(disk, runs_file, runs, plan, key, radix.wide, &mut stats)?;
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
    K: Into<u128>,
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
    K: Into<u128>,
    F: Fn(&R) -> K + Copy,
{
    let plan = SortPlan::new(mem_bytes, disk.model().page_size, R::SIZE);
    let mut stats = SortStats::default();
    let runs_file = disk.create();
    let mut runs: Vec<(u64, u64)> = Vec::new();
    let mut offset = 0u64;
    let mut radix = Radix::default();
    for chunk in data.chunks(plan.run_records) {
        let mut w = RecordWriter::<R>::new(disk, runs_file, plan.out_pages);
        let sorted = radix.order(chunk, key).map(|i| &chunk[i]);
        if let Err(e) = w.try_push_all(sorted).and_then(|()| w.try_finish()) {
            disk.delete(runs_file);
            return Err(e);
        }
        let bytes = (chunk.len() * R::SIZE) as u64;
        runs.push((offset, offset + bytes));
        offset += bytes;
        stats.runs += 1;
    }
    let out = try_merge_runs(disk, runs_file, runs, plan, key, radix.wide, &mut stats)?;
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
    K: Into<u128>,
    F: Fn(&R) -> K + Copy,
{
    try_external_sort_slice(disk, data, mem_bytes, key)
        .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
}

/// Repeated multiway merging until one run remains; returns the final file.
/// The merge heap keys on `u64` unless some key is `wide` (needs more than
/// 64 bits). On error both the current and the half-written next file are
/// deleted.
fn try_merge_runs<R, K, F>(
    disk: &SimDisk,
    runs_file: FileId,
    runs: Vec<(u64, u64)>,
    plan: SortPlan,
    key: F,
    wide: bool,
    stats: &mut SortStats,
) -> Result<FileId, IoError>
where
    R: FixedRecord,
    K: Into<u128>,
    F: Fn(&R) -> K + Copy,
{
    let mut current_file = runs_file;
    let mut current_runs = runs;
    while current_runs.len() > 1 {
        stats.merge_passes += 1;
        let next_file = disk.create_like(current_file);
        let mut next_runs: Vec<(u64, u64)> = Vec::new();
        let mut out_offset = 0u64;
        for group in current_runs.chunks(plan.fan_in) {
            let bytes: u64 = group.iter().map(|(s, e)| e - s).sum();
            let (src, dst) = (current_file, next_file);
            let merged = if wide {
                try_merge_group(disk, src, group, dst, |r: &R| key(r).into(), plan)
            } else {
                try_merge_group(disk, src, group, dst, |r: &R| key(r).into() as u64, plan)
            };
            if let Err(e) = merged {
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
/// The heap orders `(key, run)`: each run holds one pending record at a
/// time and yields its records in order, so ties leave in run order — the
/// merge is stable.
fn try_merge_group<R: FixedRecord, H: Ord + Copy>(
    disk: &SimDisk,
    src: FileId,
    runs: &[(u64, u64)],
    dst: FileId,
    key: impl Fn(&R) -> H,
    plan: SortPlan,
) -> Result<(), IoError> {
    let mut readers: Vec<RecordReader<R>> = runs
        .iter()
        .map(|&(s, e)| RecordReader::with_range(disk, src, s, e, plan.run_pages))
        .collect();
    let mut pending: Vec<Option<R>> = Vec::with_capacity(readers.len());
    let mut heap: BinaryHeap<Reverse<(H, usize)>> = BinaryHeap::with_capacity(readers.len());
    for (run, r) in readers.iter_mut().enumerate() {
        let first = r.try_next()?;
        if let Some(ref rec) = first {
            heap.push(Reverse((key(rec), run)));
        }
        pending.push(first);
    }
    let mut w = RecordWriter::<R>::new(disk, dst, plan.out_pages);
    while let Some(mut top) = heap.peek_mut() {
        // Invariant: every heap entry was inserted together with its record
        // in `pending[run]`, and a run has at most one entry. A run that
        // still has a record replaces its entry in place (one sift instead
        // of a pop and a push); an exhausted one leaves the heap.
        let Reverse((_, run)) = *top;
        let rec = pending[run].take().expect("heap/pending out of sync");
        w.try_push(&rec)?;
        match readers[run].try_next()? {
            Some(next) => {
                *top = Reverse((key(&next), run));
                pending[run] = Some(next);
            }
            None => {
                PeekMut::pop(top);
            }
        }
    }
    w.try_finish()?;
    Ok(())
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

    fn sort_pairs(d: &SimDisk, f: FileId, mem: usize) -> (FileId, SortStats) {
        external_sort_by(d, f, mem, IdPair::sort_key)
    }

    #[test]
    fn sorts_empty_input() {
        let d = disk();
        let f = write_all::<IdPair>(&d, &[], 1);
        let (out, stats) = sort_pairs(&d, f, 1024);
        assert!(read_all::<IdPair>(&d, out, 1).is_empty());
        assert_eq!(stats.runs, 0);
    }

    #[test]
    fn sorts_in_memory_single_run() {
        let d = disk();
        let v = shuffled_pairs(50, 1);
        let f = write_all(&d, &v, 2);
        let (out, stats) = sort_pairs(&d, f, 1 << 20);
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
        let (out, stats) = sort_pairs(&d, f, 1024);
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
        let (out, _) = external_sort_by::<IdPair, _, _>(&d, f, 2048, |p| !p.r);
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
    fn radix_sort_skips_no_digit_it_needs() {
        // Keys that differ only in the top bits, only in the lowest, and
        // across the 64-bit seam.
        let keys: Vec<u128> = vec![
            1 << 127,
            3,
            1 << 64,
            2,
            (1 << 64) - 1,
            1 << 127,
            0,
            1 << 100,
        ];
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(radix_sorted(&keys, |&k| k), want);
        assert!(radix_sorted(&[] as &[u64], |&k| k).is_empty());
    }

    /// A record of `N` bytes whose first eight are its key.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Padded<const N: usize>(u64);

    impl<const N: usize> FixedRecord for Padded<N> {
        const SIZE: usize = N;

        fn encode(&self, buf: &mut [u8]) {
            buf[..8].copy_from_slice(&self.0.to_le_bytes());
            buf[8..N].fill(0);
        }

        fn decode(buf: &[u8]) -> Self {
            Padded(u64::from_le_bytes(buf[..8].try_into().unwrap()))
        }
    }

    /// [`SortPlan::cost`] is what both sorts do: the same runs and merge
    /// passes, and the same requests and pages on the disk's meter, for
    /// records that pack 64-byte pages (16) and that straddle them (40, 48),
    /// budgets from two pages to forty (one not a whole number of pages), and
    /// inputs from empty to three merge passes.
    fn plan_is_the_sort<const N: usize>() {
        for mem in [128, 192, 160, 320, 1024, 2560] {
            let plan = SortPlan::new(mem, 64, N);
            let (run, fan_in) = (plan.run_records as u64, plan.fan_in as u64);
            let mut passes = 0;
            for n in [0, 1, run, run + 1, run * fan_in + 1, run * fan_in * fan_in + 1] {
                let records: Vec<Padded<N>> = (0..n).map(|i| Padded(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))).collect();
                let d = disk();
                let f = write_all(&d, &records, 3);
                for read_input in [true, false] {
                    let before = d.stats();
                    let (_, stats) = if read_input {
                        external_sort_by(&d, f, mem, |r: &Padded<N>| r.0)
                    } else {
                        external_sort_slice(&d, &records, mem, |r: &Padded<N>| r.0)
                    };
                    let (want, io) = plan.cost(n, read_input);
                    let case = format!("{N}-byte records, mem {mem}, n {n}, input read {read_input}");
                    assert_eq!(stats, want, "{case}");
                    assert_eq!(d.stats().delta(&before), io, "{case}");
                    passes = passes.max(stats.merge_passes);
                }
            }
            assert!(passes >= 3, "mem {mem}: {passes} merge passes at most");
        }
    }

    #[test]
    fn the_sort_plan_is_the_sort() {
        plan_is_the_sort::<16>();
        plan_is_the_sort::<40>();
        plan_is_the_sort::<48>();
    }

    #[test]
    fn smaller_memory_means_more_io() {
        let d = disk();
        let v = shuffled_pairs(2000, 4);
        let f = write_all(&d, &v, 8);
        d.reset_stats();
        let (out1, _) = sort_pairs(&d, f, 1 << 20);
        let big_mem_units = d.model().units(&d.stats());
        d.delete(out1);
        d.reset_stats();
        let (_, _) = sort_pairs(&d, f, 1024);
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

    /// A record with a two-word key and a payload the key does not see, so
    /// that reordering equal keys is visible.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Tagged {
        hi: u64,
        lo: u64,
        tag: u64,
    }

    impl FixedRecord for Tagged {
        const SIZE: usize = 24;

        fn encode(&self, buf: &mut [u8]) {
            for (word, v) in buf.chunks_mut(8).zip([self.hi, self.lo, self.tag]) {
                word.copy_from_slice(&v.to_le_bytes());
            }
        }

        fn decode(buf: &[u8]) -> Self {
            let word = |i: usize| u64::from_le_bytes(buf[8 * i..8 * i + 8].try_into().unwrap());
            Tagged {
                hi: word(0),
                lo: word(1),
                tag: word(2),
            }
        }
    }

    /// A handful of key words spread over all 64 bits: many equal keys, and
    /// digits that differ at both ends of the word.
    fn word(i: u64) -> u64 {
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(i as u32 * 7)
    }

    fn disk(page_size: usize) -> SimDisk {
        SimDisk::new(DiskModel {
            page_size,
            positioning_ratio: 3.0,
            transfer_secs_per_page: 1.0,
            cpu_slowdown: 1.0,
            channels: 1,
            degraded_channel: None,
        })
    }

    /// The radix sort run formation used before it sorted packed words:
    /// `(key, index)` items of the whole key's width, digits at absolute
    /// 11-bit offsets, gathered into a sorted copy.
    fn reference_radix_sorted<R: Copy, K: Into<u128>>(data: &[R], key: impl Fn(&R) -> K) -> Vec<R> {
        let wide = |r: &R| -> u128 { key(r).into() };
        let Some(k0) = data.first().map(wide) else {
            return Vec::new();
        };
        let (differ, high) = data
            .iter()
            .map(wide)
            .fold((0, 0), |(d, h), k| (d | (k ^ k0), h | (k >> 64)));
        let shifts: Vec<usize> = (0..128)
            .step_by(DIGIT_BITS)
            .filter(|&s| (differ >> s) % BUCKETS as u128 != 0)
            .collect();
        if high == 0 {
            reference_lsd(data, data.iter().map(|r| wide(r) as u64).zip(0..).collect(), &shifts)
        } else {
            reference_lsd(data, data.iter().map(wide).zip(0..).collect(), &shifts)
        }
    }

    fn reference_lsd<R: Copy, W>(data: &[R], mut items: Vec<(W, u32)>, shifts: &[usize]) -> Vec<R>
    where
        (W, u32): Item,
    {
        let mut offsets = vec![[0u32; BUCKETS]; shifts.len()];
        for &item in &items {
            for (counts, &shift) in offsets.iter_mut().zip(shifts) {
                counts[item.digit(shift)] += 1;
            }
        }
        let mut scratch = items.clone();
        for (next, &shift) in offsets.iter_mut().zip(shifts) {
            let mut at = 0;
            for slot in next.iter_mut() {
                (*slot, at) = (at, at + *slot);
            }
            for &item in &items {
                let slot = &mut next[item.digit(shift)];
                scratch[*slot as usize] = item;
                *slot += 1;
            }
            std::mem::swap(&mut items, &mut scratch);
        }
        items.iter().map(|&(_, i)| data[i as usize]).collect()
    }

    /// Both external sorts as they ran before: runs formed by
    /// [`reference_radix_sorted`] and written with `try_push_all` of the copy,
    /// merged on `u128` heap keys. `input` is the file to read (the
    /// [`try_external_sort_by`] form), `None` for the slice form over `data`.
    fn reference_sort<R, K, F>(
        disk: &SimDisk,
        input: Option<FileId>,
        data: &[R],
        mem: usize,
        key: F,
    ) -> (FileId, SortStats)
    where
        R: FixedRecord,
        K: Into<u128>,
        F: Fn(&R) -> K + Copy,
    {
        let plan = SortPlan::new(mem, disk.model().page_size, R::SIZE);
        let mut stats = SortStats::default();
        let mut reader = input.map(|f| RecordReader::<R>::new(disk, f, plan.in_pages));
        let runs_file = input.map_or_else(|| disk.create(), |f| disk.create_like(f));
        let mut slices = data.chunks(plan.run_records);
        let (mut runs, mut offset) = (Vec::new(), 0u64);
        loop {
            let chunk = match &mut reader {
                Some(reader) => {
                    let mut chunk = Vec::new();
                    reader.try_read_into(&mut chunk, plan.run_records).unwrap();
                    chunk
                }
                None => slices.next().map_or_else(Vec::new, <[R]>::to_vec),
            };
            if chunk.is_empty() {
                break;
            }
            let mut w = RecordWriter::<R>::new(disk, runs_file, plan.out_pages);
            w.try_push_all(&reference_radix_sorted(&chunk, key)).unwrap();
            w.try_finish().unwrap();
            let bytes = (chunk.len() * R::SIZE) as u64;
            runs.push((offset, offset + bytes));
            offset += bytes;
            stats.runs += 1;
        }
        drop(reader);
        let out = try_merge_runs(disk, runs_file, runs, plan, key, true, &mut stats).unwrap();
        (out, stats)
    }

    /// A record keyed by a full `u128`, with a tag the key does not see.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Wide {
        key: u128,
        tag: u64,
    }

    impl FixedRecord for Wide {
        const SIZE: usize = 24;

        fn encode(&self, buf: &mut [u8]) {
            buf[..16].copy_from_slice(&self.key.to_le_bytes());
            buf[16..].copy_from_slice(&self.tag.to_le_bytes());
        }

        fn decode(buf: &[u8]) -> Self {
            Wide {
                key: u128::from_le_bytes(buf[..16].try_into().unwrap()),
                tag: u64::from_le_bytes(buf[16..].try_into().unwrap()),
            }
        }
    }

    /// Bits in which the keys of [`prop_runs_match_the_reference`] differ.
    const SPANS: [u32; 7] = [0, 1, 31, 32, 33, 64, 65];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Both sorts give a stable `sort_by_key`'s output, and the same
        /// runs, merge passes, bytes and `IoStats` as [`reference_sort`]:
        /// keys drawn from six values whose differing bits span exactly 0,
        /// 1, 31, 32, 33, 64 or 65 bits, starting at bit 0 to 64, under a
        /// common prefix that is zero or reaches past bit 64.
        #[test]
        fn prop_runs_match_the_reference(
            span in 0usize..7,
            low in 0u32..65,
            prefix in any::<u64>(),
            picks in prop::collection::vec(0usize..6, 0..500),
            mem in 256usize..2049,
            page in 64usize..257,
        ) {
            let span = SPANS[span];
            let low = low.min(128 - span);
            let mask = if span == 0 { 0 } else { u128::MAX >> (128 - span) };
            // Odd prefixes set bits above both the span and bit 64, so the
            // merge keys on `u128`.
            let top = low + span;
            let base = match prefix % 2 {
                1 if top < 128 => u128::from(prefix) << top.max(64),
                _ => 0,
            };
            // The span's two ends, then four more values.
            let ends = 1 | 1 << span.saturating_sub(1);
            let (p, q) = (u128::from(prefix), u128::from(prefix.rotate_left(17)));
            let values: Vec<u128> = [0, ends, p, q, 3, p << 20]
                .iter()
                .map(|&v| base | (v & mask) << low)
                .collect();
            let records: Vec<Wide> = picks
                .iter()
                .chain(&[0, 1])
                .zip(0..)
                .map(|(&v, tag)| Wide { key: values[v], tag })
                .collect();
            let differ = records.iter().fold(0, |d, w| d | (w.key ^ values[0]));
            prop_assert_eq!(128 - differ.leading_zeros() - differ.trailing_zeros() % 128, span);
            let key = |w: &Wide| w.key;
            let disk = disk(page);
            let f = write_all(&disk, &records, 2);
            let mut want = records.clone();
            want.sort_by_key(key);
            for input in [Some(f), None] {
                let before = disk.stats();
                let (got, stats) = match input {
                    Some(f) => external_sort_by(&disk, f, mem, key),
                    None => external_sort_slice(&disk, &records, mem, key),
                };
                let io = disk.stats().delta(&before);
                let before = disk.stats();
                let (reference, reference_stats) = reference_sort(&disk, input, &records, mem, key);
                prop_assert_eq!(disk.stats().delta(&before), io);
                prop_assert_eq!(stats, reference_stats);
                let got = read_all::<Wide>(&disk, got, 2);
                prop_assert_eq!(&got, &read_all::<Wide>(&disk, reference, 2));
                prop_assert_eq!(&got, &want);
            }
        }

        /// External sort equals std sort for arbitrary inputs, memory
        /// budgets and page sizes.
        #[test]
        fn prop_external_sort_matches_std(
            values in prop::collection::vec((0u64..1000, 0u64..1000), 0..400),
            mem in 256usize..8192,
            page in 32usize..512,
        ) {
            let disk = disk(page);
            let records: Vec<IdPair> = values.iter().map(|&(r, s)| IdPair { r, s }).collect();
            let f = write_all(&disk, &records, 2);
            let (out, _) = external_sort_by(&disk, f, mem, IdPair::sort_key);
            let got = read_all::<IdPair>(&disk, out, 2);
            let mut want = records.clone();
            want.sort();
            prop_assert_eq!(got, want);
        }

        /// The sort is stable across run formation and every merge pass:
        /// with few distinct keys (one word, or two as `(hi << 64) | lo`)
        /// and budgets and pages that force at least two merge passes, the
        /// sorted file is exactly what a stable comparison sort gives.
        #[test]
        fn prop_external_sort_is_stable(
            keys in prop::collection::vec((0u64..5, 0u64..4), 300..600),
            mem in 256usize..1025,
            page in 128usize..257,
        ) {
            let disk = disk(page);
            let records: Vec<Tagged> = keys
                .iter()
                .zip(0..)
                .map(|(&(hi, lo), tag)| Tagged { hi: word(hi), lo: word(lo), tag })
                .collect();
            let f = write_all(&disk, &records, 2);
            let one_word = |t: &Tagged| t.hi;
            let two_words = |t: &Tagged| (u128::from(t.hi) << 64) | u128::from(t.lo);
            let (a, sa) = external_sort_by(&disk, f, mem, one_word);
            let (b, sb) = external_sort_by(&disk, f, mem, two_words);
            prop_assert!(sa.merge_passes >= 2 && sb.merge_passes >= 2, "{:?} {:?}", sa, sb);
            let mut want = records.clone();
            want.sort_by_key(one_word);
            prop_assert_eq!(read_all::<Tagged>(&disk, a, 2), want);
            let mut want = records;
            want.sort_by_key(two_words);
            prop_assert_eq!(read_all::<Tagged>(&disk, b, 2), want);
        }

        /// The slice front-end agrees with the file front-end.
        #[test]
        fn prop_sort_slice_matches_sort_file(
            values in prop::collection::vec(0u64..100_000, 0..300),
            mem in 256usize..4096,
        ) {
            let disk = disk(64);
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
