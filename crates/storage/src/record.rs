use geom::Kpe;

use crate::{FileReader, FileWriter, FileId, IoError, SimDisk};

/// A fixed-length, byte-serialisable record — the unit of all intermediate
/// files (partitions, level files, runs, candidate sets).
pub trait FixedRecord: Copy {
    /// Encoded size in bytes.
    const SIZE: usize;
    /// Serialises into `buf[..Self::SIZE]`.
    fn encode(&self, buf: &mut [u8]);
    /// Inverse of [`FixedRecord::encode`].
    fn decode(buf: &[u8]) -> Self;
}

impl FixedRecord for Kpe {
    const SIZE: usize = Kpe::ENCODED_SIZE;

    #[inline]
    fn encode(&self, buf: &mut [u8]) {
        Kpe::encode(self, buf);
    }

    #[inline]
    fn decode(buf: &[u8]) -> Self {
        Kpe::decode(buf)
    }
}

/// A candidate/result tuple of the filter step: a pair of record
/// identifiers. This is what PBSM's original duplicate-removal phase sorts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IdPair {
    pub r: u64,
    pub s: u64,
}

impl IdPair {
    /// The integer sort key `(r << 64) | s`: ordered as `(r, s)`.
    pub fn sort_key(&self) -> u128 {
        (u128::from(self.r) << 64) | u128::from(self.s)
    }
}

impl FixedRecord for IdPair {
    const SIZE: usize = 16;

    #[inline]
    fn encode(&self, buf: &mut [u8]) {
        buf[0..8].copy_from_slice(&self.r.to_le_bytes());
        buf[8..16].copy_from_slice(&self.s.to_le_bytes());
    }

    #[inline]
    fn decode(buf: &[u8]) -> Self {
        // Invariant: callers hand `decode` exactly `SIZE` bytes, so the
        // 8-byte sub-slices always convert.
        IdPair {
            r: u64::from_le_bytes(buf[0..8].try_into().expect("8-byte slice")),
            s: u64::from_le_bytes(buf[8..16].try_into().expect("8-byte slice")),
        }
    }
}

/// Typed buffered writer of [`FixedRecord`]s.
pub struct RecordWriter<R: FixedRecord> {
    inner: FileWriter,
    scratch: Vec<u8>,
    count: u64,
    _marker: std::marker::PhantomData<R>,
}

impl<R: FixedRecord> RecordWriter<R> {
    pub fn new(disk: &SimDisk, file: FileId, buffer_pages: usize) -> Self {
        RecordWriter {
            inner: FileWriter::new(disk, file, buffer_pages),
            scratch: vec![0u8; R::SIZE],
            count: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Creates the backing file too.
    pub fn create(disk: &SimDisk, buffer_pages: usize) -> Self {
        let f = disk.create();
        Self::new(disk, f, buffer_pages)
    }

    /// Buffers one record, encoding it straight into the write buffer (the
    /// scratch copy is taken only by a record that straddles a flush point);
    /// an error surfaces only when a flush exhausts the disk's retry budget.
    #[inline]
    pub fn try_push(&mut self, r: &R) -> Result<(), IoError> {
        if !self.inner.try_write_in_place(R::SIZE, |slot| r.encode(slot))? {
            r.encode(&mut self.scratch);
            self.inner.try_write(&self.scratch)?;
        }
        self.count += 1;
        Ok(())
    }

    /// [`RecordWriter::try_push`] of every record of `records`, in order:
    /// the same bytes, flush points and requests, encoded a buffer's worth
    /// at a time.
    pub fn try_push_all<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a R, IntoIter: ExactSizeIterator>,
    ) -> Result<(), IoError>
    where
        R: 'a,
    {
        let mut rest = records.into_iter();
        while rest.len() > 0 {
            let fit = (self.inner.room() / R::SIZE).min(rest.len());
            if fit == 0 {
                if let Some(r) = rest.next() {
                    self.try_push(r)?;
                }
                continue;
            }
            let in_place = self.inner.try_write_in_place(fit * R::SIZE, |slots| {
                for (r, slot) in rest.by_ref().take(fit).zip(slots.chunks_exact_mut(R::SIZE)) {
                    r.encode(slot);
                }
            })?;
            debug_assert!(in_place, "`fit` records fit before the flush point");
            self.count += fit as u64;
        }
        Ok(())
    }

    /// Infallible wrapper over [`RecordWriter::try_push`].
    pub fn push(&mut self, r: &R) {
        self.try_push(r)
            .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
    }

    /// Records pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn buffer_bytes(&self) -> usize {
        self.inner.buffer_bytes()
    }

    pub fn file(&self) -> FileId {
        self.inner.file()
    }

    pub fn try_finish(self) -> Result<FileId, IoError> {
        self.inner.try_finish()
    }

    /// Infallible wrapper over [`RecordWriter::try_finish`].
    pub fn finish(self) -> FileId {
        self.inner.finish()
    }
}

/// The write side of every partitioning pass: one [`RecordWriter`] per
/// target (PBSM's partitions, S³J's levels, SHJ's buckets), each record
/// pushed to every target it belongs to.
///
/// Every target's file is created up front, in target order; each file sees
/// exactly the requests its own writer would, in push order. The files come
/// back together or not at all: dropping an unfinished fan-out deletes every
/// file, and [`Fanout::try_finish`] either returns them all or deletes them
/// all.
pub struct Fanout<R: FixedRecord> {
    disk: SimDisk,
    writers: Vec<RecordWriter<R>>,
}

impl<R: FixedRecord> Fanout<R> {
    /// `targets` writers of `buffer_pages` pages each. Target `t`'s file
    /// rides data channel `tag(t)` (see [`SimDisk::create_on`]), or the
    /// shared lane when `tag(t)` is `None`.
    pub fn new(
        disk: &SimDisk,
        targets: u32,
        tag: impl Fn(u32) -> Option<u64>,
        buffer_pages: usize,
    ) -> Self {
        let writers = (0..targets)
            .map(|t| {
                let f = tag(t).map_or_else(|| disk.create(), |c| disk.create_on(c));
                RecordWriter::new(disk, f, buffer_pages)
            })
            .collect();
        Fanout { disk: disk.clone(), writers }
    }

    /// Buffers `r` for target `t` (see [`RecordWriter::try_push`]). After an
    /// error the fan-out is only good for dropping.
    #[inline]
    pub fn try_push(&mut self, t: u32, r: &R) -> Result<(), IoError> {
        self.writers[t as usize].try_push(r)
    }

    /// Flushes every target in order and returns each file with the records
    /// pushed to it. A failed flush does not stop the flushes after it; the
    /// first error is returned and every file is deleted — the failed one
    /// and each finished after it at once (freeing its pages for the
    /// flushes that follow), the ones finished before it at the end.
    pub fn try_finish(mut self) -> Result<Vec<(FileId, u64)>, IoError> {
        let mut files = Vec::with_capacity(self.writers.len());
        let mut err: Option<IoError> = None;
        for w in std::mem::take(&mut self.writers) {
            let (f, count) = (w.file(), w.count());
            match w.try_finish() {
                Ok(_) if err.is_none() => files.push((f, count)),
                Ok(_) => self.disk.delete(f),
                Err(e) => {
                    self.disk.delete(f);
                    err.get_or_insert(e);
                }
            }
        }
        match err {
            None => Ok(files),
            Some(e) => {
                for (f, _) in files {
                    self.disk.delete(f);
                }
                Err(e)
            }
        }
    }
}

impl<R: FixedRecord> Drop for Fanout<R> {
    /// An unfinished fan-out (a failed push, an interrupted pass) leaves no
    /// file behind.
    fn drop(&mut self) {
        for w in &self.writers {
            self.disk.delete(w.file());
        }
    }
}

/// Typed buffered reader of [`FixedRecord`]s; an `Iterator<Item = R>`.
pub struct RecordReader<R: FixedRecord> {
    inner: FileReader,
    scratch: Vec<u8>,
    _marker: std::marker::PhantomData<R>,
}

impl<R: FixedRecord> RecordReader<R> {
    pub fn new(disk: &SimDisk, file: FileId, buffer_pages: usize) -> Self {
        RecordReader {
            inner: FileReader::new(disk, file, buffer_pages),
            scratch: vec![0u8; R::SIZE],
            _marker: std::marker::PhantomData,
        }
    }

    /// Reads records from the byte range `[start, end)` of `file`.
    pub fn with_range(disk: &SimDisk, file: FileId, start: u64, end: u64, buffer_pages: usize) -> Self {
        RecordReader {
            inner: FileReader::with_range(disk, file, start, end, buffer_pages),
            scratch: vec![0u8; R::SIZE],
            _marker: std::marker::PhantomData,
        }
    }

    /// Records still unread.
    pub fn remaining(&self) -> u64 {
        self.inner.remaining() / R::SIZE as u64
    }

    pub fn buffer_bytes(&self) -> usize {
        self.inner.buffer_bytes()
    }

    /// The next record, `Ok(None)` at end of stream, or a typed error when a
    /// refill exhausts the disk's retry budget (after which the reader
    /// should be discarded — recovery restarts from a fresh one). Decoded
    /// straight out of the read buffer; only a record that straddles a
    /// refill is assembled in the scratch copy first.
    #[inline]
    pub fn try_next(&mut self) -> Result<Option<R>, IoError> {
        if let Some(bytes) = self.inner.try_view(R::SIZE)? {
            return Ok(Some(R::decode(bytes)));
        }
        let got = self.inner.try_read_exact(&mut self.scratch)?;
        Ok(got.then(|| R::decode(&self.scratch)))
    }

    /// Appends the next `max` records (fewer at end of stream) to `out`: the
    /// same refills as that many [`RecordReader::try_next`] calls, decoded a
    /// buffer's worth at a time.
    pub fn try_read_into(&mut self, out: &mut Vec<R>, max: usize) -> Result<(), IoError> {
        let mut left = max;
        while left > 0 {
            // Every whole record already buffered, or — from a spent buffer —
            // the one whose view triggers the refill.
            let want = (self.inner.buffered() / R::SIZE).clamp(1, left);
            if let Some(bytes) = self.inner.try_view(want * R::SIZE)? {
                out.extend(bytes.chunks_exact(R::SIZE).map(R::decode));
                left -= want;
                continue;
            }
            // A record straddling the refill, or the end of the stream.
            match self.try_next()? {
                Some(r) => out.push(r),
                None => break,
            }
            left -= 1;
        }
        Ok(())
    }
}

impl<R: FixedRecord> Iterator for RecordReader<R> {
    type Item = R;

    /// Infallible wrapper over [`RecordReader::try_next`]; panics with the
    /// typed error's message if a refill cannot be satisfied.
    fn next(&mut self) -> Option<R> {
        self.try_next()
            .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining() as usize;
        (n, Some(n))
    }
}

/// Convenience: writes all records into a fresh file with a large buffer.
pub fn write_all<R: FixedRecord>(disk: &SimDisk, records: &[R], buffer_pages: usize) -> FileId {
    try_write_all(disk, records, buffer_pages)
        .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
}

/// Fallible [`write_all`].
pub fn try_write_all<R: FixedRecord>(
    disk: &SimDisk,
    records: &[R],
    buffer_pages: usize,
) -> Result<FileId, IoError> {
    let mut w = RecordWriter::create(disk, buffer_pages);
    w.try_push_all(records)?;
    w.try_finish()
}

/// Convenience: reads a whole record file into memory.
pub fn read_all<R: FixedRecord>(disk: &SimDisk, file: FileId, buffer_pages: usize) -> Vec<R> {
    try_read_all(disk, file, buffer_pages)
        .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
}

/// Fallible [`read_all`].
pub fn try_read_all<R: FixedRecord>(
    disk: &SimDisk,
    file: FileId,
    buffer_pages: usize,
) -> Result<Vec<R>, IoError> {
    let mut reader = RecordReader::<R>::new(disk, file, buffer_pages);
    let mut out = Vec::with_capacity(reader.remaining() as usize);
    reader.try_read_into(&mut out, usize::MAX)?;
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{DiskModel, FaultPlan, IoErrorKind, RetryPolicy};
    use geom::{Rect, RecordId};

    fn disk() -> SimDisk {
        SimDisk::new(DiskModel {
            page_size: 64,
            positioning_ratio: 2.0,
            transfer_secs_per_page: 1.0,
            cpu_slowdown: 1.0,
            channels: 1,
            degraded_channel: None,
        })
    }

    #[test]
    fn kpe_record_roundtrip_through_disk() {
        let d = disk();
        let kpes: Vec<Kpe> = (0..100)
            .map(|i| {
                let v = i as f64 / 200.0;
                Kpe::new(RecordId(i), Rect::new(v, v, v + 0.1, v + 0.2))
            })
            .collect();
        let f = write_all(&d, &kpes, 2);
        assert_eq!(d.len(f), (100 * Kpe::ENCODED_SIZE) as u64);
        let back: Vec<Kpe> = read_all(&d, f, 3);
        assert_eq!(back, kpes);
    }

    #[test]
    fn idpair_roundtrip_and_ordering() {
        let d = disk();
        let pairs = vec![
            IdPair { r: 3, s: 1 },
            IdPair { r: 1, s: 2 },
            IdPair { r: 1, s: 1 },
        ];
        let f = write_all(&d, &pairs, 1);
        let back: Vec<IdPair> = read_all(&d, f, 1);
        assert_eq!(back, pairs);
        let mut sorted = back.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            vec![
                IdPair { r: 1, s: 1 },
                IdPair { r: 1, s: 2 },
                IdPair { r: 3, s: 1 }
            ]
        );
    }

    #[test]
    fn reader_size_hint_is_exact() {
        let d = disk();
        let pairs: Vec<IdPair> = (0..17).map(|i| IdPair { r: i, s: i }).collect();
        let f = write_all(&d, &pairs, 1);
        let mut r = RecordReader::<IdPair>::new(&d, f, 1);
        assert_eq!(r.size_hint(), (17, Some(17)));
        r.next();
        assert_eq!(r.size_hint(), (16, Some(16)));
        assert_eq!(r.count(), 16);
    }

    fn kpes(n: usize) -> Vec<Kpe> {
        (0..n)
            .map(|i| {
                let v = i as f64 / (2 * n.max(1)) as f64;
                Kpe::new(RecordId(i as u64), Rect::new(v, v / 2.0, v + 0.1, v + 0.2))
            })
            .collect()
    }

    /// 40-byte records on 64-byte pages: most records straddle a page, and
    /// every few a buffer boundary — the scratch path of both directions.
    #[test]
    fn records_round_trip_across_buffer_boundaries_and_a_partial_last_page() {
        for n in [0, 1, 2, 3, 8, 100, 257] {
            let want = kpes(n);
            for write_pages in [1, 2, 3, 16] {
                let d = disk();
                let mut w = RecordWriter::create(&d, write_pages);
                for k in &want {
                    w.push(k);
                }
                assert_eq!(w.count(), n as u64);
                let f = w.finish();
                assert_eq!(d.len(f), (n * Kpe::ENCODED_SIZE) as u64);
                for read_pages in [1, 2, 3, 16] {
                    let got: Vec<Kpe> = RecordReader::new(&d, f, read_pages).collect();
                    assert_eq!(got, want, "n {n} write {write_pages} read {read_pages}");
                }
            }
        }
    }

    #[test]
    fn range_reader_may_start_and_end_mid_page() {
        let d = disk();
        let all = kpes(50);
        let f = write_all(&d, &all, 2);
        let sz = Kpe::ENCODED_SIZE as u64;
        for (from, to) in [(3usize, 7usize), (1, 50), (13, 14), (20, 20)] {
            assert_ne!(from as u64 * sz % 64, 0, "the range must start inside a page");
            for pages in [1, 2, 16] {
                let mut r =
                    RecordReader::<Kpe>::with_range(&d, f, from as u64 * sz, to as u64 * sz, pages);
                assert_eq!(r.remaining(), (to - from) as u64);
                let mut got = Vec::new();
                r.try_read_into(&mut got, 2).unwrap();
                got.extend(&mut r);
                assert_eq!(got, all[from..to], "records {from}..{to}, {pages}-page buffer");
            }
        }
    }

    /// The slice forms are the per-record path a buffer's worth at a time:
    /// same file, same requests, same pages — for records that pack pages
    /// exactly (`IdPair`) and records that straddle them (`Kpe`).
    #[test]
    fn slice_forms_cost_exactly_what_the_per_record_path_costs() {
        fn check<R: FixedRecord + PartialEq + std::fmt::Debug>(records: &[R]) {
            for pages in [1, 2, 16] {
                let one = disk();
                let mut w = RecordWriter::create(&one, pages);
                for r in records {
                    w.push(r);
                }
                let f1 = w.finish();
                let back1: Vec<R> = RecordReader::new(&one, f1, pages).collect();

                let all = disk();
                let f2 = write_all(&all, records, pages);
                let back2: Vec<R> = read_all(&all, f2, pages);

                // Ragged batches on both sides, single records in between.
                let mixed = disk();
                let mut w = RecordWriter::create(&mixed, pages);
                let mut rest = records;
                for take in [1usize, 7, 0, 3, 64, 2].into_iter().cycle() {
                    let (batch, after) = rest.split_at(take.min(rest.len()));
                    w.try_push_all(batch).unwrap();
                    let Some((single, after)) = after.split_first() else {
                        break;
                    };
                    w.push(single);
                    rest = after;
                }
                assert_eq!(w.count(), records.len() as u64);
                let f3 = w.finish();
                let mut r = RecordReader::<R>::new(&mixed, f3, pages);
                let mut back3 = Vec::new();
                for take in [5usize, 1, 33, 0, 2].into_iter().cycle() {
                    let before = back3.len();
                    r.try_read_into(&mut back3, take).unwrap();
                    back3.extend(r.try_next().unwrap());
                    if back3.len() == before {
                        break;
                    }
                }

                assert_eq!(back1, records);
                assert_eq!(back2, records);
                assert_eq!(back3, records);
                assert_eq!(all.stats(), one.stats(), "write_all + read_all, {pages} pages");
                assert_eq!(mixed.stats(), one.stats(), "ragged batches, {pages} pages");
                assert_eq!(one.len(f1), all.len(f2));
            }
        }
        check(&kpes(257));
        check(&(0..300).map(|i| IdPair { r: i, s: !i }).collect::<Vec<_>>());
        check::<Kpe>(&[]);
    }

    #[test]
    fn range_reader_reads_record_slice() {
        let d = disk();
        let pairs: Vec<IdPair> = (0..10).map(|i| IdPair { r: i, s: 0 }).collect();
        let f = write_all(&d, &pairs, 1);
        let sz = IdPair::SIZE as u64;
        let slice: Vec<IdPair> =
            RecordReader::<IdPair>::with_range(&d, f, 3 * sz, 7 * sz, 1).collect();
        assert_eq!(slice.iter().map(|p| p.r).collect::<Vec<_>>(), vec![3, 4, 5, 6]);
    }
    fn fanout_disk(channels: usize, plan: Option<FaultPlan>) -> SimDisk {
        let d = SimDisk::new(DiskModel {
            channels,
            ..disk().model()
        });
        match plan {
            Some(plan) => d.with_faults(plan, RetryPolicy::default()),
            None => d,
        }
    }

    #[test]
    fn an_unfinished_fanout_leaves_no_file() {
        let d = disk();
        let mut fan = Fanout::new(&d, 3, |t| Some(u64::from(t)), 1);
        for (i, k) in kpes(40).iter().enumerate() {
            fan.try_push(i as u32 % 3, k).unwrap();
        }
        assert!(d.pages_in_use() > 0, "some pages were flushed");
        drop(fan);
        assert_eq!(d.file_ids(), Vec::new());
        assert_eq!(d.pages_in_use(), 0);
    }

    #[test]
    fn a_full_disk_mid_pass_or_at_the_final_flush_leaves_no_file() {
        // Mid-pass: one-page buffers flush while records are pushed.
        let d = fanout_disk(1, Some(FaultPlan::none(7).with_disk_budget(4)));
        let mut fan = Fanout::new(&d, 3, |_| None, 1);
        let e = kpes(40)
            .iter()
            .enumerate()
            .find_map(|(i, k)| fan.try_push(i as u32 % 3, k).err())
            .expect("the budget runs out during the pass");
        assert_eq!(e.kind, IoErrorKind::DiskFull);
        drop(fan);
        assert_eq!((d.file_ids(), d.pages_in_use()), (Vec::new(), 0));

        // Final flush: every push fits in its buffer; the second target's
        // flush overruns the budget, the third's too.
        let d = fanout_disk(1, Some(FaultPlan::none(7).with_disk_budget(10)));
        let mut fan = Fanout::new(&d, 3, |t| Some(u64::from(t)), 16);
        for (i, k) in kpes(30).iter().enumerate() {
            fan.try_push(i as u32 % 3, k).unwrap();
        }
        assert_eq!(d.pages_in_use(), 0, "nothing flushed before the finish");
        let e = fan.try_finish().unwrap_err();
        assert_eq!(e.kind, IoErrorKind::DiskFull);
        assert_eq!((d.file_ids(), d.pages_in_use()), (Vec::new(), 0));
    }

    /// A fan-out costs exactly one `RecordWriter` per target pushed in the
    /// same order: the same bytes, counters and per-channel counters.
    #[test]
    fn a_fanout_is_one_record_writer_per_target() {
        let records = kpes(257);
        let targets = |i: usize| -> Vec<u32> {
            match i % 5 {
                0 => vec![0, 2],
                1 | 2 => vec![1],
                _ => vec![2, 3, 0],
            }
        };
        let tag = |t: u32| (t != 1).then_some(u64::from(t) * 3);
        for pages in [1, 2, 16] {
            let fanned = fanout_disk(4, None);
            let mut fan = Fanout::new(&fanned, 4, tag, pages);
            for (i, k) in records.iter().enumerate() {
                for t in targets(i) {
                    fan.try_push(t, k).unwrap();
                }
            }
            let files = fan.try_finish().unwrap();

            let one = fanout_disk(4, None);
            let mut writers: Vec<RecordWriter<Kpe>> = (0..4)
                .map(|t| {
                    let f = tag(t).map_or_else(|| one.create(), |c| one.create_on(c));
                    RecordWriter::new(&one, f, pages)
                })
                .collect();
            for (i, k) in records.iter().enumerate() {
                for t in targets(i) {
                    writers[t as usize].push(k);
                }
            }
            // Finished in target order, as the fan-out finishes them.
            let want: Vec<(FileId, u64)> = writers
                .into_iter()
                .map(|w| {
                    let count = w.count();
                    (w.finish(), count)
                })
                .collect();
            assert_eq!(fanned.stats(), one.stats(), "{pages} pages");
            assert_eq!(fanned.channel_stats(), one.channel_stats(), "{pages} pages");
            assert_eq!(files, want);
            for (&(f, _), &(g, _)) in files.iter().zip(&want) {
                assert_eq!(read_all::<Kpe>(&fanned, f, 1), read_all::<Kpe>(&one, g, 1));
            }
        }
    }
}
