use crate::{FileId, IoError, SimDisk};

/// Buffered append-only byte sink over a [`SimDisk`] file.
///
/// Bytes accumulate in a buffer of `buffer_pages` pages and are flushed as a
/// single contiguous request (`PT + buffer_pages` units). A larger buffer
/// amortises the positioning penalty — the memory/IO trade-off every
/// algorithm in this workspace has to budget for.
pub struct FileWriter {
    disk: SimDisk,
    file: FileId,
    /// The whole buffer, allocated once; `buf[..len]` is waiting for a flush.
    buf: Vec<u8>,
    len: usize,
    bytes_written: u64,
}

impl FileWriter {
    pub fn new(disk: &SimDisk, file: FileId, buffer_pages: usize) -> Self {
        let cap = disk.model().page_size * buffer_pages.max(1);
        FileWriter {
            disk: disk.clone(),
            file,
            buf: vec![0; cap],
            len: 0,
            bytes_written: 0,
        }
    }

    /// Memory held by this writer's buffer, for memory-budget accounting.
    pub fn buffer_bytes(&self) -> usize {
        self.buf.len()
    }

    pub fn file(&self) -> FileId {
        self.file
    }

    /// Total bytes pushed (flushed or not).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Buffers `data`, flushing full buffers as single requests. An error
    /// surfaces only when a flush exhausts the disk's retry budget; the
    /// failed buffer is kept, so a later flush retries the same bytes.
    pub fn try_write(&mut self, mut data: &[u8]) -> Result<(), IoError> {
        self.bytes_written += data.len() as u64;
        while !data.is_empty() {
            let take = self.room().min(data.len());
            self.buf[self.len..self.len + take].copy_from_slice(&data[..take]);
            self.len += take;
            data = &data[take..];
            self.try_flush_if_full()?;
        }
        Ok(())
    }

    /// [`FileWriter::try_write`] of the `len` bytes `fill` produces, written
    /// straight into the buffer — no staging copy — whenever they fit before
    /// the next flush point. `Ok(false)` (nothing written, `fill` not called)
    /// when they would straddle it: the caller stages those few through
    /// [`FileWriter::try_write`], which splits them exactly as before, so
    /// flush points and request sizes are the same on either path.
    #[inline]
    pub(crate) fn try_write_in_place(
        &mut self,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<bool, IoError> {
        let Some(slot) = self.buf.get_mut(self.len..self.len + len) else {
            return Ok(false);
        };
        fill(slot);
        self.len += len;
        self.bytes_written += len as u64;
        self.try_flush_if_full()?;
        Ok(true)
    }

    /// Bytes that still fit before the next flush point.
    #[inline]
    pub(crate) fn room(&self) -> usize {
        self.buf.len() - self.len
    }

    #[inline]
    fn try_flush_if_full(&mut self) -> Result<(), IoError> {
        if self.len == self.buf.len() {
            self.try_flush()?;
        }
        Ok(())
    }

    fn try_flush(&mut self) -> Result<(), IoError> {
        self.disk.try_append(self.file, &self.buf[..self.len])?;
        self.len = 0;
        Ok(())
    }

    /// Infallible wrapper over [`FileWriter::try_write`]; panics with the
    /// typed error's message if the flush cannot be satisfied.
    pub fn write(&mut self, data: &[u8]) {
        self.try_write(data)
            .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
    }

    /// Flushes any buffered bytes and returns the file handle.
    pub fn try_finish(mut self) -> Result<FileId, IoError> {
        self.try_flush()?;
        Ok(self.file)
    }

    /// Infallible wrapper over [`FileWriter::try_finish`].
    pub fn finish(self) -> FileId {
        self.try_finish()
            .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
    }
}

/// Buffered sequential byte source over a byte range of a [`SimDisk`] file.
///
/// Refills read `buffer_pages` pages per request; the range form
/// ([`FileReader::with_range`]) lets the multiway merge read several runs of
/// one file concurrently.
pub struct FileReader {
    disk: SimDisk,
    file: FileId,
    buf: Vec<u8>,
    buf_pos: usize,
    offset: u64,
    end: u64,
    cap: usize,
}

impl FileReader {
    /// Reads the whole file.
    pub fn new(disk: &SimDisk, file: FileId, buffer_pages: usize) -> Self {
        let end = disk.len(file);
        Self::with_range(disk, file, 0, end, buffer_pages)
    }

    /// Reads bytes `[start, end)` of the file.
    pub fn with_range(disk: &SimDisk, file: FileId, start: u64, end: u64, buffer_pages: usize) -> Self {
        let cap = disk.model().page_size * buffer_pages.max(1);
        FileReader {
            disk: disk.clone(),
            file,
            buf: Vec::new(),
            buf_pos: 0,
            offset: start,
            end,
            cap,
        }
    }

    /// Memory held by this reader's buffer, for memory-budget accounting.
    pub fn buffer_bytes(&self) -> usize {
        self.cap
    }

    /// Bytes still unread (buffered + on disk).
    pub fn remaining(&self) -> u64 {
        (self.buf.len() - self.buf_pos) as u64 + (self.end - self.offset)
    }

    fn try_refill(&mut self) -> Result<(), IoError> {
        debug_assert_eq!(self.buf_pos, self.buf.len());
        let want = (self.cap as u64).min(self.end - self.offset) as usize;
        self.buf.resize(want, 0);
        self.buf_pos = 0;
        if want > 0 {
            self.disk.try_read(self.file, self.offset, &mut self.buf)?;
            self.offset += want as u64;
        }
        Ok(())
    }

    /// Fills `out` completely; `Ok(false)` (leaving `out` unspecified) if
    /// fewer than `out.len()` bytes remain. An error surfaces only when a
    /// buffer refill exhausts the disk's retry budget; the stream should be
    /// considered broken afterwards — recovery restarts from a fresh reader
    /// (that is what the join-level degradation paths do).
    pub fn try_read_exact(&mut self, out: &mut [u8]) -> Result<bool, IoError> {
        if (self.remaining() as usize) < out.len() {
            return Ok(false);
        }
        let mut done = 0;
        while done < out.len() {
            if self.buf_pos == self.buf.len() {
                self.try_refill()?;
            }
            let avail = self.buf.len() - self.buf_pos;
            let take = avail.min(out.len() - done);
            out[done..done + take].copy_from_slice(&self.buf[self.buf_pos..self.buf_pos + take]);
            self.buf_pos += take;
            done += take;
        }
        Ok(true)
    }

    /// The next `len` bytes as a view into the buffer — no copy — refilling
    /// first if the buffer is spent. `Ok(None)` when the buffer holds some
    /// but fewer than `len` bytes (they straddle a refill) or the stream has
    /// fewer than `len` left: the caller falls back to
    /// [`FileReader::try_read_exact`], which refills at the same point with
    /// the same request, so the I/O pattern is the same on either path.
    #[inline]
    pub(crate) fn try_view(&mut self, len: usize) -> Result<Option<&[u8]>, IoError> {
        if self.buf_pos == self.buf.len() && self.end - self.offset >= len as u64 {
            self.try_refill()?;
        }
        let from = self.buf_pos;
        if self.buf.len() - from < len {
            return Ok(None);
        }
        self.buf_pos += len;
        Ok(Some(&self.buf[from..from + len]))
    }

    /// Bytes buffered and unread: what [`FileReader::try_view`] can serve
    /// without touching the disk.
    #[inline]
    pub(crate) fn buffered(&self) -> usize {
        self.buf.len() - self.buf_pos
    }

    /// Infallible wrapper over [`FileReader::try_read_exact`]; panics with
    /// the typed error's message if a refill cannot be satisfied.
    pub fn read_exact(&mut self, out: &mut [u8]) -> bool {
        self.try_read_exact(out)
            .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::DiskModel;

    fn disk() -> SimDisk {
        SimDisk::new(DiskModel {
            page_size: 8,
            positioning_ratio: 4.0,
            transfer_secs_per_page: 1.0,
            cpu_slowdown: 1.0,
            channels: 1,
            degraded_channel: None,
        })
    }

    #[test]
    fn writer_reader_roundtrip_across_buffers() {
        let d = disk();
        let f = d.create();
        let mut w = FileWriter::new(&d, f, 2); // 16-byte buffer
        let payload: Vec<u8> = (0..100u8).collect();
        w.write(&payload[..37]);
        w.write(&payload[37..]);
        let f = w.finish();
        assert_eq!(d.len(f), 100);

        let mut r = FileReader::new(&d, f, 3);
        let mut out = vec![0u8; 100];
        assert!(r.read_exact(&mut out));
        assert_eq!(out, payload);
        assert!(!r.read_exact(&mut [0u8; 1]));
    }

    #[test]
    fn writer_flushes_full_buffers_as_single_requests() {
        let d = disk();
        let f = d.create();
        let mut w = FileWriter::new(&d, f, 4); // 32-byte buffer
        w.write(&[1u8; 64]);
        w.finish();
        let s = d.stats();
        assert_eq!(s.write_requests, 2); // two full 4-page flushes
        assert_eq!(s.pages_written, 8);
    }

    #[test]
    fn reader_range_reads_only_its_slice() {
        let d = disk();
        let f = d.create();
        let mut w = FileWriter::new(&d, f, 1);
        w.write(&(0..64u8).collect::<Vec<_>>());
        w.finish();
        let mut r = FileReader::with_range(&d, f, 16, 32, 1);
        assert_eq!(r.remaining(), 16);
        let mut out = [0u8; 16];
        assert!(r.read_exact(&mut out));
        assert_eq!(out.to_vec(), (16..32u8).collect::<Vec<_>>());
        assert!(!r.read_exact(&mut out));
    }

    #[test]
    fn larger_read_buffers_cost_fewer_units() {
        let d = disk();
        let f = d.create();
        let mut w = FileWriter::new(&d, f, 8);
        w.write(&[0u8; 256]); // 32 pages
        w.finish();
        d.reset_stats();
        let mut out = vec![0u8; 256];
        FileReader::new(&d, f, 1).read_exact(&mut out);
        let small = d.model().units(&d.stats());
        d.reset_stats();
        FileReader::new(&d, f, 16).read_exact(&mut out);
        let big = d.model().units(&d.stats());
        assert!(big < small, "big-buffer read {big} not cheaper than {small}");
    }
}
