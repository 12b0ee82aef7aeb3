use geom::Kpe;
use sfc::{cells_overlapping, mxcif_cell, size_level, Curve};
use storage::{radix_sorted, FileId, FixedRecord, IoError, RecordWriter, SimDisk};

/// A record of a level file: a KPE tagged with its locational code. The
/// level itself is implicit in which file the record lives in; the code uses
/// `2·level` bits (§4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelRecord {
    pub code: u64,
    pub kpe: Kpe,
}

impl FixedRecord for LevelRecord {
    const SIZE: usize = 8 + Kpe::ENCODED_SIZE;

    #[inline]
    fn encode(&self, buf: &mut [u8]) {
        buf[0..8].copy_from_slice(&self.code.to_le_bytes());
        self.kpe.encode(&mut buf[8..]);
    }

    #[inline]
    fn decode(buf: &[u8]) -> Self {
        // Invariant: callers hand `decode` exactly `SIZE` bytes, so the
        // 8-byte code sub-slice always converts.
        LevelRecord {
            code: u64::from_le_bytes(buf[0..8].try_into().expect("8-byte slice")),
            kpe: Kpe::decode(&buf[8..]),
        }
    }
}

/// The level files of one relation after the partitioning phase.
pub struct LevelFiles {
    /// `files[l]` holds the level-`l` records; empty levels are `None`.
    pub files: Vec<Option<FileId>>,
    /// Records written per level (the paper's level-occupancy observation).
    pub histogram: Vec<u64>,
    /// Total records written (`> input size` only when replicating).
    pub copies: u64,
    /// Locational-code computations performed (§4.4.2: Peano codes are
    /// cheaper than Hilbert codes, and level-0 codes are free).
    pub code_computations: u64,
}

impl LevelFiles {
    /// Partitioning phase for one relation.
    ///
    /// * `replicate == false`: original S³J — each rectangle goes to the
    ///   single lowest quadtree cell covering it ([`mxcif_cell`]).
    /// * `replicate == true`: §4.3 — each rectangle goes to its
    ///   [`size_level`] and is replicated into the ≤ 4 cells of that level it
    ///   overlaps.
    ///
    /// The `level_shift` parameter coarsens the size-separation assignment
    /// by that many levels: a shift of 1 gives cells 2-4x the rectangle's
    /// edge, roughly halving the straddle probability per axis and cutting
    /// the overall replication rate from ~3x to ~1.8x while preserving the
    /// <=4-copy bound (§4.3's second design choice: keep replication low).
    pub fn build(
        disk: &SimDisk,
        data: &[Kpe],
        max_level: u8,
        curve: Curve,
        replicate: bool,
        level_shift: u8,
        buffer_pages: usize,
    ) -> LevelFiles {
        Self::try_build(disk, data, max_level, curve, replicate, level_shift, buffer_pages)
            .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
    }

    /// Fallible [`LevelFiles::build`]: a write that exhausts the disk's
    /// retry budget surfaces as a typed error, after every file this call
    /// created has been deleted.
    pub fn try_build(
        disk: &SimDisk,
        data: &[Kpe],
        max_level: u8,
        curve: Curve,
        replicate: bool,
        level_shift: u8,
        buffer_pages: usize,
    ) -> Result<LevelFiles, IoError> {
        let n_levels = max_level as usize + 1;
        let mut writers: Vec<Option<RecordWriter<LevelRecord>>> = (0..n_levels).map(|_| None).collect();
        let mut histogram = vec![0u64; n_levels];
        let mut copies = 0u64;
        let mut code_computations = 0u64;
        let push = |writers: &mut Vec<Option<RecordWriter<LevelRecord>>>,
                    level: u8,
                    rec: LevelRecord|
         -> Result<(), IoError> {
            // Level `l` rides data channel `l mod D` (both relations): the
            // per-level partition writes and the join's level scans overlap
            // across channels under the multi-channel clock.
            let w = writers[level as usize]
                .get_or_insert_with(|| RecordWriter::create_on(disk, u64::from(level), buffer_pages));
            w.try_push(&rec)
        };
        let delete_all = |writers: &[Option<RecordWriter<LevelRecord>>]| {
            for w in writers.iter().flatten() {
                disk.delete(w.file());
            }
        };
        for k in data {
            if replicate {
                let level = size_level(&k.rect, max_level).saturating_sub(level_shift);
                for cell in cells_overlapping(&k.rect, level) {
                    let code = if level == 0 {
                        0 // level 0 has one cell; no code computation needed
                    } else {
                        code_computations += 1;
                        cell.code(curve)
                    };
                    if let Err(e) = push(&mut writers, level, LevelRecord { code, kpe: *k }) {
                        delete_all(&writers);
                        return Err(e);
                    }
                    histogram[level as usize] += 1;
                    copies += 1;
                }
            } else {
                let cell = mxcif_cell(&k.rect, max_level);
                let code = if cell.level == 0 {
                    0
                } else {
                    code_computations += 1;
                    cell.code(curve)
                };
                if let Err(e) = push(&mut writers, cell.level, LevelRecord { code, kpe: *k }) {
                    delete_all(&writers);
                    return Err(e);
                }
                histogram[cell.level as usize] += 1;
                copies += 1;
            }
        }
        let mut files: Vec<Option<FileId>> = Vec::with_capacity(n_levels);
        let mut err: Option<IoError> = None;
        for w in writers {
            match w {
                None => files.push(None),
                Some(w) => {
                    let fid = w.file();
                    match w.try_finish() {
                        Ok(f) if err.is_none() => files.push(Some(f)),
                        Ok(_) => {
                            disk.delete(fid);
                            files.push(None);
                        }
                        Err(e) => {
                            disk.delete(fid);
                            err.get_or_insert(e);
                            files.push(None);
                        }
                    }
                }
            }
        }
        if let Some(e) = err {
            for f in files.iter().flatten() {
                disk.delete(*f);
            }
            return Err(e);
        }
        Ok(LevelFiles {
            files,
            histogram,
            copies,
            code_computations,
        })
    }

    /// Deletes all level files.
    pub fn delete(&self, disk: &SimDisk) {
        for f in self.files.iter().flatten() {
            disk.delete(*f);
        }
    }

    /// Levels that actually hold records.
    pub fn occupied_levels(&self) -> impl Iterator<Item = u8> + '_ {
        self.files
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_some())
            .map(|(l, _)| l as u8)
    }
}

/// Recomputes the records of one level in memory, sorted by locational code
/// — the quarantine-recompute path for a level file on persistently damaged
/// media. The per-KPE assignment is a pure function of the rectangle and the
/// build parameters, so replaying [`LevelFiles::try_build`]'s rule filtered
/// to `level` reproduces exactly the records the damaged file holds, in the
/// order the build wrote them. Both this sort and the external sort are
/// stable sorts on the same integer key, so the replay *is* the sorted
/// file, record for record. Reading the source relation is free of charge
/// (paper §2).
pub fn rebuild_level_sorted(
    data: &[Kpe],
    level: u8,
    max_level: u8,
    curve: Curve,
    replicate: bool,
    level_shift: u8,
) -> Vec<LevelRecord> {
    let mut recs: Vec<LevelRecord> = Vec::new();
    for k in data {
        if replicate {
            let l = size_level(&k.rect, max_level).saturating_sub(level_shift);
            if l != level {
                continue;
            }
            for cell in cells_overlapping(&k.rect, l) {
                let code = if l == 0 { 0 } else { cell.code(curve) };
                recs.push(LevelRecord { code, kpe: *k });
            }
        } else {
            let cell = mxcif_cell(&k.rect, max_level);
            if cell.level != level {
                continue;
            }
            let code = if cell.level == 0 { 0 } else { cell.code(curve) };
            recs.push(LevelRecord { code, kpe: *k });
        }
    }
    radix_sorted(&recs, |r| r.code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::{Rect, RecordId};
    use storage::read_all;

    fn disk() -> SimDisk {
        SimDisk::with_default_model()
    }

    #[test]
    fn level_record_roundtrip() {
        let rec = LevelRecord {
            code: 0xABCDEF,
            kpe: Kpe::new(RecordId(9), Rect::new(0.1, 0.2, 0.3, 0.4)),
        };
        let mut buf = [0u8; LevelRecord::SIZE];
        rec.encode(&mut buf);
        assert_eq!(LevelRecord::decode(&buf), rec);
    }

    #[test]
    fn original_assignment_writes_each_rect_once() {
        let d = disk();
        let data = datagen::uniform(500, 0.05, 3);
        let lf = LevelFiles::build(&d, &data, 10, Curve::Peano, false, 0, 1);
        assert_eq!(lf.copies, 500);
        assert_eq!(lf.histogram.iter().sum::<u64>(), 500);
        let total: usize = lf
            .files
            .iter()
            .flatten()
            .map(|&f| read_all::<LevelRecord>(&d, f, 1).len())
            .sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn replication_is_bounded_by_four() {
        let d = disk();
        let data = datagen::uniform(1000, 0.08, 4);
        let lf = LevelFiles::build(&d, &data, 12, Curve::Peano, true, 0, 1);
        assert!(lf.copies >= 1000);
        assert!(lf.copies <= 4000, "copies = {}", lf.copies);
    }

    #[test]
    fn replicated_records_carry_their_cells_code() {
        let d = disk();
        // A rect straddling the centre: size level > 0, four copies.
        let k = Kpe::new(RecordId(1), Rect::new(0.49, 0.49, 0.51, 0.51));
        let lf = LevelFiles::build(&d, &[k], 12, Curve::Peano, true, 0, 1);
        assert_eq!(lf.copies, 4);
        let level = sfc::size_level(&k.rect, 12);
        let recs: Vec<LevelRecord> =
            read_all(&d, lf.files[level as usize].unwrap(), 1);
        let mut codes: Vec<u64> = recs.iter().map(|r| r.code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 4, "four distinct cells expected");
        for r in &recs {
            let cell = sfc::Cell::from_code(level, r.code, Curve::Peano);
            assert!(cell.rect().intersects(&k.rect));
        }
    }

    #[test]
    fn original_puts_straddlers_at_level_zero_replicated_does_not() {
        let d = disk();
        // Tiny rects on the centre cross.
        let data: Vec<Kpe> = (0..50)
            .map(|i| {
                let t = 0.01 + i as f64 * 0.019;
                Kpe::new(RecordId(i), Rect::new(0.4999, t, 0.5001, t + 0.001))
            })
            .collect();
        let orig = LevelFiles::build(&d, &data, 12, Curve::Peano, false, 0, 1);
        let repl = LevelFiles::build(&d, &data, 12, Curve::Peano, true, 0, 1);
        assert_eq!(orig.histogram[0], 50, "all straddlers clipped to root");
        assert_eq!(repl.histogram[0], 0, "size separation rescues them");
    }

    #[test]
    fn code_computation_counters_differ_by_level_zero() {
        let d = disk();
        let wide = Kpe::new(RecordId(0), Rect::new(0.0, 0.0, 0.9, 0.9)); // level 0
        let tiny = Kpe::new(RecordId(1), Rect::new(0.1, 0.1, 0.101, 0.101));
        let lf = LevelFiles::build(&d, &[wide, tiny], 12, Curve::Peano, true, 0, 1);
        // The wide rect is level 0 (one cell, free); the tiny one costs 1.
        assert_eq!(lf.code_computations, 1);
    }
}
