use std::convert::Infallible;

use geom::{Kpe, Point};
use sfc::{mxcif_cell, size_level, Cell, Curve};
use storage::{radix_sorted, Fanout, FileId, FixedRecord, IoError, SimDisk};

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
    /// Partitioning phase for one relation. A write that exhausts the
    /// disk's retry budget surfaces as a typed error, after every file this
    /// call created has been deleted.
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
    pub fn try_build(
        disk: &SimDisk,
        data: &[Kpe],
        max_level: u8,
        curve: Curve,
        replicate: bool,
        level_shift: u8,
        buffer_pages: usize,
    ) -> Result<LevelFiles, IoError> {
        // Level `l` rides data channel `l mod D` (both relations): the
        // per-level partition writes and the join's level scans overlap
        // across channels under the multi-channel clock.
        let levels = u32::from(max_level) + 1;
        let mut fan = Fanout::new(disk, levels, |l| Some(u64::from(l)), buffer_pages);
        let mut code_computations = 0u64;
        for k in data {
            place(k, max_level, replicate, level_shift, |cell| {
                code_computations += u64::from(cell.level > 0);
                let rec = LevelRecord { code: code_of(cell, curve), kpe: *k };
                fan.try_push(u32::from(cell.level), &rec)
            })?;
        }
        let mut files = Vec::with_capacity(levels as usize);
        let mut histogram = Vec::with_capacity(levels as usize);
        for (f, n) in fan.try_finish()? {
            if n == 0 {
                disk.delete(f);
            }
            files.push((n > 0).then_some(f));
            histogram.push(n);
        }
        Ok(LevelFiles {
            files,
            copies: histogram.iter().sum(),
            histogram,
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

/// The partitioning rule of [`LevelFiles::try_build`] and of its
/// quarantine replay: `copy` gets each cell `k` is written into, in
/// [`sfc::cells_overlapping`]'s order (row by row), walked as two plain
/// ranges.
#[inline]
fn place<E>(
    k: &Kpe,
    max_level: u8,
    replicate: bool,
    level_shift: u8,
    mut copy: impl FnMut(Cell) -> Result<(), E>,
) -> Result<(), E> {
    if !replicate {
        return copy(mxcif_cell(&k.rect, max_level));
    }
    let level = size_level(&k.rect, max_level).saturating_sub(level_shift);
    let lo = Cell::containing(level, Point::new(k.rect.xl, k.rect.yl));
    let hi = Cell::containing(level, Point::new(k.rect.xh, k.rect.yh));
    for iy in lo.iy..=hi.iy {
        for ix in lo.ix..=hi.ix {
            copy(Cell::new(level, ix, iy))?;
        }
    }
    Ok(())
}

/// A cell's locational code; level 0 has one cell, so its code is free.
#[inline]
fn code_of(cell: Cell, curve: Curve) -> u64 {
    if cell.level == 0 {
        0
    } else {
        cell.code(curve)
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
        let copied = place(k, max_level, replicate, level_shift, |cell| {
            if cell.level == level {
                recs.push(LevelRecord { code: code_of(cell, curve), kpe: *k });
            }
            Ok::<(), Infallible>(())
        });
        let Ok(()) = copied;
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
        let lf = LevelFiles::try_build(&d, &data, 10, Curve::Peano, false, 0, 1).unwrap();
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
        let lf = LevelFiles::try_build(&d, &data, 12, Curve::Peano, true, 0, 1).unwrap();
        assert!(lf.copies >= 1000);
        assert!(lf.copies <= 4000, "copies = {}", lf.copies);
    }

    #[test]
    fn replicated_records_carry_their_cells_code() {
        let d = disk();
        // A rect straddling the centre: size level > 0, four copies.
        let k = Kpe::new(RecordId(1), Rect::new(0.49, 0.49, 0.51, 0.51));
        let lf = LevelFiles::try_build(&d, &[k], 12, Curve::Peano, true, 0, 1).unwrap();
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
        let orig = LevelFiles::try_build(&d, &data, 12, Curve::Peano, false, 0, 1).unwrap();
        let repl = LevelFiles::try_build(&d, &data, 12, Curve::Peano, true, 0, 1).unwrap();
        assert_eq!(orig.histogram[0], 50, "all straddlers clipped to root");
        assert_eq!(repl.histogram[0], 0, "size separation rescues them");
    }

    #[test]
    fn placement_walks_the_overlapping_cells_in_order() {
        let mut data = datagen::uniform(2000, 0.05, 11);
        // Rects on cell edges, protruding from the data space, degenerate.
        data.push(Kpe::new(RecordId(1), Rect::new(0.25, 0.5, 0.75, 0.5)));
        data.push(Kpe::new(RecordId(2), Rect::new(-0.1, 0.9, 0.05, 1.2)));
        data.push(Kpe::new(RecordId(3), Rect::new(0.5, 0.5, 0.5, 0.5)));
        for k in &data {
            for shift in [0, 1, 3] {
                let mut got = Vec::new();
                let Ok(()) = place(k, 12, true, shift, |cell| {
                    got.push(cell);
                    Ok::<(), Infallible>(())
                });
                let level = sfc::size_level(&k.rect, 12).saturating_sub(shift);
                let want: Vec<Cell> = sfc::cells_overlapping(&k.rect, level).collect();
                assert_eq!(got, want, "{k:?} shift {shift}");
            }
        }
    }

    #[test]
    fn code_computation_counters_differ_by_level_zero() {
        let d = disk();
        let wide = Kpe::new(RecordId(0), Rect::new(0.0, 0.0, 0.9, 0.9)); // level 0
        let tiny = Kpe::new(RecordId(1), Rect::new(0.1, 0.1, 0.101, 0.101));
        let lf = LevelFiles::try_build(&d, &[wide, tiny], 12, Curve::Peano, true, 0, 1).unwrap();
        // The wide rect is level 0 (one cell, free); the tiny one costs 1.
        assert_eq!(lf.code_computations, 1);
    }
}
