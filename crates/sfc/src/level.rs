use geom::{Point, Rect};

use crate::{zorder, Cell};

/// Finest grid level used by the S³J family in this workspace (cell side
/// `2^-16 ≈ 1.5e-5` — finer than any MBR in the TIGER-like datasets).
pub const MAX_LEVEL: u8 = 16;

/// Original S³J / MX-CIF level function: the level of the *lowest* (finest)
/// quadtree node whose region fully covers `r`, capped at `max_level`.
///
/// Computed via the locational codes of the two corners (paper §4.2): the
/// level is the number of leading bit *pairs* the z-codes of the lower-left
/// and upper-right corner cells at `max_level` have in common.
pub fn mxcif_level(r: &Rect, max_level: u8) -> u8 {
    let lo = Cell::containing(max_level, Point::new(r.xl, r.yl));
    let hi = Cell::containing(max_level, Point::new(r.xh, r.yh));
    let zl = zorder::encode(lo.ix, lo.iy);
    let zh = zorder::encode(hi.ix, hi.iy);
    common_prefix_level(zl, zh, max_level)
}

/// The covering cell itself: the `mxcif_level` ancestor of the corner cell.
pub fn mxcif_cell(r: &Rect, max_level: u8) -> Cell {
    let level = mxcif_level(r, max_level);
    Cell::containing(max_level, Point::new(r.xl, r.yl)).ancestor_at(level)
}

/// Number of common leading bit pairs of two `2·max_level`-bit z-codes.
#[inline]
fn common_prefix_level(a: u64, b: u64, max_level: u8) -> u8 {
    if max_level == 0 {
        return 0;
    }
    let bits = 2 * max_level as u32; // ≤ 62 since levels are capped at 31
    let diff = (a ^ b) & ((1u64 << bits) - 1);
    if diff == 0 {
        return max_level;
    }
    // Highest differing bit position within the 2·max_level code bits.
    let high = 63 - diff.leading_zeros();
    let common_bits = bits - 1 - high; // bits above `high` that agree
    (common_bits / 2) as u8
}

/// Size-separation level function of paper §4.3:
///
/// ```text
/// level(r) = max { k | (xh - xl) ≤ 2^-k  ∧  (yh - yl) ≤ 2^-k }
/// ```
///
/// i.e. the finest grid whose cell side still accommodates both edges of the
/// rectangle, capped at `max_level`. A rectangle assigned to this level
/// overlaps **at most four** cells of the level grid (see
/// [`cells_overlapping`]), which bounds the replication rate of replicated
/// S³J by four.
///
/// ```
/// use geom::Rect;
/// use sfc::size_level;
/// // Edges of 1/8 fit a level-3 cell (side 2^-3) but not a level-4 one.
/// assert_eq!(size_level(&Rect::new(0.0, 0.0, 0.125, 0.1), 16), 3);
/// ```
pub fn size_level(r: &Rect, max_level: u8) -> u8 {
    let e = r.width().max(r.height());
    if e <= 0.0 {
        return max_level;
    }
    // max k with e ≤ 2^-k  ⇔  k ≤ -log2(e).
    let k = (-e.log2()).floor();
    if k < 0.0 {
        0
    } else {
        (k as u32).min(max_level as u32) as u8
    }
}

/// All cells of `level` whose half-open region intersects `r` (clamped into
/// the data space), row by row, without allocating. For
/// `level == size_level(r, …)` these are at most four cells; for finer
/// levels there may be more.
pub fn cells_overlapping(r: &Rect, level: u8) -> impl Iterator<Item = Cell> {
    let lo = Cell::containing(level, Point::new(r.xl, r.yl));
    let hi = Cell::containing(level, Point::new(r.xh, r.yh));
    (lo.iy..=hi.iy).flat_map(move |iy| (lo.ix..=hi.ix).map(move |ix| Cell::new(level, ix, iy)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rect_spanning_center_goes_to_root() {
        // The paper's clipping pathology: a tiny rect straddling the centre
        // lines lands at level 0 under the original assignment...
        let r = Rect::new(0.4999, 0.4999, 0.5001, 0.5001);
        assert_eq!(mxcif_level(&r, MAX_LEVEL), 0);
        // ...but the size-separation level sends it to a very fine level.
        assert!(size_level(&r, MAX_LEVEL) >= 12);
    }

    #[test]
    fn mxcif_cell_covers_rect() {
        for r in [
            Rect::new(0.1, 0.1, 0.12, 0.13),
            Rect::new(0.76, 0.01, 0.78, 0.02),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.24, 0.24, 0.26, 0.26),
        ] {
            let c = mxcif_cell(&r, MAX_LEVEL);
            assert!(
                c.rect().contains_rect(&r),
                "cell {c:?} does not cover {r:?}"
            );
        }
    }

    #[test]
    fn mxcif_level_is_maximal() {
        // The child cell containing the rect's lower-left corner must NOT
        // cover the rect (otherwise the level was not maximal).
        let r = Rect::new(0.1, 0.1, 0.14, 0.12);
        let l = mxcif_level(&r, MAX_LEVEL);
        assert!(l < MAX_LEVEL);
        let child = Cell::containing(l + 1, Point::new(r.xl, r.yl));
        assert!(!child.rect().contains_rect(&r));
    }

    #[test]
    fn size_level_examples() {
        // Edge length exactly 2^-3: fits level 3.
        let r = Rect::new(0.0, 0.0, 0.125, 0.125);
        assert_eq!(size_level(&r, MAX_LEVEL), 3);
        // Slightly larger: only level 2.
        let r = Rect::new(0.0, 0.0, 0.1251, 0.01);
        assert_eq!(size_level(&r, MAX_LEVEL), 2);
        // Degenerate: max level.
        let pt = Rect::new(0.3, 0.3, 0.3, 0.3);
        assert_eq!(size_level(&pt, MAX_LEVEL), MAX_LEVEL);
        // Full-space rect: level 0.
        assert_eq!(size_level(&Rect::new(0.0, 0.0, 1.0, 1.0), MAX_LEVEL), 0);
    }

    #[test]
    fn figure9_example() {
        // Paper Figure 9: r1 straddles the centre (original level 0), r2 sits
        // inside one level-1 quadrant (original level ≥ 1); with
        // size-separation both are assigned to level 2 because their edges
        // fit level-2 cells.
        let r1 = Rect::new(0.45, 0.45, 0.65, 0.6); // edges 0.2, 0.15 ≤ 0.25
        let r2 = Rect::new(0.05, 0.55, 0.25, 0.7); // edges 0.2, 0.15 ≤ 0.25
        assert_eq!(mxcif_level(&r1, MAX_LEVEL), 0);
        assert_eq!(size_level(&r1, MAX_LEVEL), 2);
        assert_eq!(size_level(&r2, MAX_LEVEL), 2);
    }

    fn arb_rect() -> impl Strategy<Value = Rect> {
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b, c, d)| {
            Rect::from_corners(Point::new(a, b), Point::new(c, d))
        })
    }

    proptest! {
        #[test]
        fn prop_mxcif_cell_covers(r in arb_rect()) {
            let c = mxcif_cell(&r, MAX_LEVEL);
            prop_assert!(c.rect().contains_rect(&r));
        }

        #[test]
        fn prop_size_level_at_most_four_cells(r in arb_rect()) {
            let l = size_level(&r, MAX_LEVEL);
            let cells = cells_overlapping(&r, l).count();
            prop_assert!(cells > 0);
            prop_assert!(cells <= 4, "rect {:?} level {} got {} cells", r, l, cells);
        }

        #[test]
        fn prop_size_level_edges_fit(r in arb_rect()) {
            let l = size_level(&r, MAX_LEVEL);
            let side = 1.0 / (1u64 << l) as f64;
            prop_assert!(r.width() <= side + 1e-12);
            prop_assert!(r.height() <= side + 1e-12);
        }

        #[test]
        fn prop_overlapping_cells_do_overlap(r in arb_rect(), level in 0u8..8) {
            let clamped = r.intersection(&Rect::unit()).unwrap_or(r);
            for c in cells_overlapping(&r, level) {
                prop_assert!(c.rect().intersects(&clamped));
            }
        }

        #[test]
        fn prop_size_level_ge_mxcif_level(r in arb_rect()) {
            // Size separation never assigns a rect to a coarser level than
            // the covering-cell rule (that is exactly the point of §4.3).
            prop_assert!(size_level(&r, MAX_LEVEL) >= mxcif_level(&r, MAX_LEVEL));
        }
    }
}
