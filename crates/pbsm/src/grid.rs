use geom::{Point, Rect};

/// The base equidistant grid of the partitioning phase: `gx × gy` tiles over
/// the unit data space. Finer grids used during repartitioning are always
/// power-of-two refinements of this base, so tile indices at any refinement
/// map to coarser levels by exact integer shifts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileGrid {
    pub gx: u32,
    pub gy: u32,
}

impl TileGrid {
    /// Chooses a near-square grid with at least `p * tiles_per_partition`
    /// tiles (`NT ≥ P`, paper §3.1).
    pub fn for_partitions(p: u32, tiles_per_partition: u32) -> TileGrid {
        let nt = (p.max(1) * tiles_per_partition.max(1)) as f64;
        let gx = nt.sqrt().ceil() as u32;
        let gy = (nt / gx as f64).ceil() as u32;
        TileGrid {
            gx: gx.max(1),
            gy: gy.max(1),
        }
    }

    /// Total number of tiles at refinement `f`.
    pub fn tiles(&self, f: u32) -> u64 {
        (self.gx as u64 * f as u64) * (self.gy as u64 * f as u64)
    }

    /// Tile containing `p` at refinement `f` (half-open tiles, clamped into
    /// the data space, boundary-closed at the top, matching the cell convention of the `sfc` crate).
    pub fn tile_of_point(&self, p: Point, f: u32) -> (u32, u32) {
        let nx = self.gx * f;
        let ny = self.gy * f;
        let c = |v: f64, n: u32| -> u32 { ((v.clamp(0.0, 1.0) * n as f64) as u32).min(n - 1) };
        (c(p.x, nx), c(p.y, ny))
    }

    /// Inclusive tile index ranges overlapped by `r` at refinement `f`.
    pub fn tile_range(&self, r: &Rect, f: u32) -> (std::ops::RangeInclusive<u32>, std::ops::RangeInclusive<u32>) {
        let (x0, y0) = self.tile_of_point(Point::new(r.xl, r.yl), f);
        let (x1, y1) = self.tile_of_point(Point::new(r.xh, r.yh), f);
        (x0..=x1, y0..=y1)
    }
}

/// How tiles are assigned to partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TileScheme {
    /// Hash each tile independently ([PD 96]'s suggestion; decorrelates
    /// partition load from spatial skew).
    #[default]
    Hash,
    /// Round-robin by tile index (the ablation baseline: preserves spatial
    /// correlation, so skewed data skews partitions).
    RoundRobin,
}

/// Assignment of the tiles of one grid refinement to `partitions` buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionMap {
    pub partitions: u32,
    pub scheme: TileScheme,
    /// Salt decorrelating the hash across repartitioning levels.
    pub salt: u64,
}

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl PartitionMap {
    pub fn new(partitions: u32, scheme: TileScheme, salt: u64) -> Self {
        PartitionMap {
            partitions: partitions.max(1),
            scheme,
            salt,
        }
    }

    /// Partition owning tile `(ix, iy)` of a grid `width` tiles wide.
    #[inline]
    pub fn partition_of(&self, ix: u32, iy: u32, width: u32) -> u32 {
        let idx = iy as u64 * width as u64 + ix as u64;
        match self.scheme {
            TileScheme::Hash => (splitmix64(idx ^ self.salt) % self.partitions as u64) as u32,
            TileScheme::RoundRobin => (idx % self.partitions as u64) as u32,
        }
    }
}

/// One refinement level of a partition's region description.
#[derive(Debug, Clone, Copy)]
pub struct RegionLevel {
    /// Refinement factor relative to the base grid (power of two).
    pub f: u32,
    pub map: PartitionMap,
    /// The partition id this region belongs to at this level.
    pub id: u32,
}

/// The region of a (possibly recursively repartitioned) partition pair: the
/// intersection of one tile-set region per refinement level.
///
/// This is what the Reference Point Method tests against: a point belongs to
/// the region iff, at every level, the tile containing it maps to that
/// level's partition id. Levels are appended as repartitioning recurses; the
/// finest level's tile indices shift down exactly to every coarser level, so
/// the whole test costs one float→tile conversion plus one shift-and-hash
/// per level.
#[derive(Debug, Clone)]
pub struct RegionChain {
    pub base: TileGrid,
    pub levels: Vec<RegionLevel>,
}

impl RegionChain {
    /// The region of top-level partition `id`.
    pub fn top(base: TileGrid, map: PartitionMap, id: u32) -> Self {
        RegionChain {
            base,
            levels: vec![RegionLevel { f: 1, map, id }],
        }
    }

    /// Finest refinement factor in the chain.
    pub fn max_f(&self) -> u32 {
        self.levels.last().map(|l| l.f).unwrap_or(1)
    }

    /// Child region: this region intersected with partition `id` of `map`
    /// over the `f`-refined grid. `f` must be a multiple of [`Self::max_f`].
    pub fn refined(&self, f: u32, map: PartitionMap, id: u32) -> Self {
        debug_assert!(f.is_multiple_of(self.max_f()) && f > 0);
        let mut levels = self.levels.clone();
        levels.push(RegionLevel { f, map, id });
        RegionChain {
            base: self.base,
            levels,
        }
    }

    /// Membership test for a point (the RPM test).
    pub fn contains_point(&self, p: Point) -> bool {
        let fmax = self.max_f();
        let (ix, iy) = self.base.tile_of_point(p, fmax);
        self.contains_tile(ix, iy, fmax)
    }

    /// Membership test for a tile given at refinement `f` (a multiple of
    /// every level's factor). Used when distributing KPEs during
    /// repartitioning.
    pub fn contains_tile(&self, ix: u32, iy: u32, f: u32) -> bool {
        for l in &self.levels {
            debug_assert!(f.is_multiple_of(l.f));
            let q = f / l.f;
            let (cx, cy) = (ix / q, iy / q);
            if l.map.partition_of(cx, cy, self.base.gx * l.f) != l.id {
                return false;
            }
        }
        true
    }

    /// The partitioning rule of both passes: into `out`, each partition of
    /// `map` (over the `f`-refined grid) that owns a tile of this region
    /// overlapped by `rect`, once, in first-overlap order. A chain with no
    /// levels contains every tile — the top-level pass. Always inlined: both
    /// passes call it once per record.
    #[inline(always)]
    pub fn targets(&self, rect: &Rect, f: u32, map: PartitionMap, out: &mut Vec<u32>) {
        out.clear();
        let (xs, ys) = self.base.tile_range(rect, f);
        for iy in ys {
            for ix in xs.clone() {
                if !self.contains_tile(ix, iy, f) {
                    continue;
                }
                let pid = map.partition_of(ix, iy, self.base.gx * f);
                if !out.contains(&pid) {
                    out.push(pid);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_sizing_honours_minimums() {
        let g = TileGrid::for_partitions(5, 4); // ≥ 20 tiles
        assert!(g.tiles(1) >= 20);
        let g1 = TileGrid::for_partitions(1, 1);
        assert_eq!(g1.tiles(1), 1);
    }

    #[test]
    fn tile_of_point_is_half_open_and_clamped() {
        let g = TileGrid { gx: 4, gy: 4 };
        assert_eq!(g.tile_of_point(Point::new(0.0, 0.0), 1), (0, 0));
        assert_eq!(g.tile_of_point(Point::new(0.25, 0.5), 1), (1, 2));
        assert_eq!(g.tile_of_point(Point::new(1.0, 1.0), 1), (3, 3));
        assert_eq!(g.tile_of_point(Point::new(-3.0, 7.0), 1), (0, 3));
    }

    #[test]
    fn tile_range_covers_rect() {
        let g = TileGrid { gx: 4, gy: 4 };
        let (xs, ys) = g.tile_range(&Rect::new(0.1, 0.3, 0.6, 0.4), 1);
        assert_eq!((xs, ys), (0..=2, 1..=1));
    }

    #[test]
    fn partition_maps_cover_all_partitions() {
        for scheme in [TileScheme::Hash, TileScheme::RoundRobin] {
            let m = PartitionMap::new(7, scheme, 99);
            let mut seen = [false; 7];
            for iy in 0..16 {
                for ix in 0..16 {
                    let p = m.partition_of(ix, iy, 16);
                    assert!(p < 7);
                    seen[p as usize] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "{scheme:?} misses partitions");
        }
    }

    #[test]
    fn every_point_in_exactly_one_top_region() {
        let base = TileGrid { gx: 5, gy: 3 };
        let map = PartitionMap::new(4, TileScheme::Hash, 1);
        let regions: Vec<RegionChain> = (0..4).map(|i| RegionChain::top(base, map, i)).collect();
        for p in [
            Point::new(0.01, 0.99),
            Point::new(0.5, 0.5),
            Point::new(0.2, 0.7),
            Point::new(1.0, 0.0),
        ] {
            let owners = regions.iter().filter(|r| r.contains_point(p)).count();
            assert_eq!(owners, 1, "point {p:?}");
        }
    }

    #[test]
    fn refined_regions_partition_their_parent() {
        let base = TileGrid { gx: 2, gy: 2 };
        let map = PartitionMap::new(2, TileScheme::Hash, 7);
        let parent = RegionChain::top(base, map, 0);
        let submap = PartitionMap::new(3, TileScheme::Hash, 8);
        let children: Vec<RegionChain> = (0..3).map(|i| parent.refined(2, submap, i)).collect();
        // Sample a grid of points: each point in the parent lies in exactly
        // one child; points outside the parent lie in no child.
        for i in 0..40 {
            for j in 0..40 {
                let p = Point::new(i as f64 / 40.0 + 0.003, j as f64 / 40.0 + 0.007);
                let in_parent = parent.contains_point(p);
                let owners = children.iter().filter(|c| c.contains_point(p)).count();
                assert_eq!(owners, usize::from(in_parent), "point {p:?}");
            }
        }
    }

    #[test]
    fn contains_tile_agrees_with_contains_point() {
        let base = TileGrid { gx: 3, gy: 2 };
        let map = PartitionMap::new(3, TileScheme::Hash, 5);
        let chain = RegionChain::top(base, map, 1).refined(4, PartitionMap::new(2, TileScheme::Hash, 6), 0);
        let f = chain.max_f();
        let (nx, ny) = (base.gx * f, base.gy * f);
        for iy in 0..ny {
            for ix in 0..nx {
                // Centre of the tile.
                let p = Point::new(
                    (ix as f64 + 0.5) / nx as f64,
                    (iy as f64 + 0.5) / ny as f64,
                );
                assert_eq!(
                    chain.contains_tile(ix, iy, f),
                    chain.contains_point(p),
                    "tile ({ix},{iy})"
                );
            }
        }
    }
}
