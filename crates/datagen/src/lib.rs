//! Deterministic TIGER-like synthetic spatial datasets.
//!
//! The paper's experiments use MBR sets derived from US Census TIGER line
//! data (Table 1): `LA_RR` (railways/rivers, 128,971 MBRs, coverage 0.22),
//! `LA_ST` (LA streets, 131,461 MBRs, coverage 0.03) and `CAL_ST` (all
//! California streets, 1,888,012 MBRs, coverage 0.12). Those files are not
//! redistributable here, so this crate *simulates* them: line networks are
//! drawn as random-walk polylines inside the unit square and decomposed into
//! per-segment MBRs — exactly how TIGER line records become MBRs. Segment
//! length is derived from the target coverage and then calibrated so the
//! generated file reproduces the paper's cardinality and coverage; polyline
//! clustering reproduces the spatial locality of road networks. All joins in
//! the paper are defined purely on MBR geometry, so matching count, coverage
//! and clustering preserves the behaviour every experiment depends on.
//!
//! Generation is fully deterministic in the seed.

use geom::{dataset_stats, Kpe, Point, Rect, RecordId, Segment};
use rand::prelude::*;

pub mod adversarial;
pub use adversarial::Adversarial;

/// A generated dataset with exact geometry: `segments[i]` is the line
/// segment whose MBR is `kpes[i].rect` (and `kpes[i].id.0 == i`). The
/// filter step consumes the KPEs; the refinement step (`refine` crate)
/// consumes the segments.
#[derive(Debug, Clone, PartialEq)]
pub struct LineDataset {
    pub kpes: Vec<Kpe>,
    pub segments: Vec<Segment>,
}

impl LineDataset {
    pub fn len(&self) -> usize {
        self.kpes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.kpes.is_empty()
    }
}

/// Configuration of a line-network dataset.
#[derive(Debug, Clone, Copy)]
pub struct LineNetwork {
    /// Number of segment MBRs to produce.
    pub count: usize,
    /// Target coverage (sum of areas / area of global MBR).
    pub coverage: f64,
    /// Segments per polyline; larger values give stronger clustering.
    pub segments_per_line: usize,
    /// RNG seed.
    pub seed: u64,
}

impl LineNetwork {
    /// Generates the dataset (MBRs only). Coverage is calibrated to within
    /// a few percent of the target by a post-pass that rescales every
    /// segment around its midpoint.
    pub fn generate(&self) -> Vec<Kpe> {
        self.generate_dataset().kpes
    }

    /// Generates the dataset together with its exact segment geometry.
    pub fn generate_dataset(&self) -> LineDataset {
        assert!(self.count > 0, "empty dataset requested");
        let mut rng = StdRng::seed_from_u64(self.seed);
        // E[|cos·sin|] = 1/π for uniform headings, so a step length of
        // sqrt(π·coverage/count) hits the target in expectation.
        let step = (std::f64::consts::PI * self.coverage / self.count as f64).sqrt();
        let mut data: Vec<Segment> = Vec::with_capacity(self.count);
        'outer: loop {
            // Start a new polyline.
            let mut x = rng.gen_range(0.0..1.0);
            let mut y = rng.gen_range(0.0..1.0);
            let mut heading = rng.gen_range(0.0..std::f64::consts::TAU);
            for _ in 0..self.segments_per_line.max(1) {
                // Perturb the heading: roads bend gently, with occasional
                // sharp turns at junctions.
                heading += if rng.gen_bool(0.15) {
                    rng.gen_range(-1.2..1.2)
                } else {
                    rng.gen_range(-0.25..0.25)
                };
                let len = step * rng.gen_range(0.5..1.5);
                let mut nx = x + len * heading.cos();
                let mut ny = y + len * heading.sin();
                // Reflect at the data-space boundary.
                if !(0.0..=1.0).contains(&nx) {
                    heading = std::f64::consts::PI - heading;
                    nx = nx.clamp(0.0, 1.0);
                }
                if !(0.0..=1.0).contains(&ny) {
                    heading = -heading;
                    ny = ny.clamp(0.0, 1.0);
                }
                data.push(Segment::new(Point::new(x, y), Point::new(nx, ny)));
                if data.len() == self.count {
                    break 'outer;
                }
                x = nx;
                y = ny;
            }
        }
        calibrate_coverage(&mut data, self.coverage);
        let kpes = data
            .iter()
            .enumerate()
            .map(|(i, seg)| Kpe::new(RecordId(i as u64), seg.mbr()))
            .collect();
        LineDataset {
            kpes,
            segments: data,
        }
    }
}

/// Rescales every segment around its midpoint so the dataset's MBR coverage
/// matches `target` (scaling a segment around its midpoint scales its MBR
/// around its centre by the same factor).
fn calibrate_coverage(data: &mut [Segment], target: f64) {
    let kpes: Vec<Kpe> = data
        .iter()
        .map(|s| Kpe::new(RecordId(0), s.mbr()))
        .collect();
    let stats = dataset_stats(&kpes).expect("non-empty");
    if stats.coverage <= 0.0 {
        return;
    }
    let factor = (target / stats.coverage).sqrt();
    for s in data.iter_mut() {
        *s = scale_segment(s, factor);
    }
}

/// Scales a segment around its midpoint.
fn scale_segment(s: &Segment, p: f64) -> Segment {
    let cx = (s.a.x + s.b.x) * 0.5;
    let cy = (s.a.y + s.b.y) * 0.5;
    Segment::new(
        Point::new(cx + (s.a.x - cx) * p, cy + (s.a.y - cy) * p),
        Point::new(cx + (s.b.x - cx) * p, cy + (s.b.y - cy) * p),
    )
}

/// The `(p)` scaling operator applied to a dataset with geometry: segments
/// stretch around their midpoints, MBRs follow.
pub fn scale_dataset(ds: &LineDataset, p: f64) -> LineDataset {
    let segments: Vec<Segment> = ds.segments.iter().map(|s| scale_segment(s, p)).collect();
    let kpes = segments
        .iter()
        .enumerate()
        .map(|(i, seg)| Kpe::new(RecordId(i as u64), seg.mbr()))
        .collect();
    LineDataset { kpes, segments }
}

/// The paper's `LA_RR`: railways and rivers of LA. 128,971 MBRs, coverage
/// 0.22, long meandering lines.
pub fn la_rr(seed: u64) -> Vec<Kpe> {
    la_rr_config(seed).generate()
}

/// The paper's `LA_ST`: streets of LA. 131,461 MBRs, coverage 0.03, short
/// street blocks.
pub fn la_st(seed: u64) -> Vec<Kpe> {
    la_st_config(seed).generate()
}

/// The paper's `CAL_ST`: all street lines of California. 1,888,012 MBRs,
/// coverage 0.12.
pub fn cal_st(seed: u64) -> Vec<Kpe> {
    cal_st_config(seed).generate()
}

/// Proportionally shrunk dataset with the same coverage and clustering —
/// used by unit tests and microbenches where the full cardinality would be
/// wasteful. `fraction` scales the cardinality.
pub fn sized(full: &LineNetwork, fraction: f64) -> LineNetwork {
    LineNetwork {
        count: ((full.count as f64 * fraction) as usize).max(16),
        ..*full
    }
}

/// Generator parameters matching [`la_rr`] / [`la_st`] / [`cal_st`].
pub fn la_rr_config(seed: u64) -> LineNetwork {
    LineNetwork {
        count: 128_971,
        coverage: 0.22,
        segments_per_line: 40,
        seed: seed ^ 0x11AA_22BB,
    }
}

pub fn la_st_config(seed: u64) -> LineNetwork {
    LineNetwork {
        count: 131_461,
        coverage: 0.03,
        segments_per_line: 12,
        seed: seed ^ 0x33CC_44DD,
    }
}

pub fn cal_st_config(seed: u64) -> LineNetwork {
    LineNetwork {
        count: 1_888_012,
        coverage: 0.12,
        segments_per_line: 15,
        seed: seed ^ 0x55EE_66FF,
    }
}

/// The dataset names [`named`] understands (`sjoin --left/--right`,
/// `sjoind`'s `register`).
pub const SOURCES: [&str; 5] = ["la_rr", "la_st", "cal_st", "uniform", "clustered"];

/// The dataset a CLI/wire source name stands for. The paper's datasets scale
/// their full configuration by `scale`; the synthetic networks size by
/// `scale` directly (50,000 lines at 1.0).
pub fn named(source: &str, scale: f64, seed: u64) -> Result<LineDataset, String> {
    let network = match source {
        "la_rr" => sized(&la_rr_config(seed), scale),
        "la_st" => sized(&la_st_config(seed), scale),
        "cal_st" => sized(&cal_st_config(seed), scale),
        "uniform" | "clustered" => LineNetwork {
            count: (50_000_f64 * scale).max(16.0) as usize,
            coverage: 0.1,
            segments_per_line: if source == "clustered" { 60 } else { 2 },
            seed,
        },
        other => {
            return Err(format!(
                "unknown source {other:?} (expected one of {})",
                SOURCES.join("|")
            ))
        }
    };
    Ok(network.generate_dataset())
}

/// The paper's `(p)` scaling operator: grows both edges of every MBR by the
/// factor `p` (coverage grows by `p²`). Used for `LA_RR(p)` / `LA_ST(p)` and
/// joins J2–J4 and Figure 13.
pub fn scale(data: &[Kpe], p: f64) -> Vec<Kpe> {
    data.iter()
        .map(|k| Kpe::new(k.id, k.rect.scaled(p)))
        .collect()
}

/// Uniformly distributed rectangles — the unclustered control workload.
pub fn uniform(count: usize, max_edge: f64, seed: u64) -> Vec<Kpe> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let x = rng.gen_range(0.0..1.0);
            let y = rng.gen_range(0.0..1.0);
            let w = rng.gen_range(0.0..max_edge);
            let h = rng.gen_range(0.0..max_edge);
            Kpe::new(
                RecordId(i as u64),
                Rect::new(x, y, (x + w).min(1.0), (y + h).min(1.0)),
            )
        })
        .collect()
}

/// Manhattan-style street grid: axis-parallel block edges with jitter.
/// Real street data is far more axis-aligned than isotropic random walks —
/// perpendicular crossings dominate, raising join selectivity at equal
/// coverage. Useful as a contrast workload to [`LineNetwork`].
pub fn manhattan(count: usize, blocks: u32, seed: u64) -> Vec<Kpe> {
    let mut rng = StdRng::seed_from_u64(seed);
    let blocks = blocks.max(2);
    let step = 1.0 / blocks as f64;
    (0..count)
        .map(|i| {
            // Alternate horizontal / vertical street segments snapped to the
            // block grid, with a little jitter so nothing is degenerate.
            let horizontal = i % 2 == 0;
            let a = rng.gen_range(0..blocks) as f64 * step;
            let b = rng.gen_range(0..blocks) as f64 * step;
            let mut jitter = || rng.gen_range(-0.1 * step..0.1 * step);
            let (xl, yl, xh, yh) = if horizontal {
                let y = b + jitter();
                (a, y, (a + step).min(1.0), y + 0.02 * step)
            } else {
                let x = b + jitter();
                (x, a, x + 0.02 * step, (a + step).min(1.0))
            };
            Kpe::new(
                RecordId(i as u64),
                Rect::new(
                    xl.clamp(0.0, 1.0),
                    yl.clamp(0.0, 1.0),
                    xh.clamp(0.0, 1.0),
                    yh.clamp(0.0, 1.0),
                ),
            )
        })
        .collect()
}

/// Artificial, highly skewed data: all rectangles hug the main diagonal
/// (within `spread` of it). The classic workload on which sweeping-based
/// joins shine and grid partitioning suffers — the paper's §1 remark that
/// "only for artificial, highly skewed datasets SSSJ is generally
/// superior".
pub fn diagonal(count: usize, spread: f64, max_edge: f64, seed: u64) -> Vec<Kpe> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let t = rng.gen_range(0.0..1.0);
            let dx: f64 = rng.gen_range(-spread..spread);
            let dy: f64 = rng.gen_range(-spread..spread);
            let x = (t + dx).clamp(0.0, 1.0);
            let y = (t + dy).clamp(0.0, 1.0);
            let w = rng.gen_range(0.0..max_edge);
            let h = rng.gen_range(0.0..max_edge);
            Kpe::new(
                RecordId(i as u64),
                Rect::new(x, y, (x + w).min(1.0), (y + h).min(1.0)),
            )
        })
        .collect()
}

/// Heavily skewed rectangles: `clusters` Gaussian-ish hotspots — the
/// adversarial workload for grid partitioning.
pub fn clustered(count: usize, clusters: usize, max_edge: f64, seed: u64) -> Vec<Kpe> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<(f64, f64)> = (0..clusters.max(1))
        .map(|_| (rng.gen_range(0.1..0.9), rng.gen_range(0.1..0.9)))
        .collect();
    (0..count)
        .map(|i| {
            let (cx, cy) = centers[i % centers.len()];
            // Sum of uniforms ≈ normal; spread 0.05.
            let dx: f64 = (0..4).map(|_| rng.gen_range(-0.025..0.025)).sum();
            let dy: f64 = (0..4).map(|_| rng.gen_range(-0.025..0.025)).sum();
            let x = (cx + dx).clamp(0.0, 1.0);
            let y = (cy + dy).clamp(0.0, 1.0);
            let w = rng.gen_range(0.0..max_edge);
            let h = rng.gen_range(0.0..max_edge);
            Kpe::new(
                RecordId(i as u64),
                Rect::new(x, y, (x + w).min(1.0), (y + h).min(1.0)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = LineNetwork {
            count: 500,
            coverage: 0.1,
            segments_per_line: 10,
            seed: 42,
        };
        assert_eq!(cfg.generate(), cfg.generate());
        let other = LineNetwork { seed: 43, ..cfg };
        assert_ne!(cfg.generate(), other.generate());
    }

    #[test]
    fn coverage_is_calibrated() {
        for (count, cov) in [(2_000usize, 0.22), (3_000, 0.03), (5_000, 0.12)] {
            let data = LineNetwork {
                count,
                coverage: cov,
                segments_per_line: 20,
                seed: 7,
            }
            .generate();
            assert_eq!(data.len(), count);
            let stats = dataset_stats(&data).unwrap();
            assert!(
                (stats.coverage - cov).abs() / cov < 0.05,
                "coverage {} vs target {}",
                stats.coverage,
                cov
            );
        }
    }

    #[test]
    fn data_stays_in_unit_square_before_scaling() {
        let data = LineNetwork {
            count: 2_000,
            coverage: 0.05,
            segments_per_line: 30,
            seed: 9,
        }
        .generate();
        let b = dataset_stats(&data).unwrap().bounds;
        // Calibration may nudge edges slightly past the walk bounds.
        assert!(b.xl >= -0.05 && b.yl >= -0.05 && b.xh <= 1.05 && b.yh <= 1.05);
    }

    #[test]
    fn ids_are_sequential_and_unique() {
        let data = LineNetwork {
            count: 1_000,
            coverage: 0.1,
            segments_per_line: 5,
            seed: 3,
        }
        .generate();
        for (i, k) in data.iter().enumerate() {
            assert_eq!(k.id.0, i as u64);
        }
    }

    #[test]
    fn scale_multiplies_coverage_quadratically() {
        let data = LineNetwork {
            count: 2_000,
            coverage: 0.02,
            segments_per_line: 10,
            seed: 5,
        }
        .generate();
        let c1 = dataset_stats(&data).unwrap().coverage;
        let scaled = scale(&data, 3.0);
        let c3 = dataset_stats(&scaled).unwrap().coverage;
        // Bounds grow slightly, so allow tolerance around 9x.
        assert!((c3 / c1 - 9.0).abs() < 1.0, "ratio {}", c3 / c1);
    }

    #[test]
    fn sized_preserves_parameters() {
        let full = la_rr_config(1);
        let small = sized(&full, 0.01);
        assert_eq!(small.count, 1289);
        assert_eq!(small.coverage, full.coverage);
        let data = small.generate();
        let stats = dataset_stats(&data).unwrap();
        assert!((stats.coverage - 0.22).abs() < 0.03);
    }

    #[test]
    fn manhattan_is_axis_aligned_and_crossing_heavy() {
        let m = manhattan(2000, 20, 13);
        assert_eq!(m.len(), 2000);
        // Every segment is thin along exactly one axis.
        for k in &m {
            let thin_x = k.rect.width() < 0.005;
            let thin_y = k.rect.height() < 0.005;
            assert!(thin_x ^ thin_y, "segment must be axis-aligned: {:?}", k.rect);
        }
        // Selectivity beats an isotropic network of equal cardinality and
        // comparable coverage (perpendicular crossings dominate).
        let iso = LineNetwork {
            count: 2000,
            coverage: geom::dataset_stats(&m).unwrap().coverage,
            segments_per_line: 10,
            seed: 14,
        }
        .generate();
        let count_pairs = |data: &[Kpe]| {
            let mut n = 0u64;
            for (i, a) in data.iter().enumerate() {
                for b in &data[i + 1..] {
                    if a.rect.intersects(&b.rect) {
                        n += 1;
                    }
                }
            }
            n
        };
        assert!(count_pairs(&m) > count_pairs(&iso));
    }

    #[test]
    fn clustered_is_actually_clustered() {
        let c = clustered(2_000, 3, 0.01, 11);
        let u = uniform(2_000, 0.01, 11);
        // Compare mean nearest-centre spread via a crude 4x4 histogram: the
        // clustered set must concentrate mass in few cells.
        let occupancy = |data: &[Kpe]| {
            let mut h = [0usize; 16];
            for k in data {
                let cx = ((k.rect.xl * 4.0) as usize).min(3);
                let cy = ((k.rect.yl * 4.0) as usize).min(3);
                h[cy * 4 + cx] += 1;
            }
            let max = *h.iter().max().unwrap();
            max as f64 / data.len() as f64
        };
        assert!(occupancy(&c) > 2.0 * occupancy(&u));
    }
}
