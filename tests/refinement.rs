//! Integration tests of the refinement step and the ε-distance join through
//! the public API, cross-validated against exact-geometry brute force.

use spatial_join_suite::refine::{RasterFilter, SegmentIntersect};
use spatial_join_suite::{sfc::Curve, Algorithm, SpatialJoin};

fn gen(seed: u64, n: usize) -> datagen::LineDataset {
    datagen::LineNetwork {
        count: n,
        coverage: 0.12,
        segments_per_line: 10,
        seed,
    }
    .generate_dataset()
}

fn exact<'a>(r: &'a datagen::LineDataset, s: &'a datagen::LineDataset) -> SegmentIntersect<'a> {
    SegmentIntersect {
        r: &r.segments,
        s: &s.segments,
    }
}

fn brute_exact(r: &datagen::LineDataset, s: &datagen::LineDataset) -> Vec<(u64, u64)> {
    let mut v = Vec::new();
    for (i, a) in r.segments.iter().enumerate() {
        for (j, b) in s.segments.iter().enumerate() {
            if a.intersects(b) {
                v.push((i as u64, j as u64));
            }
        }
    }
    v.sort_unstable();
    v
}

#[test]
fn refined_join_is_algorithm_independent() {
    let r = gen(1, 1200);
    let s = gen(2, 1200);
    let want = brute_exact(&r, &s);
    for algo in [
        Algorithm::pbsm_rpm(32 * 1024),
        Algorithm::pbsm_original(32 * 1024),
        Algorithm::s3j_replicated(32 * 1024),
        Algorithm::sssj(32 * 1024),
    ] {
        let name = algo.name();
        let run = SpatialJoin::new(algo)
            .try_run_refined(&r.kpes, &s.kpes, exact(&r, &s))
            .expect("fault-free run");
        let mut got: Vec<(u64, u64)> = run.pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
        got.sort_unstable();
        assert_eq!(got, want, "{name}");
        assert_eq!(run.refine.hits as usize, want.len(), "{name}");
        assert_eq!(run.refine.candidates, run.filter.results(), "{name}");
    }
}

#[test]
fn distance_join_matches_exact_brute_force() {
    let r = gen(3, 500);
    let s = gen(4, 500);
    let join = SpatialJoin::new(Algorithm::pbsm_rpm(32 * 1024));
    for eps in [0.0, 0.001, 0.01] {
        let run = join.try_within_distance(&r, &s, eps, None).expect("fault-free run");
        let mut got: Vec<(u64, u64)> = run.pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
        got.sort_unstable();
        let mut want = Vec::new();
        for (i, a) in r.segments.iter().enumerate() {
            for (j, b) in s.segments.iter().enumerate() {
                if a.distance_sq(b) <= eps * eps {
                    want.push((i as u64, j as u64));
                }
            }
        }
        want.sort_unstable();
        assert_eq!(got, want, "eps = {eps}");
    }
}

#[test]
fn distance_join_is_monotone_in_eps() {
    let r = gen(5, 800);
    let s = gen(6, 800);
    let join = SpatialJoin::new(Algorithm::pbsm_rpm(32 * 1024));
    let mut last = 0usize;
    for eps in [0.0, 0.0005, 0.002, 0.008] {
        let run = join.try_within_distance(&r, &s, eps, None).expect("fault-free run");
        assert!(
            run.pairs.len() >= last,
            "result count dropped when eps grew to {eps}"
        );
        last = run.pairs.len();
    }
}

#[test]
fn eps_zero_distance_join_equals_intersection_refinement() {
    let r = gen(7, 700);
    let s = gen(8, 700);
    let join = SpatialJoin::new(Algorithm::pbsm_rpm(32 * 1024));
    let d0 = join.try_within_distance(&r, &s, 0.0, None).expect("fault-free run");
    let crossing = join
        .try_run_refined(&r.kpes, &s.kpes, exact(&r, &s))
        .expect("fault-free run");
    let mut a: Vec<(u64, u64)> = d0.pairs.iter().map(|(x, y)| (x.0, y.0)).collect();
    let mut b: Vec<(u64, u64)> = crossing.pairs.iter().map(|(x, y)| (x.0, y.0)).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}

/// Metamorphic: the raster-interval pre-filter is invisible in the results
/// — the pair set, filter stats and candidate counts are bit-identical with
/// the filter on or off; only the raster counters move, and they must
/// account for a nonzero share of candidates on line data.
#[test]
fn raster_filter_is_metamorphic_no_op_for_intersection() {
    let r = gen(11, 1200);
    let s = gen(12, 1200);
    for algo in [Algorithm::pbsm_rpm(32 * 1024), Algorithm::two_layer(32 * 1024)] {
        let name = algo.name();
        let join = SpatialJoin::new(algo);
        let plain = join
            .try_run_refined(&r.kpes, &s.kpes, exact(&r, &s))
            .expect("fault-free run");
        for curve in [Curve::Peano, Curve::Hilbert] {
            let raster = RasterFilter::intersect(&r.segments, &s.segments, curve);
            let filtered = join
                .try_run_refined(&r.kpes, &s.kpes, raster)
                .expect("fault-free run");
            assert_eq!(filtered.pairs, plain.pairs, "{name} {curve:?}");
            assert_eq!(filtered.refine.candidates, plain.refine.candidates, "{name}");
            assert_eq!(filtered.refine.hits, plain.refine.hits, "{name}");
            assert_eq!(plain.refine.raster_rejects, 0, "no raster stage, no counters");
            assert!(
                filtered.refine.raster_rejects > 0,
                "{name} {curve:?}: raster stage never rejected a candidate"
            );
            assert!(filtered.refine.exact_tests() < filtered.refine.candidates);
        }
    }
}

/// The same transparency for the ε-distance join, where the ALL flag also
/// enables certain accepts.
#[test]
fn raster_filter_is_metamorphic_no_op_for_distance() {
    let r = gen(13, 700);
    let s = gen(14, 700);
    let join = SpatialJoin::new(Algorithm::pbsm_rpm(32 * 1024));
    for eps in [0.001, 0.02] {
        let plain = join.try_within_distance(&r, &s, eps, None).expect("fault-free run");
        let filtered = join
            .try_within_distance(&r, &s, eps, Some(Curve::Hilbert))
            .expect("fault-free run");
        assert_eq!(filtered.pairs, plain.pairs, "eps = {eps}");
        assert_eq!(filtered.refine.candidates, plain.refine.candidates);
        assert_eq!(filtered.refine.hits, plain.refine.hits);
        assert!(
            filtered.refine.raster_rejects + filtered.refine.raster_accepts > 0,
            "eps = {eps}: raster stage decided nothing"
        );
    }
}

#[test]
fn rtree_join_agrees_with_pbsm_filter() {
    let r = gen(9, 2000);
    let s = gen(10, 2000);
    let run = SpatialJoin::new(Algorithm::pbsm_rpm(32 * 1024)).run(&r.kpes, &s.kpes);
    let mut want: Vec<(u64, u64)> = run.pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
    want.sort_unstable();
    let tr = rtree::RTree::bulk(&r.kpes, 48);
    let ts = rtree::RTree::bulk(&s.kpes, 48);
    let mut got = Vec::new();
    rtree::rtree_join(&tr, &ts, &mut |a, b| got.push((a.id.0, b.id.0)));
    got.sort_unstable();
    assert_eq!(got, want);
}
