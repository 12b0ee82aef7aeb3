//! Multi-step join processing: filter step + exact-geometry refinement.
//!
//! "Which railways/rivers actually cross which streets?" — the MBR join is
//! only the *filter* step; candidates must be verified against the exact
//! line geometry ([BKSS 94]). Because the Reference Point Method keeps the
//! candidate stream duplicate-free, refinement runs online, pipelined with
//! the filter. This example also runs the ε-distance variant ("streets
//! within 50 m of a river") — the paper's future-work direction ([KS 98]).
//!
//! ```text
//! cargo run --release --example road_crossings
//! ```

use spatial_join_suite::{refine::SegmentIntersect, Algorithm, SpatialJoin};

fn main() {
    let roads = datagen::sized(&datagen::la_rr_config(5), 0.08).generate_dataset();
    let streets = datagen::sized(&datagen::la_st_config(5), 0.08).generate_dataset();
    let join = SpatialJoin::new(Algorithm::pbsm_rpm(512 * 1024));

    // --- Intersection join with refinement ---------------------------------
    let crossing = SegmentIntersect {
        r: &roads.segments,
        s: &streets.segments,
    };
    let run = join
        .try_run_refined(&roads.kpes, &streets.kpes, crossing)
        .expect("no fault plan is attached");
    println!(
        "{} railway/river segments x {} street segments",
        roads.len(),
        streets.len()
    );
    println!();
    println!("exact crossings        : {}", run.pairs.len());
    println!("filter candidates      : {}", run.refine.candidates);
    println!(
        "filter false positives : {} ({:.1}% of candidates)",
        run.refine.false_positives(),
        100.0 * run.refine.false_positive_rate()
    );
    println!(
        "filter simulated time  : {:.2}s (dups suppressed online: {})",
        run.filter.total_seconds(),
        run.filter.duplicates()
    );

    // --- ε-distance join ----------------------------------------------------
    // The unit square is the LA region, roughly 100 km across, so 50 m ≈ 5e-4.
    let eps = 5e-4;
    let near = join
        .try_within_distance(&roads, &streets, eps, None)
        .expect("no fault plan is attached");
    println!();
    println!(
        "street segments within ~50m of a railway/river: {} pairs",
        near.pairs.len()
    );
    println!(
        "(ε-filter candidates {}, false-positive rate {:.1}%)",
        near.refine.candidates,
        100.0 * near.refine.false_positive_rate()
    );
    assert!(near.pairs.len() >= run.pairs.len());
}
