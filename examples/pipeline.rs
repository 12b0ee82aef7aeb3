//! Pipelined query processing through an operator tree.
//!
//! The paper's §3.1 argument: a spatial join inside an operator tree must
//! not block. PBSM with the original sort-phase duplicate removal cannot
//! emit a single tuple before the whole candidate set is sorted; PBSM with
//! the Reference Point Method streams results as partition pairs are
//! joined. This example builds the plan
//!
//! ```text
//!   limit(10) <- spatial-join <- window-filter <- scan(LA_RR-like)
//!                            \<- scan(LA_ST-like)
//! ```
//!
//! and reports when the first tuple crosses the pipe for each configuration.
//!
//! ```text
//! cargo run --release --example pipeline
//! ```

use exec::{Collected, KpeScan, Operator, SpatialJoinOp, WindowFilter};
use spatial_join_suite::{Algorithm, Rect, SpatialJoin};

fn main() {
    let roads = datagen::sized(&datagen::la_rr_config(3), 0.1).generate();
    let streets = datagen::sized(&datagen::la_st_config(3), 0.1).generate();
    let mem = 256 * 1024;

    // ---- Simulated-time pipelining metric (deterministic) -----------------
    println!("simulated time to first result vs total (cost model):");
    println!(
        "{:<28} {:>14} {:>12}",
        "algorithm", "first tuple s", "total s"
    );
    for algo in [
        Algorithm::pbsm_original(mem),
        Algorithm::pbsm_rpm(mem),
        Algorithm::s3j_replicated(mem),
        Algorithm::sssj(mem),
    ] {
        let join = SpatialJoin::new(algo);
        let (_, stats) = join.count(&roads, &streets);
        println!(
            "{:<28} {:>14.4} {:>12.4}",
            join.algorithm().name(),
            stats.first_result_seconds().unwrap_or(f64::NAN),
            stats.total_seconds()
        );
    }
    println!();
    println!("note how the sort-phase variant produces its first tuple only at");
    println!("the very end, while the RPM variants pipeline.");
    println!();

    // ---- A real operator tree with a streaming join ------------------------
    let window = Rect::new(0.2, 0.2, 0.8, 0.8); // optimizer-pushed selection
    let mut plan = SpatialJoinOp::new(
        WindowFilter::new(KpeScan::new(roads.clone()), window),
        KpeScan::new(streets.clone()),
        SpatialJoin::new(Algorithm::pbsm_rpm(mem)),
    )
    .with_pipeline_depth(64);

    // LIMIT 10: a pipelined plan can stop early without doing all the work.
    plan.open();
    let mut first10 = Vec::new();
    while first10.len() < 10 {
        match plan.next() {
            Some(item) => first10.push(item.expect("join stream delivered an error")),
            None => break,
        }
    }
    plan.close();
    println!("LIMIT 10 through the streaming operator tree:");
    for (r, s) in &first10 {
        println!("  road #{} x street #{}", r.0, s.0);
    }
    println!();

    // Full drain with wall-clock pipelining metrics.
    let mut plan = SpatialJoinOp::new(
        WindowFilter::new(KpeScan::new(roads), window),
        KpeScan::new(streets),
        SpatialJoin::new(Algorithm::pbsm_rpm(mem)),
    );
    let collected = Collected::drain(&mut plan);
    println!(
        "full drain: {} tuples; first after {:.1} ms, done after {:.1} ms (wall clock)",
        collected.items.len(),
        collected.first_tuple_secs.unwrap_or(f64::NAN) * 1e3,
        collected.total_secs * 1e3
    );
}
