//! Pipelined query processing: a consumer the join pushes to.
//!
//! The paper's §3.1 argument: a spatial join inside an operator tree must
//! not block. PBSM with the original sort-phase duplicate removal cannot
//! emit a single tuple before the whole candidate set is sorted; PBSM with
//! the Reference Point Method streams results as partition pairs are
//! joined. This example runs the plan
//!
//! ```text
//!   limit(10) <- spatial-join <- window-filter <- scan(LA_RR-like)
//!                            \<- scan(LA_ST-like)
//! ```
//!
//! and reports when the first tuple crosses the pipe for each configuration.
//! The join hands each pair to a sink as it finds it, so the plan needs no
//! operator layer: the window filter is `Iterator::filter` over the scan,
//! and `LIMIT 10` is a sink that trips the join's [`CancelToken`] once it
//! holds ten pairs.
//!
//! ```text
//! cargo run --release --example pipeline
//! ```

use std::time::Instant;

use spatial_join_suite::{Algorithm, CancelToken, Kpe, Rect, SpatialJoin};

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

    // ---- The plan: a filtered scan, a streaming join, a LIMIT sink --------
    let window = Rect::new(0.2, 0.2, 0.8, 0.8); // optimizer-pushed selection
    let filtered: Vec<Kpe> = roads
        .iter()
        .filter(|k| k.rect.intersects(&window))
        .copied()
        .collect();

    // LIMIT 10: a pipelined plan can stop early without doing all the work.
    // The join stops at the next partition boundary after the trip; pairs it
    // finds until then are not wanted.
    let token = CancelToken::new();
    let limited = SpatialJoin::new(Algorithm::pbsm_rpm(mem)).with_cancel(token.clone());
    let mut first10 = Vec::new();
    let outcome = limited.try_run_with(&filtered, &streets, &mut |r, s| {
        if first10.len() < 10 {
            first10.push((r, s));
            if first10.len() == 10 {
                token.cancel();
            }
        }
    });
    println!("LIMIT 10 through the streaming join:");
    for (r, s) in &first10 {
        println!("  road #{} x street #{}", r.0, s.0);
    }
    match outcome {
        Ok(_) => println!("  (the join finished before the limit was met)"),
        Err(e) => println!("  stopped early: {e}"),
    }
    println!();

    // Full drain with wall-clock pipelining metrics.
    let join = SpatialJoin::new(Algorithm::pbsm_rpm(mem));
    let start = Instant::now();
    let mut first = None;
    let mut tuples = 0usize;
    join.run_with(&filtered, &streets, &mut |_, _| {
        first.get_or_insert_with(|| start.elapsed());
        tuples += 1;
    });
    let done = start.elapsed();
    println!(
        "full drain: {} tuples; first after {:.1} ms, done after {:.1} ms (wall clock)",
        tuples,
        first.map_or(f64::NAN, |d| d.as_secs_f64() * 1e3),
        done.as_secs_f64() * 1e3
    );
}
