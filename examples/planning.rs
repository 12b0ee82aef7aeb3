//! Join planning from statistics: what a DBMS does when the join inputs are
//! intermediate results rather than base relations (paper §3.2.3).
//!
//! The planner never sees the full inputs — only sampled dataset profiles.
//! From those it estimates input cardinality, join selectivity and the PBSM
//! partition count, ranks every configuration it knows, then the best PBSM
//! one is run and the planner's guesses are compared with reality.
//!
//! ```text
//! cargo run --release --example planning
//! ```

use spatial_join_suite::estimate::{DatasetProfile, JointEstimate, PlanAlgo, Planner};
use spatial_join_suite::{Algorithm, JoinStats, SpatialJoin};

fn main() {
    let roads = datagen::sized(&datagen::la_rr_config(23), 0.1).generate();
    let streets = datagen::sized(&datagen::la_st_config(23), 0.1).generate();
    let mem = 512 * 1024;

    // The planner's view: 2% samples.
    let sample = (roads.len() / 50).max(64);
    let pr = DatasetProfile::build_sampled(&roads, sample, 1);
    let ps = DatasetProfile::build_sampled(&streets, sample, 2);

    let est_card = JointEstimate::build(&pr, &ps).results;
    let plan = Planner::new(mem).plan(&pr, &ps);
    let pbsm = plan
        .ranked
        .iter()
        .find(|c| c.choice.algo == PlanAlgo::PbsmRpm)
        .expect("PBSM with RPM is always a candidate");
    println!("planner (from {sample}-record samples):");
    println!("  estimated |R|, |S| : {:.0}, {:.0}", pr.cardinality, ps.cardinality);
    println!("  estimated |R ⋈ S|  : {est_card:.0}");
    println!("  best plan overall  : {}", plan.chosen().choice.describe());
    println!("  best PBSM plan     : {}", pbsm.choice.describe());
    println!("  recommended P      : {}", pbsm.predicted.partitions);
    println!("  occupancy R / S    : {:.2} / {:.2}", pr.occupancy, ps.occupancy);

    // Reality.
    let run = SpatialJoin::new(Algorithm::from_choice(&pbsm.choice)).run(&roads, &streets);
    let JoinStats::Pbsm(stats) = &run.stats else {
        unreachable!()
    };
    println!();
    println!("reality:");
    println!("  |R ⋈ S|            : {}", run.pairs.len());
    println!("  P actually used    : {}", stats.partitions);
    println!(
        "  estimate error     : {:.1}x",
        est_card / run.pairs.len().max(1) as f64
    );
    assert_eq!(pbsm.predicted.partitions, stats.partitions, "planner and executor must agree");
}
