//! Figure 11 supplement: the clipping pathology at full strength.
//!
//! Our isotropic TIGER-like segments rarely straddle coarse grid lines, so
//! `fig11` shows a ~5x CPU gap where the paper reports an order of
//! magnitude. Real street data is different: it snaps to a grid. This
//! supplement uses the Manhattan generator with power-of-two blocks so
//! street segments sit exactly on quadtree cell boundaries — the original
//! covering-cell assignment then drops nearly all records into coarse
//! levels, and replication pays off by the paper's full margin.

use bench::{banner, scale};
use s3j::s3j_join;
use storage::SimDisk;

fn main() {
    banner(
        "Figure 11 (supplement)",
        "S3J original vs replicated on grid-aligned (Manhattan) data",
        "with the clipping pathology fully exposed, replication wins the \
         paper's order of magnitude on join CPU",
    );
    let n = (400_000.0 * scale()) as usize;
    let data = datagen::manhattan(n.max(1000), 32, 5);
    let mem = 20 << 20;
    println!(
        "{:<10} | {:>12} {:>12} {:>14} | {:>11} | records (incl. copies) in levels 0-5",
        "variant", "join cpu s", "total s", "tests", "repl rate"
    );
    for replicate in [false, true] {
        let disk = SimDisk::with_default_model();
        let cfg = s3j::S3jConfig {
            mem_bytes: mem,
            replicate,
            ..Default::default()
        };
        let st = s3j_join(&disk, &data, &data, &cfg, &mut |_, _| {});
        let coarse: u64 = st.histogram_r[0..6].iter().sum();
        println!(
            "{:<10} | {:>12.1} {:>12.1} {:>14} | {:>11.2} | {} of {}",
            if replicate { "replicated" } else { "original" },
            st.clock.model.scaled_cpu(st.cpu_join),
            st.total_seconds(),
            st.join_counters.tests,
            st.replication_rate(2 * data.len()),
            coarse,
            data.len()
        );
    }
}
