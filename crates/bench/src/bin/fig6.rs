//! Figure 6: fraction of PBSM's total runtime spent repartitioning (J5) as
//! a function of available memory.

use bench::{banner, cal_st, paper_mem, pbsm_cfg};
use pbsm::{pbsm_join, Dedup};
use storage::SimDisk;
use sweep::InternalAlgo;

fn main() {
    banner(
        "Figure 6",
        "fraction of PBSM total runtime spent repartitioning, J5",
        "~20% at very small memory, diminishing to ~0 as memory grows",
    );
    let cal = cal_st();
    println!(
        "{:<10} {:>5} | {:>12} {:>12} {:>12}",
        "paper-M MB", "P", "repart pairs", "repart s", "fraction %"
    );
    for mb in [2.5, 5.0, 10.0, 15.0, 25.0, 40.0, 60.0, 80.0] {
        let mem = paper_mem(mb);
        let disk = SimDisk::with_default_model();
        let cfg = pbsm_cfg(mem, InternalAlgo::PlaneSweepList, Dedup::ReferencePoint);
        let st = pbsm_join(&disk, cal, cal, &cfg, &mut |_, _| {});
        let repart_secs =
            st.clock.model.scaled_cpu(st.cpu_repart) + st.clock.model.seconds(&st.io_repart);
        println!(
            "{:<10} {:>5} | {:>12} {:>12.1} {:>12.1}",
            mb,
            st.partitions,
            st.repartitioned_pairs,
            repart_secs,
            100.0 * st.repart_fraction()
        );
    }
}
