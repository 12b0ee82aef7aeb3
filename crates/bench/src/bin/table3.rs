//! Table 3: minimum I/O passes per phase — measured passes over the data
//! for PBSM and S³J on J1 (a join whose level files / candidate sets fit in
//! memory only partially).

use bench::{banner, join_inputs, paper_mem, pbsm_cfg, s3j_cfg};
use geom::Kpe;
use pbsm::{pbsm_join, Dedup};
use s3j::{s3j_join, LevelRecord};
use storage::{FixedRecord, SimDisk};
use sweep::InternalAlgo;

fn main() {
    banner(
        "Table 3",
        "minimum I/O passes per phase (measured bytes / replicated input bytes)",
        "PBSM: write 1 (partitioning) + occasional repartitioning + read 1 \
         (join). S3J: write 1 (partitioning) + read+write ≥1 each (sorting) \
         + read 1 (join)",
    );
    let (r, s) = join_inputs(1);
    let mem = paper_mem(2.5);

    let disk = SimDisk::with_default_model();
    let p = pbsm_join(
        &disk,
        &r,
        &s,
        &pbsm_cfg(mem, InternalAlgo::PlaneSweepList, Dedup::ReferencePoint),
        &mut |_, _| {},
    );
    let pbsm_base = ((p.copies_r + p.copies_s) * Kpe::ENCODED_SIZE as u64) as f64;
    println!("PBSM (passes over its replicated input, {:.1} MB):", pbsm_base / 1048576.0);
    println!(
        "  partitioning   write {:.2}  read {:.2}",
        p.io_partition.bytes_written as f64 / pbsm_base,
        p.io_partition.bytes_read as f64 / pbsm_base
    );
    println!(
        "  repartitioning write {:.2}  read {:.2}   ({} pairs repartitioned)",
        p.io_repart.bytes_written as f64 / pbsm_base,
        p.io_repart.bytes_read as f64 / pbsm_base,
        p.repartitioned_pairs
    );
    println!(
        "  join           write {:.2}  read {:.2}",
        p.io_join.bytes_written as f64 / pbsm_base,
        p.io_join.bytes_read as f64 / pbsm_base
    );

    let disk = SimDisk::with_default_model();
    let q = s3j_join(&disk, &r, &s, &s3j_cfg(mem, true), &mut |_, _| {});
    let s3j_base = ((q.copies_r + q.copies_s) * LevelRecord::SIZE as u64) as f64;
    println!();
    println!("S3J (passes over its level files, {:.1} MB):", s3j_base / 1048576.0);
    println!(
        "  partitioning   write {:.2}  read {:.2}",
        q.io_partition.bytes_written as f64 / s3j_base,
        q.io_partition.bytes_read as f64 / s3j_base
    );
    println!(
        "  sorting        write {:.2}  read {:.2}   ({} runs, ≤{} merge passes)",
        q.io_sort.bytes_written as f64 / s3j_base,
        q.io_sort.bytes_read as f64 / s3j_base,
        q.sort_runs,
        q.sort_passes_max
    );
    println!(
        "  join           write {:.2}  read {:.2}",
        q.io_join.bytes_written as f64 / s3j_base,
        q.io_join.bytes_read as f64 / s3j_base
    );
}
