//! What simulating costs on the host clock (PR 12): a join reads its run
//! clock when there is a deadline to hold it against, not once per partition.
//!
//! One test, alone in its binary: `parallel::thread_clock_reads` is a
//! process-wide counter, and tests of one binary run on parallel threads.

use spatialjoin::{Algorithm, SpatialJoin};

#[test]
fn a_run_without_a_deadline_reads_its_clocks_a_constant_number_of_times() {
    let r = datagen::sized(&datagen::la_rr_config(7), 0.05).generate();
    let s = datagen::sized(&datagen::la_st_config(7), 0.05).generate();
    let reads_of = |join: &SpatialJoin| {
        let before = parallel::thread_clock_reads();
        let (results, _) = join.count(&r, &s);
        (results, parallel::thread_clock_reads() - before)
    };

    let s3j = SpatialJoin::new(Algorithm::s3j_replicated(256 * 1024).with_threads(1));
    let (want, free) = reads_of(&s3j);
    // Start of the scan clock, the first delivered pair, the phase total.
    assert!(free <= 8, "{free} clock reads without a deadline");

    // A deadline nothing can reach makes every discovered partition read the
    // clock: the same run, thousands of reads — the partitions were there.
    let (got, charged) = reads_of(&s3j.clone().with_deadline(1e15));
    assert_eq!(got, want);
    assert!(charged >= 2_000, "only {charged} clock reads under a deadline");

    // The pooled scan reads per worker and per claimed chunk of the pair
    // list (16 chunks per thread), still not per partition.
    let pooled = SpatialJoin::new(Algorithm::s3j_replicated(256 * 1024).with_threads(2));
    let (got, free) = reads_of(&pooled);
    assert_eq!(got, want);
    assert!(free <= 200, "{free} clock reads in the pooled scan");

    // PBSM polls every 64 input records while partitioning and at every
    // partition of the join; without a deadline neither reads a clock.
    let pbsm = SpatialJoin::new(Algorithm::pbsm_rpm(256 * 1024).with_threads(1));
    let (got, free) = reads_of(&pbsm);
    assert_eq!(got, want);
    let (_, charged) = reads_of(&pbsm.clone().with_deadline(1e15));
    assert!(free <= 64 && charged > free, "{free} reads without, {charged} with a deadline");
}
