//! Cost-model and I/O-accounting invariants: the analytical claims of the
//! paper (Table 3, Figure 3a) expressed as assertions over the simulated
//! disk counters.

use spatial_join_suite::{Algorithm, JoinStats, Kpe, SpatialJoin};

fn datasets() -> (Vec<Kpe>, Vec<Kpe>) {
    let r = datagen::sized(&datagen::la_rr_config(71), 0.02).generate();
    let s = datagen::sized(&datagen::la_st_config(71), 0.02).generate();
    (r, s)
}

/// Figure 3a: the sort-phase duplicate removal pays extra I/O proportional
/// to the candidate-set size; RPM pays none.
#[test]
fn rpm_strictly_cheaper_io_than_sort_phase() {
    let (r, s) = datasets();
    let mem = 64 * 1024;
    let (_, rpm) = SpatialJoin::new(Algorithm::pbsm_rpm(mem)).count(&r, &s);
    let (_, pd) = SpatialJoin::new(Algorithm::pbsm_original(mem)).count(&r, &s);
    let (JoinStats::Pbsm(rpm), JoinStats::Pbsm(pd)) = (&rpm, &pd) else {
        unreachable!()
    };
    // Identical filter work...
    assert_eq!(rpm.candidates, pd.candidates);
    assert_eq!(rpm.io_partition, pd.io_partition);
    // ...but only the sort phase touches the disk for dedup.
    assert_eq!(rpm.io_dedup.pages_written + rpm.io_dedup.pages_read, 0);
    assert!(pd.io_dedup.pages_written > 0);
    // Dedup I/O scales with the candidate set: at least one write+read pass.
    let cand_bytes = pd.candidates * 16;
    let ps = pd.clock.model.page_size as u64;
    assert!(pd.io_dedup.pages_written >= cand_bytes / ps);
    assert!(pd.io_dedup.pages_read >= cand_bytes / ps);
}

/// The larger the result set, the larger the sort phase's overhead — the
/// trend across J1→J4 in Figure 3a.
#[test]
fn dedup_io_grows_with_result_size() {
    let (r0, s0) = datasets();
    let mem = 64 * 1024;
    let mut last_overhead = 0u64;
    for p in [1.0, 2.0, 3.0] {
        let r = datagen::scale(&r0, p);
        let s = datagen::scale(&s0, p);
        let (_, st) = SpatialJoin::new(Algorithm::pbsm_original(mem)).count(&r, &s);
        let JoinStats::Pbsm(st) = &st else { unreachable!() };
        let overhead = st.io_dedup.pages_written + st.io_dedup.pages_read;
        assert!(
            overhead > last_overhead,
            "p={p}: dedup I/O {overhead} did not grow past {last_overhead}"
        );
        last_overhead = overhead;
    }
}

/// Table 3, PBSM row: partitioning writes the (replicated) input once;
/// the join phase reads it once.
#[test]
fn pbsm_io_passes_match_table3() {
    let (r, s) = datasets();
    let (_, st) = SpatialJoin::new(Algorithm::pbsm_rpm(64 * 1024)).count(&r, &s);
    let JoinStats::Pbsm(st) = &st else { unreachable!() };
    let ps = st.clock.model.page_size as u64;
    let copies_bytes = (st.copies_r + st.copies_s) * Kpe::ENCODED_SIZE as u64;
    // Partitioning phase: exactly the replicated data, written once.
    assert_eq!(st.io_partition.bytes_written, copies_bytes);
    assert_eq!(st.io_partition.bytes_read, 0);
    // Join phase: reads what was written (plus repartition traffic).
    let total_written = st.io_total().bytes_written;
    let total_read = st.io_total().bytes_read;
    assert!(total_read >= copies_bytes);
    assert!(total_read <= 2 * total_written, "unexpected re-reading");
    let _ = ps;
}

/// Table 3, S³J row: partitioning writes the level files once; sorting
/// reads and writes them at least once more; the join reads them once.
#[test]
fn s3j_io_passes_match_table3() {
    let (r, s) = datasets();
    let (_, st) = SpatialJoin::new(Algorithm::s3j_replicated(64 * 1024)).count(&r, &s);
    let JoinStats::S3j(st) = &st else { unreachable!() };
    let level_bytes = (st.copies_r + st.copies_s) * 48; // LevelRecord::SIZE
    assert_eq!(st.io_partition.bytes_written, level_bytes);
    assert!(st.io_sort.bytes_read >= level_bytes);
    assert!(st.io_sort.bytes_written >= level_bytes);
    assert!(st.io_join.bytes_read >= level_bytes);
    assert_eq!(st.io_join.bytes_written, 0);
}

/// More memory never increases the I/O volume (fewer runs, fewer merge
/// passes, fewer repartitions).
#[test]
fn io_monotone_in_memory() {
    let (r, s) = datasets();
    for make in [Algorithm::pbsm_rpm as fn(usize) -> Algorithm, Algorithm::s3j_replicated] {
        let mut last = u64::MAX;
        for mem in [16 * 1024, 128 * 1024, 1 << 20, 8 << 20] {
            let algo = make(mem);
            let name = algo.name();
            let (_, st) = SpatialJoin::new(algo).count(&r, &s);
            let io = st.io_total();
            let vol = io.pages_written + io.pages_read;
            assert!(
                vol <= last,
                "{name}: I/O volume {vol} grew when memory rose to {mem}"
            );
            last = vol;
        }
    }
}

/// The simulated-time identity: total = scaled CPU + io units × transfer.
#[test]
fn total_time_identity() {
    let (r, s) = datasets();
    let (_, st) = SpatialJoin::new(Algorithm::pbsm_rpm(64 * 1024)).count(&r, &s);
    let total = st.total_seconds();
    let recomputed = st.scaled_cpu_seconds() + st.io_seconds();
    assert!((total - recomputed).abs() < 1e-9);
    assert!(st.io_seconds() > 0.0);
    assert!(st.scaled_cpu_seconds() > st.cpu_seconds());
}

/// The planner's raw predictions stay within 25 % of the committed bench
/// corpus (the `regress` rows of `BENCH_pr30.json`) on candidates, pages and
/// I/O seconds, so silent model drift fails the suite instead of degrading
/// picks.
#[test]
fn planner_predictions_within_25pct_of_committed_corpus() {
    use spatial_join_suite::estimate::{DatasetProfile, JointEstimate, PlanAlgo, PlanChoice, Planner};
    use spatial_join_suite::InternalAlgo;
    use storage::{DiskModel, Json};

    const BOUND: f64 = 0.25;
    // The scale the corpus was recorded at.
    const CORPUS_SCALE: f64 = 0.2;
    // bench::SEED / bench::paper_mem, replicated so this test does not need
    // the bench crate or the SJ_SCALE environment variable.
    const SEED: u64 = 2026;
    let paper_mem =
        |mb: f64| -> usize { ((mb * 2.0 * 1024.0 * 1024.0) * CORPUS_SCALE).max(4096.0) as usize };

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let corpus = std::fs::read_to_string(root.join("BENCH_pr30.json")).expect("corpus");

    let mut rows = corpus
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("corpus line {l}: {e}")));
    let meta = rows.next().expect("corpus meta line");
    assert_eq!(
        meta.get("meta").and_then(|m| m.get("scale")).and_then(Json::as_f64),
        Some(CORPUS_SCALE),
        "corpus recorded at the expected scale"
    );

    let la_rr = datagen::sized(&datagen::la_rr_config(SEED), CORPUS_SCALE).generate();
    let la_st = datagen::sized(&datagen::la_st_config(SEED), CORPUS_SCALE).generate();
    let cal_st = datagen::sized(&datagen::cal_st_config(SEED), CORPUS_SCALE).generate();
    let inputs = |join: &str| -> (Vec<Kpe>, Vec<Kpe>) {
        match join {
            "J5" => (cal_st.clone(), cal_st.clone()),
            // bench::skew_inputs / bench::hisel_inputs, replicated at the
            // corpus scale.
            "SKEW" => {
                let n = ((40_000.0 * CORPUS_SCALE) as usize).max(500);
                (
                    datagen::clustered(n, 8, 0.004, SEED),
                    datagen::clustered(n, 8, 0.004, SEED + 1),
                )
            }
            "HISEL" => {
                let n = ((30_000.0 * CORPUS_SCALE) as usize).max(500);
                (
                    datagen::uniform(n, 0.008, SEED),
                    datagen::uniform(n, 0.008, SEED + 1),
                )
            }
            _ => {
                let p: f64 = join.strip_prefix('J').unwrap().parse().unwrap();
                (datagen::scale(&la_rr, p), datagen::scale(&la_st, p))
            }
        }
    };
    let model = DiskModel {
        cpu_slowdown: 0.0,
        ..Default::default()
    };

    let mut profiles: Vec<(String, DatasetProfile, DatasetProfile)> = Vec::new();
    let mut checked = 0usize;
    for row in rows {
        let text = |key: &str| row.get(key).and_then(Json::as_str);
        let count = |key: &str| row.get(key).and_then(Json::as_u64);
        // One row per (join, algo): meters are invariant across the
        // threads × channels grid the corpus also sweeps.
        if text("experiment") != Some("regress")
            || count("threads") != Some(1)
            || count("channels") != Some(1)
        {
            continue;
        }
        let join = text("join").expect("row join").to_owned();
        let algo = text("algo").expect("row algo");
        let mem = match join.as_str() {
            "J5" => paper_mem(8.0),
            "SKEW" | "HISEL" => paper_mem(0.5),
            _ => paper_mem(2.0),
        };
        let choice = PlanChoice {
            algo: match algo {
                "pbsm" => PlanAlgo::PbsmRpm,
                "s3j" => PlanAlgo::S3jReplicated,
                "twolayer" => PlanAlgo::TwoLayer,
                other => panic!("unexpected corpus algo {other:?}"),
            },
            internal: InternalAlgo::PlaneSweepList,
            tiles_per_partition: 4,
            buffer_pages: 1,
            mem_bytes: mem,
        };
        if !profiles.iter().any(|(j, _, _)| *j == join) {
            let (r, s) = inputs(&join);
            profiles.push((join.clone(), DatasetProfile::build(&r), DatasetProfile::build(&s)));
        }
        let (_, pr, ps) = profiles.iter().find(|(j, _, _)| *j == join).unwrap();
        let planner = Planner::new(mem).with_disk_model(model);
        let joint = JointEstimate::build(pr, ps);
        let p = planner.predict(&choice, pr, ps, &joint);

        let meas_u64 =
            |key: &str| -> f64 { count(key).unwrap_or_else(|| panic!("row lacks {key}: {row}")) as f64 };
        let rel = |predicted: f64, measured: f64| (predicted - measured).abs() / measured;
        let cand = meas_u64("candidates");
        let pages = meas_u64("pages_read") + meas_u64("pages_written");
        let secs = row.get("total_s").and_then(Json::as_f64).expect("total_s");
        assert!(
            rel(p.candidates, cand) <= BOUND,
            "{join}/{algo} candidates: predicted {:.0} vs measured {cand:.0}",
            p.candidates
        );
        assert!(
            rel(p.pages_read + p.pages_written, pages) <= BOUND,
            "{join}/{algo} pages: predicted {:.0} vs measured {pages:.0}",
            p.pages_read + p.pages_written
        );
        assert!(
            rel(p.io_seconds, secs) <= BOUND,
            "{join}/{algo} io seconds: predicted {:.3} vs measured {secs:.3}",
            p.io_seconds
        );
        checked += 1;
    }
    assert_eq!(
        checked, 14,
        "corpus holds 5 joins x 2 algorithms plus 2 workloads x 2 algorithms \
         at threads=1/channels=1"
    );
}

/// S³J replication reduces intersection tests (the CPU side of Figure 11)
/// on straddler-heavy (scaled) data.
#[test]
fn s3j_replication_cuts_cpu_work() {
    let (r0, s0) = datasets();
    let r = datagen::scale(&r0, 3.0);
    let s = datagen::scale(&s0, 3.0);
    let mem = 128 * 1024;
    let (_, orig) = SpatialJoin::new(Algorithm::s3j_original(mem)).count(&r, &s);
    let (_, repl) = SpatialJoin::new(Algorithm::s3j_replicated(mem)).count(&r, &s);
    let (JoinStats::S3j(orig), JoinStats::S3j(repl)) = (&orig, &repl) else {
        unreachable!()
    };
    assert!(
        repl.join_counters.tests * 2 < orig.join_counters.tests,
        "replication did not cut tests: {} vs {}",
        repl.join_counters.tests,
        orig.join_counters.tests
    );
}
