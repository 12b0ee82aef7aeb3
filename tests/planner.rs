//! Planner verification: grid accuracy (the pick lands within 10 % of the
//! best measured variant), determinism, metamorphic invariance of the
//! dataset statistics under the conformance oracle's exact transforms, and
//! the `--plan explain` table snapshot.
//!
//! The grid runs under `cpu_slowdown = 0`, so "measured" means the simulated
//! I/O clock alone, like the first table of the `repro` experiment
//! `planner`. The priced-clock tests run on the default model, where CPU is
//! the run's counted work priced: bit-reproducible across hosts too.

use geom::Kpe;
use proptest::prelude::*;
use spatial_join_suite::estimate::{
    DatasetProfile, JointEstimate, PlanAlgo, PlanChoice, PlanMode, Planner,
};
use spatial_join_suite::{Algorithm, InternalAlgo, JoinStats, SpatialJoin};
use storage::DiskModel;

/// bench::SEED, replicated so the suite needs neither the bench crate nor
/// the `SJ_SCALE` environment variable.
const SEED: u64 = 2026;
const EPS: f64 = 1e-9;

fn model() -> DiskModel {
    DiskModel {
        cpu_slowdown: 0.0,
        ..Default::default()
    }
}

/// The paper's J-series at a given dataset scale: J1–J4 are
/// `LA_RR(p) ⋈ LA_ST(p)`, J5 is the `CAL_ST` self join.
fn inputs(join: u32, scale: f64) -> (Vec<Kpe>, Vec<Kpe>) {
    match join {
        5 => {
            let v = datagen::sized(&datagen::cal_st_config(SEED), scale).generate();
            (v.clone(), v)
        }
        p => {
            let r = datagen::sized(&datagen::la_rr_config(SEED), scale).generate();
            let s = datagen::sized(&datagen::la_st_config(SEED), scale).generate();
            (datagen::scale(&r, p as f64), datagen::scale(&s, p as f64))
        }
    }
}

/// At `cpu_slowdown = 0` the internal in-memory algorithm cannot move the
/// clock, so variants differing only in `internal` are one measurement.
fn io_signature(c: &PlanChoice) -> (PlanAlgo, u32, usize) {
    (c.algo, c.tiles_per_partition, c.buffer_pages)
}

/// `None` when the candidate refuses the configuration (the in-memory
/// quadtree with inputs over budget) — the planner predicts those at
/// infinite cost, so they can never be the pick.
fn measure(choice: &PlanChoice, r: &[Kpe], s: &[Kpe]) -> Option<f64> {
    SpatialJoin::new(Algorithm::from_choice(choice))
        .with_disk_model(model())
        .try_run_with(r, s, &mut |_, _| {})
        .ok()
        .map(|st| st.total_seconds())
}

/// The `planner.pick-within-10pct` claim, miniaturised: on every
/// J1–J5 × memory × scale cell the model's pick costs at most 110 % of the
/// best I/O-distinct variant's simulated total.
#[test]
fn pick_within_10pct_of_best_across_grid() {
    for scale in [0.005, 0.01] {
        for join in 1..=5u32 {
            let (r, s) = inputs(join, scale);
            let (pr, ps) = (DatasetProfile::build(&r), DatasetProfile::build(&s));
            for mem in [96 * 1024, 512 * 1024] {
                let plan = Planner::new(mem).with_disk_model(model()).plan(&pr, &ps);
                let mut measured: Vec<((PlanAlgo, u32, usize), f64)> = Vec::new();
                for cand in &plan.ranked {
                    let sig = io_signature(&cand.choice);
                    if measured.iter().any(|m| m.0 == sig) {
                        continue;
                    }
                    if let Some(secs) = measure(&cand.choice, &r, &s) {
                        measured.push((sig, secs));
                    }
                }
                let picked = measured
                    .iter()
                    .find(|m| m.0 == io_signature(&plan.chosen().choice))
                    .expect("chosen plan was measured")
                    .1;
                let best = measured.iter().map(|m| m.1).fold(f64::INFINITY, f64::min);
                assert!(
                    picked <= best * 1.10 + EPS,
                    "J{join} scale={scale} mem={mem}: picked {} at {picked:.4}s, best {best:.4}s",
                    plan.chosen().choice.describe()
                );
            }
        }
    }
}

/// J1, J4 and J5 at the memory of the `sjbench` workload of their shape:
/// `lowsel`'s inputs are twice its budget, `hisel`'s fit, `bigself`'s are
/// seven times it.
fn priced_cells() -> [(u32, Vec<Kpe>, Vec<Kpe>, usize); 3] {
    [(1, 0.5), (4, 4.0), (5, 1.0 / 7.0)].map(|(join, budget_per_input_byte)| {
        let (r, s) = inputs(join, 0.01);
        let bytes = ((r.len() + s.len()) * Kpe::ENCODED_SIZE) as f64;
        (join, r, s, (bytes * budget_per_input_byte) as usize)
    })
}

/// A candidate run on the default model (its counted work priced) on one
/// worker thread, the clock the planner predicts; `None` when it refuses
/// the configuration.
fn priced_run(choice: &PlanChoice, r: &[Kpe], s: &[Kpe]) -> Option<JoinStats> {
    let algo = Algorithm::from_choice(choice).with_threads(1);
    SpatialJoin::new(algo).try_run_with(r, s, &mut |_, _| {}).ok()
}

/// On the priced clock the pick costs at most 125 % of the best
/// candidate's total on every workload shape.
#[test]
fn priced_pick_within_25pct_of_best() {
    for (join, r, s, mem) in priced_cells() {
        let plan = Planner::new(mem).plan(&DatasetProfile::build(&r), &DatasetProfile::build(&s));
        let totals: Vec<(String, f64)> = plan
            .ranked
            .iter()
            .filter_map(|c| Some((c.choice.describe(), priced_run(&c.choice, &r, &s)?.total_seconds())))
            .collect();
        let best = totals.iter().min_by(|a, b| a.1.total_cmp(&b.1)).expect("a candidate ran");
        let picked = &totals[0];
        assert_eq!(picked.0, plan.chosen().choice.describe(), "J{join}: the pick ran");
        assert!(
            picked.1 <= best.1 * 1.25,
            "J{join} mem={mem}: picked {} at {:.3} s, best {} at {:.3} s",
            picked.0,
            picked.1,
            best.0,
            best.1
        );
    }
}

/// The algorithms the benchmark runs, as the planner names them.
const PRICED: [&str; 4] = ["pbsm", "pbsm-trie", "twolayer", "s3j"];

/// The CPU leg predicts the run's priced CPU within a factor of two for
/// every configuration of the benchmark's algorithms, and the records they
/// assign and the copies they write within 5 % where neither the run nor the
/// model repartitions. Repartitioned work inherits the I/O model's overflow
/// estimate, and S³J's copies its level-copy estimate (11 % over the counted
/// copies on J4 and J5); both are what the I/O leg predicts, so S³J's copies
/// are held to 12 %.
#[test]
fn predicted_work_matches_the_run() {
    let mut checked = 0;
    for (join, r, s, mem) in priced_cells() {
        let plan = Planner::new(mem).plan(&DatasetProfile::build(&r), &DatasetProfile::build(&s));
        for c in plan.ranked.iter().filter(|c| PRICED.contains(&c.choice.cli_name())) {
            let run = priced_run(&c.choice, &r, &s).expect("the benchmark's algorithms run");
            let (p, w) = (&c.predicted, run.work());
            let what = format!("J{join} {}", c.choice.describe());
            let ratio = p.cpu_seconds / run.scaled_cpu_seconds();
            assert!((0.5..=2.0).contains(&ratio), "{what}: cpu predicted {:.4} s, priced {:.4} s", p.cpu_seconds, run.scaled_cpu_seconds());
            let inputs = (r.len() + s.len()) as u64;
            let repartitioned = matches!(&run, JoinStats::Pbsm(st) if st.repartitioned_pairs > 0) || p.work.assigned > inputs;
            if repartitioned {
                continue;
            }
            let copies_tolerance = if c.choice.cli_name() == "s3j" { 0.12 } else { 0.05 };
            for (field, want, got, tolerance) in
                [("assigned", p.work.assigned, w.assigned, 0.05), ("copies", p.work.copies, w.copies, copies_tolerance)]
            {
                assert!(want.abs_diff(got) as f64 <= tolerance * got as f64, "{what}: {field} predicted {want}, counted {got}");
            }
            checked += 1;
        }
    }
    assert!(checked >= 30, "only {checked} configurations ran without repartitioning");
}

/// Every algorithm in the conformance matrix is represented in the
/// planner's ranked table, so `--plan auto` can in principle choose any of
/// them. (The gap this guards against: the in-memory quadtree shipped with
/// no cost predictor, so auto-planning silently never considered it.)
#[test]
fn every_conformance_algorithm_appears_in_the_ranked_table() {
    use conformance::AlgoId;
    let (r, s) = inputs(1, 0.01);
    let (pr, ps) = (DatasetProfile::build(&r), DatasetProfile::build(&s));
    let plan = Planner::new(8 << 20).with_disk_model(model()).plan(&pr, &ps);
    let ranked: Vec<&'static str> = plan.ranked.iter().map(|c| c.choice.cli_name()).collect();
    for algo in AlgoId::ALL {
        // The conformance ids name concrete RPM sweep structures; the
        // planner surfaces those through its pbsm candidates' `internal`.
        let want = match algo.name() {
            "pbsm-rpm-nested" | "pbsm-rpm-list" => "pbsm",
            "pbsm-rpm-trie" => "pbsm-trie",
            other => other,
        };
        assert!(
            ranked.contains(&want),
            "{} (planner name {want}) missing from the ranked table: {ranked:?}",
            algo.name()
        );
    }
}

/// Planning is a pure function of the profiles: repeated calls (and freshly
/// rebuilt profiles of regenerated data) render bit-identical tables, and
/// on a workload with a decisive winner the sampled-profile path agrees
/// across sampling seeds.
#[test]
fn plan_is_deterministic_across_runs_and_sample_seeds() {
    let (r, s) = inputs(2, 0.01);
    let mem = 96 * 1024;
    let table = |r: &[Kpe], s: &[Kpe]| {
        let (pr, ps) = (DatasetProfile::build(r), DatasetProfile::build(s));
        Planner::new(mem).with_disk_model(model()).plan(&pr, &ps).render_table()
    };
    let t1 = table(&r, &s);
    assert_eq!(t1, table(&r, &s), "same profiles, same table");
    let (r2, s2) = inputs(2, 0.01);
    assert_eq!(t1, table(&r2, &s2), "regenerated data, same table");

    // Sampled profiles: a huge budget makes the in-memory plan decisive, so
    // every sampling seed must agree on the choice.
    let planner = Planner::new(64 << 20).with_disk_model(model());
    let mut choices: Vec<String> = Vec::new();
    for seed in [1u64, 2, 3] {
        let pr = DatasetProfile::build_sampled(&r, r.len() / 2, seed);
        let ps = DatasetProfile::build_sampled(&s, s.len() / 2, seed);
        choices.push(planner.plan(&pr, &ps).chosen().choice.describe());
    }
    assert!(
        choices.windows(2).all(|w| w[0] == w[1]),
        "sample seeds disagreed: {choices:?}"
    );
}

/// `--plan explain` surface: the ranked table is stable for a seeded
/// J-series workload, carries the chosen marker on the top rank, and
/// unknown `--plan` values suggest the nearest valid mode.
#[test]
fn explain_table_snapshot_and_mode_suggestions() {
    let (r, s) = inputs(1, 0.01);
    let (pr, ps) = (DatasetProfile::build(&r), DatasetProfile::build(&s));
    let plan = Planner::new(96 * 1024).with_disk_model(model()).plan(&pr, &ps);
    let table = plan.render_table();
    let mut lines = table.lines();
    assert_eq!(
        lines.next().map(|l| l.split_whitespace().take(2).collect::<Vec<_>>()),
        Some(vec!["rank", "plan"]),
        "header row"
    );
    let first = lines.next().expect("at least one candidate");
    assert!(first.trim_start().starts_with('1'), "top rank first: {first}");
    assert!(first.ends_with("<- chosen"), "top rank carries the marker: {first}");
    assert!(
        first.contains(&plan.chosen().choice.describe()),
        "marker row shows the chosen plan"
    );
    assert_eq!(table.matches("<- chosen").count(), 1);
    // Ranked by predicted total: monotone non-decreasing.
    let totals: Vec<f64> = plan.ranked.iter().map(|c| c.predicted.total_seconds).collect();
    assert!(totals.windows(2).all(|w| w[0] <= w[1]), "ranking not sorted: {totals:?}");

    for (typo, want) in [("explian", "explain"), ("auot", "auto"), ("of", "off")] {
        let err = PlanMode::parse(typo).unwrap_err();
        assert!(err.contains(want), "{typo:?} should suggest {want:?}: {err}");
    }
}

// --- metamorphic invariance (the conformance oracle's exact transforms) ---

/// `x ↦ x/2 + d` per axis — exact on the adversarial generator's dyadic
/// lattice; mirrors the oracle's translate (skips on any exactness miss).
fn translated(data: &[Kpe], dx: f64, dy: f64) -> Option<Vec<Kpe>> {
    let map = |v: f64, d: f64| -> Option<f64> {
        let half = v * 0.5;
        let shifted = half + d;
        if !(0.0..=1.0).contains(&shifted) || shifted - d != half {
            return None;
        }
        Some(shifted)
    };
    data.iter()
        .map(|k| {
            Some(Kpe::new(
                k.id,
                geom::Rect::new(
                    map(k.rect.xl, dx)?,
                    map(k.rect.yl, dy)?,
                    map(k.rect.xh, dx)?,
                    map(k.rect.yh, dy)?,
                ),
            ))
        })
        .collect()
}

/// Exact power-of-two scaling about the origin (the oracle's scale).
fn scaled(data: &[Kpe], p: f64) -> Vec<Kpe> {
    data.iter()
        .map(|k| {
            Kpe::new(
                k.id,
                geom::Rect::new(k.rect.xl * p, k.rect.yl * p, k.rect.xh * p, k.rect.yh * p),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// Planner statistics are invariant under the conformance transforms:
    /// translate/scale leave each profile's fingerprint bit-identical, and
    /// swapping the inputs leaves the joint estimate and the symmetric
    /// algorithms' predictions bit-identical.
    #[test]
    fn planner_stats_invariant_under_conformance_transforms(
        seed in any::<u32>(),
        count in 40usize..100,
    ) {
        let (r, s) = datagen::Adversarial { count, seed: seed as u64 }.generate_pair();
        let lattice = (1u64 << 20) as f64;
        let dx = ((u64::from(seed).wrapping_mul(7).wrapping_add(3)) % (1 << 18)) as f64 / lattice;
        let dy = ((u64::from(seed).wrapping_mul(13).wrapping_add(5)) % (1 << 18)) as f64 / lattice;
        for data in [&r, &s] {
            let base = DatasetProfile::build(data).invariant_key();
            if let Some(t) = translated(data, dx, dy) {
                prop_assert_eq!(
                    &DatasetProfile::build(&t).invariant_key(),
                    &base,
                    "translate changed the profile"
                );
            }
            prop_assert_eq!(
                &DatasetProfile::build(&scaled(data, 0.5)).invariant_key(),
                &base,
                "scale changed the profile"
            );
        }

        let (pr, ps) = (DatasetProfile::build(&r), DatasetProfile::build(&s));
        let fwd = JointEstimate::build(&pr, &ps);
        let bwd = JointEstimate::build(&ps, &pr);
        prop_assert_eq!(fwd.results.to_bits(), bwd.results.to_bits());

        let mem = 96 * 1024;
        let planner = Planner::new(mem).with_disk_model(model());
        let choice = PlanChoice {
            algo: PlanAlgo::PbsmRpm,
            internal: InternalAlgo::PlaneSweepList,
            tiles_per_partition: 4,
            buffer_pages: 1,
            mem_bytes: mem,
        };
        let a = planner.predict(&choice, &pr, &ps, &fwd);
        let b = planner.predict(&choice, &ps, &pr, &bwd);
        prop_assert_eq!(a.candidates.to_bits(), b.candidates.to_bits());
        prop_assert_eq!(a.io_seconds.to_bits(), b.io_seconds.to_bits());
    }
}
