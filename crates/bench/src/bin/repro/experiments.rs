//! The experiments: each paper figure, table, ablation and extension, the
//! regression grid, the planner evaluation and the scaling sweep is one
//! function that runs its joins and returns its rows.

use bench::{cal_st, hisel_inputs, join_inputs, la_rr, la_st, paper_mem, pbsm_cfg, rounded, s3j_cfg, scale, skew_inputs};
use geom::{dataset_stats, Kpe};
use pbsm::{pbsm_join, Dedup::{self, ReferencePoint as RP}, PbsmConfig, PbsmStats, TileScheme};
use s3j::{s3j_join, LevelRecord, S3jConfig, S3jStats, ScanMode};
use sfc::Curve;
use spatialjoin::estimate::{DatasetProfile, PlanAlgo, PlanChoice, Planner};
use spatialjoin::{Algorithm, JoinStats, SpatialJoin};
use sssj::{sssj_join, SssjConfig, SssjStats};
use storage::{DiskModel, FixedRecord, IoStats, SimDisk, Work};
use sweep::InternalAlgo::{self, NestedLoops as NESTED, PlaneSweepList as LIST, PlaneSweepTrie as TRIE};

use crate::table::{row, Table};

/// `repro <id>` prints `title`, the paper's `expectation` and the tables `run` returns.
pub struct Experiment {
    pub id: &'static str,
    pub title: &'static str,
    pub expectation: &'static str,
    pub run: fn() -> Vec<Table>,
}

/// The paper's memory axis (its megabytes; see [`paper_mem`]).
const MEMS: [f64; 8] = [2.5, 5.0, 10.0, 15.0, 25.0, 40.0, 60.0, 80.0];

/// PBSM on a fresh default disk, pairs discarded.
fn pbsm(r: &[Kpe], s: &[Kpe], cfg: PbsmConfig) -> PbsmStats {
    pbsm_join(&SimDisk::with_default_model(), r, s, &cfg, &mut |_, _| {})
}

/// S³J on a fresh default disk, pairs discarded.
fn s3j(r: &[Kpe], s: &[Kpe], cfg: S3jConfig) -> S3jStats {
    s3j_join(&SimDisk::with_default_model(), r, s, &cfg, &mut |_, _| {})
}

/// SSSJ on a fresh default disk, pairs discarded.
fn sssj(r: &[Kpe], s: &[Kpe], mem: usize) -> SssjStats {
    let cfg = SssjConfig { mem_bytes: mem, ..Default::default() };
    sssj_join(&SimDisk::with_default_model(), r, s, &cfg, &mut |_, _| {})
}

/// Seconds `work` costs on the default model's emulated machine.
fn priced(work: &Work) -> f64 {
    DiskModel::default().priced_cpu(work)
}

/// Figure 3: PBSM duplicate removal — original sort phase (PD) vs the
/// Reference Point Method (RP), joins J1–J4 at the paper's M = 2.5 MB.
///
/// 3a: I/O cost, showing the sort phase's overhead on top of the shared
///     partition/join I/O, growing with the result size.
/// 3b: total runtime, PD vs RP.
fn fig3() -> Vec<Table> {
    let cols = "join, results, |base io u:0, PD dedup u:0, RP dedup u:0, |PD tot s:1, RP tot s:1";
    let rows = (1..=4).map(|p| {
        let ((r, s), mem) = (join_inputs(p), paper_mem(2.5));
        let pd = pbsm(&r, &s, pbsm_cfg(mem, LIST, Dedup::SortPhase));
        let rp = pbsm(&r, &s, pbsm_cfg(mem, LIST, RP));
        assert_eq!(pd.results, rp.results, "dedup strategies disagree");
        let units = |io: &IoStats| rp.clock.model.units(io);
        let base = units(&rp.io_partition.plus(&rp.io_repart).plus(&rp.io_join));
        let dedup = [units(&pd.io_dedup), units(&rp.io_dedup)];
        row![format!("J{p}"), rp.results, base, dedup[0], dedup[1], pd.total_seconds(), rp.total_seconds()]
    });
    vec![Table::new("", cols, rows)]
}

/// Figure 4: internal plane-sweep algorithms applied to whole joins in main
/// memory — list ([BKS 93]) vs interval trie (this paper), J1–J4 and J5.
///
/// Pure CPU experiment: no partitioning, the entire datasets are joined in
/// memory. Reported in emulated-machine seconds (the sweep's counted work,
/// priced).
fn fig4() -> Vec<Table> {
    let mut t = Table::new("", "join, results, |list s:1, trie s:1, ratio:2, |list tests, trie tests", []);
    let sweep = |algo: InternalAlgo, r: &[Kpe], s: &[Kpe]| {
        let (mut join, mut r, mut s) = (algo.create(), r.to_vec(), s.to_vec());
        join.join(&mut r, &mut s, &mut |_, _| {});
        let c = join.counters();
        (priced(&algo.work(&c)), c.results, c.tests)
    };
    let mut push = |label: String, r: &[Kpe], s: &[Kpe]| {
        let ((tl, nl, kl), (tt, nt, kt)) = (sweep(LIST, r, s), sweep(TRIE, r, s));
        assert_eq!(nl, nt);
        t.push(row![label, nl, tl, tt, tl / tt, kl, kt]);
    };
    for p in 1..=4 {
        let (r, s) = join_inputs(p);
        push(format!("J{p}"), &r, &s);
    }
    if scale() >= 0.05 {
        push("J5".into(), cal_st(), cal_st());
    } else {
        t.note = "(J5 skipped at this SJ_SCALE)".into();
    }
    vec![t]
}

/// Figure 5: PBSM total runtime on J5 as a function of available memory,
/// sweep-line status as a list vs as an interval trie.
fn fig5() -> Vec<Table> {
    let cols = "paper-M MB, P, |list tot s:1, trie tot s:1, |list cpu s:1, trie cpu s:1, \
                |list io s:1, trie io s:1";
    let rows = MEMS[1..].iter().map(|&mb| {
        let run = |internal| pbsm(cal_st(), cal_st(), pbsm_cfg(paper_mem(mb), internal, RP));
        let (l, t) = (run(LIST), run(TRIE));
        assert_eq!(l.results, t.results);
        let (tot, cpu) = ([l.total_seconds(), t.total_seconds()], [l.scaled_cpu_seconds(), t.scaled_cpu_seconds()]);
        row![mb, l.partitions, tot[0], tot[1], cpu[0], cpu[1], l.io_seconds(), t.io_seconds()]
    });
    vec![Table::new("", cols, rows)]
}

/// Figure 6: fraction of PBSM's total runtime spent repartitioning (J5) as
/// a function of available memory.
fn fig6() -> Vec<Table> {
    let rows = MEMS.map(|mb| {
        let st = pbsm(cal_st(), cal_st(), pbsm_cfg(paper_mem(mb), LIST, RP));
        let repart_secs = st.clock.model.at(&st.work_repart, &st.io_repart);
        row![mb, st.partitions, st.repartitioned_pairs, repart_secs, 100.0 * st.repart_fraction()]
    });
    vec![Table::new("", "paper-M MB, P, |repart pairs, repart s:1, fraction %:1", rows)]
}

/// Figure 11: S³J original vs S³J with replication on J5 — CPU time (left)
/// and total runtime (right) as functions of available memory.
fn fig11() -> Vec<Table> {
    let cols = "paper-M MB, |orig cpu s:1, repl cpu s:1, cpu ratio:1, |orig tot s:1, repl tot s:1, \
                tot ratio:1, |orig tests, repl tests";
    let rows = MEMS[1..].iter().map(|&mb| {
        let run = |replicate| s3j(cal_st(), cal_st(), s3j_cfg(paper_mem(mb), replicate));
        let (orig, repl) = (run(false), run(true));
        assert_eq!(orig.results, repl.results);
        let cpu = [orig.scaled_cpu_seconds(), repl.scaled_cpu_seconds()];
        let tot = [orig.total_seconds(), repl.total_seconds()];
        let tests = [orig.join_counters.tests, repl.join_counters.tests];
        row![mb, cpu[0], cpu[1], cpu[0] / cpu[1], tot[0], tot[1], tot[0] / tot[1], tests[0], tests[1]]
    });
    vec![Table::new("", cols, rows)]
}

/// Figure 11 supplement: the clipping pathology at full strength.
///
/// Our isotropic TIGER-like segments rarely straddle coarse grid lines, so
/// `fig11` shows a ~5x CPU gap where the paper reports an order of
/// magnitude. Real street data is different: it snaps to a grid. This
/// supplement uses the Manhattan generator with power-of-two blocks so
/// street segments sit exactly on quadtree cell boundaries — the original
/// covering-cell assignment then drops nearly all records into coarse
/// levels, and replication pays off by the paper's full margin.
fn fig11m() -> Vec<Table> {
    let cols = "variant, |join cpu s:1, total s:1, tests, |repl rate:2, |copies in levels 0-5, of records";
    let data = datagen::manhattan(((400_000.0 * scale()) as usize).max(1000), 32, 5);
    let rows = [("original", false), ("replicated", true)].map(|(variant, replicate)| {
        let st = s3j(&data, &data, s3j_cfg(20 << 20, replicate));
        let (join_cpu, rate) = (st.clock.model.priced_cpu(&st.work_join), st.replication_rate(2 * data.len()));
        let coarse: u64 = st.histogram_r[0..6].iter().sum();
        row![variant, join_cpu, st.total_seconds(), st.join_counters.tests, rate, coarse, data.len()]
    });
    vec![Table::new("", cols, rows)]
}

/// Figure 12: the internal join algorithm for S³J's tiny partitions —
/// nested loops vs list plane sweep (and the trie, which the paper dropped
/// from the plot for being far worse).
fn fig12() -> Vec<Table> {
    let cols = "paper-M MB, |nested s:1, sweep s:1, trie s:1, |nested tests, sweep tests, trie tests";
    let rows = MEMS[1..].iter().map(|&mb| {
        let run = |internal| s3j(cal_st(), cal_st(), S3jConfig { internal, ..s3j_cfg(paper_mem(mb), true) });
        let st = [NESTED, LIST, TRIE].map(run);
        assert!(st[0].results == st[1].results && st[0].results == st[2].results);
        let (tot, tests) = (st.each_ref().map(S3jStats::total_seconds), st.each_ref().map(|st| st.join_counters.tests));
        row![mb, tot[0], tot[1], tot[2], tests[0], tests[1], tests[2]]
    });
    vec![Table::new("", cols, rows)]
}

/// Figure 13: S³J vs PBSM(list) vs PBSM(trie) for `LA_RR(p) ⋈ LA_ST(p)`,
/// p = 1..10, at the paper's M = 2.5 MB. Coverage (and with it PBSM's
/// replication and everyone's result size) grows with p².
fn fig13() -> Vec<Table> {
    let cols = "p, results, PBSM-L res, PBSM-T res, |S3J tot s:1, PBSM-L tot:1, PBSM-T tot:1, |PBSM repl:2";
    let rows = (1..=10).map(|p| {
        let ((r, s), mem) = (join_inputs(p), paper_mem(2.5));
        let s3 = s3j(&r, &s, s3j_cfg(mem, true));
        let (list, trie) = (pbsm(&r, &s, pbsm_cfg(mem, LIST, RP)), pbsm(&r, &s, pbsm_cfg(mem, TRIE, RP)));
        let tot = [s3.total_seconds(), list.total_seconds(), trie.total_seconds()];
        let rate = list.replication_rate(r.len() + s.len());
        row![p, s3.results, list.results, trie.results, tot[0], tot[1], tot[2], rate]
    });
    vec![Table::new("", cols, rows)]
}

/// Figure 14: the headline comparison — S³J vs PBSM(list) vs PBSM(trie) on
/// J5 as a function of available memory.
fn fig14() -> Vec<Table> {
    let cols = "paper-M MB, |S3J tot s:1, PBSM-L tot:1, PBSM-T tot:1, |S3J tests, PBSM-L tests, PBSM-T tests";
    let rows = MEMS.map(|mb| {
        let mem = paper_mem(mb);
        let run = |internal| pbsm(cal_st(), cal_st(), pbsm_cfg(mem, internal, RP));
        let (s3, list, trie) = (s3j(cal_st(), cal_st(), s3j_cfg(mem, true)), run(LIST), run(TRIE));
        assert_eq!(s3.results, list.results);
        let tests = [s3.join_counters.tests, list.join_counters.tests, trie.join_counters.tests];
        row![mb, s3.total_seconds(), list.total_seconds(), trie.total_seconds(), tests[0], tests[1], tests[2]]
    });
    vec![Table::new("", cols, rows)]
}

/// Table 1: the datasets — cardinalities and coverage.
fn table1() -> Vec<Table> {
    let mut t = Table::new("", "dataset, MBRs, coverage:3, description", []);
    let mut push = |name: String, data: &[Kpe], desc: String| {
        let st = dataset_stats(data).expect("non-empty dataset");
        t.push(row![name, st.count, st.coverage, desc]);
    };
    push("LA_RR".into(), la_rr(), "railways and rivers, LA (synthetic equivalent)".into());
    push("LA_ST".into(), la_st(), "streets, LA (synthetic equivalent)".into());
    push("CAL_ST".into(), cal_st(), "streets, california (synthetic equivalent)".into());
    for p in [2.0, 3.0, 4.0] {
        for (name, data) in [("LA_RR", la_rr()), ("LA_ST", la_st())] {
            push(format!("{name}({p})"), &datagen::scale(data, p), format!("edges grown by {p}"));
        }
    }
    if scale() < 1.0 {
        t.note = format!("(cardinalities scaled by SJ_SCALE={}; coverage preserved)", scale());
    }
    vec![t]
}

/// Table 2: the joins J1–J5 — result counts and selectivity.
fn table2() -> Vec<Table> {
    let mut t = Table::new("", "join, R ⋈ S, results, selectivity", []);
    let mut push = |join: String, what: String, mb: f64, r: &[Kpe], s: &[Kpe]| {
        let (n, _) = SpatialJoin::new(Algorithm::pbsm_rpm(paper_mem(mb))).count(r, s);
        let sel = n as f64 / (r.len() as f64 * s.len() as f64);
        t.push(row![join, what, n, format!("{sel:.2e}")]);
    };
    for p in 1..=4 {
        let (r, s) = join_inputs(p);
        push(format!("J{p}"), format!("LA_RR({p}) ⋈ LA_ST({p})"), 16.0, &r, &s);
    }
    push("J5".into(), "CAL_ST ⋈ CAL_ST".into(), 40.0, cal_st(), cal_st());
    vec![t]
}

/// Table 3: minimum I/O passes per phase — measured passes over the data
/// for PBSM and S³J on J1 (a join whose level files / candidate sets fit in
/// memory only partially).
fn table3() -> Vec<Table> {
    let ((r, s), mem) = (join_inputs(1), paper_mem(2.5));
    let passes = |what: &str, bytes: u64, phases: [(&str, IoStats, String); 3]| {
        let heading = format!("{what}, {:.1} MB):", bytes as f64 / 1048576.0);
        let rows = phases.map(|(phase, io, detail)| {
            row![phase, io.bytes_written as f64 / bytes as f64, io.bytes_read as f64 / bytes as f64, detail]
        });
        Table::new(heading, "phase, write:2, read:2, detail", rows)
    };
    let p = pbsm(&r, &s, pbsm_cfg(mem, LIST, RP));
    let repart = format!("({} pairs repartitioned)", p.repartitioned_pairs);
    let q = s3j(&r, &s, s3j_cfg(mem, true));
    let sort = format!("({} runs, ≤{} merge passes)", q.sort_runs, q.sort_passes_max);
    vec![
        passes("PBSM (passes over its replicated input", (p.copies_r + p.copies_s) * Kpe::ENCODED_SIZE as u64, [
            ("partitioning", p.io_partition, String::new()),
            ("repartitioning", p.io_repart, repart),
            ("join", p.io_join, String::new()),
        ]),
        passes("S3J (passes over its level files", (q.copies_r + q.copies_s) * LevelRecord::SIZE as u64, [
            ("partitioning", q.io_partition, String::new()),
            ("sorting", q.io_sort, sort),
            ("join", q.io_join, String::new()),
        ]),
    ]
}

/// Ablations of the design choices DESIGN.md calls out, with deterministic
/// simulated-time numbers (complementing the wall-clock Criterion benches).
///
/// * PBSM safety factor `t` in formula (1) (§3.2.3),
/// * tiles per partition (`NT = P · k`),
/// * tile→partition assignment: hash vs round-robin (on clustered data),
/// * S³J size-separation level shift (replication rate vs test count),
/// * S³J locational-code curve: Peano vs Hilbert (§4.4.2),
/// * S³J heap-merge scan vs naive level-pair scan (§4.4.3).
fn ablations() -> Vec<Table> {
    let (r, s) = join_inputs(1);
    let (n, mem) = (r.len() + s.len(), paper_mem(2.5));
    let (pcfg, scfg) = (pbsm_cfg(mem, LIST, RP), s3j_cfg(mem, true));
    let (cr, cs) = (datagen::clustered(r.len(), 3, 0.001, 77), datagen::clustered(s.len(), 3, 0.001, 78));
    let heading = "PBSM safety factor t (formula (1)): avoids the '1.99 -> P=2' trap";
    let safety = Table::new(heading, "t, P, repart pairs, total s:1", [1.0, 1.1, 1.2, 1.5, 2.0].map(|t| {
        let st = pbsm(&r, &s, PbsmConfig { safety_factor: t, ..pcfg });
        row![t, st.partitions, st.repartitioned_pairs, st.total_seconds()]
    }));
    let heading = "PBSM tiles per partition (NT = P*k): replication vs balance";
    let tiles = Table::new(heading, "k, tiles, repl rate:3, total s:1", [1u32, 2, 4, 8, 16, 32].map(|k| {
        let st = pbsm(&r, &s, PbsmConfig { tiles_per_partition: k, ..pcfg });
        row![k, st.grid.gx as u64 * st.grid.gy as u64, st.replication_rate(n), st.total_seconds()]
    }));
    let heading = "PBSM tile->partition scheme on three tight clusters: which one repartitions";
    let schemes = [TileScheme::Hash, TileScheme::RoundRobin].map(|tile_scheme| {
        let st = pbsm(&cr, &cs, PbsmConfig { tile_scheme, ..pcfg });
        row![format!("{tile_scheme:?}"), st.repartitioned_pairs, st.repart_depth, st.total_seconds()]
    });
    let scheme = Table::new(heading, "scheme, repart pairs, max depth, total s:1", schemes);
    let heading = "S3J level shift: replication rate vs intersection tests";
    let shift = Table::new(heading, "shift, repl rate:3, tests, total s:1", [0u8, 1, 2, 3].map(|level_shift| {
        let st = s3j(&r, &s, S3jConfig { level_shift, ..scfg });
        row![level_shift as u32, st.replication_rate(n), st.join_counters.tests, st.total_seconds()]
    }));
    let heading = "S3J curve (§4.4.2): same I/O, same tests, only code cost differs";
    let curves = Table::new(heading, "curve, io units:0, tests, part cpu s:2", [Curve::Peano, Curve::Hilbert].map(|curve| {
        let st = s3j(&r, &s, S3jConfig { curve, ..scfg });
        let (io, part_cpu) = (st.clock.model.units(&st.io_total()), st.clock.model.priced_cpu(&st.work_partition));
        row![format!("{curve:?}"), io, st.join_counters.tests, part_cpu]
    }));
    let heading = "S3J scan mode (§4.4.3): heap merge vs naive level-pair scan";
    let scan = Table::new(heading, "mode, join io u:0, total s:1", [ScanMode::HeapMerge, ScanMode::LevelPairs].map(|scan| {
        let st = s3j(&r, &s, S3jConfig { scan, ..scfg });
        row![format!("{scan:?}"), st.clock.model.units(&st.io_join), st.total_seconds()]
    }));
    vec![safety, tiles, scheme, shift, curves, scan]
}

/// Extension experiment: the no-index algorithms in context.
///
/// The paper's related work sorts join methods by index availability. This
/// runs J1 across the classes: the synchronized R-tree join ([BKS 93],
/// indices pre-exist, are free and sit in memory — no I/O is charged to it),
/// SSSJ ([APR+ 98]), SHJ and the improved PBSM/S³J of the paper. R-tree
/// *construction* CPU is reported separately — the no-index algorithms do
/// not pay it. Both R-tree rows are priced from counted work: STR sorts
/// every level twice (by x-centre, then each slice by y-centre), and the
/// synchronized traversal counts its node visits and tests.
fn ext_baselines() -> Vec<Table> {
    let ((r, s), mem) = (join_inputs(1), paper_mem(2.5));
    let mut t = Table::new("", "method, results, total s:1", []);
    let fanout = rtree::DEFAULT_FANOUT;
    // Entries STR sorts while packing `n` records: each level twice.
    let levels = |n: usize| std::iter::successors(Some(n), |&n| (n > fanout).then(|| n.div_ceil(fanout)));
    let str_sorted = |n: usize| levels(n).map(|n| 2 * n as u64).sum::<u64>();
    let build_secs = priced(&Work { swept: str_sorted(r.len()) + str_sorted(s.len()), ..Work::default() });
    let (tr, ts) = (rtree::RTree::bulk(&r, fanout), rtree::RTree::bulk(&s, fanout));
    let mut n = 0u64;
    let join = rtree::rtree_join(&tr, &ts, &mut |_, _| n += 1);
    let work = Work { tests: join.tests, node_visits: join.node_visits, candidates: n, ..Work::default() };
    t.push(row!["R-tree join (in memory)", n, priced(&work)]);
    let st = pbsm(&r, &s, pbsm_cfg(mem, TRIE, RP));
    t.push(row!["PBSM (trie, RPM)", st.results, st.total_seconds()]);
    let st = s3j(&r, &s, s3j_cfg(mem, true));
    t.push(row!["S3J (replicated)", st.results, st.total_seconds()]);
    let st = sssj(&r, &s, mem);
    t.push(row!["SSSJ", st.results, st.total_seconds()]);
    let cfg = shj::ShjConfig { mem_bytes: mem, ..Default::default() };
    let st = shj::shj_join(&SimDisk::with_default_model(), &r, &s, &cfg, &mut |_, _| {});
    t.push(row!["SHJ (spatial hash join)", st.results, st.total_seconds()]);
    t.note = format!(
        "(STR bulk-building both R-trees costs {build_secs:.1}s of CPU alone — the price the no-index algorithms avoid)"
    );
    vec![t]
}

/// Extension experiment: the paper's §1 remark that SSSJ is "generally
/// superior" only "for artificial, highly skewed datasets", while on real
/// data it "performs similarly efficient" to PBSM.
///
/// Compares PBSM(list), PBSM(trie), S³J and SSSJ on (a) TIGER-like line
/// data and (b) an artificial diagonal dataset of the same cardinality.
fn ext_skew() -> Vec<Table> {
    let mem = paper_mem(2.5);
    let run_all = |label: &str, r: &[Kpe], s: &[Kpe]| {
        let (list, trie) = (pbsm(r, s, pbsm_cfg(mem, LIST, RP)), pbsm(r, s, pbsm_cfg(mem, TRIE, RP)));
        let (s3, sw) = (s3j(r, s, s3j_cfg(mem, true)), sssj(r, s, mem));
        let rows = [
            row!["PBSM(list)", list.results, list.scaled_cpu_seconds(), list.total_seconds()],
            row!["PBSM(trie)", trie.results, trie.scaled_cpu_seconds(), trie.total_seconds()],
            row!["S3J(repl)", s3.results, s3.scaled_cpu_seconds(), s3.total_seconds()],
            row!["SSSJ", sw.results, sw.scaled_cpu_seconds(), sw.total_seconds()],
        ];
        let heading = format!("{label}: {} x {} MBRs", r.len(), s.len());
        Table::new(heading, "method, results, cpu s:1, total s:1", rows)
    };
    let (r, s) = join_inputs(1);
    let (dr, ds) = (datagen::diagonal(r.len(), 0.002, 0.0015, 91), datagen::diagonal(s.len(), 0.002, 0.0015, 92));
    vec![run_all("TIGER-like (J1)", &r, &s), run_all("diagonal (skewed)", &dr, &ds)]
}

/// The regression grid's joins, the paper megabytes each runs at and the two
/// algorithms it compares. The budgets are tighter than the paper's usual
/// ones, so every run takes its external-partitioning path (an in-memory run
/// has all-zero I/O meters and guards nothing). SKEW (clustered) and HISEL
/// (high selectivity) are where the two-layer class scheme should beat
/// PBSM-RPM most.
const REGRESS: [(&str, f64, [PlanAlgo; 2]); 7] = {
    use PlanAlgo::{PbsmRpm as P, S3jReplicated as S, TwoLayer as T};
    let (j, big) = ([P, S], 2.0);
    [("J1", big, j), ("J2", big, j), ("J3", big, j), ("J4", big, j), ("J5", 8.0, j), ("SKEW", 0.5, [P, T]), ("HISEL", 0.5, [P, T])]
};

/// The planner candidate a regression run is: `algo` at its library defaults.
fn regress_choice(algo: PlanAlgo, mem_bytes: usize) -> PlanChoice {
    PlanChoice { algo, internal: LIST, tiles_per_partition: 4, buffer_pages: 1, mem_bytes }
}

/// The inputs of a regression or planner join.
fn inputs(join: &str) -> (Vec<Kpe>, Vec<Kpe>) {
    match join {
        "J5" => (cal_st().to_vec(), cal_st().to_vec()),
        "SKEW" => skew_inputs(),
        "HISEL" => hisel_inputs(),
        _ => join_inputs(join[1..].parse().expect("J1-J4")),
    }
}

/// The model of the regression grid and the planner evaluation: at
/// `cpu_slowdown = 0` a total is simulated I/O alone.
fn io_model(channels: usize) -> DiskModel {
    DiskModel { channels, cpu_slowdown: 0.0, ..Default::default() }
}

/// Regression grid (beyond the paper): [`REGRESS`] over channels {1, 4} ×
/// threads {1, 4} on [`io_model`]. Every run's metrics report must reconcile,
/// the per-channel leg included. `tests/cost_model.rs` holds the planner's
/// predictions to the threads = 1, channels = 1 rows.
fn regress() -> Vec<Table> {
    let cols = "join, algo, threads, channels, |results, duplicates, candidates, tests, |pages_read, pages_written, \
                |total_s:6, first_result_s:6";
    let mut t = Table::new("", cols, []);
    for (join, mb, algos) in REGRESS {
        let ((r, s), mem) = (inputs(join), paper_mem(mb));
        for algo in algos.map(|a| regress_choice(a, mem).cli_name()) {
            for (channels, threads) in [(1, 1), (1, 4), (4, 1), (4, 4)] {
                let base = Algorithm::from_name(algo, mem).expect("a regress algorithm");
                let (_, st) = SpatialJoin::new(base.with_threads(threads)).with_disk_model(io_model(channels)).count(&r, &s);
                if let Err(e) = st.metrics_report(algo, threads).reconcile() {
                    panic!("{join}/{algo} threads={threads} channels={channels}: reconciliation failed: {e}");
                }
                let (io, first) = (st.io_total(), st.first_result_seconds().unwrap_or(-1.0));
                t.push(row![join, algo, threads, channels, st.results(), st.duplicates(), st.candidates().unwrap_or(0),
                            st.tests(), io.pages_read, io.pages_written, rounded(st.total_seconds(), 6), rounded(first, 6)]);
            }
        }
    }
    vec![t]
}

/// Planner evaluation (beyond the paper): plans J1–J5 at the paper's 2 and
/// 8 MB and runs every candidate of the ranked plan once, on the default
/// model and one worker thread. The first table plans on [`io_model`] (where
/// the internal sweep cannot move the clock) and sets the pick's simulated
/// I/O beside the best I/O-distinct candidate's; the second plans on the
/// default model, where CPU is counted work priced, and sets the pick's
/// predicted and priced CPU and its total beside the best candidate's total.
fn planner() -> Vec<Table> {
    let same_io = |a: &PlanChoice, b: &PlanChoice| {
        (a.algo, a.tiles_per_partition, a.buffer_pages) == (b.algo, b.tiles_per_partition, b.buffer_pages)
    };
    let mut t = Table::new("", "join, paper_mb, |chosen, predicted_s:4, picked_s:4, |best, best_s:4, ok", []);
    let cols = "join, paper_mb, |chosen, predicted_cpu_s:4, priced_cpu_s:4, total_s:4, |best, best_s:4, ok";
    let mut priced = Table::new("the priced clock: every candidate's total on the default model", cols, []);
    for join in ["J1", "J2", "J3", "J4", "J5"] {
        let (r, s) = inputs(join);
        let (pr, ps) = (DatasetProfile::build(&r), DatasetProfile::build(&s));
        for paper_mb in [2.0, 8.0] {
            let planner = Planner::new(paper_mem(paper_mb));
            let priced_plan = planner.plan(&pr, &ps);
            let plan = planner.with_disk_model(io_model(1)).plan(&pr, &ps);
            // A candidate that refuses the budget (the in-memory quadtree over
            // it) is predicted at infinite cost, so it is never the pick. A
            // run's simulated I/O is its total on the I/O-only clock.
            let runs: Vec<(PlanChoice, JoinStats)> = priced_plan
                .ranked
                .iter()
                .filter_map(|c| {
                    let run = SpatialJoin::new(Algorithm::from_choice(&c.choice).with_threads(1));
                    Some((c.choice, run.try_run_with(&r, &s, &mut |_, _| {}).ok()?))
                })
                .collect();
            let run_of = |c: &PlanChoice| runs.iter().find(|run| run.0 == *c).map(|run| &run.1);
            let mut measured: Vec<(&PlanChoice, f64)> = Vec::new();
            for cand in plan.ranked.iter().map(|c| &c.choice) {
                if !measured.iter().any(|m| same_io(m.0, cand)) {
                    measured.extend(run_of(cand).map(|st| (cand, st.io_seconds())));
                }
            }
            let chosen = &plan.ranked[0];
            let picked = measured.iter().find(|m| same_io(m.0, &chosen.choice)).expect("the pick ran").1;
            let (best, best_s) = *measured.iter().min_by(|a, b| a.1.total_cmp(&b.1)).expect("a candidate ran");
            let ok = picked <= best_s * 1.1 + 1e-9;
            let predicted = rounded(chosen.predicted.total_seconds, 6);
            t.push(row![join, paper_mb, chosen.choice.describe(), predicted, rounded(picked, 6), best.describe(), rounded(best_s, 6), ok]);

            let chosen = &priced_plan.ranked[0];
            let picked = run_of(&chosen.choice).expect("the pick ran");
            let totals = runs.iter().map(|(c, st)| (c, st.total_seconds()));
            let (best, best_s) = totals.min_by(|a, b| a.1.total_cmp(&b.1)).expect("a candidate ran");
            let [predicted, cpu, total] =
                [chosen.predicted.cpu_seconds, picked.scaled_cpu_seconds(), picked.total_seconds()].map(|s| rounded(s, 6));
            let ok = picked.total_seconds() <= best_s * 1.25;
            priced.push(row![join, paper_mb, chosen.choice.describe(), predicted, cpu, total, best.describe(), rounded(best_s, 6), ok]);
        }
    }
    vec![t, priced]
}

/// Parallel scaling (beyond the paper): LA_RR ⋈ LA_ST at the paper's 0.5 MB
/// (enough partitions, ~13 at full scale, to keep eight workers busy), PBSM
/// at 1/2/4/8 threads and S³J (whose scan runs on one thread) × 1/4 channels.
/// Threads cut PBSM's priced join phase — the pool's claim rule replayed over
/// the units' counted work, what the phase costs on dedicated cores; channels
/// cut the simulated disk time.
fn scaling() -> Vec<Table> {
    let (r, s, mem) = (la_rr(), la_st(), paper_mem(0.5));
    let disk = |channels: usize| SimDisk::new(DiskModel { channels, ..Default::default() });
    // The join phase's priced CPU, the total and the results of one point.
    let point = |algo: &str, threads: usize, channels: usize| {
        if algo == "pbsm" {
            let st = pbsm_join(&disk(channels), r, s, &PbsmConfig { threads, ..pbsm_cfg(mem, LIST, RP) }, &mut |_, _| {});
            (st.clock.model.priced_cpu(&(st.work_join + st.work_repart)), st.total_seconds(), st.results)
        } else {
            let st = s3j_join(&disk(channels), r, s, &s3j_cfg(mem, true), &mut |_, _| {});
            (st.clock.model.priced_cpu(&st.work_join), st.total_seconds(), st.results)
        }
    };
    let heading = format!("LA_RR ({}) ⋈ LA_ST ({}), M = {mem} bytes", r.len(), s.len());
    let cols = "algo, threads, channels, |join_phase_s:4, join_phase_speedup:2, |total_model_s:2, total_model_speedup:2, \
                |results";
    let mut t = Table::new(heading, cols, []);
    for (algo, thread_points) in [("pbsm", &[1, 2, 4, 8][..]), ("s3j", &[1])] {
        let mut base = None;
        for channels in [1, 4] {
            for &threads in thread_points {
                let (join_s, total_s, results) = point(algo, threads, channels);
                let (join_1, total_1) = *base.get_or_insert((join_s, total_s));
                let speedups = [join_1 / join_s.max(1e-12), total_1 / total_s.max(1e-12)];
                t.push(row![algo, threads, channels, rounded(join_s, 4), rounded(speedups[0], 2), rounded(total_s, 2),
                            rounded(speedups[1], 2), results]);
            }
        }
    }
    t.note = "(join_phase_s: the join phase's priced CPU on the replayed pool; speedups against the algorithm's first row)".into();
    vec![t]
}

const fn exp(id: &'static str, title: &'static str, expectation: &'static str, run: fn() -> Vec<Table>) -> Experiment {
    Experiment { id, title, expectation, run }
}

/// Every experiment `repro` knows, in the order `repro` with no id runs them.
pub static EXPERIMENTS: [Experiment; 18] = [
    exp("table1", "Table 1: datasets used in the experiments",
        "LA_RR: 128,971 MBRs cov 0.22 | LA_ST: 131,461 cov 0.03 | LA_RR(p)/LA_ST(p): coverage × p² | \
         CAL_ST: 1,888,012 cov 0.12", table1),
    exp("table2", "Table 2: the spatial joins of the experiments",
        "J1: 85,854 results (sel 5.06e-6) … J4: 1,195,527 (7.05e-5); J5 (CAL_ST self join): 9,784,072 (2.74e-6)", table2),
    exp("table3", "Table 3: minimum I/O passes per phase (measured bytes / replicated input bytes)",
        "PBSM: write 1 (partitioning) + occasional repartitioning + read 1 (join). S3J: write 1 (partitioning) + \
         read+write ≥1 each (sorting) + read 1 (join)", table3),
    exp("fig3", "Figure 3: PBSM: sort-phase dedup (PD) vs Reference Point Method (RP), J1-J4, M=2.5MB",
        "RP avoids the dedup I/O entirely; the PD overhead grows with the result set (J1→J4); RP is considerably \
         faster overall", fig3),
    exp("fig4", "Figure 4: internal join algorithms on J1-J4 (and J5) entirely in main memory",
        "trie beats list on every join; the gap grows with selectivity (J1→J4); on J5 the trie is >3x faster \
         (236s vs 768s)", fig4),
    exp("fig5", "Figure 5: PBSM runtime on J5 vs available memory, list vs trie status",
        "below ~25MB (≈30% of input) the list is slightly faster; beyond, the trie wins and the list's runtime \
         *increases* with memory", fig5),
    exp("fig6", "Figure 6: fraction of PBSM total runtime spent repartitioning, J5",
        "~20% at very small memory, diminishing to ~0 as memory grows", fig6),
    exp("fig11", "Figure 11: S3J original vs replicated, CPU and total time, J5",
        "replication cuts CPU time by an order of magnitude and total runtime by a factor 2.5-4", fig11),
    exp("fig11m", "Figure 11 (supplement): S3J original vs replicated on grid-aligned (Manhattan) data",
        "with the clipping pathology fully exposed, replication cuts the intersection tests by the paper's order \
         of magnitude (what that buys on this host's CPU: see the claims)", fig11m),
    exp("fig12", "Figure 12: S3J (replicated) with different internal algorithms, J5",
        "plane sweep only slightly faster than nested loops (partitions are tiny); the trie's overhead makes it \
         far slower than both", fig12),
    exp("fig13", "Figure 13: S3J vs PBSM(list) vs PBSM(trie) on LA_RR(p) x LA_ST(p), M=2.5MB",
        "small p: both PBSM variants similar, S3J clearly slower; large p: S3J catches PBSM(list), PBSM(trie) \
         remains the clear winner", fig13),
    exp("fig14", "Figure 14: S3J vs PBSM(list) vs PBSM(trie) on J5 vs available memory",
        "S3J best at small memory, PBSM(list) best at medium, PBSM(trie) best at large; overall PBSM(trie) wins \
         by ~2x on average", fig14),
    exp("ablations", "Ablations: design-choice sweeps on J1 (and clustered data where noted)",
        "see DESIGN.md — these justify the defaults", ablations),
    exp("ext_baselines", "Extension: baselines: J1 across index classes: R-tree join vs PBSM/S3J/SSSJ/SHJ",
        "(§1, related work) index-based joins apply only where both indices exist. Shown: given both R-trees \
         built and in memory, with no I/O charged to it, the R-tree join is the fastest row; the note prices the \
         STR build the no-index algorithms skip", ext_baselines),
    exp("ext_skew", "Extension: skew: real-like vs artificial highly-skewed (diagonal) data",
        "(§1) on real data SSSJ performs similarly to PBSM; it is generally superior only on artificial, highly \
         skewed data — what the diagonal dataset shows here: see the claims", ext_skew),
    exp("regress", "Regression grid: J1-J5, SKEW and HISEL over channels {1,4} x threads {1,4}, I/O-only clock",
        "(beyond the paper) channels and threads move no meter; four channels are strictly faster than one; \
         two-layer beats PBSM-RPM on SKEW and HISEL once its tests are priced", regress),
    exp("planner", "Planner: the pick against every candidate run, J1-J5 x M = {2, 8} MB, I/O-only and priced clocks",
        "(beyond the paper) the planner's pick costs at most 110 % of the best candidate's measured I/O, and at most \
         125 % of the best total on the priced clock", planner),
    exp("scaling", "Scaling: LA_RR x LA_ST, M = 0.5 MB, PBSM at 1/2/4/8 threads and S3J, x 1/4 channels",
        "(beyond the paper) threads cut PBSM's priced join phase, channels cut the simulated total, the results \
         never move", scaling),
];
