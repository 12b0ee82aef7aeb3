//! The per-layer table of a traced run. Phase metrics are read from the
//! spans the rounds recorded; every other layer is probed here, through its
//! public functions, on inputs derived from the workload — its own
//! relations, its PBSM grid, and a vertical strip holding an eighth of R for
//! the sweep kernels. Each probe is one span.

use std::hint::black_box;
use std::time::Instant;

use spatialjoin::estimate::{DatasetProfile, Planner};
use spatialjoin::pbsm::{PartitionMap, RegionChain};
use spatialjoin::storage::{external_sort_slice, MemoryArbiter, RecordReader, RecordWriter};
use spatialjoin::{
    reference_point, sfc, Algorithm, CrashPoint, DiskModel, FaultPlan, InternalAlgo, JoinStats,
    Kpe, Point, Recorder, Rect, RetryPolicy, SimDisk, SpatialJoin,
};

use crate::metrics::{Values, PER_LAYER};
use crate::run::{record_op, rounds_done, wall_ms, Env};
use crate::serve::{Conn, Service};
use crate::sink::PairSum;
use crate::stats::median;
use crate::trace::Trace;
use crate::workload::{self, Embedded, Sample, AUTO, DURABLE, OPS, PBSM, S3J, TWOLAYER};

/// Repeats of a probe whose single reading is too noisy to report.
const REPS: usize = 5;

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs `f` `reps` times, one span each; returns the last output and the
/// median seconds.
fn repeat<T>(trace: &mut Trace, name: &str, reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (out, s) = trace.probe(name, &mut f);
        secs.push(s);
        last = Some(out);
    }
    (last.expect("at least one repeat"), median(&secs))
}

/// One embedded join as a probe span, verified like any op.
fn checked(
    trace: &mut Trace,
    name: &str,
    engine: &Embedded,
    reference: PairSum,
    join: &SpatialJoin,
    durable: bool,
) -> Result<(f64, JoinStats), String> {
    let ((sample, stats), secs) = trace.probe(name, || {
        engine.run_join(PBSM, Instant::now(), join, durable)
    });
    match stats {
        Some(stats) if sample.got == reference => Ok((secs, stats)),
        _ => Err(format!(
            "probe {name} is wrong: {:?}, {:?} against reference {reference:?}",
            sample.error, sample.got
        )),
    }
}

fn median_ms(us: Vec<f64>) -> f64 {
    median(&us) / 1e3
}

/// R and S restricted to the vertical strip around R's median x that holds
/// an eighth of R (by centre) — big enough to time, small enough that the
/// quadratic kernel finishes.
fn strip(r: &[Kpe], s: &[Kpe]) -> (Vec<Kpe>, Vec<Kpe>) {
    let centre = |k: &Kpe| (k.rect.xl + k.rect.xh) * 0.5;
    let mut xs: Vec<f64> = r.iter().map(centre).collect();
    xs.sort_by(f64::total_cmp);
    let (lo, hi) = (xs[xs.len() * 7 / 16], xs[xs.len() * 9 / 16]);
    let inside = |k: &&Kpe| (lo..=hi).contains(&centre(k));
    (
        r.iter().filter(inside).copied().collect(),
        s.iter().filter(inside).copied().collect(),
    )
}

pub fn per_layer(env: &Env, samples: &[Sample], trace: &mut Trace) -> Result<Values, String> {
    let mut v = Values::default();
    let engine = &env.engine;
    let (r, s) = (&engine.inputs.r, &engine.inputs.s);
    let rects = engine.inputs.len() as f64;
    let (mem, threads) = (engine.mem_bytes, engine.threads);
    let model = DiskModel::default();

    // datagen
    let [(source, fraction), _] = env.kind.sources();
    let (made, secs) = repeat(trace, "datagen.generate", REPS, || {
        workload::generate(source, fraction * env.scale, env.seed)
    });
    v.set("datagen.ns_per_rect", secs * 1e9 / made.len() as f64);
    drop(made);

    // Phase clocks and self times, from the spans of the traced rounds.
    for (prefix, root) in [("pbsm.", "op.pbsm"), ("pbsm.twolayer_", "op.twolayer")] {
        for phase in ["partition", "repart", "join"] {
            let name = format!("{prefix}{phase}");
            v.set(&format!("{name}_ms"), median_ms(trace.durations_us(&name)));
        }
        v.set(
            &format!("{prefix}self_ms"),
            median_ms(trace.self_times_us(root)),
        );
    }
    // What RPM's pipelining buys: the first pair of a `pbsm` op leaves
    // while the join is still running.
    let first_pair: Vec<f64> = samples
        .iter()
        .filter(|s| s.op == PBSM)
        .filter_map(Sample::first_pair_ms)
        .collect();
    v.set("pbsm.first_pair_ms", median(&first_pair));
    for phase in ["partition", "sort", "join"] {
        let name = format!("s3j.{phase}");
        v.set(&format!("{name}_ms"), median_ms(trace.durations_us(&name)));
    }
    v.set("s3j.self_ms", median_ms(trace.self_times_us("op.s3j")));

    // The pbsm op in five variants — plain, with a recorder, durable, at one
    // and at two threads — interleaved so that drift hits all alike; the
    // first pass warms and is discarded.
    let pbsm_join = SpatialJoin::new(engine.algorithm(PBSM));
    let at_threads = |t| SpatialJoin::new(engine.algorithm(PBSM).with_threads(t));
    // (span, join, with a fresh recorder, durable)
    let variants = [
        ("core.pbsm", pbsm_join.clone(), false, false),
        ("core.pbsm_recorded", pbsm_join.clone(), true, false),
        ("core.durable", pbsm_join.clone(), false, true),
        ("parallel.pbsm_t1", at_threads(1), false, false),
        ("parallel.pbsm_t2", at_threads(2), false, false),
    ];
    let mut variant_s = vec![Vec::with_capacity(REPS); variants.len()];
    let mut variant_stats = vec![None; variants.len()];
    for pass in 0..=REPS {
        for (i, (name, join, recorded, durable)) in variants.iter().enumerate() {
            let mut join = join.clone();
            if *recorded {
                join = join.with_recorder(Recorder::shared());
            }
            let (secs, stats) = checked(trace, name, engine, env.reference, &join, *durable)?;
            if pass > 0 {
                variant_s[i].push(secs);
            }
            variant_stats[i] = Some(stats);
        }
    }
    let [pbsm_s, recorded_s, durable_s, t1_s, t2_s] =
        [0, 1, 2, 3, 4].map(|i| median(&variant_s[i]));
    let (Some(pbsm_stats @ JoinStats::Pbsm(pbsm)), Some(JoinStats::Pbsm(durable))) =
        (&variant_stats[0], &variant_stats[2])
    else {
        return Err("the pbsm op did not return PBSM statistics".into());
    };
    let io = pbsm.io_total();
    v.set(
        "pbsm.copies_per_rect",
        (pbsm.copies_r + pbsm.copies_s) as f64 / rects,
    );
    v.set(
        "pbsm.tests_per_result",
        ratio(pbsm.join_counters.tests as f64, pbsm.results as f64),
    );
    v.set(
        "pbsm.dup_per_result",
        ratio(pbsm.duplicates as f64, pbsm.results as f64),
    );
    v.set(
        "storage.pages_per_rect",
        (io.pages_read + io.pages_written) as f64 / rects,
    );
    v.set(
        "storage.requests_per_rect",
        (io.read_requests + io.write_requests) as f64 / rects,
    );
    v.set(
        "storage.recorder_overhead_pct",
        (recorded_s / pbsm_s - 1.0) * 100.0,
    );
    let report = pbsm_stats.metrics_report("pbsm", threads);
    let (reconciled, secs) = repeat(trace, "storage.reconcile", REPS, || {
        (0..1_000).all(|_| black_box(&report).reconcile().is_ok())
    });
    if !reconciled {
        return Err("the pbsm op's metrics report does not reconcile".into());
    }
    v.set("storage.reconcile_us", secs * 1e6 / 1_000.0);

    let twolayer = SpatialJoin::new(engine.algorithm(TWOLAYER));
    let (_, stats) = checked(
        trace,
        "core.twolayer",
        engine,
        env.reference,
        &twolayer,
        false,
    )?;
    v.set(
        "pbsm.twolayer_tests_per_result",
        ratio(stats.tests() as f64, stats.results() as f64),
    );
    let s3j = SpatialJoin::new(engine.algorithm(S3J));
    let (_, stats) = checked(trace, "core.s3j", engine, env.reference, &s3j, false)?;
    let JoinStats::S3j(s3) = &stats else {
        return Err("the s3j op did not return S3J statistics".into());
    };
    v.set(
        "s3j.copies_per_rect",
        (s3.copies_r + s3.copies_s) as f64 / rects,
    );
    v.set(
        "s3j.dup_per_result",
        ratio(s3.duplicates as f64, s3.results as f64),
    );

    // Durable commit cost: what a durable run adds over a plain one, less
    // the fingerprint it hashes up front, per checkpoint commit.
    let (fingerprint, fp_s) = repeat(trace, "core.fingerprint", REPS, || {
        pbsm_join.fingerprint(r, s)
    });
    v.set("core.fingerprint_ms", fp_s * 1e3);
    v.set(
        "storage.commit_us",
        ratio(
            (durable_s - pbsm_s - fp_s) * 1e6,
            durable.checkpoint_commits as f64,
        ),
    );

    // The snapshot the service caches: a durable run stopped after its
    // partition phase, exported and restored.
    let warm = SimDisk::new(model).with_faults(
        FaultPlan::crash_only(fingerprint, CrashPoint::MidPartition(0)),
        RetryPolicy::default(),
    );
    // Ends in the injected crash, or completes when there is one partition.
    let _ = pbsm_join.try_run_durable_with(&warm, r, s, fingerprint, &mut |_, _| {});
    let (bytes, export_s) = trace.probe("storage.export", || warm.export_files());
    let (restored, restore_s) = trace.probe("storage.restore", || {
        SimDisk::new(model).restore_files(&bytes)
    });
    restored.map_err(|e| format!("snapshot does not restore: {e}"))?;
    v.set("storage.snapshot_ms", (export_s + restore_s) * 1e3);

    v.set("parallel.speedup_t2", t1_s / t2_s);
    let (_, secs) = repeat(trace, "parallel.run_ordered", 21, || {
        parallel::run_ordered(
            2,
            1_024,
            |_| (),
            |_, i| i,
            |_, i: usize| {
                black_box(i);
            },
        )
    });
    v.set("parallel.task_us", secs * 1e6 / 1_024.0);

    // The baselines the planner may pick and set-up's reference uses.
    for (name, algo) in [("sssj", Algorithm::sssj(mem)), ("shj", Algorithm::shj(mem))] {
        let join = SpatialJoin::new(algo);
        let span = format!("{name}.join");
        let (secs, _) = checked(trace, &span, engine, env.reference, &join, false)?;
        v.set(&format!("{name}.join_ms"), secs * 1e3);
    }

    // estimate
    let (profiles, secs) = repeat(trace, "estimate.profile", REPS, || {
        (DatasetProfile::build(r), DatasetProfile::build(s))
    });
    v.set("estimate.profile_ms", secs * 1e3);
    let (_, secs) = repeat(trace, "estimate.plan", REPS, || {
        Planner::new(mem).plan(&profiles.0, &profiles.1)
    });
    v.set("estimate.plan_us", secs * 1e6);
    let op_ms = |op: usize| median(&wall_ms(samples, op));
    let best_fixed = (0..4).map(op_ms).fold(f64::INFINITY, f64::min);
    v.set(
        "estimate.regret_pct",
        (op_ms(AUTO) / best_fixed - 1.0) * 100.0,
    );

    sweep_probes(&mut v, trace, engine, pbsm)?;
    storage_probes(&mut v, trace, r, mem, model);
    service_probes(&mut v, trace, env)?;

    // The run itself.
    let sum_of_medians = |traced: bool| -> f64 {
        (0..OPS.len())
            .map(|op| {
                let ms: Vec<f64> = samples
                    .iter()
                    .filter(|s| s.op == op && s.traced == traced)
                    .map(Sample::wall_ms)
                    .collect();
                median(&ms)
            })
            .sum()
    };
    v.set(
        "bench.trace_overhead_pct",
        (sum_of_medians(true) / sum_of_medians(false) - 1.0) * 100.0,
    );
    v.set("bench.rounds", rounds_done(samples) as f64);
    let failed = samples.iter().filter(|s| env.failed(s)).count();
    v.set("bench.failed_share", failed as f64 / samples.len() as f64);
    for (op, name) in OPS.iter().enumerate() {
        v.set(&format!("sim.{name}_io_s"), env.sim_io_s[op]);
    }
    v.set("sim.io_s", env.sim_io_s.iter().sum());

    // Report in table order, and only with every row present.
    let mut ordered = Values::default();
    for (name, _, _) in PER_LAYER {
        match v.get(name) {
            Some(value) => ordered.set(name, value),
            None => return Err(format!("no probe measured {name}")),
        }
    }
    Ok(ordered)
}

/// `sweep`, `geom`, `sfc` and PBSM's tile assignment: the CPU kernels.
fn sweep_probes(
    v: &mut Values,
    trace: &mut Trace,
    engine: &Embedded,
    pbsm: &spatialjoin::pbsm::PbsmStats,
) -> Result<(), String> {
    let (r, s) = (&engine.inputs.r, &engine.inputs.s);
    let (strip_r, strip_s) = strip(r, s);

    let mut results = None;
    for (name, algo, reps) in [
        ("nested", InternalAlgo::NestedLoops, 1),
        ("list", InternalAlgo::PlaneSweepList, REPS),
        ("trie", InternalAlgo::PlaneSweepTrie, REPS),
    ] {
        let (counters, secs) = repeat(trace, &format!("sweep.{name}"), reps, || {
            let (mut a, mut b) = (strip_r.clone(), strip_s.clone());
            let mut kernel = algo.create();
            kernel.join(&mut a, &mut b, &mut |x, y| {
                black_box((x.id, y.id));
            });
            kernel.counters()
        });
        if *results.get_or_insert(counters.results) != counters.results {
            return Err(format!(
                "sweep kernel {name} disagrees on the strip's result count"
            ));
        }
        v.set(
            &format!("sweep.{name}_ns_per_test"),
            ratio(secs * 1e9, counters.tests as f64),
        );
        if name != "nested" {
            v.set(&format!("sweep.{name}_ms"), secs * 1e3);
            v.set(
                &format!("sweep.{name}_tests_per_result"),
                ratio(counters.tests as f64, counters.results as f64),
            );
        }
    }
    // Result pairs of the strip, kept as rectangles for the RPM probe.
    let mut pairs: Vec<(Rect, Rect)> = Vec::new();
    let (mut a, mut b) = (strip_r, strip_s);
    InternalAlgo::PlaneSweepList
        .create()
        .join(&mut a, &mut b, &mut |x, y| {
            if pairs.len() < 200_000 {
                pairs.push((x.rect, y.rect));
            }
        });

    // The grid and tile map the workload's own pbsm op used.
    let Algorithm::Pbsm(cfg) = engine.algorithm(PBSM) else {
        unreachable!("op pbsm is PBSM")
    };
    let grid = pbsm.grid;
    let map = PartitionMap::new(pbsm.partitions, cfg.tile_scheme, cfg.seed);

    let chain = RegionChain::top(grid, map, 0);
    let (_, secs) = repeat(trace, "geom.rpm", REPS, || {
        let hits = pairs
            .iter()
            .filter(|(a, b)| chain.contains_point(reference_point(a, b)))
            .count();
        black_box(hits)
    });
    v.set("geom.rpm_ns", ratio(secs * 1e9, pairs.len() as f64));

    let (_, secs) = repeat(trace, "pbsm.assign", REPS, || {
        let mut acc = 0u64;
        for k in r {
            let (xs, ys) = grid.tile_range(&k.rect, 1);
            for iy in ys {
                for ix in xs.clone() {
                    acc += u64::from(map.partition_of(ix, iy, grid.gx));
                }
            }
        }
        black_box(acc)
    });
    v.set("pbsm.assign_ns_per_rect", secs * 1e9 / r.len() as f64);

    let level = spatialjoin::s3j::S3jConfig::default().max_level;
    let cells: Vec<(u32, u32)> = r
        .iter()
        .map(|k| {
            let c = sfc::Cell::containing(level, Point::new(k.rect.xl, k.rect.yl));
            (c.ix, c.iy)
        })
        .collect();
    let per_rect = |secs: f64| secs * 1e9 / r.len() as f64;
    let (_, secs) = repeat(trace, "sfc.hilbert", REPS, || {
        black_box(
            cells
                .iter()
                .fold(0u64, |acc, &(x, y)| acc ^ sfc::hilbert::encode(level, x, y)),
        )
    });
    v.set("sfc.hilbert_ns", per_rect(secs));
    let (_, secs) = repeat(trace, "sfc.zorder", REPS, || {
        black_box(
            cells
                .iter()
                .fold(0u64, |acc, &(x, y)| acc ^ sfc::zorder::encode(x, y)),
        )
    });
    v.set("sfc.zorder_ns", per_rect(secs));
    let (_, secs) = repeat(trace, "sfc.mxcif", REPS, || {
        black_box(
            r.iter()
                .fold(0u32, |acc, k| acc ^ sfc::mxcif_cell(&k.rect, level).ix),
        )
    });
    v.set("sfc.mxcif_ns", per_rect(secs));
    Ok(())
}

/// What simulating the disk costs on the host clock: paged writes and
/// reads, the external sort, and an uncontended memory lease.
fn storage_probes(v: &mut Values, trace: &mut Trace, r: &[Kpe], mem: usize, model: DiskModel) {
    let buffer_pages = spatialjoin::pbsm::PbsmConfig::default().io_buffer_pages;
    let disk = SimDisk::new(model);
    let (file, secs) = trace.probe("storage.write", || {
        let mut w = RecordWriter::<Kpe>::create(&disk, buffer_pages);
        for k in r {
            w.push(k);
        }
        w.finish()
    });
    v.set(
        "storage.page_write_ns",
        ratio(secs * 1e9, disk.stats().pages_written as f64),
    );
    let (read, secs) = trace.probe("storage.read", || {
        let mut reader = RecordReader::<Kpe>::new(&disk, file, buffer_pages);
        let mut n = 0usize;
        while let Ok(Some(k)) = reader.try_next() {
            black_box(k);
            n += 1;
        }
        n
    });
    assert_eq!(read, r.len(), "the paged file lost records");
    v.set(
        "storage.page_read_ns",
        ratio(secs * 1e9, disk.stats().pages_read as f64),
    );

    let (_, secs) = repeat(trace, "storage.sort", REPS, || {
        // Coordinates lie in the unit square, so their bit patterns order
        // like the numbers.
        external_sort_slice(&SimDisk::new(model), r, mem, |k: &Kpe| k.rect.xl.to_bits())
    });
    v.set("storage.sort_ns_per_record", secs * 1e9 / r.len() as f64);

    const LEASES: usize = 100_000;
    let arbiter = MemoryArbiter::new(64 << 20, 16);
    let (_, secs) = repeat(trace, "storage.lease", REPS, || {
        for _ in 0..LEASES {
            drop(black_box(arbiter.lease(mem as u64, None)));
        }
    });
    v.set("storage.lease_ns", secs * 1e9 / LEASES as f64);
}

/// The service's own cost, one uncontended client: requests against the
/// embedded call beneath them, on the relations the server registered.
/// `serve` brings its server; the embedded workloads start one over the same
/// generators (`register` has no `(p)` operator, so on `hisel` these are the
/// unstretched relations).
fn service_probes(v: &mut Values, trace: &mut Trace, env: &Env) -> Result<(), String> {
    if let Some(service) = &env.service {
        return service_probes_on(v, trace, service, &env.engine, env.reference);
    }
    let twin = Embedded {
        inputs: Service::registered(env.kind, env.seed, env.scale)?,
        mem_bytes: env.engine.mem_bytes,
        threads: env.engine.threads,
    };
    let reference = workload::reference(&twin.inputs, twin.mem_bytes);
    let service = Service::start(env.kind, env.seed, env.scale)
        .map_err(|e| format!("cannot start the probe server: {e}"))?;
    let result = service_probes_on(v, trace, &service, &twin, reference);
    service
        .stop()
        .map_err(|e| format!("probe server did not stop: {e}"))?;
    result
}

fn service_probes_on(
    v: &mut Values,
    trace: &mut Trace,
    service: &Service,
    twin: &Embedded,
    reference: PairSum,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("service probe: {e}");
    let mut conn = Conn::connect(service.addr).map_err(io)?;
    v.set("sjoind.register_ms", service.register_s * 1e3);

    const PINGS: usize = 200;
    let (pong, secs) = trace.probe("sjoind.ping", || {
        (0..PINGS).try_for_each(|_| conn.request("{\"cmd\":\"ping\"}").map(drop))
    });
    pong.map_err(io)?;
    v.set("sjoind.ping_us", secs * 1e6 / PINGS as f64);

    // Cache the snapshot and warm the cold path before timing either.
    let mut next_id = 2_000_000u64;
    let mut request = |trace: &mut Trace, conn: &mut Conn, op: usize, extra: &str| {
        let sample = conn.join(op, &service.request_line(op, extra));
        // `"limit":0` joins in full but sends no pair; its stream is not
        // what the `wire` spans describe.
        let expect = if extra.is_empty() {
            next_id += 1;
            record_op(trace, next_id, &sample);
            reference
        } else {
            PairSum::default()
        };
        if sample.error.is_some() || sample.got != expect {
            return Err(format!(
                "service probe {}{extra} is wrong: {:?}, {:?}",
                OPS[op], sample.error, sample.got
            ));
        }
        Ok(sample)
    };
    let warm = service.warm_cache(&mut conn);
    if warm.error.is_some() || warm.got != reference {
        return Err(format!(
            "probe cache warm is wrong: {:?}, {:?}",
            warm.error, warm.got
        ));
    }
    request(trace, &mut conn, PBSM, ",\"limit\":0")?;

    let join = SpatialJoin::new(twin.algorithm(PBSM));
    let mut cold = Vec::new();
    let mut hit = Vec::new();
    let mut unsent = Vec::new();
    let mut embedded = Vec::new();
    let (mut parse_s, mut bytes) = (0.0, 0u64);
    for _ in 0..REPS {
        let sample = request(trace, &mut conn, PBSM, "")?;
        let wire = sample.wire.expect("a finished request has wire stamps");
        parse_s += wire.parse_s;
        bytes += wire.bytes;
        cold.push(sample.wall_ms());
        hit.push(request(trace, &mut conn, DURABLE, "")?.wall_ms());
        unsent.push(request(trace, &mut conn, PBSM, ",\"limit\":0")?.wall_ms());
        embedded
            .push(checked(trace, "sjoind.embedded_pbsm", twin, reference, &join, false)?.0 * 1e3);
    }
    let cold_ms = median(&cold);
    v.set("sjoind.overhead_ms", cold_ms - median(&embedded));
    v.set(
        "sjoind.stream_ns_per_pair",
        ratio((cold_ms - median(&unsent)) * 1e6, reference.count as f64),
    );
    v.set(
        "sjoind.json_parse_ns_per_byte",
        ratio(parse_s * 1e9, bytes as f64),
    );
    v.set("sjoind.cache_saving_ms", cold_ms - median(&hit));
    for phase in ["first_line", "stream", "parse"] {
        let name = format!("wire.pbsm.{phase}");
        v.set(
            &format!("wire.{phase}_ms"),
            median_ms(trace.durations_us(&name)),
        );
    }

    let counters = conn.request("{\"cmd\":\"metrics\"}").map_err(io)?;
    let counter = |group: &str, name: &str| {
        counters
            .get(group)
            .and_then(|g| g.get(name))
            .and_then(sjoind::Json::as_f64)
            .ok_or_else(|| format!("the metrics verb reports no {group}.{name}"))
    };
    v.set("sjoind.cache_hits", counter("cache", "hits")?);
    v.set("sjoind.admitted", counter("arbiter", "admitted")?);
    v.set("sjoind.shed", counter("joins", "shed")?);
    Ok(())
}
