//! Parallel scaling: PBSM at 1/2/4/8 worker threads and S³J (whose scan runs
//! on one thread) × 1/4 simulated I/O channels on the synthetic LA_RR ⋈
//! LA_ST workload.
//!
//! Threads cut PBSM's *priced compute* of the join phase (the pool's claim
//! rule replayed over the units' counted work); channels cut the *simulated
//! disk time* (partition/level files overlap across channels while shared
//! files stay serial), so `total_model_s` responds to both axes while the
//! result counters stay bit-identical everywhere.
//!
//! Emits one JSON row per (algorithm, threads, channels) point on stdout
//! (JSON Lines, first row is run metadata), so the output can be captured
//! directly:
//!
//! ```text
//! cargo run --release --bin scaling > results/scaling.json
//! ```
//!
//! Human-readable context goes to stderr. `join_phase_s` is the priced CPU
//! of the join phase — on PBSM's parallel path the most-loaded worker of the
//! replayed pool, i.e. what the phase costs on dedicated cores. Every number
//! is simulated, so the output is the same on every host and every run.

use bench::{la_rr, la_st, paper_mem, pbsm_cfg, rounded, s3j_cfg, scale};
use pbsm::{pbsm_join, Dedup};
use s3j::s3j_join;
use storage::{DiskModel, Json, SimDisk};
use sweep::InternalAlgo;

const THREAD_POINTS: [usize; 4] = [1, 2, 4, 8];
const CHANNEL_POINTS: [usize; 2] = [1, 4];

fn disk(channels: usize) -> SimDisk {
    SimDisk::new(DiskModel {
        channels,
        ..Default::default()
    })
}

struct Point {
    join_phase_s: f64,
    total_model_s: f64,
    results: u64,
}

fn main() {
    let r = la_rr();
    let s = la_st();
    // Tighter budget than the paper's usual 5 MB so PBSM forms enough
    // partitions (~13 at full scale) to keep 8 workers busy — with 2-3
    // partitions the speedup curve would just measure the task count.
    let mem = paper_mem(0.5);
    eprintln!(
        "scaling: LA_RR ({}) ⋈ LA_ST ({}), M = {mem} bytes, scale {}",
        r.len(),
        s.len(),
        scale()
    );
    let meta = Json::obj([
        ("workload", "la_rr x la_st".into()),
        ("r", r.len().into()),
        ("s", s.len().into()),
        ("mem_bytes", mem.into()),
        ("scale", scale().into()),
        (
            "join_phase_s",
            "priced CPU of the join phase on the replayed pool".into(),
        ),
    ]);
    println!("{}", Json::obj([("meta", meta)]));

    for (algo, thread_points, run) in [
        (
            "pbsm",
            &THREAD_POINTS[..],
            Box::new(|threads: usize, channels: usize| {
                let mut cfg = pbsm_cfg(mem, InternalAlgo::PlaneSweepList, Dedup::ReferencePoint);
                cfg.threads = threads;
                let st = pbsm_join(&disk(channels), r, s, &cfg, &mut |_, _| {});
                Point {
                    join_phase_s: st.clock.model.priced_cpu(&(st.work_join + st.work_repart)),
                    total_model_s: st.total_seconds(),
                    results: st.results,
                }
            }) as Box<dyn Fn(usize, usize) -> Point>,
        ),
        (
            "s3j",
            &[1],
            Box::new(|_threads: usize, channels: usize| {
                let st = s3j_join(&disk(channels), r, s, &s3j_cfg(mem, true), &mut |_, _| {});
                Point {
                    join_phase_s: st.clock.model.priced_cpu(&st.work_join),
                    total_model_s: st.total_seconds(),
                    results: st.results,
                }
            }),
        ),
    ] {
        let mut base: Option<Point> = None;
        for channels in CHANNEL_POINTS {
            for &threads in thread_points {
                let p = run(threads, channels);
                let baseline = base.as_ref().unwrap_or(&p);
                let speedup = baseline.join_phase_s / p.join_phase_s.max(1e-12);
                let model_speedup = baseline.total_model_s / p.total_model_s.max(1e-12);
                assert_eq!(
                    p.results, baseline.results,
                    "{algo} results drift at {threads} threads, {channels} channels"
                );
                let row = Json::obj([
                    ("algo", algo.into()),
                    ("threads", threads.into()),
                    ("channels", channels.into()),
                    ("join_phase_s", rounded(p.join_phase_s, 4)),
                    ("join_phase_speedup", rounded(speedup, 2)),
                    ("total_model_s", rounded(p.total_model_s, 2)),
                    ("total_model_speedup", rounded(model_speedup, 2)),
                    ("results", p.results.into()),
                ]);
                println!("{row}");
                eprintln!(
                    "{algo:>5} threads={threads} channels={channels}: join phase {:.3}s \
                     ({speedup:.2}x), model total {:.2}s ({model_speedup:.2}x)",
                    p.join_phase_s, p.total_model_s
                );
                if base.is_none() {
                    base = Some(p);
                }
            }
        }
    }
}
