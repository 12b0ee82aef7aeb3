//! Spatial Hash Join (SHJ) of Lo & Ravishankar ([LR 96]).
//!
//! The second partition-based no-index join the paper's related work
//! discusses: "the spatial-hash join … divides the datasets into smaller
//! partitions and applies a join algorithm to each pair of partitions. PBSM
//! replicates some of the data of both input relations …, whereas the
//! spatial-hash join only allows replication on one relation." [KS 97] found
//! it comparable to PBSM, which is why the paper concentrates on PBSM —
//! this crate supplies the missing comparison point.
//!
//! Phases:
//!
//! 1. **Seed selection** — a sample of the build relation R is spread in
//!    Z-order and every k-th sample becomes a bucket seed.
//! 2. **Build partitioning** — each R rectangle joins the bucket whose seed
//!    centre is nearest; the bucket's extent grows to cover it. R is *not*
//!    replicated.
//! 3. **Probe partitioning** — each S rectangle is replicated into every
//!    bucket whose grown extent it intersects (and dropped if it intersects
//!    none — it cannot join).
//! 4. **Join** — each bucket pair is loaded and joined in memory.
//!
//! Because R is partitioned (not replicated), a pair `(r, s)` can only be
//! found in `r`'s bucket: **no duplicates arise and no duplicate detection
//! is needed** — SHJ trades that for probe-side replication proportional to
//! bucket-extent overlap. Unlike PBSM there is no repartitioning: an
//! overflowing bucket pair is joined over budget (counted in
//! [`ShjStats::overflowed_pairs`]).

use std::time::Instant;

use geom::{Kpe, Rect, RecordId};
use rand::prelude::*;
use storage::{Fanout, IoStats, RecordReader, RunClock, SimDisk, Work};
use sweep::{InternalAlgo, JoinCounters};

/// SHJ tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ShjConfig {
    /// Memory budget in bytes (drives the bucket count, like PBSM's
    /// formula (1)).
    pub mem_bytes: usize,
    /// Safety factor on the bucket count.
    pub safety_factor: f64,
    /// Samples drawn per bucket when picking seeds.
    pub samples_per_bucket: usize,
    /// In-memory join algorithm for bucket pairs.
    pub internal: InternalAlgo,
    /// Write-buffer pages per bucket file.
    pub bucket_buffer_pages: usize,
    /// Buffer pages for sequential scans.
    pub io_buffer_pages: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for ShjConfig {
    fn default() -> Self {
        ShjConfig {
            mem_bytes: 8 << 20,
            safety_factor: 1.2,
            samples_per_bucket: 8,
            internal: InternalAlgo::PlaneSweepList,
            bucket_buffer_pages: 1,
            io_buffer_pages: 4,
            seed: 0x5EED_5EED,
        }
    }
}

/// Measurements of one SHJ run.
#[derive(Debug, Clone, Default)]
pub struct ShjStats {
    pub buckets: u32,
    /// Probe-side copies written (≥ the number of surviving S records).
    pub probe_copies: u64,
    /// Probe records that intersected no bucket extent (filtered out).
    pub probe_filtered: u64,
    /// Bucket pairs exceeding the memory budget (joined over budget; SHJ
    /// has no repartitioning).
    pub overflowed_pairs: u32,
    pub results: u64,
    pub join_counters: JoinCounters,
    pub io_build: IoStats,
    pub io_probe: IoStats,
    pub io_join: IoStats,
    /// Counted CPU work, the simulated clock's CPU leg: each build record
    /// is tested against every seed and each probe record against every
    /// bucket extent, then the bucket pairs are joined.
    pub work: Work,
    pub cpu_build: f64,
    pub cpu_probe: f64,
    pub cpu_join: f64,
    /// SHJ's bucket files are untagged (the baseline's build/probe passes
    /// interleave one sequential stream), so the shared lane carries
    /// [`io_total`](Self::io_total) and the data channels nothing: extra
    /// channels cannot speed SHJ up. SHJ reports no first-result position.
    pub clock: RunClock,
}

impl ShjStats {
    pub fn io_total(&self) -> IoStats {
        self.io_build.plus(&self.io_probe).plus(&self.io_join)
    }

    /// Host CPU seconds (the host clock).
    pub fn cpu_seconds(&self) -> f64 {
        self.cpu_build + self.cpu_probe + self.cpu_join
    }

    pub fn total_seconds(&self) -> f64 {
        self.clock.total_seconds(&self.work)
    }

    /// Probe-side replication rate.
    pub fn replication_rate(&self, probe_len: usize) -> f64 {
        self.probe_copies as f64 / probe_len.max(1) as f64
    }
}

/// Runs the spatial hash join `r ⋈ s` with `r` as the build (partitioned)
/// relation and `s` as the probe (replicated) relation. Emits ordered
/// `(r, s)` pairs, each exactly once — no duplicate elimination required.
pub fn shj_join(
    disk: &SimDisk,
    r: &[Kpe],
    s: &[Kpe],
    cfg: &ShjConfig,
    out: &mut dyn FnMut(RecordId, RecordId),
) -> ShjStats {
    let mut stats = ShjStats {
        clock: RunClock::new(disk.model()),
        ..ShjStats::default()
    };
    if r.is_empty() || s.is_empty() {
        return stats;
    }

    // --- Phase 1+2: seeds, then partition the build relation ---------------
    let t0 = Instant::now();
    let io0 = disk.stats();
    let input_bytes = (r.len() + s.len()) * Kpe::ENCODED_SIZE;
    let b = ((cfg.safety_factor * input_bytes as f64 / cfg.mem_bytes as f64).ceil() as u32).max(1);
    stats.buckets = b;
    let seeds = pick_seeds(r, b as usize, cfg.samples_per_bucket, cfg.seed);

    // The baseline deliberately panics on a storage error (`expect`,
    // `RecordReader::next`): SHJ does not opt into fault injection
    // (`SpatialJoin::try_run` refuses the combination up front), so on a
    // fault-free disk these calls cannot fail. Its buckets ride the shared
    // lane.
    const FAULT_FREE: &str = "SHJ runs on a fault-free disk";
    let mut extents: Vec<Option<Rect>> = vec![None; b as usize];
    let mut build_fan = Fanout::new(disk, b, |_| None, cfg.bucket_buffer_pages);
    for k in r {
        let c = k.rect.center();
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, seed) in seeds.iter().enumerate() {
            let dx = c.x - seed.x;
            let dy = c.y - seed.y;
            let d = dx * dx + dy * dy;
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        build_fan.try_push(best as u32, k).expect(FAULT_FREE);
        extents[best] = Some(match extents[best] {
            Some(e) => e.union(&k.rect),
            None => k.rect,
        });
    }
    let build_files = build_fan.try_finish().expect(FAULT_FREE);
    stats.io_build = disk.stats().delta(&io0);
    stats.cpu_build = t0.elapsed().as_secs_f64();

    // --- Phase 3: replicate the probe relation into overlapping buckets ----
    let t1 = Instant::now();
    let io1 = disk.stats();
    let mut probe_fan = Fanout::new(disk, b, |_| None, cfg.bucket_buffer_pages);
    for k in s {
        let mut hit = false;
        for (i, extent) in (0..b).zip(&extents) {
            if let Some(e) = extent {
                if e.intersects(&k.rect) {
                    probe_fan.try_push(i, k).expect(FAULT_FREE);
                    stats.probe_copies += 1;
                    hit = true;
                }
            }
        }
        if !hit {
            stats.probe_filtered += 1; // cannot join anything
        }
    }
    let probe_files = probe_fan.try_finish().expect(FAULT_FREE);
    stats.io_probe = disk.stats().delta(&io1);
    stats.cpu_probe = t1.elapsed().as_secs_f64();

    // --- Phase 4: join bucket pairs in memory --------------------------------
    let t2 = Instant::now();
    let io2 = disk.stats();
    let mut internal = cfg.internal.create();
    for (&(fb, _), &(fp, _)) in build_files.iter().zip(&probe_files) {
        let bytes = disk.len(fb) + disk.len(fp);
        if bytes == 0 {
            disk.delete(fb);
            disk.delete(fp);
            continue;
        }
        if bytes as usize > cfg.mem_bytes {
            stats.overflowed_pairs += 1;
        }
        let mut rv: Vec<Kpe> = RecordReader::new(disk, fb, cfg.io_buffer_pages).collect();
        let mut sv: Vec<Kpe> = RecordReader::new(disk, fp, cfg.io_buffer_pages).collect();
        let mut results = 0u64;
        internal.join(&mut rv, &mut sv, &mut |a, b| {
            results += 1;
            out(a.id, b.id);
        });
        stats.results += results;
        disk.delete(fb);
        disk.delete(fp);
    }
    stats.join_counters = internal.counters();
    let inputs = (r.len() + s.len()) as u64;
    stats.work = cfg.internal.work(&stats.join_counters)
        + Work {
            assigned: inputs,
            copies: r.len() as u64 + stats.probe_copies,
            tests: inputs * u64::from(b),
            ..Work::default()
        };
    stats.io_join = disk.stats().delta(&io2);
    stats.cpu_join = t2.elapsed().as_secs_f64();
    // All bucket files are untagged: the whole run rides the shared lane.
    stats.clock.io_shared = stats.io_total();
    stats
}

/// Z-order-spread seed centres from a random sample of the build relation.
fn pick_seeds(r: &[Kpe], buckets: usize, samples_per_bucket: usize, seed: u64) -> Vec<geom::Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let want = (buckets * samples_per_bucket.max(1)).min(r.len()).max(buckets.min(r.len()));
    let mut sample: Vec<geom::Point> = r
        .choose_multiple(&mut rng, want)
        .map(|k| k.rect.center())
        .collect();
    // Spread in Z-order, then take evenly spaced representatives.
    sample.sort_unstable_by_key(|p| {
        let ix = (p.x.clamp(0.0, 1.0) * 65535.0) as u32;
        let iy = (p.y.clamp(0.0, 1.0) * 65535.0) as u32;
        sfc_z(ix, iy)
    });
    let step = (sample.len() as f64 / buckets as f64).max(1.0);
    (0..buckets)
        .map(|i| sample[((i as f64 + 0.5) * step) as usize % sample.len()])
        .collect()
}

/// Local Morton interleave (avoids a dependency on the sfc crate).
fn sfc_z(x: u32, y: u32) -> u64 {
    fn spread(v: u32) -> u64 {
        let mut x = v as u64;
        x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
        x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
        x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
        x = (x | (x << 2)) & 0x3333_3333_3333_3333;
        x = (x | (x << 1)) & 0x5555_5555_5555_5555;
        x
    }
    spread(x) | (spread(y) << 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(r: &[Kpe], s: &[Kpe]) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        for a in r {
            for b in s {
                if a.rect.intersects(&b.rect) {
                    v.push((a.id.0, b.id.0));
                }
            }
        }
        v.sort_unstable();
        v
    }

    fn run(r: &[Kpe], s: &[Kpe], cfg: &ShjConfig) -> (Vec<(u64, u64)>, ShjStats) {
        let disk = SimDisk::with_default_model();
        let mut got = Vec::new();
        let st = shj_join(&disk, r, s, cfg, &mut |a, b| got.push((a.0, b.0)));
        got.sort_unstable();
        (got, st)
    }

    fn tiger(n: usize, seed: u64) -> Vec<Kpe> {
        datagen::LineNetwork {
            count: n,
            coverage: 0.12,
            segments_per_line: 12,
            seed,
        }
        .generate()
    }

    #[test]
    fn matches_brute_force_multi_bucket() {
        let r = tiger(2500, 1);
        let s = tiger(2500, 2);
        let cfg = ShjConfig {
            mem_bytes: 32 * 1024,
            ..Default::default()
        };
        let (got, st) = run(&r, &s, &cfg);
        assert!(st.buckets > 4, "want several buckets, got {}", st.buckets);
        assert_eq!(got, brute(&r, &s));
        assert_eq!(st.results as usize, got.len());
    }

    #[test]
    fn no_duplicates_by_construction() {
        // Scaled data replicates the probe side heavily; results must still
        // be unique because the build side is partitioned.
        let r = datagen::scale(&tiger(1500, 3), 4.0);
        let s = datagen::scale(&tiger(1500, 4), 4.0);
        let cfg = ShjConfig {
            mem_bytes: 32 * 1024,
            ..Default::default()
        };
        let (got, st) = run(&r, &s, &cfg);
        assert!(
            st.probe_copies > s.len() as u64,
            "expected probe replication"
        );
        let mut dedup = got.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), got.len(), "SHJ produced duplicates");
        assert_eq!(got, brute(&r, &s));
    }

    #[test]
    fn probe_filtering_drops_unjoinable_records() {
        use geom::{Point, Rect};
        // Build data in the left half, probe data in both halves: right-half
        // probes are filtered.
        let r: Vec<Kpe> = (0..200)
            .map(|i| {
                let t = i as f64 / 500.0;
                Kpe::new(RecordId(i), Rect::from_corners(Point::new(t, t), Point::new(t + 0.002, t + 0.002)))
            })
            .collect();
        let mut s = r.clone();
        for (i, k) in s.iter_mut().enumerate() {
            if i % 2 == 0 {
                k.rect = Rect::new(0.95, 0.95, 0.96, 0.96); // far away
            }
        }
        let cfg = ShjConfig {
            mem_bytes: 4 * 1024,
            ..Default::default()
        };
        let (got, st) = run(&r, &s, &cfg);
        assert!(st.probe_filtered > 0, "expected filtered probes");
        assert_eq!(got, brute(&r, &s));
    }

    #[test]
    fn all_internal_algorithms_agree() {
        let r = tiger(1200, 5);
        let s = tiger(1200, 6);
        let mut want: Option<Vec<(u64, u64)>> = None;
        for internal in InternalAlgo::ALL {
            let cfg = ShjConfig {
                mem_bytes: 24 * 1024,
                internal,
                ..Default::default()
            };
            let (got, _) = run(&r, &s, &cfg);
            match &want {
                None => want = Some(got),
                Some(w) => assert_eq!(&got, w, "{internal}"),
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let r = tiger(100, 7);
        let cfg = ShjConfig::default();
        let (got, st) = run(&r, &[], &cfg);
        assert!(got.is_empty());
        assert_eq!(st.results, 0);
        let (got, _) = run(&[], &r, &cfg);
        assert!(got.is_empty());
    }

    #[test]
    fn io_accounting_adds_up() {
        let r = tiger(1000, 8);
        let s = tiger(1000, 9);
        let disk = SimDisk::with_default_model();
        let cfg = ShjConfig {
            mem_bytes: 16 * 1024,
            ..Default::default()
        };
        let st = shj_join(&disk, &r, &s, &cfg, &mut |_, _| {});
        assert_eq!(st.io_total(), disk.stats());
        // Build side written once, never replicated.
        assert_eq!(
            st.io_build.bytes_written,
            (r.len() * Kpe::ENCODED_SIZE) as u64
        );
        assert!(st.total_seconds() > 0.0);
    }
}
