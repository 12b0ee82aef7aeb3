//! Shared plumbing for the one experiment binary, `repro`: every paper
//! table, figure, ablation and extension, the regression grid, the planner
//! evaluation and the scaling sweep, with the claims about them.
//!
//! Datasets are generated once per process and cached; the overall scale is
//! controlled by the `SJ_SCALE` environment variable (`1.0` = the paper's
//! full cardinalities; smaller values shrink every dataset proportionally
//! for smoke runs, e.g. `SJ_SCALE=0.05`).
//!
//! Memory axes: the paper's KPE is ~20 bytes, ours is 40, so "the paper's
//! M megabytes" corresponds to `2·M` of our bytes at `SJ_SCALE=1`; at
//! smaller scales the budget shrinks with the data. Use [`paper_mem`].

use std::sync::OnceLock;

use geom::Kpe;
use pbsm::{Dedup, PbsmConfig};
use s3j::S3jConfig;
use storage::Json;
use sweep::InternalAlgo;

/// Seed shared by every experiment (determinism across binaries).
pub const SEED: u64 = 2026;

/// A value of `SJ_SCALE` (`None` = unset = 1.0): a finite number > 0, or an
/// error naming what was given.
pub fn parse_scale(v: Option<&str>) -> Result<f64, String> {
    let Some(v) = v else { return Ok(1.0) };
    let parsed = v.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0);
    parsed.ok_or_else(|| format!("SJ_SCALE={v:?} is not a finite number > 0"))
}

/// Global dataset scale factor (`SJ_SCALE`, default 1.0 = paper scale),
/// read once. A value [`parse_scale`] refuses ends the process with exit 2.
pub fn scale() -> f64 {
    static SCALE: OnceLock<f64> = OnceLock::new();
    *SCALE.get_or_init(|| {
        let v = std::env::var_os("SJ_SCALE").map(|v| v.to_string_lossy().into_owned());
        parse_scale(v.as_deref()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    })
}

fn cached(cell: &'static OnceLock<Vec<Kpe>>, cfg: datagen::LineNetwork) -> &'static [Kpe] {
    cell.get_or_init(|| datagen::sized(&cfg, scale()).generate())
}

/// `LA_RR` equivalent (railways & rivers of LA; Table 1).
pub fn la_rr() -> &'static [Kpe] {
    static D: OnceLock<Vec<Kpe>> = OnceLock::new();
    cached(&D, datagen::la_rr_config(SEED))
}

/// `LA_ST` equivalent (streets of LA; Table 1).
pub fn la_st() -> &'static [Kpe] {
    static D: OnceLock<Vec<Kpe>> = OnceLock::new();
    cached(&D, datagen::la_st_config(SEED))
}

/// `CAL_ST` equivalent (streets of California; Table 1).
pub fn cal_st() -> &'static [Kpe] {
    static D: OnceLock<Vec<Kpe>> = OnceLock::new();
    cached(&D, datagen::cal_st_config(SEED))
}

/// The joins of Table 2: J1–J4 are `LA_RR(p) ⋈ LA_ST(p)` for p = 1..4;
/// J5 is the `CAL_ST` self join.
pub fn join_inputs(p: u32) -> (Vec<Kpe>, Vec<Kpe>) {
    assert!((1..=10).contains(&p));
    let f = p as f64;
    (datagen::scale(la_rr(), f), datagen::scale(la_st(), f))
}

/// Skewed regress workload: two heavily clustered datasets whose hot
/// tiles concentrate most of the candidate pairs — the case where the
/// two-layer class scheme's partial-comparison sub-joins pay off most.
pub fn skew_inputs() -> (Vec<Kpe>, Vec<Kpe>) {
    let n = ((40_000.0 * scale()) as usize).max(500);
    (
        datagen::clustered(n, 8, 0.004, SEED),
        datagen::clustered(n, 8, 0.004, SEED + 1),
    )
}

/// High-selectivity regress workload: uniform MBRs with generous edges, so
/// the join produces many results per input — candidate handling (tests,
/// duplicate checks) dominates the simulated CPU work.
pub fn hisel_inputs() -> (Vec<Kpe>, Vec<Kpe>) {
    let n = ((30_000.0 * scale()) as usize).max(500);
    (
        datagen::uniform(n, 0.008, SEED),
        datagen::uniform(n, 0.008, SEED + 1),
    )
}

/// Converts "the paper's M megabytes" into our bytes (40-byte KPEs vs the
/// paper's ~20-byte KPEs ⇒ factor 2), scaled with the dataset scale.
pub fn paper_mem(paper_mb: f64) -> usize {
    ((paper_mb * 2.0 * 1024.0 * 1024.0) * scale()).max(4096.0) as usize
}

/// PBSM configuration shorthand, on one worker thread: the paper's testbed
/// had one CPU, and a fixed count keeps the priced timeline of a pooled
/// phase the same on every host.
pub fn pbsm_cfg(mem: usize, internal: InternalAlgo, dedup: Dedup) -> PbsmConfig {
    PbsmConfig {
        mem_bytes: mem,
        internal,
        dedup,
        threads: 1,
        ..Default::default()
    }
}

/// S³J configuration shorthand (its scan always runs on one thread).
pub fn s3j_cfg(mem: usize, replicate: bool) -> S3jConfig {
    S3jConfig {
        mem_bytes: mem,
        replicate,
        ..Default::default()
    }
}

/// `v` to `places` decimals, for a table cell: a reader diffing two
/// snapshots sees microseconds, not the last bits of an `f64`.
pub fn rounded(v: f64, places: i32) -> Json {
    let unit = 10f64.powi(places);
    Json::Num((v * unit).round() / unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_inputs_scale_with_p() {
        std::env::set_var("SJ_SCALE", "0.01");
        let (r1, _) = join_inputs(1);
        let (r2, _) = join_inputs(2);
        assert_eq!(r1.len(), r2.len());
        let a1: f64 = r1.iter().map(|k| k.rect.area()).sum();
        let a2: f64 = r2.iter().map(|k| k.rect.area()).sum();
        assert!((a2 / a1 - 4.0).abs() < 0.01);
    }

    #[test]
    fn paper_mem_scales() {
        std::env::set_var("SJ_SCALE", "0.01");
        assert!(paper_mem(2.5) < 2 * 1024 * 1024);
    }

    #[test]
    fn a_scale_that_is_not_a_finite_positive_number_is_refused_by_name() {
        assert_eq!(parse_scale(None), Ok(1.0));
        assert_eq!(parse_scale(Some("0.2")), Ok(0.2));
        for bad in ["0,2", "0", "-1", "NaN", "inf", ""] {
            let err = parse_scale(Some(bad)).expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }
}
