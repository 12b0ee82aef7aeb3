use geom::Kpe;

use crate::strip::{sweep_strips, Strip};
use crate::{InternalJoin, JoinCounters};

/// The *Plane-Sweep Intersection-Test* of [BKS 93], PBSM's original internal
/// algorithm.
///
/// Both inputs are sorted by `xl` and swept left to right. The rectangle
/// whose left edge the sweep line meets first performs a *forward scan* over
/// the other relation: every rectangle starting before its right edge is a
/// sweep-line-status neighbour and is tested for y-overlap. The status is
/// thus kept implicitly, "organised as a list".
///
/// The forward scan makes the cost per rectangle proportional to the number
/// of rectangles the sweep line currently stabs — fine for the well-shrunk
/// partitions of PBSM with small memory, but degrading as partitions grow
/// (the paper's observation that PBSM(list) gets *slower* with more memory,
/// Figure 5).
#[derive(Debug, Default)]
pub struct PlaneSweepList {
    counters: JoinCounters,
    /// The `xl`-keyed columns of the two sorted inputs, refilled per join
    /// (scratch: the allocations outlive the join, the contents do not).
    r_strip: Strip,
    s_strip: Strip,
}

impl PlaneSweepList {
    pub fn new() -> Self {
        Self::default()
    }
}

impl InternalJoin for PlaneSweepList {
    fn join(&mut self, r: &mut [Kpe], s: &mut [Kpe], out: &mut dyn FnMut(&Kpe, &Kpe)) {
        r.sort_unstable_by(|a, b| a.rect.xl.total_cmp(&b.rect.xl));
        s.sort_unstable_by(|a, b| a.rect.xl.total_cmp(&b.rect.xl));
        self.r_strip.fill(r, |k| k.rect.xl);
        self.s_strip.fill(s, |k| k.rect.xl);
        let JoinCounters { tests, results, .. } = &mut self.counters;
        // x-overlap is implied by the scan (b.xl ∈ [cur.xl, cur.xh]), so the
        // kernel tests y only — both comparisons.
        sweep_strips::<true, true>((r, &self.r_strip), (s, &self.s_strip), tests, |a, b| {
            *results += 1;
            out(a, b);
        });
    }

    fn counters(&self) -> JoinCounters {
        self.counters
    }

    fn reset(&mut self) {
        self.counters = JoinCounters::default();
    }
}
