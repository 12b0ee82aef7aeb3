use geom::Kpe;

use crate::{InternalJoin, JoinCounters};

/// All-pairs nested-loops join.
///
/// Quadratic, but with zero setup cost: for the tiny partitions produced by
/// S³J it beats both plane-sweep variants (paper §4.4.1, Figure 12).
#[derive(Debug, Default)]
pub struct NestedLoops {
    counters: JoinCounters,
}

impl NestedLoops {
    pub fn new() -> Self {
        Self::default()
    }

    /// [`InternalJoin::join`] with a statically dispatched sink, for callers
    /// that join many tiny partition pairs and hold the kernel by type.
    #[inline]
    pub fn join_with(&mut self, r: &[Kpe], s: &[Kpe], mut out: impl FnMut(&Kpe, &Kpe)) {
        self.counters.tests += (r.len() * s.len()) as u64;
        for a in r.iter() {
            for b in s.iter() {
                if a.rect.intersects(&b.rect) {
                    self.counters.results += 1;
                    out(a, b);
                }
            }
        }
    }
}

impl InternalJoin for NestedLoops {
    fn join(&mut self, r: &mut [Kpe], s: &mut [Kpe], out: &mut dyn FnMut(&Kpe, &Kpe)) {
        self.join_with(r, s, out);
    }

    fn counters(&self) -> JoinCounters {
        self.counters
    }

    fn reset(&mut self) {
        self.counters = JoinCounters::default();
    }
}
