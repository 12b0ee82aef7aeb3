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
        self.counters.results += all_pairs(r, s, &mut out);
    }
}

/// Tests every `(a, b)` of `r × s`, `a` outer, and calls `out` on the
/// intersecting ones; returns how many there were.
///
/// The four comparisons of [`geom::Rect::intersects`] are combined with `&`,
/// so a test costs one branch (hit or miss) instead of four data-dependent
/// ones. They are written in the order a `Rect` lays its fields out — `a`'s
/// `(xl, yl)` against `b`'s `(xh, yh)`, then `b`'s `(xl, yl)` against `a`'s
/// `(xh, yh)` — so each pair is one packed compare of two loaded halves, with
/// no shuffle before it. The kernel stays out of line so that its shape does
/// not depend on the caller: inlined into S³J's `JoinCtx::join_parts`, the
/// same chain in `Rect::intersects`'s order compiles to a compare-and-jump
/// per comparison. The sink is a `dyn` call because it runs only on hits.
#[inline(never)]
fn all_pairs(r: &[Kpe], s: &[Kpe], out: &mut dyn FnMut(&Kpe, &Kpe)) -> u64 {
    let mut hits = 0;
    for a in r {
        let p = a.rect;
        for b in s {
            let q = &b.rect;
            if (p.xl <= q.xh) & (p.yl <= q.yh) & (q.xl <= p.xh) & (q.yl <= p.yh) {
                hits += 1;
                out(a, b);
            }
        }
    }
    hits
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

#[cfg(test)]
mod tests {
    use super::*;
    use geom::{RecordId, Rect};
    use proptest::prelude::*;

    /// The kernel as it was before the branch-free one: `Rect::intersects`
    /// (four `&&`-chained comparisons) per pair. The reference both entry
    /// points are held to.
    fn reference(r: &[Kpe], s: &[Kpe], mut out: impl FnMut(&Kpe, &Kpe)) -> JoinCounters {
        let mut c = JoinCounters {
            tests: (r.len() * s.len()) as u64,
            ..JoinCounters::default()
        };
        for a in r.iter() {
            for b in s.iter() {
                if a.rect.intersects(&b.rect) {
                    c.results += 1;
                    out(a, b);
                }
            }
        }
        c
    }

    /// Coordinates that make the comparisons' edge cases common: shared
    /// values (touching edges), both zeros, both infinities and NaN.
    const COORDS: [f64; 10] = [
        0.0,
        -0.0,
        0.25,
        0.5,
        0.75,
        1.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        0.5,
    ];

    /// Up to 40 records whose corners come from [`COORDS`], unordered
    /// corners and all.
    fn arb_side() -> impl Strategy<Value = Vec<Kpe>> {
        prop::collection::vec((0usize..10, 0usize..10, 0usize..10, 0usize..10), 0..41).prop_map(
            |v| {
                v.into_iter()
                    .zip(0..)
                    .map(|((xl, yl, xh, yh), i)| {
                        let rect = Rect {
                            xl: COORDS[xl],
                            yl: COORDS[yl],
                            xh: COORDS[xh],
                            yh: COORDS[yh],
                        };
                        Kpe::new(RecordId(i), rect)
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `join_with` and `InternalJoin::join` count the same tests and
        /// results as the `&&` loop and emit the same pairs in the same order.
        #[test]
        fn prop_kernel_is_the_reference_loop(r in arb_side(), s in arb_side()) {
            let mut want = Vec::new();
            let counters = reference(&r, &s, |a, b| want.push((a.id, b.id)));

            let mut nl = NestedLoops::new();
            let mut got = Vec::new();
            nl.join_with(&r, &s, |a, b| got.push((a.id, b.id)));
            prop_assert_eq!(nl.counters(), counters);
            prop_assert_eq!(&got, &want);

            let mut nl = NestedLoops::new();
            let (mut rv, mut sv) = (r.clone(), s.clone());
            got.clear();
            nl.join(&mut rv, &mut sv, &mut |a, b| got.push((a.id, b.id)));
            prop_assert_eq!(nl.counters(), counters);
            prop_assert_eq!(&got, &want);
        }
    }
}
