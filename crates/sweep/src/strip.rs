//! The columnar forward-scan kernel under [`crate::PlaneSweepList`] and the
//! two-layer mini-joins of PBSM (DESIGN.md "The forward-scan kernel").

use geom::Kpe;

/// Lanes per block of [`forward_scan`].
const BLOCK: usize = 8;

/// The three coordinates a forward scan reads, as columns: the scan key
/// (`xl` ascending or `xh` descending) and the y-interval. Filled from a
/// slice that is **already sorted** by the key; index `i` of every column is
/// record `i` of that slice, which is how a hit finds its `Kpe` again.
#[derive(Debug, Default)]
pub struct Strip {
    key: Vec<f64>,
    yl: Vec<f64>,
    yh: Vec<f64>,
}

impl Strip {
    /// Replaces the columns with those of `sorted`, keeping the allocations.
    pub fn fill(&mut self, sorted: &[Kpe], key: impl Fn(&Kpe) -> f64) {
        self.key.clear();
        self.yl.clear();
        self.yh.clear();
        self.key.extend(sorted.iter().map(key));
        self.yl.extend(sorted.iter().map(|k| k.rect.yl));
        self.yh.extend(sorted.iter().map(|k| k.rect.yh));
    }
}

/// Tests the y-interval `[cur_yl, cur_yh]` against `strip[from..]` up to the
/// first record whose key is past `bound`, adds the number of records tested
/// to `tests` and calls `hit(index)` for every match, in ascending index
/// order.
///
/// `ASC` scans a strip keyed ascending and stops at the first `key > bound`;
/// otherwise the strip is keyed descending and the scan stops at the first
/// `key < bound`. `LO` keeps the comparison `cur_yl <= yh[i]`, `HI` keeps
/// `yl[i] <= cur_yh`; a class border that implies one of them drops it.
///
/// Blocks of `BLOCK` (8) records are taken whole while the block's **last** key
/// is inside the bound — the strip is sorted, so the other seven are too —
/// and their y comparisons are evaluated branch-free into a bitmask. The
/// check is written positively (`<=` / `>=`), so a NaN last key or bound
/// fails it and the scalar loop below, which never stops at a NaN, decides.
/// That loop also takes the block that crosses the bound and the tail, so
/// `tests` counts exactly the records a record-at-a-time scan would test.
#[inline]
pub fn forward_scan<const ASC: bool, const LO: bool, const HI: bool>(
    strip: &Strip,
    from: usize,
    bound: f64,
    cur_yl: f64,
    cur_yh: f64,
    tests: &mut u64,
    mut hit: impl FnMut(usize),
) {
    let (key, yl, yh) = (&strip.key[from..], &strip.yl[from..], &strip.yh[from..]);
    // Every record the scan reaches is tested, so the position is also the
    // test count — added once, at the end.
    let mut i = 0;
    for ((k, l), h) in key
        .chunks_exact(BLOCK)
        .zip(yl.chunks_exact(BLOCK))
        .zip(yh.chunks_exact(BLOCK))
    {
        let last = k[BLOCK - 1];
        if !(if ASC { last <= bound } else { last >= bound }) {
            break;
        }
        let mut mask = 0u32;
        for lane in 0..BLOCK {
            let overlaps = (!LO || cur_yl <= h[lane]) & (!HI || l[lane] <= cur_yh);
            mask |= u32::from(overlaps) << lane;
        }
        while mask != 0 {
            hit(from + i + mask.trailing_zeros() as usize);
            mask &= mask - 1;
        }
        i += BLOCK;
    }
    for ((&k, &l), &h) in key[i..].iter().zip(&yl[i..]).zip(&yh[i..]) {
        if if ASC { k > bound } else { k < bound } {
            break;
        }
        if (!LO || cur_yl <= h) && (!HI || l <= cur_yh) {
            hit(from + i);
        }
        i += 1;
    }
    *tests += i as u64;
}

/// The x-interleaved plane sweep over two relations sorted by `xl`, with
/// their `xl`-keyed strips: whichever side the sweep line meets first
/// forward-scans the other. Both x comparisons are implied by the scan;
/// `LO` keeps `r.yl <= s.yh` and `HI` keeps `s.yl <= r.yh`. `emit` takes
/// pairs in `(r, s)` orientation and `tests` counts the records scanned.
#[inline]
pub fn sweep_strips<const LO: bool, const HI: bool>(
    (r, r_strip): (&[Kpe], &Strip),
    (s, s_strip): (&[Kpe], &Strip),
    tests: &mut u64,
    mut emit: impl FnMut(&Kpe, &Kpe),
) {
    debug_assert!(r.len() == r_strip.key.len() && s.len() == s_strip.key.len());
    let (mut i, mut j) = (0, 0);
    while i < r.len() && j < s.len() {
        if r_strip.key[i] <= s_strip.key[j] {
            let cur = &r[i];
            let (xh, yl, yh) = (cur.rect.xh, cur.rect.yl, cur.rect.yh);
            forward_scan::<true, LO, HI>(s_strip, j, xh, yl, yh, tests, |k| emit(cur, &s[k]));
            i += 1;
        } else {
            // The scanning side is `s`, so the two y comparisons swap roles.
            let cur = &s[j];
            let (xh, yl, yh) = (cur.rect.xh, cur.rect.yl, cur.rect.yh);
            forward_scan::<true, HI, LO>(r_strip, i, xh, yl, yh, tests, |k| emit(&r[k], cur));
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    //! The kernel against the record-at-a-time scans it replaced, which are
    //! kept here verbatim as the reference: same `tests`, same `results`,
    //! same emission *sequence*.

    use super::*;
    use crate::{InternalJoin, JoinCounters, PlaneSweepList};
    use geom::{RecordId, Rect};
    use proptest::prelude::*;

    type YTest = fn(&Kpe, &Kpe) -> bool;
    const Y_FULL: YTest = |a, b| a.rect.yl <= b.rect.yh && b.rect.yl <= a.rect.yh;
    const Y_RLOW: YTest = |a, b| a.rect.yl <= b.rect.yh;
    const Y_SLOW: YTest = |a, b| b.rect.yl <= a.rect.yh;

    /// `PlaneSweepList`'s forward scan before the kernel.
    fn scalar_forward_scan(
        counters: &mut JoinCounters,
        cur: &Kpe,
        other: &[Kpe],
        from: usize,
        emit: &mut dyn FnMut(&Kpe, &Kpe),
    ) {
        for b in &other[from..] {
            if b.rect.xl > cur.rect.xh {
                break;
            }
            counters.tests += 1;
            if cur.rect.yl <= b.rect.yh && b.rect.yl <= cur.rect.yh {
                counters.results += 1;
                emit(cur, b);
            }
        }
    }

    /// `PlaneSweepList::join` before the kernel.
    fn scalar_list_join(
        counters: &mut JoinCounters,
        r: &mut [Kpe],
        s: &mut [Kpe],
        out: &mut dyn FnMut(&Kpe, &Kpe),
    ) {
        counters.swept += (r.len() + s.len()) as u64;
        r.sort_unstable_by(|a, b| a.rect.xl.total_cmp(&b.rect.xl));
        s.sort_unstable_by(|a, b| a.rect.xl.total_cmp(&b.rect.xl));
        let (mut i, mut j) = (0usize, 0usize);
        while i < r.len() && j < s.len() {
            if r[i].rect.xl <= s[j].rect.xl {
                let cur = r[i];
                scalar_forward_scan(counters, &cur, s, j, &mut |a, b| out(a, b));
                i += 1;
            } else {
                let cur = s[j];
                scalar_forward_scan(counters, &cur, r, i, &mut |a, b| out(b, a));
                j += 1;
            }
        }
    }

    /// The two-layer `sweep_x` before the kernel.
    fn scalar_sweep_x(
        r: &[Kpe],
        s: &[Kpe],
        tests: &mut u64,
        y_test: YTest,
        emit: &mut dyn FnMut(&Kpe, &Kpe),
    ) {
        let (mut i, mut j) = (0, 0);
        while i < r.len() && j < s.len() {
            if r[i].rect.xl <= s[j].rect.xl {
                let a = &r[i];
                for b in &s[j..] {
                    if b.rect.xl > a.rect.xh {
                        break;
                    }
                    *tests += 1;
                    if y_test(a, b) {
                        emit(a, b);
                    }
                }
                i += 1;
            } else {
                let b = &s[j];
                for a in &r[i..] {
                    if a.rect.xl > b.rect.xh {
                        break;
                    }
                    *tests += 1;
                    if y_test(a, b) {
                        emit(a, b);
                    }
                }
                j += 1;
            }
        }
    }

    /// The two-layer `scan_x` before the kernel.
    fn scalar_scan_x(
        pivots: &[Kpe],
        spans: &[Kpe],
        pivot_is_r: bool,
        tests: &mut u64,
        y_test: YTest,
        emit: &mut dyn FnMut(&Kpe, &Kpe),
    ) {
        for p in pivots {
            for sp in spans {
                if sp.rect.xh < p.rect.xl {
                    break;
                }
                *tests += 1;
                let (a, b) = if pivot_is_r { (p, sp) } else { (sp, p) };
                if y_test(a, b) {
                    emit(a, b);
                }
            }
        }
    }

    /// What a join did: `(tests, emitted (r, s) id sequence)`.
    type Outcome = (u64, Vec<(u64, u64)>);

    fn kernel_sweep<const LO: bool, const HI: bool>(r: &[Kpe], s: &[Kpe]) -> Outcome {
        let (mut r_strip, mut s_strip) = (Strip::default(), Strip::default());
        r_strip.fill(r, |k| k.rect.xl);
        s_strip.fill(s, |k| k.rect.xl);
        let (mut tests, mut seq) = (0, Vec::new());
        sweep_strips::<LO, HI>((r, &r_strip), (s, &s_strip), &mut tests, |a, b| {
            seq.push((a.id.0, b.id.0));
        });
        (tests, seq)
    }

    /// The kernel descending, as PBSM's `scan_x` drives it. `LO`/`HI` are
    /// pivot-first, the emitted pair is `(r, s)`.
    fn kernel_scan<const LO: bool, const HI: bool>(
        pivots: &[Kpe],
        spans: &[Kpe],
        pivot_is_r: bool,
    ) -> Outcome {
        let mut strip = Strip::default();
        strip.fill(spans, |k| k.rect.xh);
        let (mut tests, mut seq) = (0, Vec::new());
        for p in pivots {
            let Rect { xl, yl, yh, .. } = p.rect;
            forward_scan::<false, LO, HI>(&strip, 0, xl, yl, yh, &mut tests, |k| {
                let (a, b) = if pivot_is_r {
                    (p, &spans[k])
                } else {
                    (&spans[k], p)
                };
                seq.push((a.id.0, b.id.0));
            });
        }
        (tests, seq)
    }

    /// Every way the two callers instantiate the kernel — the six
    /// `(ASC, LO, HI)` combinations in use — against the scalar scans.
    fn assert_kernel_matches_scalar(r: &[Kpe], s: &[Kpe]) -> Result<(), TestCaseError> {
        // The list sweep: ascending, both comparisons.
        let mut want = (JoinCounters::default(), Vec::new());
        scalar_list_join(
            &mut want.0,
            &mut r.to_vec(),
            &mut s.to_vec(),
            &mut |a, b| {
                want.1.push((a.id.0, b.id.0));
            },
        );
        let mut list = PlaneSweepList::new();
        let mut got = Vec::new();
        list.join(&mut r.to_vec(), &mut s.to_vec(), &mut |a, b| {
            got.push((a.id.0, b.id.0))
        });
        prop_assert_eq!((list.counters(), got), want);

        let (mut by_xl_r, mut by_xl_s) = (r.to_vec(), s.to_vec());
        by_xl_r.sort_unstable_by(|a, b| a.rect.xl.total_cmp(&b.rect.xl));
        by_xl_s.sort_unstable_by(|a, b| a.rect.xl.total_cmp(&b.rect.xl));
        let (mut by_xh_r, mut by_xh_s) = (r.to_vec(), s.to_vec());
        by_xh_r.sort_unstable_by(|a, b| b.rect.xh.total_cmp(&a.rect.xh));
        by_xh_s.sort_unstable_by(|a, b| b.rect.xh.total_cmp(&a.rect.xh));

        // Ascending sweeps: A×A, A×B, B×A.
        for (y_test, got) in [
            (Y_FULL, kernel_sweep::<true, true>(&by_xl_r, &by_xl_s)),
            (Y_RLOW, kernel_sweep::<true, false>(&by_xl_r, &by_xl_s)),
            (Y_SLOW, kernel_sweep::<false, true>(&by_xl_r, &by_xl_s)),
        ] {
            let mut want: Outcome = (0, Vec::new());
            scalar_sweep_x(&by_xl_r, &by_xl_s, &mut want.0, y_test, &mut |a, b| {
                want.1.push((a.id.0, b.id.0));
            });
            prop_assert_eq!(got, want);
        }

        // Descending scans: A×C, A×D, B×C with the pivot on the R side, then
        // their mirrors with the pivot on the S side.
        for (pivot_is_r, y_test, got) in [
            (
                true,
                Y_FULL,
                kernel_scan::<true, true>(&by_xl_r, &by_xh_s, true),
            ),
            (
                true,
                Y_RLOW,
                kernel_scan::<true, false>(&by_xl_r, &by_xh_s, true),
            ),
            (
                true,
                Y_SLOW,
                kernel_scan::<false, true>(&by_xl_r, &by_xh_s, true),
            ),
            (
                false,
                Y_FULL,
                kernel_scan::<true, true>(&by_xl_s, &by_xh_r, false),
            ),
            (
                false,
                Y_SLOW,
                kernel_scan::<true, false>(&by_xl_s, &by_xh_r, false),
            ),
            (
                false,
                Y_RLOW,
                kernel_scan::<false, true>(&by_xl_s, &by_xh_r, false),
            ),
        ] {
            let (pivots, spans) = if pivot_is_r {
                (&by_xl_r, &by_xh_s)
            } else {
                (&by_xl_s, &by_xh_r)
            };
            let mut want: Outcome = (0, Vec::new());
            scalar_scan_x(
                pivots,
                spans,
                pivot_is_r,
                &mut want.0,
                y_test,
                &mut |a, b| {
                    want.1.push((a.id.0, b.id.0));
                },
            );
            prop_assert_eq!(got, want);
        }
        Ok(())
    }

    /// Rectangles on a coarse lattice: `xl` ties are the rule, scans run
    /// from empty to the whole strip.
    fn lattice_kpes() -> impl Strategy<Value = Vec<Kpe>> {
        prop::collection::vec((0u8..6, 0u8..6, 0u8..7, 0u8..4), 0..41).prop_map(|v| {
            v.into_iter()
                .enumerate()
                .map(|(i, (x, y, w, h))| {
                    let cell = |n: u8| f64::from(n) / 8.0;
                    Kpe::new(
                        RecordId(i as u64),
                        Rect::new(cell(x), cell(y), cell(x + w), cell(y + h)),
                    )
                })
                .collect()
        })
    }

    /// Coordinates no layer rejects today: signed zeros, infinities, NaNs of
    /// both signs, subnormals, unordered corners.
    const ODD: [f64; 10] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        5e-324,
        -5e-324,
        0.5,
        -1.0,
    ];

    fn odd_kpes() -> impl Strategy<Value = Vec<Kpe>> {
        prop::collection::vec((0usize..10, 0usize..10, 0usize..10, 0usize..10), 0..41).prop_map(
            |v| {
                v.into_iter()
                    .enumerate()
                    .map(|(i, (xl, yl, xh, yh))| Kpe {
                        id: RecordId(i as u64),
                        rect: Rect {
                            xl: ODD[xl],
                            yl: ODD[yl],
                            xh: ODD[xh],
                            yh: ODD[yh],
                        },
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Lengths 0–40, so every split into blocks and remainder occurs.
        #[test]
        fn prop_kernel_matches_scalar_scans(r in lattice_kpes(), s in lattice_kpes()) {
            assert_kernel_matches_scalar(&r, &s)?;
        }

        /// Whatever the scalar scans do on non-finite input, the kernel does.
        #[test]
        fn prop_kernel_matches_scalar_scans_on_non_finite_input(
            r in odd_kpes(),
            s in odd_kpes(),
        ) {
            assert_kernel_matches_scalar(&r, &s)?;
        }
    }

    #[test]
    fn reused_list_sweep_leaves_no_stale_columns() {
        let mut reused = PlaneSweepList::new();
        let mut want = JoinCounters::default();
        for (n, seed) in [(37, 1), (5, 2), (0, 3), (9, 4), (40, 5)] {
            let r = crate::testutil::random_kpes(n, 0.3, seed);
            let s = crate::testutil::random_kpes(n + 3, 0.3, seed + 100);
            let mut want_seq = Vec::new();
            scalar_list_join(&mut want, &mut r.clone(), &mut s.clone(), &mut |a, b| {
                want_seq.push((a.id.0, b.id.0));
            });
            let mut got_seq = Vec::new();
            reused.join(&mut r.clone(), &mut s.clone(), &mut |a, b| {
                got_seq.push((a.id.0, b.id.0));
            });
            assert_eq!(got_seq, want_seq, "join of {n} records");
            assert_eq!(reused.counters(), want);
        }
        assert!(want.results > 0);
    }
}
