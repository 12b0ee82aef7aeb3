//! The columnar forward-scan kernel under [`crate::PlaneSweepList`] and PBSM's
//! two-layer mini-joins (DESIGN.md "The forward-scan kernel"); SSSJ's status.

use geom::{Kpe, RecordId};

/// Lanes per block of [`forward_scan`] and [`Status::scan`].
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
/// and their y comparisons are evaluated branch-free into eight lanes, which
/// `hit_lanes` skips on one branch when none hit. The bound check is written
/// positively (`<=` / `>=`), so a NaN last key or bound fails it and the
/// scalar loop below, which never stops at a NaN, decides.
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
        let mut lanes = [false; BLOCK];
        for (lane, overlaps) in lanes.iter_mut().enumerate() {
            *overlaps = (!LO || cur_yl <= h[lane]) & (!HI || l[lane] <= cur_yh);
        }
        hit_lanes(&lanes, |lane| hit(from + i + lane));
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

/// Calls `hit(lane)` for each lane of a block that hit, in ascending order.
/// The lanes are OR-reduced first, so a block that hit nothing — most of a
/// long scan — costs one branch; the compares that fill `lanes` stay packed.
#[inline(always)]
fn hit_lanes(lanes: &[bool; BLOCK], mut hit: impl FnMut(usize)) {
    if lanes.iter().fold(false, |any, &l| any | l) {
        for lane in (0..BLOCK).filter(|&lane| lanes[lane]) {
            hit(lane);
        }
    }
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

/// SSSJ's sweep-line status of one relation (DESIGN.md "SSSJ's sweep-line status").
#[derive(Debug, Default)]
pub struct Status {
    xh: Vec<f64>,
    yl: Vec<f64>,
    yh: Vec<f64>,
    id: Vec<RecordId>,
}

impl Status {
    pub fn push(&mut self, k: &Kpe) {
        self.xh.push(k.rect.xh);
        self.yl.push(k.rect.yl);
        self.yh.push(k.rect.yh);
        self.id.push(k.id);
    }

    pub fn len(&self) -> usize {
        self.id.len()
    }

    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Tests `[yl, yh]` against each record in index order, evicting it first
    /// (`swap_remove`) if `xh < x`; counts into `tests`, calls `hit(id)` per
    /// match. `BLOCK` records all `xh >= x` go at once: eight lanes compared
    /// branch-free, then `hit_lanes`.
    pub fn scan(
        &mut self,
        x: f64,
        yl: f64,
        yh: f64,
        tests: &mut u64,
        mut hit: impl FnMut(RecordId),
    ) {
        let mut i = 0;
        let fresh = |xh: &[f64]| xh.iter().fold(true, |all, &h| all & (h >= x));
        while i < self.id.len() {
            if i + BLOCK <= self.id.len() && fresh(&self.xh[i..i + BLOCK]) {
                let (l, h) = (&self.yl[i..i + BLOCK], &self.yh[i..i + BLOCK]);
                let mut lanes = [false; BLOCK];
                for (lane, overlaps) in lanes.iter_mut().enumerate() {
                    *overlaps = (l[lane] <= yh) & (yl <= h[lane]);
                }
                hit_lanes(&lanes, |lane| hit(self.id[i + lane]));
                (*tests, i) = (*tests + BLOCK as u64, i + BLOCK);
            } else if self.xh[i] < x {
                self.xh.swap_remove(i);
                self.yl.swap_remove(i);
                self.yh.swap_remove(i);
                self.id.swap_remove(i);
            } else {
                *tests += 1;
                if self.yl[i] <= yh && yl <= self.yh[i] {
                    hit(self.id[i]);
                }
                i += 1;
            }
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

    /// Wide x-intervals, as in [`lattice_kpes`], so scans run through full
    /// blocks, but each y-interval is one of `ROWS` thin rows `[row, row +
    /// 1/2]`: two records meet only on the same row, so most full blocks hit
    /// nothing and many hit in one lane only — the first, the last, any.
    fn sparse_kpes() -> impl Strategy<Value = Vec<Kpe>> {
        prop::collection::vec((0u8..6, 0u8..7, 0u8..ROWS), 0..81).prop_map(|v| {
            v.into_iter()
                .enumerate()
                .map(|(i, (x, w, row))| Kpe::new(RecordId(i as u64), sparse_rect(x, x + w, row)))
                .collect()
        })
    }

    const ROWS: u8 = 24;

    fn sparse_rect(xl: u8, xh: u8, row: u8) -> Rect {
        let (cell, row) = (|n: u8| f64::from(n) / 8.0, f64::from(row));
        Rect::new(cell(xl), row, cell(xh), row + 0.5)
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

    /// SSSJ's `sweep_step` before [`Status`], its status a `Vec<Kpe>`.
    fn aos_sweep_step(
        cur: &Kpe,
        other_active: &mut Vec<Kpe>,
        counters: &mut JoinCounters,
        emit: &mut dyn FnMut(&Kpe),
    ) {
        let x = cur.rect.xl;
        let mut i = 0;
        while i < other_active.len() {
            if other_active[i].rect.xh < x {
                other_active.swap_remove(i);
                continue;
            }
            counters.tests += 1;
            let e = &other_active[i];
            if e.rect.yl <= cur.rect.yh && cur.rect.yl <= e.rect.yh {
                counters.results += 1;
                emit(e);
            }
            i += 1;
        }
    }

    /// Replays `ops` — `(true, k)` pushes `k`, `(false, k)` scans with
    /// `k`'s `xl` and y-interval — on a [`Status`] and on the `Vec<Kpe>`
    /// reference: after every step the same tests, the same hit sequence
    /// and the same surviving records in the same order.
    fn assert_status_matches_aos(ops: &[(bool, Kpe)]) -> Result<(), TestCaseError> {
        let (mut got, mut want) = (Status::default(), Vec::new());
        for (step, &(push, k)) in ops.iter().enumerate() {
            if push {
                got.push(&k);
                want.push(k);
            } else {
                let mut counters = JoinCounters::default();
                let mut want_hits = Vec::new();
                aos_sweep_step(&k, &mut want, &mut counters, &mut |e| want_hits.push(e.id));
                let (mut tests, mut hits) = (0, Vec::new());
                got.scan(k.rect.xl, k.rect.yl, k.rect.yh, &mut tests, |id| hits.push(id));
                prop_assert_eq!((tests, hits), (counters.tests, want_hits), "step {}", step);
            }
            let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            let column =
                |f: fn(&Kpe) -> f64| want.iter().map(|k| f(k).to_bits()).collect::<Vec<_>>();
            let ids: Vec<RecordId> = want.iter().map(|k| k.id).collect();
            prop_assert_eq!(got.len(), want.len());
            prop_assert_eq!(&got.id, &ids, "step {}", step);
            prop_assert_eq!(bits(&got.xh), column(|k| k.rect.xh));
            prop_assert_eq!(bits(&got.yl), column(|k| k.rect.yl));
            prop_assert_eq!(bits(&got.yh), column(|k| k.rect.yh));
        }
        Ok(())
    }

    /// Up to 150 steps, three in four a push, so the status grows through
    /// several blocks while scans evict records at every position of one.
    /// Record `i` of the returned steps has id `i`; its coordinates come
    /// from `values`.
    fn status_ops(values: &'static [f64]) -> impl Strategy<Value = Vec<(bool, Kpe)>> {
        let n = values.len();
        prop::collection::vec((0u8..4, 0..n, 0..n, 0..n, 0..n), 0..151).prop_map(move |v| {
            v.into_iter()
                .enumerate()
                .map(|(i, (kind, xl, yl, xh, yh))| {
                    let rect = Rect {
                        xl: values[xl],
                        yl: values[yl],
                        xh: values[xh],
                        yh: values[yh],
                    };
                    (kind != 0, Kpe { id: RecordId(i as u64), rect })
                })
                .collect()
        })
    }

    /// [`status_ops`] with [`sparse_kpes`]' rectangles: x on the lattice,
    /// so scans evict, y on thin rows, so most full blocks hit nothing.
    fn sparse_status_ops() -> impl Strategy<Value = Vec<(bool, Kpe)>> {
        prop::collection::vec((0u8..4, 0u8..8, 0u8..8, 0u8..ROWS), 0..151).prop_map(|v| {
            v.into_iter()
                .enumerate()
                .map(|(i, (kind, xl, xh, row))| {
                    let rect = sparse_rect(xl.min(xh), xl.max(xh), row);
                    (kind != 0, Kpe::new(RecordId(i as u64), rect))
                })
                .collect()
        })
    }

    const LATTICE: [f64; 9] = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The columnar status against SSSJ's record-at-a-time step.
        #[test]
        fn prop_status_matches_aos_sweep_step(ops in status_ops(&LATTICE)) {
            assert_status_matches_aos(&ops)?;
        }

        /// The same on signed zeros, infinities and NaNs: a NaN `xh` is
        /// never evicted, and a NaN sweep line evicts nothing.
        #[test]
        fn prop_status_matches_aos_sweep_step_on_non_finite_input(ops in status_ops(&ODD)) {
            assert_status_matches_aos(&ops)?;
        }

        /// The same where hits are sparse: a block is skipped on one test,
        /// and a lone hit in any lane must still come out.
        #[test]
        fn prop_status_matches_aos_sweep_step_on_sparse_hits(ops in sparse_status_ops()) {
            assert_status_matches_aos(&ops)?;
        }

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

        /// Thin y-intervals: most full blocks hit nothing, some hit in one
        /// lane only, and every instantiation must still report each hit.
        #[test]
        fn prop_kernel_matches_scalar_scans_on_sparse_hits(r in sparse_kpes(), s in sparse_kpes()) {
            assert_kernel_matches_scalar(&r, &s)?;
        }
    }

    /// One full block whose only hit is lane `lane`, for every lane, through
    /// both kernels.
    #[test]
    fn a_lone_hit_in_any_lane_is_reported() {
        for lane in 0..BLOCK {
            let block: Vec<Kpe> = (0..BLOCK)
                .map(|i| {
                    let row = if i == lane { 0 } else { 1 + i as u8 };
                    Kpe::new(RecordId(i as u64), sparse_rect(0, 1, row))
                })
                .collect();
            let probe = sparse_rect(0, 1, 0);
            let mut strip = Strip::default();
            strip.fill(&block, |k| k.rect.xl);
            let (mut tests, mut hits) = (0, Vec::new());
            forward_scan::<true, true, true>(
                &strip,
                0,
                probe.xh,
                probe.yl,
                probe.yh,
                &mut tests,
                |k| hits.push(k),
            );
            assert_eq!(
                (tests, hits),
                (BLOCK as u64, vec![lane]),
                "forward_scan, lane {lane}"
            );

            let mut status = Status::default();
            block.iter().for_each(|k| status.push(k));
            let (mut tests, mut hits) = (0, Vec::new());
            status.scan(probe.xl, probe.yl, probe.yh, &mut tests, |id| hits.push(id));
            assert_eq!(
                (tests, hits),
                (BLOCK as u64, vec![RecordId(lane as u64)]),
                "Status::scan, lane {lane}"
            );
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
