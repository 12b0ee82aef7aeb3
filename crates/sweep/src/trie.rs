use geom::Kpe;

use crate::{InternalJoin, JoinCounters};

const NONE: u32 = u32::MAX;
/// Maximum trie depth; cells of depth 24 are far finer than any dataset.
const MAX_DEPTH: u8 = 24;

/// Plane sweep with the sweep-line status organised as an **interval trie**
/// (paper §3.2.2).
///
/// Both relations are sorted by `xl` and swept together. The active
/// rectangles of each relation (those whose x-interval the sweep line stabs)
/// are held in a binary trie over the y-axis: an interval is stored at the
/// lowest trie node whose region contains it, just like the 1-d version of
/// an MX-CIF quadtree. A new rectangle queries the *other* relation's trie —
/// descending only into nodes whose y-region overlaps it — and then inserts
/// itself into its own trie. Stale entries (right edge behind the sweep
/// line) are removed lazily during queries.
///
/// Compared to the list sweep, the trie prunes by y *before* testing, so the
/// cost per rectangle no longer grows with everything the sweep line stabs;
/// compared to the dynamic interval trees of [APR+ 98], trie node boundaries
/// are fixed halves of the data space, so no rebalancing is ever needed.
pub struct PlaneSweepTrie {
    counters: JoinCounters,
}

impl Default for PlaneSweepTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl PlaneSweepTrie {
    pub fn new() -> Self {
        PlaneSweepTrie {
            counters: JoinCounters::default(),
        }
    }
}

struct Node {
    children: [u32; 2],
    entries: Vec<Kpe>,
    /// Live entries in this node and below — lets queries skip subtrees
    /// that hold nothing (lazy deletions leave many such nodes behind).
    subtree: u32,
}

impl Node {
    fn new() -> Self {
        Node {
            children: [NONE, NONE],
            entries: Vec::new(),
            subtree: 0,
        }
    }
}

/// One relation's sweep-line status.
struct Trie {
    nodes: Vec<Node>,
    lo: f64,
    hi: f64,
}

impl Trie {
    fn new(lo: f64, hi: f64) -> Self {
        Trie {
            nodes: vec![Node::new()],
            lo,
            hi,
        }
    }

    fn insert(&mut self, k: Kpe) {
        let (mut lo, mut hi) = (self.lo, self.hi);
        let mut idx = 0usize;
        for _ in 0..MAX_DEPTH {
            self.nodes[idx].subtree += 1;
            let mid = (lo + hi) * 0.5;
            let side = if k.rect.yh < mid {
                hi = mid;
                0
            } else if k.rect.yl > mid {
                lo = mid;
                1
            } else {
                // Spans the midpoint: canonical node found.
                self.nodes[idx].subtree -= 1;
                break;
            };
            let next = self.nodes[idx].children[side];
            idx = if next == NONE {
                let new = self.nodes.len() as u32;
                self.nodes.push(Node::new());
                self.nodes[idx].children[side] = new;
                new as usize
            } else {
                next as usize
            };
        }
        self.nodes[idx].subtree += 1;
        self.nodes[idx].entries.push(k);
    }

    /// Reports all stored entries y-overlapping `q` that are still active at
    /// sweep position `x_cur`; drops stale entries on the way. Returns the
    /// number of stale entries dropped in the subtree (so ancestors can fix
    /// their counts).
    fn query(
        &mut self,
        q: &Kpe,
        x_cur: f64,
        counters: &mut JoinCounters,
        emit: &mut dyn FnMut(&Kpe),
    ) {
        self.query_rec(0, self.lo, self.hi, q, x_cur, counters, emit);
    }

    #[allow(clippy::too_many_arguments)]
    fn query_rec(
        &mut self,
        idx: usize,
        lo: f64,
        hi: f64,
        q: &Kpe,
        x_cur: f64,
        counters: &mut JoinCounters,
        emit: &mut dyn FnMut(&Kpe),
    ) -> u32 {
        // Prune empty subtrees and regions missing the query's y-interval.
        if self.nodes[idx].subtree == 0 || q.rect.yh < lo || q.rect.yl > hi {
            return 0;
        }
        counters.node_visits += 1;
        let node = &mut self.nodes[idx];
        let mut removed = 0u32;
        let mut i = 0;
        while i < node.entries.len() {
            let e = node.entries[i];
            if e.rect.xh < x_cur {
                node.entries.swap_remove(i); // stale: sweep line passed it
                removed += 1;
                continue;
            }
            counters.tests += 1;
            if e.rect.yl <= q.rect.yh && q.rect.yl <= e.rect.yh {
                counters.results += 1;
                emit(&node.entries[i]);
            }
            i += 1;
        }
        let mid = (lo + hi) * 0.5;
        let [l, r] = self.nodes[idx].children;
        if l != NONE {
            removed += self.query_rec(l as usize, lo, mid, q, x_cur, counters, emit);
        }
        if r != NONE {
            removed += self.query_rec(r as usize, mid, hi, q, x_cur, counters, emit);
        }
        self.nodes[idx].subtree -= removed;
        removed
    }
}

impl InternalJoin for PlaneSweepTrie {
    fn join(&mut self, r: &mut [Kpe], s: &mut [Kpe], out: &mut dyn FnMut(&Kpe, &Kpe)) {
        if r.is_empty() || s.is_empty() {
            return;
        }
        self.counters.swept += (r.len() + s.len()) as u64;
        r.sort_unstable_by(|a, b| a.rect.xl.total_cmp(&b.rect.xl));
        s.sort_unstable_by(|a, b| a.rect.xl.total_cmp(&b.rect.xl));

        // Root y-range covering both inputs (trie boundaries are data-space
        // halves of this range).
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for k in r.iter().chain(s.iter()) {
            lo = lo.min(k.rect.yl);
            hi = hi.max(k.rect.yh);
        }
        if hi <= lo {
            hi = lo + 1.0; // degenerate: all y equal
        }
        let mut trie_r = Trie::new(lo, hi);
        let mut trie_s = Trie::new(lo, hi);

        let (mut i, mut j) = (0usize, 0usize);
        while i < r.len() || j < s.len() {
            let take_r = j >= s.len() || (i < r.len() && r[i].rect.xl <= s[j].rect.xl);
            if take_r {
                let cur = r[i];
                trie_s.query(&cur, cur.rect.xl, &mut self.counters, &mut |e| {
                    out(&cur, e)
                });
                trie_r.insert(cur);
                i += 1;
            } else {
                let cur = s[j];
                trie_r.query(&cur, cur.rect.xl, &mut self.counters, &mut |e| {
                    out(e, &cur)
                });
                trie_s.insert(cur);
                j += 1;
            }
        }
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
    use crate::testutil::{brute_force, random_kpes};
    use proptest::prelude::*;

    #[test]
    fn trie_handles_degenerate_equal_y() {
        // All rects on one horizontal line.
        let mut r: Vec<Kpe> = random_kpes(30, 0.1, 9);
        for k in r.iter_mut() {
            k.rect.yl = 0.5;
            k.rect.yh = 0.5;
        }
        let want = brute_force(&r, &r);
        let mut j = PlaneSweepTrie::new();
        let mut got = Vec::new();
        let (mut a, mut b) = (r.clone(), r.clone());
        j.join(&mut a, &mut b, &mut |x, y| got.push((x.id.0, y.id.0)));
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn lazy_deletion_removes_stale_entries() {
        // Two clusters far apart in x: by the time the second cluster is
        // swept, the first cluster's entries must have been dropped.
        let mut all = Vec::new();
        for i in 0..20u64 {
            let y = i as f64 / 40.0;
            all.push(Kpe::new(
                geom::RecordId(i),
                geom::Rect::new(0.0, y, 0.01, y + 0.2),
            ));
        }
        for i in 20..40u64 {
            let y = (i - 20) as f64 / 40.0;
            all.push(Kpe::new(
                geom::RecordId(i),
                geom::Rect::new(0.9, y, 0.91, y + 0.2),
            ));
        }
        let want = brute_force(&all, &all);
        let mut j = PlaneSweepTrie::new();
        let mut got = Vec::new();
        let (mut a, mut b) = (all.clone(), all.clone());
        j.join(&mut a, &mut b, &mut |x, y| got.push((x.id.0, y.id.0)));
        got.sort_unstable();
        assert_eq!(got, want);
        // No pair across the two clusters.
        assert!(got.iter().all(|&(x, y)| (x < 20) == (y < 20)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_trie_matches_brute_force(seed_r in 0u64..1000, seed_s in 1000u64..2000,
                                         n in 1usize..120, edge in 0.001f64..0.4) {
            let r = random_kpes(n, edge, seed_r);
            let s = random_kpes(n, edge, seed_s);
            let want = brute_force(&r, &s);
            let mut j = PlaneSweepTrie::new();
            let (mut a, mut b) = (r.clone(), s.clone());
            let mut got = Vec::new();
            j.join(&mut a, &mut b, &mut |x, y| got.push((x.id.0, y.id.0)));
            got.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
