//! An STR-bulk-loaded R-tree and the synchronized R-tree join of [BKS 93].
//!
//! The paper's related work classifies spatial joins by index availability;
//! the *index on both relations* class is dominated by the synchronized
//! R-tree traversal of Brinkhoff, Kriegel & Seeger. This crate supplies that
//! baseline so the no-index algorithms (PBSM, S³J, SSSJ) can be put in
//! context: when indices pre-exist, the join skips partitioning entirely.
//!
//! * [`RTree::bulk`] — Sort-Tile-Recursive bulk loading (near-100% fill,
//!   balanced, the standard way to build a join-ready R-tree from scratch),
//! * [`RTree::window_query`] — classic window search,
//! * [`rtree_join`] — synchronized traversal with the [BKS 93]
//!   restricted-search-space optimisation: child pairs are only tested
//!   within the intersection of the parents' MBRs, and entries of a node
//!   pair are matched with a mini plane sweep instead of all pairs.

use geom::{Kpe, Rect, RecordId};

/// Maximum entries per node (fanout). The paper-era value for 8 KiB pages
/// and ~40-byte entries.
pub const DEFAULT_FANOUT: usize = 64;

#[derive(Debug, Clone, Copy)]
struct Entry {
    rect: Rect,
    /// Child node index for inner nodes; record id for leaves.
    child: u32,
    id: RecordId,
}

#[derive(Debug)]
struct Node {
    entries: Vec<Entry>,
    leaf: bool,
}

/// A bulk-loaded R-tree over a set of KPEs.
pub struct RTree {
    nodes: Vec<Node>,
    root: u32,
    height: u32,
    len: usize,
    fanout: usize,
}

/// Work counters of a join or query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RtreeStats {
    /// Node(-pair) visits.
    pub node_visits: u64,
    /// Rectangle comparisons.
    pub tests: u64,
}

impl RTree {
    /// Sort-Tile-Recursive bulk loading ([Leutenegger et al. 97]): sort by
    /// x-centre, cut into vertical slices of `⌈√(n/f)⌉·f` records, sort each
    /// slice by y-centre, pack runs of `f` into leaves; repeat upward.
    pub fn bulk(data: &[Kpe], fanout: usize) -> RTree {
        let fanout = fanout.max(2);
        let mut tree = RTree {
            nodes: Vec::new(),
            root: 0,
            height: 0,
            len: data.len(),
            fanout,
        };
        if data.is_empty() {
            tree.nodes.push(Node {
                entries: Vec::new(),
                leaf: true,
            });
            return tree;
        }
        // Level 0: pack the records themselves.
        let mut items: Vec<Entry> = data
            .iter()
            .map(|k| Entry {
                rect: k.rect,
                child: 0,
                id: k.id,
            })
            .collect();
        let mut leaf = true;
        loop {
            let level_nodes = tree.pack_level(&mut items, leaf);
            leaf = false;
            tree.height += 1;
            if level_nodes.len() == 1 {
                tree.root = level_nodes[0].child;
                break;
            }
            items = level_nodes;
        }
        tree
    }

    /// Packs one level of `items` into nodes, returning the parent entries.
    fn pack_level(&mut self, items: &mut [Entry], leaf: bool) -> Vec<Entry> {
        let f = self.fanout;
        let n = items.len();
        let node_count = n.div_ceil(f);
        let slices = (node_count as f64).sqrt().ceil() as usize;
        let slice_len = n.div_ceil(slices);
        items.sort_unstable_by(|a, b| {
            (a.rect.xl + a.rect.xh).total_cmp(&(b.rect.xl + b.rect.xh))
        });
        let mut parents = Vec::with_capacity(node_count);
        for slice in items.chunks_mut(slice_len) {
            slice.sort_unstable_by(|a, b| {
                (a.rect.yl + a.rect.yh).total_cmp(&(b.rect.yl + b.rect.yh))
            });
            for group in slice.chunks(f) {
                let mut mbr = group[0].rect;
                for e in &group[1..] {
                    mbr = mbr.union(&e.rect);
                }
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node {
                    entries: group.to_vec(),
                    leaf,
                });
                parents.push(Entry {
                    rect: mbr,
                    child: idx,
                    id: RecordId(0),
                });
            }
        }
        parents
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height in levels (1 = a single leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// MBR of the whole tree (None when empty).
    pub fn bounds(&self) -> Option<Rect> {
        let root = &self.nodes[self.root as usize];
        let mut it = root.entries.iter();
        let first = it.next()?.rect;
        Some(it.fold(first, |acc, e| acc.union(&e.rect)))
    }

    /// All records intersecting `query`.
    pub fn window_query(&self, query: &Rect, out: &mut dyn FnMut(RecordId, &Rect)) -> RtreeStats {
        let mut stats = RtreeStats::default();
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            stats.node_visits += 1;
            let node = &self.nodes[idx as usize];
            for e in &node.entries {
                stats.tests += 1;
                if e.rect.intersects(query) {
                    if node.leaf {
                        out(e.id, &e.rect);
                    } else {
                        stack.push(e.child);
                    }
                }
            }
        }
        stats
    }
}

/// Synchronized R-tree join ([BKS 93]): joins all leaf-entry pairs with
/// intersecting rectangles, exactly once, in `(r, s)` orientation.
///
/// Handles trees of different heights by descending the taller tree first
/// until the frontier levels match.
pub fn rtree_join(r: &RTree, s: &RTree, out: &mut dyn FnMut(&Kpe, &Kpe)) -> RtreeStats {
    let mut stats = RtreeStats::default();
    if r.is_empty() || s.is_empty() {
        return stats;
    }
    join_nodes(r, s, r.root, s.root, r.height, s.height, &mut stats, out);
    stats
}

#[allow(clippy::too_many_arguments)]
fn join_nodes(
    r: &RTree,
    s: &RTree,
    nr: u32,
    ns: u32,
    hr: u32,
    hs: u32,
    stats: &mut RtreeStats,
    out: &mut dyn FnMut(&Kpe, &Kpe),
) {
    stats.node_visits += 1;
    let node_r = &r.nodes[nr as usize];
    let node_s = &s.nodes[ns as usize];
    // Different remaining heights: descend the taller side only.
    if hr > hs {
        for e in &node_r.entries {
            stats.tests += 1;
            if rect_of(node_s).intersects(&e.rect) {
                join_nodes(r, s, e.child, ns, hr - 1, hs, stats, out);
            }
        }
        return;
    }
    if hs > hr {
        for e in &node_s.entries {
            stats.tests += 1;
            if rect_of(node_r).intersects(&e.rect) {
                join_nodes(r, s, nr, e.child, hr, hs - 1, stats, out);
            }
        }
        return;
    }
    // Same level: match entries with a mini plane sweep over xl ([BKS 93]
    // §4.2), restricted to the intersection of the parents' MBRs.
    let mut er: Vec<&Entry> = node_r.entries.iter().collect();
    let mut es: Vec<&Entry> = node_s.entries.iter().collect();
    er.sort_unstable_by(|a, b| a.rect.xl.total_cmp(&b.rect.xl));
    es.sort_unstable_by(|a, b| a.rect.xl.total_cmp(&b.rect.xl));
    let (mut i, mut j) = (0usize, 0usize);
    let mut emit = |a: &Entry, b: &Entry, stats: &mut RtreeStats| {
        if node_r.leaf {
            out(
                &Kpe::new(a.id, a.rect),
                &Kpe::new(b.id, b.rect),
            );
        } else {
            join_nodes(r, s, a.child, b.child, hr - 1, hs - 1, stats, out);
        }
    };
    while i < er.len() && j < es.len() {
        if er[i].rect.xl <= es[j].rect.xl {
            let a = er[i];
            for b in &es[j..] {
                if b.rect.xl > a.rect.xh {
                    break;
                }
                stats.tests += 1;
                if a.rect.yl <= b.rect.yh && b.rect.yl <= a.rect.yh {
                    emit(a, b, stats);
                }
            }
            i += 1;
        } else {
            let b = es[j];
            for a in &er[i..] {
                if a.rect.xl > b.rect.xh {
                    break;
                }
                stats.tests += 1;
                if a.rect.yl <= b.rect.yh && b.rect.yl <= a.rect.yh {
                    emit(a, b, stats);
                }
            }
            j += 1;
        }
    }
}

fn rect_of(n: &Node) -> Rect {
    let mut it = n.entries.iter();
    let first = it.next().expect("non-empty node").rect;
    it.fold(first, |acc, e| acc.union(&e.rect))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn random_kpes(n: usize, max_edge: f64, seed: u64) -> Vec<Kpe> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x = rng.gen_range(0.0..1.0);
                let y = rng.gen_range(0.0..1.0);
                let w = rng.gen_range(0.0..max_edge);
                let h = rng.gen_range(0.0..max_edge);
                Kpe::new(
                    RecordId(i as u64),
                    Rect::new(x, y, (x + w).min(1.0), (y + h).min(1.0)),
                )
            })
            .collect()
    }

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

    #[test]
    fn bulk_load_is_balanced_and_complete() {
        let data = random_kpes(10_000, 0.01, 1);
        let t = RTree::bulk(&data, 64);
        assert_eq!(t.len(), 10_000);
        // Height of a packed tree: ceil(log_64(10000/64)) + 1 levels.
        assert!(t.height() == 2 || t.height() == 3, "height {}", t.height());
        // Every record is found by a full-space query.
        let mut n = 0;
        t.window_query(&Rect::unit().expanded(1.0), &mut |_, _| n += 1);
        assert_eq!(n, 10_000);
    }

    #[test]
    fn window_query_matches_scan() {
        let data = random_kpes(3_000, 0.03, 2);
        let t = RTree::bulk(&data, 32);
        for q in [
            Rect::new(0.1, 0.1, 0.3, 0.4),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.77, 0.02, 0.78, 0.03),
        ] {
            let mut got: Vec<u64> = Vec::new();
            let stats = t.window_query(&q, &mut |id, _| got.push(id.0));
            got.sort_unstable();
            let mut want: Vec<u64> = data
                .iter()
                .filter(|k| k.rect.intersects(&q))
                .map(|k| k.id.0)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
            // The point of the index: selective queries touch few nodes.
            if want.len() < 20 {
                assert!(stats.node_visits < t.node_count() as u64 / 2);
            }
        }
    }

    #[test]
    fn join_matches_brute_force() {
        let r = random_kpes(2_000, 0.01, 3);
        let s = random_kpes(2_500, 0.015, 4);
        let tr = RTree::bulk(&r, 32);
        let ts = RTree::bulk(&s, 32);
        let mut got = Vec::new();
        rtree_join(&tr, &ts, &mut |a, b| got.push((a.id.0, b.id.0)));
        got.sort_unstable();
        assert_eq!(got, brute(&r, &s));
    }

    #[test]
    fn join_handles_different_heights() {
        let r = random_kpes(50, 0.05, 5); // single leaf with fanout 64
        let s = random_kpes(5_000, 0.01, 6); // multi-level
        let tr = RTree::bulk(&r, 64);
        let ts = RTree::bulk(&s, 64);
        assert!(tr.height() < ts.height());
        let mut got = Vec::new();
        rtree_join(&tr, &ts, &mut |a, b| got.push((a.id.0, b.id.0)));
        got.sort_unstable();
        assert_eq!(got, brute(&r, &s));
        // And the mirrored orientation.
        let mut rev = Vec::new();
        rtree_join(&ts, &tr, &mut |a, b| rev.push((b.id.0, a.id.0)));
        rev.sort_unstable();
        assert_eq!(rev, got);
    }

    #[test]
    fn join_with_empty_tree() {
        let r = random_kpes(100, 0.05, 7);
        let tr = RTree::bulk(&r, 16);
        let te = RTree::bulk(&[], 16);
        let mut got = Vec::new();
        rtree_join(&tr, &te, &mut |_, _| got.push(()));
        rtree_join(&te, &tr, &mut |_, _| got.push(()));
        assert!(got.is_empty());
    }

    #[test]
    fn join_does_far_fewer_tests_than_nested_loops() {
        let r = random_kpes(5_000, 0.005, 8);
        let s = random_kpes(5_000, 0.005, 9);
        let tr = RTree::bulk(&r, 64);
        let ts = RTree::bulk(&s, 64);
        let stats = rtree_join(&tr, &ts, &mut |_, _| {});
        assert!(
            stats.tests < 25_000_000 / 20,
            "tests = {} (no pruning?)",
            stats.tests
        );
    }

    #[test]
    fn tiger_data_join() {
        let r = datagen::sized(&datagen::la_rr_config(9), 0.01).generate();
        let s = datagen::sized(&datagen::la_st_config(9), 0.01).generate();
        let tr = RTree::bulk(&r, 64);
        let ts = RTree::bulk(&s, 64);
        let mut got = Vec::new();
        rtree_join(&tr, &ts, &mut |a, b| got.push((a.id.0, b.id.0)));
        got.sort_unstable();
        assert_eq!(got, brute(&r, &s));
    }

    #[test]
    fn bounds_covers_everything() {
        let data = random_kpes(500, 0.05, 10);
        let t = RTree::bulk(&data, 16);
        let b = t.bounds().unwrap();
        for k in &data {
            assert!(b.contains_rect(&k.rect));
        }
    }
}

/// "Index on one relation" join: for every probe rectangle, a window query
/// against the indexed relation ([LR 94] motivates smarter seeded trees,
/// but index nested loops is the canonical baseline of that class).
///
/// Emits ordered pairs `(indexed, probe)`; each intersecting pair exactly
/// once. Returns the accumulated query stats.
pub fn index_nested_loop_join(
    indexed: &RTree,
    probe: &[Kpe],
    out: &mut dyn FnMut(&Kpe, &Kpe),
) -> RtreeStats {
    let mut stats = RtreeStats::default();
    for p in probe {
        let q = indexed.window_query(&p.rect, &mut |id, rect| {
            out(&Kpe::new(id, *rect), p);
        });
        stats.node_visits += q.node_visits;
        stats.tests += q.tests;
    }
    stats
}

#[cfg(test)]
mod inl_tests {
    use super::*;

    #[test]
    fn index_nested_loop_matches_synchronized_join() {
        let r = datagen::sized(&datagen::la_rr_config(19), 0.01).generate();
        let s = datagen::sized(&datagen::la_st_config(19), 0.01).generate();
        let tr = RTree::bulk(&r, 48);
        let ts = RTree::bulk(&s, 48);
        let mut sync = Vec::new();
        rtree_join(&tr, &ts, &mut |a, b| sync.push((a.id.0, b.id.0)));
        sync.sort_unstable();
        let mut inl = Vec::new();
        index_nested_loop_join(&tr, &s, &mut |a, b| inl.push((a.id.0, b.id.0)));
        inl.sort_unstable();
        assert_eq!(inl, sync);
    }

    #[test]
    fn synchronized_join_visits_fewer_nodes_than_inl() {
        // The reason [BKS 93] synchronizes: one traversal instead of |S|
        // root-to-leaf descents.
        let r = datagen::uniform(4000, 0.003, 20);
        let s = datagen::uniform(4000, 0.003, 21);
        let tr = RTree::bulk(&r, 48);
        let ts = RTree::bulk(&s, 48);
        let sync = rtree_join(&tr, &ts, &mut |_, _| {});
        let inl = index_nested_loop_join(&tr, &s, &mut |_, _| {});
        assert!(
            sync.node_visits < inl.node_visits,
            "sync {} vs inl {}",
            sync.node_visits,
            inl.node_visits
        );
    }

    #[test]
    fn inl_with_empty_sides() {
        let r = datagen::uniform(100, 0.01, 22);
        let tr = RTree::bulk(&r, 16);
        let mut n = 0;
        index_nested_loop_join(&tr, &[], &mut |_, _| n += 1);
        assert_eq!(n, 0);
        let te = RTree::bulk(&[], 16);
        index_nested_loop_join(&te, &r, &mut |_, _| n += 1);
        assert_eq!(n, 0);
    }
}
