//! A from-scratch R-tree over axis-aligned rectangles.
//!
//! Used by the place store for spatial lookups over the (static) place set,
//! by the naïve baselines, and by the "most influential sites" style
//! extensions. Supports STR bulk loading, incremental insertion with
//! quadratic splits, deletion with subtree reinsertion, rectangle range
//! queries, and best-first k-nearest-neighbour search.

use crate::circle::Circle;
use crate::point::Point;
use crate::rect::Rect;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Maximum number of entries per node.
const MAX_ENTRIES: usize = 16;
/// Minimum fill of a node after a split or deletion (40% of max).
const MIN_ENTRIES: usize = 6;

/// An R-tree mapping rectangles to payloads of type `T`.
///
/// Point data is stored as degenerate rectangles via [`Rect::point`].
#[derive(Debug, Clone)]
pub struct RTree<T> {
    root: Option<Node<T>>,
    len: usize,
}

#[derive(Debug, Clone)]
struct Node<T> {
    bbox: Rect,
    kind: Kind<T>,
}

#[derive(Debug, Clone)]
enum Kind<T> {
    Leaf(Vec<(Rect, T)>),
    Inner(Vec<Node<T>>),
}

trait HasBBox {
    fn bbox(&self) -> Rect;
}

impl<T> HasBBox for (Rect, T) {
    #[inline]
    fn bbox(&self) -> Rect {
        self.0
    }
}

impl<T> HasBBox for Node<T> {
    #[inline]
    fn bbox(&self) -> Rect {
        self.bbox
    }
}

fn bbox_of<E: HasBBox>(items: &[E]) -> Rect {
    items
        .iter()
        .fold(Rect::empty(), |acc, e| acc.union(&e.bbox()))
}

/// Size of the next chunk when packing `remaining` items into nodes, chosen
/// so that no chunk (in particular the last one) falls below the minimum
/// fill: if taking a full node would strand fewer than `MIN_ENTRIES` items,
/// leave exactly `MIN_ENTRIES` behind instead.
fn packing_chunk(remaining: usize) -> usize {
    if remaining <= MAX_ENTRIES {
        remaining
    } else if remaining - MAX_ENTRIES >= MIN_ENTRIES {
        MAX_ENTRIES
    } else {
        remaining - MIN_ENTRIES
    }
}

/// Quadratic split (Guttman): pick the pair of seeds wasting the most area,
/// then greedily assign remaining items by area-enlargement preference while
/// honouring the minimum fill.
fn quadratic_split<E: HasBBox>(mut items: Vec<E>) -> (Vec<E>, Vec<E>) {
    debug_assert!(items.len() > MAX_ENTRIES);
    // Seed selection.
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            let a = items[i].bbox();
            let b = items[j].bbox();
            let waste = a.union(&b).area() - a.area() - b.area();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    // Remove seeds (higher index first so the lower stays valid).
    let seed2 = items.swap_remove(s2);
    let seed1 = items.swap_remove(s1);
    let mut g1 = vec![seed1];
    let mut g2 = vec![seed2];
    let mut b1 = g1[0].bbox();
    let mut b2 = g2[0].bbox();

    while let Some(item) = items.pop() {
        let remaining = items.len();
        // Force assignment when a group needs every remaining item to reach
        // the minimum fill.
        if g1.len() + remaining < MIN_ENTRIES {
            b1 = b1.union(&item.bbox());
            g1.push(item);
            continue;
        }
        if g2.len() + remaining < MIN_ENTRIES {
            b2 = b2.union(&item.bbox());
            g2.push(item);
            continue;
        }
        let e1 = b1.union(&item.bbox()).area() - b1.area();
        let e2 = b2.union(&item.bbox()).area() - b2.area();
        let to_first = match e1.partial_cmp(&e2).unwrap_or(Ordering::Equal) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => b1.area() <= b2.area(),
        };
        if to_first {
            b1 = b1.union(&item.bbox());
            g1.push(item);
        } else {
            b2 = b2.union(&item.bbox());
            g2.push(item);
        }
    }
    (g1, g2)
}

impl<T> Node<T> {
    fn leaf(entries: Vec<(Rect, T)>) -> Self {
        Node {
            bbox: bbox_of(&entries),
            kind: Kind::Leaf(entries),
        }
    }

    fn inner(children: Vec<Node<T>>) -> Self {
        Node {
            bbox: bbox_of(&children),
            kind: Kind::Inner(children),
        }
    }

    fn recompute_bbox(&mut self) {
        self.bbox = match &self.kind {
            Kind::Leaf(entries) => bbox_of(entries),
            Kind::Inner(children) => bbox_of(children),
        };
    }

    /// Index of the child whose bbox needs the least enlargement to admit
    /// `rect` (ties broken by smaller area).
    fn choose_child(children: &[Node<T>], rect: &Rect) -> usize {
        let mut best = 0;
        let mut best_enl = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for (i, c) in children.iter().enumerate() {
            let area = c.bbox.area();
            let enl = c.bbox.union(rect).area() - area;
            #[expect(
                clippy::float_cmp,
                reason = "an exact tie in enlargement falls through to the area test; a near-tie picking either child is equally valid"
            )]
            if enl < best_enl || (enl == best_enl && area < best_area) {
                best = i;
                best_enl = enl;
                best_area = area;
            }
        }
        best
    }

    /// Inserts and returns a split-off sibling if this node overflowed.
    fn insert(&mut self, rect: Rect, item: T) -> Option<Node<T>> {
        self.bbox = if self.len_entries() == 0 {
            rect
        } else {
            self.bbox.union(&rect)
        };
        match &mut self.kind {
            Kind::Leaf(entries) => {
                entries.push((rect, item));
                if entries.len() > MAX_ENTRIES {
                    let (g1, g2) = quadratic_split(std::mem::take(entries));
                    *entries = g1;
                    self.recompute_bbox();
                    return Some(Node::leaf(g2));
                }
                None
            }
            Kind::Inner(children) => {
                let idx = Self::choose_child(children, &rect);
                if let Some(sibling) = children[idx].insert(rect, item) {
                    children.push(sibling);
                    if children.len() > MAX_ENTRIES {
                        let (g1, g2) = quadratic_split(std::mem::take(children));
                        *children = g1;
                        self.recompute_bbox();
                        return Some(Node::inner(g2));
                    }
                }
                None
            }
        }
    }

    fn len_entries(&self) -> usize {
        match &self.kind {
            Kind::Leaf(e) => e.len(),
            Kind::Inner(c) => c.len(),
        }
    }
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RTree { root: None, len: 0 }
    }

    /// Number of stored items.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bounding box of everything stored, if any.
    pub fn bbox(&self) -> Option<Rect> {
        self.root.as_ref().map(|r| r.bbox)
    }

    /// Inserts an item keyed by `rect`.
    pub fn insert(&mut self, rect: Rect, item: T) {
        self.len += 1;
        match self.root.take() {
            None => self.root = Some(Node::leaf(vec![(rect, item)])),
            Some(mut root) => {
                self.root = Some(match root.insert(rect, item) {
                    Some(sibling) => Node::inner(vec![root, sibling]),
                    None => root,
                });
            }
        }
    }

    /// Inserts a point item.
    pub fn insert_point(&mut self, p: Point, item: T) {
        self.insert(Rect::point(p), item);
    }

    /// Bulk-loads the tree with Sort-Tile-Recursive packing, replacing any
    /// existing contents. Produces near-perfectly packed nodes and is much
    /// faster than repeated insertion.
    pub fn bulk_load(items: Vec<(Rect, T)>) -> Self {
        let len = items.len();
        if len == 0 {
            return RTree::new();
        }
        let mut entries = items;
        // Tile into vertical slabs of ~sqrt(n / MAX) columns.
        let leaf_count = len.div_ceil(MAX_ENTRIES);
        // Ceiling integer square root: the float round-trip would be a
        // truncating cast (`clippy::cast_possible_truncation`) and is
        // inexact above 2^53 anyway.
        let mut slabs = leaf_count.isqrt();
        if slabs * slabs < leaf_count {
            slabs += 1;
        }
        let per_slab = len.div_ceil(slabs);
        entries.sort_by(|a, b| {
            a.0.center()
                .x
                .partial_cmp(&b.0.center().x)
                .unwrap_or(Ordering::Equal)
        });
        let mut leaves: Vec<Node<T>> = Vec::with_capacity(leaf_count);
        let mut rest = entries;
        while !rest.is_empty() {
            let mut take = per_slab.min(rest.len());
            // Fold a tiny remainder into the last slab so no slab (and hence
            // no leaf) can end up below the minimum fill.
            if rest.len() - take < MIN_ENTRIES {
                take = rest.len();
            }
            let mut slab: Vec<(Rect, T)> = rest.drain(..take).collect();
            slab.sort_by(|a, b| {
                a.0.center()
                    .y
                    .partial_cmp(&b.0.center().y)
                    .unwrap_or(Ordering::Equal)
            });
            while !slab.is_empty() {
                let take = packing_chunk(slab.len());
                leaves.push(Node::leaf(slab.drain(..take).collect()));
            }
        }
        // Pack upper levels until a single root remains.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next: Vec<Node<T>> = Vec::with_capacity(level.len().div_ceil(MAX_ENTRIES));
            let mut nodes = level;
            nodes.sort_by(|a, b| {
                a.bbox
                    .center()
                    .x
                    .partial_cmp(&b.bbox.center().x)
                    .unwrap_or(Ordering::Equal)
            });
            while !nodes.is_empty() {
                let take = packing_chunk(nodes.len());
                next.push(Node::inner(nodes.drain(..take).collect()));
            }
            level = next;
        }
        RTree {
            root: level.pop(),
            len,
        }
    }

    /// Calls `f` for every item whose rectangle intersects `rect`.
    pub fn for_each_in_rect<'t, F: FnMut(&'t Rect, &'t T)>(&'t self, rect: &Rect, mut f: F) {
        fn walk<'t, T, F: FnMut(&'t Rect, &'t T)>(node: &'t Node<T>, rect: &Rect, f: &mut F) {
            match &node.kind {
                Kind::Leaf(entries) => {
                    for (r, item) in entries {
                        if r.intersects(rect) {
                            f(r, item);
                        }
                    }
                }
                Kind::Inner(children) => {
                    for c in children {
                        if c.bbox.intersects(rect) {
                            walk(c, rect, f);
                        }
                    }
                }
            }
        }
        if let Some(root) = &self.root {
            if root.bbox.intersects(rect) {
                walk(root, rect, &mut f);
            }
        }
    }

    /// Collects references to all items whose rectangle intersects `rect`.
    pub fn query_rect(&self, rect: &Rect) -> Vec<&T> {
        let mut out = Vec::new();
        self.for_each_in_rect(rect, |_, item| out.push(item));
        out
    }

    /// Calls `f` for every **point-keyed** item inside the closed disk.
    /// (For extended keys, the predicate is "key center inside the disk".)
    pub fn for_each_in_circle<'t, F: FnMut(Point, &'t T)>(&'t self, circle: &Circle, mut f: F) {
        self.for_each_in_rect(&circle.bbox(), |r, item| {
            let p = r.center();
            if circle.contains_point(p) {
                f(p, item);
            }
        });
    }

    /// Number of point-keyed items inside the closed disk.
    pub fn count_in_circle(&self, circle: &Circle) -> usize {
        let mut n = 0;
        self.for_each_in_circle(circle, |_, _| n += 1);
        n
    }

    /// The `k` items nearest to `q` (by min distance of their rectangle),
    /// closest first, using best-first search over the tree.
    pub fn k_nearest(&self, q: Point, k: usize) -> Vec<(f64, &T)> {
        enum Cand<'t, T> {
            Node(&'t Node<T>),
            Item(&'t T),
        }
        struct Q<'t, T>(f64, Cand<'t, T>);
        impl<T> PartialEq for Q<'_, T> {
            fn eq(&self, other: &Self) -> bool {
                self.0 == other.0
            }
        }
        impl<T> Eq for Q<'_, T> {}
        impl<T> PartialOrd for Q<'_, T> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<T> Ord for Q<'_, T> {
            fn cmp(&self, other: &Self) -> Ordering {
                // Min-heap on distance.
                other.0.partial_cmp(&self.0).unwrap_or(Ordering::Equal)
            }
        }

        let mut out = Vec::with_capacity(k.min(self.len));
        let Some(root) = &self.root else { return out };
        if k == 0 {
            return out;
        }
        let mut heap = BinaryHeap::new();
        heap.push(Q(root.bbox.min_dist2(q), Cand::Node(root)));
        while let Some(Q(d2, cand)) = heap.pop() {
            match cand {
                Cand::Item(item) => {
                    out.push((d2.sqrt(), item));
                    if out.len() == k {
                        break;
                    }
                }
                Cand::Node(node) => match &node.kind {
                    Kind::Leaf(entries) => {
                        for (r, item) in entries {
                            heap.push(Q(r.min_dist2(q), Cand::Item(item)));
                        }
                    }
                    Kind::Inner(children) => {
                        for c in children {
                            heap.push(Q(c.bbox.min_dist2(q), Cand::Node(c)));
                        }
                    }
                },
            }
        }
        out
    }

    /// The nearest item to `q`, if any, with its distance.
    pub fn nearest(&self, q: Point) -> Option<(f64, &T)> {
        self.k_nearest(q, 1).into_iter().next()
    }

    /// Removes one item whose key equals `rect` and satisfies `pred`,
    /// returning it. Underfull nodes along the path are dissolved and their
    /// remaining entries reinserted (Guttman's condense-tree).
    pub fn remove<F: Fn(&T) -> bool>(&mut self, rect: &Rect, pred: F) -> Option<T> {
        let root = self.root.as_mut()?;
        let mut orphans: Vec<(Rect, T)> = Vec::new();
        let removed = Self::remove_rec(root, rect, &pred, &mut orphans)?;
        self.len -= 1;
        // Collapse a root with a single inner child.
        loop {
            let shrink = match &mut self.root {
                Some(r) => match &mut r.kind {
                    Kind::Inner(children) if children.len() == 1 => children.pop(),
                    Kind::Inner(children) if children.is_empty() => {
                        self.root = None;
                        None
                    }
                    Kind::Leaf(entries) if entries.is_empty() => {
                        self.root = None;
                        None
                    }
                    _ => None,
                },
                None => None,
            };
            match shrink {
                Some(child) => self.root = Some(child),
                None => break,
            }
        }
        for (r, item) in orphans {
            self.len -= 1; // re-balance: insert will add it back
            self.insert(r, item);
        }
        Some(removed)
    }

    fn remove_rec<F: Fn(&T) -> bool>(
        node: &mut Node<T>,
        rect: &Rect,
        pred: &F,
        orphans: &mut Vec<(Rect, T)>,
    ) -> Option<T> {
        match &mut node.kind {
            Kind::Leaf(entries) => {
                let pos = entries.iter().position(|(r, t)| r == rect && pred(t))?;
                let (_, item) = entries.swap_remove(pos);
                node.recompute_bbox();
                Some(item)
            }
            Kind::Inner(children) => {
                let mut found = None;
                for i in 0..children.len() {
                    if !children[i].bbox.intersects(rect) {
                        continue;
                    }
                    if let Some(item) = Self::remove_rec(&mut children[i], rect, pred, orphans) {
                        // Dissolve underfull children, reinserting their
                        // contents at the top.
                        if children[i].len_entries() < MIN_ENTRIES {
                            let dead = children.swap_remove(i);
                            Self::collect_entries(dead, orphans);
                        }
                        found = Some(item);
                        break;
                    }
                }
                if found.is_some() {
                    node.recompute_bbox();
                }
                found
            }
        }
    }

    fn collect_entries(node: Node<T>, out: &mut Vec<(Rect, T)>) {
        match node.kind {
            Kind::Leaf(entries) => out.extend(entries),
            Kind::Inner(children) => {
                for c in children {
                    Self::collect_entries(c, out);
                }
            }
        }
    }

    /// Iterates over every `(rect, item)` pair (arbitrary order).
    pub fn for_each<F: FnMut(&Rect, &T)>(&self, mut f: F) {
        fn walk<'t, T, F: FnMut(&Rect, &'t T)>(node: &'t Node<T>, f: &mut F) {
            match &node.kind {
                Kind::Leaf(entries) => {
                    for (r, item) in entries {
                        f(r, item);
                    }
                }
                Kind::Inner(children) => {
                    for c in children {
                        walk(c, f);
                    }
                }
            }
        }
        if let Some(root) = &self.root {
            walk(root, &mut f);
        }
    }

    /// Depth of the tree (0 for empty, 1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 0;
        let mut cur = self.root.as_ref();
        while let Some(node) = cur {
            h += 1;
            cur = match &node.kind {
                Kind::Leaf(_) => None,
                Kind::Inner(children) => children.first(),
            };
        }
        h
    }

    /// Validates structural invariants (bbox containment, fill factors,
    /// uniform leaf depth); used by tests.
    pub fn check_invariants(&self) {
        fn walk<T>(node: &Node<T>, is_root: bool, depth: usize, leaf_depth: &mut Option<usize>) {
            match &node.kind {
                Kind::Leaf(entries) => {
                    assert!(is_root || entries.len() >= MIN_ENTRIES, "underfull leaf");
                    assert!(entries.len() <= MAX_ENTRIES, "overfull leaf");
                    for (r, _) in entries {
                        assert!(node.bbox.contains_rect(r), "leaf bbox does not cover entry");
                    }
                    match leaf_depth {
                        None => *leaf_depth = Some(depth),
                        Some(d) => assert_eq!(*d, depth, "leaves at different depths"),
                    }
                }
                Kind::Inner(children) => {
                    assert!(
                        is_root || children.len() >= MIN_ENTRIES,
                        "underfull inner node"
                    );
                    assert!(children.len() <= MAX_ENTRIES, "overfull inner node");
                    assert!(!children.is_empty(), "empty inner node");
                    for c in children {
                        assert!(
                            node.bbox.contains_rect(&c.bbox),
                            "inner bbox does not cover child"
                        );
                        walk(c, false, depth + 1, leaf_depth);
                    }
                }
            }
        }
        if let Some(root) = &self.root {
            let mut leaf_depth = None;
            walk(root, true, 0, &mut leaf_depth);
        } else {
            assert_eq!(self.len, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize) -> Vec<(Rect, usize)> {
        // n x n integer lattice scaled into the unit square.
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let p = Point::new(i as f64 / n as f64, j as f64 / n as f64);
                out.push((Rect::point(p), i * n + j));
            }
        }
        out
    }

    #[test]
    fn insert_and_query() {
        let mut t = RTree::new();
        for (r, v) in grid_points(20) {
            t.insert(r, v);
        }
        t.check_invariants();
        assert_eq!(t.len(), 400);
        let q = Rect::from_coords(0.0, 0.0, 0.25, 0.25);
        let hits = t.query_rect(&q);
        // 6x6 lattice points fall in [0, 0.25] (i/20 <= 0.25 -> i in 0..=5).
        assert_eq!(hits.len(), 36);
    }

    #[test]
    fn bulk_load_matches_incremental_queries() {
        let pts = grid_points(25);
        let bulk = RTree::bulk_load(pts.clone());
        bulk.check_invariants();
        let mut inc = RTree::new();
        for (r, v) in pts {
            inc.insert(r, v);
        }
        inc.check_invariants();
        assert_eq!(bulk.len(), inc.len());
        let q = Rect::from_coords(0.3, 0.1, 0.62, 0.44);
        let mut a: Vec<usize> = bulk.query_rect(&q).into_iter().copied().collect();
        let mut b: Vec<usize> = inc.query_rect(&q).into_iter().copied().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn bulk_load_small_and_empty() {
        let t: RTree<u32> = RTree::bulk_load(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.nearest(Point::new(0.0, 0.0)).is_none());

        let t = RTree::bulk_load(vec![(Rect::point(Point::new(0.5, 0.5)), 7u32)]);
        t.check_invariants();
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        assert_eq!(t.nearest(Point::new(0.0, 0.0)).map(|(_, v)| *v), Some(7));
    }

    #[test]
    fn count_in_circle_matches_brute_force() {
        let pts = grid_points(30);
        let t = RTree::bulk_load(pts.clone());
        let c = Circle::new(Point::new(0.41, 0.57), 0.23);
        let expect = pts
            .iter()
            .filter(|(r, _)| c.contains_point(r.center()))
            .count();
        assert_eq!(t.count_in_circle(&c), expect);
        assert!(expect > 0);
    }

    #[test]
    fn k_nearest_is_sorted_and_correct() {
        let pts = grid_points(15);
        let t = RTree::bulk_load(pts.clone());
        let q = Point::new(0.333, 0.777);
        let got = t.k_nearest(q, 10);
        assert_eq!(got.len(), 10);
        // Sorted ascending by distance.
        for w in got.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // Matches brute force distances.
        let mut brute: Vec<f64> = pts.iter().map(|(r, _)| r.center().dist(q)).collect();
        brute.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (i, (d, _)) in got.iter().enumerate() {
            assert!(
                (d - brute[i]).abs() < 1e-12,
                "rank {i}: {d} vs {}",
                brute[i]
            );
        }
    }

    #[test]
    fn k_nearest_with_k_larger_than_len() {
        let t = RTree::bulk_load(grid_points(3));
        assert_eq!(t.k_nearest(Point::new(0.0, 0.0), 100).len(), 9);
        assert_eq!(t.k_nearest(Point::new(0.0, 0.0), 0).len(), 0);
    }

    #[test]
    fn remove_keeps_invariants() {
        let pts = grid_points(12);
        let mut t = RTree::bulk_load(pts.clone());
        let total = pts.len();
        for (i, (r, v)) in pts.iter().enumerate() {
            let removed = t.remove(r, |x| x == v);
            assert_eq!(removed, Some(*v), "removing item {i}");
            assert_eq!(t.len(), total - i - 1);
            t.check_invariants();
        }
        assert!(t.is_empty());
        assert!(t.bbox().is_none());
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut t = RTree::bulk_load(grid_points(5));
        let r = Rect::point(Point::new(10.0, 10.0));
        assert_eq!(t.remove(&r, |_| true), None);
        let existing = Rect::point(Point::new(0.0, 0.0));
        assert_eq!(t.remove(&existing, |_| false), None);
        assert_eq!(t.len(), 25);
    }

    #[test]
    fn for_each_visits_everything() {
        let t = RTree::bulk_load(grid_points(9));
        let mut seen = [false; 81];
        t.for_each(|_, &v| seen[v] = true);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn query_empty_region() {
        let t = RTree::bulk_load(grid_points(10));
        let q = Rect::from_coords(5.0, 5.0, 6.0, 6.0);
        assert!(t.query_rect(&q).is_empty());
    }

    #[test]
    fn duplicate_keys_supported() {
        let mut t = RTree::new();
        let p = Point::new(0.5, 0.5);
        for v in 0..50 {
            t.insert_point(p, v);
        }
        t.check_invariants();
        assert_eq!(t.len(), 50);
        assert_eq!(t.query_rect(&Rect::point(p)).len(), 50);
        let got = t.remove(&Rect::point(p), |&v| v == 17);
        assert_eq!(got, Some(17));
        assert_eq!(t.len(), 49);
    }
}
