//! Property-based tests of the spatial substrate: the R-tree must agree
//! with brute force under arbitrary data and queries, the grid covering
//! iterators must be exact, and the N/P/F classification must be
//! consistent with point membership.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup_spatial::{layout, morton, Circle, Grid, Point, RTree, Rect, Relation};
use proptest::prelude::*;

fn point() -> impl Strategy<Value = Point> {
    (0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y)| Point::new(x, y))
}

fn rect() -> impl Strategy<Value = Rect> {
    (point(), point()).prop_map(|(a, b)| {
        Rect::from_coords(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))
    })
}

proptest! {
    // Miri runs the same properties with a token case count: enough to
    // exercise every code path under the interpreter without taking hours.
    #![proptest_config(ProptestConfig {
        cases: if cfg!(miri) { 4 } else { 128 },
        ..ProptestConfig::default()
    })]

    #[test]
    fn rtree_range_query_matches_brute_force(
        pts in prop::collection::vec(point(), 0..300),
        q in rect(),
    ) {
        let items: Vec<(Rect, usize)> =
            pts.iter().enumerate().map(|(i, &p)| (Rect::point(p), i)).collect();
        let tree = RTree::bulk_load(items);
        tree.check_invariants();
        let mut got: Vec<usize> = tree.query_rect(&q).into_iter().copied().collect();
        got.sort_unstable();
        let expect: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| q.contains_point(**p))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn rtree_incremental_equals_bulk(
        pts in prop::collection::vec(point(), 1..150),
        q in rect(),
    ) {
        let items: Vec<(Rect, usize)> =
            pts.iter().enumerate().map(|(i, &p)| (Rect::point(p), i)).collect();
        let bulk = RTree::bulk_load(items.clone());
        let mut inc = RTree::new();
        for (r, v) in items {
            inc.insert(r, v);
        }
        inc.check_invariants();
        let mut a: Vec<usize> = bulk.query_rect(&q).into_iter().copied().collect();
        let mut b: Vec<usize> = inc.query_rect(&q).into_iter().copied().collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn rtree_k_nearest_matches_brute_force(
        pts in prop::collection::vec(point(), 1..200),
        q in point(),
        k in 1usize..20,
    ) {
        let items: Vec<(Rect, usize)> =
            pts.iter().enumerate().map(|(i, &p)| (Rect::point(p), i)).collect();
        let tree = RTree::bulk_load(items);
        let got = tree.k_nearest(q, k);
        let mut brute: Vec<f64> = pts.iter().map(|p| p.dist(q)).collect();
        brute.sort_by(|a, b| a.partial_cmp(b).unwrap());
        brute.truncate(k);
        prop_assert_eq!(got.len(), brute.len());
        for ((d, _), expect) in got.iter().zip(&brute) {
            prop_assert!((d - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn rtree_remove_keeps_queries_exact(
        pts in prop::collection::vec(point(), 2..120),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 1..40),
        q in rect(),
    ) {
        let mut alive: Vec<bool> = vec![true; pts.len()];
        let mut tree = RTree::bulk_load(
            pts.iter().enumerate().map(|(i, &p)| (Rect::point(p), i)).collect(),
        );
        for idx in removals {
            let i = idx.index(pts.len());
            let removed = tree.remove(&Rect::point(pts[i]), |&v| v == i);
            prop_assert_eq!(removed.is_some(), alive[i]);
            alive[i] = false;
            tree.check_invariants();
        }
        let mut got: Vec<usize> = tree.query_rect(&q).into_iter().copied().collect();
        got.sort_unstable();
        let expect: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(i, p)| alive[*i] && q.contains_point(**p))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn grid_cells_overlapping_circle_is_exact(
        center in point(),
        radius in 0.001f64..0.5,
        g in 1u32..16,
    ) {
        let grid = Grid::unit_square(g);
        let circle = Circle::new(center, radius);
        let covered: Vec<_> = grid.cells_overlapping_circle(&circle).collect();
        for cell in grid.cells() {
            let expect = circle.intersects_rect(&grid.cell_rect(cell));
            prop_assert_eq!(covered.contains(&cell), expect, "cell {:?}", cell);
        }
    }

    #[test]
    fn grid_cell_of_lands_in_cell_rect(p in point(), g in 1u32..32) {
        let grid = Grid::unit_square(g);
        let cell = grid.cell_of(p);
        prop_assert!(grid.cell_rect(cell).contains_point(p));
    }

    #[test]
    fn relation_classification_is_consistent_with_membership(
        center in point(),
        radius in 0.001f64..0.6,
        cell in rect(),
        samples in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 10),
    ) {
        prop_assume!(cell.width() > 0.0 && cell.height() > 0.0);
        let circle = Circle::new(center, radius);
        let relation = Relation::classify(&circle, &cell);
        for (fx, fy) in samples {
            let p = Point::new(
                cell.lo.x + fx * cell.width(),
                cell.lo.y + fy * cell.height(),
            );
            match relation {
                Relation::Full => prop_assert!(circle.contains_point(p)),
                Relation::None => prop_assert!(!circle.contains_point(p)),
                Relation::Partial => {}
            }
        }
    }

    #[test]
    fn morton_encode_decode_roundtrip(col in 0u32..=u16::MAX as u32, row in 0u32..=u16::MAX as u32) {
        let code = morton::encode(col, row);
        prop_assert_eq!(morton::decode(code), (col, row));
        prop_assert_eq!(morton::compact(morton::spread(col)), col);
    }

    #[test]
    fn morton_codes_are_monotone_along_each_axis(
        a in 0u32..=u16::MAX as u32,
        b in 0u32..=u16::MAX as u32,
        fixed in 0u32..=u16::MAX as u32,
    ) {
        // With one coordinate fixed, the interleaved code compares exactly
        // like the free coordinate: the Z-curve never reverses an axis.
        prop_assume!(a != b);
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(morton::encode(lo, fixed) < morton::encode(hi, fixed));
        prop_assert!(morton::encode(fixed, lo) < morton::encode(fixed, hi));
    }

    #[test]
    fn layout_order_is_a_rank_sorted_permutation(g in 1u32..32) {
        let grid = Grid::unit_square(g);
        let order = layout::order(&grid);
        prop_assert_eq!(order.len(), grid.num_cells());
        let mut seen: Vec<bool> = vec![false; grid.num_cells()];
        let mut prev_rank = None;
        for cell in order {
            prop_assert!(!seen[cell.index()], "duplicate {cell:?}");
            seen[cell.index()] = true;
            let rank = layout::rank(&grid, cell);
            if let Some(prev) = prev_rank {
                prop_assert!(prev < rank, "rank not strictly increasing");
            }
            prev_rank = Some(rank);
        }
    }

    #[test]
    fn zorder_even_aligned_squares_occupy_consecutive_ranks(
        g in 2u32..32,
        col in 0u32..31,
        row in 0u32..31,
    ) {
        // The whole point of the Z-order: the four-cell square at an
        // even-aligned corner occupies four *consecutive* Morton ranks.
        let col = (col % (g / 2)) * 2;
        let row = (row % (g / 2)) * 2;
        let grid = Grid::unit_square(g);
        let base = layout::rank(&grid, grid.cell_at(col, row));
        prop_assert_eq!(layout::rank(&grid, grid.cell_at(col + 1, row)), base + 1);
        prop_assert_eq!(layout::rank(&grid, grid.cell_at(col, row + 1)), base + 2);
        prop_assert_eq!(layout::rank(&grid, grid.cell_at(col + 1, row + 1)), base + 3);
    }
}
