//! Property-based tests of the spatial substrate: the R-tree must agree
//! with brute force on random data and queries, the grid covering
//! iterators must be exact, and the N/P/F classification must be
//! consistent with point membership.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

#[path = "support/prop.rs"]
mod prop;

use ctup::spatial::{layout, morton, Circle, Grid, Point, RTree, Rect, Relation};
use prop::{check, Gen};

fn point(g: &mut Gen) -> Point {
    Point::new(g.gen_f64(), g.gen_f64())
}

fn rect(g: &mut Gen) -> Rect {
    let (a, b) = (point(g), point(g));
    Rect::from_coords(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))
}

fn coord16(g: &mut Gen) -> u32 {
    g.gen_range(0..1 << 16) as u32
}

fn indexed(pts: &[Point]) -> Vec<(Rect, usize)> {
    pts.iter()
        .enumerate()
        .map(|(i, &p)| (Rect::point(p), i))
        .collect()
}

#[test]
fn rtree_range_query_matches_brute_force() {
    check(
        "rtree_range_query_matches_brute_force",
        128,
        |g| (g.vec(0..=299, point), rect(g)),
        |(pts, q)| {
            let tree = RTree::bulk_load(indexed(pts));
            tree.check_invariants();
            let mut got: Vec<usize> = tree.query_rect(q).into_iter().copied().collect();
            got.sort_unstable();
            let expect: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| q.contains_point(**p))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, expect);
        },
    );
}

#[test]
fn rtree_incremental_equals_bulk() {
    check(
        "rtree_incremental_equals_bulk",
        128,
        |g| (g.vec(1..=149, point), rect(g)),
        |(pts, q)| {
            let bulk = RTree::bulk_load(indexed(pts));
            let mut inc = RTree::new();
            for (r, v) in indexed(pts) {
                inc.insert(r, v);
            }
            inc.check_invariants();
            let mut a: Vec<usize> = bulk.query_rect(q).into_iter().copied().collect();
            let mut b: Vec<usize> = inc.query_rect(q).into_iter().copied().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        },
    );
}

#[test]
fn rtree_k_nearest_matches_brute_force() {
    check(
        "rtree_k_nearest_matches_brute_force",
        128,
        |g| (g.vec(1..=199, point), point(g), g.gen_range(1..20)),
        |&(ref pts, q, k)| {
            let tree = RTree::bulk_load(indexed(pts));
            let got = tree.k_nearest(q, k);
            let mut brute: Vec<f64> = pts.iter().map(|p| p.dist(q)).collect();
            brute.sort_by(|a, b| a.partial_cmp(b).unwrap());
            brute.truncate(k);
            assert_eq!(got.len(), brute.len());
            for ((d, _), expect) in got.iter().zip(&brute) {
                assert!((d - expect).abs() < 1e-12);
            }
        },
    );
}

#[test]
fn rtree_remove_keeps_queries_exact() {
    check(
        "rtree_remove_keeps_queries_exact",
        128,
        |g| {
            let pts = g.vec(2..=119, point);
            let removals = g.vec(1..=39, |g| g.gen_range(0..pts.len()));
            (pts, removals, rect(g))
        },
        |(pts, removals, q)| {
            let mut alive: Vec<bool> = vec![true; pts.len()];
            let mut tree = RTree::bulk_load(indexed(pts));
            for &i in removals {
                let removed = tree.remove(&Rect::point(pts[i]), |&v| v == i);
                assert_eq!(removed.is_some(), alive[i]);
                alive[i] = false;
                tree.check_invariants();
            }
            let mut got: Vec<usize> = tree.query_rect(q).into_iter().copied().collect();
            got.sort_unstable();
            let expect: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(i, p)| alive[*i] && q.contains_point(**p))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, expect);
        },
    );
}

#[test]
fn grid_cells_overlapping_circle_is_exact() {
    check(
        "grid_cells_overlapping_circle_is_exact",
        128,
        |g| {
            let center = point(g);
            let radius = g.gen_range_f64(0.001..0.5);
            (center, radius, g.gen_range(1..16) as u32)
        },
        |&(center, radius, g)| {
            let grid = Grid::unit_square(g);
            let circle = Circle::new(center, radius);
            let covered: Vec<_> = grid.cells_overlapping_circle(&circle).collect();
            for cell in grid.cells() {
                let expect = circle.intersects_rect(&grid.cell_rect(cell));
                assert_eq!(covered.contains(&cell), expect, "cell {cell:?}");
            }
        },
    );
}

#[test]
fn grid_cell_of_lands_in_cell_rect() {
    check(
        "grid_cell_of_lands_in_cell_rect",
        128,
        |g| (point(g), g.gen_range(1..32) as u32),
        |&(p, g)| {
            let grid = Grid::unit_square(g);
            let cell = grid.cell_of(p);
            assert!(grid.cell_rect(cell).contains_point(p));
        },
    );
}

#[test]
fn relation_classification_is_consistent_with_membership() {
    check(
        "relation_classification_is_consistent_with_membership",
        128,
        |g| {
            let center = point(g);
            let radius = g.gen_range_f64(0.001..0.6);
            let cell = rect(g);
            let samples: Vec<(f64, f64)> = (0..10).map(|_| (g.gen_f64(), g.gen_f64())).collect();
            (center, radius, cell, samples)
        },
        |(center, radius, cell, samples)| {
            if cell.width() <= 0.0 || cell.height() <= 0.0 {
                return;
            }
            let circle = Circle::new(*center, *radius);
            let relation = Relation::classify(&circle, cell);
            for &(fx, fy) in samples {
                let p = Point::new(
                    cell.lo.x + fx * cell.width(),
                    cell.lo.y + fy * cell.height(),
                );
                match relation {
                    Relation::Full => assert!(circle.contains_point(p)),
                    Relation::None => assert!(!circle.contains_point(p)),
                    Relation::Partial => {}
                }
            }
        },
    );
}

#[test]
fn morton_encode_decode_roundtrip() {
    check(
        "morton_encode_decode_roundtrip",
        128,
        |g| (coord16(g), coord16(g)),
        |&(col, row)| {
            let code = morton::encode(col, row);
            assert_eq!(morton::decode(code), (col, row));
            assert_eq!(morton::compact(morton::spread(col)), col);
        },
    );
}

#[test]
fn morton_codes_are_monotone_along_each_axis() {
    check(
        "morton_codes_are_monotone_along_each_axis",
        128,
        |g| (coord16(g), coord16(g), coord16(g)),
        |&(a, b, fixed)| {
            // With one coordinate fixed, the interleaved code compares
            // exactly like the free coordinate: the Z-curve never reverses
            // an axis.
            if a == b {
                return;
            }
            let (lo, hi) = (a.min(b), a.max(b));
            assert!(morton::encode(lo, fixed) < morton::encode(hi, fixed));
            assert!(morton::encode(fixed, lo) < morton::encode(fixed, hi));
        },
    );
}

#[test]
fn layout_order_is_a_rank_sorted_permutation() {
    check(
        "layout_order_is_a_rank_sorted_permutation",
        128,
        |g| g.gen_range(1..32) as u32,
        |&g| {
            let grid = Grid::unit_square(g);
            let order = layout::order(&grid);
            assert_eq!(order.len(), grid.num_cells());
            let mut seen: Vec<bool> = vec![false; grid.num_cells()];
            let mut prev_rank = None;
            for cell in order {
                assert!(!seen[cell.index()], "duplicate {cell:?}");
                seen[cell.index()] = true;
                let rank = layout::rank(&grid, cell);
                if let Some(prev) = prev_rank {
                    assert!(prev < rank, "rank not strictly increasing");
                }
                prev_rank = Some(rank);
            }
        },
    );
}

#[test]
fn zorder_even_aligned_squares_occupy_consecutive_ranks() {
    check(
        "zorder_even_aligned_squares_occupy_consecutive_ranks",
        128,
        |g| {
            let side = g.gen_range(2..32) as u32;
            (side, g.gen_range(0..31) as u32, g.gen_range(0..31) as u32)
        },
        |&(g, col, row)| {
            // The whole point of the Z-order: the four-cell square at an
            // even-aligned corner occupies four *consecutive* Morton ranks.
            let col = (col % (g / 2)) * 2;
            let row = (row % (g / 2)) * 2;
            let grid = Grid::unit_square(g);
            let base = layout::rank(&grid, grid.cell_at(col, row));
            assert_eq!(layout::rank(&grid, grid.cell_at(col + 1, row)), base + 1);
            assert_eq!(layout::rank(&grid, grid.cell_at(col, row + 1)), base + 2);
            assert_eq!(
                layout::rank(&grid, grid.cell_at(col + 1, row + 1)),
                base + 3
            );
        },
    );
}
