//! Microbenchmarks of the substrates (not in the paper, but useful to
//! understand where the schemes' time goes): R-tree queries, unit-index
//! probes, grid classification, and the paged-disk codec.

use criterion::{criterion_group, criterion_main, Criterion};
use ctup_mogen::{PlaceGenConfig, PlaceGenerator};
use ctup_spatial::{Circle, Grid, Point, RTree, Rect, Relation, UnitGridIndex};
use ctup_storage::{CellLocalStore, PagedDiskStore, PlaceStore};

fn bench_rtree(c: &mut Criterion) {
    let places = PlaceGenerator::new(PlaceGenConfig {
        count: 15_000,
        ..Default::default()
    })
    .generate(7);
    let items: Vec<(Rect, u32)> = places
        .iter()
        .map(|p| (Rect::point(p.pos), p.id.0))
        .collect();
    let tree = RTree::bulk_load(items.clone());

    let mut group = c.benchmark_group("substrate_rtree");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("bulk_load_15k", |b| {
        b.iter(|| criterion::black_box(RTree::bulk_load(items.clone())))
    });
    let mut i = 0u32;
    group.bench_function("range_query", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let x = (i % 100) as f64 / 100.0;
            let q = Rect::from_coords(x * 0.8, 0.2, x * 0.8 + 0.1, 0.3);
            criterion::black_box(tree.query_rect(&q).len())
        })
    });
    group.bench_function("k_nearest_10", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let q = Point::new((i % 97) as f64 / 97.0, (i % 89) as f64 / 89.0);
            criterion::black_box(tree.k_nearest(q, 10).len())
        })
    });
    group.finish();
}

fn bench_unit_index(c: &mut Criterion) {
    let mut index = UnitGridIndex::new(Grid::unit_square(10));
    for i in 0..150u32 {
        index.insert(
            i,
            Point::new((i % 13) as f64 / 13.0, (i % 11) as f64 / 11.0),
        );
    }
    let mut group = c.benchmark_group("substrate_unit_index");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let mut i = 0u32;
    group.bench_function("count_within_r01", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let q = Circle::new(Point::new((i % 101) as f64 / 101.0, 0.5), 0.1);
            criterion::black_box(index.count_within(&q))
        })
    });
    group.bench_function("relocate", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let id = i % 150;
            let old = Point::new((id % 13) as f64 / 13.0, (id % 11) as f64 / 11.0);
            index.relocate(id, old, Point::new(0.99, 0.99));
            index.relocate(id, Point::new(0.99, 0.99), old);
        })
    });
    group.finish();
}

fn bench_classification(c: &mut Criterion) {
    let grid = Grid::unit_square(10);
    let mut group = c.benchmark_group("substrate_classify");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let mut i = 0u32;
    group.bench_function("relation_per_touched_cell", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let center = Point::new((i % 103) as f64 / 103.0, (i % 97) as f64 / 97.0);
            let region = Circle::new(center, 0.1);
            let mut acc = 0u32;
            for cell in grid.cells_overlapping_circle(&region) {
                if Relation::classify(&region, &grid.cell_rect(cell)) == Relation::Partial {
                    acc += 1;
                }
            }
            criterion::black_box(acc)
        })
    });
    group.finish();
}

fn bench_storage(c: &mut Criterion) {
    let places = PlaceGenerator::new(PlaceGenConfig {
        count: 15_000,
        ..Default::default()
    })
    .generate(9);
    let mem = CellLocalStore::build(Grid::unit_square(10), places.clone());
    let disk = PagedDiskStore::build(Grid::unit_square(10), places, 0);
    let mut group = c.benchmark_group("substrate_storage");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let mut i = 0u32;
    group.bench_function("memstore_read_cell", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            criterion::black_box(
                mem.read_cell(ctup_spatial::CellId(i % 100))
                    .unwrap_or_else(|e| panic!("benchmark store must be clean: {e}"))
                    .len(),
            )
        })
    });
    group.bench_function("diskstore_read_cell_decode", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            criterion::black_box(
                disk.read_cell(ctup_spatial::CellId(i % 100))
                    .unwrap_or_else(|e| panic!("benchmark store must be clean: {e}"))
                    .len(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rtree,
    bench_unit_index,
    bench_classification,
    bench_storage
);
criterion_main!(benches);
