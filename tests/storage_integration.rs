//! Storage-level integration: the algorithms must behave identically over
//! the memory-resident and the paged-disk lower level, I/O must be
//! accounted, and generated data sets must survive the snapshot format.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup::core::algorithm::CtupAlgorithm;
use ctup::core::config::CtupConfig;
use ctup::core::types::{LocationUpdate, UnitId};
use ctup::core::OptCtup;
use ctup::mogen::{PlaceGenConfig, PlaceGenerator, Spread, Workload, WorkloadParams};
use ctup::spatial::Grid;
use ctup::storage::{snapshot, CachedStore, CellLocalStore, PagedDiskStore, PlaceStore};
use std::sync::Arc;

#[test]
fn opt_ctup_is_identical_over_memory_and_disk_stores() {
    let params = WorkloadParams {
        num_units: 20,
        places: PlaceGenConfig {
            count: 2_000,
            ..PlaceGenConfig::default()
        },
        seed: 21,
        ..WorkloadParams::default()
    };
    let mut workload = Workload::generate(params);
    let grid = Grid::unit_square(8);
    let mem: Arc<dyn PlaceStore> =
        Arc::new(CellLocalStore::build(grid.clone(), workload.places_vec()));
    let disk: Arc<dyn PlaceStore> = Arc::new(PagedDiskStore::build(grid, workload.places_vec(), 0));
    let units = workload.unit_positions();
    let mut over_mem =
        OptCtup::new(CtupConfig::paper_default(), mem.clone(), &units).expect("clean store");
    let mut over_disk =
        OptCtup::new(CtupConfig::paper_default(), disk.clone(), &units).expect("clean store");
    assert_eq!(over_mem.result(), over_disk.result());
    for update in workload.next_updates(300) {
        let location_update = LocationUpdate {
            unit: UnitId(update.object),
            new: update.to,
        };
        over_mem
            .handle_update(location_update)
            .expect("clean store");
        over_disk
            .handle_update(location_update)
            .expect("clean store");
        assert_eq!(over_mem.result(), over_disk.result());
    }
    // Identical logical behaviour implies identical cell access counts.
    let mem_io = mem.stats().snapshot();
    let disk_io = disk.stats().snapshot();
    assert_eq!(mem_io.cell_reads, disk_io.cell_reads);
    assert_eq!(mem_io.records_read, disk_io.records_read);
    // The paged store reads real pages.
    assert!(disk_io.pages_read >= disk_io.cell_reads);
}

#[test]
fn simulated_page_latency_is_observed_and_accounted() {
    let places = PlaceGenerator::new(PlaceGenConfig {
        count: 3_000,
        ..Default::default()
    })
    .generate(5);
    let disk = PagedDiskStore::build(Grid::unit_square(4), places, 50_000);
    let start = std::time::Instant::now();
    for cell in Grid::unit_square(4).cells() {
        disk.read_cell(cell).expect("clean store");
    }
    let elapsed = start.elapsed().as_nanos() as u64;
    let io = disk.stats().snapshot();
    assert!(io.io_nanos >= io.pages_read * 50_000);
    assert!(
        elapsed >= io.io_nanos,
        "wall {elapsed} < simulated {}",
        io.io_nanos
    );
}

#[test]
fn generated_datasets_roundtrip_through_snapshots() {
    for (seed, config) in [
        (
            1u64,
            PlaceGenConfig {
                count: 500,
                ..Default::default()
            },
        ),
        (
            2,
            PlaceGenConfig {
                count: 400,
                rp_min: 0,
                rp_max: 20,
                rp_skew: 0.0,
                ..Default::default()
            },
        ),
        (
            3,
            PlaceGenConfig {
                count: 300,
                spread: Spread::Clustered {
                    clusters: 4,
                    std_dev: 0.05,
                    fraction_clustered: 0.8,
                },
                ..Default::default()
            },
        ),
    ] {
        let places = PlaceGenerator::new(config).generate(seed);
        let mut buf = Vec::new();
        snapshot::write_places(&mut buf, &places).expect("write");
        let restored = snapshot::read_places(buf.as_slice()).expect("read");
        assert_eq!(restored, places, "seed {seed}");
    }
}

#[test]
fn stores_agree_cell_by_cell_on_generated_data() {
    let places = PlaceGenerator::new(PlaceGenConfig {
        count: 1_000,
        ..Default::default()
    })
    .generate(17);
    let grid = Grid::unit_square(7);
    let mem = CellLocalStore::build(grid.clone(), places.clone());
    let disk = PagedDiskStore::build(grid.clone(), places, 0);
    assert_eq!(mem.num_places(), disk.num_places());
    for cell in grid.cells() {
        assert_eq!(
            mem.read_cell(cell).expect("clean store").into_owned(),
            disk.read_cell(cell).expect("clean store").into_owned(),
            "cell {cell:?}"
        );
    }
}

/// The cache traffic of a fixed feed, pinned: sequential `OptCtup` over a
/// 64-page `CachedStore` over the Table III disk (latency 0), as the
/// benchmark's `engine-disk` stack has it. Same seed, same counts, on any
/// machine; a change to the cache policy moves `pages_read`,
/// `cell_reads` and `cache_hits`, and must leave the top-k alone.
#[test]
fn fixed_feed_pins_the_cache_traffic() {
    let mut workload = Workload::generate(WorkloadParams {
        seed: 199,
        ..WorkloadParams::default()
    });
    let grid = Grid::unit_square(10);
    let disk: Arc<dyn PlaceStore> = Arc::new(PagedDiskStore::build(grid, workload.places_vec(), 0));
    let cached: Arc<dyn PlaceStore> = Arc::new(CachedStore::new(disk, 64));
    let units = workload.unit_positions();
    let mut alg = OptCtup::new(CtupConfig::paper_default(), cached.clone(), &units).expect("init");
    let at_init = cached.stats().snapshot();
    for update in workload.next_updates(3_000) {
        alg.handle_update(LocationUpdate {
            unit: UnitId(update.object),
            new: update.to,
        })
        .expect("clean store");
    }
    let io = cached.stats().snapshot().since(&at_init);
    // The demand stream (hits + misses, 2 746) is the engine's and fixed;
    // how it splits, and the pages a miss reads, are the cache's and the
    // page format's.
    assert_eq!(
        (io.pages_read, io.cell_reads, io.cache_hits),
        (524, 506, 2_240)
    );
    assert_eq!(io.cache_misses, io.cell_reads);
    let top: Vec<(u32, i64)> = alg.result().iter().map(|e| (e.place.0, e.safety)).collect();
    assert_eq!(
        top,
        [
            (400, -8),
            (568, -8),
            (647, -8),
            (895, -8),
            (1070, -8),
            (1425, -8),
            (1569, -8),
            (1813, -8),
            (2990, -8),
            (3062, -8),
            (3201, -8),
            (3305, -8),
            (3534, -8),
            (3714, -8),
            (4418, -8),
        ]
    );
}
