//! Property-based tests of the storage substrate: the page codec and the
//! text snapshot format must round-trip arbitrary records, both store
//! implementations must agree cell-by-cell, and — now that page frames are
//! checksummed — any byte-level corruption of a frame must be *detected*,
//! never decoded into silently wrong records.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup_spatial::{Grid, Point, Rect};
use ctup_storage::{
    decode_page, encode_pages, snapshot, CellLocalStore, PagedDiskStore, PlaceId, PlaceRecord,
    PlaceStore,
};
use proptest::prelude::*;

fn record(id: u32) -> impl Strategy<Value = PlaceRecord> {
    (
        0.0f64..1.0,
        0.0f64..1.0,
        0u32..10,
        prop::option::of((0.0f64..0.05, 0.0f64..0.05)),
    )
        .prop_map(move |(x, y, rp, extent)| {
            let pos = Point::new(x, y);
            match extent {
                None => PlaceRecord::point(PlaceId(id), pos, rp),
                Some((hw, hh)) => {
                    let lo = Point::new((x - hw).max(0.0), (y - hh).max(0.0));
                    let hi = Point::new((x + hw).min(1.0), (y + hh).min(1.0));
                    PlaceRecord::extended(PlaceId(id), pos, rp, Rect::new(lo, hi))
                }
            }
        })
}

fn records() -> impl Strategy<Value = Vec<PlaceRecord>> {
    prop::collection::vec(any::<u32>(), 0..150).prop_flat_map(|ids| {
        let strategies: Vec<_> = ids
            .into_iter()
            .enumerate()
            .map(|(i, _)| record(i as u32))
            .collect();
        strategies
    })
}

/// A corruption: flip `mask` (nonzero) into the byte at relative offset
/// `pos` (scaled into the frame length at application time).
fn corruptions() -> impl Strategy<Value = Vec<(prop::sample::Index, u8)>> {
    prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 0..=3)
}

proptest! {
    // Miri runs the same properties with a token case count: enough to
    // exercise every code path under the interpreter without taking hours.
    #![proptest_config(ProptestConfig {
        cases: if cfg!(miri) { 4 } else { 128 },
        ..ProptestConfig::default()
    })]

    #[test]
    fn paged_store_roundtrips_arbitrary_records(places in records(), g in 1u32..10) {
        let grid = Grid::unit_square(g);
        let mem = CellLocalStore::build(grid.clone(), places.clone());
        let disk = PagedDiskStore::build(grid.clone(), places.clone(), 0);
        prop_assert_eq!(mem.num_places(), places.len());
        prop_assert_eq!(disk.num_places(), places.len());
        let mut seen = 0;
        for cell in grid.cells() {
            let a = mem.read_cell(cell).expect("mem reads cannot fail").into_owned();
            let b = disk.read_cell(cell).expect("clean disk read").into_owned();
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(
                mem.cell_extent_margin(cell),
                disk.cell_extent_margin(cell)
            );
            seen += a.len();
        }
        prop_assert_eq!(seen, places.len());
    }

    #[test]
    fn page_codec_clean_roundtrip(places in records()) {
        // Encode into frames, decode every frame back: exact round-trip.
        let pages = encode_pages(&places);
        let mut restored = Vec::new();
        for (idx, page) in pages.iter().enumerate() {
            restored.extend(decode_page(page, idx as u32).expect("clean frame"));
        }
        prop_assert_eq!(restored, places);
    }

    #[test]
    fn page_codec_detects_any_corruption(
        places in records(),
        damage in corruptions(),
    ) {
        // Corrupt 0–3 random bytes of one frame with nonzero XOR masks.
        // Zero corruptions must decode cleanly; any actual corruption must
        // be detected — decode may NEVER return wrong records silently.
        prop_assume!(!places.is_empty());
        let pages = encode_pages(&places);
        let frame = &pages[0];
        let clean = decode_page(frame, 0).expect("clean frame");
        let mut bytes = frame.to_vec();
        let mut changed = false;
        for (pos, mask) in &damage {
            let at = pos.index(bytes.len());
            bytes[at] ^= mask;
            changed = true;
        }
        // XOR is self-inverse: two hits on the same byte with the same mask
        // cancel out, so recheck against the original bytes.
        if bytes == frame[..] {
            changed = false;
        }
        match decode_page(&bytes, 0) {
            Ok(records) => {
                prop_assert!(!changed, "corrupted frame decoded");
                prop_assert_eq!(records, clean);
            }
            Err(_) => prop_assert!(changed, "clean frame rejected"),
        }
    }

    #[test]
    fn page_codec_detects_any_truncation(places in records()) {
        // A torn write persists a strict prefix; every prefix must be
        // rejected as corrupt.
        prop_assume!(!places.is_empty());
        let pages = encode_pages(&places);
        let frame = &pages[0];
        for keep in 0..frame.len() {
            prop_assert!(decode_page(&frame[..keep], 0).is_err(), "prefix {keep}");
        }
    }

    #[test]
    fn snapshot_text_format_roundtrips(places in records()) {
        // The text format stores f64 coordinates via Display; round-trip
        // must be exact because Rust prints the shortest representation
        // that parses back to the same value.
        let mut buf = Vec::new();
        snapshot::write_places(&mut buf, &places).unwrap();
        let restored = snapshot::read_places(buf.as_slice()).unwrap();
        prop_assert_eq!(restored, places);
    }

    #[test]
    fn every_place_is_stored_in_the_cell_of_its_position(
        places in records(),
        g in 1u32..10,
    ) {
        let grid = Grid::unit_square(g);
        let store = CellLocalStore::build(grid.clone(), places);
        for cell in grid.cells() {
            for place in store.read_cell(cell).expect("mem read").iter() {
                prop_assert_eq!(grid.cell_of(place.pos), cell);
            }
        }
    }
}
