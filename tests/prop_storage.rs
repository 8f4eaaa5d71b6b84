//! Property-based tests of the storage substrate: the page codec and the
//! text snapshot format must round-trip random records, both store
//! implementations must agree cell-by-cell, and — now that page frames are
//! checksummed — any byte-level corruption of a frame must be *detected*,
//! never decoded into silently wrong records.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

#[path = "support/prop.rs"]
mod prop;

use ctup::spatial::{Grid, Point};
use ctup::storage::{
    decode_page, encode_pages, snapshot, CellLocalStore, PagedDiskStore, PlaceId, PlaceRecord,
    PlaceStore,
};
use prop::{check, Gen};

/// Records with dense ids `0..n`.
fn records(g: &mut Gen) -> Vec<PlaceRecord> {
    let mut id = 0;
    g.vec(0..=149, |g| {
        let pos = Point::new(g.gen_f64(), g.gen_f64());
        let record = PlaceRecord::point(PlaceId(id), pos, g.gen_range(0..10) as u32);
        id += 1;
        record
    })
}

#[test]
fn paged_store_roundtrips_arbitrary_records() {
    check(
        "paged_store_roundtrips_arbitrary_records",
        128,
        |g| (records(g), g.gen_range(1..10) as u32),
        |(places, g)| {
            let grid = Grid::unit_square(*g);
            let mem = CellLocalStore::build(grid.clone(), places.clone());
            let disk = PagedDiskStore::build(grid.clone(), places.clone(), 0);
            assert_eq!(mem.num_places(), places.len());
            assert_eq!(disk.num_places(), places.len());
            let mut seen = 0;
            for cell in grid.cells() {
                let a = mem
                    .read_cell(cell)
                    .expect("mem reads cannot fail")
                    .into_owned();
                let b = disk.read_cell(cell).expect("clean disk read").into_owned();
                assert_eq!(&a, &b);
                seen += a.len();
            }
            assert_eq!(seen, places.len());
        },
    );
}

#[test]
fn page_codec_clean_roundtrip() {
    check("page_codec_clean_roundtrip", 128, records, |places| {
        // Encode into frames, decode every frame back: exact round-trip.
        let pages = encode_pages(places);
        let mut restored = Vec::new();
        for (idx, page) in pages.iter().enumerate() {
            restored.extend(decode_page(page, idx as u32).expect("clean frame"));
        }
        assert_eq!(&restored, places);
    });
}

#[test]
fn page_codec_detects_any_corruption() {
    check(
        "page_codec_detects_any_corruption",
        128,
        |g| {
            // 0–3 bytes of one frame, each XORed with a nonzero mask; the
            // position is scaled into the frame length when applied.
            let damage = g.vec(0..=3, |g| (g.next_u64(), g.gen_range(1..256) as u8));
            (records(g), damage)
        },
        |(places, damage)| {
            // Zero corruptions must decode cleanly; any actual corruption
            // must be detected — decode may NEVER return wrong records
            // silently.
            if places.is_empty() {
                return;
            }
            let pages = encode_pages(places);
            let frame = &pages[0];
            let clean = decode_page(frame, 0).expect("clean frame");
            let mut bytes = frame.to_vec();
            for &(pos, mask) in damage {
                let at = (pos % bytes.len() as u64) as usize;
                bytes[at] ^= mask;
            }
            // XOR is self-inverse: two hits on the same byte with the same
            // mask cancel out, so compare against the original bytes.
            let changed = bytes != frame[..];
            match decode_page(&bytes, 0) {
                Ok(records) => {
                    assert!(!changed, "corrupted frame decoded");
                    assert_eq!(records, clean);
                }
                Err(_) => assert!(changed, "clean frame rejected"),
            }
        },
    );
}

#[test]
fn page_codec_detects_any_truncation() {
    check(
        "page_codec_detects_any_truncation",
        128,
        records,
        |places| {
            // A torn write persists a strict prefix; every prefix must be
            // rejected as corrupt.
            if places.is_empty() {
                return;
            }
            let pages = encode_pages(places);
            let frame = &pages[0];
            for keep in 0..frame.len() {
                assert!(decode_page(&frame[..keep], 0).is_err(), "prefix {keep}");
            }
        },
    );
}

#[test]
fn snapshot_text_format_roundtrips() {
    check("snapshot_text_format_roundtrips", 128, records, |places| {
        // The text format stores f64 coordinates via Display; round-trip
        // must be exact because Rust prints the shortest representation
        // that parses back to the same value.
        let mut buf = Vec::new();
        snapshot::write_places(&mut buf, places).unwrap();
        let restored = snapshot::read_places(buf.as_slice()).unwrap();
        assert_eq!(&restored, places);
    });
}

#[test]
fn every_place_is_stored_in_the_cell_of_its_position() {
    check(
        "every_place_is_stored_in_the_cell_of_its_position",
        128,
        |g| (records(g), g.gen_range(1..10) as u32),
        |(places, g)| {
            let grid = Grid::unit_square(*g);
            let store = CellLocalStore::build(grid.clone(), places.clone());
            for cell in grid.cells() {
                for place in store.read_cell(cell).expect("mem read").iter() {
                    assert_eq!(grid.cell_of(place.pos), cell);
                }
            }
        },
    );
}
