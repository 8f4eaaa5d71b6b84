//! Paged, simulated-disk lower level.
//!
//! The paper's figure-9 discussion notes that with places actually on disk
//! the cell-access cost would dominate. [`PagedDiskStore`] makes that
//! regime measurable: each cell's records are serialized into fixed-size
//! checksummed page frames at build time, cells in Z-order (so neighbouring
//! cells sit on neighbouring pages), and every read validates and
//! decodes the frames and (optionally) burns a configurable per-page
//! latency, counted in [`StorageStats`].
//!
//! Every page is a self-validating frame:
//!
//! ```text
//! [payload_len: u16 LE][crc32(payload): u32 LE][payload bytes]
//! ```
//!
//! The payload is a whole number of fixed 24-byte records.
//! A torn (partial) write shows up as a length mismatch, a flipped bit as
//! a checksum mismatch; both surface as typed [`StorageError`]s instead of
//! silently wrong records.

use crate::checksum::crc32;
use crate::error::{CorruptKind, RecordError, StorageError};
use crate::place::{PlaceId, PlaceRecord};
use crate::stats::StorageStats;
use crate::store::{partition_by_cell, PlaceStore};
use ctup_spatial::{layout, CellId, CellLayout, Grid, Point};
use std::borrow::Cow;
use std::time::Instant;

/// Fixed page size in bytes, frame header included.
pub const PAGE_SIZE: usize = 4096;

/// Bytes of the page frame header: payload length (u16) + CRC32 (u32).
pub const FRAME_HEADER: usize = 6;

/// Bytes of one encoded record: id (u32), x and y (f64), rp (u32).
const RECORD_SIZE: usize = 24;

/// Encodes one record onto a buffer, little-endian.
fn encode_record(buf: &mut Vec<u8>, record: &PlaceRecord) {
    buf.extend_from_slice(&record.id.0.to_le_bytes());
    buf.extend_from_slice(&record.pos.x.to_le_bytes());
    buf.extend_from_slice(&record.pos.y.to_le_bytes());
    buf.extend_from_slice(&record.rp.to_le_bytes());
}

/// Splits the next `N` bytes off the front of `buf`; a payload that ends
/// before them is truncated.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], RecordError> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or(RecordError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

fn take_f64(buf: &mut &[u8]) -> Result<f64, RecordError> {
    take(buf).map(f64::from_le_bytes)
}

/// Decodes one record from a buffer. Never panics: a truncated payload
/// comes back as a typed error.
fn decode_record(buf: &mut &[u8]) -> Result<PlaceRecord, RecordError> {
    let id = PlaceId(u32::from_le_bytes(take(buf)?));
    let pos = Point::new(take_f64(buf)?, take_f64(buf)?);
    let rp = u32::from_le_bytes(take(buf)?);
    Ok(PlaceRecord { id, pos, rp })
}

/// Wraps a record payload into a checksummed page frame.
fn encode_frame(payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= PAGE_SIZE - FRAME_HEADER);
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Packs `records` into checksummed page frames exactly as
/// [`PagedDiskStore::build`] does for one cell. Public so tests and tools
/// can exercise the page codec without building a whole store.
pub fn encode_pages(records: &[PlaceRecord]) -> Vec<Vec<u8>> {
    let mut pages = Vec::new();
    let mut buf = Vec::with_capacity(PAGE_SIZE);
    for record in records {
        if FRAME_HEADER + buf.len() + RECORD_SIZE > PAGE_SIZE {
            pages.push(encode_frame(&buf));
            buf.clear();
        }
        encode_record(&mut buf, record);
    }
    if !buf.is_empty() {
        pages.push(encode_frame(&buf));
    }
    pages
}

/// Validates one page frame and decodes its records — the exact read-path
/// validation [`PagedDiskStore`] applies, exposed for tests and tools.
pub fn decode_page(frame: &[u8], page: u32) -> Result<Vec<PlaceRecord>, StorageError> {
    let mut records = Vec::new();
    decode_frame(frame, page, &mut records)?;
    Ok(records)
}

/// Validates one page frame and appends its records to `out`.
pub(crate) fn decode_frame(
    frame: &[u8],
    page: u32,
    out: &mut Vec<PlaceRecord>,
) -> Result<(), StorageError> {
    let corrupt = |kind| StorageError::CorruptPage { page, kind };
    if frame.len() < FRAME_HEADER {
        return Err(corrupt(CorruptKind::TruncatedFrame));
    }
    let len = u16::from_le_bytes([frame[0], frame[1]]) as usize;
    let crc = u32::from_le_bytes([frame[2], frame[3], frame[4], frame[5]]);
    let payload = &frame[FRAME_HEADER..];
    if payload.len() != len {
        return Err(corrupt(CorruptKind::LengthMismatch));
    }
    if crc32(payload) != crc {
        return Err(corrupt(CorruptKind::ChecksumMismatch));
    }
    let mut buf = payload;
    while !buf.is_empty() {
        out.push(decode_record(&mut buf).map_err(|e| corrupt(CorruptKind::BadRecord(e)))?);
    }
    Ok(())
}

/// Where a cell's records live: a page range plus the record count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellLocation {
    pub(crate) first_page: u32,
    pub(crate) num_pages: u32,
    pub(crate) num_records: u32,
}

/// A place store whose lower level is a simulated page-oriented disk.
#[derive(Debug)]
pub struct PagedDiskStore {
    grid: Grid,
    pages: Vec<Vec<u8>>,
    directory: Vec<CellLocation>,
    num_places: usize,
    page_latency_nanos: u64,
    stats: StorageStats,
}

impl PagedDiskStore {
    /// Builds the store, packing each cell's records into whole checksummed
    /// page frames. Cells are laid out on the simulated disk in Z-order
    /// ([`layout::order`]), so spatially adjacent cells land on adjacent
    /// pages and one protecting circle's reads cluster.
    /// `page_latency_nanos` is busy-waited per page on every read (0
    /// disables the simulated latency).
    ///
    /// # Panics
    /// Panics if a place requires more than [`crate::MAX_RP`] protection.
    pub fn build(grid: Grid, places: Vec<PlaceRecord>, page_latency_nanos: u64) -> Self {
        let num_places = places.len();
        let cells = partition_by_cell(&grid, places);
        let mut pages = Vec::new();
        let mut directory = vec![
            CellLocation {
                first_page: 0,
                num_pages: 0,
                num_records: 0,
            };
            cells.len()
        ];
        for cell in layout::order(&grid) {
            let records = &cells[cell.index()];
            let first_page = pages.len() as u32;
            // Records never span pages: a new page starts when the next
            // record does not fit in the frame.
            pages.extend(encode_pages(records));
            directory[cell.index()] = CellLocation {
                first_page,
                num_pages: pages.len() as u32 - first_page,
                num_records: records.len() as u32,
            };
        }
        PagedDiskStore {
            grid,
            pages,
            directory,
            num_places,
            page_latency_nanos,
            stats: StorageStats::new(),
        }
    }

    /// [`PagedDiskStore::build`] under its old name: it exists only for
    /// the benchmark adapter (`ledger/src/sut.rs`) and goes in the ledger's
    /// claim-null PR.
    pub fn build_with_layout(
        grid: Grid,
        places: Vec<PlaceRecord>,
        page_latency_nanos: u64,
        _layout: CellLayout,
    ) -> Self {
        Self::build(grid, places, page_latency_nanos)
    }

    /// Total number of pages on the simulated disk.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    pub(crate) fn location(&self, cell: CellId) -> CellLocation {
        self.directory[cell.index()]
    }

    pub(crate) fn page(&self, idx: u32) -> &[u8] {
        &self.pages[idx as usize]
    }

    /// The cell whose frame range contains `page`, if any.
    pub(crate) fn cell_of_page(&self, page: u32) -> Option<CellId> {
        self.directory
            .iter()
            .position(|loc| (loc.first_page..loc.first_page + loc.num_pages).contains(&page))
            .map(|idx| CellId(idx as u32))
    }

    /// Rewrites one page in place, bypassing the frame codec — the hook the
    /// fault-injecting wrapper uses to model torn writes and bit rot.
    pub(crate) fn mutate_page(&mut self, idx: usize, f: impl FnOnce(&mut Vec<u8>)) {
        f(&mut self.pages[idx]);
    }

    pub(crate) fn simulate_latency(&self, pages: u64) -> u64 {
        if self.page_latency_nanos == 0 {
            return 0;
        }
        let budget = self.page_latency_nanos * pages;
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < budget {
            std::hint::spin_loop();
        }
        budget
    }
}

impl PlaceStore for PagedDiskStore {
    fn grid(&self) -> &Grid {
        &self.grid
    }

    fn num_places(&self) -> usize {
        self.num_places
    }

    fn read_cell(&self, cell: CellId) -> Result<Cow<'_, [PlaceRecord]>, StorageError> {
        let loc = self.directory[cell.index()];
        let io_nanos = self.simulate_latency(loc.num_pages as u64);
        let mut records = Vec::with_capacity(loc.num_records as usize);
        for page_idx in loc.first_page..loc.first_page + loc.num_pages {
            if let Err(e) = decode_frame(&self.pages[page_idx as usize], page_idx, &mut records) {
                self.stats.record_corrupt_page();
                return Err(e);
            }
        }
        debug_assert_eq!(records.len(), loc.num_records as usize);
        self.stats
            .record_cell_read(loc.num_records as u64, loc.num_pages as u64, io_nanos);
        Ok(Cow::Owned(records))
    }

    fn cell_pages(&self, cell: CellId) -> u64 {
        u64::from(self.directory[cell.index()].num_pages).max(1)
    }

    fn stats(&self) -> &StorageStats {
        &self.stats
    }

    fn for_each_place(&self, f: &mut dyn FnMut(&PlaceRecord)) -> Result<(), StorageError> {
        let mut records = Vec::new();
        for (idx, page) in self.pages.iter().enumerate() {
            records.clear();
            decode_frame(page, idx as u32, &mut records)?;
            for record in &records {
                f(record);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_places(n: u32) -> Vec<PlaceRecord> {
        (0..n)
            .map(|i| {
                let x = (i % 37) as f64 / 37.0;
                let y = (i % 23) as f64 / 23.0;
                PlaceRecord::point(PlaceId(i), Point::new(x, y), i % 7)
            })
            .collect()
    }

    #[test]
    fn codec_roundtrip() {
        for record in sample_places(10) {
            let mut buf = Vec::new();
            encode_record(&mut buf, &record);
            assert_eq!(buf.len(), RECORD_SIZE);
            let mut read = &buf[..];
            assert_eq!(decode_record(&mut read).expect("decode"), record);
            assert!(read.is_empty());
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut buf = Vec::new();
        encode_record(&mut buf, &sample_places(1)[0]);
        for keep in 0..buf.len() {
            let mut read = &buf[..keep];
            assert_eq!(
                decode_record(&mut read),
                Err(RecordError::Truncated),
                "prefix of {keep} bytes"
            );
        }
    }

    #[test]
    fn frame_roundtrip_and_detection() {
        let mut payload = Vec::new();
        for record in sample_places(20) {
            encode_record(&mut payload, &record);
        }
        let frame = encode_frame(&payload);
        let mut out = Vec::new();
        decode_frame(&frame, 0, &mut out).expect("clean frame");
        assert_eq!(out.len(), 20);

        // A checksummed payload that is not a whole number of records.
        let ragged = encode_frame(&payload[..payload.len() - 5]);
        assert_eq!(
            decode_frame(&ragged, 4, &mut Vec::new()),
            Err(StorageError::CorruptPage {
                page: 4,
                kind: CorruptKind::BadRecord(RecordError::Truncated),
            })
        );

        // Torn write: any strict prefix is a typed corruption, never a panic.
        for keep in 0..frame.len() {
            let mut out = Vec::new();
            let err = decode_frame(&frame[..keep], 3, &mut out).expect_err("torn frame");
            assert!(matches!(err, StorageError::CorruptPage { page: 3, .. }));
        }

        // Bit flip anywhere: detected.
        let mut bytes = frame.clone();
        for byte in 0..bytes.len() {
            bytes[byte] ^= 0x10;
            let mut out = Vec::new();
            assert!(
                decode_frame(&bytes, 0, &mut out).is_err(),
                "flip at byte {byte} undetected"
            );
            bytes[byte] ^= 0x10;
        }
    }

    #[test]
    fn read_cell_roundtrips_every_cell() {
        let grid = Grid::unit_square(6);
        let places = sample_places(500);
        let mem = crate::memstore::CellLocalStore::build(grid.clone(), places.clone());
        let disk = PagedDiskStore::build(grid.clone(), places, 0);
        for cell in grid.cells() {
            let a = mem.read_cell(cell).expect("mem read").into_owned();
            let b = disk.read_cell(cell).expect("disk read").into_owned();
            assert_eq!(a, b, "cell {cell:?}");
        }
        assert_eq!(disk.num_places(), 500);
    }

    #[test]
    fn multi_page_cells() {
        // All 500 places in one cell: > PAGE_SIZE of data, several pages.
        let grid = Grid::unit_square(1);
        let disk = PagedDiskStore::build(grid, sample_places(500), 0);
        assert!(disk.num_pages() >= 3, "got {} pages", disk.num_pages());
        let records = disk.read_cell(CellId(0)).expect("read").into_owned();
        assert_eq!(records.len(), 500);
        let snap = disk.stats().snapshot();
        assert_eq!(snap.cell_reads, 1);
        assert_eq!(snap.pages_read as usize, disk.num_pages());
        assert_eq!(snap.corrupt_pages, 0);
    }

    #[test]
    fn mutated_page_is_detected_not_served() {
        let grid = Grid::unit_square(1);
        let mut disk = PagedDiskStore::build(grid, sample_places(300), 0);
        disk.mutate_page(0, |bytes| bytes[FRAME_HEADER + 2] ^= 0x01);
        let err = disk.read_cell(CellId(0)).expect_err("corruption detected");
        assert!(matches!(
            err,
            StorageError::CorruptPage {
                page: 0,
                kind: CorruptKind::ChecksumMismatch,
            }
        ));
        assert_eq!(disk.stats().snapshot().corrupt_pages, 1);
        assert_eq!(disk.stats().snapshot().cell_reads, 0);
        assert_eq!(disk.cell_of_page(0), Some(CellId(0)));
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "busy-waits on the wall clock, which Miri does not advance usefully"
    )]
    fn simulated_latency_is_counted() {
        let grid = Grid::unit_square(1);
        let disk = PagedDiskStore::build(grid, sample_places(50), 1_000);
        let start = Instant::now();
        disk.read_cell(CellId(0)).expect("read");
        let elapsed = start.elapsed().as_nanos() as u64;
        let snap = disk.stats().snapshot();
        assert!(snap.io_nanos >= 1_000);
        assert!(elapsed >= snap.io_nanos);
    }

    #[test]
    fn zorder_layout_packs_pages_in_morton_order() {
        let grid = Grid::unit_square(6);
        let z = PagedDiskStore::build(grid.clone(), sample_places(500), 0);
        // Walking cells in Z-order must walk the disk front to back: each
        // cell's range starts exactly where the previous one ended.
        let mut next_page = 0u32;
        for cell in layout::order(&grid) {
            let loc = z.location(cell);
            assert_eq!(loc.first_page, next_page, "cell {cell:?}");
            next_page += loc.num_pages;
        }
        assert_eq!(next_page as usize, z.num_pages());
    }

    #[test]
    fn for_each_place_sees_everything_without_accounting() {
        let disk = PagedDiskStore::build(Grid::unit_square(3), sample_places(123), 0);
        let mut n = 0;
        disk.for_each_place(&mut |_| n += 1).expect("scan");
        assert_eq!(n, 123);
        assert_eq!(disk.stats().snapshot().cell_reads, 0);
    }
}
