//! Seeded, deterministic disk-fault injection.
//!
//! [`FaultDisk`] wraps a [`PagedDiskStore`] and makes it lie the way real
//! disks do: reads fail transiently, pages are torn by partial writes,
//! and bits rot. Every fault is driven by one seed so a chaos scenario
//! replays exactly. Because the paged store's frames are
//! CRC32-checksummed, persistent damage is *detected* — a corrupt page
//! yields a typed [`StorageError`], never silently wrong records, and is
//! not retried — while transient faults are absorbed by up to three
//! retries with exponential backoff.
//!
//! Fault taxonomy:
//!
//! | fault            | when injected | effect on a read                    |
//! |------------------|---------------|-------------------------------------|
//! | transient error  | per attempt   | `Io` error; a retry may succeed     |
//! | torn page write  | at build      | frame length mismatch, every read   |
//! | bit flip         | at build      | checksum mismatch, every read       |

use crate::diskstore::{decode_frame, PagedDiskStore};
use crate::error::StorageError;
use crate::place::PlaceRecord;
use crate::stats::StorageStats;
use crate::store::PlaceStore;
use ctup_spatial::{CellId, Grid};
use std::borrow::Cow;
use std::sync::Mutex;

/// SplitMix64 — a tiny, high-quality seeded generator. Hand-rolled so the
/// storage crate's fault layer needs no runtime dependency and behaves
/// identically on every platform.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }

    /// Uniform in `0..n` (`n > 0`).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n.max(1)
    }
}

/// A seeded description of how the simulated disk misbehaves. All faults
/// default to off; `0.0` / `0` disables the corresponding class.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskFaultPlan {
    /// RNG seed; two disks built from the same plan over the same places
    /// are damaged identically and fail reads identically.
    pub seed: u64,
    /// Probability that reading one page transiently fails (rolled per
    /// attempt, so retries can succeed).
    pub read_error_prob: f64,
    /// Number of pages torn at build time (truncated to a partial write).
    pub torn_writes: u32,
    /// Number of single-bit flips applied to pages at build time.
    pub bit_flips: u32,
}

impl Default for DiskFaultPlan {
    fn default() -> Self {
        DiskFaultPlan {
            seed: 0,
            read_error_prob: 0.0,
            torn_writes: 0,
            bit_flips: 0,
        }
    }
}

/// Extra attempts after the first transiently failed read.
const MAX_RETRIES: u32 = 3;
/// Backoff charged before the first retry, in simulated nanoseconds.
const BASE_BACKOFF_NANOS: u64 = 2_000;
/// Upper bound on a single backoff step.
const MAX_BACKOFF_NANOS: u64 = 1_000_000;

/// Backoff before retry number `retry` (0-based): `base * 2^retry`, capped
/// at [`MAX_BACKOFF_NANOS`].
fn backoff_nanos(retry: u32) -> u64 {
    let factor = 2u64.saturating_pow(retry);
    BASE_BACKOFF_NANOS
        .saturating_mul(factor)
        .min(MAX_BACKOFF_NANOS)
}

/// A paged store behind a seeded fault injector.
///
/// Build-time faults (torn writes, bit flips) damage the pages themselves;
/// transient errors are rolled per read attempt. Counters land in the
/// shared [`StorageStats`]: successful reads in the usual access counters,
/// failures in `read_retries`, `read_giveups` and `corrupt_pages`.
#[derive(Debug)]
pub struct FaultDisk {
    inner: PagedDiskStore,
    plan: DiskFaultPlan,
    rng: Mutex<SplitMix64>,
    corrupted_pages: Vec<u32>,
}

impl FaultDisk {
    /// Builds the underlying paged store (pages in Z-order, see
    /// [`PagedDiskStore::build`]) and applies the plan's build-time damage
    /// (torn writes first, then bit flips; a page may suffer both). The
    /// damage is rolled over *physical* page indices.
    pub fn build(
        grid: Grid,
        places: Vec<PlaceRecord>,
        page_latency_nanos: u64,
        plan: DiskFaultPlan,
    ) -> Self {
        let mut inner = PagedDiskStore::build(grid, places, page_latency_nanos);
        let mut rng = SplitMix64::new(plan.seed);
        let mut corrupted_pages = Vec::new();
        let num_pages = inner.num_pages() as u64;
        if num_pages > 0 {
            for _ in 0..plan.torn_writes {
                let idx = rng.below(num_pages);
                let keep_frac = rng.next_f64();
                inner.mutate_page(idx as usize, |bytes| {
                    // A partial write persists some strict prefix.
                    let keep = ((bytes.len() as f64) * keep_frac) as usize;
                    bytes.truncate(keep.min(bytes.len().saturating_sub(1)));
                });
                corrupted_pages.push(idx as u32);
            }
            for _ in 0..plan.bit_flips {
                let idx = rng.below(num_pages);
                let byte_pick = rng.next_u64();
                let bit = (rng.next_u64() % 8) as u8;
                inner.mutate_page(idx as usize, |bytes| {
                    if !bytes.is_empty() {
                        let byte = (byte_pick % bytes.len() as u64) as usize;
                        bytes[byte] ^= 1 << bit;
                    }
                });
                corrupted_pages.push(idx as u32);
            }
        }
        corrupted_pages.sort_unstable();
        corrupted_pages.dedup();
        FaultDisk {
            inner,
            plan,
            rng: Mutex::new(rng),
            corrupted_pages,
        }
    }

    /// The pages damaged at build time, ascending.
    pub fn corrupted_pages(&self) -> &[u32] {
        &self.corrupted_pages
    }

    /// The cells whose page ranges contain build-time damage — reads of
    /// these cells will fail with `CorruptPage` until repaired.
    pub fn corrupted_cells(&self) -> Vec<CellId> {
        let mut cells: Vec<CellId> = self
            .corrupted_pages
            .iter()
            .filter_map(|&page| self.inner.cell_of_page(page))
            .collect();
        cells.sort_unstable_by_key(|c| c.0);
        cells.dedup();
        cells
    }

    /// One read attempt over the cell's pages: rolls the transient faults,
    /// then validates and decodes every frame.
    fn try_read_cell(&self, cell: CellId) -> Result<Vec<PlaceRecord>, StorageError> {
        let loc = self.inner.location(cell);
        {
            // The generator is one `u64`, valid after every step, so a
            // poisoned lock is still usable.
            let mut rng = match self.rng.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            for page in loc.first_page..loc.first_page + loc.num_pages {
                if rng.chance(self.plan.read_error_prob) {
                    return Err(StorageError::Io { page, attempts: 1 });
                }
            }
        }
        let mut records = Vec::with_capacity(loc.num_records as usize);
        for page in loc.first_page..loc.first_page + loc.num_pages {
            decode_frame(self.inner.page(page), page, &mut records)?;
        }
        Ok(records)
    }
}

impl PlaceStore for FaultDisk {
    fn grid(&self) -> &Grid {
        self.inner.grid()
    }

    fn num_places(&self) -> usize {
        self.inner.num_places()
    }

    fn read_cell(&self, cell: CellId) -> Result<Cow<'_, [PlaceRecord]>, StorageError> {
        let loc = self.inner.location(cell);
        let stats = self.inner.stats();
        let mut backoff = 0u64;
        let mut attempts = 0u32;
        loop {
            match self.try_read_cell(cell) {
                Ok(records) => {
                    let io_nanos = self.inner.simulate_latency(loc.num_pages as u64) + backoff;
                    stats.record_cell_read(loc.num_records as u64, loc.num_pages as u64, io_nanos);
                    return Ok(Cow::Owned(records));
                }
                Err(e) => {
                    if let StorageError::CorruptPage { .. } = e {
                        stats.record_corrupt_page();
                    }
                    attempts += 1;
                    // Only a transient failure may succeed on a retry.
                    if !e.is_transient() || attempts > MAX_RETRIES {
                        stats.record_giveup();
                        return Err(match e {
                            StorageError::Io { page, .. } => StorageError::Io { page, attempts },
                            corrupt => corrupt,
                        });
                    }
                    // Backoff is simulated, not slept: it is charged to the
                    // I/O time of the eventually successful read.
                    backoff += backoff_nanos(attempts - 1);
                    stats.record_retry();
                }
            }
        }
    }

    fn cell_pages(&self, cell: CellId) -> u64 {
        self.inner.cell_pages(cell)
    }

    fn stats(&self) -> &StorageStats {
        self.inner.stats()
    }

    /// Bulk initialization scan: build-time damage is still detected, but
    /// transient faults are not injected (a bulk load would stream, not
    /// seek, and the chaos scenarios target the per-cell read path).
    fn for_each_place(&self, f: &mut dyn FnMut(&PlaceRecord)) -> Result<(), StorageError> {
        self.inner.for_each_place(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CorruptKind;
    use crate::place::PlaceId;
    use ctup_spatial::Point;

    fn sample_places(n: u32) -> Vec<PlaceRecord> {
        (0..n)
            .map(|i| {
                let x = (i % 31) as f64 / 31.0;
                let y = (i % 17) as f64 / 17.0;
                PlaceRecord::point(PlaceId(i), Point::new(x, y), 1 + i % 5)
            })
            .collect()
    }

    fn quiet_disk(plan: DiskFaultPlan) -> FaultDisk {
        FaultDisk::build(Grid::unit_square(4), sample_places(400), 0, plan)
    }

    #[test]
    fn no_faults_behaves_like_the_paged_store() {
        let disk = quiet_disk(DiskFaultPlan::default());
        assert!(disk.corrupted_pages().is_empty());
        let mem = crate::memstore::CellLocalStore::build(Grid::unit_square(4), sample_places(400));
        for cell in disk.grid().cells().collect::<Vec<_>>() {
            let a = disk.read_cell(cell).expect("fault-free read").into_owned();
            let b = mem.read_cell(cell).expect("mem read").into_owned();
            assert_eq!(a, b, "cell {cell:?}");
        }
        let snap = disk.stats().snapshot();
        assert_eq!(snap.read_retries, 0);
        assert_eq!(snap.read_giveups, 0);
        assert_eq!(snap.corrupt_pages, 0);
    }

    #[test]
    fn same_seed_same_damage() {
        let plan = DiskFaultPlan {
            seed: 77,
            torn_writes: 3,
            bit_flips: 3,
            ..DiskFaultPlan::default()
        };
        let a = quiet_disk(plan.clone());
        let b = quiet_disk(plan.clone());
        assert_eq!(a.corrupted_pages(), b.corrupted_pages());
        assert!(!a.corrupted_pages().is_empty());
        let c = quiet_disk(DiskFaultPlan { seed: 78, ..plan });
        assert_ne!(a.corrupted_pages(), c.corrupted_pages());
    }

    #[test]
    fn transient_errors_are_retried_to_success() {
        let plan = DiskFaultPlan {
            seed: 5,
            read_error_prob: 0.3,
            ..DiskFaultPlan::default()
        };
        let disk = quiet_disk(plan);
        let mut failures = 0u64;
        for _ in 0..20 {
            for cell in disk.grid().cells().collect::<Vec<_>>() {
                if disk.read_cell(cell).is_err() {
                    failures += 1;
                }
            }
        }
        let snap = disk.stats().snapshot();
        assert!(snap.read_retries > 0, "no retries at 30% fault rate");
        // With a 3-retry budget a run of 4 consecutive failures is rare but
        // possible at 30%; whatever failed must be accounted as a giveup.
        assert_eq!(snap.read_giveups, failures);
        assert_eq!(snap.corrupt_pages, 0);
        assert!(snap.io_nanos > 0, "backoff must be charged to I/O time");
    }

    #[test]
    fn always_failing_reads_give_up_with_attempt_count() {
        let plan = DiskFaultPlan {
            seed: 9,
            read_error_prob: 1.0,
            ..DiskFaultPlan::default()
        };
        let disk = quiet_disk(plan);
        let cell = disk.grid().cells().next().expect("a cell");
        let err = disk.read_cell(cell).expect_err("must give up");
        assert_eq!(
            err,
            StorageError::Io {
                page: disk.inner.location(cell).first_page,
                attempts: MAX_RETRIES + 1,
            }
        );
        let snap = disk.stats().snapshot();
        assert_eq!(snap.read_retries, u64::from(MAX_RETRIES));
        assert_eq!(snap.read_giveups, 1);
        assert_eq!(snap.cell_reads, 0);
    }

    #[test]
    fn torn_writes_and_bit_flips_are_always_detected() {
        let plan = DiskFaultPlan {
            seed: 1234,
            torn_writes: 4,
            bit_flips: 4,
            ..DiskFaultPlan::default()
        };
        let disk = quiet_disk(plan);
        let damaged = disk.corrupted_cells();
        assert!(!damaged.is_empty());
        for cell in disk.grid().cells().collect::<Vec<_>>() {
            match disk.read_cell(cell) {
                Ok(records) => {
                    // Zero silent wrong reads: a cell that decodes must not
                    // overlap the damaged set.
                    assert!(
                        !damaged.contains(&cell),
                        "damaged cell {cell:?} served records"
                    );
                    for r in records.iter() {
                        assert_eq!(disk.grid().cell_of(r.pos), cell);
                    }
                }
                Err(e) => {
                    assert!(matches!(e, StorageError::CorruptPage { .. }), "{e}");
                    assert!(damaged.contains(&cell), "clean cell {cell:?} failed: {e}");
                }
            }
        }
        let snap = disk.stats().snapshot();
        assert!(snap.corrupt_pages > 0);
        assert!(snap.read_giveups > 0);
        assert_eq!(snap.read_retries, 0, "corruption is not retried");
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        assert_eq!(backoff_nanos(0), 2_000);
        assert_eq!(backoff_nanos(1), 4_000);
        assert_eq!(backoff_nanos(3), 16_000);
        assert_eq!(backoff_nanos(9), 1_000_000);
        assert_eq!(backoff_nanos(63), 1_000_000);
    }

    #[test]
    fn corrupt_kind_is_precise() {
        // A torn page must be reported as torn, a flipped page as checksum.
        let torn = quiet_disk(DiskFaultPlan {
            seed: 42,
            torn_writes: 1,
            ..DiskFaultPlan::default()
        });
        let cell = torn.corrupted_cells()[0];
        let err = torn.read_cell(cell).expect_err("torn");
        assert!(matches!(
            err,
            StorageError::CorruptPage {
                kind: CorruptKind::LengthMismatch | CorruptKind::TruncatedFrame,
                ..
            }
        ));
    }
}
