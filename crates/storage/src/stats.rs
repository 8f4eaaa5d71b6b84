//! I/O accounting for the lower storage level.
//!
//! The CTUP schemes are judged by how rarely they touch the lower level, so
//! every store counts its accesses — and, since the disk may now fail, how
//! often reads had to be retried, abandoned, or rejected as corrupt.
//! Counters use atomics because reads go through `&self`.
//!
//! Every atomic is a monotone `fetch_add` counter whose value is only
//! ever rendered in reports or compared across a whole run at
//! quiescence, so `Relaxed` suffices — no other memory is published through these cells.

use ctup_obs::{AtomicHistogram, LogHistogram};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters owned by a store. Reads are `&self`, hence atomics.
#[derive(Debug, Default)]
pub struct StorageStats {
    cell_reads: AtomicU64,
    records_read: AtomicU64,
    pages_read: AtomicU64,
    io_nanos: AtomicU64,
    read_retries: AtomicU64,
    read_giveups: AtomicU64,
    corrupt_pages: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    read_latency: AtomicHistogram,
}

impl StorageStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one lower-level cell access delivering `records` records
    /// from `pages` pages with `io_nanos` of (simulated) I/O time.
    pub fn record_cell_read(&self, records: u64, pages: u64, io_nanos: u64) {
        self.cell_reads.fetch_add(1, Ordering::Relaxed);
        self.records_read.fetch_add(records, Ordering::Relaxed);
        self.pages_read.fetch_add(pages, Ordering::Relaxed);
        self.io_nanos.fetch_add(io_nanos, Ordering::Relaxed);
        self.read_latency.record(io_nanos);
    }

    /// Distribution of per-cell-read (simulated) I/O time — the histogram
    /// behind the `io_nanos` sum. Lives outside [`StorageStatsSnapshot`]
    /// (which stays a flat `Copy` struct) and is reported through the
    /// unified observability snapshot instead.
    pub fn read_latency(&self) -> LogHistogram {
        self.read_latency.snapshot()
    }

    /// Records one retried read attempt (the previous attempt failed and
    /// the retry policy allowed another).
    pub fn record_retry(&self) {
        self.read_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one read abandoned after exhausting the retry budget.
    pub fn record_giveup(&self) {
        self.read_giveups.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one page rejected by frame validation (torn write, bit rot).
    pub fn record_corrupt_page(&self) {
        self.corrupt_pages.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one cell read served from the cell-read cache (no lower-level
    /// I/O performed, so `cell_reads` et al. are untouched).
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one cell read that missed the cache and went to the lower
    /// level.
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one cached cell evicted to stay within the page budget.
    pub fn record_cache_eviction(&self) {
        self.cache_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Current values as a plain snapshot.
    pub fn snapshot(&self) -> StorageStatsSnapshot {
        StorageStatsSnapshot {
            cell_reads: self.cell_reads.load(Ordering::Relaxed),
            records_read: self.records_read.load(Ordering::Relaxed),
            pages_read: self.pages_read.load(Ordering::Relaxed),
            io_nanos: self.io_nanos.load(Ordering::Relaxed),
            read_retries: self.read_retries.load(Ordering::Relaxed),
            read_giveups: self.read_giveups.load(Ordering::Relaxed),
            corrupt_pages: self.corrupt_pages.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            cache_prefetch_hits: 0,
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.cell_reads.store(0, Ordering::Relaxed);
        self.records_read.store(0, Ordering::Relaxed);
        self.pages_read.store(0, Ordering::Relaxed);
        self.io_nanos.store(0, Ordering::Relaxed);
        self.read_retries.store(0, Ordering::Relaxed);
        self.read_giveups.store(0, Ordering::Relaxed);
        self.corrupt_pages.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        self.cache_evictions.store(0, Ordering::Relaxed);
        self.read_latency.reset();
    }
}

/// A point-in-time copy of [`StorageStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStatsSnapshot {
    /// Number of lower-level cell accesses.
    pub cell_reads: u64,
    /// Total place records delivered by those accesses.
    pub records_read: u64,
    /// Total pages fetched (equals `cell_reads` for unpaged stores).
    pub pages_read: u64,
    /// Total simulated I/O time in nanoseconds.
    pub io_nanos: u64,
    /// Read attempts repeated after a transient failure.
    pub read_retries: u64,
    /// Reads abandoned after the whole retry budget failed.
    pub read_giveups: u64,
    /// Pages rejected by checksum/frame validation.
    pub corrupt_pages: u64,
    /// Cell reads served from the cell-read cache (no lower-level I/O).
    pub cache_hits: u64,
    /// Cell reads that missed the cache and paid the lower-level cost.
    pub cache_misses: u64,
    /// Cached cells evicted to stay within the cache's page budget.
    pub cache_evictions: u64,
    /// Always 0: the cache no longer takes a working-set hint. Kept only
    /// because the benchmark's layer report (`ledger/src/layers.rs`)
    /// reads it.
    pub cache_prefetch_hits: u64,
}

impl StorageStatsSnapshot {
    /// Component-wise difference since `earlier`; saturates at zero.
    pub fn since(&self, earlier: &StorageStatsSnapshot) -> StorageStatsSnapshot {
        StorageStatsSnapshot {
            cell_reads: self.cell_reads.saturating_sub(earlier.cell_reads),
            records_read: self.records_read.saturating_sub(earlier.records_read),
            pages_read: self.pages_read.saturating_sub(earlier.pages_read),
            io_nanos: self.io_nanos.saturating_sub(earlier.io_nanos),
            read_retries: self.read_retries.saturating_sub(earlier.read_retries),
            read_giveups: self.read_giveups.saturating_sub(earlier.read_giveups),
            corrupt_pages: self.corrupt_pages.saturating_sub(earlier.corrupt_pages),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
            cache_prefetch_hits: self
                .cache_prefetch_hits
                .saturating_sub(earlier.cache_prefetch_hits),
        }
    }

    /// Fraction of cache-consulting reads that hit, or zero when the cache
    /// was never consulted (disabled or no reads yet).
    pub fn cache_hit_ratio(&self) -> f64 {
        let consulted = self.cache_hits + self.cache_misses;
        if consulted == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / consulted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = StorageStats::new();
        s.record_cell_read(10, 2, 100);
        s.record_cell_read(5, 1, 50);
        s.record_retry();
        s.record_retry();
        s.record_giveup();
        s.record_corrupt_page();
        s.record_cache_hit();
        s.record_cache_miss();
        s.record_cache_miss();
        s.record_cache_eviction();
        let snap = s.snapshot();
        assert_eq!(snap.cell_reads, 2);
        assert_eq!(snap.records_read, 15);
        assert_eq!(snap.pages_read, 3);
        assert_eq!(snap.io_nanos, 150);
        assert_eq!(snap.read_retries, 2);
        assert_eq!(snap.read_giveups, 1);
        assert_eq!(snap.corrupt_pages, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.cache_evictions, 1);
        s.reset();
        assert_eq!(s.snapshot(), StorageStatsSnapshot::default());
    }

    #[test]
    fn read_latency_histogram_tracks_io_nanos() {
        let s = StorageStats::new();
        s.record_cell_read(10, 2, 100);
        s.record_cell_read(5, 1, 900);
        let h = s.read_latency();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 900);
        assert_eq!(h.sum(), s.snapshot().io_nanos);
        s.reset();
        assert!(s.read_latency().is_empty());
    }

    #[test]
    fn since_computes_deltas() {
        let s = StorageStats::new();
        s.record_cell_read(10, 2, 100);
        s.record_retry();
        let a = s.snapshot();
        s.record_cell_read(1, 1, 1);
        s.record_giveup();
        s.record_cache_hit();
        s.record_cache_eviction();
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.cell_reads, 1);
        assert_eq!(d.records_read, 1);
        assert_eq!(d.read_retries, 0);
        assert_eq!(d.read_giveups, 1);
        assert_eq!(d.cache_hits, 1);
        assert_eq!(d.cache_evictions, 1);
        // Saturation instead of wrap on inverted order.
        assert_eq!(a.since(&b).cell_reads, 0);
    }

    #[test]
    fn cache_hit_ratio_handles_zero_and_mixed() {
        assert!(StorageStatsSnapshot::default().cache_hit_ratio().abs() < 1e-12);
        let snap = StorageStatsSnapshot {
            cache_hits: 3,
            cache_misses: 1,
            ..StorageStatsSnapshot::default()
        };
        assert!((snap.cache_hit_ratio() - 0.75).abs() < 1e-12);
    }
}
