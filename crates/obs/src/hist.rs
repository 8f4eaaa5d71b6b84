//! Log-bucketed latency histograms (HDR-style), hand-rolled so the hot
//! path stays allocation-free and the crate stays dependency-free.
//!
//! # Bucketing math
//!
//! Values below [`SUB_BUCKETS`] are recorded exactly, one bucket per value.
//! A value `v >= 16` with bit length `exp + 1` (`exp = 63 - v.leading_zeros()`,
//! so `exp >= 4`) lands in
//!
//! ```text
//! index = 16 + (exp - 4) * 16 + ((v >> (exp - 4)) & 15)
//! ```
//!
//! i.e. each power-of-two range `[2^exp, 2^(exp+1))` is split into 16
//! linear sub-buckets, bounding the relative quantile error at
//! `1/16 = 6.25%`. `exp` ranges over `4..=63`, giving
//! `16 + 60 * 16 = 976` buckets total — 7.8 KiB of `u64` counts, cheap
//! enough to embed one histogram per tracked phase.
//!
//! # Memory ordering
//!
//! This module is on the lint L008 counters allowlist: every atomic here
//! is a monotone count (`fetch_add`) or a monotone bound (`fetch_min` /
//! `fetch_max`), read only to render advisory snapshots. `Relaxed` is
//! sufficient because no other memory is published through these cells —
//! a reader that misses the latest increment renders a slightly stale
//! histogram, never a torn or inconsistent one — and per-cell
//! modification order still guarantees each counter is non-decreasing.
//!
//! The exact minimum and maximum are tracked alongside the buckets, so
//! `quantile(0.0)` / `quantile(1.0)` are exact and interior quantiles are
//! clamped into `[min, max]`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of exact low-value buckets, and sub-buckets per power of two.
pub const SUB_BUCKETS: u64 = 16;
/// Total bucket count (see module docs for the derivation).
pub const NUM_BUCKETS: usize = 976;

/// Bucket index for `v`. Total order preserving: `a <= b` implies
/// `index(a) <= index(b)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as u64; // >= 4
    let sub = (v >> (exp - 4)) & 15;
    (16 + (exp - 4) * 16 + sub) as usize
}

/// Smallest value mapping to bucket `idx` (inverse of [`bucket_index`]).
#[inline]
pub fn bucket_low(idx: usize) -> u64 {
    if idx < 16 {
        return idx as u64;
    }
    let exp = (idx as u64 - 16) / 16 + 4;
    let sub = (idx as u64 - 16) % 16;
    (16 + sub) << (exp - 4)
}

/// Largest value mapping to bucket `idx`.
#[inline]
pub fn bucket_high(idx: usize) -> u64 {
    if idx + 1 >= NUM_BUCKETS {
        return u64::MAX;
    }
    bucket_low(idx + 1) - 1
}

/// A mergeable log-bucketed histogram of `u64` samples
/// (nanoseconds, in this codebase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded samples, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` into `self`. Exact: merging is bucket-wise addition.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper edge of the bucket
    /// holding the sample of rank `ceil(q * count)`, clamped into the exact
    /// `[min, max]` range. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_high(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(index, count)` pairs, ascending by index.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (i, *c))
    }

    /// Compact text encoding for checkpoint/report files:
    /// `v1 <count> <sum> <min> <max> <idx>:<n> <idx>:<n> …` (sparse, exact
    /// round-trip via [`LogHistogram::decode`]).
    pub fn encode(&self) -> String {
        let mut out = format!("v1 {} {} {} {}", self.count, self.sum, self.min, self.max);
        for (idx, c) in self.nonzero_buckets() {
            out.push(' ');
            out.push_str(&idx.to_string());
            out.push(':');
            out.push_str(&c.to_string());
        }
        out
    }

    /// Parses the [`LogHistogram::encode`] format.
    pub fn decode(s: &str) -> Result<LogHistogram, HistDecodeError> {
        let mut parts = s.split_ascii_whitespace();
        if parts.next() != Some("v1") {
            return Err(HistDecodeError::BadVersion);
        }
        let mut header = [0u64; 4];
        for slot in header.iter_mut() {
            let tok = parts.next().ok_or(HistDecodeError::Truncated)?;
            *slot = tok.parse().map_err(|_| HistDecodeError::BadNumber)?;
        }
        let mut h = LogHistogram {
            counts: vec![0; NUM_BUCKETS],
            count: header[0],
            sum: header[1],
            min: header[2],
            max: header[3],
        };
        let mut total = 0u64;
        for pair in parts {
            let (idx, c) = pair.split_once(':').ok_or(HistDecodeError::BadPair)?;
            let idx: usize = idx.parse().map_err(|_| HistDecodeError::BadNumber)?;
            let c: u64 = c.parse().map_err(|_| HistDecodeError::BadNumber)?;
            if idx >= NUM_BUCKETS {
                return Err(HistDecodeError::BucketOutOfRange);
            }
            h.counts[idx] = h.counts[idx]
                .checked_add(c)
                .ok_or(HistDecodeError::BadNumber)?;
            total = total.checked_add(c).ok_or(HistDecodeError::BadNumber)?;
        }
        if total != h.count {
            return Err(HistDecodeError::CountMismatch);
        }
        Ok(h)
    }
}

/// Why a histogram text encoding failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistDecodeError {
    /// Missing or unknown leading version tag.
    BadVersion,
    /// Header ended before count/sum/min/max were read.
    Truncated,
    /// A numeric field failed to parse or overflowed.
    BadNumber,
    /// A bucket entry was not `idx:count`.
    BadPair,
    /// A bucket index exceeded [`NUM_BUCKETS`].
    BucketOutOfRange,
    /// Bucket counts do not add up to the header count.
    CountMismatch,
}

impl std::fmt::Display for HistDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            HistDecodeError::BadVersion => "missing or unknown histogram version tag",
            HistDecodeError::Truncated => "histogram header truncated",
            HistDecodeError::BadNumber => "unparseable or overflowing number",
            HistDecodeError::BadPair => "bucket entry is not `idx:count`",
            HistDecodeError::BucketOutOfRange => "bucket index out of range",
            HistDecodeError::CountMismatch => "bucket counts disagree with header count",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for HistDecodeError {}

/// Lock-free histogram for shared-reference call sites (storage stats).
/// Relaxed ordering everywhere: counters tolerate reordering, and the
/// snapshot is advisory, never a synchronization point.
pub struct AtomicHistogram {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for AtomicHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicHistogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        let mut counts = Vec::with_capacity(NUM_BUCKETS);
        counts.resize_with(NUM_BUCKETS, || AtomicU64::new(0));
        AtomicHistogram {
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample through a shared reference.
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Resets all buckets and the summary fields to the empty state.
    /// Advisory like `snapshot`: concurrent recorders may interleave.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Materializes the current contents as a plain [`LogHistogram`].
    /// Not atomic across buckets; concurrent recorders may straddle the
    /// scan, which is fine for reporting.
    pub fn snapshot(&self) -> LogHistogram {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        LogHistogram {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..16 {
            h.record(v);
        }
        for v in 0..16usize {
            assert_eq!(bucket_index(v as u64), v);
            assert_eq!(bucket_low(v), v as u64);
            assert_eq!(bucket_high(v), v as u64);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(33), 32);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_low(16), 16);
        assert_eq!(bucket_low(32), 32);
        assert_eq!(bucket_high(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn index_is_monotone_over_boundaries() {
        let mut prev = 0;
        for exp in 4..63u32 {
            for v in [(1u64 << exp) - 1, 1u64 << exp, (1u64 << exp) + 1] {
                let idx = bucket_index(v);
                assert!(idx >= prev, "index not monotone at {v}");
                assert!(bucket_low(idx) <= v && v <= bucket_high(idx));
                prev = idx;
            }
        }
    }

    #[test]
    fn quantiles_bounded_and_exact_at_ends() {
        let mut h = LogHistogram::new();
        for v in [100u64, 200, 300, 4000, 50_000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 100);
        assert_eq!(h.quantile(1.0), 50_000);
        let p50 = h.quantile(0.5);
        assert!((100..=50_000).contains(&p50));
        // rank ceil(0.5*5)=3 → third sample (300), within 6.25%.
        assert!((300..=300 + 300 / 16 + 1).contains(&p50), "p50={p50}");
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(10);
        a.record(1000);
        b.record(20);
        b.record(99);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), 4);
        assert_eq!(m.min(), 10);
        assert_eq!(m.max(), 1000);
        assert_eq!(m.sum(), a.sum() + b.sum());
    }

    #[test]
    fn codec_round_trips() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 15, 16, 17, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let enc = h.encode();
        let dec = LogHistogram::decode(&enc).expect("round trip");
        assert_eq!(dec, h);
    }

    #[test]
    fn codec_rejects_malformed() {
        assert_eq!(
            LogHistogram::decode("v2 0 0 0 0"),
            Err(HistDecodeError::BadVersion)
        );
        assert_eq!(
            LogHistogram::decode("v1 1 0"),
            Err(HistDecodeError::Truncated)
        );
        assert_eq!(
            LogHistogram::decode("v1 1 0 0 0 9999:1"),
            Err(HistDecodeError::BucketOutOfRange)
        );
        assert_eq!(
            LogHistogram::decode("v1 2 0 0 0 3:1"),
            Err(HistDecodeError::CountMismatch)
        );
        assert_eq!(
            LogHistogram::decode("v1 1 0 0 0 3-1"),
            Err(HistDecodeError::BadPair)
        );
    }

    #[test]
    fn atomic_matches_plain() {
        let a = AtomicHistogram::new();
        let mut p = LogHistogram::new();
        for v in [5u64, 500, 50_000, 5_000_000] {
            a.record(v);
            p.record(v);
        }
        assert_eq!(a.snapshot(), p);
    }
}
