//! Per-run latency capture: phase timing, histograms keyed by phase, and
//! the [`ObsHub`] that owns a run's histograms.

use crate::hist::LogHistogram;
use std::time::Instant;

/// Nanosecond phase timer: `lap()` returns the nanos since the previous
/// lap (or construction) and restarts the clock. Saturates at `u64::MAX`
/// (a ~584-year phase is a clock bug, not a measurement).
#[derive(Debug)]
pub struct PhaseTimer {
    last: Instant,
}

impl PhaseTimer {
    /// Starts the clock.
    pub fn start() -> Self {
        PhaseTimer {
            last: Instant::now(),
        }
    }

    /// Nanoseconds since the previous lap; restarts the clock.
    pub fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let nanos = now.duration_since(self.last).as_nanos();
        self.last = now;
        u64::try_from(nanos).unwrap_or(u64::MAX)
    }
}

/// All latency histograms of one run, mergeable field by field. Field
/// names are the exposition names (lint rule L004 checks each appears in
/// the CLI report).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// End-to-end `handle_update` time (maintain + access) per update.
    pub update_total_nanos: LogHistogram,
    /// Maintain-phase time per update.
    pub update_maintain_nanos: LogHistogram,
    /// Access-phase time per update.
    pub update_access_nanos: LogHistogram,
    /// Durable checkpoint write time per checkpoint.
    pub checkpoint_write_nanos: LogHistogram,
    /// Simulated disk cell-read time per read (from `StorageStats`).
    pub disk_read_nanos: LogHistogram,
}

impl LatencySnapshot {
    /// The histograms with their exposition names, in stable order.
    pub fn named(&self) -> [(&'static str, &LogHistogram); 5] {
        [
            ("update_total_nanos", &self.update_total_nanos),
            ("update_maintain_nanos", &self.update_maintain_nanos),
            ("update_access_nanos", &self.update_access_nanos),
            ("checkpoint_write_nanos", &self.checkpoint_write_nanos),
            ("disk_read_nanos", &self.disk_read_nanos),
        ]
    }

    /// Folds `other` into `self`, histogram by histogram.
    pub fn merge(&mut self, other: &LatencySnapshot) {
        self.update_total_nanos.merge(&other.update_total_nanos);
        self.update_maintain_nanos
            .merge(&other.update_maintain_nanos);
        self.update_access_nanos.merge(&other.update_access_nanos);
        self.checkpoint_write_nanos
            .merge(&other.checkpoint_write_nanos);
        self.disk_read_nanos.merge(&other.disk_read_nanos);
    }
}

/// One-line human summary of a histogram: count, mean and tail quantiles.
pub fn summarize(h: &LogHistogram) -> String {
    format!(
        "n={} mean={} p50={} p90={} p99={} p999={} max={}",
        h.count(),
        h.mean(),
        h.quantile(0.50),
        h.quantile(0.90),
        h.quantile(0.99),
        h.quantile(0.999),
        h.max(),
    )
}

/// The per-run observability hub: the run-local latency histograms.
/// Lives inside the supervised apply stage and is cheap enough to feed
/// on every update.
#[derive(Debug, Default)]
pub struct ObsHub {
    update_total: LogHistogram,
    update_maintain: LogHistogram,
    update_access: LogHistogram,
    checkpoint_write: LogHistogram,
}

impl ObsHub {
    /// Records the phase timings of one applied update.
    pub fn record_update(&mut self, maintain_nanos: u64, access_nanos: u64) {
        self.update_maintain.record(maintain_nanos);
        self.update_access.record(access_nanos);
        self.update_total
            .record(maintain_nanos.saturating_add(access_nanos));
    }

    /// Records one checkpoint write time.
    pub fn record_checkpoint(&mut self, nanos: u64) {
        self.checkpoint_write.record(nanos);
    }

    /// Materializes the run's latency view, joining the run-local update
    /// histograms with the storage layer's disk-read histogram.
    pub fn snapshot(&self, disk_read_nanos: LogHistogram) -> LatencySnapshot {
        LatencySnapshot {
            update_total_nanos: self.update_total.clone(),
            update_maintain_nanos: self.update_maintain.clone(),
            update_access_nanos: self.update_access.clone(),
            checkpoint_write_nanos: self.checkpoint_write.clone(),
            disk_read_nanos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_feeds_update_and_checkpoint_histograms() {
        let mut hub = ObsHub::default();
        hub.record_update(100, 200);
        hub.record_checkpoint(1234);
        let snap = hub.snapshot(LogHistogram::new());
        assert_eq!(snap.update_total_nanos.count(), 1);
        assert_eq!(snap.update_total_nanos.max(), 300);
        assert_eq!(snap.update_maintain_nanos.max(), 100);
        assert_eq!(snap.checkpoint_write_nanos.count(), 1);
    }

    #[test]
    fn phase_timer_laps_are_monotone() {
        let mut t = PhaseTimer::start();
        let a = t.lap();
        let b = t.lap();
        // Laps are non-negative by construction; just ensure they both
        // produced plausible (small) values.
        assert!(a < 1_000_000_000 && b < 1_000_000_000);
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let mut a = LatencySnapshot::default();
        a.update_total_nanos.record(10);
        let mut b = LatencySnapshot::default();
        b.update_total_nanos.record(20);
        b.disk_read_nanos.record(5);
        a.merge(&b);
        assert_eq!(a.update_total_nanos.count(), 2);
        assert_eq!(a.disk_read_nanos.count(), 1);
    }

    #[test]
    fn summarize_mentions_quantiles() {
        let mut h = LogHistogram::new();
        h.record(100);
        let s = summarize(&h);
        assert!(s.contains("p50=") && s.contains("p999="));
    }
}
