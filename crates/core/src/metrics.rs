//! Logical cost counters collected by every CTUP algorithm.
//!
//! Wall-clock numbers depend on hardware; these counters capture the
//! algorithmic quantities the paper argues about — how often cells are
//! accessed, how many lower bounds move, how much state is maintained.

/// Counters of the resilience layer: how much of the inbound feed was
/// rejected or dropped at the ingest front-door, and what the supervised
/// pipeline had to do to survive worker panics. All cumulative.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Reports rejected because a coordinate was NaN or infinite.
    pub rejected_non_finite: u64,
    /// Reports rejected because the position lies outside the monitored
    /// space.
    pub rejected_out_of_space: u64,
    /// Reports rejected because the unit id is not in `0..|U|`.
    pub rejected_unknown_unit: u64,
    /// Reports dropped because a newer report of the same unit was already
    /// accepted (reordered or delayed delivery).
    pub stale_dropped: u64,
    /// Reports dropped because the exact same sequence number of that unit
    /// was already accepted (duplicated delivery).
    pub duplicates_dropped: u64,
    /// Worker panics caught by the supervisor.
    pub worker_panics: u64,
    /// Worker restarts, each a fresh initialization from the current unit
    /// positions, one per recovery attempt (a restore that fails and is
    /// retried counts twice).
    pub worker_restarts: u64,
    /// Journal updates recovered after a process death, folded into the
    /// slot's unit positions before the one initialization. A self-heal
    /// replays none.
    pub updates_replayed: u64,
    /// Durable slots landed by the supervisor (every `checkpoint_every`
    /// effective updates when it runs with a state directory).
    pub checkpoints_taken: u64,
    /// Storage errors (exhausted retries, detected corruption) surfaced by
    /// the worker and contained by the supervisor like a panic.
    pub storage_errors: u64,
}

impl ResilienceStats {
    /// Total reports rejected by validation (excluding stale/duplicate
    /// drops, which are counted separately).
    pub fn rejected_total(&self) -> u64 {
        self.rejected_non_finite + self.rejected_out_of_space + self.rejected_unknown_unit
    }

    /// Component-wise difference since `earlier`; saturates at zero, so a
    /// snapshot taken after a recovery reset never underflows (plain `-`
    /// would panic in debug builds).
    pub fn since(&self, earlier: &ResilienceStats) -> ResilienceStats {
        ResilienceStats {
            rejected_non_finite: self
                .rejected_non_finite
                .saturating_sub(earlier.rejected_non_finite),
            rejected_out_of_space: self
                .rejected_out_of_space
                .saturating_sub(earlier.rejected_out_of_space),
            rejected_unknown_unit: self
                .rejected_unknown_unit
                .saturating_sub(earlier.rejected_unknown_unit),
            stale_dropped: self.stale_dropped.saturating_sub(earlier.stale_dropped),
            duplicates_dropped: self
                .duplicates_dropped
                .saturating_sub(earlier.duplicates_dropped),
            worker_panics: self.worker_panics.saturating_sub(earlier.worker_panics),
            worker_restarts: self.worker_restarts.saturating_sub(earlier.worker_restarts),
            updates_replayed: self
                .updates_replayed
                .saturating_sub(earlier.updates_replayed),
            checkpoints_taken: self
                .checkpoints_taken
                .saturating_sub(earlier.checkpoints_taken),
            storage_errors: self.storage_errors.saturating_sub(earlier.storage_errors),
        }
    }
}

/// Cumulative counters; cheap enough to update on every operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Location updates processed since construction.
    pub updates_processed: u64,
    /// Cells illuminated/accessed (lower-level reads triggered by the
    /// algorithm, excluding initialization).
    pub cells_accessed: u64,
    /// Place records loaded by those accesses.
    pub places_loaded: u64,
    /// Lower-bound increments applied.
    pub lb_increments: u64,
    /// Lower-bound decrements applied.
    pub lb_decrements: u64,
    /// Decrements suppressed by the Decrease-Once Optimization.
    pub lb_decrements_suppressed: u64,
    /// Cells darkened / maintained places evicted back under a lower bound.
    pub cells_darkened: u64,
    /// Number of places currently maintained at the higher level.
    pub maintained_now: u64,
    /// Peak of `maintained_now`.
    pub maintained_peak: u64,
    /// Current number of `(unit, cell)` pairs in DecHash (OptCTUP only).
    pub dechash_len: u64,
    /// Nanoseconds spent updating maintained information (steps 1–2 of the
    /// update algorithms: maintained safeties + lower bounds).
    pub maintain_nanos: u64,
    /// Nanoseconds spent accessing cells (step 3: loading places,
    /// recomputing safeties, filtering).
    pub access_nanos: u64,
    /// Updates after which the reported result changed.
    pub result_changes: u64,
    /// Resilience-layer counters (zero unless the algorithm runs behind an
    /// ingest gate / supervised pipeline).
    pub resilience: ResilienceStats,
}

impl Metrics {
    /// Records the current maintained-place count, tracking the peak.
    pub fn set_maintained(&mut self, now: u64) {
        self.maintained_now = now;
        if now > self.maintained_peak {
            self.maintained_peak = now;
        }
    }

    /// Component-wise difference since `earlier` for the cumulative fields;
    /// gauge fields (`maintained_now`, `dechash_len`) keep their current
    /// values. Saturates at zero so an `earlier` snapshot from after a
    /// recovery reset never underflows.
    pub fn since(&self, earlier: &Metrics) -> Metrics {
        Metrics {
            updates_processed: self
                .updates_processed
                .saturating_sub(earlier.updates_processed),
            cells_accessed: self.cells_accessed.saturating_sub(earlier.cells_accessed),
            places_loaded: self.places_loaded.saturating_sub(earlier.places_loaded),
            lb_increments: self.lb_increments.saturating_sub(earlier.lb_increments),
            lb_decrements: self.lb_decrements.saturating_sub(earlier.lb_decrements),
            lb_decrements_suppressed: self
                .lb_decrements_suppressed
                .saturating_sub(earlier.lb_decrements_suppressed),
            cells_darkened: self.cells_darkened.saturating_sub(earlier.cells_darkened),
            maintained_now: self.maintained_now,
            maintained_peak: self.maintained_peak,
            dechash_len: self.dechash_len,
            maintain_nanos: self.maintain_nanos.saturating_sub(earlier.maintain_nanos),
            access_nanos: self.access_nanos.saturating_sub(earlier.access_nanos),
            result_changes: self.result_changes.saturating_sub(earlier.result_changes),
            resilience: self.resilience.since(&earlier.resilience),
        }
    }

    /// The inverse of [`Metrics::since`]: this monitor's counters added to
    /// those of `earlier`, a monitor it replaced. Gauge fields keep their
    /// current values, the peak is the larger, and the resilience block is
    /// this one's.
    pub fn after(&self, earlier: &Metrics) -> Metrics {
        let add = |now: u64, then: u64| now.saturating_add(then);
        Metrics {
            updates_processed: add(self.updates_processed, earlier.updates_processed),
            cells_accessed: add(self.cells_accessed, earlier.cells_accessed),
            places_loaded: add(self.places_loaded, earlier.places_loaded),
            lb_increments: add(self.lb_increments, earlier.lb_increments),
            lb_decrements: add(self.lb_decrements, earlier.lb_decrements),
            lb_decrements_suppressed: add(
                self.lb_decrements_suppressed,
                earlier.lb_decrements_suppressed,
            ),
            cells_darkened: add(self.cells_darkened, earlier.cells_darkened),
            maintained_now: self.maintained_now,
            maintained_peak: self.maintained_peak.max(earlier.maintained_peak),
            dechash_len: self.dechash_len,
            maintain_nanos: add(self.maintain_nanos, earlier.maintain_nanos),
            access_nanos: add(self.access_nanos, earlier.access_nanos),
            result_changes: add(self.result_changes, earlier.result_changes),
            resilience: self.resilience.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_maximum() {
        let mut m = Metrics::default();
        m.set_maintained(10);
        m.set_maintained(3);
        m.set_maintained(7);
        assert_eq!(m.maintained_now, 7);
        assert_eq!(m.maintained_peak, 10);
    }

    #[test]
    fn since_subtracts_counters_but_keeps_gauges() {
        let a = Metrics {
            updates_processed: 10,
            cells_accessed: 4,
            maintained_now: 5,
            ..Metrics::default()
        };
        let mut b = a.clone();
        b.updates_processed = 25;
        b.cells_accessed = 6;
        b.maintained_now = 9;
        let d = b.since(&a);
        assert_eq!(d.updates_processed, 15);
        assert_eq!(d.cells_accessed, 2);
        assert_eq!(d.maintained_now, 9);
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        // Regression: after a recovery reset, the "earlier" snapshot can be
        // ahead of the current counters; plain subtraction panicked in
        // debug builds. The delta must saturate at zero instead.
        let fresh = Metrics {
            updates_processed: 3,
            cells_accessed: 1,
            ..Metrics::default()
        };
        let before_reset = Metrics {
            updates_processed: 100,
            cells_accessed: 50,
            maintain_nanos: 1_000,
            access_nanos: 2_000,
            resilience: ResilienceStats {
                stale_dropped: 9,
                worker_panics: 2,
                ..ResilienceStats::default()
            },
            ..Metrics::default()
        };
        let d = fresh.since(&before_reset);
        assert_eq!(d.updates_processed, 0);
        assert_eq!(d.cells_accessed, 0);
        assert_eq!(d.maintain_nanos, 0);
        assert_eq!(d.resilience.stale_dropped, 0);
        assert_eq!(d.resilience.worker_panics, 0);

        let r = ResilienceStats::default().since(&ResilienceStats {
            storage_errors: 7,
            ..ResilienceStats::default()
        });
        assert_eq!(r.storage_errors, 0);
    }

    #[test]
    fn after_adds_counters_and_undoes_since() {
        let earlier = Metrics {
            updates_processed: 10,
            cells_accessed: 4,
            maintained_now: 5,
            maintained_peak: 12,
            ..Metrics::default()
        };
        let mut now = Metrics {
            updates_processed: 7,
            cells_accessed: 3,
            ..Metrics::default()
        };
        now.set_maintained(9);
        let total = now.after(&earlier);
        assert_eq!(total.updates_processed, 17);
        assert_eq!(total.cells_accessed, 7);
        assert_eq!(total.maintained_now, 9);
        assert_eq!(total.maintained_peak, 12);
        let back = total.since(&earlier);
        assert_eq!(back.updates_processed, now.updates_processed);
        assert_eq!(back.cells_accessed, now.cells_accessed);
    }

    #[test]
    fn resilience_since_and_totals() {
        let a = ResilienceStats {
            rejected_non_finite: 1,
            rejected_out_of_space: 2,
            rejected_unknown_unit: 3,
            stale_dropped: 4,
            ..ResilienceStats::default()
        };
        assert_eq!(a.rejected_total(), 6);
        let mut b = a.clone();
        b.rejected_unknown_unit = 10;
        b.worker_restarts = 2;
        b.storage_errors = 3;
        let d = b.since(&a);
        assert_eq!(d.rejected_unknown_unit, 7);
        assert_eq!(d.worker_restarts, 2);
        assert_eq!(d.stale_dropped, 0);
        assert_eq!(d.storage_errors, 3);

        let m = Metrics {
            resilience: b.clone(),
            ..Metrics::default()
        };
        let d = m.since(&Metrics {
            resilience: a,
            ..Metrics::default()
        });
        assert_eq!(d.resilience.rejected_unknown_unit, 7);
    }
}
