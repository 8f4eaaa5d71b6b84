//! The ingest front-door: validation and dedup.
//!
//! The CTUP feed is a wireless link from moving units to a dispatch server,
//! so messages drop, duplicate, reorder and corrupt in flight. The
//! [`IngestGate`] sits between the receiver and the query processor and
//! turns the raw feed into an *effective* update sequence the algorithms
//! can trust: every [`StampedUpdate`] is validated (finite coordinates
//! inside the monitored space, known unit id) and deduplicated against the
//! unit's per-feed sequence number. Rejects carry a typed [`RejectReason`]
//! and are counted in [`ResilienceStats`]; an accepted report is exactly
//! one effective update, the report's own position.
//!
//! The gate's state is one sequence number per unit and can be captured in
//! a [`GateState`] for checkpointing alongside the monitor state.

use crate::metrics::ResilienceStats;
use crate::types::LocationUpdate;
use ctup_spatial::Rect;
use std::fmt;

/// A location update as received from the wire: the bare [`LocationUpdate`]
/// plus the sender-side monotonic sequence number and report timestamp that
/// let the server detect duplicated, reordered and stale deliveries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StampedUpdate {
    /// Per-unit monotonic sequence number assigned by the sender.
    pub seq: u64,
    /// Report timestamp in feed ticks. The gate does not read it; it is
    /// on the wire and in the journal only because `ledger/src/sut.rs`
    /// reads it, and ROADMAP item 1(b) removes it.
    pub ts: u64,
    /// The position report itself.
    pub update: LocationUpdate,
}

/// A [`StampedUpdate`] with its causal-trace context, the unit handed to
/// the engine sink. Never persisted (checkpoints and the WAL store bare
/// [`StampedUpdate`]s): the trace id travels on the wire, the hand-off
/// stamp is process-local.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracedReport {
    /// The stamped report itself.
    pub report: StampedUpdate,
    /// Causal trace id (0 = untraced; see `ctup_obs::span`).
    pub trace: u64,
    /// `ctup_obs::span::now_nanos` stamp of the pump hand-off, the start
    /// of the `engine-apply` span (0 when untraced).
    pub handed_nanos: u64,
}

impl TracedReport {
    /// Wraps a report with no trace context.
    pub fn untraced(report: StampedUpdate) -> Self {
        TracedReport {
            report,
            trace: 0,
            handed_nanos: 0,
        }
    }
}

/// Why the gate refused a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// A coordinate was NaN or infinite.
    NonFinite,
    /// The position lies outside the monitored space.
    OutOfSpace,
    /// The unit id is not in `0..|U|`.
    UnknownUnit,
    /// A newer report of this unit was already accepted.
    Stale,
    /// This exact sequence number of this unit was already accepted.
    Duplicate,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            RejectReason::NonFinite => "non-finite coordinate",
            RejectReason::OutOfSpace => "position outside the monitored space",
            RejectReason::UnknownUnit => "unknown unit id",
            RejectReason::Stale => "stale report (newer one already accepted)",
            RejectReason::Duplicate => "duplicate report (same sequence number)",
        };
        f.write_str(text)
    }
}

/// Configuration of the ingest gate.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestConfig {
    /// The monitored space; positions outside it are rejected.
    pub space: Rect,
    /// Number of units `|U|`; ids at or above this are rejected.
    pub num_units: usize,
    /// Unused: the gate no longer reads it. Kept only because
    /// `ledger/src/sut.rs` sets it (to `None`); ROADMAP item 1(b) removes
    /// it.
    pub lease_ttl: Option<u64>,
}

/// Per-unit gate state (serializable for checkpointing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateUnitState {
    /// Highest accepted sequence number, `None` before the first report.
    pub last_seq: Option<u64>,
}

/// Snapshot of the whole gate, stored inside a checkpoint so a restarted
/// server resumes with the same dedup decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateState {
    /// Per-unit state in unit-id order.
    pub units: Vec<GateUnitState>,
}

/// The validation / dedup front-door. See the module docs.
#[derive(Debug, Clone)]
pub struct IngestGate {
    config: IngestConfig,
    units: Vec<GateUnitState>,
}

impl IngestGate {
    /// Creates a gate that has accepted no report yet.
    pub fn new(config: IngestConfig) -> Self {
        let units = vec![GateUnitState { last_seq: None }; config.num_units];
        IngestGate { config, units }
    }

    /// Rebuilds a gate from a checkpointed [`GateState`].
    ///
    /// # Panics
    /// Panics if the state's unit count differs from the config's.
    pub fn from_state(config: IngestConfig, state: GateState) -> Self {
        assert_eq!(
            state.units.len(),
            config.num_units,
            "gate state unit count mismatch"
        );
        IngestGate {
            config,
            units: state.units,
        }
    }

    /// Captures the gate for checkpointing.
    pub fn state(&self) -> GateState {
        GateState {
            units: self.units.clone(),
        }
    }

    /// The gate's configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// Validates one report. On acceptance returns its one effective
    /// update, the report's own; rejections and drops return the typed
    /// reason and are counted in `stats`. The one-element `Vec` is kept
    /// only because `ledger/src/sut.rs` takes its `.last()`; ROADMAP item
    /// 1(b) makes it the update itself.
    pub fn admit(
        &mut self,
        report: StampedUpdate,
        stats: &mut ResilienceStats,
    ) -> Result<Vec<LocationUpdate>, RejectReason> {
        let p = report.update.new;
        if !(p.x.is_finite() && p.y.is_finite()) {
            stats.rejected_non_finite += 1;
            return Err(RejectReason::NonFinite);
        }
        if !self.config.space.contains_point(p) {
            stats.rejected_out_of_space += 1;
            return Err(RejectReason::OutOfSpace);
        }
        let Some(unit) = self.units.get_mut(report.update.unit.index()) else {
            stats.rejected_unknown_unit += 1;
            return Err(RejectReason::UnknownUnit);
        };
        match unit.last_seq {
            Some(last) if report.seq == last => {
                stats.duplicates_dropped += 1;
                return Err(RejectReason::Duplicate);
            }
            Some(last) if report.seq < last => {
                stats.stale_dropped += 1;
                return Err(RejectReason::Stale);
            }
            _ => {}
        }

        unit.last_seq = Some(report.seq);
        Ok(vec![report.update])
    }
}

/// Stamps a clean in-order update stream the way a well-behaved sender
/// fleet would: per-unit sequence numbers counting up from 1 and the global
/// arrival index (starting at 1) as the timestamp. Fault injection then
/// perturbs the stamped stream.
pub fn stamp_stream<I: IntoIterator<Item = LocationUpdate>>(updates: I) -> Vec<StampedUpdate> {
    let mut per_unit: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    updates
        .into_iter()
        .enumerate()
        .map(|(i, update)| {
            let seq = per_unit.entry(update.unit.0).or_insert(0);
            *seq += 1;
            StampedUpdate {
                seq: *seq,
                ts: ctup_spatial::convert::count64(i) + 1,
                update,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::UnitId;
    use ctup_spatial::Point;

    fn gate() -> IngestGate {
        IngestGate::new(IngestConfig {
            space: Rect::from_coords(0.0, 0.0, 1.0, 1.0),
            num_units: 3,
            lease_ttl: None,
        })
    }

    fn report(unit: u32, seq: u64, ts: u64, x: f64, y: f64) -> StampedUpdate {
        StampedUpdate {
            seq,
            ts,
            update: LocationUpdate {
                unit: UnitId(unit),
                new: Point::new(x, y),
            },
        }
    }

    #[test]
    fn rejects_malformed_reports() {
        let mut g = gate();
        let mut stats = ResilienceStats::default();
        assert_eq!(
            g.admit(report(0, 1, 1, f64::NAN, 0.5), &mut stats),
            Err(RejectReason::NonFinite)
        );
        assert_eq!(
            g.admit(report(0, 1, 1, f64::INFINITY, 0.5), &mut stats),
            Err(RejectReason::NonFinite)
        );
        assert_eq!(
            g.admit(report(0, 1, 1, 1.5, 0.5), &mut stats),
            Err(RejectReason::OutOfSpace)
        );
        assert_eq!(
            g.admit(report(7, 1, 1, 0.5, 0.5), &mut stats),
            Err(RejectReason::UnknownUnit)
        );
        assert_eq!(stats.rejected_non_finite, 2);
        assert_eq!(stats.rejected_out_of_space, 1);
        assert_eq!(stats.rejected_unknown_unit, 1);
        assert_eq!(stats.rejected_total(), 4);
    }

    #[test]
    fn drops_duplicates_and_stale_reports() {
        let mut g = gate();
        let mut stats = ResilienceStats::default();
        assert!(g.admit(report(1, 5, 10, 0.2, 0.2), &mut stats).is_ok());
        assert_eq!(
            g.admit(report(1, 5, 10, 0.2, 0.2), &mut stats),
            Err(RejectReason::Duplicate)
        );
        assert_eq!(
            g.admit(report(1, 3, 8, 0.3, 0.3), &mut stats),
            Err(RejectReason::Stale)
        );
        assert!(g.admit(report(1, 6, 11, 0.4, 0.4), &mut stats).is_ok());
        assert_eq!(stats.duplicates_dropped, 1);
        assert_eq!(stats.stale_dropped, 1);
    }

    #[test]
    fn accepted_update_passes_through_unchanged() {
        let mut g = gate();
        let mut stats = ResilienceStats::default();
        let eff = g.admit(report(2, 1, 1, 0.25, 0.75), &mut stats).unwrap();
        assert_eq!(
            eff,
            vec![LocationUpdate {
                unit: UnitId(2),
                new: Point::new(0.25, 0.75)
            }]
        );
    }

    #[test]
    fn state_roundtrip_preserves_decisions() {
        let mut g = gate();
        let mut stats = ResilienceStats::default();
        g.admit(report(0, 3, 4, 0.5, 0.5), &mut stats).unwrap();
        g.admit(report(1, 9, 6, 0.5, 0.5), &mut stats).unwrap();
        let state = g.state();
        let mut restored = IngestGate::from_state(g.config().clone(), state.clone());
        assert_eq!(restored.state(), state);
        // The restored gate makes the same dedup decision.
        assert_eq!(
            restored.admit(report(0, 3, 7, 0.5, 0.5), &mut stats),
            Err(RejectReason::Duplicate)
        );
        assert_eq!(
            g.admit(report(0, 3, 7, 0.5, 0.5), &mut stats),
            Err(RejectReason::Duplicate)
        );
    }

    #[test]
    fn stamp_stream_is_per_unit_monotonic() {
        let updates = vec![
            LocationUpdate {
                unit: UnitId(0),
                new: Point::new(0.1, 0.1),
            },
            LocationUpdate {
                unit: UnitId(1),
                new: Point::new(0.2, 0.2),
            },
            LocationUpdate {
                unit: UnitId(0),
                new: Point::new(0.3, 0.3),
            },
        ];
        let stamped = stamp_stream(updates);
        assert_eq!(stamped[0].seq, 1);
        assert_eq!(stamped[1].seq, 1);
        assert_eq!(stamped[2].seq, 2);
        assert_eq!(stamped[2].ts, 3);
        // A gate accepts the whole clean stream.
        let mut g = gate();
        let mut stats = ResilienceStats::default();
        for r in stamped {
            assert!(g.admit(r, &mut stats).is_ok());
        }
        assert_eq!(stats, ResilienceStats::default());
    }
}
