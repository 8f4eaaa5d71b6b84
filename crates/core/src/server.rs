//! The monitoring server: wraps any [`CtupAlgorithm`] and turns result
//! changes into a stream of events, the way a dispatch center would consume
//! the CTUP query.

use crate::algorithm::{CtupAlgorithm, UpdateStats};
use crate::types::{LocationUpdate, PlaceId, Safety, TopKEntry};
use ctup_storage::StorageError;
use std::collections::HashMap;

/// A change to the monitored result caused by one location update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorEvent {
    /// A place entered the result (became top-k unsafe).
    Entered {
        /// The place.
        place: PlaceId,
        /// Its safety on entry.
        safety: Safety,
    },
    /// A place left the result.
    Left {
        /// The place.
        place: PlaceId,
    },
    /// A place stayed in the result with a different safety.
    SafetyChanged {
        /// The place.
        place: PlaceId,
        /// Safety before the update.
        old: Safety,
        /// Safety after the update.
        new: Safety,
    },
}

/// A CTUP monitoring server over an arbitrary algorithm.
pub struct Server<A: CtupAlgorithm> {
    algorithm: A,
    /// The published result: what a subscriber folding every emitted
    /// event holds.
    current: HashMap<PlaceId, Safety>,
    /// Whether `current` was taken over from another server and may differ
    /// from the algorithm's result; the next ingest diffs regardless.
    adopted: bool,
    events_emitted: u64,
}

impl<A: CtupAlgorithm> std::fmt::Debug for Server<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("algorithm", &self.algorithm.name())
            .field("events_emitted", &self.events_emitted)
            .finish_non_exhaustive()
    }
}

impl<A: CtupAlgorithm> Server<A> {
    /// Wraps an initialized algorithm.
    pub fn new(algorithm: A) -> Self {
        let current = algorithm
            .result()
            .iter()
            .map(|e| (e.place, e.safety))
            .collect();
        Server {
            algorithm,
            current,
            adopted: false,
            events_emitted: 0,
        }
    }

    /// Takes over the published result of `crashed` — what its subscribers
    /// hold — so the next [`Server::ingest`] diffs against that map,
    /// whether or not the algorithm reports a change. A monitor re-derived
    /// after a crash can break a tie at `SK` differently from the one that
    /// crashed; the diff then publishes the swap instead of leaving the
    /// subscribers' map out of step.
    pub fn take_over_published(&mut self, crashed: Server<A>) {
        self.current = crashed.current;
        self.adopted = true;
    }

    /// The wrapped algorithm.
    pub fn algorithm(&self) -> &A {
        &self.algorithm
    }

    /// Unwraps the server, returning the algorithm.
    pub fn into_algorithm(self) -> A {
        self.algorithm
    }

    /// The current monitored result.
    pub fn result(&self) -> Vec<TopKEntry> {
        self.algorithm.result()
    }

    /// Total events emitted so far.
    pub fn events_emitted(&self) -> u64 {
        self.events_emitted
    }

    /// Processes one location update and returns the result changes it
    /// caused, `Entered`/`SafetyChanged` first (sorted by place id), then
    /// `Left` (sorted by place id). A storage failure aborts the update
    /// before any event is emitted.
    pub fn ingest(
        &mut self,
        update: LocationUpdate,
    ) -> Result<(Vec<MonitorEvent>, UpdateStats), StorageError> {
        let stats = self.algorithm.handle_update(update)?;
        let mut events = Vec::new();
        if stats.result_changed || std::mem::take(&mut self.adopted) {
            let fresh: HashMap<PlaceId, Safety> = self
                .algorithm
                .result()
                .iter()
                .map(|e| (e.place, e.safety))
                .collect();
            let mut entered_or_changed: Vec<MonitorEvent> = fresh
                .iter()
                .filter_map(|(&place, &safety)| match self.current.get(&place) {
                    None => Some(MonitorEvent::Entered { place, safety }),
                    Some(&old) if old != safety => Some(MonitorEvent::SafetyChanged {
                        place,
                        old,
                        new: safety,
                    }),
                    Some(_) => None,
                })
                .collect();
            entered_or_changed.sort_by_key(|e| match *e {
                MonitorEvent::Entered { place, .. } => place,
                MonitorEvent::SafetyChanged { place, .. } => place,
                MonitorEvent::Left { place } => place,
            });
            let mut left: Vec<PlaceId> = self
                .current
                .keys()
                .filter(|place| !fresh.contains_key(place))
                .copied()
                .collect();
            left.sort_unstable();
            events.extend(entered_or_changed);
            events.extend(left.into_iter().map(|place| MonitorEvent::Left { place }));
            self.current = fresh;
        }
        self.events_emitted += ctup_spatial::convert::count64(events.len());
        Ok((events, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CtupConfig;
    use crate::naive::NaiveRecompute;
    use crate::types::{Place, UnitId};
    use ctup_spatial::{Grid, Point};
    use ctup_storage::{CellLocalStore, PlaceStore};
    use std::sync::Arc;

    fn server() -> Server<NaiveRecompute> {
        let places = vec![
            Place::point(PlaceId(0), Point::new(0.2, 0.2), 2),
            Place::point(PlaceId(1), Point::new(0.8, 0.8), 2),
        ];
        let store: Arc<dyn PlaceStore> =
            Arc::new(CellLocalStore::build(Grid::unit_square(4), places));
        // One unit protecting place 0: result (k=1) is place 1 at -2.
        let alg = NaiveRecompute::new(CtupConfig::with_k(1), store, &[Point::new(0.2, 0.2)])
            .expect("init");
        Server::new(alg)
    }

    #[test]
    fn enter_and_leave_events() {
        let mut srv = server();
        assert_eq!(srv.result()[0].place, PlaceId(1));
        // Unit moves to protect place 1 instead: place 0 becomes the result.
        let (events, stats) = srv
            .ingest(LocationUpdate {
                unit: UnitId(0),
                new: Point::new(0.8, 0.8),
            })
            .expect("ingest");
        assert!(stats.result_changed);
        assert_eq!(
            events,
            vec![
                MonitorEvent::Entered {
                    place: PlaceId(0),
                    safety: -2
                },
                MonitorEvent::Left { place: PlaceId(1) },
            ]
        );
        assert_eq!(srv.events_emitted(), 2);
    }

    #[test]
    fn safety_change_event() {
        let mut srv = server();
        // Unit moves away from both places: place 1 stays the top-1 but the
        // set {place 1: -2} is unchanged, while place 0 drops to -2 as well;
        // with k=1 and id tiebreak place 0 now wins.
        let (events, _) = srv
            .ingest(LocationUpdate {
                unit: UnitId(0),
                new: Point::new(0.5, 0.5),
            })
            .expect("ingest");
        assert_eq!(
            events,
            vec![
                MonitorEvent::Entered {
                    place: PlaceId(0),
                    safety: -2
                },
                MonitorEvent::Left { place: PlaceId(1) },
            ]
        );
        // Unit returns next to place 0 but not within range: no change.
        let (events, stats) = srv
            .ingest(LocationUpdate {
                unit: UnitId(0),
                new: Point::new(0.45, 0.5),
            })
            .expect("ingest");
        assert!(events.is_empty());
        assert!(!stats.result_changed);
    }

    #[test]
    fn no_events_for_irrelevant_updates() {
        let mut srv = server();
        let (events, stats) = srv
            .ingest(LocationUpdate {
                unit: UnitId(0),
                new: Point::new(0.21, 0.2),
            })
            .expect("ingest");
        assert!(events.is_empty());
        assert!(!stats.result_changed);
        assert_eq!(srv.events_emitted(), 0);
    }
}
