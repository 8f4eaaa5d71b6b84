//! Brute-force ground truth for testing and verification.
//!
//! The oracle recomputes every place's safety from scratch against the full
//! unit set. It is deliberately simple (no shared code with the monitored
//! algorithms beyond the protection predicate) so that agreement between an
//! algorithm and the oracle is meaningful evidence of correctness.

use crate::config::QueryMode;
use crate::types::{protects, Place, Safety, TopKEntry};
use ctup_spatial::Point;
use ctup_storage::{PlaceStore, StorageError};

/// A reference implementation computing exact results by exhaustive scan.
#[derive(Debug, Clone)]
pub struct Oracle {
    places: Vec<Place>,
}

impl Oracle {
    /// Creates an oracle over an explicit place list.
    pub fn new(places: Vec<Place>) -> Self {
        Oracle { places }
    }

    /// Creates an oracle over every place of a store (bypasses I/O
    /// accounting). Fails if the store's bulk scan hits corruption.
    pub fn from_store(store: &dyn PlaceStore) -> Result<Self, StorageError> {
        let mut places = Vec::with_capacity(store.num_places());
        store.for_each_place(&mut |p| places.push(p.clone()))?;
        Ok(Oracle { places })
    }

    /// The place set.
    pub fn places(&self) -> &[Place] {
        &self.places
    }

    /// Exact safety of one place given all unit positions.
    #[expect(
        clippy::cast_possible_wrap,
        reason = "a unit count is far below i64::MAX"
    )]
    pub fn safety_of(&self, place: &Place, units: &[Point], radius: f64) -> Safety {
        let ap = units
            .iter()
            .filter(|&&u| protects(u, radius, place))
            .count();
        ap as Safety - place.rp as Safety
    }

    /// Exact safeties of all places, in place order.
    pub fn safeties(&self, units: &[Point], radius: f64) -> Vec<Safety> {
        self.places
            .iter()
            .map(|p| self.safety_of(p, units, radius))
            .collect()
    }

    /// The exact monitored result under `mode`, sorted by `(safety, id)`.
    pub fn result(&self, units: &[Point], radius: f64, mode: QueryMode) -> Vec<TopKEntry> {
        let mut entries: Vec<TopKEntry> = self
            .places
            .iter()
            .map(|p| TopKEntry {
                place: p.id,
                safety: self.safety_of(p, units, radius),
            })
            .collect();
        entries.sort_by_key(|e| (e.safety, e.place));
        match mode {
            QueryMode::TopK(k) => {
                entries.truncate(k);
                entries
            }
            QueryMode::Threshold(tau) => {
                entries.retain(|e| e.safety < tau);
                entries
            }
        }
    }

    /// The exact `SK` (safety of the k-th unsafe place), `None` when fewer
    /// than `k` places exist.
    pub fn sk(&self, units: &[Point], radius: f64, k: usize) -> Option<Safety> {
        let mut safeties = self.safeties(units, radius);
        if safeties.len() < k {
            return None;
        }
        safeties.sort_unstable();
        Some(safeties[k - 1])
    }

    /// Asserts that `got` is a correct answer for `mode`: the safety
    /// multiset must match the exact result (place ids may differ among
    /// equal-safety entries at the `SK` boundary — ties are unordered by
    /// definition) and every reported safety must be the place's true one.
    ///
    /// # Panics
    /// Panics with a diagnostic when the result is wrong.
    pub fn assert_result_matches(
        &self,
        got: &[TopKEntry],
        units: &[Point],
        radius: f64,
        mode: QueryMode,
    ) {
        let expect = self.result(units, radius, mode);
        let got_safeties: Vec<Safety> = got.iter().map(|e| e.safety).collect();
        let expect_safeties: Vec<Safety> = expect.iter().map(|e| e.safety).collect();
        assert_eq!(
            got_safeties, expect_safeties,
            "safety multiset mismatch: got {got:?}, expected {expect:?}"
        );
        // Each reported entry must carry the true safety of that place.
        for entry in got {
            #[expect(
                clippy::panic,
                reason = "the oracle is an assertion harness — a reported place missing from the data set must fail the calling test"
            )]
            let place = self
                .places
                .iter()
                .find(|p| p.id == entry.place)
                .unwrap_or_else(|| panic!("{:?} reported but not in data set", entry.place));
            let truth = self.safety_of(place, units, radius);
            assert_eq!(
                entry.safety, truth,
                "{:?} reported with safety {} but truth is {truth}",
                entry.place, entry.safety
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PlaceId;

    fn places() -> Vec<Place> {
        vec![
            Place::point(PlaceId(0), Point::new(0.5, 0.5), 2),
            Place::point(PlaceId(1), Point::new(0.52, 0.5), 1),
            Place::point(PlaceId(2), Point::new(0.9, 0.9), 4),
        ]
    }

    #[test]
    fn safeties_and_sk() {
        let oracle = Oracle::new(places());
        let units = vec![Point::new(0.51, 0.5), Point::new(0.55, 0.5)];
        // Places 0 and 1 protected by both units; place 2 by none.
        assert_eq!(oracle.safeties(&units, 0.1), vec![0, 1, -4]);
        assert_eq!(oracle.sk(&units, 0.1, 1), Some(-4));
        assert_eq!(oracle.sk(&units, 0.1, 3), Some(1));
        assert_eq!(oracle.sk(&units, 0.1, 4), None);
    }

    #[test]
    fn result_topk_and_threshold() {
        let oracle = Oracle::new(places());
        let units = vec![Point::new(0.51, 0.5)];
        let top2 = oracle.result(&units, 0.1, QueryMode::TopK(2));
        assert_eq!(
            top2[0],
            TopKEntry {
                place: PlaceId(2),
                safety: -4
            }
        );
        assert_eq!(
            top2[1],
            TopKEntry {
                place: PlaceId(0),
                safety: -1
            }
        );
        let below = oracle.result(&units, 0.1, QueryMode::Threshold(0));
        assert_eq!(below.len(), 2);
    }

    #[test]
    fn assert_result_accepts_tie_swaps() {
        let mut ps = places();
        ps.push(Place::point(PlaceId(3), Point::new(0.1, 0.1), 4)); // also -4
        let oracle = Oracle::new(ps);
        let units = vec![];
        // True order by id: 2 then 3 (both -4). Swapped ids with the same
        // safeties must be accepted.
        let got = vec![
            TopKEntry {
                place: PlaceId(3),
                safety: -4,
            },
            TopKEntry {
                place: PlaceId(2),
                safety: -4,
            },
        ];
        oracle.assert_result_matches(&got, &units, 0.1, QueryMode::TopK(2));
    }

    #[test]
    #[should_panic(expected = "safety multiset mismatch")]
    fn assert_result_rejects_wrong_safeties() {
        let oracle = Oracle::new(places());
        let got = vec![TopKEntry {
            place: PlaceId(2),
            safety: -3,
        }];
        oracle.assert_result_matches(&got, &[], 0.1, QueryMode::TopK(1));
    }

    #[test]
    #[should_panic(expected = "but truth is")]
    fn assert_result_rejects_mislabelled_place() {
        let oracle = Oracle::new(places());
        let units = vec![];
        // Multiset {-4, -2} is right but place 0 truly has -2, not -4.
        let got = vec![
            TopKEntry {
                place: PlaceId(0),
                safety: -4,
            },
            TopKEntry {
                place: PlaceId(2),
                safety: -2,
            },
        ];
        oracle.assert_result_matches(&got, &units, 0.1, QueryMode::TopK(2));
    }
}
