//! An ordered multiset of `(safety, place)` pairs.
//!
//! All schemes need "the k smallest safeties among the places currently
//! held in memory" (`SK`) and the corresponding top-k result. A `BTreeSet`
//! keyed by `(safety, place)` gives O(log n) updates and O(k) result
//! extraction; `k` is small (15 by default) so walking the prefix is cheap.

use crate::config::QueryMode;
use crate::types::{PlaceId, Safety, TopKEntry};
use std::collections::BTreeSet;

/// Places ordered by `(safety, id)`.
#[derive(Debug, Default, Clone)]
pub struct SafetyOrdered {
    set: BTreeSet<(Safety, PlaceId)>,
}

impl SafetyOrdered {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked places.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether no places are tracked.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Tracks `place` with `safety`.
    ///
    /// # Panics
    /// Panics in debug builds if the place is already tracked with this
    /// safety (every place must be tracked at most once).
    pub fn insert(&mut self, place: PlaceId, safety: Safety) {
        let fresh = self.set.insert((safety, place));
        debug_assert!(fresh, "{place:?} already tracked at safety {safety}");
    }

    /// Stops tracking `place`, which must currently have `safety`.
    pub fn remove(&mut self, place: PlaceId, safety: Safety) {
        let found = self.set.remove(&(safety, place));
        debug_assert!(found, "{place:?} not tracked at safety {safety}");
    }

    /// Moves `place` from `old` to `new` safety.
    pub fn update(&mut self, place: PlaceId, old: Safety, new: Safety) {
        if old != new {
            self.remove(place, old);
            self.insert(place, new);
        }
    }

    /// Safety of the k-th smallest entry (1-based `k`), i.e. the paper's
    /// `SK`; `None` when fewer than `k` places are tracked.
    pub fn kth_safety(&self, k: usize) -> Option<Safety> {
        debug_assert!(k > 0);
        self.set.iter().nth(k - 1).map(|&(s, _)| s)
    }

    /// The result under `mode`, in `(safety, id)` order: the `k` smallest
    /// entries in top-k mode, every entry with `safety < tau` in threshold
    /// mode.
    pub fn result(&self, mode: QueryMode) -> impl Iterator<Item = TopKEntry> + '_ {
        let (limit, bound) = match mode {
            QueryMode::TopK(k) => (k, None),
            QueryMode::Threshold(tau) => (usize::MAX, Some(tau)),
        };
        self.set
            .iter()
            .take(limit)
            .take_while(move |&&(safety, _)| bound.is_none_or(|tau| safety < tau))
            .map(|&(safety, place)| TopKEntry { place, safety })
    }

    /// Iterates all `(safety, place)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (Safety, PlaceId)> + '_ {
        self.set.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> SafetyOrdered {
        let mut s = SafetyOrdered::new();
        for (id, safety) in [(0, -3), (1, 5), (2, -3), (3, 0), (4, -8)] {
            s.insert(PlaceId(id), safety);
        }
        s
    }

    #[test]
    fn kth_safety_is_sk() {
        let s = filled();
        assert_eq!(s.kth_safety(1), Some(-8));
        assert_eq!(s.kth_safety(3), Some(-3));
        assert_eq!(s.kth_safety(5), Some(5));
        assert_eq!(s.kth_safety(6), None);
    }

    fn top_k(s: &SafetyOrdered, k: usize) -> Vec<TopKEntry> {
        s.result(QueryMode::TopK(k)).collect()
    }

    fn below(s: &SafetyOrdered, tau: Safety) -> Vec<TopKEntry> {
        s.result(QueryMode::Threshold(tau)).collect()
    }

    #[test]
    fn top_k_orders_ties_by_id() {
        let s = filled();
        let top = top_k(&s, 3);
        assert_eq!(
            top,
            vec![
                TopKEntry {
                    place: PlaceId(4),
                    safety: -8
                },
                TopKEntry {
                    place: PlaceId(0),
                    safety: -3
                },
                TopKEntry {
                    place: PlaceId(2),
                    safety: -3
                },
            ]
        );
        // Asking for more than tracked returns everything.
        assert_eq!(top_k(&s, 100).len(), 5);
    }

    #[test]
    fn update_moves_entries() {
        let mut s = filled();
        s.update(PlaceId(1), 5, -10);
        assert_eq!(s.kth_safety(1), Some(-10));
        assert_eq!(top_k(&s, 1)[0].place, PlaceId(1));
        // No-op update.
        s.update(PlaceId(1), -10, -10);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn below_respects_strict_bound() {
        let s = filled();
        let entries = below(&s, -3);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].place, PlaceId(4));
        assert_eq!(below(&s, 1).len(), 4);
        assert_eq!(below(&s, Safety::MIN).len(), 0);
        // A threshold above every safety keeps every entry.
        assert_eq!(below(&s, Safety::MAX).len(), 5);
    }

    #[test]
    fn remove_then_empty() {
        let mut s = filled();
        for (safety, place) in s.iter().collect::<Vec<_>>() {
            s.remove(place, safety);
        }
        assert!(s.is_empty());
        assert_eq!(s.kth_safety(1), None);
    }
}
