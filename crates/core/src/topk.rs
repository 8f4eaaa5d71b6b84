//! An ordered multiset of `(safety, place)` pairs.
//!
//! All schemes need "the k smallest safeties among the places currently
//! held in memory" (`SK`) and the corresponding top-k result. A safety is a
//! small integer (`AP − RP`), so the order is kept as one bitset over place
//! ids per safety value, each with a count of its set bits. An insert,
//! remove or update flips one bit; `SK` walks the counts from the lowest
//! safety up; the result walks the set bits of the lowest levels, and bits
//! in id order within a level are exactly `(safety, id)` order.
//!
//! The set also keeps a low-water mark: the lowest safety any insert or
//! remove touched since the mark was last taken. A change strictly above
//! the k-th entry leaves the first k entries as they were, so a caller
//! holding the last result can skip comparing it when the mark is higher.
//!
//! The levels are dense from the lowest safety ever tracked to the highest,
//! so the structure holds `max − min + 1` levels of at most `|P| / 64`
//! words each. A safety lies in `−RP ..= |U|`, and every input path (store
//! builders, the snapshot reader, checkpoint validation) refuses an RP
//! above [`ctup_storage::MAX_RP`], so at most `|U| + MAX_RP + 1` levels
//! exist.

use crate::types::{PlaceId, Safety, TopKEntry};
use ctup_spatial::convert;
use std::ops::Range;

/// Places ordered by `(safety, id)`.
#[derive(Debug, Default, Clone)]
pub struct SafetyOrdered {
    /// The safety of `levels[0]`; level `i` holds safety `base + i`.
    base: Safety,
    levels: Vec<Level>,
    len: usize,
    /// The lowest safety an insert or remove touched since
    /// [`SafetyOrdered::take_low_water`] last ran; `None` when none did.
    low_water: Option<Safety>,
}

/// The places at one safety value.
#[derive(Debug, Default, Clone)]
struct Level {
    /// Number of set bits in `words`.
    count: usize,
    /// Bit `id % 64` of word `id / 64` is set for each place held here;
    /// grown on demand.
    words: Vec<u64>,
}

impl Level {
    /// The held places in id order.
    fn ids(&self) -> impl Iterator<Item = PlaceId> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|&(_, &bits)| bits != 0)
            .flat_map(|(word, &bits)| {
                let first = convert::id32(word * 64);
                let mut bits = bits;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let bit = bits.trailing_zeros();
                        bits &= bits - 1;
                        PlaceId(first + bit)
                    })
                })
            })
            .take(self.count)
    }
}

/// The word index and bit mask of `place`.
fn bit(place: PlaceId) -> (usize, u64) {
    (place.index() / 64, 1 << (place.0 % 64))
}

/// The number of levels from `low` up to `high`, exclusive.
pub(crate) fn span(low: Safety, high: Safety) -> usize {
    usize::try_from(high.saturating_sub(low)).unwrap_or(0)
}

impl SafetyOrdered {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked places.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no places are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The level of `safety`, adding it and every level between it and the
    /// current range when it lies outside that range.
    fn level_mut(&mut self, safety: Safety) -> &mut Level {
        if self.levels.is_empty() {
            self.base = safety;
        } else if safety < self.base {
            let grow = span(safety, self.base);
            self.levels
                .splice(0..0, std::iter::repeat_with(Level::default).take(grow));
            self.base = safety;
        }
        let at = span(self.base, safety);
        if at >= self.levels.len() {
            self.levels.resize_with(at + 1, Level::default);
        }
        &mut self.levels[at]
    }

    /// Lowers the low-water mark to `safety`.
    fn touch(&mut self, safety: Safety) {
        self.low_water = Some(self.low_water.map_or(safety, |low| low.min(safety)));
    }

    /// The lowest safety any insert or remove touched since the last call,
    /// or `None` when none did; resets the mark.
    pub fn take_low_water(&mut self) -> Option<Safety> {
        self.low_water.take()
    }

    /// Tracks `place` with `safety`.
    ///
    /// # Panics
    /// Panics in debug builds if the place is already tracked with this
    /// safety (every place must be tracked at most once).
    pub fn insert(&mut self, place: PlaceId, safety: Safety) {
        self.touch(safety);
        let (word, mask) = bit(place);
        let level = self.level_mut(safety);
        if level.words.len() <= word {
            level.words.resize(word + 1, 0);
        }
        let fresh = level.words[word] & mask == 0;
        debug_assert!(fresh, "{place:?} already tracked at safety {safety}");
        if fresh {
            level.words[word] |= mask;
            level.count += 1;
            self.len += 1;
        }
    }

    /// Stops tracking `place`, which must currently have `safety`.
    pub fn remove(&mut self, place: PlaceId, safety: Safety) {
        self.touch(safety);
        let (word, mask) = bit(place);
        let level = if safety < self.base {
            None
        } else {
            self.levels.get_mut(span(self.base, safety))
        };
        let found = match level {
            Some(level) => match level.words.get_mut(word) {
                Some(bits) if *bits & mask != 0 => {
                    *bits &= !mask;
                    level.count -= 1;
                    true
                }
                _ => false,
            },
            None => false,
        };
        debug_assert!(found, "{place:?} not tracked at safety {safety}");
        if found {
            self.len -= 1;
        }
    }

    /// Moves `place` from `old` to `new` safety.
    pub fn update(&mut self, place: PlaceId, old: Safety, new: Safety) {
        if old != new {
            self.remove(place, old);
            self.insert(place, new);
        }
    }

    /// Number of places tracked at `safety`.
    pub fn count_at(&self, safety: Safety) -> usize {
        if safety < self.base {
            return 0;
        }
        self.levels
            .get(span(self.base, safety))
            .map_or(0, |level| level.count)
    }

    /// The safeties the levels span; [`SafetyOrdered::count_at`] is zero
    /// outside it. Empty when nothing was ever tracked.
    pub fn level_range(&self) -> Range<Safety> {
        let levels = Safety::try_from(self.levels.len()).unwrap_or(Safety::MAX);
        self.base..self.base.saturating_add(levels)
    }

    /// Safety of the k-th smallest entry (1-based `k`), i.e. the paper's
    /// `SK`; `None` when fewer than `k` places are tracked.
    pub fn kth_safety(&self, k: usize) -> Option<Safety> {
        debug_assert!(k > 0);
        let mut seen = 0;
        for (level, safety) in self.levels.iter().zip(self.base..) {
            seen += level.count;
            if seen >= k {
                return Some(safety);
            }
        }
        None
    }

    /// The `k` smallest entries, in `(safety, id)` order.
    pub fn result(&self, k: usize) -> impl Iterator<Item = TopKEntry> + '_ {
        self.iter()
            .take(k)
            .map(|(safety, place)| TopKEntry { place, safety })
    }

    /// Iterates all `(safety, place)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (Safety, PlaceId)> + '_ {
        self.levels
            .iter()
            .zip(self.base..)
            .filter(|(level, _)| level.count > 0)
            .flat_map(|(level, safety)| level.ids().map(move |id| (safety, id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctup_mogen::rng::SeededRng;

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
        s.result(k).collect()
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
    fn remove_then_empty() {
        let mut s = filled();
        for (safety, place) in s.iter().collect::<Vec<_>>() {
            s.remove(place, safety);
        }
        assert!(s.is_empty());
        assert_eq!(s.kth_safety(1), None);
        assert_eq!(s.iter().count(), 0);
        // The emptied levels take places again, and the range still grows
        // downwards.
        s.insert(PlaceId(7), -30);
        assert_eq!(s.kth_safety(1), Some(-30));
        assert_eq!(s.iter().collect::<Vec<_>>(), [(-30, PlaceId(7))]);
    }

    /// The bitset order against a sorted `Vec` under interleaved inserts,
    /// removes and updates. Ids span several bitset words in the even
    /// seeds and crowd 30 ids in the odd ones, and safeties reach below the
    /// first one inserted, so the base grows downwards. After every step the
    /// level counts at the touched safeties match the model, and the
    /// low-water mark, taken at seeded intervals so that it spans several
    /// steps, is the lowest safety touched since it was last taken.
    #[test]
    fn matches_a_sorted_vec_model() {
        let steps = if cfg!(miri) { 300 } else { 2_000 };
        for seed in 1..=8 {
            let mut rng = SeededRng::seed_from_u64(seed);
            let ids = if seed % 2 == 0 { 300 } else { 30 };
            let mut sut = SafetyOrdered::new();
            let mut held: Vec<Option<Safety>> = vec![None; ids];
            let mut mark: Option<Safety> = None;
            let touch = |mark: &mut Option<Safety>, safety: Safety| {
                *mark = Some(mark.map_or(safety, |low: Safety| low.min(safety)));
            };
            for step in 0..steps {
                let id = rng.gen_range(0..ids);
                let place = PlaceId(id as u32);
                let safety = rng.gen_range(0..80) as Safety - 40;
                let old = held[id];
                match (old, rng.gen_range(0..3)) {
                    (None, _) => {
                        sut.insert(place, safety);
                        held[id] = Some(safety);
                        touch(&mut mark, safety);
                    }
                    (Some(old), 0) => {
                        sut.remove(place, old);
                        held[id] = None;
                        touch(&mut mark, old);
                    }
                    (Some(old), _) => {
                        sut.update(place, old, safety);
                        held[id] = Some(safety);
                        if old != safety {
                            touch(&mut mark, old);
                            touch(&mut mark, safety);
                        }
                    }
                }
                let count = |s: Safety| held.iter().filter(|&&h| h == Some(s)).count();
                for s in [Some(safety), old].into_iter().flatten() {
                    assert_eq!(sut.count_at(s), count(s), "seed {seed} step {step}");
                }
                if rng.gen_range(0..4) == 0 {
                    assert_eq!(sut.take_low_water(), mark.take(), "seed {seed} step {step}");
                    assert_eq!(sut.take_low_water(), None, "the mark resets");
                }
                if step % 97 != 0 {
                    continue;
                }
                let range = sut.level_range();
                for s in -45..45 {
                    assert_eq!(sut.count_at(s), count(s), "seed {seed} safety {s}");
                    if !range.contains(&s) {
                        assert_eq!(sut.count_at(s), 0, "seed {seed} safety {s}");
                    }
                }
                let mut model: Vec<(Safety, PlaceId)> = held
                    .iter()
                    .enumerate()
                    .filter_map(|(id, s)| s.map(|s| (s, PlaceId(id as u32))))
                    .collect();
                model.sort_unstable();
                assert_eq!(sut.len(), model.len(), "seed {seed} step {step}");
                assert_eq!(sut.iter().collect::<Vec<_>>(), model, "seed {seed}");
                for k in 1..=8 {
                    assert_eq!(sut.kth_safety(k), model.get(k - 1).map(|e| e.0));
                    let top: Vec<(Safety, PlaceId)> =
                        sut.result(k).map(|e| (e.safety, e.place)).collect();
                    assert_eq!(top, model[..k.min(model.len())], "seed {seed} k {k}");
                }
            }
        }
    }
}
