//! Deterministic degraded-feed simulation.
//!
//! A [`FaultPlan`] perturbs a generated update stream the way a lossy
//! wireless link would: dropping, duplicating, reordering, delaying and
//! corrupting messages, all driven by one seed so every run is exactly
//! reproducible. The plan is generic over the item type — the consumer
//! supplies the corruption mutation — so it works on raw
//! [`PositionUpdate`](crate::objects::PositionUpdate)s as well as on the
//! core crate's stamped wire reports without this crate knowing their
//! layout.
//!
//! The model is emission-slot based: item `i` of the clean stream is
//! nominally emitted at slot `i`; reordering and delay push its slot
//! forward by a bounded amount, duplication emits a second copy at a later
//! slot, and a stable sort by slot produces the delivered order. Faults
//! therefore never move a message *earlier* than it was sent — exactly the
//! asymmetry of a store-and-forward radio link.

use crate::rng::SeededRng;

/// A seeded description of how a feed degrades. Probabilities are
/// per-message and independent; `0.0` disables the fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; two applications of the same plan to the same stream
    /// produce identical output.
    pub seed: u64,
    /// Probability a message is lost entirely.
    pub drop_prob: f64,
    /// Probability a message is delivered twice (the copy arrives within
    /// `reorder_window` slots after the original).
    pub dup_prob: f64,
    /// Probability a message is pushed up to `reorder_window` slots late,
    /// overtaken by its successors.
    pub reorder_prob: f64,
    /// Maximum forward displacement (in slots) of a reordered or
    /// duplicated message; `0` disables reordering and duplication.
    pub reorder_window: usize,
    /// Probability the consumer-supplied corruption is applied to a
    /// message's payload.
    pub corrupt_prob: f64,
    /// Probability a message is delayed up to `max_delay` slots (a longer
    /// stall than plain reordering).
    pub delay_prob: f64,
    /// Maximum delay (in slots); `0` disables delays.
    pub max_delay: usize,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_window: 4,
            corrupt_prob: 0.0,
            delay_prob: 0.0,
            max_delay: 16,
        }
    }
}

/// What [`FaultPlan::apply`] did, for assertions and reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Messages removed from the stream.
    pub dropped: u64,
    /// Extra copies emitted.
    pub duplicated: u64,
    /// Messages displaced by reordering.
    pub reordered: u64,
    /// Messages displaced by a long delay.
    pub delayed: u64,
    /// Messages whose payload was corrupted.
    pub corrupted: u64,
    /// Messages in the degraded stream (input − dropped + duplicated).
    pub emitted: u64,
}

impl FaultPlan {
    /// Degrades `input`, returning the delivered stream and a log of the
    /// injected faults. `corrupt` mutates a message payload in place (e.g.
    /// poisoning a coordinate or the unit id); it receives the plan's RNG
    /// so corruption is covered by the same seed.
    pub fn apply<T: Clone>(
        &self,
        input: Vec<T>,
        mut corrupt: impl FnMut(&mut T, &mut SeededRng),
    ) -> (Vec<T>, FaultLog) {
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let mut log = FaultLog::default();
        // (slot, tiebreak) keys keep the sort stable and deterministic:
        // originals order before duplicates landing on the same slot.
        let mut emissions: Vec<(usize, usize, u8, T)> = Vec::with_capacity(input.len());
        for (i, mut item) in input.into_iter().enumerate() {
            if self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob) {
                log.dropped += 1;
                continue;
            }
            if self.corrupt_prob > 0.0 && rng.gen_bool(self.corrupt_prob) {
                corrupt(&mut item, &mut rng);
                log.corrupted += 1;
            }
            let mut slot = i;
            if self.reorder_window > 0 && self.reorder_prob > 0.0 && rng.gen_bool(self.reorder_prob)
            {
                slot += rng.gen_range(1..self.reorder_window + 1);
                log.reordered += 1;
            }
            if self.max_delay > 0 && self.delay_prob > 0.0 && rng.gen_bool(self.delay_prob) {
                slot += rng.gen_range(1..self.max_delay + 1);
                log.delayed += 1;
            }
            if self.reorder_window > 0 && self.dup_prob > 0.0 && rng.gen_bool(self.dup_prob) {
                let dup_slot = slot + rng.gen_range(1..self.reorder_window + 1);
                emissions.push((dup_slot, i, 1, item.clone()));
                log.duplicated += 1;
            }
            emissions.push((slot, i, 0, item));
        }
        emissions.sort_by_key(|&(slot, i, copy, _)| (slot, i, copy));
        log.emitted = emissions.len() as u64;
        (
            emissions.into_iter().map(|(_, _, _, item)| item).collect(),
            log,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn no_faults_is_identity() {
        let plan = FaultPlan::default();
        let (out, log) = plan.apply(stream(50), |_, _| {});
        assert_eq!(out, stream(50));
        assert_eq!(
            log,
            FaultLog {
                emitted: 50,
                ..FaultLog::default()
            }
        );
    }

    #[test]
    fn same_seed_same_degradation() {
        let plan = FaultPlan {
            seed: 99,
            drop_prob: 0.1,
            dup_prob: 0.1,
            reorder_prob: 0.2,
            corrupt_prob: 0.05,
            delay_prob: 0.05,
            ..FaultPlan::default()
        };
        let corrupt = |item: &mut u32, _: &mut SeededRng| *item = u32::MAX;
        let (a, log_a) = plan.apply(stream(300), corrupt);
        let (b, log_b) = plan.apply(stream(300), corrupt);
        assert_eq!(a, b);
        assert_eq!(log_a, log_b);
        // A different seed degrades differently.
        let (c, _) = FaultPlan { seed: 100, ..plan }.apply(stream(300), corrupt);
        assert_ne!(a, c);
    }

    #[test]
    fn log_accounts_for_every_message() {
        let plan = FaultPlan {
            seed: 7,
            drop_prob: 0.2,
            dup_prob: 0.15,
            reorder_prob: 0.3,
            corrupt_prob: 0.1,
            ..FaultPlan::default()
        };
        let (out, log) = plan.apply(stream(1_000), |item, _| *item = u32::MAX);
        assert_eq!(out.len() as u64, log.emitted);
        assert_eq!(log.emitted, 1_000 - log.dropped + log.duplicated);
        assert!(log.dropped > 0 && log.duplicated > 0 && log.reordered > 0);
        assert!(out.iter().filter(|&&x| x == u32::MAX).count() as u64 >= log.corrupted);
    }

    #[test]
    fn reordering_is_bounded_by_the_window() {
        let plan = FaultPlan {
            seed: 3,
            reorder_prob: 1.0,
            reorder_window: 4,
            ..FaultPlan::default()
        };
        let (out, log) = plan.apply(stream(200), |_, _| {});
        assert_eq!(log.reordered, 200);
        for (pos, &item) in out.iter().enumerate() {
            // Slot = original index + displacement in 1..=4; after sorting,
            // no message strays more than the window from its origin.
            let origin = item as usize;
            assert!(pos.abs_diff(origin) <= 4, "item {item} at {pos}");
        }
    }

    #[test]
    fn duplicates_arrive_after_their_original() {
        let plan = FaultPlan {
            seed: 11,
            dup_prob: 1.0,
            ..FaultPlan::default()
        };
        let (out, log) = plan.apply(stream(100), |_, _| {});
        assert_eq!(log.duplicated, 100);
        assert_eq!(out.len(), 200);
        let mut first_seen = vec![usize::MAX; 100];
        for (pos, &item) in out.iter().enumerate() {
            let slot = &mut first_seen[item as usize];
            if *slot == usize::MAX {
                *slot = pos;
            } else {
                assert!(pos > *slot, "duplicate of {item} before its original");
            }
        }
    }
}
