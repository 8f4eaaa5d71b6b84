//! Model of the shard batch barrier (`core::parallel::ShardedCtup`).
//!
//! The real engine sends a batch to its worker shards, applies it to
//! shard 0 on the calling thread, then blocks on one reply per worker
//! before merging the per-shard top-k candidates — the barrier is what
//! makes the sharded result equal the sequential one. Here the `caller`
//! thread processes shard 0's items and `shard-1` is the one worker. The
//! `MergeEarly` mutant merges as soon as the caller's own shard is done,
//! which is only wrong in schedules where the worker is still mid-batch —
//! exactly the kind of bug one lucky real-thread run never sees.

use crate::{Model, Step};

/// A batch being processed by two shards plus the merge slot.
#[derive(Debug, Default)]
pub struct BarrierWorld {
    /// Per-shard accumulated result (sum stands in for the top-k fold).
    pub shard_sum: [u64; 2],
    pub shard_done: [bool; 2],
    /// The caller's merged result, once merged.
    pub merged: Option<u64>,
}

/// Seeded bugs in the barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierMutation {
    /// The shipped barrier: merge only after every shard replied.
    Correct,
    /// Merge as soon as the caller's own shard is done.
    MergeEarly,
}

/// The batch: items pre-partitioned to the two shards (index % 2, as in
/// the real cell partitioning).
const SHARD_ITEMS: [[u64; 2]; 2] = [[1, 3], [5, 7]];

/// Builds the barrier model under `m`.
pub fn model(m: BarrierMutation) -> Model<BarrierWorld> {
    let shard = |idx: usize| {
        let mut next = 0usize;
        move |w: &mut BarrierWorld| -> Step {
            if next < SHARD_ITEMS[idx].len() {
                w.shard_sum[idx] += SHARD_ITEMS[idx][next];
                next += 1;
                Step::Ran
            } else {
                w.shard_done[idx] = true;
                Step::Done
            }
        }
    };

    let caller = {
        let mut own = shard(0);
        move |w: &mut BarrierWorld| -> Step {
            // Shard 0's items first; each of those calls mutates the world.
            if !w.shard_done[0] {
                own(w);
                return Step::Ran;
            }
            if m == BarrierMutation::Correct && !w.shard_done[1] {
                return Step::Blocked;
            }
            w.merged = Some(w.shard_sum.iter().sum());
            Step::Done
        }
    };

    Model::new(BarrierWorld::default())
        .thread("caller", caller)
        .thread("shard-1", shard(1))
        .invariant("merge-only-after-barrier", |w: &BarrierWorld| {
            if w.merged.is_some() && !w.shard_done.iter().all(|&d| d) {
                Err("merged while a shard was still processing its batch".into())
            } else {
                Ok(())
            }
        })
        .final_check("merged-equals-sequential", |w: &BarrierWorld| {
            let expect: u64 = SHARD_ITEMS.iter().flatten().sum();
            match w.merged {
                Some(got) if got == expect => Ok(()),
                Some(got) => Err(format!("merged {got} != sequential {expect}")),
                None => Err("batch never merged".into()),
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore_exhaustive;

    #[test]
    fn barrier_survives_exhaustive_exploration() {
        let report = explore_exhaustive(|| model(BarrierMutation::Correct), 500_000)
            .expect("the barrier must be schedule-clean");
        assert!(report.complete, "schedule space not exhausted: {report:?}");
    }

    #[test]
    fn merging_early_diverges_from_sequential_in_some_schedule() {
        let cex = explore_exhaustive(|| model(BarrierMutation::MergeEarly), 500_000)
            .expect_err("early merge must be caught");
        assert!(
            cex.failure.contains("merge-only-after-barrier")
                || cex.failure.contains("merged-equals-sequential"),
            "{cex}"
        );
    }
}
