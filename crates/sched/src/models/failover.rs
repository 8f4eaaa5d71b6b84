//! Model of the primary → warm-standby promotion handoff.
//!
//! Mirrors `ctup-core`'s `net::standby` + `net::server` replication
//! protocol: the primary journals a report, ships it to the standby as a
//! `WalAppend` at its epoch once the journal covers it, and only then
//! acks the client (the pump ships in `drain_acks`, right before the
//! ack); the standby folds appends into its durable image in order,
//! probes the primary, and — after a run of dark probes — promotes
//! itself at `epoch + 1` behind one final fencing probe, draining the
//! established replication connection first. Frames stamped with an
//! epoch below the standby's own are rejected as stale.
//!
//! The model runs the protocol against two chaos scripts:
//!
//! * [`FailoverScenario::Kill`] — the primary is killed outright
//!   (`kill -9`); frames already shipped still arrive (the kernel owns
//!   the socket buffer), frames never shipped are gone.
//! * [`FailoverScenario::Partition`] — the primary stays alive but goes
//!   unreachable for a while, then heals. This is the split-brain
//!   aperture: the standby may legitimately promote during the outage,
//!   and the healed primary becomes a zombie whose old-epoch frames must
//!   bounce off the fence.
//!
//! Checked properties:
//!
//! * `no-dual-primary` — promotion never happens while the primary is
//!   answering the fencing probe.
//! * `stale-frames-fenced` — a promoted standby never applies a frame
//!   stamped with a pre-promotion epoch.
//! * `no-acked-report-loss` — if the primary died and the standby took
//!   over, every report the primary acked is in the promoted state.
//! * `applied-exactly-once` — replication never duplicates a report.
//!
//! Seeded mutants ([`FailoverMutation`]) re-introduce one handoff bug
//! each; the unit tests prove the exhaustive explorer catches every one.

use crate::{explore_exhaustive, Model, Step};

/// Reports the primary acks during the run. One report is enough: every
/// seeded bug needs only a single in-flight report, and the schedule
/// space of the four threads must stay exhaustible.
const REPORTS: u64 = 1;
/// Dark probes required before the standby attempts promotion. One is
/// enough to split suspicion (observing silence) from the promotion
/// commit into separate steps — the gap the fencing probe exists for —
/// while keeping the schedule space exhaustible.
const PROBE_LIMIT: u32 = 1;
/// Epoch the primary serves at; a promoted standby serves at `+ 1`.
const PRIMARY_EPOCH: u64 = 1;

/// Which chaos script the model runs against the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverScenario {
    /// The primary dies permanently at a nondeterministic point.
    Kill,
    /// The primary goes unreachable, then heals — the zombie case.
    Partition,
}

/// One seeded handoff bug per variant; `Correct` is the shipped protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverMutation {
    /// The protocol as implemented.
    Correct,
    /// Ack the client before shipping the append to the standby. A kill
    /// between the ack and the ship loses an acked report.
    AckBeforeShip,
    /// Promote without draining the established replication connection
    /// first. In-flight acked appends get stale-fenced by the very node
    /// that should have applied them.
    PromoteBeforeDrain,
    /// Skip the final fencing probe and promote on stale darkness. A
    /// primary that healed in the meantime makes it a dual primary.
    PromoteWithoutFence,
    /// Apply replication frames without comparing epochs. A healed
    /// zombie primary writes into the promoted standby's state.
    IgnoreEpochFencing,
}

/// Shared state: the primary's ledger, the wire, and the standby.
#[derive(Debug)]
pub struct FailoverWorld {
    /// Primary process is running (false once killed).
    pub primary_alive: bool,
    /// Primary is unreachable (probes and the wire read side go dark).
    pub partitioned: bool,
    /// Primary thread finished its script (or died).
    pub primary_done: bool,
    /// Chaos thread finished its script.
    pub chaos_done: bool,
    /// Report seqs the primary acked to its client.
    pub acked: Vec<u64>,
    /// Shipped-but-not-yet-applied `(epoch, seq)` frames, in order.
    pub wire: Vec<(u64, u64)>,
    /// Report seqs in the standby's applied state.
    pub standby_applied: Vec<u64>,
    /// Frames the standby bounced off the epoch fence.
    pub stale_rejected: u64,
    /// Consecutive dark probes observed by the standby.
    pub dark: u32,
    /// Standby has taken over as primary.
    pub promoted: bool,
    /// Epoch the standby serves/fences at.
    pub standby_epoch: u64,
    /// Set when promotion happened while the primary answered the probe.
    pub promoted_while_primary_answering: bool,
    /// Set when a pre-promotion-epoch frame was applied after promotion.
    pub stale_applied: bool,
}

impl FailoverWorld {
    fn new() -> Self {
        Self {
            primary_alive: true,
            partitioned: false,
            primary_done: false,
            chaos_done: false,
            acked: Vec::new(),
            wire: Vec::new(),
            standby_applied: Vec::new(),
            stale_rejected: 0,
            dark: 0,
            promoted: false,
            standby_epoch: PRIMARY_EPOCH,
            promoted_while_primary_answering: false,
            stale_applied: false,
        }
    }

    fn primary_answering(&self) -> bool {
        self.primary_alive && !self.partitioned
    }
}

/// Builds the handoff model for one mutation under one chaos script.
///
/// Thread layout is scenario-specific to keep the space exhaustible:
/// a kill is a separate chaos thread (it must be able to strike *between*
/// a ship and its ack), while the partition/heal script is folded into
/// the primary's own step sequence — a partition never interrupts the
/// primary process, it only parks the wire, so the interesting frame is
/// the one already in flight when the link drops (exactly the TCP
/// kernel-buffer case).
pub fn model(mutation: FailoverMutation, scenario: FailoverScenario) -> Model<FailoverWorld> {
    // Primary: per report, ship the append then ack the client (the
    // AckBeforeShip mutant swaps the two). Under `Partition`, it then
    // goes dark and heals as a zombie; under `Kill`, the chaos thread
    // ends it wherever the scheduler likes.
    let mut phase: u32 = 0;
    let primary = move |w: &mut FailoverWorld| -> Step {
        if !w.primary_alive {
            w.primary_done = true;
            return Step::Done;
        }
        let ship_first = mutation != FailoverMutation::AckBeforeShip;
        let report_steps = u32::try_from(REPORTS * 2).unwrap_or(u32::MAX);
        if phase < report_steps {
            let seq = u64::from(phase / 2);
            let first_half = phase.is_multiple_of(2);
            if first_half == ship_first {
                w.wire.push((PRIMARY_EPOCH, seq));
            } else {
                w.acked.push(seq);
            }
            phase += 1;
            return Step::Ran;
        }
        if scenario == FailoverScenario::Partition {
            if phase == report_steps {
                w.partitioned = true;
                phase += 1;
                return Step::Ran;
            }
            if phase == report_steps + 1 {
                w.partitioned = false;
                w.chaos_done = true;
                phase += 1;
                return Step::Ran;
            }
        }
        w.primary_done = true;
        Step::Done
    };

    // Follower half of the standby: applies replication frames in order.
    // A partition parks the connection; frames shipped before a kill
    // still arrive (the kernel owns the socket buffer).
    let follower = move |w: &mut FailoverWorld| -> Step {
        if !w.partitioned {
            if let Some(&(epoch, frame_seq)) = w.wire.first() {
                w.wire.remove(0);
                if epoch < w.standby_epoch {
                    if mutation == FailoverMutation::IgnoreEpochFencing {
                        w.standby_applied.push(frame_seq);
                        w.stale_applied = true;
                    } else {
                        w.stale_rejected += 1;
                    }
                } else {
                    w.standby_applied.push(frame_seq);
                }
                return Step::Ran;
            }
        }
        if w.primary_done && w.chaos_done && w.wire.is_empty() {
            Step::Done
        } else {
            Step::Blocked
        }
    };

    // Prober half of the standby: counts dark probes and runs the
    // promotion protocol once the limit is reached.
    let prober = move |w: &mut FailoverWorld| -> Step {
        if w.promoted {
            return Step::Done;
        }
        let answering = w.primary_answering();
        if w.dark >= PROBE_LIMIT {
            // Final fencing probe: any answer aborts the promotion.
            if mutation != FailoverMutation::PromoteWithoutFence && answering {
                w.dark = 0;
                return Step::Ran;
            }
            // Drain the established connection before serving: frames
            // already on the wire predate the epoch bump and must land.
            // (A partitioned wire can't be drained — that is the
            // unavoidable split-brain window, and the fence covers it.)
            if mutation != FailoverMutation::PromoteBeforeDrain
                && !w.partitioned
                && !w.wire.is_empty()
            {
                return Step::Blocked;
            }
            if answering {
                w.promoted_while_primary_answering = true;
            }
            w.promoted = true;
            w.standby_epoch = PRIMARY_EPOCH + 1;
            return Step::Ran;
        }
        if answering {
            if w.dark > 0 {
                w.dark = 0;
                return Step::Ran;
            }
            if w.primary_done && w.chaos_done {
                return Step::Done;
            }
            return Step::Blocked;
        }
        w.dark += 1;
        Step::Ran
    };

    // Chaos: only the kill needs its own thread, so it can land between
    // any two primary steps (notably between a ship and its ack).
    let mut killed = false;
    let chaos = move |w: &mut FailoverWorld| -> Step {
        if killed {
            return Step::Done;
        }
        killed = true;
        w.primary_alive = false;
        w.chaos_done = true;
        Step::Ran
    };

    let mut m = Model::new(FailoverWorld::new())
        .thread("primary", primary)
        .thread("follower", follower)
        .thread("prober", prober);
    if scenario == FailoverScenario::Kill {
        m = m.thread("chaos", chaos);
    } else {
        // The partition script lives inside the primary thread; nothing
        // kills the process, so the chaos flag is set by its heal step.
        let _ = chaos;
    }
    m.invariant("no-dual-primary", |w| {
        if w.promoted_while_primary_answering {
            return Err("standby promoted while the primary was answering probes".into());
        }
        Ok(())
    })
    .invariant("stale-frames-fenced", |w| {
        if w.stale_applied {
            return Err("promoted standby applied a pre-promotion-epoch frame".into());
        }
        Ok(())
    })
    .final_check("no-acked-report-loss", |w| {
        if w.promoted && !w.primary_alive {
            for &acked_seq in &w.acked {
                if !w.standby_applied.contains(&acked_seq) {
                    return Err(format!(
                        "acked report {acked_seq} missing from the promoted state \
                             (applied: {:?}, fenced: {})",
                        w.standby_applied, w.stale_rejected
                    ));
                }
            }
        }
        Ok(())
    })
    .final_check("applied-exactly-once", |w| {
        let mut seen = w.standby_applied.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != w.standby_applied.len() {
            return Err(format!("duplicate apply: {:?}", w.standby_applied));
        }
        Ok(())
    })
}

/// Convenience: the exhaustive budget every schedule space here fits in
/// (the kill matrix is the largest at ~260k complete schedules).
pub const EXPLORE_BUDGET: usize = 400_000;

/// Runs one `(mutation, scenario)` cell exhaustively.
pub fn explore(
    mutation: FailoverMutation,
    scenario: FailoverScenario,
) -> Result<crate::ExplorationReport, crate::Counterexample> {
    explore_exhaustive(|| model(mutation, scenario), EXPLORE_BUDGET)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_protocol_survives_kill_exhaustively() {
        let report = explore(FailoverMutation::Correct, FailoverScenario::Kill)
            .expect("correct handoff under kill");
        assert!(report.complete, "kill schedule space not exhausted");
        assert!(report.schedules > 1, "kill model is not concurrent");
    }

    #[test]
    fn correct_protocol_survives_partition_exhaustively() {
        let report = explore(FailoverMutation::Correct, FailoverScenario::Partition)
            .expect("correct handoff under partition");
        assert!(report.complete, "partition schedule space not exhausted");
        assert!(report.schedules > 1, "partition model is not concurrent");
    }

    #[test]
    fn ack_before_ship_loses_an_acked_report() {
        let cex = explore(FailoverMutation::AckBeforeShip, FailoverScenario::Kill)
            .expect_err("acking before shipping must lose a report to a kill");
        assert!(
            cex.failure.contains("no-acked-report-loss"),
            "wrong failure: {cex}"
        );
    }

    #[test]
    fn promote_before_drain_fences_out_acked_reports() {
        let cex = explore(FailoverMutation::PromoteBeforeDrain, FailoverScenario::Kill)
            .expect_err("promoting over an undrained wire must lose a report");
        assert!(
            cex.failure.contains("no-acked-report-loss"),
            "wrong failure: {cex}"
        );
    }

    #[test]
    fn promote_without_fence_creates_a_dual_primary() {
        let cex = explore(
            FailoverMutation::PromoteWithoutFence,
            FailoverScenario::Partition,
        )
        .expect_err("skipping the fencing probe must create a dual primary");
        assert!(
            cex.failure.contains("no-dual-primary"),
            "wrong failure: {cex}"
        );
    }

    #[test]
    fn ignoring_the_epoch_fence_applies_zombie_frames() {
        let cex = explore(
            FailoverMutation::IgnoreEpochFencing,
            FailoverScenario::Partition,
        )
        .expect_err("a zombie primary's old-epoch frames must be rejected");
        assert!(
            cex.failure.contains("stale-frames-fenced"),
            "wrong failure: {cex}"
        );
    }
}
