//! Model of the pump's park/kick protocol (`core::net::admission` `pop` /
//! `kick`, driven by the supervisor's durable hook).
//!
//! The real protocol: the supervisor bumps its durable mark once per
//! journaled commit group, and then *kicks* the admission queue — under the
//! queue mutex it sets a sticky `kicked` flag and, only if the pump is
//! parked, claims the wake-up and notifies. The pump, between passes of
//! `drain_acks` (which reads the mark), calls `pop`: under the same mutex
//! it re-checks "kicked?" and parks only if not, so a kick that lands
//! between its last look at the mark and the park is consumed instead of
//! lost. The model leaves the `io_tick` timeout out on purpose: with it a
//! lost wake-up is "only" a tick of latency — exactly the 25 ms per reply
//! this protocol exists to remove — so here it is a deadlock.

use crate::{Model, Step};

/// Shared state: the supervisor's mark and what the queue mutex guards.
#[derive(Debug, Default)]
pub struct ParkWorld {
    /// The supervisor's durable mark.
    pub mark: u64,
    /// How far the pump has acked.
    pub acked: u64,
    /// Sticky kick, consumed by the pump's next `pop`.
    pub kicked: bool,
    /// The pump is waiting on the condvar and nobody has woken it yet.
    pub parked: bool,
    /// A notification is on its way to the parked pump.
    pub notified: bool,
    /// Condvar notifications issued.
    pub notifies: u32,
    /// Notifications issued while nobody was parked.
    pub wasted_notifies: u32,
    /// The supervisor has nothing more to announce.
    pub supervisor_done: bool,
}

/// Seeded bugs. `Correct` is the shipped protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkMutation {
    /// The protocol as implemented.
    Correct,
    /// `pop` looks at `kicked` first and takes the lock to park
    /// afterwards, without looking again: check-then-act across two
    /// critical sections.
    CheckOutsideLock,
    /// `kick` notifies whether or not anyone is parked (a futex call per
    /// announcement on the busy path).
    AlwaysNotify,
}

const ANNOUNCEMENTS: u64 = 2;

/// Builds the park/kick model under `m`.
pub fn model(m: ParkMutation) -> Model<ParkWorld> {
    // Supervisor: bump the mark, then (group synced) kick — two atomic
    // sections: an atomic store, then the queue mutex.
    let mut announced = 0u64;
    let mut bumped = false;
    let supervisor = move |w: &mut ParkWorld| -> Step {
        if !bumped {
            w.mark += 1;
            bumped = true;
            return Step::Ran;
        }
        w.kicked = true;
        if w.parked {
            w.parked = false;
            w.notified = true;
            w.notifies += 1;
        } else if m == ParkMutation::AlwaysNotify {
            w.notifies += 1;
            w.wasted_notifies += 1;
        }
        bumped = false;
        announced += 1;
        if announced == ANNOUNCEMENTS {
            w.supervisor_done = true;
            return Step::Done;
        }
        Step::Ran
    };

    // Pump: drain (read the mark), pop (check under the lock, park),
    // wait. Under `CheckOutsideLock` the check is a step of its own and
    // the park does not repeat it.
    #[derive(Clone, Copy)]
    enum Pc {
        Drain,
        Peek,
        Pop { saw_kick: Option<bool> },
        Waiting,
    }
    let mut pc = Pc::Drain;
    let pump = move |w: &mut ParkWorld| -> Step {
        match pc {
            Pc::Drain => {
                w.acked = w.mark;
                pc = if m == ParkMutation::CheckOutsideLock {
                    Pc::Peek
                } else {
                    Pc::Pop { saw_kick: None }
                };
                Step::Ran
            }
            Pc::Peek => {
                pc = Pc::Pop {
                    saw_kick: Some(w.kicked),
                };
                Step::Ran
            }
            Pc::Pop { saw_kick } => {
                if saw_kick.unwrap_or(w.kicked) {
                    w.kicked = false;
                    pc = Pc::Drain;
                } else {
                    w.parked = true;
                    pc = Pc::Waiting;
                }
                Step::Ran
            }
            Pc::Waiting => {
                if w.notified {
                    w.notified = false;
                    w.kicked = false;
                    pc = Pc::Drain;
                    Step::Ran
                } else if w.supervisor_done && w.acked == w.mark {
                    // Parked with nothing owed: the quiescent end state.
                    Step::Done
                } else {
                    Step::Blocked
                }
            }
        }
    };

    Model::new(ParkWorld::default())
        .thread("supervisor", supervisor)
        .thread("pump", pump)
        .invariant("ack-never-passes-the-mark", |w: &ParkWorld| {
            if w.acked <= w.mark {
                Ok(())
            } else {
                Err(format!("acked {} > mark {}", w.acked, w.mark))
            }
        })
        .invariant("no-wake-for-nobody", |w: &ParkWorld| {
            if w.wasted_notifies == 0 {
                Ok(())
            } else {
                Err("a notification was issued while the pump was not parked".into())
            }
        })
        .final_check("every-covered-report-acked", |w: &ParkWorld| {
            if w.acked == w.mark {
                Ok(())
            } else {
                Err(format!("acked {} of mark {}", w.acked, w.mark))
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore_exhaustive;

    #[test]
    fn correct_protocol_survives_exhaustive_exploration() {
        let report = explore_exhaustive(|| model(ParkMutation::Correct), 200_000)
            .expect("park/kick must be schedule-clean");
        assert!(report.complete, "schedule space not exhausted: {report:?}");
        assert!(report.schedules > 10, "suspiciously few schedules explored");
    }

    #[test]
    fn check_outside_the_lock_loses_a_wake_up() {
        let cex = explore_exhaustive(|| model(ParkMutation::CheckOutsideLock), 200_000)
            .expect_err("check-then-park must lose a wake-up");
        assert!(cex.failure.contains("deadlock"), "{cex}");
        assert!(cex.failure.contains("pump"), "{cex}");
    }

    #[test]
    fn notifying_nobody_is_caught() {
        let cex = explore_exhaustive(|| model(ParkMutation::AlwaysNotify), 200_000)
            .expect_err("a wake-up for nobody must be caught");
        assert!(cex.failure.contains("no-wake-for-nobody"), "{cex}");
    }
}
