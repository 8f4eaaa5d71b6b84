//! Model of the session pending/ack protocol (`core::net::session`).
//!
//! The real protocol: a connection's reader half *registers* each
//! report's sequence number as pending, then *admits* it to the bounded
//! queue; if admission sheds, `SessionRegistry::shed` rolls the
//! registration back. The engine pump drains the queue, applies the
//! report to the engine, and only then marks it drained — which is what
//! advances the cumulative ack line (`min(pending) - 1`, or everything
//! issued when no report is pending). PR 6's fast-pump ghost-pending race
//! lived exactly in the register/admit/drain interleavings [`model`]
//! explores.
//!
//! [`writer_model`] adds the connection's writer half, which since the
//! reader/writer split runs *beside* the reader: each of its steps is one
//! `wait_outbound` cut — take the queued `Shed` notes and read the ack
//! line under one lock hold, put the sheds on the wire, then one
//! cumulative `Ack`. A shed that turned its seq terminal in one lock hold
//! and queued the note in another would let an `Ack` overtake its `Shed`
//! (the client would book the report as accepted); the `ShedAfterAck`
//! mutant is exactly that split. It is a model of its own, reduced to one
//! drained and one shed report, because a third thread polling beside the
//! full three-report protocol multiplies the schedule space past any
//! exhaustive budget without adding an interleaving the property cares
//! about.

use crate::{Model, Step};

/// Shared state: the session registry, the admission queue, and the
/// engine, reduced to the fields the safety properties speak about.
#[derive(Debug, Default)]
pub struct SessionWorld {
    /// Registered-but-unresolved sequence numbers.
    pub pending: Vec<u64>,
    /// The bounded admission queue.
    pub queue: Vec<u64>,
    /// Sequence numbers applied to the engine, in apply order.
    pub applied: Vec<u64>,
    /// Sequence numbers shed at the admission door.
    pub shed: Vec<u64>,
    /// Cumulative ack line: every seq `<= ack_line` is claimed resolved.
    pub ack_line: i64,
    /// Highest seq the handler has offered to admission.
    pub issued_max: i64,
    /// Set if the ack line ever moved backwards.
    pub ack_regressed: bool,
    /// Handler finished all reports.
    pub handler_done: bool,
}

impl SessionWorld {
    fn recompute_ack(&mut self) {
        let new = match self.pending.iter().min() {
            Some(&s) => s as i64 - 1,
            None => self.issued_max,
        };
        if new < self.ack_line {
            self.ack_regressed = true;
        }
        self.ack_line = new;
    }
}

/// Seeded bugs. `Correct` is the shipped protocol; each other variant is
/// one specific regression the invariants must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionMutation {
    /// The protocol as implemented.
    Correct,
    /// Shed path forgets to roll the registration back — the pre-PR-6
    /// ghost-pending bug.
    ForgetRetract,
    /// Pump advances the ack line before the engine apply.
    AckBeforeApply,
    /// Handler admits to the queue before registering pending.
    EnqueueBeforeRegister,
}

const REPORTS: u64 = 3;
const QUEUE_CAP: usize = 1;

fn register(w: &mut SessionWorld, seq: u64) {
    w.pending.push(seq);
    w.recompute_ack();
}

fn admit(w: &mut SessionWorld, seq: u64, m: SessionMutation) {
    w.issued_max = w.issued_max.max(seq as i64);
    if w.queue.len() < QUEUE_CAP {
        w.queue.push(seq);
    } else {
        w.shed.push(seq);
        if m != SessionMutation::ForgetRetract {
            w.pending.retain(|&p| p != seq);
        }
        w.recompute_ack();
    }
}

/// Builds the session model under `m`. Explore with
/// [`crate::explore_exhaustive`]; the schedule space is small (one
/// handler, one pump, three reports).
pub fn model(m: SessionMutation) -> Model<SessionWorld> {
    // Handler: for each report, one step to register, one to admit
    // (swapped under `EnqueueBeforeRegister`) — two atomic sections, as
    // in the real code where the session lock and the queue lock are
    // taken separately.
    let mut seq = 0u64;
    let mut second_half = false;
    let handler = move |w: &mut SessionWorld| -> Step {
        if seq >= REPORTS {
            return Step::Done;
        }
        let register_first = m != SessionMutation::EnqueueBeforeRegister;
        if !second_half {
            if register_first {
                register(w, seq);
            } else {
                admit(w, seq, m);
            }
            second_half = true;
        } else {
            if register_first {
                admit(w, seq, m);
            } else {
                register(w, seq);
            }
            second_half = false;
            seq += 1;
            if seq >= REPORTS {
                w.handler_done = true;
                return Step::Done;
            }
        }
        Step::Ran
    };

    // Pump: pop, apply, drained — three atomic sections. Under
    // `AckBeforeApply` the drained (ack-advancing) section runs first.
    let mut in_flight: Option<u64> = None;
    let mut phase = 0u8;
    let pump = move |w: &mut SessionWorld| -> Step {
        match (phase, in_flight) {
            (0, _) => {
                if w.queue.is_empty() {
                    if w.handler_done {
                        Step::Done
                    } else {
                        Step::Blocked
                    }
                } else {
                    in_flight = Some(w.queue.remove(0));
                    phase = 1;
                    Step::Ran
                }
            }
            (1, Some(s)) => {
                if m == SessionMutation::AckBeforeApply {
                    w.pending.retain(|&p| p != s);
                    w.recompute_ack();
                } else {
                    w.applied.push(s);
                }
                phase = 2;
                Step::Ran
            }
            (_, Some(s)) => {
                if m == SessionMutation::AckBeforeApply {
                    w.applied.push(s);
                } else {
                    w.pending.retain(|&p| p != s);
                    w.recompute_ack();
                }
                in_flight = None;
                phase = 0;
                Step::Ran
            }
            // Unreachable by construction (phase > 0 implies in-flight),
            // but the model must not panic: treat it as completion.
            (_, None) => Step::Done,
        }
    };

    Model::new(SessionWorld {
        ack_line: -1,
        issued_max: -1,
        ..SessionWorld::default()
    })
    .thread("handler", handler)
    .thread("pump", pump)
    .invariant("ack-never-precedes-apply", |w: &SessionWorld| {
        for s in 0..=w.ack_line.max(-1) {
            let s_u = s as u64;
            if s >= 0 && !w.applied.contains(&s_u) && !w.shed.contains(&s_u) {
                return Err(format!(
                    "ack line {} covers seq {s} which is neither applied nor shed",
                    w.ack_line
                ));
            }
        }
        Ok(())
    })
    .invariant("ack-line-monotone", |w: &SessionWorld| {
        if w.ack_regressed {
            Err("cumulative ack line moved backwards".into())
        } else {
            Ok(())
        }
    })
    .final_check("no-ghost-pending", |w: &SessionWorld| {
        if w.pending.is_empty() {
            Ok(())
        } else {
            Err(format!("pending entries left behind: {:?}", w.pending))
        }
    })
    .final_check("every-report-resolved-exactly-once", |w: &SessionWorld| {
        let mut resolved: Vec<u64> = w.applied.iter().chain(w.shed.iter()).copied().collect();
        resolved.sort_unstable();
        let expect: Vec<u64> = (0..REPORTS).collect();
        if resolved == expect {
            Ok(())
        } else {
            Err(format!(
                "applied {:?} + shed {:?} != 0..{REPORTS}",
                w.applied, w.shed
            ))
        }
    })
}

/// A server-to-client frame, as far as [`writer_model`] cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// `Shed` for one sequence number.
    Shed(u64),
    /// Cumulative `Ack` up to and including this sequence number.
    Ack(i64),
}

/// Shared state of [`writer_model`]: the session's pending run and
/// outbox, and what the writer half has put on the wire.
#[derive(Debug, Default)]
pub struct WriterWorld {
    /// Registered-but-unresolved sequence numbers.
    pub pending: Vec<u64>,
    /// Highest seq registered so far (the dedup line).
    pub issued_max: i64,
    /// Sequence numbers that turned terminal as shed.
    pub shed: Vec<u64>,
    /// `Shed` notes queued for the writer half.
    pub outbox: Vec<u64>,
    /// Frames on the wire, in order.
    pub wire: Vec<Frame>,
    /// The reader half and the pump are both finished.
    pub feeders_done: u8,
}

impl WriterWorld {
    fn ack_line(&self) -> i64 {
        match self.pending.iter().min() {
            Some(&s) => s as i64 - 1,
            None => self.issued_max,
        }
    }
}

/// Seeded bugs of [`writer_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriterMutation {
    /// `SessionRegistry::shed`: terminal and note queued in one lock hold.
    Correct,
    /// The pre-split door shed: the seq turns terminal in one lock hold
    /// and its note is queued in a later one (harmless while one thread
    /// did both and also wrote the frames; an overtaking `Ack` now).
    ShedAfterAck,
}

/// Builds the writer-half model under `m`: the reader half registers
/// seq 0 and 1 and sheds seq 1 at the door, the pump drains seq 0, the
/// writer half cuts whenever it is scheduled.
pub fn writer_model(m: WriterMutation) -> Model<WriterWorld> {
    // Reader half: register both, then shed seq 1 — one atomic section
    // when correct, two under the mutant.
    let mut pc = 0u8;
    let door = move |w: &mut WriterWorld| -> Step {
        match pc {
            0 | 1 => {
                w.pending.push(u64::from(pc));
                w.issued_max = i64::from(pc);
            }
            2 => {
                w.pending.retain(|&p| p != 1);
                w.shed.push(1);
                if m == WriterMutation::Correct {
                    w.outbox.push(1);
                    pc += 1;
                }
            }
            _ => w.outbox.push(1),
        }
        pc += 1;
        if pc >= 4 {
            w.feeders_done += 1;
            return Step::Done;
        }
        Step::Ran
    };

    // Pump: drains seq 0 once it is registered.
    let pump = move |w: &mut WriterWorld| -> Step {
        if !w.pending.contains(&0) {
            return Step::Blocked;
        }
        w.pending.retain(|&p| p != 0);
        w.feeders_done += 1;
        Step::Done
    };

    // Writer half: one step is one `wait_outbound` cut. Parked (blocked)
    // while there is nothing to say.
    let mut last_acked = -1i64;
    let writer = move |w: &mut WriterWorld| -> Step {
        let line = w.ack_line();
        if w.outbox.is_empty() && line <= last_acked {
            return if w.feeders_done == 2 {
                Step::Done
            } else {
                Step::Blocked
            };
        }
        let notes = std::mem::take(&mut w.outbox);
        w.wire.extend(notes.into_iter().map(Frame::Shed));
        if line > last_acked {
            last_acked = line;
            w.wire.push(Frame::Ack(line));
        }
        Step::Ran
    };

    Model::new(WriterWorld {
        issued_max: -1,
        ..WriterWorld::default()
    })
    .thread("door", door)
    .thread("pump", pump)
    .thread("writer", writer)
    .invariant("shed-precedes-covering-ack", |w: &WriterWorld| {
        let mut told: Vec<u64> = Vec::new();
        for frame in &w.wire {
            match *frame {
                Frame::Shed(seq) => told.push(seq),
                Frame::Ack(line) => {
                    let untold = w
                        .shed
                        .iter()
                        .find(|&&s| (s as i64) <= line && !told.contains(&s));
                    if let Some(seq) = untold {
                        return Err(format!(
                            "ack {line} is on the wire before the shed of seq {seq}"
                        ));
                    }
                }
            }
        }
        Ok(())
    })
    .final_check("client-told-everything", |w: &WriterWorld| {
        if w.wire.contains(&Frame::Shed(1)) && w.wire.last() == Some(&Frame::Ack(1)) {
            Ok(())
        } else {
            Err(format!("wire ends as {:?}", w.wire))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore_exhaustive;

    #[test]
    fn writer_half_survives_exhaustive_exploration() {
        let report = explore_exhaustive(|| writer_model(WriterMutation::Correct), 200_000)
            .expect("one-lock-hold shed must be schedule-clean");
        assert!(report.complete, "schedule space not exhausted: {report:?}");
        assert!(report.schedules > 10, "suspiciously few schedules explored");
    }

    #[test]
    fn shed_after_ack_is_caught() {
        let cex = explore_exhaustive(|| writer_model(WriterMutation::ShedAfterAck), 200_000)
            .expect_err("an ack overtaking its shed must be caught");
        assert!(cex.failure.contains("shed-precedes-covering-ack"), "{cex}");
        // It takes the writer cutting in between the two halves of the shed.
        assert!(cex.schedule.contains(&"writer".to_string()), "{cex}");
    }

    #[test]
    fn correct_protocol_survives_exhaustive_exploration() {
        let report = explore_exhaustive(|| model(SessionMutation::Correct), 200_000)
            .expect("correct session protocol must be schedule-clean");
        assert!(report.complete, "schedule space not exhausted: {report:?}");
        assert!(report.schedules > 10, "suspiciously few schedules explored");
    }

    #[test]
    fn forget_retract_leaves_a_ghost() {
        let cex = explore_exhaustive(|| model(SessionMutation::ForgetRetract), 200_000)
            .expect_err("ghost pending must be caught");
        assert!(cex.failure.contains("no-ghost-pending"), "{cex}");
    }

    #[test]
    fn ack_before_apply_is_caught() {
        let cex = explore_exhaustive(|| model(SessionMutation::AckBeforeApply), 200_000)
            .expect_err("premature ack must be caught");
        assert!(cex.failure.contains("ack-never-precedes-apply"), "{cex}");
    }

    #[test]
    fn enqueue_before_register_is_caught_by_interleaving() {
        let cex = explore_exhaustive(|| model(SessionMutation::EnqueueBeforeRegister), 200_000)
            .expect_err("admit-before-register race must be caught");
        // The failure needs the pump to sneak between the handler's two
        // steps, so the counterexample schedule must interleave them.
        assert!(
            cex.failure.contains("no-ghost-pending") || cex.failure.contains("monotone"),
            "{cex}"
        );
    }
}
