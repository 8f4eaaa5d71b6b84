//! Mutation validation for the deterministic-schedule model checker.
//!
//! Every `ctup-sched` model ships with seeded mutants — variants that
//! re-introduce one specific concurrency bug. This suite is the proof the
//! checkers are not vacuous: for each model, the `Correct` variant must
//! survive a *complete* exhaustive exploration, and every mutant must be
//! caught with the failure the model's documentation promises. If someone
//! weakens an invariant (or a refactor accidentally shrinks a model's
//! schedule space below the interesting interleavings), this matrix goes
//! red before the real code regresses.
//!
//! The same matrix exists as unit tests inside `crates/sched`; this copy
//! runs against the published crate surface, so an API change that would
//! break downstream model authors is also caught here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup_sched::models::{admission, barrier, park, session};
use ctup_sched::{explore_exhaustive, explore_random, Counterexample, ExplorationReport};

const BUDGET: usize = 500_000;

/// Asserts a complete, non-trivial exhaustive pass.
fn assert_clean(report: ExplorationReport, label: &str) {
    assert!(
        report.complete,
        "{label}: schedule space not exhausted: {report:?}"
    );
    assert!(
        report.schedules > 1,
        "{label}: only {} schedule(s) — the model is not concurrent",
        report.schedules
    );
}

/// Asserts the mutant was caught and the failure names the promised check.
fn assert_caught(cex: Counterexample, expect_any: &[&str], label: &str) {
    assert!(
        expect_any.iter().any(|e| cex.failure.contains(e)),
        "{label}: caught, but with the wrong failure: {cex}"
    );
    assert!(
        !cex.schedule.is_empty(),
        "{label}: empty counterexample schedule"
    );
}

#[test]
fn session_correct_is_schedule_clean() {
    let report = explore_exhaustive(|| session::model(session::SessionMutation::Correct), BUDGET)
        .expect("correct session protocol");
    assert_clean(report, "session");
}

#[test]
fn session_mutants_are_caught() {
    use session::SessionMutation as M;
    let matrix: [(M, &[&str]); 3] = [
        (M::ForgetRetract, &["no-ghost-pending"]),
        (M::AckBeforeApply, &["ack-never-precedes-apply"]),
        (M::EnqueueBeforeRegister, &["no-ghost-pending", "monotone"]),
    ];
    for (mutation, expect) in matrix {
        let cex = explore_exhaustive(|| session::model(mutation), BUDGET)
            .expect_err("mutant must be caught");
        assert_caught(cex, expect, &format!("session {mutation:?}"));
    }
}

#[test]
fn session_writer_half_is_schedule_clean() {
    let report = explore_exhaustive(
        || session::writer_model(session::WriterMutation::Correct),
        BUDGET,
    )
    .expect("one-lock-hold shed");
    assert_clean(report, "session writer half");
}

#[test]
fn session_writer_half_mutant_is_caught() {
    let cex = explore_exhaustive(
        || session::writer_model(session::WriterMutation::ShedAfterAck),
        BUDGET,
    )
    .expect_err("an ack overtaking its shed must be caught");
    assert_caught(
        cex,
        &["shed-precedes-covering-ack"],
        "session writer half ShedAfterAck",
    );
}

#[test]
fn park_kick_correct_is_schedule_clean() {
    let report = explore_exhaustive(|| park::model(park::ParkMutation::Correct), BUDGET)
        .expect("correct park/kick");
    assert_clean(report, "park");
}

#[test]
fn park_kick_mutants_are_caught() {
    use park::ParkMutation as M;
    // A lost wake-up has no timeout to hide behind in the model: the pump
    // stays parked with acks owed, which the explorer reports as deadlock.
    let matrix: [(M, &[&str]); 2] = [
        (M::CheckOutsideLock, &["deadlock"]),
        (M::AlwaysNotify, &["no-wake-for-nobody"]),
    ];
    for (mutation, expect) in matrix {
        let cex = explore_exhaustive(|| park::model(mutation), BUDGET)
            .expect_err("mutant must be caught");
        assert_caught(cex, expect, &format!("park {mutation:?}"));
    }
}

#[test]
fn admission_correct_is_schedule_clean() {
    let report = explore_exhaustive(
        || admission::model(admission::AdmissionMutation::Correct),
        BUDGET,
    )
    .expect("correct hysteresis");
    assert_clean(report, "admission");
}

#[test]
fn admission_mutants_are_caught() {
    use admission::AdmissionMutation as M;
    let matrix: [(M, &[&str]); 2] = [
        (M::ClearBelowHigh, &["clears-only-at-low"]),
        (M::NeverClear, &["no-shed-latch-up"]),
    ];
    for (mutation, expect) in matrix {
        let cex = explore_exhaustive(|| admission::model(mutation), BUDGET)
            .expect_err("mutant must be caught");
        assert_caught(cex, expect, &format!("admission {mutation:?}"));
    }
}

#[test]
fn barrier_correct_is_schedule_clean() {
    let report = explore_exhaustive(|| barrier::model(barrier::BarrierMutation::Correct), BUDGET)
        .expect("shard barrier");
    assert_clean(report, "barrier");
}

#[test]
fn barrier_mutant_is_caught() {
    let cex = explore_exhaustive(
        || barrier::model(barrier::BarrierMutation::MergeEarly),
        BUDGET,
    )
    .expect_err("early merge must be caught");
    assert_caught(
        cex,
        &["merge-only-after-barrier", "merged-equals-sequential"],
        "barrier MergeEarly",
    );
}

/// Random exploration is a fallback for models whose schedule space
/// outgrows exhaustive search; it must find the same seeded bugs within a
/// modest iteration budget, and be reproducible from its seed.
#[test]
fn random_exploration_also_catches_the_ghost_pending_mutant() {
    let first = explore_random(
        || session::model(session::SessionMutation::ForgetRetract),
        0xD1CE,
        2_000,
    )
    .expect_err("random exploration must find the ghost within budget");
    let second = explore_random(
        || session::model(session::SessionMutation::ForgetRetract),
        0xD1CE,
        2_000,
    )
    .expect_err("same seed, same result");
    assert_eq!(
        first, second,
        "random exploration must be seed-deterministic"
    );
    assert!(first.failure.contains("no-ghost-pending"), "{first}");
}

/// A counterexample's schedule is a replayable artifact: driving a fresh
/// model with exactly that schedule must reproduce the failure. This is
/// what makes a CI counterexample debuggable rather than a flake report.
#[test]
fn counterexamples_replay_against_a_fresh_model() {
    let mutant = admission::AdmissionMutation::ClearBelowHigh;
    let cex = explore_exhaustive(|| admission::model(mutant), BUDGET)
        .expect_err("flapping must be caught");
    // Replay by always choosing the recorded thread: run a single-schedule
    // exploration whose chooser follows the counterexample's name sequence.
    let mut cursor = 0usize;
    let schedule = cex.schedule.clone();
    let names = ["producer", "consumer"];
    let replayed = admission::model(mutant).run(|n| {
        let want = schedule.get(cursor).map(String::as_str);
        cursor += 1;
        // Map the recorded thread name back to an index among the enabled
        // threads; the model has two threads so enabled indices are stable
        // only while both are runnable — fall back to 0 past the prefix.
        match want {
            Some(name) => names
                .iter()
                .position(|&k| k == name)
                .unwrap_or(0)
                .min(n - 1),
            None => 0,
        }
    });
    let replay_cex = replayed.expect_err("replaying the failing schedule must fail again");
    assert_eq!(replay_cex.failure, cex.failure);
}
