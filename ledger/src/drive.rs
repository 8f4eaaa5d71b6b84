//! The load generator: one thread, closed loop and open loop.
//!
//! A [`Target`] is whatever takes reports and says how many it has
//! finished — the socket path or an in-process engine. The closed loop
//! keeps a fixed number of reports outstanding (callers that each wait
//! for a reply); the open loop sends on a fixed schedule that never slows
//! down (independent units), and times every report from the instant it
//! was *due*, so a stall is charged to the reports queued behind it
//! rather than silently omitted.

use std::time::{Duration, Instant};

/// Something that accepts reports by index into the run's stream.
pub trait Target {
    /// Hands report `idx` to the system. Must not block.
    fn submit(&mut self, idx: usize) -> Result<(), String>;

    /// Does a bounded piece of work (one protocol round, one update, one
    /// batch) and returns how many submitted reports have completed so
    /// far, counted from this target's creation.
    fn poll(&mut self) -> Result<usize, String>;

    /// Reports to keep outstanding in the closed loop.
    fn closed_window(&self) -> usize;

    /// Whether the system runs on threads of its own. If so the generator
    /// sleeps when it has nothing to do, so that one generator thread does
    /// not take a core away from the system on a two-core box; the sleep
    /// (about 0.13 ms on the reference box) is the generator's pacing
    /// error, reported as `gen.late_p99_us`. An in-process engine has no
    /// one to yield to while the generator waits, so there it spins and
    /// paces to the microsecond.
    fn runs_on_own_threads(&self) -> bool;
}

const IDLE_SLEEP: Duration = Duration::from_micros(40);
/// Longest single sleep of the closed loop's backoff.
const IDLE_SLEEP_MAX: Duration = Duration::from_millis(1);

/// Waits a little: `idle_rounds` consecutive rounds brought nothing.
/// The open loop passes 0 (it has a schedule to keep); the closed loop
/// backs off up to a millisecond, so that a system that answers once per
/// 25 ms tick is not billed two hundred polls of generator CPU per answer.
fn idle(target: &dyn Target, idle_rounds: u32) {
    if target.runs_on_own_threads() {
        let sleep = IDLE_SLEEP.saturating_mul(1 << idle_rounds.min(5));
        std::thread::sleep(sleep.min(IDLE_SLEEP_MAX));
    } else {
        std::hint::spin_loop();
    }
}

/// What a closed-loop phase measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedOutcome {
    /// Reports submitted and completed.
    pub completed: usize,
    /// First submit to last completion.
    pub wall: Duration,
}

/// Runs the closed loop over stream indices `from..`, for about `budget`
/// and at most `cap` reports, then drains. Every submitted report is
/// waited for; `deadline` bounds the drain.
pub fn closed_loop(
    target: &mut dyn Target,
    from: usize,
    cap: usize,
    budget: Duration,
    deadline: Duration,
) -> Result<ClosedOutcome, String> {
    let window = target.closed_window().max(1);
    let base = target.poll()?;
    let start = Instant::now();
    let mut submitted = 0usize;
    let mut completed = 0usize;
    let mut last_completion = start;
    let mut idle_rounds = 0u32;
    loop {
        let submitting = submitted < cap && start.elapsed() < budget;
        let mut progressed = false;
        if submitting {
            while submitted - completed < window && submitted < cap {
                target.submit(from + submitted)?;
                submitted += 1;
                progressed = true;
            }
        }
        let now_done = target.poll()?.saturating_sub(base).min(submitted);
        if now_done > completed {
            completed = now_done;
            last_completion = Instant::now();
            progressed = true;
        }
        if !submitting && completed == submitted {
            break;
        }
        if start.elapsed() > budget + deadline {
            return Err(format!(
                "closed loop: {} of {submitted} reports still outstanding at the deadline",
                submitted - completed
            ));
        }
        if progressed {
            idle_rounds = 0;
        } else {
            idle(target, idle_rounds);
            idle_rounds += 1;
        }
    }
    Ok(ClosedOutcome {
        completed,
        wall: last_completion - start,
    })
}

/// What one open-loop step measured.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenOutcome {
    /// Reports the schedule called for.
    pub offered: usize,
    /// Due time -> completion, nanoseconds, in schedule order, for the
    /// reports that completed before the deadline.
    pub latencies: Vec<u64>,
    /// Due time -> actual submit, nanoseconds: how late the generator ran.
    pub lateness: Vec<u64>,
    /// Reports not complete when the step's schedule ended (the backlog).
    pub backlog_at_end: usize,
    /// From the end of the schedule to the last completion (or to giving
    /// up): how long the backlog took to drain.
    pub drain: Duration,
}

impl OpenOutcome {
    /// Reports that never completed.
    pub fn unfinished(&self) -> usize {
        self.offered - self.latencies.len()
    }
}

/// Sends `count` reports (stream indices `from..from + count`) at a fixed
/// `rate_hz`, report `i` due at `i / rate_hz` after the step starts. The
/// schedule never waits for the system. After the last due time the step
/// drains for at most `grace`.
pub fn open_loop(
    target: &mut dyn Target,
    from: usize,
    count: usize,
    rate_hz: u64,
    grace: Duration,
) -> Result<OpenOutcome, String> {
    let base = target.poll()?;
    let period_nanos = 1e9 / rate_hz.max(1) as f64;
    let due = |i: usize| Duration::from_nanos((i as f64 * period_nanos) as u64);
    let schedule_end = due(count);
    let mut latencies = Vec::with_capacity(count);
    let mut lateness = Vec::with_capacity(count);
    let mut backlog_at_end = None;
    let mut submitted = 0usize;
    let start = Instant::now();
    loop {
        let now = start.elapsed();
        let mut progressed = false;
        while submitted < count && due(submitted) <= now {
            target.submit(from + submitted)?;
            lateness.push(u64::try_from((now - due(submitted)).as_nanos()).unwrap_or(u64::MAX));
            submitted += 1;
            progressed = true;
        }
        let done = target.poll()?.saturating_sub(base).min(submitted);
        if done > latencies.len() {
            let seen = start.elapsed();
            for i in latencies.len()..done {
                let late = seen.saturating_sub(due(i));
                latencies.push(u64::try_from(late.as_nanos()).unwrap_or(u64::MAX));
            }
            progressed = true;
        }
        let now = start.elapsed();
        if backlog_at_end.is_none() && now >= schedule_end && submitted == count {
            backlog_at_end = Some(count - latencies.len());
        }
        if latencies.len() == count || now > schedule_end + grace {
            break;
        }
        if !progressed {
            idle(target, 0);
        }
    }
    Ok(OpenOutcome {
        offered: count,
        latencies,
        lateness,
        backlog_at_end: backlog_at_end.unwrap_or(0),
        drain: start.elapsed().saturating_sub(schedule_end),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;

    /// A single FIFO server with a fixed service time that stalls once,
    /// on report `stall.0`, for `stall.1`.
    struct Fake {
        service: Duration,
        stall: Option<(usize, Duration)>,
        finish_times: std::collections::VecDeque<Instant>,
        last_finish: Instant,
        done: usize,
    }

    impl Fake {
        fn new(service: Duration, stall: Option<(usize, Duration)>) -> Fake {
            Fake {
                service,
                stall,
                finish_times: Default::default(),
                last_finish: Instant::now(),
                done: 0,
            }
        }
    }

    impl Target for Fake {
        fn submit(&mut self, idx: usize) -> Result<(), String> {
            let mut cost = self.service;
            if self.stall.is_some_and(|(at, _)| at == idx) {
                cost += self.stall.take().map_or(Duration::ZERO, |(_, d)| d);
            }
            self.last_finish = self.last_finish.max(Instant::now()) + cost;
            self.finish_times.push_back(self.last_finish);
            Ok(())
        }

        fn poll(&mut self) -> Result<usize, String> {
            let now = Instant::now();
            while self.finish_times.front().is_some_and(|&f| f <= now) {
                self.finish_times.pop_front();
                self.done += 1;
            }
            Ok(self.done)
        }

        fn closed_window(&self) -> usize {
            4
        }

        fn runs_on_own_threads(&self) -> bool {
            true
        }
    }

    #[test]
    fn closed_loop_completes_everything_it_submits() {
        let mut fake = Fake::new(Duration::from_micros(50), None);
        let out = closed_loop(
            &mut fake,
            0,
            400,
            Duration::from_secs(5),
            Duration::from_secs(5),
        )
        .expect("closed loop");
        assert_eq!(out.completed, 400);
        assert!(out.wall >= Duration::from_micros(50 * 400 / 2), "{out:?}");
    }

    #[test]
    fn closed_loop_stops_submitting_at_the_budget() {
        let mut fake = Fake::new(Duration::from_micros(200), None);
        let out = closed_loop(
            &mut fake,
            0,
            1_000_000,
            Duration::from_millis(50),
            Duration::from_secs(5),
        )
        .expect("closed loop");
        assert!(out.completed > 10 && out.completed < 2_000, "{out:?}");
    }

    /// Coordinated omission: a 60 ms stall at a 1 kHz schedule must show
    /// up in ~60 reports' latencies (everything that was due during the
    /// stall), not in one. A generator that waited for the stalled reply
    /// before sending the next report would record a single slow sample.
    #[test]
    fn open_loop_charges_a_stall_to_the_reports_queued_behind_it() {
        let stall = Duration::from_millis(60);
        let mut fake = Fake::new(Duration::from_micros(20), Some((100, stall)));
        let out = open_loop(&mut fake, 0, 400, 1_000, Duration::from_secs(5)).expect("open loop");
        assert_eq!(out.unfinished(), 0);
        assert_eq!(out.lateness.len(), 400);
        let slow = out.latencies.iter().filter(|&&l| l > 5_000_000).count();
        assert!((40..=80).contains(&slow), "{slow} slow samples");
        // The schedule itself kept going through the stall.
        let mut late = out.lateness.clone();
        late.sort_unstable();
        assert!(percentile(&late, 0.99) < 5_000_000, "generator fell behind");
        // And the tail sees the stall at full size.
        let mut sorted = out.latencies.clone();
        sorted.sort_unstable();
        assert!(percentile(&sorted, 0.99) > 40_000_000);
    }
}
