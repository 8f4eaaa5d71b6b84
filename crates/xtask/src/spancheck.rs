//! `cargo xtask spancheck` — CI validator for causal span dumps.
//!
//! A span dump is the JSONL file `ctup serve --span-dump` (or a test's
//! `SpanSink::dump_jsonl`) writes: one flat object per span with numeric
//! `trace`/`span`/`parent`/`start`/`end`/`aux` fields and a string
//! `stage` label. The checker enforces the structural invariants the
//! tracing layer promises:
//!
//! * every line parses and names a known stage;
//! * `trace` and `span` are non-zero and `end >= start`;
//! * **no orphans** — a span naming a parent id must find it in the
//!   dump whenever any *other* span of the same trace made it in (a
//!   lone half of a cross-process trace is legitimate; a hole in the
//!   middle of an otherwise-recorded trace is not);
//! * **parent before child** — a resolved parent must not start after
//!   its child, and must carry the stage the span model assigns as the
//!   child's causal predecessor;
//! * **stage coverage** — the dump as a whole exercises the full
//!   canonical chain (client-send through snapshot-publish), so a CI
//!   run that silently stopped recording halfway fails loudly.
//!
//! Hand-rolled like the other validators: the stage table below is a
//! deliberate *second copy* of the span model in `ctup-obs` — if the
//! producer drifts, this checker is what notices.

use crate::flatjson::{parse_flat_object, FlatValue};
use crate::obscheck::Problem;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The canonical report lifecycle, in causal order. A complete trace
/// covers every one of these stages.
pub const CANONICAL_CHAIN: [&str; 7] = [
    "client-send",
    "session-admit",
    "queue-wait",
    "engine-apply",
    "shard-phase",
    "merge",
    "snapshot-publish",
];

/// Every stage label the span layer can emit.
const ALL_STAGES: [&str; 10] = [
    "client-send",
    "session-admit",
    "queue-wait",
    "engine-apply",
    "shard-phase",
    "merge",
    "snapshot-publish",
    "wal-append",
    "checkpoint",
    "shed",
];

/// The stage a non-root span's parent must carry (the causal
/// predecessor in the span model). Roots (`parent == 0`) are exempt.
fn expected_parent_stage(stage: &str) -> Option<&'static str> {
    match stage {
        "session-admit" => Some("client-send"),
        "queue-wait" => Some("session-admit"),
        "engine-apply" => Some("queue-wait"),
        "shard-phase" | "merge" | "wal-append" | "checkpoint" => Some("engine-apply"),
        "snapshot-publish" => Some("merge"),
        "shed" => Some("session-admit"),
        _ => None, // client-send is the root; unknown stages are caught earlier
    }
}

/// One parsed span line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SpanLine {
    trace: u64,
    span: u64,
    parent: u64,
    stage: String,
    start: u64,
    end: u64,
}

/// Parses one span line: a flat object with a known `stage` label and
/// numeric `trace`, `span`, `parent`, `start` and `end` fields.
fn parse_span_line(line: &str) -> Result<SpanLine, String> {
    let pairs = parse_flat_object(line)?;
    let mut nums: HashMap<&str, u64> = HashMap::new();
    let mut stage: Option<String> = None;
    for (key, value) in &pairs {
        match (key.as_str(), value) {
            ("stage", FlatValue::Str(text)) => stage = Some(text.clone()),
            (k @ ("trace" | "span" | "parent" | "start" | "end"), FlatValue::Raw(raw)) => {
                let n = raw
                    .parse::<u64>()
                    .map_err(|_| format!("bad number for `{k}`: {raw:?}"))?;
                if let Some(slot) = ["trace", "span", "parent", "start", "end"]
                    .iter()
                    .find(|&&name| name == k)
                {
                    nums.insert(slot, n);
                }
            }
            _ => {}
        }
    }
    let stage = stage.ok_or("missing string `stage` field")?;
    if !ALL_STAGES.contains(&stage.as_str()) {
        return Err(format!("unknown stage {stage:?}"));
    }
    let get = |k: &str| nums.get(k).copied().ok_or(format!("missing `{k}` field"));
    Ok(SpanLine {
        trace: get("trace")?,
        span: get("span")?,
        parent: get("parent")?,
        stage,
        start: get("start")?,
        end: get("end")?,
    })
}

/// Result of a successful span-dump validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Span lines in the dump (after deduplicating retransmits).
    pub spans: usize,
    /// Distinct trace ids.
    pub traces: usize,
    /// Traces covering the full canonical chain.
    pub complete_chains: usize,
}

/// Validates a span JSONL dump. Returns every problem found.
pub fn check_spans(text: &str) -> Result<SpanSummary, Vec<Problem>> {
    let mut problems = Vec::new();
    // span id -> (line, span); a replayed report re-records the same
    // deterministic id, so exact duplicates fold to the last write.
    let mut by_id: BTreeMap<u64, (usize, SpanLine)> = BTreeMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        match parse_span_line(raw) {
            Ok(span) => {
                if span.trace == 0 {
                    problems.push(Problem {
                        line: lineno,
                        message: "`trace` must be non-zero".into(),
                    });
                    continue;
                }
                if span.span == 0 {
                    problems.push(Problem {
                        line: lineno,
                        message: "`span` must be non-zero".into(),
                    });
                    continue;
                }
                if span.end < span.start {
                    problems.push(Problem {
                        line: lineno,
                        message: format!(
                            "span of stage {:?} ends ({}) before it starts ({})",
                            span.stage, span.end, span.start
                        ),
                    });
                    continue;
                }
                by_id.insert(span.span, (lineno, span));
            }
            Err(message) => problems.push(Problem {
                line: lineno,
                message,
            }),
        }
    }

    let mut trace_spans: BTreeMap<u64, Vec<&(usize, SpanLine)>> = BTreeMap::new();
    for entry in by_id.values() {
        trace_spans.entry(entry.1.trace).or_default().push(entry);
    }

    for (lineno, span) in by_id.values() {
        if span.parent == 0 {
            continue;
        }
        match by_id.get(&span.parent) {
            Some((_, parent)) => {
                if parent.start > span.start {
                    problems.push(Problem {
                        line: *lineno,
                        message: format!(
                            "{} span starts ({}) before its {} parent ({}) — \
                             parent must come first",
                            span.stage, span.start, parent.stage, parent.start
                        ),
                    });
                }
                if let Some(want) = expected_parent_stage(&span.stage) {
                    if parent.stage != want {
                        problems.push(Problem {
                            line: *lineno,
                            message: format!(
                                "{} span parents onto a {} span, expected {}",
                                span.stage, parent.stage, want
                            ),
                        });
                    }
                }
            }
            None => {
                // A missing parent is only an orphan when the trace left
                // other evidence in this dump: a lone half of a
                // cross-process trace (the server's half of a trace whose
                // client-send lives in the feeder's dump) is fine.
                let siblings = trace_spans.get(&span.trace).map(|v| v.len()).unwrap_or(0);
                if siblings > 1 {
                    problems.push(Problem {
                        line: *lineno,
                        message: format!(
                            "{} span names parent {:#x} which is not in the dump \
                             (trace {:#x} has {} other span(s) — a hole, not a \
                             cross-process cut)",
                            span.stage,
                            span.parent,
                            span.trace,
                            siblings - 1
                        ),
                    });
                }
            }
        }
    }

    // Stage coverage: the dump as a whole must exercise the full chain.
    let seen: BTreeSet<&str> = by_id.values().map(|(_, s)| s.stage.as_str()).collect();
    for stage in CANONICAL_CHAIN {
        if !seen.contains(stage) {
            problems.push(Problem {
                line: 1,
                message: format!("no {stage:?} span anywhere in the dump — stage not covered"),
            });
        }
    }

    if by_id.is_empty() {
        problems.push(Problem {
            line: 1,
            message: "dump contains no spans".into(),
        });
    }
    if !problems.is_empty() {
        return Err(problems);
    }

    let complete_chains = trace_spans
        .values()
        .filter(|spans| {
            let stages: BTreeSet<&str> = spans.iter().map(|(_, s)| s.stage.as_str()).collect();
            CANONICAL_CHAIN.iter().all(|s| stages.contains(s))
        })
        .count();
    Ok(SpanSummary {
        spans: by_id.len(),
        traces: trace_spans.len(),
        complete_chains,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(trace: u64, span: u64, parent: u64, stage: &str, start: u64, end: u64) -> String {
        format!(
            "{{\"trace\":{trace},\"span\":{span},\"parent\":{parent},\"stage\":\"{stage}\",\
             \"start\":{start},\"end\":{end},\"aux\":0}}"
        )
    }

    /// One full canonical chain for trace 7, contiguous timestamps.
    /// Shard-phase and merge both fan out from engine-apply;
    /// snapshot-publish parents onto merge.
    fn full_chain() -> String {
        let steps: [(&str, u64, u64); 7] = [
            ("client-send", 100, 0),
            ("session-admit", 101, 100),
            ("queue-wait", 102, 101),
            ("engine-apply", 103, 102),
            ("shard-phase", 104, 103),
            ("merge", 105, 103),
            ("snapshot-publish", 106, 105),
        ];
        let mut out = String::new();
        for (i, (stage, id, parent)) in steps.iter().enumerate() {
            let t = u64::try_from(i).unwrap() * 10;
            out.push_str(&line(7, *id, *parent, stage, t, t + 10));
            out.push('\n');
        }
        out
    }

    #[test]
    fn full_chain_is_clean() {
        let summary = check_spans(&full_chain()).expect("clean dump");
        assert_eq!(summary.spans, 7);
        assert_eq!(summary.traces, 1);
        assert_eq!(summary.complete_chains, 1);
    }

    #[test]
    fn duplicate_span_ids_fold() {
        let mut text = full_chain();
        text.push_str(&line(7, 101, 100, "session-admit", 10, 20));
        text.push('\n');
        let summary = check_spans(&text).expect("replay re-record is legal");
        assert_eq!(summary.spans, 7);
    }

    #[test]
    fn hole_in_a_recorded_trace_is_an_orphan() {
        // Drop the queue-wait span (id 102): engine-apply's parent is
        // missing while the rest of the trace is present.
        let text: String = full_chain()
            .lines()
            .filter(|l| !l.contains("queue-wait"))
            .map(|l| format!("{l}\n"))
            .collect();
        let problems = check_spans(&text).expect_err("must fail");
        assert!(
            problems.iter().any(|p| p.message.contains("hole")),
            "no orphan problem: {problems:?}"
        );
    }

    #[test]
    fn lone_cross_process_half_is_not_an_orphan() {
        // A server dump: one session-admit span whose client-send parent
        // lives in the feeder's dump. Pad with a full chain from another
        // trace so coverage passes.
        let mut text = full_chain();
        text.push_str(&line(9, 900, 899, "session-admit", 5, 6));
        text.push('\n');
        let summary = check_spans(&text).expect("cross-process cut is legal");
        assert_eq!(summary.traces, 2);
        assert_eq!(summary.complete_chains, 1);
    }

    #[test]
    fn child_starting_before_parent_is_flagged() {
        let mut text = line(7, 100, 0, "client-send", 50, 60);
        text.push('\n');
        text.push_str(&line(7, 101, 100, "session-admit", 40, 45));
        let problems = check_spans(&text).expect_err("must fail");
        assert!(problems
            .iter()
            .any(|p| p.message.contains("parent must come first")));
    }

    #[test]
    fn wrong_parent_stage_is_flagged() {
        let mut text = line(7, 100, 0, "client-send", 0, 1);
        text.push('\n');
        // engine-apply must parent onto queue-wait, not client-send.
        text.push_str(&line(7, 103, 100, "engine-apply", 2, 3));
        let problems = check_spans(&text).expect_err("must fail");
        assert!(problems
            .iter()
            .any(|p| p.message.contains("expected queue-wait")));
    }

    #[test]
    fn inverted_interval_is_flagged() {
        let problems = check_spans(&line(7, 100, 0, "client-send", 60, 50)).expect_err("must fail");
        assert!(problems
            .iter()
            .any(|p| p.message.contains("before it starts")));
    }

    #[test]
    fn zero_trace_is_flagged() {
        let problems = check_spans(&line(0, 100, 0, "client-send", 0, 1)).expect_err("must fail");
        assert!(problems
            .iter()
            .any(|p| p.message.contains("`trace` must be non-zero")));
    }

    #[test]
    fn unknown_stage_is_flagged() {
        let problems =
            check_spans(&line(7, 100, 0, "client-send", 0, 1).replace("client-send", "warp"))
                .expect_err("must fail");
        assert!(problems.iter().any(|p| p.message.contains("unknown stage")));
    }

    #[test]
    fn missing_coverage_is_flagged() {
        let problems = check_spans(&line(7, 100, 0, "client-send", 0, 1)).expect_err("must fail");
        assert!(problems
            .iter()
            .any(|p| p.message.contains("\"merge\" span anywhere")));
    }

    #[test]
    fn empty_dump_is_flagged() {
        let problems = check_spans("\n").expect_err("must fail");
        assert!(problems.iter().any(|p| p.message.contains("no spans")));
    }
}
