//! `ctup trace`: offline analysis of a causal span dump (the
//! `--span-dump` JSONL of `serve` or `feed`).

use crate::args::{CliError, Flags};
use ctup_obs::{Span, Stage};
use std::collections::BTreeMap;
use std::io::Write;

/// One trace reconstructed from a span dump: its canonical-chain spans in
/// pipeline order (longest shard picked for the fan-out stage), the
/// measured end-to-end window, and the stages it never reached.
struct TraceSummary {
    trace: u64,
    /// End-to-end latency: first chain-span start to last chain-span end.
    e2e: u64,
    /// Canonical-chain spans present, in chain order.
    chain: Vec<Span>,
    /// Canonical-chain stages with no span in the dump.
    missing: Vec<Stage>,
    /// Off-chain spans of this trace (wal-append, checkpoint, shed, …).
    extra: Vec<Span>,
}

/// Reconstructs one trace from its spans. For the fan-out stage
/// (`shard-phase`) the *slowest* shard is put on the critical path —
/// the merge barrier waits for exactly that one.
fn summarize_trace(trace: u64, tspans: &[Span]) -> TraceSummary {
    let mut chain = Vec::new();
    let mut missing = Vec::new();
    for stage in Stage::CANONICAL_CHAIN {
        let pick = tspans
            .iter()
            .filter(|s| s.stage == stage)
            .max_by_key(|s| s.duration());
        match pick {
            Some(s) => chain.push(*s),
            None => missing.push(stage),
        }
    }
    let window: Vec<&Span> = if chain.is_empty() {
        tspans.iter().collect()
    } else {
        chain.iter().collect()
    };
    let start = window.iter().map(|s| s.start).min().unwrap_or(0);
    let end = window.iter().map(|s| s.end).max().unwrap_or(0);
    let extra = tspans
        .iter()
        .filter(|s| !Stage::CANONICAL_CHAIN.contains(&s.stage))
        .copied()
        .collect();
    TraceSummary {
        trace,
        e2e: end.saturating_sub(start),
        chain,
        missing,
        extra,
    }
}

/// `ctup trace` — offline analysis of a causal span dump (`--span-dump`
/// JSONL from `serve` or `feed`): per-stage latency breakdown across all
/// traces, the critical path of the slowest N traces (with the stage-sum
/// vs end-to-end accounting), and orphan/inversion diagnostics.
pub fn trace(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let input = flags
        .get_str("input")
        .ok_or_else(|| CliError("trace requires --input FILE (a --span-dump JSONL)".into()))?;
    let text =
        std::fs::read_to_string(input).map_err(|e| CliError(format!("reading {input}: {e}")))?;
    render_trace_report(&text, input, flags.get("slowest", 10)?, out)
}

/// The body of `ctup trace`, on an in-memory dump (testable without I/O).
fn render_trace_report(
    text: &str,
    input: &str,
    slowest: usize,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    // Deterministic span ids make replay idempotent: a retransmitted
    // report re-records the *same* span id, so folding by id (last line
    // wins) collapses replays instead of double-counting them.
    let mut by_id: BTreeMap<u64, Span> = BTreeMap::new();
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let s = Span::parse_jsonl(line).map_err(|e| CliError(format!("{input}:{}: {e}", i + 1)))?;
        lines += 1;
        by_id.insert(s.span, s);
    }
    if by_id.is_empty() {
        return Err(CliError(format!("{input}: no spans to analyze")));
    }
    let spans: Vec<Span> = by_id.values().copied().collect();
    let mut traces: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in &spans {
        traces.entry(s.trace).or_default().push(*s);
    }
    let (span_count, trace_count) = (spans.len(), traces.len());
    writeln!(
        out,
        "{span_count} span(s) ({lines} line(s)) across {trace_count} trace(s)"
    )?;

    writeln!(out, "stage latency breakdown:")?;
    for stage in Stage::ALL {
        let mut d: Vec<u64> = spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(Span::duration)
            .collect();
        if d.is_empty() {
            continue;
        }
        d.sort_unstable();
        let (label, n, p50, max) = (stage.label(), d.len(), d[d.len() / 2], d[d.len() - 1]);
        writeln!(
            out,
            "  {label:<16} count {n:>6}  p50 {p50:>12}ns  max {max:>12}ns"
        )?;
    }

    let mut summaries: Vec<TraceSummary> = traces
        .iter()
        .map(|(t, ts)| summarize_trace(*t, ts))
        .collect();
    summaries.sort_by(|a, b| b.e2e.cmp(&a.e2e).then(a.trace.cmp(&b.trace)));
    let shown = slowest.min(summaries.len());
    writeln!(out, "slowest {shown} trace(s) by end-to-end latency:")?;
    for t in summaries.iter().take(slowest) {
        let complete = t.missing.is_empty();
        let verdict = if complete {
            " — complete causal chain"
        } else {
            ""
        };
        writeln!(
            out,
            "trace {:#018x}: end-to-end {}ns{verdict}",
            t.trace, t.e2e
        )?;
        let mut prev_end: Option<u64> = None;
        let mut sum = 0u64;
        let mut gaps = 0u64;
        for s in &t.chain {
            sum = sum.saturating_add(s.duration());
            // The wait between one stage closing and the next opening:
            // scheduling/transit time the chain attributes to no stage,
            // printed inline so the chain still tiles the whole window.
            let gap = prev_end.map_or(0, |p| s.start.saturating_sub(p));
            gaps = gaps.saturating_add(gap);
            let label = if s.stage == Stage::ShardPhase && s.aux != 0 {
                format!("{}[{}]", s.stage.label(), s.aux)
            } else {
                s.stage.label().to_string()
            };
            if gap > 0 {
                writeln!(out, "  {label:<16} {:>12}ns  (+{gap}ns gap)", s.duration())?;
            } else {
                writeln!(out, "  {label:<16} {:>12}ns", s.duration())?;
            }
            prev_end = Some(prev_end.map_or(s.end, |p| p.max(s.end)));
        }
        for s in &t.extra {
            let (label, duration) = (s.stage.label(), s.duration());
            writeln!(out, "  {label:<16} {duration:>12}ns  (off critical path)")?;
        }
        if complete && t.e2e > 0 {
            // Integer per-mille keeps the arithmetic exact. Stages plus
            // the attributed gaps tile the window, so the total sits at
            // (or within rounding of) 100% — anything materially off
            // means overlapping or missing spans.
            let per_mille = sum.saturating_mul(1000) / t.e2e;
            let tiled = sum.saturating_add(gaps).saturating_mul(1000) / t.e2e;
            writeln!(
                out,
                "  stage sum {sum}ns = {}.{}% of end-to-end \
                 (+{gaps}ns attributed gaps = {}.{}%)",
                per_mille / 10,
                per_mille % 10,
                tiled / 10,
                tiled % 10
            )?;
        } else if !complete {
            let names: Vec<&str> = t.missing.iter().map(|s| s.label()).collect();
            writeln!(out, "  chain broken — missing: {}", names.join(", "))?;
        }
    }

    // Diagnostics: a parent id that never appears in the dump is a hole
    // in the causal tree (unless the trace is a lone cross-process half);
    // a parent starting after its child is a clock inversion.
    let mut orphans = 0usize;
    let mut inversions = 0usize;
    for s in spans.iter().filter(|s| s.parent != 0) {
        match by_id.get(&s.parent) {
            None if traces.get(&s.trace).is_some_and(|ts| ts.len() > 1) => {
                orphans += 1;
                let (label, span, trace, parent) = (s.stage.label(), s.span, s.trace, s.parent);
                let text = format!("{label} span {span:#x} of trace {trace:#018x}");
                writeln!(out, "orphan: {text} (parent {parent:#x} not in dump)")?;
            }
            Some(p) if p.start > s.start => {
                inversions += 1;
                let (label, early, parent) = (s.stage.label(), p.start - s.start, p.stage.label());
                let trace = s.trace;
                writeln!(out, "inversion: {label} starts {early}ns before its parent {parent} (trace {trace:#018x})")?;
            }
            _ => {}
        }
    }
    writeln!(
        out,
        "diagnostics: {orphans} orphan(s), {inversions} inversion(s)"
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctup_obs::SpanSink;

    #[test]
    fn trace_analyzes_a_synthetic_dump() {
        use ctup_obs::mint_trace;
        let sink = SpanSink::new(1024);
        // A fast trace and a slow one; the slow one must lead the report.
        for (seq, scale) in [(1u64, 1u64), (2, 100)] {
            let t = mint_trace(7, seq);
            for (i, stage) in (0u64..).zip(Stage::CANONICAL_CHAIN) {
                sink.record_stage(t, stage, 0, i * 10 * scale, (i * 10 + 10) * scale, true);
            }
        }
        let mut out = Vec::new();
        render_trace_report(&sink.dump_jsonl(), "synthetic", 1, &mut out).expect("analyze");
        let text = String::from_utf8(out).expect("utf8");
        // The slow trace: stages [0,1000),[1000,2000)..[6000,7000) tile
        // exactly, so the stage sum is 100.0% of the end-to-end window.
        for want in [
            "14 span(s) (14 line(s)) across 2 trace(s)",
            "complete causal chain",
            "100.0% of end-to-end",
            "diagnostics: 0 orphan(s), 0 inversion(s)",
        ] {
            assert!(text.contains(want), "{want:?} in\n{text}");
        }
    }

    #[test]
    fn trace_flags_broken_chains_and_orphans() {
        let t = ctup_obs::mint_trace(3, 3);
        // Session-admit and engine-apply without their intermediate
        // stages: engine-apply's parent (queue-wait) is a hole.
        let lines = [
            Span::stage_span(t, Stage::SessionAdmit, 0, 10, 20, true).to_jsonl(),
            Span::stage_span(t, Stage::EngineApply, 0, 30, 40, true).to_jsonl(),
        ]
        .join("\n");
        let mut out = Vec::new();
        render_trace_report(&lines, "synthetic", 5, &mut out).expect("analyze");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("chain broken — missing:"), "{text}");
        assert!(text.contains("queue-wait"), "{text}");
        assert!(text.contains("2 orphan(s)"), "{text}");
    }
}
