//! The unified observability snapshot and its exposition renderers.
//!
//! Everything the pipeline measures — the algorithmic [`Metrics`], the
//! lower-level [`StorageStatsSnapshot`], and the latency histograms of a
//! [`LatencySnapshot`] — is folded into one [`Snapshot`] and rendered in
//! three formats:
//!
//! * [`Snapshot::render_text`] — the human-readable report printed by the
//!   CLI after every `ctup run` and at `ctup serve` shutdown, the only
//!   way the CLI prints counters;
//! * [`Snapshot::render_json`] — a machine-readable document for bench
//!   artifacts and scripted comparisons (`ctup run --format json`);
//! * [`Snapshot::render_prom`] — Prometheus text exposition (format 0.0.4)
//!   from `ctup run --format prom` and scraped from `ctup serve`'s `/metrics`.
//!
//! Every counter and gauge is enumerated *explicitly* in
//! [`Snapshot::counters`] / [`Snapshot::gauges`]; the `cargo xtask lint`
//! metrics-coverage rule (L004) checks the field names of the source
//! structs against this file, so a counter added to [`Metrics`] or
//! [`StorageStatsSnapshot`] without a line here fails the lint instead of
//! silently vanishing from the exposition.

use crate::metrics::Metrics;
use crate::net::stats::NetStatsSnapshot;
use ctup_obs::json::ObjectWriter;
use ctup_obs::{summarize, LatencySnapshot, LogHistogram};
use ctup_storage::StorageStatsSnapshot;

/// Crate version baked into the binary at compile time.
pub const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Git commit the binary was built from. CI stamps it by exporting
/// `CTUP_GIT_SHA` at build time; local builds report `unknown`.
pub const BUILD_GIT_SHA: &str = match option_env!("CTUP_GIT_SHA") {
    Some(sha) => sha,
    None => "unknown",
};

/// `version+git_sha` build identifier, exposed as the `build` field of
/// `/healthz` and the `ctup_build_info` Prometheus gauge.
pub fn build_info() -> String {
    format!("{BUILD_VERSION}+{BUILD_GIT_SHA}")
}

/// One coherent view of everything measured during a run: identity,
/// counters, gauges and latency distributions.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Which algorithm produced the numbers (`naive`, `naive-inc`,
    /// `basic`, `opt`); becomes the `algorithm` label of every Prometheus
    /// series.
    pub algorithm: String,
    /// The algorithm's cumulative logical counters, including the
    /// resilience layer's.
    pub metrics: Metrics,
    /// Lower-level storage counters.
    pub storage: StorageStatsSnapshot,
    /// Latency histograms (update phases, checkpoint writes, disk reads).
    pub latency: LatencySnapshot,
    /// Networked-ingest front door counters (all zero for local runs that
    /// never opened the door).
    pub net: NetStatsSnapshot,
}

impl Snapshot {
    /// Assembles a snapshot from its parts.
    pub fn new(
        algorithm: impl Into<String>,
        metrics: Metrics,
        storage: StorageStatsSnapshot,
        latency: LatencySnapshot,
    ) -> Self {
        Snapshot {
            algorithm: algorithm.into(),
            metrics,
            storage,
            latency,
            net: NetStatsSnapshot::default(),
        }
    }

    /// Attaches the networked-ingest counters of a served run.
    #[must_use]
    pub fn with_net(mut self, net: NetStatsSnapshot) -> Self {
        self.net = net;
        self
    }

    /// Every monotonically increasing counter, as `(name, value)` pairs.
    /// Names are namespaced (`resilience_*`, `storage_*`) so the flat list
    /// is collision-free.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let m = &self.metrics;
        let r = &m.resilience;
        let s = &self.storage;
        let n = &self.net;
        vec![
            ("updates_processed", m.updates_processed),
            ("cells_accessed", m.cells_accessed),
            ("places_loaded", m.places_loaded),
            ("lb_increments", m.lb_increments),
            ("lb_decrements", m.lb_decrements),
            ("lb_decrements_suppressed", m.lb_decrements_suppressed),
            ("cells_darkened", m.cells_darkened),
            ("maintain_nanos", m.maintain_nanos),
            ("access_nanos", m.access_nanos),
            ("result_changes", m.result_changes),
            ("resilience_rejected_non_finite", r.rejected_non_finite),
            ("resilience_rejected_out_of_space", r.rejected_out_of_space),
            ("resilience_rejected_unknown_unit", r.rejected_unknown_unit),
            ("resilience_stale_dropped", r.stale_dropped),
            ("resilience_duplicates_dropped", r.duplicates_dropped),
            ("resilience_worker_panics", r.worker_panics),
            ("resilience_worker_restarts", r.worker_restarts),
            ("resilience_updates_replayed", r.updates_replayed),
            ("resilience_checkpoints_taken", r.checkpoints_taken),
            ("resilience_storage_errors", r.storage_errors),
            ("storage_cell_reads", s.cell_reads),
            ("storage_records_read", s.records_read),
            ("storage_pages_read", s.pages_read),
            ("storage_io_nanos", s.io_nanos),
            ("storage_read_retries", s.read_retries),
            ("storage_read_giveups", s.read_giveups),
            ("storage_corrupt_pages", s.corrupt_pages),
            ("storage_cache_hits", s.cache_hits),
            ("storage_cache_misses", s.cache_misses),
            ("storage_cache_evictions", s.cache_evictions),
            // Always 0 (the cache takes no hint). The field stays because
            // the benchmark's layer report reads it, and this line stays
            // because L004 wants every snapshot field reported.
            ("storage_cache_prefetch_hits", s.cache_prefetch_hits),
            ("net_connections_accepted", n.connections_accepted),
            ("net_connections_rejected", n.connections_rejected),
            ("net_sessions_opened", n.sessions_opened),
            ("net_sessions_resumed", n.sessions_resumed),
            ("net_sessions_evicted", n.sessions_evicted),
            ("net_frames_received", n.frames_received),
            ("net_frames_malformed", n.frames_malformed),
            ("net_partial_disconnects", n.partial_disconnects),
            ("net_reports_accepted", n.reports_accepted),
            ("net_replays_suppressed", n.replays_suppressed),
            ("net_shed_queue_full", n.shed_queue_full),
            ("net_shed_deadline_exceeded", n.shed_deadline_exceeded),
            ("net_shed_session_quota", n.shed_session_quota),
            ("net_shed_engine_degraded", n.shed_engine_degraded),
            ("net_shed_total", n.shed_total()),
            ("net_snapshots_pushed", n.snapshots_pushed),
            ("net_spans_dropped", n.spans_dropped),
            ("net_traces_sampled", n.traces_sampled),
        ]
    }

    /// Fraction of cell reads served by the cell-read cache, in `[0, 1]`
    /// (zero when no cache is configured). Derived from the cache counters,
    /// so it is exposed as a float alongside them in every format.
    pub fn cache_hit_ratio(&self) -> f64 {
        self.storage.cache_hit_ratio()
    }

    /// Every gauge (a value that can go down), as `(name, value)` pairs.
    pub fn gauges(&self) -> Vec<(&'static str, u64)> {
        let m = &self.metrics;
        let n = &self.net;
        vec![
            ("maintained_now", m.maintained_now),
            ("maintained_peak", m.maintained_peak),
            ("dechash_len", m.dechash_len),
            ("net_queue_depth", n.queue_depth),
            ("net_sessions_active", n.sessions_active),
            ("net_degraded", u64::from(n.degraded)),
            ("net_degraded_since_ms", n.degraded_since_ms),
            ("net_exemplars", n.exemplars),
        ]
    }

    /// The latency histograms plus the front door's ingest-wait
    /// distribution, as `(name, histogram)` pairs.
    pub fn histograms(&self) -> Vec<(&'static str, &LogHistogram)> {
        let mut named: Vec<(&'static str, &LogHistogram)> = self.latency.named().to_vec();
        named.push(("net_ingest_wait_nanos", &self.net.ingest_wait_nanos));
        named
    }

    /// Human-readable multi-line report: one `name: value` line per
    /// counter and gauge, then one quantile summary line per non-empty
    /// histogram.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("algorithm: ");
        out.push_str(&self.algorithm);
        out.push('\n');
        for (name, value) in self.counters() {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(&value.to_string());
            out.push('\n');
        }
        for (name, value) in self.gauges() {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out.push_str("cache_hit_ratio: ");
        out.push_str(&format_ratio(self.cache_hit_ratio()));
        out.push('\n');
        for (name, hist) in self.histograms() {
            if hist.is_empty() {
                continue;
            }
            out.push_str(name);
            out.push_str(": ");
            out.push_str(&summarize(hist));
            out.push('\n');
        }
        out
    }

    /// JSON document with `algorithm`, a `counters` object, a `gauges`
    /// object, and a `histograms` object carrying both the headline
    /// quantiles and the exact compact encoding of each histogram.
    pub fn render_json(&self) -> String {
        let mut root = ObjectWriter::new();
        root.field_str("algorithm", &self.algorithm);

        let mut counters = ObjectWriter::new();
        for (name, value) in self.counters() {
            counters.field_u64(name, value);
        }
        root.field_raw("counters", &counters.finish());

        let mut gauges = ObjectWriter::new();
        for (name, value) in self.gauges() {
            gauges.field_u64(name, value);
        }
        gauges.field_raw("cache_hit_ratio", &format_ratio(self.cache_hit_ratio()));
        root.field_raw("gauges", &gauges.finish());

        let mut hists = ObjectWriter::new();
        for (name, hist) in self.histograms() {
            let mut h = ObjectWriter::new();
            h.field_u64("count", hist.count());
            h.field_u64("sum", hist.sum());
            h.field_u64("min", hist.min());
            h.field_u64("max", hist.max());
            h.field_u64("mean", hist.mean());
            h.field_u64("p50", hist.quantile(0.50));
            h.field_u64("p90", hist.quantile(0.90));
            h.field_u64("p99", hist.quantile(0.99));
            h.field_u64("p999", hist.quantile(0.999));
            h.field_str("encoded", &hist.encode());
            // Exemplar trace ids for the front door's wait histogram:
            // jump from a slow bucket straight to `ctup trace <id>`.
            if name == "net_ingest_wait_nanos" && !self.net.ingest_wait_exemplars.is_empty() {
                let mut items = String::from("[");
                for (i, e) in self.net.ingest_wait_exemplars.iter().enumerate() {
                    if i > 0 {
                        items.push(',');
                    }
                    let mut ex = ObjectWriter::new();
                    ex.field_u64("bucket", u64::from(e.bucket))
                        .field_u64("wait_nanos", e.wait_nanos)
                        .field_u64("trace", e.trace);
                    items.push_str(&ex.finish());
                }
                items.push(']');
                h.field_raw("exemplars", &items);
            }
            hists.field_raw(name, &h.finish());
        }
        root.field_raw("histograms", &hists.finish());
        root.finish()
    }

    /// Prometheus text exposition (format 0.0.4): one `ctup_<name>` series
    /// per counter/gauge labelled with the algorithm, and one classic
    /// cumulative histogram (`_bucket{le=...}` / `_sum` / `_count`) per
    /// latency distribution.
    pub fn render_prom(&self) -> String {
        let label = format!("{{algorithm=\"{}\"}}", escape_label(&self.algorithm));
        let mut out = String::with_capacity(8192);
        for (name, value) in self.counters() {
            render_prom_scalar(&mut out, name, "counter", &label, value);
        }
        for (name, value) in self.gauges() {
            render_prom_scalar(&mut out, name, "gauge", &label, value);
        }
        out.push_str("# TYPE ctup_cache_hit_ratio gauge\n");
        out.push_str("ctup_cache_hit_ratio");
        out.push_str(&label);
        out.push(' ');
        out.push_str(&format_ratio(self.cache_hit_ratio()));
        out.push('\n');
        // Build identity: constant 1 with the version/sha as labels, the
        // conventional Prometheus shape for build metadata.
        out.push_str("# TYPE ctup_build_info gauge\n");
        out.push_str("ctup_build_info{version=\"");
        out.push_str(&escape_label(BUILD_VERSION));
        out.push_str("\",git_sha=\"");
        out.push_str(&escape_label(BUILD_GIT_SHA));
        out.push_str("\"} 1\n");
        for (name, hist) in self.histograms() {
            render_prom_histogram(&mut out, name, &escape_label(&self.algorithm), hist);
        }
        out
    }
}

/// Renders a `[0, 1]` ratio with fixed precision, so the derived
/// `cache_hit_ratio` line is stable across platforms and a valid JSON
/// number (never `NaN`/`inf` — the ratio is 0 when nothing was consulted).
fn format_ratio(ratio: f64) -> String {
    format!("{ratio:.6}")
}

/// Escapes a Prometheus label value (backslash, double quote, newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn render_prom_scalar(out: &mut String, name: &str, kind: &str, label: &str, value: u64) {
    out.push_str("# TYPE ctup_");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
    out.push_str("ctup_");
    out.push_str(name);
    out.push_str(label);
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Renders one histogram in the classic Prometheus shape: cumulative
/// `_bucket` series over the non-empty buckets (upper bounds in nanoseconds
/// from [`ctup_obs::hist::bucket_high`]), a `+Inf` bucket equal to the
/// count, and `_sum` / `_count` series.
fn render_prom_histogram(out: &mut String, name: &str, algorithm: &str, hist: &LogHistogram) {
    out.push_str("# TYPE ctup_");
    out.push_str(name);
    out.push_str(" histogram\n");
    let mut cumulative = 0u64;
    let mut emitted_inf = false;
    for (idx, count) in hist.nonzero_buckets() {
        cumulative += count;
        let high = ctup_obs::hist::bucket_high(idx);
        out.push_str("ctup_");
        out.push_str(name);
        out.push_str("_bucket{algorithm=\"");
        out.push_str(algorithm);
        out.push_str("\",le=\"");
        // The last bucket's upper bound is unbounded; expose it as the
        // +Inf bucket rather than printing u64::MAX as a finite bound.
        if high == u64::MAX {
            out.push_str("+Inf");
            emitted_inf = true;
        } else {
            out.push_str(&high.to_string());
        }
        out.push_str("\"} ");
        out.push_str(&cumulative.to_string());
        out.push('\n');
    }
    if !emitted_inf {
        // Always close with the mandatory +Inf bucket (== total count).
        out.push_str("ctup_");
        out.push_str(name);
        out.push_str("_bucket{algorithm=\"");
        out.push_str(algorithm);
        out.push_str("\",le=\"+Inf\"} ");
        out.push_str(&hist.count().to_string());
        out.push('\n');
    }
    out.push_str("ctup_");
    out.push_str(name);
    out.push_str("_sum{algorithm=\"");
    out.push_str(algorithm);
    out.push_str("\"} ");
    out.push_str(&hist.sum().to_string());
    out.push('\n');
    out.push_str("ctup_");
    out.push_str(name);
    out.push_str("_count{algorithm=\"");
    out.push_str(algorithm);
    out.push_str("\"} ");
    out.push_str(&hist.count().to_string());
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut latency = LatencySnapshot::default();
        for v in [100u64, 250, 900, 40_000] {
            latency.update_total_nanos.record(v);
        }
        latency.disk_read_nanos.record(5_000);
        Snapshot::new(
            "opt",
            Metrics {
                updates_processed: 42,
                maintained_now: 7,
                ..Metrics::default()
            },
            StorageStatsSnapshot {
                cell_reads: 9,
                cache_hits: 3,
                cache_misses: 9,
                ..StorageStatsSnapshot::default()
            },
            latency,
        )
    }

    #[test]
    fn counters_and_gauges_are_disjoint_and_complete() {
        let snap = sample();
        let mut names: Vec<&str> = snap
            .counters()
            .iter()
            .chain(snap.gauges().iter())
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate series name");
        // 10 Metrics counters + 12 resilience + 11 storage + 18 net
        // + 3 algorithm gauges + 5 net gauges.
        assert_eq!(total, 57);
    }

    #[test]
    fn net_counters_reach_every_format() {
        let mut snap = sample();
        snap.net.reports_accepted = 11;
        snap.net.shed_queue_full = 2;
        snap.net.shed_engine_degraded = 1;
        snap.net.degraded = true;
        snap.net.degraded_since_ms = 250;
        snap.net.ingest_wait_nanos.record(12_345);
        snap.net.spans_dropped = 5;
        snap.net.traces_sampled = 9;
        snap.net.exemplars = 1;
        snap.net.ingest_wait_exemplars = vec![crate::net::stats::WaitExemplar {
            bucket: 123,
            wait_nanos: 12_345,
            trace: 0xDEAD,
        }];
        let text = snap.render_text();
        assert!(text.contains("net_reports_accepted: 11\n"));
        assert!(text.contains("net_shed_queue_full: 2\n"));
        assert!(text.contains("net_shed_total: 3\n"));
        assert!(text.contains("net_degraded: 1\n"));
        assert!(text.contains("net_degraded_since_ms: 250\n"));
        assert!(text.contains("net_spans_dropped: 5\n"));
        assert!(text.contains("net_traces_sampled: 9\n"));
        assert!(text.contains("net_exemplars: 1\n"));
        assert!(text.contains("net_ingest_wait_nanos: n=1 "));
        // No failover counter and no fencing-epoch gauge: recovery is a restart.
        assert!(!text.contains("net_failovers") && !text.contains("net_epoch"));
        let json = snap.render_json();
        assert!(json.contains("\"net_reports_accepted\":11"));
        assert!(json.contains("\"net_shed_deadline_exceeded\":0"));
        assert!(json.contains("\"net_shed_session_quota\":0"));
        assert!(json.contains("\"net_degraded\":1"));
        assert!(json.contains("\"net_degraded_since_ms\":250"));
        assert!(json.contains("\"net_spans_dropped\":5"));
        assert!(json.contains("\"net_traces_sampled\":9"));
        assert!(json.contains("\"net_exemplars\":1"));
        assert!(json.contains("\"net_ingest_wait_nanos\":{"));
        assert!(!json.contains("net_failovers") && !json.contains("net_epoch"));
        // The wait histogram carries its exemplar trace ids in JSON.
        assert!(
            json.contains("\"exemplars\":[{\"bucket\":123,\"wait_nanos\":12345,\"trace\":57005}]")
        );
        let prom = snap.render_prom();
        assert!(prom.contains("# TYPE ctup_net_shed_queue_full counter\n"));
        assert!(prom.contains("ctup_net_shed_queue_full{algorithm=\"opt\"} 2\n"));
        assert!(prom.contains("# TYPE ctup_net_degraded gauge\n"));
        assert!(prom.contains("# TYPE ctup_net_spans_dropped counter\n"));
        assert!(prom.contains("ctup_net_traces_sampled{algorithm=\"opt\"} 9\n"));
        assert!(prom.contains("ctup_net_exemplars{algorithm=\"opt\"} 1\n"));
        assert!(prom.contains("ctup_net_ingest_wait_nanos_count{algorithm=\"opt\"} 1\n"));
        assert!(!prom.contains("ctup_net_failovers") && !prom.contains("ctup_net_epoch"));
    }

    #[test]
    fn text_report_carries_counters_and_quantiles() {
        let text = sample().render_text();
        assert!(text.contains("algorithm: opt\n"));
        assert!(text.contains("updates_processed: 42\n"));
        assert!(text.contains("storage_cell_reads: 9\n"));
        assert!(text.contains("storage_cache_hits: 3\n"));
        assert!(text.contains("storage_cache_misses: 9\n"));
        assert!(text.contains("storage_cache_evictions: 0\n"));
        assert!(text.contains("cache_hit_ratio: 0.250000\n"));
        assert!(text.contains("update_total_nanos: n=4 "));
        assert!(text.contains(" p50="));
        assert!(text.contains(" p99="));
        // Empty histograms are omitted rather than printed as all-zero.
        assert!(!text.contains("checkpoint_write_nanos:"));
    }

    #[test]
    fn json_report_is_structured() {
        let json = sample().render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"algorithm\":\"opt\""));
        assert!(json.contains("\"counters\":{"));
        assert!(json.contains("\"updates_processed\":42"));
        assert!(json.contains("\"gauges\":{"));
        assert!(json.contains("\"maintained_now\":7"));
        assert!(json.contains("\"storage_cache_hits\":3"));
        assert!(json.contains("\"cache_hit_ratio\":0.250000"));
        assert!(json.contains("\"histograms\":{"));
        assert!(json.contains("\"p99\":"));
        assert!(json.contains("\"encoded\":\"v1 "));
    }

    #[test]
    fn prom_report_is_well_formed() {
        let prom = sample().render_prom();
        assert!(prom.contains("# TYPE ctup_updates_processed counter\n"));
        assert!(prom.contains("ctup_updates_processed{algorithm=\"opt\"} 42\n"));
        assert!(prom.contains("# TYPE ctup_maintained_now gauge\n"));
        assert!(prom.contains("# TYPE ctup_update_total_nanos histogram\n"));
        assert!(prom.contains("ctup_update_total_nanos_count{algorithm=\"opt\"} 4\n"));
        assert!(prom.contains("le=\"+Inf\"} 4\n"));
        assert!(prom.contains("# TYPE ctup_cache_hit_ratio gauge\n"));
        assert!(prom.contains("ctup_cache_hit_ratio{algorithm=\"opt\"} 0.250000\n"));
        assert!(prom.contains("# TYPE ctup_build_info gauge\n"));
        assert!(prom.contains(&format!(
            "ctup_build_info{{version=\"{BUILD_VERSION}\",git_sha=\"{BUILD_GIT_SHA}\"}} 1\n"
        )));
        // Every sample line must end in a number; the derived hit ratio is
        // the one float series, so parse as f64 (integers parse too).
        for line in prom.lines() {
            assert!(!line.is_empty());
            if !line.starts_with('#') {
                let (_, value) = line.rsplit_once(' ').expect("sample line");
                let value: f64 = value.parse().expect("numeric sample");
                assert!(value.is_finite());
            }
        }
    }

    #[test]
    fn prom_histogram_buckets_are_cumulative() {
        let snap = sample();
        let prom = snap.render_prom();
        let mut last = 0u64;
        for line in prom
            .lines()
            .filter(|l| l.starts_with("ctup_update_total_nanos_bucket"))
        {
            let (_, value) = line.rsplit_once(' ').expect("sample line");
            let value: u64 = value.parse().expect("numeric");
            assert!(value >= last, "buckets must be cumulative");
            last = value;
        }
        assert_eq!(last, 4);
    }

    #[test]
    fn label_escaping_handles_quotes() {
        assert_eq!(escape_label("a\"b\\c"), "a\\\"b\\\\c");
    }
}
