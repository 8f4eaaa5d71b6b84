//! The overload sweep: offered load vs. accepted/shed throughput and
//! ingest wait latency, measured end to end through the real front door.
//!
//! The sweep runs the genuine server stack — wire codec, sessions,
//! admission queue, pump, watchdog — against a [`CalibratedSink`], an
//! engine stand-in whose per-report service time is fixed. That pins the
//! engine's capacity at `1 / service_delay`, so "2× overload" is a
//! property of the configuration, not of the host's scheduling luck. A
//! paced [`FeedClient`] then offers load at a chosen multiple of that
//! capacity and the report records what the door did about it.
//!
//! Used both by `ctup bench reproduce overload_sweep` and directly by the
//! overload experiment in EXPERIMENTS.md.

use super::client::{ClientConfig, FeedClient, TcpDialer};
use super::server::{EngineSink, IngestServer, NetServerConfig, SinkError};
use super::stats::NetStatsSnapshot;
use crate::ingest::{StampedUpdate, TracedReport};
use crate::types::{PlaceId, TopKEntry};
use ctup_obs::json::ObjectWriter;
use ctup_spatial::Point;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An engine stand-in that accepts everything and counts it.
#[derive(Debug, Default)]
pub struct CountingSink {
    accepted: AtomicU64,
}

impl CountingSink {
    /// Reports accepted so far.
    pub fn accepted(&self) -> u64 {
        // Relaxed: monotone test-support counter; readers only compare totals after joins
        self.accepted.load(Ordering::Relaxed)
    }
}

impl EngineSink for CountingSink {
    fn try_ingest(&self, _report: TracedReport) -> Result<(), SinkError> {
        // Relaxed: monotone test-support counter; no other state is published through it
        self.accepted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn topk(&self) -> Vec<TopKEntry> {
        vec![TopKEntry {
            place: PlaceId(0),
            safety: 0,
        }]
    }
}

/// Wraps a sink with a fixed per-report service delay, pinning the
/// downstream capacity at `1 / delay` for calibrated overload tests.
#[derive(Debug)]
pub struct CalibratedSink<S> {
    inner: S,
    delay: Duration,
}

impl<S> CalibratedSink<S> {
    /// A sink that spends `delay` of service time per accepted report.
    pub fn new(inner: S, delay: Duration) -> Self {
        CalibratedSink { inner, delay }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: EngineSink> EngineSink for CalibratedSink<S> {
    fn try_ingest(&self, report: TracedReport) -> Result<(), SinkError> {
        // The pump is the single caller, so sleeping here serializes
        // service time exactly like a busy engine would.
        std::thread::sleep(self.delay);
        self.inner.try_ingest(report)
    }

    fn topk(&self) -> Vec<TopKEntry> {
        self.inner.topk()
    }
}

/// Configuration of one sweep.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Fixed engine service time per report; capacity = 1/delay.
    pub service_delay: Duration,
    /// Offered load as multiples of engine capacity, one point each.
    pub load_multipliers: Vec<f64>,
    /// Reports offered per point.
    pub reports_per_point: u64,
    /// Server configuration template (admission queue is shrunk relative
    /// to the offered burst so shedding actually engages).
    pub server: NetServerConfig,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        let mut server = NetServerConfig::default();
        server.admission.queue_capacity = 64;
        server.admission.high_watermark = 48;
        server.admission.low_watermark = 16;
        server.admission.ingest_deadline = Duration::from_millis(250);
        server.snapshot_push_interval = Duration::ZERO;
        OverloadConfig {
            service_delay: Duration::from_micros(500),
            load_multipliers: vec![0.5, 1.0, 2.0, 4.0],
            reports_per_point: 2_000,
            server,
        }
    }
}

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Offered load as a multiple of engine capacity.
    pub multiplier: f64,
    /// Offered rate in reports per second.
    pub offered_hz: f64,
    /// Reports offered.
    pub offered: u64,
    /// Reports the engine accepted (exactly-once, engine-side truth).
    pub engine_accepted: u64,
    /// Accepted throughput in reports per second of wall time.
    pub accepted_hz: f64,
    /// Shed throughput in reports per second of wall time.
    pub shed_hz: f64,
    /// p50 of the admission-to-engine wait, nanoseconds.
    pub p50_wait_nanos: u64,
    /// p99 of the admission-to-engine wait, nanoseconds.
    pub p99_wait_nanos: u64,
    /// Wall time of the point, milliseconds.
    pub wall_ms: u64,
    /// Final server counters for the point.
    pub net: NetStatsSnapshot,
    /// Client-side terminal accounting: acked.
    pub client_acked: u64,
    /// Client-side terminal accounting: shed.
    pub client_shed: u64,
}

/// The whole sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Engine capacity implied by the service delay, reports per second.
    pub capacity_hz: f64,
    /// One entry per load multiplier.
    pub points: Vec<LoadPoint>,
}

fn fmt_f64(v: f64) -> String {
    format!("{v:.3}")
}

impl SweepReport {
    /// Renders the sweep as the JSON object `reproduce --overload-out` writes.
    pub fn render_json(&self) -> String {
        let mut points = String::from("[");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                points.push(',');
            }
            let mut obj = ObjectWriter::new();
            obj.field_raw("multiplier", &fmt_f64(p.multiplier));
            obj.field_raw("offered_hz", &fmt_f64(p.offered_hz));
            obj.field_u64("offered", p.offered);
            obj.field_u64("engine_accepted", p.engine_accepted);
            obj.field_raw("accepted_hz", &fmt_f64(p.accepted_hz));
            obj.field_raw("shed_hz", &fmt_f64(p.shed_hz));
            obj.field_u64("p50_wait_nanos", p.p50_wait_nanos);
            obj.field_u64("p99_wait_nanos", p.p99_wait_nanos);
            obj.field_u64("wall_ms", p.wall_ms);
            obj.field_u64("reports_accepted", p.net.reports_accepted);
            obj.field_u64("shed_queue_full", p.net.shed_queue_full);
            obj.field_u64("shed_deadline_exceeded", p.net.shed_deadline_exceeded);
            obj.field_u64("shed_session_quota", p.net.shed_session_quota);
            obj.field_u64("shed_engine_degraded", p.net.shed_engine_degraded);
            obj.field_u64("replays_suppressed", p.net.replays_suppressed);
            obj.field_u64("client_acked", p.client_acked);
            obj.field_u64("client_shed", p.client_shed);
            points.push_str(&obj.finish());
        }
        points.push(']');
        let mut root = ObjectWriter::new();
        root.field_str("experiment", "overload_sweep");
        root.field_raw("capacity_hz", &fmt_f64(self.capacity_hz));
        root.field_raw("points", &points);
        root.finish()
    }
}

/// Runs the sweep: one fresh server + calibrated engine per load point,
/// a paced client offering `multiplier × capacity`, exact accounting at
/// the end of each point.
pub fn run_sweep(config: &OverloadConfig) -> std::io::Result<SweepReport> {
    let delay_s = config.service_delay.as_secs_f64();
    let capacity_hz = if delay_s > 0.0 {
        1.0 / delay_s
    } else {
        f64::MAX
    };
    let mut points = Vec::new();
    for &multiplier in &config.load_multipliers {
        let sink = Arc::new(CalibratedSink::new(
            CountingSink::default(),
            config.service_delay,
        ));
        let dyn_sink: Arc<dyn EngineSink> = sink.clone();
        let server = IngestServer::spawn("127.0.0.1:0", config.server.clone(), dyn_sink)?;
        let offered_hz = (capacity_hz * multiplier).max(1.0);
        let gap = Duration::from_secs_f64(1.0 / offered_hz);
        let mut client = FeedClient::new(
            Box::new(TcpDialer::new(server.local_addr())),
            ClientConfig::default(),
        );
        let started = Instant::now();
        for i in 0..config.reports_per_point {
            let due = started + gap.mul_f64(i as f64);
            client.enqueue(StampedUpdate {
                seq: i + 1,
                ts: i + 1,
                update: crate::types::LocationUpdate {
                    unit: crate::types::UnitId(0),
                    new: Point::new(0.5, 0.5),
                },
            });
            while Instant::now() < due {
                let _ = client.step(Duration::from_millis(100));
            }
        }
        // Flush: let the remaining tail become terminal (acked or shed).
        let _ = client.drive(Duration::from_secs(20));
        let wall = started.elapsed();
        let stats = client.finish();
        let engine_accepted = sink.inner().accepted();
        let net = server.shutdown();
        let wall_s = wall.as_secs_f64().max(1e-9);
        points.push(LoadPoint {
            multiplier,
            offered_hz,
            offered: config.reports_per_point,
            engine_accepted,
            accepted_hz: (net.reports_accepted as f64) / wall_s,
            shed_hz: (net.shed_queue_full
                + net.shed_deadline_exceeded
                + net.shed_session_quota
                + net.shed_engine_degraded) as f64
                / wall_s,
            p50_wait_nanos: net.ingest_wait_nanos.quantile(0.50),
            p99_wait_nanos: net.ingest_wait_nanos.quantile(0.99),
            wall_ms: u64::try_from(wall.as_millis()).unwrap_or(u64::MAX),
            client_acked: stats.acked,
            client_shed: stats.shed_total(),
            net,
        });
    }
    Ok(SweepReport {
        capacity_hz,
        points,
    })
}
