//! The failover MTTR bench: how long the monitor is dark after an engine
//! kill, measured end to end through the real front door.
//!
//! Recovery is crash-only restart: the supervised engine is killed
//! mid-feed, the door goes degraded, and the newest slot is torn (a death
//! mid-checkpoint-write), outside the timed window. A new engine is then
//! recovered from the durable slot + WAL tail and put behind a fresh door,
//! and the whole stream is re-delivered to it; every report must be acked.
//! The recovery time is the wall time of that restart
//! ([`SupervisedPipeline::recover_from_dir`] plus the door's spawn) — what
//! a supervising process manager adds on top (noticing the death, exec)
//! is outside the bench.
//!
//! Run by `reproduce --failover-out FILE`.

use super::client::{ClientConfig, FeedClient, TcpDialer};
use super::server::{EngineSink, IngestServer, NetServerConfig, PipelineSink, PIPELINE_CAPACITY};
use crate::algorithm::CtupAlgorithm;
use crate::config::CtupConfig;
use crate::durable::DurableState;
use crate::ingest::stamp_stream;
use crate::supervisor::{ResilienceConfig, SupervisedPipeline};
use crate::types::{LocationUpdate, UnitId};
use crate::OptCtup;
use ctup_obs::json::ObjectWriter;
use ctup_spatial::{convert, Grid, Point};
use ctup_storage::{CellLocalStore, PlaceId, PlaceRecord, PlaceStore};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic generator for the synthetic bench workload; the bench
/// must not depend on `ctup-mogen` (a dev-dependency), and determinism
/// keeps trials comparable.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// A coordinate in [0, 1).
    fn coord(&mut self) -> f64 {
        let hi = u32::try_from(self.next() >> 32).unwrap_or(u32::MAX);
        f64::from(hi) / (f64::from(u32::MAX) + 1.0)
    }

    /// An index in `0..n`.
    fn index(&mut self, n: usize) -> usize {
        let n64 = convert::count64(n.max(1));
        usize::try_from(self.next() % n64).unwrap_or(0)
    }
}

/// Builds the synthetic place set, unit positions, and store.
fn synth_world(seed: u64, places: usize, units: usize) -> (Vec<Point>, Arc<dyn PlaceStore>) {
    let mut lcg = Lcg(seed | 1);
    let records: Vec<PlaceRecord> = (0..places)
        .map(|i| {
            let pos = Point::new(lcg.coord(), lcg.coord());
            PlaceRecord::point(PlaceId(convert::id32(i)), pos, 1 + convert::id32(i % 3))
        })
        .collect();
    let positions: Vec<Point> = (0..units)
        .map(|_| Point::new(lcg.coord(), lcg.coord()))
        .collect();
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(Grid::unit_square(8), records));
    (positions, store)
}

/// A stream of unit movements within the unit square.
fn synth_stream(seed: u64, units: usize, n: u64) -> Vec<LocationUpdate> {
    let mut lcg = Lcg(seed.wrapping_mul(31) | 1);
    (0..n)
        .map(|_| LocationUpdate {
            unit: UnitId(convert::id32(lcg.index(units))),
            new: Point::new(lcg.coord(), lcg.coord()),
        })
        .collect()
}

/// Configuration of the MTTR bench.
#[derive(Debug, Clone)]
pub struct MttrConfig {
    /// Restart trials; the report keeps every sample.
    pub trials: usize,
    /// Reports fed per trial.
    pub reports: u64,
    /// Engine kill point (report ordinal).
    pub kill_at: u64,
    /// Durable checkpoint cadence, in applied updates.
    pub checkpoint_every: u64,
    /// Synthetic world size.
    pub places: usize,
    /// Synthetic fleet size.
    pub units: usize,
    /// Workload seed; each trial perturbs it.
    pub seed: u64,
}

impl Default for MttrConfig {
    fn default() -> Self {
        MttrConfig {
            trials: 5,
            reports: 600,
            kill_at: 300,
            checkpoint_every: 48,
            places: 1_000,
            units: 32,
            seed: 42,
        }
    }
}

/// One restart trial.
#[derive(Debug, Clone)]
pub struct SelfHealTrial {
    /// Wall time of the restart (load + restore + resume + fresh door), ms.
    pub revive_ms: f64,
    /// Wall time of the re-delivered feed through the fresh door, ms.
    pub feed_wall_ms: f64,
    /// Reports the fresh door acked (must equal the feed size).
    pub acked: u64,
}

/// The whole bench.
#[derive(Debug, Clone)]
pub struct MttrReport {
    /// The configuration the samples were taken under.
    pub config: MttrConfig,
    /// Restart samples.
    pub self_heal: Vec<SelfHealTrial>,
}

fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

fn maximum(samples: &[f64]) -> f64 {
    samples.iter().fold(0.0_f64, |a, &b| a.max(b))
}

fn fmt_ms(v: f64) -> String {
    format!("{v:.3}")
}

impl MttrReport {
    /// Per-trial restart times, ms.
    pub fn self_heal_ms(&self) -> Vec<f64> {
        self.self_heal.iter().map(|t| t.revive_ms).collect()
    }

    /// Renders the bench as the JSON object `reproduce --failover-out` writes.
    pub fn render_json(&self) -> String {
        let heal = self.self_heal_ms();
        let mut heal_obj = ObjectWriter::new();
        heal_obj.field_raw(
            "revive_ms",
            &format!(
                "[{}]",
                heal.iter()
                    .map(|v| fmt_ms(*v))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        );
        heal_obj.field_raw("median_ms", &fmt_ms(median(&heal)));
        heal_obj.field_raw("max_ms", &fmt_ms(maximum(&heal)));
        heal_obj.field_u64("acked_total", self.self_heal.iter().map(|t| t.acked).sum());
        let mut root = ObjectWriter::new();
        root.field_str("experiment", "failover_mttr");
        root.field_u64("trials", convert::count64(self.config.trials));
        root.field_u64("reports_per_trial", self.config.reports);
        root.field_u64("kill_at", self.config.kill_at);
        root.field_u64("checkpoint_every", self.config.checkpoint_every);
        root.field_raw("self_heal", &heal_obj.finish());
        root.finish()
    }
}

fn bench_err(what: &str, detail: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(format!("{what}: {detail}"))
}

fn temp_dir(tag: &str, trial: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ctup-mttr-{tag}-{trial}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn feed_all(addr: std::net::SocketAddr, stream: &[crate::ingest::StampedUpdate]) -> u64 {
    let mut client = FeedClient::new(Box::new(TcpDialer::new(addr)), ClientConfig::default());
    for &report in stream {
        client.enqueue(report);
    }
    let _ = client.drive(Duration::from_secs(60));
    client.finish().acked
}

fn self_heal_trial(config: &MttrConfig, trial: usize) -> std::io::Result<SelfHealTrial> {
    let seed = config.seed.wrapping_add(convert::count64(trial));
    let (units, store) = synth_world(seed, config.places, config.units);
    let stream = stamp_stream(synth_stream(seed, config.units, config.reports));
    let dir = temp_dir("heal", trial);

    let resilience = ResilienceConfig {
        checkpoint_every: config.checkpoint_every,
        state_dir: Some(dir.clone()),
        kill_at: Some(config.kill_at),
        ..ResilienceConfig::default()
    };
    let monitor = OptCtup::new(CtupConfig::with_k(10), store.clone(), &units)
        .map_err(|e| bench_err("engine init", format!("{e:?}")))?;
    let initial = monitor.result();
    let pipeline = SupervisedPipeline::spawn(monitor, resilience.clone(), PIPELINE_CAPACITY);
    let sink: Arc<dyn EngineSink> = Arc::new(PipelineSink::new(pipeline, initial));
    let mut net_config = NetServerConfig::default();
    net_config.admission.ingest_deadline = Duration::from_secs(10);
    let server = IngestServer::spawn("127.0.0.1:0", net_config.clone(), sink)?;
    feed_all(server.local_addr(), &stream);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !server.degraded() {
        if Instant::now() >= deadline {
            return Err(bench_err(
                "timed out waiting",
                "the engine death to degrade the door",
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    server.shutdown();
    // Nothing writes the directory once the engine is dead.
    DurableState::tear_newest_slot(&dir)?;

    // The restart: recover from the directory, behind a fresh door.
    let started = Instant::now();
    let pipeline = SupervisedPipeline::recover_from_dir::<OptCtup>(
        &dir,
        store,
        ResilienceConfig {
            kill_at: None,
            ..resilience
        },
        PIPELINE_CAPACITY,
    )
    .map_err(|e| bench_err("recover", format!("{e:?}")))?;
    let sink: Arc<dyn EngineSink> = Arc::new(PipelineSink::from_pipeline(pipeline));
    let server = IngestServer::spawn("127.0.0.1:0", net_config, sink)?;
    let revive_ms = started.elapsed().as_secs_f64() * 1e3;

    let started = Instant::now();
    let acked = feed_all(server.local_addr(), &stream);
    let feed_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    if acked != config.reports {
        return Err(bench_err(
            "re-delivered feed",
            format!("{acked}/{} acked", config.reports),
        ));
    }
    Ok(SelfHealTrial {
        revive_ms,
        feed_wall_ms,
        acked,
    })
}

/// Runs `config.trials` restart trials.
pub fn run_mttr_bench(config: &MttrConfig) -> std::io::Result<MttrReport> {
    let self_heal = (0..config.trials)
        .map(|trial| self_heal_trial(config, trial))
        .collect::<std::io::Result<_>>()?;
    Ok(MttrReport {
        config: config.clone(),
        self_heal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_restart_trial_produces_sane_samples() {
        let config = MttrConfig {
            trials: 1,
            reports: 200,
            kill_at: 100,
            checkpoint_every: 32,
            ..MttrConfig::default()
        };
        let report = run_mttr_bench(&config).expect("bench runs");
        assert_eq!(report.self_heal.len(), 1);
        let heal = &report.self_heal[0];
        assert_eq!(
            heal.acked, 200,
            "the restarted engine must ack the whole feed"
        );
        assert!(heal.revive_ms > 0.0);
        let json = report.render_json();
        assert!(json.contains("\"experiment\":\"failover_mttr\""));
        assert!(json.contains("\"self_heal\":{"));
        assert!(!json.contains("promotion"));
    }
}
