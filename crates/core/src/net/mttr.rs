//! The failover MTTR bench: how long the monitor is dark after an engine
//! kill, for both ways back, measured end to end through the real front
//! door.
//!
//! Level 1 (crash-only restart): the supervised engine is killed mid-feed
//! with a torn slot, and the door goes degraded. A new engine is then
//! recovered from the durable slot + WAL tail and put behind a fresh door,
//! and the whole stream is re-delivered to it; every report must be acked.
//! The recovery time is the wall time of that restart
//! ([`SupervisedPipeline::recover_from_dir`] plus the door's spawn) — what
//! a supervising process manager adds on top (noticing the death, exec)
//! is outside the bench.
//!
//! Level 2 (warm standby promotion): a standby follows the primary over
//! the replication stream; the primary is shut down and the clock runs
//! from that instant until the standby serves at the bumped epoch. This
//! includes the probe budget (`probe_failures × probe_interval`), the
//! fencing probe, and the engine resume — the whole client-visible gap.
//!
//! Run by `reproduce --failover-out FILE`.

use super::client::{ClientConfig, FeedClient, TcpDialer};
use super::server::{EngineSink, IngestServer, NetServerConfig, PipelineSink, PIPELINE_CAPACITY};
use super::standby::{StandbyConfig, StandbyPhase, StandbyServer};
use crate::algorithm::CtupAlgorithm;
use crate::config::CtupConfig;
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
    /// Trials per recovery level; the report keeps every sample.
    pub trials: usize,
    /// Reports fed per trial.
    pub reports: u64,
    /// Engine kill point for the level-1 trials (report ordinal).
    pub kill_at: u64,
    /// Durable checkpoint cadence, in applied updates.
    pub checkpoint_every: u64,
    /// Standby probe cadence for the level-2 trials.
    pub probe_interval: Duration,
    /// Dark probes before the standby promotes.
    pub probe_failures: u32,
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
            probe_interval: Duration::from_millis(50),
            probe_failures: 2,
            places: 1_000,
            units: 32,
            seed: 42,
        }
    }
}

/// One level-1 trial.
#[derive(Debug, Clone)]
pub struct SelfHealTrial {
    /// Wall time of the restart (load + restore + resume + fresh door), ms.
    pub revive_ms: f64,
    /// Wall time of the re-delivered feed through the fresh door, ms.
    pub feed_wall_ms: f64,
    /// Reports the fresh door acked (must equal the feed size).
    pub acked: u64,
}

/// One level-2 trial.
#[derive(Debug, Clone)]
pub struct PromotionTrial {
    /// Primary-shutdown to Promoted, ms (includes the probe budget).
    pub promote_ms: f64,
    /// Live WAL frames the standby applied before the kill.
    pub wal_applied: u64,
    /// Epoch the standby promoted into (primary epoch + 1).
    pub epoch: u64,
}

/// The whole bench.
#[derive(Debug, Clone)]
pub struct MttrReport {
    /// The configuration the samples were taken under.
    pub config: MttrConfig,
    /// Level-1 samples.
    pub self_heal: Vec<SelfHealTrial>,
    /// Level-2 samples.
    pub promotion: Vec<PromotionTrial>,
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
    /// Per-trial level-1 restart times, ms.
    pub fn self_heal_ms(&self) -> Vec<f64> {
        self.self_heal.iter().map(|t| t.revive_ms).collect()
    }

    /// Per-trial level-2 promotion times, ms.
    pub fn promotion_ms(&self) -> Vec<f64> {
        self.promotion.iter().map(|t| t.promote_ms).collect()
    }

    /// Renders the bench as the JSON object `reproduce --failover-out` writes.
    pub fn render_json(&self) -> String {
        let heal = self.self_heal_ms();
        let promote = self.promotion_ms();
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
        let mut promote_obj = ObjectWriter::new();
        promote_obj.field_raw(
            "promote_ms",
            &format!(
                "[{}]",
                promote
                    .iter()
                    .map(|v| fmt_ms(*v))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        );
        promote_obj.field_raw("median_ms", &fmt_ms(median(&promote)));
        promote_obj.field_raw("max_ms", &fmt_ms(maximum(&promote)));
        promote_obj.field_u64(
            "probe_interval_ms",
            u64::try_from(self.config.probe_interval.as_millis()).unwrap_or(u64::MAX),
        );
        promote_obj.field_u64("probe_failures", u64::from(self.config.probe_failures));
        let mut root = ObjectWriter::new();
        root.field_str("experiment", "failover_mttr");
        root.field_u64("trials", convert::count64(self.config.trials));
        root.field_u64("reports_per_trial", self.config.reports);
        root.field_u64("kill_at", self.config.kill_at);
        root.field_u64("checkpoint_every", self.config.checkpoint_every);
        root.field_raw("self_heal", &heal_obj.finish());
        root.field_raw("promotion", &promote_obj.finish());
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

fn wait_until(
    what: &str,
    deadline: Duration,
    tick: Duration,
    mut probe: impl FnMut() -> bool,
) -> std::io::Result<()> {
    let end = Instant::now() + deadline;
    while !probe() {
        if Instant::now() >= end {
            return Err(bench_err("timed out waiting", what));
        }
        std::thread::sleep(tick);
    }
    Ok(())
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
        tear_slot_on_kill: true,
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
    wait_until(
        "the engine death to degrade the door",
        Duration::from_secs(10),
        Duration::from_millis(2),
        || server.degraded(),
    )?;
    server.shutdown();

    // The restart: recover from the directory, behind a fresh door.
    let started = Instant::now();
    let pipeline = SupervisedPipeline::recover_from_dir::<OptCtup>(
        &dir,
        store,
        ResilienceConfig {
            kill_at: None,
            tear_slot_on_kill: false,
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

fn promotion_trial(config: &MttrConfig, trial: usize) -> std::io::Result<PromotionTrial> {
    let seed = config
        .seed
        .wrapping_add(1_000)
        .wrapping_add(convert::count64(trial));
    let (units, store) = synth_world(seed, config.places, config.units);
    let stream = stamp_stream(synth_stream(seed, config.units, config.reports));
    let dir_primary = temp_dir("promote-p", trial);
    let dir_standby = temp_dir("promote-s", trial);

    let resilience = ResilienceConfig {
        checkpoint_every: config.checkpoint_every,
        state_dir: Some(dir_primary.clone()),
        ..ResilienceConfig::default()
    };
    let monitor = OptCtup::new(CtupConfig::with_k(10), store.clone(), &units)
        .map_err(|e| bench_err("engine init", format!("{e:?}")))?;
    let initial = monitor.result();
    let pipeline = SupervisedPipeline::spawn(monitor, resilience, PIPELINE_CAPACITY);
    let sink: Arc<dyn EngineSink> = Arc::new(PipelineSink::new(pipeline, initial));
    let net_config = NetServerConfig {
        state_dir: Some(dir_primary.clone()),
        epoch: 1,
        ..NetServerConfig::default()
    };
    let primary = IngestServer::spawn("127.0.0.1:0", net_config, sink)?;
    let primary_addr = primary.local_addr();

    let standby = StandbyServer::spawn(
        StandbyConfig {
            primary_ingest: primary_addr,
            serve_addr: "127.0.0.1:0".to_string(),
            resilience: ResilienceConfig {
                state_dir: Some(dir_standby.clone()),
                ..ResilienceConfig::default()
            },
            probe_interval: config.probe_interval,
            probe_failures: config.probe_failures,
            ..StandbyConfig::default()
        },
        store,
    );

    // Prime: the first durable batch lets the checkpoint sync complete.
    let prime = usize::try_from(config.checkpoint_every.max(32)).unwrap_or(64) * 2;
    let prime = prime.min(stream.len());
    let acked = feed_all(primary_addr, &stream[..prime]);
    if acked != convert::count64(prime) {
        return Err(bench_err("priming feed", format!("{acked}/{prime} acked")));
    }
    wait_until(
        "checkpoint sync",
        Duration::from_secs(10),
        Duration::from_millis(2),
        || standby.status().phase == StandbyPhase::Following,
    )?;
    // The sync may land mid-priming, counting part of the priming batch
    // toward `wal_applied`; let the counter settle before baselining it.
    let mut base = standby.status().wal_applied;
    let mut stable_since = Instant::now();
    let settle_deadline = Instant::now() + Duration::from_secs(10);
    while stable_since.elapsed() < Duration::from_millis(250) {
        if Instant::now() >= settle_deadline {
            return Err(bench_err("baseline", "wal_applied never settled"));
        }
        std::thread::sleep(Duration::from_millis(10));
        let now = standby.status().wal_applied;
        if now != base {
            base = now;
            stable_since = Instant::now();
        }
    }
    // Live tail: the rest arrives over the replication stream.
    let rest = stream.len() - prime;
    let acked = feed_all(primary_addr, &stream[prime..]);
    if acked != convert::count64(rest) {
        return Err(bench_err("live feed", format!("{acked}/{rest} acked")));
    }
    wait_until(
        "live WAL tail",
        Duration::from_secs(10),
        Duration::from_millis(2),
        || standby.status().wal_applied >= base + convert::count64(rest),
    )?;

    // The outage clock runs from the shutdown call to Promoted.
    let killed = Instant::now();
    primary.shutdown();
    wait_until(
        "promotion",
        Duration::from_secs(30),
        Duration::from_millis(1),
        || standby.status().phase == StandbyPhase::Promoted,
    )?;
    let promote_ms = killed.elapsed().as_secs_f64() * 1e3;
    let status = standby.status();
    standby.shutdown();
    std::fs::remove_dir_all(&dir_primary).ok();
    std::fs::remove_dir_all(&dir_standby).ok();
    Ok(PromotionTrial {
        promote_ms,
        wal_applied: status.wal_applied,
        epoch: status.epoch,
    })
}

/// Runs both levels, `config.trials` trials each.
pub fn run_mttr_bench(config: &MttrConfig) -> std::io::Result<MttrReport> {
    let mut self_heal = Vec::with_capacity(config.trials);
    let mut promotion = Vec::with_capacity(config.trials);
    for trial in 0..config.trials {
        self_heal.push(self_heal_trial(config, trial)?);
    }
    for trial in 0..config.trials {
        promotion.push(promotion_trial(config, trial)?);
    }
    Ok(MttrReport {
        config: config.clone(),
        self_heal,
        promotion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_trial_of_each_level_produces_sane_samples() {
        let config = MttrConfig {
            trials: 1,
            reports: 200,
            kill_at: 100,
            checkpoint_every: 32,
            ..MttrConfig::default()
        };
        let report = run_mttr_bench(&config).expect("bench runs");
        assert_eq!(report.self_heal.len(), 1);
        assert_eq!(report.promotion.len(), 1);
        let heal = &report.self_heal[0];
        assert_eq!(
            heal.acked, 200,
            "the restarted engine must ack the whole feed"
        );
        assert!(heal.revive_ms > 0.0);
        let promo = &report.promotion[0];
        assert!(promo.promote_ms > 0.0);
        assert_eq!(promo.epoch, 2, "promotion bumps the epoch");
        let json = report.render_json();
        assert!(json.contains("\"experiment\":\"failover_mttr\""));
        assert!(json.contains("\"self_heal\":{"));
        assert!(json.contains("\"promotion\":{"));
    }
}
