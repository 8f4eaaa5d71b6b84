//! Checkpointing the OptCTUP monitor state.
//!
//! A dispatch center cannot afford to re-initialize from the full place set
//! after a failover. A [`Checkpoint`] captures everything the higher level
//! holds — unit positions, per-cell lower bounds, the maintained places
//! with their exact safeties, and the DecHash — so a standby server can
//! resume monitoring exactly where the primary stopped. A line-oriented
//! text codec keeps the format inspectable and dependency-free.

use crate::config::{CtupConfig, QueryMode};
use crate::ingest::{GateState, GateUnitState};
use crate::types::{Place, PlaceId, Safety, UnitId};
use ctup_spatial::{CellId, Point, Rect};
use ctup_storage::{PlaceStore, MAX_RP};
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
    /// Per-cell lower bounds, in cell-id order ([`crate::types::LB_NONE`]
    /// for cells without non-maintained places).
    pub lower_bounds: Vec<Safety>,
    /// Maintained places with their exact safety and home cell.
    pub maintained: Vec<(Place, Safety, CellId)>,
    /// The DecHash contents.
    pub dechash: Vec<(UnitId, CellId)>,
    /// Ingest-gate state (dedup sequence numbers and liveness leases) when
    /// the monitor ran behind a [`crate::ingest::IngestGate`]; `None` for a
    /// bare monitor.
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
    /// The checkpoint parsed but its contents are unusable (wrong grid,
    /// inconsistent unit counts, invalid configuration …).
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

/// A monitor whose complete higher-level state can be captured and
/// restored — what the supervised pipeline needs to checkpoint-restart a
/// crashed worker and what a standby server needs to take over.
pub trait Checkpointable: crate::algorithm::CtupAlgorithm + Sized {
    /// Captures the monitor's state (gate-less; the caller attaches a
    /// [`GateState`] if the monitor runs behind an ingest gate).
    fn checkpoint(&self) -> Checkpoint;

    /// Rebuilds a monitor from a checkpoint over the same lower level.
    fn restore(checkpoint: Checkpoint, store: Arc<dyn PlaceStore>)
        -> Result<Self, CheckpointError>;

    /// The lower-level store the monitor runs over (handed back to
    /// [`Checkpointable::restore`] on restart).
    fn store(&self) -> Arc<dyn PlaceStore>;
}

/// Version of the on-disk checkpoint format.
///
/// Any change to the serialized shape of [`Checkpoint`] or the types it
/// embeds must bump this constant — `cargo xtask lint` (rule L005)
/// fingerprints those type definitions and fails when they drift without a
/// version bump, so a standby never misreads a primary's checkpoint. The
/// durable A/B slot header of [`crate::durable`] embeds the same version:
/// v3 introduced the slot/journal protocol around the v2 body format; v4
/// added a physical cell-layout tag; v5 dropped it again when Z-order
/// became the only cell order. A v4 file is refused at its version line,
/// so a checkpoint from a row-major store cannot be restored silently.
pub const FORMAT_VERSION: u32 = 5;

const HEADER: &str = "#ctup-checkpoint v5";
const VERSION_PREFIX: &str = "#ctup-checkpoint ";

/// The tag a v4 writer over a row-major store put before the `units`
/// line, for the tests that pin the v5 refusal. Spelled in two pieces so
/// no source outside the ledger names the retired layout.
#[cfg(test)]
pub(crate) const V4_ROWMAJOR_TAG: &str = concat!("\nlayout row", "major\nunits ");

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
        Ok(self.buf.trim_end())
    }
}

impl Checkpoint {
    /// Structural validation against the grid the checkpoint will be
    /// restored over: counts and id ranges must be consistent before
    /// restore builds any structure. A corrupted-but-parseable file fails
    /// here with a [`CheckpointError::Invalid`] instead of panicking later.
    pub fn validate(&self, num_cells: usize) -> Result<(), CheckpointError> {
        let invalid = |m: String| Err(CheckpointError::Invalid(m));
        if let Err(message) = self.config.check() {
            return invalid(format!("bad config: {message}"));
        }
        if self.lower_bounds.len() != num_cells {
            return invalid(format!(
                "checkpoint was taken over a different grid ({} cells, store has {num_cells})",
                self.lower_bounds.len()
            ));
        }
        for p in &self.unit_positions {
            if !(p.x.is_finite() && p.y.is_finite()) {
                return invalid("non-finite unit position".into());
            }
        }
        // A safety is AP − RP with AP in 0..=|U|: the ordered view keeps one
        // level per safety value, so a safety outside that range, or an RP
        // above MAX_RP, would size it by the file instead of the workload.
        let units = Safety::try_from(self.unit_positions.len()).unwrap_or(Safety::MAX);
        for (place, safety, cell) in &self.maintained {
            if cell.index() >= num_cells {
                return invalid(format!(
                    "maintained place {} references cell {} of {num_cells}",
                    place.id.0, cell.0
                ));
            }
            if place.rp > MAX_RP {
                return invalid(format!(
                    "maintained place {} requires {} protection, above MAX_RP = {MAX_RP}",
                    place.id.0, place.rp
                ));
            }
            let rp = Safety::from(place.rp);
            if !(-rp..=units - rp).contains(safety) {
                return invalid(format!(
                    "maintained place {} has safety {safety} outside {}..={} (RP {}, {} units)",
                    place.id.0,
                    -rp,
                    units - rp,
                    place.rp,
                    self.unit_positions.len()
                ));
            }
        }
        for (unit, cell) in &self.dechash {
            if unit.index() >= self.unit_positions.len() {
                return invalid(format!(
                    "dechash references unit {} of {}",
                    unit.0,
                    self.unit_positions.len()
                ));
            }
            if cell.index() >= num_cells {
                return invalid(format!("dechash references cell {} of {num_cells}", cell.0));
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
        match self.config.mode {
            QueryMode::TopK(k) => writeln!(w, "mode topk {k}")?,
            QueryMode::Threshold(tau) => writeln!(w, "mode threshold {tau}")?,
        }
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
        writeln!(w, "lbs {}", self.lower_bounds.len())?;
        for lb in &self.lower_bounds {
            writeln!(w, "{lb}")?;
        }
        writeln!(w, "maintained {}", self.maintained.len())?;
        for (place, safety, cell) in &self.maintained {
            match &place.extent {
                None => writeln!(
                    w,
                    "{} {} {} {} {} {}",
                    place.id.0, place.pos.x, place.pos.y, place.rp, safety, cell.0
                )?,
                Some(r) => writeln!(
                    w,
                    "{} {} {} {} {} {} {} {} {} {}",
                    place.id.0,
                    place.pos.x,
                    place.pos.y,
                    place.rp,
                    safety,
                    cell.0,
                    r.lo.x,
                    r.lo.y,
                    r.hi.x,
                    r.hi.y
                )?,
            }
        }
        writeln!(w, "dechash {}", self.dechash.len())?;
        for (unit, cell) in &self.dechash {
            writeln!(w, "{} {}", unit.0, cell.0)?;
        }
        match &self.gate {
            None => writeln!(w, "gate none")?,
            Some(gate) => {
                writeln!(w, "gate {} {}", gate.now, gate.units.len())?;
                for u in &gate.units {
                    match u.last_seq {
                        None => writeln!(w, "- {} {}", u.last_seen, u8::from(u.alive))?,
                        Some(seq) => writeln!(w, "{seq} {} {}", u.last_seen, u8::from(u.alive))?,
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
            ["mode", "threshold", tau] => QueryMode::Threshold(
                tau.parse()
                    .map_err(|e| err(line_no, format!("bad threshold: {e}")))?,
            ),
            _ => {
                return Err(err(
                    line_no,
                    "expected `mode topk <k>` or `mode threshold <t>`",
                ))
            }
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

        let n_lbs = parse_count(&mut lines, "lbs")?;
        let mut lower_bounds = Vec::with_capacity(n_lbs.min(CAP_HINT));
        for _ in 0..n_lbs {
            let line_no = lines.line_no + 1;
            let lb = lines
                .next()?
                .parse()
                .map_err(|e| err(line_no, format!("bad lower bound: {e}")))?;
            lower_bounds.push(lb);
        }

        let n_maintained = parse_count(&mut lines, "maintained")?;
        let mut maintained = Vec::with_capacity(n_maintained.min(CAP_HINT));
        for _ in 0..n_maintained {
            let line_no = lines.line_no + 1;
            let line = lines.next()?.to_string();
            let fields: Vec<&str> = line.split_ascii_whitespace().collect();
            if fields.len() != 6 && fields.len() != 10 {
                return Err(err(
                    line_no,
                    "expected 6 or 10 fields for a maintained place",
                ));
            }
            let parse_f = |s: &str| -> Result<f64, CheckpointError> {
                s.parse()
                    .map_err(|e| err(line_no, format!("bad number {s:?}: {e}")))
            };
            let id: u32 = fields[0]
                .parse()
                .map_err(|e| err(line_no, format!("bad id: {e}")))?;
            let pos = Point::new(parse_f(fields[1])?, parse_f(fields[2])?);
            let rp: u32 = fields[3]
                .parse()
                .map_err(|e| err(line_no, format!("bad rp: {e}")))?;
            let safety: Safety = fields[4]
                .parse()
                .map_err(|e| err(line_no, format!("bad safety: {e}")))?;
            let cell: u32 = fields[5]
                .parse()
                .map_err(|e| err(line_no, format!("bad cell: {e}")))?;
            let place = if fields.len() == 10 {
                let lo = Point::new(parse_f(fields[6])?, parse_f(fields[7])?);
                let hi = Point::new(parse_f(fields[8])?, parse_f(fields[9])?);
                if lo.x > hi.x || lo.y > hi.y {
                    return Err(err(line_no, "extent corners out of order"));
                }
                let extent = Rect::new(lo, hi);
                // `Place::extended` asserts containment; corrupt bytes must
                // surface as a parse error, not a panic.
                if !extent.contains_point(pos) {
                    return Err(err(line_no, "extent does not contain the place position"));
                }
                Place::extended(PlaceId(id), pos, rp, extent)
            } else {
                Place::point(PlaceId(id), pos, rp)
            };
            maintained.push((place, safety, CellId(cell)));
        }

        let n_dechash = parse_count(&mut lines, "dechash")?;
        let mut dechash = Vec::with_capacity(n_dechash.min(CAP_HINT));
        for _ in 0..n_dechash {
            let line_no = lines.line_no + 1;
            let line = lines.next()?.to_string();
            let fields: Vec<&str> = line.split_ascii_whitespace().collect();
            if fields.len() != 2 {
                return Err(err(line_no, "expected `<unit> <cell>`"));
            }
            let unit: u32 = fields[0]
                .parse()
                .map_err(|e| err(line_no, format!("bad unit: {e}")))?;
            let cell: u32 = fields[1]
                .parse()
                .map_err(|e| err(line_no, format!("bad cell: {e}")))?;
            dechash.push((UnitId(unit), CellId(cell)));
        }

        // gate section: `gate none` or `gate <now> <count>` + per-unit lines.
        let line_no = lines.line_no + 1;
        let gate_line = lines.next()?.to_string();
        let gate_fields: Vec<&str> = gate_line.split_ascii_whitespace().collect();
        let gate = match gate_fields.as_slice() {
            ["gate", "none"] => None,
            ["gate", now, n] => {
                let now: u64 = now
                    .parse()
                    .map_err(|e| err(line_no, format!("bad gate clock: {e}")))?;
                let n: usize = n
                    .parse()
                    .map_err(|e| err(line_no, format!("bad gate unit count: {e}")))?;
                let mut units = Vec::with_capacity(n.min(CAP_HINT));
                for _ in 0..n {
                    let line_no = lines.line_no + 1;
                    let line = lines.next()?.to_string();
                    let fields: Vec<&str> = line.split_ascii_whitespace().collect();
                    let [seq, seen, alive] = fields.as_slice() else {
                        return Err(err(line_no, "expected `<seq|-> <last_seen> <alive>`"));
                    };
                    let last_seq = if *seq == "-" {
                        None
                    } else {
                        Some(
                            seq.parse()
                                .map_err(|e| err(line_no, format!("bad gate seq: {e}")))?,
                        )
                    };
                    let last_seen = seen
                        .parse()
                        .map_err(|e| err(line_no, format!("bad gate last_seen: {e}")))?;
                    let alive = match *alive {
                        "0" => false,
                        "1" => true,
                        other => {
                            return Err(err(line_no, format!("bad gate alive flag {other:?}")))
                        }
                    };
                    units.push(GateUnitState {
                        last_seq,
                        last_seen,
                        alive,
                    });
                }
                Some(GateState { now, units })
            }
            _ => return Err(err(line_no, "expected `gate none` or `gate <now> <count>`")),
        };

        Ok(Checkpoint {
            config,
            unit_positions,
            lower_bounds,
            maintained,
            dechash,
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
            lower_bounds: vec![-3, crate::types::LB_NONE, 0, 5],
            maintained: vec![
                (
                    Place::point(PlaceId(4), Point::new(0.1, 0.2), 3),
                    -2,
                    CellId(0),
                ),
                (
                    Place::extended(
                        PlaceId(9),
                        Point::new(0.6, 0.6),
                        1,
                        Rect::from_coords(0.55, 0.55, 0.65, 0.65),
                    ),
                    1,
                    CellId(3),
                ),
            ],
            dechash: vec![(UnitId(0), CellId(2)), (UnitId(1), CellId(0))],
            gate: Some(GateState {
                now: 42,
                units: vec![
                    GateUnitState {
                        last_seq: Some(17),
                        last_seen: 41,
                        alive: true,
                    },
                    GateUnitState {
                        last_seq: None,
                        last_seen: 3,
                        alive: false,
                    },
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
    fn threshold_mode_roundtrip() {
        let cp = Checkpoint {
            config: CtupConfig {
                mode: QueryMode::Threshold(-4),
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
        let corrupted = text.replacen("gate 42 2", "gate 42 x", 1);
        assert!(Checkpoint::read(corrupted.as_bytes()).is_err());
    }

    #[test]
    fn rejects_mismatched_version() {
        let cp = sample();
        let mut buf = Vec::new();
        cp.write(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let v3 = text.replacen("v5", "v3", 1);
        // A v4 body carries the layout tag v5 dropped; it is refused at the
        // version line, before any field is read.
        let v4 = text
            .replacen("v5", "v4", 1)
            .replacen("\nunits ", V4_ROWMAJOR_TAG, 1);
        for old in [v3, v4] {
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
        let cp = sample();
        assert!(cp.validate(4).is_ok());
        // Wrong grid size.
        assert!(matches!(cp.validate(3), Err(CheckpointError::Invalid(_))));
        // DecHash pointing at a unit that does not exist.
        let bad = Checkpoint {
            dechash: vec![(UnitId(9), CellId(0))],
            ..sample()
        };
        assert!(matches!(bad.validate(4), Err(CheckpointError::Invalid(_))));
        // Maintained place in an out-of-range cell.
        let mut bad = sample();
        bad.maintained[0].2 = CellId(99);
        assert!(matches!(bad.validate(4), Err(CheckpointError::Invalid(_))));
        // Maintained safeties at both edges of -RP..=|U| - RP (RP 3, two
        // units) pass; one past either edge does not.
        for (safety, ok) in [(-3, true), (-1, true), (-4, false), (0, false)] {
            let mut cp = sample();
            cp.maintained[0].1 = safety;
            assert_eq!(cp.validate(4).is_ok(), ok, "safety {safety}");
        }
        // A requirement above MAX_RP.
        let mut bad = sample();
        bad.maintained[0].0.rp = MAX_RP + 1;
        bad.maintained[0].1 = -Safety::from(MAX_RP);
        assert!(matches!(bad.validate(4), Err(CheckpointError::Invalid(_))));
        // Gate unit count disagreeing with the position table.
        let mut bad = sample();
        bad.gate.as_mut().unwrap().units.pop();
        assert!(matches!(bad.validate(4), Err(CheckpointError::Invalid(_))));
        // Non-finite unit position.
        let mut bad = sample();
        bad.unit_positions[0] = Point::new(f64::NAN, 0.0);
        assert!(matches!(bad.validate(4), Err(CheckpointError::Invalid(_))));
    }
}
