//! Property tests of the checkpoint text codec and of restore: random
//! monitor states — gate state included — must round-trip exactly,
//! and truncated or byte-corrupted files must come back as typed errors,
//! never panics or absurd allocations. A corrupted checkpoint of a real
//! monitor that still parses must also restore to an error or to a
//! monitor that keeps running without a panic.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

#[path = "support/prop.rs"]
mod prop;

use ctup::core::algorithm::CtupAlgorithm;
use ctup::core::checkpoint::Checkpoint;
use ctup::core::config::CtupConfig;
use ctup::core::ingest::{GateState, GateUnitState};
use ctup::core::types::{LocationUpdate, UnitId};
use ctup::core::OptCtup;
use ctup::mogen::{PlaceGenConfig, PlaceGenerator, SeededRng};
use ctup::spatial::{Grid, Point};
use ctup::storage::{CellLocalStore, PlaceStore};
use prop::{check, Gen};
use std::sync::Arc;

fn point(g: &mut Gen) -> Point {
    Point::new(g.gen_f64(), g.gen_f64())
}

fn config(g: &mut Gen) -> CtupConfig {
    CtupConfig {
        protection_radius: g.gen_range_f64(0.01..0.5),
        delta: g.int(0..=9),
        doo_enabled: g.gen_bool(0.5),
        purge_dechash_on_access: g.gen_bool(0.5),
        ..CtupConfig::with_k(g.gen_range(1..30))
    }
}

fn gate(g: &mut Gen) -> Option<GateState> {
    g.gen_bool(0.5).then(|| GateState {
        units: g.vec(0..=7, |g| GateUnitState {
            last_seq: g.gen_bool(0.5).then(|| g.next_u64()),
        }),
    })
}

fn checkpoint(g: &mut Gen) -> Checkpoint {
    Checkpoint {
        config: config(g),
        unit_positions: g.vec(0..=11, point),
        gate: gate(g),
    }
}

fn encode(cp: &Checkpoint) -> Vec<u8> {
    let mut buf = Vec::new();
    cp.write(&mut buf).unwrap();
    buf
}

#[test]
fn text_codec_roundtrips_exactly() {
    check("text_codec_roundtrips_exactly", 256, checkpoint, |cp| {
        let back = Checkpoint::read(encode(cp).as_slice()).unwrap();
        assert_eq!(&back, cp);
    });
}

#[test]
fn truncation_yields_an_error_not_a_panic() {
    check(
        "truncation_yields_an_error_not_a_panic",
        256,
        |g| (checkpoint(g), g.gen_f64()),
        |(cp, frac)| {
            let buf = encode(cp);
            let cut = ((buf.len() as f64 * frac) as usize).min(buf.len().saturating_sub(1));
            let parsed = Checkpoint::read(&buf[..cut]);
            // Cutting only the final newline still parses; any deeper cut
            // must surface as an error.
            if cut + 1 < buf.len() {
                assert!(parsed.is_err());
            }
        },
    );
}

/// A checkpoint a real monitor wrote, with the store it ran over and the
/// updates that follow it.
struct RealCheckpoint {
    bytes: Vec<u8>,
    store: Arc<dyn PlaceStore>,
    tail: Vec<LocationUpdate>,
}

/// 300 places on a 6×6 grid, watched by
/// 12 units with a 0.2 range through 200 seeded teleports; the checkpoint
/// is taken there and 40 more teleports follow. Teleports touch and access
/// many cells, so a corrupted position or configuration that restore
/// accepted is exercised within the 40.
fn real_checkpoint() -> RealCheckpoint {
    let places = PlaceGenerator::new(PlaceGenConfig {
        count: 300,
        ..PlaceGenConfig::default()
    })
    .generate(35);
    let store: Arc<dyn PlaceStore> = Arc::new(CellLocalStore::build(Grid::unit_square(6), places));
    let mut rng = SeededRng::seed_from_u64(35);
    let units: Vec<Point> = (0..12)
        .map(|_| Point::new(rng.gen_f64(), rng.gen_f64()))
        .collect();
    let mut teleport = || LocationUpdate {
        unit: UnitId(rng.gen_range(0..units.len()) as u32),
        new: Point::new(rng.gen_f64(), rng.gen_f64()),
    };
    let config = CtupConfig {
        protection_radius: 0.2,
        ..CtupConfig::with_k(5)
    };
    let mut monitor = OptCtup::new(config, store.clone(), &units).expect("clean store");
    for _ in 0..200 {
        monitor.handle_update(teleport()).expect("clean store");
    }
    let bytes = encode(&monitor.checkpoint());
    let tail = (0..40).map(|_| teleport()).collect();
    RealCheckpoint { bytes, store, tail }
}

#[derive(Debug)]
enum Corrupted {
    /// A random checkpoint with one byte overwritten.
    Random {
        cp: Checkpoint,
        pos_frac: f64,
        byte: u8,
    },
    /// The real checkpoint with 1–3 bytes replaced by characters its text
    /// format is made of.
    Real { edits: Vec<(usize, u8)> },
}

#[test]
fn byte_corruption_never_panics() {
    let real = real_checkpoint();
    check(
        "byte_corruption_never_panics",
        4_256,
        |g| match g.gen_range(0..17) {
            0 => Corrupted::Random {
                cp: checkpoint(g),
                pos_frac: g.gen_f64(),
                byte: g.next_u64() as u8,
            },
            _ => {
                let len = real.bytes.len();
                let edits = (0..g.gen_range(1..4))
                    .map(|_| {
                        let byte = b"0123456789-.e \nx"[g.gen_range(0..16)];
                        (g.gen_range(0..len), byte)
                    })
                    .collect();
                Corrupted::Real { edits }
            }
        },
        |input| match input {
            Corrupted::Random { cp, pos_frac, byte } => {
                let mut buf = encode(cp);
                let pos = ((buf.len() as f64 * pos_frac) as usize).min(buf.len() - 1);
                buf[pos] = *byte;
                // Typed result either way — a lucky corruption may still
                // parse (e.g. flipping a digit), but it must never panic
                // or hang.
                let _ = Checkpoint::read(buf.as_slice());
            }
            Corrupted::Real { edits } => {
                let mut buf = real.bytes.clone();
                for &(pos, byte) in edits {
                    buf[pos] = byte;
                }
                let Ok(cp) = Checkpoint::read(buf.as_slice()) else {
                    return;
                };
                // A file restore accepts must be one the monitor can run
                // on: the updates after it must not trip an invariant.
                let Ok(mut monitor) = OptCtup::restore(cp, real.store.clone()) else {
                    return;
                };
                for &update in &real.tail {
                    monitor.handle_update(update).expect("clean store");
                }
            }
        },
    );
}
