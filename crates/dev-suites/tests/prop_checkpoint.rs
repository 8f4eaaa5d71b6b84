//! Property tests of the checkpoint text codec: arbitrary monitor states —
//! lease/gate state included — must round-trip exactly, and truncated or
//! byte-corrupted files must come back as typed errors, never panics or
//! absurd allocations.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup_core::checkpoint::Checkpoint;
use ctup_core::config::{CtupConfig, QueryMode};
use ctup_core::ingest::{GateState, GateUnitState};
use ctup_core::types::{Place, PlaceId, UnitId, LB_NONE};
use ctup_spatial::{CellId, Point, Rect};
use proptest::prelude::*;

fn point01() -> impl Strategy<Value = Point> {
    (0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y)| Point::new(x, y))
}

fn config() -> impl Strategy<Value = CtupConfig> {
    (
        prop_oneof![
            (1usize..30).prop_map(QueryMode::TopK),
            (-10i64..10).prop_map(QueryMode::Threshold),
        ],
        0.01f64..0.5,
        0i64..10,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(mode, radius, delta, doo, purge)| CtupConfig {
            mode,
            protection_radius: radius,
            delta,
            doo_enabled: doo,
            purge_dechash_on_access: purge,
        })
}

fn place() -> impl Strategy<Value = Place> {
    (
        0u32..5_000,
        point01(),
        0u32..6,
        proptest::option::of((0.0f64..0.2, 0.0f64..0.2, 0.0f64..0.2, 0.0f64..0.2)),
    )
        .prop_map(|(id, pos, rp, extent)| match extent {
            None => Place::point(PlaceId(id), pos, rp),
            // The extent is grown outward from `pos` so it always contains
            // it — `Place::extended` debug-asserts exactly that.
            Some((l, r, d, u)) => Place::extended(
                PlaceId(id),
                pos,
                rp,
                Rect::from_coords(pos.x - l, pos.y - d, pos.x + r, pos.y + u),
            ),
        })
}

fn gate_unit() -> impl Strategy<Value = GateUnitState> {
    (
        proptest::option::of(any::<u64>()),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(last_seq, last_seen, alive)| GateUnitState {
            last_seq,
            last_seen,
            alive,
        })
}

fn gate() -> impl Strategy<Value = Option<GateState>> {
    proptest::option::of(
        (any::<u64>(), prop::collection::vec(gate_unit(), 0..8))
            .prop_map(|(now, units)| GateState { now, units }),
    )
}

fn checkpoint() -> impl Strategy<Value = Checkpoint> {
    (
        config(),
        prop::collection::vec(point01(), 0..12),
        prop::collection::vec(prop_oneof![Just(LB_NONE), -15i64..15], 0..20),
        prop::collection::vec((place(), -10i64..10, 0u32..64), 0..10),
        prop::collection::vec((0u32..40, 0u32..64), 0..10),
        gate(),
    )
        .prop_map(
            |(config, unit_positions, lower_bounds, maintained, dechash, gate)| Checkpoint {
                config,
                unit_positions,
                lower_bounds,
                maintained: maintained
                    .into_iter()
                    .map(|(p, s, c)| (p, s, CellId(c)))
                    .collect(),
                dechash: dechash
                    .into_iter()
                    .map(|(u, c)| (UnitId(u), CellId(c)))
                    .collect(),
                gate,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn text_codec_roundtrips_exactly(cp in checkpoint()) {
        let mut buf = Vec::new();
        cp.write(&mut buf).unwrap();
        let back = Checkpoint::read(buf.as_slice()).unwrap();
        prop_assert_eq!(back, cp);
    }

    #[test]
    fn truncation_yields_an_error_not_a_panic(cp in checkpoint(), frac in 0.0f64..1.0) {
        let mut buf = Vec::new();
        cp.write(&mut buf).unwrap();
        let cut = ((buf.len() as f64 * frac) as usize).min(buf.len().saturating_sub(1));
        let parsed = Checkpoint::read(&buf[..cut]);
        // Cutting only the final newline still parses; any deeper cut must
        // surface as an error.
        if cut + 1 < buf.len() {
            prop_assert!(parsed.is_err());
        }
    }

    #[test]
    fn byte_corruption_never_panics(
        cp in checkpoint(),
        pos_frac in 0.0f64..1.0,
        byte in any::<u8>(),
    ) {
        let mut buf = Vec::new();
        cp.write(&mut buf).unwrap();
        let pos = ((buf.len() as f64 * pos_frac) as usize).min(buf.len() - 1);
        buf[pos] = byte;
        // Typed result either way — a lucky corruption may still parse
        // (e.g. flipping a digit), but it must never panic or hang.
        let _ = Checkpoint::read(buf.as_slice());
    }
}
