//! Property-based model tests of the core data structures: the
//! safety-ordered multiset and the lower-bound directory must behave like
//! their obvious reference models under arbitrary operation sequences.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup_core::config::QueryMode;
use ctup_core::lbdir::LbDirectory;
use ctup_core::topk::SafetyOrdered;
use ctup_core::types::{PlaceId, Safety, LB_NONE};
use ctup_spatial::CellId;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum TopOp {
    Insert(u32, Safety),
    Remove(u32),
    Update(u32, Safety),
}

fn top_ops() -> impl Strategy<Value = Vec<TopOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..30, -20i64..20).prop_map(|(id, s)| TopOp::Insert(id, s)),
            (0u32..30).prop_map(TopOp::Remove),
            (0u32..30, -20i64..20).prop_map(|(id, s)| TopOp::Update(id, s)),
        ],
        0..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn safety_ordered_matches_model(ops in top_ops(), k in 1usize..8, bound in -10i64..10) {
        let mut sut = SafetyOrdered::new();
        let mut model: HashMap<u32, Safety> = HashMap::new();
        for op in ops {
            match op {
                TopOp::Insert(id, s) => {
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(id) {
                        e.insert(s);
                        sut.insert(PlaceId(id), s);
                    }
                }
                TopOp::Remove(id) => {
                    if let Some(s) = model.remove(&id) {
                        sut.remove(PlaceId(id), s);
                    }
                }
                TopOp::Update(id, s) => {
                    if let Some(old) = model.get(&id).copied() {
                        sut.update(PlaceId(id), old, s);
                        model.insert(id, s);
                    }
                }
            }
        }
        prop_assert_eq!(sut.len(), model.len());
        let mut sorted: Vec<(Safety, u32)> =
            model.iter().map(|(&id, &s)| (s, id)).collect();
        sorted.sort_unstable();
        // kth_safety.
        let expect_kth = sorted.get(k - 1).map(|&(s, _)| s);
        prop_assert_eq!(sut.kth_safety(k), expect_kth);
        // Top-k order.
        let got: Vec<(Safety, u32)> =
            sut.result(QueryMode::TopK(k)).map(|e| (e.safety, e.place.0)).collect();
        let expect: Vec<(Safety, u32)> = sorted.iter().take(k).copied().collect();
        prop_assert_eq!(got, expect);
        // Threshold: strictly below the bound.
        let got_below: Vec<(Safety, u32)> =
            sut.result(QueryMode::Threshold(bound)).map(|e| (e.safety, e.place.0)).collect();
        let expect_below: Vec<(Safety, u32)> =
            sorted.iter().take_while(|&&(s, _)| s < bound).copied().collect();
        prop_assert_eq!(got_below, expect_below);
    }
}

#[derive(Debug, Clone)]
enum LbOp {
    Set(u8, Safety),
    Add(u8, Safety),
    Detach(u8),
    Attach(u8, Safety),
}

fn lb_ops() -> impl Strategy<Value = Vec<LbOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..12, -15i64..15).prop_map(|(c, s)| LbOp::Set(c, s)),
            (0u8..12, -3i64..3).prop_map(|(c, s)| LbOp::Add(c, s)),
            (0u8..12).prop_map(LbOp::Detach),
            (0u8..12, -15i64..15).prop_map(|(c, s)| LbOp::Attach(c, s)),
        ],
        0..150,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn lb_directory_matches_model(ops in lb_ops()) {
        let mut sut = LbDirectory::new(12);
        // Model: Some(lb) = attached, None = detached.
        let mut model: Vec<Option<Safety>> = vec![Some(LB_NONE); 12];
        for op in ops {
            match op {
                LbOp::Set(c, s) => {
                    if model[c as usize].is_some() {
                        model[c as usize] = Some(s);
                        sut.set(CellId(c as u32), s);
                    }
                }
                LbOp::Add(c, s) => {
                    if let Some(old) = model[c as usize] {
                        let fresh = if old == LB_NONE { LB_NONE } else { old + s };
                        model[c as usize] = Some(fresh);
                        prop_assert_eq!(sut.add(CellId(c as u32), s), fresh);
                    }
                }
                LbOp::Detach(c) => {
                    if model[c as usize].take().is_some() {
                        sut.detach(CellId(c as u32));
                    }
                }
                LbOp::Attach(c, s) => {
                    if model[c as usize].is_none() {
                        model[c as usize] = Some(s);
                        sut.attach(CellId(c as u32), s);
                    }
                }
            }
        }
        for (i, slot) in model.iter().enumerate() {
            let cell = CellId(i as u32);
            prop_assert_eq!(sut.is_attached(cell), slot.is_some());
            if let Some(lb) = slot {
                prop_assert_eq!(sut.get(cell), *lb);
            }
        }
        // The cheapest attached cell, the lowest id on a tie.
        let expect = model
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.map(|lb| (lb, i as u32)))
            .min();
        prop_assert_eq!(sut.first().map(|(lb, c)| (lb, c.0)), expect);
    }
}
