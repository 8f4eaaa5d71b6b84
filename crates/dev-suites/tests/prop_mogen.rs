//! Property-based tests of the workload substrate: synthetic cities are
//! always connected, routes are valid walks, moving objects respect the
//! network's speed limits and report thresholds, and generators are
//! deterministic functions of their seed.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ctup_mogen::{
    CityParams, MovingObjectSim, NodeId, PlaceGenConfig, PlaceGenerator, RoadNetwork, Router,
};
use proptest::prelude::*;

fn city_params() -> impl Strategy<Value = CityParams> {
    (3u32..12, 0.0f64..0.6, 0.0f64..0.9, 1u32..8).prop_map(
        |(blocks, removal, jitter, arterial_every)| CityParams {
            blocks_per_side: blocks,
            removal_rate: removal,
            jitter,
            arterial_every,
            ..CityParams::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn synthetic_cities_are_connected_and_bounded(params in city_params(), seed in 0u64..1000) {
        let net = RoadNetwork::synthetic_city(&params, seed);
        prop_assert!(net.is_connected());
        prop_assert_eq!(net.num_nodes(), (params.blocks_per_side * params.blocks_per_side) as usize);
        let bb = net.bbox();
        prop_assert!(bb.lo.x >= 0.0 && bb.lo.y >= 0.0);
        prop_assert!(bb.hi.x <= 1.0 && bb.hi.y <= 1.0);
        // Every edge length matches its endpoints and every speed is one of
        // the two configured classes.
        for i in 0..net.num_edges() as u32 {
            let e = net.edge(i);
            let d = net.node_pos(e.a).dist(net.node_pos(e.b));
            prop_assert!((e.length - d).abs() < 1e-12);
            prop_assert!(e.speed == params.street_speed || e.speed == params.arterial_speed);
        }
    }

    #[test]
    fn routes_are_valid_walks(params in city_params(), seed in 0u64..500, pairs in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..10)) {
        let net = RoadNetwork::synthetic_city(&params, seed);
        let mut router = Router::new(net.num_nodes());
        for (a, b) in pairs {
            let from = NodeId(a.index(net.num_nodes()) as u32);
            let to = NodeId(b.index(net.num_nodes()) as u32);
            let path = router.shortest_path(&net, from, to);
            let path = path.expect("connected city");
            prop_assert_eq!(*path.first().unwrap(), from);
            prop_assert_eq!(*path.last().unwrap(), to);
            for w in path.windows(2) {
                let adjacent = net
                    .incident(w[0])
                    .iter()
                    .any(|&e| net.other_end(net.edge(e), w[0]) == w[1]);
                prop_assert!(adjacent, "{:?}->{:?} is not an edge", w[0], w[1]);
            }
            // No node repeats on a shortest path.
            let mut seen: Vec<NodeId> = path.clone();
            seen.sort_unstable();
            seen.dedup();
            prop_assert_eq!(seen.len(), path.len(), "cycle in shortest path");
        }
    }

    #[test]
    fn objects_respect_speed_and_threshold(
        seed in 0u64..300,
        num_objects in 1u32..20,
        threshold in 0.0005f64..0.01,
        ticks in 1usize..40,
    ) {
        let params = CityParams::default();
        let net = RoadNetwork::synthetic_city(&params, seed);
        let mut sim = MovingObjectSim::new(net, num_objects, threshold, seed);
        let mut last_reported = sim.reported_positions();
        let dt = 1.0;
        for _ in 0..ticks {
            for u in sim.tick(dt) {
                // Chained from the previous report and past the threshold.
                prop_assert_eq!(u.from, last_reported[u.object as usize]);
                prop_assert!(u.from.dist(u.to) >= threshold);
                last_reported[u.object as usize] = u.to;
            }
            for id in 0..num_objects {
                let p = sim.position(id);
                prop_assert!((0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y));
            }
        }
    }

    #[test]
    fn place_generator_respects_configuration(
        count in 1u32..500,
        rp_min in 0u32..4,
        rp_span in 0u32..6,
        skew in 0.0f64..2.0,
        seed in 0u64..100,
    ) {
        let config = PlaceGenConfig {
            count,
            rp_min,
            rp_max: rp_min + rp_span,
            rp_skew: skew,
            ..PlaceGenConfig::default()
        };
        let a = PlaceGenerator::new(config.clone()).generate(seed);
        let b = PlaceGenerator::new(config).generate(seed);
        prop_assert_eq!(&a, &b, "not deterministic");
        prop_assert_eq!(a.len(), count as usize);
        for (i, p) in a.iter().enumerate() {
            prop_assert_eq!(p.id.0 as usize, i);
            prop_assert!((rp_min..=rp_min + rp_span).contains(&p.rp));
            prop_assert!((0.0..=1.0).contains(&p.pos.x) && (0.0..=1.0).contains(&p.pos.y));
        }
    }
}
