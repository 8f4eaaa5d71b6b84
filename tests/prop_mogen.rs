//! Property-based tests of the workload substrate: synthetic cities are
//! always connected, routes are valid walks, moving objects respect the
//! network's speed limits and report thresholds, and generators are
//! deterministic functions of their seed.
//!
//! Test code: the workspace-wide expect/unwrap denies target library
//! code; panicking on an unexpected fault is exactly what a test should
//! do (clippy's test exemption does not reach integration-test helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

#[path = "support/prop.rs"]
mod prop;

use ctup::mogen::{
    CityParams, MovingObjectSim, NodeId, PlaceGenConfig, PlaceGenerator, RoadNetwork, Router,
};
use prop::{check, Gen};

fn city_params(g: &mut Gen) -> CityParams {
    CityParams {
        blocks_per_side: g.len(3..=11) as u32,
        removal_rate: g.gen_range_f64(0.0..0.6),
        jitter: g.gen_range_f64(0.0..0.9),
        arterial_every: g.gen_range(1..8) as u32,
        ..CityParams::default()
    }
}

#[test]
fn synthetic_cities_are_connected_and_bounded() {
    check(
        "synthetic_cities_are_connected_and_bounded",
        64,
        |g| (city_params(g), g.gen_range(0..1000) as u64),
        |(params, seed)| {
            let net = RoadNetwork::synthetic_city(params, *seed);
            assert!(net.is_connected());
            let side = params.blocks_per_side as usize;
            assert_eq!(net.num_nodes(), side * side);
            let bb = net.bbox();
            assert!(bb.lo.x >= 0.0 && bb.lo.y >= 0.0);
            assert!(bb.hi.x <= 1.0 && bb.hi.y <= 1.0);
            // Every edge length matches its endpoints and every speed is
            // one of the two configured classes.
            for i in 0..net.num_edges() as u32 {
                let e = net.edge(i);
                let d = net.node_pos(e.a).dist(net.node_pos(e.b));
                assert!((e.length - d).abs() < 1e-12);
                assert!(e.speed == params.street_speed || e.speed == params.arterial_speed);
            }
        },
    );
}

#[test]
fn routes_are_valid_walks() {
    check(
        "routes_are_valid_walks",
        64,
        |g| {
            let params = city_params(g);
            let seed = g.gen_range(0..500) as u64;
            let pairs = g.vec(1..=9, |g| (g.next_u64(), g.next_u64()));
            (params, seed, pairs)
        },
        |(params, seed, pairs)| {
            let net = RoadNetwork::synthetic_city(params, *seed);
            let mut router = Router::new(net.num_nodes());
            let node = |r: u64| NodeId((r % net.num_nodes() as u64) as u32);
            for &(a, b) in pairs {
                let (from, to) = (node(a), node(b));
                let path = router.shortest_path(&net, from, to);
                let path = path.expect("connected city");
                assert_eq!(*path.first().unwrap(), from);
                assert_eq!(*path.last().unwrap(), to);
                for w in path.windows(2) {
                    let adjacent = net
                        .incident(w[0])
                        .iter()
                        .any(|&e| net.other_end(net.edge(e), w[0]) == w[1]);
                    assert!(adjacent, "{:?}->{:?} is not an edge", w[0], w[1]);
                }
                // No node repeats on a shortest path.
                let mut seen: Vec<NodeId> = path.clone();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), path.len(), "cycle in shortest path");
            }
        },
    );
}

#[test]
fn objects_respect_speed_and_threshold() {
    check(
        "objects_respect_speed_and_threshold",
        64,
        |g| {
            let seed = g.gen_range(0..300) as u64;
            let num_objects = g.len(1..=19) as u32;
            let threshold = g.gen_range_f64(0.0005..0.01);
            let ticks = g.len(1..=39);
            (seed, num_objects, threshold, ticks)
        },
        |&(seed, num_objects, threshold, ticks)| {
            let params = CityParams::default();
            let net = RoadNetwork::synthetic_city(&params, seed);
            let mut sim = MovingObjectSim::new(net, num_objects, threshold, seed);
            let mut last_reported = sim.reported_positions();
            let dt = 1.0;
            for _ in 0..ticks {
                for u in sim.tick(dt) {
                    // Chained from the previous report and past the
                    // threshold.
                    assert_eq!(u.from, last_reported[u.object as usize]);
                    assert!(u.from.dist(u.to) >= threshold);
                    last_reported[u.object as usize] = u.to;
                }
                for id in 0..num_objects {
                    let p = sim.position(id);
                    assert!((0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y));
                }
            }
        },
    );
}

#[test]
fn place_generator_respects_configuration() {
    check(
        "place_generator_respects_configuration",
        64,
        |g| {
            let rp_min = g.gen_range(0..4) as u32;
            let config = PlaceGenConfig {
                count: g.len(1..=499) as u32,
                rp_min,
                rp_max: rp_min + g.gen_range(0..6) as u32,
                rp_skew: g.gen_range_f64(0.0..2.0),
                ..PlaceGenConfig::default()
            };
            (config, g.gen_range(0..100) as u64)
        },
        |(config, seed)| {
            let a = PlaceGenerator::new(config.clone()).generate(*seed);
            let b = PlaceGenerator::new(config.clone()).generate(*seed);
            assert_eq!(a, b, "not deterministic");
            assert_eq!(a.len(), config.count as usize);
            for (i, p) in a.iter().enumerate() {
                assert_eq!(p.id.0 as usize, i);
                assert!((config.rp_min..=config.rp_max).contains(&p.rp));
                assert!((0.0..=1.0).contains(&p.pos.x) && (0.0..=1.0).contains(&p.pos.y));
            }
        },
    );
}
