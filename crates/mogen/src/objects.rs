//! Network-constrained moving objects (the protecting units).
//!
//! Objects spawn on random intersections, route to random destinations along
//! travel-time shortest paths, and re-target on arrival — the behaviour of
//! the Brinkhoff generator. An object reports a location update once it has
//! moved at least `report_threshold` away from its previously reported
//! position, matching the paper's "e.g. one meter away from the location
//! reported previously" update policy.

use crate::network::{NodeId, RoadNetwork};
use crate::rng::SeededRng;
use crate::route::Router;
use ctup_spatial::Point;

/// A location update emitted by a moving object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionUpdate {
    /// The reporting object (0-based, dense).
    pub object: u32,
    /// Previously reported position.
    pub from: Point,
    /// Newly reported position.
    pub to: Point,
}

#[derive(Debug)]
struct ObjectState {
    /// Last node reached.
    at: NodeId,
    /// Exact current position (between `at` and `path.last()`).
    pos: Point,
    /// Position last reported to the server.
    reported: Point,
    /// Remaining route, reversed so the next node is `path.last()`.
    path: Vec<NodeId>,
}

/// Simulates a fleet of objects moving on a road network.
#[derive(Debug)]
pub struct MovingObjectSim {
    net: RoadNetwork,
    router: Router,
    rng: SeededRng,
    objects: Vec<ObjectState>,
    report_threshold: f64,
}

impl MovingObjectSim {
    /// Spawns `num_objects` objects on random intersections of `net`.
    ///
    /// `report_threshold` is the minimum displacement from the previously
    /// reported position before a new update is emitted.
    pub fn new(net: RoadNetwork, num_objects: u32, report_threshold: f64, seed: u64) -> Self {
        assert!(net.num_nodes() > 1, "network too small");
        assert!(report_threshold >= 0.0);
        let mut rng = SeededRng::seed_from_u64(seed);
        let objects = (0..num_objects)
            .map(|_| {
                let at = NodeId(rng.gen_range(0..net.num_nodes()) as u32);
                let pos = net.node_pos(at);
                ObjectState {
                    at,
                    pos,
                    reported: pos,
                    path: Vec::new(),
                }
            })
            .collect();
        let router = Router::new(net.num_nodes());
        MovingObjectSim {
            net,
            router,
            rng,
            objects,
            report_threshold,
        }
    }

    /// Number of simulated objects.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Current (not necessarily reported) position of an object.
    pub fn position(&self, object: u32) -> Point {
        self.objects[object as usize].pos
    }

    /// Initial/reported positions of all objects, in id order.
    pub fn reported_positions(&self) -> Vec<Point> {
        self.objects.iter().map(|o| o.reported).collect()
    }

    /// The underlying network.
    pub fn network(&self) -> &RoadNetwork {
        &self.net
    }

    fn pick_new_route(
        net: &RoadNetwork,
        router: &mut Router,
        rng: &mut SeededRng,
        from: NodeId,
    ) -> Vec<NodeId> {
        // The synthetic city is connected, but guard against pathological
        // custom networks by retrying a few destinations.
        for _ in 0..16 {
            let dest = NodeId(rng.gen_range(0..net.num_nodes()) as u32);
            if dest == from {
                continue;
            }
            if let Some(path) = router.shortest_path(net, from, dest) {
                let mut rest: Vec<NodeId> = path[1..].to_vec();
                rest.reverse(); // next hop at the back
                return rest;
            }
        }
        Vec::new() // isolated node: the object stays put
    }

    fn speed_between(net: &RoadNetwork, a: NodeId, b: NodeId) -> f64 {
        for &e in net.incident(a) {
            let edge = net.edge(e);
            if net.other_end(edge, a) == b {
                return edge.speed;
            }
        }
        unreachable!("route uses a non-edge {a:?} -> {b:?}")
    }

    /// Advances every object by `dt` time units and returns the location
    /// updates triggered by the movement, in object-id order.
    pub fn tick(&mut self, dt: f64) -> Vec<PositionUpdate> {
        assert!(dt > 0.0, "dt must be positive");
        let mut updates = Vec::new();
        for (id, obj) in self.objects.iter_mut().enumerate() {
            let mut remaining = dt;
            // Bounded number of segment hops per tick as a safety net
            // against degenerate zero-length routes.
            for _ in 0..1024 {
                if remaining <= 0.0 {
                    break;
                }
                if obj.path.is_empty() {
                    obj.path =
                        Self::pick_new_route(&self.net, &mut self.router, &mut self.rng, obj.at);
                    if obj.path.is_empty() {
                        break; // isolated node
                    }
                }
                let Some(&target) = obj.path.last() else {
                    break;
                };
                let target_pos = self.net.node_pos(target);
                let speed = Self::speed_between(&self.net, obj.at, target);
                let dist = obj.pos.dist(target_pos);
                let needed = dist / speed;
                if needed <= remaining {
                    obj.pos = target_pos;
                    obj.at = target;
                    obj.path.pop();
                    remaining -= needed;
                } else {
                    obj.pos = obj.pos.lerp(target_pos, remaining * speed / dist);
                    remaining = 0.0;
                }
            }
            if obj.pos.dist(obj.reported) >= self.report_threshold {
                updates.push(PositionUpdate {
                    object: id as u32,
                    from: obj.reported,
                    to: obj.pos,
                });
                obj.reported = obj.pos;
            }
        }
        updates
    }

    /// Ticks the simulation until at least `n` updates have been produced
    /// and returns exactly `n` of them.
    pub fn collect_updates(&mut self, n: usize, dt: f64) -> Vec<PositionUpdate> {
        let mut out = Vec::with_capacity(n);
        // Give up after a generous number of ticks (e.g. everything
        // stationary because the threshold is huge).
        let mut idle_ticks = 0;
        while out.len() < n && idle_ticks < 100_000 {
            let batch = self.tick(dt);
            if batch.is_empty() {
                idle_ticks += 1;
            } else {
                idle_ticks = 0;
            }
            out.extend(batch);
        }
        out.truncate(n);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::CityParams;

    fn sim(seed: u64) -> MovingObjectSim {
        let net = RoadNetwork::synthetic_city(&CityParams::default(), seed);
        MovingObjectSim::new(net, 20, 0.002, seed)
    }

    #[test]
    fn updates_are_consistent_chains() {
        let mut s = sim(1);
        let mut last_reported: Vec<Point> = s.reported_positions();
        for _ in 0..50 {
            for u in s.tick(1.0) {
                // Every update's `from` must equal the previous `to`.
                assert_eq!(u.from, last_reported[u.object as usize]);
                assert!(u.from.dist(u.to) >= 0.002);
                last_reported[u.object as usize] = u.to;
            }
        }
    }

    #[test]
    fn objects_stay_in_unit_square() {
        let mut s = sim(2);
        for _ in 0..100 {
            s.tick(1.0);
        }
        for id in 0..s.num_objects() as u32 {
            let p = s.position(id);
            assert!(
                (0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y),
                "{p:?}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = sim(3);
        let mut b = sim(3);
        for _ in 0..20 {
            assert_eq!(a.tick(0.7), b.tick(0.7));
        }
        let mut c = sim(4);
        let ticks_a: Vec<_> = (0..20).flat_map(|_| a.tick(0.7)).collect();
        let ticks_c: Vec<_> = (0..20).flat_map(|_| c.tick(0.7)).collect();
        assert_ne!(ticks_a, ticks_c);
    }

    #[test]
    fn collect_updates_returns_exactly_n() {
        let mut s = sim(5);
        let updates = s.collect_updates(500, 1.0);
        assert_eq!(updates.len(), 500);
    }

    #[test]
    fn objects_actually_move() {
        let mut s = sim(6);
        let before = s.reported_positions();
        s.collect_updates(100, 1.0);
        let after = s.reported_positions();
        let moved = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert!(moved > s.num_objects() / 2, "only {moved} objects moved");
    }

    #[test]
    fn huge_threshold_suppresses_updates() {
        let net = RoadNetwork::synthetic_city(&CityParams::default(), 9);
        let mut s = MovingObjectSim::new(net, 5, 100.0, 9);
        for _ in 0..20 {
            assert!(s.tick(1.0).is_empty());
        }
    }

    #[test]
    fn displacement_per_tick_is_bounded_by_fastest_edge() {
        let mut s = sim(8);
        let mut prev: Vec<Point> = (0..s.num_objects() as u32).map(|i| s.position(i)).collect();
        for _ in 0..50 {
            s.tick(1.0);
            for id in 0..s.num_objects() as u32 {
                let p = s.position(id);
                // Straight-line displacement cannot exceed time * max speed.
                assert!(p.dist(prev[id as usize]) <= 0.06 + 1e-9);
                prev[id as usize] = p;
            }
        }
    }
}
