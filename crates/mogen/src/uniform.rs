//! Simple non-network movement models.
//!
//! Used by tests and ablations as alternatives to the road-network
//! simulation: a random-waypoint model (smooth, locality-preserving) and a
//! teleport model (adversarial — every update is a jump to a fresh uniform
//! position, maximally stressing lower-bound maintenance).

use crate::objects::PositionUpdate;
use crate::rng::SeededRng;
use ctup_spatial::Point;

/// Random-waypoint movement in the unit square: each object walks straight
/// towards a uniformly random target at a fixed speed and re-targets on
/// arrival. Every tick emits one update per object that moved beyond the
/// report threshold.
#[derive(Debug)]
pub struct RandomWaypointSim {
    rng: SeededRng,
    pos: Vec<Point>,
    reported: Vec<Point>,
    target: Vec<Point>,
    speed: f64,
    report_threshold: f64,
}

impl RandomWaypointSim {
    /// Spawns `num_objects` objects uniformly at random.
    pub fn new(num_objects: u32, speed: f64, report_threshold: f64, seed: u64) -> Self {
        assert!(speed > 0.0);
        let mut rng = SeededRng::seed_from_u64(seed);
        let pos: Vec<Point> = (0..num_objects)
            .map(|_| Point::new(rng.gen_f64(), rng.gen_f64()))
            .collect();
        let target: Vec<Point> = (0..num_objects)
            .map(|_| Point::new(rng.gen_f64(), rng.gen_f64()))
            .collect();
        RandomWaypointSim {
            rng,
            reported: pos.clone(),
            pos,
            target,
            speed,
            report_threshold,
        }
    }

    /// Current reported positions, in object order.
    pub fn reported_positions(&self) -> Vec<Point> {
        self.reported.clone()
    }

    /// Advances by `dt` and returns triggered updates.
    pub fn tick(&mut self, dt: f64) -> Vec<PositionUpdate> {
        let mut updates = Vec::new();
        for i in 0..self.pos.len() {
            let mut remaining = dt * self.speed;
            while remaining > 0.0 {
                let dist = self.pos[i].dist(self.target[i]);
                if dist <= remaining {
                    self.pos[i] = self.target[i];
                    remaining -= dist;
                    self.target[i] = Point::new(self.rng.gen_f64(), self.rng.gen_f64());
                } else {
                    self.pos[i] = self.pos[i].lerp(self.target[i], remaining / dist);
                    remaining = 0.0;
                }
            }
            if self.pos[i].dist(self.reported[i]) >= self.report_threshold {
                updates.push(PositionUpdate {
                    object: i as u32,
                    from: self.reported[i],
                    to: self.pos[i],
                });
                self.reported[i] = self.pos[i];
            }
        }
        updates
    }

    /// Collects exactly `n` updates.
    pub fn collect_updates(&mut self, n: usize, dt: f64) -> Vec<PositionUpdate> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            out.extend(self.tick(dt));
        }
        out.truncate(n);
        out
    }
}

/// Teleport movement: each update moves a round-robin-chosen object to a
/// fresh uniform position. No spatial locality at all — the worst case for
/// any scheme exploiting small per-update displacement.
#[derive(Debug)]
pub struct TeleportSim {
    rng: SeededRng,
    pos: Vec<Point>,
    next: usize,
}

impl TeleportSim {
    /// Spawns `num_objects` objects uniformly at random.
    pub fn new(num_objects: u32, seed: u64) -> Self {
        let mut rng = SeededRng::seed_from_u64(seed);
        let pos = (0..num_objects)
            .map(|_| Point::new(rng.gen_f64(), rng.gen_f64()))
            .collect();
        TeleportSim { rng, pos, next: 0 }
    }

    /// Current positions, in object order.
    pub fn positions(&self) -> Vec<Point> {
        self.pos.clone()
    }

    /// Produces the next teleport update.
    pub fn next_update(&mut self) -> PositionUpdate {
        let i = self.next;
        self.next = (self.next + 1) % self.pos.len();
        let from = self.pos[i];
        let to = Point::new(self.rng.gen_f64(), self.rng.gen_f64());
        self.pos[i] = to;
        PositionUpdate {
            object: i as u32,
            from,
            to,
        }
    }

    /// Collects exactly `n` updates.
    pub fn collect_updates(&mut self, n: usize) -> Vec<PositionUpdate> {
        (0..n).map(|_| self.next_update()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waypoint_objects_stay_in_square_and_move() {
        let mut sim = RandomWaypointSim::new(10, 0.05, 0.001, 1);
        let before = sim.reported_positions();
        let updates = sim.collect_updates(100, 1.0);
        assert_eq!(updates.len(), 100);
        for u in &updates {
            assert!((0.0..=1.0).contains(&u.to.x) && (0.0..=1.0).contains(&u.to.y));
        }
        assert_ne!(before, sim.reported_positions());
    }

    #[test]
    fn waypoint_chains_are_consistent() {
        let mut sim = RandomWaypointSim::new(5, 0.1, 0.01, 2);
        let mut last = sim.reported_positions();
        for _ in 0..30 {
            for u in sim.tick(1.0) {
                assert_eq!(u.from, last[u.object as usize]);
                last[u.object as usize] = u.to;
            }
        }
    }

    #[test]
    fn teleport_is_round_robin_and_chained() {
        let mut sim = TeleportSim::new(3, 3);
        let mut last = sim.positions();
        for (i, u) in sim.collect_updates(12).into_iter().enumerate() {
            assert_eq!(u.object as usize, i % 3);
            assert_eq!(u.from, last[u.object as usize]);
            last[u.object as usize] = u.to;
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = RandomWaypointSim::new(4, 0.05, 0.0, 9).collect_updates(20, 1.0);
        let b = RandomWaypointSim::new(4, 0.05, 0.0, 9).collect_updates(20, 1.0);
        assert_eq!(a, b);
        let mut t1 = TeleportSim::new(4, 9);
        let mut t2 = TeleportSim::new(4, 9);
        assert_eq!(t1.collect_updates(10), t2.collect_updates(10));
    }
}
