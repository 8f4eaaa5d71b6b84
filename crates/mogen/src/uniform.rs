//! A non-network movement model.
//!
//! Used by tests as an alternative to the road-network simulation: a
//! teleport model (adversarial — every update is a jump to a fresh uniform
//! position, maximally stressing lower-bound maintenance).

use crate::objects::PositionUpdate;
use crate::rng::SeededRng;
use ctup_spatial::Point;

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
        let mut t1 = TeleportSim::new(4, 9);
        let mut t2 = TeleportSim::new(4, 9);
        assert_eq!(t1.collect_updates(10), t2.collect_updates(10));
    }
}
