//! Ready-made experiment workloads bundling places, units and update
//! streams, including the paper's Table III default configuration.

use crate::network::{CityParams, RoadNetwork};
use crate::objects::{MovingObjectSim, PositionUpdate};
use crate::places::{PlaceGenConfig, PlaceGenerator};
use ctup_spatial::Point;
use ctup_storage::PlaceRecord;

/// Parameters of a complete workload.
#[derive(Debug, Clone)]
pub struct WorkloadParams {
    /// Number of protecting units `|U|` (Table III default: 150).
    pub num_units: u32,
    /// Place generation (Table III default count: 15 000).
    pub places: PlaceGenConfig,
    /// Road network for the units.
    pub city: CityParams,
    /// Report threshold for unit updates.
    pub report_threshold: f64,
    /// Simulation time step between reporting rounds.
    pub tick_dt: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for WorkloadParams {
    /// The paper's default experimental setting (Table III): 150 units and
    /// 15 000 places on a unit-square city.
    fn default() -> Self {
        WorkloadParams {
            num_units: 150,
            places: PlaceGenConfig::default(),
            city: CityParams::default(),
            report_threshold: 0.002,
            tick_dt: 1.0,
            seed: 0xC7_u64,
        }
    }
}

/// A generated workload: the static place set, the initial unit positions,
/// and a deterministic stream of location updates.
#[derive(Debug)]
pub struct Workload {
    params: WorkloadParams,
    places: Vec<PlaceRecord>,
    sim: MovingObjectSim,
}

impl Workload {
    /// Generates the workload for `params`.
    pub fn generate(params: WorkloadParams) -> Self {
        let places = PlaceGenerator::new(params.places.clone()).generate(params.seed);
        let net = RoadNetwork::synthetic_city(&params.city, params.seed.wrapping_add(1));
        let sim = MovingObjectSim::new(
            net,
            params.num_units,
            params.report_threshold,
            params.seed.wrapping_add(2),
        );
        Workload {
            params,
            places,
            sim,
        }
    }

    /// The paper's Table III defaults with the given seed.
    pub fn paper_default(seed: u64) -> Self {
        Workload::generate(WorkloadParams {
            seed,
            ..WorkloadParams::default()
        })
    }

    /// The parameters this workload was generated from.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// The place set.
    pub fn places(&self) -> &[PlaceRecord] {
        &self.places
    }

    /// Takes ownership of the place set (the store builders want a `Vec`).
    pub fn places_vec(&self) -> Vec<PlaceRecord> {
        self.places.clone()
    }

    /// Current reported unit positions in unit-id order (the server's
    /// initial view).
    pub fn unit_positions(&self) -> Vec<Point> {
        self.sim.reported_positions()
    }

    /// Produces the next `n` location updates of the stream.
    pub fn next_updates(&mut self, n: usize) -> Vec<PositionUpdate> {
        let dt = self.params.tick_dt;
        self.sim.collect_updates(n, dt)
    }

    /// Access to the underlying simulation (for examples that want to draw
    /// or inspect the fleet).
    pub fn sim(&self) -> &MovingObjectSim {
        &self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_iii() {
        let w = Workload::paper_default(1);
        assert_eq!(w.params().num_units, 150);
        assert_eq!(w.places().len(), 15_000);
        assert_eq!(w.unit_positions().len(), 150);
    }

    #[test]
    fn update_stream_is_deterministic() {
        let mut a = Workload::paper_default(5);
        let mut b = Workload::paper_default(5);
        assert_eq!(a.places(), b.places());
        assert_eq!(a.unit_positions(), b.unit_positions());
        assert_eq!(a.next_updates(200), b.next_updates(200));
    }

    /// The Table III stream for seed 199 as PR 15's tree generated it when
    /// built against `ledger/stubs/rand` — the stream the ledger's
    /// baselines were taken under. If this moves, every ledger workload
    /// has become a different function of its seed.
    #[test]
    fn table_iii_stream_is_the_ledgers() {
        let mut w = Workload::paper_default(199);
        let places: Vec<(f64, f64, u32)> = w.places()[..8]
            .iter()
            .map(|p| (p.pos.x, p.pos.y, p.rp))
            .collect();
        assert_eq!(
            places,
            [
                (0.6694361090978945, 0.1546368100332527, 3),
                (0.6492882759252708, 0.2846149713613806, 6),
                (0.3029204094984137, 0.7074715280432434, 1),
                (0.9678000189142686, 0.8299687664271352, 4),
                (0.37113783081882035, 0.7809659996257178, 7),
                (0.35827482030436886, 0.06882779930856553, 2),
                (0.6183794442394511, 0.12044058193125706, 6),
                (0.5293140903089844, 0.8334347295189678, 2),
            ]
        );
        let updates: Vec<(u32, [f64; 4])> = w
            .next_updates(8)
            .iter()
            .map(|u| (u.object, [u.from.x, u.from.y, u.to.x, u.to.y]))
            .collect();
        #[rustfmt::skip]
        let golden = [
            (0, [1.0, 0.4047757890349347, 0.9975491091211699, 0.4246250493209017]),
            (1, [0.00369975111657698, 0.2683371720973609, 0.00012311265197449635, 0.32821497670863803]),
            (2, [0.19224624447582256, 0.46008357069667793, 0.21209385221319002, 0.46254780832799347]),
            (3, [0.2606826844776284, 0.0635922437687277, 0.26855330791717713, 0.12307378112842299]),
            (4, [0.46167072905760376, 0.7300343200940489, 0.4816353996345506, 0.7288460740109529]),
            (5, [0.9380922630006548, 0.5319562081779937, 0.8783961862717179, 0.5379876610023858]),
            (6, [0.19318001306997243, 0.6711151319270341, 0.21303765803185903, 0.6687331292889879]),
            (7, [0.39801275293012983, 0.13130910632587742, 0.4179592365187284, 0.1298469871618668]),
        ];
        assert_eq!(updates, golden);
    }

    #[test]
    fn smaller_workloads_generate_quickly() {
        let params = WorkloadParams {
            num_units: 10,
            places: PlaceGenConfig {
                count: 100,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut w = Workload::generate(params);
        let updates = w.next_updates(50);
        assert_eq!(updates.len(), 50);
        for u in &updates {
            assert!(u.object < 10);
        }
    }
}
