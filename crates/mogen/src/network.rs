//! Synthetic road networks.
//!
//! The paper generates its protecting units with the Brinkhoff
//! network-based generator on the Oldenburg road map. That data set is not
//! redistributable, so this module builds a synthetic but structurally
//! comparable city network: a jittered lattice of intersections with a
//! fraction of streets removed, a few fast diagonal arterials, and a
//! connectivity repair pass. All randomness is seeded.

use crate::rng::SeededRng;
use ctup_spatial::{Point, Rect};

/// Identifier of a network node (an intersection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An undirected road segment between two intersections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Euclidean length.
    pub length: f64,
    /// Travel speed on this segment (space units per time unit).
    pub speed: f64,
}

/// An undirected road network embedded in the plane.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    nodes: Vec<Point>,
    edges: Vec<Edge>,
    /// `adjacency[n]` lists indices into `edges` incident to node `n`.
    adjacency: Vec<Vec<u32>>,
}

/// Parameters for [`RoadNetwork::synthetic_city`].
#[derive(Debug, Clone)]
pub struct CityParams {
    /// Intersections per side of the underlying lattice (≥ 2).
    pub blocks_per_side: u32,
    /// Fraction of lattice streets randomly removed before the
    /// connectivity repair (0.0 ..= 0.9).
    pub removal_rate: f64,
    /// Positional jitter of intersections as a fraction of block size.
    pub jitter: f64,
    /// Base street speed.
    pub street_speed: f64,
    /// Speed of arterial roads (every `arterial_every`-th row/column).
    pub arterial_speed: f64,
    /// Period of arterial rows/columns; 0 disables arterials.
    pub arterial_every: u32,
}

impl Default for CityParams {
    fn default() -> Self {
        CityParams {
            blocks_per_side: 16,
            removal_rate: 0.15,
            jitter: 0.25,
            street_speed: 0.02,
            arterial_speed: 0.06,
            arterial_every: 4,
        }
    }
}

/// Union-find used by the connectivity repair pass.
struct DisjointSet {
    parent: Vec<u32>,
}

impl DisjointSet {
    fn new(n: usize) -> Self {
        DisjointSet {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra as usize] = rb;
        true
    }
}

impl RoadNetwork {
    /// Builds a network from explicit nodes and edges.
    ///
    /// # Panics
    /// Panics if an edge references a missing node or has a non-positive
    /// speed.
    pub fn from_parts(nodes: Vec<Point>, edges: Vec<Edge>) -> Self {
        let mut adjacency = vec![Vec::new(); nodes.len()];
        for (i, e) in edges.iter().enumerate() {
            assert!(
                e.a.index() < nodes.len() && e.b.index() < nodes.len(),
                "edge endpoint out of range"
            );
            assert!(e.speed > 0.0, "edge speed must be positive");
            adjacency[e.a.index()].push(i as u32);
            adjacency[e.b.index()].push(i as u32);
        }
        RoadNetwork {
            nodes,
            edges,
            adjacency,
        }
    }

    /// Generates a synthetic city inside the unit square (see module docs).
    /// The result is always connected.
    pub fn synthetic_city(params: &CityParams, seed: u64) -> Self {
        assert!(params.blocks_per_side >= 2, "need at least a 2x2 lattice");
        assert!(
            (0.0..=0.9).contains(&params.removal_rate),
            "removal_rate out of range"
        );
        let n = params.blocks_per_side;
        let mut rng = SeededRng::seed_from_u64(seed);
        let spacing = 1.0 / (n - 1) as f64;
        let jitter = params.jitter * spacing * 0.5;

        // Jittered lattice nodes; boundary nodes stay inside the unit square.
        let mut nodes = Vec::with_capacity((n * n) as usize);
        for row in 0..n {
            for col in 0..n {
                let x = (col as f64 * spacing + rng.gen_range_f64(-jitter..jitter)).clamp(0.0, 1.0);
                let y = (row as f64 * spacing + rng.gen_range_f64(-jitter..jitter)).clamp(0.0, 1.0);
                nodes.push(Point::new(x, y));
            }
        }
        let node_at = |col: u32, row: u32| NodeId(row * n + col);

        let is_arterial =
            |i: u32| params.arterial_every != 0 && i.is_multiple_of(params.arterial_every);
        let mut kept: Vec<(NodeId, NodeId, f64)> = Vec::new();
        let mut removed: Vec<(NodeId, NodeId, f64)> = Vec::new();
        for row in 0..n {
            for col in 0..n {
                let from = node_at(col, row);
                // Horizontal street.
                if col + 1 < n {
                    let speed = if is_arterial(row) {
                        params.arterial_speed
                    } else {
                        params.street_speed
                    };
                    let to = node_at(col + 1, row);
                    if !is_arterial(row) && rng.gen_bool(params.removal_rate) {
                        removed.push((from, to, speed));
                    } else {
                        kept.push((from, to, speed));
                    }
                }
                // Vertical street.
                if row + 1 < n {
                    let speed = if is_arterial(col) {
                        params.arterial_speed
                    } else {
                        params.street_speed
                    };
                    let to = node_at(col, row + 1);
                    if !is_arterial(col) && rng.gen_bool(params.removal_rate) {
                        removed.push((from, to, speed));
                    } else {
                        kept.push((from, to, speed));
                    }
                }
            }
        }

        // Connectivity repair: re-add removed streets that bridge components.
        let mut dsu = DisjointSet::new(nodes.len());
        for &(a, b, _) in &kept {
            dsu.union(a.0, b.0);
        }
        for &(a, b, speed) in &removed {
            if dsu.find(a.0) != dsu.find(b.0) {
                dsu.union(a.0, b.0);
                kept.push((a, b, speed));
            }
        }

        let edges = kept
            .into_iter()
            .map(|(a, b, speed)| Edge {
                a,
                b,
                length: nodes[a.index()].dist(nodes[b.index()]),
                speed,
            })
            .collect();
        RoadNetwork::from_parts(nodes, edges)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Position of a node.
    #[inline]
    pub fn node_pos(&self, node: NodeId) -> Point {
        self.nodes[node.index()]
    }

    /// The edges incident to `node` as indices into [`RoadNetwork::edge`].
    #[inline]
    pub fn incident(&self, node: NodeId) -> &[u32] {
        &self.adjacency[node.index()]
    }

    /// Edge by index.
    #[inline]
    pub fn edge(&self, idx: u32) -> &Edge {
        &self.edges[idx as usize]
    }

    /// The endpoint of `edge` that is not `from`.
    #[inline]
    pub fn other_end(&self, edge: &Edge, from: NodeId) -> NodeId {
        if edge.a == from {
            edge.b
        } else {
            debug_assert_eq!(edge.b, from);
            edge.a
        }
    }

    /// Bounding box of all nodes.
    pub fn bbox(&self) -> Rect {
        self.nodes
            .iter()
            .fold(Rect::empty(), |acc, &p| acc.union(&Rect::point(p)))
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(node) = stack.pop() {
            for &e in self.incident(node) {
                let next = self.other_end(self.edge(e), node);
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    count += 1;
                    stack.push(next);
                }
            }
        }
        count == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_city_is_connected_and_in_unit_square() {
        for seed in 0..5 {
            let net = RoadNetwork::synthetic_city(&CityParams::default(), seed);
            assert!(net.is_connected(), "seed {seed}");
            assert_eq!(net.num_nodes(), 256);
            assert!(net.num_edges() > 256, "too sparse: {}", net.num_edges());
            let bb = net.bbox();
            assert!(bb.lo.x >= 0.0 && bb.lo.y >= 0.0 && bb.hi.x <= 1.0 && bb.hi.y <= 1.0);
        }
    }

    #[test]
    fn synthetic_city_is_deterministic_per_seed() {
        let a = RoadNetwork::synthetic_city(&CityParams::default(), 42);
        let b = RoadNetwork::synthetic_city(&CityParams::default(), 42);
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.node_pos(NodeId(17)), b.node_pos(NodeId(17)));
        let c = RoadNetwork::synthetic_city(&CityParams::default(), 43);
        assert_ne!(a.node_pos(NodeId(17)), c.node_pos(NodeId(17)));
    }

    #[test]
    fn removal_rate_thins_the_grid() {
        let dense = RoadNetwork::synthetic_city(
            &CityParams {
                removal_rate: 0.0,
                ..CityParams::default()
            },
            1,
        );
        let sparse = RoadNetwork::synthetic_city(
            &CityParams {
                removal_rate: 0.5,
                ..CityParams::default()
            },
            1,
        );
        assert!(sparse.num_edges() < dense.num_edges());
        assert!(sparse.is_connected());
    }

    #[test]
    fn arterials_are_faster() {
        let net = RoadNetwork::synthetic_city(&CityParams::default(), 7);
        let speeds: Vec<f64> = (0..net.num_edges() as u32)
            .map(|i| net.edge(i).speed)
            .collect();
        assert!(speeds.contains(&0.02));
        assert!(speeds.contains(&0.06));
    }

    #[test]
    fn edge_lengths_match_geometry() {
        let net = RoadNetwork::synthetic_city(&CityParams::default(), 3);
        for i in 0..net.num_edges() as u32 {
            let e = net.edge(i);
            let expect = net.node_pos(e.a).dist(net.node_pos(e.b));
            assert!((e.length - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn from_parts_builds_adjacency() {
        let nodes = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
        ];
        let edges = vec![
            Edge {
                a: NodeId(0),
                b: NodeId(1),
                length: 1.0,
                speed: 1.0,
            },
            Edge {
                a: NodeId(1),
                b: NodeId(2),
                length: 1.0,
                speed: 1.0,
            },
        ];
        let net = RoadNetwork::from_parts(nodes, edges);
        assert_eq!(net.incident(NodeId(1)), &[0, 1]);
        assert_eq!(net.other_end(net.edge(0), NodeId(0)), NodeId(1));
        assert_eq!(net.other_end(net.edge(0), NodeId(1)), NodeId(0));
        assert!(net.is_connected());
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn from_parts_rejects_dangling_edges() {
        RoadNetwork::from_parts(
            vec![Point::new(0.0, 0.0)],
            vec![Edge {
                a: NodeId(0),
                b: NodeId(5),
                length: 1.0,
                speed: 1.0,
            }],
        );
    }
}
