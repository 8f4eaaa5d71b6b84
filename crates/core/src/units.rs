//! The server-side unit table: last reported positions plus a grid index
//! for counting protectors.

use crate::types::{protects, LocationUpdate, Place, Safety, Unit, UnitId};
use ctup_spatial::{convert, Circle, Grid, Point, Rect, UnitGridIndex};

/// Positions of all units with a grid index for `AP(p)` computation.
#[derive(Debug)]
pub struct UnitTable {
    positions: Vec<Point>,
    index: UnitGridIndex<u32>,
    radius: f64,
    /// Scratch for [`UnitTable::cell_safeties`]: the positions of the units
    /// that can protect some place of the cell being computed, the records'
    /// coordinates as two columns, and each record's protector count (as
    /// wide as a coordinate, so the counting loop needs no lane narrowing).
    near: Vec<Point>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    counts: Vec<u64>,
}

impl UnitTable {
    /// Creates the table with every unit at its initial position.
    pub fn new(grid: Grid, initial: &[Point], radius: f64) -> Self {
        assert!(radius > 0.0, "protection radius must be positive");
        let mut index = UnitGridIndex::new(grid);
        for (i, &p) in initial.iter().enumerate() {
            index.insert(convert::id32(i), p);
        }
        UnitTable {
            positions: initial.to_vec(),
            index,
            radius,
            near: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether there are no units.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The protection range shared by all units.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Last reported position of `unit`.
    pub fn position(&self, unit: UnitId) -> Point {
        self.positions[unit.index()]
    }

    /// The protecting region of `unit`.
    pub fn region(&self, unit: UnitId) -> Circle {
        Circle::new(self.position(unit), self.radius)
    }

    /// Applies a location update and returns the previous position.
    pub fn apply(&mut self, update: LocationUpdate) -> Point {
        let old = self.positions[update.unit.index()];
        self.index.relocate(update.unit.0, old, update.new);
        self.positions[update.unit.index()] = update.new;
        old
    }

    /// Actual protection `AP(p)`: the number of units protecting `place`.
    pub fn ap(&self, place: &Place) -> u32 {
        match &place.extent {
            None => self
                .index
                .count_within(&Circle::new(place.pos, self.radius)),
            Some(_) => {
                // A unit containing the whole extent is in particular within
                // `radius` of `pos`, so the probe circle is a superset.
                let mut n = 0;
                self.index
                    .for_each_within(&Circle::new(place.pos, self.radius), |_, unit_pos| {
                        if protects(unit_pos, self.radius, place) {
                            n += 1;
                        }
                    });
                n
            }
        }
    }

    /// Current safety of `place`: `AP(p) − RP(p)`.
    pub fn safety(&self, place: &Place) -> Safety {
        self.ap(place) as Safety - place.rp as Safety
    }

    /// The safeties of `records`, in order, written into `out` — the
    /// whole-cell form of [`UnitTable::safety`], with equal results.
    ///
    /// The unit buckets are visited once per call, not once per place: the
    /// units in every bucket overlapping the records' bounding box inflated
    /// by the radius are gathered into a short list, and each place counts
    /// its protectors against that list. The probe is a box rather than a
    /// set of circles so that units outside the grid's space, which
    /// `Grid::cell_of` clamps into boundary buckets, are gathered too.
    ///
    /// A gathered unit farther than the radius from the box is skipped: no
    /// place inside the box is closer to it than the box is, and rounding
    /// is monotone, so the skip drops no protector. The rest are counted
    /// unit by unit in one branch-free pass over the records' coordinate
    /// columns, with the same `dx·dx + dy·dy <= R²` that `Point::dist2`
    /// evaluates. An extended place then recounts with the exact test
    /// `ap` makes.
    pub fn cell_safeties(&mut self, records: &[Place], out: &mut Vec<Safety>) {
        out.clear();
        self.near.clear();
        self.xs.clear();
        self.ys.clear();
        if records.is_empty() {
            return;
        }
        self.xs.extend(records.iter().map(|r| r.pos.x));
        self.ys.extend(records.iter().map(|r| r.pos.y));
        // Plain comparisons: `f64::min`/`max` would add NaN handling to
        // every step of the running bounds.
        let mut bbox = Rect::empty();
        for (&x, &y) in self.xs.iter().zip(&self.ys) {
            bbox.lo.x = if x < bbox.lo.x { x } else { bbox.lo.x };
            bbox.lo.y = if y < bbox.lo.y { y } else { bbox.lo.y };
            bbox.hi.x = if x > bbox.hi.x { x } else { bbox.hi.x };
            bbox.hi.y = if y > bbox.hi.y { y } else { bbox.hi.y };
        }
        let (radius, r2) = (self.radius, self.radius * self.radius);
        let grid = self.index.grid();
        for cell in grid.cells_overlapping_rect(&bbox.inflate(radius)) {
            self.index.for_each_in_cell(cell, |_, pos| {
                if bbox.min_dist2(pos) <= r2 {
                    self.near.push(pos);
                }
            });
        }
        self.counts.clear();
        self.counts.resize(records.len(), 0);
        let (xs, ys, counts) = (&self.xs, &self.ys, &mut self.counts);
        for u in &self.near {
            for ((count, &x), &y) in counts.iter_mut().zip(xs).zip(ys) {
                let (dx, dy) = (x - u.x, y - u.y);
                *count += u64::from(dx * dx + dy * dy <= r2);
            }
        }
        let near = &self.near;
        out.extend(records.iter().zip(counts.iter()).map(|(place, &count)| {
            #[expect(
                clippy::cast_possible_wrap,
                reason = "a unit count is far below i64::MAX"
            )]
            let ap = match place.extent {
                None => count as Safety,
                // The same two tests `ap` makes: within the radius of `pos`,
                // and containing the whole extent.
                Some(_) => near
                    .iter()
                    .filter(|u| place.pos.dist2(**u) <= r2)
                    .filter(|&&u| protects(u, radius, place))
                    .count() as Safety,
            };
            ap - Safety::from(place.rp)
        }));
    }

    /// Iterates all units in id order.
    pub fn iter(&self) -> impl Iterator<Item = Unit> + '_ {
        self.positions.iter().enumerate().map(|(i, &pos)| Unit {
            id: UnitId(convert::id32(i)),
            pos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PlaceId;
    use ctup_spatial::Rect;

    fn table() -> UnitTable {
        let grid = Grid::unit_square(10);
        let initial = vec![
            Point::new(0.50, 0.50),
            Point::new(0.55, 0.50),
            Point::new(0.90, 0.90),
        ];
        UnitTable::new(grid, &initial, 0.1)
    }

    #[test]
    fn ap_counts_units_in_range() {
        let t = table();
        let p = Place::point(PlaceId(0), Point::new(0.52, 0.50), 1);
        assert_eq!(t.ap(&p), 2);
        assert_eq!(t.safety(&p), 1);
        let far = Place::point(PlaceId(1), Point::new(0.1, 0.1), 3);
        assert_eq!(t.ap(&far), 0);
        assert_eq!(t.safety(&far), -3);
    }

    #[test]
    fn apply_moves_unit_and_returns_old() {
        let mut t = table();
        let old = t.apply(LocationUpdate {
            unit: UnitId(2),
            new: Point::new(0.52, 0.52),
        });
        assert_eq!(old, Point::new(0.90, 0.90));
        assert_eq!(t.position(UnitId(2)), Point::new(0.52, 0.52));
        let p = Place::point(PlaceId(0), Point::new(0.52, 0.50), 0);
        assert_eq!(t.ap(&p), 3);
    }

    #[test]
    fn extended_place_requires_containment() {
        let t = table();
        // Extent around (0.52, 0.50): unit 0 at dist 0.02, unit 1 at 0.03.
        let extent = Rect::from_coords(0.47, 0.45, 0.57, 0.55);
        let p = Place::extended(PlaceId(0), Point::new(0.52, 0.50), 1, extent);
        // Far corner of the extent is ~0.073 from unit 0 and ~0.054 from
        // unit 1; both contain it within 0.1? corner (0.57,0.55) from
        // (0.5,0.5): 0.086; from (0.55,0.5): 0.054; corner (0.47,0.45) from
        // (0.55,0.5): 0.094. All corners within 0.1 of both units.
        assert_eq!(t.ap(&p), 2);
        // Shrink the radius: containment fails though centers are close.
        let t2 = UnitTable::new(
            Grid::unit_square(10),
            &[Point::new(0.50, 0.50), Point::new(0.55, 0.50)],
            0.05,
        );
        assert_eq!(t2.ap(&p), 0);
    }

    /// `cell_safeties` is `safety` computed for a whole cell at once: for
    /// every cell of seeded inputs it must agree place by place, including
    /// extended places whose extent crosses the cell edge, places and units
    /// exactly on cell boundaries, and units outside the unit square.
    #[test]
    fn cell_safeties_match_per_place_safety() {
        use ctup_storage::{CellLocalStore, PlaceStore};
        let (n_units, n_places) = if cfg!(miri) { (12, 40) } else { (80, 400) };
        let mut state = 0x31u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut out = Vec::new();
        for g in [1u32, 4, 10] {
            let edge = |i: f64| i / f64::from(g);
            for radius in [0.03, 0.1, 0.35] {
                // Units anywhere in [-0.2, 1.2)², then some exactly on cell
                // boundaries and corners.
                let mut units: Vec<Point> = (0..n_units)
                    .map(|_| Point::new(next() * 1.4 - 0.2, next() * 1.4 - 0.2))
                    .collect();
                for i in 0..=g {
                    let b = edge(f64::from(i));
                    units.push(Point::new(b, next()));
                    units.push(Point::new(next(), b));
                    units.push(Point::new(b, b));
                }
                let mut places = Vec::new();
                let mut add = |pos: Point, rp: u32, extent: Option<Rect>| {
                    let id = PlaceId(convert::id32(places.len()));
                    places.push(match extent {
                        None => Place::point(id, pos, rp),
                        Some(extent) => Place::extended(id, pos, rp, extent),
                    });
                };
                for _ in 0..n_places {
                    let pos = Point::new(next(), next());
                    let rp = (next() * 4.0) as u32;
                    add(pos, rp, None);
                }
                // On boundaries and corners, including the space's own
                // edges, where `cell_of` clamps.
                for i in 0..=g {
                    let b = edge(f64::from(i));
                    add(Point::new(b, next()), 1, None);
                    add(Point::new(next(), b), 1, None);
                    add(Point::new(b, b), 2, None);
                }
                // Extended places centred on a vertical cell edge, so the
                // extent reaches into the neighbouring cell.
                for i in 0..=g {
                    let pos = Point::new(edge(f64::from(i)), next());
                    let (hw, hh) = (next() * radius, next() * radius);
                    let extent = Rect::from_coords(
                        (pos.x - hw).max(0.0),
                        (pos.y - hh).max(0.0),
                        (pos.x + hw).min(1.0),
                        (pos.y + hh).min(1.0),
                    );
                    add(pos, 1, Some(extent));
                }
                let grid = Grid::unit_square(g);
                let mut table = UnitTable::new(grid.clone(), &units, radius);
                let store = CellLocalStore::build(grid.clone(), places);
                for cell in grid.cells() {
                    let records = store.read_cell(cell).expect("memory read");
                    table.cell_safeties(&records, &mut out);
                    let expected: Vec<Safety> = records.iter().map(|p| table.safety(p)).collect();
                    assert_eq!(out, expected, "g {g}, R {radius}, {cell:?}");
                    // Units exactly R from the records' box: off each edge
                    // level with the record that spans it, and off each
                    // corner along both axes and along a 3-4-5 diagonal,
                    // each also one step of rounding farther out.
                    let Some(first) = records.first() else {
                        continue;
                    };
                    let extreme = |key: fn(&Place) -> f64| {
                        let by = |a: &&Place, b: &&Place| key(a).total_cmp(&key(b));
                        let lo = records.iter().min_by(by).unwrap_or(first);
                        let hi = records.iter().max_by(by).unwrap_or(first);
                        (lo.pos, hi.pos)
                    };
                    let ((left, right), (bottom, top)) =
                        (extreme(|p| p.pos.x), extreme(|p| p.pos.y));
                    let (lo, hi) = (Point::new(left.x, bottom.y), Point::new(right.x, top.y));
                    let mut edge_units = Vec::new();
                    let mut off = |anchor: Point, dx: f64, dy: f64| {
                        let out = |v: f64, d: f64| match d {
                            d if d < 0.0 => v.next_down(),
                            d if d > 0.0 => v.next_up(),
                            _ => v,
                        };
                        let (x, y) = (anchor.x + dx, anchor.y + dy);
                        edge_units.push(Point::new(x, y));
                        edge_units.push(Point::new(out(x, dx), out(y, dy)));
                    };
                    off(left, -radius, 0.0);
                    off(right, radius, 0.0);
                    off(bottom, 0.0, -radius);
                    off(top, 0.0, radius);
                    for (corner, sx, sy) in [
                        (lo, -1.0, -1.0),
                        (Point::new(hi.x, lo.y), 1.0, -1.0),
                        (hi, 1.0, 1.0),
                        (Point::new(lo.x, hi.y), -1.0, 1.0),
                    ] {
                        off(corner, sx * radius, 0.0);
                        off(corner, 0.0, sy * radius);
                        off(corner, sx * 0.6 * radius, sy * 0.8 * radius);
                    }
                    let mut edge_table = UnitTable::new(grid.clone(), &edge_units, radius);
                    edge_table.cell_safeties(&records, &mut out);
                    let expected: Vec<Safety> =
                        records.iter().map(|p| edge_table.safety(p)).collect();
                    assert_eq!(out, expected, "box edges: g {g}, R {radius}, {cell:?}");
                }
            }
        }
    }

    #[test]
    fn cell_safeties_of_an_empty_cell_is_empty() {
        let mut t = table();
        let mut out = vec![7];
        t.cell_safeties(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn iter_yields_all_units() {
        let t = table();
        let units: Vec<Unit> = t.iter().collect();
        assert_eq!(units.len(), 3);
        assert_eq!(units[1].id, UnitId(1));
        assert_eq!(units[1].pos, Point::new(0.55, 0.50));
    }

    #[test]
    fn region_uses_shared_radius() {
        let t = table();
        assert_eq!(t.region(UnitId(0)), Circle::new(Point::new(0.5, 0.5), 0.1));
    }
}
