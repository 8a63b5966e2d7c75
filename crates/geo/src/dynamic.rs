//! Incrementally-maintained bucket grid for point sets that churn.
//!
//! The marketplace's idle-driver index changes a handful of entries per
//! tick (a dispatch removes a car, a trip completion re-inserts it, an
//! idle cruise moves it one cell over) while the vast majority of points
//! stay put, and every dispatch asks it for the nearest idle driver
//! within the match radius. Rebuilding an index from scratch twice per
//! tick made it the single largest line in the tick profile.
//! [`DynamicGrid`] buckets the plane into uniform square cells and stores
//! each cell as a small `Vec<(id, position)>`, so membership updates are
//! O(1) per change.
//!
//! Queries are **exact** and id-deterministic: ring expansion stops only
//! once no unvisited cell can hold a better point, and ties resolve toward
//! the *lowest id* — the answer a first-strictly-less linear scan in
//! ascending id order gives, however the grid buckets the plane.

use crate::project::Meters;

/// A mutable point set bucketed into uniform square cells. Ids are caller
/// -assigned `u32`s (e.g. driver indices) and must be unique among the
/// points currently stored.
#[derive(Debug, Clone)]
pub struct DynamicGrid {
    cell_size: f64,
    origin: Meters,
    nx: usize,
    ny: usize,
    /// Unordered per-cell membership; order never affects query results
    /// because ties resolve by id, not storage position.
    cells: Vec<Vec<(u32, Meters)>>,
    len: usize,
}

impl DynamicGrid {
    /// Creates an empty grid covering the axis-aligned box `min..=max`,
    /// sized so roughly `expected_points` points land one per cell
    /// (clamped to 50–1500 m, city scales). Points outside the box are
    /// clamped into the border cells, so coverage is a hint, not a
    /// contract.
    pub fn new(min: Meters, max: Meters, expected_points: usize) -> Self {
        let w = (max.x - min.x).max(1.0);
        let h = (max.y - min.y).max(1.0);
        let mut cell_size =
            (w * h / expected_points.max(1) as f64).sqrt().clamp(50.0, 1_500.0);
        let max_cells = (4 * expected_points).max(1_024);
        let (nx, ny) = loop {
            let nx = (w / cell_size) as usize + 1;
            let ny = (h / cell_size) as usize + 1;
            if nx.saturating_mul(ny) <= max_cells {
                break (nx, ny);
            }
            cell_size *= 2.0;
        };
        DynamicGrid {
            cell_size,
            origin: min,
            nx,
            ny,
            cells: vec![Vec::new(); nx * ny],
            len: 0,
        }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn cell_index(&self, pos: Meters) -> usize {
        let (cx, cy) = self.center_cell(pos);
        cy * self.nx + cx
    }

    fn center_cell(&self, pos: Meters) -> (usize, usize) {
        let fx = (pos.x - self.origin.x) / self.cell_size;
        let fy = (pos.y - self.origin.y) / self.cell_size;
        let cx = if fx <= 0.0 { 0 } else { (fx as usize).min(self.nx - 1) };
        let cy = if fy <= 0.0 { 0 } else { (fy as usize).min(self.ny - 1) };
        (cx, cy)
    }

    /// Adds a point. The id must not already be present.
    pub fn insert(&mut self, id: u32, pos: Meters) {
        let c = self.cell_index(pos);
        self.cells[c].push((id, pos));
        self.len += 1;
    }

    /// Removes a point by id; `pos` must be the position it was stored
    /// under (insert or latest move). Panics if the point is absent — a
    /// missing entry means the caller's incremental bookkeeping diverged,
    /// which must fail loudly rather than degrade query answers.
    pub fn remove(&mut self, id: u32, pos: Meters) {
        let c = self.cell_index(pos);
        let cell = &mut self.cells[c];
        let at = cell
            .iter()
            .position(|&(i, _)| i == id)
            .unwrap_or_else(|| panic!("DynamicGrid::remove: id {id} not in its cell"));
        cell.swap_remove(at);
        self.len -= 1;
    }

    /// Moves a point from its stored position `old` to `new`. Stays O(1)
    /// when both land in the same cell.
    pub fn update(&mut self, id: u32, old: Meters, new: Meters) {
        let co = self.cell_index(old);
        let cn = self.cell_index(new);
        if co == cn {
            let cell = &mut self.cells[co];
            let at = cell
                .iter()
                .position(|&(i, _)| i == id)
                .unwrap_or_else(|| panic!("DynamicGrid::update: id {id} not in its cell"));
            cell[at].1 = new;
        } else {
            self.remove(id, old);
            self.insert(id, new);
        }
    }

    /// Calls `f` with every point on Chebyshev cell-ring `r` around
    /// `(cx, cy)`.
    fn for_ring_points(&self, cx: usize, cy: usize, r: usize, mut f: impl FnMut(u32, Meters)) {
        let mut cell = |ix: usize, iy: usize| {
            for &(id, p) in &self.cells[iy * self.nx + ix] {
                f(id, p);
            }
        };
        if r == 0 {
            cell(cx, cy);
            return;
        }
        let (cx, cy, r) = (cx as i64, cy as i64, r as i64);
        let x_lo = (cx - r).max(0);
        let x_hi = (cx + r).min(self.nx as i64 - 1);
        for iy in [cy - r, cy + r] {
            if (0..self.ny as i64).contains(&iy) {
                for ix in x_lo..=x_hi {
                    cell(ix as usize, iy as usize);
                }
            }
        }
        let y_lo = (cy - r + 1).max(0);
        let y_hi = (cy + r - 1).min(self.ny as i64 - 1);
        for ix in [cx - r, cx + r] {
            if (0..self.nx as i64).contains(&ix) {
                for iy in y_lo..=y_hi {
                    cell(ix as usize, iy as usize);
                }
            }
        }
    }

    /// After visiting rings `0..=r`: smallest possible distance from `pos`
    /// to any unvisited in-grid cell (valid for L1 and L2 — leaving an
    /// axis-aligned box means crossing one side), `None` once every cell
    /// has been visited.
    fn next_ring_bound(&self, pos: Meters, cx: usize, cy: usize, r: usize) -> Option<f64> {
        let (cx, cy, r) = (cx as i64, cy as i64, r as i64);
        let mut bound = f64::INFINITY;
        let mut any = false;
        if cx - r > 0 {
            any = true;
            bound = bound.min(pos.x - (self.origin.x + (cx - r) as f64 * self.cell_size));
        }
        if cx + r + 1 < self.nx as i64 {
            any = true;
            bound = bound.min(self.origin.x + (cx + r + 1) as f64 * self.cell_size - pos.x);
        }
        if cy - r > 0 {
            any = true;
            bound = bound.min(pos.y - (self.origin.y + (cy - r) as f64 * self.cell_size));
        }
        if cy + r + 1 < self.ny as i64 {
            any = true;
            bound = bound.min(self.origin.y + (cy + r + 1) as f64 * self.cell_size - pos.y);
        }
        any.then(|| bound.max(0.0))
    }

    /// The stored point minimizing `(L1 distance to pos, id)` among those
    /// within `max_dist` (inclusive), as `(id, L1 distance)`. The
    /// lexicographic tie-break reproduces a first-strictly-less linear
    /// scan in ascending id order.
    pub fn nearest_l1_within(&self, pos: Meters, max_dist: f64) -> Option<(u32, f64)> {
        if self.is_empty() {
            return None;
        }
        let (cx, cy) = self.center_cell(pos);
        let mut best: Option<(f64, u32)> = None;
        let mut r = 0;
        loop {
            self.for_ring_points(cx, cy, r, |id, p| {
                let dist = (p.x - pos.x).abs() + (p.y - pos.y).abs();
                if dist <= max_dist
                    && best.is_none_or(|(bd, bi)| dist < bd || (dist == bd && id < bi))
                {
                    best = Some((dist, id));
                }
            });
            let Some(lb) = self.next_ring_bound(pos, cx, cy, r) else { break };
            // Stop once no unvisited cell can beat (or tie) the best, or
            // can lie within the radius at all.
            if lb > max_dist || best.is_some_and(|(bd, _)| lb > bd) {
                break;
            }
            r += 1;
        }
        best.map(|(d, i)| (i, d))
    }

    /// Unbounded variant of [`DynamicGrid::nearest_l1_within`].
    pub fn nearest_l1(&self, pos: Meters) -> Option<(u32, f64)> {
        self.nearest_l1_within(pos, f64::INFINITY)
    }

    /// All stored `(id, position)` pairs, in unspecified order (equivalence
    /// checks sort by id).
    pub fn items(&self) -> impl Iterator<Item = (u32, Meters)> + '_ {
        self.cells.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_l1(points: &[(u32, Meters)], pos: Meters, max_dist: f64) -> Option<(u32, f64)> {
        let mut sorted: Vec<_> = points.to_vec();
        sorted.sort_by_key(|&(id, _)| id);
        let mut best: Option<(u32, f64)> = None;
        for (id, p) in sorted {
            let dist = (p.x - pos.x).abs() + (p.y - pos.y).abs();
            if dist <= max_dist && best.is_none_or(|(_, bd)| dist < bd) {
                best = Some((id, dist));
            }
        }
        best
    }

    #[test]
    fn empty_grid_answers_none() {
        let g = DynamicGrid::new(Meters::new(0.0, 0.0), Meters::new(1000.0, 1000.0), 10);
        assert!(g.is_empty());
        assert!(g.nearest_l1(Meters::new(3.0, 4.0)).is_none());
    }

    #[test]
    fn insert_remove_update_roundtrip() {
        let mut g = DynamicGrid::new(Meters::new(0.0, 0.0), Meters::new(2000.0, 2000.0), 16);
        g.insert(7, Meters::new(100.0, 100.0));
        g.insert(3, Meters::new(1900.0, 1900.0));
        assert_eq!(g.len(), 2);
        assert_eq!(g.nearest_l1(Meters::new(0.0, 0.0)), Some((7, 200.0)));
        // Move id 7 far away; id 3 becomes nearest.
        g.update(7, Meters::new(100.0, 100.0), Meters::new(2000.0, 2000.0));
        assert_eq!(g.nearest_l1(Meters::new(0.0, 0.0)).map(|(i, _)| i), Some(3));
        g.remove(3, Meters::new(1900.0, 1900.0));
        assert_eq!(g.len(), 1);
        assert_eq!(g.nearest_l1(Meters::new(0.0, 0.0)).map(|(i, _)| i), Some(7));
    }

    #[test]
    fn ties_resolve_to_lowest_id() {
        let mut g = DynamicGrid::new(Meters::new(0.0, 0.0), Meters::new(500.0, 500.0), 8);
        // Insert in descending id order; tie-break must still pick id 1.
        g.insert(9, Meters::new(100.0, 0.0));
        g.insert(4, Meters::new(100.0, 0.0));
        g.insert(1, Meters::new(0.0, 100.0));
        assert_eq!(g.nearest_l1(Meters::new(0.0, 0.0)), Some((1, 100.0)));
        g.remove(1, Meters::new(0.0, 100.0));
        assert_eq!(g.nearest_l1(Meters::new(0.0, 0.0)), Some((4, 100.0)));
    }

    #[test]
    fn radius_is_inclusive() {
        let mut g = DynamicGrid::new(Meters::new(0.0, 0.0), Meters::new(800.0, 800.0), 4);
        g.insert(0, Meters::new(300.0, 400.0));
        assert_eq!(g.nearest_l1_within(Meters::new(0.0, 0.0), 700.0), Some((0, 700.0)));
        assert_eq!(g.nearest_l1_within(Meters::new(0.0, 0.0), 699.0), None);
    }

    #[test]
    fn points_outside_box_are_still_found() {
        let mut g = DynamicGrid::new(Meters::new(0.0, 0.0), Meters::new(1000.0, 1000.0), 10);
        g.insert(2, Meters::new(-500.0, 2500.0));
        g.insert(8, Meters::new(400.0, 400.0));
        assert_eq!(
            g.nearest_l1(Meters::new(-400.0, 2400.0)),
            Some((2, 200.0)),
            "clamped border cells must keep out-of-box points queryable"
        );
        // And removing via the same clamped cell works.
        g.remove(2, Meters::new(-500.0, 2500.0));
        assert_eq!(g.nearest_l1(Meters::new(-400.0, 2400.0)).map(|(i, _)| i), Some(8));
    }

    #[test]
    fn matches_brute_force_through_churn() {
        // Deterministic pseudo-random walk: insert/remove/move a point set
        // and compare every query against a linear scan.
        let mut state = 0x9E37_79B9_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut g = DynamicGrid::new(Meters::new(0.0, 0.0), Meters::new(3000.0, 3000.0), 64);
        let mut live: Vec<(u32, Meters)> = Vec::new();
        for step in 0..2000u32 {
            let roll = next() % 100;
            if roll < 40 || live.is_empty() {
                // Snapped coordinates create exact ties and boundary hits.
                let p = Meters::new(
                    ((next() % 3100) as f64 / 100.0).round() * 100.0,
                    ((next() % 3100) as f64 / 100.0).round() * 100.0,
                );
                g.insert(step, p);
                live.push((step, p));
            } else if roll < 65 {
                let at = (next() as usize) % live.len();
                let (id, p) = live.swap_remove(at);
                g.remove(id, p);
            } else {
                let at = (next() as usize) % live.len();
                let (id, old) = live[at];
                let new = Meters::new(
                    ((next() % 3100) as f64 / 100.0).round() * 100.0,
                    ((next() % 3100) as f64 / 100.0).round() * 100.0,
                );
                g.update(id, old, new);
                live[at].1 = new;
            }
            let q = Meters::new((next() % 4000) as f64 - 500.0, (next() % 4000) as f64 - 500.0);
            let max_dist = (next() % 5000) as f64;
            assert_eq!(
                g.nearest_l1_within(q, max_dist),
                brute_l1(&live, q, max_dist),
                "step {step}"
            );
            assert_eq!(g.len(), live.len(), "step {step}");
        }
    }
}
