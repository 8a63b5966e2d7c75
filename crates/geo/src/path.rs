//! Per-car recent-movement traces ("path vectors").
//!
//! Each car in a pingClient response carries a short trace of its recent
//! positions (§3.3). The paper uses these to disambiguate cars that left
//! the measurement area (an *outbound* path near the boundary) from cars
//! that picked up a passenger or went offline.

use crate::latlng::LatLng;
use crate::polygon::Polygon;
use crate::project::{LocalProjection, Meters};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Net displacement (metres east/north) of a path from its oldest point
/// `first` to its newest point `last`: the one formula behind
/// [`PathVector::displacement`], for callers that hold a path's two ends
/// but not the path.
pub fn displacement(first: LatLng, last: LatLng, proj: &LocalProjection) -> Meters {
    proj.to_meters(last).sub(proj.to_meters(first))
}

/// A bounded FIFO of a car's recent positions, most recent last.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathVector {
    points: VecDeque<LatLng>,
    capacity: usize,
}

impl PathVector {
    /// Creates an empty path with the given capacity (the protocol sends
    /// the last few positions; the real app shows a short trail).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "a path needs at least 2 points to have a direction");
        PathVector { points: VecDeque::with_capacity(capacity), capacity }
    }

    /// Appends a position, evicting the oldest if at capacity.
    pub fn push(&mut self, p: LatLng) {
        if self.points.len() == self.capacity {
            self.points.pop_front();
        }
        self.points.push_back(p);
    }

    /// Positions oldest-to-newest.
    pub fn points(&self) -> impl Iterator<Item = LatLng> + '_ {
        self.points.iter().copied()
    }

    /// Most recent position, if any.
    pub fn last(&self) -> Option<LatLng> {
        self.points.back().copied()
    }

    /// Number of stored positions.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no positions are stored.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Net displacement (metres east/north) from the oldest to the newest
    /// stored point, or `None` with fewer than 2 points.
    pub fn displacement(&self, proj: &LocalProjection) -> Option<Meters> {
        match (self.points.front(), self.points.back()) {
            (Some(&first), Some(&last)) if self.points.len() >= 2 => {
                Some(displacement(first, last, proj))
            }
            _ => None,
        }
    }

    /// Heuristic from the paper's edge filter: does this path look like the
    /// car was *leaving* the measurement region? True when the most recent
    /// point is within `margin_m` of the boundary and the net displacement
    /// points toward (decreases distance to) the boundary.
    pub fn heading_out_of(&self, region: &Polygon, proj: &LocalProjection, margin_m: f64) -> bool {
        let Some(last) = self.last() else { return false };
        let last_m = proj.to_meters(last);
        if region.distance_to_boundary(last_m) > margin_m {
            return false;
        }
        match self.displacement(proj) {
            Some(d) if d.norm() > 1.0 => {
                let first_m = last_m.sub(d);
                // Moving closer to the boundary (or already outside).
                !region.contains(last_m)
                    || region.distance_to_boundary(last_m)
                        < region.distance_to_boundary(first_m)
            }
            // A parked car near the edge is not "heading out".
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Polygon, LocalProjection) {
        let origin = LatLng::new(40.75, -73.98);
        let proj = LocalProjection::new(origin);
        let region = Polygon::rect(Meters::new(0.0, 0.0), Meters::new(2000.0, 2000.0));
        (region, proj)
    }

    fn at(proj: &LocalProjection, x: f64, y: f64) -> LatLng {
        proj.to_latlng(Meters::new(x, y))
    }

    #[test]
    fn bounded_capacity() {
        let (_, proj) = setup();
        let mut pv = PathVector::new(3);
        for i in 0..10 {
            pv.push(at(&proj, i as f64 * 10.0, 0.0));
        }
        assert_eq!(pv.len(), 3);
        let first = pv.points().next().unwrap();
        let d = proj.to_meters(first);
        assert!((d.x - 70.0).abs() < 0.5, "oldest retained point should be x=70, got {}", d.x);
    }

    #[test]
    fn displacement_direction() {
        let (_, proj) = setup();
        let mut pv = PathVector::new(8);
        pv.push(at(&proj, 1000.0, 1000.0));
        pv.push(at(&proj, 1050.0, 1000.0));
        pv.push(at(&proj, 1100.0, 1000.0));
        let d = pv.displacement(&proj).unwrap();
        assert!((d.x - 100.0).abs() < 0.5 && d.y.abs() < 0.5);
    }

    #[test]
    fn heading_out_near_edge_moving_outward() {
        let (region, proj) = setup();
        let mut pv = PathVector::new(8);
        pv.push(at(&proj, 1800.0, 1000.0));
        pv.push(at(&proj, 1900.0, 1000.0));
        pv.push(at(&proj, 1970.0, 1000.0));
        assert!(pv.heading_out_of(&region, &proj, 100.0));
    }

    #[test]
    fn not_heading_out_when_deep_inside() {
        let (region, proj) = setup();
        let mut pv = PathVector::new(8);
        pv.push(at(&proj, 900.0, 1000.0));
        pv.push(at(&proj, 1000.0, 1000.0));
        assert!(!pv.heading_out_of(&region, &proj, 100.0));
    }

    #[test]
    fn not_heading_out_when_moving_inward_near_edge() {
        let (region, proj) = setup();
        let mut pv = PathVector::new(8);
        pv.push(at(&proj, 1990.0, 1000.0));
        pv.push(at(&proj, 1950.0, 1000.0));
        assert!(!pv.heading_out_of(&region, &proj, 100.0));
    }

    #[test]
    fn parked_car_near_edge_not_heading_out() {
        let (region, proj) = setup();
        let mut pv = PathVector::new(8);
        let p = at(&proj, 1980.0, 1000.0);
        pv.push(p);
        pv.push(p);
        pv.push(p);
        assert!(!pv.heading_out_of(&region, &proj, 100.0));
    }

    #[test]
    fn empty_path_has_no_direction() {
        let (region, proj) = setup();
        let pv = PathVector::new(4);
        assert!(pv.is_empty());
        assert!(pv.last().is_none());
        assert!(pv.displacement(&proj).is_none());
        assert!(!pv.heading_out_of(&region, &proj, 100.0));
    }
}
