//! WGS-84 coordinates and spherical distance.

use serde::{Deserialize, Serialize};

/// Mean Earth radius in metres (IUGG).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A WGS-84 geographic coordinate (degrees).
///
/// The measurement methodology controls the latitude/longitude reported by
/// each emulated client, so this type is the currency of the whole system:
/// clients ping from a `LatLng`, cars are observed at a `LatLng`, and the
/// API endpoints take a `LatLng` as input.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatLng {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lng: f64,
}

impl LatLng {
    /// Creates a coordinate from degrees. Panics on non-finite input —
    /// coordinates always originate from our own generators, so a NaN here
    /// is a programming error, not bad network data.
    pub fn new(lat: f64, lng: f64) -> Self {
        assert!(lat.is_finite() && lng.is_finite(), "non-finite coordinate");
        assert!((-90.0..=90.0).contains(&lat), "latitude out of range: {lat}");
        LatLng { lat, lng }
    }

    /// Moves this point `distance_m` metres along `bearing_deg` (clockwise
    /// from north) using a local planar approximation. Exact enough for the
    /// ≤ tens-of-kilometres scales this library works at (error < 0.01%).
    pub fn translate(self, bearing_deg: f64, distance_m: f64) -> LatLng {
        let theta = bearing_deg.to_radians();
        let dnorth = distance_m * theta.cos();
        let deast = distance_m * theta.sin();
        self.offset_m(deast, dnorth)
    }

    /// Moves this point by planar offsets in metres (east, north).
    pub fn offset_m(self, east_m: f64, north_m: f64) -> LatLng {
        let dlat = (north_m / EARTH_RADIUS_M).to_degrees();
        let dlng = (east_m / (EARTH_RADIUS_M * self.lat.to_radians().cos())).to_degrees();
        LatLng::new((self.lat + dlat).clamp(-90.0, 90.0), self.lng + dlng)
    }

    /// Initial bearing (degrees clockwise from north, in `[0, 360)`) from
    /// this point toward `other`, using the local planar approximation.
    pub fn bearing_to(self, other: LatLng) -> f64 {
        let mean_lat = ((self.lat + other.lat) / 2.0).to_radians();
        let deast = (other.lng - self.lng).to_radians() * mean_lat.cos();
        let dnorth = (other.lat - self.lat).to_radians();
        let b = deast.atan2(dnorth).to_degrees();
        (b + 360.0) % 360.0
    }

    /// Linear interpolation between two points: `t = 0` is `self`,
    /// `t = 1` is `other`. Used by the replay engines that "drive" vehicles
    /// in a straight line between pickup and dropoff (paper §3.5).
    pub fn lerp(self, other: LatLng, t: f64) -> LatLng {
        LatLng::new(
            self.lat + (other.lat - self.lat) * t,
            self.lng + (other.lng - self.lng) * t,
        )
    }
}

/// Great-circle (haversine) distance between two coordinates, in metres.
pub fn haversine_m(a: LatLng, b: LatLng) -> f64 {
    let phi1 = a.lat.to_radians();
    let phi2 = b.lat.to_radians();
    let dphi = (b.lat - a.lat).to_radians();
    let dlambda = (b.lng - a.lng).to_radians();
    let s = (dphi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (dlambda / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_M * s.sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Times Square, used throughout as a Manhattan reference point.
    const TIMES_SQUARE: LatLng = LatLng { lat: 40.7580, lng: -73.9855 };
    /// Union Square SF.
    const UNION_SQUARE_SF: LatLng = LatLng { lat: 37.7880, lng: -122.4075 };

    #[test]
    fn known_distance_manhattan_to_sf() {
        // NYC to SF is about 4,130 km.
        let d = haversine_m(TIMES_SQUARE, UNION_SQUARE_SF);
        assert!((4_100_000.0..4_160_000.0).contains(&d), "got {d}");
    }

    #[test]
    fn small_distance_accuracy() {
        // One block north (~80 m) via translate.
        let p = TIMES_SQUARE.translate(0.0, 80.0);
        let d = haversine_m(TIMES_SQUARE, p);
        assert!((d - 80.0).abs() < 0.01, "got {d}");
    }

    #[test]
    fn translate_east_changes_only_lng() {
        let p = TIMES_SQUARE.translate(90.0, 100.0);
        assert!((p.lat - TIMES_SQUARE.lat).abs() < 1e-9);
        assert!(p.lng > TIMES_SQUARE.lng);
    }

    #[test]
    fn bearing_cardinal_directions() {
        let n = TIMES_SQUARE.translate(0.0, 500.0);
        let e = TIMES_SQUARE.translate(90.0, 500.0);
        let s = TIMES_SQUARE.translate(180.0, 500.0);
        let w = TIMES_SQUARE.translate(270.0, 500.0);
        assert!(TIMES_SQUARE.bearing_to(n).abs() < 0.5);
        assert!((TIMES_SQUARE.bearing_to(e) - 90.0).abs() < 0.5);
        assert!((TIMES_SQUARE.bearing_to(s) - 180.0).abs() < 0.5);
        assert!((TIMES_SQUARE.bearing_to(w) - 270.0).abs() < 0.5);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = TIMES_SQUARE;
        let b = a.translate(45.0, 1000.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        let mid = a.lerp(b, 0.5);
        assert!((haversine_m(a, mid) - 500.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "latitude out of range")]
    fn rejects_bad_latitude() {
        let _ = LatLng::new(123.0, 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let json = serde_json::to_string(&TIMES_SQUARE).unwrap();
        let back: LatLng = serde_json::from_str(&json).unwrap();
        assert_eq!(back, TIMES_SQUARE);
    }
}
