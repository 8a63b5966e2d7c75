//! Geographic primitives for city-scale measurement studies.
//!
//! This crate provides the small set of geometry the paper's methodology
//! needs: WGS-84 coordinates ([`LatLng`]), a local planar projection good to
//! centimetres at city scale ([`LocalProjection`]), polygons with
//! point-in-polygon and boundary-distance queries ([`Polygon`]), grid
//! placement of measurement clients over a polygon ([`grid`]), the
//! per-car recent-movement trace ([`PathVector`]) that the pingClient
//! protocol exposes, and the one-pass nearest-`K` selection both
//! pingClient kernels answer with ([`NearestK`]). There is no spatial
//! index: at the tier sizes a city builds (under ~100 cars) a scan beats
//! one, so the ping kernels and the marketplace's dispatch scan.
//!
//! Everything here is pure, deterministic and `f64`-based. Distances are in
//! metres, bearings in degrees clockwise from north.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod latlng;
mod nearest;
mod path;
mod polygon;
mod project;

pub mod grid;

pub use latlng::{haversine_m, LatLng, EARTH_RADIUS_M};
pub use nearest::NearestK;
pub use path::{displacement, PathVector};
pub use polygon::{BoundingBox, Polygon};
pub use project::{LocalProjection, Meters, Vec2};

/// Mean walking speed assumed by the surge-avoidance strategy (§6 of the
/// paper): 5 km/h ≈ 83 m per minute.
pub const WALKING_SPEED_M_PER_MIN: f64 = 83.0;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_latlng() -> impl Strategy<Value = LatLng> {
        // Stay away from the poles and the antimeridian where the local
        // projection assumptions (and haversine precision) degrade.
        (-60.0f64..60.0, -179.0f64..179.0).prop_map(|(lat, lng)| LatLng::new(lat, lng))
    }

    proptest! {
        #[test]
        fn haversine_symmetric(a in arb_latlng(), b in arb_latlng()) {
            let ab = haversine_m(a, b);
            let ba = haversine_m(b, a);
            prop_assert!((ab - ba).abs() < 1e-6 * ab.max(1.0));
        }

        #[test]
        fn haversine_nonnegative_and_zero_iff_equal(a in arb_latlng()) {
            prop_assert_eq!(haversine_m(a, a), 0.0);
        }

        #[test]
        fn haversine_triangle_inequality(a in arb_latlng(), b in arb_latlng(), c in arb_latlng()) {
            let ab = haversine_m(a, b);
            let bc = haversine_m(b, c);
            let ac = haversine_m(a, c);
            // Spherical metric satisfies the triangle inequality exactly;
            // leave slack for floating point.
            prop_assert!(ac <= ab + bc + 1e-6 * (ab + bc + 1.0));
        }

        #[test]
        fn translate_roundtrip(a in arb_latlng(), d in 0.0f64..5_000.0, bearing in 0.0f64..360.0) {
            let b = a.translate(bearing, d);
            let measured = haversine_m(a, b);
            // At city scale the planar translate agrees with the spherical
            // metric to well under 1%.
            prop_assert!((measured - d).abs() <= 0.01 * d + 0.5,
                "translate {d}m measured {measured}m");
        }

        #[test]
        fn projection_roundtrip(origin in arb_latlng(), d in 0.0f64..10_000.0, bearing in 0.0f64..360.0) {
            let proj = LocalProjection::new(origin);
            let p = origin.translate(bearing, d);
            let xy = proj.to_meters(p);
            let back = proj.to_latlng(xy);
            prop_assert!(haversine_m(p, back) < 0.5, "roundtrip error too large");
        }

        #[test]
        fn projection_distance_close_to_haversine(origin in arb_latlng(),
                                                  d1 in 0.0f64..5_000.0, b1 in 0.0f64..360.0,
                                                  d2 in 0.0f64..5_000.0, b2 in 0.0f64..360.0) {
            let proj = LocalProjection::new(origin);
            let p = origin.translate(b1, d1);
            let q = origin.translate(b2, d2);
            let planar = proj.to_meters(p).dist(proj.to_meters(q));
            let sphere = haversine_m(p, q);
            prop_assert!((planar - sphere).abs() <= 0.01 * sphere + 1.0);
        }
    }
}
