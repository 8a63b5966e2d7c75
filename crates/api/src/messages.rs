//! The protocol's message types.
//!
//! A pingClient response carries what the real service's JSON does ("the
//! server responds with a JSON-encoded list of information about all
//! available car types", §3.3): per tier, the nearest cars with their
//! path vectors, the EWT and the surge multiplier. Over the wire
//! [`PingClientResponse`] travels in `surgescope-serve`'s fixed binary
//! layout, whose codec is its only serialization; the estimates types
//! travel as `serde` values.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use surgescope_city::CarType;
use surgescope_geo::{LatLng, PathVector};
use surgescope_simcore::SimTime;

/// One car as shown in the client app.
#[derive(Debug, Clone)]
pub struct CarInfo {
    /// Randomized per-online-session identifier.
    pub id: u64,
    /// Reported position.
    pub position: LatLng,
    /// Recent positions, oldest first (the "path vector"). Shared
    /// directly with the driver's live trace — serving a ping clones the
    /// handle, never the points (the snapshot layer drops its handles
    /// before the world moves, so the driver's copy-on-write append
    /// stays in place).
    pub path: Arc<PathVector>,
}

/// Equality is wire equality: the path compares by its points. The
/// `PathVector` ring-buffer capacity is transport-invisible (the wire
/// carries a bare point list), so it must not affect `==` — a response
/// decoded from the wire equals the one that produced it.
impl PartialEq for CarInfo {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.position == other.position
            && self.path.len() == other.path.len()
            && self.path.points().zip(other.path.points()).all(|(a, b)| a == b)
    }
}

/// Per-tier block of a pingClient response.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeStatus {
    /// Product tier.
    pub car_type: CarType,
    /// Up to eight nearest available cars, nearest first.
    pub cars: Vec<CarInfo>,
    /// Estimated wait time, minutes.
    pub ewt_min: f64,
    /// Surge multiplier at the client's location (1.0 = no surge).
    pub surge: f64,
}

/// A full pingClient response.
#[derive(Debug, Clone, PartialEq)]
pub struct PingClientResponse {
    /// Server time of the response.
    pub at: SimTime,
    /// Echo of the client-reported location.
    pub location: LatLng,
    /// One block per tier offered at this location.
    pub statuses: Vec<TypeStatus>,
}

impl PingClientResponse {
    /// The block for one tier, if offered.
    pub fn status(&self, t: CarType) -> Option<&TypeStatus> {
        self.statuses.iter().find(|s| s.car_type == t)
    }

    /// Surge multiplier for a tier (1.0 when the tier is absent).
    pub fn surge(&self, t: CarType) -> f64 {
        self.status(t).map_or(1.0, |s| s.surge)
    }
}

/// One entry of an `estimates/price` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriceEstimate {
    /// Product tier.
    pub car_type: CarType,
    /// Surge multiplier in force.
    pub surge_multiplier: f64,
    /// Low end of the fare estimate for a reference trip, dollars.
    pub low_estimate: f64,
    /// High end, dollars.
    pub high_estimate: f64,
}

/// One entry of an `estimates/time` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeEstimate {
    /// Product tier.
    pub car_type: CarType,
    /// Estimated pickup wait, seconds (the real endpoint returns seconds).
    pub estimate_secs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response() -> PingClientResponse {
        PingClientResponse {
            at: SimTime(1000),
            location: LatLng::new(40.75, -73.98),
            statuses: vec![
                TypeStatus {
                    car_type: CarType::UberX,
                    cars: vec![CarInfo {
                        id: 42,
                        position: LatLng::new(40.751, -73.981),
                        path: {
                            let mut p = PathVector::new(2);
                            p.push(LatLng::new(40.7505, -73.9805));
                            Arc::new(p)
                        },
                    }],
                    ewt_min: 3.0,
                    surge: 1.5,
                },
                TypeStatus { car_type: CarType::UberBlack, cars: vec![], ewt_min: 6.0, surge: 1.4 },
            ],
        }
    }

    #[test]
    fn status_lookup() {
        let r = response();
        assert_eq!(r.status(CarType::UberX).unwrap().cars.len(), 1);
        assert!(r.status(CarType::UberPool).is_none());
        assert_eq!(r.surge(CarType::UberX), 1.5);
        assert_eq!(r.surge(CarType::UberPool), 1.0, "absent tier defaults to 1.0");
    }

    #[test]
    fn estimates_roundtrip() {
        let p = PriceEstimate {
            car_type: CarType::UberX,
            surge_multiplier: 2.1,
            low_estimate: 14.0,
            high_estimate: 19.0,
        };
        let t = TimeEstimate { car_type: CarType::UberX, estimate_secs: 240 };
        let pj = serde_json::to_string(&p).unwrap();
        let tj = serde_json::to_string(&t).unwrap();
        assert_eq!(serde_json::from_str::<PriceEstimate>(&pj).unwrap(), p);
        assert_eq!(serde_json::from_str::<TimeEstimate>(&tj).unwrap(), t);
    }
}
