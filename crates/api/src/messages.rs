//! Wire-format message types.
//!
//! The real service speaks JSON ("the server responds with a JSON-encoded
//! list of information about all available car types", §3.3); these types
//! serialize to the same shape so measurement logs look like the paper's
//! 391 GB of captured responses (just smaller).

use serde::{Deserialize, Error, Serialize, Value};
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
/// `PathVector` ring-buffer capacity is transport-invisible (the JSON
/// form is a bare point list), so it must not affect `==` — a response
/// deserialized from JSON equals the one that produced it.
impl PartialEq for CarInfo {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.position == other.position
            && self.path.len() == other.path.len()
            && self.path.points().zip(other.path.points()).all(|(a, b)| a == b)
    }
}

impl Serialize for CarInfo {
    fn to_value(&self) -> Value {
        // Manual impl keeps the wire shape of the former
        // `Arc<Vec<LatLng>>` field: `path` is a plain JSON array of
        // points, with no ring-buffer metadata.
        Value::Map(vec![
            ("id".into(), self.id.to_value()),
            ("position".into(), self.position.to_value()),
            ("path".into(), Value::Seq(self.path.points().map(|p| p.to_value()).collect())),
        ])
    }
}

impl Deserialize for CarInfo {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let pts = Vec::<LatLng>::from_value(v.field("path")?)?;
        let mut path = PathVector::new(pts.len().max(2));
        for p in pts {
            path.push(p);
        }
        Ok(CarInfo {
            id: u64::from_value(v.field("id")?)?,
            position: LatLng::from_value(v.field("position")?)?,
            path: Arc::new(path),
        })
    }
}

/// Per-tier block of a pingClient response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    fn json_roundtrip() {
        let r = response();
        let json = serde_json::to_string(&r).unwrap();
        let back: PingClientResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        // The wire format mentions the essentials by name.
        assert!(json.contains("surge"));
        assert!(json.contains("ewt_min"));
        assert!(json.contains("UberX"));
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
