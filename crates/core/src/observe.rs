//! Observation records: what one emulated client sees in one ping.
//!
//! Both Uber ping kernels write a response into a client's slot through
//! one block writer, `write_block` and `retire_blocks`: the in-process
//! kernel copies cars it rendered once per tick, and the remote client
//! copies cars it decoded once per `PING` reply. Each writes every
//! undropped response, delayed or not, reclaiming blocks from the pool
//! of the system's `Delivery` (`core::systems`), which queues a delayed
//! slot's blocks afterwards. [`response_to_observations`] is the
//! reference conversion both are tested against.

use serde::{Deserialize, Serialize};
use surgescope_api::{PingClientResponse, NEAREST_CARS_SHOWN};
use surgescope_city::CarType;
use surgescope_geo::{LocalProjection, Meters};

/// A client slot in the measurement fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientSpec {
    /// Account/identity key (drives jitter identity and rate limiting).
    pub key: u64,
    /// Fixed position in the city's planar frame.
    pub position: Meters,
}

/// One car as observed by a client (already projected into planar space).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObservedCar {
    /// The randomized session ID the protocol exposes.
    pub id: u64,
    /// Reported position.
    pub position: Meters,
    /// Net displacement over the car's reported path vector, if the path
    /// had at least two points — the input to the edge filter.
    pub displacement: Option<Meters>,
}

/// One tier's worth of a ping response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypeObservation {
    /// Tier.
    pub car_type: CarType,
    /// Nearest cars (≤ 8).
    pub cars: Vec<ObservedCar>,
    /// Estimated wait time, minutes.
    pub ewt_min: f64,
    /// Surge multiplier shown to this client.
    pub surge: f64,
}

/// Converts a full `pingClient` wire response into the per-tier blocks a
/// measurement client records: positions projected into the city's planar
/// frame, path vectors reduced to their net displacement. This is the
/// honest client-side pipeline and the reference both ping kernels are
/// regression-locked to, byte for byte: the in-process kernel's snapshot
/// shortcut and the remote client's decoding of a `PING` reply straight
/// into its slots.
pub fn response_to_observations(
    resp: &PingClientResponse,
    proj: &LocalProjection,
) -> Vec<TypeObservation> {
    resp.statuses
        .iter()
        .map(|s| TypeObservation {
            car_type: s.car_type,
            cars: s
                .cars
                .iter()
                .map(|ci| ObservedCar {
                    id: ci.id,
                    position: proj.to_meters(ci.position),
                    displacement: ci.path.displacement(proj),
                })
                .collect(),
            ewt_min: s.ewt_min,
            surge: s.surge,
        })
        .collect()
}

/// Writes tier `n` of a response into `out[n]`, overwriting the block
/// there and reusing its `cars` vector; a slot with only `n` blocks
/// takes one from `spare` before allocating. Tiers are written in order,
/// `n` counting from 0, and [`retire_blocks`] ends the response.
pub(crate) fn write_block(
    out: &mut Vec<TypeObservation>,
    n: usize,
    spare: &mut Vec<TypeObservation>,
    car_type: CarType,
    ewt_min: f64,
    surge: f64,
    cars: impl IntoIterator<Item = ObservedCar>,
) {
    if n == out.len() {
        out.push(spare.pop().unwrap_or_else(|| TypeObservation {
            car_type,
            // Full capacity up front: a tier shows at most
            // NEAREST_CARS_SHOWN cars, so this vector never grows again
            // even as the local fleet fills in.
            cars: Vec::with_capacity(NEAREST_CARS_SHOWN),
            ewt_min: 0.0,
            surge: 0.0,
        }));
    }
    let block = &mut out[n];
    block.car_type = car_type;
    block.ewt_min = ewt_min;
    block.surge = surge;
    block.cars.clear();
    block.cars.extend(cars);
}

/// Ends a response of `n` tiers written by [`write_block`]: the blocks
/// past the first `n` retire into `spare`, `cars` capacity intact.
pub(crate) fn retire_blocks(
    out: &mut Vec<TypeObservation>,
    n: usize,
    spare: &mut Vec<TypeObservation>,
) {
    while out.len() > n {
        spare.extend(out.pop());
    }
}

/// The last block of tier `t` in arrival order — what the client app
/// displays at the end of a tick. Blocks are ordered by arrival (fresh
/// response first, then transport-delayed responses in send order), so a
/// stale late block genuinely displaces fresh data on the display; with a
/// fault-free transport there is exactly one block per tier and this is
/// identical to a forward lookup.
pub fn latest_of_type(blocks: &[TypeObservation], t: CarType) -> Option<&TypeObservation> {
    blocks.iter().rev().find(|b| b.car_type == t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latest_of_type_prefers_last_arrival() {
        let block = |surge: f64| TypeObservation {
            car_type: CarType::UberX,
            cars: vec![],
            ewt_min: 0.0,
            surge,
        };
        // Fresh 2.0× first, then a stale delayed 1.5× arrives — the
        // display ends the tick showing the stale value.
        let blocks = vec![block(2.0), block(1.5)];
        assert_eq!(latest_of_type(&blocks, CarType::UberX).unwrap().surge, 1.5);
        assert!(latest_of_type(&blocks, CarType::UberPool).is_none());
        assert!(latest_of_type(&[], CarType::UberX).is_none());
    }

    /// One client's blocks as checkpoints serialize them.
    #[test]
    fn serde_roundtrip() {
        let blocks = vec![TypeObservation {
            car_type: CarType::UberBlack,
            cars: vec![ObservedCar {
                id: 7,
                position: Meters::new(1.0, 2.0),
                displacement: Some(Meters::new(10.0, 0.0)),
            }],
            ewt_min: 5.5,
            surge: 1.0,
        }];
        let json = serde_json::to_string(&blocks).unwrap();
        assert_eq!(serde_json::from_str::<Vec<TypeObservation>>(&json).unwrap(), blocks);
    }
}
