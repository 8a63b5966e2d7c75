//! The city model: geography, partition into surge areas, and tuning.

use crate::profiles::{DemandProfile, SupplyProfile};
use crate::types::{CarType, FareSchedule};
use serde::{Deserialize, Serialize};
use surgescope_geo::{LatLng, LocalProjection, Meters, Polygon};
use surgescope_simcore::{DiurnalCurve, SimRng, SimTime};

/// Identifier of a surge area within one city (index into
/// [`CityModel::areas`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AreaId(pub usize);

/// One of the city's independently priced surge areas (Figs. 18–19: Uber
/// partitions cities into hand-drawn areas and computes multipliers
/// independently per area).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SurgeArea {
    /// Stable identifier: the area's index in [`CityModel::areas`].
    pub id: AreaId,
    /// Human-readable name ("Manhattan 1", "SF 0", …).
    pub name: String,
    /// Planar footprint.
    pub polygon: Polygon,
}

/// A demand hotspot: a Gaussian bump of ride-request origin density around
/// a landmark (Times Square, the Financial District, UCSF, …). Figures
/// 9–10 show supply skews toward these.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hotspot {
    /// Landmark name.
    pub name: String,
    /// Centre in the local planar frame.
    pub center: Meters,
    /// Standard deviation of the Gaussian, metres.
    pub sigma_m: f64,
    /// Relative weight among hotspots.
    pub weight: f64,
}

/// City-specific constants consumed by the marketplace's surge engine.
/// Defined here (plain data) so the `marketplace` crate stays city-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurgeTuning {
    /// Demand/supply utilisation above which surge begins.
    pub utilisation_threshold: f64,
    /// Multiplier gained per unit of excess utilisation.
    pub utilisation_gain: f64,
    /// Multiplier gained per minute of EWT above `ewt_floor_min`.
    pub ewt_gain: f64,
    /// EWT (minutes) below which wait times contribute nothing.
    pub ewt_floor_min: f64,
    /// Std-dev of the zero-mean noise added each recomputation; this is
    /// what makes most surges last a single 5-minute interval (Fig. 13).
    pub noise_sigma: f64,
    /// Hard cap on the multiplier (paper observed 2.8 in MHTN, 4.1 in SF).
    pub max_multiplier: f64,
}

impl SurgeTuning {
    /// A neutral tuning used by unit tests.
    pub fn default_test() -> Self {
        SurgeTuning {
            utilisation_threshold: 0.7,
            utilisation_gain: 2.0,
            ewt_gain: 0.15,
            ewt_floor_min: 4.0,
            noise_sigma: 0.15,
            max_multiplier: 4.5,
        }
    }
}

/// A complete model of one study city.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CityModel {
    /// City name ("Midtown Manhattan", "Downtown San Francisco").
    pub name: String,
    /// Projection tying the planar frame to real coordinates.
    pub projection: LocalProjection,
    /// Full service region (cars exist and trips happen anywhere in here).
    pub service_region: Polygon,
    /// The sub-region blanketed by measurement clients (paper Fig. 3).
    pub measurement_region: Polygon,
    /// Client lattice spacing used in the paper (200 m MHTN, 350 m SF).
    pub client_spacing_m: f64,
    /// Surge areas partitioning the service region.
    pub areas: Vec<SurgeArea>,
    /// `adjacency[i]` lists the areas sharing a border with area `i`.
    pub adjacency: Vec<Vec<AreaId>>,
    /// Demand-origin hotspots.
    pub hotspots: Vec<Hotspot>,
    /// Driving speed (m/s) over the day — slower at rush hour.
    pub drive_speed: DiurnalCurve,
    /// Region-wide ride-request intensity.
    pub demand: DemandProfile,
    /// Driver-availability schedule.
    pub supply: SupplyProfile,
    /// Fraction of the fleet in each product tier (sums to 1).
    pub fleet_mix: Vec<(CarType, f64)>,
    /// Fare schedule per tier.
    pub fares: Vec<(CarType, FareSchedule)>,
    /// Surge-engine tuning for this city.
    pub surge_tuning: SurgeTuning,
}

impl CityModel {
    /// Validates the internal consistency of a model. Called by the
    /// builders; exposed for tests of custom cities.
    pub fn validate(&self) {
        assert_eq!(self.areas.len(), self.adjacency.len(), "adjacency size mismatch");
        assert!(self.areas.iter().enumerate().all(|(i, a)| a.id == AreaId(i)), "area id != index");
        let mix_sum: f64 = self.fleet_mix.iter().map(|(_, f)| f).sum();
        assert!((mix_sum - 1.0).abs() < 1e-6, "fleet mix sums to {mix_sum}");
        for (i, neighbours) in self.adjacency.iter().enumerate() {
            for n in neighbours {
                assert!(n.0 < self.areas.len(), "dangling adjacency");
                assert_ne!(n.0, i, "area adjacent to itself");
                assert!(
                    self.adjacency[n.0].contains(&AreaId(i)),
                    "adjacency not symmetric between {i} and {}",
                    n.0
                );
            }
        }
        assert!(self.client_spacing_m > 0.0);
    }

    /// The surge area containing a planar point, if any. Areas are
    /// disjoint by construction, so the first hit wins.
    pub fn area_of(&self, p: Meters) -> Option<AreaId> {
        self.areas.iter().find(|a| a.polygon.contains(p)).map(|a| a.id)
    }

    /// Geographic version of [`CityModel::area_of`].
    pub fn area_of_latlng(&self, p: LatLng) -> Option<AreaId> {
        self.area_of(self.projection.to_meters(p))
    }

    /// Whether two areas share a border.
    pub fn areas_adjacent(&self, a: AreaId, b: AreaId) -> bool {
        self.adjacency.get(a.0).map_or(false, |v| v.contains(&b))
    }

    /// Samples a point inside the service region, biased toward hotspots:
    /// with probability `hotspot_bias` draw from the hotspot mixture
    /// (rejection-sampled into the region), otherwise uniform over the
    /// region's bounding box (rejected into the polygon).
    pub fn sample_point(&self, rng: &mut SimRng, hotspot_bias: f64) -> Meters {
        if !self.hotspots.is_empty() && rng.chance(hotspot_bias) {
            let weights: Vec<f64> = self.hotspots.iter().map(|h| h.weight).collect();
            if let Some(idx) = rng.choose_weighted_index(&weights) {
                let h = &self.hotspots[idx];
                for _ in 0..32 {
                    let p = Meters::new(
                        rng.normal(h.center.x, h.sigma_m),
                        rng.normal(h.center.y, h.sigma_m),
                    );
                    if self.service_region.contains(p) {
                        return p;
                    }
                }
                // Hotspot hugs the boundary: fall through to uniform.
            }
        }
        self.sample_uniform(rng)
    }

    /// Samples uniformly within the service region.
    pub fn sample_uniform(&self, rng: &mut SimRng) -> Meters {
        let bb = self.service_region.bbox();
        loop {
            let p = Meters::new(
                rng.range_f64(bb.min.x, bb.max.x),
                rng.range_f64(bb.min.y, bb.max.y),
            );
            if self.service_region.contains(p) {
                return p;
            }
        }
    }

    /// Driving speed in m/s at a simulated instant.
    pub fn drive_speed_mps(&self, t: SimTime) -> f64 {
        self.drive_speed.at_hour(t.hour_of_day_f64()).max(1.0)
    }

    /// Driving time in seconds between two planar points at time `t`,
    /// with a rectilinear (Manhattan-distance) detour factor — streets are
    /// grids, not geodesics.
    pub fn drive_time_secs(&self, from: Meters, to: Meters, t: SimTime) -> f64 {
        let l1 = (from.x - to.x).abs() + (from.y - to.y).abs();
        l1 / self.drive_speed_mps(t)
    }

    /// Fare schedule for a tier (falls back to the UberX schedule).
    pub fn fare_schedule(&self, car_type: CarType) -> FareSchedule {
        self.fares
            .iter()
            .find(|(t, _)| *t == car_type)
            .map(|(_, f)| *f)
            .unwrap_or_else(FareSchedule::uberx_2015)
    }

    /// Draws a tier from the fleet mix.
    pub fn sample_car_type(&self, rng: &mut SimRng) -> CarType {
        let weights: Vec<f64> = self.fleet_mix.iter().map(|(_, f)| *f).collect();
        match rng.choose_weighted_index(&weights) {
            Some(i) => self.fleet_mix[i].0,
            None => CarType::UberX,
        }
    }

    /// Number of surge areas.
    pub fn area_count(&self) -> usize {
        self.areas.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_models_validate() {
        CityModel::manhattan_midtown().validate();
        CityModel::san_francisco_downtown().validate();
    }

    #[test]
    fn areas_partition_measurement_region() {
        for city in [CityModel::manhattan_midtown(), CityModel::san_francisco_downtown()] {
            let mut rng = SimRng::seed_from_u64(1);
            for _ in 0..500 {
                let p = city.sample_uniform(&mut rng);
                if city.measurement_region.contains(p) {
                    assert!(
                        city.area_of(p).is_some(),
                        "{}: point {p:?} in measurement region but no surge area",
                        city.name
                    );
                }
            }
        }
    }

    #[test]
    fn areas_are_disjoint() {
        for city in [CityModel::manhattan_midtown(), CityModel::san_francisco_downtown()] {
            let mut rng = SimRng::seed_from_u64(2);
            for _ in 0..500 {
                let p = city.sample_uniform(&mut rng);
                let hits = city.areas.iter().filter(|a| a.polygon.contains(p)).count();
                assert!(hits <= 1, "{}: point in {hits} areas", city.name);
            }
        }
    }

    #[test]
    fn adjacency_reflects_geometry() {
        let city = CityModel::manhattan_midtown();
        // Every area must have at least one neighbour in a 4-area city.
        for (i, n) in city.adjacency.iter().enumerate() {
            assert!(!n.is_empty(), "area {i} has no neighbours");
        }
    }

    #[test]
    fn sample_point_respects_region() {
        let city = CityModel::san_francisco_downtown();
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..300 {
            let p = city.sample_point(&mut rng, 0.7);
            assert!(city.service_region.contains(p));
        }
    }

    #[test]
    fn hotspot_bias_concentrates_points() {
        let city = CityModel::manhattan_midtown();
        let mut rng = SimRng::seed_from_u64(4);
        let h = &city.hotspots[0];
        let near = |pts: &[Meters]| {
            pts.iter().filter(|p| p.dist(h.center) < 2.0 * h.sigma_m).count() as f64
                / pts.len() as f64
        };
        let biased: Vec<Meters> = (0..800).map(|_| city.sample_point(&mut rng, 1.0)).collect();
        let uniform: Vec<Meters> = (0..800).map(|_| city.sample_uniform(&mut rng)).collect();
        assert!(
            near(&biased) > near(&uniform),
            "hotspot sampling should concentrate mass near {}",
            h.name
        );
    }

    #[test]
    fn drive_time_uses_rectilinear_distance() {
        let city = CityModel::manhattan_midtown();
        let t = SimTime::EPOCH;
        let a = Meters::new(0.0, 0.0);
        let b = Meters::new(300.0, 400.0);
        let expected = 700.0 / city.drive_speed_mps(t);
        assert!((city.drive_time_secs(a, b, t) - expected).abs() < 1e-9);
    }

    #[test]
    fn rush_hour_is_slower() {
        let city = CityModel::manhattan_midtown();
        let rush = SimTime(8 * 3600 + 1800);
        let night = SimTime(4 * 3600);
        assert!(city.drive_speed_mps(rush) < city.drive_speed_mps(night));
    }

    #[test]
    fn car_type_sampling_matches_mix() {
        let city = CityModel::manhattan_midtown();
        let mut rng = SimRng::seed_from_u64(5);
        let n = 20_000;
        let x_count = (0..n)
            .filter(|_| city.sample_car_type(&mut rng) == CarType::UberX)
            .count();
        let x_frac = city
            .fleet_mix
            .iter()
            .find(|(t, _)| *t == CarType::UberX)
            .map(|(_, f)| *f)
            .unwrap();
        let got = x_count as f64 / n as f64;
        assert!((got - x_frac).abs() < 0.02, "expected {x_frac}, got {got}");
    }

    #[test]
    fn area_of_latlng_consistent_with_planar() {
        let city = CityModel::manhattan_midtown();
        let mut rng = SimRng::seed_from_u64(6);
        for _ in 0..100 {
            let p = city.sample_uniform(&mut rng);
            let ll = city.projection.to_latlng(p);
            assert_eq!(city.area_of(p), city.area_of_latlng(ll));
        }
    }
}
