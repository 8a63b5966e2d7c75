//! Demand and supply workload profiles.
//!
//! Fig. 8 of the paper shows both supply and demand peaking around rush
//! hours with a 4 a.m. trough, weekend shapes shifted toward midday, and
//! SF showing a pronounced 2 a.m. "last call" demand spike. A profile is a
//! pair of [`DiurnalCurve`]s (weekday / weekend) plus scale factors.

use serde::{Deserialize, Serialize};
use surgescope_simcore::{DiurnalCurve, SimTime};

/// Ride-request intensity for a whole region, in requests per hour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandProfile {
    weekday: DiurnalCurve,
    weekend: DiurnalCurve,
}

impl DemandProfile {
    /// Builds a profile from weekday and weekend curves (requests/hour).
    pub fn new(weekday: DiurnalCurve, weekend: DiurnalCurve) -> Self {
        DemandProfile { weekday, weekend }
    }

    /// Request rate (requests per hour) at a simulated instant.
    pub fn rate_per_hour(&self, t: SimTime) -> f64 {
        let curve = if t.day_of_week().is_weekend() { &self.weekend } else { &self.weekday };
        curve.at_hour(t.hour_of_day_f64()).max(0.0)
    }

    /// Expected number of requests in a window of `dt_secs` starting at `t`
    /// (rate treated as constant over the window; windows are ≤ 5 s).
    pub fn expected_in_window(&self, t: SimTime, dt_secs: u64) -> f64 {
        self.rate_per_hour(t) * dt_secs as f64 / 3600.0
    }

    /// Uniformly scales both curves.
    pub fn scaled(&self, k: f64) -> DemandProfile {
        DemandProfile { weekday: self.weekday.scaled(k), weekend: self.weekend.scaled(k) }
    }
}

/// Target number of drivers online for a region over the day.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupplyProfile {
    weekday: DiurnalCurve,
    weekend: DiurnalCurve,
    /// Total driver pool the schedule draws from. The instantaneous target
    /// can never exceed this.
    pub fleet_size: usize,
}

impl SupplyProfile {
    /// Builds a supply profile; curves are *target online drivers*.
    pub fn new(weekday: DiurnalCurve, weekend: DiurnalCurve, fleet_size: usize) -> Self {
        assert!(fleet_size > 0, "fleet must be non-empty");
        SupplyProfile { weekday, weekend, fleet_size }
    }

    /// Target online-driver count at `t`, capped by the fleet size.
    pub fn target_online(&self, t: SimTime) -> usize {
        let curve = if t.day_of_week().is_weekend() { &self.weekend } else { &self.weekday };
        let v = curve.at_hour(t.hour_of_day_f64()).max(0.0).round() as usize;
        v.min(self.fleet_size)
    }

    /// Scales the target curves (not the fleet size).
    pub fn scaled(&self, k: f64) -> SupplyProfile {
        SupplyProfile {
            weekday: self.weekday.scaled(k),
            weekend: self.weekend.scaled(k),
            fleet_size: self.fleet_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surgescope_simcore::SimDuration;

    fn demand() -> DemandProfile {
        DemandProfile::new(
            DiurnalCurve::new(vec![(4.0, 10.0), (8.0, 100.0), (13.0, 60.0), (17.5, 120.0), (22.0, 40.0)]),
            DiurnalCurve::new(vec![(4.0, 20.0), (13.0, 90.0), (20.0, 70.0)]),
        )
    }

    #[test]
    fn weekday_rush_peaks() {
        let d = demand();
        let mon = SimTime::EPOCH; // Monday midnight
        let rush = mon + SimDuration::hours(8);
        let night = mon + SimDuration::hours(4);
        assert!(d.rate_per_hour(rush) > d.rate_per_hour(night) * 5.0);
    }

    #[test]
    fn weekend_uses_weekend_curve() {
        let d = demand();
        let sat_noon = SimTime::EPOCH + SimDuration::days(5) + SimDuration::hours(13);
        let mon_noon = SimTime::EPOCH + SimDuration::hours(13);
        assert!((d.rate_per_hour(sat_noon) - 90.0).abs() < 1.0);
        assert!((d.rate_per_hour(mon_noon) - 60.0).abs() < 1.0);
    }

    #[test]
    fn expected_in_window_scales_linearly() {
        let d = demand();
        let t = SimTime::EPOCH + SimDuration::hours(8);
        let e5 = d.expected_in_window(t, 5);
        let e10 = d.expected_in_window(t, 10);
        assert!((e10 - 2.0 * e5).abs() < 1e-12);
        // 100 req/hour -> 5s window expects 100*5/3600.
        assert!((e5 - 100.0 * 5.0 / 3600.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_demand() {
        let d = demand().scaled(2.0);
        let t = SimTime::EPOCH + SimDuration::hours(8);
        assert!((d.rate_per_hour(t) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn supply_target_capped_by_fleet() {
        let s = SupplyProfile::new(
            DiurnalCurve::constant(500.0),
            DiurnalCurve::constant(500.0),
            120,
        );
        assert_eq!(s.target_online(SimTime::EPOCH), 120);
    }

    #[test]
    fn supply_never_negative() {
        let s = SupplyProfile::new(
            DiurnalCurve::new(vec![(0.0, -5.0), (12.0, 50.0)]),
            DiurnalCurve::constant(0.0),
            100,
        );
        assert_eq!(s.target_online(SimTime::EPOCH), 0);
    }
}
