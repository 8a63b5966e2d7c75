//! Trace replay engine (the paper's "Uber simulator" for taxis).
//!
//! Semantics follow §3.5 exactly:
//!
//! * between a dropoff and the next pickup the taxi is **available**
//!   (visible) and "drives" in a straight line from the dropoff point
//!   toward the next pickup point;
//! * while carrying a passenger it is **booked** and disappears — these
//!   disappearances are the "deaths" the demand estimator counts;
//! * an idle gap longer than **3 hours** means the taxi went offline for
//!   the gap (the paper notes this filter removes ~5% of sessions);
//! * the public ID is **re-randomized every time the taxi becomes
//!   available** again.
//!
//! The pingClient analogue is split in two: the replay visits its
//! available taxis in fleet order ([`TaxiReplay::for_each_available`]),
//! and the measuring side renders them once per tick and ranks them per
//! client (`TaxiSystem` in `surgescope-core`), so each taxi is rendered
//! once per tick, not once per client it is shown to.

use crate::trace::TaxiTrace;
use surgescope_geo::{Meters, PathVector, Polygon};
use surgescope_simcore::{SimDuration, SimRng, SimTime};

/// Idle gaps longer than this are treated as the taxi going offline.
pub const IDLE_CUTOFF_SECS: u64 = 3 * 3600;

/// A taxi as the replay API exposes it.
#[derive(Debug, Clone, Copy)]
pub struct VisibleTaxi {
    /// Randomized per-availability-period ID.
    pub session: u64,
    /// Current interpolated position.
    pub position: Meters,
}

/// Ground truth accumulated during a replay, per 5-minute interval.
#[derive(Debug, Clone, Default)]
pub struct TaxiGroundTruth {
    /// Distinct taxis that were *available* (hailable) inside the region
    /// at some point in each interval — the population the measurement
    /// methodology is supposed to see (booked taxis are invisible by
    /// protocol design, not by measurement error).
    pub supply: Vec<u32>,
    /// Pickups (bookings) inside the region per interval.
    pub demand: Vec<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Not on the road.
    Offline,
    /// Available: driving toward the next pickup (ride index of that
    /// upcoming ride).
    Available(usize),
    /// Booked on ride `i`.
    Booked(usize),
}

#[derive(Debug, Clone)]
struct TaxiState {
    /// Indices into the trace's ride list, chronological.
    rides: Vec<usize>,
    phase: Phase,
    session: u64,
    position: Meters,
    path: PathVector,
}

/// Replays a [`TaxiTrace`] tick by tick.
pub struct TaxiReplay<'a> {
    trace: &'a TaxiTrace,
    region: Polygon,
    now: SimTime,
    tick_secs: u64,
    taxis: Vec<TaxiState>,
    rng: SimRng,
    truth: TaxiGroundTruth,
    // Open-interval accumulators (distinct availability-period sessions —
    // the same identity space the measurement side observes).
    acc_supply: std::collections::HashSet<u64>,
    acc_demand: u32,
}

impl<'a> TaxiReplay<'a> {
    /// Creates a replay of `trace`; ground truth is accumulated relative
    /// to `region` (the measurement polygon).
    pub fn new(trace: &'a TaxiTrace, region: Polygon, seed: u64) -> Self {
        let mut per_taxi: Vec<Vec<usize>> = vec![Vec::new(); trace.taxi_count as usize];
        for (i, r) in trace.rides.iter().enumerate() {
            per_taxi[r.taxi as usize].push(i);
        }
        // Trace rides are sorted by pickup time, so per-taxi lists are too.
        let taxis = per_taxi
            .into_iter()
            .map(|rides| TaxiState {
                rides,
                phase: Phase::Offline,
                session: 0,
                position: Meters::new(0.0, 0.0),
                path: PathVector::new(8),
            })
            .collect();
        TaxiReplay {
            trace,
            region,
            now: SimTime::EPOCH,
            tick_secs: 5,
            taxis,
            rng: SimRng::seed_from_u64(seed).split("taxi-sessions"),
            truth: TaxiGroundTruth::default(),
            acc_supply: std::collections::HashSet::new(),
            acc_demand: 0,
        }
    }

    /// Current replay time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Ground truth accumulated so far (closed intervals only).
    pub fn truth(&self) -> &TaxiGroundTruth {
        &self.truth
    }

    /// Advances the replay by one 5-second tick.
    pub fn tick(&mut self) {
        let t = self.now;
        for ti in 0..self.taxis.len() {
            self.advance_taxi(ti, t);
        }
        self.now = t + SimDuration::secs(self.tick_secs);
        if self.now.seconds_into_surge_interval() == 0 {
            self.truth.supply.push(self.acc_supply.len() as u32);
            self.truth.demand.push(self.acc_demand);
            self.acc_supply.clear();
            self.acc_demand = 0;
        }
    }

    /// Runs the replay until `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        while self.now < horizon {
            self.tick();
        }
    }

    fn advance_taxi(&mut self, ti: usize, t: SimTime) {
        // Determine phase from the ride schedule. `phase_at` is pure; the
        // mutation below handles session minting and path maintenance.
        let (phase, position) = self.locate(ti, t);
        let state = &mut self.taxis[ti];
        let was = state.phase;
        // Fresh availability period ⇒ fresh public ID and a fresh path.
        let became_available =
            matches!(phase, Phase::Available(_)) && !matches!(was, Phase::Available(i) if Phase::Available(i) == phase);
        if became_available {
            state.session = self.rng.range_u64(1, u64::MAX);
            state.path = PathVector::new(8);
        }
        // Booking event: transition Available(i) -> Booked(i) is the
        // ground-truth pickup (demand) if it happened inside the region.
        if let (Phase::Available(i), Phase::Booked(j)) = (was, phase) {
            if i == j {
                let ride = &self.trace.rides[self.taxis[ti].rides[j]];
                if self.region.contains(ride.pickup) {
                    self.acc_demand += 1;
                }
            }
        }
        let state = &mut self.taxis[ti];
        state.phase = phase;
        state.position = position;
        if !matches!(phase, Phase::Offline) {
            // Maintain the path in geographic-free planar form by pushing a
            // fake LatLng derived from metres; the measurement layer for
            // taxis works in planar space directly, so the path here is
            // informational. We store positions via a tiny equirect trick:
            // treat metres as micro-degrees. (Only relative motion is used.)
            state
                .path
                .push(surgescope_geo::LatLng::new(position.y * 1e-5, position.x * 1e-5));
            if matches!(phase, Phase::Available(_)) && self.region.contains(position) {
                let session = self.taxis[ti].session;
                self.acc_supply.insert(session);
            }
        }
    }

    /// Pure lookup: where is taxi `ti` at time `t`, and in which phase?
    fn locate(&self, ti: usize, t: SimTime) -> (Phase, Meters) {
        let state = &self.taxis[ti];
        let rides = &state.rides;
        if rides.is_empty() {
            return (Phase::Offline, state.position);
        }
        let ride = |k: usize| &self.trace.rides[rides[k]];
        // Before the first pickup: offline (we cannot know where it was).
        if t < ride(0).pickup_at {
            return (Phase::Offline, ride(0).pickup);
        }
        // Find the last ride whose pickup is ≤ t.
        let k = match rides
            .iter()
            .position(|&ri| self.trace.rides[ri].pickup_at > t)
        {
            Some(0) => unreachable!("handled above"),
            Some(p) => p - 1,
            None => rides.len() - 1,
        };
        let r = ride(k);
        if t < r.dropoff_at {
            // Mid-ride: interpolate pickup → dropoff.
            let span = r.dropoff_at.since(r.pickup_at).as_secs().max(1) as f64;
            let f = t.since(r.pickup_at).as_secs() as f64 / span;
            return (Phase::Booked(k), lerp(r.pickup, r.dropoff, f));
        }
        // After dropoff k: heading to pickup k+1, if any and if the gap is
        // within the idle cutoff.
        if k + 1 < rides.len() {
            let next = ride(k + 1);
            let gap = next.pickup_at.since(r.dropoff_at).as_secs();
            if gap <= IDLE_CUTOFF_SECS {
                let span = gap.max(1) as f64;
                let f = t.since(r.dropoff_at).as_secs() as f64 / span;
                return (Phase::Available(k + 1), lerp(r.dropoff, next.pickup, f));
            }
            return (Phase::Offline, r.dropoff);
        }
        (Phase::Offline, r.dropoff)
    }

    /// All currently available taxis.
    pub fn visible(&self) -> Vec<VisibleTaxi> {
        self.taxis
            .iter()
            .filter(|s| matches!(s.phase, Phase::Available(_)))
            .map(|s| VisibleTaxi { session: s.session, position: s.position })
            .collect()
    }

    /// Visits every available taxi, in fleet order (the order of
    /// [`TaxiReplay::visible`]), as `(session, position, displacement)`:
    /// what a pingClient analogue shows of it. The displacement runs from
    /// the oldest to the newest point of the taxi's path, `None` before it
    /// has two. A tick's pings render the fleet once through this and
    /// scan the rendering, so each taxi is rendered once per tick however
    /// many clients are shown it.
    pub fn for_each_available(&self, mut visit: impl FnMut(u64, Meters, Option<Meters>)) {
        for s in self.taxis.iter().filter(|s| matches!(s.phase, Phase::Available(_))) {
            let displacement = match (s.path.points().next(), s.path.last()) {
                (Some(first), Some(last)) if s.path.len() >= 2 => {
                    Some(path_meters(last).sub(path_meters(first)))
                }
                _ => None,
            };
            visit(s.session, s.position, displacement);
        }
    }
}

/// Inverse of the micro-degree encoding `advance_taxi` pushes onto paths.
fn path_meters(ll: surgescope_geo::LatLng) -> Meters {
    Meters::new(ll.lng * 1e5, ll.lat * 1e5)
}

fn lerp(a: Meters, b: Meters, f: f64) -> Meters {
    let f = f.clamp(0.0, 1.0);
    Meters::new(a.x + (b.x - a.x) * f, a.y + (b.y - a.y) * f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TaxiRide, TraceGenerator};
    use surgescope_city::CityModel;

    fn hand_trace() -> TaxiTrace {
        // One taxi, two rides separated by a 10-minute gap, then a 4-hour
        // gap to a third ride (exceeds the idle cutoff).
        let rides = vec![
            TaxiRide {
                taxi: 0,
                pickup_at: SimTime(600),
                pickup: Meters::new(0.0, 0.0),
                dropoff_at: SimTime(1200),
                dropoff: Meters::new(600.0, 0.0),
            },
            TaxiRide {
                taxi: 0,
                pickup_at: SimTime(1800),
                pickup: Meters::new(600.0, 600.0),
                dropoff_at: SimTime(2400),
                dropoff: Meters::new(0.0, 600.0),
            },
            TaxiRide {
                taxi: 0,
                pickup_at: SimTime(2400 + 4 * 3600),
                pickup: Meters::new(100.0, 100.0),
                dropoff_at: SimTime(3000 + 4 * 3600),
                dropoff: Meters::new(200.0, 200.0),
            },
        ];
        TaxiTrace { rides, taxi_count: 1 }
    }

    fn region() -> Polygon {
        Polygon::rect(Meters::new(-1000.0, -1000.0), Meters::new(2000.0, 2000.0))
    }

    #[test]
    fn invisible_before_first_pickup() {
        let trace = hand_trace();
        let mut rp = TaxiReplay::new(&trace, region(), 1);
        rp.run_until(SimTime(300));
        assert!(rp.visible().is_empty());
    }

    #[test]
    fn booked_taxi_invisible_then_reappears() {
        let trace = hand_trace();
        let mut rp = TaxiReplay::new(&trace, region(), 1);
        rp.run_until(SimTime(900)); // mid-ride 1
        assert!(rp.visible().is_empty(), "booked taxi must be invisible");
        rp.run_until(SimTime(1500)); // idle gap between rides
        let v = rp.visible();
        assert_eq!(v.len(), 1, "idle taxi visible in the gap");
    }

    #[test]
    fn idle_position_interpolates_toward_next_pickup() {
        let trace = hand_trace();
        let mut rp = TaxiReplay::new(&trace, region(), 1);
        // Gap runs 1200 → 1800, dropoff (600,0) → next pickup (600,600).
        rp.run_until(SimTime(1500));
        let v = rp.visible();
        let p = v[0].position;
        assert!((p.x - 600.0).abs() < 1e-9);
        assert!((p.y - 300.0).abs() < 15.0, "midway, got {p:?}");
    }

    #[test]
    fn long_gap_is_offline() {
        let trace = hand_trace();
        let mut rp = TaxiReplay::new(&trace, region(), 1);
        rp.run_until(SimTime(2400 + 3600)); // one hour into the 4 h gap
        assert!(rp.visible().is_empty(), "gap exceeds idle cutoff");
    }

    #[test]
    fn session_ids_differ_between_availability_periods() {
        let trace = hand_trace();
        let mut rp = TaxiReplay::new(&trace, region(), 1);
        rp.run_until(SimTime(1500));
        let s1 = rp.visible()[0].session;
        // Next availability period is during ride 3's... there is none
        // after ride 3 (last ride), so check the pre-ride-2 period is the
        // same session, then compare across gap: taxi becomes available
        // again... ride 3 has no following pickup, so use ride 2's gap
        // only. Instead re-run and sample both gaps of a generated trace.
        let city = CityModel::manhattan_midtown();
        let gen = TraceGenerator { taxis: 5, days: 1, ..Default::default() };
        let trace2 = gen.generate(&city, 3);
        let mut rp2 = TaxiReplay::new(&trace2, city.measurement_region.clone(), 2);
        let mut seen = std::collections::HashSet::new();
        let horizon = SimTime(86_400);
        while rp2.now() < horizon {
            rp2.tick();
            for t in rp2.visible() {
                seen.insert(t.session);
            }
        }
        // Far more sessions than taxis ⇒ IDs rotate per availability.
        assert!(
            seen.len() > 5,
            "expected rotating IDs, saw {} sessions for 5 taxis",
            seen.len()
        );
        let _ = s1;
    }

    #[test]
    fn ground_truth_counts_pickups() {
        let trace = hand_trace();
        let mut rp = TaxiReplay::new(&trace, region(), 1);
        rp.run_until(SimTime(3000));
        let demand: u32 = rp.truth().demand.iter().sum();
        // Pickup 1 happens while Offline→Booked (not counted: the paper's
        // methodology also cannot see a car that was never available).
        // Pickup 2 transitions Available→Booked inside the region.
        assert_eq!(demand, 1);
    }

    /// The visitor walks exactly the taxis `visible()` lists, in its
    /// order (fleet order, which keeps the ping kernel's ties), at every
    /// tick of a day, with each displacement spanning its taxi's path.
    #[test]
    fn for_each_available_visits_visible_in_fleet_order() {
        let city = CityModel::manhattan_midtown();
        let gen = TraceGenerator { taxis: 120, days: 1, ..Default::default() };
        let trace = gen.generate(&city, 9);
        let mut rp = TaxiReplay::new(&trace, city.measurement_region.clone(), 4);
        let (mut busiest, mut moving) = (0, 0);
        while rp.now() < SimTime(86_400) {
            rp.tick();
            let mut seen = Vec::new();
            rp.for_each_available(|session, position, displacement| {
                seen.push((session, position.x.to_bits(), position.y.to_bits()));
                moving += usize::from(displacement.is_some_and(|d| d.x != 0.0 || d.y != 0.0));
            });
            let want: Vec<_> = rp
                .visible()
                .iter()
                .map(|t| (t.session, t.position.x.to_bits(), t.position.y.to_bits()))
                .collect();
            assert_eq!(seen, want, "at {:?}", rp.now());
            busiest = busiest.max(seen.len());
        }
        assert!(busiest > 8, "never more than 8 taxis available; the order is untested");
        assert!(moving > 0, "no available taxi ever moved; displacements are untested");
    }

    #[test]
    fn supply_truth_tracks_active_taxis() {
        let city = CityModel::manhattan_midtown();
        let gen = TraceGenerator { taxis: 80, days: 1, ..Default::default() };
        let trace = gen.generate(&city, 10);
        let mut rp = TaxiReplay::new(&trace, city.measurement_region.clone(), 5);
        rp.run_until(SimTime(86_400));
        let truth = rp.truth();
        assert_eq!(truth.supply.len(), 288);
        let evening: u32 = truth.supply[222..240].iter().sum(); // ~18:30–20:00
        let dawn: u32 = truth.supply[54..72].iter().sum(); // ~4:30–6:00
        assert!(evening > dawn, "evening {evening} vs dawn {dawn}");
    }
}
