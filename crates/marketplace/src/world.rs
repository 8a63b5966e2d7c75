//! The marketplace world: ties drivers, riders, dispatch and surge into a
//! single deterministic tick loop.
//!
//! One tick is 5 simulated seconds (the client ping cadence); the surge
//! clock closes a window every 60 ticks. Within a tick the order is fixed
//! — shifts, retries, fresh arrivals, movement, accounting — so a seeded
//! run is bit-reproducible.

use crate::driver::{Driver, DriverId, DriverState};
use crate::metrics::{GroundTruth, IntervalStats, TickTimers, TripRecord};
use crate::surge::{SurgeEngine, SurgePolicy};
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;
use surgescope_city::{AreaId, CarType, CityModel};
use surgescope_geo::{LatLng, Meters, PathVector};
use surgescope_simcore::{EventQueue, SimDuration, SimRng, SimTime};

/// Behavioural constants of the marketplace (city-independent).
#[derive(Debug, Clone, Copy)]
pub struct MarketplaceConfig {
    /// Simulation step, seconds. The protocol pings every 5 s, so 5 is
    /// the natural (and default) resolution.
    pub tick_secs: u64,
    /// Riders farther than this from every idle driver go unserved.
    pub match_radius_m: f64,
    /// Fixed dispatch overhead added to EWT estimates, seconds.
    pub dispatch_overhead_secs: f64,
    /// Price elasticity: conversion probability is `m^(-elasticity)` at
    /// multiplier `m` (the paper found surge has a *large negative* effect
    /// on demand, §5.5).
    pub elasticity: f64,
    /// Fraction of priced-out riders who "wait out" the surge and retry
    /// early in the next 5-minute interval (§5.5 discussion).
    pub wait_out_prob: f64,
    /// Extra supply attracted per unit of mean surge above 1 (the small
    /// positive supply effect of Fig. 22: ≈3.7% more new cars).
    pub surge_supply_boost: f64,
    /// Per-tick probability that an idle driver retargets toward an
    /// adjacent area surging ≥ 0.2 above its own (weak flocking).
    pub reposition_prob: f64,
    /// EWT reported when no car of the requested tier is findable, minutes
    /// (the app shows large worst-case waits; paper saw up to 43 min).
    pub default_ewt_min: f64,
    /// Probability a ride request originates at a hotspot rather than
    /// uniformly.
    pub hotspot_bias: f64,
    /// Fraction of shift-capacity churn applied per tick (smooths the
    /// online-count toward its target instead of teleporting it).
    pub shift_smoothing: f64,
    /// Surge publication policy. `Threshold` reproduces measured Uber;
    /// `Smoothed` evaluates the paper's §8 moving-average proposal.
    pub surge_policy: SurgePolicy,
}

impl Default for MarketplaceConfig {
    fn default() -> Self {
        MarketplaceConfig {
            tick_secs: 5,
            match_radius_m: 3_000.0,
            dispatch_overhead_secs: 60.0,
            elasticity: 1.8,
            wait_out_prob: 0.5,
            surge_supply_boost: 0.05,
            reposition_prob: 0.02,
            default_ewt_min: 12.0,
            hotspot_bias: 0.7,
            shift_smoothing: 0.15,
            surge_policy: SurgePolicy::Threshold,
        }
    }
}

impl MarketplaceConfig {
    /// EWT in minutes from the drive time of the nearest idle car, or the
    /// default when there is none. The one EWT formula: the marketplace
    /// and the protocol layer's snapshot both call it, so their minutes
    /// agree bit for bit.
    pub fn ewt_from_drive_secs(&self, drive_secs: Option<f64>) -> f64 {
        match drive_secs {
            Some(secs) => ((secs + self.dispatch_overhead_secs) / 60.0).max(1.0),
            None => self.default_ewt_min,
        }
    }
}

/// A car as exposed to the protocol layer: only what pingClient reveals.
#[derive(Debug, Clone)]
pub struct VisibleCar {
    /// Randomized per-session public ID.
    pub session: crate::driver::SessionId,
    /// Product tier.
    pub car_type: CarType,
    /// Planar position.
    pub position: Meters,
    /// Geographic position.
    pub latlng: LatLng,
    /// Recent movement trace, shared with the driver (snapshots clone the
    /// handle, not the points).
    pub path: Arc<PathVector>,
}

/// A rider who was priced out and chose to wait for the next interval.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct RetryRequest {
    pickup: Meters,
    dropoff: Meters,
    car_type: CarType,
}

/// Per-area accumulators for the open 5-minute interval.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct AreaAccum {
    online_ticks: f64,
    idle_ticks: f64,
    requests: u32,
    pickups: u32,
    priced_out: u32,
    unserved: u32,
    ewt_sum_min: f64,
    ewt_samples: u32,
}

/// The simulated city marketplace.
pub struct Marketplace {
    city: Arc<CityModel>,
    cfg: MarketplaceConfig,
    now: SimTime,
    drivers: Vec<Driver>,
    surge: SurgeEngine,
    retries: EventQueue<RetryRequest>,
    truth: GroundTruth,
    acc: Vec<AreaAccum>,
    rng_shift: SimRng,
    rng_demand: SimRng,
    rng_drive: SimRng,
    ticks_run: u64,
    /// Idle (visible) driver indices, one unordered list per tier, indexed
    /// by `CarType as usize`. A list changes only when a driver's
    /// visibility does (shift start or end, dispatch, trip completion), so
    /// it always holds exactly the tier's visible drivers; positions are
    /// read from `drivers`, so idle cruising never touches it.
    idle: [Vec<u32>; CarType::ALL.len()],
    /// Scratch buffer for `idle_drift`'s surge-chasing candidate list,
    /// reused across drivers and ticks. Purely transient (cleared before
    /// every use); never serialized.
    drift_scratch: Vec<AreaId>,
    /// The root seed every random stream derives from, kept so coupled
    /// subsystems (e.g. the transport fault injector) can derive their own
    /// independent streams from the same campaign seed.
    seed: u64,
    /// Wall-clock tick-phase telemetry. Purely observational (never
    /// serialized — a restored world starts fresh timers).
    timers: TickTimers,
}

impl Marketplace {
    /// Builds a marketplace for `city`, seeding every random stream from
    /// `seed`. The driver pool is materialized immediately (all offline);
    /// call [`Marketplace::run_for`] or [`Marketplace::tick`] to start the
    /// world.
    pub fn new(city: CityModel, cfg: MarketplaceConfig, seed: u64) -> Self {
        assert!(cfg.tick_secs > 0 && 300 % cfg.tick_secs == 0, "tick must divide 300 s");
        let root = SimRng::seed_from_u64(seed);
        let mut rng_fleet = root.split("fleet");
        let mut drivers = Vec::with_capacity(city.supply.fleet_size);
        for i in 0..city.supply.fleet_size {
            let car_type = city.sample_car_type(&mut rng_fleet);
            let position = city.sample_point(&mut rng_fleet, cfg.hotspot_bias);
            drivers.push(Driver::new(DriverId(i as u32), car_type, position));
        }
        let surge = SurgeEngine::new(
            city.area_count(),
            city.surge_tuning,
            root.split("surge"),
        )
        .with_policy(cfg.surge_policy);
        let acc = vec![AreaAccum::default(); city.area_count()];
        let mut mp = Marketplace {
            city: Arc::new(city),
            cfg,
            now: SimTime::EPOCH,
            drivers,
            surge,
            retries: EventQueue::new(),
            truth: GroundTruth::default(),
            acc,
            rng_shift: root.split("shift"),
            rng_demand: root.split("demand"),
            rng_drive: root.split("drive"),
            ticks_run: 0,
            idle: Default::default(),
            drift_scratch: Vec::new(),
            seed,
            timers: TickTimers::default(),
        };
        mp.rebuild_idle_index();
        mp
    }

    /// The root seed this world was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Serializes every piece of mutable world state — drivers, surge
    /// engine (including its RNG), retry queue, ground truth, interval
    /// accumulators, the three world RNG streams and the clock. The city
    /// model and behaviour config are *not* included: they are pure
    /// functions of the campaign config and are supplied again on
    /// [`restore_state`](Marketplace::restore_state). The idle lists are
    /// derived state, rebuilt on restore.
    pub fn save_state(&self) -> Value {
        Value::Map(vec![
            ("now".into(), self.now.to_value()),
            ("drivers".into(), self.drivers.to_value()),
            ("surge".into(), self.surge.to_value()),
            ("retries".into(), self.retries.to_value()),
            ("truth".into(), self.truth.to_value()),
            ("acc".into(), self.acc.to_value()),
            ("rng_shift".into(), self.rng_shift.to_value()),
            ("rng_demand".into(), self.rng_demand.to_value()),
            ("rng_drive".into(), self.rng_drive.to_value()),
            ("ticks_run".into(), self.ticks_run.to_value()),
            ("seed".into(), self.seed.to_value()),
        ])
    }

    /// Rebuilds a world from [`save_state`](Marketplace::save_state)
    /// output plus the (re-derived) city model and config. The restored
    /// world continues bit-identically to the original.
    pub fn restore_state(
        city: CityModel,
        cfg: MarketplaceConfig,
        v: &Value,
    ) -> Result<Self, serde::Error> {
        let mut mp = Marketplace {
            city: Arc::new(city),
            cfg,
            now: SimTime::from_value(v.field("now")?)?,
            drivers: Vec::<Driver>::from_value(v.field("drivers")?)?,
            surge: SurgeEngine::from_value(v.field("surge")?)?,
            retries: EventQueue::from_value(v.field("retries")?)?,
            truth: GroundTruth::from_value(v.field("truth")?)?,
            acc: Vec::<AreaAccum>::from_value(v.field("acc")?)?,
            rng_shift: SimRng::from_value(v.field("rng_shift")?)?,
            rng_demand: SimRng::from_value(v.field("rng_demand")?)?,
            rng_drive: SimRng::from_value(v.field("rng_drive")?)?,
            ticks_run: u64::from_value(v.field("ticks_run")?)?,
            idle: Default::default(),
            drift_scratch: Vec::new(),
            seed: u64::from_value(v.field("seed")?)?,
            timers: TickTimers::default(),
        };
        mp.rebuild_idle_index();
        Ok(mp)
    }

    /// Current simulated time (start of the next tick).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The city being simulated.
    pub fn city(&self) -> &CityModel {
        &self.city
    }

    /// Shared handle to the (immutable) city model, for snapshots that
    /// outlive a borrow of the marketplace.
    pub fn city_arc(&self) -> Arc<CityModel> {
        Arc::clone(&self.city)
    }

    /// The behaviour configuration.
    pub fn config(&self) -> &MarketplaceConfig {
        &self.cfg
    }

    /// The surge engine (read access for the protocol layer).
    pub fn surge_engine(&self) -> &SurgeEngine {
        &self.surge
    }

    /// Ground truth recorded so far.
    pub fn truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// Consumes the world, returning its ground truth.
    pub fn into_truth(self) -> GroundTruth {
        self.truth
    }

    /// All currently visible (idle) cars, in driver-index order.
    pub fn visible_cars(&self) -> Vec<VisibleCar> {
        let mut out = Vec::new();
        self.for_each_visible_car(|c| out.push(c));
        out
    }

    /// Visits every visible (idle) car in driver-index order without
    /// materializing a vector — the per-tick snapshot capture streams
    /// cars straight into its reused tier buckets through this.
    pub fn for_each_visible_car(&self, mut f: impl FnMut(VisibleCar)) {
        for d in self.drivers.iter().filter(|d| d.state.is_visible()) {
            f(VisibleCar {
                session: d.session.expect("idle driver always has a session"),
                car_type: d.car_type,
                position: d.position,
                latlng: self.city.projection.to_latlng(d.position),
                path: d.path.clone(),
            });
        }
    }

    /// True number of online drivers (any state).
    pub fn online_count(&self) -> usize {
        self.drivers.iter().filter(|d| d.state.is_online()).count()
    }

    /// Estimated wait time in minutes for a `car_type` pickup at `pos`:
    /// travel time of the nearest idle car of that tier plus dispatch
    /// overhead, or the configured default when none is in range.
    pub fn ewt_minutes(&self, pos: Meters, car_type: CarType) -> f64 {
        // Drive time is rectilinear distance over a speed that depends only
        // on the clock, so the L1-nearest idle car sets it.
        let drive_secs = self.nearest_idle(pos, car_type, f64::INFINITY).map(|(i, _)| {
            self.city.drive_time_secs(self.drivers[i as usize].position, pos, self.now)
        });
        self.cfg.ewt_from_drive_secs(drive_secs)
    }

    /// The idle driver of `car_type` nearest `pos` in L1 distance, within
    /// `max_dist` inclusive, as `(driver index, L1 distance)`. Ties go to
    /// the lowest driver index, never to list position: `swap_remove`
    /// permutes the lists and a restore rebuilds them in index order, so
    /// an uninterrupted and a resumed run hold them in different orders.
    /// The answer is the one a first-strictly-less scan of `drivers` in
    /// index order keeps.
    fn nearest_idle(&self, pos: Meters, car_type: CarType, max_dist: f64) -> Option<(u32, f64)> {
        let mut best: Option<(u32, f64)> = None;
        for &i in &self.idle[car_type as usize] {
            let p = self.drivers[i as usize].position;
            let dist = (p.x - pos.x).abs() + (p.y - pos.y).abs();
            if dist <= max_dist && best.is_none_or(|(bi, bd)| dist < bd || (dist == bd && i < bi)) {
                best = Some((i, dist));
            }
        }
        best
    }

    /// Takes driver `i` off its tier's idle list. A missing entry means the
    /// lists diverged from the drivers' states, which must fail loudly
    /// rather than skew dispatch.
    fn remove_idle(idle: &mut [Vec<u32>], car_type: CarType, i: usize) {
        let list = &mut idle[car_type as usize];
        let at = list
            .iter()
            .position(|&j| j as usize == i)
            .unwrap_or_else(|| panic!("driver {i} missing from the {car_type:?} idle list"));
        list.swap_remove(at);
    }

    /// Builds the idle lists from scratch, in driver-index order, each
    /// reserved to its tier's driver count so maintenance never
    /// allocates. Called at construction and restore; after that every
    /// visibility change maintains the lists in place.
    fn rebuild_idle_index(&mut self) {
        let mut per_tier = [0usize; CarType::ALL.len()];
        for d in &self.drivers {
            per_tier[d.car_type as usize] += 1;
        }
        self.idle = per_tier.map(Vec::with_capacity);
        for (i, d) in self.drivers.iter().enumerate() {
            if d.state.is_visible() {
                self.idle[d.car_type as usize].push(i as u32);
            }
        }
    }

    /// Runs the world for a duration (must be a whole number of ticks).
    pub fn run_for(&mut self, d: SimDuration) {
        let ticks = d.as_secs() / self.cfg.tick_secs;
        assert_eq!(d.as_secs() % self.cfg.tick_secs, 0, "duration must align to ticks");
        for _ in 0..ticks {
            self.tick();
        }
    }

    /// This world's tick-phase timers (wall clock, observational only).
    pub fn tick_timers(&self) -> &TickTimers {
        &self.timers
    }

    /// Advances the world by one tick (5 s by default).
    pub fn tick(&mut self) {
        let dt = self.cfg.tick_secs;
        let t = self.now;

        {
            let _span = self.timers.dispatch.start();
            self.manage_shifts(t);
            self.process_retries(t);
            self.generate_demand(t, dt);
        }
        {
            let _span = self.timers.mv.start();
            self.move_drivers(t, dt);
        }
        {
            let _span = self.timers.accumulate.start();
            self.accumulate(t, dt);
        }

        self.now = t + SimDuration::secs(dt);
        self.ticks_run += 1;
        if self.now.seconds_into_surge_interval() == 0 {
            let _span = self.timers.surge.start();
            self.close_interval();
        }
    }

    // ---- shift management -------------------------------------------------

    fn surge_attraction(&self) -> f64 {
        let base = &self.surge.current().base;
        if base.is_empty() {
            return 0.0;
        }
        let mean: f64 = base.iter().sum::<f64>() / base.len() as f64;
        (mean - 1.0).max(0.0)
    }

    fn manage_shifts(&mut self, t: SimTime) {
        let mut target = self.city.supply.target_online(t) as f64;
        // Higher prices pull a few extra drivers onto the road.
        target *= 1.0 + self.cfg.surge_supply_boost * self.surge_attraction();
        let target = target.round() as usize;
        let online = self.online_count();

        if online < target {
            let deficit = target - online;
            let batch = ((deficit as f64 * self.cfg.shift_smoothing).ceil() as usize).max(1);
            let mut brought = 0;
            // Scan from a random offset so the same drivers don't always
            // start first.
            let n = self.drivers.len();
            let start = self.rng_shift.range_usize(0, n);
            for k in 0..n {
                if brought >= batch {
                    break;
                }
                let i = (start + k) % n;
                if !self.drivers[i].state.is_online() {
                    let pos = self.city.sample_point(&mut self.rng_shift, self.cfg.hotspot_bias);
                    let d = &mut self.drivers[i];
                    d.come_online(pos, t, &mut self.rng_shift);
                    d.shift_secs = Self::sample_shift_secs(d.car_type, &mut self.rng_shift);
                    self.idle[d.car_type as usize].push(i as u32);
                    self.truth.sessions_started += 1;
                    brought += 1;
                }
            }
        } else if online > target {
            let excess = online - target;
            let batch = ((excess as f64 * self.cfg.shift_smoothing).ceil() as usize).max(1);
            let mut sent = 0;
            let n = self.drivers.len();
            let start = self.rng_shift.range_usize(0, n);
            for k in 0..n {
                if sent >= batch {
                    break;
                }
                let i = (start + k) % n;
                if matches!(self.drivers[i].state, DriverState::Idle) {
                    self.drivers[i].go_offline();
                    Self::remove_idle(&mut self.idle, self.drivers[i].car_type, i);
                    sent += 1;
                }
            }
        }

        // Idle drivers past their shift go home regardless of the target.
        let Marketplace { drivers, idle, .. } = self;
        for (i, d) in drivers.iter_mut().enumerate() {
            if matches!(d.state, DriverState::Idle) {
                if let Some(since) = d.online_since {
                    if t.since(since).as_secs() >= d.shift_secs {
                        d.go_offline();
                        Self::remove_idle(idle, d.car_type, i);
                    }
                }
            }
        }
    }

    /// Shift lengths: low-priced tiers are dominated by short casual
    /// sessions; BLACK/SUV drivers are professionals with long shifts —
    /// this asymmetry is what Fig. 7 measures.
    fn sample_shift_secs(car_type: CarType, rng: &mut SimRng) -> u64 {
        let hours = if car_type.is_low_priced() {
            // Mostly 1–6 h, occasionally longer.
            0.75 + rng.exp(1.0 / 2.0)
        } else {
            3.0 + rng.exp(1.0 / 4.0)
        };
        (hours.min(14.0) * 3600.0) as u64
    }

    // ---- demand -----------------------------------------------------------

    fn process_retries(&mut self, t: SimTime) {
        while let Some(ev) = self.retries.pop_due(t) {
            let r = ev.event;
            // Retrying riders accept the price if it dropped; they have
            // already demonstrated elasticity, so only a still-surging
            // price can price them out again (without a second retry).
            let area = self.city.area_of(r.pickup);
            let m = area.map_or(1.0, |a| self.surge.multiplier(a, r.car_type));
            let accept = m <= 1.0 || self.rng_demand.chance(m.powf(-self.cfg.elasticity));
            if let Some(a) = area {
                self.acc[a.0].requests += 1;
                self.surge.record_request(a);
            }
            if accept {
                self.try_match(t, r.pickup, r.dropoff, r.car_type, m, area);
            } else if let Some(a) = area {
                self.acc[a.0].priced_out += 1;
            }
        }
    }

    fn generate_demand(&mut self, t: SimTime, dt: u64) {
        let lambda = self.city.demand.expected_in_window(t, dt);
        let n = self.rng_demand.poisson(lambda);
        for _ in 0..n {
            let pickup = self.city.sample_point(&mut self.rng_demand, self.cfg.hotspot_bias);
            let dropoff = self.city.sample_point(&mut self.rng_demand, 0.5);
            let car_type = self.city.sample_car_type(&mut self.rng_demand);
            let area = self.city.area_of(pickup);
            if let Some(a) = area {
                self.acc[a.0].requests += 1;
                self.surge.record_request(a);
            }
            let m = area.map_or(1.0, |a| self.surge.multiplier(a, car_type));

            // Price elasticity: surge suppresses conversion sharply.
            if m > 1.0 && !self.rng_demand.chance(m.powf(-self.cfg.elasticity)) {
                if let Some(a) = area {
                    self.acc[a.0].priced_out += 1;
                }
                if self.rng_demand.chance(self.cfg.wait_out_prob) {
                    // Retry shortly after the next surge recomputation.
                    let next = t.surge_interval_start()
                        + SimDuration::secs(300 + self.rng_demand.range_u64(5, 60));
                    self.retries.schedule(next, RetryRequest { pickup, dropoff, car_type });
                }
                continue;
            }
            self.try_match(t, pickup, dropoff, car_type, m, area);
        }
    }

    fn try_match(
        &mut self,
        t: SimTime,
        pickup: Meters,
        dropoff: Meters,
        car_type: CarType,
        surge: f64,
        area: Option<AreaId>,
    ) {
        match self.nearest_idle(pickup, car_type, self.cfg.match_radius_m) {
            Some((i, _)) => {
                let i = i as usize;
                let trip_idx = self.truth.trips.len();
                let distance_m =
                    (pickup.x - dropoff.x).abs() + (pickup.y - dropoff.y).abs();
                self.truth.trips.push(TripRecord {
                    requested_at: t,
                    car_type,
                    surge,
                    pickup_area: area.map_or(usize::MAX, |a| a.0),
                    distance_m,
                    fare: None,
                });
                let d = &mut self.drivers[i];
                d.dispatch(pickup, dropoff);
                d.trip_idx = Some(trip_idx);
                Self::remove_idle(&mut self.idle, car_type, i);
                if let Some(a) = area {
                    self.acc[a.0].pickups += 1;
                }
            }
            None => {
                if let Some(a) = area {
                    self.acc[a.0].unserved += 1;
                }
            }
        }
    }

    // ---- movement ---------------------------------------------------------

    fn move_drivers(&mut self, t: SimTime, dt: u64) {
        let speed = self.city.drive_speed_mps(t);
        let step = speed * dt as f64;
        // Idle drivers cruise slower than dispatched ones.
        let idle_step = step * 0.5;

        // Split the borrow: repositioning reads the surge base in place
        // while drivers are mutated, instead of cloning the per-area vector
        // every tick.
        let Marketplace {
            city, cfg, drivers, surge, truth, rng_drive, idle, drift_scratch, ..
        } = self;
        let city: &CityModel = city;
        let base: &[f64] = &surge.current().base;

        for (i, d) in drivers.iter_mut().enumerate() {
            let state = d.state;
            match state {
                DriverState::Offline => continue,
                DriverState::EnRoute { pickup, dropoff } => {
                    if d.advance_towards(pickup, step) {
                        d.state = DriverState::OnTrip { dropoff };
                        d.trip_started = Some(t);
                    }
                }
                DriverState::OnTrip { dropoff } => {
                    if d.advance_towards(dropoff, step) {
                        Self::complete_trip(city, truth, d, t);
                        idle[d.car_type as usize].push(i as u32);
                    }
                }
                DriverState::Idle => {
                    Self::idle_drift(city, cfg, rng_drive, d, idle_step, base, drift_scratch);
                }
            }
            // Record the position into the public path trace. The driver
            // owns its path unless a snapshot from the *previous* tick is
            // still alive, so this is an in-place push in steady state.
            let ll = city.projection.to_latlng(d.position);
            Arc::make_mut(&mut d.path).push(ll);
        }
    }

    fn complete_trip(city: &CityModel, truth: &mut GroundTruth, d: &mut Driver, t: SimTime) {
        d.state = DriverState::Idle;
        d.waypoint = None;
        d.dwell_ticks = 0;
        if let (Some(idx), Some(started)) = (d.trip_idx, d.trip_started) {
            let duration = t.since(started).as_secs() as f64;
            let rec = &mut truth.trips[idx];
            let schedule = city.fare_schedule(rec.car_type);
            rec.fare = Some(schedule.fare(rec.distance_m, duration, rec.surge.max(1.0)));
        }
        d.trip_idx = None;
        d.trip_started = None;
    }

    fn idle_drift(
        city: &CityModel,
        cfg: &MarketplaceConfig,
        rng_drive: &mut SimRng,
        d: &mut Driver,
        step: f64,
        base: &[f64],
        scratch: &mut Vec<AreaId>,
    ) {
        // Pick (or re-pick) a waypoint when none is active.
        if d.waypoint.is_none() {
            if d.dwell_ticks > 0 {
                d.dwell_ticks -= 1;
                return;
            }
            let here = city.area_of(d.position);
            let mut target = None;
            // Weak flocking toward a clearly-surging adjacent area.
            if let Some(a) = here {
                if rng_drive.chance(cfg.reposition_prob) {
                    let my_m = base.get(a.0).copied().unwrap_or(1.0);
                    scratch.clear();
                    scratch.extend(
                        city.adjacency[a.0]
                            .iter()
                            .copied()
                            .filter(|n| base.get(n.0).copied().unwrap_or(1.0) >= my_m + 0.2),
                    );
                    if let Some(dest) = rng_drive.choose(scratch).copied() {
                        let poly = &city.areas[dest.0].polygon;
                        let bb = poly.bbox();
                        for _ in 0..16 {
                            let p = Meters::new(
                                rng_drive.range_f64(bb.min.x, bb.max.x),
                                rng_drive.range_f64(bb.min.y, bb.max.y),
                            );
                            if poly.contains(p) && city.service_region.contains(p) {
                                target = Some(p);
                                break;
                            }
                        }
                    }
                }
            }
            let target =
                target.unwrap_or_else(|| city.sample_point(rng_drive, cfg.hotspot_bias));
            d.waypoint = Some(target);
        }
        if let Some(w) = d.waypoint {
            if d.advance_towards(w, step) {
                d.waypoint = None;
                // Dwell 0–5 minutes at the destination.
                d.dwell_ticks = rng_drive.range_u64(0, 60) as u32;
            }
        }
    }

    // ---- accounting ---------------------------------------------------------

    fn accumulate(&mut self, t: SimTime, dt: u64) {
        let dtf = dt as f64;
        for d in &self.drivers {
            if !d.state.is_online() {
                continue;
            }
            if let Some(a) = self.city.area_of(d.position) {
                self.acc[a.0].online_ticks += dtf;
                if d.state.is_visible() {
                    self.acc[a.0].idle_ticks += dtf;
                }
                self.surge.accumulate(a, dtf, if d.state.is_busy() { dtf } else { 0.0 });
            }
        }
        // Sample EWT at each area centroid once per tick (matches the
        // cadence at which the engine would observe wait times).
        for ai in 0..self.city.area_count() {
            let centroid = self.city.areas[ai].polygon.centroid();
            let ewt = self.ewt_minutes(centroid, CarType::UberX);
            self.surge.record_ewt(AreaId(ai), ewt);
            self.acc[ai].ewt_sum_min += ewt;
            self.acc[ai].ewt_samples += 1;
        }
        let _ = t;
    }

    fn close_interval(&mut self) {
        let closed_interval = self.now.surge_interval() - 1;
        // The multipliers that were in force during the interval we are
        // closing (recompute replaces them, so snapshot first) — one
        // snapshot serves every area record below.
        let in_force = crate::surge::SurgeSnapshot {
            interval: closed_interval,
            base: self.surge.current().base.clone(),
        };
        self.surge.recompute(self.now);
        let ticks_per_interval = (300 / self.cfg.tick_secs) as f64;
        for (ai, a) in self.acc.iter().enumerate() {
            self.truth.intervals.push(IntervalStats {
                interval: closed_interval,
                area: ai,
                supply: a.online_ticks / self.cfg.tick_secs as f64 / ticks_per_interval,
                idle_supply: a.idle_ticks / self.cfg.tick_secs as f64 / ticks_per_interval,
                requests: a.requests,
                pickups: a.pickups,
                priced_out: a.priced_out,
                unserved: a.unserved,
                mean_ewt_min: if a.ewt_samples > 0 {
                    a.ewt_sum_min / a.ewt_samples as f64
                } else {
                    0.0
                },
                surge: in_force.multiplier(AreaId(ai), CarType::UberX),
            });
        }
        for a in &mut self.acc {
            *a = AreaAccum::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surgescope_city::CityModel;

    fn small_city() -> CityModel {
        // Shrink Manhattan's fleet/demand for fast unit tests.
        let mut c = CityModel::manhattan_midtown();
        c.supply = c.supply.scaled(0.3);
        c.demand = c.demand.scaled(0.3);
        c
    }

    fn world() -> Marketplace {
        Marketplace::new(small_city(), MarketplaceConfig::default(), 1234)
    }

    #[test]
    fn supply_converges_to_target() {
        let mut w = world();
        w.run_for(SimDuration::hours(1));
        let target = w.city().supply.target_online(w.now());
        let online = w.online_count();
        let diff = (online as f64 - target as f64).abs();
        assert!(
            diff <= (target as f64 * 0.35).max(8.0),
            "online {online} vs target {target}"
        );
    }

    #[test]
    fn trips_happen_and_complete() {
        let mut w = world();
        w.run_for(SimDuration::hours(2));
        let trips = &w.truth().trips;
        assert!(!trips.is_empty(), "no trips in 2 busy hours");
        let completed = trips.iter().filter(|t| t.fare.is_some()).count();
        assert!(completed > 0, "no trip completed");
        for t in trips.iter().filter(|t| t.fare.is_some()) {
            assert!(t.fare.unwrap() > 0.0);
            assert!(t.surge >= 1.0);
        }
    }

    #[test]
    fn interval_stats_recorded_every_five_minutes() {
        let mut w = world();
        w.run_for(SimDuration::mins(30));
        let per_area = 30 / 5;
        assert_eq!(w.truth().intervals.len(), per_area * w.city().area_count());
        // Interval indices must be consecutive.
        let mut intervals: Vec<u64> = w.truth().intervals.iter().map(|s| s.interval).collect();
        intervals.dedup();
        assert_eq!(intervals, (0..per_area as u64).collect::<Vec<_>>());
    }

    #[test]
    fn save_restore_continues_bit_identically() {
        // Run 40 minutes, checkpoint, run both worlds 40 more minutes:
        // every downstream observable must match bit-for-bit.
        let mut a = world();
        a.run_for(SimDuration::mins(40));
        let state = a.save_state();
        let mut b = Marketplace::restore_state(
            small_city(),
            MarketplaceConfig::default(),
            &state,
        )
        .expect("restore");
        assert_eq!(b.now(), a.now());
        a.run_for(SimDuration::mins(40));
        b.run_for(SimDuration::mins(40));

        let (va, vb) = (a.visible_cars(), b.visible_cars());
        assert_eq!(va.len(), vb.len());
        for (x, y) in va.iter().zip(&vb) {
            assert_eq!(x.session, y.session);
            assert_eq!(x.position.x.to_bits(), y.position.x.to_bits());
            assert_eq!(x.position.y.to_bits(), y.position.y.to_bits());
        }
        assert_eq!(a.truth().trips.len(), b.truth().trips.len());
        for (x, y) in a.truth().trips.iter().zip(&b.truth().trips) {
            assert_eq!(x.requested_at, y.requested_at);
            assert_eq!(
                x.fare.map(f64::to_bits),
                y.fare.map(f64::to_bits),
                "fares must match bit-for-bit"
            );
            assert_eq!(x.surge.to_bits(), y.surge.to_bits());
        }
        assert_eq!(a.truth().intervals.len(), b.truth().intervals.len());
        assert_eq!(
            a.surge_engine().current().base.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
            b.surge_engine().current().base.iter().map(|m| m.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn visible_cars_are_idle_only() {
        let mut w = world();
        w.run_for(SimDuration::mins(30));
        let visible = w.visible_cars();
        assert!(!visible.is_empty());
        // Every visible car carries a session ID and a path.
        for c in &visible {
            assert!(c.session.0 > 0);
            assert!(!c.path.is_empty());
        }
        // Visible count is at most online count.
        assert!(visible.len() <= w.online_count());
    }

    #[test]
    fn ewt_reasonable_when_supply_exists() {
        let mut w = world();
        w.run_for(SimDuration::hours(1));
        let center = w.city().measurement_region.centroid();
        let ewt = w.ewt_minutes(center, CarType::UberX);
        assert!(ewt >= 1.0 && ewt <= w.config().default_ewt_min, "ewt {ewt}");
    }

    #[test]
    fn ewt_default_for_missing_tier() {
        let w = world(); // nothing online yet
        let center = w.city().measurement_region.centroid();
        assert_eq!(w.ewt_minutes(center, CarType::UberWav), w.config().default_ewt_min);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut w = Marketplace::new(small_city(), MarketplaceConfig::default(), 99);
            w.run_for(SimDuration::mins(45));
            let trips = w.truth().trips.len();
            let sessions = w.truth().sessions_started;
            let surge: Vec<f64> = w.truth().intervals.iter().map(|s| s.surge).collect();
            (trips, sessions, surge)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_diverge() {
        let run = |seed| {
            let mut w = Marketplace::new(small_city(), MarketplaceConfig::default(), seed);
            w.run_for(SimDuration::mins(45));
            w.truth().trips.len()
        };
        // Demand is Poisson-random; distinct seeds almost surely differ.
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn drivers_stay_inside_service_region() {
        let mut w = world();
        w.run_for(SimDuration::hours(1));
        let region = &w.city().service_region;
        for c in w.visible_cars() {
            assert!(
                region.contains(c.position),
                "visible car at {:?} outside service region",
                c.position
            );
        }
    }

    #[test]
    fn diurnal_supply_night_vs_day() {
        let mut w = world();
        // 4 a.m. (trough)
        w.run_for(SimDuration::hours(4));
        let night = w.online_count();
        // noon
        w.run_for(SimDuration::hours(8));
        let noon = w.online_count();
        assert!(noon > night, "noon {noon} should exceed 4am {night}");
    }

    /// The idle lists must hold exactly each tier's visible drivers after
    /// every tick: the tick loop is a long randomized sequence of shift
    /// starts and ends, dispatches and trip completions, so ticking seeded
    /// worlds exercises every maintenance path. At each probe,
    /// `nearest_idle` must answer as a first-strictly-less scan of
    /// `drivers` in index order does, distance compared as bits.
    #[test]
    fn incremental_idle_index_matches_fresh_rebuild() {
        for seed in [7u64, 99, 31337] {
            let mut w = Marketplace::new(small_city(), MarketplaceConfig::default(), seed);
            let probes = [
                w.city().measurement_region.centroid(),
                w.city().service_region.bbox().min,
                w.city().service_region.bbox().max,
            ];
            for tick in 0..720u64 {
                w.tick();
                for t in CarType::ALL {
                    let visible = || {
                        w.drivers
                            .iter()
                            .enumerate()
                            .filter(move |(_, d)| d.car_type == t && d.state.is_visible())
                    };
                    let mut got = w.idle[t as usize].clone();
                    got.sort_unstable();
                    let expect: Vec<u32> = visible().map(|(i, _)| i as u32).collect();
                    assert_eq!(got, expect, "tier {t:?} diverged at tick {tick} (seed {seed})");
                    for pos in probes {
                        let mut scan: Option<(u32, f64)> = None;
                        for (i, d) in visible() {
                            let dist = (d.position.x - pos.x).abs() + (d.position.y - pos.y).abs();
                            if scan.is_none_or(|(_, bd)| dist < bd) {
                                scan = Some((i as u32, dist));
                            }
                        }
                        assert_eq!(
                            w.nearest_idle(pos, t, f64::INFINITY).map(|(i, d)| (i, d.to_bits())),
                            scan.map(|(i, d)| (i, d.to_bits())),
                            "nearest mismatch at tick {tick} (seed {seed})"
                        );
                    }
                }
            }
        }
    }

    /// An exact L1 tie resolves to the lowest driver index whatever order
    /// the list holds, and the match radius is inclusive, for the query
    /// and for dispatch.
    #[test]
    fn nearest_idle_breaks_ties_by_index_and_radius_is_inclusive() {
        let mut w = world();
        let origin = Meters::new(0.0, 0.0);
        let (up, right) = (Meters::new(0.0, 100.0), Meters::new(100.0, 0.0));
        for (i, pos) in [(1, up), (4, right), (9, right)] {
            let d = &mut w.drivers[i];
            d.car_type = CarType::UberX;
            d.state = DriverState::Idle;
            d.position = pos;
        }
        w.rebuild_idle_index();
        w.idle[CarType::UberX as usize].reverse();
        assert_eq!(w.idle[CarType::UberX as usize], [9, 4, 1]);
        assert_eq!(w.nearest_idle(origin, CarType::UberX, f64::INFINITY), Some((1, 100.0)));
        Marketplace::remove_idle(&mut w.idle, CarType::UberX, 1);
        assert_eq!(w.idle[CarType::UberX as usize], [9, 4], "list order now favours 9");
        assert_eq!(w.nearest_idle(origin, CarType::UberX, f64::INFINITY), Some((4, 100.0)));

        assert_eq!(w.nearest_idle(origin, CarType::UberX, 100.0), Some((4, 100.0)));
        assert_eq!(w.nearest_idle(origin, CarType::UberX, 99.0), None);
        let radius = w.config().match_radius_m;
        w.drivers[4].position = Meters::new(radius - 400.0, 400.0);
        w.drivers[9].position = Meters::new(radius, 1.0);
        w.try_match(w.now(), origin, Meters::new(50.0, 50.0), CarType::UberX, 1.0, None);
        assert!(matches!(w.drivers[4].state, DriverState::EnRoute { .. }), "at the radius");
        assert_eq!(w.idle[CarType::UberX as usize], [9]);
        w.try_match(w.now(), origin, Meters::new(50.0, 50.0), CarType::UberX, 1.0, None);
        assert!(matches!(w.drivers[9].state, DriverState::Idle), "beyond the radius");
        assert_eq!(w.truth().trips.len(), 1);
    }

    #[test]
    fn sessions_restart_with_fresh_ids() {
        let mut w = world();
        w.run_for(SimDuration::hours(6));
        assert!(
            w.truth().sessions_started as usize > w.online_count(),
            "shift churn should have started more sessions than are concurrently online"
        );
    }
}
