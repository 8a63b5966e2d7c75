//! The service endpoint implementation.
//!
//! [`ApiService`] evaluates protocol requests against a [`WorldSnapshot`]
//! (the marketplace state at the top of the current tick). Responses are a
//! pure function of `(world state, client key, time)`, so identical
//! campaigns replay identically — the paper's §3.4 calibration finding
//! that "data received from pingClient is deterministic" holds by
//! construction here too.
//!
//! A ping is answered in two layers of derivation, so a kernel that
//! answers many pings pays for each value once: [`PingConfig::tick`]
//! derives what every ping of a snapshot shares (the surge interval and
//! offset, the drive speed, whether the client propagation delay has
//! passed) into a [`TickPing`], and a [`PingOrigin`] holds what depends
//! on the client alone (its position in metres, its surge area, and its
//! jitter window, drawn once per surge interval).
//! [`PingConfig::ping_visit`] and [`PingConfig::ping_client`] build both
//! for a single ping.

use crate::jitter::{JitterConfig, JitterWindow};
use crate::messages::{CarInfo, PingClientResponse, PriceEstimate, TimeEstimate, TypeStatus};
use crate::ratelimit::{RateLimitError, RateLimiter};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use surgescope_city::{AreaId, CarType, CityModel};
use surgescope_geo::{LatLng, Meters, NearestK, PathVector};
use surgescope_marketplace::{Marketplace, MarketplaceConfig, SurgeSnapshot};
use surgescope_obs::{Counter, Timer};
use surgescope_simcore::{SimRng, SimTime};

/// The client app shows at most this many cars per tier (§3.3).
pub const NEAREST_CARS_SHOWN: usize = 8;

/// Which protocol generation the client fleet speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolEra {
    /// Pre-April 2015: client surge updates track the API exactly
    /// (5-minute stair-step, ~35 s propagation spread, no jitter).
    Feb2015,
    /// April 2015 onward: wider (~2 min) propagation spread plus the
    /// stale-multiplier consistency bug.
    Apr2015,
}

/// One visible car as frozen into a [`WorldSnapshot`]: session identity,
/// positions, and the driver's live path trace shared by handle — every
/// client served from the snapshot (and every [`CarInfo`] built from it)
/// clones the `Arc`, never the points.
pub struct SnapCar {
    /// Randomized per-session public ID.
    pub id: u64,
    /// Planar position.
    pub position: Meters,
    /// Geographic position.
    pub latlng: LatLng,
    /// Recent positions, oldest first, ready to drop into a
    /// [`CarInfo`] without copying. Shared with the driver: the snapshot
    /// layer must release these handles before the world moves, or the
    /// driver's next path append degrades to a copy-on-write clone.
    pub path: Arc<PathVector>,
}

/// A read-only view of the marketplace taken once per tick, with visible
/// cars pre-grouped by tier, so a 43-client fleet scans each tier's few
/// dozen cars once per ping instead of the whole driver table once per
/// tier.
///
/// The snapshot is *owned* (city model and surge boards behind `Arc`s):
/// it borrows nothing from the marketplace, so it can cross thread
/// boundaries and outlive the tick that produced it — the serve layer's
/// worker threads and delayed-transport machinery both rely on that.
///
/// It is also *reusable*: [`WorldSnapshot::capture`] re-freezes a new
/// tick into the same shell, keeping every tier bucket at capacity, so a
/// snapshot recycled through a [`TickSnapshot`] arena performs zero
/// steady-state heap allocation per tick.
pub struct WorldSnapshot {
    city: Arc<CityModel>,
    cfg: MarketplaceConfig,
    now: SimTime,
    by_type: Vec<(CarType, Vec<SnapCar>)>,
    /// Surge boards in force when the snapshot was taken (the protocol
    /// layer serves stale-vs-fresh multipliers from these). Shared with
    /// the engine by handle — boards are immutable once published.
    surge_current: Arc<SurgeSnapshot>,
    surge_previous: Arc<SurgeSnapshot>,
    /// High-water mark of the total visible-car count. Every tier bucket
    /// reserves to this before filling, so a tier whose share of the
    /// fleet grows never reallocates unless the *total* fleet exceeds its
    /// historical peak — the capacity condition the arena's
    /// zero-allocation guarantee rests on.
    cap_hint: usize,
}

impl WorldSnapshot {
    /// Captures the marketplace state at the top of the current tick
    /// into a fresh snapshot. Prefer [`WorldSnapshot::capture`] on a
    /// recycled shell in per-tick loops.
    pub fn of(mp: &Marketplace) -> Self {
        let mut snap = WorldSnapshot {
            city: mp.city_arc(),
            cfg: *mp.config(),
            now: mp.now(),
            by_type: Vec::new(),
            surge_current: mp.surge_engine().current_arc(),
            surge_previous: mp.surge_engine().previous_arc(),
            cap_hint: 0,
        };
        snap.capture(mp);
        snap
    }

    /// Re-freezes the marketplace's current tick into this snapshot **in
    /// place**, reusing the tier buckets. Steady state (stable tier set,
    /// fleet at its high-water mark) allocates nothing.
    pub fn capture(&mut self, mp: &Marketplace) {
        self.city = mp.city_arc();
        self.cfg = *mp.config();
        self.now = mp.now();
        self.surge_current = mp.surge_engine().current_arc();
        self.surge_previous = mp.surge_engine().previous_arc();

        // The offered tier set derives from the city's fleet mix, which
        // is fixed for a run — entries are patched only if it changes.
        let mut nt = 0;
        let hint = self.cap_hint;
        for (t, _) in mp.city().fleet_mix.iter().filter(|(_, frac)| *frac > 0.0) {
            match self.by_type.get_mut(nt) {
                Some((ct, v)) if *ct == *t => v.clear(),
                Some(entry) => *entry = (*t, Vec::new()),
                None => self.by_type.push((*t, Vec::new())),
            }
            self.by_type[nt].1.reserve(hint);
            nt += 1;
        }
        self.by_type.truncate(nt);

        mp.for_each_visible_car(|car| {
            if let Some((_, v)) = self.by_type.iter_mut().find(|(t, _)| *t == car.car_type) {
                v.push(SnapCar {
                    id: car.session.0,
                    position: car.position,
                    latlng: car.latlng,
                    path: car.path,
                });
            }
        });

        // A stochastic fleet keeps setting size records (at a ~1/t decaying
        // rate) forever, so tracking the exact high-water mark would force
        // a re-reservation per record. Growing the hint geometrically
        // instead absorbs records into headroom: O(log fleet) growth events
        // over a run, and none once the fleet mean-reverts below 2/3 of it.
        let total: usize = self.by_type.iter().map(|(_, v)| v.len()).sum();
        if total > hint {
            self.cap_hint = (total + total / 2).max(64);
        }
    }

    /// Releases every per-car handle (notably the driver-shared path
    /// `Arc`s) while keeping buffer capacity — the arena reclaim step.
    /// Must run before the world moves: a retained path handle would turn
    /// the driver's next append into a copy-on-write clone.
    pub fn release_cars(&mut self) {
        for (_, v) in &mut self.by_type {
            v.clear();
        }
    }

    /// Snapshot time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The city model the snapshot was taken over.
    pub fn city(&self) -> &CityModel {
        &self.city
    }

    /// The capacity every tier bucket reserves before filling: the total
    /// visible-car count's high-water mark plus headroom. A per-tier table
    /// kept alongside the snapshot reserves to it as well, so it grows
    /// only when the buckets do.
    pub fn capacity_hint(&self) -> usize {
        self.cap_hint
    }

    /// Visible cars of one tier (unsorted).
    pub fn cars_of(&self, t: CarType) -> &[SnapCar] {
        self.by_type
            .iter()
            .find(|(ct, _)| *ct == t)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }

    /// Tiers offered in this city.
    pub fn offered_types(&self) -> impl Iterator<Item = CarType> + '_ {
        self.by_type.iter().map(|(t, _)| *t)
    }

    fn tier_index(&self, t: CarType) -> Option<usize> {
        self.by_type.iter().position(|(ct, _)| *ct == t)
    }

    /// EWT in minutes for a tier at a position, from the snapshot's car
    /// inventory, through the marketplace's own formula
    /// ([`MarketplaceConfig::ewt_from_drive_secs`]). Drive time is monotone
    /// in rectilinear distance, so the L1-nearest car sets it; L1 distance
    /// over speed is [`CityModel::drive_time_secs`]'s order of operations,
    /// so the minutes are bit-identical to the marketplace's.
    pub fn ewt_minutes(&self, pos: Meters, t: CarType) -> f64 {
        let speed_mps = self.city.drive_speed_mps(self.now);
        let l1 = self.tier_index(t).and_then(|ti| scan_tier(&self.by_type[ti].1, pos).1);
        self.cfg.ewt_from_drive_secs(l1.map(|(_, d)| d / speed_mps))
    }
}

/// The per-tick snapshot of one hosted marketplace, recycled through an
/// arena. Every host of a world (the in-process `UberSystem`, a server's
/// campaign) follows the same policy: capture once per tick on first use
/// and share that one `Arc` with every same-tick consumer; before the
/// world moves, [`TickSnapshot::release`] drops the driver-shared path
/// handles and keeps the shell, and the next capture re-freezes into it,
/// so steady-state snapshot construction allocates nothing (the `Arc`
/// box included).
#[derive(Default)]
pub struct TickSnapshot {
    /// This tick's snapshot, once captured.
    current: Option<Arc<WorldSnapshot>>,
    /// Last tick's shell, car handles released, buffers at capacity.
    /// Only a uniquely owned shell enters, and nothing hands it out, so
    /// it is still uniquely owned when the next capture takes it.
    arena: Option<Arc<WorldSnapshot>>,
    /// Wall clock spent (re)capturing.
    capture: Timer,
}

impl TickSnapshot {
    /// An empty arena; the first [`TickSnapshot::get`] captures fresh.
    pub fn new() -> Self {
        TickSnapshot::default()
    }

    /// The snapshot of `mp`'s current tick, captured on the first call
    /// after a [`TickSnapshot::release`] and shared until the next one.
    pub fn get(&mut self, mp: &Marketplace) -> Arc<WorldSnapshot> {
        let snap = self.current.get_or_insert_with(|| {
            let _span = self.capture.start();
            match self.arena.take() {
                Some(mut shell) => {
                    Arc::get_mut(&mut shell)
                        .expect("arena shell is uniquely owned")
                        .capture(mp);
                    shell
                }
                None => Arc::new(WorldSnapshot::of(mp)),
            }
        });
        Arc::clone(snap)
    }

    /// Ends the tick: call before the world moves. The shell goes back
    /// to the arena with its car handles released when nothing else
    /// holds it (the steady state: consumers drop their handles within
    /// the tick); a retained handle would turn every driver's next path
    /// append into a copy-on-write clone. A shell still held elsewhere is
    /// left to its holder, and the next tick captures fresh.
    pub fn release(&mut self) {
        if let Some(mut snap) = self.current.take() {
            if let Some(s) = Arc::get_mut(&mut snap) {
                s.release_cars();
                self.arena = Some(snap);
            }
        }
    }

    /// Wall clock spent capturing (registered as `phase.capture`).
    pub fn capture_timer(&self) -> &Timer {
        &self.capture
    }
}

/// The stateless core of the protocol endpoint: everything a pingClient
/// response depends on besides the [`WorldSnapshot`] itself. Cheap to
/// clone, so serve worker threads carry their own and answer pings
/// without touching the service (whose only mutable state, the rate
/// limiter, guards the *estimates* endpoints — pingClient was never
/// throttled). Clones share the jitter-hit counter cell, so worker
/// threads all feed one total.
#[derive(Debug, Clone)]
pub struct PingConfig {
    era: ProtocolEra,
    jitter: JitterConfig,
    bug_seed: u64,
    /// Std-dev of the Gaussian perturbation applied to car positions in
    /// pingClient responses. Uber stated that "car locations may be
    /// slightly perturbed to protect drivers' safety" (§3.3); 0 disables.
    location_noise_m: f64,
    /// Telemetry: pings answered from the previous board *because of the
    /// consistency bug's jitter window* (not mere propagation delay).
    /// Window membership is a pure function of (client, interval), so the
    /// total is deterministic however pings are spread over threads.
    jitter_hits: Counter,
}

/// The protocol endpoint.
///
/// Owns only protocol-side state (the per-account rate limiter and the
/// consistency-bug configuration); all marketplace state arrives through
/// [`WorldSnapshot`]s.
pub struct ApiService {
    ping: PingConfig,
    limiter: RateLimiter,
}

/// What kind of consumer is asking for a multiplier — the propagation
/// delay differs (Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Consumer {
    Api,
    Client,
}

impl ApiService {
    /// Creates a service for the given protocol era. `bug_seed`
    /// parameterizes the consistency bug's randomness.
    pub fn new(era: ProtocolEra, bug_seed: u64) -> Self {
        ApiService {
            ping: PingConfig {
                era,
                jitter: JitterConfig::default(),
                bug_seed,
                location_noise_m: 0.0,
                jitter_hits: Counter::new(),
            },
            limiter: RateLimiter::default(),
        }
    }

    /// Enables driver-safety location perturbation (builder style).
    pub fn with_location_noise(mut self, sigma_m: f64) -> Self {
        assert!(sigma_m >= 0.0, "negative noise");
        self.ping.location_noise_m = sigma_m;
        self
    }

    /// Overrides the jitter tuning (ablation benches sweep this).
    pub fn with_jitter(mut self, jitter: JitterConfig) -> Self {
        self.ping.jitter = jitter;
        self
    }

    /// The era this service speaks.
    pub fn era(&self) -> ProtocolEra {
        self.ping.era
    }

    /// The stateless ping core, for callers that answer pings without
    /// holding the service (serve workers). The clone shares the
    /// jitter-hit counter cell with the service's own copy.
    pub fn ping_config(&self) -> PingConfig {
        self.ping.clone()
    }

    /// The service's own ping core, borrowed: what a kernel holding the
    /// service answers its pings through.
    pub fn ping_core(&self) -> &PingConfig {
        &self.ping
    }

    /// Telemetry handle counting consistency-bug window hits.
    pub fn jitter_hits(&self) -> &Counter {
        &self.ping.jitter_hits
    }

    /// The rate limiter's current state — the only mutable state the
    /// service owns, exposed so campaign checkpoints can persist it.
    pub fn limiter(&self) -> &RateLimiter {
        &self.limiter
    }

    /// Replaces the limiter state (checkpoint restore). Quota spent
    /// before a checkpoint stays spent after resume.
    pub fn set_limiter(&mut self, limiter: RateLimiter) {
        self.limiter = limiter;
    }

    /// Handles a pingClient request from `client_key` at `location`.
    /// Unlimited (the paper's 43 clients pinged every 5 s for weeks
    /// without throttling).
    pub fn ping_client(
        &self,
        snap: &WorldSnapshot,
        client_key: u64,
        location: LatLng,
    ) -> PingClientResponse {
        self.ping.ping_client(snap, client_key, location)
    }

    /// `estimates/price`: price ranges (with multipliers) for a reference
    /// 5-mile / 15-minute trip from `location`. Rate-limited per account;
    /// callers must treat the `Err` as a gap (record NaN, keep running),
    /// never abort a campaign over one throttled probe.
    pub fn estimates_price(
        &mut self,
        snap: &WorldSnapshot,
        account: u64,
        location: LatLng,
    ) -> Result<Vec<PriceEstimate>, RateLimitError> {
        self.limiter.check(account, snap.now())?;
        let city = snap.city();
        let pos = city.projection.to_meters(location);
        let area = city.area_of(pos);
        Ok(snap
            .offered_types()
            .map(|t| {
                let surge = self.ping.visible_surge(snap, area, t);
                let schedule = city.fare_schedule(t);
                let mid = schedule.fare(5.0 * 1609.344, 15.0 * 60.0, surge.max(1.0));
                PriceEstimate {
                    car_type: t,
                    surge_multiplier: surge,
                    low_estimate: (mid * 0.9).floor(),
                    high_estimate: (mid * 1.1).ceil(),
                }
            })
            .collect())
    }

    /// `estimates/time`: pickup ETAs in seconds. Rate-limited per account.
    pub fn estimates_time(
        &mut self,
        snap: &WorldSnapshot,
        account: u64,
        location: LatLng,
    ) -> Result<Vec<TimeEstimate>, RateLimitError> {
        self.limiter.check(account, snap.now())?;
        let pos = snap.city().projection.to_meters(location);
        Ok(snap
            .offered_types()
            .map(|t| TimeEstimate {
                car_type: t,
                estimate_secs: (snap.ewt_minutes(pos, t) * 60.0).round() as u64,
            })
            .collect())
    }

    /// Remaining API budget for an account this hour (diagnostic).
    pub fn remaining_quota(&self, account: u64, now: SimTime) -> u32 {
        self.limiter.remaining(account, now)
    }
}

impl PingConfig {
    /// Per-interval propagation delay: multipliers recompute exactly on
    /// the 5-minute boundary but reach consumers a little later — within a
    /// ~35 s range for the API (and Feb-era clients), within ~2 min for
    /// Apr-era clients (Fig. 15).
    fn update_delay(&self, interval: u64, consumer: Consumer) -> u64 {
        let mut rng = SimRng::seed_from_u64(self.bug_seed)
            .split_index("update-delay", interval)
            .split(match consumer {
                Consumer::Api => "api",
                Consumer::Client => "client",
            });
        match (consumer, self.era) {
            (Consumer::Api, _) | (Consumer::Client, ProtocolEra::Feb2015) => {
                rng.range_u64(5, 40)
            }
            (Consumer::Client, ProtocolEra::Apr2015) => rng.range_u64(5, 125),
        }
    }

    /// The multiplier the estimates API shows for `(area, tier)` at the
    /// snapshot's time: the previous interval's board until this
    /// interval's API propagation delay has passed, the current one after.
    /// The API never sees the consistency bug; the client rule, jitter
    /// window included, lives in [`TickPing::visit`].
    fn visible_surge(&self, snap: &WorldSnapshot, area: Option<AreaId>, t: CarType) -> f64 {
        let Some(area) = area else { return 1.0 };
        let now = snap.now();
        let delay = self.update_delay(now.surge_interval(), Consumer::Api);
        let board = if now.seconds_into_surge_interval() < delay {
            &snap.surge_previous
        } else {
            &snap.surge_current
        };
        board.multiplier(area, t)
    }

    /// Where pingClient reports `car` at `now`: its position under the
    /// driver-safety perturbation, a deterministic per-(car, tick)
    /// Gaussian offset — deterministic so all co-located clients still
    /// see identical data (the §3.4 calibration must keep passing with
    /// noise enabled). Every client shown the car sees this position.
    pub fn reported_position(&self, car: &SnapCar, now: SimTime) -> LatLng {
        if self.location_noise_m <= 0.0 {
            return car.latlng;
        }
        let mut rng = SimRng::seed_from_u64(self.bug_seed ^ 0x6507)
            .split_index("loc-noise", car.id ^ now.as_secs().rotate_left(17));
        let de = rng.normal(0.0, self.location_noise_m);
        let dn = rng.normal(0.0, self.location_noise_m);
        car.latlng.offset_m(de, dn)
    }

    /// What every ping of `snap`'s tick shares, derived once: see
    /// [`TickPing`]. A kernel answering a tick's (or a batch's) pings
    /// builds one and answers each ping through [`TickPing::visit`].
    pub fn tick<'a>(&'a self, snap: &'a WorldSnapshot) -> TickPing<'a> {
        let now = snap.now();
        let interval = now.surge_interval();
        let elapsed = now.seconds_into_surge_interval();
        TickPing {
            ping: self,
            snap,
            interval,
            elapsed,
            speed_mps: snap.city().drive_speed_mps(now),
            delayed: elapsed < self.update_delay(interval, Consumer::Client),
        }
    }

    /// Visits each tier's pingClient answer without materializing a wire
    /// response: `visit` is called once per offered tier, in
    /// [`WorldSnapshot::offered_types`] order, with a borrowed
    /// [`TierPing`] view. A one-ping wrapper over [`PingConfig::tick`]
    /// and [`TickPing::visit`], deriving the tick and the client afresh.
    /// Pure: usable from any worker thread without touching the
    /// [`ApiService`].
    pub fn ping_visit(
        &self,
        snap: &WorldSnapshot,
        client_key: u64,
        location: LatLng,
        visit: impl FnMut(&TierPing<'_>),
    ) {
        let mut origin = PingOrigin::new(snap.city(), client_key, location);
        self.tick(snap).visit(&mut origin, visit);
    }

    /// Answers a pingClient request against a snapshot, materializing the
    /// wire response. Pure: usable from any worker thread without
    /// touching the [`ApiService`].
    pub fn ping_client(
        &self,
        snap: &WorldSnapshot,
        client_key: u64,
        location: LatLng,
    ) -> PingClientResponse {
        let mut statuses = Vec::with_capacity(snap.by_type.len());
        self.ping_visit(snap, client_key, location, |tier| {
            statuses.push(TypeStatus {
                car_type: tier.car_type,
                cars: tier
                    .cars()
                    .map(|(id, position, path)| CarInfo { id, position, path: Arc::clone(path) })
                    .collect(),
                ewt_min: tier.ewt_min,
                surge: tier.surge,
            });
        });
        PingClientResponse { at: snap.now(), location, statuses }
    }
}

/// One pinging client as the protocol derives it from what it sends:
/// its key, the location in the city's metres and its surge area, each
/// derived once, plus its jitter window, drawn once per surge interval
/// (a pure function of the bug seed, the key and the interval). A kernel
/// that pings the same clients tick after tick keeps one per client and
/// passes it to [`TickPing::visit`] every tick; an origin belongs to one
/// city and one [`PingConfig`].
#[derive(Debug, Clone, Copy)]
pub struct PingOrigin {
    key: u64,
    pos: Meters,
    area: Option<AreaId>,
    /// The last jitter window drawn, with the interval it was drawn for.
    window: Option<(u64, Option<JitterWindow>)>,
}

impl PingOrigin {
    /// Derives the origin of client `key` pinging from `location` in
    /// `city`. The position is the sent location projected to metres,
    /// which is not bit-equal to the client's own planar position: the
    /// lat/lng round trip moves it by a few ulps.
    pub fn new(city: &CityModel, key: u64, location: LatLng) -> Self {
        let pos = city.projection.to_meters(location);
        PingOrigin { key, pos, area: city.area_of(pos), window: None }
    }

    /// This client's jitter window in `interval`, drawn on the first ask
    /// in each interval.
    fn window(&mut self, ping: &PingConfig, interval: u64) -> Option<JitterWindow> {
        match self.window {
            Some((drawn, w)) if drawn == interval => w,
            _ => {
                let w = ping.jitter.window(ping.bug_seed, self.key, interval);
                self.window = Some((interval, w));
                w
            }
        }
    }
}

/// What every ping of one tick shares, built once per snapshot by
/// [`PingConfig::tick`]: the surge interval and the seconds into it, the
/// drive speed every tier's EWT divides by, and whether this interval's
/// client propagation delay is still running.
pub struct TickPing<'a> {
    ping: &'a PingConfig,
    snap: &'a WorldSnapshot,
    interval: u64,
    elapsed: u64,
    speed_mps: f64,
    delayed: bool,
}

impl TickPing<'_> {
    /// Answers `origin`'s ping: `visit` is called once per offered tier,
    /// in [`WorldSnapshot::offered_types`] order, with a borrowed
    /// [`TierPing`] view. The allocation-free core of every ping:
    /// [`PingConfig::ping_client`] renders a [`PingClientResponse`] from
    /// it, the measurement kernel copies observations it rendered once
    /// per tick, and the serve encoder writes the wire layout.
    pub fn visit(&self, origin: &mut PingOrigin, mut visit: impl FnMut(&TierPing<'_>)) {
        let snap = self.snap;
        // Which surge board this client reads is tier-independent: the
        // propagation delay keys on the interval, the bug window on the
        // client. The two staleness causes are split so the bug window is
        // counted apart from ordinary propagation delay, and `!delayed &&`
        // keeps the short-circuit: a ping inside the delay window never
        // consults the jitter window, nor counts a hit.
        let board = origin.area.map(|_| {
            let jittered = !self.delayed
                && self.ping.era == ProtocolEra::Apr2015
                && origin
                    .window(self.ping, self.interval)
                    .is_some_and(|w| w.contains(self.elapsed));
            if jittered {
                self.ping.jitter_hits.incr();
            }
            if self.delayed || jittered { &snap.surge_previous } else { &snap.surge_current }
        });
        for (t, cars) in &snap.by_type {
            let (t, cars) = (*t, cars.as_slice());
            let (nearest, l1) = scan_tier(cars, origin.pos);
            let ewt_min = snap.cfg.ewt_from_drive_secs(l1.map(|(_, d)| d / self.speed_mps));
            let surge = match (board, origin.area) {
                (Some(b), Some(a)) => b.multiplier(a, t),
                _ => 1.0,
            };
            visit(&TierPing {
                car_type: t,
                ewt_min,
                surge,
                ping: self.ping,
                now: snap.now(),
                cars,
                nearest: nearest.indices(),
            });
        }
    }
}

/// One offered tier's pingClient answer, borrowed from the snapshot —
/// consumed inside [`TickPing::visit`]'s `visit` callback.
pub struct TierPing<'a> {
    /// Product tier.
    pub car_type: CarType,
    /// Estimated wait time, minutes.
    pub ewt_min: f64,
    /// Surge multiplier at the client's location.
    pub surge: f64,
    ping: &'a PingConfig,
    now: SimTime,
    cars: &'a [SnapCar],
    nearest: &'a [usize],
}

impl<'a> TierPing<'a> {
    /// The shown cars, nearest first, as `(public id, reported position,
    /// shared path handle)`. Reported positions include the driver-safety
    /// perturbation — identical to the [`CarInfo`]s the wire response
    /// would carry.
    pub fn cars(&self) -> impl Iterator<Item = (u64, LatLng, &'a Arc<PathVector>)> + '_ {
        self.nearest.iter().map(move |&i| {
            let c = &self.cars[i];
            (c.id, self.ping.reported_position(c, self.now), &c.path)
        })
    }

    /// The shown cars as indices into this tier's cars in the snapshot
    /// ([`WorldSnapshot::cars_of`]), nearest first.
    pub fn nearest(&self) -> &'a [usize] {
        self.nearest
    }

    /// Number of cars shown for this tier.
    pub fn shown(&self) -> usize {
        self.nearest.len()
    }
}

/// The per-tier pingClient pass: one scan of a tier's cars keeping the
/// [`NEAREST_CARS_SHOWN`] nearest by Euclidean distance (ties in snapshot
/// order, as a stable sort gives) and the L1-nearest car as `(index, L1
/// distance)`, lowest index on ties. L1 is the city's drive metric, so
/// that car sets the EWT. At the tier sizes a city builds (tens of cars)
/// one pass beats building and searching a spatial index every tick.
fn scan_tier(
    cars: &[SnapCar],
    pos: Meters,
) -> (NearestK<NEAREST_CARS_SHOWN>, Option<(usize, f64)>) {
    let mut nearest = NearestK::new();
    let mut l1: Option<(usize, f64)> = None;
    for (i, c) in cars.iter().enumerate() {
        nearest.offer(c.position.dist2(pos), i);
        let d = (c.position.x - pos.x).abs() + (c.position.y - pos.y).abs();
        if l1.is_none_or(|(_, best)| d < best) {
            l1 = Some((i, d));
        }
    }
    (nearest, l1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use surgescope_city::CityModel;
    use surgescope_marketplace::MarketplaceConfig;
    use surgescope_simcore::SimDuration;

    fn busy_world() -> Marketplace {
        let mut c = CityModel::manhattan_midtown();
        // Plenty of idle cars: these tests exercise protocol shape, not
        // load (demand scaled lower than supply so the noon fleet isn't
        // fully booked).
        c.supply = c.supply.scaled(0.3);
        c.demand = c.demand.scaled(0.12);
        let mut mp = Marketplace::new(c, MarketplaceConfig::default(), 7);
        mp.run_for(SimDuration::hours(12));
        mp
    }

    fn center(mp: &Marketplace) -> LatLng {
        let c = mp.city().measurement_region.centroid();
        mp.city().projection.to_latlng(c)
    }

    #[test]
    fn ping_returns_at_most_eight_cars_per_type() {
        let mp = busy_world();
        let snap = WorldSnapshot::of(&mp);
        let api = ApiService::new(ProtocolEra::Feb2015, 1);
        let resp = api.ping_client(&snap, 0, center(&mp));
        assert!(!resp.statuses.is_empty());
        for s in &resp.statuses {
            assert!(s.cars.len() <= NEAREST_CARS_SHOWN, "{}: {}", s.car_type, s.cars.len());
            assert!(s.ewt_min >= 1.0);
            assert!(s.surge >= 1.0);
        }
        let x = resp.status(CarType::UberX).expect("UberX offered");
        assert!(
            !x.cars.is_empty(),
            "midday midtown should show at least one UberX"
        );
    }

    #[test]
    fn nearest_cars_sorted_by_distance() {
        let mp = busy_world();
        let snap = WorldSnapshot::of(&mp);
        let api = ApiService::new(ProtocolEra::Feb2015, 1);
        let loc = center(&mp);
        let pos = mp.city().projection.to_meters(loc);
        let resp = api.ping_client(&snap, 0, loc);
        let x = resp.status(CarType::UberX).unwrap();
        let dists: Vec<f64> = x
            .cars
            .iter()
            .map(|c| mp.city().projection.to_meters(c.position).dist(pos))
            .collect();
        for w in dists.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "not sorted: {dists:?}");
        }
    }

    #[test]
    fn responses_deterministic_across_clients_feb_era() {
        // §3.4 calibration: all clients at the same spot see identical data.
        let mp = busy_world();
        let snap = WorldSnapshot::of(&mp);
        let api = ApiService::new(ProtocolEra::Feb2015, 1);
        let loc = center(&mp);
        let a = api.ping_client(&snap, 1, loc);
        let b = api.ping_client(&snap, 2, loc);
        assert_eq!(a, b, "Feb-era responses must be identical across clients");
    }

    #[test]
    fn api_never_jitters_even_in_april() {
        let mp = busy_world();
        let snap = WorldSnapshot::of(&mp);
        let mut api = ApiService::new(ProtocolEra::Apr2015, 1);
        let loc = center(&mp);
        let a = api.estimates_price(&snap, 1, loc).unwrap();
        let b = api.estimates_price(&snap, 2, loc).unwrap();
        let ma: Vec<f64> = a.iter().map(|p| p.surge_multiplier).collect();
        let mb: Vec<f64> = b.iter().map(|p| p.surge_multiplier).collect();
        assert_eq!(ma, mb, "API multipliers are account-independent");
    }

    /// The snapshot answers EWT from its own copy of the visible cars and
    /// the marketplace from its idle lists; both must give the same bits
    /// for every offered tier, on a 5×5 lattice over the service region,
    /// every 37 ticks of a day, in both cities.
    #[test]
    fn snapshot_ewt_matches_marketplace_ewt() {
        for city in [CityModel::manhattan_midtown(), CityModel::san_francisco_downtown()] {
            let bb = city.service_region.bbox();
            let lattice: Vec<Meters> = (0..25)
                .map(|k| {
                    Meters::new(
                        bb.min.x + (bb.max.x - bb.min.x) * (k % 5) as f64 / 4.0,
                        bb.min.y + (bb.max.y - bb.min.y) * (k / 5) as f64 / 4.0,
                    )
                })
                .collect();
            let mut mp = Marketplace::new(city, MarketplaceConfig::default(), 1);
            for tick in 0..17_280u32 {
                if tick % 37 == 0 {
                    let snap = WorldSnapshot::of(&mp);
                    for t in snap.offered_types() {
                        for &p in &lattice {
                            assert_eq!(
                                snap.ewt_minutes(p, t).to_bits(),
                                mp.ewt_minutes(p, t).to_bits(),
                                "{t:?} at {p:?}, tick {tick}, {}",
                                mp.city().name
                            );
                        }
                    }
                }
                mp.tick();
            }
        }
    }

    #[test]
    fn estimates_rate_limited() {
        let mp = busy_world();
        let snap = WorldSnapshot::of(&mp);
        let mut api = ApiService::new(ProtocolEra::Apr2015, 1);
        let loc = center(&mp);
        for _ in 0..1_000 {
            api.estimates_time(&snap, 9, loc).unwrap();
        }
        assert!(api.estimates_time(&snap, 9, loc).is_err());
        // pingClient is not limited.
        let _ = api.ping_client(&snap, 9, loc);
        // Another account unaffected.
        api.estimates_time(&snap, 10, loc).unwrap();
    }

    #[test]
    fn price_estimates_scale_with_surge() {
        let mp = busy_world();
        let snap = WorldSnapshot::of(&mp);
        let mut api = ApiService::new(ProtocolEra::Feb2015, 1);
        let est = api.estimates_price(&snap, 1, center(&mp)).unwrap();
        for p in est {
            assert!(p.high_estimate > p.low_estimate);
            assert!(p.low_estimate > 0.0);
            if p.car_type == CarType::UberT {
                assert_eq!(p.surge_multiplier, 1.0, "UberT never surges");
            }
        }
    }

    #[test]
    fn location_noise_perturbs_but_stays_deterministic() {
        let mp = busy_world();
        let snap = WorldSnapshot::of(&mp);
        let clean = ApiService::new(ProtocolEra::Feb2015, 1);
        let noisy = ApiService::new(ProtocolEra::Feb2015, 1).with_location_noise(50.0);
        let loc = center(&mp);
        let a = clean.ping_client(&snap, 1, loc);
        let b = noisy.ping_client(&snap, 1, loc);
        let b2 = noisy.ping_client(&snap, 2, loc);
        assert_eq!(b, b2, "noise must be client-independent (determinism calibration)");
        // Positions move, identities don't.
        let xa = a.status(CarType::UberX).unwrap();
        let xb = b.status(CarType::UberX).unwrap();
        assert_eq!(
            xa.cars.iter().map(|c| c.id).collect::<Vec<_>>(),
            xb.cars.iter().map(|c| c.id).collect::<Vec<_>>()
        );
        let moved = xa
            .cars
            .iter()
            .zip(&xb.cars)
            .filter(|(p, q)| surgescope_geo::haversine_m(p.position, q.position) > 1.0)
            .count();
        assert!(moved > 0, "noise had no effect");
        for (p, q) in xa.cars.iter().zip(&xb.cars) {
            let d = surgescope_geo::haversine_m(p.position, q.position);
            assert!(d < 500.0, "perturbation implausibly large: {d} m");
        }
    }

    #[test]
    fn update_delay_ranges_match_eras() {
        let feb = ApiService::new(ProtocolEra::Feb2015, 3);
        let apr = ApiService::new(ProtocolEra::Apr2015, 3);
        for i in 0..500 {
            let d_api = feb.ping.update_delay(i, Consumer::Api);
            assert!((5..40).contains(&d_api));
            let d_feb = feb.ping.update_delay(i, Consumer::Client);
            assert!((5..40).contains(&d_feb));
            let d_apr = apr.ping.update_delay(i, Consumer::Client);
            assert!((5..125).contains(&d_apr));
        }
    }

    #[test]
    fn jitter_only_in_april_era() {
        // Construct a world, then compare per-client surge streams: in the
        // Feb era all clients agree at every instant; in April they can
        // diverge (that divergence is the bug the paper reported to Uber).
        let mut c = CityModel::manhattan_midtown();
        c.supply = c.supply.scaled(0.3);
        c.demand = c.demand.scaled(0.3);
        // Jack demand up so surge is actually active.
        c.demand = c.demand.scaled(4.0);
        let mut mp = Marketplace::new(c, MarketplaceConfig::default(), 11);
        mp.run_for(SimDuration::hours(8));

        let feb = ApiService::new(ProtocolEra::Feb2015, 5);
        let apr = ApiService::new(ProtocolEra::Apr2015, 5)
            .with_jitter(JitterConfig { prob_per_interval: 1.0, short_fraction: 0.9 });

        let loc = center(&mp);
        let mut feb_disagree = 0u32;
        let mut apr_disagree = 0u32;
        for _ in 0..720 {
            // one hour of 5 s pings
            mp.tick();
            let snap = WorldSnapshot::of(&mp);
            let surge_of = |api: &ApiService, key: u64| {
                api.ping_client(&snap, key, loc).surge(CarType::UberX)
            };
            if surge_of(&feb, 1) != surge_of(&feb, 2) {
                feb_disagree += 1;
            }
            if surge_of(&apr, 1) != surge_of(&apr, 2) {
                apr_disagree += 1;
            }
        }
        assert_eq!(feb_disagree, 0, "Feb era must be consistent");
        assert!(apr_disagree > 0, "April era should show client divergence");
    }

    /// One tier of a ping as raw bits: tier, EWT, surge, shown indices.
    type TierBits = (CarType, u64, u64, Vec<usize>);

    /// A ping answered as before the tick context existed: every per-ping
    /// quantity (metres, area, drive speed, propagation delay, jitter
    /// window) derived inline. Returns the tiers and whether the ping
    /// counts as a jitter-window hit.
    fn reference_ping(
        ping: &PingConfig,
        snap: &WorldSnapshot,
        key: u64,
        location: LatLng,
    ) -> (Vec<TierBits>, bool) {
        let city = snap.city();
        let now = snap.now();
        let pos = city.projection.to_meters(location);
        let area = city.area_of(pos);
        let (interval, elapsed) = (now.surge_interval(), now.seconds_into_surge_interval());
        let delayed = elapsed < ping.update_delay(interval, Consumer::Client);
        let jittered = !delayed
            && ping.era == ProtocolEra::Apr2015
            && ping
                .jitter
                .window(ping.bug_seed, key, interval)
                .is_some_and(|w| w.contains(elapsed));
        let board = if delayed || jittered { &snap.surge_previous } else { &snap.surge_current };
        let tiers = snap
            .by_type
            .iter()
            .map(|(t, cars)| {
                let (nearest, l1) = scan_tier(cars, pos);
                let speed_mps = city.drive_speed_mps(now);
                let ewt_min = snap.cfg.ewt_from_drive_secs(l1.map(|(_, d)| d / speed_mps));
                let surge = area.map_or(1.0, |a| board.multiplier(a, *t));
                (*t, ewt_min.to_bits(), surge.to_bits(), nearest.indices().to_vec())
            })
            .collect();
        (tiers, area.is_some() && jittered)
    }

    /// The tick context and per-client origins kept across ticks must
    /// answer every client and tier exactly as the inline reference, in
    /// both eras, with jitter forced on, over three surge intervals (so
    /// pings fall inside and outside each interval's delay window and
    /// every origin redraws its window twice), from a 6x6 lattice over
    /// the service region that includes clients outside every surge area.
    /// The jitter-hit counter must count exactly the reference's hits.
    #[test]
    fn tick_context_matches_inline_reference() {
        let mut c = CityModel::manhattan_midtown();
        c.supply = c.supply.scaled(0.3);
        c.demand = c.demand.scaled(1.2);
        let bb = c.service_region.bbox();
        let lattice: Vec<LatLng> = (0..36)
            .map(|k| {
                c.projection.to_latlng(Meters::new(
                    bb.min.x + (bb.max.x - bb.min.x) * (k % 6) as f64 / 5.0,
                    bb.min.y + (bb.max.y - bb.min.y) * (k / 6) as f64 / 5.0,
                ))
            })
            .collect();
        let mut mp = Marketplace::new(c, MarketplaceConfig::default(), 11);
        mp.run_for(SimDuration::hours(8));
        let jitter = JitterConfig { prob_per_interval: 1.0, short_fraction: 0.9 };
        // Per era: the ping core, one origin per client kept across ticks,
        // and the reference's hit count.
        let mut kernels = [ProtocolEra::Feb2015, ProtocolEra::Apr2015].map(|era| {
            let ping = ApiService::new(era, 5).with_jitter(jitter).ping_config();
            (ping, vec![None::<PingOrigin>; lattice.len()], 0u64)
        });
        let (mut delayed, mut fresh, mut outside, mut surged) = (0, 0, 0, 0);
        // From the top of an interval through three whole ones.
        while mp.now().seconds_into_surge_interval() != 0 {
            mp.tick();
        }
        for _ in 0..180 {
            mp.tick();
            let snap = WorldSnapshot::of(&mp);
            for (ping, origins, hits) in &mut kernels {
                let tick = ping.tick(&snap);
                if tick.delayed { delayed += 1 } else { fresh += 1 }
                for (key, (&loc, origin)) in lattice.iter().zip(origins.iter_mut()).enumerate() {
                    let key = key as u64 * 7 + 3;
                    let origin =
                        origin.get_or_insert_with(|| PingOrigin::new(snap.city(), key, loc));
                    let mut got = Vec::new();
                    tick.visit(origin, |tier| {
                        got.push((
                            tier.car_type,
                            tier.ewt_min.to_bits(),
                            tier.surge.to_bits(),
                            tier.nearest().to_vec(),
                        ));
                    });
                    let (want, hit) = reference_ping(ping, &snap, key, loc);
                    assert_eq!(got, want, "{:?} at {:?}, client {key}", ping.era, snap.now());
                    *hits += u64::from(hit);
                    outside += usize::from(origin.area.is_none());
                    surged += usize::from(got.iter().any(|t| f64::from_bits(t.2) > 1.0));
                }
            }
        }
        for (ping, _, hits) in &kernels {
            assert_eq!(ping.jitter_hits.get(), *hits, "{:?}: jitter_window_hits", ping.era);
        }
        assert!(kernels[1].2 > 0, "no Apr-2015 ping hit its jitter window");
        assert!(delayed > 0 && fresh > 0, "the delay window was never crossed");
        assert!(outside > 0, "every client was inside a surge area");
        assert!(surged > 0, "no ping saw surge; the board choice is untested");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Cars on a 100 m lattice coincide and tie exactly, and queries
        /// on a 50 m lattice add mirror-image ties and reach outside the
        /// cars' box. The one pass must answer both per-tier questions
        /// exactly as the reference scans do, L1 distance compared as bits.
        #[test]
        fn scan_tier_matches_stable_sort_and_first_min_scan(
            pts in proptest::collection::vec((-10i32..11, -10i32..11), 0..60),
            qx in -60i32..61,
            qy in -60i32..61,
        ) {
            let path = Arc::new(PathVector::new(2));
            let cars: Vec<SnapCar> = pts
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| SnapCar {
                    id: i as u64,
                    position: Meters::new(x as f64 * 100.0, y as f64 * 100.0),
                    latlng: LatLng::new(0.0, 0.0),
                    path: Arc::clone(&path),
                })
                .collect();
            let pos = Meters::new(qx as f64 * 50.0, qy as f64 * 50.0);
            let (nearest, l1) = scan_tier(&cars, pos);

            let mut by_d2: Vec<(f64, usize)> =
                cars.iter().enumerate().map(|(i, c)| (c.position.dist2(pos), i)).collect();
            by_d2.sort_by(|a, b| a.0.total_cmp(&b.0));
            let shown: Vec<usize> =
                by_d2.iter().take(NEAREST_CARS_SHOWN).map(|&(_, i)| i).collect();
            prop_assert_eq!(nearest.indices(), shown.as_slice());

            let mut first_min: Option<(usize, f64)> = None;
            for (i, c) in cars.iter().enumerate() {
                let d = (c.position.x - pos.x).abs() + (c.position.y - pos.y).abs();
                if first_min.is_none_or(|(_, best)| d < best) {
                    first_min = Some((i, d));
                }
            }
            prop_assert_eq!(
                l1.map(|(i, d)| (i, d.to_bits())),
                first_min.map(|(i, d)| (i, d.to_bits()))
            );
        }
    }
}
