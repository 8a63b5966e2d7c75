//! Adapters between the measurement fleet and the systems it can measure.
//!
//! The methodology is system-agnostic: §3.5 validates the *same* client
//! logic against a taxi replay before trusting its Uber numbers. The
//! [`MeasuredSystem`] trait captures the minimal contract (advance one
//! 5-second tick; answer a batch of client pings), with implementations
//! for the simulated marketplace ([`UberSystem`]) and the taxi replay
//! ([`TaxiSystem`]); `core::remote` implements it over sockets. Both Uber
//! systems deliver a tick's pings through one [`Delivery`] (fault draws,
//! the late queue and the pools of retired blocks and payload vectors)
//! and write each response into its client's slot through one block
//! writer in `core::observe`, reusing the slot's blocks tick over tick.
//!
//! Both in-process kernels derive once what a tick's pings share. The
//! Uber kernel renders every car once per tick, answers through one
//! per-tick [`TickPing`] context, and keeps one [`PingOrigin`] per
//! client (position in metres, surge area, jitter window per surge
//! interval). The taxi kernel renders the available taxis once per tick
//! into a dense table that every client's scan reads.

use crate::observe::{retire_blocks, write_block, ClientSpec, ObservedCar, TypeObservation};
use std::sync::Arc;
use surgescope_api::{
    ApiService, PingConfig, PingOrigin, TickPing, TickSnapshot, WorldSnapshot, NEAREST_CARS_SHOWN,
};
use surgescope_city::{CarType, CityModel};
use surgescope_geo::{LocalProjection, Meters, NearestK};
use surgescope_marketplace::Marketplace;
use surgescope_obs::{Counter, MetricsRegistry, Timer};
use surgescope_simcore::{ticks_late, FaultOutcome, FaultPlan, SimRng, SimTime, Transport};
use surgescope_taxi::{TaxiReplay, TaxiTrace};

/// Telemetry handles owned by a measured system: fault-outcome counters
/// for the ping kernel plus a wall-clock timer for the ping pipeline.
/// Counter totals follow the seeded fault draws, so they are
/// deterministic; the timer lands in the snapshot's timing section.
#[derive(Debug, Clone, Default)]
pub struct SystemMetrics {
    /// Pings whose response reached the client within its send tick.
    pub pings_delivered: Counter,
    /// Pings answered but parked in the transport queue (`Delay` faults).
    pub pings_delayed: Counter,
    /// Pings lost outright (`Drop` faults).
    pub pings_dropped: Counter,
    /// Wall clock spent in `ping_all_into` (fault draws, pings, merge).
    pub ping: Timer,
}

/// The client side of the transport, written once for both Uber systems
/// (each holds one): the fault plan, its RNG, the late queue and the pools
/// of retired blocks and emptied payload vectors. A tick's pings go
/// through it in three steps:
///
/// 1. [`Delivery::draw`] draws every client's outcome in client order
///    (a plan that never perturbs draws nothing), counts them, sizes the
///    caller's slots and retires each dropped slot's blocks to the pool;
/// 2. the system answers every undropped ping into its slot, a delayed
///    one too, against this tick's world, reclaiming blocks from the pool
///    (in process `ping_one_into`, remotely the client's slot decoder);
/// 3. [`Delivery::deliver`] moves each delayed slot's blocks into the
///    queue, in client order, and appends to each slot what is due.
///
/// So a delayed response carries its send tick's data and lands after
/// the fresh one of its delivery tick: the §5.2 staleness channel. A
/// dropped ping is never answered, and yields no block for its client
/// that tick, ever.
///
/// Every vector is reused: a delayed slot's blocks leave in the slot's
/// own vector and the slot takes an emptied one from the payload pool,
/// and each due payload returns to that pool once its blocks have joined
/// their slot. So the faulted ping path, like the clean one, allocates
/// nothing in steady state.
pub(crate) struct Delivery {
    plan: FaultPlan,
    /// Draws every outcome; checkpointed.
    pub(crate) rng: SimRng,
    /// This tick's outcomes, one per client.
    outcomes: Vec<FaultOutcome>,
    /// In-flight delayed responses, keyed by delivery tick; checkpointed.
    /// Due ones append to their client's slot in `(sent_tick, client)`
    /// order.
    pub(crate) transport: Transport<Vec<TypeObservation>>,
    /// Retired observation blocks. A slot shrinks when a tier drops out
    /// of the snapshot, when a ping is dropped, and on the tick after a
    /// late response joined it; the surplus blocks park here, `cars`
    /// capacity intact, and every response reclaims from here before
    /// allocating. So the pool holds at most the blocks that were ever
    /// live at once, and the ping path stays allocation-free in steady
    /// state.
    spare: Vec<TypeObservation>,
    /// Emptied payload vectors, capacity intact. The pool holds at most
    /// the most payloads ever in flight at once.
    payloads: Vec<Vec<TypeObservation>>,
    /// Fault-outcome counters and the ping timer.
    pub(crate) metrics: SystemMetrics,
}

impl Delivery {
    /// A delivery under `plan`, its fault RNG derived from `seed`. Panics
    /// on an invalid plan (probabilities outside `[0, 1]` or NaN): this is
    /// where struct-literal plans enter a system.
    pub(crate) fn new(plan: FaultPlan, seed: u64) -> Self {
        Delivery {
            plan: plan.validated(),
            rng: SimRng::seed_from_u64(seed).split("transport-faults"),
            outcomes: Vec::new(),
            transport: Transport::new(),
            spare: Vec::new(),
            payloads: Vec::new(),
            metrics: SystemMetrics::default(),
        }
    }

    /// Registers `pings.*`, `phase.ping` and `transport.*` into `reg`.
    pub(crate) fn register(&self, reg: &MetricsRegistry) {
        reg.adopt_counter("pings.delivered", &self.metrics.pings_delivered);
        reg.adopt_counter("pings.delayed", &self.metrics.pings_delayed);
        reg.adopt_counter("pings.dropped", &self.metrics.pings_dropped);
        reg.adopt_timer("phase.ping", &self.metrics.ping);
        self.transport.metrics().register(reg);
    }

    /// Step 1: draws the outcomes of `n` pings, resizes `out` to `n`
    /// slots and empties each dropped one into the pool. Returns the
    /// outcomes and the pool the answers reclaim blocks from.
    pub(crate) fn draw(
        &mut self,
        n: usize,
        out: &mut Vec<Vec<TypeObservation>>,
    ) -> (&[FaultOutcome], &mut Vec<TypeObservation>) {
        let (plan, rng) = (self.plan, &mut self.rng);
        self.outcomes.clear();
        self.outcomes.extend((0..n).map(|_| plan.decide(rng)));
        out.resize_with(n, Vec::new);
        out.truncate(n);
        let (mut delivered, mut delayed, mut dropped) = (0u64, 0u64, 0u64);
        for (oc, slot) in self.outcomes.iter().zip(out.iter_mut()) {
            match oc {
                FaultOutcome::Deliver => delivered += 1,
                FaultOutcome::Delay(_) => delayed += 1,
                FaultOutcome::Drop => {
                    dropped += 1;
                    self.spare.append(slot);
                }
            }
        }
        // Tallied locally, published in three atomic adds.
        self.metrics.pings_delivered.add(delivered);
        self.metrics.pings_delayed.add(delayed);
        self.metrics.pings_dropped.add(dropped);
        (&self.outcomes, &mut self.spare)
    }

    /// Step 3: queues each delayed slot's blocks, in client order, due
    /// `ticks_late` ticks of `tick_secs` from now, then appends every
    /// response due this tick to its client's slot.
    pub(crate) fn deliver(&mut self, out: &mut [Vec<TypeObservation>], tick_secs: u64) {
        for (client, (oc, slot)) in self.outcomes.iter().zip(out.iter_mut()).enumerate() {
            if let FaultOutcome::Delay(d) = *oc {
                let late = ticks_late(d, tick_secs);
                let emptied = self.payloads.pop().unwrap_or_default();
                self.transport.send_delayed(client, late, std::mem::replace(slot, emptied));
            }
        }
        for mut env in self.transport.take_due() {
            if let Some(slot) = out.get_mut(env.client) {
                slot.append(&mut env.payload);
            }
            env.payload.clear();
            self.payloads.push(env.payload);
        }
    }
}

/// Anything the client fleet can measure.
pub trait MeasuredSystem {
    /// Advances the system by one 5-second tick.
    fn advance_tick(&mut self);

    /// Current system time.
    fn now(&self) -> SimTime;

    /// Answers one ping per client, in order. Positions are planar.
    ///
    /// `out` is resized to `clients.len()` and overwritten slot by slot;
    /// passing last tick's buffer back in lets implementations reuse the
    /// per-client block and car vectors instead of reallocating them
    /// every tick. The contents are byte-identical to a fresh buffer.
    /// The in-process implementations answer on the calling thread (see
    /// [`UberSystem`] for why).
    fn ping_all_into(&mut self, clients: &[ClientSpec], out: &mut Vec<Vec<TypeObservation>>);

    /// Allocating convenience wrapper around [`Self::ping_all_into`].
    fn ping_all(&mut self, clients: &[ClientSpec]) -> Vec<Vec<TypeObservation>> {
        let mut out = Vec::new();
        self.ping_all_into(clients, &mut out);
        out
    }
}

/// The simulated ride-sharing marketplace behind its protocol layer.
///
/// Pings are answered serially on the caller's thread by one kernel,
/// `ping_one_into`, writing into the caller's buffer. At the paper's ~45
/// clients a tick's pings are tens of microseconds of work, less than a
/// per-tick hand-off to worker threads costs: on a 2-core host a thread
/// pool ran the same campaign slower on both CPU and wall time. Threads
/// pay across whole campaigns instead (`repro --jobs`).
///
/// Each tier is answered by one pass over its cars (the snapshot keeps
/// no spatial index: a full-scale SF tier holds at most ~90 cars, and a
/// grid rebuilt every tick only beats a scan from ~250). What a client
/// observes of a car (its id, perturbed position in metres and path
/// displacement) is the same for every client that is shown it, so each
/// tick renders every car once into a per-tier table, and a ping copies
/// its shown cars from there instead of rendering them again per
/// client. The remote client does the same with each `PING` reply's car
/// table, and both write their blocks through one writer
/// (`observe::write_block`). What every ping of a tick shares (the
/// surge interval, the drive speed, the client propagation delay) is
/// derived once per tick ([`PingConfig::tick`]), and what depends on
/// the client alone (its position in metres, its surge area, its jitter
/// window per surge interval) once per client ([`PingOrigin`]).
pub struct UberSystem {
    /// The world. Public so experiments can consult ground truth after a
    /// campaign (the paper could not; we can score ourselves).
    pub marketplace: Marketplace,
    /// The protocol endpoint used by the fleet.
    pub api: ApiService,
    /// Transport fault injection between clients and the service
    /// ([`FaultPlan::none`] by default), the late queue and the block
    /// pool; see [`Delivery`].
    pub(crate) delivery: Delivery,
    /// This tick's snapshot, shared between `ping_all` and any same-tick
    /// probes (campaign estimates, experiment price probes), recycled
    /// through its arena at the top of `advance_tick`.
    snapshot: TickSnapshot,
    /// This tick's cars as observed, one row per offered tier in the
    /// snapshot's tier and car order, rendered at the top of every
    /// `ping_all_into`. Rows keep their capacity tick over tick.
    rendered: Vec<Vec<ObservedCar>>,
    /// One ping origin per client slot, with the client it was derived
    /// from; derived afresh whenever the clients passed differ in a key
    /// or in position bits (see [`sync_origins`]).
    origins: Vec<(ClientSpec, PingOrigin)>,
}

impl UberSystem {
    /// Couples a marketplace with a protocol endpoint. The fault RNG is
    /// derived from the marketplace's root seed (formerly a hardcoded
    /// constant, which made every campaign share one fault pattern).
    pub fn new(marketplace: Marketplace, api: ApiService) -> Self {
        let delivery = Delivery::new(FaultPlan::none(), marketplace.seed());
        UberSystem {
            marketplace,
            api,
            delivery,
            snapshot: TickSnapshot::new(),
            rendered: Vec::new(),
            origins: Vec::new(),
        }
    }

    /// This system's own telemetry handles.
    pub fn metrics(&self) -> &SystemMetrics {
        &self.delivery.metrics
    }

    /// Registers every instrument this system (and its layers) owns into
    /// `reg` under stable names. Call after construction is complete —
    /// in particular after a checkpoint resume has restored the late
    /// queue and the rate limiter, which install fresh counter cells.
    pub fn register_metrics(&self, reg: &MetricsRegistry) {
        self.delivery.register(reg);
        reg.adopt_timer("phase.capture", self.snapshot.capture_timer());
        self.marketplace.tick_timers().register(reg);
        reg.adopt_counter("api.rate_limited", self.api.limiter().throttled());
        reg.adopt_counter("api.jitter_window_hits", self.api.jitter_hits());
    }

    /// The world snapshot for the current tick, captured on first use and
    /// shared (via `Arc`) by every consumer until the next `advance_tick`
    /// — `ping_all` and same-tick probes see literally the same object.
    pub fn tick_snapshot(&mut self) -> Arc<WorldSnapshot> {
        self.snapshot.get(&self.marketplace)
    }

    /// Enables transport fault injection on client pings, drawn from a
    /// fault RNG derived from `seed`: a builder step, which starts the
    /// delivery afresh. Panics on an invalid plan (probabilities outside
    /// `[0, 1]` or NaN).
    pub fn with_faults(mut self, plan: FaultPlan, seed: u64) -> Self {
        self.delivery = Delivery::new(plan, seed);
        self
    }

    /// Number of delayed responses currently in flight (diagnostic).
    pub fn in_flight(&self) -> usize {
        self.delivery.transport.in_flight()
    }

    /// Formerly set the worker-thread count of the per-tick ping fan-out.
    /// Pings are now always answered serially, so this does nothing; it
    /// remains for callers built against the old API.
    #[deprecated(note = "pings are answered serially; this is a no-op")]
    pub fn with_parallelism(self, _threads: usize) -> Self {
        self
    }

    fn projection(&self) -> LocalProjection {
        self.marketplace.city().projection
    }
}

/// Renders every car of `snap` as a client observes it into `table`, one
/// row per offered tier in [`WorldSnapshot::offered_types`] order, each
/// row in the snapshot's car order — exactly what converting a wire
/// [`CarInfo`](surgescope_api::CarInfo) for that car gives. Rows reserve
/// to the snapshot's capacity hint, as its tier buckets do, so the table
/// grows only when they do.
fn render_cars(
    ping: &PingConfig,
    snap: &WorldSnapshot,
    proj: &LocalProjection,
    table: &mut Vec<Vec<ObservedCar>>,
) {
    let now = snap.now();
    table.resize_with(snap.offered_types().count(), Vec::new);
    for (row, t) in table.iter_mut().zip(snap.offered_types()) {
        row.clear();
        row.reserve(snap.capacity_hint());
        row.extend(snap.cars_of(t).iter().map(|car| ObservedCar {
            id: car.id,
            position: proj.to_meters(ping.reported_position(car, now)),
            displacement: car.path.displacement(proj),
        }));
    }
}

/// Keeps `origins` one per client of `clients`, in order. When every
/// client matches its slot's key and position bits the origins stay,
/// jitter windows included; otherwise all are derived afresh, each from
/// the lat/lng its client sends (see [`PingOrigin::new`]).
fn sync_origins(
    origins: &mut Vec<(ClientSpec, PingOrigin)>,
    clients: &[ClientSpec],
    city: &CityModel,
) {
    let bits = |c: &ClientSpec| (c.key, c.position.x.to_bits(), c.position.y.to_bits());
    if origins.len() == clients.len()
        && origins.iter().zip(clients).all(|((o, _), c)| bits(o) == bits(c))
    {
        return;
    }
    origins.clear();
    origins.extend(clients.iter().map(|c| {
        (*c, PingOrigin::new(city, c.key, city.projection.to_latlng(c.position)))
    }));
}

/// Answers one client's ping against the tick, overwriting `out` block
/// by block and reusing its per-tier `cars` vectors. This is the only
/// in-process Uber ping kernel. Its observations are byte-identical to
/// converting a full `ping_client` wire response (regression-tested);
/// it just skips materializing the response, copying the shown cars from
/// `rendered` (see [`render_cars`]) through the block writer the remote
/// client shares ([`write_block`], [`retire_blocks`]). Clients see the
/// same tier list every tick, so in steady state nothing here allocates;
/// when the tier count shrinks the surplus blocks retire into `spare`,
/// and a growing tier count reclaims from it before allocating.
fn ping_one_into(
    tick: &TickPing<'_>,
    rendered: &[Vec<ObservedCar>],
    origin: &mut PingOrigin,
    spare: &mut Vec<TypeObservation>,
    out: &mut Vec<TypeObservation>,
) {
    let mut n = 0;
    // `visit` visits the tiers in `offered_types` order, the order
    // `rendered`'s rows follow, so the `n`-th tier reads row `n`.
    tick.visit(origin, |tier| {
        let row = &rendered[n];
        let cars = tier.nearest().iter().map(|&i| row[i]);
        write_block(out, n, spare, tier.car_type, tier.ewt_min, tier.surge, cars);
        n += 1;
    });
    retire_blocks(out, n, spare);
}

impl MeasuredSystem for UberSystem {
    fn advance_tick(&mut self) {
        self.snapshot.release();
        self.marketplace.tick();
        self.delivery.transport.advance_tick();
    }

    fn now(&self) -> SimTime {
        self.marketplace.now()
    }

    /// Answers this tick's pings and merges in any delayed responses that
    /// are due. Per client the returned vector is ordered by *arrival*:
    /// the fresh response first (its round trip is negligible, it lands at
    /// the top of the tick), then late messages in send order — so the
    /// last block of a tier is what the client app displays at the end of
    /// the tick, and a stale response genuinely displaces fresh data on
    /// the screen, which is the §5.2 staleness channel.
    fn ping_all_into(&mut self, clients: &[ClientSpec], out: &mut Vec<Vec<TypeObservation>>) {
        let _ping_span = self.delivery.metrics.ping.start();
        let proj = self.projection();
        let snap = self.tick_snapshot();
        let tick_secs = self.marketplace.config().tick_secs;
        let ping = self.api.ping_core();
        render_cars(ping, &snap, &proj, &mut self.rendered);
        sync_origins(&mut self.origins, clients, snap.city());
        let tick = ping.tick(&snap);
        // Answer every undropped ping straight into the caller's slot,
        // reusing its block and car vectors tick over tick. A delayed one
        // is answered against this tick's snapshot too, so it lands
        // carrying stale data once `deliver` has queued it.
        let (outcomes, spare) = self.delivery.draw(clients.len(), out);
        for (((_, origin), slot), oc) in self.origins.iter_mut().zip(out.iter_mut()).zip(outcomes) {
            if *oc != FaultOutcome::Drop {
                ping_one_into(&tick, &self.rendered, origin, spare, slot);
            }
        }
        self.delivery.deliver(out, tick_secs);
    }
}

/// The taxi replay exposed through the same contract. Taxis have a single
/// pseudo-tier ([`CarType::UberT`]), no EWT and no surge — the §3.5
/// validation only needs car identities and positions.
///
/// A tick's pings share one rendering of the fleet: `ping_all_into`
/// renders the available taxis once, in fleet order, into a dense table,
/// and each client scans the table's positions with the same
/// `NearestK<8>` the Uber kernel uses and copies its winners. Offering in
/// fleet order keeps every distance tie in fleet order, as a stable sort
/// of the whole fleet would.
pub struct TaxiSystem<'a> {
    replay: TaxiReplay<'a>,
    /// This tick's available taxis in fleet order: positions for the
    /// scan, and each taxi as a client observes it. Both are reserved to
    /// the fleet size, so they never grow.
    positions: Vec<Meters>,
    cars: Vec<ObservedCar>,
}

impl<'a> TaxiSystem<'a> {
    /// Wraps a replay of `trace`; ground truth accumulates against
    /// `region` (pass the measurement polygon).
    pub fn new(trace: &'a TaxiTrace, region: surgescope_geo::Polygon, seed: u64) -> Self {
        let fleet = trace.taxi_count as usize;
        TaxiSystem {
            replay: TaxiReplay::new(trace, region, seed),
            positions: Vec::with_capacity(fleet),
            cars: Vec::with_capacity(fleet),
        }
    }

    /// Access to the replay (for ground truth after the campaign).
    pub fn replay(&self) -> &TaxiReplay<'a> {
        &self.replay
    }
}

impl MeasuredSystem for TaxiSystem<'_> {
    fn advance_tick(&mut self) {
        self.replay.tick();
    }

    fn now(&self) -> SimTime {
        self.replay.now()
    }

    /// Renders the available taxis once, then each client's nearest of
    /// them into its slot's one block, reusing the block's car vector, so
    /// with a reused `out` a tick's pings allocate nothing.
    fn ping_all_into(&mut self, clients: &[ClientSpec], out: &mut Vec<Vec<TypeObservation>>) {
        self.positions.clear();
        self.cars.clear();
        self.replay.for_each_available(|id, position, displacement| {
            self.positions.push(position);
            self.cars.push(ObservedCar { id, position, displacement });
        });
        out.resize_with(clients.len(), Vec::new);
        out.truncate(clients.len());
        for (c, slot) in clients.iter().zip(out.iter_mut()) {
            let mut nearest = NearestK::<NEAREST_CARS_SHOWN>::new();
            for (i, p) in self.positions.iter().enumerate() {
                nearest.offer(p.dist2(c.position), i);
            }
            let mut cars = slot
                .pop()
                .map_or_else(|| Vec::with_capacity(NEAREST_CARS_SHOWN), |block| block.cars);
            slot.clear();
            cars.clear();
            cars.extend(nearest.indices().iter().map(|&i| self.cars[i]));
            slot.push(TypeObservation { car_type: CarType::UberT, cars, ewt_min: 0.0, surge: 1.0 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surgescope_api::ProtocolEra;
    use surgescope_city::CityModel;
    use surgescope_geo::Meters;
    use surgescope_marketplace::MarketplaceConfig;
    use surgescope_simcore::SimDuration;
    use surgescope_taxi::TraceGenerator;

    fn uber() -> UberSystem {
        let mut c = CityModel::manhattan_midtown();
        c.supply = c.supply.scaled(0.3);
        c.demand = c.demand.scaled(0.3);
        let mut mp = Marketplace::new(c, MarketplaceConfig::default(), 3);
        mp.run_for(SimDuration::hours(1));
        UberSystem::new(mp, ApiService::new(ProtocolEra::Feb2015, 3))
    }

    #[test]
    fn uber_ping_all_shapes() {
        let mut sys = uber();
        let center = sys.marketplace.city().measurement_region.centroid();
        let clients = vec![
            ClientSpec { key: 0, position: center },
            ClientSpec { key: 1, position: Meters::new(center.x + 300.0, center.y) },
        ];
        let obs = sys.ping_all(&clients);
        assert_eq!(obs.len(), 2);
        for per_client in &obs {
            assert!(!per_client.is_empty());
            let x = per_client.iter().find(|t| t.car_type == CarType::UberX).unwrap();
            assert!(x.cars.len() <= NEAREST_CARS_SHOWN);
            assert!(!x.cars.is_empty(), "midtown should have UberX in view");
        }
    }

    /// 24 clients on a 150 m lattice around the measurement centroid.
    fn lattice(sys: &UberSystem) -> Vec<ClientSpec> {
        let center = sys.marketplace.city().measurement_region.centroid();
        (0..24)
            .map(|i| ClientSpec {
                key: i,
                position: Meters::new(
                    center.x + 150.0 * (i % 6) as f64,
                    center.y + 150.0 * (i / 6) as f64,
                ),
            })
            .collect()
    }

    /// Pinned to the digest the removed 4-thread ping pool produced for
    /// this lossy run, so the serial kernel must reproduce its output.
    #[test]
    fn lossy_ping_all_matches_pinned_pool_output() {
        let mut sys = uber().with_faults(FaultPlan::lossy(0.3), 91);
        let clients = lattice(&sys);
        let mut all = Vec::new();
        for _ in 0..12 {
            all.push(sys.ping_all(&clients));
            sys.advance_tick();
        }
        assert_eq!(
            surgescope_store::hash_of(&all),
            0x9750_ff77_80bf_7d2f,
            "lossy ping_all diverged from the pinned pool output"
        );
        assert!(
            all.iter().flatten().any(|per_client| per_client.is_empty()),
            "fault plan never dropped a ping; test is vacuous"
        );
    }

    /// The cached origins follow the clients passed. One system is pinged,
    /// with jitter forced on, from slices that change between ticks (the
    /// lattice, the lattice shifted 20 m, the same positions under
    /// reversed keys, a shorter slice): runs of 7 ticks, and two holds of
    /// 130 ticks that keep their origins across two interval boundaries,
    /// so a stale position, area, key or jitter window would show. Every
    /// slot must equal the conversion of `ping_client`'s response for its
    /// client, codec bytes compared.
    #[test]
    fn changing_client_sets_match_ping_client() {
        use crate::observe::response_to_observations;
        use serde::Serialize;
        use surgescope_api::JitterConfig;

        let mut c = CityModel::manhattan_midtown();
        c.supply = c.supply.scaled(0.3);
        c.demand = c.demand.scaled(1.2);
        let mut mp = Marketplace::new(c, MarketplaceConfig::default(), 3);
        mp.run_for(SimDuration::hours(8));
        let jitter = JitterConfig { prob_per_interval: 1.0, short_fraction: 0.9 };
        let api = ApiService::new(ProtocolEra::Apr2015, 3).with_jitter(jitter);
        let mut sys = UberSystem::new(mp, api);
        let base = lattice(&sys);
        let shift = |c: &ClientSpec| Meters::new(c.position.x + 20.0, c.position.y);
        let shifted = base.iter().map(|c| ClientSpec { position: shift(c), ..*c }).collect();
        let rekey = |(c, o): (&ClientSpec, &ClientSpec)| ClientSpec { key: o.key, ..*c };
        let reversed = base.iter().zip(base.iter().rev()).map(rekey).collect();
        let shorter = base[..10].to_vec();
        let sets: [Vec<ClientSpec>; 4] = [base, shifted, reversed, shorter];
        let proj = sys.marketplace.city().projection;
        let codec = |blocks: &[TypeObservation]| {
            let mut out = Vec::new();
            surgescope_store::encode_value(&blocks.to_value(), &mut out);
            out
        };
        let first = sys.now().surge_interval();
        let schedule = [(0, 130), (1, 7), (2, 7), (3, 7), (0, 7), (2, 130), (3, 7), (1, 7)];
        let mut out = Vec::new();
        let ticks = schedule.iter().flat_map(|&(set, n)| std::iter::repeat_n(set, n));
        for (tick, set) in ticks.enumerate() {
            let clients = &sets[set];
            sys.ping_all_into(clients, &mut out);
            let snap = sys.tick_snapshot();
            assert_eq!(out.len(), clients.len());
            for (c, blocks) in clients.iter().zip(&out) {
                let resp = sys.api.ping_client(&snap, c.key, proj.to_latlng(c.position));
                let want = response_to_observations(&resp, &proj);
                assert!(codec(blocks) == codec(&want), "tick {tick}: client {}", c.key);
            }
            drop(snap);
            sys.advance_tick();
        }
        assert!(sys.now().surge_interval() >= first + 4, "fewer than four interval boundaries");
        assert!(sys.api.jitter_hits().get() > 0, "no ping hit its jitter window");
    }

    /// Every block in the delivery's pool was once live in a slot or in
    /// flight, and each client has at most `1 + max delay` responses alive
    /// at once, so the pool is bounded. A delayed response built in fresh
    /// blocks instead of pooled ones would grow it by a tier list per
    /// delay, with nothing to trim it.
    #[test]
    fn spare_blocks_stay_bounded_under_delays() {
        let plan = FaultPlan { drop_chance: 0.05, delay_chance: 0.15, max_delay_secs: 20 };
        let mut sys = uber().with_faults(plan, 29);
        let clients = lattice(&sys);
        let tiers = sys.tick_snapshot().offered_types().count();
        let tick_secs = sys.marketplace.config().tick_secs;
        let max_late = ticks_late(SimDuration::secs(plan.max_delay_secs), tick_secs) as usize;
        let bound = clients.len() * tiers * (1 + max_late);
        let mut out = Vec::new();
        for tick in 0..2000 {
            sys.ping_all_into(&clients, &mut out);
            assert!(
                sys.delivery.spare.len() <= bound,
                "tick {tick}: {} spare blocks exceed the bound {bound}",
                sys.delivery.spare.len()
            );
            sys.advance_tick();
        }
        assert!(sys.metrics().pings_delayed.get() > 0, "no ping was delayed; test is vacuous");
    }

    #[test]
    fn delayed_ping_surfaces_next_tick_with_send_time_content() {
        // Twin systems over identical marketplaces: one clean, one whose
        // every ping is delayed 1..=5 s — exactly one 5-s tick late.
        let mut clean = uber();
        let mut laggy = uber().with_faults(FaultPlan::laggy(1.0, 5), 17);
        let center = clean.marketplace.city().measurement_region.centroid();
        let clients: Vec<ClientSpec> = (0..6)
            .map(|i| ClientSpec {
                key: i,
                position: Meters::new(center.x + 200.0 * (i % 3) as f64, center.y),
            })
            .collect();
        let mut clean_hist: Vec<Vec<Vec<TypeObservation>>> = Vec::new();
        for tick in 0..8 {
            let c = clean.ping_all(&clients);
            let l = laggy.ping_all(&clients);
            if tick == 0 {
                assert!(
                    l.iter().all(Vec::is_empty),
                    "a delayed response can never arrive within its send tick"
                );
                assert_eq!(laggy.in_flight(), clients.len());
            } else {
                // The delayed view equals the clean system's *previous*
                // tick — the payload was frozen at send time, not at
                // delivery time. Delay is therefore neither Drop (content
                // arrives) nor a fresh ping (content is one tick stale).
                assert_eq!(
                    &l,
                    clean_hist.last().unwrap(),
                    "tick {tick}: delayed payload must carry send-time content"
                );
            }
            clean_hist.push(c);
            clean.advance_tick();
            laggy.advance_tick();
        }
        // Nothing vanished: only the final tick's sends remain in flight.
        assert_eq!(laggy.in_flight(), clients.len());
        // Staleness is observable: the world moved between ticks, so the
        // send-time content differs from the delivery-tick truth.
        assert!(
            clean_hist.windows(2).any(|w| w[0] != w[1]),
            "world never changed between ticks; staleness assertion is vacuous"
        );
    }

    #[test]
    fn uber_advance_moves_time() {
        let mut sys = uber();
        let t0 = sys.now();
        sys.advance_tick();
        assert_eq!(sys.now(), t0 + SimDuration::secs(5));
    }

    #[test]
    fn uber_cars_have_displacement_after_settling() {
        let mut sys = uber();
        // A few ticks so path vectors fill.
        for _ in 0..5 {
            sys.advance_tick();
        }
        let center = sys.marketplace.city().measurement_region.centroid();
        let obs = sys.ping_all(&[ClientSpec { key: 0, position: center }]);
        let x = obs[0].iter().find(|t| t.car_type == CarType::UberX).unwrap();
        assert!(
            x.cars.iter().any(|c| c.displacement.is_some()),
            "settled cars should carry path displacement"
        );
    }

    /// Pinned to the digest the sorting kernel produced (it cloned every
    /// available taxi's path and stable-sorted the whole fleet per ping),
    /// so the one-pass top-8 kernel must reproduce it byte for byte.
    /// Generated positions are continuous draws, so two taxis never tie
    /// on distance by chance; every even taxi therefore gets a twin that
    /// drives the same rides at the back of the fleet. Twins stand on the
    /// same point, so their distances tie exactly and only fleet order
    /// decides which of them a client sees first, or sees at all.
    #[test]
    fn taxi_ping_all_matches_pinned_sort_output() {
        use crate::calibration::placement;
        use surgescope_taxi::TaxiRide;

        let city = CityModel::manhattan_midtown();
        let mut trace =
            TraceGenerator { taxis: 150, days: 1, ..Default::default() }.generate(&city, 14);
        let fleet = trace.taxi_count;
        let twins: Vec<TaxiRide> = trace
            .rides
            .iter()
            .filter(|r| r.taxi % 2 == 0)
            .map(|r| TaxiRide { taxi: fleet + r.taxi / 2, ..*r })
            .collect();
        trace.rides.extend(twins);
        trace.rides.sort_by_key(|r| (r.pickup_at, r.taxi));
        trace.taxi_count = fleet + fleet.div_ceil(2);

        let region = city.measurement_region.clone();
        let clients = placement(&region, 150.0);
        let mut sys = TaxiSystem::new(&trace, region, 15);
        // Evening: the fleet is out and the ping path is at its busiest.
        while sys.now() < SimTime(18 * 3600) {
            sys.advance_tick();
        }
        let (mut inside, mut cutoff) = (0, 0);
        let mut digests = Vec::new();
        for _ in 0..360 {
            sys.advance_tick();
            let obs = sys.ping_all(&clients);
            digests.push(surgescope_store::hash_of(&obs));
            let visible = sys.replay().visible();
            let (mut tie_in, mut tie_cut) = (false, false);
            for (c, blocks) in clients.iter().zip(&obs) {
                let d2: Vec<u64> = blocks[0]
                    .cars
                    .iter()
                    .map(|car| car.position.dist2(c.position).to_bits())
                    .collect();
                tie_in |= d2.windows(2).any(|w| w[0] == w[1]);
                if let Some(&last) = d2.last().filter(|_| d2.len() == NEAREST_CARS_SHOWN) {
                    let at_cut = visible
                        .iter()
                        .filter(|t| t.position.dist2(c.position).to_bits() == last)
                        .count();
                    let shown = d2.iter().filter(|&&b| b == last).count();
                    tie_cut |= at_cut > shown;
                }
            }
            inside += usize::from(tie_in);
            cutoff += usize::from(tie_cut);
        }
        assert!(inside > 0, "no tick ranked two tied taxis; the tie order is untested");
        assert!(cutoff > 0, "no tie straddled the 8-taxi cutoff; the tie order is untested");
        assert_eq!(
            surgescope_store::hash_of(&digests),
            0x06d6_6868_3413_b58c,
            "taxi ping_all diverged from the pinned sorting-kernel output"
        );
    }

    #[test]
    fn taxi_system_single_pseudo_tier() {
        let city = CityModel::manhattan_midtown();
        let trace = TraceGenerator { taxis: 80, days: 1, ..Default::default() }
            .generate(&city, 5);
        let mut sys = TaxiSystem::new(&trace, city.measurement_region.clone(), 6);
        // Run to the evening peak so taxis are available.
        while sys.now() < SimTime(19 * 3600) {
            sys.advance_tick();
        }
        let center = city.measurement_region.centroid();
        let obs = sys.ping_all(&[ClientSpec { key: 0, position: center }]);
        assert_eq!(obs[0].len(), 1);
        let block = &obs[0][0];
        assert_eq!(block.car_type, CarType::UberT);
        assert!(!block.cars.is_empty(), "evening peak should show taxis");
        assert_eq!(block.surge, 1.0);
    }
}
