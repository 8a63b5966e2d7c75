//! Measurement campaigns (§3.3, §4.1).
//!
//! A campaign deploys a lattice of emulated clients over a city's
//! measurement region and runs them for days of simulated time, pinging
//! every 5 seconds. Observations stream into the estimators as they
//! arrive (the paper stored 996 GB of raw responses; we keep only what
//! the analyses need):
//!
//! * the supply/demand estimator ([`crate::estimate`]);
//! * per-client UberX surge and EWT series (the jitter and duration
//!   analyses need full 5-second resolution);
//! * one API probe per surge area per interval (the API stream is the
//!   jitter-free reference, §5.2–5.3);
//! * the driver transition tracker ([`crate::transitions`]);
//! * per-client daily unique-car counts and mean EWTs (the Fig. 9–10
//!   heatmaps).
//!
//! Because the measured system is simulated, the campaign also captures
//! the marketplace's ground truth — the paper validated against taxis
//! (§3.5, [`Campaign::run_taxi`]); we can additionally score every
//! estimator against the real answer.

use crate::calibration::placement;
use crate::estimate::{EstimatorConfig, SupplyDemandEstimator};
use crate::observe::{latest_of_type, ClientSpec, TypeObservation};
use crate::persist;
use crate::remote::{RemoteMeasuredSystem, RemoteOptions, RemoteWorldSpec};
use crate::systems::{MeasuredSystem, TaxiSystem, UberSystem};
use crate::transitions::TransitionTracker;
use serde::{Deserialize, Serialize, Value};
use surgescope_simcore::FastHashSet;
use std::path::{Path, PathBuf};
use surgescope_api::{
    ApiService, PriceEstimate, ProtocolEra, RateLimitError, RateLimiter, TimeEstimate,
};
use surgescope_city::{CarType, CityModel};
use surgescope_geo::{LatLng, Meters, Polygon};
use surgescope_marketplace::{GroundTruth, Marketplace, MarketplaceConfig};
use surgescope_obs::{Counter, MetricsRegistry, Snapshot, Timer};
use surgescope_simcore::{FaultPlan, SimRng, SimTime, Transport};
use surgescope_store::{encode_key, encode_map_header, encode_value, StoreError};

use surgescope_taxi::{TaxiGroundTruth, TaxiTrace};

/// Durable-store hooks for a campaign run. Both default to off; the
/// campaign then runs fully in memory, exactly as before the store
/// existed. Every store file is written whole to a `.tmp` sibling and
/// renamed into place, so a file on disk is always complete.
#[derive(Debug, Clone, Default)]
pub struct StoreHooks {
    /// Write the campaign's event log here when it finishes:
    /// [`CampaignRunner::finish`] writes it once, one TICK record per
    /// simulated tick from the in-memory series, then a FINISH record.
    /// The log replays into the same `CampaignData` via
    /// [`crate::persist::replay_campaign`] without re-simulation.
    pub log_path: Option<PathBuf>,
    /// Write full-state checkpoints here: [`CampaignRunner::run_to_end`]
    /// writes about eight per campaign, at least 720 ticks (an hour)
    /// apart, and [`CampaignRunner::write_checkpoint`] writes one on
    /// demand.
    pub checkpoint_path: Option<PathBuf>,
}

impl StoreHooks {
    /// Hooks with everything disabled (the `Default`).
    pub fn none() -> Self {
        Self::default()
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Root seed for the whole run.
    pub seed: u64,
    /// Measured duration in hours (the paper ran 2 weeks per city; 72 h
    /// reproduces every distributional shape at a fraction of the cost).
    pub hours: u64,
    /// Protocol era the client fleet speaks.
    pub era: ProtocolEra,
    /// Estimator tuning.
    pub estimator: EstimatorConfig,
    /// Override the client lattice spacing (defaults to the city's).
    pub spacing_override_m: Option<f64>,
    /// Scale the city's fleet and demand (tests use ~0.3 for speed).
    pub scale: f64,
    /// Surge publication policy of the measured marketplace (`Threshold`
    /// is measured Uber; `Smoothed` evaluates the paper's §8 proposal —
    /// see the `ext01` experiment).
    pub surge_policy: surgescope_marketplace::SurgePolicy,
    /// Connections a remote campaign opens when `experiments::cache`
    /// routes it to a server (clamped there to 1..=4); also carried in the
    /// checkpoint encoding. It never changes what a campaign observes,
    /// and in-process pings ignore it: they are answered serially, since
    /// at ~45 clients a per-tick thread hand-off costs more than the
    /// pings it splits.
    pub parallelism: usize,
    /// Transport fault injection on client pings ([`FaultPlan::none`] by
    /// default). Dropped pings leave `NaN` gaps in the per-client series;
    /// delayed pings arrive ticks late carrying send-time content.
    pub faults: FaultPlan,
    /// Durable-store hooks (event log / checkpoints); off by default.
    /// Runtime-only: excluded from serialization and [`CampaignConfig::config_hash`].
    pub store: StoreHooks,
}

impl CampaignConfig {
    /// A fast configuration for tests: scaled-down city, short horizon.
    pub fn test_default(seed: u64) -> Self {
        CampaignConfig {
            seed,
            hours: 6,
            era: ProtocolEra::Apr2015,
            estimator: EstimatorConfig::default(),
            spacing_override_m: None,
            scale: 0.3,
            surge_policy: surgescope_marketplace::SurgePolicy::Threshold,
            parallelism: 1,
            faults: FaultPlan::none(),
            store: StoreHooks::none(),
        }
    }

    /// The full-fidelity configuration used by the experiment harness.
    pub fn paper_default(seed: u64, era: ProtocolEra, hours: u64) -> Self {
        CampaignConfig {
            seed,
            hours,
            era,
            estimator: EstimatorConfig::default(),
            spacing_override_m: None,
            scale: 1.0,
            surge_policy: surgescope_marketplace::SurgePolicy::Threshold,
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            faults: FaultPlan::none(),
            store: StoreHooks::none(),
        }
    }

    /// Identity hash of the *measured* configuration: every field that
    /// changes what a campaign observes (seed, horizon, era, estimator
    /// tuning, spacing, scale, surge policy, fault plan) and none that
    /// only change how it runs (`parallelism`, the remote connection
    /// count, and the store hooks). Two configs with equal hashes produce
    /// bit-identical campaigns; the disk cache and the log/checkpoint
    /// headers key on this.
    pub fn config_hash(&self) -> u64 {
        surgescope_store::value_hash(&self.semantic_value())
    }

    /// The hash-relevant subset of the config (see [`CampaignConfig::config_hash`]).
    fn semantic_value(&self) -> Value {
        Value::Map(vec![
            ("seed".into(), self.seed.to_value()),
            ("hours".into(), self.hours.to_value()),
            ("era".into(), self.era.to_value()),
            ("estimator".into(), self.estimator.to_value()),
            ("spacing_override_m".into(), self.spacing_override_m.to_value()),
            ("scale".into(), self.scale.to_value()),
            ("surge_policy".into(), self.surge_policy.to_value()),
            ("faults".into(), self.faults.to_value()),
        ])
    }
}

impl Serialize for CampaignConfig {
    fn to_value(&self) -> Value {
        let Value::Map(mut fields) = self.semantic_value() else { unreachable!() };
        // Parallelism is carried for information (it never affects the
        // series); store hooks are runtime-only and never serialized.
        fields.push(("parallelism".into(), (self.parallelism as u64).to_value()));
        Value::Map(fields)
    }
}

impl Deserialize for CampaignConfig {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(CampaignConfig {
            seed: u64::from_value(v.field("seed")?)?,
            hours: u64::from_value(v.field("hours")?)?,
            era: ProtocolEra::from_value(v.field("era")?)?,
            estimator: EstimatorConfig::from_value(v.field("estimator")?)?,
            spacing_override_m: Option::<f64>::from_value(v.field("spacing_override_m")?)?,
            scale: f64::from_value(v.field("scale")?)?,
            surge_policy: surgescope_marketplace::SurgePolicy::from_value(
                v.field("surge_policy")?,
            )?,
            parallelism: u64::from_value(v.field("parallelism")?)? as usize,
            faults: FaultPlan::from_value(v.field("faults")?)?,
            store: StoreHooks::none(),
        })
    }
}

/// Everything a campaign produces.
pub struct CampaignData {
    /// The city measured (post-scaling).
    pub city: CityModel,
    /// The client lattice.
    pub clients: Vec<ClientSpec>,
    /// Surge area of each client (by lattice position).
    pub client_area: Vec<Option<usize>>,
    /// Finished supply/demand estimator.
    pub estimator: SupplyDemandEstimator,
    /// `[client][tick]` UberX multiplier seen in pings. A tick on which
    /// the client received no response (dropped or still-in-flight ping)
    /// records `f32::NAN` — a gap, never a fabricated 1.0×.
    pub client_surge: Vec<Vec<f32>>,
    /// `[client][tick]` UberX EWT (minutes) seen in pings. Undelivered
    /// ticks record `f32::NAN` (see [`CampaignData::client_surge`]).
    pub client_ewt: Vec<Vec<f32>>,
    /// `[area][interval]` UberX multiplier from the API probe.
    pub api_surge: Vec<Vec<f32>>,
    /// `[area][interval]` UberX EWT (minutes) at the area centroid.
    pub api_ewt: Vec<Vec<f32>>,
    /// `[area][interval]` mean *instantaneous* visible UberX count — the
    /// per-ping car count averaged over the window, which is how §5.4
    /// constructs its supply series ("averaging each quantity over the
    /// 5-minute window"). Unlike the unique-ID union it dips when cars
    /// get booked, which is what the (supply − demand) correlation keys
    /// on.
    pub avg_visible: Vec<Vec<f32>>,
    /// Driver transition tally.
    pub transitions: TransitionTracker,
    /// `[client][day]` unique UberX ids seen.
    pub client_daily_cars: Vec<Vec<u32>>,
    /// Mean unique UberX ids seen per 5-minute interval, per client —
    /// a spatial density proxy (the per-day counts homogenize once every
    /// car has wandered past every client). Intervals in which the client
    /// received no ping at all are excluded from the denominator.
    pub client_interval_cars: Vec<f64>,
    /// Mean UberX EWT per client over the whole campaign, averaged over
    /// *delivered* pings only — gaps do not dilute the mean toward zero.
    pub client_mean_ewt: Vec<f64>,
    /// Delivered-ping count per client (ticks whose response actually
    /// reached the client, fresh or late). `ticks - client_delivered[i]`
    /// is the number of `NaN` gaps in that client's series.
    pub client_delivered: Vec<u64>,
    /// Simulation tick length (5 s).
    pub tick_secs: u64,
    /// Total ticks run.
    pub ticks: usize,
    /// Closed 5-minute intervals.
    pub intervals: usize,
    /// Marketplace ground truth (what the paper could not see).
    pub truth: GroundTruth,
}

impl CampaignData {
    /// Clients located in `area`.
    pub fn clients_in_area(&self, area: usize) -> Vec<usize> {
        self.client_area
            .iter()
            .enumerate()
            .filter(|(_, a)| **a == Some(area))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Offset into each interval at which the API probe fires: past the
/// maximum API propagation delay (40 s) so the probe reads the interval's
/// settled multiplier.
const PROBE_OFFSET_SECS: u64 = 45;

/// The measured system behind a campaign: the in-process simulated
/// marketplace, or a set of sockets to a `surgescope-serve` endpoint. Both expose the same [`MeasuredSystem`] surface plus the
/// interval API probes; every byte the runner accumulates is identical
/// across the two (that is the serving layer's determinism contract,
/// regression-locked by the lockstep integration tests).
enum SystemBackend {
    /// Everything in this process: [`UberSystem`] over the marketplace.
    Local(UberSystem),
    /// The marketplace lives behind a wire; pings, probes and ground
    /// truth travel over TCP. Fault injection stays client-side.
    Remote(RemoteMeasuredSystem),
}

impl SystemBackend {
    fn advance_tick(&mut self) {
        match self {
            SystemBackend::Local(u) => u.advance_tick(),
            SystemBackend::Remote(r) => r.advance_tick(),
        }
    }

    fn now(&self) -> SimTime {
        match self {
            SystemBackend::Local(u) => u.now(),
            SystemBackend::Remote(r) => r.now(),
        }
    }

    fn ping_all_into(&mut self, clients: &[ClientSpec], out: &mut Vec<Vec<TypeObservation>>) {
        match self {
            SystemBackend::Local(u) => u.ping_all_into(clients, out),
            SystemBackend::Remote(r) => r.ping_all_into(clients, out),
        }
    }

    fn in_flight(&self) -> usize {
        match self {
            SystemBackend::Local(u) => u.in_flight(),
            SystemBackend::Remote(r) => r.in_flight(),
        }
    }

    /// `estimates/price` against the current tick's state. The local arm
    /// reuses the tick's cached snapshot (the pings above captured it);
    /// the remote arm asks the server, whose world stays at the same tick
    /// until the client's first `PING` of the next one.
    fn probe_price(
        &mut self,
        account: u64,
        loc: LatLng,
    ) -> Result<Vec<PriceEstimate>, RateLimitError> {
        match self {
            SystemBackend::Local(u) => {
                let snap = u.tick_snapshot();
                u.api.estimates_price(&snap, account, loc)
            }
            SystemBackend::Remote(r) => r.probe_price(account, loc),
        }
    }

    /// `estimates/time`; see [`SystemBackend::probe_price`].
    fn probe_time(
        &mut self,
        account: u64,
        loc: LatLng,
    ) -> Result<Vec<TimeEstimate>, RateLimitError> {
        match self {
            SystemBackend::Local(u) => {
                let snap = u.tick_snapshot();
                u.api.estimates_time(&snap, account, loc)
            }
            SystemBackend::Remote(r) => r.probe_time(account, loc),
        }
    }

    fn register_metrics(&self, reg: &MetricsRegistry) {
        match self {
            SystemBackend::Local(u) => u.register_metrics(reg),
            SystemBackend::Remote(r) => r.register_metrics(reg),
        }
    }

    /// The remote circuit breaker, if it tripped: the wire retry budget
    /// ran out mid-campaign and no further progress is possible. Local
    /// backends never fault. The runner checks this after every phase
    /// that talks to the server, so a dead connection aborts the campaign
    /// with an error instead of silently recording garbage.
    fn remote_fault(&self) -> Option<std::io::Error> {
        match self {
            SystemBackend::Local(_) => None,
            SystemBackend::Remote(r) => r.fault(),
        }
    }

    /// The in-process system, when there is one. Checkpoint/resume needs
    /// direct marketplace access and is local-only by construction
    /// ([`CampaignRunner::new_remote`] rejects store hooks).
    fn local(&self) -> Option<&UberSystem> {
        match self {
            SystemBackend::Local(u) => Some(u),
            SystemBackend::Remote(_) => None,
        }
    }

    /// Consumes the backend and yields the marketplace ground truth —
    /// directly for a local run, over the wire (`FINISH`) for a remote.
    fn into_truth(self) -> Result<GroundTruth, StoreError> {
        match self {
            SystemBackend::Local(u) => Ok(u.marketplace.into_truth()),
            SystemBackend::Remote(r) => r.finish().map_err(StoreError::Io),
        }
    }
}

/// A measurement campaign as a resumable state machine.
///
/// [`Campaign::run_uber`] used to be one monolithic loop; the runner
/// splits it into [`CampaignRunner::tick`] steps so the campaign can be
/// checkpointed at any tick boundary and resumed from a checkpoint — the
/// resumed run continues **bit-identically** (NaN payloads included) to
/// the uninterrupted one — and written to a durable log when it finishes.
pub struct CampaignRunner {
    cfg: CampaignConfig,
    city: CityModel,
    clients: Vec<ClientSpec>,
    client_area: Vec<Option<usize>>,
    centroids: Vec<Meters>,
    n_areas: usize,
    sys: SystemBackend,
    estimator: SupplyDemandEstimator,
    transitions: TransitionTracker,
    client_surge: Vec<Vec<f32>>,
    client_ewt: Vec<Vec<f32>>,
    api_surge: Vec<Vec<f32>>,
    api_ewt: Vec<Vec<f32>>,
    daily_sets: Vec<FastHashSet<u64>>,
    client_daily_cars: Vec<Vec<u32>>,
    interval_sets: Vec<FastHashSet<u64>>,
    interval_car_sum: Vec<f64>,
    // Per-client count of intervals with at least one delivered ping;
    // an interval the client never heard from is a gap, not a zero.
    interval_car_n: Vec<u64>,
    interval_seen: Vec<bool>,
    avg_visible: Vec<Vec<f32>>,
    /// Scratch, cleared within every tick — always empty at checkpoint
    /// boundaries, so never serialized.
    tick_area_sets: Vec<FastHashSet<u64>>,
    /// Per-client observation buffer handed back to `ping_all_into`
    /// every tick so block/car vectors are reused, not reallocated.
    /// Overwritten in full each tick; transient, never serialized.
    obs: Vec<Vec<TypeObservation>>,
    inst_sum: Vec<f64>,
    inst_ticks: u64,
    ewt_sum: Vec<f64>,
    ewt_n: Vec<u64>,
    client_delivered: Vec<u64>,
    probe_pending: Option<Vec<f32>>,
    probe_limited_logged: bool,
    ticks_total: usize,
    ticks_done: usize,
    /// The first checkpoint `run_to_end` could not write; it writes none
    /// after it, and `finish_and_log` reports it.
    store_failure: Option<StoreError>,
    /// Campaign-scoped metrics registry plus the runner's own handles.
    /// Observational only: never serialized, never part of
    /// [`CampaignData`] (which must stay byte-stable across resume).
    metrics: RunnerMetrics,
}

/// The runner's own instruments plus the registry that aggregates them
/// with every layer below (system, marketplace, transport, api, store).
struct RunnerMetrics {
    registry: MetricsRegistry,
    /// Ticks on which a client recorded a NaN gap (one per client-tick).
    gaps: Counter,
    /// NaN values recorded by throttled API probes.
    probe_nan: Counter,
    /// Ticks completed by this process.
    ticks: Counter,
    /// Checkpoints written.
    checkpoints: Counter,
    /// Wall clock spent serializing + writing checkpoints.
    checkpoint_timer: Timer,
    /// Each tick's client observation loop, `end_tick` and per-area flush.
    observe: Timer,
    /// Bytes and records of every store file this runner wrote: each
    /// checkpoint as it is written, the log when `finish` writes it.
    log_bytes: Counter,
    log_records: Counter,
}

impl RunnerMetrics {
    /// Builds the campaign registry: the runner's own instruments plus
    /// everything the fully-constructed `sys` exposes. Call only after a
    /// resume has restored the system's layers — restores install fresh
    /// counter cells.
    fn new(sys: &SystemBackend, n_clients: usize) -> Self {
        let registry = MetricsRegistry::new();
        sys.register_metrics(&registry);
        registry.gauge("campaign.clients").set(n_clients as u64);
        RunnerMetrics {
            gaps: registry.counter("campaign.gaps"),
            probe_nan: registry.counter("campaign.probe_nan"),
            ticks: registry.counter("campaign.ticks"),
            checkpoints: registry.counter("store.checkpoints"),
            checkpoint_timer: registry.timer("store.checkpoint"),
            observe: registry.timer("phase.observe"),
            log_bytes: registry.counter("store.log_bytes"),
            log_records: registry.counter("store.log_records"),
            registry,
        }
    }
}

/// Applies the campaign's supply/demand scale factor to the city model.
fn scale_city(city: &mut CityModel, scale: f64) {
    if (scale - 1.0).abs() > 1e-9 {
        city.supply = city.supply.scaled(scale);
        city.demand = city.demand.scaled(scale);
    }
}

/// Client lattice and surge-area geometry, derived deterministically from
/// the (post-scale) city and config — never serialized.
fn geometry(
    city: &CityModel,
    cfg: &CampaignConfig,
) -> (Vec<ClientSpec>, Vec<Option<usize>>, Vec<Polygon>, Vec<Vec<usize>>, Vec<Meters>) {
    let spacing = cfg.spacing_override_m.unwrap_or(city.client_spacing_m);
    let clients = placement(&city.measurement_region, spacing);
    let client_area: Vec<Option<usize>> =
        clients.iter().map(|c| city.area_of(c.position).map(|a| a.0)).collect();
    let area_polys: Vec<Polygon> = city.areas.iter().map(|a| a.polygon.clone()).collect();
    let adjacency = persist::area_adjacency(city);
    let centroids: Vec<Meters> = area_polys.iter().map(|p| p.centroid()).collect();
    (clients, client_area, area_polys, adjacency, centroids)
}

impl CampaignRunner {
    /// Builds a fresh campaign over `city` (pre-scale; `cfg.scale` is
    /// applied here). Opens no file: a bad store path surfaces at the
    /// first checkpoint or at [`CampaignRunner::finish`].
    pub fn new(mut city: CityModel, cfg: &CampaignConfig) -> Result<Self, StoreError> {
        scale_city(&mut city, cfg.scale);
        let cfg = cfg.clone();
        let market_cfg =
            MarketplaceConfig { surge_policy: cfg.surge_policy, ..Default::default() };
        let mp = Marketplace::new(city.clone(), market_cfg, cfg.seed);
        let api = ApiService::new(cfg.era, cfg.seed ^ 0xB0B5);
        let sys = SystemBackend::Local(UberSystem::new(mp, api).with_faults(cfg.faults, cfg.seed));
        Ok(Self::fresh(city, cfg, sys))
    }

    /// Builds a campaign measured **over the wire**: the marketplace runs
    /// inside a `surgescope-serve` server at `addr`, and this process
    /// drives it through `connections` sockets. The
    /// resulting [`CampaignData`] is byte-identical to the in-process
    /// [`CampaignRunner::new`] run with the same config — clean or
    /// faulted, at any connection count.
    ///
    /// Store hooks are rejected: the event log and checkpoints
    /// serialize marketplace internals this process does not hold.
    pub fn new_remote(
        city: CityModel,
        cfg: &CampaignConfig,
        addr: &str,
        connections: usize,
    ) -> Result<Self, StoreError> {
        Self::new_remote_with(city, cfg, addr, connections, RemoteOptions::default())
    }

    /// [`CampaignRunner::new_remote`] with explicit transport options:
    /// retry/reconnect policy and optional deterministic chaos injection
    /// (see [`RemoteOptions`]). When the retry budget runs
    /// out mid-campaign the circuit breaker trips and the next
    /// [`CampaignRunner::tick`] returns an `Io` error whose message names
    /// the breaker — callers with a local fallback key off that.
    pub fn new_remote_with(
        mut city: CityModel,
        cfg: &CampaignConfig,
        addr: &str,
        connections: usize,
        options: RemoteOptions,
    ) -> Result<Self, StoreError> {
        if cfg.store.log_path.is_some() || cfg.store.checkpoint_path.is_some() {
            return Err(StoreError::Schema(
                "remote campaigns do not support store hooks \
                 (the event log and checkpoints are local-only)"
                    .into(),
            ));
        }
        scale_city(&mut city, cfg.scale);
        let cfg = cfg.clone();
        let spec = RemoteWorldSpec {
            city: &city,
            seed: cfg.seed,
            era: cfg.era,
            surge_policy: cfg.surge_policy,
        };
        let remote =
            RemoteMeasuredSystem::connect_with(addr, &spec, cfg.faults, connections, options)
                .map_err(StoreError::Io)?;
        Ok(Self::fresh(city, cfg, SystemBackend::Remote(remote)))
    }

    /// Shared tail of the constructors and of [`CampaignRunner::resume`]:
    /// lattice + geometry, estimators, metrics, zeroed accumulators.
    /// `city` is post-scale.
    fn fresh(city: CityModel, cfg: CampaignConfig, sys: SystemBackend) -> Self {
        let (clients, client_area, area_polys, adjacency, centroids) =
            geometry(&city, &cfg);
        let n_areas = city.area_count();

        let estimator =
            SupplyDemandEstimator::new(cfg.estimator, city.measurement_region.clone(), area_polys);
        let transitions = TransitionTracker::new(adjacency);

        let n = clients.len();
        let ticks_total = (cfg.hours * 3600 / 5) as usize;
        let metrics = RunnerMetrics::new(&sys, n);
        CampaignRunner {
            city,
            clients,
            client_area,
            centroids,
            n_areas,
            sys,
            estimator,
            transitions,
            // One reservation per row: `vec![row; n]` clones the row, and a
            // clone of an empty vector reserves nothing.
            client_surge: (0..n).map(|_| Vec::with_capacity(ticks_total)).collect(),
            client_ewt: (0..n).map(|_| Vec::with_capacity(ticks_total)).collect(),
            api_surge: vec![Vec::new(); n_areas],
            api_ewt: vec![Vec::new(); n_areas],
            daily_sets: vec![FastHashSet::default(); n],
            client_daily_cars: vec![Vec::new(); n],
            interval_sets: vec![FastHashSet::default(); n],
            interval_car_sum: vec![0.0; n],
            interval_car_n: vec![0; n],
            interval_seen: vec![false; n],
            avg_visible: vec![Vec::new(); n_areas],
            tick_area_sets: vec![FastHashSet::default(); n_areas],
            obs: Vec::new(),
            inst_sum: vec![0.0; n_areas],
            inst_ticks: 0,
            ewt_sum: vec![0.0; n],
            ewt_n: vec![0; n],
            client_delivered: vec![0; n],
            probe_pending: None,
            probe_limited_logged: false,
            ticks_total,
            ticks_done: 0,
            store_failure: None,
            cfg,
            metrics,
        }
    }

    /// A point-in-time reading of every instrument in the campaign's
    /// registry (system, marketplace, transport, api, store and the
    /// runner itself). The snapshot's deterministic section is a pure
    /// function of the config; wall-clock timers live in its timing
    /// section only.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.registry.snapshot()
    }

    fn check_remote_fault(&self) -> Result<(), StoreError> {
        match self.sys.remote_fault() {
            Some(e) => Err(StoreError::Io(e)),
            None => Ok(()),
        }
    }

    /// Total ticks this campaign will run.
    pub fn ticks_total(&self) -> usize {
        self.ticks_total
    }

    /// Ticks completed so far.
    pub fn ticks_done(&self) -> usize {
        self.ticks_done
    }

    /// Delayed responses currently in flight (diagnostic; non-zero at a
    /// checkpoint boundary exercises the transport-restore path).
    pub fn in_flight(&self) -> usize {
        self.sys.in_flight()
    }

    /// Runs one 5-second tick: advance the world, ping every client, and
    /// stream the observations into the estimators.
    ///
    /// On a remote backend the pings and the probes, the phases that
    /// talk to the server, are each followed by a circuit-breaker check:
    /// a wire failure that survived the retry budget surfaces here as
    /// `StoreError::Io` instead of a panic, before any partial
    /// observations are consumed.
    pub fn tick(&mut self) -> Result<(), StoreError> {
        self.sys.advance_tick();
        let now = self.sys.now();
        // The tick advanced the world from `state_t` to `now`; the
        // observations describe the state at `state_t`. Stamping them
        // with `now` would smear each interval's last tick into the
        // next interval and inflate per-interval unique counts.
        let state_t = now.saturating_sub(surgescope_simcore::SimDuration::secs(5));
        let mut obs = std::mem::take(&mut self.obs);
        self.sys.ping_all_into(&self.clients, &mut obs);
        if let Some(e) = self.sys.remote_fault() {
            self.obs = obs;
            return Err(StoreError::Io(e));
        }
        let observe_span = self.metrics.observe.start();
        for (i, blocks) in obs.iter().enumerate() {
            // The estimator skips exact repeats and finds each area once.
            self.estimator.observe_with(state_t, blocks, |id, a| {
                self.transitions.observe(id, a);
                self.tick_area_sets[a].insert(id);
            });
            // Every delivered UberX block contributes car sightings —
            // a late block re-reports its send-time positions, exactly
            // as the client's log would. The *displayed* surge/EWT is
            // the last block to arrive this tick (fresh first, then
            // late sends in order — stale data displaces fresh). These
            // sets count what each client saw: no sighting is skipped.
            for x in blocks.iter().filter(|b| b.car_type == CarType::UberX) {
                for car in &x.cars {
                    self.daily_sets[i].insert(car.id);
                    self.interval_sets[i].insert(car.id);
                }
            }
            if let Some(x) = latest_of_type(blocks, CarType::UberX) {
                self.client_surge[i].push(x.surge as f32);
                self.client_ewt[i].push(x.ewt_min as f32);
                self.ewt_sum[i] += x.ewt_min;
                self.ewt_n[i] += 1;
                self.client_delivered[i] += 1;
                self.interval_seen[i] = true;
            } else {
                // No response reached this client this tick (dropped
                // or still in flight): a gap, never a fabricated 1.0×.
                self.client_surge[i].push(f32::NAN);
                self.client_ewt[i].push(f32::NAN);
                self.metrics.gaps.incr();
            }
        }
        self.obs = obs;
        self.estimator.end_tick(now);
        for (a, set) in self.tick_area_sets.iter_mut().enumerate() {
            self.inst_sum[a] += set.len() as f64;
            set.clear();
        }
        drop(observe_span);
        self.inst_ticks += 1;

        // API probe once per interval, after the propagation delay.
        if now.seconds_into_surge_interval() == PROBE_OFFSET_SECS {
            // Same tick as ping_all above: the local backend reuses its
            // cached snapshot, the remote one probes the server world,
            // frozen until the next tick's first PING — both read the
            // identical state.
            let mut this_interval = Vec::with_capacity(self.n_areas);
            let mut limited_logged = self.probe_limited_logged;
            for (ai, centroid) in self.centroids.iter().enumerate() {
                let loc = self.city.projection.to_latlng(*centroid);
                let account = 1_000_000 + ai as u64;
                // The probe budget sits far below the rate limit, but
                // a throttled probe must degrade to a gap — one NaN
                // interval — rather than abort a multi-day campaign.
                let probe_nan = &self.metrics.probe_nan;
                let mut limited = |e: &dyn std::fmt::Display| {
                    if !limited_logged {
                        eprintln!(
                            "campaign: API probe rate-limited ({e}); \
                             recording NaN for the affected intervals"
                        );
                        limited_logged = true;
                    }
                    probe_nan.incr();
                    f64::NAN
                };
                let surge = match self.sys.probe_price(account, loc) {
                    Ok(prices) => prices
                        .iter()
                        .find(|p| p.car_type == CarType::UberX)
                        .map_or(1.0, |p| p.surge_multiplier),
                    Err(e) => limited(&e),
                };
                let ewt = match self.sys.probe_time(account, loc) {
                    Ok(times) => times
                        .iter()
                        .find(|t| t.car_type == CarType::UberX)
                        .map_or(0.0, |t| t.estimate_secs as f64 / 60.0),
                    Err(e) => limited(&e),
                };
                self.api_surge[ai].push(surge as f32);
                self.api_ewt[ai].push(ewt as f32);
                this_interval.push(surge as f32);
            }
            self.probe_limited_logged = limited_logged;
            self.probe_pending = Some(this_interval);
            // A probe that exhausted its retry budget reported a silent
            // gap; surface the tripped breaker before the gap is kept.
            self.check_remote_fault()?;
        }

        // Interval boundary: close the transition tally with the
        // multipliers measured *during* the closed interval, and
        // flush the per-client interval car sets.
        if now.seconds_into_surge_interval() == 0 {
            if let Some(m) = self.probe_pending.take() {
                let m64: Vec<f64> = m.iter().map(|x| *x as f64).collect();
                self.transitions.close_interval(&m64);
            }
            for (i, set) in self.interval_sets.iter_mut().enumerate() {
                // Only intervals with at least one delivered ping
                // count: a silent interval is missing data, and a
                // zero would bias the density proxy downward.
                if self.interval_seen[i] {
                    self.interval_car_sum[i] += set.len() as f64;
                    self.interval_car_n[i] += 1;
                }
                self.interval_seen[i] = false;
                set.clear();
            }
            for a in 0..self.n_areas {
                avg_flush(&mut self.avg_visible[a], &mut self.inst_sum[a], self.inst_ticks);
            }
            self.inst_ticks = 0;
        }

        // Day boundary: flush per-client unique-car counts.
        if now.seconds_into_day() == 0 && now.as_secs() > 0 {
            for (i, set) in self.daily_sets.iter_mut().enumerate() {
                self.client_daily_cars[i].push(set.len() as u32);
                set.clear();
            }
        }

        self.ticks_done += 1;
        self.metrics.ticks.incr();
        Ok(())
    }

    /// Runs every remaining tick. When the store hooks name a checkpoint
    /// path it checkpoints about eight times per campaign, at least 720
    /// ticks (an hour) apart, but never after the final tick — at that
    /// point [`CampaignRunner::finish`] is the only sensible continuation.
    /// A checkpoint that cannot be written stops only the checkpoints:
    /// the run goes on to the horizon and [`CampaignRunner::finish_and_log`]
    /// reports the failure. The only error is a tick's (a remote breaker).
    pub fn run_to_end(&mut self) -> Result<(), StoreError> {
        let every = (self.ticks_total / 8).max(720);
        while self.ticks_done < self.ticks_total {
            self.tick()?;
            if self.store_failure.is_none()
                && self.cfg.store.checkpoint_path.is_some()
                && self.ticks_done.is_multiple_of(every)
                && self.ticks_done < self.ticks_total
            {
                self.store_failure = self.write_checkpoint().err();
            }
        }
        Ok(())
    }

    /// Writes the complete mutable campaign state at the current tick
    /// boundary to `cfg.store.checkpoint_path` (atomic: written to a
    /// `.tmp` sibling, then renamed). Self-contained: the checkpoint
    /// carries the config and the post-scale city, so
    /// [`CampaignRunner::resume`] needs nothing else.
    ///
    /// The state is one codec map encoded straight into bytes. Most
    /// fields are small trees; the two per-client, per-tick series hold
    /// most of the file and are streamed sample by sample, because as a
    /// tree every 4-byte sample would cost a 32-byte `Value`.
    pub fn write_checkpoint(&self) -> Result<(), StoreError> {
        let path = self.cfg.store.checkpoint_path.as_ref().ok_or_else(|| {
            StoreError::Schema("write_checkpoint: no checkpoint_path configured".into())
        })?;
        let sys = self
            .sys
            .local()
            .expect("checkpoints require an in-process campaign (remote runs reject store hooks)");
        let _span = self.metrics.checkpoint_timer.start();
        self.metrics.checkpoints.incr();
        let sorted = |sets: &[FastHashSet<u64>]| -> Value {
            sets.iter()
                .map(|s| {
                    let mut ids: Vec<u64> = s.iter().copied().collect();
                    ids.sort_unstable();
                    ids
                })
                .collect::<Vec<_>>()
                .to_value()
        };
        let head = [
            ("config", self.cfg.to_value()),
            ("city", self.city.to_value()),
            ("ticks_done", (self.ticks_done as u64).to_value()),
            ("marketplace", sys.marketplace.save_state()),
            ("limiter", sys.api.limiter().to_value()),
            ("fault_rng", sys.delivery.rng.to_value()),
            ("transport", sys.delivery.transport.to_value()),
            ("estimator", self.estimator.to_value()),
            ("transitions", self.transitions.save_state()),
        ];
        let series = [("client_surge", &self.client_surge), ("client_ewt", &self.client_ewt)];
        let tail = [
            ("api_surge", persist::f32_rows_to_bits(&self.api_surge)),
            ("api_ewt", persist::f32_rows_to_bits(&self.api_ewt)),
            ("avg_visible", persist::f32_rows_to_bits(&self.avg_visible)),
            ("daily_sets", sorted(&self.daily_sets)),
            ("client_daily_cars", self.client_daily_cars.to_value()),
            ("interval_sets", sorted(&self.interval_sets)),
            ("interval_car_sum", self.interval_car_sum.to_value()),
            ("interval_car_n", self.interval_car_n.to_value()),
            ("interval_seen", self.interval_seen.to_value()),
            ("inst_sum", self.inst_sum.to_value()),
            ("inst_ticks", self.inst_ticks.to_value()),
            ("ewt_sum", self.ewt_sum.to_value()),
            ("ewt_n", self.ewt_n.to_value()),
            ("client_delivered", self.client_delivered.to_value()),
            ("probe_pending", match &self.probe_pending {
                Some(m) => persist::f32s_to_bits(m),
                None => Value::Null,
            }),
            ("probe_limited_logged", self.probe_limited_logged.to_value()),
        ];
        let mut out = Vec::new();
        encode_map_header(head.len() + series.len() + tail.len(), &mut out);
        for (key, v) in &head {
            encode_key(key, &mut out);
            encode_value(v, &mut out);
        }
        for (key, rows) in series {
            encode_key(key, &mut out);
            persist::encode_f32_rows(rows, &mut out);
        }
        for (key, v) in &tail {
            encode_key(key, &mut out);
            encode_value(v, &mut out);
        }
        let bytes = surgescope_store::write_checkpoint(path, self.cfg.config_hash(), &out)?;
        self.metrics.log_bytes.add(bytes);
        self.metrics.log_records.incr();
        Ok(())
    }

    /// Rebuilds a runner from the state [`CampaignRunner::write_checkpoint`]
    /// wrote (as [`surgescope_store::read_checkpoint`] decodes it).
    /// `hooks` is a runtime knob supplied afresh; the log, written whole
    /// by [`CampaignRunner::finish`], covers every tick of the campaign
    /// although this process only runs its tail.
    ///
    /// Restores the system, builds the rest as [`CampaignRunner::new`]
    /// does, then overwrites every accumulator from the checkpoint,
    /// refusing a field whose row count does not match the lattice or
    /// the city: resumed, it would panic ticks later.
    pub fn resume(v: &Value, hooks: StoreHooks) -> Result<Self, StoreError> {
        let mut cfg = CampaignConfig::from_value(v.field("config")?)?;
        cfg.store = hooks;
        let city = CityModel::from_value(v.field("city")?)?;
        let market_cfg =
            MarketplaceConfig { surge_policy: cfg.surge_policy, ..Default::default() };
        // The checkpointed city is already scaled; restore_state rebuilds
        // the world around it directly (no re-scaling).
        let mp = Marketplace::restore_state(city.clone(), market_cfg, v.field("marketplace")?)?;
        let mut api = ApiService::new(cfg.era, cfg.seed ^ 0xB0B5);
        api.set_limiter(RateLimiter::from_value(v.field("limiter")?)?);
        let mut sys = UberSystem::new(mp, api).with_faults(cfg.faults, cfg.seed);
        sys.delivery.rng = SimRng::from_value(v.field("fault_rng")?)?;
        sys.delivery.transport = Transport::from_value(v.field("transport")?)?;
        // `fresh` registers the metrics after the restores above, which
        // installed fresh counter cells.
        let mut r = Self::fresh(city, cfg, SystemBackend::Local(sys));

        r.ticks_done = u64::from_value(v.field("ticks_done")?)? as usize;
        if r.ticks_done > r.ticks_total {
            return Err(StoreError::Schema(format!(
                "checkpoint at tick {} beyond campaign horizon {}",
                r.ticks_done, r.ticks_total
            )));
        }
        let areas: Vec<Value> = r.city.areas.iter().map(|a| a.polygon.to_value()).collect();
        if *v.field("estimator")?.field("areas")? != Value::Seq(areas) {
            return Err(StoreError::Schema("estimator areas differ from the city's".into()));
        }
        r.estimator = SupplyDemandEstimator::from_value(v.field("estimator")?)?;
        let adjacency = persist::area_adjacency(&r.city);
        r.transitions = TransitionTracker::restore_state(adjacency, v.field("transitions")?)?;

        let (n, a) = (r.clients.len(), r.n_areas);
        let bits = persist::bits_to_f32s;
        let sets = |v: &Value| Ok(Vec::<u64>::from_value(v)?.into_iter().collect());
        r.client_surge = rows(v, "client_surge", n, bits)?;
        r.client_ewt = rows(v, "client_ewt", n, bits)?;
        r.api_surge = rows(v, "api_surge", a, bits)?;
        r.api_ewt = rows(v, "api_ewt", a, bits)?;
        r.avg_visible = rows(v, "avg_visible", a, bits)?;
        r.daily_sets = rows(v, "daily_sets", n, sets)?;
        r.client_daily_cars = rows(v, "client_daily_cars", n, Vec::<u32>::from_value)?;
        r.interval_sets = rows(v, "interval_sets", n, sets)?;
        r.interval_car_sum = rows(v, "interval_car_sum", n, f64::from_value)?;
        r.interval_car_n = rows(v, "interval_car_n", n, u64::from_value)?;
        r.interval_seen = rows(v, "interval_seen", n, bool::from_value)?;
        r.inst_sum = rows(v, "inst_sum", a, f64::from_value)?;
        r.inst_ticks = u64::from_value(v.field("inst_ticks")?)?;
        r.ewt_sum = rows(v, "ewt_sum", n, f64::from_value)?;
        r.ewt_n = rows(v, "ewt_n", n, u64::from_value)?;
        r.client_delivered = rows(v, "client_delivered", n, u64::from_value)?;
        r.probe_pending = match v.field("probe_pending")? {
            Value::Null => None,
            _ => Some(rows(v, "probe_pending", a, |x| Ok(f32::from_bits(u32::from_value(x)?)))?),
        };
        r.probe_limited_logged = bool::from_value(v.field("probe_limited_logged")?)?;
        if r.client_surge.iter().chain(&r.client_ewt).any(|s| s.len() != r.ticks_done) {
            return Err(StoreError::Schema("checkpointed series length != ticks_done".into()));
        }
        // Decoded rows hold exactly the ticks done; reserve the rest, as
        // `fresh` does, so the remaining ticks never regrow a row.
        let left = r.ticks_total - r.ticks_done;
        for row in r.client_surge.iter_mut().chain(&mut r.client_ewt) {
            row.reserve_exact(left);
        }
        Ok(r)
    }

    /// Loads a checkpoint file and resumes from it. The file's recorded
    /// config hash is cross-checked against the restored config.
    pub fn resume_from_file(path: &Path, hooks: StoreHooks) -> Result<Self, StoreError> {
        let (hash, v) = surgescope_store::read_checkpoint(path)?;
        let runner = Self::resume(&v, hooks)?;
        let expect = runner.cfg.config_hash();
        if hash != expect {
            return Err(StoreError::Schema(format!(
                "checkpoint config hash {hash:#018x} != restored config hash {expect:#018x}"
            )));
        }
        Ok(runner)
    }

    /// Finalizes the campaign: finishes the estimator, flushes the last
    /// partial day, computes the summary series and, when the hooks name
    /// a log path, writes the whole log (see [`persist::write_log`]).
    /// Fails with the first store write that failed, a checkpoint or the
    /// log. Panics if ticks remain (finishing early would silently truncate
    /// every series — call [`CampaignRunner::run_to_end`] first).
    pub fn finish(self) -> Result<CampaignData, StoreError> {
        let (data, logged) = self.finish_and_log()?;
        logged.map(|()| data)
    }

    /// [`CampaignRunner::finish`], handing the finished campaign back
    /// beside the store's result instead of dropping it with a failed
    /// write. The outer error is a campaign that could not finish (a
    /// remote system's ground truth lost on the wire). The log is written
    /// even after a checkpoint failed; the inner error is the first store
    /// write that failed, that checkpoint or else the log, and only says
    /// that the disk does not hold the campaign.
    pub fn finish_and_log(mut self) -> Result<(CampaignData, Result<(), StoreError>), StoreError> {
        assert_eq!(
            self.ticks_done, self.ticks_total,
            "finish() before the campaign horizon"
        );
        let end = self.sys.now();
        self.estimator.finish(end);
        // Flush a partial final day if any ids remain.
        if end.seconds_into_day() != 0 {
            for (i, set) in self.daily_sets.iter_mut().enumerate() {
                self.client_daily_cars[i].push(set.len() as u32);
                set.clear();
            }
        }

        let intervals = (self.cfg.hours * 12) as usize;
        // Delivered-ping denominators: gaps neither dilute the EWT mean
        // toward zero nor drag the interval density proxy down.
        let client_mean_ewt = self
            .ewt_sum
            .iter()
            .zip(&self.ewt_n)
            .map(|(s, &k)| s / k.max(1) as f64)
            .collect();
        let client_interval_cars = self
            .interval_car_sum
            .iter()
            .zip(&self.interval_car_n)
            .map(|(s, &k)| s / k.max(1) as f64)
            .collect();
        let truth = self.sys.into_truth()?;
        let data = CampaignData {
            city: self.city,
            clients: self.clients,
            client_area: self.client_area,
            estimator: self.estimator,
            client_surge: self.client_surge,
            client_ewt: self.client_ewt,
            api_surge: self.api_surge,
            api_ewt: self.api_ewt,
            avg_visible: self.avg_visible,
            transitions: self.transitions,
            client_daily_cars: self.client_daily_cars,
            client_interval_cars,
            client_mean_ewt,
            client_delivered: self.client_delivered,
            tick_secs: 5,
            ticks: self.ticks_done,
            intervals,
            truth,
        };
        let logged = match &self.cfg.store.log_path {
            Some(path) => {
                persist::write_log(path, self.cfg.config_hash(), &data).map(|(bytes, records)| {
                    self.metrics.log_bytes.add(bytes);
                    self.metrics.log_records.add(records);
                })
            }
            None => Ok(()),
        };
        Ok((data, self.store_failure.map_or(logged, Err)))
    }
}

/// Decodes checkpoint field `key` as exactly `want` rows, each through
/// `row`.
fn rows<T>(
    v: &Value,
    key: &str,
    want: usize,
    row: impl Fn(&Value) -> Result<T, serde::Error>,
) -> Result<Vec<T>, StoreError> {
    match v.field(key)? {
        Value::Seq(items) if items.len() == want => {
            Ok(items.iter().map(row).collect::<Result<_, _>>()?)
        }
        _ => Err(StoreError::Schema(format!("{key}: want {want} rows"))),
    }
}

/// Closes one interval of the per-area mean instantaneous visible count.
fn avg_flush(series: &mut Vec<f32>, sum: &mut f64, ticks: u64) {
    series.push((*sum / ticks.max(1) as f64) as f32);
    *sum = 0.0;
}

/// Campaign runners.
pub struct Campaign;

impl Campaign {
    /// Runs a full measurement campaign against a simulated marketplace.
    ///
    /// Panics, once the campaign has run to its horizon, if a checkpoint
    /// or the log could not be written — only possible when `cfg.store`
    /// hooks are enabled; callers that keep such a campaign use
    /// [`CampaignRunner::finish_and_log`].
    pub fn run_uber(city: CityModel, cfg: &CampaignConfig) -> CampaignData {
        let mut runner = CampaignRunner::new(city, cfg).expect("campaign runner");
        runner.run_to_end().expect("an in-process tick cannot fail");
        runner.finish().expect("campaign store: write a checkpoint or the log")
    }

    /// Runs the §3.5 validation campaign against a taxi replay. Returns
    /// the finished estimator and the replay's ground truth.
    pub fn run_taxi(
        trace: &TaxiTrace,
        region: Polygon,
        spacing_m: f64,
        hours: u64,
        seed: u64,
        estimator_cfg: EstimatorConfig,
    ) -> (SupplyDemandEstimator, TaxiGroundTruth) {
        let clients = placement(&region, spacing_m);
        let mut sys = TaxiSystem::new(trace, region.clone(), seed);
        let mut estimator = SupplyDemandEstimator::new(estimator_cfg, region, vec![]);
        let ticks = hours * 720;
        let mut obs = Vec::new();
        for _ in 0..ticks {
            sys.advance_tick();
            let now = sys.now();
            let state_t = now.saturating_sub(surgescope_simcore::SimDuration::secs(5));
            sys.ping_all_into(&clients, &mut obs);
            for blocks in &obs {
                estimator.observe(state_t, blocks);
            }
            estimator.end_tick(now);
        }
        let end = SimTime(ticks * 5);
        estimator.finish(end);
        (estimator, sys.replay().truth().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surgescope_taxi::TraceGenerator;

    fn small_campaign() -> CampaignData {
        Campaign::run_uber(
            CityModel::manhattan_midtown(),
            &CampaignConfig { hours: 2, ..CampaignConfig::test_default(21) },
        )
    }

    #[test]
    fn campaign_shapes_consistent() {
        let data = small_campaign();
        assert_eq!(data.clients.len(), data.client_surge.len());
        assert_eq!(data.ticks, 2 * 720);
        for s in &data.client_surge {
            assert_eq!(s.len(), data.ticks);
        }
        assert_eq!(data.api_surge.len(), data.city.area_count());
        for a in &data.api_surge {
            assert_eq!(a.len(), data.intervals, "one probe per interval");
        }
        // Every client sits in some surge area.
        assert!(data.client_area.iter().all(|a| a.is_some()));
    }

    #[test]
    fn campaign_measures_supply() {
        let data = small_campaign();
        let supply = data.estimator.supply_series(CarType::UberX);
        assert!(!supply.is_empty());
        // Midtown at 30% scale around midnight–2 a.m. still has UberX.
        assert!(supply.iter().any(|&s| s > 0), "no UberX ever observed");
    }

    #[test]
    fn campaign_truth_available() {
        let data = small_campaign();
        assert_eq!(
            data.truth.intervals.len(),
            data.intervals * data.city.area_count()
        );
    }

    #[test]
    fn clients_in_area_partition_fleet() {
        let data = small_campaign();
        let total: usize = (0..data.city.area_count())
            .map(|a| data.clients_in_area(a).len())
            .sum();
        assert_eq!(total, data.clients.len());
    }

    #[test]
    fn clean_campaign_has_no_gaps() {
        let data = small_campaign();
        assert!(
            data.client_surge.iter().flatten().all(|v| v.is_finite()),
            "a fault-free campaign must not contain NaN gaps"
        );
        for &d in &data.client_delivered {
            assert_eq!(d as usize, data.ticks, "every ping delivered");
        }
    }

    #[test]
    fn faulted_campaign_gaps_match_drop_rate() {
        let drop = 0.2;
        let cfg = CampaignConfig {
            hours: 1,
            faults: FaultPlan::lossy(drop),
            ..CampaignConfig::test_default(33)
        };
        let data = Campaign::run_uber(CityModel::manhattan_midtown(), &cfg);
        let total = (data.ticks * data.clients.len()) as f64;
        let gaps = data
            .client_surge
            .iter()
            .flatten()
            .filter(|v| v.is_nan())
            .count();
        let rate = gaps as f64 / total;
        assert!(
            (rate - drop).abs() < 0.02,
            "NaN gap rate {rate} should track the drop chance {drop}"
        );
        for (i, s) in data.client_surge.iter().enumerate() {
            let delivered = s.iter().filter(|v| !v.is_nan()).count() as u64;
            assert_eq!(delivered, data.client_delivered[i], "client {i}");
            // Surge and EWT gap on exactly the same ticks.
            for (a, b) in s.iter().zip(&data.client_ewt[i]) {
                assert_eq!(a.is_nan(), b.is_nan());
            }
        }
        // Delivered-ping denominators keep the summaries finite and
        // undiluted (no fabricated 0.0-minute EWTs pulling means down).
        assert!(data.client_mean_ewt.iter().all(|m| m.is_finite()));
        assert!(data.client_interval_cars.iter().all(|m| m.is_finite()));
    }

    /// The deterministic metrics section is pinned to the digest the
    /// removed 4-thread ping pool produced for these configs, so the
    /// serial kernel must reproduce the pool's counters byte for byte.
    #[test]
    fn metrics_snapshot_matches_pinned_pool_output() {
        let run = |faults: FaultPlan| {
            let cfg = CampaignConfig { hours: 1, faults, ..CampaignConfig::test_default(44) };
            let mut r = CampaignRunner::new(CityModel::manhattan_midtown(), &cfg)
                .expect("memory-only runner");
            r.run_to_end().expect("no store configured");
            let snap = r.metrics_snapshot();
            r.finish().expect("no store configured");
            snap
        };
        let faulted = FaultPlan { drop_chance: 0.1, delay_chance: 0.2, max_delay_secs: 60 };
        for (faults, pinned) in
            [(FaultPlan::none(), 0x9c99_59d6_6705_bfa1), (faulted, 0x3926_b941_d0a8_420a)]
        {
            let snap = run(faults);
            let json = snap.deterministic_json();
            assert_eq!(
                surgescope_store::fnv1a64(json.as_bytes()),
                pinned,
                "deterministic metrics section diverged from the pinned pool output: {json}"
            );
            // Sanity: the counters describe the campaign that actually ran.
            let clients = snap.value("campaign.clients").unwrap();
            assert!(clients > 0);
            assert_eq!(snap.value("campaign.ticks"), Some(720));
            let delivered = snap.value("pings.delivered").unwrap();
            let delayed = snap.value("pings.delayed").unwrap();
            let dropped = snap.value("pings.dropped").unwrap();
            assert_eq!(delivered + delayed + dropped, clients * 720);
            assert_eq!(snap.value("transport.sent_delayed"), Some(delayed));
            if faults.is_none() {
                assert_eq!(snap.value("campaign.gaps"), Some(0));
                assert_eq!(dropped, 0);
            } else {
                assert!(dropped > 0 && delayed > 0);
                assert!(snap.value("campaign.gaps").unwrap() > 0);
            }
            // Wall-clock values never leak into the deterministic section.
            assert!(snap
                .deterministic
                .iter()
                .all(|(k, _)| !k.ends_with(".ns") && !k.ends_with(".calls")));
            assert!(snap.timing.iter().any(|(k, _)| k == "phase.move.ns"));
        }
    }

    /// Every client's per-tick series is reserved to the campaign's
    /// horizon when the runner is built and again after a mid-campaign
    /// resume, so no row regrows while the campaign runs.
    #[test]
    fn every_client_series_is_reserved_to_the_horizon() {
        let short_rows = |r: &CampaignRunner| -> Vec<usize> {
            let rows = r.client_surge.iter().chain(&r.client_ewt);
            rows.enumerate()
                .filter(|(_, row)| row.capacity() < r.ticks_total)
                .map(|(i, _)| i)
                .collect()
        };
        let ckpt = std::env::temp_dir()
            .join(format!("surgescope-series-reserve-{}.ckpt", std::process::id()));
        let mut cfg = CampaignConfig { hours: 1, ..CampaignConfig::test_default(12) };
        cfg.store.checkpoint_path = Some(ckpt.clone());
        let mut r = CampaignRunner::new(CityModel::manhattan_midtown(), &cfg).unwrap();
        assert!(r.clients.len() > 1, "one client cannot show a per-row gap");
        assert_eq!(short_rows(&r), Vec::<usize>::new(), "rows under the horizon after new");
        for _ in 0..r.ticks_total / 2 {
            r.tick().unwrap();
        }
        r.write_checkpoint().unwrap();
        let resumed = CampaignRunner::resume_from_file(&ckpt, StoreHooks::none());
        let _ = std::fs::remove_file(&ckpt);
        let resumed = resumed.unwrap();
        assert_eq!(resumed.ticks_done, r.ticks_total / 2);
        assert_eq!(
            short_rows(&resumed),
            Vec::<usize>::new(),
            "rows under the horizon after resume"
        );
    }

    #[test]
    fn taxi_validation_campaign_runs() {
        let city = CityModel::manhattan_midtown();
        let trace = TraceGenerator { taxis: 120, days: 1, ..Default::default() }
            .generate(&city, 31);
        let (est, truth) = Campaign::run_taxi(
            &trace,
            city.measurement_region.clone(),
            150.0,
            24,
            31,
            EstimatorConfig::default(),
        );
        assert_eq!(truth.supply.len(), 288);
        let measured: u32 = est.supply_series(CarType::UberT).iter().sum();
        assert!(measured > 0, "no taxis measured");
    }
}
