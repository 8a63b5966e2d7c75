//! The `campaign` workload and the in-process pieces the other workloads
//! reuse: a campaign run through `CampaignRunner` with every tick timed,
//! and the same tick pipeline rebuilt layer by layer from the public
//! constructors the runner uses, so each layer can be timed from outside.

use crate::report::{EndToEnd, Kept, Report, StealMeter};
use crate::stats::{fnv64, Dual, Elapsed, Samples, Stopwatch};
use crate::{sub_seeds, Args, Deadline, SubSeedDigests};
use std::time::Instant;
use surgescope_api::{ApiService, ProtocolEra};
use surgescope_city::CityModel;
use surgescope_core::calibration::placement;
use surgescope_core::estimate::SupplyDemandEstimator;
use surgescope_core::persist::campaign_encoded;
use surgescope_core::{
    CampaignConfig, CampaignData, CampaignRunner, MeasuredSystem, TypeObservation, UberSystem,
};
use surgescope_marketplace::{Marketplace, MarketplaceConfig};
use surgescope_obs::Snapshot;
use surgescope_simcore::SimDuration;
use surgescope_store::StoreError;

/// Simulated hours: midnight to 09:00, so the window holds the 08:00
/// weekday rush as well as the quiet night.
pub const HOURS: u64 = 9;

/// Sub-seeds per round: at full scale over nine hours one seed costs
/// about what another does, and short rounds let the steal filter keep
/// more of a run.
const SUBSEEDS: u64 = 2;

/// What the end-to-end metrics measure on this workload.
const WHAT: [&str; 4] = [
    "CampaignRunner::new",
    "ticks per second of the round's tick loops",
    "one step = one CampaignRunner::tick",
    "one campaign, construction to finish, mean per round",
];

/// Set-ups timed per campaign, or per `repro` pass, for a steady median.
pub const SETUP_REPS: usize = 16;

/// The workload's config: the library's paper default, so parallelism is
/// whatever users get (`available_parallelism`).
pub fn config(seed: u64) -> CampaignConfig {
    CampaignConfig::paper_default(seed, ProtocolEra::Apr2015, HOURS)
}

/// The measured city, scaled the way `CampaignRunner` scales it.
pub fn scaled_city(cfg: &CampaignConfig) -> CityModel {
    let mut city = CityModel::san_francisco_downtown();
    if (cfg.scale - 1.0).abs() > 1e-9 {
        city.supply = city.supply.scaled(cfg.scale);
        city.demand = city.demand.scaled(cfg.scale);
    }
    city
}

/// A campaign run to its end through `CampaignRunner`, every tick timed
/// in CPU time and in wall time.
pub struct TimedCampaign {
    /// Construction (the runner, or the server plus its connections).
    pub setup: Elapsed,
    /// Each `CampaignRunner::tick`.
    pub ticks: Dual,
    /// The tick loop.
    pub tick_loop: Elapsed,
    /// Construction through `finish`.
    pub whole: Elapsed,
    pub snapshot: Snapshot,
    pub data: CampaignData,
    /// FNV-1a of `persist::campaign_encoded`.
    pub digest: u64,
}

/// Why a campaign did not finish, and how many ticks it lost.
pub struct Aborted {
    pub msg: String,
    pub lost_ticks: u64,
}

/// Runs `runner` to its end. `t0` started when construction began, so
/// set-up covers whatever the caller built before the runner.
pub fn run_timed(
    t0: Stopwatch,
    runner: Result<CampaignRunner, StoreError>,
    total_ticks: u64,
) -> Result<TimedCampaign, Aborted> {
    let mut runner = runner.map_err(|e| Aborted {
        msg: format!("construction: {e}"),
        lost_ticks: total_ticks,
    })?;
    let setup = t0.elapsed();
    let mut ticks = Dual::default();
    let t1 = Stopwatch::start();
    while runner.ticks_done() < runner.ticks_total() {
        let t = Stopwatch::start();
        if let Err(e) = runner.tick() {
            return Err(Aborted {
                msg: format!("tick {}: {e}", runner.ticks_done()),
                lost_ticks: (runner.ticks_total() - runner.ticks_done()) as u64,
            });
        }
        ticks.push(t.elapsed());
    }
    let tick_loop = t1.elapsed();
    let snapshot = runner.metrics_snapshot();
    let data = runner.finish().map_err(|e| Aborted {
        msg: format!("finish: {e}"),
        lost_ticks: 1,
    })?;
    let whole = t0.elapsed();
    let digest = fnv64(&campaign_encoded(&data));
    Ok(TimedCampaign {
        setup,
        ticks,
        tick_loop,
        whole,
        snapshot,
        data,
        digest,
    })
}

/// One round's end-to-end samples. A round is one campaign per sub-seed,
/// so every round measures the same mix of inputs.
#[derive(Default)]
pub struct Round {
    e2e: EndToEnd,
    ticks: u64,
    tick_loop: Elapsed,
    whole: Elapsed,
    campaigns: u32,
}

impl Round {
    /// A construction timed outside a measured campaign.
    pub fn setup(&mut self, e: Elapsed) {
        self.e2e.setup.push(e);
    }

    /// Adds one finished campaign of `total_ticks`.
    pub fn add(&mut self, c: &TimedCampaign, total_ticks: u64) {
        self.e2e.setup.push(c.setup);
        self.e2e.steps.extend(&c.ticks);
        self.ticks += total_ticks;
        self.tick_loop += c.tick_loop;
        self.whole += c.whole;
        self.campaigns += 1;
    }

    /// Ticks per second over the round's tick loops, and the mean
    /// campaign from construction to finish.
    pub fn finish(mut self) -> EndToEnd {
        if self.campaigns > 0 {
            let (t, n) = (self.ticks as f64, self.campaigns as f64);
            self.e2e.per_s.push(Elapsed {
                cpu: t / self.tick_loop.cpu,
                wall: t / self.tick_loop.wall,
            });
            self.e2e.whole.push(Elapsed {
                cpu: self.whole.cpu / n,
                wall: self.whole.wall / n,
            });
        }
        self.e2e
    }
}

/// Outside-in layer totals over one campaign's ticks, in wall seconds.
#[derive(Default)]
pub struct LayerTotals {
    pub ticks: u64,
    /// `UberSystem::advance_tick` (the marketplace tick plus the transport
    /// queue's).
    pub advance_s: f64,
    /// `UberSystem::tick_snapshot`.
    pub capture_s: f64,
    /// `ping_all_into` with the snapshot already captured.
    pub ping_s: f64,
    /// `SupplyDemandEstimator::observe` per client plus `end_tick`.
    pub observe_s: f64,
    /// Cars in every observation block `ping_all_into` returned.
    pub cars: u64,
    /// The whole loop.
    pub loop_s: f64,
}

impl LayerTotals {
    pub fn add(&mut self, o: &LayerTotals) {
        self.ticks += o.ticks;
        self.advance_s += o.advance_s;
        self.capture_s += o.capture_s;
        self.ping_s += o.ping_s;
        self.observe_s += o.observe_s;
        self.cars += o.cars;
        self.loop_s += o.loop_s;
    }
}

/// Laps the wall clock into per-layer totals; a disabled clock reads
/// nothing, so the same loop runs with and without spans.
pub struct Clock {
    last: Option<Instant>,
}

impl Clock {
    pub fn new(on: bool) -> Self {
        Clock {
            last: on.then(Instant::now),
        }
    }

    /// Adds the seconds since the previous lap to `total`.
    pub fn lap(&mut self, total: &mut f64) {
        if let Some(last) = self.last.as_mut() {
            let now = Instant::now();
            *total += (now - *last).as_secs_f64();
            *last = now;
        }
    }

    /// Restarts the lap without charging the time to any layer.
    pub fn skip(&mut self) {
        if let Some(last) = self.last.as_mut() {
            *last = Instant::now();
        }
    }
}

/// The campaign's tick pipeline rebuilt from the constructors
/// `CampaignRunner::new` calls, with every setting taken from `cfg`.
/// With `spans` each layer call is timed; without, only the loop is.
pub fn layers(cfg: &CampaignConfig, spans: bool) -> LayerTotals {
    let city = scaled_city(cfg);
    let market_cfg = MarketplaceConfig {
        surge_policy: cfg.surge_policy,
        ..Default::default()
    };
    let mp = Marketplace::new(city.clone(), market_cfg, cfg.seed);
    let api = ApiService::new(cfg.era, cfg.seed ^ 0xB0B5);
    let mut sys = UberSystem::new(mp, api)
        .with_faults(cfg.faults, cfg.seed)
        .with_parallelism(cfg.parallelism);
    let clients = placement(
        &city.measurement_region,
        cfg.spacing_override_m.unwrap_or(city.client_spacing_m),
    );
    let areas = city.areas.iter().map(|a| a.polygon.clone()).collect();
    let mut est = SupplyDemandEstimator::new(cfg.estimator, city.measurement_region.clone(), areas);
    let mut obs: Vec<Vec<TypeObservation>> = Vec::new();
    let mut t = LayerTotals {
        ticks: cfg.hours * 720,
        ..Default::default()
    };
    let start = Instant::now();
    let mut clock = Clock::new(spans);
    for _ in 0..t.ticks {
        sys.advance_tick();
        clock.lap(&mut t.advance_s);
        drop(sys.tick_snapshot());
        clock.lap(&mut t.capture_s);
        sys.ping_all_into(&clients, &mut obs);
        clock.lap(&mut t.ping_s);
        let now = sys.now();
        let state_t = now.saturating_sub(SimDuration::secs(5));
        for blocks in &obs {
            est.observe(state_t, blocks);
        }
        est.end_tick(now);
        clock.lap(&mut t.observe_s);
        t.cars += obs
            .iter()
            .flatten()
            .map(|b| b.cars.len() as u64)
            .sum::<u64>();
        clock.skip();
    }
    t.loop_s = start.elapsed().as_secs_f64();
    t
}

/// Gates every campaign output must pass: the full horizon ran, and a
/// clean campaign delivered every ping.
pub fn check_data(data: &CampaignData, total_ticks: u64, clean: bool) -> Result<(), String> {
    if data.ticks as u64 != total_ticks {
        return Err(format!(
            "campaign ran {} of {total_ticks} ticks",
            data.ticks
        ));
    }
    if clean && data.client_delivered.iter().any(|&d| d != total_ticks) {
        return Err("a clean campaign left a ping undelivered".into());
    }
    Ok(())
}

/// The in-process pipeline's per-layer metrics from pooled loop totals;
/// `loop_name` says which loop they come from.
pub fn report_pipeline(rep: &mut Report, t: &LayerTotals, loop_name: &str) {
    let per_tick_us = |s: f64| s * 1e6 / t.ticks.max(1) as f64;
    let n = format!("{loop_name}, mean over {} ticks", t.ticks);
    rep.layer("marketplace.tick_us", per_tick_us(t.advance_s), &n);
    rep.layer("systems.capture_us", per_tick_us(t.capture_s), &n);
    rep.layer("systems.ping_us", per_tick_us(t.ping_s), &n);
    rep.layer(
        "systems.cars_per_tick",
        t.cars as f64 / t.ticks.max(1) as f64,
        &n,
    );
    rep.layer("estimate.observe_us", per_tick_us(t.observe_s), &n);
}

/// Reports the per-layer campaign metrics from pooled loop totals and
/// runner tick samples, and prints the program's own phase timers, when
/// the runner's snapshot is given, next to the outside-in ones.
pub fn report_layers(
    rep: &mut Report,
    t: &LayerTotals,
    runner_ticks: &Samples,
    loop_name: &str,
    program: Option<&Snapshot>,
) {
    report_pipeline(rep, t, loop_name);
    report_runner_ticks(
        rep,
        runner_ticks,
        t.advance_s + t.capture_s + t.ping_s + t.observe_s,
        t.ticks,
    );
    let Some(program) = program else { return };
    let ticks = program.value("campaign.ticks").unwrap_or(0);
    for (k, v) in &program.timing {
        if k.starts_with("phase.") && k.ends_with(".ns") {
            println!("program {k} = {v} ns over the last campaign's {ticks} ticks (wall clock)");
        }
    }
}

/// `campaign.tick_*` from raw `CampaignRunner::tick` samples, and the share
/// of runner tick time that `attributed_s` (layer time over `ticks`
/// ticks of the same work) leaves unexplained.
pub fn report_runner_ticks(
    rep: &mut Report,
    runner_ticks: &Samples,
    attributed_s: f64,
    ticks: u64,
) {
    let desc = runner_ticks.describe(0.99);
    rep.layer("campaign.tick_p50_us", runner_ticks.median() * 1e6, &desc);
    rep.layer(
        "campaign.tick_p99_us",
        runner_ticks.percentile(0.99) * 1e6,
        &desc,
    );
    let runner_per_tick = runner_ticks.sum() / runner_ticks.len().max(1) as f64;
    let layer_per_tick = attributed_s / ticks.max(1) as f64;
    rep.layer(
        "campaign.unattributed_frac",
        1.0 - layer_per_tick / runner_per_tick.max(1e-12),
        "1 - timed layers per tick / CampaignRunner::tick per tick",
    );
}

/// The workload: campaigns back to back until the deadline.
pub fn run(args: &Args, rep: &mut Report) {
    let total = config(args.seed).hours * 720;
    println!(
        "workload campaign: SF downtown, scale 1, {HOURS} h = {total} ticks, parallelism {}, \
         clean transport, rounds of {SUBSEEDS} sub-seeds",
        config(args.seed).parallelism
    );
    let mut deadline = Deadline::new(args.seconds);
    let mut kept = Kept::default();
    let mut layer_sum = LayerTotals::default();
    let mut overhead = Samples::new();
    let mut digests = SubSeedDigests::default();
    let mut snapshot = None;
    while deadline.another_round(kept.quiet_rounds()) {
        let steal = StealMeter::start();
        let mut round = Round::default();
        for seed in sub_seeds(args.seed, SUBSEEDS) {
            let cfg = config(seed);
            rep.attempted += total;
            // Constructions are cheap next to a campaign, so each campaign
            // times several and runs the last.
            for _ in 1..SETUP_REPS {
                let t0 = Stopwatch::start();
                let runner = CampaignRunner::new(CityModel::san_francisco_downtown(), &cfg);
                round.setup(t0.elapsed());
                drop(runner);
            }
            let t0 = Stopwatch::start();
            let runner = CampaignRunner::new(CityModel::san_francisco_downtown(), &cfg);
            let c = match run_timed(t0, runner, total) {
                Ok(c) => c,
                Err(a) => {
                    rep.gate_failed(a.lost_ticks, a.msg);
                    continue;
                }
            };
            if let Err(e) = check_data(&c.data, total, true) {
                rep.gate_failed(total, e);
            }
            digests.check(rep, "campaign", args.seed, seed, c.digest, total);
            round.add(&c, total);
            if args.trace {
                let spanned = layers(&cfg, true);
                let plain = layers(&cfg, false);
                overhead.push(spanned.loop_s / plain.loop_s - 1.0);
                layer_sum.add(&spanned);
                snapshot = Some(c.snapshot);
            }
        }
        kept.add(&round.finish(), steal.share());
    }
    kept.report(rep, WHAT);
    if let Some(snap) = snapshot {
        report_layers(rep, &layer_sum, kept.steps(), "layer loop", Some(&snap));
        rep.layer(
            "trace.overhead_frac",
            overhead.median(),
            &format!(
                "layer loop with spans over without, median of {}",
                overhead.len()
            ),
        );
    }
}
