//! Ablations: sweeps over the design choices DESIGN.md §6 rests on
//! (`abl01`–`abl04`), plus the per-area surge table the city models were
//! fitted with (`abl05`). `abl01`, `abl02` and `abl04` build their own
//! worlds at the same horizon and scale at either fidelity; `abl03` and
//! `abl05` read the standard Apr-era campaigns through the cache.

use crate::cache::{CampaignCache, City};
use crate::{Report, RunCtx, TextTable};
use surgescope_api::{ApiService, JitterConfig, ProtocolEra};
use surgescope_city::{CarType, CityModel};
use surgescope_core::calibration::placement;
use surgescope_core::estimate::{EstimatorConfig, SupplyDemandEstimator};
use surgescope_core::surge_obs::{detect_jitter, episodes, simultaneity};
use surgescope_core::{Campaign, MeasuredSystem, UberSystem};
use surgescope_marketplace::{IntervalStats, Marketplace, MarketplaceConfig};
use surgescope_simcore::SimDuration;
use surgescope_taxi::TraceGenerator;

/// `city` with supply and demand at 40% of the full model.
fn at_40_percent(city: City) -> CityModel {
    let mut model = city.model();
    model.supply = model.supply.scaled(0.4);
    model.demand = model.demand.scaled(0.4);
    model
}

/// abl01: how much of the true taxi supply a lattice captures as its
/// spacing grows, on a 120-taxi, 1-day Manhattan trace.
pub fn abl01(ctx: &RunCtx) -> Report {
    let city = City::Manhattan.model();
    let seed = ctx.seed ^ 0xAB01;
    let trace = TraceGenerator { taxis: 120, days: 1, ..Default::default() }.generate(&city, seed);
    let sum = |v: &[u32]| v.iter().map(|&x| x as u64).sum::<u64>() as f64;
    let mut table = TextTable::new(&["spacing (m)", "clients", "supply capture"]);
    let mut metrics = Vec::new();
    for spacing in [150.0, 250.0, 400.0, 600.0, 900.0] {
        let region = city.measurement_region.clone();
        let (est, truth) =
            Campaign::run_taxi(&trace, region, spacing, 24, seed, EstimatorConfig::default());
        let clients = placement(&city.measurement_region, spacing).len();
        let capture = sum(est.supply_series(CarType::UberT)) / sum(&truth.supply).max(1.0);
        table.row(vec![
            format!("{spacing:.0}"),
            clients.to_string(),
            format!("{:.1}%", capture * 100.0),
        ]);
        metrics.push((format!("capture_{spacing:.0}m"), capture));
    }
    Report::new("Ablation: client lattice spacing vs taxi supply capture", table, metrics)
}

/// abl02: surge frequency, mean multiplier and riders priced out as the
/// riders' price elasticity varies, over 16 h of SF at 40% scale.
pub fn abl02(ctx: &RunCtx) -> Report {
    let mut table =
        TextTable::new(&["elasticity", "surge frac", "mean m", "priced out", "pickups"]);
    let mut metrics = Vec::new();
    for elasticity in [0.5, 1.0, 1.8, 2.6, 4.0] {
        let cfg = MarketplaceConfig { elasticity, ..Default::default() };
        let mut mp = Marketplace::new(at_40_percent(City::SanFrancisco), cfg, ctx.seed ^ 0xAB02);
        // `truth()` accumulates from tick 0: the table covers all 16 h.
        mp.run_for(SimDuration::hours(16));
        let truth = mp.truth();
        let priced_out: u64 = truth.intervals.iter().map(|s| s.priced_out as u64).sum();
        let pickups: u64 = truth.intervals.iter().map(|s| s.pickups as u64).sum();
        table.row(vec![
            format!("{elasticity:.1}"),
            format!("{:.1}%", truth.surge_fraction() * 100.0),
            format!("{:.3}", truth.mean_surge()),
            priced_out.to_string(),
            pickups.to_string(),
        ]);
        let e = (elasticity * 10.0).round() as u32;
        metrics.push((format!("surge_frac_e{e:02}"), truth.surge_fraction()));
        metrics.push((format!("mean_surge_e{e:02}"), truth.mean_surge()));
        metrics.push((format!("priced_out_e{e:02}"), priced_out as f64));
    }
    Report::new("Ablation: rider price elasticity vs surge", table, metrics)
}

/// abl03: the Fig. 13 sub-minute episode mass and the Fig. 17
/// single-client share as the stale-serving probability varies. Each
/// client's stream is synthesized from the standard SF Apr-era campaign's
/// API surge: the API value, except the previous interval's value inside
/// the client's jitter window under the swept bug.
pub fn abl03(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let data = cache.campaign(City::SanFrancisco, ProtocolEra::Apr2015, ctx);
    let bug_seed = ctx.seed ^ 0xAB03;
    let ticks_per_iv = (300 / data.tick_secs) as usize;
    let mut table = TextTable::new(&["p", "events", "sub-min frac", "single-client"]);
    let mut metrics = Vec::new();
    for p in [0.05, 0.18, 0.4, 0.8] {
        let jcfg = JitterConfig { prob_per_interval: p, short_fraction: 0.9 };
        let mut per_client_events = Vec::new();
        let mut all_durs = Vec::new();
        for (ci, _) in data.clients.iter().enumerate() {
            let Some(area) = data.client_area[ci] else { continue };
            let api = &data.api_surge[area];
            let mut stream = Vec::with_capacity(data.intervals * ticks_per_iv);
            for iv in 0..data.intervals {
                let cur = api[iv];
                let prev = if iv > 0 { api[iv - 1] } else { cur };
                let window = jcfg.window(bug_seed, ci as u64, iv as u64);
                for k in 0..ticks_per_iv {
                    let offset = (k as u64) * data.tick_secs;
                    let stale = window.is_some_and(|w| w.contains(offset));
                    stream.push(if stale { prev } else { cur });
                }
            }
            all_durs.extend(episodes(&stream, data.tick_secs));
            per_client_events.push(detect_jitter(&stream, api, data.tick_secs));
        }
        let events: usize = per_client_events.iter().map(Vec::len).sum();
        let sub_minute = if all_durs.is_empty() {
            0.0
        } else {
            all_durs.iter().filter(|&&d| d < 60).count() as f64 / all_durs.len() as f64
        };
        let hist = simultaneity(&per_client_events, data.tick_secs);
        let total: u64 = hist.iter().sum();
        let single = if total == 0 { 1.0 } else { hist[0] as f64 / total as f64 };
        table.row(vec![
            format!("{p:.2}"),
            events.to_string(),
            format!("{:.1}%", sub_minute * 100.0),
            format!("{:.1}%", single * 100.0),
        ]);
        let pct = (p * 100.0).round() as u32;
        metrics.push((format!("sub_minute_p{pct:02}"), sub_minute));
        metrics.push((format!("single_client_p{pct:02}"), single));
    }
    let mut report =
        Report::new("Ablation: consistency-bug probability vs observable jitter", table, metrics);
    report.body.push_str(
        "\n(paper: ~40% sub-minute mass and ~90% single-client events; the two pull\n\
         against each other, and the default p = 0.18 is the compromise)\n",
    );
    report
}

/// abl04: measured UberX supply and deaths as the API perturbs every
/// car's reported location by Gaussian noise of `sigma` metres: Manhattan
/// at 40% scale, 8 h of warm-up, then 6 h measured by the standard
/// lattice.
pub fn abl04(ctx: &RunCtx) -> Report {
    let seed = ctx.seed ^ 0xAB04;
    let mut table = TextTable::new(&["sigma (m)", "supply/5min", "deaths", "edge-filtered"]);
    let mut metrics = Vec::new();
    for sigma in [0.0, 25.0, 100.0, 250.0] {
        let city = at_40_percent(City::Manhattan);
        let clients = placement(&city.measurement_region, city.client_spacing_m);
        let region = city.measurement_region.clone();
        let mut mp = Marketplace::new(city, MarketplaceConfig::default(), seed);
        mp.run_for(SimDuration::hours(8));
        let api = ApiService::new(ProtocolEra::Apr2015, seed).with_location_noise(sigma);
        let mut sys = UberSystem::new(mp, api);
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region, vec![]);
        let mut obs = Vec::new();
        for _ in 0..(6 * 720u64) {
            sys.advance_tick();
            let now = sys.now();
            let state_t = now.saturating_sub(SimDuration::secs(5));
            sys.ping_all_into(&clients, &mut obs);
            for blocks in &obs {
                est.observe(state_t, blocks);
            }
            est.end_tick(now);
        }
        est.finish(sys.now());
        let supply = est.supply_series(CarType::UberX);
        let per_interval =
            supply.iter().map(|&x| x as u64).sum::<u64>() as f64 / supply.len().max(1) as f64;
        let deaths: u64 = est.death_series(CarType::UberX).iter().map(|&x| x as u64).sum();
        table.row(vec![
            format!("{sigma:.0}"),
            format!("{per_interval:.1}"),
            deaths.to_string(),
            est.edge_filtered.to_string(),
        ]);
        metrics.push((format!("supply_s{sigma:03.0}"), per_interval));
        metrics.push((format!("deaths_s{sigma:03.0}"), deaths as f64));
    }
    Report::new("Ablation: driver-safety location noise vs the estimator", table, metrics)
}

/// abl05: per surge area of each city's standard Apr-era campaign, the
/// share of intervals surged, the mean and maximum API multiplier, and
/// the ground truth's mean supply, idle supply, requests per interval and
/// EWT.
pub fn abl05(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let mut table = TextTable::new(&[
        "city",
        "area",
        "surged",
        "mean m",
        "max m",
        "supply",
        "idle",
        "req/5min",
        "ewt (min)",
    ]);
    let mut metrics = Vec::new();
    for city in City::BOTH {
        let data = cache.campaign(city, ProtocolEra::Apr2015, ctx);
        let k = city.label().to_lowercase();
        for a in 0..data.city.area_count() {
            let series = &data.api_surge[a];
            let n = series.len() as f64;
            let surged = series.iter().filter(|&&m| m > 1.0).count() as f64 / n;
            let mean = series.iter().map(|&m| m as f64).sum::<f64>() / n;
            let max = series.iter().copied().fold(1.0f32, f32::max);
            let stats: Vec<_> = data.truth.area_series(a).collect();
            let mean_of = |f: fn(&IntervalStats) -> f64| {
                stats.iter().map(|s| f(s)).sum::<f64>() / stats.len() as f64
            };
            table.row(vec![
                city.label().into(),
                a.to_string(),
                format!("{:.1}%", surged * 100.0),
                format!("{mean:.3}"),
                format!("{max:.1}"),
                format!("{:.1}", mean_of(|s| s.supply)),
                format!("{:.1}", mean_of(|s| s.idle_supply)),
                format!("{:.1}", mean_of(|s| s.requests as f64)),
                format!("{:.1}", mean_of(|s| s.mean_ewt_min)),
            ]);
            metrics.push((format!("{k}_area{a}_surge_frac"), surged));
            metrics.push((format!("{k}_area{a}_mean_surge"), mean));
        }
    }
    Report::new("Ablation: per-area surge and ground truth (Apr-era campaigns)", table, metrics)
}
