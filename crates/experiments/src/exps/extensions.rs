//! Extension experiments beyond the paper's own evaluation.
//!
//! `ext01` evaluates the mitigation §8 of the paper *proposes* but could
//! not test: "rather than oscillating between periods of no and
//! high-surge, Uber could use a weighted moving average to smooth the
//! price changes over time. This would make surge price changes more
//! predictable and less dramatic." We run the same SF campaign under the
//! measured Threshold policy and under an EMA-smoothed policy and compare
//! exactly the properties the paper cares about: episode durations
//! (Fig. 13's pathology), forecastability (Table 1's R²), and the rider
//! impact (riders priced out vs served).

use crate::cache::{CampaignCache, City};
use crate::schedule::{self, Prefetch};
use crate::{Report, RunCtx, TextTable};
use surgescope_analysis::Ecdf;
use surgescope_api::ProtocolEra;
use surgescope_core::forecast::{fit_city, ModelFilter};
use surgescope_core::surge_obs::episodes;
use surgescope_core::CampaignConfig;
use surgescope_marketplace::SurgePolicy;

/// The SF extension campaign config under `policy`. Shared by `ext01`,
/// `ext02` and their needs declarations, so all agree on the cache
/// identity and the campaign is simulated exactly once.
fn ext_config(ctx: &RunCtx, policy: SurgePolicy) -> CampaignConfig {
    CampaignConfig {
        seed: ctx.seed ^ 0xE801,
        hours: if ctx.quick { 8 } else { 48 },
        era: ProtocolEra::Apr2015,
        scale: ctx.scale(),
        surge_policy: policy,
        ..CampaignConfig::test_default(ctx.seed ^ 0xE801)
    }
}

/// The smoothed-policy variant (the paper's §8 proposal).
fn smoothed_policy() -> SurgePolicy {
    SurgePolicy::Smoothed { alpha: 0.35 }
}

/// The campaigns `ext01` reads: the SF extension campaign under the
/// measured policy and under the smoothed one.
pub(crate) fn ext01_needs(ctx: &RunCtx) -> Vec<Prefetch> {
    [SurgePolicy::Threshold, smoothed_policy()]
        .map(|policy| Prefetch::Campaign(City::SanFrancisco, ext_config(ctx, policy)))
        .into()
}

/// The campaigns `ext02` reads: both cities' Apr-era campaigns and the
/// smoothed SF extension campaign.
pub(crate) fn ext02_needs(ctx: &RunCtx) -> Vec<Prefetch> {
    let mut v = schedule::both_apr(ctx);
    v.push(Prefetch::Campaign(City::SanFrancisco, ext_config(ctx, smoothed_policy())));
    v
}

/// ext01: Threshold (measured Uber) vs Smoothed (paper's §8 proposal).
pub fn ext01(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let mut table = TextTable::new(&[
        "policy",
        "surge frac",
        "mean m",
        "median episode (min)",
        "P(episode≤5min)",
        "Raw R²",
        "priced out",
        "pickups",
    ]);
    let mut metrics = Vec::new();
    for (name, policy) in [
        ("Threshold", SurgePolicy::Threshold),
        ("Smoothed α=0.35", smoothed_policy()),
    ] {
        let data = cache.campaign_custom(City::SanFrancisco, ext_config(ctx, policy), ctx);

        // Surge statistics from the jitter-free API stream.
        let all: Vec<f64> = data
            .api_surge
            .iter()
            .flat_map(|a| a.iter().map(|&m| m as f64))
            .collect();
        let surged = all.iter().filter(|&&m| m > 1.0).count() as f64 / all.len() as f64;
        let mean_m = all.iter().sum::<f64>() / all.len() as f64;

        // Episode durations (API, 300 s resolution).
        let durs: Vec<f64> = data
            .api_surge
            .iter()
            .flat_map(|a| episodes(a, 300))
            .map(|d| d as f64 / 60.0)
            .collect();
        let e = Ecdf::new(durs);

        // Forecastability: the Raw model of Table 1.
        let series: Vec<(Vec<u32>, Vec<u32>, Vec<f32>, Vec<f32>)> = (0..data.api_surge.len())
            .map(|a| {
                let surge = data.api_surge[a].clone();
                let ewt = data.api_ewt[a].clone();
                let n = surge.len().min(ewt.len());
                let mut supply: Vec<u32> =
                    data.avg_visible[a].iter().map(|&v| v.round() as u32).collect();
                let mut demand = data.estimator.death_area_series(a).to_vec();
                supply.resize(n, 0);
                demand.resize(n, 0);
                (supply, demand, ewt[..n].to_vec(), surge[..n].to_vec())
            })
            .collect();
        let r2 = fit_city(&series, ModelFilter::Raw).map_or(f64::NAN, |f| f.r2);

        // Rider outcomes.
        let priced_out: u64 = data.truth.intervals.iter().map(|s| s.priced_out as u64).sum();
        let pickups: u64 = data.truth.intervals.iter().map(|s| s.pickups as u64).sum();

        table.row(vec![
            name.into(),
            format!("{:.2}", surged),
            format!("{mean_m:.3}"),
            format!("{:.1}", e.quantile(0.5)),
            format!("{:.2}", e.at(5.0)),
            format!("{r2:.3}"),
            priced_out.to_string(),
            pickups.to_string(),
        ]);
        let key = if matches!(policy, SurgePolicy::Threshold) { "threshold" } else { "smoothed" };
        metrics.push((format!("{key}_median_episode_min"), e.quantile(0.5)));
        metrics.push((format!("{key}_raw_r2"), r2));
        metrics.push((format!("{key}_mean_surge"), mean_m));
    }
    let title = "Extension: smoothed surge updates (the paper's §8 proposal) vs measured policy";
    Report::new(title, table, metrics)
}

/// ext02: surge persistence. The paper concludes surge "cannot be
/// forecast"; the autocorrelation function of the multiplier series makes
/// that quantitative — and shows how the §8 smoothing proposal changes
/// it. Uses the cached Apr-era campaigns plus a smoothed SF run.
pub fn ext02(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    use surgescope_analysis::autocorrelation;
    use surgescope_api::ProtocolEra;

    let mut table = TextTable::new(&["series", "ACF lag 5min", "lag 15min", "lag 30min"]);
    let mut metrics = Vec::new();

    let mut add_row = |name: String, series: Vec<f64>, metrics: &mut Vec<(String, f64)>| {
        let acf = autocorrelation(&series, 6);
        table.row(vec![
            name.clone(),
            format!("{:.2}", acf[0]),
            format!("{:.2}", acf[2]),
            format!("{:.2}", acf[5]),
        ]);
        metrics.push((format!("{}_acf_lag1", name.replace(' ', "_").to_lowercase()), acf[0]));
    };

    for city in City::BOTH {
        let data = cache.campaign(city, ProtocolEra::Apr2015, ctx);
        // Pool all areas' series (per-area ACFs averaged would also do;
        // concatenation keeps it simple and the areas are homogeneous).
        for a in 0..data.api_surge.len().min(1) {
            let series: Vec<f64> = data.api_surge[a].iter().map(|&m| m as f64).collect();
            add_row(format!("{} threshold", city.label()), series, &mut metrics);
        }
    }
    // Smoothed SF for contrast — the *same* campaign ext01 scores, served
    // from the shared cache instead of simulated a second time.
    let data = cache.campaign_custom(City::SanFrancisco, ext_config(ctx, smoothed_policy()), ctx);
    let series: Vec<f64> = data.api_surge[0].iter().map(|&m| m as f64).collect();
    add_row("SF smoothed".into(), series, &mut metrics);

    let title = "Extension: surge persistence (autocorrelation) under both policies";
    Report::new(title, table, metrics)
}
