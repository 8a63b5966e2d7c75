//! Algorithm-identification experiments (§5.4–5.5): Figs. 20–22 and
//! Table 1.

use crate::cache::{CampaignCache, City};
use crate::{Report, RunCtx, TextTable};
use surgescope_analysis::cross_correlation;
use surgescope_api::ProtocolEra;
use surgescope_core::forecast::{fit_city, ModelFilter};
use surgescope_core::transitions::CarState;
use surgescope_core::CampaignData;

/// Per-area series `(supply, demand, ewt, surge)` assembled from a
/// campaign, truncated to a common length.
fn area_series(data: &CampaignData) -> Vec<(Vec<u32>, Vec<u32>, Vec<f32>, Vec<f32>)> {
    let n_areas = data.api_surge.len();
    let mut out = Vec::with_capacity(n_areas);
    for a in 0..n_areas {
        let surge = data.api_surge[a].clone();
        let ewt = data.api_ewt[a].clone();
        // §5.4 builds the supply series by averaging the per-ping counts
        // over each window, not by unioning IDs.
        let mut supply: Vec<u32> = data.avg_visible[a]
            .iter()
            .map(|&v| v.round() as u32)
            .collect();
        let mut demand = data.estimator.death_area_series(a).to_vec();
        let n = surge.len().min(ewt.len());
        supply.resize(n, 0);
        demand.resize(n, 0);
        out.push((supply, demand, ewt[..n].to_vec(), surge[..n].to_vec()));
    }
    out
}

fn xcorr_experiment(
    ctx: &RunCtx,
    cache: &CampaignCache,
    title: &'static str,
    feature_of: impl Fn(&(Vec<u32>, Vec<u32>, Vec<f32>, Vec<f32>)) -> Vec<f64>,
) -> Report {
    let mut table = TextTable::new(&["lag (min)", "Manhattan r", "MHTN p", "SF r", "SF p"]);
    let mut metrics = Vec::new();
    let max_lag = 12usize; // ±60 minutes in 5-minute samples
    let mut per_city: Vec<Vec<(i64, f64, f64)>> = Vec::new();
    for city in City::BOTH {
        let data = cache.campaign(city, ProtocolEra::Apr2015, ctx);
        let series = area_series(&data);
        // Average the per-area cross-correlations (areas are independent
        // price processes; pooling lags would mix scales).
        let mut acc: Vec<(f64, f64, u32)> = vec![(0.0, 0.0, 0); 2 * max_lag + 1];
        for s in &series {
            let feature = feature_of(s);
            let target: Vec<f64> = s.3.iter().map(|&m| m as f64).collect();
            if feature.len() < 30 {
                continue;
            }
            let lags = cross_correlation(&feature, &target, max_lag);
            for (i, l) in lags.iter().enumerate() {
                if l.corr.n >= 10 {
                    acc[i].0 += l.corr.r;
                    acc[i].1 += l.corr.p_value;
                    acc[i].2 += 1;
                }
            }
        }
        per_city.push(
            acc.iter()
                .enumerate()
                .map(|(i, (r, p, c))| {
                    let lag = i as i64 - max_lag as i64;
                    let cc = (*c).max(1) as f64;
                    (lag * 5, r / cc, p / cc)
                })
                .collect(),
        );
    }
    for i in 0..per_city[0].len() {
        let (lag, rm, pm) = per_city[0][i];
        let (_, rs, ps) = per_city[1][i];
        table.row(vec![
            lag.to_string(),
            format!("{rm:.3}"),
            format!("{pm:.3}"),
            format!("{rs:.3}"),
            format!("{ps:.3}"),
        ]);
    }
    // Peak magnitude near zero lag: strongest |r| for |lag| ≤ 10 min.
    for (ci, city) in City::BOTH.iter().enumerate() {
        let peak = per_city[ci]
            .iter()
            .filter(|(lag, _, _)| lag.abs() <= 10)
            .map(|(_, r, _)| *r)
            .fold(0.0f64, |a, b| if b.abs() > a.abs() { b } else { a });
        metrics.push((format!("{}_peak_r", city.label().to_lowercase()), peak));
        // Where is the global |r| max?
        let best_lag = per_city[ci]
            .iter()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .map(|(l, _, _)| *l)
            .unwrap_or(0);
        metrics.push((format!("{}_peak_lag_min", city.label().to_lowercase()), best_lag as f64));
    }
    Report::new(title, table, metrics)
}

/// Fig. 20: (supply − demand) vs surge cross-correlation. The paper found
/// a relatively strong *negative* correlation, strongest at lag 0.
pub fn fig20(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    xcorr_experiment(
        ctx,
        cache,
        "(Supply − Demand) vs surge cross-correlation (paper Fig. 20)",
        |(supply, demand, _, _)| {
            supply
                .iter()
                .zip(demand)
                .map(|(&s, &d)| s as f64 - d as f64)
                .collect()
        },
    )
}

/// Fig. 21: EWT vs surge cross-correlation. The paper found a relatively
/// strong *positive* correlation at lag 0.
pub fn fig21(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    xcorr_experiment(
        ctx,
        cache,
        "EWT vs surge cross-correlation (paper Fig. 21)",
        |(_, _, ewt, _)| ewt.iter().map(|&w| w as f64).collect(),
    )
}

/// Table 1: Raw / Threshold / Rush forecasting models per city.
pub fn tab01(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let mut table = TextTable::new(&[
        "city",
        "model",
        "θ_sd_diff",
        "θ_ewt",
        "θ_prev_surge",
        "R²",
        "n",
    ]);
    let mut metrics = Vec::new();
    for city in City::BOTH {
        let data = cache.campaign(city, ProtocolEra::Apr2015, ctx);
        let series = area_series(&data);
        for filter in [ModelFilter::Raw, ModelFilter::Threshold, ModelFilter::Rush] {
            match fit_city(&series, filter) {
                Some(fit) => {
                    table.row(vec![
                        city.label().into(),
                        filter.label().into(),
                        format!("{:.3}", fit.theta_sd_diff),
                        format!("{:.3}", fit.theta_ewt),
                        format!("{:.3}", fit.theta_prev_surge),
                        format!("{:.3}", fit.r2),
                        fit.n.to_string(),
                    ]);
                    metrics.push((
                        format!(
                            "{}_{}_r2",
                            city.label().to_lowercase(),
                            filter.label().to_lowercase()
                        ),
                        fit.r2,
                    ));
                }
                None => table.row(vec![
                    city.label().into(),
                    filter.label().into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "0".into(),
                ]),
            }
        }
    }
    Report::new("Linear forecasting models: parameters and R² (paper Table 1)", table, metrics)
}

/// Fig. 22: driver transition probabilities, equal-surge vs surging.
pub fn fig22(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let mut table = TextTable::new(&[
        "city",
        "area",
        "context",
        "New",
        "Old",
        "In",
        "Out",
        "Dying",
    ]);
    let mut metrics = Vec::new();
    for city in City::BOTH {
        let data = cache.campaign(city, ProtocolEra::Apr2015, ctx);
        let mut new_deltas = Vec::new();
        let mut dying_deltas = Vec::new();
        for area in 0..data.transitions.area_count() {
            let mut per_ctx = [None, None];
            for (ctx_i, ctx_name) in [(0usize, "equal"), (1, "surging")] {
                if let Some(p) = data.transitions.probabilities(area, ctx_i) {
                    table.row(vec![
                        city.label().into(),
                        area.to_string(),
                        ctx_name.into(),
                        format!("{:.3}", p[0]),
                        format!("{:.3}", p[1]),
                        format!("{:.3}", p[2]),
                        format!("{:.3}", p[3]),
                        format!("{:.3}", p[4]),
                    ]);
                    per_ctx[ctx_i] = Some(p);
                }
            }
            if let (Some(eq), Some(su)) = (per_ctx[0], per_ctx[1]) {
                new_deltas.push(su[0] - eq[0]);
                dying_deltas.push(su[4] - eq[4]);
            }
        }
        let k = city.label().to_lowercase();
        if !new_deltas.is_empty() {
            metrics.push((
                format!("{k}_new_delta"),
                new_deltas.iter().sum::<f64>() / new_deltas.len() as f64,
            ));
            metrics.push((
                format!("{k}_dying_delta"),
                dying_deltas.iter().sum::<f64>() / dying_deltas.len() as f64,
            ));
        }
    }
    let _ = CarState::ALL; // states documented in transitions module
    Report::new("Driver transition probabilities under surge (paper Fig. 22)", table, metrics)
}
