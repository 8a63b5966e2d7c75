//! Marketplace-dynamics experiments (§4): Figs. 5/6 (reconstructed), 7,
//! 8, 9, 10 and 11.

use crate::cache::{CampaignCache, City};
use crate::{Report, RunCtx, TextTable};
use surgescope_analysis::{mean, Ecdf};
use surgescope_api::ProtocolEra;
use surgescope_city::CarType;

/// Figs. 5/6 are absent from the supplied transcription; this experiment
/// reconstructs the §4.2 prose claims instead: the ranking of car-type
/// prevalence per city and the data-cleaning statistics of §4.1.
pub fn fig05(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let mut table = TextTable::new(&["type", "Manhattan avg supply", "SF avg supply"]);
    let mut per_city: Vec<Vec<(CarType, f64)>> = Vec::new();
    let mut cleaning = String::new();
    for city in City::BOTH {
        let data = cache.campaign(city, ProtocolEra::Apr2015, ctx);
        let mut rows = Vec::new();
        for t in CarType::ALL {
            let s = data.estimator.supply_series(t);
            rows.push((t, mean(&s.iter().map(|&x| x as f64).collect::<Vec<_>>())));
        }
        cleaning.push_str(&format!(
            "{}: short-lived cars filtered = {}, edge-filtered deaths = {}\n",
            city.label(),
            data.estimator.short_lived_filtered,
            data.estimator.edge_filtered
        ));
        per_city.push(rows);
    }
    let mut metrics = Vec::new();
    for (i, t) in CarType::ALL.iter().enumerate() {
        table.row(vec![
            t.label().to_string(),
            format!("{:.1}", per_city[0][i].1),
            format!("{:.1}", per_city[1][i].1),
        ]);
    }
    let x_m = per_city[0][0].1;
    let x_s = per_city[1][0].1;
    metrics.push(("manhattan_uberx_mean".into(), x_m));
    metrics.push(("sf_uberx_mean".into(), x_s));
    // §4.2: SF has ~58% more Ubers overall, mostly UberX.
    let tot = |rows: &[(CarType, f64)]| rows.iter().map(|(_, v)| v).sum::<f64>();
    metrics.push(("sf_over_manhattan_supply".into(), tot(&per_city[1]) / tot(&per_city[0]).max(1e-9)));
    let title = "Car-type prevalence + data cleaning (reconstruction of Figs. 5–6 / §4.1–4.2)";
    let mut report = Report::new(title, table, metrics);
    report.body.push('\n');
    report.body.push_str(&cleaning);
    report
}

/// Fig. 7: car lifespan CDFs, low-priced vs premium tiers.
pub fn fig07(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let mut table = TextTable::new(&[
        "city",
        "group",
        "n",
        "p25 (h)",
        "median (h)",
        "p90 (h)",
    ]);
    let mut metrics = Vec::new();
    for city in City::BOTH {
        let data = cache.campaign(city, ProtocolEra::Apr2015, ctx);
        for (group, low) in [("low-priced (X/XL/FAM/POOL)", true), ("premium (BLACK/SUV)", false)] {
            let sample: Vec<f64> = data
                .estimator
                .lifespans
                .iter()
                .filter(|(t, _)| {
                    if low {
                        t.is_low_priced()
                    } else {
                        matches!(t, CarType::UberBlack | CarType::UberSuv)
                    }
                })
                .map(|(_, secs)| *secs as f64 / 3600.0)
                .collect();
            let e = Ecdf::new(sample);
            table.row(vec![
                city.label().into(),
                group.into(),
                e.n().to_string(),
                format!("{:.2}", e.quantile(0.25)),
                format!("{:.2}", e.quantile(0.5)),
                format!("{:.2}", e.quantile(0.9)),
            ]);
            if city == City::Manhattan {
                let key = if low { "manhattan_low_median_h" } else { "manhattan_premium_median_h" };
                metrics.push((key.into(), e.quantile(0.5)));
            }
        }
    }
    Report::new("Car lifespan distribution by tier group (paper Fig. 7)", table, metrics)
}

/// Fig. 8: supply, demand, surge and EWT time series for both cities.
pub fn fig08(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let mut table = TextTable::new(&[
        "city",
        "hour",
        "supply (X)",
        "deaths (X)",
        "surge (X)",
        "EWT min (X)",
    ]);
    let mut metrics = Vec::new();
    for city in City::BOTH {
        let data = cache.campaign(city, ProtocolEra::Apr2015, ctx);
        let supply = data.estimator.supply_series(CarType::UberX);
        let deaths = data.estimator.death_series(CarType::UberX);
        let n_areas = data.api_surge.len();
        let intervals = data.intervals;
        // Mean across areas per interval.
        let surge_mean: Vec<f64> = (0..intervals)
            .map(|iv| {
                (0..n_areas)
                    .map(|a| *data.api_surge[a].get(iv).unwrap_or(&1.0) as f64)
                    .sum::<f64>()
                    / n_areas as f64
            })
            .collect();
        let ewt_mean: Vec<f64> = (0..intervals)
            .map(|iv| {
                (0..n_areas)
                    .map(|a| *data.api_ewt[a].get(iv).unwrap_or(&0.0) as f64)
                    .sum::<f64>()
                    / n_areas as f64
            })
            .collect();
        let per_hour = 12usize;
        let hours = intervals / per_hour;
        let mut day_peak_supply: f64 = 0.0;
        let mut night_supply = f64::INFINITY;
        for h in 0..hours {
            let span = h * per_hour..((h + 1) * per_hour).min(supply.len());
            if span.is_empty() {
                break;
            }
            let s = mean(&supply[span.clone()].iter().map(|&x| x as f64).collect::<Vec<_>>());
            let d_span = h * per_hour..((h + 1) * per_hour).min(deaths.len());
            let d = if d_span.is_empty() {
                0.0
            } else {
                mean(&deaths[d_span].iter().map(|&x| x as f64).collect::<Vec<_>>())
            };
            let m = mean(&surge_mean[h * per_hour..(h + 1) * per_hour]);
            let w = mean(&ewt_mean[h * per_hour..(h + 1) * per_hour]);
            let hod = h % 24;
            if (10..20).contains(&hod) {
                day_peak_supply = day_peak_supply.max(s);
            }
            if (3..5).contains(&hod) {
                night_supply = night_supply.min(s);
            }
            table.row(vec![
                city.label().into(),
                format!("{hod:02}"),
                format!("{s:.1}"),
                format!("{d:.1}"),
                format!("{m:.2}"),
                format!("{w:.1}"),
            ]);
        }
        metrics.push((
            format!("{}_day_night_supply_ratio", city.label().to_lowercase()),
            day_peak_supply / night_supply.max(1.0),
        ));
        metrics.push((
            format!("{}_mean_surge", city.label().to_lowercase()),
            mean(&surge_mean),
        ));
    }
    Report::new("Supply / demand / surge / EWT over time (paper Fig. 8)", table, metrics)
}

/// Figs. 9 and 10: `city`'s per-client heatmap of cars and EWT.
pub(crate) fn heatmap(ctx: &RunCtx, city: City, cache: &CampaignCache) -> Report {
    let data = cache.campaign(city, ProtocolEra::Apr2015, ctx);
    let mut table = TextTable::new(&[
        "client",
        "x (m)",
        "y (m)",
        "cars/day",
        "cars/5min",
        "mean EWT (min)",
    ]);
    let mut best_cars = 0.0f64;
    for (i, spec) in data.clients.iter().enumerate() {
        let cars_per_day = mean(
            &data.client_daily_cars[i]
                .iter()
                .map(|&c| c as f64)
                .collect::<Vec<_>>(),
        );
        best_cars = best_cars.max(cars_per_day);
        table.row(vec![
            i.to_string(),
            format!("{:.0}", spec.position.x),
            format!("{:.0}", spec.position.y),
            format!("{cars_per_day:.0}"),
            format!("{:.1}", data.client_interval_cars[i]),
            format!("{:.2}", data.client_mean_ewt[i]),
        ]);
    }
    let title = match city {
        City::Manhattan => "Heatmap: cars & EWT per client, Manhattan (paper Fig. 9)",
        City::SanFrancisco => "Heatmap: cars & EWT per client, SF (paper Fig. 10)",
    };
    let metrics = vec![
        ("max_client_cars_per_day".into(), best_cars),
        ("mean_client_ewt".into(), mean(&data.client_mean_ewt)),
    ];
    Report::new(title, table, metrics)
}

/// Fig. 11: distribution of EWTs (paper: 87% of waits ≤ 4 minutes).
pub fn fig11(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let mut table = TextTable::new(&["city", "P(EWT≤2)", "P(EWT≤4)", "P(EWT≤8)", "p99 (min)", "max (min)"]);
    let mut metrics = Vec::new();
    for city in City::BOTH {
        let data = cache.campaign(city, ProtocolEra::Apr2015, ctx);
        let sample: Vec<f64> = data
            .client_ewt
            .iter()
            .flat_map(|v| v.iter().map(|&x| x as f64))
            .filter(|&x| x > 0.0)
            .collect();
        let e = Ecdf::new(sample);
        table.row(vec![
            city.label().into(),
            format!("{:.2}", e.at(2.0)),
            format!("{:.2}", e.at(4.0)),
            format!("{:.2}", e.at(8.0)),
            format!("{:.1}", e.quantile(0.99)),
            format!("{:.1}", e.max()),
        ]);
        metrics.push((
            format!("{}_ewt_le_4min", city.label().to_lowercase()),
            e.at(4.0),
        ));
    }
    Report::new("Distribution of EWTs for UberX (paper Fig. 11)", table, metrics)
}
