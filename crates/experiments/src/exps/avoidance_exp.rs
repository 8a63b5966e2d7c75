//! Surge-avoidance strategy (§6): Figs. 23–24.

use crate::cache::{CampaignCache, City};
use crate::{Report, RunCtx, TextTable};
use surgescope_analysis::Ecdf;
use surgescope_api::ProtocolEra;
use surgescope_core::avoidance::evaluate;

/// Fig. 23: per-client fraction of surged intervals where walking to an
/// adjacent area yields a cheaper UberX (paper: 10–20% of the time around
/// Times Square; only ~2% in SF).
pub fn fig23(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let mut table = TextTable::new(&[
        "city",
        "clients",
        "median success %",
        "p90 success %",
        "best client %",
    ]);
    let mut metrics = Vec::new();
    for city in City::BOTH {
        let data = cache.campaign(city, ProtocolEra::Apr2015, ctx);
        let results = evaluate(
            &data.city,
            &data.clients,
            &data.client_area,
            &data.api_surge,
            &data.api_ewt,
        );
        let fracs: Vec<f64> = results.iter().map(|r| r.success_fraction() * 100.0).collect();
        let e = Ecdf::new(fracs.clone());
        table.row(vec![
            city.label().into(),
            results.len().to_string(),
            format!("{:.1}", e.quantile(0.5)),
            format!("{:.1}", e.quantile(0.9)),
            format!("{:.1}", e.max()),
        ]);
        let k = city.label().to_lowercase();
        metrics.push((format!("{k}_median_success_pct"), e.quantile(0.5)));
        metrics.push((format!("{k}_max_success_pct"), e.max()));
    }
    Report::new("Fraction of time walking beats local surge (paper Fig. 23)", table, metrics)
}

/// Fig. 24: how much surge is reduced and how far riders walk (paper:
/// savings ≥ 0.5 in >50% of wins; walks under 7 min MHTN / 9 min SF).
pub fn fig24(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let mut table = TextTable::new(&[
        "city",
        "wins",
        "P(saving≥0.5)",
        "median saving",
        "median walk (min)",
        "max walk (min)",
    ]);
    let mut metrics = Vec::new();
    for city in City::BOTH {
        let data = cache.campaign(city, ProtocolEra::Apr2015, ctx);
        let results = evaluate(
            &data.city,
            &data.clients,
            &data.client_area,
            &data.api_surge,
            &data.api_ewt,
        );
        let savings: Vec<f64> = results.iter().flat_map(|r| r.savings.iter().copied()).collect();
        let walks: Vec<f64> =
            results.iter().flat_map(|r| r.walk_minutes.iter().copied()).collect();
        if savings.is_empty() {
            table.row(vec![city.label().into(), "0".into(), "-".into(), "-".into(), "-".into(), "-".into()]);
            continue;
        }
        let es = Ecdf::new(savings.clone());
        let ew = Ecdf::new(walks.clone());
        table.row(vec![
            city.label().into(),
            savings.len().to_string(),
            format!("{:.2}", 1.0 - es.at(0.4999)),
            format!("{:.2}", es.quantile(0.5)),
            format!("{:.1}", ew.quantile(0.5)),
            format!("{:.1}", ew.max()),
        ]);
        let k = city.label().to_lowercase();
        metrics.push((format!("{k}_wins"), savings.len() as f64));
        metrics.push((format!("{k}_median_saving"), es.quantile(0.5)));
        metrics.push((format!("{k}_max_walk_min"), ew.max()));
    }
    let title = "Surge reduction and walking time under the §6 strategy (paper Fig. 24)";
    Report::new(title, table, metrics)
}
