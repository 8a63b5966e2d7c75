//! Fig. 4: methodology validation against taxi ground truth (§3.5).

use crate::cache::CampaignCache;
use crate::{Report, RunCtx, TextTable};
use surgescope_city::CarType;

/// Fig. 4: measured vs ground-truth taxi supply and demand. The paper's
/// taxi clients captured 97% of cars and 95% of deaths.
pub fn fig04(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let v = cache.taxi(ctx);
    let measured_supply = v.estimator.supply_series(CarType::UberT);
    let measured_deaths = v.estimator.death_series(CarType::UberT);
    let truth_supply = &v.truth.supply;
    let truth_demand = &v.truth.demand;

    let n = measured_supply
        .len()
        .min(truth_supply.len())
        .min(truth_demand.len());

    // Capture ratios over the aligned horizon.
    let sum = |xs: &[u32]| xs.iter().map(|&x| x as u64).sum::<u64>() as f64;
    let ms = sum(&measured_supply[..n.min(measured_supply.len())]);
    let ts = sum(&truth_supply[..n]);
    let mut md = sum(measured_deaths);
    let td = sum(&truth_demand[..n]);
    if md > td {
        // Deaths are an upper bound; clip for the ratio display.
        md = md.min(td * 2.0);
    }
    let supply_capture = if ts > 0.0 { ms / ts } else { 0.0 };
    let death_capture = if td > 0.0 { md / td } else { 0.0 };

    // Hourly series sample (12 intervals per row).
    let mut table = TextTable::new(&[
        "hour",
        "truth supply",
        "measured supply",
        "truth demand",
        "measured deaths",
    ]);
    let per_hour = 12usize;
    for h in 0..(n / per_hour) {
        let span = h * per_hour..(h + 1) * per_hour;
        let mean_u32 = |xs: &[u32]| {
            xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len().max(1) as f64
        };
        let m_sup = if span.end <= measured_supply.len() {
            mean_u32(&measured_supply[span.clone()])
        } else {
            0.0
        };
        let m_dea = if span.end <= measured_deaths.len() {
            mean_u32(&measured_deaths[span.clone()])
        } else {
            0.0
        };
        table.row(vec![
            format!("{h:02}"),
            format!("{:.1}", mean_u32(&truth_supply[span.clone()])),
            format!("{m_sup:.1}"),
            format!("{:.1}", mean_u32(&truth_demand[span.clone()])),
            format!("{m_dea:.1}"),
        ]);
    }

    let metrics = vec![
        ("supply_capture".into(), supply_capture),
        ("death_capture".into(), death_capture),
    ];
    let mut report =
        Report::new("Measured vs ground-truth taxi supply/demand (paper Fig. 4)", table, metrics);
    report.body.push_str(&format!(
        "\ncars captured: {:.1}% (paper: 97%)   deaths captured: {:.1}% (paper: 95%)\n",
        supply_capture * 100.0,
        death_capture * 100.0
    ));
    report.body.push_str(&format!(
        "trace: {} rides, {} taxis\n",
        v.trace.rides.len(),
        v.trace.taxi_count
    ));
    report
}
