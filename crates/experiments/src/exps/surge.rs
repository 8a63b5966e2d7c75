//! Surge-pricing observations (§5.1–5.2): Figs. 12–17.

use crate::cache::{CampaignCache, City};
use crate::{Report, RunCtx, TextTable};
use surgescope_analysis::Ecdf;
use surgescope_api::ProtocolEra;
use surgescope_core::surge_obs::{change_moments, detect_jitter, episodes, simultaneity, JitterEvent};

/// Fig. 12: distribution of surge multipliers (paper: 86% of the time no
/// surge in Manhattan vs 43% in SF; max 2.8 vs 4.1).
pub fn fig12(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let mut table = TextTable::new(&[
        "city",
        "P(m=1)",
        "P(m≤1.5)",
        "mean m",
        "max m",
    ]);
    let mut metrics = Vec::new();
    for city in City::BOTH {
        let data = cache.campaign(city, ProtocolEra::Apr2015, ctx);
        // API series across all areas and intervals (the paper's Fig. 12
        // counts client samples; area-interval samples give the same
        // distribution without jitter artifacts).
        let sample: Vec<f64> = data
            .api_surge
            .iter()
            .flat_map(|a| a.iter().map(|&m| m as f64))
            .collect();
        let e = Ecdf::new(sample.clone());
        let no_surge = sample.iter().filter(|&&m| m <= 1.0).count() as f64 / sample.len() as f64;
        let mean_m = sample.iter().sum::<f64>() / sample.len() as f64;
        table.row(vec![
            city.label().into(),
            format!("{no_surge:.2}"),
            format!("{:.2}", e.at(1.5)),
            format!("{mean_m:.3}"),
            format!("{:.1}", e.max()),
        ]);
        let k = city.label().to_lowercase();
        metrics.push((format!("{k}_no_surge_frac"), no_surge));
        metrics.push((format!("{k}_mean_surge"), mean_m));
        metrics.push((format!("{k}_max_surge"), e.max()));
    }
    Report::new("Distribution of surge multipliers (paper Fig. 12)", table, metrics)
}

/// Fig. 13: surge episode durations — Feb-era clients (clean 5-minute
/// stair-step), Apr-era clients (large sub-minute mass from jitter), and
/// the API (always stair-step).
pub fn fig13(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let mut table = TextTable::new(&[
        "stream",
        "episodes",
        "P(≤1min)",
        "P(≤5min)",
        "P(≤10min)",
        "P(≤20min)",
    ]);
    let mut metrics = Vec::new();

    let durations_for = |era: ProtocolEra| -> Vec<f64> {
        let mut durs = Vec::new();
        for city in City::BOTH {
            let data = cache.campaign(city, era, ctx);
            for series in &data.client_surge {
                durs.extend(episodes(series, data.tick_secs).into_iter().map(|d| d as f64));
            }
        }
        durs
    };
    let feb = durations_for(ProtocolEra::Feb2015);
    let apr = durations_for(ProtocolEra::Apr2015);
    // API stream: per-area interval series → durations in multiples of 300.
    let mut api = Vec::new();
    for city in City::BOTH {
        let data = cache.campaign(city, ProtocolEra::Apr2015, ctx);
        for area in &data.api_surge {
            api.extend(episodes(area, 300).into_iter().map(|d| d as f64));
        }
    }

    for (name, durs) in [("Feb client", &feb), ("Apr client", &apr), ("API", &api)] {
        let e = Ecdf::new(durs.clone());
        table.row(vec![
            name.into(),
            e.n().to_string(),
            format!("{:.2}", e.at(60.0)),
            format!("{:.2}", e.at(300.0)),
            format!("{:.2}", e.at(600.0)),
            format!("{:.2}", e.at(1200.0)),
        ]);
        let key = name.to_lowercase().replace(' ', "_");
        metrics.push((format!("{key}_sub_minute"), e.at(60.0)));
        metrics.push((format!("{key}_le_5min"), e.at(300.0)));
    }
    Report::new("Duration of surges (paper Fig. 13)", table, metrics)
}

/// Fig. 14: an example 25-minute window of API vs jittery-client surge.
pub fn fig14(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let data = cache.campaign(City::SanFrancisco, ProtocolEra::Apr2015, ctx);
    // Find a client and a 5-interval window containing a jitter event.
    // The pick carries the client's resolved area so the render loop
    // never has to re-unwrap `client_area` — clients that never resolved
    // an area (possible under heavily faulted campaigns) are skipped by
    // the search itself.
    let mut pick: Option<(usize, usize, usize)> = None; // (client, area, start interval)
    'outer: for (ci, series) in data.client_surge.iter().enumerate() {
        let Some(area) = data.client_area[ci] else { continue };
        let events = detect_jitter(series, &data.api_surge[area], data.tick_secs);
        for e in &events {
            if e.interval >= 2 && (e.interval as usize) + 3 < data.intervals {
                pick = Some((ci, area, e.interval as usize - 2));
                break 'outer;
            }
        }
    }
    let mut table = TextTable::new(&["t (min)", "API m", "client m"]);
    let mut jitter_points = 0u32;
    if let Some((ci, area, start_iv)) = pick {
        let ticks_per_iv = (300 / data.tick_secs) as usize;
        for k in 0..(5 * ticks_per_iv) {
            let tick = start_iv * ticks_per_iv + k;
            let iv = start_iv + k / ticks_per_iv;
            let api_m = data.api_surge[area][iv];
            let cli_m = data.client_surge[ci][tick];
            if (api_m - cli_m).abs() > 1e-6 {
                jitter_points += 1;
            }
            // Print at 30 s granularity to keep the table readable.
            if k % 6 == 0 {
                table.row(vec![
                    format!("{:.1}", k as f64 * data.tick_secs as f64 / 60.0),
                    format!("{api_m:.1}"),
                    format!("{cli_m:.1}"),
                ]);
            }
        }
    }
    let found = pick.is_some();
    let metrics = vec![
        ("example_found".into(), found as u32 as f64),
        ("divergent_ticks".into(), jitter_points as f64),
    ];
    let title = "Example surge timeline: API vs Apr-era client (paper Fig. 14)";
    let mut report = Report::new(title, table, metrics);
    if !found {
        report.body = "no jitter event found in this campaign window\n".to_string();
    }
    report
}

/// Fig. 15: the moment within each 5-minute interval when the observed
/// multiplier changes (Feb/API within ~35 s; Apr clients within ~2 min).
pub fn fig15(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let mut table = TextTable::new(&["stream", "changes", "p50 (s)", "p95 (s)", "max (s)"]);
    let mut metrics = Vec::new();
    for (name, era) in [("Feb client", ProtocolEra::Feb2015), ("Apr client", ProtocolEra::Apr2015)]
    {
        let mut moments = Vec::new();
        for city in City::BOTH {
            let data = cache.campaign(city, era, ctx);
            for series in &data.client_surge {
                moments.extend(
                    change_moments(series, data.tick_secs)
                        .into_iter()
                        .flatten()
                        .map(|m| m as f64),
                );
            }
        }
        let e = Ecdf::new(moments);
        table.row(vec![
            name.into(),
            e.n().to_string(),
            format!("{:.0}", e.quantile(0.5)),
            format!("{:.0}", e.quantile(0.95)),
            format!("{:.0}", e.max()),
        ]);
        let key = name.to_lowercase().replace(' ', "_");
        metrics.push((format!("{key}_p95_change_s"), e.quantile(0.95)));
    }
    let title = "Moment of surge change within the 5-minute interval (paper Fig. 15)";
    Report::new(title, table, metrics)
}

fn all_jitter_events(
    ctx: &RunCtx,
    cache: &CampaignCache,
    city: City,
) -> (Vec<Vec<JitterEvent>>, u64) {
    let data = cache.campaign(city, ProtocolEra::Apr2015, ctx);
    let mut per_client = Vec::with_capacity(data.client_surge.len());
    for (ci, series) in data.client_surge.iter().enumerate() {
        match data.client_area[ci] {
            Some(area) => per_client
                .push(detect_jitter(series, &data.api_surge[area], data.tick_secs)),
            None => per_client.push(Vec::new()),
        }
    }
    (per_client, data.tick_secs)
}

/// Fig. 16: the multiplier seen during jitter (it equals the previous
/// interval's value, so it usually *drops* the price; 30–50% of events
/// drop it all the way to 1).
pub fn fig16(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let mut table = TextTable::new(&[
        "city",
        "events",
        "P(drop)",
        "P(stale=1)",
        "median stale m",
    ]);
    let mut metrics = Vec::new();
    for city in City::BOTH {
        let (per_client, _) = all_jitter_events(ctx, cache, city);
        let events: Vec<&JitterEvent> = per_client.iter().flatten().collect();
        let n = events.len();
        if n == 0 {
            table.row(vec![city.label().into(), "0".into(), "-".into(), "-".into(), "-".into()]);
            continue;
        }
        let drops = events.iter().filter(|e| e.is_price_drop()).count() as f64 / n as f64;
        let to_one =
            events.iter().filter(|e| e.stale_value <= 1.0).count() as f64 / n as f64;
        let e = Ecdf::new(events.iter().map(|e| e.stale_value as f64).collect());
        table.row(vec![
            city.label().into(),
            n.to_string(),
            format!("{drops:.2}"),
            format!("{to_one:.2}"),
            format!("{:.1}", e.quantile(0.5)),
        ]);
        let k = city.label().to_lowercase();
        metrics.push((format!("{k}_jitter_events"), n as f64));
        metrics.push((format!("{k}_jitter_drop_frac"), drops));
        metrics.push((format!("{k}_jitter_to_one_frac"), to_one));
    }
    Report::new("Multiplier during jitter (paper Fig. 16)", table, metrics)
}

/// Fig. 17: simultaneity of jitter across the 43-client fleet (paper:
/// ~90% of events touch a single client; never more than 5).
pub fn fig17(ctx: &RunCtx, cache: &CampaignCache) -> Report {
    let mut table = TextTable::new(&["city", "k=1", "k=2", "k=3", "k≥4", "max k"]);
    let mut metrics = Vec::new();
    for city in City::BOTH {
        let (per_client, tick) = all_jitter_events(ctx, cache, city);
        let hist = simultaneity(&per_client, tick);
        let total: u64 = hist.iter().sum();
        if total == 0 {
            table.row(vec![city.label().into(), "-".into(), "-".into(), "-".into(), "-".into(), "0".into()]);
            continue;
        }
        let frac = |k: usize| {
            if k < hist.len() {
                hist[k] as f64 / total as f64
            } else {
                0.0
            }
        };
        let four_plus: f64 = hist.iter().skip(3).sum::<u64>() as f64 / total as f64;
        table.row(vec![
            city.label().into(),
            format!("{:.2}", frac(0)),
            format!("{:.2}", frac(1)),
            format!("{:.2}", frac(2)),
            format!("{four_plus:.2}"),
            hist.len().to_string(),
        ]);
        let k = city.label().to_lowercase();
        metrics.push((format!("{k}_single_client_frac"), frac(0)));
        metrics.push((format!("{k}_max_simultaneous"), hist.len() as f64));
    }
    Report::new("Clients with simultaneous jitter (paper Fig. 17)", table, metrics)
}
