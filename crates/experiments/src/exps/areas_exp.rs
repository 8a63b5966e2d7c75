//! Surge-area inference (§5.3): Figs. 18–19.
//!
//! A lattice of API probes queries `estimates/price` once per 5-minute
//! interval for several hours (each probe uses its own account to stay
//! within the 1,000 req/h limit, exactly as the paper's 43 accounts did),
//! then adjacent probes with identical multiplier series are clustered.
//! Unlike the paper we can score the recovered partition against the
//! ground-truth area polygons (Rand index).

use crate::cache::City;
use crate::{Report, RunCtx, TextTable};
use surgescope_api::{ApiService, ProtocolEra, WorldSnapshot};
use surgescope_city::CarType;
use surgescope_core::areas::{infer_areas, probe_lattice, rand_index};
use surgescope_marketplace::{Marketplace, MarketplaceConfig};

/// Figs. 18 and 19: `city`'s surge areas, recovered from API probes.
pub(crate) fn run_area_inference(ctx: &RunCtx, city: City) -> Report {
    let mut model = city.model();
    model.supply = model.supply.scaled(ctx.scale());
    model.demand = model.demand.scaled(ctx.scale());
    // Probe the whole service region so every ground-truth area is
    // represented.
    let spacing = if city == City::Manhattan { 500.0 } else { 700.0 };
    let probes = probe_lattice(&model.service_region, spacing);

    let mut mp = Marketplace::new(model.clone(), MarketplaceConfig::default(), ctx.seed ^ 0xA5EA);
    let mut api = ApiService::new(ProtocolEra::Apr2015, ctx.seed ^ 0xA5EB);

    // Warm into the morning then probe through the active day (the paper
    // probed for 8 days; a surging day is enough for our 4-area truth).
    let hours = if ctx.quick { 10 } else { 24 };
    let warm_ticks = 6 * 720; // start at 06:00
    for _ in 0..warm_ticks {
        mp.tick();
    }
    let mut series: Vec<Vec<f32>> = vec![Vec::new(); probes.len()];
    let ticks = hours * 720;
    for _ in 0..ticks {
        mp.tick();
        if mp.now().seconds_into_surge_interval() == 45 {
            let snap = WorldSnapshot::of(&mp);
            for (pi, probe) in probes.iter().enumerate() {
                let loc = model.projection.to_latlng(*probe);
                // One account per probe: 12 requests/hour each.
                let est = api
                    .estimates_price(&snap, 2_000_000 + pi as u64, loc)
                    .expect("well under the rate limit");
                let m = est
                    .iter()
                    .find(|p| p.car_type == CarType::UberX)
                    .map_or(1.0, |p| p.surge_multiplier);
                series[pi].push(m as f32);
            }
        }
    }

    let inference = infer_areas(&probes, &series, spacing * 1.5);
    let ri = rand_index(&model, &inference);

    let mut table = TextTable::new(&["metric", "value"]);
    table.row(vec!["probes".into(), probes.len().to_string()]);
    table.row(vec!["intervals probed".into(), series[0].len().to_string()]);
    table.row(vec!["clusters found".into(), inference.clusters.to_string()]);
    table.row(vec!["ground-truth areas".into(), model.area_count().to_string()]);
    table.row(vec!["rand index".into(), format!("{ri:.3}")]);

    // Cluster map rendered as ASCII rows (south → north).
    let mut map = String::from("\ncluster map (rows south→north):\n");
    let mut last_y = f64::NEG_INFINITY;
    for (p, &label) in probes.iter().zip(&inference.assignment) {
        if p.y > last_y {
            if last_y > f64::NEG_INFINITY {
                map.push('\n');
            }
            last_y = p.y;
        }
        map.push_str(&format!("{label:>2} "));
    }
    map.push('\n');

    let title = match city {
        City::Manhattan => "Surge areas recovered in Manhattan (paper Fig. 18)",
        City::SanFrancisco => "Surge areas recovered in SF (paper Fig. 19)",
    };
    let metrics =
        vec![("clusters".into(), inference.clusters as f64), ("rand_index".into(), ri)];
    let mut report = Report::new(title, table, metrics);
    report.body.push_str(&map);
    report
}
