//! Calibration experiments: Fig. 2 (visibility radius) and Fig. 3
//! (client placement).

use crate::{Report, RunCtx, TextTable};
use surgescope_api::{ApiService, ProtocolEra};
use surgescope_city::{CarType, CityModel};
use surgescope_core::calibration::{placement, visibility_radius};
use surgescope_core::UberSystem;
use surgescope_marketplace::{Marketplace, MarketplaceConfig};
use surgescope_simcore::SimDuration;

fn warmed_system(city: CityModel, scale: f64, seed: u64, hours: u64) -> UberSystem {
    let mut city = city;
    city.supply = city.supply.scaled(scale);
    city.demand = city.demand.scaled(scale);
    let mut mp = Marketplace::new(city, MarketplaceConfig::default(), seed);
    mp.run_for(SimDuration::hours(hours));
    UberSystem::new(mp, ApiService::new(ProtocolEra::Feb2015, seed))
}

/// Fig. 2: client visibility radius over the day in both cities.
pub fn fig02(ctx: &RunCtx) -> Report {
    let hours: Vec<u64> = if ctx.quick {
        vec![4, 12, 19]
    } else {
        vec![0, 3, 6, 9, 12, 15, 18, 21]
    };
    let mut table = TextTable::new(&["hour", "Manhattan r (m)", "SF r (m)"]);
    let mut metrics = Vec::new();
    let mut sums = [0.0f64; 2];
    let mut counts = [0u32; 2];
    for &h in &hours {
        let mut row = vec![format!("{h:02}:00")];
        for (ci, city) in
            [CityModel::manhattan_midtown(), CityModel::san_francisco_downtown()]
                .into_iter()
                .enumerate()
        {
            let center = city.measurement_region.centroid();
            let mut sys = warmed_system(city, ctx.scale(), ctx.seed + h, h.max(1));
            let r = visibility_radius(&mut sys, center, CarType::UberX, 300);
            match r {
                Some(r) => {
                    row.push(format!("{r:.0}"));
                    sums[ci] += r;
                    counts[ci] += 1;
                }
                None => row.push("n/a".into()),
            }
        }
        table.row(row);
    }
    for (ci, name) in ["manhattan_mean_radius_m", "sf_mean_radius_m"].iter().enumerate() {
        if counts[ci] > 0 {
            metrics.push((name.to_string(), sums[ci] / counts[ci] as f64));
        }
    }
    // Shape check input: the paper measured 247 m (MHTN) < 387 m (SF).
    Report::new("Visibility radius of clients over the day (paper Fig. 2)", table, metrics)
}

/// Fig. 3: measurement-client placements in both cities plus the denser
/// taxi lattice used for validation.
pub fn fig03() -> Report {
    let mut table =
        TextTable::new(&["deployment", "spacing (m)", "clients", "region (km × km)"]);
    let mut metrics = Vec::new();
    let specs: [(&str, CityModel, f64); 3] = [
        ("Uber Manhattan", CityModel::manhattan_midtown(), 200.0),
        ("Uber SF", CityModel::san_francisco_downtown(), 350.0),
        ("Taxi Manhattan", CityModel::manhattan_midtown(), 150.0),
    ];
    for (name, city, spacing) in specs {
        let clients = placement(&city.measurement_region, spacing);
        let bb = city.measurement_region.bbox();
        table.row(vec![
            name.to_string(),
            format!("{spacing:.0}"),
            clients.len().to_string(),
            format!("{:.1} × {:.1}", bb.width() / 1000.0, bb.height() / 1000.0),
        ]);
        metrics.push((
            format!("{}_clients", name.to_lowercase().replace(' ', "_")),
            clients.len() as f64,
        ));
    }
    Report::new("Measurement-point placement (paper Fig. 3)", table, metrics)
}
