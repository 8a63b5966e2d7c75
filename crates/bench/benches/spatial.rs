//! Benchmark for the ping kernel: `ping_all_sf` measures one tick's
//! pings for a paper-sized client lattice at rush hour, answered
//! serially into a reused buffer.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use surgescope_api::{ApiService, ProtocolEra};
use surgescope_city::CityModel;
use surgescope_core::{ClientSpec, MeasuredSystem, UberSystem};
use surgescope_marketplace::{Marketplace, MarketplaceConfig};
use surgescope_simcore::SimDuration;

/// An SF-scale system at rush hour plus a client lattice the size the
/// paper deployed (43 clients), mirroring the campaign hot loop.
fn sf_system() -> (UberSystem, Vec<ClientSpec>) {
    let city = CityModel::san_francisco_downtown();
    let spacing = 4.0 * 83.0; // the paper's 4-minute-walk spacing
    let clients: Vec<ClientSpec> = surgescope_geo::grid::cover_polygon(
        &city.measurement_region,
        spacing,
    )
    .into_iter()
    .enumerate()
    .map(|(i, slot)| ClientSpec { key: i as u64, position: slot.position })
    .collect();
    let mut mp = Marketplace::new(city, MarketplaceConfig::default(), 99);
    mp.run_for(SimDuration::hours(9));
    let sys = UberSystem::new(mp, ApiService::new(ProtocolEra::Apr2015, 99));
    (sys, clients)
}

/// One tick's pings for the whole lattice, answered serially into a
/// reused buffer — the campaign runner's call.
fn bench_ping_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("ping_all_sf");
    let (mut sys, clients) = sf_system();
    let mut out = Vec::new();
    g.bench_function("serial", |b| {
        b.iter(|| {
            sys.ping_all_into(&clients, &mut out);
            black_box(&out);
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_ping_fanout
}
criterion_main!(benches);
