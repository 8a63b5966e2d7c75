//! Benchmarks for the spatial bucket grid and the ping kernel.
//!
//! `spatial_grid` compares the expanding-ring queries against the
//! brute-force scans they replaced, at tier-inventory sizes typical of a
//! scaled SF world. `ping_all_sf` measures one tick's pings for a
//! paper-sized client lattice, answered serially into a reused buffer.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use surgescope_api::{ApiService, ProtocolEra};
use surgescope_city::CityModel;
use surgescope_core::{ClientSpec, MeasuredSystem, UberSystem};
use surgescope_geo::{Meters, SpatialGrid};
use surgescope_marketplace::{Marketplace, MarketplaceConfig};
use surgescope_simcore::{SimDuration, SimRng};

fn scatter(n: usize, seed: u64) -> Vec<(Meters, u32)> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            (Meters::new(rng.range_f64(0.0, 8_000.0), rng.range_f64(0.0, 6_000.0)), i as u32)
        })
        .collect()
}

fn brute_k_nearest(pts: &[(Meters, u32)], pos: Meters, k: usize) -> Vec<u32> {
    let mut v: Vec<(f64, u32)> = pts.iter().map(|(p, id)| (p.dist2(pos), *id)).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    v.truncate(k);
    v.into_iter().map(|(_, id)| id).collect()
}

fn brute_nearest_l1(pts: &[(Meters, u32)], pos: Meters) -> Option<u32> {
    let mut best: Option<(f64, u32)> = None;
    for (p, id) in pts {
        let d = (p.x - pos.x).abs() + (p.y - pos.y).abs();
        if best.is_none_or(|(b, _)| d < b) {
            best = Some((d, *id));
        }
    }
    best.map(|(_, id)| id)
}

fn bench_spatial_grid(c: &mut Criterion) {
    let mut g = c.benchmark_group("spatial_grid");

    for &n in &[512usize, 4_096] {
        let pts = scatter(n, 7);
        let grid = SpatialGrid::build_auto(pts.clone());
        let queries: Vec<Meters> = scatter(64, 8).into_iter().map(|(p, _)| p).collect();

        g.bench_function(&format!("k_nearest8_grid_n{n}"), |b| {
            b.iter(|| {
                for &q in &queries {
                    black_box(grid.k_nearest(q, 8));
                }
            })
        });
        g.bench_function(&format!("k_nearest8_brute_n{n}"), |b| {
            b.iter(|| {
                for &q in &queries {
                    black_box(brute_k_nearest(&pts, q, 8));
                }
            })
        });
        g.bench_function(&format!("nearest_l1_grid_n{n}"), |b| {
            b.iter(|| {
                for &q in &queries {
                    black_box(grid.nearest_l1(q, |_| true));
                }
            })
        });
        g.bench_function(&format!("nearest_l1_brute_n{n}"), |b| {
            b.iter(|| {
                for &q in &queries {
                    black_box(brute_nearest_l1(&pts, q));
                }
            })
        });
        g.bench_function(&format!("build_n{n}"), |b| {
            b.iter(|| black_box(SpatialGrid::build_auto(pts.clone())))
        });
    }

    g.finish();
}

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
    targets = bench_spatial_grid, bench_ping_fanout
}
criterion_main!(benches);
