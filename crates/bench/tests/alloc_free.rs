//! Counting-allocator proof that the tick hot path is allocation-free in
//! steady state.
//!
//! The shared counting allocator (`common`) wraps the system allocator;
//! once the arenas and reused tables have grown to the fleet's
//! high-water mark, the snapshot path (release + re-capture into the
//! arena), the full per-tick ping path (`ping_all_into` with a reused
//! observation buffer, including the per-tick table of rendered cars;
//! Uber pings have one serial kernel, so this covers every campaign) and
//! the taxi validation's ping path must perform **zero** heap
//! allocations per tick, and so must the ping path under drops and
//! delays. A regression here silently reintroduces the per-tick `Vec`
//! churn this pipeline was built to remove, so clean windows are pinned
//! to exactly 0, not to a budget.

mod common;

use common::allocs;
use surgescope_api::{ApiService, ProtocolEra, WorldSnapshot};
use surgescope_city::CityModel;
use surgescope_core::calibration::placement;
use surgescope_core::{ClientSpec, MeasuredSystem, TaxiSystem, TypeObservation, UberSystem};
use surgescope_marketplace::{Marketplace, MarketplaceConfig};
use surgescope_simcore::{FaultPlan, SimDuration, SimTime};
use surgescope_taxi::TraceGenerator;

#[global_allocator]
static ALLOC: common::Counting = common::Counting;

fn sf_system_with_clients() -> (UberSystem, Vec<ClientSpec>) {
    let city = CityModel::san_francisco_downtown();
    let clients = placement(&city.measurement_region, city.client_spacing_m);
    let mut mp = Marketplace::new(city, MarketplaceConfig::default(), 2026);
    // Let the fleet ramp toward its operating size before measuring.
    mp.run_for(SimDuration::hours(2));
    let sys = UberSystem::new(mp, ApiService::new(ProtocolEra::Apr2015, 2026));
    (sys, clients)
}

/// Every phase runs inside one `#[test]` body: the counter is process
/// global, so two tests on libtest's parallel threads would race their
/// allocations into each other's measured windows.
#[test]
fn tick_hot_path_allocates_zero() {
    snapshot_recapture_allocates_zero();
    steady_state_ping_path_allocates_zero();
    steady_state_faulted_ping_path_allocates_zero();
    steady_state_taxi_ping_allocates_zero();
}

/// Scans consecutive 200-tick windows of `sys`'s ping path until one
/// performs zero allocations, failing if any window before it dirties
/// more than `max_dirty` ticks (per-tick churn dirties all 200 and can
/// never produce a clean window) or if none is clean within 2,000 ticks.
fn scan_for_clean_window(
    sys: &mut UberSystem,
    clients: &[ClientSpec],
    obs: &mut Vec<Vec<TypeObservation>>,
    max_dirty: u64,
) {
    for window in 0..10 {
        let mut dirty_ticks = 0u64;
        let mut total = 0u64;
        for _ in 0..200 {
            sys.advance_tick();
            let before = allocs();
            sys.ping_all_into(clients, obs);
            let after = allocs();
            if after != before {
                dirty_ticks += 1;
                total += after - before;
            }
        }
        if dirty_ticks == 0 {
            return;
        }
        assert!(
            dirty_ticks <= max_dirty,
            "window {window}: {dirty_ticks}/200 ticks allocated ({total} allocations) — \
             that is per-tick churn, not amortized growth"
        );
    }
    panic!("no 200-tick window was allocation-free within 2000 steady-state ticks");
}

/// Re-capturing a snapshot of an unchanged world into an already-sized
/// arena allocates nothing — the tier buckets, car vectors and surge
/// `Arc`s are all reused in place.
fn snapshot_recapture_allocates_zero() {
    let (sys, _clients) = sf_system_with_clients();
    let mut snap = WorldSnapshot::of(&sys.marketplace);
    // One warm re-capture: the first pass after construction reserves
    // every bucket to the fleet-total high-water hint (a one-time cost);
    // from then on the shell is at capacity.
    snap.release_cars();
    snap.capture(&sys.marketplace);
    for round in 0..50 {
        let before = allocs();
        snap.release_cars();
        snap.capture(&sys.marketplace);
        let after = allocs();
        assert_eq!(
            after - before,
            0,
            "snapshot re-capture round {round} allocated {} times",
            after - before
        );
    }
}

/// After warmup, a full tick's measurement side — snapshot capture into
/// the arena, every car rendered into the reused per-tier table, and
/// every client ping answered into the reused observation buffer —
/// allocates nothing. (The world tick itself is excluded: driver
/// arrivals and trip assignment legitimately allocate.) The table
/// reserves to the snapshot's capacity hint, so it grows in the same
/// ticks the tier buckets do.
///
/// The fleet ramps with the demand curve and keeps setting size records
/// at a slowly decaying rate, and each record is one legitimate arena
/// growth event — so no *fixed* window is guaranteed clean. Instead we
/// scan consecutive 200-tick windows until one performs zero allocations
/// (the steady-state claim), while bounding every window's dirty ticks to
/// a handful (a per-tick-churn regression dirties all 200 and can never
/// produce a clean window).
fn steady_state_ping_path_allocates_zero() {
    let (mut sys, clients) = sf_system_with_clients();
    let mut obs = Vec::new();
    // Warmup ticks: grow every buffer (arena, rendered-car table,
    // observation vectors) toward its high-water mark for this fleet.
    // The run is fully deterministic (fixed seed), so the window scan
    // below always converges at the same tick.
    for _ in 0..600 {
        sys.advance_tick();
        sys.ping_all_into(&clients, &mut obs);
    }
    scan_for_clean_window(&mut sys, &clients, &mut obs, 3);
}

/// Under drops and delays (SF downtown, 45 clients, 5% dropped, 15%
/// delayed by up to 20 s) the ping path must reach an allocation-free
/// window too: a delayed slot's blocks leave in the slot's own vector and
/// the slot takes an emptied one from the delivery's payload pool, the
/// late queue reuses its per-tick buckets and drains through a vector it
/// keeps, and each delivered payload returns to the pool. Late blocks
/// keep setting small high-water marks (the most blocks, payloads or
/// messages live at once) for longer than the clean path's arena, so the
/// windows before the clean one may dirty a few more ticks.
fn steady_state_faulted_ping_path_allocates_zero() {
    let (sys, clients) = sf_system_with_clients();
    assert_eq!(clients.len(), 45, "the SF downtown lattice changed");
    let plan = FaultPlan { drop_chance: 0.05, delay_chance: 0.15, max_delay_secs: 20 };
    let mut sys = sys.with_faults(plan, 2026);
    let mut obs = Vec::new();
    for _ in 0..1200 {
        sys.advance_tick();
        sys.ping_all_into(&clients, &mut obs);
    }
    scan_for_clean_window(&mut sys, &clients, &mut obs, 8);
    let m = sys.metrics();
    assert!(
        m.pings_delayed.get() > 0 && m.pings_dropped.get() > 0,
        "no ping was delayed or dropped; the faulted phase is vacuous"
    );
}

/// The taxi validation's ping path, at the fig04 shape (150 taxis, one
/// client every 150 m): once one tick has sized the observation buffer,
/// every `TaxiSystem::ping_all_into` into it allocates nothing (the
/// top-8 selection lives on the stack).
/// Car vectors start at full capacity, so no window scan is needed.
/// `advance_tick` stays outside the window: a taxi starting an
/// availability period gets a fresh path.
fn steady_state_taxi_ping_allocates_zero() {
    let city = CityModel::manhattan_midtown();
    let trace = TraceGenerator { taxis: 150, days: 1, ..Default::default() }.generate(&city, 2026);
    let region = city.measurement_region.clone();
    let clients = placement(&region, 150.0);
    let mut sys = TaxiSystem::new(&trace, region, 2026);
    // Evening: the fleet is out, so every client sees taxis.
    while sys.now() < SimTime(18 * 3600) {
        sys.advance_tick();
    }
    let mut obs = Vec::new();
    sys.ping_all_into(&clients, &mut obs);
    for tick in 0..200 {
        sys.advance_tick();
        let before = allocs();
        sys.ping_all_into(&clients, &mut obs);
        let after = allocs();
        assert_eq!(after - before, 0, "taxi ping tick {tick} allocated {} times", after - before);
    }
    assert!(
        obs.iter().any(|blocks| blocks[0].cars.len() == 8),
        "no client saw a full block of taxis; the window is vacuous"
    );
}
