//! Counting-allocator proof that the tick hot path is allocation-free in
//! steady state.
//!
//! A counting `#[global_allocator]` wraps the system allocator; once the
//! arenas and scratch buffers have grown to the fleet's high-water mark,
//! the snapshot path (release + re-capture into the arena) and the full
//! per-tick ping path (`ping_all_into` with a reused observation buffer;
//! pings have one serial kernel, so this covers every campaign) must
//! perform **zero** heap allocations per tick. A regression here
//! silently reintroduces the per-tick `Vec` churn this pipeline was built
//! to remove, so clean windows are pinned to exactly 0, not to a budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use surgescope_api::{ApiService, ProtocolEra, WorldSnapshot};
use surgescope_city::CityModel;
use surgescope_core::calibration::placement;
use surgescope_core::{ClientSpec, MeasuredSystem, UberSystem};
use surgescope_marketplace::{Marketplace, MarketplaceConfig};
use surgescope_simcore::SimDuration;

struct Counting;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a
// relaxed atomic side effect with no bearing on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, n) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocs() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

fn sf_system_with_clients() -> (UberSystem, Vec<ClientSpec>) {
    let city = CityModel::san_francisco_downtown();
    let clients = placement(&city.measurement_region, city.client_spacing_m);
    let mut mp = Marketplace::new(city, MarketplaceConfig::default(), 2026);
    // Let the fleet ramp toward its operating size before measuring.
    mp.run_for(SimDuration::hours(2));
    let sys = UberSystem::new(mp, ApiService::new(ProtocolEra::Apr2015, 2026));
    (sys, clients)
}

/// Both phases run inside one `#[test]` body: the counter is process
/// global, so two tests on libtest's parallel threads would race their
/// allocations into each other's measured windows.
#[test]
fn tick_hot_path_allocates_zero() {
    snapshot_recapture_allocates_zero();
    steady_state_ping_path_allocates_zero();
}

/// Re-capturing a snapshot of an unchanged world into an already-sized
/// arena allocates nothing — the tier buckets, car vectors, grid slabs
/// and surge `Arc`s are all reused in place.
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
/// the arena plus every client ping answered into the reused observation
/// buffer — allocates nothing. (The world tick itself is excluded: driver
/// arrivals and trip assignment legitimately allocate.)
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
    // Warmup ticks: grow every buffer (arena, scratch, observation
    // vectors) toward its high-water mark for this fleet. The run is
    // fully deterministic (fixed seed), so the window scan below always
    // converges at the same tick.
    for _ in 0..600 {
        sys.advance_tick();
        sys.ping_all_into(&clients, &mut obs);
    }
    let mut clean_window = false;
    for window in 0..10 {
        let mut dirty_ticks = 0u64;
        let mut total = 0u64;
        for _ in 0..200 {
            sys.advance_tick();
            let before = allocs();
            sys.ping_all_into(&clients, &mut obs);
            let after = allocs();
            if after != before {
                dirty_ticks += 1;
                total += after - before;
            }
        }
        if dirty_ticks == 0 {
            clean_window = true;
            break;
        }
        assert!(
            dirty_ticks <= 3,
            "window {window}: {dirty_ticks}/200 ticks allocated ({total} allocations) — \
             that is per-tick churn, not amortized arena growth"
        );
    }
    assert!(
        clean_window,
        "no 200-tick window was allocation-free within 2000 steady-state ticks"
    );
}
