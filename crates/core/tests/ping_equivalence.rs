//! Regression lock backing the `ping_one_into` doc claim: the measurement
//! ping kernel copies observations of the cars it rendered once per tick
//! (skipping the wire response entirely), and that shortcut must stay
//! **byte-identical** to the honest pipeline — materialize a full
//! `ping_client` wire response, then convert its `TypeStatus` blocks into
//! `TypeObservation`s the way a real measurement client would. Any drift
//! here (a missed perturbation, a reordered tier, a different projection)
//! silently changes every downstream estimate. The remote client adds one
//! step, the wire's binary `PING` layout, which must lose nothing either:
//! the server answers a batch straight from the snapshot into the
//! layout's car table, and the client's decoding of it must be exactly
//! what `ping_client` answers.

use serde::Serialize;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use surgescope_api::{ApiService, PingClientResponse, PingConfig, ProtocolEra, WorldSnapshot};
use surgescope_city::CityModel;
use surgescope_core::calibration::placement;
use surgescope_core::{response_to_observations, MeasuredSystem, TypeObservation, UberSystem};
use surgescope_geo::{LatLng, LocalProjection};
use surgescope_marketplace::{Marketplace, MarketplaceConfig};
use surgescope_serve::wire;
use surgescope_simcore::SimDuration;
use surgescope_store::encode_value;

/// Runs 24 ticks of a midday SF fleet, clean and with the driver-safety
/// perturbation on, and hands `check` each client's kernel observations
/// with what answering its ping needs: the ping core, the tick's
/// snapshot and the ping as `(client key, location)`. Noise reaches the
/// kernel's observations only through the cars it renders once per tick,
/// and the wire path perturbs per response.
fn each_ping(
    mut check: impl FnMut(
        String,
        &[TypeObservation],
        &PingConfig,
        &WorldSnapshot,
        (u64, LatLng),
        &LocalProjection,
    ),
) {
    for sigma_m in [0.0, 50.0] {
        let city = CityModel::san_francisco_downtown();
        let proj = city.projection;
        let clients = placement(&city.measurement_region, city.client_spacing_m);
        let mut mp = Marketplace::new(city, MarketplaceConfig::default(), 2026);
        // Midday-ish fleet so every tier shows cars and surge is in play.
        mp.run_for(SimDuration::hours(6));
        let api = ApiService::new(ProtocolEra::Apr2015, 2026).with_location_noise(sigma_m);
        let ping = api.ping_config();
        let mut sys = UberSystem::new(mp, api);

        for tick in 0..24 {
            sys.advance_tick();
            let snap = sys.tick_snapshot();
            let obs = sys.ping_all(&clients);
            for (c, blocks) in clients.iter().zip(&obs) {
                let at = format!("noise {sigma_m} m, tick {tick}, client {}", c.key);
                check(at, blocks, &ping, &snap, (c.key, proj.to_latlng(c.position)), &proj);
            }
        }
    }
}

/// The store codec's bytes of `blocks`, which keep every float's raw
/// bits (JSON would print NaN and both infinities alike, as `null`).
fn codec_bytes(blocks: &[TypeObservation]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_value(&blocks.to_value(), &mut out);
    out
}

/// Byte-level comparison (via the store codec) rather than `PartialEq`:
/// a NaN gap must also match bit-for-bit.
fn assert_same(direct: &[TypeObservation], converted: &[TypeObservation], at: &str) {
    assert!(
        codec_bytes(direct) == codec_bytes(converted),
        "{at}: the kernel's observations diverged from the wire response's conversion"
    );
}

#[test]
fn ping_all_matches_wire_response_conversion() {
    each_ping(|at, blocks, ping, snap, (key, loc), proj| {
        // The honest client-side pipeline — the conversion the remote
        // (socket) measurement client applies to each response.
        let resp = ping.ping_client(snap, key, loc);
        assert_same(blocks, &response_to_observations(&resp, proj), &at);
    });
}

/// What the remote client actually converts: the ping answered into a
/// `RESP_PING` payload by the server's encoder and decoded by the
/// client's decoder.
#[test]
fn ping_all_matches_wire_layout_round_trip() {
    each_ping(|at, blocks, ping, snap, query, proj| {
        let mut payload = Vec::new();
        wire::encode_ping_reply(&mut payload, ping, snap, &[query], wire::DEFAULT_MAX_FRAME)
            .expect("encode reply");
        let back = wire::decode_ping_reply(&payload, 1).expect("decode reply");
        assert_same(blocks, &response_to_observations(&back[0], proj), &at);
    });
}

/// Every field of a response as raw bits, floats included, so NaN and
/// -0 compare exactly.
fn bits(resp: &PingClientResponse) -> Vec<u64> {
    let mut out = vec![resp.at.as_secs(), resp.location.lat.to_bits(), resp.location.lng.to_bits()];
    for s in &resp.statuses {
        out.extend([
            s.car_type as u64,
            s.ewt_min.to_bits(),
            s.surge.to_bits(),
            s.cars.len() as u64,
        ]);
        for car in &s.cars {
            out.extend([car.id, car.position.lat.to_bits(), car.position.lng.to_bits()]);
            out.push(car.path.len() as u64);
            out.extend(car.path.points().flat_map(|p| [p.lat.to_bits(), p.lng.to_bits()]));
        }
    }
    out
}

/// Encodes `batch` from `snap` as the server does and decodes it as the
/// client does: every response must be exactly what `ping_client`
/// answers, every sighting of a car must share the one path handle the
/// decoder built for it, and the table must hold each distinct shown car
/// once. Returns how many sightings repeated a car already in the table.
fn check_batch(ping: &PingConfig, snap: &WorldSnapshot, batch: &[(u64, LatLng)], at: &str) -> u64 {
    let mut payload = Vec::new();
    let tally = wire::encode_ping_reply(&mut payload, ping, snap, batch, wire::DEFAULT_MAX_FRAME)
        .expect("encode reply");
    let back = wire::decode_ping_reply(&payload, batch.len()).expect("decode reply");
    for (got, &(key, loc)) in back.iter().zip(batch) {
        let want = ping.ping_client(snap, key, loc);
        assert_eq!(bits(got), bits(&want), "{at}: the reply differs from ping_client");
    }
    let mut path_of = HashMap::new();
    let mut sightings = 0;
    for car in back.iter().flat_map(|r| &r.statuses).flat_map(|s| &s.cars) {
        let path = path_of.entry(car.id).or_insert(&car.path);
        assert!(Arc::ptr_eq(path, &car.path), "{at}: car {} decoded twice", car.id);
        sightings += 1;
    }
    let distinct: HashSet<_> = path_of.values().map(|p| Arc::as_ptr(p)).collect();
    assert_eq!(distinct.len(), path_of.len(), "{at}: two cars share a path");
    assert_eq!(tally.cars, path_of.len() as u64, "{at}: table size");
    assert_eq!(tally.sightings, sightings, "{at}: sightings");
    sightings - tally.cars
}

/// The server's encoder over 120 ticks of the remote world shape
/// (quarter-scale SF downtown measured from a 500 m lattice, as in
/// perfbench `remote` and the lockstep suite), in both eras, with and
/// without location noise, in batches of 1, 12 and every client.
#[test]
fn server_encoder_answers_as_ping_client_with_each_car_once() {
    for era in [ProtocolEra::Feb2015, ProtocolEra::Apr2015] {
        for sigma_m in [0.0, 50.0] {
            let mut city = CityModel::san_francisco_downtown();
            city.supply = city.supply.scaled(0.25);
            city.demand = city.demand.scaled(0.25);
            let proj = city.projection;
            let pings: Vec<(u64, LatLng)> = placement(&city.measurement_region, 500.0)
                .iter()
                .map(|c| (c.key, proj.to_latlng(c.position)))
                .collect();
            let seed = 7_0931;
            let mut mp = Marketplace::new(city, MarketplaceConfig::default(), seed);
            let ping = ApiService::new(era, seed ^ 0xB0B5).with_location_noise(sigma_m);
            let ping = ping.ping_config();
            let mut repeats = 0;
            for tick in 0..120 {
                mp.tick();
                let snap = WorldSnapshot::of(&mp);
                for size in [1, 12, pings.len()] {
                    for batch in pings.chunks(size) {
                        let at =
                            format!("{era:?}, noise {sigma_m} m, tick {tick}, batch of {size}");
                        repeats += check_batch(&ping, &snap, batch, &at);
                    }
                }
            }
            assert!(repeats > 0, "{era:?}, noise {sigma_m} m: no batch showed a car twice");
        }
    }
}
