//! Regression lock backing the `ping_one_into` doc claim: the measurement
//! ping kernel copies observations of the cars it rendered once per tick
//! (skipping the wire response entirely), and that shortcut must stay
//! **byte-identical** to the honest pipeline — materialize a full
//! `ping_client` wire response, then convert its `TypeStatus` blocks into
//! `TypeObservation`s the way a real measurement client would. Any drift
//! here (a missed perturbation, a reordered tier, a different projection)
//! silently changes every downstream estimate. The remote client adds one
//! step, the wire's binary `PING` layout, which must lose nothing either.

use surgescope_api::{ApiService, PingClientResponse, ProtocolEra};
use surgescope_city::CityModel;
use surgescope_core::calibration::placement;
use surgescope_core::{
    response_to_observations, MeasuredSystem, TypeObservation, UberSystem,
};
use surgescope_geo::LocalProjection;
use surgescope_marketplace::{Marketplace, MarketplaceConfig};
use surgescope_serve::wire;
use surgescope_simcore::SimDuration;

/// Runs 24 ticks of a midday SF fleet, clean and with the driver-safety
/// perturbation on, and hands `check` each client's kernel observations
/// with its `ping_client` wire response. Noise reaches the kernel's
/// observations only through the cars it renders once per tick, and the
/// wire path perturbs per response.
fn each_ping(
    mut check: impl FnMut(String, &[TypeObservation], PingClientResponse, &LocalProjection),
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
                let resp = ping.ping_client(&snap, c.key, proj.to_latlng(c.position));
                let at = format!("noise {sigma_m} m, tick {tick}, client {}", c.key);
                check(at, blocks, resp, &proj);
            }
        }
    }
}

/// Byte-level comparison (via serialization) rather than `PartialEq`: a
/// NaN gap must also match bit-for-bit.
fn assert_same(direct: &[TypeObservation], converted: &[TypeObservation], at: &str) {
    assert_eq!(
        serde_json::to_string(direct).expect("serialize direct observations"),
        serde_json::to_string(converted).expect("serialize converted response"),
        "{at}: the kernel's observations diverged from the wire response's conversion"
    );
}

#[test]
fn ping_all_matches_wire_response_conversion() {
    each_ping(|at, blocks, resp, proj| {
        // The honest client-side pipeline — the conversion the remote
        // (socket) measurement client applies to each response.
        assert_same(blocks, &response_to_observations(&resp, proj), &at);
    });
}

/// What the remote client actually converts: the response encoded into a
/// `RESP_PING` payload by the server's encoder and decoded by the
/// client's decoder.
#[test]
fn ping_all_matches_wire_layout_round_trip() {
    each_ping(|at, blocks, resp, proj| {
        let mut payload = Vec::new();
        wire::encode_ping_reply(&mut payload, [&resp].into_iter(), wire::DEFAULT_MAX_FRAME)
            .expect("encode reply");
        let back = wire::decode_ping_reply(&payload, 1).expect("decode reply");
        assert_same(blocks, &response_to_observations(&back[0], proj), &at);
    });
}
