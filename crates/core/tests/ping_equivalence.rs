//! Regression lock backing the `ping_one_into` doc claim: the measurement
//! ping kernel copies observations of the cars it rendered once per tick
//! (skipping the wire response entirely), and that shortcut must stay
//! **byte-identical** to the honest pipeline — materialize a full
//! `ping_client` wire response, then convert its `TypeStatus` blocks into
//! `TypeObservation`s the way a real measurement client would. Any drift
//! here (a missed perturbation, a reordered tier, a different projection)
//! silently changes every downstream estimate.

use surgescope_api::{ApiService, ProtocolEra};
use surgescope_city::CityModel;
use surgescope_core::calibration::placement;
use surgescope_core::{
    response_to_observations, MeasuredSystem, TypeObservation, UberSystem,
};
use surgescope_marketplace::{Marketplace, MarketplaceConfig};
use surgescope_simcore::SimDuration;

#[test]
fn ping_all_matches_wire_response_conversion() {
    // Clean, and with the driver-safety perturbation on: noise reaches the
    // kernel's observations only through the cars it renders once per
    // tick, and the wire path perturbs per response.
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
                // The honest client-side pipeline — the exact conversion the
                // remote (socket) measurement client applies to each
                // `pingClient` response.
                let converted: Vec<TypeObservation> = response_to_observations(&resp, &proj);
                // Byte-level comparison (via serialization) rather than
                // `PartialEq`: a NaN gap must also match bit-for-bit.
                assert_eq!(
                    serde_json::to_string(blocks).expect("serialize direct observations"),
                    serde_json::to_string(&converted).expect("serialize converted response"),
                    "noise {sigma_m} m, tick {tick}: client {} diverged from its \
                     wire-response conversion",
                    c.key
                );
            }
        }
    }
}
