//! The one recipe for a campaign's world.
//!
//! A campaign's marketplace and endpoint are built in three places: the
//! in-process runner, its resume from a checkpoint, and the serve
//! endpoint's `OPEN`. A remote campaign is byte-identical to the
//! in-process one only while all three agree, so all three build here.

use crate::{ApiService, ProtocolEra};
use surgescope_city::CityModel;
use surgescope_marketplace::{Marketplace, MarketplaceConfig, SurgePolicy};

/// The marketplace settings of a campaign priced by `surge_policy`.
pub fn campaign_market(surge_policy: SurgePolicy) -> MarketplaceConfig {
    MarketplaceConfig {
        surge_policy,
        ..Default::default()
    }
}

/// The endpoint of a campaign with root `seed`: `era`'s protocol, its
/// consistency bug seeded from `seed`.
pub fn campaign_endpoint(era: ProtocolEra, seed: u64) -> ApiService {
    ApiService::new(era, seed ^ 0xB0B5)
}

/// Opens a fresh campaign's world over `city` (already scaled): the
/// marketplace seeded with `seed`, and the endpoint.
pub fn campaign_world(
    city: CityModel,
    seed: u64,
    era: ProtocolEra,
    surge_policy: SurgePolicy,
) -> (Marketplace, ApiService) {
    let mp = Marketplace::new(city, campaign_market(surge_policy), seed);
    (mp, campaign_endpoint(era, seed))
}
