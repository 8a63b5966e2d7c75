//! Whole-pipeline determinism: a campaign is a pure function of its seed.
//!
//! The paper's calibration (§3.4) established that pingClient responses
//! are deterministic; our reproduction makes the *entire* run replayable,
//! which every other test and experiment relies on.

use surgescope::api::ProtocolEra;
use surgescope::city::{CarType, CityModel};
use surgescope::core::persist::campaign_encoded;
use surgescope::core::{Campaign, CampaignConfig, CampaignData};
use surgescope::simcore::FaultPlan;

fn fingerprint(seed: u64) -> (Vec<u32>, Vec<f32>, u64, usize) {
    let cfg = CampaignConfig {
        hours: 2,
        era: ProtocolEra::Apr2015,
        ..CampaignConfig::test_default(seed)
    };
    let data = Campaign::run_uber(CityModel::manhattan_midtown(), &cfg);
    (
        data.estimator.supply_series(CarType::UberX).to_vec(),
        data.client_surge[0].clone(),
        data.truth.sessions_started,
        data.truth.trips.len(),
    )
}

#[test]
fn same_seed_same_campaign() {
    let a = fingerprint(4242);
    let b = fingerprint(4242);
    assert_eq!(a.0, b.0, "supply series must replay bit-for-bit");
    assert_eq!(a.1, b.1, "client surge stream must replay bit-for-bit");
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
}

/// FNV-1a of the canonical encoding: equal digests mean bit-identical
/// campaigns, NaN payloads included.
fn digest(data: &CampaignData) -> u64 {
    surgescope_store::fnv1a64(&campaign_encoded(data))
}

/// Pings used to be fanned out over a thread pool. These digests are what
/// that pool produced at 4 threads (identical to its 1-thread output), so
/// the serial kernel that replaced it must reproduce the pool's campaign
/// byte for byte.
#[test]
fn clean_campaign_matches_pinned_pool_output() {
    let cfg = CampaignConfig {
        hours: 1,
        era: ProtocolEra::Apr2015,
        ..CampaignConfig::test_default(777)
    };
    let data = Campaign::run_uber(CityModel::manhattan_midtown(), &cfg);
    assert_eq!(
        digest(&data),
        0x4785_ebd8_f807_ebe7,
        "clean campaign diverged from the pinned pool output"
    );
}

/// The same pin with transport faults on: drops punch NaN gaps and delays
/// reroute payloads through the in-flight queue, and both must land on
/// the bytes the pool produced.
#[test]
fn faulted_campaign_matches_pinned_pool_output() {
    let cfg = CampaignConfig {
        hours: 1,
        era: ProtocolEra::Apr2015,
        faults: FaultPlan { drop_chance: 0.15, delay_chance: 0.15, max_delay_secs: 30 },
        ..CampaignConfig::test_default(888)
    };
    let data = Campaign::run_uber(CityModel::manhattan_midtown(), &cfg);
    assert_eq!(
        digest(&data),
        0xb83c_409f_aee0_f3a4,
        "faulted campaign diverged from the pinned pool output"
    );
    // The plan must have actually perturbed something.
    let gaps: usize = data
        .client_surge
        .iter()
        .flatten()
        .filter(|v| v.is_nan())
        .count();
    assert!(gaps > 0, "fault plan never dropped a ping; test is vacuous");
}

#[test]
fn different_seeds_differ() {
    let a = fingerprint(1);
    let b = fingerprint(2);
    // Poisson arrivals virtually guarantee differing trip counts.
    assert!(
        a.0 != b.0 || a.3 != b.3,
        "distinct seeds should produce distinct worlds"
    );
}
