//! The externally observable protocol surface of the marketplace.
//!
//! Everything the paper's measurement apparatus can see goes through this
//! crate, and nothing else does:
//!
//! * **pingClient** (§3.3): every 5 s an authenticated client reports its
//!   geolocation and receives, per product tier, the nearest **eight**
//!   cars (randomized session ID, position, recent path vector), the
//!   estimated wait time, and the surge multiplier;
//! * **estimates API** (§3.2): `estimates/price` and `estimates/time`
//!   endpoints, rate-limited to 1,000 requests/hour/account, returning
//!   JSON-shaped structures; the API stream never exhibits jitter;
//! * **update timing** (Fig. 15): multipliers recompute on the 5-minute
//!   clock but become visible after a small per-interval propagation
//!   delay — ~35 s spread for the API and the Feb-2015 client protocol,
//!   ~2 min spread for the Apr-2015 client protocol;
//! * **the consistency bug** (Figs. 14–17): under
//!   [`ProtocolEra::Apr2015`], random clients are independently served the
//!   *previous* interval's multiplier for 20–60 s windows ("jitter").
//!
//! The implementation is a pure function of the marketplace state plus a
//! deterministic per-(client, interval) derivation, so campaigns replay
//! bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod jitter;
mod messages;
mod ratelimit;
mod service;
mod world;

pub use jitter::{JitterConfig, JitterWindow};
pub use messages::{CarInfo, PingClientResponse, PriceEstimate, TimeEstimate, TypeStatus};
pub use ratelimit::{session_key, RateLimitError, RateLimiter, DEFAULT_LIMIT_PER_HOUR};
pub use service::{
    ApiService, PingConfig, PingOrigin, ProtocolEra, SnapCar, TickPing, TickSnapshot, TierPing,
    WorldSnapshot, NEAREST_CARS_SHOWN,
};
pub use world::{campaign_endpoint, campaign_market, campaign_world};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use surgescope_simcore::SimTime;

    proptest! {
        #[test]
        fn jitter_windows_always_fit_the_interval(
            seed in 0u64..100, client in 0u64..64, interval in 0u64..2_000,
            prob in 0.01f64..1.0, short in 0.0f64..1.0,
        ) {
            let cfg = JitterConfig { prob_per_interval: prob, short_fraction: short };
            if let Some(w) = cfg.window(seed, client, interval) {
                prop_assert!(w.duration >= 20 && w.duration < 60);
                prop_assert!(w.start_offset + w.duration <= 300);
            }
        }

        #[test]
        fn rate_limiter_never_exceeds_budget(limit in 1u32..50, calls in 1usize..200,
                                             t0 in 0u64..100_000) {
            let mut rl = RateLimiter::new(limit);
            let mut granted_this_hour = 0u32;
            let mut hour = t0 / 3600;
            for i in 0..calls {
                let now = SimTime(t0 + i as u64 * 30);
                if now.as_secs() / 3600 != hour {
                    hour = now.as_secs() / 3600;
                    granted_this_hour = 0;
                }
                if rl.check(1, now).is_ok() {
                    granted_this_hour += 1;
                }
                prop_assert!(granted_this_hour <= limit);
            }
        }
    }
}
