//! Deterministic simulation engine.
//!
//! The reproduction runs everything — the ride-sharing marketplace, the taxi
//! replay, and the measurement clients — inside a single-threaded,
//! deterministic simulation. This crate provides the shared plumbing:
//!
//! * [`SimTime`] / [`SimDuration`]: integer-second simulated time with
//!   calendar helpers (time of day, day of week, the paper's 5-minute
//!   surge intervals);
//! * [`EventQueue`]: a time-ordered queue with deterministic FIFO
//!   tie-breaking for same-timestamp events;
//! * [`SimRng`]: a seedable, *splittable* RNG so each component draws from
//!   its own independent stream (adding a component never perturbs the
//!   randomness seen by others);
//! * [`DiurnalCurve`]: piecewise-linear rate curves over the day, used for
//!   demand/supply profiles;
//! * [`FaultPlan`]: smoltcp-style fault injection (drop / delay) for the
//!   simulated client↔service transport;
//! * [`Transport`]: the in-flight message queue that realizes the
//!   `Delay(d)` outcome — responses answered at send time but surfaced to
//!   the client `⌈d/tick⌉` ticks later, carrying stale content.
//!
//! CPU-bound simulation deliberately uses plain synchronous code (the async
//! guides' own advice); determinism is enforced by an integration test at
//! the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backoff;
mod diurnal;
mod events;
mod fasthash;
mod faults;
mod rng;
mod time;
mod transport;

pub use backoff::Backoff;
pub use diurnal::DiurnalCurve;
pub use events::{EventQueue, ScheduledEvent};
pub use fasthash::{FastHashMap, FastHashSet, FxHasher};
pub use faults::{FaultOutcome, FaultPlan, InvalidFaultPlan};
pub use rng::SimRng;
pub use time::{DayOfWeek, SimDuration, SimTime};
pub use transport::{ticks_late, Envelope, Transport};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn diurnal_curve_stays_within_control_range(
            points in proptest::collection::vec((0.0f64..24.0, -100.0f64..100.0), 1..8),
            hour in -48.0f64..48.0,
        ) {
            let lo = points.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
            let hi = points.iter().map(|(_, v)| *v).fold(f64::NEG_INFINITY, f64::max);
            let c = DiurnalCurve::new(points);
            let v = c.at_hour(hour);
            // Linear interpolation can never escape the control-point hull.
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{v} outside [{lo}, {hi}]");
        }

        #[test]
        fn diurnal_curve_periodic(
            points in proptest::collection::vec((0.0f64..24.0, -10.0f64..10.0), 1..6),
            hour in 0.0f64..24.0,
        ) {
            let c = DiurnalCurve::new(points);
            prop_assert!((c.at_hour(hour) - c.at_hour(hour + 24.0)).abs() < 1e-9);
        }

        #[test]
        fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..10_000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime(*t), i);
            }
            let mut prev: Option<(SimTime, usize)> = None;
            while let Some(ev) = q.pop() {
                if let Some((pt, pseq)) = prev {
                    prop_assert!(ev.at >= pt, "time order violated");
                    if ev.at == pt {
                        prop_assert!(ev.event > pseq, "FIFO tie-break violated");
                    }
                }
                prev = Some((ev.at, ev.event));
            }
        }

        #[test]
        fn surge_interval_consistent(t in 0u64..10_000_000) {
            let st = SimTime(t);
            let start = st.surge_interval_start();
            prop_assert_eq!(start.surge_interval(), st.surge_interval());
            prop_assert_eq!(start.as_secs() + st.seconds_into_surge_interval(), t);
            prop_assert!(st.seconds_into_surge_interval() < 300);
        }

        #[test]
        fn rng_chance_never_panics(p in -2.0f64..3.0, seed in 0u64..1000) {
            let mut r = SimRng::seed_from_u64(seed);
            let _ = r.chance(p);
        }

        #[test]
        fn transport_delivers_everything_exactly_on_time(
            sends in proptest::collection::vec((0usize..8, 0u64..12), 0..40),
        ) {
            let mut t: Transport<u64> = Transport::new();
            let mut delivered = 0usize;
            for (client, delay) in &sends {
                // Payload records the requested delay so delivery can be
                // checked against the contract: sent_tick + max(1, delay).
                t.send_delayed(*client, *delay, *delay);
                t.advance_tick();
                let now = t.tick();
                for e in t.take_due() {
                    prop_assert_eq!(now, e.sent_tick + e.payload.max(1));
                    delivered += 1;
                }
            }
            for _ in 0..16 {
                t.advance_tick();
                let now = t.tick();
                for e in t.take_due() {
                    prop_assert_eq!(now, e.sent_tick + e.payload.max(1));
                    delivered += 1;
                }
            }
            prop_assert_eq!(delivered, sends.len(), "a queued message never vanishes");
            prop_assert_eq!(t.in_flight(), 0);
        }

        #[test]
        fn fault_plan_outcomes_valid(drop in 0.0f64..1.0, delay in 0.0f64..1.0,
                                     max_delay in 0u64..30, seed in 0u64..500) {
            let plan = FaultPlan { drop_chance: drop, delay_chance: delay, max_delay_secs: max_delay };
            let mut rng = SimRng::seed_from_u64(seed);
            for _ in 0..50 {
                match plan.decide(&mut rng) {
                    FaultOutcome::Delay(d) => {
                        prop_assert!(d.as_secs() >= 1 && d.as_secs() <= max_delay);
                    }
                    FaultOutcome::Deliver | FaultOutcome::Drop => {}
                }
            }
        }
    }
}
