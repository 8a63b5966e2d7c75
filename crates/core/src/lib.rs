//! The measurement and audit toolkit — the paper's contribution.
//!
//! This crate implements the methodology of *Peeking Beneath the Hood of
//! Uber* (IMC 2015) against any [`MeasuredSystem`] (the simulated
//! marketplace, or the ground-truth taxi replay used for validation):
//!
//! * [`calibration`] — §3.4: the determinism experiment, the
//!   surge-induction check, the four-walker **visibility-radius**
//!   estimation, and lattice placement of the 43 clients;
//! * [`campaign`] — §3.3/§4.1: run a fleet of emulated clients pinging
//!   every 5 s and stream their observations into estimators;
//! * [`estimate`] — §3.3: supply from unique car IDs, fulfilled demand
//!   from car disappearances with the edge filter, short-lived-car
//!   cleaning, per-ID lifespans;
//! * [`surge_obs`] — §5.1–5.2: surge episode segmentation, update-moment
//!   timing, jitter detection and cross-client simultaneity;
//! * [`areas`] — §5.3: surge-area inference by lock-step clustering of
//!   API probes;
//! * [`forecast`] — §5.4 / Table 1: the Raw / Threshold / Rush linear
//!   forecasting models;
//! * [`transitions`] — §5.5 / Fig. 22: the driver state-machine analysis
//!   of surge's effect on supply and demand;
//! * [`avoidance`] — §6: the surge-avoidance strategy (reserve in a
//!   cheaper adjacent area and walk to it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod areas;
pub mod avoidance;
pub mod calibration;
pub mod campaign;
pub mod estimate;
pub mod forecast;
pub mod persist;
pub mod surge_obs;
pub mod transitions;

mod observe;
mod remote;
mod systems;

pub use campaign::{Campaign, CampaignConfig, CampaignData, CampaignRunner, StoreHooks};
pub use observe::{response_to_observations, ClientSpec, ObservedCar, TypeObservation};
pub use remote::{ChaosSpec, RemoteMeasuredSystem, RemoteOptions, RemoteWorldSpec, RetryPolicy};
pub use systems::{MeasuredSystem, SystemMetrics, TaxiSystem, UberSystem};
