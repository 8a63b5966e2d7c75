//! One module per group of related experiments.

pub mod ablations;
pub mod algorithm;
pub mod areas_exp;
pub mod avoidance_exp;
pub mod calib;
pub mod dynamics;
pub mod extensions;
pub mod fault_sweep;
pub mod surge;
pub mod validation;
