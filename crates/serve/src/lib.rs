//! `surgescope-serve`: the network serving layer.
//!
//! The paper's measurement apparatus is 43 emulated phones talking to a
//! production API over a real network; this crate gives the reproduction
//! that missing half. A dependency-free std-`TcpListener` thread-pool
//! server exposes the simulated marketplace over a length-prefixed,
//! CRC-framed wire protocol ([`wire`]) — `pingClient` batches in a fixed
//! binary layout, one frame per connection per tick, whose reply lists
//! each car it shows once, in a table its responses index; price/time
//! estimates; a session handshake that keys the per-account rate limiter
//! by session token; and campaign worlds that tick only when their
//! client's first `PING` names the next tick, so a remote campaign is
//! byte-identical to the in-process one. Every world the server hosts is
//! such a campaign: the [`loadgen`] module benchmarks heavy traffic by
//! opening one and holding it at a frozen tick.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod loadgen;
pub mod server;
pub mod wire;

pub use chaos::{ChaosCounters, ChaosPlan, ChaosStream};
pub use loadgen::{run_load, LoadConfig, LoadReport};
pub use server::{ServeConfig, ServeMetrics, Server};
