//! Closed-loop load generator: N connections × M requests/second of
//! pingClient requests against a running server, with client-side
//! latency percentiles.
//!
//! The load goes where a measuring client's pings go: the generator
//! OPENs an ordinary campaign, moves it through one simulated hour with
//! one empty `PING` per tick on one connection so the fleet is settled,
//! and then holds it at that tick while every connection sends
//! `REQ_PING` against it, each a batch of one ping through
//! [`wire::ping`], so a request is one ping and its latency one round
//! trip. A frozen world keeps runs comparable; the server's janitor
//! reclaims the campaign once the run goes idle.

use crate::wire;
use serde::{Deserialize, Serialize, Value};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use surgescope_api::ProtocolEra;
use surgescope_city::CityModel;
use surgescope_geo::LatLng;
use surgescope_marketplace::SurgePolicy;

/// Fleet and demand scale of the load world, SF downtown.
const LOAD_SCALE: f64 = 0.5;
/// Marketplace seed of the load world.
const LOAD_SEED: u64 = 2026;
/// Ticks the load world advances before the pings start, and the tick
/// they read: one simulated hour of 5-second ticks.
const WARMUP_TICKS: u64 = 720;
/// Where every ping reports: SF downtown's centre.
const LOCATION: LatLng = LatLng { lat: 37.7749, lng: -122.4194 };

/// Shape of a load run.
#[derive(Clone)]
pub struct LoadConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent connections, one thread each.
    pub conns: usize,
    /// Target request rate **per connection** (closed loop: a connection
    /// never has more than one request in flight).
    pub req_per_sec: u64,
    /// Wall-clock duration of the run, set-up excluded.
    pub duration: Duration,
}

/// Outcome of a load run. Percentiles are exact (computed from the full
/// sorted sample set).
pub struct LoadReport {
    /// Requests answered successfully.
    pub requests: u64,
    /// Requests that failed (I/O, framing, or error responses).
    pub errors: u64,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Aggregate successful-request throughput.
    pub requests_per_sec: f64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 90th percentile latency, microseconds.
    pub p90_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst observed latency, microseconds.
    pub max_us: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the load shape against a live server and gathers the report.
///
/// Opens and warms the load campaign on a set-up connection, which then
/// closes and frees its server worker. Each load connection performs
/// its own HELLO handshake, then issues `REQ_PING` at the configured
/// pace until the duration elapses.
pub fn run_load(cfg: &LoadConfig) -> io::Result<LoadReport> {
    let campaign = {
        let mut stream = connect(&cfg.addr)?;
        let campaign = open_campaign(&mut stream, LOAD_SCALE, LOAD_SEED)?;
        for tick in 1..=WARMUP_TICKS {
            wire::ping(&mut stream, campaign, tick, [])?;
        }
        campaign
    };

    let errors = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut samples: Vec<u64> = Vec::new();

    std::thread::scope(|scope| -> io::Result<()> {
        let mut handles = Vec::new();
        for conn_id in 0..cfg.conns.max(1) {
            let errors = Arc::clone(&errors);
            handles.push(scope.spawn(move || -> Vec<u64> {
                match drive_conn(cfg, campaign, conn_id, &errors) {
                    Ok(lat) => lat,
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        Vec::new()
                    }
                }
            }));
        }
        for h in handles {
            if let Ok(lat) = h.join() {
                samples.extend(lat);
            }
        }
        Ok(())
    })?;

    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    samples.sort_unstable();
    Ok(LoadReport {
        requests: samples.len() as u64,
        errors: errors.load(Ordering::Relaxed),
        wall_secs,
        requests_per_sec: samples.len() as f64 / wall_secs,
        p50_us: percentile(&samples, 0.50),
        p90_us: percentile(&samples, 0.90),
        p99_us: percentile(&samples, 0.99),
        max_us: samples.last().copied().unwrap_or(0),
    })
}

/// One connection's closed loop; returns per-request latencies in µs.
fn drive_conn(
    cfg: &LoadConfig,
    campaign: u64,
    conn_id: usize,
    errors: &AtomicU64,
) -> io::Result<Vec<u64>> {
    let mut stream = connect(&cfg.addr)?;
    let period = if cfg.req_per_sec == 0 {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(1.0 / cfg.req_per_sec as f64)
    };
    let deadline = Instant::now() + cfg.duration;
    let mut latencies = Vec::new();
    let mut next_send = Instant::now();
    while Instant::now() < deadline {
        if period > Duration::ZERO {
            let now = Instant::now();
            if next_send > now {
                std::thread::sleep(next_send - now);
            }
            next_send += period;
        }
        let t0 = Instant::now();
        match wire::ping(&mut stream, campaign, WARMUP_TICKS, [(conn_id as u64, LOCATION)]) {
            Ok(_) => latencies.push(t0.elapsed().as_micros() as u64),
            Err(_) => {
                errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    Ok(latencies)
}

/// Connects with 10 s socket deadlines and completes the HELLO handshake.
pub(crate) fn connect(addr: &str) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    wire::hello(&mut stream)?;
    Ok(stream)
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// OPENs a campaign over SF downtown with fleet and demand scaled by
/// `scale` (era `Apr2015`, `Threshold` surge); returns its id.
pub(crate) fn open_campaign(stream: &mut TcpStream, scale: f64, seed: u64) -> io::Result<u64> {
    let mut city = CityModel::san_francisco_downtown();
    city.supply = city.supply.scaled(scale);
    city.demand = city.demand.scaled(scale);
    let open = Value::Map(vec![
        ("city".into(), city.to_value()),
        ("seed".into(), seed.to_value()),
        ("era".into(), ProtocolEra::Apr2015.to_value()),
        ("surge_policy".into(), SurgePolicy::Threshold.to_value()),
    ]);
    let v = wire::call(stream, wire::REQ_OPEN, &open, wire::RESP_OPEN)?;
    u64::from_value(v.field("campaign").map_err(invalid)?).map_err(invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeConfig, Server};

    #[test]
    fn load_run_pings_a_frozen_campaign() {
        let mut server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let cfg = LoadConfig {
            addr: server.local_addr().to_string(),
            conns: 1,
            req_per_sec: 0,
            duration: Duration::from_millis(200),
        };
        let report = run_load(&cfg).expect("load run");
        // Shutdown joins the workers, so every server counter has landed.
        server.shutdown();
        assert!(report.requests > 0, "no ping was answered");
        assert_eq!(report.errors, 0);
        assert_eq!(server.metrics().campaigns_opened.get(), 1);
        assert_eq!(server.metrics().frame_errors.get(), 0);
    }
}
