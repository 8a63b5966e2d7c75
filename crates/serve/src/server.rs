//! The TCP server: thread-pool accept loops, session handshake and
//! campaign hosting.
//!
//! ## Threading model
//!
//! `workers` threads each block in `accept` on a shared listener; an
//! accepted connection is served by that worker until it closes, so each
//! open connection holds one worker and the pool size bounds concurrent
//! connections. Shutdown wakes each worker blocked in `accept` with one
//! loopback connection, which the worker drops unserved.
//!
//! ## Tick order
//!
//! Every `PING` names the campaign tick it reads. A `PING` naming
//! `tick + 1` ticks the world before it is answered (recycling the
//! snapshot through the same `TickSnapshot` arena the in-process
//! `UberSystem` uses), one naming `tick` reads the world unmoved, and any
//! other is a lockstep violation. Between two ticks the world is frozen,
//! so any interleaving of ping and estimates requests across connections
//! reads the same snapshot. The client orders the ticks: it reads every
//! reply of tick t, probes included, before it sends any `PING` of t+1,
//! which is what makes a remote campaign byte-identical to the
//! in-process one at any connection count. Whichever of a tick's `PING`s
//! arrives first moves the world, and a client whose connection died
//! mid-exchange re-sends its `PING` harmlessly.
//!
//! ## Pings
//!
//! A `PING` frame carries a batch of pings, one connection's whole chunk
//! of a tick. The server looks its campaign up and checks every
//! coordinate, then applies the tick rule and takes the snapshot and ping
//! configuration under the campaign lock, once per batch, then
//! encodes the reply outside the lock straight from the snapshot
//! ([`wire::encode_ping_reply`]): each car the batch is shown goes into
//! the reply's table once, and each response lists its cars as indices
//! into it. Invalid coordinates anywhere in the batch are answered
//! `RESP_ERR`; so is a batch whose reply would pass `max_frame`, which
//! the encoder knows before it writes a byte, since one ping's reply can
//! run to about 11.7 KB (9 tiers × 8 cars × 8 path points) against its
//! 24 request bytes, nearly 500 times as much. For every answered
//! batch, `serve.pings` counts its pings, `serve.ping_cars` its table's
//! cars and `serve.ping_sightings` the indices its responses list. Four
//! wall-clock timers split a batch's time by stage: `serve.lock_wait`
//! (waiting for the campaign lock), `serve.world_tick` (the tick rule
//! and the snapshot under the lock, the world's tick for a tick's first
//! `PING`), `serve.encode` (the reply and its frame's CRC) and
//! `serve.write` (the reply on the socket).
//!
//! ## Framing
//!
//! The server parses frames with the client's reader,
//! [`wire::read_frame_with`], reading in `POLL` slices. Only its stall
//! policy is its own: an idle connection waits indefinitely, and once
//! `io_timeout` has passed since a frame's first byte, the next read
//! inside that frame, data or timeout, drops the connection as a
//! slow-loris. Every framing violation, an undecodable payload
//! included, costs the connection and one `serve.frame_errors`; so does
//! a `Value` request whose payload passes 64 KiB, refused before it is
//! decoded.
//!
//! ## Shutdown
//!
//! `Server::shutdown` flips a flag; each worker finishes the request it is
//! executing, then *drains*: it keeps serving frames that arrive within
//! the configured drain window and closes only from an idle frame
//! boundary. A request fully written before shutdown is always answered.
//! The janitor parks between sweeps and `shutdown` unparks it, so an idle
//! server stops without waiting out a sweep interval.

use crate::wire::{self, Frame, PingBatch, WireError};
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use surgescope_api::{campaign_world, ApiService, ProtocolEra, TickSnapshot, WorldSnapshot};
use surgescope_city::CityModel;
use surgescope_geo::LatLng;
use surgescope_marketplace::{Marketplace, SurgePolicy};
use surgescope_obs::{Counter, Gauge, MetricsRegistry, Snapshot, Timer};

/// How often blocked reads re-check the shutdown flag, and how long a
/// failed `accept` backs off.
const POLL: Duration = Duration::from_millis(50);

/// Server tuning knobs. `Default` suits tests and loopback benches.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads (= max concurrent connections).
    pub workers: usize,
    /// Largest acceptable frame body, bytes.
    pub max_frame: usize,
    /// Mid-frame stall budget: a connection that starts a frame and then
    /// stalls longer than this is dropped as a slow-loris (write timeouts
    /// use the same value).
    pub io_timeout: Duration,
    /// Post-shutdown drain window: requests arriving within it are still
    /// answered before the connection closes.
    pub drain: Duration,
    /// Orphan expiry: a campaign that sees no request for this long is
    /// dropped from the table by the janitor, and later requests naming
    /// it are refused as unknown. Generous by default: an active
    /// campaign touches its slot many times per tick.
    pub campaign_idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 8,
            max_frame: wire::DEFAULT_MAX_FRAME,
            io_timeout: Duration::from_secs(10),
            drain: Duration::from_millis(300),
            campaign_idle_timeout: Duration::from_secs(600),
        }
    }
}

/// Always-on server telemetry. Everything here lands in the snapshot's
/// deterministic section except the wall-clock timers (the per-`PING`
/// stage timers below and the per-worker busy timers), so two remote runs
/// of the same campaign render byte-identical counter sections regardless
/// of scheduling.
pub struct ServeMetrics {
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: Counter,
    /// High-water mark of simultaneously open connections.
    pub connections_peak: Gauge,
    /// Complete frames read / written.
    pub frames_in: Counter,
    /// Frames written.
    pub frames_out: Counter,
    /// Bytes read off / written onto sockets (framing included).
    pub bytes_in: Counter,
    /// Bytes written.
    pub bytes_out: Counter,
    /// Connections dropped for framing violations: truncated prefix,
    /// CRC mismatch, oversized length, slow-loris stalls, I/O failures.
    pub frame_errors: Counter,
    /// Estimates requests refused over quota and reported on the wire.
    pub throttled_wire: Counter,
    /// Campaigns opened.
    pub campaigns_opened: Counter,
    /// Pings answered: each answered `PING` batch adds its size.
    pub pings: Counter,
    /// Car records written into answered `PING` replies' tables.
    pub ping_cars: Counter,
    /// Table indices written into answered `PING` replies, one per car
    /// shown to a ping.
    pub ping_sightings: Counter,
    /// Request handlers that panicked. The worker survives (the panic is
    /// caught at the dispatch boundary), the confused connection gets a
    /// `RESP_ERR` and closes, and any lock the handler held is recovered
    /// from poisoning by its next user.
    pub worker_panics: Counter,
    /// Orphaned campaign slots reclaimed by the janitor.
    pub campaigns_expired: Counter,
    /// Per `PING` batch that reaches its campaign, wall clock: waiting
    /// for the campaign lock.
    pub lock_wait: Timer,
    /// Per `PING` batch that reaches its campaign: the tick rule and the
    /// snapshot under the lock, which is the world's tick for the first
    /// `PING` of a tick.
    pub world_tick: Timer,
    /// Per `PING` batch the tick rule admits: encoding the reply and its
    /// frame's CRC.
    pub encode: Timer,
    /// Per `PING` reply: writing its frame to the socket.
    pub write: Timer,
}

impl ServeMetrics {
    fn new() -> Self {
        ServeMetrics {
            connections_accepted: Counter::new(),
            connections_peak: Gauge::new(),
            frames_in: Counter::new(),
            frames_out: Counter::new(),
            bytes_in: Counter::new(),
            bytes_out: Counter::new(),
            frame_errors: Counter::new(),
            throttled_wire: Counter::new(),
            campaigns_opened: Counter::new(),
            pings: Counter::new(),
            ping_cars: Counter::new(),
            ping_sightings: Counter::new(),
            worker_panics: Counter::new(),
            campaigns_expired: Counter::new(),
            lock_wait: Timer::new(),
            world_tick: Timer::new(),
            encode: Timer::new(),
            write: Timer::new(),
        }
    }

    /// Registers every instrument under stable `serve.*` names.
    pub fn register(&self, reg: &MetricsRegistry) {
        reg.adopt_counter("serve.connections_accepted", &self.connections_accepted);
        reg.adopt_gauge("serve.connections_peak", &self.connections_peak);
        reg.adopt_counter("serve.frames_in", &self.frames_in);
        reg.adopt_counter("serve.frames_out", &self.frames_out);
        reg.adopt_counter("serve.bytes_in", &self.bytes_in);
        reg.adopt_counter("serve.bytes_out", &self.bytes_out);
        reg.adopt_counter("serve.frame_errors", &self.frame_errors);
        reg.adopt_counter("serve.throttled_wire", &self.throttled_wire);
        reg.adopt_counter("serve.campaigns_opened", &self.campaigns_opened);
        reg.adopt_counter("serve.pings", &self.pings);
        reg.adopt_counter("serve.ping_cars", &self.ping_cars);
        reg.adopt_counter("serve.ping_sightings", &self.ping_sightings);
        reg.adopt_counter("serve.worker_panics", &self.worker_panics);
        reg.adopt_counter("serve.campaigns_expired", &self.campaigns_expired);
        reg.adopt_timer("serve.lock_wait", &self.lock_wait);
        reg.adopt_timer("serve.world_tick", &self.world_tick);
        reg.adopt_timer("serve.encode", &self.encode);
        reg.adopt_timer("serve.write", &self.write);
    }
}

/// A campaign's marketplace + protocol endpoint, with its per-tick
/// snapshot.
struct HostWorld {
    mp: Marketplace,
    api: ApiService,
    snapshot: TickSnapshot,
}

impl HostWorld {
    fn snapshot(&mut self) -> Arc<WorldSnapshot> {
        self.snapshot.get(&self.mp)
    }

    fn advance(&mut self) {
        self.snapshot.release();
        self.mp.tick();
    }
}

/// Locks a mutex, recovering from poisoning. A panicking handler must
/// not wedge every sibling session sharing the lock: our critical
/// sections either mutate nothing (the test crash verb) or complete
/// their state transition before anything can panic, so the inner value
/// is still coherent and the conservative default (propagate the panic
/// to every later user) is exactly wrong for a server.
fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One hosted campaign.
struct CampaignHost {
    state: Mutex<CampaignState>,
    /// Milliseconds since the server's epoch of the last request that
    /// touched this campaign; the janitor expires slots that go quiet.
    last_activity: AtomicU64,
}

struct CampaignState {
    /// `None` once finished (the marketplace was consumed for truth).
    world: Option<HostWorld>,
    /// Ground truth computed by the first FINISH, kept so a client whose
    /// connection died mid-FINISH can reconnect and re-ask (idempotent).
    truth: Option<Value>,
    /// Ticks advanced so far.
    tick: u64,
}

impl CampaignState {
    /// The world at tick `want`, which must be `tick + 1` (the world
    /// advances first) or `tick` (it stays put, so a client whose
    /// connection died after its `PING` was served, but before the reply
    /// arrived, reconnects and re-sends the same request harmlessly).
    /// Any other tick is refused and leaves the world where it is.
    fn at_tick(&mut self, want: u64) -> Result<&mut HostWorld, String> {
        let world = self.world.as_mut().ok_or("campaign already finished")?;
        if want == self.tick + 1 {
            world.advance();
            self.tick = want;
        } else if want != self.tick {
            return Err(format!("lockstep violation: PING for tick {want} while at {}", self.tick));
        }
        Ok(world)
    }
}

struct Shared {
    max_frame: usize,
    io_timeout: Duration,
    drain: Duration,
    idle_timeout: Duration,
    /// Reference instant for campaign activity stamps.
    epoch: Instant,
    shutdown: AtomicBool,
    next_session: AtomicU64,
    next_campaign: AtomicU64,
    active: AtomicUsize,
    campaigns: Mutex<HashMap<u64, Arc<CampaignHost>>>,
    metrics: ServeMetrics,
    registry: MetricsRegistry,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Drops campaigns whose last request is older than the idle
    /// timeout from the table. No request waits on a slot, so there is
    /// nothing to wake.
    fn expire_orphans(&self) {
        let now = self.now_ms();
        let idle_ms = self.idle_timeout.as_millis() as u64;
        lock_ok(&self.campaigns).retain(|_, host| {
            let stale = now.saturating_sub(host.last_activity.load(Ordering::Relaxed)) > idle_ms;
            if stale {
                self.metrics.campaigns_expired.incr();
            }
            !stale
        });
    }
}

/// The serving endpoint. Dropping the server shuts it down gracefully.
pub struct Server {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port — the bound address
    /// is reported by [`Server::local_addr`]) and starts the worker pool.
    pub fn bind(addr: &str, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;

        let registry = MetricsRegistry::new();
        let metrics = ServeMetrics::new();
        metrics.register(&registry);
        let shared = Arc::new(Shared {
            max_frame: cfg.max_frame,
            io_timeout: cfg.io_timeout,
            drain: cfg.drain,
            idle_timeout: cfg.campaign_idle_timeout.max(POLL),
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            next_session: AtomicU64::new(1),
            next_campaign: AtomicU64::new(1),
            active: AtomicUsize::new(0),
            campaigns: Mutex::new(HashMap::new()),
            metrics,
            registry,
        });

        let mut threads = Vec::new();
        for i in 0..cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            let listener = listener.try_clone()?;
            let busy = shared.registry.timer(&format!("serve.worker{i}.busy"));
            threads.push(std::thread::spawn(move || {
                accept_loop(&shared, &listener, &busy)
            }));
        }
        // Janitor: reclaims campaign slots whose clients never returned
        // (crashed mid-campaign, or never re-fetched a FINISH result).
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                let mut last_sweep = Instant::now();
                while !shared.shutdown.load(Ordering::Relaxed) {
                    // `shutdown` unparks the janitor, so an idle server
                    // stops at once; a timeout or a spurious wake only
                    // re-checks the sweep's cadence.
                    std::thread::park_timeout(POLL);
                    let cadence = (shared.idle_timeout / 4).max(POLL);
                    if last_sweep.elapsed() >= cadence {
                        shared.expire_orphans();
                        last_sweep = Instant::now();
                    }
                }
            }));
        }
        Ok(Server { addr, shared, threads })
    }

    /// The bound address (resolves port-0 bindings).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The server's telemetry handles.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// A point-in-time reading of every server instrument. Counters land
    /// in the deterministic section; per-worker busy timers in timing.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.shared.registry.snapshot()
    }

    /// Graceful shutdown: stop accepting, answer every request already on
    /// the wire (within the drain window), close all connections, join
    /// the workers. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // A worker blocked in `accept` sees the flag once a connection
        // wakes it, and takes at most one, so one loopback connect per
        // thread wakes them all; a worker serving a connection sees the
        // flag at its next read poll. A wildcard bind is woken through
        // the loopback address of its family.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        for _ in 0..self.threads.len() {
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        }
        // The janitor parks between sweeps; an unpark wakes it to see the
        // flag, and is a no-op for a worker.
        for t in &self.threads {
            t.thread().unpark();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener, busy: &Timer) {
    loop {
        let accepted = listener.accept();
        // Past shutdown, whatever woke the worker goes unserved.
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match accepted {
            Ok((stream, _)) => serve_conn(shared, stream, busy),
            // Out of file descriptors, say: back off rather than spin.
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Largest payload a `Value` request, every kind but `PING`, may carry.
/// Such a payload is decoded before the handshake is checked, and a
/// decode may reserve about 32 B of `Value` per payload byte, so a
/// `max_frame` payload could cost a worker about 512 MiB. The largest
/// request a client sends, `OPEN`'s city model, is under 4 KB.
const MAX_VALUE_REQUEST: usize = 64 << 10;

/// A decoded request: `PING` carries the wire's binary batch, every
/// other kind a `Value`.
enum Request {
    Ping(PingBatch),
    Value(u8, Value),
}

impl Request {
    /// A payload its kind's codec refuses, or a `Value` payload past
    /// [`MAX_VALUE_REQUEST`], is a malformed frame.
    fn decode(frame: &Frame) -> Result<Request, WireError> {
        match frame.kind() {
            wire::REQ_PING => wire::decode_ping_request(frame.payload()).map(Request::Ping),
            _ if frame.payload().len() > MAX_VALUE_REQUEST => Err(WireError::Malformed(format!(
                "{}-byte request payload past the {MAX_VALUE_REQUEST}-byte limit",
                frame.payload().len()
            ))),
            kind => frame.value().map(|v| Request::Value(kind, v)),
        }
    }
}

/// An encoded response frame plus whether the connection must close
/// after it.
struct Reply {
    frame: Vec<u8>,
    close: bool,
}

impl Reply {
    fn ok(kind: u8, payload: Value) -> Result<Reply, String> {
        Ok(Reply { frame: wire::frame_bytes(kind, &payload), close: false })
    }

    /// Protocol errors are answered, then the connection closes — a
    /// confused peer should not keep going.
    fn error(msg: &str) -> Reply {
        let payload = Value::Map(vec![("error".into(), msg.to_string().to_value())]);
        Reply { frame: wire::frame_bytes(wire::RESP_ERR, &payload), close: true }
    }
}

fn serve_conn(shared: &Shared, mut stream: TcpStream, busy: &Timer) {
    shared.metrics.connections_accepted.incr();
    let active = shared.active.fetch_add(1, Ordering::SeqCst) + 1;
    shared.metrics.connections_peak.set_max(active as u64);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(shared.io_timeout));

    let mut session: Option<u64> = None;
    let mut drained_by: Option<Instant> = None;
    // Called after every read inside a frame, data or timeout, and after
    // every timed-out read at a frame boundary.
    let mut stalled = |_: Option<io::Error>, started: Option<Instant>| match started {
        // Inside a frame: a slow-loris once `io_timeout` has passed since
        // its first byte, however steadily its bytes trickle in.
        Some(t0) if t0.elapsed() > shared.io_timeout => {
            Err(WireError::Malformed("slow-loris: frame stalled past io_timeout".into()))
        }
        Some(_) => Ok(()),
        // At a frame boundary: wait, unless a shutdown's drain window is
        // spent, which closes the connection cleanly.
        None if !shared.shutdown.load(Ordering::Relaxed) => Ok(()),
        None => {
            let deadline = *drained_by.get_or_insert_with(|| Instant::now() + shared.drain);
            if Instant::now() >= deadline {
                Err(WireError::Closed)
            } else {
                Ok(())
            }
        }
    };
    loop {
        let read = wire::read_frame_with(&mut stream, shared.max_frame, &mut stalled)
            .and_then(|frame| Ok((Request::decode(&frame)?, frame.wire_len())));
        let (request, nbytes) = match read {
            Ok(read) => read,
            // A clean close, or a drain window spent at a frame boundary.
            Err(WireError::Closed) => break,
            Err(_) => {
                shared.metrics.frame_errors.incr();
                break;
            }
        };
        shared.metrics.frames_in.incr();
        shared.metrics.bytes_in.add(nbytes);
        let _span = busy.start();
        // Handlers run behind a panic boundary: a panicking request must
        // cost its own connection, never the worker thread (sibling
        // sessions recover any lock it poisoned via `lock_ok`).
        let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_request(shared, &mut session, &request)
        }))
        .unwrap_or_else(|_| {
            shared.metrics.worker_panics.incr();
            Err("internal error: request handler panicked".into())
        })
        .unwrap_or_else(|msg| Reply::error(&msg));
        let writing = matches!(request, Request::Ping(_)).then(|| shared.metrics.write.start());
        let written = stream.write_all(&reply.frame).and_then(|()| stream.flush());
        drop(writing);
        match written {
            Ok(()) => {
                shared.metrics.frames_out.incr();
                shared.metrics.bytes_out.add(reply.frame.len() as u64);
            }
            Err(_) => {
                // The peer vanished with a request in flight.
                shared.metrics.frame_errors.incr();
                break;
            }
        }
        if reply.close {
            break;
        }
    }
    shared.active.fetch_sub(1, Ordering::SeqCst);
}

/// `LatLng::new` treats bad coordinates as a programming error and
/// panics; here they are untrusted network data, so validate first — a
/// hostile NaN must cost the sender its connection, not a worker.
fn checked(loc: LatLng) -> Result<LatLng, String> {
    let LatLng { lat, lng } = loc;
    if !lat.is_finite() || !lng.is_finite() || !(-90.0..=90.0).contains(&lat) {
        return Err(format!("invalid coordinates ({lat}, {lng})"));
    }
    Ok(loc)
}

fn latlng_of(v: &Value) -> Result<LatLng, String> {
    let lat = f64::from_value(v.field("lat").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let lng = f64::from_value(v.field("lng").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    checked(LatLng { lat, lng })
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    u64::from_value(v.field(key).map_err(|e| e.to_string())?).map_err(|e| e.to_string())
}

fn campaign_of(shared: &Shared, v: &Value) -> Result<Arc<CampaignHost>, String> {
    campaign(shared, field_u64(v, "campaign")?)
}

fn campaign(shared: &Shared, id: u64) -> Result<Arc<CampaignHost>, String> {
    let host = lock_ok(&shared.campaigns)
        .get(&id)
        .cloned()
        .ok_or_else(|| format!("unknown campaign {id}"))?;
    host.last_activity.store(shared.now_ms(), Ordering::Relaxed);
    Ok(host)
}

fn handle_request(
    shared: &Shared,
    session: &mut Option<u64>,
    request: &Request,
) -> Result<Reply, String> {
    if let Request::Value(wire::REQ_HELLO, v) = request {
        let proto = field_u64(v, "proto")?;
        if proto != wire::PROTO_VERSION {
            return Err(format!(
                "protocol version {proto} unsupported (server speaks {})",
                wire::PROTO_VERSION
            ));
        }
        let token = shared.next_session.fetch_add(1, Ordering::SeqCst);
        *session = Some(token);
        return Reply::ok(
            wire::RESP_HELLO,
            Value::Map(vec![("session".into(), token.to_value())]),
        );
    }
    // Everything else requires the handshake: the session token keys the
    // rate limiter for estimates traffic.
    let session = session.ok_or_else(|| "handshake required (send HELLO first)".to_string())?;
    let (kind, v) = match request {
        Request::Ping(batch) => return ping_batch(shared, batch),
        Request::Value(kind, v) => (*kind, v),
    };

    match kind {
        wire::REQ_OPEN => {
            let city =
                CityModel::from_value(v.field("city").map_err(|e| e.to_string())?)
                    .map_err(|e| e.to_string())?;
            let seed = field_u64(v, "seed")?;
            let era = ProtocolEra::from_value(v.field("era").map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            let surge_policy =
                SurgePolicy::from_value(v.field("surge_policy").map_err(|e| e.to_string())?)
                    .map_err(|e| e.to_string())?;
            // Exactly the in-process construction: the client ships the
            // post-scale city, the server derives marketplace and
            // endpoint from (city, seed, era, policy).
            let (mp, api) = campaign_world(city, seed, era, surge_policy);
            let host = Arc::new(CampaignHost {
                state: Mutex::new(CampaignState {
                    world: Some(HostWorld { mp, api, snapshot: TickSnapshot::new() }),
                    truth: None,
                    tick: 0,
                }),
                last_activity: AtomicU64::new(shared.now_ms()),
            });
            let id = shared.next_campaign.fetch_add(1, Ordering::SeqCst);
            lock_ok(&shared.campaigns).insert(id, host);
            shared.metrics.campaigns_opened.incr();
            Reply::ok(
                wire::RESP_OPEN,
                Value::Map(vec![("campaign".into(), id.to_value())]),
            )
        }
        #[cfg(test)]
        wire::REQ_CRASH => {
            let host = campaign_of(shared, v)?;
            // Deliberately panic while holding the campaign lock so the
            // poisoning-recovery path has a deterministic trigger.
            let _st = host.state.lock();
            panic!("injected crash (REQ_CRASH test verb)");
        }
        wire::REQ_PRICE | wire::REQ_TIME => {
            let host = campaign_of(shared, v)?;
            let account = field_u64(v, "account")?;
            let loc = latlng_of(v)?;
            let mut st = lock_ok(&host.state);
            let world = st.world.as_mut().ok_or("campaign already finished")?;
            let snap = world.snapshot();
            estimates_reply(shared, &mut world.api, &snap, kind, session, account, loc)
        }
        wire::REQ_FINISH => {
            let host = campaign_of(shared, v)?;
            // Idempotent: the first FINISH consumes the marketplace and
            // caches the truth; the slot stays in the table (the janitor
            // reclaims it once idle) so a client whose connection died
            // between request and reply can reconnect and re-ask.
            let mut st = lock_ok(&host.state);
            if st.truth.is_none() {
                let world = st.world.take().ok_or("campaign already finished")?;
                st.truth = Some(world.mp.into_truth().to_value());
            }
            let truth = st.truth.clone().expect("just populated");
            Reply::ok(
                wire::RESP_FINISH,
                Value::Map(vec![("truth".into(), truth)]),
            )
        }
        other => Err(format!("unknown request kind {other:#04x}")),
    }
}

/// Answers a whole `PING` batch from one snapshot. The campaign and
/// every coordinate are checked first, so a batch refused for either
/// never moves the world. The tick rule ([`CampaignState::at_tick`]),
/// snapshot and ping core are then taken under the lock once; the
/// (comparatively expensive) reply is encoded outside it, straight into
/// its frame, so batches on several connections are answered
/// concurrently. A reply that would pass `max_frame` is refused before
/// any of it is written.
fn ping_batch(shared: &Shared, batch: &PingBatch) -> Result<Reply, String> {
    let host = campaign(shared, batch.campaign)?;
    for &(_, loc) in &batch.pings {
        checked(loc)?;
    }
    let m = &shared.metrics;
    let (snap, ping) = {
        let waited = m.lock_wait.start();
        let mut st = lock_ok(&host.state);
        drop(waited);
        let _tick = m.world_tick.start();
        let world = st.at_tick(batch.tick)?;
        (world.snapshot(), world.api.ping_config())
    };
    let encoding = m.encode.start();
    let mut encoded = Err(String::new());
    let frame = wire::frame_with(wire::RESP_PING, |out| {
        encoded = wire::encode_ping_reply(out, &ping, &snap, &batch.pings, shared.max_frame);
    });
    drop(encoding);
    let tally = encoded?;
    shared.metrics.pings.add(batch.pings.len() as u64);
    shared.metrics.ping_cars.add(tally.cars);
    shared.metrics.ping_sightings.add(tally.sightings);
    Ok(Reply { frame, close: false })
}

/// Serves `estimates/price` / `estimates/time`, keying the per-account
/// rate limiter by the connection's session token (a remote caller picks
/// its claimed account freely; the session is the server-assigned
/// identity).
fn estimates_reply(
    shared: &Shared,
    api: &mut ApiService,
    snap: &WorldSnapshot,
    kind: u8,
    session: u64,
    account: u64,
    loc: LatLng,
) -> Result<Reply, String> {
    let key = surgescope_api::session_key(session, account);
    let throttled = |e: surgescope_api::RateLimitError| {
        shared.metrics.throttled_wire.incr();
        Reply::ok(
            wire::RESP_THROTTLED,
            Value::Map(vec![
                ("account".into(), account.to_value()),
                ("retry_after_secs".into(), e.retry_after_secs.to_value()),
            ]),
        )
    };
    match kind {
        wire::REQ_PRICE => match api.estimates_price(snap, key, loc) {
            Ok(prices) => Reply::ok(
                wire::RESP_PRICE,
                Value::Map(vec![("estimates".into(), prices.to_value())]),
            ),
            Err(e) => throttled(e),
        },
        _ => match api.estimates_time(snap, key, loc) {
            Ok(times) => Reply::ok(
                wire::RESP_TIME,
                Value::Map(vec![("estimates".into(), times.to_value())]),
            ),
            Err(e) => throttled(e),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{connect, open_campaign};
    use crate::wire::rpc;

    fn campaign_payload(campaign: u64) -> Value {
        Value::Map(vec![("campaign".into(), campaign.to_value())])
    }

    /// A worker panic mid-campaign poisons at most the campaign lock,
    /// which every other session recovers from, never the server. The
    /// crashed session reconnects, re-sends the `PING` it last had
    /// answered (answered again, the world unmoved) and finishes the
    /// campaign, while a sibling session that only said HELLO keeps
    /// pinging it. `REQ_CRASH`, compiled into unit-test builds only, is
    /// the deterministic trigger: it panics a handler while it holds the
    /// campaign lock.
    #[test]
    fn worker_panic_mid_campaign_is_isolated_and_the_campaign_finishes() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        // `wire::ping` fails unless the reply is a `RESP_PING` with one
        // response per ping.
        let ping = |stream: &mut TcpStream, campaign: u64, tick: u64| {
            let responses = wire::ping(stream, campaign, tick, [(7, LatLng::new(37.78, -122.41))])
                .expect("PING");
            assert_eq!(responses.len(), 1);
        };

        let mut a = connect(&addr).expect("connect A");
        let campaign = open_campaign(&mut a, 0.2, 4242).expect("OPEN");
        let mut b = connect(&addr).expect("connect B");
        ping(&mut a, campaign, 1);
        ping(&mut b, campaign, 1);

        // Session A's handler panics *while holding the campaign lock*. The
        // panic boundary answers with an internal error (`RESP_ERR`, which
        // `rpc` surfaces as an error) and costs A its connection — nothing
        // more.
        let err = rpc(&mut a, wire::REQ_CRASH, &campaign_payload(campaign))
            .expect_err("CRASH must be answered with RESP_ERR");
        assert!(err.to_string().contains("panicked"), "unexpected error: {err}");
        assert_eq!(server.metrics().worker_panics.get(), 1);

        // A reconnects (connect + HELLO) and re-sends PING(1): the
        // poisoned campaign lock is recovered and the re-send is
        // answered at tick 1 without moving the world.
        let mut a2 = connect(&addr).expect("reconnect A");
        ping(&mut a2, campaign, 1);
        for tick in 2..=3 {
            ping(&mut a2, campaign, tick);
            ping(&mut b, campaign, tick);
        }
        let (kind, v) =
            rpc(&mut a2, wire::REQ_FINISH, &campaign_payload(campaign)).expect("FINISH");
        assert_eq!(kind, wire::RESP_FINISH, "FINISH failed: {v:?}");
        assert!(v.field("truth").is_ok(), "FINISH reply must carry the ground truth");

        // Exactly one panic, and the crash produced no framing
        // violations — the wire stayed clean throughout.
        assert_eq!(server.metrics().worker_panics.get(), 1);
        assert_eq!(server.metrics().frame_errors.get(), 0);
    }
}
