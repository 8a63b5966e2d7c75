//! The remote measurement client: [`MeasuredSystem`] over TCP sockets.
//!
//! The paper's apparatus talked to a production API over a real network;
//! [`RemoteMeasuredSystem`] reproduces that topology against a
//! `surgescope-serve` endpoint. The campaign runner drives it through the
//! exact same trait surface as the in-process [`crate::UberSystem`], and
//! the combination of the client's tick order, the serial fault pre-pass
//! here, and the shared wire/local observation conversion
//! ([`crate::observe::response_to_observations`]) makes the resulting
//! `CampaignData` **byte-identical** to the in-process run — clean or
//! faulted, at any connection count.
//!
//! The server ticks a campaign's world only when asked to: one `ADVANCE`
//! per tick on the first connection. The client reads every reply of
//! tick t before it sends `ADVANCE(t+1)`, so every request of a tick
//! reads the same frozen world, whichever connection carries it.
//!
//! Fault injection stays client-side: the fault RNG is seeded exactly as
//! `UberSystem` seeds it, draws happen in client order before any I/O, a
//! `Drop` outcome suppresses the request entirely, and a `Delay(d)`
//! response is fetched at its send tick (the world cannot move before
//! the client's next `ADVANCE`) and parked in the same [`Transport`]
//! queue until its delivery tick.
//!
//! ## Pings and threading
//!
//! A tick's pings split the clients into contiguous chunks, one per
//! connection. Each connection sends its chunk's undropped pings as one
//! `PING` frame in the wire's fixed binary layout and reads one reply
//! frame, whose car table and responses it decodes into
//! [`PingClientResponse`](surgescope_api::PingClientResponse)s and
//! converts exactly as the in-process kernel is locked to. The calling
//! thread writes every connection's `PING` before it reads any reply,
//! so the server's workers answer the batches in parallel, and then
//! reads the replies in connection order: a tick spawns no thread at
//! any connection count.
//!
//! ## Resilience
//!
//! No wire failure panics. Every mid-campaign operation runs under a
//! [`RetryPolicy`]: on error the connection is torn down, the client
//! sleeps a capped-exponential-backoff delay (jitter drawn from a seeded
//! [`SimRng`] stream, so retry *schedules* are deterministic in tests),
//! reconnects (connect + `HELLO`), and re-sends the failed operation.
//! Re-sends are safe because every verb is idempotent against the frozen
//! world: pings and probes are pure reads (a re-sent `PING` repeats its
//! whole batch), `ADVANCE` to the current tick is acknowledged again,
//! and `FINISH` returns a cached truth. A socket read fails once a reply
//! frame has not completed within `op_timeout` of its first byte, so a
//! server trickling a reply costs one attempt, not the campaign. Once the
//! per-op retry budget is exhausted a circuit breaker trips: the system
//! marks itself broken, the runner's next fault check aborts the campaign
//! with an `io::Error`, and the caller (the experiments cache) falls back
//! to local execution — counted in `resilience.breaker_trips`, never
//! silent. An optional [`ChaosSpec`] wires a [`ChaosStream`] fault
//! schedule under the whole stack for the chaos byte-identity gates.

use crate::observe::{response_to_observations, ClientSpec, TypeObservation};
use crate::systems::{MeasuredSystem, SystemMetrics};
use serde::{Deserialize, Serialize, Value};
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use surgescope_api::{PriceEstimate, RateLimitError, TimeEstimate};
use surgescope_city::CityModel;
use surgescope_geo::{LatLng, LocalProjection};
use surgescope_marketplace::GroundTruth;
use surgescope_obs::{Counter, Histogram, MetricsRegistry};
use surgescope_serve::chaos::{ChaosCounters, ChaosPlan, ChaosStream};
use surgescope_serve::wire::{self, hello, rpc};
use surgescope_simcore::{
    ticks_late, Backoff, FaultOutcome, FaultPlan, SimRng, SimTime, Transport,
};

/// Parameters a remote campaign ships to the server when opening its
/// world. Deliberately a subset of `CampaignConfig`: everything
/// the *server* needs to build the marketplace; client lattice, fault
/// plan and estimator tuning stay client-side.
pub struct RemoteWorldSpec<'a> {
    /// The measured city, **post-scale** (the client applies `cfg.scale`
    /// before connecting so both sides agree on the exact model).
    pub city: &'a CityModel,
    /// Campaign root seed.
    pub seed: u64,
    /// Protocol era the fleet speaks.
    pub era: surgescope_api::ProtocolEra,
    /// Surge publication policy of the measured marketplace.
    pub surge_policy: surgescope_marketplace::SurgePolicy,
}

/// How hard the remote client fights for a flaky connection before the
/// circuit breaker trips and the campaign falls back to local execution.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Reconnect attempts per failed operation; 0 means the first wire
    /// failure trips the breaker immediately.
    pub max_retries: u32,
    /// Per-operation socket deadline (connect, read and write timeouts,
    /// and the time a reply frame may take from its first byte). A hung
    /// or trickling server costs at most about this long per attempt,
    /// never forever.
    pub op_timeout: Duration,
    /// First backoff ceiling; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound the exponential backoff saturates at.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            op_timeout: Duration::from_secs(30),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

/// A seeded client-side transport fault schedule (see
/// [`surgescope_serve::chaos`]). Independent of the campaign seed so
/// chaos can vary without touching the measured world.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    /// Seed of the fault schedule streams (split per connection and
    /// per reconnect incarnation).
    pub seed: u64,
    /// Per-op fault probabilities.
    pub plan: ChaosPlan,
}

/// Everything tunable about a remote campaign's transport behavior.
#[derive(Debug, Clone, Default)]
pub struct RemoteOptions {
    /// Retry/reconnect/breaker policy.
    pub policy: RetryPolicy,
    /// Optional deterministic chaos injection under the whole stack.
    pub chaos: Option<ChaosSpec>,
}

/// Client-side resilience telemetry. Counters are pure functions of the
/// (seeded) fault schedule, so they live in the deterministic snapshot
/// section; reconnect *latency* is wall clock and renders in timing.
struct ResilienceMetrics {
    /// Operation re-attempts after a wire failure.
    retries: Counter,
    /// Connections successfully re-established.
    reconnects: Counter,
    /// Retry budgets exhausted (the campaign aborts and falls back).
    breaker_trips: Counter,
    /// Reconnect recovery latency (connect + HELLO), µs.
    reconnect_us: Histogram,
}

/// Reconnect-latency buckets, µs: loopback reconnects land around 100 µs
/// – 1 ms; the tail covers a WAN with backoff sleeps folded in.
const RECONNECT_US_BOUNDS: &[u64] =
    &[100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000];

impl ResilienceMetrics {
    fn new() -> Self {
        ResilienceMetrics {
            retries: Counter::new(),
            reconnects: Counter::new(),
            breaker_trips: Counter::new(),
            reconnect_us: Histogram::new(RECONNECT_US_BOUNDS),
        }
    }
}

/// Raw TCP connect with every deadline bounded by `op_timeout`.
fn connect_raw(addr: &str, op_timeout: Duration) -> io::Result<TcpStream> {
    use std::net::ToSocketAddrs;
    let sa = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("cannot resolve {addr}"))
    })?;
    let stream = TcpStream::connect_timeout(&sa, op_timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(op_timeout))?;
    stream.set_write_timeout(Some(op_timeout))?;
    Ok(stream)
}

/// One connection plus its per-connection deterministic streams.
struct Conn {
    stream: ChaosStream<TcpStream>,
    /// Connection slot (stable across reconnects; seeds the chaos stream).
    index: usize,
    /// Bumped per reconnect so each incarnation draws a fresh fault
    /// schedule instead of replaying the one that just killed it.
    incarnation: u64,
    /// Backoff jitter stream — per connection, so one connection's
    /// retries never shift another's schedule.
    jitter: SimRng,
}

/// Everything a retry loop needs to rebuild a connection, built
/// once at connect.
struct Link {
    addr: String,
    campaign: u64,
    policy: RetryPolicy,
    chaos: Option<ChaosSpec>,
    chaos_counters: ChaosCounters,
    res: ResilienceMetrics,
}

/// Wraps a fresh socket in the (per-connection, per-incarnation) chaos
/// schedule, or a passthrough when chaos is off.
fn wrap_stream(
    stream: TcpStream,
    chaos: Option<&ChaosSpec>,
    counters: &ChaosCounters,
    index: usize,
    incarnation: u64,
) -> ChaosStream<TcpStream> {
    match chaos {
        Some(spec) => {
            let rng = SimRng::seed_from_u64(spec.seed)
                .split("chaos")
                .split_index("conn", index as u64)
                .split_index("incarnation", incarnation);
            ChaosStream::with_plan(stream, spec.plan, rng, counters.clone())
        }
        None => ChaosStream::passthrough(stream),
    }
}

/// Tears down and re-establishes one connection: connect, HELLO, then
/// arm the chaos schedule of the new incarnation.
fn reconnect(conn: &mut Conn, link: &Link) -> io::Result<()> {
    let t0 = Instant::now();
    let raw = connect_raw(&link.addr, link.policy.op_timeout)?;
    let inc = conn.incarnation + 1;
    let mut stream = wrap_stream(raw, link.chaos.as_ref(), &link.chaos_counters, conn.index, inc);
    hello(&mut stream)?;
    stream.arm();
    conn.stream = stream;
    conn.incarnation = inc;
    link.res.reconnects.incr();
    link.res.reconnect_us.record(t0.elapsed().as_micros() as u64);
    Ok(())
}

/// Runs `op` against `conn` under the retry policy; see [`retry_after`].
fn with_retry<T>(
    conn: &mut Conn,
    link: &Link,
    mut op: impl FnMut(&mut Conn) -> io::Result<T>,
) -> io::Result<T> {
    let first = op(conn);
    retry_after(conn, link, first, op)
}

/// Finishes an operation whose first attempt, made by the caller, ended
/// in `first`: on failure it reconnects and re-sends `op` until it
/// succeeds or the retry budget is spent — at which point the returned
/// error is the circuit breaker tripping. Failed *reconnects* burn budget
/// too, so a dead server cannot loop forever. `op` must be safe to
/// re-send blind (every campaign verb is; see the module docs).
fn retry_after<T>(
    conn: &mut Conn,
    link: &Link,
    first: io::Result<T>,
    mut op: impl FnMut(&mut Conn) -> io::Result<T>,
) -> io::Result<T> {
    let mut last = match first {
        Ok(v) => return Ok(v),
        Err(e) => e,
    };
    let mut backoff = Backoff::new(link.policy.backoff_base, link.policy.backoff_cap);
    let mut attempts = 0u32;
    loop {
        if attempts >= link.policy.max_retries {
            return Err(io::Error::other(format!(
                "circuit breaker open: retry budget of {} exhausted (last: {last})",
                link.policy.max_retries
            )));
        }
        attempts += 1;
        link.res.retries.incr();
        std::thread::sleep(backoff.next_delay(&mut conn.jitter));
        if let Err(e) = reconnect(conn, link) {
            last = e;
            continue;
        }
        match op(conn) {
            Ok(v) => return Ok(v),
            Err(e) => last = e,
        }
    }
}

/// A measurement fleet whose pings travel over real sockets to a
/// `surgescope-serve` campaign. See the module docs for the determinism
/// and resilience contracts.
pub struct RemoteMeasuredSystem {
    /// Connections; `conns[0]` opened the campaign and carries the
    /// `ADVANCE` and probe traffic. Each carries one contiguous chunk of
    /// the clients' pings.
    conns: Vec<Conn>,
    link: Link,
    tick: u64,
    tick_secs: u64,
    proj: LocalProjection,
    faults: FaultPlan,
    fault_rng: SimRng,
    transport: Transport<Vec<TypeObservation>>,
    outcomes: Vec<FaultOutcome>,
    metrics: SystemMetrics,
    /// Breaker state: the message of the failure that exhausted a retry
    /// budget. Once set, every wire op is a no-op and
    /// [`RemoteMeasuredSystem::fault`] reports the campaign as dead.
    broken: Option<String>,
}

impl RemoteMeasuredSystem {
    /// Connects `connections` sockets to `addr` and opens a campaign
    /// world there, with default transport options.
    pub fn connect(
        addr: &str,
        spec: &RemoteWorldSpec<'_>,
        faults: FaultPlan,
        connections: usize,
    ) -> io::Result<Self> {
        Self::connect_with(addr, spec, faults, connections, RemoteOptions::default())
    }

    /// [`RemoteMeasuredSystem::connect`] with explicit retry policy and
    /// optional chaos injection. The initial handshakes (HELLO on every
    /// connection, OPEN on the first) run clean — chaos arms once every
    /// connection is up — and an initial connect failure surfaces
    /// immediately (the caller's local fallback is cheaper than a
    /// campaign that never existed).
    pub fn connect_with(
        addr: &str,
        spec: &RemoteWorldSpec<'_>,
        faults: FaultPlan,
        connections: usize,
        options: RemoteOptions,
    ) -> io::Result<Self> {
        let connections = connections.max(1);
        let mut policy = options.policy;
        policy.op_timeout = policy.op_timeout.max(Duration::from_millis(10));
        let chaos = options.chaos;
        let chaos_counters = ChaosCounters::new();
        let jitter_root = SimRng::seed_from_u64(spec.seed).split("remote-retry");

        let mk_conn = |index: usize, stream: TcpStream| Conn {
            stream: wrap_stream(stream, chaos.as_ref(), &chaos_counters, index, 0),
            index,
            incarnation: 0,
            jitter: jitter_root.split_index("conn", index as u64),
        };

        let mut conns = Vec::with_capacity(connections);
        let mut first = mk_conn(0, connect_raw(addr, policy.op_timeout)?);
        hello(&mut first.stream)?;

        let open = Value::Map(vec![
            ("city".into(), spec.city.to_value()),
            ("seed".into(), spec.seed.to_value()),
            ("era".into(), spec.era.to_value()),
            ("surge_policy".into(), spec.surge_policy.to_value()),
        ]);
        let v = wire::call(&mut first.stream, wire::REQ_OPEN, &open, wire::RESP_OPEN)?;
        let campaign =
            u64::from_value(v.field("campaign").map_err(invalid)?).map_err(invalid)?;
        conns.push(first);
        for index in 1..connections {
            let mut conn = mk_conn(index, connect_raw(addr, policy.op_timeout)?);
            hello(&mut conn.stream)?;
            conns.push(conn);
        }
        for conn in &mut conns {
            conn.stream.arm();
        }

        Ok(RemoteMeasuredSystem {
            conns,
            link: Link {
                addr: addr.to_string(),
                campaign,
                policy,
                chaos,
                chaos_counters,
                res: ResilienceMetrics::new(),
            },
            tick: 0,
            tick_secs: 5,
            proj: spec.city.projection,
            faults: faults.validated(),
            fault_rng: SimRng::seed_from_u64(spec.seed).split("transport-faults"),
            transport: Transport::new(),
            outcomes: Vec::new(),
            metrics: SystemMetrics::default(),
            broken: None,
        })
    }

    /// Delayed responses currently in flight client-side (diagnostic).
    pub fn in_flight(&self) -> usize {
        self.transport.in_flight()
    }

    /// The tripped circuit breaker, if any: the campaign can no longer
    /// make wire progress and must abort (the runner checks this after
    /// every phase). `io::Error` is not `Clone`, so the stored message is
    /// re-wrapped per call.
    pub fn fault(&self) -> Option<io::Error> {
        self.broken
            .as_ref()
            .map(|m| io::Error::new(io::ErrorKind::Other, m.clone()))
    }

    fn trip(&mut self, e: &io::Error) {
        if self.broken.is_none() {
            self.link.res.breaker_trips.incr();
            self.broken = Some(e.to_string());
        }
    }

    /// Registers the client-side instruments (ping fault outcomes,
    /// transport queue, phase timers, resilience counters). Server-side
    /// counters live in the server's own registry.
    pub fn register_metrics(&self, reg: &MetricsRegistry) {
        reg.adopt_counter("pings.delivered", &self.metrics.pings_delivered);
        reg.adopt_counter("pings.delayed", &self.metrics.pings_delayed);
        reg.adopt_counter("pings.dropped", &self.metrics.pings_dropped);
        reg.adopt_timer("phase.ping", &self.metrics.ping);
        self.transport.metrics().register(reg);
        let res = &self.link.res;
        reg.adopt_counter("resilience.retries", &res.retries);
        reg.adopt_counter("resilience.reconnects", &res.reconnects);
        reg.adopt_counter("resilience.breaker_trips", &res.breaker_trips);
        reg.adopt_timing_histogram("resilience.reconnect_us", &res.reconnect_us);
        self.link.chaos_counters.register(reg);
    }

    /// `estimates/price` probe on the campaign's current tick snapshot.
    /// A server-side throttle comes back as the same [`RateLimitError`]
    /// the in-process limiter raises; a wire failure retries under the
    /// policy and, if the budget runs out, trips the breaker (the probe
    /// then reports nothing — the runner's fault check aborts before the
    /// gap is ever consumed).
    pub fn probe_price(
        &mut self,
        account: u64,
        loc: LatLng,
    ) -> Result<Vec<PriceEstimate>, RateLimitError> {
        self.probe(account, loc, wire::REQ_PRICE, wire::RESP_PRICE)
    }

    /// `estimates/time` probe; see [`RemoteMeasuredSystem::probe_price`].
    pub fn probe_time(
        &mut self,
        account: u64,
        loc: LatLng,
    ) -> Result<Vec<TimeEstimate>, RateLimitError> {
        self.probe(account, loc, wire::REQ_TIME, wire::RESP_TIME)
    }

    fn probe<T: Deserialize>(
        &mut self,
        account: u64,
        loc: LatLng,
        req: u8,
        resp: u8,
    ) -> Result<Vec<T>, RateLimitError> {
        if self.broken.is_some() {
            return Ok(Vec::new());
        }
        let payload = Value::Map(vec![
            ("campaign".into(), self.link.campaign.to_value()),
            ("account".into(), account.to_value()),
            ("lat".into(), loc.lat.to_value()),
            ("lng".into(), loc.lng.to_value()),
        ]);
        let r = with_retry(&mut self.conns[0], &self.link, |c| {
            let (kind, v) = rpc(&mut c.stream, req, &payload)?;
            decode_estimates::<T>(kind, &v, resp, account)
        });
        match r {
            Ok(inner) => inner,
            Err(e) => {
                self.trip(&e);
                Ok(Vec::new())
            }
        }
    }

    /// Finalizes the remote campaign and fetches the marketplace ground
    /// truth the server accumulated. Idempotent server-side (the truth is
    /// cached), so a FINISH cut off mid-reply retries safely.
    pub fn finish(mut self) -> io::Result<GroundTruth> {
        if let Some(e) = self.fault() {
            return Err(e);
        }
        let payload = Value::Map(vec![("campaign".into(), self.link.campaign.to_value())]);
        let v = with_retry(&mut self.conns[0], &self.link, |c| {
            wire::call(&mut c.stream, wire::REQ_FINISH, &payload, wire::RESP_FINISH)
        })?;
        GroundTruth::from_value(v.field("truth").map_err(invalid)?).map_err(invalid)
    }
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Decodes an estimates reply. The outer `Result` is a wire/protocol
/// failure (routable through the retry policy); the inner one is the
/// in-protocol throttle answer.
fn decode_estimates<T: Deserialize>(
    kind: u8,
    v: &Value,
    want: u8,
    account: u64,
) -> io::Result<Result<Vec<T>, RateLimitError>> {
    if kind == wire::RESP_THROTTLED {
        let retry = v
            .field("retry_after_secs")
            .ok()
            .and_then(|r| u64::from_value(r).ok())
            .unwrap_or(0);
        return Ok(Err(RateLimitError { account, retry_after_secs: retry }));
    }
    if kind != want {
        return Err(invalid(format!("estimates probe answered with {kind:#04x}")));
    }
    let est = Vec::<T>::from_value(v.field("estimates").map_err(invalid)?)
        .map_err(invalid)?;
    Ok(Ok(est))
}

/// One connection's share of a tick: a contiguous chunk of the clients,
/// their fault outcomes and their observation slots.
struct Chunk<'a> {
    clients: &'a [ClientSpec],
    outcomes: &'a [FaultOutcome],
    slots: &'a mut [Vec<TypeObservation>],
    /// Index of the chunk's first client.
    base: usize,
}

/// Sends a chunk's undropped pings as one `PING` frame (nothing when the
/// whole chunk is dropped) and returns how many it sent.
fn send_chunk(
    stream: &mut ChaosStream<TcpStream>,
    campaign: u64,
    proj: &LocalProjection,
    chunk: &Chunk<'_>,
) -> io::Result<usize> {
    let sent = chunk
        .clients
        .iter()
        .zip(chunk.outcomes)
        .filter(|(_, oc)| **oc != FaultOutcome::Drop)
        .map(|(c, _)| (c.key, proj.to_latlng(c.position)));
    wire::send_ping(stream, campaign, sent)
}

/// Reads the reply to a chunk's `PING` of `sent` pings and routes each
/// response by its fault outcome. Returns the delayed payloads in client
/// order.
///
/// Safe to re-run wholesale after a reconnect: every slot is overwritten
/// (or cleared) per attempt, the `delayed` list is rebuilt from scratch,
/// and the frozen snapshot answers byte-identically however often it is
/// asked.
fn read_chunk(
    stream: &mut ChaosStream<TcpStream>,
    sent: usize,
    proj: &LocalProjection,
    chunk: &mut Chunk<'_>,
    tick_secs: u64,
) -> io::Result<Vec<(usize, u64, Vec<TypeObservation>)>> {
    // The reply carries exactly one response per ping sent, or is refused.
    let mut responses = wire::read_ping_reply(stream, sent)?.into_iter();

    let mut delayed = Vec::new();
    for (i, (slot, oc)) in chunk.slots.iter_mut().zip(chunk.outcomes).enumerate() {
        match oc {
            FaultOutcome::Drop => slot.clear(),
            outcome => {
                let resp = responses.next().ok_or_else(|| invalid("PING reply ran short"))?;
                let blocks = response_to_observations(&resp, proj);
                match outcome {
                    FaultOutcome::Deliver => *slot = blocks,
                    FaultOutcome::Delay(d) => {
                        slot.clear();
                        delayed.push((chunk.base + i, ticks_late(*d, tick_secs), blocks));
                    }
                    FaultOutcome::Drop => unreachable!("matched above"),
                }
            }
        }
    }
    Ok(delayed)
}

/// One tick's ping exchanges, one per chunk: every connection's `PING`
/// is written before any reply is read, so the server's workers answer
/// the batches in parallel, and the replies are read in connection order
/// on the calling thread. A connection whose write or read fails reruns
/// its whole exchange under the retry policy. Returns the delayed
/// payloads in client order.
fn exchange_all(
    conns: &mut [Conn],
    link: &Link,
    proj: &LocalProjection,
    tick_secs: u64,
    mut chunks: Vec<Chunk<'_>>,
) -> io::Result<Vec<(usize, u64, Vec<TypeObservation>)>> {
    let sent: Vec<io::Result<usize>> = conns
        .iter_mut()
        .zip(&chunks)
        .map(|(conn, chunk)| send_chunk(&mut conn.stream, link.campaign, proj, chunk))
        .collect();
    let mut late = Vec::new();
    for ((conn, sent), chunk) in conns.iter_mut().zip(sent).zip(&mut chunks) {
        let first = sent.and_then(|n| read_chunk(&mut conn.stream, n, proj, chunk, tick_secs));
        late.extend(retry_after(conn, link, first, |c| {
            let n = send_chunk(&mut c.stream, link.campaign, proj, chunk)?;
            read_chunk(&mut c.stream, n, proj, chunk, tick_secs)
        })?);
    }
    Ok(late)
}

impl MeasuredSystem for RemoteMeasuredSystem {
    /// Asks the server to tick the world: one `ADVANCE` on `conns[0]`,
    /// under the retry policy. A reconnect re-sends it, and the server
    /// acknowledges the current tick again if the first one already
    /// landed. A retry budget running out trips the breaker instead of
    /// panicking — the runner's fault check aborts the campaign.
    fn advance_tick(&mut self) {
        if self.broken.is_some() {
            return;
        }
        self.tick += 1;
        let v = Value::Map(vec![
            ("campaign".into(), self.link.campaign.to_value()),
            ("tick".into(), self.tick.to_value()),
        ]);
        let acked = with_retry(&mut self.conns[0], &self.link, |c| {
            wire::call(&mut c.stream, wire::REQ_ADVANCE, &v, wire::RESP_OK)
        });
        if let Err(e) = acked {
            self.trip(&e);
            return;
        }
        self.transport.advance_tick();
    }

    fn now(&self) -> SimTime {
        SimTime(self.tick * self.tick_secs)
    }

    /// Same contract as the in-process system: serial fault pre-pass in
    /// client order, each connection answering one contiguous chunk of
    /// clients, delayed responses queued and merged in `(sent_tick,
    /// client)` order. The server's world stays frozen until the next
    /// `ADVANCE`, so when a chunk is sent, and in which order the
    /// replies are read, cannot change what any ping observes — which is
    /// also why a whole chunk can be re-sent blind after a reconnect.
    fn ping_all_into(&mut self, clients: &[ClientSpec], out: &mut Vec<Vec<TypeObservation>>) {
        if self.broken.is_some() {
            return;
        }
        let _span = self.metrics.ping.start();
        let faults = self.faults;
        let fault_rng = &mut self.fault_rng;
        self.outcomes.clear();
        self.outcomes.extend(clients.iter().map(|_| faults.decide(fault_rng)));
        let (mut delivered, mut delayed, mut dropped) = (0u64, 0u64, 0u64);
        for oc in &self.outcomes {
            match oc {
                FaultOutcome::Deliver => delivered += 1,
                FaultOutcome::Delay(_) => delayed += 1,
                FaultOutcome::Drop => dropped += 1,
            }
        }
        self.metrics.pings_delivered.add(delivered);
        self.metrics.pings_delayed.add(delayed);
        self.metrics.pings_dropped.add(dropped);

        let n = clients.len();
        out.resize_with(n, Vec::new);
        out.truncate(n);

        // Chunks of ceil(n / K) clients, one per connection in order;
        // connections past the last chunk carry no pings this tick.
        let size = n.div_ceil(self.conns.len()).max(1);
        let chunks = clients
            .chunks(size)
            .zip(self.outcomes.chunks(size))
            .zip(out.chunks_mut(size))
            .enumerate()
            .map(|(i, ((clients, outcomes), slots))| Chunk {
                clients,
                outcomes,
                slots,
                base: i * size,
            })
            .collect();
        let (link, proj) = (&self.link, &self.proj);
        let late = match exchange_all(&mut self.conns, link, proj, self.tick_secs, chunks) {
            Ok(late) => late,
            Err(e) => {
                self.trip(&e);
                return;
            }
        };

        // Serial post-pass in client order, exactly like the local path.
        for (client, ticks, payload) in late {
            self.transport.send_delayed(client, ticks, payload);
        }
        for env in self.transport.take_due() {
            if let Some(slot) = out.get_mut(env.client) {
                slot.extend(env.payload);
            }
        }
    }
}
