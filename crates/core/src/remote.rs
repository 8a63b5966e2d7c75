//! The remote measurement client: [`MeasuredSystem`] over TCP sockets.
//!
//! The paper's apparatus talked to a production API over a real network;
//! [`RemoteMeasuredSystem`] reproduces that topology against a
//! `surgescope-serve` endpoint. The campaign runner drives it through the
//! exact same trait surface as the in-process [`crate::UberSystem`], and
//! the combination of the client's tick order, the fault delivery it
//! shares with that system, and observations written as the in-process
//! kernel writes them (one block writer, one displacement formula, both
//! locked to the reference conversion
//! [`crate::observe::response_to_observations`]) makes the resulting
//! `CampaignData` **byte-identical** to the in-process run — clean or
//! faulted, at any connection count.
//!
//! Every `PING` names its tick, and the server ticks a campaign's world
//! when the first `PING` of the next tick arrives, on whichever
//! connection. Advancing a tick is therefore local: the client counts
//! the tick, and its next `PING`s carry it. The client reads every reply
//! of tick t, probes included, before it sends any `PING` of t+1, so
//! every request of a tick reads the same frozen world, whichever
//! connection carries it.
//!
//! Fault injection stays client-side, in the same [`Delivery`] the
//! in-process system uses: its draws happen in client order before any
//! I/O, a `Drop` outcome suppresses the ping entirely, and a `Delay(d)`
//! response is fetched at its send tick (the world cannot move before
//! the client's first `PING` of the next tick), written into its slot and
//! queued from there until its delivery tick.
//!
//! ## Pings and threading
//!
//! A tick's pings split the clients into contiguous chunks, one per
//! connection. Each connection sends exactly one `PING` frame per tick in
//! the wire's fixed binary layout, carrying its chunk's undropped pings
//! (none, when the chunk is empty or all dropped: the frame still names
//! the tick), and reads one reply frame, which it decodes straight into
//! the chunk's observation slots through the wire's one reply walker:
//! each table car becomes one [`ObservedCar`] (its position projected
//! once, its displacement taken once between its path's first and last
//! points), and each tier copies its shown cars out of that table into
//! the slot's blocks, reusing them as the in-process kernel does. No
//! [`PingClientResponse`](surgescope_api::PingClientResponse), path or
//! path handle is built. Every undropped response, delayed or not, is
//! written into its slot, reclaiming blocks from the delivery's pool; the
//! decoder never looks at an outcome beyond skipping a dropped slot. The
//! calling thread writes every connection's `PING` before it reads any
//! reply, so the server's workers answer the batches in parallel, and
//! then reads the replies in connection order: a tick spawns no thread
//! at any connection count.
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
//! whole batch and names the tick the server already stands at, which it
//! reads unmoved), and `FINISH` returns a cached truth. A `PING` reply
//! refused part-way through decoding may leave its chunk's slots
//! half-written; nothing is queued before every reply of the tick is
//! read, so the rerun only overwrites them. A socket read fails once a
//! reply frame has not completed within `op_timeout` of its first byte,
//! so a server trickling a reply costs one attempt, not the campaign.
//! Once the per-op retry budget is exhausted a circuit breaker
//! trips: the system marks itself broken, the runner's next fault check
//! aborts the campaign with an `io::Error` before any slot is read, and
//! the caller (the experiments cache) falls back to local execution —
//! counted in `resilience.breaker_trips`, never silent. An optional
//! [`ChaosSpec`] wires a [`ChaosStream`] fault schedule under the whole
//! stack for the chaos byte-identity gates.

use crate::observe::{retire_blocks, write_block, ClientSpec, ObservedCar, TypeObservation};
use crate::systems::{Delivery, MeasuredSystem};
use serde::{Deserialize, Serialize, Value};
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use surgescope_api::{PriceEstimate, RateLimitError, TimeEstimate};
use surgescope_city::CityModel;
use surgescope_geo::{displacement, LatLng, LocalProjection};
use surgescope_marketplace::GroundTruth;
use surgescope_obs::{Counter, Histogram, MetricsRegistry};
use surgescope_serve::chaos::{ChaosCounters, ChaosPlan, ChaosStream};
use surgescope_serve::wire::{self, hello, rpc, WireError};
use surgescope_simcore::{Backoff, FaultOutcome, FaultPlan, SimRng, SimTime};

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
    /// Connections; `conns[0]` opened the campaign and carries the probe
    /// and `FINISH` traffic. Each carries one contiguous chunk of the
    /// clients' pings, and one `PING` per tick.
    conns: Vec<Conn>,
    link: Link,
    tick: u64,
    tick_secs: u64,
    delivery: Delivery,
    decoder: Decoder,
    /// Breaker state: the message of the failure that exhausted a retry
    /// budget. Once set, every wire op is a no-op and
    /// [`RemoteMeasuredSystem::fault`] reports the campaign as dead.
    broken: Option<String>,
}

impl RemoteMeasuredSystem {
    /// Connects `connections` sockets to `addr` and opens a campaign
    /// world there, with the given retry policy and optional chaos
    /// injection (see [`RemoteOptions`]). The initial handshakes (HELLO
    /// on every connection, OPEN on the first) run clean — chaos arms
    /// once every connection is up — and an initial connect failure
    /// surfaces immediately (the caller's local fallback is cheaper than
    /// a campaign that never existed).
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

        let campaign =
            wire::open(&mut first.stream, spec.city, spec.seed, spec.era, spec.surge_policy)?;
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
            delivery: Delivery::new(faults, spec.seed),
            decoder: Decoder::new(spec.city.projection),
            broken: None,
        })
    }

    /// Delayed responses currently in flight client-side (diagnostic).
    pub fn in_flight(&self) -> usize {
        self.delivery.transport.in_flight()
    }

    /// The tripped circuit breaker, if any: the campaign can no longer
    /// make wire progress and must abort (the runner checks this after
    /// the pings and after the probes). `io::Error` is not `Clone`, so
    /// the stored message is re-wrapped per call.
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
        self.delivery.register(reg);
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
/// their fault outcomes and their observation slots. A connection past
/// the last chunk gets the empty default.
#[derive(Default)]
struct Chunk<'a> {
    clients: &'a [ClientSpec],
    outcomes: &'a [FaultOutcome],
    slots: &'a mut [Vec<TypeObservation>],
}

/// Sends a chunk's undropped pings for `tick` as one `PING` frame, empty
/// when none is left, and returns how many it sent.
fn send_chunk(
    stream: &mut ChaosStream<TcpStream>,
    campaign: u64,
    tick: u64,
    proj: &LocalProjection,
    chunk: &Chunk<'_>,
) -> io::Result<usize> {
    let sent = chunk
        .clients
        .iter()
        .zip(chunk.outcomes)
        .filter(|(_, oc)| **oc != FaultOutcome::Drop)
        .map(|(c, _)| (c.key, proj.to_latlng(c.position)));
    wire::send_ping(stream, campaign, tick, sent)
}

/// Decodes `PING` replies straight into the chunks' observation slots,
/// keeping its car table tick over tick.
struct Decoder {
    proj: LocalProjection,
    /// The current reply's table, each car as a client observes it:
    /// position projected once, path reduced to its displacement once.
    table: Vec<ObservedCar>,
}

impl Decoder {
    fn new(proj: LocalProjection) -> Self {
        Decoder { proj, table: Vec::new() }
    }

    /// Decodes a `RESP_PING` payload answering the `sent` undropped pings
    /// of `chunk` into the chunk's slots, each response into the next
    /// undropped slot, delayed or not, reclaiming blocks from `spare`.
    /// Every block is written by [`write_block`], as in the in-process
    /// kernel, so no `PingClientResponse` is built. A refused payload may
    /// leave slots half-written; decoding the chunk again overwrites them.
    fn decode(
        &mut self,
        payload: &[u8],
        sent: usize,
        chunk: &mut Chunk<'_>,
        spare: &mut Vec<TypeObservation>,
    ) -> Result<(), WireError> {
        self.table.clear();
        let mut sink = SlotSink { dec: self, spare, chunk, slot: None, next: 0, tiers: 0 };
        let walked = wire::walk_ping_reply(payload, sent, &mut sink);
        sink.end_response();
        walked
    }
}

/// The [`wire::PingReplySink`] that writes a reply into a chunk's slots;
/// see [`Decoder::decode`].
struct SlotSink<'d, 's, 'c> {
    dec: &'d mut Decoder,
    spare: &'s mut Vec<TypeObservation>,
    chunk: &'s mut Chunk<'c>,
    /// The chunk index of the slot the current response answers.
    slot: Option<usize>,
    /// The chunk index of the next slot a response may answer.
    next: usize,
    /// Tiers written into the current slot so far.
    tiers: usize,
}

impl SlotSink<'_, '_, '_> {
    /// Ends the current response: the blocks it did not write retire to
    /// the pool.
    fn end_response(&mut self) {
        if let Some(i) = self.slot.take() {
            retire_blocks(&mut self.chunk.slots[i], self.tiers, self.spare);
        }
    }
}

impl wire::PingReplySink for SlotSink<'_, '_, '_> {
    fn car(&mut self, car: &wire::TableCar<'_>) {
        let proj = &self.dec.proj;
        self.dec.table.push(ObservedCar {
            id: car.id,
            position: proj.to_meters(car.position),
            displacement: car.path_ends().map(|(first, last)| displacement(first, last, proj)),
        });
    }

    /// Moves on to the chunk's next undropped slot, whose blocks the
    /// response's tiers overwrite. The walker hands on exactly one
    /// response per undropped slot.
    fn response(&mut self, _at: SimTime, _location: LatLng, _tiers: usize) {
        self.end_response();
        let outcomes = self.chunk.outcomes;
        while outcomes.get(self.next) == Some(&FaultOutcome::Drop) {
            self.next += 1;
        }
        self.tiers = 0;
        if self.next < self.chunk.slots.len() {
            self.slot = Some(self.next);
            self.next += 1;
        }
    }

    fn tier(&mut self, tier: &wire::ShownTier<'_>) {
        let Some(i) = self.slot else { return };
        let table = &self.dec.table;
        let cars = tier.shown().map(|at| table[at]);
        let slot = &mut self.chunk.slots[i];
        write_block(slot, self.tiers, self.spare, tier.car_type, tier.ewt_min, tier.surge, cars);
        self.tiers += 1;
    }
}

/// Reads the reply to a chunk's `PING` of `sent` pings and decodes it
/// straight into the chunk's slots ([`Decoder::decode`]).
///
/// Safe to re-run wholesale after a reconnect. A reply refused part-way
/// through decoding may leave slots half-written, but the retry reruns
/// the whole exchange: the decode overwrites every slot, and the frozen
/// snapshot answers byte-identically however often it is asked. A
/// tripped breaker aborts the campaign before any slot is read.
fn read_chunk(
    stream: &mut ChaosStream<TcpStream>,
    sent: usize,
    chunk: &mut Chunk<'_>,
    dec: &mut Decoder,
    spare: &mut Vec<TypeObservation>,
) -> io::Result<()> {
    let reply = wire::read_ping_frame(stream)?;
    dec.decode(reply.payload(), sent, chunk, spare).map_err(WireError::into_io)
}

/// One tick's ping exchanges, one per connection: every connection's
/// `PING` for `tick` is written before any reply is read, so the server's
/// workers answer the batches in parallel, and the replies are read in
/// connection order on the calling thread. A connection whose write or
/// read fails reruns its whole exchange under the retry policy.
fn exchange_all(
    conns: &mut [Conn],
    link: &Link,
    tick: u64,
    mut chunks: Vec<Chunk<'_>>,
    dec: &mut Decoder,
    spare: &mut Vec<TypeObservation>,
) -> io::Result<()> {
    let proj = dec.proj;
    let sent: Vec<io::Result<usize>> = conns
        .iter_mut()
        .zip(&chunks)
        .map(|(conn, chunk)| send_chunk(&mut conn.stream, link.campaign, tick, &proj, chunk))
        .collect();
    for ((conn, sent), chunk) in conns.iter_mut().zip(sent).zip(&mut chunks) {
        let first = sent.and_then(|n| read_chunk(&mut conn.stream, n, chunk, dec, spare));
        retry_after(conn, link, first, |c| {
            let n = send_chunk(&mut c.stream, link.campaign, tick, &proj, chunk)?;
            read_chunk(&mut c.stream, n, chunk, dec, spare)
        })?;
    }
    Ok(())
}

impl MeasuredSystem for RemoteMeasuredSystem {
    /// Counts the tick, which this tick's `PING`s carry to the server: the
    /// first of them to arrive ticks the world there. No I/O happens here.
    fn advance_tick(&mut self) {
        self.tick += 1;
        self.delivery.transport.advance_tick();
    }

    fn now(&self) -> SimTime {
        SimTime(self.tick * self.tick_secs)
    }

    /// Same contract and the same `Delivery` as the in-process system:
    /// outcomes drawn in client order, each connection answering one
    /// contiguous chunk of clients into their slots, then delayed
    /// responses queued and due ones merged in `(sent_tick, client)`
    /// order. Every `PING` names this tick, so the server's world stands
    /// at it for all of them: when a chunk is sent, and in which order the
    /// replies are read, cannot change what any ping observes — which is
    /// also why a whole chunk can be re-sent blind after a reconnect.
    fn ping_all_into(&mut self, clients: &[ClientSpec], out: &mut Vec<Vec<TypeObservation>>) {
        if self.broken.is_some() {
            return;
        }
        let _span = self.delivery.metrics.ping.start();
        let (outcomes, spare) = self.delivery.draw(clients.len(), out);

        // Chunks of ceil(n / K) clients, one per connection in order;
        // connections past the last chunk send an empty `PING`.
        let size = clients.len().div_ceil(self.conns.len()).max(1);
        let mut chunks: Vec<Chunk<'_>> = clients
            .chunks(size)
            .zip(outcomes.chunks(size))
            .zip(out.chunks_mut(size))
            .map(|((clients, outcomes), slots)| Chunk { clients, outcomes, slots })
            .collect();
        chunks.resize_with(self.conns.len(), Chunk::default);
        let dec = &mut self.decoder;
        if let Err(e) = exchange_all(&mut self.conns, &self.link, self.tick, chunks, dec, spare) {
            self.trip(&e);
            return;
        }
        self.delivery.deliver(out, self.tick_secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::placement;
    use crate::observe::response_to_observations;
    use surgescope_api::{ApiService, PingConfig, ProtocolEra, WorldSnapshot};
    use surgescope_city::CarType;
    use surgescope_marketplace::{Marketplace, MarketplaceConfig};
    use surgescope_simcore::SimDuration;
    use surgescope_store::encode_value;

    use FaultOutcome::{Deliver, Drop};

    /// The store codec's bytes of `blocks`, every float as its raw bits.
    fn bytes(blocks: &[TypeObservation]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_value(&blocks.to_value(), &mut out);
        out
    }

    /// A chunk of `outcomes` and `slots`.
    fn chunk<'a>(outcomes: &'a [FaultOutcome], slots: &'a mut [Vec<TypeObservation>]) -> Chunk<'a> {
        Chunk { clients: &[], outcomes, slots }
    }

    /// Asserts that a decode of `payload` left in `slots` what the
    /// reference pipeline, `decode_ping_reply` then
    /// `response_to_observations`, gives for `outcomes`: each undropped
    /// slot, delayed or not, its response's conversion, and each dropped
    /// slot empty.
    fn assert_matches_reference(
        payload: &[u8],
        outcomes: &[FaultOutcome],
        slots: &[Vec<TypeObservation>],
        proj: &LocalProjection,
        at: &str,
    ) {
        let sent = outcomes.iter().filter(|oc| **oc != Drop).count();
        let reference = wire::decode_ping_reply(payload, sent).expect("reference decode");
        let mut want = reference.iter().map(|r| bytes(&response_to_observations(r, proj)));
        for (i, (slot, oc)) in slots.iter().zip(outcomes).enumerate() {
            if *oc == Drop {
                assert!(slot.is_empty(), "{at}, slot {i}: a dropped ping's slot holds blocks");
            } else {
                let want = want.next().expect("a response per undropped ping");
                assert!(bytes(slot) == want, "{at}, slot {i}: the slot differs from the reference");
            }
        }
        assert!(want.next().is_none(), "{at}: responses left over");
    }

    /// A `RESP_PING` payload written field by field, for values no
    /// snapshot holds.
    #[derive(Default)]
    struct Payload(Vec<u8>);

    impl Payload {
        fn u32(&mut self, v: u32) -> &mut Self {
            self.0.extend_from_slice(&v.to_le_bytes());
            self
        }

        fn u64(&mut self, v: u64) -> &mut Self {
            self.0.extend_from_slice(&v.to_le_bytes());
            self
        }

        fn latlng(&mut self, p: LatLng) -> &mut Self {
            self.u64(p.lat.to_bits()).u64(p.lng.to_bits())
        }

        fn car(&mut self, id: u64, position: LatLng, path: &[LatLng]) -> &mut Self {
            self.u64(id).latlng(position).u32(path.len() as u32);
            path.iter().fold(self, |p, &point| p.latlng(point))
        }

        fn response(&mut self, at: u64, location: LatLng, tiers: u32) -> &mut Self {
            self.u64(at).latlng(location).u32(tiers)
        }

        fn tier(
            &mut self,
            car_type: CarType,
            ewt_min: f64,
            surge: f64,
            shown: &[u32],
        ) -> &mut Self {
            self.0.push(car_type as u8);
            self.u64(ewt_min.to_bits()).u64(surge.to_bits()).u32(shown.len() as u32);
            shown.iter().fold(self, |p, &i| p.u32(i))
        }
    }

    const HERE: LatLng = LatLng { lat: 37.78, lng: -122.41 };
    const ODD: LatLng = LatLng { lat: f64::NAN, lng: -0.0 };

    /// Three responses over a table of four cars: NaN and -0 in every
    /// float field, an empty path, a one-point path, a NaN path point
    /// between two good ones and a NaN path end, a tier with no cars and a
    /// response with no tiers.
    fn odd_reply() -> Vec<u8> {
        let there = LatLng::new(37.781, -122.409);
        let mut p = Payload::default();
        p.u32(4)
            .car(1, ODD, &[])
            .car(2, HERE, &[HERE])
            .car(3, there, &[HERE, ODD, there])
            .car(4, HERE, &[ODD, HERE])
            .u32(3)
            .response(86_400, ODD, 2)
            .tier(CarType::UberX, f64::NAN, -0.0, &[0, 1, 2, 3])
            .tier(CarType::UberBlack, 3.5, 1.0, &[])
            .response(u64::MAX, HERE, 1)
            .tier(CarType::UberPool, -0.0, f64::INFINITY, &[3, 0])
            .response(0, HERE, 0);
        p.0
    }

    /// One outcome of each kind for [`odd_reply`]'s three responses.
    const ODD_OUTCOMES: [FaultOutcome; 4] =
        [Deliver, Drop, FaultOutcome::Delay(SimDuration::secs(7)), Deliver];

    /// One response whose one tier shows one car with an empty path:
    /// 89 bytes, laid out as
    ///
    /// ```text
    /// [0..4] cars | [4..32] car (its path count at [28..32])
    /// [32..36] n | [36..64] response head (its tier count at [60..64])
    /// [64] car_type | [65..81] ewt_min, surge | [81..85] shown | [85..89] index
    /// ```
    fn minimal_reply() -> Vec<u8> {
        let mut p = Payload::default();
        p.u32(1).car(1, HERE, &[]).u32(1).response(5, HERE, 1).tier(CarType::UberX, 2.0, 1.0, &[0]);
        p.0
    }

    /// The remote world shape (quarter-scale SF downtown measured from a
    /// 500 m lattice), its ping core in `era` with `sigma_m` of location
    /// noise, and its pings.
    fn remote_world(
        era: ProtocolEra,
        sigma_m: f64,
    ) -> (Marketplace, PingConfig, Vec<(u64, LatLng)>, LocalProjection) {
        let mut city = CityModel::san_francisco_downtown();
        city.supply = city.supply.scaled(0.25);
        city.demand = city.demand.scaled(0.25);
        let proj = city.projection;
        let pings = placement(&city.measurement_region, 500.0)
            .iter()
            .map(|c| (c.key, proj.to_latlng(c.position)))
            .collect();
        let seed = 7_0931;
        let mp = Marketplace::new(city, MarketplaceConfig::default(), seed);
        let ping = ApiService::new(era, seed ^ 0xB0B5).with_location_noise(sigma_m).ping_config();
        (mp, ping, pings, proj)
    }

    /// The server's reply to the undropped pings of `batch` from `snap`,
    /// and how many it answers.
    fn reply(
        ping: &PingConfig,
        snap: &WorldSnapshot,
        batch: &[(u64, LatLng)],
        outcomes: &[FaultOutcome],
    ) -> (Vec<u8>, usize) {
        let sent: Vec<_> =
            batch.iter().zip(outcomes).filter(|(_, oc)| **oc != Drop).map(|(p, _)| *p).collect();
        let mut payload = Vec::new();
        wire::encode_ping_reply(&mut payload, ping, snap, &sent, wire::DEFAULT_MAX_FRAME)
            .expect("encode reply");
        (payload, sent.len())
    }

    /// The client decoder writes exactly the reference conversion of each
    /// response: a hand-built reply of odd values, then 120 ticks of the
    /// remote world shape in both eras, with and without location noise,
    /// in batches of 1, 12 and every client, under a fault plan that
    /// delivers, delays and drops. Each batch size keeps one slot buffer
    /// tick over tick and goes through a [`Delivery`]'s draw and deliver
    /// steps, as `ping_all_into` does, so delayed responses leave their
    /// slots and come back into them late.
    #[test]
    fn client_decoder_matches_reference_conversion() {
        let proj = LocalProjection::new(HERE);
        let payload = odd_reply();
        let mut slots = vec![Vec::new(); ODD_OUTCOMES.len()];
        let mut dec = Decoder::new(proj);
        let mut spare = Vec::new();
        dec.decode(&payload, 3, &mut chunk(&ODD_OUTCOMES, &mut slots), &mut spare)
            .expect("decode");
        assert_matches_reference(&payload, &ODD_OUTCOMES, &slots, &proj, "odd");
        let cars = &slots[0][0].cars;
        assert!(cars[0].position.y.is_nan(), "a NaN latitude stays NaN");
        assert!(cars[0].displacement.is_none(), "an empty path has no displacement");
        assert!(cars[1].displacement.is_none(), "a one-point path has no displacement");
        assert!(cars[2].displacement.is_some_and(|d| d.x.is_finite()), "ends, not middle");
        assert!(cars[3].displacement.is_some_and(|d| d.y.is_nan()), "a NaN end");
        assert_eq!(slots[0][0].surge.to_bits(), (-0.0f64).to_bits());
        assert!(slots[3].is_empty(), "a response with no tiers");

        let plan = FaultPlan { drop_chance: 0.1, delay_chance: 0.2, max_delay_secs: 20 };
        let mut seen = [0usize; 3];
        for era in [ProtocolEra::Feb2015, ProtocolEra::Apr2015] {
            for sigma_m in [0.0, 50.0] {
                let (mut mp, ping, pings, proj) = remote_world(era, sigma_m);
                let sizes = [1, 12, pings.len()];
                let mut fleets: Vec<_> = sizes
                    .iter()
                    .map(|_| (Decoder::new(proj), Vec::new(), Delivery::new(plan, 0xDEC0DE)))
                    .collect();
                for tick in 0..120 {
                    mp.tick();
                    let snap = WorldSnapshot::of(&mp);
                    for ((dec, slots, delivery), &size) in fleets.iter_mut().zip(&sizes) {
                        delivery.transport.advance_tick();
                        let (outcomes, spare) = delivery.draw(pings.len(), slots);
                        for oc in outcomes {
                            seen[match oc {
                                Deliver => 0,
                                Drop => 1,
                                _ => 2,
                            }] += 1;
                        }
                        let batches = pings.chunks(size).zip(outcomes.chunks(size));
                        for (c, ((batch, outcomes), slots)) in
                            batches.zip(slots.chunks_mut(size)).enumerate()
                        {
                            let at = format!(
                                "{era:?}, noise {sigma_m} m, tick {tick}, batch {c} of {size}"
                            );
                            let (payload, sent) = reply(&ping, &snap, batch, outcomes);
                            dec.decode(&payload, sent, &mut chunk(outcomes, slots), spare)
                                .expect("decode");
                            assert_matches_reference(&payload, outcomes, slots, &proj, &at);
                        }
                        delivery.deliver(slots, 5);
                    }
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "outcomes {seen:?}: a kind never came up");
    }

    /// A reply refused part-way through decoding leaves slots that a
    /// rerun of the whole decode puts right: for every truncation of a
    /// 12-ping reply, decoding the cut payload into warmed slots fails,
    /// and decoding the whole reply into the same slots then leaves them
    /// as a decode into fresh slots does.
    #[test]
    fn a_refused_reply_leaves_slots_safe_to_rerun() {
        let (mut mp, ping, pings, proj) = remote_world(ProtocolEra::Apr2015, 50.0);
        let batch = &pings[..12];
        let outcomes: Vec<_> = (0..12)
            .map(|i| match i % 4 {
                1 => FaultOutcome::Delay(SimDuration::secs(3)),
                3 => Drop,
                _ => Deliver,
            })
            .collect();
        for _ in 0..60 {
            mp.tick();
        }
        let (warm, _) = reply(&ping, &WorldSnapshot::of(&mp), batch, &[Deliver; 12]);
        for _ in 0..60 {
            mp.tick();
        }
        let (payload, sent) = reply(&ping, &WorldSnapshot::of(&mp), batch, &outcomes);

        let mut spare = Vec::new();
        let mut fresh = vec![Vec::new(); 12];
        Decoder::new(proj)
            .decode(&payload, sent, &mut chunk(&outcomes, &mut fresh), &mut spare)
            .expect("fresh");

        let mut dec = Decoder::new(proj);
        let mut slots = vec![Vec::new(); 12];
        dec.decode(&warm, 12, &mut chunk(&[Deliver; 12], &mut slots), &mut spare)
            .expect("warm-up");
        assert!(slots.iter().all(|s| !s.is_empty()), "every slot is warm");
        // `Delivery::draw` empties each dropped slot before any decode.
        for (slot, oc) in slots.iter_mut().zip(&outcomes) {
            if *oc == Drop {
                spare.append(slot);
            }
        }
        for cut in 0..payload.len() {
            let mut chunk = chunk(&outcomes, &mut slots);
            let cut_decode = dec.decode(&payload[..cut], sent, &mut chunk, &mut spare);
            assert!(cut_decode.is_err(), "cut at {cut}");
            dec.decode(&payload, sent, &mut chunk, &mut spare).expect("the whole reply");
            for (i, (got, want)) in slots.iter().zip(&fresh).enumerate() {
                assert!(bytes(got) == bytes(want), "cut at {cut}: slot {i} differs");
            }
        }
    }

    /// Every truncation of a request and a reply, trailing bytes, an
    /// unknown tier, an index equal to the table's length and counts far
    /// beyond the bytes that follow are refused by the request decoder
    /// and by the reply walker through both of its sinks, the reference
    /// `decode_ping_reply` and the client's slot decoder. Seeded
    /// single-byte flips are refused by the frame's CRC, and the payload
    /// decoders take the same flips without a panic.
    #[test]
    fn corrupt_ping_payloads_are_refused_without_panic() {
        let mut dec = Decoder::new(LocalProjection::new(HERE));
        let mut slots = vec![Vec::new(); ODD_OUTCOMES.len()];
        let mut spare = Vec::new();
        // Decodes `payload` as the answer to `n` pings through both sinks,
        // the client's into slots of `outcomes`; true if both refuse it.
        let mut refused = |payload: &[u8], n: usize, outcomes: &[FaultOutcome]| {
            let reference = wire::decode_ping_reply(payload, n).is_err();
            let slots = &mut slots[..outcomes.len()];
            let client = dec.decode(payload, n, &mut chunk(outcomes, slots), &mut spare).is_err();
            reference && client
        };

        let reply = odd_reply();
        let mut request = Vec::new();
        let pings = [(1, LatLng::new(37.7, -122.4)), (2, LatLng::new(37.8, -122.5))];
        wire::encode_ping_request(&mut request, 9, 4, pings);
        assert!(!refused(&reply, 3, &ODD_OUTCOMES), "the unaltered reply decodes");
        for cut in 0..reply.len() {
            assert!(refused(&reply[..cut], 3, &ODD_OUTCOMES), "reply cut at {cut}");
        }
        for cut in 0..request.len() {
            assert!(wire::decode_ping_request(&request[..cut]).is_err(), "request cut at {cut}");
        }
        let mut padded = reply.clone();
        padded.push(0);
        assert!(refused(&padded, 3, &ODD_OUTCOMES), "trailing bytes");
        let mut padded = request.clone();
        padded.push(0);
        assert!(wire::decode_ping_request(&padded).is_err(), "request length off by one");
        assert!(refused(&reply, 1, &[Deliver]), "a reply count other than the request's");

        let mut rng = SimRng::seed_from_u64(0xF11D);
        for (kind, payload) in [(wire::RESP_PING, &reply), (wire::REQ_PING, &request)] {
            let frame = wire::frame_with(kind, |out| out.extend_from_slice(payload));
            for _ in 0..1_000 {
                let mut flipped = frame.clone();
                let at = rng.range_usize(9, flipped.len());
                flipped[at] ^= rng.range_u64(1, 256) as u8;
                let read = wire::read_frame_with(
                    &mut &flipped[..],
                    wire::DEFAULT_MAX_FRAME,
                    |_, _| Ok(()),
                );
                assert!(read.is_err(), "a flip at byte {at} passed the CRC");
                let mut p = payload.clone();
                p[at - 9] = flipped[at];
                if kind == wire::RESP_PING {
                    refused(&p, 3, &ODD_OUTCOMES);
                } else {
                    let _ = wire::decode_ping_request(&p);
                }
            }
        }

        let minimal = minimal_reply();
        assert_eq!(minimal.len(), 89, "the offsets below assume this layout");
        assert!(!refused(&minimal, 1, &[Deliver]), "the unaltered payload decodes");
        let patched = |at: usize, bytes: &[u8]| {
            let mut bad = minimal.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            bad
        };
        // A tier index past CarType::ALL, and a car index equal to the
        // table's length.
        let bad = patched(64, &[CarType::ALL.len() as u8]);
        assert!(refused(&bad, 1, &[Deliver]), "unknown tier index");
        let bad = patched(85, &1u32.to_le_bytes());
        assert!(refused(&bad, 1, &[Deliver]), "an index equal to the table's length");

        // Counts far beyond the bytes that follow are refused before any
        // reservation (a u32::MAX-element reserve would abort the test).
        let huge = u32::MAX.to_le_bytes();
        assert!(refused(&patched(0, &huge), 1, &[Deliver]), "table count");
        assert!(refused(&patched(28, &huge), 1, &[Deliver]), "path count");
        assert!(refused(&patched(32, &huge), u32::MAX as usize, &[Deliver]), "response count");
        assert!(refused(&patched(60, &huge), 1, &[Deliver]), "tier count");
        assert!(refused(&patched(81, &huge), 1, &[Deliver]), "shown count");
        let mut bad = request.clone();
        bad[16..20].copy_from_slice(&huge);
        assert!(wire::decode_ping_request(&bad).is_err(), "ping count");
    }
}
