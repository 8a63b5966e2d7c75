//! The wire protocol: framing, request/response kinds, payload codecs.
//!
//! Frames reuse the `store` crate's conventions so one binary grammar
//! covers disk and network:
//!
//! ```text
//! | len: u32 LE | crc32: u32 LE | body (len bytes) |
//! body = | kind: u8 | payload |
//! ```
//!
//! `len` covers the body only; the CRC32 is computed over the whole body
//! (kind byte included), with the same polynomial as the event log.
//!
//! Every payload but `PING`'s and `RESP_PING`'s is a [`serde::Value`]
//! tree through [`surgescope_store::codec`]. `PING` is the hot verb: a
//! remote client sends exactly one per connection per tick, carrying its
//! whole chunk of pings (none, when the chunk is empty or all dropped),
//! and both it and its reply use a fixed little-endian layout instead of
//! a `Value` tree:
//!
//! ```text
//! PING      = campaign u64 | tick u64 | n u32 | n × (key u64 | lat f64 | lng f64)
//! RESP_PING = cars u32 | cars × car | n u32 | n × response  (responses in request order)
//! car       = id u64 | lat f64 | lng f64 | path u32 | path × (lat f64 | lng f64)
//! response  = at u64 | lat f64 | lng f64 | tiers u32 | tiers × tier
//! tier      = car_type u8 | ewt_min f64 | surge f64 | shown u32 | shown × index u32
//! ```
//!
//! `tick` is the campaign tick the batch reads: the server moves the
//! world one tick for a `PING` naming the tick after its current one,
//! reads it unmoved for one naming the current tick, and refuses any
//! other, so no verb exists only to advance the world.
//!
//! Neighbouring clients see mostly the same cars, so a reply lists each
//! car it shows once, in a table, and each tier lists its shown cars,
//! nearest first, as indices into that table. The table runs in order of
//! first sighting (request order, then tier order, then nearest first),
//! so a reply's bytes are a pure function of the snapshot and the batch.
//! `car_type` is the tier's index in `CarType::ALL` and path points run
//! oldest first, so the layout carries exactly the fields of a
//! [`PingClientResponse`]. Both codecs write every float as its raw
//! IEEE-754 bits, so a remote campaign's NaN gaps survive byte-exactly.
//!
//! [`encode_ping_reply`] is the layout's one production encoder: it
//! answers a batch straight from the tick's [`WorldSnapshot`] through
//! [`PingConfig::ping_visit`], rendering each shown car once.
//! [`decode_ping_reply`] decodes each table car once and hands every
//! sighting of it a clone of that car's one path handle. The layout's
//! decoders check every count against the bytes that remain before
//! reserving anything, and refuse a wrong length, an unknown tier, an
//! index past the table, trailing bytes and a reply count other than the
//! request's; they never panic.
//!
//! Request kinds live in `0x01..=0x7F`, responses in `0x80..=0xFF`;
//! production builds serve six request kinds. A connection speaks
//! strictly request→response in order, and the server answers in
//! arrival order.
//!
//! One reader, [`read_frame_with`], parses frames on both sides and stops
//! at the CRC-checked body; the caller decodes the payload its kind
//! carries. The sides differ only in the caller's `stalled` closure,
//! which sees every read that times out and every data read inside a
//! frame. The client fails on a timed-out read and on a reply frame not
//! complete within its socket's read timeout of its first byte
//! ([`ReadDeadline`]), so a server that trickles a reply cannot hold it;
//! the server waits at a frame boundary and drops a frame whose I/O
//! deadline has passed.

use serde::{Deserialize, Serialize, Value};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use surgescope_api::{CarInfo, PingClientResponse, PingConfig, SnapCar, TypeStatus, WorldSnapshot};
use surgescope_city::CarType;
use surgescope_geo::{LatLng, PathVector};
use surgescope_simcore::SimTime;
use surgescope_store::crc32::crc32;
use surgescope_store::{decode_value, encode_value};

/// Protocol version carried in the HELLO handshake. Version 2 gave
/// `PING` and `RESP_PING` their batched binary layout; version 3 gave
/// `RESP_PING` its car table; version 4 gave `PING` its tick.
pub const PROTO_VERSION: u64 = 4;

/// Default upper bound on a frame body. A tick's `PING` reply for a few
/// dozen clients is a few tens of kilobytes; 16 MiB leaves room for the
/// FINISH ground-truth payload of a multi-day campaign.
pub const DEFAULT_MAX_FRAME: usize = 1 << 24;

/// Session handshake; must be the first frame on every connection.
pub const REQ_HELLO: u8 = 0x01;
/// Open a campaign (scaled city + seed + era + surge policy).
pub const REQ_OPEN: u8 = 0x02;
/// A batch of pingClient requests against the campaign tick it names,
/// which must be the current tick (read unmoved) or the next one (the
/// world advances first), in the binary layout of the module docs.
pub const REQ_PING: u8 = 0x05;
/// `estimates/price` against a campaign's current tick snapshot.
pub const REQ_PRICE: u8 = 0x06;
/// `estimates/time` against a campaign's current tick snapshot.
pub const REQ_TIME: u8 = 0x07;
/// Finalize a campaign and fetch its ground truth.
pub const REQ_FINISH: u8 = 0x08;
/// Unit-test builds only: panic the serving worker while it holds the
/// campaign lock, deliberately poisoning it, so the lock-poisoning
/// recovery path has a deterministic trigger. Every other build answers
/// this kind as unknown.
#[cfg(test)]
pub const REQ_CRASH: u8 = 0x0D;

/// HELLO acknowledgement, carries the session token.
pub const RESP_HELLO: u8 = 0x81;
/// OPEN acknowledgement, carries the campaign id.
pub const RESP_OPEN: u8 = 0x82;
/// One `PingClientResponse` per ping of a batch, in the binary layout.
pub const RESP_PING: u8 = 0x85;
/// A list of `PriceEstimate`s.
pub const RESP_PRICE: u8 = 0x86;
/// A list of `TimeEstimate`s.
pub const RESP_TIME: u8 = 0x87;
/// Campaign ground truth.
pub const RESP_FINISH: u8 = 0x88;
/// Protocol-level error; the server closes the connection after sending.
pub const RESP_ERR: u8 = 0xE0;
/// Rate-limited estimates request (`account`, `retry_after_secs`).
pub const RESP_THROTTLED: u8 = 0xE1;

/// Everything that can go wrong reading a frame.
#[derive(Debug)]
pub enum WireError {
    /// Clean end of stream at a frame boundary (peer closed).
    Closed,
    /// Underlying socket error (including read/write timeouts).
    Io(io::Error),
    /// The bytes violate the framing grammar or the payload's codec:
    /// truncated prefix or body, zero/oversized length, CRC mismatch, or
    /// undecodable payload.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "wire: connection closed"),
            WireError::Io(e) => write!(f, "wire: io error: {e}"),
            WireError::Malformed(m) => write!(f, "wire: malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// Converts into an `io::Error` (client-side convenience).
    pub fn into_io(self) -> io::Error {
        match self {
            WireError::Io(e) => e,
            WireError::Closed => {
                io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed")
            }
            WireError::Malformed(m) => io::Error::new(io::ErrorKind::InvalidData, m),
        }
    }
}

fn malformed(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

/// Renders one complete frame (`len | crc | kind | payload`) into bytes,
/// with `payload` writing the payload straight into the frame's buffer.
pub fn frame_with(kind: u8, payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&[0; 8]);
    out.push(kind);
    payload(&mut out);
    let len = (out.len() - 8) as u32;
    // The CRC covers the body: the kind byte and the payload.
    let crc = crc32(&out[8..]);
    out[..4].copy_from_slice(&len.to_le_bytes());
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Renders one frame whose payload is a `Value` tree.
pub fn frame_bytes(kind: u8, payload: &Value) -> Vec<u8> {
    frame_with(kind, |out| encode_value(payload, out))
}

/// Writes one `Value` frame.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &Value) -> io::Result<()> {
    w.write_all(&frame_bytes(kind, payload))?;
    w.flush()
}

/// One CRC-checked frame body: the kind byte, then the payload.
pub struct Frame {
    /// Never empty: the reader refuses a zero length.
    body: Vec<u8>,
}

impl Frame {
    /// The request or response kind.
    pub fn kind(&self) -> u8 {
        self.body[0]
    }

    /// The payload bytes after the kind.
    pub fn payload(&self) -> &[u8] {
        &self.body[1..]
    }

    /// Bytes the frame took on the wire, header included.
    pub fn wire_len(&self) -> u64 {
        8 + self.body.len() as u64
    }

    /// Decodes a `Value` payload, which every kind but `PING` and
    /// `RESP_PING` carries.
    pub fn value(&self) -> Result<Value, WireError> {
        decode_value(self.payload()).map_err(|e| malformed(format!("payload codec: {e}")))
    }
}

/// Reads one frame, client and server alike: the length, checked
/// against `max_frame` before anything else is read, then the CRC and
/// the body. `stalled` is called with the instant the frame's first byte
/// arrived (`None` while none has) after every read that times out,
/// with its error, and after every read that returns data, with `None`;
/// `Ok` keeps reading and an error ends the read with it. Returns the
/// CRC-checked body; the caller decodes the payload its kind carries.
pub fn read_frame_with<R: Read>(
    r: &mut R,
    max_frame: usize,
    mut stalled: impl FnMut(Option<io::Error>, Option<Instant>) -> Result<(), WireError>,
) -> Result<Frame, WireError> {
    let mut started = None;
    let mut word = [0u8; 4];
    fill(r, &mut word, &mut started, &mut stalled)?;
    let len = u32::from_le_bytes(word) as usize;
    if len == 0 || len > max_frame {
        return Err(malformed(format!("frame length {len} outside 1..={max_frame}")));
    }
    fill(r, &mut word, &mut started, &mut stalled)?;
    let want_crc = u32::from_le_bytes(word);
    let mut body = vec![0u8; len];
    fill(r, &mut body, &mut started, &mut stalled)?;
    if crc32(&body) != want_crc {
        return Err(malformed("crc mismatch"));
    }
    Ok(Frame { body })
}

/// Fills `buf`, stamping `started` at the frame's first byte. A close
/// before that byte is `Closed`; a close after it truncates the frame.
fn fill<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    started: &mut Option<Instant>,
    stalled: &mut impl FnMut(Option<io::Error>, Option<Instant>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) if started.is_none() => return Err(WireError::Closed),
            Ok(0) => return Err(malformed("stream closed mid-frame")),
            Ok(n) => {
                started.get_or_insert_with(Instant::now);
                got += n;
                stalled(None, *started)?
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                stalled(Some(e), *started)?
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// A client transport whose read timeout also bounds a whole reply
/// frame, counted from the frame's first byte.
pub trait ReadDeadline {
    /// The transport's per-read timeout, if it has one.
    fn read_deadline(&self) -> Option<Duration>;
}

impl ReadDeadline for TcpStream {
    fn read_deadline(&self) -> Option<Duration> {
        self.read_timeout().ok().flatten()
    }
}

/// Reads one frame (client side): a timed-out read fails, and so does a
/// frame still incomplete `r`'s read deadline after its first byte, so a
/// server trickling a reply faster than the socket timeout cannot hold
/// the read for longer.
fn read_client_frame<R: Read + ReadDeadline>(
    r: &mut R,
    max_frame: usize,
) -> Result<Frame, WireError> {
    let deadline = r.read_deadline();
    read_frame_with(r, max_frame, |timed_out, started| match (timed_out, started) {
        (Some(e), _) => Err(WireError::Io(e)),
        (None, Some(t0)) if deadline.is_some_and(|d| t0.elapsed() > d) => {
            Err(WireError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "reply frame incomplete past the read deadline of its first byte",
            )))
        }
        _ => Ok(()),
    })
}

/// Blocking read of one `Value` frame (client side). Returns the kind,
/// the decoded payload and the bytes consumed.
pub fn read_frame<R: Read + ReadDeadline>(
    r: &mut R,
    max_frame: usize,
) -> Result<(u8, Value, u64), WireError> {
    let frame = read_client_frame(r, max_frame)?;
    Ok((frame.kind(), frame.value()?, frame.wire_len()))
}

/// Reads one reply frame (client side), surfacing a server-side
/// `RESP_ERR` as an error carrying the server's message.
fn read_reply_frame<S: Read + ReadDeadline>(stream: &mut S) -> io::Result<Frame> {
    let frame = read_client_frame(stream, DEFAULT_MAX_FRAME).map_err(WireError::into_io)?;
    if frame.kind() == RESP_ERR {
        let msg = frame
            .value()
            .ok()
            .and_then(|v| v.field("error").ok().and_then(|e| String::from_value(e).ok()))
            .unwrap_or_else(|| "unspecified server error".into());
        return Err(io::Error::other(format!("server: {msg}")));
    }
    Ok(frame)
}

/// One blocking request/response exchange of `Value` kinds (client
/// side); a `RESP_ERR` reply is an error carrying the server's message.
pub fn rpc<S: Read + Write + ReadDeadline>(
    stream: &mut S,
    kind: u8,
    payload: &Value,
) -> io::Result<(u8, Value)> {
    write_frame(stream, kind, payload)?;
    let reply = read_reply_frame(stream)?;
    Ok((reply.kind(), reply.value().map_err(WireError::into_io)?))
}

fn unexpected_reply(kind: u8, got: u8) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("request {kind:#04x} answered with {got:#04x}"),
    )
}

/// [`rpc`] for a request with one acceptable reply kind: any other kind
/// is an error naming both.
pub fn call<S: Read + Write + ReadDeadline>(
    stream: &mut S,
    kind: u8,
    payload: &Value,
    want: u8,
) -> io::Result<Value> {
    let (got, v) = rpc(stream, kind, payload)?;
    if got != want {
        return Err(unexpected_reply(kind, got));
    }
    Ok(v)
}

/// The HELLO handshake (client side): must be a connection's first
/// exchange.
pub fn hello<S: Read + Write + ReadDeadline>(stream: &mut S) -> io::Result<()> {
    let hello = Value::Map(vec![("proto".into(), PROTO_VERSION.to_value())]);
    call(stream, REQ_HELLO, &hello, RESP_HELLO).map(drop)
}

/// One `PING` exchange (client side): [`send_ping`], then
/// [`read_ping_reply`].
pub fn ping<S: Read + Write + ReadDeadline>(
    stream: &mut S,
    campaign: u64,
    tick: u64,
    pings: impl IntoIterator<Item = (u64, LatLng)>,
) -> io::Result<Vec<PingClientResponse>> {
    let n = send_ping(stream, campaign, tick, pings)?;
    read_ping_reply(stream, n)
}

/// Sends `pings`, as `(client key, location)`, against `campaign` at
/// `tick` in one `PING` frame and returns how many it carried. An empty
/// batch is sent too: it moves the world like any other.
pub fn send_ping<S: Write>(
    stream: &mut S,
    campaign: u64,
    tick: u64,
    pings: impl IntoIterator<Item = (u64, LatLng)>,
) -> io::Result<usize> {
    let mut n = 0;
    let frame = frame_with(REQ_PING, |out| n = encode_ping_request(out, campaign, tick, pings));
    stream.write_all(&frame)?;
    stream.flush()?;
    Ok(n)
}

/// Reads the one reply to a `PING` of `n` pings and decodes its
/// responses, one per ping in request order. A malformed reply is
/// `InvalidData`.
pub fn read_ping_reply<S: Read + ReadDeadline>(
    stream: &mut S,
    n: usize,
) -> io::Result<Vec<PingClientResponse>> {
    let reply = read_reply_frame(stream)?;
    if reply.kind() != RESP_PING {
        return Err(unexpected_reply(REQ_PING, reply.kind()));
    }
    decode_ping_reply(reply.payload(), n).map_err(WireError::into_io)
}

/// A decoded `PING` request: the campaign and tick, then each ping as
/// `(client key, location)`. Locations are as sent, not yet validated.
#[derive(Debug)]
pub struct PingBatch {
    /// The campaign every ping reads.
    pub campaign: u64,
    /// The campaign tick every ping reads.
    pub tick: u64,
    /// The pings, in request order.
    pub pings: Vec<(u64, LatLng)>,
}

/// Bytes of a `PING` request's head (campaign, tick, count) and of one
/// ping in it (key, latitude, longitude).
const PING_HEAD: usize = 8 + 8 + 4;
const PING_BYTES: usize = 24;
/// Fewest bytes a response, a tier and a car can take, and the bytes of
/// a path point and of a table index.
const RESPONSE_MIN: usize = 8 + 16 + 4;
const TIER_MIN: usize = 1 + 8 + 8 + 4;
const CAR_MIN: usize = 8 + 16 + 4;
const POINT_BYTES: usize = 16;
const INDEX_BYTES: usize = 4;

fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_latlng(out: &mut Vec<u8>, p: LatLng) {
    put_u64(out, p.lat.to_bits());
    put_u64(out, p.lng.to_bits());
}

/// Appends a `PING` request payload to `out` and returns how many pings
/// it carries.
pub fn encode_ping_request(
    out: &mut Vec<u8>,
    campaign: u64,
    tick: u64,
    pings: impl IntoIterator<Item = (u64, LatLng)>,
) -> usize {
    put_u64(out, campaign);
    put_u64(out, tick);
    let count_at = out.len();
    put_u32(out, 0);
    let mut n = 0;
    for (key, loc) in pings {
        put_u64(out, key);
        put_latlng(out, loc);
        n += 1;
    }
    out[count_at..count_at + 4].copy_from_slice(&(n as u32).to_le_bytes());
    n
}

/// Decodes a `PING` request payload, which must be exactly
/// `20 + 24 n` bytes.
pub fn decode_ping_request(payload: &[u8]) -> Result<PingBatch, WireError> {
    let mut f = Fields(payload);
    let campaign = f.u64()?;
    let tick = f.u64()?;
    let n = f.u32()? as usize;
    let want = PING_HEAD as u64 + PING_BYTES as u64 * n as u64;
    if payload.len() as u64 != want {
        return Err(malformed(format!(
            "PING of {n} pings must be {want} bytes, not {}",
            payload.len()
        )));
    }
    let mut pings = Vec::with_capacity(n);
    for _ in 0..n {
        pings.push((f.u64()?, f.latlng()?));
    }
    Ok(PingBatch { campaign, tick, pings })
}

/// What a `RESP_PING` payload carries besides its responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PingTally {
    /// Car records in the reply's table: one per distinct car shown.
    pub cars: u64,
    /// Table indices in the reply's tiers: one per car shown to a ping.
    pub sightings: u64,
}

/// Appends the `RESP_PING` payload answering `pings` from `snap` to
/// `out`, each response exactly what [`PingConfig::ping_client`] answers.
/// One [`PingConfig::ping_visit`] pass per ping writes the responses into
/// a scratch buffer and marks each shown car in a per-tier slot array,
/// which numbers the cars in order of first sighting; the table then
/// renders each car once, ahead of the responses. The pass keeps count of
/// the payload's size, so a reply whose frame body (kind byte included)
/// would pass `max_frame` bytes is refused as soon as it does, before
/// anything is written to `out` and with scratch bounded by the limit,
/// which keeps every reply within what its reader accepts however large
/// the batch.
pub fn encode_ping_reply(
    out: &mut Vec<u8>,
    ping: &PingConfig,
    snap: &WorldSnapshot,
    pings: &[(u64, LatLng)],
    max_frame: usize,
) -> Result<PingTally, String> {
    // `ping_visit` visits every offered tier in `offered_types` order, so
    // the `t`-th tier of every response shows cars of `tiers[t]`, and
    // `slot[t][i]` holds the table index of its `i`-th car once shown.
    let tiers: Vec<&[SnapCar]> = snap.offered_types().map(|t| snap.cars_of(t)).collect();
    const UNSEEN: u32 = u32::MAX;
    let mut slot: Vec<Vec<u32>> = tiers.iter().map(|cars| vec![UNSEEN; cars.len()]).collect();
    // The table, as (tier, index in the tier's snapshot cars).
    let mut table: Vec<(usize, usize)> = Vec::new();
    let mut table_bytes = 4;
    let mut sightings = 0;
    let now = snap.now();
    let mut responses = Vec::new();
    put_u32(&mut responses, pings.len());
    for (r, &(key, loc)) in pings.iter().enumerate() {
        put_u64(&mut responses, now.as_secs());
        put_latlng(&mut responses, loc);
        put_u32(&mut responses, tiers.len());
        let mut t = 0;
        ping.ping_visit(snap, key, loc, |tier| {
            responses.push(tier.car_type as u8);
            put_u64(&mut responses, tier.ewt_min.to_bits());
            put_u64(&mut responses, tier.surge.to_bits());
            put_u32(&mut responses, tier.shown());
            for &i in tier.nearest() {
                let s = &mut slot[t][i];
                if *s == UNSEEN {
                    *s = table.len() as u32;
                    table.push((t, i));
                    table_bytes += CAR_MIN + POINT_BYTES * tiers[t][i].path.len();
                }
                responses.extend_from_slice(&s.to_le_bytes());
            }
            sightings += tier.shown();
            t += 1;
        });
        if 1 + table_bytes + responses.len() > max_frame {
            return Err(format!(
                "PING reply passes the {max_frame}-byte frame limit at response {}",
                r + 1
            ));
        }
    }

    out.reserve(table_bytes + responses.len());
    put_u32(out, table.len());
    for &(t, i) in &table {
        let car = &tiers[t][i];
        put_u64(out, car.id);
        put_latlng(out, ping.reported_position(car, now));
        put_u32(out, car.path.len());
        for p in car.path.points() {
            put_latlng(out, p);
        }
    }
    out.extend_from_slice(&responses);
    Ok(PingTally { cars: table.len() as u64, sightings: sightings as u64 })
}

/// Decodes a `RESP_PING` payload answering a `PING` of `n` pings. Each
/// table car is decoded once, and every sighting of it shares its path.
pub fn decode_ping_reply(payload: &[u8], n: usize) -> Result<Vec<PingClientResponse>, WireError> {
    let mut f = Fields(payload);
    let cars = f.count(CAR_MIN)?;
    let mut table = Vec::with_capacity(cars);
    for _ in 0..cars {
        let id = f.u64()?;
        let position = f.latlng()?;
        let points = f.count(POINT_BYTES)?;
        let mut path = PathVector::new(points.max(2));
        // The points are read in bulk: paths are most of a table.
        let raw = f.bytes(points * POINT_BYTES)?;
        for p in raw.as_chunks::<8>().0.chunks_exact(2) {
            let (lat, lng) = (f64::from_le_bytes(p[0]), f64::from_le_bytes(p[1]));
            path.push(LatLng { lat, lng });
        }
        table.push(CarInfo { id, position, path: Arc::new(path) });
    }
    let got = f.count(RESPONSE_MIN)?;
    if got != n {
        return Err(malformed(format!("PING of {n} pings answered with {got} responses")));
    }
    let mut responses = Vec::with_capacity(n);
    for _ in 0..n {
        let at = SimTime(f.u64()?);
        let location = f.latlng()?;
        let tiers = f.count(TIER_MIN)?;
        let mut statuses = Vec::with_capacity(tiers);
        for _ in 0..tiers {
            let index = f.u8()?;
            let car_type = *CarType::ALL
                .get(usize::from(index))
                .ok_or_else(|| malformed(format!("unknown tier index {index}")))?;
            let ewt_min = f.f64()?;
            let surge = f.f64()?;
            let shown = f.count(INDEX_BYTES)?;
            let mut infos = Vec::with_capacity(shown);
            for _ in 0..shown {
                let at = f.u32()? as usize;
                let car = table.get(at).ok_or_else(|| {
                    malformed(format!("car index {at} past a table of {} cars", table.len()))
                })?;
                infos.push(car.clone());
            }
            statuses.push(TypeStatus { car_type, cars: infos, ewt_min, surge });
        }
        responses.push(PingClientResponse { at, location, statuses });
    }
    if !f.0.is_empty() {
        return Err(malformed(format!("{} trailing bytes after a PING reply", f.0.len())));
    }
    Ok(responses)
}

/// The unread rest of a layout payload; every read is bounds-checked.
struct Fields<'a>(&'a [u8]);

fn truncated() -> WireError {
    malformed("PING payload truncated")
}

impl<'a> Fields<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.0.split_first_chunk::<N>().ok_or_else(truncated)?;
        self.0 = rest;
        Ok(*head)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or_else(truncated)?;
        self.0 = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.take().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        self.u64().map(f64::from_bits)
    }

    /// A position as sent; NaN and out-of-range values pass through.
    fn latlng(&mut self) -> Result<LatLng, WireError> {
        Ok(LatLng { lat: self.f64()?, lng: self.f64()? })
    }

    /// A count of items at least `min` bytes each, refused when the
    /// bytes left cannot hold that many, so nothing is reserved for
    /// items that are not there.
    fn count(&mut self, min: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.0.len() / min {
            return Err(malformed(format!(
                "count {n} overruns the {} bytes that follow",
                self.0.len()
            )));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use surgescope_simcore::SimRng;

    /// In-memory readers have no socket deadline.
    impl ReadDeadline for io::Cursor<Vec<u8>> {
        fn read_deadline(&self) -> Option<Duration> {
            None
        }
    }

    #[test]
    fn frame_roundtrip() {
        let payload = Value::Map(vec![
            ("campaign".into(), 42u64.to_value()),
            ("x".into(), f64::NAN.to_value()),
        ]);
        let bytes = frame_bytes(REQ_FINISH, &payload);
        let mut cur = io::Cursor::new(bytes.clone());
        let (kind, back, n) = read_frame(&mut cur, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(kind, REQ_FINISH);
        assert_eq!(n as usize, bytes.len());
        assert_eq!(u64::from_value(back.field("campaign").unwrap()).unwrap(), 42);
        // NaN crossed the frame bit-exactly.
        let x = f64::from_value(back.field("x").unwrap()).unwrap();
        assert!(x.is_nan());
    }

    #[test]
    fn crc_flip_detected() {
        let mut bytes = frame_bytes(REQ_PING, &Value::Null);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let mut cur = io::Cursor::new(bytes);
        match read_frame(&mut cur, DEFAULT_MAX_FRAME) {
            Err(WireError::Malformed(m)) => assert!(m.contains("crc")),
            other => panic!("corrupt frame must fail the CRC: {other:?}"),
        }
    }

    #[test]
    fn clean_close_vs_truncated_prefix() {
        let mut empty = io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(
            read_frame(&mut empty, DEFAULT_MAX_FRAME),
            Err(WireError::Closed)
        ));
        let mut partial = io::Cursor::new(vec![0x05, 0x00]);
        assert!(matches!(
            read_frame(&mut partial, DEFAULT_MAX_FRAME),
            Err(WireError::Malformed(_))
        ));
    }

    /// A frame is byte for byte the record an event log appends after its
    /// 24-byte header: one grammar on disk and on the wire.
    #[test]
    fn frame_bytes_match_log_record_bytes() {
        let payload = Value::Map(vec![
            ("campaign".into(), 3u64.to_value()),
            ("lat".into(), f64::NAN.to_value()),
        ]);
        let path = std::env::temp_dir()
            .join(format!("surgescope-wire-frame-{}.sslog", std::process::id()));
        let mut log = surgescope_store::LogWriter::create(&path, 0).unwrap();
        log.append(RESP_PING, &payload).unwrap();
        log.finish().unwrap();
        let file = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let record = &file[surgescope_store::log::HEADER_LEN..];
        assert_eq!(record, &frame_bytes(RESP_PING, &payload)[..]);
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let mut cur = io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cur, 1 << 16),
            Err(WireError::Malformed(_))
        ));
    }

    /// A server that trickles a reply one byte every 30 ms, well inside
    /// a 200 ms socket read timeout, cannot hold the client's read: the
    /// frame must be complete within the read timeout of its first byte.
    #[test]
    fn trickled_reply_fails_the_client_read_at_its_deadline() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().expect("accept");
            let started = Instant::now();
            if peer.write_all(&4096u32.to_le_bytes()).is_err() {
                return;
            }
            // Stops once the client hangs up, or after 3 s at the latest.
            while started.elapsed() < Duration::from_secs(3) {
                std::thread::sleep(Duration::from_millis(30));
                if peer.write_all(&[0xAB]).is_err() {
                    return;
                }
            }
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let t0 = Instant::now();
        let err = read_frame(&mut stream, DEFAULT_MAX_FRAME)
            .expect_err("a trickled reply must fail the read");
        let took = t0.elapsed();
        drop(stream);
        writer.join().expect("writer thread");
        assert!(
            matches!(&err, WireError::Io(e) if e.kind() == io::ErrorKind::TimedOut),
            "unexpected error: {err}"
        );
        assert!(took < Duration::from_secs(1), "the trickled read took {took:?}");
    }

    fn path(points: &[LatLng]) -> Arc<PathVector> {
        let mut p = PathVector::new(8);
        for &pt in points {
            p.push(pt);
        }
        Arc::new(p)
    }

    /// Two responses covering every tier, a NaN and a negative zero in
    /// each float field, a tier with no cars and a car with an empty path.
    fn sample_responses() -> Vec<PingClientResponse> {
        let odd = LatLng { lat: f64::NAN, lng: -0.0 };
        let statuses = CarType::ALL
            .iter()
            .enumerate()
            .map(|(i, &car_type)| TypeStatus {
                car_type,
                cars: (0..i % 3)
                    .map(|c| CarInfo {
                        id: (i * 10 + c) as u64,
                        position: if c == 0 { odd } else { LatLng::new(37.7, -122.4) },
                        path: match c {
                            0 => path(&[]),
                            _ => path(&[
                                odd,
                                LatLng::new(37.71, -122.41),
                                LatLng::new(37.72, -122.4),
                            ]),
                        },
                    })
                    .collect(),
                ewt_min: if i == 0 { f64::NAN } else { i as f64 * 1.5 },
                surge: if i == 1 { -0.0 } else { 1.0 + i as f64 / 10.0 },
            })
            .collect();
        let clean_car = CarInfo {
            id: 5,
            position: LatLng::new(37.78, -122.41),
            path: path(&[LatLng::new(37.779, -122.409), LatLng::new(37.78, -122.41)]),
        };
        vec![
            PingClientResponse { at: SimTime(86_400), location: odd, statuses },
            PingClientResponse {
                at: SimTime(u64::MAX),
                location: LatLng::new(37.78, -122.41),
                statuses: vec![TypeStatus {
                    car_type: CarType::UberT,
                    cars: vec![clean_car],
                    ewt_min: 4.0,
                    surge: 1.0,
                }],
            },
        ]
    }

    /// The layout written from responses rather than a snapshot, for
    /// values no snapshot holds (NaN, -0, an empty path). The table lists
    /// each car id once, in order of first sighting, as the production
    /// encoder does.
    fn reply_payload(responses: &[PingClientResponse]) -> Vec<u8> {
        let mut table: Vec<&CarInfo> = Vec::new();
        let mut body = Vec::new();
        put_u32(&mut body, responses.len());
        for resp in responses {
            put_u64(&mut body, resp.at.as_secs());
            put_latlng(&mut body, resp.location);
            put_u32(&mut body, resp.statuses.len());
            for s in &resp.statuses {
                body.push(s.car_type as u8);
                put_u64(&mut body, s.ewt_min.to_bits());
                put_u64(&mut body, s.surge.to_bits());
                put_u32(&mut body, s.cars.len());
                for car in &s.cars {
                    let at = table.iter().position(|c| c.id == car.id).unwrap_or_else(|| {
                        table.push(car);
                        table.len() - 1
                    });
                    put_u32(&mut body, at);
                }
            }
        }
        let mut out = Vec::new();
        put_u32(&mut out, table.len());
        for car in table {
            put_u64(&mut out, car.id);
            put_latlng(&mut out, car.position);
            put_u32(&mut out, car.path.len());
            for p in car.path.points() {
                put_latlng(&mut out, p);
            }
        }
        out.extend_from_slice(&body);
        out
    }

    /// Re-encodes decoded responses: equal bytes mean every field,
    /// float bits included, survived.
    #[test]
    fn ping_layout_round_trip_preserves_every_bit() {
        let responses = sample_responses();
        let payload = reply_payload(&responses);
        let back = decode_ping_reply(&payload, responses.len()).expect("decode reply");
        assert_eq!(reply_payload(&back), payload);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].statuses.len(), CarType::ALL.len());
        for (s, &t) in back[0].statuses.iter().zip(&CarType::ALL) {
            assert_eq!(s.car_type, t, "tier indices follow CarType::ALL");
        }
        assert!(back[0].location.lat.is_nan());
        assert_eq!(back[0].location.lng.to_bits(), (-0.0f64).to_bits());
        assert!(back[0].statuses[0].cars.is_empty(), "a tier with no cars");
        assert!(back[0].statuses[1].cars[0].path.is_empty(), "a car with an empty path");
        assert_eq!(back[0].statuses[2].cars[1].path.len(), 3);
        // Equality ignores the path's capacity, which the layout omits.
        assert_eq!(back[1], responses[1]);

        let pings = [
            (7u64, LatLng::new(37.78, -122.41)),
            (u64::MAX, LatLng { lat: f64::NAN, lng: -0.0 }),
        ];
        let mut request = Vec::new();
        assert_eq!(encode_ping_request(&mut request, 3, u64::MAX, pings.iter().copied()), 2);
        assert_eq!(request.len(), 20 + 24 * 2);
        let batch = decode_ping_request(&request).expect("decode request");
        assert_eq!((batch.campaign, batch.tick), (3, u64::MAX));
        let mut again = Vec::new();
        encode_ping_request(&mut again, batch.campaign, batch.tick, batch.pings.iter().copied());
        assert_eq!(again, request);
        let mut empty = Vec::new();
        assert_eq!(encode_ping_request(&mut empty, 3, 7, []), 0);
        let batch = decode_ping_request(&empty).expect("decode an empty request");
        assert_eq!((batch.campaign, batch.tick, batch.pings.len()), (3, 7, 0));
    }

    /// One response whose one tier shows one car with an empty path:
    /// 89 bytes, laid out as
    ///
    /// ```text
    /// [0..4] cars | [4..32] car (its path count at [28..32])
    /// [32..36] n | [36..64] response head (its tier count at [60..64])
    /// [64] car_type | [65..81] ewt_min, surge | [81..85] shown | [85..89] index
    /// ```
    fn minimal_reply() -> Vec<u8> {
        let here = LatLng::new(37.78, -122.41);
        let car = CarInfo { id: 1, position: here, path: path(&[]) };
        let status =
            TypeStatus { car_type: CarType::UberX, cars: vec![car], ewt_min: 2.0, surge: 1.0 };
        reply_payload(&[PingClientResponse {
            at: SimTime(5),
            location: here,
            statuses: vec![status],
        }])
    }

    /// Every truncation of a request and a reply, trailing bytes, an
    /// unknown tier, an index past the table and counts far beyond the
    /// bytes that follow are refused. Seeded single-byte flips are refused
    /// by the frame's CRC, and the payload decoders take the same flips
    /// without a panic.
    #[test]
    fn corrupt_ping_payloads_are_refused_without_panic() {
        let responses = sample_responses();
        let reply = reply_payload(&responses);
        let mut request = Vec::new();
        let pings = [(1, LatLng::new(37.7, -122.4)), (2, LatLng::new(37.8, -122.5))];
        encode_ping_request(&mut request, 9, 4, pings);

        for cut in 0..reply.len() {
            assert!(decode_ping_reply(&reply[..cut], 2).is_err(), "reply cut at {cut}");
        }
        for cut in 0..request.len() {
            assert!(decode_ping_request(&request[..cut]).is_err(), "request cut at {cut}");
        }
        let mut padded = reply.clone();
        padded.push(0);
        assert!(decode_ping_reply(&padded, 2).is_err(), "trailing bytes");
        let mut padded = request.clone();
        padded.push(0);
        assert!(decode_ping_request(&padded).is_err(), "request length off by one");
        assert!(decode_ping_reply(&reply, 1).is_err(), "a reply count other than the request's");

        let mut rng = SimRng::seed_from_u64(0xF11D);
        for (kind, payload) in [(RESP_PING, &reply), (REQ_PING, &request)] {
            let frame = frame_with(kind, |out| out.extend_from_slice(payload));
            for _ in 0..1_000 {
                let mut flipped = frame.clone();
                let at = rng.range_usize(9, flipped.len());
                flipped[at] ^= rng.range_u64(1, 256) as u8;
                let read = read_frame_with(&mut &flipped[..], DEFAULT_MAX_FRAME, |_, _| Ok(()));
                assert!(read.is_err(), "a flip at byte {at} passed the CRC");
                let mut p = payload.clone();
                p[at - 9] = flipped[at];
                let _ = if kind == RESP_PING {
                    decode_ping_reply(&p, 2).map(drop)
                } else {
                    decode_ping_request(&p).map(drop)
                };
            }
        }

        let minimal = minimal_reply();
        assert_eq!(minimal.len(), 89, "the offsets below assume this layout");
        let back = decode_ping_reply(&minimal, 1).expect("the unaltered payload decodes");
        assert_eq!(back[0].statuses[0].cars[0].id, 1);
        let patched = |at: usize, bytes: &[u8]| {
            let mut bad = minimal.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            bad
        };
        // A tier index past CarType::ALL, and a car index equal to the
        // table's length.
        let bad = patched(64, &[CarType::ALL.len() as u8]);
        assert!(decode_ping_reply(&bad, 1).is_err(), "unknown tier index");
        let bad = patched(85, &1u32.to_le_bytes());
        assert!(decode_ping_reply(&bad, 1).is_err(), "an index equal to the table's length");

        // Counts far beyond the bytes that follow are refused before any
        // reservation (a u32::MAX-element reserve would abort the test).
        let huge = u32::MAX.to_le_bytes();
        assert!(decode_ping_reply(&patched(0, &huge), 1).is_err(), "table count");
        assert!(decode_ping_reply(&patched(28, &huge), 1).is_err(), "path count");
        let bad = patched(32, &huge);
        assert!(decode_ping_reply(&bad, u32::MAX as usize).is_err(), "response count");
        assert!(decode_ping_reply(&patched(60, &huge), 1).is_err(), "tier count");
        assert!(decode_ping_reply(&patched(81, &huge), 1).is_err(), "shown count");
        let mut bad = request.clone();
        bad[16..20].copy_from_slice(&huge);
        assert!(decode_ping_request(&bad).is_err(), "ping count");
    }

    /// A quarter-scale SF world ten minutes in: its snapshot, the ping
    /// core of its endpoint and two pings downtown.
    fn world() -> (WorldSnapshot, PingConfig, Vec<(u64, LatLng)>) {
        use surgescope_api::{ApiService, ProtocolEra};
        use surgescope_city::CityModel;
        use surgescope_marketplace::{Marketplace, MarketplaceConfig};
        let mut city = CityModel::san_francisco_downtown();
        city.supply = city.supply.scaled(0.25);
        city.demand = city.demand.scaled(0.25);
        let mut mp = Marketplace::new(city, MarketplaceConfig::default(), 11);
        for _ in 0..120 {
            mp.tick();
        }
        let ping = ApiService::new(ProtocolEra::Apr2015, 11).ping_config();
        let pings = vec![(1, LatLng::new(37.7749, -122.4194)), (2, LatLng::new(37.78, -122.41))];
        (WorldSnapshot::of(&mp), ping, pings)
    }

    #[test]
    fn ping_reply_stops_at_the_frame_limit() {
        let (snap, ping, pings) = world();
        let mut whole = Vec::new();
        let tally = encode_ping_reply(&mut whole, &ping, &snap, &pings, usize::MAX).unwrap();
        assert!(tally.cars > 0, "the world shows cars");
        let mut out = Vec::new();
        encode_ping_reply(&mut out, &ping, &snap, &pings, whole.len() + 1)
            .expect("the whole body fits exactly");
        assert_eq!(out, whole);
        out.clear();
        let err = encode_ping_reply(&mut out, &ping, &snap, &pings, whole.len())
            .expect_err("one byte short of the whole body");
        assert!(err.contains("frame limit"), "unexpected error: {err}");
        assert!(out.is_empty(), "a refused reply writes nothing");
    }
}
