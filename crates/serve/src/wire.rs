//! The wire protocol: framing, request/response kinds, codec.
//!
//! Frames reuse the `store` crate's conventions so one binary grammar
//! covers disk and network:
//!
//! ```text
//! | len: u32 LE | crc32: u32 LE | body (len bytes) |
//! body = | kind: u8 | store-codec encoded serde::Value payload |
//! ```
//!
//! `len` covers the body only; the CRC32 is computed over the whole body
//! (kind byte included), with the same polynomial as the event log. The
//! payload is a [`serde::Value`] tree through [`surgescope_store::codec`],
//! so floats cross the network as raw IEEE-754 bit patterns and a remote
//! campaign's NaN gaps survive byte-exactly.
//!
//! Request kinds live in `0x01..=0x7F`, responses in `0x80..=0xFF`;
//! production builds serve seven request kinds. A connection speaks
//! strictly request→response in order; pipelining is allowed (the remote
//! client writes a whole tick's pings before reading), the server
//! answers in arrival order.
//!
//! One reader, [`read_frame_with`], parses frames on both sides. The
//! sides differ only in the caller's `stalled` closure, which sees every
//! read that times out and every data read inside a frame: the client
//! ([`read_frame`]) fails on a timeout, while the server waits at a frame
//! boundary and drops a frame whose I/O deadline has passed.

use serde::{Deserialize, Serialize, Value};
use std::io::{self, Read, Write};
use std::time::Instant;
use surgescope_store::crc32::crc32;
use surgescope_store::{decode_value, encode_value};

/// Protocol version carried in the HELLO handshake.
pub const PROTO_VERSION: u64 = 1;

/// Default upper bound on a frame body. A full pingClient response for a
/// dense tier set is a few tens of kilobytes; 16 MiB leaves room for the
/// FINISH ground-truth payload of a multi-day campaign.
pub const DEFAULT_MAX_FRAME: usize = 1 << 24;

/// Session handshake; must be the first frame on every connection.
pub const REQ_HELLO: u8 = 0x01;
/// Open a campaign (scaled city + seed + era + surge policy).
pub const REQ_OPEN: u8 = 0x02;
/// Advance the campaign world to the given tick, which must be the
/// current tick plus one; the current tick itself is acknowledged again.
pub const REQ_ADVANCE: u8 = 0x04;
/// pingClient against a campaign's current tick snapshot.
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

/// ADVANCE acknowledgement, carries the current tick.
pub const RESP_OK: u8 = 0x80;
/// HELLO acknowledgement, carries the session token.
pub const RESP_HELLO: u8 = 0x81;
/// OPEN acknowledgement, carries the campaign id.
pub const RESP_OPEN: u8 = 0x82;
/// A full `PingClientResponse`.
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
    /// The bytes violate the framing grammar: truncated prefix or body,
    /// zero/oversized length, CRC mismatch, or undecodable payload.
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

/// Renders one complete frame (`len | crc | kind | payload`) into bytes,
/// encoding the payload straight into the frame's buffer.
pub fn frame_bytes(kind: u8, payload: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&[0; 8]);
    out.push(kind);
    encode_value(payload, &mut out);
    let len = (out.len() - 8) as u32;
    // The CRC covers the body: the kind byte and the encoded payload.
    let crc = crc32(&out[8..]);
    out[..4].copy_from_slice(&len.to_le_bytes());
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Validates and decodes a frame body (the bytes after the CRC word).
pub fn decode_body(body: &[u8]) -> Result<(u8, Value), WireError> {
    let Some((&kind, payload)) = body.split_first() else {
        return Err(WireError::Malformed("empty frame body".into()));
    };
    let value = decode_value(payload)
        .map_err(|e| WireError::Malformed(format!("payload codec: {e}")))?;
    Ok((kind, value))
}

/// Writes one frame; returns the bytes put on the wire.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &Value) -> io::Result<u64> {
    let bytes = frame_bytes(kind, payload);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len() as u64)
}

/// Reads one frame, client and server alike: the length, checked
/// against `max_frame` before anything else is read, then the CRC and
/// the body. `stalled` is called with the instant the frame's first byte
/// arrived (`None` while none has) after every read that times out,
/// with its error, and after every read that returns data, with `None`;
/// `Ok` keeps reading and an error ends the read with it. Returns the
/// decoded kind, payload and total bytes consumed.
pub fn read_frame_with<R: Read>(
    r: &mut R,
    max_frame: usize,
    mut stalled: impl FnMut(Option<io::Error>, Option<Instant>) -> Result<(), WireError>,
) -> Result<(u8, Value, u64), WireError> {
    let mut started = None;
    let mut word = [0u8; 4];
    fill(r, &mut word, &mut started, &mut stalled)?;
    let len = u32::from_le_bytes(word) as usize;
    if len == 0 || len > max_frame {
        return Err(WireError::Malformed(format!(
            "frame length {len} outside 1..={max_frame}"
        )));
    }
    fill(r, &mut word, &mut started, &mut stalled)?;
    let want_crc = u32::from_le_bytes(word);
    let mut body = vec![0u8; len];
    fill(r, &mut body, &mut started, &mut stalled)?;
    if crc32(&body) != want_crc {
        return Err(WireError::Malformed("crc mismatch".into()));
    }
    let (kind, value) = decode_body(&body)?;
    Ok((kind, value, (8 + len) as u64))
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
            Ok(0) => return Err(WireError::Malformed("stream closed mid-frame".into())),
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

/// Blocking frame read (client side): a socket timeout is an error.
pub fn read_frame(
    r: &mut impl Read,
    max_frame: usize,
) -> Result<(u8, Value, u64), WireError> {
    read_frame_with(r, max_frame, |e, _| e.map_or(Ok(()), |e| Err(WireError::Io(e))))
}

/// One blocking request/response exchange (client side).
pub fn rpc<S: Read + Write>(stream: &mut S, kind: u8, payload: &Value) -> io::Result<(u8, Value)> {
    write_frame(stream, kind, payload)?;
    read_reply(stream)
}

/// [`rpc`] for a request with one acceptable reply kind: any other kind
/// is an error naming both.
pub fn call<S: Read + Write>(
    stream: &mut S,
    kind: u8,
    payload: &Value,
    want: u8,
) -> io::Result<Value> {
    let (got, v) = rpc(stream, kind, payload)?;
    if got != want {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("request {kind:#04x} answered with {got:#04x}"),
        ));
    }
    Ok(v)
}

/// Reads one response frame (client side), surfacing a server-side
/// `RESP_ERR` as an error carrying the server's message.
pub fn read_reply<S: Read>(stream: &mut S) -> io::Result<(u8, Value)> {
    let (kind, value, _) = read_frame(stream, DEFAULT_MAX_FRAME).map_err(|e| e.into_io())?;
    if kind == RESP_ERR {
        let msg = value
            .field("error")
            .ok()
            .and_then(|v| String::from_value(v).ok())
            .unwrap_or_else(|| "unspecified server error".into());
        return Err(io::Error::new(io::ErrorKind::Other, format!("server: {msg}")));
    }
    Ok((kind, value))
}

/// The HELLO handshake (client side): must be a connection's first
/// exchange.
pub fn hello<S: Read + Write>(stream: &mut S) -> io::Result<()> {
    let hello = Value::Map(vec![("proto".into(), PROTO_VERSION.to_value())]);
    call(stream, REQ_HELLO, &hello, RESP_HELLO).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[test]
    fn frame_roundtrip() {
        let payload = Value::Map(vec![
            ("tick".into(), 42u64.to_value()),
            ("x".into(), f64::NAN.to_value()),
        ]);
        let bytes = frame_bytes(REQ_ADVANCE, &payload);
        let mut cur = io::Cursor::new(bytes.clone());
        let (kind, back, n) = read_frame(&mut cur, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(kind, REQ_ADVANCE);
        assert_eq!(n as usize, bytes.len());
        assert_eq!(u64::from_value(back.field("tick").unwrap()).unwrap(), 42);
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
}
