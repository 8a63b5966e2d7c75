//! Wire-robustness contract: a hostile or broken peer can cost itself its
//! connection, but never a worker thread, never a hang, and every framing
//! violation is visible as a `serve.frame_errors` increment. Also locks
//! the port-0 ephemeral bind and the graceful drain-on-shutdown window.

mod common;

use common::{connect, error_of, hello, open_campaign, ping, rpc};
use serde::{Deserialize, Serialize, Value};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use surgescope_geo::LatLng;
use surgescope_serve::wire;
use surgescope_serve::{ServeConfig, Server};

/// True once the server has closed its end: a read returns 0 bytes (or a
/// reset). Panics if the connection is still open after 5 seconds — the
/// "never hang" half of the contract.
fn assert_closed(stream: &mut TcpStream) {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut buf = [0u8; 256];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => {} // late response bytes in flight; keep draining
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe
                ) =>
            {
                return
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => panic!("unexpected read error while awaiting close: {e}"),
        }
        assert!(Instant::now() < deadline, "server kept the connection open");
    }
}

/// Polls a counter until it reaches `want` (the worker increments after
/// the client may already have observed the close).
fn await_count(read: impl Fn() -> u64, want: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while read() < want {
        assert!(Instant::now() < deadline, "{what} never reached {want} (at {})", read());
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn port_zero_bind_reports_ephemeral_address() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    assert_ne!(addr.port(), 0, "bound address must carry the kernel-chosen port");
    // The reported address is genuinely reachable.
    let mut stream = TcpStream::connect(addr).expect("dial the reported address");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    hello(&mut stream);
}

/// Workers block in `accept`, so an idle server answers a fresh
/// connection's HELLO within a round trip, with no wait for a worker to
/// poll the listener. Each sample first leaves the server idle for
/// 20 ms, so no worker is just back from serving the previous one.
#[test]
fn fresh_connection_hello_is_answered_without_an_accept_poll() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut took: Vec<Duration> = (0..10)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(20));
            let t0 = Instant::now();
            hello(&mut connect(&server));
            t0.elapsed()
        })
        .collect();
    took.sort();
    assert!(took[5] < Duration::from_millis(10), "HELLOs on fresh connections took {took:?}");
}

#[test]
fn malformed_body_closes_connection_with_error_count() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut stream = connect(&server);
    hello(&mut stream);
    // Valid length and CRC, but the body is just a kind byte with no
    // codec payload behind it — decodable framing, undecodable content.
    let body = [wire::REQ_PING];
    let mut raw = Vec::new();
    raw.extend_from_slice(&(body.len() as u32).to_le_bytes());
    raw.extend_from_slice(&surgescope_store::crc32::crc32(&body).to_le_bytes());
    raw.extend_from_slice(&body);
    stream.write_all(&raw).expect("send malformed frame");
    assert_closed(&mut stream);
    await_count(|| server.metrics().frame_errors.get(), 1, "serve.frame_errors");
}

#[test]
fn crc_flip_closes_connection_with_error_count() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut stream = connect(&server);
    hello(&mut stream);
    let v = Value::Map(vec![("proto".into(), wire::PROTO_VERSION.to_value())]);
    let mut raw = wire::frame_bytes(wire::REQ_HELLO, &v);
    let last = raw.len() - 1;
    raw[last] ^= 0x40; // corrupt one body byte; the CRC now lies
    stream.write_all(&raw).expect("send corrupted frame");
    assert_closed(&mut stream);
    await_count(|| server.metrics().frame_errors.get(), 1, "serve.frame_errors");
}

#[test]
fn truncated_length_prefix_closes_with_error_count() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut stream = connect(&server);
    hello(&mut stream);
    stream.write_all(&[0x10, 0x00]).expect("send half a prefix");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    assert_closed(&mut stream);
    await_count(|| server.metrics().frame_errors.get(), 1, "serve.frame_errors");
}

#[test]
fn oversized_frame_rejected_with_error_count() {
    let cfg = ServeConfig { max_frame: 4 * 1024, ..ServeConfig::default() };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let mut stream = connect(&server);
    hello(&mut stream);
    // Claim a body one byte over budget; the server must refuse on the
    // prefix alone, before reading (or allocating) any of it.
    stream
        .write_all(&((4 * 1024 + 1) as u32).to_le_bytes())
        .expect("send oversized prefix");
    assert_closed(&mut stream);
    await_count(|| server.metrics().frame_errors.get(), 1, "serve.frame_errors");
}

#[test]
fn slow_loris_partial_write_is_dropped() {
    let cfg = ServeConfig { io_timeout: Duration::from_millis(200), ..ServeConfig::default() };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let mut stream = connect(&server);
    hello(&mut stream);
    // Start a frame and stall: two prefix bytes, then silence with the
    // socket held open. The mid-frame deadline must cut us off.
    stream.write_all(&[0x08, 0x00]).expect("send partial prefix");
    assert_closed(&mut stream);
    await_count(|| server.metrics().frame_errors.get(), 1, "serve.frame_errors");
}

#[test]
fn stall_after_the_length_prefix_is_dropped() {
    let cfg = ServeConfig { io_timeout: Duration::from_millis(200), ..ServeConfig::default() };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let mut stream = connect(&server);
    hello(&mut stream);
    // A whole, valid length prefix and half the CRC, then silence with
    // the socket held open: the stall is inside the frame, not at its
    // boundary, so the mid-frame deadline must cut us off.
    stream.write_all(&16u32.to_le_bytes()).expect("send length prefix");
    stream.write_all(&[0xAB, 0xCD]).expect("send half the crc");
    assert_closed(&mut stream);
    await_count(|| server.metrics().frame_errors.get(), 1, "serve.frame_errors");
}

/// A frame whose bytes keep trickling in, each well inside the server's
/// read poll, is still dropped once `io_timeout` has passed since its
/// first byte: the budget is checked after every read inside a frame, not
/// only after a read that times out.
#[test]
fn trickled_frame_is_dropped_at_io_timeout() {
    let cfg = ServeConfig { io_timeout: Duration::from_millis(200), ..ServeConfig::default() };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let mut stream = connect(&server);
    hello(&mut stream);
    stream.write_all(&4096u32.to_le_bytes()).expect("send length prefix");
    // One byte every 30 ms; the 30 ms read timeout paces the loop and
    // watches for the server's close at the same time.
    stream.set_read_timeout(Some(Duration::from_millis(30))).unwrap();
    let started = Instant::now();
    let mut buf = [0u8; 64];
    loop {
        assert!(
            started.elapsed() < Duration::from_millis(1500),
            "a trickled frame held its connection open past 1.5 s"
        );
        if stream.write_all(&[0xAB]).is_err() {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => panic!("the server answered a frame it never received whole"),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break, // reset: the server closed with bytes unread
        }
    }
    await_count(|| server.metrics().frame_errors.get(), 1, "serve.frame_errors");
    assert_eq!(server.metrics().frame_errors.get(), 1);
}

/// A payload nested deeper than the codec's bound is a malformed frame:
/// it costs its connection and one frame error, never the process.
/// 10,000 nested sequences (20 KB) would overflow a worker's stack if the
/// decoder recursed without a bound.
#[test]
fn deeply_nested_payload_costs_only_its_connection() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut stream = connect(&server);
    // A HELLO-kind frame before any handshake: kind byte, then 10,000
    // one-element sequence headers (tag 0x07, count 1) around a null.
    let mut body = vec![wire::REQ_HELLO];
    for _ in 0..10_000 {
        body.extend_from_slice(&[0x07, 0x01]);
    }
    body.push(0x00);
    let mut raw = Vec::new();
    raw.extend_from_slice(&(body.len() as u32).to_le_bytes());
    raw.extend_from_slice(&surgescope_store::crc32::crc32(&body).to_le_bytes());
    raw.extend_from_slice(&body);
    stream.write_all(&raw).expect("send nested frame");
    assert_closed(&mut stream);
    await_count(|| server.metrics().frame_errors.get(), 1, "serve.frame_errors");

    // The server survived: a fresh connection is still answered.
    let mut stream = connect(&server);
    hello(&mut stream);
    assert_eq!(server.metrics().frame_errors.get(), 1);
}

/// Every `PING` names its tick, and the server keeps the tick rule on
/// it: `tick + 1` advances the world, a re-sent `tick` reads it unmoved
/// (the same reply bytes), a skipped tick and a past tick are each refused
/// as a lockstep violation that closes the connection and leaves the world
/// where it was, and any connection that said HELLO can ping any
/// campaign. Replies are compared as their payload bytes, which the
/// layout makes a pure function of the snapshot and the batch.
#[test]
fn ping_names_its_tick_and_a_skipped_or_past_tick_is_refused() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut stream = connect(&server);
    hello(&mut stream);
    let campaign = open_campaign(&mut stream);
    // The reply must be a `RESP_PING` that decodes.
    let ping_bytes = |stream: &mut TcpStream, tick: u64| {
        let reply = ping(stream, campaign, tick, &[(3, LatLng::new(37.78, -122.41))]);
        assert_eq!(reply.kind(), wire::RESP_PING, "PING({tick}) refused");
        wire::decode_ping_reply(reply.payload(), 1).expect("decode the reply");
        reply.payload().to_vec()
    };
    let refused = |stream: &mut TcpStream, tick: u64| {
        let msg = error_of(&ping(stream, campaign, tick, &[]));
        assert!(msg.contains("lockstep violation"), "PING({tick}): unexpected error: {msg}");
        assert_closed(stream);
    };

    for tick in 1..=2u64 {
        ping_bytes(&mut stream, tick);
    }
    let before = ping_bytes(&mut stream, 3);
    assert_eq!(ping_bytes(&mut stream, 3), before, "a re-sent PING moved the world");

    // A connection that only said HELLO reads the same frozen world.
    let mut sibling = connect(&server);
    hello(&mut sibling);
    assert_eq!(ping_bytes(&mut sibling, 3), before);

    refused(&mut stream, 5);
    assert_eq!(ping_bytes(&mut sibling, 3), before, "a skipped tick moved the world");
    let mut late = connect(&server);
    hello(&mut late);
    refused(&mut late, 2);
    assert_eq!(ping_bytes(&mut sibling, 3), before, "a past tick moved the world");

    // The comparisons above can fail: one real tick changes the reply.
    assert_ne!(ping_bytes(&mut sibling, 4), before, "a tick left the ping reply unchanged");
    assert_eq!(server.metrics().frame_errors.get(), 0);
}

#[test]
fn idle_connection_outlives_io_timeout() {
    let io_timeout = Duration::from_millis(200);
    let server =
        Server::bind("127.0.0.1:0", ServeConfig { io_timeout, ..ServeConfig::default() })
            .expect("bind");
    let mut stream = connect(&server);
    hello(&mut stream);
    // Silence at a frame boundary is an idle client, not a slow-loris.
    std::thread::sleep(3 * io_timeout);
    hello(&mut stream);
    assert_eq!(server.metrics().frame_errors.get(), 0);
}

/// A production build serves none of these kinds: 0x7F and 0x09–0x0B are
/// unassigned, 0x03, 0x04 and 0x0C were the retired JOIN, ADVANCE and
/// RESUME verbs, and 0x0D, the crash verb, exists only in the serve
/// crate's unit-test build. Each payload carries the fields the retired
/// ADVANCE read, so only an unknown kind can explain the refusal.
#[test]
fn unknown_kind_is_a_protocol_error_not_a_frame_error() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut opener = connect(&server);
    hello(&mut opener);
    let v = Value::Map(vec![
        ("campaign".into(), open_campaign(&mut opener).to_value()),
        ("tick".into(), 1u64.to_value()),
    ]);
    for unknown in [0x7F, 0x03, 0x04, 0x09, 0x0A, 0x0B, 0x0C, 0x0D] {
        let mut stream = connect(&server);
        hello(&mut stream);
        let (kind, payload) = rpc(&mut stream, unknown, &v);
        assert_eq!(kind, wire::RESP_ERR, "kind {unknown:#04x} is answered, then closed");
        let msg = String::from_value(payload.field("error").unwrap()).unwrap();
        assert!(msg.contains("unknown request kind"), "kind {unknown:#04x}: {msg}");
        assert_closed(&mut stream);
    }
    assert_eq!(
        server.metrics().frame_errors.get(),
        0,
        "a well-framed bad request is not a framing error"
    );
    assert_eq!(server.metrics().worker_panics.get(), 0, "an unknown kind must not panic");
}

#[test]
fn hostile_coordinates_answered_with_error_and_worker_survives() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut stream = connect(&server);
    hello(&mut stream);
    let campaign = open_campaign(&mut stream);
    // A NaN latitude behind a valid ping: one bad location refuses the
    // whole batch.
    let pings = [(2, LatLng::new(37.78, -122.41)), (1, LatLng { lat: f64::NAN, lng: -122.4 })];
    let msg = error_of(&ping(&mut stream, campaign, 1, &pings));
    assert!(msg.contains("invalid coordinates"), "unexpected error: {msg}");
    assert_closed(&mut stream);

    // The worker pool is intact: a fresh connection still gets answers.
    let mut stream = connect(&server);
    hello(&mut stream);
    let responses = wire::ping(&mut stream, campaign, 1, [(1, LatLng::new(37.78, -122.41))])
        .expect("a valid PING is answered RESP_PING");
    assert_eq!(responses.len(), 1);
}

/// A `PING` reply can be some 500 times the size of its request, so the
/// server bounds it by `max_frame` too: a batch whose reply would pass
/// the limit is answered `RESP_ERR` and closed — a protocol error, not a
/// framing one — and a fresh connection is still served. Only answered
/// batches count in `serve.pings`.
#[test]
fn ping_reply_past_max_frame_is_refused_and_a_fresh_connection_is_served() {
    let cfg = ServeConfig { max_frame: 4096, ..ServeConfig::default() };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let mut stream = connect(&server);
    hello(&mut stream);
    let campaign = open_campaign(&mut stream);
    let at = |key: u64| (key, LatLng::new(37.78, -122.41));
    assert_eq!(wire::ping(&mut stream, campaign, 1, [at(1)]).expect("one ping fits").len(), 1);

    // 100 pings: a 2,421-byte request body, inside the limit (a frame
    // error would close the connection unanswered), whose reply would
    // pass 4 KB.
    let pings: Vec<_> = (0..100).map(at).collect();
    let msg = error_of(&ping(&mut stream, campaign, 1, &pings));
    assert!(msg.contains("frame limit"), "unexpected error: {msg}");
    assert_closed(&mut stream);

    let mut stream = connect(&server);
    hello(&mut stream);
    assert_eq!(wire::ping(&mut stream, campaign, 1, [at(2)]).expect("fresh connection").len(), 1);
    assert_eq!(server.metrics().pings.get(), 2, "the refused batch is not counted");
    assert_eq!(server.metrics().frame_errors.get(), 0);
}

#[test]
fn shutdown_drains_inflight_requests() {
    let mut server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut stream = connect(&server);
    hello(&mut stream);

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.shutdown());
        // Land a request inside the drain window (300 ms by default).
        std::thread::sleep(Duration::from_millis(50));
        let v = Value::Map(vec![("proto".into(), wire::PROTO_VERSION.to_value())]);
        wire::write_frame(&mut stream, wire::REQ_HELLO, &v).expect("send during drain");
        let (kind, _, _) = wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME)
            .expect("a request inside the drain window must still be answered");
        assert_eq!(kind, wire::RESP_HELLO);
        // Past the window the connection closes cleanly.
        assert_closed(&mut stream);
        handle.join().expect("shutdown thread");
    });
    assert_eq!(server.metrics().frame_errors.get(), 0, "drain dropped a request");
}

#[test]
fn estimates_throttle_over_the_wire() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut stream = connect(&server);
    hello(&mut stream);
    let campaign = open_campaign(&mut stream);

    let limit = surgescope_api::DEFAULT_LIMIT_PER_HOUR as u64;
    let (mut served, mut throttled) = (0u64, 0u64);
    let v = Value::Map(vec![
        ("campaign".into(), campaign.to_value()),
        ("account".into(), 7u64.to_value()),
        ("lat".into(), 37.78.to_value()),
        ("lng".into(), (-122.41).to_value()),
    ]);
    for _ in 0..limit + 5 {
        let (kind, payload) = rpc(&mut stream, wire::REQ_PRICE, &v);
        match kind {
            wire::RESP_PRICE => served += 1,
            wire::RESP_THROTTLED => {
                assert!(payload.field("retry_after_secs").is_ok());
                throttled += 1;
            }
            other => panic!("unexpected reply {other:#04x}"),
        }
    }
    assert_eq!(served, limit, "the full per-hour budget is served");
    assert_eq!(throttled, 5, "requests past the budget are throttled on the wire");
    assert_eq!(server.metrics().throttled_wire.get(), 5);
    assert_eq!(server.metrics().frame_errors.get(), 0);
}
