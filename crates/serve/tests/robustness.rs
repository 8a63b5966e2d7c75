//! Wire-robustness contract: a hostile or broken peer can cost itself its
//! connection, but never a worker thread, never a hang, and every framing
//! violation is visible as a `serve.frame_errors` increment. Also locks
//! the port-0 ephemeral bind and the graceful drain-on-shutdown window.

mod common;

use common::{connect, hello, open_campaign, rpc};
use serde::{Serialize, Value};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
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
/// unassigned, and 0x0D, the crash verb, exists only in the serve crate's
/// unit-test build.
#[test]
fn unknown_kind_is_a_protocol_error_not_a_frame_error() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut opener = connect(&server);
    hello(&mut opener);
    let v = Value::Map(vec![("campaign".into(), open_campaign(&mut opener, 1).to_value())]);
    for unknown in [0x7F, 0x09, 0x0A, 0x0B, 0x0D] {
        let mut stream = connect(&server);
        hello(&mut stream);
        let (kind, payload) = rpc(&mut stream, unknown, &v);
        assert_eq!(kind, wire::RESP_ERR, "kind {unknown:#04x} is answered, then closed");
        assert!(payload.field("error").is_ok());
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
    let campaign = open_campaign(&mut stream, 1);
    let v = Value::Map(vec![
        ("campaign".into(), campaign.to_value()),
        ("key".into(), 1u64.to_value()),
        ("lat".into(), f64::NAN.to_value()),
        ("lng".into(), (-122.4).to_value()),
    ]);
    let (kind, _) = rpc(&mut stream, wire::REQ_PING, &v);
    assert_eq!(kind, wire::RESP_ERR, "NaN coordinates must be refused, not panic a worker");
    assert_closed(&mut stream);

    // The worker pool is intact: a fresh connection still gets answers.
    let mut stream = connect(&server);
    hello(&mut stream);
    let v = Value::Map(vec![
        ("campaign".into(), campaign.to_value()),
        ("key".into(), 1u64.to_value()),
        ("lat".into(), 37.78.to_value()),
        ("lng".into(), (-122.41).to_value()),
    ]);
    let (kind, _) = rpc(&mut stream, wire::REQ_PING, &v);
    assert_eq!(kind, wire::RESP_PING);
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
    let campaign = open_campaign(&mut stream, 1);

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
