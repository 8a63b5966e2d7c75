//! Raw-wire client helpers shared by the serve integration tests. Unlike
//! `wire::rpc` and `wire::ping`, `rpc` and `ping` here hand back every
//! reply as sent, `RESP_ERR` included, so tests can assert on protocol
//! errors.

use serde::{Deserialize, Serialize, Value};
use std::net::TcpStream;
use std::time::Duration;
use surgescope_api::ProtocolEra;
use surgescope_city::CityModel;
use surgescope_geo::LatLng;
use surgescope_marketplace::SurgePolicy;
use surgescope_serve::wire::{self, Frame};
use surgescope_serve::Server;

pub fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

pub fn rpc(stream: &mut TcpStream, kind: u8, payload: &Value) -> (u8, Value) {
    wire::write_frame(stream, kind, payload).expect("send frame");
    let (kind, v, _) =
        wire::read_frame(stream, wire::DEFAULT_MAX_FRAME).expect("read reply");
    (kind, v)
}

/// Sends one `PING` of `pings` against `campaign` at `tick` and returns
/// the reply frame.
pub fn ping(stream: &mut TcpStream, campaign: u64, tick: u64, pings: &[(u64, LatLng)]) -> Frame {
    wire::send_ping(stream, campaign, tick, pings.iter().copied()).expect("send PING");
    wire::read_frame_with(stream, wire::DEFAULT_MAX_FRAME, |timed_out, _| {
        timed_out.map_or(Ok(()), |e| Err(e.into()))
    })
    .expect("read reply")
}

/// The message of a `RESP_ERR` reply.
pub fn error_of(reply: &Frame) -> String {
    assert_eq!(reply.kind(), wire::RESP_ERR, "expected an error reply");
    let v = reply.value().expect("error payload");
    String::from_value(v.field("error").expect("error field")).expect("error message")
}

pub fn hello(stream: &mut TcpStream) {
    let v = Value::Map(vec![("proto".into(), wire::PROTO_VERSION.to_value())]);
    let (kind, _) = rpc(stream, wire::REQ_HELLO, &v);
    assert_eq!(kind, wire::RESP_HELLO);
}

/// Opens a small campaign world (fifth-scale city so each tick is cheap)
/// and returns its id.
pub fn open_campaign(stream: &mut TcpStream) -> u64 {
    let mut city = CityModel::san_francisco_downtown();
    city.supply = city.supply.scaled(0.2);
    city.demand = city.demand.scaled(0.2);
    wire::open(stream, &city, 4242, ProtocolEra::Apr2015, SurgePolicy::Threshold).expect("OPEN")
}
