//! Raw-wire client helpers shared by the serve integration tests. Unlike
//! `wire::rpc`, `rpc` here hands back every reply as sent, `RESP_ERR`
//! included, so tests can assert on protocol errors.

use serde::{Deserialize, Serialize, Value};
use std::net::TcpStream;
use std::time::Duration;
use surgescope_api::ProtocolEra;
use surgescope_city::CityModel;
use surgescope_marketplace::SurgePolicy;
use surgescope_serve::wire;
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
    let v = Value::Map(vec![
        ("city".into(), city.to_value()),
        ("seed".into(), 4242u64.to_value()),
        ("era".into(), ProtocolEra::Apr2015.to_value()),
        ("surge_policy".into(), SurgePolicy::Threshold.to_value()),
    ]);
    let (kind, v) = rpc(stream, wire::REQ_OPEN, &v);
    assert_eq!(kind, wire::RESP_OPEN, "OPEN refused: {v:?}");
    u64::from_value(v.field("campaign").expect("campaign id")).expect("id")
}
