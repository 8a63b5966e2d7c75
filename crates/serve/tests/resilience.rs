//! Server-side resilience contract: the janitor reclaims campaign slots
//! whose clients vanished, so a crashed client cannot leak a world
//! forever. (Worker-panic isolation needs the crash verb, which exists
//! only in the serve crate's unit-test build; its test lives in
//! `server.rs`.)

mod common;

use common::{connect, hello, open_campaign, rpc};
use serde::{Deserialize, Serialize, Value};
use std::time::Duration;
use surgescope_serve::wire;
use surgescope_serve::{ServeConfig, Server};

#[test]
fn janitor_expires_an_orphaned_campaign_slot() {
    let cfg = ServeConfig {
        campaign_idle_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let mut stream = connect(&server);
    hello(&mut stream);
    let campaign = open_campaign(&mut stream);
    let v = Value::Map(vec![
        ("campaign".into(), campaign.to_value()),
        ("tick".into(), 1u64.to_value()),
    ]);
    let (kind, v) = rpc(&mut stream, wire::REQ_ADVANCE, &v);
    assert_eq!(kind, wire::RESP_OK, "ADVANCE failed: {v:?}");
    assert_eq!(u64::from_value(v.field("tick").unwrap()).unwrap(), 1);

    // Go silent past the idle timeout; the janitor reclaims the slot.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.metrics().campaigns_expired.get() < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "the janitor never expired the idle campaign"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The world is gone: further traffic is an explicit error.
    let v = Value::Map(vec![
        ("campaign".into(), campaign.to_value()),
        ("tick".into(), 2u64.to_value()),
    ]);
    let (kind, v) = rpc(&mut stream, wire::REQ_ADVANCE, &v);
    assert_eq!(kind, wire::RESP_ERR);
    let msg = String::from_value(v.field("error").unwrap()).unwrap();
    assert!(msg.contains("unknown campaign"), "unexpected error: {msg}");
    assert_eq!(server.metrics().campaigns_expired.get(), 1);
}
