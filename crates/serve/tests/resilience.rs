//! Server-side resilience contract: the janitor reclaims campaign slots
//! whose clients vanished, so a crashed client cannot leak a world
//! forever. (Worker-panic isolation needs the crash verb, which exists
//! only in the serve crate's unit-test build; its test lives in
//! `server.rs`.)

mod common;

use common::{connect, error_of, hello, open_campaign, ping};
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
    let reply = ping(&mut stream, campaign, 1, &[]);
    assert_eq!(reply.kind(), wire::RESP_PING, "PING(1) refused");

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
    let msg = error_of(&ping(&mut stream, campaign, 2, &[]));
    assert!(msg.contains("unknown campaign"), "unexpected error: {msg}");
    assert_eq!(server.metrics().campaigns_expired.get(), 1);
}
