//! The serving layer's determinism contract, regression-locked: a
//! campaign measured **over the wire** (sockets to a `surgescope-serve`
//! server, which ticks the world when the first `PING` naming the next
//! tick arrives, each connection sending one `PING` per tick) produces
//! byte-identical [`CampaignData`] to the in-process run with the same
//! config — clean and faulted, at any connection count. The oracle is
//! [`persist::campaign_encoded`], which encodes floats as raw IEEE-754
//! bits, so NaN gaps must match too.

use surgescope_city::CityModel;
use surgescope_core::persist::campaign_encoded;
use surgescope_core::{CampaignConfig, CampaignData, CampaignRunner};
use surgescope_serve::{ServeConfig, Server};
use surgescope_simcore::FaultPlan;

/// Short but non-trivial: 1 simulated hour = 720 ticks = 12 surge
/// intervals, so interval probes, interval flushes and delayed responses
/// all fire. The coarse lattice keeps the fleet (and the frame volume)
/// small.
fn lockstep_cfg(seed: u64, faults: FaultPlan) -> CampaignConfig {
    let mut cfg = CampaignConfig::test_default(seed);
    cfg.hours = 1;
    cfg.scale = 0.25;
    cfg.spacing_override_m = Some(500.0);
    cfg.faults = faults;
    cfg
}

fn run_local(cfg: &CampaignConfig) -> CampaignData {
    let mut runner = CampaignRunner::new(CityModel::san_francisco_downtown(), cfg)
        .expect("local campaign");
    runner.run_to_end().expect("local run");
    runner.finish().expect("local finish")
}

fn new_remote(addr: &str, cfg: &CampaignConfig, connections: usize) -> CampaignRunner {
    CampaignRunner::new_remote(CityModel::san_francisco_downtown(), cfg, addr, connections)
        .expect("remote campaign")
}

fn run_remote(addr: &str, cfg: &CampaignConfig, connections: usize) -> Vec<u8> {
    run_measured(new_remote(addr, cfg, connections)).0
}

/// Runs `runner` to the end and returns its campaign's bytes and its
/// deterministic client metrics: every key under `pings.`, `transport.`
/// and `campaign.`.
fn run_measured(mut runner: CampaignRunner) -> (Vec<u8>, Vec<(String, u64)>) {
    runner.run_to_end().expect("run");
    let client = ["pings.", "transport.", "campaign."];
    let metrics = (runner.metrics_snapshot().deterministic.into_iter())
        .filter(|(key, _)| client.iter().any(|prefix| key.starts_with(prefix)))
        .collect();
    (campaign_encoded(&runner.finish().expect("finish")), metrics)
}

/// The campaign bytes and the client metrics (fault outcomes, the late
/// queue, the runner's counters) of a remote campaign equal the
/// in-process ones, clean and faulted, at 1 and 4 connections.
#[test]
fn remote_campaign_matches_local_bytes_clean_and_faulted() {
    let mut server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();

    let plans = [
        ("clean", FaultPlan::none()),
        // Drops, delays and in-flight responses all cross tick
        // boundaries under this plan.
        ("faulted", FaultPlan { drop_chance: 0.05, delay_chance: 0.15, max_delay_secs: 20 }),
    ];
    for (label, faults) in plans {
        let cfg = lockstep_cfg(7_0931, faults);
        let local = CampaignRunner::new(CityModel::san_francisco_downtown(), &cfg)
            .expect("local campaign");
        let (local, local_metrics) = run_measured(local);
        let value = |key: &str| {
            let found = local_metrics.iter().find(|(k, _)| k == key);
            found.unwrap_or_else(|| panic!("{label}: {key} missing")).1
        };
        assert!(value("pings.delivered") > 0, "{label}: no ping was delivered");
        assert!(value("campaign.ticks") > 0, "{label}: no tick was counted");
        if label == "faulted" {
            assert!(value("pings.dropped") > 0, "faulted: no ping was dropped");
            assert!(value("transport.delivered_late") > 0, "faulted: nothing arrived late");
        }
        for connections in [1usize, 4] {
            let (remote, remote_metrics) = run_measured(new_remote(&addr, &cfg, connections));
            assert_eq!(
                local, remote,
                "{label}: remote campaign over {connections} connection(s) \
                 diverged from the in-process bytes"
            );
            assert_eq!(
                local_metrics, remote_metrics,
                "{label}: the client metrics over {connections} connection(s) \
                 differ from the in-process ones"
            );
        }
    }
    server.shutdown();
}

/// More connections than chunks: 6 clients over 4 connections are split
/// into chunks of 2, 2 and 2, so the fourth connection carries no pings
/// and sends an empty `PING` every tick.
#[test]
fn more_connections_than_chunks_matches_local_bytes() {
    let mut server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let faulted = FaultPlan { drop_chance: 0.05, delay_chance: 0.15, max_delay_secs: 20 };
    for (label, faults) in [("clean", FaultPlan::none()), ("faulted", faulted)] {
        let mut cfg = lockstep_cfg(7_0931, faults);
        cfg.spacing_override_m = Some(1000.0);
        let local = run_local(&cfg);
        assert_eq!(local.clients.len(), 6, "the lattice this test is sized for");
        assert_eq!(
            campaign_encoded(&local),
            run_remote(&addr, &cfg, 4),
            "{label}: 4 connections over 3 chunks diverged from the in-process bytes"
        );
    }
    server.shutdown();
}

/// With every ping dropped the client sends only empty `PING`s: they
/// alone move the server's world, so the interval probes must still read
/// the right tick and the ground truth must be the whole campaign's, at 1
/// and 2 connections.
#[test]
fn every_ping_dropped_matches_local_bytes() {
    let cfg = lockstep_cfg(7_0931, FaultPlan::lossy(1.0));
    let local = campaign_encoded(&run_local(&cfg));
    for connections in [1usize, 2] {
        let mut server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let remote = run_remote(&server.local_addr().to_string(), &cfg, connections);
        // Shutdown joins the workers, so every counter has landed.
        server.shutdown();
        assert_eq!(
            local, remote,
            "{connections} connection(s): a campaign of empty PINGs diverged \
             from the in-process bytes"
        );
        assert_eq!(server.metrics().pings.get(), 0, "{connections} connection(s): a ping was sent");
    }
}

/// Every ping the client sends is answered exactly once, and a dropped
/// ping is never sent: on a chaos-free faulted campaign the server's
/// `serve.pings` equals the client's delivered plus delayed pings, at 1
/// and 4 connections. The cars shown to those pings do not depend on
/// how they are batched, so `serve.ping_sightings` is the same at both;
/// a reply's table lists each car once, so `serve.ping_cars` is at most
/// that.
#[test]
fn server_answers_each_sent_ping_exactly_once() {
    let faults = FaultPlan { drop_chance: 0.05, delay_chance: 0.15, max_delay_secs: 20 };
    let cfg = lockstep_cfg(7_0931, faults);
    let mut sightings = Vec::new();
    for connections in [1usize, 4] {
        let mut server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let mut runner = new_remote(&addr, &cfg, connections);
        runner.run_to_end().expect("remote run");
        let snap = runner.metrics_snapshot();
        runner.finish().expect("remote finish");
        // Shutdown joins the workers, so every counter has landed.
        server.shutdown();
        let count = |key: &str| snap.value(key).unwrap_or_else(|| panic!("{key} missing"));
        assert!(count("pings.dropped") > 0, "the plan must drop some pings");
        assert!(count("pings.delayed") > 0, "the plan must delay some pings");
        assert_eq!(
            server.metrics().pings.get(),
            count("pings.delivered") + count("pings.delayed"),
            "{connections} connection(s): serve.pings differs from the pings sent"
        );
        let (cars, seen) =
            (server.metrics().ping_cars.get(), server.metrics().ping_sightings.get());
        assert!(seen > 0, "{connections} connection(s): no ping was shown a car");
        assert!(cars <= seen, "{connections} connection(s): {cars} table cars, {seen} sightings");
        sightings.push(seen);
    }
    assert_eq!(
        sightings[0], sightings[1],
        "serve.ping_sightings differs between 1 and 4 connections"
    );
}

#[test]
fn remote_campaign_rejects_store_hooks() {
    let mut cfg = lockstep_cfg(1, FaultPlan::none());
    cfg.store.log_path = Some(std::path::PathBuf::from("/tmp/never-written.log"));
    let err = CampaignRunner::new_remote(
        CityModel::san_francisco_downtown(),
        &cfg,
        "127.0.0.1:1", // never dialed: the hook check comes first
        1,
    )
    .err()
    .expect("store hooks must be rejected before connecting");
    assert!(err.to_string().contains("store hooks"), "unexpected error: {err}");
}

/// The server's own deterministic-section counters (frames, bytes,
/// campaign bookkeeping) are part of the observability contract: two
/// fresh servers driven by identical remote campaigns must read
/// byte-identical deterministic snapshots. Wall-clock timers live in the
/// timing section, which is excluded.
#[test]
fn server_deterministic_counters_stable_across_reruns() {
    let cfg = lockstep_cfg(42, FaultPlan::laggy(0.1, 15));
    let mut jsons = Vec::new();
    for _ in 0..2 {
        let mut server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let bytes = run_remote(&addr, &cfg, 2);
        assert!(!bytes.is_empty());
        // Shutdown joins the worker threads, so every in-flight counter
        // increment has landed before the snapshot is read.
        server.shutdown();
        jsons.push(server.metrics_snapshot().deterministic_json());
    }
    assert_eq!(jsons[0], jsons[1], "server deterministic counters drifted across reruns");
}
