//! The resilience layer's determinism contract, regression-locked: a
//! remote campaign whose transport is being actively sabotaged by a
//! seeded [`ChaosStream`] schedule — connection resets, mid-frame
//! truncations, write stalls, delayed reads — still produces
//! [`CampaignData`] bytes identical to the in-process run, because every
//! reconnect (connect + `HELLO`) re-sends an idempotent operation
//! against a world that only the client's next `ADVANCE` moves. The oracle is
//! [`persist::campaign_encoded`] (raw IEEE-754 bits, NaN gaps included).
//!
//! With the retry budget forced to 0, the first injected fault trips the
//! circuit breaker instead: the run aborts with an error naming the
//! breaker, `resilience.breaker_trips` is nonzero, and falling back to
//! local execution (what `cache.campaign_custom` does on that error)
//! yields the same bytes the remote run would have produced.

use std::time::Duration;
use surgescope_city::CityModel;
use surgescope_core::persist::campaign_encoded;
use surgescope_core::{CampaignConfig, CampaignRunner, ChaosSpec, RemoteOptions, RetryPolicy};
use surgescope_obs::Snapshot;
use surgescope_serve::{ChaosPlan, ServeConfig, Server};
use surgescope_simcore::FaultPlan;

/// Same campaign shape as the remote lockstep suite: 1 simulated hour = 720
/// ticks = 12 surge intervals, coarse lattice, quarter-scale city.
fn chaos_cfg(seed: u64, faults: FaultPlan) -> CampaignConfig {
    let mut cfg = CampaignConfig::test_default(seed);
    cfg.hours = 1;
    cfg.scale = 0.25;
    cfg.spacing_override_m = Some(500.0);
    cfg.faults = faults;
    cfg
}

/// Fault chances tuned so a 720-tick campaign (tens of thousands of
/// frame writes) sees *many* of every class, while retries stay cheap.
/// Stall/delay durations are tiny — they only have to exercise the code
/// path, not simulate a real WAN.
fn chaos_plan() -> ChaosPlan {
    ChaosPlan {
        reset_chance: 0.003,
        truncate_chance: 0.003,
        stall_chance: 0.004,
        delay_chance: 0.002,
        stall: Duration::from_millis(2),
    }
}

/// Fast-converging retry policy for loopback tests: generous budget,
/// millisecond backoff.
fn test_policy(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        op_timeout: Duration::from_secs(10),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
    }
}

fn run_local(cfg: &CampaignConfig) -> Vec<u8> {
    let mut runner = CampaignRunner::new(CityModel::san_francisco_downtown(), cfg)
        .expect("local campaign");
    runner.run_to_end().expect("local run");
    campaign_encoded(&runner.finish().expect("local finish"))
}

/// Runs the campaign remotely under chaos and returns the encoded bytes
/// plus the metrics snapshot read at the last tick boundary (the
/// `resilience.*` counters live there).
fn run_remote_chaos(
    addr: &str,
    cfg: &CampaignConfig,
    connections: usize,
    options: RemoteOptions,
) -> (Vec<u8>, Snapshot) {
    let mut runner = CampaignRunner::new_remote_with(
        CityModel::san_francisco_downtown(),
        cfg,
        addr,
        connections,
        options,
    )
    .expect("remote campaign");
    runner.run_to_end().expect("remote run");
    let snap = runner.metrics_snapshot();
    (campaign_encoded(&runner.finish().expect("remote finish")), snap)
}

fn count(snap: &Snapshot, key: &str) -> u64 {
    snap.value(key).unwrap_or_else(|| panic!("metric {key} missing from snapshot"))
}

#[test]
fn chaotic_remote_campaign_matches_local_bytes_clean_and_faulted() {
    let mut server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();

    let plans = [
        ("clean", FaultPlan::none()),
        ("faulted", FaultPlan { drop_chance: 0.05, delay_chance: 0.15, max_delay_secs: 20 }),
    ];
    for (label, faults) in plans {
        let cfg = chaos_cfg(7_0931, faults);
        let local = run_local(&cfg);
        for connections in [1usize, 4] {
            let options = RemoteOptions {
                policy: test_policy(8),
                chaos: Some(ChaosSpec { seed: 0xC4A05 ^ connections as u64, plan: chaos_plan() }),
            };
            let (remote, snap) = run_remote_chaos(&addr, &cfg, connections, options);
            assert_eq!(
                local, remote,
                "{label}: chaotic remote campaign over {connections} connection(s) \
                 diverged from the in-process bytes"
            );
            // The schedule must actually have fired: at least one
            // disconnect (reset), one truncated frame, and one stall
            // per campaign — otherwise this test pins nothing.
            let resets = count(&snap, "resilience.chaos_resets");
            let truncations = count(&snap, "resilience.chaos_truncations");
            let stalls = count(&snap, "resilience.chaos_stalls");
            assert!(resets >= 1, "{label}/{connections}: no connection reset injected");
            assert!(truncations >= 1, "{label}/{connections}: no truncation injected");
            assert!(stalls >= 1, "{label}/{connections}: no write stall injected");
            // Every killed stream forced a reconnect.
            let reconnects = count(&snap, "resilience.reconnects");
            assert!(
                reconnects >= resets + truncations,
                "{label}/{connections}: {resets} resets + {truncations} truncations \
                 but only {reconnects} reconnects"
            );
            assert_eq!(
                count(&snap, "resilience.breaker_trips"),
                0,
                "{label}/{connections}: the breaker must not trip under a generous budget"
            );
        }
    }
    server.shutdown();
}

/// The chaos schedule is a pure function of (seed, connection,
/// incarnation): two identical runs inject identical fault counts and
/// read byte-identical deterministic metric sections.
#[test]
fn chaos_injection_counts_are_deterministic_per_seed() {
    let mut server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let cfg = chaos_cfg(55, FaultPlan::none());
    let run = |addr: &str| {
        let options = RemoteOptions {
            policy: test_policy(8),
            chaos: Some(ChaosSpec { seed: 99, plan: chaos_plan() }),
        };
        let (bytes, snap) = run_remote_chaos(addr, &cfg, 2, options);
        (bytes, snap.deterministic_json())
    };
    let (bytes_a, det_a) = run(&addr);
    let (bytes_b, det_b) = run(&addr);
    assert_eq!(bytes_a, bytes_b, "chaotic runs must stay byte-identical");
    assert_eq!(det_a, det_b, "deterministic metric sections drifted across identical runs");
    server.shutdown();
}

/// Retry budget 0: the first injected fault trips the circuit breaker.
/// The run surfaces an error naming the breaker (what the experiments
/// cache keys its local fallback on), `resilience.breaker_trips` is
/// nonzero, and the local fallback produces the identical bytes.
#[test]
fn zero_retry_budget_trips_the_breaker_and_local_fallback_matches() {
    let mut server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let cfg = chaos_cfg(7_0931, FaultPlan::none());
    let baseline = run_local(&cfg);

    // Every armed write dies instantly; budget 0 means no reconnect.
    let murder = ChaosPlan {
        reset_chance: 1.0,
        truncate_chance: 0.0,
        stall_chance: 0.0,
        delay_chance: 0.0,
        stall: Duration::ZERO,
    };
    let options = RemoteOptions {
        policy: test_policy(0),
        chaos: Some(ChaosSpec { seed: 7, plan: murder }),
    };
    let mut runner = CampaignRunner::new_remote_with(
        CityModel::san_francisco_downtown(),
        &cfg,
        &addr,
        1,
        options,
    )
    .expect("handshakes run clean (chaos arms after setup)");
    let err = runner.run_to_end().expect_err("the breaker must abort the campaign");
    assert!(
        err.to_string().contains("circuit breaker"),
        "the error must name the breaker so the cache's fallback can count it: {err}"
    );
    let snap = runner.metrics_snapshot();
    assert!(
        count(&snap, "resilience.breaker_trips") >= 1,
        "breaker_trips must be nonzero after the abort"
    );
    assert_eq!(count(&snap, "resilience.reconnects"), 0, "budget 0 permits no reconnect");
    drop(runner);

    // The fallback `cache.campaign_custom` takes on that error: run the
    // same config in-process. Identical bytes — the flaky wire cost the
    // topology, never the result.
    let fallback = run_local(&cfg);
    assert_eq!(baseline, fallback, "local fallback diverged from the in-process baseline");
    server.shutdown();
}
