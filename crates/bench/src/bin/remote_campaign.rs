//! `remote_campaign` — run one measurement campaign and write its
//! encoded [`CampaignData`](surgescope_core::CampaignData) bytes to a file.
//!
//! With `--remote ADDR` the campaign is measured **over the wire**
//! against a `surgescope-serve` endpoint over `--conns` sockets;
//! without it the same config runs in-process. The output is
//! `persist::campaign_encoded` — floats as raw IEEE-754 bits — so a
//! plain `cmp` of the two files is the serving layer's byte-identity
//! gate:
//!
//! ```text
//! remote_campaign --out local.bin  --seed 70931 --faulted
//! remote_campaign --out remote.bin --seed 70931 --faulted \
//!     --remote 127.0.0.1:PORT --conns 2
//! cmp local.bin remote.bin
//! ```

use std::path::PathBuf;
use surgescope_city::CityModel;
use surgescope_core::persist::campaign_encoded;
use surgescope_core::{CampaignConfig, CampaignRunner, ChaosSpec, RemoteOptions};
use surgescope_serve::ChaosPlan;
use surgescope_simcore::FaultPlan;

fn usage() -> ! {
    eprintln!(
        "usage: remote_campaign --out PATH [--seed N] [--hours N]\n\
         \x20                      [--remote ADDR [--conns K] [--chaos SEED]]\n\
         \x20                      [--faulted]\n\
         \n\
         options:\n\
         \x20 --out P       write the encoded CampaignData bytes to P (required)\n\
         \x20 --seed N      campaign seed (default 70931)\n\
         \x20 --hours N     simulated hours (default 1 = 720 ticks)\n\
         \x20 --remote A    measure over the wire against the server at A\n\
         \x20               (default: in-process)\n\
         \x20 --conns K     connections for --remote (default 2)\n\
         \x20 --chaos SEED  sabotage the remote connections with the seeded\n\
         \x20               reference fault schedule (resets, truncations,\n\
         \x20               stalls); the retry layer must still produce\n\
         \x20               byte-identical output (requires --remote)\n\
         \x20 --faulted     apply the reference fault plan (5% drops,\n\
         \x20               15% delays up to 20s)"
    );
    std::process::exit(2);
}

fn value_of(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        usage();
    })
}

fn parsed<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    value_of(it, flag).parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs a number");
        std::process::exit(2);
    })
}

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut seed = 70_931u64;
    let mut hours = 1u64;
    let mut remote: Option<String> = None;
    let mut conns = 2usize;
    let mut chaos: Option<u64> = None;
    let mut faulted = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(PathBuf::from(value_of(&mut it, "--out"))),
            "--seed" => seed = parsed(&mut it, "--seed"),
            "--hours" => hours = parsed(&mut it, "--hours"),
            "--remote" => remote = Some(value_of(&mut it, "--remote")),
            "--conns" => conns = parsed(&mut it, "--conns"),
            "--chaos" => chaos = Some(parsed(&mut it, "--chaos")),
            "--faulted" => faulted = true,
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    let Some(out) = out else {
        eprintln!("--out is required");
        usage();
    };
    if chaos.is_some() && remote.is_none() {
        eprintln!("--chaos only makes sense with --remote (there is no wire to sabotage)");
        usage();
    };

    // Mirrors the `remote_lockstep` test config: small coarse-lattice SF
    // campaign where interval probes, flushes and delayed responses all
    // still fire.
    let mut cfg = CampaignConfig::test_default(seed);
    cfg.hours = hours;
    cfg.scale = 0.25;
    cfg.spacing_override_m = Some(500.0);
    if faulted {
        cfg.faults = FaultPlan { drop_chance: 0.05, delay_chance: 0.15, max_delay_secs: 20 };
    }

    let city = CityModel::san_francisco_downtown();
    let mode = remote.as_deref().map_or("in-process".to_string(), |a| format!("remote via {a}"));
    let mut runner = match &remote {
        Some(addr) => {
            let options = RemoteOptions {
                chaos: chaos.map(|seed| ChaosSpec { seed, plan: ChaosPlan::reference() }),
                ..RemoteOptions::default()
            };
            CampaignRunner::new_remote_with(city, &cfg, addr, conns, options)
        }
        None => CampaignRunner::new(city, &cfg),
    }
    .unwrap_or_else(|e| {
        eprintln!("remote_campaign: cannot start {mode} campaign: {e}");
        std::process::exit(1);
    });
    let data = runner
        .run_to_end()
        .map(|()| {
            if chaos.is_some() {
                let snap = runner.metrics_snapshot();
                let n = |k: &str| snap.value(k).unwrap_or(0);
                eprintln!(
                    "remote_campaign[chaos]: {} resets, {} truncations, {} stalls injected; \
                     {} reconnects, {} retries, {} breaker trips",
                    n("resilience.chaos_resets"),
                    n("resilience.chaos_truncations"),
                    n("resilience.chaos_stalls"),
                    n("resilience.reconnects"),
                    n("resilience.retries"),
                    n("resilience.breaker_trips"),
                );
            }
        })
        .and_then(|()| runner.finish())
        .unwrap_or_else(|e| {
            eprintln!("remote_campaign: {mode} campaign failed: {e}");
            std::process::exit(1);
        });
    let bytes = campaign_encoded(&data);
    if let Err(e) = std::fs::write(&out, &bytes) {
        eprintln!("remote_campaign: cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    eprintln!(
        "remote_campaign[{mode}]: {} ticks, {} clients -> {} ({} bytes)",
        data.ticks,
        data.clients.len(),
        out.display(),
        bytes.len(),
    );
}
