//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--seed N] <id>...     run specific experiments
//! repro [--quick] [--seed N] all         run everything
//! repro --resume <checkpoint> [<id>...]  finish an interrupted campaign
//!                                        first, then run experiments
//! repro list                             list experiment ids
//! ```
//!
//! `--resume` takes a campaign checkpoint written by the store layer
//! (see `results/campaign-cache/*.ckpt`), moves it to the disk cache's
//! checkpoint path for its campaign and asks the cache for the campaign,
//! which resumes it as it resumes any interrupted run — continuing
//! bit-identically to the uninterrupted run, locally even under
//! `--remote` — so the listed experiments reuse the finished campaign.
//!
//! `--serve ADDR` hosts the simulated marketplace over TCP as lockstep
//! campaign worlds (which `serve_load` also drives); `--remote ADDR`
//! points the experiments' campaigns at such a server —
//! the measured bytes are identical to the in-process run.

use std::path::{Path, PathBuf};
use surgescope_core::CampaignConfig;
use surgescope_experiments::cache::{self, CampaignCache, City};
use surgescope_experiments::{run_experiment, RunCtx, ALL_IDS};

fn usage() -> ! {
    eprintln!(
        "usage: repro [options] <id>... | all | list\n\
         \x20      repro --serve ADDR\n\
         \n\
         options:\n\
         \x20 --quick       shorter campaigns, scaled-down cities\n\
         \x20 --quiet       suppress [schedule]/[cache] progress chatter\n\
         \x20 --seed N      root seed for every campaign (default 2015)\n\
         \x20 --jobs N      simulate distinct campaigns on N worker threads\n\
         \x20               (default: available parallelism; results are\n\
         \x20               byte-identical at any value)\n\
         \x20 --resume P    finish the campaign checkpointed at P first\n\
         \x20 --metrics P   write the run's metrics snapshot (JSON) to P\n\
         \x20 --serve ADDR  host lockstep campaigns for remote clients on\n\
         \x20               ADDR (port 0 picks an ephemeral port; prints\n\
         \x20               'listening on <addr>' and serves until killed;\n\
         \x20               every other option is ignored)\n\
         \x20 --remote ADDR measure campaigns over the wire against the\n\
         \x20               server at ADDR (byte-identical to in-process)\n\
         \x20 --remote-retries N    wire retry budget per remote operation\n\
         \x20               (default 4; 0 trips the circuit breaker on the\n\
         \x20               first failure and falls back to local execution)\n\
         \x20 --remote-op-timeout SECS  per-operation socket deadline for\n\
         \x20               remote campaigns (default 30; bounds how long a\n\
         \x20               hung server can stall any single operation)"
    );
    std::process::exit(2);
}

/// Moves the checkpoint at `ckpt` to the disk cache's checkpoint path for
/// its campaign (copies it across filesystems) and asks `campaigns` for
/// the campaign, which resumes it there. The resume stays local: remote
/// campaigns cannot be checkpointed.
fn resume_campaign(ckpt: &Path, ctx: &RunCtx, campaigns: &CampaignCache) {
    use serde::Deserialize;
    let die = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("--resume: bad checkpoint {}: {e}", ckpt.display());
        std::process::exit(1);
    };
    let (_, state) = surgescope_store::read_checkpoint(ckpt).unwrap_or_else(|e| die(&e));
    let cfg = state.field("config").and_then(CampaignConfig::from_value);
    let cfg = cfg.unwrap_or_else(|e| die(&e));
    let name = state.field("city").and_then(|c| c.field("name")).and_then(String::from_value);
    let name = name.unwrap_or_else(|e| die(&e));
    let city = City::BOTH.into_iter().find(|c| c.model().name == name);
    let city = city.unwrap_or_else(|| die(&format!("unknown city {name}")));
    let dir = cache::cache_dir(ctx).expect("repro always has an output directory");
    let dest = cache::checkpoint_path(&dir, cache::cache_key(&name, &cfg));
    let moved = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::rename(ckpt, &dest).or_else(|_| std::fs::copy(ckpt, &dest).map(drop))
    });
    if let Err(e) = moved {
        eprintln!("--resume: cannot move {} to {}: {e}", ckpt.display(), dest.display());
        std::process::exit(1);
    }
    let local = RunCtx { remote: None, ..ctx.clone() };
    campaigns.campaign_custom(city, cfg, &local);
}

/// `--serve ADDR`: host lockstep remote campaigns over the wire until the
/// process is killed. Never returns.
fn serve_forever(addr: &str) -> ! {
    use std::io::Write as _;
    use surgescope_serve::{ServeConfig, Server};
    let server = Server::bind(addr, ServeConfig::default()).unwrap_or_else(|e| {
        eprintln!("--serve: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    // The exact bound address on stdout (port 0 resolves here), flushed so
    // a supervising script can scrape it before any campaign traffic.
    println!("[serve] listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut quiet = false;
    let mut seed = 2015u64;
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut resume: Option<PathBuf> = None;
    let mut metrics: Option<PathBuf> = None;
    let mut serve: Option<String> = None;
    let mut remote: Option<String> = None;
    let mut remote_retries: Option<u32> = None;
    let mut remote_op_timeout: Option<u64> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--serve" => {
                serve = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--serve needs a bind address (e.g. 127.0.0.1:0)");
                    std::process::exit(2);
                }))
            }
            "--remote" => {
                remote = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--remote needs a server address");
                    std::process::exit(2);
                }))
            }
            "--remote-retries" => {
                remote_retries = Some(
                    it.next().and_then(|s| s.parse::<u32>().ok()).unwrap_or_else(|| {
                        eprintln!("--remote-retries needs a non-negative integer");
                        std::process::exit(2);
                    }),
                )
            }
            "--remote-op-timeout" => {
                remote_op_timeout = Some(
                    it.next()
                        .and_then(|s| s.parse::<u64>().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| {
                            eprintln!("--remote-op-timeout needs a positive number of seconds");
                            std::process::exit(2);
                        }),
                )
            }
            "--quick" => quick = true,
            "--quiet" => quiet = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--seed needs an integer");
                        std::process::exit(2);
                    })
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--jobs needs a positive integer");
                        std::process::exit(2);
                    })
            }
            "--resume" => {
                resume = Some(PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--resume needs a checkpoint path");
                    std::process::exit(2);
                })))
            }
            "--metrics" => {
                metrics = Some(PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--metrics needs an output path");
                    std::process::exit(2);
                })))
            }
            "list" => {
                for id in ALL_IDS {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            other => {
                if other.starts_with('-') {
                    eprintln!("unknown flag: {other}");
                    usage();
                }
                ids.push(other.to_string());
            }
        }
    }
    if let Some(addr) = serve {
        serve_forever(&addr);
    }
    if ids.is_empty() && resume.is_none() {
        usage();
    }
    let mut ctx = RunCtx::full(seed);
    ctx.quick = quick;
    ctx.quiet = quiet;
    ctx.remote = remote;
    ctx.remote_retries = remote_retries;
    ctx.remote_op_timeout = remote_op_timeout;
    let cache = CampaignCache::new();
    if let Some(ckpt) = &resume {
        resume_campaign(ckpt, &ctx, &cache);
    }
    // Plan: simulate every distinct campaign the requested experiments
    // declare, concurrently, before the (serial, order-preserving)
    // experiment loop reads them from the cache. Running the planner even
    // at --jobs 1 keeps the schedule.* metrics (and the logged plan)
    // identical across jobs settings; with one worker it drains the same
    // order on the caller's thread.
    if ids.len() > 1 {
        surgescope_experiments::schedule::prefetch(&ids, &ctx, &cache, jobs);
    }
    let mut failed = false;
    for id in &ids {
        match run_experiment(id, &ctx, &cache) {
            Some(outcome) => println!("{}", outcome.render()),
            None => {
                eprintln!("unknown experiment id: {id}");
                failed = true;
            }
        }
    }
    if let Some(path) = &metrics {
        if let Err(e) = std::fs::write(path, cache.metrics_json() + "\n") {
            eprintln!("--metrics: cannot write {}: {e}", path.display());
            failed = true;
        } else if !quiet {
            eprintln!("[metrics] wrote {}", path.display());
        }
    }
    if failed {
        std::process::exit(1);
    }
}
