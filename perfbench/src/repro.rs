//! The `repro` workload: every experiment id at quick fidelity through the
//! experiments library — `schedule::prefetch`, then `run_experiment` per
//! id — with the program's default `jobs` and a fresh on-disk cache (and
//! CSV directory) inside the checkout for every pass.

use crate::campaign::{check_data, layers, report_layers, run_timed, Clock, SETUP_REPS};
use crate::report::{EndToEnd, Kept, Report, StealMeter};
use crate::stats::{fnv64, Dual, Elapsed, Samples, Stopwatch};
use crate::{check_pinned, nproc, Args, Deadline};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use surgescope_api::ProtocolEra;
use surgescope_city::CarType;
use surgescope_core::calibration::placement;
use surgescope_core::estimate::{EstimatorConfig, SupplyDemandEstimator};
use surgescope_core::persist::replay_campaign;
use surgescope_core::{Campaign, CampaignRunner, MeasuredSystem, TaxiSystem};
use surgescope_experiments::cache::{self, CampaignCache, City};
use surgescope_experiments::schedule::{self, Prefetch};
use surgescope_experiments::{run_experiment, RunCtx, ALL_IDS};
use surgescope_geo::Polygon;
use surgescope_simcore::{SimDuration, SimTime};
use surgescope_taxi::TaxiTrace;

/// One reproduction of every experiment.
struct Pass {
    setup: Dual,
    prefetch: Elapsed,
    /// Prefetch plus every experiment: what `repro --quick all` does.
    whole: Elapsed,
    /// Each `run_experiment` call.
    steps: Dual,
    failed_ids: Vec<&'static str>,
    /// FNV-1a over the rendered outcomes and every CSV the pass wrote.
    digest: u64,
    supply_capture: f64,
    death_capture: f64,
    /// Ticks simulated by cached campaigns and the taxi replay.
    sim_ticks: u64,
    misses: u64,
    disk_replays: u64,
    log_bytes: u64,
    checkpoints: u64,
    metrics_json: String,
}

/// Sums every `"key":<integer>` in a metrics document.
fn sum_key(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    json.match_indices(&pat)
        .filter_map(|(i, _)| {
            let rest = &json[i + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse::<u64>().ok()
        })
        .sum()
}

/// Files in `dir` with extension `ext`, sorted by name.
fn files_with(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    v.sort();
    v
}

fn ctx_for(seed: u64, dir: &Path) -> RunCtx {
    let mut ctx = RunCtx::quick(seed);
    ctx.out_dir = Some(dir.to_path_buf());
    ctx.quiet = true;
    ctx
}

fn pass(seed: u64, dir: &Path, jobs: usize) -> (Pass, CampaignCache) {
    // Set-up: a fresh cache and output directory, and the prefetch plan
    // as `schedule::prefetch` computes it before its first campaign.
    // It is cheap next to a pass, and a run holds a single pass, so it is
    // timed four times as often as a campaign's set-up.
    std::fs::create_dir_all(dir).expect("create the pass directory");
    let ids: Vec<String> = ALL_IDS.iter().map(ToString::to_string).collect();
    let mut setup = Dual::default();
    let (ctx, cache) = loop {
        let t0 = Stopwatch::start();
        let ctx = ctx_for(seed, dir);
        let cache = CampaignCache::new();
        let mut seen = HashSet::new();
        let mut plan: Vec<Prefetch> = ids
            .iter()
            .flat_map(|id| schedule::needs(id, &ctx))
            .filter(|t| match t {
                Prefetch::Taxi => seen.insert(0),
                Prefetch::Campaign(city, cfg) => {
                    seen.insert(cache::cache_key(&city.model().name, cfg))
                }
            })
            .collect();
        schedule::order_longest_first(&mut plan, &ctx);
        setup.push(t0.elapsed());
        if setup.cpu.len() == 4 * SETUP_REPS {
            break (ctx, cache);
        }
    };

    let t1 = Stopwatch::start();
    schedule::prefetch(&ids, &ctx, &cache, jobs);
    let prefetch = t1.elapsed();
    let mut rendered = String::new();
    let (mut steps, mut failed_ids) = (Dual::default(), Vec::new());
    let (mut supply_capture, mut death_capture) = (0.0, 0.0);
    for id in ALL_IDS {
        let ts = Stopwatch::start();
        let out = catch_unwind(AssertUnwindSafe(|| run_experiment(id, &ctx, &cache)));
        steps.push(ts.elapsed());
        match out {
            Ok(Some(o)) => {
                rendered.push_str(&o.render());
                if id == "fig04" {
                    supply_capture = o.metric("supply_capture").unwrap_or(0.0);
                    death_capture = o.metric("death_capture").unwrap_or(0.0);
                }
            }
            _ => failed_ids.push(id),
        }
    }
    let whole = t1.elapsed();

    let mut bytes = rendered.into_bytes();
    for csv in files_with(dir, "csv") {
        bytes.extend(csv.file_name().unwrap_or_default().as_encoded_bytes());
        bytes.extend(std::fs::read(&csv).unwrap_or_default());
    }
    let metrics_json = cache.metrics_json();
    let run = cache.registry().snapshot();
    let taxi_ticks = run.value("cache.taxi_runs").unwrap_or(0) * 24 * 720;
    let logs = files_with(&dir.join("campaign-cache"), "sslog");
    let p = Pass {
        setup,
        prefetch,
        whole,
        steps,
        failed_ids,
        digest: fnv64(&bytes),
        supply_capture,
        death_capture,
        sim_ticks: sum_key(&metrics_json, "campaign.ticks") + taxi_ticks,
        misses: run.value("cache.misses").unwrap_or(0),
        disk_replays: run.value("cache.disk_replays").unwrap_or(0),
        log_bytes: logs
            .iter()
            .map(|l| std::fs::metadata(l).map_or(0, |m| m.len()))
            .sum(),
        checkpoints: sum_key(&metrics_json, "store.checkpoints"),
        metrics_json,
    };
    (p, cache)
}

/// The taxi validation's settings as `CampaignCache::taxi` chooses them;
/// the trace is the cache's own. `traced` fails a gate when a replay with
/// these settings no longer reproduces the cache's result.
struct TaxiInputs {
    region: Polygon,
    spacing_m: f64,
    hours: u64,
    seed: u64,
    est: EstimatorConfig,
}

fn taxi_inputs(ctx: &RunCtx) -> TaxiInputs {
    TaxiInputs {
        region: City::Manhattan.model().measurement_region,
        spacing_m: 150.0,
        hours: if ctx.quick { 24 } else { 3 * 24 },
        seed: ctx.seed ^ 0x7A52,
        est: EstimatorConfig {
            edge_margin_m: 75.0,
            short_lived_secs: 45,
            ..Default::default()
        },
    }
}

/// `run_taxi`'s loop with `TaxiSystem::ping_all_into` timed; returns the
/// ping time and the tick count.
fn taxi_ping(trace: &TaxiTrace, t: &TaxiInputs) -> (f64, u64) {
    let clients = placement(&t.region, t.spacing_m);
    let mut sys = TaxiSystem::new(trace, t.region.clone(), t.seed);
    let mut est = SupplyDemandEstimator::new(t.est, t.region.clone(), vec![]);
    let mut obs = Vec::new();
    let mut ping_s = 0.0;
    let ticks = t.hours * 720;
    for _ in 0..ticks {
        sys.advance_tick();
        let mut clock = Clock::new(true);
        sys.ping_all_into(&clients, &mut obs);
        clock.lap(&mut ping_s);
        let now = sys.now();
        let state_t = now.saturating_sub(SimDuration::secs(5));
        for blocks in &obs {
            est.observe(state_t, blocks);
        }
        est.end_tick(now);
    }
    est.finish(SimTime(ticks * 5));
    (ping_s, ticks)
}

pub fn run(args: &Args, rep: &mut Report) {
    // Prefetch workers: the `repro` program's default.
    let jobs = nproc();
    println!(
        "workload repro: {} experiments at quick fidelity, jobs {jobs}, fresh cache per pass",
        ALL_IDS.len()
    );
    let work = PathBuf::from(".bench_work");
    let mut deadline = Deadline::new(args.seconds);
    let mut kept = Kept::default();
    let mut first_digest: Option<u64> = None;
    let mut n = 0;
    while deadline.another_round(kept.quiet_rounds()) {
        n += 1;
        let steal = StealMeter::start();
        let dir = work.join(format!("repro-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (p, cache) = pass(args.seed, &dir, jobs);
        rep.attempted += ALL_IDS.len() as u64;
        if !p.failed_ids.is_empty() {
            rep.gate_failed(
                p.failed_ids.len() as u64,
                format!("experiments failed: {:?}", p.failed_ids),
            );
        }
        match first_digest {
            None => {
                check_pinned(rep, "repro", args.seed, p.digest, ALL_IDS.len() as u64);
                first_digest = Some(p.digest);
            }
            Some(d) if d != p.digest => rep.gate_failed(
                ALL_IDS.len() as u64,
                format!("repro digest {:016x} != first pass's {d:016x}", p.digest),
            ),
            Some(_) => {}
        }
        println!(
            "fig04 capture: cars {:.4}, deaths {:.4} (paper: 0.97, 0.95) — reported, not gated",
            p.supply_capture, p.death_capture
        );
        let mut round = EndToEnd {
            setup: p.setup.clone(),
            steps: p.steps.clone(),
            ..Default::default()
        };
        round.whole.push(p.whole);
        round.per_s.push(Elapsed {
            cpu: p.sim_ticks as f64 / p.whole.cpu,
            wall: p.sim_ticks as f64 / p.whole.wall,
        });
        kept.add(&round, steal.share());
        if args.trace && n == 1 {
            traced(args, rep, &p, &cache, &dir);
        }
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir(&work);
    kept.report(
        rep,
        [
            "fresh cache + prefetch plan",
            "ticks simulated by cached campaigns and the taxi replay per repro second",
            "one step = one run_experiment call",
            "prefetch + every experiment",
        ],
    );
}

/// The per-layer measurements of the first pass, taken while its cache
/// directory still holds the logs it wrote.
fn traced(args: &Args, rep: &mut Report, p: &Pass, cache: &CampaignCache, dir: &Path) {
    let ctx = ctx_for(args.seed, dir);
    rep.layer(
        "schedule.prefetch_s",
        p.prefetch.wall,
        "schedule::prefetch, first pass",
    );
    rep.layer(
        "experiments.analysis_s",
        p.steps.wall.sum(),
        "sum over run_experiment, first pass",
    );
    rep.layer(
        "cache.misses",
        p.misses as f64,
        "CampaignCache counter, first pass",
    );
    rep.layer(
        "cache.disk_replays",
        p.disk_replays as f64,
        "CampaignCache counter, first pass",
    );
    rep.layer(
        "store.log_bytes",
        p.log_bytes as f64,
        "size of the .sslog files the pass wrote",
    );
    rep.layer(
        "store.checkpoints",
        p.checkpoints as f64,
        "sum over the campaigns' store counters",
    );
    rep.layer("taxi.supply_capture", p.supply_capture, "fig04 outcome");
    rep.layer("taxi.death_capture", p.death_capture, "fig04 outcome");
    println!(
        "program run-level snapshot {}",
        cache.registry().snapshot().to_json()
    );
    for key in [
        "store.log_bytes",
        "store.log_records",
        "store.checkpoints",
        "campaign.ticks",
    ] {
        println!(
            "program sum over campaigns {key} = {}",
            sum_key(&p.metrics_json, key)
        );
    }

    // Replay the largest log the pass wrote.
    let logs = files_with(&dir.join("campaign-cache"), "sslog");
    let largest = logs
        .iter()
        .max_by_key(|l| std::fs::metadata(l).map_or(0, |m| m.len()));
    match largest.map(|l| {
        let t = Stopwatch::start();
        replay_campaign(l).map(|d| d.ticks as f64 / t.elapsed().wall)
    }) {
        Some(Ok(rate)) => rep.layer(
            "store.replay_ticks_per_s",
            rate,
            "persist::replay_campaign, largest log",
        ),
        Some(Err(e)) => rep.gate_failed(1, format!("replaying a log the pass wrote: {e}")),
        None => rep.gate_failed(1, "the pass wrote no campaign log".into()),
    }

    // The taxi validation, on the cache's trace with the cache's settings.
    let cached = cache.taxi(&ctx);
    let inputs = taxi_inputs(&ctx);
    let t = Stopwatch::start();
    let (est, _truth) = Campaign::run_taxi(
        &cached.trace,
        inputs.region.clone(),
        inputs.spacing_m,
        inputs.hours,
        inputs.seed,
        inputs.est,
    );
    rep.layer("taxi.validate_s", t.elapsed().wall, "Campaign::run_taxi");
    if est.supply_series(CarType::UberT) != cached.estimator.supply_series(CarType::UberT) {
        rep.gate_failed(
            1,
            "Campaign::run_taxi with these settings no longer reproduces CampaignCache::taxi"
                .into(),
        );
    }
    let (ping_s, ticks) = taxi_ping(&cached.trace, &inputs);
    rep.layer(
        "taxi.ping_us",
        ping_s * 1e6 / ticks as f64,
        &format!("TaxiSystem::ping_all_into, mean over {ticks} ticks"),
    );

    // The campaign layers, on the SF campaign this workload prefetches.
    let cfg = CampaignCache::campaign_config(City::SanFrancisco, ProtocolEra::Apr2015, &ctx);
    let total = cfg.hours * 720;
    let mut runner_ticks = Samples::new();
    match run_timed(
        Stopwatch::start(),
        CampaignRunner::new(City::SanFrancisco.model(), &cfg),
        total,
    ) {
        Ok(c) => {
            if let Err(e) = check_data(&c.data, total, true) {
                rep.gate_failed(1, e);
            }
            runner_ticks = c.ticks.wall;
        }
        Err(a) => rep.gate_failed(1, a.msg),
    }
    let spanned = layers(&cfg, true);
    let plain = layers(&cfg, false);
    report_layers(
        rep,
        &spanned,
        &runner_ticks,
        "SF quick campaign layer loop",
        None,
    );
    rep.layer(
        "trace.overhead_frac",
        spanned.loop_s / plain.loop_s - 1.0,
        "SF quick campaign layer loop with spans over without",
    );
}
