//! The `remote` workload: the lockstep-test campaign shape (quarter-scale
//! SF, 500 m lattice, reference fault plan) measured over loopback through
//! an in-process `Server`, by `CampaignRunner::new_remote` with one
//! connection per core. The first round also runs each campaign in
//! process, whose bytes the remote output must equal.

use crate::campaign::{
    check_data, layers, report_pipeline, report_runner_ticks, run_timed, scaled_city, Clock,
    LayerTotals, Round, SETUP_REPS,
};
use crate::report::{Kept, Report, StealMeter};
use crate::stats::{Samples, Stopwatch};
use crate::{nproc, sub_seeds, Args, Deadline, SubSeedDigests};
use std::io;
use std::time::Instant;
use surgescope_city::CityModel;
use surgescope_core::calibration::placement;
use surgescope_core::estimate::SupplyDemandEstimator;
use surgescope_core::{
    CampaignConfig, CampaignRunner, MeasuredSystem, RemoteMeasuredSystem, RemoteOptions,
    RemoteWorldSpec,
};
use surgescope_serve::{ServeConfig, Server};
use surgescope_simcore::{FaultPlan, SimDuration};

/// Sub-seeds per round: one seed's campaign takes up to 20% longer than
/// another's, so every round runs the same eight and a run's figures
/// average over them.
const SUBSEEDS: u64 = 8;

/// Same offset into the interval as the runner's API probe.
const PROBE_OFFSET_SECS: u64 = 45;

/// The lockstep integration test's campaign shape, faulted.
pub fn config(seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::test_default(seed);
    cfg.hours = 1;
    cfg.scale = 0.25;
    cfg.spacing_override_m = Some(500.0);
    cfg.faults = FaultPlan {
        drop_chance: 0.05,
        delay_chance: 0.15,
        max_delay_secs: 20,
    };
    cfg
}

/// Outside-in timings of one remote campaign driven through
/// `RemoteMeasuredSystem` the way the runner drives it.
#[derive(Default)]
struct RemoteTotals {
    ticks: u64,
    advance_s: f64,
    ping_s: f64,
    observe_s: f64,
    probe_s: f64,
    probe_ticks: u64,
    loop_s: f64,
}

impl RemoteTotals {
    fn add(&mut self, o: &RemoteTotals) {
        self.ticks += o.ticks;
        self.advance_s += o.advance_s;
        self.ping_s += o.ping_s;
        self.observe_s += o.observe_s;
        self.probe_s += o.probe_s;
        self.probe_ticks += o.probe_ticks;
        self.loop_s += o.loop_s;
    }
}

fn remote_layers(
    addr: &str,
    cfg: &CampaignConfig,
    k: usize,
    spans: bool,
) -> io::Result<RemoteTotals> {
    let city = scaled_city(cfg);
    let spec = RemoteWorldSpec {
        city: &city,
        seed: cfg.seed,
        era: cfg.era,
        surge_policy: cfg.surge_policy,
    };
    let mut sys =
        RemoteMeasuredSystem::connect_with(addr, &spec, cfg.faults, k, RemoteOptions::default())?;
    let clients = placement(
        &city.measurement_region,
        cfg.spacing_override_m.unwrap_or(city.client_spacing_m),
    );
    let areas: Vec<_> = city.areas.iter().map(|a| a.polygon.clone()).collect();
    let centroids: Vec<_> = areas.iter().map(|p| p.centroid()).collect();
    let mut est = SupplyDemandEstimator::new(cfg.estimator, city.measurement_region.clone(), areas);
    let mut obs = Vec::new();
    let mut t = RemoteTotals {
        ticks: cfg.hours * 720,
        ..Default::default()
    };
    let start = Instant::now();
    let mut clock = Clock::new(spans);
    for _ in 0..t.ticks {
        sys.advance_tick();
        clock.lap(&mut t.advance_s);
        sys.ping_all_into(&clients, &mut obs);
        clock.lap(&mut t.ping_s);
        if let Some(e) = sys.fault() {
            return Err(e);
        }
        let now = sys.now();
        let state_t = now.saturating_sub(SimDuration::secs(5));
        for blocks in &obs {
            est.observe(state_t, blocks);
        }
        est.end_tick(now);
        clock.lap(&mut t.observe_s);
        if now.seconds_into_surge_interval() == PROBE_OFFSET_SECS {
            for (ai, c) in centroids.iter().enumerate() {
                let loc = city.projection.to_latlng(*c);
                let account = 1_000_000 + ai as u64;
                let _ = sys.probe_price(account, loc);
                let _ = sys.probe_time(account, loc);
            }
            clock.lap(&mut t.probe_s);
            t.probe_ticks += 1;
        }
    }
    t.loop_s = start.elapsed().as_secs_f64();
    sys.finish()?;
    Ok(t)
}

/// The workload: in-process twin, then the remote campaign, per round.
pub fn run(args: &Args, rep: &mut Report) {
    // One connection per core.
    let k = nproc();
    let shape = config(args.seed);
    let total = shape.hours * 720;
    println!(
        "workload remote: SF downtown, scale {}, 500 m lattice, {} h = {total} ticks, {k} connections, \
         faults {:?}, rounds of {SUBSEEDS} sub-seeds",
        shape.scale, shape.hours, shape.faults
    );
    let mut deadline = Deadline::new(args.seconds);
    let mut kept = Kept::default();
    let (mut slowdown, mut overhead) = (Samples::new(), Samples::new());
    let (mut frames, mut bytes, mut retries, mut frame_errors, mut measured_ticks) =
        (0, 0, 0, 0, 0);
    let mut remote_sum = RemoteTotals::default();
    let mut local_sum = LayerTotals::default();
    let mut digests = SubSeedDigests::default();
    // Each sub-seed's in-process twin: sub-seed, digest, wall time. It
    // runs in the first round only: later rounds must reproduce the first
    // round's remote bytes, so they match the twin's as well.
    let mut twins: Vec<(u64, u64, f64)> = Vec::new();
    while deadline.another_round(kept.quiet_rounds()) {
        let steal = StealMeter::start();
        let mut round = Round::default();
        for seed in sub_seeds(args.seed, SUBSEEDS) {
            let cfg = config(seed);
            if !twins.iter().any(|t| t.0 == seed) {
                let twin = CampaignRunner::new(CityModel::san_francisco_downtown(), &cfg);
                match run_timed(Stopwatch::start(), twin, total) {
                    Ok(t) => {
                        if let Err(e) = check_data(&t.data, total, false) {
                            rep.gate_failed(0, format!("in-process twin: {e}"));
                        }
                        twins.push((seed, t.digest, t.whole.wall));
                    }
                    Err(a) => {
                        rep.gate_failed(0, format!("in-process twin: {}", a.msg));
                        continue;
                    }
                }
            }
            let (_, twin_digest, twin_wall) = *twins
                .iter()
                .find(|t| t.0 == seed)
                .expect("the twin ran in this or an earlier round");

            // Set-up waits on the server's 50-ms accept poll, so one
            // sample reads anywhere from 0 to 100 ms: a round times
            // SETUP_REPS set-ups, the last of each campaign's runs it.
            for _ in 1..SETUP_REPS / SUBSEEDS as usize {
                let t0 = Stopwatch::start();
                let mut server = Server::bind("127.0.0.1:0", ServeConfig::default())
                    .expect("bind a loopback port");
                let addr = server.local_addr().to_string();
                let runner =
                    CampaignRunner::new_remote(CityModel::san_francisco_downtown(), &cfg, &addr, k);
                round.setup(t0.elapsed());
                drop(runner);
                server.shutdown();
                let requests = server.metrics().frames_in.get();
                rep.attempted += requests;
                if server.metrics().frame_errors.get() > 0 {
                    rep.gate_failed(requests, "a remote set-up met frame errors".into());
                }
            }

            let t0 = Stopwatch::start();
            let mut server =
                Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind a loopback port");
            let addr = server.local_addr().to_string();
            let remote = run_timed(
                t0,
                CampaignRunner::new_remote(CityModel::san_francisco_downtown(), &cfg, &addr, k),
                total,
            );
            // Shutdown joins the server's workers, so every counter has landed.
            server.shutdown();
            let m = server.metrics();
            let requests = m.frames_in.get();
            rep.attempted += requests;
            let errors = m.frame_errors.get();
            let c = match remote {
                Ok(c) => c,
                Err(a) => {
                    rep.gate_failed(requests.max(1), format!("remote campaign: {}", a.msg));
                    continue;
                }
            };
            let round_retries = c.snapshot.value("resilience.retries").unwrap_or(0);
            rep.failed += round_retries + errors;
            if c.digest != twin_digest {
                rep.gate_failed(
                    requests,
                    format!(
                        "remote bytes {:016x} != in-process twin {twin_digest:016x}",
                        c.digest
                    ),
                );
            }
            digests.check(rep, "remote", args.seed, seed, c.digest, requests);
            round.add(&c, total);
            slowdown.push(c.whole.wall / twin_wall);
            frames += m.frames_in.get() + m.frames_out.get();
            bytes += m.bytes_in.get() + m.bytes_out.get();
            retries += round_retries;
            frame_errors += errors;
            measured_ticks += total;

            if args.trace {
                if measured_ticks == total {
                    print_program(&server, &c.snapshot);
                }
                let mut server = Server::bind("127.0.0.1:0", ServeConfig::default())
                    .expect("bind a loopback port");
                let addr = server.local_addr().to_string();
                let loops = remote_layers(&addr, &cfg, k, true)
                    .and_then(|s| remote_layers(&addr, &cfg, k, false).map(|p| (s, p)));
                server.shutdown();
                match loops {
                    Ok((s, p)) => {
                        overhead.push(s.loop_s / p.loop_s - 1.0);
                        remote_sum.add(&s);
                    }
                    Err(e) => rep.gate_failed(0, format!("remote layer loop: {e}")),
                }
                local_sum.add(&layers(&cfg, true));
            }
        }
        kept.add(&round.finish(), steal.share());
    }
    kept.report(
        rep,
        [
            &format!("Server::bind + CampaignRunner::new_remote with {k} connections"),
            "ticks per second of the round's tick loops",
            "one step = one CampaignRunner::tick",
            "one remote campaign, bind to finish, mean per round",
        ],
    );
    if !args.trace {
        return;
    }
    report_pipeline(rep, &local_sum, "in-process layer loop on the same config");
    let per_tick_us = |s: f64, n: u64| s * 1e6 / n.max(1) as f64;
    let n = format!("remote layer loop, mean over {} ticks", remote_sum.ticks);
    rep.layer(
        "remote.advance_us",
        per_tick_us(remote_sum.advance_s, remote_sum.ticks),
        &n,
    );
    rep.layer(
        "remote.ping_us",
        per_tick_us(remote_sum.ping_s, remote_sum.ticks),
        &n,
    );
    rep.layer(
        "remote.probe_us",
        per_tick_us(remote_sum.probe_s, remote_sum.probe_ticks),
        &format!(
            "all areas' price+time probes, mean over {} probe ticks",
            remote_sum.probe_ticks
        ),
    );
    let attributed =
        remote_sum.advance_s + remote_sum.ping_s + remote_sum.observe_s + remote_sum.probe_s;
    report_runner_ticks(rep, kept.steps(), attributed, remote_sum.ticks);
    let per = format!("server counters over {measured_ticks} ticks");
    rep.layer(
        "serve.frames_per_tick",
        frames as f64 / measured_ticks.max(1) as f64,
        &per,
    );
    rep.layer(
        "serve.bytes_per_tick",
        bytes as f64 / measured_ticks.max(1) as f64,
        &per,
    );
    rep.layer(
        "remote.slowdown",
        slowdown.median(),
        &format!(
            "remote wall time over in-process wall time, median of {}",
            slowdown.len()
        ),
    );
    rep.layer(
        "resilience.retries",
        retries as f64,
        "client retries, all rounds",
    );
    rep.layer(
        "serve.frame_errors",
        frame_errors as f64,
        "server frame errors, all rounds",
    );
    rep.layer(
        "trace.overhead_frac",
        overhead.median(),
        &format!(
            "remote layer loop with spans over without, median of {}",
            overhead.len()
        ),
    );
}

/// The program's own instruments for one remote round, printed next to
/// the outside-in timings.
fn print_program(server: &Server, client: &surgescope_obs::Snapshot) {
    let snap = server.metrics_snapshot();
    for (k, v) in snap.deterministic.iter().chain(&snap.timing) {
        if *v > 0 {
            println!("program {k} = {v}");
        }
    }
    for (k, v) in client.deterministic.iter().chain(&client.timing) {
        if k.starts_with("resilience.") || k.starts_with("phase.") {
            println!("program client {k} = {v}");
        }
    }
}
