//! What one run reports: named metrics with units, the operation counts,
//! and the correctness gates. Lines for people go to stdout as they are
//! measured; the machine-readable result is the last line.

use crate::stats::{Dual, Samples};
use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ticks_per_s", "1/s"),
    ("repro_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run: name, unit, and the
/// end-to-end metric and workload it should move. A layer that a workload
/// never calls reads 0 there.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("marketplace.tick_us", "us", "ticks_per_s on campaign"),
    (
        "systems.capture_us",
        "us",
        "ticks_per_s and tick_p99_ms on campaign",
    ),
    ("systems.ping_us", "us", "ticks_per_s on campaign"),
    ("systems.cars_per_tick", "count", "ticks_per_s on campaign"),
    ("estimate.observe_us", "us", "ticks_per_s on campaign"),
    ("campaign.tick_p50_us", "us", "ticks_per_s on campaign"),
    ("campaign.tick_p99_us", "us", "tick_p99_ms on campaign"),
    (
        "campaign.unattributed_frac",
        "frac",
        "ticks_per_s on campaign",
    ),
    ("remote.advance_us", "us", "ticks_per_s on remote"),
    ("remote.ping_us", "us", "ticks_per_s on remote"),
    ("remote.probe_us", "us", "tick_p99_ms on remote"),
    ("serve.frames_per_tick", "count", "ticks_per_s on remote"),
    ("serve.bytes_per_tick", "B", "ticks_per_s on remote"),
    ("remote.slowdown", "x", "ticks_per_s on remote"),
    ("resilience.retries", "count", "fail_frac on remote"),
    ("serve.frame_errors", "count", "fail_frac on remote"),
    ("schedule.prefetch_s", "s", "repro_s on repro"),
    ("taxi.validate_s", "s", "repro_s on repro"),
    ("taxi.ping_us", "us", "repro_s on repro"),
    ("experiments.analysis_s", "s", "repro_s on repro"),
    ("cache.misses", "count", "repro_s on repro"),
    ("cache.disk_replays", "count", "repro_s on repro"),
    ("store.log_bytes", "B", "repro_s on repro"),
    ("store.checkpoints", "count", "repro_s on repro"),
    ("store.replay_ticks_per_s", "1/s", "repro_s on repro"),
    (
        "taxi.supply_capture",
        "frac",
        "correctness of fig04 on repro (paper: 0.97)",
    ),
    (
        "taxi.death_capture",
        "frac",
        "correctness of fig04 on repro (paper: 0.95)",
    ),
    (
        "tick_p99_ms",
        "ms",
        "nothing gated: the end-to-end tail in wall time swings with host steal",
    ),
    (
        "wall.setup_s",
        "s",
        "nothing gated: setup_s in wall time, waits included; read it on a quiet host",
    ),
    (
        "wall.ticks_per_s",
        "1/s",
        "nothing gated: ticks_per_s in wall time, waits included; read it on a quiet host",
    ),
    (
        "wall.repro_s",
        "s",
        "nothing gated: repro_s in wall time, waits included; read it on a quiet host",
    ),
    (
        "fail_frac",
        "frac",
        "every workload: failed over attempted operations",
    ),
    (
        "trace.overhead_frac",
        "frac",
        "nothing: the cost of the per-layer spans",
    ),
];

/// The result of one run, filled in by a workload.
pub struct Report {
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    gate_failures: Vec<String>,
    values: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        Report {
            trace,
            attempted: 0,
            failed: 0,
            gate_failures: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Records an end-to-end metric (kept only in untraced runs).
    pub fn e2e(&mut self, name: &'static str, value: f64, how: &str) {
        let (_, unit) = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .expect("end-to-end metric is declared in END_TO_END");
        println!("metric {name} = {value} {unit}  ({how})");
        if !self.trace {
            self.values.push((name, value));
        }
    }

    /// Records a per-layer metric (kept only in traced runs).
    pub fn layer(&mut self, name: &'static str, value: f64, how: &str) {
        let (_, unit, moves) = PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == name)
            .expect("per-layer metric is declared in PER_LAYER");
        println!("layer {name} = {value} {unit}  ({how}; moves {moves})");
        if self.trace {
            self.values.push((name, value));
        }
    }

    /// A correctness gate that did not hold. `ops` operations are counted
    /// as failed on top of any already counted.
    pub fn gate_failed(&mut self, ops: u64, msg: String) {
        println!("GATE FAILED: {msg}");
        self.failed += ops;
        self.gate_failures.push(msg);
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.failed == 0
    }

    /// Prints the closing lines and the result object, last. Metrics the
    /// workload did not measure read 0: in a traced run that is a layer
    /// the workload bypasses.
    pub fn finish(mut self) -> bool {
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "attempted {} operations, {} failed (fail_frac = {fail_frac})",
            self.attempted, self.failed
        );
        if self.trace {
            self.layer("fail_frac", fail_frac, "failed over attempted");
        }
        let mut metrics = String::new();
        let declared: Vec<(&str, &str)> = if self.trace {
            PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
        } else {
            END_TO_END.to_vec()
        };
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = match self.values.iter().find(|(n, _)| n == name) {
                Some((_, v)) => *v,
                None => {
                    println!("layer {name} = 0 {unit}  (bypassed by this workload)");
                    0.0
                }
            };
            if !value.is_finite() {
                self.gate_failures
                    .push(format!("{name} is not a finite number"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        let correct = self.correct() && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
        correct
    }
}

/// The end-to-end samples of one round, or of every kept round.
#[derive(Default)]
pub struct EndToEnd {
    pub setup: Dual,
    /// Simulated ticks per second, one sample per round.
    pub per_s: Dual,
    /// Step latencies: every tick, or on `repro` every experiment.
    pub steps: Dual,
    /// One unit of output (a campaign, or a reproduction), one per round.
    pub whole: Dual,
}

impl EndToEnd {
    fn merge(&mut self, o: &EndToEnd) {
        self.setup.extend(&o.setup);
        self.per_s.extend(&o.per_s);
        self.steps.extend(&o.steps);
        self.whole.extend(&o.whole);
    }
}

/// Rounds during which the host stole more than this share of all CPU
/// time are set aside: on a shared virtual machine, steal comes with
/// contention for caches and cores that inflates even CPU time.
pub const MAX_STOLEN: f64 = 0.03;

/// The rounds of a run, sorted by how much CPU the host stole during each.
#[derive(Default)]
pub struct Kept {
    quiet: EndToEnd,
    quiet_rounds: usize,
    stolen: EndToEnd,
    stolen_rounds: usize,
}

impl Kept {
    /// Files a finished round; `stolen` is the share of CPU time the host
    /// stole while it ran.
    pub fn add(&mut self, round: &EndToEnd, stolen: f64) {
        let n = self.quiet_rounds + self.stolen_rounds + 1;
        println!("round {n}: host stole {:.1}% of the CPU", stolen * 100.0);
        if stolen <= MAX_STOLEN {
            self.quiet.merge(round);
            self.quiet_rounds += 1;
        } else {
            self.stolen.merge(round);
            self.stolen_rounds += 1;
        }
    }

    pub fn quiet_rounds(&self) -> usize {
        self.quiet_rounds
    }

    /// The rounds the metrics come from, the quiet ones when there are
    /// any, and a description of them.
    fn used(&self) -> (&EndToEnd, String) {
        let n = self.quiet_rounds + self.stolen_rounds;
        if self.quiet_rounds > 0 {
            (
                &self.quiet,
                format!("{} of {n} rounds, host steal <= 3%", self.quiet_rounds),
            )
        } else {
            (&self.stolen, format!("all {n} rounds, host steal > 3%"))
        }
    }

    /// Wall time of every step in the rounds the metrics come from.
    pub fn steps(&self) -> &Samples {
        &self.used().0.steps.wall
    }

    /// Reports the end-to-end metrics in process CPU time, which host
    /// steal barely moves, and the same quantities in wall time beside
    /// them. `what` describes set-up, throughput, a step and a unit of
    /// output.
    pub fn report(&self, rep: &mut Report, what: [&str; 4]) {
        let (e, rounds) = self.used();
        if self.quiet_rounds == 0 {
            println!("WARNING: the host stole more than 3% of the CPU in every round");
        }
        let setup = format!("{}; median of {}, {rounds}", what[0], e.setup.cpu.len());
        let per_s = format!("{}; median over {rounds}", what[1]);
        let whole = format!("{}; median over {rounds}", what[3]);
        rep.e2e("setup_s", e.setup.cpu.median(), &setup);
        rep.e2e("ticks_per_s", e.per_s.cpu.median(), &per_s);
        rep.e2e("repro_s", e.whole.cpu.median(), &whole);
        rep.layer("wall.setup_s", e.setup.wall.median(), &setup);
        rep.layer("wall.ticks_per_s", e.per_s.wall.median(), &per_s);
        rep.layer("wall.repro_s", e.whole.wall.median(), &whole);
        rep.layer(
            "tick_p99_ms",
            e.steps.wall.percentile(0.99) * 1e3,
            &format!("{}; {}, {rounds}", what[2], e.steps.wall.describe(0.99)),
        );
    }
}

/// CPU time the host stole from this virtual machine, as a share of all
/// CPU time since `start` (system-wide `/proc/stat`; 0 where unreadable).
pub struct StealMeter(Option<(u64, u64)>);

fn steal_and_total() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

impl StealMeter {
    pub fn start() -> Self {
        StealMeter(steal_and_total())
    }

    pub fn share(&self) -> f64 {
        match (self.0, steal_and_total()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

/// Peak resident set of this process, MB (`VmHWM`; Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
