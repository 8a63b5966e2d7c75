//! Observability primitives for the measurement pipeline.
//!
//! The paper's methodology is measurement under opacity: the toolkit
//! audits a marketplace it cannot see inside. This crate gives the
//! pipeline the inverse — a way to audit *itself* from the inside —
//! without adding a dependency or a hot-path allocation:
//!
//! * [`Counter`], [`Gauge`], [`Histogram`] — lock-free atomic
//!   instruments. Every mutation is a relaxed atomic op on a
//!   pre-allocated cell, so instrumented hot loops stay allocation-free
//!   (the `alloc_free` gate in `crates/bench` runs with metrics on).
//! * [`Timer`] + [`Span`] — `span!`-style scoped wall-clock timers
//!   (two `Instant::now` calls and two atomic adds per span).
//! * [`MetricsRegistry`] — a named collection of the above. Components
//!   create their instruments up front (no `Option` branches in hot
//!   code) and a registry *adopts* the handles under stable names;
//!   [`MetricsRegistry::snapshot`] renders them into a deterministic
//!   JSON document.
//!
//! # Determinism contract
//!
//! A snapshot has two sections. The **deterministic** section holds
//! counters, gauges and histogram buckets: pure functions of the
//! simulated work. Because every instrument is a commutative monoid
//! (addition, max, bucket counts), concurrent increments from worker
//! threads total to the same value regardless of interleaving — so the
//! section is byte-identical at any `--jobs` setting,
//! clean or faulted (regression-tested in `crates/experiments`). The
//! **timing** section holds wall-clock spans and is explicitly excluded
//! from that contract. Keys are emitted sorted; values are integers
//! (never floats), so rendering is platform-independent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing event count.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value / high-water instrument.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water tracking).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram: one atomic cell per `≤ bound` bucket plus
/// an overflow bucket. Bounds are supplied once, at construction, so
/// recording is a linear scan over a handful of bounds and one atomic
/// add — no allocation, ever.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Arc<[AtomicU64]>,
}

impl Histogram {
    /// A histogram over `bounds` (ascending upper bounds; an implicit
    /// `+inf` bucket is appended).
    pub fn new(bounds: &'static [u64]) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let counts: Vec<AtomicU64> =
            (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram { bounds, counts: counts.into() }
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        let i = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[i].fetch_add(1, Ordering::Relaxed);
    }

    /// The bucket upper bounds (without the implicit overflow bucket).
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Bucket counts, overflow last.
    pub fn counts(&self) -> Vec<u64> {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0.0..=1.0`) approximated from the bucket
    /// boundaries: the upper bound of the first bucket whose cumulative
    /// count covers `q` of the total. Observations in the overflow bucket
    /// report the last finite bound (the histogram cannot resolve beyond
    /// it). Returns `None` on an empty histogram or a non-finite `q`.
    pub fn approx_percentile(&self, q: f64) -> Option<u64> {
        if !q.is_finite() {
            return None;
        }
        let counts = self.counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based; q = 0 means the first.
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(match self.bounds.get(i) {
                    Some(&b) => b,
                    None => *self.bounds.last().expect("histogram has at least one bound"),
                });
            }
        }
        unreachable!("cumulative count covers the total")
    }
}

/// Accumulated wall-clock time: nanosecond sum plus call count.
/// Timer values land in the snapshot's **timing** section — wall time is
/// never part of the determinism contract.
#[derive(Debug, Clone, Default)]
pub struct Timer {
    ns: Arc<AtomicU64>,
    calls: Arc<AtomicU64>,
}

impl Timer {
    /// A fresh timer at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a scoped span; elapsed time is recorded when the returned
    /// [`Span`] drops. The span owns a cloned handle (two `Arc` refcount
    /// bumps, no allocation), so it never borrows the timer — hot loops
    /// can mutate `self` freely while a span is live.
    #[inline]
    pub fn start(&self) -> Span {
        Span { timer: self.clone(), begin: Instant::now() }
    }

    /// Records an externally measured duration.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Total nanoseconds recorded.
    pub fn total_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Number of spans recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// A live scoped measurement; records into its [`Timer`] on drop.
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct Span {
    timer: Timer,
    begin: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.timer.record_ns(self.begin.elapsed().as_nanos() as u64);
    }
}

/// Scoped timing sugar: `span!(timer)` measures from here to the end of
/// the enclosing scope. Macro hygiene makes repeated use in one scope
/// safe.
#[macro_export]
macro_rules! span {
    ($timer:expr) => {
        let _span = $timer.start();
    };
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    /// A histogram whose observations are wall-clock measurements
    /// (latencies): buckets render into the timing section, outside the
    /// determinism contract.
    TimingHistogram(Histogram),
    Timer(Timer),
}

/// A named collection of instruments with a deterministic snapshot.
///
/// Registration (name → handle) takes a lock and allocates; it happens
/// once, at component construction. The handles themselves are
/// `Arc`-shared atomics — mutating them never touches the registry.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Instrument>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn insert(&self, name: &str, i: Instrument) {
        let prev = self
            .inner
            .lock()
            .expect("metrics registry lock")
            .insert(name.to_string(), i);
        debug_assert!(prev.is_none(), "metric {name} registered twice");
    }

    /// Creates and registers a counter.
    pub fn counter(&self, name: &str) -> Counter {
        let c = Counter::new();
        self.adopt_counter(name, &c);
        c
    }

    /// Creates and registers a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let g = Gauge::new();
        self.adopt_gauge(name, &g);
        g
    }

    /// Creates and registers a histogram over `bounds`.
    pub fn histogram(&self, name: &str, bounds: &'static [u64]) -> Histogram {
        let h = Histogram::new(bounds);
        self.adopt_histogram(name, &h);
        h
    }

    /// Creates and registers a histogram whose *observations* are wall
    /// clock (latencies). Same cells and recording path as
    /// [`MetricsRegistry::histogram`], but the buckets render into the
    /// snapshot's **timing** section: latency distributions are not a
    /// pure function of the simulated work and must not enter the
    /// determinism contract.
    pub fn timing_histogram(&self, name: &str, bounds: &'static [u64]) -> Histogram {
        let h = Histogram::new(bounds);
        self.adopt_timing_histogram(name, &h);
        h
    }

    /// Creates and registers a timer (timing section).
    pub fn timer(&self, name: &str) -> Timer {
        let t = Timer::new();
        self.adopt_timer(name, &t);
        t
    }

    /// Registers an existing counter under `name` (shares the cell).
    pub fn adopt_counter(&self, name: &str, c: &Counter) {
        self.insert(name, Instrument::Counter(c.clone()));
    }

    /// Registers an existing gauge under `name`.
    pub fn adopt_gauge(&self, name: &str, g: &Gauge) {
        self.insert(name, Instrument::Gauge(g.clone()));
    }

    /// Registers an existing histogram under `name`.
    pub fn adopt_histogram(&self, name: &str, h: &Histogram) {
        self.insert(name, Instrument::Histogram(h.clone()));
    }

    /// Registers an existing histogram under `name` in the **timing**
    /// section (see [`MetricsRegistry::timing_histogram`]).
    pub fn adopt_timing_histogram(&self, name: &str, h: &Histogram) {
        self.insert(name, Instrument::TimingHistogram(h.clone()));
    }

    /// Registers an existing timer under `name`.
    pub fn adopt_timer(&self, name: &str, t: &Timer) {
        self.insert(name, Instrument::Timer(t.clone()));
    }

    /// Reads every instrument into a [`Snapshot`]. Counters, gauges and
    /// histogram buckets land in the deterministic section; timers land
    /// in the timing section as `<name>.ns` / `<name>.calls` pairs.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("metrics registry lock");
        let mut deterministic = Vec::new();
        let mut timing = Vec::new();
        for (name, inst) in inner.iter() {
            match inst {
                Instrument::Counter(c) => deterministic.push((name.clone(), c.get())),
                Instrument::Gauge(g) => deterministic.push((name.clone(), g.get())),
                Instrument::Histogram(h) => {
                    let counts = h.counts();
                    for (i, &b) in h.bounds().iter().enumerate() {
                        deterministic.push((format!("{name}.le_{b}"), counts[i]));
                    }
                    deterministic
                        .push((format!("{name}.inf"), counts[h.bounds().len()]));
                }
                Instrument::TimingHistogram(h) => {
                    let counts = h.counts();
                    for (i, &b) in h.bounds().iter().enumerate() {
                        timing.push((format!("{name}.le_{b}"), counts[i]));
                    }
                    timing.push((format!("{name}.inf"), counts[h.bounds().len()]));
                }
                Instrument::Timer(t) => {
                    timing.push((format!("{name}.ns"), t.total_ns()));
                    timing.push((format!("{name}.calls"), t.calls()));
                }
            }
        }
        // BTreeMap iteration is sorted by instrument name, but histogram
        // and timer expansion suffixes can interleave across names.
        deterministic.sort();
        timing.sort();
        Snapshot { deterministic, timing }
    }
}

/// A point-in-time reading of a registry, ready to render as JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Sorted `(key, value)` pairs covered by the determinism contract.
    pub deterministic: Vec<(String, u64)>,
    /// Sorted `(key, value)` wall-clock pairs — excluded from the
    /// contract.
    pub timing: Vec<(String, u64)>,
}

fn json_object(pairs: &[(String, u64)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Keys are metric names: ASCII identifiers and dots, no escapes
        // needed (enforced loosely here; a quote would corrupt output).
        debug_assert!(!k.contains(['"', '\\']), "unescapable metric name {k}");
        out.push('"');
        out.push_str(k);
        out.push_str("\":");
        out.push_str(&v.to_string());
    }
    out.push('}');
}

impl Snapshot {
    /// Renders the full snapshot:
    /// `{"deterministic":{...},"timing":{...}}`, keys sorted.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(
            32 * (self.deterministic.len() + self.timing.len()) + 64,
        );
        s.push_str("{\"deterministic\":");
        json_object(&self.deterministic, &mut s);
        s.push_str(",\"timing\":");
        json_object(&self.timing, &mut s);
        s.push('}');
        s
    }

    /// Renders only the determinism-checked section — the bytes the
    /// `--jobs` identity contract compares.
    pub fn deterministic_json(&self) -> String {
        let mut s = String::with_capacity(32 * self.deterministic.len() + 8);
        json_object(&self.deterministic, &mut s);
        s
    }

    /// Looks up one deterministic value by key.
    pub fn value(&self, key: &str) -> Option<u64> {
        self.deterministic
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c.events");
        let g = reg.gauge("g.depth");
        let h = reg.histogram("h.delay", &[1, 4, 16]);
        c.add(3);
        c.incr();
        g.set_max(7);
        g.set_max(2); // lower: ignored
        for v in [0, 1, 2, 5, 100] {
            h.record(v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.value("c.events"), Some(4));
        assert_eq!(snap.value("g.depth"), Some(7));
        assert_eq!(snap.value("h.delay.le_1"), Some(2));
        assert_eq!(snap.value("h.delay.le_4"), Some(1));
        assert_eq!(snap.value("h.delay.le_16"), Some(1));
        assert_eq!(snap.value("h.delay.inf"), Some(1));
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn timers_render_in_timing_section_only() {
        let reg = MetricsRegistry::new();
        let t = reg.timer("phase.move");
        {
            span!(t);
            span!(t); // hygiene: two spans in one scope
        }
        let snap = reg.snapshot();
        assert!(snap.deterministic.is_empty(), "wall time leaked into the contract");
        assert_eq!(snap.timing.len(), 2);
        let calls = snap
            .timing
            .iter()
            .find(|(k, _)| k == "phase.move.calls")
            .map(|(_, v)| *v);
        assert_eq!(calls, Some(2));
        assert!(snap.deterministic_json().starts_with('{'));
    }

    #[test]
    fn snapshot_json_is_sorted_and_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("b.second").incr();
        reg.counter("a.first").add(2);
        let json = reg.snapshot().to_json();
        assert_eq!(
            json,
            "{\"deterministic\":{\"a.first\":2,\"b.second\":1},\"timing\":{}}"
        );
        // Registration order does not matter: same instruments, other
        // order, same bytes.
        let reg2 = MetricsRegistry::new();
        reg2.counter("a.first").add(2);
        reg2.counter("b.second").incr();
        assert_eq!(reg2.snapshot().to_json(), json);
    }

    #[test]
    fn histogram_approx_percentile_reads_bucket_bounds() {
        let h = Histogram::new(&[10, 100, 1_000]);
        assert_eq!(h.approx_percentile(0.5), None, "empty histogram has no percentile");
        for v in [5, 7, 50, 60, 70, 80, 500, 600, 700] {
            h.record(v);
        }
        assert_eq!(h.approx_percentile(0.0), Some(10));
        assert_eq!(h.approx_percentile(0.5), Some(100));
        assert_eq!(h.approx_percentile(0.99), Some(1_000));
        assert_eq!(h.approx_percentile(1.0), Some(1_000));
        // Overflow observations saturate at the last finite bound.
        h.record(1_000_000);
        assert_eq!(h.approx_percentile(1.0), Some(1_000));
        assert_eq!(h.approx_percentile(f64::NAN), None);
    }

    #[test]
    fn timing_histogram_renders_outside_the_contract() {
        let reg = MetricsRegistry::new();
        let h = reg.timing_histogram("lat.us", &[10, 100]);
        for v in [5, 50, 500] {
            h.record(v);
        }
        let snap = reg.snapshot();
        assert!(snap.deterministic.is_empty(), "latency leaked into the contract");
        let timing: Vec<&str> = snap.timing.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(timing, ["lat.us.inf", "lat.us.le_10", "lat.us.le_100"]);
        assert!(snap.timing.iter().all(|(_, v)| *v == 1));
        assert_eq!(h.approx_percentile(0.5), Some(100));
    }

    #[test]
    fn concurrent_increments_total_deterministically() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn adopted_handles_share_cells() {
        let reg = MetricsRegistry::new();
        let c = Counter::new();
        c.add(5);
        reg.adopt_counter("shared", &c);
        c.add(2);
        assert_eq!(reg.snapshot().value("shared"), Some(7));
    }
}
