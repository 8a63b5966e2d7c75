//! Deterministic transport chaos: a stream wrapper with a seeded fault
//! schedule.
//!
//! [`ChaosStream`] wraps any `Read + Write` transport and injects faults
//! at frame boundaries according to a [`ChaosPlan`] driven by a seeded
//! [`SimRng`] stream:
//!
//! * **connection reset** — a write fails with `ConnectionReset` before
//!   anything reaches the wire; the stream is dead afterwards (every
//!   later op errors), so the owner must reconnect;
//! * **mid-frame truncation** — a write puts a *prefix* of the frame on
//!   the wire, then dies; the peer sees a malformed frame (`crc`/length
//!   violation) when the connection closes;
//! * **write stall** — the write sleeps before proceeding (exercises
//!   slow-path timeouts without killing the stream);
//! * **delayed read** — a read sleeps before proceeding.
//!
//! Which ops fault is a pure function of the RNG stream — wall time
//! never participates — so a chaos test's injection *counts* are
//! reproducible for a given seed while the sleeps themselves remain
//! invisible in campaign output. Shared [`ChaosCounters`] record every
//! injection so tests can assert coverage (at least one reset, one
//! truncation, one stall actually fired).

use std::io::{self, Read, Write};
use std::time::Duration;
use surgescope_obs::{Counter, MetricsRegistry};
use surgescope_simcore::SimRng;

/// Per-op fault probabilities. All chances are independent draws in the
/// order reset → truncate → stall (writes) / delay (reads); the first
/// match wins for a given op.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPlan {
    /// Chance a write dies with `ConnectionReset` before sending.
    pub reset_chance: f64,
    /// Chance a write sends only a prefix of the buffer, then dies.
    pub truncate_chance: f64,
    /// Chance a write stalls for [`ChaosPlan::stall`] first.
    pub stall_chance: f64,
    /// Chance a read sleeps for [`ChaosPlan::stall`] first.
    pub delay_chance: f64,
    /// Stall/delay duration.
    pub stall: Duration,
}

impl ChaosPlan {
    /// The reference plan the chaos gates run: frequent enough that a
    /// one-hour lockstep campaign sees several of every fault class,
    /// mild enough that retries stay cheap.
    pub fn reference() -> Self {
        ChaosPlan {
            reset_chance: 0.002,
            truncate_chance: 0.002,
            stall_chance: 0.003,
            delay_chance: 0.001,
            stall: Duration::from_millis(5),
        }
    }
}

/// Shared injection counters; clone-cheap handles (Arc-backed cells).
#[derive(Debug, Clone, Default)]
pub struct ChaosCounters {
    /// Writes killed with `ConnectionReset` before sending.
    pub resets: Counter,
    /// Writes that sent a prefix and then died mid-frame.
    pub truncations: Counter,
    /// Writes that stalled before proceeding.
    pub stalls: Counter,
    /// Reads that slept before proceeding.
    pub delayed_reads: Counter,
}

impl ChaosCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the injection counters under `resilience.chaos_*`.
    /// Counts are seed-derived (never wall-clock), so they belong in the
    /// snapshot's deterministic section.
    pub fn register(&self, reg: &MetricsRegistry) {
        reg.adopt_counter("resilience.chaos_resets", &self.resets);
        reg.adopt_counter("resilience.chaos_truncations", &self.truncations);
        reg.adopt_counter("resilience.chaos_stalls", &self.stalls);
        reg.adopt_counter("resilience.chaos_delayed_reads", &self.delayed_reads);
    }
}

/// A transport with a seeded fault schedule. Without a plan it is a
/// zero-overhead passthrough (one branch per op).
pub struct ChaosStream<S> {
    inner: S,
    plan: Option<(ChaosPlan, SimRng)>,
    counters: ChaosCounters,
    /// Injected faults only fire once armed — handshakes (HELLO and
    /// OPEN) run clean so a retry loop converges.
    armed: bool,
    /// A reset/truncation killed the stream; every later op errors.
    dead: bool,
}

impl<S> ChaosStream<S> {
    /// A passthrough wrapper with no fault schedule.
    pub fn passthrough(inner: S) -> Self {
        ChaosStream {
            inner,
            plan: None,
            counters: ChaosCounters::new(),
            armed: false,
            dead: false,
        }
    }

    /// A wrapper injecting `plan` on the schedule drawn from `rng`,
    /// recording into `counters`. Starts un-armed; call
    /// [`ChaosStream::arm`] once the clean handshake is done.
    pub fn with_plan(inner: S, plan: ChaosPlan, rng: SimRng, counters: ChaosCounters) -> Self {
        ChaosStream { inner, plan: Some((plan, rng)), counters, armed: false, dead: false }
    }

    /// Enables fault injection (no-op for passthrough streams).
    pub fn arm(&mut self) {
        self.armed = true;
    }

    /// The wrapped transport.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// The wrapped transport, mutably.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    fn killed(&self) -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionReset, "chaos: injected connection reset")
    }
}

enum WriteFault {
    Reset,
    Truncate,
    Stall(Duration),
    None,
}

impl<S: Read + Write> ChaosStream<S> {
    fn next_write_fault(&mut self) -> WriteFault {
        if !self.armed {
            return WriteFault::None;
        }
        match &mut self.plan {
            Some((plan, rng)) => {
                if rng.chance(plan.reset_chance) {
                    WriteFault::Reset
                } else if rng.chance(plan.truncate_chance) {
                    WriteFault::Truncate
                } else if rng.chance(plan.stall_chance) {
                    WriteFault::Stall(plan.stall)
                } else {
                    WriteFault::None
                }
            }
            None => WriteFault::None,
        }
    }

    fn next_read_delay(&mut self) -> Option<Duration> {
        if !self.armed {
            return None;
        }
        match &mut self.plan {
            Some((plan, rng)) => rng.chance(plan.delay_chance).then_some(plan.stall),
            None => None,
        }
    }
}

impl<S: crate::wire::ReadDeadline> crate::wire::ReadDeadline for ChaosStream<S> {
    fn read_deadline(&self) -> Option<Duration> {
        self.inner.read_deadline()
    }
}

impl<S: Read + Write> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dead {
            return Err(self.killed());
        }
        if let Some(d) = self.next_read_delay() {
            self.counters.delayed_reads.incr();
            std::thread::sleep(d);
        }
        self.inner.read(buf)
    }
}

impl<S: Read + Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(self.killed());
        }
        match self.next_write_fault() {
            WriteFault::Reset => {
                self.counters.resets.incr();
                self.dead = true;
                Err(self.killed())
            }
            WriteFault::Truncate => {
                // Put a strict prefix on the wire so the peer observes a
                // frame dying mid-body when the connection drops.
                let cut = (buf.len() / 2).max(1).min(buf.len().saturating_sub(1));
                if cut > 0 {
                    let _ = self.inner.write_all(&buf[..cut]);
                    let _ = self.inner.flush();
                }
                self.counters.truncations.incr();
                self.dead = true;
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "chaos: injected mid-frame truncation",
                ))
            }
            WriteFault::Stall(d) => {
                self.counters.stalls.incr();
                std::thread::sleep(d);
                self.inner.write_all(buf)?;
                Ok(buf.len())
            }
            WriteFault::None => {
                self.inner.write_all(buf)?;
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(self.killed());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// An in-memory duplex good enough for fault-schedule tests.
    struct Loop {
        rx: Cursor<Vec<u8>>,
        tx: Vec<u8>,
    }

    impl Read for Loop {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.rx.read(buf)
        }
    }

    impl Write for Loop {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.tx.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn lo() -> Loop {
        Loop { rx: Cursor::new(vec![0u8; 64]), tx: Vec::new() }
    }

    fn always(chance: f64) -> ChaosPlan {
        ChaosPlan {
            reset_chance: chance,
            truncate_chance: 0.0,
            stall_chance: 0.0,
            delay_chance: 0.0,
            stall: Duration::ZERO,
        }
    }

    #[test]
    fn passthrough_never_faults() {
        let mut s = ChaosStream::passthrough(lo());
        s.arm();
        for _ in 0..1000 {
            s.write_all(b"abcdefgh").unwrap();
        }
        let mut buf = [0u8; 8];
        s.read_exact(&mut buf).unwrap();
    }

    #[test]
    fn unarmed_streams_run_clean_even_with_certain_faults() {
        let rng = SimRng::seed_from_u64(1).split("chaos");
        let mut s = ChaosStream::with_plan(lo(), always(1.0), rng, ChaosCounters::new());
        s.write_all(b"handshake").unwrap();
        assert_eq!(s.counters.resets.get(), 0);
    }

    #[test]
    fn reset_kills_the_stream_and_counts_once_per_injection() {
        let rng = SimRng::seed_from_u64(2).split("chaos");
        let counters = ChaosCounters::new();
        let mut s = ChaosStream::with_plan(lo(), always(1.0), rng, counters.clone());
        s.arm();
        assert!(s.write_all(b"doomed").is_err());
        assert_eq!(counters.resets.get(), 1);
        // Dead afterwards: both directions error without drawing again.
        assert!(s.write_all(b"x").is_err());
        let mut buf = [0u8; 1];
        assert!(s.read_exact(&mut buf).is_err());
        assert_eq!(counters.resets.get(), 1);
    }

    #[test]
    fn truncation_leaves_a_strict_prefix_on_the_wire() {
        let rng = SimRng::seed_from_u64(3).split("chaos");
        let counters = ChaosCounters::new();
        let plan = ChaosPlan { reset_chance: 0.0, truncate_chance: 1.0, ..always(0.0) };
        let mut s = ChaosStream::with_plan(lo(), plan, rng, counters.clone());
        s.arm();
        let frame = b"0123456789abcdef";
        assert!(s.write_all(frame).is_err());
        let sent = s.get_ref().tx.len();
        assert!(sent > 0 && sent < frame.len(), "prefix of {sent} bytes");
        assert_eq!(&s.get_ref().tx[..], &frame[..sent]);
        assert_eq!(counters.truncations.get(), 1);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let trace = |seed: u64| -> Vec<bool> {
            let rng = SimRng::seed_from_u64(seed).split("chaos");
            let mut s =
                ChaosStream::with_plan(lo(), always(0.2), rng, ChaosCounters::new());
            s.arm();
            (0..200)
                .map(|_| {
                    let failed = s.write_all(b"frame").is_err();
                    if failed {
                        s.dead = false; // revive to keep drawing the schedule
                    }
                    failed
                })
                .collect()
        };
        assert_eq!(trace(42), trace(42));
        assert!(trace(42).iter().any(|f| *f), "0.2 reset chance never fired in 200 ops");
    }
}
