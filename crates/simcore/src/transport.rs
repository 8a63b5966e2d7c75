//! A simulated client↔service transport with late delivery.
//!
//! The real study's clients rode on cellular/Wi-Fi links: a ping's
//! response can be lost outright, or arrive *late* — still carrying the
//! world state from the moment it was answered. [`FaultPlan`] decides the
//! fate of each message; this module provides the queue that makes the
//! `Delay(d)` outcome actually happen. A delayed message is answered
//! against the send-time snapshot, parked in flight, and surfaced to its
//! client `⌈d / tick⌉` ticks later. That is the stale-data channel the
//! paper's §5.2 consistency analysis measured: old multipliers showing up
//! at new timestamps, not missing samples.
//!
//! Determinism: the queue is advanced and drained by the single-threaded
//! simulation loop. Deliveries due on the same tick come back ordered by
//! `(sent_tick, client)` — the order they were enqueued — so the merged
//! observation stream is a pure function of the fault draws, independent
//! of how the payloads were computed.
//!
//! In steady state the queue allocates nothing: emptied per-tick buckets
//! are kept for reuse, and due messages drain through a vector the queue
//! keeps.

use crate::time::SimDuration;
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::BTreeMap;
use surgescope_obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// Bucket bounds (in ticks) for the injected-latency histogram: a fault
/// plan's `Delay(d)` outcomes land between 1 tick and a few minutes.
static DELAY_TICKS_BOUNDS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// A message parked in (or popped from) the transport queue.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<T> {
    /// Tick on which the message was sent (and answered).
    pub sent_tick: u64,
    /// Index of the destination client.
    pub client: usize,
    /// The response content, frozen at send time.
    pub payload: T,
}

/// Telemetry handles owned by a [`Transport`]. Always live (no `Option`
/// branch in the send/drain paths); a campaign that wants them in its
/// snapshot registers them via [`TransportMetrics::register`]. Counter
/// totals are pure functions of the fault draws, so they sit in the
/// deterministic snapshot section.
#[derive(Debug, Clone)]
pub struct TransportMetrics {
    /// Messages parked for late delivery (one per `Delay` fault).
    pub sent_delayed: Counter,
    /// Messages surfaced late to their client.
    pub delivered_late: Counter,
    /// High-water mark of the in-flight queue depth.
    pub max_in_flight: Gauge,
    /// Distribution of injected delays, in ticks.
    pub delay_ticks: Histogram,
}

impl Default for TransportMetrics {
    fn default() -> Self {
        TransportMetrics {
            sent_delayed: Counter::new(),
            delivered_late: Counter::new(),
            max_in_flight: Gauge::new(),
            delay_ticks: Histogram::new(&DELAY_TICKS_BOUNDS),
        }
    }
}

impl TransportMetrics {
    /// Adopts every handle into `reg` under `transport.*` names.
    pub fn register(&self, reg: &MetricsRegistry) {
        reg.adopt_counter("transport.sent_delayed", &self.sent_delayed);
        reg.adopt_counter("transport.delivered_late", &self.delivered_late);
        reg.adopt_gauge("transport.max_in_flight", &self.max_in_flight);
        reg.adopt_histogram("transport.delay_ticks", &self.delay_ticks);
    }
}

/// In-flight message queue keyed by delivery tick.
#[derive(Debug, Clone)]
pub struct Transport<T> {
    tick: u64,
    in_flight: BTreeMap<u64, Vec<Envelope<T>>>,
    /// Emptied buckets, capacity intact, for the next due ticks.
    spare: Vec<Vec<Envelope<T>>>,
    /// What [`Transport::take_due`] drains; empty between calls.
    due: Vec<Envelope<T>>,
    metrics: TransportMetrics,
}

impl<T> Default for Transport<T> {
    fn default() -> Self {
        Transport::new()
    }
}

impl<T> Transport<T> {
    /// An empty queue at tick 0.
    pub fn new() -> Self {
        Transport {
            tick: 0,
            in_flight: BTreeMap::new(),
            spare: Vec::new(),
            due: Vec::new(),
            metrics: TransportMetrics::default(),
        }
    }

    /// This queue's telemetry handles.
    pub fn metrics(&self) -> &TransportMetrics {
        &self.metrics
    }

    /// The queue's current tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.values().map(Vec::len).sum()
    }

    /// Advances the queue clock by one tick. Call once per simulation
    /// tick, before draining deliveries for that tick.
    pub fn advance_tick(&mut self) {
        self.tick += 1;
    }

    /// Parks `payload` for `client`, to be delivered `delay_ticks` ticks
    /// from now (clamped to at least 1 — a delayed message never arrives
    /// within its own send tick).
    pub fn send_delayed(&mut self, client: usize, delay_ticks: u64, payload: T) {
        let due = self.tick + delay_ticks.max(1);
        let spare = &mut self.spare;
        self.in_flight
            .entry(due)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push(Envelope { sent_tick: self.tick, client, payload });
        self.metrics.sent_delayed.incr();
        self.metrics.delay_ticks.record(delay_ticks.max(1));
        self.metrics.max_in_flight.set_max(self.in_flight() as u64);
    }

    /// Drains every message due at or before the current tick, ordered by
    /// `(sent_tick, client)`, through a vector the queue keeps. Messages
    /// the caller leaves undrained are dropped with the iterator.
    pub fn take_due(&mut self) -> std::vec::Drain<'_, Envelope<T>> {
        self.due.clear();
        while let Some(bucket) = self.in_flight.first_entry() {
            if *bucket.key() > self.tick {
                break;
            }
            let mut bucket = bucket.remove();
            self.due.append(&mut bucket);
            self.spare.push(bucket);
        }
        self.due.sort_by_key(|e| (e.sent_tick, e.client));
        self.metrics.delivered_late.add(self.due.len() as u64);
        self.due.drain(..)
    }
}

impl<T: Serialize> Serialize for Envelope<T> {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("sent_tick".into(), self.sent_tick.to_value()),
            ("client".into(), self.client.to_value()),
            ("payload".into(), self.payload.to_value()),
        ])
    }
}

impl<T: Deserialize> Deserialize for Envelope<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Envelope {
            sent_tick: u64::from_value(v.field("sent_tick")?)?,
            client: usize::from_value(v.field("client")?)?,
            payload: T::from_value(v.field("payload")?)?,
        })
    }
}

impl<T: Serialize> Serialize for Transport<T> {
    fn to_value(&self) -> Value {
        // BTreeMap iteration is already sorted by due tick, and each bucket
        // preserves enqueue order, so the serialized form is canonical.
        let in_flight = self
            .in_flight
            .iter()
            .map(|(due, envs)| Value::Seq(vec![due.to_value(), envs.to_value()]))
            .collect();
        Value::Map(vec![
            ("tick".into(), self.tick.to_value()),
            ("in_flight".into(), Value::Seq(in_flight)),
        ])
    }
}

impl<T: Deserialize> Deserialize for Transport<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let tick = u64::from_value(v.field("tick")?)?;
        let mut in_flight = BTreeMap::new();
        for bucket in v
            .field("in_flight")?
            .as_seq()
            .ok_or_else(|| Error::custom("transport: expected in-flight array"))?
        {
            match bucket.as_seq() {
                Some([due, envs]) => {
                    in_flight.insert(
                        u64::from_value(due)?,
                        Vec::<Envelope<T>>::from_value(envs)?,
                    );
                }
                _ => return Err(Error::custom("transport: expected [due, envelopes]")),
            }
        }
        // Telemetry starts fresh on restore: counters describe this
        // process's work, not the checkpointed history.
        Ok(Transport { tick, in_flight, ..Transport::new() })
    }
}

/// How many ticks late a message with injected latency `d` surfaces:
/// `⌈d / tick_secs⌉`, never less than one full tick.
pub fn ticks_late(d: SimDuration, tick_secs: u64) -> u64 {
    debug_assert!(tick_secs > 0, "tick length must be positive");
    d.as_secs().div_ceil(tick_secs.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nothing_due_on_empty_queue() {
        let mut t: Transport<u32> = Transport::new();
        assert_eq!(t.take_due().len(), 0);
        t.advance_tick();
        assert_eq!(t.take_due().len(), 0);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn message_surfaces_exactly_delay_ticks_later() {
        let mut t: Transport<&str> = Transport::new();
        t.send_delayed(3, 2, "hello");
        assert_eq!(t.in_flight(), 1);
        t.advance_tick(); // tick 1
        assert_eq!(t.take_due().len(), 0, "one tick early");
        t.advance_tick(); // tick 2
        let due: Vec<_> = t.take_due().collect();
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].client, 3);
        assert_eq!(due[0].sent_tick, 0);
        assert_eq!(due[0].payload, "hello");
        assert_eq!(t.in_flight(), 0);
        // Draining is not idempotent within the tick: the message is gone.
        assert_eq!(t.take_due().len(), 0);
    }

    #[test]
    fn zero_delay_clamped_to_one_tick() {
        let mut t: Transport<u8> = Transport::new();
        t.send_delayed(0, 0, 9);
        assert_eq!(t.take_due().len(), 0, "never delivered on the send tick");
        t.advance_tick();
        assert_eq!(t.take_due().len(), 1);
    }

    #[test]
    fn deliveries_ordered_by_send_tick_then_client() {
        let mut t: Transport<u8> = Transport::new();
        // Tick 0: clients 5 and 1 send with delay 2.
        t.send_delayed(5, 2, 0);
        t.send_delayed(1, 2, 1);
        t.advance_tick(); // tick 1: client 2 sends with delay 1.
        t.send_delayed(2, 1, 2);
        t.advance_tick(); // tick 2: all three are due.
        let order: Vec<(u64, usize)> =
            t.take_due().map(|e| (e.sent_tick, e.client)).collect();
        assert_eq!(order, vec![(0, 1), (0, 5), (1, 2)]);
    }

    #[test]
    fn overdue_messages_still_surface() {
        // A consumer that skips a tick must not lose mail.
        let mut t: Transport<u8> = Transport::new();
        t.send_delayed(0, 1, 7);
        t.advance_tick();
        t.advance_tick();
        t.advance_tick();
        assert_eq!(t.take_due().len(), 1);
    }

    #[test]
    fn mid_flight_round_trip_drains_in_same_order() {
        // A checkpointed transport with a non-empty in-flight queue must
        // restore and drain in the same (sent_tick, client) order as the
        // original — late responses may not be reordered by a resume.
        let mut t: Transport<Vec<u32>> = Transport::new();
        t.send_delayed(7, 3, vec![70]);
        t.send_delayed(2, 1, vec![20]);
        t.advance_tick(); // tick 1: client 2's message is due but NOT drained
        t.send_delayed(4, 1, vec![40]);
        t.send_delayed(1, 2, vec![10]);

        let v = t.to_value();
        let mut r: Transport<Vec<u32>> = Transport::from_value(&v).expect("round trip");
        assert_eq!(r.tick(), t.tick());
        assert_eq!(r.in_flight(), t.in_flight());
        assert_eq!(r.in_flight(), 4);

        let drain = |tr: &mut Transport<Vec<u32>>| -> Vec<(u64, usize, Vec<u32>)> {
            let mut out = Vec::new();
            for _ in 0..4 {
                out.extend(tr.take_due().map(|e| (e.sent_tick, e.client, e.payload)));
                tr.advance_tick();
            }
            out
        };
        let a = drain(&mut t);
        let b = drain(&mut r);
        assert_eq!(a, b);
        // Overdue message (sent tick 0, due tick 1) surfaces first.
        assert_eq!(b[0], (0, 2, vec![20]));
    }

    #[test]
    fn metrics_track_sends_and_late_deliveries() {
        let mut t: Transport<u8> = Transport::new();
        t.send_delayed(0, 2, 1);
        t.send_delayed(1, 40, 2);
        assert_eq!(t.metrics().sent_delayed.get(), 2);
        assert_eq!(t.metrics().max_in_flight.get(), 2);
        t.advance_tick();
        t.advance_tick();
        assert_eq!(t.take_due().len(), 1);
        assert_eq!(t.metrics().delivered_late.get(), 1);
        let reg = MetricsRegistry::new();
        t.metrics().register(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.value("transport.sent_delayed"), Some(2));
        assert_eq!(snap.value("transport.delay_ticks.le_2"), Some(1));
        assert_eq!(snap.value("transport.delay_ticks.le_64"), Some(1));
    }

    #[test]
    fn ticks_late_is_ceiling_division() {
        let tick = 5;
        for (d, want) in [(1, 1), (4, 1), (5, 1), (6, 2), (10, 2), (11, 3), (29, 6)] {
            assert_eq!(ticks_late(SimDuration::secs(d), tick), want, "d = {d}");
        }
        // Degenerate zero-latency input still costs a full tick.
        assert_eq!(ticks_late(SimDuration::secs(0), tick), 1);
    }
}
