//! Time-ordered event queue with deterministic tie-breaking.
//!
//! Its one user is the marketplace's retry queue: a rider priced out by
//! surge who chooses to wait is scheduled to request again shortly after
//! the next surge recomputation. Everything else advances by the fixed
//! tick. Events that fall on the same second are delivered in insertion
//! order (FIFO), which keeps runs bit-reproducible across platforms —
//! `BinaryHeap` alone would leave same-key ordering unspecified, and the
//! queue is checkpointed with the marketplace.

use crate::time::SimTime;
use serde::{Deserialize, Error, Serialize, Value};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event of payload type `E` scheduled for a particular instant.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotone sequence number; breaks ties FIFO.
    seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first,
        // then lowest sequence number first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A min-queue of future events.
#[derive(Debug, Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `event` at time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, event });
    }

    /// Time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the next event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<ScheduledEvent<E>> {
        match self.heap.peek() {
            Some(e) if e.at <= now => self.heap.pop(),
            _ => None,
        }
    }

    /// Pops the earliest event unconditionally.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Snapshots the queue as `(next_seq, entries)` with entries sorted by
    /// `(at, seq)` — a canonical order independent of the heap's internal
    /// layout, so serialized bytes are stable across runs.
    pub fn snapshot(&self) -> (u64, Vec<(SimTime, u64, &E)>) {
        let mut entries: Vec<(SimTime, u64, &E)> =
            self.heap.iter().map(|e| (e.at, e.seq, &e.event)).collect();
        entries.sort_by_key(|(at, seq, _)| (*at, *seq));
        (self.next_seq, entries)
    }

    /// Rebuilds a queue from a [`snapshot`](EventQueue::snapshot),
    /// preserving every event's original sequence number so FIFO
    /// tie-breaking continues exactly where it left off.
    pub fn from_snapshot(next_seq: u64, entries: Vec<(SimTime, u64, E)>) -> Self {
        let heap = entries
            .into_iter()
            .map(|(at, seq, event)| ScheduledEvent { at, seq, event })
            .collect();
        EventQueue { heap, next_seq }
    }
}

impl<E: Serialize> Serialize for EventQueue<E> {
    fn to_value(&self) -> Value {
        let (next_seq, entries) = self.snapshot();
        let events = entries
            .into_iter()
            .map(|(at, seq, e)| {
                Value::Seq(vec![at.to_value(), seq.to_value(), e.to_value()])
            })
            .collect();
        Value::Map(vec![
            ("next_seq".into(), next_seq.to_value()),
            ("events".into(), Value::Seq(events)),
        ])
    }
}

impl<E: Deserialize> Deserialize for EventQueue<E> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let next_seq = u64::from_value(v.field("next_seq")?)?;
        let entries = v
            .field("events")?
            .as_seq()
            .ok_or_else(|| Error::custom("event queue: expected array of events"))?
            .iter()
            .map(|e| match e.as_seq() {
                Some([at, seq, ev]) => Ok((
                    SimTime::from_value(at)?,
                    u64::from_value(seq)?,
                    E::from_value(ev)?,
                )),
                _ => Err(Error::custom("event queue: expected [at, seq, event]")),
            })
            .collect::<Result<Vec<_>, Error>>()?;
        Ok(EventQueue::from_snapshot(next_seq, entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_tie_break_at_same_time() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(42), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), "early");
        q.schedule(SimTime(100), "late");
        assert_eq!(q.pop_due(SimTime(50)).unwrap().event, "early");
        assert!(q.pop_due(SimTime(50)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(SimTime(100)).unwrap().event, "late");
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.schedule(SimTime(77), ());
        q.schedule(SimTime(33), ());
        assert_eq!(q.peek_time(), Some(SimTime(33)));
    }

    #[test]
    fn serde_round_trip_preserves_order_and_seq() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(20), 100u32);
        q.schedule(SimTime(10), 200u32);
        q.schedule(SimTime(10), 300u32); // same time: FIFO after 200
        q.pop(); // consume one so next_seq > len
        let v = q.to_value();
        let mut r: EventQueue<u32> = EventQueue::from_value(&v).expect("round trip");
        assert_eq!(r.len(), q.len());
        // New events scheduled after restore keep losing FIFO ties to the
        // survivors, exactly as in the original queue.
        q.schedule(SimTime(10), 400u32);
        r.schedule(SimTime(10), 400u32);
        let a: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        let b: Vec<_> = std::iter::from_fn(|| r.pop()).map(|e| e.event).collect();
        assert_eq!(a, b);
        assert_eq!(b, vec![300, 400, 100]);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        let mut now = SimTime::EPOCH;
        q.schedule(SimTime(5), 1);
        now += SimDuration::secs(5);
        assert_eq!(q.pop_due(now).unwrap().event, 1);
        // Scheduling "in the past" is allowed (it fires immediately on the
        // next pop) — replay sources sometimes emit slightly stale events.
        q.schedule(SimTime(3), 2);
        q.schedule(SimTime(5), 3);
        assert_eq!(q.pop_due(now).unwrap().event, 2);
        assert_eq!(q.pop_due(now).unwrap().event, 3);
    }
}
