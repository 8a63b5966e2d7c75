//! Driver state-machine analysis (§5.5, Fig. 22).
//!
//! Cars are treated as state machines across 5-minute intervals: a car in
//! surge area *a* during interval *t* is classified relative to interval
//! *t−1* as **new** (first appearance), **old** (stayed in *a*),
//! **move-in** (came from another area), **move-out** (left to another
//! area) or **dying** (disappeared). Tallies are kept separately for
//! intervals where all areas had equal multipliers and intervals where the
//! area's multiplier was at least 0.2 above every neighbour's — the paper
//! compares the two to quantify surge's effect on supply and demand.

use serde::{Deserialize, Serialize, Value};
use surgescope_simcore::FastHashSet;

/// The five per-interval car states of Fig. 22.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarState {
    /// First appearance anywhere, in this area.
    New,
    /// Present in this area in both intervals.
    Old,
    /// Present elsewhere before, here now.
    MoveIn,
    /// Present here before, elsewhere now.
    MoveOut,
    /// Present here before, gone everywhere now.
    Dying,
}

impl CarState {
    /// All states in Fig. 22's display order.
    pub const ALL: [CarState; 5] =
        [CarState::New, CarState::Old, CarState::MoveIn, CarState::MoveOut, CarState::Dying];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            CarState::New => "New",
            CarState::Old => "Old",
            CarState::MoveIn => "In",
            CarState::MoveOut => "Out",
            CarState::Dying => "Dying",
        }
    }
}

/// Surge context of an (area, interval) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurgeContext {
    /// All areas shared (≈) one multiplier: no monetary incentive to move.
    Equal,
    /// This area was ≥ 0.2 above all its neighbours.
    Surging,
    /// Anything else (ignored by the analysis).
    Mixed,
}

/// Classifies the surge context for `area` given all areas' multipliers
/// and the adjacency lists.
pub fn classify_context(
    area: usize,
    multipliers: &[f64],
    adjacency: &[Vec<usize>],
) -> SurgeContext {
    let m = multipliers[area];
    let all_equal = multipliers
        .iter()
        .all(|x| (x - multipliers[0]).abs() < 0.05);
    if all_equal {
        return SurgeContext::Equal;
    }
    let above_neighbours = adjacency[area]
        .iter()
        .all(|&n| m >= multipliers[n] + 0.2);
    if above_neighbours {
        SurgeContext::Surging
    } else {
        SurgeContext::Mixed
    }
}

/// Streaming transition tally over a campaign.
#[derive(Debug)]
pub struct TransitionTracker {
    adjacency: Vec<Vec<usize>>,
    prev_sets: Vec<FastHashSet<u64>>,
    cur_sets: Vec<FastHashSet<u64>>,
    prev_multipliers: Option<Vec<f64>>,
    /// `counts[area][context][state]`, context 0 = Equal, 1 = Surging.
    counts: Vec<[[u64; 5]; 2]>,
}

impl TransitionTracker {
    /// Creates a tracker over areas `0..adjacency.len()`.
    pub fn new(adjacency: Vec<Vec<usize>>) -> Self {
        let n = adjacency.len();
        TransitionTracker {
            adjacency,
            prev_sets: vec![FastHashSet::default(); n],
            cur_sets: vec![FastHashSet::default(); n],
            prev_multipliers: None,
            counts: vec![[[0; 5]; 2]; n],
        }
    }

    /// Records a sighting of car `id` in `area` during the open interval.
    pub fn observe(&mut self, id: u64, area: usize) {
        self.cur_sets[area].insert(id);
    }

    /// Closes an interval. `multipliers` are the values in force during
    /// the interval that just *closed*; transitions are tallied between
    /// the previous and the closed interval, conditioned on the previous
    /// interval's multipliers (matching §5.5: incentives precede moves).
    pub fn close_interval(&mut self, multipliers: &[f64]) {
        if let Some(prev_m) = &self.prev_multipliers {
            let prev_all: FastHashSet<u64> =
                self.prev_sets.iter().flat_map(|s| s.iter().copied()).collect();
            let cur_all: FastHashSet<u64> =
                self.cur_sets.iter().flat_map(|s| s.iter().copied()).collect();
            for ai in 0..self.area_count() {
                let ctx = match classify_context(ai, prev_m, &self.adjacency) {
                    SurgeContext::Equal => 0usize,
                    SurgeContext::Surging => 1,
                    SurgeContext::Mixed => continue,
                };
                let prev_a = &self.prev_sets[ai];
                let cur_a = &self.cur_sets[ai];
                let tally = &mut self.counts[ai][ctx];
                for id in cur_a {
                    if prev_a.contains(id) {
                        tally[1] += 1; // Old
                    } else if prev_all.contains(id) {
                        tally[2] += 1; // MoveIn
                    } else {
                        tally[0] += 1; // New
                    }
                }
                for id in prev_a {
                    if !cur_a.contains(id) {
                        if cur_all.contains(id) {
                            tally[3] += 1; // MoveOut
                        } else {
                            tally[4] += 1; // Dying
                        }
                    }
                }
            }
        }
        self.prev_sets = std::mem::take(&mut self.cur_sets);
        self.cur_sets = vec![FastHashSet::default(); self.area_count()];
        self.prev_multipliers = Some(multipliers.to_vec());
    }

    /// Probability of each state for `(area, context)`; `None` when that
    /// cell has no observations. Context: 0 = Equal, 1 = Surging.
    pub fn probabilities(&self, area: usize, context: usize) -> Option<[f64; 5]> {
        let tally = &self.counts[area][context];
        let total: u64 = tally.iter().sum();
        if total == 0 {
            return None;
        }
        let mut out = [0.0; 5];
        for (i, c) in tally.iter().enumerate() {
            out[i] = *c as f64 / total as f64;
        }
        Some(out)
    }

    /// Raw counts for `(area, context)`.
    pub fn counts(&self, area: usize, context: usize) -> [u64; 5] {
        self.counts[area][context]
    }

    /// Number of areas tracked.
    pub fn area_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Serializes the mutable tally state. The adjacency is derived from
    /// the city model and is *not* stored; [`restore_state`] takes it as
    /// an argument (same split as `Marketplace::save_state`).
    /// ID sets are emitted sorted so the bytes are canonical.
    ///
    /// [`restore_state`]: TransitionTracker::restore_state
    pub fn save_state(&self) -> Value {
        let sets = |v: &[FastHashSet<u64>]| -> Value {
            v.iter()
                .map(|s| {
                    let mut ids: Vec<u64> = s.iter().copied().collect();
                    ids.sort_unstable();
                    ids
                })
                .collect::<Vec<_>>()
                .to_value()
        };
        Value::Map(vec![
            ("prev_sets".into(), sets(&self.prev_sets)),
            ("cur_sets".into(), sets(&self.cur_sets)),
            ("prev_multipliers".into(), self.prev_multipliers.to_value()),
            ("counts".into(), self.counts.to_value()),
        ])
    }

    /// Rebuilds a tracker from `save_state` output plus the (re-derived)
    /// adjacency.
    pub fn restore_state(adjacency: Vec<Vec<usize>>, v: &Value) -> Result<Self, serde::Error> {
        let mut tr = TransitionTracker::new(adjacency);
        let sets = |v: &Value| -> Result<Vec<FastHashSet<u64>>, serde::Error> {
            Ok(Vec::<Vec<u64>>::from_value(v)?
                .into_iter()
                .map(|ids| ids.into_iter().collect())
                .collect())
        };
        tr.prev_sets = sets(v.field("prev_sets")?)?;
        tr.cur_sets = sets(v.field("cur_sets")?)?;
        tr.prev_multipliers = Option::<Vec<f64>>::from_value(v.field("prev_multipliers")?)?;
        tr.counts = Vec::<[[u64; 5]; 2]>::from_value(v.field("counts")?)?;
        let n = tr.area_count();
        let rows = [tr.prev_sets.len(), tr.cur_sets.len(), tr.counts.len()];
        if rows != [n; 3] || tr.prev_multipliers.as_ref().is_some_and(|m| m.len() != n) {
            return Err(serde::Error::custom("transition per-area row count mismatch"));
        }
        Ok(tr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_areas() -> TransitionTracker {
        TransitionTracker::new(vec![vec![1], vec![0]])
    }

    #[test]
    fn context_classification() {
        let adj = vec![vec![1], vec![0]];
        assert_eq!(classify_context(0, &[1.0, 1.0], &adj), SurgeContext::Equal);
        assert_eq!(classify_context(0, &[1.5, 1.2], &adj), SurgeContext::Surging);
        assert_eq!(classify_context(1, &[1.5, 1.2], &adj), SurgeContext::Mixed);
        assert_eq!(classify_context(0, &[1.3, 1.2], &adj), SurgeContext::Mixed);
    }

    #[test]
    fn transition_states_tallied() {
        let mut tr = two_areas();
        // Interval 0: cars 1, 2 in area 0; car 3 in area 1.
        tr.observe(1, 0);
        tr.observe(2, 0);
        tr.observe(3, 1);
        tr.close_interval(&[1.0, 1.0]);
        // Interval 1: car 1 stays (Old); car 2 moves to area 1 (MoveOut
        // from 0 / MoveIn to 1); car 3 vanishes (Dying in 1); car 4
        // appears in area 0 (New).
        tr.observe(1, 0);
        tr.observe(2, 1);
        tr.observe(4, 0);
        tr.close_interval(&[1.0, 1.0]);

        // Equal context, area 0: New=1 (car4), Old=1 (car1), Out=1 (car2).
        assert_eq!(tr.counts(0, 0), [1, 1, 0, 1, 0]);
        // Area 1: In=1 (car2), Dying=1 (car3).
        assert_eq!(tr.counts(1, 0), [0, 0, 1, 0, 1]);
    }

    #[test]
    fn surging_context_counted_separately() {
        let mut tr = two_areas();
        tr.observe(1, 0);
        // Area 0 surging 0.5 above area 1 during interval 0.
        tr.close_interval(&[1.5, 1.0]);
        tr.observe(1, 0);
        tr.close_interval(&[1.5, 1.0]);
        // Transition conditioned on interval 0's multipliers → surging ctx.
        assert_eq!(tr.counts(0, 1), [0, 1, 0, 0, 0], "Old under surging context");
        assert_eq!(tr.counts(0, 0), [0; 5]);
    }

    #[test]
    fn probabilities_normalize() {
        let mut tr = two_areas();
        for id in 0..10 {
            tr.observe(id, 0);
        }
        tr.close_interval(&[1.0, 1.0]);
        for id in 0..5 {
            tr.observe(id, 0);
        }
        tr.close_interval(&[1.0, 1.0]);
        let p = tr.probabilities(0, 0).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // 5 Old, 5 Dying.
        assert!((p[1] - 0.5).abs() < 1e-12);
        assert!((p[4] - 0.5).abs() < 1e-12);
        assert!(tr.probabilities(1, 1).is_none(), "empty cell");
    }

    #[test]
    fn save_restore_continues_identically() {
        let mut a = two_areas();
        // One closed interval plus a half-open one so both prev and cur
        // sets are non-empty at checkpoint time.
        a.observe(1, 0);
        a.observe(2, 1);
        a.close_interval(&[1.5, 1.0]);
        a.observe(1, 0);
        a.observe(3, 1);

        let v = a.save_state();
        let mut b = TransitionTracker::restore_state(vec![vec![1], vec![0]], &v).unwrap();
        assert_eq!(b.save_state(), v, "canonical round trip");

        for tr in [&mut a, &mut b] {
            tr.close_interval(&[1.5, 1.0]);
            tr.observe(1, 1);
            tr.close_interval(&[1.0, 1.0]);
        }
        for area in 0..2 {
            for ctx in 0..2 {
                assert_eq!(a.counts(area, ctx), b.counts(area, ctx));
            }
        }
        assert_eq!(a.save_state(), b.save_state());
    }

    #[test]
    fn first_interval_produces_no_transitions() {
        let mut tr = two_areas();
        tr.observe(1, 0);
        tr.close_interval(&[1.0, 1.0]);
        assert_eq!(tr.counts(0, 0), [0; 5], "no previous interval to compare");
    }
}
