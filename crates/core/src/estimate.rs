//! Supply and demand estimation from client observations (§3.3).
//!
//! * **Supply** is the number of unique car IDs observed across all
//!   clients per 5-minute interval — an upper bound on the true count,
//!   since IDs are randomized each time a car comes online.
//! * **Fulfilled demand** is estimated from *deaths*: cars that disappear
//!   from the observed stream. A disappearance can also mean the car drove
//!   out of the measurement area or went offline, so the estimator applies
//!   the paper's **edge filter** (disappearances near the boundary of the
//!   measurement polygon are not counted) and treats the result as an
//!   upper bound on fulfilled demand.
//! * **Short-lived cars** — briefly glimpsed near the measurement
//!   boundary, or with IDs that flickered — are filtered entirely (§4.1).
//! * Per-ID **lifespans** feed the Fig. 7 CDFs.

use crate::observe::TypeObservation;
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use surgescope_simcore::{FastHashMap, FastHashSet};
use surgescope_city::CarType;
use surgescope_geo::{Meters, Polygon};
use surgescope_simcore::SimTime;

/// Estimator tuning.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EstimatorConfig {
    /// A car unseen for this long is declared dead (the ping cadence is
    /// 5 s; a small grace absorbs transport faults).
    pub death_grace_secs: u64,
    /// Deaths within this distance of the measurement boundary are
    /// discarded (the car may simply have driven out).
    pub edge_margin_m: f64,
    /// Cars observed for less than this are dropped from all statistics.
    pub short_lived_secs: u64,
    /// When true (default), a near-edge disappearance is only discarded
    /// if the car's path vector shows it heading outward — the paper
    /// disambiguates "drove out" via path vectors (§3.3). When false, all
    /// near-edge disappearances are discarded (footnote-4 conservative
    /// mode).
    pub edge_requires_outbound: bool,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            death_grace_secs: 15,
            edge_margin_m: 150.0,
            short_lived_secs: 90,
            edge_requires_outbound: true,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct LiveCar {
    car_type: CarType,
    last_seen: SimTime,
    last_pos: Meters,
    last_displacement: Option<Meters>,
}

/// What a sighting writes for its id: tier, position and displacement bits.
type Sighting = (CarType, [u64; 2], Option<[u64; 2]>);

/// A finalized death event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeathEvent {
    /// When the car was last seen.
    pub at: SimTime,
    /// Tier.
    pub car_type: CarType,
    /// Last observed position.
    pub position: Meters,
}

/// Streaming supply/demand estimator over client observations.
#[derive(Debug)]
pub struct SupplyDemandEstimator {
    cfg: EstimatorConfig,
    region: Polygon,
    /// Surge-area polygons for per-area attribution (may be empty, e.g.
    /// for the taxi validation where only totals matter).
    areas: Vec<Polygon>,
    live: FastHashMap<u64, LiveCar>,
    /// Persistent per-ID history: a car keeps its session ID across trips
    /// (it disappears while booked and returns with the same ID), so
    /// lifespans span gaps. `(first_seen, last_seen, tier)`.
    history: FastHashMap<u64, (SimTime, SimTime, CarType)>,
    // Open-interval supply sets.
    open_interval: u64,
    ids_by_type: FastHashMap<CarType, FastHashSet<u64>>,
    ids_by_area: Vec<FastHashSet<u64>>,
    // Outputs.
    supply: HashMap<CarType, Vec<u32>>,
    supply_area: Vec<Vec<u32>>,
    deaths: HashMap<CarType, Vec<u32>>,
    deaths_area: Vec<Vec<u32>>,
    /// Death events (UberX and taxi validation use these directly).
    pub death_events: Vec<DeathEvent>,
    /// `(tier, lifespan_secs)` for every finalized, non-short-lived car.
    pub lifespans: Vec<(CarType, u64)>,
    /// Cars dropped by the short-lived filter.
    pub short_lived_filtered: u64,
    /// Deaths suppressed by the edge filter.
    pub edge_filtered: u64,
    /// Whether the open interval has unsaved observations.
    dirty: bool,
    /// Per-tick scratch, never serialized (see `observe_with`).
    seen: FastHashMap<u64, Sighting>,
    seen_at: Option<SimTime>,
}

impl SupplyDemandEstimator {
    /// Creates an estimator for a measurement `region`, optionally
    /// attributing per-area statistics to `areas` (UberX only).
    pub fn new(cfg: EstimatorConfig, region: Polygon, areas: Vec<Polygon>) -> Self {
        let n_areas = areas.len();
        SupplyDemandEstimator {
            cfg,
            region,
            areas,
            live: FastHashMap::default(),
            history: FastHashMap::default(),
            open_interval: 0,
            ids_by_type: FastHashMap::default(),
            ids_by_area: vec![FastHashSet::default(); n_areas],
            supply: HashMap::new(),
            supply_area: vec![Vec::new(); n_areas],
            deaths: HashMap::new(),
            deaths_area: vec![Vec::new(); n_areas],
            death_events: Vec::new(),
            lifespans: Vec::new(),
            short_lived_filtered: 0,
            edge_filtered: 0,
            dirty: false,
            seen: FastHashMap::default(),
            seen_at: None,
        }
    }

    /// Feeds one client's per-tier observation blocks at time `now`.
    ///
    /// Cars reported outside the measurement polygon are ignored — §4.1:
    /// "we can safely filter short-lived cars from our dataset, and focus
    /// … only on cars that are driving within the bounds of our
    /// measurement area". (Boundary clients can see beyond the polygon,
    /// which would otherwise inflate supply against any ground truth
    /// defined over the polygon.)
    ///
    /// `blocks` may include transport-delayed responses whose content was
    /// frozen ticks ago; they are fed at their *delivery* time, exactly as
    /// a real client's log would record them. A stale re-observation
    /// refreshes `last_seen` and so keeps a car alive through the death
    /// grace — dropped and delayed pings thus degrade the estimate
    /// smoothly instead of fabricating deaths.
    pub fn observe(&mut self, now: SimTime, blocks: &[TypeObservation]) {
        self.observe_with(now, blocks, |_, _| {});
    }

    /// [`SupplyDemandEstimator::observe`], also calling `in_area(id, area)`
    /// for each applied UberX sighting in a surge area, before the region
    /// test. A sighting equal, bit for bit, to the last one applied for its
    /// id since `now` changed or `end_tick` ran is skipped: all it would
    /// write is already there (`in_area`'s too, unless cleared before `end_tick`).
    pub(crate) fn observe_with(
        &mut self,
        now: SimTime,
        blocks: &[TypeObservation],
        mut in_area: impl FnMut(u64, usize),
    ) {
        self.dirty = true;
        if self.seen_at != Some(now) {
            self.seen.clear();
            self.seen_at = Some(now);
        }
        let bits = |m: Meters| [m.x.to_bits(), m.y.to_bits()];
        for block in blocks {
            for car in &block.cars {
                let s = (block.car_type, bits(car.position), car.displacement.map(bits));
                let entry = self.seen.entry(car.id);
                if matches!(&entry, Entry::Occupied(e) if *e.get() == s) {
                    continue;
                }
                entry.insert_entry(s);
                let area = self.uberx_area(block.car_type, car.position);
                if let Some(a) = area {
                    in_area(car.id, a);
                }
                if !self.region.contains(car.position) {
                    continue;
                }
                let entry = self.live.entry(car.id).or_insert(LiveCar {
                    car_type: block.car_type,
                    last_seen: now,
                    last_pos: car.position,
                    last_displacement: car.displacement,
                });
                entry.last_seen = now;
                entry.last_pos = car.position;
                entry.last_displacement = car.displacement;
                let h = self
                    .history
                    .entry(car.id)
                    .or_insert((now, now, block.car_type));
                h.1 = now;
                // Supply accounting for the open interval.
                self.ids_by_type.entry(block.car_type).or_default().insert(car.id);
                if let Some(a) = area {
                    self.ids_by_area[a].insert(car.id);
                }
            }
        }
    }

    /// The area index of an UberX car at `p` (other tiers have none): the
    /// first area polygon containing `p`, checked in list order, so a
    /// point on a shared border lands in the earlier area.
    fn uberx_area(&self, car_type: CarType, p: Meters) -> Option<usize> {
        (car_type == CarType::UberX).then(|| self.areas.iter().position(|a| a.contains(p)))?
    }

    /// Call once per tick after all observations for that tick have been
    /// fed; `now` is the time the tick *ended* (i.e. the next tick's
    /// start). Finalizes stale cars and closes 5-minute intervals.
    pub fn end_tick(&mut self, now: SimTime) {
        self.seen_at = None;
        self.reap(now);
        if now.seconds_into_surge_interval() == 0 && now.as_secs() > 0 {
            if self.dirty {
                self.close_interval();
            }
            self.open_interval = now.surge_interval();
        }
    }

    /// Finalizes the campaign: per-ID lifespans are computed from the
    /// full first-seen→last-seen history (cars keep their ID across
    /// trips), the short-lived filter is applied, and the open interval
    /// closes.
    pub fn finish(&mut self, now: SimTime) {
        self.seen_at = None;
        self.live.clear();
        // Drain in sorted-ID order: HashMap iteration order would make the
        // lifespans vec differ between runs, breaking the bit-identical
        // checkpoint/resume comparison of full campaign outputs.
        let mut history: Vec<(u64, (SimTime, SimTime, CarType))> =
            self.history.drain().collect();
        history.sort_unstable_by_key(|(id, _)| *id);
        for (_, (first, last, tier)) in history {
            let span = last.as_secs().saturating_sub(first.as_secs());
            if span < self.cfg.short_lived_secs {
                self.short_lived_filtered += 1;
            } else {
                self.lifespans.push((tier, span));
            }
        }
        let _ = now;
        if self.dirty {
            self.close_interval();
        }
    }

    fn reap(&mut self, now: SimTime) {
        let grace = self.cfg.death_grace_secs;
        let mut stale: Vec<u64> = self
            .live
            .iter()
            .filter(|(_, c)| now.as_secs().saturating_sub(c.last_seen.as_secs()) > grace)
            .map(|(id, _)| *id)
            .collect();
        // Sorted so death_events order (and per-interval tallies' insertion
        // order) is a pure function of the observations, not of HashMap
        // iteration order — required for bit-identical resume comparisons.
        stale.sort_unstable();
        for id in stale {
            let car = self.live.remove(&id).unwrap();
            // Short-lived filter on the *total* span this ID has been
            // around (boundary flickers are measurement artifacts, but a
            // car briefly idle between trips is real).
            let span = self
                .history
                .get(&id)
                .map(|(first, last, _)| last.as_secs().saturating_sub(first.as_secs()))
                .unwrap_or(0);
            if span < self.cfg.short_lived_secs {
                continue;
            }
            // Edge filter: a disappearance near the boundary (or already
            // outside) may just be the car leaving the region.
            let near_edge = !self.region.contains(car.last_pos)
                || self.region.distance_to_boundary(car.last_pos) <= self.cfg.edge_margin_m;
            let outbound = match car.last_displacement {
                Some(d) if d.norm() > 1.0 => {
                    let prev = car.last_pos.sub(d);
                    self.region.distance_to_boundary(car.last_pos)
                        < self.region.distance_to_boundary(prev)
                }
                _ => false,
            };
            let filtered = if self.cfg.edge_requires_outbound {
                near_edge && outbound
            } else {
                // Conservative mode: paper footnote 4 — anything near the
                // edge is excluded even without a clear outbound path.
                near_edge
            };
            if filtered {
                self.edge_filtered += 1;
                continue;
            }
            self.death_events.push(DeathEvent {
                at: car.last_seen,
                car_type: car.car_type,
                position: car.last_pos,
            });
            let interval = car.last_seen.surge_interval() as usize;
            let v = self.deaths.entry(car.car_type).or_default();
            if v.len() <= interval {
                v.resize(interval + 1, 0);
            }
            v[interval] += 1;
            if let Some(a) = self.uberx_area(car.car_type, car.last_pos) {
                let va = &mut self.deaths_area[a];
                if va.len() <= interval {
                    va.resize(interval + 1, 0);
                }
                va[interval] += 1;
            }
        }
    }

    fn close_interval(&mut self) {
        for (t, ids) in self.ids_by_type.iter_mut() {
            let v = self.supply.entry(*t).or_default();
            let idx = self.open_interval as usize;
            if v.len() <= idx {
                v.resize(idx + 1, 0);
            }
            v[idx] = ids.len() as u32;
            ids.clear();
        }
        self.dirty = false;
        for (ai, ids) in self.ids_by_area.iter_mut().enumerate() {
            let v = &mut self.supply_area[ai];
            let idx = self.open_interval as usize;
            if v.len() <= idx {
                v.resize(idx + 1, 0);
            }
            v[idx] = ids.len() as u32;
            ids.clear();
        }
    }

    /// Measured supply per interval for a tier (empty if never seen).
    pub fn supply_series(&self, t: CarType) -> &[u32] {
        self.supply.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Measured deaths (fulfilled-demand upper bound) per interval.
    pub fn death_series(&self, t: CarType) -> &[u32] {
        self.deaths.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Per-area UberX supply series.
    pub fn supply_area_series(&self, area: usize) -> &[u32] {
        &self.supply_area[area]
    }

    /// Per-area UberX death series.
    pub fn death_area_series(&self, area: usize) -> &[u32] {
        &self.deaths_area[area]
    }

    /// All tiers that appeared in the data.
    pub fn observed_types(&self) -> Vec<CarType> {
        let mut v: Vec<CarType> = self.supply.keys().copied().collect();
        v.sort();
        v
    }
}

/// Canonicalizes a hash map as a key-sorted pair vec so the serialized
/// bytes never depend on `HashMap` iteration order.
fn sorted_pairs<K: Copy + Ord, V: Clone, S: std::hash::BuildHasher>(
    m: &HashMap<K, V, S>,
) -> Vec<(K, V)> {
    let mut v: Vec<(K, V)> = m.iter().map(|(k, val)| (*k, val.clone())).collect();
    v.sort_unstable_by_key(|(k, _)| *k);
    v
}

fn sorted_ids(s: &FastHashSet<u64>) -> Vec<u64> {
    let mut v: Vec<u64> = s.iter().copied().collect();
    v.sort_unstable();
    v
}

impl Serialize for SupplyDemandEstimator {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("cfg".into(), self.cfg.to_value()),
            ("region".into(), self.region.to_value()),
            ("areas".into(), self.areas.to_value()),
            ("live".into(), sorted_pairs(&self.live).to_value()),
            ("history".into(), sorted_pairs(&self.history).to_value()),
            ("open_interval".into(), self.open_interval.to_value()),
            (
                "ids_by_type".into(),
                sorted_pairs(&self.ids_by_type)
                    .into_iter()
                    .map(|(t, ids)| (t, sorted_ids(&ids)))
                    .collect::<Vec<_>>()
                    .to_value(),
            ),
            (
                "ids_by_area".into(),
                self.ids_by_area.iter().map(sorted_ids).collect::<Vec<_>>().to_value(),
            ),
            ("supply".into(), sorted_pairs(&self.supply).to_value()),
            ("supply_area".into(), self.supply_area.to_value()),
            ("deaths".into(), sorted_pairs(&self.deaths).to_value()),
            ("deaths_area".into(), self.deaths_area.to_value()),
            ("death_events".into(), self.death_events.to_value()),
            ("lifespans".into(), self.lifespans.to_value()),
            ("short_lived_filtered".into(), self.short_lived_filtered.to_value()),
            ("edge_filtered".into(), self.edge_filtered.to_value()),
            ("dirty".into(), self.dirty.to_value()),
        ])
    }
}

impl Deserialize for SupplyDemandEstimator {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let est = SupplyDemandEstimator {
            cfg: EstimatorConfig::from_value(v.field("cfg")?)?,
            region: Polygon::from_value(v.field("region")?)?,
            areas: Vec::<Polygon>::from_value(v.field("areas")?)?,
            live: Vec::<(u64, LiveCar)>::from_value(v.field("live")?)?
                .into_iter()
                .collect(),
            history: Vec::<(u64, (SimTime, SimTime, CarType))>::from_value(
                v.field("history")?,
            )?
            .into_iter()
            .collect(),
            open_interval: u64::from_value(v.field("open_interval")?)?,
            ids_by_type: Vec::<(CarType, Vec<u64>)>::from_value(v.field("ids_by_type")?)?
                .into_iter()
                .map(|(t, ids)| (t, ids.into_iter().collect()))
                .collect(),
            ids_by_area: Vec::<Vec<u64>>::from_value(v.field("ids_by_area")?)?
                .into_iter()
                .map(|ids| ids.into_iter().collect())
                .collect(),
            supply: Vec::<(CarType, Vec<u32>)>::from_value(v.field("supply")?)?
                .into_iter()
                .collect(),
            supply_area: Vec::<Vec<u32>>::from_value(v.field("supply_area")?)?,
            deaths: Vec::<(CarType, Vec<u32>)>::from_value(v.field("deaths")?)?
                .into_iter()
                .collect(),
            deaths_area: Vec::<Vec<u32>>::from_value(v.field("deaths_area")?)?,
            death_events: Vec::<DeathEvent>::from_value(v.field("death_events")?)?,
            lifespans: Vec::<(CarType, u64)>::from_value(v.field("lifespans")?)?,
            short_lived_filtered: u64::from_value(v.field("short_lived_filtered")?)?,
            edge_filtered: u64::from_value(v.field("edge_filtered")?)?,
            dirty: bool::from_value(v.field("dirty")?)?,
            seen: FastHashMap::default(),
            seen_at: None,
        };
        let rows = [est.ids_by_area.len(), est.supply_area.len(), est.deaths_area.len()];
        let ok = rows == [est.areas.len(); 3];
        ok.then_some(est).ok_or_else(|| Error::custom("estimator per-area rows != area count"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::ObservedCar;
    use std::collections::BTreeSet;
    use surgescope_simcore::{SimDuration, SimRng};

    fn region() -> Polygon {
        Polygon::rect(Meters::new(0.0, 0.0), Meters::new(2000.0, 2000.0))
    }

    fn block(id: u64, x: f64, y: f64, disp: Option<Meters>) -> TypeObservation {
        TypeObservation {
            car_type: CarType::UberX,
            cars: vec![ObservedCar { id, position: Meters::new(x, y), displacement: disp }],
            ewt_min: 3.0,
            surge: 1.0,
        }
    }

    fn run_car(
        est: &mut SupplyDemandEstimator,
        id: u64,
        pos: (f64, f64),
        from: u64,
        until: u64,
        horizon: u64,
    ) {
        // Car visible [from, until), campaign runs to `horizon`.
        let mut t = 0;
        while t < horizon {
            if t >= from && t < until {
                est.observe(SimTime(t), &[block(id, pos.0, pos.1, None)]);
            }
            t += 5;
            est.end_tick(SimTime(t));
        }
    }

    #[test]
    fn interior_disappearance_is_a_death() {
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        run_car(&mut est, 1, (1000.0, 1000.0), 0, 600, 1200);
        est.finish(SimTime(1200));
        assert_eq!(est.death_events.len(), 1);
        let d = &est.death_events[0];
        assert_eq!(d.car_type, CarType::UberX);
        assert_eq!(d.at, SimTime(595));
        // Death lands in interval 1 (595/300).
        assert_eq!(est.death_series(CarType::UberX), &[0, 1]);
    }

    #[test]
    fn edge_parked_counts_as_death_by_default() {
        // A parked car near the boundary that disappears most plausibly
        // took a booking; only *outbound* paths indicate leaving.
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        run_car(&mut est, 2, (1950.0, 1000.0), 0, 600, 1200);
        est.finish(SimTime(1200));
        assert_eq!(est.death_events.len(), 1);
        assert_eq!(est.edge_filtered, 0);
    }

    #[test]
    fn edge_parked_filtered_in_conservative_mode() {
        let cfg = EstimatorConfig { edge_requires_outbound: false, ..Default::default() };
        let mut est = SupplyDemandEstimator::new(cfg, region(), vec![]);
        run_car(&mut est, 2, (1950.0, 1000.0), 0, 600, 1200);
        est.finish(SimTime(1200));
        assert!(est.death_events.is_empty(), "conservative mode discards edge cars");
        assert_eq!(est.edge_filtered, 1);
    }

    #[test]
    fn lifespan_spans_booking_gaps() {
        // A car visible 0–300 s, booked (invisible) 300–900 s, visible
        // again 900–1500 s: two deaths... no — one death at 300 (the
        // booking) and a lifespan covering the whole 0–1500 s span.
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        let mut t = 0u64;
        while t < 1800 {
            let now = SimTime(t);
            if t < 300 || (900..1500).contains(&t) {
                est.observe(now, &[block(99, 1000.0, 1000.0, None)]);
            }
            t += 5;
            est.end_tick(SimTime(t));
        }
        est.finish(SimTime(1800));
        assert_eq!(est.death_events.len(), 2, "both disappearances are deaths");
        assert_eq!(est.lifespans.len(), 1, "one car, one lifespan");
        let span = est.lifespans[0].1;
        assert!(span >= 1400, "lifespan must span the booked gap, got {span}");
    }

    #[test]
    fn short_lived_car_fully_filtered() {
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        // Visible for 30 s < 90 s threshold.
        run_car(&mut est, 3, (1000.0, 1000.0), 0, 30, 600);
        est.finish(SimTime(600));
        assert!(est.death_events.is_empty());
        assert!(est.lifespans.is_empty());
        assert_eq!(est.short_lived_filtered, 1);
    }

    #[test]
    fn survivor_contributes_lifespan_but_no_death() {
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        run_car(&mut est, 4, (500.0, 500.0), 0, 900, 900);
        est.finish(SimTime(900));
        assert!(est.death_events.is_empty(), "still-alive car is not a death");
        assert_eq!(est.lifespans.len(), 1);
        assert_eq!(est.lifespans[0].0, CarType::UberX);
        assert!(est.lifespans[0].1 >= 890);
    }

    #[test]
    fn supply_counts_unique_ids_per_interval() {
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        let mut t = 0u64;
        while t < 600 {
            let now = SimTime(t);
            // Two cars, seen by two different clients (duplicate sightings
            // must not double-count).
            est.observe(now, &[block(10, 500.0, 500.0, None)]);
            est.observe(now, &[block(10, 500.0, 500.0, None)]);
            if t < 300 {
                est.observe(now, &[block(11, 700.0, 700.0, None)]);
            }
            t += 5;
            est.end_tick(SimTime(t));
        }
        est.finish(SimTime(600));
        assert_eq!(est.supply_series(CarType::UberX), &[2, 1]);
    }

    #[test]
    fn per_area_attribution() {
        let areas = vec![
            Polygon::rect(Meters::new(0.0, 0.0), Meters::new(1000.0, 2000.0)),
            Polygon::rect(Meters::new(1000.0, 0.0), Meters::new(2000.0, 2000.0)),
        ];
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), areas);
        // Single pass: car 20 (area 0) visible for the first 10 minutes
        // then dies; car 21 (area 1) visible throughout.
        let mut t = 0u64;
        while t < 1200 {
            let now = SimTime(t);
            if t < 600 {
                est.observe(now, &[block(20, 500.0, 1000.0, None)]);
            }
            est.observe(now, &[block(21, 1500.0, 1000.0, None)]);
            t += 5;
            est.end_tick(SimTime(t));
        }
        est.finish(SimTime(1200));
        assert_eq!(est.supply_area_series(0), &[1, 1, 0, 0]);
        assert_eq!(est.supply_area_series(1), &[1, 1, 1, 1]);
        let d0: u32 = est.death_area_series(0).iter().sum();
        let d1: u32 = est.death_area_series(1).iter().sum();
        assert_eq!((d0, d1), (1, 0));
    }

    #[test]
    fn grace_tolerates_missed_pings() {
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        let mut t = 0u64;
        while t < 600 {
            let now = SimTime(t);
            // Car 30 pings every tick except a 10 s gap at t=300..310
            // (inside the 15 s grace) — must not die.
            if !(300..310).contains(&t) {
                est.observe(now, &[block(30, 800.0, 800.0, None)]);
            }
            t += 5;
            est.end_tick(SimTime(t));
        }
        est.finish(SimTime(600));
        assert!(est.death_events.is_empty(), "gap within grace must not kill the car");
        assert_eq!(est.lifespans.len(), 1);
    }

    #[test]
    fn stale_reobservation_keeps_car_alive() {
        // A delayed ping re-reports a car at its send-time position; fed
        // at delivery time it must refresh last_seen like any sighting.
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        let mut t = 0u64;
        while t < 600 {
            let now = SimTime(t);
            if t < 300 {
                est.observe(now, &[block(40, 800.0, 800.0, None)]);
            } else if (310..=320).contains(&t) {
                // Fresh pings for the car stopped at t=300; these are
                // late deliveries carrying the old (send-time) position —
                // inside the grace window, they postpone the death.
                est.observe(now, &[block(40, 800.0, 800.0, None)]);
            }
            t += 5;
            est.end_tick(SimTime(t));
        }
        est.finish(SimTime(600));
        // Death is stamped at the last (stale) sighting, not t=300.
        assert_eq!(est.death_events.len(), 1);
        assert_eq!(est.death_events[0].at, SimTime(320));
    }

    #[test]
    fn observed_types_sorted() {
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        let mk = |t: CarType, id: u64| TypeObservation {
            car_type: t,
            cars: vec![ObservedCar {
                id,
                position: Meters::new(500.0, 500.0),
                displacement: None,
            }],
            ewt_min: 1.0,
            surge: 1.0,
        };
        let mut t = 0u64;
        while t < 300 {
            est.observe(SimTime(t), &[mk(CarType::UberBlack, 1), mk(CarType::UberX, 2)]);
            t += 5;
            est.end_tick(SimTime(t));
        }
        est.finish(SimTime(300));
        assert_eq!(est.observed_types(), vec![CarType::UberX, CarType::UberBlack]);
    }

    #[test]
    fn death_series_empty_for_unseen_type() {
        let est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        assert!(est.death_series(CarType::UberPool).is_empty());
        assert!(est.supply_series(CarType::UberPool).is_empty());
    }

    #[test]
    fn outbound_near_edge_filtered_with_displacement() {
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        let mut t = 0u64;
        while t < 300 {
            let now = SimTime(t);
            if t < 120 {
                // Moving east toward the boundary, ends at x=1900 (inside
                // the 150 m margin), displacement clearly outbound.
                let x = (1700.0 + 2.0 * t as f64).min(1900.0);
                est.observe(now, &[block(40, x, 1000.0, Some(Meters::new(40.0, 0.0)))]);
            }
            t += 5;
            est.end_tick(SimTime(t));
        }
        est.finish(SimTime(300));
        assert!(est.death_events.is_empty());
        assert_eq!(est.edge_filtered, 1);
    }

    #[test]
    fn deaths_within_grace_of_campaign_end_not_counted() {
        // Car disappears 10 s before the campaign ends: still within the
        // grace window, so finish() records a lifespan, not a death.
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        run_car(&mut est, 50, (1000.0, 1000.0), 0, 590, 600);
        est.finish(SimTime(600));
        assert!(est.death_events.is_empty());
        assert_eq!(est.lifespans.len(), 1);
    }

    #[test]
    fn serde_round_trip_mid_campaign_continues_identically() {
        // Serialize with live cars, an open interval and accumulated
        // outputs; the restored estimator must finish the campaign with
        // byte-identical results.
        let mk = |est: &mut SupplyDemandEstimator| {
            let mut t = 0u64;
            while t < 450 {
                let now = SimTime(t);
                est.observe(now, &[block(1, 1000.0, 1000.0, None)]);
                if t < 200 {
                    est.observe(now, &[block(2, 600.0, 400.0, None)]);
                }
                t += 5;
                est.end_tick(SimTime(t));
            }
        };
        let areas = vec![
            Polygon::rect(Meters::new(0.0, 0.0), Meters::new(1000.0, 2000.0)),
            Polygon::rect(Meters::new(1000.0, 0.0), Meters::new(2000.0, 2000.0)),
        ];
        let mut a =
            SupplyDemandEstimator::new(EstimatorConfig::default(), region(), areas);
        mk(&mut a);
        let v = a.to_value();
        let mut b = SupplyDemandEstimator::from_value(&v).expect("round trip");
        // Same serialized form on the round-tripped copy (canonical).
        assert_eq!(b.to_value(), v);
        let run_tail = |est: &mut SupplyDemandEstimator| {
            let mut t = 450u64;
            while t < 900 {
                let now = SimTime(t);
                est.observe(now, &[block(1, 1010.0, 1000.0, None)]);
                t += 5;
                est.end_tick(SimTime(t));
            }
            est.finish(SimTime(900));
        };
        run_tail(&mut a);
        run_tail(&mut b);
        assert_eq!(a.supply_series(CarType::UberX), b.supply_series(CarType::UberX));
        assert_eq!(a.death_events, b.death_events);
        assert_eq!(a.lifespans, b.lifespans);
        assert_eq!(a.short_lived_filtered, b.short_lived_filtered);
        assert_eq!(a.to_value(), b.to_value());
    }

    /// The memo is exact. A reference that never skips, because a serde
    /// round trip empties its memo before every call, must end every tick
    /// in the same serialized state, and `in_area` must report exactly the
    /// distinct (id, first area) pairs of each tick's UberX sightings.
    #[test]
    fn memo_matches_memoryless_reference() {
        // The areas overhang the region, so UberX cars outside it still
        // land in one, and they share the border x = 1000.
        let areas = vec![
            Polygon::rect(Meters::new(-500.0, -500.0), Meters::new(1000.0, 2500.0)),
            Polygon::rect(Meters::new(1000.0, -500.0), Meters::new(2500.0, 2500.0)),
        ];
        let cfg = EstimatorConfig::default();
        let mut memo = SupplyDemandEstimator::new(cfg, region(), areas.clone());
        let mut reference = SupplyDemandEstimator::new(cfg, region(), areas.clone());
        let mut rng = SimRng::seed_from_u64(0x5EED);
        // A 250 m lattice over [-750, 2750]²: exact repeats are common, and
        // points fall outside every area and on every border.
        let point = |rng: &mut SimRng| {
            let x = 250.0 * rng.range_usize(0, 15) as f64 - 750.0;
            Meters::new(x, 250.0 * rng.range_usize(0, 15) as f64 - 750.0)
        };
        let tier = |id: u64| if id.is_multiple_of(3) { CarType::UberBlack } else { CarType::UberX };
        let mut cars: Vec<ObservedCar> = (100..120)
            .map(|id| ObservedCar { id, position: point(&mut rng), displacement: None })
            .collect();
        let mut online = vec![true; cars.len()];
        let empty = |car_type| TypeObservation { car_type, cars: vec![], ewt_min: 3.0, surge: 1.0 };
        let mut late: Vec<TypeObservation> = Vec::new();
        let (mut got, mut want) = (BTreeSet::new(), BTreeSet::new());
        let (mut calls, mut sightings) = (0, 0);
        for tick in 0..240u64 {
            for (car, on) in cars.iter_mut().zip(&mut online) {
                if rng.chance(0.03) {
                    *on = !*on;
                }
                if rng.chance(0.2) {
                    let to = point(&mut rng);
                    car.displacement = Some(to.sub(car.position));
                    car.position = to;
                } else if rng.chance(0.1) {
                    // The displacement changes at an unchanged position.
                    car.displacement = rng.chance(0.5).then(|| point(&mut rng));
                }
            }
            let now = SimTime(tick * 5);
            let mut fresh = Vec::new();
            for client in 0..8 {
                let mut blocks = vec![empty(CarType::UberX), empty(CarType::UberBlack)];
                for (car, _) in cars.iter().zip(&online).filter(|(_, on)| **on) {
                    if rng.chance(0.5) {
                        // Now and then a car turns up under the other tier.
                        let black = (tier(car.id) == CarType::UberBlack) != rng.chance(0.05);
                        blocks[usize::from(black)].cars.push(*car);
                    }
                }
                fresh.extend(blocks.iter().cloned());
                if rng.chance(0.2) {
                    blocks.push(blocks[0].clone());
                }
                // A delayed block from the last tick carries older
                // positions, before or after the fresh ones.
                if !late.is_empty() && rng.chance(0.4) {
                    let old = late[rng.range_usize(0, late.len())].clone();
                    let at = if rng.chance(0.5) { 0 } else { blocks.len() };
                    blocks.insert(at, old);
                }
                // Some ticks feed two times before one end_tick.
                let at = if tick % 7 == 3 && client % 2 == 1 { SimTime(now.0 + 2) } else { now };
                memo.observe_with(at, &blocks, |id, a| {
                    calls += 1;
                    got.insert((id, a));
                });
                reference = SupplyDemandEstimator::from_value(&reference.to_value()).unwrap();
                reference.observe(at, &blocks);
                for b in blocks.iter().filter(|b| b.car_type == CarType::UberX) {
                    for car in &b.cars {
                        if let Some(a) = areas.iter().position(|p| p.contains(car.position)) {
                            sightings += 1;
                            want.insert((car.id, a));
                        }
                    }
                }
            }
            late = fresh;
            let next = SimTime(now.0 + 5);
            memo.end_tick(next);
            reference.end_tick(next);
            assert_eq!(memo.to_value(), reference.to_value(), "state after tick {tick}");
            assert_eq!(got, want, "in_area pairs of tick {tick}");
            got.clear();
            want.clear();
        }
        memo.finish(SimTime(1200));
        reference.finish(SimTime(1200));
        assert_eq!(memo.to_value(), reference.to_value());
        assert!(!memo.death_events.is_empty() && !memo.supply_area_series(1).is_empty());
        assert!(0 < calls && calls < sightings, "the memo skipped nothing: {calls} of {sightings}");
    }

    #[test]
    fn duration_since_campaign_spans_intervals() {
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        let horizon = SimDuration::mins(20).as_secs();
        run_car(&mut est, 60, (1000.0, 1000.0), 0, horizon, horizon);
        est.finish(SimTime(horizon));
        // Four closed intervals, car present in each.
        assert_eq!(est.supply_series(CarType::UberX), &[1, 1, 1, 1]);
    }
}
