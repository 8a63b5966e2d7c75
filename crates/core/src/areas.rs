//! Surge-area inference (§5.3, Figs. 18–19).
//!
//! The paper probes the API over a lattice of locations for days, then
//! "look\[s\] for clusters of adjacent locations that always had equal
//! surge multipliers". Here that is: build the probe lattice, collect a
//! per-probe multiplier series (the experiment harness does the
//! collection), union-find adjacent probes with identical series, and —
//! something the paper could not do — score the recovered partition
//! against the simulator's ground-truth areas.

use surgescope_analysis::UnionFind;
use surgescope_city::CityModel;
use surgescope_geo::{grid, Meters, Polygon};

/// A recovered partition of the probe lattice.
#[derive(Debug, Clone)]
pub struct AreaInference {
    /// Probe positions.
    pub probes: Vec<Meters>,
    /// Cluster label per probe (dense, 0-based, in first-seen order).
    pub assignment: Vec<usize>,
    /// Number of clusters found.
    pub clusters: usize,
}

/// Builds the probe lattice over a region.
pub fn probe_lattice(region: &Polygon, spacing_m: f64) -> Vec<Meters> {
    grid::cover_polygon(region, spacing_m)
        .into_iter()
        .map(|s| s.position)
        .collect()
}

/// Clusters probes whose multiplier series are identical, merging only
/// *adjacent* probes (within `adjacency_dist_m`). Identical but
/// non-adjacent probes stay separate — matching the paper, which found
/// spatially contiguous areas.
pub fn infer_areas(
    probes: &[Meters],
    series: &[Vec<f32>],
    adjacency_dist_m: f64,
) -> AreaInference {
    infer_areas_tolerant(probes, series, adjacency_dist_m, 0.0)
}

/// Like [`infer_areas`], but merges adjacent probes whose series agree in
/// all but a `mismatch_tolerance` fraction of intervals. Probing through
/// a jittery client stream (rather than the clean API) leaves a few
/// stale samples per series; exact lock-step would then shatter every
/// area into singletons, while a small tolerance (≈1–2%) recovers them.
pub fn infer_areas_tolerant(
    probes: &[Meters],
    series: &[Vec<f32>],
    adjacency_dist_m: f64,
    mismatch_tolerance: f64,
) -> AreaInference {
    assert_eq!(probes.len(), series.len(), "one series per probe");
    assert!((0.0..1.0).contains(&mismatch_tolerance), "tolerance in [0,1)");
    let n = probes.len();
    let mut uf = UnionFind::new(n);
    let d2 = adjacency_dist_m * adjacency_dist_m;
    let in_lockstep = |a: &[f32], b: &[f32]| -> bool {
        if a.len() != b.len() || a.is_empty() {
            return false;
        }
        if mismatch_tolerance == 0.0 {
            return a == b;
        }
        let mismatches = a.iter().zip(b).filter(|(x, y)| x != y).count();
        (mismatches as f64) <= mismatch_tolerance * a.len() as f64
    };
    for i in 0..n {
        for j in (i + 1)..n {
            if probes[i].dist2(probes[j]) <= d2 && in_lockstep(&series[i], &series[j]) {
                uf.union(i, j);
            }
        }
    }
    let groups = uf.groups();
    let mut assignment = vec![0usize; n];
    for (label, group) in groups.iter().enumerate() {
        for &i in group {
            assignment[i] = label;
        }
    }
    AreaInference { probes: probes.to_vec(), assignment, clusters: groups.len() }
}

/// Scores an inference against the city's ground-truth partition with the
/// Rand index: the fraction of probe pairs on which the two partitions
/// agree (together in both, or apart in both). 1.0 = exact recovery.
pub fn rand_index(city: &CityModel, inference: &AreaInference) -> f64 {
    let truth: Vec<Option<usize>> = inference
        .probes
        .iter()
        .map(|p| city.area_of(*p).map(|a| a.0))
        .collect();
    let n = inference.probes.len();
    let mut agree = 0u64;
    let mut total = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            let (Some(ti), Some(tj)) = (truth[i], truth[j]) else { continue };
            total += 1;
            let same_truth = ti == tj;
            let same_inferred = inference.assignment[i] == inference.assignment[j];
            if same_truth == same_inferred {
                agree += 1;
            }
        }
    }
    if total == 0 {
        return 0.0;
    }
    agree as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic series: two ground-truth halves with different streams.
    fn synthetic(probes: &[Meters], split_x: f64) -> Vec<Vec<f32>> {
        probes
            .iter()
            .map(|p| {
                if p.x < split_x {
                    vec![1.0, 1.5, 1.0, 2.0]
                } else {
                    vec![1.0, 1.0, 1.3, 2.0]
                }
            })
            .collect()
    }

    #[test]
    fn lattice_covers_region() {
        let region = Polygon::rect(Meters::new(0.0, 0.0), Meters::new(1000.0, 500.0));
        let probes = probe_lattice(&region, 250.0);
        assert!(!probes.is_empty());
        assert!(probes.iter().all(|p| region.contains(*p)));
    }

    #[test]
    fn recovers_two_halves() {
        let region = Polygon::rect(Meters::new(0.0, 0.0), Meters::new(1000.0, 400.0));
        let probes = probe_lattice(&region, 200.0);
        let series = synthetic(&probes, 500.0);
        let inf = infer_areas(&probes, &series, 300.0);
        assert_eq!(inf.clusters, 2, "expected the two halves");
        // All probes left of the split share a label.
        let left_label = inf.assignment[probes.iter().position(|p| p.x < 500.0).unwrap()];
        for (p, &a) in probes.iter().zip(&inf.assignment) {
            if p.x < 500.0 {
                assert_eq!(a, left_label);
            } else {
                assert_ne!(a, left_label);
            }
        }
    }

    #[test]
    fn non_adjacent_identical_series_stay_apart() {
        // Three probes in a row; outer two share a series but are not
        // adjacent (middle differs): they must remain distinct clusters.
        let probes = vec![
            Meters::new(0.0, 0.0),
            Meters::new(200.0, 0.0),
            Meters::new(400.0, 0.0),
        ];
        let series = vec![
            vec![1.0f32, 1.5],
            vec![1.0, 1.0],
            vec![1.0, 1.5],
        ];
        let inf = infer_areas(&probes, &series, 250.0);
        assert_eq!(inf.clusters, 3);
        assert_ne!(inf.assignment[0], inf.assignment[2]);
    }

    #[test]
    fn rand_index_perfect_and_degraded() {
        let city = surgescope_city::CityModel::manhattan_midtown();
        let probes = probe_lattice(&city.measurement_region, 300.0);
        // Perfect: assign by ground truth.
        let perfect = AreaInference {
            probes: probes.clone(),
            assignment: probes
                .iter()
                .map(|p| city.area_of(*p).map(|a| a.0).unwrap_or(0))
                .collect(),
            clusters: 4,
        };
        assert!((rand_index(&city, &perfect) - 1.0).abs() < 1e-12);
        // Degenerate: everything in one cluster scores below perfect.
        let lumped = AreaInference {
            probes: probes.clone(),
            assignment: vec![0; probes.len()],
            clusters: 1,
        };
        assert!(rand_index(&city, &lumped) < 0.9);
    }

    #[test]
    fn tolerant_clustering_survives_sample_noise() {
        let region = Polygon::rect(Meters::new(0.0, 0.0), Meters::new(1000.0, 400.0));
        let probes = probe_lattice(&region, 200.0);
        let mut series = synthetic(&probes, 500.0);
        // Corrupt one sample in one probe (a stale jitter reading).
        series[0][1] = 9.9;
        let strict = infer_areas(&probes, &series, 300.0);
        let tolerant = infer_areas_tolerant(&probes, &series, 300.0, 0.3);
        assert!(
            strict.clusters > 2,
            "strict lock-step should shatter on noise, got {}",
            strict.clusters
        );
        assert_eq!(tolerant.clusters, 2, "tolerant clustering should recover both halves");
    }

    #[test]
    #[should_panic(expected = "one series per probe")]
    fn mismatched_lengths_panic() {
        let probes = vec![Meters::new(0.0, 0.0)];
        let _ = infer_areas(&probes, &[], 100.0);
    }
}
