//! Statistics for the measurement pipeline.
//!
//! Everything the paper's analysis sections need, implemented from first
//! principles on `f64` slices:
//!
//! * descriptive statistics with the paper's 95% confidence intervals
//!   ([`stats`]);
//! * empirical CDFs for the many distribution figures ([`Ecdf`]);
//! * Pearson correlation with p-values, and lagged cross-correlation for
//!   Figs. 20–21 ([`corr`]);
//! * ordinary least squares with R² for the Table 1 forecasting models
//!   ([`ols`]);
//! * union-find for surge-area clustering ([`UnionFind`]).
//!
//! The special functions backing the p-values (log-gamma, regularized
//! incomplete beta) are implemented in [`special`] — pulling in a stats
//! crate for two functions would break the approved dependency set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corr;
pub mod ols;
pub mod special;
pub mod stats;

mod ecdf;
mod unionfind;

pub use corr::{autocorrelation, cross_correlation, pearson, CorrResult, LagCorr};
pub use ecdf::Ecdf;
pub use ols::{OlsFit, OlsModel};
pub use stats::{mean, mean_ci95, std_dev, MeanCi};
pub use unionfind::UnionFind;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn ecdf_is_monotone_and_bounded(xs in proptest::collection::vec(-1e6f64..1e6, 0..200),
                                        probe in -2e6f64..2e6) {
            let e = Ecdf::new(xs);
            let v = e.at(probe);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(e.at(probe + 1.0) >= v);
        }

        #[test]
        fn ecdf_quantile_within_sample(xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
                                       q in 0.0f64..1.0) {
            let e = Ecdf::new(xs);
            let v = e.quantile(q);
            prop_assert!(v >= e.min() - 1e-9 && v <= e.max() + 1e-9);
        }

        #[test]
        fn pearson_bounded(pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100)) {
            let xs: Vec<f64> = pairs.iter().map(|(a, _)| *a).collect();
            let ys: Vec<f64> = pairs.iter().map(|(_, b)| *b).collect();
            let c = pearson(&xs, &ys);
            prop_assert!((-1.0..=1.0).contains(&c.r), "r={}", c.r);
            prop_assert!((0.0..=1.0).contains(&c.p_value), "p={}", c.p_value);
        }

        #[test]
        fn inc_beta_bounded_and_monotone(a in 0.1f64..20.0, b in 0.1f64..20.0,
                                         x in 0.0f64..1.0) {
            let v = special::inc_beta(a, b, x);
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v));
            let v2 = special::inc_beta(a, b, (x + 0.05).min(1.0));
            prop_assert!(v2 >= v - 1e-9, "inc_beta not monotone in x");
        }

        #[test]
        fn ols_in_sample_r2_at_most_one(
            rows in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 5..60),
            noise_key in 0u64..100,
        ) {
            let xs: Vec<Vec<f64>> = rows.iter().map(|(a, b)| vec![*a, *b]).collect();
            let ys: Vec<f64> = rows
                .iter()
                .enumerate()
                .map(|(i, (a, b))| a - b + ((i as u64 * noise_key) % 7) as f64)
                .collect();
            if let Some(fit) = ols::fit(&xs, &ys) {
                prop_assert!(fit.r2 <= 1.0 + 1e-9, "r2={}", fit.r2);
            }
        }

        #[test]
        fn union_find_components_consistent(edges in proptest::collection::vec((0usize..30, 0usize..30), 0..60)) {
            let mut uf = UnionFind::new(30);
            let mut merges = 0;
            for (a, b) in edges {
                if a != b && uf.union(a, b) {
                    merges += 1;
                }
            }
            prop_assert_eq!(uf.component_count(), 30 - merges);
            let total: usize = uf.groups().iter().map(|g| g.len()).sum();
            prop_assert_eq!(total, 30);
        }
    }
}
