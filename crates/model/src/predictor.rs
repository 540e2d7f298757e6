//! The unified **predictor interface**: every access-cost estimator in the
//! workspace — the paper's sampling predictors and the prior-art baselines
//! alike — answers the same question through the same trait, so the
//! comparison experiments (the paper's Table 4, the correlation diagrams of
//! Figures 11–12) can iterate over `&[&dyn Predictor]` instead of matching
//! on concrete functions.
//!
//! The paper's own predictors implement it in this crate ([`crate::basic`],
//! [`crate::cutoff`], [`crate::resampled`]); the Table 4 baselines implement
//! it in `hdidx-baselines`. The rich per-predictor outputs
//! (`CutoffPrediction`'s `sigma_upper`, `ResampledPrediction`'s
//! `sigma_lower`, …) remain available through each type's inherent `run`
//! method — the trait surfaces the common denominator, a [`Prediction`].

use crate::{Prediction, QueryBall};
use hdidx_core::{Dataset, Result};
use hdidx_vamsplit::topology::Topology;

/// A page-access predictor: given the dataset, the topology of the index
/// that *would* be built, and a ball-query workload, estimate the leaf-page
/// accesses per query and the I/O bill of producing that estimate.
///
/// Implementations must be **deterministic**: the same inputs (including
/// any seed carried in the implementing struct) must yield the same
/// [`Prediction`].
pub trait Predictor {
    /// Stable lower-case identifier (`"cutoff"`, `"resampled"`,
    /// `"uniform"`, …) used by CLI flags and experiment tables.
    fn name(&self) -> &str;

    /// Runs the predictor for `queries`.
    ///
    /// # Errors
    ///
    /// Implementation-specific: infeasible parameters (e.g. a sampling rate
    /// below the Theorem-1 compensation domain), dimension mismatches
    /// between `data`, `topo` and the query centers, or invalid radii.
    fn predict(&self, data: &Dataset, topo: &Topology, queries: &[QueryBall])
        -> Result<Prediction>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::{Basic, BasicParams};
    use crate::cutoff::{Cutoff, CutoffParams};
    use crate::resampled::{Resampled, ResampledParams};
    use hdidx_rand::{seeded, Rng};

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    #[test]
    fn trait_objects_cover_all_model_predictors() {
        let data = random_dataset(5_000, 4, 11);
        let topo = Topology::from_capacities(4, 5_000, 10, 5).unwrap();
        let queries = vec![
            QueryBall::new(data.point(0).to_vec(), 0.15),
            QueryBall::new(data.point(7).to_vec(), 0.3),
        ];
        let basic = Basic::new(BasicParams {
            zeta: 0.5,
            compensate: true,
            seed: 1,
        });
        let cutoff = Cutoff::new(CutoffParams {
            m: 1_000,
            h_upper: 2,
            seed: 1,
        });
        let resampled = Resampled::new(ResampledParams {
            m: 1_000,
            h_upper: 2,
            seed: 1,
        });
        let predictors: Vec<&dyn Predictor> = vec![&basic, &cutoff, &resampled];
        let names: Vec<&str> = predictors.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["basic", "cutoff", "resampled"]);
        for p in predictors {
            let out = p.predict(&data, &topo, &queries).unwrap();
            assert_eq!(out.per_query.len(), 2);
            assert!(out.predicted_leaf_pages > 0);
        }
    }

    #[test]
    fn trait_predict_matches_inherent_run() {
        let data = random_dataset(4_000, 4, 12);
        let topo = Topology::from_capacities(4, 4_000, 10, 5).unwrap();
        let queries = vec![QueryBall::new(data.point(3).to_vec(), 0.2)];
        let params = CutoffParams {
            m: 800,
            h_upper: 2,
            seed: 9,
        };
        let via_trait = Cutoff::new(params).predict(&data, &topo, &queries).unwrap();
        let via_run = Cutoff::new(params).run(&data, &topo, &queries).unwrap();
        assert_eq!(via_trait.per_query, via_run.prediction.per_query);
        assert_eq!(via_trait.io, via_run.prediction.io);
        let rparams = ResampledParams {
            m: 800,
            h_upper: 2,
            seed: 9,
        };
        let via_trait = Resampled::new(rparams)
            .predict(&data, &topo, &queries)
            .unwrap();
        let via_run = Resampled::new(rparams).run(&data, &topo, &queries).unwrap();
        assert_eq!(via_trait.per_query, via_run.prediction.per_query);
        assert_eq!(via_trait.io, via_run.prediction.io);
    }
}
