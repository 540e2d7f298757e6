//! [`Predictor`] implementations for the prior-art baselines, plus the
//! **name registry** that maps CLI-facing identifiers to boxed predictors.
//!
//! The workload-level models (uniform, fractal) have no per-query
//! resolution — they predict one average for the whole workload — so their
//! [`Prediction::per_query`] repeats the rounded average for every query.
//! This is exactly the limitation the paper's correlation diagrams
//! (Figures 11–12) visualize: those models produce a horizontal line.
//!
//! I/O charged: the uniform model is parameter-free (no data access, zero
//! I/O); the fractal and histogram models stream the dataset once.

use crate::fractal::{estimate_fractal_dims, predict_fractal};
use crate::histogram::GridHistogram;
use crate::uniform::predict_uniform;
use hdidx_core::{Dataset, Result};
use hdidx_diskio::IoStats;
use hdidx_faults::FaultConfig;
use hdidx_model::predictor::Predictor;
use hdidx_model::{
    Basic, BasicParams, Cutoff, CutoffParams, Prediction, QueryBall, Resampled, ResampledParams,
};
use hdidx_vamsplit::topology::Topology;

fn scan_io(topo: &Topology) -> IoStats {
    IoStats::run((topo.n() as u64).div_ceil(topo.cap_data() as u64))
}

/// The uniformity-assumption model (PODS'97 style) as a [`Predictor`].
///
/// Workload-level: every query gets the same rounded average. Needs the
/// k-NN `k` the workload was generated with (the model derives its own
/// expected radius from it, ignoring the actual query radii).
#[derive(Debug, Clone, Copy)]
pub struct Uniform {
    /// The `k` of the k-NN workload.
    pub k: usize,
}

impl Predictor for Uniform {
    fn name(&self) -> &str {
        "uniform"
    }

    fn predict(
        &self,
        _data: &Dataset,
        topo: &Topology,
        queries: &[QueryBall],
    ) -> Result<Prediction> {
        let avg = predict_uniform(topo, self.k)?;
        Ok(Prediction {
            per_query: vec![avg.round() as u64; queries.len()],
            io: IoStats::default(),
            predicted_leaf_pages: topo.leaf_pages() as usize,
            degraded: hdidx_model::DegradedReport::default(),
        })
    }
}

/// The fractal-dimensionality model (ICDE'00 style) as a [`Predictor`].
///
/// Workload-level; box-counts the dataset at `levels` grid scales and
/// feeds the model the measured mean query radius (see the reproduction
/// note in [`crate::fractal`]).
#[derive(Debug, Clone, Copy)]
pub struct Fractal {
    /// Grid refinement levels for the box-counting estimate.
    pub levels: usize,
}

impl Predictor for Fractal {
    fn name(&self) -> &str {
        "fractal"
    }

    fn predict(
        &self,
        data: &Dataset,
        topo: &Topology,
        queries: &[QueryBall],
    ) -> Result<Prediction> {
        let dims = estimate_fractal_dims(data, self.levels)?;
        let mbr = data.mbr()?;
        let space_side = (0..data.dim())
            .map(|j| mbr.extent(j))
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let mean_radius = if queries.is_empty() {
            0.0
        } else {
            queries.iter().map(|q| q.radius).sum::<f64>() / queries.len() as f64
        };
        let avg = predict_fractal(topo, &dims, mean_radius, space_side)?;
        Ok(Prediction {
            per_query: vec![avg.round() as u64; queries.len()],
            io: scan_io(topo),
            predicted_leaf_pages: topo.leaf_pages() as usize,
            degraded: hdidx_model::DegradedReport::default(),
        })
    }
}

/// The equi-width grid-histogram model (PODS'96 style) as a
/// [`Predictor`]. Per-query resolution via the local density estimate.
#[derive(Debug, Clone, Copy)]
pub struct Histogram {
    /// Number of top-variance dimensions the grid spans.
    pub d_grid: usize,
    /// Bins per spanned dimension.
    pub bins_per_dim: usize,
}

impl Predictor for Histogram {
    fn name(&self) -> &str {
        "histogram"
    }

    fn predict(
        &self,
        data: &Dataset,
        topo: &Topology,
        queries: &[QueryBall],
    ) -> Result<Prediction> {
        let h = GridHistogram::build(data, self.d_grid, self.bins_per_dim)?;
        let per_query: Vec<u64> = queries
            .iter()
            .map(|q| h.predict_accesses(topo, &q.center, q.radius).round() as u64)
            .collect();
        Ok(Prediction {
            per_query,
            io: scan_io(topo),
            predicted_leaf_pages: topo.leaf_pages() as usize,
            degraded: hdidx_model::DegradedReport::default(),
        })
    }
}

/// Shared knobs for constructing any named predictor via [`by_name`].
#[derive(Debug, Clone, Copy)]
pub struct PredictorConfig {
    /// Memory budget in points (cutoff/resampled `M`).
    pub m: usize,
    /// Upper-tree height (cutoff/resampled).
    pub h_upper: usize,
    /// RNG seed (all seeded predictors).
    pub seed: u64,
    /// Sampling fraction for the basic model.
    pub zeta: f64,
    /// The k-NN `k` of the workload (uniform model).
    pub knn_k: usize,
    /// Box-counting levels (fractal model).
    pub fractal_levels: usize,
    /// Grid dimensions (histogram model).
    pub d_grid: usize,
    /// Bins per grid dimension (histogram model).
    pub bins_per_dim: usize,
    /// Fault-injection plan applied by the paper's predictors (basic,
    /// cutoff, resampled), each of which degrades gracefully when retries
    /// exhaust; `None` disables injection.
    pub faults: Option<FaultConfig>,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            m: 1_000,
            h_upper: 2,
            seed: 42,
            zeta: 0.25,
            knn_k: 21,
            fractal_levels: 6,
            d_grid: 2,
            bins_per_dim: 16,
            faults: None,
        }
    }
}

/// Every name [`by_name`] accepts, in canonical order (the paper's
/// predictors first, then the baselines).
pub const PREDICTOR_NAMES: &[&str] = &[
    "basic",
    "cutoff",
    "resampled",
    "uniform",
    "fractal",
    "histogram",
];

/// Constructs the predictor registered under `name` (see
/// [`PREDICTOR_NAMES`]), or `None` for an unknown name.
#[must_use]
pub fn by_name(name: &str, cfg: &PredictorConfig) -> Option<Box<dyn Predictor>> {
    match name {
        "basic" => Some(Box::new(
            Basic::new(BasicParams {
                zeta: cfg.zeta,
                compensate: true,
                seed: cfg.seed,
            })
            .with_faults(cfg.faults),
        )),
        "cutoff" => Some(Box::new(
            Cutoff::new(CutoffParams {
                m: cfg.m,
                h_upper: cfg.h_upper,
                seed: cfg.seed,
            })
            .with_faults(cfg.faults),
        )),
        "resampled" => Some(Box::new(
            Resampled::new(ResampledParams {
                m: cfg.m,
                h_upper: cfg.h_upper,
                seed: cfg.seed,
            })
            .with_faults(cfg.faults),
        )),
        "uniform" => Some(Box::new(Uniform { k: cfg.knn_k })),
        "fractal" => Some(Box::new(Fractal {
            levels: cfg.fractal_levels,
        })),
        "histogram" => Some(Box::new(Histogram {
            d_grid: cfg.d_grid,
            bins_per_dim: cfg.bins_per_dim,
        })),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_rand::{seeded, Rng};

    fn uniform_data(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    #[test]
    fn registry_constructs_every_name() {
        let cfg = PredictorConfig::default();
        for &name in PREDICTOR_NAMES {
            let p = by_name(name, &cfg).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(p.name(), name);
        }
        assert!(by_name("nonsense", &cfg).is_none());
    }

    #[test]
    fn all_baselines_predict_through_the_trait() {
        let data = uniform_data(3_000, 4, 11);
        let topo = Topology::from_capacities(4, 3_000, 20, 8).unwrap();
        let queries = vec![
            QueryBall::new(data.point(5).to_vec(), 0.1),
            QueryBall::new(data.point(17).to_vec(), 0.4),
        ];
        let cfg = PredictorConfig {
            m: 600,
            ..PredictorConfig::default()
        };
        for &name in PREDICTOR_NAMES {
            let p = by_name(name, &cfg).unwrap();
            let out = p.predict(&data, &topo, &queries).unwrap();
            assert_eq!(out.per_query.len(), 2, "{name}");
            assert!(out.predicted_leaf_pages > 0, "{name}");
            // Predictions are deterministic: a second run is identical.
            let again = p.predict(&data, &topo, &queries).unwrap();
            assert_eq!(out.per_query, again.per_query, "{name}");
            assert_eq!(out.io, again.io, "{name}");
        }
    }

    #[test]
    fn workload_level_models_are_flat_across_queries() {
        // The uniform and fractal models have no per-query resolution —
        // the horizontal-line failure of Figures 11–12.
        let data = uniform_data(3_000, 4, 12);
        let topo = Topology::from_capacities(4, 3_000, 20, 8).unwrap();
        let queries: Vec<QueryBall> = (0..5)
            .map(|i| QueryBall::new(data.point(i * 3).to_vec(), 0.05 + 0.1 * i as f64))
            .collect();
        for name in ["uniform", "fractal"] {
            let p = by_name(name, &PredictorConfig::default()).unwrap();
            let out = p.predict(&data, &topo, &queries).unwrap();
            assert!(
                out.per_query.windows(2).all(|w| w[0] == w[1]),
                "{name}: {:?}",
                out.per_query
            );
        }
    }

    #[test]
    fn histogram_grows_with_radius() {
        let data = uniform_data(3_000, 4, 13);
        let topo = Topology::from_capacities(4, 3_000, 20, 8).unwrap();
        let queries = vec![
            QueryBall::new(data.point(1).to_vec(), 0.05),
            QueryBall::new(data.point(1).to_vec(), 0.8),
        ];
        let p = by_name("histogram", &PredictorConfig::default()).unwrap();
        let out = p.predict(&data, &topo, &queries).unwrap();
        assert!(out.per_query[0] <= out.per_query[1], "{:?}", out.per_query);
    }
}
