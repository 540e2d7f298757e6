//! # hdidx-model
//!
//! The paper's contribution: **sampling-based prediction of index page
//! accesses** (Lang & Singh, SIGMOD 2001).
//!
//! Given a dataset, a query workload and the topology of the VAMSplit
//! R\*-tree that *would* be built on disk, these predictors estimate the
//! average number of leaf-page accesses per query at a fraction of the I/O
//! cost of actually building the index:
//!
//! * [`compensation`] — Theorem 1: how much a minimal bounding box shrinks
//!   when its point count drops from `C` to `C·ζ`, and the growth factor
//!   that undoes it,
//! * [`basic`] — the §3 unrestricted-memory model: sample, build a
//!   mini-index with proportionally reduced page capacities, grow its
//!   leaves, count query-sphere/leaf intersections,
//! * [`upper`] — the shared first phase of the restricted-memory
//!   predictors: the §4.2 upper tree built on an exactly-`M` sample, its
//!   leaves grown by the compensation factor,
//! * [`cutoff`] — §4.3: extrapolate each lower tree from the grown
//!   upper-leaf geometry alone, assuming in-page uniformity (no extra I/O),
//! * [`resampled`] — §4.4: re-sample `k·M` points in a second scan,
//!   distribute them to per-leaf disk areas, build each lower tree in
//!   memory at the `k`-fold higher sampling rate (modest extra I/O),
//! * [`hupper`] — §4.5: feasibility bounds and the recommended choice of
//!   the upper-tree height,
//! * [`cost`] — §4.1/§4.6: the closed-form I/O cost formulas, Eqs. (1)–(5),
//!   behind Figures 9 and 10.
//!
//! All predictors report both the estimate and the [`IoStats`] they would
//! incur, measured through the same simulated disk as the on-disk baseline.
//!
//! ## The [`Predictor`] trait
//!
//! Every estimator is also exposed through the unified
//! [`predictor::Predictor`] trait ([`Basic`], [`Cutoff`], [`Resampled`]
//! here; the prior-art baselines in `hdidx-baselines`), so comparison
//! experiments iterate over `&[&dyn Predictor]`.
//!
//! Predictors run serially on the calling thread, so their output is a
//! function of the inputs and the seed alone.
//!
//! [`IoStats`]: hdidx_diskio::IoStats

pub mod basic;
pub mod compensation;
pub mod cost;
pub mod cutoff;
pub mod hupper;
pub mod predictor;
pub mod resampled;
mod scan;
pub mod structures;
pub mod upper;

pub use basic::{Basic, BasicParams};
pub use cost::CostInputs;
pub use cutoff::{Cutoff, CutoffParams};
pub use hupper::{h_upper_bounds, recommended_h_upper};
pub use predictor::Predictor;
pub use resampled::{Resampled, ResampledParams};

use hdidx_diskio::IoStats;

/// A ball query: the center and the exact k-NN radius over the full
/// dataset, as the paper derives it. Every predictor consumes the same balls the on-disk
/// measurement implicitly uses, so errors isolate the page-layout estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBall {
    /// Query center.
    pub center: Vec<f32>,
    /// Query-sphere radius.
    pub radius: f64,
}

impl QueryBall {
    /// Convenience constructor.
    pub fn new(center: Vec<f32>, radius: f64) -> Self {
        QueryBall { center, radius }
    }
}

/// Distinguishes a survivable injected fault from a genuine error: an
/// `Error::IoFault` becomes `Ok(true)` ("this access was lost, degrade
/// gracefully"), everything else propagates. Shared by every fault-aware
/// predictor.
pub(crate) fn access_lost(result: hdidx_core::Result<()>) -> hdidx_core::Result<bool> {
    match result {
        Ok(()) => Ok(false),
        Err(hdidx_core::Error::IoFault { .. }) => Ok(true),
        Err(e) => Err(e),
    }
}

/// Validates that every query ball matches the index dimensionality and
/// has a finite, non-negative radius. Called by every predictor.
pub(crate) fn validate_balls(queries: &[QueryBall], dim: usize) -> hdidx_core::Result<()> {
    for (i, q) in queries.iter().enumerate() {
        if q.center.len() != dim {
            return Err(hdidx_core::Error::DimensionMismatch {
                expected: dim,
                actual: q.center.len(),
            });
        }
        if !(q.radius.is_finite() && q.radius >= 0.0) {
            return Err(hdidx_core::Error::invalid(
                "radius",
                format!("query {i} has radius {}", q.radius),
            ));
        }
    }
    Ok(())
}

/// How much of a prediction came from its primary estimation path when
/// I/O faults forced parts of it onto a fallback.
///
/// Every sampling predictor degrades gracefully: the resampled predictor
/// falls back to cutoff extrapolation for an upper leaf whose
/// second-sample read ultimately fails, while the basic and cutoff
/// predictors drop the sampled points living on scan chunks whose retries
/// exhaust and estimate from the surviving sample. Fault-free runs always
/// report the default "fully healthy" value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedReport {
    /// Units of work that fell back (resampled: upper leaves on cutoff
    /// fallback; basic/cutoff: lost scan chunks).
    pub leaves_degraded: usize,
    /// Fraction of sampled points that survived onto the primary path;
    /// `1.0` means no degradation at all.
    pub coverage_fraction: f64,
}

impl Default for DegradedReport {
    fn default() -> Self {
        DegradedReport {
            leaves_degraded: 0,
            coverage_fraction: 1.0,
        }
    }
}

impl DegradedReport {
    /// Whether any part of the prediction used a fallback path.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.leaves_degraded > 0
    }
}

/// Output of a predictor: estimated accesses plus the I/O bill of producing
/// the estimate.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Predicted leaf accesses per query, in workload order.
    pub per_query: Vec<u64>,
    /// Seeks/transfers the prediction itself cost.
    pub io: IoStats,
    /// Number of (estimated) data pages in the predicted layout.
    pub predicted_leaf_pages: usize,
    /// Fault-degradation summary (the default means fully healthy).
    pub degraded: DegradedReport,
}

impl Prediction {
    /// Average predicted leaf accesses per query.
    #[must_use]
    pub fn avg_leaf_accesses(&self) -> f64 {
        if self.per_query.is_empty() {
            return 0.0;
        }
        self.per_query.iter().sum::<u64>() as f64 / self.per_query.len() as f64
    }

    /// Relative error against a measured average (signed; negative =
    /// underestimation), as reported in the paper's Table 3.
    #[must_use]
    pub fn relative_error(&self, measured_avg: f64) -> f64 {
        if measured_avg == 0.0 {
            return 0.0;
        }
        (self.avg_leaf_accesses() - measured_avg) / measured_avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_summary_statistics() {
        let p = Prediction {
            per_query: vec![10, 20, 30],
            io: IoStats::default(),
            predicted_leaf_pages: 100,
            degraded: DegradedReport::default(),
        };
        assert!((p.avg_leaf_accesses() - 20.0).abs() < 1e-12);
        assert!((p.relative_error(25.0) - (-0.2)).abs() < 1e-12);
        let empty = Prediction {
            per_query: vec![],
            io: IoStats::default(),
            predicted_leaf_pages: 0,
            degraded: DegradedReport::default(),
        };
        assert_eq!(empty.avg_leaf_accesses(), 0.0);
        assert_eq!(empty.relative_error(0.0), 0.0);
    }

    #[test]
    fn degraded_report_defaults_to_healthy() {
        let d = DegradedReport::default();
        assert!(!d.is_degraded());
        assert_eq!(d.leaves_degraded, 0);
        assert!((d.coverage_fraction - 1.0).abs() < 1e-12);
        let d = DegradedReport {
            leaves_degraded: 3,
            coverage_fraction: 0.8,
        };
        assert!(d.is_degraded());
    }
}

#[cfg(test)]
mod ball_validation_tests {
    use super::*;

    #[test]
    fn validate_balls_accepts_good_and_rejects_bad() {
        let good = vec![QueryBall::new(vec![0.0, 1.0], 0.5)];
        assert!(validate_balls(&good, 2).is_ok());
        assert!(validate_balls(&[], 2).is_ok());
        let wrong_dim = vec![QueryBall::new(vec![0.0], 0.5)];
        assert!(validate_balls(&wrong_dim, 2).is_err());
        let nan = vec![QueryBall::new(vec![0.0, 1.0], f64::NAN)];
        assert!(validate_balls(&nan, 2).is_err());
        let neg = vec![QueryBall::new(vec![0.0, 1.0], -0.1)];
        assert!(validate_balls(&neg, 2).is_err());
    }
}
