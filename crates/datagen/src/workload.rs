//! Density-biased k-NN query workloads.
//!
//! The paper's workload (§4.2): pick `q` query points *from the dataset*
//! (density-biased — dense regions receive proportionally more queries),
//! then determine each query's k-NN sphere radius from the full dataset.
//! Every predictor and the ground-truth measurement consume the same
//! `(center, radius)` pairs, so prediction error isolates the page-layout
//! estimate, exactly as in the paper.
//!
//! Radius computation is an exact linear scan per query, running on the
//! blocked early-exit kernel of `hdidx_core::knn`; queries are independent
//! and fan out over the workspace [`Pool`] (order-preserving, so the
//! workload is identical for any thread count, and `--threads` /
//! `HDIDX_THREADS` steer it). This is one of the two places the workspace
//! runs on threads; see DESIGN §5b.

use hdidx_core::knn::scan_knn_radii;
use hdidx_core::{Dataset, Error, Result};
use hdidx_pool::Pool;
use hdidx_rand::{sample_without_replacement, seeded};

/// One ball query: a center (a dataset point) and its exact k-NN radius.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Id of the dataset point used as the query center.
    pub point_id: u32,
    /// Query center coordinates.
    pub center: Vec<f32>,
    /// Exact k-NN sphere radius over the full dataset.
    pub radius: f64,
}

/// A set of density-biased k-NN queries with exact radii.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Neighbor count the radii correspond to (the paper uses k = 21).
    pub k: usize,
    /// The queries.
    pub queries: Vec<Query>,
}

impl Workload {
    /// Builds a workload of `q` density-biased k-NN queries.
    ///
    /// # Errors
    ///
    /// Rejects `q == 0`, `k == 0` and an empty dataset.
    pub fn density_biased(data: &Dataset, q: usize, k: usize, seed: u64) -> Result<Workload> {
        if q == 0 {
            return Err(Error::invalid("q", "need at least one query"));
        }
        if k == 0 {
            return Err(Error::invalid("k", "k must be positive"));
        }
        if data.is_empty() {
            return Err(Error::EmptyInput("dataset for workload"));
        }
        let mut rng = seeded(seed);
        let ids = sample_without_replacement(&mut rng, data.len(), q);
        let radii = parallel_radii(data, &ids, k)?;
        let queries = ids
            .iter()
            .zip(radii)
            .map(|(&id, radius)| Query {
                point_id: id,
                center: data.point(id as usize).to_vec(),
                radius,
            })
            .collect();
        Ok(Workload { k, queries })
    }

    /// Builds a workload of `q` density-biased **range** queries with a
    /// fixed radius (the paper notes its technique "can also be applied to
    /// range queries" — a range query is a ball with a known radius, so
    /// the prediction path is identical).
    ///
    /// # Errors
    ///
    /// Rejects `q == 0`, a non-finite/negative radius and an empty
    /// dataset.
    pub fn range_biased(data: &Dataset, q: usize, radius: f64, seed: u64) -> Result<Workload> {
        if q == 0 {
            return Err(Error::invalid("q", "need at least one query"));
        }
        if !(radius.is_finite() && radius >= 0.0) {
            return Err(Error::invalid("radius", "must be finite and >= 0"));
        }
        if data.is_empty() {
            return Err(Error::EmptyInput("dataset for workload"));
        }
        let mut rng = seeded(seed);
        let ids = sample_without_replacement(&mut rng, data.len(), q);
        let queries = ids
            .iter()
            .map(|&id| Query {
                point_id: id,
                center: data.point(id as usize).to_vec(),
                radius,
            })
            .collect();
        Ok(Workload { k: 0, queries })
    }

    /// Recomputes every radius against a different dataset (used by the
    /// Figure-14 experiment, where queries live in a projected subspace).
    ///
    /// # Errors
    ///
    /// Propagates scan errors (dimension mismatch, empty data).
    pub fn with_radii_from(&self, data: &Dataset) -> Result<Workload> {
        let ids: Vec<u32> = self.queries.iter().map(|q| q.point_id).collect();
        let radii = parallel_radii(data, &ids, self.k)?;
        let queries = ids
            .iter()
            .zip(radii)
            .map(|(&id, radius)| Query {
                point_id: id,
                center: data.point(id as usize).to_vec(),
                radius,
            })
            .collect();
        Ok(Workload { k: self.k, queries })
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Mean query radius — a useful summary statistic in experiment logs.
    pub fn mean_radius(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries.iter().map(|q| q.radius).sum::<f64>() / self.queries.len() as f64
    }
}

/// Exact k-NN radii for the points at `ids`, fanned out over the ambient
/// workspace pool via the batch kernel in `hdidx_core::knn`.
fn parallel_radii(data: &Dataset, ids: &[u32], k: usize) -> Result<Vec<f64>> {
    scan_knn_radii(data, ids, k, &Pool::current())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::UniformSpec;
    use hdidx_core::knn::scan_knn_radius;

    fn data() -> Dataset {
        UniformSpec {
            n: 2_000,
            dim: 6,
            seed: 77,
        }
        .generate()
        .unwrap()
    }

    #[test]
    fn workload_is_deterministic_and_sized() {
        let d = data();
        let a = Workload::density_biased(&d, 50, 21, 1).unwrap();
        let b = Workload::density_biased(&d, 50, 21, 1).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert!(!a.is_empty());
        let c = Workload::density_biased(&d, 50, 21, 2).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn radii_match_serial_ground_truth() {
        let d = data();
        let w = Workload::density_biased(&d, 20, 5, 3).unwrap();
        for q in &w.queries {
            let expect = scan_knn_radius(&d, &q.center, 5).unwrap();
            assert_eq!(q.radius, expect);
            assert_eq!(q.center, d.point(q.point_id as usize));
        }
    }

    #[test]
    fn centers_come_from_dataset() {
        let d = data();
        let w = Workload::density_biased(&d, 10, 3, 4).unwrap();
        for q in &w.queries {
            // The query point itself is in the data, so radius(k=1) == 0
            // and radius(k=3) is the distance to its 2nd real neighbor.
            assert!(q.radius > 0.0);
            assert!((q.point_id as usize) < d.len());
        }
    }

    #[test]
    fn recompute_radii_on_projection() {
        let d = data();
        let w = Workload::density_biased(&d, 10, 5, 5).unwrap();
        let proj = d.project_prefix(3).unwrap();
        let wp = w.with_radii_from(&proj).unwrap();
        assert_eq!(wp.len(), w.len());
        for (orig, p) in w.queries.iter().zip(&wp.queries) {
            assert_eq!(orig.point_id, p.point_id);
            assert_eq!(p.center.len(), 3);
            // Projection can only shrink distances.
            assert!(p.radius <= orig.radius + 1e-9);
        }
    }

    #[test]
    fn mean_radius_positive() {
        let d = data();
        let w = Workload::density_biased(&d, 25, 10, 6).unwrap();
        assert!(w.mean_radius() > 0.0);
    }

    #[test]
    fn validation() {
        let d = data();
        assert!(Workload::density_biased(&d, 0, 5, 0).is_err());
        assert!(Workload::density_biased(&d, 5, 0, 0).is_err());
        let empty = Dataset::with_capacity(2, 0).unwrap();
        assert!(Workload::density_biased(&empty, 5, 5, 0).is_err());
    }

    #[test]
    fn range_workload_fixed_radius() {
        let d = data();
        let w = Workload::range_biased(&d, 30, 0.4, 7).unwrap();
        assert_eq!(w.len(), 30);
        assert!(w.queries.iter().all(|q| q.radius == 0.4));
        assert!((w.mean_radius() - 0.4).abs() < 1e-12);
        // Centers still come from the data (density bias).
        for q in &w.queries {
            assert_eq!(q.center, d.point(q.point_id as usize));
        }
        assert!(Workload::range_biased(&d, 0, 0.4, 7).is_err());
        assert!(Workload::range_biased(&d, 5, f64::NAN, 7).is_err());
        assert!(Workload::range_biased(&d, 5, -1.0, 7).is_err());
    }
}
