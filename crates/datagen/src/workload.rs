//! Density-biased k-NN query workloads.
//!
//! The paper's workload (§4.2): pick `q` query points *from the dataset*
//! (density-biased — dense regions receive proportionally more queries),
//! then determine each query's k-NN sphere radius from the full dataset.
//! Every predictor and the ground-truth measurement consume the same
//! `(center, radius)` pairs, so prediction error isolates the page-layout
//! estimate, exactly as in the paper.
//!
//! Radii come from [`knn_radii`]: one serial bulk load of an in-memory
//! VAMSplit tree over the dataset, then an exact best-first search per
//! query. Its distances carry the linear scan's `f64` add chain, so every
//! radius equals `hdidx_core::knn::scan_knn_radius` bit for bit (the scan
//! stays as the test oracle). The searches are independent and fan out
//! over the workspace [`Pool`] (order-preserving, so the workload is
//! identical for any thread count, and `--threads` / `HDIDX_THREADS` steer
//! it). This is one of the two places the workspace runs on threads; see
//! DESIGN §5b.

use hdidx_core::simd;
use hdidx_core::{Dataset, Error, Result};
use hdidx_pool::Pool;
use hdidx_rand::{sample_without_replacement, seeded};
use hdidx_vamsplit::query::{knn_through, TreeSoup};
use hdidx_vamsplit::{bulk_load, Topology};

/// Leaf capacity of the in-memory radius tree. A fixed in-memory shape,
/// not a disk page size: an 8 KB directory page cannot hold ISOLET617's
/// entries, and leaf capacities from 16 to 128 searched within noise.
const RADIUS_TREE_CAP_DATA: usize = 64;

/// Directory fanout of the in-memory radius tree.
const RADIUS_TREE_CAP_DIR: usize = 16;

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
    /// Rejects `q == 0`, `k == 0`, an empty dataset and a non-finite
    /// coordinate.
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
        let radii = knn_radii(data, &ids, k, &Pool::current())?;
        let queries = ids
            .into_iter()
            .zip(radii)
            .map(|(id, radius)| Query {
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

/// Exact k-NN radii of the dataset points at `ids` (`out[i]` belongs to
/// `ids[i]`): the distance from each point to its k-th nearest neighbor in
/// `data`, itself included.
///
/// Bulk-loads one in-memory VAMSplit tree over `data` and flattens its
/// directory into one [`TreeSoup`] (serially), then runs a best-first
/// search per id over `pool`. Each radius equals
/// `hdidx_core::knn::scan_knn_radius` bit for bit, and the output is
/// identical for any thread count. A `k` above `data.len()` saturates at
/// the farthest point; an empty `ids` is an empty answer.
///
/// # Errors
///
/// Rejects `k == 0`, an empty dataset, a non-finite coordinate (the
/// scan's order over NaN and infinite distances is not the index's) and
/// an id beyond `data`.
pub fn knn_radii(data: &Dataset, ids: &[u32], k: usize, pool: &Pool) -> Result<Vec<f64>> {
    if ids.is_empty() {
        return Ok(Vec::new());
    }
    if k == 0 {
        return Err(Error::invalid("k", "k must be positive"));
    }
    if data.is_empty() {
        return Err(Error::EmptyInput("dataset for workload radii"));
    }
    if let Some(&id) = ids.iter().find(|&&id| id as usize >= data.len()) {
        return Err(Error::invalid(
            "ids",
            format!("query id {id} beyond a dataset of {} points", data.len()),
        ));
    }
    if let Some(at) = data.as_flat().iter().position(|v| !v.is_finite()) {
        return Err(Error::invalid(
            "data",
            format!("non-finite coordinate in point {}", at / data.dim()),
        ));
    }
    let topo = Topology::from_capacities(
        data.dim(),
        data.len(),
        RADIUS_TREE_CAP_DATA,
        RADIUS_TREE_CAP_DIR,
    )?;
    let tree = bulk_load(data, &topo)?;
    let soup = TreeSoup::new(&tree)?;
    let isa = simd::active();
    pool.par_map(ids, |&id| {
        knn_through(isa, &tree, &soup, data, data.point(id as usize), k).map(|res| res.radius())
    })
    .into_iter()
    .collect()
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
    fn knn_radii_edge_cases() {
        // Points at x = 0, 1, ..., 9.
        let line = Dataset::from_flat(1, (0..10).map(|i| i as f32).collect()).unwrap();
        for t in [1usize, 2, 8] {
            let pool = Pool::new(t);
            // An empty batch is an empty answer, whatever `k`.
            assert_eq!(knn_radii(&line, &[], 0, &pool).unwrap(), vec![]);
            assert!(knn_radii(&line, &[0, 3], 0, &pool).is_err());
            assert!(knn_radii(&line, &[3, 10], 2, &pool).is_err());
            // k beyond n saturates at the farthest point: 9 away from
            // either end.
            assert_eq!(
                knn_radii(&line, &[0, 9], 25, &pool).unwrap(),
                vec![9.0, 9.0]
            );
            // Duplicates: the 2nd neighbor of a point at x = 1 is another
            // copy at distance 0; from x = 2 it is a copy at 1.
            let dup = Dataset::from_flat(1, vec![1.0, 1.0, 1.0, 2.0]).unwrap();
            let ids = [0u32, 1, 2, 3];
            assert_eq!(
                knn_radii(&dup, &ids, 2, &pool).unwrap(),
                [0.0, 0.0, 0.0, 1.0]
            );
            assert_eq!(knn_radii(&dup, &ids, 4, &pool).unwrap(), [1.0; 4]);
        }
        let empty = Dataset::with_capacity(1, 0).unwrap();
        assert!(knn_radii(&empty, &[0], 1, &Pool::serial()).is_err());
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
