//! §4.7 generalization: the sampling predictor on other fixed-capacity
//! page structures.
//!
//! The paper argues its technique applies to any index that organizes data
//! in fixed-capacity pages (R-tree variants, SS-tree, k-d-B-tree, grid
//! file, M-tree…) because only the bulk loader and the page geometry
//! change. This module demonstrates the claim with the **SS-tree**-style
//! bounding-sphere layout: the same sample → mini-layout → grow → count
//! pipeline, with Theorem 1's per-dimension growth applied to the single
//! radial degree of freedom.

use crate::compensation::growth_factor;
use crate::{Prediction, QueryBall};
use hdidx_core::{Dataset, Error, Result};
use hdidx_diskio::IoStats;
use hdidx_rand::{bernoulli_sample, seeded};
use hdidx_vamsplit::sstree::SsLeafLayout;
use hdidx_vamsplit::topology::Topology;

pub use crate::basic::BasicParams;

/// Basic-model prediction (§3 pipeline) for an SS-tree-style layout:
/// sample, build the mini page layout with the full-scale topology, grow
/// every bounding sphere's radius by the Theorem-1 factor, count
/// query-ball/page-sphere intersections.
///
/// # Errors
///
/// Same domain as [`crate::Basic`].
pub fn predict_basic_sstree(
    data: &Dataset,
    topo: &Topology,
    queries: &[QueryBall],
    params: &BasicParams,
) -> Result<Prediction> {
    crate::validate_balls(queries, topo.dim())?;
    let n = data.len();
    if n != topo.n() {
        return Err(Error::invalid(
            "data",
            format!("topology is for {} points, data has {n}", topo.n()),
        ));
    }
    // Radial adaptation of Theorem 1: the covering radius is a max-type
    // statistic over all dimensions at once and shrinks far more slowly
    // than a single per-dimension extent; the square root of the
    // per-dimension growth matches the observed shrinkage of centroid
    // spheres on uniform pages (validated in this module's tests).
    let factor = growth_factor(topo.cap_data() as f64, params.zeta)?.sqrt();
    let mut rng = seeded(params.seed);
    let sample = bernoulli_sample(&mut rng, n, params.zeta);
    if sample.is_empty() {
        return Err(Error::EmptyInput("Bernoulli sample"));
    }
    let layout = SsLeafLayout::build(data, sample, topo, n as f64)?;
    let applied = if params.compensate { factor } else { 1.0 };
    let mut grown = Vec::with_capacity(layout.pages.len());
    for s in &layout.pages {
        grown.push(s.scaled(applied)?);
    }
    let per_query: Vec<u64> = queries
        .iter()
        .map(|q| {
            grown
                .iter()
                .filter(|s| s.intersects_ball(&q.center, q.radius))
                .count() as u64
        })
        .collect();
    let scan_pages = (n as u64).div_ceil(topo.cap_data() as u64);
    Ok(Prediction {
        per_query,
        io: IoStats::run(scan_pages),
        predicted_leaf_pages: grown.len(),
        degraded: crate::DegradedReport::default(),
    })
}

/// Ground truth for the SS-tree layout: page accesses of a ball query are
/// the full-data page spheres it intersects (the optimal-search counting
/// identity, §4.7 applied to spheres).
///
/// # Errors
///
/// Propagates layout-construction errors.
pub fn measure_sstree(data: &Dataset, topo: &Topology, queries: &[QueryBall]) -> Result<Vec<u64>> {
    let ids: Vec<u32> = (0..data.len() as u32).collect();
    let layout = SsLeafLayout::build(data, ids, topo, data.len() as f64)?;
    Ok(queries
        .iter()
        .map(|q| layout.count_intersections(&q.center, q.radius))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_rand::seeded as seed_rng;
    use hdidx_rand::Rng;

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seed_rng(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    fn balls(data: &Dataset, q: usize, radius: f64) -> Vec<QueryBall> {
        (0..q)
            .map(|i| QueryBall::new(data.point(i * 11).to_vec(), radius))
            .collect()
    }

    #[test]
    fn full_sample_is_exact() {
        let data = random_dataset(3000, 8, 201);
        let topo = Topology::from_capacities(8, 3000, 20, 8).unwrap();
        let qs = balls(&data, 25, 0.4);
        let measured = measure_sstree(&data, &topo, &qs).unwrap();
        let p = predict_basic_sstree(
            &data,
            &topo,
            &qs,
            &BasicParams {
                zeta: 1.0,
                compensate: true,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(p.per_query, measured);
    }

    #[test]
    fn compensation_moves_prediction_toward_measurement() {
        let data = random_dataset(5000, 8, 202);
        let topo = Topology::from_capacities(8, 5000, 20, 8).unwrap();
        let qs = balls(&data, 30, 0.35);
        let measured: f64 = measure_sstree(&data, &topo, &qs)
            .unwrap()
            .iter()
            .sum::<u64>() as f64
            / 30.0;
        let run = |compensate| {
            predict_basic_sstree(
                &data,
                &topo,
                &qs,
                &BasicParams {
                    zeta: 0.3,
                    compensate,
                    seed: 2,
                },
            )
            .unwrap()
            .avg_leaf_accesses()
        };
        let raw = run(false);
        let comp = run(true);
        assert!(comp >= raw, "growing spheres cannot reduce intersections");
        assert!(
            (comp - measured).abs() <= (raw - measured).abs() + 0.5,
            "comp {comp}, raw {raw}, measured {measured}"
        );
    }

    #[test]
    fn moderate_sample_is_reasonably_accurate() {
        let data = random_dataset(6000, 6, 203);
        let topo = Topology::from_capacities(6, 6000, 25, 10).unwrap();
        let qs = balls(&data, 40, 0.3);
        let measured: f64 = measure_sstree(&data, &topo, &qs)
            .unwrap()
            .iter()
            .sum::<u64>() as f64
            / 40.0;
        let p = predict_basic_sstree(
            &data,
            &topo,
            &qs,
            &BasicParams {
                zeta: 0.4,
                compensate: true,
                seed: 3,
            },
        )
        .unwrap();
        let err = (p.avg_leaf_accesses() - measured).abs() / measured;
        assert!(err < 0.2, "error {err:.3}");
    }

    #[test]
    fn domain_checks() {
        let data = random_dataset(100, 4, 204);
        let topo = Topology::from_capacities(4, 100, 10, 5).unwrap();
        let bad_topo = Topology::from_capacities(4, 99, 10, 5).unwrap();
        let qs = balls(&data, 2, 0.2);
        assert!(predict_basic_sstree(
            &data,
            &bad_topo,
            &qs,
            &BasicParams {
                zeta: 0.5,
                compensate: true,
                seed: 0
            }
        )
        .is_err());
        assert!(predict_basic_sstree(
            &data,
            &topo,
            &qs,
            &BasicParams {
                zeta: 0.05,
                compensate: true,
                seed: 0
            }
        )
        .is_err());
    }
}
