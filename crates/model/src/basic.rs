//! The §3 basic model: unrestricted memory, one sample, one mini-index.
//!
//! Sample a fraction `ζ` of the data, bulk-load the mini-index with the
//! full tree's topology (page capacities implicitly scale to `C·ζ`), grow
//! every leaf page by the Theorem-1 compensation factor `δ(C_eff,data, ζ)`,
//! and predict each query's page accesses as the number of grown leaves its
//! query sphere intersects. This is the model behind Figure 2, where the
//! compensated and uncompensated variants are compared across sample sizes.

use crate::compensation::growth_factor;
use crate::predictor::Predictor;
use crate::scan::faulted_scan;
use crate::{Prediction, QueryBall};
use hdidx_core::{Dataset, Error, LeafSoup, Result};
use hdidx_faults::FaultConfig;
use hdidx_pool::Pool;
use hdidx_rand::{bernoulli_sample, seeded};
use hdidx_vamsplit::bulkload::bulk_load_scaled;
use hdidx_vamsplit::topology::Topology;

/// Parameters of the basic model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BasicParams {
    /// Sampling fraction `ζ ∈ (1/C, 1]`.
    pub zeta: f64,
    /// Whether to apply the Theorem-1 growth (Figure 2 compares both).
    pub compensate: bool,
    /// RNG seed for the Bernoulli sample.
    pub seed: u64,
}

/// The §3 basic model as a reusable [`Predictor`].
#[derive(Debug, Clone, Copy)]
pub struct Basic {
    params: BasicParams,
    faults: Option<FaultConfig>,
}

impl Basic {
    /// Wraps the parameters into a predictor instance (no fault
    /// injection).
    pub fn new(params: BasicParams) -> Basic {
        Basic {
            params,
            faults: None,
        }
    }

    /// Attaches (or clears) a fault-injection configuration: the model's
    /// one dataset scan then runs through a seeded fault plan in buffered
    /// chunks, and the sampled points living on chunks whose retries
    /// exhaust are dropped from the mini-index (reported in
    /// [`Prediction::degraded`]).
    #[must_use]
    pub fn with_faults(mut self, faults: Option<FaultConfig>) -> Basic {
        self.faults = faults;
        self
    }

    /// The wrapped parameters.
    pub fn params(&self) -> &BasicParams {
        &self.params
    }

    /// Runs the basic model (same as the trait's `predict`; kept inherent
    /// for symmetry with [`crate::Cutoff::run`] and
    /// [`crate::Resampled::run`]).
    ///
    /// The reported I/O is one sequential scan of the dataset (the sample
    /// is collected during a scan); memory is assumed unlimited (§3).
    ///
    /// # Errors
    ///
    /// Propagates compensation-domain violations (`ζ ≤ 1/C`), topology and
    /// sampling errors. A sample that comes back empty is reported as
    /// [`Error::EmptyInput`].
    pub fn run(
        &self,
        data: &Dataset,
        topo: &Topology,
        queries: &[QueryBall],
    ) -> Result<Prediction> {
        predict_basic_impl(data, topo, queries, &self.params, self.faults)
    }
}

impl Predictor for Basic {
    fn name(&self) -> &str {
        "basic"
    }

    fn predict(
        &self,
        data: &Dataset,
        topo: &Topology,
        queries: &[QueryBall],
    ) -> Result<Prediction> {
        self.run(data, topo, queries)
    }
}

fn predict_basic_impl(
    data: &Dataset,
    topo: &Topology,
    queries: &[QueryBall],
    params: &BasicParams,
    faults: Option<FaultConfig>,
) -> Result<Prediction> {
    let n = data.len();
    if n != topo.n() {
        return Err(Error::invalid(
            "data",
            format!("topology is for {} points, data has {n}", topo.n()),
        ));
    }
    crate::validate_balls(queries, topo.dim())?;
    // Validate ζ against the compensation domain up front even when not
    // compensating — a sample below 1/C leaves pages with ≤ 1 point and the
    // model is meaningless either way (§3.3).
    let factor = growth_factor(topo.cap_data() as f64, params.zeta)?;
    let mut rng = seeded(params.seed);
    let sample = bernoulli_sample(&mut rng, n, params.zeta);
    if sample.is_empty() {
        return Err(Error::EmptyInput("Bernoulli sample"));
    }
    // The one dataset scan, replayed through the simulated disk in
    // buffered chunks. Under faults the sampled points that lived on
    // chunks whose retries exhausted are dropped; without faults (or at a
    // zero rate) the chunks bill exactly `IoStats::run` and every point
    // survives.
    let scan_pages = (n as u64).div_ceil(topo.cap_data() as u64);
    let (sample, io, degraded) =
        faulted_scan(faults, scan_pages, 0)?.filter_sample(sample, topo.cap_data() as u64)?;
    let mini = bulk_load_scaled(data, sample, topo, n as f64)?;
    let applied = if params.compensate { factor } else { 1.0 };
    let mut pages = Vec::with_capacity(mini.num_leaves());
    for leaf in mini.leaves() {
        pages.push(leaf.rect.scaled_about_center(applied)?);
    }
    // Flatten the grown pages into the SoA soup and count all query
    // spheres through the blocked batch kernel (byte-identical to the
    // per-rect scalar path).
    let soup = LeafSoup::from_rects(topo.dim(), &pages)?;
    let per_query = soup.count_batch(&Pool::serial(), queries, |q| {
        (q.center.as_slice(), q.radius)
    });
    Ok(Prediction {
        per_query,
        io,
        predicted_leaf_pages: pages.len(),
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_diskio::IoStats;
    use hdidx_rand::seeded as seed_rng;
    use hdidx_rand::Rng;
    use hdidx_vamsplit::bulkload::bulk_load;
    use hdidx_vamsplit::query::knn;

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seed_rng(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    fn workload(data: &Dataset, tree_topo: &Topology, q: usize, k: usize) -> (Vec<QueryBall>, f64) {
        // Ground truth: run k-NN on the real full index.
        let tree = bulk_load(data, tree_topo).unwrap();
        let mut balls = Vec::new();
        let mut total = 0u64;
        for i in 0..q {
            let center = data.point(i * 7).to_vec();
            let res = knn(&tree, data, &center, k).unwrap();
            total += res.stats.leaf_accesses;
            balls.push(QueryBall::new(center, res.radius()));
        }
        (balls, total as f64 / q as f64)
    }

    #[test]
    fn full_sample_is_nearly_exact() {
        let data = random_dataset(3000, 6, 71);
        let topo = Topology::from_capacities(6, 3000, 20, 8).unwrap();
        let (balls, measured) = workload(&data, &topo, 30, 11);
        let p = Basic::new(BasicParams {
            zeta: 1.0,
            compensate: true,
            seed: 1,
        })
        .run(&data, &topo, &balls)
        .unwrap();
        // ζ = 1 rebuilds the identical tree: prediction == measurement.
        assert!(
            (p.avg_leaf_accesses() - measured).abs() < 1e-9,
            "{} vs {measured}",
            p.avg_leaf_accesses()
        );
    }

    #[test]
    fn compensation_reduces_underestimation() {
        let data = random_dataset(4000, 6, 72);
        let topo = Topology::from_capacities(6, 4000, 20, 8).unwrap();
        let (balls, measured) = workload(&data, &topo, 40, 11);
        let zeta = 0.3;
        let raw = Basic::new(BasicParams {
            zeta,
            compensate: false,
            seed: 2,
        })
        .run(&data, &topo, &balls)
        .unwrap();
        let comp = Basic::new(BasicParams {
            zeta,
            compensate: true,
            seed: 2,
        })
        .run(&data, &topo, &balls)
        .unwrap();
        // Shrunken pages under-count; growing them must increase the
        // prediction and move it toward the measurement (Figure 2).
        assert!(comp.avg_leaf_accesses() >= raw.avg_leaf_accesses());
        let raw_err = (raw.avg_leaf_accesses() - measured).abs();
        let comp_err = (comp.avg_leaf_accesses() - measured).abs();
        assert!(
            comp_err <= raw_err + 1.0,
            "comp {comp_err} vs raw {raw_err} (measured {measured})"
        );
    }

    #[test]
    fn io_is_one_scan() {
        let data = random_dataset(1000, 4, 73);
        let topo = Topology::from_capacities(4, 1000, 10, 5).unwrap();
        let p = Basic::new(BasicParams {
            zeta: 0.5,
            compensate: true,
            seed: 3,
        })
        .run(&data, &topo, &[])
        .unwrap();
        assert_eq!(p.io, IoStats::run(100));
        assert!(p.predicted_leaf_pages > 0);
    }

    #[test]
    fn zero_rate_faults_bit_identical_and_pressure_degrades() {
        use hdidx_faults::FaultConfig;
        let data = random_dataset(3000, 6, 75);
        let topo = Topology::from_capacities(6, 3000, 20, 8).unwrap();
        let (balls, _) = workload(&data, &topo, 20, 11);
        let params = BasicParams {
            zeta: 0.4,
            compensate: true,
            seed: 5,
        };
        let plain = Basic::new(params).run(&data, &topo, &balls).unwrap();
        let zero = Basic::new(params)
            .with_faults(Some(FaultConfig::disabled(3)))
            .run(&data, &topo, &balls)
            .unwrap();
        assert_eq!(zero.per_query, plain.per_query);
        assert_eq!(zero.io, plain.io);
        assert_eq!(zero.degraded, plain.degraded);
        // Heavy pressure: find a seed that loses some (not all) chunks —
        // the prediction survives on the remaining sample and says so.
        let hurt = (0..200u64)
            .find_map(|s| {
                let fcfg = FaultConfig::disabled(s).with_rate_ppm(560_000).unwrap();
                Basic::new(params)
                    .with_faults(Some(fcfg))
                    .run(&data, &topo, &balls)
                    .ok()
                    .filter(|p| p.degraded.is_degraded())
            })
            .expect("some seed degrades without destroying the sample");
        assert!(hurt.degraded.coverage_fraction < 1.0);
        assert!(hurt.io.retries > 0);
        assert!(!hurt.per_query.is_empty());
    }

    #[test]
    fn zeta_domain_enforced() {
        let data = random_dataset(1000, 4, 74);
        let topo = Topology::from_capacities(4, 1000, 10, 5).unwrap();
        for bad in [0.0, -0.1, 1.5, 0.05 /* <= 1/C = 0.1 */] {
            let r = Basic::new(BasicParams {
                zeta: bad,
                compensate: true,
                seed: 0,
            })
            .run(&data, &topo, &[]);
            assert!(r.is_err(), "zeta = {bad} accepted");
        }
    }
}
