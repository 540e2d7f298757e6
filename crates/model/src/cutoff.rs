//! The §4.3 **cutoff index tree**: predict the lower trees from the grown
//! upper-leaf geometry alone, assuming uniformity *within* each upper leaf.
//!
//! For every grown upper-tree leaf box the original bulk loader's splits
//! are replayed geometrically: under in-page uniformity the maximum-variance
//! dimension is the dimension of largest extent, and a rank split at
//! `f_left · capacity` of `n` points falls at the proportional position
//! along that extent. Recursing to the data-page level yields a synthetic
//! full-scale page layout at **zero additional I/O** beyond the initial
//! scan — the cheapest and least accurate of the paper's predictors.

use crate::predictor::Predictor;
use crate::scan::faulted_scan;
use crate::upper::{build_upper_phase_from_sample, draw_upper_sample};
use crate::{Prediction, QueryBall};
use hdidx_core::{Dataset, HyperRect, LeafSoup, Result};
use hdidx_faults::FaultConfig;
use hdidx_pool::Pool;
use hdidx_vamsplit::topology::Topology;

/// Parameters of the cutoff predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutoffParams {
    /// Memory budget in points (the paper's `M`).
    pub m: usize,
    /// Height of the upper tree.
    pub h_upper: usize,
    /// RNG seed for the upper sample.
    pub seed: u64,
}

/// Extra outputs of the cutoff predictor beyond the generic
/// [`Prediction`].
#[derive(Debug, Clone)]
pub struct CutoffPrediction {
    /// The prediction (per-query counts, I/O, page count).
    pub prediction: Prediction,
    /// Upper-tree sampling rate actually used.
    pub sigma_upper: f64,
    /// Number of upper-tree leaf pages.
    pub k: usize,
}

/// The §4.3 cutoff predictor as a reusable [`Predictor`].
#[derive(Debug, Clone, Copy)]
pub struct Cutoff {
    params: CutoffParams,
    faults: Option<FaultConfig>,
}

impl Cutoff {
    /// Wraps the parameters into a predictor instance (no fault
    /// injection).
    pub fn new(params: CutoffParams) -> Cutoff {
        Cutoff {
            params,
            faults: None,
        }
    }

    /// Attaches (or clears) a fault-injection configuration: the `q`
    /// query-point reads and the one dataset scan then run through a
    /// seeded fault plan, the sampled points on scan chunks whose retries
    /// exhaust are dropped, and the upper tree is built from the surviving
    /// sample at the correspondingly reduced rate (reported in
    /// [`Prediction::degraded`]).
    #[must_use]
    pub fn with_faults(mut self, faults: Option<FaultConfig>) -> Cutoff {
        self.faults = faults;
        self
    }

    /// The wrapped parameters.
    pub fn params(&self) -> &CutoffParams {
        &self.params
    }

    /// Runs the predictor, returning the cutoff-specific outputs
    /// (`sigma_upper`, `k`) alongside the generic [`Prediction`].
    ///
    /// I/O charged (Eq. 3): `q` random reads for the query points plus one
    /// sequential scan of the dataset (which also collects the `M`
    /// sample).
    ///
    /// # Errors
    ///
    /// Propagates upper-phase errors (infeasible `h_upper`, sample too
    /// small).
    pub fn run(
        &self,
        data: &Dataset,
        topo: &Topology,
        queries: &[QueryBall],
    ) -> Result<CutoffPrediction> {
        let params = &self.params;
        crate::validate_balls(queries, topo.dim())?;
        // Draw the upper sample, then replay the Eq. 3 bill through the
        // simulated disk: `q` random query-point reads and the chunked
        // dataset scan. The upper tree is built from the sampled points
        // that survived, at the proportionally reduced sampling rate (with
        // no lost chunk, both are exactly `build_upper_phase`'s).
        let (sample, sigma_full) = draw_upper_sample(data, topo, params.m, params.seed)?;
        let scan_pages = (topo.n() as u64).div_ceil(topo.cap_data() as u64);
        let (survivors, io, degraded) =
            faulted_scan(self.faults, scan_pages, queries.len() as u64)?
                .filter_sample(sample, topo.cap_data() as u64)?;
        let up = build_upper_phase_from_sample(
            data,
            topo,
            survivors,
            sigma_full * degraded.coverage_fraction,
            params.h_upper,
        )?;
        // Synthesize the full-scale data-page layout below every grown leaf.
        let mut pages: Vec<HyperRect> = Vec::new();
        for (i, rect) in up.grown_leaves.iter().enumerate() {
            // Unbiased estimate of the full-scale point count below this leaf:
            // its sample count scaled back by the sampling rate.
            let n_full = (up.leaf_samples[i].len() as f64 / up.sigma_upper).max(2.0);
            synthesize_pages(rect, up.leaf_level, n_full, topo, &mut pages);
        }
        // SoA soup + blocked batch counting (byte-identical to the scalar
        // per-rect path).
        let soup = LeafSoup::from_rects(topo.dim(), &pages)?;
        let per_query = soup.count_batch(&Pool::serial(), queries, |q| {
            (q.center.as_slice(), q.radius)
        });
        Ok(CutoffPrediction {
            prediction: Prediction {
                per_query,
                io,
                predicted_leaf_pages: pages.len(),
                degraded,
            },
            sigma_upper: up.sigma_upper,
            k: up.k(),
        })
    }
}

impl Predictor for Cutoff {
    fn name(&self) -> &str {
        "cutoff"
    }

    fn predict(
        &self,
        data: &Dataset,
        topo: &Topology,
        queries: &[QueryBall],
    ) -> Result<Prediction> {
        Ok(self.run(data, topo, queries)?.prediction)
    }
}

/// Replays the bulk loader's splits geometrically inside `rect` (full-scale
/// point count `n_full` at full-tree `level`), pushing the synthetic
/// data-page boxes.
///
/// Also the degradation fallback of the resampled predictor: an upper leaf
/// whose second-sample I/O ultimately fails is extrapolated with exactly
/// this cutoff geometry instead of its lost resample.
pub(crate) fn synthesize_pages(
    rect: &HyperRect,
    level: usize,
    n_full: f64,
    topo: &Topology,
    out: &mut Vec<HyperRect>,
) {
    if level == 1 {
        out.push(rect.clone());
        return;
    }
    let fanout = topo.fanout_for(level, n_full);
    split_box(rect, level, fanout, n_full, topo, out);
}

fn split_box(
    rect: &HyperRect,
    level: usize,
    fanout: usize,
    n_full: f64,
    topo: &Topology,
    out: &mut Vec<HyperRect>,
) {
    if fanout <= 1 {
        synthesize_pages(rect, level - 1, n_full, topo, out);
        return;
    }
    let child_cap = topo.subtree_capacity(level - 1);
    let f_left = fanout / 2;
    let left_full = (f_left as f64) * child_cap;
    let right_full = (n_full - left_full).max(1.0);
    // Under in-page uniformity the max-variance dimension is the longest
    // one, and the rank boundary sits at the proportional position.
    let dim = rect.longest_dim();
    let at = rect.lo()[dim] as f64 + rect.extent(dim) * (left_full / n_full);
    let (left, right) = rect.split_at(dim, at as f32);
    split_box(&left, level, f_left, left_full, topo, out);
    split_box(&right, level, fanout - f_left, right_full, topo, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_diskio::IoStats;
    use hdidx_rand::seeded;
    use hdidx_rand::Rng;

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    #[test]
    fn synthesized_page_count_matches_topology() {
        let data = random_dataset(5000, 4, 81);
        let topo = Topology::from_capacities(4, 5000, 10, 5).unwrap();
        let p = Cutoff::new(CutoffParams {
            m: 1000,
            h_upper: 2,
            seed: 1,
        })
        .run(&data, &topo, &[])
        .unwrap();
        let expect = topo.leaf_pages() as usize;
        let got = p.prediction.predicted_leaf_pages;
        // The ceil arithmetic may deviate by a few pages at leaf-capacity
        // boundaries, but the count must be essentially the full layout.
        assert!(
            (got as f64 - expect as f64).abs() / expect as f64 <= 0.05,
            "synthesized {got} vs topology {expect}"
        );
    }

    #[test]
    fn synthetic_pages_tile_the_upper_leaf() {
        // On uniform data, the synthesized pages partition each grown
        // upper leaf: total volume is preserved and pages are disjoint
        // along each split.
        let rect = HyperRect::new(vec![0.0, 0.0], vec![8.0, 2.0]).unwrap();
        let topo = Topology::from_capacities(2, 1000, 10, 4).unwrap();
        let mut pages = Vec::new();
        synthesize_pages(&rect, 2, 40.0, &topo, &mut pages);
        // 40 points at level 2 -> fanout ceil(40/10) = 4 pages.
        assert_eq!(pages.len(), 4);
        let total: f64 = pages.iter().map(|p| p.volume()).sum();
        assert!((total - rect.volume()).abs() < 1e-6);
        // Splits happen along the longest dimension (x).
        for p in &pages {
            assert!((p.extent(1) - 2.0).abs() < 1e-6);
            assert!((p.extent(0) - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn uneven_counts_split_proportionally() {
        let rect = HyperRect::new(vec![0.0], vec![10.0]).unwrap();
        let topo = Topology::from_capacities(1, 1000, 10, 4).unwrap();
        let mut pages = Vec::new();
        // 25 points -> fanout 3: left child takes 10 of 25 = 40%.
        synthesize_pages(&rect, 2, 25.0, &topo, &mut pages);
        assert_eq!(pages.len(), 3);
        assert!((pages[0].extent(0) - 4.0).abs() < 1e-5);
    }

    #[test]
    fn predictions_are_monotone_in_radius() {
        let data = random_dataset(3000, 4, 82);
        let topo = Topology::from_capacities(4, 3000, 10, 5).unwrap();
        let center = data.point(5).to_vec();
        let queries = vec![
            QueryBall::new(center.clone(), 0.05),
            QueryBall::new(center.clone(), 0.2),
            QueryBall::new(center, 0.8),
        ];
        let p = Cutoff::new(CutoffParams {
            m: 600,
            h_upper: 2,
            seed: 2,
        })
        .run(&data, &topo, &queries)
        .unwrap();
        let pq = &p.prediction.per_query;
        assert!(pq[0] <= pq[1] && pq[1] <= pq[2], "{pq:?}");
    }

    #[test]
    fn zero_rate_faults_bit_identical_and_pressure_degrades() {
        use hdidx_faults::FaultConfig;
        let data = random_dataset(3000, 4, 84);
        let topo = Topology::from_capacities(4, 3000, 10, 5).unwrap();
        let queries: Vec<QueryBall> = (0..9)
            .map(|i| QueryBall::new(data.point(i * 3).to_vec(), 0.2))
            .collect();
        let params = CutoffParams {
            m: 600,
            h_upper: 2,
            seed: 4,
        };
        let plain = Cutoff::new(params).run(&data, &topo, &queries).unwrap();
        let zero = Cutoff::new(params)
            .with_faults(Some(FaultConfig::disabled(6)))
            .run(&data, &topo, &queries)
            .unwrap();
        assert_eq!(zero.prediction.per_query, plain.prediction.per_query);
        assert_eq!(zero.prediction.io, plain.prediction.io);
        assert_eq!(zero.sigma_upper, plain.sigma_upper);
        assert_eq!(zero.prediction.degraded, plain.prediction.degraded);
        // Under pressure the survivors carry the estimate at a reduced
        // sampling rate, and the bill carries the retries.
        let hurt = (0..200u64)
            .find_map(|s| {
                let fcfg = FaultConfig::disabled(s).with_rate_ppm(560_000).unwrap();
                Cutoff::new(params)
                    .with_faults(Some(fcfg))
                    .run(&data, &topo, &queries)
                    .ok()
                    .filter(|p| p.prediction.degraded.is_degraded())
            })
            .expect("some seed degrades without destroying the sample");
        assert!(hurt.sigma_upper < plain.sigma_upper);
        assert!(hurt.prediction.io.retries > 0);
    }

    #[test]
    fn io_is_queries_plus_scan_and_independent_of_h() {
        let data = random_dataset(3000, 4, 83);
        let topo = Topology::from_capacities(4, 3000, 10, 5).unwrap();
        let queries: Vec<QueryBall> = (0..7)
            .map(|i| QueryBall::new(data.point(i).to_vec(), 0.1))
            .collect();
        let mut ios = Vec::new();
        for h in [2, 3] {
            let p = Cutoff::new(CutoffParams {
                m: 600,
                h_upper: h,
                seed: 3,
            })
            .run(&data, &topo, &queries)
            .unwrap();
            ios.push(p.prediction.io);
        }
        assert_eq!(ios[0], ios[1]); // paper Table 3: cutoff I/O constant in h
        let scan = 3000u64.div_ceil(10);
        assert_eq!(ios[0], IoStats::random(7) + IoStats::run(scan));
    }
}
