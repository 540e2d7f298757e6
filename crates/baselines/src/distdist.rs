//! The data-partitioning locally parametric baseline (§2.3): a cost model
//! in the style of Ciaccia, Patella & Zezula's M-tree analysis, driven by
//! the **global distance distribution** of the dataset.
//!
//! For ball-shaped pages (M-tree/SS-tree regions) with pivot `p` and
//! covering radius `r_c`, a query ball `(q, r_q)` touches the page iff
//! `d(q, p) ≤ r_c + r_q`. If query points are distributed like data
//! points, that probability is `F(r_c + r_q)` where `F` is the distance
//! distribution between random point pairs. Expected accesses are the sum
//! of that probability over all pages.
//!
//! The paper excludes this category from its Table 4 because it is
//! "restricted to other index structures (like the M-tree)" — which this
//! implementation demonstrates: it predicts sphere-page layouts decently
//! but has no handle on rectangle pages.

use hdidx_core::{Dataset, Error, Result};
use hdidx_rand::{seeded, Rng};
use hdidx_vamsplit::sstree::Sphere;

/// An empirical distance distribution `F(x) = P(d(A, B) <= x)` estimated
/// from sampled point pairs.
#[derive(Debug, Clone)]
pub struct DistanceDistribution {
    /// Sorted sampled pairwise distances.
    samples: Vec<f64>,
}

impl DistanceDistribution {
    /// Estimates the distribution from `pairs` sampled point pairs.
    ///
    /// # Errors
    ///
    /// Rejects datasets with fewer than 2 points and `pairs == 0`.
    pub fn estimate(data: &Dataset, pairs: usize, seed: u64) -> Result<DistanceDistribution> {
        if data.len() < 2 {
            return Err(Error::EmptyInput("dataset for distance distribution"));
        }
        if pairs == 0 {
            return Err(Error::invalid("pairs", "need at least one pair"));
        }
        let mut rng = seeded(seed);
        let mut samples = Vec::with_capacity(pairs);
        let n = data.len();
        for _ in 0..pairs {
            let (a, b) = random_pair(&mut rng, n);
            samples.push(data.dist2_to(a, data.point(b)).sqrt());
        }
        samples.sort_by(f64::total_cmp);
        Ok(DistanceDistribution { samples })
    }

    /// `F(x)`: fraction of sampled pair distances at most `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let idx = self.samples.partition_point(|&d| d <= x);
        idx as f64 / self.samples.len() as f64
    }

    /// Median pairwise distance (scale summary).
    pub fn median(&self) -> f64 {
        self.samples[self.samples.len() / 2]
    }
}

/// Predicted page accesses for a query radius `r_q` against ball pages:
/// `Σ_pages F(r_cov + r_q)` (clamped to at least one page).
pub fn predict_ball_pages(dist: &DistanceDistribution, pages: &[Sphere], r_q: f64) -> f64 {
    let sum: f64 = pages.iter().map(|s| dist.cdf(s.radius + r_q)).sum();
    sum.max(1.0)
}

/// Two distinct ids from `0..n` (`n >= 2`), the smaller first: Floyd's
/// algorithm for k = 2. It consumes the same two draws as
/// `sample_without_replacement(rng, n, 2)` and returns the same ids,
/// without that function's `n`-bit set, which would cost `O(n)` per pair.
fn random_pair<R: Rng>(rng: &mut R, n: usize) -> (usize, usize) {
    let a = rng.gen_range(0..=n - 2);
    let b = rng.gen_range(0..=n - 1);
    let b = if b == a { n - 1 } else { b };
    (a.min(b), a.max(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_rand::seeded as seed_rng;
    use hdidx_rand::Rng;
    use hdidx_vamsplit::sstree::SsLeafLayout;
    use hdidx_vamsplit::topology::Topology;

    fn uniform_data(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seed_rng(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    #[test]
    fn random_pair_is_floyd_for_two() {
        for n in [2usize, 3, 5, 64, 1_000, 100_000] {
            for seed in 0..300u64 {
                let (mut a, mut b) = (seed_rng(seed), seed_rng(seed));
                let (i, j) = random_pair(&mut a, n);
                let floyd = hdidx_rand::sample_without_replacement(&mut b, n, 2);
                assert_eq!([i as u32, j as u32], floyd[..], "n = {n}, seed = {seed}");
                assert_eq!(a, b, "stream position, n = {n}, seed = {seed}");
            }
        }
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let d = uniform_data(2_000, 4, 401);
        let dist = DistanceDistribution::estimate(&d, 5_000, 1).unwrap();
        assert_eq!(dist.cdf(-1.0), 0.0);
        assert_eq!(dist.cdf(1e9), 1.0);
        let m = dist.median();
        assert!(m > 0.0);
        assert!((dist.cdf(m) - 0.5).abs() < 0.05);
        assert!(dist.cdf(0.5 * m) <= dist.cdf(m));
    }

    #[test]
    fn predicts_sphere_layout_accesses_reasonably() {
        // On its home turf (ball pages, data-distributed queries) the
        // model should land within a factor ~2 of truth.
        let d = uniform_data(5_000, 6, 402);
        let topo = Topology::from_capacities(6, 5_000, 25, 10).unwrap();
        let ids: Vec<u32> = (0..5_000).collect();
        let layout = SsLeafLayout::build(&d, ids, &topo, 5_000.0).unwrap();
        let dist = DistanceDistribution::estimate(&d, 10_000, 2).unwrap();
        let r_q = 0.25;
        let mut measured = 0.0f64;
        let q_count = 50;
        for i in 0..q_count {
            measured += layout.count_intersections(d.point(i * 31), r_q) as f64;
        }
        measured /= q_count as f64;
        let predicted = predict_ball_pages(&dist, &layout.pages, r_q);
        let ratio = predicted / measured;
        assert!(
            (0.5..2.0).contains(&ratio),
            "predicted {predicted:.1}, measured {measured:.1}"
        );
    }

    #[test]
    fn validation() {
        let one = Dataset::from_flat(2, vec![0.0, 0.0]).unwrap();
        assert!(DistanceDistribution::estimate(&one, 10, 0).is_err());
        let d = uniform_data(10, 2, 403);
        assert!(DistanceDistribution::estimate(&d, 0, 0).is_err());
    }

    #[test]
    fn accesses_grow_with_radius() {
        let d = uniform_data(3_000, 4, 404);
        let topo = Topology::from_capacities(4, 3_000, 20, 8).unwrap();
        let ids: Vec<u32> = (0..3_000).collect();
        let layout = SsLeafLayout::build(&d, ids, &topo, 3_000.0).unwrap();
        let dist = DistanceDistribution::estimate(&d, 5_000, 3).unwrap();
        let small = predict_ball_pages(&dist, &layout.pages, 0.05);
        let large = predict_ball_pages(&dist, &layout.pages, 0.8);
        assert!(small < large);
        assert!(large <= layout.pages.len() as f64);
    }
}
