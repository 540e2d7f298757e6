//! The shared first phase of the restricted-memory predictors: the §4.2
//! **upper tree**.
//!
//! An exactly-`M` uniform sample is drawn (the paper reads it during the
//! same scan that determines the query spheres), the top `h_upper` levels
//! of the index are bulk-loaded on it with the full tree's topology, and
//! each upper-tree leaf page is grown by the Theorem-1 compensation factor
//! `δ(pts(height − h_upper + 1), σ_upper)`.

use crate::compensation::growth_factor;
use hdidx_core::{Dataset, Error, HyperRect, LeafSoup, Result};
use hdidx_rand::{sample_without_replacement, seeded};
use hdidx_vamsplit::bulkload::bulk_load_upper;
use hdidx_vamsplit::topology::Topology;
use hdidx_vamsplit::tree::RTree;

/// The built upper tree plus everything the second phase needs.
#[derive(Debug, Clone)]
pub struct UpperPhase {
    /// The upper tree (leaves at level `height - h_upper + 1`).
    pub tree: RTree,
    /// Grown leaf boxes, in the tree's leaf order.
    pub grown_leaves: Vec<HyperRect>,
    /// Sampled point ids stored under each leaf (same order).
    pub leaf_samples: Vec<Vec<u32>>,
    /// Upper-tree sampling rate `σ_upper = min(M/N, 1)`.
    pub sigma_upper: f64,
    /// Height of the upper tree.
    pub h_upper: usize,
    /// Full-tree level of the upper leaves.
    pub leaf_level: usize,
}

impl UpperPhase {
    /// Number of upper-tree leaf pages (the paper's `k`).
    pub fn k(&self) -> usize {
        self.grown_leaves.len()
    }

    /// Flattens the grown leaves into a [`LeafSoup`] for the blocked
    /// counting kernels (batch prediction, query serving).
    ///
    /// # Errors
    ///
    /// Propagates [`LeafSoup::from_rects`] shape errors.
    pub fn grown_soup(&self) -> Result<LeafSoup> {
        let dim = self.grown_leaves.first().map_or(1, HyperRect::dim);
        LeafSoup::from_rects(dim, &self.grown_leaves)
    }
}

/// Draws the `M`-point sample and builds the grown upper tree.
///
/// # Errors
///
/// Rejects `m == 0`, infeasible `h_upper`, and growth-domain violations
/// (an upper leaf whose expected occupancy `pts(L)·σ_upper` does not exceed
/// one point — the §4.5 feasibility bound).
pub fn build_upper_phase(
    data: &Dataset,
    topo: &Topology,
    m: usize,
    h_upper: usize,
    seed: u64,
) -> Result<UpperPhase> {
    let (sample, sigma_upper) = draw_upper_sample(data, topo, m, seed)?;
    build_upper_phase_from_sample(data, topo, sample, sigma_upper, h_upper)
}

/// Draws [`build_upper_phase`]'s exactly-`M` sample and its rate
/// `σ_upper = min(M/N, 1)`, without building anything.
///
/// # Errors
///
/// Rejects `m == 0` and a `data` whose size does not match `topo`.
pub(crate) fn draw_upper_sample(
    data: &Dataset,
    topo: &Topology,
    m: usize,
    seed: u64,
) -> Result<(Vec<u32>, f64)> {
    if m == 0 {
        return Err(Error::invalid("m", "memory must hold at least one point"));
    }
    let n = data.len();
    if n != topo.n() {
        return Err(Error::invalid(
            "data",
            format!("topology is for {} points, data has {n}", topo.n()),
        ));
    }
    let mut rng = seeded(seed);
    let sample = sample_without_replacement(&mut rng, n, m);
    Ok((sample, (m as f64 / n as f64).min(1.0)))
}

/// Builds the grown upper tree from an already-drawn sample at an
/// already-determined sampling rate.
///
/// This is [`build_upper_phase`] minus the draw (`draw_upper_sample`);
/// fault-aware predictors use it to build from the subset of the sample
/// that survived a fault plan, passing the correspondingly reduced
/// `sigma_upper`. With the full
/// sample and `σ = min(M/N, 1)` it is exactly `build_upper_phase`.
///
/// # Errors
///
/// Rejects infeasible `h_upper` and growth-domain violations (see
/// [`build_upper_phase`]); the sample must be non-empty.
pub fn build_upper_phase_from_sample(
    data: &Dataset,
    topo: &Topology,
    sample: Vec<u32>,
    sigma_upper: f64,
    h_upper: usize,
) -> Result<UpperPhase> {
    if sample.is_empty() {
        return Err(Error::EmptyInput("upper-tree sample"));
    }
    let tree = bulk_load_upper(data, sample, topo, h_upper)?;
    let leaf_level = topo.upper_leaf_level(h_upper);
    // Growth factor: the full-scale page at the cut level holds pts(L)
    // points; the sample page holds a σ_upper fraction of them.
    let factor = if sigma_upper >= 1.0 {
        1.0
    } else {
        growth_factor(topo.pts(leaf_level), sigma_upper)?
    };
    let mut grown_leaves = Vec::new();
    let mut leaf_samples = Vec::new();
    for leaf in tree.leaves() {
        grown_leaves.push(leaf.rect.scaled_about_center(factor)?);
        leaf_samples.push(tree.leaf_entries(leaf).to_vec());
    }
    Ok(UpperPhase {
        grown_leaves,
        leaf_samples,
        sigma_upper,
        h_upper,
        leaf_level,
        tree,
    })
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

    #[test]
    fn upper_phase_shape_and_growth() {
        let data = random_dataset(5000, 4, 61);
        let topo = Topology::from_capacities(4, 5000, 10, 5).unwrap();
        assert_eq!(topo.height(), 5);
        let up = build_upper_phase(&data, &topo, 500, 2, 1).unwrap();
        assert_eq!(up.h_upper, 2);
        assert_eq!(up.leaf_level, 4);
        assert_eq!(up.k(), topo.upper_leaf_count(2) as usize);
        assert!((up.sigma_upper - 0.1).abs() < 1e-12);
        // Grown boxes strictly contain the raw sample boxes.
        for (leaf, grown) in up.tree.leaves().zip(&up.grown_leaves) {
            for j in 0..4 {
                assert!(grown.extent(j) >= leaf.rect.extent(j) - 1e-6);
            }
            assert!(grown.log2_volume() >= leaf.rect.log2_volume());
        }
        // Every sampled point is in exactly one leaf's sample list.
        let total: usize = up.leaf_samples.iter().map(Vec::len).sum();
        assert_eq!(total, 500);
        // The flattened soup counts exactly like the grown boxes.
        let soup = up.grown_soup().unwrap();
        assert_eq!(soup.len(), up.k());
        let q = data.point(0);
        let scalar = up
            .grown_leaves
            .iter()
            .filter(|r| r.mindist2(q) <= 0.09)
            .count() as u64;
        assert_eq!(soup.count_intersecting(q, 0.09), scalar);
    }

    #[test]
    fn full_sample_means_no_growth() {
        let data = random_dataset(300, 3, 62);
        let topo = Topology::from_capacities(3, 300, 8, 4).unwrap();
        let up = build_upper_phase(&data, &topo, 300, 2, 2).unwrap();
        assert_eq!(up.sigma_upper, 1.0);
        for (leaf, grown) in up.tree.leaves().zip(&up.grown_leaves) {
            for j in 0..3 {
                assert!((grown.extent(j) - leaf.rect.extent(j)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn infeasible_inputs_rejected() {
        let data = random_dataset(300, 3, 63);
        let topo = Topology::from_capacities(3, 300, 8, 4).unwrap();
        assert!(build_upper_phase(&data, &topo, 0, 2, 0).is_err());
        assert!(build_upper_phase(&data, &topo, 100, 99, 0).is_err());
        // m so small that an upper leaf holds <= 1 expected point:
        // height 4, h_upper = 3 cuts at level 2 where pts(2) = 32;
        // sigma = 4/300 -> 32 * 0.0133 = 0.43 <= 1.
        assert!(build_upper_phase(&data, &topo, 4, 3, 0).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let data = random_dataset(1000, 3, 64);
        let topo = Topology::from_capacities(3, 1000, 8, 4).unwrap();
        let a = build_upper_phase(&data, &topo, 200, 2, 7).unwrap();
        let b = build_upper_phase(&data, &topo, 200, 2, 7).unwrap();
        assert_eq!(a.grown_leaves, b.grown_leaves);
        let c = build_upper_phase(&data, &topo, 200, 2, 8).unwrap();
        assert_ne!(a.grown_leaves, c.grown_leaves);
    }
}
