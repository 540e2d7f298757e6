//! The locally parametric baseline (§2.3): a multi-dimensional equi-width
//! histogram cost model in the style of Theodoridis & Sellis (PODS'96).
//!
//! The data space is partitioned into a grid of `bins_per_dim^d'` cells
//! over the `d'` highest-variance dimensions (a full `d`-dimensional grid
//! is hopeless: even 2 bins per dimension in 60-d means 2^60 cells — this
//! *is* the paper's §2.3 objection, and the model exposes the knob so the
//! experiments can demonstrate it). Each cell stores its point count; page
//! accesses are estimated Minkowski-style from the local density around
//! the query.
//!
//! Estimation: for a query ball `(q, r)`, the number of points inside the
//! ball is estimated from the histogram densities intersected with the
//! ball's bounding box; the accessed pages are `ceil(points_in_reach /
//! C_eff,data)` plus the boundary pages, clamped to the page count. In low
//! dimensions with enough bins this tracks locality well; in high
//! dimensions the projected cells are huge and mostly empty-space, so the
//! estimate collapses toward a global average — the failure mode the paper
//! describes ("the regions contain too much empty space and become
//! inaccurate").

use hdidx_core::stats::dim_stats;
use hdidx_core::{Dataset, Error, Result};
use hdidx_vamsplit::topology::Topology;

/// A d'-dimensional equi-width histogram over the top-variance dimensions.
#[derive(Debug, Clone)]
pub struct GridHistogram {
    /// Dimensions (original indices) the grid spans.
    pub dims: Vec<usize>,
    /// Bins per spanned dimension.
    pub bins_per_dim: usize,
    /// Lower bound per spanned dimension.
    lo: Vec<f64>,
    /// Bin width per spanned dimension.
    width: Vec<f64>,
    /// Cell counts, row-major over `dims`.
    counts: Vec<u32>,
    /// Total points.
    n: usize,
}

impl GridHistogram {
    /// Builds the histogram over the `d_grid` highest-variance dimensions
    /// with `bins_per_dim` bins each.
    ///
    /// # Errors
    ///
    /// Rejects empty data, `bins_per_dim < 2`, `d_grid == 0` and grids
    /// with more than 2^24 cells (the storage blow-up the paper warns
    /// about — callers must choose `d_grid` small).
    pub fn build(data: &Dataset, d_grid: usize, bins_per_dim: usize) -> Result<GridHistogram> {
        if data.is_empty() {
            return Err(Error::EmptyInput("dataset for histogram"));
        }
        if bins_per_dim < 2 {
            return Err(Error::invalid("bins_per_dim", "need at least 2 bins"));
        }
        let d_grid = d_grid.min(data.dim());
        if d_grid == 0 {
            return Err(Error::invalid("d_grid", "need at least one dimension"));
        }
        let cells = (bins_per_dim as f64).powi(d_grid as i32);
        if cells > (1 << 24) as f64 {
            return Err(Error::invalid(
                "d_grid",
                format!(
                    "{bins_per_dim}^{d_grid} = {cells:.0} cells exceed the 2^24 budget; \
                     this storage explosion is the §2.3 objection to histograms in high d"
                ),
            ));
        }
        // Top-variance dimensions.
        let ids: Vec<u32> = (0..data.len() as u32).collect();
        let st = dim_stats(data, &ids)?;
        let mut order: Vec<usize> = (0..data.dim()).collect();
        order.sort_by(|&a, &b| st.variance[b].total_cmp(&st.variance[a]));
        let dims: Vec<usize> = order[..d_grid].to_vec();
        let mbr = data.mbr()?;
        let lo: Vec<f64> = dims.iter().map(|&j| f64::from(mbr.lo()[j])).collect();
        let width: Vec<f64> = dims
            .iter()
            .map(|&j| (mbr.extent(j) / bins_per_dim as f64).max(f64::MIN_POSITIVE))
            .collect();
        let mut counts = vec![0u32; cells as usize];
        for i in 0..data.len() {
            let p = data.point(i);
            let mut idx = 0usize;
            for (g, &j) in dims.iter().enumerate() {
                let b = (((f64::from(p[j]) - lo[g]) / width[g]) as usize).min(bins_per_dim - 1);
                idx = idx * bins_per_dim + b;
            }
            counts[idx] += 1;
        }
        Ok(GridHistogram {
            dims,
            bins_per_dim,
            lo,
            width,
            counts,
            n: data.len(),
        })
    }

    /// Fraction of cells holding no points — the "empty space" symptom.
    pub fn empty_cell_fraction(&self) -> f64 {
        self.counts.iter().filter(|&&c| c == 0).count() as f64 / self.counts.len() as f64
    }

    /// Estimated number of points within the ball `(q, r)`: the histogram
    /// mass of every cell whose projection intersects the ball's bounding
    /// box, each cell weighted by the fractional overlap of its projected
    /// box with the query box (per-dimension clipping).
    pub fn points_in_reach(&self, q: &[f32], r: f64) -> f64 {
        let g = self.dims.len();
        // Per-dimension bin ranges intersecting [q_j - r, q_j + r].
        let mut bin_lo = vec![0usize; g];
        let mut bin_hi = vec![0usize; g];
        for (gi, &j) in self.dims.iter().enumerate() {
            let qa = f64::from(q[j]) - r;
            let qb = f64::from(q[j]) + r;
            let a = ((qa - self.lo[gi]) / self.width[gi]).floor().max(0.0) as usize;
            let b = ((qb - self.lo[gi]) / self.width[gi]).floor() as usize;
            bin_lo[gi] = a.min(self.bins_per_dim - 1);
            bin_hi[gi] = b.min(self.bins_per_dim - 1);
        }
        // Walk the cell sub-grid, accumulating overlap-weighted mass.
        let mut total = 0.0f64;
        let mut cursor = bin_lo.clone();
        loop {
            let mut idx = 0usize;
            let mut frac = 1.0f64;
            for (gi, &b) in cursor.iter().enumerate() {
                idx = idx * self.bins_per_dim + b;
                let cell_a = self.lo[gi] + b as f64 * self.width[gi];
                let cell_b = cell_a + self.width[gi];
                let qa = f64::from(q[self.dims[gi]]) - r;
                let qb = f64::from(q[self.dims[gi]]) + r;
                let overlap = (cell_b.min(qb) - cell_a.max(qa)).max(0.0);
                frac *= (overlap / self.width[gi]).min(1.0);
            }
            total += frac * f64::from(self.counts[idx]);
            // Increment the multi-dimensional cursor.
            let mut gi = g;
            loop {
                if gi == 0 {
                    return total;
                }
                gi -= 1;
                if cursor[gi] < bin_hi[gi] {
                    cursor[gi] += 1;
                    // Reset the trailing dimensions to their range starts.
                    for (t, c) in cursor.iter_mut().enumerate().skip(gi + 1) {
                        *c = bin_lo[t];
                    }
                    break;
                }
                cursor[gi] = bin_lo[gi];
            }
        }
    }

    /// Predicted page accesses for a ball query: the pages holding the
    /// points within reach (`ceil(mass / C)`), clamped to `[1, pages]`.
    pub fn predict_accesses(&self, topo: &Topology, q: &[f32], r: f64) -> f64 {
        let mass = self.points_in_reach(q, r);
        let pages = (mass / topo.cap_data() as f64).ceil().max(1.0);
        pages.min(topo.leaf_pages() as f64)
    }

    /// Total stored points (sanity accessor).
    pub fn total_points(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_rand::seeded;
    use hdidx_rand::Rng;

    fn uniform_data(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    #[test]
    fn build_validations() {
        let d = uniform_data(100, 4, 1);
        assert!(GridHistogram::build(&d, 0, 4).is_err());
        assert!(GridHistogram::build(&d, 2, 1).is_err());
        let highdim = uniform_data(50, 30, 9);
        assert!(GridHistogram::build(&highdim, 30, 8).is_err()); // cell blow-up
        let empty = Dataset::with_capacity(4, 0).unwrap();
        assert!(GridHistogram::build(&empty, 2, 4).is_err());
        let h = GridHistogram::build(&d, 2, 8).unwrap();
        assert_eq!(h.total_points(), 100);
        assert_eq!(h.counts.iter().map(|&c| c as usize).sum::<usize>(), 100);
    }

    #[test]
    fn grid_picks_high_variance_dims() {
        // dim 1 has much higher variance than dims 0 and 2.
        let mut rng = seeded(2);
        let mut data = Vec::new();
        for _ in 0..2000 {
            data.push(rng.gen::<f32>() * 0.01);
            data.push(rng.gen::<f32>() * 10.0);
            data.push(rng.gen::<f32>() * 0.01);
        }
        let d = Dataset::from_flat(3, data).unwrap();
        let h = GridHistogram::build(&d, 1, 8).unwrap();
        assert_eq!(h.dims, vec![1]);
    }

    #[test]
    fn mass_in_reach_tracks_truth_in_low_dim() {
        let d = uniform_data(20_000, 2, 3);
        let h = GridHistogram::build(&d, 2, 32).unwrap();
        let q = [0.5f32, 0.5];
        let r = 0.2;
        let est = h.points_in_reach(&q, r);
        // Truth within the bounding box (the histogram estimates the box,
        // not the ball): (2r)^2 * n = 0.16 * 20000 = 3200.
        let box_truth = (2.0 * r) * (2.0 * r) * 20_000.0;
        assert!(
            (est - box_truth).abs() / box_truth < 0.15,
            "est {est}, box truth {box_truth}"
        );
    }

    #[test]
    fn empty_fraction_grows_with_dimensionality() {
        // Same clustered data, grid over 2 vs 6 dims: the empty-space
        // fraction explodes — the paper's §2.3 failure mode.
        let data = {
            let mut rng = seeded(4);
            let mut v = Vec::new();
            for _ in 0..5_000 {
                let c = if rng.gen_bool(0.5) { 0.2f32 } else { 0.8 };
                for _ in 0..8 {
                    v.push(c + 0.3 * (rng.gen::<f32>() - 0.5));
                }
            }
            Dataset::from_flat(8, v).unwrap()
        };
        let h2 = GridHistogram::build(&data, 2, 8).unwrap();
        let h6 = GridHistogram::build(&data, 6, 8).unwrap();
        assert!(
            h6.empty_cell_fraction() > h2.empty_cell_fraction() + 0.2,
            "2-d empty {:.2}, 6-d empty {:.2}",
            h2.empty_cell_fraction(),
            h6.empty_cell_fraction()
        );
        assert!(h6.empty_cell_fraction() > 0.99);
    }

    #[test]
    fn predicted_accesses_bounded_and_monotone() {
        let d = uniform_data(10_000, 4, 5);
        let topo = Topology::from_capacities(4, 10_000, 50, 20).unwrap();
        let h = GridHistogram::build(&d, 4, 8).unwrap();
        let q = [0.5f32; 4];
        let small = h.predict_accesses(&topo, &q, 0.05);
        let large = h.predict_accesses(&topo, &q, 0.6);
        assert!(small >= 1.0);
        assert!(large <= topo.leaf_pages() as f64);
        assert!(small <= large);
    }
}
