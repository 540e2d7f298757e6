//! Bulk-loaded grid file (Nievergelt, Hinterberger & Sevcik, TODS'84) —
//! the last §4.7 member implemented here.
//!
//! The grid file partitions **space** with per-dimension linear scales; a
//! bucket is the set of points in one grid cell. The bulk-loaded variant
//! chooses the scales from data quantiles along the highest-variance
//! dimensions until the expected bucket occupancy fits the page capacity.
//!
//! The §4.7 sampling recipe applies — build the same grid on a sample and
//! count query-ball/cell intersections — with one instructive twist that
//! the tests document: grid cells **tile space**, so they do not shrink
//! under sampling and the Theorem-1 compensation is unnecessary (quantile
//! boundaries are sample-stable). The compensation exists precisely for
//! *data*-partitioning structures whose pages are minimal bounding
//! regions.

use hdidx_core::stats::dim_stats;
use hdidx_core::{Dataset, Error, Result};

/// A bulk-loaded grid file.
#[derive(Debug, Clone)]
pub struct GridFile {
    /// Dimensions carrying the linear scales (highest variance first).
    pub dims: Vec<usize>,
    /// Interior boundary values per split dimension (ascending); a
    /// dimension with `b` boundaries has `b + 1` intervals.
    pub scales: Vec<Vec<f32>>,
    /// Bucket occupancy, row-major over the split dimensions.
    counts: Vec<u32>,
}

impl GridFile {
    /// Builds the grid over `ids`: doubles the intervals of the (cyclically
    /// next) highest-variance dimension until `cells >= n / cap`, placing
    /// boundaries at per-dimension quantiles. `n_full` scales the target
    /// cell count for sample builds (a mini grid file must have the *full*
    /// file's cell count, like the mini-index's topology).
    ///
    /// # Errors
    ///
    /// Rejects empty inputs and `cap < 2`, and grids beyond 2^22 cells.
    pub fn build(data: &Dataset, ids: &[u32], cap: usize, n_full: f64) -> Result<GridFile> {
        if ids.is_empty() {
            return Err(Error::EmptyInput("grid file over zero points"));
        }
        if cap < 2 {
            return Err(Error::invalid("cap", "bucket capacity must be >= 2"));
        }
        let target_cells = (n_full / cap as f64).ceil().max(1.0);
        if target_cells > (1 << 22) as f64 {
            return Err(Error::invalid(
                "cap",
                format!("{target_cells:.0} cells exceed the 2^22 budget"),
            ));
        }
        // Split dimensions by descending variance.
        let st = dim_stats(data, ids)?;
        let mut order: Vec<usize> = (0..data.dim()).collect();
        order.sort_by(|&a, &b| st.variance[b].total_cmp(&st.variance[a]));
        // Intervals per split dim: double cyclically until enough cells.
        let mut intervals: Vec<usize> = Vec::new();
        let mut cells = 1.0f64;
        let mut cursor = 0usize;
        while cells < target_cells {
            if cursor == intervals.len() {
                intervals.push(1);
                if intervals.len() > order.len() {
                    // More cells than 2^d — cap out.
                    intervals.pop();
                    cursor = 0;
                    continue;
                }
            }
            intervals[cursor] *= 2;
            cells *= 2.0;
            cursor = (cursor + 1) % intervals.len().max(1);
        }
        let dims: Vec<usize> = order[..intervals.len()].to_vec();
        // Quantile boundaries per split dimension.
        let mut scales = Vec::with_capacity(dims.len());
        for (gi, &j) in dims.iter().enumerate() {
            let mut vals: Vec<f32> = ids.iter().map(|&i| data.point(i as usize)[j]).collect();
            vals.sort_by(f32::total_cmp);
            let parts = intervals[gi];
            let mut bounds = Vec::with_capacity(parts - 1);
            for p in 1..parts {
                let pos = (p * vals.len()) / parts;
                bounds.push(vals[pos.min(vals.len() - 1)]);
            }
            scales.push(bounds);
        }
        // Count bucket occupancy.
        let total_cells: usize = intervals.iter().product();
        let mut counts = vec![0u32; total_cells];
        for &id in ids {
            let p = data.point(id as usize);
            let mut idx = 0usize;
            for (gi, &j) in dims.iter().enumerate() {
                let b = cell_of(&scales[gi], p[j]);
                idx = idx * (scales[gi].len() + 1) + b;
            }
            counts[idx] += 1;
        }
        Ok(GridFile {
            dims,
            scales,
            counts,
        })
    }

    /// Number of grid cells.
    pub fn num_cells(&self) -> usize {
        self.counts.len()
    }

    /// Number of non-empty buckets (pages that exist on disk).
    pub fn num_buckets(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Counts the non-empty buckets whose cell intersects the closed ball
    /// `(q, r)` — the page accesses of a ball query.
    ///
    /// # Panics
    ///
    /// Debug-asserts the query covers all split dimensions.
    pub fn count_ball_accesses(&self, q: &[f32], r: f64) -> u64 {
        debug_assert!(self.dims.iter().all(|&j| j < q.len()));
        // Recursive walk over split dims with distance pruning.
        let mut total = 0u64;
        self.walk(0, 0, 0.0, q, r * r, &mut total);
        total
    }

    fn walk(&self, gi: usize, idx: usize, acc2: f64, q: &[f32], r2: f64, total: &mut u64) {
        if acc2 > r2 {
            return;
        }
        if gi == self.dims.len() {
            if self.counts[idx] > 0 {
                *total += 1;
            }
            return;
        }
        let j = self.dims[gi];
        let bounds = &self.scales[gi];
        let x = f64::from(q[j]);
        let parts = bounds.len() + 1;
        for b in 0..parts {
            let lo = if b == 0 {
                f64::NEG_INFINITY
            } else {
                f64::from(bounds[b - 1])
            };
            let hi = if b == parts - 1 {
                f64::INFINITY
            } else {
                f64::from(bounds[b])
            };
            let d = if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                0.0
            };
            self.walk(gi + 1, idx * parts + b, acc2 + d * d, q, r2, total);
        }
    }
}

#[inline]
fn cell_of(bounds: &[f32], x: f32) -> usize {
    bounds.partition_point(|&b| b <= x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_rand::Rng;
    use hdidx_rand::{bernoulli_sample, seeded};

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    #[test]
    fn builds_with_expected_cell_count_and_balance() {
        let data = random_dataset(8_000, 6, 701);
        let ids: Vec<u32> = (0..8_000).collect();
        let g = GridFile::build(&data, &ids, 50, 8_000.0).unwrap();
        // target cells = 160 -> doubled to 256.
        assert_eq!(g.num_cells(), 256);
        // Quantile boundaries keep buckets reasonably balanced on uniform
        // data: every bucket below ~4x the mean.
        let mean = 8_000.0 / g.num_cells() as f64;
        assert!(g.counts.iter().all(|&c| (c as f64) < 4.0 * mean));
    }

    #[test]
    fn ball_accesses_match_exhaustive_count() {
        let data = random_dataset(3_000, 4, 702);
        let ids: Vec<u32> = (0..3_000).collect();
        let g = GridFile::build(&data, &ids, 40, 3_000.0).unwrap();
        // Exhaustive reference: every point's bucket is accessed when the
        // point lies within r of the query... (the bucket count must at
        // least cover the buckets of in-range points).
        let q = data.point(11).to_vec();
        let r = 0.3;
        let accessed = g.count_ball_accesses(&q, r);
        assert!(accessed >= 1);
        assert!(accessed <= g.num_buckets() as u64);
        // Monotone in the radius.
        assert!(g.count_ball_accesses(&q, 0.6) >= accessed);
        // A huge ball touches every non-empty bucket.
        assert_eq!(g.count_ball_accesses(&q, 100.0), g.num_buckets() as u64);
    }

    #[test]
    fn sampling_predicts_grid_accesses_without_compensation() {
        // §4.7 on the grid file: a mini grid built on a 25% sample (same
        // full-scale cell count) predicts the full grid's ball accesses
        // closely with NO growth step — space-partitioning boundaries are
        // quantile-stable, unlike shrinking MBRs.
        let data = random_dataset(20_000, 6, 703);
        let all: Vec<u32> = (0..20_000).collect();
        let full = GridFile::build(&data, &all, 60, 20_000.0).unwrap();
        let mut rng = seeded(704);
        let sample = bernoulli_sample(&mut rng, 20_000, 0.25);
        let mini = GridFile::build(&data, &sample, 60, 20_000.0).unwrap();
        assert_eq!(mini.num_cells(), full.num_cells());
        let mut m_total = 0u64;
        let mut p_total = 0u64;
        for i in 0..40 {
            let q = data.point(i * 401).to_vec();
            m_total += full.count_ball_accesses(&q, 0.4);
            p_total += mini.count_ball_accesses(&q, 0.4);
        }
        let err = (p_total as f64 - m_total as f64).abs() / m_total as f64;
        assert!(
            err < 0.12,
            "measured {m_total}, predicted {p_total} ({err:.3})"
        );
    }

    #[test]
    fn validation() {
        let data = random_dataset(100, 3, 705);
        let ids: Vec<u32> = (0..100).collect();
        assert!(GridFile::build(&data, &[], 10, 100.0).is_err());
        assert!(GridFile::build(&data, &ids, 1, 100.0).is_err());
        assert!(GridFile::build(&data, &ids, 2, 1e9).is_err());
        // Tiny data: a single cell.
        let g = GridFile::build(&data, &ids, 200, 100.0).unwrap();
        assert_eq!(g.num_cells(), 1);
        assert_eq!(g.count_ball_accesses(&[0.5, 0.5, 0.5], 0.01), 1);
    }
}
