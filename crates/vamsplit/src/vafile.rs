//! VA-file (Weber & Blott): the paper's §4.7 **negative control**.
//!
//! "An example for an index structure not contained in this group is the
//! VA-file, since it does not organize points in pages of fixed capacity."
//! The VA-file keeps a bit-quantized approximation of every vector and
//! answers k-NN by (1) scanning the whole approximation file, computing a
//! lower and an upper distance bound per point, and (2) visiting the exact
//! vectors of the candidates that survive the bound filter.
//!
//! Its I/O is therefore a *fixed sequential scan plus a candidate count* —
//! there is no page layout to predict, which is exactly why the paper's
//! page-geometry sampling model does not apply. The implementation here
//! provides exact search, the filter statistics, and the (trivially exact)
//! VA-file cost model, used by the experiments as the §4.7 contrast.

use crate::query::AccessStats;
use hdidx_core::{Dataset, Error, HyperRect, Result};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A VA-file: `bits` per dimension, equi-width quantization over the data
/// MBR.
#[derive(Debug, Clone)]
pub struct VaFile {
    bits: u32,
    /// Quantized cell index per point per dimension.
    cells: Vec<u16>,
    dim: usize,
    /// Per-dimension grid boundaries derivation: lo + width * cell.
    lo: Vec<f64>,
    width: Vec<f64>,
}

impl VaFile {
    /// Builds the approximation file with `bits` bits per dimension
    /// (1..=16).
    ///
    /// # Errors
    ///
    /// Rejects empty data and `bits` outside `1..=16`.
    pub fn build(data: &Dataset, bits: u32) -> Result<VaFile> {
        if data.is_empty() {
            return Err(Error::EmptyInput("dataset for VA-file"));
        }
        if !(1..=16).contains(&bits) {
            return Err(Error::invalid("bits", "must lie in 1..=16"));
        }
        let mbr: HyperRect = data.mbr()?;
        let d = data.dim();
        let levels = 1u32 << bits;
        let lo: Vec<f64> = (0..d).map(|j| f64::from(mbr.lo()[j])).collect();
        let width: Vec<f64> = (0..d)
            .map(|j| (mbr.extent(j) / f64::from(levels)).max(f64::MIN_POSITIVE))
            .collect();
        let mut cells = Vec::with_capacity(data.len() * d);
        for i in 0..data.len() {
            let p = data.point(i);
            for j in 0..d {
                let c = ((f64::from(p[j]) - lo[j]) / width[j]) as u32;
                cells.push(c.min(levels - 1) as u16);
            }
        }
        Ok(VaFile {
            bits,
            cells,
            dim: d,
            lo,
            width,
        })
    }

    /// Lower bound on the squared distance from `q` to point `i`, from the
    /// approximation cell alone.
    fn lower_bound2(&self, i: usize, q: &[f32]) -> f64 {
        let mut acc = 0.0f64;
        let cells = &self.cells[i * self.dim..(i + 1) * self.dim];
        for (j, (&cell, &qx)) in cells.iter().zip(q).enumerate() {
            let c = f64::from(cell);
            let cell_lo = self.lo[j] + c * self.width[j];
            let cell_hi = cell_lo + self.width[j];
            let x = f64::from(qx);
            let d = if x < cell_lo {
                cell_lo - x
            } else if x > cell_hi {
                x - cell_hi
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// Bytes of one approximation entry.
    pub fn entry_bits(&self) -> usize {
        self.dim * self.bits as usize
    }

    /// Exact k-NN via the two-phase VASSA-style algorithm. Returns the
    /// neighbors, the number of candidates whose exact vectors were
    /// visited, and the equivalent page-access statistics: the full
    /// approximation scan (sequential) plus one random access per visited
    /// candidate.
    ///
    /// # Errors
    ///
    /// Rejects `k == 0` and dimension mismatches.
    pub fn knn(
        &self,
        data: &Dataset,
        q: &[f32],
        k: usize,
        page_bytes: usize,
    ) -> Result<VaKnnResult> {
        if k == 0 {
            return Err(Error::invalid("k", "k must be positive"));
        }
        if q.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: q.len(),
            });
        }
        // Phase 1: scan approximations, rank candidates by lower bound.
        #[derive(Debug, PartialEq)]
        struct Cand {
            lb2: f64,
            id: u32,
        }
        impl Eq for Cand {}
        impl Ord for Cand {
            fn cmp(&self, other: &Self) -> Ordering {
                other.lb2.total_cmp(&self.lb2) // min-heap
            }
        }
        impl PartialOrd for Cand {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        let n = data.len();
        let mut heap: BinaryHeap<Cand> = BinaryHeap::with_capacity(n);
        for i in 0..n {
            heap.push(Cand {
                lb2: self.lower_bound2(i, q),
                id: i as u32,
            });
        }
        // Phase 2: visit candidates in lower-bound order until the next
        // lower bound exceeds the k-th exact distance.
        let mut best: Vec<(f64, u32)> = Vec::new();
        let mut visited = 0u64;
        while let Some(Cand { lb2, id }) = heap.pop() {
            if best.len() == k && lb2 > best[k - 1].0 {
                break;
            }
            visited += 1;
            let d2 = data.dist2_to(id as usize, q);
            best.push((d2, id));
            best.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            best.truncate(k);
        }
        let neighbors: Vec<(f64, u32)> = best.into_iter().map(|(d2, i)| (d2.sqrt(), i)).collect();
        // I/O model: sequential scan of the approximation file + one
        // random page access per visited exact vector.
        let approx_bytes = n * self.entry_bits() / 8;
        let scan_pages = approx_bytes.div_ceil(page_bytes) as u64;
        Ok(VaKnnResult {
            neighbors,
            visited,
            stats: AccessStats {
                leaf_accesses: scan_pages + visited,
                dir_accesses: 0,
            },
        })
    }
}

/// Result of a VA-file k-NN query.
#[derive(Debug, Clone)]
pub struct VaKnnResult {
    /// The k nearest neighbors `(distance, id)`, ascending.
    pub neighbors: Vec<(f64, u32)>,
    /// Exact vectors visited in phase 2.
    pub visited: u64,
    /// Equivalent page accesses (approximation scan + candidate visits).
    pub stats: AccessStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::scan_knn;
    use hdidx_rand::seeded;
    use hdidx_rand::Rng;

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    #[test]
    fn exact_results_match_scan() {
        let data = random_dataset(2_000, 8, 501);
        let va = VaFile::build(&data, 6).unwrap();
        let mut rng = seeded(502);
        for _ in 0..10 {
            let q: Vec<f32> = (0..8).map(|_| rng.gen::<f32>()).collect();
            let got = va.knn(&data, &q, 7, 8192).unwrap();
            let truth = scan_knn(&data, &q, 7).unwrap();
            for (g, t) in got.neighbors.iter().zip(&truth) {
                assert!((g.0 - t.0).abs() < 1e-9, "{} vs {}", g.0, t.0);
            }
        }
    }

    #[test]
    fn more_bits_filter_more_candidates() {
        let data = random_dataset(4_000, 10, 503);
        let q = data.point(7).to_vec();
        let coarse = VaFile::build(&data, 2).unwrap();
        let fine = VaFile::build(&data, 8).unwrap();
        let v_coarse = coarse.knn(&data, &q, 11, 8192).unwrap().visited;
        let v_fine = fine.knn(&data, &q, 11, 8192).unwrap().visited;
        assert!(
            v_fine < v_coarse,
            "fine bits visited {v_fine} >= coarse {v_coarse}"
        );
        assert!(v_fine >= 11);
    }

    #[test]
    fn io_has_fixed_scan_component() {
        // The §4.7 point: VA-file cost = constant approximation scan +
        // candidates, regardless of any "page layout" — no geometry to
        // predict.
        let data = random_dataset(4_096, 16, 504);
        let va = VaFile::build(&data, 8).unwrap();
        let approx_bytes = 4_096 * 16; // 8 bits/dim * 16 dims = 16 bytes
        let scan_pages = (approx_bytes as u64).div_ceil(8192);
        let q1 = data.point(1).to_vec();
        let q2 = data.point(4_000).to_vec();
        let r1 = va.knn(&data, &q1, 5, 8192).unwrap();
        let r2 = va.knn(&data, &q2, 5, 8192).unwrap();
        assert_eq!(r1.stats.leaf_accesses - r1.visited, scan_pages);
        assert_eq!(r2.stats.leaf_accesses - r2.visited, scan_pages);
    }

    #[test]
    fn validation() {
        let data = random_dataset(100, 4, 505);
        assert!(VaFile::build(&data, 0).is_err());
        assert!(VaFile::build(&data, 17).is_err());
        let empty = Dataset::with_capacity(4, 0).unwrap();
        assert!(VaFile::build(&empty, 4).is_err());
        let va = VaFile::build(&data, 4).unwrap();
        assert!(va.knn(&data, &[0.0; 4], 0, 8192).is_err());
        assert!(va.knn(&data, &[0.0; 3], 5, 8192).is_err());
        assert_eq!(va.entry_bits(), 16);
    }
}
