//! Query execution over [`RTree`]: optimal best-first k-NN search
//! (Hjaltason–Samet), range counting, linear-scan ground truth, and the
//! sphere/leaf intersection counting the prediction model is built on.

use crate::tree::{NodeKind, RTree};
use hdidx_core::knn::KBest;
use hdidx_core::simd::{self, Isa};
use hdidx_core::{Dataset, Error, HyperRect, Result};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Page-access counters recorded while executing a query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Leaf (data) pages visited.
    pub leaf_accesses: u64,
    /// Directory pages visited (including the root).
    pub dir_accesses: u64,
}

impl AccessStats {
    /// Total pages visited.
    pub fn total(&self) -> u64 {
        self.leaf_accesses + self.dir_accesses
    }
}

/// Result of a k-NN query.
#[derive(Debug, Clone)]
pub struct KnnResult {
    /// The k nearest neighbors as `(distance, point id)`, ascending.
    pub neighbors: Vec<(f64, u32)>,
    /// Page accesses incurred.
    pub stats: AccessStats,
}

impl KnnResult {
    /// Distance to the k-th neighbor (the query-sphere radius used by the
    /// prediction model). 0 when no neighbor was found.
    pub fn radius(&self) -> f64 {
        self.neighbors.last().map(|&(d, _)| d).unwrap_or(0.0)
    }
}

/// Min-heap entry (via reversed ordering) for the node frontier.
#[derive(Debug, PartialEq)]
struct Frontier {
    mindist2: f64,
    node: u32,
}
impl Eq for Frontier {}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .mindist2
            .total_cmp(&self.mindist2)
            .then(other.node.cmp(&self.node))
    }
}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Optimal best-first k-NN search. Visits exactly the pages whose MINDIST
/// to the query is at most the final k-NN distance — the access pattern the
/// paper's prediction model estimates.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if `q` has the wrong length and
/// [`Error::InvalidParameter`] if `k == 0`.
pub fn knn(tree: &RTree, data: &Dataset, q: &[f32], k: usize) -> Result<KnnResult> {
    knn_with(simd::active(), tree, data, q, k)
}

/// [`knn`] pinned to one SIMD ISA. Every ISA returns the same neighbors,
/// distance bits and [`AccessStats`].
///
/// # Errors
///
/// Same conditions as [`knn`].
///
/// # Panics
///
/// Panics if `isa` is not supported by this CPU/build.
pub fn knn_with(isa: Isa, tree: &RTree, data: &Dataset, q: &[f32], k: usize) -> Result<KnnResult> {
    let res = knn_gated(isa, tree, data, q, k, |_| true)?;
    Ok(res.expect("a gate that always continues never abandons"))
}

/// Best-first k-NN with a one-shot gate. Once the candidate heap first
/// fills — after the leaf that filled it — `gate` receives the live bound
/// (the k-th best squared distance so far, an upper bound on the final
/// one); returning `false` abandons the search with `Ok(None)`. A
/// search over fewer than `k` points never consults the gate.
///
/// The candidates live in one [`KBest`], fed each visited leaf's entries
/// through its gathered path. Until the heap fills every child is
/// queued; after, a child is queued when its MINDIST² is at most the
/// bound, and the search stops at the first queued node whose MINDIST²
/// exceeds it. Every distance carries the linear scan's exact `f64` add
/// chain, and MINDIST² is never above a contained point's distance²
/// (rounding is monotone), so the reported distances equal
/// [`scan_knn`]'s bit for bit; on exact distance ties the ids kept may
/// differ.
///
/// # Errors
///
/// Same conditions as [`knn`].
///
/// # Panics
///
/// Panics if `isa` is not supported by this CPU/build.
pub fn knn_gated(
    isa: Isa,
    tree: &RTree,
    data: &Dataset,
    q: &[f32],
    k: usize,
    gate: impl FnOnce(f64) -> bool,
) -> Result<Option<KnnResult>> {
    if q.len() != tree.dim() {
        return Err(Error::DimensionMismatch {
            expected: tree.dim(),
            actual: q.len(),
        });
    }
    if k == 0 {
        return Err(Error::invalid("k", "k must be positive"));
    }
    let mut stats = AccessStats::default();
    let mut best = KBest::new(isa, k);
    let mut gate = Some(gate);
    let mut frontier: BinaryHeap<Frontier> = BinaryHeap::new();
    frontier.push(Frontier {
        mindist2: tree.root().rect.mindist2(q),
        node: 0,
    });
    while let Some(Frontier { mindist2, node }) = frontier.pop() {
        if mindist2 > best.bound() {
            break;
        }
        let n = &tree.nodes()[node as usize];
        match &n.kind {
            NodeKind::Inner { children } => {
                stats.dir_accesses += 1;
                for &c in children {
                    let md = tree.nodes()[c as usize].rect.mindist2(q);
                    if !best.is_full() || md <= best.bound() {
                        frontier.push(Frontier {
                            mindist2: md,
                            node: c,
                        });
                    }
                }
            }
            NodeKind::Leaf { .. } => {
                stats.leaf_accesses += 1;
                best.offer_ids(data, tree.leaf_entries(n), q);
                if best.is_full() {
                    if let Some(gate) = gate.take() {
                        if !gate(best.bound()) {
                            return Ok(None);
                        }
                    }
                }
            }
        }
    }
    Ok(Some(KnnResult {
        neighbors: best.into_sorted(),
        stats,
    }))
}

/// Counts the pages a range (ball) query touches: every node whose MBR
/// intersects the closed ball around `center` with `radius`.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] on a wrong-length center.
pub fn range_accesses(tree: &RTree, center: &[f32], radius: f64) -> Result<AccessStats> {
    if center.len() != tree.dim() {
        return Err(Error::DimensionMismatch {
            expected: tree.dim(),
            actual: center.len(),
        });
    }
    let mut stats = AccessStats::default();
    let mut stack = vec![0u32];
    while let Some(node) = stack.pop() {
        let n = &tree.nodes()[node as usize];
        if !n.rect.intersects_sphere(center, radius) {
            continue;
        }
        match &n.kind {
            NodeKind::Inner { children } => {
                stats.dir_accesses += 1;
                stack.extend_from_slice(children);
            }
            NodeKind::Leaf { .. } => stats.leaf_accesses += 1,
        }
    }
    Ok(stats)
}

/// Collects the ids of all points within `radius` of `center` (closed ball).
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] on a wrong-length center.
pub fn range_query(tree: &RTree, data: &Dataset, center: &[f32], radius: f64) -> Result<Vec<u32>> {
    if center.len() != tree.dim() {
        return Err(Error::DimensionMismatch {
            expected: tree.dim(),
            actual: center.len(),
        });
    }
    let r2 = radius * radius;
    let mut out = Vec::new();
    let mut stack = vec![0u32];
    while let Some(node) = stack.pop() {
        let n = &tree.nodes()[node as usize];
        if !n.rect.intersects_sphere(center, radius) {
            continue;
        }
        match &n.kind {
            NodeKind::Inner { children } => stack.extend_from_slice(children),
            NodeKind::Leaf { .. } => {
                for &id in tree.leaf_entries(n) {
                    if data.dist2_to(id as usize, center) <= r2 {
                        out.push(id);
                    }
                }
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

// Exact linear-scan k-NN (ground truth for query radii) lives in the kernel
// crate; re-exported here because search tests and callers naturally look
// for it next to the index-based `knn`.
pub use hdidx_core::knn::{scan_knn, scan_knn_radii, scan_knn_radius};

/// Number of rectangles in `pages` intersected by the closed ball around
/// `center`. This single function is the paper's page-access estimator: the
/// predicted cost of a query is the count of (grown) mini-index leaf pages
/// its k-NN sphere intersects.
///
/// This is the scalar AoS reference path (kept exact and simple for tests
/// and one-off counts); the predictors' hot loops flatten the page list
/// into an [`hdidx_core::LeafSoup`] and run the blocked SoA batch kernel,
/// which returns byte-identical counts.
pub fn count_sphere_intersections(pages: &[HyperRect], center: &[f32], radius: f64) -> u64 {
    pages
        .iter()
        .filter(|r| r.intersects_sphere(center, radius))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulkload::bulk_load;
    use crate::topology::Topology;
    use hdidx_core::rng::seeded;
    use hdidx_core::rng::Rng;

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    fn tree_over(data: &Dataset, cap_data: usize, cap_dir: usize) -> RTree {
        let topo = Topology::from_capacities(data.dim(), data.len(), cap_data, cap_dir).unwrap();
        bulk_load(data, &topo).unwrap()
    }

    #[test]
    fn knn_matches_linear_scan() {
        let data = random_dataset(800, 6, 11);
        let tree = tree_over(&data, 8, 5);
        let mut rng = seeded(12);
        for _ in 0..20 {
            let q: Vec<f32> = (0..6).map(|_| rng.gen::<f32>()).collect();
            let res = knn(&tree, &data, &q, 7).unwrap();
            let truth = scan_knn(&data, &q, 7).unwrap();
            assert_eq!(res.neighbors.len(), 7);
            for (a, b) in res.neighbors.iter().zip(truth.iter()) {
                assert_eq!(a.0.to_bits(), b.0.to_bits(), "{} vs {}", a.0, b.0);
            }
            assert!(res.stats.leaf_accesses >= 1);
            assert!(res.stats.dir_accesses >= 1);
        }
    }

    #[test]
    fn knn_accesses_equal_sphere_intersections() {
        // For the optimal algorithm, leaf accesses == leaves whose MINDIST
        // <= final radius. This equivalence is what lets the paper predict
        // accesses by sphere/leaf intersection counting.
        let data = random_dataset(1000, 4, 13);
        let tree = tree_over(&data, 10, 6);
        let pages = tree.leaf_rects();
        let mut rng = seeded(14);
        for _ in 0..20 {
            let q: Vec<f32> = (0..4).map(|_| rng.gen::<f32>()).collect();
            let res = knn(&tree, &data, &q, 21).unwrap();
            let expected = count_sphere_intersections(&pages, &q, res.radius());
            assert_eq!(res.stats.leaf_accesses, expected);
        }
    }

    #[test]
    fn knn_k_larger_than_dataset() {
        let data = random_dataset(5, 2, 15);
        let tree = tree_over(&data, 3, 2);
        let res = knn(&tree, &data, &[0.5, 0.5], 10).unwrap();
        assert_eq!(res.neighbors.len(), 5);
    }

    #[test]
    fn knn_input_validation() {
        let data = random_dataset(10, 2, 16);
        let tree = tree_over(&data, 3, 2);
        assert!(knn(&tree, &data, &[0.5], 1).is_err());
        assert!(knn(&tree, &data, &[0.5, 0.5], 0).is_err());
    }

    #[test]
    fn range_query_matches_scan() {
        let data = random_dataset(600, 3, 17);
        let tree = tree_over(&data, 8, 4);
        let mut rng = seeded(18);
        for _ in 0..10 {
            let q: Vec<f32> = (0..3).map(|_| rng.gen::<f32>()).collect();
            let radius = rng.gen::<f64>() * 0.5;
            let got = range_query(&tree, &data, &q, radius).unwrap();
            let expect: Vec<u32> = (0..data.len() as u32)
                .filter(|&i| data.dist2_to(i as usize, &q) <= radius * radius)
                .collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn range_accesses_count_intersecting_leaves() {
        let data = random_dataset(600, 3, 19);
        let tree = tree_over(&data, 8, 4);
        let pages = tree.leaf_rects();
        let q = [0.4f32, 0.6, 0.2];
        let stats = range_accesses(&tree, &q, 0.3).unwrap();
        assert_eq!(
            stats.leaf_accesses,
            count_sphere_intersections(&pages, &q, 0.3)
        );
        assert!(range_accesses(&tree, &[0.0], 0.1).is_err());
    }

    #[test]
    fn scan_knn_validation_and_ordering() {
        let data = random_dataset(50, 2, 20);
        assert!(scan_knn(&data, &[0.1], 3).is_err());
        assert!(scan_knn(&data, &[0.1, 0.1], 0).is_err());
        let empty = Dataset::with_capacity(2, 0).unwrap();
        assert!(scan_knn(&empty, &[0.1, 0.1], 1).is_err());
        let res = scan_knn(&data, &[0.1, 0.1], 5).unwrap();
        assert!(res.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn zero_radius_sphere_counts_containing_pages() {
        let pages = vec![
            HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap(),
            HyperRect::new(vec![2.0, 2.0], vec![3.0, 3.0]).unwrap(),
        ];
        assert_eq!(count_sphere_intersections(&pages, &[0.5, 0.5], 0.0), 1);
        assert_eq!(count_sphere_intersections(&pages, &[1.5, 1.5], 0.0), 0);
    }
}
