//! Query execution over [`RTree`]: [`TreeSoup`], the tree's directory as
//! SoA soups, which counts the leaves a ball meets and drives the optimal
//! best-first k-NN search (Hjaltason–Samet); range counting, linear-scan
//! ground truth, and the sphere/leaf intersection counting the prediction
//! model is built on.

use crate::tree::{NodeKind, RTree};
use hdidx_core::knn::KBest;
use hdidx_core::simd::{self, Isa};
use hdidx_core::{Dataset, Error, HyperRect, LeafSoup, Result};
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

/// [`Frontier::soup`] of a leaf.
const LEAF: u32 = u32::MAX;

/// Min-heap entry (via reversed ordering) for the node frontier, ordered
/// by (MINDIST², tree node id).
#[derive(Debug, PartialEq)]
struct Frontier {
    mindist2: f64,
    /// Tree node id.
    node: u32,
    /// [`TreeSoup`] index of the node's soup; [`LEAF`] for a leaf. A
    /// function of `node`, so it never decides an order.
    soup: u32,
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
/// Flattens `tree` into a [`TreeSoup`] per call; a caller with many
/// queries builds the soup once and calls [`knn_through`].
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if `q` has the wrong length,
/// [`Error::InvalidParameter`] if `k == 0`, and the
/// [`Error::InfeasibleTopology`] of [`TreeSoup::new`].
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
    knn_through(isa, tree, &TreeSoup::new(tree)?, data, q, k)
}

/// [`knn_with`] through a prebuilt `soup` of `tree` ([`TreeSoup::new`]).
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if `q` has the wrong length and
/// [`Error::InvalidParameter`] if `k == 0`.
///
/// # Panics
///
/// Panics if `isa` is not supported by this CPU/build, and may panic or
/// answer wrongly if `soup` was built from another tree.
pub fn knn_through(
    isa: Isa,
    tree: &RTree,
    soup: &TreeSoup,
    data: &Dataset,
    q: &[f32],
    k: usize,
) -> Result<KnnResult> {
    let res = knn_gated(isa, tree, soup, data, q, k, |_| true)?;
    Ok(res.expect("a gate that always continues never abandons"))
}

/// Best-first k-NN through `soup`, the [`TreeSoup`] of `tree`, with a
/// one-shot gate. Once the candidate heap first fills — after the leaf
/// that filled it — `gate` receives the live bound (the k-th best squared
/// distance so far, an upper bound on the final one); returning `false`
/// abandons the search with `Ok(None)`. A search over fewer than `k`
/// points never consults the gate.
///
/// The frontier is a min-heap on (MINDIST², tree node id), seeded with
/// the root at [`HyperRect::mindist2`]. Expanding an inner node is one
/// pass of its soup's kernel at r² = the live bound (`+∞` until the heap
/// fills), which queues each child whose MINDIST² is at most the bound,
/// with the MINDIST² its lane accumulated. That value is bit for bit the
/// child box's [`HyperRect::mindist2`] (same terms, same order), so the
/// frontier, the pages read and the gate's bound are those of a search
/// that prices every child box one at a time. The search stops at the
/// first queued node whose MINDIST² exceeds the bound. A visited leaf's
/// entries go to one [`KBest`], each group of rows read in place. Every
/// distance carries the linear scan's exact `f64` add chain, and MINDIST²
/// is never above a contained point's distance² (rounding is monotone),
/// so the reported distances equal [`scan_knn`]'s bit for bit; on exact
/// distance ties the ids kept may differ.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if `q` has the wrong length and
/// [`Error::InvalidParameter`] if `k == 0`.
///
/// # Panics
///
/// Panics if `isa` is not supported by this CPU/build, and may panic or
/// answer wrongly if `soup` was built from another tree.
pub fn knn_gated(
    isa: Isa,
    tree: &RTree,
    soup: &TreeSoup,
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
        soup: if tree.root().is_leaf() { LEAF } else { 0 },
    });
    while let Some(f) = frontier.pop() {
        if f.mindist2 > best.bound() {
            break;
        }
        if f.soup == LEAF {
            stats.leaf_accesses += 1;
            best.offer_ids(data, tree.leaf_entries(&tree.nodes()[f.node as usize]), q);
            if best.is_full() {
                if let Some(gate) = gate.take() {
                    if !gate(best.bound()) {
                        return Ok(None);
                    }
                }
            }
        } else {
            stats.dir_accesses += 1;
            let n = &soup.nodes[f.soup as usize];
            n.soup
                .for_each_intersecting(isa, q, best.bound(), |i, mindist2| {
                    frontier.push(Frontier {
                        mindist2,
                        node: n.ids[i],
                        soup: n.children.get(i).copied().unwrap_or(LEAF),
                    });
                });
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

/// The boxes of an [`RTree`] below its root as a hierarchy of SoA soups:
/// one [`LeafSoup`] per inner node, over that node's children's boxes in
/// child order, with each lane's tree node id. Counting descends from the
/// root, keeps only the children whose box the ball meets, and counts
/// leaves with the blocked kernel at each parent of leaves, so a ball
/// tests the leaves under the directory boxes it meets instead of every
/// leaf box. The best-first search ([`knn_gated`]) prices an expanded
/// node's children with one pass over its soup.
///
/// Every count equals [`LeafSoup::count_intersecting_with`] over
/// [`RTree::leaf_rects`] at the same ISA, bit for bit. A parent box
/// contains each child box, so each per-dimension MINDIST term of the
/// parent is at most the child's; rounding is monotone and so are sums of
/// non-negative `f64` terms, so a pruned subtree cannot hold a leaf whose
/// ball test passes. That argument needs numeric bounds, which
/// [`RTree::check_invariants`] (run by [`TreeSoup::new`]) guarantees.
///
/// # Examples
///
/// ```
/// use hdidx_core::{simd, Dataset, LeafSoup};
/// use hdidx_vamsplit::query::TreeSoup;
/// use hdidx_vamsplit::{bulk_load, Topology};
///
/// let flat: Vec<f32> = (0..400).map(|i| ((i * 37) % 101) as f32).collect();
/// let data = Dataset::from_flat(2, flat).unwrap();
/// let topo = Topology::from_capacities(2, data.len(), 4, 3).unwrap();
/// let tree = bulk_load(&data, &topo).unwrap();
/// let soup = TreeSoup::new(&tree).unwrap();
/// let leaves = LeafSoup::from_rects(2, &tree.leaf_rects()).unwrap();
/// let isa = simd::active();
/// let c = [50.0f32, 50.0];
/// assert_eq!(
///     soup.count_intersecting_with(isa, &c, 100.0),
///     leaves.count_intersecting_with(isa, &c, 100.0)
/// );
/// assert_eq!(soup.num_leaves(), tree.num_leaves());
/// ```
#[derive(Debug, Clone)]
pub struct TreeSoup {
    /// Index 0 mirrors the root.
    nodes: Vec<SoupNode>,
    leaves: usize,
}

/// One inner node of a [`TreeSoup`].
#[derive(Debug, Clone)]
struct SoupNode {
    /// The node's children's boxes, in child order.
    soup: LeafSoup,
    /// Tree node ids of the children, in child order.
    ids: Vec<u32>,
    /// [`TreeSoup`] indices of the children, in child order; empty when
    /// the children are leaves.
    children: Vec<u32>,
}

impl TreeSoup {
    /// Flattens `tree`'s directory, breadth first. A single-leaf tree
    /// becomes one soup over the root's box.
    ///
    /// # Errors
    ///
    /// [`Error::InfeasibleTopology`] when `tree` fails
    /// [`RTree::check_invariants`] (a NaN bound among them).
    pub fn new(tree: &RTree) -> Result<TreeSoup> {
        tree.check_invariants()?;
        let (dim, arena) = (tree.dim(), tree.nodes());
        let rects = |ids: &[u32]| -> Vec<HyperRect> {
            ids.iter()
                .map(|&c| arena[c as usize].rect.clone())
                .collect()
        };
        let NodeKind::Inner { children } = &tree.root().kind else {
            return Ok(TreeSoup {
                nodes: vec![SoupNode {
                    soup: LeafSoup::from_rects(dim, &rects(&[0]))?,
                    ids: vec![0],
                    children: Vec::new(),
                }],
                leaves: 1,
            });
        };
        // The inner nodes' child lists, breadth first: soup node `i`
        // covers `order[i]`. `check_invariants` keeps every node's
        // children on one level, so they are all leaves or all inner.
        let mut order: Vec<&[u32]> = vec![children];
        let mut nodes = Vec::new();
        let mut leaves = 0usize;
        while let Some(&children) = order.get(nodes.len()) {
            let mut below = Vec::new();
            if arena[children[0] as usize].is_leaf() {
                leaves += children.len();
            } else {
                for &c in children {
                    below.push(order.len() as u32);
                    if let NodeKind::Inner { children } = &arena[c as usize].kind {
                        order.push(children);
                    }
                }
            }
            nodes.push(SoupNode {
                soup: LeafSoup::from_rects(dim, &rects(children))?,
                ids: children.to_vec(),
                children: below,
            });
        }
        Ok(TreeSoup { nodes, leaves })
    }

    /// Number of leaves the soups hold.
    #[must_use]
    pub fn num_leaves(&self) -> usize {
        self.leaves
    }

    /// Number of leaves whose MINDIST² to `center` is at most `r2`, on the
    /// active ISA ([`simd::active`]).
    #[must_use]
    pub fn count_intersecting(&self, center: &[f32], r2: f64) -> u64 {
        self.count_intersecting_with(simd::active(), center, r2)
    }

    /// [`TreeSoup::count_intersecting`] pinned to one ISA.
    ///
    /// # Panics
    ///
    /// Panics if `isa` is not supported by this CPU/build.
    #[must_use]
    pub fn count_intersecting_with(&self, isa: Isa, center: &[f32], r2: f64) -> u64 {
        self.count_below(isa, 0, center, r2)
    }

    fn count_below(&self, isa: Isa, node: usize, center: &[f32], r2: f64) -> u64 {
        let n = &self.nodes[node];
        if n.children.is_empty() {
            return n.soup.count_intersecting_with(isa, center, r2);
        }
        let mut total = 0u64;
        n.soup.for_each_hit(isa, center, r2, |i| {
            total += self.count_below(isa, n.children[i] as usize, center, r2);
        });
        total
    }
}

// Exact linear-scan k-NN (the oracle for query radii) lives in the kernel
// crate; re-exported here because search tests and callers naturally look
// for it next to the index-based `knn`.
pub use hdidx_core::knn::{scan_knn, scan_knn_radius};

/// Number of rectangles in `pages` intersected by the closed ball around
/// `center`. This single function is the paper's page-access estimator: the
/// predicted cost of a query is the count of (grown) mini-index leaf pages
/// its k-NN sphere intersects.
///
/// This is the scalar AoS reference path, kept exact and simple: the
/// oracle the SoA kernels are tested against, the `aos_count` bench
/// baseline, and the reference leaf counts `e2ebench`'s `serve-mixed`
/// checks served page charges against. The predictors and experiments flatten
/// the page list into an [`hdidx_core::LeafSoup`] and run the blocked SoA
/// kernel, which returns byte-identical counts.
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
    use hdidx_rand::seeded;
    use hdidx_rand::Rng;

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
