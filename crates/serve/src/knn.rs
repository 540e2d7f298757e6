//! The served k-NN request path: best-first search through the index,
//! with a linear-scan fallback when the index cannot prune.
//!
//! A k-NN request needs the radius of its exact k-NN sphere. The search
//! first runs best-first over the server's own tree
//! ([`hdidx_vamsplit::query::knn_gated`]). Once its candidate heap first
//! fills, the live bound is an upper bound on the final radius, so the
//! leaves whose MINDIST² is at most that bound bound the leaves the search
//! can still visit. That count comes from the server's [`LeafSoup`] in one
//! blocked pass. When it exceeds [`SCAN_FALLBACK_SHARE`] of the leaves the
//! partial search is dropped and the linear scan answers instead: on data
//! of high intrinsic dimension an index visits nearly every leaf (Pestov,
//! "Lower Bounds on Performance of Metric Tree Indexing Schemes"), and
//! the scan's contiguous SIMD sweep beats gathering leaf by leaf.
//!
//! Both routes return the same radius bits. The radius depends only on the
//! set of the k smallest `f64` distances; both searches accumulate every
//! distance with the same add chain through one [`hdidx_core::knn::KBest`],
//! and the tree only prunes regions whose MINDIST² (never above a contained
//! point's distance², as rounding is monotone) exceeds the k-th distance.

use hdidx_core::knn::scan_knn_radius_with;
use hdidx_core::simd::Isa;
use hdidx_core::{Dataset, LeafSoup, Result};
use hdidx_vamsplit::query::knn_gated;
use hdidx_vamsplit::tree::RTree;

/// Share of the index's leaves above which a k-NN request abandons its
/// best-first search for the linear scan. The gate compares the count of
/// leaves within the bound at the first heap fill against this share.
///
/// Set from the `knn_tree` / `knn_served` / `knn_scan` rows of
/// `BENCH_kernels.json` at density-biased 21-NN centers, with the AVX2
/// scan as the rival. On the clustered 6674x48 TEXTURE48 quarter the gate
/// counts a median 5 % of the leaves and the tree takes well under half the
/// scan's time; on uniform 50000x16 it counts every leaf and the tree
/// loses. Those two shapes bound the share only to roughly (0.08, 1).
/// The two uniform shapes between them straddle it: at 50000x10 the
/// median share is about 0.45 and the tree still wins, at 50000x12 it is
/// about 0.86 and the scan wins. Per request on those shapes (and the
/// TEXTURE48 quarter at k = 100, 300 and 1000), the summed tree-to-scan
/// time ratio crosses 1 between shares 0.70 and 0.80; 0.75 sits there
/// (DESIGN.md §5e).
pub const SCAN_FALLBACK_SHARE: f64 = 0.75;

/// Which search answered a k-NN request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnRoute {
    /// Best-first search through the index.
    Index,
    /// The linear scan, after the gate dropped the index search.
    Scan,
}

/// Radius of the exact k-NN sphere of `center` (distance to the k-th
/// neighbor) over `data`, indexed by `tree` whose leaves `leaf_soup`
/// flattens, with the route that answered. The radius is bit-identical to
/// [`hdidx_core::knn::scan_knn_radius`] on either route and at every ISA.
///
/// # Errors
///
/// Returns the search's errors: a wrong-length `center`, `k == 0`, or an
/// empty dataset on the scan route.
///
/// # Panics
///
/// Panics if `isa` is not supported by this CPU/build.
pub fn knn_radius_with(
    isa: Isa,
    tree: &RTree,
    leaf_soup: &LeafSoup,
    data: &Dataset,
    center: &[f32],
    k: usize,
) -> Result<(f64, KnnRoute)> {
    let max_leaves = SCAN_FALLBACK_SHARE * leaf_soup.len() as f64;
    let gate =
        |bound: f64| leaf_soup.count_intersecting_with(isa, center, bound) as f64 <= max_leaves;
    match knn_gated(isa, tree, data, center, k, gate)? {
        Some(res) => Ok((res.radius(), KnnRoute::Index)),
        None => Ok((scan_knn_radius_with(isa, data, center, k)?, KnnRoute::Scan)),
    }
}
