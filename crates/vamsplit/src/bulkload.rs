//! Top-down bulk loading (Berchtold, Böhm & Kriegel EDBT'98) with the
//! maximum-variance (VAMSplit) strategy.
//!
//! One recursive builder serves all four tree uses of the paper:
//!
//! * [`bulk_load`] — the full index over the whole dataset,
//! * [`bulk_load_scaled`] — the §3 *mini-index* over a sample: the tree
//!   replicates the **full-scale topology** (the fanout at every node is
//!   derived from a virtual full-scale cardinality `n_full`, not from the
//!   sample size) while the sampled points are distributed proportionally,
//!   which implements the "same overall structure, reduced page capacity"
//!   requirement of §3.1,
//! * [`bulk_load_upper`] — the §4.2 *upper tree*: construction stops
//!   `h_upper` levels below the root; leaves sit at full-tree level
//!   `height - h_upper + 1` and keep their sampled points,
//! * [`bulk_load_subtree`] — a §4.4 *lower tree*: root at an upper-leaf
//!   level, built down to the data-page level.
//!
//! At every node the required fanout is `ceil(n_full / capacity(level-1))`;
//! the node's point set is split into that many groups by recursive binary
//! splits along the current dimension of maximum variance. The split rank
//! is chosen so the left side exactly fills its subtrees (`f_left *
//! capacity(level-1)` full-scale points), translated proportionally into
//! sample coordinates when `n_sample != n_full`.
//!
//! Construction is serial. The split decisions are pure functions of the
//! point set, so no PRNG is consumed while building.
//!
//! [`bulk_load_observed`] runs the same recursion under a [`BuildObserver`]
//! that sees every node entered, every binary split chosen and every
//! subtree finished; the on-disk build (`hdidx-diskio`) bills its I/O
//! through one, so in-memory and external loads share every split.

use crate::split::partition_by_rank;
use crate::topology::Topology;
use crate::tree::{Node, NodeKind, RTree};
use hdidx_core::stats::max_variance_dim;
use hdidx_core::{Dataset, Error, HyperRect, Result};
use std::ops::Range;

/// Builds the full index over all points of `data`.
///
/// # Examples
///
/// ```
/// use hdidx_core::Dataset;
/// use hdidx_vamsplit::topology::Topology;
/// use hdidx_vamsplit::{bulk_load, query};
///
/// // 100 points on a line; pages of 5 points, directory fanout 4.
/// let data = Dataset::from_flat(1, (0..100).map(|i| i as f32).collect()).unwrap();
/// let topo = Topology::from_capacities(1, 100, 5, 4).unwrap();
/// let tree = bulk_load(&data, &topo).unwrap();
/// assert_eq!(tree.num_leaves(), 20);
/// let res = query::knn(&tree, &data, &[42.2], 3).unwrap();
/// assert_eq!(res.neighbors[0].1, 42); // nearest point id
/// ```
///
/// # Errors
///
/// Propagates topology/shape errors; rejects a dataset whose cardinality or
/// dimensionality disagrees with `topo`.
pub fn bulk_load(data: &Dataset, topo: &Topology) -> Result<RTree> {
    bulk_load_observed(data, topo, &mut ())
}

/// [`bulk_load`] with every step of the recursion reported to `obs`.
///
/// # Errors
///
/// As [`bulk_load`], plus the first error `obs` returns.
pub fn bulk_load_observed<O: BuildObserver>(
    data: &Dataset,
    topo: &Topology,
    obs: &mut O,
) -> Result<RTree> {
    let ids: Vec<u32> = (0..data.len() as u32).collect();
    build_tree(data, ids, topo, topo.n() as f64, topo.height(), 1, obs)
}

/// Watches one bulk load. Every call names the node by its arena index
/// (pre-order: the root is 0); an error aborts the build.
pub trait BuildObserver {
    /// Node `node` was entered over the non-empty `ids[start..end]`.
    fn enter(&mut self, _node: u32, _start: usize, _end: usize) -> Result<()> {
        Ok(())
    }

    /// Node `node` splits `seg` (`ids[start..start + seg.len()]`, still
    /// in pre-partition order) so that its `rank` smallest points along
    /// `dim` go left.
    fn split(
        &mut self,
        _node: u32,
        _start: usize,
        _seg: &[u32],
        _dim: usize,
        _rank: usize,
    ) -> Result<()> {
        Ok(())
    }

    /// Node `node`'s subtree is complete: it added `nodes` arena nodes,
    /// `node` itself included.
    fn finish(&mut self, _node: u32, _nodes: usize) -> Result<()> {
        Ok(())
    }
}

/// The in-memory loads observe nothing.
impl BuildObserver for () {}

/// The split plan of one binary split at a `level` node holding `n_full`
/// full-scale points that still owes `fanout` children: the left side
/// takes `f_left = fanout / 2` of them and exactly fills their subtrees
/// with `left_full` points, and the right side keeps `right_full`.
/// Returns `(f_left, left_full, right_full)`.
pub fn split_plan(topo: &Topology, level: usize, fanout: usize, n_full: f64) -> (usize, f64, f64) {
    let f_left = fanout / 2;
    let left_full = (f_left as f64) * topo.subtree_capacity(level - 1);
    (f_left, left_full, (n_full - left_full).max(1.0))
}

/// Builds a §3 mini-index on `sample_ids`, replicating the topology of the
/// full tree over `n_full` points (normally `topo.n()`).
///
/// # Errors
///
/// Rejects an empty sample and dimension mismatches.
pub fn bulk_load_scaled(
    data: &Dataset,
    sample_ids: Vec<u32>,
    topo: &Topology,
    n_full: f64,
) -> Result<RTree> {
    build_tree(data, sample_ids, topo, n_full, topo.height(), 1, &mut ())
}

/// Builds the §4.2 upper tree of height `h_upper` on `sample_ids`. Its
/// leaves sit at full-tree level `topo.upper_leaf_level(h_upper)` and retain
/// the sampled points that fall below them.
///
/// # Errors
///
/// Rejects `h_upper` outside `1..=height` and an empty sample.
pub fn bulk_load_upper(
    data: &Dataset,
    sample_ids: Vec<u32>,
    topo: &Topology,
    h_upper: usize,
) -> Result<RTree> {
    if h_upper == 0 || h_upper > topo.height() {
        return Err(Error::invalid(
            "h_upper",
            format!("must lie in 1..={}, got {h_upper}", topo.height()),
        ));
    }
    let stop = topo.upper_leaf_level(h_upper);
    let n_full = topo.n() as f64;
    build_tree(data, sample_ids, topo, n_full, topo.height(), stop, &mut ())
}

/// Builds a §4.4 lower tree: root at full-tree level `root_level`, leaves at
/// the data-page level. `n_full` is the full-scale number of points below
/// the corresponding full-tree node (at most `topo.subtree_capacity(root_level)`).
///
/// # Errors
///
/// Rejects `root_level` outside `1..=height` and an empty point set.
pub fn bulk_load_subtree(
    data: &Dataset,
    sample_ids: Vec<u32>,
    topo: &Topology,
    n_full: f64,
    root_level: usize,
) -> Result<RTree> {
    if root_level == 0 || root_level > topo.height() {
        return Err(Error::invalid(
            "root_level",
            format!("must lie in 1..={}, got {root_level}", topo.height()),
        ));
    }
    build_tree(data, sample_ids, topo, n_full, root_level, 1, &mut ())
}

struct Builder<'a, O> {
    data: &'a Dataset,
    topo: &'a Topology,
    stop_level: usize,
    nodes: Vec<Node>,
    ids: Vec<u32>,
    obs: &'a mut O,
}

fn build_tree<O: BuildObserver>(
    data: &Dataset,
    ids: Vec<u32>,
    topo: &Topology,
    n_full: f64,
    root_level: usize,
    stop_level: usize,
    obs: &mut O,
) -> Result<RTree> {
    if ids.is_empty() {
        return Err(Error::EmptyInput("bulk load over zero points"));
    }
    if data.dim() != topo.dim() {
        return Err(Error::DimensionMismatch {
            expected: topo.dim(),
            actual: data.dim(),
        });
    }
    if !(n_full >= 1.0 && n_full.is_finite()) {
        return Err(Error::invalid("n_full", "must be finite and >= 1"));
    }
    if stop_level == 0 || stop_level > root_level {
        return Err(Error::InfeasibleTopology(format!(
            "stop level {stop_level} incompatible with root level {root_level}"
        )));
    }
    let n = ids.len();
    let mut b = Builder {
        data,
        topo,
        stop_level,
        nodes: Vec::new(),
        ids,
        obs,
    };
    let root = b.build_node(0, n, root_level, n_full)?;
    debug_assert_eq!(root, Some(0));
    RTree::from_arenas(data.dim(), root_level, stop_level, b.nodes, b.ids)
}

impl<O: BuildObserver> Builder<'_, O> {
    /// Builds the subtree over `self.ids[start..end]` rooted at `level`,
    /// returning its arena index, or `None` if the segment is empty (a
    /// sample so sparse that this subtree received no points).
    fn build_node(
        &mut self,
        start: usize,
        end: usize,
        level: usize,
        n_full: f64,
    ) -> Result<Option<u32>> {
        if start == end {
            return Ok(None);
        }
        let my_index = self.nodes.len() as u32;
        self.obs.enter(my_index, start, end)?;
        // Reserve the slot so the root lands at index 0 (pre-order).
        self.nodes.push(Node {
            level: level as u32,
            rect: HyperRect::point(self.data.point(self.ids[start] as usize)),
            kind: NodeKind::Leaf {
                entries: start as u32..end as u32,
            },
        });
        if level == self.stop_level {
            // Invariant: start < end (the empty segment returned None
            // above), so the MBR of the slice always exists.
            let rect = self
                .data
                .mbr_of(&self.ids[start..end])
                .expect("non-empty leaf");
            self.nodes[my_index as usize].rect = rect;
        } else {
            let fanout = self.topo.fanout_for(level, n_full);
            let mut groups = Vec::with_capacity(fanout);
            self.partition_groups(my_index, start..end, level, fanout, n_full, &mut groups)?;
            let mut children = Vec::with_capacity(groups.len());
            let mut rect: Option<HyperRect> = None;
            for (g_start, g_end, g_full) in groups {
                if let Some(child) = self.build_node(g_start, g_end, level - 1, g_full)? {
                    let child_rect = self.nodes[child as usize].rect.clone();
                    match rect.as_mut() {
                        Some(r) => r.expand_to_rect(&child_rect),
                        None => rect = Some(child_rect),
                    }
                    children.push(child);
                }
            }
            // Invariant: the groups partition `start..end` (non-empty
            // here), so at least one recursive call received points and
            // returned a child.
            debug_assert!(!children.is_empty(), "non-empty segment yields a child");
            let node = &mut self.nodes[my_index as usize];
            node.rect = rect.expect("at least one child");
            node.kind = NodeKind::Inner { children };
        }
        self.obs
            .finish(my_index, self.nodes.len() - my_index as usize)?;
        Ok(Some(my_index))
    }

    /// Splits `self.ids[seg]` of node `node` into `fanout` groups by
    /// recursive binary maximum-variance splits, appending `(start, end,
    /// n_full)` triples (possibly empty ranges) to `out`.
    fn partition_groups(
        &mut self,
        node: u32,
        seg: Range<usize>,
        level: usize,
        fanout: usize,
        n_full: f64,
        out: &mut Vec<(usize, usize, f64)>,
    ) -> Result<()> {
        let (start, end) = (seg.start, seg.end);
        if fanout <= 1 {
            out.push((start, end, n_full));
            return Ok(());
        }
        let (f_left, left_full, right_full) = split_plan(self.topo, level, fanout, n_full);
        debug_assert!(left_full < n_full || end - start == 0);
        let len = end - start;
        let rank = if len == 0 {
            0
        } else {
            // Proportional translation of the full-scale split rank into
            // sample coordinates; exact when the "sample" is the full data.
            let r = ((len as f64) * left_full / n_full).round() as usize;
            r.min(len)
        };
        if rank > 0 && rank < len {
            // Invariant: 0 < rank < len implies the slice holds >= 2 points,
            // so a maximum-variance dimension exists.
            let ids = &mut self.ids[start..end];
            let dim = max_variance_dim(self.data, ids).expect("non-empty");
            self.obs.split(node, start, ids, dim, rank)?;
            partition_by_rank(self.data, ids, dim, rank);
        }
        let mid = start + rank;
        self.partition_groups(node, start..mid, level, f_left, left_full, out)?;
        self.partition_groups(node, mid..end, level, fanout - f_left, right_full, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use hdidx_rand::seeded;
    use hdidx_rand::Rng;

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        let data: Vec<f32> = (0..n * dim).map(|_| rng.gen::<f32>()).collect();
        Dataset::from_flat(dim, data).unwrap()
    }

    #[test]
    fn full_tree_has_expected_shape() {
        let data = random_dataset(1000, 4, 1);
        let topo = Topology::from_capacities(4, 1000, 10, 5).unwrap();
        let tree = bulk_load(&data, &topo).unwrap();
        tree.check_invariants().unwrap();
        assert_eq!(tree.height(), 4);
        assert_eq!(tree.num_entries(), 1000);
        // ceil-based estimate: 100 leaves, 20 level-2, 4 level-3, 1 root.
        assert_eq!(tree.level_profile(), vec![100, 20, 4, 1]);
        // Every leaf holds at most cap_data points, and at least one.
        for leaf in tree.leaves() {
            let cnt = tree.leaf_entries(leaf).len();
            assert!((1..=10).contains(&cnt), "leaf holds {cnt}");
        }
    }

    #[test]
    fn full_tree_leaves_partition_points() {
        let data = random_dataset(500, 3, 2);
        let topo = Topology::from_capacities(3, 500, 8, 4).unwrap();
        let tree = bulk_load(&data, &topo).unwrap();
        let mut seen: Vec<u32> = tree
            .leaves()
            .flat_map(|l| tree.leaf_entries(l).iter().copied())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn leaf_mbrs_contain_their_points() {
        let data = random_dataset(300, 5, 3);
        let topo = Topology::from_capacities(5, 300, 6, 4).unwrap();
        let tree = bulk_load(&data, &topo).unwrap();
        for leaf in tree.leaves() {
            for &id in tree.leaf_entries(leaf) {
                assert!(leaf.rect.contains_point(data.point(id as usize)));
            }
        }
    }

    #[test]
    fn mini_index_replicates_full_topology() {
        let data = random_dataset(2000, 4, 4);
        let topo = Topology::from_capacities(4, 2000, 10, 5).unwrap();
        let full = bulk_load(&data, &topo).unwrap();
        // 25% sample, same virtual full-scale cardinality.
        let mut rng = seeded(5);
        let sample = hdidx_rand::bernoulli_sample(&mut rng, 2000, 0.25);
        let mini = bulk_load_scaled(&data, sample, &topo, 2000.0).unwrap();
        mini.check_invariants().unwrap();
        assert_eq!(mini.height(), full.height());
        // Structural similarity: node counts per level match closely (a few
        // leaves may be empty in the sample and get pruned).
        let fp = full.level_profile();
        let mp = mini.level_profile();
        assert_eq!(fp.len(), mp.len());
        for (f, m) in fp.iter().zip(mp.iter()) {
            assert!(*m <= *f);
            assert!(
                (*m as f64) >= 0.85 * (*f as f64),
                "profile {mp:?} vs {fp:?}"
            );
        }
    }

    #[test]
    fn upper_tree_stops_at_cut_level() {
        let data = random_dataset(2000, 4, 6);
        let topo = Topology::from_capacities(4, 2000, 10, 5).unwrap();
        assert_eq!(topo.height(), 5);
        let sample: Vec<u32> = (0..2000).step_by(4).map(|i| i as u32).collect();
        let upper = bulk_load_upper(&data, sample, &topo, 3).unwrap();
        upper.check_invariants().unwrap();
        assert_eq!(upper.root_level(), 5);
        assert_eq!(upper.leaf_level(), 3);
        assert_eq!(upper.height(), 3);
        // k = nodes at level 3 = ceil(2000/250) = 8.
        assert_eq!(topo.upper_leaf_count(3), 8);
        assert_eq!(upper.num_leaves(), 8);
        // Upper leaves keep all sampled points.
        assert_eq!(upper.num_entries(), 500);
        assert!(bulk_load_upper(&data, vec![0], &topo, 0).is_err());
        assert!(bulk_load_upper(&data, vec![0], &topo, 6).is_err());
    }

    #[test]
    fn subtree_builds_from_mid_level() {
        let data = random_dataset(250, 4, 7);
        let topo = Topology::from_capacities(4, 2000, 10, 5).unwrap();
        // A lower tree rooted at level 3 (capacity 250) holding 250 points.
        let ids: Vec<u32> = (0..250).collect();
        let lower = bulk_load_subtree(&data, ids, &topo, 250.0, 3).unwrap();
        lower.check_invariants().unwrap();
        assert_eq!(lower.root_level(), 3);
        assert_eq!(lower.leaf_level(), 1);
        assert_eq!(lower.level_profile(), vec![25, 5, 1]);
    }

    #[test]
    fn degenerate_inputs() {
        let data = random_dataset(10, 2, 8);
        let topo = Topology::from_capacities(2, 10, 4, 4).unwrap();
        assert!(bulk_load_scaled(&data, vec![], &topo, 10.0).is_err());
        assert!(bulk_load_scaled(&data, vec![0], &topo, f64::NAN).is_err());
        // Single point sample still yields a (pruned) tree.
        let t = bulk_load_scaled(&data, vec![3], &topo, 10.0).unwrap();
        t.check_invariants().unwrap();
        assert_eq!(t.num_entries(), 1);
    }

    #[test]
    fn duplicate_points_build_fine() {
        let data = Dataset::from_flat(2, [1.0, 1.0].repeat(100)).unwrap();
        let topo = Topology::from_capacities(2, 100, 5, 4).unwrap();
        let tree = bulk_load(&data, &topo).unwrap();
        tree.check_invariants().unwrap();
        assert_eq!(tree.num_entries(), 100);
        assert_eq!(tree.num_leaves(), 20);
    }

    #[test]
    fn texture60_scale_shape() {
        // Scaled-down TEXTURE60 shape check on 10k of 60-d points: the tree
        // must build, validate and have every leaf within capacity.
        let data = random_dataset(10_000, 60, 9);
        let topo = Topology::new(60, 10_000, &crate::topology::PageConfig::DEFAULT).unwrap();
        let tree = bulk_load(&data, &topo).unwrap();
        tree.check_invariants().unwrap();
        assert_eq!(tree.height(), topo.height());
        for leaf in tree.leaves() {
            assert!(tree.leaf_entries(leaf).len() <= topo.cap_data());
        }
    }
}
