//! Bulk-loaded k-d-B-tree-style index: identical topology arithmetic to the
//! VAMSplit loader but splitting at the **spatial midpoint** of the current
//! bounding box along its longest dimension, instead of at a rank along the
//! maximum-variance dimension.
//!
//! The paper's §4.7 argues the sampling predictor applies to any structure
//! organizing data in fixed-capacity pages; this loader provides a second
//! member of that family (and is also exactly the page layout the *uniform*
//! baseline model of Berchtold et al. assumes, making it a useful ablation:
//! on mid-split trees the uniform model is accurate, on VAMSplit trees it
//! collapses).

use crate::topology::Topology;
use crate::tree::{Node, NodeKind, RTree};
use hdidx_core::{Dataset, Error, HyperRect, Result};

/// Builds a mid-split tree over all points with the same level structure as
/// the VAMSplit loader (fanout `ceil(n/capacity)` per node), but partitioning
/// space rather than data: each binary step cuts the current box in half
/// along its longest side and routes points by comparison with the midpoint.
///
/// # Errors
///
/// Propagates shape errors; rejects dimension mismatches and empty data.
pub fn bulk_load_midsplit(data: &Dataset, topo: &Topology) -> Result<RTree> {
    if data.is_empty() {
        return Err(Error::EmptyInput("mid-split bulk load over zero points"));
    }
    if data.dim() != topo.dim() {
        return Err(Error::DimensionMismatch {
            expected: topo.dim(),
            actual: data.dim(),
        });
    }
    let ids: Vec<u32> = (0..data.len() as u32).collect();
    let bounds = data.mbr()?;
    let mut b = MidSplitBuilder {
        data,
        topo,
        nodes: Vec::new(),
        ids,
    };
    let root = b.build(0, data.len(), topo.height(), &bounds);
    debug_assert_eq!(root, Some(0));
    let MidSplitBuilder { nodes, ids, .. } = b;
    RTree::from_arenas(data.dim(), topo.height(), 1, nodes, ids)
}

struct MidSplitBuilder<'a> {
    data: &'a Dataset,
    topo: &'a Topology,
    nodes: Vec<Node>,
    ids: Vec<u32>,
}

impl<'a> MidSplitBuilder<'a> {
    fn build(&mut self, start: usize, end: usize, level: usize, bounds: &HyperRect) -> Option<u32> {
        if start == end {
            return None;
        }
        let my_index = self.nodes.len() as u32;
        self.nodes.push(Node {
            level: level as u32,
            rect: HyperRect::point(self.data.point(self.ids[start] as usize)),
            kind: NodeKind::Leaf {
                entries: start as u32..end as u32,
            },
        });
        // Mid-splitting does not guarantee capacity bounds on skewed data:
        // a level-1 cell keeps however many points its region holds (the
        // tests document the imbalance this creates on skewed inputs).
        let n_here = end - start;
        if level == 1 {
            let rect = self.data.mbr_of(&self.ids[start..end]).expect("non-empty");
            self.nodes[my_index as usize].rect = rect;
            return Some(my_index);
        }
        let fanout = self.topo.fanout_for(level, n_here as f64);
        let mut groups = Vec::with_capacity(fanout);
        self.split_space(start, end, fanout, bounds, &mut groups);
        let mut children = Vec::new();
        let mut rect: Option<HyperRect> = None;
        for (g_start, g_end, g_bounds) in groups {
            if let Some(child) = self.build(g_start, g_end, level - 1, &g_bounds) {
                let child_rect = self.nodes[child as usize].rect.clone();
                match rect.as_mut() {
                    Some(r) => r.expand_to_rect(&child_rect),
                    None => rect = Some(child_rect),
                }
                children.push(child);
            }
        }
        debug_assert!(!children.is_empty());
        let node = &mut self.nodes[my_index as usize];
        node.rect = rect.expect("at least one child");
        node.kind = NodeKind::Inner { children };
        Some(my_index)
    }

    /// Recursively halves `bounds` along its longest side, routing the ids
    /// in `[start, end)` by midpoint comparison, until `fanout` space cells
    /// are produced.
    fn split_space(
        &mut self,
        start: usize,
        end: usize,
        fanout: usize,
        bounds: &HyperRect,
        out: &mut Vec<(usize, usize, HyperRect)>,
    ) {
        if fanout <= 1 {
            out.push((start, end, bounds.clone()));
            return;
        }
        let dim = bounds.longest_dim();
        let mid = bounds.center(dim) as f32;
        let (left_box, right_box) = bounds.split_at(dim, mid);
        // Stable two-pointer partition by midpoint.
        let ids = &mut self.ids[start..end];
        let mut cut = 0usize;
        for i in 0..ids.len() {
            if self.data.point(ids[i] as usize)[dim] < mid {
                ids.swap(cut, i);
                cut += 1;
            }
        }
        let f_left = fanout / 2;
        self.split_space(start, start + cut, f_left, &left_box, out);
        self.split_space(start + cut, end, fanout - f_left, &right_box, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{knn, scan_knn};
    use hdidx_rand::seeded;
    use hdidx_rand::Rng;

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    #[test]
    fn midsplit_builds_and_answers_knn() {
        let data = random_dataset(1000, 4, 21);
        let topo = Topology::from_capacities(4, 1000, 10, 5).unwrap();
        let tree = bulk_load_midsplit(&data, &topo).unwrap();
        tree.check_invariants().unwrap();
        assert_eq!(tree.num_entries(), 1000);
        let mut rng = seeded(22);
        for _ in 0..10 {
            let q: Vec<f32> = (0..4).map(|_| rng.gen::<f32>()).collect();
            let res = knn(&tree, &data, &q, 5).unwrap();
            let truth = scan_knn(&data, &q, 5).unwrap();
            for (a, b) in res.neighbors.iter().zip(truth.iter()) {
                assert!((a.0 - b.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn midsplit_on_uniform_data_has_near_equal_leaves() {
        // Mid-splitting uniform data should give balanced pages — the very
        // assumption the uniform baseline model makes.
        let data = random_dataset(4096, 2, 23);
        let topo = Topology::from_capacities(2, 4096, 16, 8).unwrap();
        let tree = bulk_load_midsplit(&data, &topo).unwrap();
        let sizes: Vec<usize> = tree.leaves().map(|l| tree.leaf_entries(l).len()).collect();
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        // Every leaf within 4x of the mean — loose, but catches collapse.
        assert!(sizes.iter().all(|&s| (s as f64) < 4.0 * avg));
    }

    #[test]
    fn midsplit_validation() {
        let data = random_dataset(10, 2, 24);
        let topo = Topology::from_capacities(3, 10, 4, 4).unwrap();
        assert!(bulk_load_midsplit(&data, &topo).is_err()); // dim mismatch
        let empty = Dataset::with_capacity(2, 0).unwrap();
        let topo2 = Topology::from_capacities(2, 10, 4, 4).unwrap();
        assert!(bulk_load_midsplit(&empty, &topo2).is_err());
    }
}
