//! Bulk-loaded M-tree (Ciaccia, Patella & Zezula, VLDB'97): a **metric**
//! access method and another member of the paper's §4.7 fixed-capacity
//! page family.
//!
//! Unlike the R-tree family, the M-tree never looks at coordinates — only
//! at distances. Every node stores a pivot object and a covering radius;
//! search prunes with the triangle inequality. The bulk loader here is a
//! deterministic variant of Ciaccia & Patella's (ADC'98) recursive
//! clustering: choose fanout-many pivots by farthest-point traversal,
//! assign every object to its nearest pivot, recurse per cluster until a
//! cluster fits a data page. Clusters are size-imbalanced (that is
//! inherent to metric partitioning), so subtree heights vary; the tree
//! records per-node subtree heights instead of the R-tree's global levels.
//!
//! The `hdidx-baselines` distance-distribution model (§2.3) is the cost
//! model literature built *for this structure*; the integration tests
//! evaluate it against these real M-tree pages.

use crate::query::AccessStats;
use hdidx_core::{dataset::dist2, Dataset, Error, Result};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One M-tree node.
#[derive(Debug, Clone)]
pub struct MNode {
    /// Id of the pivot (routing object).
    pub pivot: u32,
    /// Covering radius: max distance from the pivot to anything below.
    pub radius: f64,
    /// Children (arena indices) or stored object ids.
    pub kind: MNodeKind,
}

/// Payload of an M-tree node.
#[derive(Debug, Clone)]
pub enum MNodeKind {
    /// Routing node.
    Inner(Vec<u32>),
    /// Data page.
    Leaf(Vec<u32>),
}

/// A bulk-loaded M-tree.
#[derive(Debug, Clone)]
pub struct MTree {
    nodes: Vec<MNode>,
    dim: usize,
}

impl MTree {
    /// Bulk-loads the tree: data pages hold at most `cap_leaf` objects,
    /// routing nodes at most `cap_dir` children.
    ///
    /// # Errors
    ///
    /// Rejects empty data and capacities below 2.
    pub fn bulk_load(data: &Dataset, cap_leaf: usize, cap_dir: usize) -> Result<MTree> {
        if data.is_empty() {
            return Err(Error::EmptyInput("M-tree bulk load over zero points"));
        }
        if cap_leaf < 2 || cap_dir < 2 {
            return Err(Error::invalid(
                "capacity",
                format!("capacities must be >= 2, got leaf {cap_leaf}, dir {cap_dir}"),
            ));
        }
        let ids: Vec<u32> = (0..data.len() as u32).collect();
        let mut tree = MTree {
            nodes: Vec::new(),
            dim: data.dim(),
        };
        let root = tree.build(data, ids, cap_leaf, cap_dir);
        debug_assert_eq!(root, 0);
        Ok(tree)
    }

    fn build(&mut self, data: &Dataset, ids: Vec<u32>, cap_leaf: usize, cap_dir: usize) -> u32 {
        let my_index = self.nodes.len() as u32;
        self.nodes.push(MNode {
            pivot: ids[0],
            radius: 0.0,
            kind: MNodeKind::Leaf(Vec::new()),
        });
        if ids.len() <= cap_leaf {
            let pivot = medoid_approx(data, &ids);
            let radius = ids
                .iter()
                .map(|&i| data.dist2_to(i as usize, data.point(pivot as usize)).sqrt())
                .fold(0.0f64, f64::max);
            self.nodes[my_index as usize] = MNode {
                pivot,
                radius,
                kind: MNodeKind::Leaf(ids),
            };
            return my_index;
        }
        // Deterministic farthest-point pivot selection.
        let fanout = cap_dir.min(ids.len().div_ceil(cap_leaf)).max(2);
        let pivots = farthest_point_pivots(data, &ids, fanout);
        // Assign to nearest pivot.
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); pivots.len()];
        for &id in &ids {
            let p = data.point(id as usize);
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (gi, &pv) in pivots.iter().enumerate() {
                let d = dist2(p, data.point(pv as usize));
                if d < best_d {
                    best_d = d;
                    best = gi;
                }
            }
            groups[best].push(id);
        }
        // Degenerate metric (duplicate-heavy data): if clustering made no
        // progress, split arbitrarily — the objects are indistinguishable
        // by distance, so any balanced assignment is as good as any other.
        if groups.iter().filter(|g| !g.is_empty()).count() <= 1 {
            let chunk = ids.len().div_ceil(fanout);
            groups = ids.chunks(chunk).map(<[u32]>::to_vec).collect();
        }
        let mut children = Vec::new();
        for g in groups.into_iter().filter(|g| !g.is_empty()) {
            children.push(self.build(data, g, cap_leaf, cap_dir));
        }
        // Routing pivot = medoid of child pivots; covering radius from the
        // children's pivots + radii (triangle inequality upper bound).
        let child_pivots: Vec<u32> = children
            .iter()
            .map(|&c| self.nodes[c as usize].pivot)
            .collect();
        let pivot = medoid_approx(data, &child_pivots);
        let pv = data.point(pivot as usize);
        let radius = children
            .iter()
            .map(|&c| {
                let ch = &self.nodes[c as usize];
                data.dist2_to(ch.pivot as usize, pv).sqrt() + ch.radius
            })
            .fold(0.0f64, f64::max);
        self.nodes[my_index as usize] = MNode {
            pivot,
            radius,
            kind: MNodeKind::Inner(children),
        };
        my_index
    }

    /// Node arena (root at index 0).
    pub fn nodes(&self) -> &[MNode] {
        &self.nodes
    }

    /// Leaf pages as `(pivot id, covering radius)` pairs — the geometry
    /// the distance-distribution cost model consumes.
    pub fn leaf_spheres(&self, data: &Dataset) -> Vec<crate::sstree::Sphere> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, MNodeKind::Leaf(_)))
            .map(|n| crate::sstree::Sphere {
                center: data.point(n.pivot as usize).to_vec(),
                radius: n.radius,
            })
            .collect()
    }

    /// Number of data pages.
    pub fn num_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, MNodeKind::Leaf(_)))
            .count()
    }

    /// Checks the covering invariant: every stored object is within its
    /// leaf's radius of the leaf pivot, and every child sphere is inside
    /// its parent's.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InfeasibleTopology`] with the violation.
    pub fn check_invariants(&self, data: &Dataset) -> Result<()> {
        for (idx, node) in self.nodes.iter().enumerate() {
            let pv = data.point(node.pivot as usize);
            match &node.kind {
                MNodeKind::Leaf(ids) => {
                    if ids.is_empty() {
                        return Err(Error::InfeasibleTopology(format!("empty leaf {idx}")));
                    }
                    for &id in ids {
                        let d = data.dist2_to(id as usize, pv).sqrt();
                        if d > node.radius + 1e-5 {
                            return Err(Error::InfeasibleTopology(format!(
                                "object {id} at {d} outside leaf {idx} radius {}",
                                node.radius
                            )));
                        }
                    }
                }
                MNodeKind::Inner(children) => {
                    if children.is_empty() {
                        return Err(Error::InfeasibleTopology(format!("empty inner {idx}")));
                    }
                    for &c in children {
                        let ch = &self.nodes[c as usize];
                        let d = data.dist2_to(ch.pivot as usize, pv).sqrt();
                        if d + ch.radius > node.radius + 1e-5 {
                            return Err(Error::InfeasibleTopology(format!(
                                "child {c} sphere exceeds parent {idx}"
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Best-first k-NN with triangle-inequality pruning
    /// (`lower_bound = max(0, d(q, pivot) - radius)`).
    ///
    /// # Errors
    ///
    /// Rejects `k == 0` and dimension mismatches.
    pub fn knn(&self, data: &Dataset, q: &[f32], k: usize) -> Result<MKnnResult> {
        if k == 0 {
            return Err(Error::invalid("k", "k must be positive"));
        }
        if q.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: q.len(),
            });
        }
        #[derive(Debug, PartialEq)]
        struct F {
            lb: f64,
            node: u32,
        }
        impl Eq for F {}
        impl Ord for F {
            fn cmp(&self, other: &Self) -> Ordering {
                other.lb.total_cmp(&self.lb)
            }
        }
        impl PartialOrd for F {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut stats = AccessStats::default();
        let mut best: Vec<(f64, u32)> = Vec::new();
        let lb_of = |n: &MNode| (data.dist2_to(n.pivot as usize, q).sqrt() - n.radius).max(0.0);
        let mut frontier = BinaryHeap::new();
        frontier.push(F {
            lb: lb_of(&self.nodes[0]),
            node: 0,
        });
        while let Some(F { lb, node }) = frontier.pop() {
            if best.len() == k && lb > best[k - 1].0 {
                break;
            }
            let n = &self.nodes[node as usize];
            match &n.kind {
                MNodeKind::Inner(children) => {
                    stats.dir_accesses += 1;
                    for &c in children {
                        frontier.push(F {
                            lb: lb_of(&self.nodes[c as usize]),
                            node: c,
                        });
                    }
                }
                MNodeKind::Leaf(ids) => {
                    stats.leaf_accesses += 1;
                    for &id in ids {
                        let d = data.dist2_to(id as usize, q).sqrt();
                        best.push((d, id));
                    }
                    best.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    best.truncate(k);
                }
            }
        }
        Ok(MKnnResult {
            neighbors: best,
            stats,
        })
    }
}

/// Result of an M-tree k-NN query.
#[derive(Debug, Clone)]
pub struct MKnnResult {
    /// `(distance, id)` ascending.
    pub neighbors: Vec<(f64, u32)>,
    /// Page accesses.
    pub stats: AccessStats,
}

/// Cheap medoid approximation: the member closest to the centroid.
fn medoid_approx(data: &Dataset, ids: &[u32]) -> u32 {
    debug_assert!(!ids.is_empty());
    let d = data.dim();
    let mut centroid = vec![0.0f64; d];
    for &id in ids {
        for (c, &x) in centroid.iter_mut().zip(data.point(id as usize)) {
            *c += f64::from(x);
        }
    }
    let cf: Vec<f32> = centroid
        .iter()
        .map(|&c| (c / ids.len() as f64) as f32)
        .collect();
    *ids.iter()
        .min_by(|&&a, &&b| {
            dist2(data.point(a as usize), &cf).total_cmp(&dist2(data.point(b as usize), &cf))
        })
        .expect("non-empty")
}

/// Deterministic farthest-point pivot selection (k-center heuristic):
/// start from the medoid, repeatedly add the object farthest from all
/// chosen pivots.
fn farthest_point_pivots(data: &Dataset, ids: &[u32], k: usize) -> Vec<u32> {
    let mut pivots = vec![medoid_approx(data, ids)];
    let mut min_d: Vec<f64> = ids
        .iter()
        .map(|&i| data.dist2_to(i as usize, data.point(pivots[0] as usize)))
        .collect();
    while pivots.len() < k {
        let (far_pos, _) = min_d
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty");
        let next = ids[far_pos];
        if min_d[far_pos] == 0.0 {
            break; // all remaining objects coincide with a pivot
        }
        pivots.push(next);
        for (pos, &i) in ids.iter().enumerate() {
            let d = data.dist2_to(i as usize, data.point(next as usize));
            if d < min_d[pos] {
                min_d[pos] = d;
            }
        }
    }
    pivots
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
    fn builds_and_validates() {
        let data = random_dataset(2_000, 6, 601);
        let tree = MTree::bulk_load(&data, 20, 8).unwrap();
        tree.check_invariants(&data).unwrap();
        assert!(tree.num_leaves() >= 100);
        // Every object stored exactly once.
        let mut all: Vec<u32> = tree
            .nodes()
            .iter()
            .filter_map(|n| match &n.kind {
                MNodeKind::Leaf(ids) => Some(ids.clone()),
                MNodeKind::Inner(_) => None,
            })
            .flatten()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..2_000).collect::<Vec<_>>());
    }

    #[test]
    fn knn_matches_linear_scan() {
        let data = random_dataset(1_500, 8, 602);
        let tree = MTree::bulk_load(&data, 16, 6).unwrap();
        let mut rng = seeded(603);
        for _ in 0..15 {
            let q: Vec<f32> = (0..8).map(|_| rng.gen::<f32>()).collect();
            let got = tree.knn(&data, &q, 9).unwrap();
            let truth = scan_knn(&data, &q, 9).unwrap();
            assert_eq!(got.neighbors.len(), 9);
            for (g, t) in got.neighbors.iter().zip(&truth) {
                assert!((g.0 - t.0).abs() < 1e-6, "{} vs {}", g.0, t.0);
            }
            assert!(got.stats.leaf_accesses >= 1);
        }
    }

    #[test]
    fn pruning_beats_full_leaf_scan() {
        // In low dimensions the triangle-inequality pruning must skip most
        // leaves for small k.
        let data = random_dataset(5_000, 2, 604);
        let tree = MTree::bulk_load(&data, 25, 10).unwrap();
        let q = data.point(9).to_vec();
        let res = tree.knn(&data, &q, 3).unwrap();
        assert!(
            (res.stats.leaf_accesses as usize) < tree.num_leaves() / 3,
            "visited {} of {}",
            res.stats.leaf_accesses,
            tree.num_leaves()
        );
    }

    #[test]
    fn duplicate_objects_handled() {
        let data = Dataset::from_flat(2, [1.0, 1.0].repeat(200)).unwrap();
        let tree = MTree::bulk_load(&data, 10, 4).unwrap();
        tree.check_invariants(&data).unwrap();
        let res = tree.knn(&data, &[1.0, 1.0], 5).unwrap();
        assert_eq!(res.neighbors.len(), 5);
        assert!(res.neighbors.iter().all(|&(d, _)| d == 0.0));
    }

    #[test]
    fn leaf_spheres_cover_members() {
        let data = random_dataset(800, 5, 605);
        let tree = MTree::bulk_load(&data, 15, 5).unwrap();
        let spheres = tree.leaf_spheres(&data);
        assert_eq!(spheres.len(), tree.num_leaves());
        for s in &spheres {
            assert!(s.radius >= 0.0);
        }
    }

    #[test]
    fn validation() {
        let data = random_dataset(50, 3, 606);
        assert!(MTree::bulk_load(&data, 1, 4).is_err());
        assert!(MTree::bulk_load(&data, 4, 1).is_err());
        let empty = Dataset::with_capacity(3, 0).unwrap();
        assert!(MTree::bulk_load(&empty, 4, 4).is_err());
        let tree = MTree::bulk_load(&data, 8, 4).unwrap();
        assert!(tree.knn(&data, &[0.0; 3], 0).is_err());
        assert!(tree.knn(&data, &[0.0; 2], 3).is_err());
    }
}
