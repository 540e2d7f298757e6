//! Optimal multi-step k-NN search (Seidl & Kriegel, SIGMOD'98).
//!
//! Setting of the paper's §6.2: the index stores only a *projection* of
//! the data (a prefix of the KLT-ordered dimensions); the full vectors
//! live in an object server. Projected distances lower-bound full
//! distances, so an **optimal** multi-step algorithm ranks candidates by
//! their index-space lower bound, refines them against the object server,
//! and stops as soon as the next lower bound exceeds the current k-th
//! exact distance. Seidl & Kriegel prove this accesses the minimal
//! possible number of candidates; the same argument makes its *index leaf
//! accesses* exactly the pages whose projected MINDIST is within the
//! full-space k-NN radius — the identity the Figure-14 experiment and the
//! prediction model rely on (verified in this module's tests).

use crate::query::AccessStats;
use crate::tree::{NodeKind, RTree};
use hdidx_core::{dataset::dist2, Dataset, Error, Result};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of a multi-step k-NN query.
#[derive(Debug, Clone)]
pub struct MultiStepResult {
    /// Exact k nearest neighbors as `(full-space distance, id)`, ascending.
    pub neighbors: Vec<(f64, u32)>,
    /// Index page accesses.
    pub stats: AccessStats,
    /// Number of candidates refined against the object server (exact
    /// distance computations) — the "feature page accesses" driver of the
    /// paper's Figure 14 companion plot.
    pub refined: u64,
}

impl MultiStepResult {
    /// Distance to the k-th neighbor.
    pub fn radius(&self) -> f64 {
        self.neighbors.last().map(|&(d, _)| d).unwrap_or(0.0)
    }
}

#[derive(Debug, PartialEq)]
enum Entry {
    Node { node: u32 },
    Candidate { id: u32 },
}

#[derive(Debug, PartialEq)]
struct Ranked {
    key: f64, // squared lower-bound distance
    entry: Entry,
}
impl Eq for Ranked {}
impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by key.
        other.key.total_cmp(&self.key)
    }
}
impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, PartialEq)]
struct Best {
    dist2: f64,
    id: u32,
}
impl Eq for Best {}
impl Ord for Best {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist2
            .total_cmp(&other.dist2)
            .then(self.id.cmp(&other.id))
    }
}
impl PartialOrd for Best {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Optimal multi-step k-NN: `index` is built over `projected` (a prefix
/// projection of `full`); exact distances come from `full`. `q_full` is
/// the query in full space; its prefix is used against the index.
///
/// # Errors
///
/// Rejects `k == 0`, dimension mismatches between the index/projection and
/// the query, and a projection that is not a prefix of the full space.
pub fn multistep_knn(
    index: &RTree,
    projected: &Dataset,
    full: &Dataset,
    q_full: &[f32],
    k: usize,
) -> Result<MultiStepResult> {
    if k == 0 {
        return Err(Error::invalid("k", "k must be positive"));
    }
    if index.dim() != projected.dim() {
        return Err(Error::DimensionMismatch {
            expected: index.dim(),
            actual: projected.dim(),
        });
    }
    if projected.dim() > full.dim() || projected.len() != full.len() {
        return Err(Error::invalid(
            "projected",
            "must be a prefix projection of the full dataset",
        ));
    }
    if q_full.len() != full.dim() {
        return Err(Error::DimensionMismatch {
            expected: full.dim(),
            actual: q_full.len(),
        });
    }
    let q_proj = &q_full[..projected.dim()];
    let mut stats = AccessStats::default();
    let mut refined = 0u64;
    let mut best: BinaryHeap<Best> = BinaryHeap::with_capacity(k + 1);
    let mut frontier: BinaryHeap<Ranked> = BinaryHeap::new();
    frontier.push(Ranked {
        key: index.root().rect.mindist2(q_proj),
        entry: Entry::Node { node: 0 },
    });
    while let Some(Ranked { key, entry }) = frontier.pop() {
        if best.len() == k && key > best.peek().expect("k > 0").dist2 {
            break; // optimal stopping: lower bound exceeds k-th exact
        }
        match entry {
            Entry::Node { node } => {
                let n = &index.nodes()[node as usize];
                match &n.kind {
                    NodeKind::Inner { children } => {
                        stats.dir_accesses += 1;
                        for &c in children {
                            frontier.push(Ranked {
                                key: index.nodes()[c as usize].rect.mindist2(q_proj),
                                entry: Entry::Node { node: c },
                            });
                        }
                    }
                    NodeKind::Leaf { .. } => {
                        stats.leaf_accesses += 1;
                        for &id in index.leaf_entries(n) {
                            frontier.push(Ranked {
                                key: projected.dist2_to(id as usize, q_proj),
                                entry: Entry::Candidate { id },
                            });
                        }
                    }
                }
            }
            Entry::Candidate { id } => {
                // Refine against the object server.
                refined += 1;
                let d2 = dist2(full.point(id as usize), q_full);
                if best.len() < k {
                    best.push(Best { dist2: d2, id });
                } else if d2 < best.peek().expect("non-empty").dist2 {
                    best.pop();
                    best.push(Best { dist2: d2, id });
                }
            }
        }
    }
    let mut neighbors: Vec<(f64, u32)> = best
        .into_sorted_vec()
        .into_iter()
        .map(|b| (b.dist2.sqrt(), b.id))
        .collect();
    neighbors.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    Ok(MultiStepResult {
        neighbors,
        stats,
        refined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulkload::bulk_load;
    use crate::query::{count_sphere_intersections, scan_knn};
    use crate::topology::Topology;
    use hdidx_rand::seeded;
    use hdidx_rand::Rng;

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    fn setup(n: usize, dim: usize, keep: usize, seed: u64) -> (RTree, Dataset, Dataset) {
        let full = random_dataset(n, dim, seed);
        let proj = full.project_prefix(keep).unwrap();
        let topo = Topology::from_capacities(keep, n, 10, 5).unwrap();
        let tree = bulk_load(&proj, &topo).unwrap();
        (tree, proj, full)
    }

    #[test]
    fn multistep_returns_exact_neighbors() {
        let (tree, proj, full) = setup(1500, 12, 5, 31);
        let mut rng = seeded(32);
        for _ in 0..15 {
            let q: Vec<f32> = (0..12).map(|_| rng.gen::<f32>()).collect();
            let got = multistep_knn(&tree, &proj, &full, &q, 7).unwrap();
            let truth = scan_knn(&full, &q, 7).unwrap();
            for (g, t) in got.neighbors.iter().zip(&truth) {
                assert!((g.0 - t.0).abs() < 1e-9, "{} vs {}", g.0, t.0);
            }
        }
    }

    #[test]
    fn index_accesses_equal_projected_sphere_intersections() {
        // The Figure-14 counting identity: the optimal algorithm reads
        // exactly the index pages whose projected MINDIST is within the
        // full-space k-NN radius.
        let (tree, proj, full) = setup(2000, 10, 4, 33);
        let pages = tree.leaf_rects();
        let mut rng = seeded(34);
        for _ in 0..15 {
            let q: Vec<f32> = (0..10).map(|_| rng.gen::<f32>()).collect();
            let got = multistep_knn(&tree, &proj, &full, &q, 9).unwrap();
            let expect = count_sphere_intersections(&pages, &q[..4], got.radius());
            assert_eq!(got.stats.leaf_accesses, expect);
        }
    }

    #[test]
    fn refinements_bounded_and_optimal_vs_scan() {
        let (tree, proj, full) = setup(1500, 8, 3, 35);
        let q: Vec<f32> = vec![0.5; 8];
        let got = multistep_knn(&tree, &proj, &full, &q, 5).unwrap();
        // Optimality: refines at least k and far fewer than all points.
        assert!(got.refined >= 5);
        assert!(got.refined < 1500);
        // Projection to full dims degenerates to plain k-NN.
        let proj_full = full.clone();
        let topo = Topology::from_capacities(8, 1500, 10, 5).unwrap();
        let tree_full = bulk_load(&proj_full, &topo).unwrap();
        let direct = multistep_knn(&tree_full, &proj_full, &full, &q, 5).unwrap();
        let truth = scan_knn(&full, &q, 5).unwrap();
        for (g, t) in direct.neighbors.iter().zip(&truth) {
            assert!((g.0 - t.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fewer_index_dims_means_more_refinements() {
        // Weaker lower bounds => more candidates fetched from the object
        // server: the §6.2 trade-off.
        let full = random_dataset(3000, 16, 36);
        let refine_count = |keep: usize| {
            let proj = full.project_prefix(keep).unwrap();
            let topo = Topology::from_capacities(keep, 3000, 10, 5).unwrap();
            let tree = bulk_load(&proj, &topo).unwrap();
            let mut total = 0u64;
            for i in 0..10 {
                let q = full.point(i * 17).to_vec();
                total += multistep_knn(&tree, &proj, &full, &q, 9).unwrap().refined;
            }
            total
        };
        let low = refine_count(2);
        let high = refine_count(12);
        assert!(low > high, "2 dims refined {low}, 12 dims refined {high}");
    }

    #[test]
    fn validation() {
        let (tree, proj, full) = setup(100, 6, 3, 37);
        let q = vec![0.5f32; 6];
        assert!(multistep_knn(&tree, &proj, &full, &q, 0).is_err());
        assert!(multistep_knn(&tree, &proj, &full, &q[..3], 5).is_err());
        assert!(multistep_knn(&tree, &full, &proj, &q, 5).is_err());
        let other = random_dataset(99, 6, 38);
        assert!(multistep_knn(&tree, &proj, &other, &q, 5).is_err());
    }
}
