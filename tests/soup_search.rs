//! Property suite for the best-first k-NN search through the `TreeSoup`
//! (`vamsplit::query::knn_gated`). An inner node's children are priced by
//! one pass of its soup's kernel, which hands on each passing lane's
//! MINDIST². The search must be the one that prices every child box with
//! `HyperRect::mindist2`, bit for bit. The oracle below is that
//! RTree-walking search, kept here with the branchy MINDIST² it used.
//!
//! Per query and at every supported ISA, the two searches must agree on
//! the neighbours (distance bits and ids), the `AccessStats`, the bound
//! handed to the gate, and the route the served search
//! (`serve::knn::knn_radius_with`) takes. The trees cover heights 1 to 5,
//! dimensions 1, 3, 8, 9, 48 and 64, duplicate points, grid data whose
//! sibling boxes tie exactly on MINDIST², k of 1, 21 and more than n, and
//! centres with a +∞, −∞ or NaN coordinate.
//!
//! ISAs are pinned through the `*_with` entry points only, so the suite
//! runs the same under `HDIDX_SIMD=scalar` and `auto`.

use hdidx_check::{check, prop_assert, Config, Verdict};
use hdidx_rand::{seeded, Rng};
use hdidx_repro::core::knn::KBest;
use hdidx_repro::core::simd::{self, Isa};
use hdidx_repro::core::{Dataset, HyperRect};
use hdidx_repro::serve::knn::{knn_radius_with, KnnRoute, SCAN_FALLBACK_SHARE};
use hdidx_repro::vamsplit::bulkload::bulk_load;
use hdidx_repro::vamsplit::query::{knn_gated, AccessStats, TreeSoup};
use hdidx_repro::vamsplit::topology::Topology;
use hdidx_repro::vamsplit::tree::{NodeKind, RTree};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

const DIMS: &[usize] = &[1, 3, 8, 9, 48, 64];

/// The MINDIST² the RTree-walking search priced each child with.
fn mindist2_branchy(r: &HyperRect, q: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    for ((&lo, &hi), &x) in r.lo().iter().zip(r.hi()).zip(q) {
        let (x, lo, hi) = (f64::from(x), f64::from(lo), f64::from(hi));
        let d = if x < lo {
            lo - x
        } else if x > hi {
            x - hi
        } else {
            continue;
        };
        acc += d * d;
    }
    acc
}

#[derive(PartialEq)]
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

/// What one search reports: its neighbours and page accesses, or `None`
/// when the gate abandoned it.
type Outcome = Option<(Vec<(f64, u32)>, AccessStats)>;

/// The RTree-walking best-first search: every child of an expanded node
/// priced one box at a time, queued until the heap fills and then when
/// its MINDIST² is at most the bound.
fn oracle_knn_gated(
    isa: Isa,
    tree: &RTree,
    data: &Dataset,
    q: &[f32],
    k: usize,
    gate: impl FnOnce(f64) -> bool,
) -> Outcome {
    let mut stats = AccessStats::default();
    let mut best = KBest::new(isa, k);
    let mut gate = Some(gate);
    let mut frontier = BinaryHeap::new();
    frontier.push(Frontier {
        mindist2: mindist2_branchy(&tree.root().rect, q),
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
                    let md = mindist2_branchy(&tree.nodes()[c as usize].rect, q);
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
                            return None;
                        }
                    }
                }
            }
        }
    }
    Some((best.into_sorted(), stats))
}

/// Neighbours as `(distance bits, id)`, so NaN and the sign of zero
/// compare too.
fn bits(nn: &[(f64, u32)]) -> Vec<(u64, u32)> {
    nn.iter().map(|&(d, id)| (d.to_bits(), id)).collect()
}

/// Points of one of three kinds: clustered floats (`kind` 0), the same
/// with every point drawn from a pool of `n / 4 + 1` (1), or small
/// integers on a grid (2), where boxes share faces and distances tie.
fn dataset(n: usize, dim: usize, seed: u64, kind: u32) -> Dataset {
    let mut rng = seeded(seed);
    let distinct = if kind == 1 { n / 4 + 1 } else { n };
    let pool: Vec<Vec<f32>> = (0..distinct)
        .map(|i| {
            let cluster = (i % 5) as f32 * 0.2;
            (0..dim)
                .map(|_| match kind {
                    2 => rng.gen_range(0..6u32) as f32,
                    _ => cluster + 0.15 * rng.gen::<f32>(),
                })
                .collect()
        })
        .collect();
    let flat = (0..n)
        .flat_map(|i| {
            pool[if kind == 1 {
                rng.gen_range(0..distinct)
            } else {
                i
            }]
            .clone()
        })
        .collect();
    Dataset::from_flat(dim, flat).unwrap()
}

fn tree_of(data: &Dataset, cap_data: usize, cap_dir: usize) -> RTree {
    let topo = Topology::from_capacities(data.dim(), data.len(), cap_data, cap_dir).unwrap();
    bulk_load(data, &topo).unwrap()
}

/// Centres: data points, fresh points, grid points and points equidistant
/// from many boxes (every coordinate on one half-integer), and data points
/// with one coordinate set to +∞, −∞ or NaN.
fn centres(data: &Dataset, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = seeded(seed);
    let dim = data.dim();
    let mut out = Vec::new();
    for _ in 0..2 {
        out.push(data.point(rng.gen_range(0..data.len())).to_vec());
        out.push((0..dim).map(|_| rng.gen::<f32>() * 1.4 - 0.2).collect());
        out.push((0..dim).map(|_| rng.gen_range(0..7u32) as f32).collect());
    }
    out.push(vec![2.5; dim]);
    out.push(vec![-1.0; dim]);
    for x in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
        let mut c = data.point(rng.gen_range(0..data.len())).to_vec();
        c[rng.gen_range(0..dim)] = x;
        out.push(c);
    }
    out
}

/// Both searches on one tree, at every supported ISA, for every centre and
/// k ∈ {1, 21, n + 3}.
fn searches_agree(tree: &RTree, data: &Dataset, centres: &[Vec<f32>]) -> Verdict {
    let soup = TreeSoup::new(tree).unwrap();
    let max_leaves = SCAN_FALLBACK_SHARE * soup.num_leaves() as f64;
    for q in centres {
        for k in [1usize, 21, data.len() + 3] {
            for isa in simd::supported() {
                let label = || format!("{isa} k {k} centre {q:?}");
                let (mut got_bound, mut want_bound) = (None, None);
                let got = knn_gated(isa, tree, &soup, data, q, k, |b| {
                    got_bound = Some(b.to_bits());
                    true
                })
                .unwrap()
                .map(|r| (r.neighbors, r.stats));
                let want = oracle_knn_gated(isa, tree, data, q, k, |b| {
                    want_bound = Some(b.to_bits());
                    true
                });
                let (got, want) = (got.unwrap(), want.unwrap());
                prop_assert!(
                    bits(&got.0) == bits(&want.0),
                    "{}: neighbours {:?} vs {:?}",
                    label(),
                    got.0,
                    want.0
                );
                prop_assert!(
                    got.1 == want.1,
                    "{}: stats {:?} vs {:?}",
                    label(),
                    got.1,
                    want.1
                );
                prop_assert!(
                    got_bound == want_bound,
                    "{}: gate bound {got_bound:?} vs {want_bound:?}",
                    label()
                );
                // The served route: the oracle gated exactly as the server
                // gates, against the same leaf count.
                let (_, route) = knn_radius_with(isa, tree, &soup, data, q, k).unwrap();
                let oracle_route = match oracle_knn_gated(isa, tree, data, q, k, |b| {
                    soup.count_intersecting_with(isa, q, b) as f64 <= max_leaves
                }) {
                    Some(_) => KnnRoute::Index,
                    None => KnnRoute::Scan,
                };
                prop_assert!(
                    route == oracle_route,
                    "{}: route {route:?} vs {oracle_route:?}",
                    label()
                );
            }
        }
    }
    Verdict::Pass
}

#[test]
fn soup_search_equals_the_box_by_box_search() {
    check(
        "soup_search_equals_the_box_by_box_search",
        &Config::with_cases(32),
        |rng| {
            (
                rng.gen_range(0..DIMS.len()),
                rng.gen_range(1..=700usize),
                rng.gen_range(2..=12usize),
                rng.gen_range(2..=40usize),
                rng.next_u64(),
                rng.gen_range(0..3u32),
            )
        },
        |&(d, n, cap_data, cap_dir, seed, kind)| {
            let (dim, n) = (DIMS[d % DIMS.len()], n.max(1));
            let data = dataset(n, dim, seed, kind % 3);
            let tree = tree_of(&data, cap_data.max(2), cap_dir.max(2));
            searches_agree(&tree, &data, &centres(&data, seed ^ 0x5eed))
        },
    );
}

/// Heights 1 to 5 at each of `dims`, the data kind rotating with the
/// dimension and the height.
fn every_height_at(dims: &[usize]) {
    // (points, data capacity, directory capacity, height); the height-2
    // shape puts 100 leaves under the root, so one soup spans seven
    // 16-lane groups and two 64-leaf scalar blocks.
    let shapes = [
        (5, 8, 8, 1),
        (600, 6, 120, 2),
        (1000, 4, 16, 3),
        (1000, 3, 10, 4),
        (1000, 3, 6, 5),
    ];
    for &dim in dims {
        let i = DIMS.iter().position(|&d| d == dim).unwrap();
        for &(n, cap_data, cap_dir, height) in &shapes {
            let kind = ((i + height) % 3) as u32;
            let data = dataset(n, dim, 60 + i as u64, kind);
            let tree = tree_of(&data, cap_data, cap_dir);
            assert_eq!(tree.height(), height, "shape ({n}, {cap_data}, {cap_dir})");
            let verdict = searches_agree(&tree, &data, &centres(&data, 9 + height as u64));
            assert_eq!(
                verdict,
                Verdict::Pass,
                "dim {dim}, height {height}, kind {kind}"
            );
        }
    }
}

#[test]
fn every_height_and_data_kind_is_covered_at_low_dimensions() {
    every_height_at(&DIMS[..4]);
}

#[test]
fn every_height_and_data_kind_is_covered_at_high_dimensions() {
    every_height_at(&DIMS[4..]);
}

#[test]
fn grid_data_has_exact_sibling_mindist_ties() {
    // The tie-break on the tree node id decides the pop order here, so the
    // suite exercises it: some expanded node has two children at the same
    // MINDIST² from a grid centre.
    let data = dataset(1000, 3, 5, 2);
    let tree = tree_of(&data, 4, 6);
    let q = [2.5f32, 2.5, 2.5];
    let tied = tree.nodes().iter().any(|n| match &n.kind {
        NodeKind::Inner { children } => {
            let mut d: Vec<u64> = children
                .iter()
                .map(|&c| mindist2_branchy(&tree.nodes()[c as usize].rect, &q).to_bits())
                .collect();
            d.sort_unstable();
            d.windows(2).any(|w| w[0] == w[1])
        }
        NodeKind::Leaf { .. } => false,
    });
    assert!(tied, "no two siblings tie on MINDIST²");
    assert_eq!(searches_agree(&tree, &data, &[q.to_vec()]), Verdict::Pass);
}
