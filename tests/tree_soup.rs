//! Property suite for `TreeSoup`, the served leaf count through the
//! directory. On bulk-loaded trees of heights 1 to 5, at dimensions 1 to
//! 64, with duplicate points and with nodes of more than 64 children (one
//! node spanning several SIMD lane groups and scalar blocks), and on trees
//! reloaded from a snapshot, every count must equal the flat `LeafSoup`'s
//! at the same ISA and the AoS oracle `count_sphere_intersections`, for
//! zero, tangent, infinite and NaN radii and for centers with infinite or
//! NaN coordinates. A crafted arena with a NaN bound must be refused with
//! a typed error, never counted.
//!
//! ISAs are pinned through the `*_with` entry points only, so the suite
//! runs the same under `HDIDX_SIMD=scalar` and `auto`.

use hdidx_check::{check, prop_assert, prop_assert_eq, Config, Verdict};
use hdidx_rand::{seeded, Rng};
use hdidx_repro::core::{simd, Dataset, Error, HyperRect, LeafSoup};
use hdidx_repro::diskio::DiskOptions;
use hdidx_repro::store::{load_index, persist_index, FileStore, InjectedFs};
use hdidx_repro::vamsplit::bulkload::bulk_load;
use hdidx_repro::vamsplit::query::{count_sphere_intersections, TreeSoup};
use hdidx_repro::vamsplit::topology::Topology;
use hdidx_repro::vamsplit::tree::{Node, NodeKind, RTree};
use std::path::Path;
use std::sync::Arc;

const DIMS: &[usize] = &[1, 2, 3, 8, 9, 48, 64];

/// Clustered points in roughly `[0, 1]^dim`; with `dups`, every point is
/// drawn from a pool of `n / 4 + 1` distinct ones, so leaves and whole
/// subtrees repeat the same boxes.
fn dataset(n: usize, dim: usize, seed: u64, dups: bool) -> Dataset {
    let mut rng = seeded(seed);
    let distinct = if dups { n / 4 + 1 } else { n };
    let pool: Vec<Vec<f32>> = (0..distinct)
        .map(|i| {
            let cluster = (i % 5) as f32 * 0.2;
            (0..dim)
                .map(|_| cluster + 0.15 * rng.gen::<f32>())
                .collect()
        })
        .collect();
    let flat = (0..n)
        .flat_map(|i| pool[if dups { rng.gen_range(0..distinct) } else { i }].clone())
        .collect();
    Dataset::from_flat(dim, flat).unwrap()
}

fn tree_of(data: &Dataset, cap_data: usize, cap_dir: usize) -> RTree {
    let topo = Topology::from_capacities(data.dim(), data.len(), cap_data, cap_dir).unwrap();
    bulk_load(data, &topo).unwrap()
}

/// A leaf whose bound in `dim` equals the root's on that side (`hi` or
/// not), so that every box on its root path shares the face.
fn face_leaf(tree: &RTree, dim: usize, hi: bool) -> &HyperRect {
    let root = &tree.root().rect;
    let bound = |r: &HyperRect| if hi { r.hi()[dim] } else { r.lo()[dim] };
    tree.leaves()
        .map(|n| &n.rect)
        .find(|r| bound(r) == bound(root))
        .expect("some leaf attains every root bound")
}

/// A ball tangent to `rect` across its face in `dim`: the center sits in
/// the box in every other dimension and `gap` beyond the face, and the
/// radius is the kernel's own per-dimension term, so MINDIST² equals r²
/// bit for bit.
fn tangent_ball(rect: &HyperRect, dim: usize, hi: bool, gap: f32) -> (Vec<f32>, f64) {
    let mut center = rect.lo().to_vec();
    let face = if hi { rect.hi()[dim] } else { rect.lo()[dim] };
    center[dim] = if hi { face + gap } else { face - gap };
    let radius = if hi {
        f64::from(center[dim]) - f64::from(face)
    } else {
        f64::from(face) - f64::from(center[dim])
    };
    (center, radius)
}

/// Balls across the decision range: random centers and radii, zero
/// radii at data points, balls tangent to the tree's outer faces (and so
/// to every directory box above the touching leaf), infinite and NaN
/// radii, and centers with an infinite or NaN coordinate.
fn balls(tree: &RTree, data: &Dataset, seed: u64) -> Vec<(Vec<f32>, f64)> {
    let mut rng = seeded(seed);
    let dim = tree.dim();
    let spread = 0.3 * (dim as f64).sqrt();
    let mut out = Vec::new();
    for _ in 0..12 {
        let c: Vec<f32> = (0..dim).map(|_| rng.gen::<f32>() * 1.4 - 0.2).collect();
        out.push((c, rng.gen::<f64>() * spread));
    }
    for _ in 0..4 {
        let p = data.point(rng.gen_range(0..data.len())).to_vec();
        out.push((p.clone(), 0.0));
        out.push((p, rng.gen::<f64>() * spread));
    }
    for _ in 0..4 {
        let j = rng.gen_range(0..dim);
        let hi = rng.gen_bool(0.5);
        let gap = 0.01 + rng.gen::<f32>() * 0.5;
        out.push(tangent_ball(face_leaf(tree, j, hi), j, hi, gap));
        let leaf = tree
            .leaves()
            .nth(rng.gen_range(0..tree.num_leaves()))
            .unwrap();
        out.push(tangent_ball(&leaf.rect, j, hi, gap));
    }
    let p = data.point(0).to_vec();
    out.push((p.clone(), f64::INFINITY));
    out.push((p.clone(), f64::NAN));
    for x in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
        let mut c = p.clone();
        c[rng.gen_range(0..dim)] = x;
        out.push((c.clone(), rng.gen::<f64>() * spread));
        out.push((c, f64::INFINITY));
    }
    out
}

/// The count identity on one tree: at every supported ISA the tree count
/// equals the flat soup's and the AoS oracle's, for every radius. All
/// three decide `MINDIST² <= r²`, so a NaN radius meets no box.
fn counts_agree(tree: &RTree, balls: &[(Vec<f32>, f64)]) -> Verdict {
    let soup = TreeSoup::new(tree).unwrap();
    let rects = tree.leaf_rects();
    let flat = LeafSoup::from_rects(tree.dim(), &rects).unwrap();
    prop_assert_eq!(soup.num_leaves(), rects.len());
    for (c, r) in balls {
        let r2 = r * r;
        for isa in simd::supported() {
            let got = soup.count_intersecting_with(isa, c, r2);
            let want = flat.count_intersecting_with(isa, c, r2);
            prop_assert!(
                got == want,
                "{isa}: tree {got} vs flat {want} at r {r}, center {c:?}"
            );
            let aos = count_sphere_intersections(&rects, c, *r);
            prop_assert!(got == aos, "{isa}: tree {got} vs oracle {aos} at r {r}");
        }
    }
    Verdict::Pass
}

#[test]
fn tree_counts_equal_the_flat_soup_and_the_oracle() {
    check(
        "tree_counts_equal_the_flat_soup_and_the_oracle",
        &Config::with_cases(48),
        |rng| {
            (
                rng.gen_range(0..DIMS.len()),
                rng.gen_range(1..=1500usize),
                rng.gen_range(2..=12usize),
                rng.gen_range(2..=100usize),
                rng.next_u64(),
                rng.gen_bool(0.3),
            )
        },
        |&(d, n, cap_data, cap_dir, seed, dups)| {
            let (dim, n) = (DIMS[d % DIMS.len()], n.max(1));
            let data = dataset(n, dim, seed, dups);
            let tree = tree_of(&data, cap_data.max(2), cap_dir.max(2));
            counts_agree(&tree, &balls(&tree, &data, seed ^ 0x5eed))
        },
    );
}

#[test]
fn every_height_and_wide_nodes_are_covered() {
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
    for (i, &dim) in DIMS.iter().enumerate() {
        for &(n, cap_data, cap_dir, height) in &shapes {
            let data = dataset(n, dim, 40 + i as u64, (i + height) % 2 == 0);
            let tree = tree_of(&data, cap_data, cap_dir);
            assert_eq!(tree.height(), height, "shape ({n}, {cap_data}, {cap_dir})");
            if height == 2 {
                let NodeKind::Inner { children } = &tree.root().kind else {
                    panic!("a height-2 root is inner");
                };
                assert!(children.len() > 64, "{} children", children.len());
            }
            let verdict = counts_agree(&tree, &balls(&tree, &data, 7 + height as u64));
            assert_eq!(verdict, Verdict::Pass, "dim {dim}, height {height}");
        }
    }
}

#[test]
fn reloaded_trees_count_like_the_trees_they_persist() {
    check(
        "reloaded_trees_count_like_the_trees_they_persist",
        &Config::with_cases(12),
        |rng| {
            (
                rng.gen_range(0..DIMS.len()),
                rng.gen_range(1..=800usize),
                rng.gen_range(2..=70usize),
                rng.next_u64(),
            )
        },
        |&(d, n, cap_dir, seed)| {
            let (dim, n) = (DIMS[d % DIMS.len()], n.max(1));
            let data = dataset(n, dim, seed, seed % 3 == 0);
            let tree = tree_of(&data, 4, cap_dir.max(2));
            let fs = Arc::new(InjectedFs::clean());
            let dir = Path::new("/snap");
            let mut store = FileStore::open_in(fs.clone(), dir, &DiskOptions::new()).unwrap();
            persist_index(&mut store, &tree).unwrap();
            drop(store);
            let mut store = FileStore::open_in(fs, dir, &DiskOptions::new()).unwrap();
            let (loaded, _) = load_index(&mut store).unwrap();
            prop_assert!(loaded == tree);
            let balls = balls(&loaded, &data, seed);
            let (a, b) = (
                TreeSoup::new(&tree).unwrap(),
                TreeSoup::new(&loaded).unwrap(),
            );
            for (c, r) in &balls {
                for isa in simd::supported() {
                    prop_assert_eq!(
                        a.count_intersecting_with(isa, c, r * r),
                        b.count_intersecting_with(isa, c, r * r)
                    );
                }
            }
            counts_agree(&loaded, &balls)
        },
    );
}

/// A height-3 arena: root → two inner nodes → two leaves each, in one
/// dimension, with leaf `i` covering `[2i, 2i + 1]`.
fn crafted_tree() -> (Vec<Node>, Vec<u32>) {
    let rect = |lo: f32, hi: f32| HyperRect::new(vec![lo], vec![hi]).unwrap();
    let inner = |lo, hi, children| Node {
        level: 2,
        rect: rect(lo, hi),
        kind: NodeKind::Inner { children },
    };
    let leaf = |i: u32| Node {
        level: 1,
        rect: rect(2.0 * i as f32, 2.0 * i as f32 + 1.0),
        kind: NodeKind::Leaf {
            entries: 2 * i..2 * i + 2,
        },
    };
    let nodes = vec![
        Node {
            level: 3,
            rect: rect(0.0, 7.0),
            kind: NodeKind::Inner {
                children: vec![1, 2],
            },
        },
        inner(0.0, 3.0, vec![3, 4]),
        inner(4.0, 7.0, vec![5, 6]),
        leaf(0),
        leaf(1),
        leaf(2),
        leaf(3),
    ];
    (nodes, (0..8).collect())
}

#[test]
fn crafted_arenas_with_nan_bounds_are_refused() {
    let (nodes, entries) = crafted_tree();
    let tree = RTree::from_arenas(1, 3, 1, nodes.clone(), entries.clone()).unwrap();
    let soup = TreeSoup::new(&tree).unwrap();
    assert_eq!(soup.num_leaves(), 4);
    for isa in simd::supported() {
        assert_eq!(soup.count_intersecting_with(isa, &[3.5], 0.25), 2, "{isa}");
        assert_eq!(soup.count_intersecting_with(isa, &[3.5], 0.2), 0, "{isa}");
    }

    // A NaN anywhere a bound sits: a leaf, an inner node, the root, and
    // the single leaf of a height-1 tree. `<` containment tests alone let
    // each of these through, and a NaN bound breaks the pruning argument.
    for (idx, upper) in [(3, false), (4, true), (1, false), (2, true), (0, true)] {
        let mut bad = nodes.clone();
        // Splitting at NaN leaves NaN as the inner bound of each half.
        let (below, above) = bad[idx].rect.split_at(0, f32::NAN);
        bad[idx].rect = if upper { below } else { above };
        let tree = RTree::from_arenas(1, 3, 1, bad, entries.clone()).unwrap();
        assert!(
            matches!(TreeSoup::new(&tree), Err(Error::InfeasibleTopology(_))),
            "NaN bound at node {idx} must be refused"
        );
    }
    let single = Node {
        level: 1,
        rect: HyperRect::point(&[f32::NAN]),
        kind: NodeKind::Leaf { entries: 0..1 },
    };
    let tree = RTree::from_arenas(1, 1, 1, vec![single], vec![0]).unwrap();
    assert!(matches!(
        TreeSoup::new(&tree),
        Err(Error::InfeasibleTopology(_))
    ));
}
