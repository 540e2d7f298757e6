//! The index k-NN path against the linear scan: best-first search through
//! the tree (`vamsplit::query::knn_with`) must report the scan's distances
//! bit for bit at every supported ISA, visit exactly the leaves its final
//! sphere intersects, and keep its pinned page-access counts; the served
//! search (`serve::knn::knn_radius_with`) must return the scan's radius on
//! both of its routes.
//!
//! ISAs are pinned through the `*_with` entry points only — the
//! process-global `simd::force` is never touched. Ids are not compared:
//! on exact distance ties the two searches may keep different points.

use hdidx_rand::{seeded, Rng};
use hdidx_repro::core::knn::{scan_knn_radius, scan_knn_radius_with, scan_knn_with};
use hdidx_repro::core::simd;
use hdidx_repro::core::Dataset;
use hdidx_repro::datagen::{NamedDataset, Workload};
use hdidx_repro::serve::knn::{knn_radius_with, KnnRoute};
use hdidx_repro::serve::Server;
use hdidx_repro::vamsplit::bulkload::bulk_load;
use hdidx_repro::vamsplit::query::{count_sphere_intersections, knn_with, AccessStats, TreeSoup};
use hdidx_repro::vamsplit::topology::{PageConfig, Topology};
use hdidx_repro::vamsplit::tree::RTree;

/// Dimensions below, at and above the 8-wide distance tile, plus the
/// TEXTURE48 and COLOR64 widths.
const DIMS: &[usize] = &[1, 3, 8, 9, 47, 48, 64];

/// Random points where every fourth point repeats an earlier one, so exact
/// distance ties occur at several ids.
fn dataset_with_duplicates(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let mut flat: Vec<f32> = Vec::with_capacity(n * dim);
    for i in 0..n {
        if i % 4 == 3 {
            let src = rng.gen_range(0..i);
            let row = flat[src * dim..(src + 1) * dim].to_vec();
            flat.extend_from_slice(&row);
        } else {
            flat.extend((0..dim).map(|_| rng.gen::<f32>()));
        }
    }
    Dataset::from_flat(dim, flat).unwrap()
}

fn small_tree(data: &Dataset) -> RTree {
    let topo = Topology::from_capacities(data.dim(), data.len(), 12, 6).unwrap();
    bulk_load(data, &topo).unwrap()
}

fn dist_bits(nn: &[(f64, u32)]) -> Vec<u64> {
    nn.iter().map(|&(d, _)| d.to_bits()).collect()
}

/// Query points: dataset points (so duplicates sit at distance 0) and
/// fresh random points.
fn queries(data: &Dataset, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = seeded(seed);
    (0..8)
        .map(|i| {
            if i % 2 == 0 {
                data.point(rng.gen_range(0..data.len())).to_vec()
            } else {
                (0..data.dim()).map(|_| rng.gen::<f32>()).collect()
            }
        })
        .collect()
}

#[test]
fn tree_distances_match_scan_bitwise_at_every_isa() {
    for &dim in DIMS {
        let n = 300;
        let data = dataset_with_duplicates(n, dim, 40 + dim as u64);
        let tree = small_tree(&data);
        let pages = tree.leaf_rects();
        for q in queries(&data, 70 + dim as u64) {
            for k in [1usize, 21, n + 5] {
                let scalar = scan_knn_with(simd::Isa::Scalar, &data, &q, k).unwrap();
                let reference = knn_with(simd::Isa::Scalar, &tree, &data, &q, k).unwrap();
                assert_eq!(reference.neighbors.len(), k.min(n), "dim {dim} k {k}");
                for isa in simd::supported() {
                    let scan = scan_knn_with(isa, &data, &q, k).unwrap();
                    let res = knn_with(isa, &tree, &data, &q, k).unwrap();
                    let label = format!("dim {dim} k {k} {isa}");
                    assert_eq!(dist_bits(&scan), dist_bits(&scalar), "{label}: scan");
                    assert_eq!(
                        dist_bits(&res.neighbors),
                        dist_bits(&scalar),
                        "{label}: tree"
                    );
                    // The ISA changes no insert decision, so the kept ids
                    // and the page accesses are those of the scalar search.
                    assert_eq!(res.neighbors, reference.neighbors, "{label}: ids");
                    assert_eq!(res.stats, reference.stats, "{label}: stats");
                }
                if k > n {
                    assert_eq!(reference.stats.leaf_accesses as usize, pages.len());
                }
            }
        }
    }
}

#[test]
fn tree_leaf_accesses_equal_sphere_intersections() {
    for &dim in DIMS {
        let data = dataset_with_duplicates(500, dim, 90 + dim as u64);
        let tree = small_tree(&data);
        let pages = tree.leaf_rects();
        for q in queries(&data, 110 + dim as u64) {
            for isa in simd::supported() {
                let res = knn_with(isa, &tree, &data, &q, 21).unwrap();
                assert_eq!(
                    res.stats.leaf_accesses,
                    count_sphere_intersections(&pages, &q, res.radius()),
                    "dim {dim} {isa}"
                );
            }
        }
    }
}

#[test]
fn access_stats_are_pinned_for_a_fixed_seed() {
    // Summed over 16 queries at k = 21 on a 1000x9 dataset; the counts are
    // those of the best-first search before it moved onto the shared
    // k-best accumulator, at every ISA.
    let data = dataset_with_duplicates(1000, 9, 7);
    let tree = small_tree(&data);
    let mut rng = seeded(8);
    let qs: Vec<Vec<f32>> = (0..16)
        .map(|_| (0..9).map(|_| rng.gen::<f32>()).collect())
        .collect();
    for isa in simd::supported() {
        let mut total = AccessStats::default();
        for q in &qs {
            let s = knn_with(isa, &tree, &data, q, 21).unwrap().stats;
            total.leaf_accesses += s.leaf_accesses;
            total.dir_accesses += s.dir_accesses;
        }
        assert_eq!(
            total,
            AccessStats {
                leaf_accesses: PINNED_LEAF_ACCESSES,
                dir_accesses: PINNED_DIR_ACCESSES,
            },
            "{isa}"
        );
    }
}

const PINNED_LEAF_ACCESSES: u64 = 1009;
const PINNED_DIR_ACCESSES: u64 = 282;

/// The served search over `data`, routed and checked against the scan at
/// every ISA; returns the routes of the active ISA.
fn served_routes(data: &Dataset, page_bytes: usize, centers: &[Vec<f32>]) -> Vec<KnnRoute> {
    let topo = Topology::new(
        data.dim(),
        data.len(),
        &PageConfig::with_page_bytes(page_bytes),
    )
    .unwrap();
    let tree = bulk_load(data, &topo).unwrap();
    let soup = TreeSoup::new(&tree).unwrap();
    let mut routes = Vec::new();
    for q in centers {
        let want = scan_knn_radius_with(simd::Isa::Scalar, data, q, 21).unwrap();
        for isa in simd::supported() {
            let (r, route) = knn_radius_with(isa, &tree, &soup, data, q, 21).unwrap();
            assert_eq!(r.to_bits(), want.to_bits(), "{isa} {route:?}");
            if isa == simd::detect() {
                routes.push(route);
            }
        }
    }
    routes
}

#[test]
fn served_search_takes_the_index_on_clustered_data() {
    // A TEXTURE48 slice with density-biased centers: the bound at the
    // first heap fill reaches few leaves, so the index answers.
    let ds = NamedDataset::Texture48;
    let data = ds.spec_scaled(0.25).generate().unwrap();
    let centers: Vec<Vec<f32>> = Workload::density_biased(&data, 24, 21, 3)
        .unwrap()
        .queries
        .into_iter()
        .map(|q| q.center)
        .collect();
    let routes = served_routes(&data, ds.page_bytes(), &centers);
    let index = routes.iter().filter(|&&r| r == KnnRoute::Index).count();
    assert!(
        index * 10 >= routes.len() * 9,
        "{index} of {}",
        routes.len()
    );
}

#[test]
fn served_search_falls_back_to_the_scan_on_uniform_data() {
    // Uniform 16-d points: the bound at the first fill still reaches
    // nearly every leaf, so the scan answers.
    let mut rng = seeded(5);
    let data = Dataset::from_flat(16, (0..4000 * 16).map(|_| rng.gen::<f32>()).collect()).unwrap();
    let centers: Vec<Vec<f32>> = (0..8).map(|i| data.point(i * 311).to_vec()).collect();
    let routes = served_routes(&data, PageConfig::DEFAULT.page_bytes, &centers);
    assert!(routes.iter().all(|&r| r == KnnRoute::Scan), "{routes:?}");
}

#[test]
fn server_knn_radius_matches_the_scan() {
    let data = NamedDataset::Texture48
        .spec_scaled(0.05)
        .generate()
        .unwrap();
    let topo = Topology::new(
        data.dim(),
        data.len(),
        &PageConfig::with_page_bytes(NamedDataset::Texture48.page_bytes()),
    )
    .unwrap();
    let server = Server::build(&data, &topo, 400, 1, None).unwrap();
    for i in (0..data.len()).step_by(97) {
        let q = data.point(i);
        let want = scan_knn_radius(&data, q, 21).unwrap();
        assert_eq!(server.knn_radius(q, 21).unwrap().to_bits(), want.to_bits());
    }
    assert!(server.knn_radius(data.point(0), 0).is_err());
    assert!(server.knn_radius(&[0.0; 3], 21).is_err());
}

#[test]
fn infinite_query_coordinate_keeps_k_neighbors_on_every_route() {
    // Every distance is +∞: the first k candidates still enter, so the
    // tree search reports k neighbors and both routes the scan's radius.
    let data = dataset_with_duplicates(300, 9, 12);
    let tree = small_tree(&data);
    let soup = TreeSoup::new(&tree).unwrap();
    let mut q = data.point(5).to_vec();
    q[4] = f32::INFINITY;
    for isa in simd::supported() {
        let scan = scan_knn_with(isa, &data, &q, 21).unwrap();
        assert_eq!(scan.len(), 21, "{isa}");
        let res = knn_with(isa, &tree, &data, &q, 21).unwrap();
        assert_eq!(dist_bits(&res.neighbors), dist_bits(&scan), "{isa}");
        let (r, _) = knn_radius_with(isa, &tree, &soup, &data, &q, 21).unwrap();
        assert_eq!(r, f64::INFINITY, "{isa}");
    }
}
