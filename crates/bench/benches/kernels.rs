//! Micro-benchmarks for the hot kernels underneath every experiment:
//! MINDIST, quickselect partitioning, bulk loading, k-NN search,
//! sphere/leaf intersection counting, and the fractal estimator.
//!
//! Runs on the workspace's own `hdidx-check` bench runner; results are
//! printed and written to `BENCH_kernels.json` (one JSON object per
//! kernel: median/p95/min/mean ns and throughput).

use hdidx_check::bench::{black_box, BenchSuite};
use hdidx_core::knn::{scan_knn_radius, scan_knn_radius_with, scan_knn_with};
use hdidx_core::rng::{seeded, Rng};
use hdidx_core::{simd, Dataset, LeafSoup};
use hdidx_datagen::{NamedDataset, Workload};
use hdidx_pool::Pool;
use hdidx_serve::knn::knn_radius_with;
use hdidx_vamsplit::bulkload::bulk_load;
use hdidx_vamsplit::kdtree::bulk_load_midsplit;
use hdidx_vamsplit::query::{count_sphere_intersections, knn, knn_gated, knn_with};
use hdidx_vamsplit::split::partition_by_rank;
use hdidx_vamsplit::topology::{PageConfig, Topology};
use hdidx_vamsplit::tree::RTree;

/// Density-biased centers per sweep of the swept k-NN rows.
const KNN_SWEEP_QUERIES: usize = 32;

fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
}

fn bench_mindist(suite: &mut BenchSuite) {
    let data = random_dataset(50_000, 60, 7);
    let topo = Topology::new(60, 50_000, &PageConfig::DEFAULT).unwrap();
    let tree = bulk_load(&data, &topo).unwrap();
    let rects = tree.leaf_rects();
    let q = data.point(3).to_vec();
    suite.bench(&format!("mindist2/{}x60", rects.len()), || {
        rects.iter().map(|r| black_box(r.mindist2(&q))).sum::<f64>()
    });
}

fn bench_partition(suite: &mut BenchSuite) {
    for &n in &[1_000usize, 10_000, 100_000] {
        let data = random_dataset(n, 16, 1);
        let ids: Vec<u32> = (0..n as u32).collect();
        suite.bench_with_setup(
            &format!("partition_by_rank/{n}"),
            || ids.clone(),
            |mut ids| {
                partition_by_rank(&data, black_box(&mut ids), 3, n / 2);
                ids
            },
        );
    }
}

fn bench_bulk_load(suite: &mut BenchSuite) {
    for &(n, dim) in &[(10_000usize, 16usize), (10_000, 60), (50_000, 16)] {
        let data = random_dataset(n, dim, 2);
        let topo = Topology::new(dim, n, &PageConfig::DEFAULT).unwrap();
        suite.bench(&format!("bulk_load/{n}x{dim}"), || {
            bulk_load(black_box(&data), &topo).unwrap()
        });
    }
}

fn bench_midsplit(suite: &mut BenchSuite) {
    let data = random_dataset(20_000, 16, 3);
    let topo = Topology::new(16, 20_000, &PageConfig::DEFAULT).unwrap();
    suite.bench("bulk_load_midsplit/20000x16", || {
        bulk_load_midsplit(black_box(&data), &topo).unwrap()
    });
}

/// Distance bit patterns of a k-NN answer (ids may differ on exact ties
/// between the scan and the tree search; distances never do).
fn dist_bits(nn: &[(f64, u32)]) -> Vec<u64> {
    nn.iter().map(|&(d, _)| d.to_bits()).collect()
}

/// Asserts, before any timing, that for every center and every supported
/// ISA the scan reproduces the scalar scan bit for bit (ids included), the
/// best-first tree search reproduces its distances bit for bit, and the
/// served search reproduces its radius bit for bit.
fn assert_knn_identity(
    data: &Dataset,
    tree: &RTree,
    soup: &LeafSoup,
    centers: &[Vec<f32>],
    k: usize,
) {
    for q in centers {
        let scalar = scan_knn_with(simd::Isa::Scalar, data, q, k).unwrap();
        let radius = scalar.last().unwrap().0;
        for isa in simd::supported() {
            let scan = scan_knn_with(isa, data, q, k).unwrap();
            assert_eq!(
                scan, scalar,
                "{isa} k-NN scan must be byte-identical to scalar"
            );
            let tree_nn = knn_with(isa, tree, data, q, k).unwrap().neighbors;
            assert_eq!(dist_bits(&tree_nn), dist_bits(&scalar), "{isa} tree k-NN");
            let (served, _) = knn_radius_with(isa, tree, soup, data, q, k).unwrap();
            assert_eq!(served.to_bits(), radius.to_bits(), "{isa} served k-NN");
        }
    }
}

/// Median share of `soup`'s leaves that the served search's gate counts
/// at the first heap fill, over `centers` — where a shape sits against
/// `hdidx_serve::knn::SCAN_FALLBACK_SHARE`.
fn median_gate_share(
    data: &Dataset,
    tree: &RTree,
    soup: &LeafSoup,
    centers: &[Vec<f32>],
    k: usize,
) -> f64 {
    let isa = simd::active();
    let mut shares: Vec<f64> = centers
        .iter()
        .map(|q| {
            let mut counted = soup.len() as u64;
            knn_gated(isa, tree, data, q, k, |bound| {
                counted = soup.count_intersecting_with(isa, q, bound);
                true
            })
            .unwrap();
            counted as f64 / soup.len() as f64
        })
        .collect();
    shares.sort_by(f64::total_cmp);
    shares[shares.len() / 2]
}

/// One sweep of exact 21-NN over [`KNN_SWEEP_QUERIES`] density-biased
/// centers three ways: the linear scan per ISA, best-first through the
/// index (`knn_tree`), and the served search that gates between them
/// (`knn_served`).
fn bench_knn_sweep(suite: &mut BenchSuite, data: &Dataset, page_bytes: usize) {
    let (n, dim) = (data.len(), data.dim());
    let topo = Topology::new(dim, n, &PageConfig::with_page_bytes(page_bytes)).unwrap();
    let tree = bulk_load(data, &topo).unwrap();
    let soup = LeafSoup::from_rects(dim, &tree.leaf_rects()).unwrap();
    let centers: Vec<Vec<f32>> = Workload::density_biased(data, KNN_SWEEP_QUERIES, 21, 1)
        .unwrap()
        .queries
        .into_iter()
        .map(|q| q.center)
        .collect();
    assert_knn_identity(data, &tree, &soup, &centers, 21);
    let tag = format!("{n}x{dim}/k21/{KNN_SWEEP_QUERIES}q");
    eprintln!(
        "{tag}: {} leaves, median gate share {:.2}",
        soup.len(),
        median_gate_share(data, &tree, &soup, &centers, 21)
    );
    suite.bench(&format!("knn_tree/{tag}"), || {
        centers
            .iter()
            .map(|q| knn(black_box(&tree), data, q, 21).unwrap().radius())
            .sum::<f64>()
    });
    let isa = simd::active();
    suite.bench(&format!("knn_served/{tag}"), || {
        centers
            .iter()
            .map(|q| {
                knn_radius_with(isa, black_box(&tree), &soup, data, q, 21)
                    .unwrap()
                    .0
            })
            .sum::<f64>()
    });
    for isa in simd::supported() {
        suite.bench(&format!("knn_scan/{tag}/{isa}"), || {
            centers
                .iter()
                .map(|q| scan_knn_radius_with(isa, black_box(data), q, 21).unwrap())
                .sum::<f64>()
        });
    }
}

/// Exact k-NN on four shapes; together the rows set
/// `hdidx_serve::knn::SCAN_FALLBACK_SHARE`. The clustered 6674x48 shape
/// is the quarter of TEXTURE48 the end-to-end `serve-mixed` workload
/// serves; its bound prunes to a few leaves and the index wins. Uniform
/// 50000x10 and 50000x12 straddle the fallback share: the index still
/// wins at 10 dimensions and loses at 12. Uniform 50000x16 times one
/// center, as its rows always have; no index prunes there.
fn bench_knn(suite: &mut BenchSuite) {
    let texture = NamedDataset::Texture48;
    let data = texture.spec_scaled(0.25).generate().unwrap();
    bench_knn_sweep(suite, &data, texture.page_bytes());
    for dim in [10, 12] {
        let data = random_dataset(50_000, dim, 4);
        bench_knn_sweep(suite, &data, PageConfig::DEFAULT.page_bytes);
    }

    let data = random_dataset(50_000, 16, 4);
    let topo = Topology::new(16, 50_000, &PageConfig::DEFAULT).unwrap();
    let tree = bulk_load(&data, &topo).unwrap();
    let soup = LeafSoup::from_rects(16, &tree.leaf_rects()).unwrap();
    let q: Vec<f32> = data.point(17).to_vec();
    assert_knn_identity(&data, &tree, &soup, std::slice::from_ref(&q), 21);
    suite.bench("knn_tree/50000x16/k21", || {
        knn(black_box(&tree), &data, &q, 21).unwrap()
    });
    let isa = simd::active();
    suite.bench("knn_served/50000x16/k21", || {
        knn_radius_with(isa, black_box(&tree), &soup, &data, &q, 21).unwrap()
    });
    for isa in simd::supported() {
        suite.bench(&format!("knn_scan/50000x16/k21/{isa}"), || {
            scan_knn_with(isa, black_box(&data), &q, 21).unwrap()
        });
    }
}

fn bench_intersections(suite: &mut BenchSuite) {
    let data = random_dataset(100_000, 60, 5);
    let topo = Topology::new(60, 100_000, &PageConfig::DEFAULT).unwrap();
    let tree = bulk_load(&data, &topo).unwrap();
    let pages = tree.leaf_rects();
    let q = data.point(9).to_vec();
    suite.bench(
        &format!("count_sphere_intersections/{}x60", pages.len()),
        || count_sphere_intersections(black_box(&pages), &q, 0.5),
    );
}

/// Density-biased ball queries for the soup benches: dataset points with
/// exact k-NN radii, the same query shape every predictor consumes.
fn soup_queries(data: &Dataset, n_queries: usize, k: usize) -> Vec<(Vec<f32>, f64)> {
    let stride = (data.len() / n_queries).max(1);
    (0..n_queries)
        .map(|i| {
            let center = data.point((i * stride) % data.len()).to_vec();
            let radius = scan_knn_radius(data, &center, k).unwrap();
            (center, radius)
        })
        .collect()
}

/// Batch-vs-single tolerance for [`run_soup_shape`]'s pinned shapes: the
/// batched kernel must not fall behind single-query by more than this
/// ratio in the *best* of [`PIN_ROUNDS`] paired rounds. Each round's
/// ratio is computed from two back-to-back sweeps, so even a sustained
/// machine-noise phase lands on both sides; one quiet round is enough to
/// prove parity. The regression this guards against (the PR-5 leaf-major
/// batch order at thousands of leaves) was more than 2x and systematic —
/// it fails every round no matter the noise phase.
const BATCH_PIN_SLACK: f64 = 1.25;

/// Rounds of the paired batch-vs-single pin. Each round times one
/// single-query sweep and one batched sweep back to back and keeps the
/// per-round ratio; the pin compares the smallest ratio across rounds.
const PIN_ROUNDS: usize = 12;

/// Asserts the AoS loop and — for **every supported ISA** — the
/// single-query and batched SoA kernels all agree on every query (batch
/// at several thread counts), then times the AoS-vs-SoA matchup per ISA
/// on this shape. Identity first: a speedup bought with a different count
/// would be meaningless. With `pin_batch` a paired head-to-head must also
/// satisfy batch ≤ single-query (the PR-5 baseline regressed this at
/// large leaf counts).
fn run_soup_shape(
    suite: &mut BenchSuite,
    prefix: &str,
    n: usize,
    dim: usize,
    seed: u64,
    n_queries: usize,
    pin_batch: bool,
) {
    let data = random_dataset(n, dim, seed);
    let topo = Topology::new(dim, n, &PageConfig::DEFAULT).unwrap();
    let tree = bulk_load(&data, &topo).unwrap();
    let pages = tree.leaf_rects();
    let soup = LeafSoup::from_rects(dim, &pages).unwrap();
    let queries = soup_queries(&data, n_queries, 21);

    let aos: Vec<u64> = queries
        .iter()
        .map(|(c, r)| count_sphere_intersections(&pages, c, *r))
        .collect();
    for isa in simd::supported() {
        let single: Vec<u64> = queries
            .iter()
            .map(|(c, r)| soup.count_intersecting_with(isa, c, r * r))
            .collect();
        assert_eq!(aos, single, "{isa} SoA must be byte-identical to AoS");
        for t in [1usize, 2, 8] {
            let batch =
                soup.count_batch_with(isa, &Pool::new(t), &queries, |q| (q.0.as_slice(), q.1));
            assert_eq!(
                aos, batch,
                "batched {isa} SoA must be byte-identical at t={t}"
            );
        }
    }

    let tag = format!("{prefix}{}x{dim}", pages.len());
    suite.bench(&format!("aos_count/{tag}"), || {
        queries
            .iter()
            .map(|(c, r)| count_sphere_intersections(black_box(&pages), c, *r))
            .sum::<u64>()
    });
    let serial = Pool::serial();
    for isa in simd::supported() {
        suite.bench(&format!("soa_count/{tag}/{isa}"), || {
            queries
                .iter()
                .map(|(c, r)| black_box(&soup).count_intersecting_with(isa, c, r * r))
                .sum::<u64>()
        });
        suite.bench(&format!("soa_count_batch/{tag}/{isa}"), || {
            black_box(&soup)
                .count_batch_with(isa, &serial, &queries, |q| (q.0.as_slice(), q.1))
                .iter()
                .sum::<u64>()
        });
    }
    if pin_batch {
        for isa in simd::supported() {
            let mut best_ratio = f64::INFINITY;
            for _ in 0..PIN_ROUNDS {
                let t = std::time::Instant::now();
                let s: u64 = queries
                    .iter()
                    .map(|(c, r)| black_box(&soup).count_intersecting_with(isa, c, r * r))
                    .sum();
                let single_t = t.elapsed().as_secs_f64();
                black_box(s);
                let t = std::time::Instant::now();
                let b: u64 = black_box(&soup)
                    .count_batch_with(isa, &serial, &queries, |q| (q.0.as_slice(), q.1))
                    .iter()
                    .sum();
                let batch_t = t.elapsed().as_secs_f64();
                black_box(b);
                if single_t > 0.0 {
                    best_ratio = best_ratio.min(batch_t / single_t);
                }
            }
            assert!(
                best_ratio <= BATCH_PIN_SLACK,
                "{tag}/{isa}: batched count regressed below single-query \
                 throughput in every paired round (best batch/single ratio \
                 {best_ratio:.2})",
            );
        }
    }
}

fn bench_soup(suite: &mut BenchSuite) {
    // d ∈ {16, 64}; 1613x64 is the acceptance-criterion shape (the
    // committed-baseline comparison), 3226x64 the large-leaf-count shape
    // that pins batch ≥ single-query throughput.
    run_soup_shape(suite, "", 50_000, 16, 11, 64, false);
    run_soup_shape(suite, "", 12_000, 64, 12, 64, false);
    run_soup_shape(suite, "", 50_000, 64, 13, 64, true);
    run_soup_shape(suite, "", 100_000, 64, 15, 64, true);
}

/// Tiny CI leg (`cargo bench --bench kernels -- soup_smoke`): one small
/// shape that exercises the full identity assertion (AoS == per-ISA SoA ==
/// batched SoA at 1/2/8 threads) before a single fast timing pass, so
/// every CI run proves the bit-identity contract without paying for the
/// large benchmark datasets. No batch pin here: smoke timing budgets are
/// too noisy to compare medians meaningfully.
fn bench_soup_smoke(suite: &mut BenchSuite) {
    run_soup_shape(suite, "soup_smoke/", 2_000, 8, 14, 16, false);
}

fn bench_fractal(suite: &mut BenchSuite) {
    let data = random_dataset(20_000, 16, 6);
    suite.bench("fractal_dims/20000x16/6levels", || {
        hdidx_baselines::fractal::estimate_fractal_dims(black_box(&data), 6).unwrap()
    });
}

fn main() {
    let mut suite = BenchSuite::new("kernels");
    suite.set_isa(&simd::describe());
    if suite.filter() == Some("soup_smoke") {
        bench_soup_smoke(&mut suite);
        suite.finish();
        return;
    }
    bench_mindist(&mut suite);
    bench_partition(&mut suite);
    bench_bulk_load(&mut suite);
    bench_midsplit(&mut suite);
    bench_knn(&mut suite);
    bench_intersections(&mut suite);
    bench_soup(&mut suite);
    bench_fractal(&mut suite);
    suite.finish();
}
