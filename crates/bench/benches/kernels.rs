//! Micro-benchmarks for the hot kernels underneath every experiment:
//! MINDIST, quickselect partitioning, bulk loading (and its split kernels
//! and external build at COLOR64 scale), k-NN search, the
//! workload radius set-up, STOCK360 generation, sphere/leaf intersection
//! counting (flat and through the served tree's directory), the fractal
//! estimator, and the layers of the resampled prediction (MBR growth, the
//! memory sample, the max-variance split choice per ISA and the whole
//! prediction).
//!
//! Runs on the workspace's own `hdidx-check` bench runner; results are
//! printed and written to `BENCH_kernels.json` (one JSON object per
//! kernel: median/p95/min/mean ns and throughput).

use hdidx_check::bench::{black_box, BenchSuite};
use hdidx_core::knn::{scan_knn_radius, scan_knn_radius_with, scan_knn_with};
use hdidx_core::stats::{dim_stats_with, max_variance_dim_with};
use hdidx_core::{simd, Dataset, LeafSoup};
use hdidx_datagen::workload::knn_radii;
use hdidx_datagen::{NamedDataset, Workload};
use hdidx_diskio::external::{build_on_disk, ExternalConfig};
use hdidx_model::hupper::recommended_h_upper;
use hdidx_model::{Predictor, QueryBall, Resampled, ResampledParams};
use hdidx_pool::Pool;
use hdidx_rand::{sample_without_replacement, seeded, Rng};
use hdidx_serve::knn::knn_radius_with;
use hdidx_vamsplit::bulkload::bulk_load;
use hdidx_vamsplit::kdtree::bulk_load_midsplit;
use hdidx_vamsplit::query::{count_sphere_intersections, knn_gated, knn_through, TreeSoup};
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
        // One key buffer across samples, as a build reuses one across splits.
        let mut keys = Vec::with_capacity(n);
        suite.bench_with_setup(
            &format!("partition_by_rank/{n}"),
            || ids.clone(),
            |mut ids| {
                partition_by_rank(&data, black_box(&mut ids), 3, n / 2, &mut keys);
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
    soup: &TreeSoup,
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
            let tree_nn = knn_through(isa, tree, soup, data, q, k).unwrap().neighbors;
            assert_eq!(dist_bits(&tree_nn), dist_bits(&scalar), "{isa} tree k-NN");
            let (served, _) = knn_radius_with(isa, tree, soup, data, q, k).unwrap();
            assert_eq!(served.to_bits(), radius.to_bits(), "{isa} served k-NN");
        }
    }
}

/// Median share of the leaves that the served search's gate counts
/// at the first heap fill, over `centers` — where a shape sits against
/// `hdidx_serve::knn::SCAN_FALLBACK_SHARE`.
fn median_gate_share(
    data: &Dataset,
    tree: &RTree,
    soup: &TreeSoup,
    centers: &[Vec<f32>],
    k: usize,
) -> f64 {
    let isa = simd::active();
    let leaves = soup.num_leaves();
    let mut shares: Vec<f64> = centers
        .iter()
        .map(|q| {
            let mut counted = leaves as u64;
            knn_gated(isa, tree, soup, data, q, k, |bound| {
                counted = soup.count_intersecting_with(isa, q, bound);
                true
            })
            .unwrap();
            counted as f64 / leaves as f64
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
    let soup = TreeSoup::new(&tree).unwrap();
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
        soup.num_leaves(),
        median_gate_share(data, &tree, &soup, &centers, 21)
    );
    let isa = simd::active();
    suite.bench(&format!("knn_tree/{tag}"), || {
        centers
            .iter()
            .map(|q| {
                knn_through(isa, black_box(&tree), &soup, data, q, 21)
                    .unwrap()
                    .radius()
            })
            .sum::<f64>()
    });
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
    let soup = TreeSoup::new(&tree).unwrap();
    let q: Vec<f32> = data.point(17).to_vec();
    assert_knn_identity(&data, &tree, &soup, std::slice::from_ref(&q), 21);
    let isa = simd::active();
    suite.bench("knn_tree/50000x16/k21", || {
        knn_through(isa, black_box(&tree), &soup, &data, &q, 21).unwrap()
    });
    suite.bench("knn_served/50000x16/k21", || {
        knn_radius_with(isa, black_box(&tree), &soup, &data, &q, 21).unwrap()
    });
    for isa in simd::supported() {
        suite.bench(&format!("knn_scan/50000x16/k21/{isa}"), || {
            scan_knn_with(isa, black_box(&data), &q, 21).unwrap()
        });
    }
}

/// The workload radius set-up on one thread, two ways: the linear-scan
/// oracle (one full scan per query id, the set-up before the tree) and
/// `knn_radii` (one in-memory bulk load, then a best-first search per id).
/// The shapes are the end-to-end `serve-mixed` set-up (a quarter of
/// TEXTURE48, 500 ids) and the `serve-point` one (COLOR64, 100 ids); the
/// two must return the same radius bits before either is timed.
fn bench_radius_setup(suite: &mut BenchSuite) {
    for (ds, scale, q) in [
        (NamedDataset::Texture48, 0.25, 500),
        (NamedDataset::Color64, 1.0, 100),
    ] {
        let data = ds.spec_scaled(scale).generate().unwrap();
        let ids = sample_without_replacement(&mut seeded(1), data.len(), q);
        let scan = |data: &Dataset| -> Vec<f64> {
            ids.iter()
                .map(|&id| scan_knn_radius(data, data.point(id as usize), 21).unwrap())
                .collect()
        };
        let bits = |radii: Vec<f64>| radii.iter().map(|r| r.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(scan(&data)),
            bits(knn_radii(&data, &ids, 21, &Pool::serial()).unwrap()),
            "tree radii must equal the scan's bit for bit"
        );
        let tag = format!("{}x{}/k21/{q}q", data.len(), data.dim());
        suite.bench(&format!("radius_setup_scan/{tag}"), || {
            scan(black_box(&data))
        });
        suite.bench(&format!("radius_setup_tree/{tag}"), || {
            knn_radii(black_box(&data), &ids, 21, &Pool::serial()).unwrap()
        });
    }
}

/// STOCK360 at full scale: 6,500 random walks through the twiddle-table
/// DFT.
fn bench_stock_generation(suite: &mut BenchSuite) {
    let spec = NamedDataset::Stock360.spec();
    suite.bench(
        &format!("stock360_generate/{}x{}", spec.n(), spec.dim()),
        || black_box(&spec).generate().unwrap(),
    );
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
/// single-query and batched SoA kernels all agree on every query, then
/// times the AoS-vs-SoA matchup per ISA on this shape. Identity first: a
/// speedup bought with a different count would be meaningless. With `pin_batch` a paired head-to-head must also
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
        let batch = soup.count_batch_with(isa, &queries, |q| (q.0.as_slice(), q.1));
        assert_eq!(aos, batch, "batched {isa} SoA must be byte-identical");
    }

    let tag = format!("{prefix}{}x{dim}", pages.len());
    suite.bench(&format!("aos_count/{tag}"), || {
        queries
            .iter()
            .map(|(c, r)| count_sphere_intersections(black_box(&pages), c, *r))
            .sum::<u64>()
    });
    for isa in simd::supported() {
        suite.bench(&format!("soa_count/{tag}/{isa}"), || {
            queries
                .iter()
                .map(|(c, r)| black_box(&soup).count_intersecting_with(isa, c, r * r))
                .sum::<u64>()
        });
        suite.bench(&format!("soa_count_batch/{tag}/{isa}"), || {
            black_box(&soup)
                .count_batch_with(isa, &queries, |q| (q.0.as_slice(), q.1))
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
                    .count_batch_with(isa, &queries, |q| (q.0.as_slice(), q.1))
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

/// The served leaf count at the end-to-end `serve-point` shape: the
/// COLOR64 index as `Server::build` builds it (external build, M = 2,000;
/// 3,625 leaves under a `[3625, 242, 17, 2, 1]` directory) and its 100
/// density-biased k = 21 balls (seed 1). Per ISA, the flat `LeafSoup`
/// count over every leaf box (`soa_count`) against the count through the
/// directory (`tree_count`); both must equal the AoS counts before either
/// is timed.
fn bench_served_count(suite: &mut BenchSuite) {
    let ds = NamedDataset::Color64;
    let data = ds.spec().generate().unwrap();
    let (n, dim) = (data.len(), data.dim());
    let topo = Topology::new(dim, n, &PageConfig::with_page_bytes(ds.page_bytes())).unwrap();
    let tree = build_on_disk(
        &data,
        &topo,
        &ExternalConfig::with_mem_points(2_000).unwrap(),
    )
    .unwrap()
    .tree;
    assert_eq!(tree.level_profile(), vec![3625, 242, 17, 2, 1]);
    let balls: Vec<(Vec<f32>, f64)> = Workload::density_biased(&data, 100, 21, 1)
        .unwrap()
        .queries
        .into_iter()
        .map(|q| (q.center, q.radius))
        .collect();
    let pages = tree.leaf_rects();
    let flat = LeafSoup::from_rects(dim, &pages).unwrap();
    let soup = TreeSoup::new(&tree).unwrap();
    let aos: Vec<u64> = balls
        .iter()
        .map(|(c, r)| count_sphere_intersections(&pages, c, *r))
        .collect();
    for isa in simd::supported() {
        let counts = |count: &dyn Fn(&[f32], f64) -> u64| -> Vec<u64> {
            balls.iter().map(|(c, r)| count(c, r * r)).collect()
        };
        let flat_counts = counts(&|c, r2| flat.count_intersecting_with(isa, c, r2));
        assert_eq!(
            flat_counts, aos,
            "{isa} flat counts must equal the AoS counts"
        );
        let tree_counts = counts(&|c, r2| soup.count_intersecting_with(isa, c, r2));
        assert_eq!(
            tree_counts, aos,
            "{isa} tree counts must equal the AoS counts"
        );
    }
    eprintln!(
        "color64_served: {} leaves, {:.1} leaves met per ball",
        pages.len(),
        aos.iter().sum::<u64>() as f64 / balls.len() as f64
    );
    let tag = format!("color64_served/{}x{dim}/{}q", pages.len(), balls.len());
    // The `f32` filter's worst case: each ball's r² is the exact MINDIST²
    // of the leaf whose MINDIST² lies nearest its own r², so at least one
    // lane per ball sits inside the band and its group runs both stages.
    let tangent: Vec<(Vec<f32>, f64)> = balls
        .iter()
        .map(|(c, r)| {
            let m = pages
                .iter()
                .map(|p| p.mindist2(c))
                .min_by(|a, b| (a - r * r).abs().total_cmp(&(b - r * r).abs()))
                .unwrap();
            (c.clone(), m)
        })
        .collect();
    let reference: Vec<u64> = tangent
        .iter()
        .map(|(c, r2)| pages.iter().filter(|p| !p.mindist2_exceeds(c, *r2)).count() as u64)
        .collect();
    assert!(
        reference.iter().all(|&n| n > 0),
        "each tangent ball meets its leaf"
    );
    for isa in simd::supported() {
        for ((c, r2), &want) in tangent.iter().zip(&reference) {
            assert_eq!(
                flat.count_intersecting_with(isa, c, *r2),
                want,
                "{isa} tangent flat"
            );
            assert_eq!(
                soup.count_intersecting_with(isa, c, *r2),
                want,
                "{isa} tangent tree"
            );
        }
    }
    for isa in simd::supported() {
        suite.bench(&format!("soa_count/{tag}/{isa}"), || {
            balls
                .iter()
                .map(|(c, r)| black_box(&flat).count_intersecting_with(isa, c, r * r))
                .sum::<u64>()
        });
        suite.bench(&format!("tree_count/{tag}/{isa}"), || {
            balls
                .iter()
                .map(|(c, r)| black_box(&soup).count_intersecting_with(isa, c, r * r))
                .sum::<u64>()
        });
        suite.bench(&format!("tree_count/{tag}/tangent/{isa}"), || {
            tangent
                .iter()
                .map(|(c, r2)| black_box(&soup).count_intersecting_with(isa, c, *r2))
                .sum::<u64>()
        });
    }
}

/// Tiny CI leg (`cargo bench --bench kernels -- soup_smoke`): one small
/// shape that exercises the full identity assertion (AoS == per-ISA SoA ==
/// per-ISA batched SoA) before a single fast timing pass, so
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

/// The resampled prediction at the end-to-end `predict` workload's shape
/// (a tenth of TEXTURE48, 2669x48; M = 1,250; 500 density-biased k = 21
/// balls), and the layers beneath it: the memory sample of M ids, and
/// `mbr_of` over one 40-point leaf and over the whole 1,250-point slice.
fn bench_resampled(suite: &mut BenchSuite) {
    let texture = NamedDataset::Texture48;
    let data = texture.spec_scaled(0.1).generate().unwrap();
    let (n, dim, m) = (data.len(), data.dim(), 1_250);
    let topo = Topology::new(dim, n, &PageConfig::with_page_bytes(texture.page_bytes())).unwrap();
    let ids = sample_without_replacement(&mut seeded(1), n, m);
    let leaf = &ids[..40];
    suite.bench(&format!("mbr_of/{}x{dim}", leaf.len()), || {
        data.mbr_of(black_box(leaf)).unwrap()
    });
    suite.bench(&format!("mbr_of/{m}x{dim}"), || {
        data.mbr_of(black_box(&ids)).unwrap()
    });
    suite.bench(&format!("sample_without_replacement/{m}of{n}"), || {
        sample_without_replacement(&mut seeded(black_box(7)), n, m)
    });
    // The max-variance split choice of every bulk-load split, over the
    // memory sample and over the whole dataset.
    let all: Vec<u32> = (0..n as u32).collect();
    for subset in [&ids[..], &all[..]] {
        bench_max_variance_dim(suite, &data, subset);
    }
    let balls: Vec<QueryBall> = Workload::density_biased(&data, 500, 21, 1)
        .unwrap()
        .queries
        .into_iter()
        .map(|q| QueryBall::new(q.center, q.radius))
        .collect();
    let params = ResampledParams {
        m,
        h_upper: recommended_h_upper(&topo, m).unwrap(),
        seed: 1,
    };
    suite.bench(&format!("resampled_predict/{n}x{dim}"), || {
        Resampled::new(params)
            .predict(black_box(&data), &topo, &balls)
            .unwrap()
    });
}

/// `max_variance_dim` over the points at `subset`, once per ISA; each ISA
/// must return the scalar moment bits and dimension before it is timed.
fn bench_max_variance_dim(suite: &mut BenchSuite, data: &Dataset, subset: &[u32]) {
    let stats_bits = |isa| {
        let s = dim_stats_with(isa, data, subset).unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (bits(&s.mean), bits(&s.variance))
    };
    let want = stats_bits(simd::Isa::Scalar);
    let want_dim = max_variance_dim_with(simd::Isa::Scalar, data, subset).unwrap();
    for isa in simd::supported() {
        assert_eq!(stats_bits(isa), want, "{isa} moments must be bit-identical");
        assert_eq!(
            max_variance_dim_with(isa, data, subset).unwrap(),
            want_dim,
            "{isa} max-variance dimension"
        );
        suite.bench(
            &format!("max_variance_dim/{}x{}/{isa}", subset.len(), data.dim()),
            || max_variance_dim_with(isa, black_box(data), subset).unwrap(),
        );
    }
}

/// The split kernels at the end-to-end `serve-point` shape, all of
/// COLOR64 (112,361 x 64, 28 MB, far past L2): the max-variance choice
/// over a shuffled id order per ISA, the in-memory bulk load and the
/// external build at M = 2,000. Before they are timed, the bulk load and
/// the external build at the active ISA must reproduce the tree and the
/// bill built with the scalar moments, and the external tree must be the
/// in-memory one.
fn bench_color64_splits(suite: &mut BenchSuite) {
    let ds = NamedDataset::Color64;
    let data = ds.spec().generate().unwrap();
    let (n, dim) = (data.len(), data.dim());
    let topo = Topology::new(dim, n, &PageConfig::with_page_bytes(ds.page_bytes())).unwrap();
    let mut ids: Vec<u32> = (0..n as u32).collect();
    let mut rng = seeded(3);
    for i in (1..n).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    bench_max_variance_dim(suite, &data, &ids);

    let cfg = ExternalConfig::with_mem_points(2_000).unwrap();
    let build = || {
        let tree = bulk_load(&data, &topo).unwrap();
        let ext = build_on_disk(&data, &topo, &cfg).unwrap();
        assert!(
            ext.tree == tree,
            "the external build must be the in-memory tree"
        );
        (tree, ext.io)
    };
    let active = simd::active();
    simd::force(simd::Choice::Fixed(simd::Isa::Scalar)).unwrap();
    let want = build();
    simd::force(simd::Choice::Fixed(active)).unwrap();
    assert!(
        build() == want,
        "{active} tree and bill must be the scalar ones"
    );
    suite.bench(&format!("bulk_load/{n}x{dim}"), || {
        bulk_load(black_box(&data), &topo).unwrap()
    });
    suite.bench(&format!("build_on_disk/{n}x{dim}/m2000"), || {
        build_on_disk(black_box(&data), &topo, &cfg).unwrap()
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
    bench_color64_splits(&mut suite);
    bench_midsplit(&mut suite);
    bench_knn(&mut suite);
    bench_radius_setup(&mut suite);
    bench_stock_generation(&mut suite);
    bench_intersections(&mut suite);
    bench_soup(&mut suite);
    bench_served_count(&mut suite);
    bench_fractal(&mut suite);
    bench_resampled(&mut suite);
    suite.finish();
}
