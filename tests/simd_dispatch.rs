//! Byte-identity of the runtime-dispatched SIMD kernels: every ISA this
//! CPU supports (`simd::supported()` always includes scalar) must produce
//! bitwise-identical results to the scalar reference — counts, k-NN
//! distances, and radii, never approximate agreement. The shapes are
//! chosen to cross every dispatch boundary: dimensions around the tile
//! width (1, 3, 7, 9, 63, 64, 65), leaf counts around the lane-padding
//! group width (0, 1, 15, 16, 17, 33, 100), and k-NN radius pools of
//! 1/2/8 threads.
//!
//! These tests pin ISAs through the `*_with` entry points only — the
//! process-global `simd::force` is never touched, so they cannot race
//! with each other or perturb auto-dispatching tests in this binary.

use hdidx_rand::{seeded, Rng};
use hdidx_repro::core::knn::scan_knn_with;
use hdidx_repro::core::simd;
use hdidx_repro::core::{Dataset, HyperRect, LeafSoup};
use hdidx_repro::datagen::workload::knn_radii;
use hdidx_repro::pool::Pool;

/// The dimensions under test: below, at, and above the kernels' 8-wide
/// dimension tile and the 64-dim experiment shape.
const DIMS: &[usize] = &[1, 3, 7, 9, 63, 64, 65];

/// Leaf counts crossing the 16-leaf lane-padding groups and the scalar
/// leaf blocks: empty, single, one-short/at/one-past a group, and a
/// multi-block count.
const LENS: &[usize] = &[0, 1, 15, 16, 17, 33, 100];

fn random_rects(rng: &mut impl Rng, n: usize, dim: usize) -> Vec<HyperRect> {
    (0..n)
        .map(|_| {
            let a: Vec<f32> = (0..dim).map(|_| rng.gen::<f32>() * 4.0 - 2.0).collect();
            if rng.gen_bool(0.25) {
                HyperRect::point(&a)
            } else {
                let b: Vec<f32> = (0..dim).map(|_| rng.gen::<f32>() * 4.0 - 2.0).collect();
                let lo: Vec<f32> = a.iter().zip(&b).map(|(&x, &y)| x.min(y)).collect();
                let hi: Vec<f32> = a.iter().zip(&b).map(|(&x, &y)| x.max(y)).collect();
                HyperRect::new(lo, hi).unwrap()
            }
        })
        .collect()
}

/// Query spheres spanning the decision range: 20% of radii exactly zero,
/// the rest sized to intersect some but not all rectangles.
fn random_queries(rng: &mut impl Rng, q: usize, dim: usize) -> Vec<(Vec<f32>, f64)> {
    (0..q)
        .map(|_| {
            let center: Vec<f32> = (0..dim).map(|_| rng.gen::<f32>() * 5.0 - 2.5).collect();
            let radius = if rng.gen_bool(0.2) {
                0.0
            } else {
                f64::from(rng.gen::<f32>()) * 2.0
            };
            (center, radius)
        })
        .collect()
}

#[test]
fn counts_identical_across_isas_at_every_boundary_shape() {
    let mut rng = seeded(0xD15BA7C1);
    for &dim in DIMS {
        for &n in LENS {
            let rects = random_rects(&mut rng, n, dim);
            let soup = LeafSoup::from_rects(dim, &rects).unwrap();
            for (center, radius) in random_queries(&mut rng, 8, dim) {
                let r2 = radius * radius;
                let naive = rects
                    .iter()
                    .filter(|r| r.intersects_sphere(&center, radius))
                    .count() as u64;
                for isa in simd::supported() {
                    assert_eq!(
                        soup.count_intersecting_with(isa, &center, r2),
                        naive,
                        "{isa} count differs from naive at dim={dim} n={n} r={radius}"
                    );
                }
            }
        }
    }
}

#[test]
fn padding_sentinels_never_count_even_at_infinite_radius() {
    // The stripes are padded to the lane group width with lo = +inf
    // sentinels; an infinite r² accepts every real rectangle (MINDIST² is
    // finite), so any count above `len` would be a sentinel leaking in.
    let mut rng = seeded(0x5E9719E1);
    for &dim in &[1usize, 9, 64] {
        for &n in LENS {
            let rects = random_rects(&mut rng, n, dim);
            let soup = LeafSoup::from_rects(dim, &rects).unwrap();
            let center: Vec<f32> = vec![0.25; dim];
            for isa in simd::supported() {
                assert_eq!(
                    soup.count_intersecting_with(isa, &center, f64::INFINITY),
                    n as u64,
                    "{isa} counted a padding sentinel at dim={dim} n={n}"
                );
                assert_eq!(
                    soup.count_batch_with(isa, &[center.as_slice()], |c| (*c, f64::INFINITY)),
                    vec![n as u64],
                    "{isa} batch counted a padding sentinel at dim={dim} n={n}"
                );
            }
        }
    }
}

#[test]
fn batch_counts_identical_across_isas() {
    let mut rng = seeded(0xBA7C4);
    for &dim in &[3usize, 64] {
        let rects = random_rects(&mut rng, 100, dim);
        let soup = LeafSoup::from_rects(dim, &rects).unwrap();
        let queries = random_queries(&mut rng, 40, dim);
        let reference: Vec<u64> = queries
            .iter()
            .map(|(c, r)| soup.count_intersecting_with(simd::Isa::Scalar, c, r * r))
            .collect();
        for isa in simd::supported() {
            let got = soup.count_batch_with(isa, &queries, |q| (q.0.as_slice(), q.1));
            assert_eq!(got, reference, "batched {isa} counts differ (dim={dim})");
        }
    }
}

fn random_dataset(rng: &mut impl Rng, n: usize, dim: usize) -> Dataset {
    Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
}

#[test]
fn knn_scan_identical_across_isas() {
    let mut rng = seeded(0x4E47);
    // Dataset sizes crossing the 2- and 4-lane group loops (including
    // fill-phase-only datasets where n <= k) and k values from 1 to
    // larger-than-n.
    for &dim in DIMS {
        for &n in &[1usize, 2, 3, 4, 5, 8, 21, 50] {
            let data = random_dataset(&mut rng, n, dim);
            let q: Vec<f32> = (0..dim).map(|_| rng.gen::<f32>()).collect();
            for &k in &[1usize, 3, 21] {
                let bits = |isa| -> Vec<(u64, u32)> {
                    scan_knn_with(isa, &data, &q, k)
                        .unwrap()
                        .iter()
                        .map(|&(d, id)| (d.to_bits(), id))
                        .collect()
                };
                let scalar = bits(simd::Isa::Scalar);
                for isa in simd::supported() {
                    assert_eq!(
                        bits(isa),
                        scalar,
                        "{isa} k-NN differs at dim={dim} n={n} k={k}"
                    );
                }
            }
        }
    }
}

#[test]
fn knn_radii_identical_across_thread_counts_and_isas() {
    let mut rng = seeded(0x7AD11);
    let data = random_dataset(&mut rng, 200, 16);
    let ids: Vec<u32> = (0..200).step_by(7).collect();
    let k = 9;
    let reference = knn_radii(&data, &ids, k, &Pool::new(1)).unwrap();
    for threads in [2usize, 8] {
        let got = knn_radii(&data, &ids, k, &Pool::new(threads)).unwrap();
        let same = reference
            .iter()
            .zip(&got)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "radii differ at {threads} threads");
    }
    // The tree-searched radius equals the k-th scan distance bit for bit
    // under every ISA (knn_radii dispatches whatever is active; each
    // pinned ISA's scan must reproduce it).
    for isa in simd::supported() {
        for (&id, &radius) in ids.iter().zip(&reference) {
            let nn = scan_knn_with(isa, &data, data.point(id as usize), k).unwrap();
            assert_eq!(
                nn.last().unwrap().0.to_bits(),
                radius.to_bits(),
                "{isa} radius differs for id {id}"
            );
        }
    }
}
