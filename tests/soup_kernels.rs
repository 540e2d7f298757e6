//! Property tests for the SoA leaf-counting kernels (`LeafSoup`): random
//! rectangle sets and query spheres, checked against the naive per-rect
//! `HyperRect::intersects_sphere` loop. The contract under test is exact
//! bit-identity — not approximate agreement — across dimensions 1..=8 and
//! 64, degenerate point rectangles, zero radii, and batched counting.

use hdidx_check::{check, prop_assert_eq, Config, Verdict};
use hdidx_rand::{seeded, Rng};
use hdidx_repro::core::{HyperRect, LeafSoup};
use hdidx_repro::pool::Pool;

/// Random rectangle set: each rect from two random corners, with a 25%
/// chance of collapsing to a degenerate point rect (lo == hi).
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

/// Random query balls: centers near the rect cloud; 20% of radii are
/// exactly zero (a sphere degenerated to a point).
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

/// Ground truth: the naive AoS loop the predictors used before the SoA
/// kernels landed.
fn naive_count(rects: &[HyperRect], center: &[f32], radius: f64) -> u64 {
    rects
        .iter()
        .filter(|r| r.intersects_sphere(center, radius))
        .count() as u64
}

#[test]
fn count_intersecting_matches_naive_low_dims() {
    check(
        "count_intersecting_matches_naive_low_dims",
        &Config::with_cases(96),
        |rng| {
            (
                rng.gen_range(1..=300usize),
                rng.gen_range(1..=8usize),
                rng.next_u64(),
            )
        },
        |&(n, dim, seed)| {
            let mut rng = seeded(seed);
            let rects = random_rects(&mut rng, n, dim);
            let queries = random_queries(&mut rng, 12, dim);
            let soup = LeafSoup::from_rects(dim, &rects).unwrap();
            for (center, radius) in &queries {
                prop_assert_eq!(
                    naive_count(&rects, center, *radius),
                    soup.count_intersecting(center, radius * radius)
                );
            }
            Verdict::Pass
        },
    );
}

#[test]
fn count_intersecting_matches_naive_d64() {
    check(
        "count_intersecting_matches_naive_d64",
        &Config::with_cases(24),
        |rng| (rng.gen_range(1..=200usize), rng.next_u64()),
        |&(n, seed)| {
            let mut rng = seeded(seed);
            let rects = random_rects(&mut rng, n, 64);
            // In d = 64 a unit-ish radius misses everything; scale radii up
            // so both intersecting and non-intersecting cases occur.
            let queries: Vec<(Vec<f32>, f64)> = random_queries(&mut rng, 8, 64)
                .into_iter()
                .map(|(c, r)| (c, r * 4.0))
                .collect();
            let soup = LeafSoup::from_rects(64, &rects).unwrap();
            for (center, radius) in &queries {
                prop_assert_eq!(
                    naive_count(&rects, center, *radius),
                    soup.count_intersecting(center, radius * radius)
                );
            }
            Verdict::Pass
        },
    );
}

#[test]
fn count_batch_matches_naive() {
    check(
        "count_batch_matches_naive",
        &Config::with_cases(32),
        |rng| {
            (
                rng.gen_range(1..=250usize),
                rng.gen_range(1..=8usize),
                rng.gen_range(1..=40usize),
                rng.next_u64(),
            )
        },
        |&(n, dim, q, seed)| {
            let mut rng = seeded(seed);
            let rects = random_rects(&mut rng, n, dim);
            let queries = random_queries(&mut rng, q, dim);
            let soup = LeafSoup::from_rects(dim, &rects).unwrap();
            let expect: Vec<u64> = queries
                .iter()
                .map(|(c, r)| naive_count(&rects, c, *r))
                .collect();
            let got = soup.count_batch(&Pool::serial(), &queries, |query| {
                (query.0.as_slice(), query.1)
            });
            prop_assert_eq!(&expect, &got);
            Verdict::Pass
        },
    );
}

#[test]
fn point_rects_and_zero_radius_hit_only_exact_matches() {
    // A zero-radius sphere intersects a rect iff the center lies inside
    // it (MINDIST² == 0), including the boundary; for point rects that
    // means exact coordinate equality.
    let rects = vec![
        HyperRect::point(&[0.5, 0.5]),
        HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap(),
        HyperRect::new(vec![2.0, 2.0], vec![3.0, 3.0]).unwrap(),
    ];
    let soup = LeafSoup::from_rects(2, &rects).unwrap();
    for (center, expect) in [
        ([0.5f32, 0.5], 2u64), // on the point rect and inside the unit rect
        ([1.0, 1.0], 1),       // unit rect boundary only
        ([1.5, 1.5], 0),       // in the gap
        ([2.0, 3.0], 1),       // corner of the far rect
    ] {
        assert_eq!(soup.count_intersecting(&center, 0.0), expect);
        assert_eq!(naive_count(&rects, &center, 0.0), expect);
    }
}
