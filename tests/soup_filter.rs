//! Adversarial property suite for the `f32` filter of the SIMD counting
//! kernels (`hdidx_core::simd`, "the `f32` filter"). The filter decides a
//! lane in `f32` only outside a proven error band around `r²` and sends
//! every other lane to the exact `f64` kernel, so each count must stay
//! byte-identical to the scalar reference. The suite aims at the band's
//! edges:
//!
//! - squared radii drawn as one box's exact MINDIST², its `next_up` and
//!   `next_down`, and that MINDIST² scaled by `1 ± ε`;
//! - the fixed radii 0, −0, subnormals, `2¹⁰⁰` and its neighbours, +∞,
//!   NaN, and the negative values −5e-324 and −1;
//! - coordinates at unit scale, near `2e-23` (whose `f32` squares
//!   underflow), among subnormals, at `1e19` (whose `f32` squares
//!   overflow), mixed per point, and with ±0;
//! - centres with NaN and ±∞ coordinates;
//! - `dim` ∈ {1, 3, 8, 9, 48, 64, 617}.
//!
//! Single-query, batched and `TreeSoup` counts, and the mask walk
//! `LeafSoup::for_each_hit`, must equal the scalar `intersects_sphere`
//! decisions at every supported ISA, negative `r²` included. ISAs are
//! pinned through the `*_with` entry points, so the suite runs the same
//! under any `HDIDX_SIMD`.

use hdidx_check::{check, prop_assert, Config, Verdict};
use hdidx_rand::{seeded, Rng};
use hdidx_repro::core::simd::{self, filter_band, filter_eps};
use hdidx_repro::core::{Dataset, HyperRect, LeafSoup};
use hdidx_repro::vamsplit::bulkload::bulk_load;
use hdidx_repro::vamsplit::query::TreeSoup;
use hdidx_repro::vamsplit::topology::Topology;

const DIMS: &[usize] = &[1, 3, 8, 9, 48, 64, 617];

/// Coordinate scales: unit, near `2e-23` (squares underflow in `f32`),
/// subnormal, `1e19` (squares overflow in `f32`), and a per-point mix.
const SCALES: usize = 5;

/// One coordinate at scale `scale`; a twentieth are ±0.
fn coord(rng: &mut impl Rng, scale: usize) -> f32 {
    if rng.gen_bool(0.05) {
        return if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
    }
    let u = rng.gen::<f32>();
    match scale {
        0 => u * 2.0 - 1.0,
        1 => (u + 0.5) * 4e-23,
        2 => f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
        3 => (u + 1.0) * 1e19 * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
        _ => {
            let s = rng.gen_range(0..SCALES - 1);
            coord(rng, s)
        }
    }
}

fn dataset(rng: &mut impl Rng, n: usize, dim: usize, scale: usize) -> Dataset {
    let flat = (0..n)
        .flat_map(|_| {
            let s = if scale == SCALES - 1 {
                rng.gen_range(0..SCALES - 1)
            } else {
                scale
            };
            (0..dim).map(|_| coord(rng, s)).collect::<Vec<_>>()
        })
        .collect::<Vec<_>>();
    Dataset::from_flat(dim, flat).unwrap()
}

/// Query centres: data points, fresh draws, and both with a NaN or ±∞
/// coordinate.
fn centers(rng: &mut impl Rng, data: &Dataset, scale: usize) -> Vec<Vec<f32>> {
    let dim = data.dim();
    let mut out = Vec::new();
    for _ in 0..3 {
        out.push(data.point(rng.gen_range(0..data.len())).to_vec());
        out.push((0..dim).map(|_| coord(rng, scale)).collect());
    }
    for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut c = out[rng.gen_range(0..out.len())].clone();
        c[rng.gen_range(0..dim)] = x;
        out.push(c);
    }
    out.push(vec![f32::NAN; dim]);
    out
}

/// Squared radii at and around the band: for a few boxes, the exact
/// MINDIST², its neighbours and its `1 ± ε` scalings; then the fixed
/// special values.
fn radii2(rng: &mut impl Rng, rects: &[HyperRect], center: &[f32]) -> Vec<f64> {
    let eps = filter_eps(center.len());
    let mut out = Vec::new();
    for _ in 0..4 {
        let m = rects[rng.gen_range(0..rects.len())].mindist2(center);
        out.extend([
            m,
            m.next_up(),
            m.next_down(),
            m * (1.0 + eps),
            m * (1.0 - eps),
        ]);
    }
    let two100 = 2f64.powi(100);
    out.extend([
        0.0,
        -0.0,
        f64::from_bits(1),
        f64::from(f32::from_bits(1)),
        1e-80,
        two100,
        two100.next_up(),
        two100.next_down(),
        f64::INFINITY,
        f64::NAN,
        -f64::from_bits(1),
        -1.0,
    ]);
    out
}

/// The scalar reference decision, `intersects_sphere`'s body at `r2`.
fn reference(rects: &[HyperRect], center: &[f32], r2: f64) -> Vec<usize> {
    (0..rects.len())
        .filter(|&i| !r2.is_nan() && !rects[i].mindist2_exceeds(center, r2))
        .collect()
}

fn filter_agrees(dim: usize, n: usize, scale: usize, seed: u64) -> Verdict {
    let mut rng = seeded(seed);
    let data = dataset(&mut rng, n, dim, scale);
    let topo = Topology::from_capacities(dim, n, 3, 4).unwrap();
    let tree = bulk_load(&data, &topo).unwrap();
    let rects = tree.leaf_rects();
    let flat = LeafSoup::from_rects(dim, &rects).unwrap();
    let soup = TreeSoup::new(&tree).unwrap();
    for center in centers(&mut rng, &data, scale) {
        let r2s = radii2(&mut rng, &rects, &center);
        let wants: Vec<Vec<usize>> = r2s
            .iter()
            .map(|&r2| reference(&rects, &center, r2))
            .collect();
        // The batch squares each radius itself; its reference is
        // `intersects_sphere` at that radius.
        let balls: Vec<(&[f32], f64)> = r2s.iter().map(|r2| (&center[..], r2.sqrt())).collect();
        let batch_wants: Vec<u64> = balls
            .iter()
            .map(|&(c, r)| {
                rects
                    .iter()
                    .filter(|rect| rect.intersects_sphere(c, r))
                    .count() as u64
            })
            .collect();
        for isa in simd::supported() {
            for (&r2, want) in r2s.iter().zip(&wants) {
                let mut walked = Vec::new();
                flat.for_each_hit(isa, &center, r2, |i| walked.push(i));
                prop_assert!(
                    &walked == want,
                    "{isa}: walk {walked:?} vs {want:?}, r2 {r2:e}"
                );
                let single = flat.count_intersecting_with(isa, &center, r2);
                let tree_count = soup.count_intersecting_with(isa, &center, r2);
                let want = want.len() as u64;
                prop_assert!(
                    single == want,
                    "{isa}: single {single} vs {want}, r2 {r2:e}"
                );
                prop_assert!(
                    tree_count == want,
                    "{isa}: tree {tree_count} vs {want}, r2 {r2:e}"
                );
            }
            let batch = flat.count_batch_with(isa, &balls, |&(c, r)| (c, r));
            for ((&(_, r), &got), &want) in balls.iter().zip(&batch).zip(&batch_wants) {
                prop_assert!(got == want, "{isa}: batch {got} vs {want}, r {r:e}");
            }
        }
    }
    Verdict::Pass
}

#[test]
fn filtered_counts_equal_the_scalar_decisions_at_the_band() {
    check(
        "filtered_counts_equal_the_scalar_decisions_at_the_band",
        &Config::with_cases(64),
        |rng| {
            (
                rng.gen_range(0..DIMS.len()),
                rng.gen_range(1..=120usize),
                rng.gen_range(0..SCALES),
                rng.next_u64(),
            )
        },
        |&(d, n, scale, seed)| {
            // Fewer points at high dimension keep a case's work bounded.
            let dim = DIMS[d % DIMS.len()];
            let n = 1 + n % (6000 / dim).clamp(10, 120);
            filter_agrees(dim, n, scale % SCALES, seed)
        },
    );
}

#[test]
fn every_dimension_and_scale_is_covered() {
    for (i, &dim) in DIMS.iter().enumerate() {
        for scale in 0..SCALES {
            let seed = 0xf11e_0000 + (i * SCALES + scale) as u64;
            let verdict = filter_agrees(dim, 24, scale, seed);
            assert_eq!(verdict, Verdict::Pass, "dim {dim}, scale {scale}");
        }
    }
}

/// Many tiny gaps: every dimension's `f32` square (`6.25e-46`, below
/// half the least subnormal) rounds to 0 while the `f64` sum stays a
/// representable multiple of it, so a lane at `r² = next_down(MINDIST²)`
/// must not pass through the filter as a hit.
#[test]
fn underflowing_squares_stay_misses() {
    for &dim in DIMS {
        let lo = vec![2.5e-23f32; dim];
        let rect = HyperRect::new(lo.clone(), lo).unwrap();
        let rects = vec![rect; 5];
        let soup = LeafSoup::from_rects(dim, &rects).unwrap();
        let center = vec![0.0f32; dim];
        let m = rects[0].mindist2(&center);
        assert!(m > 0.0);
        for r2 in [m, m.next_down(), m.next_up(), 0.0] {
            let want = reference(&rects, &center, r2).len() as u64;
            for isa in simd::supported() {
                assert_eq!(
                    soup.count_intersecting_with(isa, &center, r2),
                    want,
                    "{isa} {r2:e}"
                );
            }
        }
    }
}

#[test]
fn the_band_brackets_every_servable_radius() {
    let slack = 2f64.powi(-100);
    let two100 = 2f64.powi(100);
    let mut rng = seeded(0xba4d);
    for dim in DIMS.iter().copied().chain([simd::FILTER_MAX_DIM]) {
        let eps = filter_eps(dim);
        assert_eq!(eps, (dim + 8) as f64 * 2f64.powi(-22));
        let mut r2s = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            1e-45,
            1e-31,
            slack,
            1.0,
            two100,
        ];
        r2s.extend((0..64).map(|_| 2f64.powf(rng.gen::<f64>() * 200.0 - 100.0)));
        for r2 in r2s {
            let band = filter_band(r2, dim).expect("servable radius");
            let (hit, miss) = (f64::from(band.hit), f64::from(band.miss));
            // Strictly outside the f64 images of the real thresholds: the
            // one-f32-step widening dwarfs their f64 rounding.
            assert!(
                hit < r2 * (1.0 - eps) - slack,
                "hit {hit:e} at {r2:e}, dim {dim}"
            );
            assert!(
                miss > r2 * (1.0 + eps) + slack,
                "miss {miss:e} at {r2:e}, dim {dim}"
            );
            // And no wider than two f32 steps beyond them.
            let tight_hit = f64::from(band.hit.next_up().next_up());
            let tight_miss = f64::from(band.miss.next_down().next_down());
            assert!(
                tight_hit >= r2 * (1.0 - eps) - slack,
                "hit too low at {r2:e}"
            );
            assert!(
                tight_miss <= r2 * (1.0 + eps) + slack,
                "miss too high at {r2:e}"
            );
            assert!(band.miss.is_finite() && band.hit < band.miss);
        }
    }
    // A zero radius decides no hit in f32 (its hit threshold is negative).
    assert!(filter_band(0.0, 64).unwrap().hit < 0.0);
    assert!(filter_band(-0.0, 64).unwrap().hit < 0.0);
    // Every radius outside [0, 2^100], and every dimension above the cap,
    // goes to the exact kernel.
    for r2 in [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1.0,
        -f64::from_bits(1),
        two100.next_up(),
        f64::MAX,
    ] {
        assert_eq!(filter_band(r2, 64), None, "{r2:e}");
    }
    assert_eq!(filter_band(1.0, simd::FILTER_MAX_DIM + 1), None);
}
