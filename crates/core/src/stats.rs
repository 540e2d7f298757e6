//! Per-dimension statistics over subsets of a [`Dataset`].
//!
//! The VAMSplit strategy (paper §4.1) picks the dimension of **maximum
//! variance** at every partitioning step. These helpers compute variances
//! with `f64` accumulation over an id-subset without materializing the
//! subset.
//!
//! [`Isa::Scalar`] runs the reference loops: a mean pass over every
//! dimension of every point, then a variance pass. The SSE2 and AVX2 paths
//! run one row-blocked, register-tiled kernel instead, dispatched through
//! [`simd::active`] like the counting and k-NN kernels. Its mean pass
//! walks `ids` in blocks of 16 rows and runs every dimension tile (16,
//! then 8, 4 and 1 for the tail) over a block before it reads the next,
//! so each gathered row is fetched from memory once per pass rather than
//! once per tile; it then divides by `n` and runs the variance pass the
//! same way. A tile's accumulators are held in registers across a block
//! and in a stack array between blocks (one array per 128 dimensions, so
//! a pass allocates nothing). Every dimension adds the same `f64`
//! operands in the same order as the reference, so the moments are
//! bit-for-bit identical (the identity argument is in the [`crate::simd`]
//! module doc).

use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::simd::{self, Isa};

/// Per-dimension mean and (population) variance of a point subset.
#[derive(Debug, Clone, PartialEq)]
pub struct DimStats {
    /// Mean per dimension.
    pub mean: Vec<f64>,
    /// Population variance per dimension.
    pub variance: Vec<f64>,
}

/// Computes per-dimension mean/variance of the points at `ids` on the
/// active ISA ([`simd::active`]).
///
/// Uses the shifted two-pass formulation: one pass for means, one for central
/// second moments. Population (1/n) normalization — only the argmax matters
/// to the split, so the normalization choice is irrelevant there, but it is
/// documented for the tests.
///
/// # Errors
///
/// Returns [`Error::EmptyInput`] if `ids` is empty.
pub fn dim_stats(data: &Dataset, ids: &[u32]) -> Result<DimStats> {
    dim_stats_with(simd::active(), data, ids)
}

/// [`dim_stats`] pinned to `isa`; every ISA returns the same bits.
///
/// # Errors
///
/// Returns [`Error::EmptyInput`] if `ids` is empty.
///
/// # Panics
///
/// Panics if `isa` is not supported by this CPU/build, or if an id is out
/// of range.
pub fn dim_stats_with(isa: Isa, data: &Dataset, ids: &[u32]) -> Result<DimStats> {
    if ids.is_empty() {
        return Err(Error::EmptyInput("ids for dim_stats"));
    }
    if isa == Isa::Scalar {
        return Ok(dim_stats_scalar(data, ids));
    }
    let d = data.dim();
    let mut mean = vec![0.0f64; d];
    let mut variance = vec![0.0f64; d];
    simd::moments(isa, data.as_flat(), d, ids, |j, m, v| {
        mean[j..j + m.len()].copy_from_slice(m);
        variance[j..j + v.len()].copy_from_slice(v);
    });
    Ok(DimStats { mean, variance })
}

/// The reference loops [`Isa::Scalar`] runs and the tiled kernel replays.
fn dim_stats_scalar(data: &Dataset, ids: &[u32]) -> DimStats {
    let d = data.dim();
    let n = ids.len() as f64;
    let mut mean = vec![0.0f64; d];
    for &id in ids {
        let p = data.point(id as usize);
        for j in 0..d {
            mean[j] += f64::from(p[j]);
        }
    }
    for m in &mut mean {
        *m = canonical_nan(*m / n);
    }
    let mut variance = vec![0.0f64; d];
    for &id in ids {
        let p = data.point(id as usize);
        for j in 0..d {
            let dev = f64::from(p[j]) - mean[j];
            variance[j] += dev * dev;
        }
    }
    for v in &mut variance {
        *v = canonical_nan(*v / n);
    }
    DimStats { mean, variance }
}

/// `x`, with any NaN replaced by [`f64::NAN`]. Rust leaves the sign and
/// payload of a NaN result unspecified, and on x86 they depend on which
/// operand of an add LLVM puts first, so the two kernels could otherwise
/// return different NaN bits for the same NaN moment.
#[inline(always)]
fn canonical_nan(x: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else {
        x
    }
}

/// Returns the dimension with the largest variance among the points at
/// `ids` (ties broken towards the lower index), on the active ISA.
///
/// # Errors
///
/// Returns [`Error::EmptyInput`] if `ids` is empty.
pub fn max_variance_dim(data: &Dataset, ids: &[u32]) -> Result<usize> {
    max_variance_dim_with(simd::active(), data, ids)
}

/// [`max_variance_dim`] pinned to `isa`; every ISA picks the same
/// dimension. The tiled paths keep a running strict-`>` argmax in
/// ascending dimension order and allocate nothing: their accumulators
/// live on the stack, so a split costs no heap allocation.
///
/// # Errors
///
/// Returns [`Error::EmptyInput`] if `ids` is empty.
///
/// # Panics
///
/// Panics if `isa` is not supported by this CPU/build, or if an id is out
/// of range.
pub fn max_variance_dim_with(isa: Isa, data: &Dataset, ids: &[u32]) -> Result<usize> {
    if ids.is_empty() {
        return Err(Error::EmptyInput("ids for dim_stats"));
    }
    let mut best = (0usize, 0.0f64);
    if isa == Isa::Scalar {
        fold_argmax(&mut best, 0, &dim_stats_scalar(data, ids).variance);
    } else {
        simd::moments(isa, data.as_flat(), data.dim(), ids, |j, _, v| {
            fold_argmax(&mut best, j, v);
        });
    }
    Ok(best.0)
}

/// Folds the variances of dimensions `j0..` into the running argmax
/// `best = (dim, variance)`: strict `>` in ascending dimension order, so
/// ties (and a NaN after dimension 0) never displace a lower index.
fn fold_argmax(best: &mut (usize, f64), j0: usize, variances: &[f64]) {
    for (l, &v) in variances.iter().enumerate() {
        if j0 + l == 0 || v > best.1 {
            *best = (j0 + l, v);
        }
    }
}

/// Rows per block of the tiled moments kernel: every dimension tile of a
/// panel runs over one block of rows before the next block is read, so
/// the block's rows stay in L1 across the tiles instead of being gathered
/// from memory once per tile.
const ROW_BLOCK: usize = 16;

/// Dimensions whose accumulators one pass over `ids` carries in a stack
/// array; wider points take one mean and one variance pass per panel.
const PANEL: usize = 128;

/// The row-blocked, register-tiled moments kernel behind the SIMD paths,
/// hand-off point of [`simd::moments`]: `sink(j, means, variances)`
/// receives the moments of dimensions `j..j + means.len()` panel by
/// panel, in ascending `j`. `flat` is the row-major buffer of `dim`-wide
/// points and `ids` is non-empty. Inlined into each ISA's copy so the
/// tile accumulators get that ISA's registers.
#[inline(always)]
pub(crate) fn moments_tiled(
    flat: &[f32],
    dim: usize,
    ids: &[u32],
    mut sink: impl FnMut(usize, &[f64], &[f64]),
) {
    let n = ids.len() as f64;
    let mut j = 0usize;
    while j < dim {
        let w = PANEL.min(dim - j);
        let mut mean = [0.0f64; PANEL];
        let mut variance = [0.0f64; PANEL];
        let (mean, variance) = (&mut mean[..w], &mut variance[..w]);
        for block in ids.chunks(ROW_BLOCK) {
            add_block(flat, dim, j, block, None, mean);
        }
        for m in mean.iter_mut() {
            *m = canonical_nan(*m / n);
        }
        for block in ids.chunks(ROW_BLOCK) {
            add_block(flat, dim, j, block, Some(mean), variance);
        }
        for v in variance.iter_mut() {
            *v = canonical_nan(*v / n);
        }
        sink(j, mean, variance);
        j += w;
    }
}

/// Adds one block of rows into the accumulators `acc` of dimensions
/// `j0..j0 + acc.len()`, in tiles of 16, then 8, 4 and 1: each row's
/// coordinate (the mean pass, `mean = None`) or its squared deviation
/// from `mean` (the variance pass). Each lane is one dimension's add
/// chain, continued in `ids` order from the previous block.
#[inline(always)]
fn add_block(
    flat: &[f32],
    dim: usize,
    j0: usize,
    block: &[u32],
    mean: Option<&[f64]>,
    acc: &mut [f64],
) {
    let w = acc.len();
    let at = |t: usize| mean.map(|m| &m[t..]);
    let mut t = 0usize;
    while t + 16 <= w {
        add_tile::<16>(flat, dim, j0 + t, block, at(t), &mut acc[t..]);
        t += 16;
    }
    if t + 8 <= w {
        add_tile::<8>(flat, dim, j0 + t, block, at(t), &mut acc[t..]);
        t += 8;
    }
    if t + 4 <= w {
        add_tile::<4>(flat, dim, j0 + t, block, at(t), &mut acc[t..]);
        t += 4;
    }
    while t < w {
        add_tile::<1>(flat, dim, j0 + t, block, at(t), &mut acc[t..]);
        t += 1;
    }
}

/// [`add_block`] for the `W` dimensions at `j0`: the accumulators are
/// held in a local array (registers) across the block's rows.
#[inline(always)]
fn add_tile<const W: usize>(
    flat: &[f32],
    dim: usize,
    j0: usize,
    block: &[u32],
    mean: Option<&[f64]>,
    acc: &mut [f64],
) {
    let acc: &mut [f64; W] = (&mut acc[..W]).try_into().expect("a tile of W sums");
    let mut sums = *acc;
    let row = |id: u32| tile_row::<W>(flat, id as usize * dim + j0);
    match mean {
        None => {
            for &id in block {
                for (s, &x) in sums.iter_mut().zip(row(id)) {
                    *s += f64::from(x);
                }
            }
        }
        Some(mean) => {
            let mean: &[f64; W] = mean[..W].try_into().expect("a tile of W means");
            for &id in block {
                for ((s, &m), &x) in sums.iter_mut().zip(mean).zip(row(id)) {
                    let dev = f64::from(x) - m;
                    *s += dev * dev;
                }
            }
        }
    }
    *acc = sums;
}

/// The `W` coordinates at `flat[start..]`, as an array so the tile loops
/// unroll with one bounds check per row.
#[inline(always)]
fn tile_row<const W: usize>(flat: &[f32], start: usize) -> &[f32; W] {
    flat[start..start + W]
        .try_into()
        .expect("a slice of W coordinates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_check::{check, prop_assert_eq, prop_assume, Config, Verdict};
    use hdidx_rand::Rng;

    fn data() -> Dataset {
        // dim 0: {0, 0, 0, 0} — zero variance
        // dim 1: {0, 2, 4, 6} — mean 3, variance 5
        Dataset::from_flat(2, vec![0.0, 0.0, 0.0, 2.0, 0.0, 4.0, 0.0, 6.0]).unwrap()
    }

    #[test]
    fn stats_match_hand_computation() {
        let d = data();
        let s = dim_stats(&d, &[0, 1, 2, 3]).unwrap();
        assert_eq!(s.mean, vec![0.0, 3.0]);
        assert_eq!(s.variance[0], 0.0);
        assert!((s.variance[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn subset_stats_use_only_listed_ids() {
        let d = data();
        let s = dim_stats(&d, &[1, 3]).unwrap();
        assert_eq!(s.mean[1], 4.0);
        assert!((s.variance[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn max_variance_dim_picks_spread_axis() {
        let d = data();
        assert_eq!(max_variance_dim(&d, &[0, 1, 2, 3]).unwrap(), 1);
        // Single point: all variances zero, tie breaks to dim 0.
        assert_eq!(max_variance_dim(&d, &[2]).unwrap(), 0);
    }

    #[test]
    fn empty_ids_error() {
        let d = data();
        for isa in simd::supported() {
            assert!(dim_stats_with(isa, &d, &[]).is_err());
            assert!(max_variance_dim_with(isa, &d, &[]).is_err());
        }
    }

    /// A coordinate in one of three case regimes. Regime 0: small
    /// ordinary floats, whose `f64` sums are exact, so ties stay exact.
    /// Regime 1: both zeros, subnormals and magnitudes spread up to 3e38,
    /// where the summation order changes the rounding. Regime 2: regime 1
    /// plus NaN and both infinities.
    fn coord(rng: &mut impl Rng, regime: u32) -> f32 {
        if regime == 0 {
            return rng.gen_range(-4.0..4.0f32);
        }
        match rng.gen_range(0..40u32) {
            0 => -0.0,
            1 => 0.0,
            2 => f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
            3 => -f32::MIN_POSITIVE / 3.0,
            4..=9 => rng.gen_range(-1.0..1.0f32) * 3.0e38,
            10..=30 => rng.gen_range(-1.0..1.0f32) * 2f32.powi(rng.gen_range(-40..100i32)),
            37 if regime == 2 => f32::NAN,
            38 if regime == 2 => f32::INFINITY,
            39 if regime == 2 => f32::NEG_INFINITY,
            _ => rng.gen_range(-4.0..4.0f32),
        }
    }

    /// One generated case: `(dim, row-major coordinates, ids)`. Ids may
    /// repeat; columns are sometimes copied or negated from another
    /// column so exact variance ties occur; rows are sometimes copied so
    /// duplicate points occur. A third of the cases put the id count
    /// on a row-block edge (`ROW_BLOCK` − 1, `ROW_BLOCK`, `ROW_BLOCK` + 1
    /// or 2·`ROW_BLOCK` + 1) with a dimensionality whose last tiles are
    /// 8, 4 and 1 wide, sometimes across a `PANEL` edge.
    fn gen_case(rng: &mut impl Rng) -> (usize, Vec<f32>, Vec<u32>) {
        let mut dim = rng.gen_range(1..=70usize);
        let n_ids = match rng.gen_range(0..6u32) {
            0 => rng.gen_range(1..=3usize),
            1 => rng.gen_range(4..=64usize),
            2 => rng.gen_range(65..=600usize),
            3 => rng.gen_range(601..=3_000usize),
            _ => {
                // 13..=15 past a multiple of 16: tails of 8, 4 and 1..=3.
                let tails = 13 + rng.gen_range(0..3usize);
                dim = match rng.gen_range(0..3u32) {
                    0 => 16 * rng.gen_range(0..=4usize) + tails,
                    1 => PANEL - 16 + tails,
                    _ => PANEL + tails,
                };
                [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1]
                    [rng.gen_range(0..4usize)]
            }
        };
        let n = rng.gen_range(1..=n_ids.min(1_500));
        let regime = rng.gen_range(0..3u32);
        let mut coords: Vec<f32> = (0..n * dim).map(|_| coord(rng, regime)).collect();
        for _ in 0..rng.gen_range(0..4usize) {
            if dim >= 2 {
                let (src, dst) = (rng.gen_range(0..dim), rng.gen_range(0..dim));
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                for row in coords.chunks_exact_mut(dim) {
                    row[dst] = sign * row[src];
                }
            }
            if n >= 2 {
                let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
                coords.copy_within(src * dim..(src + 1) * dim, dst * dim);
            }
        }
        let ids: Vec<u32> = if rng.gen_bool(0.3) {
            (0..n_ids).map(|i| (i % n) as u32).collect()
        } else {
            (0..n_ids).map(|_| rng.gen_range(0..n as u32)).collect()
        };
        (dim, coords, ids)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn simd_moments_match_scalar_bitwise_at_every_isa() {
        check(
            "simd_moments_match_scalar_bitwise_at_every_isa",
            &Config::with_cases(256),
            gen_case,
            |(dim, coords, ids)| {
                let dim = *dim;
                prop_assume!(dim >= 1 && !ids.is_empty() && coords.len() >= dim);
                let data =
                    Dataset::from_flat(dim, coords[..coords.len() / dim * dim].to_vec()).unwrap();
                prop_assume!(ids.iter().all(|&id| (id as usize) < data.len()));
                let want = dim_stats_with(Isa::Scalar, &data, ids).unwrap();
                let want_dim = max_variance_dim_with(Isa::Scalar, &data, ids).unwrap();
                for isa in simd::supported() {
                    let got = dim_stats_with(isa, &data, ids).unwrap();
                    prop_assert_eq!(bits(&got.mean), bits(&want.mean));
                    prop_assert_eq!(bits(&got.variance), bits(&want.variance));
                    prop_assert_eq!(max_variance_dim_with(isa, &data, ids).unwrap(), want_dim);
                }
                Verdict::Pass
            },
        );
    }

    #[test]
    fn simd_moments_break_exact_variance_ties_towards_the_lowest_dim() {
        // Dims 5, 21 and 69 hold the same spread (21 negated): exact ties
        // in three different tiles; the lowest index must win at every ISA.
        let dim = 70;
        let mut coords = vec![0.0f32; 9 * dim];
        for (i, row) in coords.chunks_exact_mut(dim).enumerate() {
            let x = i as f32 * 1.5 - 3.0;
            row[5] = x;
            row[21] = -x;
            row[69] = x;
            row[40] = x * 0.5;
        }
        let data = Dataset::from_flat(dim, coords).unwrap();
        let ids: Vec<u32> = (0..9).collect();
        for isa in simd::supported() {
            let s = dim_stats_with(isa, &data, &ids).unwrap();
            assert_eq!(s.variance[5].to_bits(), s.variance[21].to_bits(), "{isa}");
            assert_eq!(s.variance[5].to_bits(), s.variance[69].to_bits(), "{isa}");
            assert_eq!(max_variance_dim_with(isa, &data, &ids).unwrap(), 5, "{isa}");
            // A NaN variance past dim 0 never wins and never blocks a
            // later winner.
            let mut nan = data.as_flat().to_vec();
            nan[1] = f32::NAN;
            let nan = Dataset::from_flat(dim, nan).unwrap();
            assert_eq!(max_variance_dim_with(isa, &nan, &ids).unwrap(), 5, "{isa}");
        }
    }
}
