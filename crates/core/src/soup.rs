//! `LeafSoup`: a flat, structure-of-arrays (SoA) layout of leaf-page MBRs
//! with blocked, batch-oriented sphere-counting kernels.
//!
//! Every predictor in the paper reduces to the same inner loop — count how
//! many (grown) leaf pages a query sphere intersects (§3). The pointer-rich
//! `Vec<HyperRect>` representation is the right tool at build/grow time,
//! but walking it per query chases two heap allocations per rectangle and
//! re-branches per dimension. `LeafSoup` flattens the final page set once
//! into **column-major** `lo`/`hi` arrays — one contiguous `f32` stripe per
//! dimension — so the counting kernel streams cache lines linearly, the
//! same discipline sequential VA-file scans rely on (Weber et al.,
//! VLDB '98).
//!
//! ## Blocking factors
//!
//! * [`LEAF_BLOCK`] (64) — the scalar kernel processes leaves in blocks;
//!   each block keeps its partial MINDIST² accumulators in a stack array
//!   while the kernel sweeps the dimension stripes.
//! * [`DIM_TILE`] (8) — dimensions are consumed in tiles; after each tile
//!   the kernel early-exits the whole block once every accumulator already
//!   exceeds `r²` (the decision is monotone, see below).
//! * [`QUERY_BLOCK`] (16) — [`LeafSoup::count_batch`] walks the queries
//!   in blocks, extracting the per-query `(center, r²)` pairs **once per
//!   block**. Within a block the SIMD paths run leaf-group-major with
//!   queries inner (a group's stripe bytes stay in L1 across the whole
//!   query block); the scalar path runs each query's blocked sweep
//!   query-major — leaf-major ordering bought it nothing once the early
//!   exit shrank a block's footprint, and at thousands of leaves it made
//!   batch slower than single-query.
//! * [`LANE_PAD`] (16) — every stripe is padded to a multiple of 16 lanes
//!   with sentinel bounds (`lo = hi = +∞`), so the SIMD kernels
//!   ([`crate::simd`]) never need a remainder loop: a full-width group
//!   load is always in bounds, and a sentinel's accumulator is `+∞` after
//!   its first dimension, which can only help the early exit. Sentinels
//!   are excluded from counts by lane masking (never by value), so even a
//!   non-finite `r²` cannot count one; [`LeafSoup::len`] always reports
//!   the logical count.
//!
//! ## The bit-identity contract
//!
//! The kernels preserve the scalar path's per-leaf, per-dimension `f64`
//! accumulation order exactly: for every leaf, the partial sum adds the
//! squared per-dimension distances in ascending dimension order, computed
//! with the same branch-free operands as [`HyperRect::mindist2`] (an
//! in-interval dimension contributes `±0.0`, whose square leaves a
//! non-negative `f64` accumulator bit-identical), so a lane's full sum
//! *is* that rectangle's `mindist2`. Early exit is sound because the terms are
//! non-negative and `f64` addition of non-negative terms is monotone: once
//! a partial sum exceeds `r²` the final sum does too. The SIMD paths keep
//! the same contract by vectorizing across the *leaf* axis only — lane
//! `l` of a register owns leaf `i + l` and replays the identical chain
//! (see [`crate::simd`]) — so counts from every ISA are **byte-identical**
//! to counting `HyperRect::intersects_sphere` over the same rectangles,
//! and [`LeafSoup::for_each_intersecting`] hands on each passing lane's
//! MINDIST² with the bits `HyperRect::mindist2` returns. The SIMD
//! counting paths ([`LeafSoup::count_intersecting_with`],
//! [`LeafSoup::count_batch_with`], [`LeafSoup::for_each_hit`]) first
//! decide lanes in `f32`, only where the `f64` decision is proven to
//! agree, and run the exact chain for every other group (see
//! [`crate::simd`], "the `f32` filter"). A
//! contract pinned by `tests/soup_kernels.rs` and `tests/simd_dispatch.rs`
//! and asserted by the `kernels` bench suite before any timing.

use crate::error::{Error, Result};
use crate::rect::HyperRect;
use crate::simd::{self, Isa};
use hdidx_pool::Pool;

/// Leaves per scalar processing block (partial sums live in a stack array
/// of this size).
pub const LEAF_BLOCK: usize = 64;

/// Dimensions per tile between early-exit checks.
pub const DIM_TILE: usize = 8;

/// Queries per batch block in [`LeafSoup::count_batch`].
pub const QUERY_BLOCK: usize = 16;

/// Stripe padding multiple: one AVX2 macro-group (4 × 4 `f64` lanes). Every
/// stripe is `stride = len.next_multiple_of(LANE_PAD)` long, the tail
/// filled with `+∞` sentinels, so no SIMD kernel needs a remainder loop.
pub const LANE_PAD: usize = 16;

/// A flat SoA snapshot of a leaf-page set: `dim` contiguous `lo` stripes
/// and `dim` contiguous `hi` stripes of `stride` `f32` bounds each
/// (`lo[j * stride + i]` is dimension `j` of leaf `i`; lanes at
/// `len <= i < stride` are `+∞` sentinels, see [`LANE_PAD`]).
///
/// Build once from the grown `Vec<HyperRect>` page list, then count many
/// spheres against it.
///
/// # Examples
///
/// ```
/// use hdidx_core::{HyperRect, LeafSoup};
///
/// let pages = vec![
///     HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap(),
///     HyperRect::new(vec![2.0, 2.0], vec![3.0, 3.0]).unwrap(),
/// ];
/// let soup = LeafSoup::from_rects(2, &pages).unwrap();
/// assert_eq!(soup.count_intersecting(&[0.5, 0.5], 0.0), 1);
/// assert_eq!(soup.count_intersecting(&[1.5, 1.5], 0.5 + 1e-9), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LeafSoup {
    dim: usize,
    len: usize,
    stride: usize,
    lo: Vec<f32>,
    hi: Vec<f32>,
}

impl LeafSoup {
    /// Flattens a rectangle list into the SoA layout. An empty list is
    /// allowed (every count is 0).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for `dim == 0` and
    /// [`Error::DimensionMismatch`] if any rectangle disagrees with `dim`.
    pub fn from_rects(dim: usize, rects: &[HyperRect]) -> Result<LeafSoup> {
        if dim == 0 {
            return Err(Error::invalid("dim", "dimensionality must be positive"));
        }
        let len = rects.len();
        let stride = len.next_multiple_of(LANE_PAD);
        // Sentinel fill: a padding lane reads as the impossible rect
        // [+inf, +inf], whose accumulator saturates to +inf after one
        // dimension — it can only help the early exit, never intersect.
        let mut lo = vec![f32::INFINITY; dim * stride];
        let mut hi = vec![f32::INFINITY; dim * stride];
        for (i, r) in rects.iter().enumerate() {
            if r.dim() != dim {
                return Err(Error::DimensionMismatch {
                    expected: dim,
                    actual: r.dim(),
                });
            }
            for j in 0..dim {
                lo[j * stride + i] = r.lo()[j];
                hi[j * stride + i] = r.hi()[j];
            }
        }
        Ok(LeafSoup {
            dim,
            len,
            stride,
            lo,
            hi,
        })
    }

    /// Dimensionality of the stored rectangles.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored rectangles (the logical count — padding sentinels
    /// are never reported or counted).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the soup holds no rectangles.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of stored rectangles whose MINDIST² to `center` is at most
    /// `r2` — exactly the leaves the closed ball of squared radius `r2`
    /// intersects, byte-identical to filtering the original rectangles
    /// with [`HyperRect::intersects_sphere`]. Dispatches to the active
    /// SIMD ISA ([`crate::simd::active`]).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `center.len()` matches the soup dimensionality.
    pub fn count_intersecting(&self, center: &[f32], r2: f64) -> u64 {
        self.count_intersecting_with(simd::active(), center, r2)
    }

    /// [`LeafSoup::count_intersecting`] pinned to one ISA — the entry
    /// point identity tests and per-ISA bench rows use.
    ///
    /// # Panics
    ///
    /// Panics if `isa` is not supported by this CPU/build.
    pub fn count_intersecting_with(&self, isa: Isa, center: &[f32], r2: f64) -> u64 {
        debug_assert_eq!(center.len(), self.dim);
        match isa {
            Isa::Scalar => self.count_scalar(center, r2),
            _ => {
                let mut total = 0u64;
                simd::soup_hit_masks(
                    isa,
                    &self.lo,
                    &self.hi,
                    self.stride,
                    self.len,
                    center,
                    r2,
                    |_, mask| total += u64::from(mask.count_ones()),
                );
                total
            }
        }
    }

    /// Calls `f(i)`, in ascending `i`, for every stored rectangle `i` that
    /// [`LeafSoup::count_intersecting_with`] counts: the same decisions
    /// from the same masks, walked instead of popcounted. Without the
    /// MINDIST²s of [`LeafSoup::for_each_intersecting`], the SIMD paths
    /// decide lanes in the `f32` filter (see [`crate::simd`]).
    ///
    /// # Panics
    ///
    /// Panics if `isa` is not supported by this CPU/build.
    pub fn for_each_hit(&self, isa: Isa, center: &[f32], r2: f64, mut f: impl FnMut(usize)) {
        match isa {
            Isa::Scalar => self.for_each_intersecting(isa, center, r2, |i, _| f(i)),
            _ => simd::soup_hit_masks(
                isa,
                &self.lo,
                &self.hi,
                self.stride,
                self.len,
                center,
                r2,
                |base, mut mask| {
                    while mask != 0 {
                        f(base + mask.trailing_zeros() as usize);
                        mask &= mask - 1;
                    }
                },
            ),
        }
    }

    /// Calls `f(i, mindist2)`, in ascending `i`, for every stored
    /// rectangle `i` whose MINDIST² to `center` is at most `r2`: the same
    /// decisions [`LeafSoup::count_intersecting_with`] counts, from the
    /// same kernel (its lane masks are walked instead of popcounted).
    /// `mindist2` is the lane's fully accumulated sum, bit for bit
    /// [`HyperRect::mindist2`] of the stored rectangle: a group is only
    /// abandoned early when none of its lanes passes.
    ///
    /// # Panics
    ///
    /// Panics if `isa` is not supported by this CPU/build.
    pub fn for_each_intersecting(
        &self,
        isa: Isa,
        center: &[f32],
        r2: f64,
        mut f: impl FnMut(usize, f64),
    ) {
        debug_assert_eq!(center.len(), self.dim);
        let mut visit = |base: usize, mut mask: u64, d2: &[f64]| {
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                f(base + lane, d2[lane]);
                mask &= mask - 1;
            }
        };
        match isa {
            Isa::Scalar => {
                let mut acc = [0.0f64; LEAF_BLOCK];
                let mut start = 0usize;
                while start < self.len {
                    let end = (start + LEAF_BLOCK).min(self.len);
                    visit(
                        start,
                        self.block_mask(start, end, center, r2, &mut acc),
                        &acc,
                    );
                    start = end;
                }
            }
            _ => simd::soup_group_masks(
                isa,
                &self.lo,
                &self.hi,
                self.stride,
                self.len,
                center,
                r2,
                |base, mask, d2| visit(base, u64::from(mask), d2),
            ),
        }
    }

    /// Batched counting: `out[i]` is the number of stored rectangles the
    /// query ball `key(&queries[i]) = (center, radius)` intersects (the
    /// comparison is `MINDIST² <= radius * radius`, matching
    /// [`HyperRect::intersects_sphere`]).
    ///
    /// Queries are processed in order, in [`QUERY_BLOCK`]-sized blocks,
    /// with the `(center, r²)` keys extracted once per block. The SIMD
    /// paths run leaf-group-major with queries inner, so each group's
    /// stripe bytes are reused by the whole block from L1; the scalar path
    /// runs each query's blocked sweep.
    ///
    /// Counting runs on the calling thread; `_pool` is ignored (threads
    /// did not pay here, see DESIGN §5b). It stays in the signature only
    /// because `e2ebench/` calls it; other callers pass [`Pool::serial`].
    pub fn count_batch<Q, F>(&self, _pool: &Pool, queries: &[Q], key: F) -> Vec<u64>
    where
        F: Fn(&Q) -> (&[f32], f64),
    {
        self.count_batch_with(simd::active(), queries, key)
    }

    /// [`LeafSoup::count_batch`] pinned to one ISA.
    ///
    /// # Panics
    ///
    /// Panics if `isa` is not supported by this CPU/build.
    pub fn count_batch_with<Q, F>(&self, isa: Isa, queries: &[Q], key: F) -> Vec<u64>
    where
        F: Fn(&Q) -> (&[f32], f64),
    {
        let mut counts = Vec::with_capacity(queries.len());
        for chunk in queries.chunks(QUERY_BLOCK) {
            counts.extend(self.count_chunk_with(isa, chunk, &key));
        }
        counts
    }

    /// Counts one query block: keys hoisted once, then leaf-major with
    /// queries inner.
    fn count_chunk_with<Q, F>(&self, isa: Isa, chunk: &[Q], key: &F) -> Vec<u64>
    where
        F: Fn(&Q) -> (&[f32], f64),
    {
        // Hoist the key extraction and the radius squaring out of the leaf
        // loop: at thousands of leaf blocks, re-deriving them per
        // (block, query) pair was the batch-vs-single regression.
        let prepared: Vec<(&[f32], f64)> = chunk
            .iter()
            .map(|q| {
                let (center, radius) = key(q);
                (center, radius * radius)
            })
            .collect();
        let mut counts = vec![0u64; chunk.len()];
        match isa {
            // Scalar: query-major, each query running the exact blocked
            // single-query sweep. Leaf-major ordering bought the scalar
            // path nothing (the early exit shrinks a block's footprint to
            // roughly one DIM_TILE, so there is little to reuse) and
            // measurably lost at thousands of leaves; query-major makes
            // batch throughput equal single-query by construction.
            Isa::Scalar => {
                for (out, &(center, r2)) in counts.iter_mut().zip(&prepared) {
                    *out = self.count_scalar(center, r2);
                }
            }
            _ => simd::soup_count_chunk(
                isa,
                &self.lo,
                &self.hi,
                self.stride,
                self.len,
                &prepared,
                &mut counts,
            ),
        }
        counts
    }

    /// Scalar scan: [`LEAF_BLOCK`]-sized blocks over every stored leaf.
    /// This is the committed reference path every SIMD ISA must match bit
    /// for bit.
    ///
    /// `inline(never)`: the single-query and batched entry points both
    /// land here, and letting LLVM inline (and re-optimize) a copy into
    /// each caller produced measurably different code — the batched copy
    /// ran ~10% slower, failing the bench's batch ≥ single pin. One
    /// out-of-line body makes the two paths the same machine code.
    #[inline(never)]
    fn count_scalar(&self, center: &[f32], r2: f64) -> u64 {
        let mut acc = [0.0f64; LEAF_BLOCK];
        let mut total = 0u64;
        let mut start = 0usize;
        while start < self.len {
            let end = (start + LEAF_BLOCK).min(self.len);
            total += u64::from(
                self.block_mask(start, end, center, r2, &mut acc)
                    .count_ones(),
            );
            start = end;
        }
        total
    }

    /// The blocked scalar kernel: MINDIST² accumulation for leaves
    /// `[start, end)` against one sphere, sweeping dimension stripes with
    /// an all-lanes early exit every [`DIM_TILE`] dimensions. Returns the
    /// block's mask: bit `l` is set when leaf `start + l` intersects, and
    /// then `acc[l]` holds its MINDIST².
    #[inline]
    fn block_mask(
        &self,
        start: usize,
        end: usize,
        center: &[f32],
        r2: f64,
        acc: &mut [f64; LEAF_BLOCK],
    ) -> u64 {
        debug_assert_eq!(center.len(), self.dim);
        debug_assert!(end - start <= LEAF_BLOCK && start <= end && end <= self.len);
        let width = end - start;
        acc[..width].fill(0.0);
        let mut j = 0usize;
        while j < self.dim {
            let tile_end = (j + DIM_TILE).min(self.dim);
            while j < tile_end {
                let x = f64::from(center[j]);
                let lo = &self.lo[j * self.stride + start..j * self.stride + end];
                let hi = &self.hi[j * self.stride + start..j * self.stride + end];
                for ((a, &l), &h) in acc[..width].iter_mut().zip(lo).zip(hi) {
                    // Same operands as `HyperRect::mindist2`: below →
                    // lo - x, above → x - hi, inside → ±0.0 (squared, a
                    // no-op on the non-negative accumulator).
                    let d = (f64::from(l) - x).max(x - f64::from(h)).max(0.0);
                    *a += d * d;
                }
                j += 1;
            }
            // Monotone accumulation: once every lane exceeds r², no later
            // dimension can change any decision in this block.
            if acc[..width].iter().all(|&a| a > r2) {
                break;
            }
        }
        acc[..width]
            .iter()
            .enumerate()
            .fold(0u64, |mask, (l, &a)| mask | (u64::from(a <= r2) << l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_rand::{seeded, Rng};

    /// Random rectangles, including degenerate (point) ones.
    fn random_rects(n: usize, dim: usize, seed: u64) -> Vec<HyperRect> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| {
                let lo: Vec<f32> = (0..dim).map(|_| rng.gen::<f32>() * 4.0 - 2.0).collect();
                if rng.gen_bool(0.2) {
                    HyperRect::point(&lo)
                } else {
                    let hi: Vec<f32> = lo.iter().map(|&l| l + rng.gen::<f32>()).collect();
                    HyperRect::new(lo, hi).unwrap()
                }
            })
            .collect()
    }

    fn naive_count(rects: &[HyperRect], center: &[f32], radius: f64) -> u64 {
        rects
            .iter()
            .filter(|r| r.intersects_sphere(center, radius))
            .count() as u64
    }

    #[test]
    fn construction_validates() {
        assert!(LeafSoup::from_rects(0, &[]).is_err());
        let r = HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert!(LeafSoup::from_rects(3, std::slice::from_ref(&r)).is_err());
        let soup = LeafSoup::from_rects(2, &[r]).unwrap();
        assert_eq!((soup.dim(), soup.len()), (2, 1));
        assert!(!soup.is_empty());
    }

    #[test]
    fn stripes_are_lane_padded_with_sentinels() {
        // len() stays logical; the backing stripes are padded to LANE_PAD
        // with +inf sentinels in both bounds of every dimension.
        for n in [0usize, 1, 15, 16, 17, 33] {
            let rects = random_rects(n, 3, 90 + n as u64);
            let soup = LeafSoup::from_rects(3, &rects).unwrap();
            assert_eq!(soup.len(), n);
            assert_eq!(soup.stride, n.next_multiple_of(LANE_PAD));
            assert_eq!(soup.lo.len(), 3 * soup.stride);
            for j in 0..3 {
                for i in n..soup.stride {
                    assert_eq!(soup.lo[j * soup.stride + i], f32::INFINITY);
                    assert_eq!(soup.hi[j * soup.stride + i], f32::INFINITY);
                }
            }
        }
    }

    #[test]
    fn empty_soup_counts_zero() {
        let soup = LeafSoup::from_rects(3, &[]).unwrap();
        assert!(soup.is_empty());
        assert_eq!(soup.count_intersecting(&[0.0, 0.0, 0.0], 10.0), 0);
        let queries = [(vec![0.0f32, 0.0, 0.0], 1.0f64)];
        let out = soup.count_batch_with(simd::active(), &queries, |q| (q.0.as_slice(), q.1));
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn matches_naive_across_shapes_and_radii() {
        let mut rng = seeded(42);
        for &dim in &[1usize, 2, 3, 7, 8, 64] {
            // Cross a LEAF_BLOCK boundary and include a short tail.
            for &n in &[1usize, 63, 64, 65, 200] {
                let rects = random_rects(n, dim, 1000 + (dim * n) as u64);
                let soup = LeafSoup::from_rects(dim, &rects).unwrap();
                for _ in 0..8 {
                    let c: Vec<f32> = (0..dim).map(|_| rng.gen::<f32>() * 6.0 - 3.0).collect();
                    for radius in [0.0, 0.3, 1.5, 10.0] {
                        assert_eq!(
                            soup.count_intersecting(&c, radius * radius),
                            naive_count(&rects, &c, radius),
                            "dim {dim}, n {n}, radius {radius}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_matches_single_query_counts() {
        let rects = random_rects(333, 6, 7);
        let soup = LeafSoup::from_rects(6, &rects).unwrap();
        let mut rng = seeded(8);
        let queries: Vec<(Vec<f32>, f64)> = (0..50)
            .map(|_| {
                let c: Vec<f32> = (0..6).map(|_| rng.gen::<f32>() * 6.0 - 3.0).collect();
                let r = rng.gen::<f64>() * 2.0;
                (c, r)
            })
            .collect();
        let expect: Vec<u64> = queries
            .iter()
            .map(|(c, r)| soup.count_intersecting(c, r * r))
            .collect();
        let got = soup.count_batch_with(simd::active(), &queries, |q| (q.0.as_slice(), q.1));
        assert_eq!(got, expect);
    }

    #[test]
    fn every_supported_isa_matches_naive() {
        // The cross-ISA deep dive lives in tests/simd_dispatch.rs; this is
        // the in-crate smoke version over one awkward shape.
        let rects = random_rects(77, 5, 55);
        let soup = LeafSoup::from_rects(5, &rects).unwrap();
        let mut rng = seeded(56);
        for _ in 0..6 {
            let c: Vec<f32> = (0..5).map(|_| rng.gen::<f32>() * 6.0 - 3.0).collect();
            let r = rng.gen::<f64>() * 2.0;
            let expect = naive_count(&rects, &c, r);
            for isa in simd::supported() {
                assert_eq!(
                    soup.count_intersecting_with(isa, &c, r * r),
                    expect,
                    "{isa}"
                );
            }
        }
    }

    #[test]
    fn for_each_visits_exactly_the_counted_rects_in_order() {
        // Block and group boundaries: 64 scalar lanes, 16/8 SIMD lanes.
        for n in [0usize, 1, 15, 17, 64, 65, 130] {
            let rects = random_rects(n, 9, 300 + n as u64);
            let soup = LeafSoup::from_rects(9, &rects).unwrap();
            let mut rng = seeded(301);
            for _ in 0..6 {
                let c: Vec<f32> = (0..9).map(|_| rng.gen::<f32>() * 6.0 - 3.0).collect();
                let r = rng.gen::<f64>() * 3.0;
                let want: Vec<usize> = (0..n)
                    .filter(|&i| rects[i].intersects_sphere(&c, r))
                    .collect();
                for isa in simd::supported() {
                    let mut got = Vec::new();
                    soup.for_each_intersecting(isa, &c, r * r, |i, d2| {
                        assert_eq!(
                            d2.to_bits(),
                            rects[i].mindist2(&c).to_bits(),
                            "{isa}, n {n}, rect {i}"
                        );
                        got.push(i);
                    });
                    assert_eq!(got, want, "{isa}, n {n}");
                }
            }
        }
    }

    #[test]
    fn tangent_sphere_counts_like_scalar_path() {
        // MINDIST² == r² exactly: the closed-ball convention must match
        // `intersects_sphere` (tangency counts).
        let rects = vec![HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap()];
        let soup = LeafSoup::from_rects(2, &rects).unwrap();
        assert_eq!(soup.count_intersecting(&[2.0, 1.0], 1.0), 1);
        assert_eq!(soup.count_intersecting(&[2.0, 1.0], 1.0 - 1e-9), 0);
    }
}
