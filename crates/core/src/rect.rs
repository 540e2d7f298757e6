//! Hyper-rectangles (minimal bounding boxes) and the geometric predicates
//! used by the index structures and the prediction model.
//!
//! Coordinates are stored as `f32` (matching [`crate::Dataset`]); all derived
//! quantities (volumes, distances) are computed in `f64`. Volumes in 60+
//! dimensions underflow/overflow `f64` easily, so a *log-volume* accessor is
//! provided alongside the plain product.

use crate::error::{Error, Result};

/// An axis-aligned hyper-rectangle `[lo, hi]` in `dim` dimensions.
///
/// Invariant: `lo.len() == hi.len()` and `lo[j] <= hi[j]` for every `j`.
/// Degenerate (zero-extent) rectangles are allowed — a page holding a single
/// point has one.
///
/// # Examples
///
/// ```
/// use hdidx_core::HyperRect;
///
/// let page = HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
/// assert_eq!(page.mindist2(&[2.0, 1.0]), 1.0);
/// assert!(page.intersects_sphere(&[2.0, 1.0], 1.0)); // tangent counts
/// // Theorem-1 style growth around the center:
/// let grown = page.scaled_about_center(2.0).unwrap();
/// assert!(grown.contains_point(&[-0.5, -0.5]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HyperRect {
    lo: Vec<f32>,
    hi: Vec<f32>,
}

impl HyperRect {
    /// Creates a rectangle from explicit bounds.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the bound vectors differ in
    /// length and [`Error::InvalidParameter`] if any `lo[j] > hi[j]` or any
    /// coordinate is non-finite.
    pub fn new(lo: Vec<f32>, hi: Vec<f32>) -> Result<Self> {
        if lo.len() != hi.len() {
            return Err(Error::DimensionMismatch {
                expected: lo.len(),
                actual: hi.len(),
            });
        }
        if lo.is_empty() {
            return Err(Error::invalid("lo", "dimensionality must be positive"));
        }
        for j in 0..lo.len() {
            if !lo[j].is_finite() || !hi[j].is_finite() {
                return Err(Error::invalid("bounds", "coordinates must be finite"));
            }
            if lo[j] > hi[j] {
                return Err(Error::invalid(
                    "bounds",
                    format!("lo[{j}] = {} exceeds hi[{j}] = {}", lo[j], hi[j]),
                ));
            }
        }
        Ok(HyperRect { lo, hi })
    }

    /// The degenerate rectangle containing exactly one point.
    pub fn point(p: &[f32]) -> Self {
        HyperRect {
            lo: p.to_vec(),
            hi: p.to_vec(),
        }
    }

    /// Lower bounds per dimension.
    #[inline]
    pub fn lo(&self) -> &[f32] {
        &self.lo
    }

    /// Upper bounds per dimension.
    #[inline]
    pub fn hi(&self) -> &[f32] {
        &self.hi
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Extent (`hi - lo`) along dimension `j`.
    #[inline]
    pub fn extent(&self, j: usize) -> f64 {
        f64::from(self.hi[j]) - f64::from(self.lo[j])
    }

    /// Center coordinate along dimension `j`.
    #[inline]
    pub fn center(&self, j: usize) -> f64 {
        0.5 * (f64::from(self.hi[j]) + f64::from(self.lo[j]))
    }

    /// Index of the dimension with the largest extent (ties broken towards
    /// the lower index). Under in-page uniformity this is also the dimension
    /// of maximum variance, which is why the cutoff tree (paper §4.3) splits
    /// along it.
    pub fn longest_dim(&self) -> usize {
        let mut best = 0usize;
        let mut best_ext = self.extent(0);
        for j in 1..self.dim() {
            let e = self.extent(j);
            if e > best_ext {
                best = j;
                best_ext = e;
            }
        }
        best
    }

    /// Volume as a plain product of extents. Returns 0 for degenerate boxes
    /// and may under/overflow in high dimensions — prefer
    /// [`HyperRect::log2_volume`] there.
    pub fn volume(&self) -> f64 {
        (0..self.dim()).map(|j| self.extent(j)).product()
    }

    /// Base-2 logarithm of the volume; `-inf` for degenerate boxes.
    pub fn log2_volume(&self) -> f64 {
        (0..self.dim()).map(|j| self.extent(j).log2()).sum()
    }

    /// Grows the rectangle to include point `p`.
    ///
    /// Each bound is rewritten in select form, `lo = if x < lo { x } else
    /// { lo }`: the same comparison as a conditional store (a NaN on either
    /// side, or a zero of the other sign, compares false and leaves the
    /// bound as it was), but branch-free, so the loop vectorizes to packed
    /// `min`/`max`. Every MBR in the workspace is grown through here or
    /// [`HyperRect::expand_to_rect`].
    ///
    /// # Panics
    ///
    /// Debug-asserts matching dimensionality.
    #[inline]
    pub fn expand_to_point(&mut self, p: &[f32]) {
        debug_assert_eq!(p.len(), self.dim());
        grow_bounds(&mut self.lo, &mut self.hi, p, p);
    }

    /// Grows the rectangle to include another rectangle (select form, as
    /// [`HyperRect::expand_to_point`]).
    ///
    /// # Panics
    ///
    /// Debug-asserts matching dimensionality.
    #[inline]
    pub fn expand_to_rect(&mut self, other: &HyperRect) {
        debug_assert_eq!(other.dim(), self.dim());
        grow_bounds(&mut self.lo, &mut self.hi, &other.lo, &other.hi);
    }

    /// Whether the rectangle contains point `p` (closed bounds).
    #[inline]
    pub fn contains_point(&self, p: &[f32]) -> bool {
        debug_assert_eq!(p.len(), self.dim());
        p.iter()
            .enumerate()
            .all(|(j, &x)| x >= self.lo[j] && x <= self.hi[j])
    }

    /// MINDIST²: squared Euclidean distance from point `q` to the nearest
    /// point of the rectangle (0 if `q` lies inside). This is the classic
    /// R-tree lower bound used by best-first nearest-neighbor search and by
    /// the sphere-intersection counting of the prediction model.
    ///
    /// Each dimension adds `mindist_term``²` in ascending order: the same
    /// branch-free operands, in the same order, as every [`crate::LeafSoup`]
    /// kernel lane, so a soup lane's MINDIST² equals this value bit for bit.
    #[inline]
    pub fn mindist2(&self, q: &[f32]) -> f64 {
        debug_assert_eq!(q.len(), self.dim());
        let mut acc = 0.0f64;
        for ((&lo, &hi), &x) in self.lo.iter().zip(&self.hi).zip(q) {
            let d = mindist_term(lo, hi, x);
            acc += d * d;
        }
        acc
    }

    /// Early-exit MINDIST² predicate: whether the squared distance from `q`
    /// to the rectangle exceeds `r2`, stopping the accumulation as soon as
    /// the partial sum is decided. Because every per-dimension term is
    /// non-negative and `f64` addition of non-negative terms is monotone,
    /// a partial sum above `r2` can never come back down — the answer is
    /// exactly `self.mindist2(q) > r2`, at a fraction of the work for far
    /// rectangles in high dimensions. [`HyperRect::mindist2`] itself stays
    /// exact (best-first search needs the full value for its frontier
    /// ordering). A negative `r²` is exceeded even by a rectangle that
    /// holds `q`, as in every [`crate::LeafSoup`] kernel; `-0.0` only by
    /// one that does not, and NaN by none.
    #[inline]
    pub fn mindist2_exceeds(&self, q: &[f32], r2: f64) -> bool {
        debug_assert_eq!(q.len(), self.dim());
        let mut acc = 0.0f64;
        for ((&lo, &hi), &x) in self.lo.iter().zip(&self.hi).zip(q) {
            let x = f64::from(x);
            let lo = f64::from(lo);
            let hi = f64::from(hi);
            let d = if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                continue;
            };
            acc += d * d;
            if acc > r2 {
                return true;
            }
        }
        acc > r2
    }

    /// Whether the closed ball `{x : |x - center| <= radius}` intersects the
    /// rectangle. A query whose final k-NN sphere intersects a leaf page must
    /// read that page (and an optimal NN algorithm reads exactly those
    /// pages), so this predicate *is* the page-access model of the paper.
    /// It decides `mindist2(center) <= radius * radius`, bit for bit, as
    /// every [`crate::LeafSoup`] kernel does: a NaN radius meets no box.
    /// The early-exit [`HyperRect::mindist2_exceeds`] decides every
    /// numeric `r²`.
    #[inline]
    pub fn intersects_sphere(&self, center: &[f32], radius: f64) -> bool {
        let r2 = radius * radius;
        !r2.is_nan() && !self.mindist2_exceeds(center, r2)
    }

    /// Scales the rectangle about its center by `factor` independently in
    /// every dimension. `factor > 1` grows the box — this is how the
    /// compensation factor of Theorem 1 is applied (the paper grows each
    /// mini-index leaf page so its expected volume matches the full index).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `factor` is not finite and
    /// positive.
    pub fn scaled_about_center(&self, factor: f64) -> Result<HyperRect> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(Error::invalid(
                "factor",
                format!("scale factor must be finite and positive, got {factor}"),
            ));
        }
        let mut lo = Vec::with_capacity(self.dim());
        let mut hi = Vec::with_capacity(self.dim());
        for j in 0..self.dim() {
            let c = self.center(j);
            let half = 0.5 * self.extent(j) * factor;
            lo.push((c - half) as f32);
            hi.push((c + half) as f32);
        }
        Ok(HyperRect { lo, hi })
    }

    /// Splits the rectangle along dimension `dim` at coordinate `at`,
    /// returning the `(low, high)` halves. `at` is clamped into the box so
    /// the result always satisfies the bound invariant.
    pub fn split_at(&self, dim: usize, at: f32) -> (HyperRect, HyperRect) {
        debug_assert!(dim < self.dim());
        let at = at.clamp(self.lo[dim], self.hi[dim]);
        let mut left = self.clone();
        let mut right = self.clone();
        left.hi[dim] = at;
        right.lo[dim] = at;
        (left, right)
    }
}

/// Lowers each `lo[j]` to `add_lo[j]` and raises each `hi[j]` to
/// `add_hi[j]` where they compare beyond it. Written as selects over
/// zipped slices, not conditional stores, so LLVM emits `minps`/`maxps`
/// (whose operand order matches `x < lo ? x : lo` exactly, NaN included).
#[inline]
fn grow_bounds(lo: &mut [f32], hi: &mut [f32], add_lo: &[f32], add_hi: &[f32]) {
    for (lo, &x) in lo.iter_mut().zip(add_lo) {
        *lo = if x < *lo { x } else { *lo };
    }
    for (hi, &x) in hi.iter_mut().zip(add_hi) {
        *hi = if x > *hi { x } else { *hi };
    }
}

/// One dimension's MINDIST term, `max(lo − x, x − hi, 0)` in `f64`, in
/// branch-free form: below the box it is `lo − x`, above it `x − hi`, and
/// inside it `+0.0` or `-0.0`, which square to the `+0.0` that leaves a
/// non-negative sum unchanged. A NaN operand loses to the other one in
/// `f64::max`, so a NaN coordinate (or an `∞ − ∞`) yields a zero term, as
/// the comparisons `x < lo` and `x > hi` both fail on it.
#[inline]
fn mindist_term(lo: f32, hi: f32, x: f32) -> f64 {
    let x = f64::from(x);
    (f64::from(lo) - x).max(x - f64::from(hi)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;
    use hdidx_check::{check, prop_assert_eq, prop_assume, Config, Verdict};
    use hdidx_rand::Rng;

    /// The conditional-store growth that the select form replaced: the
    /// oracle [`HyperRect::expand_to_point`] is pinned against.
    fn expand_to_point_branchy(r: &mut HyperRect, p: &[f32]) {
        for ((lo, hi), &x) in r.lo.iter_mut().zip(r.hi.iter_mut()).zip(p) {
            if x < *lo {
                *lo = x;
            }
            if x > *hi {
                *hi = x;
            }
        }
    }

    /// The conditional-store oracle of [`HyperRect::expand_to_rect`].
    fn expand_to_rect_branchy(r: &mut HyperRect, other: &HyperRect) {
        for j in 0..r.dim() {
            if other.lo[j] < r.lo[j] {
                r.lo[j] = other.lo[j];
            }
            if other.hi[j] > r.hi[j] {
                r.hi[j] = other.hi[j];
            }
        }
    }

    /// Bounds as bit patterns, so NaN and the sign of zero compare too.
    fn bits(r: &HyperRect) -> (Vec<u32>, Vec<u32>) {
        (
            r.lo.iter().map(|x| x.to_bits()).collect(),
            r.hi.iter().map(|x| x.to_bits()).collect(),
        )
    }

    /// A coordinate that lands on the comparison's edge cases often: NaN,
    /// both zeros, both infinities and a repeated value (equal bounds),
    /// besides ordinary floats.
    fn edgy_coord(rng: &mut impl Rng) -> f32 {
        match rng.gen_range(0..12u32) {
            0 => f32::NAN,
            1 => -0.0,
            2 => 0.0,
            3 => f32::INFINITY,
            4 => f32::NEG_INFINITY,
            5 => 1.0,
            _ => rng.gen_range(-4.0..4.0f32),
        }
    }

    #[test]
    fn select_form_growth_matches_branchy_bitwise() {
        check(
            "select_form_growth_matches_branchy_bitwise",
            &Config::with_cases(256),
            |rng| {
                let dim = rng.gen_range(1..20usize);
                let n = rng.gen_range(1..24usize);
                (
                    dim,
                    (0..n * dim).map(|_| edgy_coord(rng)).collect::<Vec<f32>>(),
                )
            },
            |(dim, coords)| {
                let dim = *dim;
                prop_assume!(dim >= 1 && coords.len() >= dim);
                let points: Vec<&[f32]> = coords.chunks_exact(dim).collect();
                // Point growth, checked after every point.
                let mut fast = HyperRect::point(points[0]);
                let mut slow = fast.clone();
                for p in &points[1..] {
                    fast.expand_to_point(p);
                    expand_to_point_branchy(&mut slow, p);
                    prop_assert_eq!(bits(&fast), bits(&slow));
                }
                // Rect growth by consecutive point pairs taken as (lo, hi),
                // unordered bounds included.
                let mut fast = HyperRect::point(points[0]);
                let mut slow = fast.clone();
                for pair in points.windows(2) {
                    let other = HyperRect {
                        lo: pair[0].to_vec(),
                        hi: pair[1].to_vec(),
                    };
                    fast.expand_to_rect(&other);
                    expand_to_rect_branchy(&mut slow, &other);
                    prop_assert_eq!(bits(&fast), bits(&slow));
                }
                // MBR of an id subset in reverse order.
                let data = Dataset::from_flat(dim, coords[..points.len() * dim].to_vec()).unwrap();
                let ids: Vec<u32> = (0..points.len() as u32).rev().step_by(2).collect();
                let mut slow = HyperRect::point(data.point(ids[0] as usize));
                for &id in &ids[1..] {
                    expand_to_point_branchy(&mut slow, data.point(id as usize));
                }
                prop_assert_eq!(bits(&data.mbr_of(&ids).unwrap()), bits(&slow));
                Verdict::Pass
            },
        );
    }

    #[test]
    fn select_form_growth_keeps_signed_zero_and_nan_bounds() {
        // Equal-comparing zeros never replace a bound; a NaN coordinate
        // never enters one; a NaN bound is never replaced.
        let mut r = HyperRect::point(&[0.0, -0.0, f32::NAN]);
        r.expand_to_point(&[-0.0, 0.0, 5.0]);
        assert_eq!(r.lo()[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(r.hi()[1].to_bits(), (-0.0f32).to_bits());
        assert!(r.lo()[2].is_nan() && r.hi()[2].is_nan());
        r.expand_to_point(&[f32::NAN, f32::NEG_INFINITY, 1.0]);
        assert_eq!(r.lo()[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(r.lo()[1], f32::NEG_INFINITY);
    }

    /// The branchy MINDIST² that the branch-free form replaced: the oracle
    /// [`HyperRect::mindist2`] is pinned against.
    fn mindist2_branchy(r: &HyperRect, q: &[f32]) -> f64 {
        let mut acc = 0.0f64;
        for ((&lo, &hi), &x) in r.lo.iter().zip(&r.hi).zip(q) {
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

    #[test]
    fn branch_free_mindist2_matches_branchy_bitwise() {
        // Boxes with `lo <= hi` wherever both bounds are numbers (every
        // box `HyperRect::new` accepts, and degenerate ones), a NaN bound
        // anywhere, and query coordinates on either face, inside, outside,
        // NaN, ±∞ and ±0. Only an inverted numeric bound, which no box
        // can have, would tell the two forms apart.
        check(
            "branch_free_mindist2_matches_branchy_bitwise",
            &Config::with_cases(512),
            |rng| {
                let dim = rng.gen_range(1..20usize);
                let rect: Vec<(f32, f32)> = (0..dim)
                    .map(|_| {
                        let (a, b) = (edgy_coord(rng), edgy_coord(rng));
                        match rng.gen_range(0..4u32) {
                            0 => (a, a),
                            _ if a > b => (b, a),
                            _ => (a, b),
                        }
                    })
                    .collect();
                let q: Vec<f32> = rect
                    .iter()
                    .map(|&(lo, hi)| match rng.gen_range(0..4u32) {
                        0 => lo,
                        1 => hi,
                        _ => edgy_coord(rng),
                    })
                    .collect();
                (rect, q)
            },
            |(rect, q)| {
                prop_assume!(!rect.is_empty() && rect.len() == q.len());
                let r = HyperRect {
                    lo: rect.iter().map(|b| b.0).collect(),
                    hi: rect.iter().map(|b| b.1).collect(),
                };
                prop_assert_eq!(r.mindist2(q).to_bits(), mindist2_branchy(&r, q).to_bits());
                Verdict::Pass
            },
        );
    }

    #[test]
    fn nan_radius_meets_no_box() {
        let r = unit2();
        for c in [[0.5f32, 0.5], [3.0, 3.0], [f32::NAN, 0.5]] {
            assert!(!r.intersects_sphere(&c, f64::NAN), "{c:?}");
            assert!(r.intersects_sphere(&c, f64::INFINITY), "{c:?}");
        }
    }

    fn unit2() -> HyperRect {
        HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap()
    }

    #[test]
    fn new_validates_bounds() {
        assert!(HyperRect::new(vec![0.0], vec![1.0, 2.0]).is_err());
        assert!(HyperRect::new(vec![], vec![]).is_err());
        assert!(HyperRect::new(vec![2.0], vec![1.0]).is_err());
        assert!(HyperRect::new(vec![f32::NAN], vec![1.0]).is_err());
        assert!(HyperRect::new(vec![0.0], vec![f32::INFINITY]).is_err());
        assert!(HyperRect::new(vec![1.0], vec![1.0]).is_ok());
    }

    #[test]
    fn extent_center_longest() {
        let r = HyperRect::new(vec![0.0, -2.0], vec![1.0, 4.0]).unwrap();
        assert_eq!(r.extent(0), 1.0);
        assert_eq!(r.extent(1), 6.0);
        assert_eq!(r.center(1), 1.0);
        assert_eq!(r.longest_dim(), 1);
    }

    #[test]
    fn longest_dim_tie_breaks_low() {
        let r = HyperRect::new(vec![0.0, 0.0, 0.0], vec![2.0, 2.0, 1.0]).unwrap();
        assert_eq!(r.longest_dim(), 0);
    }

    #[test]
    fn volume_and_log_volume_agree() {
        let r = HyperRect::new(vec![0.0, 0.0, 0.0], vec![2.0, 4.0, 0.5]).unwrap();
        assert!((r.volume() - 4.0).abs() < 1e-12);
        assert!((r.log2_volume() - 2.0).abs() < 1e-12);
        let degenerate = HyperRect::point(&[1.0, 2.0]);
        assert_eq!(degenerate.volume(), 0.0);
        assert_eq!(degenerate.log2_volume(), f64::NEG_INFINITY);
    }

    #[test]
    fn expansion_covers_inputs() {
        let mut r = HyperRect::point(&[0.0, 0.0]);
        r.expand_to_point(&[2.0, -1.0]);
        assert!(r.contains_point(&[1.0, -0.5]));
        assert!(!r.contains_point(&[3.0, 0.0]));
        let other = HyperRect::new(vec![-5.0, 0.0], vec![-4.0, 0.5]).unwrap();
        r.expand_to_rect(&other);
        assert!(r.contains_point(&[-4.5, 0.2]));
    }

    #[test]
    fn mindist2_inside_edge_outside() {
        let r = unit2();
        assert_eq!(r.mindist2(&[0.5, 0.5]), 0.0);
        assert_eq!(r.mindist2(&[1.0, 1.0]), 0.0);
        assert_eq!(r.mindist2(&[2.0, 1.0]), 1.0);
        assert_eq!(r.mindist2(&[2.0, 2.0]), 2.0);
        assert_eq!(r.mindist2(&[-1.0, 0.5]), 1.0);
    }

    #[test]
    fn sphere_intersection_boundary_cases() {
        let r = unit2();
        assert!(r.intersects_sphere(&[2.0, 1.0], 1.0)); // tangent
        assert!(!r.intersects_sphere(&[2.0, 1.0], 0.99));
        assert!(r.intersects_sphere(&[0.5, 0.5], 0.0)); // center inside
    }

    #[test]
    fn mindist2_exceeds_agrees_with_full_mindist2() {
        let r = HyperRect::new(vec![0.0, 0.0, 0.0], vec![1.0, 2.0, 0.5]).unwrap();
        let qs: [&[f32]; 4] = [
            &[0.5, 1.0, 0.25], // inside
            &[2.0, 1.0, 0.25], // one dim out
            &[2.0, 4.0, 3.0],  // all dims out
            &[-1.0, 3.0, 0.5], // mixed
        ];
        for q in qs {
            let d2 = r.mindist2(q);
            for r2 in [0.0, 0.5, d2, d2 + 1e-12, 10.0] {
                assert_eq!(r.mindist2_exceeds(q, r2), d2 > r2, "q = {q:?}, r2 = {r2}");
            }
        }
        // Tangency: mindist2 == r2 must not count as exceeding.
        let unit = unit2();
        assert!(!unit.mindist2_exceeds(&[2.0, 1.0], 1.0));
        assert!(unit.mindist2_exceeds(&[2.0, 1.0], 0.999));
    }

    #[test]
    fn negative_r2_is_exceeded_even_by_a_box_holding_the_centre() {
        let unit = unit2();
        let inside: &[f32] = &[0.5, 0.5];
        for r2 in [-f64::from_bits(1), -1.0] {
            assert!(unit.mindist2_exceeds(inside, r2), "r2 = {r2:e}");
            assert!(unit.mindist2_exceeds(&[2.0, 1.0], r2), "r2 = {r2:e}");
        }
        // -0.0 is no negative number: the centre's box meets it.
        assert!(!unit.mindist2_exceeds(inside, -0.0));
        assert!(unit.mindist2_exceeds(&[2.0, 1.0], -0.0));
        assert!(!unit.mindist2_exceeds(inside, f64::NAN));
    }

    #[test]
    fn scaling_preserves_center_and_scales_extent() {
        let r = HyperRect::new(vec![0.0, 2.0], vec![2.0, 6.0]).unwrap();
        let g = r.scaled_about_center(1.5).unwrap();
        assert!((g.center(0) - 1.0).abs() < 1e-6);
        assert!((g.center(1) - 4.0).abs() < 1e-6);
        assert!((g.extent(0) - 3.0).abs() < 1e-5);
        assert!((g.extent(1) - 6.0).abs() < 1e-5);
        assert!(r.scaled_about_center(0.0).is_err());
        assert!(r.scaled_about_center(f64::NAN).is_err());
    }

    #[test]
    fn split_clamps_position() {
        let r = unit2();
        let (a, b) = r.split_at(0, 0.25);
        assert_eq!(a.hi()[0], 0.25);
        assert_eq!(b.lo()[0], 0.25);
        let (a, _b) = r.split_at(0, -3.0);
        assert_eq!(a.hi()[0], 0.0); // clamped to lo
    }
}
