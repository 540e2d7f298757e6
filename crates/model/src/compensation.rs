//! Theorem 1: the page-shrinkage compensation factor.
//!
//! For `C` uniformly distributed points in one dimension, the expected
//! extent of their minimal bounding interval in a unit range is
//! `(C−1)/(C+1)`. Reducing the point count to `C·ζ` shrinks the expected
//! extent by `((Cζ−1)(C+1)) / ((Cζ+1)(C−1))` per dimension; over `d`
//! dimensions the volume shrinks by that factor to the `d`-th power — the
//! paper's
//!
//! ```text
//! δ(C, ζ)^{-1} = ( (Cζ−1)(C+1) / ((Cζ+1)(C−1)) )^d
//! ```
//!
//! The predictors *grow* each mini-index page by the reciprocal per-
//! dimension factor so its expected geometry matches the full index page.
//! The formula needs `Cζ > 1` — a page of the mini-index must hold more
//! than one point on average, which is the paper's lower bound `ζ ≥ 1/C`
//! on the sampling rate (§3.3).

use hdidx_core::{Error, Result};

/// Per-dimension shrinkage of the expected MBR extent when the point count
/// drops from `c` to `c·zeta` (a value in `(0, 1]`).
///
/// # Errors
///
/// Requires `c > 1`, `zeta ∈ (0, 1]` and `c·zeta > 1`.
pub fn extent_shrinkage(c: f64, zeta: f64) -> Result<f64> {
    validate(c, zeta)?;
    Ok(((c * zeta - 1.0) * (c + 1.0)) / ((c * zeta + 1.0) * (c - 1.0)))
}

/// Per-dimension growth factor that compensates the shrinkage:
/// `1 / extent_shrinkage`. Apply with
/// [`HyperRect::scaled_about_center`](hdidx_core::HyperRect::scaled_about_center).
///
/// # Examples
///
/// ```
/// use hdidx_model::compensation::growth_factor;
///
/// // A 100-point page sampled at 10% keeps Cζ = 10 points and must be
/// // grown by (11 · 99) / (9 · 101) ≈ 1.198 per dimension.
/// let g = growth_factor(100.0, 0.1).unwrap();
/// assert!((g - 1089.0 / 909.0).abs() < 1e-12);
/// // Sampling below 1/C is rejected (a page would hold ≤ 1 point).
/// assert!(growth_factor(100.0, 0.005).is_err());
/// ```
///
/// # Errors
///
/// Same domain as [`extent_shrinkage`].
pub fn growth_factor(c: f64, zeta: f64) -> Result<f64> {
    Ok(1.0 / extent_shrinkage(c, zeta)?)
}

/// The volume compensation factor `δ(C, ζ) = growth_factor^d` of Theorem 1.
///
/// # Errors
///
/// Same domain as [`extent_shrinkage`]; additionally requires `d >= 1`.
pub fn delta(c: f64, zeta: f64, d: usize) -> Result<f64> {
    if d == 0 {
        return Err(Error::invalid("d", "dimensionality must be positive"));
    }
    Ok(growth_factor(c, zeta)?.powi(d as i32))
}

fn validate(c: f64, zeta: f64) -> Result<()> {
    if !(c.is_finite() && c > 1.0) {
        return Err(Error::invalid(
            "c",
            format!("page capacity must be finite and > 1, got {c}"),
        ));
    }
    if !(zeta.is_finite() && zeta > 0.0 && zeta <= 1.0) {
        return Err(Error::invalid(
            "zeta",
            format!("sampling fraction must lie in (0, 1], got {zeta}"),
        ));
    }
    if c * zeta <= 1.0 {
        return Err(Error::invalid(
            "zeta",
            format!(
                "C·ζ = {:.4} <= 1: a mini-index page would hold at most one \
                 point; the sampling rate must exceed 1/C (paper §3.3)",
                c * zeta
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_sampling_means_no_compensation() {
        assert!((extent_shrinkage(100.0, 1.0).unwrap() - 1.0).abs() < 1e-12);
        assert!((growth_factor(100.0, 1.0).unwrap() - 1.0).abs() < 1e-12);
        assert!((delta(100.0, 1.0, 60).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hand_computed_example() {
        // C = 100, ζ = 0.1: shrinkage = (9 · 101) / (11 · 99) = 909/1089.
        let s = extent_shrinkage(100.0, 0.1).unwrap();
        assert!((s - 909.0 / 1089.0).abs() < 1e-12);
        let g = growth_factor(100.0, 0.1).unwrap();
        assert!((g - 1089.0 / 909.0).abs() < 1e-12);
        let d = delta(100.0, 0.1, 3).unwrap();
        assert!((d - g.powi(3)).abs() < 1e-12);
    }

    #[test]
    fn growth_decreases_with_larger_sample() {
        let g10 = growth_factor(50.0, 0.1).unwrap();
        let g50 = growth_factor(50.0, 0.5).unwrap();
        let g90 = growth_factor(50.0, 0.9).unwrap();
        assert!(g10 > g50 && g50 > g90 && g90 > 1.0);
    }

    #[test]
    fn growth_decreases_with_larger_capacity() {
        // Big pages (e.g. the upper-tree cuts with thousands of points)
        // barely shrink under sampling.
        let small = growth_factor(10.0, 0.3).unwrap();
        let big = growth_factor(10_000.0, 0.3).unwrap();
        assert!(small > big);
        assert!(big < 1.001);
    }

    #[test]
    fn matches_order_statistics_expectation() {
        // E[extent of C uniform points in [0,1]] = (C-1)/(C+1); the ratio
        // of two such extents is what the shrinkage encodes.
        let c = 40.0;
        let zeta = 0.25;
        let expect = ((c * zeta - 1.0) / (c * zeta + 1.0)) / ((c - 1.0) / (c + 1.0));
        assert!((extent_shrinkage(c, zeta).unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn domain_violations_rejected() {
        assert!(extent_shrinkage(1.0, 0.5).is_err()); // c <= 1
        assert!(extent_shrinkage(100.0, 0.0).is_err()); // zeta <= 0
        assert!(extent_shrinkage(100.0, 1.5).is_err()); // zeta > 1
        assert!(extent_shrinkage(100.0, 0.005).is_err()); // C·ζ <= 1
        assert!(extent_shrinkage(f64::NAN, 0.5).is_err());
        assert!(delta(100.0, 0.5, 0).is_err());
    }

    /// Monte-Carlo validation of Theorem 1's one-dimensional core: the
    /// expected extent ratio of a ζ-subsample matches the formula.
    #[test]
    fn monte_carlo_extent_ratio() {
        use hdidx_rand::seeded;
        use hdidx_rand::Rng;
        let mut rng = seeded(123);
        let c = 64usize;
        let zeta = 0.25;
        let c_small = (c as f64 * zeta) as usize; // 16
        let trials = 20_000;
        let mut full_sum = 0.0f64;
        let mut small_sum = 0.0f64;
        for _ in 0..trials {
            let mut pts: Vec<f64> = (0..c).map(|_| rng.gen::<f64>()).collect();
            pts.sort_by(f64::total_cmp);
            full_sum += pts.last().unwrap() - pts.first().unwrap();
            // Independent draw of the subsample (expectations only).
            let mut sub: Vec<f64> = (0..c_small).map(|_| rng.gen::<f64>()).collect();
            sub.sort_by(f64::total_cmp);
            small_sum += sub.last().unwrap() - sub.first().unwrap();
        }
        let measured_ratio = small_sum / full_sum;
        let predicted = extent_shrinkage(c as f64, zeta).unwrap();
        assert!(
            (measured_ratio - predicted).abs() < 0.01,
            "measured {measured_ratio}, predicted {predicted}"
        );
    }
}
